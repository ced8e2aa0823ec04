"""Primal-dual interior-point solver for smooth sparse NLPs.

Inequalities gl <= c_i(x) <= gu receive slack variables; finite
variable and slack bounds receive log barriers.  Each iteration takes
one Newton step on the perturbed KKT system, condensed to the
symmetric indefinite form

    [ W + Dx + Ji' Ds Ji   Je' ] [dx ]   [rhs_x]
    [ Je                  -dI  ] [dy ] = [rhs_y]

assembled sparse and factored by a sparse LDL': SuperLU in symmetric
mode with diagonal pivots only.  The dual regularization d starts at
1e-9, since SuperLU will not pivot on a zero diagonal.  When every
pivot is diagonal, Sylvester's law of inertia reads the inertia of the
matrix off the pivot signs, and the factor is accepted only at inertia
(n, m_eq, 0).  Wrong inertia, an off-diagonal pivot or singularity
triggers Levenberg regularization, reg <- max(reg0, 10 reg) and
d <- 10 d, at most 20 retries, warm-started from the last successful
level.  Once reg makes the (1,1) block positive definite the matrix is
quasi-definite, and a quasi-definite matrix has an LDL' factorization
in every ordering (Vanderbei 1995).

Globalization is a backtracking line search on the l1 exact-penalty
merit function of the barrier problem.  The penalty is kept above the
multiplier norms and cooled when they shrink; a rejected full step
earns one second-order correction (constraint residuals re-evaluated
at the trial point, same factorization) before backtracking.  Steps
are clipped by the fraction-to-boundary rule tau = max(tau_min,
1 - mu).  The barrier parameter follows the monotone schedule
mu <- max(tol/10, kappa_mu * mu) whenever the mu-perturbed KKT error
falls below 10 mu, and the solve terminates Optimal when the
unperturbed scaled KKT error is at most tol.

The problem is solved under internal gradient-based scaling (objective
and constraint rows scaled so their gradient norms at the start point
are at most 100, never scaled up); results, multipliers, and every
reported residual are in original units.

Convention: L = sigma f + lambda' c - z_lb'(x - xl) - z_ub'(xu - x),
so multipliers satisfy grad f + J' lambda - z_lb + z_ub = 0.
Variables with xl == xu are eliminated by substitution before solving
and report zero bound multipliers.  Runs are deterministic: identical
inputs produce bitwise-identical iterates.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from .errors import DimensionMismatch
from .nlp import NlpProblem

OPTIMAL = "Optimal"
MAX_ITER = "MaxIter"
INFEASIBLE = "Infeasible"
NUMERIC_FAILURE = "NumericFailure"

_STEP_MIN = 1e-14
_STALL_WINDOW = 30
_STALL_FEAS = 1e-4
_KAPPA_SIGMA = 1e10
_SCALE_GRAD = 100.0
# first dual regularization: SuperLU will not pivot on a zero diagonal
_DELTA0 = 1e-9


@dataclass
class SolverOptions:
    tol: float = 1e-6
    max_iter: int = 200
    mu0: float = 0.1
    kappa_mu: float = 0.2
    tau_min: float = 0.99
    reg0: float = 1e-8
    max_reg_retries: int = 20


@dataclass
class IterationRecord:
    it: int
    mu: float
    nu: float
    merit: float
    stationarity: float
    feasibility: float
    complementarity: float
    alpha_primal: float
    alpha_dual: float
    reg: float
    min_slack_gap: float
    min_bound_gap: float


@dataclass
class SolveResult:
    status: str
    x: np.ndarray
    objective: float
    lambda_eq: np.ndarray
    lambda_ineq: np.ndarray
    z_lb: np.ndarray
    z_ub: np.ndarray
    kkt: tuple[float, float, float]
    iterations: int
    iter_log: list[IterationRecord] = field(default_factory=list)
    message: str = ""


# --- fixed-variable elimination and scaling --------------------------------


class _View:
    """Problem with xl == xu variables substituted out, objective and
    constraint rows scaled so start-point gradient norms are <= 100."""

    def __init__(self, p: NlpProblem):
        self.p = p
        fixed = p.xl == p.xu
        self.free = np.flatnonzero(~fixed)
        self.fixed = np.flatnonzero(fixed)
        self.template = np.where(fixed, p.xl, 0.0)
        self.n = self.free.size
        self.xl = p.xl[self.free]
        self.xu = p.xu[self.free]
        self.x0 = p.x0[self.free]

        m = p.m_eq + p.m_ineq
        x_start = _push_interior(self.x0, self.xl, self.xu)
        g0 = self.p.gradient(self.lift(x_start))[self.free]
        gmax = float(np.max(np.abs(g0))) if g0.size else 0.0
        self.s_f = min(1.0, _SCALE_GRAD / gmax) if gmax > 0 else 1.0
        if m:
            j0 = self.p.jacobian(self.lift(x_start))[:, self.free]
            row_inf = np.zeros(m)
            j0a = np.abs(j0.tocsr())
            row_max = j0a.max(axis=1).toarray().ravel()
            row_inf[:row_max.size] = row_max
            with np.errstate(divide="ignore"):
                self.s_c = np.minimum(1.0, _SCALE_GRAD / row_inf)
            self.s_c[~np.isfinite(self.s_c)] = 1.0
        else:
            self.s_c = np.zeros(0)
        self.gl = self.s_c[p.m_eq:] * p.gl
        self.gu = self.s_c[p.m_eq:] * p.gu

    def lift(self, x: np.ndarray) -> np.ndarray:
        full = self.template.copy()
        full[self.free] = x
        return full

    def objective(self, x):
        return self.s_f * self.p.objective(self.lift(x))

    def gradient(self, x):
        return self.s_f * self.p.gradient(self.lift(x))[self.free]

    def constraints(self, x):
        return self.s_c * self.p.constraints(self.lift(x))

    def jacobian(self, x):
        j = self.p.jacobian(self.lift(x))[:, self.free]
        return sp.diags(self.s_c) @ j

    def hessian(self, x, sigma, mult):
        h = self.p.lagrangian_hessian(self.lift(x), sigma * self.s_f,
                                      mult * self.s_c)
        return h[self.free][:, self.free]


# --- KKT factorization ------------------------------------------------------


def _kkt_lower(hess, dx_diag, ji, ds_diag, je) -> sp.coo_matrix:
    """Summed lower triangle of K = [[H + Dx + Ji' Ds Ji, Je'], [Je, 0]]
    as COO, with every diagonal entry stored."""
    n, me = hess.shape[0], je.shape[0]
    dim = n + me
    blocks = [hess.tocoo()]
    if ji.shape[0]:
        blocks.append((ji.T @ ji.multiply(ds_diag[:, None])).tocoo())
    je = je.tocoo()
    diag = np.arange(dim)
    r = np.concatenate([b.row for b in blocks] + [je.row + n, diag])
    c = np.concatenate([b.col for b in blocks] + [je.col, diag])
    v = np.concatenate([b.data for b in blocks]
                       + [je.data, dx_diag, np.zeros(me)])
    low = r >= c
    k = sp.coo_matrix((v[low], (r[low], c[low])), shape=(dim, dim))
    k.sum_duplicates()
    return k


class _SparseLdl:
    """Sparse LDL' of the regularized KKT matrix with certified inertia.

    K gets reg on its first n diagonal entries and -delta on the last
    m_eq, and is mirrored from its lower triangle so it is exactly
    symmetric.  SuperLU in symmetric mode with a zero pivot threshold
    pivots on the diagonal of the fill-reducing ordering; when it did
    (perm_r == perm_c) the factorization is P K P' = L U with U = D L',
    so by Sylvester's law the signs of diag(U) are the inertia of K.
    ok holds when they count (n, m_eq).  A singular K or an off-diagonal
    pivot is reported as not ok.
    """

    def __init__(self, low: sp.coo_matrix, reg: float, delta: float,
                 n: int, me: int):
        r, c = low.row, low.col
        v = low.data.copy()
        on_diag = r == c
        v[on_diag] += np.where(r[on_diag] < n, reg, -delta)
        strict = r > c
        k = sp.csc_matrix((np.concatenate([v, v[strict]]),
                           (np.concatenate([r, c[strict]]),
                            np.concatenate([c, r[strict]]))),
                          shape=low.shape)
        self.ok = False
        try:
            self.lu = splu(k, permc_spec="MMD_AT_PLUS_A",
                           diag_pivot_thresh=0.0,
                           options={"SymmetricMode": True})
        except RuntimeError:
            return
        d = self.lu.U.diagonal()
        self.ok = (np.array_equal(self.lu.perm_r, self.lu.perm_c)
                   and np.count_nonzero(d > 0.0) == n
                   and np.count_nonzero(d < 0.0) == me)

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        return self.lu.solve(rhs)


# --- solver ----------------------------------------------------------------


def _push_interior(x, lo, hi, kappa=1e-2):
    """Clip into [lo, hi] with a relative margin off each finite bound."""
    x = x.copy()
    width = hi - lo
    fl = np.isfinite(lo)
    fu = np.isfinite(hi)
    pad_l = np.where(fl & fu,
                     np.minimum(kappa * np.maximum(1.0, np.abs(lo)),
                                0.5 * kappa * width),
                     kappa * np.maximum(1.0, np.abs(np.where(fl, lo, 0.0))))
    pad_u = np.where(fl & fu,
                     np.minimum(kappa * np.maximum(1.0, np.abs(hi)),
                                0.5 * kappa * width),
                     kappa * np.maximum(1.0, np.abs(np.where(fu, hi, 0.0))))
    x = np.where(fl, np.maximum(x, lo + pad_l), x)
    x = np.where(fu, np.minimum(x, hi - pad_u), x)
    return x


def _max_step(v, dv, tau):
    """Largest alpha in (0, 1] with v + alpha dv >= (1 - tau) v."""
    mask = dv < 0.0
    if not np.any(mask):
        return 1.0
    return float(min(1.0, np.min(-tau * v[mask] / dv[mask])))


class _Ipm:
    def __init__(self, problem: NlpProblem, options: SolverOptions):
        self.p = problem
        self.opt = options
        self.view = _View(problem)
        v = self.view
        self.n = v.n
        self.me = problem.m_eq
        self.mi = problem.m_ineq
        self.gl = v.gl
        self.gu = v.gu
        self.fxl = np.isfinite(v.xl)
        self.fxu = np.isfinite(v.xu)
        self.fsl = np.isfinite(self.gl)
        self.fsu = np.isfinite(self.gu)
        # multiplier maps back to original units
        self.u_eq = v.s_c[:self.me] / v.s_f
        self.u_in = v.s_c[self.me:] / v.s_f
        self.log: list[IterationRecord] = []

    # gap helpers (finite sides only; infinite sides report +inf)
    def _gaps(self, x, s):
        gxl = np.where(self.fxl, x - self.view.xl, np.inf)
        gxu = np.where(self.fxu, self.view.xu - x, np.inf)
        gsl = np.where(self.fsl, s - self.gl, np.inf)
        gsu = np.where(self.fsu, self.gu - s, np.inf)
        return gxl, gxu, gsl, gsu

    def _barrier(self, x, s):
        gxl, gxu, gsl, gsu = self._gaps(x, s)
        terms = 0.0
        for gap, mask in ((gxl, self.fxl), (gxu, self.fxu),
                          (gsl, self.fsl), (gsu, self.fsu)):
            g = gap[mask]
            if g.size:
                if np.any(g <= 0.0):
                    return np.inf
                terms -= float(np.sum(np.log(g)))
        return terms

    def _merit(self, x, s, mu, nu):
        c = self.view.constraints(x)
        ce, ci = c[:self.me], c[self.me:]
        viol = (float(np.sum(np.abs(ce))) +
                float(np.sum(np.abs(ci - s))))
        bar = self._barrier(x, s)
        if not np.isfinite(bar):
            return np.inf
        return self.view.objective(x) + mu * bar + nu * viol

    def solve(self) -> SolveResult:
        opt, v = self.opt, self.view
        n, me, mi = self.n, self.me, self.mi
        mu_min = opt.tol / 10.0
        s_f = v.s_f

        x = _push_interior(v.x0, v.xl, v.xu)
        ci0 = self.view.constraints(x)[me:]
        s = _push_interior(ci0, self.gl, self.gu)
        lam_e = np.zeros(me)
        lam_i = np.zeros(mi)
        mu = opt.mu0
        gxl, gxu, gsl, gsu = self._gaps(x, s)
        zxl = np.where(self.fxl, np.clip(mu / gxl, 1e-6, 1e3), 0.0)
        zxu = np.where(self.fxu, np.clip(mu / gxu, 1e-6, 1e3), 0.0)
        zsl = np.where(self.fsl, np.clip(mu / gsl, 1e-6, 1e3), 0.0)
        zsu = np.where(self.fsu, np.clip(mu / gsu, 1e-6, 1e3), 0.0)
        nu = 1.0
        best_feas = np.inf
        stall = 0
        reg_last = 0.0
        status, message = MAX_ITER, ""
        it = 0
        kkt_out = (np.inf, np.inf, np.inf)

        while it < opt.max_iter:
            g = v.gradient(x)
            c = v.constraints(x)
            ce, ci = c[:me], c[me:]
            jac = v.jacobian(x)
            je, ji = jac[:me], jac[me:]
            ri = ci - s
            gxl, gxu, gsl, gsu = self._gaps(x, s)

            rx = g - zxl + zxu
            if me:
                rx = rx + je.T @ lam_e
            if mi:
                rx = rx + ji.T @ lam_i
            rs = -lam_i - zsl + zsu

            # scaled-space residuals drive the barrier schedule
            mults = [lam_e, lam_i, zxl, zxu, zsl, zsu]
            mult_inf = max((float(np.max(np.abs(m))) for m in mults
                            if m.size), default=0.0)
            sd = max(1.0, mult_inf / 100.0)
            stat_s = max(float(np.max(np.abs(rx))) if n else 0.0,
                         float(np.max(np.abs(rs))) if mi else 0.0) / sd
            feas_s = max(float(np.max(np.abs(ce))) if me else 0.0,
                         float(np.max(np.abs(ri))) if mi else 0.0)
            prods = np.concatenate([
                gxl[self.fxl] * zxl[self.fxl], gxu[self.fxu] * zxu[self.fxu],
                gsl[self.fsl] * zsl[self.fsl], gsu[self.fsu] * zsu[self.fsu]])

            def comp_s(mu_val):
                if not prods.size:
                    return 0.0
                return float(np.max(np.abs(prods - mu_val))) / sd

            # original-unit residuals decide termination and reporting
            mult_inf_u = max(
                float(np.max(np.abs(lam_e * self.u_eq))) if me else 0.0,
                float(np.max(np.abs((zsu - zsl) * self.u_in))) if mi else 0.0,
                float(np.max(np.abs(zxl / s_f))) if n else 0.0,
                float(np.max(np.abs(zxu / s_f))) if n else 0.0)
            sd_u = max(1.0, mult_inf_u / 100.0)
            stat_u = max(
                float(np.max(np.abs(rx))) / s_f if n else 0.0,
                (float(np.max(np.abs(rs * self.u_in))) if mi else 0.0)) / sd_u
            feas_u = max(
                float(np.max(np.abs(ce / v.s_c[:me]))) if me else 0.0,
                float(np.max(np.abs(ri / v.s_c[me:]))) if mi else 0.0)
            comp_u = (float(np.max(np.abs(prods))) / s_f / sd_u
                      if prods.size else 0.0)
            kkt_out = (stat_u, feas_u, comp_u)
            if max(kkt_out) <= opt.tol:
                check = self._kkt_original(x, lam_e, zxl, zxu, zsl, zsu)
                if max(check) <= opt.tol:
                    kkt_out = check
                    status = OPTIMAL
                    break

            # infeasibility: no meaningful progress while violation stays up
            if feas_u > _STALL_FEAS and feas_u > (1.0 - 1e-3) * best_feas:
                stall += 1
            else:
                stall = 0
            best_feas = min(best_feas, feas_u)
            if stall >= _STALL_WINDOW:
                status = INFEASIBLE
                message = ("constraint violation stagnated above "
                           f"{_STALL_FEAS:g} for {_STALL_WINDOW} iterations")
                break

            if (max(stat_s, feas_s, comp_s(mu)) <= 10.0 * mu
                    and mu > mu_min):
                mu = max(mu_min, opt.kappa_mu * mu)

            # Newton system
            hess = self.view.hessian(x, 1.0, np.concatenate([lam_e, lam_i]))
            dx_diag = (np.where(self.fxl, zxl / gxl, 0.0)
                       + np.where(self.fxu, zxu / gxu, 0.0))
            ds_diag = (np.where(self.fsl, zsl / gsl, 0.0)
                       + np.where(self.fsu, zsu / gsu, 0.0))
            kkt = _kkt_lower(hess, dx_diag, ji, ds_diag, je)

            mu_xl = np.where(self.fxl, mu / gxl, 0.0)
            mu_xu = np.where(self.fxu, mu / gxu, 0.0)
            mu_sl = np.where(self.fsl, mu / gsl, 0.0)
            mu_su = np.where(self.fsu, mu / gsu, 0.0)
            phi_x = g - mu_xl + mu_xu
            if me:
                phi_x = phi_x + je.T @ lam_e
            if mi:
                phi_x = phi_x + ji.T @ lam_i
            phi_s = lam_i + mu_sl - mu_su

            reg, delta = 0.0, _DELTA0
            fact = None
            for attempt in range(opt.max_reg_retries + 1):
                fact = _SparseLdl(kkt, reg, delta, n, me)
                if fact.ok:
                    break
                if reg == 0.0:
                    # warm-start from the last successful level
                    reg = max(opt.reg0, reg_last / 3.0)
                else:
                    reg = max(opt.reg0, 10.0 * reg)
                delta = max(_DELTA0, 10.0 * delta)
            if fact is None or not fact.ok:
                status = NUMERIC_FAILURE
                message = "factorization failed after regularization retries"
                break
            reg_last = reg

            def recover(ri_rhs, ce_rhs):
                """Direction from the current factorization for the given
                constraint residuals (plain Newton or second-order
                correction)."""
                r1 = -phi_x
                if mi:
                    r1 = r1 - ji.T @ (ds_diag * ri_rhs - phi_s)
                sol = fact.solve(np.concatenate([r1, -ce_rhs]))
                dx = sol[:n]
                ds = ri_rhs.copy()
                if mi:
                    ds = ds + ji @ dx
                return dx, sol[n:], ds

            def dual_steps(dx, ds):
                dlam_i = ds_diag * ds - phi_s
                dzxl = np.where(self.fxl, mu_xl - zxl - (zxl / gxl) * dx, 0.0)
                dzxu = np.where(self.fxu, mu_xu - zxu + (zxu / gxu) * dx, 0.0)
                dzsl = np.where(self.fsl, mu_sl - zsl - (zsl / gsl) * ds, 0.0)
                dzsu = np.where(self.fsu, mu_su - zsu + (zsu / gsu) * ds, 0.0)
                return dlam_i, dzxl, dzxu, dzsl, dzsu

            tau = max(opt.tau_min, 1.0 - mu)

            def primal_max(dx, ds):
                return min(_max_step(gxl[self.fxl], dx[self.fxl], tau),
                           _max_step(gxu[self.fxu], -dx[self.fxu], tau),
                           _max_step(gsl[self.fsl], ds[self.fsl], tau),
                           _max_step(gsu[self.fsu], -ds[self.fsu], tau))

            dx, dlam_e, ds = recover(ri, ce)
            dlam_i, dzxl, dzxu, dzsl, dzsu = dual_steps(dx, ds)
            a_p = primal_max(dx, ds)

            # exact-penalty parameter: above the multiplier norms, cooled
            # when they shrink
            lam_next = max(
                float(np.max(np.abs(lam_e + dlam_e))) if me else 0.0,
                float(np.max(np.abs(lam_i + dlam_i))) if mi else 0.0)
            nu_req = 1.1 * lam_next + 0.1
            if nu_req > nu:
                nu = nu_req
            elif nu_req < 0.25 * nu:
                nu = max(nu_req, 0.5 * nu)

            gbar_x = g - mu_xl + mu_xu
            gbar_s = -mu_sl + mu_su
            viol1 = (float(np.sum(np.abs(ce)))
                     + float(np.sum(np.abs(ri))))
            descent = (float(gbar_x @ dx) + float(gbar_s @ ds)
                       - nu * viol1)

            merit0 = self._merit(x, s, mu, nu)
            alpha = a_p
            accepted = False
            soc_left = 1
            while alpha >= _STEP_MIN:
                trial = self._merit(x + alpha * dx, s + alpha * ds, mu, nu)
                if trial <= merit0 + 1e-4 * alpha * min(descent, 0.0):
                    accepted = True
                    break
                if soc_left and alpha == a_p:
                    # second-order correction: same factorization, residuals
                    # re-evaluated at the rejected full step
                    soc_left -= 1
                    c_t = v.constraints(x + alpha * dx)
                    ri_soc = c_t[me:] - (s + alpha * ds)
                    dx2, dlam_e2, ds2 = recover(ri_soc, c_t[:me])
                    a2 = primal_max(dx2, ds2)
                    trial2 = self._merit(x + a2 * dx2, s + a2 * ds2, mu, nu)
                    if trial2 <= merit0 + 1e-4 * a2 * min(descent, 0.0):
                        dx, dlam_e, ds = dx2, dlam_e2, ds2
                        dlam_i, dzxl, dzxu, dzsl, dzsu = dual_steps(dx2, ds2)
                        alpha = a_p = a2
                        accepted = True
                        break
                alpha *= 0.5
            if not accepted:
                # exact-penalty descent failed: at a clearly violated
                # point that certifies local infeasibility
                if feas_u > _STALL_FEAS:
                    status = INFEASIBLE
                    message = ("line search stalled with constraint "
                               f"violation {feas_u:.3e}")
                else:
                    status = NUMERIC_FAILURE
                    message = "line search step below minimum"
                break

            a_d = min(_max_step(zxl[self.fxl], dzxl[self.fxl], tau),
                      _max_step(zxu[self.fxu], dzxu[self.fxu], tau),
                      _max_step(zsl[self.fsl], dzsl[self.fsl], tau),
                      _max_step(zsu[self.fsu], dzsu[self.fsu], tau))

            x = x + alpha * dx
            s = s + alpha * ds
            lam_e = lam_e + alpha * dlam_e
            lam_i = lam_i + alpha * dlam_i
            zxl = zxl + a_d * dzxl
            zxu = zxu + a_d * dzxu
            zsl = zsl + a_d * dzsl
            zsu = zsu + a_d * dzsu

            # keep z within kappa_sigma of mu / gap
            gxl, gxu, gsl, gsu = self._gaps(x, s)
            for z, gap, fin in ((zxl, gxl, self.fxl), (zxu, gxu, self.fxu),
                                (zsl, gsl, self.fsl), (zsu, gsu, self.fsu)):
                if np.any(fin):
                    lo = mu / (_KAPPA_SIGMA * gap[fin])
                    hi = (_KAPPA_SIGMA * mu) / gap[fin]
                    z[fin] = np.clip(z[fin], lo, hi)

            it += 1
            min_slack = float(np.min(np.concatenate(
                [gsl[self.fsl], gsu[self.fsu]]))) if mi else np.inf
            min_bound = float(np.min(np.concatenate(
                [gxl[self.fxl], gxu[self.fxu]]))) if (self.fxl.any()
                                                      or self.fxu.any()) else np.inf
            self.log.append(IterationRecord(
                it=it, mu=mu, nu=nu, merit=merit0,
                stationarity=stat_u, feasibility=feas_u,
                complementarity=comp_u, alpha_primal=alpha,
                alpha_dual=a_d, reg=reg, min_slack_gap=min_slack,
                min_bound_gap=min_bound))

        if status != OPTIMAL:
            kkt_out = self._kkt_original(x, lam_e, zxl, zxu, zsl, zsu)
        self._state = {"x": x, "s": s, "lam_e": lam_e, "lam_i": lam_i,
                       "zxl": zxl, "zxu": zxu, "zsl": zsl, "zsu": zsu,
                       "mu": mu, "nu": nu}
        return self._result(status, message, x, lam_e, zxl, zxu,
                            zsl, zsu, kkt_out, it)

    def _kkt_original(self, x, lam_e, zxl, zxu, zsl, zsu):
        """Unperturbed KKT error of the original problem at the mapped
        multipliers; this is what Optimal certifies."""
        v = self.view
        z_lb = np.zeros(self.p.n)
        z_ub = np.zeros(self.p.n)
        z_lb[v.free] = zxl / v.s_f
        z_ub[v.free] = zxu / v.s_f
        return kkt_error(self.p, v.lift(x), lam_e * self.u_eq,
                         (zsu - zsl) * self.u_in, z_lb, z_ub)

    def _result(self, status, message, x, lam_e, zxl, zxu,
                zsl, zsu, kkt, it) -> SolveResult:
        v = self.view
        full_x = v.lift(x)
        z_lb = np.zeros(self.p.n)
        z_ub = np.zeros(self.p.n)
        z_lb[v.free] = zxl / v.s_f
        z_ub[v.free] = zxu / v.s_f
        return SolveResult(
            status=status, x=full_x, objective=self.p.objective(full_x),
            lambda_eq=lam_e * self.u_eq,
            lambda_ineq=(zsu - zsl) * self.u_in,
            z_lb=z_lb, z_ub=z_ub,
            kkt=kkt, iterations=it, iter_log=self.log, message=message)


def solve(problem: NlpProblem, options: SolverOptions | None = None) -> SolveResult:
    """Solve the NLP; never raises for numerical trouble, see status."""
    return _Ipm(problem, options or SolverOptions()).solve()


# --- KKT error (public, point-wise) ---------------------------------------


def kkt_error(p: NlpProblem, x: np.ndarray, lambda_eq: np.ndarray,
              lambda_ineq: np.ndarray, z_lb: np.ndarray, z_ub: np.ndarray,
              mu: float = 0.0) -> tuple[float, float, float]:
    """Scaled (stationarity, feasibility, complementarity) at a point.

    Stationarity is ||grad f + J' lambda - z_lb + z_ub||_inf over free
    variables (entries with xl == xu are absorbed by their bound pair),
    feasibility the largest equality/inequality/bound violation, and
    complementarity the largest |gap * multiplier - mu|, with
    lambda_ineq split by sign against the upper/lower sides.  The
    first and third components are divided by
    max(1, ||multipliers||_inf / 100).
    """
    for name, vec, m in (("x", x, p.n), ("lambda_eq", lambda_eq, p.m_eq),
                         ("lambda_ineq", lambda_ineq, p.m_ineq),
                         ("z_lb", z_lb, p.n), ("z_ub", z_ub, p.n)):
        if vec.shape != (m,):
            raise DimensionMismatch(f"{name} has shape {vec.shape}")

    c = p.constraints(x)
    ce, ci = c[:p.m_eq], c[p.m_eq:]
    jac = p.jacobian(x)
    r = p.gradient(x) - z_lb + z_ub
    if p.m_eq + p.m_ineq:
        r = r + jac.T @ np.concatenate([lambda_eq, lambda_ineq])
    free = p.xl != p.xu
    mults = np.concatenate([lambda_eq, lambda_ineq, z_lb, z_ub])
    sd = max(1.0, (float(np.max(np.abs(mults))) if mults.size else 0.0) / 100.0)
    stat = float(np.max(np.abs(r[free]))) / sd if free.any() else 0.0

    feas = float(np.max(np.abs(ce))) if p.m_eq else 0.0
    if p.m_ineq:
        feas = max(feas,
                   float(np.max(np.maximum(p.gl - ci, 0.0))),
                   float(np.max(np.maximum(ci - p.gu, 0.0))))
    feas = max(feas,
               float(np.max(np.maximum(p.xl - x, 0.0), initial=0.0)),
               float(np.max(np.maximum(x - p.xu, 0.0), initial=0.0)))

    comps = []
    fl = np.isfinite(p.xl) & free
    fu = np.isfinite(p.xu) & free
    if fl.any():
        comps.append((x - p.xl)[fl] * z_lb[fl] - mu)
    if fu.any():
        comps.append((p.xu - x)[fu] * z_ub[fu] - mu)
    if p.m_ineq:
        zl = np.maximum(-lambda_ineq, 0.0)
        zu = np.maximum(lambda_ineq, 0.0)
        s = np.clip(ci, p.gl, p.gu)
        gl_fin = np.isfinite(p.gl)
        gu_fin = np.isfinite(p.gu)
        if gl_fin.any():
            comps.append((s - p.gl)[gl_fin] * zl[gl_fin] - mu)
        if gu_fin.any():
            comps.append((p.gu - s)[gu_fin] * zu[gu_fin] - mu)
    comp = (float(np.max(np.abs(np.concatenate(comps)))) / sd
            if comps else 0.0)
    return stat, feas, comp


# --- derivative checking ---------------------------------------------------


@dataclass
class DerivativeReport:
    grad_max_rel: float
    jac_max_rel: float
    hess_max_rel: float
    worst_grad: tuple[int, float, float]
    worst_jac: tuple[int, int, float, float]
    worst_hess: tuple[int, int, float, float]

    def ok(self, tol_first: float = 1e-6, tol_second: float = 1e-5) -> bool:
        return (self.grad_max_rel <= tol_first
                and self.jac_max_rel <= tol_first
                and self.hess_max_rel <= tol_second)


def _rel(a: float, b: float) -> float:
    m = max(abs(a), abs(b))
    if m <= 1e-8:
        return 0.0
    return abs(a - b) / max(1.0, m)


def check_derivatives(p: NlpProblem, x: np.ndarray,
                      step: float = 1e-6) -> DerivativeReport:
    """Compare callbacks against central finite differences at x.

    The Hessian is checked against differences of the Lagrangian
    gradient with obj_factor 1 and a deterministic multiplier vector.
    Entries of magnitude at most 1e-8 are skipped.
    """
    n, m = p.n, p.m_eq + p.m_ineq
    rng = np.random.default_rng(0)
    mult = rng.uniform(-1.0, 1.0, m)

    g = p.gradient(x)
    jac = p.jacobian(x).toarray()
    hess = p.lagrangian_hessian(x, 1.0, mult).toarray()

    def lag_grad(pt):
        out = p.gradient(pt)
        if m:
            out = out + p.jacobian(pt).T @ mult
        return out

    worst_g = (0, 0.0, 0.0)
    worst_j = (0, 0, 0.0, 0.0)
    worst_h = (0, 0, 0.0, 0.0)
    max_g = max_j = max_h = 0.0
    for i in range(n):
        e = np.zeros(n)
        e[i] = step
        fd_f = (p.objective(x + e) - p.objective(x - e)) / (2 * step)
        r = _rel(g[i], fd_f)
        if r > max_g:
            max_g, worst_g = r, (i, float(g[i]), float(fd_f))
        if m:
            fd_c = (p.constraints(x + e) - p.constraints(x - e)) / (2 * step)
            rel = np.array([_rel(jac[k, i], fd_c[k]) for k in range(m)])
            k = int(np.argmax(rel))
            if rel[k] > max_j:
                max_j = float(rel[k])
                worst_j = (k, i, float(jac[k, i]), float(fd_c[k]))
        fd_h = (lag_grad(x + e) - lag_grad(x - e)) / (2 * step)
        rel = np.array([_rel(hess[k, i], fd_h[k]) for k in range(n)])
        k = int(np.argmax(rel))
        if rel[k] > max_h:
            max_h = float(rel[k])
            worst_h = (k, i, float(hess[k, i]), float(fd_h[k]))
    return DerivativeReport(grad_max_rel=max_g, jac_max_rel=max_j,
                            hess_max_rel=max_h, worst_grad=worst_g,
                            worst_jac=worst_j, worst_hess=worst_h)
