"""Primal-dual interior-point solver for smooth sparse NLPs.

Inequalities gl <= c_i(x) <= gu receive slack variables s.  The
bounds of the stacked primal (x, s) form one lower side [xl; gl] and
one upper side [xu; gu], each with one gap and one multiplier vector
of length n + m_ineq, and every finite entry of either side receives a
log barrier.  Each iteration takes
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

Every sparsity pattern is fixed once per solve, and each iteration
refills values only.  The Jacobian pattern is read from the call that
computes the row scaling, the Hessian pattern from the first Hessian
call; a callback whose later pattern differs raises DimensionMismatch.
Je and Ji are solver-owned: each Jacobian call gathers their values
from the free columns and scales them by row, and products with them
are bincounts that add in the order scipy's matvecs do.  At the first
Newton step a scatter map is built from the Hessian's free lower
triangle, a pair list for Ji' Ds Ji, Je and the diagonal into the .data
of one mirrored CSC matrix K; later steps only refill it.  The first
accepted factorization's minimum-degree ordering is kept: K is laid
out in that order, and later factorizations use it as their natural
order, with the same diagonal-pivot check and inertia count.

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
from .nlp import CsrPattern, NlpProblem

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


# --- fixed sparsity patterns ----------------------------------------------


class _Csr:
    """Solver-owned sparse matrix with a fixed CSR pattern; only `data`
    is refilled.  Products are np.bincount sums in entry order, which
    add in the order scipy's CSR (A @ x) and CSC (A' @ y) matvecs do."""

    def __init__(self, indptr, indices, shape, data=None):
        self.indptr = np.asarray(indptr, dtype=np.intp)
        self.cols = np.asarray(indices, dtype=np.intp)
        self.shape = shape
        self.rows = np.repeat(np.arange(shape[0]), np.diff(self.indptr))
        self.data = np.zeros(self.cols.size) if data is None else data

    @classmethod
    def of(cls, mat) -> _Csr:
        mat = sp.csr_matrix(mat, copy=True)
        mat.sum_duplicates()
        return cls(mat.indptr, mat.indices, mat.shape, mat.data)

    def dot(self, x: np.ndarray) -> np.ndarray:
        return np.bincount(self.rows, weights=self.data * x[self.cols],
                           minlength=self.shape[0])

    def tdot(self, y: np.ndarray) -> np.ndarray:
        return np.bincount(self.cols, weights=self.data * y[self.rows],
                           minlength=self.shape[1])


def _canonical(mat, name: str, pattern):
    """A callback's matrix as canonical CSR.  pattern is the (indptr,
    indices) first read from that callback, or None on the first read;
    a later matrix must have exactly that pattern."""
    if getattr(mat, "format", None) != "csr":
        mat = sp.csr_matrix(mat)
    if not mat.has_canonical_format:
        mat = mat.copy()
        mat.sum_duplicates()
    if pattern is not None and not (np.array_equal(mat.indptr, pattern[0])
                                    and np.array_equal(mat.indices,
                                                       pattern[1])):
        raise DimensionMismatch(
            f"{name} returned a sparsity pattern different from its first "
            f"one ({mat.nnz} entries, first {pattern[1].size})")
    return mat


# --- fixed-variable elimination and scaling --------------------------------


class _View:
    """Problem with xl == xu variables substituted out, objective and
    constraint rows scaled so start-point gradient norms are <= 100.

    The Jacobian pattern is read from the scaling call and the Hessian
    pattern from the first Hessian call.  From then on each call only
    gathers the free-column values: the Jacobian into the solver-owned
    Je and Ji (scaled by row), the Hessian into the values of its free
    lower triangle at (h_rows, h_cols).
    """

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
        # each variable's free column, -1 when fixed
        self.col = np.full(p.n, -1, dtype=np.intp)
        self.col[self.free] = np.arange(self.n)

        me, m = p.m_eq, p.m_eq + p.m_ineq
        x_start = _push_interior(self.x0, self.xl, self.xu)
        g0 = self.p.gradient(self.lift(x_start))[self.free]
        gmax = float(np.max(np.abs(g0))) if g0.size else 0.0
        self.s_f = min(1.0, _SCALE_GRAD / gmax) if gmax > 0 else 1.0
        self._jac = None            # the Jacobian's pattern, once read
        rows = cols = np.zeros(0, dtype=np.intp)
        row_inf = np.zeros(m)
        if m:
            j0 = _canonical(self.p.jacobian(self.lift(x_start)), "jacobian",
                            None)
            self._jac = (j0.indptr.copy(), j0.indices.copy())
            rows = np.repeat(np.arange(m), np.diff(j0.indptr))
            cols = self.col[j0.indices]
            self._j_take = np.flatnonzero(cols >= 0)
            rows, cols = rows[self._j_take], cols[self._j_take]
            np.maximum.at(row_inf, rows, np.abs(j0.data[self._j_take]))
        with np.errstate(divide="ignore"):
            self.s_c = np.minimum(1.0, _SCALE_GRAD / row_inf)
        self.s_c[~np.isfinite(self.s_c)] = 1.0
        self.gl = self.s_c[p.m_eq:] * p.gl
        self.gu = self.s_c[p.m_eq:] * p.gu
        self._j_scale = self.s_c[rows]
        indptr = np.zeros(m + 1, dtype=np.intp)
        np.cumsum(np.bincount(rows, minlength=m), out=indptr[1:])
        split = indptr[me]
        self._j_data = np.zeros(cols.size)
        self.je = _Csr(indptr[:me + 1], cols[:split], (me, self.n),
                       self._j_data[:split])
        self.ji = _Csr(indptr[me:] - split, cols[split:],
                       (p.m_ineq, self.n), self._j_data[split:])
        self._hess = None           # the Hessian's pattern, once read

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

    def jacobian(self, x) -> tuple[_Csr, _Csr]:
        """(Je, Ji) at x, refilled in place."""
        if self._jac is not None:
            j = _canonical(self.p.jacobian(self.lift(x)), "jacobian",
                           self._jac)
            np.multiply(j.data[self._j_take], self._j_scale,
                        out=self._j_data)
        return self.je, self.ji

    def hessian(self, x, sigma, mult) -> np.ndarray:
        """Values of the Hessian's free lower triangle at (h_rows,
        h_cols)."""
        h = _canonical(self.p.lagrangian_hessian(
            self.lift(x), sigma * self.s_f, mult * self.s_c),
            "lagrangian_hessian", self._hess)
        if self._hess is None:
            self._hess = (h.indptr.copy(), h.indices.copy())
            r = self.col[np.repeat(np.arange(h.shape[0]), np.diff(h.indptr))]
            c = self.col[h.indices]
            self._h_take = np.flatnonzero((c >= 0) & (r >= c))
            self.h_rows, self.h_cols = r[self._h_take], c[self._h_take]
        return h.data[self._h_take]


# --- KKT factorization ------------------------------------------------------


class _Kkt:
    """K = [[H + Dx + Ji' Ds Ji, Je'], [Je, 0]] on a pattern fixed at
    construction.

    Its lower triangle sums, in this order, the H entries at (h_rows,
    h_cols) (h_rows >= h_cols, duplicates allowed), one product
    ji_ka (ji_kb ds_k) per pair of entries a >= b of each Ji row k (k
    ascending, as scipy's Ji' (Ds Ji) adds them), the Je entries and Dx;
    `fill` scatters them with one bincount into `values`.  `matrix`
    mirrors those into the .data of one CSC matrix with every diagonal
    entry stored.  Once `reorder` is given a factorization's column
    permutation, the CSC matrix is laid out in that order, so later
    factorizations need no fill-reducing ordering of their own.
    """

    def __init__(self, h_rows, h_cols, ji: _Csr, je: _Csr):
        n, me = ji.shape[1], je.shape[0]
        self.n, self.me = n, me
        dim = n + me
        # every ordered pair (p, q) of entries within one Ji row
        reps = np.diff(ji.indptr)[ji.rows]
        p = np.repeat(np.arange(ji.cols.size), reps)
        row_start = np.repeat(ji.indptr[ji.rows], reps)
        q = row_start + np.arange(p.size) - np.repeat(np.cumsum(reps) - reps,
                                                      reps)
        keep = ji.cols[p] >= ji.cols[q]
        self.pair_a, self.pair_b = p[keep], q[keep]
        self.pair_k = ji.rows[self.pair_a]
        diag = np.arange(dim)
        rows = np.concatenate([h_rows, ji.cols[self.pair_a], je.rows + n,
                               diag])
        cols = np.concatenate([h_cols, ji.cols[self.pair_b], je.cols, diag])
        # the lower triangle in CSC order is its transpose in CSR order
        self.low = CsrPattern(cols, rows, (dim, dim))
        self.low_cols = np.repeat(diag, np.diff(self.low.indptr))
        self.low_rows = self.low.indices.astype(np.intp)
        self.values = np.zeros(self.low_rows.size)
        self.perm = None
        self._lay_out(diag)

    def _lay_out(self, place: np.ndarray) -> None:
        """CSC structure of the mirrored K with row and column i at
        place[i], and the gather from low values into its .data."""
        lr, lc = self.low_rows, self.low_cols
        strict = np.flatnonzero(lr > lc)
        src = np.concatenate([np.arange(lr.size), strict])
        r = place[np.concatenate([lr, lc[strict]])]
        c = place[np.concatenate([lc, lr[strict]])]
        dim = self.n + self.me
        full = CsrPattern(c, r, (dim, dim))     # CSC; every position once
        self.src = np.empty_like(src)
        self.src[full.slot] = src
        self.mat = sp.csc_matrix((np.zeros(src.size), full.indices,
                                  full.indptr), shape=(dim, dim))
        self.mat.has_canonical_format = True
        # .data position of each diagonal entry, in K's own order
        self.diag = full.slot[np.flatnonzero(lr == lc)]

    def fill(self, h, dx_diag, ji_data, ds_diag, je_data) -> _Kkt:
        a, b = ji_data[self.pair_a], ji_data[self.pair_b]
        jdj = a * (b * ds_diag[self.pair_k])
        self.values = self.low.sums(np.concatenate(
            [h, jdj, je_data, dx_diag, np.zeros(self.me)]))
        return self

    def matrix(self, reg: float, delta: float) -> sp.csc_matrix:
        """Mirrored K with reg added on the first n diagonal entries and
        -delta on the last m_eq, in the current layout."""
        data = self.mat.data
        np.take(self.values, self.src, out=data)
        data[self.diag[:self.n]] += reg
        data[self.diag[self.n:]] -= delta
        return self.mat

    def reorder(self, perm_c: np.ndarray) -> None:
        """Lay K out as P K P' for a factorization's column permutation
        perm_c (row and column i move to perm_c[i])."""
        self.perm = (np.argsort(perm_c), perm_c)
        self._lay_out(perm_c)


def _kkt_lower(hess, dx_diag, ji, ds_diag, je) -> _Kkt:
    """K for one set of scipy blocks (hess the whole symmetric (1,1)
    block), its pattern built and filled once."""
    h = sp.coo_matrix(hess)
    low = h.row >= h.col
    ji, je = _Csr.of(ji), _Csr.of(je)
    return _Kkt(h.row[low], h.col[low], ji, je).fill(
        h.data[low], dx_diag, ji.data, ds_diag, je.data)


class _SparseLdl:
    """Sparse LDL' of the regularized KKT matrix with certified inertia.

    K gets reg on its first n diagonal entries and -delta on the last
    m_eq, and is mirrored from its lower triangle so it is exactly
    symmetric.  SuperLU in symmetric mode with a zero pivot threshold
    pivots on the diagonal of the column ordering: a minimum-degree
    ordering until K has been reordered, its natural order after.  When
    it did (perm_r == perm_c) the factorization is P K P' = L U with
    U = D L', so by Sylvester's law the signs of diag(U) are the inertia
    of K.  ok holds when they count (n, m_eq).  A singular K or an
    off-diagonal pivot is reported as not ok.
    """

    def __init__(self, kkt: _Kkt, reg: float, delta: float,
                 n: int, me: int):
        self.perm = kkt.perm
        self.ok = False
        try:
            self.lu = splu(kkt.matrix(reg, delta),
                           permc_spec=("MMD_AT_PLUS_A" if self.perm is None
                                       else "NATURAL"),
                           diag_pivot_thresh=0.0,
                           options={"SymmetricMode": True})
        except RuntimeError:
            return
        d = self.lu.U.diagonal()
        self.ok = (np.array_equal(self.lu.perm_r, self.lu.perm_c)
                   and np.count_nonzero(d > 0.0) == n
                   and np.count_nonzero(d < 0.0) == me)

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        if self.perm is None:
            return self.lu.solve(rhs)
        at, perm_c = self.perm
        return self.lu.solve(rhs[at])[perm_c]


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
        # bounds of the stacked primal (x, s) and their finite sides
        self.lo = np.concatenate([v.xl, v.gl])
        self.hi = np.concatenate([v.xu, v.gu])
        self.fl = np.isfinite(self.lo)
        self.fu = np.isfinite(self.hi)
        # multiplier maps back to original units
        self.u_eq = v.s_c[:self.me] / v.s_f
        self.u_in = v.s_c[self.me:] / v.s_f
        self.log: list[IterationRecord] = []

    def _gaps(self, xs):
        """Lower and upper gaps of (x, s); infinite sides report +inf."""
        return (np.where(self.fl, xs - self.lo, np.inf),
                np.where(self.fu, self.hi - xs, np.inf))

    def _barrier(self, xs):
        terms = 0.0
        for gap, mask in zip(self._gaps(xs), (self.fl, self.fu)):
            g = gap[mask]
            if g.size:
                if np.any(g <= 0.0):
                    return np.inf
                terms -= float(np.sum(np.log(g)))
        return terms

    def _merit(self, xs, mu, nu, c=None):
        """Merit at (x, s); c is the scaled constraint vector at x when
        already evaluated."""
        x, s = xs[:self.n], xs[self.n:]
        if c is None:
            c = self.view.constraints(x)
        ce, ci = c[:self.me], c[self.me:]
        viol = (float(np.sum(np.abs(ce))) +
                float(np.sum(np.abs(ci - s))))
        bar = self._barrier(xs)
        if not np.isfinite(bar):
            return np.inf
        return self.view.objective(x) + mu * bar + nu * viol

    def solve(self) -> SolveResult:
        opt, v = self.opt, self.view
        n, me, mi = self.n, self.me, self.mi
        fl, fu = self.fl, self.fu
        mu_min = opt.tol / 10.0
        s_f = v.s_f

        x = _push_interior(v.x0, v.xl, v.xu)
        ci0 = self.view.constraints(x)[me:]
        xs = np.concatenate([x, _push_interior(ci0, v.gl, v.gu)])
        lam_e = np.zeros(me)
        lam_i = np.zeros(mi)
        mu = opt.mu0
        gap_l, gap_u = self._gaps(xs)
        zl = np.where(fl, np.clip(mu / gap_l, 1e-6, 1e3), 0.0)
        zu = np.where(fu, np.clip(mu / gap_u, 1e-6, 1e3), 0.0)
        nu = 1.0
        best_feas = np.inf
        stall = 0
        reg_last = 0.0
        status, message = MAX_ITER, ""
        it = 0
        kkt_out = (np.inf, np.inf, np.inf)
        kkt = None

        while it < opt.max_iter:
            x, s = xs[:n], xs[n:]
            g = v.gradient(x)
            c = v.constraints(x)
            ce, ci = c[:me], c[me:]
            je, ji = v.jacobian(x)
            ri = ci - s
            gap_l, gap_u = self._gaps(xs)

            jt_lam_e = je.tdot(lam_e)
            jt_lam_i = ji.tdot(lam_i)
            r = np.concatenate([g, -lam_i]) - zl + zu
            rx, rs = r[:n], r[n:]
            if me:
                rx = rx + jt_lam_e
            if mi:
                rx = rx + jt_lam_i

            # scaled-space residuals drive the barrier schedule
            mult_inf = max((float(np.max(np.abs(m)))
                            for m in (lam_e, lam_i, zl, zu) if m.size),
                           default=0.0)
            sd = max(1.0, mult_inf / 100.0)
            stat_s = max(float(np.max(np.abs(rx))) if n else 0.0,
                         float(np.max(np.abs(rs))) if mi else 0.0) / sd
            feas_s = max(float(np.max(np.abs(ce))) if me else 0.0,
                         float(np.max(np.abs(ri))) if mi else 0.0)
            prods = np.concatenate([gap_l[fl] * zl[fl], gap_u[fu] * zu[fu]])

            def comp_s(mu_val):
                if not prods.size:
                    return 0.0
                return float(np.max(np.abs(prods - mu_val))) / sd

            # original-unit residuals decide termination and reporting
            mult_inf_u = max(
                float(np.max(np.abs(lam_e * self.u_eq))) if me else 0.0,
                float(np.max(np.abs((zu[n:] - zl[n:]) * self.u_in)))
                if mi else 0.0,
                float(np.max(np.abs(zl[:n] / s_f))) if n else 0.0,
                float(np.max(np.abs(zu[:n] / s_f))) if n else 0.0)
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
                check = self._kkt_original(x, lam_e, zl, zu)
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
            hess = v.hessian(x, 1.0, np.concatenate([lam_e, lam_i]))
            sigma_l = np.where(fl, zl / gap_l, 0.0)
            sigma_u = np.where(fu, zu / gap_u, 0.0)
            dx_diag, ds_diag = np.split(sigma_l + sigma_u, [n])
            if kkt is None:
                kkt = _Kkt(v.h_rows, v.h_cols, ji, je)
            kkt.fill(hess, dx_diag, ji.data, ds_diag, je.data)

            mu_l = np.where(fl, mu / gap_l, 0.0)
            mu_u = np.where(fu, mu / gap_u, 0.0)
            # barrier gradient over (x, s); phi adds the multiplier terms
            gbar = np.concatenate([g, np.zeros(mi)]) - mu_l + mu_u
            phi_x = gbar[:n]
            if me:
                phi_x = phi_x + jt_lam_e
            if mi:
                phi_x = phi_x + jt_lam_i
            phi_s = lam_i + mu_l[n:] - mu_u[n:]

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
            if kkt.perm is None:
                # keep the first accepted fill-reducing ordering
                kkt.reorder(fact.lu.perm_c)

            def recover(ri_rhs, ce_rhs):
                """Step (dx, ds) and dlam_e from the current factorization
                for the given constraint residuals (plain Newton or
                second-order correction)."""
                r1 = -phi_x - ji.tdot(ds_diag * ri_rhs - phi_s)
                sol = fact.solve(np.concatenate([r1, -ce_rhs]))
                dx = sol[:n]
                return np.concatenate([dx, ri_rhs + ji.dot(dx)]), sol[n:]

            def dual_steps(d):
                dlam_i = ds_diag * d[n:] - phi_s
                dzl = np.where(fl, mu_l - zl - sigma_l * d, 0.0)
                dzu = np.where(fu, mu_u - zu + sigma_u * d, 0.0)
                return dlam_i, dzl, dzu

            tau = max(opt.tau_min, 1.0 - mu)

            def primal_max(d):
                return min(_max_step(gap_l[fl], d[fl], tau),
                           _max_step(gap_u[fu], -d[fu], tau))

            d, dlam_e = recover(ri, ce)
            dlam_i, dzl, dzu = dual_steps(d)
            a_p = primal_max(d)

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

            viol1 = (float(np.sum(np.abs(ce)))
                     + float(np.sum(np.abs(ri))))
            descent = (float(gbar[:n] @ d[:n]) + float(gbar[n:] @ d[n:])
                       - nu * viol1)

            merit0 = self._merit(xs, mu, nu, c)
            alpha = a_p
            accepted = False
            soc_left = 1
            while alpha >= _STEP_MIN:
                trial = self._merit(xs + alpha * d, mu, nu)
                if trial <= merit0 + 1e-4 * alpha * min(descent, 0.0):
                    accepted = True
                    break
                if soc_left and alpha == a_p:
                    # second-order correction: same factorization, residuals
                    # re-evaluated at the rejected full step
                    soc_left -= 1
                    xs_t = xs + alpha * d
                    c_t = v.constraints(xs_t[:n])
                    d2, dlam_e2 = recover(c_t[me:] - xs_t[n:], c_t[:me])
                    a2 = primal_max(d2)
                    trial2 = self._merit(xs + a2 * d2, mu, nu)
                    if trial2 <= merit0 + 1e-4 * a2 * min(descent, 0.0):
                        d, dlam_e = d2, dlam_e2
                        dlam_i, dzl, dzu = dual_steps(d2)
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

            a_d = min(_max_step(zl[fl], dzl[fl], tau),
                      _max_step(zu[fu], dzu[fu], tau))

            xs = xs + alpha * d
            lam_e = lam_e + alpha * dlam_e
            lam_i = lam_i + alpha * dlam_i
            zl = zl + a_d * dzl
            zu = zu + a_d * dzu

            # keep z within kappa_sigma of mu / gap
            gap_l, gap_u = self._gaps(xs)
            for z, gap, fin in ((zl, gap_l, fl), (zu, gap_u, fu)):
                if np.any(fin):
                    z[fin] = np.clip(z[fin], mu / (_KAPPA_SIGMA * gap[fin]),
                                     (_KAPPA_SIGMA * mu) / gap[fin])

            it += 1
            # infinite sides read +inf, so they never set a minimum
            gap_min = np.minimum(gap_l, gap_u)
            self.log.append(IterationRecord(
                it=it, mu=mu, nu=nu, merit=merit0,
                stationarity=stat_u, feasibility=feas_u,
                complementarity=comp_u, alpha_primal=alpha,
                alpha_dual=a_d, reg=reg,
                min_slack_gap=float(np.min(gap_min[n:], initial=np.inf)),
                min_bound_gap=float(np.min(gap_min[:n], initial=np.inf))))

        full_x = v.lift(xs[:n])
        if status != OPTIMAL:
            kkt_out = self._kkt_original(xs[:n], lam_e, zl, zu)
        return SolveResult(
            status=status, x=full_x, objective=self.p.objective(full_x),
            **self._multipliers(lam_e, zl, zu),
            kkt=kkt_out, iterations=it, iter_log=self.log, message=message)

    def _multipliers(self, lam_e, zl, zu) -> dict[str, np.ndarray]:
        """Multipliers in original units, keyed as in SolveResult; fixed
        variables report zero bound multipliers."""
        v, n = self.view, self.n
        z_lb = np.zeros(self.p.n)
        z_ub = np.zeros(self.p.n)
        z_lb[v.free] = zl[:n] / v.s_f
        z_ub[v.free] = zu[:n] / v.s_f
        return {"lambda_eq": lam_e * self.u_eq,
                "lambda_ineq": (zu[n:] - zl[n:]) * self.u_in,
                "z_lb": z_lb, "z_ub": z_ub}

    def _kkt_original(self, x, lam_e, zl, zu):
        """Unperturbed KKT error of the original problem at the mapped
        multipliers; this is what Optimal certifies."""
        return kkt_error(self.p, self.view.lift(x),
                         **self._multipliers(lam_e, zl, zu))


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
