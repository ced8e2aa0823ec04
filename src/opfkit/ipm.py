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
mode with diagonal pivots only, in single-column panels with no
relaxed supernodes.  L holds about six entries per column, so wider
panels and relaxed supernodes would do dense work on blocks of zeros.
The dual regularization d starts at 1e-9, since SuperLU will not pivot
on a zero diagonal.  When every pivot is diagonal, Sylvester's law of
inertia reads the inertia of the matrix off the pivot signs, and the
factor is accepted only at inertia (n, m_eq, 0).  `_Kkt.factor` owns the
inertia correction (Waechter and Biegler 2006, section 3.1): an
unregularized try, then reg = max(1e-8, reg_last / 3) from the level the
last iteration accepted, then reg <- 10 reg and d <- 10 d, at most 20
retries.  Once reg makes the (1,1) block positive definite the matrix
is quasi-definite, and a quasi-definite matrix has an LDL'
factorization in every ordering (Vanderbei 1995).

Every sparsity pattern is fixed once per solve, and each iteration
refills values only.  The Jacobian pattern is read from the call at
the start point, the Hessian pattern from the first Hessian call; a
callback whose later pattern differs raises DimensionMismatch.  Je and
Ji are solver-owned: each Jacobian call gathers their values from the
free columns, and products with them are bincounts that add in the
order scipy's matvecs do.  At the first Newton step a scatter map is
built from the Hessian's free lower triangle, a pair list for Ji' Ds
Ji, Je and the diagonal into the .data of one mirrored CSC matrix K;
later steps only refill it.  The first accepted factorization's
minimum-degree ordering is kept: K is laid out in that order, and
later factorizations use it as their natural order, with the same
diagonal-pivot check and inertia count.

Globalization is a backtracking line search on the l1 exact-penalty
merit function of the barrier problem.  The penalty is kept above the
multiplier norms and cooled when they shrink; a rejected full step
earns one second-order correction (the constraint residuals of the
rejected trial point, same factorization) before backtracking.  The
line search keeps the scaled objective and the constraints of each
trial point it evaluates, and the next iteration starts from those of the
trial it accepted, so no point is evaluated twice.  The gradient and
Jacobian are evaluated once per accepted point; at the start point the
view's first calls serve the first iteration.  Steps are clipped by the
fraction-to-boundary rule tau = max(0.99, 1 - mu).  The barrier
parameter starts at 0.1 and follows the monotone schedule
mu <- max(tol/10, 0.2 mu) whenever the mu-perturbed KKT error falls
below 10 mu, and the solve terminates Optimal when the unperturbed
scaled KKT error is at most tol.  SolverOptions holds tol and max_iter
only; the other settings are the module constants _MU0, _KAPPA_MU,
_TAU_MIN, _REG0, _MAX_REG_RETRIES and _DELTA0.

Only the objective is scaled, so that its gradient norm at the start
point is at most 100 (never scaled up).  Constraints, the Jacobian and
multipliers reach the solver in original units, as do results and
every reported residual.

Convention: L = sigma f + lambda' c - z_lb'(x - xl) - z_ub'(xu - x),
so multipliers satisfy grad f + J' lambda - z_lb + z_ub = 0.
Variables with xl == xu are eliminated by substitution before solving
and report zero bound multipliers.  Runs are deterministic: identical
inputs produce bitwise-identical iterates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from .errors import DimensionMismatch, InvalidPlan
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
# barrier parameter: first value, and its factor at each decrease
_MU0 = 0.1
_KAPPA_MU = 0.2
# fraction-to-boundary floor: tau = max(_TAU_MIN, 1 - mu)
_TAU_MIN = 0.99
# first primal regularization, and the retries after the unregularized try
_REG0 = 1e-8
_MAX_REG_RETRIES = 20
# first dual regularization: SuperLU will not pivot on a zero diagonal
_DELTA0 = 1e-9
# SuperLU panel width and relaxed-supernode size: single columns (see
# the module docstring)
_PANEL_SIZE = 1
_RELAX = 1
# start-point margin off each finite bound, relative to the bound
_PUSH = 1e-2
# check_derivatives' step, and DerivativeReport.ok's error bounds
_FD_STEP = 1e-6
_FD_TOL_FIRST = 1e-6
_FD_TOL_SECOND = 1e-5


@dataclass
class SolverOptions:
    """Solver limits, checked on construction (InvalidPlan)."""
    tol: float = 1e-6
    max_iter: int = 200

    def __post_init__(self):
        if not (math.isfinite(self.tol) and self.tol > 0):
            raise InvalidPlan("tol must be finite and positive")
        if self.max_iter < 1:
            raise InvalidPlan("max_iter must be at least 1")


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

    def __init__(self, indptr, indices, shape, data):
        self.indptr = np.asarray(indptr, dtype=np.intp)
        self.cols = np.asarray(indices, dtype=np.intp)
        self.shape = shape
        self.rows = np.repeat(np.arange(shape[0]), np.diff(self.indptr))
        self.data = data

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
    """Problem with xl == xu variables substituted out, the objective
    scaled by s_f so its start-point gradient norm is <= 100, and the
    constraints and Jacobian in original units.

    The Jacobian pattern is read at x_start and the Hessian pattern at
    the first Hessian call; from then on each call only gathers the
    free-column values: the Jacobian into the solver-owned Je and Ji,
    the Hessian into its free lower triangle at (h_rows, h_cols).  The
    derivatives at x_start serve the solver's first iteration: g_start
    is the scaled gradient there, and Je and Ji hold the Jacobian.
    """

    def __init__(self, p: NlpProblem):
        self.p = p
        fixed = p.xl == p.xu
        self.free = np.flatnonzero(~fixed)
        self.template = np.where(fixed, p.xl, 0.0)
        self.n = self.free.size
        self.xl = p.xl[self.free]
        self.xu = p.xu[self.free]
        self.x0 = p.x0[self.free]
        # each variable's free column, -1 when fixed
        self.col = np.full(p.n, -1, dtype=np.intp)
        self.col[self.free] = np.arange(self.n)

        me, m = p.m_eq, p.m_eq + p.m_ineq
        self.x_start = _push_interior(self.x0, self.xl, self.xu)
        g0 = self.p.gradient(self.lift(self.x_start))[self.free]
        gmax = _amax(g0)
        self.s_f = min(1.0, _SCALE_GRAD / gmax) if gmax > 0 else 1.0
        self.g_start = self.s_f * g0
        j0 = _canonical(self.p.jacobian(self.lift(self.x_start)),
                        "jacobian", None)
        self._jac = (j0.indptr.copy(), j0.indices.copy())
        rows = np.repeat(np.arange(m), np.diff(j0.indptr))
        cols = self.col[j0.indices]
        self._j_take = np.flatnonzero(cols >= 0)
        rows, cols = rows[self._j_take], cols[self._j_take]
        indptr = np.zeros(m + 1, dtype=np.intp)
        np.cumsum(np.bincount(rows, minlength=m), out=indptr[1:])
        split = indptr[me]
        self._j_data = j0.data[self._j_take]
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
        return self.p.constraints(self.lift(x))

    def jacobian(self, x) -> tuple[_Csr, _Csr]:
        """(Je, Ji) at x, refilled in place."""
        j = _canonical(self.p.jacobian(self.lift(x)), "jacobian", self._jac)
        self._j_data[:] = j.data[self._j_take]
        return self.je, self.ji

    def hessian(self, x, sigma, mult) -> np.ndarray:
        """Values of the Hessian's free lower triangle at (h_rows,
        h_cols)."""
        h = _canonical(self.p.lagrangian_hessian(
            self.lift(x), sigma * self.s_f, mult),
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

    def factor(self, reg_last: float) -> tuple[_SparseLdl | None, float]:
        """The first factor of K with inertia (n, m_eq), and its reg.

        The first try is unregularized; the next warm-starts at
        reg_last / 3, the level the previous iteration accepted, and
        each later one takes ten times more reg (never below _REG0) and
        ten times more delta, at most _MAX_REG_RETRIES retries (Waechter
        and Biegler 2006, section 3.1).  The first accepted factor's
        ordering lays K out for every later one.  (None, reg) when no
        try is accepted.
        """
        reg, delta = 0.0, _DELTA0
        for _ in range(_MAX_REG_RETRIES + 1):
            fact = _SparseLdl(self, reg, delta)
            if fact.ok:
                if self.perm is None:
                    self.reorder(fact.lu.perm_c)
                return fact, reg
            reg = max(_REG0, reg_last / 3.0 if reg == 0.0 else 10.0 * reg)
            delta = max(_DELTA0, 10.0 * delta)
        return None, reg


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

    def __init__(self, kkt: _Kkt, reg: float, delta: float):
        self.perm = kkt.perm
        self.ok = False
        try:
            self.lu = splu(kkt.matrix(reg, delta),
                           permc_spec=("MMD_AT_PLUS_A" if self.perm is None
                                       else "NATURAL"),
                           diag_pivot_thresh=0.0, relax=_RELAX,
                           panel_size=_PANEL_SIZE,
                           options={"SymmetricMode": True})
        except RuntimeError:
            return
        d = self.lu.U.diagonal()
        self.ok = (np.array_equal(self.lu.perm_r, self.lu.perm_c)
                   and np.count_nonzero(d > 0.0) == kkt.n
                   and np.count_nonzero(d < 0.0) == kkt.me)

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        if self.perm is None:
            return self.lu.solve(rhs)
        at, perm_c = self.perm
        return self.lu.solve(rhs[at])[perm_c]


# --- solver ----------------------------------------------------------------


def _push_interior(x, lo, hi):
    """Clip into [lo, hi] with a margin off each finite bound b of
    _PUSH * max(1, |b|), at most _PUSH / 2 of the width when both are."""
    fl, fu = np.isfinite(lo), np.isfinite(hi)
    cap = np.where(fl & fu, 0.5 * _PUSH * (hi - lo), np.inf)

    def pad(b, fin):
        b = np.where(fin, b, 0.0)
        return np.minimum(_PUSH * np.maximum(1.0, np.abs(b)), cap)
    x = np.where(fl, np.maximum(x, lo + pad(lo, fl)), x)
    return np.where(fu, np.minimum(x, hi - pad(hi, fu)), x)


def _amax(v: np.ndarray) -> float:
    """Largest |v_i|, 0.0 for an empty v."""
    return float(np.max(np.abs(v), initial=0.0))


def _max_step(v, dv, tau):
    """Largest alpha in (0, 1] with v + alpha dv >= (1 - tau) v."""
    mask = dv < 0.0
    return float(np.min(-tau * v[mask] / dv[mask], initial=1.0))


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
        self.lo = np.concatenate([v.xl, problem.gl])
        self.hi = np.concatenate([v.xu, problem.gu])
        self.fl = np.isfinite(self.lo)
        self.fu = np.isfinite(self.hi)
        # multiplier map back to original units
        self.u = 1.0 / v.s_f
        self.log: list[IterationRecord] = []

    def _gaps(self, xs):
        """Lower and upper gaps of (x, s); infinite sides report +inf."""
        return (np.where(self.fl, xs - self.lo, np.inf),
                np.where(self.fu, self.hi - xs, np.inf))

    def _barrier(self, xs):
        terms = 0.0
        for gap, mask in zip(self._gaps(xs), (self.fl, self.fu)):
            g = gap[mask]
            if np.any(g <= 0.0):
                return np.inf
            terms -= float(np.sum(np.log(g)))
        return terms

    def _merit(self, xs, mu, nu, c, f=None):
        """Merit at (x, s) and the scaled objective f at x.  c is the
        constraint vector at x; f is evaluated when not given, and stays
        None when the barrier is infinite."""
        x, s = xs[:self.n], xs[self.n:]
        ce, ci = c[:self.me], c[self.me:]
        viol = (float(np.sum(np.abs(ce))) +
                float(np.sum(np.abs(ci - s))))
        bar = self._barrier(xs)
        if not np.isfinite(bar):
            return np.inf, f
        if f is None:
            f = self.view.objective(x)
        return f + mu * bar + nu * viol, f

    def solve(self) -> SolveResult:
        opt, v = self.opt, self.view
        n, me, mi = self.n, self.me, self.mi
        fl, fu = self.fl, self.fu
        mu_min = opt.tol / 10.0
        s_f = v.s_f

        # derivatives, constraints and scaled objective at x; the view's
        # first calls gave those at the start point, and later ones are
        # taken at the trial point the line search accepted
        x, g = v.x_start, v.g_start
        je, ji = v.je, v.ji
        c, f = v.constraints(x), None
        xs = np.concatenate([x, _push_interior(c[me:], self.p.gl, self.p.gu)])
        lam_e = np.zeros(me)
        lam_i = np.zeros(mi)
        mu = _MU0
        gap_l, gap_u = self._gaps(xs)
        zl = np.where(fl, np.clip(mu / gap_l, 1e-6, 1e3), 0.0)
        zu = np.where(fu, np.clip(mu / gap_u, 1e-6, 1e3), 0.0)
        nu = 1.0
        best_feas = np.inf
        stall = 0
        reg_last = 0.0
        status, message = MAX_ITER, ""
        it = 0
        kkt = None

        while it < opt.max_iter:
            x, s = xs[:n], xs[n:]
            ce, ci = c[:me], c[me:]
            ri = ci - s

            jt_lam_e, jt_lam_i = je.tdot(lam_e), ji.tdot(lam_i)
            r = np.concatenate([g, -lam_i]) - zl + zu
            rx, rs = r[:n] + jt_lam_e + jt_lam_i, r[n:]

            # residuals with the scaled objective drive the barrier schedule
            sd = max(1.0, max(_amax(lam_e), _amax(lam_i), _amax(zl),
                              _amax(zu)) / 100.0)
            stat_s = max(_amax(rx), _amax(rs)) / sd
            feas = max(_amax(ce), _amax(ri))
            prods = np.concatenate([gap_l[fl] * zl[fl], gap_u[fu] * zu[fu]])

            # original-unit residuals decide termination and reporting
            sd_u = max(1.0, max(_amax(lam_e * self.u),
                                _amax((zu[n:] - zl[n:]) * self.u),
                                _amax(zl[:n] / s_f),
                                _amax(zu[:n] / s_f)) / 100.0)
            stat_u = max(_amax(rx) / s_f, _amax(rs * self.u)) / sd_u
            comp_u = _amax(prods) / s_f / sd_u
            kkt_out = (stat_u, feas, comp_u)
            # all(), not max(): Python's max skips a NaN that is not first
            if all(v <= opt.tol for v in kkt_out):
                check = self._kkt_original(x, lam_e, zl, zu)
                if all(v <= opt.tol for v in check):
                    kkt_out = check
                    status = OPTIMAL
                    break

            # infeasibility: no meaningful progress while violation stays up
            if feas > _STALL_FEAS and feas > (1.0 - 1e-3) * best_feas:
                stall += 1
            else:
                stall = 0
            best_feas = min(best_feas, feas)
            if stall >= _STALL_WINDOW:
                status = INFEASIBLE
                message = ("constraint violation stagnated above "
                           f"{_STALL_FEAS:g} for {_STALL_WINDOW} iterations")
                break

            if (max(stat_s, feas, _amax(prods - mu) / sd) <= 10.0 * mu
                    and mu > mu_min):
                mu = max(mu_min, _KAPPA_MU * mu)

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
            phi_x = gbar[:n] + jt_lam_e + jt_lam_i
            phi_s = lam_i + mu_l[n:] - mu_u[n:]

            # free the last factor before SuperLU allocates the next
            fact = None
            fact, reg = kkt.factor(reg_last)
            if fact is None:
                status = NUMERIC_FAILURE
                message = "factorization failed after regularization retries"
                break
            reg_last = reg

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

            tau = max(_TAU_MIN, 1.0 - mu)

            def primal_max(d):
                return min(_max_step(gap_l[fl], d[fl], tau),
                           _max_step(gap_u[fu], -d[fu], tau))

            d, dlam_e = recover(ri, ce)
            dlam_i, dzl, dzu = dual_steps(d)
            a_p = primal_max(d)

            # exact-penalty parameter: above the multiplier norms, cooled
            # when they shrink
            nu_req = 1.1 * max(_amax(lam_e + dlam_e),
                               _amax(lam_i + dlam_i)) + 0.1
            if nu_req > nu:
                nu = nu_req
            elif nu_req < 0.25 * nu:
                nu = max(nu_req, 0.5 * nu)

            viol1 = (float(np.sum(np.abs(ce)))
                     + float(np.sum(np.abs(ri))))
            descent = (float(gbar[:n] @ d[:n]) + float(gbar[n:] @ d[n:])
                       - nu * viol1)

            merit0, f = self._merit(xs, mu, nu, c, f)
            alpha = a_p
            accepted = False
            while alpha >= _STEP_MIN:
                xs_t = xs + alpha * d
                c_t = v.constraints(xs_t[:n])
                trial, f_t = self._merit(xs_t, mu, nu, c_t)
                if trial <= merit0 + 1e-4 * alpha * min(descent, 0.0):
                    accepted = True
                    break
                if alpha == a_p:
                    # second-order correction, once: only the first trial
                    # takes the full step; same factorization, the
                    # residuals of the rejected full step
                    d2, dlam_e2 = recover(c_t[me:] - xs_t[n:], c_t[:me])
                    a2 = primal_max(d2)
                    xs_t = xs + a2 * d2
                    c_t = v.constraints(xs_t[:n])
                    trial2, f_t = self._merit(xs_t, mu, nu, c_t)
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
                if feas > _STALL_FEAS:
                    status = INFEASIBLE
                    message = ("line search stalled with constraint "
                               f"violation {feas:.3e}")
                else:
                    status = NUMERIC_FAILURE
                    message = "line search step below minimum"
                break

            a_d = min(_max_step(zl[fl], dzl[fl], tau),
                      _max_step(zu[fu], dzu[fu], tau))

            # the accepted trial is xs + alpha * d, evaluated already;
            # its derivatives serve the next iteration
            xs, c, f = xs_t, c_t, f_t
            g = v.gradient(xs[:n])
            je, ji = v.jacobian(xs[:n])
            lam_e = lam_e + alpha * dlam_e
            lam_i = lam_i + alpha * dlam_i
            zl = zl + a_d * dzl
            zu = zu + a_d * dzu

            # keep z within kappa_sigma of mu / gap; these gaps also
            # serve the next iteration
            gap_l, gap_u = self._gaps(xs)
            for z, gap, fin in ((zl, gap_l, fl), (zu, gap_u, fu)):
                z[fin] = np.clip(z[fin], mu / (_KAPPA_SIGMA * gap[fin]),
                                 (_KAPPA_SIGMA * mu) / gap[fin])

            it += 1
            # infinite sides read +inf, so they never set a minimum
            gap_min = np.minimum(gap_l, gap_u)
            self.log.append(IterationRecord(
                it=it, mu=mu, nu=nu, merit=merit0,
                stationarity=stat_u, feasibility=feas,
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
        return {"lambda_eq": lam_e * self.u,
                "lambda_ineq": (zu[n:] - zl[n:]) * self.u,
                "z_lb": z_lb, "z_ub": z_ub}

    def _kkt_original(self, x, lam_e, zl, zu):
        """Unperturbed KKT error of the original problem at the mapped
        multipliers; this is what Optimal certifies."""
        return kkt_error(self.p, self.view.lift(x),
                         **self._multipliers(lam_e, zl, zu))


def solve(problem: NlpProblem, options: SolverOptions | None = None) -> SolveResult:
    """Solve the NLP; never raises for numerical trouble, see status.

    Two inputs end at iteration 0, before any callback runs: a variable
    with xl > xu or a row with gl > gu ends Infeasible, and a start
    point that is not finite once clipped into the bounds ends
    NumericFailure.  The message names the first such entry.
    """
    p = problem
    for lo, hi, side in ((p.xl, p.xu, "x"), (p.gl, p.gu, "g")):
        crossed = np.flatnonzero(lo > hi)
        if crossed.size:
            k = crossed[0]
            return _unsolved(p, INFEASIBLE, f"crossed bounds: {side}l[{k}] "
                             f"= {lo[k]} > {side}u[{k}] = {hi[k]}")
    free = np.flatnonzero(p.xl != p.xu)
    start = _push_interior(p.x0[free], p.xl[free], p.xu[free])
    if np.all(np.isfinite(start)):
        return _Ipm(p, options or SolverOptions()).solve()
    k = free[~np.isfinite(start)][0]
    return _unsolved(p, NUMERIC_FAILURE,
                     f"start point is not finite: x0[{k}] = {p.x0[k]}")


def _unsolved(p: NlpProblem, status: str, message: str) -> SolveResult:
    """The result of a solve that ends before its first callback."""
    nan = float("nan")
    return SolveResult(
        status=status, x=p.x0.copy(), objective=nan,
        lambda_eq=np.zeros(p.m_eq), lambda_ineq=np.zeros(p.m_ineq),
        z_lb=np.zeros(p.n), z_ub=np.zeros(p.n), kkt=(nan, nan, nan),
        iterations=0, message=message)


# --- KKT error (public, point-wise) ---------------------------------------


def kkt_error(p: NlpProblem, x: np.ndarray, lambda_eq: np.ndarray,
              lambda_ineq: np.ndarray, z_lb: np.ndarray,
              z_ub: np.ndarray) -> tuple[float, float, float]:
    """Scaled (stationarity, feasibility, complementarity) at a point.

    Stationarity is ||grad f + J' lambda - z_lb + z_ub||_inf over free
    variables (xl != xu), feasibility the largest equality residual or
    bound violation, and complementarity the largest |gap * multiplier|
    over the finite entries of four sides: x lower and upper (free
    variables, z_lb and z_ub) and row lower and upper (rows clipped into
    [gl, gu], lambda_ineq split by sign).  Stationarity and
    complementarity are divided by s_d = max(1, ||multipliers||_inf /
    100).  A NaN input makes its component NaN.
    """
    for name, vec, m in (("x", x, p.n), ("lambda_eq", lambda_eq, p.m_eq),
                         ("lambda_ineq", lambda_ineq, p.m_ineq),
                         ("z_lb", z_lb, p.n), ("z_ub", z_ub, p.n)):
        if vec.shape != (m,):
            raise DimensionMismatch(f"{name} has shape {vec.shape}")
    ce, ci = np.split(p.constraints(x), [p.m_eq])
    lam = np.concatenate([lambda_eq, lambda_ineq])
    r = p.gradient(x) - z_lb + z_ub + p.jacobian(x).T @ lam
    free = p.xl != p.xu
    sd = max(1.0, _amax(np.concatenate([lam, z_lb, z_ub])) / 100.0)
    # [variables; rows] on each side, the sides stacked [lower; upper]
    lo, hi = np.concatenate([p.xl, p.gl]), np.concatenate([p.xu, p.gu])
    val = np.concatenate([x, ci])
    at = np.concatenate([x, np.clip(ci, p.gl, p.gu)])
    live = (np.isfinite(np.concatenate([lo, hi]))
            & np.tile(np.concatenate([free, np.ones(p.m_ineq, bool)]), 2))
    gaps = np.concatenate([at - lo, hi - at])[live]
    mults = np.concatenate([z_lb, np.maximum(-lambda_ineq, 0.0), z_ub,
                            np.maximum(lambda_ineq, 0.0)])[live]
    feas = _amax(np.concatenate([ce, np.maximum(lo - val, 0.0),
                                 np.maximum(val - hi, 0.0)]))
    return _amax(r[free]) / sd, feas, _amax(gaps * mults) / sd


# --- derivative checking ---------------------------------------------------


@dataclass
class DerivativeReport:
    grad_max_rel: float
    jac_max_rel: float
    hess_max_rel: float
    worst_grad: tuple[int, float, float]
    worst_jac: tuple[int, int, float, float]
    worst_hess: tuple[int, int, float, float]

    def ok(self) -> bool:
        return (self.grad_max_rel <= _FD_TOL_FIRST
                and self.jac_max_rel <= _FD_TOL_FIRST
                and self.hess_max_rel <= _FD_TOL_SECOND)


def _worst(analytic: np.ndarray, fd: np.ndarray):
    """(error, (row, column, a, fd)) of check_derivatives' worst entry."""
    rows, cols = np.indices(analytic.shape)
    # variable-major; the leading 0 stands for every error being 0
    a, b, rows, cols = (np.concatenate([[0], v.T.ravel()])
                        for v in (analytic, fd, rows, cols))
    big = np.maximum(np.abs(a), np.abs(b))
    err = np.where(big <= 1e-8, 0.0, np.abs(a - b) / np.maximum(1.0, big))
    k = int(np.argmax(err))     # the first maximum, or the first NaN
    return float(err[k]), (int(rows[k]), int(cols[k]), float(a[k]),
                           float(b[k]))


def check_derivatives(p: NlpProblem, x: np.ndarray) -> DerivativeReport:
    """Compare callbacks against central finite differences at x.

    An entry's error is |a - fd| / max(1, |a|, |fd|), 0 when |a| and |fd|
    are at most 1e-8; the Hessian is checked against differences of the
    Lagrangian gradient with obj_factor 1 and a fixed multiplier vector.
    Hessians are compared on their lower triangles, all the solver
    reads.  Each worst entry is the first largest error in
    variable-major order, zeros when every error is 0; a NaN is the
    worst, and fails ok().
    """
    n, m = p.n, p.m_eq + p.m_ineq
    mult = np.random.default_rng(0).uniform(-1.0, 1.0, m)

    def lag_grad(pt):
        return p.gradient(pt) + p.jacobian(pt).T @ mult

    cols = []   # per variable: a column of fd_f, fd_c and fd_h
    for i in range(n):
        e = np.zeros(n)
        e[i] = _FD_STEP
        cols.append([(fn(x + e) - fn(x - e)) / (2 * _FD_STEP)
                     for fn in (p.objective, p.constraints, lag_grad)])
    fd_f, fd_c, fd_h = (np.array(col).T for col in zip(*cols))
    max_g, (_, i, g_i, fd_i) = _worst(p.gradient(x)[None], fd_f[None])
    max_j, worst_j = _worst(p.jacobian(x).toarray(), fd_c)
    max_h, worst_h = _worst(
        np.tril(p.lagrangian_hessian(x, 1.0, mult).toarray()), np.tril(fd_h))
    return DerivativeReport(max_g, max_j, max_h, (i, g_i, fd_i), worst_j,
                            worst_h)
