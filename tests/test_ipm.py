"""Interior-point solver: analytic oracles, statuses, and invariants."""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from opfkit import (
    CouplingMode,
    NlpProblem,
    SolverOptions,
    build_acopf,
    check_derivatives,
    compose_general,
    errors,
    kkt_error,
    solve,
)
from opfkit.ipm import _Kkt, _kkt_lower, _SparseLdl, _View

from problems import (
    infeasible_box,
    qp_active_bound,
    qp_bound_sides,
    qp_equality,
    qp_inequality,
    rosenbrock,
)
from util import interior_points

TIGHT = SolverOptions(tol=1e-10)


class TestAnalyticOracles:

    def test_inequality_qp(self):
        p, exp = qp_inequality()
        r = solve(p, TIGHT)
        assert r.status == "Optimal"
        assert np.max(np.abs(r.x - exp["x"])) <= 1e-8
        assert r.lambda_ineq[0] == pytest.approx(exp["lambda_ineq"][0],
                                                 abs=1e-6)

    def test_equality_qp_multiplier_sign(self):
        p, exp = qp_equality()
        r = solve(p, TIGHT)
        assert r.status == "Optimal"
        assert np.max(np.abs(r.x - exp["x"])) <= 1e-8
        assert r.lambda_eq[0] == pytest.approx(-2.0, abs=1e-6)

    def test_active_bound_multiplier(self):
        p, exp = qp_active_bound()
        r = solve(p, TIGHT)
        assert r.status == "Optimal"
        assert np.max(np.abs(r.x - exp["x"])) <= 1e-8
        assert r.z_lb[0] == pytest.approx(2.0, abs=1e-6)
        assert r.z_ub[0] == pytest.approx(0.0, abs=1e-6)

    def test_bound_sides(self):
        """The sides the other oracles leave out: an active upper
        variable bound, an active finite lower bound on a row, an
        inactive ranged row and a free variable."""
        p, exp = qp_bound_sides()
        r = solve(p, TIGHT)
        assert r.status == "Optimal"
        assert np.max(np.abs(r.x - exp["x"])) <= 1e-8
        assert r.z_ub == pytest.approx(exp["z_ub"], abs=1e-6)
        assert r.z_lb == pytest.approx(np.zeros(4), abs=1e-6)
        assert r.lambda_ineq[0] < 0.0
        assert r.lambda_ineq == pytest.approx(exp["lambda_ineq"], abs=1e-6)
        assert r.objective == pytest.approx(6.0, abs=1e-8)

    def test_rosenbrock(self):
        r = solve(rosenbrock(), SolverOptions(tol=1e-8))
        assert r.status == "Optimal"
        assert np.max(np.abs(r.x - 1.0)) <= 1e-6

    def test_kkt_triple_reported(self):
        p, _ = qp_equality()
        r = solve(p, TIGHT)
        assert len(r.kkt) == 3
        assert max(r.kkt) <= 1e-10


class TestStatuses:

    def test_infeasible_detected(self):
        r = solve(infeasible_box(), SolverOptions(tol=1e-8))
        assert r.status == "Infeasible"

    def test_max_iter(self):
        r = solve(rosenbrock(), SolverOptions(tol=1e-12, max_iter=3))
        assert r.status == "MaxIter"
        assert r.iterations <= 3

    def test_fixed_variable_stays_fixed(self):
        p, _ = qp_inequality()
        p.xl = np.array([0.25, -np.inf])
        p.xu = np.array([0.25, np.inf])
        r = solve(p, TIGHT)
        assert r.status == "Optimal"
        assert r.x[0] == 0.25
        assert r.x[1] == pytest.approx(1.75, abs=1e-8)


class TestDeterminism:

    def test_bitwise_repeatability(self, case9):
        p, _ = build_acopf(case9)
        r1 = solve(p, SolverOptions())
        r2 = solve(p, SolverOptions())
        assert r1.status == r2.status == "Optimal"
        assert np.array_equal(r1.x, r2.x)
        assert r1.objective == r2.objective
        # the dense Bunch-Kaufman solver this one replaced took the
        # same path to the same point
        assert r1.iterations == 15
        assert r1.objective == pytest.approx(3049.2461840446076, rel=1e-8)

    def test_flagship_lattice_path(self, case9, scens, ctgs):
        """2 scenarios x 10 contingency stages x 3 periods, preventive:
        the iteration count, the unregularized path and the objective of
        the solver that assembled K anew at every iteration."""
        p, imap = compose_general(scens, ctgs, [case9] * 3,
                                  CouplingMode(kind="preventive"), 5.0)
        assert len(imap.stages) == 60
        r = solve(p, SolverOptions())
        assert r.status == "Optimal"
        assert r.iterations == 27
        assert sum(rec.reg > 0.0 for rec in r.iter_log) == 0
        assert r.objective == pytest.approx(109034.70792620965, rel=1e-12)


def _kkt_blocks(seed, n, me, density):
    """Random sparse KKT data: symmetric indefinite H, a Je with one
    boosted entry per row in distinct columns (so almost always of full
    row rank), and an inequality part Ji' Ds Ji with Ds > 0."""
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, n)) * (rng.random((n, n)) < density)
    h = a + a.T
    je = rng.standard_normal((me, n)) * (rng.random((me, n)) < density)
    je[np.arange(me), rng.permutation(n)[:me]] += 1.0 + rng.random(me)
    mi = int(rng.integers(0, n + 1))
    ji = rng.standard_normal((mi, n)) * (rng.random((mi, n)) < density)
    ds = rng.uniform(0.1, 10.0, mi)
    dx = rng.uniform(0.0, 1.0, n) * (rng.random(n) < 0.5)
    return h, dx, ji, ds, je


def _dense_kkt(h, dx, ji, ds, je, reg, delta):
    n, me = h.shape[0], je.shape[0]
    k = np.zeros((n + me, n + me))
    k[:n, :n] = h + np.diag(dx + reg) + ji.T @ (ds[:, None] * ji)
    k[n:, :n] = je
    k[:n, n:] = je.T
    k[n:, n:] = -delta * np.eye(me)
    return k


def _sparse_factor(h, dx, ji, ds, je, reg, delta):
    n, me = h.shape[0], je.shape[0]
    low = _kkt_lower(sp.csr_matrix(h), dx, sp.csr_matrix(ji), ds,
                     sp.csr_matrix(je))
    return _SparseLdl(low, reg, delta, n, me)


_KKT_CASES = dict(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 14),
    me_frac=st.floats(0.0, 0.9),
    density=st.sampled_from([0.2, 0.5, 1.0]),
    reg=st.sampled_from([0.0, 1e-8, 1e-4, 1.0, 10.0]),
    delta=st.sampled_from([1e-9, 1e-6, 1e-2]),
)


class TestKktFactor:

    @settings(max_examples=200, deadline=None)
    @given(**_KKT_CASES)
    def test_ok_factor_counts_eigenvalues(self, seed, n, me_frac, density,
                                          reg, delta):
        """An accepted factor certifies inertia (n, m_eq) and solves K."""
        me = max(1, int(me_frac * n))
        blocks = _kkt_blocks(seed, n, me, density)
        assume(np.linalg.matrix_rank(blocks[4]) == me)
        k = _dense_kkt(*blocks, reg, delta)
        eig = np.linalg.eigvalsh(k)
        # inertia is only numerically defined away from singularity
        assume(np.min(np.abs(eig)) > 1e-8 * np.max(np.abs(eig)))
        fact = _sparse_factor(*blocks, reg, delta)
        if fact.ok:
            assert (np.count_nonzero(eig > 0), np.count_nonzero(eig < 0)) \
                == (n, me)
            rhs = np.random.default_rng(seed).standard_normal(n + me)
            sol = fact.solve(rhs)
            assert np.allclose(k @ sol, rhs, atol=1e-6 * np.max(np.abs(eig))
                               * max(1.0, np.max(np.abs(sol))))

    @settings(max_examples=100, deadline=None)
    @given(**_KKT_CASES)
    def test_quasi_definite_accepted(self, seed, n, me_frac, density, reg,
                                     delta):
        """Positive definite H and delta > 0 make K quasi-definite, which
        has an LDL' factorization in every ordering."""
        me = max(1, int(me_frac * n))
        h, dx, ji, ds, je = _kkt_blocks(seed, n, me, density)
        h = h @ h.T + np.eye(n)
        assert _sparse_factor(h, dx, ji, ds, je, reg, delta).ok

    @settings(max_examples=100, deadline=None)
    @given(**_KKT_CASES)
    def test_negative_curvature_on_null_space_rejected(
            self, seed, n, me_frac, density, reg, delta):
        """H = 10 Je' Je - (B B' + I) is indefinite but at most -I on
        null(Je), and stays negative definite there with reg <= 0.5, so
        K has at most m_eq < n positive eigenvalues."""
        me = min(n - 1, max(1, int(me_frac * n)))
        _, _, _, _, je = _kkt_blocks(seed, n, me, density)
        b = np.random.default_rng(seed).standard_normal((n, n))
        h = 10.0 * je.T @ je - (b @ b.T + np.eye(n))
        empty = np.zeros((0, n))
        fact = _sparse_factor(h, np.zeros(n), empty, np.zeros(0), je,
                              min(reg, 0.5), delta)
        assert not fact.ok


def _view_problem(seed, n, me, mi, density, n_fixed):
    """A problem whose Jacobian and Hessian callbacks return new values
    on one fixed pattern at each call: the Jacobian as CSR with rows of
    very different magnitudes, the Hessian as COO with every entry split
    into two duplicates.  Also returns the matrices each call gives."""
    rng = np.random.default_rng(seed)
    m = me + mi
    mask = rng.random((m, n)) < density
    mask[np.arange(m), rng.integers(0, n, m)] = True
    jr, jc = np.nonzero(mask)
    row_mag = 10.0 ** rng.uniform(-1.0, 4.0, m)
    lower = np.tril(rng.random((n, n)) < density) | np.eye(n, dtype=bool)
    lr, lc = np.nonzero(lower)
    off = lr != lc
    hr = np.concatenate([lr, lr, lc[off], lc[off]])
    hc = np.concatenate([lc, lc, lr[off], lr[off]])
    jacs, hessians = [], []
    for _ in range(3):
        jacs.append(sp.csr_matrix(
            (rng.standard_normal(jr.size) * row_mag[jr], (jr, jc)),
            shape=(m, n)))
        a, b = rng.standard_normal((2, lr.size))
        hessians.append(sp.coo_matrix(
            (np.concatenate([a, b, a[off], b[off]]), (hr, hc)), shape=(n, n)))
    calls = {"jacobian": 0, "hessian": 0}

    def jacobian(x):
        calls["jacobian"] += 1
        return jacs[calls["jacobian"] - 1]

    def hessian(x, obj_factor, mult):
        calls["hessian"] += 1
        return hessians[calls["hessian"] - 1]

    xl = np.full(n, -np.inf)
    xu = np.full(n, np.inf)
    fixed = rng.permutation(n)[:n_fixed]
    xl[fixed] = xu[fixed] = rng.standard_normal(n_fixed)
    g0 = rng.standard_normal(n) * 1e3
    p = NlpProblem(
        n=n, m_eq=me, m_ineq=mi, xl=xl, xu=xu, gl=np.full(mi, -np.inf),
        gu=np.full(mi, np.inf), x0=np.zeros(n), objective=lambda x: 0.0,
        gradient=lambda x: g0, constraints=lambda x: np.zeros(m),
        jacobian=jacobian, lagrangian_hessian=hessian, name="random")
    # the Jacobian call that sets the scaling comes first
    return p, jacs, [h.tocsr() for h in hessians[:2]]


def _old_kkt(jac, hess, free, s_c, dx, ds, me, reg, delta):
    """Dense K assembled the way the solver once did, from scipy
    products on the sliced callback matrices."""
    jf = sp.diags(s_c) @ jac[:, free]
    je, ji = jf[:me], jf[me:]
    hf = hess[free][:, free]
    jdj = ji.T @ ji.multiply(ds[:, None])
    low = np.tril(hf.toarray()) + np.tril(jdj.toarray()) + np.diag(dx)
    n = free.size
    k = np.zeros((n + me, n + me))
    k[:n, :n] = low + np.tril(low, -1).T + reg * np.eye(n)
    k[n:, :n] = je.toarray()
    k[:n, n:] = je.toarray().T
    k[n:, n:] = -delta * np.eye(me)
    return k, je, ji


class TestFixedPatterns:

    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 12),
           me=st.integers(0, 5), mi=st.integers(0, 8),
           density=st.sampled_from([0.2, 0.5, 1.0]),
           fixed_frac=st.floats(0.0, 0.5),
           reg=st.sampled_from([0.0, 1e-4]),
           delta=st.sampled_from([1e-9, 1e-2]))
    def test_view_and_fill_match_scipy_assembly(self, seed, n, me, mi,
                                                density, fixed_frac, reg,
                                                delta):
        """The view's gathers and K's scatter map give the matrix the
        old slicing and scipy products gave, on two fills through one
        pattern, the second after a re-layout."""
        n_fixed = int(fixed_frac * n)
        p, jacs, hessians = _view_problem(seed, n, me, mi, density, n_fixed)
        view = _View(p)
        free = view.free
        row_max = abs(jacs[0][:, free]).max(axis=1).toarray().ravel()
        with np.errstate(divide="ignore"):
            s_c = np.minimum(1.0, 100.0 / row_max)
        s_c[~np.isfinite(s_c)] = 1.0
        assert np.array_equal(view.s_c, s_c)

        rng = np.random.default_rng(seed)
        kkt = None
        for call in (1, 2):
            je, ji = view.jacobian(view.x0)
            h = view.hessian(view.x0, 1.0, np.zeros(me + mi))
            dx = rng.uniform(0.0, 1.0, free.size) * (rng.random(free.size)
                                                      < 0.5)
            ds = rng.uniform(0.1, 10.0, mi)
            if kkt is None:
                kkt = _Kkt(view.h_rows, view.h_cols, ji, je)
            kkt.fill(h, dx, ji.data, ds, je.data)
            got = kkt.matrix(reg, delta).toarray()
            want, je_old, ji_old = _old_kkt(jacs[call], hessians[call - 1],
                                            free, s_c, dx, ds, me, reg,
                                            delta)
            if kkt.perm is not None:
                at = kkt.perm[0]
                want = want[at][:, at]
            scale = max(1.0, float(np.max(np.abs(want))))
            assert np.max(np.abs(got - want)) <= 1e-15 * scale
            y = rng.standard_normal(me + mi)
            v = rng.standard_normal(free.size)
            assert np.array_equal(je.tdot(y[:me]), je_old.T @ y[:me])
            assert np.array_equal(ji.tdot(y[me:]), ji_old.T @ y[me:])
            # scipy's product leaves each row's columns in reverse order
            assert np.array_equal(ji.dot(v), ji_old.sorted_indices() @ v)
            kkt.reorder(rng.permutation(free.size + me))

    def test_reordered_factor_matches_first(self):
        """Laid out in its first minimum-degree order, K factors in its
        natural order with the same fill and the same solution."""
        h, dx, ji, ds, je = _kkt_blocks(3, 40, 12, 0.1)
        h = h @ h.T + np.eye(40)
        kkt = _kkt_lower(sp.csr_matrix(h), dx, sp.csr_matrix(ji), ds,
                         sp.csr_matrix(je))
        first = _SparseLdl(kkt, 0.0, 1e-2, 40, 12)
        assert first.ok
        kkt.reorder(first.lu.perm_c)
        again = _SparseLdl(kkt, 0.0, 1e-2, 40, 12)
        assert again.ok
        assert np.array_equal(again.lu.perm_c, np.arange(52))
        assert (again.lu.L.nnz + again.lu.U.nnz
                == first.lu.L.nnz + first.lu.U.nnz)
        rhs = np.random.default_rng(3).standard_normal(52)
        sol = again.solve(rhs)
        k = _dense_kkt(h, dx, ji, ds, je, 0.0, 1e-2)
        assert np.max(np.abs(k @ sol - rhs)) <= 1e-10
        np.testing.assert_allclose(sol, first.solve(rhs), rtol=1e-10,
                                   atol=1e-12)


class TestPatternContract:

    def _counting(self, fn, later):
        """fn on its first call, later on every call after."""
        calls = []

        def wrapped(*args):
            calls.append(None)
            return (fn if len(calls) == 1 else later)(*args)
        return wrapped

    def test_hessian_dropping_an_entry_raises(self):
        p, _ = qp_inequality()
        p.lagrangian_hessian = self._counting(
            p.lagrangian_hessian,
            lambda x, sigma, mult: sp.csr_matrix(([2.0 * sigma], ([0], [0])),
                                                 shape=(2, 2)))
        with pytest.raises(errors.DimensionMismatch,
                           match="lagrangian_hessian"):
            solve(p, TIGHT)

    def test_jacobian_changing_pattern_raises(self):
        p, _ = qp_inequality()
        p.jacobian = self._counting(
            p.jacobian,
            lambda x: sp.csr_matrix(([1.0], ([0], [1])), shape=(1, 2)))
        with pytest.raises(errors.DimensionMismatch, match="jacobian"):
            solve(p, TIGHT)

    def test_coo_and_unsorted_csr_are_canonicalized(self):
        """A COO Hessian with duplicates and a CSR Jacobian with unsorted
        indices solve exactly as their canonical forms do."""
        p, _ = qp_inequality()
        ref = solve(p, TIGHT)
        p.lagrangian_hessian = lambda x, sigma, mult: sp.coo_matrix(
            ([sigma, sigma, sigma, sigma], ([0, 1, 0, 1], [0, 1, 0, 1])),
            shape=(2, 2))
        p.jacobian = lambda x: sp.csr_matrix(
            (np.array([1.0, 1.0]), np.array([1, 0]), np.array([0, 2])),
            shape=(1, 2))
        r = solve(p, TIGHT)
        assert r.status == "Optimal"
        assert np.array_equal(r.x, ref.x)
        assert r.iterations == ref.iterations


class TestIterationLog:

    def test_log_is_populated(self, base_solve):
        _, _, r = base_solve
        assert len(r.iter_log) == r.iterations
        first = r.iter_log[0]
        assert first.mu > 0 and first.nu > 0

    def test_merit_monotone_at_fixed_mu_nu(self, base_solve):
        """Armijo guarantees descent while the merit parameters hold."""
        _, _, r = base_solve
        for a, b in zip(r.iter_log, r.iter_log[1:]):
            if a.mu == b.mu and a.nu == b.nu:
                assert b.merit <= a.merit + 1e-9 * max(1.0, abs(a.merit))

    def test_mu_never_increases(self, base_solve):
        _, _, r = base_solve
        mus = [rec.mu for rec in r.iter_log]
        assert all(m2 <= m1 for m1, m2 in zip(mus, mus[1:]))

    def test_interior_gaps_positive(self, base_solve):
        _, _, r = base_solve
        for rec in r.iter_log:
            assert rec.min_bound_gap > 0.0


class TestKktError:

    def test_zero_at_certified_point(self, base_solve):
        p, _, r = base_solve
        stat, feas, comp = kkt_error(p, r.x, r.lambda_eq, r.lambda_ineq,
                                     r.z_lb, r.z_ub)
        assert max(stat, feas, comp) <= 1e-6

    def test_perturbed_point_flagged(self, base_solve):
        p, _, r = base_solve
        x = r.x.copy()
        x[-1] += 1e-3
        stat, feas, comp = kkt_error(p, x, r.lambda_eq, r.lambda_ineq,
                                     r.z_lb, r.z_ub)
        assert max(stat, feas, comp) > 1e-6

    def test_shape_checks(self, base_solve):
        p, _, r = base_solve
        with pytest.raises(errors.DimensionMismatch):
            kkt_error(p, r.x[:-1], r.lambda_eq, r.lambda_ineq,
                      r.z_lb, r.z_ub)
        with pytest.raises(errors.DimensionMismatch):
            kkt_error(p, r.x, r.lambda_eq[:-1], r.lambda_ineq,
                      r.z_lb, r.z_ub)


class TestDerivativeChecker:

    def test_clean_problem_passes(self, case9):
        p, _ = build_acopf(case9)
        rng = np.random.default_rng(7)
        for x in interior_points(p, 3, rng):
            assert check_derivatives(p, x).ok()

    def test_corrupted_gradient_flagged(self):
        p, _ = qp_inequality()
        good_grad = p.gradient
        p.gradient = lambda x: good_grad(x) + np.array([0.01, 0.0])
        report = check_derivatives(p, np.array([0.3, 0.4]))
        assert not report.ok()
