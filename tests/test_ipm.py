"""Interior-point solver: analytic oracles, statuses, and invariants."""

import copy
import dataclasses
import math

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
from opfkit.ipm import (DerivativeReport, _Csr, _Ipm, _Kkt, _SparseLdl,
                        _View)

from problems import (
    concave_box,
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

    @pytest.mark.parametrize("name,value", [
        ("tol", np.nan), ("tol", np.inf), ("tol", -1.0), ("tol", 0.0),
        ("max_iter", 0), ("max_iter", -3)])
    def test_unusable_limits_rejected(self, name, value):
        """solve() ran a NaN tolerance 50 iterations into MaxIter and
        returned the start point for max_iter=0."""
        with pytest.raises(errors.InvalidPlan, match=name):
            SolverOptions(**{name: value})

    def test_nan_certificate_does_not_certify(self, monkeypatch):
        """Python's max skips a NaN that is not the first entry, so a
        certificate of (0, nan, 0) ended the solve Optimal."""
        monkeypatch.setattr(_Ipm, "_kkt_original",
                            lambda self, *args: (0.0, np.nan, 0.0))
        p, _ = qp_inequality()
        r = solve(p, SolverOptions(max_iter=30))
        assert r.status != "Optimal"

    def test_fixed_variable_stays_fixed(self):
        p, _ = qp_inequality()
        p.xl = np.array([0.25, -np.inf])
        p.xu = np.array([0.25, np.inf])
        r = solve(p, TIGHT)
        assert r.status == "Optimal"
        assert r.x[0] == 0.25
        assert r.x[1] == pytest.approx(1.75, abs=1e-8)

    def test_nan_hessian_is_numeric_failure(self):
        """No regularization gives a NaN matrix a factor: the solve
        reports NumericFailure before its first step instead of
        raising."""
        p, _ = qp_inequality()
        p.lagrangian_hessian = lambda x, sigma, mult: sp.csr_matrix(
            np.full((2, 2), np.nan))
        r = solve(p, TIGHT)
        assert r.status == "NumericFailure"
        assert r.iterations == 0
        assert r.message == "factorization failed after regularization retries"

    def test_low_impedance_branch_solves(self, case9):
        """Branch 1-4 at x = 0.001, r = 1e-4 gives six constraint rows
        with start-point gradients near 1e5.  Scaling those rows down by
        about 1e-3 ended the solve Infeasible at iteration 33 (line
        search stalled with constraint violation 1.275); unscaled rows
        reach case9's optimum."""
        branches = list(case9.branches)
        k = next(i for i, br in enumerate(branches)
                 if (br.fbus, br.tbus) == (1, 4))
        branches[k] = dataclasses.replace(branches[k], r=1e-4, x=0.001)
        p, _ = build_acopf(dataclasses.replace(case9,
                                               branches=tuple(branches)))
        r = solve(p, SolverOptions())
        assert r.status == "Optimal", r.message
        assert r.objective == pytest.approx(3049.2462, rel=1e-6)


def _one_variable_qp(x0, xu=np.inf):
    """min x^2 over x <= xu, started at x0."""
    return NlpProblem(
        n=1, m_eq=0, m_ineq=0, xl=np.array([-np.inf]), xu=np.array([xu]),
        gl=np.zeros(0), gu=np.zeros(0), x0=np.array([x0]),
        objective=lambda x: float(x[0] ** 2),
        gradient=lambda x: 2.0 * x,
        constraints=lambda x: np.zeros(0),
        jacobian=lambda x: sp.csr_matrix((0, 1)),
        lagrangian_hessian=lambda x, sigma, mult: sp.csr_matrix(
            [[2.0 * sigma]]),
        name="one-variable-qp")


def _without_callbacks(p):
    """p with every callback raising when called."""
    def never(*args):
        raise AssertionError("callback evaluated")
    for name in ("objective", "gradient", "constraints", "jacobian",
                 "lagrangian_hessian"):
        setattr(p, name, never)
    return p


class TestNonFiniteStart:

    @pytest.mark.parametrize("x0", [np.inf, -np.inf, np.nan])
    def test_non_finite_start_is_numeric_failure(self, x0):
        """x0 = inf made the objective scale 100 / inf = 0 and the solve
        raised ZeroDivisionError; it now returns before any callback."""
        r = solve(_without_callbacks(_one_variable_qp(x0)))
        assert r.status == "NumericFailure"
        assert r.iterations == 0 and r.iter_log == []
        assert r.message == f"start point is not finite: x0[0] = {x0}"

    def test_start_clipped_into_a_bound_is_finite(self):
        r = solve(_one_variable_qp(np.inf, xu=5.0), TIGHT)
        assert r.status == "Optimal"
        assert abs(r.x[0]) <= 1e-8


class TestCrossedBounds:

    @pytest.mark.parametrize("side,message", [
        ("x", "crossed bounds: xl[0] = 1.0 > xu[0] = 0.0"),
        ("g", "crossed bounds: gl[0] = 1.0 > gu[0] = 0.0")])
    def test_crossed_bounds_are_infeasible_at_start(self, side, message):
        """xl > xu ended NumericFailure (line search step below minimum)
        and gl > gu Infeasible on a stalled line search, each after
        callbacks; both now end Infeasible before any callback."""
        p, _ = qp_inequality()
        if side == "x":
            p.xl, p.xu = np.array([1.0, -np.inf]), np.array([0.0, np.inf])
        else:
            p.gl, p.gu = np.array([1.0]), np.array([0.0])
        r = solve(_without_callbacks(p))
        assert r.status == "Infeasible"
        assert r.iterations == 0 and r.iter_log == []
        assert r.message == message
        assert np.array_equal(r.x, p.x0)


class TestRegularization:

    def test_concave_box_regularization_ladder(self):
        """A negative definite Hessian is regularized until the barrier
        outweighs it.  The first try of each iteration is unregularized,
        the next warm-starts at a third of the last accepted level, and
        each further try takes ten times more."""
        p, exp = concave_box()
        r = solve(p, SolverOptions())
        assert r.status == "Optimal"
        assert np.max(np.abs(r.x - exp["x"])) <= 1e-6
        assert r.iterations == 14
        assert [rec.reg for rec in r.iter_log] == [
            10.0, 3.3333333333333335, 11.11111111111111,
            3.7037037037037037, 12.345679012345679, 4.11522633744856,
            0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0]


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


class TestEvaluations:

    @pytest.fixture
    def points(self, monkeypatch):
        """A copy of every x the solver's scaled constraints and objective
        receive, per callback in call order.  The certificate and the
        reported objective, in original units, do not pass through
        them."""
        seen = {"constraints": [], "objective": []}
        for name, xs in seen.items():
            def wrapped(view, x, fn=getattr(_View, name), xs=xs):
                xs.append(x.copy())
                return fn(view, x)
            monkeypatch.setattr(_View, name, wrapped)
        return seen

    @pytest.mark.parametrize("lattice", [False, True])
    def test_no_point_evaluated_twice_in_a_row(self, points, case9, scens,
                                               ctgs, lattice):
        """The start point is evaluated once, a second-order correction
        reuses the rejected trial's constraints, and each iteration
        starts from the evaluations of the trial it accepted.  The
        gradient and the Jacobian are evaluated at the start point, at
        each accepted iterate and once more by the certificate."""
        if lattice:
            p, _ = compose_general(scens, ctgs, [case9] * 3,
                                   CouplingMode(kind="preventive"), 5.0)
        else:
            p, _ = build_acopf(case9)
        calls = {"gradient": 0, "jacobian": 0}
        for name in calls:
            def counted(x, fn=getattr(p, name), name=name):
                calls[name] += 1
                return fn(x)
            setattr(p, name, counted)
        r = solve(p, SolverOptions())
        assert r.status == "Optimal"
        for name, xs in points.items():
            assert len(xs) > r.iterations
            repeats = [i for i in range(1, len(xs))
                       if np.array_equal(xs[i], xs[i - 1])]
            assert repeats == [], name
        assert calls == {"gradient": r.iterations + 2,
                         "jacobian": r.iterations + 2}


def _kkt_lower(hess, dx_diag, ji, ds_diag, je) -> _Kkt:
    """K for one set of scipy blocks (hess the whole symmetric (1,1)
    block), its pattern built and filled once."""
    h = sp.coo_matrix(hess)
    low = h.row >= h.col
    ji, je = (_Csr(m.indptr, m.indices, m.shape, m.data)
              for m in (sp.csr_matrix(ji), sp.csr_matrix(je)))
    return _Kkt(h.row[low], h.col[low], ji, je).fill(
        h.data[low], dx_diag, ji.data, ds_diag, je.data)


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
    low = _kkt_lower(sp.csr_matrix(h), dx, sp.csr_matrix(ji), ds,
                     sp.csr_matrix(je))
    return _SparseLdl(low, reg, delta)


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
    # the view calls the Jacobian first, at the start point
    return p, jacs, [h.tocsr() for h in hessians[:2]]


def _old_kkt(jac, hess, free, dx, ds, me, reg, delta):
    """Dense K assembled the way the solver once did, from scipy
    products on the sliced callback matrices."""
    jf = jac[:, free]
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
                                            free, dx, ds, me, reg, delta)
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
        first = _SparseLdl(kkt, 0.0, 1e-2)
        assert first.ok
        kkt.reorder(first.lu.perm_c)
        again = _SparseLdl(kkt, 0.0, 1e-2)
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


def _with_fixed_variable():
    p, _ = qp_inequality()
    p.xl = np.array([0.25, -np.inf])
    p.xu = np.array([0.25, np.inf])
    return p


# every problem of problems.py, one with a fixed variable, and case9
_KKT_PROBLEMS = {f.__name__: f for f in (
    qp_inequality, qp_equality, qp_active_bound, qp_bound_sides,
    concave_box, infeasible_box, rosenbrock, _with_fixed_variable)}


def _kkt_reference(p, x, lambda_eq, lambda_ineq, z_lb, z_ub):
    """kkt_error as its docstring states it, one entry at a time."""
    c = p.constraints(x)
    jac = p.jacobian(x).toarray()
    g = p.gradient(x)
    lam = np.concatenate([lambda_eq, lambda_ineq])
    mults = np.concatenate([lam, z_lb, z_ub])
    sd = max(1.0, max((abs(v) for v in mults), default=0.0) / 100.0)
    stat = feas = comp = 0.0
    for j in range(p.n):
        feas = max(feas, p.xl[j] - x[j], x[j] - p.xu[j])
        if p.xl[j] == p.xu[j]:
            continue
        r = g[j] + jac[:, j] @ lam - z_lb[j] + z_ub[j]
        stat = max(stat, abs(r))
        if np.isfinite(p.xl[j]):
            comp = max(comp, abs((x[j] - p.xl[j]) * z_lb[j]))
        if np.isfinite(p.xu[j]):
            comp = max(comp, abs((p.xu[j] - x[j]) * z_ub[j]))
    for k in range(p.m_eq):
        feas = max(feas, abs(c[k]))
    for k in range(p.m_ineq):
        v, lo, hi, lam_k = c[p.m_eq + k], p.gl[k], p.gu[k], lambda_ineq[k]
        feas = max(feas, lo - v, v - hi)
        s = min(max(v, lo), hi)
        if np.isfinite(lo):
            comp = max(comp, abs((s - lo) * max(-lam_k, 0.0)))
        if np.isfinite(hi):
            comp = max(comp, abs((hi - s) * max(lam_k, 0.0)))
    return stat / sd, feas, comp / sd


class TestKktError:

    @pytest.mark.parametrize("name", [*_KKT_PROBLEMS, "case9"])
    def test_matches_dense_reference(self, case9, name):
        """Seeded points, some outside the box, with signed inequality
        multipliers and bound multipliers that are partly zero; the
        problems cover infinite sides, a fixed variable, m_eq = 0 and
        m_ineq = 0."""
        if name == "case9":
            p, _ = build_acopf(case9)
        else:
            p = _KKT_PROBLEMS[name]()
            p = p[0] if isinstance(p, tuple) else p
        rng = np.random.default_rng(len(name))
        lo = np.where(np.isfinite(p.xl), p.xl, -1.0)
        hi = np.where(np.isfinite(p.xu), p.xu, 1.0)
        def bound_mults():
            return np.abs(rng.standard_normal(p.n)) * (rng.random(p.n) < 0.7)
        for _ in range(4):
            x = lo + rng.uniform(-0.2, 1.2, p.n) * (hi - lo)
            mults = (rng.standard_normal(p.m_eq) * 10.0,
                     rng.standard_normal(p.m_ineq) * 10.0,
                     bound_mults(), bound_mults())
            got = kkt_error(p, x, *mults)
            assert got == pytest.approx(_kkt_reference(p, x, *mults),
                                        rel=1e-12)

    def test_nan_inequality_value_is_nan_feasibility(self, base_solve):
        """Python's max dropped a NaN row value: feasibility read 9.2e-11
        at case9's certified point."""
        p, _, r = base_solve
        q = copy.copy(p)

        def constraints(x):
            c = p.constraints(x).copy()
            c[p.m_eq] = np.nan
            return c
        q.constraints = constraints
        _, feas, _ = kkt_error(q, r.x, r.lambda_eq, r.lambda_ineq, r.z_lb,
                               r.z_ub)
        assert math.isnan(feas)

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

    @pytest.mark.parametrize("factory,x,k,i", [
        (qp_inequality, [0.3, 0.4], 0, 1),
        (qp_bound_sides, [0.2, -0.1, 0.4, 0.3], 1, 2)])
    def test_worst_jacobian_entry_located(self, factory, x, k, i):
        p, _ = factory()
        x = np.array(x)
        good = p.jacobian
        entry = good(x)[k, i]
        bump = sp.csr_matrix(([1e-3], ([k], [i])), shape=(p.m_ineq, p.n))
        p.jacobian = lambda pt: good(pt) + bump
        report = check_derivatives(p, x)
        assert not report.ok()
        assert report.worst_jac[:3] == (k, i, entry + 1e-3)
        assert report.worst_jac[3] == pytest.approx(entry, abs=1e-8)
        assert report.jac_max_rel == pytest.approx(
            1e-3 / max(1.0, abs(entry + 1e-3)), rel=1e-6)

    def test_zero_derivatives_report_zero_worst(self):
        zero = sp.csr_matrix((2, 2))
        p = NlpProblem(
            n=2, m_eq=1, m_ineq=1, xl=np.full(2, -np.inf),
            xu=np.full(2, np.inf), gl=np.zeros(1), gu=np.ones(1),
            x0=np.zeros(2), objective=lambda x: 0.0,
            gradient=lambda x: np.zeros(2), constraints=lambda x: np.zeros(2),
            jacobian=lambda x: zero,
            lagrangian_hessian=lambda x, sigma, mult: zero, name="zero")
        assert check_derivatives(p, np.array([0.3, -0.2])) == DerivativeReport(
            grad_max_rel=0.0, jac_max_rel=0.0, hess_max_rel=0.0,
            worst_grad=(0, 0.0, 0.0), worst_jac=(0, 0, 0.0, 0.0),
            worst_hess=(0, 0, 0.0, 0.0))

    @pytest.mark.parametrize("callback", ["gradient", "jacobian",
                                          "lagrangian_hessian"])
    @pytest.mark.parametrize("problem", ["qp_inequality", "case9"])
    def test_nan_derivative_rejected(self, case9, problem, callback):
        """A NaN entry compared as no error at all, so ok() held."""
        if problem == "case9":
            p, _ = build_acopf(case9)
            x = interior_points(p, 1, np.random.default_rng(7))[0]
        else:
            p, _ = qp_inequality()
            x = np.array([0.3, 0.4])
        good = getattr(p, callback)

        def bad(*args):
            out = good(*args).copy()
            (out.data if sp.issparse(out) else out)[0] = np.nan
            return out
        setattr(p, callback, bad)
        assert not check_derivatives(p, x).ok()

    def test_corrupted_gradient_flagged(self):
        p, _ = qp_inequality()
        good_grad = p.gradient
        p.gradient = lambda x: good_grad(x) + np.array([0.01, 0.0])
        report = check_derivatives(p, np.array([0.3, 0.4]))
        assert not report.ok()
