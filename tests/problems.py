"""Small analytic optimization problems with known solutions.

Each factory returns (NlpProblem, expected) where expected is a dict
holding the exact optimizer and, where interesting, the multipliers
implied by the solver's Lagrangian convention
L = f + lambda^T c - z_lb^T (x - xl) - z_ub^T (xu - x).
"""

import numpy as np
import scipy.sparse as sp

from opfkit import NlpProblem

_INF = np.inf


def _csr(rows, shape):
    return sp.csr_matrix(np.asarray(rows, dtype=float).reshape(shape))


def qp_inequality():
    """min (x1-2)^2 + (x2-2)^2  s.t.  x1 + x2 <= 2.

    The unconstrained minimum (2, 2) violates the cut, so the
    inequality is active: x* = (1, 1), lambda* = 2 on the upper side.
    """

    def objective(x):
        return (x[0] - 2.0) ** 2 + (x[1] - 2.0) ** 2

    def gradient(x):
        return np.array([2.0 * (x[0] - 2.0), 2.0 * (x[1] - 2.0)])

    def constraints(x):
        return np.array([x[0] + x[1]])

    def jacobian(x):
        return _csr([1.0, 1.0], (1, 2))

    def hessian(x, obj_factor, mult):
        return sp.csr_matrix(2.0 * obj_factor * np.eye(2))

    p = NlpProblem(
        n=2, m_eq=0, m_ineq=1,
        xl=np.full(2, -_INF), xu=np.full(2, _INF),
        gl=np.array([-_INF]), gu=np.array([2.0]),
        x0=np.zeros(2),
        objective=objective, gradient=gradient, constraints=constraints,
        jacobian=jacobian, lagrangian_hessian=hessian,
        name="qp-inequality")
    return p, {"x": np.array([1.0, 1.0]), "lambda_ineq": np.array([2.0])}


def qp_equality():
    """min x1^2 + x2^2  s.t.  x1 + x2 = 2.

    x* = (1, 1); grad f = (2, 2) and grad c = (1, 1) give
    lambda* = -2 under L = f + lambda^T c.
    """

    def objective(x):
        return x[0] ** 2 + x[1] ** 2

    def gradient(x):
        return 2.0 * x

    def constraints(x):
        return np.array([x[0] + x[1] - 2.0])

    def jacobian(x):
        return _csr([1.0, 1.0], (1, 2))

    def hessian(x, obj_factor, mult):
        return sp.csr_matrix(2.0 * obj_factor * np.eye(2))

    p = NlpProblem(
        n=2, m_eq=1, m_ineq=0,
        xl=np.full(2, -_INF), xu=np.full(2, _INF),
        gl=np.zeros(0), gu=np.zeros(0),
        x0=np.array([3.0, -1.0]),
        objective=objective, gradient=gradient, constraints=constraints,
        jacobian=jacobian, lagrangian_hessian=hessian,
        name="qp-equality")
    return p, {"x": np.array([1.0, 1.0]), "lambda_eq": np.array([-2.0])}


def qp_active_bound():
    """min (x-1)^2  s.t.  x >= 2.

    The bound is active at x* = 2 where grad f = 2, so the lower
    bound multiplier is z_lb* = 2.
    """

    def objective(x):
        return (x[0] - 1.0) ** 2

    def gradient(x):
        return np.array([2.0 * (x[0] - 1.0)])

    def constraints(x):
        return np.zeros(0)

    def jacobian(x):
        return sp.csr_matrix((0, 1))

    def hessian(x, obj_factor, mult):
        return sp.csr_matrix(np.array([[2.0 * obj_factor]]))

    p = NlpProblem(
        n=1, m_eq=0, m_ineq=0,
        xl=np.array([2.0]), xu=np.array([_INF]),
        gl=np.zeros(0), gu=np.zeros(0),
        x0=np.array([5.0]),
        objective=objective, gradient=gradient, constraints=constraints,
        jacobian=jacobian, lagrangian_hessian=hessian,
        name="qp-active-bound")
    return p, {"x": np.array([2.0]), "z_lb": np.array([2.0])}


def qp_bound_sides():
    """min (x1-3)^2 + x2^2 + x3^2 + (x4+1/2)^2
    s.t.  x1 <= 1,  x2 + x3 >= 2,  -1 <= x2 - x3 + x4 <= 1,  x4 free.

    x* = (1, 1, 1, -1/2).  The upper bound on x1 is active with
    z_ub* = 4; the row x2 + x3 sits on its finite lower bound, so
    lambda* = -2 (negative on the lower side); the ranged row reads
    -1/2 and is inactive, lambda* = 0.
    """

    def objective(x):
        return ((x[0] - 3.0) ** 2 + x[1] ** 2 + x[2] ** 2
                + (x[3] + 0.5) ** 2)

    def gradient(x):
        return 2.0 * (x - np.array([3.0, 0.0, 0.0, -0.5]))

    def constraints(x):
        return np.array([x[1] + x[2], x[1] - x[2] + x[3]])

    def jacobian(x):
        return _csr([[0.0, 1.0, 1.0, 0.0], [0.0, 1.0, -1.0, 1.0]], (2, 4))

    def hessian(x, obj_factor, mult):
        return sp.csr_matrix(2.0 * obj_factor * np.eye(4))

    p = NlpProblem(
        n=4, m_eq=0, m_ineq=2,
        xl=np.full(4, -_INF), xu=np.array([1.0, _INF, _INF, _INF]),
        gl=np.array([2.0, -1.0]), gu=np.array([_INF, 1.0]),
        x0=np.zeros(4),
        objective=objective, gradient=gradient, constraints=constraints,
        jacobian=jacobian, lagrangian_hessian=hessian,
        name="qp-bound-sides")
    return p, {"x": np.array([1.0, 1.0, 1.0, -0.5]),
               "z_ub": np.array([4.0, 0.0, 0.0, 0.0]),
               "lambda_ineq": np.array([-2.0, 0.0])}


def concave_box():
    """min -(x1^2 + x2^2) + 0.1 x1  on  [-1, 2]^2, from (0.3, 0.4).

    The Hessian is negative definite, so the Newton matrix has the
    wrong inertia until the barrier terms outweigh it; the minimum is
    the corner (2, 2).
    """

    def objective(x):
        return -(x[0] ** 2 + x[1] ** 2) + 0.1 * x[0]

    def gradient(x):
        return np.array([-2.0 * x[0] + 0.1, -2.0 * x[1]])

    def constraints(x):
        return np.zeros(0)

    def jacobian(x):
        return sp.csr_matrix((0, 2))

    def hessian(x, obj_factor, mult):
        return sp.csr_matrix(-2.0 * obj_factor * np.eye(2))

    p = NlpProblem(
        n=2, m_eq=0, m_ineq=0,
        xl=np.full(2, -1.0), xu=np.full(2, 2.0),
        gl=np.zeros(0), gu=np.zeros(0),
        x0=np.array([0.3, 0.4]),
        objective=objective, gradient=gradient, constraints=constraints,
        jacobian=jacobian, lagrangian_hessian=hessian,
        name="concave-box")
    return p, {"x": np.array([2.0, 2.0])}


def infeasible_box():
    """min x^2  s.t.  x = 0  with bound x >= 1.  No feasible point."""

    def objective(x):
        return x[0] ** 2

    def gradient(x):
        return 2.0 * x

    def constraints(x):
        return np.array([x[0]])

    def jacobian(x):
        return _csr([1.0], (1, 1))

    def hessian(x, obj_factor, mult):
        return sp.csr_matrix(np.array([[2.0 * obj_factor]]))

    return NlpProblem(
        n=1, m_eq=1, m_ineq=0,
        xl=np.array([1.0]), xu=np.array([2.0]),
        gl=np.zeros(0), gu=np.zeros(0),
        x0=np.array([1.5]),
        objective=objective, gradient=gradient, constraints=constraints,
        jacobian=jacobian, lagrangian_hessian=hessian,
        name="infeasible-box")


def rosenbrock():
    """Unconstrained 2-d Rosenbrock valley, x* = (1, 1)."""

    def objective(x):
        return (1.0 - x[0]) ** 2 + 100.0 * (x[1] - x[0] ** 2) ** 2

    def gradient(x):
        return np.array([
            -2.0 * (1.0 - x[0]) - 400.0 * x[0] * (x[1] - x[0] ** 2),
            200.0 * (x[1] - x[0] ** 2)])

    def constraints(x):
        return np.zeros(0)

    def jacobian(x):
        return sp.csr_matrix((0, 2))

    def hessian(x, obj_factor, mult):
        h = np.array([
            [2.0 - 400.0 * (x[1] - 3.0 * x[0] ** 2), -400.0 * x[0]],
            [-400.0 * x[0], 200.0]])
        return sp.csr_matrix(obj_factor * h)

    return NlpProblem(
        n=2, m_eq=0, m_ineq=0,
        xl=np.full(2, -_INF), xu=np.full(2, _INF),
        gl=np.zeros(0), gu=np.zeros(0),
        x0=np.array([-1.2, 1.0]),
        objective=objective, gradient=gradient, constraints=constraints,
        jacobian=jacobian, lagrangian_hessian=hessian,
        name="rosenbrock")
