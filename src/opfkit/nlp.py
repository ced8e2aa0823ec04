"""Generic smooth NLP container.

    min  f(x)
    s.t. c_eq(x) = 0
         gl <= c_ineq(x) <= gu
         xl <= x <= xu

constraints(x) returns the stacked vector [c_eq; c_ineq] and
jacobian(x) the matching (m_eq + m_ineq) x n sparse matrix.
lagrangian_hessian(x, obj_factor, mult) returns the sparse n x n
matrix obj_factor * H(f) + sum_k mult[k] * H(c_k) with mult running
over the same stacked constraint order.  The solver reads only its
lower triangle (row >= column), so a callback may return the whole
symmetric matrix or the lower triangle alone.  Infinite bounds use
+-inf.

Sparsity contract: the Jacobian and Hessian callbacks keep one
sparsity pattern at every evaluation point.  Each matrix is first made
canonical CSR (COO, or CSR with unsorted or repeated indices, is
converted with duplicates summed); the solver reads the pattern of the
first one per solve and refills values only after that.  A later
matrix whose canonical indptr or indices differ raises
DimensionMismatch naming the callback.  An entry that can be zero must
stay stored as an explicit zero (`sp.csr_matrix(dense)` drops zeros).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np
import scipy.sparse as sp


@dataclass
class NlpProblem:
    n: int
    m_eq: int
    m_ineq: int
    xl: np.ndarray
    xu: np.ndarray
    gl: np.ndarray
    gu: np.ndarray
    x0: np.ndarray
    objective: Callable[[np.ndarray], float]
    gradient: Callable[[np.ndarray], np.ndarray]
    constraints: Callable[[np.ndarray], np.ndarray]
    jacobian: Callable[[np.ndarray], sp.csr_matrix]
    lagrangian_hessian: Callable[[np.ndarray, float, np.ndarray], sp.csr_matrix]
    name: str = "nlp"

    def __post_init__(self) -> None:
        for attr in ("xl", "xu", "x0"):
            if getattr(self, attr).shape != (self.n,):
                raise ValueError(f"{attr} must have shape ({self.n},)")
        for attr in ("gl", "gu"):
            if getattr(self, attr).shape != (self.m_ineq,):
                raise ValueError(f"{attr} must have shape ({self.m_ineq},)")


class CsrPattern:
    """Canonical CSR structure of fixed COO positions.

    slot[k] is the CSR position of input entry k.  Duplicate positions
    share a slot, and `sums` adds their values in input order.
    """

    def __init__(self, rows: np.ndarray, cols: np.ndarray,
                 shape: tuple[int, int]):
        order = np.lexsort((cols, rows))      # stable: ties keep input order
        r, c = rows[order], cols[order]
        first = np.ones(r.size, dtype=bool)
        first[1:] = (r[1:] != r[:-1]) | (c[1:] != c[:-1])
        self.slot = np.empty(r.size, dtype=np.intp)
        self.slot[order] = np.cumsum(first) - 1
        # the index dtype scipy picks, so wrapping never copies
        idx = (np.int32 if max(*shape, r.size) <= np.iinfo(np.int32).max
               else np.int64)
        self.indices = c[first].astype(idx)
        self.indptr = np.zeros(shape[0] + 1, dtype=idx)
        np.cumsum(np.bincount(r[first], minlength=shape[0]),
                  out=self.indptr[1:])
        self.shape = shape

    def sums(self, vals: np.ndarray) -> np.ndarray:
        """CSR data of the matrix whose input entries hold vals."""
        return np.bincount(self.slot, weights=vals,
                           minlength=self.indices.size)

    def wrap(self, vals: np.ndarray) -> sp.csr_matrix:
        """The matrix whose input entries hold vals, on this structure."""
        mat = sp.csr_matrix((self.sums(vals), self.indices, self.indptr),
                            shape=self.shape)
        mat.has_canonical_format = True
        return mat
