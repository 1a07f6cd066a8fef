"""The four normed division algebras over the reals: R, C, H, and O.

Elements are coefficient vectors in the fixed basis (1, e1, ..., e_{d-1})
with d in {1, 2, 4, 8}.  The structure-constant tensor ``table`` is built
once per algebra by Cayley-Dickson doubling with the convention

    (a, b) * (c, d) = (a*c - conj(d)*b,  d*a + b*conj(c)),

which reproduces the standard quaternion table (i*j = k) and yields the
octonions as pairs of quaternions.  Every basis product is a signed basis
element, e_p e_q = +-e_k, so the table is a signed permutation: d^2 of its
d^3 entries are nonzero (64 of 512 on O).  ``right_matrices`` multiplies
by that structure, a gather and a sign per (p, k) in place of a dense
contraction; the dense ``table`` stays for the variety's one-off tensors
and for the tests.  Conjugate by multiplying with ``conj_signs``.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

__all__ = [
    "Algebra",
    "REAL",
    "COMPLEX",
    "QUATERNION",
    "OCTONION",
    "ALGEBRAS",
    "algebra_by_kind",
]

_KIND_DIMS = {"real": 1, "complex": 2, "quaternion": 4, "octonion": 8}


def _doubled(table: np.ndarray) -> np.ndarray:
    """One Cayley-Dickson doubling step applied to a structure tensor.

    ``table[i, j, k]`` is the coefficient of e_k in the product e_i * e_j
    of the half-dimensional algebra.
    """
    h = table.shape[0]
    conj = -np.ones(h)
    conj[0] = 1.0
    out = np.zeros((2 * h, 2 * h, 2 * h))
    for p in range(h):
        for q in range(h):
            for k in range(h):
                s = table[p, q, k]
                if s == 0.0:
                    continue
                # x = (a, b), y = (c, d); xy = (ac - conj(d) b, da + b conj(c))
                out[p, q, k] += s
                out[h + q, h + p, k] -= conj[p] * s
                out[q, h + p, h + k] += s
                out[h + p, q, h + k] += conj[q] * s
    return out


def _signed_permutation(table: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The q and the sign with e_p e_q = sign e_k, for each (p, k)."""
    p, q, k = np.nonzero(table)
    index = np.empty(table.shape[:2], dtype=np.intp)
    index[p, k] = q
    signs = np.zeros(table.shape[:2])
    signs[p, k] = table[p, q, k]
    index.setflags(write=False)
    signs.setflags(write=False)
    return index, signs


@lru_cache(maxsize=None)
def _structure_tensor(dim: int) -> np.ndarray:
    if dim == 1:
        t = np.ones((1, 1, 1))
    else:
        t = _doubled(_structure_tensor(dim // 2))
    t.setflags(write=False)
    return t


class Algebra:
    """One of R, C, H, O, identified by its multiplication tensor.

    Use the module-level singletons ``REAL``, ``COMPLEX``, ``QUATERNION``,
    ``OCTONION`` instead of constructing new instances.
    """

    def __init__(self, kind: str):
        if kind not in _KIND_DIMS:
            raise ValueError(f"unknown algebra kind {kind!r}")
        self.kind = kind
        self.dim = _KIND_DIMS[kind]
        self.table = _structure_tensor(self.dim)
        self.perm, self.perm_signs = _signed_permutation(self.table)
        signs = -np.ones(self.dim)
        signs[0] = 1.0
        signs.setflags(write=False)
        self.conj_signs = signs

    def __repr__(self) -> str:
        return f"Algebra({self.kind!r})"

    def right_matrices(self, y: np.ndarray) -> np.ndarray:
        """The matrices of right multiplication by y, over leading axes:
        R[..., p, k] = perm_signs[p, k] y[..., perm[p, k]], so that
        (x y)_k = sum_p x_p R[p, k].  Exact: each entry is +-y_q."""
        r = y.reshape(-1, self.dim).take(self.perm.ravel(), axis=1)
        r *= self.perm_signs.ravel()  # in place: no second block-sized array
        return r.reshape(y.shape + (self.dim,))

    def random(self, rng: np.random.Generator, shape=()) -> np.ndarray:
        """Standard Gaussian coefficients, shape ``shape + (dim,)``."""
        return rng.standard_normal(tuple(shape) + (self.dim,))


REAL = Algebra("real")
COMPLEX = Algebra("complex")
QUATERNION = Algebra("quaternion")
OCTONION = Algebra("octonion")

ALGEBRAS = (REAL, COMPLEX, QUATERNION, OCTONION)
_BY_KIND = {a.kind: a for a in ALGEBRAS}


def algebra_by_kind(kind: str) -> Algebra:
    try:
        return _BY_KIND[kind]
    except KeyError:
        raise ValueError(f"unknown algebra kind {kind!r}") from None
