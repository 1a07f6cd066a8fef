"""The four normed division algebras over the reals: R, C, H, and O.

Elements are coefficient vectors in the fixed basis (1, e1, ..., e_{d-1})
with d in {1, 2, 4, 8}.  Products come from a dense structure-constant
tensor built once per algebra by Cayley-Dickson doubling with the
convention

    (a, b) * (c, d) = (a*c - conj(d)*b,  d*a + b*conj(c)),

which reproduces the standard quaternion table (i*j = k) and yields the
octonions as pairs of quaternions.  Callers contract ``table`` with
arrays whose trailing axis holds the coefficients, and conjugate by
multiplying with ``conj_signs``.
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
        signs = -np.ones(self.dim)
        signs[0] = 1.0
        signs.setflags(write=False)
        self.conj_signs = signs

    def __repr__(self) -> str:
        return f"Algebra({self.kind!r})"

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
