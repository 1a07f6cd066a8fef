"""Hermitian matrices over R, C, H, O and their flat Euclidean coordinates.

An m-by-m Hermitian matrix over an algebra of real dimension a is stored
as an (m, m, a) coefficient array.  ``flatten`` maps it isometrically to
R^D with D = m + a*m*(m-1)/2: real diagonal entries are copied and each
off-diagonal entry contributes its a coefficients scaled by sqrt(2), so
the Euclidean norm of the flat vector equals the Frobenius norm and the
Euclidean inner product equals the real trace form Re tr(X o Y).

Octonionic Hermitian matrices are restricted to size at most 3 (the
27-dimensional Albert algebra); larger octonionic sizes do not carry a
projective-space structure and are rejected.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .algebra import Algebra

__all__ = [
    "HermitianMatrix",
    "jordan_product",
    "flatten",
    "flatten_entries",
    "unflatten",
    "flat_dim",
    "frobenius_inner",
    "random_hermitian",
]

SQRT2 = math.sqrt(2.0)


class HermitianMatrix:
    """Square matrix over a division algebra with conjugate-symmetric entries."""

    __slots__ = ("algebra", "m", "entries")

    def __init__(self, algebra: Algebra, entries, validate: bool = True):
        entries = np.asarray(entries, dtype=float)
        if entries.ndim != 3 or entries.shape[0] != entries.shape[1]:
            raise ValueError(f"expected (m, m, dim) entries, got shape {entries.shape}")
        if entries.shape[2] != algebra.dim:
            raise ValueError(
                f"entry coefficients have length {entries.shape[2]}, "
                f"expected {algebra.dim} for {algebra.kind}"
            )
        m = entries.shape[0]
        if algebra.kind == "octonion" and m > 3:
            raise ValueError("octonionic Hermitian matrices are limited to size 3")
        if validate:
            conj_t = entries[..., :] * algebra.conj_signs
            if not np.allclose(entries, np.swapaxes(conj_t, 0, 1), rtol=0.0, atol=1e-9):
                raise ValueError("entries are not conjugate-symmetric")
            diag_imag = entries[np.arange(m), np.arange(m), 1:]
            if diag_imag.size and np.max(np.abs(diag_imag)) > 1e-9:
                raise ValueError("diagonal entries must be real")
        self.algebra = algebra
        self.m = m
        self.entries = entries

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, algebra: Algebra, m: int) -> "HermitianMatrix":
        return cls(algebra, np.zeros((m, m, algebra.dim)), validate=False)

    @classmethod
    def identity(cls, algebra: Algebra, m: int) -> "HermitianMatrix":
        e = np.zeros((m, m, algebra.dim))
        e[np.arange(m), np.arange(m), 0] = 1.0
        return cls(algebra, e, validate=False)

    @classmethod
    def outer(cls, algebra: Algebra, v) -> "HermitianMatrix":
        """Rank-one matrix with entries v_i * conj(v_j) for a vector v in A^m."""
        v = np.asarray(v, dtype=float)
        if v.ndim != 2 or v.shape[1] != algebra.dim:
            raise ValueError(f"expected (m, dim) vector, got shape {v.shape}")
        vc = v * algebra.conj_signs
        entries = np.einsum("pqk,ip,jq->ijk", algebra.table, v, vc)
        return cls(algebra, entries, validate=False)

    # -- basic structure ---------------------------------------------------

    def trace(self) -> float:
        m = self.m
        return float(np.sum(self.entries[np.arange(m), np.arange(m), 0]))

    def frobenius_norm(self) -> float:
        return float(np.linalg.norm(self.entries))

    def matmul(self, other: "HermitianMatrix") -> np.ndarray:
        """Raw (generally non-Hermitian) matrix product, as an entries array."""
        self._check_compatible(other)
        return np.einsum(
            "pqk,ijp,jlq->ilk", self.algebra.table, self.entries, other.entries,
            optimize=True,
        )

    def _check_compatible(self, other: "HermitianMatrix") -> None:
        if self.algebra is not other.algebra:
            raise ValueError(
                f"algebra mismatch: {self.algebra.kind} vs {other.algebra.kind}"
            )
        if self.m != other.m:
            raise ValueError(f"size mismatch: {self.m} vs {other.m}")

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: "HermitianMatrix") -> "HermitianMatrix":
        self._check_compatible(other)
        return HermitianMatrix(self.algebra, self.entries + other.entries, validate=False)

    def __sub__(self, other: "HermitianMatrix") -> "HermitianMatrix":
        self._check_compatible(other)
        return HermitianMatrix(self.algebra, self.entries - other.entries, validate=False)

    def __mul__(self, scalar) -> "HermitianMatrix":
        return HermitianMatrix(self.algebra, self.entries * float(scalar), validate=False)

    __rmul__ = __mul__

    def allclose(self, other: "HermitianMatrix", atol: float = 1e-12) -> bool:
        self._check_compatible(other)
        return bool(np.allclose(self.entries, other.entries, rtol=0.0, atol=atol))

    def __repr__(self) -> str:
        return f"HermitianMatrix({self.algebra.kind}, m={self.m})"


def jordan_product(x: HermitianMatrix, y: HermitianMatrix) -> HermitianMatrix:
    """Symmetrized product (XY + YX)/2; keeps Hermitian matrices Hermitian."""
    x._check_compatible(y)
    e = 0.5 * (x.matmul(y) + y.matmul(x))
    return HermitianMatrix(x.algebra, e, validate=False)


def flat_dim(algebra: Algebra, m: int) -> int:
    """Dimension m + a*m*(m-1)/2 of the flat coordinate space."""
    return m + algebra.dim * (m * (m - 1) // 2)


def flatten(x: HermitianMatrix) -> np.ndarray:
    """Linear isometry onto R^D: diagonal, then sqrt(2)-scaled upper entries.

    Off-diagonal entries are taken row-major over pairs i < j, each
    contributing its full coefficient block.
    """
    return flatten_entries(x.entries)


@lru_cache(maxsize=None)
def _flat_index(m: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Diagonal positions and the pairs i < j, row-major, of an m-by-m matrix."""
    index = (np.arange(m), *np.triu_indices(m, k=1))
    for a in index:
        a.setflags(write=False)
    return index


def flatten_entries(entries: np.ndarray) -> np.ndarray:
    """``flatten`` of an (..., m, m, dim) entries array, over its leading axes."""
    ii, iu, ju = _flat_index(entries.shape[-2])
    diag = entries[..., ii, ii, 0]
    off = SQRT2 * entries[..., iu, ju, :]
    return np.concatenate([diag, off.reshape(off.shape[:-2] + (-1,))], axis=-1)


def unflatten(vec, algebra: Algebra, m: int) -> HermitianMatrix:
    """Inverse of ``flatten``; raises on length mismatch."""
    vec = np.asarray(vec, dtype=float)
    d = flat_dim(algebra, m)
    if vec.shape != (d,):
        raise ValueError(f"expected flat vector of length {d}, got shape {vec.shape}")
    entries = np.zeros((m, m, algebra.dim))
    ii, iu, ju = _flat_index(m)
    entries[ii, ii, 0] = vec[:m]
    off = vec[m:].reshape(len(iu), algebra.dim) / SQRT2
    entries[iu, ju] = off
    entries[ju, iu] = off * algebra.conj_signs
    return HermitianMatrix(algebra, entries, validate=False)


def frobenius_inner(x: HermitianMatrix, y: HermitianMatrix) -> float:
    """Real trace form Re tr(X o Y); equals the flat Euclidean inner product."""
    x._check_compatible(y)
    return float(np.sum(x.entries * y.entries))


def random_hermitian(algebra: Algebra, m: int, rng: np.random.Generator) -> HermitianMatrix:
    """Gaussian Hermitian matrix (GOE-style symmetrization)."""
    raw = algebra.random(rng, (m, m))
    conj_t = np.swapaxes(raw * algebra.conj_signs, 0, 1)
    entries = 0.5 * (raw + conj_t)
    return HermitianMatrix(algebra, entries, validate=False)
