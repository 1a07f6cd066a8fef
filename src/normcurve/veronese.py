"""Scaled Veronese embeddings of projective spaces over R, C, H, O.

A projective point with unit homogeneous representative v in A^m
(m = n + 1) maps to the flat coordinates of

    X = (v v* - I/m) / sqrt(2),

the centered, rescaled rank-one projection.  With this normalization the
image lies on the sphere of radius r_n = sqrt(n / (2n + 2)), geodesics
are unit-speed planar circles of radius 1/2 that close after length pi,
and the chordal distance between two points equals sin(theta) for
intrinsic distance theta in [0, pi/2].

A Hermitian m-by-m matrix over an algebra of real dimension a is held as
an (..., m, m, a) array of entry coefficients.  ``flatten_entries`` maps
it isometrically to R^D with D = m + a*m*(m-1)/2: real diagonal entries
are copied and each off-diagonal entry above the diagonal contributes its
a coefficients scaled by sqrt(2), so the Euclidean norm of the flat
vector equals the Frobenius norm and the Euclidean inner product equals
the real trace form Re tr(X o Y).  ``unflatten`` is its inverse.

Octonionic projective points exist only for m = 3 (the Albert algebra),
and a homogeneous vector is admissible only when its entries generate an
associative subalgebra -- e.g. when one entry is real, which covers all
of OP^2 chart by chart.  Admissibility is enforced by checking the
idempotency of the resulting matrix, which is exactly what fails for an
inadmissible representative.

``variety`` builds the quadratic constraint presentation

    {X o X = X, tr X = 1}   (in centered, scaled coordinates)

as an ImplicitManifold given by its coefficient tensors, which is how points,
tangents, curvatures, and geodesics are computed uniformly over all four
algebras, including the nonassociative one.  The variety also carries the
sparse structure constants of the flat Jordan product, read from the same
tensors, on which the geodesic integrator steps without a solve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .algebra import Algebra, algebra_by_kind
from .manifold import ImplicitManifold, JordanConstants

__all__ = [
    "VeroneseSpace",
    "space",
    "space_from_name",
    "standard_planes",
    "point_from_homogeneous",
    "base_point",
    "random_homogeneous",
    "sample_points",
    "chordal_distance",
    "simplex_circumradius",
    "variety",
    "flatten_entries",
    "unflatten",
]

SQRT2 = math.sqrt(2.0)


@dataclass(frozen=True)
class VeroneseSpace:
    """Projective space KP^n with its centered, rescaled projection model."""

    algebra: Algebra
    n: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("projective dimension must be at least 1")
        if self.algebra.kind == "octonion" and self.n != 2:
            raise ValueError("the octonionic projective space exists only for n = 2")

    @property
    def m(self) -> int:
        return self.n + 1

    @property
    def sphere_radius(self) -> float:
        return math.sqrt(self.n / (2.0 * self.n + 2.0))

    @property
    def flat_dim(self) -> int:
        return self.m + self.algebra.dim * (self.m * (self.m - 1) // 2)

    @property
    def intrinsic_dim(self) -> int:
        return self.n * self.algebra.dim

    @property
    def name(self) -> str:
        letter = {"real": "R", "complex": "C", "quaternion": "H", "octonion": "O"}
        return f"{letter[self.algebra.kind]}P{self.n}"


_KIND_FROM_LETTER = {"r": "real", "c": "complex", "h": "quaternion", "o": "octonion"}


def space(kind: str, n: int) -> VeroneseSpace:
    return VeroneseSpace(algebra_by_kind(kind), n)


def space_from_name(name: str) -> VeroneseSpace:
    """Parse names like 'rp2', 'CP3', 'op2'."""
    label = name.strip().lower()
    if (
        len(label) < 3
        or label[1] != "p"
        or label[0] not in _KIND_FROM_LETTER
        or not label[2:].isdecimal()
    ):
        raise ValueError(f"unrecognized space name {name!r}")
    return space(_KIND_FROM_LETTER[label[0]], int(label[2:]))


def standard_planes() -> tuple[VeroneseSpace, ...]:
    """The four projective planes RP2, CP2, HP2, OP2."""
    return tuple(space(kind, 2) for kind in ("real", "complex", "quaternion", "octonion"))


# -- flat coordinates --------------------------------------------------------


@lru_cache(maxsize=None)
def _flat_index(m: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Diagonal positions and the pairs i < j, row-major, of an m-by-m matrix."""
    index = (np.arange(m), *np.triu_indices(m, k=1))
    for a in index:
        a.setflags(write=False)
    return index


def flatten_entries(entries: np.ndarray) -> np.ndarray:
    """Flat coordinates of (..., m, m, dim) Hermitian entries: the diagonal,
    then the sqrt(2)-scaled entries above it, row-major over pairs i < j."""
    ii, iu, ju = _flat_index(entries.shape[-2])
    diag = entries[..., ii, ii, 0]
    off = SQRT2 * entries[..., iu, ju, :]
    return np.concatenate([diag, off.reshape(off.shape[:-2] + (-1,))], axis=-1)


def unflatten(vecs, algebra: Algebra, m: int) -> np.ndarray:
    """Inverse of ``flatten_entries``: (..., D) -> (..., m, m, dim) entries."""
    vecs = np.asarray(vecs, dtype=float)
    ii, iu, ju = _flat_index(m)
    d = m + algebra.dim * len(iu)
    if vecs.shape[-1:] != (d,):
        raise ValueError(f"expected flat vectors of length {d}, got shape {vecs.shape}")
    lead = vecs.shape[:-1]
    entries = np.zeros(lead + (m, m, algebra.dim))
    entries[..., ii, ii, 0] = vecs[..., :m]
    off = vecs[..., m:].reshape(lead + (len(iu), algebra.dim)) / SQRT2
    entries[..., iu, ju, :] = off
    entries[..., ju, iu, :] = off * algebra.conj_signs
    return entries


# -- homogeneous vectors -----------------------------------------------------


def _coerce_vector(spc: VeroneseSpace, v) -> np.ndarray:
    v = np.asarray(v, dtype=float)
    if v.shape != (spc.m, spc.algebra.dim):
        raise ValueError(
            f"expected homogeneous vector of shape ({spc.m}, {spc.algebra.dim}), "
            f"got {v.shape}"
        )
    return v


def _flat_points(spc: VeroneseSpace, vs: np.ndarray) -> np.ndarray:
    """Flat coordinates of the centered, rescaled projections of a batch of
    unit homogeneous vectors, shape (k, m, dim) -> (k, flat_dim)."""
    alg = spc.algebra
    bad = [x for x in np.linalg.norm(vs.reshape(len(vs), -1), axis=1) if abs(x - 1.0) > 1e-9]
    if bad:
        raise ValueError(f"homogeneous representative must be unit (got |v| = {bad[0]:.12g})")
    proj = np.einsum("pqk,nip,njq->nijk", alg.table, vs, vs * alg.conj_signs)
    if alg.kind == "octonion":
        pairs = np.einsum("nijp,njlq->nilpq", proj, proj).reshape(proj.shape[:3] + (-1,))
        square = pairs @ alg.table.reshape(-1, alg.dim)  # P P, P o P for P = v v*
        drift = np.max(np.linalg.norm((square - proj).reshape(len(vs), -1), axis=1))
        if drift > 1e-10:
            raise ValueError(
                "invalid octonionic representative: entries do not generate "
                f"an associative subalgebra (idempotency defect {drift:.2e})"
            )
    proj[:, np.arange(spc.m), np.arange(spc.m), 0] -= 1.0 / spc.m
    return flatten_entries(proj * (1.0 / SQRT2))


def point_from_homogeneous(spc: VeroneseSpace, v) -> np.ndarray:
    """Flat coordinates of the centered, rescaled projection of v."""
    return _flat_points(spc, _coerce_vector(spc, v)[None])[0]


def base_point(spc: VeroneseSpace) -> np.ndarray:
    """Image of the first coordinate axis (the projection diag(1, 0, ..., 0))."""
    e1 = np.zeros((spc.m, spc.algebra.dim))
    e1[0, 0] = 1.0
    return point_from_homogeneous(spc, e1)


def random_homogeneous(spc: VeroneseSpace, rng: np.random.Generator) -> np.ndarray:
    """Random unit representative; for O, one random entry is kept real."""
    alg = spc.algebra
    v = alg.random(rng, (spc.m,))
    if alg.kind == "octonion":
        pos = int(rng.integers(spc.m))
        v[pos, 1:] = 0.0
        while abs(v[pos, 0]) < 0.1:
            v[pos, 0] = rng.standard_normal()
    return v / np.linalg.norm(v)


# Frames per block in ``sample_points``.  A block of k frames holds m k
# vectors, and flattening them builds their (m k, m, m, dim) projections
# and, on OP2, an (m k, m, m, dim^2) idempotency check: near 1 MB at 64
# frames, where one block for a whole 1000-point OP2 cloud raised the
# benchmark's peak RSS by 12%.
_FRAME_BLOCK = 64


def _frame_norms(vs: np.ndarray) -> np.ndarray:
    """The norm of each (m, dim) vector in vs, bit for bit that of
    ``np.linalg.norm`` on one vector (a dot product each): Gram-Schmidt
    amplifies a last-bit difference by the cancellation in each step."""
    flat = vs.reshape(len(vs), 1, -1)
    return np.sqrt(flat @ flat.transpose(0, 2, 1)).reshape(len(vs))


def _random_frames(spc: VeroneseSpace, count: int, rng: np.random.Generator) -> np.ndarray:
    """``count`` orthonormal frames (m unit vectors, pairwise Hermitian-
    orthogonal), shape (count, m, m, dim).

    Gram-Schmidt over the algebra, all frames at once.  The draws are those
    of drawing the frames one by one: per frame, a unit vector from
    ``random_homogeneous``, then m - 1 Gaussian vectors.  For the octonions
    the first vector has a real entry and the completion uses standard basis
    columns instead, so every product stays inside the associative
    subalgebra generated by the two non-real entries and the resulting
    projections are exact idempotents.
    """
    alg = spc.algebra
    m = spc.m
    if alg.kind == "octonion":
        cols = np.zeros((count, m, m, alg.dim))
        for frame in cols:
            frame[0] = random_homogeneous(spc, rng)
            anchor = int(np.argmax(np.linalg.norm(frame[0], axis=1)))
            frame[np.arange(1, m), np.delete(np.arange(m), anchor), 0] = 1.0
    else:
        cols = alg.random(rng, (count, m, m))
        cols[:, 0] /= _frame_norms(cols[:, 0])[:, None, None]

    frames = np.empty_like(cols)
    for j in range(m):
        w = cols[:, j]
        for i in range(j):
            coeff = np.einsum("pqk,fip,fiq->fk", alg.table, frames[:, i] * alg.conj_signs, w)
            w = w - np.einsum("pqk,fip,fq->fik", alg.table, frames[:, i], coeff)
        norm = _frame_norms(w)
        if np.any(norm < 1e-8):
            raise RuntimeError("degenerate frame draw")
        frames[:, j] = w / norm[:, None, None]
    return frames


def sample_points(spc: VeroneseSpace, count: int, rng: np.random.Generator) -> np.ndarray:
    """Sample points as complete orthonormal frames.

    Each frame contributes m projections summing to the identity, so the
    centered images of a full frame sum to zero; the returned array holds
    the first ``count`` points, frame by frame.
    """
    frames = -(-count // spc.m)
    points = np.empty((frames * spc.m, spc.flat_dim))
    for start in range(0, frames, _FRAME_BLOCK):
        block = _random_frames(spc, min(_FRAME_BLOCK, frames - start), rng)
        vectors = block.reshape(-1, spc.m, spc.algebra.dim)
        points[start * spc.m : start * spc.m + len(vectors)] = _flat_points(spc, vectors)
    return points[:count]


# -- distances ---------------------------------------------------------------


def chordal_distance(spc: VeroneseSpace, p, q) -> float:
    """Euclidean distance between embedded points; equals sin of the
    intrinsic distance."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if p.shape != (spc.flat_dim,) or q.shape != (spc.flat_dim,):
        raise ValueError("points do not match the space's flat dimension")
    return float(np.linalg.norm(p - q))


def simplex_circumradius(k: int, edge: float) -> float:
    """Circumradius of k points pairwise at distance ``edge`` (a regular
    (k-1)-simplex): edge * sqrt((k-1) / (2k))."""
    if k < 2:
        raise ValueError("need at least two points")
    if edge <= 0.0:
        raise ValueError("edge must be positive")
    return edge * math.sqrt((k - 1) / (2.0 * k))


# -- implicit variety --------------------------------------------------------


@lru_cache(maxsize=None)
def _variety_tensors(kind: str, n: int):
    spc = space(kind, n)
    alg = spc.algebra
    m = spc.m
    d = spc.flat_dim
    c_rows = d + 1

    basis = unflatten(np.eye(d), alg, m)
    prod = np.einsum("pqk,aijp,bjlq->abilk", alg.table, basis, basis, optimize=True)
    sym = 0.5 * (prod + prod.transpose(1, 0, 2, 3, 4))  # jordan products of basis pairs

    q_flat = flatten_entries(sym)  # (d, d, d): q_flat[a, b] = flat(E_a o E_b)

    quad = np.zeros((c_rows, d, d))
    quad[:d] = 2.0 * np.moveaxis(q_flat, 2, 0)

    identity_flat = np.zeros(d)
    identity_flat[:m] = 1.0
    linear = np.zeros((c_rows, d))
    linear[:d] = SQRT2 * (2.0 / m - 1.0) * np.eye(d)
    linear[d] = SQRT2 * identity_flat

    const = np.zeros(c_rows)
    const[:d] = (1.0 / m**2 - 1.0 / m) * identity_flat

    quad.setflags(write=False)
    linear.setflags(write=False)
    const.setflags(write=False)
    return quad, linear, const


def variety(spc: VeroneseSpace) -> ImplicitManifold:
    """The scaled projection variety {X o X = X, tr X = 1} as an implicit
    manifold in flat coordinates.

    The constraint is quadratic: its coefficient tensors are precomputed
    once per space and passed to the engine as they are.  Its first D rows
    are 2 X o X, so the nonzero entries of quad[:D] / 2 are the structure
    constants of the flat Jordan product, (u o v)_c = sum J[c, a, b] u_a v_b:
    27, 63, 171 and 531 of them on RP2 ... OP2.  They go to the engine as
    its ``jordan`` constants, with m, for the closed-form spray and Peirce
    tangent projection of the integrator; the curvature queries solve.
    """
    quad, linear, const = _variety_tensors(spc.algebra.kind, spc.n)
    jordan = quad[: spc.flat_dim] / 2.0
    index = np.nonzero(jordan)
    return ImplicitManifold(
        quad,
        linear,
        const,
        base_point(spc),
        intrinsic_dim=spc.intrinsic_dim,
        name=spc.name,
        jordan=JordanConstants(*index, jordan[index], spc.m),
    )
