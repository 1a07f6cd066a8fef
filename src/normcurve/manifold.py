"""Engine for submanifolds of R^D cut out by quadratic constraint maps.

A manifold is the zero set, near a base point, of a quadratic map
c: R^D -> R^C given by its coefficients,

    c(x) = const + linear x + x^T quad x   (one row per constraint).

The constraint rows may be redundant, so ranks use a fixed relative cut: a
singular value of the Jacobian at most ``RANK_TOL`` times the largest
counts as zero.  Tangent spaces are the null space of a full SVD of the
Jacobian; every normal-space solve is one least-squares call (LAPACK
gelsd) with the same cut, whose minimum-norm solution lies in the row
space of the Jacobian.  The curvature queries broadcast over stacked
tangent vectors, so all directions at one point share one solve.

The constraint Hessian of a quadratic map is exact and constant, so the
second fundamental form

    II(u, v) = the normal vector w solving  Dc(p) w = -D^2c[u, v]

involves no numerical differentiation.  Geodesics integrate the ODE
gamma'' = II(gamma', gamma') with a classical 4th-order step followed by
re-projection of the position onto the constraint set (Gauss-Newton) and
of the velocity onto the tangent space.  ``integrate_geodesics`` steps
several geodesics in lock step over one zero-padded (K, W) array, one row
each.  The integrator takes only manifolds that carry the sparse structure
constants of a flat Jordan product (``jordan``), as the Veronese varieties
do, and reads two closed forms from them in place of solves: the spray
II(v, v) = 2 sqrt(2) (1 - 2/m) w - 8 p o w with w = v o v, and the tangent
part of v, the Peirce projector 4 (L_P - L_P^2) of the idempotent P.  Each
is one ``np.bincount`` per Jordan product over the constants of every row
at once, so an RK4 step makes no solve.  The curvature queries always
solve, so no claim they measure rests on the formula it would check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .curves import DiscreteCurve, _step_count

__all__ = [
    "ImplicitManifold",
    "JordanConstants",
    "SingularPointError",
    "ProjectionError",
    "tangent_basis",
    "second_fundamental_form",
    "normal_curvature",
    "sectional_curvature",
    "mean_curvature_vector",
    "project_point",
    "project_velocity",
    "integrate_geodesic",
    "integrate_geodesics",
]

RANK_TOL = 1e-8
_SQRT2 = math.sqrt(2.0)


class SingularPointError(RuntimeError):
    """Constraint rank at a point differs from the base-point rank."""


class ProjectionError(RuntimeError):
    """Gauss-Newton projection onto the constraint set failed to converge."""


class JordanConstants(NamedTuple):
    """The nonzero structure constants of a flat Jordan product on m-by-m
    Hermitian matrices: (x o y)[out] is the sum of value * x[left] * y[right].

    The indices address a flattened stack of rows.  A manifold's own
    constants address one row and hold m as a number.  ``integrate_geodesics``
    shifts the k-th row's by k W in a (K, W) stack, holds m as a (K, 1)
    column, and sets ``spray_weight`` to the column 2 sqrt(2) (1 - 2/m),
    the spray's factor of v o v, once per stack rather than per RK4 stage.
    """

    out: np.ndarray
    left: np.ndarray
    right: np.ndarray
    value: np.ndarray
    m: int | np.ndarray
    spray_weight: np.ndarray | None = None


@dataclass(eq=False)  # identity equality: a generated __eq__ would compare arrays
class ImplicitManifold:
    """Submanifold of R^D cut out near ``base_point`` by the quadratic map
    c(x) = const + linear x + x^T quad x.

    ``quad`` has shape (C, D, D), ``linear`` (C, D) and ``const`` (C,).
    ``quad`` is symmetrized once, so ``constraint``, ``jacobian`` and the
    constant ``hessian`` are views of one map and cannot disagree.
    ``intrinsic_dim`` may be omitted, in which case it is inferred from the
    Jacobian rank at the base point.  ``jordan``, when set, holds the
    constants of a flat Jordan product for which every point p makes
    sqrt(2) p + I/m a rank-one idempotent, as on the Veronese varieties.
    The integrator and ``project_velocity`` read it for the closed-form
    spray and tangent projection, and reject a manifold without it.
    """

    quad: np.ndarray
    linear: np.ndarray
    const: np.ndarray
    base_point: np.ndarray
    intrinsic_dim: int | None = None
    name: str = ""
    jordan: JordanConstants | None = None

    def __post_init__(self):
        quad = np.asarray(self.quad, dtype=float)
        self.linear = np.asarray(self.linear, dtype=float)
        self.const = np.asarray(self.const, dtype=float)
        self.base_point = np.asarray(self.base_point, dtype=float)
        c_rows, d = self.linear.shape if self.linear.ndim == 2 else (-1, -1)
        shapes = (quad.shape, self.linear.shape, self.const.shape, self.base_point.shape)
        if shapes != ((c_rows, d, d), (c_rows, d), (c_rows,), (d,)):
            raise ValueError(f"coefficient shapes {shapes} do not fit (C,D,D), (C,D), (C,), (D,)")
        self.quad = 0.5 * (quad + quad.transpose(0, 2, 1))
        self._quad_rows = self.quad.reshape(c_rows * d, d)  # quad y = (quad_rows y) as (C, D)
        # D^2c[u, v] = 2 u^T quad v, laid out [a, (c, b)] for two matrix products
        self._hess_flat = 2.0 * self.quad.transpose(1, 0, 2).reshape(d, c_rows * d)
        residual = np.max(np.abs(self.constraint(self.base_point)))
        if residual > 1e-10:
            raise ValueError(f"base point violates the constraint (residual {residual:.2e})")
        inferred = d - _kernel(self, self.base_point)[0]
        if self.intrinsic_dim is None:
            self.intrinsic_dim = inferred
        elif self.intrinsic_dim != inferred:
            raise ValueError(
                f"declared intrinsic_dim {self.intrinsic_dim} but Jacobian rank "
                f"at the base point gives {inferred}"
            )

    @property
    def ambient_dim(self) -> int:
        return len(self.base_point)

    @property
    def codim(self) -> int:
        return self.ambient_dim - self.intrinsic_dim

    def constraint(self, y: np.ndarray) -> np.ndarray:
        """c(y), shape (C,)."""
        return self.const + (self.linear + (self._quad_rows @ y).reshape(self.linear.shape)) @ y

    def jacobian(self, y: np.ndarray) -> np.ndarray:
        """Dc(y), shape (C, D)."""
        return self.linear + 2.0 * (self._quad_rows @ y).reshape(self.linear.shape)

    def hessian(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        """The constant D^2c[u, v], broadcast over leading axes of u and v."""
        shape = u.shape[:-1] + self.linear.shape
        return ((u @ self._hess_flat).reshape(shape) @ v[..., None])[..., 0]


def _kernel(manifold: ImplicitManifold, p: np.ndarray) -> tuple[int, np.ndarray]:
    """Rank of Dc(p) and an orthonormal basis of its null space, as rows."""
    _, s, vt = np.linalg.svd(manifold.jacobian(p))
    rank = int(np.sum(s > RANK_TOL * np.max(s, initial=0.0)))
    return rank, vt[rank:]


def _check_rank(manifold: ImplicitManifold, rank: int, on_manifold: bool = True) -> None:
    """On the manifold the rank must equal the base-point rank; off it
    (Gauss-Newton iterates) it need only be nonzero."""
    if rank == 0 or (on_manifold and rank != manifold.codim):
        raise SingularPointError(
            f"constraint rank {rank} at the query point differs from "
            f"base-point rank {manifold.codim}"
        )


def _solve(
    manifold: ImplicitManifold, jac: np.ndarray, rhs: np.ndarray, on_manifold: bool = True
) -> np.ndarray:
    """Minimum-norm solution of Dc(p) w = rhs, given jac = Dc(p); lies in its row space."""
    w, _, rank, _ = np.linalg.lstsq(jac, rhs, rcond=RANK_TOL)
    _check_rank(manifold, rank, on_manifold)
    return w


def tangent_basis(manifold: ImplicitManifold, p: np.ndarray) -> np.ndarray:
    """Orthonormal basis of ker Dc(p), shape (intrinsic_dim, D)."""
    rank, basis = _kernel(manifold, np.asarray(p, dtype=float))
    _check_rank(manifold, rank)
    return basis


def second_fundamental_form(
    manifold: ImplicitManifold, p: np.ndarray, u: np.ndarray, v: np.ndarray
) -> np.ndarray:
    """II(u, v) for tangent vectors u, v at p, broadcast over leading axes: one solve."""
    hess = manifold.hessian(np.asarray(u, float), np.asarray(v, float))
    rhs = -hess.reshape(-1, hess.shape[-1]).T
    w = _solve(manifold, manifold.jacobian(np.asarray(p, dtype=float)), rhs)
    return w.T.reshape(hess.shape[:-1] + (manifold.ambient_dim,))


def _check_unit(vectors: np.ndarray, message: str) -> None:
    speed = np.linalg.norm(vectors, axis=-1)
    bad = np.abs(speed - 1.0) > 1e-9
    if np.any(bad):
        raise ValueError(message.format(speed[bad].flat[0]))


def normal_curvature(manifold: ImplicitManifold, p: np.ndarray, u: np.ndarray) -> np.ndarray:
    """|II(u, u)| for unit tangent directions u, stacked along leading axes."""
    u = np.asarray(u, dtype=float)
    _check_unit(u, "direction must be unit (got |u| = {:.12g})")
    return np.linalg.norm(second_fundamental_form(manifold, p, u, u), axis=-1)


def mean_curvature_vector(manifold: ImplicitManifold, p: np.ndarray) -> np.ndarray:
    """Trace of II over an orthonormal tangent basis at p."""
    p = np.asarray(p, dtype=float)
    basis = tangent_basis(manifold, p)
    return _solve(manifold, manifold.jacobian(p), -manifold.hessian(basis, basis).sum(axis=0))


def sectional_curvature(
    manifold: ImplicitManifold, p: np.ndarray, u: np.ndarray, v: np.ndarray
) -> np.ndarray:
    """Gauss-equation curvature <II(u,u), II(v,v)> - |II(u,v)|^2.

    Requires each pair u, v orthonormal and tangent; pairs stack along
    leading axes and share one solve.  The ambient space is flat, so this is
    the intrinsic sectional curvature of the plane span(u, v).
    """
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    _check_unit(np.stack([u, v]), "u and v must be unit vectors")
    if np.any(np.abs(np.einsum("...i,...i->...", u, v)) > 1e-9):
        raise ValueError("u and v must be orthogonal")
    ii = second_fundamental_form(manifold, p, np.stack([u, v, u], -2), np.stack([u, v, v], -2))
    ii_uu, ii_vv, ii_uv = np.moveaxis(ii, -2, 0)
    return np.einsum("...i,...i->...", ii_uu, ii_vv) - np.einsum("...i,...i->...", ii_uv, ii_uv)


def project_point(manifold: ImplicitManifold, p: np.ndarray) -> np.ndarray:
    """Gauss-Newton projection of p onto the constraint set: at most 5 steps,
    stopping once every constraint residual is at most 1e-12."""
    p = np.asarray(p, dtype=float).copy()
    for _ in range(5):
        r = manifold.constraint(p)
        if np.max(np.abs(r)) <= 1e-12:
            return p
        p -= _solve(manifold, manifold.jacobian(p), r, on_manifold=False)
    residual = np.max(np.abs(manifold.constraint(p)))
    if residual > 1e-8:
        raise ProjectionError(f"projection stalled at residual {residual:.2e}")
    return p


def project_velocity(manifold: ImplicitManifold, p: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Project v onto the tangent space at p by the Peirce projector of the
    manifold's Jordan constants and renormalize to unit length.  A manifold
    without Jordan constants is rejected."""
    if manifold.jordan is None:
        raise ValueError(f"manifold {manifold.name!r} has no Jordan constants for the integrator")
    p = np.asarray(p, dtype=float)[None]
    v = np.asarray(v, dtype=float)[None]
    return _unit_rows(_peirce_tangent(manifold.jordan, p, v))[0]


def _jordan_product(jordan: JordanConstants, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """x o y row by row over a (K, W) stack: one bincount over the constants."""
    terms = x.take(jordan.left)
    terms *= jordan.value
    terms *= y.take(jordan.right)
    return np.bincount(jordan.out, terms, minlength=x.size).reshape(x.shape)


def _jordan_spray(jordan: JordanConstants, y: np.ndarray, v: np.ndarray) -> np.ndarray:
    """II(v, v) at P = sqrt(2) y + I/m for each row of a stack: with
    w = v o v, 2 sqrt(2) (w - 2 P o w) = 2 sqrt(2) (1 - 2/m) w - 8 y o w."""
    w = _jordan_product(jordan, v, v)
    return jordan.spray_weight * w - 8.0 * _jordan_product(jordan, y, w)


def _peirce_tangent(jordan: JordanConstants, y: np.ndarray, v: np.ndarray) -> np.ndarray:
    """The tangent part of each row of v at P = sqrt(2) y + I/m.  The tangent
    space at a rank-one P is the Peirce 1/2-space of L_P, so this is
    4 (P o v - P o (P o v)), orthogonal because L_P is self-adjoint for the
    trace form."""
    pv = _SQRT2 * _jordan_product(jordan, y, v) + v / jordan.m
    return 4.0 * (pv - (_SQRT2 * _jordan_product(jordan, y, pv) + pv / jordan.m))


def _unit_rows(t: np.ndarray) -> np.ndarray:
    speed = np.sqrt((t * t).sum(axis=1, keepdims=True))
    if speed.min() == 0.0:
        raise ValueError("velocity projects to zero")
    return t / speed


def _stack_jordan(manifolds, width: int) -> JordanConstants:
    """The rows' Jordan constants shifted to their rows of a (K, width)
    stack, with m and the spray weight as (K, 1) columns."""
    rows = [man.jordan for man in manifolds]
    out, left, right = (
        np.concatenate([getattr(j, name) + k * width for k, j in enumerate(rows)])
        for name in ("out", "left", "right")
    )
    value = np.concatenate([j.value for j in rows])
    m = np.array([[j.m] for j in rows])
    return JordanConstants(out, left, right, value, m, 2.0 * _SQRT2 * (1.0 - 2.0 / m))


def _stack_residual(manifolds, width: int):
    """The function p -> max |c(p_k)| per row of a (K, width) stack, each row
    by its own constraint map, read as a quadratic form in (p, 1): one
    bincount over the nonzero coefficients of every row."""
    one = len(manifolds) * width  # where the 1 is appended to the flattened stack
    height = max(len(man.const) for man in manifolds)
    terms = []  # (out, left, right, value) of each nonzero coefficient
    for k, man in enumerate(manifolds):
        for coeffs in (man.quad, man.linear, man.const):
            index = np.nonzero(coeffs)
            factors = [i + k * width for i in index[1:]]
            factors += [np.full(len(index[0]), one)] * (2 - len(factors))
            terms.append((index[0] + k * height, *factors, coeffs[index]))
    out, left, right, value = map(np.concatenate, zip(*terms))

    def residual(p: np.ndarray) -> np.ndarray:
        flat = np.append(p, 1.0)
        c = np.bincount(out, value * flat.take(left) * flat.take(right), len(manifolds) * height)
        return np.abs(c).reshape(-1, height).max(axis=1)

    return residual


def integrate_geodesics(
    manifolds: list[ImplicitManifold],
    starts: list[np.ndarray],
    directions: list[np.ndarray],
    length: float,
    step: float = 1e-3,
) -> list[DiscreteCurve]:
    """Integrate gamma'' = II(gamma', gamma') for the given arc length on each
    manifold, from its start along its direction, all in lock step.

    Each start is made admissible first: p is projected onto the constraint
    set (``project_point``), and u onto the tangent space there and
    normalized to unit speed (``project_velocity``, which rejects a manifold
    without Jordan constants).  The step count is
    rounded so that the nominal step divides the length exactly.  The
    geodesics advance together as the rows of one zero-padded (K, W) array,
    W the largest ambient dimension, so each Jordan product of an RK4 stage
    is one bincount for all of them.  After each full step one batched
    residual checks every row; a row above 1e-12 goes through
    ``project_point`` (a projection that stalls above 1e-8 raises
    ``ProjectionError``), and every velocity is projected onto its tangent
    space and renormalized.  So the recorded vertices keep constraint
    residuals near 1e-12.

    Vertices sit at equal arc spacing, so chords fall short of the step by
    about step^3 * curvature^2 / 24; each curve's edge tolerance is sized
    from its own measured normal curvature (never below 1e-9).
    """
    if not 0.0 < step < math.inf:
        raise ValueError(f"step = {step!r}: expected a positive finite number")
    if not 0.0 <= length < math.inf:
        raise ValueError(f"length = {length!r}: expected a nonnegative finite number")
    if not 0 < len(manifolds) == len(starts) == len(directions):
        raise ValueError("expected one start and one direction for each of at least one manifold")
    dims = [man.ambient_dim for man in manifolds]
    p = np.zeros((len(manifolds), max(dims)))
    v = np.zeros_like(p)
    for k, (man, start, u) in enumerate(zip(manifolds, starts, directions)):
        p[k, : dims[k]] = project_point(man, start)
        v[k, : dims[k]] = project_velocity(man, p[k, : dims[k]], u)
    if length == 0.0:
        return [DiscreteCurve(p[k : k + 1, :d], nominal_step=step) for k, d in enumerate(dims)]
    nsteps = max(1, _step_count(length, step))
    h = length / nsteps
    jordan = _stack_jordan(manifolds, p.shape[1])
    residual = _stack_residual(manifolds, p.shape[1])
    vertices = np.empty((len(p), nsteps + 1, p.shape[1]))
    vertices[:, 0] = p
    max_accel_sq = np.zeros(len(p))
    for step_index in range(nsteps):
        # classical RK4 on (position, velocity), every row at once
        a1 = _jordan_spray(jordan, p, v)
        max_accel_sq = np.maximum(max_accel_sq, (a1 * a1).sum(axis=1))
        p2 = p + 0.5 * h * v
        v2 = v + 0.5 * h * a1
        a2 = _jordan_spray(jordan, p2, v2)
        p3 = p + 0.5 * h * v2
        v3 = v + 0.5 * h * a2
        a3 = _jordan_spray(jordan, p3, v3)
        p4 = p + h * v3
        v4 = v + h * a3
        a4 = _jordan_spray(jordan, p4, v4)
        p = p + (h / 6.0) * (v + 2.0 * v2 + 2.0 * v3 + v4)
        v = v + (h / 6.0) * (a1 + 2.0 * a2 + 2.0 * a3 + a4)
        worst = residual(p)
        if worst.max() > 1e-12:
            for k in np.flatnonzero(worst > 1e-12):
                p[k, : dims[k]] = project_point(manifolds[k], p[k, : dims[k]])
        v = _unit_rows(_peirce_tangent(jordan, p, v))
        vertices[:, step_index + 1] = p
    return [
        DiscreteCurve(
            vertices[k, :, :d],
            nominal_step=h,
            edge_tol=max(1e-9, h**3 * float(max_accel_sq[k]) / 16.0),
        )
        for k, d in enumerate(dims)
    ]


def integrate_geodesic(
    manifold: ImplicitManifold,
    p: np.ndarray,
    u: np.ndarray,
    length: float,
    step: float = 1e-3,
) -> DiscreteCurve:
    """One geodesic of ``integrate_geodesics``: from p along u for the given
    arc length."""
    return integrate_geodesics([manifold], [p], [u], length, step)[0]
