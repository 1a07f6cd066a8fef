"""Generic engine for submanifolds of R^D given by smooth constraint maps.

A manifold is the zero set of a constraint map c: R^D -> R^C near a base
point.  The constraint rows may be redundant, so ranks use a fixed
relative cut: a singular value of the Jacobian at most ``RANK_TOL`` times
the largest counts as zero.  Tangent spaces are the null space of a full
SVD of the Jacobian; every normal-space solve is one least-squares call
(LAPACK gelsd) with the same cut, whose minimum-norm solution lies in the
row space of the Jacobian.  The curvature queries broadcast over stacked
tangent vectors, so all directions at one point share one solve.

For the quadratic varieties used in this package the constraint Hessian
is exact and constant, so the second fundamental form

    II(u, v) = the normal vector w solving  Dc(p) w = -D^2c[u, v]

involves no numerical differentiation.  Geodesics integrate the ODE
gamma'' = II(gamma', gamma') with a classical 4th-order step followed by
re-projection of the position onto the constraint set (Gauss-Newton) and
of the velocity onto the tangent space.  The acceleration is a manifold's
closed-form ``spray`` (p, v) -> II(v, v) if it has one, 2 sqrt(2) (1 - 2/m) w
- 8 p o w with w = v o v on the Veronese varieties; the curvature queries
always solve, so no claim they measure rests on the formula it would check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .curves import DiscreteCurve

__all__ = [
    "ImplicitManifold",
    "GeodesicState",
    "SingularPointError",
    "ProjectionError",
    "tangent_basis",
    "second_fundamental_form",
    "normal_curvature",
    "sectional_curvature",
    "mean_curvature_vector",
    "project_point",
    "project_velocity",
    "geodesic_state",
    "integrate_geodesic",
]

RANK_TOL = 1e-8


class SingularPointError(RuntimeError):
    """Constraint rank at a point differs from the base-point rank."""


class ProjectionError(RuntimeError):
    """Gauss-Newton projection onto the constraint set failed to converge."""


@dataclass
class ImplicitManifold:
    """Submanifold of R^D cut out by ``constraint`` near ``base_point``.

    ``hessian`` is the constant bilinear map (u, v) -> D^2c[u, v]; it is
    exact for quadratic constraints and broadcasts over leading axes of u
    and v.  ``intrinsic_dim`` may be omitted, in which case it is inferred
    from the Jacobian rank at the base point.  ``spray``, when set, returns
    the geodesic acceleration II(v, v) for a tangent v at p in closed form.
    """

    ambient_dim: int
    constraint: Callable[[np.ndarray], np.ndarray]
    jacobian: Callable[[np.ndarray], np.ndarray]
    hessian: Callable[[np.ndarray, np.ndarray], np.ndarray]
    base_point: np.ndarray
    intrinsic_dim: int | None = None
    name: str = ""
    spray: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None

    def __post_init__(self):
        self.base_point = np.asarray(self.base_point, dtype=float)
        if self.base_point.shape != (self.ambient_dim,):
            raise ValueError("base_point shape does not match ambient_dim")
        residual = np.max(np.abs(self.constraint(self.base_point)))
        if residual > 1e-10:
            raise ValueError(f"base point violates the constraint (residual {residual:.2e})")
        rank = _kernel(self, self.base_point)[0]
        inferred = self.ambient_dim - rank
        if self.intrinsic_dim is None:
            self.intrinsic_dim = inferred
        elif self.intrinsic_dim != inferred:
            raise ValueError(
                f"declared intrinsic_dim {self.intrinsic_dim} but Jacobian rank "
                f"at the base point gives {inferred}"
            )

    @property
    def codim(self) -> int:
        return self.ambient_dim - self.intrinsic_dim


@dataclass
class GeodesicState:
    """Position and unit velocity on a geodesic."""

    position: np.ndarray
    velocity: np.ndarray

    def __post_init__(self):
        self.position = np.asarray(self.position, dtype=float)
        self.velocity = np.asarray(self.velocity, dtype=float)
        speed = np.linalg.norm(self.velocity)
        if abs(speed - 1.0) > 1e-9:
            raise ValueError(f"velocity must be unit (got |v| = {speed:.12g})")


def _kernel(manifold: ImplicitManifold, p: np.ndarray) -> tuple[int, np.ndarray]:
    """Rank of Dc(p) and an orthonormal basis of its null space, as rows."""
    _, s, vt = np.linalg.svd(manifold.jacobian(p))
    rank = int(np.sum(s > RANK_TOL * np.max(s, initial=0.0)))
    return rank, vt[rank:]


def _solve(
    manifold: ImplicitManifold, jac: np.ndarray, rhs: np.ndarray, on_manifold: bool = True
) -> np.ndarray:
    """Minimum-norm solution of Dc(p) w = rhs, given jac = Dc(p); lies in its row space.

    On the manifold the rank must equal the base-point rank; off it (Newton
    and RK4 stage points) it need only be nonzero.
    """
    w, _, rank, _ = np.linalg.lstsq(jac, rhs, rcond=RANK_TOL)
    if rank == 0 or (on_manifold and rank != manifold.codim):
        raise SingularPointError(
            f"constraint rank {rank} at the query point differs from "
            f"base-point rank {manifold.codim}"
        )
    return w


def tangent_basis(manifold: ImplicitManifold, p: np.ndarray) -> np.ndarray:
    """Orthonormal basis of ker Dc(p), shape (intrinsic_dim, D)."""
    rank, basis = _kernel(manifold, np.asarray(p, dtype=float))
    if rank != manifold.codim:
        raise SingularPointError(
            f"constraint rank {rank} at the query point differs from "
            f"base-point rank {manifold.codim}"
        )
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
    """Project v onto the tangent space at p and renormalize to unit length."""
    v = np.asarray(v, dtype=float)
    jac = manifold.jacobian(p)
    v = v - _solve(manifold, jac, jac @ v)
    speed = np.linalg.norm(v)
    if speed == 0.0:
        raise ValueError("velocity projects to zero")
    return v / speed


def geodesic_state(manifold: ImplicitManifold, p: np.ndarray, u: np.ndarray) -> GeodesicState:
    """Admissible initial state: p projected onto M, u projected and normalized."""
    p = project_point(manifold, p)
    u = project_velocity(manifold, p, u)
    return GeodesicState(position=p, velocity=u)


def _acceleration(manifold: ImplicitManifold, p: np.ndarray, v: np.ndarray) -> np.ndarray:
    if manifold.spray is not None:
        return manifold.spray(p, v)
    return _solve(manifold, manifold.jacobian(p), -manifold.hessian(v, v), on_manifold=False)


def integrate_geodesic(
    manifold: ImplicitManifold,
    state: GeodesicState,
    length: float,
    step: float = 1e-3,
) -> DiscreteCurve:
    """Integrate gamma'' = II(gamma', gamma') for the given arc length.

    The step count is rounded so that the nominal step divides the length
    exactly.  After each full step the position is re-projected onto the
    constraint set and the velocity onto the tangent space (renormalized),
    so the recorded vertices keep constraint residuals near 1e-12 (a
    projection that stalls above 1e-8 raises ``ProjectionError``).

    Vertices sit at equal arc spacing, so chords fall short of the step by
    about step^3 * curvature^2 / 24; the returned curve's edge tolerance is
    sized from the measured normal curvature (never below 1e-9).
    """
    if not 0.0 < step < math.inf:
        raise ValueError(f"step = {step!r}: expected a positive finite number")
    if not 0.0 <= length < math.inf:
        raise ValueError(f"length = {length!r}: expected a nonnegative finite number")
    p = np.asarray(state.position, dtype=float).copy()
    v = np.asarray(state.velocity, dtype=float).copy()
    if length == 0.0:
        return DiscreteCurve(np.asarray([p]), nominal_step=step)
    nsteps = max(1, int(round(length / step)))
    h = length / nsteps
    vertices = np.empty((nsteps + 1, manifold.ambient_dim))
    vertices[0] = p
    max_accel = 0.0
    for k in range(nsteps):
        # classical RK4 on (position, velocity)
        a1 = _acceleration(manifold, p, v)
        max_accel = max(max_accel, float(np.linalg.norm(a1)))
        p2 = p + 0.5 * h * v
        v2 = v + 0.5 * h * a1
        a2 = _acceleration(manifold, p2, v2)
        p3 = p + 0.5 * h * v2
        v3 = v + 0.5 * h * a2
        a3 = _acceleration(manifold, p3, v3)
        p4 = p + h * v3
        v4 = v + h * a3
        a4 = _acceleration(manifold, p4, v4)
        p = p + (h / 6.0) * (v + 2.0 * v2 + 2.0 * v3 + v4)
        v = v + (h / 6.0) * (a1 + 2.0 * a2 + 2.0 * a3 + a4)
        p = project_point(manifold, p)
        v = project_velocity(manifold, p, v)
        vertices[k + 1] = p
    return DiscreteCurve(vertices, nominal_step=h, edge_tol=max(1e-9, h**3 * max_accel**2 / 16.0))
