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

involves no numerical differentiation.  Geodesics solve the ODE
gamma'' = II(gamma', gamma') by its Taylor series.  The integrator takes
only manifolds that carry the sparse structure constants of a flat Jordan
product (``jordan``), as the Veronese varieties do, and reads two closed
forms from them in place of solves: the spray II(v, v) = 2 sqrt(2) (1 -
2/m) w - 8 p o w with w = v o v, a polynomial in (p, v) whose Taylor
coefficients follow exactly from Cauchy products (Moore, 1966; Jorba and
Zou, 2005), and the Peirce projector 4 (L_P - L_P^2) of the idempotent P,
which admits each start's velocity.  ``integrate_geodesics`` advances
several geodesics in lock step, one row each of a zero-padded (K, W)
array, in segments of at most pi/4 with the series to order 30, whose
truncation (near 3e-27) is far below rounding; nothing is projected after
the starts.  Each Jordan product gathers its terms over the constants of
every row at once and sums them by one ``np.bincount``.  The curvature
queries always solve, so no claim they measure rests on the formula it
would check.
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

# Geodesics of the Veronese varieties are circles of curvature 2, so for
# k >= 1 the k-th Taylor coefficient of a unit-speed one has norm
# 2^k / k! / 2.  On a segment of length pi/4 the series to order 30
# therefore leaves out terms below (pi/2)^30 / 30! ~ 3e-27, far under the
# rounding of a coordinate.
SEGMENT = math.pi / 4
TAYLOR_ORDER = 30
# Segments run one after another, up to a millisecond each: a longer
# geodesic is refused rather than left to run for minutes.
MAX_SEGMENTS = 100_000


class SingularPointError(RuntimeError):
    """Constraint rank at a point differs from the base-point rank."""


class ProjectionError(RuntimeError):
    """Gauss-Newton projection onto the constraint set failed to converge."""


class JordanConstants(NamedTuple):
    """The nonzero structure constants of a flat Jordan product on m-by-m
    Hermitian matrices: (x o y)[out] is the sum of value * x[left] * y[right].

    The indices address a flattened stack of rows.  A manifold's own
    constants address one row and hold m as a number.  ``integrate_geodesics``
    shifts the k-th row's by k W in a (K, W) stack and, once per call,
    precomputes what the Taylor recursion reads: m as a (K, 1) column,
    ``spray_weight`` as the column 2 sqrt(2) (1 - 2/m), the factor of
    v o v, and ``spray_value`` as -8 value, the constants of -8 y o w.
    """

    out: np.ndarray
    left: np.ndarray
    right: np.ndarray
    value: np.ndarray
    m: int | np.ndarray
    spray_weight: np.ndarray | None = None
    spray_value: np.ndarray | None = None


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
    t = _peirce_tangent(manifold.jordan, p, np.asarray(v, dtype=float)[None])[0]
    speed = np.sqrt((t * t).sum())
    if speed == 0.0:
        raise ValueError("velocity projects to zero")
    return t / speed


def _contract(jordan: JordanConstants, terms: np.ndarray, y: np.ndarray) -> np.ndarray:
    """x o y row by row over a (K, W) stack, given the terms x[left] value:
    each term times y[right], summed into its output by one bincount."""
    terms = terms * y.take(jordan.right)
    return np.bincount(jordan.out, terms, minlength=y.size).reshape(y.shape)


def _taylor_coefficients(jordan: JordanConstants, y: np.ndarray, v: np.ndarray) -> np.ndarray:
    """The Taylor coefficients y_0 ... y_N, N = ``TAYLOR_ORDER``, of the
    geodesic through y with velocity v, for each row of a (K, W) stack.  The
    spray II(v, v) at P = sqrt(2) y + I/m is 2 sqrt(2) (w - 2 P o w) =
    c_m w - 8 y o w with w = v o v and c_m = 2 sqrt(2) (1 - 2/m), so with
    v_k = (k + 1) y_{k+1} the Cauchy products

        w_k = sum_{i+j=k} v_i o v_j,
        y_{k+2} = (c_m w_k - 8 sum_{i+j=k} y_i o w_j) / ((k + 1) (k + 2))

    give every coefficient exactly.  Each coefficient's terms are gathered
    once; the pairs of one order are one ``einsum`` and one bincount."""
    order, size, count = TAYLOR_ORDER, y.size, len(jordan.out)
    coeffs = np.empty((order + 1,) + y.shape)
    coeffs[0], coeffs[1] = y, v
    v_left, v_right, y_left, w_right = np.empty((4, order - 1, count))
    for k in range(order - 1):
        v_k = (k + 1) * coeffs[k + 1]
        np.multiply(v_k.take(jordan.left), jordan.value, out=v_left[k])
        v_k.take(jordan.right, out=v_right[k])
        terms = np.einsum("it,it->t", v_left[: k + 1], v_right[k::-1])
        w_k = np.bincount(jordan.out, terms, minlength=size)
        w_k.take(jordan.right, out=w_right[k])
        np.multiply(coeffs[k].take(jordan.left), jordan.spray_value, out=y_left[k])
        terms = np.einsum("it,it->t", y_left[: k + 1], w_right[k::-1])
        y_w = np.bincount(jordan.out, terms, minlength=size).reshape(y.shape)
        coeffs[k + 2] = (jordan.spray_weight * w_k.reshape(y.shape) + y_w) / ((k + 1) * (k + 2))
    return coeffs


def _horner(coeffs: np.ndarray, t, out: np.ndarray) -> np.ndarray:
    """sum_k coeffs[k] t^k into ``out`` by Horner's rule, in place."""
    out[...] = coeffs[-1]
    for c in coeffs[-2::-1]:
        out *= t
        out += c
    return out


def _peirce_tangent(jordan: JordanConstants, y: np.ndarray, v: np.ndarray) -> np.ndarray:
    """The tangent part of each row of v at P = sqrt(2) y + I/m.  The tangent
    space at a rank-one P is the Peirce 1/2-space of L_P, so this is
    4 (P o v - P o (P o v)), orthogonal because L_P is self-adjoint for the
    trace form.  Both products share the terms of y."""
    terms = y.take(jordan.left)
    terms *= jordan.value
    pv = _SQRT2 * _contract(jordan, terms, v) + v / jordan.m
    return 4.0 * (pv - (_SQRT2 * _contract(jordan, terms, pv) + pv / jordan.m))


def _stack_jordan(manifolds, width: int) -> JordanConstants:
    """The rows' Jordan constants shifted to their rows of a (K, width)
    stack, with m and the spray weight as (K, 1) columns and the values
    times -8 for the spray."""
    rows = [man.jordan for man in manifolds]
    out, left, right = (
        np.concatenate([getattr(j, name) + k * width for k, j in enumerate(rows)])
        for name in ("out", "left", "right")
    )
    value = np.concatenate([j.value for j in rows])
    m = np.array([[j.m] for j in rows])
    return JordanConstants(out, left, right, value, m, 2.0 * _SQRT2 * (1.0 - 2.0 / m), -8.0 * value)


def _segment_count(length: float) -> int:
    """The number of equal segments of at most ``SEGMENT`` covering length,
    or a ValueError naming the length and the count above ``MAX_SEGMENTS``."""
    quotient = length / SEGMENT
    if quotient > MAX_SEGMENTS:
        raise ValueError(
            f"length = {length!r}: {quotient:.4g} Taylor segments of at most pi/4, "
            f"above the cap of {MAX_SEGMENTS}"
        )
    return max(1, math.ceil(quotient))


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
    without Jordan constants).  The rows of one zero-padded (K, W) array, W
    the largest ambient dimension, then advance together over equal
    segments of at most ``SEGMENT`` (``MAX_SEGMENTS`` at most, or a
    ValueError): on each, ``_taylor_coefficients`` gives
    every row's series from the segment's start, and Horner's rule evaluates
    it at the vertices in the segment and, with its derivative, at the end,
    which starts the next.  Nothing is projected after the starts.  Rounding
    accumulates over the segments: at step 1e-2 the vertices lie near 1e-15
    from the exact circle at length pi, 2e-14 at 10 pi and 1e-12 at 100 pi,
    while constraint residuals stay near 1e-15.

    The vertex count is ``length / step`` rounded, so that the nominal step
    divides the length exactly.  Chords fall short of it by about
    step^3 * curvature^2 / 24; each curve's edge tolerance is sized from its
    acceleration at the segment starts (never below 1e-9).
    """
    if not 0.0 < step < math.inf:
        raise ValueError(f"step = {step!r}: expected a positive finite number")
    if not 0.0 <= length < math.inf:
        raise ValueError(f"length = {length!r}: expected a nonnegative finite number")
    if not 0 < len(manifolds) == len(starts) == len(directions):
        raise ValueError("expected one start and one direction for each of at least one manifold")
    nsteps = max(1, _step_count(length, step))
    segments = _segment_count(length)
    dims = [man.ambient_dim for man in manifolds]
    p = np.zeros((len(manifolds), max(dims)))
    v = np.zeros_like(p)
    for k, (man, start, u) in enumerate(zip(manifolds, starts, directions)):
        p[k, : dims[k]] = project_point(man, start)
        v[k, : dims[k]] = project_velocity(man, p[k, : dims[k]], u)
    if length == 0.0:
        return [DiscreteCurve(p[k : k + 1, :d], nominal_step=step) for k, d in enumerate(dims)]
    h = length / nsteps
    span = length / segments
    jordan = _stack_jordan(manifolds, p.shape[1])
    arc = np.arange(nsteps + 1) * h
    owner = np.minimum((arc / span).astype(np.intp), segments - 1)
    bounds = np.searchsorted(owner, np.arange(segments + 1))
    vertices = np.empty((nsteps + 1,) + p.shape)
    max_accel_sq = np.zeros(len(p))
    ranks = np.arange(1, TAYLOR_ORDER + 1)[:, None, None]
    for segment in range(segments):
        coeffs = _taylor_coefficients(jordan, p, v)
        max_accel_sq = np.maximum(max_accel_sq, 4.0 * (coeffs[2] * coeffs[2]).sum(axis=1))
        lo, hi = bounds[segment], bounds[segment + 1]
        _horner(coeffs, (arc[lo:hi] - segment * span)[:, None, None], vertices[lo:hi])
        if segment + 1 < segments:
            p = _horner(coeffs, span, np.empty_like(p))
            v = _horner(ranks * coeffs[1:], span, np.empty_like(v))
    edge_tol = np.maximum(1e-9, h**3 * max_accel_sq / 16.0)
    return [DiscreteCurve(vertices[:, k, :d], h, edge_tol=edge_tol[k]) for k, d in enumerate(dims)]


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
