"""Minimal enclosing ball of a finite point set in R^D, with a certificate.

The dual problem is to maximize f(λ) = Σλᵢ|pᵢ|² − |Σλᵢpᵢ|² over the
simplex.  Every center c has covering radius ≥ r*, and every simplex λ has
r* ≥ √f(λ) (Clarkson, ACM TALG 6(4), 2010), so the run stops once the two
bounds meet within ``tol``.  The first test is at uniform weights about the
mean: a centrally symmetric cloud closes there, with no pivot.

Otherwise an active set on the dual pivots to the exact optimum (Wolfe's
method on the dual of the pivoting solver of Fischer, Gärtner & Kutz,
"Fast smallest-enclosing-ball computation in high dimensions", ESA 2003).
The support S is affinely independent, with positive weights that sum to 1;
its center is c = Σλᵢpᵢ.  A pivot adds the point farthest from c.  The
weights then walk toward the circumcentre weights of S, where f peaks on
the affine hull of S; a point whose weight reaches zero on the way leaves,
and the walk goes on from the smaller S.  A point that enters inside the
affine hull of S first trades places with a support point along the affine
dependence, which keeps c.  In exact arithmetic f rises at every pivot, so
no support repeats and the run ends at the optimum, where the farthest
point is a support point.

The points are scaled by a power of two near their largest coordinate, then
shifted to their mean, so that no square of a finite input overflows and
rounding in both bounds scales with the radius, not with the distance from
the origin.  The scaling is exact, so a cloud of moderate size gives the
same bits as unscaled arithmetic.  Deterministic for a fixed input order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["Ball", "min_enclosing_ball"]

# Default pivot cap.  Each pivot gives a new support set; the runs of the
# package and its tests take at most a few dozen.
_MAX_PIVOTS = 10_000

# An entering point nearer than this to the affine hull of the support,
# relative to its edge from the base point, is taken to lie in it.  The
# circumcentre solve squares that distance's condition number, so at 1e-6
# it would keep only about 4 of its 16 digits.
_AFFINE_TOL = 1e-6


@dataclass
class Ball:
    """Enclosing ball and its certificate: the minimal radius lies in
    [``lower_bound``, ``radius``], and ``converged`` means that
    ``radius - lower_bound <= tol * radius``.  ``radius`` is the exact
    covering radius of ``center``, so the ball holds every point."""

    center: np.ndarray
    radius: float
    iterations: int
    converged: bool
    lower_bound: float

    @property
    def gap(self) -> float:
        return self.radius - self.lower_bound


def min_enclosing_ball(points, tol: float = 1e-6, max_iter: int | None = None) -> Ball:
    """Minimal enclosing ball, certified to relative gap ``tol``.

    Parameters
    ----------
    points : array-like, shape (N, D)
        Nonempty set of finite points.
    tol : float
        Relative primal–dual gap at which the run stops.
    max_iter : int, optional
        Pivot cap; defaults to 10 000.

    Returns
    -------
    Ball with the best center seen, its exact covering radius, the number
    of pivots, the best dual lower bound, and whether the gap was
    certified.  The run also stops, certified or not, at the exact optimum
    up to rounding: when the farthest point is a support point, or when
    the dual objective does not rise toward it.
    """
    points = np.asarray(points, dtype=float)
    if points.ndim == 1:
        points = points[None, :]
    if points.size == 0:
        raise ValueError("min_enclosing_ball requires at least one point")
    if not tol > 0.0:
        raise ValueError(f"tol = {tol!r}: expected a positive number")
    largest = float(np.max(np.abs(points)))  # nan or inf for a non-finite point
    if not math.isfinite(largest):
        raise ValueError("min_enclosing_ball requires finite points")
    if max_iter is None:
        max_iter = _MAX_PIVOTS

    exponent = math.frexp(largest)[1]
    shifted = np.ldexp(points, -exponent)
    origin = shifted.mean(axis=0)
    shifted -= origin
    sq_norms = np.einsum("ij,ij->i", shifted, shifted)
    center = np.zeros(points.shape[1])  # Σλᵢpᵢ, in shifted coordinates
    dual_sq = float(sq_norms.mean())  # f at uniform weights
    support, weights = np.zeros(0, dtype=int), np.zeros(0)
    best_center, best_sq, lower_sq = center, math.inf, 0.0
    k = 0
    while True:
        # |p - c|^2 = (|p|^2 - 2 <p, c>) + |c|^2
        score = sq_norms - 2.0 * (shifted @ center)
        far = int(np.argmax(score))
        primal_sq = max(float(score[far]) + float(center @ center), 0.0)
        if primal_sq < best_sq:
            best_center, best_sq = center, primal_sq
        lower_sq = max(lower_sq, dual_sq)
        upper = math.sqrt(best_sq)
        if upper - math.sqrt(lower_sq) <= tol * upper or k == max_iter or far in support:
            break
        pivoted = _pivot(shifted, support, weights, far)
        if pivoted is None:
            break
        support, weights = pivoted
        k += 1
        center = weights @ shifted[support]
        spread = shifted[support] - center
        dual_sq = float(weights @ np.einsum("ij,ij->i", spread, spread))

    best_center = origin + best_center
    offsets = np.ldexp(points, -exponent) - best_center
    try:
        radius = math.ldexp(float(np.max(np.linalg.norm(offsets, axis=1))), exponent)
    except OverflowError:
        raise ValueError("min_enclosing_ball: the radius overflows a float") from None
    lower = math.ldexp(math.sqrt(lower_sq), exponent)
    return Ball(
        center=np.ldexp(best_center, exponent),
        radius=radius,
        iterations=k,
        converged=radius - lower <= tol * radius,
        lower_bound=lower,
    )


def _pivot(points, support, weights, enter):
    """Add point ``enter`` to the support at weight 0 and walk the weights
    toward the circumcentre weights, dropping each point whose weight
    reaches 0 first; returns the new support and its positive weights, or
    None when f does not rise toward the entering point (the optimum, up
    to rounding)."""
    support = np.append(support, enter)
    weights = np.append(weights, 0.0)
    while True:
        pts = points[support]
        target, dependence = _circumcentre_weights(pts)
        if dependence is None:
            if np.all(target > 0.0):
                return support, target / target.sum()
            direction = target - weights
        else:  # f's slope along the dependence is Σdᵢ|pᵢ - c|²; walk uphill
            spread = pts - weights @ pts
            slope = dependence @ np.einsum("ij,ij->i", spread, spread)
            direction = dependence if slope > 0.0 else -dependence
        if weights[-1] == 0.0 and not direction[-1] > 0.0:
            return None  # the first step: f must rise toward the entering point
        shrinking = direction < 0.0
        ratios = weights[shrinking] / -direction[shrinking]
        weights = weights + ratios.min() * direction
        weights[np.flatnonzero(shrinking)[np.argmin(ratios)]] = 0.0
        keep = weights > 0.0
        support, weights = support[keep], weights[keep] / weights[keep].sum()


def _circumcentre_weights(pts):
    """Affine weights α (Σα = 1) of the point of aff(pts) equidistant from
    every row, and None; or, when the last row lies in the affine hull of the
    others, None and their affine dependence d (Σd = 0, Σdᵢpᵢ = 0, last
    entry 1).  The rows before the last are affinely independent."""
    if len(pts) == 1:
        return np.ones(1), None
    edges = pts[1:] - pts[0]
    m = len(edges)
    r = np.linalg.qr(edges.T, mode="r")
    if m > r.shape[0] or abs(r[m - 1, m - 1]) <= _AFFINE_TOL * math.sqrt(edges[-1] @ edges[-1]):
        gamma = np.linalg.solve(r[: m - 1, : m - 1], r[: m - 1, m - 1]) if m > 1 else np.zeros(0)
        return None, np.concatenate([[gamma.sum() - 1.0], -gamma, [1.0]])
    # c = p0 + Eᵀβ with E(c - p0) = |e|²/2 row by row, and EEᵀ = RᵀR
    half_sq = 0.5 * np.einsum("ij,ij->i", edges, edges)
    beta = np.linalg.solve(r, np.linalg.solve(r.T, half_sq))
    return np.concatenate([[1.0 - beta.sum()], beta]), None
