"""Minimal enclosing ball of a finite point set in R^D, with a certificate.

Bădoiu–Clarkson from the mean: step 1/(k+1) toward the farthest point.
This is Frank–Wolfe on the dual, max over the simplex of
Σλᵢ|pᵢ|² − |Σλᵢpᵢ|², from uniform weights (Clarkson, ACM TALG 6(4), 2010):
each center c = Σλᵢpᵢ has covering radius ≥ r* ≥ √(Σλᵢ|pᵢ|² − |c|²), and
the run stops when the two bounds meet within ``tol``.  Points are shifted
to their mean first, so rounding in both bounds scales with the radius, not
with the distance from the origin.  Deterministic for a fixed input order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["Ball", "min_enclosing_ball"]


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
        Nonempty point set.
    tol : float
        Relative primal–dual gap at which the run stops.
    max_iter : int, optional
        Iteration cap; defaults to min(ceil(2/tol), 200000).

    Returns
    -------
    Ball with the best center seen, its exact covering radius, the number
    of center moves, the best dual lower bound, and whether the gap was
    certified within the cap.
    """
    points = np.asarray(points, dtype=float)
    if points.ndim == 1:
        points = points[None, :]
    if points.size == 0:
        raise ValueError("min_enclosing_ball requires at least one point")
    if not tol > 0.0:
        raise ValueError(f"tol = {tol!r}: expected a positive number")
    if max_iter is None:
        # compared before rounding: 2/tol overflows to inf at a denormal tol
        max_iter = 200_000 if 2.0 / tol > 200_000 else math.ceil(2.0 / tol)

    origin = points.mean(axis=0)
    shifted = points - origin
    sq_norms = np.einsum("ij,ij->i", shifted, shifted)
    center = np.zeros(points.shape[1])  # Σλᵢpᵢ, in shifted coordinates
    weighted_sq = float(sq_norms.mean())  # Σλᵢ|pᵢ|²
    best_center, best_sq, lower_sq = center, math.inf, 0.0
    k = 0
    while True:
        # |p - c|^2 = (|p|^2 - 2 <p, c>) + |c|^2
        score = sq_norms - 2.0 * (shifted @ center)
        far = int(np.argmax(score))
        c_sq = float(center @ center)
        primal_sq = max(float(score[far]) + c_sq, 0.0)
        if primal_sq < best_sq:
            best_center, best_sq = center.copy(), primal_sq
        lower_sq = max(lower_sq, weighted_sq - c_sq)
        upper = math.sqrt(best_sq)
        if upper - math.sqrt(lower_sq) <= tol * upper or k == max_iter:
            break
        k += 1
        center += (shifted[far] - center) / (k + 1.0)
        weighted_sq += (sq_norms[far] - weighted_sq) / (k + 1.0)

    best_center = origin + best_center
    radius = float(np.max(np.linalg.norm(points - best_center, axis=1)))
    lower = math.sqrt(lower_sq)
    return Ball(
        center=best_center,
        radius=radius,
        iterations=k,
        converged=radius - lower <= tol * radius,
        lower_bound=lower,
    )
