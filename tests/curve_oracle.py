"""The trial-by-trial curve engines that the stacked ones in
``normcurve.curves`` replaced, kept as oracles: one curve, one Python call.
Each draws from its ``rng`` in the order the stacked engines' callers do."""

import math

import numpy as np

from normcurve.curves import (
    BowReport,
    DiscreteCurve,
    InvalidComparison,
    _best_rigid_residual,
    _row_norms,
    planarity_residual,
)


def unit_tangents(curve):
    e = curve.edges()
    return e / _row_norms(e)[:, None]


def endpoint_gap(curve):
    return float(np.linalg.norm(curve.vertices[-1] - curve.vertices[0]))


def turning_angles(curve):
    """Angle between consecutive edges of one curve, per interior vertex."""
    t = unit_tangents(curve)
    a, b = (t, np.roll(t, -1, axis=0)) if curve.closed else (t[:-1], t[1:])
    return 2.0 * np.arcsin(np.clip(0.5 * _row_norms(b - a), 0.0, 1.0))


def discrete_curvature(curve):
    return turning_angles(curve) / curve.nominal_step


def random_curvature_profile(rng, n, high):
    """Smooth random curvature values in [0, high] on n grid points."""
    s = np.linspace(0.0, 1.0, n)
    raw = np.zeros(n)
    for k in range(1, 4):
        amp = rng.standard_normal() / k
        phase = rng.uniform(0.0, 2.0 * math.pi)
        raw += amp * np.sin(2.0 * math.pi * k * s + phase)
    raw -= raw.min()
    if raw.max() > 0:
        raw /= raw.max()
    return high * raw


def random_convex_arc(rng, n_edges, step, max_curvature):
    """Planar convex arc with curvature in (0, max_curvature], total turning
    below 0.98 pi."""
    kappa = random_curvature_profile(rng, n_edges - 1, max_curvature)
    turning_cap = 0.98 * math.pi
    theta = kappa * step
    total = float(np.sum(theta))
    if total > turning_cap:
        theta *= turning_cap / total
    phi = np.concatenate([[0.0], np.cumsum(theta)])
    tangents = np.column_stack([np.cos(phi), np.sin(phi)])
    vertices = np.vstack([np.zeros(2), np.cumsum(step * tangents, axis=0)])
    return DiscreteCurve(vertices, nominal_step=step)


def _signed_plane_turnings(points):
    centered = points - points.mean(axis=0)
    _, _, vt = np.linalg.svd(centered, full_matrices=False)
    e = np.diff(centered @ vt[:2].T, axis=0)
    a, b = e[:-1], e[1:]
    cross = a[:, 0] * b[:, 1] - a[:, 1] * b[:, 0]
    return np.arctan2(cross, np.einsum("ij,ij->i", a, b))


def bow_check(c1, c2):
    """Endpoint comparison of one planar convex arc against one less curved
    curve; the report holds scalars."""
    if c1.closed or c2.closed:
        raise InvalidComparison("bow comparison is for open arcs")
    if c1.n_vertices != c2.n_vertices:
        raise InvalidComparison("curves must have the same number of vertices")
    if abs(c1.nominal_step - c2.nominal_step) > 1e-12 * max(c1.nominal_step, c2.nominal_step):
        raise InvalidComparison("curves must share the same step")
    if c1.n_vertices < 3:
        raise InvalidComparison("need at least 3 vertices")
    if planarity_residual(c1.vertices) > 1e-8:
        raise InvalidComparison("reference curve is not planar")
    signed = _signed_plane_turnings(c1.vertices)
    angle_tol = 1e-9 * c1.nominal_step + 1e-12
    if not (np.all(signed >= -angle_tol) or np.all(signed <= angle_tol)):
        raise InvalidComparison("reference curve is not convex (mixed turning signs)")
    if float(np.sum(np.abs(signed))) > math.pi + 1e-9:
        raise InvalidComparison("reference curve turns by more than pi")
    if np.any(discrete_curvature(c2) > discrete_curvature(c1) + 1e-9):
        raise InvalidComparison("comparison curve exceeds the reference curvature")
    gap1, gap2 = endpoint_gap(c1), endpoint_gap(c2)
    residual = math.inf
    if abs(gap1 - gap2) <= 1e-7:
        residual = _best_rigid_residual(c1.vertices, c2.vertices)
    return BowReport(gap1, gap2, bool(gap1 <= gap2 + 1e-9), bool(residual <= 1e-7), residual)


def monotonicity_check(curve, t0_index):
    """Inner product <y - x, tangent(t0)> for one length-pi/2 curve."""
    if curve.closed:
        raise InvalidComparison("monotonicity check applies to open curves")
    length = (curve.n_vertices - 1) * curve.nominal_step
    if abs(length - math.pi / 2.0) > 1e-9:
        raise InvalidComparison(f"curve length {length:.12g} is not pi/2")
    kmax = float(np.max(discrete_curvature(curve))) if curve.n_vertices >= 3 else 0.0
    if kmax >= 2.0 - 1e-6:
        raise InvalidComparison(f"max curvature {kmax:.6g} violates the bound 2.0 - 1e-06")
    if not 0 <= t0_index < curve.n_vertices:
        raise ValueError("t0_index out of range")
    t = unit_tangents(curve)
    if t0_index == 0:
        tangent = t[0]
    elif t0_index == curve.n_vertices - 1:
        tangent = t[-1]
    else:
        tangent = t[t0_index - 1] + t[t0_index]
        tangent = tangent / np.linalg.norm(tangent)
    chord = curve.vertices[-1] - curve.vertices[0]
    return float(chord @ tangent)
