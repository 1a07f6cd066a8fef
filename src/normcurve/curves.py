"""Discrete unit-speed curves and comparison tools.

A curve is a polyline whose consecutive vertices are (within tolerance)
equally spaced by ``nominal_step``; the discrete curvature at an interior
vertex is the turning angle between the adjacent edges divided by the
step.  On a circle of radius rho sampled with equal chords of length h
this estimator returns exactly (2/h) * asin(h / (2 rho)), and on
equal-arc samples it returns exactly 1/rho, so tests can set tolerances
analytically; for smooth curves it converges at rate O(h^2).

The module also provides:

* ``bow_check`` -- the classical endpoint comparison: a planar convex arc
  has endpoint distance no larger than any equally long curve of
  pointwise smaller (or equal) curvature, with planar congruence in the
  equality case.
* ``monotonicity_check`` -- the chord/tangent inner product of a
  length-pi/2 curve with curvature below 2, which must be positive.
* ``fary_check`` -- the polygon form of Chakerian's inequality,
  L <= R sum 2 sin(theta_i / 2) <= R sum theta_i, for closed polygons
  with unequal edges inside the unit ball: average curvature at least 1,
  checked to rounding, with equality in the middle bound on a regular
  polygon inscribed in a great circle.  ``random_closed_curve`` draws such
  polygons by sampling a random trigonometric loop at uniform parameters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ball import min_enclosing_ball

__all__ = [
    "DiscreteCurve",
    "InvalidComparison",
    "BowReport",
    "FaryReport",
    "discrete_curvature",
    "turning_angles",
    "sample_circle_arc",
    "straight_segment",
    "bow_check",
    "monotonicity_check",
    "fary_check",
    "fit_circle",
    "planarity_residual",
    "random_curvature_profile",
    "random_convex_arc",
    "random_space_curve",
    "random_closed_curve",
]


class InvalidComparison(ValueError):
    """A comparison was requested on inputs violating its preconditions."""


def _row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Inner products of the rows of ``a`` and ``b`` (last axis), summed
    column by column."""
    total = a[..., 0] * b[..., 0]
    for k in range(1, a.shape[-1]):
        total += a[..., k] * b[..., k]
    return total


def _row_norms(x: np.ndarray) -> np.ndarray:
    """Euclidean norms of the rows of ``x`` (last axis).

    The squares are summed column by column, which is the order numpy's
    ``np.linalg.norm(x, axis=1)`` takes on an (N, D) array with D <= 7, so
    there the two agree bit for bit at a fraction of the cost (19 against
    105 us on a (4096, 3) array).  At D >= 8 numpy sums in pairwise blocks
    of 8 and the last bit may differ.
    """
    return np.sqrt(_row_dots(x, x))


@dataclass
class DiscreteCurve:
    """Polyline approximation of a unit-speed curve.

    ``closed`` curves do not repeat the first vertex; the wrap-around edge
    from the last vertex back to the first is implied and is held to the
    same step tolerance.
    """

    vertices: np.ndarray
    nominal_step: float
    closed: bool = False
    edge_tol: float = 1e-9

    def __post_init__(self):
        self.vertices = np.asarray(self.vertices, dtype=float)
        if self.vertices.ndim != 2:
            raise ValueError("vertices must be a (N, D) array")
        if not 0.0 < self.nominal_step < math.inf:
            raise ValueError("nominal_step must be positive and finite")
        if not np.isfinite(self.vertices).all():
            raise ValueError("vertices must be finite")
        n = len(self.vertices)
        if self.closed and n < 3:
            raise ValueError("closed curves need at least 3 vertices")
        lengths = _row_norms(self.edges())
        if lengths.size:
            worst = float(np.max(np.abs(lengths - self.nominal_step)))
            if worst > self.edge_tol:
                raise ValueError(
                    f"edge lengths deviate from nominal_step by {worst:.3e} "
                    f"(tolerance {self.edge_tol:.1e})"
                )

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    @property
    def dim(self) -> int:
        return self.vertices.shape[1]

    @property
    def n_edges(self) -> int:
        return self.n_vertices if self.closed else self.n_vertices - 1

    @property
    def length(self) -> float:
        return self.n_edges * self.nominal_step

    @property
    def endpoint_gap(self) -> float:
        if self.closed:
            return 0.0
        return float(np.linalg.norm(self.vertices[-1] - self.vertices[0]))

    def edges(self) -> np.ndarray:
        if self.closed:
            return np.roll(self.vertices, -1, axis=0) - self.vertices
        return np.diff(self.vertices, axis=0)

    def unit_tangents(self) -> np.ndarray:
        e = self.edges()
        return e / _row_norms(e)[:, None]


def turning_angles(curve: DiscreteCurve) -> np.ndarray:
    """Angle between consecutive edges, one value per interior vertex.

    For closed curves every vertex is interior and the result wraps; for
    open curves the endpoints carry no angle.
    """
    if curve.n_vertices < 3:
        raise ValueError("need at least 3 vertices for turning angles")
    t = curve.unit_tangents()
    if curve.closed:
        a, b = t, np.roll(t, -1, axis=0)
    else:
        a, b = t[:-1], t[1:]
    # 2*asin(|b - a|/2) is accurate for small angles and exact on unit vectors
    half_chord = 0.5 * _row_norms(b - a)
    return 2.0 * np.arcsin(np.clip(half_chord, 0.0, 1.0))


def discrete_curvature(curve: DiscreteCurve) -> np.ndarray:
    """Turning angle divided by the nominal step, per interior vertex."""
    return turning_angles(curve) / curve.nominal_step


def _step_count(length: float, step: float) -> int:
    """The integer nearest length / step, or a ValueError naming both when
    the quotient overflows (a denormal step, say)."""
    count = length / step
    if count == math.inf:
        raise ValueError(f"length / step = {length!r} / {step!r}: too many steps to count")
    return round(count)


def sample_circle_arc(
    radius: float, arc_length: float | None, step: float, closed: bool = False
) -> DiscreteCurve:
    """Planar circle vertices at equal-arc spacing (chords are O(step^3) short).

    ``arc_length`` is ignored for closed circles, where the step is
    adjusted so an integer number of edges closes up exactly.
    """
    if closed:
        total = 2.0 * math.pi * radius
        n = max(3, _step_count(total, step))
        h = total / n
        phis = 2.0 * math.pi * np.arange(n) / n
    else:
        if arc_length is None:
            raise ValueError("open arcs need arc_length")
        n = max(1, _step_count(arc_length, step))
        h = arc_length / n
        phis = (h / radius) * np.arange(n + 1)
    pts = radius * np.column_stack([np.cos(phis), np.sin(phis)])
    deficit = abs(h - 2.0 * radius * math.sin(h / (2.0 * radius)))
    return DiscreteCurve(pts, nominal_step=h, closed=closed, edge_tol=max(1e-9, 2.0 * deficit))


def straight_segment(length: float, step: float, dim: int = 2) -> DiscreteCurve:
    n = max(1, _step_count(length, step))
    h = length / n
    direction = np.zeros(dim)
    direction[0] = 1.0
    pts = np.outer(h * np.arange(n + 1), direction)
    return DiscreteCurve(pts, nominal_step=h)


# -- endpoint comparison -----------------------------------------------------


@dataclass
class BowReport:
    endpoint_gap_1: float
    endpoint_gap_2: float
    inequality_holds: bool
    rigidity_detected: bool
    alignment_residual: float


# Rows per QR call in ``_centered_factor``, whose docstring says why.
_QR_BLOCK = 256


def _centered_factor(points: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The mean of an (N, D) cloud, the centered cloud, and the triangular
    factor R of its QR decomposition.  R has the centered cloud's singular
    values and right singular vectors, and an SVD of it costs D x D, not
    N x D; the Gram matrix would square the ratios read from them.

    R is built block by block, the sequential form of TSQR (Demmel, Grigori,
    Hoemmen & Langou, SIAM J. Sci. Comput. 34(1), 2012): the first
    ``_QR_BLOCK`` rows are factored, then R stacked on the next block, until
    the rows run out.  One LAPACK call on a whole (1048, D) geodesic of C3
    runs multithreaded in OpenBLAS from D = 9 (9,432 entries; D = 6's 6,288
    stay on one thread).  On 2 vCPUs its worker thread then spun for 0.28 s
    of CPU per C3 pass at ``perfbench/bench.ini`` and 0.47 s at the built-in
    config, and with the other core busy each such call took 50-150 ms,
    where the blocked form takes about 1 ms.  The blocked calls see at most
    (256 + D) x D entries, 7,641 at D = 27, and wake no worker.  A cloud of
    at most ``_QR_BLOCK`` rows is one call, bit for bit the unblocked
    factor."""
    mean = points.mean(axis=0)
    centered = points - mean
    factor = np.linalg.qr(centered[:_QR_BLOCK], mode="r")
    for start in range(_QR_BLOCK, len(centered), _QR_BLOCK):
        factor = np.linalg.qr(np.vstack([factor, centered[start : start + _QR_BLOCK]]), mode="r")
    return mean, centered, factor


def planarity_residual(points) -> float:
    """Third singular value of the centered point cloud over the first
    (0.0 in fewer than 3 dimensions, where there is no third)."""
    points = np.asarray(points, dtype=float)
    if points.shape[1] < 3:
        return 0.0
    s = np.linalg.svd(_centered_factor(points)[2], compute_uv=False)
    if s.size < 3 or s[0] == 0.0:
        return 0.0
    return float(s[2] / s[0])


def _principal_plane_coords(points: np.ndarray) -> np.ndarray:
    centered = points - points.mean(axis=0)
    _, _, vt = np.linalg.svd(centered, full_matrices=False)
    return centered @ vt[:2].T


def _signed_plane_turnings(coords2: np.ndarray) -> np.ndarray:
    e = np.diff(coords2, axis=0)
    a, b = e[:-1], e[1:]
    cross = a[:, 0] * b[:, 1] - a[:, 1] * b[:, 0]
    dot = np.einsum("ij,ij->i", a, b)
    return np.arctan2(cross, dot)


def _best_rigid_residual(a: np.ndarray, b: np.ndarray) -> float:
    """RMS residual of the best orthogonal alignment of b onto a."""
    d = max(a.shape[1], b.shape[1])
    pa = np.zeros((len(a), d))
    pa[:, : a.shape[1]] = a
    pb = np.zeros((len(b), d))
    pb[:, : b.shape[1]] = b
    pa -= pa.mean(axis=0)
    pb -= pb.mean(axis=0)
    u, _, vt = np.linalg.svd(pb.T @ pa)
    rot = u @ vt
    return float(np.sqrt(np.mean(np.sum((pb @ rot - pa) ** 2, axis=1))))


def bow_check(c1: DiscreteCurve, c2: DiscreteCurve) -> BowReport:
    """Endpoint comparison of a planar convex arc against a less curved curve.

    Preconditions (violation raises InvalidComparison, never a failed
    inequality): both curves open with equal step and vertex count; c1
    planar and convex (signed turning angles of one sign, total turning
    at most pi); the discrete curvature of c2 pointwise at most that of
    c1 plus 1e-9.

    The report states whether gap(c1) <= gap(c2) + 1e-9, and flags
    rigidity when the gaps agree within 1e-7 and c2 is congruent to c1
    (best orthogonal alignment residual at most 1e-7).  c1 counts as
    planar when its ``planarity_residual`` is at most 1e-8.
    """
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
    signed = _signed_plane_turnings(_principal_plane_coords(c1.vertices))
    angle_tol = 1e-9 * c1.nominal_step + 1e-12
    if not (np.all(signed >= -angle_tol) or np.all(signed <= angle_tol)):
        raise InvalidComparison("reference curve is not convex (mixed turning signs)")
    if float(np.sum(np.abs(signed))) > math.pi + 1e-9:
        raise InvalidComparison("reference curve turns by more than pi")

    k1 = discrete_curvature(c1)
    k2 = discrete_curvature(c2)
    if np.any(k2 > k1 + 1e-9):
        raise InvalidComparison("comparison curve exceeds the reference curvature")

    gap1 = c1.endpoint_gap
    gap2 = c2.endpoint_gap
    holds = gap1 <= gap2 + 1e-9
    rigidity = False
    residual = math.inf
    if abs(gap1 - gap2) <= 1e-7:
        residual = _best_rigid_residual(c1.vertices, c2.vertices)
        rigidity = residual <= 1e-7
    return BowReport(
        endpoint_gap_1=gap1,
        endpoint_gap_2=gap2,
        inequality_holds=bool(holds),
        rigidity_detected=bool(rigidity),
        alignment_residual=residual,
    )


def monotonicity_check(curve: DiscreteCurve, t0_index: int) -> float:
    """Inner product <y - x, tangent(t0)> for a length-pi/2 curve.

    Requires an open curve of total length pi/2 (within 1e-9) whose
    discrete curvature stays below 2 - 1e-6; under that hypothesis
    the returned value is strictly positive (it exceeds the integral of
    cos(2|t - t0|), which is sin(2 t0) >= 0).
    """
    if curve.closed:
        raise InvalidComparison("monotonicity check applies to open curves")
    if abs(curve.length - math.pi / 2.0) > 1e-9:
        raise InvalidComparison(f"curve length {curve.length:.12g} is not pi/2")
    kmax = float(np.max(discrete_curvature(curve))) if curve.n_vertices >= 3 else 0.0
    if kmax >= 2.0 - 1e-6:
        raise InvalidComparison(f"max curvature {kmax:.6g} violates the bound 2.0 - 1e-06")
    if not 0 <= t0_index < curve.n_vertices:
        raise ValueError("t0_index out of range")
    t = curve.unit_tangents()
    if t0_index == 0:
        tangent = t[0]
    elif t0_index == curve.n_vertices - 1:
        tangent = t[-1]
    else:
        tangent = t[t0_index - 1] + t[t0_index]
        tangent = tangent / np.linalg.norm(tangent)
    chord = curve.vertices[-1] - curve.vertices[0]
    return float(chord @ tangent)


@dataclass
class FaryReport:
    average_curvature: float
    bound_satisfied: bool
    enclosing_radius: float
    chord_ratio: float
    rounding: float


def fary_check(polygon) -> FaryReport:
    """The polygon form of Chakerian's inequality for a closed polygon in
    the unit ball.

    ``polygon`` is an (N, D) vertex array, closed by the implied edge from
    the last vertex to the first, or a closed ``DiscreteCurve``; edges may
    differ in length.  With edges e_i, L = sum |e_i|, unit tangents
    T_i = e_i / |e_i|, exterior angles theta_i between T_i and T_(i+1), and
    R = max |v_i| about the origin, the centre of the unit ball, summation
    by parts gives

        L = sum <v_(i+1), T_i - T_(i+1)> <= R sum 2 sin(theta_i / 2) <= R sum theta_i

    (Chakerian, Pacific J. Math. 12, 1962; Fary 1950 in the plane).  A
    regular polygon inscribed in a great circle attains the middle bound.
    The report gives the average curvature sum theta_i / L, R, the middle
    ratio R sum 2 sin(theta_i / 2) / L (``chord_ratio``), and whether
    R sum theta_i >= L (1 - rounding).  Raises ``InvalidComparison`` on an
    open curve, a non-finite vertex, a zero-length edge, or R above
    1 + (D + 4) eps.

    Error model, with u = eps / 2: each |v_i| is computed to (D + 3) u / 2
    relative, so the generator's vertices, divided by their largest
    computed norm, read at most 1 + (D + 4) u.  Edges are rounded
    differences, exact to u relative; each unit tangent is then off by
    less than (D + 9) u / 2 and each chord 2 sin(theta_i / 2) = |T_(i+1) - T_i|
    by less than (2 D + 14) u absolute.  A closed polygon's tangents lie in
    no open hemisphere, so their chords sum to at least 4.  With the sums'
    (n - 1) u and the arcsine's 2 u (theta_i >= 2 sin(theta_i / 2)), the
    computed ratios are off by less than ``rounding`` = (D + 16) n eps,
    relative: 2.5e-11 on the 6,283-gon of a unit circle at step 1e-3.
    """
    if isinstance(polygon, DiscreteCurve):
        if not polygon.closed:
            raise InvalidComparison("average-curvature bound applies to closed curves")
        polygon = polygon.vertices
    vertices = np.asarray(polygon, dtype=float)
    if vertices.ndim != 2 or len(vertices) < 3:
        raise InvalidComparison("a closed polygon needs an (N, D) array of at least 3 vertices")
    if not np.isfinite(vertices).all():
        raise InvalidComparison("polygon has a non-finite vertex")
    n, dim = vertices.shape
    eps = float(np.finfo(float).eps)
    radius = float(np.max(_row_norms(vertices)))
    if radius > 1.0 + (dim + 4) * eps:
        raise InvalidComparison(f"curve is not contained in the unit ball (radius {radius!r})")
    edges = np.roll(vertices, -1, axis=0) - vertices
    lengths = _row_norms(edges)
    if lengths.min() == 0.0:
        raise InvalidComparison("polygon has a zero-length edge")
    tangents = edges / lengths[:, None]
    chords = _row_norms(np.roll(tangents, -1, axis=0) - tangents)
    turning = float(np.sum(2.0 * np.arcsin(np.clip(0.5 * chords, 0.0, 1.0))))
    length = float(np.sum(lengths))
    rounding = (dim + 16) * n * eps
    return FaryReport(
        average_curvature=turning / length,
        bound_satisfied=bool(radius * turning >= length * (1.0 - rounding)),
        enclosing_radius=radius,
        chord_ratio=radius * float(np.sum(chords)) / length,
        rounding=rounding,
    )


# -- circle fitting ----------------------------------------------------------


def fit_circle(points) -> tuple[np.ndarray, float, float]:
    """Best-fit circle of near-planar points in R^D.

    Projects onto the two principal axes and solves the algebraic
    least-squares circle fit.  Returns (center in R^D, radius, RMS radial
    residual); exact on noise-free circles.
    """
    points = np.asarray(points, dtype=float)
    if len(points) < 3:
        raise ValueError("circle fitting needs at least 3 points")
    mean, centered, factor = _centered_factor(points)
    plane = np.linalg.svd(factor, full_matrices=False)[2][:2]
    xy = centered @ plane.T
    a = np.column_stack([2.0 * xy, np.ones(len(xy))])
    b = np.einsum("ij,ij->i", xy, xy)
    sol, *_ = np.linalg.lstsq(a, b, rcond=None)
    c2 = sol[:2]
    radius = math.sqrt(max(sol[2] + float(c2 @ c2), 0.0))
    residual = float(np.sqrt(np.mean((_row_norms(xy - c2) - radius) ** 2)))
    center = mean + c2 @ plane
    return center, radius, residual


# -- randomized generators ---------------------------------------------------


def random_curvature_profile(rng: np.random.Generator, n: int, high: float) -> np.ndarray:
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


def random_convex_arc(
    rng: np.random.Generator, n_edges: int, step: float, max_curvature: float
) -> DiscreteCurve:
    """Planar convex arc with curvature in (0, max_curvature].

    Turning angles are rescaled if needed so the total turning stays
    below 0.98 pi (an arc of a convex curve).
    """
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


def _rotate_tangents(rows: np.ndarray, turning: np.ndarray) -> np.ndarray:
    """Unit tangents of stacked ``random_space_curve`` trials, each reading
    the rows of its own block in order.

    ``rows`` is (trials, n + 1, D) and ``turning`` is (trials, n); returns
    the (trials, n + 1, D) tangents.  A row whose normal part is below 1e-12
    gives no direction to turn toward and raises ``RuntimeError``.
    """
    t = rows[:, 0] / _row_norms(rows[:, 0])[:, None]
    tangents = np.empty_like(rows)
    tangents[:, 0] = t
    cos, sin = np.cos(turning), np.sin(turning)
    for j in range(turning.shape[1]):
        xi = rows[:, j + 1]
        normal = xi - _row_dots(xi, t)[:, None] * t
        nn = _row_norms(normal)
        if nn.min() < 1e-12:
            raise RuntimeError("degenerate normal draw")
        t = cos[:, j, None] * t + (sin[:, j] / nn)[:, None] * normal
        t /= _row_norms(t)[:, None]
        tangents[:, j + 1] = t
    return tangents


def random_space_curve(
    turning: np.ndarray, steps: np.ndarray, blocks: list[np.ndarray]
) -> list[DiscreteCurve]:
    """Curves realizing prescribed turning angles exactly, one per trial,
    each twisted by its own block of random rows.

    At each interior vertex the tangent is rotated by the given angle
    toward the unit normal part of the next row, which produces arbitrary
    torsion-like twisting while keeping the discrete curvature profile
    exact.  ``turning`` is (trials, n), ``steps`` holds one step per trial,
    and block k is an (n + 1, D_k) array, the initial tangent and then the
    normal rows in order, whose width is the trial's dim; a caller draws it
    as one ``rng.standard_normal((n + 1, dim))``.  Every trial rotates at
    once, zero-padded to the widest block, where each added term is an
    exact 0.0.  A row whose normal part is below 1e-12 raises
    ``RuntimeError``; for N(0, 1) rows that has probability below 1e-12 per
    row.
    """
    widths = [np.shape(block)[1] for block in blocks]
    stack = np.zeros((len(widths), np.shape(turning)[1] + 1, max(widths)))
    for target, block, width in zip(stack, blocks, widths):
        target[:, :width] = block
    steps = np.asarray(steps, dtype=float)
    vertices = _vertices(_rotate_tangents(stack, np.asarray(turning, dtype=float)), steps)
    return [
        DiscreteCurve(v[:, :width], nominal_step=float(h))
        for v, width, h in zip(vertices, widths, steps)
    ]


def _vertices(tangents: np.ndarray, steps: np.ndarray) -> np.ndarray:
    """Vertices from the origin along stacked unit tangents, one step per trial."""
    vertices = np.zeros((len(tangents), tangents.shape[1] + 1, tangents.shape[2]))
    np.cumsum(steps[:, None, None] * tangents, axis=1, out=vertices[:, 1:])
    return vertices


def _harmonic_loop(coef_cos: np.ndarray, coef_sin: np.ndarray, count: int) -> np.ndarray:
    """The loop sum_k cos(k u) a_k + sin(k u) b_k, k = 1, 2, 3, at the
    ``count`` parameters u = 2 pi j / count."""
    arg = np.outer(2.0 * math.pi * np.arange(count) / count, np.arange(1, 4))
    return np.cos(arg) @ coef_cos + np.sin(arg) @ coef_sin


# Uniform parameters of the probe polygon that centres and sizes a loop.
_PROBE = 256


def random_closed_curve(
    rng: np.random.Generator, dim: int = 3, step_target: float = 1e-3
) -> np.ndarray:
    """Random closed polygon in R^dim whose farthest vertex from the origin
    is at distance 1 (up to rounding), as an (n, dim) vertex array.

    The polygon samples one random trigonometric loop of 3 harmonics at n
    uniform parameters, so its edges are unequal; ``fary_check`` needs no
    equal edges.  Random stream: one ``rng.standard_normal((3, dim))`` for
    the cosine coefficients, then one for the sine ones, harmonic k scaled
    by 1/k^2.  A probe polygon at 256 uniform parameters gives the centre c
    (one certified ``min_enclosing_ball`` at relative gap 1e-3), and its
    length over its covering radius about c estimates L, the length of the
    loop scaled to radius 1; then n = clip(round(L / step_target), 64, 40000).
    The n vertices are moved by -c and divided by R = max |v_i - c|.
    """
    ks = np.arange(1, 4)[:, None]
    coef_cos = rng.standard_normal((3, dim)) / ks**2
    coef_sin = rng.standard_normal((3, dim)) / ks**2
    probe = _harmonic_loop(coef_cos, coef_sin, _PROBE)
    ball = min_enclosing_ball(probe, tol=1e-3)
    length = float(np.sum(_row_norms(np.roll(probe, -1, axis=0) - probe))) / ball.radius
    count = length / step_target
    if count == math.inf:
        raise ValueError(f"step_target = {step_target!r}: too many vertices to count")
    vertices = _harmonic_loop(coef_cos, coef_sin, int(np.clip(round(count), 64, 40000)))
    vertices -= ball.center
    vertices /= np.max(_row_norms(vertices))
    return vertices
