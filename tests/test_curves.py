"""Discrete curves: curvature, bow comparison, surgery, averaged bounds."""

import math

import numpy as np
import pytest

import curve_oracle
from circle_oracle import closed_form_circle, orthonormal_pair
from curve_oracle import random_curvature_profile
from normcurve import curves, veronese
from normcurve.curves import (
    _QR_BLOCK,
    _centered_factor,
    _row_norms,
    BowReport,
    DiscreteCurve,
    InvalidComparison,
    bow_check,
    curvature_profiles,
    discrete_curvature,
    draw_profile,
    fary_check,
    fit_circle,
    monotonicity_check,
    planarity_residual,
    random_closed_curve,
    random_convex_arc,
    random_space_curve,
    sample_circle_arc,
    straight_segment,
    turning_angles,
)
from thread_cpu import needs_schedstat, other_threads_cpu_ms


def test_discrete_curve_validation():
    with pytest.raises(ValueError, match="edge lengths"):
        DiscreteCurve(np.array([[0.0, 0.0], [1.0, 0.0], [3.0, 0.0]]), nominal_step=1.0)
    with pytest.raises(ValueError, match="positive"):
        DiscreteCurve(np.zeros((2, 2)), nominal_step=0.0)
    for step in (math.nan, math.inf):
        with pytest.raises(ValueError, match="positive and finite"):
            DiscreteCurve(np.array([[0.0, 0.0], [1.0, 0.0]]), nominal_step=step)
    # a NaN length compares false with edge_tol, so only a finiteness check stops it
    circle = sample_circle_arc(1.0, None, 1e-2, closed=True)
    for bad in (math.nan, math.inf):
        vertices = circle.vertices.copy()
        vertices[5, 0] = bad
        with pytest.raises(ValueError, match="finite"):
            DiscreteCurve(vertices, circle.nominal_step, closed=True, edge_tol=circle.edge_tol)
    with pytest.raises(ValueError, match="at least 3"):
        DiscreteCurve(np.array([[0.0, 0.0], [1.0, 0.0]]), nominal_step=1.0, closed=True)
    # a NaN edge_tol compares false with every deviation, a negative one
    # rejects every curve: both are refused, as is an infinite one
    for tol in (math.nan, -1.0, 0.0, math.inf):
        with pytest.raises(ValueError, match=r"^edge_tol = .* must be positive and finite$"):
            DiscreteCurve([[0.0, 0.0], [5.0, 0.0], [5.0, 7.0]], 1.0, edge_tol=tol)
    assert DiscreteCurve([[0.0, 0.0], [5.0, 0.0]], 5.0, edge_tol=1e-300).n_vertices == 2


def test_circle_curvature_arc_sampling():
    c = sample_circle_arc(0.5, math.pi / 2.0, 1e-3)
    k = discrete_curvature(c)
    assert np.max(np.abs(k - 2.0)) <= 1e-5
    # equal-arc sampling has no curvature bias at all
    assert np.max(np.abs(k - 2.0)) <= 1e-9


def test_circle_curvature_chord_sampling_matches_formula():
    # 201 vertices on a circle of radius 0.5, consecutive chords exactly h long
    radius, h = 0.5, 1e-3
    phis = 2.0 * math.asin(h / (2.0 * radius)) * np.arange(201)
    c = DiscreteCurve(radius * np.column_stack([np.cos(phis), np.sin(phis)]), nominal_step=h)
    k = discrete_curvature(c)
    expected = (2.0 / h) * math.asin(h / (2.0 * radius))
    assert np.max(np.abs(k - expected)) <= 1e-9


def test_straight_segment_curvature_zero():
    seg = straight_segment(1.0, 1e-2, dim=3)
    assert np.max(np.abs(discrete_curvature(seg))) == 0.0


def test_denormal_step_raises_naming_it():
    # length / step overflows to inf: a ValueError, not an OverflowError
    message = r"^length / step = 1\.0 / 1e-320: too many steps to count$"
    for make in (
        lambda: straight_segment(1.0, 1e-320),
        lambda: sample_circle_arc(1.0, 1.0, 1e-320),
        lambda: sample_circle_arc(1.0 / (2.0 * math.pi), None, 1e-320, closed=True),
    ):
        with pytest.raises(ValueError, match=message):
            make()


def test_curvature_needs_three_vertices():
    seg = straight_segment(1e-2, 1e-2)
    with pytest.raises(ValueError, match="3 vertices"):
        discrete_curvature(seg)


def test_geodesic_samples_have_curvature_two():
    from normcurve import manifold, veronese

    spc = veronese.space("complex", 2)
    var = veronese.variety(spc)
    rng = np.random.default_rng(71)
    p = veronese.sample_points(spc, 1, rng)[0]
    basis = manifold.tangent_basis(var, p)
    u = rng.standard_normal(len(basis)) @ basis
    u /= np.linalg.norm(u)
    curve = manifold.integrate_geodesic(var, p, u, 1.0, step=1e-3)
    assert np.max(np.abs(discrete_curvature(curve) - 2.0)) <= 1e-5


# -- bow comparison -----------------------------------------------------------


def _bow(c1, c2):
    """``bow_check`` on a stack of one pair, its report read back as scalars."""
    report = bow_check(c1.vertices[None], c2.vertices[None], [c1.nominal_step])
    return BowReport(*(field[0] for field in vars(report).values()))


def _named_pair(n=300):
    h = (math.pi / 2.0) / n
    return sample_circle_arc(0.5, math.pi / 2.0, h), straight_segment(math.pi / 2.0, h)


def test_bow_half_circle_vs_segment():
    half, seg = _named_pair()
    rep = _bow(half, seg)
    assert rep.endpoint_gap_1 == pytest.approx(1.0, abs=1e-9)
    assert rep.endpoint_gap_2 == pytest.approx(math.pi / 2.0, abs=1e-9)
    assert rep.inequality_holds
    assert not rep.rigidity_detected


def test_bow_identical_curves_rigidity():
    h = (math.pi / 2.0) / 300
    q = sample_circle_arc(1.0, math.pi / 2.0, h)
    rep = _bow(q, q)
    assert rep.inequality_holds
    assert rep.rigidity_detected
    assert rep.alignment_residual <= 1e-12


def test_bow_congruent_space_copy_rigidity():
    # the same quarter circle embedded in a rotated 3D plane
    h = (math.pi / 2.0) / 200
    q = sample_circle_arc(1.0, math.pi / 2.0, h)
    rng = np.random.default_rng(72)
    rot, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    lifted = np.column_stack([q.vertices, np.zeros(len(q.vertices))])[:, :3] @ rot.T
    q3 = DiscreteCurve(lifted + rng.standard_normal(3), nominal_step=h, edge_tol=q.edge_tol)
    rep = _bow(q, q3)
    assert rep.inequality_holds
    assert rep.rigidity_detected


def _space_curve(rng, turning, step, dim=3):
    """One trial of ``random_space_curve``, drawing its rows from ``rng``."""
    rows = rng.standard_normal((1, len(turning) + 1, dim))
    return DiscreteCurve(random_space_curve(np.asarray(turning)[None], np.array([step]), rows)[0], step)


def _wiggle(n, h):
    """An open planar curve of n edges whose turning flips sign halfway."""
    theta = np.concatenate([np.full(n // 2, 0.5 * h), np.full(n - 1 - n // 2, -0.5 * h)])
    phi = np.concatenate([[0.0], np.cumsum(theta)])
    return np.vstack([[0.0, 0.0], np.cumsum(h * np.column_stack([np.cos(phi), np.sin(phi)]), axis=0)])


def test_bow_preconditions_raise_invalid_comparison():
    half, seg = _named_pair()
    # more curved comparison curve: roles swapped
    with pytest.raises(InvalidComparison, match="exceeds"):
        _bow(seg, half)
    # non-planar reference
    rng = np.random.default_rng(73)
    h = half.nominal_step
    twists = _space_curve(rng, np.full(299, 0.5 * h), h)
    if planarity_residual(twists.vertices) > 1e-8:
        with pytest.raises(InvalidComparison, match="planar"):
            _bow(twists, seg)
    # non-convex reference: sine-like flip of turning signs
    wiggle = DiscreteCurve(_wiggle(300, h), nominal_step=h)
    with pytest.raises(InvalidComparison, match="convex"):
        _bow(wiggle, seg)
    # mismatched sampling
    with pytest.raises(InvalidComparison, match="vertices"):
        _bow(half, straight_segment(math.pi / 2.0, h / 2.0))


def _profiles(rng, trials, n, high):
    return curvature_profiles(np.array([draw_profile(rng) for _ in range(trials)]), n, high)


def test_bow_randomized_trials_never_violate():
    rng = np.random.default_rng(74)
    steps = rng.uniform(0.005, 0.02, 200)
    arcs = random_convex_arc(_profiles(rng, 200, 119, rng.uniform(0.5, 2.5, 200)), steps)
    turning = _profiles(rng, 200, 119, 1.0) * turning_angles(arcs)
    for dim in (2, 3, 5):
        rows = rng.standard_normal((200, 120, dim))
        rep = bow_check(arcs, random_space_curve(turning, steps, rows), steps)
        assert rep.inequality_holds.all()


@pytest.mark.parametrize("k", [0, 3, 5])
def test_bow_raises_naming_the_first_failing_trial(k):
    # six valid trials (quarter circles of curvature 1 against segments);
    # then trial k alone breaks convexity, or the curvature bound
    n = 120
    h = (math.pi / 2.0) / n
    reference = np.stack([sample_circle_arc(1.0, math.pi / 2.0, h).vertices] * 6)
    comparison = np.stack([straight_segment(math.pi / 2.0, h).vertices] * 6)
    steps = np.full(6, h)
    assert bow_check(reference, comparison, steps).inequality_holds.all()
    wiggled = reference.copy()
    wiggled[k] = _wiggle(n, h)
    with pytest.raises(InvalidComparison, match=rf"^trial {k}: reference curve is not convex"):
        bow_check(wiggled, comparison, steps)
    bent = comparison.copy()
    bent[k] = sample_circle_arc(0.5, math.pi / 2.0, h).vertices
    with pytest.raises(InvalidComparison, match=rf"^trial {k}: comparison curve exceeds"):
        bow_check(reference, bent, steps)
    # with both, the first failing trial is named, with its own failure
    bent[5] = comparison[5]
    reference[5] = _wiggle(n, h)
    first = "not convex" if k == 5 else "comparison curve exceeds"
    with pytest.raises(InvalidComparison, match=rf"^trial {k}: .*{first}"):
        bow_check(reference, bent, steps)


# -- reflection surgery --------------------------------------------------------


def _reflect_concat(curve, split_index, normal):
    """Reflect the vertices up to ``split_index`` across the hyperplane
    <normal, x> = 0 (unit normal) and keep the tail.  On a curve tangent to
    the mirror at the split vertex, turning angles away from the split are
    kept (reflection is an isometry) and the one at the split does not grow."""
    head = curve.vertices[: split_index + 1]
    head = head - 2.0 * np.outer(head @ normal, normal)
    vertices = np.vstack([head[:-1], curve.vertices[split_index:]])
    return DiscreteCurve(vertices, curve.nominal_step, edge_tol=max(curve.edge_tol, 4e-9))


def test_reflect_identity_when_curve_in_mirror():
    seg = straight_segment(1.0, 1e-2, dim=3)  # lies in z = 0
    out = _reflect_concat(seg, 50, np.array([0.0, 0.0, 1.0]))
    assert np.max(np.abs(out.vertices - seg.vertices)) <= 1e-12


def test_reflect_preserves_curvature_away_from_split():
    # planar arc tangent to the plane x2 = 0 at its midpoint
    r = 2.0 / 3.0
    length = math.pi / 2.0
    n = 300
    h = length / n
    s = np.linspace(-length / 2.0, length / 2.0, n + 1)
    pts = np.column_stack([r * np.sin(s / r), r * np.cos(s / r) - r])
    arc = DiscreteCurve(pts, nominal_step=h, edge_tol=1e-6)
    out = _reflect_concat(arc, n // 2, np.array([0.0, 1.0]))
    k_in = discrete_curvature(arc)
    k_out = discrete_curvature(out)
    mid = n // 2
    mask = np.ones(len(k_in), dtype=bool)
    mask[mid - 1] = False
    assert np.max(np.abs(k_in[mask] - k_out[mask])) <= 1e-9
    assert k_out[mid - 1] <= k_in[mid - 1] + 1e-9  # turning does not increase


def test_reflect_tangency_contradiction_gap_above_one():
    # reflected tangency configuration compared against the half circle of
    # curvature 2: the straightened bow has endpoint gap above 1
    r = 2.0 / 3.0
    length = math.pi / 2.0
    n = 300
    h = length / n
    s = np.linspace(-length / 2.0, length / 2.0, n + 1)
    pts = np.column_stack([r * np.sin(s / r), r * np.cos(s / r) - r])
    arc = DiscreteCurve(pts, nominal_step=h, edge_tol=1e-6)
    hat = _reflect_concat(arc, n // 2, np.array([0.0, 1.0]))
    half = sample_circle_arc(0.5, length, h)
    rep = _bow(half, hat)
    assert rep.inequality_holds
    assert rep.endpoint_gap_2 > 1.0


# -- monotonicity ---------------------------------------------------------------


def _monotonicity(curve, *t0):
    """``monotonicity_check`` on a stack of copies of one curve, one per start."""
    stack = np.broadcast_to(curve.vertices, (len(t0), *curve.vertices.shape))
    return monotonicity_check(stack, np.full(len(t0), curve.nominal_step), np.array(t0))


def test_monotonicity_straight_segment():
    seg = straight_segment(math.pi / 2.0, 1e-3)
    values = _monotonicity(seg, 0, 700, seg.n_vertices - 1)
    assert values == pytest.approx(np.full(3, math.pi / 2.0), abs=1e-12)


def test_monotonicity_circle_arc_against_closed_form():
    c = sample_circle_arc(0.6, math.pi / 2.0, 1e-3)
    mid = c.n_vertices // 2
    (value,) = _monotonicity(c, mid)
    analytic = 1.2 * math.sin(math.pi / 2.4)
    assert value == pytest.approx(analytic, abs=1e-5)
    assert value > 0.0


def test_monotonicity_curvature_precondition():
    c = sample_circle_arc(0.45, math.pi / 2.0, 1e-3)  # curvature 2.22 > 2
    with pytest.raises(InvalidComparison, match="curvature"):
        _monotonicity(c, 10)
    with pytest.raises(InvalidComparison, match="length"):
        _monotonicity(straight_segment(1.0, 1e-3), 5)


def test_monotonicity_rejects_bad_start_indices():
    seg = straight_segment(math.pi / 2.0, 1e-2)  # 158 vertices
    stack = np.stack([seg.vertices] * 3)
    steps = np.full(3, seg.nominal_step)
    starts = np.array([0, 80, 157])
    expected = monotonicity_check(stack, steps, starts)
    assert np.array_equal(monotonicity_check(stack, steps, starts.astype(np.uint8)), expected)
    for t0, message in (
        ([0, 1.5, 2], r"^t0\[1\] = 1\.5: expected an integer vertex index$"),
        ([0.0, 1.0, 2.0], r"^t0\[0\] = 0\.0: expected an integer vertex index$"),
        ([False, True, True], r"^t0\[0\] = False: expected an integer vertex index$"),
        ([0, 5, 158], r"^t0\[2\] = 158 is out of range \[0, 158\)$"),
        ([0, -1, 3], r"^t0\[1\] = -1 is out of range \[0, 158\)$"),
        ([0, 1], r"^need one step and one t0 a trial for 3 trials$"),
    ):
        with pytest.raises(ValueError, match=message) as err:
            monotonicity_check(stack, steps, np.array(t0))
        assert not isinstance(err.value, InvalidComparison)


def test_monotonicity_random_positive():
    rng = np.random.default_rng(75)
    n = 157
    h = (math.pi / 2.0) / n
    steps = np.full(200, h)
    curve = random_space_curve(_profiles(rng, 200, n - 1, 1.9) * h, steps, rng.standard_normal((200, n, 3)))
    assert (monotonicity_check(curve, steps, rng.integers(0, n + 1, 200)) > 0.0).all()


# -- averaged curvature bound ----------------------------------------------------


def _regular_polygons(n):
    """A regular n-gon on the unit circle of R^2, and the same polygon on a
    great circle of R^5."""
    planar = sample_circle_arc(1.0, None, 2.0 * math.pi / n, closed=True)
    assert planar.n_vertices == n
    frame = np.linalg.qr(np.random.default_rng(n).standard_normal((5, 2)))[0]
    return planar, planar.vertices @ frame.T


def test_fary_great_circle_equality():
    # the middle bound L <= R sum 2 sin(theta / 2) is attained; the exterior
    # angles overshoot it by pi / (n sin(pi / n))
    for n in (16, 1000):
        for polygon in _regular_polygons(n):
            rep = fary_check(polygon)
            assert abs(rep.chord_ratio - 1.0) <= 1e-12
            excess = math.pi / (n * math.sin(math.pi / n)) - 1.0
            assert abs((rep.average_curvature - 1.0) - excess) <= 1e-12
            assert abs(rep.enclosing_radius - 1.0) <= 1e-15
            assert rep.bound_satisfied
            # the documented error model, which is also C9's tolerance
            dim = 2 if isinstance(polygon, DiscreteCurve) else polygon.shape[1]
            assert rep.rounding == (dim + 16) * n * np.finfo(float).eps


def test_fary_half_radius_circle():
    c = sample_circle_arc(0.5, None, 1e-3, closed=True)
    n = c.n_vertices
    rep = fary_check(c)
    # the exact polygon value: 2 pi over the perimeter n sin(pi / n)
    assert rep.average_curvature == pytest.approx(2.0 * math.pi / (n * math.sin(math.pi / n)), rel=1e-12)
    assert rep.enclosing_radius == pytest.approx(0.5, abs=1e-15)
    assert rep.chord_ratio == pytest.approx(1.0, abs=1e-12)
    assert rep.bound_satisfied


def test_fary_open_curve_rejected():
    with pytest.raises(InvalidComparison, match="closed"):
        fary_check(straight_segment(1.0, 1e-2))


def test_fary_outside_ball_rejected():
    big = sample_circle_arc(1.5, None, 1e-3, closed=True)
    with pytest.raises(InvalidComparison, match="unit ball"):
        fary_check(big)
    # the containment test is at rounding: a scale of 1 + 1e-9 is caught
    polygons = [*_regular_polygons(1000), random_closed_curve(np.random.default_rng(81), dim=5)]
    for polygon in polygons:
        fary_check(polygon)
        vertices = polygon.vertices if isinstance(polygon, DiscreteCurve) else polygon
        with pytest.raises(InvalidComparison, match="unit ball"):
            fary_check(vertices * (1.0 + 1e-9))


def test_fary_rejects_non_finite_and_degenerate_polygons():
    square = np.array([[0.5, 0.0], [0.0, 0.5], [-0.5, 0.0], [0.0, -0.5]])
    assert fary_check(square).bound_satisfied
    for bad in (math.nan, math.inf):
        vertices = square.copy()
        vertices[1, 1] = bad
        with pytest.raises(InvalidComparison, match="non-finite"):
            fary_check(vertices)
    with pytest.raises(InvalidComparison, match="zero-length edge"):
        fary_check(np.vstack([square, square[:1]]))
    for shape in (square[:2], square[:, 0]):
        with pytest.raises(InvalidComparison, match="at least 3"):
            fary_check(shape)


def test_fary_random_curves_hold():
    rng = np.random.default_rng(76)
    for k in range(15):
        dim = 3 if k % 5 else 5
        polygon = random_closed_curve(rng, dim=dim)
        assert polygon.shape[1] == dim and 64 <= len(polygon) <= 40000
        rep = fary_check(polygon)
        assert rep.bound_satisfied
        assert abs(rep.enclosing_radius - 1.0) <= (dim + 4) * np.finfo(float).eps
        # L <= R sum 2 sin(theta / 2) <= R sum theta, each to rounding
        assert rep.chord_ratio >= 1.0 - rep.rounding
        assert rep.average_curvature * rep.enclosing_radius >= rep.chord_ratio * (1.0 - rep.rounding)


def test_fary_equality_only_for_great_circles():
    # among the corpus, averages within 1e-3 of 1 must align to a unit circle
    rng = np.random.default_rng(77)
    corpus = [random_closed_curve(rng) for _ in range(8)]
    corpus.append(sample_circle_arc(1.0, None, 1e-3, closed=True).vertices)
    for polygon in corpus:
        rep = fary_check(polygon)
        if rep.average_curvature <= 1.0 + 1e-3:
            center, radius, residual = fit_circle(polygon)
            assert radius == pytest.approx(1.0, abs=1e-3)
            assert residual <= 1e-3
            assert planarity_residual(polygon) <= 1e-3


# -- circle fitting ---------------------------------------------


def _thin_svd_fit_circle(points):
    """The thin-SVD ``fit_circle`` that the QR-first one replaced."""
    mean = points.mean(axis=0)
    centered = points - mean
    plane = np.linalg.svd(centered, full_matrices=False)[2][:2]
    xy = centered @ plane.T
    a = np.column_stack([2.0 * xy, np.ones(len(xy))])
    sol, *_ = np.linalg.lstsq(a, np.einsum("ij,ij->i", xy, xy), rcond=None)
    radius = math.sqrt(max(sol[2] + float(sol[:2] @ sol[:2]), 0.0))
    residual = float(np.sqrt(np.mean((np.linalg.norm(xy - sol[:2], axis=1) - radius) ** 2)))
    return mean + sol[:2] @ plane, radius, residual


def _thin_svd_planarity(points):
    s = np.linalg.svd(points - points.mean(axis=0), compute_uv=False)
    return 0.0 if s.size < 3 or s[0] == 0.0 else float(s[2] / s[0])


def _assert_matches_thin_svd(points):
    center, radius, residual = fit_circle(points)
    want_center, want_radius, want_residual = _thin_svd_fit_circle(points)
    assert np.max(np.abs(center - want_center)) <= 1e-12
    assert abs(radius - want_radius) <= 1e-12
    assert abs(residual - want_residual) <= 1e-12
    assert abs(planarity_residual(points) - _thin_svd_planarity(points)) <= 1e-12


@pytest.mark.parametrize("field", ["real", "complex", "quaternion"])
def test_qr_first_fits_match_thin_svd_on_geodesic_circles(field):
    spc = veronese.space(field, 2)
    point, _ = closed_form_circle(spc, *orthonormal_pair(spc, np.random.default_rng(83)))
    _assert_matches_thin_svd(point(np.linspace(0.0, math.pi, 3142, endpoint=False)))


@pytest.mark.parametrize("dim", [3, 5, 27])
def test_qr_first_fits_match_thin_svd_on_near_planar_clouds(dim):
    rng = np.random.default_rng(84 + dim)
    for noise in (0.0, 1e-9, 1e-6, 1e-3):
        frame, _ = np.linalg.qr(rng.standard_normal((dim, 2)))
        ts = rng.uniform(0.0, 2.0 * math.pi, 500)
        cloud = 0.7 * np.column_stack([np.cos(ts), np.sin(ts)]) @ frame.T
        _assert_matches_thin_svd(cloud + rng.standard_normal(dim) + noise * rng.standard_normal(cloud.shape))


@pytest.mark.parametrize(
    "rows, dim",
    [(n, d) for d in (3, 9, 27) for n in (3, 255, 256, 257, 512, 3142)] + [(8, 9), (26, 27)],
)
def test_blocked_factor_fits_match_thin_svd(rows, dim):
    # 257 rows leave a one-row tail block; fewer rows than dim a trapezoidal R
    rng = np.random.default_rng([87, rows, dim])
    frame, _ = np.linalg.qr(rng.standard_normal((dim, 2)))
    ts = rng.uniform(0.0, 2.0 * math.pi, rows)
    cloud = 0.5 * np.column_stack([np.cos(ts), np.sin(ts)]) @ frame.T
    _assert_matches_thin_svd(cloud + rng.standard_normal(dim) + 1e-6 * rng.standard_normal(cloud.shape))


@pytest.mark.parametrize("rows", [3, 121, _QR_BLOCK])
def test_one_block_factor_is_the_unblocked_qr(rows):
    # clouds of one block, bow_check's 121 rows among them, keep their bits
    cloud = np.random.default_rng(88).standard_normal((rows, 5))
    _, centered, factor = _centered_factor(cloud)
    assert np.array_equal(factor, np.linalg.qr(centered, mode="r"))


@needs_schedstat
@pytest.mark.parametrize("dim", [15, 27])
def test_circle_fit_keeps_to_the_calling_thread(dim):
    # one QR of a whole (1048, 15) cloud runs multithreaded in OpenBLAS and
    # spins a worker thread on another core; neither fit may wake one
    rng = np.random.default_rng(89)
    frame, _ = np.linalg.qr(rng.standard_normal((dim, 2)))
    ts = np.linspace(0.0, 2.0 * math.pi, 1048)
    cloud = 0.5 * np.column_stack([np.cos(ts), np.sin(ts)]) @ frame.T
    cloud += 1e-9 * rng.standard_normal(cloud.shape)

    def run():
        for _ in range(10):
            curves.fit_circle(cloud)
            curves.planarity_residual(cloud)

    assert other_threads_cpu_ms(run) == 0.0


def test_planarity_residual_zero_below_three_dimensions():
    rng = np.random.default_rng(85)
    for dim in (1, 2):
        cloud = rng.standard_normal((50, dim))
        assert planarity_residual(cloud) == _thin_svd_planarity(cloud) == 0.0


@pytest.mark.parametrize("dim", range(1, 8))
def test_row_norms_match_numpy_bit_for_bit(dim):
    # a numpy change to the norm's summation order shows up here
    rng = np.random.default_rng(86 + dim)
    for scale in (1.0, 1e-3, 1e100, 1e-160):
        for n in (1, 2, 7, 100, 4096):
            x = scale * rng.standard_normal((n, dim))
            assert np.array_equal(_row_norms(x), np.linalg.norm(x, axis=1))


def test_fit_circle_exact():
    ts = np.linspace(0.0, 2.0 * math.pi, 100, endpoint=False)
    pts3 = np.column_stack(
        [2.0 + 0.75 * np.cos(ts), -1.0 + 0.75 * np.sin(ts), np.full_like(ts, 3.0)]
    )
    center, radius, residual = fit_circle(pts3)
    assert radius == pytest.approx(0.75, abs=1e-12)
    assert residual <= 1e-12
    assert np.allclose(center, [2.0, -1.0, 3.0], atol=1e-12)


# -- generator fast paths against their oracles -------------------------------------


def _reference_space_curve(rows, turning, step):
    """The per-vertex numpy loop ``random_space_curve`` replaced, reading
    the rows of one block in order."""
    t = rows[0] / np.linalg.norm(rows[0])
    tangents = [t]
    for theta, xi in zip(turning, rows[1:]):
        normal = xi - (xi @ t) * t
        normal /= np.linalg.norm(normal)
        t = math.cos(theta) * t + math.sin(theta) * normal
        t /= np.linalg.norm(t)
        tangents.append(t)
    return np.vstack([np.zeros(len(t)), np.cumsum(step * np.array(tangents), axis=0)])


@pytest.mark.parametrize("dim", [2, 3, 5])
def test_space_curve_matches_per_vertex_oracle(dim):
    h = (math.pi / 2.0) / 157
    seeds = range(10)
    turning = h * np.array(
        [random_curvature_profile(np.random.default_rng(100 + s), 156, high=1.9) for s in seeds]
    )
    blocks = np.stack([np.random.default_rng(s).standard_normal((157, dim)) for s in seeds])
    fast = random_space_curve(turning, np.full(10, h), blocks)
    assert fast.shape == (10, 158, dim)
    for vertices, t, block in zip(fast, turning, blocks):
        assert np.max(np.abs(vertices - _reference_space_curve(block, t, h))) <= 1e-14


def test_space_curve_rejects_a_row_along_the_tangent():
    # the second trial's first normal row is parallel to its initial tangent
    blocks = np.random.default_rng(78).standard_normal((3, 6, 3))
    blocks[1, 0] = [1.0, 0.0, 0.0]
    blocks[1, 1] = [3.0, 0.0, 0.0]
    with pytest.raises(RuntimeError, match="^degenerate normal draw$"):
        random_space_curve(np.full((3, 5), 0.1), np.full(3, 0.01), blocks)
    kept = random_space_curve(np.full((2, 5), 0.1), np.full(2, 0.01), blocks[::2])
    assert kept.shape == (2, 7, 3)


def test_stacked_generators_check_every_edge():
    # one edge-length check per stack: a NaN turning angle in one trial ends
    # in a ValueError, not in a stack of NaN vertices
    message = r"^edge lengths deviate from nominal_step by nan \(tolerance 1\.0e-09\)$"
    turning = np.full((2, 5), 0.1)
    turning[1, 2] = math.nan
    rows = np.random.default_rng(91).standard_normal((2, 6, 3))
    with pytest.raises(ValueError, match=message):
        random_space_curve(turning, np.full(2, 0.01), rows)
    with pytest.raises(ValueError, match=message):
        random_convex_arc(turning, np.full(2, 0.01))


def _loop_coefficients(seed, dim):
    """The loop that ``random_closed_curve`` draws from ``default_rng(seed)``,
    by its documented stream."""
    rng = np.random.default_rng(seed)
    ks = np.arange(1, 4)[:, None]
    return rng.standard_normal((3, dim)) / ks**2, rng.standard_normal((3, dim)) / ks**2, rng


def _loop_frame(coef_cos, coef_sin, polygon):
    """Scale R and centre c with R * polygon + c closest to the loop at the
    polygon's uniform parameters, and the largest residual."""
    u = 2.0 * math.pi * np.arange(len(polygon)) / len(polygon)
    loop = sum(
        np.outer(np.cos(k * u), a) + np.outer(np.sin(k * u), b)
        for k, a, b in zip((1, 2, 3), coef_cos, coef_sin)
    )
    dp, dl = polygon - polygon.mean(axis=0), loop - loop.mean(axis=0)
    scale = float(np.sum(dp * dl) / np.sum(dp * dp))
    centre = loop.mean(axis=0) - scale * polygon.mean(axis=0)
    return scale, centre, float(np.max(np.abs(scale * polygon + centre - loop)))


def test_closed_curve_samples_its_loop():
    for seed, dim, step in ((79, 3, 1e-3), (80, 5, 2e-3), (79, 3, 0.5), (79, 3, 1e-5)):
        first = random_closed_curve(np.random.default_rng(seed), dim=dim, step_target=step)
        second = random_closed_curve(np.random.default_rng(seed), dim=dim, step_target=step)
        assert np.array_equal(first, second)
        coef_cos, coef_sin, rng = _loop_coefficients(seed, dim)
        scale, centre, residual = _loop_frame(coef_cos, coef_sin, first)
        assert residual <= 1e-13 * scale
        # the vertex count follows the scaled length, clipped to [64, 40000]
        length = float(np.sum(np.linalg.norm(np.roll(first, -1, axis=0) - first, axis=1)))
        assert abs(len(first) / np.clip(length / step, 64, 40000) - 1.0) <= 1e-3
        assert np.max(np.linalg.norm(first, axis=1)) == pytest.approx(1.0, abs=1e-15)
        # the draw reads two (3, dim) blocks and nothing more
        after = np.random.default_rng(seed)
        assert np.array_equal(after.standard_normal(6 * dim + 1)[-1:], rng.standard_normal(1))


def _simpson_loop_integrals(coef_cos, coef_sin):
    """Length and total curvature of a smooth loop, by the composite Simpson
    rule on 16,385 parameters: the arc-length rule of the generator's former
    arc-length resampling, kept here as the oracle."""
    from scipy.integrate import simpson

    u = np.linspace(0.0, 2.0 * math.pi, 2 * 8192 + 1)
    ks = np.arange(1, 4)
    arg = np.outer(u, ks)
    d1 = (-np.sin(arg) * ks) @ coef_cos + (np.cos(arg) * ks) @ coef_sin
    d2 = (-np.cos(arg) * ks**2) @ coef_cos + (-np.sin(arg) * ks**2) @ coef_sin
    speed_sq = np.einsum("ij,ij->i", d1, d1)
    cross_sq = speed_sq * np.einsum("ij,ij->i", d2, d2) - np.einsum("ij,ij->i", d1, d2) ** 2
    curvature_speed = np.sqrt(np.maximum(cross_sq, 0.0)) / speed_sq
    return simpson(np.sqrt(speed_sq), x=u), simpson(curvature_speed, x=u)


def test_closed_polygon_average_converges_to_smooth_loop():
    # a polygon sampling the loop at uniform parameters has Sum theta / L within
    # O(h^2) of the smooth loop's R int(kappa ds) / L, R the polygon's scale
    for seed, dim in ((82, 3), (83, 5)):
        coef_cos, coef_sin, _ = _loop_coefficients(seed, dim)
        length, total_curvature = _simpson_loop_integrals(coef_cos, coef_sin)
        errors, counts = [], []
        for step in (4e-3, 2e-3, 1e-3):
            polygon = random_closed_curve(np.random.default_rng(seed), dim=dim, step_target=step)
            scale = _loop_frame(coef_cos, coef_sin, polygon)[0]
            errors.append(fary_check(polygon).average_curvature - scale * total_curvature / length)
            counts.append(len(polygon))
        for k in (1, 2):
            order = math.log(abs(errors[k - 1] / errors[k])) / math.log(counts[k] / counts[k - 1])
            assert 1.9 <= order <= 2.1
        assert abs(errors[-1]) <= 1e-5


def test_stacked_space_curves_pad_every_dim_exactly():
    rng = np.random.default_rng(88)
    h = (math.pi / 2.0) / 120
    dims = [2, 5, 3, 3, 2, 5]
    turning = np.array([random_curvature_profile(rng, 119, high=1.9) * h for _ in dims])
    steps = rng.uniform(0.005, 0.02, len(dims))
    blocks = [rng.standard_normal((120, d)) for d in dims]
    rows = np.zeros((len(dims), 120, 5))
    for target, block in zip(rows, blocks):
        target[:, : block.shape[1]] = block
    stacked = random_space_curve(turning, steps, rows)
    assert stacked.shape == (len(dims), 121, 5)
    for vertices, t, step, block in zip(stacked, turning, steps, blocks):
        (single,) = random_space_curve(t[None], np.array([step]), block[None])
        assert np.array_equal(vertices[:, : block.shape[1]], single)
        assert not vertices[:, block.shape[1] :].any()


def test_stacked_profiles_and_arcs_match_per_trial_oracle():
    # trial k's profile is drawn from default_rng(k), which the oracle's arc
    # draws from too; caps up to 5 make the 0.98 pi turning cap bind on some
    rng = np.random.default_rng(90)
    steps, caps = rng.uniform(0.005, 0.02, 200), rng.uniform(0.5, 5.0, 200)
    kappa = curvature_profiles(np.array([draw_profile(np.random.default_rng(k)) for k in range(200)]), 119, caps)
    arcs = random_convex_arc(kappa, steps)
    assert arcs.shape == (200, 121, 2)
    # turning angles of a stack are the per-curve ones, row by row
    for k, (vertices, turning) in enumerate(zip(arcs, turning_angles(arcs))):
        arc = curve_oracle.random_convex_arc(np.random.default_rng(k), 120, steps[k], caps[k])
        assert np.array_equal(vertices, arc.vertices)
        assert np.array_equal(turning, curve_oracle.turning_angles(arc))
    assert 20 <= np.count_nonzero(np.sum(kappa, axis=1) * steps > 0.98 * math.pi) <= 180
