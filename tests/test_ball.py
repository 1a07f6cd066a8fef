"""Minimal enclosing ball: feasibility, optimality witnesses, certificate, known sets."""

import itertools
import math

import numpy as np
import pytest
from scipy.optimize import minimize

from normcurve import curves, veronese
from normcurve.ball import Ball, min_enclosing_ball
from thread_cpu import needs_schedstat, other_threads_cpu_ms


def test_empty_rejected():
    with pytest.raises(ValueError):
        min_enclosing_ball(np.zeros((0, 3)))


def test_ball_has_no_default_certificate():
    # a ball built without a run must not claim to be converged
    with pytest.raises(TypeError):
        Ball(np.zeros(2), 1.0)


def test_single_point():
    b = min_enclosing_ball(np.array([[1.0, 2.0, 3.0]]))
    assert b.radius == 0.0
    assert np.array_equal(b.center, [1.0, 2.0, 3.0])


def test_two_points():
    b = min_enclosing_ball(np.array([[0.0, 0.0], [2.0, 0.0]]), tol=1e-5)
    assert b.radius == pytest.approx(1.0, abs=1e-4)
    assert np.allclose(b.center, [1.0, 0.0], atol=1e-4)


def test_denormal_tol_keeps_the_iteration_cap():
    # the square's mean is its centre, so the bounds meet before any pivot
    square = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
    b = min_enclosing_ball(square, tol=1e-320)
    assert b.radius == 1.0 and b.iterations == 0 and b.converged
    # a gap below rounding cannot certify: the run ends at the exact optimum,
    # or at a given cap, and says so; on the cospherical HP2 cloud the
    # farthest point ties the support to rounding and cannot enter
    hp2 = veronese.space_from_name("hp2")
    for pts in (
        np.random.default_rng(66).standard_normal((200, 6)),
        veronese.sample_points(hp2, hp2.m * 20, np.random.default_rng(65)),
    ):
        b = min_enclosing_ball(pts, tol=1e-320)
        assert b.iterations <= 2 * (pts.shape[1] + 1) and b.gap <= 1e-15 * b.radius
        assert b.converged == (b.gap <= 1e-320 * b.radius)
    capped = min_enclosing_ball(pts, tol=1e-320, max_iter=2)
    assert capped.iterations == 2 and not capped.converged


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_points_rejected(bad):
    pts = np.random.default_rng(67).standard_normal((10, 3))
    pts[4, 1] = bad
    with pytest.raises(ValueError, match="^min_enclosing_ball requires finite points$"):
        min_enclosing_ball(pts)


def test_huge_points_get_a_finite_certificate():
    # squared distances of ±1e200 overflow; the scaled solve does not
    unit = np.random.default_rng(68).standard_normal((50, 4))
    b = min_enclosing_ball(unit * 1e200, tol=1e-12)
    ref = min_enclosing_ball(unit, tol=1e-12)
    assert b.converged and math.isfinite(b.lower_bound)
    assert b.radius == pytest.approx(ref.radius * 1e200, rel=1e-12)
    covering = np.max(np.linalg.norm((unit * 1e200 - b.center) / b.radius, axis=1))
    assert covering == pytest.approx(1.0, rel=1e-15)
    with pytest.raises(ValueError, match="^min_enclosing_ball: the radius overflows a float$"):
        min_enclosing_ball(np.array([[1.5e308, 1.5e308], [-1.5e308, -1.5e308]]))


@pytest.mark.parametrize("tol", [0.0, -1e-3, math.nan])
def test_tol_not_positive_rejected(tol):
    with pytest.raises(ValueError, match=f"^tol = {tol!r}: expected a positive number$"):
        min_enclosing_ball(np.eye(2), tol=tol)


def test_equilateral_triangle():
    pts = np.array(
        [[math.cos(a), math.sin(a)] for a in (0.0, 2.0 * math.pi / 3.0, 4.0 * math.pi / 3.0)]
    ) / math.sqrt(3.0)  # unit side length
    assert np.linalg.norm(pts[0] - pts[1]) == pytest.approx(1.0, abs=1e-12)
    b = min_enclosing_ball(pts, tol=1e-5)
    assert b.radius == pytest.approx(1.0 / math.sqrt(3.0), abs=1e-4)


def test_feasibility_and_half_diameter_on_random_sets():
    rng = np.random.default_rng(61)
    for _ in range(20):
        pts = rng.standard_normal((rng.integers(2, 200), rng.integers(2, 8)))
        b = min_enclosing_ball(pts, tol=1e-4)
        d = np.linalg.norm(pts - b.center, axis=1)
        assert np.max(d) <= b.radius * (1.0 + 1e-4) + 1e-12  # feasible
        diam = 0.0
        for p in pts[:: max(1, len(pts) // 20)]:
            diam = max(diam, np.max(np.linalg.norm(pts - p, axis=1)))
        assert b.radius >= diam / 2.0 - 1e-9  # optimality witness
        assert b.lower_bound <= b.radius + 1e-12


def test_monotonicity_under_insertion():
    rng = np.random.default_rng(62)
    pts = rng.standard_normal((50, 4))
    base = min_enclosing_ball(pts, tol=1e-5).radius
    extended = min_enclosing_ball(
        np.vstack([pts, rng.standard_normal((10, 4))]), tol=1e-5
    ).radius
    assert extended >= base - 1e-5 * base


def test_determinism_for_fixed_order():
    rng = np.random.default_rng(63)
    pts = rng.standard_normal((100, 5))
    b1 = min_enclosing_ball(pts, tol=1e-5)
    b2 = min_enclosing_ball(pts, tol=1e-5)
    assert b1.radius == b2.radius
    assert np.array_equal(b1.center, b2.center)
    assert b1.iterations == b2.iterations


def test_veronese_rp2_cloud():
    spc = veronese.space("real", 2)
    rng = np.random.default_rng(64)
    pts = veronese.sample_points(spc, 300, rng)
    b = min_enclosing_ball(pts, tol=1e-4)
    assert b.radius == pytest.approx(1.0 / math.sqrt(3.0), abs=1e-4)
    assert np.linalg.norm(b.center) <= 1e-3


def _slsqp_radius(pts):
    """Minimal enclosing radius from the epigraph problem min t s.t.
    |p_i - c|^2 <= t, solved by SLSQP in centred, normalized coordinates.
    Returns the exact covering radius of the solver's center."""
    shift = pts.mean(axis=0)
    scale = float(np.max(np.linalg.norm(pts - shift, axis=1)))
    q = (pts - shift) / scale
    d = q.shape[1]
    res = minimize(
        lambda x: x[-1],
        np.append(np.zeros(d), 1.0),
        jac=lambda x: np.eye(d + 1)[-1],
        method="SLSQP",
        constraints={
            "type": "ineq",
            "fun": lambda x: x[-1] - np.sum((q - x[:-1]) ** 2, axis=1),
            "jac": lambda x: np.column_stack([2.0 * (q - x[:-1]), np.ones(len(q))]),
        },
        options={"ftol": 1e-12, "maxiter": 500},
    )
    assert res.success, res.message
    covering = float(np.max(np.linalg.norm(q - res.x[:-1], axis=1)))
    assert covering == pytest.approx(math.sqrt(res.x[-1]), rel=1e-9)  # feasible optimum
    return scale * covering


@pytest.mark.parametrize("seed", [81, 82, 83])
def test_certificate_against_slsqp_oracle(seed):
    rng = np.random.default_rng(seed)
    for dim in range(2, 7):
        n = int(rng.integers(2, 61))
        pts = rng.standard_normal((n, dim)) * rng.uniform(0.1, 10.0) + rng.uniform(-100.0, 100.0, dim)
        exact = _slsqp_radius(pts)
        for tol, cap in ((1e-2, None), (1e-4, None), (1e-4, 5)):
            b = min_enclosing_ball(pts, tol=tol, max_iter=cap)
            assert b.lower_bound <= exact * (1.0 + 1e-12)
            assert exact <= b.radius * (1.0 + 1e-9)
            assert b.radius == np.max(np.linalg.norm(pts - b.center, axis=1))
            if b.converged:
                assert b.radius - b.lower_bound <= tol * b.radius
            else:
                assert b.iterations == cap


@pytest.mark.parametrize("name", ["rp2", "cp2", "hp2", "op2", "rp3"])
def test_veronese_frame_clouds_certified_at_the_mean(name):
    # complete frames sum to the identity, so the mean is the exact center
    # and the uniform dual weights already give the exact radius
    spc = veronese.space_from_name(name)
    pts = veronese.sample_points(spc, spc.m * 100, np.random.default_rng(65))
    b = min_enclosing_ball(pts, tol=1e-4)
    assert b.iterations == 0
    assert b.converged
    assert b.gap <= 1e-12
    assert np.array_equal(b.center, pts.mean(axis=0))


def test_certificate_survives_a_far_offset():
    # both bounds cancel squared norms; far from the origin that rounding
    # must not lift the dual bound above the radius
    spc = veronese.space_from_name("cp2")
    pts = veronese.sample_points(spc, spc.m * 100, np.random.default_rng(65)) + 1e6
    b = min_enclosing_ball(pts, tol=1e-4)
    assert b.converged
    assert b.lower_bound <= spc.sphere_radius + 1e-9
    assert b.radius >= spc.sphere_radius - 1e-9


def _duplicates(rng):
    base = rng.standard_normal((int(rng.integers(2, 40)), int(rng.integers(1, 6))))
    pts = np.repeat(base, 3, axis=0)
    return pts[rng.permutation(len(pts))], None


def _collinear(rng):
    t = rng.uniform(-2.0, 3.0, int(rng.integers(2, 60)))
    return t[:, None] * rng.standard_normal(5) + rng.standard_normal(5), None


def _half_circle_arc(rng):
    # the endpoints are antipodal, so the circle is the minimal ball; the
    # mean lies off its centre
    rho = rng.uniform(0.5, 2.0)
    t = np.linspace(0.0, math.pi, int(rng.integers(3, 80)))
    frame, _ = np.linalg.qr(rng.standard_normal((3, 2)))
    arc = rho * np.column_stack([np.cos(t), np.sin(t)]) @ frame.T
    return arc + rng.standard_normal(3), rho


def _plane_loop(rng):
    # a 3-harmonic loop in a 2-plane of R^5: every four points are dependent
    ks = np.arange(1, 4)[:, None]
    plane, _ = np.linalg.qr(rng.standard_normal((5, 2)))
    coef_cos, coef_sin = rng.standard_normal((2, 3, 2)) / ks**2
    return curves._harmonic_loop(coef_cos, coef_sin, 256) @ plane.T, None


def _on_sphere(rng):
    # more than D + 1 points on the unit sphere, one antipodal pair among
    # them, so the unit sphere is the minimal ball
    dim = int(rng.integers(2, 6))
    pts = rng.standard_normal((int(rng.integers(3 * dim, 60)), dim))
    pts[1] = -pts[0]
    return pts / np.linalg.norm(pts, axis=1, keepdims=True), 1.0


@pytest.mark.parametrize(
    "family", [_duplicates, _collinear, _half_circle_arc, _plane_loop, _on_sphere]
)
def test_degenerate_sets_certify_to_rounding(family):
    rng = np.random.default_rng(95)
    for _ in range(20):
        pts, known = family(rng)
        exact = _slsqp_radius(pts) if known is None else known
        b = min_enclosing_ball(pts, tol=1e-12)
        assert b.converged and b.gap <= 1e-12 * b.radius
        assert b.iterations <= 2 * (pts.shape[1] + 1)
        assert b.lower_bound <= exact * (1.0 + 1e-12)
        assert exact <= b.radius * (1.0 + 1e-9)
        again = min_enclosing_ball(pts, tol=1e-12)
        assert again.radius == b.radius and again.iterations == b.iterations
        assert np.array_equal(again.center, b.center)


def _brute_force_radius(pts):
    """Independent oracle for small sets: the circumcentre of every affinely
    independent subset of at most D + 1 points, and the least covering
    radius among them.  No centre covers with less than the minimal radius,
    and the minimal centre is the circumcentre of its support, so the least
    is the minimal radius, cospherical or not."""
    centers = [pts]  # the one-point subsets
    for size in range(2, min(len(pts), pts.shape[1] + 1) + 1):
        subsets = np.array(list(itertools.combinations(range(len(pts)), size)))
        base = pts[subsets[:, 0]]
        edges = pts[subsets[:, 1:]] - base[:, None]
        gram = edges @ edges.transpose(0, 2, 1)  # |c - p_i| = |c - base|: 2 gram lam = diag
        keep = np.linalg.matrix_rank(gram) == size - 1
        rhs = np.diagonal(gram[keep], axis1=1, axis2=2)[..., None]
        lam = np.linalg.solve(2.0 * gram[keep], rhs)
        centers.append(base[keep] + (lam.transpose(0, 2, 1) @ edges[keep])[:, 0])
    centers = np.concatenate(centers)
    return float(np.min(np.max(np.linalg.norm(pts - centers[:, None], axis=2), axis=1)))


def _small_cospherical(rng):
    # up to 10 points on a sphere in R^2 or R^3, on a cap of random size:
    # the sphere is the minimal ball only when the cap is wide enough
    dim = int(rng.integers(2, 4))
    axis = np.eye(dim)[0]
    pts = rng.standard_normal((int(rng.integers(2, 11)), dim))
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    pts = np.where((pts @ axis)[:, None] < rng.uniform(-1.0, 0.5), -pts, pts)
    return rng.uniform(0.5, 2.0) * pts + rng.standard_normal(dim)


def _small_duplicates(rng):
    base = rng.standard_normal((int(rng.integers(1, 4)), int(rng.integers(1, 4))))
    pts = base[rng.integers(len(base), size=int(rng.integers(len(base), 11)))]
    return np.concatenate([base, pts])[:10]


def _small_collinear(rng):
    dim = int(rng.integers(1, 4))
    t = rng.uniform(-2.0, 3.0, int(rng.integers(2, 11)))
    return t[:, None] * rng.standard_normal(dim) + rng.standard_normal(dim)


def _small_general(rng):
    # up to 10 Gaussian points in R^1 ... R^3, where SLSQP is not needed either
    dim = int(rng.integers(1, 4))
    return rng.standard_normal((int(rng.integers(2, 11)), dim)) * rng.uniform(0.1, 10.0)


def test_brute_force_oracle_meets_closed_forms():
    rng = np.random.default_rng(96)
    for _ in range(10):
        arc, rho = _half_circle_arc(rng)
        arc = arc[np.linspace(0, len(arc) - 1, min(len(arc), 10)).astype(int)]  # keeps both ends
        assert _brute_force_radius(arc) == pytest.approx(rho, rel=1e-13)
    square = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0], [0.5, 0.5]])
    assert _brute_force_radius(square) == pytest.approx(1.0, rel=1e-15)
    assert _brute_force_radius(np.array([[0.0, 0.0], [3.0, 4.0], [1.0, 1.0]])) == 2.5


@pytest.mark.parametrize(
    "family", [_small_cospherical, _small_duplicates, _small_collinear, _small_general]
)
def test_small_sets_against_brute_force(family):
    rng = np.random.default_rng(97)
    for _ in range(100):
        pts = family(rng)
        exact = _brute_force_radius(pts)
        b = min_enclosing_ball(pts, tol=1e-12)
        assert b.converged and b.gap <= 1e-12 * b.radius
        assert b.iterations <= 2 * (pts.shape[1] + 1)
        # both sides round at eps times the coordinates: one repeated point
        # has radius 0 but a mean off by a rounding
        slack = 4.0 * np.finfo(float).eps * np.max(np.abs(pts))
        assert b.lower_bound <= exact * (1.0 + 1e-13) + slack
        assert abs(b.radius - exact) <= 2e-12 * exact + slack


def test_single_repeated_point():
    # the mean of seven copies is off by a rounding, and the gap is 0
    pts = np.tile([0.1, -0.7, 0.3], (7, 1))
    b = min_enclosing_ball(pts, tol=1e-12)
    assert b.iterations == 0 and b.converged and b.gap == 0.0
    assert b.radius <= np.finfo(float).eps


def test_random_sets_pivot_to_rounding():
    # N up to 300 in R^1 ... R^7, far from the origin
    rng = np.random.default_rng(69)
    for _ in range(100):
        dim = int(rng.integers(1, 8))
        pts = rng.standard_normal((int(rng.integers(2, 301)), dim)) * rng.uniform(0.1, 10.0)
        pts += rng.uniform(-100.0, 100.0, dim)
        b = min_enclosing_ball(pts, tol=1e-12)
        assert b.converged and b.gap <= 1e-12 * b.radius
        assert b.iterations <= 2 * (dim + 1)


@needs_schedstat
def test_pivoting_ball_keeps_to_the_calling_thread():
    # each pivot's (1026, 27) matrix-vector product must not wake a BLAS
    # worker: an OP2 frame cloud with one frame moved out by 1%
    spc = veronese.space_from_name("op2")
    pts = veronese.sample_points(spc, 1026, np.random.default_rng(70))
    mean = pts.mean(axis=0)
    pts[: spc.m] = mean + 1.01 * (pts[: spc.m] - mean)
    assert min_enclosing_ball(pts, tol=1e-12).iterations > 0

    def run():
        for _ in range(10):
            min_enclosing_ball(pts, tol=1e-12)

    assert other_threads_cpu_ms(run) == 0.0
