"""Veronese embeddings: sphere radii, circles, distances, obstruction."""

import math

import numpy as np
import pytest
from circle_oracle import closed_form_circle, orthonormal_pair

from normcurve import veronese
from normcurve.algebra import OCTONION
from normcurve.veronese import (
    SQRT2,
    chordal_distance,
    flatten_entries,
    point_from_homogeneous,
    random_homogeneous,
    sample_points,
    simplex_circumradius,
    space,
    space_from_name,
)

PLANES = veronese.standard_planes()


def _outer(alg, v):
    """Entries v_i conj(v_j) of the rank-one matrix of v in A^m."""
    return np.einsum("pqk,ip,jq->ijk", alg.table, v, v * alg.conj_signs)


def random_frame(spc, rng):
    """Oracle for ``sample_points``: one orthonormal frame by Gram-Schmidt,
    drawing from rng as the sampler draws one frame."""
    alg = spc.algebra
    m = spc.m
    v0 = random_homogeneous(spc, rng)
    if alg.kind == "octonion":
        anchor = int(np.argmax(np.linalg.norm(v0, axis=1)))
        cols = [v0]
        for j in range(m):
            if j == anchor:
                continue
            e = np.zeros((m, alg.dim))
            e[j, 0] = 1.0
            cols.append(e)
    else:
        cols = [v0] + [alg.random(rng, (m,)) for _ in range(m - 1)]

    frame = []
    for w in cols:
        for u in frame:
            coeff = np.einsum("pqk,ip,iq->k", alg.table, u * alg.conj_signs, w)
            w = w - np.einsum("pqk,ip,q->ik", alg.table, u, coeff)
        frame.append(w / np.linalg.norm(w))
    return np.array(frame)


def test_space_validation():
    with pytest.raises(ValueError, match="octonionic"):
        space("octonion", 3)
    with pytest.raises(ValueError, match="at least 1"):
        space("real", 0)
    assert space_from_name("hp3").name == "HP3"
    with pytest.raises(ValueError):
        space_from_name("xp2")


def test_rp1_base_point_norm():
    spc = space("real", 1)
    v = np.array([[1.0], [0.0]])
    p = point_from_homogeneous(spc, v)
    assert np.linalg.norm(p) == pytest.approx(0.5, abs=1e-15)
    assert spc.sphere_radius == pytest.approx(0.5)


@pytest.mark.parametrize("spc", PLANES, ids=lambda s: s.name)
def test_sphericity(spc):
    rng = np.random.default_rng(31)
    for _ in range(1000):
        v = random_homogeneous(spc, rng)
        p = point_from_homogeneous(spc, v)
        assert abs(np.linalg.norm(p) - spc.sphere_radius) <= 1e-10


def test_rp3_sphere_radius():
    spc = space("real", 3)
    rng = np.random.default_rng(32)
    p = point_from_homogeneous(spc, random_homogeneous(spc, rng))
    assert np.linalg.norm(p) == pytest.approx(math.sqrt(3.0 / 8.0), abs=1e-12)


@pytest.mark.parametrize("kind", ["real", "complex", "quaternion"])
def test_projective_invariance(kind):
    spc = space(kind, 2)
    alg = spc.algebra
    rng = np.random.default_rng(33)
    for _ in range(50):
        v = random_homogeneous(spc, rng)
        lam = alg.random(rng)
        lam /= np.linalg.norm(lam)
        scaled = np.einsum("pqk,ip,q->ik", alg.table, v, lam)
        p1 = point_from_homogeneous(spc, v)
        p2 = point_from_homogeneous(spc, scaled)
        assert np.max(np.abs(p1 - p2)) <= 1e-12


def test_non_unit_rejected():
    spc = space("real", 2)
    with pytest.raises(ValueError, match="unit"):
        point_from_homogeneous(spc, np.array([[2.0], [0.0], [0.0]]))
    # inside a batch, behind a valid vector
    batch = np.array([[[1.0], [0.0], [0.0]], [[2.0], [0.0], [0.0]]])
    with pytest.raises(ValueError, match="unit"):
        veronese._flat_points(spc, batch)


def test_invalid_octonionic_representative_rejected():
    spc = space("octonion", 2)
    rng = np.random.default_rng(34)
    v = OCTONION.random(rng, (3,))
    v /= np.linalg.norm(v)
    with pytest.raises(ValueError, match="octonionic representative"):
        point_from_homogeneous(spc, v)
    with pytest.raises(ValueError, match="octonionic representative"):
        veronese._flat_points(spc, np.stack([random_frame(spc, rng)[0], v]))


def test_octonionic_chart_accepted():
    spc = space("octonion", 2)
    rng = np.random.default_rng(35)
    v = OCTONION.random(rng, (3,))
    v[2, 1:] = 0.0  # one real entry: entries generate an associative subalgebra
    v /= np.linalg.norm(v)
    p = point_from_homogeneous(spc, v)
    assert abs(np.linalg.norm(p) - spc.sphere_radius) <= 1e-10


@pytest.mark.parametrize("spc", PLANES, ids=lambda s: s.name)
def test_frames_are_orthonormal_and_balanced(spc):
    rng = np.random.default_rng(36)
    pts = sample_points(spc, spc.m, rng)
    # pairwise chordal distance 1 (orthogonal representatives)
    for i in range(spc.m):
        for j in range(i + 1, spc.m):
            assert np.linalg.norm(pts[i] - pts[j]) == pytest.approx(1.0, abs=1e-9)
    # the centered projections of a complete frame sum to zero
    assert np.max(np.abs(pts.sum(axis=0))) <= 1e-12


def test_sample_points_shape():
    spc = space("quaternion", 2)
    rng = np.random.default_rng(37)
    pts = sample_points(spc, 10, rng)
    assert pts.shape == (10, spc.flat_dim)


@pytest.mark.parametrize("name", ["rp1", "cp1", "rp2", "cp2", "hp2", "op2", "hp3"])
def test_sample_points_match_per_frame_oracle(name):
    # oracle: frame by frame, each vector through a test-local outer product and flatten
    spc = space_from_name(name)
    identity = np.zeros((spc.m, spc.m, spc.algebra.dim))
    identity[np.arange(spc.m), np.arange(spc.m), 0] = 1.0
    counts = [2 * spc.m, 2 * spc.m + 1]  # whole frames, then a partial one
    if name in ("rp2", "op2"):
        counts.append(veronese._FRAME_BLOCK * spc.m + 1)  # one point into a second block
    for count in counts:
        rng, oracle_rng = np.random.default_rng(56), np.random.default_rng(56)
        pts = sample_points(spc, count, rng)
        expected = []
        while len(expected) < count:
            for v in random_frame(spc, oracle_rng):
                proj = _outer(spc.algebra, v)
                expected.append(flatten_entries((proj - identity * (1.0 / spc.m)) * (1.0 / SQRT2)))
        assert pts.shape == (count, spc.flat_dim)
        assert np.max(np.abs(pts - np.array(expected[:count]))) <= 1e-15
        # the same number of frames was drawn
        assert rng.random() == oracle_rng.random()


# -- closed-form geodesics ---------------------------------------------------


def test_circle_speed_finite_difference():
    # oracle: symmetric finite differences of the closed form
    spc = space("real", 2)
    rng = np.random.default_rng(38)
    circ, velocity = closed_form_circle(spc, *orthonormal_pair(spc, rng))
    eps = 1e-6
    for t in np.linspace(0.0, math.pi, 100, endpoint=False):
        speed = np.linalg.norm(circ(t + eps) - circ(t - eps)) / (2.0 * eps)
        assert speed == pytest.approx(1.0, abs=1e-9)
        assert np.linalg.norm(velocity(t)) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("kind", ["real", "complex", "quaternion"])
def test_circle_radius_and_period(kind):
    from normcurve.curves import fit_circle

    spc = space(kind, 2)
    rng = np.random.default_rng(39)
    v, w = orthonormal_pair(spc, rng)
    circ, _ = closed_form_circle(spc, v, w)
    ts = np.linspace(0.0, math.pi, 200, endpoint=False)
    _, radius, residual = fit_circle(circ(ts))
    assert radius == pytest.approx(0.5, abs=1e-9)
    assert residual <= 1e-12
    assert np.max(np.abs(circ(ts) - circ(ts + math.pi))) <= 1e-12
    # the circle consists of embedding points
    assert np.max(np.abs(circ(0.3) - point_from_homogeneous(
        spc, math.cos(0.3) * v + math.sin(0.3) * w))) <= 1e-12


# -- distances ---------------------------------------------------------------


def test_chordal_distance_endpoints():
    spc = space("real", 2)
    e1 = np.array([[1.0], [0.0], [0.0]])
    e2 = np.array([[0.0], [1.0], [0.0]])
    p, q = point_from_homogeneous(spc, e1), point_from_homogeneous(spc, e2)
    assert chordal_distance(spc, p, q) == pytest.approx(1.0, abs=1e-12)
    assert chordal_distance(spc, p, p) == 0.0


def test_chordal_distance_pi_over_4_against_frobenius_oracle():
    # oracle: Frobenius distance of the two raw projection matrices
    spc = space("real", 2)
    v = np.array([[1.0], [0.0], [0.0]])
    w = np.array([[0.0], [1.0], [0.0]])
    t = math.pi / 4.0
    u = math.cos(t) * v + math.sin(t) * w
    p, q = point_from_homogeneous(spc, v), point_from_homogeneous(spc, u)
    pv = np.outer(v[:, 0], v[:, 0])
    pu = np.outer(u[:, 0], u[:, 0])
    oracle = np.linalg.norm(pv - pu) / SQRT2
    measured = chordal_distance(spc, p, q)
    assert measured == pytest.approx(oracle, abs=1e-12)
    assert measured == pytest.approx(math.sin(t), abs=1e-9)


@pytest.mark.parametrize("kind", ["real", "complex", "quaternion"])
def test_chord_equals_sine_of_intrinsic_distance(kind):
    spc = space(kind, 2)
    rng = np.random.default_rng(40)
    for _ in range(200):
        v = random_homogeneous(spc, rng)
        w = random_homogeneous(spc, rng)
        # theta = arccos |sum_i conj(v_i) w_i|, the Fubini-Study distance
        alg = spc.algebra
        inner = np.einsum("pqk,ip,iq->k", alg.table, v * alg.conj_signs, w)
        theta = math.acos(min(1.0, float(np.linalg.norm(inner))))
        chord = chordal_distance(
            spc, point_from_homogeneous(spc, v), point_from_homogeneous(spc, w)
        )
        assert abs(chord - math.sin(theta)) <= 1e-9


@pytest.mark.parametrize("kind", ["real", "complex", "quaternion"])
def test_four_orthogonal_points_in_dimension_three(kind):
    spc = space(kind, 3)
    pts = []
    for i in range(4):
        e = np.zeros((4, spc.algebra.dim))
        e[i, 0] = 1.0
        pts.append(point_from_homogeneous(spc, e))
    for i in range(4):
        for j in range(i + 1, 4):
            assert np.linalg.norm(pts[i] - pts[j]) == pytest.approx(1.0, abs=1e-12)


# -- simplex circumradius ----------------------------------------------------


def test_simplex_values():
    assert simplex_circumradius(2, 1.0) == pytest.approx(0.5, abs=1e-15)
    assert simplex_circumradius(3, 1.0) == pytest.approx(1.0 / math.sqrt(3.0), abs=1e-12)
    assert simplex_circumradius(4, 1.0) == pytest.approx(math.sqrt(3.0 / 8.0), abs=1e-12)
    assert simplex_circumradius(4, 1.0) > 1.0 / math.sqrt(3.0)
    assert simplex_circumradius(3, 2.0) == pytest.approx(2.0 / math.sqrt(3.0), abs=1e-12)
    with pytest.raises(ValueError):
        simplex_circumradius(1, 1.0)
    with pytest.raises(ValueError):
        simplex_circumradius(3, 0.0)


def test_simplex_against_least_squares_placement():
    # oracle: place 4 pairwise unit-distant points, solve for the circumcenter
    verts = np.array(
        [
            [1.0, 1.0, 1.0],
            [1.0, -1.0, -1.0],
            [-1.0, 1.0, -1.0],
            [-1.0, -1.0, 1.0],
        ]
    ) / math.sqrt(8.0)  # regular tetrahedron with unit edges
    d = np.linalg.norm(verts[0] - verts[1])
    assert d == pytest.approx(1.0, abs=1e-12)
    # circumcenter: equidistance gives a linear system
    a = 2.0 * (verts[1:] - verts[0])
    b = np.einsum("ij,ij->i", verts[1:], verts[1:]) - verts[0] @ verts[0]
    center, *_ = np.linalg.lstsq(a, b, rcond=None)
    radius = np.linalg.norm(verts[0] - center)
    assert simplex_circumradius(4, 1.0) == pytest.approx(radius, abs=1e-9)
