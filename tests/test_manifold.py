"""Implicit-manifold engine: tangent spaces, curvature operators, geodesics."""

import dataclasses
import math

import numpy as np
import pytest
from circle_oracle import closed_form_circle, orthonormal_pair

from normcurve import manifold, veronese
from normcurve.algebra import REAL
from normcurve.manifold import (
    ImplicitManifold,
    ProjectionError,
    SingularPointError,
    integrate_geodesic,
    mean_curvature_vector,
    normal_curvature,
    project_point,
    project_velocity,
    second_fundamental_form,
    sectional_curvature,
    tangent_basis,
)


def _outer(alg, v):
    """Entries v_i conj(v_j) of the rank-one matrix of v in A^m."""
    return np.einsum("pqk,ip,jq->ijk", alg.table, v, v * alg.conj_signs)


def sphere_manifold(radius: float, dim: int = 3) -> ImplicitManifold:
    # |x|^2 - r^2
    base = np.zeros(dim)
    base[0] = radius
    return ImplicitManifold(np.eye(dim)[None], np.zeros((1, dim)), [-(radius**2)], base)


def plane_manifold() -> ImplicitManifold:
    # x2
    return ImplicitManifold(np.zeros((1, 3, 3)), [[0.0, 0.0, 1.0]], [0.0], np.zeros(3))


def cone_manifold() -> ImplicitManifold:
    # x0^2 + x1^2 - x2^2: smooth away from the apex; rank drops at the origin
    return ImplicitManifold(
        np.diag([1.0, 1.0, -1.0])[None], np.zeros((1, 3)), [0.0], np.array([1.0, 0.0, 1.0])
    )


def circle_manifold() -> ImplicitManifold:
    # the circle {|x|^2 - 1 = 0, x2 = 0}: codim 2
    quad = np.zeros((2, 3, 3))
    quad[0] = np.eye(3)
    linear = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    return ImplicitManifold(quad, linear, [-1.0, 0.0], np.array([1.0, 0.0, 0.0]))


def random_tangent(var, p, rng, count=1):
    basis = tangent_basis(var, p)
    out = rng.standard_normal((count, len(basis))) @ basis
    out /= np.linalg.norm(out, axis=1, keepdims=True)
    return out[0] if count == 1 else out


# -- elementary manifolds ----------------------------------------------------


def test_sphere_normal_curvature_and_sectional():
    var = sphere_manifold(0.5)
    rng = np.random.default_rng(41)
    for _ in range(20):
        u = random_tangent(var, var.base_point, rng)
        assert normal_curvature(var, var.base_point, u) == pytest.approx(2.0, abs=1e-10)
    basis = tangent_basis(var, var.base_point)
    assert sectional_curvature(var, var.base_point, basis[0], basis[1]) == pytest.approx(
        4.0, abs=1e-10
    )
    # trace of II over the tangent plane: two principal curvatures 1/r
    h = mean_curvature_vector(var, var.base_point)
    assert np.linalg.norm(h) == pytest.approx(4.0, abs=1e-10)


def test_plane_curvature_zero():
    var = plane_manifold()
    u = np.array([1.0, 0.0, 0.0])
    assert normal_curvature(var, var.base_point, u) == pytest.approx(0.0, abs=1e-12)


E1, E2 = np.eye(3)[:2]
APEX_QUERIES = [
    (tangent_basis, ()),
    (second_fundamental_form, (E1, E2)),
    (normal_curvature, (E1,)),
    (mean_curvature_vector, ()),
    (sectional_curvature, (E1, E2)),
]


@pytest.mark.parametrize("query,args", APEX_QUERIES, ids=[q.__name__ for q, _ in APEX_QUERIES])
def test_singular_point_reported(query, args):
    # the Jacobian vanishes at the cone's apex: rank 0, not the base-point rank 1
    with pytest.raises(SingularPointError):
        query(cone_manifold(), np.zeros(3), *args)


def test_partial_rank_drop_reported():
    # at (0, 0, 1) both constraint gradients of the circle point along e2, so
    # the rank is 1: nonzero, yet not the base rank 2
    with pytest.raises(SingularPointError):
        second_fundamental_form(circle_manifold(), np.array([0.0, 0.0, 1.0]), E1, E1)


def test_projection_through_zero_jacobian_reported():
    # residual -1 at the sphere's centre, where the Jacobian 2x is zero
    with pytest.raises(SingularPointError):
        project_point(sphere_manifold(1.0), np.zeros(3))


def test_declared_dimension_mismatch_rejected():
    with pytest.raises(ValueError, match="intrinsic_dim"):
        ImplicitManifold(
            np.eye(3)[None], np.zeros((1, 3)), [-1.0], np.array([1.0, 0.0, 0.0]), intrinsic_dim=1
        )


@pytest.mark.parametrize(
    "quad,linear,const,base",
    [
        (np.zeros((2, 3, 3)), np.zeros((1, 3)), [0.0], np.zeros(3)),  # quad rows
        (np.zeros((1, 3, 2)), np.zeros((1, 3)), [0.0], np.zeros(3)),  # quad not square
        (np.zeros((1, 3, 3)), np.zeros(3), [0.0], np.zeros(3)),  # linear not a matrix
        (np.zeros((1, 3, 3)), np.zeros((1, 3)), [0.0, 0.0], np.zeros(3)),  # const rows
        (np.zeros((1, 3, 3)), np.zeros((1, 3)), 0.0, np.zeros(3)),  # const a scalar
        (np.zeros((1, 3, 3)), np.zeros((1, 3)), [0.0], np.zeros(2)),  # base dimension
    ],
    ids=["quad-rows", "quad-square", "linear-ndim", "const-rows", "const-scalar", "base-dim"],
)
def test_mismatched_coefficient_shapes_rejected(quad, linear, const, base):
    with pytest.raises(ValueError, match="coefficient shapes"):
        ImplicitManifold(quad, linear, const, base)


def _random_quadratic_map(rng, c_rows, d, symmetric):
    """A random quadratic map vanishing at a random base point."""
    quad = rng.standard_normal((c_rows, d, d))
    if symmetric:
        quad = quad + quad.transpose(0, 2, 1)
    linear = rng.standard_normal((c_rows, d))
    base = rng.standard_normal(d)
    const = -(linear @ base + np.einsum("cab,a,b->c", quad, base, base))
    return ImplicitManifold(quad, linear, const, base)


@pytest.mark.parametrize("symmetric", [True, False], ids=["symmetric", "nonsymmetric"])
@pytest.mark.parametrize("c_rows,d", [(1, 3), (2, 5), (4, 6)])
def test_quadratic_map_derivatives_agree(symmetric, c_rows, d):
    # oracles: central differences of the constraint for the Jacobian, and the
    # polarization c(x+u+v) - c(x+u) - c(x+v) + c(x) for the constant Hessian
    rng = np.random.default_rng(58 + 7 * d + c_rows)
    var = _random_quadratic_map(rng, c_rows, d, symmetric)
    c = var.constraint
    for x in rng.standard_normal((4, d)):
        h = 1e-5
        fd = np.array([(c(x + h * e) - c(x - h * e)) / (2.0 * h) for e in np.eye(d)]).T
        jac = var.jacobian(x)
        assert jac.shape == (c_rows, d)
        assert np.max(np.abs(jac - fd)) <= 1e-8 * max(1.0, np.max(np.abs(jac)))
        u, v = rng.standard_normal((2, d))
        polar = c(x + u + v) - c(x + u) - c(x + v) + c(x)
        scale = np.max(np.abs(polar))
        assert np.max(np.abs(var.hessian(u, v) - polar)) <= 1e-12 * scale
        assert np.max(np.abs(var.hessian(u, v) - var.hessian(v, u))) <= 1e-12 * scale


# -- tangent dimensions on the projection varieties ---------------------------


@pytest.mark.parametrize(
    "kind,n,expected",
    [("real", 2, 2), ("complex", 3, 6), ("octonion", 2, 16)],
)
def test_tangent_basis_dimensions(kind, n, expected):
    spc = veronese.space(kind, n)
    var = veronese.variety(spc)
    rng = np.random.default_rng(42)
    pts = veronese.sample_points(spc, 3, rng)
    for p in pts:
        basis = tangent_basis(var, p)
        assert basis.shape == (expected, spc.flat_dim)
        jac = var.jacobian(p)
        assert np.max(np.abs(basis @ jac.T)) <= 1e-9
        gram = basis @ basis.T
        assert np.max(np.abs(gram - np.eye(expected))) <= 1e-12


def test_cp3_rank_oracle():
    # oracle: numerical rank of the Jacobian at sampled points
    spc = veronese.space("complex", 3)
    var = veronese.variety(spc)
    rng = np.random.default_rng(43)
    for p in veronese.sample_points(spc, 10, rng):
        s = np.linalg.svd(var.jacobian(p), compute_uv=False)
        rank = int(np.sum(s > 1e-8 * s[0]))
        assert spc.flat_dim - rank == 6


# -- second fundamental form ---------------------------------------------------


def test_ii_symmetry_and_normality():
    spc = veronese.space("quaternion", 2)
    var = veronese.variety(spc)
    rng = np.random.default_rng(44)
    p = veronese.sample_points(spc, 1, rng)[0]
    basis = tangent_basis(var, p)
    for _ in range(20):
        u, v = random_tangent(var, p, rng, count=2)
        ii_uv = second_fundamental_form(var, p, u, v)
        ii_vu = second_fundamental_form(var, p, v, u)
        assert np.max(np.abs(ii_uv - ii_vu)) <= 1e-10
        # normal to the tangent space
        assert np.max(np.abs(basis @ ii_uv)) <= 1e-9


@pytest.mark.parametrize("spc", veronese.standard_planes(), ids=lambda s: s.name)
def test_normal_curvature_two_spot(spc):
    var = veronese.variety(spc)
    rng = np.random.default_rng(45)
    for p in veronese.sample_points(spc, 4, rng):
        for u in random_tangent(var, p, rng, count=25):
            assert abs(normal_curvature(var, p, u) - 2.0) <= 1e-8


@pytest.mark.parametrize("spc", veronese.standard_planes(), ids=lambda s: s.name)
def test_mean_curvature_spot(spc):
    var = veronese.variety(spc)
    rng = np.random.default_rng(46)
    target = spc.intrinsic_dim / spc.sphere_radius
    for p in veronese.sample_points(spc, 10, rng):
        h = mean_curvature_vector(var, p)
        assert abs(np.linalg.norm(h) - target) <= 1e-8


# -- batched curvature queries ---------------------------------------------------

VARIETY_SPACES = ["rp1", "cp1", "hp1", "rp2", "cp2", "hp2", "op2", "rp3", "cp3", "hp3"]


def _batch_case(name):
    if name == "sphere":
        var = sphere_manifold(0.5)
    elif name == "cone":
        var = cone_manifold()
    else:
        var = veronese.variety(veronese.space_from_name(name))
    return var, project_point(var, var.base_point + 0.1)


@pytest.mark.parametrize("name", VARIETY_SPACES)
def test_variety_hessian_matches_polarized_constraint(name):
    # oracle: for a quadratic c, c(u + v) - c(u) - c(v) + c(0) = D^2c[u, v]
    var = veronese.variety(veronese.space_from_name(name))
    rng = np.random.default_rng(57)
    u = rng.standard_normal((2, 3, var.ambient_dim))
    v = rng.standard_normal((3, var.ambient_dim))
    zero = np.zeros(var.ambient_dim)
    c = var.constraint
    polar = np.array([[c(a + b) - c(a) - c(b) + c(zero) for a, b in zip(row, v)] for row in u])
    assert np.max(np.abs(var.hessian(u, v) - polar)) <= 1e-12 * np.max(np.abs(polar))
    assert np.max(np.abs(var.hessian(v, u) - polar)) <= 1e-12 * np.max(np.abs(polar))


@pytest.mark.parametrize("name", VARIETY_SPACES + ["sphere", "cone"])
def test_batched_curvature_rows_match_single_calls(name):
    var, p = _batch_case(name)
    rng = np.random.default_rng(56)
    u = random_tangent(var, p, rng, count=6)
    w = random_tangent(var, p, rng, count=6)
    batch = second_fundamental_form(var, p, u.reshape(2, 3, -1), w.reshape(2, 3, -1))
    single = np.array([second_fundamental_form(var, p, a, b) for a, b in zip(u, w)])
    assert batch.shape == (2, 3, var.ambient_dim)
    assert np.max(np.abs(batch.reshape(6, -1) - single)) <= 1e-13 * np.max(np.abs(single))
    kappa = normal_curvature(var, p, u)
    single = np.array([normal_curvature(var, p, a) for a in u])
    assert kappa.shape == (6,) and np.ndim(single[0]) == 0
    assert np.max(np.abs(kappa - single)) <= 1e-13 * np.max(single)
    if var.intrinsic_dim < 2:
        return
    q, _ = np.linalg.qr(np.stack([u, w], axis=2))  # six orthonormal pairs
    k = sectional_curvature(var, p, q[..., 0], q[..., 1])
    single = np.array([sectional_curvature(var, p, a, b) for a, b in zip(q[..., 0], q[..., 1])])
    # the Gauss equation subtracts terms of size kappa^2, so errors scale with it
    assert np.max(np.abs(k - single)) <= 1e-13 * np.max(kappa) ** 2


def test_batch_with_one_bad_row_rejected():
    var = sphere_manifold(0.5)
    p = var.base_point
    e1, e2 = tangent_basis(var, p)
    u = np.array([e1, e2, e1])
    v = np.array([e2, e1, e2])
    assert np.allclose(sectional_curvature(var, p, u, v), 4.0)
    long = u.copy()
    long[1] *= 1.5
    with pytest.raises(ValueError, match=r"direction must be unit \(got \|u\| = 1\.5\)"):
        normal_curvature(var, p, long)
    with pytest.raises(ValueError, match="u and v must be unit vectors"):
        sectional_curvature(var, p, long, v)
    with pytest.raises(ValueError, match="u and v must be unit vectors"):
        sectional_curvature(var, p, u, long[::-1])
    skew = v.copy()
    skew[2] = (e1 + e2) / math.sqrt(2.0)
    with pytest.raises(ValueError, match="u and v must be orthogonal"):
        sectional_curvature(var, p, u, skew)


# -- sectional curvature -------------------------------------------------------


def test_rp2_constant_curvature_one():
    spc = veronese.space("real", 2)
    var = veronese.variety(spc)
    rng = np.random.default_rng(47)
    for p in veronese.sample_points(spc, 30, rng):
        basis = tangent_basis(var, p)
        assert sectional_curvature(var, p, basis[0], basis[1]) == pytest.approx(
            1.0, abs=1e-8
        )


def test_cp2_holomorphic_and_orthogonal_planes():
    spc = veronese.space("complex", 2)
    var = veronese.variety(spc)
    p0 = veronese.base_point(spc)

    def tangent_from(w):
        e1 = np.zeros((3, 2))
        e1[0, 0] = 1.0
        alg = spc.algebra
        cross = _outer(alg, e1 + w) - _outer(alg, e1) - _outer(alg, w)
        t = veronese.flatten_entries(cross) / veronese.SQRT2
        return t / np.linalg.norm(t)

    w = np.zeros((3, 2))
    w[1, 0] = 1.0
    iw = np.zeros((3, 2))
    iw[1, 1] = 1.0  # complex-structure rotation of w
    w2 = np.zeros((3, 2))
    w2[2, 0] = 1.0

    u, ju, v = tangent_from(w), tangent_from(iw), tangent_from(w2)
    assert abs(u @ ju) <= 1e-12
    assert sectional_curvature(var, p0, u, ju) == pytest.approx(4.0, abs=1e-8)
    assert sectional_curvature(var, p0, u, v) == pytest.approx(1.0, abs=1e-8)


@pytest.mark.parametrize("kind", ["complex", "quaternion", "octonion"])
def test_sectional_range_spot(kind):
    spc = veronese.space(kind, 2)
    var = veronese.variety(spc)
    rng = np.random.default_rng(48)
    kmin, kmax = np.inf, -np.inf
    for p in veronese.sample_points(spc, 5, rng):
        for _ in range(40):
            pair = rng.standard_normal((2, spc.intrinsic_dim)) @ tangent_basis(var, p)
            q, _ = np.linalg.qr(pair.T)
            k = sectional_curvature(var, p, q[:, 0], q[:, 1])
            kmin, kmax = min(kmin, k), max(kmax, k)
    assert kmin >= 1.0 - 1e-6
    assert kmax <= 4.0 + 1e-6


def test_gauss_bound_consistency():
    # max sectional curvature cannot exceed the squared max normal curvature
    for spc in veronese.standard_planes():
        var = veronese.variety(spc)
        rng = np.random.default_rng(49)
        p = veronese.sample_points(spc, 1, rng)[0]
        kappa_max, k_max = 0.0, -np.inf
        basis = tangent_basis(var, p)
        for _ in range(50):
            pair = rng.standard_normal((2, len(basis))) @ basis
            q, _ = np.linalg.qr(pair.T)
            k_max = max(k_max, sectional_curvature(var, p, q[:, 0], q[:, 1]))
            kappa_max = max(kappa_max, normal_curvature(var, p, q[:, 0]))
        assert k_max <= kappa_max**2 + 1e-6


# -- independent constant-curvature oracle for RP2 ----------------------------


def _rp2_tangent_of_geodesic(v, w):
    """Initial velocity of t -> point(cos t v + sin t w) at t = 0 (unit)."""
    cross = _outer(REAL, v + w) - _outer(REAL, v) - _outer(REAL, w)
    return veronese.flatten_entries(cross) / veronese.SQRT2


def test_rp2_angle_excess_matches_spherical_triangles():
    """Triangle oracle: measured corner angles of geodesic triangles agree
    with the spherical law of cosines applied to the measured side lengths,
    certifying constant curvature 1 independently of the Gauss-equation path.
    """
    spc = veronese.space("real", 2)
    rng = np.random.default_rng(50)
    for _ in range(3):
        # random orthonormal v0 and two unit normals w1, w2
        v0 = rng.standard_normal(3)
        v0 /= np.linalg.norm(v0)
        w1 = rng.standard_normal(3)
        w1 -= (w1 @ v0) * v0
        w1 /= np.linalg.norm(w1)
        w2 = rng.standard_normal(3)
        w2 -= (w2 @ v0) * v0
        w2 /= np.linalg.norm(w2)
        if abs(w1 @ w2) > 0.9:  # keep the corner angle well-conditioned
            w2 = (w2 - (w1 @ w2) * w1) / np.linalg.norm(w2 - (w1 @ w2) * w1)
        a, b = rng.uniform(0.3, 0.7, size=2)

        u1 = math.cos(a) * v0 + math.sin(a) * w1  # representative of q1
        u2 = math.cos(b) * v0 + math.sin(b) * w2

        def pt(x):
            return veronese.point_from_homogeneous(spc, x[:, None])

        q1, q2 = pt(u1), pt(u2)
        chord = np.linalg.norm(q1 - q2)
        c = math.asin(min(1.0, chord))  # intrinsic distance

        # measured corner angles from closed-form geodesic tangents
        def angle(base, first, second):
            t1 = _rp2_tangent_of_geodesic(base[:, None], first[:, None])
            t2 = _rp2_tangent_of_geodesic(base[:, None], second[:, None])
            return math.acos(np.clip(t1 @ t2, -1.0, 1.0))

        def direction(base, target):
            s = math.copysign(1.0, base @ target)
            tgt = s * target
            cos_t = base @ tgt
            return (tgt - cos_t * base) / math.sqrt(1.0 - cos_t**2)

        angle_p0 = angle(v0, w1, w2)
        angle_q1 = angle(u1, direction(u1, v0), direction(u1, u2))
        angle_q2 = angle(u2, direction(u2, v0), direction(u2, u1))

        # predictions from the unit-sphere law of cosines
        def predicted(opposite, s1, s2):
            return math.acos(
                np.clip(
                    (math.cos(opposite) - math.cos(s1) * math.cos(s2))
                    / (math.sin(s1) * math.sin(s2)),
                    -1.0,
                    1.0,
                )
            )

        assert angle_p0 == pytest.approx(predicted(c, a, b), abs=1e-9)
        assert angle_q1 == pytest.approx(predicted(b, a, c), abs=1e-9)
        assert angle_q2 == pytest.approx(predicted(a, b, c), abs=1e-9)
        excess = angle_p0 + angle_q1 + angle_q2 - math.pi
        assert excess > 0.0  # positive curvature


# -- closed-form Jordan spray and Peirce tangent projection ----------------------


def dense_closed_forms(spc):
    """The spray (y, v) -> II(v, v) and the Peirce tangent projection of one
    variety, each Jordan product read from the dense (D^2, D) matrix of J:
    the per-plane oracle for the sparse stacked forms."""
    quad, _, _ = veronese._variety_tensors(spc.algebra.kind, spc.n)
    d, m = spc.flat_dim, spc.m
    jordan_rows = quad[:d].reshape(d * d, d) / 2.0
    spray_w = 2.0 * veronese.SQRT2 * (1.0 - 2.0 / m)

    def mult_by(y):
        return (jordan_rows @ y).reshape(d, d)

    def spray(y, v):
        w = mult_by(v) @ v
        return spray_w * w - 8.0 * (mult_by(w) @ y)

    def tangent(y, v):
        l_p = veronese.SQRT2 * mult_by(y)  # L_P - I/m
        pv = l_p @ v + v / m
        return 4.0 * (pv - (l_p @ pv + pv / m))

    return spray, tangent


def _rk4_geodesic(var, p, u, length, step, spray, tangent):
    """Vertices of the one-plane RK4 loop of ``integrate_geodesics`` with the
    given spray (y, v) -> II(v, v) and tangent projection."""

    def unit_tangent(p, v):
        t = tangent(p, v)
        return t / np.linalg.norm(t)

    p = project_point(var, p)
    v = unit_tangent(p, u)
    nsteps = max(1, round(length / step))
    h = length / nsteps
    vertices = [p]
    for _ in range(nsteps):
        a1 = spray(p, v)
        p2 = p + 0.5 * h * v
        v2 = v + 0.5 * h * a1
        a2 = spray(p2, v2)
        p3 = p + 0.5 * h * v2
        v3 = v + 0.5 * h * a2
        a3 = spray(p3, v3)
        p4 = p + h * v3
        v4 = v + h * a3
        a4 = spray(p4, v4)
        p = project_point(var, p + (h / 6.0) * (v + 2.0 * v2 + 2.0 * v3 + v4))
        v = unit_tangent(p, v + (h / 6.0) * (a1 + 2.0 * a2 + 2.0 * a3 + a4))
        vertices.append(p)
    return np.array(vertices)


def dense_geodesic(var, p, u, length, step):
    """The RK4 loop on the dense closed forms."""
    spray, tangent = dense_closed_forms(veronese.space_from_name(var.name))
    return _rk4_geodesic(var, p, u, length, step, spray, tangent)


def least_squares_geodesic(var, p, u, length, step):
    """The RK4 loop with each acceleration and tangent projection one
    minimum-norm solve at the engine's rank cut, read from the constraint
    map alone.  Stage points lie off the variety, so the solves are direct
    ``np.linalg.lstsq`` calls with no rank check."""

    def solve(y, rhs):
        return np.linalg.lstsq(var.jacobian(y), rhs, rcond=manifold.RANK_TOL)[0]

    def spray(y, v):
        return solve(y, -var.hessian(v, v))

    def tangent(y, v):
        return v - solve(y, var.jacobian(y) @ v)

    return _rk4_geodesic(var, p, u, length, step, spray, tangent)


@pytest.mark.parametrize("name", VARIETY_SPACES)
def test_spray_matches_least_squares_solve(name):
    # oracle: the normal-space solve Dc(p) a = -D^2c[v, v] on the variety
    spc = veronese.space_from_name(name)
    var = veronese.variety(spc)
    rng = np.random.default_rng(54)
    points = veronese.sample_points(spc, 6, rng)
    p = np.repeat(points, 4, axis=0)
    v = np.concatenate([random_tangent(var, q, rng, count=4) for q in points])
    oracle = np.array([second_fundamental_form(var, q, u, u) for q, u in zip(p, v)])
    # the recursion's second coefficient is half the acceleration II(v, v)
    jordan = manifold._stack_jordan([var] * len(p), var.ambient_dim)  # one row per pair
    accel = 2.0 * manifold._taylor_coefficients(jordan, p, v)[2]
    error = np.linalg.norm(accel - oracle, axis=1)
    assert np.all(error <= 1e-12 * np.linalg.norm(oracle, axis=1))


@pytest.mark.parametrize("name", VARIETY_SPACES)
def test_tangent_projection_matches_least_squares(name):
    # oracle: v minus the minimum-norm solution of Dc(p) w = Dc(p) v
    spc = veronese.space_from_name(name)
    var = veronese.variety(spc)
    rng = np.random.default_rng(58)
    p = np.repeat(veronese.sample_points(spc, 6, rng), 4, axis=0)
    v = rng.standard_normal(p.shape)
    oracle = []
    for q, u in zip(p, v):
        jac = var.jacobian(q)
        oracle.append(u - np.linalg.lstsq(jac, jac @ u, rcond=1e-8)[0])  # the engine's rank cut
    jordan = manifold._stack_jordan([var] * len(p), var.ambient_dim)
    error = np.linalg.norm(manifold._peirce_tangent(jordan, p, v) - np.array(oracle), axis=1)
    assert np.all(error <= 1e-12 * np.linalg.norm(oracle, axis=1))


@pytest.mark.parametrize("name", VARIETY_SPACES)
def test_tangent_projection_is_idempotent_and_kills_normals(name):
    spc = veronese.space_from_name(name)
    var = veronese.variety(spc)
    rng = np.random.default_rng(59)
    p = veronese.sample_points(spc, 4, rng)
    jordan = manifold._stack_jordan([var] * len(p), var.ambient_dim)
    t = manifold._peirce_tangent(jordan, p, rng.standard_normal(p.shape))
    drift = np.linalg.norm(manifold._peirce_tangent(jordan, p, t) - t, axis=1)
    assert np.all(drift <= 1e-12 * np.linalg.norm(t, axis=1))
    # rows of the row space of each Dc(p)
    normal = np.array([rng.standard_normal(var.ambient_dim + 1) @ var.jacobian(q) for q in p])
    left = np.linalg.norm(manifold._peirce_tangent(jordan, p, normal), axis=1)
    assert np.all(left <= 1e-12 * np.linalg.norm(normal, axis=1))


# -- lock-step geodesics ----------------------------------------------------------


def _plane_starts(seed):
    rng = np.random.default_rng(seed)
    varieties, starts, directions = [], [], []
    for spc in veronese.standard_planes():
        varieties.append(veronese.variety(spc))
        starts.append(veronese.sample_points(spc, 1, rng)[0])
        directions.append(random_tangent(varieties[-1], starts[-1], rng))
    return varieties, starts, directions


@pytest.mark.parametrize(
    "oracle", [dense_geodesic, least_squares_geodesic], ids=["dense", "least-squares"]
)
def test_rk4_oracles_converge_to_taylor_geodesics(oracle):
    # the Taylor vertices are exact to rounding and RK4 errs by C h^4, so
    # halving the oracle's step divides its distance from them by 16 on
    # every plane, OP2 (which has no closed-form circle) included
    varieties, starts, directions = _plane_starts(60)
    curves = manifold.integrate_geodesics(varieties, starts, directions, math.pi, 0.01)
    for var, p0, u, curve in zip(varieties, starts, directions, curves):
        assert curve.n_vertices == 315
        coarse = np.max(np.abs(oracle(var, p0, u, math.pi, 0.02) - curve.vertices[::2]))
        fine = np.max(np.abs(oracle(var, p0, u, math.pi, 0.01) - curve.vertices))
        assert fine <= 1e-8
        assert 15.0 <= coarse / fine <= 17.0


@pytest.mark.parametrize(
    "name,value", [("TAYLOR_ORDER", 35), ("SEGMENT", math.pi / 8)], ids=["order", "segment"]
)
def test_taylor_truncation_is_below_rounding(monkeypatch, name, value):
    # five more orders, or segments half as long, move no vertex beyond rounding
    varieties, starts, directions = _plane_starts(62)
    base = manifold.integrate_geodesics(varieties, starts, directions, 2.0 * math.pi, 1e-2)
    monkeypatch.setattr(manifold, name, value)
    finer = manifold.integrate_geodesics(varieties, starts, directions, 2.0 * math.pi, 1e-2)
    for a, b in zip(base, finer):
        assert np.max(np.abs(a.vertices - b.vertices)) <= 16 * np.finfo(float).eps


def test_lock_step_mixes_spaces_and_solved_rows():
    # CP1 (m = 2), CP2 (m = 3) and RP3 (m = 4) share one stack of widths 4,
    # 9 and 10, so each row reads its own m and spray weight from the stacked
    # columns; over four segments every row equals its own integration
    rows = [veronese.variety(veronese.space_from_name(name)) for name in ("cp1", "cp2", "rp3")]
    starts = [var.base_point for var in rows]
    directions = [tangent_basis(var, var.base_point)[0] for var in rows]
    stacked = manifold.integrate_geodesics(rows, starts, directions, 3.0, 1e-2)
    for var, p0, u, curve in zip(rows, starts, directions, stacked):
        alone = integrate_geodesic(var, p0, u, 3.0, 1e-2)
        assert np.array_equal(curve.vertices, alone.vertices)


def test_geodesics_project_each_start_once(monkeypatch):
    # the benchmark traces project_point and project_velocity through these
    # module names: each start goes through both once, and nothing after
    # the starts projects, the Peirce projector included
    calls = []
    for name in ("project_point", "project_velocity", "_peirce_tangent"):

        def counted(first, *args, _real=getattr(manifold, name), _name=name):
            calls.append((_name, getattr(first, "name", "")))  # the constants have no name
            return _real(first, *args)

        monkeypatch.setattr(manifold, name, counted)
    varieties, starts, directions = _plane_starts(61)
    curves = manifold.integrate_geodesics(varieties, starts, directions, 3.0, 3e-3)
    expected = []
    for var in varieties:
        expected += [("project_point", var.name), ("project_velocity", var.name)]
        expected.append(("_peirce_tangent", ""))
    assert calls == expected
    for var, curve in zip(varieties, curves):
        assert curve.n_vertices == 1001
        assert max(np.max(np.abs(var.constraint(q))) for q in curve.vertices) <= 1e-14


def test_segment_count_is_capped(monkeypatch):
    # the segments run one after another, so a length past the cap is refused
    # before any start is projected
    var = cp1_variety()
    u = tangent_basis(var, var.base_point)[0]
    assert manifold._segment_count(math.pi) == 4
    assert manifold._segment_count(0.5 * math.pi) == 2
    assert manifold._segment_count(1e-3) == 1
    monkeypatch.setattr(manifold, "project_point", None)  # not reached
    message = r"^length = 1000000000000\.0: 1\.273e\+12 Taylor segments of at most pi/4, "
    message += "above the cap of 100000$"
    with pytest.raises(ValueError, match=message):
        integrate_geodesic(var, var.base_point, u, 1e12, 1e11)


# -- geodesic integration ------------------------------------------------------


def cp1_variety() -> ImplicitManifold:
    # CP1 is a round 2-sphere of radius 1/2: normal curvature 2, great circles of length pi
    return veronese.variety(veronese.space_from_name("cp1"))


def test_integrate_zero_length():
    var = cp1_variety()
    curve = integrate_geodesic(var, var.base_point, tangent_basis(var, var.base_point)[0], 0.0)
    assert curve.n_vertices == 1
    assert np.array_equal(curve.vertices[0], var.base_point)


def test_geodesics_need_one_start_and_direction_per_manifold():
    var = cp1_variety()
    for args in (([var], [var.base_point], []), ([], [], [])):
        with pytest.raises(ValueError, match="one start and one direction"):
            manifold.integrate_geodesics(*args, 1.0, 1e-2)


def test_geodesics_need_jordan_constants():
    # a round sphere cut out by |x|^2 - r^2 carries no Jordan constants; the
    # integrator refuses it alone and as one row of a stack
    var, sphere = cp1_variety(), dataclasses.replace(sphere_manifold(0.5), name="S2")
    u, e1 = tangent_basis(var, var.base_point)[0], np.array([0.0, 1.0, 0.0])
    message = "^manifold 'S2' has no Jordan constants for the integrator$"
    with pytest.raises(ValueError, match=message):
        project_velocity(sphere, sphere.base_point, e1)
    with pytest.raises(ValueError, match=message):
        integrate_geodesic(sphere, sphere.base_point, e1, 1.0, 1e-2)
    with pytest.raises(ValueError, match=message):
        manifold.integrate_geodesics(
            [var, sphere], [var.base_point, sphere.base_point], [u, e1], 1.0, 1e-2
        )


def test_integrate_sphere_great_circle():
    var = cp1_variety()
    u = tangent_basis(var, var.base_point)[0]
    curve = integrate_geodesic(var, var.base_point, u, math.pi, step=1e-3)
    assert np.linalg.norm(curve.vertices[-1] - curve.vertices[0]) <= 1e-14
    from normcurve.curves import discrete_curvature

    k = discrete_curvature(curve)
    assert np.max(np.abs(k - 2.0)) <= 1e-8


def test_integrate_matches_closed_form():
    rng = np.random.default_rng(51)
    for kind in ("real", "complex", "quaternion"):
        spc = veronese.space(kind, 2)
        var = veronese.variety(spc)
        circ, velocity = closed_form_circle(spc, *orthonormal_pair(spc, rng))
        curve = integrate_geodesic(var, circ(0.0), velocity(0.0), math.pi, step=1e-3)
        ts = np.arange(curve.n_vertices) * curve.nominal_step
        assert np.max(np.linalg.norm(circ(ts) - curve.vertices, axis=1)) <= 1e-13


def test_integrate_constraint_drift_and_planarity():
    from normcurve.curves import planarity_residual

    spc = veronese.space("quaternion", 2)
    var = veronese.variety(spc)
    rng = np.random.default_rng(52)
    p0 = veronese.sample_points(spc, 1, rng)[0]
    u = random_tangent(var, p0, rng)
    curve = integrate_geodesic(var, p0, u, math.pi, step=1e-3)
    drift = max(np.max(np.abs(var.constraint(v))) for v in curve.vertices[::100])
    assert drift <= 1e-14
    assert planarity_residual(curve.vertices) <= 1e-13
    assert np.linalg.norm(curve.vertices[-1] - curve.vertices[0]) <= 1e-14


def test_projection_stall_reported():
    # Gauss-Newton from a hundred times RP2's base point has not converged after 5 steps
    var = veronese.variety(veronese.space_from_name("rp2"))
    with pytest.raises(ProjectionError, match="^projection stalled at residual 4.21e\\+00$"):
        project_point(var, 100.0 * var.base_point)


def test_projection_recovers_nearby_points():
    spc = veronese.space("complex", 2)
    var = veronese.variety(spc)
    rng = np.random.default_rng(53)
    p = veronese.sample_points(spc, 1, rng)[0]
    noisy = p + 1e-4 * rng.standard_normal(len(p))
    back = project_point(var, noisy)
    assert np.max(np.abs(var.constraint(back))) <= 1e-12
    assert np.linalg.norm(back - p) <= 1e-3
