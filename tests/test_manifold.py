"""Implicit-manifold engine: tangent spaces, curvature operators, geodesics."""

import dataclasses
import math

import numpy as np
import pytest

from normcurve import veronese
from normcurve.manifold import (
    GeodesicState,
    ImplicitManifold,
    SingularPointError,
    geodesic_state,
    integrate_geodesic,
    mean_curvature_vector,
    normal_curvature,
    project_point,
    project_velocity,
    second_fundamental_form,
    sectional_curvature,
    tangent_basis,
)


def sphere_manifold(radius: float, dim: int = 3) -> ImplicitManifold:
    base = np.zeros(dim)
    base[0] = radius
    return ImplicitManifold(
        ambient_dim=dim,
        constraint=lambda x: np.array([x @ x - radius**2]),
        jacobian=lambda x: 2.0 * x[None, :],
        hessian=lambda u, v: 2.0 * np.sum(u * v, axis=-1)[..., None],
        base_point=base,
    )


def plane_manifold() -> ImplicitManifold:
    normal = np.array([0.0, 0.0, 1.0])
    return ImplicitManifold(
        ambient_dim=3,
        constraint=lambda x: np.array([x @ normal]),
        jacobian=lambda x: normal[None, :],
        hessian=lambda u, v: np.zeros(np.shape(u)[:-1] + (1,)),
        base_point=np.zeros(3),
    )


def cone_manifold() -> ImplicitManifold:
    # smooth away from the apex; rank drops at the origin
    return ImplicitManifold(
        ambient_dim=3,
        constraint=lambda x: np.array([x[0] ** 2 + x[1] ** 2 - x[2] ** 2]),
        jacobian=lambda x: np.array([[2.0 * x[0], 2.0 * x[1], -2.0 * x[2]]]),
        hessian=lambda u, v: 2.0 * np.sum(u * v * [1.0, 1.0, -1.0], axis=-1)[..., None],
        base_point=np.array([1.0, 0.0, 1.0]),
    )


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
    (project_velocity, (E1,)),
]


@pytest.mark.parametrize("query,args", APEX_QUERIES, ids=[q.__name__ for q, _ in APEX_QUERIES])
def test_singular_point_reported(query, args):
    # the Jacobian vanishes at the cone's apex: rank 0, not the base-point rank 1
    with pytest.raises(SingularPointError):
        query(cone_manifold(), np.zeros(3), *args)


def test_partial_rank_drop_reported():
    # the circle {|x| = 1, x2 = 0} has codim 2; at (0, 0, 1) both constraint
    # gradients point along e2, so the rank is 1: nonzero, yet not the base rank
    var = ImplicitManifold(
        ambient_dim=3,
        constraint=lambda x: np.array([x @ x - 1.0, x[2]]),
        jacobian=lambda x: np.array([2.0 * x, [0.0, 0.0, 1.0]]),
        hessian=lambda u, v: np.array([2.0 * (u @ v), 0.0]),
        base_point=np.array([1.0, 0.0, 0.0]),
    )
    with pytest.raises(SingularPointError):
        second_fundamental_form(var, np.array([0.0, 0.0, 1.0]), E1, E1)


def test_projection_through_zero_jacobian_reported():
    # residual -1 at the sphere's centre, where the Jacobian 2x is zero
    with pytest.raises(SingularPointError):
        project_point(sphere_manifold(1.0), np.zeros(3))


def test_declared_dimension_mismatch_rejected():
    with pytest.raises(ValueError, match="intrinsic_dim"):
        ImplicitManifold(
            ambient_dim=3,
            constraint=lambda x: np.array([x @ x - 1.0]),
            jacobian=lambda x: 2.0 * x[None, :],
            hessian=lambda u, v: np.array([2.0 * (u @ v)]),
            base_point=np.array([1.0, 0.0, 0.0]),
            intrinsic_dim=1,
        )


def test_geodesic_state_velocity_must_be_unit():
    with pytest.raises(ValueError, match="unit"):
        GeodesicState(np.zeros(3), np.array([2.0, 0.0, 0.0]))


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
        from normcurve.ambient import SQRT2, HermitianMatrix, flatten

        e1 = np.zeros((3, 2))
        e1[0, 0] = 1.0
        cross = (
            HermitianMatrix.outer(spc.algebra, e1 + w)
            - HermitianMatrix.outer(spc.algebra, e1)
            - HermitianMatrix.outer(spc.algebra, w)
        )
        t = flatten(cross) / SQRT2
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
    from normcurve.ambient import SQRT2, HermitianMatrix, flatten
    from normcurve.algebra import REAL

    cross = (
        HermitianMatrix.outer(REAL, v + w)
        - HermitianMatrix.outer(REAL, v)
        - HermitianMatrix.outer(REAL, w)
    )
    return flatten(cross) / SQRT2


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


# -- closed-form Jordan spray ----------------------------------------------------


@pytest.mark.parametrize("name", VARIETY_SPACES)
def test_spray_matches_least_squares_solve(name):
    # oracle: the normal-space solve Dc(p) a = -D^2c[v, v] on the variety
    spc = veronese.space_from_name(name)
    var = veronese.variety(spc)
    rng = np.random.default_rng(54)
    for p in veronese.sample_points(spc, 6, rng):
        for v in random_tangent(var, p, rng, count=4):
            oracle = second_fundamental_form(var, p, v, v)
            assert np.linalg.norm(var.spray(p, v) - oracle) <= 1e-12 * np.linalg.norm(oracle)


def test_spray_geodesic_matches_least_squares_geodesic():
    # OP2 has no closed-form circle: the solve-driven integrator is the oracle
    spc = veronese.space("octonion", 2)
    var = veronese.variety(spc)
    rng = np.random.default_rng(55)
    p0 = veronese.sample_points(spc, 1, rng)[0]
    state = geodesic_state(var, p0, random_tangent(var, p0, rng))
    fast = integrate_geodesic(var, state, math.pi, step=1e-2)
    slow = integrate_geodesic(dataclasses.replace(var, spray=None), state, math.pi, step=1e-2)
    assert np.max(np.linalg.norm(fast.vertices - slow.vertices, axis=1)) <= 1e-9


# -- geodesic integration ------------------------------------------------------


def test_integrate_zero_length():
    var = sphere_manifold(0.5)
    state = geodesic_state(var, var.base_point, np.array([0.0, 1.0, 0.0]))
    curve = integrate_geodesic(var, state, 0.0)
    assert curve.n_vertices == 1
    assert np.array_equal(curve.vertices[0], state.position)


def test_integrate_sphere_great_circle():
    var = sphere_manifold(0.5)
    state = geodesic_state(var, var.base_point, np.array([0.0, 1.0, 0.0]))
    curve = integrate_geodesic(var, state, math.pi, step=1e-3)
    assert np.linalg.norm(curve.vertices[-1] - curve.vertices[0]) <= 1e-9
    from normcurve.curves import discrete_curvature

    k = discrete_curvature(curve)
    assert np.max(np.abs(k - 2.0)) <= 1e-5


def test_integrate_matches_closed_form():
    rng = np.random.default_rng(51)
    for kind in ("real", "complex", "quaternion"):
        spc = veronese.space(kind, 2)
        var = veronese.variety(spc)
        alg = spc.algebra
        # random Hermitian-orthonormal pair of representatives
        v = alg.random(rng, (3,))
        v /= np.linalg.norm(v)
        w = alg.random(rng, (3,))
        inner = np.einsum("pqk,ip,iq->k", alg.table, v * alg.conj_signs, w)
        w = w - np.einsum("pqk,ip,q->ik", alg.table, v, inner)
        w /= np.linalg.norm(w)
        circ = veronese.geodesic_circle(spc, v, w)
        state = geodesic_state(var, circ(0.0), circ.velocity(0.0))
        curve = integrate_geodesic(var, state, math.pi, step=1e-3)
        ts = np.arange(curve.n_vertices) * curve.nominal_step
        assert np.max(np.linalg.norm(circ(ts) - curve.vertices, axis=1)) <= 1e-7


def test_integrate_constraint_drift_and_planarity():
    from normcurve.curves import planarity_residual

    spc = veronese.space("quaternion", 2)
    var = veronese.variety(spc)
    rng = np.random.default_rng(52)
    p0 = veronese.sample_points(spc, 1, rng)[0]
    u = random_tangent(var, p0, rng)
    curve = integrate_geodesic(var, geodesic_state(var, p0, u), math.pi, step=1e-3)
    drift = max(np.max(np.abs(var.constraint(v))) for v in curve.vertices[::100])
    assert drift <= 1e-10
    assert planarity_residual(curve.vertices) <= 1e-8
    assert np.linalg.norm(curve.vertices[-1] - curve.vertices[0]) <= 1e-6


def test_projection_recovers_nearby_points():
    spc = veronese.space("complex", 2)
    var = veronese.variety(spc)
    rng = np.random.default_rng(53)
    p = veronese.sample_points(spc, 1, rng)[0]
    noisy = p + 1e-4 * rng.standard_normal(len(p))
    back = project_point(var, noisy)
    assert np.max(np.abs(var.constraint(back))) <= 1e-12
    assert np.linalg.norm(back - p) <= 1e-3
