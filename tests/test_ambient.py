"""The ambient Jordan algebra of Hermitian matrices, in flat coordinates.

The Jordan product checked here is the one every claim solves against:
the quadratic tensor of ``variety``, whose Hessian rows are
4 flat(X o Y) (the constraint is 2 X o X plus linear terms).
"""

import numpy as np
import pytest

from normcurve.algebra import COMPLEX, OCTONION, QUATERNION, REAL
from normcurve.veronese import (
    SQRT2,
    base_point,
    flatten_entries,
    point_from_homogeneous,
    space,
    unflatten,
    variety,
)

PLANES = ("real", "complex", "quaternion", "octonion")


def _jordan(spc):
    """Flat Jordan product (X Y + Y X)/2 read off the variety's Hessian."""
    var = variety(spc)
    return lambda x, y: var.hessian(x, y)[..., : spc.flat_dim] / 4.0


def _identity(spc):
    eye = np.zeros(spc.flat_dim)
    eye[: spc.m] = 1.0
    return eye


def _random_entries(alg, m, rng):
    """Gaussian Hermitian entries (GOE-style symmetrization)."""
    raw = alg.random(rng, (m, m))
    return 0.5 * (raw + np.swapaxes(raw * alg.conj_signs, 0, 1))


def _close(got, want, rel=1e-13):
    return np.max(np.abs(got - want)) <= rel * max(1.0, np.max(np.abs(want)))


def test_octonion_size_limit():
    with pytest.raises(ValueError, match="octonionic"):
        space("octonion", 3)


def test_jordan_identity_and_idempotent():
    spc = space("octonion", 2)
    jordan = _jordan(spc)
    x = np.random.default_rng(21).standard_normal(spc.flat_dim)
    assert _close(jordan(_identity(spc), x), x)
    e11 = np.zeros(spc.flat_dim)
    e11[0] = 1.0
    assert _close(jordan(e11, e11), e11)


def test_real_jordan_square_matches_matrix_square():
    # oracle: plain numpy symmetric matrix multiplication
    jordan = _jordan(space("real", 2))
    rng = np.random.default_rng(22)
    for _ in range(100):
        sym = rng.standard_normal((3, 3))
        sym = 0.5 * (sym + sym.T)
        x = flatten_entries(sym[:, :, None])
        got = unflatten(jordan(x, x), REAL, 3)[:, :, 0]
        want = sym @ sym
        assert np.max(np.abs(got - want)) <= 1e-12 * max(1.0, np.max(np.abs(want)))


def test_complex_jordan_product_matches_matrix_product():
    # oracle: numpy complex matrices, (X Y + Y X) / 2
    jordan = _jordan(space("complex", 2))
    rng = np.random.default_rng(27)
    for _ in range(100):
        x, y = (_random_entries(COMPLEX, 3, rng) for _ in range(2))
        cx, cy = (e[..., 0] + 1j * e[..., 1] for e in (x, y))
        prod = 0.5 * (cx @ cy + cy @ cx)
        want = np.stack([prod.real, prod.imag], axis=-1)
        got = unflatten(jordan(flatten_entries(x), flatten_entries(y)), COMPLEX, 3)
        assert _close(got, want, rel=1e-12)


def test_jordan_commutative_bilinear():
    jordan = _jordan(space("quaternion", 2))
    x, y, z = np.random.default_rng(23).standard_normal((3, 15))
    assert _close(jordan(x, y), jordan(y, x))
    assert _close(jordan(x + 2.0 * y, z), jordan(x, z) + 2.0 * jordan(y, z))


@pytest.mark.parametrize(
    "kind,n", [(kind, 2) for kind in PLANES] + [("real", 3), ("quaternion", 3)]
)
def test_jordan_identity(kind, n):
    # (x^2 o y) o x = x^2 o (y o x): the identity that makes the algebra
    # Jordan, and which the octonionic matrices satisfy only at size 3
    spc = space(kind, n)
    jordan = _jordan(spc)
    rng = np.random.default_rng(28)
    x, y = rng.standard_normal((2, 20, spc.flat_dim))
    x2 = jordan(x, x)
    assert _close(jordan(jordan(x2, y), x), jordan(x2, jordan(y, x)))


def test_flatten_example_real_2x2():
    e = np.zeros((2, 2, 1))
    e[0, 0, 0] = 1.0
    assert space("real", 1).flat_dim == 3
    assert np.array_equal(flatten_entries(e), [1.0, 0.0, 0.0])


def test_flat_dim_complex_3():
    # 3 diagonal + 2 coefficients for each of 3 off-diagonal pairs
    assert space("complex", 2).flat_dim == 9


def test_flatten_roundtrip_exact():
    rng = np.random.default_rng(24)
    for alg, m in ((REAL, 4), (COMPLEX, 3), (QUATERNION, 3), (OCTONION, 3)):
        x = _random_entries(alg, m, rng)
        v = flatten_entries(x)
        assert v.shape == (space(alg.kind, m - 1).flat_dim,)
        back = unflatten(v, alg, m)
        assert np.max(np.abs(back - x)) < 1e-15
        assert np.array_equal(flatten_entries(back), v)
        # batched over leading axes, row by row
        batch = rng.standard_normal((2, 3, len(v)))
        stacked = unflatten(batch, alg, m)
        assert stacked.shape == (2, 3, m, m, alg.dim)
        assert np.array_equal(stacked[1, 2], unflatten(batch[1, 2], alg, m))
        assert np.max(np.abs(flatten_entries(stacked) - batch)) <= 1e-15 * np.max(np.abs(batch))


def test_unflatten_length_mismatch():
    with pytest.raises(ValueError, match="length"):
        unflatten(np.zeros(5), COMPLEX, 3)


def test_flatten_is_isometry_octonion():
    rng = np.random.default_rng(25)
    for _ in range(1000):
        x = _random_entries(OCTONION, 3, rng)
        frobenius = np.linalg.norm(x)
        assert abs(np.linalg.norm(flatten_entries(x)) - frobenius) <= 1e-12 * max(1.0, frobenius)


def test_flat_inner_product_matches_trace_form():
    rng = np.random.default_rng(26)
    for kind in PLANES:
        spc = space(kind, 2)
        jordan = _jordan(spc)
        for _ in range(50):
            x, y = (_random_entries(spc.algebra, 3, rng) for _ in range(2))
            flat = float(flatten_entries(x) @ flatten_entries(y))
            trace_form = float(np.sum(jordan(flatten_entries(x), flatten_entries(y))[:3]))
            assert flat == pytest.approx(float(np.sum(x * y)), abs=1e-12)
            assert flat == pytest.approx(trace_form, abs=1e-11)


def test_trace_and_outer():
    # v = (0.6 + 0.8 j, 0, 0) has the projection diag(1, 0, 0)
    spc = space("quaternion", 2)
    v = np.zeros((3, 4))
    v[0] = [0.6, 0.0, 0.8, 0.0]
    x = point_from_homogeneous(spc, v)
    proj = SQRT2 * x + _identity(spc) / 3.0  # uncentred, unscaled
    assert np.sum(proj[:3]) == pytest.approx(1.0)
    assert proj[0] == pytest.approx(1.0)
    assert np.max(np.abs(x - base_point(spc))) <= 1e-15
