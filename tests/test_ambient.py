"""Hermitian matrix spaces: Jordan product and isometric flattening."""

import numpy as np
import pytest

from normcurve.algebra import COMPLEX, OCTONION, QUATERNION, REAL
from normcurve.ambient import (
    HermitianMatrix,
    flat_dim,
    flatten,
    frobenius_inner,
    jordan_product,
    random_hermitian,
    unflatten,
)


def test_hermitian_validation():
    bad = np.zeros((2, 2, 2))
    bad[0, 1] = [1.0, 1.0]
    bad[1, 0] = [1.0, 1.0]  # should be the conjugate [1, -1]
    with pytest.raises(ValueError, match="conjugate-symmetric"):
        HermitianMatrix(COMPLEX, bad)
    diag_bad = np.zeros((2, 2, 2))
    diag_bad[0, 0] = [1.0, 0.5]  # a diagonal entry cannot equal its own conjugate
    with pytest.raises(ValueError, match="conjugate-symmetric"):
        HermitianMatrix(COMPLEX, diag_bad)


def test_octonion_size_limit():
    with pytest.raises(ValueError, match="limited to size 3"):
        HermitianMatrix.zero(OCTONION, 4)


def test_jordan_identity_and_idempotent():
    rng = np.random.default_rng(21)
    x = random_hermitian(OCTONION, 3, rng)
    eye = HermitianMatrix.identity(OCTONION, 3)
    assert jordan_product(eye, x).allclose(x)

    e = np.zeros((3, 3, 8))
    e[0, 0, 0] = 1.0
    proj = HermitianMatrix(OCTONION, e)
    assert jordan_product(proj, proj).allclose(proj)


def test_real_jordan_square_matches_matrix_square():
    # oracle: plain numpy symmetric matrix multiplication
    rng = np.random.default_rng(22)
    for _ in range(100):
        sym = rng.standard_normal((3, 3))
        sym = 0.5 * (sym + sym.T)
        x = HermitianMatrix(REAL, sym[:, :, None])
        got = jordan_product(x, x).entries[:, :, 0]
        want = sym @ sym
        assert np.max(np.abs(got - want)) <= 1e-12 * max(1.0, np.max(np.abs(want)))


def test_jordan_commutative_bilinear():
    rng = np.random.default_rng(23)
    x = random_hermitian(QUATERNION, 3, rng)
    y = random_hermitian(QUATERNION, 3, rng)
    z = random_hermitian(QUATERNION, 3, rng)
    assert jordan_product(x, y).allclose(jordan_product(y, x))
    left = jordan_product(x + 2.0 * y, z)
    right = jordan_product(x, z) + 2.0 * jordan_product(y, z)
    assert left.allclose(right, atol=1e-12)


def test_shape_and_tag_mismatch():
    x = HermitianMatrix.identity(REAL, 2)
    y = HermitianMatrix.identity(REAL, 3)
    with pytest.raises(ValueError, match="size mismatch"):
        jordan_product(x, y)
    z = HermitianMatrix.identity(COMPLEX, 2)
    with pytest.raises(ValueError, match="algebra mismatch"):
        jordan_product(x, z)


def test_flatten_example_real_2x2():
    e = np.zeros((2, 2, 1))
    e[0, 0, 0] = 1.0
    x = HermitianMatrix(REAL, e)
    assert flat_dim(REAL, 2) == 3
    assert np.array_equal(flatten(x), [1.0, 0.0, 0.0])


def test_flat_dim_complex_3():
    # 3 diagonal + 2 coefficients for each of 3 off-diagonal pairs
    assert flat_dim(COMPLEX, 3) == 9


def test_flatten_roundtrip_exact():
    rng = np.random.default_rng(24)
    for alg, m in ((REAL, 4), (COMPLEX, 3), (QUATERNION, 3), (OCTONION, 3)):
        x = random_hermitian(alg, m, rng)
        v = flatten(x)
        assert v.shape == (flat_dim(alg, m),)
        back = unflatten(v, alg, m)
        assert np.array_equal(back.entries, x.entries) or np.max(
            np.abs(back.entries - x.entries)
        ) < 1e-15
        assert np.array_equal(flatten(back), v)


def test_unflatten_length_mismatch():
    with pytest.raises(ValueError, match="length"):
        unflatten(np.zeros(5), COMPLEX, 3)


def test_flatten_is_isometry_octonion():
    rng = np.random.default_rng(25)
    for _ in range(1000):
        x = random_hermitian(OCTONION, 3, rng)
        assert abs(np.linalg.norm(flatten(x)) - x.frobenius_norm()) <= 1e-12 * max(
            1.0, x.frobenius_norm()
        )


def test_flat_inner_product_matches_trace_form():
    rng = np.random.default_rng(26)
    for alg in (REAL, COMPLEX, QUATERNION, OCTONION):
        for _ in range(50):
            x = random_hermitian(alg, 3, rng)
            y = random_hermitian(alg, 3, rng)
            flat = float(flatten(x) @ flatten(y))
            trace_form = jordan_product(x, y).trace()
            assert flat == pytest.approx(frobenius_inner(x, y), abs=1e-12)
            assert flat == pytest.approx(trace_form, abs=1e-11)


def test_trace_and_outer():
    v = np.zeros((3, 4))
    v[0] = [0.6, 0.0, 0.8, 0.0]
    v[1] = [0.0, 0.0, 0.0, 0.0]
    p = HermitianMatrix.outer(QUATERNION, v)
    assert p.trace() == pytest.approx(1.0)
    assert p.entries[0, 0, 0] == pytest.approx(1.0)
