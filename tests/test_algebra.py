"""Division-algebra arithmetic: tables, composition law, alternativity."""

import numpy as np
import pytest

from normcurve.algebra import (
    ALGEBRAS,
    COMPLEX,
    OCTONION,
    QUATERNION,
    REAL,
)


def _pair_multiply(x, y):
    """Independent oracle: recursive pair-based Cayley-Dickson product.

    (a, b)(c, d) = (ac - conj(d) b, da + b conj(c)), recursing down to
    plain real multiplication; a separate code path from the structure
    tensor used by the package.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    n = len(x)
    if n == 1:
        return x * y
    h = n // 2
    a, b = x[:h], x[h:]
    c, d = y[:h], y[h:]

    def conj(z):
        out = z.copy()
        out[1:] = -out[1:]
        return out

    top = _pair_multiply(a, c) - _pair_multiply(conj(d), b)
    bottom = _pair_multiply(d, a) + _pair_multiply(b, conj(c))
    return np.concatenate([top, bottom])


@pytest.mark.parametrize("alg", ALGEBRAS, ids=lambda a: a.kind)
def test_full_table_matches_pair_oracle(alg):
    for i in range(alg.dim):
        for j in range(alg.dim):
            got = alg.multiply(alg.basis(i), alg.basis(j))
            want = _pair_multiply(alg.basis(i), alg.basis(j))
            assert np.array_equal(got, want), f"e{i} * e{j} disagrees for {alg.kind}"


def test_complex_identity_times_i():
    one = np.array([1.0, 0.0])
    i = np.array([0.0, 1.0])
    assert np.array_equal(COMPLEX.multiply(one, i), i)
    assert np.array_equal(COMPLEX.multiply(i, i), [-1.0, 0.0])


def test_quaternion_ij_k():
    i = QUATERNION.basis(1)
    j = QUATERNION.basis(2)
    k = QUATERNION.basis(3)
    assert np.array_equal(QUATERNION.multiply(i, j), k)
    assert np.array_equal(QUATERNION.multiply(j, i), -k)


def test_octonion_associator_nonzero():
    e = [OCTONION.basis(t) for t in range(8)]
    lhs = OCTONION.multiply(OCTONION.multiply(e[1], e[2]), e[4])
    rhs = OCTONION.multiply(e[1], OCTONION.multiply(e[2], e[4]))
    assert np.max(np.abs(lhs - rhs)) > 1.0  # genuinely non-associative


def test_octonion_alternativity():
    rng = np.random.default_rng(11)
    for _ in range(1000):
        x = OCTONION.random(rng)
        y = OCTONION.random(rng)
        left = OCTONION.multiply(x, OCTONION.multiply(x, y))
        right = OCTONION.multiply(OCTONION.multiply(x, x), y)
        scale = max(1.0, np.max(np.abs(left)))
        assert np.max(np.abs(left - right)) <= 1e-12 * scale


@pytest.mark.parametrize("alg", ALGEBRAS, ids=lambda a: a.kind)
def test_composition_law(alg):
    rng = np.random.default_rng(12)
    x = alg.random(rng, (10_000,))
    y = alg.random(rng, (10_000,))
    lhs = alg.norm(alg.multiply(x, y))
    rhs = alg.norm(x) * alg.norm(y)
    assert np.max(np.abs(lhs - rhs)) <= 1e-10 * np.max(rhs)


@pytest.mark.parametrize("alg", [REAL, COMPLEX, QUATERNION], ids=lambda a: a.kind)
def test_associativity_of_the_associative_three(alg):
    rng = np.random.default_rng(13)
    for _ in range(200):
        x, y, z = (alg.random(rng) for _ in range(3))
        lhs = alg.multiply(alg.multiply(x, y), z)
        rhs = alg.multiply(x, alg.multiply(y, z))
        assert np.max(np.abs(lhs - rhs)) <= 1e-12 * max(1.0, np.max(np.abs(lhs)))


def test_conjugation_real_passthrough():
    assert np.array_equal(REAL.conjugate([3.0]), [3.0])


def test_conjugation_complex():
    assert np.array_equal(COMPLEX.conjugate([0.0, 1.0]), [0.0, -1.0])


def test_conjugation_involution_and_norm_identity():
    rng = np.random.default_rng(14)
    for _ in range(1000):
        x = OCTONION.random(rng)
        assert np.array_equal(OCTONION.conjugate(OCTONION.conjugate(x)), x)
        prod = OCTONION.multiply(x, OCTONION.conjugate(x))
        expected = np.zeros(8)
        expected[0] = OCTONION.norm(x) ** 2
        assert np.max(np.abs(prod - expected)) <= 1e-12 * max(1.0, expected[0])


@pytest.mark.parametrize("alg", ALGEBRAS, ids=lambda a: a.kind)
def test_trace_symmetry(alg):
    rng = np.random.default_rng(15)
    x = alg.random(rng, (500,))
    y = alg.random(rng, (500,))
    xy = alg.real_part(alg.multiply(x, y))
    yx = alg.real_part(alg.multiply(y, x))
    assert np.max(np.abs(xy - yx)) <= 1e-12 * max(1.0, np.max(np.abs(xy)))


def test_bad_coefficient_length_rejected():
    with pytest.raises(ValueError, match="trailing axis"):
        OCTONION.multiply(np.ones(4), np.ones(4))
