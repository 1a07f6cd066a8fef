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


def _multiply(alg, x, y):
    """Product through the package's structure tensor, over leading axes."""
    return np.einsum("ijk,...i,...j->...k", alg.table, x, y)


def _basis(alg, i):
    return np.eye(alg.dim)[i]


@pytest.mark.parametrize("alg", ALGEBRAS, ids=lambda a: a.kind)
def test_full_table_matches_pair_oracle(alg):
    for i in range(alg.dim):
        for j in range(alg.dim):
            got = _multiply(alg, _basis(alg, i), _basis(alg, j))
            want = _pair_multiply(_basis(alg, i), _basis(alg, j))
            assert np.array_equal(got, want), f"e{i} * e{j} disagrees for {alg.kind}"


@pytest.mark.parametrize("alg", ALGEBRAS, ids=lambda a: a.kind)
def test_signed_permutation_rebuilds_the_table(alg):
    # e_p e_q = perm_signs[p, k] e_k for q = perm[p, k]: one nonzero per (p, k)
    rebuilt = np.zeros_like(alg.table)
    p, k = np.indices((alg.dim, alg.dim))
    rebuilt[p, alg.perm, k] = alg.perm_signs
    assert np.array_equal(rebuilt, alg.table)
    assert np.count_nonzero(alg.table) == alg.dim**2
    # right multiplication by y gathers and signs what the table contracts
    y = alg.random(np.random.default_rng(16), (5, 3))
    dense = np.einsum("pqk,...q->...pk", alg.table, y)
    assert np.array_equal(alg.right_matrices(y), dense)
    assert np.array_equal(alg.right_matrices(y[:, 1]), dense[:, 1])  # a strided view


def test_complex_identity_times_i():
    one = np.array([1.0, 0.0])
    i = np.array([0.0, 1.0])
    assert np.array_equal(_multiply(COMPLEX, one, i), i)
    assert np.array_equal(_multiply(COMPLEX, i, i), [-1.0, 0.0])


def test_quaternion_ij_k():
    i, j, k = (_basis(QUATERNION, t) for t in (1, 2, 3))
    assert np.array_equal(_multiply(QUATERNION, i, j), k)
    assert np.array_equal(_multiply(QUATERNION, j, i), -k)


def test_octonion_associator_nonzero():
    e = np.eye(8)
    lhs = _multiply(OCTONION, _multiply(OCTONION, e[1], e[2]), e[4])
    rhs = _multiply(OCTONION, e[1], _multiply(OCTONION, e[2], e[4]))
    assert np.max(np.abs(lhs - rhs)) > 1.0  # genuinely non-associative


def test_octonion_alternativity():
    rng = np.random.default_rng(11)
    for _ in range(1000):
        x = OCTONION.random(rng)
        y = OCTONION.random(rng)
        left = _multiply(OCTONION, x, _multiply(OCTONION, x, y))
        right = _multiply(OCTONION, _multiply(OCTONION, x, x), y)
        scale = max(1.0, np.max(np.abs(left)))
        assert np.max(np.abs(left - right)) <= 1e-12 * scale


@pytest.mark.parametrize("alg", ALGEBRAS, ids=lambda a: a.kind)
def test_composition_law(alg):
    rng = np.random.default_rng(12)
    x = alg.random(rng, (10_000,))
    y = alg.random(rng, (10_000,))
    lhs = np.linalg.norm(_multiply(alg, x, y), axis=-1)
    rhs = np.linalg.norm(x, axis=-1) * np.linalg.norm(y, axis=-1)
    assert np.max(np.abs(lhs - rhs)) <= 1e-10 * np.max(rhs)


@pytest.mark.parametrize("alg", [REAL, COMPLEX, QUATERNION], ids=lambda a: a.kind)
def test_associativity_of_the_associative_three(alg):
    rng = np.random.default_rng(13)
    for _ in range(200):
        x, y, z = (alg.random(rng) for _ in range(3))
        lhs = _multiply(alg, _multiply(alg, x, y), z)
        rhs = _multiply(alg, x, _multiply(alg, y, z))
        assert np.max(np.abs(lhs - rhs)) <= 1e-12 * max(1.0, np.max(np.abs(lhs)))


def test_conjugation_real_passthrough():
    assert np.array_equal(REAL.conj_signs * [3.0], [3.0])


def test_conjugation_complex():
    assert np.array_equal(COMPLEX.conj_signs * [0.0, 1.0], [0.0, -1.0])


def test_conjugation_involution_and_norm_identity():
    rng = np.random.default_rng(14)
    for _ in range(1000):
        x = OCTONION.random(rng)
        conj = x * OCTONION.conj_signs
        assert np.array_equal(conj * OCTONION.conj_signs, x)
        prod = _multiply(OCTONION, x, conj)
        expected = np.zeros(8)
        expected[0] = x @ x
        assert np.max(np.abs(prod - expected)) <= 1e-12 * max(1.0, expected[0])


@pytest.mark.parametrize("alg", ALGEBRAS, ids=lambda a: a.kind)
def test_trace_symmetry(alg):
    rng = np.random.default_rng(15)
    x = alg.random(rng, (500,))
    y = alg.random(rng, (500,))
    xy = _multiply(alg, x, y)[:, 0]
    yx = _multiply(alg, y, x)[:, 0]
    assert np.max(np.abs(xy - yx)) <= 1e-12 * max(1.0, np.max(np.abs(xy)))

