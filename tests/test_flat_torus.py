"""Flat-torus embeddings: closed-form curvature, worst directions, optimizer."""

import math
import re

import numpy as np
import pytest

from normcurve.curves import DiscreteCurve, discrete_curvature
from normcurve.flat_torus import (
    _POW_MARGIN,
    TorusEmbedding,
    _fibonacci_hemisphere,
    curvature_bound,
    curvature_radius_products,
    load_frequency_file,
    optimize_weights,
    product_family,
    torus_worst_direction,
    triangular_family,
)
from thread_cpu import needs_schedstat, other_threads_cpu_ms

SQRT32 = math.sqrt(1.5)


def _embed(torus, theta):
    """The immersion itself, angles (..., n) -> (..., 2J): cos/sin pairs per frequency."""
    phases = theta @ torus.freqs.T
    out = np.empty(theta.shape[:-1] + (2 * len(torus.freqs),))
    out[..., 0::2] = torus.weights * np.cos(phases)
    out[..., 1::2] = torus.weights * np.sin(phases)
    return out


def test_validation():
    with pytest.raises(ValueError, match="integral"):
        TorusEmbedding(np.array([[1.5, 0.0]]), np.array([1.0]))
    with pytest.raises(ValueError, match="positive"):
        TorusEmbedding(np.array([[1, 0], [0, 1]]), np.array([1.0, -1.0]))
    # w^2 must be a positive normal float: 1e-300 squares to 0, 1e-155 to a
    # subnormal, 1e200 to inf
    for weight in (1e-300, 1e200, 1e-155, math.nan):
        message = f"normal float square, got {re.escape(repr(weight))}$"
        with pytest.raises(ValueError, match=message):
            TorusEmbedding(triangular_family(2), np.array([1.0, 1.0, weight]))
    # each w^2 is finite, but the metric or the sum of the w^2 overflows
    overflow = "^weights too large: the metric or the sum of squared weights overflows$"
    with pytest.raises(ValueError, match=overflow):
        TorusEmbedding(triangular_family(2), np.array([1e154, 1e154, 1e154]))
    with pytest.raises(ValueError, match=overflow):
        TorusEmbedding(np.array([[1, 0], [0, 1]]), np.array([1.3e154, 1.3e154]))
    with pytest.raises(ValueError, match="non-parallel"):
        TorusEmbedding(np.array([[1, 0], [2, 0]]), np.array([1.0, 1.0]))
    with pytest.raises(ValueError, match="nonzero"):
        TorusEmbedding(np.array([[0, 0]]), np.array([1.0]))
    with pytest.raises(ValueError, match="degenerate"):
        TorusEmbedding(np.array([[1, 0]]), np.array([1.0]))


def test_embedding_lies_on_sphere():
    torus = TorusEmbedding(triangular_family(2), np.array([0.7, 1.1, 0.4]))
    rng = np.random.default_rng(81)
    thetas = rng.uniform(0.0, 2.0 * math.pi, size=(100, 2))
    pts = _embed(torus, thetas)
    assert np.max(np.abs(np.linalg.norm(pts, axis=1) - torus.sphere_radius)) <= 1e-12


def test_single_frequency_circle():
    torus = TorusEmbedding(np.array([[1]]), np.array([1.0]))
    kappa = curvature_radius_products(torus, np.array([[1.0]]))[0] / torus.sphere_radius
    assert kappa == pytest.approx(1.0)
    ws = torus_worst_direction(torus)
    assert ws.value == pytest.approx(1.0, abs=1e-12)
    assert ws.value == pytest.approx(curvature_bound(1), abs=1e-12)


def test_triangular_family_direction_independent():
    torus = TorusEmbedding(triangular_family(2), np.ones(3))
    rng = np.random.default_rng(82)
    values = []
    for _ in range(500):
        u = rng.standard_normal(2)
        values.append(curvature_radius_products(torus, u[None])[0])
    values = np.asarray(values)
    assert np.max(np.abs(values - SQRT32)) <= 1e-12
    assert np.var(values) <= 1e-18


def test_triangular_family_hand_oracle():
    # closed form: sum of fourth powers equals (quadratic form)^2 / 2 for
    # the three frequencies (1,0), (0,1), (1,1)
    rng = np.random.default_rng(83)
    w = 0.6
    torus = TorusEmbedding(triangular_family(2), np.full(3, w))
    for _ in range(50):
        p, q = rng.standard_normal(2)
        quartic = p**4 + q**4 + (p + q) ** 4
        quadratic = 2.0 * (p * p + p * q + q * q)
        assert quartic == pytest.approx(quadratic**2 / 2.0, rel=1e-12)
        value = curvature_radius_products(torus, np.array([[p, q]]))[0]
        assert value == pytest.approx(SQRT32, abs=1e-12)


def test_product_torus_axis_maximum():
    torus = TorusEmbedding(product_family(2), np.ones(2))
    # closed two-term form: kR along angle t is sqrt(2) * sqrt(1 - sin^2(2t)/2)
    for t in np.linspace(0.0, math.pi, 17):
        u = np.array([math.cos(t), math.sin(t)])
        expected = math.sqrt(2.0) * math.sqrt(1.0 - 0.5 * math.sin(2.0 * t) ** 2)
        got = curvature_radius_products(torus, u[None])[0]
        assert got == pytest.approx(expected, abs=1e-12)
    ws = torus_worst_direction(torus)
    assert ws.value == pytest.approx(math.sqrt(2.0), abs=1e-9)
    assert ws.value > SQRT32
    # the maximum sits on a coordinate axis
    axis_alignment = np.max(np.abs(ws.direction)) / np.linalg.norm(ws.direction)
    assert axis_alignment == pytest.approx(1.0, abs=1e-6)


def test_scale_invariance():
    torus = TorusEmbedding(triangular_family(2), np.array([1.0, 2.0, 0.5]))
    scaled = TorusEmbedding(triangular_family(2), 3.7 * np.array([1.0, 2.0, 0.5]))
    u = np.array([0.3, -1.2])
    v1 = curvature_radius_products(torus, u[None])[0]
    v2 = curvature_radius_products(scaled, u[None])[0]
    assert abs(v1 - v2) <= 1e-12


def test_zero_direction_rejected():
    torus = TorusEmbedding(product_family(2), np.ones(2))
    with pytest.raises(ValueError, match="nonzero"):
        torus.unit_direction(np.zeros(2))
    # the batched form rejects a zero row as well, in place of a NaN and a warning
    with pytest.raises(ValueError, match="^direction must be nonzero$"):
        curvature_radius_products(torus, np.array([[1.0, 0.5], [0.0, 0.0]]))


def test_fibonacci_grid_is_built_once_and_read_only():
    # every n = 3 search starts from the same grid, so it is cached, and no
    # caller may write into the shared copy
    grid = _fibonacci_hemisphere(64)
    assert grid is _fibonacci_hemisphere(64)
    assert not grid.flags.writeable
    assert np.allclose(np.linalg.norm(grid, axis=1), 1.0) and np.all(grid[:, 2] > 0.0)


def _dense_oracle(torus):
    """Maximum of kappa * R over 2e5 angles (n = 2) or 4e5 Fibonacci points (n = 3)."""
    if torus.n == 2:
        phis = np.linspace(0.0, math.pi, 200_000, endpoint=False)
        dirs = np.column_stack([np.cos(phis), np.sin(phis)])
    else:
        dirs = _fibonacci_hemisphere.__wrapped__(400_000)  # not kept in the cache
    return float(np.max(curvature_radius_products(torus, dirs)))


def test_worst_direction_certificate_fields():
    torus = TorusEmbedding(product_family(2), np.array([1.0, 1.3]))
    ws = torus_worst_direction(torus, grid=512)
    assert ws.value >= _dense_oracle(torus) - 1e-12
    torus3 = TorusEmbedding(product_family(3), np.array([1.0, 1.3, 0.8]))
    ws3 = torus_worst_direction(torus3, grid=512)
    assert ws3.value >= _dense_oracle(torus3) - 1e-12


@pytest.mark.parametrize(
    "freqs",
    [
        triangular_family(2),  # critical polynomial vanishes at equal weights
        product_family(2),  # maximum on the axis t = inf
        np.array([[1, 0], [0, 1], [1, 1], [1, -1]]),
        np.array([[1, 0], [1, 2], [3, 1]]),
        triangular_family(3),
        product_family(3),
    ],
    ids=["tri2", "prod2", "square2", "skew2", "tri3", "prod3"],
)
def test_worst_direction_against_dense_oracle(freqs):
    # the value is kappa * R at the returned direction, so it cannot exceed
    # the true maximum, and it may not fall below a dense sample of it
    rng = np.random.default_rng(87)
    weight_sets = [np.ones(len(freqs))] + [rng.uniform(0.3, 2.0, len(freqs)) for _ in range(4)]
    for weights in weight_sets:
        torus = TorusEmbedding(freqs, weights)
        ws = torus_worst_direction(torus, grid=1024)
        at_direction = curvature_radius_products(torus, ws.direction[None])[0]
        assert ws.value == pytest.approx(at_direction, rel=1e-12)
        assert ws.value >= _dense_oracle(torus) - 1e-12


# the n = 3 families of the pow oracle and margin tests: triangular, product, the
# square family of test_square_family_n3_exact_maximum, and a 5-frequency family
N3_FAMILIES = {
    "tri3": triangular_family(3),
    "prod3": product_family(3),
    "square3": np.array([[-2, 1, -2], [1, -1, 0], [2, 2, 0]]),
    "five3": np.array([[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1], [1, -1, 2]]),
}
N3_GRIDS = [1, 2, 3, 4, 5, 64, 1024]  # [torus] n3_grid accepts any count >= 1


def _n3_weight_sets(freqs, seed):
    """Equal weights, then two log-normal draws each at sigma 0.3 and 3."""
    rng = np.random.default_rng(seed)
    sets = [np.ones(len(freqs))]
    return sets + [np.exp(rng.normal(0.0, sigma, len(freqs))) for sigma in (0.3, 0.3, 3.0, 3.0)]


def _pow_newton_ascent(q_rows, c, v, vals):
    """The Newton ascent with every F by libm pow (``** 4``): the oracle."""
    active = np.ones(len(v), dtype=bool)
    for _ in range(50):
        s, vvt = v @ q_rows.T, v[:, :, None] * v[:, None]
        proj = np.eye(v.shape[1]) - vvt
        grad = np.einsum("iab,ib->ia", proj, 4.0 * (c * s**3) @ q_rows)
        hess = 12.0 * np.einsum("ij,ja,jb->iab", c * s**2, q_rows, q_rows)
        hess = proj @ hess @ proj - 4.0 * vals[:, None, None] * proj - vvt
        step = -np.einsum("iab,ib->ia", np.linalg.pinv(hess), grad)
        step = np.where((np.sum(step * grad, axis=1) > 0.0)[:, None], step, grad)
        active &= np.sum(step * grad, axis=1) > 1e-15 * vals
        if not active.any():
            break
        trial = v[:, None] + 0.5 ** np.arange(30)[:, None] * step[:, None]
        trial /= np.linalg.norm(trial, axis=2, keepdims=True)
        fc = (trial @ q_rows.T) ** 4 @ c
        pick = np.arange(len(v)), np.argmax(fc >= vals[:, None], axis=1)
        active &= fc[pick] >= vals
        v, vals = np.where(active[:, None], trial[pick], v), np.where(active, fc[pick], vals)
    return v


def _pow_worst_direction(torus, grid):
    """The n = 3 search with every F by libm pow: all grid points ranked by
    pow, then ``_pow_newton_ascent`` from the 4 best."""
    w2 = torus.weights**2
    q_rows, r = np.linalg.qr(torus.weights[:, None] * torus.freqs)
    v = _fibonacci_hemisphere(grid)
    f = (v @ q_rows.T) ** 4 @ (1.0 / w2)
    top = np.argsort(f)[::-1][:4]
    v = _pow_newton_ascent(q_rows, 1.0 / w2, v[top], f[top])
    f = (v @ q_rows.T) ** 4 @ (1.0 / w2)
    best = int(np.argmax(f))
    u = np.linalg.solve(r, v[best])
    return torus.unit_direction(u), math.sqrt(f[best] * w2.sum())


@pytest.mark.parametrize("name", list(N3_FAMILIES))
def test_n3_search_equals_the_pow_oracle(name):
    # pow decides every ranking and step test, so the value and direction are
    # the oracle's bit for bit: Nelder-Mead over them is chaotic under rounding
    freqs = N3_FAMILIES[name]
    for weights in _n3_weight_sets(freqs, seed=89):
        torus = TorusEmbedding(freqs, weights)
        for grid in N3_GRIDS:
            direction, value = _pow_worst_direction(torus, grid)
            ws = torus_worst_direction(torus, grid=grid)
            assert ws.value == value, (weights, grid)
            assert np.array_equal(ws.direction, direction), (weights, grid)


@pytest.mark.parametrize("name", list(N3_FAMILIES))
def test_squared_quartic_within_its_error_model(name):
    # F by squaring twice is within 8 eps of F by pow on every grid point, and
    # the margin inside which pow decides is at least 100 times the worst seen
    freqs, eps = N3_FAMILIES[name], np.finfo(float).eps
    worst = 0.0
    for weights in _n3_weight_sets(freqs, seed=90):
        q_rows = np.linalg.qr(weights[:, None] * freqs)[0]
        c = 1.0 / weights**2
        for grid in N3_GRIDS:
            s = _fibonacci_hemisphere(grid) @ q_rows.T
            exact = s**4 @ c
            err = np.abs(np.square(np.square(s)) @ c - exact)
            assert np.all(err <= 8.0 * eps * exact)
            worst = max(worst, float(np.max(err / exact)))
    assert (len(freqs) + 3) * _POW_MARGIN >= 100.0 * worst


@needs_schedstat
def test_n3_search_keeps_to_the_calling_thread():
    torus = TorusEmbedding(triangular_family(3), np.array([0.7, 1.1, 0.4, 0.9, 1.3, 0.6]))
    assert other_threads_cpu_ms(lambda: torus_worst_direction(torus, grid=1024)) == 0.0


def _assert_triangular_optimum(result):
    assert abs(result.value - SQRT32) <= 1e-12
    assert np.max(np.abs(result.weights - result.weights[0])) <= 1e-6
    # the exact search at the returned weights agrees with a dense sample
    torus = TorusEmbedding(triangular_family(2), result.weights)
    assert _dense_oracle(torus) <= result.value + 1e-12
    values = [value for _, value in result.history]
    assert values == sorted(values, reverse=True)


def test_optimizer_recovers_triangular_optimum():
    result = optimize_weights(
        triangular_family(2), np.array([1.2, 0.9, 1.0]), budget=10_000, seed=0
    )
    assert result.converged and result.message == "ok"
    assert result.evaluations <= 10
    _assert_triangular_optimum(result)


def test_optimizer_from_second_perturbed_start():
    result = optimize_weights(
        triangular_family(2), np.array([0.8, 1.3, 1.05]), budget=10_000, seed=1
    )
    assert result.converged
    _assert_triangular_optimum(result)


@pytest.mark.parametrize(
    "freqs",
    [
        product_family(2),
        np.array([[1, 0], [0, 1], [1, 1], [1, -1]]),
        np.array([[1, 0], [0, 1], [1, 2]]),  # the first master parks two weights on the floor
        np.array([[1, 0], [7, 1]]),
        np.array([[1, 0], [10, 1]]),
        np.array([[1, 0], [0, 1], [30, 1]]),
    ],
    ids=["prod2", "square2", "floor2", "shear7", "shear10", "shear30"],
)
def test_exchange_never_worse_than_start_nor_below_bound(freqs):
    start = torus_worst_direction(TorusEmbedding(freqs, np.ones(len(freqs)))).value
    result = optimize_weights(freqs, np.ones(len(freqs)))
    assert result.converged
    assert SQRT32 - 1e-9 <= result.value <= start
    at_weights = torus_worst_direction(TorusEmbedding(freqs, result.weights)).value
    assert at_weights == pytest.approx(result.value, rel=1e-12)


def test_exchange_budget_exhausted():
    # two searches: the start, then the first master's floor-parked weights
    start = np.array([1.2, 0.9, 1.0])
    result = optimize_weights(triangular_family(2), start, budget=2)
    assert result.evaluations == 2
    assert not result.converged
    assert result.message == "evaluation budget exhausted"
    # the best family evaluated is the start
    assert result.history == [(1, result.value)]
    assert np.allclose(result.weights, start / np.linalg.norm(start), rtol=1e-12)


def test_exchange_needs_a_successful_master(monkeypatch):
    # on the product torus the worst direction is always a seeded axis, so
    # every gap is 0; only the master's failure keeps the run from stopping
    import scipy.optimize

    def failing_step(fun, x0, **kwargs):
        x = np.asarray(x0) - np.eye(len(x0))[0]
        return scipy.optimize.OptimizeResult(x=x, success=False, message="failed step")

    monkeypatch.setattr(scipy.optimize, "minimize", failing_step)
    result = optimize_weights(product_family(2), np.ones(2), budget=5)
    assert result.evaluations == 5
    assert not result.converged
    assert result.message == "evaluation budget exhausted"


def test_worst_direction_near_degenerate_metric():
    # two frequencies: kappa * R peaks at R / min(w), along u orthogonal to the
    # heavier frequency.  Here the metric's eigenvalues are 5e-11 and 50.
    freqs, weights = np.array([[1, 0], [7, 1]]), np.array([5e-5, 1.0])
    torus = TorusEmbedding(freqs, weights)
    ws = torus_worst_direction(torus)
    exact = math.hypot(1.0, 2e4)
    assert ws.value == pytest.approx(exact, rel=1e-9)
    assert abs(freqs[1] @ ws.direction) <= 1e-9 * np.linalg.norm(ws.direction)
    # the pointwise formula sums u^T G u from the slopes, so it holds 1e-12
    # there; forming it from G is off by about 6e-7 (cond(G) = 1e12)
    u = ws.direction
    assert curvature_radius_products(torus, u[None])[0] == pytest.approx(exact, rel=1e-12)


@pytest.mark.parametrize("grid", [64, 1024])
def test_square_family_n3_exact_maximum(grid):
    # J = n = 3: Q is orthogonal, so F(v) <= (sum_j <q_j, v>^2)^2 / min w^2 = 1 / min w^2,
    # with equality at the row of Q of the lightest frequency: max kappa R = R / min w.
    # A small weight makes that peak a narrow spike in frequency coordinates.
    freqs = np.array([[-2, 1, -2], [1, -1, 0], [2, 2, 0]])
    rng = np.random.default_rng(88)
    weight_sets = [np.array([1e-4, 1.0, 1.0])]
    weight_sets += [np.exp(rng.uniform(math.log(1e-4), 0.0, 3)) for _ in range(4)]
    for weights in weight_sets:
        torus = TorusEmbedding(freqs, weights)
        ws = torus_worst_direction(torus, grid=grid)
        exact = torus.sphere_radius / weights.min()
        assert ws.value == pytest.approx(exact, rel=1e-12)
        at_direction = curvature_radius_products(torus, ws.direction[None])[0]
        assert at_direction == pytest.approx(exact, rel=1e-12)


def test_direction_search_never_reads_the_metric(monkeypatch):
    tori = [
        TorusEmbedding(np.array([[1]]), np.array([1.0])),
        TorusEmbedding(triangular_family(2), np.array([0.7, 1.1, 0.4])),
        TorusEmbedding(triangular_family(3), np.array([0.7, 1.1, 0.4, 0.9, 1.3, 0.6])),
    ]
    expected = [torus_worst_direction(torus, grid=256) for torus in tori]

    def no_metric(self):
        raise AssertionError("the direction search read the metric")

    monkeypatch.setattr(TorusEmbedding, "metric", property(no_metric))
    for torus, before in zip(tori, expected):
        after = torus_worst_direction(torus, grid=256)
        assert after.value == before.value
        assert np.array_equal(after.direction, before.direction)


def test_exchange_backs_off_a_degenerate_step(monkeypatch):
    # a master step to y = (-20, 0) on [[1, 0], [10, 1]] leaves a metric that
    # TorusEmbedding rejects; the step is halved, and the run goes on
    import scipy.optimize

    freqs = np.array([[1, 0], [10, 1]])
    with pytest.raises(ValueError, match="degenerate"):
        TorusEmbedding(freqs, np.exp(0.5 * np.array([-20.0, 0.0])))
    real_minimize, calls = scipy.optimize.minimize, []

    def degenerate_first(fun, x0, **kwargs):
        calls.append(x0)
        if len(calls) == 1:
            return scipy.optimize.OptimizeResult(
                x=np.array([-20.0, 0.0, 0.0]), success=True, message="ok"
            )
        return real_minimize(fun, x0, **kwargs)

    monkeypatch.setattr(scipy.optimize, "minimize", degenerate_first)
    result = optimize_weights(freqs, np.ones(2))
    assert result.converged and result.evaluations >= 3
    assert result.value == pytest.approx(math.sqrt(2.0), rel=1e-9)


def test_exchange_rescaled_step_is_no_step(monkeypatch):
    # the envelope is scale invariant, so a master that only scales the weights
    # down leads back to the same family.  Unscaled, w^2 = e^-20 would fail the
    # metric check here (eigenvalues 2e-13 and 2e-5), and the step would be halved.
    import scipy.optimize

    def scale_down(fun, x0, **kwargs):
        return scipy.optimize.OptimizeResult(
            x=np.append(np.full(len(x0) - 1, -20.0), x0[-1]), success=True, message="ok"
        )

    monkeypatch.setattr(scipy.optimize, "minimize", scale_down)
    result = optimize_weights(np.array([[1, 0], [100, 1]]), np.ones(2))
    assert result.converged and result.evaluations == 2


def test_exchange_searches_a_start_below_the_floor():
    # w^2 ratio 1e-12 < e^-20: the first search is at the start's own weights
    freqs, start = triangular_family(2), np.array([1e-6, 1.0, 1.0])
    start_value = torus_worst_direction(TorusEmbedding(freqs, start)).value
    result = optimize_weights(freqs, start)
    assert result.history[0] == (1, start_value)
    assert result.value <= start_value


def test_nelder_mead_budget_exhausted_at_n3():
    # n = 3 keeps Nelder-Mead, which spends the whole budget on this family
    result = optimize_weights(triangular_family(3), np.ones(6), budget=80, seed=0, grid=1024)
    assert result.evaluations == 80
    assert not result.converged
    assert result.message == "evaluation budget exhausted"


def test_optimizer_budget_exhausted_in_last_restart(monkeypatch):
    # a full run converges after 779 evaluations; the last restart starts at
    # evaluation 585, so a budget of 700 runs out inside it
    import scipy.optimize

    real_minimize, methods = scipy.optimize.minimize, []

    def recording(fun, x0, **kwargs):
        methods.append(kwargs["method"])
        return real_minimize(fun, x0, **kwargs)

    monkeypatch.setattr(scipy.optimize, "minimize", recording)
    result = optimize_weights(
        product_family(3), np.array([1.0, 1.3, 0.8]), budget=700, seed=0, grid=256
    )
    assert methods == ["Nelder-Mead"] * 4
    assert result.evaluations == 700
    assert not result.converged
    assert result.message == "evaluation budget exhausted"


def test_optimizer_single_frequency():
    result = optimize_weights(np.array([[1]]), np.array([2.0]), budget=10)
    assert result.value == pytest.approx(1.0, abs=1e-12)


def test_optimizer_infeasible_start_rejected():
    with pytest.raises(ValueError, match="degenerate"):
        optimize_weights(np.array([[1, 0]]), np.array([1.0]), budget=10)


def test_optimizer_steps_back_from_subnormal_squares():
    # from w = 1e-150 (w^2 = 1e-300) Nelder-Mead reaches weights whose square
    # is subnormal; each such step is infeasible, and no 1 / w^2 overflows
    start = np.array([1.0, 1.0, 1.0, 1.0, 1.0, 1e-150])
    result = optimize_weights(triangular_family(3), start, budget=50, grid=256)
    assert result.evaluations == 50
    assert curvature_bound(3) <= result.value <= result.history[0][1]


def test_n3_experiment_beats_product_torus():
    prod = TorusEmbedding(product_family(3), np.ones(3))
    prod_value = torus_worst_direction(prod, grid=1024).value
    assert prod_value == pytest.approx(math.sqrt(3.0), abs=1e-6)
    result = optimize_weights(triangular_family(3), np.ones(6), budget=150, seed=0, grid=1024)
    assert result.value <= prod_value + 1e-9
    assert result.value >= curvature_bound(3) - 1e-6


def test_no_configuration_beats_the_bound():
    rng = np.random.default_rng(84)
    configs = [
        TorusEmbedding(product_family(2), np.ones(2)),
        TorusEmbedding(triangular_family(2), np.ones(3)),
        TorusEmbedding(np.array([[1, 0], [0, 1], [1, 1], [1, -1]]), np.ones(4)),
        TorusEmbedding(np.array([[1]]), np.ones(1)),
        TorusEmbedding(triangular_family(3), np.ones(6)),
    ]
    for _ in range(10):
        weights = rng.uniform(0.3, 2.0, size=3)
        configs.append(TorusEmbedding(triangular_family(2), weights))
    for torus in configs:
        grid = 1024 if torus.n == 3 else 4096
        ws = torus_worst_direction(torus, grid=grid)
        assert ws.value >= curvature_bound(torus.n) - 1e-6


def test_closed_form_against_finite_differences():
    torus = TorusEmbedding(triangular_family(2), np.array([0.9, 1.2, 0.6]))
    rng = np.random.default_rng(85)
    eps = 1e-4  # balances O(eps^2) truncation against O(ulp/eps^2) roundoff
    for _ in range(20):
        u = torus.unit_direction(rng.standard_normal(2))
        theta0 = rng.uniform(0.0, 2.0 * math.pi, size=2)
        plus = _embed(torus, theta0 + eps * u)
        mid = _embed(torus, theta0)
        minus = _embed(torus, theta0 - eps * u)
        second = (plus - 2.0 * mid + minus) / eps**2
        kappa = curvature_radius_products(torus, u[None])[0] / torus.sphere_radius
        assert np.linalg.norm(second) == pytest.approx(kappa, abs=1e-6)
        # acceleration is normal: orthogonal to both coordinate tangents
        first = (plus - minus) / (2.0 * eps)
        assert abs(first @ second) <= 1e-5


def test_consistency_with_discrete_curve_machinery():
    # straight lines in angle space are geodesics; their images sampled at
    # equal arc length must show the closed-form curvature
    torus = TorusEmbedding(triangular_family(2), np.ones(3) / math.sqrt(3.0))
    rng = np.random.default_rng(86)
    u = torus.unit_direction(rng.standard_normal(2))
    h = 5e-4
    ts = h * np.arange(3000)
    theta0 = rng.uniform(0.0, 2.0 * math.pi, size=2)
    pts = _embed(torus, theta0 + ts[:, None] * u)
    curve = DiscreteCurve(pts, nominal_step=h, edge_tol=1e-8)
    kappa = discrete_curvature(curve)
    expected = curvature_radius_products(torus, u[None])[0] / torus.sphere_radius
    assert np.max(np.abs(kappa - expected)) <= 1e-6


def test_frequency_file_roundtrip(tmp_path):
    path = tmp_path / "freqs.txt"
    path.write_text("# frequency vector  weight\n1,0 1.0\n0,1 0.5  # comment\n\n1,1 0.25\n")
    back_f, back_w = load_frequency_file(path)
    assert np.array_equal(back_f, triangular_family(2))
    assert np.array_equal(back_w, [1.0, 0.5, 0.25])
    with pytest.raises(ValueError, match="expected"):
        bad = tmp_path / "bad.txt"
        bad.write_text("1,0 1.0 extra\n")
        load_frequency_file(bad)
    with pytest.raises(ValueError, match="no frequency"):
        empty = tmp_path / "empty.txt"
        empty.write_text("# nothing\n")
        load_frequency_file(empty)


@pytest.mark.parametrize("weight", ["nan", "inf", "-inf"])
def test_frequency_file_rejects_nonfinite_weight(tmp_path, weight):
    path = tmp_path / "freqs.txt"
    path.write_text(f"1,0 1.0\n0,1 {weight}\n1,1 1.0\n")
    with pytest.raises(ValueError) as info:
        load_frequency_file(path)
    assert str(info.value) == f"{path}:2: weight {weight!r} is not a finite number"
