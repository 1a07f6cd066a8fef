"""Flat tori embedded by trigonometric coordinates, and the minimax weight
problem for their normal curvature.

A frequency family k_1, ..., k_J in Z^n with positive weights w_j defines

    F(theta) = (w_j cos<k_j, theta>, w_j sin<k_j, theta>)_j  in  R^{2J},

an immersed flat torus with constant metric g = sum w_j^2 k_j k_j^T lying
on the sphere of radius R = sqrt(sum w_j^2).  Straight lines in theta are
geodesics; along a g-unit direction u the acceleration of F is normal to
the image with norm

    kappa(u) = sqrt( sum_j w_j^2 <k_j, u>^4 ),

the closed-form normal curvature (each coordinate pair is an eigenfunction
of the flat Laplacian, so the second derivative of block j is
-<k_j, u>^2 times the block).  ``curvature_radius_products`` evaluates
kappa(u) * R.

The scale-invariant objective kappa(u) * R is bounded below by
sqrt(3 n / (n + 2)) over all families and directions; the triangular
family {e_1, e_2, e_1 + e_2} with equal weights attains the bound at
n = 2 with direction-independent curvature.  ``torus_worst_direction``
maximizes one quartic form over unit vectors of metric-whitened
coordinates at every n <= 3: exactly at n = 2 (polynomial roots), and by
a grid plus Newton ascent at n = 3, which gives a lower bound.  There the
quartic's values are formed by squaring twice, and by libm ``pow`` only
where a value decides a ranking or a step test or becomes an iterate's
value (``_quartic``).  So each search returns, bit for bit, what ``pow``
everywhere would, and the n = 3 Nelder-Mead, chaotic under rounding,
takes the same path.
``optimize_weights`` minimizes the worst value over the weights of a
fixed family: by the exchange method at n = 2, a master problem over an
active set of directions that each exact search extends, and by
Nelder-Mead over the search's lower bound at n = 3.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

__all__ = [
    "TorusEmbedding",
    "DirectionSearch",
    "WeightOptimum",
    "curvature_radius_products",
    "torus_worst_direction",
    "optimize_weights",
    "product_family",
    "triangular_family",
    "curvature_bound",
    "load_frequency_file",
]


def curvature_bound(n: int) -> float:
    """Optimal value sqrt(3n / (n + 2)) of max normal curvature times radius."""
    return math.sqrt(3.0 * n / (n + 2.0))


@dataclass
class TorusEmbedding:
    """Frequency/weight family defining a flat torus immersion."""

    freqs: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        self.freqs = np.atleast_2d(np.asarray(self.freqs, dtype=float))
        self.weights = np.atleast_1d(np.asarray(self.weights, dtype=float))
        if not np.allclose(self.freqs, np.round(self.freqs)):
            raise ValueError("frequency vectors must be integral")
        if len(self.weights) != len(self.freqs):
            raise ValueError("one weight per frequency vector required")
        with np.errstate(over="ignore"):
            w2 = self.weights**2
        # each w^2 a positive normal float, so that w^2 and 1 / w^2 are finite and nonzero
        bad = ~((self.weights > 0.0) & (w2 >= np.finfo(float).tiny) & (w2 < math.inf))
        if np.any(bad):
            weight = float(self.weights[bad][0])
            raise ValueError(f"weights must be positive with a normal float square, got {weight!r}")
        norms = np.linalg.norm(self.freqs, axis=1)
        if np.any(norms == 0.0):
            raise ValueError("frequency vectors must be nonzero")
        unit = self.freqs / norms[:, None]
        gram = np.abs(unit @ unit.T)
        np.fill_diagonal(gram, 0.0)
        if np.any(gram > 1.0 - 1e-12):
            raise ValueError("frequency vectors must be pairwise non-parallel")
        with np.errstate(over="ignore"):
            metric = self.metric
            finite = math.isfinite(float(w2.sum())) and np.all(np.isfinite(metric))
        if not finite:
            raise ValueError(
                "weights too large: the metric or the sum of squared weights overflows"
            )
        eigvals = np.linalg.eigvalsh(metric)
        if eigvals[0] <= 1e-12 * max(eigvals[-1], 1.0):
            raise ValueError("degenerate metric: frequencies do not span R^n")

    @property
    def n(self) -> int:
        return self.freqs.shape[1]

    @property
    def metric(self) -> np.ndarray:
        return np.einsum("j,ja,jb->ab", self.weights**2, self.freqs, self.freqs)

    @property
    def sphere_radius(self) -> float:
        return float(np.linalg.norm(self.weights))

    def unit_direction(self, u) -> np.ndarray:
        """Rescale u to unit length in the torus metric, u^T G u computed as
        sum_j w_j^2 <k_j, u>^2: nonnegative terms, no cancellation when G is
        near-singular."""
        u = np.asarray(u, dtype=float)
        q = float(self.weights**2 @ (self.freqs @ u) ** 2)
        if q <= 0.0:
            raise ValueError("direction must be nonzero")
        return u / math.sqrt(q)


def curvature_radius_products(torus: TorusEmbedding, dirs: np.ndarray) -> np.ndarray:
    """kappa(u) * R for each row of ``dirs`` (metric normalization applied,
    with u^T G u summed from the slopes as in ``unit_direction``)."""
    w2 = torus.weights**2
    slopes = dirs @ torus.freqs.T
    q = np.einsum("j,ij->i", w2, slopes**2)
    if np.any(q <= 0.0):
        raise ValueError("direction must be nonzero")
    val = np.sqrt(np.einsum("j,ij->i", w2, slopes**4)) / q
    return val * torus.sphere_radius


@dataclass
class DirectionSearch:
    """Worst direction, normalized to unit metric length, and its value kappa * R."""

    direction: np.ndarray
    value: float


@lru_cache(maxsize=4)
def _fibonacci_hemisphere(count: int) -> np.ndarray:
    """``count`` unit vectors spread over the upper hemisphere; built once
    per count and read-only, since every n = 3 search starts from them."""
    i = np.arange(count)
    z = (i + 0.5) / count  # upper hemisphere; kappa is even in u
    phi = i * math.pi * (3.0 - math.sqrt(5.0))
    r = np.sqrt(1.0 - z**2)
    grid = np.column_stack([r * np.cos(phi), r * np.sin(phi), z])
    grid.setflags(write=False)
    return grid


# Relative margin, per frequency, around a decision on the quartic F = sum_j c_j s_j^4
# inside which F is formed by libm pow (s ** 4).  F from squaring twice and F from pow
# sum the same J nonnegative terms: per term pow rounds once (under 1 ulp, so at most
# eps relative), squaring twice rounds twice (3 eps / 2) and the product with c_j once
# in each form (eps in all), and each of the two sums adds at most (J - 1) eps / 2.  So
# the two differ by at most (J + 3) eps of F while every term is a normal float.  The
# margin, (J + 3) times this constant, is 128 times that bound; ranking needs twice it.
_POW_MARGIN = 128.0 * np.finfo(float).eps

# the step factors 1, 1/2, ..., 2^-29 of the Newton ascent's halving trials
_HALVINGS = 0.5 ** np.arange(30)
_HALVINGS.setflags(write=False)


def _quartic(s: np.ndarray, c: np.ndarray, decides) -> np.ndarray:
    """F = sum_j c_j s_j^4 over the last axis of the slopes ``s``.  s^4 is
    formed by squaring twice, about 100 times cheaper than numpy's ``** 4``
    (one libm pow call per entry), and then by pow on the entries that
    ``decides(F, margin)`` marks from the squared F: there F is bit for bit
    ``s ** 4 @ c``.  The two forms agree to within ``margin``, relative, so
    ``decides`` marks every entry whose outcome that could change.  F is
    summed over the whole array both times, since a BLAS product over some
    of the rows can round them otherwise than over all."""
    s4 = np.square(np.square(s))
    mark = decides(s4 @ c, (len(c) + 3) * _POW_MARGIN)
    s4[mark] = s[mark] ** 4
    return s4 @ c


def _may_rank_top4(f: np.ndarray, margin: float) -> np.ndarray:
    """The grid points that may rank among the 4 largest F: every one not
    below the 4th largest value by more than the margin (all, on fewer than
    5 points)."""
    k = min(4, len(f))
    return f >= np.partition(f, -k)[-k] * (1.0 - margin)


def _newton_ascent(
    q_rows: np.ndarray, c: np.ndarray, v: np.ndarray, vals: np.ndarray
) -> np.ndarray:
    """Batched Newton ascent of F(v) = sum_j c_j <q_j, v>^4 on unit rows v,
    from values F(v) given as ``vals``.  With P = I - v v^T, F homogeneous of
    degree 4 has sphere gradient P grad F and tangent Hessian P H P - 4 F P;
    the step solves (P H P - 4 F P - v v^T) s = -P grad F, whose v v^T term
    keeps s tangent.  Steps that do not ascend become gradient steps; steps
    halve (up to 29 times) until F does not decrease.

    F on the halving trials comes from ``_quartic``: by libm pow on the
    trials whose test F >= vals lies within the margin, and on each row's
    first trial that passes it by more, the longest step that can be picked;
    the picked trial's F becomes the new ``vals``.  The rest are squared."""

    def near_vals(f: np.ndarray, margin: float) -> np.ndarray:
        sure = f > vals[:, None] * (1.0 + margin)
        # close to vals, or sure to pass, with no sure pass on a longer step
        return (f >= vals[:, None] * (1.0 - margin)) & (np.cumsum(sure, axis=1) - sure == 0)

    active = np.ones(len(v), dtype=bool)
    for _ in range(50):
        s, vvt = v @ q_rows.T, v[:, :, None] * v[:, None]
        proj = np.eye(v.shape[1]) - vvt
        grad = np.einsum("iab,ib->ia", proj, 4.0 * (c * s**3) @ q_rows)
        hess = 12.0 * np.einsum("ij,ja,jb->iab", c * s**2, q_rows, q_rows)
        hess = proj @ hess @ proj - 4.0 * vals[:, None, None] * proj - vvt
        step = -np.einsum("iab,ib->ia", np.linalg.pinv(hess), grad)
        step = np.where((np.sum(step * grad, axis=1) > 0.0)[:, None], step, grad)
        active &= np.sum(step * grad, axis=1) > 1e-15 * vals  # first-order gain in log F
        if not active.any():
            break
        trial = v[:, None] + _HALVINGS[:, None] * step[:, None]  # (m, 30, 3)
        trial /= np.linalg.norm(trial, axis=2, keepdims=True)
        fc = _quartic(trial @ q_rows.T, c, near_vals)
        pick = np.arange(len(v)), np.argmax(fc >= vals[:, None], axis=1)  # longest good step
        active &= fc[pick] >= vals
        v, vals = np.where(active[:, None], trial[pick], v), np.where(active, fc[pick], vals)
    return v


def torus_worst_direction(torus: TorusEmbedding, grid: int = 4096) -> DirectionSearch:
    """Largest kappa(u) * R over directions (n <= 3), in metric-whitened
    coordinates: with diag(w) K = Q R (thin QR), u = R^-1 v has u^T G u = |v|^2
    and w_j <k_j, u> = <q_j, v> for the rows q_j of Q, so on |v| = 1,
    (kappa R)^2 / R^2 is F(v) = sum_j <q_j, v>^4 / w_j^2.  No metric is
    formed, so F and its peaks stay accurate when G is near-singular.

    Exact at n = 1 and at n = 2, from the roots of a polynomial; ``grid``
    is read only at n = 3.
    At n = 3, a Fibonacci grid of ``grid`` directions v, then a batched
    Newton ascent from its 4 best points: a local maximum, so a lower bound
    on the global one.  F on the grid is squared (``_quartic``), and taken by
    libm pow on the points within the margin of the 4th largest squared
    value, which rank by it as before.  F is a quartic form, a trigonometric
    polynomial of degree 4 along every great circle, so no peak of it is
    narrow, even where a small weight makes one in u.  For a square family (J = n) Q is
    orthogonal and the maximum is R / min w exactly: [[-2, 1, -2], [1, -1, 0],
    [2, 2, 0]] with weights (1e-4, 1, 1) gives 14142.1 at grid 64.

    Returns the direction u, rescaled to unit metric length, and kappa * R
    there.
    """
    n, w2 = torus.n, torus.weights**2
    if n > 3:
        raise ValueError("direction search is implemented for n <= 3")
    q_rows, r = np.linalg.qr(torus.weights[:, None] * torus.freqs)
    if n == 1:
        v = np.ones((1, 1))
    elif n == 2:
        # with v = (cos phi, sin phi), z_j = q_j1 - i q_j2, F = A0 + Re(A2 e^(2 i phi) +
        # A4 e^(4 i phi)) with A2 = sum |z|^2 z^2 / 2 w^2 = a + ib and A4 = sum z^4 / 8 w^2
        # = c + id.  In t = tan(phi), dF/dphi = 0 is the quartic below, highest power
        # first, which is 0 for constant kappa; phi = pi/2 is its root at infinity.
        z = q_rows[:, 0] - 1j * q_rows[:, 1]
        a2, a4 = np.sum(np.abs(z) ** 2 * z**2 / w2) / 2.0, np.sum(z**4 / w2) / 8.0
        a, b, c, d = a2.real, a2.imag, a4.real, a4.imag
        crit = [2.0 * d - b, 2.0 * a - 8.0 * c, -12.0 * d, 2.0 * a + 8.0 * c, b + 2.0 * d]
        phis = np.append(np.arctan(np.roots(crit).real), [0.0, 0.5 * math.pi])
        v = np.column_stack([np.cos(phis), np.sin(phis)])
    else:
        if grid < 1:
            raise ValueError(f"grid must be at least 1, got {grid}")
        v = _fibonacci_hemisphere(grid)
        f = _quartic(v @ q_rows.T, 1.0 / w2, _may_rank_top4)
        top = np.argsort(f)[::-1][:4]
        v = _newton_ascent(q_rows, 1.0 / w2, v[top], f[top])
    f = (v @ q_rows.T) ** 4 @ (1.0 / w2)
    best = int(np.argmax(f))
    u = np.linalg.solve(r, v[best])  # back to frequency coordinates
    value = math.sqrt(f[best] * w2.sum())
    return DirectionSearch(torus.unit_direction(u), value)


@dataclass
class WeightOptimum:
    """Result of the minimax weight optimization."""

    weights: np.ndarray
    value: float
    evaluations: int
    history: list = field(default_factory=list)
    converged: bool = True
    message: str = ""


def optimize_weights(
    freqs,
    initial_weights,
    budget: int = 10_000,
    seed: int = 0,
    grid: int = 2048,
) -> WeightOptimum:
    """Minimize max_u kappa(u) * R over positive weights for fixed frequencies.

    ``budget`` caps the direction searches, which ``evaluations`` counts.
    At n = 2, where the search is exact, this is the exchange method
    (``_exchange``); ``seed`` and ``grid`` are not read.  At n = 3 the
    search is a local maximum with no certificate, and an exchange would
    drive the weights toward any peak it misses, so it is Nelder-Mead
    (``_nelder_mead``), deterministic for a fixed seed.  Returns the best
    family evaluated, normalized to sum w^2 = 1, with a monotone
    ``history`` of (evaluation, value) at each improvement.
    """
    freqs = np.atleast_2d(np.asarray(freqs, dtype=float))
    w0 = np.atleast_1d(np.asarray(initial_weights, dtype=float))
    TorusEmbedding(freqs, w0)  # validates feasibility of the start
    if budget < 1:
        raise ValueError(f"budget must be at least 1, got {budget}")
    if len(w0) == 1:
        value = torus_worst_direction(TorusEmbedding(freqs, np.ones(1))).value
        return WeightOptimum(np.ones(1), value, 1, [(1, value)], True, "single frequency")
    if freqs.shape[1] == 2:
        return _exchange(freqs, w0, budget)
    return _nelder_mead(freqs, w0, budget, seed, grid)


# default lower bound of log w^2 in the master's box, which keeps exp(y) far from
# underflow.  It does not keep the metric nondegenerate: for [[1, 0], [7, 1]] the
# metric at y = (-20, 0) fails TorusEmbedding's check, so ``_exchange`` checks
# every step itself.
_LOG_FLOOR = -20.0


def _nondegenerate(freqs: np.ndarray, y: np.ndarray) -> bool:
    """Whether the weights w^2 = e^y pass TorusEmbedding's metric check."""
    try:
        TorusEmbedding(freqs, np.exp(0.5 * y))
    except ValueError:
        return False
    return True


def _log_envelope(s2: np.ndarray, y: np.ndarray) -> np.ndarray:
    """2 log(kappa R) at weights w^2 = e^y along each direction whose squared
    slopes <k_j, u>^2 are the rows of ``s2``: log P - 2 log Q + log sum w^2."""
    x = np.exp(y)
    return np.log(s2**2 @ x) - 2.0 * np.log(s2 @ x) + math.log(x.sum())


def _exchange_master(
    freqs: np.ndarray, active: np.ndarray, y: np.ndarray, floor: float
) -> tuple:
    """min t subject to t >= 2 log(kappa R)(u) at every active u, over
    y in [floor, 0]^J, by SLSQP from y.  Returns the new y, the
    envelope's maximum there, and SLSQP's success flag and message."""
    from scipy.optimize import minimize

    s2 = (active @ freqs.T) ** 2
    s4 = s2**2
    e_t = np.eye(len(y) + 1)[-1]  # z = (y, t)

    def slack(z: np.ndarray) -> np.ndarray:
        return z[-1] - _log_envelope(s2, z[:-1])

    def slack_jac(z: np.ndarray) -> np.ndarray:
        x = np.exp(z[:-1])
        grad = x * (s4 / (s4 @ x)[:, None] - 2.0 * s2 / (s2 @ x)[:, None] + 1.0 / x.sum())
        return np.column_stack([-grad, np.ones(len(s2))])

    res = minimize(
        lambda z: z[-1],
        np.append(y, _log_envelope(s2, y).max()),
        jac=lambda z: e_t,
        method="SLSQP",
        bounds=[(floor, 0.0)] * len(y) + [(None, None)],
        constraints={"type": "ineq", "fun": slack, "jac": slack_jac},
        options={"ftol": 1e-15},  # a loose master stops short, and the gap test accepts it
    )
    y_new = np.clip(res.x[:-1], floor, 0.0)
    return y_new, float(_log_envelope(s2, y_new).max()), bool(res.success), str(res.message)


def _exchange(freqs: np.ndarray, w0: np.ndarray, budget: int) -> WeightOptimum:
    """Semi-infinite exchange method (Hettich & Kortanek, SIAM Review 35(3),
    1993) for the n = 2 minimax over x = w^2 = e^y.

    Each round searches the current weights once, adds the worst direction
    to an active set seeded with the unit frequency vectors and the axes,
    and solves the master problem over that set (``_exchange_master``).
    It stops when a search finds nothing above the master's value t, to
    1e-10 in 2 log(kappa R), after a master that reported success: a
    master that returns its start closes that gap trivially.  The master is
    nonconvex, so t is a local optimum, not a lower bound.  Every step is
    rescaled to max w = 1, and halved toward the current weights while the
    metric it leads to is degenerate; a halved step is not a solved master.
    The start is searched at its own weight ratios, even below the floor.
    """
    active = list(freqs / np.linalg.norm(freqs, axis=1, keepdims=True)) + list(np.eye(2))
    y = 2.0 * np.log(w0 / w0.max())
    floor = min(_LOG_FLOOR, float(y.min()))
    history: list[tuple[int, float]] = []
    best_y, best_val = y, math.inf
    t, solved, message = math.nan, False, "evaluation budget exhausted"
    for count in range(1, budget + 1):
        search = torus_worst_direction(TorusEmbedding(freqs, np.exp(0.5 * y)))
        if search.value < best_val:
            best_y, best_val = y, search.value
            history.append((count, best_val))
        if solved and 2.0 * math.log(search.value) - t <= 1e-10:
            message = "ok"
            break
        if count == budget:
            break
        active.append(search.direction)
        y_new, t, solved, master_message = _exchange_master(freqs, np.array(active), y, floor)
        y_new -= y_new.max()  # the envelope is scale invariant
        for _ in range(64):
            if _nondegenerate(freqs, y_new):
                break
            y_new = 0.5 * (y + y_new)
            solved, master_message = False, "its step degenerates the metric"
        else:
            y_new = y
        if not solved and np.array_equal(y_new, y):  # the same search and master would follow
            message = f"master problem failed: {master_message}"
            break
        y = y_new
    weights = np.exp(0.5 * best_y)
    weights /= np.linalg.norm(weights)
    return WeightOptimum(weights, best_val, count, history, message == "ok", message)


def _nelder_mead(
    freqs: np.ndarray, w0: np.ndarray, budget: int, seed: int, grid: int
) -> WeightOptimum:
    """Nelder-Mead over log weight ratios (J - 1 free parameters) from the
    start, then 3 restarts from seeded perturbations of the incumbent."""
    from scipy.optimize import minimize

    j = len(w0)
    rng = np.random.default_rng(seed)
    history: list[tuple[int, float]] = []
    count = 0

    def objective(xfree: np.ndarray) -> float:
        nonlocal count
        if count >= budget:
            return np.inf
        try:
            torus = TorusEmbedding(freqs, np.exp(np.concatenate([[0.0], xfree])))
        except ValueError:
            count += 1
            return np.inf
        val = torus_worst_direction(torus, grid=grid).value
        count += 1
        if not history or val < history[-1][1]:
            history.append((count, val))
        return val

    x0 = np.log(w0[1:] / w0[0])
    best_x, best_val = x0, objective(x0)
    for attempt in range(4):
        if count >= budget:
            break
        start = best_x if attempt == 0 else best_x + rng.normal(0.0, 0.25, size=j - 1)
        res = minimize(
            objective,
            start,
            method="Nelder-Mead",
            options={
                "maxfev": budget - count,
                "xatol": 1e-10,
                "fatol": 1e-12,
            },
        )
        if res.fun < best_val:
            best_val, best_x = float(res.fun), np.asarray(res.x)
    weights = np.exp(np.concatenate([[0.0], best_x]))
    weights /= np.linalg.norm(weights)
    converged = count < budget
    message = "ok" if converged else "evaluation budget exhausted"
    return WeightOptimum(weights, best_val, count, history, converged, message)


# -- frequency families ------------------------------------------------------


def product_family(n: int) -> np.ndarray:
    """Coordinate frequencies {e_i}: the plain product of circles."""
    return np.eye(n, dtype=int)


def triangular_family(n: int) -> np.ndarray:
    """Frequencies {e_i} plus {e_i + e_j : i < j}."""
    rows = [row for row in np.eye(n, dtype=int)]
    for i in range(n):
        for k in range(i + 1, n):
            row = np.zeros(n, dtype=int)
            row[i] = 1
            row[k] = 1
            rows.append(row)
    return np.asarray(rows)


def load_frequency_file(path) -> tuple[np.ndarray, np.ndarray]:
    """Read 'k_1,...,k_n  weight' lines; '#' starts a comment."""
    freqs: list[list[int]] = []
    weights: list[float] = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            body = line.split("#", 1)[0].strip()
            if not body:
                continue
            parts = body.split()
            if len(parts) != 2:
                raise ValueError(
                    f"{path}:{lineno}: expected 'k1,...,kn weight', got {line.strip()!r}"
                )
            try:
                freqs.append([int(tok) for tok in parts[0].split(",")])
                weights.append(float(parts[1]))
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from None
            if not math.isfinite(weights[-1]):
                raise ValueError(f"{path}:{lineno}: weight {parts[1]!r} is not a finite number")
    if not freqs:
        raise ValueError(f"{path}: no frequency lines found")
    lengths = {len(row) for row in freqs}
    if len(lengths) != 1:
        raise ValueError(f"{path}: inconsistent frequency dimensions {sorted(lengths)}")
    return np.asarray(freqs), np.asarray(weights)

