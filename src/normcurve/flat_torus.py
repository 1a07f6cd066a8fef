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
-<k_j, u>^2 times the block).

The scale-invariant objective kappa(u) * R is bounded below by
sqrt(3 n / (n + 2)) over all families and directions; the triangular
family {e_1, e_2, e_1 + e_2} with equal weights attains the bound at
n = 2 with direction-independent curvature.  ``torus_worst_direction`` is
exact at n = 2 (polynomial roots); at n = 3 it is a grid plus Newton
ascent.  ``optimize_weights`` runs a derivative-free minimax descent over
the weights for a fixed family.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "TorusEmbedding",
    "DirectionSearch",
    "WeightOptimum",
    "torus_normal_curvature",
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
        if np.any(self.weights <= 0.0):
            raise ValueError("weights must be positive")
        norms = np.linalg.norm(self.freqs, axis=1)
        if np.any(norms == 0.0):
            raise ValueError("frequency vectors must be nonzero")
        unit = self.freqs / norms[:, None]
        gram = np.abs(unit @ unit.T)
        np.fill_diagonal(gram, 0.0)
        if np.any(gram > 1.0 - 1e-12):
            raise ValueError("frequency vectors must be pairwise non-parallel")
        eigvals = np.linalg.eigvalsh(self.metric)
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

    @property
    def embed_dim(self) -> int:
        return 2 * len(self.freqs)

    def embed(self, theta) -> np.ndarray:
        """Map angles (..., n) to points (..., 2J); cos/sin pairs per frequency."""
        theta = np.asarray(theta, dtype=float)
        phases = theta @ self.freqs.T
        out = np.empty(theta.shape[:-1] + (self.embed_dim,))
        out[..., 0::2] = self.weights * np.cos(phases)
        out[..., 1::2] = self.weights * np.sin(phases)
        return out

    def unit_direction(self, u) -> np.ndarray:
        """Rescale u to unit length in the torus metric."""
        u = np.asarray(u, dtype=float)
        q = float(u @ self.metric @ u)
        if q <= 0.0:
            raise ValueError("direction must be nonzero")
        return u / math.sqrt(q)


def torus_normal_curvature(torus: TorusEmbedding, u) -> float:
    """Normal curvature along direction u (normalized to unit metric length)."""
    q = torus.unit_direction(u)
    slopes = torus.freqs @ q
    return float(np.sqrt(np.sum(torus.weights**2 * slopes**4)))


def curvature_radius_products(torus: TorusEmbedding, dirs: np.ndarray) -> np.ndarray:
    """kappa(u) * R for each row of ``dirs`` (metric normalization applied)."""
    g = torus.metric
    q = np.einsum("ia,ab,ib->i", dirs, g, dirs)
    slopes = dirs @ torus.freqs.T
    val = np.sqrt(np.einsum("j,ij->i", torus.weights**2, slopes**4)) / q
    return val * torus.sphere_radius


@dataclass
class DirectionSearch:
    """Worst direction, its value kappa * R, and the number of candidates."""

    direction: np.ndarray
    value: float
    grid_points: int


def _fibonacci_hemisphere(count: int) -> np.ndarray:
    i = np.arange(count)
    z = (i + 0.5) / count  # upper hemisphere; kappa is even in u
    phi = i * math.pi * (3.0 - math.sqrt(5.0))
    r = np.sqrt(1.0 - z**2)
    return np.column_stack([r * np.cos(phi), r * np.sin(phi), z])


def _tangent_frame(dirs: np.ndarray) -> np.ndarray:
    """Orthonormal tangent pairs (m, 2, 3) at the unit rows of ``dirs``."""
    near_axis = np.linalg.norm(np.cross(dirs, [1.0, 0.0, 0.0]), axis=1) < 1e-6
    t1 = np.cross(dirs, np.where(near_axis[:, None], [0.0, 1.0, 0.0], [1.0, 0.0, 0.0]))
    t1 /= np.linalg.norm(t1, axis=1, keepdims=True)
    return np.stack([t1, np.cross(dirs, t1)], axis=1)


def _newton_ascent(torus: TorusEmbedding, u: np.ndarray, vals: np.ndarray) -> tuple:
    """Batched Newton ascent of log(P / Q^2), P = sum_j w_j^2 <k_j, u>^4 and
    Q = u^T G u, on unit rows u (n = 3): being homogeneous of degree 0, its
    gradient is tangent and its Riemannian Hessian is the tangent block.
    Steps that do not ascend become gradient steps; steps halve (up to 29
    times) until kappa * R, given as ``vals``, does not decrease."""
    k, w2, g = torus.freqs, torus.weights**2, torus.metric
    active = np.ones(len(u), dtype=bool)
    for _ in range(50):
        s, gu = u @ k.T, u @ g
        quartic, quadratic = s**4 @ w2, np.sum(u * gu, axis=1)
        gp = 4.0 * (w2 * s**3) @ k / quartic[:, None]  # grad log P
        gq = 2.0 * gu / quadratic[:, None]  # grad log Q
        hess = 12.0 * np.einsum("ij,ja,jb->iab", w2 * s**2, k, k) / quartic[:, None, None]
        hess += 2.0 * gq[:, :, None] * gq[:, None] - gp[:, :, None] * gp[:, None]
        hess -= 4.0 * g / quadratic[:, None, None]
        frame = _tangent_frame(u)
        grad = np.einsum("ika,ia->ik", frame, gp - 2.0 * gq)
        hess = np.einsum("ika,iab,ilb->ikl", frame, hess, frame)
        step = -np.einsum("ikl,il->ik", np.linalg.pinv(hess), grad)
        step = np.where((np.sum(step * grad, axis=1) > 0.0)[:, None], step, grad)
        active &= np.sum(step * grad, axis=1) > 1e-15  # first-order gain in log(P / Q^2)
        if not active.any():
            break
        move = np.einsum("ik,ika->ia", step, frame)[:, None]
        trial = u[:, None] + 0.5 ** np.arange(30)[:, None] * move  # (m, 30, 3)
        trial /= np.linalg.norm(trial, axis=2, keepdims=True)
        fc = curvature_radius_products(torus, trial.reshape(-1, 3)).reshape(len(u), -1)
        pick = np.arange(len(u)), np.argmax(fc >= vals[:, None], axis=1)  # longest good step
        active &= fc[pick] >= vals
        u, vals = np.where(active[:, None], trial[pick], u), np.where(active, fc[pick], vals)
    return u, vals


def torus_worst_direction(torus: TorusEmbedding, grid: int = 4096) -> DirectionSearch:
    """Largest kappa(u) * R over directions (n <= 3).

    Exact at n = 2, from the roots of a polynomial; ``grid`` is not read.
    At n = 3, a Fibonacci grid of ``grid`` directions, then a batched Newton
    ascent from its 4 best points: a local maximum, so a lower bound on the
    global one, which a coarse grid can miss.
    """
    n = torus.n
    if n == 1:
        dirs = np.ones((1, 1))
    elif n == 2:
        # along (1, t), kappa * R = R sqrt(p(t)) / q(t) with q(t) = (1, t) G (1, t)^T
        # and p(t) = sum_j w_j^2 (a_j + b_j t)^4, both highest power first.  The
        # stationary points are the roots of p'q - 2pq', which is 0 for constant kappa.
        m = np.arange(5)
        a, b = torus.freqs[:, :1], torus.freqs[:, 1:]
        p = torus.weights**2 @ (np.array([1.0, 4.0, 6.0, 4.0, 1.0]) * a**m * b ** (4 - m))
        q = np.array([1.0, 2.0, 1.0]) * torus.metric.ravel()[[3, 1, 0]]
        crit = np.polysub(np.polymul(np.polyder(p), q), 2.0 * np.polymul(p, np.polyder(q)))
        phis = np.append(np.arctan(np.roots(crit).real), [0.0, 0.5 * math.pi])
        dirs = np.column_stack([np.cos(phis), np.sin(phis)])
    elif n == 3:
        if grid < 1:
            raise ValueError(f"grid must be at least 1, got {grid}")
        grid_dirs = _fibonacci_hemisphere(grid)
        grid_vals = curvature_radius_products(torus, grid_dirs)
        top = np.argsort(grid_vals)[::-1][:4]
        dirs, vals = _newton_ascent(torus, grid_dirs[top], grid_vals[top])
        points = grid
    else:
        raise ValueError("direction search is implemented for n <= 3")
    if n < 3:
        points, vals = len(dirs), curvature_radius_products(torus, dirs)
    best = int(np.argmax(vals))
    return DirectionSearch(torus.unit_direction(dirs[best]), float(vals[best]), points)


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

    The objective is scale invariant, so the search runs over log weight
    ratios (J - 1 free parameters) with Nelder-Mead from the start plus 3
    seeded restarts from perturbations of the incumbent; ``budget`` caps
    the number of objective evaluations (each one direction search).
    Deterministic for a fixed seed.  Returned weights are normalized to
    sum w^2 = 1.
    """
    from scipy.optimize import minimize

    freqs = np.atleast_2d(np.asarray(freqs, dtype=float))
    w0 = np.atleast_1d(np.asarray(initial_weights, dtype=float))
    TorusEmbedding(freqs, w0)  # validates feasibility of the start
    j = len(w0)
    rng = np.random.default_rng(seed)
    history: list[tuple[int, float]] = []
    count = 0

    def objective(xfree: np.ndarray) -> float:
        nonlocal count
        if count >= budget:
            return np.inf
        w = np.exp(np.concatenate([[0.0], xfree])) if j > 1 else np.ones(1)
        try:
            torus = TorusEmbedding(freqs, w)
        except ValueError:
            count += 1
            return np.inf
        val = torus_worst_direction(torus, grid=grid).value
        count += 1
        if not history or val < history[-1][1]:
            history.append((count, val))
        return val

    if j == 1:
        value = objective(np.zeros(0))
        w = np.ones(1)
        return WeightOptimum(w, value, count, history, True, "single frequency")

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

