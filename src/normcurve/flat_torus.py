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
n = 2 with direction-independent curvature.  ``optimize_weights`` runs a
derivative-free minimax descent over the weights for a fixed family.
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
    "save_frequency_file",
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
    """Worst direction with the grid certificate accompanying the maximum."""

    direction: np.ndarray
    value: float
    grid_points: int
    grid_spacing: float
    lipschitz_estimate: float
    certified_upper: float


def _fibonacci_hemisphere(count: int) -> np.ndarray:
    i = np.arange(count)
    z = (i + 0.5) / count  # upper hemisphere; kappa is even in u
    phi = i * math.pi * (3.0 - math.sqrt(5.0))
    r = np.sqrt(1.0 - z**2)
    return np.column_stack([r * np.cos(phi), r * np.sin(phi), z])


def torus_worst_direction(torus: TorusEmbedding, grid: int = 4096) -> DirectionSearch:
    """Global maximum of kappa(u) * R over directions (n <= 3).

    Dense sampling of the direction sphere followed by local polish of the
    best candidates; the report carries the grid resolution and a numeric
    Lipschitz estimate so the distance between grid max and true max can
    be bounded.
    """
    from scipy.optimize import minimize, minimize_scalar

    n = torus.n
    if n == 1:
        u = np.ones(1)
        value = torus_normal_curvature(torus, u) * torus.sphere_radius
        return DirectionSearch(torus.unit_direction(u), value, 1, 0.0, 0.0, value)

    if n == 2:
        phis = np.linspace(0.0, math.pi, grid, endpoint=False)
        dirs = np.column_stack([np.cos(phis), np.sin(phis)])
        vals = curvature_radius_products(torus, dirs)
        spacing = math.pi / grid
        lipschitz = float(np.max(np.abs(np.diff(vals)))) / spacing

        def negval(phi: float) -> float:
            d = np.array([[math.cos(phi), math.sin(phi)]])
            return -float(curvature_radius_products(torus, d)[0])

        best_phi, best_val = 0.0, -np.inf
        order = np.argsort(vals)[::-1]
        for idx in order[:3]:
            res = minimize_scalar(
                negval,
                bounds=(phis[idx] - spacing, phis[idx] + spacing),
                method="bounded",
                options={"xatol": 1e-13},
            )
            if -res.fun > best_val:
                best_val, best_phi = -res.fun, float(res.x)
        direction = torus.unit_direction(np.array([math.cos(best_phi), math.sin(best_phi)]))
        certified = max(best_val, float(vals.max()) + 0.5 * lipschitz * spacing)
        return DirectionSearch(direction, best_val, grid, spacing, lipschitz, certified)

    if n == 3:
        dirs = _fibonacci_hemisphere(grid)
        vals = curvature_radius_products(torus, dirs)
        spacing = math.sqrt(4.0 * math.pi / grid)
        sample = dirs[:: max(1, grid // 64)]
        eps = 1e-5
        grads = []
        for d in sample:
            t1 = np.cross(d, [1.0, 0.0, 0.0])
            if np.linalg.norm(t1) < 1e-6:
                t1 = np.cross(d, [0.0, 1.0, 0.0])
            t1 /= np.linalg.norm(t1)
            t2 = np.cross(d, t1)
            for t in (t1, t2):
                plus = (d + eps * t) / np.linalg.norm(d + eps * t)
                minus = (d - eps * t) / np.linalg.norm(d - eps * t)
                pair = np.vstack([plus, minus])
                fv = curvature_radius_products(torus, pair)
                grads.append(abs(fv[0] - fv[1]) / (2.0 * eps))
        lipschitz = 2.0 * float(np.max(grads))

        def negval3(x: np.ndarray, anchor: np.ndarray, t1: np.ndarray, t2: np.ndarray) -> float:
            d = anchor + x[0] * t1 + x[1] * t2
            d = d / np.linalg.norm(d)
            return -float(curvature_radius_products(torus, d[None, :])[0])

        best_dir, best_val = None, -np.inf
        for idx in np.argsort(vals)[::-1][:4]:
            anchor = dirs[idx]
            t1 = np.cross(anchor, [1.0, 0.0, 0.0])
            if np.linalg.norm(t1) < 1e-6:
                t1 = np.cross(anchor, [0.0, 1.0, 0.0])
            t1 /= np.linalg.norm(t1)
            t2 = np.cross(anchor, t1)
            res = minimize(
                negval3,
                np.zeros(2),
                args=(anchor, t1, t2),
                method="Nelder-Mead",
                options={"xatol": 1e-12, "fatol": 1e-14, "maxfev": 400},
            )
            if -res.fun > best_val:
                best_val = -res.fun
                d = anchor + res.x[0] * t1 + res.x[1] * t2
                best_dir = d / np.linalg.norm(d)
        direction = torus.unit_direction(best_dir)
        certified = max(best_val, float(vals.max()) + 0.5 * lipschitz * spacing)
        return DirectionSearch(direction, best_val, grid, spacing, lipschitz, certified)

    raise ValueError("direction search is implemented for n <= 3")


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
    restarts: int = 4,
) -> WeightOptimum:
    """Minimize max_u kappa(u) * R over positive weights for fixed frequencies.

    The objective is scale invariant, so the search runs over log weight
    ratios (J - 1 free parameters) with Nelder-Mead plus seeded restarts
    from perturbations of the incumbent; ``budget`` caps the number of
    objective evaluations (each one direction search).  Deterministic for
    a fixed seed.  Returned weights are normalized to sum w^2 = 1.
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
    for attempt in range(restarts):
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
            freqs.append([int(tok) for tok in parts[0].split(",")])
            weights.append(float(parts[1]))
    if not freqs:
        raise ValueError(f"{path}: no frequency lines found")
    lengths = {len(row) for row in freqs}
    if len(lengths) != 1:
        raise ValueError(f"{path}: inconsistent frequency dimensions {sorted(lengths)}")
    return np.asarray(freqs), np.asarray(weights)


def save_frequency_file(path, freqs, weights) -> None:
    freqs = np.atleast_2d(np.asarray(freqs))
    weights = np.atleast_1d(np.asarray(weights))
    with open(path, "w") as fh:
        fh.write("# frequency vector (comma separated)  weight\n")
        for row, w in zip(freqs, weights):
            fh.write(",".join(str(int(v)) for v in row) + f" {float(w)!r}\n")
