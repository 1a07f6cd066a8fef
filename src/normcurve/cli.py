"""Command-line driver: named verification suites and data dumps.

Suites run the package's quantitative checks at configurable sample
counts and tolerances and emit a line-oriented key/value report that is
byte-stable for a fixed seed and config (the single ``runtime_seconds``
line is the only volatile field).  Exit status: 0 when every claim
passes, 1 on claim failure, 2 on usage or configuration errors.

Commands::

    normcurve verify {veronese,rigidity,torus,curves,all} [--config PATH]
                     [--out PATH] [--seed N]
    normcurve dump-geodesic SPACE --length L --step H --out CSV [--seed N]
    normcurve torus optimize --freqs PATH --out PATH [--budget N] [--seed N]
                             [--grid N]
"""

from __future__ import annotations

import argparse
import configparser
import csv
import math
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from . import ball, curves, flat_torus, manifold, veronese

__all__ = ["Claim", "VerificationReport", "run_suite", "main"]

SUITE_NAMES = ("veronese", "rigidity", "torus", "curves")

# The built-in config.  ``load_config`` gives each override its default's
# type, and ``run_suite`` echoes every key of the suites it runs.
DEFAULTS: dict[str, dict[str, int | float]] = {
    "veronese": {
        "directions": 1000,
        "points": 1000,
        "mean_points": 100,
        "sectional_samples": 2000,
        "geodesic_step": 1e-3,
        "ball_tol": 1e-4,
    },
    "rigidity": {
        "geodesic_step": 1e-3,
    },
    "torus": {
        "directions": 10_000,
        "budget": 10_000,
        "grid": 4096,
        "opt_grid": 2048,
        "n3_budget": 400,
        "n3_grid": 1024,
    },
    "curves": {
        "bow_trials": 1000,
        "fary_trials": 100,
        "monotonicity_trials": 1000,
        "bow_edges": 120,
        "fary_step": 1e-3,
    },
}

# Least valid values above the default floors (1 for a count, any positive
# value for a step or tolerance).  A bow arc of one edge has no turning angle
# to compare.  A ball tolerance below 1e-15 is finer than the rounding of the
# ball's primal and dual bounds, so a ball may stop at the exact optimum
# uncertified: at 2.2e-16 every C2 cloud leaves the mean and takes 3 to 26
# pivots, and at seed 0 HP2 ends there with a gap of 3.8e-16 of its radius;
# at 1e-15 all five close in 0 iterations.
_FLOORS = {("curves", "bow_edges"): 2, ("veronese", "ball_tol"): 1e-15}


@dataclass
class Claim:
    """One verified statement: measured values against expected at tolerance."""

    claim_id: str
    statement: str
    measured: tuple
    expected: tuple
    tolerance: tuple

    @property
    def passed(self) -> bool:
        return all(
            abs(m - e) <= t for m, e, t in zip(self.measured, self.expected, self.tolerance)
        )


@dataclass
class VerificationReport:
    suite: str
    seed: int
    config_path: str
    claims: list[Claim] = field(default_factory=list)
    environment: dict = field(default_factory=dict)
    runtime_seconds: float = 0.0

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.claims)


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        return format(value, ".12g")
    return str(value)


def render_report(report: VerificationReport) -> str:
    lines = [
        "normcurve-report v1",
        f"suite = {report.suite}",
        f"seed = {report.seed}",
        f"config = {report.config_path}",
        "",
        "[claims]",
    ]
    for claim in report.claims:
        lines.append(f"id = {claim.claim_id}")
        lines.append(f"statement = {claim.statement}")
        lines.append("measured = " + " ".join(_fmt(float(v)) for v in claim.measured))
        lines.append("expected = " + " ".join(_fmt(float(v)) for v in claim.expected))
        lines.append("tolerance = " + " ".join(_fmt(float(v)) for v in claim.tolerance))
        lines.append(f"pass = {_fmt(claim.passed)}")
        lines.append("")
    lines.append("[environment]")
    for key in sorted(report.environment):
        lines.append(f"{key} = {_fmt(report.environment[key])}")
    lines.append("")
    lines.append("[summary]")
    lines.append(f"claims = {len(report.claims)}")
    lines.append(f"passed = {sum(c.passed for c in report.claims)}")
    lines.append(f"failed = {sum(not c.passed for c in report.claims)}")
    lines.append(f"runtime_seconds = {report.runtime_seconds:.3f}")
    return "\n".join(lines) + "\n"


def load_config(path: str | None) -> dict[str, dict[str, int | float]]:
    """The built-in config with the overrides of the INI file at ``path``.

    Each override takes its default's type; a count must be at least 1 and
    a step or tolerance positive and finite, or at least its ``_FLOORS``
    entry.  A file that ``configparser`` rejects (a repeated key, no
    section header), or one with keys under ``[DEFAULT]``, raises a
    one-line ``ValueError``.
    """
    merged = {section: dict(values) for section, values in DEFAULTS.items()}
    if path is None:
        return merged
    parser = configparser.ConfigParser()
    try:
        if not parser.read(path):
            raise FileNotFoundError(f"config file {path!r} not found")
        if parser.defaults():
            # configparser would copy these into every section
            keys = ", ".join(parser.defaults())
            raise ValueError(f"config keys under [DEFAULT] are not read: {keys}")
        overrides = {section: parser.items(section) for section in parser.sections()}
    except configparser.Error as exc:
        raise ValueError(f"config file {path!r}: {' '.join(str(exc).split())}") from None
    for section, items in overrides.items():
        if section not in merged:
            raise ValueError(f"unknown config section [{section}]")
        for key, text in items:
            if key not in merged[section]:
                raise ValueError(f"unknown config key {key!r} in [{section}]")
            kind = type(merged[section][key])
            floor = _FLOORS.get((section, key), 1 if kind is int else 0.0)
            try:
                value = kind(text)
                valid = value >= floor and (kind is int or 0.0 < value < math.inf)
            except ValueError:
                valid = False
            if not valid:
                if kind is int:
                    need = f"an integer >= {floor}"
                else:
                    need = f"a finite number >= {floor:g}" if floor else "a positive finite number"
                raise ValueError(f"[{section}] {key} = {text!r}: expected {need}")
            merged[section][key] = value
    return merged


# -- measurement engines -----------------------------------------------------
#
# Each engine computes the raw numbers for one acceptance-level check;
# the suites below wrap them into claim rows.


def check_normal_curvature(directions: int, seed: int) -> dict:
    """Max deviation of |II(u, u)| from 2 over random unit tangents."""
    rng = np.random.default_rng([seed, 1])
    per_point = 25
    per_space = {}
    for spc in veronese.standard_planes():
        var = veronese.variety(spc)
        n_points = max(1, math.ceil(directions / per_point))
        dev = 0.0
        for i, p in enumerate(veronese.sample_points(spc, n_points, rng)):
            basis = manifold.tangent_basis(var, p)
            take = min(per_point, directions - i * per_point)
            u = rng.standard_normal((take, len(basis))) @ basis
            u /= np.linalg.norm(u, axis=1, keepdims=True)
            dev = max(dev, float(np.max(np.abs(manifold.normal_curvature(var, p, u) - 2.0))))
        per_space[spc.name] = dev
    return {"max_deviation": max(per_space.values()), "per_space": per_space}


def check_sphere_radius(points: int, ball_tol: float, seed: int) -> dict:
    """Enclosing-ball radius of sampled point clouds against r_n."""
    rng = np.random.default_rng([seed, 2])
    spaces = list(veronese.standard_planes()) + [veronese.space("real", 3)]
    radii, expected, centers, gaps, iterations = [], [], [], [], []
    for spc in spaces:
        n = spc.m * math.ceil(points / spc.m)  # complete frames
        cloud = veronese.sample_points(spc, n, rng)
        b = ball.min_enclosing_ball(cloud, tol=ball_tol)
        radii.append(b.radius)
        expected.append(spc.sphere_radius)
        centers.append(float(np.linalg.norm(b.center)))
        gaps.append(b.gap)
        iterations.append(b.iterations)
    return {
        "radii": radii,
        "expected": expected,
        "center_norms": centers,
        "gaps": gaps,
        "iterations": iterations,
    }


def _random_direction(var, p0, rng) -> np.ndarray:
    """A random unit tangent at p0, drawn from rng."""
    basis = manifold.tangent_basis(var, p0)
    u = rng.standard_normal(len(basis)) @ basis
    return u / np.linalg.norm(u)


def check_circle_geodesics(step: float, seed: int) -> dict:
    """Closure, best-fit circle radius and planarity of length-pi geodesics,
    one per plane, integrated in lock step."""
    rng = np.random.default_rng([seed, 3])
    varieties, starts, directions = [], [], []
    for spc in veronese.standard_planes():
        varieties.append(veronese.variety(spc))
        starts.append(veronese.sample_points(spc, 1, rng)[0])
        directions.append(_random_direction(varieties[-1], starts[-1], rng))
    geodesics = manifold.integrate_geodesics(varieties, starts, directions, math.pi, step)
    max_closure = 0.0
    max_radius_dev = 0.0
    max_planarity = 0.0
    max_drift = 0.0
    for var, curve in zip(varieties, geodesics):
        closure = float(np.linalg.norm(curve.vertices[-1] - curve.vertices[0]))
        _, radius, _ = curves.fit_circle(curve.vertices)
        planar = curves.planarity_residual(curve.vertices)
        every = max(1, len(curve.vertices) // 16)
        drift = max(float(np.max(np.abs(var.constraint(v)))) for v in curve.vertices[::every])
        max_closure = max(max_closure, closure)
        max_radius_dev = max(max_radius_dev, abs(radius - 0.5))
        max_planarity = max(max_planarity, planar)
        max_drift = max(max_drift, drift)
    return {
        "max_closure": max_closure,
        "max_radius_dev": max_radius_dev,
        "max_planarity": max_planarity,
        "max_drift": max_drift,
    }


def check_rigidity_arithmetic(step: float, seed: int) -> dict:
    """Chordal distance at pi/2 plus the simplex circumradius obstruction."""
    chord_dev = 0.0
    for kind in ("real", "complex", "quaternion"):
        spc = veronese.space(kind, 3)
        alg = spc.algebra
        reps = []
        for i in range(4):
            e = np.zeros((spc.m, alg.dim))
            e[i, 0] = 1.0
            reps.append(veronese.point_from_homogeneous(spc, e))
        for i in range(4):
            for j in range(i + 1, 4):
                d = veronese.chordal_distance(spc, reps[i], reps[j])
                chord_dev = max(chord_dev, abs(d - 1.0))
    circ3 = veronese.simplex_circumradius(3, 1.0)
    circ4 = veronese.simplex_circumradius(4, 1.0)

    spc = veronese.space("complex", 2)
    var = veronese.variety(spc)
    rng = np.random.default_rng([seed, 4])
    p0 = veronese.base_point(spc)
    u = _random_direction(var, p0, rng)
    curve = manifold.integrate_geodesic(var, p0, u, math.pi / 2.0, step)
    half_chord = float(np.linalg.norm(curve.vertices[-1] - curve.vertices[0]))
    return {
        "chord_dev": chord_dev,
        "circ3": circ3,
        "circ4": circ4,
        "obstruction": circ4 > circ3,
        "half_geodesic_chord": half_chord,
    }


def check_mean_curvature(points: int, seed: int) -> dict:
    """| |H| - dim/r | at sampled points of the four planes."""
    rng = np.random.default_rng([seed, 5])
    worst = 0.0
    per_space = {}
    for spc in veronese.standard_planes():
        var = veronese.variety(spc)
        target = spc.intrinsic_dim / spc.sphere_radius
        pts = veronese.sample_points(spc, points, rng)
        dev = 0.0
        for p in pts:
            h = manifold.mean_curvature_vector(var, p)
            dev = max(dev, abs(float(np.linalg.norm(h)) - target))
        per_space[spc.name] = dev
        worst = max(worst, dev)
    return {"max_deviation": worst, "per_space": per_space}


def check_sectional_curvature(samples: int, seed: int) -> dict:
    """K = 1 on RP2; K within [1, 4] on the other planes."""
    rng = np.random.default_rng([seed, 6])

    def curvatures(spc, n_points, n_planes):
        # plane j is a random tangent plane at point j mod n_points
        var = veronese.variety(spc)
        pts = veronese.sample_points(spc, n_points, rng)
        coeffs = rng.standard_normal((n_planes, 2, spc.intrinsic_dim))
        pairs = np.empty((n_planes, 2, var.ambient_dim))
        for i, p in enumerate(pts):
            pairs[i::n_points] = coeffs[i::n_points] @ manifold.tangent_basis(var, p)
        q, _ = np.linalg.qr(pairs.swapaxes(1, 2))
        u, v = q[..., 0], q[..., 1]
        k = [
            manifold.sectional_curvature(var, p, u[i::n_points], v[i::n_points])
            for i, p in enumerate(pts)
        ]
        return np.concatenate(k)

    rp2_dev = float(np.max(np.abs(curvatures(veronese.space("real", 2), 100, 100) - 1.0)))
    ranges = {}
    for spc in veronese.standard_planes()[1:]:
        k = curvatures(spc, max(1, samples // 40), samples)
        ranges[spc.name] = (float(np.min(k)), float(np.max(k)))
    return {
        "rp2_max_dev": rp2_dev,
        "lower_violation": max(0.0, *(1.0 - kmin for kmin, _ in ranges.values())),
        "upper_violation": max(0.0, *(kmax - 4.0 for _, kmax in ranges.values())),
        "ranges": ranges,
    }


def check_torus(directions: int, budget: int, n3_budget: int, n3_grid: int, seed: int) -> dict:
    """Triangular-family constant, optimizer recovery, and the n = 3 probe."""
    rng = np.random.default_rng([seed, 7])
    target2 = flat_torus.curvature_bound(2)

    a2 = flat_torus.TorusEmbedding(flat_torus.triangular_family(2), np.ones(3))
    dirs = rng.standard_normal((directions, 2))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    values = flat_torus.curvature_radius_products(a2, dirs)
    variance = float(np.var(values))
    a2_dev = float(np.max(np.abs(values - target2)))

    opt = flat_torus.optimize_weights(
        flat_torus.triangular_family(2),
        np.array([1.2, 0.9, 1.0]),
        budget=budget,
        seed=seed,
    )
    n1 = flat_torus.TorusEmbedding(np.array([[1]]), np.array([1.0]))
    n1_value = flat_torus.torus_worst_direction(n1).value

    prod3 = flat_torus.TorusEmbedding(flat_torus.product_family(3), np.ones(3))
    prod3_value = flat_torus.torus_worst_direction(prod3, grid=n3_grid).value
    opt3 = flat_torus.optimize_weights(
        flat_torus.triangular_family(3),
        np.ones(6),
        budget=n3_budget,
        seed=seed,
        grid=n3_grid,
    )
    return {
        "variance": variance,
        "a2_max_dev": a2_dev,
        "optimizer_value": opt.value,
        "optimizer_dev": abs(opt.value - target2),
        "optimizer_evals": opt.evaluations,
        "n1_value": n1_value,
        "n3_achieved": opt3.value,
        "n3_product_value": prod3_value,
        "n3_gap_to_bound": opt3.value - flat_torus.curvature_bound(3),
        "sample_directions": dirs,
        "sample_values": values,
    }


def _space_curve_trials(rng, trials: int, draw, after=lambda rng: None) -> list:
    """Random trials whose curves come from one stacked
    ``curves.random_space_curve`` call.

    A trial draws ``draw(rng)``, which returns (turning, step, dim, extra),
    then its curve's normal block, then ``after(rng)``.  Returns
    (extra, curve, after's value) per trial.
    """
    drawn = []
    for _ in range(trials):
        turning, step, dim, extra = draw(rng)
        block = rng.standard_normal((len(turning) + 1, dim))
        drawn.append((turning, step, block, extra, after(rng)))
    turning, steps, blocks, extras, afters = zip(*drawn)
    batch = curves.random_space_curve(np.array(turning), np.array(steps), blocks)
    return list(zip(extras, batch, afters))


def check_bow(trials: int, n_edges: int, seed: int) -> dict:
    """Randomized endpoint comparisons plus the two named instances."""

    def draw(rng):
        step = float(rng.uniform(0.005, 0.02))
        kappa_max = float(rng.uniform(0.5, 2.5))
        c1 = curves.random_convex_arc(rng, n_edges, step, kappa_max)
        theta1 = curves.turning_angles(c1)
        factor = curves.random_curvature_profile(rng, len(theta1), high=1.0)
        return factor * theta1, step, int(rng.choice([2, 3, 5])), c1

    pairs = _space_curve_trials(np.random.default_rng([seed, 8]), trials, draw)
    violations = sum(not curves.bow_check(c1, c2).inequality_holds for c1, c2, _ in pairs)

    h = (math.pi / 2.0) / 300
    half = curves.sample_circle_arc(0.5, math.pi / 2.0, h)
    segment = curves.straight_segment(math.pi / 2.0, h)
    named = curves.bow_check(half, segment)

    quarter = curves.sample_circle_arc(1.0, math.pi / 2.0, h)
    self_report = curves.bow_check(quarter, quarter)
    return {
        "success_ratio": (trials - violations) / trials,
        "half_circle_gap": named.endpoint_gap_1,
        "segment_gap": named.endpoint_gap_2,
        "rigidity_detected": self_report.rigidity_detected,
    }


def check_fary(trials: int, step: float, seed: int) -> dict:
    """The polygon form of Chakerian's inequality on random closed polygons
    in the unit ball, and its equality case on a regular polygon inscribed
    in a great circle."""
    rng = np.random.default_rng([seed, 9])
    reports = [
        curves.fary_check(
            curves.random_closed_curve(rng, dim=5 if k % 10 == 9 else 3, step_target=step)
        )
        for k in range(trials)
    ]
    great = curves.fary_check(curves.sample_circle_arc(1.0, None, step, closed=True))
    return {
        "success_ratio": sum(r.bound_satisfied for r in reports) / trials,
        "min_average": min(r.average_curvature for r in reports),
        "great_circle_dev": abs(great.chord_ratio - 1.0),
        "great_circle_rounding": great.rounding,
    }


def check_monotonicity(trials: int, seed: int) -> dict:
    """Positivity of the chord/tangent inner product under curvature < 2."""
    n_edges = 157
    h = (math.pi / 2.0) / n_edges

    def draw(rng):
        profile = curves.random_curvature_profile(rng, n_edges - 1, high=1.9)
        return profile * h, h, 3, None

    def start(rng):
        return int(rng.integers(0, n_edges + 1))  # a vertex of the curve

    runs = _space_curve_trials(np.random.default_rng([seed, 10]), trials, draw, start)
    values = [curves.monotonicity_check(curve, t0) for _, curve, t0 in runs]
    return {
        "success_ratio": sum(value > 0.0 for value in values) / trials,
        "min_value": float(min(values)),
    }


# -- suites ------------------------------------------------------------------
#
# A suite takes its config section and returns its claims, the measured
# values it echoes into [environment] (``run_suite`` adds the section name
# and the config keys) and its side tables.  It calls the engines by their
# global names at call time, so a patched ``check_*`` is the one that runs.


def _suite_veronese(c: dict, seed: int):
    nc = check_normal_curvature(directions=c["directions"], seed=seed)
    sr = check_sphere_radius(points=c["points"], ball_tol=c["ball_tol"], seed=seed)
    cg = check_circle_geodesics(step=c["geodesic_step"], seed=seed)
    mc = check_mean_curvature(points=c["mean_points"], seed=seed)
    sc = check_sectional_curvature(samples=c["sectional_samples"], seed=seed)
    claims = [
        Claim(
            "C1",
            "normal curvature equals 2 in every tangent direction on the four "
            "projective planes at enclosing radius 1/sqrt(3)",
            (nc["max_deviation"],),
            (0.0,),
            (1e-8,),
        ),
        Claim(
            "C2",
            "sampled point clouds of RP2/CP2/HP2/OP2/RP3 have enclosing-ball "
            "radius sqrt(n/(2n+2))",
            tuple(sr["radii"]),
            tuple(sr["expected"]),
            tuple([1e-4] * len(sr["radii"])),
        ),
        Claim(
            "C3",
            "length-pi geodesics close up and are planar circles of radius 1/2",
            (cg["max_closure"], cg["max_radius_dev"], cg["max_planarity"]),
            (0.0, 0.0, 0.0),
            (1e-6, 1e-6, 1e-8),
        ),
        Claim(
            "C5",
            "mean curvature norm equals dim/r at sampled points of the four planes",
            (mc["max_deviation"],),
            (0.0,),
            (1e-6,),
        ),
        Claim(
            "C6",
            "sectional curvature is 1 on RP2 and lies in [1, 4] on CP2/HP2/OP2",
            (sc["rp2_max_dev"], sc["lower_violation"], sc["upper_violation"]),
            (0.0, 0.0, 0.0),
            (1e-6, 1e-6, 1e-6),
        ),
    ]
    measured = {
        "ball_max_gap": max(sr["gaps"]),
        "ball_iterations": sum(sr["iterations"]),
        "max_center_norm": max(sr["center_norms"]),
        "geodesic_max_drift": cg["max_drift"],
        **{f"normal_curvature_dev.{name}": dev for name, dev in nc["per_space"].items()},
        **{f"mean_curvature_dev.{name}": dev for name, dev in mc["per_space"].items()},
        **{f"sectional_min.{name}": kmin for name, (kmin, _) in sc["ranges"].items()},
        **{f"sectional_max.{name}": kmax for name, (_, kmax) in sc["ranges"].items()},
    }
    return claims, measured, {}


def _suite_rigidity(c: dict, seed: int):
    ra = check_rigidity_arithmetic(step=c["geodesic_step"], seed=seed)
    claims = [
        Claim(
            "C4",
            "chordal distance at intrinsic distance pi/2 is 1; circumradius of "
            "4 unit-separated points is sqrt(3/8), exceeding the triangle value "
            "1/sqrt(3)",
            (ra["chord_dev"] + 1.0, ra["circ3"], ra["circ4"]),
            (1.0, 1.0 / math.sqrt(3.0), math.sqrt(3.0 / 8.0)),
            (1e-9, 1e-12, 1e-12),
        ),
        Claim(
            "R-geodesic-chord",
            "a geodesic of length pi/2 ends at chordal distance 1 from its start",
            (ra["half_geodesic_chord"],),
            (1.0,),
            (1e-6,),
        ),
    ]
    return claims, {}, {}


def _suite_torus(c: dict, seed: int):
    # grid and opt_grid are echoed but read by no engine
    live = ("directions", "budget", "n3_budget", "n3_grid")
    tr = check_torus(**{key: c[key] for key in live}, seed=seed)
    claims = [
        Claim(
            "C7",
            "the triangular family at n = 2 has direction-independent "
            "curvature-radius product sqrt(3/2), and the weight optimizer "
            "recovers it from a perturbed start",
            (tr["variance"], tr["a2_max_dev"], tr["optimizer_dev"]),
            (0.0, 0.0, 0.0),
            (1e-18, 1e-9, 1e-4),
        ),
        Claim(
            "T-n1",
            "a single-frequency circle has curvature-radius product 1",
            (tr["n1_value"],),
            (1.0,),
            (1e-12,),
        ),
        Claim(
            "T-n3",
            "the optimized n = 3 triangular family does not exceed the plain "
            "product torus value sqrt(3)",
            (max(0.0, tr["n3_achieved"] - tr["n3_product_value"]),),
            (0.0,),
            (1e-9,),
        ),
    ]
    measured = {
        k: tr[k]
        for k in ("optimizer_evals", "optimizer_value", "n3_achieved", "n3_product_value", "n3_gap_to_bound")
    }
    measured["bound_n2"] = flat_torus.curvature_bound(2)
    tables = {
        "torus_directions": (
            ["u0", "u1", "curvature_radius_product"],
            np.column_stack([tr["sample_directions"], tr["sample_values"]]),
        )
    }
    return claims, measured, tables


def _suite_curves(c: dict, seed: int):
    bw = check_bow(trials=c["bow_trials"], n_edges=c["bow_edges"], seed=seed)
    fa = check_fary(trials=c["fary_trials"], step=c["fary_step"], seed=seed)
    mo = check_monotonicity(trials=c["monotonicity_trials"], seed=seed)
    claims = [
        Claim(
            "C8",
            "randomized valid bow comparisons never violate the endpoint "
            "inequality; the half-circle/segment instance reports gaps "
            "(1, pi/2); identical curves report rigidity",
            (
                bw["success_ratio"],
                bw["half_circle_gap"],
                bw["segment_gap"],
                1.0 if bw["rigidity_detected"] else 0.0,
            ),
            (1.0, 1.0, math.pi / 2.0, 1.0),
            (0.0, 1e-9, 1e-9, 0.0),
        ),
        Claim(
            "C9",
            "random closed polygons in the unit ball have average curvature at "
            "least 1 (L <= R * total turning); a regular polygon on a great "
            "circle attains L = R * sum 2 sin(turning / 2)",
            (fa["success_ratio"], fa["great_circle_dev"]),
            (1.0, 0.0),
            # rounding: fary_check's error model for the great circle's polygon
            (0.0, fa["great_circle_rounding"]),
        ),
        Claim(
            "C10",
            "length-pi/2 curves with curvature below 2 have positive "
            "chord/tangent inner product",
            (mo["success_ratio"],),
            (1.0,),
            (0.0,),
        ),
    ]
    measured = {"fary_min_average": fa["min_average"], "monotonicity_min_value": mo["min_value"]}
    return claims, measured, {}


_SUITE_FUNCS = {
    "veronese": _suite_veronese,
    "rigidity": _suite_rigidity,
    "torus": _suite_torus,
    "curves": _suite_curves,
}


def _check_seed(seed: int) -> None:
    if seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed}")


def run_suite(
    name: str,
    config_path: str | None = None,
    out_path: str | None = None,
    seed: int = 0,
) -> VerificationReport:
    """Execute a named suite (or 'all') and optionally write the report."""
    if name != "all" and name not in _SUITE_FUNCS:
        raise ValueError(f"unknown suite {name!r}; choose from {SUITE_NAMES + ('all',)}")
    _check_seed(seed)
    cfg = load_config(config_path)
    report = VerificationReport(
        suite=name,
        seed=seed,
        config_path=config_path or "builtin-defaults",
    )
    tables = {}
    started = time.perf_counter()
    for n in SUITE_NAMES if name == "all" else (name,):
        claims, measured, tbl = _SUITE_FUNCS[n](cfg[n], seed)
        report.claims.extend(claims)
        report.environment.update({f"{n}.{k}": v for k, v in {**cfg[n], **measured}.items()})
        tables.update(tbl)
    report.runtime_seconds = time.perf_counter() - started

    if out_path is not None:
        with open(out_path, "w") as fh:
            fh.write(render_report(report))
        for key, (header, rows) in tables.items():
            side = f"{out_path}.{key}.csv"
            with open(side, "w", newline="") as fh:
                writer = csv.writer(fh)
                writer.writerow(header)
                writer.writerows(np.asarray(rows).tolist())
    return report


# -- auxiliary commands ------------------------------------------------------


def dump_geodesic(space_name: str, length: float, step: float, out_path: str, seed: int = 0) -> None:
    """Integrate one geodesic and write 's, x0, ..., x_{D-1}' rows."""
    _check_seed(seed)
    spc = veronese.space_from_name(space_name)
    var = veronese.variety(spc)
    rng = np.random.default_rng([seed, 11])
    p0 = veronese.base_point(spc)
    u = _random_direction(var, p0, rng)
    curve = manifold.integrate_geodesic(var, p0, u, length, step)
    with open(out_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["s"] + [f"x{i}" for i in range(curve.dim)])
        for k, vertex in enumerate(curve.vertices):
            writer.writerow([format(k * curve.nominal_step, ".12g")] + vertex.tolist())


def torus_optimize_cmd(
    freqs_path: str, out_path: str, budget: int, seed: int, grid: int
) -> VerificationReport:
    """Optimize weights for a frequency family; result in the report schema."""
    for flag, value in (("--budget", budget), ("--grid", grid)):
        if value < 1:
            raise ValueError(f"{flag} must be at least 1, got {value}")
    started = time.perf_counter()
    freqs, weights = flat_torus.load_frequency_file(freqs_path)
    result = flat_torus.optimize_weights(freqs, weights, budget=budget, seed=seed, grid=grid)
    n = freqs.shape[1]
    bound = flat_torus.curvature_bound(n)
    report = VerificationReport(
        suite="torus-optimize",
        seed=seed,
        config_path=freqs_path,
        claims=[
            Claim(
                "T-opt-bound",
                "the optimized worst-case curvature-radius product does not "
                "fall below sqrt(3n/(n+2))",
                (max(0.0, bound - result.value),),
                (0.0,),
                (1e-6,),
            )
        ],
        environment={
            "torus_opt.n": n,
            "torus_opt.families": len(freqs),
            "torus_opt.achieved": result.value,
            "torus_opt.lower_bound": bound,
            "torus_opt.gap": result.value - bound,
            "torus_opt.weights": " ".join(format(float(w), ".12g") for w in result.weights),
            "torus_opt.evaluations": result.evaluations,
            "torus_opt.budget": budget,
            "torus_opt.converged": result.converged,
            "torus_opt.message": result.message,
            "torus_opt.history": "; ".join(
                f"{k}:{v:.12g}" for k, v in result.history[-12:]
            ),
        },
        runtime_seconds=time.perf_counter() - started,
    )
    with open(out_path, "w") as fh:
        fh.write(render_report(report))
    return report


# -- entry point ---------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="normcurve",
        description="verification suites for curvature-bounded embeddings",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run a named verification suite")
    p_verify.add_argument("suite", choices=SUITE_NAMES + ("all",))
    p_verify.add_argument("--config", default=None, help="INI config path")
    p_verify.add_argument("--out", default=None, help="report output path")
    p_verify.add_argument("--seed", type=int, default=0)

    p_dump = sub.add_parser("dump-geodesic", help="integrate and dump one geodesic")
    p_dump.add_argument("space", help="space name such as rp2, cp2, hp2, op2, rp3")
    p_dump.add_argument("--length", type=float, default=math.pi)
    p_dump.add_argument("--step", type=float, default=1e-3)
    p_dump.add_argument("--out", required=True)
    p_dump.add_argument("--seed", type=int, default=0)

    p_torus = sub.add_parser("torus", help="flat-torus utilities")
    torus_sub = p_torus.add_subparsers(dest="torus_command", required=True)
    p_opt = torus_sub.add_parser("optimize", help="minimax weight optimization")
    p_opt.add_argument("--freqs", required=True, help="frequency/weight file")
    p_opt.add_argument("--out", required=True)
    p_opt.add_argument("--budget", type=int, default=10_000)
    p_opt.add_argument("--seed", type=int, default=0)
    p_opt.add_argument("--grid", type=int, default=2048)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        if args.seed < 0:
            raise ValueError(f"--seed must be a non-negative integer, got {args.seed}")
        if args.command == "verify":
            report = run_suite(args.suite, config_path=args.config, out_path=args.out, seed=args.seed)
            sys.stdout.write(render_report(report))
            return 0 if report.all_passed else 1
        if args.command == "dump-geodesic":
            dump_geodesic(args.space, args.length, args.step, args.out, seed=args.seed)
            return 0
        if args.command == "torus":
            report = torus_optimize_cmd(args.freqs, args.out, args.budget, args.seed, args.grid)
            return 0 if report.all_passed else 1
    except (ValueError, OSError, RuntimeError, MemoryError) as exc:
        # RuntimeError: a numerical failure (ProjectionError,
        # SingularPointError, a generator giving up), not a failed claim;
        # MemoryError: an array too large to allocate (a long, fine geodesic)
        sys.stderr.write(f"error: {str(exc) or type(exc).__name__}\n")
        return 2
    return 2


if __name__ == "__main__":
    sys.exit(main())
