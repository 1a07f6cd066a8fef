"""CLI driver: suites, reports, exit codes, determinism, dumps."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from normcurve import curves, manifold, veronese
from normcurve.cli import (
    DEFAULTS,
    Claim,
    VerificationReport,
    check_bow,
    check_circle_geodesics,
    check_fary,
    check_mean_curvature,
    check_monotonicity,
    check_normal_curvature,
    check_rigidity_arithmetic,
    check_sectional_curvature,
    dump_geodesic,
    load_config,
    main,
    render_report,
    run_suite,
)
from thread_cpu import needs_schedstat, other_threads_cpu_ms

SMALL_CONFIG = """
[veronese]
directions = 60
points = 60
mean_points = 8
sectional_samples = 60
geodesic_step = 0.002
ball_tol = 0.0001

[torus]
directions = 500
budget = 600
grid = 1024
opt_grid = 512
n3_budget = 30
n3_grid = 256

[curves]
bow_trials = 30
fary_trials = 4
monotonicity_trials = 30
bow_edges = 80
fary_step = 0.001
"""


@pytest.fixture(scope="module")
def small_config(tmp_path_factory):
    path = tmp_path_factory.mktemp("cfg") / "small.ini"
    path.write_text(SMALL_CONFIG)
    return str(path)


def _stable_lines(text: str) -> list[str]:
    return [line for line in text.splitlines() if not line.startswith("runtime_seconds")]


def test_claim_pass_logic():
    good = Claim("X", "s", (1.0, 2.0), (1.0, 2.0), (0.0, 1e-9))
    bad = Claim("Y", "s", (1.0,), (2.0,), (0.5,))
    assert good.passed
    assert not bad.passed
    report = VerificationReport("demo", 0, "none", [good, bad])
    assert not report.all_passed
    text = render_report(report)
    assert "failed = 1" in text
    assert "id = X" in text


def test_unknown_suite_rejected():
    with pytest.raises(ValueError, match="unknown suite"):
        run_suite("nope")


def test_run_suite_rejects_negative_seed():
    with pytest.raises(ValueError, match=r"^seed must be a non-negative integer, got -1$"):
        run_suite("rigidity", seed=-1)


def test_dump_geodesic_rejects_negative_seed(tmp_path):
    out = tmp_path / "geo.csv"
    with pytest.raises(ValueError, match=r"^seed must be a non-negative integer, got -1$"):
        dump_geodesic("rp2", 1.0, 0.01, str(out), seed=-1)
    assert not out.exists()


def test_config_unknown_key(tmp_path):
    bad = tmp_path / "bad.ini"
    bad.write_text("[veronese]\nbogus = 3\n")
    with pytest.raises(ValueError, match="unknown config key"):
        load_config(str(bad))
    missing_err = pytest.raises(FileNotFoundError)
    with missing_err:
        load_config(str(tmp_path / "absent.ini"))


@pytest.mark.parametrize(
    "text, err",
    [
        (
            "[veronese]\npoints = 7\npoints = 7\n",
            "While reading from 'PATH' [line 3]: option 'points' in section 'veronese' already exists",
        ),
        ("points = 7\n", "File contains no section headers. file: 'PATH', line: 1 'points = 7\\n'"),
        ("[veronese]\npoints = 7%\n", "'%' must be followed by '%' or '(', found: '%'"),
    ],
    ids=["repeated-key", "no-section-header", "interpolation"],
)
def test_config_parser_errors_exit_two(tmp_path, capsys, text, err):
    path = tmp_path / "bad.ini"
    path.write_text(text)
    assert main(["verify", "veronese", "--config", str(path)]) == 2
    err = err.replace("PATH", str(path))
    assert capsys.readouterr().err == f"error: config file {str(path)!r}: {err}\n"


@pytest.mark.parametrize(
    "text, keys",
    [("[DEFAULT]\npoints = 7\n", "points"), ("[DEFAULT]\nball_tol = 0.5\n[veronese]\n", "ball_tol")],
    ids=["only-default", "default-beside-veronese"],
)
def test_config_default_section_rejected(tmp_path, capsys, text, keys):
    # configparser copies [DEFAULT] keys into every section, so none is read
    path = tmp_path / "defaults.ini"
    path.write_text(text)
    assert main(["verify", "rigidity", "--config", str(path)]) == 2
    assert capsys.readouterr().err == f"error: config keys under [DEFAULT] are not read: {keys}\n"


@pytest.mark.parametrize(
    "argv, err",
    [
        (
            ["dump-geodesic", "rp2", "--length", "1e300", "--step", "1e-300"],
            "length / step = 1e+300 / 1e-300: too many steps to count",
        ),
        (
            ["verify", "rigidity", "[rigidity]\ngeodesic_step = 1e-320\n"],
            "length / step = 1.5707963267948966 / 1e-320: too many steps to count",
        ),
        (
            ["verify", "curves", "[curves]\nfary_trials = 1\nfary_step = 1e-320\n"],
            "step_target = 1e-320: too many vertices to count",
        ),
    ],
    ids=["dump-geodesic", "geodesic_step", "fary_step"],
)
def test_overflowing_step_count_exits_two(tmp_path, capsys, argv, err):
    out = tmp_path / "out.txt"
    if argv[0] == "verify":
        config = tmp_path / "tiny_step.ini"
        config.write_text(argv[2])
        argv = argv[:2] + ["--config", str(config)]
    assert main(argv + ["--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {err}\n"
    assert not out.exists()


@pytest.mark.parametrize("name", ["bench.ini", "tiny.ini"])
def test_benchmark_configs_load(name):
    # the benchmark passes these files to ``verify``: a DEFAULTS change that
    # drops or retypes one of their keys must fail here, not in a benchmark run
    path = Path(__file__).resolve().parents[1] / "perfbench" / name
    cfg = load_config(str(path))
    assert cfg.keys() == DEFAULTS.keys()


def test_rigidity_suite_passes(small_config, tmp_path):
    out = tmp_path / "rigidity.txt"
    report = run_suite("rigidity", config_path=small_config, out_path=str(out), seed=0)
    assert report.all_passed
    ids = [c.claim_id for c in report.claims]
    assert "C4" in ids
    text = out.read_text()
    assert "normcurve-report v1" in text
    assert "pass = yes" in text


def test_empty_config_uses_defaults(tmp_path):
    empty = tmp_path / "empty.ini"
    empty.write_text("")
    report = run_suite("rigidity", config_path=str(empty), seed=0)
    assert report.all_passed
    assert report.environment["rigidity.geodesic_step"] == 0.001


def test_report_byte_stability(small_config, tmp_path):
    out1 = tmp_path / "a.txt"
    out2 = tmp_path / "b.txt"
    run_suite("curves", config_path=small_config, out_path=str(out1), seed=3)
    run_suite("curves", config_path=small_config, out_path=str(out2), seed=3)
    assert _stable_lines(out1.read_text()) == _stable_lines(out2.read_text())
    run_suite("curves", config_path=small_config, out_path=str(out2), seed=4)
    assert _stable_lines(out1.read_text()) != _stable_lines(out2.read_text())


def test_curves_suite_imports_no_scipy(small_config, tmp_path):
    # the closed-curve generator needs no spline: importing scipy.interpolate
    # alone costs about 49 MB of resident memory
    script = (
        "import sys\n"
        "from normcurve.cli import main\n"
        f"status = main(['verify', 'curves', '--config', {small_config!r}, '--out', {str(tmp_path / 'c.txt')!r}])\n"
        "print(status, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    src = str(Path(curves.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "0 []"


def test_verify_all_exit_code_and_side_table(small_config, tmp_path):
    out = tmp_path / "all.txt"
    code = main(["verify", "all", "--config", small_config, "--out", str(out), "--seed", "0"])
    assert code == 0
    text = out.read_text()
    # every acceptance criterion appears as exactly one claim row
    for cid in ("C1", "C2", "C3", "C4", "C5", "C6", "C7", "C8", "C9", "C10"):
        assert text.count(f"id = {cid}\n") == 1
    # every effective config value is echoed into [environment]
    effective = load_config(small_config)
    for section, values in effective.items():
        for key, value in values.items():
            assert f"{section}.{key} = {format(value, '.12g')}\n" in text
    # and so are the veronese suite's diagnostics
    for key in ("ball_max_gap", "ball_iterations", "max_center_norm", "geodesic_max_drift"):
        assert f"veronese.{key} = " in text
    for space in ("RP2", "CP2", "HP2", "OP2"):
        assert f"veronese.normal_curvature_dev.{space} = " in text
        assert f"veronese.mean_curvature_dev.{space} = " in text
    for space in ("CP2", "HP2", "OP2"):
        kmin = float(text.split(f"veronese.sectional_min.{space} = ")[1].split()[0])
        kmax = float(text.split(f"veronese.sectional_max.{space} = ")[1].split()[0])
        assert 1.0 - 1e-6 <= kmin <= kmax <= 4.0 + 1e-6
    # torus side table is written next to the report
    side = tmp_path / "all.txt.torus_directions.csv"
    assert side.exists()
    rows = side.read_text().splitlines()
    assert rows[0] == "u0,u1,curvature_radius_product"
    assert len(rows) == 501


def test_cli_usage_errors(tmp_path, capsys):
    assert main(["verify", "bogus"]) == 2
    assert main(["verify", "curves", "--config", str(tmp_path / "none.ini")]) == 2
    assert main(["verify", "all", "--parallel"]) == 2
    assert main([]) == 2
    # torus optimize: a budget or grid below 1
    freqs = tmp_path / "freqs.txt"
    freqs.write_text("1,0 1.0\n0,1 1.0\n1,1 1.0\n")
    for flag in ("--budget", "--grid"):
        capsys.readouterr()
        args = ["torus", "optimize", "--freqs", str(freqs), "--out", str(tmp_path / "t.txt")]
        assert main(args + [flag, "0"]) == 2
        assert capsys.readouterr().err == f"error: {flag} must be at least 1, got 0\n"
    # a count below 1, or a step or tolerance not positive and finite
    bad = tmp_path / "bad.ini"
    for section, key, value in (
        ("curves", "bow_trials", "0"),
        ("torus", "budget", "-5"),
        ("veronese", "directions", "1.5"),
        ("veronese", "ball_tol", "0"),
        ("rigidity", "geodesic_step", "nan"),
        ("curves", "fary_step", "inf"),
        ("curves", "fary_step", "small"),
    ):
        bad.write_text(f"[{section}]\n{key} = {value}\n")
        capsys.readouterr()
        assert main(["verify", section, "--config", str(bad)]) == 2
        assert capsys.readouterr().err.startswith(f"error: [{section}] {key} = ")


def test_single_edge_bow_arc_rejected(tmp_path, capsys):
    # one edge has no turning angle: the config names the key and its floor
    bad = tmp_path / "bow.ini"
    bad.write_text("[curves]\nbow_edges = 1\n")
    assert main(["verify", "curves", "--config", str(bad)]) == 2
    assert capsys.readouterr().err == "error: [curves] bow_edges = '1': expected an integer >= 2\n"
    bad.write_text("[curves]\nbow_edges = 2\n")
    assert load_config(str(bad))["curves"]["bow_edges"] == 2
    assert check_bow(trials=5, n_edges=2, seed=0)["success_ratio"] == 1.0


def test_ball_tol_below_rounding_rejected(tmp_path):
    # below 1e-15 the certified ball may stop at its optimum without closing its gap
    bad = tmp_path / "tol.ini"
    bad.write_text("[veronese]\nball_tol = 2.2e-16\n")
    with pytest.raises(ValueError) as err:
        load_config(str(bad))
    assert str(err.value) == "[veronese] ball_tol = '2.2e-16': expected a finite number >= 1e-15"
    bad.write_text("[veronese]\nball_tol = 1e-15\n")
    assert load_config(str(bad))["veronese"]["ball_tol"] == 1e-15


def test_numerical_failure_exits_two(tmp_path, capsys, monkeypatch):
    # a step of 5 along a length-10 geodesic leaves the variety: ProjectionError
    out = str(tmp_path / "geo.csv")
    assert main(["dump-geodesic", "rp2", "--length", "10", "--step", "5", "--out", out]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: projection stalled") and err.count("\n") == 1
    # at step 0.5 the generator draws a 64-vertex polygon, which C9 takes
    coarse = tmp_path / "coarse.ini"
    coarse.write_text(
        "[curves]\nbow_trials = 1\nfary_trials = 1\nmonotonicity_trials = 1\nfary_step = 0.5\n"
    )
    argv = ["verify", "curves", "--config", str(coarse), "--out", str(tmp_path / "c.txt")]
    assert main(argv) == 0
    # a polygon with a non-finite vertex, as a numerical failure would leave
    real = curves.random_closed_curve

    def nan_vertex(rng, dim, step_target):
        polygon = real(rng, dim=dim, step_target=step_target)
        polygon[7, 1] = math.nan
        return polygon

    monkeypatch.setattr(curves, "random_closed_curve", nan_vertex)
    assert main(argv) == 2
    assert capsys.readouterr().err == "error: polygon has a non-finite vertex\n"


def test_failing_claim_exits_one(monkeypatch, small_config):
    import normcurve.cli as cli_module

    real = cli_module.check_rigidity_arithmetic

    def off_by_one(step, seed):
        return {**real(step=step, seed=seed), "circ4": 1.0}

    # the suite looks the engine up at call time, so the patched one runs
    monkeypatch.setattr(cli_module, "check_rigidity_arithmetic", off_by_one)
    assert main(["verify", "rigidity", "--config", small_config]) == 1


def _bow_per_trial(trials: int, n_edges: int, seed: int, dims: list) -> dict:
    # oracle: the trial-by-trial engine, one random_space_curve call a trial
    # on the block it draws; the dim of each trial goes to ``dims``
    rng = np.random.default_rng([seed, 8])
    violations = 0
    for _ in range(trials):
        step = float(rng.uniform(0.005, 0.02))
        kappa_max = float(rng.uniform(0.5, 2.5))
        c1 = curves.random_convex_arc(rng, n_edges, step, kappa_max)
        theta1 = curves.turning_angles(c1)
        factor = curves.random_curvature_profile(rng, len(theta1), high=1.0)
        dims.append(int(rng.choice([2, 3, 5])))
        block = rng.standard_normal((len(theta1) + 1, dims[-1]))
        (c2,) = curves.random_space_curve((factor * theta1)[None], [step], [block])
        report = curves.bow_check(c1, c2)
        if not report.inequality_holds:
            violations += 1

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


def _monotonicity_per_trial(trials: int, seed: int) -> dict:
    # oracle: the trial-by-trial engine
    rng = np.random.default_rng([seed, 10])
    n_edges = 157
    h = (math.pi / 2.0) / n_edges
    min_value = np.inf
    positives = 0
    for _ in range(trials):
        profile = curves.random_curvature_profile(rng, n_edges - 1, high=1.9)
        block = rng.standard_normal((n_edges, 3))
        (curve,) = curves.random_space_curve((profile * h)[None], [h], [block])
        t0 = int(rng.integers(0, curve.n_vertices))
        value = curves.monotonicity_check(curve, t0)
        min_value = min(min_value, value)
        positives += value > 0.0
    return {
        "success_ratio": positives / trials,
        "min_value": float(min_value),
    }


@pytest.mark.parametrize("seed", range(4))
def test_stacked_curve_engines_match_per_trial_loops(seed):
    dims = []
    assert check_bow(trials=20, n_edges=40, seed=seed) == _bow_per_trial(20, 40, seed, dims)
    assert set(dims) == {2, 3, 5}
    assert check_monotonicity(trials=15, seed=seed) == _monotonicity_per_trial(15, seed)


def _sectional_per_sample(samples: int, seed: int) -> dict:
    # oracle: one plane and one single-pair sectional_curvature call at a
    # time, drawing from the rng in the engine's order
    rng = np.random.default_rng([seed, 6])

    def random_plane(basis):
        pair = rng.standard_normal((2, len(basis))) @ basis
        q, _ = np.linalg.qr(pair.T)
        return q[:, 0], q[:, 1]

    var = veronese.variety(veronese.space("real", 2))
    rp2_dev = 0.0
    for p in veronese.sample_points(veronese.space("real", 2), 100, rng):
        u, v = random_plane(manifold.tangent_basis(var, p))
        rp2_dev = max(rp2_dev, abs(manifold.sectional_curvature(var, p, u, v) - 1.0))
    ranges = {}
    for spc in veronese.standard_planes()[1:]:
        var = veronese.variety(spc)
        pts = veronese.sample_points(spc, max(1, samples // 40), rng)
        bases = [manifold.tangent_basis(var, p) for p in pts]
        ks = []
        for done in range(samples):
            u, v = random_plane(bases[done % len(pts)])
            ks.append(manifold.sectional_curvature(var, pts[done % len(pts)], u, v))
        ranges[spc.name] = (min(ks), max(ks))
    return {"rp2_max_dev": rp2_dev, "ranges": ranges}


@pytest.mark.parametrize("samples,seed", [(1, 0), (60, 0), (130, 1)])
def test_sectional_ranges_match_per_sample_loop(samples, seed):
    fast = check_sectional_curvature(samples=samples, seed=seed)
    slow = _sectional_per_sample(samples, seed)
    assert abs(fast["rp2_max_dev"] - slow["rp2_max_dev"]) <= 1e-12
    assert fast["ranges"].keys() == slow["ranges"].keys()
    for name, (kmin, kmax) in slow["ranges"].items():
        assert fast["ranges"][name] == pytest.approx((kmin, kmax), abs=1e-12, rel=0)
    assert fast["lower_violation"] == max(0.0, *(1.0 - lo for lo, _ in fast["ranges"].values()))
    assert fast["upper_violation"] == max(0.0, *(hi - 4.0 for _, hi in fast["ranges"].values()))


def test_curvature_engines_solve_once_per_point(monkeypatch):
    calls = []
    real = manifold._solve

    def counted(var, jac, rhs, **kwargs):
        calls.append(rhs.shape)
        return real(var, jac, rhs, **kwargs)

    monkeypatch.setattr(manifold, "_solve", counted)
    # 60 directions: 3 points per plane, taking 25, 25 and 10 directions
    check_normal_curvature(directions=60, seed=0)
    assert [shape[1] for shape in calls] == [25, 25, 10] * 4
    calls.clear()
    # 100 RP2 points with one plane each, then 130 // 40 = 3 points per plane
    # carrying 44, 43 and 43 planes, three right-hand sides per plane
    check_sectional_curvature(samples=130, seed=0)
    assert [shape[1] for shape in calls] == [3] * 100 + [3 * 44, 3 * 43, 3 * 43] * 3


def test_curvature_engines_never_use_the_spray(monkeypatch):
    # C1, C5 and C6 measure through the solve, never the closed forms they would check
    def engines():
        return (
            check_normal_curvature(60, 0),
            check_mean_curvature(8, 0),
            check_sectional_curvature(60, 0),
        )

    expected = engines()

    def closed_form_used(*args):
        raise AssertionError("a curvature claim used a closed-form spray or tangent")

    monkeypatch.setattr(manifold, "_jordan_spray", closed_form_used)
    monkeypatch.setattr(manifold, "_peirce_tangent", closed_form_used)
    assert engines() == expected
    assert expected[0]["max_deviation"] <= 1e-8 and expected[2]["rp2_max_dev"] <= 1e-6
    with pytest.raises(AssertionError, match="closed-form"):
        check_circle_geodesics(step=0.25, seed=0)  # the integrator does use them


@needs_schedstat
def test_circle_geodesics_keep_to_the_calling_thread():
    # the stacked Jordan products and the blocked circle fits wake no BLAS worker
    assert other_threads_cpu_ms(lambda: check_circle_geodesics(0.003, 0)) == 0.0


@needs_schedstat
def test_rigidity_keeps_to_the_calling_thread():
    # the one-row CP2 geodesic, steps and projections alike, wakes no BLAS worker
    assert other_threads_cpu_ms(lambda: check_rigidity_arithmetic(0.003, 0)) == 0.0


@needs_schedstat
def test_fary_keeps_to_the_calling_thread():
    # the loop samples, (n, 3) @ (3, D) products with n up to 40,000, and the
    # one ball per polygon, on its 256-vertex probe, wake no BLAS worker
    assert other_threads_cpu_ms(lambda: check_fary(20, 1e-3, 0)) == 0.0


def test_circle_geodesics_coarse_step():
    # at step 0.25 a length-pi geodesic has fewer than 16 vertices
    out = check_circle_geodesics(step=0.25, seed=0)
    assert math.isfinite(out["max_drift"])


def test_dump_geodesic(tmp_path):
    out = tmp_path / "geo.csv"
    code = main(
        ["dump-geodesic", "rp2", "--length", "0.5", "--step", "0.002", "--out", str(out)]
    )
    assert code == 0
    rows = out.read_text().splitlines()
    assert rows[0] == "s,x0,x1,x2,x3,x4,x5"
    assert len(rows) == 2 + 250  # header + 251 vertices
    first = np.array(rows[1].split(",")[1:], dtype=float)
    assert np.linalg.norm(first) == pytest.approx(1.0 / math.sqrt(3.0), abs=1e-9)


@pytest.mark.parametrize("flag", ["--length", "--step"])
@pytest.mark.parametrize("value", ["inf", "nan"])
def test_dump_geodesic_nonfinite_length_or_step(tmp_path, capsys, flag, value):
    out = tmp_path / "geo.csv"
    assert main(["dump-geodesic", "rp2", flag, value, "--out", str(out)]) == 2
    need = "a positive" if flag == "--step" else "a nonnegative"
    err = capsys.readouterr().err
    assert err == f"error: {flag[2:]} = {value}: expected {need} finite number\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "message", ["Unable to allocate 447. GiB for an array", ""], ids=["numpy", "bare"]
)
def test_dump_geodesic_out_of_memory_exits_two(monkeypatch, tmp_path, capsys, message):
    # a stand-in for the allocation of a length-1e4, step-1e-6 geodesic
    def too_large(*args, **kwargs):
        raise MemoryError(message)

    monkeypatch.setattr(manifold, "integrate_geodesic", too_large)
    out = tmp_path / "geo.csv"
    argv = ["dump-geodesic", "rp2", "--length", "1e4", "--step", "1e-6", "--out", str(out)]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: {message or 'MemoryError'}\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "rigidity"],
        ["dump-geodesic", "rp2"],
        ["torus", "optimize", "--freqs", "FREQS"],
    ],
    ids=["verify", "dump-geodesic", "torus-optimize"],
)
def test_negative_seed_rejected(tmp_path, capsys, argv):
    freqs = tmp_path / "freqs.txt"
    freqs.write_text("1,0 1.2\n0,1 0.9\n1,1 1.0\n")  # n = 2: the search reads no seed
    out = tmp_path / "out.txt"
    argv = [str(freqs) if a == "FREQS" else a for a in argv]
    assert main(argv + ["--out", str(out), "--seed", "-1"]) == 2
    assert capsys.readouterr().err == "error: --seed must be a non-negative integer, got -1\n"
    assert not out.exists()


def test_dump_geodesic_bad_space(tmp_path):
    assert main(["dump-geodesic", "xp9", "--out", str(tmp_path / "x.csv")]) == 2


@pytest.mark.parametrize("name", ["rpx", "cp2.5"])
def test_dump_geodesic_space_without_integer_dimension(tmp_path, capsys, name):
    out = tmp_path / "x.csv"
    assert main(["dump-geodesic", name, "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: unrecognized space name {name!r}\n"
    assert not out.exists()


def test_torus_optimize_command(tmp_path):
    freqs = tmp_path / "freqs.txt"
    freqs.write_text("1,0 1.2\n0,1 0.9\n1,1 1.0\n")
    out = tmp_path / "torus.txt"
    code = main(
        ["torus", "optimize", "--freqs", str(freqs), "--out", str(out),
         "--budget", "600", "--grid", "512", "--seed", "0"]
    )
    assert code == 0
    text = out.read_text()
    assert "suite = torus-optimize" in text
    assert "id = T-opt-bound" in text
    assert "pass = yes" in text
    achieved = float(
        next(
            line for line in text.splitlines() if line.startswith("torus_opt.achieved")
        ).split("=")[1]
    )
    assert achieved == pytest.approx(math.sqrt(1.5), abs=1e-3)


def test_torus_optimize_weight_squaring_to_zero_exits_two(tmp_path, capsys):
    # 1e-300 squares to 0.0, which would make the metric search divide by zero
    freqs = tmp_path / "freqs.txt"
    freqs.write_text("1,0 1.0\n0,1 1.0\n1,1 1e-300\n")
    out = tmp_path / "torus.txt"
    assert main(["torus", "optimize", "--freqs", str(freqs), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == "error: weights must be positive with a normal float square, got 1e-300\n"
    assert not out.exists()


def test_torus_optimize_failing_claim_exits_one(monkeypatch, tmp_path):
    import normcurve.flat_torus as flat_torus

    def below_bound(freqs, weights, **kwargs):
        return flat_torus.WeightOptimum(np.asarray(weights), 1.0, 1)

    monkeypatch.setattr(flat_torus, "optimize_weights", below_bound)
    freqs = tmp_path / "freqs.txt"
    freqs.write_text("1,0 1.0\n0,1 1.0\n1,1 1.0\n")
    out = tmp_path / "torus.txt"
    assert main(["torus", "optimize", "--freqs", str(freqs), "--out", str(out)]) == 1
    assert "pass = no" in out.read_text()


def test_torus_optimize_failed_master_still_reports(monkeypatch, tmp_path, capsys):
    import scipy.optimize

    def stuck(fun, x0, **kwargs):
        return scipy.optimize.OptimizeResult(x=np.asarray(x0), success=False, message="stuck")

    monkeypatch.setattr(scipy.optimize, "minimize", stuck)
    freqs = tmp_path / "freqs.txt"
    freqs.write_text("1,0 1.2\n0,1 0.9\n1,1 1.0\n")
    out = tmp_path / "torus.txt"
    assert main(["torus", "optimize", "--freqs", str(freqs), "--out", str(out)]) in (0, 1)
    assert capsys.readouterr().err == ""
    text = out.read_text()
    # a master that returns its start would repeat the same search: stop after it
    assert "torus_opt.evaluations = 1\n" in text
    assert "torus_opt.converged = no\n" in text
    assert "torus_opt.message = master problem failed: stuck\n" in text


def test_torus_optimize_sheared_pair(tmp_path, capsys):
    # a pair whose metric is far from isotropic: no master step may leave the
    # nondegenerate weights, and the optimum is the product torus's sqrt(2)
    freqs = tmp_path / "freqs.txt"
    freqs.write_text("1,0 1.0\n7,1 1.0\n")
    out = tmp_path / "torus.txt"
    assert main(["torus", "optimize", "--freqs", str(freqs), "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    text = out.read_text()
    assert "torus_opt.converged = yes\n" in text
    assert "torus_opt.achieved = 1.41421356237\n" in text


def test_torus_optimize_nonfinite_weight(tmp_path, capsys):
    freqs = tmp_path / "freqs.txt"
    freqs.write_text("1,0 1.0\n0,1 nan\n1,1 1.0\n")
    out = tmp_path / "torus.txt"
    assert main(["torus", "optimize", "--freqs", str(freqs), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {freqs}:2: weight 'nan' is not a finite number\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "line,detail",
    [
        ("1,x 1.0", "invalid literal for int() with base 10: 'x'"),
        ("0,1 abc", "could not convert string to float: 'abc'"),
    ],
)
def test_torus_optimize_bad_token_names_its_line(tmp_path, capsys, line, detail):
    freqs = tmp_path / "freqs.txt"
    freqs.write_text(f"1,0 1.0\n{line}\n1,1 1.0\n")
    out = tmp_path / "torus.txt"
    assert main(["torus", "optimize", "--freqs", str(freqs), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {freqs}:2: {detail}\n"
    assert not out.exists()


def test_torus_optimize_missing_file(tmp_path):
    code = main(
        ["torus", "optimize", "--freqs", str(tmp_path / "nope.txt"),
         "--out", str(tmp_path / "o.txt")]
    )
    assert code == 2
