"""CLI driver: suites, reports, exit codes, determinism, dumps."""

import dataclasses
import math

import numpy as np
import pytest

from normcurve import manifold, veronese
from normcurve.cli import (
    Claim,
    VerificationReport,
    check_circle_geodesics,
    check_normal_curvature,
    check_sectional_curvature,
    load_config,
    main,
    render_report,
    run_suite,
)

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


def test_config_unknown_key(tmp_path):
    bad = tmp_path / "bad.ini"
    bad.write_text("[veronese]\nbogus = 3\n")
    with pytest.raises(ValueError, match="unknown config key"):
        load_config(str(bad))
    missing_err = pytest.raises(FileNotFoundError)
    with missing_err:
        load_config(str(tmp_path / "absent.ini"))


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


def test_numerical_failure_exits_two(tmp_path, capsys):
    # a step of 5 along a length-10 geodesic leaves the variety: ProjectionError
    out = str(tmp_path / "geo.csv")
    assert main(["dump-geodesic", "rp2", "--length", "10", "--step", "5", "--out", out]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: projection stalled") and err.count("\n") == 1
    # at step 0.5 no draw has equal edges within tolerance: the generator gives up
    coarse = tmp_path / "coarse.ini"
    coarse.write_text(
        "[curves]\nbow_trials = 1\nfary_trials = 1\nmonotonicity_trials = 1\nfary_step = 0.5\n"
    )
    assert main(["verify", "curves", "--config", str(coarse)]) == 2
    assert capsys.readouterr().err == "error: failed to draw an acceptable closed curve\n"


def test_failing_claim_exits_one(monkeypatch, small_config):
    import normcurve.cli as cli_module

    real = cli_module.check_rigidity_arithmetic

    def off_by_one(step, seed):
        return {**real(step=step, seed=seed), "circ4": 1.0}

    # the suite looks the engine up at call time, so the patched one runs
    monkeypatch.setattr(cli_module, "check_rigidity_arithmetic", off_by_one)
    assert main(["verify", "rigidity", "--config", small_config]) == 1


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
    expected = (check_normal_curvature(60, 0), check_sectional_curvature(60, 0))
    real = veronese.variety

    def no_spray(p, v):
        raise AssertionError("a curvature claim used the closed-form spray")

    def variety(spc):
        return dataclasses.replace(real(spc), spray=no_spray)

    monkeypatch.setattr(veronese, "variety", variety)
    assert (check_normal_curvature(60, 0), check_sectional_curvature(60, 0)) == expected
    assert expected[0]["max_deviation"] <= 1e-8 and expected[1]["rp2_max_dev"] <= 1e-6


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


def test_dump_geodesic_bad_space(tmp_path):
    assert main(["dump-geodesic", "xp9", "--out", str(tmp_path / "x.csv")]) == 2


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
