"""Smoke test of the benchmark: every workload at a tiny config emits every
metric named in BENCHMARK.json, each layer is recorded on the workloads that
reach it, an alternate seed at the benchmark's config still passes every
claim, and a report that differs from an earlier run fails the run.

Run from the repository root: ``python3 -m pytest perfbench/test_smoke.py``.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import DEFAULT_SEED  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
TINY = "perfbench/tiny.ini"
ALTERNATE_SEED = DEFAULT_SEED + 1

# The layer table of README.md: per-layer metric prefixes each workload reaches.
REACHES = {
    "planes": (
        "manifold.", "ball.", "veronese.", "curves.fit_circle.", "curves.planarity_residual.",
        "cli.check_normal_curvature.", "cli.check_sphere_radius.", "cli.check_circle_geodesics.",
        "cli.check_rigidity_arithmetic.", "cli.check_mean_curvature.", "cli.check_sectional_curvature.",
    ),
    "torus": ("flat_torus.", "cli.check_torus."),
    "curves": (
        "ball.", "curves.random_", "curves.fary_check.", "curves.bow_check.", "curves.monotonicity_check.",
        "cli.check_bow.", "cli.check_fary.", "cli.check_monotonicity.",
    ),
}
# Modules a workload must leave idle when its entry above does not name them.
IDLE = ("manifold.", "ball.", "flat_torus.")


def _bench(workload, trace, config=None, seed=DEFAULT_SEED, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", f"--workload={workload}", f"--seed={seed}",
         "--seconds=0.1", f"--trace={trace}"] + ([f"--config={config}"] if config else []),
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


def _result(done):
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    return result


@pytest.fixture(scope="module")
def traced():
    """Printed metrics and recorded layers of one tiny traced run per workload."""
    out = {}
    for workload in WORKLOADS:
        metrics = _result(_bench(workload, 1, TINY))["metrics"]
        record = json.loads((HERE / "results" / f"{workload}-seed{DEFAULT_SEED}-trace1.json").read_text())
        out[workload] = metrics, record["layers"]
    return out


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_emitted(workload):
    metrics = _result(_bench(workload, 0, TINY))["metrics"]
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == {k: v["unit"] for k, v in metrics.items()}
    assert all(v["value"] > 0 for v in metrics.values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer_metrics_emitted(traced, workload):
    metrics, _ = traced[workload]
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == {k: v["unit"] for k, v in metrics.items()}
    assert all(isinstance(v["value"], (int, float)) for v in metrics.values())


def test_layer_table_covers_every_metric():
    names = [m["name"] for m in SPEC["per_layer"] if m["name"] != "trace.overhead_s"]
    assert [n for n in names if not any(n.startswith(p) for w in REACHES.values() for p in w)] == []


@pytest.mark.parametrize("workload", WORKLOADS)
def test_layers_recorded_where_reached(traced, workload):
    _, layers = traced[workload]
    assert "trace.overhead_s" in layers
    for m in SPEC["per_layer"]:
        name = m["name"]
        if name.startswith(REACHES[workload]):
            assert name in layers, name
            if not name.endswith("converged_ratio"):  # the plane clouds never converge
                assert layers[name] > 0, name
    idle = tuple(p for p in IDLE if p not in REACHES[workload])
    assert [n for n in layers if n.startswith(idle)] == []


@pytest.mark.parametrize("workload", WORKLOADS)
def test_alternate_seed_passes(workload):
    _result(_bench(workload, 0, seed=ALTERNATE_SEED))


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("results", "__pycache__"))
    done = _bench("planes", 0, cwd=tmp_path)
    assert done.returncode != 0
    assert not done.stdout.strip()


def test_fails_when_report_differs_from_earlier_run(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "src", tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("results", "__pycache__"))
    _result(_bench("torus", 0, TINY, cwd=tmp_path))
    ledger = tmp_path / "perfbench" / "results" / "digests.json"
    entries = json.loads(ledger.read_text())
    ledger.write_text(json.dumps({key: "0" * 64 for key in entries}))
    done = _bench("torus", 0, TINY, cwd=tmp_path)
    assert done.returncode == 1
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert not result["correct"] and result["failed"] == result["attempted"]
