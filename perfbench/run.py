"""normcurve benchmark: one workload per invocation, in fresh processes.

Run from the repository root::

    python3 perfbench/run.py --workload planes --seed 0 --seconds 30 --trace 0

With ``--trace 0`` the last stdout line carries the end-to-end metrics
(``setup_s``, ``verify_s``, ``cpu_s``, ``peak_rss_mb``,
``claims_passed_ratio``); with ``--trace 1`` it carries the per-layer
metrics named in ``BENCHMARK.json``.  The line before it is the
environment record.  A full record of the run, with every sample, goes to
``perfbench/results/``, and the report digest to its ledger there.  Exit
status is 0 when every claim passed and every report matched its
reference, 1 otherwise, and 2 when the checkout holds no normcurve sources.
See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import DEFAULT_SEED, WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKER = Path(__file__).resolve().parent / "worker.py"
RESULTS = Path(__file__).resolve().parent / "results"
BENCH_CONFIG = "perfbench/bench.ini"
SETUP_PROBES = 16  # extra fresh processes timed to ready, beside the measured one
DEADLINE_S = 170.0  # the whole invocation ends well inside three minutes


def _parse(argv):
    p = argparse.ArgumentParser(description="normcurve benchmark (one workload per run)")
    p.add_argument("--workload", required=True, choices=[w["name"] for w in SPEC["workloads"]])
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=SPEC["run_seconds"], help="measured time")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument(
        "--config",
        default=BENCH_CONFIG,
        help="INI config relative to the repository root, or 'builtin' for normcurve's built-in one",
    )
    args = p.parse_args(argv)
    if args.config == "builtin":
        args.config = None
    return args


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def _spawn(args, extra, env, deadline):
    """Run the worker to completion; returns (seconds to ready, its JSON)."""
    cmd = [
        sys.executable,
        str(WORKER),
        f"--workload={args.workload}",
        f"--seed={args.seed}",
        f"--seconds={args.seconds}",
        f"--trace={args.trace}",
    ] + ([f"--config={args.config}"] if args.config else []) + extra
    started = time.monotonic()
    done = subprocess.run(
        cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=max(1.0, deadline - started)
    )
    sys.stderr.write(done.stderr)
    if done.returncode != 0:
        raise RuntimeError(f"worker exited with status {done.returncode}")
    out = json.loads(done.stdout.strip().splitlines()[-1])
    return out["ready"] - started, out


def _check_digest(args, digest) -> str | None:
    """The report digest must equal that of every earlier run in this
    checkout of the same workload, seed, config and sources."""
    sources = sorted((ROOT / "src" / "normcurve").rglob("*.py"))
    h = hashlib.sha256()
    for path in sources + ([ROOT / args.config] if args.config else []):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    key = f"{args.workload}-seed{args.seed}-{h.hexdigest()[:16]}"
    ledger_path = RESULTS / "digests.json"
    ledger = json.loads(ledger_path.read_text()) if ledger_path.is_file() else {}
    if ledger.setdefault(key, digest) != digest:
        return f"report differs from an earlier run of the same sources ({key})"
    ledger_path.write_text(json.dumps(ledger, indent=1, sort_keys=True) + "\n")
    return None


def main(argv=None) -> int:
    args = _parse(argv)
    deadline = time.monotonic() + DEADLINE_S
    if not (ROOT / "src" / "normcurve" / "__init__.py").is_file():
        sys.stderr.write(f"error: no normcurve sources under {ROOT / 'src'}\n")
        return 2
    if args.config and not (ROOT / args.config).is_file():
        sys.stderr.write(f"error: config {args.config} not found under {ROOT}\n")
        return 2
    workload = WORKLOADS[args.workload]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"

    # Half the set-up probes run before the measured process and half after,
    # so that set-up is sampled over the same stretch of time as verify_s.
    probes = 0 if args.trace else SETUP_PROBES
    setup = []
    try:
        for _ in range(probes // 2):
            setup.append(_spawn(args, ["--setup-only"], env, deadline)[0])
        extra = [f"--spans={RESULTS / (stem + '.spans.csv.gz')}"] if args.trace else []
        ready_s, out = _spawn(args, extra, env, deadline)
        setup.append(ready_s)
        for _ in range(probes - probes // 2):
            setup.append(_spawn(args, ["--setup-only"], env, deadline)[0])
    except (RuntimeError, ValueError, KeyError, IndexError, subprocess.TimeoutExpired) as exc:
        sys.stderr.write(f"error: {args.workload}: {exc}\n")
        print(json.dumps({"correct": False, "attempted": workload.claims, "failed": workload.claims, "metrics": {}}))
        return 1

    if out["digest"] is not None:
        mismatch = _check_digest(args, out["digest"])
        if mismatch:
            out["errors"].append(mismatch)
            out["failed"] = out["attempted"]
    attempted, failed = out["attempted"], out["failed"]
    correct = failed == 0 and not out["errors"]
    if args.trace:
        # Every per-layer metric is printed; a layer the workload does not
        # reach reads 0.  The result file keeps only what was recorded.
        metrics = {m["name"]: {"value": out["layers"].get(m["name"], 0.0), "unit": m["unit"]} for m in SPEC["per_layer"]}
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "verify_s": {"value": out["verify_s"], "unit": "s"},
            "cpu_s": {"value": out["cpu_s"], "unit": "s"},
            "peak_rss_mb": {"value": out["peak_rss_mb"], "unit": "MB"},
            "claims_passed_ratio": {"value": (attempted - failed) / attempted, "unit": "ratio"},
        }
    environment = dict(out.pop("environment"), git_commit=_git_commit(), workload=args.workload, seed=args.seed)
    record = dict(out, setup_samples=setup, metrics=metrics, correct=correct, environment=environment)
    (RESULTS / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")

    for error in out["errors"]:
        sys.stderr.write(f"error: {args.workload}: {error}\n")
    print(json.dumps({"environment": environment}))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
