"""The measured process: one workload in one fresh interpreter.

Started by ``run.py``, never by hand.  It imports normcurve from the
checkout's ``src/`` (``run.py`` puts it on ``PYTHONPATH``), builds the
varieties the workload touches, and prints ``{"ready": <monotonic time>}``;
with ``--setup-only`` it stops there.  Otherwise it makes one untimed
warm-up pass over the workload's ``run_suite`` calls, whose report is the
reference every later pass must match, then repeats the pass for
``--seconds`` seconds (closed loop, one client, no threads); with
``--trace 1`` it spends half of that untraced and half under the tracer.
Its last stdout line is one JSON object for ``run.py``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--config", help="INI config; normcurve's built-in one when absent")
    p.add_argument("--spans", help="gzipped CSV for the traced run's spans")
    p.add_argument("--setup-only", action="store_true")
    return p.parse_args(argv)


def _set_up(workload):
    import normcurve
    from normcurve import cli, veronese

    expected = ROOT / "src" / "normcurve"
    if Path(normcurve.__file__).resolve().parent != expected:
        raise SystemExit(f"normcurve imported from {normcurve.__file__}, not from {expected}")
    if workload.planes:
        for spc in veronese.standard_planes():
            veronese.variety(spc)
    return normcurve, cli


class Repeats:
    """Runs the workload and checks each result against the reference."""

    def __init__(self, cli, workload, config, seed):
        self.cli, self.workload, self.config, self.seed = cli, workload, config, seed
        self.reference = None
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def run(self) -> None:
        """One pass over the workload's suites, checked against the reference."""
        w = self.workload
        self.attempted += w.claims
        try:
            reports = [
                self.cli.run_suite(s, config_path=self.config, seed=self.seed)
                for s in w.suites
            ]
        except Exception as exc:  # a raising run fails every claim of the workload
            self.errors.append(f"{type(exc).__name__}: {exc}")
            self.failed += w.claims
            return
        claims = [c for r in reports for c in r.claims]
        text = "".join(self.cli.render_report(r) for r in reports)
        stable = "".join(line for line in text.splitlines(True) if not line.startswith("runtime_seconds"))
        digest = hashlib.sha256(stable.encode()).hexdigest()
        if self.reference is None:
            self.reference = digest
        if len(claims) != w.claims:
            self.errors.append(f"expected {w.claims} claims, got {len(claims)}")
            self.failed += w.claims
        elif digest != self.reference:
            self.errors.append("report differs from the reference run")
            self.failed += w.claims
        else:
            self.failed += sum(not c.passed for c in claims)

    def timed(self, seconds: float, after=None) -> list[dict]:
        """Repeat while, at the mean pass time so far, one more pass ends
        within ``seconds`` (at least once)."""
        samples = []
        started = time.perf_counter()
        while not samples or (time.perf_counter() - started) * (len(samples) + 1) / len(samples) <= seconds:
            t0, c0 = time.perf_counter(), time.process_time()
            self.run()
            t1, c1 = time.perf_counter(), time.process_time()
            samples.append({"verify_s": t1 - t0, "cpu_s": c1 - c0})
            if after is not None:
                samples[-1]["layers"] = after()
        return samples


def _environment(cli, args, workload):
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cfg = cli.load_config(args.config)
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), None)
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "thread_env": {name: os.environ.get(name) for name in THREAD_VARS},
        "config_path": args.config or "built-in",
        "config": {s: cfg[s] for s in workload.suites},
    }


def main(argv=None) -> int:
    args = _parse(argv)
    workload = WORKLOADS[args.workload]
    package, cli = _set_up(workload)
    ready = time.monotonic()
    if args.setup_only:
        print(json.dumps({"ready": ready}))
        return 0

    # The warm-up pass takes lazy imports and first-call costs out of the
    # timed passes; its report is the reference.
    runs = Repeats(cli, workload, args.config, args.seed)
    runs.run()
    plain = runs.timed(args.seconds / 2 if args.trace else args.seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    out = {
        "ready": ready,
        "verify_s": statistics.median(s["verify_s"] for s in plain),
        "cpu_s": statistics.median(s["cpu_s"] for s in plain),
        "peak_rss_mb": peak_rss_mb,
        "samples": plain,
    }
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install(package)
        traced = runs.timed(args.seconds / 2, after=tracer.aggregate)
        names = {name for s in traced for name in s["layers"]}
        layers = {n: statistics.median(s["layers"].get(n, 0.0) for s in traced) for n in names}
        layers["trace.overhead_s"] = statistics.median(s["verify_s"] for s in traced) - out["verify_s"]
        out["traced_samples"] = [{k: v for k, v in s.items() if k != "layers"} for s in traced]
        out["layers"] = layers
        if args.spans:
            out["spans"] = tracer.write(args.spans)
    out.update(
        attempted=runs.attempted,
        failed=runs.failed,
        errors=sorted(set(runs.errors)),
        digest=runs.reference,
        environment=_environment(cli, args, workload),
    )
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
