"""Workload table shared by the entry point (``run.py``) and the measured process
(``worker.py``).  Pure data: importing it loads neither numpy nor normcurve.

Every workload runs at ``bench.ini`` unless ``run.py`` is given another
config.  The names, and why each workload was chosen, are in
``BENCHMARK.json`` and ``README.md``.  There is no
``verify all --parallel`` workload: on a 2-vCPU VM its threads alternate
between running serialized and contending for the interpreter lock, so its
time spread by more than any bound a regression check could use.
"""

from __future__ import annotations

from dataclasses import dataclass

DEFAULT_SEED = 0


@dataclass(frozen=True)
class Workload:
    suites: tuple[str, ...]  # ``run_suite`` names, called one after another
    planes: bool  # set-up builds the four plane varieties, as the suites do
    claims: int  # claims the workload's reports must hold


WORKLOADS = {
    "planes": Workload(("veronese", "rigidity"), True, 7),
    "torus": Workload(("torus",), False, 3),
    "curves": Workload(("curves",), False, 3),
}
