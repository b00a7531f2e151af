"""One fresh interpreter: time the set-up, then optionally run one batch.

Usage: python3 perfbench/probe.py <workload> [<master seed>]

Prints the seconds taken to import dbalign and build the workload's
config, then this process's peak resident set in MiB. With a master seed
it runs that batch of trials through run_experiment before reporting, so
the peak covers one batch in a process that has run nothing else.
"""

import time

_START = time.perf_counter()

import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from dbalign.experiment import run_experiment  # noqa: E402
from workloads import WORKLOADS, build_config  # noqa: E402

workload = WORKLOADS[sys.argv[1]]
config = build_config(workload, master_seed=int(sys.argv[2]) if len(sys.argv) > 2 else 0)
setup = time.perf_counter() - _START
if len(sys.argv) > 2:
    run_experiment(config)
# ru_maxrss is in KiB on Linux.
print(setup, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
