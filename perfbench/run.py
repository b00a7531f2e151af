"""dbalign benchmark: Monte Carlo trials through the public harness.

Usage, from the repository root:

    python3 perfbench/run.py --workload paper_bsc --seed 1 --seconds 15 --trace 0

The run calls ``dbalign.experiment.run_experiment`` on batches of trials
until ``--seconds`` have passed; each batch's master seed comes from
``--seed``. With ``--trace 0`` it reports the end-to-end metrics of that
untraced run. With ``--trace 1`` it runs on one worker thread, then runs
the same batches again with every layer boundary wrapped (layertrace.py),
and reports the per-layer metrics. Every run checks the trials against
their hidden ground truth. The last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics; the machine
record, the batch times and the spans go to ``.perfbench_out/`` at the
repository root.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

MIN_BATCHES = 3
MEMORY_PROBES = 7
# The paper's below-capacity criterion (tests/test_acceptance.py).
MAX_ROW_ERROR = 0.1


def import_library():
    """Import dbalign from this checkout's sources, never from elsewhere.

    Everything that needs dbalign imports it inside a function, after this
    has put the checkout's src/ first on the path.
    """
    if not (SRC / "dbalign" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no dbalign sources under {SRC}")
    sys.path[:0] = [str(SRC), str(HERE)]
    import dbalign

    if SRC not in Path(dbalign.__file__).resolve().parents:
        raise SystemExit(f"perfbench: dbalign came from {dbalign.__file__}, not {SRC}")


def declared_units(trace):
    """Metric name -> unit, as BENCHMARK.json declares them for this mode."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        declared = json.load(fh)["per_layer" if trace else "end_to_end"]
    return {m["name"]: m["unit"] for m in declared}


def blas_info():
    """BLAS library name, configuration and thread count, where readable."""
    import ctypes

    import numpy as np

    info = {"name": np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]}
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("libscipy_openblas*.so*")):
        lib = ctypes.CDLL(str(path))
        for key, symbol, restype in (
            ("threads", "scipy_openblas_get_num_threads64_", ctypes.c_int),
            ("config", "scipy_openblas_get_config64_", ctypes.c_char_p),
        ):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype, fn.argtypes = restype, []
                value = fn()
                info[key] = value.decode() if isinstance(value, bytes) else value
    return info


def machine():
    import numpy as np

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            models = [line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")]
        cpu = models[0] if models else cpu
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_info(),
    }


def probe(workload_name, master_seed=None):
    """(set-up seconds, peak RSS in MiB) of one fresh interpreter (probe.py)."""
    extra = [] if master_seed is None else [str(master_seed)]
    done = subprocess.run(
        [sys.executable, str(HERE / "probe.py"), workload_name, *extra],
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    setup, peak = done.stdout.split()[-2:]
    return float(setup), float(peak)


def run_batches(workload, seed, seconds, workers, batches=None, between=None):
    """Run batches until `seconds` pass, or exactly `batches` of them.

    Calls `between()` before each batch, outside the timed call. Returns
    the wall time of each run_experiment call and every trial record, in
    order.
    """
    from dbalign.experiment import run_experiment
    from workloads import batch_seed, build_config

    times, records = [], []
    start = time.perf_counter()
    while (
        len(times) < batches
        if batches is not None
        else len(times) < MIN_BATCHES or time.perf_counter() - start < seconds
    ):
        if between is not None:
            between()
        config = build_config(workload, batch_seed(seed, len(times)), workers)
        t0 = time.perf_counter()
        report = run_experiment(config)
        times.append(time.perf_counter() - t0)
        records.extend(report.points[0].trials)
    return times, records


def check_quality(records):
    """Score the trials against ground truth: (failed, problems, summary)."""
    failed = sum(
        r.failed_stage is not None or not (r.replica_ok and r.deletion_ok) for r in records
    )
    row_error = statistics.fmean(r.row_error_rate for r in records)
    # A trial that never reached estimation scores the worst distance, 1.
    tv = statistics.fmean(1.0 if math.isnan(r.est_tv) else r.est_tv for r in records)
    summary = {
        "trials": len(records),
        "failed_trial_frac": failed / len(records),
        "row_error_rate": row_error,
        "est_tv": tv,
    }
    problems = []
    if failed:
        problems.append(f"{failed} of {len(records)} trials failed a stage or a decision")
    if not row_error <= MAX_ROW_ERROR:
        problems.append(f"mean row error {row_error:.4f} is above {MAX_ROW_ERROR}")
    return failed, problems, summary


def end_to_end(workload, seed, seconds):
    from workloads import batch_seed

    # Peak memory of one batch, each in a process of its own: the
    # high-water mark of one long process would be that of the largest of
    # a random number of trials of random size. A child's ru_maxrss also
    # counts this process's high-water mark at the time of the fork, so
    # these run before this process has run any trial.
    peaks = [probe(workload.name, batch_seed(seed, b))[1] for b in range(MEMORY_PROBES)]
    # One set-up probe per batch spreads them over the run, so a passing
    # slow spell of the machine moves their median less.
    setups = []
    times, records = run_batches(
        workload,
        seed,
        seconds,
        workload.workers,
        between=lambda: setups.append(probe(workload.name)[0]),
    )
    values = {
        "trials_per_s": statistics.median(workload.batch_trials / t for t in times),
        "peak_rss_mb": statistics.median(peaks),
        "setup_s": statistics.median(setups),
    }
    details = {"batch_seconds": times, "setup_seconds": setups, "batch_peak_rss_mb": peaks}
    return records, values, [], details


def per_layer(workload, seed, seconds):
    from layertrace import REPLICA_SPAN, Tracer

    plain_times, plain = run_batches(workload, seed, seconds, workers=1)
    tracer = Tracer()
    with tracer.installed():
        traced_times, traced = run_batches(
            workload, seed, seconds, workers=1, batches=len(plain_times)
        )
    # With s_max <= 1 the pipeline skips replica detection by design.
    tracer.check_fired(optional=[REPLICA_SPAN] if workload.spec.s_max <= 1 else [])
    problems = []
    if [r.to_dict() for r in traced] != [r.to_dict() for r in plain]:
        problems.append("traced trial records differ from the untraced ones")

    values = tracer.layer_metrics()
    values["trace.overhead_frac"] = (
        statistics.median(traced_times) / statistics.median(plain_times) - 1.0
    )
    details = {
        "batch_seconds": plain_times,
        "traced_batch_seconds": traced_times,
        "largest_layer": tracer.largest_layer(),
        "spans": tracer.to_records(),
    }
    return plain, values, problems, details


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    import_library()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; have {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    units = declared_units(args.trace)

    measure = per_layer if args.trace else end_to_end
    records, values, problems, details = measure(workload, args.seed, args.seconds)
    failed, quality_problems, summary = check_quality(records)
    problems = quality_problems + problems
    if args.trace:
        # Seed-driven, so reported without a bound rather than end to end.
        values["experiment.row_error_rate"] = summary["row_error_rate"]
        values["estimation.est_tv"] = summary["est_tv"]
    if set(values) != set(units):
        raise SystemExit(
            f"perfbench: measured {sorted(values)}, BENCHMARK.json declares {sorted(units)}"
        )

    host = machine()
    OUT.mkdir(exist_ok=True)
    out_path = OUT / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(
            {
                "workload": workload.name,
                "seed": args.seed,
                "seconds": args.seconds,
                "machine": host,
                "quality": summary,
                "problems": problems,
                "metrics": values,
                **details,
            },
            fh,
        )

    print("machine", json.dumps(host))
    print("quality", json.dumps(summary))
    if args.trace:
        print(
            f"largest layer span per trial: {details['largest_layer']}"
            f" (the workload was built for {workload.dominant_layer})"
        )
    for problem in problems:
        print("INCORRECT:", problem)
    result = {
        "correct": not problems,
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result))


if __name__ == "__main__":
    main()
