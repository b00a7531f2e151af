"""The benchmark's span tracer still fits the pipeline it wraps.

`perfbench/layertrace.py` swaps module attributes of the library for
wrappers that read each call's arguments and return value. The modules
under `perfbench/` are imported read-only, as the benchmark does.
"""

import importlib
from pathlib import Path

import pytest

from dbalign.experiment import render, run_experiment

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture
def perfbench(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    return importlib.import_module("workloads"), importlib.import_module("layertrace")


# The unit-trace channel of remap_sweep hides the outliers from the first
# three remappings; the other two workloads detect under the identity.
@pytest.mark.parametrize("name, remaps", [("paper_bsc", 1), ("remap_sweep", 4), ("wide_repeat", 1)])
def test_traced_batch_fires_every_span_and_keeps_the_report(perfbench, name, remaps):
    workloads, layertrace = perfbench
    workload = workloads.WORKLOADS[name]
    config = workloads.build_config(workload, 1, workers=1)
    untraced = render(run_experiment(config), "json")
    tracer = layertrace.Tracer()
    with tracer.installed():
        traced = render(run_experiment(config), "json")
    # Replica detection runs on every trial, so no span is optional.
    tracer.check_fired()
    assert traced == untraced
    assert tracer.layer_metrics()["deletions.remaps_swept"] == remaps
