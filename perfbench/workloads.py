"""Workload definitions for the dbalign benchmark.

Each workload is one Monte Carlo experiment point: a model spec plus the
sizes handed to ``dbalign.experiment.run_experiment``. The benchmark's
``--seed`` only picks the master seeds of the trials; the program sees
nothing but the generated instances. Every workload sits below capacity
(R < C), so recovery is expected to succeed on every trial.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from dbalign.experiment import ExperimentConfig
from dbalign.model import ModelSpec

EPSILON = 0.3

# A run draws master seeds seed * SEED_STRIDE + batch, so two seeds never
# share a batch as long as a run stays below SEED_STRIDE batches.
SEED_STRIDE = 100_000


@dataclass(frozen=True)
class Workload:
    name: str
    spec: ModelSpec
    m: int
    n: int
    num_seeds: int
    workers: int
    batch_trials: int  # trials per run_experiment call
    dominant_layer: str  # the layer span expected to take the most time


def _bsc(flip, p_s):
    return ModelSpec(
        p_x=[0.5, 0.5], p_y_given_x=[[1 - flip, flip], [flip, 1 - flip]], p_s=list(p_s)
    )


def _unit_trace_cyclic(p_s):
    chan = [[1 / 3, 2 / 3, 0.0], [0.0, 1 / 3, 2 / 3], [2 / 3, 0.0, 1 / 3]]
    return ModelSpec(p_x=[1 / 3] * 3, p_y_given_x=chan, p_s=list(p_s))


def _symmetric(size, diag, p_s):
    chan = np.full((size, size), (1.0 - diag) / (size - 1))
    np.fill_diagonal(chan, diag)
    return ModelSpec(p_x=np.full(size, 1.0 / size), p_y_given_x=chan, p_s=list(p_s))


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="paper_bsc",
            spec=_bsc(0.1, (0.1, 0.5, 0.4)),
            m=8192,
            n=60,
            num_seeds=10_000,
            workers=1,
            batch_trials=1,
            dominant_layer="matching",
        ),
        Workload(
            name="remap_sweep",
            spec=_unit_trace_cyclic((0.3, 0.7)),
            m=1024,
            n=60,
            num_seeds=30_000,
            workers=1,
            batch_trials=1,
            dominant_layer="deletions",
        ),
        Workload(
            name="wide_repeat",
            spec=_symmetric(3, 0.8, (0.1, 0.4, 0.3, 0.2)),
            m=2048,
            n=240,
            num_seeds=5000,
            workers=2,
            batch_trials=4,
            dominant_layer="deletions",
        ),
    )
}


def build_config(workload: Workload, master_seed: int, workers: int | None = None):
    """The run_experiment config of one batch of trials."""
    return ExperimentConfig(
        spec=workload.spec,
        m=workload.m,
        n=workload.n,
        num_seeds=workload.num_seeds,
        trials=workload.batch_trials,
        master_seed=master_seed,
        epsilon=EPSILON,
        workers=workload.workers if workers is None else workers,
    )


def batch_seed(seed: int, batch: int) -> int:
    if not 0 <= batch < SEED_STRIDE:
        raise ValueError(f"batch {batch} is outside 0..{SEED_STRIDE - 1}")
    return seed * SEED_STRIDE + batch
