import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import dbalign
from dbalign import fanout
from dbalign.deletions import (
    cooccurrence,
    cross_hamming,
    deletion_threshold,
    detect_deletions,
    scan_remapping,
)
from dbalign.experiment import ExperimentConfig, _estimated_bytes, render, run_experiment, run_trial
from dbalign.matching import deanonymize, estimate_stages, match_rows, segment
from dbalign.model import sample_instance
from dbalign.replicas import running_hamming

from conftest import bsc_spec, symmetric_spec

ARENA = 64 * 1024 * 1024  # more than any instance below carves


def test_a_borrow_outside_a_workspace_is_a_plain_array():
    with fanout.scope():
        a = fanout.borrow((3, 4), np.int32)
        b = fanout.borrow((3, 4), np.int32)
    assert a.shape == (3, 4) and a.dtype == np.int32 and a.flags.c_contiguous
    assert a.flags.owndata and not np.shares_memory(a, b)


def test_borrows_are_aligned_and_returned_last_in_first_out():
    with fanout.workspace(1 << 20) as ws:
        kept = fanout.borrow(10, np.uint8)
        with fanout.scope():
            inner = fanout.borrow((4, 5), np.float64)
            inner.fill(1.0)
        again = fanout.borrow((4, 5), np.float64)
        for a in (kept, inner, again):
            assert np.shares_memory(a, ws.buffer) and a.ctypes.data % fanout.ALIGN == 0
        assert not np.shares_memory(kept, again)
        assert again.ctypes.data == inner.ctypes.data  # the returned bytes are carved again
        assert ws.peak >= kept.nbytes + again.nbytes


def test_a_borrow_that_does_not_fit_is_a_plain_array():
    fanout.release()  # a pooled workspace may hold more
    with fanout.workspace(1024) as ws:
        big = fanout.borrow(4096, np.uint8)
        small = fanout.borrow(8, np.uint8)
        assert not np.shares_memory(big, ws.buffer) and np.shares_memory(small, ws.buffer)


def test_a_borrow_reads_its_shape_as_np_empty_does():
    shapes = [6, np.int64(6), (2, 3), [2, 3]]
    want = [np.empty(shape, np.int32).shape for shape in shapes]
    assert [fanout.borrow(shape, np.int32).shape for shape in shapes] == want
    with fanout.workspace(1 << 20) as ws:
        inside = [fanout.borrow(shape, np.int32) for shape in shapes]
        assert [a.shape for a in inside] == want
        assert all(np.shares_memory(a, ws.buffer) for a in inside)


def test_a_workspace_outlives_its_block_in_the_pool():
    fanout.release()
    with fanout.workspace(4096) as first:
        fanout.borrow(100, np.uint8)
    assert fanout.held() >= 100
    with fanout.workspace(1024) as second:
        assert second is first and second.buffer.size == 4096
        with fanout.workspace(1024) as nested:
            assert nested is not first  # lent once at a time
    fanout.release()
    assert fanout.held() == 0


# The first outputs are returned borrowed: the co-occurrence counts and the
# identity remapping's distances.
BORROWED_OUTPUTS = 2


def _outputs(d1, d2, g1, g2, alphabet_size):
    """Every array that the stages return for one instance."""
    k = alphabet_size
    result = deanonymize(d1, d2, g1, g2, k, epsilon=0.3)
    assert result.ok
    s = result.pattern.s
    g2_free = g2[:, (np.cumsum(s) - s)[s > 0]]
    retention = detect_deletions(g1, g2_free, k)
    match = match_rows(d1, segment(d2, result.pattern), result.estimate, 0.3)
    counts, source_counts = cooccurrence(g1, g2_free, k)
    return [
        counts,
        cross_hamming(g1, g2_free, np.arange(1, k + 1), counts),
        source_counts,
        retention.retained,
        retention.deleted,
        retention.pair_counts,
        retention.source_counts,
        match.assigned,
        match.status,
        result.match.assigned,
        result.match.status,
        result.is_replica,
    ]


INSTANCES = [
    (symmetric_spec(3, 0.8, (0.1, 0.4, 0.3, 0.2)), 2048, 60, 5000),
    (bsc_spec(flip=0.1, p_s=(0.1, 0.5, 0.4)), 1500, 40, 3000),
]


def _instance(spec, m, n, num_seeds, seed):
    pair, seeds = sample_instance(m, n, num_seeds, spec, seed)
    returned = [pair.d1, pair.d2, pair.sigma, pair.pattern.s, seeds.g1, seeds.g2]
    return returned, (pair.d1, pair.d2, seeds.g1, seeds.g2, spec.alphabet_size)


def _borrowed_and_kept(spec, m, n, num_seeds):
    """One instance's arrays that are returned borrowed (d1, d2, g1, g2 and
    the seed counts), and the rest: sigma, the pattern and every array of
    the stages' results."""
    (d1, d2, sigma, s, g1, g2), args = _instance(spec, m, n, num_seeds, 3)
    outputs = _outputs(*args)
    borrowed = [d1, d2, g1, g2, *outputs[:BORROWED_OUTPUTS]]
    return borrowed, [sigma, s, *outputs[BORROWED_OUTPUTS:]]


@pytest.mark.parametrize("budget", [1, 2])
def test_no_returned_array_shares_memory_with_the_workspace(budget):
    # No array of a stage's result shares the workspace's memory. The
    # instance and the seed counts are returned borrowed: inside a
    # workspace they live in it, outside one they own their data.
    with fanout.budget(budget):
        with fanout.workspace(ARENA) as ws:
            for shape in INSTANCES:
                borrowed, kept = _borrowed_and_kept(*shape)
                assert all(np.shares_memory(array, ws.buffer) for array in borrowed)
                assert not any(np.shares_memory(array, ws.buffer) for array in kept)
        for shape in INSTANCES:
            borrowed, _ = _borrowed_and_kept(*shape)
            assert all(array.flags.owndata for array in borrowed)


@pytest.mark.parametrize("budget", [1, 2])
def test_every_scoped_stage_returns_its_borrows(budget, monkeypatch):
    spec, m, n, num_seeds = INSTANCES[0]
    k = spec.alphabet_size
    config = ExperimentConfig(
        spec=spec, m=m, n=n, num_seeds=num_seeds, trials=1, master_seed=3, epsilon=0.3
    )
    borrows, borrow = [], fanout.borrow

    def counted(*args):
        borrows.append(args)
        return borrow(*args)

    monkeypatch.setattr(fanout, "borrow", counted)
    with fanout.budget(budget), fanout.workspace(ARENA) as ws, fanout.scope():
        d1, d2, g1, g2, _ = _instance(spec, m, n, num_seeds, 3)[1]
        result = estimate_stages(d2, g1, g2, k)
        s = result.pattern.s
        g2_free = g2[:, (np.cumsum(s) - s)[s > 0]]
        l = cross_hamming(g1, g2_free, np.arange(1, k + 1), cooccurrence(g1, g2_free, k)[0])
        stages = {
            "run_trial": lambda: run_trial(config, 0, 0),
            "deanonymize": lambda: deanonymize(d1, d2, g1, g2, k, epsilon=0.3),
            "estimate_stages": lambda: estimate_stages(d2, g1, g2, k),
            "detect_deletions": lambda: detect_deletions(g1, g2_free, k),
            "match_rows": lambda: match_rows(d1, segment(d2, result.pattern), result.estimate, 0.3),
            "running_hamming": lambda: running_hamming(d2),
            "scan_remapping": lambda: scan_remapping(l, deletion_threshold(num_seeds, n)),
        }
        for name, stage in stages.items():
            top, borrows[:] = ws.top, []
            stage()
            assert borrows, name  # the stage did borrow
            assert ws.top == top, name


@pytest.mark.parametrize("budget", [1, 2])
def test_instances_run_alternately_through_one_workspace_keep_their_outputs(budget):
    # Outside a workspace every borrow is a plain array: the reference.
    with fanout.budget(budget):
        want = [_instance(*shape, 5)[0] + _outputs(*_instance(*shape, 5)[1]) for shape in INSTANCES]
        got = []
        with fanout.workspace(ARENA):
            for shape in INSTANCES * 2:
                returned, args = _instance(*shape, 5)
                got.append(returned + _outputs(*args))
    for outputs, reference in zip(got, want * 2):
        assert all(np.array_equal(a, b) for a, b in zip(outputs, reference, strict=True))
    # The first instance's arrays, held through the second's run, are unchanged.
    assert all(np.array_equal(a, b) for a, b in zip(got[0], got[2], strict=True))


def test_two_workers_report_as_one_does_whatever_the_pool_holds():
    config = dict(
        spec=symmetric_spec(3, 0.8, (0.1, 0.4, 0.3, 0.2)),
        m=512,
        n=60,
        num_seeds=3000,
        trials=4,
        master_seed=17,
        epsilon=0.3,
    )
    reports = []
    for workers in (2, 1, 2):
        report = run_experiment(ExperimentConfig(workers=workers, **config))
        reports.append((render(report, "csv"), [p.to_dict() for p in report.points]))
    assert reports[0] == reports[1] == reports[2]


def test_the_guard_counts_a_held_workspace_or_frees_it():
    fanout.release()
    config = dict(spec=bsc_spec(flip=0.1, p_s=(0.3, 0.7)), m=512, n=40, num_seeds=3000, trials=1)
    run_experiment(ExperimentConfig(**config))
    held = fanout.held()
    assert held > 0
    small = dict(config, m=16, n=10)
    run_experiment(ExperimentConfig(**small))  # fits beside the held workspace
    assert fanout.held() >= held
    need = int(1.5 * _estimated_bytes(16, 10, 3000, 1, 2))
    run_experiment(ExperimentConfig(memory_cap_bytes=need + held // 2, **small))
    assert fanout.held() < held  # freed: the run fits only without it


REFAULT_SCRIPT = textwrap.dedent(
    """
    import resource
    import sys

    sys.path.insert(0, sys.argv[1])
    from conftest import unit_trace_cyclic_spec
    from dbalign.experiment import ExperimentConfig, run_experiment

    # perfbench's remap_sweep workload: one trial per batch.
    config = ExperimentConfig(
        spec=unit_trace_cyclic_spec((0.3, 0.7)),
        m=1024,
        n=60,
        num_seeds=30_000,
        trials=1,
        master_seed=104729,
        epsilon=0.3,
    )
    faults = []
    for batch in range(5):
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        run_experiment(config)
        faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
    print(*faults)
    """
)


@pytest.mark.skipif(sys.platform != "linux", reason="counts minor faults as Linux does")
def test_a_repeated_batch_faults_no_pages_back_in():
    # The same batch five times in a fresh interpreter: from the third on,
    # every buffer a trial needs is already resident. A stage that frees its
    # buffers lets the allocator trim the heap between trials and fault it
    # back in on every batch: the seed matrices alone are 747 pages of
    # remap_sweep's. A fan-out's fresh thread may still be handed a malloc
    # arena that no thread has grown yet, which faults in its first
    # transient once, so the fewest faults of batches 3 to 5 are bounded.
    src = Path(dbalign.__file__).resolve().parents[1]
    path = [str(src), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    tests = str(Path(__file__).resolve().parent)
    out = subprocess.run(
        [sys.executable, "-c", REFAULT_SCRIPT, tests],
        env=env,
        stdout=subprocess.PIPE,
        text=True,
        check=True,
    )
    faults = [int(count) for count in out.stdout.split()]
    assert min(faults[2:]) <= 100, faults
