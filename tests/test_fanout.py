import threading

import pytest

from dbalign import fanout


@pytest.mark.parametrize(
    "total, least, count", [(0, 1, 3), (5, 1, 3), (10, 4, 3), (7, 2, 3), (9, 1, 1)]
)
def test_parts_tile_the_range_in_at_most_count_parts_of_at_least_least(total, least, count):
    spans = fanout.parts(total, least, count)
    assert [start for start, _ in spans] == [0] + [stop for _, stop in spans[:-1]]
    assert spans[-1][1] == total
    assert len(spans) == max(1, min(count, total // least))
    sizes = [stop - start for start, stop in spans]
    assert max(sizes) - min(sizes) <= 1
    assert len(spans) == 1 or min(sizes) >= least


def test_the_budget_is_per_thread_and_restored():
    seen = []
    with fanout.budget(3):
        assert fanout.parts(30, 1) == [(0, 10), (10, 20), (20, 30)]
        # A fan-out's threads start at a budget of 1.
        fanout.fan_out(lambda j: seen.append(fanout.threads()), [0, 1, 2])
        assert fanout.threads() == 3
    assert fanout.threads() == 1
    assert sorted(seen) == [1, 1, 3]


def test_fan_out_runs_the_first_job_here_and_returns_results_in_job_order():
    here = threading.get_ident()
    results = fanout.fan_out(lambda j: (j, threading.get_ident() == here), [0, 1, 2, 3])
    assert results == [(0, True), (1, False), (2, False), (3, False)]


@pytest.mark.parametrize("failing", [[0], [2], [1, 2]])
def test_fan_out_joins_every_job_before_raising(failing):
    done = []

    def work(j):
        if j in failing:
            raise RuntimeError(f"job {j}")
        done.append(j)

    with pytest.raises(RuntimeError, match=f"job {failing[0]}"):
        fanout.fan_out(work, [0, 1, 2, 3])
    assert sorted(done) == [j for j in range(4) if j not in failing]


def test_a_job_with_a_budget_of_its_own_fans_out_inside_it():
    before = set(threading.enumerate())

    def job(j):
        with fanout.budget(2):
            inner = fanout.fan_out(lambda i: (j, i, fanout.threads()), [0, 1])
            return inner, fanout.threads()

    results = fanout.fan_out(job, [0, 1, 2])
    assert results == [([(j, 0, 2), (j, 1, 1)], 2) for j in range(3)]
    assert fanout.threads() == 1
    assert set(threading.enumerate()) == before  # every thread is joined
