"""Tests of the benchmark's own arithmetic, on synthetic records only.

    python3 -m pytest perfbench -q
"""

import pytest

import metrics


@pytest.mark.parametrize("execution, count", [
    (28.0, 1),   # a second one would overshoot by more than it adds
    (17.0, 2),
    (15.0, 3),   # 45 s ends nearer to 40 s than 30 s does
    (90.0, 1),   # longer than the run: still one
])
def test_run_repeats_executions_while_it_gets_nearer_the_run_length(
        execution, count):
    elapsed, done = 0.0, 0
    while not done or metrics.another_execution(elapsed, execution, 40.0):
        elapsed += execution
        done += 1
    assert done == count


def test_tail_percentile_keeps_ten_samples_beyond():
    samples = [float(i) for i in range(32, 0, -1)]  # unsorted on purpose
    value, pct = metrics.tail_percentile(samples)
    assert value == 22.0
    assert sum(s > value for s in samples) == 10
    assert pct == pytest.approx(68.75)


@pytest.mark.parametrize("n, pct", [(100, 90.0), (50, 80.0), (11, 100 / 11)])
def test_tail_percentile_rank(n, pct):
    value, got = metrics.tail_percentile(list(range(n)))
    assert got == pytest.approx(pct)
    assert value == n - 11


@pytest.mark.parametrize("n", [0, 1, 10])
def test_tail_percentile_too_few_samples(n):
    assert metrics.tail_percentile([1.0] * n) is None


def test_setup_counts_entry_gap_and_gaps_between_loops():
    # entry at 0; loop a steps 2-3, 3-4; loop b steps 5.5-6, 6-7; loop c 10-11
    steps = [("a", 2.0, 3.0), ("a", 3.0, 4.0),
             ("b", 5.5, 6.0), ("b", 6.0, 7.0), ("c", 10.0, 11.0)]
    assert metrics.setup_seconds(0.0, steps) == pytest.approx(2.0 + 1.5 + 3.0)


def test_setup_ignores_time_between_steps_of_one_loop():
    steps = [(0, 1.0, 2.0), (0, 5.0, 6.0)]  # energy and output between steps
    assert metrics.setup_seconds(0.5, steps) == pytest.approx(0.5)


def test_finest_loop_is_the_one_with_most_dofs():
    steps = [(0, 0.0, 1.0), (1, 1.0, 3.0), (1, 3.0, 6.0), (2, 6.0, 6.5)]
    assert metrics.finest_loop_steps(steps, {0: 10, 1: 50, 2: 20}) == [2.0, 3.0]
    assert metrics.finest_loop_steps(steps, {0: 50, 1: 50, 2: 20}) == [2.0, 3.0]
    assert metrics.finest_loop_steps([], {}) == []


def test_self_time_subtracts_direct_children_only():
    spans = [("step", 0.0, 10.0, -1),
             ("solve", 1.0, 8.0, 0),
             ("factor", 1.5, 6.0, 1),
             ("trisolve", 6.0, 7.0, 1),
             ("load", 8.0, 9.0, 0),
             ("energy", 10.0, 12.0, -1)]
    assert metrics.self_times(spans) == pytest.approx(
        [10.0 - 7.0 - 1.0, 7.0 - 4.5 - 1.0, 4.5, 1.0, 1.0, 2.0])


def test_loop_self_closes_the_account_of_wall_time():
    spans = [("parse", 0.1, 0.2, -1), ("step", 0.5, 2.0, -1),
             ("solve", 0.6, 1.9, 1), ("energy", 2.0, 2.5, -1)]
    loop_self = metrics.loop_self_seconds(spans, 0.0, 3.0)
    top = sum(end - start for _, start, end, parent in spans if parent < 0)
    assert loop_self == pytest.approx(3.0 - 2.1)
    assert top + loop_self == pytest.approx(3.0)


@pytest.mark.parametrize("spans", [
    [("a", 0.0, 2.0, -1), ("b", 1.0, 3.0, -1)],   # overlapping top-level spans
    [("a", 0.5, 4.0, -1)],                        # ends after the entry point
])
def test_loop_self_rejects_spans_that_do_not_add_up(spans):
    with pytest.raises(ValueError):
        metrics.loop_self_seconds(spans, 0.0, 3.0)


def test_failed_fraction_counts_steps():
    executions = [
        (62, 62, True),    # clean
        (62, 40, True),    # step 41 raised: 22 failed, reached or not
        (62, 62, False),   # output check failed: every step counts
    ]
    assert metrics.failed_fraction(executions) == (0 + 22 + 62, 186)


def test_failed_fraction_of_clean_runs_is_zero():
    assert metrics.failed_fraction([(50, 50, True)] * 3) == (0, 150)
