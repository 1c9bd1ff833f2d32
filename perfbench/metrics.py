"""Arithmetic of the benchmark: run length, percentiles, set-up, self times, failures.

Everything here works on plain numbers and span records, so it is tested
without running the solver (see test_metrics.py).

A span is a tuple ``(name, start, end, parent)`` where ``parent`` is the
index of the enclosing span in the same list, or -1 for a top-level span.
A step record is a tuple ``(loop, start, end)``: ``loop`` identifies the
time loop (one ``TimeStepper``) the step belongs to.
"""

from __future__ import annotations

TAIL_MIN_BEYOND = 10


def tail_percentile(samples, beyond=TAIL_MIN_BEYOND):
    """Highest nearest-rank percentile with at least ``beyond`` samples above it.

    Returns ``(value, percentile)``: ``value`` is the k-th smallest sample with
    k = n - beyond, and ``percentile`` is 100 k / n.  With fewer than
    ``beyond + 1`` samples no such percentile exists and ``None`` is returned.
    """
    n = len(samples)
    k = n - beyond
    if k < 1:
        return None
    return sorted(samples)[k - 1], 100.0 * k / n


def another_execution(elapsed, last, seconds):
    """Whether a run that has measured ``elapsed`` s starts one more execution.

    The next execution is expected to take as long as the ``last`` one, and
    it is started when the run then ends nearer to ``seconds`` than without
    it.  So a run measures about ``seconds`` whatever an execution takes,
    and never less than one execution.
    """
    return elapsed + last / 2 < seconds


def setup_seconds(main_start, steps):
    """Wall time before each loop's first step that no earlier loop spent.

    That is the gap from entering the entry point to the first step, plus
    each gap between one loop's last step and the next loop's first step.
    Time spent between steps of one loop is not set-up.
    """
    total = 0.0
    prev_end = main_start
    prev_loop = object()
    for loop, start, end in steps:
        if loop != prev_loop:
            total += start - prev_end
            prev_loop = loop
        prev_end = end
    return total


def finest_loop_steps(steps, loop_dofs):
    """Durations of the steps of the loop with the most dofs (last on ties)."""
    if not loop_dofs:
        return []
    finest = max(reversed(list(loop_dofs)), key=loop_dofs.get)
    return [end - start for loop, start, end in steps if loop == finest]


def self_times(spans):
    """Each span's duration minus the durations of its direct children."""
    own = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def loop_self_seconds(spans, main_start, main_end, slack=1e-6):
    """Wall time of the entry point not covered by any top-level span.

    Checks that the top-level spans lie inside the entry point's interval and
    do not overlap, so that they and the result add up to the wall time.
    """
    top = sorted((start, end) for _, start, end, parent in spans if parent < 0)
    cursor = main_start
    for start, end in top:
        if start < cursor - slack or end < start or end > main_end + slack:
            raise ValueError(
                f"top-level span [{start}, {end}] overlaps another span or "
                f"leaves the entry point's interval [{main_start}, {main_end}]")
        cursor = end
    covered = sum(end - start for start, end in top)
    return (main_end - main_start) - covered


def failed_steps(planned, ok_steps, output_ok):
    """Failed operations of one execution, where one operation is one step.

    A step fails when it raises or returns non-finite values; a step never
    reached because an earlier one raised fails too.  When the outputs fail
    their check, every planned step counts as failed.
    """
    if not output_ok:
        return planned
    return planned - min(ok_steps, planned)


def failed_fraction(executions):
    """``(failed, attempted)`` over ``(planned, ok_steps, output_ok)`` triples."""
    failed = sum(failed_steps(*ex) for ex in executions)
    attempted = sum(ex[0] for ex in executions)
    return failed, attempted
