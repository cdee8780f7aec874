"""A run's memory does not grow with its length, nor a process's with its
number of runs.

``ncsim run`` writes each trace row as its interval completes, and a
compare cell keeps only its cost, so neither holds the run's records.
Run ten times longer, the traced peak of either grows by less than
``BYTES_PER_INTERVAL`` per added interval; holding every record took
about 220 bytes per interval.  A run's three memos, the truth memo
of end states, the feedback memo of inputs at received states and the
trace writer's memo of state texts, are each capped at
``TRUTH_MEMO_ENTRIES`` entries, and even the shorter run fills all
three: its Bernoulli 0.3 run mostly meets states not seen before.  The
same bound holds the feedback memo to its cap: uncapped, it grew the
longer run's peak by about 1.2 MB.

A process that calls ``main`` for many short runs keeps nothing per run
beyond the argument parser its first call builds: the memory it retains
levels off after the first hundred or so calls, as caches of the
standard library fill.
"""

import contextlib
import gc
import io
import tracemalloc

from ncsim import PREDICTIVE_BUFFER, compare_strategies
from ncsim.cli import EXIT_OK, main
from ncsim.runtime import TRUTH_MEMO_ENTRIES
from ncsim.scenario import apply_overrides, builtin_scenario_dict, scenario_from_dict

# sim.duration of tank-reference (t_s = 2) for 1800 and 18 000 intervals
SHORT, LONG = 3600.0, 36000.0
ADDED_INTERVALS = (LONG - SHORT) / 2.0
BYTES_PER_INTERVAL = 1
# One truth substep per interval: the memory per interval does not depend
# on it, and tracemalloc slows each allocation down.
SETTINGS = ("sim.n_truth=1", 'loss={"kind": "bernoulli", "p": 0.3, "seed": 42}')


def traced(fn, *args):
    """``fn(*args)`` and the peak of the memory traced while it ran."""
    tracemalloc.start()
    try:
        value = fn(*args)
        return value, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def assert_flat(peak_of) -> None:
    assert SHORT / 2.0 > TRUTH_MEMO_ENTRIES  # both runs reach the memo caps
    peak_of(SHORT)  # once unmeasured, for what a process builds on first use
    short, long = peak_of(SHORT), peak_of(LONG)
    assert long - short < BYTES_PER_INTERVAL * ADDED_INTERVALS, (short, long)


def test_run_peak_does_not_grow_with_duration(tmp_path):
    def peak_of(duration):
        overrides = [arg for setting in SETTINGS for arg in ("--set", setting)]
        argv = ["run", "tank-reference", *overrides, "--set", f"sim.duration={duration}",
                "--out", str(tmp_path)]
        code, peak = traced(main, argv)
        assert code == EXIT_OK
        return peak

    assert_flat(peak_of)
    # the long run wrote every row
    assert (tmp_path / "trace.csv").read_text().count("\n") == 18_001


def test_compare_cell_peak_does_not_grow_with_duration():
    def peak_of(duration):
        doc = apply_overrides(
            builtin_scenario_dict("tank-reference"), [*SETTINGS, f"sim.duration={duration}"]
        )
        scenario = scenario_from_dict(doc)
        result, peak = traced(compare_strategies, scenario, (PREDICTIVE_BUFFER,), 1, 1)
        assert result.diverged_count(PREDICTIVE_BUFFER) == 0
        return peak

    assert_flat(peak_of)


# A short run as one fresh ``ncsim run`` process would make it, 10 intervals.
SHORT_RUN = ("run", "tank-reference", "--set", "sim.duration=20", "--set", "cost.m_steps=10",
             "--loss", "bernoulli:0.3")
WARM_UP_CALLS, TRACED_CALLS = 200, 200
# Retained over the traced calls: argparse and file-writing buffers of the
# standard library, which differ between versions; keeping 600 bytes per
# run would add 120 KB.  Measured by a standard-library copy of this test's
# body, ten processes per version (Linux x86-64): 3.10.13 retained 36 962
# to 50 038 bytes, 3.11.7 29 539 to 35 888 (59 KB in one process of twelve
# earlier) and 3.12.1 78 243 to 82 867, 69% of the bound.  The failure
# message gives the retained figure.
RETAINED_BYTES = 120_000


def test_repeated_runs_in_one_process_retain_a_bounded_amount(tmp_path):
    def call(i):
        argv = [*SHORT_RUN, "--seed", str(i % 10), "--out", str(tmp_path)]
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(argv) == EXIT_OK

    for i in range(WARM_UP_CALLS):
        call(i)
    # no collection before tracing starts: after one, each traced call
    # here took three times as long
    tracemalloc.start(1)
    try:
        for i in range(TRACED_CALLS):
            call(i)
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert retained < RETAINED_BYTES, retained
