"""A run's memory does not grow with its length.

``ncsim run`` writes each trace row as its interval completes, and a
compare cell keeps only its cost, so neither holds the run's records.
Run ten times longer, the traced peak of either may grow by the loss
model's one byte per drawn reception bit, and by less than
``BYTES_PER_INTERVAL`` per added interval in all; holding every record
took about 220 bytes per interval.  The truth memo holds at most
``TRUTH_MEMO_ENTRIES`` end states, which even the shorter run fills.
"""

import tracemalloc

from ncsim import PREDICTIVE_BUFFER, compare_strategies
from ncsim.cli import EXIT_OK, main
from ncsim.runtime import TRUTH_MEMO_ENTRIES
from ncsim.scenario import apply_overrides, builtin_scenario_dict, scenario_from_dict

# sim.duration of tank-reference (t_s = 2) for 1800 and 18 000 intervals
SHORT, LONG = 3600.0, 36000.0
ADDED_INTERVALS = (LONG - SHORT) / 2.0
BYTES_PER_INTERVAL = 4
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
    assert SHORT / 2.0 > TRUTH_MEMO_ENTRIES  # both runs reach the memo cap
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
