"""A fresh ``ncsim`` process loads only the modules its command uses.

Each command runs in its own interpreter, started with ``-S`` so that no
site hook preloads a module, and reports which of the watched modules it
loaded.  The check is on the set of loaded modules, not on timings.

The records are ``NamedTuple``s rather than dataclasses, so that no command
loads ``dataclasses`` (with ``inspect``).  Their ``_replace`` keeps the
record's type and derives its derived fields again; the range rules it
shares with the constructor are tested, with the parser's and the command
line's, by the one rule table in ``tests/test_scenario.py``.
"""

import os
import subprocess
import sys

import ncsim
from ncsim import (
    ControllerConfig, CostWeights, LossSpec, PredictorConfig, SimSettings, UncertaintySignal,
)

# A process pool (concurrent.futures, with multiprocessing), which compare
# does without, statistics (with fractions and decimal), csv, and
# dataclasses with inspect: commands that do not use them should not
# import them.
WATCHED = ("concurrent", "multiprocessing", "statistics", "csv", "dataclasses", "inspect")

SHORT_RUN = (
    "tank-reference",
    "--set", "sim.duration=20",
    "--set", "cost.m_steps=10",
    "--loss", "bernoulli:0.3",
)

PROBE = """
import sys
from ncsim.cli import main
assert main(sys.argv[1:]) == 0
watched = {watched!r}
print(" ".join(sorted(m for m in sys.modules if m.split(".")[0] in watched)))
"""


def loaded_watched_modules(argv, tmp_path):
    src = os.path.dirname(os.path.dirname(os.path.abspath(ncsim.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run(
        [sys.executable, "-S", "-c", PROBE.format(watched=WATCHED), *argv,
         "--out", str(tmp_path)],
        env=env,
        capture_output=True,
        text=True,
        check=False,
    )
    assert done.returncode == 0, done.stderr
    return set(done.stdout.splitlines()[-1].split())


def test_run_loads_no_pool_statistics_or_csv(tmp_path):
    assert loaded_watched_modules(["run", *SHORT_RUN], tmp_path) == set()


def test_serial_compare_loads_no_pool_or_csv(tmp_path):
    argv = ["compare", *SHORT_RUN, "--seeds", "2", "--workers", "1"]
    # statistics is imported only for the summary's medians
    assert loaded_watched_modules(argv, tmp_path) <= {"statistics"}


def test_parallel_compare_loads_no_pool_or_csv(tmp_path):
    argv = ["compare", *SHORT_RUN, "--seeds", "2", "--workers", "2"]
    assert loaded_watched_modules(argv, tmp_path) <= {"statistics"}


def test_replace_keeps_the_record_and_its_derived_fields(tmp_path):
    trace = tmp_path / "bits.txt"
    trace.write_text("1\n0\n")
    spec = LossSpec(kind="trace", trace_path=str(trace), bits=(0, 0, 0))
    assert spec.bits == (1, 0)  # derived from the file, whatever was passed
    trace.write_text("0\n1\n1\n")
    assert spec._replace(wrap=True).bits == (0, 1, 1)  # read again
    assert spec._replace(kind="none", trace_path=None).bits == ()
    cost = CostWeights(q_c=1.0, r_c=2.0, m_steps=3)._replace(r_c=0.0)
    assert type(cost) is CostWeights and cost == (1.0, 0.0, 3, False)
    assert SimSettings(1.0, 2.0, 4.0, UncertaintySignal.constant(0.0)).steps == 2
    assert isinstance(PredictorConfig(1.0, 0.0, 1)._replace(), PredictorConfig)
    assert ControllerConfig(1.0)._replace(u_max=2.0).u_max == 2.0
