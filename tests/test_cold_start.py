"""A fresh ``ncsim`` process loads only the modules its command uses.

Each command runs in its own interpreter, started with ``-S`` so that no
site hook preloads a module, and reports which of the watched modules it
loaded.  The check is on the set of loaded modules, not on timings.
"""

import os
import subprocess
import sys

import ncsim

# The process pool (with multiprocessing), statistics (with fractions and
# decimal) and csv: commands that do not use them should not import them.
WATCHED = ("concurrent", "multiprocessing", "statistics", "csv")

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
