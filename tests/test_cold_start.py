"""A fresh ``ncsim`` process loads only the modules its command uses.

Each command runs in its own interpreter, started with ``-S`` so that no
site hook preloads a module, and reports which of the watched modules it
loaded.  The check is on the set of loaded modules, not on timings.

The records are ``NamedTuple``s rather than dataclasses, so that no command
loads ``dataclasses`` (with ``inspect``).  Their constructor and
``_replace`` both run the record's range rules.
"""

import math
import os
import subprocess
import sys

import pytest

import ncsim
from ncsim import (
    ConfigError, ControllerConfig, CostWeights, LossSpec, PredictorConfig,
    SamplePair, SimSettings, SystemDynamics, UncertaintySignal, builtin_scenario,
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


REFERENCE = builtin_scenario("tank-reference")
NAN = math.nan

# (valid record, changed fields, error type, text the error starts with):
# every range rule of every checked record, NaN included wherever a
# comparison could let it through.
RULES = [
    *[(REFERENCE.plant, {key: value}, ConfigError, f"plant.{key} must be positive")
      for key in ("alpha1", "alpha2", "a1", "a2", "rho", "vol") for value in (0.0, -1.0, NAN)],
    (REFERENCE.plant, {"m2": 1.5}, ConfigError, "plant.m2 must lie in [0, 1]"),
    (REFERENCE.plant, {"m2": NAN}, ConfigError, "plant.m2 must lie in [0, 1]"),
    (REFERENCE.plant, {"p2": -1.0}, ConfigError, "plant.p2 must be non-negative"),
    (REFERENCE.plant, {"p2": NAN}, ConfigError, "plant.p2 must be non-negative"),
    (REFERENCE.plant, {"p1": 50_000.0}, ConfigError, "plant.p1 must exceed p2"),
    (REFERENCE.plant, {"p1": NAN}, ConfigError, "plant.p1 must exceed p2"),
    (REFERENCE.plant, {"domain_margin": -1.0}, ConfigError,
     "plant.domain_margin must be non-negative"),
    (REFERENCE.plant, {"domain_margin": NAN}, ConfigError,
     "plant.domain_margin must be non-negative"),
    (REFERENCE.plant, {"domain_margin": 50_000.0}, ConfigError,
     "plant.domain_margin leaves an empty state domain"),
    (REFERENCE.predictor, {"delta": 0.0}, ConfigError, "predictor.delta must be positive"),
    (REFERENCE.predictor, {"delta": NAN}, ConfigError, "predictor.delta must be positive"),
    (REFERENCE.predictor, {"gamma": 1.0}, ConfigError, "predictor.gamma must lie in (-1, 1)"),
    (REFERENCE.predictor, {"gamma": NAN}, ConfigError, "predictor.gamma must lie in (-1, 1)"),
    (REFERENCE.predictor, {"horizon": 0}, ConfigError, "predictor.horizon must be >= 1"),
    (REFERENCE.predictor, {"horizon": NAN}, ConfigError, "predictor.horizon must be >= 1"),
    (REFERENCE.controller, {"setpoint": NAN}, ConfigError, "controller.setpoint must be finite"),
    (REFERENCE.controller, {"lgv_threshold": 0.0}, ConfigError,
     "controller.lgv_threshold must be positive"),
    (REFERENCE.controller, {"lgv_threshold": NAN}, ConfigError,
     "controller.lgv_threshold must be positive"),
    (REFERENCE.controller, {"u_min": 2.0}, ConfigError, "controller.u_min must be below u_max"),
    (REFERENCE.controller, {"u_max": NAN}, ConfigError, "controller.u_min must be below u_max"),
    (REFERENCE.loss, {"kind": "burst"}, ConfigError, "loss.kind must be one of"),
    (REFERENCE.loss, {"seed": -1}, ConfigError, "loss.seed must be non-negative"),
    (REFERENCE.loss, {"seed": NAN}, ConfigError, "loss.seed must be non-negative"),
    (REFERENCE.loss, {"kind": "bernoulli"}, ConfigError,
     "loss.p is required for bernoulli losses"),
    (REFERENCE.loss, {"kind": "trace"}, ConfigError,
     "loss.trace_path is required for trace losses"),
    (REFERENCE.loss, {"kind": "bernoulli", "p": 1.5}, ConfigError, "loss.p must lie in [0, 1]"),
    (REFERENCE.loss, {"kind": "bernoulli", "p": NAN}, ConfigError, "loss.p must lie in [0, 1]"),
    (REFERENCE.loss, {"kind": "trace", "trace_path": "/nonexistent/bits.txt"}, ConfigError,
     "loss.trace_path '/nonexistent/bits.txt' is not a readable trace"),
    (REFERENCE.sim, {"x0": math.inf}, ConfigError, "sim.x0 must be finite"),
    (REFERENCE.sim, {"t_s": 0.0}, ConfigError, "sim.t_s must be positive"),
    (REFERENCE.sim, {"t_s": NAN}, ConfigError, "sim.t_s must be positive"),
    (REFERENCE.sim, {"duration": 1e12}, ConfigError, "sim.duration 1000000000000.0 / sim.t_s"),
    (REFERENCE.sim, {"duration": 121.0}, ConfigError,
     "sim.duration 121.0 must be a positive whole multiple of sim.t_s"),
    (REFERENCE.sim, {"duration": NAN}, ConfigError, "sim.duration nan / sim.t_s"),
    (REFERENCE.sim, {"n_truth": 0}, ConfigError, "sim.n_truth must be >= 1"),
    (REFERENCE.sim, {"n_truth": NAN}, ConfigError, "sim.n_truth must be >= 1"),
    (REFERENCE.sim, {"n_truth": 10**8}, ConfigError, "sim.n_truth 100000000 over 1800 steps"),
    (REFERENCE.sim.theta, {"times": (0.0,)}, ConfigError,
     "sim.theta: times and values must be equally sized"),
    (REFERENCE.sim.theta, {"values": (0.1, NAN)}, ConfigError,
     "sim.theta: schedule entries must be finite"),
    (REFERENCE.sim.theta, {"times": (1.0, 1.0)}, ConfigError,
     "sim.theta: schedule times must be strictly increasing"),
    *[(REFERENCE.cost, {key: value}, ConfigError, f"cost.{key} must be non-negative")
      for key in ("q_c", "r_c") for value in (-1.0, NAN)],
    (REFERENCE.cost, {"m_steps": 0}, ConfigError, "cost.m_steps must be >= 1"),
    (REFERENCE.cost, {"m_steps": NAN}, ConfigError, "cost.m_steps must be >= 1"),
    (REFERENCE, {"controller": REFERENCE.controller._replace(setpoint=250_000.0)}, ConfigError,
     "controller.setpoint 250000.0 outside state domain"),
    (REFERENCE, {"sim": REFERENCE.sim._replace(x0=50_000.0)}, ConfigError,
     "sim.x0 50000.0 outside state domain"),
    (REFERENCE, {"cost": REFERENCE.cost._replace(m_steps=1801)}, ConfigError,
     "cost.m_steps 1801 exceeds the 1800 simulated steps"),
    (REFERENCE, {"predictor": REFERENCE.predictor._replace(delta=1e-6)}, ConfigError,
     "predictor.delta 1e-06 gives"),
    (REFERENCE, {"strategies": ("hold",)}, ConfigError, "strategies: unknown strategy 'hold'"),
    (SystemDynamics(abs, abs, abs, (0.0, 1.0)), {"state_domain": (1.0, 1.0)}, ValueError,
     "state_domain must be a finite interval"),
    (SamplePair((1.0,), (1.0,)), {"measured": (1.0, 2.0)}, ValueError,
     "predicted and measured must be equally sized"),
    (SamplePair((1.0,), (1.0,)), {"measured": (NAN,)}, ValueError, "samples must be finite"),
]


def _rule_id(record, changes):
    shown = (v if isinstance(v, (int, float, str)) else type(v).__name__ for v in changes.values())
    return type(record).__name__ + "".join(f"-{k}={v}" for k, v in zip(changes, shown))


@pytest.mark.parametrize(
    "record,changes,error,text", RULES, ids=[_rule_id(r, c) for r, c, _, _ in RULES]
)
def test_constructor_and_replace_raise_the_same_text(record, changes, error, text):
    with pytest.raises(error) as built:
        type(record)(**{**record._asdict(), **changes})
    with pytest.raises(error) as replaced:
        record._replace(**changes)
    assert type(built.value) is type(replaced.value)
    assert str(built.value) == str(replaced.value)
    assert str(built.value).startswith(text)


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
