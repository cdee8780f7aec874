"""The benchmark's four workloads rerun in-process against their pinned digests.

``bench/digests.json`` holds the sha256 of every artifact that the
benchmark's workloads write for each loss seed.  The command lines below
are those of the workloads in ``bench/core.py``; matching their digests
shows that ``trace.csv``, ``comparison.csv`` and ``resolved_config.json``
stayed byte-identical.  ``compare-bernoulli`` pins the compare cells'
costs, which are each run's own running cost after ``cost.m_steps``
intervals.  The digest file is only read.

Each kind of divergence leaves a partial ``trace.csv``, a ``summary.json``
and two stderr lines, pinned below as they were when ``ncsim run`` still
held every record until the run ended.  ``trace.csv`` is written row by
row as the run goes, so these pins show that streaming it changed no byte.
One finished run whose theta schedule switches inside an interval is
pinned the same way.
"""

import hashlib
import io
import json
from pathlib import Path

import pytest

from ncsim.cli import EXIT_DIVERGED, EXIT_OK, main
from ncsim.errors import SimulationDiverged
from ncsim.runtime import TraceWriter, run_scenario
from ncsim.scenario import scenario_from_dict

DIGESTS = Path(__file__).resolve().parents[1] / "bench" / "digests.json"

COMMANDS = {
    "run-buffer-lossless": (
        "run", "tank-reference", "--strategy", "predictive-buffer", "--loss", "none",
    ),
    "run-hold-bursty": (
        "run", "tank-reference", "--strategy", "hold-last-value", "--loss", "ge:0.05,0.3,0.8",
    ),
    "compare-bernoulli": (
        "compare", "tank-reference", "--loss", "bernoulli:0.3",
        "--strategies", "predictive-buffer,hold-last-value",
        "--workers", "2", "--seeds", "1",
    ),
    "cli-short-runs": (
        "run", "tank-reference", "--set", "sim.duration=20",
        "--set", "cost.m_steps=10", "--loss", "bernoulli:0.3",
    ),
}


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("workload", sorted(COMMANDS))
def test_artifacts_match_pinned_digests(workload, seed, tmp_path, capsys):
    pinned = json.loads(DIGESTS.read_text())[workload][str(seed)]
    argv = [*COMMANDS[workload], "--seed", str(seed), "--out", str(tmp_path)]
    assert main(argv) == EXIT_OK
    assert "resolved_config.json" in pinned and len(pinned) == 2
    for name, digest in pinned.items():
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest, name


# A finished run whose interval 900, [1800, 1802), switches theta away
# from 0.175 at 1800.05 and back at 1801.0: the first and last substep
# starts give the same value from two schedule entries.  Digests as the
# truth march computed them before it stepped such an interval per substep.
STRADDLING = (
    "run", "tank-reference", "--loss", "bernoulli:0.3", "--seed", "42",
    "--set", "sim.theta=[[0.0, 0.175], [1800.05, 0.185], [1801.0, 0.175], [2000.3, 0.18]]",
)
STRADDLING_DIGESTS = {
    "trace.csv": "9701c10762fed7fda420f08680cbf4c01700f92dca8cb6f469905041a79c66ae",
    "summary.json": "f9100be9894360bc49a2a6a7863057ae311c46fa2a36859d04e3f480d4f4557a",
    "resolved_config.json": "2dd41a188484923314b8ea69fc6afe543996b8fd3345a3dbc35968164f600d0b",
}


def test_straddling_run_matches_pinned_digests(tmp_path, capsys):
    assert main([*STRADDLING, "--out", str(tmp_path)]) == EXIT_OK
    for name, digest in STRADDLING_DIGESTS.items():
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest, name


# Flags after "run tank-reference", the sha256 of trace.csv and of
# summary.json, the first stderr line, and the rows of the partial trace.
DIVERGED = {
    "feedback-overflow": (
        ("--set", "plant.p1=1e308"),
        "266d3e2736d8a482cd176b708dc963e0659dfe732a4e2d8228db82ac11dff8db",
        "883c2cea8989601d7e856409fb406f24f05092c11bd2424d87433ceb2e6e137d",
        "diverged at step 0: feedback overflowed at LfV=413577004.8317513, "
        "LgV=-4.135770048317513e+160",
        0,
    ),
    "cost-overflow": (
        ("--set", "cost.q_c=1e308"),
        "266d3e2736d8a482cd176b708dc963e0659dfe732a4e2d8228db82ac11dff8db",
        "586ee66e739dc64b53d380f99a00ef0484265b86e91c971a14390d38bbf66d20",
        "diverged at step 0: running cost became non-finite: inf",
        0,
    ),
    "prediction-exit-at-once": (
        ("--set", "predictor.gamma=0.9", "--loss", "bernoulli:0.3"),
        "bdb4c23374ab77a86434583fdb976ec047e9c68c267894fcba3a11feb1adb716",
        "817e406b863181bf93cc51e8ea29b54a4de5d39be368b99675b182579d76ccab",
        "diverged at step 1: prediction left the domain after 1 entries",
        1,
    ),
    "prediction-exit-late": (
        ("--set", "predictor.gamma=0.25", "--loss", "bernoulli:0.3", "--seed", "42"),
        "24a2a93541af76e357a836e92dacf2a8f9b80a4437fd7caad4d53848163711fa",
        "4d6a651c0920a0390bcc4c08f8d0a75c7b6b0c2eb676d724c1f86e6f9d3275da",
        "diverged at step 46: prediction left the domain after 6 entries",
        46,
    ),
    # the record of the interval whose truth march fails is already written
    "truth-exit": (
        ("--set", "sim.theta=[[0.0, 0.175], [61.0, 2.0]]"),
        "0756c30f26003084222f8b33680ccf3c1ef7c5c7857ec297d47abc436dca4069",
        "c0454e2112376f34448caaacedad173caee3b664dfce6a7a94bd03905a4254c4",
        "diverged at step 30: stage 2 state 202433.75963201388 left the domain",
        31,
    ),
    # seed 1 loses the first sample, so the held input is the closed valve
    # u = +0.0, and g(x) = inf makes inf * (+0.0) = nan at the first stage;
    # pinned as the march computed it before it could skip g at u = +0.0
    "closed-valve-gain-overflow": (
        ("--strategy", "hold-last-value", "--loss", "bernoulli:0.3", "--seed", "1",
         "--set", "plant.alpha1=1e306"),
        "6b767b692b2a8593796e644608c248714a5a8a8e7a2d8a509dda3b4c847e9705",
        "e1bc1fb7a792d6184b260f72d6cb4971e7ec3e01ba35f477b7f4e5351cc6076f",
        "diverged at step 0: stage 2 state nan left the domain",
        1,
    ),
}


@pytest.mark.parametrize("kind", sorted(DIVERGED))
def test_diverged_run_artifacts_match_pinned_digests(kind, tmp_path, capsys):
    flags, trace_digest, summary_digest, reason_line, rows = DIVERGED[kind]
    assert main(["run", "tank-reference", *flags, "--out", str(tmp_path)]) == EXIT_DIVERGED
    assert capsys.readouterr().err == (
        f"{reason_line}\nwrote partial trace ({rows} steps) to {tmp_path}\n"
    )
    trace = (tmp_path / "trace.csv").read_bytes()
    assert trace.count(b"\n") == rows + 1
    assert hashlib.sha256(trace).hexdigest() == trace_digest
    summary = (tmp_path / "summary.json").read_bytes()
    assert hashlib.sha256(summary).hexdigest() == summary_digest

    # through the API: the rows a sink took before the divergence
    scenario = scenario_from_dict(json.loads((tmp_path / "resolved_config.json").read_text()))
    written = io.StringIO()
    with pytest.raises(SimulationDiverged):
        run_scenario(scenario, scenario.strategies[0], TraceWriter(written, scenario.cost.m_steps))
    assert written.getvalue().encode() == trace
