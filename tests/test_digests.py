"""The benchmark's four workloads rerun in-process against their pinned digests.

``bench/digests.json`` holds the sha256 of every artifact that the
benchmark's workloads write for each loss seed.  The command lines below
are those of the workloads in ``bench/core.py``; matching their digests
shows that ``trace.csv``, ``comparison.csv`` and ``resolved_config.json``
stayed byte-identical.  ``compare-bernoulli`` pins the compare cells'
costs, which are each run's own running cost after ``cost.m_steps``
intervals.  The digest file is only read.
"""

import hashlib
import json
from pathlib import Path

import pytest

from ncsim.cli import EXIT_OK, main

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
