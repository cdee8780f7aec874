"""Two benchmark workloads rerun in-process against their pinned digests.

``bench/digests.json`` holds the sha256 of every artifact that the
benchmark's workloads write for each loss seed.  The command lines below
are those of the ``run-buffer-lossless`` and ``run-hold-bursty``
workloads in ``bench/core.py``; matching their digests shows that
``trace.csv`` and ``resolved_config.json`` stayed byte-identical.  The
digest file is only read.
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
}


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("workload", sorted(COMMANDS))
def test_artifacts_match_pinned_digests(workload, seed, tmp_path, capsys):
    pinned = json.loads(DIGESTS.read_text())[workload][str(seed)]
    argv = [*COMMANDS[workload], "--seed", str(seed), "--out", str(tmp_path)]
    assert main(argv) == EXIT_OK
    assert sorted(pinned) == ["resolved_config.json", "trace.csv"]
    for name, digest in pinned.items():
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest, name
