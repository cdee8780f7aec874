"""Pure helpers of the ncsim benchmark: workloads, percentiles, digests, counters.

Nothing here imports ``ncsim``; ``run.py`` drives the program and these
functions judge what it produced.
"""

import hashlib
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

# Loss seeds whose artifacts are pinned in digests.json.  A run visits
# them in an order drawn from its --seed, so the seed fixes the inputs.
POOL_SEEDS = tuple(range(64))

# A reported percentile must have at least this many samples above it.
MIN_TAIL = 10

DIGESTS_PATH = Path(__file__).resolve().parent / "digests.json"


@dataclass(frozen=True)
class Workload:
    """One ncsim command line repeated over loss seeds.

    Attributes:
        name: workload name as given to --workload.
        argv: ncsim arguments before ``--seed`` and ``--out``.
        artifacts: files whose sha256 is pinned per loss seed.
        intervals_per_op: control intervals one operation simulates.
        fresh: run each operation as ``python -m ncsim`` in a new
            interpreter instead of calling ``ncsim.cli.main``.
    """

    name: str
    argv: tuple
    artifacts: tuple
    intervals_per_op: int
    fresh: bool = False


RUN_ARTIFACTS = ("trace.csv", "resolved_config.json")

# Why each workload exists is recorded next to it in BENCHMARK.json.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "run-buffer-lossless",
            ("run", "tank-reference", "--strategy", "predictive-buffer", "--loss", "none"),
            RUN_ARTIFACTS,
            1800,
        ),
        Workload(
            "run-hold-bursty",
            ("run", "tank-reference", "--strategy", "hold-last-value", "--loss", "ge:0.05,0.3,0.8"),
            RUN_ARTIFACTS,
            1800,
        ),
        Workload(
            "compare-bernoulli",
            (
                "compare", "tank-reference", "--loss", "bernoulli:0.3",
                "--strategies", "predictive-buffer,hold-last-value",
                "--workers", "2", "--seeds", "1",
            ),
            ("comparison.csv", "resolved_config.json"),
            2 * 1800,
        ),
        Workload(
            "cli-short-runs",
            (
                "run", "tank-reference", "--set", "sim.duration=20",
                "--set", "cost.m_steps=10", "--loss", "bernoulli:0.3",
            ),
            RUN_ARTIFACTS,
            10,
            fresh=True,
        ),
    )
}


def op_argv(workload: Workload, loss_seed: int, out_dir) -> list:
    """Full ncsim argument list of one operation."""
    return [*workload.argv, "--seed", str(loss_seed), "--out", str(out_dir)]


def seed_order(workload_name: str, seed: int) -> list:
    """The pool seeds in the order a run with this --seed visits them."""
    order = list(POOL_SEEDS)
    random.Random(f"{workload_name}/{seed}").shuffle(order)
    return order


def percentile(samples, q: float) -> float:
    """Nearest-rank q-th percentile with at least MIN_TAIL samples above it.

    Raises ValueError when there are too few samples for that rule.
    """
    ordered = sorted(samples)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    if len(ordered) - rank < MIN_TAIL:
        raise ValueError(
            f"p{q:g} of {len(ordered)} samples has {len(ordered) - rank} above it, "
            f"need {MIN_TAIL}"
        )
    return ordered[rank - 1]


def sha256_file(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def load_digests() -> dict:
    with open(DIGESTS_PATH) as handle:
        return json.load(handle)


def has_diverged_cell(comparison_csv) -> bool:
    """A compare cell whose run diverged is written empty."""
    rows = Path(comparison_csv).read_text().splitlines()[1:]
    return any(cell == "" for row in rows for cell in row.split(","))


def check_artifacts(out_dir, expected: dict) -> list:
    """Compare the artifacts in ``out_dir`` with their pinned sha256.

    Returns one message per missing, diverged or mismatching file.
    """
    problems = []
    for name, digest in expected.items():
        path = Path(out_dir) / name
        if not path.is_file():
            problems.append(f"{name} missing")
            continue
        if name == "comparison.csv" and has_diverged_cell(path):
            problems.append("comparison.csv has a diverged cell")
        if sha256_file(path) != digest:
            problems.append(f"{name} sha256 differs from the pinned digest")
    return problems


class Tally:
    """Attempted and failed operations, with the first few failure reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons = []

    def record(self, problems) -> bool:
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.reasons) < 5:
                self.reasons.append("; ".join(problems))
        return not problems

    @property
    def failed_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


def fold_spans(spans) -> dict:
    """Per-name ``[calls, total_s, self_s]`` of closed spans.

    ``spans`` holds ``(name, start, end, parent)`` tuples where ``parent``
    is the index of the enclosing span or -1.  Self time is a span's
    duration minus the durations of its direct children.
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    folded = {}
    for index, (name, start, end, _) in enumerate(spans):
        entry = folded.setdefault(name, [0, 0.0, 0.0])
        entry[0] += 1
        entry[1] += end - start
        entry[2] += end - start - child_time[index]
    return folded


# Event codes of the stream the tracer records: reception bits 0 and 1
# from LossModel.sample_reception, PLAN for each predict_trajectory call.
PLAN = 2

COUNTER_NAMES = ("intervals", "losses", "longest_burst", "planned", "replayed")


def _burst_counters(bits) -> dict:
    losses = longest = run = 0
    for bit in bits:
        if bit:
            run = 0
        else:
            losses += 1
            run += 1
            longest = max(longest, run)
    return {"intervals": len(bits), "losses": losses, "longest_burst": longest}


def counters_from_events(events) -> dict:
    """Loss and buffer counters from the wrapper event stream of one run.

    A planned trajectory counts as replayed when a loss follows it
    before the next plan, or when it was planned during a loss (the
    fallback from the initial state).
    """
    bits = [e for e in events if e != PLAN]
    counters = _burst_counters(bits)
    planned = replayed = 0
    pending = False
    last_bit = 1
    for event in events:
        if event == PLAN:
            planned += 1
            pending = bool(last_bit)
            replayed += not last_bit
        else:
            last_bit = event
            if not event and pending:
                replayed += 1
                pending = False
    counters.update(planned=planned, replayed=replayed)
    return counters


def counters_from_trace(path) -> dict:
    """The same counters derived from the ``s`` and ``x_pred`` columns of trace.csv.

    A predicting run plans at every reception, and once before a leading
    loss; every loss burst replays the trajectory planned before it.
    """
    bits = []
    predicting = False
    with open(path) as handle:
        header = handle.readline().rstrip("\n").split(",")
        s_col, pred_col = header.index("s"), header.index("x_pred")
        for line in handle:
            cells = line.rstrip("\n").split(",")
            bits.append(int(cells[s_col]))
            predicting = predicting or cells[pred_col] != ""
    counters = _burst_counters(bits)
    if predicting:
        bursts = sum(1 for k, bit in enumerate(bits) if not bit and (k == 0 or bits[k - 1]))
        counters["planned"] = sum(bits) + (1 if bits and not bits[0] else 0)
        counters["replayed"] = bursts
    else:
        counters["planned"] = counters["replayed"] = 0
    return counters
