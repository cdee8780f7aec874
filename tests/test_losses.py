import itertools
import random
from typing import NamedTuple, Optional

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ncsim import LossSpec, TraceExhaustedError


# The draw loops of the former BernoulliLoss and GilbertElliottLoss
# classes, kept as the reference that pins the seeded streams.
def reference_bernoulli(p, seed, n):
    rng = random.Random(seed)
    return [0 if rng.random() < p else 1 for _ in range(n)]


def reference_gilbert_elliott(p_g2b, p_b2g, loss_in_bad, seed, n):
    rng = random.Random(seed)
    total = p_g2b + p_b2g
    stationary_bad = p_g2b / total if total > 0 else 0.0
    bad = rng.random() < stationary_bad
    bits = []
    for _ in range(n):
        if bad:
            bit = 0 if rng.random() < loss_in_bad else 1
        else:
            bit = 1
        roll = rng.random()
        if bad:
            if roll < p_b2g:
                bad = False
        elif roll < p_g2b:
            bad = True
        bits.append(bit)
    return bits


def reference_stream(spec, seed, n, trace):
    """The first ``n`` bits of the channel ``spec`` under ``seed``, and the
    text of the error that stops the stream short of them, or None.  A
    trace is the 0s and 1s of ``trace``'s lines that are not blank."""
    kind = spec["kind"]
    if kind == "bernoulli":
        return reference_bernoulli(spec["p"], seed, n), None
    if kind == "gilbert-elliott":
        keys = ("p_g2b", "p_b2g", "loss_in_bad")
        return reference_gilbert_elliott(*map(spec.get, keys), seed, n), None
    if kind == "none":
        return [1] * n, None
    bits = [int(line) for line in trace.splitlines() if line.strip()]
    if spec.get("wrap"):
        return list(itertools.islice(itertools.cycle(bits), n)), None
    stop = None if n <= len(bits) else (
        f"trace has {len(bits)} entries, step {len(bits)} requested without wrap")
    return bits[:n], stop


class Stream(NamedTuple):
    """One row of ``STREAMS``: the first ``n`` reception bits of the loss
    channel ``LossSpec(**spec)`` built under ``seed``, a trace channel
    reading the file of text ``trace``; and the facts only this row pins,
    each a name of ``FACTS`` and its value."""

    id: str
    spec: dict
    n: int
    seed: int = 0
    trace: Optional[str] = None
    facts: dict = {}


def bursts(bits):
    """The lengths of the runs of lost bits."""
    return [len(list(run)) for bit, run in itertools.groupby(bits) if not bit]


# What a row may pin, each a function of the bits drawn.
FACTS = {
    "prefix": lambda bits: bits[:12],
    "loss rate": lambda bits: bits.count(0) / len(bits),
    "mean burst": lambda bits: sum(bursts(bits)) / len(bursts(bits)),
}

GE = "gilbert-elliott"

# Every stream the tests draw by hand, one row each.
STREAMS = [
    Stream("none", {"kind": "none"}, 100),
    Stream("bernoulli-seed-42", {"kind": "bernoulli", "p": 0.3}, 12, 42,
           facts={"prefix": [1, 0, 0, 0, 1, 1, 1, 0, 1, 0, 0, 1]}),
    Stream("bernoulli-rate", {"kind": "bernoulli", "p": 0.3}, 10_000, 7,
           facts={"loss rate": pytest.approx(0.3, abs=0.05)}),
    *[Stream(f"bernoulli-{p}", {"kind": "bernoulli", "p": p}, 50, facts={"loss rate": p})
      for p in (0.0, 1.0)],
    # a draw equal to p is a reception: seed 0 draws this p first
    Stream("bernoulli-draw-is-p", {"kind": "bernoulli", "p": 0.8444218515250481}, 1,
           facts={"prefix": [1]}),
    # a bad state that never loses, and a good state never left
    Stream("ge-benign", {"kind": GE, "p_g2b": 0.3, "p_b2g": 0.2, "loss_in_bad": 0.0}, 200, 5,
           facts={"loss rate": 0.0}),
    Stream("ge-absorbing", {"kind": GE, "p_g2b": 0.0, "p_b2g": 1.0, "loss_in_bad": 1.0}, 100, 21,
           facts={"loss rate": 0.0}),
    # the stationary loss rate p_g2b / (p_g2b + p_b2g) * loss_in_bad = 0.25
    Stream("ge-rate", {"kind": GE, "p_g2b": 0.1, "p_b2g": 0.3, "loss_in_bad": 1.0}, 20_000, 17,
           facts={"loss rate": pytest.approx(0.25, abs=0.05)}),
    # the mean sojourn in the bad state is 1 / p_b2g = 5 intervals
    Stream("ge-bursts", {"kind": GE, "p_g2b": 0.02, "p_b2g": 0.2, "loss_in_bad": 1.0}, 5_000, 3,
           facts={"mean burst": pytest.approx(6.0, abs=4.0)}),
    Stream("trace-wrap", {"kind": "trace", "wrap": True}, 7, trace="1\n0\n0\n"),
    Stream("trace-blanks", {"kind": "trace", "wrap": True}, 3, trace="1\n\n0\n 1 \n\n",
           facts={"prefix": [1, 0, 1]}),
    Stream("trace-exhausted", {"kind": "trace"}, 3, trace="1\n0\n"),
]


def check_stream(row, directory=None):
    """Hold the first ``row.n`` bits of the row's channel, and the error
    that stops them short, to ``reference_stream``, then to the row's
    facts; a trace file is written into ``directory``."""
    spec = dict(row.spec)
    if row.trace is not None:
        spec["trace_path"] = str(directory / "bits.txt")
        (directory / "bits.txt").write_text(row.trace)
    model, bits, stop = LossSpec(**spec).build(row.seed), [], None
    try:
        for k in range(row.n):
            bits.append(model.sample_reception(k))
    except TraceExhaustedError as exc:
        stop = str(exc)
    assert (bits, stop) == reference_stream(row.spec, row.seed, row.n, row.trace)
    for name, value in row.facts.items():
        assert (name, FACTS[name](bits)) == (name, value)


@pytest.mark.parametrize("row", STREAMS, ids=[row.id for row in STREAMS])
def test_stream(row, tmp_path):
    check_stream(row, tmp_path)


probability = st.floats(min_value=0.0, max_value=1.0)
seeds = st.integers(min_value=-(2**70), max_value=2**70)
lengths = st.integers(min_value=0, max_value=300)


@given(probability, seeds, lengths)
def test_bernoulli_matches_reference(p, seed, n):
    check_stream(Stream("drawn", {"kind": "bernoulli", "p": p}, n, seed))


@given(probability, probability, probability, seeds, lengths)
def test_gilbert_elliott_matches_reference(p_g2b, p_b2g, loss_in_bad, seed, n):
    spec = {"kind": GE, "p_g2b": p_g2b, "p_b2g": p_b2g, "loss_in_bad": loss_in_bad}
    check_stream(Stream("drawn", spec, n, seed))
