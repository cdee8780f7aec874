import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ncsim import LossModel, LossSpec, TraceExhaustedError, read_trace_file


def bernoulli(p, seed=0):
    return LossSpec(kind="bernoulli", p=p).build(seed)


def gilbert_elliott(p_g2b, p_b2g, loss_in_bad, seed=0):
    spec = LossSpec(kind="gilbert-elliott", p_g2b=p_g2b, p_b2g=p_b2g, loss_in_bad=loss_in_bad)
    return spec.build(seed)


def first(model, n):
    return [model.sample_reception(k) for k in range(n)]


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


probability = st.floats(min_value=0.0, max_value=1.0)
seeds = st.integers(min_value=-(2**70), max_value=2**70)
lengths = st.integers(min_value=0, max_value=300)


class TestReferenceStreams:
    @given(probability, seeds, lengths)
    def test_bernoulli_matches_reference(self, p, seed, n):
        assert first(bernoulli(p, seed), n) == reference_bernoulli(p, seed, n)

    @given(probability, probability, probability, seeds, lengths)
    def test_gilbert_elliott_matches_reference(self, p_g2b, p_b2g, loss_in_bad, seed, n):
        model = gilbert_elliott(p_g2b, p_b2g, loss_in_bad, seed)
        assert first(model, n) == reference_gilbert_elliott(p_g2b, p_b2g, loss_in_bad, seed, n)


class TestNoLoss:
    def test_everything_received(self):
        assert first(LossSpec(kind="none").build(), 100) == [1] * 100


class TestBernoulliLoss:
    def test_frozen_prefix_for_seed_42(self):
        assert first(bernoulli(0.3, seed=42), 12) == [1, 0, 0, 0, 1, 1, 1, 0, 1, 0, 0, 1]

    def test_same_seed_same_stream(self):
        assert first(bernoulli(0.25, seed=9), 200) == first(bernoulli(0.25, seed=9), 200)

    def test_different_seeds_differ(self):
        assert first(bernoulli(0.5, seed=1), 64) != first(bernoulli(0.5, seed=2), 64)

    def test_empirical_rate(self):
        losses = 10_000 - sum(first(bernoulli(0.3, seed=7), 10_000))
        assert abs(losses / 10_000 - 0.3) < 0.05

    def test_degenerate_probabilities(self):
        assert first(bernoulli(0.0), 50) == [1] * 50
        assert first(bernoulli(1.0), 50) == [0] * 50


class TestGilbertElliottLoss:
    def test_benign_bad_state_never_loses(self):
        assert first(gilbert_elliott(0.3, 0.2, 0.0, seed=5), 200) == [1] * 200

    def test_same_seed_same_stream(self):
        a = gilbert_elliott(0.1, 0.4, 0.9, seed=13)
        b = gilbert_elliott(0.1, 0.4, 0.9, seed=13)
        assert first(a, 300) == first(b, 300)

    def test_absorbing_good_state(self):
        # never enters the bad state, so the link is clean
        assert first(gilbert_elliott(0.0, 1.0, 1.0, seed=21), 100) == [1] * 100

    def test_empirical_rate_near_stationary(self):
        # stationary loss rate p_g2b / (p_g2b + p_b2g) * loss_in_bad = 0.25
        losses = 20_000 - sum(first(gilbert_elliott(0.1, 0.3, 1.0, seed=17), 20_000))
        assert abs(losses / 20_000 - 0.25) < 0.05

    def test_losses_cluster_in_bursts(self):
        bits = first(gilbert_elliott(0.02, 0.2, 1.0, seed=3), 5_000)
        runs = []
        current = 0
        for b in bits:
            if b == 0:
                current += 1
            elif current:
                runs.append(current)
                current = 0
        if current:
            runs.append(current)
        # mean sojourn in the bad state is 1/p_b2g = 5 intervals
        assert runs
        assert 2.0 < sum(runs) / len(runs) < 10.0


class TestTraceLoss:
    def test_replays_bits(self):
        assert first(LossModel([1, 0, 0, 1]), 4) == [1, 0, 0, 1]

    def test_exhaustion_without_wrap(self):
        model = LossModel([1, 0])
        assert first(model, 2) == [1, 0]
        with pytest.raises(TraceExhaustedError, match="trace has 2 entries, step 2 requested without wrap"):
            model.sample_reception(2)

    def test_wrap_is_modular(self, tmp_path):
        path = tmp_path / "bits.txt"
        path.write_text("1\n0\n0\n")
        model = LossSpec(kind="trace", trace_path=str(path), wrap=True).build()
        assert first(model, 7) == [1, 0, 0, 1, 0, 0, 1]

    def test_rejects_bad_entries(self, tmp_path):
        for name, text in (("bad.txt", "1\n2\n0\n"), ("empty.txt", "")):
            path = tmp_path / name
            path.write_text(text)
            with pytest.raises(ValueError):
                LossSpec(kind="trace", trace_path=str(path))

    def test_spec_without_wrap_is_exhausted(self, tmp_path):
        path = tmp_path / "bits.txt"
        path.write_text("1\n0\n")
        model = LossSpec(kind="trace", trace_path=str(path)).build()
        assert first(model, 2) == [1, 0]
        with pytest.raises(TraceExhaustedError):
            model.sample_reception(2)


class TestReadTraceFile:
    def test_reads_bits_and_skips_blanks(self, tmp_path):
        path = tmp_path / "trace.txt"
        path.write_text("1\n\n0\n 1 \n\n")
        assert read_trace_file(str(path)) == [1, 0, 1]

    def test_bad_line_reports_position(self, tmp_path):
        path = tmp_path / "trace.txt"
        path.write_text("1\n0\nx\n")
        with pytest.raises(ValueError, match=":3:"):
            read_trace_file(str(path))

    def test_empty_rejected(self, tmp_path):
        path = tmp_path / "trace.txt"
        path.write_text("\n\n")
        with pytest.raises(ValueError):
            read_trace_file(str(path))
