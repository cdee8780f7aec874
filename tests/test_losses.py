import pytest
from hypothesis import given
from hypothesis import strategies as st

from ncsim import (
    BernoulliLoss,
    GilbertElliottLoss,
    NoLoss,
    TraceExhaustedError,
    TraceLoss,
    read_trace_file,
)


class TestNoLoss:
    def test_everything_received(self):
        model = NoLoss()
        assert [model.sample_reception(k) for k in range(100)] == [1] * 100
        assert model.kind == "none"

    def test_negative_step_rejected(self):
        with pytest.raises(ValueError):
            NoLoss().sample_reception(-1)


class TestBernoulliLoss:
    def test_frozen_prefix_for_seed_42(self):
        model = BernoulliLoss(0.3, seed=42)
        bits = [model.sample_reception(k) for k in range(12)]
        assert bits == [1, 0, 0, 0, 1, 1, 1, 0, 1, 0, 0, 1]

    def test_same_seed_same_stream(self):
        a = BernoulliLoss(0.25, seed=9)
        b = BernoulliLoss(0.25, seed=9)
        assert [a.sample_reception(k) for k in range(200)] == [
            b.sample_reception(k) for k in range(200)
        ]

    def test_different_seeds_differ(self):
        a = BernoulliLoss(0.5, seed=1)
        b = BernoulliLoss(0.5, seed=2)
        assert [a.sample_reception(k) for k in range(64)] != [
            b.sample_reception(k) for k in range(64)
        ]

    @given(st.lists(st.integers(min_value=0, max_value=63), max_size=30))
    def test_query_order_does_not_matter(self, order):
        reference = BernoulliLoss(0.4, seed=11)
        expected = [reference.sample_reception(k) for k in range(64)]
        shuffled = BernoulliLoss(0.4, seed=11)
        for k in order:
            assert shuffled.sample_reception(k) == expected[k]

    def test_empirical_rate(self):
        model = BernoulliLoss(0.3, seed=7)
        losses = sum(1 - model.sample_reception(k) for k in range(10_000))
        assert abs(losses / 10_000 - 0.3) < 0.05

    def test_degenerate_probabilities(self):
        never = BernoulliLoss(0.0, seed=0)
        always = BernoulliLoss(1.0, seed=0)
        assert all(never.sample_reception(k) == 1 for k in range(50))
        assert all(always.sample_reception(k) == 0 for k in range(50))

    @pytest.mark.parametrize("p", [-0.1, 1.1])
    def test_rejects_bad_probability(self, p):
        with pytest.raises(ValueError):
            BernoulliLoss(p)


class TestGilbertElliottLoss:
    def test_benign_bad_state_never_loses(self):
        model = GilbertElliottLoss(0.3, 0.2, 0.0, seed=5)
        assert all(model.sample_reception(k) == 1 for k in range(200))

    def test_same_seed_same_stream(self):
        a = GilbertElliottLoss(0.1, 0.4, 0.9, seed=13)
        b = GilbertElliottLoss(0.1, 0.4, 0.9, seed=13)
        assert [a.sample_reception(k) for k in range(300)] == [
            b.sample_reception(k) for k in range(300)
        ]

    def test_stationary_loss_rate_formula(self):
        model = GilbertElliottLoss(0.2, 0.4, 1.0, seed=0)
        assert model.stationary_loss_rate() == pytest.approx(1.0 / 3.0, rel=1e-12)
        half = GilbertElliottLoss(0.2, 0.4, 0.5, seed=0)
        assert half.stationary_loss_rate() == pytest.approx(1.0 / 6.0, rel=1e-12)

    def test_absorbing_good_state(self):
        model = GilbertElliottLoss(0.0, 1.0, 1.0, seed=21)
        # never enters the bad state, so the link is clean
        assert all(model.sample_reception(k) == 1 for k in range(100))

    def test_empirical_rate_near_stationary(self):
        model = GilbertElliottLoss(0.1, 0.3, 1.0, seed=17)
        losses = sum(1 - model.sample_reception(k) for k in range(20_000))
        assert abs(losses / 20_000 - model.stationary_loss_rate()) < 0.05

    def test_losses_cluster_in_bursts(self):
        model = GilbertElliottLoss(0.02, 0.2, 1.0, seed=3)
        bits = [model.sample_reception(k) for k in range(5_000)]
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

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"p_g2b": -0.1},
            {"p_g2b": 1.5},
            {"p_b2g": 2.0},
            {"loss_in_bad": -0.5},
        ],
    )
    def test_rejects_bad_probabilities(self, kwargs):
        base = {"p_g2b": 0.1, "p_b2g": 0.4, "loss_in_bad": 1.0}
        base.update(kwargs)
        with pytest.raises(ValueError):
            GilbertElliottLoss(**base)


class TestTraceLoss:
    def test_replays_bits(self):
        model = TraceLoss([1, 0, 0, 1])
        assert [model.sample_reception(k) for k in range(4)] == [1, 0, 0, 1]

    def test_exhaustion_without_wrap(self):
        model = TraceLoss([1, 0])
        model.sample_reception(1)
        with pytest.raises(TraceExhaustedError):
            model.sample_reception(2)

    def test_wrap_is_modular(self):
        model = TraceLoss([1, 0, 0], wrap=True)
        assert [model.sample_reception(k) for k in range(7)] == [1, 0, 0, 1, 0, 0, 1]

    def test_rejects_bad_entries(self):
        with pytest.raises(ValueError):
            TraceLoss([1, 2, 0])
        with pytest.raises(ValueError):
            TraceLoss([])


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
