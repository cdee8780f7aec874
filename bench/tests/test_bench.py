"""Tests of the benchmark's own logic.

    python3 -m pytest bench/tests -q
"""

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

from core import (  # noqa: E402
    MIN_TAIL,
    PLAN,
    WORKLOADS,
    Tally,
    check_artifacts,
    counters_from_events,
    counters_from_trace,
    fold_spans,
    op_argv,
    percentile,
    seed_order,
    sha256_file,
)
from run import Bench, Layers  # noqa: E402
from tracer import Tracer  # noqa: E402


def test_p90_has_ten_samples_above_it():
    samples = list(range(100, 0, -1))
    p90 = percentile(samples, 90)
    assert p90 == 90
    assert sum(1 for s in samples if s > p90) == MIN_TAIL


def test_p90_refuses_too_few_samples():
    with pytest.raises(ValueError, match="need 10"):
        percentile(range(99), 90)
    assert percentile(range(20), 50) == 9


def test_self_time_subtracts_direct_children_only():
    spans = [
        ("op", 0.0, 10.0, -1),
        ("a", 1.0, 4.0, 0),
        ("b", 2.0, 3.0, 1),
        ("a", 5.0, 9.0, 0),
    ]
    folded = fold_spans(spans)
    assert folded["op"] == [1, 10.0, 3.0]
    assert folded["a"] == [2, 7.0, 6.0]
    assert folded["b"] == [1, 1.0, 1.0]


def test_tracer_records_parent_of_nested_spans():
    tracer = Tracer()
    inner = tracer._spanned("inner", lambda: None)
    outer = tracer._spanned("outer", lambda: inner() or inner())
    tracer.span("op", outer)
    names = [(name, parent) for name, _, _, parent in tracer.spans]
    assert names == [("op", -1), ("outer", 0), ("inner", 1), ("inner", 1)]
    folded = fold_spans(tracer.spans)
    outer_total, outer_self = folded["outer"][1:]
    assert outer_self == pytest.approx(outer_total - folded["inner"][1])


def test_leading_loss_plans_and_replays_the_fallback():
    events = [0, PLAN, 0, 1, PLAN, 1, PLAN, 0, 0, 1, PLAN]
    assert counters_from_events(events) == {
        "intervals": 7, "losses": 4, "longest_burst": 2, "planned": 4, "replayed": 2,
    }


def test_tampered_artifact_counts_as_failed(tmp_path):
    expected = {}
    for name in ("trace.csv", "resolved_config.json"):
        (tmp_path / name).write_text(name)
        expected[name] = sha256_file(tmp_path / name)
    tally = Tally()
    assert tally.record(check_artifacts(tmp_path, expected))
    (tmp_path / "trace.csv").write_text("k,t\n")
    assert not tally.record(check_artifacts(tmp_path, expected))
    assert (tally.attempted, tally.failed, tally.failed_frac) == (2, 1, 0.5)


def test_tampered_pinned_digest_raises_failed_frac(tmp_path):
    bench = Bench(WORKLOADS["run-hold-bursty"], 0, tmp_path, traced=False)
    first = seed_order("run-hold-bursty", 0)[0]
    bench.pinned = dict(bench.pinned)
    bench.pinned[str(first)] = dict(bench.pinned[str(first)], **{"trace.csv": "0" * 64})
    assert bench.op() is None
    assert bench.op() is not None
    assert bench.tally.failed_frac == 0.5
    assert "trace.csv sha256 differs" in bench.tally.reasons[0]


def _traced_run(tmp_path, loss, seed):
    import ncsim.cli

    tracer = Tracer()
    tracer.install()
    argv = op_argv(WORKLOADS["run-buffer-lossless"], seed, tmp_path)
    argv[argv.index("--loss") + 1] = loss
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            assert ncsim.cli.main(argv) == 0
    finally:
        tracer.uninstall()
    return counters_from_events(tracer.events), counters_from_trace(tmp_path / "trace.csv")


@pytest.mark.parametrize(
    "loss, planned, replayed", [("none", 1800, 0), ("bernoulli:0.3", 1280, 361)]
)
def test_wrapper_and_trace_counters_agree(tmp_path, loss, planned, replayed):
    from_events, from_trace = _traced_run(tmp_path, loss, 42)
    assert from_events == from_trace
    assert (from_trace["planned"], from_trace["replayed"]) == (planned, replayed)


def test_tracer_uninstall_restores_the_program():
    import ncsim.losses
    import ncsim.runtime

    before = (ncsim.runtime.integrate_interval, vars(ncsim.losses.LossModel)["sample_reception"])
    tracer = Tracer()
    tracer.install(counting=True)
    assert ncsim.runtime.integrate_interval is not before[0]
    tracer.uninstall()
    after = (ncsim.runtime.integrate_interval, vars(ncsim.losses.LossModel)["sample_reception"])
    assert after == before
    assert tracer.absent == []


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / BENCH.name, ignore=shutil.ignore_patterns("__pycache__", "_work"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{BENCH.name}/run.py", "--workload", "run-hold-bursty",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_metric_names_match_benchmark_json(tmp_path):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workload = WORKLOADS["run-hold-bursty"]
    e2e = Bench.end_to_end(SimpleNamespace(workload=workload), [0.1] * 120, [(0.1, 0.05)] * 20)
    assert list(e2e) == [m["name"] for m in spec["end_to_end"]]
    assert all(unit == m["unit"] for (_, unit), m in zip(e2e.values(), spec["end_to_end"]))

    layers = Layers(workers=1)
    snapshot = {"folded": {"op": [1, 1.0, 1.0]}, "events": [1, 0, 1], "counts": {}, "write_bytes": 0}
    for counting in (True, False):
        layers.add_op((snapshot, []), tmp_path / "no-trace.csv", counting)
    per_layer = layers.metrics(workload, {False: [0.1], True: [0.2]}, 0.05)
    assert list(per_layer) == [m["name"] for m in spec["per_layer"]]
    assert all(unit == m["unit"] for (_, unit), m in zip(per_layer.values(), spec["per_layer"]))
    assert per_layer["losses.loss_frac"][0] == pytest.approx(1 / 3)
