"""Benchmark of the ncsim simulator.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

One client in this process runs the workload's ncsim command in a
closed loop: the next operation starts only after the previous one has
finished and its artifacts have been checked against the sha256 pinned
in digests.json.  Set-up is timed apart, in fresh interpreters launched
between operations.  ``--trace 0`` prints the end-to-end metrics; ``--trace 1``
alternates untraced and traced operations and prints the per-layer
metrics.  The last line of standard output is one JSON object.
"""

import argparse
import contextlib
import io
import itertools
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from core import (
    COUNTER_NAMES,
    WORKLOADS,
    Tally,
    check_artifacts,
    counters_from_events,
    counters_from_trace,
    load_digests,
    op_argv,
    percentile,
    seed_order,
)

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

SETUP_LAUNCHES = 20
WARMUP_OPS = 2
MIN_OPS = 100  # op_ms_p90 needs MIN_TAIL samples above it
EXTEND = 1.25  # to reach MIN_OPS, measure at most this many times --seconds
CHILD_TIMEOUT_S = 60


class Bench:
    """Runs, checks and times the operations of one workload."""

    def __init__(self, workload, seed: int, work: Path, traced: bool):
        self.workload = workload
        self.pinned = load_digests()[workload.name]
        self.seeds = itertools.cycle(seed_order(workload.name, seed))
        self.work = work
        self.out = work / "out"
        self.tally = Tally()
        # Fresh interpreters read and write bytecode caches next to the
        # sources, as an installed copy would, whatever the caller's settings.
        self.env = {
            key: value for key, value in os.environ.items()
            if key not in ("PYTHONDONTWRITEBYTECODE", "PYTHONPYCACHEPREFIX")
        }
        pythonpath = [str(SRC), os.environ.get("PYTHONPATH", "")]
        self.env["PYTHONPATH"] = os.pathsep.join(p for p in pythonpath if p)
        self.cli_main = None
        self.tracer = None
        self.layers = None
        self.notes = []
        if not workload.fresh:
            import ncsim.cli

            self.cli_main = ncsim.cli.main
        if traced:
            argv = workload.argv
            self.layers = Layers(int(argv[argv.index("--workers") + 1]) if "--workers" in argv else 1)
            if not workload.fresh:
                from tracer import Tracer

                self.tracer = Tracer()
                self.tracer.cell_dir = work / "cells"

    # -- set-up ------------------------------------------------------------

    def setup_probe(self):
        """Launch-to-first-interval seconds and in-child import seconds, or None."""
        argv = op_argv(self.workload, next(self.seeds), self.out)
        if "--workers" in argv:
            # The serial path reaches the first interval in this process;
            # starting the pool is part of the timed operation.
            argv[argv.index("--workers") + 1] = "1"
        self.out.mkdir(exist_ok=True)
        start = perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(BENCH_DIR / "child.py"), "setup", "--", *argv],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=self.env, cwd=ROOT, text=True,
        )
        line = proc.stdout.readline()
        elapsed = perf_counter() - start
        try:
            _, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            _, err = proc.communicate()
        ok = proc.returncode == 0 and line.startswith("ready ")
        if not self.tally.record([] if ok else [f"set-up exited {proc.returncode}: {err[-300:]}"]):
            return None
        return elapsed, json.loads(line[len("ready "):])["import_s"]

    # -- operations ----------------------------------------------------------

    def _call_cli(self, argv, traced: bool):
        sink = io.StringIO()
        start = perf_counter()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            try:
                if traced:
                    code = self.tracer.span("op", self.cli_main, argv)
                else:
                    code = self.cli_main(argv)
            except SystemExit as exc:
                code = exc.code
            except Exception as exc:  # a crash is one failed operation, not the end of the run
                code = f"{type(exc).__name__}: {exc}"
        return perf_counter() - start, code, sink.getvalue()

    def _call_fresh(self, argv, dump: Path, traced: bool, counting: bool):
        if traced:
            flags = ["--counting"] if counting else []
            cmd = [sys.executable, str(BENCH_DIR / "child.py"), "trace", str(dump), *flags, "--", *argv]
        else:
            cmd = [sys.executable, "-m", "ncsim", *argv]
        start = perf_counter()
        try:
            proc = subprocess.run(
                cmd, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, env=self.env, cwd=ROOT,
                text=True, timeout=CHILD_TIMEOUT_S,
            )
        except subprocess.TimeoutExpired:  # run() has killed and reaped the child
            return perf_counter() - start, "timeout", ""
        elapsed = perf_counter() - start
        code = proc.returncode
        if code == 0 and traced:
            code = json.loads(dump.read_text())["code"]
        return elapsed, code, proc.stderr

    def op(self, traced: bool = False, counting: bool = False):
        """Run, check and time one operation; its seconds, or None if it failed.

        A ``counting`` operation is traced with every call counter on; it
        gives the exact counts and none of the per-layer times.
        """
        traced = traced or counting
        loss_seed = next(self.seeds)
        shutil.rmtree(self.out, ignore_errors=True)
        self.out.mkdir()
        argv = op_argv(self.workload, loss_seed, self.out)
        dump = self.work / "child.json"
        if traced and self.tracer is not None:
            shutil.rmtree(self.tracer.cell_dir, ignore_errors=True)
            self.tracer.cell_dir.mkdir()
            self.tracer.reset()
            self.tracer.install(counting)
        try:
            if self.workload.fresh:
                elapsed, code, message = self._call_fresh(argv, dump, traced, counting)
            else:
                elapsed, code, message = self._call_cli(argv, traced)
        finally:
            if traced and self.tracer is not None:
                self.tracer.uninstall()
        problems = [] if code == 0 else [f"exit {code}: {message.strip()[-300:]}"]
        problems += check_artifacts(self.out, self.pinned[str(loss_seed)])
        if not self.tally.record(problems):
            return None
        if traced:
            self.layers.add_op(self._snapshots(dump), self.out / "trace.csv", counting)
        return elapsed

    def _snapshots(self, dump: Path):
        """Main-process snapshot and the per-cell snapshots of pool workers."""
        if self.workload.fresh:
            data = json.loads(dump.read_text())
            self.layers.absent.update(data["absent"])
            return data, []
        self.layers.absent.update(self.tracer.absent)
        main = self.tracer.snapshot()
        main["task_pickle_bytes"] = self.tracer.task_pickle_bytes
        cells = [json.loads(p.read_text()) for p in sorted(self.tracer.cell_dir.glob("*.json"))]
        return main, cells

    # -- the run -------------------------------------------------------------

    def run(self, seconds: float) -> dict:
        """Warm up, then alternate operations with set-up launches for ``seconds``.

        The set-up launches are spread evenly over the timed phase, so
        that they sample the same machine conditions as the operations.
        """
        self.setup_probe()  # the first launch also compiles bytecode
        for _ in range(WARMUP_OPS):
            self.op()
        if self.layers is not None:
            self.op(counting=True)
        times = {False: [], True: []}
        probes = []
        launches = ops = 0
        start = perf_counter()
        while True:
            elapsed = perf_counter() - start
            if launches < SETUP_LAUNCHES and elapsed >= launches * seconds / SETUP_LAUNCHES:
                launches += 1
                probe = self.setup_probe()
                if probe is not None:
                    probes.append(probe)
                continue
            enough = elapsed >= seconds and (self.layers is not None or len(times[False]) >= MIN_OPS)
            if enough or elapsed >= EXTEND * seconds:
                break
            traced = self.layers is not None and ops % 2 == 1
            ops += 1
            op_s = self.op(traced)
            if op_s is not None:
                times[traced].append(op_s)
        self.measured_s = perf_counter() - start
        self.times = times
        if self.layers is not None:
            import_s = statistics.median(p[1] for p in probes) if probes else 0.0
            return self.layers.metrics(self.workload, times, import_s)
        return self.end_to_end(times[False], probes)

    def end_to_end(self, times, probes) -> dict:
        if not times or not probes:
            raise RuntimeError("no operation or set-up succeeded: " + "; ".join(self.tally.reasons))
        ms = [t * 1000.0 for t in times]
        rss_kb = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        )
        # Only the fast end of each distribution is steady on a shared
        # machine whose CPUs change speed for seconds at a time, so the
        # gated times are minima; the rest is printed.
        n_above = len(ms) - math.ceil(0.9 * len(ms))
        try:
            p90 = f"op_ms_p90 = {percentile(ms, 90):.6g} ms (not gated; {n_above} of {len(ms)} above it)"
        except ValueError as exc:
            p90 = f"op_ms_p90 not reported: {exc}"
        self.notes = [
            f"op_ms_p50 = {statistics.median(ms):.6g} ms (not gated)",
            p90,
            f"intervals_per_s = {len(times) * self.workload.intervals_per_op / sum(times):.6g} 1/s "
            f"(not gated; mean over the timed operations)",
            f"setup_s median = {statistics.median(p[0] for p in probes):.6g} s (not gated)",
        ]
        return {
            "setup_s": (min(p[0] for p in probes), "s"),
            "op_ms_min": (min(ms), "ms"),
            "peak_rss_mb": (rss_kb / 1024.0, "MB"),
        }


class Layers:
    """Per-layer totals over the traced operations of one run.

    Call counts and the loss/buffer counters come from the counting
    operation, the first after warm-up, so they repeat exactly for a
    given --seed.  Times are means per timed traced operation.
    """

    def __init__(self, workers: int):
        self.workers = workers
        self.ops = 0
        self.main = {}  # name -> [calls, total_s, self_s], main process
        self.cells = {}  # the same, summed over pool-worker cells
        self.cell_s = []
        self.exact = None
        self.mismatches = 0
        self.absent = set()

    @staticmethod
    def _merge(into, folded):
        for name, (calls, total, own) in folded.items():
            entry = into.setdefault(name, [0, 0.0, 0.0])
            entry[0] += calls
            entry[1] += total
            entry[2] += own

    def add_op(self, snapshots, trace_csv: Path, counting: bool):
        main, cells = snapshots
        if not counting:
            self.ops += 1
            self._merge(self.main, main["folded"])
            for cell in cells:
                self._merge(self.cells, cell["folded"])
                self.cell_s.extend(cell["cell_s"])
        processes = [main, *cells]
        per_process = [counters_from_events(p["events"]) for p in processes]
        counters = {
            name: sum(c[name] for c in per_process) for name in COUNTER_NAMES if name != "longest_burst"
        }
        counters["longest_burst"] = max(c["longest_burst"] for c in per_process)
        if trace_csv.is_file() and counters != counters_from_trace(trace_csv):
            self.mismatches += 1
        if counting:
            calls = {}
            for p in processes:
                for name, (n, _, _) in p["folded"].items():
                    calls[name] = calls.get(name, 0) + n
                for name, n in p["counts"].items():
                    calls[name] = calls.get(name, 0) + n
            calls.update(counters)
            calls["write_bytes"] = sum(p["write_bytes"] for p in processes)
            calls["task_pickle_bytes"] = main.get("task_pickle_bytes", 0)
            self.exact = calls

    def _self_s(self, name) -> float:
        own = self.main.get(name, [0, 0.0, 0.0])[2] + self.cells.get(name, [0, 0.0, 0.0])[2]
        return own / self.ops

    def _share(self, name) -> float:
        """Self time over the root-span time of the processes it ran in."""
        share = 0.0
        for folded, root in ((self.main, "op"), (self.cells, "runtime.run_scenario")):
            if name in folded and folded.get(root, [0, 0.0])[1] > 0:
                share += folded[name][2] / folded[root][1]
        return share

    def metrics(self, workload, times, import_s) -> dict:
        if self.exact is None or not self.ops or not times[False]:
            raise RuntimeError("the counting, a traced or an untraced operation never succeeded")
        exact = self.exact

        def call(name):
            return exact.get(name, 0)

        per_s = {
            traced: len(t) * workload.intervals_per_op / sum(t) if t else 0.0
            for traced, t in times.items()
        }
        compare_wall = self.main.get("runtime.compare_strategies", [0, 0.0])[1]
        planned = exact["planned"]
        m = {
            "runtime.integrate_interval.calls": (call("runtime.integrate_interval"), "count"),
            "runtime.integrate_interval.self_s": (self._self_s("runtime.integrate_interval"), "s"),
            "runtime.integrate_interval.share": (self._share("runtime.integrate_interval"), "ratio"),
            "plant.drift_calls": (call("plant.drift_calls"), "count"),
            "plant.input_gain_calls": (call("plant.input_gain_calls"), "count"),
            "plant.check_state_calls": (call("plant.check_state_calls"), "count"),
            "predictor.predict_trajectory.calls": (call("predictor.predict_trajectory"), "count"),
            "predictor.predict_trajectory.self_s": (self._self_s("predictor.predict_trajectory"), "s"),
            "predictor.predict_trajectory.share": (self._share("predictor.predict_trajectory"), "ratio"),
            "predictor.trajectories_planned": (planned, "count"),
            "predictor.trajectories_replayed": (exact["replayed"], "count"),
            "predictor.replay_ratio": (exact["replayed"] / planned if planned else 0.0, "ratio"),
            "controller.sontag_input.calls": (call("controller.sontag_input"), "count"),
            "controller.sontag_input.self_s": (self._self_s("controller.sontag_input"), "s"),
            "losses.sample_reception.calls": (call("losses.sample_reception"), "count"),
            "losses.sample_reception.self_s": (self._self_s("losses.sample_reception"), "s"),
            "losses.loss_frac": (exact["losses"] / exact["intervals"] if exact["intervals"] else 0.0, "ratio"),
            "losses.longest_burst": (exact["longest_burst"], "count"),
            "runtime.write_records_csv.self_s": (self._self_s("runtime.write_records_csv"), "s"),
            "runtime.write_records_csv.bytes": (exact["write_bytes"], "bytes"),
            "scenario.scenario_from_dict.self_s": (self._self_s("scenario.scenario_from_dict"), "s"),
            "scenario.apply_overrides.self_s": (self._self_s("scenario.apply_overrides"), "s"),
            "scenario.resolved_json.self_s": (self._self_s("scenario.resolved_json"), "s"),
            "cli.import_s": (import_s, "s"),
            "runtime.compare.cell_s_p50": (statistics.median(self.cell_s) if self.cell_s else 0.0, "s"),
            "runtime.compare.task_pickle_bytes": (exact["task_pickle_bytes"], "bytes"),
            "runtime.compare.pool_efficiency": (
                sum(self.cell_s) / (self.workers * compare_wall) if compare_wall and self.cell_s else 0.0,
                "ratio",
            ),
            "trace.intervals_per_s": (per_s[True], "1/s"),
            "trace.untraced_intervals_per_s": (per_s[False], "1/s"),
            "trace.overhead_intervals_per_s": (per_s[True] - per_s[False], "1/s"),
            "trace.absent_layers": (len(self.absent), "count"),
            "trace.counter_mismatches": (self.mismatches, "count"),
        }
        return m


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "ncsim" / "__init__.py").is_file():
        print(f"error: no ncsim sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    work = BENCH_DIR / "_work" / str(os.getpid())
    work.mkdir(parents=True)
    try:
        bench = Bench(WORKLOADS[args.workload], args.seed, work, traced=bool(args.trace))
        metrics = bench.run(args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):  # another run may still be using it
            work.parent.rmdir()

    tally = bench.tally
    print(
        f"workload {args.workload} seed {args.seed} trace {args.trace}: "
        f"{len(bench.times[False]) + len(bench.times[True])} timed operations in "
        f"{bench.measured_s:.1f} s, one closed-loop client"
    )
    print(f"failed_frac = {tally.failed_frac:.4f} ({tally.failed} of {tally.attempted} operations)")
    for reason in tally.reasons:
        print(f"  failure: {reason}")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    for note in bench.notes:
        print(note)
    if bench.layers is not None and bench.layers.absent:
        print("absent layers: " + ", ".join(sorted(bench.layers.absent)))
    print(f"env: python {platform.python_version()}, nproc {os.cpu_count()}, cpu {_cpu_model()}")
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
