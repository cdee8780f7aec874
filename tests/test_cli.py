import csv
import errno
import functools
import hashlib
import io
import json
import os
import string
import subprocess
import tempfile
import threading
import time
from typing import NamedTuple, Optional

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import ncsim.cli
import ncsim.errors
import ncsim.losses
import ncsim.scenario
from ncsim.cli import (
    EXIT_CALIBRATION,
    EXIT_CONFIG,
    EXIT_DIVERGED,
    EXIT_OK,
    main,
)

from ncsim.runtime import STRATEGIES

from conftest import RUN_KEYS, json_values, run_fresh, small_scenario


@pytest.fixture
def scenario_file(tmp_path, small_scenario_dict):
    def write(overrides=None, name="scenario.json"):
        path = tmp_path / name
        path.write_text(json.dumps(small_scenario_dict(overrides)))
        return str(path)

    return write


def reject_constant(name):
    raise ValueError(f"{name} is not valid JSON")


def read_json(path):
    """An artifact's JSON, which must hold no Infinity or NaN."""
    with open(path) as handle:
        return json.load(handle, parse_constant=reject_constant)


class TestRun:
    def test_writes_all_artifacts(self, scenario_file, tmp_path, capsys):
        out = tmp_path / "out"
        rc = main(["run", scenario_file(), "--out", str(out)])
        assert rc == EXIT_OK
        summary = read_json(out / "summary.json")
        assert summary["strategy"] == "predictive-buffer"
        assert summary["steps"] == 60
        assert summary["loss_count"] == 0
        assert summary["diverged"] is False
        assert summary["j_total"] == summary["j_m_steps"]
        assert 0.0 <= summary["deviation_ratio"] < 1.0
        resolved = read_json(out / "resolved_config.json")
        assert resolved["predictor"]["gamma"] == 0.175
        trace_lines = (out / "trace.csv").read_text().splitlines()
        assert trace_lines[0] == "k,t,x_true,x_pred,s,i,u,J_running"
        assert len(trace_lines) == 61
        assert "predictive-buffer: 60 steps" in capsys.readouterr().out

    def test_strategy_flag_becomes_the_strategy_list(self, scenario_file, tmp_path):
        out = tmp_path / "out"
        rc = main(["run", scenario_file(), "--strategy", "zero-input", "--out", str(out)])
        assert rc == EXIT_OK
        assert read_json(out / "summary.json")["strategy"] == "zero-input"
        assert read_json(out / "resolved_config.json")["strategies"] == ["zero-input"]

    def test_repeat_runs_are_byte_identical(self, scenario_file, tmp_path):
        path = scenario_file({"loss": {"kind": "bernoulli", "p": 0.3, "seed": 8}})
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["run", path, "--out", str(out1)]) == EXIT_OK
        assert main(["run", path, "--out", str(out2)]) == EXIT_OK
        assert (out1 / "trace.csv").read_bytes() == (out2 / "trace.csv").read_bytes()
        assert (out1 / "resolved_config.json").read_bytes() == (
            out2 / "resolved_config.json"
        ).read_bytes()

    def test_resolved_snapshot_reproduces_the_trace(self, scenario_file, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        rc = main(
            [
                "run",
                scenario_file(),
                "--loss",
                "bernoulli:0.3",
                "--seed",
                "9",
                "--out",
                str(out1),
            ]
        )
        assert rc == EXIT_OK
        snapshot = str(out1 / "resolved_config.json")
        assert main(["run", snapshot, "--out", str(out2)]) == EXIT_OK
        assert (out1 / "trace.csv").read_bytes() == (out2 / "trace.csv").read_bytes()
        assert (out1 / "resolved_config.json").read_bytes() == (
            out2 / "resolved_config.json"
        ).read_bytes()

    def test_loss_flag_keeps_configured_seed(self, scenario_file, tmp_path):
        out = tmp_path / "out"
        rc = main(["run", scenario_file(), "--loss", "bernoulli:0.25", "--out", str(out)])
        assert rc == EXIT_OK
        resolved = read_json(out / "resolved_config.json")
        assert resolved["loss"] == {"kind": "bernoulli", "p": 0.25, "seed": 42}

    def test_seed_flag_overrides_loss_seed(self, scenario_file, tmp_path):
        out = tmp_path / "out"
        rc = main(
            [
                "run",
                scenario_file(),
                "--loss",
                "bernoulli:0.25",
                "--seed",
                "7",
                "--out",
                str(out),
            ]
        )
        assert rc == EXIT_OK
        assert read_json(out / "resolved_config.json")["loss"]["seed"] == 7

    def test_gilbert_elliott_alias(self, scenario_file, tmp_path):
        out = tmp_path / "out"
        rc = main(["run", scenario_file(), "--loss", "ge:0.1,0.4,1.0", "--out", str(out)])
        assert rc == EXIT_OK
        resolved = read_json(out / "resolved_config.json")
        assert resolved["loss"]["kind"] == "gilbert-elliott"
        assert resolved["loss"]["p_b2g"] == 0.4

    def test_trace_loss_with_wrap(self, scenario_file, tmp_path):
        bits = tmp_path / "bits.txt"
        bits.write_text("1\n0\n1\n")
        out = tmp_path / "out"
        rc = main(
            ["run", scenario_file(), "--loss", f"trace:{bits}:wrap", "--out", str(out)]
        )
        assert rc == EXIT_OK
        summary = read_json(out / "summary.json")
        assert summary["loss_count"] == 20

    def test_repeated_set_overrides_accumulate(self, scenario_file, tmp_path):
        out = tmp_path / "out"
        rc = main(
            [
                "run",
                scenario_file(),
                "--set",
                "predictor.gamma=0.1",
                "--set",
                "predictor.gamma=0.2",
                "--out",
                str(out),
            ]
        )
        assert rc == EXIT_OK
        assert read_json(out / "resolved_config.json")["predictor"]["gamma"] == 0.2

    def test_output_dir_from_environment(self, scenario_file, tmp_path, monkeypatch):
        target = tmp_path / "from-env"
        monkeypatch.setenv("NCSIM_OUT", str(target))
        monkeypatch.chdir(tmp_path)
        assert main(["run", scenario_file()]) == EXIT_OK
        assert (target / "trace.csv").exists()

    @pytest.mark.parametrize("command", ["run", "compare"])
    def test_seed_flag_folds_into_a_left_out_loss_section(
        self, tmp_path, small_scenario_dict, command
    ):
        doc = small_scenario_dict()
        del doc["loss"]
        bare, given = tmp_path / "bare.json", tmp_path / "given.json"
        bare.write_text(json.dumps(doc))
        given.write_text(json.dumps(dict(doc, loss={"kind": "none", "seed": 3})))
        for path, flags, out in ((bare, ["--seed", "3"], "o1"), (given, [], "o2")):
            assert main([command, str(path), *flags, "--out", str(tmp_path / out)]) == EXIT_OK
        snapshot = (tmp_path / "o1" / "resolved_config.json").read_bytes()
        assert snapshot == (tmp_path / "o2" / "resolved_config.json").read_bytes()
        assert json.loads(snapshot)["loss"] == {"kind": "none", "seed": 3}

    def test_divergence_writes_partial_artifacts(self, scenario_file, tmp_path, capsys):
        path = scenario_file({"predictor.gamma": 0.9})
        out = tmp_path / "out"
        rc = main(["run", path, "--loss", "bernoulli:1", "--out", str(out)])
        assert rc == EXIT_DIVERGED
        # the first loss replays entry 0, the second predicts entry 1 and
        # leaves the domain
        summary = read_json(out / "summary.json")
        assert summary["diverged"] is True
        assert summary["diverged_step"] == 1
        assert summary["reason"] == "prediction left the domain after 1 entries"
        lines = (out / "trace.csv").read_text().splitlines()
        assert lines[0] == "k,t,x_true,x_pred,s,i,u,J_running"
        assert len(lines) == 2
        assert lines[1].startswith("0,0.0,")
        assert "diverged at step 1" in capsys.readouterr().err

    def test_trace_rows_are_written_as_the_run_goes(self, scenario_file, tmp_path, monkeypatch):
        class Stop(Exception):
            pass

        real = ncsim.losses.LossModel.sample_reception

        def stop_at_5(model, k):
            if k == 5:
                raise Stop
            return real(model, k)

        monkeypatch.setattr(ncsim.losses.LossModel, "sample_reception", stop_at_5)
        out = tmp_path / "out"
        with pytest.raises(Stop):
            main(["run", scenario_file(), "--out", str(out)])
        lines = (out / "trace.csv").read_text().splitlines()
        assert [line.split(",")[0] for line in lines] == ["k", "0", "1", "2", "3", "4"]

    def test_controller_overflow_is_a_divergence(self, tmp_path):
        argv = [
            "run", "tank-reference", "--set", "plant.p1=1e308",
            "--set", "sim.duration=20", "--set", "cost.m_steps=10", "--out", str(tmp_path),
        ]
        done = run_fresh(argv, capture_output=True, text=True, check=False)
        assert done.returncode == EXIT_DIVERGED
        assert "feedback overflowed" in done.stderr
        assert "Traceback" not in done.stderr

    def test_controller_overflow_is_a_diverged_compare_cell(self, tmp_path):
        argv = [
            "compare", "tank-reference", "--set", "plant.p1=1e308", "--set", "sim.duration=20",
            "--set", "cost.m_steps=10", "--seeds", "1", "--out", str(tmp_path),
        ]
        assert main(argv) == EXIT_OK
        summary = read_json(tmp_path / "summary.json")
        assert all(count == 1 for count in summary["diverged"].values())

    def test_cost_overflow_is_a_divergence(self, tmp_path, capsys):
        argv = [
            "run", "tank-reference", "--loss", "bernoulli:0.3", "--set", "sim.duration=20",
            "--set", "cost.m_steps=10", "--set", "cost.q_c=1e308", "--out", str(tmp_path),
        ]
        assert main(argv) == EXIT_DIVERGED
        summary = read_json(tmp_path / "summary.json")
        assert summary["diverged"] is True
        assert summary["reason"].startswith("running cost became non-finite")
        assert f"diverged at step {summary['diverged_step']}" in capsys.readouterr().err

    def test_cost_overflow_is_a_diverged_compare_cell(self, tmp_path):
        argv = [
            "compare", "tank-reference", "--loss", "bernoulli:0.3", "--set", "sim.duration=20",
            "--set", "cost.m_steps=10", "--set", "cost.r_c=1e308", "--seeds", "2",
            "--out", str(tmp_path),
        ]
        assert main(argv) == EXIT_OK
        summary = read_json(tmp_path / "summary.json")
        assert summary["diverged"] == {name: 2 for name in summary["strategies"]}
        assert summary["median_j"] == {name: None for name in summary["strategies"]}
        rows = (tmp_path / "comparison.csv").read_text().splitlines()[1:]
        assert [row.split(",")[1:] for row in rows] == [[""] * 3] * 2

    def test_deviation_ratio_past_float_range_is_null(self, scenario_file, tmp_path):
        # x0 lies 1e-310 from the setpoint, and theta drives x up to about 0.09
        path = scenario_file({
            "plant.p1": 1.0, "plant.p2": 0.0, "plant.domain_margin": 0.0, "plant.vol": 1.0,
            "controller.setpoint": 2e-310, "sim.x0": 1e-310, "sim.theta": 40.3,
            "sim.duration": 20.0, "cost.m_steps": 10, "strategies": ["zero-input"],
        })
        assert main(["run", path, "--out", str(tmp_path / "o")]) == EXIT_OK
        summary = read_json(tmp_path / "o" / "summary.json")
        assert summary["x_final"] > 0.01
        assert summary["deviation_ratio"] is None

    @pytest.mark.parametrize("flag", ["--doubled-age-offset", "--cost-raw-state"])
    def test_removed_flags_are_usage_errors(self, tmp_path, flag):
        # the keys are set with --set sim.doubled_age_offset=true or cost.raw_state=true
        with pytest.raises(SystemExit) as excinfo:
            main(["run", "tank-reference", flag, "--out", str(tmp_path)])
        assert excinfo.value.code == 2


class TestParserReuse:
    """``main`` builds one parser per process, and a call's flags do not
    reach the next call."""

    def test_flags_do_not_outlive_their_call(self, tmp_path, monkeypatch, capsys):
        build, built = ncsim.cli.build_parser, []

        def counting():
            built.append(build())
            return built[-1]

        monkeypatch.setattr(ncsim.cli, "build_parser", counting)
        monkeypatch.setattr(ncsim.cli, "_parser", None)
        flagged, plain, fresh = (tmp_path / name for name in ("flagged", "plain", "fresh"))
        assert main([
            "run", "tank-reference", "--set", "sim.duration=20", "--set", "cost.m_steps=10",
            "--loss", "bernoulli:0.3", "--seed", "7", "--strategy", "hold-last-value",
            "--out", str(flagged),
        ]) == EXIT_OK
        assert main(["run", "tank-reference", "--out", str(plain)]) == EXIT_OK
        run_fresh(["run", "tank-reference", "--out", str(fresh)], capture_output=True, check=True)
        snapshot = "resolved_config.json"
        assert (plain / snapshot).read_bytes() == (fresh / snapshot).read_bytes()
        assert (flagged / snapshot).read_bytes() != (plain / snapshot).read_bytes()
        for argv, code in ((["run", "--help"], 0), (["run"], 2), (["run", "--help"], 0)):
            with pytest.raises(SystemExit) as excinfo:
                main(argv)
            assert excinfo.value.code == code
        assert len(built) == 1


SHORT_RUN = [
    "tank-reference", "--loss", "bernoulli:0.3", "--set", "sim.duration=20",
    "--set", "cost.m_steps=10",
]


def artifacts(out):
    """Each file in the directory ``out`` by name: its bytes."""
    return {path.name: path.read_bytes() for path in out.iterdir()} if out.exists() else {}


def buffered_env(**extra):
    """``os.environ`` without ``PYTHONUNBUFFERED``, plus ``extra``: a child's
    stdout sent to a file or a pipe is then block-buffered."""
    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    return dict(env, **extra)


class TestFreshExit:
    """``python -m ncsim`` runs ``ncsim.cli.entry``: once ``main`` returns it
    flushes standard output and error and ends in ``os._exit``, skipping
    the interpreter's teardown.  A fresh process prints and writes exactly
    what an in-process ``main`` does, and a closed stdout is one line on
    stderr and exit status 1."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["run", "tank-reference", "--loss", "bernoulli:0.3", "--seed", "3", "--out", "out"],
            ["compare", *SHORT_RUN, "--seeds", "2", "--workers", "2", "--out", "out"],
            ["--help"],
            ["run", "--bogus"],
        ],
        ids=["run", "compare", "help", "usage-error"],
    )
    def test_fresh_process_matches_main(self, tmp_path, monkeypatch, capsys, argv):
        # the help text is wrapped to the same width in both
        monkeypatch.setenv("COLUMNS", "80")
        here, fresh = tmp_path / "main", tmp_path / "fresh"
        here.mkdir()
        fresh.mkdir()
        monkeypatch.chdir(here)
        try:
            code = main(argv)
        except SystemExit as exc:  # --help exits 0, a usage error 2
            code = exc.code
        want = capsys.readouterr()
        assert want.out + want.err

        # stdout goes to a file without PYTHONUNBUFFERED, so only the flush
        # before the exit writes it
        with open(fresh / "stdout", "w") as out, open(fresh / "stderr", "w") as err:
            done = run_fresh(
                argv, env=buffered_env(COLUMNS="80"), cwd=fresh, stdout=out, stderr=err,
                timeout=60,
            )
        assert done.returncode == code
        assert (fresh / "stdout").read_text() == want.out
        assert (fresh / "stderr").read_text() == want.err
        assert artifacts(fresh / "out") == artifacts(here / "out")

    @pytest.mark.parametrize("unbuffered", [True, False], ids=["unbuffered", "buffered"])
    @pytest.mark.parametrize(
        "argv", [["run", *SHORT_RUN], ["compare", *SHORT_RUN, "--seeds", "2", "--workers", "2"]],
        ids=["run", "compare"],
    )
    def test_closed_stdout_is_one_line_and_exit_1(self, tmp_path, argv, unbuffered):
        env = buffered_env(PYTHONUNBUFFERED="1") if unbuffered else buffered_env()
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            done = run_fresh(
                [*argv, "--out", str(tmp_path / "fresh")], env=env, stdout=write_end,
                stderr=subprocess.PIPE, text=True, timeout=60,
            )
        finally:
            os.close(write_end)
        assert done.stderr == "ncsim: cannot write standard output: Broken pipe\n"
        assert done.returncode == 1
        # every artifact was complete before the first print
        assert main([*argv, "--out", str(tmp_path / "main")]) == EXIT_OK
        assert artifacts(tmp_path / "fresh") == artifacts(tmp_path / "main")


class TestInputFiles:
    def test_compare_reads_the_trace_once(self, scenario_file, tmp_path, monkeypatch):
        reads = []
        read = ncsim.losses.read_trace_file

        def counting_read(path):
            reads.append(path)
            return read(path)

        monkeypatch.setattr(ncsim.losses, "read_trace_file", counting_read)
        trace = tmp_path / "bits.txt"
        trace.write_text("1\n0\n1\n")
        argv = ["compare", scenario_file(), "--loss", f"trace:{trace}:wrap", "--out", str(tmp_path / "o")]
        assert main(argv) == EXIT_OK
        assert reads == [str(trace)]


def scenario_text(*drop):
    """The JSON text of ``small_scenario()`` without the dotted keys ``drop``."""
    doc = small_scenario()
    for path in drop:
        *section, key = path.split(".")
        del (doc[section[0]] if section else doc)[key]
    return json.dumps(doc)


def csv_rows(text):
    return list(csv.reader(io.StringIO(text, newline="")))


class Rejected(NamedTuple):
    """An input a command rejects with exit 2.

    ``argv`` and ``stderr`` write ``$tmp`` for a fresh directory, ``$name``
    for each file ``name`` of ``files`` in it, ``$out`` for the output
    directory ``out`` in it (passed as ``--out``), and ``$reason`` for the
    text of the error, or else of the result, of the standard-library call
    ``reason``, ``(function, *args)``.  A file holds text, bytes, a count
    of zero bytes, or is a directory (None).  ``artifacts`` are the names
    the command adds to ``$out``, None where ``$out`` must not exist, and
    ``after_run`` marks a check that can fail only once the run started.
    """

    id: str
    argv: list
    stderr: str
    files: dict = {}
    stdout: str = ""
    artifacts: Optional[tuple] = None
    after_run: bool = False
    reason: tuple = ()
    out: str = "out"


ENDLESS = "/dev/zero"
CAP = ncsim.errors.MAX_INPUT_BYTES
# nested past the recursion limit on every tested Python: 3.13 decodes
# JSON to about 10 000 levels, earlier versions to about 1000
DEEP = "[" * 20_000 + "]" * 20_000
LATIN1 = '{"plant": "é"}'.encode("latin-1")
HEADER = "pair_id,predicted,measured\n"
SCENARIO = {"scenario": scenario_text()}
SAMPLES = {"samples": HEADER + "a,1.0,1.1\na,2.0,2.1\nb,1.5,1.4\n"}
RUN, COMPARE = ["run", "$scenario"], ["compare", "$scenario"]
ONE_SEED, CALIBRATE = [*COMPARE, "--seeds", "1"], ["calibrate", "$samples", "--apply-to", "$scenario"]
NOT_AN_OBJECT = "config error: scenario file '$scenario' must hold a JSON object\n"

# Every input a command rejects, one row each; a rejected input is added as
# one row.  Only config rules stay in tests/test_scenario.py's RULES.
REJECTED = [
    # a trace shorter than the run that does not wrap, at any worker count
    *[Rejected(name, [*argv, "--loss", "trace:$bits"],
               "config error: loss.trace_path '$bits' holds 3 bits, fewer than the 60 steps of "
               "sim.duration 120.0, and loss.wrap is false\n", {**SCENARIO, "bits": "1\n0\n1\n"})
      for name, argv in (
          ("run-short-trace", RUN), ("compare-short-trace", COMPARE),
          *((f"compare-short-trace-workers-{workers}",
             [*COMPARE, "--strategies", "hold-last-value,zero-input", "--workers", workers])
            for workers in "12"),
      )],
    *[Rejected(f"{argv[0]}-trace-{name}", [*argv, "--loss", "trace:$tmp/bits"],
               f"config error: loss.trace_path '$tmp/bits' is not a readable trace: {tail}\n",
               {**SCENARIO, **files}, reason=reason)
      for argv in (RUN, COMPARE) for name, files, tail, reason in (
          ("missing", {}, "$reason", (open, "$tmp/bits")),
          ("two", {"bits": "1\n2\n"}, "$tmp/bits:2: expected 0 or 1, got '2'", ()),
          ("0xff", {"bits": b"\xff\n"}, "$reason", (bytes.decode, b"\xff\n")),
          ("empty", {"bits": ""}, "no trace entries in $tmp/bits", ()),
      )],
    Rejected("unknown-scenario", ["run", "no-such-scenario"],
             "config error: scenario 'no-such-scenario' is neither a built-in (tank-reference) "
             "nor an existing file\n"),
    Rejected("missing-scenario-file", ["run", "$tmp/absent.json"],
             "config error: scenario '$tmp/absent.json' is neither a built-in (tank-reference) "
             "nor an existing file\n"),
    Rejected("directory-as-scenario", ["run", "$tmp"],
             "config error: cannot read scenario file '$tmp': $reason\n", reason=(open, "$tmp")),
    *[Rejected(f"scenario-{name}", RUN,
               f"config error: scenario file '$scenario' is not valid JSON: $reason\n",
               {"scenario": text}, reason=(decode, text))
      for name, text, decode in (("invalid-json", "{not json", json.loads),
                                 ("latin-1", LATIN1, bytes.decode), ("deep", DEEP, json.loads))],
    *[Rejected(f"{name}-{kind}", argv, NOT_AN_OBJECT, {"scenario": text, **SAMPLES})
      for kind, text in (("list", "[1, 2]"), ("string", '"plant"'), ("number", "3"),
                         ("null", "null"))
      for name, argv in (("loss-flag", [*RUN, "--loss", "none"]),
                         ("set-flag", [*RUN, "--set", "loss=1"]), ("apply-to", CALIBRATE))],
    # --apply-to is read and parsed before the calibration verdict, so a bad
    # one exits 2 with nothing on stdout, where gamma is out of range too
    *[Rejected(f"apply-to-{name}{suffix}", ["calibrate", samples, "--apply-to", ref], stderr,
               {"scenario": scenario_text("cost.q_c"), **SAMPLES, "far": HEADER + "a,0.1,5.0\n"})
      for samples, suffix in (("$samples", ""), ("$far", "-gamma-out-of-range"))
      for name, ref, stderr in (
          ("missing", "$tmp/absent.json", "config error: scenario '$tmp/absent.json' is neither a "
           "built-in (tank-reference) nor an existing file\n"),
          ("missing-key", "$scenario", "config error: missing required key cost.q_c\n"),
      )],
    *[Rejected(f"missing-{key}", RUN, f"config error: missing required key {key}\n",
               {"scenario": scenario_text(key)}) for key in ("cost.q_c", "predictor")],
    *[Rejected(f"{argv[0]}-set-into-a-left-out-loss", [*argv, "--set", "loss.p=0.3"],
               "config error: unknown key loss.p\n", {"scenario": scenario_text("loss")})
      for argv in (RUN, COMPARE)],
    Rejected("override-path", [*RUN, "--set", "nope.key=1"],
             "config error: override path 'nope.key' does not reach a config section\n", SCENARIO),
    Rejected("deep-override", ["run", "tank-reference", "--set", f"sim.theta={DEEP}"],
             "config error: override 'sim.theta' nests its value too deeply\n"),
    *[Rejected(f"loss-{spec}", [*RUN, "--loss", spec], f"config error: {message}\n", SCENARIO)
      for spec, message in (
          ("bogus:1", "unknown loss kind 'bogus' in --loss 'bogus:1'"),
          ("bernoulli:xyz", "--loss bernoulli parameters must be numbers: 'bernoulli:xyz'"),
          ("ge:0.1,0.4", "--loss gilbert-elliott takes p_g2b,p_b2g,loss_in_bad, got 'ge:0.1,0.4'"),
          ("none:0", "--loss none takes no arguments, got 'none:0'"),
          ("bernoulli:1.5", "loss.p must lie in [0, 1], got 1.5"),
          ("bernoulli:nan", "loss.p must be finite, got nan"),
          ("ge:0.1,2,0.5", "loss.p_b2g must lie in [0, 1], got 2.0"),
          ("trace:", "--loss trace needs a file path, got 'trace:'"),
      )],
    # each input file is read through the size cap: an endless one, and a
    # regular one a byte too long
    *[Rejected(f"{name}-{source}", argv,
               f"config error: {prefix}input file '{path}' is longer than {CAP} bytes\n",
               {**files, **SAMPLES}, stdout)
      for source, path, files in (("endless", ENDLESS, {}), ("long", "$long", {"long": CAP + 1}))
      for name, argv, prefix, stdout in (
          ("scenario", ["run", path], "", ""),
          *((f"{command}-trace", [command, "tank-reference", "--loss", f"trace:{path}"],
             f"loss.trace_path '{path}' is not a readable trace: ", "")
            for command in ("run", "compare")),
          ("samples", ["calibrate", path], f"cannot load samples from '{path}': ", ""),
          ("apply-to", ["calibrate", "--apply-to", path, "$samples"], "", ""),
      )],
    # an artifact that cannot be written, a directory in its way
    *[Rejected(f"{argv[0]}-{artifact}-in-the-way", argv,
               f"config error: cannot write '$out/{artifact}': $reason\n",
               {**SCENARIO, **SAMPLES, f"out/{artifact}": None}, stdout, artifacts, after_run,
               (open, f"$out/{artifact}", "w"))
      for argv, stdout, artifact, artifacts, after_run in (
          (RUN, "", "resolved_config.json", (), False),
          (RUN, "", "trace.csv", ("resolved_config.json",), False),
          (RUN, "", "summary.json", ("resolved_config.json", "trace.csv"), True),
          (ONE_SEED, "", "resolved_config.json", (), False),
          (ONE_SEED, "", "comparison.csv", ("resolved_config.json",), True),
          (CALIBRATE, "", "calibrated_config.json", (), False),
      )],
    *[Rejected(f"{argv[0]}-file-in-the-way-of-out", argv,
               "config error: cannot create output directory '$out': $reason\n",
               {**SCENARIO, **SAMPLES, "file": ""}, stdout, reason=(os.makedirs, "$out"),
               out="file/o")
      for argv, stdout in ((RUN, ""), (ONE_SEED, ""), (CALIBRATE, ""))],
    # random.Random(-1) draws seed 1's stream, so seeds -1, 0 and 1 would
    # count one loss realization twice
    Rejected("negative-seed", [*COMPARE, "--loss", "bernoulli:0.3", "--seed", "-1", "--seeds", "3"],
             "config error: loss.seed must be non-negative, got -1\n", SCENARIO),
    # without the caps the cell list alone would exhaust memory
    *[Rejected(f"seeds-{seeds}", [*COMPARE, "--seeds", seeds],
               f"config error: --seeds must lie in [1, 10000], got {seeds}\n", SCENARIO)
      for seeds in ("0", "10001", "1000000000000")],
    *[Rejected(f"workers-{workers}", [*COMPARE, "--seeds", "10000", "--workers", workers],
               f"config error: --workers must lie in [1, 64], got {workers}\n", SCENARIO)
      for workers in ("0", "65", "1000000")],
    *[Rejected(f"strategies-{spec!r}", [*COMPARE, "--strategies", spec],
               f"config error: --strategies{message}\n", SCENARIO)
      for spec, message in (
          *((name, f": unknown strategy {name!r}, expected one of {STRATEGIES}")
            for name in ("nope", "teleport")),
          ("zero-input,zero-input", " must be unique"),
          (",", " must be non-empty"),
          (" , ", " must be non-empty"),
      )],
    Rejected("degenerate-samples", ["calibrate", "$samples"],
             "config error: samples are degenerate: mean predicted state is zero\n",
             {"samples": HEADER + "a,1.0,1.0\na,-1.0,1.0\n"}),
    *[Rejected(f"samples-{name}", ["calibrate", "$samples", "--clamp-gamma", "--apply-to",
                                   "tank-reference"],
               f"config error: samples are degenerate: {message}\n", {"samples": HEADER + row},
               reason=reason)
      for name, row, message, reason in (
          # the C library's text for ERANGE, which x ** 2 raises past float range
          ("overflow", "a,1e200,-1e200\n", "$reason", (os.strerror, errno.ERANGE)),
          ("infinite", "a,1e308,-1e308\n", "E inf, grand means 1e+308, -1e+308, gamma -inf", ()),
      )],
    Rejected("missing-samples", ["calibrate", "$tmp/absent.csv"],
             "config error: cannot load samples from '$tmp/absent.csv': $reason\n",
             reason=(open, "$tmp/absent.csv")),
    # a field past csv.field_size_limit() (131 072 characters) is a csv.Error;
    # a bad sample is named by line and column, and a long field is cut to
    # its first 40 characters and its length
    *[Rejected(f"samples-{name}", ["calibrate", "$samples"],
               f"config error: cannot load samples from '$samples': {message}\n",
               {"samples": text}, reason=(csv_rows, text) if "$reason" in message else ())
      for name, text, message in (
          ("wide-row", HEADER + "a," + "1" * 200_000 + ",1\n", "malformed CSV: $reason"),
          ("wide-header", "pair_id,predicted," + "m" * 200_000 + "\na,1,1\n",
           "malformed CSV: $reason"),
          ("long-row", HEADER + "a,1,1\nb," + "x" * 100_000 + ",1\n",
           f"bad sample on line 3, column predicted: '{'x' * 40}'... (100000 characters)"),
          ("short-row", HEADER + "a,1,1\nb,1\n", "bad sample on line 3, column measured: nothing"),
          ("long-header", "pair_id,predicted," + "m" * 100_000 + "\na,1,1\n",
           "sample file must have columns pair_id,predicted,measured, got "
           f"'pair_id,predicted,{'m' * 22}'... (100018 characters)"),
          *((value, f"{HEADER}a,{value},1\n", f"bad sample on line 2, column predicted: {value!r}")
            for value in ("nan", "inf", "1e999")),
      )],
]


def ran(name, *args, **kwargs):
    raise AssertionError(f"{name} ran for an input rejected before the run")


@pytest.mark.parametrize("row", REJECTED, ids=[row.id for row in REJECTED])
def test_rejected_input(tmp_path, monkeypatch, capsys, row):
    """The row's command exits 2 with exactly the row's stdout and stderr,
    adds exactly the row's artifacts to ``$out`` and leaves no child
    process; a row rejected before the run calls neither ``run_scenario``
    nor ``compare_strategies``."""
    paths = {"tmp": str(tmp_path), "out": str(tmp_path / row.out)}
    for name, content in row.files.items():
        path = paths[name] = tmp_path / name
        path.parent.mkdir(parents=True, exist_ok=True)
        if content is None:
            path.mkdir()
        elif isinstance(content, int):
            with open(path, "wb") as handle:
                handle.truncate(content)
        else:
            path.write_bytes(content if isinstance(content, bytes) else content.encode())

    def fill(arg):
        return string.Template(arg).substitute(paths) if isinstance(arg, str) else arg

    out = paths["out"]
    present = set(os.listdir(out)) if os.path.isdir(out) else set()
    if not row.after_run:
        for name in ("run_scenario", "compare_strategies"):
            monkeypatch.setattr(ncsim.cli, name, functools.partial(ran, name))
    assert main([*map(fill, row.argv), "--out", out]) == EXIT_CONFIG
    if row.reason:
        function, *args = map(fill, row.reason)
        try:
            paths["reason"] = str(function(*args))
        except Exception as exc:
            paths["reason"] = str(exc)
    assert capsys.readouterr() == (row.stdout, fill(row.stderr))
    if row.artifacts is None:
        assert not os.path.exists(out)
    else:
        assert set(os.listdir(out)) - present == set(row.artifacts)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs os.mkfifo")
class TestFifoInputs:
    """A FIFO with no writer reads as empty, so it exits 2 instead of
    leaving the command waiting in ``open`` for a writer."""

    @pytest.mark.parametrize(
        "argv",
        [["run", "{fifo}"], ["run", "tank-reference", "--loss", "trace:{fifo}"],
         ["calibrate", "{fifo}"]],
        ids=["scenario", "trace", "samples"],
    )
    def test_fifo_without_writer_exits_2(self, tmp_path, argv):
        fifo = tmp_path / "fifo"
        os.mkfifo(fifo)
        done = run_fresh(
            [*(arg.format(fifo=fifo) for arg in argv), "--out", str(tmp_path / "o")],
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert done.returncode == EXIT_CONFIG, done.stderr
        assert str(fifo) in done.stderr
        assert "Traceback" not in done.stderr

    @pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
    def test_pipe_with_a_writer_is_read_to_its_end(self):
        read_end, write_end = os.pipe()

        def write_late():
            time.sleep(0.2)
            os.write(write_end, b"1\n0\n")
            os.close(write_end)

        writer = threading.Thread(target=write_late)
        writer.start()
        try:
            # the read waits for the writer instead of returning early
            assert ncsim.errors.read_input(f"/dev/fd/{read_end}") == "1\n0\n"
        finally:
            writer.join()
            os.close(read_end)


class TestReadInput:
    def test_cap_is_inclusive(self, tmp_path, monkeypatch):
        monkeypatch.setattr(ncsim.errors, "MAX_INPUT_BYTES", 8)
        path = tmp_path / "f"
        path.write_bytes(b"12345678")
        assert ncsim.errors.read_input(str(path)) == "12345678"
        path.write_bytes(b"123456789")
        with pytest.raises(ncsim.errors.ConfigError, match="longer than 8 bytes"):
            ncsim.errors.read_input(str(path))

    def test_size_is_checked_before_decoding(self, tmp_path, monkeypatch):
        monkeypatch.setattr(ncsim.errors, "MAX_INPUT_BYTES", 4)
        path = tmp_path / "f"
        path.write_bytes(b"\xff" * 5)
        with pytest.raises(ncsim.errors.ConfigError, match="longer than 4 bytes"):
            ncsim.errors.read_input(str(path))
        path.write_bytes(b"\xff" * 4)
        with pytest.raises(UnicodeDecodeError):
            ncsim.errors.read_input(str(path))

    def test_trace_lines_keep_their_numbers(self, tmp_path):
        path = tmp_path / "bits.txt"
        path.write_bytes(b"1\r\n0\r\n\n1\r2\n")
        with pytest.raises(ValueError, match=r":5: expected 0 or 1, got '2'"):
            ncsim.losses.read_trace_file(str(path))


class TestCompare:
    def test_writes_table_and_summary(self, scenario_file, tmp_path, capsys):
        out = tmp_path / "out"
        rc = main(
            [
                "compare",
                scenario_file({"loss": {"kind": "bernoulli", "p": 0.3, "seed": 5}}),
                "--seeds",
                "2",
                "--out",
                str(out),
            ]
        )
        assert rc == EXIT_OK
        lines = (out / "comparison.csv").read_text().splitlines()
        assert lines[0] == "seed,predictive-buffer,hold-last-value,zero-input"
        assert len(lines) == 3
        assert lines[1].startswith("5,")
        assert lines[2].startswith("6,")
        summary = read_json(out / "summary.json")
        assert summary["seeds"] == [5, 6]
        assert set(summary["median_j"]) == set(summary["diverged"])
        assert "hold-last-value" in summary["wins"]["predictive-buffer"]
        stdout = capsys.readouterr().out
        assert "median_j" in stdout
        assert "wins" in stdout

    def test_subset_and_worker_parity(self, scenario_file, tmp_path):
        path = scenario_file({"loss": {"kind": "bernoulli", "p": 0.3, "seed": 5}})
        out1, out2 = tmp_path / "a", tmp_path / "b"
        base = [
            "compare",
            path,
            "--strategies",
            "hold-last-value,zero-input",
            "--seeds",
            "2",
        ]
        assert main(base + ["--workers", "1", "--out", str(out1)]) == EXIT_OK
        assert main(base + ["--workers", "2", "--out", str(out2)]) == EXIT_OK
        table1 = (out1 / "comparison.csv").read_bytes()
        assert table1 == (out2 / "comparison.csv").read_bytes()
        assert table1.decode().splitlines()[0] == "seed,hold-last-value,zero-input"

    def test_seedless_channel_runs_one_seed(self, scenario_file, tmp_path, capsys):
        bits = tmp_path / "bits.txt"
        bits.write_text("1\n0\n1\n")
        # a trace channel, and the scenario's own lossless channel (seed 42)
        for name, loss_flag, seed in (
            ("trace", ["--loss", f"trace:{bits}:wrap"], 0),
            ("none", [], 42),
        ):
            out = tmp_path / name
            rc = main(
                [
                    "compare",
                    scenario_file(),
                    *loss_flag,
                    "--strategies",
                    "hold-last-value,zero-input",
                    "--seeds",
                    "3",
                    "--out",
                    str(out),
                ]
            )
            assert rc == EXIT_OK
            lines = (out / "comparison.csv").read_text().splitlines()
            assert len(lines) == 2
            assert lines[1].startswith(f"{seed},")
            assert read_json(out / "summary.json")["seeds"] == [seed]
            err = capsys.readouterr().err
            assert err.count("\n") == 1
            assert "ignores the seed" in err


def write_samples(tmp_path, rows, name="samples.csv"):
    path = tmp_path / name
    path.write_text("pair_id,predicted,measured\n" + "".join(rows))
    return str(path)


class TestCalibrate:
    def test_single_recording_output(self, tmp_path, capsys):
        path = write_samples(tmp_path, ["a,1.0,1.5\n", "a,1.0,1.5\n"])
        rc = main(["calibrate", path])
        assert rc == EXIT_OK
        out = capsys.readouterr().out
        assert "method: one" in out
        assert "E: 0.25" in out
        assert "zeta: +1" in out
        assert "gamma: 0.25" in out
        assert "in_range: true" in out

    def test_overestimate_flips_sign(self, tmp_path, capsys):
        path = write_samples(tmp_path, ["a,2.0,1.0\n", "a,2.0,1.0\n"])
        assert main(["calibrate", path]) == EXIT_OK
        out = capsys.readouterr().out
        assert "zeta: -1" in out
        assert "gamma: -0.5" in out

    def test_two_recording_method(self, tmp_path, capsys):
        path = write_samples(
            tmp_path,
            ["a,1.0,1.5\n", "a,1.0,1.5\n", "b,3.0,3.1\n", "b,3.0,3.1\n"],
        )
        rc = main(["calibrate", path, "--method", "two"])
        assert rc == EXIT_OK
        out = capsys.readouterr().out
        assert "method: two" in out
        assert "E_0: 0.25" in out
        assert "E_1: " in out
        assert "gamma: 0.065" in out

    # Three pairs of 3, 2 and 4 samples near 1e5, interleaved: every printed
    # statistic and the snapshot's bytes are pinned for both methods.
    PINNED_ROWS = [
        "a,150000.0,150120.5\n", "b,98000.25,97950.0\n", "a,150310.75,150402.0\n",
        "c,120500.0,120530.125\n", "b,98100.5,98010.75\n", "a,150620.125,150790.0\n",
        "c,120610.5,120660.25\n", "c,120720.0,120701.5\n", "c,120830.75,120905.0\n",
    ]
    PINNED = {
        "one": (
            "method: one\n"
            "E: 7946.927083333333\n"
            "zeta: +1\n"
            "gamma: 0.06331131702499229\n"
            "in_range: true\n",
            "ec88dd84b5daa05d670dc5e3731cb5af28a1bf90bf545dc35152fe86bece23ef",
        ),
        "two": (
            "method: two\n"
            "E_0: 17234.776041666668\n"
            "E_1: 5290.0625\n"
            "E_2: 2309.47265625\n"
            "E: 8278.103732638889\n"
            "zeta: +1\n"
            "gamma: 0.06729691837414112\n"
            "in_range: true\n",
            "ca6397de09fe52f6677d4a7a6527582cb1096906934daff43ca637a1e4e340ee",
        ),
    }

    @pytest.mark.parametrize("method", ["one", "two"])
    def test_output_is_pinned(self, tmp_path, capsys, method):
        samples = write_samples(tmp_path, self.PINNED_ROWS)
        out = tmp_path / "out"
        argv = ["calibrate", samples, "--method", method, "--apply-to", "tank-reference",
                "--out", str(out)]
        assert main(argv) == EXIT_OK
        stdout, digest = self.PINNED[method]
        path = out / "calibrated_config.json"
        assert capsys.readouterr().out == stdout + f"wrote {path}\n"
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest

    def test_single_pair_methods_agree(self, tmp_path, capsys):
        path = write_samples(tmp_path, ["a,1.0,1.5\n", "a,1.0,1.5\n"])
        assert main(["calibrate", path, "--method", "one"]) == EXIT_OK
        gamma_one = [
            line
            for line in capsys.readouterr().out.splitlines()
            if line.startswith("gamma:")
        ]
        assert main(["calibrate", path, "--method", "two"]) == EXIT_OK
        gamma_two = [
            line
            for line in capsys.readouterr().out.splitlines()
            if line.startswith("gamma:")
        ]
        assert gamma_one == gamma_two

    def test_out_of_range_fails_without_clamp(self, tmp_path, capsys):
        path = write_samples(tmp_path, ["a,0.1,5.0\n"])
        out = tmp_path / "out"
        rc = main(["calibrate", path, "--apply-to", "tank-reference", "--out", str(out)])
        assert rc == EXIT_CALIBRATION
        captured = capsys.readouterr()
        assert "in_range: false" in captured.out
        assert "clamp" in captured.err
        # the verdict comes before the output directory
        assert not out.exists()

    def test_clamp_clips_into_open_interval(self, tmp_path, capsys):
        path = write_samples(tmp_path, ["a,0.1,5.0\n"])
        rc = main(["calibrate", path, "--clamp-gamma"])
        assert rc == EXIT_OK
        assert "gamma_clamped: 0.9999999999999999" in capsys.readouterr().out

    def test_apply_to_writes_calibrated_snapshot(self, scenario_file, tmp_path, capsys):
        samples = write_samples(tmp_path, ["a,1.0,1.5\n", "a,1.0,1.5\n"])
        out = tmp_path / "out"
        rc = main(
            ["calibrate", samples, "--apply-to", scenario_file(), "--out", str(out)]
        )
        assert rc == EXIT_OK
        doc = read_json(out / "calibrated_config.json")
        assert doc["predictor"]["gamma"] == 0.25
        assert "calibrated_config.json" in capsys.readouterr().out


LOSS_FLAG_KINDS = ("none", "bernoulli", "gilbert-elliott", "ge", "trace", "")
LOSS_SET_KEYS = ("kind", "seed", "p", "p_g2b", "p_b2g", "loss_in_bad", "trace_path", "wrap")
loss_texts = st.one_of(
    st.text(),
    st.tuples(
        st.sampled_from(LOSS_FLAG_KINDS),
        st.lists(st.floats().map(repr) | st.integers().map(str) | st.text(), max_size=4),
    ).map(lambda parts: parts[0] + ":" + ",".join(parts[1])),
)


class TestLossInputFuzz:
    """Every --loss text and loss.* override ends in exit 0, 2 or 3."""

    @staticmethod
    def exit_code(argv, out):
        try:
            return main([*argv, "--set", "sim.duration=20", "--set", "cost.m_steps=10", "--out", out])
        except SystemExit as exc:  # argparse's own usage errors
            return exc.code

    def check(self, argv, tmp_path, capsys):
        assert self.exit_code(argv, str(tmp_path / "o")) in (EXIT_OK, EXIT_CONFIG, EXIT_DIVERGED)
        assert "Traceback" not in capsys.readouterr().err

    @settings(deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(loss=loss_texts)
    def test_loss_flag(self, tmp_path, capsys, loss):
        self.check(["run", "tank-reference", f"--loss={loss}"], tmp_path, capsys)

    @settings(deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @example(base="none", key="seed", value="9" * 5000)
    @given(
        base=st.sampled_from(["none", "bernoulli:0.3", "ge:0.05,0.3,0.8", "trace:{bits}"]),
        key=st.sampled_from(LOSS_SET_KEYS) | st.text(),
        value=st.text() | json_values.map(json.dumps),
    )
    def test_loss_override(self, tmp_path, capsys, base, key, value):
        bits = tmp_path / "bits.txt"
        bits.write_text("1\n0\n0\n1\n")
        argv = ["run", "tank-reference", "--loss", base.format(bits=bits), "--set", f"loss.{key}={value}"]
        self.check(argv, tmp_path, capsys)


# Well-formed values for each flag; the fuzz adds any text to those that
# take text.  --seeds and --workers stay small integers, so no example asks
# for more than 3 workers.
counts = st.integers(min_value=-1, max_value=3).map(str)
FLAGS = {
    "run": {"--strategy": st.sampled_from(STRATEGIES)},
    "compare": {
        "--strategies": st.lists(st.sampled_from(STRATEGIES), max_size=3).map(",".join),
        "--seeds": counts,
        "--workers": counts,
    },
    "calibrate": {
        "--method": st.sampled_from(["one", "two"]),
        "--clamp-gamma": None,  # takes no value
        "--apply-to": st.sampled_from(["tank-reference", "nowhere"]),
    },
}
for command in ("run", "compare"):
    FLAGS[command].update({
        "--seed": st.integers().map(str),
        "--set": st.sampled_from(sorted(RUN_KEYS)).flatmap(
            lambda key: RUN_KEYS[key].map(lambda value: f"{key}={json.dumps(value)}")
        ),
        "--loss": st.sampled_from(
            ["none", "bernoulli:0.3", "ge:0.05,0.3,0.8", "trace:{bits}", "trace:{bits}:wrap"]
        ),
    })
TEXT_FLAGS = ("--strategy", "--strategies", "--method", "--apply-to", "--seed", "--set", "--loss")


class TestCommandLineFuzz:
    """Any argument list ends in exit 0, 2, 3 or 4 with no traceback and no
    child process left, and exit 2 leaves no output directory; runs are held
    at sim.duration 20 (10 steps)."""

    @pytest.mark.parametrize("junk", [False, True], ids=["well-formed", "any-text"])
    @settings(deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_any_arguments(self, tmp_path, capsys, junk, data):
        bits = tmp_path / "bits.txt"
        bits.write_text("1\n0\n0\n1\n")
        samples = [
            write_samples(tmp_path, rows, f"{name}.csv")
            for name, rows in (
                ("fits", ["a,1.0,1.1\n", "a,2.0,2.1\n", "b,1.5,1.4\n"]),
                ("wide", ["a,1.0,10.0\n"]),
                ("huge", ["a,1e200,-1e200\n"]),
            )
        ]
        command = data.draw(st.sampled_from(sorted(FLAGS)), label="command")
        positional = st.sampled_from(samples if command == "calibrate" else ["tank-reference"])
        flags = FLAGS[command]
        if junk:
            positional |= st.sampled_from([str(bits), "nowhere"]) | st.text()
            flags = {
                name: (value | (loss_texts if name == "--loss" else st.text()))
                if name in TEXT_FLAGS else value
                for name, value in flags.items()
            }
        argv = [command, data.draw(positional, label="positional")]
        for name in data.draw(st.lists(st.sampled_from(sorted(flags)), max_size=4), label="flags"):
            argv.append(name)
            if flags[name] is not None:
                argv.append(data.draw(flags[name], label=name).replace("{bits}", str(bits)))
        if junk:
            at = data.draw(st.integers(min_value=0, max_value=len(argv)), label="at")
            argv[at:at] = data.draw(st.lists(st.text(), max_size=2), label="tokens")
        if command != "calibrate":
            argv += ["--set", "sim.duration=20", "--set", "cost.m_steps=10"]
        out = os.path.join(tempfile.mkdtemp(dir=tmp_path), "out")
        try:
            code = main([*argv, "--out", out])
        except SystemExit as exc:  # argparse's own usage errors and --help
            code = exc.code
        assert code in (EXIT_OK, EXIT_CONFIG, EXIT_DIVERGED, EXIT_CALIBRATION)
        assert code != EXIT_CONFIG or not os.path.exists(out)
        assert "Traceback" not in capsys.readouterr().err
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
