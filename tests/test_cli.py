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
from ncsim.cli import EXIT_CALIBRATION, EXIT_CONFIG, EXIT_DIVERGED, EXIT_OK, OUT_ENV_VAR, main
from ncsim.errors import PATH_LIMIT
from ncsim.losses import LOSS_KINDS
from ncsim.runtime import STRATEGIES

from conftest import RUN_KEYS, json_values, run_fresh, small_scenario


def test_trace_rows_are_written_as_the_run_goes(tmp_path, monkeypatch):
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
        main(["run", "tank-reference", "--out", str(out)])
    lines = (out / "trace.csv").read_text().splitlines()
    assert [line.split(",")[0] for line in lines] == ["k", "0", "1", "2", "3", "4"]


@pytest.mark.parametrize("flag", ["--doubled-age-offset", "--cost-raw-state"])
def test_removed_flags_are_usage_errors(tmp_path, flag):
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
        assert main(["run", *SHORT_RUN, "--seed", "7", "--strategy", "hold-last-value",
                     "--out", str(flagged)]) == EXIT_OK
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


def scenario_text(*drop, overrides=None):
    """The JSON text of ``small_scenario(overrides)`` without the dotted keys ``drop``."""
    doc = small_scenario(overrides)
    for path in drop:
        *section, key = path.split(".")
        del (doc[section[0]] if section else doc)[key]
    return json.dumps(doc)


def csv_rows(text):
    return list(csv.reader(io.StringIO(text, newline="")))


class Command(NamedTuple):
    """A command line run through ``ncsim.cli.main`` and what it must leave.

    ``argv``, ``stdout``, ``stderr`` and ``env`` write ``$tmp`` for a fresh
    directory, ``$name`` for each file ``name`` of ``files`` in it, ``$out``
    for the output directory ``out`` in it (passed as ``--out`` unless
    ``env`` sets ``NCSIM_OUT``), and ``$reason`` for the text of the error,
    or else of the result, of the standard-library call ``reason``,
    ``(function, *args)``.  A file holds text, bytes, a count of zero
    bytes, or is a directory (None).  ``artifacts`` are the names the
    command adds to ``$out``, None where ``$out`` must not exist, and
    ``after_run`` marks an exit 2 that can come only once the run started.
    ``facts`` pin what else the row shows: each key is an artifact, or
    ``artifact:path`` for the value at a dotted path into a JSON artifact
    or at a line of another, and each value is that value, or for a whole
    artifact its ``Lines``, its ``Digest`` or ``Same`` bytes as a row's.
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
    code: int = EXIT_CONFIG
    env: dict = {}
    facts: dict = {}


# What a whole artifact shows: its line count, its sha256, or the same
# bytes as the one the FINISHED row of this id writes.
Lines = type("Lines", (int,), {})
Digest = type("Digest", (str,), {})
Same = type("Same", (str,), {})


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
LONG = "x" * 100_000
CUT = f"'{'x' * 40}'... (100000 characters)"
NOT_AN_OBJECT = "config error: scenario file '$scenario' must hold a JSON object\n"


def cut(path, quote="'"):
    """``path`` longer than PATH_LIMIT characters as a message quotes it."""
    return f"{quote}{path[:PATH_LIMIT]}{quote}... ({len(path)} characters)"


# The text of the OS error on the path LONG; a path longer than PATH_LIMIT
# to each existing file; an artifact path as long, in a directory whose
# name is not.
TOO_LONG = f"[Errno {errno.ENAMETOOLONG}] $reason: {cut(LONG)}"
LONG_WAY = {name: "./" * (PATH_LIMIT // 2) + name for name in ("bits", "long", "samples")}
WIDE_OUT = "o" * (PATH_LIMIT - 10)
WIDE_ARTIFACT = f"{WIDE_OUT}/resolved_config.json"

# Every input a command rejects, one row each; a rejected input is added as
# one row.  Only config rules stay in tests/test_scenario.py's RULES.
REJECTED = [
    # a trace shorter than the run that does not wrap, at any worker count
    *[Command(name, [*argv, "--loss", "trace:$bits"],
               "config error: loss.trace_path '$bits' holds 3 bits, fewer than the 60 steps of "
               "sim.duration 120.0, and loss.wrap is false\n", {**SCENARIO, "bits": "1\n0\n1\n"})
      for name, argv in (
          ("run-short-trace", RUN), ("compare-short-trace", COMPARE),
          *((f"compare-short-trace-workers-{workers}",
             [*COMPARE, "--strategies", "hold-last-value,zero-input", "--workers", workers])
            for workers in "12"),
      )],
    *[Command(f"{argv[0]}-trace-{name}", [*argv, "--loss", "trace:$tmp/bits"],
               f"config error: loss.trace_path '$tmp/bits' is not a readable trace: {tail}\n",
               {**SCENARIO, **files}, reason=reason)
      for argv in (RUN, COMPARE) for name, files, tail, reason in (
          ("missing", {}, "$reason", (open, "$tmp/bits")),
          ("two", {"bits": "1\n2\n"}, "$tmp/bits:2: expected 0 or 1, got '2'", ()),
          ("0xff", {"bits": b"\xff\n"}, "$reason", (bytes.decode, b"\xff\n")),
          ("empty", {"bits": ""}, "no trace entries in $tmp/bits", ()),
      )],
    Command("unknown-scenario", ["run", "no-such-scenario"],
             "config error: scenario 'no-such-scenario' is neither a built-in (tank-reference) "
             "nor an existing file\n"),
    Command("missing-scenario-file", ["run", "$tmp/absent.json"],
             "config error: scenario '$tmp/absent.json' is neither a built-in (tank-reference) "
             "nor an existing file\n"),
    Command("directory-as-scenario", ["run", "$tmp"],
             "config error: cannot read scenario file '$tmp': $reason\n", reason=(open, "$tmp")),
    *[Command(f"scenario-{name}", RUN,
               f"config error: scenario file '$scenario' is not valid JSON: $reason\n",
               {"scenario": text}, reason=(decode, text))
      for name, text, decode in (("invalid-json", "{not json", json.loads),
                                 ("latin-1", LATIN1, bytes.decode), ("deep", DEEP, json.loads))],
    *[Command(f"{name}-{kind}", argv, NOT_AN_OBJECT, {"scenario": text, **SAMPLES})
      for kind, text in (("list", "[1, 2]"), ("string", '"plant"'), ("number", "3"),
                         ("null", "null"))
      for name, argv in (("loss-flag", [*RUN, "--loss", "none"]),
                         ("set-flag", [*RUN, "--set", "loss=1"]), ("apply-to", CALIBRATE))],
    # --apply-to is read and parsed before the calibration verdict, so a bad
    # one exits 2 with nothing on stdout, where gamma is out of range too
    *[Command(f"apply-to-{name}{suffix}", ["calibrate", samples, "--apply-to", ref], stderr,
               {"scenario": scenario_text("cost.q_c"), **SAMPLES, "far": HEADER + "a,0.1,5.0\n"})
      for samples, suffix in (("$samples", ""), ("$far", "-gamma-out-of-range"))
      for name, ref, stderr in (
          ("missing", "$tmp/absent.json", "config error: scenario '$tmp/absent.json' is neither a "
           "built-in (tank-reference) nor an existing file\n"),
          ("missing-key", "$scenario", "config error: missing required key cost.q_c\n"),
      )],
    *[Command(f"missing-{key}", RUN, f"config error: missing required key {key}\n",
               {"scenario": scenario_text(key)}) for key in ("cost.q_c", "predictor")],
    *[Command(f"{argv[0]}-set-into-a-left-out-loss", [*argv, "--set", "loss.p=0.3"],
               "config error: unknown key loss.p\n", {"scenario": scenario_text("loss")})
      for argv in (RUN, COMPARE)],
    Command("override-path", [*RUN, "--set", "nope.key=1"],
             "config error: override path 'nope.key' does not reach a config section\n", SCENARIO),
    Command("deep-override", ["run", "tank-reference", "--set", f"sim.theta={DEEP}"],
             "config error: override 'sim.theta' nests its value too deeply\n"),
    *[Command(f"loss-{spec}", [*RUN, "--loss", spec], f"config error: {message}\n", SCENARIO)
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
    *[Command(f"{name}-{source}", argv,
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
    *[Command(f"{argv[0]}-{artifact}-in-the-way", argv,
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
    *[Command(f"{argv[0]}-file-in-the-way-of-out", argv,
               "config error: cannot create output directory '$out': $reason\n",
               {**SCENARIO, **SAMPLES, "file": ""}, stdout, reason=(os.makedirs, "$out"),
               out="file/o")
      for argv, stdout in ((RUN, ""), (ONE_SEED, ""), (CALIBRATE, ""))],
    # random.Random(-1) draws seed 1's stream, so seeds -1, 0 and 1 would
    # count one loss realization twice
    Command("negative-seed", [*COMPARE, "--loss", "bernoulli:0.3", "--seed", "-1", "--seeds", "3"],
             "config error: loss.seed must be non-negative, got -1\n", SCENARIO),
    # without the caps the cell list alone would exhaust memory
    *[Command(f"seeds-{seeds}", [*COMPARE, "--seeds", seeds],
               f"config error: --seeds must lie in [1, 10000], got {seeds}\n", SCENARIO)
      for seeds in ("0", "10001", "1000000000000")],
    *[Command(f"workers-{workers}", [*COMPARE, "--seeds", "10000", "--workers", workers],
               f"config error: --workers must lie in [1, 64], got {workers}\n", SCENARIO)
      for workers in ("0", "65", "1000000")],
    *[Command(f"strategies-{spec!r}", [*COMPARE, "--strategies", spec],
               f"config error: --strategies{message}\n", SCENARIO)
      for spec, message in (
          *((name, f": unknown strategy {name!r}, expected one of {STRATEGIES}")
            for name in ("nope", "teleport")),
          ("zero-input,zero-input", " must be unique"),
          (",", " must be non-empty"),
          (" , ", " must be non-empty"),
      )],
    Command("degenerate-samples", ["calibrate", "$samples"],
             "config error: samples are degenerate: mean predicted state is zero\n",
             {"samples": HEADER + "a,1.0,1.0\na,-1.0,1.0\n"}),
    *[Command(f"samples-{name}", ["calibrate", "$samples", "--clamp-gamma", "--apply-to",
                                   "tank-reference"],
               f"config error: samples are degenerate: {message}\n", {"samples": HEADER + row},
               reason=reason)
      for name, row, message, reason in (
          # the C library's text for ERANGE, which x ** 2 raises past float range
          ("overflow", "a,1e200,-1e200\n", "$reason", (os.strerror, errno.ERANGE)),
          ("infinite", "a,1e308,-1e308\n", "E inf, grand means 1e+308, -1e+308, gamma -inf", ()),
      )],
    Command("missing-samples", ["calibrate", "$tmp/absent.csv"],
             "config error: cannot load samples from '$tmp/absent.csv': $reason\n",
             reason=(open, "$tmp/absent.csv")),
    # a field past csv.field_size_limit() (131 072 characters) is a csv.Error;
    # a bad sample is named by line and column, and a long field is cut to
    # its first 40 characters and its length
    *[Command(f"samples-{name}", ["calibrate", "$samples"],
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
    # a document value in a message is cut to its first 40 characters and its length
    *[Command(f"long-{name}", ["run", "tank-reference", "--set", f"{key}={value}"],
              f"config error: {key} {message}, got {shown}\n")
      for name, key, value, message, shown in (
          ("kind", "loss.kind", LONG, f"must be one of {LOSS_KINDS}", CUT),
          ("kind-list", "loss.kind", json.dumps([0] * 50_000), "must be a string",
           f"[{'0, ' * 13}... (150000 characters)"),
          ("x0", "sim.x0", LONG, "must be a number", CUT),
          ("horizon", "predictor.horizon", LONG, "must be an integer", CUT),
          ("doubled-age-offset", "sim.doubled_age_offset", LONG, "must be a boolean", CUT),
          ("theta", "sim.theta", LONG, "must be a number or a list of pairs", CUT),
          ("theta-entry", "sim.theta", json.dumps([[0, 0], LONG]),
           "entries must be [time, value] number pairs", CUT),
      )],
    Command("long-unknown-key", RUN,
            f"config error: unknown key {'x' * 40}... (100000 characters)\n",
            {"scenario": json.dumps({**small_scenario(), LONG: 1})}),
    # a command-line value in a message is cut to its first 40 characters and
    # its length, and a path to its first PATH_LIMIT characters
    *[Command(f"long-{name}", argv, f"config error: {message}\n", SCENARIO)
      for name, argv, message in (
          ("strategy-set", [*RUN, "--set", f'strategies=["{LONG}"]'],
           f"strategies: unknown strategy {CUT}, expected one of {STRATEGIES}"),
          ("strategies-flag", [*COMPARE, "--strategies", LONG],
           f"--strategies: unknown strategy {CUT}, expected one of {STRATEGIES}"),
          ("loss-flag", [*RUN, "--loss", LONG], f"unknown loss kind {CUT} in --loss {CUT}"),
          ("loss-bernoulli", [*RUN, "--loss", f"bernoulli:{LONG}"],
           f"--loss bernoulli parameters must be numbers: 'bernoulli:{'x' * 30}'... "
           "(100010 characters)"),
          ("set-without-value", [*RUN, "--set", LONG],
           f"override {CUT} must look like section.key=value"),
          ("set-empty-component", [*RUN, "--set", f".{LONG}=1"],
           f"override '.{'x' * 39}'... (100003 characters) has an empty path component"),
          ("set-path", [*RUN, "--set", f"a.{LONG}=1"],
           f"override path 'a.{'x' * 38}'... (100002 characters) does not reach a config "
           "section"),
          ("set-deep", [*RUN, "--set", f"{LONG}={DEEP}"],
           f"override {CUT} nests its value too deeply"),
          ("scenario", ["run", LONG],
           f"scenario {cut(LONG)} is neither a built-in (tank-reference) nor an existing file"),
      )],
    # an OS error's text repeats the path, cut the same way
    *[Command(f"long-{name}", argv, f"config error: {prefix}{TOO_LONG}\n", SCENARIO,
              env=env, reason=(os.strerror, errno.ENAMETOOLONG))
      for name, argv, prefix, env in (
          ("trace-path", [*RUN, "--set", f'loss={{"kind": "trace", "trace_path": "{LONG}"}}'],
           f"loss.trace_path {cut(LONG)} is not a readable trace: ", {}),
          ("samples", ["calibrate", LONG], f"cannot load samples from {cut(LONG)}: ", {}),
          ("out", RUN, f"cannot create output directory {cut(LONG)}: ", {OUT_ENV_VAR: LONG}),
      )],
    Command("long-artifact-path", RUN,
            f"config error: cannot write {cut(WIDE_ARTIFACT)}: [Errno {errno.EISDIR}] $reason: "
            f"{cut(WIDE_ARTIFACT)}\n", {**SCENARIO, WIDE_ARTIFACT: None}, artifacts=(),
            reason=(os.strerror, errno.EISDIR), out=WIDE_OUT, env={OUT_ENV_VAR: WIDE_OUT}),
    # an existing file reached by a path longer than PATH_LIMIT
    *[Command(f"long-path-{name}", argv, f"config error: {message}\n", {**SCENARIO, **files})
      for name, argv, files, message in (
          ("short-trace", [*RUN, "--loss", f"trace:{LONG_WAY['bits']}"], {"bits": "1\n0\n1\n"},
           f"loss.trace_path {cut(LONG_WAY['bits'])} holds 3 bits, fewer than the 60 steps "
           "of sim.duration 120.0, and loss.wrap is false"),
          ("trace-entry", [*RUN, "--loss", f"trace:{LONG_WAY['bits']}"], {"bits": f"1\n{LONG}\n"},
           f"loss.trace_path {cut(LONG_WAY['bits'])} is not a readable trace: "
           f"{cut(LONG_WAY['bits'], quote='')}:2: expected 0 or 1, got {CUT}"),
          ("input-cap", ["run", LONG_WAY["long"]], {"long": CAP + 1},
           f"input file {cut(LONG_WAY['long'])} is longer than {CAP} bytes"),
          ("no-samples", ["calibrate", LONG_WAY["samples"]], {"samples": HEADER},
           f"cannot load samples from {cut(LONG_WAY['samples'])}: no sample rows in "
           f"{cut(LONG_WAY['samples'], quote='')}"),
      )],
    Command("samples-empty", ["calibrate", "$samples"],
            "config error: cannot load samples from '$samples': no sample rows in $samples\n",
            {"samples": HEADER}),
]


SHORT = ["--set", "sim.duration=20", "--set", "cost.m_steps=10"]
SHORT_RUN = ["tank-reference", "--loss", "bernoulli:0.3", *SHORT]
LOSSY = {"scenario": scenario_text(overrides={"loss": {"kind": "bernoulli", "p": 0.3, "seed": 5}})}
BITS = {"bits": "1\n0\n1\n"}
# one bit for each of tank-reference's 1800 intervals, every third one lost
EXACT = "".join("1\n" if k % 3 else "0\n" for k in range(1, 1801))
# every key a document may leave out that defaults to a value
OPTIONAL = ("plant.domain_margin", "controller.lgv_threshold", "controller.u_min",
            "controller.u_max", "loss.seed", "sim.n_truth", "sim.doubled_age_offset",
            "cost.raw_state", "strategies")
ONE_PAIR = {"samples": HEADER + "a,1.0,1.5\na,1.0,1.5\n"}
OUT_OF_RANGE = {"samples": HEADER + "a,0.1,5.0\n"}
# three pairs of 3, 2 and 4 samples near 1e5, interleaved
PINNED = {"samples": HEADER + "a,150000.0,150120.5\nb,98000.25,97950.0\na,150310.75,150402.0\n"
          "c,120500.0,120530.125\nb,98100.5,98010.75\na,150620.125,150790.0\n"
          "c,120610.5,120660.25\nc,120720.0,120701.5\nc,120830.75,120905.0\n"}
CALIBRATED = "wrote $out/calibrated_config.json\n"
# a compare of all three strategies reports the wins of these pairs
PAIRS = (("predictive-buffer", "zero-input"), ("hold-last-value", "predictive-buffer"),
         ("hold-last-value", "zero-input"))
# the 60-step run without loss, the same for every strategy and gamma
LOSSLESS = (151686.3277537128, 0.03955929560381051, 7975344530.308761, 0)
SEEDLESS = "note: loss.kind {!r} ignores the seed; ran seed {} once instead of {} paired seeds\n"


def run_report(x_final, ratio, j, losses, steps=60, strategy="predictive-buffer"):
    """The first stdout line of a finished run."""
    return (f"{strategy}: {steps} steps, x_final={x_final!r}, deviation_ratio={ratio!r}, "
            f"J={j!r}, losses={losses}\n")


def compare_report(medians, wins, seeds, diverged=0):
    """A compare's stdout but its last line, for all three strategies:
    ``medians`` in ``STRATEGIES`` order, the ``wins`` of each of ``PAIRS``."""
    return "".join([
        *(f"{name}: median_j={median!r} diverged={diverged}\n"
          for name, median in zip(STRATEGIES, medians)),
        *(f"wins {a} vs {b}: {score} of {seeds}\n" for (a, b), score in zip(PAIRS, wins)),
    ])


def finished(id, argv, stdout, files=SCENARIO, stderr="", code=EXIT_OK, **fields):
    """A ``FINISHED`` row: a run or compare adds its three artifacts, and
    one that exits 0 ends its stdout by naming them."""
    table = {"run": "trace.csv", "compare": "comparison.csv"}.get(argv[0])
    if table:
        fields["artifacts"] = (table, "resolved_config.json", "summary.json")
        stdout += f"wrote {', '.join(fields['artifacts'])} to $out\n" if code == EXIT_OK else ""
    return Command(id, argv, stderr, files, stdout, code=code, **fields)


# Every command line the tests run that finishes, in exit 0, 3 or 4, one
# row each; a finished command is added as one row.  test_command reruns
# each run and compare from its snapshot, and each compare at 1-3 workers.
FINISHED = [
    finished("run", RUN, run_report(*LOSSLESS), facts={
        "summary.json:strategy": "predictive-buffer", "summary.json:steps": 60,
        "summary.json:loss_count": 0, "summary.json:diverged": False,
        "summary.json:j_total": 7975344530.308761, "resolved_config.json:predictor.gamma": 0.175,
        "trace.csv:0": "k,t,x_true,x_pred,s,i,u,J_running", "trace.csv": Lines(61),
    }),
    finished("run-strategy-flag", [*RUN, "--strategy", "zero-input"],
             run_report(*LOSSLESS, strategy="zero-input"), facts={
                 "summary.json:strategy": "zero-input",
                 "resolved_config.json:strategies": ["zero-input"]}),
    # the scenario's seed 42 stays
    finished("run-loss-flag", [*RUN, "--loss", "bernoulli:0.25"],
             run_report(150543.87674421657, 0.011069245491685037, 7609027077.528394, 20),
             facts={"resolved_config.json:loss": {"kind": "bernoulli", "p": 0.25, "seed": 42}}),
    finished("run-seed-flag", [*RUN, "--loss", "bernoulli:0.25", "--seed", "7"],
             run_report(150544.60780836127, 0.011087476517737319, 7458279735.51883, 19),
             facts={"resolved_config.json:loss.seed": 7}),
    # each --set comes after --seed and after the --set before it
    finished("run-flag-order", [*RUN, "--seed", "7", "--set", "loss.seed=3", "--set",
                                "predictor.gamma=0.1", "--set", "predictor.gamma=0.2"],
             run_report(*LOSSLESS), facts={"resolved_config.json:loss.seed": 3,
                                           "resolved_config.json:predictor.gamma": 0.2}),
    finished("run-ge-alias", [*RUN, "--loss", "ge:0.1,0.4,1.0"],
             run_report(146800.26366045067, 0.08228768926556933, 7608463181.48676, 13), facts={
                 "resolved_config.json:loss.kind": "gilbert-elliott",
                 "resolved_config.json:loss.p_b2g": 0.4}),
    finished("run-trace-wrap", [*RUN, "--loss", "trace:$bits:wrap"],
             run_report(166475.81703122583, 0.4083744895567539, 6851288996.773024, 20),
             {**SCENARIO, **BITS}, facts={"summary.json:loss_count": 20}),
    finished("run-out-from-environment", RUN, run_report(*LOSSLESS), env={OUT_ENV_VAR: "$tmp/env"},
             out="env"),
    # --seed folds into a left-out loss section as into a given one; without
    # loss every wins line is a tie
    *[row for command, stdout, stderr in (
        ("run", run_report(*LOSSLESS), ""),
        ("compare", compare_report([LOSSLESS[2]] * 3, ["0-0"] * 3, 1),
         SEEDLESS.format("none", 3, 10)),
    ) for row in (
        finished(f"{command}-loss-seed-3", [command, "$scenario"], stdout, {
            "scenario": scenario_text(overrides={"loss": {"kind": "none", "seed": 3}})}, stderr),
        finished(f"{command}-seed-into-left-out-loss", [command, "$bare", "--seed", "3"], stdout,
                 {"bare": scenario_text("loss")}, stderr, facts={
                     "resolved_config.json:loss": {"kind": "none", "seed": 3},
                     "resolved_config.json": Same(f"{command}-loss-seed-3")}),
    )],
    # the first loss replays entry 0, the second predicts entry 1 and leaves the domain
    finished("run-diverged", [*RUN, "--loss", "bernoulli:1"], "",
             {"scenario": scenario_text(overrides={"predictor.gamma": 0.9})},
             "diverged at step 1: prediction left the domain after 1 entries\n"
             "wrote partial trace (1 steps) to $out\n", code=EXIT_DIVERGED, facts={
                 "summary.json:diverged": True, "summary.json:diverged_step": 1,
                 "summary.json:reason": "prediction left the domain after 1 entries",
                 "trace.csv": Lines(2),
                 "trace.csv:1": "0,0.0,110000.0,110000.0,0,1,1.0,1609010000.0",
             }),
    # a diverged cell is empty, and a strategy whose every cell diverged has no median
    *[finished(f"compare-{name}", ["compare", *argv, "--seeds", str(seeds)],
               compare_report([None] * 3, ["0-0"] * 3, seeds, seeds), {}, facts={
                   "summary.json:diverged": dict.fromkeys(STRATEGIES, seeds),
                   "summary.json:median_j": dict.fromkeys(STRATEGIES),
                   **{f"comparison.csv:{k}": f"{41 + k},,," for k in range(1, seeds + 1)}})
      for name, argv, seeds in (
          ("feedback-overflow", ["tank-reference", "--set", "plant.p1=1e308", *SHORT], 1),
          ("cost-overflow", [*SHORT_RUN, "--set", "cost.r_c=1e308"], 2),
      )],
    # x0 lies 1e-310 from the setpoint, and theta drives x up to about 0.09
    finished("run-deviation-ratio-past-float-range", RUN, run_report(
        0.08622478146935608, None, 1.2137958117453804e-64, 0, 10, "zero-input"), {
            "scenario": scenario_text(overrides={
                "plant.p1": 1.0, "plant.p2": 0.0, "plant.domain_margin": 0.0, "plant.vol": 1.0,
                "controller.setpoint": 2e-310, "sim.x0": 1e-310, "sim.theta": 40.3,
                "sim.duration": 20.0, "cost.m_steps": 10, "strategies": ["zero-input"]})},
        facts={"summary.json:deviation_ratio": None, "summary.json:x_final": 0.08622478146935608}),
    # full-length tank-reference runs under each kind of loss
    *[finished(f"round-trip-{name}", ["run", "tank-reference", "--loss", loss],
               run_report(*report, steps=1800), {"bits": "1\n0\n0\n1\n", "exact": EXACT},
               facts={"trace.csv": Lines(1801)})
      for name, loss, report in (
          ("none", "none", (150148.88225457247, 0.0012190088422062047, 195241806189.14435, 0)),
          ("bernoulli", "bernoulli:0.3",
           (149737.00598916257, 0.009052219721631633, 186796472417.05463, 520)),
          ("ge", "ge:0.05,0.3,0.8",
           (146968.20737681186, 0.07809956666304596, 190686249944.96506, 199)),
          ("trace-wrap", "trace:$bits:wrap",
           (171262.85561056985, 0.5277520102386497, 190756801419.4753, 900)),
          ("trace-exact", "trace:$exact",
           (153965.78525106635, 0.096403622221106, 180967065765.96072, 600)),
      )],
    *[finished(name, argv, run_report(168563.97310308518, 0.46044820705948086, 7423421052.528615,
                                      12), files, facts=facts)
      for name, argv, files, facts in (
          ("run-defaults", [*RUN, "--loss", "bernoulli:0.3", "--seed", "0"], SCENARIO, {}),
          ("run-defaults-left-out", ["run", "$stripped"], {"stripped": scenario_text(
              *OPTIONAL, overrides={"loss": {"kind": "bernoulli", "p": 0.3, "seed": 0}})},
           {name: Same("run-defaults") for name in ("resolved_config.json", "trace.csv")}),
      )],
    # each median_j is the mean of the two seeds' costs
    finished("compare", [*COMPARE, "--seeds", "2"], compare_report(
        [7357116744.280394, 13340128538.532253, 7357116744.280394], ["0-0", "0-2", "0-2"], 2),
        LOSSY, facts={
            "comparison.csv:0": "seed,predictive-buffer,hold-last-value,zero-input",
            "comparison.csv:1": "5,7337872049.28199,15716770807.707268,7337872049.28199",
            "comparison.csv:2": "6,7376361439.278796,10963486269.357239,7376361439.278796",
            "comparison.csv": Lines(3), "summary.json:seeds": [5, 6]}),
    # a trace, and the scenario's own lossless channel (seed 42), ignore the seed
    *[finished(f"compare-seedless-{kind}", [*COMPARE, *flags, "--strategies",
                                            "hold-last-value,zero-input", "--seeds", "3"],
               f"hold-last-value: median_j={hold} diverged=0\n"
               f"zero-input: median_j={zero} diverged=0\n"
               f"wins hold-last-value vs zero-input: 0-{wins} of 1\n", {**SCENARIO, **BITS},
               SEEDLESS.format(kind, seed, 3),
               facts={"summary.json:seeds": [seed], "comparison.csv": Lines(2),
                      "comparison.csv:0": "seed,hold-last-value,zero-input"})
      for kind, flags, seed, hold, zero, wins in (
          ("trace", ["--loss", "trace:$bits:wrap"], 0, 16038417287.680603, 6733595848.76957, 1),
          ("none", [], 42, LOSSLESS[2], LOSSLESS[2], 0),
      )],
    finished("compare-round-trip", ["compare", *SHORT_RUN, "--seeds", "2", "--workers", "2"],
             compare_report([2419845496.5399747, 4230450016.9104786, 2999301038.5883303],
                            ["2-0", "0-2", "0-2"], 2), {}),
    # three strategies by three seeds: shares of 3 cells over three
    # processes, and of 5 and 4 over two
    finished("compare-uneven", ["compare", *SHORT_RUN, "--seeds", "3", "--strategies",
                                "predictive-buffer,hold-last-value,zero-input"],
             compare_report([2420345496.5399747, 3624810762.332175, 2499756616.853734],
                            ["2-0", "0-2", "0-2"], 3), {}),
    # the snapshot lists every strategy of the scenario, not the --strategies
    # subset, so a rerun of it alone compares all three (a known defect)
    finished("compare-one-strategy", ["compare", *SHORT_RUN, "--seeds", "2", "--strategies",
                                      "hold-last-value"],
             "hold-last-value: median_j=4230450016.9104786 diverged=0\n", {},
             facts={"resolved_config.json:strategies": list(STRATEGIES)}),
    *[finished(f"calibrate-{name}", ["calibrate", "$samples", *flags], stdout, files)
      for name, flags, files, stdout in (
          ("one-pair-method-two", ["--method", "two"], ONE_PAIR,
           "method: two\nE_0: 0.25\nE: 0.25\nzeta: +1\ngamma: 0.25\nin_range: true\n"),
          ("overestimate", [], {"samples": HEADER + "a,2.0,1.0\na,2.0,1.0\n"},
           "method: one\nE: 1.0\nzeta: -1\ngamma: -0.5\nin_range: true\n"),
          ("method-two", ["--method", "two"],
           {"samples": HEADER + "a,1.0,1.5\na,1.0,1.5\nb,3.0,3.1\nb,3.0,3.1\n"},
           "method: two\nE_0: 0.25\nE_1: 0.010000000000000018\nE: 0.13\nzeta: +1\n"
           "gamma: 0.065\nin_range: true\n"),
          ("clamp", ["--clamp-gamma"], OUT_OF_RANGE, "method: one\nE: 24.010000000000005\n"
           "zeta: +1\ngamma: 240.10000000000005\nin_range: false\n"
           "gamma_clamped: 0.9999999999999999\n"),
      )],
    *[finished(f"calibrate-pinned-method-{method}", ["calibrate", "$samples", "--method", method,
                                                     "--apply-to", "tank-reference"],
               stdout + CALIBRATED, PINNED, artifacts=("calibrated_config.json",),
               facts={"calibrated_config.json": Digest(digest)})
      for method, stdout, digest in (
          ("one", "method: one\nE: 7946.927083333333\nzeta: +1\ngamma: 0.06331131702499229\n"
                  "in_range: true\n",
           "ec88dd84b5daa05d670dc5e3731cb5af28a1bf90bf545dc35152fe86bece23ef"),
          ("two", "method: two\nE_0: 17234.776041666668\nE_1: 5290.0625\nE_2: 2309.47265625\n"
                  "E: 8278.103732638889\nzeta: +1\ngamma: 0.06729691837414112\nin_range: true\n",
           "ca6397de09fe52f6677d4a7a6527582cb1096906934daff43ca637a1e4e340ee"),
      )],
    # the verdict comes before the output directory
    finished("calibrate-out-of-range", ["calibrate", "$samples", "--apply-to", "tank-reference"],
             "method: one\nE: 24.010000000000005\nzeta: +1\ngamma: 240.10000000000005\n"
             "in_range: false\n", OUT_OF_RANGE,
             "gamma magnitude >= 1; pass --clamp-gamma to clip into range\n",
             code=EXIT_CALIBRATION),
    finished("calibrate-apply-to-file", ["calibrate", "$samples", "--apply-to", "$scenario"],
             "method: one\nE: 0.25\nzeta: +1\ngamma: 0.25\nin_range: true\n" + CALIBRATED,
             {**SCENARIO, **ONE_PAIR}, artifacts=("calibrated_config.json",),
             facts={"calibrated_config.json:predictor.gamma": 0.25}),
]
FINISHED_ROWS = {row.id: row for row in FINISHED}
# The artifacts each FINISHED row wrote, by id, for the rows that point at it
WRITTEN = {}


def ran(name, *args, **kwargs):
    raise AssertionError(f"{name} ran for an input rejected before the run")


def prepare(row, tmp):
    """Write ``row``'s files into the directory ``tmp``; returns the
    ``$`` names and the function that fills them into a template."""
    paths = {"tmp": str(tmp), "out": str(tmp / row.out)}
    for name, content in row.files.items():
        path = paths[name] = tmp / name
        path.parent.mkdir(parents=True, exist_ok=True)
        if content is None:
            path.mkdir()
        elif isinstance(content, int):
            with open(path, "wb") as handle:
                handle.truncate(content)
        else:
            path.write_bytes(content if isinstance(content, bytes) else content.encode())
    return paths, lambda a: string.Template(a).substitute(paths) if isinstance(a, str) else a


def fact(name, path, data, want):
    """What the artifact ``name``, of bytes ``data``, shows where the fact
    ``want`` looks: its line count, its sha256, or the value at ``path``."""
    if isinstance(want, Lines):
        return Lines(data.count(b"\n"))
    if isinstance(want, Digest):
        return Digest(hashlib.sha256(data).hexdigest())
    if not name.endswith(".json"):
        return data.decode().splitlines()[int(path)]
    value = json.loads(data)
    for part in path.split("."):
        value = value[int(part) if isinstance(value, list) else part]
    return value


@pytest.mark.parametrize("row", REJECTED + FINISHED, ids=[row.id for row in REJECTED + FINISHED])
def test_command(tmp_path, monkeypatch, capsys, row):
    """Run the row and hold it to exactly its exit code, stdout, stderr,
    artifacts and facts.  Every JSON artifact holds no Infinity or NaN,
    each call leaves no child process, reads no trace file twice and, if
    it writes a snapshot, just the trace that names, and an exit 2 before
    the run calls neither ``run_scenario`` nor ``compare_strategies``.  A
    run or compare that finishes rewrites its table and snapshot from
    that snapshot (a compare keeping its ``--seeds`` and ``--strategies``),
    and a compare writes them at ``--workers`` 1, 2 and 3 alike.  A row
    whose snapshot is ``Same`` as a twin's leaves its rerun to the twin."""
    paths, fill = prepare(row, tmp_path)
    monkeypatch.chdir(tmp_path)
    for key, value in row.env.items():
        monkeypatch.setenv(key, fill(value))
    reads, read = [], ncsim.losses.read_trace_file
    monkeypatch.setattr(ncsim.losses, "read_trace_file",
                        lambda path: reads.append(path) or read(path))

    def call(argv, out):
        reads.clear()
        code = main(argv)
        assert len(reads) == len(set(reads))
        snapshot = out / "resolved_config.json"
        if code != EXIT_CONFIG and snapshot.exists():
            loss = json.loads(snapshot.read_bytes())["loss"]
            assert reads == [loss.get("trace_path")] * (loss["kind"] == "trace")
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
        return code

    out = tmp_path / row.out
    present = set(os.listdir(out)) if os.path.isdir(out) else set()
    if row.code == EXIT_CONFIG and not row.after_run:
        for name in ("run_scenario", "compare_strategies"):
            monkeypatch.setattr(ncsim.cli, name, functools.partial(ran, name))
    argv = [*map(fill, row.argv)]
    assert call(argv if OUT_ENV_VAR in row.env else [*argv, "--out", str(out)], out) == row.code
    if row.reason:
        function, *args = map(fill, row.reason)
        try:
            paths["reason"] = str(function(*args))
        except Exception as exc:
            paths["reason"] = str(exc)
    assert capsys.readouterr() == (fill(row.stdout), fill(row.stderr))
    if row.artifacts is None:
        assert not os.path.exists(out)
        return
    assert set(os.listdir(out)) - present == set(row.artifacts)
    written = WRITTEN[row.id] = {name: (out / name).read_bytes() for name in row.artifacts}
    for name, data in written.items():
        if name.endswith(".json"):
            json.loads(data, parse_constant=lambda word: pytest.fail(f"{name}: {word}"))
    for key, want in row.facts.items():
        name, _, path = key.partition(":")
        if isinstance(want, Same):
            if want not in WRITTEN:  # the twin runs in its own directory
                twin, same = FINISHED_ROWS[want], tmp_path / "same" / "out"
                assert call([*map(prepare(twin, same.parent)[1], twin.argv), "--out", str(same)],
                            same) == twin.code
                WRITTEN[want] = artifacts(same)
            got, want = written[name], WRITTEN[want][name]
        else:
            got = fact(name, path, written[name], want)
        assert (key, type(got), got) == (key, type(want), want)

    command, table = argv[0], {"run": "trace.csv", "compare": "comparison.csv"}.get(argv[0])
    if table is None or row.code == EXIT_CONFIG or isinstance(
            row.facts.get("resolved_config.json"), Same):
        return
    flags = dict(zip(argv, argv[1:]))
    kept = [a for f in ("--seeds", "--strategies") if f in flags for a in (f, flags[f])]
    # the rerun, and a compare's argv once more, at the worker counts it did not use
    workers = [""] if command == "run" else [n for n in "123" if n != flags.get("--workers", "1")]
    snapshot = str(out / "resolved_config.json")
    for count, again in zip(workers, ([command, snapshot, *kept], argv)):
        rerun = tmp_path / f"rerun{count}"
        assert call([*again, *(["--workers", count] * bool(count)), "--out", str(rerun)],
                    rerun) == row.code
        for name in (table, "resolved_config.json"):
            assert (rerun / name).read_bytes() == written[name], (count, name)
    capsys.readouterr()


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

    # the run and compare are FINISHED rows
    @pytest.mark.parametrize("argv", [
        *([*FINISHED_ROWS[id].argv, "--out", "out"] for id in ("round-trip-bernoulli",
                                                              "compare-round-trip")),
        ["--help"], ["run", "--bogus"],
    ], ids=["run", "compare", "help", "usage-error"])
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
            done = run_fresh(argv, env=buffered_env(COLUMNS="80"), cwd=fresh, stdout=out,
                             stderr=err, timeout=60)
        assert done.returncode == code
        assert (fresh / "stdout").read_text() == want.out
        assert (fresh / "stderr").read_text() == want.err
        assert artifacts(fresh / "out") == artifacts(here / "out")

    @pytest.mark.parametrize("unbuffered", [True, False], ids=["unbuffered", "buffered"])
    @pytest.mark.parametrize("argv", [["run", *SHORT_RUN], [
        "compare", *SHORT_RUN, "--seeds", "2", "--workers", "2"]], ids=["run", "compare"])
    def test_closed_stdout_is_one_line_and_exit_1(self, tmp_path, argv, unbuffered):
        env = buffered_env(PYTHONUNBUFFERED="1") if unbuffered else buffered_env()
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            done = run_fresh([*argv, "--out", str(tmp_path / "fresh")], env=env, stdout=write_end,
                             stderr=subprocess.PIPE, text=True, timeout=60)
        finally:
            os.close(write_end)
        assert done.stderr == "ncsim: cannot write standard output: Broken pipe\n"
        assert done.returncode == 1
        # every artifact was complete before the first print
        assert main([*argv, "--out", str(tmp_path / "main")]) == EXIT_OK
        assert artifacts(tmp_path / "fresh") == artifacts(tmp_path / "main")


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs os.mkfifo")
class TestFifoInputs:
    """A FIFO with no writer reads as empty, so it exits 2 instead of
    leaving the command waiting in ``open`` for a writer."""

    @pytest.mark.parametrize("argv", [
        ["run", "{fifo}"], ["run", "tank-reference", "--loss", "trace:{fifo}"],
        ["calibrate", "{fifo}"],
    ], ids=["scenario", "trace", "samples"])
    def test_fifo_without_writer_exits_2(self, tmp_path, argv):
        fifo = tmp_path / "fifo"
        os.mkfifo(fifo)
        done = run_fresh([*(arg.format(fifo=fifo) for arg in argv), "--out", str(tmp_path / "o")],
                         capture_output=True, text=True, timeout=60)
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
            return main([*argv, *SHORT, "--out", out])
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
        for name, rows in (("fits", SAMPLES["samples"]), ("wide", HEADER + "a,1.0,10.0\n"),
                           ("huge", HEADER + "a,1e200,-1e200\n")):
            (tmp_path / f"{name}.csv").write_text(rows)
        samples = [str(tmp_path / f"{name}.csv") for name in ("fits", "wide", "huge")]
        command = data.draw(st.sampled_from(sorted(FLAGS)), label="command")
        positional = st.sampled_from(samples if command == "calibrate" else ["tank-reference"])
        flags = FLAGS[command]
        if junk:
            positional |= st.sampled_from([str(bits), "nowhere"]) | st.text()
            flags = {name: (value | (loss_texts if name == "--loss" else st.text()))
                     if name in TEXT_FLAGS else value for name, value in flags.items()}
        argv = [command, data.draw(positional, label="positional")]
        for name in data.draw(st.lists(st.sampled_from(sorted(flags)), max_size=4), label="flags"):
            argv.append(name)
            if flags[name] is not None:
                argv.append(data.draw(flags[name], label=name).replace("{bits}", str(bits)))
        if junk:
            at = data.draw(st.integers(min_value=0, max_value=len(argv)), label="at")
            argv[at:at] = data.draw(st.lists(st.text(), max_size=2), label="tokens")
        if command != "calibrate":
            argv += SHORT
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
