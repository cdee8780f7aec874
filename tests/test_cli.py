import json
import os
import subprocess
import sys
import tempfile
import threading
import time

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import ncsim
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

from conftest import RUN_KEYS, json_values


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

    @pytest.mark.parametrize("command", ["run", "compare"])
    def test_exhausted_trace_is_a_config_error(self, scenario_file, tmp_path, capsys, command):
        bits = tmp_path / "bits.txt"
        bits.write_text("1\n0\n1\n")
        out = tmp_path / "out"
        rc = main([command, scenario_file(), "--loss", f"trace:{bits}", "--out", str(out)])
        assert rc == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error: loss.trace_path ")
        for needle in ("holds 3 bits", "60 steps of sim.duration 120.0", "loss.wrap is false"):
            assert needle in err
        assert "Traceback" not in err
        # rejected when the scenario is parsed, before the output directory
        assert not out.exists()

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

    def test_unknown_scenario_reference(self, tmp_path, capsys):
        rc = main(["run", "no-such-scenario", "--out", str(tmp_path / "out")])
        assert rc == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "config error" in err
        assert "tank-reference" in err

    def test_bad_override_path(self, scenario_file, tmp_path):
        rc = main(
            ["run", scenario_file(), "--set", "nope.key=1", "--out", str(tmp_path / "o")]
        )
        assert rc == EXIT_CONFIG

    @pytest.mark.parametrize(
        "spec",
        [
            "bogus:1",
            "bernoulli:xyz",
            "ge:0.1,0.4",
            "none:0",
            "bernoulli:1.5",
            "bernoulli:nan",
            "ge:0.1,2,0.5",
        ],
    )
    def test_bad_loss_flag(self, scenario_file, tmp_path, spec):
        rc = main(["run", scenario_file(), "--loss", spec, "--out", str(tmp_path / "o")])
        assert rc == EXIT_CONFIG

    @pytest.mark.parametrize(
        "assignment",
        [
            "sim.duration=Infinity",
            "sim.theta=NaN",
            "cost.q_c=NaN",
            "plant.rho=NaN",
            "controller.u_min=-Infinity",
        ],
    )
    def test_non_finite_number_is_config_error(
        self, scenario_file, tmp_path, capsys, assignment
    ):
        rc = main(
            ["run", scenario_file(), "--set", assignment, "--out", str(tmp_path / "o")]
        )
        assert rc == EXIT_CONFIG
        key = assignment.partition("=")[0]
        assert f"{key} must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "assignment, keys",
        [
            ("controller.lgv_threshold=0", ["controller.lgv_threshold"]),
            ("controller.u_min=2", ["controller.u_min", "u_max"]),
            ("controller.u_max=-1", ["controller.u_min", "u_max"]),
            ("cost.m_steps=0", ["cost.m_steps"]),
            ("cost.q_c=-1", ["cost.q_c"]),
            ("cost.r_c=-1", ["cost.r_c"]),
        ],
    )
    def test_constructor_range_error_names_its_key(
        self, scenario_file, tmp_path, capsys, assignment, keys
    ):
        out = tmp_path / "o"
        rc = main(["run", scenario_file(), "--set", assignment, "--out", str(out)])
        assert rc == EXIT_CONFIG
        err = capsys.readouterr().err
        for key in keys:
            assert key in err
        assert not (out / "resolved_config.json").exists()

    @pytest.mark.parametrize(
        "assignments, key",
        [
            (["sim.duration=1e12"], "sim.duration"),
            (["sim.t_s=1e-300"], "sim.t_s"),
            (["sim.duration=1e300", "sim.t_s=1e-10"], "sim.duration"),
            (["sim.n_truth=100000000"], "sim.n_truth"),
            (["sim.n_truth=0"], "sim.n_truth"),
            # 10 000 predictor steps per interval, at two entries per interval
            (["predictor.horizon=2", "predictor.delta=2e-4"], "predictor.horizon"),
            (["predictor.delta=1e-300"], "predictor.delta"),
        ],
    )
    def test_run_size_is_capped_at_parse_time(self, tmp_path, capsys, assignments, key):
        out = tmp_path / "o"
        argv = ["run", "tank-reference", "--loss", "bernoulli:0.3", "--out", str(out)]
        for assignment in assignments:
            argv += ["--set", assignment]
        assert main(argv) == EXIT_CONFIG
        assert key in capsys.readouterr().err
        # rejected before the resolved snapshot is written
        assert not (out / "resolved_config.json").exists()

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

    def test_controller_overflow_is_a_divergence(self, tmp_path):
        argv = [
            sys.executable, "-m", "ncsim", "run", "tank-reference", "--set", "plant.p1=1e308",
            "--set", "sim.duration=20", "--set", "cost.m_steps=10", "--out", str(tmp_path),
        ]
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(ncsim.__file__)))
        done = subprocess.run(argv, env=env, capture_output=True, text=True, check=False)
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


class TestInputFiles:
    @pytest.mark.parametrize("command", ["run", "compare"])
    @pytest.mark.parametrize(
        "content", [None, b"1\n2\n", b"\xff\n", b""], ids=["missing", "two", "0xff", "empty"]
    )
    def test_bad_trace_file_is_rejected_at_parse_time(
        self, scenario_file, tmp_path, capsys, command, content
    ):
        trace = tmp_path / "bits.txt"
        if content is not None:
            trace.write_bytes(content)
        out = tmp_path / "o"
        argv = [command, scenario_file(), "--loss", f"trace:{trace}", "--out", str(out)]
        assert main(argv) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "loss.trace_path" in err
        assert "Traceback" not in err
        assert not (out / "resolved_config.json").exists()

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

    def test_non_utf8_scenario_file(self, tmp_path, capsys):
        path = tmp_path / "latin1.json"
        path.write_bytes('{"plant": "\u00e9"}'.encode("latin-1"))
        assert main(["run", str(path), "--out", str(tmp_path / "o")]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert str(path) in err and "utf-8" in err

    def test_deeply_nested_scenario_file(self, tmp_path, capsys):
        path = tmp_path / "deep.json"
        path.write_text("[" * 3000 + "]" * 3000)
        assert main(["run", str(path), "--out", str(tmp_path / "o")]) == EXIT_CONFIG
        assert str(path) in capsys.readouterr().err

    @pytest.mark.parametrize("text", ["[1, 2]", '"plant"', "3", "null"])
    @pytest.mark.parametrize(
        "argv",
        [["run", "{path}", "--loss", "none"], ["run", "{path}", "--set", "loss=1"],
         ["calibrate", "{samples}", "--apply-to", "{path}"]],
        ids=["loss-flag", "set-flag", "apply-to"],
    )
    def test_non_object_scenario_file(self, tmp_path, capsys, text, argv):
        path = tmp_path / "doc.json"
        path.write_text(text)
        samples = write_samples(tmp_path, ["a,1.0,1.1\n", "a,2.0,2.1\n", "b,1.5,1.4\n"])
        out = tmp_path / "o"
        argv = [arg.format(path=path, samples=samples) for arg in argv]
        assert main([*argv, "--out", str(out)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert f"config error: scenario file {str(path)!r} must hold a JSON object" in err
        assert not out.exists()

    def test_deeply_nested_override(self, tmp_path, capsys):
        value = "[" * 3000 + "]" * 3000
        out = tmp_path / "o"
        argv = ["run", "tank-reference", "--set", f"sim.theta={value}", "--out", str(out)]
        assert main(argv) == EXIT_CONFIG
        assert "sim.theta" in capsys.readouterr().err
        assert not out.exists()


ENDLESS = "/dev/zero"


@pytest.mark.skipif(not os.path.exists(ENDLESS), reason="needs /dev/zero")
class TestBoundedReads:
    @pytest.mark.parametrize(
        "argv, key",
        [
            (["run", ENDLESS], None),
            (["run", "tank-reference", "--loss", f"trace:{ENDLESS}"], "loss.trace_path"),
            (["compare", "tank-reference", "--loss", f"trace:{ENDLESS}"], "loss.trace_path"),
            (["calibrate", ENDLESS], None),
            (["calibrate", "--apply-to", ENDLESS, "{samples}"], None),
        ],
        ids=["scenario", "run-trace", "compare-trace", "samples", "apply-to"],
    )
    def test_endless_file_exits_2(self, tmp_path, capsys, argv, key):
        samples = tmp_path / "samples.csv"
        samples.write_text("pair_id,predicted,measured\n0,1.0,1.1\n")
        argv = [arg.format(samples=samples) for arg in argv]
        assert main([*argv, "--out", str(tmp_path / "o")]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert f"{ENDLESS!r} is longer than {ncsim.errors.MAX_INPUT_BYTES} bytes" in err
        assert key is None or key in err
        assert "Traceback" not in err
        assert not (tmp_path / "o" / "resolved_config.json").exists()


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
        src = os.path.dirname(os.path.dirname(os.path.abspath(ncsim.__file__)))
        done = subprocess.run(
            [sys.executable, "-m", "ncsim", *(arg.format(fifo=fifo) for arg in argv),
             "--out", str(tmp_path / "o")],
            env=dict(os.environ, PYTHONPATH=src),
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


class TestUnwritableArtifacts:
    @pytest.mark.parametrize(
        "command, artifact",
        [
            ("run", "resolved_config.json"),
            ("run", "trace.csv"),
            ("run", "summary.json"),
            ("compare", "resolved_config.json"),
            ("compare", "comparison.csv"),
            ("calibrate", "calibrated_config.json"),
        ],
    )
    def test_directory_in_the_way_exits_2(
        self, scenario_file, tmp_path, capsys, command, artifact
    ):
        out = tmp_path / "o"
        blocked = out / artifact
        blocked.mkdir(parents=True)
        argv = {
            "run": ["run", scenario_file()],
            "compare": ["compare", scenario_file(), "--seeds", "1"],
            "calibrate": [
                "calibrate", write_samples(tmp_path, ["a,1.0,1.5\n"]),
                "--apply-to", scenario_file(),
            ],
        }[command]
        assert main([*argv, "--out", str(out)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert f"cannot write {str(blocked)!r}" in err
        assert "Traceback" not in err


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

    @pytest.mark.parametrize("kind", ["scenario", "trace", "samples"])
    def test_each_input_goes_through_the_cap(self, tmp_path, monkeypatch, capsys, kind):
        monkeypatch.setattr(ncsim.errors, "MAX_INPUT_BYTES", 16)
        path = tmp_path / "long"
        path.write_text("1\n" * 9)
        argv = {
            "scenario": ["run", str(path)],
            "trace": ["run", "tank-reference", "--loss", f"trace:{path}"],
            "samples": ["calibrate", str(path)],
        }[kind]
        assert main([*argv, "--out", str(tmp_path / "o")]) == EXIT_CONFIG
        assert f"{str(path)!r} is longer than 16 bytes" in capsys.readouterr().err

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

    def test_negative_seed_is_a_config_error(self, scenario_file, tmp_path, capsys):
        # random.Random(-1) draws seed 1's stream, so seeds -1, 0 and 1 would
        # count one loss realization twice
        rc = main(
            [
                "compare", scenario_file(), "--loss", "bernoulli:0.3", "--seed", "-1",
                "--seeds", "3", "--out", str(tmp_path / "out"),
            ]
        )
        assert rc == EXIT_CONFIG
        assert "loss.seed must be non-negative, got -1" in capsys.readouterr().err
        assert not (tmp_path / "out" / "comparison.csv").exists()

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

    def test_failing_cell_exits_alike_at_any_worker_count(self, scenario_file, tmp_path, capsys):
        bits = tmp_path / "bits.txt"
        bits.write_text("1\n0\n1\n")  # shorter than the run, and no wrap: rejected when parsed
        errors = []
        for workers in ("1", "2"):
            argv = [
                "compare", scenario_file(), "--loss", f"trace:{bits}", "--strategies",
                "hold-last-value,zero-input", "--workers", workers, "--out", str(tmp_path / workers),
            ]
            assert main(argv) == EXIT_CONFIG
            errors.append(capsys.readouterr().err)
            with pytest.raises(ChildProcessError):
                os.waitpid(-1, os.WNOHANG)
        assert errors[0] == errors[1]
        assert errors[0].startswith("config error: ")

    @pytest.mark.parametrize("seeds", ["10001", "1000000000000"])
    def test_seed_count_is_capped_before_any_artifact(
        self, scenario_file, tmp_path, capsys, monkeypatch, seeds
    ):
        def must_not_run(*args, **kwargs):
            raise AssertionError("compare ran past the --seeds cap")

        # Without the cap the cell list alone would exhaust memory.
        monkeypatch.setattr(ncsim.cli, "compare_strategies", must_not_run)
        out = tmp_path / "o"
        path = scenario_file({"loss": {"kind": "bernoulli", "p": 0.3, "seed": 5}})
        assert main(["compare", path, "--seeds", seeds, "--out", str(out)]) == EXIT_CONFIG
        assert "--seeds" in capsys.readouterr().err
        assert not (out / "resolved_config.json").exists()

    @pytest.mark.parametrize("workers", ["65", "1000000", "0"])
    def test_worker_count_is_capped_before_any_artifact(
        self, scenario_file, tmp_path, capsys, monkeypatch, workers
    ):
        def must_not_run(*args, **kwargs):
            raise AssertionError("compare ran past the --workers cap")

        monkeypatch.setattr(ncsim.cli, "compare_strategies", must_not_run)
        out = tmp_path / "o"
        path = scenario_file({"loss": {"kind": "bernoulli", "p": 0.3, "seed": 5}})
        argv = ["compare", path, "--seeds", "10000", "--workers", workers, "--out", str(out)]
        assert main(argv) == EXIT_CONFIG
        assert "--workers" in capsys.readouterr().err
        assert not (out / "resolved_config.json").exists()

    def test_bad_arguments(self, scenario_file, tmp_path):
        path = scenario_file()
        assert main(["compare", path, "--seeds", "0", "--out", str(tmp_path / "o")]) == EXIT_CONFIG
        assert (
            main(
                [
                    "compare",
                    path,
                    "--strategies",
                    "nope",
                    "--out",
                    str(tmp_path / "o"),
                ]
            )
            == EXIT_CONFIG
        )

    @pytest.mark.parametrize("spec", ["teleport", "zero-input,zero-input", ",", " , "])
    def test_bad_strategies_are_rejected_before_any_artifact(
        self, scenario_file, tmp_path, capsys, monkeypatch, spec
    ):
        def must_not_run(*args, **kwargs):
            raise AssertionError("compare ran past a bad --strategies")

        monkeypatch.setattr(ncsim.cli, "compare_strategies", must_not_run)
        out = tmp_path / "o"
        argv = ["compare", scenario_file(), "--strategies", spec, "--out", str(out)]
        assert main(argv) == EXIT_CONFIG
        assert "config error: --strategies" in capsys.readouterr().err
        assert not (out / "resolved_config.json").exists()


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
        rc = main(["calibrate", path])
        assert rc == EXIT_CALIBRATION
        captured = capsys.readouterr()
        assert "in_range: false" in captured.out
        assert "clamp" in captured.err

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

    def test_degenerate_samples_are_config_error(self, tmp_path, capsys):
        path = write_samples(tmp_path, ["a,1.0,1.0\n", "a,-1.0,1.0\n"])
        rc = main(["calibrate", path])
        assert rc == EXIT_CONFIG
        assert "degenerate" in capsys.readouterr().err

    @pytest.mark.parametrize("row", ["a,1e200,-1e200\n", "a,1e308,-1e308\n"])
    def test_non_finite_statistics_are_config_error(self, tmp_path, capsys, row):
        path = write_samples(tmp_path, [row])
        out = tmp_path / "out"
        argv = ["calibrate", path, "--clamp-gamma", "--apply-to", "tank-reference", "--out", str(out)]
        assert main(argv) == EXIT_CONFIG
        assert "samples are degenerate" in capsys.readouterr().err
        assert not (out / "calibrated_config.json").exists()

    def test_unreadable_samples_are_config_error(self, tmp_path):
        assert main(["calibrate", str(tmp_path / "absent.csv")]) == EXIT_CONFIG


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
