"""Command-line front end: run, compare, calibrate.

Every run writes three artifacts into the output directory: the
per-interval trace CSV, a resolved-config snapshot with all defaults
and overrides materialized, and a JSON summary.  Re-running the
snapshot reproduces the trace byte for byte, so sugar flags such as
``--seed`` and ``--loss`` are folded into the config before anything
executes.

Exit codes: 0 success, 1 standard output cannot be written (``entry``
only), 2 config error, 3 simulation divergence, 4 calibration out of
range.
"""

import argparse
import json
import math
import os
import sys
from typing import Optional, Sequence

from .errors import PATH_LIMIT, ConfigError, SimulationDiverged, attempt, clipped, read_input
from .losses import LOSS_KEYS, SEEDED_KINDS
from .predictor import calibration, gamma_in_range, read_sample_pairs
from .runtime import (
    STRATEGIES,
    TraceWriter,
    check_compare_size,
    check_strategies,
    compare_strategies,
    run_scenario,
    write_comparison_csv,
)
from .scenario import (
    BUILTIN_SCENARIOS,
    apply_overrides,
    builtin_scenario_dict,
    json_text,
    resolved_json,
    scenario_from_dict,
)

EXIT_OK = 0
EXIT_STDOUT = 1
EXIT_CONFIG = 2
EXIT_DIVERGED = 3
EXIT_CALIBRATION = 4

OUT_ENV_VAR = "NCSIM_OUT"


def _output_dir(arg: Optional[str]) -> str:
    path = arg or os.environ.get(OUT_ENV_VAR) or "."
    attempt("cannot create output directory {}", path, os.makedirs, path, exist_ok=True)
    return path


def _scenario_document(ref: str) -> dict:
    """Resolve a scenario reference: built-in name first, then file path."""
    if ref in BUILTIN_SCENARIOS:
        return builtin_scenario_dict(ref)
    shown = clipped(ref, PATH_LIMIT)
    if os.path.exists(ref):
        try:
            doc = json.loads(attempt("cannot read scenario file {}", ref, read_input, ref))
        except ConfigError:  # unreadable, or longer than the input cap
            raise
        except (ValueError, RecursionError) as exc:
            # undecodable bytes and nesting past the recursion limit too
            raise ConfigError(f"scenario file {shown} is not valid JSON: {exc}") from exc
        if not isinstance(doc, dict):
            raise ConfigError(f"scenario file {shown} must hold a JSON object")
        return doc
    known = ", ".join(sorted(BUILTIN_SCENARIOS))
    raise ConfigError(f"scenario {shown} is neither a built-in ({known}) nor an existing file")


def _parse_loss_flag(spec: str) -> dict:
    """Translate the ``--loss`` shorthand into a loss config section.

    Grammar: ``none``, ``bernoulli:P``, ``gilbert-elliott:PGB,PBG,PLOSS``
    (alias ``ge:``), ``trace:PATH`` or ``trace:PATH:wrap``.  The numbers
    are the kind's keys in ``LOSS_KEYS`` order.  The seed is filled in
    from the surrounding config afterwards.
    """
    kind, _, rest = spec.partition(":")
    kind = "gilbert-elliott" if kind == "ge" else kind
    if kind == "trace":
        if not rest:
            raise ConfigError(f"--loss trace needs a file path, got {clipped(spec)}")
        path, _, flag = rest.rpartition(":")
        if path and flag == "wrap":
            return {"kind": "trace", "trace_path": path, "wrap": True}
        return {"kind": "trace", "trace_path": rest}
    if kind not in LOSS_KEYS:
        raise ConfigError(f"unknown loss kind {clipped(kind)} in --loss {clipped(spec)}")
    keys = LOSS_KEYS[kind]
    parts = rest.split(",") if rest else []
    if len(parts) != len(keys):
        wanted = ",".join(keys) or "no arguments"
        raise ConfigError(f"--loss {kind} takes {wanted}, got {clipped(spec)}")
    try:
        return {"kind": kind, **{key: float(part) for key, part in zip(keys, parts)}}
    except ValueError as exc:
        raise ConfigError(f"--loss {kind} parameters must be numbers: {clipped(spec)}") from exc


def _int_flag(text: str) -> int:
    """An integer flag's value; a bad one is quoted clipped, where argparse
    would quote the whole of it."""
    try:
        return int(text)
    except ValueError:  # not a number, or past int's digit limit
        raise argparse.ArgumentTypeError(f"invalid int value: {clipped(text)}") from None


def _apply_common_flags(doc: dict, args) -> dict:
    """Fold sugar flags into the scenario document, then --set overrides."""
    if args.loss is not None:
        existing = doc.get("loss")
        section = _parse_loss_flag(args.loss)
        if section["kind"] in SEEDED_KINDS and isinstance(existing, dict) and "seed" in existing:
            section["seed"] = existing["seed"]
        doc = dict(doc, loss=section)
    overrides = [] if args.seed is None else [f"loss.seed={args.seed}"]
    if getattr(args, "strategy", None) is not None:
        overrides.append(f"strategies={json.dumps([args.strategy])}")
    overrides += args.set
    return apply_overrides(doc, overrides) if overrides else doc


def _write(write, *args):
    """``write(*args)`` to the path ``args[-1]``, a ConfigError if it cannot."""
    return attempt("cannot write {}", args[-1], write, *args)


def _write_text(text: str, path: str) -> None:
    with open(path, "w", newline="") as handle:
        handle.write(text)


def _run_into_trace(scenario, strategy: str, path: str):
    """Run ``strategy``, writing each ``trace.csv`` row to ``path`` as its
    interval completes.  Returns the run's ``RunStats`` and the divergence,
    None or the ``SimulationDiverged``."""
    with open(path, "w", newline="") as handle:
        try:
            return run_scenario(scenario, strategy, TraceWriter(handle)), None
        except SimulationDiverged as exc:
            return exc.stats, exc


def cmd_run(args) -> int:
    scenario = scenario_from_dict(_apply_common_flags(_scenario_document(args.scenario), args))
    strategy = scenario.strategies[0]
    out = _output_dir(args.out)
    _write(_write_text, resolved_json(scenario), os.path.join(out, "resolved_config.json"))

    stats, diverged = _write(
        _run_into_trace, scenario, strategy, os.path.join(out, "trace.csv")
    )

    setpoint = scenario.controller.setpoint
    initial_dev = abs(scenario.sim.x0 - setpoint)
    summary = {
        "scenario": args.scenario,
        "strategy": strategy,
        "steps": stats.steps,
        "loss_count": stats.loss_count,
        "diverged": diverged is not None,
    }
    if diverged is None:
        ratio = abs(stats.x_final - setpoint) / initial_dev if initial_dev > 0 else math.inf
        summary["x_final"] = stats.x_final
        # null when x0 is the setpoint or the ratio is past float range
        summary["deviation_ratio"] = ratio if ratio < math.inf else None
        summary["j_total"] = stats.j_total
        summary["j_m_steps"] = stats.j_m_steps
    else:
        summary["diverged_step"] = diverged.step
        summary["reason"] = diverged.reason
    _write(_write_text, json_text(summary), os.path.join(out, "summary.json"))

    if diverged is not None:
        print(f"diverged at step {diverged.step}: {diverged.reason}", file=sys.stderr)
        print(f"wrote partial trace ({stats.steps} steps) to {out}", file=sys.stderr)
        return EXIT_DIVERGED
    print(
        f"{strategy}: {stats.steps} steps, x_final={stats.x_final!r}, "
        f"deviation_ratio={summary['deviation_ratio']!r}, "
        f"J={summary['j_m_steps']!r}, losses={stats.loss_count}"
    )
    print(f"wrote trace.csv, resolved_config.json, summary.json to {out}")
    return EXIT_OK


def cmd_compare(args) -> int:
    scenario = scenario_from_dict(_apply_common_flags(_scenario_document(args.scenario), args))
    strategies = None
    if args.strategies is not None:
        names = (name.strip() for name in args.strategies.split(","))
        strategies = check_strategies([name for name in names if name], "--strategies")
    check_compare_size(args.seeds, args.workers, "--seeds", "--workers")
    out = _output_dir(args.out)
    _write(_write_text, resolved_json(scenario), os.path.join(out, "resolved_config.json"))
    result = compare_strategies(
        scenario, strategies=strategies, n_seeds=args.seeds, workers=args.workers
    )
    if len(result.seeds) < args.seeds:
        print(
            f"note: loss.kind {scenario.loss.kind!r} ignores the seed; "
            f"ran seed {result.seeds[0]} once instead of {args.seeds} paired seeds",
            file=sys.stderr,
        )

    _write(write_comparison_csv, result, os.path.join(out, "comparison.csv"))
    medians = {name: result.median_cost(name) for name in result.strategies}
    wins = {
        a: {b: result.count_wins(a, b) for b in result.strategies if b != a}
        for a in result.strategies
    }
    summary = {
        "scenario": args.scenario,
        "strategies": list(result.strategies),
        "seeds": list(result.seeds),
        "median_j": medians,
        "wins": wins,
        "diverged": {name: result.diverged_count(name) for name in result.strategies},
    }
    _write(_write_text, json_text(summary), os.path.join(out, "summary.json"))

    for name in result.strategies:
        print(f"{name}: median_j={medians[name]!r} diverged={summary['diverged'][name]}")
    for a in result.strategies:
        for b in result.strategies:
            if a < b:
                print(f"wins {a} vs {b}: {wins[a][b]}-{wins[b][a]} of {len(result.seeds)}")
    print(f"wrote comparison.csv, resolved_config.json, summary.json to {out}")
    return EXIT_OK


def cmd_calibrate(args) -> int:
    pairs = attempt("cannot load samples from {}", args.samples, read_sample_pairs, args.samples,
                    errors=(OSError, ValueError))

    if args.method == "one":  # every sample in a single recording
        pairs = [(
            [value for pair in pairs for value in pair.predicted],
            [value for pair in pairs for value in pair.measured],
        )]
    try:
        e_values, e, zeta, gamma = calibration(pairs)
    except ArithmeticError as exc:  # an OverflowError's args are (errno, message)
        raise ConfigError(f"samples are degenerate: {exc.args[-1]}") from exc
    in_range = gamma_in_range(gamma)
    # --apply-to is parsed before the verdict, with gamma put in once known,
    # and the report printed last, so every exit 2 leaves stdout empty
    scenario = None if args.apply_to is None else scenario_from_dict(
        apply_overrides(_scenario_document(args.apply_to), ["predictor.gamma=0.0"])
    )

    report = [f"method: {args.method}"]
    if args.method == "two":
        report += [f"E_{index}: {e_i!r}" for index, e_i in enumerate(e_values)]
    report += [f"E: {e!r}", f"zeta: {zeta:+d}", f"gamma: {gamma!r}",
               f"in_range: {'true' if in_range else 'false'}"]

    if not in_range:
        if not args.clamp_gamma:
            print("\n".join(report))
            print("gamma magnitude >= 1; pass --clamp-gamma to clip into range", file=sys.stderr)
            return EXIT_CALIBRATION
        bound = math.nextafter(1.0, 0.0)
        gamma = bound if gamma > 0 else -bound
        report.append(f"gamma_clamped: {gamma!r}")

    if scenario is not None:
        scenario = scenario._replace(predictor=scenario.predictor._replace(gamma=gamma))
        path = os.path.join(_output_dir(args.out), "calibrated_config.json")
        _write(_write_text, resolved_json(scenario), path)
        report.append(f"wrote {path}")
    print("\n".join(report))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ncsim",
        description="Networked control simulation with dropout compensation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("scenario", help="built-in scenario name or path to a config JSON")
    common.add_argument("--seed", type=_int_flag, default=None, help="override the loss seed")
    common.add_argument(
        "--set",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="override a config entry, e.g. predictor.gamma=0.2 (repeatable)",
    )
    common.add_argument(
        "--loss",
        default=None,
        metavar="SPEC",
        help="replace the loss channel: none | bernoulli:P | gilbert-elliott:PGB,PBG,PLOSS | trace:PATH[:wrap]",
    )
    common.add_argument("--out", default=None, help=f"output directory (default ${OUT_ENV_VAR} or .)")

    p_run = sub.add_parser("run", parents=[common], help="simulate one strategy, write a trace")
    p_run.add_argument(
        "--strategy",
        choices=STRATEGIES,
        default=None,
        help="strategy to run (default: first in the scenario's list)",
    )
    p_run.set_defaults(func=cmd_run)

    p_cmp = sub.add_parser(
        "compare", parents=[common], help="paired-seed cost comparison of strategies"
    )
    p_cmp.add_argument(
        "--strategies", default=None, help="comma-separated subset to compare"
    )
    p_cmp.add_argument("--seeds", type=_int_flag, default=10, help="number of paired seeds")
    p_cmp.add_argument("--workers", type=_int_flag, default=1, help="processes running the cells, this one included")
    p_cmp.set_defaults(func=cmd_compare)

    p_cal = sub.add_parser("calibrate", help="estimate the prediction correction factor")
    p_cal.add_argument("samples", help="CSV with columns pair_id,predicted,measured")
    p_cal.add_argument("--method", choices=("one", "two"), default="one")
    p_cal.add_argument(
        "--clamp-gamma",
        action="store_true",
        help="clip an out-of-range result into (-1, 1) instead of failing",
    )
    p_cal.add_argument(
        "--apply-to",
        default=None,
        metavar="SCENARIO",
        help="write a config snapshot of SCENARIO with the calibrated gamma",
    )
    p_cal.add_argument("--out", default=None, help=f"output directory (default ${OUT_ENV_VAR} or .)")
    p_cal.set_defaults(func=cmd_calibrate)
    return parser


_parser: Optional[argparse.ArgumentParser] = None


def main(argv: Optional[Sequence[str]] = None) -> int:
    # one parser per process, built on first use: nothing in it depends on
    # argv, and parsing leaves it as it was (``append`` copies its default)
    global _parser
    if _parser is None:
        _parser = build_parser()
    args = _parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


def _stdout_lost(exc: OSError) -> int:
    print(f"ncsim: cannot write standard output: {exc.strerror or exc}", file=sys.stderr)
    return EXIT_STDOUT


def entry() -> None:
    """The ``ncsim`` command: ``main()`` on ``sys.argv``, then ``os._exit``.

    Once ``main`` has returned and standard output and error are flushed,
    the process ends without the interpreter's final collection and module
    teardown.  That is safe because every artifact is written in a
    ``with open(...)`` block that closes before ``main`` returns, and
    nothing is registered with ``atexit``; code added to the commands
    keeps both rules.  A ``BrokenPipeError`` from ``main`` or an
    ``OSError`` from the flush is one line on stderr and exit status 1.
    A ``SystemExit`` (``--help``, a usage error), ``KeyboardInterrupt``
    and any other exception leave through the normal interpreter exit.
    ``main`` itself only returns or raises, so in-process callers keep it.
    """
    try:
        code = main()
    except BrokenPipeError as exc:  # a print into a closed pipe
        code = _stdout_lost(exc)
    else:
        try:
            sys.stdout.flush()
        except OSError as exc:  # a closed pipe or a full disk
            code = _stdout_lost(exc)
    sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    entry()
