"""Sampled-data closed loop with dropout compensation strategies.

Each control interval [t_k, t_{k+1}) applies one constant input chosen
from the current measurement when it arrives, or from a compensation
strategy when it is lost:

* ``predictive-buffer`` applies the feedback to each received sample
  and replays a predicted input trajectory during losses, advancing one
  entry per lost interval and freezing at the last entry once the
  buffer is exhausted.  The trajectory is planned lazily: a reception
  records the measured state and applies entry 0 of its plan (the
  feedback at that state), and the first loss after it plans the rest
  from that state and step, or from the initial state when nothing has
  been received yet.  A plan that leaves the domain mid-horizon
  therefore makes the run diverge only when a loss replays it, at that
  loss.
* ``hold-last-value`` repeats the last applied input.
* ``zero-input`` applies zero.

The true state advances by the plant's RK4 kernel over the full
dynamics, ``n_truth`` substeps per interval, with theta looked up once
per interval unless its schedule changes inside it.
"""

import math
from dataclasses import dataclass
from typing import Optional, Sequence

from .controller import ControllerConfig, LyapunovSpec, sontag_input
from .errors import DomainError, NonFiniteError, SimulationDiverged, TrajectoryError
from .losses import LossModel
from .plant import SystemDynamics, UncertaintySignal, rk4_increment
from .predictor import ControlTrajectory, PredictorConfig, predict_trajectory

PREDICTIVE_BUFFER = "predictive-buffer"
HOLD_LAST_VALUE = "hold-last-value"
ZERO_INPUT = "zero-input"
STRATEGIES = (PREDICTIVE_BUFFER, HOLD_LAST_VALUE, ZERO_INPUT)

# Paired seeds one compare may ask for; the cell list is built up front.
MAX_COMPARE_SEEDS = 10_000
# Pool workers one compare may ask for; under fork all start at once.
MAX_COMPARE_WORKERS = 64

TRACE_HEADER = ("k", "t", "x_true", "x_pred", "s", "i", "u", "J_running")


@dataclass(frozen=True)
class SimulationRecord:
    """One control interval of a closed-loop run.

    Attributes:
        k: control-interval index.
        t: interval start time, t0 + k * t_s.
        x_true: plant state at t.
        x_pred: predicted state the applied input was computed for
            (None for strategies that do not predict).
        s: reception bit of the interval's measurement.
        i: buffer age, zero on reception and capped at the horizon.
        u: applied input.
        j_running: cumulative cost through this interval.
    """

    k: int
    t: float
    x_true: float
    x_pred: Optional[float]
    s: int
    i: int
    u: float
    j_running: float


@dataclass(frozen=True)
class CostWeights:
    """Quadratic stage-cost weights and evaluation horizon.

    The stage cost is q_c * (x - setpoint)^2 + r_c * u^2, with the
    undeviated state x under ``raw_state``; ``RunResult.cost`` reads a
    run's running cost after ``m_steps`` intervals.
    """

    q_c: float
    r_c: float
    m_steps: int
    raw_state: bool = False

    def __post_init__(self):
        for name, value in (("q_c", self.q_c), ("r_c", self.r_c)):
            if value < 0:
                raise ValueError(f"{name} must be non-negative, got {value!r}")
        if self.m_steps < 1:
            raise ValueError(f"m_steps must be >= 1, got {self.m_steps!r}")


@dataclass(frozen=True)
class SimSettings:
    """Initial state, sampling grid, and truth-integration refinement.

    ``doubled_age_offset`` switches the buffer replay rule during loss
    bursts: entry ``2i + 1`` after ``i`` consecutive losses rather than
    the entry matching the elapsed steps since the trajectory's origin.
    """

    x0: float
    t_s: float
    steps: int
    theta: UncertaintySignal
    n_truth: int = 20
    doubled_age_offset: bool = False

    def __post_init__(self):
        if not math.isfinite(self.x0):
            raise ValueError("x0 must be finite")
        if not self.t_s > 0:
            raise ValueError("t_s must be positive")
        if self.steps < 1:
            raise ValueError("steps must be >= 1")
        if self.n_truth < 1:
            raise ValueError(f"n_truth must be >= 1, got {self.n_truth!r}")


@dataclass(frozen=True)
class RunResult:
    """Records of a completed run plus the state after the last interval."""

    records: tuple[SimulationRecord, ...]
    x_final: float

    def cost(self, weights: CostWeights) -> float:
        """The run's cost: its running cost after ``weights.m_steps`` intervals."""
        return self.records[weights.m_steps - 1].j_running


def integrate_interval(
    dynamics: SystemDynamics,
    x: float,
    u: float,
    t_start: float,
    t_s: float,
    n_truth: int,
    theta: UncertaintySignal,
) -> float:
    """Advance the true state one control interval under constant input.

    Runs ``n_truth`` kernel steps with theta taken at each substep start
    ``t_start + j*h``: one lookup when no schedule time falls between the
    first and last start, else one per substep.  A stage outside the
    state domain raises ``IntegrationDomainError``.
    """
    h = t_s / n_truth
    th = theta.constant_over(t_start, t_start + (n_truth - 1) * h)
    for j in range(n_truth):
        x = x + rk4_increment(
            dynamics, x, u, h, theta.value(t_start + j * h) if th is None else th
        )
        if not math.isfinite(x):
            raise NonFiniteError(f"state became non-finite during interval at t={t_start!r}")
    dynamics.check_state(x)
    return x


def run_closed_loop(
    dynamics: SystemDynamics,
    predictor_cfg: PredictorConfig,
    lyapunov: LyapunovSpec,
    control_cfg: ControllerConfig,
    loss_model: LossModel,
    strategy: str,
    sim: SimSettings,
    weights: CostWeights,
    steps_per_input: int = 1,
) -> RunResult:
    """Simulate the lossy loop and return per-interval records.

    On a domain exit (truth integration, or a plan replayed by a loss)
    raises ``SimulationDiverged`` carrying the records accumulated so
    far.
    """
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}, expected one of {STRATEGIES}")
    dynamics.check_state(sim.x0)

    def controller(xs: float) -> float:
        return sontag_input(dynamics, lyapunov, control_cfg, xs)

    horizon = predictor_cfg.horizon
    setpoint = lyapunov.setpoint
    raw_state = weights.raw_state
    records: list[SimulationRecord] = []
    x = sim.x0
    # State and step the next plan starts from; it is planned only when a
    # loss first replays it.
    plan_x, plan_k = sim.x0, 0
    trajectory: Optional[ControlTrajectory] = None
    age = 0
    last_u = 0.0
    j_running = 0.0

    for k in range(sim.steps):
        t_k = k * sim.t_s
        s_k = loss_model.sample_reception(k)
        try:
            x_pred: Optional[float] = None
            if strategy == PREDICTIVE_BUFFER:
                if s_k:
                    # Entry 0 of the plan from x, without the rest of it.
                    u = controller(x)
                    x_pred = x
                    plan_x, plan_k = x, k
                    trajectory = None
                    age = 0
                else:
                    if trajectory is None:
                        trajectory = predict_trajectory(
                            predictor_cfg,
                            dynamics,
                            plan_x,
                            controller,
                            origin_step=plan_k,
                            steps_per_input=steps_per_input,
                        )
                    if sim.doubled_age_offset:
                        offset = min(2 * age + 1, horizon)
                    else:
                        offset = min(k - trajectory.origin_step, horizon)
                    age = min(age + 1, horizon)
                    u = trajectory.inputs[offset]
                    x_pred = trajectory.predicted_states[offset]
            elif strategy == HOLD_LAST_VALUE:
                if s_k:
                    u = controller(x)
                    age = 0
                else:
                    u = last_u
                    age = min(age + 1, horizon)
            else:  # ZERO_INPUT
                if s_k:
                    u = controller(x)
                    age = 0
                else:
                    u = 0.0
                    age = min(age + 1, horizon)

            deviation = x if raw_state else x - setpoint
            j_running += weights.q_c * deviation * deviation + weights.r_c * u * u
            records.append(
                SimulationRecord(
                    k=k, t=t_k, x_true=x, x_pred=x_pred, s=s_k, i=age, u=u,
                    j_running=j_running,
                )
            )
            x = integrate_interval(
                dynamics, x, u, t_k, sim.t_s, sim.n_truth, sim.theta
            )
            last_u = u
        except (DomainError, NonFiniteError, TrajectoryError) as exc:
            raise SimulationDiverged(
                f"run diverged at step {k}: {exc}", records=records, step=k,
                reason=str(exc),
            ) from exc

    return RunResult(records=tuple(records), x_final=x)


def run_scenario(scenario, strategy: str, seed: Optional[int] = None) -> RunResult:
    """Run one strategy of a scenario, optionally overriding the loss seed."""
    return run_closed_loop(
        scenario.build_dynamics(), scenario.predictor, scenario.lyapunov,
        scenario.controller, scenario.loss.build(seed), strategy, scenario.sim,
        scenario.cost, scenario.steps_per_input(),
    )


@dataclass(frozen=True)
class ComparisonResult:
    """Paired-seed cost table of several strategies on one scenario.

    ``costs[strategy][seed]`` is the cost of that cell or None when the
    run diverged.
    """

    strategies: tuple[str, ...]
    seeds: tuple[int, ...]
    costs: dict

    def median_cost(self, strategy: str) -> Optional[float]:
        # Imported here: statistics pulls in fractions and decimal, which
        # a fresh ``ncsim run`` process would load for nothing.
        from statistics import median

        finished = [c for c in self.costs[strategy].values() if c is not None]
        return median(finished) if finished else None

    def count_wins(self, a: str, b: str) -> int:
        """Seeds on which strategy ``a`` costs strictly less than ``b``."""
        wins = 0
        for seed in self.seeds:
            ca = self.costs[a][seed]
            cb = self.costs[b][seed]
            if ca is not None and cb is not None and ca < cb:
                wins += 1
        return wins

    def diverged_count(self, strategy: str) -> int:
        return sum(1 for c in self.costs[strategy].values() if c is None)


def _compare_cell(args) -> tuple[str, int, Optional[float]]:
    scenario, strategy, seed = args
    try:
        result = run_scenario(scenario, strategy, seed=seed)
    except SimulationDiverged:
        return strategy, seed, None
    return strategy, seed, result.cost(scenario.cost)


def compare_strategies(
    scenario,
    strategies: Optional[Sequence[str]] = None,
    n_seeds: int = 10,
    workers: int = 1,
) -> ComparisonResult:
    """Run each strategy against the same loss realizations.

    Seeds are ``base_seed + j`` for j < n_seeds, shared across
    strategies so comparisons are paired.  A seedless channel (``none``
    or ``trace``) realizes the same losses under every seed, so it runs
    ``base_seed`` only.  A cell's cost is its run's running cost after
    ``cost.m_steps`` intervals; a diverged cell is marked None instead
    of aborting the table.  ``workers > 1``, at most
    ``MAX_COMPARE_WORKERS``, fans cells out to a process pool of at most
    one worker per cell, imported only then; results are keyed by cell,
    so the output does not depend on completion order.
    """
    chosen = tuple(strategies) if strategies else tuple(scenario.strategies)
    if not chosen:
        raise ValueError("at least one strategy is required")
    for name in chosen:
        if name not in STRATEGIES:
            raise ValueError(f"unknown strategy {name!r}, expected one of {STRATEGIES}")
    if len(set(chosen)) != len(chosen):
        raise ValueError("strategies must be unique")
    if not 1 <= n_seeds <= MAX_COMPARE_SEEDS:
        raise ValueError(f"n_seeds must lie in [1, {MAX_COMPARE_SEEDS}], got {n_seeds!r}")
    if not 1 <= workers <= MAX_COMPARE_WORKERS:
        raise ValueError(f"workers must lie in [1, {MAX_COMPARE_WORKERS}], got {workers!r}")
    base_seed = scenario.loss.seed
    if not scenario.loss.seeded:
        n_seeds = 1
    seeds = tuple(base_seed + j for j in range(n_seeds))
    tasks = [(scenario, strategy, seed) for strategy in chosen for seed in seeds]

    # Under the fork start method the pool starts every worker at once,
    # so it never asks for more than there are cells.
    workers = min(workers, len(tasks))
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            outcomes = list(pool.map(_compare_cell, tasks))
    else:
        outcomes = [_compare_cell(task) for task in tasks]

    costs: dict = {strategy: {} for strategy in chosen}
    for strategy, seed, cost in outcomes:
        costs[strategy][seed] = cost
    return ComparisonResult(strategies=chosen, seeds=seeds, costs=costs)


def _format_float(value: float) -> str:
    return repr(float(value))


def write_records_csv(records: Sequence[SimulationRecord], path: str) -> None:
    """Write run records with full float round-trip precision."""
    with open(path, "w", newline="") as handle:
        handle.write(",".join(TRACE_HEADER) + "\n")
        for r in records:
            x_pred = "" if r.x_pred is None else _format_float(r.x_pred)
            handle.write(
                f"{r.k},{_format_float(r.t)},{_format_float(r.x_true)},{x_pred},"
                f"{r.s},{r.i},{_format_float(r.u)},{_format_float(r.j_running)}\n"
            )


def read_records_csv(path: str) -> list[SimulationRecord]:
    """Parse a records CSV written by ``write_records_csv``."""
    records = []
    with open(path, newline="") as handle:
        header = handle.readline().strip()
        if tuple(header.split(",")) != TRACE_HEADER:
            raise ValueError(f"unexpected trace header {header!r}")
        for line in handle:
            parts = line.rstrip("\n").split(",")
            if len(parts) != len(TRACE_HEADER):
                raise ValueError(f"bad trace row {line!r}")
            records.append(
                SimulationRecord(
                    k=int(parts[0]),
                    t=float(parts[1]),
                    x_true=float(parts[2]),
                    x_pred=None if parts[3] == "" else float(parts[3]),
                    s=int(parts[4]),
                    i=int(parts[5]),
                    u=float(parts[6]),
                    j_running=float(parts[7]),
                )
            )
    return records


def write_comparison_csv(result: ComparisonResult, path: str) -> None:
    """Write the paired cost table; diverged cells stay empty."""
    with open(path, "w", newline="") as handle:
        handle.write(",".join(("seed",) + result.strategies) + "\n")
        for seed in result.seeds:
            cells = [str(seed)]
            for strategy in result.strategies:
                cost = result.costs[strategy][seed]
                cells.append("" if cost is None else _format_float(cost))
            handle.write(",".join(cells) + "\n")
