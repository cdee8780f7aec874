"""Sampled-data closed loop with dropout compensation strategies.

Each control interval [t_k, t_{k+1}) applies one constant input.  On
reception every strategy applies the feedback to the measurement; on a
loss the strategy supplies the input:

* ``predictive-buffer`` replays a predicted input trajectory, advancing
  one entry per lost interval and freezing at the last entry once the
  buffer is exhausted.  The loop keeps only the plan's head, the entry
  a loss last replayed: a reception makes the feedback just applied
  entry 0 (a leading loss starts from the initial state), and a loss
  advances the head one ``predict_step`` and one feedback at a time to
  the entry it replays, which never goes back within a burst.  A plan
  that leaves the domain at entry j makes the run diverge at the first
  loss that replays entry j or later, and not before.
* ``hold-last-value`` repeats the last applied input.
* ``zero-input`` applies zero.

The true state advances by the plant's RK4 kernel over the full dynamics,
``n_truth`` substeps per interval, with theta read at each substep start:
one march per run of starts under the same schedule entry, so one march
when no schedule time falls among them.  Given a run's dynamics, with
gains that are pure functions, ``t_s`` and ``n_truth``, a march under
one held theta is a pure function of the state, the input and theta.
So a run keeps the end states it has marched in a ``CappedMemo`` keyed
on the bits of all three, emptied when it holds
``TRUTH_MEMO_ENTRIES``.  It pays because the feedback acts as a relay on
the tank, every input ``u_min`` or ``u_max``: a run without loss falls
into a cycle of exact states, and a lossless ``tank-reference`` run
marches 182 of its 1800 intervals.  A march that raises stores nothing,
and an interval that a schedule time falls inside is marched every time.
The loop finds such intervals with a cursor over the schedule, which
passes each schedule time once.  For the same reason a run keeps the
feedback at each received state in a second memo keyed on the bits of
x, capped alike, and applies it 181 times on that run; a feedback that
raises stores nothing, and the buffer's predicted entries and a leading
loss's plan from x0 call the feedback directly.  A reception record's
``x_pred`` is its ``x_true`` object, so ``TraceWriter`` writes its text
once for both, and the writer keeps each state's text in a third memo
keyed on the bits of x, capped alike: the same run formats 181 state
texts for its 1800 rows.
A state outside the domain and a running cost past float range both end
the run as ``SimulationDiverged`` at that step.  The loop keeps no
record: it appends each one to the caller's sink as soon as the
interval's input and running cost are known, and returns a
``RunStats`` of what a run's summary reads, counted over those records.
``SimSettings`` derives the step count from ``duration`` and caps both
it and the truth substeps.
"""

import math
import os
import struct
from bisect import bisect_left, bisect_right
from collections import deque
from typing import NamedTuple, Optional, Sequence

from .controller import ControllerConfig, sontag_feedback
from .errors import (
    ConfigError, DomainError, NcsimError, NonFiniteError, SimulationDiverged, checked,
)
from .losses import LossModel
from .plant import SystemDynamics, UncertaintySignal, _stage_error, tank_dynamics
from .predictor import PredictorConfig, predict_step, whole_multiple

PREDICTIVE_BUFFER = "predictive-buffer"
HOLD_LAST_VALUE = "hold-last-value"
ZERO_INPUT = "zero-input"
STRATEGIES = (PREDICTIVE_BUFFER, HOLD_LAST_VALUE, ZERO_INPUT)

# Run-size caps, so that no input can ask for an unbounded run: control
# intervals (one record each) and truth RK4 substeps.  tank-reference needs
# 1800 and 36_000.
MAX_STEPS = 1_000_000
MAX_TRUTH_SUBSTEPS = 20_000_000
# Paired seeds one compare may ask for; the cell list is built up front.
MAX_COMPARE_SEEDS = 10_000
# Processes one compare may use, the calling one included; all start at once.
MAX_COMPARE_WORKERS = 64
# Entries a ``CappedMemo`` holds: the end states of held-theta truth
# intervals one run keeps, keyed on the bits of (x, u, theta), which tell
# +0.0 from -0.0 (a NaN key is never stored, as a march from NaN raises);
# the feedback memo of a run holds as many inputs, and a TraceWriter's
# text memo as many state texts, each keyed on the bits of x.
TRUTH_MEMO_ENTRIES = 256
_truth_key = struct.Struct("3d").pack
_state_key = struct.Struct("d").pack

TRACE_HEADER = ("k", "t", "x_true", "x_pred", "s", "i", "u", "J_running")


class SimulationRecord(NamedTuple):
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


@checked
class CostWeights(NamedTuple):
    """Quadratic stage-cost weights and evaluation horizon.

    The stage cost is q_c * (x - setpoint)^2 + r_c * u^2, with the
    undeviated state x under ``raw_state``; a run's cost is its running
    cost after ``m_steps`` intervals, ``RunStats.j_m_steps``.
    """

    q_c: float
    r_c: float
    m_steps: int
    raw_state: bool = False

    def _check(self) -> None:
        for name, value in (("q_c", self.q_c), ("r_c", self.r_c)):
            if not value >= 0:
                raise ConfigError(f"cost.{name} must be non-negative, got {value!r}")
        if not self.m_steps >= 1:
            raise ConfigError(f"cost.m_steps must be >= 1, got {self.m_steps!r}")


@checked
class SimSettings(NamedTuple):
    """Initial state, sampling grid, and truth-integration refinement.

    ``duration`` is kept as written, so snapshots reproduce it; it must be
    a whole multiple of ``t_s``, and ``steps`` is that multiple.
    ``doubled_age_offset`` switches the buffer replay rule during loss
    bursts: entry ``2i + 1`` after ``i`` consecutive losses rather than
    the entry matching the elapsed steps since the plan's start.
    """

    x0: float
    t_s: float
    duration: float
    theta: UncertaintySignal
    n_truth: int = 20
    doubled_age_offset: bool = False

    def _check(self) -> None:
        if not math.isfinite(self.x0):
            raise ConfigError(f"sim.x0 must be finite, got {self.x0!r}")
        if not self.t_s > 0:
            raise ConfigError("sim.t_s must be positive")
        if not self.duration / self.t_s < MAX_STEPS + 0.5:
            raise ConfigError(
                f"sim.duration {self.duration!r} / sim.t_s {self.t_s!r} asks for more "
                f"than {MAX_STEPS} steps"
            )
        if self.steps is None:
            raise ConfigError(
                f"sim.duration {self.duration!r} must be a positive whole multiple of sim.t_s"
            )
        if not self.n_truth >= 1:
            raise ConfigError(f"sim.n_truth must be >= 1, got {self.n_truth!r}")
        if self.steps * self.n_truth > MAX_TRUTH_SUBSTEPS:
            raise ConfigError(
                f"sim.n_truth {self.n_truth} over {self.steps} steps asks for more than "
                f"{MAX_TRUTH_SUBSTEPS} truth substeps"
            )
        if not self.t_s / self.n_truth > 0:
            raise ConfigError(
                f"sim.t_s {self.t_s!r} / sim.n_truth {self.n_truth!r} must give a positive "
                "truth step"
            )

    @property
    def steps(self) -> int:
        """Control intervals in ``duration``."""
        return whole_multiple(self.duration / self.t_s)


class CappedMemo(dict):
    """A dict emptied before a store when it holds ``TRUTH_MEMO_ENTRIES``."""

    __slots__ = ()

    def store(self, key, value):
        """Store ``value`` at ``key`` and return it."""
        if len(self) >= TRUTH_MEMO_ENTRIES:
            self.clear()
        self[key] = value
        return value


class RunStats(NamedTuple):
    """What a run's summary reads, counted over the records appended.

    Attributes:
        steps: records appended.
        loss_count: lost intervals among them.
        j_total: running cost of the last one (None without one).
        j_m_steps: running cost after ``CostWeights.m_steps`` intervals
            (None until the run reaches them).
        x_final: state after the last interval (None on a diverged run).
    """

    steps: int
    loss_count: int
    j_total: Optional[float]
    j_m_steps: Optional[float]
    x_final: Optional[float]


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
    ``t_start + j*h``, as one march per run of consecutive starts that
    fall after the same number of schedule times: one march when no
    schedule time falls among the starts.
    A stage outside the state domain raises ``IntegrationDomainError``, a
    NaN or infinite state ``NonFiniteError``, and an end state outside the
    domain ``DomainError``.
    """
    h = t_s / n_truth
    march, (lo, hi) = dynamics.march, dynamics.state_domain
    times, values = theta

    def fail(xs: float, left: int) -> None:
        # a state outside the domain; a finite one after a march's last step
        # meets the next march's first stage or the end-state check below
        if not math.isfinite(xs):
            raise NonFiniteError(f"state became non-finite during interval at t={t_start!r}")
        if left:
            raise _stage_error(1, xs)

    j, last = 0, t_start + (n_truth - 1) * h
    while j < n_truth:
        idx = bisect_right(times, t_start + j * h)
        end = n_truth
        if idx < len(times) and times[idx] <= last:
            # the first start on or after the next schedule time
            end = bisect_left(range(n_truth), times[idx], j, key=lambda i: t_start + i * h)
        x = march(x, u, h, values[idx - 1] if idx else values[0], lo, hi, end - j, 1.0, fail)[0]
        j = end
    if not lo <= x <= hi:
        dynamics.check_state(x)
    return x


def check_strategies(names: Sequence[str], label: str = "strategies") -> tuple[str, ...]:
    """``names`` as a tuple if known and unique, else a ConfigError naming ``label``."""
    names = tuple(names)
    if not names:
        raise ConfigError(f"{label} must be non-empty")
    for name in names:
        if name not in STRATEGIES:
            raise ConfigError(f"{label}: unknown strategy {name!r}, expected one of {STRATEGIES}")
    if len(set(names)) != len(names):
        raise ConfigError(f"{label} must be unique")
    return names


def check_compare_size(
    n_seeds: int, workers: int, seeds_label: str = "n_seeds", workers_label: str = "workers"
) -> None:
    """A ConfigError naming the label unless ``n_seeds`` and ``workers`` lie
    within ``MAX_COMPARE_SEEDS`` and ``MAX_COMPARE_WORKERS``."""
    for label, value, cap in (
        (seeds_label, n_seeds, MAX_COMPARE_SEEDS), (workers_label, workers, MAX_COMPARE_WORKERS),
    ):
        if not 1 <= value <= cap:
            raise ConfigError(f"{label} must lie in [1, {cap}], got {value!r}")


def run_closed_loop(
    dynamics: SystemDynamics,
    predictor_cfg: PredictorConfig,
    control_cfg: ControllerConfig,
    loss_model: LossModel,
    strategy: str,
    sim: SimSettings,
    weights: CostWeights,
    records,
) -> RunStats:
    """Simulate the lossy loop, handing each interval's record to
    ``records.append`` as soon as its input and running cost are known,
    and return the ``RunStats`` of the records appended.

    The loop itself keeps no record.  A plan takes
    ``predictor_cfg.steps_per_input(sim.t_s)`` predictor steps per buffer
    entry.  On a domain exit (truth integration, or a prediction a loss
    replays) raises ``SimulationDiverged`` after the records appended so
    far, with their ``RunStats`` as its ``stats``.
    """
    check_strategies((strategy,), "strategy")
    dynamics.check_state(sim.x0)

    controller = sontag_feedback(dynamics, control_cfg)
    buffered = strategy == PREDICTIVE_BUFFER
    steps_per_input = predictor_cfg.steps_per_input(sim.t_s)
    horizon = predictor_cfg.horizon
    setpoint = control_cfg.setpoint
    # record fields the loop reads, read once: each read of a NamedTuple
    # field is a descriptor call
    x0, t_s, theta, n_truth = sim.x0, sim.t_s, sim.theta, sim.n_truth
    # the offset of an interval's last substep start, as integrate_interval
    # computes it; the truth end states by _truth_key(x, u, theta) and the
    # feedback at each received state by _state_key(x), each read through
    # its get, bound once
    last_start = (n_truth - 1) * (t_s / n_truth)
    memo, feedback_memo = CappedMemo(), CappedMemo()
    truth_of, feedback_of = memo.get, feedback_memo.get
    # the theta schedule cursor: the schedule times, ended by an infinite
    # one that no interval passes; times[passed] is the next one after the
    # interval start, and th_held the value held since the last one passed
    times, values = theta.times + (math.inf,), theta.values
    passed, th_held = 0, values[0]
    doubled = sim.doubled_age_offset
    q_c, r_c, m_steps, raw_state = weights.q_c, weights.r_c, weights.m_steps, weights.raw_state
    append = records.append
    # what SimulationRecord(...) calls, without the frame of its __new__
    new_tuple = tuple.__new__
    x = x0
    # The buffer's head: the entry a loss last replayed (-1 before the
    # first plan), its predicted state and its input.  Within a burst the
    # replayed entry never goes back.
    entry = -1
    x_pred: Optional[float] = None
    age = 0
    u = 0.0  # the last applied input, which hold-last-value keeps
    # the RunStats counts: records appended, lost ones among them, and the
    # running cost of the last one and of the m_steps-th
    steps = loss_count = 0
    j_running, j_m_steps = 0.0, None

    for k in range(sim.steps):
        t_k = k * t_s
        s_k = loss_model.sample_reception(k)
        try:
            if s_k:
                key = _state_key(x)
                u = feedback_of(key)
                if u is None:
                    u = feedback_memo.store(key, controller(x))
                if buffered:
                    x_pred, entry = x, 0
            elif buffered:
                offset = min(2 * age + 1 if doubled else entry + 1, horizon)
                if entry < 0:
                    x_pred, u, entry = x0, controller(x0), 0
                while entry < offset:
                    try:
                        x_pred = predict_step(predictor_cfg, dynamics, x_pred, u, steps_per_input)
                    except DomainError as exc:
                        raise DomainError(
                            f"prediction left the domain after {entry + 1} entries"
                        ) from exc
                    u = controller(x_pred)
                    entry += 1
            elif strategy == ZERO_INPUT:
                u = 0.0
            age = 0 if s_k else min(age + 1, horizon)

            deviation = x if raw_state else x - setpoint
            # the stage cost summed first: float addition does not associate,
            # and the pinned traces hold the bits of this order
            j_next = j_running + (q_c * deviation * deviation + r_c * u * u)
            if not math.isfinite(j_next):
                raise NonFiniteError(f"running cost became non-finite: {j_next!r}")
            j_running = j_next
            append(new_tuple(SimulationRecord, (k, t_k, x, x_pred, s_k, age, u, j_running)))
            steps = k + 1
            if not s_k:
                loss_count += 1
            if steps == m_steps:
                j_m_steps = j_running
            while times[passed] <= t_k:
                th_held = values[passed]
                passed += 1
            if times[passed] <= t_k + last_start:
                x = integrate_interval(dynamics, x, u, t_k, t_s, n_truth, theta)
            else:
                key = _truth_key(x, u, th_held)
                x_next = truth_of(key)
                if x_next is None:
                    x_next = memo.store(
                        key, integrate_interval(dynamics, x, u, t_k, t_s, n_truth, theta)
                    )
                x = x_next
        except (DomainError, NonFiniteError) as exc:
            stats = RunStats(steps, loss_count, j_running if steps else None, j_m_steps, None)
            raise SimulationDiverged(
                f"run diverged at step {k}: {exc}", step=k, reason=str(exc), stats=stats
            ) from exc

    return RunStats(steps, loss_count, j_running, j_m_steps, x)


def run_scenario(scenario, strategy: str, records, seed: Optional[int] = None) -> RunStats:
    """Run one strategy of a scenario, optionally overriding the loss seed,
    into ``records`` as ``run_closed_loop`` does."""
    return run_closed_loop(
        tank_dynamics(scenario.plant), scenario.predictor, scenario.controller,
        scenario.loss.build(seed), strategy, scenario.sim, scenario.cost, records,
    )


class ComparisonResult(NamedTuple):
    """Paired-seed cost table of several strategies on one scenario.

    ``costs[strategy][seed]`` is the cost of that cell or None when the
    run diverged.
    """

    strategies: tuple[str, ...]
    seeds: tuple[int, ...]
    costs: dict

    def median_cost(self, strategy: str) -> Optional[float]:
        finished = sorted(c for c in self.costs[strategy].values() if c is not None)
        if not finished:
            return None
        half = len(finished) // 2
        if len(finished) % 2:
            return finished[half]
        a, b = finished[half - 1], finished[half]
        # the mean of the middle pair, also where their sum overflows
        return (a + b) / 2 if a + b < math.inf else a / 2 + b / 2

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


def _compare_cell(args) -> Optional[float]:
    scenario, strategy, seed = args
    try:  # into a sink that keeps nothing
        return run_scenario(scenario, strategy, deque(maxlen=0), seed).j_m_steps
    except SimulationDiverged:  # also after m_steps
        return None


def _shares(tasks: Sequence, workers: int) -> list:
    """``tasks`` dealt round-robin into one share per process, at most ``workers``."""
    n = min(workers, len(tasks))
    return [tasks[i::n] for i in range(n)]


def _fan_out(fn, tasks: Sequence, workers: int) -> list:
    """``[fn(task) for task in tasks]`` over at most ``workers`` processes.

    This process runs share 0; each other share runs in a forked child that
    pickles its outcomes, or the type and args of what it raised (raised
    again here), into its own pipe.  A child that exits without a result
    raises ``NcsimError``.  Whatever this process raises, it first kills
    and reaps every child not yet reaped.
    """
    shares = _shares(tasks, workers)
    if len(shares) > 1:  # imported only by a compare that forks
        import pickle
        import signal
    children = {}  # pid -> read end of its pipe, until the child is reaped
    try:
        for share in shares[1:]:
            reader, writer = map(os.fdopen, os.pipe(), ("rb", "wb"))
            pid = os.fork()
            if pid == 0:
                status = 1
                try:
                    try:
                        payload = None, [fn(task) for task in share]
                    except Exception as exc:  # raised again by the parent
                        payload = type(exc), exc.args
                    pickle.dump(payload, writer)
                    writer.close()
                    status = 0
                finally:
                    os._exit(status)
            writer.close()
            children[pid] = reader
        outcomes = [None] * len(tasks)
        outcomes[::len(shares)] = [fn(task) for task in shares[0]]
        for i, (pid, reader) in enumerate(list(children.items()), 1):
            with reader:
                data = reader.read()
            status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            del children[pid]
            if status != 0:
                raise NcsimError(f"compare worker exited with status {status} without a result")
            failed, value = pickle.loads(data)
            if failed:  # built from its args alone, as __init__ may take others
                raise failed.__new__(failed, *value)
            outcomes[i::len(shares)] = value
        return outcomes
    finally:
        for pid, reader in children.items():
            reader.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


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
    of aborting the table.  ``workers``, at most ``MAX_COMPARE_WORKERS``,
    counts the processes that share the cells round-robin, this one
    included; the output does not depend on it.
    """
    chosen = check_strategies(scenario.strategies if strategies is None else strategies)
    check_compare_size(n_seeds, workers)
    base_seed = scenario.loss.seed
    if not scenario.loss.seeded:
        n_seeds = 1
    seeds = tuple(base_seed + j for j in range(n_seeds))
    tasks = [(scenario, strategy, seed) for strategy in chosen for seed in seeds]

    costs: dict = {strategy: {} for strategy in chosen}
    for (_, strategy, seed), cost in zip(tasks, _fan_out(_compare_cell, tasks, workers)):
        costs[strategy][seed] = cost
    return ComparisonResult(strategies=chosen, seeds=seeds, costs=costs)


class TraceWriter:
    """A record sink that writes each record as a ``trace.csv`` row to
    ``handle`` when it arrives, each float as ``repr(float(value))``, its
    full round-trip precision.

    The header goes out when the writer is built.  The text of each state
    written is kept in a ``CappedMemo`` by ``_state_key(x)``, so +0.0 and
    -0.0 keep their own.
    """

    __slots__ = ("handle", "texts")

    def __init__(self, handle):
        self.handle = handle
        self.texts = CappedMemo()
        handle.write(",".join(TRACE_HEADER) + "\n")

    def append(self, r: SimulationRecord) -> None:
        k, t, x_true, x_pred, s, i, u, j_running = r
        key = _state_key(x_true)
        true_text = self.texts.get(key) or self.texts.store(key, repr(float(x_true)))
        # the buffer's reception rows predict the state itself: the same
        # object, so the same text
        if x_pred is x_true:
            pred_text = true_text
        elif x_pred is None:
            pred_text = ""
        else:
            key = _state_key(x_pred)
            pred_text = self.texts.get(key) or self.texts.store(key, repr(float(x_pred)))
        self.handle.write(
            f"{k},{float(t)!r},{true_text},{pred_text},"
            f"{s},{i},{float(u)!r},{float(j_running)!r}\n"
        )


def write_comparison_csv(result: ComparisonResult, path: str) -> None:
    """Write the paired cost table; diverged cells stay empty."""
    with open(path, "w", newline="") as handle:
        handle.write(",".join(("seed",) + result.strategies) + "\n")
        for seed in result.seeds:
            cells = [str(seed)]
            for strategy in result.strategies:
                cost = result.costs[strategy][seed]
                cells.append("" if cost is None else repr(float(cost)))
            handle.write(",".join(cells) + "\n")
