"""State prediction for control intervals without fresh measurements.

The predictor advances the nominal model (disturbance set to zero) with
the plant's RK4 kernel, one step per break point, each followed by a
multiplicative correction:

    xhat[i+1] = (1 + gamma) * xhat[i] + dx[i],   |gamma| < 1

``gamma`` soaks up model error that grows with the state itself, which
is exactly the structure of a disturbance entering through a gain
proportional to x.  Two offline procedures estimate it from recorded
pairs of predicted and measured states; both divide a mean squared
error by a mean prediction, so the result is unit dependent and the
sample sets must share the plant's units.  ``extend_plan`` grows a plan
entry by entry, so a caller predicts only the entries it replays.
"""

import io
import math
from typing import Callable, NamedTuple, Optional, Sequence

from .errors import (
    CalibrationRangeError, ConfigError, DomainError, NonFiniteError, TrajectoryError, checked,
    read_input,
)
from .plant import SystemDynamics, rk4_increment  # re-exported: ncsim.predictor.rk4_increment

Controller = Callable[[float], float]

# Relative slack when checking that one time quantity divides another.
_RATIO_TOL = 1e-9


def whole_multiple(ratio: float) -> Optional[int]:
    """``ratio`` as a whole number >= 1, within ``_RATIO_TOL`` relative, or None."""
    n = round(ratio) if math.isfinite(ratio) else 0
    return n if n >= 1 and abs(ratio - n) <= _RATIO_TOL * n else None


@checked
class PredictorConfig(NamedTuple):
    """Prediction step size, correction factor, and buffer horizon.

    Attributes:
        delta: integration step of the predictor [s].
        gamma: multiplicative correction factor, magnitude below one.
        horizon: number of look-ahead entries N; a trajectory holds
            N + 1 inputs.
    """

    delta: float
    gamma: float
    horizon: int

    def _check(self) -> None:
        if not self.delta > 0:
            raise ConfigError(f"predictor.delta must be positive, got {self.delta!r}")
        if not abs(self.gamma) < 1:
            raise ConfigError(f"predictor.gamma must lie in (-1, 1), got {self.gamma!r}")
        if not self.horizon >= 1:
            raise ConfigError(f"predictor.horizon must be >= 1, got {self.horizon!r}")

    def steps_per_input(self, t_s: float) -> int:
        """Predictor steps per control interval ``t_s``: ``t_s / delta`` when
        whole, so break points line up with sampling instants, else one step
        of ``delta``, mismatch and all."""
        return whole_multiple(t_s / self.delta) or 1


@checked
class ControlTrajectory(NamedTuple):
    """Inputs precomputed at a sample instant for the next N intervals.

    Attributes:
        origin_step: control-interval index at which the trajectory was
            computed.
        inputs: N + 1 input values, entry j intended for the j-th
            interval after the origin.
        predicted_states: the predicted states the inputs were computed
            from, aligned with ``inputs``.
    """

    origin_step: int
    inputs: tuple[float, ...]
    predicted_states: tuple[float, ...]

    def _check(self) -> None:
        if len(self.inputs) != len(self.predicted_states) or not self.inputs:
            raise ValueError("inputs and predicted_states must be equally sized and non-empty")
        if not self.origin_step >= 0:
            raise ValueError("origin_step must be non-negative")


def predict_step(
    cfg: PredictorConfig, dynamics: SystemDynamics, xhat: float, u: float, steps: int = 1
) -> float:
    """Advance the prediction ``steps`` break points holding ``u``.

    One march of the plant kernel (theta = 0) with scale ``1 + gamma``:
    with ``gamma == 0`` each step reduces bitwise to the plain update
    ``xhat + rk4_increment(...)``.  Each corrected state must stay in the
    plant domain.
    """
    return dynamics.march(
        xhat, u, cfg.delta, 0.0, *dynamics.state_domain, steps, 1.0 + cfg.gamma,
        lambda x, left: dynamics.check_state(x),
    )[0]


def extend_plan(
    cfg: PredictorConfig, dynamics: SystemDynamics, controller: Controller,
    inputs: list[float], states: list[float], n: int, steps_per_input: int,
) -> None:
    """Grow the plan ``(inputs, states)`` in place to ``n`` entries, if shorter.

    Entry j + 1 is the prediction ``steps_per_input`` predictor steps on
    from entry j, holding input j, and the controller evaluated there.  If
    the prediction leaves the plant domain a ``TrajectoryError`` with the
    valid prefix is raised, and the plan keeps that prefix.
    """
    while len(states) < n:
        try:
            xhat = predict_step(cfg, dynamics, states[-1], inputs[-1], steps_per_input)
        except DomainError as exc:
            raise TrajectoryError(
                f"prediction left the domain after {len(inputs)} entries", inputs, states
            ) from exc
        u = controller(xhat)
        states.append(xhat)
        inputs.append(u)


def predict_trajectory(
    cfg: PredictorConfig,
    dynamics: SystemDynamics,
    x0: float,
    controller: Controller,
    origin_step: int = 0,
    steps_per_input: int = 1,
) -> ControlTrajectory:
    """Roll the predictor forward and collect a length-(N+1) input buffer.

    Entry 0 is the controller evaluated on ``x0``; ``extend_plan`` grows
    the rest.  If the prediction leaves the plant domain mid-horizon a
    ``TrajectoryError`` with the valid prefix is raised.
    """
    if steps_per_input < 1:
        raise ValueError("steps_per_input must be >= 1")
    dynamics.check_state(x0)
    inputs, states = [controller(x0)], [x0]
    extend_plan(cfg, dynamics, controller, inputs, states, cfg.horizon + 1, steps_per_input)
    return ControlTrajectory(origin_step, tuple(inputs), tuple(states))


@checked
class SamplePair(NamedTuple):
    """One matched recording of predicted and measured state sequences."""

    predicted: tuple[float, ...]
    measured: tuple[float, ...]

    def _check(self) -> None:
        if len(self.predicted) != len(self.measured) or not self.predicted:
            raise ValueError("predicted and measured must be equally sized and non-empty")
        if any(not math.isfinite(v) for v in self.predicted + self.measured):
            raise ValueError("samples must be finite")


def _mean(values: Sequence[float]) -> float:
    return sum(values) / len(values)


def mean_squared_error(predicted: Sequence[float], measured: Sequence[float]) -> float:
    """Average of the squared prediction errors over one sample set."""
    if len(predicted) != len(measured) or not predicted:
        raise ValueError("predicted and measured must be equally sized and non-empty")
    return sum((m - p) ** 2 for p, m in zip(predicted, measured)) / len(predicted)


def _check_range(gamma: float) -> float:
    if not abs(gamma) < 1:
        raise CalibrationRangeError(
            f"calibrated correction factor {gamma!r} outside (-1, 1)", gamma=gamma
        )
    return gamma


def calibration(
    recordings: Sequence[tuple[Sequence[float], Sequence[float]]],
) -> tuple[list[float], float, int, float]:
    """Calibration statistics of (predicted, measured) recordings.

    Returns ``(e_values, e, zeta, gamma)``: each recording's mean squared
    error, their mean E, the sign zeta (+1 exactly when the grand mean of
    the recordings' prediction means is at most that of their measurement
    means) and gamma = zeta * E / that grand mean prediction, not yet
    range-checked.  One recording gives the single-recording method.
    Raises ``ZeroDivisionError`` for a zero grand mean prediction, and
    ``OverflowError`` or ``NonFiniteError`` when E, a grand mean or gamma
    is not finite.
    """
    if not recordings:
        raise ValueError("at least one sample pair is required")
    m = len(recordings)
    e_values = [mean_squared_error(predicted, measured) for predicted, measured in recordings]
    e = sum(e_values) / m
    grand_pred = sum(_mean(predicted) for predicted, _ in recordings) / m
    grand_meas = sum(_mean(measured) for _, measured in recordings) / m
    if grand_pred == 0.0:
        raise ZeroDivisionError("mean predicted state is zero")
    zeta = 1 if grand_pred <= grand_meas else -1
    gamma = zeta * e / grand_pred
    if not all(map(math.isfinite, (e, grand_pred, grand_meas, gamma))):
        raise NonFiniteError(f"E {e!r}, grand means {grand_pred!r}, {grand_meas!r}, gamma {gamma!r}")
    return e_values, e, zeta, gamma


def calibrate_gamma_one(
    predicted: Sequence[float], measured: Sequence[float]
) -> float:
    """Single-recording calibration.

    The mean squared error E is divided by the mean predicted state and
    signed positive exactly when the predictions underestimate the
    measurements on average.  Raises ``ZeroDivisionError`` for a zero
    mean prediction and ``CalibrationRangeError`` when the result has
    magnitude one or more.
    """
    return _check_range(calibration([(predicted, measured)])[3])


def calibrate_gamma_two(pairs: Sequence[SamplePair]) -> float:
    """Multi-recording calibration.

    Per-pair mean squared errors are averaged, the denominator is the
    grand mean of the per-pair prediction means, and the sign compares
    the grand means of predictions and measurements.  With a single pair
    this collapses to the single-recording method.
    """
    return _check_range(calibration([(p.predicted, p.measured) for p in pairs])[3])


def read_sample_pairs(path: str) -> list[SamplePair]:
    """Load calibration samples from a CSV file.

    Expected header: ``pair_id,predicted,measured``.  Rows sharing a
    ``pair_id`` form one sample pair; pairs keep first-appearance order.
    The file is UTF-8 and at most ``MAX_INPUT_BYTES`` bytes long.
    """
    # Imported here so that only ``ncsim calibrate`` pays for it.
    import csv

    groups: dict[str, tuple[list[float], list[float]]] = {}
    order: list[str] = []
    reader = csv.DictReader(io.StringIO(read_input(path), newline=""))
    required = {"pair_id", "predicted", "measured"}
    if reader.fieldnames is None or not required.issubset(reader.fieldnames):
        raise ValueError(
            f"sample file must have columns pair_id,predicted,measured, got {reader.fieldnames}"
        )
    for row in reader:
        pair_id = row["pair_id"]
        if pair_id not in groups:
            groups[pair_id] = ([], [])
            order.append(pair_id)
        try:
            groups[pair_id][0].append(float(row["predicted"]))
            groups[pair_id][1].append(float(row["measured"]))
        except (TypeError, ValueError) as exc:
            raise ValueError(f"bad sample row {row!r}") from exc
    if not order:
        raise ValueError(f"no sample rows in {path}")
    return [
        SamplePair(predicted=tuple(groups[p][0]), measured=tuple(groups[p][1]))
        for p in order
    ]
