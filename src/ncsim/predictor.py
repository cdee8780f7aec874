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
sample sets must share the plant's units.  A buffer entry is one
``predict_step`` on from the entry before it, so a caller predicts only
the entries it replays.
"""

import io
import math
from typing import NamedTuple, Optional, Sequence

from .errors import PATH_LIMIT, ConfigError, NonFiniteError, checked, clipped, read_input
from .plant import SystemDynamics

# Relative slack when checking that one time quantity divides another.
_RATIO_TOL = 1e-9


def gamma_in_range(gamma: float) -> bool:
    """Whether ``gamma`` lies in (-1, 1), the range a correction factor
    must have; NaN does not."""
    return abs(gamma) < 1


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
        horizon: number of look-ahead entries N; a loss burst replays
            entries 0 to N of its plan, advancing one head entry at a
            time, and freezes at entry N.
    """

    delta: float
    gamma: float
    horizon: int

    def _check(self) -> None:
        if not self.delta > 0:
            raise ConfigError(f"predictor.delta must be positive, got {self.delta!r}")
        if not gamma_in_range(self.gamma):
            raise ConfigError(f"predictor.gamma must lie in (-1, 1), got {self.gamma!r}")
        if not self.horizon >= 1:
            raise ConfigError(f"predictor.horizon must be >= 1, got {clipped(self.horizon)}")

    def steps_per_input(self, t_s: float) -> int:
        """Predictor steps per control interval ``t_s``: ``t_s / delta`` when
        whole, so break points line up with sampling instants, else one step
        of ``delta``, mismatch and all."""
        return whole_multiple(t_s / self.delta) or 1


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


def calibration(
    recordings: Sequence[tuple[Sequence[float], Sequence[float]]],
) -> tuple[list[float], float, int, float]:
    """Calibration statistics of (predicted, measured) recordings.

    Returns ``(e_values, e, zeta, gamma)``: each recording's mean squared
    error, their mean E, the sign zeta (+1 exactly when the grand mean of
    the recordings' prediction means is at most that of their measurement
    means) and gamma = zeta * E / that grand mean prediction, not
    range-checked: ``gamma_in_range`` tells whether a predictor can use it.
    One recording of every sample is the paper's first method, one
    recording per pair its second.  Each recording must make a valid
    ``SamplePair``, else ``ValueError``.  Raises ``ZeroDivisionError`` for
    a zero grand mean prediction, and ``OverflowError`` or
    ``NonFiniteError`` when E, a grand mean or gamma is not finite.
    """
    if not recordings:
        raise ValueError("at least one sample pair is required")
    pairs = [SamplePair(tuple(predicted), tuple(measured)) for predicted, measured in recordings]
    count = len(pairs)
    e_values = [
        sum((m - p) ** 2 for p, m in zip(pair.predicted, pair.measured)) / len(pair.predicted)
        for pair in pairs
    ]
    e = sum(e_values) / count
    grand_pred = sum(sum(pair.predicted) / len(pair.predicted) for pair in pairs) / count
    grand_meas = sum(sum(pair.measured) / len(pair.measured) for pair in pairs) / count
    if grand_pred == 0.0:
        raise ZeroDivisionError("mean predicted state is zero")
    zeta = 1 if grand_pred <= grand_meas else -1
    gamma = zeta * e / grand_pred
    if not all(map(math.isfinite, (e, grand_pred, grand_meas, gamma))):
        raise NonFiniteError(f"E {e!r}, grand means {grand_pred!r}, {grand_meas!r}, gamma {gamma!r}")
    return e_values, e, zeta, gamma


def read_sample_pairs(path: str) -> list[SamplePair]:
    """Load calibration samples from a CSV file.

    Expected header: ``pair_id,predicted,measured``.  Rows sharing a
    ``pair_id`` form one sample pair; pairs keep first-appearance order.
    The file is UTF-8 and at most ``MAX_INPUT_BYTES`` bytes long.
    """
    # Imported here so that only ``ncsim calibrate`` pays for it.
    import csv

    groups: dict[str, tuple[list[float], list[float]]] = {}
    reader = csv.DictReader(io.StringIO(read_input(path), newline=""))
    required = {"pair_id", "predicted", "measured"}
    try:
        if reader.fieldnames is None or not required.issubset(reader.fieldnames):
            raise ValueError(
                "sample file must have columns pair_id,predicted,measured, got "
                + clipped(",".join(reader.fieldnames or ()))
            )
        for row in reader:
            pair = groups.setdefault(row["pair_id"], ([], []))
            for column, values in zip(("predicted", "measured"), pair):
                try:
                    value = float(row[column])
                except (TypeError, ValueError):  # not a number; TypeError: a short row
                    value = math.nan
                if not math.isfinite(value):
                    raise ValueError(
                        f"bad sample on line {reader.line_num}, column {column}: "
                        + ("nothing" if row[column] is None else clipped(row[column]))
                    )
                values.append(value)
    except csv.Error as exc:  # a field past csv.field_size_limit(), say
        raise ValueError(f"malformed CSV: {exc}") from exc
    if not groups:
        raise ValueError(f"no sample rows in {clipped(path, PATH_LIMIT, str)}")
    return [SamplePair(tuple(predicted), tuple(measured)) for predicted, measured in groups.values()]
