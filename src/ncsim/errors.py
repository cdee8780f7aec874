"""Exception types shared across the simulator, the checking constructor
of its records, and the bounded read of its input files."""

import os

# Bytes a scenario, loss-trace or samples file may hold (a 1 000 000-step
# trace needs 2 MB); the read stops one byte past it, even on /dev/zero.
MAX_INPUT_BYTES = 16 * 1024 * 1024


class NcsimError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(NcsimError, ValueError):
    """Invalid, unknown, or inconsistent configuration input."""


class DomainError(NcsimError, ValueError):
    """A state evaluation was requested outside the plant's state domain."""


class IntegrationDomainError(DomainError):
    """An integration stage left the state domain.

    Attributes:
        stage: 1-based index of the offending stage.
        state: the state value that fell outside the domain.
    """

    def __init__(self, message: str, stage: int, state: float):
        super().__init__(message)
        self.stage = stage
        self.state = state


class NonFiniteError(NcsimError, ArithmeticError):
    """A computation produced NaN or infinity."""


class ControllerOverflowError(NonFiniteError):
    """The feedback formula overflowed (e.g. the fourth power of LgV)."""


class TrajectoryError(NcsimError):
    """Prediction left the state domain before the horizon was filled.

    Carries the valid prefix so callers can inspect how far the
    prediction got.

    Attributes:
        valid_length: number of input entries computed before the failure.
        inputs: tuple with the valid input prefix.
        predicted_states: tuple with the valid predicted-state prefix.
    """

    def __init__(self, message: str, inputs, predicted_states):
        super().__init__(message)
        self.inputs = tuple(inputs)
        self.predicted_states = tuple(predicted_states)
        self.valid_length = len(self.inputs)


class CalibrationRangeError(NcsimError):
    """Calibration produced a correction factor with magnitude >= 1.

    Attributes:
        gamma: the raw out-of-range value.
    """

    def __init__(self, message: str, gamma: float):
        super().__init__(message)
        self.gamma = gamma


class TraceExhaustedError(NcsimError):
    """A reception trace ran out of entries and wrapping was not enabled."""


class SimulationDiverged(NcsimError):
    """The closed-loop state left the plant domain mid-run.

    Attributes:
        records: the per-step records accumulated before the failure.
        step: index of the control interval during which the run failed.
        reason: short human-readable cause.
    """

    def __init__(self, message: str, records, step: int, reason: str):
        super().__init__(message)
        self.records = list(records)
        self.step = step
        self.reason = reason


def checked(record):
    """Make the ``NamedTuple`` class ``record`` check each instance it builds.

    ``record._check()`` raises on a value out of range and returns None or
    the derived fields to fill in.  It runs in the constructor and in
    ``_replace``, which builds through ``_make`` and so would skip it;
    ``_make`` itself stays unchecked.
    """
    new, replace = record.__new__, record._replace

    def build(plain):
        derived = plain._check()
        return replace(plain, **derived) if derived else plain

    record.__new__ = lambda cls, *args, **kwargs: build(new(cls, *args, **kwargs))
    record._replace = lambda self, **changes: build(replace(self, **changes))
    return record


def read_input(path: str) -> str:
    """The UTF-8 text of an input file; a file longer than
    ``MAX_INPUT_BYTES`` is a ``ConfigError``, raised before decoding."""
    # A FIFO with no writer opens at once and reads as empty, instead of
    # waiting in open for a writer; the read itself blocks as usual.
    with open(path, "rb", opener=lambda p, flags: os.open(p, flags | os.O_NONBLOCK)) as handle:
        os.set_blocking(handle.fileno(), True)
        data = handle.read(MAX_INPUT_BYTES + 1)
    if len(data) > MAX_INPUT_BYTES:
        raise ConfigError(f"input file {path!r} is longer than {MAX_INPUT_BYTES} bytes")
    return data.decode("utf-8")
