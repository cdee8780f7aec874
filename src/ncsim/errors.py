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
    """A state evaluation was requested outside the plant's state domain,
    or a prediction a loss replays left it."""


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


class TraceExhaustedError(NcsimError):
    """A reception trace ran out of entries and wrapping was not enabled."""


class SimulationDiverged(NcsimError):
    """The closed-loop state left the plant domain mid-run.

    Attributes:
        step: index of the control interval during which the run failed.
        reason: short human-readable cause.
        stats: the run's ``RunStats`` over the records appended before
            the failure, ``x_final`` None.
    """

    def __init__(self, message: str, step: int, reason: str, stats):
        super().__init__(message)
        self.step = step
        self.reason = reason
        self.stats = stats


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


def clipped(value, limit: int = 40, show=repr) -> str:
    """``value`` as an error message quotes it: ``show(value)`` for a
    string, the repr of anything else.  A string or repr longer than
    ``limit`` characters is cut there and followed by its length, so the
    message stays short however long the input."""
    if not isinstance(value, str):
        value, show = repr(value), str
    if len(value) <= limit:
        return show(value)
    return f"{show(value[:limit])}... ({len(value)} characters)"


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
