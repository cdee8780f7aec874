"""Loss channels of the sensor-to-controller link.

``LossSpec`` describes a channel and is the only place that validates
one; ``LossSpec.build(seed)`` realizes it as a ``LossModel``, whose
``sample_reception(k)`` is 1 when the measurement of control interval
``k`` reaches the controller and 0 when it is lost (actuation is
reliable).  ``LOSS_KEYS`` names the keys of each kind.  Seeded kinds draw
from a stdlib Mersenne Twister.  A model is a stream confined to one
simulation: it keeps no bit it has drawn and answers for k = 0, 1, 2,
... in order, so the k-th bit is a function of (spec, seed, k).
"""

import io
import random
from itertools import cycle, repeat
from typing import Iterable, Iterator, NamedTuple, Optional

from .errors import (
    PATH_LIMIT, ConfigError, TraceExhaustedError, attempt, checked, clipped, read_input,
)

# Each loss kind and its keys besides ``kind`` and ``seed``, in snapshot
# order.  The keys of the seeded kinds are the probabilities they draw
# with; the other kinds ignore the seed.
LOSS_KEYS = {
    "none": (),
    "bernoulli": ("p",),
    "gilbert-elliott": ("p_g2b", "p_b2g", "loss_in_bad"),
    "trace": ("trace_path", "wrap"),
}
LOSS_KINDS = tuple(LOSS_KEYS)
SEEDED_KINDS = ("bernoulli", "gilbert-elliott")
PROBABILITIES = tuple(key for kind in SEEDED_KINDS for key in LOSS_KEYS[kind])


class LossModel:
    """Reception bits drawn from ``bits`` one per call, in control
    interval order: ``sample_reception(k)`` is the next bit, and the
    caller asks for k = 0, 1, 2, ... once each.  A finite ``bits`` is a
    trace that does not wrap."""

    def __init__(self, bits: Iterable[int]):
        self._source = iter(bits)

    def sample_reception(self, k: int) -> int:
        bit = next(self._source, None)
        if bit is None:
            # read in order, k is the count of bits drawn
            raise TraceExhaustedError(f"trace has {k} entries, step {k} requested without wrap")
        return bit


def _gilbert_elliott(
    p_g2b: float, p_b2g: float, loss_in_bad: float, rng: random.Random
) -> Iterator[int]:
    """Two-state bursts: the link is good or bad, switching with
    ``p_g2b`` and ``p_b2g``, and loses a sample with probability
    ``loss_in_bad`` while bad.  The first draw picks the initial state from
    the stationary distribution; then each step draws its loss while bad,
    then the transition."""
    draw = rng.random
    total = p_g2b + p_b2g
    bad = draw() < (p_g2b / total if total > 0 else 0.0)
    while True:
        yield 0 if bad and draw() < loss_in_bad else 1
        roll = draw()
        bad = roll >= p_b2g if bad else roll < p_g2b


@checked
class LossSpec(NamedTuple):
    """Declarative description of a loss channel.

    ``build`` realizes it, optionally under another seed so paired
    comparisons can enumerate seeds.  A trace channel reads its file
    once, here, into the derived field ``bits``, so a bad trace is a
    config error before anything runs; a ``bits`` passed in is replaced.
    """

    kind: str
    seed: int = 0
    p: Optional[float] = None
    p_g2b: Optional[float] = None
    p_b2g: Optional[float] = None
    loss_in_bad: Optional[float] = None
    trace_path: Optional[str] = None
    wrap: bool = False
    bits: tuple = ()

    # Fields ``_check`` derives from the others, which are no scenario keys.
    _derived = ("bits",)

    def _check(self) -> dict:
        if self.kind not in LOSS_KINDS:
            raise ConfigError(
                f"loss.kind must be one of {LOSS_KINDS}, got {clipped(self.kind)}"
            )
        if not self.seed >= 0:
            # random.Random(-s) draws the same stream as random.Random(s)
            raise ConfigError(f"loss.seed must be non-negative, got {clipped(self.seed)}")
        for name in LOSS_KEYS[self.kind]:
            if getattr(self, name) is None:
                raise ConfigError(f"loss.{name} is required for {self.kind} losses")
        for name in PROBABILITIES:
            value = getattr(self, name)
            if value is not None and not 0.0 <= value <= 1.0:
                raise ConfigError(f"loss.{name} must lie in [0, 1], got {value!r}")
        if self.kind != "trace":
            return {"bits": ()}
        bits = attempt("loss.trace_path {} is not a readable trace", self.trace_path,
                       read_trace_file, self.trace_path, errors=(OSError, ValueError))
        return {"bits": tuple(bits)}

    @property
    def seeded(self) -> bool:
        """Whether the seed changes the loss realization."""
        return self.kind in SEEDED_KINDS

    def build(self, seed: Optional[int] = None) -> LossModel:
        rng = random.Random(self.seed if seed is None else seed)
        if self.kind == "none":
            return LossModel(repeat(1))
        if self.kind == "bernoulli":
            return LossModel(0 if rng.random() < self.p else 1 for _ in repeat(None))
        if self.kind == "gilbert-elliott":
            return LossModel(_gilbert_elliott(self.p_g2b, self.p_b2g, self.loss_in_bad, rng))
        return LossModel(cycle(self.bits) if self.wrap else self.bits)


def read_trace_file(path: str) -> list[int]:
    """Read a reception trace: one 0 or 1 per line, blanks ignored, in a
    UTF-8 file of at most ``MAX_INPUT_BYTES`` bytes."""
    bits, where = [], clipped(path, PATH_LIMIT, str)
    for lineno, line in enumerate(io.StringIO(read_input(path), newline=None), start=1):
        text = line.strip()
        if not text:
            continue
        if text not in ("0", "1"):
            raise ValueError(f"{where}:{lineno}: expected 0 or 1, got {clipped(text)}")
        bits.append(int(text))
    if not bits:
        raise ValueError(f"no trace entries in {where}")
    return bits
