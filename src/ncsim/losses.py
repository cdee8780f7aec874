"""Reception models for the sensor-to-controller link.

``model.sample_reception(k)`` returns 1 when the measurement of control
interval ``k`` reaches the controller and 0 when it is lost.  Only the
measurement link is lossy; actuation is assumed reliable.  Stochastic
models own a seeded stream (stdlib Mersenne Twister, so a fixed seed
fixes the whole sequence) and cache generated bits, making the result a
deterministic function of (parameters, seed, k) regardless of query
order.  A model instance is a stateful stream and must stay confined to
one simulation.
"""

import io
import random
from abc import ABC, abstractmethod
from typing import Sequence

from .errors import TraceExhaustedError, read_input


class LossModel(ABC):
    """Base class: reception bits indexed by control interval."""

    kind: str = "abstract"

    def sample_reception(self, k: int) -> int:
        if k < 0:
            raise ValueError(f"step index must be non-negative, got {k!r}")
        return self._bit(k)

    @abstractmethod
    def _bit(self, k: int) -> int:
        ...


class NoLoss(LossModel):
    """Perfect link; every sample is received."""

    kind = "none"

    def _bit(self, k: int) -> int:
        return 1


class _CachedStream(LossModel):
    """Grows a bit cache on demand so queries may arrive in any order."""

    def __init__(self):
        self._bits: list[int] = []

    def _bit(self, k: int) -> int:
        while len(self._bits) <= k:
            self._bits.append(self._next_bit())
        return self._bits[k]

    def _next_bit(self) -> int:
        raise NotImplementedError


class BernoulliLoss(_CachedStream):
    """Independent losses with a fixed per-sample probability."""

    kind = "bernoulli"

    def __init__(self, p_loss: float, seed: int = 0):
        super().__init__()
        if not 0.0 <= p_loss <= 1.0:
            raise ValueError(f"p_loss must lie in [0, 1], got {p_loss!r}")
        self.p_loss = p_loss
        self.seed = seed
        self._rng = random.Random(seed)

    def _next_bit(self) -> int:
        return 0 if self._rng.random() < self.p_loss else 1


class GilbertElliottLoss(_CachedStream):
    """Two-state burst-loss channel.

    A hidden state alternates between good and bad with transition
    probabilities ``p_g2b`` and ``p_b2g``; samples are received in the
    good state and lost with probability ``loss_in_bad`` in the bad one.
    The initial state is drawn from the stationary distribution.  Draw
    order per step is fixed (loss draw while bad, then transition draw)
    so a seed pins the sequence.
    """

    kind = "gilbert-elliott"

    def __init__(self, p_g2b: float, p_b2g: float, loss_in_bad: float, seed: int = 0):
        super().__init__()
        for name, value in (("p_g2b", p_g2b), ("p_b2g", p_b2g), ("loss_in_bad", loss_in_bad)):
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {value!r}")
        self.p_g2b = p_g2b
        self.p_b2g = p_b2g
        self.loss_in_bad = loss_in_bad
        self.seed = seed
        self._rng = random.Random(seed)
        total = p_g2b + p_b2g
        self.stationary_bad = p_g2b / total if total > 0 else 0.0
        self._bad = self._rng.random() < self.stationary_bad

    def stationary_loss_rate(self) -> float:
        return self.stationary_bad * self.loss_in_bad

    def _next_bit(self) -> int:
        if self._bad:
            bit = 0 if self._rng.random() < self.loss_in_bad else 1
        else:
            bit = 1
        roll = self._rng.random()
        if self._bad:
            if roll < self.p_b2g:
                self._bad = False
        elif roll < self.p_g2b:
            self._bad = True
        return bit


class TraceLoss(LossModel):
    """Reception bits replayed from a recorded trace."""

    kind = "trace"

    def __init__(self, bits: Sequence[int], wrap: bool = False):
        cleaned = []
        for b in bits:
            if b not in (0, 1):
                raise ValueError(f"trace entries must be 0 or 1, got {b!r}")
            cleaned.append(int(b))
        if not cleaned:
            raise ValueError("trace must contain at least one entry")
        self.bits = tuple(cleaned)
        self.wrap = wrap

    def _bit(self, k: int) -> int:
        if k >= len(self.bits):
            if not self.wrap:
                raise TraceExhaustedError(
                    f"trace has {len(self.bits)} entries, step {k} requested without wrap"
                )
            k %= len(self.bits)
        return self.bits[k]


def read_trace_file(path: str) -> list[int]:
    """Read a reception trace: one 0 or 1 per line, blanks ignored, in a
    UTF-8 file of at most ``MAX_INPUT_BYTES`` bytes."""
    bits = []
    for lineno, line in enumerate(io.StringIO(read_input(path), newline=None), start=1):
        text = line.strip()
        if not text:
            continue
        if text not in ("0", "1"):
            raise ValueError(f"{path}:{lineno}: expected 0 or 1, got {text!r}")
        bits.append(int(text))
    if not bits:
        raise ValueError(f"no trace entries in {path}")
    return bits
