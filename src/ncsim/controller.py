"""Lyapunov-based feedback via Sontag's universal formula.

The control Lyapunov function is quadratic in the regulation error,
V(x) = (x - setpoint)^2, with Lie derivatives

    LfV = 2 * (x - setpoint) * f(x)
    LgV = 2 * (x - setpoint) * g(x)

Away from LgV = 0 the feedback is the scalar universal formula

    u = -(LfV + sqrt(LfV^2 + LgV^4)) / LgV

which gives the closed-loop decrease LfV + LgV*u = -sqrt(LfV^2 + LgV^4),
strictly negative wherever LgV is nonzero.  Below a small |LgV|
threshold the input is zero, and the returned value is clamped to the
actuator range.  Note V's scale matters: replacing the gradient 2e by
2ce changes the unclamped input, so the formula is tied to the plant's
units.
"""

import math
from typing import NamedTuple

from .errors import ConfigError, ControllerOverflowError, checked
from .plant import SystemDynamics


@checked
class ControllerConfig(NamedTuple):
    """Setpoint, threshold and saturation limits of the feedback law.

    Attributes:
        setpoint: the regulation setpoint, where V(x) = (x - setpoint)^2
            vanishes.
        lgv_threshold: inputs are zero while |LgV| stays at or below
            this value.
        u_min, u_max: actuator saturation bounds (the tank valve runs
            from closed, 0, to fully open, 1).
    """

    setpoint: float
    lgv_threshold: float = 1e-9
    u_min: float = 0.0
    u_max: float = 1.0

    def _check(self) -> None:
        if not math.isfinite(self.setpoint):
            raise ConfigError(f"controller.setpoint must be finite, got {self.setpoint!r}")
        if not self.lgv_threshold > 0:
            raise ConfigError(
                f"controller.lgv_threshold must be positive, got {self.lgv_threshold!r}"
            )
        if not self.u_min < self.u_max:
            raise ConfigError(
                f"controller.u_min must be below u_max, got u_min={self.u_min!r}, "
                f"u_max={self.u_max!r}"
            )


def lie_derivatives(
    dynamics: SystemDynamics, cfg: ControllerConfig, x: float
) -> tuple[float, float]:
    """Return (LfV, LgV) at ``x``, which must lie in the state domain."""
    dynamics.check_state(x)
    grad = 2.0 * (x - cfg.setpoint)
    return grad * dynamics.drift(x), grad * dynamics.input_gain(x)


def sontag_from_lie(lfv: float, lgv: float, cfg: ControllerConfig) -> float:
    """Universal-formula input from precomputed Lie derivatives."""
    if abs(lgv) <= cfg.lgv_threshold:
        return 0.0
    try:
        u = -(lfv + math.sqrt(lfv * lfv + lgv ** 4)) / lgv
    except OverflowError:  # a float ** raises where * gives inf
        u = math.inf
    if not math.isfinite(u):
        raise ControllerOverflowError(
            f"feedback overflowed at LfV={lfv!r}, LgV={lgv!r}"
        )
    return min(max(u, cfg.u_min), cfg.u_max)


def sontag_input(dynamics: SystemDynamics, cfg: ControllerConfig, x: float) -> float:
    """Saturated universal-formula feedback evaluated at state ``x``."""
    lfv, lgv = lie_derivatives(dynamics, cfg, x)
    return sontag_from_lie(lfv, lgv, cfg)


def closed_loop_vdot(dynamics: SystemDynamics, cfg: ControllerConfig, x: float) -> float:
    """Time derivative of V along the closed loop at ``x``.

    Equals -sqrt(LfV^2 + LgV^4) wherever the input is above threshold
    and unsaturated; with a binding saturation bound the value is simply
    reported and may be non-negative.
    """
    lfv, lgv = lie_derivatives(dynamics, cfg, x)
    return lfv + lgv * sontag_from_lie(lfv, lgv, cfg)
