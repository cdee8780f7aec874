"""Input-affine SISO plant models and the pressurized-tank benchmark.

Every plant handled by this package has scalar dynamics of the form

    dx/dt = f(x) + g(x) * u + w(x) * theta

where ``u`` is the control input and ``theta`` an unmeasured, slowly
varying disturbance entering through the gain ``w``.  The benchmark
plant is a gas tank of volume ``vol`` whose pressure ``x`` is raised by
an inlet valve (opening ``u``, supply pressure ``p1``) and lowered by an
outlet valve at a fixed opening ``m2`` discharging against the back
pressure ``p2``.  With the ideal-gas/orifice model the flow terms are

    f(x) = -(1/vol) * alpha2 * a2 * m2 * x * sqrt(2 * (x - p2) / rho)
    g(x) =  (1/vol) * alpha1 * a1      * x * sqrt(2 * (p1 - x) / rho)
    w(x) =  x / vol

so the model is only meaningful for pressures between ``p2`` and ``p1``.
All evaluations are guarded: leaving the state domain raises
``DomainError`` instead of silently extrapolating through a negative
square-root argument.  ``rk4_increment``, the package's one Runge-Kutta
step (predictor: theta = 0; truth: the substep's theta), evaluates the
fused ``rhs`` and checks each stage state against the domain inline.
"""

import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import Callable, Optional

from .errors import DomainError, IntegrationDomainError

StateFunction = Callable[[float], float]


@dataclass(frozen=True)
class SystemDynamics:
    """Scalar input-affine dynamics with a guarded state domain.

    Attributes:
        drift: the autonomous term f(x).
        input_gain: the control gain g(x).
        uncertainty_gain: the disturbance gain w(x).
        state_domain: closed interval (lo, hi) on which the callables
            may be evaluated.
        rhs: ``rhs(x, u, theta)``, bitwise f(x) + g(x)*u + w(x)*theta;
            composed from the gains when left out, carried over as it is
            by ``dataclasses.replace``.
    """

    drift: StateFunction
    input_gain: StateFunction
    uncertainty_gain: StateFunction
    state_domain: tuple[float, float]
    rhs: Optional[Callable[[float, float, float], float]] = None

    def __post_init__(self):
        lo, hi = self.state_domain
        if not (math.isfinite(lo) and math.isfinite(hi)) or not lo < hi:
            raise ValueError(f"state_domain must be a finite interval, got {self.state_domain}")
        if self.rhs is None:
            f, g, w = self.drift, self.input_gain, self.uncertainty_gain
            object.__setattr__(self, "rhs", lambda x, u, th: f(x) + g(x) * u + w(x) * th)

    def check_state(self, x: float) -> None:
        """Raise DomainError unless ``x`` lies in the state domain."""
        lo, hi = self.state_domain
        if not (lo <= x <= hi):
            raise DomainError(f"state {x!r} outside domain [{lo!r}, {hi!r}]")

    def f(self, x: float) -> float:
        self.check_state(x)
        return self.drift(x)

    def g(self, x: float) -> float:
        self.check_state(x)
        return self.input_gain(x)

    def w(self, x: float) -> float:
        self.check_state(x)
        return self.uncertainty_gain(x)


def rk4_increment(
    dynamics: SystemDynamics, x: float, u: float, h: float, theta: float = 0.0
) -> float:
    """The increment (k1 + 2*k2 + 2*k3 + k4) / 6 of one classical RK4 step
    of dx/dt = rhs(x, u, theta), u and theta held over all four stages.

    A stage state outside the domain raises ``IntegrationDomainError``
    carrying the 1-based stage index.
    """
    if not h > 0:
        raise ValueError(f"step h must be positive, got {h!r}")
    rhs = dynamics.rhs
    lo, hi = dynamics.state_domain
    if not lo <= x <= hi:
        raise _stage_error(1, x)
    k1 = h * rhs(x, u, theta)
    if not lo <= (xs := x + k1 / 2.0) <= hi:
        raise _stage_error(2, xs)
    k2 = h * rhs(xs, u, theta)
    if not lo <= (xs := x + k2 / 2.0) <= hi:
        raise _stage_error(3, xs)
    k3 = h * rhs(xs, u, theta)
    if not lo <= (xs := x + k3) <= hi:
        raise _stage_error(4, xs)
    k4 = h * rhs(xs, u, theta)
    return (k1 + 2.0 * k2 + 2.0 * k3 + k4) / 6.0


def _stage_error(stage: int, state: float) -> IntegrationDomainError:
    message = f"stage {stage} state {state!r} left the domain"
    return IntegrationDomainError(message, stage=stage, state=state)


@dataclass(frozen=True)
class UncertaintySignal:
    """Piecewise-constant disturbance schedule theta(t).

    ``values[j]`` holds from ``times[j]`` until the next entry; before
    ``times[0]`` the first value applies.  A single entry therefore
    represents a constant disturbance.
    """

    times: tuple[float, ...]
    values: tuple[float, ...]

    def __post_init__(self):
        if len(self.times) != len(self.values) or not self.times:
            raise ValueError("times and values must be equally sized and non-empty")
        if any(not math.isfinite(v) for v in self.times + self.values):
            raise ValueError("schedule entries must be finite")
        if any(b <= a for a, b in zip(self.times, self.times[1:])):
            raise ValueError("schedule times must be strictly increasing")

    @classmethod
    def constant(cls, value: float) -> "UncertaintySignal":
        return cls(times=(0.0,), values=(float(value),))

    def value(self, t: float) -> float:
        idx = bisect_right(self.times, t) - 1
        return self.values[max(idx, 0)]

    def constant_over(self, t_first: float, t_last: float) -> Optional[float]:
        """theta on [t_first, t_last], or None if a schedule time falls in
        (t_first, t_last]."""
        idx = bisect_right(self.times, t_first)
        if idx < len(self.times) and self.times[idx] <= t_last:
            return None
        return self.values[max(idx - 1, 0)]


@dataclass(frozen=True)
class TankParams:
    """Physical parameters of the benchmark tank.

    Attributes:
        alpha1, alpha2: discharge coefficients of the inlet/outlet valve.
        a1, a2: valve pass cross-sections [m^2].
        p1: supply pressure upstream of the inlet valve [Pa].
        p2: back pressure downstream of the outlet valve [Pa].
        rho: gas density [kg/m^3].
        vol: tank volume [m^3].
        m2: fixed opening degree of the outlet valve, in [0, 1].
    """

    alpha1: float
    alpha2: float
    a1: float
    a2: float
    p1: float
    p2: float
    rho: float
    vol: float
    m2: float

    def __post_init__(self):
        for name in ("alpha1", "alpha2", "a1", "a2", "rho", "vol"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if not 0.0 <= self.m2 <= 1.0:
            raise ValueError(f"m2 must lie in [0, 1], got {self.m2!r}")
        if not self.p2 >= 0:
            raise ValueError("p2 must be non-negative")
        if not self.p1 > self.p2:
            raise ValueError(f"p1 must exceed p2, got p1={self.p1!r}, p2={self.p2!r}")

    @classmethod
    def benchmark(cls, p2: float = 100_000.0, m2: float = 1.0) -> "TankParams":
        """Benchmark tank parameters.

        ``p2`` and ``m2`` are not fixed by the benchmark description and
        must be chosen; the defaults are an atmospheric-order back
        pressure and a fully open outlet valve.
        """
        return cls(
            alpha1=0.631811,
            alpha2=0.631811,
            a1=1.9625e-3,
            a2=1.9625e-3,
            p1=2.0e5,
            p2=p2,
            rho=3.49772,
            vol=2.0,
            m2=m2,
        )


def tank_dynamics(params: TankParams, margin: float = 1e-3) -> SystemDynamics:
    """Build the tank's SystemDynamics.

    The state domain is shrunk to [p2 + margin, p1 - margin] so that
    integration stages cannot probe the square roots at negative
    arguments.  ``margin = 0`` exposes the closed interval, where the
    boundary values f(p2) = 0 and g(p1) = 0 are still well defined.
    """
    if margin < 0:
        raise ValueError("margin must be non-negative")
    lo = params.p2 + margin
    hi = params.p1 - margin
    if not lo < hi:
        raise ValueError(f"margin {margin!r} leaves an empty pressure range")

    neg_c_out = -(params.alpha2 * params.a2 * params.m2 / params.vol)
    c_in = params.alpha1 * params.a1 / params.vol
    two_over_rho = 2.0 / params.rho
    p1 = params.p1
    p2 = params.p2
    inv_vol = 1.0 / params.vol

    def drift(x: float) -> float:
        return neg_c_out * x * math.sqrt(two_over_rho * (x - p2))

    def input_gain(x: float) -> float:
        return c_in * x * math.sqrt(two_over_rho * (p1 - x))

    def uncertainty_gain(x: float) -> float:
        return x * inv_vol

    sqrt = math.sqrt

    def rhs(x: float, u: float, theta: float) -> float:
        # the three gains in their own operation order: bitwise f + g*u + w*theta
        return (
            neg_c_out * x * sqrt(two_over_rho * (x - p2))
            + c_in * x * sqrt(two_over_rho * (p1 - x)) * u
            + x * inv_vol * theta
        )

    return SystemDynamics(
        drift=drift,
        input_gain=input_gain,
        uncertainty_gain=uncertainty_gain,
        state_domain=(lo, hi),
        rhs=rhs,
    )
