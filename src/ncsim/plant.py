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
Every evaluation is guarded: the feedback checks its state once with
``check_state`` and the march checks every stage, so leaving the state
domain raises ``DomainError`` instead of silently extrapolating through a
negative square-root argument.

The one RK4 step, ``_RK4``, is source text compiled from three gain
expressions into the n-step march, which inlines
``(f) + (g) * u + (w) * theta`` at its four stages: truth runs it once
per run of substeps under one theta schedule entry (once per interval
unless a schedule time falls inside it), prediction once per buffer
entry, and ``rk4_increment`` for one step.  The tank's gains are its
formula, written once, so no stage makes a call; dynamics built from
callables pass ``f(x)``, ``g(x)`` and ``w(x)``.  Only this module's
strings are compiled, and numbers are bound as values, so no input
reaches the source.

The tank also compiles a zero-input march from the same template, whose
stages inline ``(f) + 0.0 + (w) * theta``, and its march runs that one
when u is +0.0 (the closed valve, which most lossy-run intervals hold) and
the caller's domain lies inside the tank's.  It returns the same bits:
the domain's lower end is > 0, so every stage state x is, and g(x) is at
most the float bound ``c_in * hi * sqrt(two_over_rho * (p1 - lo))``
because rounding is monotone; when that bound is finite, g(x) is finite
and >= +0.0, g(x) * (+0.0) is +0.0, and f + (+0.0) equals f + 0.0 for
every f, -0.0 included.  At u = -0.0 or NaN, on a domain that reaches 0,
for a gain that may overflow, and for dynamics built from callables, the
full march runs.
"""

import math
from bisect import bisect_right
from typing import Callable, NamedTuple, Optional

from .errors import ConfigError, DomainError, IntegrationDomainError, checked

StateFunction = Callable[[float], float]


@checked
class SystemDynamics(NamedTuple):
    """Scalar input-affine dynamics with a guarded state domain.

    Attributes:
        drift: the autonomous term f(x).
        input_gain: the control gain g(x).
        uncertainty_gain: the disturbance gain w(x).
        state_domain: closed interval (lo, hi) on which the callables
            may be evaluated.
        march: the RK4 march over f(x) + g(x)*u + w(x)*theta (see
            ``_RK4``), generated from the three gains when left out.
            ``_replace`` carries it over as it is.
    """

    drift: StateFunction
    input_gain: StateFunction
    uncertainty_gain: StateFunction
    state_domain: tuple[float, float]
    march: Optional[Callable[..., tuple[float, float]]] = None

    def _check(self) -> Optional[dict]:
        lo, hi = self.state_domain
        if not (math.isfinite(lo) and math.isfinite(hi)) or not lo < hi:
            raise ValueError(f"state_domain must be a finite interval, got {self.state_domain}")
        if self.march is None:
            f, g, w = self.drift, self.input_gain, self.uncertainty_gain
            return {"march": _generate(("f(x)", "g(x)", "w(x)"), f=f, g=g, w=w)["march"]}
        return None

    def check_state(self, x: float) -> None:
        """Raise DomainError unless ``x`` lies in the state domain."""
        lo, hi = self.state_domain
        if not (lo <= x <= hi):
            raise DomainError(f"state {x!r} outside domain [{lo!r}, {hi!r}]")


# The RK4 step from y, RHS the right-hand side at the stage state x.
# ``march`` takes n steps x <- scale*x + dx, u and theta held, hands an end
# state outside [lo, hi] to ``fail(x, steps_left)``, which may raise, and
# returns the last x and dx (x and 0.0 for no step).
_RK4 = """
    def march(x, u, h, theta, lo, hi, n, scale, fail):
        if not h > 0:
            raise ValueError(f"step h must be positive, got {h!r}")
        if not lo <= x <= hi:
            raise stage_error(1, x)
        dx = 0.0
        for left in range(n - 1, -1, -1):
            y = x
            k1 = h * (RHS)
            if not lo <= (x := y + k1 / 2.0) <= hi:
                raise stage_error(2, x)
            k2 = h * (RHS)
            if not lo <= (x := y + k2 / 2.0) <= hi:
                raise stage_error(3, x)
            k3 = h * (RHS)
            if not lo <= (x := y + k3) <= hi:
                raise stage_error(4, x)
            k4 = h * (RHS)
            dx = (k1 + 2.0 * k2 + 2.0 * k3 + k4) / 6.0
            x = scale * y + dx
            if not lo <= x <= hi:
                fail(x, left)
        return x, dx
"""
# The right-hand side a march inlines, over the gains f, g and w, and the
# zero-input one, which leaves g(x) * u out (see ``tank_dynamics``).
_RHS = "({0}) + ({1}) * u + ({2}) * theta"
_ZERO_INPUT_RHS = "({0}) + 0.0 + ({2}) * theta"
# Compiled factories by (inlined right-hand side, names of the bound values).
_FACTORIES: dict = {}


def _generate(gains: tuple[str, str, str], rhs: str = _RHS, **values) -> dict:
    """``drift``, ``input_gain``, ``uncertainty_gain`` and ``march`` from
    ``gains``, this module's f, g and w in x over the names in ``values``;
    the march's stages inline ``rhs`` over them.  Compiled once per
    expression.
    """
    rhs = rhs.format(*gains)
    key = (rhs, tuple(values))
    if key not in _FACTORIES:
        names = ("drift", "input_gain", "uncertainty_gain")
        lines = [f"def factory(stage_error, {', '.join(values)}):"]
        for name, expr in zip(names, gains):
            lines += [f"    def {name}(x):", f"        return {expr}"]
        lines.append(_RK4.replace("RHS", rhs))
        made = ", ".join(f"{name}={name}" for name in (*names, "march"))
        lines.append(f"    return dict({made})")
        namespace: dict = {}
        exec(compile("\n".join(lines), "<ncsim.plant kernel>", "exec"), namespace)
        _FACTORIES[key] = namespace["factory"]
    return _FACTORIES[key](_stage_error, **values)


def rk4_increment(
    dynamics: SystemDynamics, x: float, u: float, h: float, theta: float = 0.0
) -> float:
    """The increment (k1 + 2*k2 + 2*k3 + k4) / 6 of one classical RK4 step
    of dx/dt = f(x) + g(x)*u + w(x)*theta, u and theta held over all four stages.

    A stage state outside the domain raises ``IntegrationDomainError``
    carrying the 1-based stage index.
    """
    # one step, whose end state is the caller's to check
    lo, hi = dynamics.state_domain
    return dynamics.march(x, u, h, theta, lo, hi, 1, 1.0, lambda x, left: None)[1]


def _stage_error(stage: int, state: float) -> IntegrationDomainError:
    message = f"stage {stage} state {state!r} left the domain"
    return IntegrationDomainError(message, stage=stage, state=state)


@checked
class UncertaintySignal(NamedTuple):
    """Piecewise-constant disturbance schedule theta(t).

    ``values[j]`` holds from ``times[j]`` until the next entry; before
    ``times[0]`` the first value applies.  A single entry therefore
    represents a constant disturbance.
    """

    times: tuple[float, ...]
    values: tuple[float, ...]

    def _check(self) -> None:
        if len(self.times) != len(self.values) or not self.times:
            raise ConfigError("sim.theta: times and values must be equally sized and non-empty")
        if any(not math.isfinite(v) for v in self.times + self.values):
            raise ConfigError("sim.theta: schedule entries must be finite")
        if any(b <= a for a, b in zip(self.times, self.times[1:])):
            raise ConfigError("sim.theta: schedule times must be strictly increasing")

    @classmethod
    def constant(cls, value: float) -> "UncertaintySignal":
        return cls(times=(0.0,), values=(float(value),))

    def value(self, t: float) -> float:
        idx = bisect_right(self.times, t) - 1
        return self.values[max(idx, 0)]


@checked
class TankParams(NamedTuple):
    """Physical parameters of the benchmark tank.

    Attributes:
        alpha1, alpha2: discharge coefficients of the inlet/outlet valve.
        a1, a2: valve pass cross-sections [m^2].
        p1: supply pressure upstream of the inlet valve [Pa].
        p2: back pressure downstream of the outlet valve [Pa].
        rho: gas density [kg/m^3].
        vol: tank volume [m^3].
        m2: fixed opening degree of the outlet valve, in [0, 1].
        domain_margin: how far the state domain stays inside [p2, p1], so
            that integration stages cannot probe the square roots at
            negative arguments; 0 exposes the closed interval, where the
            boundary values f(p2) = 0 and g(p1) = 0 are still well defined.
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
    domain_margin: float = 1e-3

    def _check(self) -> None:
        for name in ("alpha1", "alpha2", "a1", "a2", "rho", "vol"):
            if not getattr(self, name) > 0:
                raise ConfigError(f"plant.{name} must be positive")
        if not 0.0 <= self.m2 <= 1.0:
            raise ConfigError(f"plant.m2 must lie in [0, 1], got {self.m2!r}")
        if not self.p2 >= 0:
            raise ConfigError("plant.p2 must be non-negative")
        if not self.p1 > self.p2:
            raise ConfigError(f"plant.p1 must exceed p2, got p1={self.p1!r}, p2={self.p2!r}")
        if not self.domain_margin >= 0:
            raise ConfigError("plant.domain_margin must be non-negative")
        lo, hi = self.state_domain
        if not lo < hi:
            raise ConfigError("plant.domain_margin leaves an empty state domain")

    @property
    def state_domain(self) -> tuple[float, float]:
        """(p2 + domain_margin, p1 - domain_margin)."""
        return self.p2 + self.domain_margin, self.p1 - self.domain_margin


# The tank's gains f, g and w over the constants ``tank_dynamics`` binds:
# the one place the formula is written.
_TANK_GAINS = (
    "neg_c_out * x * sqrt(two_over_rho * (x - p2))",
    "c_in * x * sqrt(two_over_rho * (p1 - x))",
    "x * inv_vol",
)


def tank_dynamics(params: TankParams) -> SystemDynamics:
    """Build the tank's SystemDynamics on ``params.state_domain``.

    Where the domain proves g(x) finite and >= +0.0, the march takes the
    zero-input march for u = +0.0 in that domain, bitwise the same.
    """
    lo, hi = params.state_domain
    values = dict(
        sqrt=math.sqrt, p1=params.p1, p2=params.p2, inv_vol=1.0 / params.vol,
        neg_c_out=-(params.alpha2 * params.a2 * params.m2 / params.vol),
        c_in=params.alpha1 * params.a1 / params.vol, two_over_rho=2.0 / params.rho,
    )
    made = _generate(_TANK_GAINS, **values)
    # with lo > 0 every stage state x is > 0, and g(x) <= this float bound
    # on [lo, hi] since rounding is monotone; when it is finite, g(x) * (+0.0)
    # is +0.0 and adds to f what 0.0 adds
    bound = values["c_in"] * hi * math.sqrt(values["two_over_rho"] * (params.p1 - lo))
    if lo > 0 and math.isfinite(bound):
        full = made["march"]
        zero_input = _generate(_TANK_GAINS, _ZERO_INPUT_RHS, **values)["march"]

        def march(x, u, h, theta, stage_lo, stage_hi, n, scale, fail):
            if u == 0.0 and math.copysign(1.0, u) > 0.0 and lo <= stage_lo and stage_hi <= hi:
                return zero_input(x, u, h, theta, stage_lo, stage_hi, n, scale, fail)
            return full(x, u, h, theta, stage_lo, stage_hi, n, scale, fail)

        made["march"] = march
    return SystemDynamics(state_domain=(lo, hi), **made)
