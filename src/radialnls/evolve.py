"""Time evolution of the flow by norm-preserving operator splitting.

One step is nonlinear-linear-nonlinear: an exact half-step phase rotation
exp(i dt/2 |u|^2), a Crank-Nicolson solve for the linear propagator over dt,
and a second half-step rotation.  Both sub-flows preserve the discrete L^2
norm exactly, so mass is conserved to round-off.  A fourth-order
triple-jump composition of that step is available for experiments that sit
on the standing-wave instability, where the quadratic splitting defect
seeds exponential error growth (half-step defects at dt ~ 1e-4 are
amplified to O(1) by t = 1 at default parameters).  Its fourth order shows
only while dt |Delta_gamma| stays moderate, as on the n = 64 grid of
``test_global_fourth_order``: the Crank-Nicolson sub-steps are stiff on fine
grids, and on n = 2048, R_max = 16 the observed order was 1.5-3.  It stays
because it still wins where the instability rules: on the standing wave of
acceptance criterion 5 it reaches a modulus deviation of 2.0e-5 at
dt = 1.25e-4, where order 2 at the same dt blows up.

The stepper prepares each Crank-Nicolson solve with Id - i tau/2 Delta_gamma
once (two odd-even reduction levels, then LAPACK ?gttrf on the quarter-size
system); a sub-step is one apply of the operator, the reduction and one
?gttrs solve (see radial_grid.CrankNicolson).  The rotation keeps
|u|, so two adjacent half-rotations are one rotation by the summed angle:
one call `_Stepper.step(u, n)` takes n steps with the rotations merged
between sub-steps and between steps (the first-same-as-last form of Strang
splitting), and splits a half-rotation back out only at the end of the
call.  Callers step in runs between the states they read: `run` a monitor
window, `localized_virial.rigidity_probe` the stretch between two steps at
which it evaluates I.  Each builds Delta_gamma once and hands it to every
stepper it prepares, so a new dt costs only its Crank-Nicolson preparation.

`run` chooses dt by a step-size controller (Hairer-Norsett-Wanner I,
section II.4) on a step-doubling error probe at each window start: it
shrinks dt when the probe fails, halves it when a spiking window's re-run
is adopted and grows it back, never past the configured dt, after a quiet
window.  Every change is a DtEvent in the trace; see `run`.

An optional absorbing layer multiplies by d = exp(-W(r) dt) once per step,
with W a cubic ramp supported on the outer shell; it only removes outgoing
flux, so mass is non-increasing with it enabled.  The damping sits between
the last half-rotation of a step and the first of the next, so the merged
rotation there turns v by the per-node angle (tau_last + tau_first d^2)/2
|v|^2 before damping it.  Conservation is asserted only with the layer
disabled.
"""

from __future__ import annotations

import enum
from bisect import bisect_left
from dataclasses import dataclass, field as dataclass_field
from typing import NamedTuple

import numpy as np

from . import functionals
from .functionals import VIRIAL_PAIR
from .radial_grid import (
    CrankNicolson,
    EquationParams,
    RadialField,
    RadialGrid,
    Tridiagonal,
    lap_gamma_diagonals,
)

#: Yoshida triple-jump coefficients for the order-4 composition
_W1 = 1.0 / (2.0 - 2.0 ** (1.0 / 3.0))
_W0 = 1.0 - 2.0 * _W1

#: decay test: a rise of the L^4 norm over its running minimum by more than
#: this factor breaks decay, and the window must end this far below its start
DECAY_RIPPLE = 1.05
DECAY_NET_DROP = 0.98

#: decay test: the relative energy drift must stay at or below this in the
#: window.  The flow conserves energy (the absorber only drains it), so a
#: gain of that size means the run no longer resolves the flow, as in a
#: collapse arrested at grid scale, whose L^4 norm can wander down
DECAY_ENERGY_GAIN = 1.0

#: blow-up test: a window ending with a gradient norm above this factor
#: times the initial one is re-run at dt/2 to confirm or refute blow-up
BLOWUP_GRAD_FACTOR = 10.0

#: slack of the run-time K_gamma lower bound
K_BOUND_TOL = 1e-6

#: peak of the cubic-ramp absorbing potential at R_max
ABSORB_STRENGTH = 5.0

#: relative step-doubling error above which a window start shrinks dt
LOCAL_ERROR_TOL = 1e-6

#: smallest dt a run starts from or refines to; a shrink below it aborts
MIN_DT = 1e-12

#: exponent k of the step-size factor 0.9 (tol/err)^k: the step-doubling
#: error of one step scales as dt^3 at order 2, and order 4 takes the same
#: k: on 0.9 Q on the default grid the error went as dt^2.6-2.9 at order 2
#: and dt^2.3-2.6 at order 4, for dt from 2e-3 to 1.25e-4
CONTROLLER_EXPONENT = 1.0 / 3.0

#: a growth of dt below this ratio is skipped: each dt change prepares new
#: steppers, which costs about as much as a few steps
MIN_GROWTH = 1.25

#: below this |theta|, cos theta rounds to 1 and sin theta to theta
_SMALL_ANGLE = 2.0**-27


class Outcome(enum.Enum):
    RAN_TO_T_END = "ran_to_t_end"
    BLOWUP_DETECTED = "blowup_detected"
    DECAY_DETECTED = "decay_detected"
    ABORTED = "aborted"


@dataclass
class EvolutionConfig:
    """Settings of one run, and the only place they and their defaults are
    declared: the command line's evolution keys are these fields."""

    dt: float = 1e-3
    t_end: float = 10.0
    monitor_every: int = 20
    absorb: bool = False
    absorb_width: float = 8.0
    decay_window: float = 2.0
    splitting_order: int = 2

    def validate(self, grid: RadialGrid) -> None:
        for name in ("dt", "t_end", "absorb_width"):
            value = getattr(self, name)
            if not np.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        # +inf is allowed and turns the decay test off
        if not (self.decay_window > 0.0):
            raise ValueError(f"decay_window must be positive, got {self.decay_window}")
        if not (0.0 < self.dt <= grid.h):
            raise ValueError(
                f"dt must lie in (0, h]; dt={self.dt}, h={grid.h}"
            )
        if self.dt < MIN_DT:
            raise ValueError(f"dt must be >= min_dt; dt={self.dt}, min_dt={MIN_DT}")
        if not (self.t_end > 0.0):
            raise ValueError("t_end must be positive")
        if not np.isfinite(self.t_end / self.dt):
            raise ValueError(
                f"t_end must span a finite number of steps; t_end/dt = "
                f"{self.t_end}/{self.dt} overflows"
            )
        if self.monitor_every < 1:
            raise ValueError("monitor_every must be >= 1")
        if self.absorb and not (0.0 < self.absorb_width <= grid.r_max / 4.0):
            raise ValueError(
                f"absorb_width must lie in (0, R_max/4]; got {self.absorb_width} "
                f"with R_max = {grid.r_max:g}; set --absorb-width"
            )
        if self.splitting_order not in (2, 4):
            raise ValueError("splitting_order must be 2 or 4")


@dataclass(frozen=True)
class DtEvent:
    """One change of dt in a run, or the confirmation of blow-up.

    cause is "probe" (the window-start error probe failed), "spike" (a
    spiking window's re-run at dt/2 was adopted), "grow" (after a window
    that passed its probe and did not spike), "abort" (a shrink that would
    take dt below MIN_DT; the run stops and dt_new is that value) or
    "blowup" (the re-run confirmed blow-up; dt_new == dt_old).  t is the
    time of the state the new dt steps from, err the probe's relative
    step-doubling error at the start of the window that caused it.
    """

    t: float
    cause: str
    dt_old: float
    dt_new: float
    err: float


class Snapshot(NamedTuple):
    """State at the first monitor tick at or past a requested time."""

    t_requested: float
    t: float
    values: np.ndarray


@dataclass
class EvolutionTrace:
    times: list = dataclass_field(default_factory=list)
    mass_drift: list = dataclass_field(default_factory=list)
    energy_drift: list = dataclass_field(default_factory=list)
    l4_norm: list = dataclass_field(default_factory=list)
    grad_norm: list = dataclass_field(default_factory=list)
    virial_K: list = dataclass_field(default_factory=list)
    k_lower_bound_ok: list = dataclass_field(default_factory=list)
    outcome: Outcome = Outcome.RAN_TO_T_END
    final_time: float = 0.0
    final_state: RadialField | None = None
    dt_final: float = 0.0
    events: list = dataclass_field(default_factory=list)  # DtEvent records
    stepper_builds: int = 0
    snapshots: list = dataclass_field(default_factory=list)  # Snapshot records
    snapshots_unreached: list = dataclass_field(default_factory=list)  # sorted times


def absorbing_profile(grid: RadialGrid, width: float, strength: float) -> np.ndarray:
    """Cubic-ramp absorbing potential W(r) on [R_max - width, R_max]."""
    r_start = grid.r_max - width
    ramp = np.clip((grid.r - r_start) / width, 0.0, None)
    return strength * ramp**3


def _rotate(u: np.ndarray, s) -> np.ndarray:
    """Exact nonlinear flow exp(i s |u|^2) u; s is a scalar or per-node array.

    The phase is cos theta + i sin theta of the real angle theta = s |u|^2.
    Past the last node with |theta| >= _SMALL_ANGLE it is 1 + i theta, the
    correctly rounded cos and sin there, so only the nodes up to it pay for
    the trigonometry.
    """
    re, im = u.real, u.imag
    theta = re * re
    theta += im * im
    theta *= s
    large = np.abs(theta) >= _SMALL_ANGLE
    last = len(large) - 1 - int(np.argmax(large[::-1]))
    m = last + 1 if large[last] else 0
    out = np.empty_like(u)
    np.cos(theta[:m], out=out.real[:m])
    np.sin(theta[:m], out=out.imag[:m])
    out.real[m:] = 1.0
    out.imag[m:] = theta[m:]
    out *= u
    return out


class _Stepper:
    """Prebuilt splitting stepper for a fixed (Delta_gamma, dt, order).

    `lap` is the caller's Delta_gamma (radial_grid.lap_gamma_diagonals),
    built once per run; the Crank-Nicolson solves and merged rotation angles
    of dt are set up here, once.  See the module docstring for the merging
    rule.
    """

    def __init__(self, lap: Tridiagonal, dt, order=2, absorb_w=None):
        taus = [dt] if order == 2 else [_W1 * dt, _W0 * dt, _W1 * dt]
        propagators = {tau: CrankNicolson(lap, tau) for tau in set(taus)}
        self._cn = [propagators[tau] for tau in taus]
        half = [0.5 * tau for tau in taus]
        self._first, self._last = half[0], half[-1]
        # merged angles between sub-steps of one step
        self._inner = [a + b for a, b in zip(half[:-1], half[1:])]
        # merged angle across a step boundary, with the damping in between
        self._damp = None
        self._seam = self._last + self._first
        if absorb_w is not None:
            self._damp = np.exp(-absorb_w * dt)
            self._seam = self._last + self._first * self._damp**2

    def step(self, u: np.ndarray, n: int = 1) -> np.ndarray:
        """n steps from u; no run leaves floating-point range.

        The rotation is a unit phase per node, Crank-Nicolson is unitary in
        the weighted product (Delta_gamma is self-adjoint there and z = i
        tau/2 imaginary; round-off ~1e-14 per 1e4 steps) and the absorber
        damps by d <= 1, so w_j |u_j(t)|^2 <= M(t) <= M(0) at every node j.
        `run` and `rigidity_probe` start with functionals.report(u0), which
        rejects a non-finite |u0|^4, so max |u0|^2 < 1.4e154 and |u_j|^2 <=
        (sum(w) / w_0) max |u0|^2 ~ (4 n^3 / 3) 1.4e154: finite on any grid
        that fits in memory, as are the rotation angles and Delta_gamma u.
        The RuntimeError below guards that bound against later changes.
        """
        u = _rotate(u, self._first)
        for k in range(n):
            u = self._cn[0](u)
            for angle, cn in zip(self._inner, self._cn[1:]):
                u = cn(_rotate(u, angle))
            u = _rotate(u, self._seam if k + 1 < n else self._last)
            if self._damp is not None:
                u *= self._damp
        if not np.all(np.isfinite(u)):
            raise RuntimeError("state left floating-point range")
        return u


def _k_bound_ok(rep, S0, level, params) -> bool:
    """Run-time lower bound on the virial functional, from the report of u(t).

    Checks K_gamma(u(t)) >= min(level - S0, (2 mu/7) ||(-Delta_gamma)^{1/2}
    u(t)||^2) - K_BOUND_TOL, the bound available strictly below the threshold
    (S0 < level), which run checks before it monitors the bound.
    """
    floor = min(level - S0, (2.0 * params.mu / 7.0) * rep.sobolev_gamma_sq)
    return bool(rep.k(VIRIAL_PAIR, params) >= floor - K_BOUND_TOL)


def run(
    u0: RadialField,
    cfg: EvolutionConfig,
    params: EquationParams,
    level: float | None = None,
    snapshot_times: tuple = (),
) -> EvolutionTrace:
    """Integrate to t_end or until a detector fires.

    Of `cfg` only the EvolutionConfig fields are read (a subclass carrying
    more settings passes as it is); the probe tolerance and the dt floor
    are the module constants LOCAL_ERROR_TOL and MIN_DT.

    With `level` supplied (the ground-state action) and data strictly below
    it with positive virial, the K_gamma lower bound is monitored at every
    tick and required for decay detection.  Snapshots are taken at the first
    monitor tick at or past each requested time, which must lie in
    [0, t_end] (with the 1e-12 slack of the tick matching), and record both
    times; requesting every tick time records the state at every tick.  The
    requested times still pending when the run stops land, sorted, in
    trace.snapshots_unreached.

    The flow advances in windows, and one controller sets dt, always
    through the same bookkeeping: every change is a DtEvent in
    trace.events, and dt never exceeds cfg.dt.  With f = 0.9 (tol/err)^k
    for the relative step-doubling error err of one step at the window
    start (tol = LOCAL_ERROR_TOL, k = CONTROLLER_EXPONENT):
    - a probe with err > tol shrinks dt to dt max(1/2, f) and probes again;
    - a window that ends with a gradient norm above BLOWUP_GRAD_FACTOR
      times the initial one is run again from its start at dt/2.  Blow-up
      is confirmed when the re-run ends with a gradient norm above the
      limit and above the window start's.  Otherwise the spike was a
      step-size artifact: the re-run state is adopted and dt halved;
    - after any other window dt grows to min(cfg.dt, dt min(2, f)), unless
      that is less than MIN_GROWTH times dt.
    A shrink below MIN_DT aborts.  A window takes round(monitor_every
    cfg.dt / dt) steps, so it keeps its length in time, and the last one
    takes the whole steps left to t_end, rounded up: it ends at most one
    step past t_end.  The run holds two steppers, at dt and dt/2, and
    counts their preparations in trace.stepper_builds.  Every window
    records the monitor tick of the state it adopts, so trace.times[-1] ==
    trace.final_time on every outcome, and trace.dt_final is the dt_new of
    the last event (cfg.dt without one).
    """
    grid = u0.grid
    cfg.validate(grid)
    if not all(0.0 <= t <= cfg.t_end + 1e-12 for t in snapshot_times):
        raise ValueError(
            f"snapshot_times must be finite and lie in [0, t_end = {cfg.t_end}], "
            f"got {snapshot_times}"
        )

    rep = functionals.report(u0, params)
    m0, e0, S0 = rep.mass, rep.energy, rep.action
    monitor_bound = (
        level is not None and S0 < level and rep.k(VIRIAL_PAIR, params) > 0.0
    )
    grad_limit = BLOWUP_GRAD_FACTOR * np.sqrt(rep.kinetic)

    absorb_w = None
    if cfg.absorb:
        absorb_w = absorbing_profile(grid, cfg.absorb_width, ABSORB_STRENGTH)

    lap = lap_gamma_diagonals(grid, params.gamma, params.mu)
    trace = EvolutionTrace()
    u = u0.values.astype(complex)
    t = 0.0
    dt, every, steppers = None, None, {}

    def use(dt_new):
        """Step at dt_new: keep the live steppers it still needs (at dt_new
        and dt_new/2), drop the others, then prepare the missing ones."""
        nonlocal dt, every
        dt = dt_new
        every = round(cfg.monitor_every * (cfg.dt / dt))
        kept = {d: steppers[d] for d in (dt, dt / 2.0) if d in steppers}
        steppers.clear()
        for d in (dt, dt / 2.0):
            if d not in kept:
                kept[d] = _Stepper(lap, d, cfg.splitting_order, absorb_w)
                trace.stepper_builds += 1
        steppers.update(kept)

    def change_dt(cause, dt_new, err):
        """Record the event and step at dt_new from now on; False when
        dt_new is below MIN_DT, which records an abort instead."""
        nonlocal dt
        aborts = dt_new < MIN_DT
        trace.events.append(DtEvent(t, "abort" if aborts else cause, dt, dt_new, err))
        if aborts:
            dt = dt_new
            return False
        use(dt_new)
        return True

    use(cfg.dt)
    pending_snapshots = sorted(snapshot_times)

    def append_tick(u_vals, t_now, rep):
        while pending_snapshots and t_now >= pending_snapshots[0] - 1e-12:
            trace.snapshots.append(
                Snapshot(pending_snapshots.pop(0), t_now, u_vals.copy())
            )
        trace.times.append(t_now)
        trace.mass_drift.append((rep.mass - m0) / m0 if m0 > 0 else rep.mass)
        trace.energy_drift.append(
            (rep.energy - e0) / abs(e0) if abs(e0) > 1e-300 else rep.energy
        )
        trace.l4_norm.append(rep.quartic**0.25)
        trace.grad_norm.append(float(np.sqrt(rep.kinetic)))
        trace.virial_K.append(rep.k(VIRIAL_PAIR, params))
        trace.k_lower_bound_ok.append(
            not monitor_bound or _k_bound_ok(rep, S0, level, params)
        )

    append_tick(u, t, rep)

    outcome = None
    while outcome is None and t < cfg.t_end - 1e-14:
        # kept a float: (t_end - t)/dt overflows once dt has refined far enough
        steps_left = np.ceil((cfg.t_end - t) / dt - 1e-9)
        n_window = int(min(every, max(steps_left, 1)))

        # local error probe by step doubling at the window start
        u_one = steppers[dt].step(u)
        u_two = steppers[dt / 2.0].step(u, 2)
        err = _relative_error(grid, u_one, u_two)
        factor = _step_factor(err)
        if err > LOCAL_ERROR_TOL:
            if not change_dt("probe", dt * max(0.5, factor), err):
                outcome = Outcome.ABORTED
            continue

        t_new = t + n_window * dt
        u_new = steppers[dt].step(u, n_window)
        rep_new = functionals.report(RadialField(grid, u_new), params)
        spike = None
        if np.sqrt(rep_new.kinetic) > grad_limit:
            # spiking window: confirm from its start at dt/2
            u_new = steppers[dt / 2.0].step(u, 2 * n_window)
            rep_new = functionals.report(RadialField(grid, u_new), params)
            confirmed = np.sqrt(rep_new.kinetic) > max(grad_limit, np.sqrt(rep.kinetic))
            spike = "blowup" if confirmed else "spike"
        u, t, rep = u_new, t_new, rep_new
        append_tick(u, t, rep)
        if spike == "blowup":
            trace.events.append(DtEvent(t, "blowup", dt, dt, err))
            outcome = Outcome.BLOWUP_DETECTED
        elif spike == "spike" and not change_dt("spike", dt / 2.0, err):
            outcome = Outcome.ABORTED
        elif _decay_detected(trace, cfg, monitor_bound):
            outcome = Outcome.DECAY_DETECTED
        elif spike is None and t < cfg.t_end - 1e-14:
            grown = min(cfg.dt, dt * min(2.0, factor))
            if grown >= MIN_GROWTH * dt:
                change_dt("grow", grown, err)

    trace.outcome = outcome or Outcome.RAN_TO_T_END
    trace.final_time = t
    trace.dt_final = dt
    trace.final_state = RadialField(grid, u)
    trace.snapshots_unreached = pending_snapshots
    return trace


def _relative_error(grid, u_one, u_two) -> float:
    """||u_one - u_two|| / ||u_two|| in the weighted L^2 norm, 0 for u_two = 0.

    One square root of the ratio: scaling both fields and the weights by
    powers of two leaves it bit for bit unchanged."""
    num = np.dot(grid.weights, np.abs(u_one - u_two) ** 2)
    den = np.dot(grid.weights, np.abs(u_two) ** 2)
    return float(np.sqrt(num / den)) if den > 0.0 else 0.0


def _step_factor(err: float) -> float:
    """The controller's factor 0.9 (tol/err)^k; +inf for err = 0."""
    if err == 0.0:
        return np.inf
    return 0.9 * (LOCAL_ERROR_TOL / err) ** CONTROLLER_EXPONENT


def _decay_detected(trace, cfg, monitor_bound):
    """Trailing-window test: L^4 norm decays up to small ripple with a net
    drop, the virial functional stayed above its floor and the energy did
    not grow by more than DECAY_ENERGY_GAIN.

    The floor is the threshold-gap bound when a level was supplied and
    plain positivity otherwise; a dispersing solution has K_gamma > 0 once
    the nonlinearity is subdominant, while an arrested collapse on a
    too-coarse grid keeps K_gamma large and negative and must not be
    mistaken for decay.
    """
    t_now = trace.times[-1]
    if t_now < cfg.decay_window:
        return False
    # tick times strictly increase, so the window is a suffix of the trace
    i0 = bisect_left(trace.times, t_now - cfg.decay_window - 1e-12)
    if len(trace.times) - i0 < 5:
        return False
    if not all(k > 0.0 for k in trace.virial_K[i0:]):
        return False
    if monitor_bound and not all(trace.k_lower_bound_ok[i0:]):
        return False
    if max(trace.energy_drift[i0:], default=0.0) > DECAY_ENERGY_GAIN:
        return False
    l4 = trace.l4_norm[i0:]
    running_min = l4[0]
    for v in l4[1:]:
        if v > DECAY_RIPPLE * running_min:
            return False
        running_min = min(running_min, v)
    return l4[-1] <= DECAY_NET_DROP * l4[0]
