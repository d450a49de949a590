"""Radial ground state Q and its action threshold.

Primary route: minimize the scale-invariant quotient

    J(f) = ||f||_{H^1_{omega,gamma}}^4 / (4 ||f||_{L^4}^4),

which equals the action at the Nehari rescaling of f, by gradient descent in
the (omega - Delta_gamma)^{-1} metric with backtracking, modulus projection,
and Nehari renormalization, followed by a few Newton steps on the stationary
equation to drive the pointwise residual to round-off.  The standing-wave
experiments need that last refinement: the profile instability amplifies any
stationarity defect exponentially in time.

Oracle route: bisection shooting on the amplitude of the radial profile ODE

    Q'' + (2/r) Q' - omega Q - (gamma/r^mu) Q + Q^3 = 0,

started at r = h/2 from the local expansion forced by the singular potential,
with an exponential tail fill past the matching radius.  The two routes share
nothing but the functionals, so agreement certifies the level.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp

from . import functionals
from .functionals import DEFAULT_PAIRS, ScalingPair
from .radial_grid import (
    EquationParams,
    RadialField,
    RadialGrid,
    Tridiagonal,
    integrate,
    lap_gamma_diagonals,
    solve_helmholtz,
)

#: pairs reported as stationarity residuals by both solvers
RESIDUAL_PAIRS = tuple(DEFAULT_PAIRS[:4])


@dataclass(frozen=True)
class GroundStateOptions:
    max_iter: int = 2000
    j_rel_tol: float = 1e-12
    grad_tol: float = 1e-10
    newton_steps: int = 6
    tol_k: float = 1e-4  # relative to the H^1_{omega,gamma} norm of Q


@dataclass
class GroundStateResult:
    profile: RadialField
    level: float
    ode_residual: float
    k_residuals: dict
    iterations: int
    params: EquationParams
    converged: bool
    method: str
    grad_norm: float = 0.0
    shoot_amplitude: float | None = None


def _quotient_parts(grid, u, params):
    """(||u||^2_{H^1_{omega,gamma}}, ||u||_4^4), the quotient's numerator and
    denominator parts, from one functional report."""
    rep = functionals.report(RadialField(grid, u.astype(complex)), params)
    return rep.h1_omega_gamma_sq, rep.quartic


def _residuals(profile, params):
    """The level and the K^{alpha,beta} residuals of a profile, from one report."""
    rep = functionals.report(profile, params)
    return rep.action, {p: rep.k(p, params) for p in RESIDUAL_PAIRS}


def _el_residual(grid, u, params):
    """-omega Q + Delta_gamma Q + Q^3 as a raw array (real input)."""
    lap = lap_gamma_diagonals(grid, params.gamma, params.mu)
    return -params.omega * u + lap.apply(u) + u**3


def _newton_polish(grid, u, params, steps):
    """Newton iteration on the stationary equation; tridiagonal Jacobian.

    Returns the refined profile, keeping the input if a step degrades the
    residual or breaks positivity of the core.
    """
    lap = lap_gamma_diagonals(grid, params.gamma, params.mu)
    lower, diag, upper = lap
    w = grid.weights

    def res_norm(q):
        return float(np.sqrt(np.dot(w, _el_residual(grid, q, params) ** 2)))

    best, best_res = u, res_norm(u)
    q = u
    for _ in range(steps):
        F = params.omega * q - lap.apply(q) - q**3
        jacobian = Tridiagonal(-lower, params.omega - diag - 3.0 * q**2, -upper)
        try:
            dq = jacobian.factor().solve(F)
        except np.linalg.LinAlgError:
            break
        q_new = q - dq
        if not np.all(np.isfinite(q_new)) or q_new.max() <= 0.0:
            break
        # far-field round-off may cross zero at ~1e-17 amplitude; fold it back
        q_new = np.abs(q_new)
        r_new = res_norm(q_new)
        if r_new < best_res:
            best, best_res = q_new, r_new
        if r_new >= best_res and q is not u:
            break
        q = q_new
    return best, best_res


def minimize_quotient(
    params: EquationParams,
    grid: RadialGrid,
    opts: GroundStateOptions | None = None,
) -> GroundStateResult:
    """Compute the ground state by Nehari-quotient descent.

    The iterate stays real and positive (modulus projection never increases
    the quotient) and is renormalized to the Nehari set each step, so the
    reported level is the action at the minimizer.
    """
    opts = opts or GroundStateOptions()
    r = grid.r
    u = np.exp(-(r**2))

    A, B = _quotient_parts(grid, u, params)
    if B <= 0.0 or A <= 0.0:
        raise RuntimeError("initial iterate degenerate; cannot start descent")
    u = u * np.sqrt(A / B)
    # A, B always hold the parts of the current iterate u
    A, B = _quotient_parts(grid, u, params)
    J = A**2 / (4.0 * B)
    grad_rel = np.inf
    iterations = 0
    converged = False
    for it in range(opts.max_iter):
        iterations = it + 1
        if B < 1e-280 or A < 1e-280:
            raise RuntimeError(
                "iterate collapsed to the zero field; reduce the descent step "
                "or start from a wider profile"
            )
        # Sobolev gradient of J: (A/B) u - (A/B)^2 H^{-1}(u^3)
        g = (A / B) * u - (A / B) ** 2 * solve_helmholtz(grid, u**3, params)
        grad_rel = float(np.sqrt(integrate(grid, g**2)) / np.sqrt(integrate(grid, u**2)))
        if grad_rel < opts.grad_tol:
            converged = True
            break
        step = 1.0
        accepted = False
        for _ in range(40):
            v = np.abs(u - step * g)
            Av, Bv = _quotient_parts(grid, v, params)
            if Bv > 0.0:
                Jv = Av**2 / (4.0 * Bv)
                if Jv < J:
                    u = v * np.sqrt(Av / Bv)
                    accepted = True
                    break
            step *= 0.5
        if not accepted:
            # line search exhausted: J is at its round-off floor
            converged = True
            break
        A, B = _quotient_parts(grid, u, params)
        J_new = A**2 / (4.0 * B)
        if abs(J - J_new) <= opts.j_rel_tol * abs(J):
            J = J_new
            converged = True
            break
        J = J_new

    u, res = _newton_polish(grid, u, params, opts.newton_steps)
    profile = RadialField(grid, u.astype(complex))
    level, k_res = _residuals(profile, params)
    return GroundStateResult(
        profile=profile,
        level=level,
        ode_residual=res,
        k_residuals=k_res,
        iterations=iterations,
        params=params,
        converged=converged,
        method="minimize_quotient",
        grad_norm=grad_rel,
    )


def _shoot_classify(params, r0, r_end, a, rtol, atol):
    """+1 when the profile stays positive / turns back up, -1 when it crosses zero."""
    sol = _shoot_integrate(params, r0, r_end, a, rtol, atol, dense=False)
    if sol.t_events[0].size:
        return -1
    return +1


def _shoot_integrate(params, r0, r_end, a, rtol, atol, dense):
    gamma, mu, omega = params.gamma, params.mu, params.omega

    def rhs(r, y):
        q, dq = y
        return (dq, -2.0 / r * dq + omega * q + gamma / r**mu * q - q**3)

    # Frobenius-type start: the r^{2-mu} correction balances the potential,
    # the r^2 correction the regular part
    q0 = (
        a
        + gamma * a / ((2.0 - mu) * (3.0 - mu)) * r0 ** (2.0 - mu)
        + (omega * a - a**3) / 6.0 * r0**2
    )
    dq0 = gamma * a / (3.0 - mu) * r0 ** (1.0 - mu) + (omega * a - a**3) / 3.0 * r0

    def ev_cross(r, y):
        return y[0]

    ev_cross.terminal = True
    ev_cross.direction = -1

    def ev_turn(r, y):
        return y[1]

    ev_turn.terminal = True
    ev_turn.direction = 1

    return solve_ivp(
        rhs,
        (r0, r_end),
        (q0, dq0),
        method="DOP853",
        events=(ev_cross, ev_turn),
        rtol=rtol,
        atol=atol,
        dense_output=dense,
    )


def shoot_ode(
    params: EquationParams,
    a0_bracket: tuple[float, float],
    grid: RadialGrid,
    rtol: float = 1e-12,
    atol: float = 1e-14,
    max_bisect: int = 200,
) -> GroundStateResult:
    """Shooting/bisection oracle for the ground state.

    The bracket must separate profiles that cross zero from profiles that
    turn back upward; bisection then pins the separatrix amplitude and the
    decaying solution is sampled onto the grid with an exponential tail fill
    past the matching radius.
    """
    lo, hi = float(a0_bracket[0]), float(a0_bracket[1])
    if not (0.0 < lo < hi):
        raise ValueError(f"invalid bracket {a0_bracket}")
    r0 = grid.h / 2.0
    r_end = grid.r_max
    c_lo = _shoot_classify(params, r0, r_end, lo, rtol, atol)
    c_hi = _shoot_classify(params, r0, r_end, hi, rtol, atol)
    if c_lo == c_hi:
        raise ValueError(
            f"no sign change of the shooting functional in bracket {a0_bracket}; "
            "widen it around the separatrix amplitude"
        )
    if c_lo < 0:  # orient: lo undershoots, hi overshoots
        lo, hi = hi, lo
    iterations = 0
    for _ in range(max_bisect):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        iterations += 1
        if _shoot_classify(params, r0, r_end, mid, rtol, atol) > 0:
            lo = mid
        else:
            hi = mid
    a = 0.5 * (lo + hi)
    sol = _shoot_integrate(params, r0, r_end, a, rtol, atol, dense=True)

    q = np.zeros(grid.n)
    r_stop = sol.t[-1]
    inside = grid.r <= r_stop
    q[inside] = sol.sol(grid.r[inside])[0]
    q = _tail_fill(grid, q, a, params)
    profile = RadialField(grid, q.astype(complex))
    res = float(
        np.sqrt(np.dot(grid.weights, _el_residual(grid, q, params) ** 2))
    )
    level, k_res = _residuals(profile, params)
    return GroundStateResult(
        profile=profile,
        level=level,
        ode_residual=res,
        k_residuals=k_res,
        iterations=iterations,
        params=params,
        converged=True,
        method="shoot_ode",
        shoot_amplitude=a,
    )


def _tail_fill(grid, q, a, params):
    """Replace the post-separatrix garbage with a decaying exponential tail.

    Anchors an A e^{-k r}/r fit where the profile has fallen to ~1e-8 of its
    amplitude; beyond the anchor the bisection iterate has peeled off the
    separatrix and carries no information.
    """
    floor = 1e-8 * a
    bad = np.nonzero((q <= floor) | (np.gradient(q) > 0.0))[0]
    core_end = None
    # first index past the main descent where the profile stops decaying
    peak = int(np.argmax(q))
    for idx in bad:
        if idx > peak and q[idx] < 0.5 * a:
            core_end = idx
            break
    if core_end is None or core_end < peak + 3:
        q[q < 0.0] = 0.0
        return q
    i2, i1 = core_end - 1, core_end - 2
    r1, r2 = grid.r[i1], grid.r[i2]
    q1, q2 = q[i1], q[i2]
    if q1 <= 0.0 or q2 <= 0.0 or q2 >= q1:
        q[core_end:] = 0.0
        return q
    k = -np.log((q2 * r2) / (q1 * r1)) / (r2 - r1)
    if not np.isfinite(k) or k <= 0.0:
        q[core_end:] = 0.0
        return q
    amp = q1 * r1 * np.exp(k * r1)
    rr = grid.r[core_end:]
    q[core_end:] = amp * np.exp(-k * rr) / rr
    return q


def validate_pohozaev(
    result: GroundStateResult,
    pairs: tuple[ScalingPair, ...] = RESIDUAL_PAIRS,
) -> dict:
    """K^{alpha,beta}(Q) for each pair; all vanish for the true ground state."""
    if not result.converged:
        raise ValueError("ground state result did not converge")
    rep = functionals.report(result.profile, result.params)
    return {p: rep.k(p, result.params) for p in pairs}
