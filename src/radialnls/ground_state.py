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
with an exponential tail fill past the matching radius.  Small amplitudes turn
back up and large ones cross zero, so a geometric search finds the bracket.
Each sign test is one DOP853 integration over Python floats (the tableau and
step-size rule of scipy's solve_ivp, Hairer-Norsett-Wanner I, Sec. II.5) that
stops at the first zero crossing or upturn.  The tableau is read from
scipy.integrate on the first shot, so no other route imports it, and each
attempted step runs as one straight-line function generated from that
tableau, with the floats of a loop over it.  The same loop runs once more at
the final amplitude and records its accepted steps, and DOP853's own dense
output of those steps samples the profile onto the grid, so one integrator
serves the sign tests and the profile.  The two routes share nothing but the
functionals, so agreement certifies the level; both reject a grid too coarse
for the core of Q, whose width is 1/sqrt(omega).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import functionals
from .functionals import DEFAULT_PAIRS
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

#: descent stops after MAX_ITER iterations, at a relative quotient change of
#: J_REL_TOL, or at a relative Sobolev gradient of GRAD_TOL; NEWTON_STEPS
#: Newton steps then polish the profile
MAX_ITER = 2000
J_REL_TOL = 1e-12
GRAD_TOL = 1e-10
NEWTON_STEPS = 6

#: DOP853 tolerances of the shooting integration, the bisection cap, and the
#: amplitude bracket the search starts from
SHOOT_RTOL = 1e-12
SHOOT_ATOL = 1e-14
MAX_BISECT = 200
SHOOT_BRACKET = (0.5, 30.0)

#: largest grid spacing, in units of the core width 1/sqrt(omega), that both
#: routes accept.  At gamma = 0 (n 4096, R 32) the level's relative error
#: against sqrt(omega) S_1 is 5e-5 at h sqrt(omega) = 0.05, 2e-3 at 0.2,
#: 7e-3 at 0.3 and 9e-2 at 0.4
MAX_CORE_SPACING = 0.3


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


def _require_resolved_core(params, grid):
    """Raise ValueError unless the grid spacing resolves the core of Q."""
    spacing = grid.h * math.sqrt(params.omega)
    if spacing > MAX_CORE_SPACING:
        raise ValueError(
            f"grid does not resolve the ground-state core: h*sqrt(omega) = "
            f"{spacing:.4g} exceeds {MAX_CORE_SPACING} (h = {grid.h:.4g}, "
            f"omega = {params.omega:.4g}); raise n or lower R_max"
        )


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


def _newton_polish(grid, u, params):
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
    for _ in range(NEWTON_STEPS):
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


def minimize_quotient(params: EquationParams, grid: RadialGrid) -> GroundStateResult:
    """Compute the ground state by Nehari-quotient descent.

    The iterate stays real and positive (modulus projection never increases
    the quotient) and is renormalized to the Nehari set each step, so the
    reported level is the action at the minimizer.  A grid with
    h sqrt(omega) > MAX_CORE_SPACING is rejected with a ValueError.
    """
    _require_resolved_core(params, grid)
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
    for it in range(MAX_ITER):
        iterations = it + 1
        if B < 1e-280 or A < 1e-280:
            raise RuntimeError(
                "iterate collapsed to the zero field; reduce the descent step "
                "or start from a wider profile"
            )
        # Sobolev gradient of J: (A/B) u - (A/B)^2 H^{-1}(u^3)
        g = (A / B) * u - (A / B) ** 2 * solve_helmholtz(grid, u**3, params)
        grad_rel = float(np.sqrt(integrate(grid, g**2)) / np.sqrt(integrate(grid, u**2)))
        if grad_rel < GRAD_TOL:
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
        if abs(J - J_new) <= J_REL_TOL * abs(J):
            J = J_new
            converged = True
            break
        J = J_new

    u, res = _newton_polish(grid, u, params)
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


def _shoot_start(params, r0, a):
    """(q, q') at r0 from the Frobenius-type expansion about r = 0.

    The r^{2-mu} correction balances the potential, the r^2 correction the
    regular part.  The amplitude is cubed by products, not a power: a Python
    float power raises OverflowError where a product returns inf.
    """
    gamma, mu, omega = float(params.gamma), float(params.mu), float(params.omega)
    regular = omega * a - a * a * a
    q0 = (
        a
        + gamma * a / ((2.0 - mu) * (3.0 - mu)) * r0 ** (2.0 - mu)
        + regular / 6.0 * r0**2
    )
    dq0 = gamma * a / (3.0 - mu) * r0 ** (1.0 - mu) + regular / 3.0 * r0
    return q0, dq0


def _shoot_accel(params):
    """q'' as a function of (r, q, q') on the profile ODE."""
    gamma, mu, omega = float(params.gamma), float(params.mu), float(params.omega)

    def accel(r, q, dq):
        return -2.0 / r * dq + omega * q + gamma / r**mu * q - q * q * q

    return accel


@lru_cache(maxsize=None)
def _dop853():
    """scipy's DOP853 class, imported on the first shot, so that no other
    command loads scipy.integrate."""
    from scipy.integrate import DOP853

    return DOP853


@lru_cache(maxsize=None)
def _dop853_step():
    """One DOP853 attempt as a straight-line function built from scipy's
    tableau, which stays the only copy of its coefficients.

    step(r, h, r_new, q, p, fp, omega, gamma, mu) returns q, q' and q'' at
    r_new, the E5 and E3 sums of q and of q', and the stage derivatives of q
    and of q' as tuples.  Zero entries are dropped and each weighted sum keeps
    the tableau's left-to-right order, so every float equals that of a loop
    over the tableau: a sum started at 0.0 differs only in the sign of a zero
    sum, which q + h * sum absorbs.  q'' is ``_shoot_accel``'s expression, and
    at the end of the step it is taken at r_new, which can differ from r + h.
    """
    dop = _dop853()
    n = dop.n_stages

    def wsum(weights, k):
        return " + ".join(f"{float(w)!r} * {k}{j}" for j, w in enumerate(weights) if w != 0.0)

    def accel(r, q, dq):
        return f"-2.0 / {r} * {dq} + omega * {q} + gamma / {r}**mu * {q} - {q} * {q} * {q}"

    src = ["def step(r, h, r_new, q, p, fp, omega, gamma, mu):", "    kq0, kp0 = p, fp"]
    for s in range(1, n):
        src += [
            f"    ys = q + h * ({wsum(dop.A[s, :s], 'kq')})",
            f"    kq{s} = p + h * ({wsum(dop.A[s, :s], 'kp')})",
            f"    rs = r + {float(dop.C[s])!r} * h",
            f"    kp{s} = {accel('rs', 'ys', f'kq{s}')}",
        ]
    kq = ", ".join(f"kq{j}" for j in range(n + 1))
    kp = ", ".join(f"kp{j}" for j in range(n + 1))
    src += [
        f"    q_new = q + h * ({wsum(dop.B, 'kq')})",
        f"    kq{n} = p + h * ({wsum(dop.B, 'kp')})",
        f"    kp{n} = {accel('r_new', 'q_new', f'kq{n}')}",
        f"    return (q_new, kq{n}, kp{n}, {wsum(dop.E5, 'kq')}, {wsum(dop.E5, 'kp')},",
        f"            {wsum(dop.E3, 'kq')}, {wsum(dop.E3, 'kp')}, ({kq}), ({kp}))",
    ]
    namespace = {}
    exec("\n".join(src), namespace)
    return namespace["step"]


#: solve_ivp's step-size rule: safety factor and the clip of the per-step factor
_SAFETY, _MIN_FACTOR, _MAX_FACTOR = 0.9, 0.2, 10.0


def _shoot_classify(params, r0, r_end, a, steps=None):
    """+1 when the profile stays positive / turns back up, -1 when it crosses zero.

    One DOP853 integration over Python floats with solve_ivp's tolerances and
    step-size rule, stopped at the first event: q falling through 0 (-1) or q'
    rising through 0 (+1).  Each attempt is one call of the generated kernel
    ``_dop853_step()``.  If both happen in one step the crossing came first,
    because q' changes sign once per step and q cannot fall after its minimum.
    A step-size underflow and reaching r_end both count as +1; a start value
    q(r0) < 0 has already crossed zero and counts as -1.  A list passed as
    `steps` receives each accepted step, the last one included, as (r, h, q,
    q', q at r + h, the stage derivatives of q, those of q').
    """
    accel = _shoot_accel(params)
    step = _dop853_step()
    err_exp = -1.0 / (_dop853().error_estimator_order + 1)
    gamma, mu, omega = float(params.gamma), float(params.mu), float(params.omega)
    rtol, atol = SHOOT_RTOL, SHOOT_ATOL

    def rms(x, y):
        return math.sqrt(0.5 * (x * x + y * y))

    r = r0
    q, p = _shoot_start(params, r0, a)
    if q < 0.0:
        return -1
    fp = accel(r, q, p)

    # select_initial_step of solve_ivp, error-estimator order 7
    length = r_end - r
    sq, sp = atol + abs(q) * rtol, atol + abs(p) * rtol
    d0, d1 = rms(q / sq, p / sp), rms(p / sq, fp / sp)
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, length)
    if not h0 > 0.0:
        return +1  # the start derivative leaves float range: the step underflows
    p1 = p + h0 * fp
    d2 = rms((p1 - p) / sq, (accel(r + h0, q + h0 * p, p1) - fp) / sp) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (-err_exp)
    h_abs = min(100.0 * h0, h1, length)

    while True:
        min_step = 10.0 * math.ulp(r)
        h_abs = max(h_abs, min_step)
        rejected = False
        while True:
            if h_abs < min_step:
                return +1  # solve_ivp's failed status records no event
            r_new = min(r + h_abs, r_end)
            h = r_new - r
            h_abs = h
            q_new, p_new, fp_new, e5q, e5p, e3q, e3p, kq, kp = step(
                r, h, r_new, q, p, fp, omega, gamma, mu
            )
            sq = atol + max(abs(q), abs(q_new)) * rtol
            sp = atol + max(abs(p), abs(p_new)) * rtol
            e5q, e5p, e3q, e3p = e5q / sq, e5p / sp, e3q / sq, e3p / sp
            err5 = e5q * e5q + e5p * e5p
            err3 = e3q * e3q + e3p * e3p
            if err5 == 0.0 and err3 == 0.0:
                err = 0.0
            else:
                err = h * err5 / math.sqrt(2.0 * (err5 + 0.01 * err3))
            if err < 1.0:
                factor = _MAX_FACTOR if err == 0.0 else min(
                    _MAX_FACTOR, _SAFETY * err**err_exp
                )
                if rejected:
                    factor = min(1.0, factor)
                h_abs *= factor
                break
            h_abs *= max(_MIN_FACTOR, _SAFETY * err**err_exp)
            rejected = True
        if steps is not None:
            steps.append((r, h, q, p, q_new, kq, kp))
        if q >= 0.0 and q_new <= 0.0:
            return -1
        if p <= 0.0 and p_new >= 0.0:
            return +1
        if r_new >= r_end:
            return +1
        r, q, p, fp = r_new, q_new, p_new, fp_new


def _dense_sample(params, steps, x):
    """DOP853's continuous extension of the recorded steps at the nodes x.

    The three extra stages and the degree-7 interpolant of solve_ivp's dense
    output (Hairer-Norsett-Wanner I, Sec. II.6), evaluated for the q
    component over all steps at once; nodes past the last step are 0.
    """
    r, h, q, p, q_new, kq, kp = (np.array(v) for v in zip(*steps))
    n_k = kq.shape[1]
    kq, kp = np.pad(kq, ((0, 0), (0, 3))), np.pad(kp, ((0, 0), (0, 3)))
    accel = _shoot_accel(params)
    dop = _dop853()
    for s, (c, a) in enumerate(zip(dop.C_EXTRA, dop.A_EXTRA), start=n_k):
        ys, ps = q + h * (kq[:, :s] @ a[:s]), p + h * (kp[:, :s] @ a[:s])
        kq[:, s], kp[:, s] = ps, accel(r + c * h, ys, ps)
    dq = q_new - q
    coeffs = [dq, h * p - dq, 2.0 * dq - h * (kq[:, n_k - 1] + p)]
    coeffs += list(h * (dop.D @ kq.T))
    out = np.zeros(len(x))
    inside = x <= r[-1] + h[-1]
    i = np.clip(np.searchsorted(r, x[inside], side="right") - 1, 0, len(r) - 1)
    t = (x[inside] - r[i]) / h[i]
    y = np.zeros(len(t))
    for k, f in enumerate(reversed(coeffs)):
        y += f[i]
        y *= t if k % 2 == 0 else 1.0 - t
    out[inside] = y + q[i]
    return out


def shoot_ode(params: EquationParams, grid: RadialGrid) -> GroundStateResult:
    """Shooting/bisection oracle for the ground state.

    The bracket search starts from SHOOT_BRACKET.  While the low end crosses
    zero the bracket moves down (to lo/8, lo); while the high end turns back
    up it moves up (to hi, 2 hi); a RuntimeError names the last bracket if
    the start values leave float range first.  Bisection runs until the
    midpoint is no longer a new float (at most MAX_BISECT halvings); each sign
    test is the scalar DOP853 loop of ``_shoot_classify``.  The same loop runs
    once more at the final amplitude and records its accepted steps; their
    DOP853 dense output gives the profile on the grid up to the last step,
    and an exponential tail fill replaces it past the matching radius.
    ``iterations`` of the result counts the bisections.
    A grid with h sqrt(omega) > MAX_CORE_SPACING is rejected with a ValueError.
    """
    _require_resolved_core(params, grid)
    r0 = grid.h / 2.0
    r_end = grid.r_max
    accel = _shoot_accel(params)

    def sign(a):
        q0, dq0 = _shoot_start(params, r0, a)
        if not (a > 0.0 and all(map(math.isfinite, (q0, dq0, accel(r0, q0, dq0))))):
            raise RuntimeError(
                f"shooting bracket search: the start values at amplitude {a} "
                f"leave float range; last bracket ({lo}, {hi})"
            )
        return _shoot_classify(params, r0, r_end, a)

    lo, hi = SHOOT_BRACKET
    if sign(lo) > 0:
        while sign(hi) > 0:
            lo, hi = hi, 2.0 * hi
    else:
        lo, hi = lo / 8.0, lo
        while sign(lo) < 0:
            lo, hi = lo / 8.0, lo
    iterations = 0
    for _ in range(MAX_BISECT):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        iterations += 1
        if _shoot_classify(params, r0, r_end, mid) > 0:
            lo = mid
        else:
            hi = mid
    a = 0.5 * (lo + hi)
    steps = []
    _shoot_classify(params, r0, r_end, a, steps)
    q = _tail_fill(grid, _dense_sample(params, steps, grid.r), a)
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


def _tail_fill(grid, q, a):
    """Replace the post-separatrix garbage with a decaying exponential tail.

    Anchors q1 r1 e^{-k (r - r1)}/r (its exponent is never positive) where q
    has fallen to ~1e-8 of the amplitude; past the anchor the bisection
    iterate has peeled off the separatrix and carries no information.
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
    rr = grid.r[core_end:]
    q[core_end:] = q1 * r1 * np.exp(-k * (rr - r1)) / rr
    return q
