"""Radial ground state Q and its action threshold.

Primary route: minimize the scale-invariant quotient

    J(f) = ||f||_H^4 / (4 ||f||_4^4),   H = omega - Delta_gamma,

which equals the action at the Nehari rescaling of f.  With A = ||u||_H^2 and
B = ||u||_4^4, each descent iteration takes the full Sobolev-gradient step
u - g, g = (A/B) u - (A/B)^2 H^{-1}(u^3), and rescales its modulus onto the
Nehari set A = B.  That step never raises J.  At A = B it is |w| with
w = H^{-1}(u^3), and in the quadrature inner product, where H is self-adjoint
and positive definite,

    B = <Hw, u> <= ||w||_H sqrt(A)   and   ||w||_H^2 = <u^3, w> <= B^{3/4} ||w||_4

(Cauchy-Schwarz in H, then Hoelder), so J(w) <= B^3 / (4 ||w||_H^4)
<= A^2 / (4 B) = J(u), with equality only at a critical point; |w| keeps
||w||_4 and does not raise ||w||_H.  So a step that does not lower J ends the
descent, converged at J's round-off floor.

Nor does an iterate collapse to the zero field.  Each sits on the Nehari
set, so A = B = 4J, and J only falls, never below the discrete level.  At
gamma = 0 that level is sqrt(omega) times the omega = 1 level on the grid of
spacing h sqrt(omega): about 18.9, and 18.76 at the coarsest admissible
spacing, h sqrt(omega) = 0.3.  The potential and the Dirichlet wall only raise
it.  A positive double omega has sqrt(omega) >= 2.2e-162, so A and B stay
above ~1e-160.  Only the initial exp(-r^2) can be degenerate: on a grid wide
enough for a tiny omega it underflows to zero on every node, and the descent
refuses to start.

At most two Newton steps take the stationary equation's residual to
round-off, as the standing-wave experiments need: the profile instability
amplifies any stationarity defect exponentially.

Oracle route: bisection shooting on the amplitude of the radial profile ODE

    Q'' + (2/r) Q' - omega Q - (gamma/r^mu) Q + Q^3 = 0,

started at r = h/2 from the local expansion forced by the singular potential.
Small amplitudes turn back up and large ones cross zero, so a geometric search
finds the bracket.
Each sign test is one DOP853 integration over Python floats (the tableau and
step-size rule of scipy's solve_ivp, Hairer-Norsett-Wanner I, Sec. II.5) that
stops at the first zero crossing or upturn.  The tableau is read on the
first shot from scipy's DOP853 coefficient file, loaded by path, so no
command loads scipy.integrate, and the whole loop of a sign test (attempts,
error norm, step-size rule and events) runs as one function generated from
that tableau, with the floats of a loop over it.  The bisection stops once
the bracket is within SHOOT_RTOL relative, the resolution of that sign
test.  The same loop runs once more at the final amplitude and
records its accepted steps, and DOP853's own dense output of those steps,
clipped at zero, samples the profile onto the grid, so one integrator serves
the sign tests and the profile.  The two routes are not independent in the
level: the oracle starts at r0 = h/2, samples its profile onto the same grid
and reads its level through the descent's midpoint quadrature
(``_result``).  So agreement certifies the two solvers on the command's
grid, not the discretisation; a grid too coarse for the potential's length
gamma^(-1/(2-mu)) leaves both levels wrong by the same amount (ROADMAP item
2).  Both reject a grid too coarse for the core of Q, whose width is
1/sqrt(omega).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import lru_cache
from importlib.machinery import SOURCE_SUFFIXES
from types import SimpleNamespace

import numpy as np

from . import functionals
from .functionals import DEFAULT_PAIRS
from .radial_grid import (
    EquationParams,
    RadialField,
    RadialGrid,
    Tridiagonal,
    _scipy_module,
    integrate,
    lap_gamma_diagonals,
    solve_helmholtz,
)

#: pairs reported as stationarity residuals by both solvers
RESIDUAL_PAIRS = tuple(DEFAULT_PAIRS[:4])

#: descent stops after MAX_ITER iterations, at a relative quotient change of
#: J_REL_TOL, or when its full step does not lower J; NEWTON_STEPS Newton
#: steps then polish the profile
MAX_ITER = 2000
J_REL_TOL = 1e-12
NEWTON_STEPS = 2

#: DOP853 tolerances of the shooting integration and the amplitude bracket
#: the search starts from
SHOOT_RTOL = 1e-12
SHOOT_ATOL = 1e-14
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
    """(||u||^2_{H^1_{omega,gamma}}, ||u||_4^4, ||u||_2^2): the quotient's
    numerator and denominator parts and the mass, from one functional report."""
    rep = functionals.report(RadialField(grid, u), params)
    return rep.h1_omega_gamma_sq, rep.quartic, rep.mass


def _result(grid, q, params, ode_residual, **record):
    """The GroundStateResult of the real profile q, held complex: its level
    and K^{alpha,beta} residuals come from one report, the rest from record."""
    profile = RadialField(grid, q.astype(complex))
    rep = functionals.report(profile, params)
    return GroundStateResult(
        profile=profile,
        level=rep.action,
        ode_residual=ode_residual,
        k_residuals={p: rep.k(p, params) for p in RESIDUAL_PAIRS},
        **record,
    )


def _residual(grid, u, params, lap):
    """The residual -omega u + lap u + u^3 of the stationary equation (real
    input, lap = Delta_gamma) and its weighted L^2 norm."""
    residual = -params.omega * u + lap.apply(u) + u**3
    return residual, float(np.sqrt(np.dot(grid.weights, residual**2)))


def _newton_polish(grid, u, params):
    """Newton iteration on the stationary equation; tridiagonal Jacobian.

    Each step solves the residual's Jacobian Delta_gamma - omega + 3 q^2
    against the residual of q, which was computed when q was accepted.
    Returns the iterate of least residual norm among the input and the
    NEWTON_STEPS steps, and that norm; a singular Jacobian or a step that
    breaks positivity of the core ends the iteration.
    """
    lap = lap_gamma_diagonals(grid, params.gamma, params.mu)
    residual, best_res = _residual(grid, u, params, lap)
    best = q = u
    for _ in range(NEWTON_STEPS):
        jacobian = Tridiagonal(lap.lower, lap.diag - params.omega + 3.0 * q**2, lap.upper)
        try:
            dq = jacobian.factor().solve(residual)
        except np.linalg.LinAlgError:
            break
        q_new = q - dq
        if not np.all(np.isfinite(q_new)) or q_new.max() <= 0.0:
            break
        # far-field round-off may cross zero at ~1e-17 amplitude; fold it back
        q_new = np.abs(q_new)
        residual, r_new = _residual(grid, q_new, params, lap)
        if r_new < best_res:
            best, best_res = q_new, r_new
        q = q_new
    return best, best_res


def minimize_quotient(params: EquationParams, grid: RadialGrid) -> GroundStateResult:
    """Compute the ground state by Nehari-quotient descent (module docstring).

    The iterate stays real and positive and is renormalized to the Nehari set
    each step, so the reported level is the action at the minimizer;
    ``converged`` is False when MAX_ITER iterations ran out.  A grid with
    h sqrt(omega) > MAX_CORE_SPACING is rejected with a ValueError.
    """
    _require_resolved_core(params, grid)
    u = np.exp(-(grid.r**2))
    A, B, _ = _quotient_parts(grid, u, params)
    if B <= 0.0 or A <= 0.0:
        raise RuntimeError("initial iterate degenerate; cannot start descent")
    u = u * np.sqrt(A / B)
    # A, B, M always hold the parts and the mass of the current iterate u
    A, B, M = _quotient_parts(grid, u, params)
    J = A**2 / (4.0 * B)
    converged = True
    for iterations in range(1, MAX_ITER + 1):
        # Sobolev gradient of J: (A/B) u - (A/B)^2 H^{-1}(u^3)
        g = (A / B) * u - (A / B) ** 2 * solve_helmholtz(grid, u**3, params)
        grad_rel = float(np.sqrt(integrate(grid, g**2)) / np.sqrt(M))
        v = np.abs(u - g)
        Av, Bv, _ = _quotient_parts(grid, v, params)
        if not (Bv > 0.0 and Av**2 / (4.0 * Bv) < J):
            break  # only a critical point stops the full step: J is at its round-off floor
        u = v * np.sqrt(Av / Bv)
        A, B, M = _quotient_parts(grid, u, params)
        J, J_old = A**2 / (4.0 * B), J
        if abs(J_old - J) <= J_REL_TOL * abs(J_old):
            break
    else:
        converged = False

    u, res = _newton_polish(grid, u, params)
    return _result(grid, u, params, res, iterations=iterations, converged=converged,
                   method="minimize_quotient", grad_norm=grad_rel)


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


#: error-estimator order of DOP853: a class attribute of scipy's DOP853,
#: absent from the coefficient file that ``_dop853`` reads
_DOP853_ERROR_ORDER = 7


@lru_cache(maxsize=None)
def _dop853():
    """The DOP853 tableau, sliced as scipy's DOP853 class slices it, from the
    one file that class reads (scipy/integrate/_ivp/dop853_coefficients.py,
    which imports only numpy).  The file is loaded by path and kept out of
    sys.modules, so scipy.integrate never loads."""
    coef = _scipy_module("scipy.integrate._ivp.dop853_coefficients", SOURCE_SUFFIXES)
    n = coef.N_STAGES
    return SimpleNamespace(
        n_stages=n, A=coef.A[:n, :n], B=coef.B, C=coef.C[:n], E3=coef.E3,
        E5=coef.E5, D=coef.D, A_EXTRA=coef.A[n + 1:], C_EXTRA=coef.C[n + 1:],
    )


#: solve_ivp's step-size rule: safety factor and the clip of the per-step factor
_SAFETY, _MIN_FACTOR, _MAX_FACTOR = 0.9, 0.2, 10.0


@lru_cache(maxsize=None)
def _dop853_shot():
    """The loop of one sign test as one function generated from scipy's
    tableau, which stays the only copy of its coefficients.

    shot(r, q, p, fp, h_abs, r_end, omega, gamma, mu, steps) runs the DOP853
    attempts, the error norm and solve_ivp's step-size rule from the start
    (r, q, q', q'') and the first step size h_abs, and returns the sign of
    ``_shoot_classify``; when `steps` is a list it records each accepted step
    there.  Zero entries are dropped and each weighted sum keeps the tableau's
    left-to-right order, so every float equals that of a loop over the
    tableau: a sum started at 0.0 differs only in the sign of a zero sum,
    which q + h * sum absorbs.  q'' is ``_shoot_accel``'s expression, and at
    the end of a step it is taken at r_new, which can differ from r + h.  The
    builtins min, max and abs of the rule are written as comparisons with
    their NaN and tie behaviour: min(x, y) is x unless y < x, max(x, y) is x
    unless y > x, and a -0.0 or a NaN sign left by abs moves no result.
    """
    dop = _dop853()
    n = dop.n_stages
    err_exp = -1.0 / (_DOP853_ERROR_ORDER + 1)

    def wsum(weights, k):
        return " + ".join(f"{float(w)!r} * {k}{j}" for j, w in enumerate(weights) if w != 0.0)

    def accel(r, q, dq):
        return f"-2.0 / {r} * {dq} + omega * {q} + gamma / {r}**mu * {q} - {q} * {q} * {q}"

    body = ["kq0, kp0 = p, fp"]
    for s in range(1, n):
        body += [
            f"ys = q + h * ({wsum(dop.A[s, :s], 'kq')})",
            f"kq{s} = p + h * ({wsum(dop.A[s, :s], 'kp')})",
            f"rs = r + {float(dop.C[s])!r} * h",
            f"kp{s} = {accel('rs', 'ys', f'kq{s}')}",
        ]
    body += [
        f"q_new = q + h * ({wsum(dop.B, 'kq')})",
        f"kq{n} = p + h * ({wsum(dop.B, 'kp')})",
        f"kp{n} = {accel('r_new', 'q_new', f'kq{n}')}",
        "aq, an = -q if q < 0.0 else q, -q_new if q_new < 0.0 else q_new",
        f"sq = {SHOOT_ATOL!r} + (an if an > aq else aq) * {SHOOT_RTOL!r}",
        f"aq, an = -p if p < 0.0 else p, -kq{n} if kq{n} < 0.0 else kq{n}",
        f"sp = {SHOOT_ATOL!r} + (an if an > aq else aq) * {SHOOT_RTOL!r}",
        f"e5q, e5p = ({wsum(dop.E5, 'kq')}) / sq, ({wsum(dop.E5, 'kp')}) / sp",
        f"e3q, e3p = ({wsum(dop.E3, 'kq')}) / sq, ({wsum(dop.E3, 'kp')}) / sp",
        "err5 = e5q * e5q + e5p * e5p",
        "err3 = e3q * e3q + e3p * e3p",
        "if err5 == 0.0 and err3 == 0.0:",
        "    err = 0.0",
        "else:",
        "    err = h * err5 / sqrt(2.0 * (err5 + 0.01 * err3))",
        "if err < 1.0:",
        f"    factor = {_MAX_FACTOR!r} if err == 0.0 else {_SAFETY!r} * err**{err_exp!r}",
        f"    if not factor < {_MAX_FACTOR!r}:",
        f"        factor = {_MAX_FACTOR!r}",
        "    if rejected and not factor < 1.0:",
        "        factor = 1.0",
        "    h_abs *= factor",
        "    break",
        f"factor = {_SAFETY!r} * err**{err_exp!r}",
        f"h_abs *= factor if factor > {_MIN_FACTOR!r} else {_MIN_FACTOR!r}",
        "rejected = True",
    ]
    kq = ", ".join(f"kq{j}" for j in range(n + 1))
    kp = ", ".join(f"kp{j}" for j in range(n + 1))
    src = [
        "def shot(r, q, p, fp, h_abs, r_end, omega, gamma, mu, steps):",
        "    while True:",
        "        min_step = 10.0 * ulp(r)",
        "        if min_step > h_abs:",
        "            h_abs = min_step",
        "        rejected = False",
        "        while True:",
        "            if h_abs < min_step:",
        "                return +1  # solve_ivp's failed status records no event",
        "            r_new = r + h_abs",
        "            if r_end < r_new:",
        "                r_new = r_end",
        "            h = r_new - r",
        "            h_abs = h",
        *("            " + line for line in body),
        "        if steps is not None:",
        f"            steps.append((r, h, q, p, q_new, ({kq}), ({kp})))",
        "        if q >= 0.0 and q_new <= 0.0:",
        "            return -1",
        f"        if p <= 0.0 and kq{n} >= 0.0:",
        "            return +1",
        "        if r_new >= r_end:",
        "            return +1",
        f"        r, q, p, fp = r_new, q_new, kq{n}, kp{n}",
    ]
    namespace = {"ulp": math.ulp, "sqrt": math.sqrt}
    exec("\n".join(src), namespace)
    return namespace["shot"]


def _shoot_classify(params, r0, r_end, a, steps=None):
    """+1 when the profile stays positive / turns back up, -1 when it crosses zero.

    One DOP853 integration over Python floats with solve_ivp's tolerances and
    step-size rule, stopped at the first event: q falling through 0 (-1) or q'
    rising through 0 (+1).  This prologue picks the first step as
    solve_ivp's select_initial_step does; the loop is the generated function
    ``_dop853_shot()``.  If both events happen in one step the crossing came
    first, because q' changes sign once per step and q cannot fall after its
    minimum.  A step-size underflow and reaching r_end both count as +1; a
    start value q(r0) < 0 has already crossed zero and counts as -1.  A list
    passed as `steps` receives each accepted step, the last one included, as
    (r, h, q, q', q at r + h, the stage derivatives of q, those of q').
    """
    accel = _shoot_accel(params)
    err_exp = -1.0 / (_DOP853_ERROR_ORDER + 1)
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
    return _dop853_shot()(r, q, p, fp, h_abs, r_end, omega, gamma, mu, steps)


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
    the amplitude drops below the smallest normal float or the start values
    leave float range first.  Bisection runs until the
    bracket width is at most SHOOT_RTOL times its low end, the relative
    tolerance of the sign test, so that no halving fixes digits the
    integrator does not resolve; each sign test is the scalar DOP853 loop of
    ``_shoot_classify``.  The search leaves a normal lo < hi <= 60 lo (the start
    bracket (0.5, 30), or (lo, 2 lo), or (lo/8, lo)), so the bisection takes
    at most ceil(log2(59 / SHOOT_RTOL)) = 46 halvings.  The same loop runs
    once more at the final amplitude and records its accepted steps; their
    DOP853 dense output, clipped at zero, is the profile on the grid (0 past
    the last step).  ``iterations`` of the result counts the bisections.
    A grid with h sqrt(omega) > MAX_CORE_SPACING is rejected with a ValueError.
    """
    _require_resolved_core(params, grid)
    r0 = grid.h / 2.0
    r_end = grid.r_max
    accel = _shoot_accel(params)

    def sign(a):
        q0, dq0 = _shoot_start(params, r0, a)
        if not (a >= sys.float_info.min and all(map(math.isfinite, (q0, dq0, accel(r0, q0, dq0))))):
            raise RuntimeError(
                f"shooting bracket search: amplitude {a} or its start values "
                f"leave the normal float range; last bracket ({lo}, {hi})"
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
    while hi - lo > SHOOT_RTOL * lo:
        mid = 0.5 * (lo + hi)
        iterations += 1
        if _shoot_classify(params, r0, r_end, mid) > 0:
            lo = mid
        else:
            hi = mid
    a = 0.5 * (lo + hi)
    steps = []
    _shoot_classify(params, r0, r_end, a, steps)
    q = np.maximum(_dense_sample(params, steps, grid.r), 0.0)
    lap = lap_gamma_diagonals(grid, params.gamma, params.mu)
    return _result(grid, q, params, _residual(grid, q, params, lap)[1], iterations=iterations,
                   converged=True, method="shoot_ode", shoot_amplitude=a)
