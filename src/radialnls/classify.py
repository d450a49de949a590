"""Variational classification below the threshold and its empirical check.

Strictly below the ground-state action the sign of the virial functional
splits the data: nonnegative predicts scattering, negative predicts blow-up,
and the sign is the same for every admissible scaling pair.  The empirical
side evolves the datum on its own grid (with the absorbing layer for
scattering predictions, conservatively for blow-up predictions) and reads
the detector outcome off the trace.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace

import numpy as np

from . import evolve, functionals
from .evolve import EvolutionConfig, Outcome
from .fields import gaussian
from .functionals import DEFAULT_PAIRS, VIRIAL_PAIR
from .ground_state import GroundStateResult
from .radial_grid import EquationParams, RadialField

#: relative distance of the mass-energy product from its threshold that
#: flags a datum as a boundary case
BOUNDARY_RTOL = 1e-6


class Predicted(enum.Enum):
    SCATTER = "scatter"
    BLOWUP = "blowup"
    OUT_OF_SCOPE = "out_of_scope"


class Empirical(enum.Enum):
    DECAY = "decay"
    BLOWUP = "blowup"
    INCONCLUSIVE = "inconclusive"


@dataclass
class MassEnergyCriterion:
    """Products and thresholds of the mass-energy criterion at s_c = 1/2."""

    product_ME: float
    product_grad: float
    product_grad_gamma: float
    threshold_ME: float
    threshold_grad: float
    me_product_below: bool
    grad_product_below: bool
    grad_product_above: bool
    k_gamma_nonneg: bool
    negative_energy: bool
    boundary_case: bool


@dataclass
class ClassificationVerdict:
    s_value: float
    below_threshold: bool
    k_signs: dict
    k_values: dict
    predicted: Predicted
    empirical: Empirical
    threshold_level: float
    me_criterion: MassEnergyCriterion | None = None


def classify(
    u0: RadialField,
    params: EquationParams,
    ground: GroundStateResult,
    q10: GroundStateResult | None = None,
) -> ClassificationVerdict:
    """Predict the fate of a datum from the variational functionals.

    The empirical label stays inconclusive until verify_empirically runs.
    The mass-energy record is filled when the free reference state q10 is
    supplied.
    """
    if not ground.converged:
        raise ValueError("ground state result did not converge")
    rep = functionals.report(u0, params)
    below = rep.action < ground.level
    k_values = {p: rep.k(p, params) for p in DEFAULT_PAIRS}
    k_signs = {p: (1 if v >= 0.0 else -1) for p, v in k_values.items()}
    if not below:
        predicted = Predicted.OUT_OF_SCOPE
    elif rep.k(VIRIAL_PAIR, params) >= 0.0:
        predicted = Predicted.SCATTER
    else:
        predicted = Predicted.BLOWUP
    me = None
    if q10 is not None:
        me = mass_energy_criterion(u0, params, q10)
    return ClassificationVerdict(
        s_value=rep.action,
        below_threshold=below,
        k_signs=k_signs,
        k_values=k_values,
        predicted=predicted,
        empirical=Empirical.INCONCLUSIVE,
        threshold_level=ground.level,
        me_criterion=me,
    )


def mass_energy_criterion(
    u0: RadialField,
    params: EquationParams,
    q10: GroundStateResult,
) -> MassEnergyCriterion:
    """Mass-energy products of the datum against the free ground state.

    q10 must be the gamma = 0, omega = 1 ground state.  Negative energy is
    routed to the blow-up branch: the fractional power of the energy is then
    undefined and the criterion is vacuous.
    """
    if q10.params.gamma != 0.0 or q10.params.omega != 1.0:
        raise ValueError("q10 must be the gamma=0, omega=1 ground state")
    rep = functionals.report(u0, params)
    ref = functionals.report(q10.profile, q10.params)
    thr_me = float(np.sqrt(ref.mass * ref.energy))
    thr_grad = float((ref.mass * ref.kinetic) ** 0.25)
    negative = rep.energy < 0.0
    if negative:
        prod_me = float("nan")
    else:
        prod_me = float(np.sqrt(rep.mass * rep.energy))
    prod_grad = float((rep.mass * rep.kinetic) ** 0.25)
    prod_grad_gamma = float((rep.mass * rep.sobolev_gamma_sq) ** 0.25)
    me_below = (not negative) and prod_me < thr_me
    boundary = (not negative) and abs(prod_me - thr_me) <= BOUNDARY_RTOL * thr_me
    return MassEnergyCriterion(
        product_ME=prod_me,
        product_grad=prod_grad,
        product_grad_gamma=prod_grad_gamma,
        threshold_ME=thr_me,
        threshold_grad=thr_grad,
        me_product_below=me_below,
        grad_product_below=prod_grad < thr_grad,
        grad_product_above=(not negative) and prod_grad > thr_grad,
        k_gamma_nonneg=rep.k(VIRIAL_PAIR, params) >= 0.0,
        negative_energy=negative,
        boundary_case=boundary,
    )


def verify_empirically(
    verdict: ClassificationVerdict,
    u0: RadialField,
    cfg: EvolutionConfig,
    params: EquationParams,
) -> ClassificationVerdict:
    """Run the flow and fill the empirical label.

    The datum evolves on its own grid: scattering predictions with the
    absorbing layer, so cfg.absorb_width must lie in (0, R_max/4] of that
    grid, and blow-up predictions conservatively.  A run that reaches t_end
    without a detector firing stays inconclusive.
    """
    if verdict.predicted is Predicted.OUT_OF_SCOPE:
        raise ValueError("datum is not below the threshold; nothing to verify")
    scatter = verdict.predicted is Predicted.SCATTER
    trace = evolve.run(
        u0, replace(cfg, absorb=scatter), params,
        level=verdict.threshold_level if scatter else None,
    )
    empirical = {
        Outcome.DECAY_DETECTED: Empirical.DECAY,
        Outcome.BLOWUP_DETECTED: Empirical.BLOWUP,
    }.get(trace.outcome, Empirical.INCONCLUSIVE)
    return replace(verdict, empirical=empirical)


@dataclass(frozen=True)
class FamilySpec:
    """1- or 2-parameter family of data: c*Q or c*exp(-(r/w)^2)."""

    kind: str  # "cQ" | "gaussian"
    amplitudes: tuple
    widths: tuple = ()

    def __post_init__(self) -> None:
        if self.kind not in ("cQ", "gaussian"):
            raise ValueError(f"unknown family kind {self.kind!r}")
        if self.kind == "gaussian" and not self.widths:
            raise ValueError("gaussian family needs widths")
        if self.kind == "cQ" and self.widths:
            raise ValueError("cQ family takes no widths")


def family_fields(spec: FamilySpec, ground: GroundStateResult):
    """Deterministic (label, field) sequence for a family spec."""
    out = []
    if spec.kind == "cQ":
        for c in spec.amplitudes:
            out.append(
                ((float(c), ""), RadialField(ground.profile.grid, c * ground.profile.values))
            )
    else:
        for c in spec.amplitudes:
            for w in spec.widths:
                out.append(
                    ((float(c), float(w)), gaussian(ground.profile.grid, c, w))
                )
    return out


SWEEP_HEADER = ["c", "w", "S", "below_threshold", "K_gamma", "predicted", "empirical", "agree"]


def _sweep_row(task):
    """One sweep row; module-level so worker processes can pickle it."""
    (label, u0, params, ground, cfg, do_verify) = task
    verdict = classify(u0, params, ground)
    predicted = verdict.predicted
    if do_verify and predicted is not Predicted.OUT_OF_SCOPE:
        try:
            verdict = verify_empirically(verdict, u0, cfg, params)
        except (RuntimeError, ValueError):
            pass
    empirical = verdict.empirical
    if predicted is Predicted.OUT_OF_SCOPE:
        agree = ""
    else:
        agree = (
            (predicted is Predicted.SCATTER and empirical is Empirical.DECAY)
            or (predicted is Predicted.BLOWUP and empirical is Empirical.BLOWUP)
        )
    c, w = label
    k_vir = verdict.k_values[VIRIAL_PAIR]
    return [c, w, verdict.s_value, verdict.below_threshold, k_vir,
            predicted.value, empirical.value, agree]


def sweep(
    spec: FamilySpec,
    params: EquationParams,
    ground: GroundStateResult,
    cfg: EvolutionConfig,
    verify: bool = True,
    workers: int = 1,
):
    """Classify and (optionally) verify a family; returns (header, rows).

    Rows come back in the deterministic family order regardless of the
    worker count; per-row failures of the flow surface as inconclusive
    labels.  A worker count below 1, or a config that cannot evolve a scatter
    prediction on the family grid, is rejected before any row runs.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if not ground.converged:
        raise ValueError("ground state result did not converge")
    if verify:
        replace(cfg, absorb=True).validate(ground.profile.grid)
    tasks = [
        (label, u0, params, ground, cfg, verify)
        for label, u0 in family_fields(spec, ground)
    ]
    if workers > 1 and len(tasks) > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_sweep_row, tasks))
    else:
        rows = [_sweep_row(t) for t in tasks]
    return SWEEP_HEADER, rows
