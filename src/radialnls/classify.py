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

from . import evolve, functionals
from .evolve import EvolutionConfig, Outcome
from .fields import gaussian
from .functionals import DEFAULT_PAIRS, VIRIAL_PAIR
from .ground_state import GroundStateResult
from .radial_grid import EquationParams, RadialField


class Predicted(enum.Enum):
    SCATTER = "scatter"
    BLOWUP = "blowup"
    OUT_OF_SCOPE = "out_of_scope"


class Empirical(enum.Enum):
    DECAY = "decay"
    BLOWUP = "blowup"
    INCONCLUSIVE = "inconclusive"


@dataclass
class ClassificationVerdict:
    s_value: float
    below_threshold: bool
    k_signs: dict
    k_values: dict
    predicted: Predicted
    empirical: Empirical
    threshold_level: float


def classify(
    u0: RadialField,
    params: EquationParams,
    ground: GroundStateResult,
) -> ClassificationVerdict:
    """Predict the fate of a datum from the variational functionals.

    The empirical label stays inconclusive until verify_empirically runs.
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
    return ClassificationVerdict(
        s_value=rep.action,
        below_threshold=below,
        k_signs=k_signs,
        k_values=k_values,
        predicted=predicted,
        empirical=Empirical.INCONCLUSIVE,
        threshold_level=ground.level,
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
