"""Residual grading of candidate solutions against the full first-order system.

A diagnostic, not the gate (that is weak duality, in family.assemble_result):
DiscriminationResult.kkt calls kkt_residuals when the report is first read.

The optimum of the family program satisfies, with multipliers lambda_i for
the purity inequalities and vector multipliers nu_i for the common-point
equalities (state 1 distinguished as the pivot):

  primal inequalities   |c_i|^2 <= 1
  primal equalities     the scaled mixtures p~_i b_i + (1 - p~_i) c_i agree
  dual feasibility      lambda_i >= 0
  stationarity in p     1 + sum_{i>=2} nu_i . (c_1 - c_i) = 0
  stationarity in c     2 lambda_1 c_1 + (1 - p~_1) sum_{i>=2} nu_i = 0
                        2 lambda_i c_i - (1 - p~_i) nu_i = 0   (i >= 2)
  slackness             lambda_i (|c_i|^2 - 1) = 0

plus two aggregates implied by the stationarity rows:
sum_i lambda_i c_i / (1 - p~_i) = 0 and
sum_i lambda_i |c_i|^2 / (1 - p~_i) = 1/2.

The pivot choice is a bookkeeping artifact, so the stationarity residuals
are evaluated for every choice of pivot and the worst is reported. nu is
recovered from the i >= 2 stationarity rows; when some p~_i = 1 (ratio equal
to a prior, the guess regime) that recovery divides by zero, lambda_i is
zero there as well, and the report flags itself degenerate instead of
pretending the system applies.

This module never throws on finite inputs: broken certificates come out as
large residuals, which is the point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bloch import (
    KKT_TOL,
    BlochVector,
    HelstromCertificate,
    Povm,
    WeightedEnsemble,
)
from .errors import DegenerateRatioError

__all__ = ["KktReport", "recover_multipliers", "kkt_residuals"]

_RESIDUAL_FIELDS = (
    "primal_ineq",
    "primal_eq",
    "dual_feas",
    "stationarity_p",
    "stationarity_c",
    "slackness",
    "aggregate_sum",
    "aggregate_half",
)


@dataclass(frozen=True)
class KktReport:
    primal_ineq: float
    primal_eq: float
    dual_feas: float
    stationarity_p: float
    stationarity_c: float
    slackness: float
    aggregate_sum: float
    aggregate_half: float
    nu: tuple
    degenerate: bool = False

    @property
    def passes(self) -> bool:
        return all(getattr(self, f) <= KKT_TOL for f in _RESIDUAL_FIELDS)

    def worst(self) -> tuple:
        """(field name, value) of the largest residual."""
        name = max(_RESIDUAL_FIELDS, key=lambda f: getattr(self, f))
        return name, getattr(self, name)

    def residuals(self) -> dict:
        return {f: getattr(self, f) for f in _RESIDUAL_FIELDS}


def recover_multipliers(
    ensemble: WeightedEnsemble, p: float, conjugates, povm: Povm
) -> tuple:
    """(lambdas, nus) from the measurement traces and the stationarity rows.

    lambda_j = tr(Pi_j) (p - p_j) / (4p); nu_i = 2 lambda_i c_i / (1 - p~_i)
    for i = 2..N with state 1 as pivot. Needs p strictly above every prior,
    otherwise the nu recovery divides by zero.
    """
    priors = ensemble.priors
    p = float(p)
    if p <= priors.max():
        raise DegenerateRatioError(
            f"p = {p!r} does not exceed max prior {priors.max()!r}; multipliers undefined"
        )
    c = np.array([list(ci) for ci in conjugates], dtype=float)
    traces = 2.0 * povm.a_values()
    lambdas = traces * (p - priors) / (4.0 * p)
    scaled = priors / p
    nus = 2.0 * lambdas[1:, None] * c[1:] / (1.0 - scaled[1:, None])
    return (
        tuple(float(l) for l in lambdas),
        tuple(BlochVector.from_array(row) for row in nus),
    )


def _nu_rows(lambdas: np.ndarray, c: np.ndarray, one_minus: np.ndarray) -> np.ndarray:
    # 0/0 convention: a vanished multiplier contributes nothing even when the
    # denominator also vanishes; a genuinely nonzero lambda over a zero
    # denominator blows up the residual rather than raising.
    denom = np.where(one_minus > 1e-12, one_minus, 1.0)
    nus = 2.0 * lambdas[:, None] * c / denom[:, None]
    bad = (one_minus <= 1e-12) & (np.abs(lambdas) > 1e-15)
    if bad.any():
        nus[bad] = 2.0 * lambdas[bad, None] * c[bad] / 1e-300
    zero = np.abs(lambdas) <= 1e-15
    nus[zero & (one_minus <= 1e-12)] = 0.0
    return nus


def kkt_residuals(
    ensemble: WeightedEnsemble, certificate: HelstromCertificate, povm: Povm
) -> KktReport:
    """Grade a candidate (certificate, povm) pair; see the module docstring."""
    n = ensemble.n
    b = ensemble.bloch_matrix
    c = certificate.conjugate_matrix()
    lam = np.asarray(certificate.lambdas, dtype=float)
    scaled = np.asarray(certificate.scaled_priors, dtype=float)
    one_minus = 1.0 - scaled
    c_sq = np.einsum("ij,ij->i", c, c)

    primal_ineq = float(np.maximum(c_sq - 1.0, 0.0).max())
    mixtures = scaled[:, None] * b + one_minus[:, None] * c
    diffs = mixtures[:, None, :] - mixtures[None, :, :]
    primal_eq = float(np.sqrt((diffs ** 2).sum(axis=2)).max())
    dual_feas = float(np.maximum(-lam, 0.0).max())
    slackness = float(np.abs(lam * (c_sq - 1.0)).max())

    degenerate = bool(one_minus.min() <= 1e-12)
    nus = _nu_rows(lam, c, one_minus)

    stat_p = 0.0
    stat_c = 0.0
    for k in range(n):
        others = [i for i in range(n) if i != k]
        rel = c[k][None, :] - c[others]
        stat_p = max(stat_p, abs(1.0 + float(np.einsum("ij,ij->", nus[others], rel))))
        row14 = 2.0 * lam[k] * c[k] + one_minus[k] * nus[others].sum(axis=0)
        stat_c = max(stat_c, float(np.linalg.norm(row14)))
        # the i != k rows are the nu definition; re-evaluate them literally
        row15 = 2.0 * lam[others, None] * c[others] - one_minus[others, None] * nus[others]
        stat_c = max(stat_c, float(np.linalg.norm(row15, axis=1).max()))

    agg_terms = _nu_rows(lam, c, one_minus) / 2.0  # lambda_i c_i / (1 - p~_i)
    aggregate_sum = float(np.linalg.norm(agg_terms.sum(axis=0)))
    half_terms = np.where(
        (one_minus > 1e-12),
        lam * c_sq / np.where(one_minus > 1e-12, one_minus, 1.0),
        np.where(np.abs(lam) <= 1e-15, 0.0, lam * c_sq / 1e-300),
    )
    aggregate_half = abs(float(half_terms.sum()) - 0.5)

    if not math.isfinite(stat_p):
        stat_p = float("inf")
    return KktReport(
        primal_ineq=primal_ineq,
        primal_eq=primal_eq,
        dual_feas=dual_feas,
        stationarity_p=float(stat_p),
        stationarity_c=float(stat_c),
        slackness=slackness,
        aggregate_sum=aggregate_sum,
        aggregate_half=aggregate_half,
        nu=tuple(BlochVector.from_array(row) for row in nus[1:]),
        degenerate=degenerate,
    )
