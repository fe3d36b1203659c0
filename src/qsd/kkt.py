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

The pivot choice is a bookkeeping artifact, so the worst residual over
every choice of pivot is reported, in one pass. With nu_i = 2 lambda_i c_i /
(1 - p~_i) for every i, S = sum_i nu_i and T = sum_i nu_i . c_i, pivot k
gives sum_{i!=k} nu_i . (c_k - c_i) = c_k . S - T, so the stationarity in p
is max_k |1 + c_k . S - T|; the pivot's own c-row is 2 lambda_k c_k +
(1 - p~_k)(S - nu_k), and the other c-rows are the nu definition itself, the
same set for every pivot. The aggregates are |S|/2 and |T/2 - 1/2|. When some
p~_i = 1 (ratio equal to a prior, the guess regime) the nu recovery divides by
zero, lambda_i is zero there as well, and the report flags itself degenerate
instead of pretending the system applies.

Every residual but one is a single O(n) pass. primal_eq, the largest
distance between two scaled mixtures, is family.max_pairwise_distance:
quadratic in the number of distinct mixtures, which all sit within rounding
of the common point at an optimum and so repeat often.

This module never throws on finite inputs: broken certificates come out as
large residuals, which is the point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bloch import (
    DEGENERATE_RATIO_TOL,
    KKT_TOL,
    OVERFLOW_DENOMINATOR,
    ZERO_TOL,
    ArrayRecord,
    HelstromCertificate,
    Povm,
    WeightedEnsemble,
    vector_matrix,
)
from .family import max_pairwise_distance

__all__ = ["KktReport", "kkt_residuals"]

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


@dataclass(init=False, eq=False, repr=False)
class KktReport(ArrayRecord):
    """The residuals of the module docstring, and nu_i for i >= 2 (pivot 1).

    nu is stored as a read-only (n - 1, 3) array.
    """

    primal_ineq: float
    primal_eq: float
    dual_feas: float
    stationarity_p: float
    stationarity_c: float
    slackness: float
    aggregate_sum: float
    aggregate_half: float
    nu: np.ndarray
    degenerate: bool = False

    def __init__(self, nu, degenerate: bool = False, **residuals: float) -> None:
        """Keyword arguments, one per residual field; TypeError for a missing or unknown one."""
        wrong = set(_RESIDUAL_FIELDS).symmetric_difference(residuals)
        if wrong:
            raise TypeError(f"KktReport() residual keywords missing or unknown: {sorted(wrong)}")
        self._store(**{f: float(residuals[f]) for f in _RESIDUAL_FIELDS},
                    nu=vector_matrix(nu), degenerate=bool(degenerate))

    @property
    def passes(self) -> bool:
        return all(getattr(self, f) <= KKT_TOL for f in _RESIDUAL_FIELDS)

    def worst(self) -> tuple:
        """(field name, value) of the largest residual."""
        name = max(_RESIDUAL_FIELDS, key=lambda f: getattr(self, f))
        return name, getattr(self, name)

    def residuals(self) -> dict:
        return {f: getattr(self, f) for f in _RESIDUAL_FIELDS}


def _nu_rows(two_lam_c: np.ndarray, lambdas: np.ndarray, one_minus: np.ndarray) -> np.ndarray:
    # nu_i = 2 lambda_i c_i / (1 - p~_i). 0/0 convention: a vanished
    # multiplier contributes nothing even when the denominator also vanishes;
    # a genuinely nonzero lambda over a zero denominator blows up the
    # residual rather than raising.
    vanished = one_minus <= DEGENERATE_RATIO_TOL
    denom = np.where(vanished, OVERFLOW_DENOMINATOR, one_minus)
    nus = two_lam_c / denom[:, None]
    nus[vanished & (np.abs(lambdas) <= ZERO_TOL)] = 0.0
    return nus


def _finite_or_inf(value) -> float:
    value = float(value)
    return value if math.isfinite(value) else math.inf


def kkt_residuals(
    ensemble: WeightedEnsemble, certificate: HelstromCertificate, povm: Povm
) -> KktReport:
    """Grade a candidate (certificate, povm) pair; see the module docstring."""
    b = ensemble.bloch_matrix
    c = certificate.conjugates
    lam = certificate.lambdas
    scaled = certificate.scaled_priors
    one_minus = 1.0 - scaled
    one_minus_col = one_minus[:, None]
    c_sq_gap = np.einsum("ij,ij->i", c, c) - 1.0

    primal_ineq = float(np.maximum(c_sq_gap, 0.0).max())
    primal_eq = max_pairwise_distance(scaled[:, None] * b + one_minus_col * c)
    dual_feas = float(np.maximum(-lam, 0.0).max())
    slackness = float(np.abs(lam * c_sq_gap).max())

    with np.errstate(over="ignore", invalid="ignore"):
        two_lam_c = 2.0 * lam[:, None] * c
        nus = _nu_rows(two_lam_c, lam, one_minus)
        s = nus.sum(axis=0)
        t = float(np.einsum("ij,ij->", nus, c))
        stat_p = np.abs(1.0 + (c @ s - t)).max()
        # each pivot's own c-row, then the others' rows (the same set for every pivot)
        pivot_rows = two_lam_c + one_minus_col * (s - nus)
        nu_rows = two_lam_c - one_minus_col * nus
        stat_c = np.linalg.norm(np.concatenate([pivot_rows, nu_rows]), axis=1).max()
        aggregate_sum = np.linalg.norm(s / 2.0)
        aggregate_half = abs(t / 2.0 - 0.5)

    return KktReport(
        primal_ineq=primal_ineq,
        primal_eq=primal_eq,
        dual_feas=dual_feas,
        stationarity_p=_finite_or_inf(stat_p),
        stationarity_c=_finite_or_inf(stat_c),
        slackness=slackness,
        aggregate_sum=_finite_or_inf(aggregate_sum),
        aggregate_half=_finite_or_inf(aggregate_half),
        nu=nus[1:],
        degenerate=bool(one_minus.min() <= DEGENERATE_RATIO_TOL),
    )
