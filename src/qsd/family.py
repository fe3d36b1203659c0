"""Weak family construction, verification, and result assembly.

The family view of a discrimination problem: a ratio p and a common point r
such that every state's weighted Bloch point q_i = p_i b_i sees the same
mixture, r = q_i + (p - p_i) c_i, where c_i is the conjugate direction of
state i. With |c_i| <= 1 this is a feasible dual point Y = (p I + r.sigma)/2,
since Y - p_i rho_i = (p - p_i) tau_i with tau_i = (I + c_i.sigma)/2, so p
upper-bounds the success probability; p - success = sum_i (p - p_i)
tr(tau_i Pi_i) vanishes exactly when each nonzero element is orthogonal to
its conjugate, a_i + c_i.v_i = 0.

assemble_result is the single funnel every solver returns through: it
certifies by weak duality and refuses anything that fails. The KKT report
is computed only when result.kkt is read.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .bloch import (
    BOUND_SLACK,
    DEGENERACY_TOL,
    FAMILY_TOL,
    KKT_TOL,
    ORTHOGONALITY_TOL,
    PURITY_TOL,
    SUCCESS_TOL,
    BlochVector,
    DiscriminationResult,
    HelstromCertificate,
    Povm,
    PovmElement,
    WeightedEnsemble,
    ZERO_VECTOR,
)
from .errors import CertificateError, DegenerateRatioError

__all__ = [
    "conjugates_from_common_point",
    "verify_weak_family",
    "success_probability",
    "verify_optimality",
    "helstrom_upper_bound_check",
    "family_residual",
    "povm_from_weights",
    "assemble_result",
    "guess_result",
]


def _conjugate_rows(conjugates: Sequence) -> np.ndarray:
    rows = [list(c) if isinstance(c, BlochVector) else np.asarray(c, dtype=float).reshape(3) for c in conjugates]
    return np.array(rows, dtype=float)


def conjugates_from_common_point(
    ensemble: WeightedEnsemble, p: float, r: BlochVector
) -> list:
    """Solve r = p_i b_i + (p - p_i) c_i for every conjugate direction.

    Requires p strictly above every prior; at p = p_i the conjugate of state
    i is unconstrained by the family equation and this inversion is
    meaningless, so that case raises instead of guessing.
    """
    priors = ensemble.priors
    if p <= priors.max():
        raise DegenerateRatioError(
            f"ratio p = {p!r} does not exceed max prior {priors.max()!r}; conjugates undefined"
        )
    r_arr = r.as_array() if isinstance(r, BlochVector) else np.asarray(r, dtype=float).reshape(3)
    c = (r_arr - ensemble.weighted_points) / (p - priors)[:, None]
    return [BlochVector.from_array(row) for row in c]


def family_residual(ensemble: WeightedEnsemble, p: float, conjugates: Sequence) -> float:
    """Max pairwise distance between the mixtures p_i b_i + (p - p_i) c_i."""
    c = _conjugate_rows(conjugates)
    mixtures = ensemble.weighted_points + (p - ensemble.priors)[:, None] * c
    diffs = mixtures[:, None, :] - mixtures[None, :, :]
    return float(np.sqrt((diffs ** 2).sum(axis=2)).max())


def verify_weak_family(
    ensemble: WeightedEnsemble, p: float, conjugates: Sequence
) -> tuple:
    """Check that (p, conjugates) forms a weak family for the ensemble.

    Returns (ok, residual) where residual is the max pairwise mixture
    mismatch. ok additionally requires every |c_i| <= 1 and every scaled
    prior p_i/p in (0, 1], so a geometric family built from non-states is
    rejected even at zero residual.
    """
    if len(conjugates) != ensemble.n:
        return False, float("inf")
    residual = family_residual(ensemble, p, conjugates)
    norms = np.linalg.norm(_conjugate_rows(conjugates), axis=1)
    ok = (
        residual <= FAMILY_TOL
        and bool(np.all(norms <= 1.0 + PURITY_TOL))
        and 0.0 < p <= 1.0 + 1e-12
        and p >= ensemble.priors.max() - 1e-12
    )
    return ok, residual


def success_probability(ensemble: WeightedEnsemble, povm: Povm) -> float:
    """sum_i p_i (a_i + b_i.v_i), the Bloch form of sum_i p_i tr(rho_i Pi_i)."""
    if povm.n != ensemble.n:
        raise ValueError(f"POVM has {povm.n} elements for {ensemble.n} states")
    per_state = povm.a_values() + np.einsum("ij,ij->i", ensemble.bloch_matrix, povm.v_matrix())
    return float(ensemble.priors @ per_state)


def verify_optimality(povm: Povm, conjugates: Sequence) -> tuple:
    """Check tr(tau_i Pi_i) = a_i + c_i.v_i = 0 for every nonzero element.

    Zero elements pass vacuously. Returns (ok, max residual over nonzero
    elements); an all-zero POVM cannot occur (completeness).
    """
    if povm.n != len(conjugates):
        raise ValueError("POVM and conjugate list lengths differ")
    c = _conjugate_rows(conjugates)
    residual = 0.0
    for k, el in enumerate(povm.elements):
        if el.is_zero():
            continue
        residual = max(residual, abs(el.a + float(c[k] @ el.v.as_array())))
    return residual <= ORTHOGONALITY_TOL, residual


def helstrom_upper_bound_check(ensemble: WeightedEnsemble, candidate_povm: Povm, p: float) -> bool:
    """True when the POVM's success stays below the family ratio p plus slack."""
    return success_probability(ensemble, candidate_povm) <= p + BOUND_SLACK


def povm_from_weights(weights: Sequence, conjugates: Sequence) -> Povm:
    """Build Pi_i = w_i * (I - c_i.sigma)/2 from a weight system.

    Weights within 1e-12 of zero are clamped so float dust cannot fail the
    PSD check. Completeness (sum w = 2, sum w c = 0) is re-verified by the
    Povm constructor, not assumed.
    """
    w = np.asarray(weights, dtype=float)
    c = _conjugate_rows(conjugates)
    if w.shape[0] != c.shape[0]:
        raise ValueError("weights and conjugates lengths differ")
    w = np.where(np.abs(w) <= 1e-12, 0.0, w)
    if w.min() < 0.0:
        raise ValueError(f"negative weight {w.min()!r}")
    a = w / 2.0
    v = -a[:, None] * c
    return Povm(tuple(PovmElement(ak, BlochVector(*vk)) for ak, vk in zip(a.tolist(), v.tolist())))


def _default_lambdas(ensemble: WeightedEnsemble, p: float, povm: Povm) -> np.ndarray:
    # lambda_j = tr(Pi_j) (1 - p_j/p) / 4, inverted from the pure-element form;
    # 1 - p_j/p is what the KKT report divides by, so near-guess nu stay exact
    traces = 2.0 * povm.a_values()
    return traces * (1.0 - ensemble.priors / p) / 4.0


def assemble_result(
    ensemble: WeightedEnsemble,
    p: float,
    common_point,
    conjugates: Sequence,
    povm: Povm,
    method: str,
    lambdas: Sequence | None = None,
) -> DiscriminationResult:
    """Certify and package a solver's output by weak duality; raise CertificateError on failure.

    Three O(n) checks: (1) dual feasibility at the reported point, p >= p_i,
    |q_i + (p - p_i) c_i - r| <= FAMILY_TOL and |c_i| <= 1 + PURITY_TOL for
    every i, which is Y >= p_i rho_i; (2) a zero duality gap,
    |success(povm) - p| <= SUCCESS_TOL (the Povm constructor has already
    enforced completeness and positivity); (3) the reported multipliers
    match the trace-derived ones within KKT_TOL.
    """
    priors = ensemble.priors
    p = float(p)
    if not isinstance(common_point, BlochVector):
        common_point = BlochVector.from_array(common_point)
    conj = [c if isinstance(c, BlochVector) else BlochVector.from_array(c) for c in conjugates]
    c_rows = _conjugate_rows(conj)
    c_norms = np.array([c.norm() for c in conj])

    if p < priors.max() - 1e-12:
        raise CertificateError(f"ratio p = {p!r} below max prior {priors.max()!r}")
    if c_norms.max() > 1.0 + PURITY_TOL:
        raise CertificateError(f"conjugate norm {c_norms.max()!r} exceeds 1")
    mixtures = ensemble.weighted_points + (p - priors)[:, None] * c_rows
    residual = float(np.linalg.norm(mixtures - common_point.as_array(), axis=1).max())
    if residual > FAMILY_TOL:
        raise CertificateError(f"common-point residual {residual!r} exceeds {FAMILY_TOL}")

    success = success_probability(ensemble, povm)
    if abs(success - p) > SUCCESS_TOL:
        raise CertificateError(f"POVM success {success!r} differs from p = {p!r}")
    degenerate = success <= priors.max() + DEGENERACY_TOL

    traced = _default_lambdas(ensemble, p, povm)
    lam = traced if lambdas is None else np.asarray([float(l) for l in lambdas], dtype=float)
    if np.abs(lam - traced).max() > KKT_TOL:
        raise CertificateError("multipliers disagree with the measurement traces")
    lam = np.where(np.abs(lam) <= 1e-15, 0.0, lam)

    certificate = HelstromCertificate(
        p=p,
        common_point=common_point,
        conjugates=tuple(conj),
        scaled_priors=tuple(priors / p),
        lambdas=tuple(lam),
        pure_mask=tuple(bool(m) for m in c_norms >= 1.0 - PURITY_TOL),
        degenerate=bool(degenerate),
    )
    return DiscriminationResult(
        p_opt=p, povm=povm, certificate=certificate, method=method, ensemble=ensemble
    )


def guess_result(
    ensemble: WeightedEnsemble, index: int, method: str, value: float | None = None
) -> DiscriminationResult:
    """Package the guess strategy Pi_index = I as a degenerate certificate.

    Valid only when p_index reaches p_i + |q_index - q_i| for every other
    state, i.e. the guess value max p_i is the true optimum. The conjugate
    of the guessed state is unconstrained (its family coefficient p - p_index
    is zero); it is reported as the zero vector. `value` lets a caller pin
    the reported optimum to its own evaluation of p_index (at most an ulp
    away) so that exact-equality contracts against reference formulas hold.
    """
    priors = ensemble.priors
    q = ensemble.weighted_points
    k = int(index)
    p = float(priors[k]) if value is None else float(value)
    r = q[k]
    conj = []
    for i in range(ensemble.n):
        if i == k:
            conj.append(ZERO_VECTOR)
            continue
        gap = p - priors[i]
        offset = r - q[i]
        if gap <= 1e-15:
            # tied prior: the family equation forces q_i = r, conjugate free
            if float(np.linalg.norm(offset)) > 1e-12:
                raise DegenerateRatioError(
                    f"guess at index {k} cannot cover state {i}: tied prior, distinct point"
                )
            conj.append(ZERO_VECTOR)
            continue
        c = offset / gap
        if float(np.linalg.norm(c)) > 1.0 + PURITY_TOL:
            raise DegenerateRatioError(
                f"guess at index {k} is not optimal: state {i} violates the family"
            )
        conj.append(BlochVector.from_array(c))
    elements = tuple(
        PovmElement(1.0, ZERO_VECTOR) if i == k else PovmElement(0.0, ZERO_VECTOR)
        for i in range(ensemble.n)
    )
    return assemble_result(
        ensemble,
        p,
        BlochVector.from_array(r),
        conj,
        Povm(elements),
        method,
        lambdas=np.zeros(ensemble.n),
    )
