"""Shared test utilities: random ensemble builders and the certificate suite."""

import math
from itertools import combinations

import numpy as np

import qsd
from qsd.family import family_residual, success_probability, verify_optimality
from qsd.kkt import kkt_residuals
from qsd.oracle import _support_points

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)


def operator_matrix(a, v):
    """The 2x2 operator a*I + v . sigma."""
    return a * np.eye(2) + v[0] * SX + v[1] * SY + v[2] * SZ


def density_matrix(b):
    return operator_matrix(0.5, 0.5 * np.asarray(b, dtype=float))


def ball_points(rng, count):
    """Uniform points in the unit ball."""
    v = rng.normal(size=(count, 3))
    v /= np.linalg.norm(v, axis=1)[:, None]
    radius = rng.uniform(0.0, 1.0, size=count) ** (1.0 / 3.0)
    return v * radius[:, None]


def random_ensemble(rng, count, min_prior=1e-3):
    """Priors uniform on the simplex interior, Bloch vectors uniform in the ball."""
    priors = rng.dirichlet(np.ones(count))
    while priors.min() < min_prior:
        priors = rng.dirichlet(np.ones(count))
    points = ball_points(rng, count)
    return qsd.validate_ensemble(
        [(float(p), tuple(row)) for p, row in zip(priors, points)]
    )


def random_diagonal_ensemble(rng, count, min_prior=1e-3):
    priors = rng.dirichlet(np.ones(count))
    while priors.min() < min_prior:
        priors = rng.dirichlet(np.ones(count))
    z = rng.uniform(-1.0, 1.0, size=count)
    return qsd.validate_ensemble(
        [(float(p), (0.0, 0.0, float(zz))) for p, zz in zip(priors, z)]
    )


def brute_force_minimax(ensemble):
    """min f(r) over the equal-slack points of every support of size 1 to 4.

    The exhaustive reference for the pivoting oracle: the optimum's support
    has at most 4 indices, so the smallest f among all these points is p*.
    """
    pr, q = ensemble.priors, ensemble.weighted_points
    best = math.inf
    for size in range(1, min(4, ensemble.n) + 1):
        for subset in combinations(range(ensemble.n), size):
            for r in _support_points(pr, q, subset):
                best = min(best, float((pr + np.linalg.norm(r - q, axis=1)).max()))
    return best


def assert_dual_certificate(ensemble, result):
    """Weak duality in 2x2 complex matrices, independent of the Bloch algebra:
    Y = (p I + r.sigma)/2 dominates every p_i rho_i, every element is PSD, and
    tr Y equals the success sum_i p_i tr(rho_i Pi_i)."""
    p = result.p_opt
    y = operator_matrix(0.5 * p, 0.5 * result.certificate.common_point.as_array())
    success = 0.0
    for (prior, state), element in zip(ensemble.entries, result.povm.elements):
        rho = density_matrix(state.bloch.as_array())
        pi = operator_matrix(element.a, element.v.as_array())
        assert np.linalg.eigvalsh(y - prior * rho).min() >= -1e-8, "Y - p_i rho_i not PSD"
        assert np.linalg.eigvalsh(pi).min() >= -1e-12, "POVM element not PSD"
        success += prior * float(np.trace(rho @ pi).real)
    assert abs(float(np.trace(y).real) - success) <= 1e-8, "duality gap"


def assert_result_valid(ensemble, result):
    """The full certificate suite; degenerate (guessing) results get the
    reduced treatment: feasibility checks still apply, the optimality
    witnesses (orthogonality, pure count, nonzero multipliers, stationarity)
    do not exist for an identity measurement and are skipped."""
    povm = result.povm
    cert = result.certificate

    a_sum = math.fsum(e.a for e in povm.elements)
    v_sum = np.sum(povm.v_matrix(), axis=0)
    assert abs(a_sum - 1.0) <= 1e-10, f"completeness trace residual {abs(a_sum - 1.0)}"
    assert float(np.linalg.norm(v_sum)) <= 1e-10, "completeness vector residual"

    for element in povm.elements:
        assert element.a >= -1e-12
        assert element.a - element.v.norm() >= -1e-12, "element not PSD"

    success = success_probability(ensemble, povm)
    assert abs(success - result.p_opt) <= 1e-8, f"success {success} vs p {result.p_opt}"

    assert family_residual(ensemble, result.p_opt, cert.conjugates) <= 1e-9
    assert all(c.norm() <= 1.0 + 1e-9 for c in cert.conjugates)
    assert abs(cert.p - result.p_opt) <= 1e-10
    assert all(lam >= -1e-15 for lam in cert.lambdas)
    assert_dual_certificate(ensemble, result)

    report = kkt_residuals(ensemble, cert, povm)
    if cert.degenerate:
        assert report.primal_ineq <= 1e-8
        assert report.primal_eq <= 1e-8
        assert report.dual_feas <= 1e-8
        return
    ok, resid = verify_optimality(povm, cert.conjugates)
    assert ok, f"orthogonality residual {resid}"
    assert sum(cert.pure_mask) >= 2, "fewer than two pure conjugates"
    assert max(cert.lambdas) > 0.0, "all multipliers zero on a regular result"
    assert report.passes, f"kkt worst residual {report.worst()}"
