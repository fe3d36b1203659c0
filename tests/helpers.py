"""Shared test utilities: random ensemble builders and the certificate suite."""

import math
from itertools import combinations

import numpy as np

import qsd
from qsd.family import family_residual, success_probability, verify_optimality
from qsd.kkt import kkt_residuals

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


def one_sided_shell(count, seed=0):
    """Equiprobable pure states, all in the upper hemisphere: the shell
    theorem excludes them, so the shell and cone closed forms must decline."""
    rows = np.random.default_rng(seed).normal(size=(count, 3))
    rows[:, 2] = np.abs(rows[:, 2])
    rows /= np.linalg.norm(rows, axis=1)[:, None]
    return qsd.WeightedEnsemble.from_arrays([1.0 / count] * count, rows)


def quarter_circle_cone(count):
    """A cone whose azimuths span a quarter circle: no planar weights exist."""
    phis = np.linspace(0.0, 0.5 * math.pi, count)
    return qsd.cone_ensemble(count, 0.9, math.pi / 3.0, phis=phis)


def lstsq_support_points(pr, q, subset):
    """Equal-slack points for a support subset: all r with p_i + |r - q_i| equal on it.

    The oracle's equal-slack solver as it was before its closed-form
    rewrite, kept here unchanged (numpy arrays, np.linalg.lstsq with the
    default rcond) so that the exhaustive reference shares no numerics with
    the kernel it checks. Size 1 is the point itself; size 2 the balanced
    point on the segment; sizes 3 and 4 reduce to a linear system for r as
    an affine function of p plus one quadratic. Inconsistent or
    rank-deficient systems return nothing.
    """
    s = list(subset)
    if len(s) == 1:
        return [q[s[0]].copy()]
    if len(s) == 2:
        i, j = s
        d = q[j] - q[i]
        dn = float(np.linalg.norm(d))
        if dn <= 1e-15:
            return []
        p = 0.5 * (pr[i] + pr[j] + dn)
        if p < pr[i] - 1e-15 or p < pr[j] - 1e-15:
            return []
        return [q[i] + ((p - pr[i]) / dn) * d]

    i0 = s[0]
    rest = s[1:]
    e = q[rest] - q[i0]
    # 2 rt.e_m = |e_m|^2 + (p_m - p_0)(2p - p_0 - p_m): affine in p
    h = np.column_stack([
        np.einsum("ij,ij->i", e, e) - (pr[rest] - pr[i0]) * (pr[rest] + pr[i0]),
        2.0 * (pr[rest] - pr[i0]),
    ])
    u, _, rank, _ = np.linalg.lstsq(2.0 * e, h, rcond=None)
    if rank < len(rest):
        return []
    if (np.linalg.norm(2.0 * e @ u - h, axis=0) > 1e-9).any():
        return []
    u0, u1 = u.T
    # |rt(p)|^2 = (p - p_0)^2 with rt(p) = u0 + u1 p
    alpha = float(u1 @ u1) - 1.0
    beta = 2.0 * float(u0 @ u1) + 2.0 * pr[i0]
    gamma = float(u0 @ u0) - pr[i0] ** 2
    roots = []
    if abs(alpha) <= 1e-14:
        if abs(beta) > 1e-14:
            roots.append(-gamma / beta)
    else:
        disc = beta * beta - 4.0 * alpha * gamma
        if disc >= -1e-12:
            sq = float(np.sqrt(max(disc, 0.0)))
            roots.extend([(-beta + sq) / (2.0 * alpha), (-beta - sq) / (2.0 * alpha)])
    out = []
    for p in roots:
        if not np.isfinite(p):
            continue
        if p < pr[s].max() - 1e-12:
            continue
        out.append(q[i0] + u0 + u1 * p)
    return out


def brute_force_minimax(ensemble):
    """min f(r) over the equal-slack points of every support of size 1 to 4.

    The exhaustive reference for the pivoting oracle: the optimum's support
    has at most 4 indices, so the smallest f among all these points is p*.
    """
    pr, q = ensemble.priors, ensemble.weighted_points
    best = math.inf
    for size in range(1, min(4, ensemble.n) + 1):
        for subset in combinations(range(ensemble.n), size):
            for r in lstsq_support_points(pr, q, subset):
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
