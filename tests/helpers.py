"""Shared test utilities: random ensemble builders, the certificate suite and a frozen oracle."""

import math
import sys
from fractions import Fraction
from itertools import combinations

import numpy as np

import qsd
from qsd.family import family_residual, success_probability, verify_optimality
from qsd.kkt import kkt_residuals
from qsd.oracle import MinimaxSolution

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


def sphere_points(rng, count):
    """Uniform points on the unit sphere."""
    v = rng.normal(size=(count, 3))
    return v / np.linalg.norm(v, axis=1)[:, None]


def near_guess_ensemble(rng):
    """Two heavy states with |q_1 - q_2| = (p_1 - p_2)(1 + 10^-u), u in [4, 9],
    plus light states inside the ball B(q_1, p_1): p* exceeds p_1 by about
    (p_1 - p_2) 10^-u / 2."""
    while True:
        p1 = rng.uniform(0.35, 0.5)
        delta = rng.uniform(0.01, 0.2)
        light = rng.dirichlet(np.ones(int(rng.integers(1, 5)))) * (1.0 - 2.0 * p1 + delta)
        b1 = ball_points(rng, 1)[0]
        q2 = p1 * b1 + delta * (1.0 + 10.0 ** -rng.uniform(4.0, 9.0)) * sphere_points(rng, 1)[0]
        points = ball_points(rng, len(light))
        inside = p1 >= light + np.linalg.norm(light[:, None] * points - p1 * b1, axis=1)
        if np.linalg.norm(q2) <= p1 - delta and inside.all():
            entries = [(p1, b1), (p1 - delta, q2 / (p1 - delta))] + list(zip(light, points))
            return qsd.validate_ensemble(
                [(float(p), tuple(float(x) for x in b)) for p, b in entries]
            )


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
    return qsd.WeightedEnsemble([1.0 / count] * count, rows)


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


def conjugates_from_common_point(ensemble, p, r) -> np.ndarray:
    """Solve r = p_i b_i + (p - p_i) c_i for every conjugate direction, as (n, 3) rows.

    p must exceed every prior: at p = p_i the family equation leaves the
    conjugate of state i free.
    """
    assert p > ensemble.max_prior, "conjugates undefined at p <= max prior"
    r = np.asarray(r, dtype=float).reshape(3)
    return (r - ensemble.weighted_points) / (p - ensemble.priors)[:, None]


def pair_lower_bound(ensemble) -> float:
    """max over singletons and pairs of the triangle-inequality bound on p*.

    An independent lower bound for the tests: one vectorized pass per row
    of the pair table, so memory stays O(n).
    """
    pr = ensemble.priors
    q = ensemble.weighted_points
    best = float(pr.max())
    for i in range(len(pr) - 1):
        d = np.linalg.norm(q[i + 1:] - q[i], axis=1)
        best = max(best, float((0.5 * (pr[i] + pr[i + 1:] + d)).max()))
    return best


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


# ---------------------------------------------------------------------------
# exact yardstick

EXACT_DIGITS = 40  # decimal digits to which exact_minimax brackets each square root
EXACT_STATES = 6   # the most states exact_minimax takes


def _root(x: Fraction, upper: bool = False) -> Fraction:
    """sqrt(x) for x >= 0 from below, or from above when upper, within 10^-EXACT_DIGITS."""
    scale = 10 ** EXACT_DIGITS
    s = math.isqrt(x.numerator * scale * scale // x.denominator)
    return Fraction(s + upper, scale)


def _square(a: tuple) -> tuple:
    """The interval of x * x for x in the interval a = (lo, hi)."""
    lo, hi = a
    if lo >= 0:
        return lo * lo, hi * hi
    if hi <= 0:
        return hi * hi, lo * lo
    return Fraction(0), max(lo * lo, hi * hi)


def _gram_solve(gram: list, rhs: list) -> list | None:
    """x with gram x = rhs, each rhs entry a tuple of columns, in Fractions; None if singular."""
    rows = [list(g) + list(b) for g, b in zip(gram, rhs)]
    k = len(rows)
    for col in range(k):
        pivot = next((i for i in range(col, k) if rows[i][col] != 0), None)
        if pivot is None:
            return None
        rows[col], rows[pivot] = rows[pivot], rows[col]
        for i in range(k):
            if i != col and rows[i][col] != 0:
                factor = rows[i][col] / rows[col][col]
                rows[i] = [x - factor * y for x, y in zip(rows[i], rows[col])]
    return [[x / row[i] for x in row[k:]] for i, row in enumerate(rows)]


def _equal_slack_ratios(pr: list, q: list, subset: tuple):
    """(p interval, u0, u1) for the points r = q_0 + u0 + u1 p of equal slack on subset.

    r - q_0 = sum_m c_m e_m over e_m = q_m - q_0 lies in the affine hull of
    the subset's points, 2 r.e_m = |e_m|^2 - (p_m^2 - p_0^2) + 2 (p_m - p_0) p,
    and |r - q_0| = p - p_0 squared is a quadratic in p with rational
    coefficients; each of its real roots is one interval. Singular Gram
    matrices (affinely dependent points) give none.
    """
    i0, rest = subset[0], subset[1:]
    e = [tuple(a - b for a, b in zip(q[m], q[i0])) for m in rest]
    gram = [[sum(a * b for a, b in zip(em, el)) for el in e] for em in e]
    rhs = [((gram[k][k] - (pr[m] ** 2 - pr[i0] ** 2)) / 2, pr[m] - pr[i0])
           for k, m in enumerate(rest)]
    c = _gram_solve(gram, rhs)
    if c is None:
        return
    u0, u1 = ([sum(cm[col] * em[axis] for cm, em in zip(c, e)) for axis in range(3)]
              for col in (0, 1))
    p0 = pr[i0]
    alpha = sum(x * x for x in u1) - 1
    beta = 2 * sum(x * y for x, y in zip(u0, u1)) + 2 * p0
    gamma = sum(x * x for x in u0) - p0 * p0
    if alpha == 0:
        if beta != 0:
            yield (-gamma / beta,) * 2, u0, u1
        return
    disc = beta * beta - 4 * alpha * gamma
    if disc < 0:
        return
    roots = (_root(disc), _root(disc, upper=True))
    for sign in (1, -1):
        ends = sorted((-beta + sign * s) / (2 * alpha) for s in roots)
        yield tuple(ends), u0, u1


def exact_minimax(ensemble) -> tuple:
    """p* = min_r max_i (p_i + |r - q_i|) of the ensemble's floats, as an interval (lo, hi).

    For at most EXACT_STATES states. The optimum is a point of equal slack
    on a support of at most 4 states, in the affine hull of their points, so
    p* is the least f(r) = max_i (p_i + |r - q_i|) over every such point of
    every support (_equal_slack_ratios): a root that squaring introduced is
    still a point r, and f(r) >= p* there. Everything runs in
    fractions.Fraction on the record's exact float values; only square
    roots are inexact, each bracketed by math.isqrt to EXACT_DIGITS digits,
    and interval arithmetic carries the brackets through r and f(r). So
    p* lies in [least lower bound of f, least upper bound of f]. Shares no
    numerics with the solvers, brute_force_minimax or the frozen kernels.
    """
    n = ensemble.n
    assert n <= EXACT_STATES, f"exact_minimax takes at most {EXACT_STATES} states"
    pr = [Fraction(x) for x in ensemble.priors.tolist()]
    q = [tuple(Fraction(x) for x in row) for row in ensemble.weighted_points.tolist()]
    lowest = highest = None
    for size in range(1, min(4, n) + 1):
        for subset in combinations(range(n), size):
            for (plo, phi), u0, u1 in _equal_slack_ratios(pr, q, subset):
                r = []
                for base, a, b in zip(q[subset[0]], u0, u1):
                    ends = (b * plo, b * phi)
                    r.append((base + a + min(ends), base + a + max(ends)))
                lo = hi = None
                for pi, qi in zip(pr, q):
                    sq = [_square((rlo - x, rhi - x)) for (rlo, rhi), x in zip(r, qi)]
                    low = pi + _root(max(sum(s[0] for s in sq), Fraction(0)))
                    high = pi + _root(sum(s[1] for s in sq), upper=True)
                    lo, hi = (low, high) if lo is None else (max(lo, low), max(hi, high))
                lowest = lo if lowest is None else min(lowest, lo)
                highest = hi if highest is None else min(highest, hi)
    return lowest, highest


def assert_dual_certificate(ensemble, result):
    """Weak duality in 2x2 complex matrices, independent of the Bloch algebra:
    Y = (p I + r.sigma)/2 dominates every p_i rho_i, every element is PSD, and
    tr Y equals the success sum_i p_i tr(rho_i Pi_i)."""
    p = result.p_opt
    y = operator_matrix(0.5 * p, 0.5 * result.certificate.common_point)
    success = 0.0
    for prior, b, a, v in zip(ensemble.priors, ensemble.bloch_matrix, result.povm.a, result.povm.v):
        rho = density_matrix(b)
        pi = operator_matrix(a, v)
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
    v_sum = np.sum(povm.v, axis=0)
    assert abs(a_sum - 1.0) <= 1e-10, f"completeness trace residual {abs(a_sum - 1.0)}"
    assert float(np.linalg.norm(v_sum)) <= 1e-10, "completeness vector residual"

    for element in povm.elements:
        assert element.a >= -1e-12
        assert element.a - math.hypot(*element.v) >= -1e-12, "element not PSD"

    success = success_probability(ensemble, povm)
    assert abs(success - result.p_opt) <= 1e-8, f"success {success} vs p {result.p_opt}"

    assert family_residual(ensemble, result.p_opt, cert.conjugates) <= 1e-9
    assert np.linalg.norm(cert.conjugates, axis=1).max() <= 1.0 + 1e-9
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


# ---------------------------------------------------------------------------
# frozen oracle kernels

# The oracle's pivot and hull-test kernels and its pivot loop as they were
# before their straight-line rewrite, copied unchanged, with the tolerances
# they read, except that their builtin sums are written out as _sum: the
# builtin adds left to right from 0 up to Python 3.11 and compensates its
# rounding from 3.12 on. The rewrite claims the same float operations in
# the same order, so its MinimaxSolution must equal this one exactly.
_SEPARATION_TOL = 1e-15
_CONSISTENCY_TOL = 1e-9
_QUADRATIC_TOL = 1e-14
_ROOT_TOL = 1e-12
_RANK_TOL = 3.0 * sys.float_info.epsilon
_FEAS_TOL = 1e-10
_NEG_TOL = 1e-12
_PIVOT_WINDOW = 1e-10
_PIVOTS_PER_STATE = 4


def _sub(a, b) -> tuple:
    return (a[0] - b[0], a[1] - b[1], a[2] - b[2])


def _dot(a, b) -> float:
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def _cross(a, b) -> tuple:
    return (a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2], a[0] * b[1] - a[1] * b[0])


def _norm(a) -> float:
    return math.sqrt(_dot(a, a))


def _sum(values) -> float:
    total = 0.0
    for x in values:
        total += x
    return total


def _solve_rows(e: list, h: list):
    """(u0, u1) solving e_m . u_c = h_m[c] for 2 or 3 rows e_m, or None if singular.

    Three rows: the inverse from cross products over the determinant. Two
    rows: the minimum-norm solution u = (h_0 e_1 - h_1 e_0) x n / |n|^2 with
    n = e_0 x e_1. A system singular to rounding relative to its row
    lengths is rejected (_RANK_TOL).
    """
    if len(e) == 3:
        e0, e1, e2 = e
        cols = (_cross(e1, e2), _cross(e2, e0), _cross(e0, e1))
        det = _dot(e0, cols[0])
        if not abs(det) > _RANK_TOL * _norm(e0) * _norm(e1) * _norm(e2):
            return None
        return tuple(
            tuple(_sum(hm[c] * col[k] for hm, col in zip(h, cols)) / det for k in range(3))
            for c in (0, 1)
        )
    e0, e1 = e
    normal = _cross(e0, e1)
    det = _dot(normal, normal)
    if not math.sqrt(det) > _RANK_TOL * _norm(e0) * _norm(e1):
        return None
    out = []
    for c in (0, 1):
        w = tuple(h[0][c] * y - h[1][c] * x for x, y in zip(e0, e1))
        out.append(tuple(x / det for x in _cross(w, normal)))
    return tuple(out)


def _support_points(pr: list, q: list, subset) -> list:
    """Equal-slack points for a support subset: all r with p_i + |r - q_i| equal on it.

    pr and q are Python floats (q as 3-sequences). Size 1 is the point
    itself; size 2 the balanced point on the segment; sizes 3 and 4 reduce
    to a linear system for r as an affine function of p, solved in closed
    form (_solve_rows), plus one quadratic. Inconsistent or rank-deficient
    systems return nothing (their optima are covered by smaller subsets).
    """
    s = list(subset)
    if len(s) == 1:
        return [tuple(q[s[0]])]
    if len(s) == 2:
        i, j = s
        d = _sub(q[j], q[i])
        dn = _norm(d)
        if dn <= _SEPARATION_TOL:
            return []
        p = 0.5 * (pr[i] + pr[j] + dn)
        if p < pr[i] - _SEPARATION_TOL or p < pr[j] - _SEPARATION_TOL:
            return []
        t = (p - pr[i]) / dn
        return [tuple(x + t * y for x, y in zip(q[i], d))]

    p0, q0 = pr[s[0]], q[s[0]]
    e = [_sub(q[m], q0) for m in s[1:]]
    # 2 rt.e_m = |e_m|^2 + (p_m - p_0)(2p - p_0 - p_m): affine in p
    h = [
        (_dot(em, em) - (pr[m] - p0) * (pr[m] + p0), 2.0 * (pr[m] - p0))
        for m, em in zip(s[1:], e)
    ]
    rows = [tuple(2.0 * x for x in em) for em in e]
    solved = _solve_rows(rows, h)
    if solved is None:
        return []
    for c, u in enumerate(solved):
        misfit = [_dot(row, u) - hm[c] for row, hm in zip(rows, h)]
        if math.sqrt(_sum(x * x for x in misfit)) > _CONSISTENCY_TOL:
            return []
    u0, u1 = solved
    # |rt(p)|^2 = (p - p_0)^2 with rt(p) = u0 + u1 p
    alpha = _dot(u1, u1) - 1.0
    beta = 2.0 * _dot(u0, u1) + 2.0 * p0
    gamma = _dot(u0, u0) - p0 * p0
    roots = []
    if abs(alpha) <= _QUADRATIC_TOL:
        if abs(beta) > _QUADRATIC_TOL:
            roots.append(-gamma / beta)
    else:
        disc = beta * beta - 4.0 * alpha * gamma
        if disc >= -_ROOT_TOL:
            sq = math.sqrt(max(disc, 0.0))
            roots.extend([(-beta + sq) / (2.0 * alpha), (-beta - sq) / (2.0 * alpha)])
    top = max(pr[m] for m in s)
    return [
        tuple(x + a + b * p for x, a, b in zip(q0, u0, u1))
        for p in roots
        if math.isfinite(p) and p >= top - _ROOT_TOL
    ]


def _pivot(pr: np.ndarray, q: np.ndarray, basis: tuple, j: int, window: float) -> tuple:
    """(basis, r, value): the optimum of f over basis + (j,), whose old optimum j violates.

    j is in the new optimum's support, so only the equal-slack points of
    subsets holding j and at most 3 basis indices are solved; the one with
    the smallest f over the members is that optimum (the first one on ties).
    The members within window of its value form the next basis. Only the
    members' rows are read, and all the algebra is on Python floats.
    """
    members = basis + (j,)
    p_m = pr[list(members)].tolist()
    q_m = q[list(members)].tolist()
    new = len(basis)
    best_r, best = None, math.inf
    for size in range(min(new, 3) + 1):
        for rest in combinations(range(new), size):
            for r in _support_points(p_m, q_m, rest + (new,)):
                value = max(p + _norm(_sub(r, x)) for p, x in zip(p_m, q_m))
                if value < best:
                    best_r, best = r, value
    active = tuple(
        i for i, p, x in zip(members, p_m, q_m) if p + _norm(_sub(best_r, x)) >= best - window
    )
    return active, np.array(best_r), best


def _zero_weights(d: list):
    """Weights w summing to 1 with sum_i w_i d_i = 0 over 1 to 4 rows in R^3, or None.

    One row: it must be zero. Two: the point of their line nearest 0, which
    is 0 for an antiparallel pair. Three: barycentric coordinates of the
    projection of 0 on their plane, from cross products. Four: signed
    volumes. A triangle or tetrahedron that is flat to rounding is skipped
    (a smaller support covers it); the weights must be nonnegative to
    _NEG_TOL and leave a residual of at most _FEAS_TOL.
    """
    if len(d) == 1:
        w = (1.0,)
    elif len(d) == 2:
        a, b = d
        ab = _sub(a, b)
        den = _dot(ab, ab)
        if den == 0.0:
            return None
        t = -_dot(b, ab) / den
        w = (t, 1.0 - t)
    elif len(d) == 3:
        a, b, c = d
        ba, ca = _sub(b, a), _sub(c, a)
        normal = _cross(ba, ca)
        den = _dot(normal, normal)
        if not math.sqrt(den) > _RANK_TOL * _norm(ba) * _norm(ca):
            return None
        w = tuple(_dot(normal, _cross(x, y)) / den for x, y in ((b, c), (c, a), (a, b)))
    else:
        a, b, c, e = d
        ba, ca, ea = _sub(b, a), _sub(c, a), _sub(e, a)
        vol = _dot(ba, _cross(ca, ea))
        if not abs(vol) > _RANK_TOL * _norm(ba) * _norm(ca) * _norm(ea):
            return None
        w = (
            _dot(b, _cross(c, e)) / vol,
            -_dot(a, _cross(c, e)) / vol,
            _dot(a, _cross(b, e)) / vol,
            -_dot(a, _cross(b, c)) / vol,
        )
    if min(w) < -_NEG_TOL:
        return None
    if _norm(tuple(_sum(wi * x[k] for wi, x in zip(w, d)) for k in range(3))) > _FEAS_TOL:
        return None
    return tuple(max(wi, 0.0) for wi in w)


def _hull_weights(q: np.ndarray, r: np.ndarray, basis: tuple) -> tuple | None:
    """Convex weights mu with sum_i mu_i (q_i - r) = 0 over the basis, or None.

    With every basis point at equal slack, r in the convex hull of the basis
    points is 0 in the hull of the unit directions (r - q_i)/|r - q_i|
    (rescale each by |r - q_i|), so r minimizes f over the basis; a basis
    point at r certifies by itself, as a size-1 support. Scaling the rows by
    the largest instead of their own length keeps a nearly coincident
    point from blowing up its direction's rounding error. The weights have
    the smallest support (at most 4 of the at most 5 rows), then the
    smallest norm, then come first in enumeration order (_zero_weights).
    """
    rows = (q[list(basis)] - r).tolist()
    scale = max(_norm(x) for x in rows)
    if scale == 0.0:
        return (1.0,) + (0.0,) * (len(basis) - 1)
    rows = [tuple(x / scale for x in row) for row in rows]
    for size in range(1, min(len(rows), 4) + 1):
        found = []
        for subset in combinations(range(len(rows)), size):
            w = _zero_weights([rows[i] for i in subset])
            if w is not None:
                found.append((_sum(x * x for x in w), subset, w))
        if found:
            _, subset, w = min(found, key=lambda item: item[:2])
            mu = [0.0] * len(rows)
            for i, wi in zip(subset, w):
                mu[i] = wi
            return tuple(mu)
    return None


def _distances(r: np.ndarray, q: np.ndarray) -> np.ndarray:
    """|r - q_i| for every row: np.linalg.norm's sum and root, without its call overhead."""
    d = r - q
    return np.sqrt((d * d).sum(axis=1))


def reference_minimax(ensemble) -> MinimaxSolution:
    """minimax_common_point computed by the frozen kernels above."""
    pr = ensemble.priors
    q = ensemble.weighted_points
    window = _PIVOT_WINDOW

    k = int(np.argmax(pr))
    basis, r, value = (k,), q[k], float(pr[k])
    mu = None
    for iterations in range(1, _PIVOTS_PER_STATE * ensemble.n + 1):
        f_vals = pr + _distances(r, q)
        j = int(np.argmax(f_vals))
        if f_vals[j] <= value + window:
            mu = _hull_weights(q, r, basis)
            break
        basis, r, value = _pivot(pr, q, basis, j, window)
    else:
        f_vals = pr + _distances(r, q)

    return MinimaxSolution(
        p_star=float(f_vals.max()),
        r_star=tuple(r.tolist()),
        iterations=iterations,
        converged=mu is not None,
        basis=tuple(int(i) for i in basis),
        basis_weights=mu or (),
    )
