"""Independent minimax solver used to validate every closed form.

Eliminating the conjugates from the family equations leaves a plain convex
geometry problem: with weighted points q_i = p_i b_i, the optimal ratio is

    p* = min over r in R^3 of f(r),   f(r) = max_i (p_i + |r - q_i|),

the radius of the smallest ball enclosing the balls B(q_i, p_i). That is an
LP-type problem of combinatorial dimension at most 4: the minimizer is
unique, and it is already the minimizer over a support of at most 4
indices, at which 0 lies in the convex hull of the unit directions
(r - q_i)/|r - q_i|, or equivalently r lies in the convex hull of the q_i
(a point coinciding with some q_i certifies by itself, since the
subdifferential there contains the whole unit ball).

The solver pivots over bases, starting from {argmax p_i}, whose optimum
r = q_i is already the answer in the guess regime. While some index j has
p_j + |r - q_j| above the basis value, j joins the basis, which is solved
again exactly over the equal-slack points of the subsets containing j; the
members active at the best one form the next basis. The basis value rises
strictly, so the loop ends (it is capped at a fixed multiple of n all the
same). The exit test is global feasibility plus hull stationarity on the
final basis alone: f(r) is an upper bound at any r and the basis value a
lower bound. No step depends on any closed-form solver, which is what keeps
the arbitration honest.

Every system a pivot or the hull test meets has at most 4 rows in R^3, so
both are solved in closed form on Python floats, as in combinatorial
smallest-ball pivoting (Gaertner, ESA 1999; Fischer and Gaertner, IJCGA
2004). The equal-slack points of 3 or 4 indices take a 3x3 inverse from
cross products over the determinant, or the minimum-norm solution through
the 2x2 Gram matrix; the hull weights are a zero row, an antiparallel
pair, barycentric coordinates from cross products or signed volumes. A
subset singular to rounding (_RANK_TOL) is skipped, since smaller subsets
cover its optima. Only the rows a pivot touches are converted to floats;
the pass over all n points stays one numpy pass, and nothing calls
np.linalg.

The measurement comes from that same basis. At equal slack
q_i - r = -(p - p_i) c_i, so the hull weights mu_i of the exit test, scaled
by |r - q_i|, are the weights of the pure-conjugate POVM: recover_povm
solves no second weight system, and a size-1 basis (the guess regime)
yields the identity on its state. Its at most 4 support rows are worked on
Python floats, rounded as the numpy reductions they replace round, and the
n-length conjugate, weight and direction arrays are built once.
recover_povm and solve_oracle share one result, whose certificate comes
from the gate, family.assemble_result.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .bloch import BlochVector, DiscriminationResult, WeightedEnsemble, read_only
from .errors import ConvergenceError
from .family import assemble_result, povm_from_weights

__all__ = [
    "MinimaxSolution",
    "minimax_objective",
    "pair_lower_bound",
    "minimax_common_point",
    "recover_povm",
    "solve_oracle",
    "classical_diagonal_oracle",
    "random_povm_sample",
    "check_tol",
    "ACTIVATION_TOL",
    "DEFAULT_TOL",
]

ACTIVATION_TOL = 1e-7     # relative width of the reported active set
DEFAULT_TOL = 1e-10       # default convergence tolerance of the pivot loop

# Equal-slack geometry.
_SEPARATION_TOL = 1e-15   # points, slacks and gaps below this count as zero
_CONSISTENCY_TOL = 1e-9   # residual of the affine system for r on a support
_QUADRATIC_TOL = 1e-14    # |coefficient| below this makes the quadratic in p degenerate
_ROOT_TOL = 1e-12         # the discriminant, and p - max prior, may dip below zero by this
# A 2- or 3-row system, triangle or tetrahedron whose determinant is below
# this times the product of its row (edge) lengths is singular to rounding;
# it stands in for lstsq's rcond = eps * max(M, N) on these 3-column systems.
_RANK_TOL = 3.0 * sys.float_info.epsilon

# Hull test. weights.py and closed_form.py hold constants of the same names
# and values; the oracle keeps its own copies of _FEAS_TOL, _NEG_TOL and
# _AXIS_TOL on purpose, so that it shares nothing with the routes it checks.
_FEAS_TOL = 1e-10         # residual |sum_i mu_i (q_i - r)| / max_i |q_i - r|
_NEG_TOL = 1e-12          # hull weights may dip below zero by at most this

# Pivoting.
_WINDOW_FLOOR = 1e-12     # a pivot needs a violation of the basis value above max(tol, this)
_PIVOTS_PER_STATE = 4     # pivot cap as a multiple of n

# POVM recovery and the samplers.
_AXIS_TOL = 1e-12         # off-axis Bloch components that still count as diagonal
_NORM_FLOOR = 1e-12       # sampled directions shorter than this stay unnormalized
_SHRINK_MARGIN = 1e-12    # sampled elements stay this far inside the PSD cone


@dataclass(frozen=True)
class MinimaxSolution:
    p_star: float
    r_star: BlochVector
    active_set: tuple
    iterations: int
    converged: bool
    basis: tuple = ()
    basis_weights: tuple = ()


def minimax_objective(ensemble: WeightedEnsemble, r) -> float:
    """f(r) = max_i (p_i + |r - p_i b_i|)."""
    r_arr = r.as_array() if isinstance(r, BlochVector) else np.asarray(r, dtype=float).reshape(3)
    return float((ensemble.priors + np.linalg.norm(r_arr - ensemble.weighted_points, axis=1)).max())


def pair_lower_bound(ensemble: WeightedEnsemble) -> float:
    """max over singletons and pairs of the triangle-inequality bound on p*.

    One vectorized pass per row of the pair table, so memory stays O(n).
    """
    pr = ensemble.priors
    q = ensemble.weighted_points
    best = float(pr.max())
    for i in range(len(pr) - 1):
        d = np.linalg.norm(q[i + 1:] - q[i], axis=1)
        best = max(best, float((0.5 * (pr[i] + pr[i + 1:] + d)).max()))
    return best


def _sub(a, b) -> tuple:
    return (a[0] - b[0], a[1] - b[1], a[2] - b[2])


def _dot(a, b) -> float:
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def _cross(a, b) -> tuple:
    return (a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2], a[0] * b[1] - a[1] * b[0])


def _norm(a) -> float:
    return math.sqrt(_dot(a, a))


def _sum(values) -> float:
    """values added left to right from 0.0, as numpy's reductions over a few terms add them.

    The builtin sum compensates its rounding from Python 3.12 on.
    """
    total = 0.0
    for x in values:
        total += x
    return total


def _solve_rows(e: list, h: list):
    """(u0, u1) solving e_m . u_c = h_m[c] for 2 or 3 rows e_m, or None if singular.

    Three rows: the inverse from cross products over the determinant. Two
    rows: the minimum-norm solution u = e^T (e e^T)^-1 h through the Gram
    matrix, whose determinant is |e_0 x e_1|^2. A system singular to
    rounding relative to its row lengths is rejected (_RANK_TOL).
    """
    if len(e) == 3:
        e0, e1, e2 = e
        cols = (_cross(e1, e2), _cross(e2, e0), _cross(e0, e1))
        det = _dot(e0, cols[0])
        if not abs(det) > _RANK_TOL * _norm(e0) * _norm(e1) * _norm(e2):
            return None
        return tuple(
            tuple(sum(hm[c] * col[k] for hm, col in zip(h, cols)) / det for k in range(3))
            for c in (0, 1)
        )
    e0, e1 = e
    g00, g01, g11 = _dot(e0, e0), _dot(e0, e1), _dot(e1, e1)
    normal = _cross(e0, e1)
    det = _dot(normal, normal)
    if not math.sqrt(det) > _RANK_TOL * math.sqrt(g00) * math.sqrt(g11):
        return None
    out = []
    for c in (0, 1):
        a0 = (g11 * h[0][c] - g01 * h[1][c]) / det
        a1 = (g00 * h[1][c] - g01 * h[0][c]) / det
        out.append(tuple(a0 * x + a1 * y for x, y in zip(e0, e1)))
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
        if math.sqrt(sum(x * x for x in misfit)) > _CONSISTENCY_TOL:
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
    if _norm(tuple(sum(wi * x[k] for wi, x in zip(w, d)) for k in range(3))) > _FEAS_TOL:
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
                found.append((sum(x * x for x in w), subset, w))
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


def check_tol(tol: float) -> None:
    """Raise ValueError unless tol, a convergence tolerance, is positive and finite."""
    if not (math.isfinite(tol) and tol > 0.0):
        raise ValueError("tol must be positive and finite")


def minimax_common_point(ensemble: WeightedEnsemble, tol: float = DEFAULT_TOL) -> MinimaxSolution:
    """Minimize f over R^3; certified global within tol when converged=True.

    Pivots over bases (module docstring). iterations counts the passes over
    all n points, one per basis; a pass that finds no violation beyond
    max(tol, _WINDOW_FLOOR) ends the loop, and the hull test on that basis
    decides convergence. The final basis and its hull weights are returned
    for recover_povm. Reaching the cap of a fixed multiple of n passes
    returns converged=False. Deterministic: ties break by index. tol must
    be positive and finite (ValueError otherwise).
    """
    check_tol(tol)
    pr = ensemble.priors
    q = ensemble.weighted_points
    window = max(tol, _WINDOW_FLOOR)

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

    p_hat = float(f_vals.max())
    active = tuple(int(i) for i in np.flatnonzero(f_vals >= p_hat * (1.0 - ACTIVATION_TOL)))
    return MinimaxSolution(
        p_star=p_hat,
        r_star=BlochVector.from_array(r),
        active_set=active,
        iterations=iterations,
        converged=mu is not None,
        basis=tuple(int(i) for i in basis),
        basis_weights=mu or (),
    )


def recover_povm(ensemble: WeightedEnsemble, solution: MinimaxSolution) -> tuple:
    """(Povm, HelstromCertificate) of the gated result read off the final basis.

    Conjugates are c_i = (r - q_i)/(p - p_i), zero where that gap vanishes.
    At equal slack q_i - r = -(p - p_i) c_i, so the hull weights mu of the
    basis already solve the completeness system: member i gets weight
    w_i ~ mu_i |r - q_i| along the unit direction (r - q_i)/|r - q_i|, and
    a basis point at r (the guess regime, a size-1 basis) gets the
    identity. The member with the smallest gap p - p_i is nearly free in
    the family equation, while its direction carries the most rounding
    error; it takes the direction (reported as its conjugate) and weight
    that close sum w_i c_i = 0 exactly, and the weights are then scaled to
    sum to 2. The pair is solve_oracle's, certified by the gate: a solution
    it rejects (say, a p_star that is not the minimax value) raises
    CertificateError, and one without a converged basis ConvergenceError.
    """
    result = _basis_measurement(ensemble, solution)
    return result.povm, result.certificate


def _basis_measurement(
    ensemble: WeightedEnsemble, solution: MinimaxSolution
) -> DiscriminationResult:
    """The gated oracle result that recover_povm derives from the final basis.

    The at most 4 support rows are worked on Python floats in numpy's
    rounding: norms and sums add left to right from 0.0, as numpy's
    reductions over 3 or 4 terms do, and the closing weight is the norm of
    np.dot, as np.linalg.norm takes it. The n-length arrays are built once.
    """
    if not solution.converged or not solution.basis_weights:
        raise ConvergenceError("cannot recover a POVM without a converged basis")
    pr = ensemble.priors
    q = ensemble.weighted_points
    n = ensemble.n
    p = float(solution.p_star)
    r = solution.r_star.as_array()

    gap = p - pr
    free = gap > _SEPARATION_TOL
    c = np.divide(r - q, gap[:, None], out=np.zeros((n, 3)), where=free[:, None])

    support, mu = zip(*((i, m) for i, m in zip(solution.basis, solution.basis_weights) if m > 0.0))
    support = list(support)
    gaps = [p - x for x in pr[support].tolist()]
    k = gaps.index(min(gaps))
    if len(support) == 1:  # r is that basis point: guess its state
        weights, dirs = [2.0], [(0.0, 0.0, 0.0)]
    else:
        r_f = r.tolist()
        offsets = [_sub(r_f, x) for x in q[support].tolist()]
        dist = [math.sqrt(_dot(x, x)) for x in offsets]
        dirs = [tuple(y / d for y in x) for x, d in zip(offsets, dist)]
        weights = [m * d for m, d in zip(mu, dist)]
        others = [(w_i, d_i) for i, (w_i, d_i) in enumerate(zip(weights, dirs)) if i != k]
        closing = [-_sum(w_i * d_i[j] for w_i, d_i in others) for j in range(3)]
        weights[k] = math.sqrt(np.dot(closing, closing))
        dirs[k] = tuple(y / weights[k] for y in closing)
        scale = 2.0 / _sum(weights)
        weights = [w_i * scale for w_i in weights]
    c[support[k]] = dirs[k]
    w = np.zeros(n)
    w[support] = weights
    elements = np.zeros((n, 3))
    elements[support] = dirs
    povm = povm_from_weights(w, read_only(elements))
    return assemble_result(ensemble, p, r, read_only(c), povm, "oracle")


def solve_oracle(ensemble: WeightedEnsemble, tol: float = DEFAULT_TOL) -> DiscriminationResult:
    """Full oracle pipeline returning a graded DiscriminationResult.

    The measurement and the certificate are recover_povm's; the certificate
    is built once, by the gate.
    """
    solution = minimax_common_point(ensemble, tol=tol)
    if not solution.converged:
        raise ConvergenceError(
            f"minimax did not certify an optimum within {solution.iterations} iterations"
        )
    return _basis_measurement(ensemble, solution)


def classical_diagonal_oracle(ensemble: WeightedEnsemble) -> float:
    """Exact optimum for z-axis states: best up-guess plus best down-guess.

    A measurement diagonal in the z basis is the best possible for diagonal
    states, and then the problem is classical: assign outcome "up" to the
    state maximizing p_i (1 + z_i)/2 and "down" to the one maximizing
    p_j (1 - z_j)/2 (the same index may win both, which is the guess
    strategy).
    """
    b = ensemble.bloch_matrix
    if np.abs(b[:, :2]).max() > _AXIS_TOL:
        raise ValueError("classical_diagonal_oracle needs all states on the z axis")
    pr = ensemble.priors
    up = pr * (1.0 + b[:, 2]) / 2.0
    down = pr * (1.0 - b[:, 2]) / 2.0
    return float(up.max() + down.max())


def random_povm_sample(ensemble: WeightedEnsemble, count: int, seed: int = 0) -> float:
    """Best success probability among `count` seeded random complete POVMs.

    Construction is rejection-free: trace parts from a normalized gamma
    sample, vector parts drawn inside each element's PSD cone, re-centered
    to completeness (which preserves the zero sum), then shrunk per sample
    by the single factor restoring every |v_i| <= a_i. Deterministic for a
    fixed seed.
    """
    if count < 1:
        raise ValueError("count must be at least 1")
    rng = np.random.default_rng(seed)
    n = ensemble.n
    a = rng.gamma(2.0, size=(count, n))
    a /= a.sum(axis=1, keepdims=True)
    dirs = rng.standard_normal((count, n, 3))
    dn = np.linalg.norm(dirs, axis=2, keepdims=True)
    dirs /= np.where(dn > _NORM_FLOOR, dn, 1.0)
    v = a[:, :, None] * rng.uniform(size=(count, n, 1)) * dirs
    v -= a[:, :, None] * v.sum(axis=1, keepdims=True)
    vn = np.linalg.norm(v, axis=2)
    with np.errstate(divide="ignore"):
        ratio = np.where(vn > 0.0, a / np.where(vn > 0.0, vn, 1.0), np.inf)
    shrink = np.minimum(1.0, ratio.min(axis=1)) * (1.0 - _SHRINK_MARGIN)
    v *= shrink[:, None, None]
    pr = ensemble.priors
    b = ensemble.bloch_matrix
    success = a @ pr + np.einsum("snj,nj->s", v, pr[:, None] * b)
    return float(success.max())
