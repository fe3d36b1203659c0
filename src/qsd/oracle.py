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
p_j + |r - q_j| above the basis value by more than the fixed pivot window
PIVOT_WINDOW, j joins the basis, which is solved again exactly over the
equal-slack points of the subsets containing j; the best one's subset is
the basis optimum's support, and it and the members within that window
form the next basis. The basis value rises strictly, so the loop ends (it
is capped at a fixed multiple of n all the same). The exit test is global
feasibility plus hull stationarity on the last support, one weight solve:
f(r) is an upper bound at any r and the basis value a lower bound. No step
depends on any closed-form solver, which keeps the arbitration honest.

Every system a pivot or the hull test meets has at most 4 rows in R^3, so
both are solved in closed form on Python floats, as in combinatorial
smallest-ball pivoting (Gaertner, ESA 1999; Fischer and Gaertner, IJCGA
2004). The equal-slack points of 3 or 4 indices take a 3x3 inverse from
cross products over the determinant, or the minimum-norm solution
(h_a b - h_b a) x n / |n|^2 with n = a x b, which has no Gram matrix to
square the condition number of nearly parallel rows; the hull weights are
a zero row, an antiparallel pair, barycentric coordinates from cross
products or signed volumes; a subset singular to rounding (RANK_TOL) is
skipped by a pivot and refused by the exit. Nothing calls np.linalg.
The solver reads the record's held form (ensemble.held). On the floats a
small record kept, where numpy's per-call overhead costs more than the
arithmetic, the pass over all n points runs on them as well, repeating
numpy's operations row by row (_farthest); on arrays the pass is one numpy
pass, and a pivot converts only the rows it touches (_members). A pivot
computes the terms of each member pair (q_b - q_a and its norm, the row
2(q_b - q_a), its norm and its right-hand side) once, in a table that all
its subsets share, and stops scoring a candidate point once its running
max over the members reaches the best value so far, since under the
strict < tie-break it cannot win then. Neither changes a bit of any result against
solving every subset from scratch and scoring every point in full: the
kernels keep each float operation and its order, a max does not depend on
the order of its terms, and every sum, of at most 4 terms, runs left to
right from 0.0 (written 0.0 + ... or bloch.pairwise_sum), as numpy's
reductions of fewer than 8 terms and the builtin sum before Python 3.12
add, so not even the sign of a zero changes. (From 8 terms numpy sums
pairwise: bloch's rounding contract.) tests/helpers.py
keeps those unshared kernels as the reference.

The measurement comes from that same basis. At equal slack
q_i - r = -(p - p_i) c_i, so the hull weights mu_i of the exit test, scaled
by |r - q_i|, are the weights of the pure-conjugate POVM: recover_povm
solves no second weight system, and a size-1 basis (the guess regime)
yields the identity on its state. Its at most 4 support rows are worked on
Python floats, rounded as the numpy reductions they replace round, and the
n-length conjugate, weight and element rows are built once, in the held
form: as lists of floats, which the gate takes as they are, with no array
in between, or as arrays. The closing weight is bloch.fused_norm2's root,
np.linalg.norm's rounding, so an oracle solve on kept floats loads no
numpy. The POVM's directions are the support's rows,
zero elsewhere, not the conjugates.
recover_povm and solve_oracle share one result, whose certificate comes
from the gate, family.assemble_result.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from itertools import combinations

from .bloch import (
    AXIS_TOL,
    CONSISTENCY_TOL,
    FEAS_TOL,
    FLOAT_FORMS,
    NEG_WEIGHT_TOL,
    NORM_FLOOR,
    PIVOT_WINDOW,
    QUADRATIC_TOL,
    RANK_TOL,
    RATIO_SLACK,
    ROOT_TOL,
    SHRINK_MARGIN,
    ZERO_TOL,
    DiscriminationResult,
    LazyNumpy,
    WeightedEnsemble,
    fused_norm2,
    pairwise_sum,
)
from .errors import ConvergenceError
from .family import assemble_result, conjugates_at

np = LazyNumpy(globals())

__all__ = [
    "MinimaxSolution",
    "minimax_objective",
    "minimax_common_point",
    "recover_povm",
    "solve_oracle",
    "classical_diagonal_oracle",
    "random_povm_sample",
    "PIVOT_WINDOW",
]

_PIVOTS_PER_STATE = 4  # pivot cap as a multiple of n


@dataclass(frozen=True)
class MinimaxSolution:
    """minimax_common_point's answer: f(r_star) = p_star, with r_star three Python floats."""

    p_star: float
    r_star: tuple
    iterations: int
    converged: bool
    basis: tuple = ()
    basis_weights: tuple = ()


def minimax_objective(ensemble: WeightedEnsemble, r) -> float:
    """f(r) = max_i (p_i + |r - p_i b_i|) for a 3-sequence r."""
    r = np.asarray(r, dtype=float).reshape(3)
    return float((ensemble.priors + np.linalg.norm(r - ensemble.weighted_points, axis=1)).max())


def _pair_table(pr: list, q: list) -> tuple:
    """(segments, rows): the terms that the subsets of a pivot share, per member pair a < b.

    With e = q_b - q_a, segments[a, b] is (e, |e|), for the size-2 subset;
    rows[a, b] is the system row 2e with its norm, and
    h = (|e|^2 - (p_b - p_a)(p_b + p_a), 2 (p_b - p_a)), for the larger
    subsets that start at a.
    """
    segments, rows = {}, {}
    for b in range(1, len(pr)):
        pb = pr[b]
        xb, yb, zb = q[b]
        for a in range(b):
            pa = pr[a]
            xa, ya, za = q[a]
            e0, e1, e2 = xb - xa, yb - ya, zb - za
            ee = e0 * e0 + e1 * e1 + e2 * e2
            r0, r1, r2 = 2.0 * e0, 2.0 * e1, 2.0 * e2
            segments[a, b] = (e0, e1, e2, math.sqrt(ee))
            h0, h1 = ee - (pb - pa) * (pb + pa), 2.0 * (pb - pa)
            rows[a, b] = (r0, r1, r2, math.sqrt(r0 * r0 + r1 * r1 + r2 * r2), h0, h1)
    return segments, rows


def _solve_rows(ra: tuple, rb: tuple, rc: tuple | None = None):
    """[u0, u1] solving e_m . u_c = h_m[c] over 2 or 3 rows of _pair_table, or None.

    Three rows: the inverse from cross products over the determinant. Two
    rows a, b: the minimum-norm solution u = (h_a b - h_b a) x n / |n|^2
    with n = a x b, which needs no Gram matrix and so does not square the
    condition number of nearly parallel rows. A system singular to
    rounding relative to its row lengths (RANK_TOL), or one that the
    solution misses by more than CONSISTENCY_TOL, gives None.
    """
    a0, a1, a2, na, ha0, ha1 = ra
    b0, b1, b2, nb, hb0, hb1 = rb
    solved = []
    if rc is None:
        n0, n1, n2 = a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0
        det = n0 * n0 + n1 * n1 + n2 * n2
        if not math.sqrt(det) > RANK_TOL * na * nb:
            return None
        for ha, hb in ((ha0, hb0), (ha1, hb1)):
            w0, w1, w2 = ha * b0 - hb * a0, ha * b1 - hb * a1, ha * b2 - hb * a2
            u0 = (w1 * n2 - w2 * n1) / det
            u1 = (w2 * n0 - w0 * n2) / det
            u2 = (w0 * n1 - w1 * n0) / det
            ma, mb = a0 * u0 + a1 * u1 + a2 * u2 - ha, b0 * u0 + b1 * u1 + b2 * u2 - hb
            if math.sqrt(0.0 + ma * ma + mb * mb) > CONSISTENCY_TOL:
                return None
            solved.append((u0, u1, u2))
        return solved
    c0, c1, c2, nc, hc0, hc1 = rc
    x0, x1, x2 = b1 * c2 - b2 * c1, b2 * c0 - b0 * c2, b0 * c1 - b1 * c0
    y0, y1, y2 = c1 * a2 - c2 * a1, c2 * a0 - c0 * a2, c0 * a1 - c1 * a0
    z0, z1, z2 = a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0
    det = a0 * x0 + a1 * x1 + a2 * x2
    if not abs(det) > RANK_TOL * na * nb * nc:
        return None
    for ha, hb, hc in ((ha0, hb0, hc0), (ha1, hb1, hc1)):
        u0 = (0.0 + ha * x0 + hb * y0 + hc * z0) / det
        u1 = (0.0 + ha * x1 + hb * y1 + hc * z1) / det
        u2 = (0.0 + ha * x2 + hb * y2 + hc * z2) / det
        ma = a0 * u0 + a1 * u1 + a2 * u2 - ha
        mb = b0 * u0 + b1 * u1 + b2 * u2 - hb
        mc = c0 * u0 + c1 * u1 + c2 * u2 - hc
        if math.sqrt(0.0 + ma * ma + mb * mb + mc * mc) > CONSISTENCY_TOL:
            return None
        solved.append((u0, u1, u2))
    return solved


def _support_points(pr: list, q: list, subset: tuple, segments: dict, rows: dict) -> list:
    """Equal-slack points for a support subset: all r with p_i + |r - q_i| equal on it.

    pr and q are Python floats (q as 3-sequences), and segments and rows
    the pair terms of _pair_table. Size 1 is the point itself; size 2 the
    balanced point on the segment; sizes 3 and 4 reduce to a linear system
    for r as an affine function of p, solved in closed form (_solve_rows),
    plus one quadratic. Inconsistent or rank-deficient systems return
    nothing (their optima are covered by smaller subsets).
    """
    if len(subset) == 1:
        return [tuple(q[subset[0]])]
    if len(subset) == 2:
        i, j = subset
        e0, e1, e2, dn = segments[i, j]
        if dn <= ZERO_TOL:
            return []
        pi, pj = pr[i], pr[j]
        p = 0.5 * (pi + pj + dn)
        if p < pi - ZERO_TOL or p < pj - ZERO_TOL:
            return []
        t = (p - pi) / dn
        x, y, z = q[i]
        return [(x + t * e0, y + t * e1, z + t * e2)]

    i = subset[0]
    p0 = pr[i]
    if len(subset) == 3:
        solved = _solve_rows(rows[i, subset[1]], rows[i, subset[2]])
        top = max(p0, pr[subset[1]], pr[subset[2]])
    else:
        solved = _solve_rows(rows[i, subset[1]], rows[i, subset[2]], rows[i, subset[3]])
        top = max(p0, pr[subset[1]], pr[subset[2]], pr[subset[3]])
    if solved is None:
        return []
    (u0, u1, u2), (v0, v1, v2) = solved
    # |rt(p)|^2 = (p - p_0)^2 with rt(p) = u + v p
    alpha = v0 * v0 + v1 * v1 + v2 * v2 - 1.0
    beta = 2.0 * (u0 * v0 + u1 * v1 + u2 * v2) + 2.0 * p0
    gamma = u0 * u0 + u1 * u1 + u2 * u2 - p0 * p0
    if abs(alpha) <= QUADRATIC_TOL:
        roots = (-gamma / beta,) if abs(beta) > QUADRATIC_TOL else ()
    else:
        disc = beta * beta - 4.0 * alpha * gamma
        if not disc >= -ROOT_TOL:
            return []
        sq = math.sqrt(max(disc, 0.0))
        roots = ((-beta + sq) / (2.0 * alpha), (-beta - sq) / (2.0 * alpha))
    x, y, z = q[i]
    floor = top - RATIO_SLACK
    return [
        (x + u0 + v0 * p, y + u1 + v1 * p, z + u2 + v2 * p)
        for p in roots
        if math.isfinite(p) and p >= floor
    ]


@functools.cache
def _pivot_subsets(new: int) -> tuple:
    """Subsets of range(new + 1) that hold new and at most 3 other indices, in pivot order."""
    return tuple(
        rest + (new,) for size in range(min(new, 3) + 1) for rest in combinations(range(new), size)
    )


def _members(values, indices) -> list:
    """The rows of values at indices as Python floats, gathered once.

    values is the ensemble's held form (ensemble.held), its kept floats or
    its array: the one place the pivots and the hull test tell the two
    apart.
    """
    if type(values) in FLOAT_FORMS:
        return [values[i] for i in indices]
    return values[list(indices)].tolist()


def _pivot(pr, q, basis: tuple, j: int) -> tuple:
    """(basis, r, value, support): the optimum of f over basis + (j,), j violating the old one.

    j is in the new optimum's support, so only the equal-slack points of
    subsets holding j and at most 3 basis indices are solved, over one
    table of pair terms (_pair_table); the one with the smallest f over the
    members is that optimum (the first one on ties), its subset the
    support. Scoring a point stops once its running max over the members
    reaches the best value so far, since it cannot win then. The support
    and the members within PIVOT_WINDOW of the value form the next basis,
    in member order; support is its positions there. Only the members'
    rows are read, and all the algebra is on Python floats.
    """
    members = basis + (j,)
    p_m = _members(pr, members)
    q_m = _members(q, members)
    segments, rows = _pair_table(p_m, q_m)
    terms = list(zip(p_m, q_m))
    best_r, best, winner = None, math.inf, ()
    for subset in _pivot_subsets(len(basis)):
        for r in _support_points(p_m, q_m, subset, segments, rows):
            x, y, z = r
            value = -math.inf
            for p, (qx, qy, qz) in terms:
                dx, dy, dz = x - qx, y - qy, z - qz
                f = p + math.sqrt(dx * dx + dy * dy + dz * dz)
                if not f <= value:  # f > value, or a NaN that keeps r out, as in max()
                    value = f
                    if value >= best:
                        break
            else:
                if value < best:
                    best_r, best, winner = r, value, subset
    x, y, z = best_r
    floor = best - PIVOT_WINDOW
    kept = [
        i
        for i, (p, (a, b, c)) in enumerate(terms)
        if i in winner
        or p + math.sqrt((x - a) * (x - a) + (y - b) * (y - b) + (z - c) * (z - c)) >= floor
    ]
    support = tuple(k for k, i in enumerate(kept) if i in winner)
    return tuple(members[i] for i in kept), best_r, best, support


def _zero_weights(d: list):
    """Weights w summing to 1 with sum_i w_i d_i = 0 over 2 to 4 rows in R^3, or None.

    Two rows: the point of their line nearest 0, which is 0 for an
    antiparallel pair. Three: barycentric coordinates of the projection of
    0 on their plane, from cross products. Four: signed volumes. A triangle
    or tetrahedron that is flat to rounding is refused, and so are weights
    below -NEG_WEIGHT_TOL or a residual above FEAS_TOL.
    """
    (a0, a1, a2), (b0, b1, b2) = d[0], d[1]
    if len(d) == 2:
        s0, s1, s2 = a0 - b0, a1 - b1, a2 - b2
        den = s0 * s0 + s1 * s1 + s2 * s2
        if den == 0.0:
            return None
        t = -(b0 * s0 + b1 * s1 + b2 * s2) / den
        w = (t, 1.0 - t)
    elif len(d) == 3:
        c0, c1, c2 = d[2]
        s0, s1, s2 = b0 - a0, b1 - a1, b2 - a2
        t0, t1, t2 = c0 - a0, c1 - a1, c2 - a2
        n0, n1, n2 = s1 * t2 - s2 * t1, s2 * t0 - s0 * t2, s0 * t1 - s1 * t0
        den = n0 * n0 + n1 * n1 + n2 * n2
        ns, nt = math.sqrt(s0 * s0 + s1 * s1 + s2 * s2), math.sqrt(t0 * t0 + t1 * t1 + t2 * t2)
        if not math.sqrt(den) > RANK_TOL * ns * nt:
            return None
        w = (
            (n0 * (b1 * c2 - b2 * c1) + n1 * (b2 * c0 - b0 * c2) + n2 * (b0 * c1 - b1 * c0)) / den,
            (n0 * (c1 * a2 - c2 * a1) + n1 * (c2 * a0 - c0 * a2) + n2 * (c0 * a1 - c1 * a0)) / den,
            (n0 * (a1 * b2 - a2 * b1) + n1 * (a2 * b0 - a0 * b2) + n2 * (a0 * b1 - a1 * b0)) / den,
        )
    else:
        (c0, c1, c2), (e0, e1, e2) = d[2], d[3]
        s0, s1, s2 = b0 - a0, b1 - a1, b2 - a2
        t0, t1, t2 = c0 - a0, c1 - a1, c2 - a2
        u0, u1, u2 = e0 - a0, e1 - a1, e2 - a2
        vol = s0 * (t1 * u2 - t2 * u1) + s1 * (t2 * u0 - t0 * u2) + s2 * (t0 * u1 - t1 * u0)
        if not abs(vol) > (
            RANK_TOL
            * math.sqrt(s0 * s0 + s1 * s1 + s2 * s2)
            * math.sqrt(t0 * t0 + t1 * t1 + t2 * t2)
            * math.sqrt(u0 * u0 + u1 * u1 + u2 * u2)
        ):
            return None
        ce0, ce1, ce2 = c1 * e2 - c2 * e1, c2 * e0 - c0 * e2, c0 * e1 - c1 * e0
        w = (
            (b0 * ce0 + b1 * ce1 + b2 * ce2) / vol,
            -(a0 * ce0 + a1 * ce1 + a2 * ce2) / vol,
            (a0 * (b1 * e2 - b2 * e1) + a1 * (b2 * e0 - b0 * e2) + a2 * (b0 * e1 - b1 * e0)) / vol,
            -(a0 * (b1 * c2 - b2 * c1) + a1 * (b2 * c0 - b0 * c2) + a2 * (b0 * c1 - b1 * c0)) / vol,
        )
    if min(w) < -NEG_WEIGHT_TOL:
        return None
    x = y = z = 0.0
    for wi, (dx, dy, dz) in zip(w, d):
        x, y, z = x + wi * dx, y + wi * dy, z + wi * dz
    if math.sqrt(x * x + y * y + z * z) > FEAS_TOL:
        return None
    return tuple([max(wi, 0.0) for wi in w])


def _hull_weights(q, r, basis: tuple, support: tuple) -> tuple | None:
    """Convex weights mu with sum_i mu_i (q_i - r) = 0 over the basis, or None.

    With every basis point at equal slack, r in the convex hull of the basis
    points is 0 in the hull of the unit directions (r - q_i)/|r - q_i|
    (rescale each by |r - q_i|), so r minimizes f over the basis; a basis
    point at r certifies by itself, as a size-1 support, whose residual is
    its row's norm. Otherwise _zero_weights solves the rows at support, the
    positions in basis of the last pivot's support, on which an LP-type
    basis optimum is attained; no other subset is tried. Scaling the rows
    by the largest instead of their own length keeps a nearly coincident
    point from blowing up its direction's rounding error. q is as _pivot
    takes it, and r three floats.
    """
    rx, ry, rz = r
    rows = [(x - rx, y - ry, z - rz) for x, y, z in _members(q, basis)]
    scale = max([math.sqrt(x * x + y * y + z * z) for x, y, z in rows])
    if scale == 0.0:
        return (1.0,) + (0.0,) * (len(basis) - 1)
    rows = [(x / scale, y / scale, z / scale) for x, y, z in rows]
    mu = [0.0] * len(rows)
    for i, (x, y, z) in enumerate(rows):
        if not math.sqrt(x * x + y * y + z * z) > FEAS_TOL:
            mu[i] = 1.0
            return tuple(mu)
    # a size-1 support is a basis point at r, which the loop above took
    w = _zero_weights([rows[i] for i in support])
    if w is None:
        return None
    for i, wi in zip(support, w):
        mu[i] = wi
    return tuple(mu)


def _farthest(pr, q, r: tuple) -> tuple:
    """(j, f_j): the first index of the largest p_i + |r - q_i|, and that value.

    One numpy pass over arrays: the distance is np.linalg.norm's sum and
    root, without its call overhead, and np.argmax takes the first of tied
    maxima. Over the kept floats, the same operations row by row: the
    difference, the 3-term sum from the left, the root, and a strict >.
    """
    if type(q) not in FLOAT_FORMS:
        d = r - q
        f_vals = pr + np.sqrt((d * d).sum(axis=1))
        j = int(np.argmax(f_vals))
        return j, float(f_vals[j])
    x, y, z = r
    j, top = 0, -math.inf
    for i, (p, (qx, qy, qz)) in enumerate(zip(pr, q)):
        dx, dy, dz = x - qx, y - qy, z - qz
        f = p + math.sqrt(dx * dx + dy * dy + dz * dz)
        if f > top:
            j, top = i, f
    return j, top


def minimax_common_point(ensemble: WeightedEnsemble) -> MinimaxSolution:
    """Minimize f over R^3; certified global within PIVOT_WINDOW when converged=True.

    Pivots over bases (module docstring). iterations counts the passes over
    all n points, one per basis; a pass that finds no violation beyond
    PIVOT_WINDOW ends the loop, and the hull test on the last pivot's
    support (the first basis is its own) decides convergence. p_star is the
    largest value of the last pass. The final basis and its hull weights
    are returned for recover_povm. Reaching the cap of a fixed multiple of
    n passes returns converged=False. Deterministic: ties break by index.
    """
    pr, _, q = ensemble.held
    k = pr.index(ensemble.max_prior) if type(pr) in FLOAT_FORMS else int(np.argmax(pr))
    basis, r, value, support = (k,), tuple(_members(q, (k,))[0]), float(pr[k]), (0,)
    mu = None
    for iterations in range(1, _PIVOTS_PER_STATE * ensemble.n + 1):
        j, top = _farthest(pr, q, r)
        if top <= value + PIVOT_WINDOW:
            mu = _hull_weights(q, r, basis, support)
            break
        basis, r, value, support = _pivot(pr, q, basis, j)
    else:
        _, top = _farthest(pr, q, r)

    return MinimaxSolution(
        p_star=top,
        r_star=r,
        iterations=iterations,
        converged=mu is not None,
        basis=tuple(int(i) for i in basis),
        basis_weights=mu or (),
    )


def recover_povm(ensemble: WeightedEnsemble, solution: MinimaxSolution) -> tuple:
    """(Povm, HelstromCertificate) of the gated result read off the final basis.

    Conjugates are family.conjugates_at's, c_i = (r - q_i)/(p - p_i), zero
    where that gap vanishes.
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
    reductions over 3 or 4 terms do, and the closing weight is the root of
    bloch.fused_norm2, the fused squared norm that np.linalg.norm of a
    3-vector takes the root of. The n-length rows are built once, as lists
    on the kept floats and as arrays on arrays.
    """
    if not solution.converged or not solution.basis_weights:
        raise ConvergenceError("cannot recover a POVM without a converged basis")
    pr, _, q = ensemble.held
    n = ensemble.n
    p = float(solution.p_star)
    r = solution.r_star

    support, mu = zip(*((i, m) for i, m in zip(solution.basis, solution.basis_weights) if m > 0.0))
    support = list(support)
    gaps = [p - x for x in _members(pr, support)]
    k = gaps.index(min(gaps))
    if len(support) == 1:  # r is that basis point: guess its state
        weights, dirs = [2.0], [(0.0, 0.0, 0.0)]
    else:
        rx, ry, rz = r
        offsets = [(rx - x, ry - y, rz - z) for x, y, z in _members(q, support)]
        dist = [math.sqrt(a * a + b * b + c * c) for a, b, c in offsets]
        dirs = [tuple(y / d for y in x) for x, d in zip(offsets, dist)]
        weights = [m * d for m, d in zip(mu, dist)]
        others = [(w_i, d_i) for i, (w_i, d_i) in enumerate(zip(weights, dirs)) if i != k]
        closing = [-pairwise_sum([w_i * d_i[j] for w_i, d_i in others]) for j in range(3)]
        weights[k] = math.sqrt(fused_norm2(*closing))
        dirs[k] = tuple(y / weights[k] for y in closing)
        scale = 2.0 / pairwise_sum(weights)
        weights = [w_i * scale for w_i in weights]

    c = conjugates_at(ensemble, p, r)
    if type(q) not in FLOAT_FORMS:
        w = np.zeros(n)
        w[support] = weights
        elements = np.zeros((n, 3))
        elements[support] = dirs
    else:
        w, elements = [0.0] * n, [(0.0, 0.0, 0.0)] * n
        for i, w_i, d_i in zip(support, weights, dirs):
            w[i], elements[i] = w_i, d_i
    c[support[k]] = dirs[k]
    return assemble_result(ensemble, p, r, c, w, "oracle", directions=elements)


def solve_oracle(ensemble: WeightedEnsemble) -> DiscriminationResult:
    """Full oracle pipeline returning a graded DiscriminationResult.

    The measurement and the certificate are recover_povm's; the certificate
    is built once, by the gate.
    """
    solution = minimax_common_point(ensemble)
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
    if np.abs(b[:, :2]).max() > AXIS_TOL:
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
    dirs /= np.where(dn > NORM_FLOOR, dn, 1.0)
    v = a[:, :, None] * rng.uniform(size=(count, n, 1)) * dirs
    v -= a[:, :, None] * v.sum(axis=1, keepdims=True)
    vn = np.linalg.norm(v, axis=2)
    with np.errstate(divide="ignore"):
        ratio = np.where(vn > 0.0, a / np.where(vn > 0.0, vn, 1.0), np.inf)
    shrink = np.minimum(1.0, ratio.min(axis=1)) * (1.0 - SHRINK_MARGIN)
    v *= shrink[:, None, None]
    pr = ensemble.priors
    b = ensemble.bloch_matrix
    success = a @ pr + np.einsum("snj,nj->s", v, pr[:, None] * b)
    return float(success.max())
