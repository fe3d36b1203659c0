"""Closed-form solvers: two states, three states, diagonal, shell and cone, mirror.

Every solver here reduces its case to a ratio p, a common point r, and a
nonnegative weight system over pure conjugate directions, then hands the
pieces to family.assemble_result, which refuses anything that fails the
weak-duality certificate.

Equiprobable states at one distance rho from a centre in their hull have
p = (1 + rho)/N, each conjugate pointing away from its state's offset;
_equidistant solves that theorem. The shell's centre is the origin, and a
cone is solved as the shell about its axis point (0, 0, b cos(theta)).

The guess regime is handled explicitly everywhere: whenever the best
formula value does not exceed the largest prior, the optimum is to always
guess the most likely state, the certificate is degenerate (identity
measurement, all multipliers zero, no orthogonality witness), and the
formula value max_i p_i is returned. Three states test for it first: with
k the largest prior, guessing k is optimal exactly when
p_k - p_i >= |q_i - q_k| for both other states, and then the guess result
is returned, tagged three-state-boundary.

Otherwise the three-state case has several closed-form candidates (three
boundary pairs and two roots of an interior quadratic). Each is screened
on Python floats, and only the survivors reach the gate, as floats.
Selection is by the total order (validity, p, candidate index). The
minimax oracle is the last resort: if nothing validates, it solves the
instance and the result is tagged method="oracle".

The closed forms run on the record's held form (ensemble.held): on the
floats the record kept, repeating numpy's operations in numpy's rounding
and building none of the ensemble's arrays, or on its arrays. The diagonal
pick, the shell's common-norm and the cone's axis probes, and the
equidistant solver of both, whose weight sweep takes an array of the
conjugates, branch on that form; the two- and three-state solvers always
read the floats (ensemble.lists).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .bloch import (
    AXIS_TOL,
    BALL_SLACK,
    DENOMINATOR_FLOOR,
    DOT_SLACK,
    EQUIPROBABLE_TOL,
    GRAM_AGREEMENT_TOL,
    LEADING_TOL,
    NEG_WEIGHT_TOL,
    NORM_FLOOR,
    RATIO_SLACK,
    SPREAD_TOL,
    TIED_POINT_TOL,
    ZERO_TOL,
    DiscriminationResult,
    WeightedEnsemble,
    pairwise_sum,
)
from .errors import (
    CertificateError,
    DegenerateGeometryError,
    GramConsistencyError,
    WeightSystemInfeasible,
)
from .family import assemble_result, conjugates_at, guess_result
from .oracle import solve_oracle
from .weights import min_norm_nonneg_weights

__all__ = [
    "ThreeStateCoefficients",
    "MirrorRegime",
    "solve_two_state",
    "solve_three_state",
    "lambdas_three_state",
    "gram_identity_residual",
    "solve_symmetric_shell",
    "solve_diagonal",
    "cone_ensemble",
    "solve_cone",
    "mirror_ensemble",
    "mirror_threshold",
    "mirror_regime",
    "solve_mirror_symmetric",
    "solve_auto",
    "SOLVE_METHODS",
    "solve_with_method",
]


# ---------------------------------------------------------------------------
# two states


def solve_two_state(ensemble: WeightedEnsemble) -> DiscriminationResult:
    """p_opt = max(1/2 (1 + |q_2 - q_1|), max prior), q_i = p_i b_i.

    The balanced formula wins exactly when |q_2 - q_1| >= |p_2 - p_1|;
    below that the optimum is the guess strategy. Weighted points that
    coincide (within TIED_POINT_TOL) with tied priors (_equiprobable) get
    the canonical output: p = max prior, both elements I/2, an arbitrary
    antipodal conjugate pair along z.
    """
    if ensemble.n != 2:
        raise ValueError(f"solve_two_state needs exactly 2 states, got {ensemble.n}")
    pr, _, (q0, (x1, y1, z1)) = ensemble.lists
    x0, y0, z0 = q0
    d = (x1 - x0, y1 - y0, z1 - z0)
    # np.linalg.norm's root of np.dot, which no sum from the left matches
    dn = math.sqrt(np.dot(d, d))
    p = 0.5 * (1.0 + dn)

    if dn <= TIED_POINT_TOL and _equiprobable(ensemble):
        # both elements I/2: directions of -0.0 store the vector parts +0.0
        conj = ((0.0, 0.0, 1.0), (0.0, 0.0, -1.0))
        return assemble_result(ensemble, ensemble.max_prior, q0, conj, (1.0, 1.0), "two-state",
                               directions=((-0.0, -0.0, -0.0),) * 2)
    if dn <= TIED_POINT_TOL or p < ensemble.max_prior:
        return guess_result(ensemble, pr.index(ensemble.max_prior), "two-state")

    # c1 is the unit direction d/|d|: 2p - 1 is |d| too, but cancels near a tie
    c1 = (d[0] / dn, d[1] / dn, d[2] / dn)
    conj = (c1, (-c1[0], -c1[1], -c1[2]))
    g = p - pr[0]
    r = (x0 + g * c1[0], y0 + g * c1[1], z0 + g * c1[2])
    return assemble_result(ensemble, p, r, conj, (1.0, 1.0), "two-state")


# ---------------------------------------------------------------------------
# three states

# The pairs of a triple: pair (a, b) has squared gap gaps[a + b - 1] and
# third state 3 - a - b.
_PAIRS = ((0, 1), (0, 2), (1, 2))


def _three_state_floats(ensemble: WeightedEnsemble) -> tuple:
    """(priors, weighted points, squared gaps of _PAIRS) as Python floats.

    Each gap is numpy's dot product of the pair's difference with itself,
    the one np.linalg.norm takes the root of; the quadratic's roots are
    sensitive enough that a differently rounded sum of squares moves them.
    """
    pr, _, q = ensemble.lists
    (x0, y0, z0), (x1, y1, z1), (x2, y2, z2) = q
    # row (a, b) of _PAIRS is q_b - q_a
    d = np.array([(x1 - x0, y1 - y0, z1 - z0), (x2 - x0, y2 - y0, z2 - z0),
                  (x2 - x1, y2 - y1, z2 - z1)])
    gaps = np.matmul(d[:, None, :], d[:, :, None]).ravel().tolist()
    return pr, q, gaps


@dataclass(frozen=True)
class ThreeStateCoefficients:
    """Squared gaps between weighted Bloch points and the interior quadratic.

    The interior ratio is a root of quad_p2 * p^2 + quad_p1 * p + quad_p0 = 0,
    which encodes coplanarity of the three unit conjugates (the polynomial is
    the negated coplanarity defect, so its roots are unchanged).
    """

    dist12_sq: float
    dist13_sq: float
    dist23_sq: float
    quad_p2: float
    quad_p1: float
    quad_p0: float

    def __post_init__(self) -> None:
        for name in ("dist12_sq", "dist13_sq", "dist23_sq"):
            if getattr(self, name) < -ZERO_TOL:
                raise ValueError(f"{name} must be nonnegative")

    @classmethod
    def from_ensemble(cls, ensemble: WeightedEnsemble) -> "ThreeStateCoefficients":
        if ensemble.n != 3:
            raise ValueError("ThreeStateCoefficients needs exactly 3 states")
        pr, _, gaps = _three_state_floats(ensemble)
        return cls(*gaps, *_interior_quadratic(pr, gaps))

    def roots(self) -> tuple:
        """Real roots, the (-quad_p1 + sqrt(disc)) / (2 quad_p2) branch first."""
        return _quadratic_roots(self.quad_p2, self.quad_p1, self.quad_p0)


def _interior_quadratic(priors, gaps) -> tuple:
    """(quad_p2, quad_p1, quad_p0) of ThreeStateCoefficients from the priors and squared gaps."""
    p1, p2, p3 = priors
    i, j, k = gaps
    quad_p2 = (
        4.0 * (-p1 * p2 + p1 * p3 + p2 * p3 - p3 ** 2) * i
        + 4.0 * (p1 * p2 - p1 * p3 + p2 * p3 - p2 ** 2) * j
        + 4.0 * (p1 * p2 + p1 * p3 - p2 * p3 - p1 ** 2) * k
        + 2.0 * i * j + 2.0 * i * k + 2.0 * j * k
        - i ** 2 - j ** 2 - k ** 2
    )
    quad_p1 = (
        2.0 * (
            (p1 ** 2 * p2 + p1 * p2 ** 2 - p1 ** 2 * p3 - p1 * p3 ** 2
             - p2 ** 2 * p3 - p2 * p3 ** 2 + 2.0 * p3 ** 3)
            - p1 * k - p2 * j + p3 * i
        ) * i
        + 2.0 * (
            (-p1 ** 2 * p2 - p1 * p2 ** 2 + p1 ** 2 * p3 + p1 * p3 ** 2
             - p2 ** 2 * p3 - p2 * p3 ** 2 + 2.0 * p2 ** 3)
            - p1 * k + p2 * j - p3 * i
        ) * j
        + 2.0 * (
            (-p1 ** 2 * p2 - p1 * p2 ** 2 - p1 ** 2 * p3 - p1 * p3 ** 2
             + p2 ** 2 * p3 + p2 * p3 ** 2 + 2.0 * p1 ** 3)
            + p1 * k - p2 * j - p3 * i
        ) * k
    )
    quad_p0 = (
        (-p1 ** 2 * p2 ** 2 + p1 ** 2 * p3 ** 2 + p2 ** 2 * p3 ** 2 - p3 ** 4
         + p1 ** 2 * k + p2 ** 2 * j - p3 ** 2 * i) * i
        + (p1 ** 2 * p2 ** 2 - p1 ** 2 * p3 ** 2 + p2 ** 2 * p3 ** 2 - p2 ** 4
           + p1 ** 2 * k - p2 ** 2 * j + p3 ** 2 * i) * j
        + (p1 ** 2 * p2 ** 2 + p1 ** 2 * p3 ** 2 - p2 ** 2 * p3 ** 2 - p1 ** 4
           - p1 ** 2 * k + p2 ** 2 * j + p3 ** 2 * i) * k
        - i * j * k
    )
    return quad_p2, quad_p1, quad_p0


def _quadratic_roots(a: float, b: float, c: float) -> tuple:
    """Real roots of a p^2 + b p + c, the (-b + sqrt(disc)) / (2a) branch first."""
    scale = max(abs(a), abs(b), abs(c), 1.0)
    if abs(a) <= LEADING_TOL * scale:
        if abs(b) <= LEADING_TOL * scale:
            return ()
        return (-c / b,)
    disc = b * b - 4.0 * a * c
    if disc < 0.0:
        return ()
    sq = math.sqrt(disc)
    return ((-b + sq) / (2.0 * a), (-b - sq) / (2.0 * a))


def gram_identity_residual(dots) -> float:
    """Coplanarity defect of three unit vectors from their pairwise dots.

    d12^2 + d13^2 + d23^2 - 2 d12 d13 d23 - 1: zero exactly when the three
    unit vectors are coplanar (vanishing Gram determinant).
    """
    d12, d13, d23 = (float(x) for x in dots)
    for d in (d12, d13, d23):
        if abs(d) > 1.0 + DOT_SLACK:
            raise ValueError(f"dot product {d!r} outside [-1, 1]")
    return d12 ** 2 + d13 ** 2 + d23 ** 2 - 2.0 * d12 * d13 * d23 - 1.0


def lambdas_three_state(dots, scaled_priors) -> tuple:
    """Multipliers of the interior three-state solution from two routes.

    Both algebraic triples are evaluated; they agree exactly when the dots
    satisfy the coplanarity identity, so a disagreement beyond
    GRAM_AGREEMENT_TOL raises GramConsistencyError instead of returning
    one arbitrarily. Vanishing denominators (collinear conjugates) raise
    DegenerateGeometryError: that geometry belongs to the boundary
    candidates, not this formula.
    """
    d12, d13, d23 = (float(x) for x in dots)
    t1, t2, t3 = (float(x) for x in scaled_priors)
    den_a = 2.0 * (1.0 + d12 - d13 - d23)
    den_b = 1.0 - d12
    den_2 = 2.0 * (
        2.0 * d12 * d13 * d23 - d13 * d23 - d12 * d23
        - d12 ** 2 - d13 ** 2 + d12 + d13
    )
    if min(abs(den_a), abs(den_b), abs(den_2)) < DENOMINATOR_FLOOR:
        raise DegenerateGeometryError(
            f"degenerate multiplier denominators for dots ({d12}, {d13}, {d23})"
        )
    first = (
        (1.0 - t1) * (d12 * d23 - d13) / (den_a * den_b),
        (1.0 - t2) * (d12 * d13 - d23) / (den_a * den_b),
        (1.0 - t3) * (1.0 + d12) / den_a,
    )
    second = (
        (1.0 - t1) * (d23 ** 2 - 1.0) / den_2,
        (1.0 - t2) * (d12 - d13 * d23) / den_2,
        (1.0 - t3) * (d13 - d12 * d23) / den_2,
    )
    gap = max(abs(a - b) for a, b in zip(first, second))
    if gap > GRAM_AGREEMENT_TOL:
        raise GramConsistencyError(
            f"multiplier triples disagree by {gap!r}; dots are not coplanar"
        )
    return first


def _boundary_candidate(ensemble: WeightedEnsemble, pr: list, q: list, gaps: list, i: int, j: int):
    """Pair (i, j) pure and balanced, third conjugate mixed, third element zero."""
    k = 3 - i - j
    dn = math.sqrt(gaps[i + j - 1])
    if dn <= TIED_POINT_TOL:
        return None
    p = 0.5 * (pr[i] + pr[j] + dn)
    gk = p - pr[k]
    if p < max(pr) - ZERO_TOL or gk <= ZERO_TOL:
        return None
    span = 2.0 * p - pr[i] - pr[j]
    (xi, yi, zi), (xj, yj, zj), (xk, yk, zk) = q[i], q[j], q[k]
    ci = ((xj - xi) / span, (yj - yi) / span, (zj - zi) / span)
    gi = p - pr[i]
    r = (xi + gi * ci[0], yi + gi * ci[1], zi + gi * ci[2])
    # conjugates_at's row for state k, written out: this is the hottest
    # three-state path, and the helper's loop over all three rows costs more;
    # its norm is the gate's, so the screen passes what the gate's ball test does
    ck = x, y, z = ((r[0] - xk) / gk, (r[1] - yk) / gk, (r[2] - zk) / gk)
    if math.sqrt(x * x + y * y + z * z) > 1.0 + BALL_SLACK:
        return None
    conj = [ck] * 3
    conj[i], conj[j] = ci, (-ci[0], -ci[1], -ci[2])
    weights = [1.0] * 3
    weights[k] = 0.0
    try:
        return assemble_result(ensemble, p, r, conj, weights, "three-state-boundary")
    except (CertificateError, ValueError):
        return None


def _interior_candidate(ensemble: WeightedEnsemble, pr: list, q: list, gaps: list, p: float):
    """All three conjugates pure at ratio p, a root of the interior quadratic."""
    if not math.isfinite(p) or p > 1.0 + RATIO_SLACK:
        return None
    s = [p - x for x in pr]
    if min(s) <= ZERO_TOL:
        return None
    dots = [(s[a] ** 2 + s[b] ** 2 - g) / (2.0 * s[a] * s[b]) for (a, b), g in zip(_PAIRS, gaps)]
    if max(abs(d) for d in dots) > 1.0 + DOT_SLACK:
        return None
    try:
        lam = lambdas_three_state(dots, [x / p for x in pr])
    except (DegenerateGeometryError, GramConsistencyError):
        return None
    # the gate's weight test, which counts |w| <= NEG_WEIGHT_TOL as 0
    weights = [4.0 * p * m / t for m, t in zip(lam, s)]
    if min(lam) < -NEG_WEIGHT_TOL or min(weights) < -NEG_WEIGHT_TOL:
        return None
    # common point: two in-plane linear equations from differencing the
    # squared-distance constraints |r - q_i| = p - p_i; the weighted points
    # as a local array, so that the ensemble builds none of its own
    q = np.array(q)
    e2 = q[1] - q[0]
    e3 = q[2] - q[0]
    lhs = np.vstack([2.0 * e2, 2.0 * e3])
    rhs = np.array(
        [float(e2 @ e2) + s[0] ** 2 - s[1] ** 2, float(e3 @ e3) + s[0] ** 2 - s[2] ** 2]
    )
    sol, _, rank, _ = np.linalg.lstsq(lhs, rhs, rcond=None)
    if rank < 2:
        return None
    r = (q[0] + sol).tolist()
    conj = conjugates_at(ensemble, p, r)
    try:
        return assemble_result(ensemble, p, r, conj, weights, "three-state-interior")
    except (CertificateError, ValueError):
        return None


def solve_three_state(ensemble: WeightedEnsemble) -> DiscriminationResult:
    """Screen the guess regime, then the closed-form candidates; the oracle comes last.

    With k the index of the largest prior (the first on ties), guessing
    state k is optimal exactly when p_k - p_i >= |q_i - q_k| for both other
    states; that test runs first, with no slack, and returns guess_result
    tagged three-state-boundary. Otherwise three boundary candidates and two
    interior roots are screened on Python floats, and only those that pass
    reach the weak-duality gate. Any candidate that survives the gate is a
    verified optimum of its own branch, and selection is by (p, candidate
    index). When nothing validates, the minimax oracle solves the instance
    and the result is tagged method="oracle".
    """
    if ensemble.n != 3:
        raise ValueError(f"solve_three_state needs exactly 3 states, got {ensemble.n}")
    pr, q, gaps = _three_state_floats(ensemble)
    top = max(pr)
    k = pr.index(top)
    if all(top - pr[i] >= math.sqrt(gaps[i + k - 1]) for i in range(3) if i != k):
        return guess_result(ensemble, k, "three-state-boundary")
    candidates = []
    for idx, (i, j) in enumerate(_PAIRS):
        built = _boundary_candidate(ensemble, pr, q, gaps, i, j)
        if built is not None:
            candidates.append((built.p_opt, idx, built))
    for offset, root in enumerate(_quadratic_roots(*_interior_quadratic(pr, gaps))):
        built = _interior_candidate(ensemble, pr, q, gaps, root)
        if built is not None:
            candidates.append((built.p_opt, 3 + offset, built))
    if not candidates:
        return solve_oracle(ensemble)
    candidates.sort(key=lambda item: (item[0], item[1]))
    return candidates[0][2]


# ---------------------------------------------------------------------------
# diagonal ensembles


def _on_z_axis(ensemble: WeightedEnsemble) -> bool:
    """Every Bloch vector on the z axis: solve_diagonal's structure, tested first by solve_auto."""
    rows = ensemble.held[1]
    if isinstance(rows, np.ndarray):
        return np.abs(rows[:, :2]).max() <= AXIS_TOL
    return all(abs(x) <= AXIS_TOL and abs(y) <= AXIS_TOL for x, y, _ in rows)


def solve_diagonal(ensemble: WeightedEnsemble) -> DiscriminationResult:
    """States on the z axis: best up-projector index plus best down-projector index.

    Picks the ordered pair (u, d), u != d, that maximizes up_u + down_d, with
    up_i = p_i (1 + z_i)/2 and down_i = p_i (1 - z_i)/2, in O(n) time and
    memory; the winning value is bit-identical to the classical
    max_i up_i + max_j down_j. The winner takes Pi_u = |0><0| and
    Pi_d = |1><1|, everything else zero. When a single index's up_k + down_k
    is strictly larger than every pair, that is the guess regime.
    """
    if not _on_z_axis(ensemble):
        raise ValueError("solve_diagonal needs every Bloch vector on the z axis")
    return _diagonal(ensemble)


def _diagonal(ensemble: WeightedEnsemble) -> DiscriminationResult:
    """solve_diagonal on an ensemble already probed to lie on the z axis (solve_auto's too).

    On kept floats, up, down and their sums are numpy's elementwise
    operations, and index(max(...)) takes the first maximum, as np.argmax
    does.
    """
    n = ensemble.n
    priors, rows, points = ensemble.held
    if isinstance(rows, np.ndarray):
        u, d, best_val = _diagonal_pair(priors, rows[:, 2])
        qx, qy, qz = points[d].tolist()
    else:
        u, d, best_val = _diagonal_pair_floats(priors, [z for _, _, z in rows])
        qx, qy, qz = points[d]
    if u == d:
        return guess_result(ensemble, u, "diagonal", value=best_val)

    p = float(best_val)
    g = float(p - priors[d])
    # q_d + g (0, 0, 1), written out so that a signed zero comes out as numpy's
    r = [qx + g * 0.0, qy + g * 0.0, qz + g * 1.0]
    # every other conjugate is conjugates_at's: a state with no gap keeps the
    # zero conjugate, covered only if q_k sits at r, which the gate checks
    conj = conjugates_at(ensemble, p, r)
    conj[u], conj[d] = (0.0, 0.0, -1.0), (0.0, 0.0, 1.0)
    weights = [0.0] * n
    weights[u] = weights[d] = 1.0
    return assemble_result(ensemble, p, r, conj, weights, "diagonal")


def _diagonal_pair(pr: np.ndarray, z: np.ndarray) -> tuple:
    """(u, d, up_u + down_d) of solve_diagonal's pick, u == d for the guess."""
    up = pr * (1.0 + z) / 2.0
    down = pr * (1.0 - z) / 2.0
    # the first maximum, in row-major order, of the table up_u + down_d,
    # u != d, without building it: rounded addition is monotone, so row u
    # peaks at up_u plus the largest down off its diagonal, the runner-up for
    # the row j of the largest. The diagonal (the guess) wins only when
    # strictly larger
    j = int(np.argmax(down))
    row_max = up + down[j]
    row_max[j] = up[j] + np.delete(down, j).max(initial=-np.inf)
    u = int(np.argmax(row_max))
    row = up[u] + down
    row[u] = -np.inf
    d = int(np.argmax(row))
    guesses = up + down
    k = int(np.argmax(guesses))
    if guesses[k] > row[d]:
        return k, k, float(guesses[k])
    return u, d, float(row[d])


def _diagonal_pair_floats(pr: tuple, z: list) -> tuple:
    """_diagonal_pair on Python floats, step for step."""
    up = [p * (1.0 + x) / 2.0 for p, x in zip(pr, z)]
    down = [p * (1.0 - x) / 2.0 for p, x in zip(pr, z)]
    j = down.index(max(down))
    row_max = [x + down[j] for x in up]
    row_max[j] = up[j] + max(down[:j] + down[j + 1:])
    u = row_max.index(max(row_max))
    row = [up[u] + x for x in down]
    row[u] = -math.inf
    d = row.index(max(row))
    guesses = [a + b for a, b in zip(up, down)]
    k = guesses.index(max(guesses))
    if guesses[k] > row[d]:
        return k, k, guesses[k]
    return u, d, row[d]


# ---------------------------------------------------------------------------
# symmetric shell and cone


def _equiprobable(ensemble: WeightedEnsemble) -> bool:
    n = ensemble.n
    priors = ensemble.held[0]
    if isinstance(priors, np.ndarray):
        return np.abs(priors - 1.0 / n).max() <= EQUIPROBABLE_TOL
    return all(abs(x - 1.0 / n) <= EQUIPROBABLE_TOL for x in priors)  # prior by prior


def _norms(rows) -> list:
    """|row| of each row of three floats, as np.linalg.norm rounds it: sqrt((x*x + y*y) + z*z)."""
    return [math.sqrt(x * x + y * y + z * z) for x, y, z in rows]


def _common_norm(rows) -> float | None:
    """The mean Bloch norm b of the rows when every norm is within SPREAD_TOL of it.

    rows are an (n, 3) array, or rows of three floats, on which the norms
    and their mean round as np.linalg.norm's and np.mean's.
    """
    if isinstance(rows, np.ndarray):
        norms = np.linalg.norm(rows, axis=1)
        b = float(norms.mean())
        return b if np.abs(norms - b).max() <= SPREAD_TOL else None
    norms = _norms(rows)
    b = pairwise_sum(norms) / len(norms)
    return b if max(abs(x - b) for x in norms) <= SPREAD_TOL else None


def _shell_norm(ensemble: WeightedEnsemble) -> float | None:
    """The common Bloch norm of equiprobable states; None without either."""
    return _common_norm(ensemble.held[1]) if _equiprobable(ensemble) else None


def _equidistant(ensemble: WeightedEnsemble, offsets, rho: float, method: str):
    """p = (1 + rho)/N: equiprobable states at distance rho from a centre in their hull.

    offsets holds each state's Bloch offset from the centre in the form the
    ensemble holds (ensemble.held): an (n, 3) array, or rows of three
    floats, on which the same operations run element by element;
    conjugates are the unit vectors opposite, c_j = -offsets_j/|offsets_j|
    (over rho, |c_j| passes 1 on rows given to ten digits), and the weights
    solve the completeness system over them. At rho = 0 the states coincide, and the guess is reported with an
    arbitrary planar conjugate fan.
    """
    n = ensemble.n
    floats = not isinstance(offsets, np.ndarray)
    p = (1.0 + rho) / n
    if rho <= NORM_FLOOR:
        phis = 2.0 * np.pi * np.arange(n) / n
        conj = np.column_stack([np.cos(phis), np.sin(phis), np.zeros(n)])
        if floats:
            conj = conj.tolist()
    elif floats:
        conj = []
        for (x, y, z), s in zip(offsets, _norms(offsets)):
            s = max(s, NORM_FLOOR)
            conj.append((-x / s, -y / s, -z / s))
    else:
        norms = np.maximum(np.linalg.norm(offsets, axis=1), NORM_FLOOR)
        conj = -offsets / norms[:, None]
    w = min_norm_nonneg_weights(conj)
    priors, _, q = ensemble.held
    if floats:
        g = p - priors[0]
        (qx, qy, qz), (cx, cy, cz) = q[0], conj[0]
        r = (qx + g * cx, qy + g * cy, qz + g * cz)
    else:
        r = q[0] + (p - priors[0]) * conj[0]
    return assemble_result(ensemble, p, r, conj, w, method)


def solve_symmetric_shell(ensemble: WeightedEnsemble) -> DiscriminationResult:
    """Equiprobable states of a common Bloch norm b: p_opt = (1 + b)/N.

    The shell about the origin: conjugates point oppositely to the states,
    c_j = -b_j/b. When the weight sweep finds no weights (e.g. all states
    in an open half-space, which the shell theorem excludes), its
    WeightSystemInfeasible propagates and solve_auto runs the oracle.
    """
    if not _equiprobable(ensemble):
        raise ValueError("solve_symmetric_shell needs equiprobable priors")
    rows = ensemble.held[1]
    b = _common_norm(rows)
    if b is None:
        raise ValueError("solve_symmetric_shell needs a common Bloch norm")
    return _equidistant(ensemble, rows, b, "symmetric-shell")


def cone_ensemble(n: int, b: float, theta: float, phis=None) -> WeightedEnsemble:
    """Equiprobable states at polar angle theta, Bloch norm b, given azimuths."""
    if n < 2:
        raise ValueError("cone needs at least 2 states")
    if not (0.0 <= b <= 1.0):
        raise ValueError(f"Bloch norm b = {b!r} outside [0, 1]")
    if not (0.0 <= theta <= np.pi):
        raise ValueError(f"polar angle theta = {theta!r} outside [0, pi]")
    phis = 2.0 * np.pi * np.arange(n) / n if phis is None else np.asarray([float(x) for x in phis])
    if phis.shape != (n,):
        raise ValueError(f"expected {n} azimuths, got {phis.shape}")
    st, ct = math.sin(theta), math.cos(theta)
    rows = [(b * st * math.cos(f), b * st * math.sin(f), b * ct) for f in phis]
    return WeightedEnsemble([1.0 / n] * n, rows)


def _cone_centre(ensemble: WeightedEnsemble, b: float | None) -> tuple | None:
    """The cone's axis point as (offsets, rho, "cone"), _equidistant's arguments, or None.

    b is _shell_norm(ensemble); None means no cone. States of one norm b
    and polar angle theta sit at rho = b sin(theta) from (0, 0, b cos(theta)).
    """
    if b is None:
        return None
    rows = ensemble.held[1]
    if isinstance(rows, np.ndarray):
        if rows[:, 2].max() - rows[:, 2].min() > SPREAD_TOL:
            return None
        offsets = np.column_stack([rows[:, :2], np.zeros(len(rows))])
        return offsets, float(np.linalg.norm(offsets, axis=1).mean()), "cone"
    z = [row[2] for row in rows]
    if max(z) - min(z) > SPREAD_TOL:
        return None
    offsets = [(x, y, 0.0) for x, y, _ in rows]
    return offsets, pairwise_sum(_norms(offsets)) / len(offsets), "cone"


def _solve_cone(ensemble: WeightedEnsemble) -> DiscriminationResult:
    cone = _cone_centre(ensemble, _shell_norm(ensemble))
    if cone is None:
        raise ValueError("ensemble lacks cone structure"
                         " (equiprobable priors, common Bloch norm and polar angle)")
    return _equidistant(ensemble, *cone)


def solve_cone(n: int, b: float, theta: float, phis=None) -> DiscriminationResult:
    """p_opt = (1 + b sin(theta))/N for a cone of equiprobable states.

    The shell about the axis point: conjugates sit on the equator opposite
    each azimuth. Azimuths in a half circle leave no weights, and the
    sweep's WeightSystemInfeasible propagates; solve_auto runs the oracle.
    """
    return _solve_cone(cone_ensemble(n, b, theta, phis))


# ---------------------------------------------------------------------------
# mirror-symmetric triple


def mirror_ensemble(theta: float, p1: float) -> WeightedEnsemble:
    """Two states at Bloch azimuth 0 tilted by +-2theta from +z, plus +z itself."""
    if not (0.0 < theta < 0.5 * np.pi):
        raise ValueError(f"theta = {theta!r} outside (0, pi/2)")
    if not (0.0 < p1 < 0.5):
        raise ValueError(f"p1 = {p1!r} outside (0, 1/2)")
    s, c = math.sin(2.0 * theta), math.cos(2.0 * theta)
    return WeightedEnsemble(
        (p1, p1, 1.0 - 2.0 * p1), ((s, 0.0, c), (-s, 0.0, c), (0.0, 0.0, 1.0))
    )


def mirror_threshold(theta: float) -> float:
    """The prior at which the two mirror-symmetric regimes exchange validity."""
    c, s = math.cos(theta), math.sin(theta)
    return 1.0 / (2.0 + c * (s + c))


@dataclass(frozen=True)
class MirrorRegime:
    """Both closed-form candidate values for the mirror-symmetric triple."""

    threshold: float
    pair_value: float      # two pure conjugates, third element zero
    interior_value: float  # all three conjugates pure
    regime: str            # "boundary" above threshold, "interior" below
    reference_p: float     # the value of the regime named above


def mirror_regime(theta: float, p1: float) -> MirrorRegime:
    if not (0.0 < theta < 0.5 * np.pi) or not (0.0 < p1 < 0.5):
        raise ValueError("mirror_regime parameters out of range")
    s2, c, s = math.sin(2.0 * theta), math.cos(theta), math.sin(theta)
    pair_value = p1 * (1.0 + s2)
    p3 = 1.0 - 2.0 * p1
    interior_value = p3 * (p1 * s ** 2 + p3 - p1 * c ** 2) / (p3 - p1 * c ** 2)
    thr = mirror_threshold(theta)
    regime = "boundary" if p1 >= thr else "interior"
    return MirrorRegime(
        threshold=thr,
        pair_value=pair_value,
        interior_value=interior_value,
        regime=regime,
        reference_p=pair_value if regime == "boundary" else interior_value,
    )


def solve_mirror_symmetric(theta: float, p1: float) -> DiscriminationResult:
    """Solve the mirror-symmetric triple via the general three-state machinery.

    Both closed-form candidates are members of the general candidate set
    (the pair value is the boundary candidate of states 1 and 2; the other
    is the interior quadratic root), so validation picks the correct regime
    without trusting any regime inequality. Result is retagged
    mirror-symmetric unless the oracle fallback fired.
    """
    result = solve_three_state(mirror_ensemble(theta, p1))
    if result.method.startswith("three-state"):
        return replace(result, method="mirror-symmetric")
    return result


# ---------------------------------------------------------------------------
# dispatch


def solve_auto(ensemble: WeightedEnsemble) -> DiscriminationResult:
    """Route an ensemble to the most specific applicable solver.

    Order: two states; diagonal (N >= 3 on the z axis); general three
    states; one equidistant attempt, about the cone's axis point if there
    is one, else the origin; minimax oracle, which also takes N >= 4
    without equiprobable priors and a common Bloch norm (probed once) and
    a failed attempt: on a cone the shell's conjugates share the z part
    -z/b, which weights cancel only near z = 0, where they are the cone's.
    """
    n = ensemble.n
    if n == 2:
        return solve_two_state(ensemble)
    if _on_z_axis(ensemble):
        return _diagonal(ensemble)
    if n == 3:
        return solve_three_state(ensemble)
    b = _shell_norm(ensemble)
    if b is not None:
        centre = _cone_centre(ensemble, b) or (ensemble.held[1], b, "symmetric-shell")
        try:
            return _equidistant(ensemble, *centre)
        except (ValueError, WeightSystemInfeasible, CertificateError):
            pass
    return solve_oracle(ensemble)


# entries look solvers up by name at call time, so a patched module attribute is the one run
_SOLVERS = {
    "auto": lambda ensemble: solve_auto(ensemble),
    "two-state": lambda ensemble: solve_two_state(ensemble),
    "three-state": lambda ensemble: solve_three_state(ensemble),
    "diagonal": lambda ensemble: solve_diagonal(ensemble),
    "symmetric-shell": lambda ensemble: solve_symmetric_shell(ensemble),
    "cone": lambda ensemble: _solve_cone(ensemble),
    "oracle": lambda ensemble: solve_oracle(ensemble),
}
SOLVE_METHODS = tuple(_SOLVERS)


def solve_with_method(ensemble: WeightedEnsemble, method: str) -> DiscriminationResult:
    """Run the solver named in SOLVE_METHODS (ValueError for any other name)."""
    solve = _SOLVERS.get(method)
    if solve is None:
        raise ValueError(f"unknown method {method!r}")
    return solve(ensemble)
