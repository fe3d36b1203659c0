"""Weak family construction, verification, and result assembly.

The family view of a discrimination problem: a ratio p and a common point r
such that every state's weighted Bloch point q_i = p_i b_i sees the same
mixture, r = q_i + (p - p_i) c_i, where c_i is the conjugate direction of
state i. With |c_i| <= 1 this is a feasible dual point Y = (p I + r.sigma)/2,
since Y - p_i rho_i = (p - p_i) tau_i with tau_i = (I + c_i.sigma)/2, so p
upper-bounds the success probability; p - success = sum_i (p - p_i)
tr(tau_i Pi_i) vanishes exactly when each nonzero element is orthogonal to
its conjugate, a_i + c_i.v_i = 0.

assemble_result is the single funnel every solver returns through and the
one certificate builder: it builds the measurement of the weight system a
solver solved, certifies it by weak duality, refuses anything that fails,
and derives the multipliers from the measurement traces (trace_multipliers).
The KKT report is computed only when result.kkt is read.
The gate computes each quantity once: one pass of row norms tests the
conjugates against the unit ball, and p_i/p gives both the scaled priors
and the multipliers. A non-finite common point or conjugate fails the
float tests, and the vectorized gate raises its error with
bloch.check_finite, the constructor's own check. The gate reads the
solver's common point and conjugates into arrays of its own. It also runs
the certificate's structural checks (lengths, p, scaled priors) and stores
its certificate, and the arrays it built, through
HelstromCertificate._from_gate, which checks nothing twice; whatever fails
goes to the public constructor, which raises its own error. The
certificate derives its pure mask when it is read, and a result's p_opt
is the certificate's p. guess_result leaves to the gate the decision
whether a guess is optimal. conjugates_at owns the conjugate table that a
common point fixes, which the guess, the diagonal and interior solvers and
the oracle's measurement take from it.

Records are built from arrays or rows of floats: Povm(a, v) here, and
WeightedEnsemble(priors, bloch_matrix) or validate_ensemble for the
ensembles the solvers take. A common point is a 3-sequence, conjugates an
(n, 3) array or a sequence of 3-sequences.

On an ensemble that keeps floats (ensemble.held), the gate checks the
weights, builds the POVM and certifies it in one pass on Python floats,
given lists, tuples or float arrays of them; conjugates_at and guess_result
read the held form too. Each float test accepts only what the vectorized
one accepts: a norm test is the same test, since bloch.row_norms rounds as
the float norm does, and a sum that numpy adds in another order clears its
bound by FLOAT_MARGIN. Anything else runs povm_from_weights and the
vectorized gate, which raise every refusal. The stored values are the same
float operations, element by element; a success within the margin of the
guess bound takes its verdict from numpy. The POVM and the certificate
keep those floats as immutable tuples and build each array on its first
read, or store the arrays the vectorized code built.
"""

from __future__ import annotations

import math
from typing import Sequence

from .bloch import (
    BALL_SLACK,
    COMPLETENESS_TOL,
    DEGENERACY_TOL,
    FAMILY_TOL,
    FLOAT_FORMS,
    FLOAT_MARGIN,
    NEG_WEIGHT_TOL,
    ORTHOGONALITY_TOL,
    PSD_TOL,
    RATIO_SLACK,
    SUCCESS_TOL,
    TIED_POINT_TOL,
    ZERO_ELEMENT_TOL,
    ZERO_TOL,
    DiscriminationResult,
    HelstromCertificate,
    LazyNumpy,
    Povm,
    WeightedEnsemble,
    check_finite,
    row_norms,
    vector_array,
    vector_matrix,
)
from .errors import CertificateError, DegenerateRatioError

np = LazyNumpy(globals())

__all__ = [
    "verify_weak_family",
    "success_probability",
    "verify_optimality",
    "family_residual",
    "povm_from_weights",
    "assemble_result",
    "conjugates_at",
    "guess_result",
    "max_pairwise_distance",
    "trace_multipliers",
]

_PAIR_BLOCK = 256  # rows per block of the pairwise distance table


def max_pairwise_distance(points: np.ndarray) -> float:
    """max_{i,j} |x_i - x_j| over the rows of an (n, 3) array.

    Bit-identical to the one-shot sqrt(((x[:, None] - x) ** 2).sum(axis=2)).max().
    The squares are built _PAIR_BLOCK rows at a time, so memory stays
    O(n * _PAIR_BLOCK), on the x, y and z columns and summed as
    (dx*dx + dy*dy) + dz*dz, the order of numpy's sum over a last axis of
    length 3. sqrt is monotone and correctly rounded, so the root of the
    largest square is the largest root, and np.maximum carries a NaN (a row
    holding inf or NaN meets itself in one) through to the result. The work
    is quadratic in the number of distinct rows: past one block, np.unique
    first drops exact repeats, which add no pair, and merges rows that
    differ only in the sign of a zero, which square alike.
    """
    if len(points) > _PAIR_BLOCK:
        points = np.unique(points, axis=0)
    x, y, z = (np.ascontiguousarray(column) for column in points.T)
    best = -np.inf
    for start in range(0, len(x), _PAIR_BLOCK):
        block = slice(start, start + _PAIR_BLOCK)
        sq = x[block, None] - x
        sq *= sq
        for column in (y, z):
            diff = column[block, None] - column
            diff *= diff
            sq += diff
        best = np.maximum(best, sq.max())
    return math.sqrt(best) if len(x) else -math.inf


def family_residual(ensemble: WeightedEnsemble, p: float, conjugates: Sequence) -> float:
    """Max pairwise distance between the mixtures p_i b_i + (p - p_i) c_i."""
    c = vector_matrix(conjugates)
    return max_pairwise_distance(ensemble.weighted_points + (p - ensemble.priors)[:, None] * c)


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
    norms = np.linalg.norm(vector_matrix(conjugates), axis=1)
    ok = bool(
        residual <= FAMILY_TOL
        and np.all(norms <= 1.0 + BALL_SLACK)
        and 0.0 < p <= 1.0 + RATIO_SLACK
        and p >= ensemble.max_prior - RATIO_SLACK
    )
    return ok, residual


def success_probability(ensemble: WeightedEnsemble, povm: Povm) -> float:
    """sum_i p_i (a_i + b_i.v_i), the Bloch form of sum_i p_i tr(rho_i Pi_i)."""
    if povm.n != ensemble.n:
        raise ValueError(f"POVM has {povm.n} elements for {ensemble.n} states")
    per_state = povm.a + np.einsum("ij,ij->i", ensemble.bloch_matrix, povm.v)
    return float(ensemble.priors @ per_state)


def verify_optimality(povm: Povm, conjugates: Sequence) -> tuple:
    """Check tr(tau_i Pi_i) = a_i + c_i.v_i = 0 for every nonzero element.

    Zero elements pass vacuously. Returns (ok, max residual over nonzero
    elements); an all-zero POVM cannot occur (completeness).
    """
    if povm.n != len(conjugates):
        raise ValueError("POVM and conjugate list lengths differ")
    overlaps = np.abs(povm.a + np.einsum("ij,ij->i", vector_matrix(conjugates), povm.v))
    residual = float(overlaps[povm.a > ZERO_ELEMENT_TOL].max(initial=0.0))
    return residual <= ORTHOGONALITY_TOL, residual


def povm_from_weights(weights: Sequence, conjugates: Sequence) -> Povm:
    """Build Pi_i = w_i * (I - c_i.sigma)/2 from a weight system, vectorized.

    Weights within NEG_WEIGHT_TOL of zero are clamped so float dust cannot
    fail the PSD check. Completeness (sum w = 2, sum w c = 0) is re-verified
    by the Povm constructor, not assumed. assemble_result builds the same
    floats in the gate's pass, and falls back to this.
    """
    w = np.asarray(weights, dtype=float)
    c = vector_matrix(conjugates)
    if w.shape[0] != c.shape[0]:
        raise ValueError("weights and conjugates lengths differ")
    if w.min() < -NEG_WEIGHT_TOL:  # the least weight, which clamping leaves as it is
        raise ValueError(f"negative weight {float(w.min())!r}")
    a = w / 2.0
    a[np.abs(w) <= NEG_WEIGHT_TOL] = 0.0
    return Povm(a, -a[:, None] * c)


def trace_multipliers(ensemble: WeightedEnsemble, p: float, povm: Povm) -> np.ndarray:
    """lambda_i = tr(Pi_i) (1 - p_i/p) / 4, the multipliers of every certificate.

    Inverted from the pure-conjugate weights tr(Pi_i) = 4 lambda_i / (1 - p_i/p);
    1 - p_i/p is what the KKT report divides by, so near-guess nu stay exact.
    """
    return _multipliers(povm.a, ensemble.priors / p)


def _multipliers(a: np.ndarray, scaled_priors: np.ndarray) -> np.ndarray:
    return 2.0 * a * (1.0 - scaled_priors) / 4.0


def conjugates_at(ensemble: WeightedEnsemble, p: float, r) -> list | np.ndarray:
    """c_i = (r - q_i)/(p - p_i) for every state, the zero row where p - p_i <= ZERO_TOL.

    r is a common point of three Python floats. A state with no gap is free
    in r = q_i + (p - p_i) c_i, and the gate checks whether its q_i sits at
    r. In the record's held form (ensemble.held): a list of float tuples
    from kept floats, an (n, 3) array from arrays, by the same subtraction
    and division. Callers override the rows they fix themselves.
    """
    priors, _, q = ensemble.held
    if type(q) not in FLOAT_FORMS:
        gap = p - priors
        return np.divide(np.subtract(r, q), gap[:, None],
                         out=np.zeros((ensemble.n, 3)), where=~(gap <= ZERO_TOL)[:, None])
    rx, ry, rz = r
    conj = []
    for pi, (x, y, z) in zip(priors, q):
        g = p - pi
        conj.append((0.0, 0.0, 0.0) if g <= ZERO_TOL
                    else ((rx - x) / g, (ry - y) / g, (rz - z) / g))
    return conj


def assemble_result(
    ensemble: WeightedEnsemble,
    p: float,
    common_point,
    conjugates: Sequence,
    weights: Sequence,
    method: str,
    directions: Sequence | None = None,
) -> DiscriminationResult:
    """Certify and package a solver's weight system by weak duality; raise CertificateError on failure.

    The measurement is Pi_i = w_i (I - d_i.sigma)/2 (povm_from_weights) over
    the directions d_i, the conjugates unless given. The only place a
    HelstromCertificate is built for a solver. Two O(n) checks: (1) dual
    feasibility at the reported point, p >= p_i,
    |q_i + (p - p_i) c_i - r| <= FAMILY_TOL and |c_i| <= 1 + BALL_SLACK for
    every i, which is Y >= p_i rho_i; (2) a zero duality gap,
    |success(povm) - p| <= SUCCESS_TOL, on a POVM whose completeness and
    positivity the gate's pass has verified. The multipliers are not an input:
    they are trace_multipliers of the measurement, with |lambda_i| <= ZERO_TOL
    reported as 0.

    Each refusal has its own type and message, which tests/test_family.py
    pins. On an ensemble that keeps floats, one pass (_gate_floats) builds
    and certifies the POVM, or hands over to povm_from_weights and _gate.
    """
    p = float(p)
    if directions is None:
        directions = conjugates
    built = _gate_floats(ensemble, p, common_point, conjugates, weights, directions)
    if built is None:
        povm = povm_from_weights(weights, directions)
        built = povm, _gate(ensemble, p, vector_array(common_point), vector_matrix(conjugates),
                            povm)
    return DiscriminationResult(*built, method, ensemble)


def _gate(ensemble: WeightedEnsemble, p: float, r: np.ndarray, c_rows: np.ndarray,
          povm: Povm) -> HelstromCertificate:
    """assemble_result's checks, vectorized, in the order that raises each refusal."""
    check_finite(r, c_rows)
    priors = ensemble.priors
    widest = np.maximum.reduce(row_norms(c_rows))
    top = ensemble.max_prior

    if p < top - RATIO_SLACK:
        raise CertificateError(f"ratio p = {p!r} below max prior {top!r}")
    if widest > 1.0 + BALL_SLACK:
        raise CertificateError(f"conjugate norm {float(widest)!r} exceeds 1")
    offsets = ensemble.weighted_points + (p - priors)[:, None] * c_rows - r
    residual = float(np.maximum.reduce(row_norms(offsets)))
    if residual > FAMILY_TOL:
        raise CertificateError(f"common-point residual {residual!r} exceeds {FAMILY_TOL}")

    success = success_probability(ensemble, povm)
    if abs(success - p) > SUCCESS_TOL:
        raise CertificateError(f"POVM success {success!r} differs from p = {p!r}")
    degenerate = success <= top + DEGENERACY_TOL

    scaled = priors / p
    lam = _multipliers(povm.a, scaled)
    lam[np.abs(lam) <= ZERO_TOL] = 0.0
    fields = (p, r, c_rows, scaled, lam, bool(degenerate))
    if (len(c_rows) == len(scaled) and 0.0 < p <= 1.0 + RATIO_SLACK
            and 0.0 < scaled.min() and scaled.max() <= 1.0 + RATIO_SLACK):
        return HelstromCertificate._from_gate(*fields)
    return HelstromCertificate(*fields)  # which refuses what failed


def _listed(value):
    if type(value) in FLOAT_FORMS:
        return value
    return value.tolist() if type(value) is np.ndarray else value


def _gate_floats(ensemble: WeightedEnsemble, p: float, common_point, conjugates, weights,
                 directions) -> tuple | None:
    """assemble_result's (Povm, HelstromCertificate) from one pass on Python floats, or None.

    Runs on an ensemble that keeps floats and on rows of Python floats
    (float arrays through tolist()). Per row: the weight test, a_i and v_i
    as povm_from_weights builds them, the Povm constructor's float tests
    and the gate's, and the sums of v and of the success; then sum a, |sum v|
    and the gap. Each test accepts only what the vectorized one accepts: a
    norm is row_norms' rounding, and |sum v| and the success, which numpy
    sums in its own order, clear their bounds by FLOAT_MARGIN. An a_i above
    1 + COMPLETENESS_TOL fails completeness anyway, and is refused first so
    that fsum cannot overflow. A success within the margin of the guess
    bound takes degenerate from success_probability. Every stored value is
    the vectorized code's float operation, element by element, kept as
    floats (bloch.ArrayRecord).
    """
    priors, bloch, q = ensemble.held
    if type(q) not in FLOAT_FORMS:
        return None
    r, rows, dirs, weights = map(_listed, (common_point, conjugates, directions, weights))
    top = ensemble.max_prior
    if not (type(r) in FLOAT_FORMS and type(rows) in FLOAT_FORMS and type(dirs) in FLOAT_FORMS
            and type(weights) in FLOAT_FORMS and len(r) == 3
            and len(rows) == len(dirs) == len(weights) == len(priors)
            and top - RATIO_SLACK <= p <= 1.0 + RATIO_SLACK):
        return None
    rx, ry, rz = r
    if not (type(rx) is float and type(ry) is float and type(rz) is float):
        return None
    most, ball = 1.0 + COMPLETENESS_TOL, 1.0 + BALL_SLACK
    a, v, conj, scaled, lam = [], [], [], [], []
    sx = sy = sz = success = 0.0
    for pi, (qx, qy, qz), (bx, by, bz), c, d, w in zip(priors, q, bloch, rows, dirs, weights):
        if not (type(c) in FLOAT_FORMS and type(d) in FLOAT_FORMS and len(c) == len(d) == 3):
            return None
        (x, y, z), (dx, dy, dz) = c, d
        if not (type(x) is float and type(y) is float and type(z) is float
                and type(dx) is float and type(dy) is float and type(dz) is float
                and type(w) is float and w >= -NEG_WEIGHT_TOL):  # a NaN fails this too
            return None
        ai = 0.0 if abs(w) <= NEG_WEIGHT_TOL else w / 2.0
        vx, vy, vz = -ai * dx, -ai * dy, -ai * dz
        g = p - pi
        ox, oy, oz = qx + g * x - rx, qy + g * y - ry, qz + g * z - rz
        t = pi / p
        if not (ai <= most and ai - math.sqrt(vx * vx + vy * vy + vz * vz) >= -PSD_TOL
                and math.sqrt(x * x + y * y + z * z) <= ball
                and math.sqrt(ox * ox + oy * oy + oz * oz) <= FAMILY_TOL
                and 0.0 < t <= 1.0 + RATIO_SLACK):
            return None
        sx, sy, sz = sx + vx, sy + vy, sz + vz
        success += pi * (ai + (bx * vx + by * vy + bz * vz))
        m = 2.0 * ai * (1.0 - t) / 4.0
        a.append(ai)
        v.append((vx, vy, vz))
        conj.append((x, y, z))
        scaled.append(t)
        lam.append(0.0 if abs(m) <= ZERO_TOL else m)
    if not (abs(math.fsum(a) - 1.0) <= COMPLETENESS_TOL
            and math.sqrt(sx * sx + sy * sy + sz * sz) <= COMPLETENESS_TOL - FLOAT_MARGIN
            and abs(success - p) <= SUCCESS_TOL - FLOAT_MARGIN):
        return None
    povm = Povm._from_gate(tuple(a), tuple(v))
    bound = top + DEGENERACY_TOL
    if abs(success - bound) <= FLOAT_MARGIN:
        success = success_probability(ensemble, povm)
    return povm, HelstromCertificate._from_gate(p, (rx, ry, rz), tuple(conj), tuple(scaled),
                                                tuple(lam), bool(success <= bound))


def guess_result(
    ensemble: WeightedEnsemble, index: int, method: str, value: float | None = None
) -> DiscriminationResult:
    """Package the guess strategy Pi_index = I as a degenerate certificate.

    Valid only when p_index reaches p_i + |q_index - q_i| for every other
    state, i.e. the guess value max p_i is the true optimum. The conjugate
    of the guessed state is unconstrained (its family coefficient p - p_index
    is zero); conjugates_at at r = q_index reports it as the zero vector,
    and so that of a state whose prior ties p, which must then sit at the
    common point or DegenerateRatioError is raised. Whether the guess is
    optimal is the gate's decision: assemble_result raises CertificateError
    for a conjugate outside the ball. `value` lets a caller pin the reported
    optimum to its own evaluation of p_index (at most an ulp away) so that
    exact-equality contracts against reference formulas hold. An index
    outside 0..n-1 raises ValueError.
    """
    n = ensemble.n
    k = int(index)
    if not 0 <= k < n:
        raise ValueError(f"guess index {k} outside 0..{n - 1}")
    priors, _, q = ensemble.held
    arrays = type(q) not in FLOAT_FORMS
    p, r = (float(priors[k]), q[k].tolist()) if arrays else (priors[k], q[k])
    if value is not None:
        p = float(value)
    conj = conjugates_at(ensemble, p, r)
    if arrays or not _ties_at_point(q, r, conj):
        # a tied prior forces q_i = r and leaves the conjugate free: reported
        # as 0, as is the conjugate of a state already at r (state k among them)
        offsets = np.subtract(r, ensemble.weighted_points)
        far = ~np.any(conj, axis=1) & (row_norms(offsets) > TIED_POINT_TOL)
        if far.any():
            raise DegenerateRatioError(
                f"guess at index {k} cannot cover state {int(np.argmax(far))}: tied prior, distinct point"
            )
    weights = [0.0] * n
    weights[k] = 2.0
    # Pi_k = I: directions of -0.0 store the vector parts -a * -0.0 = +0.0
    return assemble_result(ensemble, p, r, conj, weights, method,
                           directions=[(-0.0, -0.0, -0.0)] * n)


def _ties_at_point(q: tuple, r: tuple, conj: list) -> bool:
    """guess_result's tied-point test on Python floats; False leaves it to the vectorized test.

    q is the ensemble's kept weighted rows. Every state at the zero
    conjugate, which conjugates_at gives a state with no gap p - p_i (and
    one whose q_i is r already), must sit within TIED_POINT_TOL of the
    common point r, by the norm row_norms gives.
    """
    rx, ry, rz = r
    for (qx, qy, qz), (x, y, z) in zip(q, conj):
        if not (x or y or z):  # a NaN counts as nonzero, as in np.any
            ox, oy, oz = rx - qx, ry - qy, rz - qz
            if not math.sqrt(ox * ox + oy * oy + oz * oz) <= TIED_POINT_TOL:
                return False
    return True
