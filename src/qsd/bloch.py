"""Array data model for qubit ensembles, POVMs and discrimination results.

A qubit density operator is represented by its Bloch vector b, rho =
(I + b.sigma)/2 with |b| <= 1, and a POVM element by a pair (a, v), Pi =
a*I + v.sigma, which is positive semidefinite exactly when a >= |v|. Complex
2x2 matrices appear nowhere in the data model; the test suite builds them
only as an independent check of the trace identity tr(rho Pi) = a + b.v and
of the dual certificate.

The records (WeightedEnsemble, Povm, HelstromCertificate, kkt.KktReport)
store read-only numpy arrays, which the solvers read and write end to end,
each under one name: a certificate's common_point (3,) and conjugates
(n, 3), a KKT report's nu (n - 1, 3). A record copies what it is given, so
no caller's array or list is ever frozen or shared, and it stores only
what it cannot derive (a certificate's pure_mask is computed from its
conjugates on first access). Each record has one constructor, which takes
the values it stores: WeightedEnsemble(priors, bloch_matrix,
renormalize=False) and Povm(a, v) check them in one vectorized pass, and
validate_ensemble splits loose (prior, state) pairs and takes the same
path. ==, hash and repr go
by the dataclass fields, and dataclasses.replace runs the checks again.

A row is three Python floats, and no class stands for one: when a
vectorized check refuses a record, a row check on those floats (_row,
_state, check_povm_elements) gives the first bad row its message. The one
per-row view left is Povm.elements, a tuple of PovmElement (a, v) named
tuples built on first access and checked by nothing.

The float path. Below the measured crossover of FLOAT_ROWS rows, numpy's
per-call overhead costs more than the arithmetic, so a WeightedEnsemble of
at most FLOAT_ROWS rows of floats, as lists, tuples or arrays, is checked
on Python floats, and so are the measurement and the certificate that the
gate builds for it (family.assemble_result): a record's form depends on its
size alone. A Povm given (a, v) is checked vectorized. The record keeps
the floats it checked, as immutable tuples of its own, and builds each
read-only array on its first read (ArrayRecord), so an array nobody reads
is never built. The float path only accepts: when any of its tests fails
it returns, and the vectorized checks run on the same arguments and raise
their own errors in their own order, so every refusal message lives in
one place. Its rounding contract: stored values are the same IEEE
operations as the vectorized code's, element by element. Every norm the
package tests, screens with or prints is one rounding, sqrt((x*x + y*y) +
z*z): row_norms on arrays, math.sqrt(x * x + y * y + z * z) on three
floats, bit for bit, so a float norm test decides as the vectorized one
does and a refusal prints the norm it tested. Sums of more terms than
three are compared with FLOAT_MARGIN to spare, since numpy adds in its
own order. That order: a reduction of fewer than 8 terms adds them from
the left, starting from 0.0; from 8 terms numpy sums pairwise, in 8 lanes
joined as a tree. Where a stored value is such a sum (the shell's and the
cone's mean norm, the oracle's measurement weights) the float path repeats
it with pairwise_sum. An ensemble's `held` is the form its record kept:
the floats as `lists` when it took the float path, its arrays otherwise;
the solvers read it and branch on its type, so this module alone knows
FLOAT_ROWS. The gate and the CLI report read the kept floats as `lists`,
as do n and Povm.elements, and pass floats from hand to hand without
converting again; an array built on read holds those floats (np.fromiter
of the rows, np.array of a vector), so its bytes, ==, hash and repr are
the vectorized ones.

The tolerance table. Every named tolerance of the package is a row here,
and the other modules import the rows by name and define none of their
own, so the tests and the CLI report quote the numbers the code runs
with. A row gives the value, the question the constant answers and
its unit: absolute, on quantities of size about 1; relative to a scale
the row names; or ulps. One question has one row, whichever modules ask
it (ZERO_TOL is every test of a unit-size difference against zero), and a
constant answers one question (BALL_SLACK is dual feasibility's slack on
|c_i|, PURITY_TOL the pure mask's). Rows of one value may ask different
questions (BALL_SLACK and DOT_SLACK). A gap p - p_i is zero at ZERO_TOL,
a weight or multiplier may dip below 0 by NEG_WEIGHT_TOL and two priors tie
at EQUIPROBABLE_TOL wherever these are asked; two points coincide at
TIED_POINT_TOL in the closed forms and the gate, and only the oracle's pair
kernel, whose bits a frozen copy in the tests pins, still takes them as one
within ZERO_TOL. The guess regime has two rows because it is read off two
quantities: DEGENERACY_TOL bounds success - max prior, DEGENERATE_RATIO_TOL
1 - p_i/p.
"""

from __future__ import annotations

import math
import sys
from dataclasses import FrozenInstanceError, dataclass, field, fields
from itertools import chain
from typing import Iterable, NamedTuple, TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from .kkt import KktReport

# ---------------------------------------------------------------------------
# The tolerance table (module docstring). Each row's comment opens with its
# unit: abs, an absolute bound on quantities of size about 1 (priors, ratios,
# Bloch coordinates and distances, weights, multipliers); rel, relative to
# the scale it names; ulps, a multiple of the machine epsilon.

# Input validation.
STATE_NORM_TOL = 1e-12    # abs: by how much may a state's |b| exceed 1?
PRIOR_SUM_TOL = 1e-12     # abs: how far from 1 may the priors sum?
PSD_TOL = 1e-12           # abs: by how much may a - |v| of a POVM element fall below 0?
COMPLETENESS_TOL = 1e-10  # abs: how far may sum a lie from 1, and |sum v| from 0?
ZERO_ELEMENT_TOL = 1e-14  # abs: at or below which a is a POVM element zero?

# Certificates: the gate, the classification and the reports.
BALL_SLACK = 1e-9         # abs: by how much may |c_i| exceed 1 in dual feasibility?
PURITY_TOL = 1e-9         # abs: how close to 1 must |c_i| be for the pure mask?
FAMILY_TOL = 1e-9         # abs: how far may a mixture q_i + (p - p_i) c_i miss the common point?
ORTHOGONALITY_TOL = 1e-9  # abs: how large may tr(tau_i Pi_i) be for a nonzero element?
BOUND_SLACK = 1e-8        # abs: by how much may a success exceed a family ratio p?
SUCCESS_TOL = 1e-8        # abs: how far may success(povm) lie from p_opt?
KKT_TOL = 1e-8            # abs: how large may a KKT residual be at a reported optimum?
DEGENERACY_TOL = 1e-12    # abs: how far above the largest prior is a success still a guess?
RATIO_SLACK = 1e-12       # abs: by how much may a ratio p pass 1, or fall below the top prior?

# Zero and direction tests, shared by the solvers.
# abs: at or below which size is a difference of unit-size values zero: a
# gap p - p_i, a multiplier, a distance in the oracle's kernels?
ZERO_TOL = 1e-15
NORM_FLOOR = 1e-12        # abs: at or below which length has a vector no direction?
AXIS_TOL = 1e-12          # abs: up to which size are off-axis Bloch components on the z axis?

# Closed forms.
LEADING_TOL = 1e-14       # rel (top coefficient, or 1): when does a quadratic's coefficient vanish?
DOT_SLACK = 1e-9          # abs: by how much may a dot product of unit vectors exceed 1 in size?
DENOMINATOR_FLOOR = 1e-12  # abs: below which size is a multiplier denominator degenerate?
GRAM_AGREEMENT_TOL = 1e-8  # abs: how far may the two interior multiplier triples disagree?
EQUIPROBABLE_TOL = 1e-12  # abs: how close to 1/n must every prior be for equal (tied) priors?
SPREAD_TOL = 1e-9         # abs: how far may norms lie from their mean, or z values apart, as one?
TIED_POINT_TOL = 1e-12    # abs: how close must two points be to coincide (a tied state and r)?

# Weight systems sum_i w_i d_i = 0.
FEAS_TOL = 1e-10          # rel (largest row norm): how large may the system's residual be?
NEG_WEIGHT_TOL = 1e-12    # abs: by how much may a weight or multiplier dip below 0, and a weight count as 0?
UNIQUE_TOL = 1e-9         # abs: how close must two minimal-support solutions be to count as one?

# KKT report.
DEGENERATE_RATIO_TOL = 1e-12   # abs: at or below which is 1 - p~_i too small to divide nu_i by?
OVERFLOW_DENOMINATOR = 1e-300  # abs: what stands in for that 1 - p~_i under a nonzero lambda_i?

# Minimax oracle.
PIVOT_WINDOW = 1e-10      # abs: how far may f pass the basis value unpivoted, or a member trail it?
CONSISTENCY_TOL = 1e-9    # abs: how large may the residual of r's affine system on a support be?
QUADRATIC_TOL = 1e-14     # abs: below which size is a coefficient of the quadratic in p zero?
ROOT_TOL = 1e-12          # abs: by how much may that quadratic's discriminant dip below 0?
# ulps (product of the row or edge lengths): below which is a 2- or 3-row
# system, triangle or tetrahedron singular? It stands in for lstsq's
# rcond = eps * max(M, N) on these 3-column systems.
RANK_TOL = 3.0 * sys.float_info.epsilon
SHRINK_MARGIN = 1e-12     # rel (the element's a): how far inside the PSD cone do samples stay?

# Platonic solids.
DISTINCT_VERTEX_TOL = 1e-9   # abs: beyond which distance are two vertices distinct?
EDGE_COEFFICIENT_TOL = 1e-10  # abs: how far may a printed edge coefficient lie from the measured?

# The float path (module docstring). Records of at most FLOAT_ROWS rows, and
# the solvers and the oracle on the floats such an ensemble holds, run on
# Python floats, which beat numpy's per-call overhead up to the crossover
# measured with cold caches, as a one-shot process meets them (a 4 MiB read
# before each op). On mixed and jittered-pure ensembles, float over vectorized time
# stays below 1 up to n = 34 for all four; the POVM crosses at n = 36-38,
# the gate near 60, the ensemble and minimax_common_point beyond 64 (0.91
# and 0.88 there). FLOAT_MARGIN (abs) is what a float sum must clear its
# bound by where numpy adds the same terms in another order: the sum of the
# vector parts v_i and the success in the gate's pass (family._gate_floats).
# A sum of m terms whose sizes add to at most 2 errs by at most (m - 1) ulps
# of 1, and each term's own rounding adds about 4 ulps in all, so two sums
# of up to FLOAT_ROWS terms, in any two orders, differ by at most
# 2 (FLOAT_ROWS + 3) ulps: 70 ulps of 1, 1.6e-14, at 32 rows, where
# FLOAT_MARGIN is 450. Norms need no margin: row_norms rounds as the float
# path's sqrt(x*x + y*y + z*z) does.
FLOAT_ROWS = 32
FLOAT_MARGIN = 1e-13

METHODS = frozenset({
    "two-state",
    "three-state-boundary",
    "three-state-interior",
    "symmetric-shell",
    "diagonal",
    "cone",
    "mirror-symmetric",
    "oracle",
})


def _finite(*values: float) -> bool:
    return all(math.isfinite(v) for v in values)


def pairwise_sum(values) -> float:
    """np.add.reduce of a list or tuple of at most 128 floats, bit for bit: numpy's pairwise sum.

    From 8 terms numpy keeps 8 running sums, lane j adding every eighth term
    from j on, and joins them as ((r0 + r1) + (r2 + r3)) + ((r4 + r5) +
    (r6 + r7)); the other n % 8 terms, all n below 8, it adds from the left.
    The reduction starts from its identity 0.0, so a sum of negative zeros
    is +0.0. (Not sum(), which compensates from Python 3.12 on.)
    """
    total, end = 0.0, len(values) - len(values) % 8
    if end:
        r = values[:8]
        for i in range(8, end, 8):
            r = [a + b for a, b in zip(r, values[i:i + 8])]
        total += ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
    for x in values[end:]:
        total += x
    return total


def _fsum(values: list) -> float:
    """math.fsum(values), but +-inf where a partial sum overflows and nan for inf - inf."""
    try:
        return math.fsum(values)
    except OverflowError:
        return math.copysign(math.inf, sum(values))
    except ValueError:
        return math.nan


# ---------------------------------------------------------------------------
# array-backed records


def row_norms(rows: np.ndarray) -> np.ndarray:
    """|row| for each row of an (n, 3) array: every norm the package tests, screens with or prints.

    sqrt((x*x + y*y) + z*z): numpy sums three terms from the left, so this
    is the float path's math.sqrt(x * x + y * y + z * z), bit for bit, and
    np.linalg.norm's rounding too. A row too large to square gets the norm
    inf, one with a NaN component NaN, and neither warns.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        return np.sqrt((rows * rows).sum(axis=1))


def _row(v) -> tuple:
    """v as a row of three finite Python floats: every row check starts here.

    A v that does not convert and reshape to three floats is refused as
    "a row must be three floats, got v". A non-finite row's message shows
    it as BlochVector(x=..., y=..., z=...). Both are fixed texts that the
    CLI prints and the tests pin.
    """
    try:
        x, y, z = np.asarray(v, dtype=float).reshape(3).tolist()
    except (TypeError, ValueError):
        raise ValueError(f"a row must be three floats, got {v!r}") from None
    if not _finite(x, y, z):
        raise ValueError(
            f"Bloch vector components must be finite, got BlochVector(x={x!r}, y={y!r}, z={z!r})")
    return x, y, z


def _rows(vectors, ok=None, check=_row) -> np.ndarray:
    """vectors as a new (n, 3) float array.

    An (n, 3) array, or a sequence of 3-sequences, for which the vectorized
    test ok(rows) holds, as it does for every valid input, converts in one
    call. Anything else goes through check, a row check, row by row, so the
    first bad row raises its error.
    """
    try:
        rows = np.array(vectors, dtype=float, order="C")
        if rows.ndim == 2 and rows.shape[1] == 3 and (ok is None or ok(rows)):
            return rows
    except (TypeError, ValueError):
        pass
    return np.array([check(v) for v in vectors], dtype=float).reshape(-1, 3)


_SEQUENCES = (list, tuple)


def _as_floats(values) -> tuple | None:
    """values as Python floats, ints (not bools) through float(); None for any other value."""
    if all(type(x) is float or type(x) is int for x in values):
        try:
            return tuple(map(float, values))
        except OverflowError:  # an int too large for a float
            pass
    return None


def float_rows(rows) -> tuple | None:
    """rows as a tuple of (x, y, z) tuples of Python floats, or None.

    rows must hold at most FLOAT_ROWS rows of three floats or ints: lists or
    tuples of them, or an (n, 3) float64 array; anything else gives None,
    for the vectorized checks. A float test of a row's norm takes
    sqrt(x*x + y*y + z*z), which rounds as row_norms does.
    """
    if type(rows) is np.ndarray:
        ok = rows.dtype == np.float64 and rows.ndim == 2 and rows.shape[1] == 3
        return tuple(map(tuple, rows.tolist())) if ok and len(rows) <= FLOAT_ROWS else None
    if type(rows) not in _SEQUENCES or len(rows) > FLOAT_ROWS:
        return None
    out = []
    for row in rows:
        if type(row) not in _SEQUENCES or len(row) != 3:
            return None
        x, y, z = row
        if not (type(x) is float and type(y) is float and type(z) is float):
            row = _as_floats(row)
            if row is None:
                return None
        out.append(row if type(row) is tuple else (x, y, z))
    return tuple(out)


def float_values(values) -> tuple | None:
    """values as a tuple of at most FLOAT_ROWS floats (or ints): a list, tuple or float64 array; or None."""
    if type(values) is np.ndarray:
        ok = values.dtype == np.float64 and values.ndim == 1 and len(values) <= FLOAT_ROWS
        return tuple(values.tolist()) if ok else None
    if type(values) not in _SEQUENCES or len(values) > FLOAT_ROWS:
        return None
    values = tuple(values)
    for x in values:
        if type(x) is not float:
            return _as_floats(values)
    return values


def vector_matrix(vectors) -> np.ndarray:
    """3-sequences or an (n, 3) array as a new (n, 3) float array of finite rows."""
    return _rows(vectors)


def vector_array(vector) -> np.ndarray:
    """A 3-sequence as a new (3,) float array of finite values."""
    return _rows((vector,)).reshape(3)


def _in_ball(rows: np.ndarray) -> bool:
    return np.maximum.reduce(row_norms(rows), initial=0.0) <= 1.0 + STATE_NORM_TOL


def _state(v) -> tuple:
    """v as a row, refused outside the Bloch ball: a state's row check."""
    row = x, y, z = _row(v)
    n = math.sqrt(x * x + y * y + z * z)
    if n > 1.0 + STATE_NORM_TOL:
        raise ValueError(f"Bloch norm {n!r} exceeds 1 beyond tolerance {STATE_NORM_TOL}")
    return row


def _state_rows(vectors) -> np.ndarray:
    return _rows(vectors, _in_ball, _state)


def check_finite(point: np.ndarray, rows: np.ndarray) -> None:
    """Raise _row's error for a non-finite point, else for the first non-finite row.

    The certificate's finiteness check, on a (3,) common point and (n, 3)
    conjugates, which the constructor and the gate share.
    """
    if not (np.isfinite(point).all() and np.isfinite(rows).all()):
        for row in (point.tolist(), *rows.tolist()):
            _row(row)


def check_povm_elements(a: np.ndarray, v: np.ndarray) -> None:
    """Raise for the first element (a[k], v[k]) that is not a PSD operator, if any.

    One vectorized test passes every valid POVM; only when it fails are the
    elements checked one by one, on Python floats, each in order: v_k
    finite, a_k finite, a_k >= -PSD_TOL, a_k - |v_k| >= -PSD_TOL, on the
    norm row_norms gives.
    """
    if not (np.maximum.reduce(a, initial=0.0) < np.inf
            and np.minimum.reduce(a - row_norms(v), initial=np.inf) >= -PSD_TOL):
        for ak, vk in zip(a.tolist(), v.tolist()):
            x, y, z = _row(vk)
            norm = math.sqrt(x * x + y * y + z * z)
            if not math.isfinite(ak):
                raise ValueError("POVM element weight must be finite")
            if ak < -PSD_TOL:
                raise ValueError(f"POVM element has negative trace part a = {ak!r}")
            if ak - norm < -PSD_TOL:
                raise ValueError(
                    f"POVM element not PSD: a = {ak!r} < |v| = {norm!r} beyond {PSD_TOL}")


class _derived:
    """A value derived from an object on its first read, then kept in the object's __dict__.

    functools.cached_property without the lock it takes on each first read
    before Python 3.12, which costs more than the small values it guards
    here; two threads that race derive the same value.
    """

    def __init__(self, derive):
        self.derive, self.__doc__ = derive, derive.__doc__

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, record, owner=None):
        if record is None:
            return self
        value = record.__dict__[self.name] = self.derive(record)
        return value


def _plain(value):
    return tuple(value.ravel().tolist()) if isinstance(value, np.ndarray) else value


class ArrayRecord:
    """Base of the array-backed records: frozen, compared, hashed and printed by value.

    Subclasses are dataclasses with init, eq and repr off, whose fields are
    the constructor's arguments, each stored under its own name: ==, hash
    and repr go by those fields, arrays as flat tuples in repr, and
    dataclasses.replace runs the constructor's checks again. _store makes
    the arrays it stores read-only. Given a tuple of Python floats for an
    array field (the float path), it keeps the tuple instead, and
    __getattr__ builds the field's read-only array on its first read:
    np.fromiter of rows of three floats (half the time of np.array on
    nested tuples), np.array of a flat tuple; the bytes the vectorized
    code stores.
    """

    def _values(self) -> list:
        return [getattr(self, f.name) for f in fields(self)]

    def _store(self, **values) -> None:
        kept = {}
        for name, value in values.items():
            if type(value) is tuple:
                kept[name] = value
            elif isinstance(value, np.ndarray) and value.flags.writeable:
                value.setflags(write=False)
        if kept:
            for name in kept:
                del values[name]
            values["_floats"] = kept
        self.__dict__.update(values)

    def __getattr__(self, name):
        # reached only for a name not in __dict__: a derived value whose
        # derivation raised AttributeError, which Python drops before calling
        # here (deriving again raises it), or an array field kept as floats
        derived = getattr(type(self), name, None)
        if isinstance(derived, _derived):
            return derived.__get__(self)
        value = self._stored(name)
        if value and type(value[0]) is tuple:  # rows of three floats
            array = np.fromiter(chain.from_iterable(value), float, 3 * len(value)).reshape(-1, 3)
        else:
            array = np.array(value)
        array.setflags(write=False)
        self.__dict__[name] = array
        return array

    def _stored(self, name: str):
        """Field `name` as stored, its kept floats or its array; AttributeError without it.

        The float path keeps every array field of its record, or none.
        """
        try:
            return self.__dict__.get("_floats", self.__dict__)[name]
        except KeyError:
            raise AttributeError(
                f"{type(self).__name__!r} object has no attribute {name!r}") from None

    def _floats_of(self, name: str):
        """Field `name` as Python floats, nested by row: its kept tuple, or its array's tolist()."""
        value = self._stored(name)
        return value if type(value) is tuple else value.tolist()

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return all(map(np.array_equal, self._values(), other._values()))

    def __hash__(self):
        return hash(tuple(map(_plain, self._values())))

    def __repr__(self):
        shown = ", ".join(f"{f.name}={_plain(value)!r}"
                          for f, value in zip(fields(self), self._values()))
        return f"{type(self).__name__}({shown})"


def _split_pairs(entries) -> tuple:
    """(priors, Bloch rows) of (prior, state) pairs, entry by entry."""
    priors, rows = [], []
    try:
        for k, pair in enumerate(entries):
            try:
                prior, state = pair
            except (TypeError, ValueError):
                raise ValueError(f"entry {k} is not a (prior, state) pair") from None
            rows.append(state)
            priors.append(float(prior))
    except (TypeError, ValueError):
        _state_rows(rows)  # a bad state before the bad entry comes first
        raise
    return priors, rows


@dataclass(init=False, eq=False, repr=False)
class WeightedEnsemble(ArrayRecord):
    """Priors summing to one and the Bloch vectors of the states.

    Stored as read-only arrays priors (n,), bloch_matrix (n, 3) and
    weighted_points (n, 3), row i = p_i b_i, the points the geometry runs on,
    with max_prior, the largest prior as a float.
    Priors must lie strictly inside (0, 1): a zero-prior state carries no
    information and a unit-prior state makes discrimination trivial, and
    several downstream ratios divide by quantities that vanish exactly
    there.
    """

    priors: np.ndarray
    bloch_matrix: np.ndarray

    # (priors, Bloch rows, weighted rows) as Python floats, for the float
    # path; read them, never modify them
    lists = _derived(lambda self: tuple(
        map(self._floats_of, ("priors", "bloch_matrix", "weighted_points"))))
    # the same three in the form the record holds: its kept floats (lists)
    # or its arrays, which the solvers tell apart by type
    held = _derived(lambda self: self.lists if "_floats" in vars(self) else (
        self.priors, self.bloch_matrix, self.weighted_points))
    n = _derived(lambda self: len(self._stored("priors")))

    def __init__(self, priors, bloch_matrix, renormalize: bool = False) -> None:
        """Check, in order: each Bloch vector; with renormalize=True, divide the
        priors by their sum; at least two states; each prior in (0, 1); sum 1."""
        if self._accept_floats(priors, bloch_matrix, renormalize):
            return
        bloch = _state_rows(bloch_matrix)
        priors = np.array(priors, dtype=float)
        if priors.shape != (len(bloch),):
            raise ValueError(f"{priors.size} priors for {len(bloch)} states")
        if renormalize:
            total = _fsum(priors.tolist())
            if total <= 0.0 or not math.isfinite(total):
                raise ValueError(f"cannot renormalize priors with sum {total!r}")
            priors = priors / total
        if len(priors) < 2:
            raise ValueError("an ensemble needs at least two states")
        values = priors.tolist()
        for k, prior in enumerate(values):
            if not 0.0 < prior < 1.0:
                raise ValueError(f"entry {k}: prior {prior!r} outside the open interval (0, 1)")
        total = math.fsum(values)
        if abs(total - 1.0) > PRIOR_SUM_TOL:
            raise ValueError(f"priors sum to {total!r}, not 1 within {PRIOR_SUM_TOL}")
        self._store(priors=priors, bloch_matrix=bloch, weighted_points=priors[:, None] * bloch,
                    max_prior=max(values))

    def _accept_floats(self, priors, bloch_matrix, renormalize: bool) -> bool:
        """The constructor's checks on Python floats; False leaves them to the vectorized code.

        Keeps the floats of the arrays the constructor would store.
        """
        rows = float_rows(bloch_matrix)
        values = float_values(priors)
        if rows is None or values is None or not 2 <= len(values) == len(rows):
            return False
        bound = 1.0 + STATE_NORM_TOL
        for x, y, z in rows:
            if not math.sqrt(x * x + y * y + z * z) <= bound:
                return False
        if renormalize:
            total = _fsum(values)
            if not 0.0 < total < math.inf:
                return False
            values = tuple([x / total for x in values])
        for x in values:
            if not 0.0 < x < 1.0:
                return False
        if not abs(math.fsum(values) - 1.0) <= PRIOR_SUM_TOL:
            return False
        weighted = tuple([(p * x, p * y, p * z) for p, (x, y, z) in zip(values, rows)])
        self._store(priors=values, bloch_matrix=rows, weighted_points=weighted,
                    max_prior=max(values))
        # lists and held are these tuples, kept now: every solve reads them,
        # and deriving them on that first read costs more than storing them
        self.__dict__["lists"] = self.__dict__["held"] = (values, rows, weighted)
        return True


def validate_ensemble(raw_entries: Iterable, renormalize: bool = False) -> WeightedEnsemble:
    """Build a WeightedEnsemble from loose (prior, bloch-like) pairs.

    Each entry's state is a length-3 sequence of floats. With
    renormalize=True, priors are divided by their sum before the sum-to-one
    check (the individual range checks still apply), which is what the CLI
    flag of the same name feeds.
    """
    return WeightedEnsemble(*_split_pairs(raw_entries), renormalize=renormalize)


class PovmElement(NamedTuple):
    """One element Pi = a*I + v.sigma of a Povm, as Povm.elements reads it: a view, unchecked."""

    a: float
    v: tuple


@dataclass(init=False, eq=False, repr=False)
class Povm(ArrayRecord):
    """A complete measurement: elements sum to the identity within COMPLETENESS_TOL.

    Stored as read-only arrays a (n,) and v (n, 3), Pi_i = a_i I + v_i.sigma.
    The gate builds a solver's measurement in the pass that certifies it and
    stores it through _from_gate, which checks nothing twice.
    """

    a: np.ndarray
    v: np.ndarray

    # (a, v rows) as Python floats, for the float path; never modify them
    lists = _derived(lambda self: (self._floats_of("a"), self._floats_of("v")))
    elements = _derived(lambda self: tuple(
        PovmElement(a, tuple(v)) for a, v in zip(*self.lists)))
    n = _derived(lambda self: len(self._stored("a")))

    def __init__(self, a, v) -> None:
        """Check every element (a_k >= |v_k|), then completeness, vectorized."""
        a = np.array(a, dtype=float)
        v = _rows(v)
        if not len(v):
            raise ValueError("a POVM needs at least one element")
        if a.shape != (len(v),):
            raise ValueError(f"{a.size} trace parts for {len(v)} vector parts")
        check_povm_elements(a, v)
        a_sum = _fsum(a.tolist())
        if abs(a_sum - 1.0) > COMPLETENESS_TOL:
            raise ValueError(f"POVM incomplete: sum of a is {a_sum!r}, not 1 within {COMPLETENESS_TOL}")
        v_sum = np.add.reduce(v, 0)
        if math.sqrt(v_sum @ v_sum) > COMPLETENESS_TOL:
            raise ValueError(
                f"POVM incomplete: vector parts sum to {tuple(v_sum.tolist())!r}, not 0 within {COMPLETENESS_TOL}"
            )
        self._store(a=a, v=v)

    @classmethod
    def _from_gate(cls, a: tuple, v: tuple) -> "Povm":
        """The measurement of family.assemble_result, whose pass ran the constructor's
        tests on the tuples of floats it built, stored with no check of its own."""
        record = cls.__new__(cls)
        record._store(a=a, v=v)
        return record


@dataclass(init=False, eq=False, repr=False)
class HelstromCertificate(ArrayRecord):
    """The data certifying a claimed optimum: ratio p, common point, conjugates, multipliers.

    (p, common_point) is the dual point Y = (p I + r.sigma)/2 of the
    weak-duality gate family.assemble_result, which builds every solver's
    certificate (recover_povm's too) with trace_multipliers. Constructor checks are
    structural (shapes, ranges, finiteness). Whether the certificate
    actually certifies an optimum is judged by that gate and, as a
    diagnostic, by the KKT report, which must be able to receive deliberately
    broken certificates and grade them, so optimality itself is not a
    construction invariant here. common_point is stored as a read-only (3,)
    array, conjugates as a read-only (n, 3) array, and scaled_priors and
    lambdas as read-only (n,) arrays, copies of what the constructor is given;
    a certificate of the gate's float path keeps its floats as immutable
    tuples instead and builds each array on its first read.
    pure_mask, |c_i| >= 1 - PURITY_TOL, is derived from the conjugates on
    first access: not a constructor argument, and not part of ==, hash or repr.
    The constructor runs its checks once, in order, and raises for the
    first that fails. The gate runs these checks on its own quantities, on
    floats or vectorized, and stores its certificate through _from_gate, so
    they do not run a second time.

    degenerate marks a measurement that does no better than guessing,
    success <= max prior + DEGENERACY_TOL: the guess regime, where the
    measurement has a single identity element, the multipliers vanish (up
    to the oracle's pivot window, by which its p may exceed the guess
    value) and no orthogonality witness exists.
    """

    p: float
    common_point: np.ndarray
    conjugates: np.ndarray
    scaled_priors: np.ndarray
    lambdas: np.ndarray
    degenerate: bool = False

    # (common_point, conjugates, scaled_priors, lambdas) as Python floats, for
    # the float path; read them, never modify them
    lists = _derived(lambda self: tuple(
        map(self._floats_of, ("common_point", "conjugates", "scaled_priors", "lambdas"))))
    n = _derived(lambda self: len(self._stored("conjugates")))

    def __init__(self, p, common_point, conjugates, scaled_priors, lambdas,
                 degenerate: bool = False) -> None:
        """Check, in order: a finite common point and finite conjugates, equal
        lengths, at least two states, p in (0, 1], scaled priors in (0, 1],
        finite multipliers."""
        p = float(p)
        r = vector_array(common_point)
        conj = vector_matrix(conjugates)
        scaled = np.array(scaled_priors, dtype=float)
        lams = np.array(lambdas, dtype=float)
        check_finite(r, conj)
        if not len(conj) == len(scaled) == len(lams):
            raise ValueError("certificate field lengths disagree")
        if len(conj) < 2:
            raise ValueError("a certificate covers at least two states")
        if not 0.0 < p <= 1.0 + RATIO_SLACK:
            raise ValueError(f"ratio p = {p!r} outside (0, 1]")
        for k, t in enumerate(scaled.tolist()):
            if not 0.0 < t <= 1.0 + RATIO_SLACK:
                raise ValueError(f"scaled prior {k} is {t!r}, outside (0, 1]")
        if not np.isfinite(lams).all():
            raise ValueError("multipliers must be finite")
        self._store(p=p, common_point=r, conjugates=conj, scaled_priors=scaled,
                    lambdas=lams, degenerate=bool(degenerate))

    @classmethod
    def _from_gate(cls, p: float, common_point: np.ndarray, conjugates: np.ndarray,
                   scaled_priors: np.ndarray, lambdas: np.ndarray,
                   degenerate: bool) -> "HelstromCertificate":
        """The certificate of family.assemble_result, stored with no check of its own.

        The gate has run the constructor's checks on the quantities it
        derived: check_finite, or float tests that a non-finite value fails,
        gave finiteness, and it tested the lengths, p and the scaled priors,
        and let the constructor refuse whatever failed. It passes float
        arrays of matching lengths that it built itself and keeps no
        reference to, or the tuples of floats it checked, which the record
        keeps (ArrayRecord).
        """
        record = cls.__new__(cls)
        record._store(p=p, common_point=common_point, conjugates=conjugates,
                      scaled_priors=scaled_priors, lambdas=lambdas, degenerate=degenerate)
        return record

    @_derived
    def pure_mask(self) -> np.ndarray:
        """Which conjugates are pure, |c_i| >= 1 - PURITY_TOL, as a read-only (n,) bool array."""
        mask = row_norms(self.conjugates) >= 1.0 - PURITY_TOL
        self._store(pure_mask=mask)
        return mask


@dataclass(frozen=True)
class DiscriminationResult:
    """Everything a solve returns; `kkt` grades the certificate on first access."""

    povm: Povm
    certificate: HelstromCertificate
    method: str
    ensemble: WeightedEnsemble = field(repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.method not in METHODS:
            raise ValueError(f"unknown method tag {self.method!r}")
        if self.povm.n != self.certificate.n:
            raise ValueError("POVM and certificate cover different numbers of states")

    @property
    def p_opt(self) -> float:
        """The optimal success probability: the certificate's p, the one place it is stored."""
        return self.certificate.p

    @_derived
    def kkt(self) -> "KktReport":
        from .kkt import kkt_residuals  # kkt imports this module
        return kkt_residuals(self.ensemble, self.certificate, self.povm)
