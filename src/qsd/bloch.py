"""Bloch-vector data model for qubit ensembles, POVMs and discrimination results.

Every object the solvers exchange lives here. A qubit density operator is
represented by its Bloch vector b, rho = (I + b.sigma)/2 with |b| <= 1, and
a POVM element by a pair (a, v), Pi = a*I + v.sigma, which is positive
semidefinite exactly when a >= |v|. Complex 2x2 matrices appear nowhere in
the data model; the test suite builds them only as an independent check of
the trace identity tr(rho Pi) = a + b.v and of the dual certificate.

Shared tolerance constants are pinned here so that every module, the tests
and the CLI report all quote the same numbers.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence, TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from .kkt import KktReport

# Input validation.
STATE_NORM_TOL = 1e-12    # |b| may exceed 1 by at most this
PRIOR_SUM_TOL = 1e-12     # priors must sum to 1 within this
PSD_TOL = 1e-12           # a - |v| >= -PSD_TOL for a POVM element
COMPLETENESS_TOL = 1e-10  # |sum a - 1| and |sum v| within this

# Certificate classification and verification.
PURITY_TOL = 1e-9         # |c| >= 1 - PURITY_TOL marks a conjugate as pure
FAMILY_TOL = 1e-9         # common-point residual across the family
ORTHOGONALITY_TOL = 1e-9  # tr(tau_i Pi_i) for nonzero elements
BOUND_SLACK = 1e-8        # success may exceed a family ratio p by at most this
SUCCESS_TOL = 1e-8        # |success(povm) - p_opt|
CERT_P_TOL = 1e-10        # |p_opt - certificate.p|
KKT_TOL = 1e-8            # every KKT residual at a reported optimum
DEGENERACY_TOL = 1e-12    # p - max prior below this marks the guess regime

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


@dataclass(frozen=True)
class BlochVector:
    """A point in the Bloch ball, or any real 3-vector used as one.

    The class itself does not cap the norm; QubitState does. That keeps it
    reusable for conjugate directions, POVM vector parts and common points.
    """

    x: float
    y: float
    z: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "x", float(self.x))
        object.__setattr__(self, "y", float(self.y))
        object.__setattr__(self, "z", float(self.z))
        if not _finite(self.x, self.y, self.z):
            raise ValueError(f"Bloch vector components must be finite, got {self}")

    @classmethod
    def from_array(cls, arr: Sequence[float]) -> "BlochVector":
        a = np.asarray(arr, dtype=float).reshape(3)
        return cls(a[0], a[1], a[2])

    def as_array(self) -> np.ndarray:
        return np.array([self.x, self.y, self.z], dtype=float)

    def norm(self) -> float:
        return math.hypot(self.x, self.y, self.z)

    def dot(self, other: "BlochVector") -> float:
        return self.x * other.x + self.y * other.y + self.z * other.z

    def __iter__(self):
        return iter((self.x, self.y, self.z))


ZERO_VECTOR = BlochVector(0.0, 0.0, 0.0)


@dataclass(frozen=True)
class QubitState:
    """A qubit density operator rho = (I + bloch.sigma)/2, so |bloch| <= 1."""

    bloch: BlochVector

    def __post_init__(self) -> None:
        if not isinstance(self.bloch, BlochVector):
            object.__setattr__(self, "bloch", BlochVector.from_array(self.bloch))
        n = self.bloch.norm()
        if n > 1.0 + STATE_NORM_TOL:
            raise ValueError(f"Bloch norm {n!r} exceeds 1 beyond tolerance {STATE_NORM_TOL}")

    @property
    def is_pure(self) -> bool:
        return self.bloch.norm() >= 1.0 - PURITY_TOL


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class WeightedEnsemble:
    """An ordered tuple of (prior, state) pairs with priors summing to one.

    Priors must lie strictly inside (0, 1): a zero-prior state carries no
    information and a unit-prior state makes discrimination trivial, and
    several downstream ratios divide by quantities that vanish exactly
    there.

    priors, bloch_matrix and weighted_points are computed on first access
    and shared from then on as read-only arrays; they take no part in
    ==, hash or repr.
    """

    entries: tuple

    def __post_init__(self) -> None:
        entries = tuple(self.entries)
        if len(entries) < 2:
            raise ValueError("an ensemble needs at least two states")
        for k, pair in enumerate(entries):
            if len(pair) != 2:
                raise ValueError(f"entry {k} is not a (prior, state) pair")
            prior, state = pair
            if not isinstance(state, QubitState):
                raise ValueError(f"entry {k}: state must be a QubitState")
            prior = float(prior)
            if not math.isfinite(prior) or not (0.0 < prior < 1.0):
                raise ValueError(f"entry {k}: prior {prior!r} outside the open interval (0, 1)")
        entries = tuple((float(p), s) for p, s in entries)
        total = math.fsum(p for p, _ in entries)
        if abs(total - 1.0) > PRIOR_SUM_TOL:
            raise ValueError(f"priors sum to {total!r}, not 1 within {PRIOR_SUM_TOL}")
        object.__setattr__(self, "entries", entries)

    @property
    def n(self) -> int:
        return len(self.entries)

    @functools.cached_property
    def priors(self) -> np.ndarray:
        return _read_only(np.array([p for p, _ in self.entries], dtype=float))

    @functools.cached_property
    def bloch_matrix(self) -> np.ndarray:
        """Row i is the Bloch vector of state i, shape (n, 3)."""
        return _read_only(np.array([list(s.bloch) for _, s in self.entries], dtype=float))

    @functools.cached_property
    def weighted_points(self) -> np.ndarray:
        """Row i is prior_i * bloch_i, the points the geometry runs on."""
        return _read_only(self.priors[:, None] * self.bloch_matrix)

    def states(self) -> tuple:
        return tuple(s for _, s in self.entries)


def validate_ensemble(raw_entries: Iterable, renormalize: bool = False) -> WeightedEnsemble:
    """Build a WeightedEnsemble from loose (prior, bloch-like) pairs.

    Each entry may carry a QubitState, a BlochVector or any length-3 float
    sequence. With renormalize=True, priors are divided by their sum before
    the sum-to-one check (the individual range checks still apply), which is
    what the CLI flag of the same name feeds.
    """
    pairs = []
    for k, pair in enumerate(raw_entries):
        try:
            prior, state = pair
        except (TypeError, ValueError):
            raise ValueError(f"entry {k} is not a (prior, state) pair") from None
        if not isinstance(state, QubitState):
            if not isinstance(state, BlochVector):
                state = BlochVector.from_array(state)
            state = QubitState(state)
        pairs.append((float(prior), state))
    if renormalize:
        total = math.fsum(p for p, _ in pairs)
        if total <= 0.0 or not math.isfinite(total):
            raise ValueError(f"cannot renormalize priors with sum {total!r}")
        pairs = [(p / total, s) for p, s in pairs]
    return WeightedEnsemble(tuple(pairs))


@dataclass(frozen=True)
class PovmElement:
    """One measurement effect Pi = a*I + v.sigma with 0 <= Pi <= I enforced on the a >= |v| side."""

    a: float
    v: BlochVector

    def __post_init__(self) -> None:
        object.__setattr__(self, "a", float(self.a))
        if not isinstance(self.v, BlochVector):
            object.__setattr__(self, "v", BlochVector.from_array(self.v))
        if not math.isfinite(self.a):
            raise ValueError("POVM element weight must be finite")
        if self.a < -PSD_TOL:
            raise ValueError(f"POVM element has negative trace part a = {self.a!r}")
        if self.a - self.v.norm() < -PSD_TOL:
            raise ValueError(
                f"POVM element not PSD: a = {self.a!r} < |v| = {self.v.norm()!r} beyond {PSD_TOL}"
            )

    @property
    def trace(self) -> float:
        return 2.0 * self.a

    def is_zero(self, tol: float = 1e-14) -> bool:
        return self.a <= tol


@dataclass(frozen=True)
class Povm:
    """A complete measurement: elements sum to the identity within COMPLETENESS_TOL."""

    elements: tuple

    def __post_init__(self) -> None:
        elements = tuple(self.elements)
        if not elements:
            raise ValueError("a POVM needs at least one element")
        for k, el in enumerate(elements):
            if not isinstance(el, PovmElement):
                raise ValueError(f"element {k} is not a PovmElement")
        a_sum = math.fsum(el.a for el in elements)
        v_sum = np.sum([el.v.as_array() for el in elements], axis=0)
        if abs(a_sum - 1.0) > COMPLETENESS_TOL:
            raise ValueError(f"POVM incomplete: sum of a is {a_sum!r}, not 1 within {COMPLETENESS_TOL}")
        if float(np.linalg.norm(v_sum)) > COMPLETENESS_TOL:
            raise ValueError(
                f"POVM incomplete: vector parts sum to {tuple(v_sum)!r}, not 0 within {COMPLETENESS_TOL}"
            )
        object.__setattr__(self, "elements", elements)

    @property
    def n(self) -> int:
        return len(self.elements)

    def a_values(self) -> np.ndarray:
        return np.array([el.a for el in self.elements], dtype=float)

    def v_matrix(self) -> np.ndarray:
        return np.array([list(el.v) for el in self.elements], dtype=float)


@dataclass(frozen=True)
class HelstromCertificate:
    """The data certifying a claimed optimum: ratio p, common point, conjugates, multipliers.

    (p, common_point) is the dual point Y = (p I + r.sigma)/2 of the
    weak-duality gate in family.assemble_result. Constructor checks are
    structural (shapes, ranges, purity bookkeeping). Whether the certificate
    actually certifies an optimum is judged by that gate and, as a
    diagnostic, by the KKT report, which must be able to receive deliberately
    broken certificates and grade them, so optimality itself is not a
    construction invariant here.

    degenerate marks a measurement that does no better than guessing,
    success <= max prior + DEGENERACY_TOL: the guess regime, where the
    measurement has a single identity element, the multipliers vanish (up
    to the oracle's tol, by which its p may exceed the guess value) and no
    orthogonality witness exists.
    """

    p: float
    common_point: BlochVector
    conjugates: tuple
    scaled_priors: tuple
    lambdas: tuple
    pure_mask: tuple
    degenerate: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(self, "p", float(self.p))
        if not isinstance(self.common_point, BlochVector):
            object.__setattr__(self, "common_point", BlochVector.from_array(self.common_point))
        conj = tuple(
            c if isinstance(c, BlochVector) else BlochVector.from_array(c) for c in self.conjugates
        )
        scaled = tuple(float(t) for t in self.scaled_priors)
        lams = tuple(float(l) for l in self.lambdas)
        mask = tuple(bool(m) for m in self.pure_mask)
        if not (len(conj) == len(scaled) == len(lams) == len(mask)):
            raise ValueError("certificate field lengths disagree")
        if len(conj) < 2:
            raise ValueError("a certificate covers at least two states")
        if not math.isfinite(self.p) or not (0.0 < self.p <= 1.0 + 1e-12):
            raise ValueError(f"ratio p = {self.p!r} outside (0, 1]")
        for k, t in enumerate(scaled):
            if not math.isfinite(t) or not (0.0 < t <= 1.0 + 1e-12):
                raise ValueError(f"scaled prior {k} is {t!r}, outside (0, 1]")
        if not _finite(*lams):
            raise ValueError("multipliers must be finite")
        for k, (c, m) in enumerate(zip(conj, mask)):
            if (c.norm() >= 1.0 - PURITY_TOL) != m:
                raise ValueError(
                    f"pure_mask[{k}] = {m} contradicts |c_{k}| = {c.norm()!r} at tolerance {PURITY_TOL}"
                )
        object.__setattr__(self, "conjugates", conj)
        object.__setattr__(self, "scaled_priors", scaled)
        object.__setattr__(self, "lambdas", lams)
        object.__setattr__(self, "pure_mask", mask)

    @property
    def n(self) -> int:
        return len(self.conjugates)

    def conjugate_matrix(self) -> np.ndarray:
        return np.array([list(c) for c in self.conjugates], dtype=float)


@dataclass(frozen=True)
class DiscriminationResult:
    """Everything a solve returns; `kkt` grades the certificate on first access."""

    p_opt: float
    povm: Povm
    certificate: HelstromCertificate
    method: str
    ensemble: WeightedEnsemble = field(repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "p_opt", float(self.p_opt))
        if self.method not in METHODS:
            raise ValueError(f"unknown method tag {self.method!r}")
        if abs(self.p_opt - self.certificate.p) > CERT_P_TOL:
            raise ValueError(
                f"p_opt = {self.p_opt!r} disagrees with certificate.p = {self.certificate.p!r}"
            )
        if self.povm.n != self.certificate.n:
            raise ValueError("POVM and certificate cover different numbers of states")

    @functools.cached_property
    def kkt(self) -> "KktReport":
        from .kkt import kkt_residuals  # kkt imports this module
        return kkt_residuals(self.ensemble, self.certificate, self.povm)
