"""Core types: vectors, states, POVM elements, ensemble validation."""

import dataclasses
import math
import warnings
from copy import deepcopy
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qsd
from qsd import bloch, cli
from qsd.bloch import (
    COMPLETENESS_TOL,
    KKT_TOL,
    PSD_TOL,
    PURITY_TOL,
    STATE_NORM_TOL,
    Povm,
    PovmElement,
    WeightedEnsemble,
)
from qsd.kkt import KktReport
from helpers import density_matrix, operator_matrix


def _padded(rows, n):
    """rows, then _UP up to n rows, as an array."""
    return np.array(list(rows) + [_UP] * (n - len(rows)))


def test_state_accepts_boundary_and_rejects_outside():
    # on Python floats (2 rows, as a list and as an array) and vectorized
    # (FLOAT_ROWS + 1 rows), a state may leave the ball by STATE_NORM_TOL
    many = bloch.FLOAT_ROWS + 1
    for n, rows in ((2, lambda x: [(x, 0.0, 0.0), _UP]),
                    (2, lambda x: _padded([(x, 0.0, 0.0)], 2)),
                    (many, lambda x: _padded([(x, 0.0, 0.0)], many))):
        priors = [1.0 / n] * n
        for x in (1.0, 1.0 + 1e-13):
            ens = WeightedEnsemble(priors, rows(x))
            assert ("_floats" in vars(ens)) == (n == 2)
        with pytest.raises(ValueError) as info:
            WeightedEnsemble(priors, rows(1.0 + 1e-11))
        assert str(info.value) == "Bloch norm 1.00000000001 exceeds 1 beyond tolerance 1e-12"


def test_povm_element_psd_boundary():
    # a POVM element may leave the PSD cone by PSD_TOL, with 2 elements and
    # with FLOAT_ROWS + 1 (the rest zero); Povm(a, v) checks vectorized
    for n in (2, bloch.FLOAT_ROWS + 1):
        def povm(a, x):
            rest = n - 2
            return Povm(list(a) + [0.0] * rest, [(x, 0.0, 0.0), (-x, 0.0, 0.0)] + [_ZERO] * rest)

        for x in (0.5, 0.5 + 1e-13):
            assert "_floats" not in vars(povm((0.5, 0.5), x))
        with pytest.raises(ValueError) as info:
            povm((0.5, 0.5), 0.5 + 1e-11)
        assert str(info.value) == "POVM element not PSD: a = 0.5 < |v| = 0.50000000001 beyond 1e-12"
        with pytest.raises(ValueError) as info:
            povm((-1e-11, 1.0 + 1e-11), 0.0)
        assert str(info.value) == "POVM element has negative trace part a = -1e-11"


def test_povm_completeness_enforced():
    Povm((0.5, 0.5), ((0.0, 0.0, 0.5), (0.0, 0.0, -0.5)))
    with pytest.raises(ValueError):
        Povm((0.4, 0.5), np.zeros((2, 3)))
    with pytest.raises(ValueError):
        Povm((0.5, 0.5), ((0.0, 0.0, 0.5), (0.0, 0.0, -0.3)))


def test_ensemble_prior_validation():
    with pytest.raises(ValueError):
        qsd.validate_ensemble([(0.6, (0, 0, 1)), (0.5, (0, 0, -1))])
    with pytest.raises(ValueError):
        qsd.validate_ensemble([(1.2, (0, 0, 1)), (-0.2, (0, 0, -1))])
    with pytest.raises(ValueError):
        qsd.validate_ensemble([(1.0, (0, 0, 1))])


def test_ensemble_renormalize():
    ens = qsd.validate_ensemble(
        [(0.3, (0, 0, 1)), (0.3, (0, 0, -1))], renormalize=True
    )
    assert math.isclose(math.fsum(ens.priors), 1.0, abs_tol=1e-15)
    assert ens.priors[0] == pytest.approx(0.5)


def test_ensemble_weighted_points():
    ens = qsd.validate_ensemble([(0.3, (1, 0, 0)), (0.7, (0, 0, -1))])
    q = ens.weighted_points
    assert np.allclose(q[0], [0.3, 0.0, 0.0])
    assert np.allclose(q[1], [0.0, 0.0, -0.7])


def test_ensemble_arrays_are_cached_and_read_only():
    ens = qsd.validate_ensemble([(0.3, (1, 0, 0)), (0.7, (0, 0, -1))])
    same = qsd.validate_ensemble([(0.3, (1, 0, 0)), (0.7, (0, 0, -1))])
    for name in ("priors", "bloch_matrix", "weighted_points"):
        arr = getattr(ens, name)
        assert getattr(ens, name) is arr
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 0.0
    assert ens == same and hash(ens) == hash(same) and repr(ens) == repr(same)


finite3 = st.tuples(
    st.floats(-1.0, 1.0), st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)
)


@settings(max_examples=60, deadline=None)
@given(a=st.floats(0.0, 2.0), v=finite3)
def test_povm_psd_matches_eigenvalues(a, v):
    """a >= |v| iff a*I + v.sigma is PSD; check against explicit eigenvalues."""
    norm = math.hypot(*v)
    eigs = np.linalg.eigvalsh(operator_matrix(a, v))
    psd = eigs.min() >= -1e-12
    accepted = a - norm >= -PSD_TOL
    if psd != accepted:
        # only allowed to disagree inside the tolerance collar
        assert abs(a - norm) <= 1e-10


@settings(max_examples=60, deadline=None)
@given(b=finite3, a=st.floats(0.0, 1.0), v=finite3)
def test_trace_identity(b, a, v):
    """tr(rho Pi) = a + b.v in Bloch coordinates."""
    bv = np.asarray(b, dtype=float)
    n = np.linalg.norm(bv)
    if n > 1.0:
        bv = bv / n
    lhs = float(np.trace(density_matrix(bv) @ operator_matrix(a, v)).real)
    rhs = a + float(bv @ np.asarray(v))
    assert abs(lhs - rhs) <= 1e-12


def test_tolerance_constants_pinned():
    assert STATE_NORM_TOL == 1e-12
    assert PSD_TOL == 1e-12
    assert COMPLETENESS_TOL == 1e-10
    assert PURITY_TOL == 1e-9
    assert KKT_TOL == 1e-8
    # the rows that merged several modules' constants, each at their common value
    assert bloch.ZERO_TOL == 1e-15
    assert bloch.NEG_WEIGHT_TOL == 1e-12
    assert bloch.AXIS_TOL == 1e-12
    assert bloch.FEAS_TOL == 1e-10
    assert bloch.NORM_FLOOR == 1e-12
    # the rows that took over a second duty of another constant, at its value
    assert bloch.BALL_SLACK == 1e-9
    assert bloch.DOT_SLACK == 1e-9
    assert bloch.SPREAD_TOL == 1e-9
    assert bloch.RATIO_SLACK == 1e-12
    assert bloch.ROOT_TOL == 1e-12


def _certificate(**changes):
    fields = dict(
        p=0.8,
        common_point=(0.0, 0.0, 0.0),
        conjugates=((0.0, 0.0, 1.0), (0.0, 0.0, -1.0)),
        scaled_priors=(0.5, 0.5),
        lambdas=(0.1, 0.1),
    )
    fields.update(changes)
    return qsd.HelstromCertificate(**fields)


_NAN, _INF = float("nan"), float("inf")
_UP, _DOWN, _X = (0.0, 0.0, 1.0), (0.0, 0.0, -1.0), (1.0, 0.0, 0.0)
_ZERO = (0.0, 0.0, 0.0)
_HUGE = (1e200, 0.0, 0.0)  # a row too large to square: its norm is inf

_MANY = bloch.FLOAT_ROWS + 1
_HALVES = Povm((0.5, 0.5), ((0.0, 0.0, 0.5), (0.0, 0.0, -0.5)))

# (id, call, exact message); every one raises ValueError. A row that is not
# three floats gets bloch's own message on both record paths, not numpy's.
ERROR_TABLE = [
    ("ensemble-non-pair",
     lambda: qsd.validate_ensemble([(0.5, _UP), (0.5, _DOWN, 7)]),
     "entry 1 is not a (prior, state) pair"),
    ("ensemble-nan-component",
     lambda: qsd.validate_ensemble([(0.0, _UP), (0.5, (0.0, _NAN, 0.0)), (0.5, _DOWN)]),
     "Bloch vector components must be finite, got BlochVector(x=0.0, y=nan, z=0.0)"),
    ("ensemble-ragged-row",
     lambda: qsd.validate_ensemble([(0.5, _UP), (0.5, (0.0, 0.0))]),
     "a row must be three floats, got (0.0, 0.0)"),
    ("ensemble-non-numeric-row",
     lambda: qsd.validate_ensemble([(0.5, _UP), (0.5, ("x", 0.0, 0.0))]),
     "a row must be three floats, got ('x', 0.0, 0.0)"),
    ("ensemble-none-row",
     lambda: qsd.validate_ensemble([(0.5, _UP), (0.5, None)]),
     "a row must be three floats, got None"),
    ("ensemble-ragged-row-above-float-rows",
     lambda: WeightedEnsemble([1.0 / _MANY] * _MANY, [_UP] * (_MANY - 1) + [(0.0, 0.0)]),
     "a row must be three floats, got (0.0, 0.0)"),
    ("ensemble-non-numeric-row-above-float-rows",
     lambda: WeightedEnsemble([1.0 / _MANY] * _MANY, [_UP] * (_MANY - 1) + [("x", 0.0, 0.0)]),
     "a row must be three floats, got ('x', 0.0, 0.0)"),
    ("ensemble-none-row-above-float-rows",
     lambda: WeightedEnsemble([1.0 / _MANY] * _MANY, [_UP] * (_MANY - 1) + [None]),
     "a row must be three floats, got None"),
    ("ensemble-nan-component-above-float-rows",
     lambda: WeightedEnsemble([1.0 / _MANY] * _MANY, [_UP] * (_MANY - 1) + [(_NAN, 0.0, 0.0)]),
     "Bloch vector components must be finite, got BlochVector(x=nan, y=0.0, z=0.0)"),
    ("ensemble-norm-above-float-rows",
     lambda: WeightedEnsemble([1.0 / _MANY] * _MANY, [_UP] * (_MANY - 1) + [(0.0, 2.0, 0.0)]),
     "Bloch norm 2.0 exceeds 1 beyond tolerance 1e-12"),
    ("ensemble-overflowing-state",
     lambda: qsd.validate_ensemble([(0.5, _UP), (0.5, _HUGE)]),
     "Bloch norm inf exceeds 1 beyond tolerance 1e-12"),
    ("ensemble-overflowing-state-above-float-rows",
     lambda: WeightedEnsemble([1.0 / _MANY] * _MANY, [_UP] * (_MANY - 1) + [_HUGE]),
     "Bloch norm inf exceeds 1 beyond tolerance 1e-12"),
    ("ensemble-prior-count",
     lambda: WeightedEnsemble([0.3, 0.3, 0.4], [_UP, _DOWN]),
     "3 priors for 2 states"),
    ("ensemble-norm-at-index-2-before-prior-0",
     lambda: qsd.validate_ensemble([(0.0, _UP), (0.3, _DOWN), (0.4, (1.0 + 1e-11, 0.0, 0.0))]),
     "Bloch norm 1.00000000001 exceeds 1 beyond tolerance 1e-12"),
    ("ensemble-state-before-renormalize",
     lambda: qsd.validate_ensemble([(0.0, _UP), (0.0, (2.0, 0.0, 0.0))], renormalize=True),
     "Bloch norm 2.0 exceeds 1 beyond tolerance 1e-12"),
    ("ensemble-single-state",
     lambda: qsd.validate_ensemble([(1.0, _UP)]),
     "an ensemble needs at least two states"),
    ("ensemble-single-state-after-its-norm",
     lambda: qsd.validate_ensemble([(1.0, (2.0, 0.0, 0.0))]),
     "Bloch norm 2.0 exceeds 1 beyond tolerance 1e-12"),
    ("ensemble-prior-zero",
     lambda: qsd.validate_ensemble([(0.5, _UP), (0.0, _DOWN), (0.5, _X)]),
     "entry 1: prior 0.0 outside the open interval (0, 1)"),
    ("ensemble-nan-prior",
     lambda: qsd.validate_ensemble([(0.5, _UP), (_NAN, _DOWN)]),
     "entry 1: prior nan outside the open interval (0, 1)"),
    ("ensemble-sum-off",
     lambda: qsd.validate_ensemble([(0.6, _UP), (0.5, _DOWN)]),
     "priors sum to 1.1, not 1 within 1e-12"),
    ("ensemble-renormalize-zero-sum",
     lambda: qsd.validate_ensemble([(0.0, _UP), (0.0, _DOWN)], renormalize=True),
     "cannot renormalize priors with sum 0.0"),
    ("ensemble-renormalize-overflowing-sum",
     lambda: qsd.validate_ensemble([(1e308, _UP), (1e308, _DOWN)], renormalize=True),
     "cannot renormalize priors with sum inf"),
    ("ensemble-renormalize-negative-overflow",
     lambda: qsd.validate_ensemble([(-1e308, _UP), (-1e308, _DOWN)], renormalize=True),
     "cannot renormalize priors with sum -inf"),
    ("ensemble-renormalize-inf-minus-inf",
     lambda: qsd.validate_ensemble([(_INF, _UP), (-_INF, _DOWN)], renormalize=True),
     "cannot renormalize priors with sum nan"),
    ("povm-non-psd-at-index-1",
     lambda: qsd.povm_from_weights((1.0, 1.0), (_UP, (0.0, 0.0, -1.1))),
     "POVM element not PSD: a = 0.5 < |v| = 0.55 beyond 1e-12"),
    ("povm-non-psd-before-completeness",
     lambda: qsd.povm_from_weights((1.0, 1.5), (_UP, (0.0, 0.0, -1.1))),
     "POVM element not PSD: a = 0.75 < |v| = 0.8250000000000001 beyond 1e-12"),
    ("povm-overflowing-row",
     lambda: Povm((0.5, 0.5), (_ZERO, _HUGE)),
     "POVM element not PSD: a = 0.5 < |v| = inf beyond 1e-12"),
    ("povm-overflowing-direction-in-the-gate",  # the gate's pass on a record of floats
     lambda: qsd.family.assemble_result(
         qsd.validate_ensemble([(0.5, _UP), (0.5, _DOWN)]), 1.0, _ZERO, (_DOWN, _UP), (1.0, 1.0),
         "two-state", directions=(_HUGE, _UP)),
     "POVM element not PSD: a = 0.5 < |v| = inf beyond 1e-12"),
    ("povm-negative-a",
     lambda: Povm((-0.25, 1.25), (_ZERO, _ZERO)),
     "POVM element has negative trace part a = -0.25"),
    ("povm-nan-a",
     lambda: Povm((_NAN, 1.0), (_ZERO, _ZERO)),
     "POVM element weight must be finite"),
    ("povm-minus-inf-a",
     lambda: Povm((-_INF, 1.0), (_ZERO, _ZERO)),
     "POVM element weight must be finite"),
    ("povm-inf-v-before-nan-a",
     lambda: Povm((_NAN, 1.0), ((0.0, _INF, 0.0), _ZERO)),
     "Bloch vector components must be finite, got BlochVector(x=0.0, y=inf, z=0.0)"),
    ("povm-ragged-row",
     lambda: Povm((0.5, 0.5), (_UP, (0.0, 0.0))),
     "a row must be three floats, got (0.0, 0.0)"),
    ("povm-non-numeric-row",
     lambda: Povm((0.5, 0.5), (_UP, ("x", 0.0, 0.0))),
     "a row must be three floats, got ('x', 0.0, 0.0)"),
    ("povm-none-row",
     lambda: Povm((0.5, 0.5), (_UP, None)),
     "a row must be three floats, got None"),
    ("povm-ragged-row-above-float-rows",
     lambda: Povm([1.0 / _MANY] * _MANY, [_ZERO] * (_MANY - 1) + [(0.0, 0.0)]),
     "a row must be three floats, got (0.0, 0.0)"),
    ("povm-non-numeric-row-above-float-rows",
     lambda: Povm([1.0 / _MANY] * _MANY, [_ZERO] * (_MANY - 1) + [("x", 0.0, 0.0)]),
     "a row must be three floats, got ('x', 0.0, 0.0)"),
    ("povm-none-row-above-float-rows",
     lambda: Povm([1.0 / _MANY] * _MANY, [_ZERO] * (_MANY - 1) + [None]),
     "a row must be three floats, got None"),
    ("povm-empty",
     lambda: Povm((), ()),
     "a POVM needs at least one element"),
    ("povm-length-mismatch",
     lambda: Povm((0.5, 0.5), (_ZERO,)),
     "2 trace parts for 1 vector parts"),
    ("povm-incomplete-a",
     lambda: Povm((0.4, 0.5), (_ZERO, _ZERO)),
     "POVM incomplete: sum of a is 0.9, not 1 within 1e-10"),
    ("povm-overflowing-a-sum",
     lambda: Povm((1e308, 1e308), (_UP, _DOWN)),
     "POVM incomplete: sum of a is inf, not 1 within 1e-10"),
    ("povm-incomplete-v",
     lambda: Povm((0.5, 0.5), ((0.0, 0.0, 0.5), (0.0, 0.0, -0.3))),
     "POVM incomplete: vector parts sum to (0.0, 0.0, 0.2), not 0 within 1e-10"),
    ("certificate-length-mismatch",
     lambda: _certificate(scaled_priors=(0.5, 0.5, 0.1)),
     "certificate field lengths disagree"),
    ("certificate-single-state",
     lambda: _certificate(conjugates=(_UP,), scaled_priors=(0.5,), lambdas=(0.1,)),
     "a certificate covers at least two states"),
    ("certificate-nan-multiplier",
     lambda: _certificate(lambdas=(0.1, _NAN)),
     "multipliers must be finite"),
    ("certificate-scaled-prior-above-1",
     lambda: _certificate(scaled_priors=(0.5, 1.5)),
     "scaled prior 1 is 1.5, outside (0, 1]"),
    ("certificate-nan-conjugate",
     lambda: _certificate(conjugates=(_UP, (_NAN, 0.0, -1.0))),
     "Bloch vector components must be finite, got BlochVector(x=nan, y=0.0, z=-1.0)"),
    ("certificate-inf-common-point-before-conjugates",
     lambda: _certificate(common_point=(0.0, -_INF, 0.0), conjugates=(_UP, (_NAN, 0.0, -1.0))),
     "Bloch vector components must be finite, got BlochVector(x=0.0, y=-inf, z=0.0)"),
    ("result-unknown-method",
     lambda: qsd.DiscriminationResult(_HALVES, _certificate(), "guess", None),
     "unknown method tag 'guess'"),
    ("result-state-count-mismatch",
     lambda: qsd.DiscriminationResult(Povm((0.5, 0.25, 0.25), (_ZERO,) * 3),
                                      _certificate(), "two-state", None),
     "POVM and certificate cover different numbers of states"),
]


@pytest.mark.parametrize(
    "call, message", [case[1:] for case in ERROR_TABLE], ids=[case[0] for case in ERROR_TABLE]
)
def test_errors_keep_type_and_message(call, message):
    with pytest.raises(ValueError) as info:
        call()
    assert type(info.value) is ValueError
    assert str(info.value) == message


_OVERFLOWING = [case for case in ERROR_TABLE if "overflowing" in case[0]]


@pytest.mark.parametrize("call, message", [case[1:] for case in _OVERFLOWING],
                         ids=[case[0] for case in _OVERFLOWING])
def test_overflowing_rows_are_refused_without_a_warning(call, message):
    # squaring 1e200 overflows to inf inside row_norms and the float checks;
    # the refusal prints the norm that was tested, and numpy warns of nothing
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"\binf\b"):
            call()


def _solved(entries):
    ens = qsd.validate_ensemble(entries)
    result = qsd.solve_auto(ens)
    return ens, result, result.kkt


TRIPLE = [(0.5, (0.0, 0.0, 1.0)), (0.3, (0.6, 0.0, -0.2)), (0.2, (0.0, -0.7, 0.1))]


def test_stored_arrays_are_read_only():
    ens, result, kkt = _solved(TRIPLE)
    povm, cert = result.povm, result.certificate
    stored = [ens.priors, ens.bloch_matrix, ens.weighted_points, povm.a, povm.v,
              povm.a, povm.v, cert.common_point, cert.conjugates, cert.scaled_priors,
              cert.lambdas, cert.pure_mask, kkt.nu]
    for arr in stored:
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = arr[0]
    with pytest.raises(AttributeError):
        cert.p = 0.5


def test_a_derived_value_names_the_field_it_misses():
    # Python retries a read whose descriptor raised AttributeError through
    # __getattr__, which must not report the derived value itself missing
    bare = bloch.HelstromCertificate.__new__(bloch.HelstromCertificate)
    with pytest.raises(AttributeError, match="'conjugates'"):
        bare.pure_mask
    with pytest.raises(AttributeError, match="'lambdas'"):
        bare.lambdas


def test_a_field_a_record_lacks_raises_attribute_error():
    # a record built by hand may lack a stored field: reading what derives
    # from it raises AttributeError naming that field, so hasattr works
    bare = bloch.HelstromCertificate.__new__(bloch.HelstromCertificate)
    assert not hasattr(bare, "n")
    with pytest.raises(AttributeError, match="'conjugates'"):
        bare.n
    half = WeightedEnsemble.__new__(WeightedEnsemble)
    half._store(priors=(0.5, 0.5))
    assert half.n == 2
    with pytest.raises(AttributeError, match="'bloch_matrix'"):
        half.lists


def test_kkt_report_takes_every_residual_keyword_and_no_other():
    residuals = _solved(TRIPLE)[2].residuals()
    nu = [[0.0, 0.0, 0.0]] * 2
    assert KktReport(nu, **residuals).residuals() == residuals
    missing = dict(residuals)
    del missing["primal_ineq"]
    with pytest.raises(TypeError, match="'primal_ineq'"):
        KktReport(nu, **missing)
    with pytest.raises(TypeError, match="'primal_inequality'"):
        KktReport(nu, primal_inequality=0.0, **residuals)


def _frozen(values):
    """values as a read-only array that owns its data."""
    arr = np.array(values, dtype=float)
    arr.setflags(write=False)
    return arr


def test_records_copy_their_inputs():
    # a caller may make its own array writable again and change it; no
    # record's arrays, ==, or hash may change with it, and no record
    # freezes a writable array it is given. Up to FLOAT_ROWS rows a record
    # keeps floats of the arrays it is given, and above that it stores
    # arrays: both must hold on to copies
    kkt = _solved(TRIPLE)[2]
    pair = [[0.0, 0.0, 0.5], [0.0, 0.0, -0.5]]
    n = bloch.FLOAT_ROWS + 1
    many = ([1.0 / n] * n, [[0.0, 0.0, 0.0]] * n)
    builds = [
        (WeightedEnsemble, ([0.4, 0.6], pair)),
        (WeightedEnsemble, many),
        (Povm, ([0.5, 0.5], pair)),
        (Povm, many),
        (lambda c, t, lam: _certificate(conjugates=c, scaled_priors=t, lambdas=lam),
         ([_UP, _DOWN], [0.5, 0.5], [0.1, 0.1])),
        (lambda nu: KktReport(nu, **kkt.residuals()), (pair,)),
    ]
    kinds = set()
    for build, values in builds:
        given = [_frozen(v) for v in values]
        record = build(*given)
        writable = [np.array(v, dtype=float) for v in values]
        twin = build(*writable)
        assert all(arr.flags.writeable for arr in writable)
        stored = [v for v in vars(record).values() if isinstance(v, np.ndarray)]
        kept = vars(record).get("_floats", {})
        assert bool(stored) != bool(kept) and len(stored) + len(kept) >= len(given)
        kinds.add("floats" if kept else "arrays")
        copies, digest = [arr.copy() for arr in stored], hash(record)
        for arr in given:
            arr.setflags(write=True)
            arr += 0.25
        assert all(np.array_equal(arr, copy) for arr, copy in zip(stored, copies))
        assert all(np.array_equal(getattr(record, f.name), getattr(twin, f.name))
                   for f in dataclasses.fields(record))
        assert record == twin and hash(record) == digest == hash(twin)
    assert kinds == {"floats", "arrays"}

    # lists, and tuples of lists, of floats take the float path, where a
    # record keeps floats of its own and builds each array on first read: a
    # caller's change before that read reaches no array, ==, or hash
    pair = WeightedEnsemble([0.5, 0.5], [list(_UP), list(_DOWN)])
    builds = [
        (WeightedEnsemble, ([0.4, 0.6], [[0.0, 0.0, 0.5], [0.0, 0.0, -0.5]])),
        (lambda r, c: qsd.family.assemble_result(pair, 1.0, r, c, (1.0, 1.0), "two-state").certificate,
         ([0.0, 0.0, 0.0], ([0.0, 0.0, -1.0], [0.0, 0.0, 1.0]))),
    ]
    for build, values in builds:
        record = build(*values)
        twin = build(*deepcopy(values))
        assert not [v for v in vars(record).values() if isinstance(v, np.ndarray)]
        digest = hash(twin)
        _shift(values)
        assert all(np.array_equal(getattr(record, f.name), getattr(twin, f.name))
                   for f in dataclasses.fields(record))
        assert record == twin and hash(record) == digest and repr(record) == repr(twin)


def _shift(nested):
    """Add 0.25 to every float that a list holds, in nested lists and tuples."""
    for i, x in enumerate(nested):
        if type(x) is float and type(nested) is list:
            nested[i] = x + 0.25
        elif type(x) in (list, tuple):
            _shift(x)


def test_records_compare_hash_and_print_by_value():
    first, second = _solved(TRIPLE), _solved(list(TRIPLE))
    for a, b in zip(first, second):
        assert a is not b
        assert a == b and hash(a) == hash(b) and repr(a) == repr(b)
    assert "array" not in repr(first[1]) and "np." not in repr(first[1])


def test_replace_rechecks_and_repr_shows_arrays():
    ens = qsd.validate_ensemble(TRIPLE)
    povm = Povm((0.5, 0.5), ((0.0, 0.0, 0.5), (0.0, 0.0, -0.5)))
    cert = _certificate()
    solved_kkt = _solved(TRIPLE)[2]
    kkt = KktReport([(0.5, 0.0, -0.25)], **dict.fromkeys(solved_kkt.residuals(), 0.0))
    assert repr(ens) == ("WeightedEnsemble(priors=(0.5, 0.3, 0.2), "
                         "bloch_matrix=(0.0, 0.0, 1.0, 0.6, 0.0, -0.2, 0.0, -0.7, 0.1))")
    assert repr(povm) == "Povm(a=(0.5, 0.5), v=(0.0, 0.0, 0.5, 0.0, 0.0, -0.5))"
    assert repr(cert) == ("HelstromCertificate(p=0.8, common_point=(0.0, 0.0, 0.0), "
                          "conjugates=(0.0, 0.0, 1.0, 0.0, 0.0, -1.0), scaled_priors=(0.5, 0.5), "
                          "lambdas=(0.1, 0.1), degenerate=False)")
    assert repr(kkt) == ("KktReport(primal_ineq=0.0, primal_eq=0.0, dual_feas=0.0, "
                         "stationarity_p=0.0, stationarity_c=0.0, slackness=0.0, "
                         "aggregate_sum=0.0, aggregate_half=0.0, nu=(0.5, 0.0, -0.25), "
                         "degenerate=False)")
    assert replace(ens, priors=ens.priors) == ens and replace(povm, v=povm.v) == povm
    assert replace(cert, conjugates=cert.conjugates) == cert and replace(kkt, nu=kkt.nu) == kkt
    moved = replace(ens, priors=(0.2, 0.3, 0.5))
    assert moved.max_prior == 0.5 and moved.weighted_points[2].tolist() == [0.0, -0.35, 0.05]
    turned = replace(cert, conjugates=(_X, (-1.0, 0.0, 0.0)))
    assert turned.conjugates.tolist() == [list(_X), [-1.0, 0.0, 0.0]] and turned != cert
    refusals = [
        (lambda: replace(povm, a=(0.5, 0.6)), "POVM incomplete: sum of a is 1.1, not 1 within 1e-10"),
        (lambda: replace(ens, priors=(0.5, 0.3, 0.3)), "priors sum to 1.1, not 1 within 1e-12"),
        (lambda: replace(cert, conjugates=(_UP, (_NAN, 0.0, -1.0))),
         "Bloch vector components must be finite, got BlochVector(x=nan, y=0.0, z=-1.0)"),
        (lambda: replace(cert, conjugates=(_UP, _DOWN, _X)), "certificate field lengths disagree"),
        (lambda: replace(cert, common_point=(_NAN, 0.0, 0.0)),
         "Bloch vector components must be finite, got BlochVector(x=nan, y=0.0, z=0.0)"),
    ]
    for call, message in refusals:
        with pytest.raises(ValueError) as info:
            call()
        assert str(info.value) == message


def _one_ulp(arr, index=0):
    moved = np.array(arr, dtype=float)
    moved.flat[index] = np.nextafter(moved.flat[index], np.inf)
    return moved


def test_one_ulp_makes_records_unequal():
    ens, result, kkt = _solved(TRIPLE)
    povm, cert = result.povm, result.certificate
    other_ens = WeightedEnsemble(ens.priors, _one_ulp(ens.bloch_matrix, 4))
    assert other_ens != ens
    other_povm = Povm(povm.a, _one_ulp(povm.v, povm.v.argmax()))
    assert other_povm != povm and other_povm.n == povm.n
    assert replace(cert, lambdas=_one_ulp(cert.lambdas, 1)) != cert
    assert replace(cert, lambdas=cert.lambdas) == cert
    fields = {name: getattr(kkt, name) for name in kkt.residuals()}
    same = type(kkt)(nu=kkt.nu, degenerate=kkt.degenerate, **fields)
    assert same == kkt and hash(same) == hash(kkt)
    assert type(kkt)(nu=_one_ulp(kkt.nu), degenerate=kkt.degenerate, **fields) != kkt


def test_views_round_trip():
    # the one per-row view, povm.elements, gives back the arrays the POVM is built from
    result = _solved(TRIPLE)[1]
    elements = result.povm.elements
    assert all(isinstance(el, PovmElement) for el in elements)
    rebuilt = Povm([el.a for el in elements], [tuple(el.v) for el in elements])
    assert rebuilt == result.povm and rebuilt.elements == elements


def _jittered_pure(rng, n):
    points = rng.normal(size=(n, 3))
    points /= np.linalg.norm(points, axis=1)[:, None]
    priors = rng.uniform(1.0, 1.1, size=n)
    return list(zip((priors / priors.sum()).tolist(), points.tolist()))


def _diagonal(rng, n):
    priors = rng.uniform(1.0, 2.0, size=n)
    z = rng.uniform(-1.0, 1.0, size=n)
    return [(p, (0.0, 0.0, zz)) for p, zz in zip((priors / priors.sum()).tolist(), z.tolist())]


@pytest.mark.parametrize("build, method", [(_diagonal, "diagonal"), (_jittered_pure, "oracle")],
                         ids=["diagonal", "jittered-pure"])
def test_no_per_state_objects_on_the_solve_path(build, method):
    """validate_ensemble, solve_auto, the CLI report and result.kkt never
    read povm.elements, the one per-row view, whatever n is."""
    for n in (16, 256):
        ens = qsd.validate_ensemble(build(np.random.default_rng(n), n))
        result = qsd.solve_auto(ens)
        cli.build_report(result)
        result.kkt
        assert result.method == method
        assert "elements" not in vars(result.povm)


def test_float_values_take_floats_and_ints():
    # an int is taken through float(); a bool, an int too large for a float
    # or any other type sends the record to the vectorized checks
    assert bloch.float_values([0.5, 0.5]) == (0.5, 0.5)
    taken = bloch.float_values([0.5, 1])
    assert taken == (0.5, 1.0) and type(taken[1]) is float
    for value in (True, 10 ** 400, np.float64(1.0), "1.0"):
        assert bloch.float_values([0.5, value]) is None
        assert bloch.float_rows([(0.5, value, 0.0)]) is None
    rows = bloch.float_rows([(0, 1, 0.5), [0.0, -1, 0.0]])
    assert rows == ((0.0, 1.0, 0.5), (0.0, -1.0, 0.0))
    assert all(type(x) is float for row in rows for x in row)


def test_records_are_unequal_to_other_types():
    ens = qsd.validate_ensemble(TRIPLE)
    assert ens.__eq__(ens.priors) is NotImplemented
    assert ens != object() and ens != _certificate()
