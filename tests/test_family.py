"""Weak-family construction, verification ops, and the assemble/guess funnel."""

import math

import numpy as np
import pytest

import qsd
from qsd import (
    CertificateError,
    DegenerateRatioError,
    Povm,
)
from qsd.bloch import FLOAT_ROWS, ZERO_TOL
from qsd.family import (
    assemble_result,
    conjugates_at,
    family_residual,
    guess_result,
    povm_from_weights,
    success_probability,
    trace_multipliers,
    verify_optimality,
    verify_weak_family,
)
from qsd.platonic import PlatonicSolid, platonic_ensemble
from helpers import conjugates_from_common_point


ORIGIN = (0.0, 0.0, 0.0)


def antipodal():
    return qsd.validate_ensemble([(0.5, (0, 0, 1)), (0.5, (0, 0, -1))])


def trine():
    return qsd.cone_ensemble(3, 1.0, 0.5 * math.pi)


def skewed_pair():
    return qsd.validate_ensemble([(0.3, (1, 0, 0)), (0.7, (0, 1, 0))])


def test_conjugates_antipodal():
    c = conjugates_from_common_point(antipodal(), 1.0, ORIGIN)
    assert np.allclose(c[0], [0, 0, -1])
    assert np.allclose(c[1], [0, 0, 1])


def test_conjugates_trine_are_negated_states():
    ens = trine()
    c = conjugates_from_common_point(ens, 2.0 / 3.0, ORIGIN)
    for ci, bi in zip(c, ens.bloch_matrix):
        assert np.allclose(ci, -bi, atol=1e-12)


def test_conjugates_mixed_third_state():
    ens = qsd.validate_ensemble(
        [(0.9, (0, 0, 1)), (0.05, (0, 0, -1)), (0.05, (1, 0, 0))]
    )
    c = conjugates_from_common_point(ens, 0.95, (0, 0, 0.85))
    assert np.allclose(c[2], [-1.0 / 18.0, 0.0, 17.0 / 18.0], atol=1e-15)
    assert math.hypot(*c[2]) == pytest.approx(math.sqrt(290.0) / 18.0, abs=1e-15)
    assert math.hypot(*c[2]) < 1.0


def test_verify_weak_family_roundtrip():
    ens = antipodal()
    c = conjugates_from_common_point(ens, 1.0, ORIGIN)
    ok, residual = verify_weak_family(ens, 1.0, c)
    assert ok and type(ok) is bool
    assert residual <= 1e-15


def test_verify_weak_family_perturbed():
    ens = antipodal()
    c = conjugates_from_common_point(ens, 1.0, ORIGIN)
    bad = c + [(0.0, 0.0, 0.0), (0.0, 0.0, 0.01)]
    ok, residual = verify_weak_family(ens, 1.0, bad)
    assert not ok
    # the mixture of state 2 moves by (p - p_2) * 0.01
    assert residual == pytest.approx(0.005, abs=1e-15)
    assert residual > 1e-9


def test_verify_weak_family_perturbed_skewed():
    ens = skewed_pair()
    result = qsd.solve_two_state(ens)
    p = result.p_opt
    bad = result.certificate.conjugates + [(0.0, 0.0, 0.0), (0.0, 0.0, 0.01)]
    assert family_residual(ens, p, bad) == pytest.approx(
        0.0018078865529319544, abs=1e-15
    )


def test_verify_weak_family_rejects_nonstate_conjugate():
    # at p = 0.9 the common point r = 0 forces |c_i| = 1.25: zero residual,
    # but the conjugates are not states, so the family must be rejected
    ens = antipodal()
    c = conjugates_from_common_point(ens, 0.9, ORIGIN)
    assert math.hypot(*c[0]) == pytest.approx(1.25, abs=1e-12)
    ok, residual = verify_weak_family(ens, 0.9, c)
    assert not ok
    assert residual <= 1e-12  # geometry closes; the norms are what fail


def test_verify_weak_family_length_mismatch():
    ok, residual = verify_weak_family(antipodal(), 1.0, [ORIGIN])
    assert not ok and type(ok) is bool and residual == float("inf")


def test_success_probability_projective_pair():
    povm = Povm((0.5, 0.5), ((0.0, 0.0, 0.5), (0.0, 0.0, -0.5)))
    assert success_probability(antipodal(), povm) == pytest.approx(1.0, abs=1e-15)


def test_success_probability_guess():
    ens = skewed_pair()
    povm = Povm((1.0, 0.0), np.zeros((2, 3)))
    assert success_probability(ens, povm) == pytest.approx(0.3, abs=1e-15)


def test_success_probability_trine_uniform_projectors():
    ens = trine()
    povm = Povm(np.full(3, 1.0 / 3.0), ens.bloch_matrix / 3.0)
    assert success_probability(ens, povm) == pytest.approx(2.0 / 3.0, abs=1e-15)


def test_success_probability_length_mismatch():
    with pytest.raises(ValueError):
        success_probability(trine(), Povm((1.0,), np.zeros((1, 3))))


def test_verify_optimality_two_state():
    result = qsd.solve_two_state(antipodal())
    ok, residual = verify_optimality(result.povm, result.certificate.conjugates)
    assert ok and residual <= 1e-12


def test_verify_optimality_trine():
    ens = trine()
    conj = -ens.bloch_matrix
    povm = povm_from_weights((2.0 / 3.0,) * 3, conj)
    assert povm.elements[0].a == pytest.approx(1.0 / 3.0, abs=1e-15)
    ok, residual = verify_optimality(povm, conj)
    assert ok and residual <= 1e-12


def test_verify_optimality_swapped_projectors():
    result = qsd.solve_two_state(antipodal())
    swapped = Povm(result.povm.a[::-1], result.povm.v[::-1])
    ok, residual = verify_optimality(swapped, result.certificate.conjugates)
    assert not ok
    assert residual == pytest.approx(1.0, abs=1e-12)


def test_povm_from_weights_trine():
    ens = trine()
    conj = -ens.bloch_matrix
    povm = povm_from_weights((2.0 / 3.0,) * 3, conj)
    for el, b in zip(povm.elements, ens.bloch_matrix):
        assert el.a == pytest.approx(1.0 / 3.0, abs=1e-15)
        assert np.allclose(tuple(el.v), b / 3.0, atol=1e-12)


def test_povm_from_weights_rejects_negative():
    with pytest.raises(ValueError) as caught:
        povm_from_weights((-0.5, 2.5), ((0, 0, 1), (0, 0, -1)))
    assert str(caught.value) == "negative weight -0.5"


def test_povm_from_weights_clamps_dust():
    povm = povm_from_weights(
        (1.0, 1.0, -1e-13), ((0, 0, 1), (0, 0, -1), (1, 0, 0))
    )
    assert povm.elements[2].a == 0.0


def test_assemble_result_rejects_broken_p():
    ens = skewed_pair()
    result = qsd.solve_two_state(ens)
    with pytest.raises(CertificateError):
        assemble_result(
            ens,
            result.p_opt + 0.01,
            result.certificate.common_point,
            result.certificate.conjugates,
            (1.0, 1.0),
            "two-state",
        )


def test_assemble_result_rejects_fat_conjugate():
    ens = antipodal()
    with pytest.raises(CertificateError):
        assemble_result(
            ens,
            1.0,
            ORIGIN,
            ((0, 0, -1.2), (0, 0, 1.2)),
            (1.0, 1.0),
            "two-state",
            qsd.solve_two_state(ens).certificate.conjugates,
        )


def test_assemble_result_rejects_wrong_common_point():
    # every pairwise mixture still agrees, but r is far from all of them:
    # f(r) = 2.28 while p = 0.88, so Y is not dual feasible
    ens = skewed_pair()
    result = qsd.solve_two_state(ens)
    with pytest.raises(CertificateError):
        assemble_result(
            ens,
            result.p_opt,
            (0.5, -0.5, 0.9),
            result.certificate.conjugates,
            (1.0, 1.0),
            "two-state",
        )


def _generic_pair():
    ens = qsd.validate_ensemble([(0.3, (0.6, 0.2, 0.7)), (0.7, (-0.1, 0.5, -0.4))])
    return ens, qsd.solve_two_state(ens)


def _gate_input(**changes):
    """assemble_result's arguments for the generic pair's solved answer, with changes.

    The weights and directions are the solver's, which build its POVM.
    """
    ens, result = _generic_pair()
    cert = result.certificate
    args = dict(ensemble=ens, p=result.p_opt, common_point=cert.common_point,
                conjugates=cert.conjugates, weights=(1.0, 1.0), method="two-state",
                directions=cert.conjugates)
    args.update(changes)
    return args


def _antipodal_input(**changes):
    args = dict(ensemble=antipodal(), p=1.0, common_point=(0.0, 0.0, 0.0),
                conjugates=((0.0, 0.0, -1.0), (0.0, 0.0, 1.0)), weights=(1.0, 1.0),
                method="two-state",
                directions=qsd.solve_two_state(antipodal()).certificate.conjugates)
    args.update(changes)
    return args


def _generic_conjugate(k):
    return tuple(_generic_pair()[1].certificate.conjugates[k].tolist())


def _identical_pair_input():
    ens = qsd.validate_ensemble([(0.5, (0.1, 0.2, 0.3)), (0.5, (0.1, 0.2, 0.3))])
    result = qsd.solve_two_state(ens)
    # both elements I/2, as the solver's tie answer
    return dict(ensemble=ens, p=0.5, common_point=result.certificate.common_point,
                conjugates=((0.0, 0.0, 1.0),), weights=(1.0, 1.0), method="two-state",
                directions=((-0.0, -0.0, -0.0),) * 2)


_NAN, _INF = math.nan, math.inf

# Every way the gate refuses an input, with the exact type and message it
# raises; the inputs are wrong in one respect each.
GATE_REJECTIONS = [
    ("p-nan", lambda: _gate_input(p=_NAN), ValueError, "ratio p = nan outside (0, 1]"),
    ("p-inf", lambda: _gate_input(p=_INF), CertificateError,
     "common-point residual inf exceeds 1e-09"),
    ("p-minus-inf", lambda: _gate_input(p=-_INF), CertificateError,
     "ratio p = -inf below max prior 0.7"),
    ("p-below-top-prior", lambda: _gate_input(p=0.6), CertificateError,
     "ratio p = 0.6 below max prior 0.7"),
    ("p-above-one", lambda: _antipodal_input(p=1.0 + 1e-10), ValueError,
     "ratio p = 1.0000000001 outside (0, 1]"),
    ("no-conjugate-rows", lambda: _gate_input(conjugates=np.zeros((0, 3))), ValueError,
     "zero-size array to reduction operation maximum which has no identity"),
    ("one-conjugate-row-for-two", _identical_pair_input, ValueError,
     "certificate field lengths disagree"),
    ("three-conjugate-rows-for-two",
     lambda: _gate_input(conjugates=(_generic_conjugate(0), _generic_conjugate(1),
                                     _generic_conjugate(0))),
     ValueError, "operands could not be broadcast together with shapes (2,1) (3,3) "),
    ("nan-conjugate", lambda: _gate_input(conjugates=((_NAN, 0.0, 0.0), _generic_conjugate(1))),
     ValueError, "Bloch vector components must be finite, got BlochVector(x=nan, y=0.0, z=0.0)"),
    ("inf-conjugate", lambda: _gate_input(conjugates=(_generic_conjugate(0), (0.0, -_INF, 0.0))),
     ValueError, "Bloch vector components must be finite, got BlochVector(x=0.0, y=-inf, z=0.0)"),
    ("conjugate-outside-ball",
     lambda: _antipodal_input(conjugates=((0.0, 0.0, -1.2), (0.0, 0.0, 1.2))),
     CertificateError, "conjugate norm 1.2 exceeds 1"),
    ("common-point-residual", lambda: _gate_input(common_point=(0.5, -0.5, 0.9)),
     CertificateError, "common-point residual 1.451566779676835 exceeds 1e-09"),
    ("success-gap",
     lambda: _antipodal_input(weights=(2.0, 0.0), directions=np.zeros((2, 3))),
     CertificateError, "POVM success 0.5 differs from p = 1.0"),
    ("nan-common-point", lambda: _gate_input(common_point=(_NAN, 0.0, 0.0)), ValueError,
     "Bloch vector components must be finite, got BlochVector(x=nan, y=0.0, z=0.0)"),
    ("inf-common-point", lambda: _gate_input(common_point=(0.0, _INF, 0.0)), ValueError,
     "Bloch vector components must be finite, got BlochVector(x=0.0, y=inf, z=0.0)"),
]


@pytest.mark.parametrize(
    "arguments, error, message",
    [case[1:] for case in GATE_REJECTIONS],
    ids=[case[0] for case in GATE_REJECTIONS],
)
def test_gate_rejections_keep_type_and_message(arguments, error, message):
    with pytest.raises(Exception) as info:
        assemble_result(**arguments())
    assert type(info.value) is error
    assert str(info.value) == message


def test_guess_result_dominant_prior():
    ens = qsd.validate_ensemble([(0.98, (0, 0, 0)), (0.02, (0, 0, 0.1))])
    result = guess_result(ens, 0, "two-state")
    assert result.p_opt == 0.98
    assert result.certificate.degenerate
    assert result.povm.elements[0].a == 1.0
    assert result.povm.elements[1].a == 0.0
    assert all(lam == 0.0 for lam in result.certificate.lambdas)
    # an index outside 0..n-1 is refused, not wrapped, on Python floats and vectorized
    wide = qsd.validate_ensemble([(1.0 / 13.0, (0.0, 0.0, 0.0))] * 13)
    for ensemble in (ens, wide):
        for index in (-1, ensemble.n):
            with pytest.raises(ValueError,
                               match=rf"^guess index {index} outside 0\.\.{ensemble.n - 1}$"):
                guess_result(ensemble, index, "two-state")


def test_guess_result_value_override():
    ens = qsd.validate_ensemble([(0.98, (0, 0, 0)), (0.02, (0, 0, 0.1))])
    pinned = np.nextafter(0.98, 1.0)
    result = guess_result(ens, 0, "two-state", value=pinned)
    assert result.p_opt == pinned


def test_guess_below_a_tied_prior_is_refused_by_the_certificate():
    # a pinned value within RATIO_SLACK below the priors passes the gate's
    # ratio test, and its scaled priors p_i/p pass 1 by more than RATIO_SLACK
    ens = qsd.validate_ensemble([(0.5, ORIGIN), (0.5, ORIGIN)])
    with pytest.raises(ValueError, match=r"^scaled prior 0 is 1\.0000000000018001, outside \(0, 1\]$"):
        guess_result(ens, 0, "two-state", value=0.5 - 9e-13)


def test_guess_result_rejects_nonoptimal_guess():
    # the gate refuses the conjugate (q_0 - q_1)/(p_0 - p_1), of norm 5 up to rounding
    ens = qsd.validate_ensemble([(0.6, (0, 0, 1)), (0.4, (0, 0, -1))])
    with pytest.raises(CertificateError, match=r"^conjugate norm 5\.000000000000001 exceeds 1$"):
        guess_result(ens, 0, "two-state")
    # a tied prior leaves no conjugate to test: the state must sit at r, in a
    # record that stores arrays (rows of np.float64 scalars, which the float
    # checks decline) and in one that keeps floats
    for kind, arrays in ((np.float64, True), (float, False)):
        tied = qsd.validate_ensemble([(0.5, tuple(map(kind, (0.0, 0.0, 1.0)))),
                                      (0.5, tuple(map(kind, (0.0, 0.0, -1.0))))])
        assert isinstance(tied.held[2], np.ndarray) is arrays
        with pytest.raises(DegenerateRatioError, match=(
                r"^guess at index 0 cannot cover state 1: tied prior, distinct point$")):
            guess_result(tied, 0, "two-state")


def _ensemble(*entries):
    return qsd.validate_ensemble(list(entries))


# one input per method tag and per guess path; the seed-7 bench op
# ("interior-last-bit") and the mirror triple have Gram-formula multipliers
# that differ from the traced ones in the last bit
MULTIPLIER_CASES = [
    ("two-state", lambda: qsd.solve_auto(skewed_pair())),
    ("two-state", lambda: qsd.solve_auto(_ensemble((0.9, (0, 0, 0.1)), (0.1, (0, 0, 0.2))))),
    ("three-state-boundary", lambda: qsd.solve_auto(
        _ensemble((0.9, (0, 0, 1)), (0.05, (0, 0, -1)), (0.05, (1, 0, 0))))),
    ("three-state-boundary", lambda: qsd.solve_auto(
        _ensemble((0.8, (0, 0, 0)), (0.1, (0.5, 0, 0)), (0.1, (0, 0.5, 0))))),
    ("three-state-interior", lambda: qsd.solve_auto(trine())),
    ("three-state-interior", lambda: qsd.solve_auto(_ensemble(
        (0.27747456516725094, (-0.063311312019857, 0.8867831892030955, 0.32250859556497036)),
        (0.4222250278754445, (-0.5945253803064477, -0.0423519291603766, -0.029522088646877186)),
        (0.30030040695730453, (0.15398070986386583, -0.7658995897520683, -0.45382250373995525)),
    ))),
    ("symmetric-shell", lambda: qsd.solve_auto(platonic_ensemble(PlatonicSolid("octahedron"))[0])),
    ("diagonal", lambda: qsd.solve_auto(
        _ensemble((0.5, (0, 0, 0.8)), (0.3, (0, 0, -0.5)), (0.2, (0, 0, 0.1))))),
    ("diagonal", lambda: qsd.solve_auto(
        _ensemble((0.98, (0, 0, 0.1)), (0.01, (0, 0, 0.2)), (0.01, (0, 0, -0.1))))),
    ("cone", lambda: qsd.solve_auto(qsd.cone_ensemble(5, 0.8, 1.0))),
    ("mirror-symmetric", lambda: qsd.solve_mirror_symmetric(math.radians(2), 0.25)),
    ("oracle", lambda: qsd.solve_oracle(_ensemble(
        (0.3, (0.5, 0.1, 0.2)), (0.2, (-0.4, 0.3, 0.1)), (0.25, (0.1, -0.6, 0.2)),
        (0.25, (0.0, 0.2, -0.7))))),
    ("oracle", lambda: qsd.solve_oracle(_ensemble((0.98, (0, 0, 0)), (0.02, (0, 0, 0.1))))),
]


@pytest.mark.parametrize(
    "method, solve",
    MULTIPLIER_CASES,
    ids=["two-state", "two-state-guess", "boundary", "three-state-guess", "interior",
         "interior-last-bit", "shell", "diagonal", "diagonal-guess", "cone", "mirror",
         "oracle", "oracle-guess"],
)
def test_multipliers_are_the_clamped_traces(method, solve):
    result = solve()
    assert result.method == method
    traced = trace_multipliers(result.ensemble, result.p_opt, result.povm)
    expected = np.where(np.abs(traced) <= 1e-15, 0.0, traced)
    np.testing.assert_array_equal(result.certificate.lambdas, expected)


@pytest.mark.parametrize("method, solve", MULTIPLIER_CASES)
def test_p_opt_is_the_certificate_p(method, solve):
    # the optimum is stored once, as the certificate's p
    result = solve()
    assert result.method == method and result.p_opt is result.certificate.p
    with pytest.raises(AttributeError):
        result.p_opt = 0.5


def test_multiplier_cases_cover_every_method_tag():
    assert {method for method, _ in MULTIPLIER_CASES} == qsd.bloch.METHODS


# ---------------------------------------------------------------------------
# conjugates_at: one owner of c_i = (r - q_i)/(p - p_i)


def _gap_ensemble(n, p):
    """n states whose gaps p - p_i include ones just above ZERO_TOL, at or
    below it, and negative; the Bloch rows hold -0.0 and +0.0 coordinates."""
    gaps = [1.9e-15, 1.5e-15, ZERO_TOL, 5e-16, 0.0, -1e-3, -1.9e-15]
    priors = [p - g for g in gaps]
    rest = (1.0 - math.fsum(priors)) / (n - len(gaps))
    priors += [rest] * (n - len(gaps))
    rows = np.random.default_rng(n).uniform(-0.5, 0.5, size=(n, 3))
    rows[0, 0] = rows[2, 2] = 0.0
    rows[1, 1] = rows[3, 0] = -0.0
    return qsd.WeightedEnsemble(priors, rows.tolist())


def _hexes(rows):
    return [[float(x).hex() for x in row] for row in np.asarray(rows).tolist()]


def _reference_rows(ensemble, p, r):
    """c_i row by row on Python floats: the formula conjugates_at owns."""
    rx, ry, rz = r
    return [(0.0, 0.0, 0.0) if p - pi <= ZERO_TOL
            else ((rx - x) / (p - pi), (ry - y) / (p - pi), (rz - z) / (p - pi))
            for pi, (x, y, z) in zip(ensemble.priors.tolist(), ensemble.weighted_points.tolist())]


def _masked_divide(ensemble, p, r):
    """c_i as numpy's masked divide over the arrays."""
    gap = p - ensemble.priors
    return np.divide(np.subtract(r, ensemble.weighted_points), gap[:, None],
                     out=np.zeros((ensemble.n, 3)), where=~(gap <= ZERO_TOL)[:, None])


@pytest.mark.parametrize("n", [FLOAT_ROWS, FLOAT_ROWS + 1])
@pytest.mark.parametrize("p", [0.04, 2.0 * ZERO_TOL], ids=["p=0.04", "exact-zero-tol-gap"])
def test_conjugates_at_branches_agree_bit_for_bit(n, p):
    ensemble = _gap_ensemble(n, p)
    gaps = (p - ensemble.priors).tolist()
    assert gaps[0] > gaps[1] > ZERO_TOL >= gaps[2] > gaps[3] > gaps[4] == 0.0 > gaps[6] > gaps[5]
    # at p = 2 ZERO_TOL the subtraction is exact, so one gap is ZERO_TOL itself
    assert (gaps[2] == ZERO_TOL) == (p == 2.0 * ZERO_TOL)
    r = (-0.0, 0.0, 0.125)
    conj = conjugates_at(ensemble, p, r)
    if n <= FLOAT_ROWS:
        assert type(conj) is list and all(type(x) is float for row in conj for x in row)
    else:
        assert type(conj) is np.ndarray and conj.shape == (n, 3)
    got = _hexes(conj)
    assert got == _hexes(_masked_divide(ensemble, p, r)) == _hexes(_reference_rows(ensemble, p, r))
    assert all(got[i] == [(0.0).hex()] * 3 for i in range(2, 7))
    assert got[0][2] != (0.0).hex() and got[1][2] != (0.0).hex()  # rows that divide
    # the sign of a zero where r and q_i share a zero coordinate: -0.0 - 0.0
    # and 0.0 - (-0.0)
    assert got[0][0] == (-0.0).hex() and got[1][1] == (0.0).hex()


def test_every_conjugate_table_comes_from_conjugates_at(monkeypatch):
    calls = []
    original = qsd.family.conjugates_at
    for module in (qsd.family, qsd.closed_form, qsd.oracle):
        def spy(*args, _name=module.__name__):
            calls.append(_name)
            return original(*args)
        monkeypatch.setattr(module, "conjugates_at", spy)
    solves = [
        ("qsd.family", "two-state",
         lambda: guess_result(_ensemble((0.98, (0, 0, 0)), (0.02, (0, 0, 0.1))), 0, "two-state")),
        ("qsd.closed_form", "diagonal", lambda: qsd.solve_diagonal(
            _ensemble((0.5, (0, 0, 0.8)), (0.3, (0, 0, -0.5)), (0.2, (0, 0, 0.1))))),
        ("qsd.closed_form", "three-state-interior", lambda: qsd.solve_three_state(trine())),
        ("qsd.oracle", "oracle", lambda: qsd.solve_oracle(_ensemble(
            (0.3, (0.5, 0.1, 0.2)), (0.2, (-0.4, 0.3, 0.1)), (0.25, (0.1, -0.6, 0.2)),
            (0.25, (0.0, 0.2, -0.7))))),
    ]
    for module, method, solve in solves:
        calls.clear()
        assert solve().method == method
        assert module in calls, (method, calls)


def test_length_guards():
    with pytest.raises(ValueError, match=r"^POVM and conjugate list lengths differ$"):
        verify_optimality(Povm((0.5, 0.5), (ORIGIN, ORIGIN)), [(0.0, 0.0, 1.0)] * 3)
    with pytest.raises(ValueError, match=r"^weights and conjugates lengths differ$"):
        povm_from_weights((1.0, 1.0, 0.0), [(0.0, 0.0, 1.0), (0.0, 0.0, -1.0)])
