"""Three-state solver: boundary/interior candidates, multiplier algebra, mirror family."""

import math
import re

import numpy as np
import pytest

import qsd
import qsd.closed_form
from qsd import (
    DegenerateGeometryError,
    GramConsistencyError,
    ThreeStateCoefficients,
    gram_identity_residual,
    lambdas_three_state,
    mirror_ensemble,
    mirror_regime,
    mirror_threshold,
    solve_mirror_symmetric,
    solve_oracle,
    solve_three_state,
)
from qsd.bloch import BALL_SLACK
from helpers import assert_result_valid, ball_points, random_ensemble


def trine():
    return qsd.cone_ensemble(3, 1.0, 0.5 * math.pi)


def boundary_triple():
    return qsd.validate_ensemble(
        [(0.9, (0, 0, 1)), (0.05, (0, 0, -1)), (0.05, (1, 0, 0))]
    )


# ---------------------------------------------------------------------------
# branch selection


def test_boundary_example():
    ens = boundary_triple()
    result = solve_three_state(ens)
    assert result.p_opt == pytest.approx(0.95, abs=1e-12)
    assert result.method == "three-state-boundary"
    assert result.povm.elements[2].a == 0.0
    cert = result.certificate
    np.testing.assert_allclose(
        cert.conjugates[2], [-1.0 / 18.0, 0.0, 17.0 / 18.0], atol=1e-12
    )
    assert math.hypot(*cert.conjugates[2]) == pytest.approx(math.sqrt(290.0) / 18.0, abs=1e-12)
    assert cert.pure_mask.tolist() == [True, True, False]
    assert_result_valid(ens, result)


_KNIFE_EDGE = [
    (0.4, (0.11028952331803238, -0.6550059831431403, -0.5841690605219897)),
    (0.35, (0.6246043586443191, 0.2935282146825886, -0.3118735623279328)),
    (0.25, (-0.1622976262540997, 0.7459988811106044, -0.45072003391066134)),
]


def knife_edge_triple(step=0):
    """A triple whose pair (0, 1) leaves state 2 a conjugate of norm 1 + BALL_SLACK, to the bit.

    step scales the third Bloch vector by 1 + step ulps, which moves that
    norm across the bound.
    """
    (p0, b0), (p1, b1), (p2, b2) = _KNIFE_EDGE
    scale = 1.0 + step * 2.0 ** -52
    return qsd.validate_ensemble([(p0, b0), (p1, b1), (p2, tuple(scale * x for x in b2))])


def _pair_verdicts(monkeypatch, ens):
    """The gate's verdicts, "ok" or its refusal, on the candidates of pair (0, 1) that reach it.

    Returns them with solve_three_state's result, then undoes every patch.
    """
    verdicts = []
    gate = qsd.closed_form.assemble_result

    def spy(*args, **kwargs):
        pair = args[5] == "three-state-boundary" and args[4][2] == 0.0
        try:
            result = gate(*args, **kwargs)
        except qsd.CertificateError as exc:
            verdicts.extend([str(exc)] * pair)
            raise
        verdicts.extend(["ok"] * pair)
        return result

    monkeypatch.setattr(qsd.closed_form, "assemble_result", spy)
    result = solve_three_state(ens)
    monkeypatch.undo()
    return verdicts, result


def test_boundary_candidate_passes_the_screen_iff_the_gates_ball_test(monkeypatch):
    # the screen and the gate take one norm (bloch.row_norms' rounding), so
    # the screen passes pair (0, 1) exactly when the gate's ball test does:
    # with the screen opened (its BALL_SLACK infinite) the gate refuses the
    # pair exactly where the screen drops it, and prints the norm it tested
    oracle_p = solve_oracle(knife_edge_triple()).p_opt
    seen = set()
    for step in range(-4, 5):
        ens = knife_edge_triple(step)
        screened, result = _pair_verdicts(monkeypatch, ens)
        monkeypatch.setattr(qsd.closed_form, "BALL_SLACK", math.inf)
        (verdict,), _ = _pair_verdicts(monkeypatch, ens)
        assert screened == ([verdict] if verdict == "ok" else [])
        if verdict == "ok":
            assert result.method == "three-state-boundary"
        else:
            norm = float(re.fullmatch(r"conjugate norm (\S+) exceeds 1", verdict).group(1))
            assert norm > 1.0 + BALL_SLACK and result.method == "oracle"
        assert result.p_opt == oracle_p
        assert_result_valid(ens, result)
        seen.add(verdict == "ok")
    assert seen == {True, False}
    # at step 0 the norm is the bound itself, which the gate accepts
    result = solve_three_state(knife_edge_triple())
    assert result.method == "three-state-boundary"
    assert qsd.bloch.row_norms(result.certificate.conjugates)[2] == 1.0 + BALL_SLACK


def test_trine_interior():
    ens = trine()
    result = solve_three_state(ens)
    assert result.p_opt == pytest.approx(2.0 / 3.0, abs=1e-12)
    assert result.method == "three-state-interior"
    assert np.allclose(result.certificate.lambdas, 1.0 / 12.0, atol=1e-12)
    assert math.hypot(*result.certificate.common_point) <= 1e-9
    assert all(result.certificate.pure_mask)
    assert_result_valid(ens, result)


def test_trine_interior_coplanarity():
    result = solve_three_state(trine())
    c = result.certificate.conjugates
    dots = (float(c[0] @ c[1]), float(c[0] @ c[2]), float(c[1] @ c[2]))
    assert abs(gram_identity_residual(dots)) <= 1e-10


def _counting(monkeypatch, name):
    """Calls of qsd.closed_form.<name>, which still runs."""
    calls = []
    real = getattr(qsd.closed_form, name)

    def spy(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(qsd.closed_form, name, spy)
    return calls


def test_guess_regime_is_screened_first(monkeypatch):
    oracle_calls = _counting(monkeypatch, "solve_oracle")
    ens = qsd.validate_ensemble(
        [(0.9, (0, 0, 0.01)), (0.05, (0, 0, 1)), (0.05, (1, 0, 0))]
    )
    result = solve_three_state(ens)
    assert result.method == "three-state-boundary"
    assert result.certificate.degenerate
    assert result.p_opt == 0.9
    assert not oracle_calls


GUESS_MARGINS = (-1e-9, -1e-13, 0.0, 1e-13, 1e-9)


def _permuted(rng, priors, points):
    order = rng.permutation(3)
    return qsd.validate_ensemble(
        [(float(priors[i]), tuple(float(x) for x in points[i])) for i in order]
    )


def _unit(rng):
    v = rng.normal(size=3)
    return v / np.linalg.norm(v)


def differential_inputs(seed=2024):
    """(label, fires, ensemble) triples around the three-state guess screen, seeded.

    fires says whether the screen must fire, None where rounding decides.
    margin<m>: the guess margin min_i (p_k - p_i - |q_i - q_k|) is about m,
    set by one state and with the other covered; tied-distinct and
    tied-coincident: two equal top priors on distinct or equal points;
    tiny: priors down to 1e-6. States come in a random order.
    """
    rng = np.random.default_rng(seed)
    out = []
    for margin in GUESS_MARGINS:
        for _ in range(8):
            top = rng.uniform(0.5, 0.9)
            near = 10.0 ** rng.uniform(-6.0, math.log10(0.8 * (1.0 - top)))
            b_near = 0.9 * ball_points(rng, 1)[0]
            b_top = (near * b_near + (top - near - margin) * _unit(rng)) / top
            # the third state shares the top state's Bloch vector, which the
            # guess covers with slack (top - third)(1 - |b_top|) > 0
            priors = (top, near, 1.0 - top - near)
            fires = None if margin == 0.0 else margin > 0.0
            ens = _permuted(rng, priors, (b_top, b_near, b_top))
            out.append((f"margin{margin:g}", fires, ens))
    for covered in (True, False):
        for _ in range(4):
            top = rng.uniform(0.34, 0.45)
            direction = _unit(rng)
            # covered with slack (3 top - 1)(1 - |b_top|), or missed by
            # 2 (1 - 2 top) - 0.05 top > 0
            b_top = rng.uniform(0.0, 0.8) * direction if covered else 0.95 * direction
            b_third = b_top if covered else -direction
            priors = (top, top, 1.0 - 2.0 * top)
            ens = _permuted(rng, priors, (b_top, b_top, b_third))
            out.append(("tied-coincident", covered, ens))
    for _ in range(6):
        top = rng.uniform(0.34, 0.49)
        points = ball_points(rng, 3)
        out.append(("tied-distinct", False, _permuted(rng, (top, top, 1.0 - 2.0 * top), points)))
    for _ in range(12):
        tiny = 10.0 ** rng.uniform(-6.0, -3.0, size=2)
        priors = (1.0 - tiny.sum(), *tiny) if rng.uniform() < 0.5 else (
            0.5 - tiny[0], 0.5, tiny[0])
        out.append(("tiny", None, _permuted(rng, priors, ball_points(rng, 3))))
    return out


def test_guess_screen_agrees_with_the_oracle(monkeypatch):
    """Near the screen's boundary, at ties and at tiny priors the three-state
    solve is valid and within 1e-12 of the oracle; where the screen fires it
    returns the oracle's own answer without calling it."""
    oracle_calls = _counting(monkeypatch, "solve_oracle")
    guesses = _counting(monkeypatch, "guess_result")
    for label, fires, ens in differential_inputs():
        del oracle_calls[:], guesses[:]
        result = solve_three_state(ens)
        oracle = solve_oracle(ens)
        assert_result_valid(ens, result)
        assert abs(result.p_opt - oracle.p_opt) <= 1e-12, label
        if fires is not None:
            assert bool(guesses) == fires, label
        if guesses:
            assert not oracle_calls, label
            assert result.method == "three-state-boundary"
            assert result.p_opt == oracle.p_opt
            assert result.povm == oracle.povm


def test_wrong_size_rejected():
    with pytest.raises(ValueError):
        solve_three_state(qsd.validate_ensemble([(0.5, (0, 0, 1)), (0.5, (0, 0, -1))]))


def test_matches_oracle_on_random_draws():
    rng = np.random.default_rng(29)
    for _ in range(40):
        ens = random_ensemble(rng, 3)
        result = solve_three_state(ens)
        oracle = solve_oracle(ens)
        assert abs(result.p_opt - oracle.p_opt) <= 1e-6
        assert_result_valid(ens, result)


# ---------------------------------------------------------------------------
# quadratic coefficients


def test_coefficients_trine():
    coeffs = ThreeStateCoefficients.from_ensemble(trine())
    assert coeffs.dist12_sq == pytest.approx(1.0 / 3.0, abs=1e-12)
    assert coeffs.dist13_sq == pytest.approx(1.0 / 3.0, abs=1e-12)
    assert coeffs.dist23_sq == pytest.approx(1.0 / 3.0, abs=1e-12)
    roots = coeffs.roots()
    assert any(abs(r - 2.0 / 3.0) <= 1e-10 for r in roots)


def test_coefficients_mirror_interior_root():
    ens = mirror_ensemble(math.pi / 3.0, 0.3)
    roots = ThreeStateCoefficients.from_ensemble(ens).roots()
    target = 0.22 / 0.325
    assert any(abs(r - target) <= 1e-9 for r in roots)


def test_coefficients_validation():
    with pytest.raises(ValueError):
        ThreeStateCoefficients(-1.0, 0.0, 0.0, 1.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        ThreeStateCoefficients.from_ensemble(
            qsd.validate_ensemble([(0.5, (0, 0, 1)), (0.5, (0, 0, -1))])
        )


def test_roots_degenerate_quadratics():
    assert ThreeStateCoefficients(0.0, 0.0, 0.0, 0.0, 2.0, -1.0).roots() == (0.5,)
    assert ThreeStateCoefficients(0.0, 0.0, 0.0, 0.0, 0.0, 1.0).roots() == ()
    assert ThreeStateCoefficients(0.0, 0.0, 0.0, 1.0, 0.0, 1.0).roots() == ()


# ---------------------------------------------------------------------------
# multiplier algebra


def test_lambdas_trine():
    lam = lambdas_three_state((-0.5, -0.5, -0.5), (0.5, 0.5, 0.5))
    assert np.allclose(lam, 1.0 / 12.0, atol=1e-15)
    aggregate = math.fsum(l / (1.0 - t) for l, t in zip(lam, (0.5, 0.5, 0.5)))
    assert aggregate == pytest.approx(0.5, abs=1e-15)


def test_lambdas_symmetric_dots_equal_multipliers():
    lam = lambdas_three_state((-0.5, -0.5, -0.5), (0.4, 0.4, 0.3))
    assert lam[0] == lam[1]
    assert lam[0] == pytest.approx(0.1, abs=1e-15)
    assert lam[2] == pytest.approx(7.0 / 60.0, abs=1e-15)


def test_lambdas_noncoplanar_dots_rejected():
    with pytest.raises(GramConsistencyError):
        lambdas_three_state((-0.4, -0.5, -0.5), (0.5, 0.5, 0.5))


def test_lambdas_degenerate_denominator():
    with pytest.raises(DegenerateGeometryError):
        lambdas_three_state((1.0, -0.3, -0.3), (0.5, 0.5, 0.5))


def test_gram_identity_values():
    assert gram_identity_residual((-0.5, -0.5, -0.5)) == pytest.approx(0.0, abs=1e-15)
    assert gram_identity_residual((0.0, 0.0, 0.0)) == -1.0
    assert gram_identity_residual((1.0, 0.37, 0.37)) == pytest.approx(0.0, abs=1e-15)
    assert gram_identity_residual((-0.4, -0.5, -0.5)) == pytest.approx(-0.14, abs=1e-12)
    with pytest.raises(ValueError):
        gram_identity_residual((1.1, 0.0, 0.0))


# ---------------------------------------------------------------------------
# mirror-symmetric family


def test_mirror_threshold_quarter_pi():
    assert mirror_threshold(math.pi / 4.0) == pytest.approx(1.0 / 3.0, abs=1e-15)


def test_mirror_regimes_coincide_at_threshold():
    reg = mirror_regime(math.pi / 4.0, 1.0 / 3.0)
    assert reg.pair_value == pytest.approx(2.0 / 3.0, abs=1e-12)
    assert reg.interior_value == pytest.approx(2.0 / 3.0, abs=1e-12)
    result = solve_mirror_symmetric(math.pi / 4.0, 1.0 / 3.0)
    assert result.p_opt == pytest.approx(2.0 / 3.0, abs=1e-9)


def test_mirror_boundary_regime():
    theta, p1 = math.pi / 3.0, 0.4
    reg = mirror_regime(theta, p1)
    assert reg.regime == "boundary"
    assert reg.reference_p == pytest.approx(0.7464101615137755, abs=1e-15)
    result = solve_mirror_symmetric(theta, p1)
    assert result.method == "mirror-symmetric"
    assert result.p_opt == pytest.approx(reg.reference_p, abs=1e-12)
    # third element drops out in this regime
    assert result.povm.elements[2].a <= 1e-12


def test_mirror_interior_regime():
    theta, p1 = math.pi / 3.0, 0.3
    reg = mirror_regime(theta, p1)
    assert reg.regime == "interior"
    assert reg.reference_p == pytest.approx(0.22 / 0.325, abs=1e-15)
    result = solve_mirror_symmetric(theta, p1)
    assert result.method == "mirror-symmetric"
    assert result.p_opt == pytest.approx(reg.reference_p, abs=1e-12)
    assert all(result.certificate.pure_mask)
    ens = mirror_ensemble(theta, p1)
    assert abs(result.p_opt - solve_oracle(ens).p_opt) <= 1e-8
    assert_result_valid(ens, result)


def test_mirror_ensemble_geometry():
    ens = mirror_ensemble(math.pi / 6.0, 0.25)
    b = ens.bloch_matrix
    s, c = math.sin(math.pi / 3.0), math.cos(math.pi / 3.0)
    np.testing.assert_allclose(b[0], [s, 0.0, c], atol=1e-15)
    np.testing.assert_allclose(b[1], [-s, 0.0, c], atol=1e-15)
    np.testing.assert_allclose(b[2], [0.0, 0.0, 1.0], atol=1e-15)
    assert ens.priors[2] == pytest.approx(0.5, abs=1e-15)


def test_mirror_parameter_validation():
    with pytest.raises(ValueError):
        mirror_ensemble(0.0, 0.3)
    with pytest.raises(ValueError):
        mirror_ensemble(math.pi / 3.0, 0.5)
    with pytest.raises(ValueError):
        mirror_regime(2.0, 0.3)
    with pytest.raises(ValueError):
        mirror_regime(1.0, -0.1)
