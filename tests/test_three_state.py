"""Three-state solver: boundary/interior candidates, multiplier algebra, mirror family."""

import math

import numpy as np
import pytest

import qsd
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
from helpers import assert_result_valid, random_ensemble


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
        cert.conjugates[2].as_array(), [-1.0 / 18.0, 0.0, 17.0 / 18.0], atol=1e-12
    )
    assert cert.conjugates[2].norm() == pytest.approx(math.sqrt(290.0) / 18.0, abs=1e-12)
    assert cert.pure_mask.tolist() == [True, True, False]
    assert_result_valid(ens, result)


def test_trine_interior():
    ens = trine()
    result = solve_three_state(ens)
    assert result.p_opt == pytest.approx(2.0 / 3.0, abs=1e-12)
    assert result.method == "three-state-interior"
    assert np.allclose(result.certificate.lambdas, 1.0 / 12.0, atol=1e-12)
    assert result.certificate.common_point.norm() <= 1e-9
    assert all(result.certificate.pure_mask)
    assert_result_valid(ens, result)


def test_trine_interior_coplanarity():
    result = solve_three_state(trine())
    c = result.certificate.conjugate_matrix()
    dots = (float(c[0] @ c[1]), float(c[0] @ c[2]), float(c[1] @ c[2]))
    assert abs(gram_identity_residual(dots)) <= 1e-10


def test_guess_regime_falls_to_oracle():
    ens = qsd.validate_ensemble(
        [(0.9, (0, 0, 0.01)), (0.05, (0, 0, 1)), (0.05, (1, 0, 0))]
    )
    result = solve_three_state(ens)
    assert result.method == "oracle"
    assert result.certificate.degenerate
    assert result.p_opt == pytest.approx(0.9, abs=1e-10)


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
