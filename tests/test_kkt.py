"""First-order residual grading and multiplier recovery."""

import math
from dataclasses import replace

import numpy as np
import pytest

import qsd
from qsd import DegenerateRatioError
from qsd.kkt import kkt_residuals, recover_multipliers
from helpers import random_ensemble


def skewed_pair():
    return qsd.validate_ensemble([(0.3, (1, 0, 0)), (0.7, (0, 1, 0))])


def boundary_triple():
    return qsd.validate_ensemble(
        [(0.9, (0, 0, 1)), (0.05, (0, 0, -1)), (0.05, (1, 0, 0))]
    )


def test_closed_form_two_state_residuals_tiny():
    ens = skewed_pair()
    result = qsd.solve_two_state(ens)
    report = kkt_residuals(ens, result.certificate, result.povm)
    for name, value in report.residuals().items():
        assert value < 1e-12, name
    assert report.passes
    assert not report.degenerate


def test_perturbed_ratio_breaks_primal_equality():
    ens = skewed_pair()
    result = qsd.solve_two_state(ens)
    cert = result.certificate
    p_bad = cert.p + 0.01
    bad = replace(
        cert,
        p=p_bad,
        scaled_priors=tuple(ens.priors / p_bad),
    )
    report = kkt_residuals(ens, bad, result.povm)
    assert report.primal_eq >= 0.005
    assert not report.passes


def test_mixed_conjugate_with_multiplier_breaks_slackness():
    ens = boundary_triple()
    result = qsd.solve_three_state(ens)
    cert = result.certificate
    assert cert.pure_mask == (True, True, False)
    c3_sq = cert.conjugates[2].norm() ** 2
    assert c3_sq == pytest.approx(290.0 / 324.0, abs=1e-12)
    bad = replace(cert, lambdas=(cert.lambdas[0], cert.lambdas[1], 0.1))
    report = kkt_residuals(ens, bad, result.povm)
    assert report.slackness == pytest.approx(0.1 * (1.0 - c3_sq), abs=1e-12)
    assert report.slackness > 1e-8
    assert not report.passes


def test_recover_multipliers_two_state():
    ens = skewed_pair()
    result = qsd.solve_two_state(ens)
    lambdas, nus = recover_multipliers(
        ens, result.p_opt, result.certificate.conjugates, result.povm
    )
    scaled = ens.priors / result.p_opt
    for lam, t in zip(lambdas, scaled):
        assert lam == pytest.approx((1.0 - t) / 4.0, abs=1e-15)
    assert len(nus) == 1


def test_recover_multipliers_trine():
    ens = qsd.cone_ensemble(3, 1.0, 0.5 * math.pi)
    result = qsd.solve_three_state(ens)
    lambdas, nus = recover_multipliers(
        ens, result.p_opt, result.certificate.conjugates, result.povm
    )
    assert np.allclose(lambdas, 1.0 / 12.0, atol=1e-12)
    assert len(nus) == 2


def test_recover_multipliers_zero_element():
    ens = boundary_triple()
    result = qsd.solve_three_state(ens)
    assert result.povm.elements[2].a == 0.0
    lambdas, _ = recover_multipliers(
        ens, result.p_opt, result.certificate.conjugates, result.povm
    )
    assert lambdas[2] == 0.0


def test_recover_multipliers_rejects_degenerate_ratio():
    ens = skewed_pair()
    result = qsd.solve_two_state(ens)
    with pytest.raises(DegenerateRatioError):
        recover_multipliers(ens, 0.7, result.certificate.conjugates, result.povm)


def test_degenerate_guess_report_flagged():
    ens = qsd.validate_ensemble(
        [(0.98, (0, 0, 0.1)), (0.01, (0, 0, 0.2)), (0.01, (0, 0, -0.1))]
    )
    result = qsd.solve_diagonal(ens)
    assert result.certificate.degenerate
    assert result.kkt.degenerate
    # feasibility residuals still excellent in the guess regime
    assert result.kkt.primal_ineq <= 1e-12
    assert result.kkt.primal_eq <= 1e-12
    assert result.kkt.dual_feas == 0.0


def test_worst_names_largest_residual():
    ens = skewed_pair()
    result = qsd.solve_two_state(ens)
    name, value = result.kkt.worst()
    assert name in result.kkt.residuals()
    assert value == max(result.kkt.residuals().values())


def test_result_kkt_is_the_direct_report():
    rng = np.random.default_rng(11)
    ensembles = [skewed_pair(), boundary_triple(), qsd.cone_ensemble(3, 1.0, 0.5 * math.pi)]
    ensembles += [random_ensemble(rng, n) for n in (2, 3, 3, 4, 5)]
    ensembles.append(
        qsd.validate_ensemble([(0.98, (0, 0, 0.1)), (0.01, (0, 0, 0.2)), (0.01, (0, 0, -0.1))])
    )
    for ens in ensembles:
        result = qsd.solve_auto(ens)
        assert result.kkt == kkt_residuals(ens, result.certificate, result.povm)
        assert result.kkt is result.kkt


def test_stationarity_implies_aggregates():
    """Whenever the stationarity rows are satisfied to 1e-10, the two
    aggregate identities must hold to 1e-8 (they are algebraic consequences)."""
    rng = np.random.default_rng(7)
    checked = 0
    for _ in range(40):
        n = int(rng.integers(2, 4))
        ens = random_ensemble(rng, n)
        result = qsd.solve_auto(ens)
        report = result.kkt
        if report.stationarity_p <= 1e-10 and report.stationarity_c <= 1e-10:
            checked += 1
            assert report.aggregate_sum <= 1e-8
            assert report.aggregate_half <= 1e-8
    assert checked > 0


def test_report_never_throws_on_broken_input():
    ens = skewed_pair()
    result = qsd.solve_two_state(ens)
    cert = result.certificate
    bad = replace(cert, lambdas=(5.0, -3.0))
    report = kkt_residuals(ens, bad, result.povm)
    assert report.dual_feas == pytest.approx(3.0)
    assert not report.passes
