"""First-order residual grading and the certificate multipliers."""

import math
from dataclasses import replace

import numpy as np
import pytest

import qsd
from qsd.bloch import KKT_TOL
from qsd.family import family_residual, max_pairwise_distance
from qsd.kkt import kkt_residuals
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
    assert cert.pure_mask.tolist() == [True, True, False]
    c3_sq = float(cert.conjugates[2] @ cert.conjugates[2])
    assert c3_sq == pytest.approx(290.0 / 324.0, abs=1e-12)
    bad = replace(cert, lambdas=(cert.lambdas[0], cert.lambdas[1], 0.1))
    report = kkt_residuals(ens, bad, result.povm)
    assert report.slackness == pytest.approx(0.1 * (1.0 - c3_sq), abs=1e-12)
    assert report.slackness > 1e-8
    assert not report.passes


def test_recover_multipliers_two_state():
    ens = skewed_pair()
    result = qsd.solve_two_state(ens)
    cert = result.certificate
    scaled = ens.priors / result.p_opt
    for lam, t in zip(cert.lambdas, scaled):
        assert lam == pytest.approx((1.0 - t) / 4.0, abs=1e-15)
    # nu_2 = 2 lambda_2 c_2 / (1 - p~_2), with state 1 as the pivot
    nu = 2.0 * cert.lambdas[1] * cert.conjugates[1] / (1.0 - scaled[1])
    np.testing.assert_allclose(result.kkt.nu, [nu], rtol=0.0, atol=1e-15)


def test_recover_multipliers_trine():
    ens = qsd.cone_ensemble(3, 1.0, 0.5 * math.pi)
    result = qsd.solve_three_state(ens)
    assert np.allclose(result.certificate.lambdas, 1.0 / 12.0, atol=1e-12)
    assert len(result.kkt.nu) == 2


def test_recover_multipliers_zero_element():
    ens = boundary_triple()
    result = qsd.solve_three_state(ens)
    assert result.povm.elements[2].a == 0.0
    assert result.certificate.lambdas[2] == 0.0


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


def per_pivot_residuals(cert):
    """Stationarity rows and aggregates evaluated literally for every pivot k."""
    c = cert.conjugates
    lam = np.asarray(cert.lambdas, dtype=float)
    one_minus = 1.0 - np.asarray(cert.scaled_priors, dtype=float)
    nus = []
    for lam_i, c_i, om_i in zip(lam, c, one_minus):
        if om_i > 1e-12:
            nus.append(2.0 * lam_i * c_i / om_i)
        elif abs(lam_i) <= 1e-15:
            nus.append(np.zeros(3))
        else:
            nus.append(2.0 * lam_i * c_i / 1e-300)
    stat_p = stat_c = 0.0
    n = len(lam)
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(n):
            others = [i for i in range(n) if i != k]
            stat_p = max(stat_p, abs(1.0 + sum(float(nus[i] @ (c[k] - c[i])) for i in others)))
            row = 2.0 * lam[k] * c[k] + one_minus[k] * sum(nus[i] for i in others)
            stat_c = max(stat_c, float(np.linalg.norm(row)))
            for i in others:
                row = 2.0 * lam[i] * c[i] - one_minus[i] * nus[i]
                stat_c = max(stat_c, float(np.linalg.norm(row)))
        aggregate_sum = float(np.linalg.norm(sum(nus) / 2.0))
        aggregate_half = abs(sum(float(nu @ c_i) for nu, c_i in zip(nus, c)) / 2.0 - 0.5)
    values = {
        "stationarity_p": stat_p,
        "stationarity_c": stat_c,
        "aggregate_sum": aggregate_sum,
        "aggregate_half": aggregate_half,
    }
    return {f: v if math.isfinite(v) else math.inf for f, v in values.items()}


def test_one_pass_report_matches_every_pivot():
    rng = np.random.default_rng(5)
    cases = []
    for n in range(2, 9):
        for _ in range(4):
            ens = random_ensemble(rng, n)
            result = qsd.solve_auto(ens)
            cases.append((ens, result.certificate, result.povm))
    ens = skewed_pair()
    result = qsd.solve_two_state(ens)
    cert = result.certificate
    p_bad = cert.p + 0.01
    perturbed = replace(cert, p=p_bad, scaled_priors=tuple(ens.priors / p_bad))
    cases.append((ens, perturbed, result.povm))
    cases.append((ens, replace(cert, lambdas=(5.0, -3.0)), result.povm))
    # a degenerate state (p~ = 1) that still carries a multiplier and a conjugate
    degenerate = replace(cert, scaled_priors=(cert.scaled_priors[0], 1.0))
    assert degenerate.lambdas[1] > 0.0 and math.hypot(*degenerate.conjugates[1]) > 0.5
    cases.append((ens, degenerate, result.povm))
    # its nu overflows the squared norms of the c-rows
    assert kkt_residuals(ens, degenerate, result.povm).stationarity_c == math.inf
    ens = boundary_triple()
    result = qsd.solve_three_state(ens)
    cert = result.certificate
    cases.append((ens, replace(cert, scaled_priors=(1.0, *cert.scaled_priors[1:])), result.povm))

    for ens, cert, povm in cases:
        report = kkt_residuals(ens, cert, povm)
        literal = per_pivot_residuals(cert)
        for name, expected in literal.items():
            got = getattr(report, name)
            close = math.isclose(got, expected, rel_tol=1e-12, abs_tol=1e-12)
            assert got == expected or close, (name, got, expected)
        others = [v for f, v in report.residuals().items() if f not in literal]
        assert report.passes == all(v <= KKT_TOL for v in others + list(literal.values()))


def _one_shot_max_distance(points):
    diffs = points[:, None, :] - points[None, :, :]
    return float(np.sqrt((diffs ** 2).sum(axis=2)).max())


def _awkward_points(rng, n, scale):
    """n rows at one scale, with repeated rows, signed zeros and one flat axis.

    Most rows lie on the sphere of radius scale, half of them opposite
    another, so that many pairs tie to within rounding for the largest
    distance and the order of the sum of squares shows in the maximum.
    """
    points = rng.normal(size=(n, 3))
    points *= scale / np.linalg.norm(points, axis=1)[:, None]
    points[n // 2:] = -points[:n - n // 2] * (1.0 + 1e-16 * rng.integers(-2, 3, size=(n - n // 2, 1)))
    points[::17] *= 0.5
    points[::3, 2] *= 1e-9                     # nearly planar rows
    points[1::5] = points[0]                   # exact repeats of one row
    points[2::7] = points[n // 2]              # repeats of a row from another block
    points[3::11] = 0.0
    points[4::11] = -0.0                       # zeros that differ only in sign
    points[5::13, 1] = -points[5::13, 1]
    return points


@pytest.mark.parametrize("n", [1, 2, 255, 256, 257, 600])
@pytest.mark.parametrize("scale", [1e-17, 1e-9, 1e-3, 1.0, 1e2])
def test_max_pairwise_distance_matches_the_one_shot_table(n, scale):
    """The planar blocked table with repeated rows dropped equals the one-shot
    n x n x 3 formula bit for bit, across block edges and scales."""
    rng = np.random.default_rng(int(n + 1e3 * math.log10(scale) + 1e5))
    points = _awkward_points(rng, n, scale)
    expected = _one_shot_max_distance(points)
    assert max_pairwise_distance(points) == expected
    assert max_pairwise_distance(points[::-1].copy()) == expected


@pytest.mark.parametrize("scale", [1e-17, 1.0, 1e2])
def test_max_pairwise_distance_rounds_each_pair_as_the_table(scale):
    """On two rows the maximum is one pair's distance, so every draw checks
    the order of the sum of squares; a different order moves about one in
    five of them."""
    rng = np.random.default_rng(2)
    for pair in rng.normal(size=(2000, 2, 3)) * scale:
        assert max_pairwise_distance(pair) == _one_shot_max_distance(pair)


@pytest.mark.parametrize("n", [1, 2, 255, 257, 600])
@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_max_pairwise_distance_carries_inf_and_nan_as_the_table_does(n, bad):
    """A row holding inf or NaN meets itself in inf - inf or NaN, so it gives
    NaN as the one-shot table does; finite rows too far apart for a finite
    square give inf in both."""
    rng = np.random.default_rng(n)
    points = _awkward_points(rng, n, 1.0)
    for rows in ([n - 1], [0, n // 2] if n > 1 else [0]):
        for column in range(3):
            bent = points.copy()
            bent[rows, column] = bad
            with np.errstate(invalid="ignore"):
                expected = _one_shot_max_distance(bent)
                got = max_pairwise_distance(bent)
            assert repr(got) == repr(expected)
            assert math.isnan(got)
    wide = np.array([[0.0, 0.0, 0.0], [1e200, 0.0, 0.0], [0.0, -1e200, 0.0]])
    with np.errstate(over="ignore"):
        assert max_pairwise_distance(wide) == _one_shot_max_distance(wide) == math.inf


def test_pairwise_maxima_match_the_one_shot_table_exactly():
    """primal_eq and family_residual walk row blocks; at n = 600 (three blocks)
    both equal the one-shot n x n x 3 formula bit for bit, at the optimum and
    with conjugates scrambled so the largest pair sits in the last block."""
    rng = np.random.default_rng(600)
    priors = rng.uniform(1.0, 2.0, size=600)
    points = rng.normal(size=(600, 3))
    points *= rng.uniform(0.0, 1.0, size=600)[:, None] / np.linalg.norm(points, axis=1)[:, None]
    ens = qsd.validate_ensemble(list(zip((priors / priors.sum()).tolist(), points.tolist())))
    result = qsd.solve_oracle(ens)
    cert = result.certificate
    scrambled = rng.normal(size=(600, 3))
    scrambled[-1] = 50.0
    for conj in (cert.conjugates, scrambled):
        scaled = cert.scaled_priors
        mixtures = scaled[:, None] * ens.bloch_matrix + (1.0 - scaled)[:, None] * conj
        report = kkt_residuals(ens, replace(cert, conjugates=conj), result.povm)
        assert report.primal_eq == _one_shot_max_distance(mixtures)
        family = ens.weighted_points + (cert.p - ens.priors)[:, None] * conj
        assert family_residual(ens, cert.p, conj) == _one_shot_max_distance(family)
    assert report.primal_eq > 10.0
