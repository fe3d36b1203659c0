"""The exact yardstick, and knife-edge inputs judged by it.

helpers.exact_minimax gives p* of an ensemble's floats as an interval of
Fractions. The knife-edge inputs sit where a question used to be asked at
two values (a zero gap, a negative weight, tied priors and coincident
points) or a norm in two roundings; each must end certified within 1e-12 of
p*, or in a typed DiscriminationError, on a record that keeps floats and on
one that stores arrays.
"""

import json
import math

import numpy as np
import pytest

import qsd
import qsd.cli
from qsd.bloch import BALL_SLACK, EQUIPROBABLE_TOL, NEG_WEIGHT_TOL, TIED_POINT_TOL, ZERO_TOL

from helpers import (
    EXACT_STATES, assert_result_valid, brute_force_minimax, exact_minimax, near_guess_ensemble,
    random_ensemble, sphere_points)


def _interval_width(interval):
    lo, hi = interval
    return float(hi - lo)


def _distance(p, interval):
    """How far the float p lies outside the interval, 0.0 inside it."""
    lo, hi = interval
    return float(max(lo - p, p - hi, 0))


def test_exact_minimax_brackets_the_brute_force_optimum():
    rng = np.random.default_rng(31)
    ensembles = [random_ensemble(rng, n) for n in range(2, EXACT_STATES + 1) for _ in range(3)]
    for n in range(2, EXACT_STATES + 1):
        jitter = 1.0 + rng.uniform(-0.05, 0.05, size=n)
        ensembles.append(qsd.WeightedEnsemble(jitter / jitter.sum(), sphere_points(rng, n)))
    ensembles += [near_guess_ensemble(rng) for _ in range(3)]
    for ens in ensembles:
        interval = exact_minimax(ens)
        assert 0.0 <= _interval_width(interval) < 1e-30
        assert _distance(brute_force_minimax(ens), interval) <= 1e-12


def test_exact_minimax_knows_the_closed_forms():
    # the guess (p* = max prior exactly) and two antipodal pure states (p* = 1)
    guess = qsd.validate_ensemble([(0.9, (0.0, 0.0, 0.5)), (0.1, (0.0, 0.0, 0.4))])
    lo, hi = exact_minimax(guess)
    assert lo <= 0.9 <= hi and _interval_width((lo, hi)) < 1e-30
    poles = qsd.validate_ensemble([(0.5, (0.0, 0.0, 1.0)), (0.5, (0.0, 0.0, -1.0))])
    lo, hi = exact_minimax(poles)
    assert lo <= 1 <= hi and _interval_width((lo, hi)) < 1e-30


def _float64_rows(entries):
    """The entries with np.float64 coordinates, which the float checks decline."""
    return [(p, tuple(map(np.float64, row))) for p, row in entries]


# the pair (0, 1) leaves state 2 a gap p - p_2 of 3e-13, which the
# three-state screens once took for zero (at 1e-12) and conjugates_at did not
GAP_TRIPLE = [
    (0.3, (-0.32000000000000006, -0.4000000000000001, -0.4266666666666668)),
    (0.25, (0.28800000000115195, 0.36000000000144006, 0.384000000001536)),
    (0.44999999999999996, (-0.0533333333330133, -0.06666666666626662, -0.0711111111106844)),
]
# an interior root with the weight of state 1 near -4.2e-11: below
# NEG_WEIGHT_TOL, which the gate refuses, and inside the 1e-10 the interior
# screen once allowed before clamping it to 0
INTERIOR_TRIPLE = [
    (0.31, (-0.54, 0.5760000000000001, -0.43200000000000005)),
    (0.39999999999999997, (-0.17714999999521436, -0.1938999999936191, -0.36859999998936527)),
    (0.29, (0.57, -0.608, 0.4559999999999999)),
]
# priors and weighted points 1e-13 apart: tied at EQUIPROBABLE_TOL and
# TIED_POINT_TOL, not at the ZERO_TOL the two-state solver once asked
NEAR_TIED_PAIR = [
    (0.49999999999995, (0.3, -0.5, 0.2)),
    (0.50000000000005, (0.30000000000006, -0.4999999999999, 0.20000000000012003)),
]
# the pair (0, 1) leaves state 2 a conjugate of norm 1 + BALL_SLACK to the
# bit, where math.hypot and np.hypot once disagreed (tests/test_three_state.py)
KNIFE_EDGE_TRIPLE = [
    (0.4, (0.11028952331803238, -0.6550059831431403, -0.5841690605219897)),
    (0.35, (0.6246043586443191, 0.2935282146825886, -0.3118735623279328)),
    (0.25, (-0.1622976262540997, 0.7459988811106044, -0.45072003391066134)),
]

# (name, entries, the method tag it ends with): every one certifies, none raises
KNIFE_EDGES = [
    ("gap", GAP_TRIPLE, "three-state-boundary"),
    ("interior-weight", INTERIOR_TRIPLE, "three-state-boundary"),
    ("near-tied-pair", NEAR_TIED_PAIR, "two-state"),
    ("conjugate-norm", KNIFE_EDGE_TRIPLE, "three-state-boundary"),
]


def _interior_weights(ens):
    """The weights 4 p lambda_i / (p - p_i) of each interior root whose multipliers exist."""
    pr = ens.priors.tolist()
    coefficients = qsd.ThreeStateCoefficients.from_ensemble(ens)
    gaps = (coefficients.dist12_sq, coefficients.dist13_sq, coefficients.dist23_sq)
    found = []
    for p in coefficients.roots():
        s = [p - x for x in pr]
        dots = [(s[a] ** 2 + s[b] ** 2 - g) / (2.0 * s[a] * s[b])
                for (a, b), g in zip(((0, 1), (0, 2), (1, 2)), gaps)]
        try:
            lam = qsd.lambdas_three_state(dots, [x / p for x in pr])
        except (qsd.DegenerateGeometryError, qsd.GramConsistencyError, ValueError):
            continue
        found.append([4.0 * p * m / t for m, t in zip(lam, s)])
    return found


def test_the_knife_edges_sit_between_the_old_bounds():
    gap = qsd.solve_auto(qsd.validate_ensemble(GAP_TRIPLE)).p_opt - GAP_TRIPLE[2][0]
    assert ZERO_TOL < gap <= 1e-12
    weights = _interior_weights(qsd.validate_ensemble(INTERIOR_TRIPLE))
    assert any(-1e-10 <= min(w) < -NEG_WEIGHT_TOL for w in weights)
    (p0, b0), (p1, b1) = NEAR_TIED_PAIR
    assert ZERO_TOL < abs(p1 - p0) <= EQUIPROBABLE_TOL
    assert ZERO_TOL < math.dist([p0 * x for x in b0], [p1 * x for x in b1]) <= TIED_POINT_TOL
    result = qsd.solve_auto(qsd.validate_ensemble(KNIFE_EDGE_TRIPLE))
    assert qsd.bloch.row_norms(result.certificate.conjugates).max() == 1.0 + BALL_SLACK


@pytest.mark.parametrize("form", ["floats", "arrays"])
@pytest.mark.parametrize("name, entries, ending", KNIFE_EDGES, ids=[c[0] for c in KNIFE_EDGES])
def test_knife_edges_certify_within_1e_12_of_the_exact_optimum(name, entries, ending, form):
    ens = qsd.validate_ensemble(entries if form == "floats" else _float64_rows(entries))
    assert ("_floats" in vars(ens)) == (form == "floats")
    result = qsd.solve_auto(ens)
    assert result.method == ending
    assert_result_valid(ens, result)
    assert _distance(result.p_opt, exact_minimax(ens)) <= 1e-12


# nearly tied pairs whose weighted points lie a little apart: the direction
# of the pure conjugates is d/|d| with d = q_2 - q_1; 2p - 1 is |d| too, but
# cancels there, and the direction divided by it left the unit sphere
SPLIT_PAIRS = [((0.5, 0.5), 1e-7), ((0.5, 0.5), 1e-4), ((0.4999999999985, 0.5000000000015), 1e-11)]


@pytest.mark.parametrize("priors, dz", SPLIT_PAIRS, ids=["tied-1e-7", "tied-1e-4", "untied-1e-11"])
def test_nearly_tied_pairs_a_little_apart_certify(priors, dz, tmp_path, capsys):
    entries = [(priors[0], (0.3, -0.5, 0.2)), (priors[1], (0.3, -0.5, 0.2 + dz))]
    ens = qsd.validate_ensemble(entries)
    interval = exact_minimax(ens)
    result = qsd.solve_auto(ens)
    assert result.method == "two-state"
    assert_result_valid(ens, result)
    assert _distance(result.p_opt, interval) <= 1e-12
    path = tmp_path / "pair.txt"
    path.write_text("".join(f"{p!r} {x!r} {y!r} {z!r}\n" for p, (x, y, z) in entries))
    code = qsd.cli.main(["solve", str(path), "--format", "json"])
    report = json.loads(capsys.readouterr().out)
    assert code == 0 and report["method"] == "two-state"
    assert _distance(report["p_opt"], interval) <= 1e-12


def test_nearly_tied_pairs_certify_or_refuse_typed():
    # |q_2 - q_1| from 1e-12 to 1e-3, priors tied or a few ulps to 1e-12 apart
    rng = np.random.default_rng(2032)
    for exponent in np.linspace(-12.0, -3.0, 91).tolist():
        for _ in range(4):
            p0 = 0.5 + float(rng.choice([0.0, 2.0 ** -53, 1e-13, 1e-12]) * rng.choice([-1, 1]))
            u, v = sphere_points(rng, 2)
            q0 = p0 * 0.8 * float(rng.uniform()) * u
            q1 = q0 + 10.0 ** exponent * v
            ens = qsd.validate_ensemble([(p0, tuple(q0 / p0)), (1.0 - p0, tuple(q1 / (1.0 - p0)))])
            for solve in (qsd.solve_auto, qsd.solve_two_state):
                try:
                    result = solve(ens)
                except qsd.DiscriminationError:
                    continue
                assert result.method == "two-state"
                assert_result_valid(ens, result)
