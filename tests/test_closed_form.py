"""Closed-form solvers: two-state, diagonal, symmetric shell, cone, dispatch."""

import math
import sys
import tracemalloc

import numpy as np
import pytest

import qsd
from qsd import (
    Povm,
    WeightSystemInfeasible,
    cone_ensemble,
    solve_auto,
    solve_cone,
    solve_diagonal,
    solve_oracle,
    solve_symmetric_shell,
    solve_two_state,
)
from qsd.closed_form import solve_with_method
from qsd.family import assemble_result, guess_result
from qsd.oracle import classical_diagonal_oracle
from qsd.platonic import PLATONIC_KINDS, PlatonicSolid, platonic_ensemble
from helpers import (
    assert_result_valid,
    one_sided_shell,
    quarter_circle_cone,
    random_diagonal_ensemble,
    random_ensemble,
)


# ---------------------------------------------------------------------------
# two states


def test_two_state_orthogonal_pair():
    ens = qsd.validate_ensemble([(0.5, (0, 0, 1)), (0.5, (0, 0, -1))])
    result = solve_two_state(ens)
    assert result.p_opt == pytest.approx(1.0, abs=1e-15)
    assert result.method == "two-state"
    np.testing.assert_allclose(result.povm.v[0], [0, 0, 0.5], atol=1e-12)
    np.testing.assert_allclose(result.povm.v[1], [0, 0, -0.5], atol=1e-12)
    assert_result_valid(ens, result)


def test_two_state_identical_states_canonical():
    ens = qsd.validate_ensemble([(0.5, (0, 0, 0.5)), (0.5, (0, 0, 0.5))])
    result = solve_two_state(ens)
    assert result.p_opt == 0.5
    assert result.certificate.degenerate
    for el in result.povm.elements:
        assert el.a == 0.5 and math.hypot(*el.v) == 0.0
    conj = result.certificate.conjugates
    np.testing.assert_allclose(conj[0], [0, 0, 1])
    np.testing.assert_allclose(conj[1], [0, 0, -1])
    assert result.certificate.lambdas.tolist() == [0.0, 0.0]


def test_two_state_skewed_formula():
    ens = qsd.validate_ensemble([(0.3, (1, 0, 0)), (0.7, (0, 1, 0))])
    result = solve_two_state(ens)
    assert result.p_opt == pytest.approx(0.5 * (1.0 + math.sqrt(0.58)), abs=1e-15)
    assert abs(result.p_opt - solve_oracle(ens).p_opt) <= 1e-9
    assert_result_valid(ens, result)


def test_two_state_lambda_closed_form_exact():
    ens = qsd.validate_ensemble([(0.3, (1, 0, 0)), (0.7, (0, 1, 0))])
    result = solve_two_state(ens)
    p = result.p_opt
    cert = result.certificate
    # multipliers are literally (1 - p_i/p)/4
    assert cert.lambdas[0] == (1.0 - 0.3 / p) / 4.0
    assert cert.lambdas[1] == (1.0 - 0.7 / p) / 4.0
    aggregate = math.fsum(
        lam * math.hypot(*c) ** 2 / (1.0 - t)
        for lam, c, t in zip(cert.lambdas, cert.conjugates, cert.scaled_priors)
    )
    assert abs(aggregate - 0.5) <= 1e-12


def test_two_state_guess_regime():
    # the second pair's weighted points coincide, q = (0, 0, 0.3), under unequal priors
    for entries in ([(0.98, (0, 0, 0)), (0.02, (0, 0, 0.1))],
                    [(0.6, (0, 0, 0.5)), (0.4, (0, 0, 0.75))]):
        ens = qsd.validate_ensemble(entries)
        result = solve_two_state(ens)
        assert result.p_opt == entries[0][0]
        assert result.certificate.degenerate
        assert result.povm.a.tolist() == [1.0, 0.0]
        assert_result_valid(ens, result)


def test_two_state_conjugates_antipodal_unit():
    rng = np.random.default_rng(2)
    for _ in range(25):
        ens = random_ensemble(rng, 2)
        result = solve_two_state(ens)
        if result.certificate.degenerate:
            continue
        c1, c2 = result.certificate.conjugates
        assert math.hypot(*c1) == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(c2, -c1, atol=1e-12)


def test_two_state_wrong_size():
    with pytest.raises(ValueError):
        solve_two_state(qsd.cone_ensemble(3, 1.0, 0.5 * math.pi))


# ---------------------------------------------------------------------------
# diagonal ensembles


def test_diagonal_worked_example():
    ens = qsd.validate_ensemble(
        [(0.5, (0, 0, 0.8)), (0.3, (0, 0, -0.5)), (0.2, (0, 0, 0.1))]
    )
    result = solve_diagonal(ens)
    assert result.p_opt == 0.675
    assert result.p_opt == classical_diagonal_oracle(ens)
    assert result.method == "diagonal"
    # winner: state 1 up, state 2 down
    assert result.povm.elements[0].a == 0.5
    np.testing.assert_allclose(result.povm.v[0], [0, 0, 0.5], atol=1e-15)
    assert result.povm.elements[1].a == 0.5
    np.testing.assert_allclose(result.povm.v[1], [0, 0, -0.5], atol=1e-15)
    assert result.povm.elements[2].a == 0.0
    assert_result_valid(ens, result)


def test_diagonal_two_poles():
    ens = qsd.validate_ensemble([(0.5, (0, 0, 1)), (0.5, (0, 0, -1))])
    result = solve_diagonal(ens)
    assert result.p_opt == pytest.approx(1.0, abs=1e-15)


def test_diagonal_dominant_prior_guess():
    ens = qsd.validate_ensemble(
        [(0.98, (0, 0, 1)), (0.01, (0, 0, -1)), (0.01, (0, 0, 0))]
    )
    result = solve_diagonal(ens)
    # up-guess on state 1 plus down-guess on state 2: not a guess strategy
    assert result.p_opt == classical_diagonal_oracle(ens)
    assert result.p_opt == pytest.approx(0.99, abs=1e-15)
    assert_result_valid(ens, result)


def test_diagonal_guess_regime_exact():
    ens = qsd.validate_ensemble(
        [(0.98, (0, 0, 0.1)), (0.01, (0, 0, 0.2)), (0.01, (0, 0, -0.1))]
    )
    result = solve_diagonal(ens)
    assert result.certificate.degenerate
    assert result.p_opt == classical_diagonal_oracle(ens)
    assert_result_valid(ens, result)


def test_diagonal_equal_z_reduces_to_guess():
    ens = qsd.validate_ensemble(
        [(0.5, (0, 0, 0.5)), (0.3, (0, 0, 0.5)), (0.2, (0, 0, 0.5))]
    )
    result = solve_diagonal(ens)
    assert result.p_opt == classical_diagonal_oracle(ens)
    assert result.p_opt >= ens.priors.max() - 1e-15


def test_diagonal_matches_classical_on_random_draws():
    rng = np.random.default_rng(17)
    for _ in range(200):
        ens = random_diagonal_ensemble(rng, int(rng.integers(2, 7)))
        result = solve_diagonal(ens)
        assert result.p_opt == classical_diagonal_oracle(ens)


def test_diagonal_conjugates_match_per_state_formula():
    """Each conjugate off the winning pair is (r - q_k)/(p - p_k), computed
    state by state as the reference, bit for bit; a state with no gap keeps 0."""
    rng = np.random.default_rng(23)
    checked = 0
    for n in (3, 4, 7, 16, 33, 64):
        for _ in range(5):
            ens = random_diagonal_ensemble(rng, n, min_prior=1e-9)
            result = solve_diagonal(ens)
            if result.certificate.degenerate:
                continue
            conj = result.certificate.conjugates
            u, d = np.flatnonzero(result.povm.a > 0.0)
            r = result.certificate.common_point
            for k in range(n):
                if k in (u, d):
                    continue
                gap = result.p_opt - ens.priors[k]
                expected = (r - ens.weighted_points[k]) / gap if gap > 1e-15 else np.zeros(3)
                assert np.array_equal(conj[k], expected)
            checked += 1
    assert checked >= 20


def _table_solve_diagonal(ens):
    """solve_diagonal as it was with the n x n table of up_u + down_d, kept as
    the reference for the O(n) pick."""
    pr = ens.priors
    n = ens.n
    z = ens.bloch_matrix[:, 2]
    up = pr * (1.0 + z) / 2.0
    down = pr * (1.0 - z) / 2.0
    pairs = up[:, None] + down[None, :]
    np.fill_diagonal(pairs, -np.inf)
    u, d = divmod(int(np.argmax(pairs)), n)
    best_val = pairs[u, d]
    guesses = up + down
    k = int(np.argmax(guesses))
    if guesses[k] > best_val:
        u = d = k
        best_val = guesses[k]
    if u == d:
        return guess_result(ens, u, "diagonal", value=best_val)
    p = float(best_val)
    q = ens.weighted_points
    conj = np.zeros((n, 3))
    conj[u, 2] = -1.0
    conj[d, 2] = 1.0
    r = q[d] + (p - pr[d]) * np.array([0.0, 0.0, 1.0])
    gap = p - pr
    rest = gap > 1e-15
    rest[[u, d]] = False
    conj[rest] = (r - q[rest]) / gap[rest, None]
    weights = np.zeros(n)
    weights[u] = weights[d] = 1.0
    return assemble_result(ens, p, r, conj, weights, "diagonal")


def _outcome(solve, ens) -> str:
    try:
        return repr(solve(ens))
    except (ValueError, qsd.DiscriminationError) as exc:
        return f"{type(exc).__name__}: {exc}"


def test_diagonal_pick_matches_the_table_on_ties():
    """The O(n) pick gives the table's result, repr for repr, on 600 draws
    with tied priors, tied z and both at once, where the first pair in
    row-major order decides; every fourth has off-axis components -0.0."""
    rng = np.random.default_rng(31)
    guesses = 0
    for t in range(600):
        n = int(rng.integers(2, 10))
        raw = rng.integers(1, 4, size=n).astype(float) if t % 2 else rng.uniform(0.1, 1.0, size=n)
        z = rng.choice([-1.0, -0.5, 0.0, 0.5, 1.0], size=n) if t % 3 else rng.uniform(-1, 1, size=n)
        x = -0.0 if t % 4 == 1 else 0.0
        ens = qsd.validate_ensemble(
            [(p, (x, x, zz)) for p, zz in zip((raw / raw.sum()).tolist(), z.tolist())])
        expected = _outcome(_table_solve_diagonal, ens)
        assert _outcome(solve_diagonal, ens) == expected
        guesses += "degenerate=True" in expected
    assert 20 < guesses < 580


def test_diagonal_pick_memory_is_linear():
    """At n = 4,096 the n x n table alone would take 128 MiB; the pick and
    the gate stay within 512 bytes per state."""
    n = 4096
    ens = random_diagonal_ensemble(np.random.default_rng(5), n, min_prior=0.0)
    solve_diagonal(ens)  # lazy set-up outside the measurement
    tracemalloc.start()
    try:
        solve_diagonal(ens)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 512 * n


def test_diagonal_rejects_offaxis():
    with pytest.raises(ValueError):
        solve_diagonal(qsd.cone_ensemble(3, 1.0, 0.5 * math.pi))


# ---------------------------------------------------------------------------
# symmetric shell


def test_shell_tetrahedron_unit():
    ens, _ = platonic_ensemble(PlatonicSolid("tetrahedron", 1.0))
    result = solve_symmetric_shell(ens)
    assert result.p_opt == pytest.approx(0.5, abs=1e-12)
    w = 2.0 * result.povm.a
    np.testing.assert_allclose(w, 0.5, atol=1e-9)
    assert_result_valid(ens, result)


def test_shell_octahedron_half_radius():
    ens, _ = platonic_ensemble(PlatonicSolid("octahedron", 0.5))
    result = solve_symmetric_shell(ens)
    assert result.p_opt == pytest.approx(0.25, abs=1e-12)
    assert_result_valid(ens, result)


def test_shell_zero_radius_guess():
    n = 4
    ens = qsd.validate_ensemble([(0.25, (0, 0, 0))] * n)
    result = solve_symmetric_shell(ens)
    assert result.p_opt == pytest.approx(1.0 / n, abs=1e-15)
    assert result.certificate.degenerate


def test_shell_requires_equiprobable():
    ens = qsd.validate_ensemble(
        [(0.4, (0, 0, 1)), (0.3, (1, 0, 0)), (0.3, (0, 1, 0))]
    )
    with pytest.raises(ValueError):
        solve_symmetric_shell(ens)
    # and so does the cone, the shell about its axis point
    with pytest.raises(ValueError, match=r"^ensemble lacks cone structure"):
        solve_with_method(ens, "cone")


def test_shell_requires_common_norm():
    ens = qsd.validate_ensemble(
        [(0.5, (0, 0, 1)), (0.5, (0.5, 0, 0))]
    )
    with pytest.raises(ValueError):
        solve_symmetric_shell(ens)


def test_shell_half_space_infeasible():
    third = 1.0 / 3.0
    ens = qsd.validate_ensemble(
        [
            (third, (0.6, 0.0, 0.8)),
            (third, (-0.6, 0.0, 0.8)),
            (third, (0.0, 0.6, 0.8)),
        ]
    )
    with pytest.raises(WeightSystemInfeasible):
        solve_symmetric_shell(ens)


# ---------------------------------------------------------------------------
# cone


def test_cone_trine():
    result = solve_cone(3, 1.0, 0.5 * math.pi)
    assert result.p_opt == pytest.approx(2.0 / 3.0, abs=1e-12)
    assert result.method == "cone"


def test_cone_four_state_formula():
    result = solve_cone(4, 0.8, math.pi / 3.0)
    expected = (1.0 + 0.8 * math.sin(math.pi / 3.0)) / 4.0
    assert result.p_opt == pytest.approx(expected, abs=1e-15)
    assert result.p_opt == pytest.approx(0.4232050807568877, abs=1e-12)
    ens = cone_ensemble(4, 0.8, math.pi / 3.0)
    assert abs(result.p_opt - solve_oracle(ens).p_opt) <= 1e-8
    assert_result_valid(ens, result)


def test_cone_polar_collapse():
    result = solve_cone(4, 0.7, 0.0)
    assert result.p_opt == pytest.approx(0.25, abs=1e-15)
    assert result.certificate.degenerate


def test_cone_half_plane_infeasible():
    with pytest.raises(WeightSystemInfeasible):
        solve_cone(3, 1.0, 0.5 * math.pi, phis=(0.0, 0.3, 0.6))


# (n, b, theta, azimuths): past the equator, seeded random azimuths, no
# Bloch norm, and the two poles. The last three put every state on the z
# axis, where solve_auto's diagonal check comes first.
CONE_CASES = [
    (5, 0.9, 2.4, None),
    (6, 0.6, 2.4, tuple(np.random.default_rng(7).uniform(0.0, 2.0 * math.pi, 6))),
    (7, 0.8, 1.1, tuple(np.random.default_rng(11).uniform(0.0, 2.0 * math.pi, 7))),
    (4, 0.0, 1.0, None),
    (5, 0.7, 0.0, None),
    (5, 0.7, math.pi, None),
]


@pytest.mark.parametrize(
    "n, b, theta, phis", CONE_CASES,
    ids=["past-equator", "random-azimuths-2.4", "random-azimuths-1.1", "no-norm", "north", "south"],
)
def test_cone_formula_and_oracle(n, b, theta, phis):
    ens = cone_ensemble(n, b, theta, phis)
    on_axis = np.abs(ens.bloch_matrix[:, :2]).max() <= 1e-12
    expected = (1.0 + b * math.sin(theta)) / n
    oracle = solve_oracle(ens).p_opt
    for result, method in ((solve_auto(ens), "diagonal" if on_axis else "cone"),
                           (solve_cone(n, b, theta, phis), "cone")):
        assert result.method == method
        assert abs(result.p_opt - expected) <= 1e-14
        assert abs(result.p_opt - oracle) <= 1e-9
        assert_result_valid(ens, result)


@pytest.mark.parametrize("theta", [math.pi / 3.0, 2.4])
def test_cone_half_circle_azimuths_go_to_oracle(theta):
    phis = tuple(np.sort(np.random.default_rng(5).uniform(0.0, math.pi, 6)))
    assert solve_auto(cone_ensemble(6, 0.9, theta, phis)).method == "oracle"
    with pytest.raises(WeightSystemInfeasible):
        solve_cone(6, 0.9, theta, phis)


def _ten_digits(ens):
    rows = [tuple(float(f"{x:.10g}") for x in row) for row in ens.bloch_matrix.tolist()]
    return qsd.validate_ensemble([(1.0 / ens.n, row) for row in rows])


def _rotated(ens, seed):
    rotation = np.linalg.qr(np.random.default_rng(seed).normal(size=(3, 3)))[0]
    return qsd.validate_ensemble([(1.0 / ens.n, tuple(row)) for row in ens.bloch_matrix @ rotation])


# rows as read back from a file written with ten significant digits: their
# norms differ by about 1e-10, and each conjugate must still be a unit vector
@pytest.mark.parametrize(
    "ens, method",
    [(_ten_digits(cone_ensemble(n, 0.83, theta)), "cone")
     for n, theta in ((7, 2.1), (12, 0.9), (19, 1.7))]
    + [(_ten_digits(_rotated(platonic_ensemble(PlatonicSolid(kind, 0.9))[0], 3)), "symmetric-shell")
       for kind in ("cube", "icosahedron")],
    ids=["cone-7", "cone-12", "cone-19", "cube", "icosahedron"],
)
def test_rows_given_to_ten_digits_stay_closed_form(ens, method):
    result = solve_auto(ens)
    assert result.method == method
    assert abs(result.p_opt - solve_oracle(ens).p_opt) <= 1e-9
    assert_result_valid(ens, result)


@pytest.mark.parametrize(
    "ens",
    [platonic_ensemble(PlatonicSolid(kind, 0.7))[0] for kind in PLATONIC_KINDS]
    + [cone_ensemble(4, 0.8, math.pi / 3.0)],
    ids=list(PLATONIC_KINDS) + ["cone"],
)
def test_auto_probes_the_common_norm_once(ens, monkeypatch):
    calls = []
    probe = qsd.closed_form._common_norm

    def counted(rows):
        calls.append(len(rows))
        return probe(rows)

    monkeypatch.setattr(qsd.closed_form, "_common_norm", counted)
    assert solve_auto(ens).method in ("symmetric-shell", "cone")
    assert calls == [ens.n]


@pytest.mark.parametrize("n", [3, 20])
def test_auto_probes_the_z_axis_once(n, monkeypatch):
    calls = []
    probe = qsd.closed_form._on_z_axis

    def counted(ensemble):
        calls.append(ensemble.n)
        return probe(ensemble)

    monkeypatch.setattr(qsd.closed_form, "_on_z_axis", counted)
    ens = random_diagonal_ensemble(np.random.default_rng(n), n)
    assert solve_auto(ens).method == "diagonal"
    assert calls == [n]


def test_cone_parameter_validation():
    with pytest.raises(ValueError):
        cone_ensemble(1, 1.0, 0.5)
    with pytest.raises(ValueError):
        cone_ensemble(3, 1.2, 0.5)
    with pytest.raises(ValueError):
        cone_ensemble(3, 0.5, 4.0)
    with pytest.raises(ValueError):
        cone_ensemble(3, 0.5, 0.5, phis=(0.0, 1.0))


# ---------------------------------------------------------------------------
# dispatch


def test_solve_with_method_refuses_an_unknown_name():
    ens = qsd.validate_ensemble([(0.5, (0, 0, 1)), (0.5, (0, 0, -1))])
    with pytest.raises(ValueError, match=r"^unknown method 'simplex'$"):
        solve_with_method(ens, "simplex")


def test_auto_two_state_tag():
    ens = qsd.validate_ensemble([(0.3, (1, 0, 0)), (0.7, (0, 1, 0))])
    assert solve_auto(ens).method == "two-state"


def test_auto_diagonal_tag():
    ens = qsd.validate_ensemble(
        [(0.5, (0, 0, 0.8)), (0.3, (0, 0, -0.5)), (0.2, (0, 0, 0.1))]
    )
    assert solve_auto(ens).method == "diagonal"


def test_auto_three_state_tag():
    ens = qsd.validate_ensemble(
        [(0.9, (0, 0, 1)), (0.05, (0, 0, -1)), (0.05, (1, 0, 0))]
    )
    assert solve_auto(ens).method == "three-state-boundary"


def test_auto_shell_tag():
    ens, _ = platonic_ensemble(PlatonicSolid("tetrahedron", 0.7))
    result = solve_auto(ens)
    assert result.method == "symmetric-shell"
    assert result.p_opt == pytest.approx(1.7 / 4.0, abs=1e-12)


def test_auto_cone_tag():
    ens = cone_ensemble(4, 0.8, math.pi / 3.0)
    assert solve_auto(ens).method == "cone"


def test_auto_oracle_fallback():
    rng = np.random.default_rng(23)
    ens = random_ensemble(rng, 5)
    result = solve_auto(ens)
    assert result.method == "oracle"
    assert_result_valid(ens, result)


def test_auto_half_space_shell_falls_to_oracle():
    # equal norms but mixed polar angles (not a cone), all states in the
    # upper half space: the shell weight system is infeasible
    ens = qsd.validate_ensemble(
        [
            (0.25, (0.6, 0.0, 0.8)),
            (0.25, (-0.6, 0.0, 0.8)),
            (0.25, (0.0, 0.6, 0.8)),
            (0.25, (0.0, 0.0, 1.0)),
        ]
    )
    result = solve_auto(ens)
    assert result.method == "oracle"
    assert_result_valid(ens, result)


@pytest.mark.parametrize(
    "ens", [one_sided_shell(64), quarter_circle_cone(32)], ids=["one-sided-shell", "quarter-cone"]
)
def test_auto_declines_one_sided_families_without_enumeration(ens, monkeypatch):
    # the weight sweep decides on its own: no support enumeration, at most
    # one lstsq per direction for the one equidistant attempt
    def enumeration(*args, **kwargs):
        raise AssertionError("subset_support_weights called")

    monkeypatch.setattr(qsd.weights, "subset_support_weights", enumeration)
    calls = []
    lstsq = np.linalg.lstsq

    def counted(*args, **kwargs):
        if sys._getframe(1).f_globals["__name__"] == "qsd.weights":
            calls.append(args[0].shape)
        return lstsq(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "lstsq", counted)
    result = solve_auto(ens)
    assert 0 < len(calls) <= ens.n
    assert result.method == "oracle"
    assert result == solve_oracle(ens)
