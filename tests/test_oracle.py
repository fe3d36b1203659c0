"""Minimax oracle: objective, certified minimizer, POVM recovery, samplers."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qsd
import qsd.oracle
from qsd import CertificateError, ConvergenceError, MinimaxSolution
from qsd.oracle import (
    classical_diagonal_oracle,
    minimax_common_point,
    minimax_objective,
    random_povm_sample,
    recover_povm,
    solve_oracle,
)
from helpers import (
    assert_result_valid,
    ball_points,
    brute_force_minimax,
    near_guess_ensemble,
    pair_lower_bound,
    random_ensemble,
    reference_minimax,
    sphere_points,
)


def antipodal():
    return qsd.validate_ensemble([(0.5, (0, 0, 1)), (0.5, (0, 0, -1))])


def trine():
    return qsd.cone_ensemble(3, 1.0, 0.5 * math.pi)


def boundary_triple():
    return qsd.validate_ensemble(
        [(0.9, (0, 0, 1)), (0.05, (0, 0, -1)), (0.05, (1, 0, 0))]
    )


def test_objective_values():
    ens = antipodal()
    assert minimax_objective(ens, (0, 0, 0)) == pytest.approx(1.0)
    assert minimax_objective(ens, (0, 0, 0.5)) == pytest.approx(1.5)


def test_minimax_antipodal():
    sol = minimax_common_point(antipodal())
    assert sol.converged
    assert sol.p_star == pytest.approx(1.0, abs=1e-10)
    assert math.hypot(*sol.r_star) <= 1e-9
    assert len(sol.basis) >= 2
    assert minimax_objective(antipodal(), sol.r_star) == sol.p_star


def test_minimax_trine():
    sol = minimax_common_point(trine())
    assert sol.converged
    assert sol.p_star == pytest.approx(2.0 / 3.0, abs=1e-10)
    assert math.hypot(*sol.r_star) <= 1e-8
    assert len(sol.basis) >= 2
    assert minimax_objective(trine(), sol.r_star) == sol.p_star


def test_minimax_boundary_triple():
    sol = minimax_common_point(boundary_triple())
    assert sol.p_star == pytest.approx(0.95, abs=1e-10)
    assert np.allclose(sol.r_star, [0, 0, 0.85], atol=1e-8)


def test_pair_lower_bound():
    assert pair_lower_bound(antipodal()) == pytest.approx(1.0, abs=1e-15)
    assert pair_lower_bound(boundary_triple()) == pytest.approx(0.95, abs=1e-15)
    # bound never exceeds the optimum
    rng = np.random.default_rng(11)
    for _ in range(20):
        ens = random_ensemble(rng, int(rng.integers(2, 6)))
        assert pair_lower_bound(ens) <= solve_oracle(ens).p_opt + 1e-9


def test_pair_lower_bound_matches_pair_loop():
    """The row-vectorized bound equals the pair-by-pair loop up to norm rounding."""
    rng = np.random.default_rng(29)
    for n in (2, 3, 5, 12, 40, 200):
        ens = random_ensemble(rng, n, min_prior=1e-9)
        pr, q = ens.priors, ens.weighted_points
        expected = max(
            [float(pr.max())]
            + [
                0.5 * (pr[i] + pr[j] + float(np.linalg.norm(q[i] - q[j])))
                for i in range(n)
                for j in range(i + 1, n)
            ]
        )
        assert pair_lower_bound(ens) == pytest.approx(expected, rel=0.0, abs=1e-15)


def test_determinism():
    rng = np.random.default_rng(3)
    ens = random_ensemble(rng, 5)
    a = minimax_common_point(ens)
    b = minimax_common_point(ens)
    assert a.p_star == b.p_star
    assert a.r_star == b.r_star
    assert a.basis == b.basis and a.basis_weights == b.basis_weights


def test_objective_convexity():
    rng = np.random.default_rng(5)
    for _ in range(10):
        ens = random_ensemble(rng, int(rng.integers(2, 7)))
        for _ in range(50):
            r1 = rng.normal(size=3)
            r2 = rng.normal(size=3)
            t = rng.uniform()
            lhs = minimax_objective(ens, t * r1 + (1.0 - t) * r2)
            rhs = t * minimax_objective(ens, r1) + (1.0 - t) * minimax_objective(ens, r2)
            assert lhs <= rhs + 1e-12


def test_recover_povm_boundary_triple():
    ens = boundary_triple()
    povm, cert = recover_povm(ens, minimax_common_point(ens))
    assert povm.elements[2].a == 0.0
    assert not cert.pure_mask[2]
    assert cert.pure_mask[0] and cert.pure_mask[1]
    np.testing.assert_allclose(povm.v[0], [0, 0, 0.5], atol=1e-8)


def test_recover_povm_guess_regime():
    ens = qsd.validate_ensemble([(0.98, (0, 0, 0)), (0.02, (0, 0, 0.1))])
    povm, cert = recover_povm(ens, minimax_common_point(ens))
    assert cert.degenerate
    assert cert.p == pytest.approx(0.98, abs=1e-12)
    assert povm.elements[0].a == 1.0
    assert all(lam == 0.0 for lam in cert.lambdas)


def test_recover_povm_requires_convergence():
    sol = MinimaxSolution(
        p_star=0.5,
        r_star=(0.0, 0.0, 0.0),
        iterations=1,
        converged=False,
    )
    with pytest.raises(ConvergenceError):
        recover_povm(trine(), sol)


def test_solve_oracle_full_certificates():
    rng = np.random.default_rng(13)
    for _ in range(10):
        ens = random_ensemble(rng, int(rng.integers(2, 7)))
        result = solve_oracle(ens)
        assert result.method == "oracle"
        assert_result_valid(ens, result)


# one input per method tag and per guess path, each with the tag it must get
ONE_CERTIFICATE_CASES = [
    ("two-state", lambda: qsd.solve_auto(
        qsd.validate_ensemble([(0.3, (1, 0, 0)), (0.7, (0, 1, 0))]))),
    ("three-state-boundary", lambda: qsd.solve_auto(boundary_triple())),
    ("three-state-interior", lambda: qsd.solve_auto(trine())),
    ("three-state-boundary", lambda: qsd.solve_auto(qsd.validate_ensemble(
        [(0.8, (0, 0, 0)), (0.1, (0.5, 0, 0)), (0.1, (0, 0.5, 0))]))),
    ("diagonal", lambda: qsd.solve_auto(qsd.validate_ensemble(
        [(0.5, (0, 0, 0.8)), (0.3, (0, 0, -0.5)), (0.2, (0, 0, 0.1))]))),
    ("diagonal", lambda: qsd.solve_auto(qsd.validate_ensemble(
        [(0.98, (0, 0, 0.1)), (0.01, (0, 0, 0.2)), (0.01, (0, 0, -0.1))]))),
    ("symmetric-shell", lambda: qsd.solve_auto(
        qsd.platonic_ensemble(qsd.PlatonicSolid("octahedron"))[0])),
    ("cone", lambda: qsd.solve_auto(qsd.cone_ensemble(5, 0.8, 1.0))),
    ("mirror-symmetric", lambda: qsd.solve_mirror_symmetric(math.radians(30), 0.3)),
    ("oracle", lambda: solve_oracle(random_ensemble(np.random.default_rng(17), 8))),
]


def test_solve_oracle_builds_one_certificate(monkeypatch):
    # the constructor and the gate's own path both store a certificate
    # through _store, once per certificate
    built = []
    real = qsd.HelstromCertificate._store

    def spy(self, **values):
        built.append(self)
        real(self, **values)

    monkeypatch.setattr(qsd.HelstromCertificate, "_store", spy)
    rng = np.random.default_rng(17)
    guess = qsd.validate_ensemble([(0.98, (0, 0, 0)), (0.02, (0, 0, 0.1))])
    for ens in (trine(), boundary_triple(), guess, random_ensemble(rng, 8)):
        del built[:]
        result = solve_oracle(ens)
        assert built == [result.certificate]
        assert result.povm == recover_povm(ens, minimax_common_point(ens))[0]
    for method, solve in ONE_CERTIFICATE_CASES:
        del built[:]
        result = solve()
        assert result.method == method
        assert built == [result.certificate], method


def test_classical_diagonal_oracle_values():
    ens = qsd.validate_ensemble(
        [(0.5, (0, 0, 0.8)), (0.3, (0, 0, -0.5)), (0.2, (0, 0, 0.1))]
    )
    assert classical_diagonal_oracle(ens) == 0.675
    poles = antipodal()
    assert classical_diagonal_oracle(poles) == pytest.approx(1.0, abs=1e-15)
    dominant = qsd.validate_ensemble(
        [(0.98, (0, 0, 1)), (0.01, (0, 0, -1)), (0.01, (0, 0, 0))]
    )
    assert classical_diagonal_oracle(dominant) == pytest.approx(0.99, abs=1e-15)


def test_classical_diagonal_oracle_rejects_offaxis():
    with pytest.raises(ValueError):
        classical_diagonal_oracle(trine())


def test_random_povm_sample_bound_and_determinism():
    ens = trine()
    best = random_povm_sample(ens, 10_000, seed=1)
    assert best <= 2.0 / 3.0 + 1e-8
    assert best > 1.0 / 3.0  # beats blind guessing on this ensemble
    assert best == random_povm_sample(ens, 10_000, seed=1)


def test_random_povm_sample_count_validation():
    with pytest.raises(ValueError):
        random_povm_sample(trine(), 0)


def test_guess_regime_is_the_first_basis():
    for ens in (
        qsd.validate_ensemble([(0.98, (0, 0, 0)), (0.02, (0, 0, 0.1))]),
        qsd.validate_ensemble([(0.9, (0, 0, 0.5)), (0.05, (0, 0, 0.4)), (0.05, (0.3, 0, 0))]),
    ):
        sol = minimax_common_point(ens)
        assert sol.converged
        assert sol.iterations == 1
        assert sol.p_star == float(ens.priors.max())


def test_all_active_equal_priors_certify_on_the_basis_alone(monkeypatch):
    # with exactly equal priors every pure state is active at r = 0, so a
    # stationarity test over the active set would enumerate all 32 of them
    rng = np.random.default_rng(21)
    n = 32
    ens = qsd.validate_ensemble(
        [(1.0 / n, tuple(row)) for row in sphere_points(rng, n)]
    )
    rows, solves = [], []
    real, zero_weights = qsd.oracle._hull_weights, qsd.oracle._zero_weights

    def spy(q, r, basis, support):
        rows.append(len(basis))
        return real(q, r, basis, support)

    def counted(d):
        solves.append(len(d))
        return zero_weights(d)

    monkeypatch.setattr(qsd.oracle, "_hull_weights", spy)
    monkeypatch.setattr(qsd.oracle, "_zero_weights", counted)
    sol = minimax_common_point(ens)
    assert sol.converged
    # every state attains the maximum at r_star
    f_vals = ens.priors + np.linalg.norm(ens.weighted_points - sol.r_star, axis=1)
    assert f_vals.min() >= sol.p_star * (1.0 - 1e-7)
    assert sol.p_star == pytest.approx(2.0 / n, abs=1e-12)
    assert len(rows) <= 1 and all(m <= 5 for m in rows)
    # the exit solves the last pivot's support once, and searches no other subset
    assert len(solves) <= 1 and all(m <= 4 for m in solves)


@pytest.mark.parametrize("n", [256, 1024])
def test_large_ensembles_need_few_pivots(n):
    rng = np.random.default_rng(n)
    priors = rng.dirichlet(np.ones(n))
    mixed = qsd.validate_ensemble(
        [(float(p), tuple(row)) for p, row in zip(priors, ball_points(rng, n))]
    )
    jitter = 1.0 + rng.uniform(-0.05, 0.05, size=n)
    pure = qsd.validate_ensemble(
        [(float(p), tuple(row)) for p, row in zip(jitter / jitter.sum(), sphere_points(rng, n))]
    )
    for ens in (mixed, pure):
        sol = minimax_common_point(ens)
        assert sol.converged
        assert sol.iterations <= 20


@settings(deadline=None, max_examples=60)
@given(
    seed=st.integers(0, 2 ** 32 - 1),
    n=st.integers(2, 10),
    tied=st.integers(0, 10),
    duplicated=st.integers(0, 10),
    pure=st.booleans(),
)
def test_pivoting_matches_exhaustive_supports(seed, n, tied, duplicated, pure):
    # the first `tied` priors share one value and the last `duplicated`
    # states repeat earlier ones, so ties and coincident points both occur
    rng = np.random.default_rng(seed)
    weights = rng.uniform(0.2, 1.0, size=n)
    weights[: min(tied, n)] = weights[0]
    points = sphere_points(rng, n) if pure else ball_points(rng, n)
    for k in range(max(n - duplicated, 1), n):
        points[k] = points[int(rng.integers(0, k))]
    ens = qsd.validate_ensemble(
        [(float(w), tuple(row)) for w, row in zip(weights, points)], renormalize=True
    )
    sol = minimax_common_point(ens)
    assert sol.converged
    assert pair_lower_bound(ens) - 1e-12 <= sol.p_star
    for r in rng.uniform(-1.0, 1.0, size=(5, 3)):
        assert sol.p_star <= minimax_objective(ens, r) + 1e-12
    assert sol.p_star == pytest.approx(brute_force_minimax(ens), abs=1e-12)


def random_rotation(rng):
    basis, upper = np.linalg.qr(rng.normal(size=(3, 3)))
    return basis * np.sign(np.diag(upper))


def degenerate_ensemble(rng, n, geometry, priors):
    """A seeded ensemble whose equal-slack systems are singular or nearly so.

    geometry: "coplanar" (a random plane through 0), "polygon" (a regular
    n-gon in the xy plane, exactly coplanar at equal slack when the priors
    are tied), "collinear" (a random axis), "z-axis" (exactly collinear),
    "duplicated" (the second half repeats earlier states) or "ball".
    priors: "tied", "half-tied" or "random".
    """
    pure = bool(rng.integers(2))
    if geometry == "coplanar":
        angle = rng.uniform(0.0, 2.0 * math.pi, size=n)
        radius = np.ones(n) if pure else rng.uniform(0.0, 1.0, size=n)
        flat = np.column_stack([radius * np.cos(angle), radius * np.sin(angle), np.zeros(n)])
        points = flat @ random_rotation(rng).T
    elif geometry == "polygon":
        angle = 2.0 * math.pi * np.arange(n) / n
        points = np.column_stack([np.cos(angle), np.sin(angle), np.zeros(n)])
    elif geometry in ("collinear", "z-axis"):
        t = rng.choice([-1.0, 1.0], size=n) if pure else rng.uniform(-1.0, 1.0, size=n)
        axis = np.array([0.0, 0.0, 1.0]) if geometry == "z-axis" else sphere_points(rng, 1)[0]
        points = t[:, None] * axis
    else:
        points = sphere_points(rng, n) if pure else ball_points(rng, n)
        if geometry == "duplicated":
            for k in range(max(n // 2, 1), n):
                points[k] = points[int(rng.integers(0, k))]
    weights = rng.uniform(0.2, 1.0, size=n)
    if priors == "tied":
        weights[:] = 1.0
    elif priors == "half-tied":
        weights[: n // 2] = weights[0]
    return qsd.validate_ensemble(
        [(float(w), tuple(row)) for w, row in zip(weights, points)], renormalize=True
    )


DEGENERATE_GEOMETRIES = ("coplanar", "polygon", "collinear", "z-axis", "duplicated", "ball")
DEGENERATE_PRIORS = ("tied", "half-tied", "random")


@pytest.mark.parametrize("geometry", DEGENERATE_GEOMETRIES)
def test_degenerate_geometry_matches_exhaustive_supports(geometry):
    # singular subsets (4 coplanar points at equal slack, collinear triples,
    # coincident points) must be skipped, never divided by
    rng = np.random.default_rng(DEGENERATE_GEOMETRIES.index(geometry) + 701)
    for priors in DEGENERATE_PRIORS:
        for n in range(3, 11):
            ens = degenerate_ensemble(rng, n, geometry, priors)
            sol = minimax_common_point(ens)
            assert sol.converged
            assert sol.p_star == pytest.approx(brute_force_minimax(ens), rel=0.0, abs=1e-12)
            assert solve_oracle(ens).p_opt == sol.p_star


@pytest.mark.parametrize("n", [256, 1024])
@pytest.mark.parametrize("geometry", DEGENERATE_GEOMETRIES)
def test_degenerate_geometry_at_large_n(geometry, n):
    rng = np.random.default_rng([n, DEGENERATE_GEOMETRIES.index(geometry)])
    for priors in ("tied", "random"):
        ens = degenerate_ensemble(rng, n, geometry, priors)
        sol = minimax_common_point(ens)
        assert sol.converged
        assert pair_lower_bound(ens) - 1e-12 <= sol.p_star
        assert solve_oracle(ens).p_opt == sol.p_star


def test_hull_test_skips_exactly_singular_supports():
    # each refusal of the exit's weight solve; the flat triangle and
    # tetrahedron hold 0 in exact arithmetic, so only the flatness test keeps
    # their zero determinant out of a division
    zero_weights = qsd.oracle._zero_weights
    x, y, z = (1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)
    square = [x, y, (-1.0, 0.0, 0.0), (0.0, -1.0, 0.0)]
    assert zero_weights([x, x]) is None  # doubled rows
    assert zero_weights([x, square[2], (2.0, 0.0, 0.0)]) is None  # flat triangle
    assert zero_weights(square) is None  # flat tetrahedron
    # a negative weight: 0 on the line, plane or in the space of the rows, outside their hull
    assert zero_weights([x, (2.0, 0.0, 0.0)]) is None
    assert zero_weights([x, y, (1.0, 1.0, 0.0)]) is None
    assert zero_weights([x, y, z, (1.0, 1.0, 1.0)]) is None
    # a residual above FEAS_TOL: 0 off the line or plane of the rows
    assert zero_weights([x, y]) is None
    assert zero_weights([(1.0, 0.0, 1.0), (0.0, 1.0, 1.0), (-1.0, -1.0, 1.0)]) is None
    assert zero_weights([x, square[2]]) == (0.5, 0.5)
    assert zero_weights([x, y, z, (-1.0, -1.0, -1.0)]) == (0.25, 0.25, 0.25, 0.25)
    # the exit reads the support it is given: the other antiparallel pair of
    # the square certifies as well, and is not searched for
    hull = qsd.oracle._hull_weights
    points = np.array(square)
    assert hull(points, (0.0, 0.0, 0.0), (0, 1, 2, 3), (1, 3)) == (0.0, 0.5, 0.0, 0.5)
    assert hull(points, (0.0, 0.0, 0.0), (0, 1, 2, 3), (0, 1, 2, 3)) is None
    # a basis point at r certifies by itself, whatever the support
    assert hull(points, square[1], (1, 0), (0, 1)) == (1.0, 0.0)
    assert hull(points, square[1], (0, 1), (0, 1)) == (0.0, 1.0)


def test_minimax_makes_no_linalg_call(monkeypatch):
    ens = random_ensemble(np.random.default_rng(20), 20)

    def forbidden(*args, **kwargs):
        raise AssertionError("np.linalg called")

    for name in np.linalg.__all__:
        if callable(getattr(np.linalg, name)):
            monkeypatch.setattr(np.linalg, name, forbidden)
    sol = minimax_common_point(ens)
    assert sol.converged and len(sol.basis) >= 2
    monkeypatch.undo()
    assert sol.p_star == pytest.approx(brute_force_minimax(ens), rel=0.0, abs=1e-12)


def test_near_guess_regime_recovers_a_valid_povm():
    # p* exceeds the largest prior by about 1e-6, so the conjugate of that
    # state comes from a difference of nearly equal numbers and |c| misses 1
    # by more than the PSD tolerance of its element unless it is normalized
    ens = qsd.validate_ensemble([
        (0.034049794533563396, (-0.032983604940599806, -0.9133812712418539, 0.2446082323619201)),
        (0.027568159143459205, (-0.15294349839887186, 0.11982028482815275, -0.5486620904157652)),
        (0.4840149347107606, (0.8450611570277906, 0.28579419601898653, -0.00704823428696028)),
        (0.4543671116122169, (0.859596781274704, 0.3519998602741685, 0.011141761174825356)),
    ])
    result = solve_oracle(ens)
    assert 0.0 < result.p_opt - float(ens.priors.max()) < 1e-5
    assert_result_valid(ens, result)


def test_all_active_equal_priors_recover_from_the_basis(monkeypatch):
    # all 48 states are active at r = 0; the measurement comes from the final
    # basis, so the only weight solve is the hull test on at most 5 rows
    rng = np.random.default_rng(48)
    n = 48
    ens = qsd.validate_ensemble(
        [(1.0 / n, tuple(row)) for row in sphere_points(rng, n)]
    )
    rows = []
    real = qsd.oracle._hull_weights

    def spy(q, r, basis, support):
        rows.append(len(basis))
        return real(q, r, basis, support)

    monkeypatch.setattr(qsd.oracle, "_hull_weights", spy)
    result = solve_oracle(ens)
    assert len(rows) <= 1 and all(m <= 5 for m in rows)
    assert result.p_opt == pytest.approx(2.0 / n, abs=1e-12)
    assert_result_valid(ens, result)


@pytest.mark.parametrize("solve", [solve_oracle, qsd.solve_auto], ids=lambda f: f.__name__)
def test_near_guess_ensembles_all_solve(solve):
    rng = np.random.default_rng(1019)
    for _ in range(100):
        ens = near_guess_ensemble(rng)
        result = solve(ens)
        assert 0.0 <= result.p_opt - float(ens.priors.max()) < 1e-5
        assert_result_valid(ens, result)


def test_recover_povm_returns_the_gated_oracle_result():
    rng = np.random.default_rng(1019)
    inputs = [near_guess_ensemble(rng) for _ in range(100)]
    rng = np.random.default_rng(31)
    inputs += [random_ensemble(rng, n) for n in range(3, 9) for _ in range(5)]
    for ens in inputs:
        result = solve_oracle(ens)
        assert recover_povm(ens, minimax_common_point(ens)) == (result.povm, result.certificate)
    ens = trine()
    sol = minimax_common_point(ens)
    assert sol.converged and sol.p_star < 0.99
    with pytest.raises(CertificateError):
        recover_povm(ens, replace(sol, p_star=sol.p_star + 0.01))


def frozen_reference_inputs():
    """Seeded ensembles of every kind the pivot and hull kernels meet."""
    rng = np.random.default_rng(1414)
    for n in range(4, 21):
        yield random_ensemble(rng, n)
        jitter = 1.0 + rng.uniform(-0.05, 0.05, size=n)
        yield qsd.validate_ensemble(
            [(float(p), tuple(row)) for p, row in zip(jitter / jitter.sum(), sphere_points(rng, n))]
        )
    for n in range(2, 13):  # tied priors, then duplicated points
        weights = rng.uniform(0.2, 1.0, size=n)
        weights[: n // 2 + 1] = weights[0]
        points = sphere_points(rng, n) if n % 2 else ball_points(rng, n)
        for k in range(max(n - n // 3, 1), n):
            points[k] = points[int(rng.integers(0, k))]
        yield qsd.validate_ensemble(
            [(float(w), tuple(row)) for w, row in zip(weights, points)], renormalize=True
        )
    for geometry in DEGENERATE_GEOMETRIES:
        for priors in DEGENERATE_PRIORS:
            for n in range(3, 13):
                yield degenerate_ensemble(rng, n, geometry, priors)
    for _ in range(30):
        yield near_guess_ensemble(rng)
    priors = rng.dirichlet(np.ones(256))
    yield qsd.validate_ensemble(
        [(float(p), tuple(row)) for p, row in zip(priors, ball_points(rng, 256))]
    )
    yield degenerate_ensemble(rng, 256, "ball", "tied")
    # mirror triples near a right angle, whose last pivots tie within rounding
    thetas = rng.uniform(math.radians(80.0), math.radians(90.0), 50)
    for theta, p1 in zip(thetas.tolist(), rng.uniform(0.001, 0.2, 50).tolist()):
        yield qsd.mirror_ensemble(theta, p1)
    # rotated Platonic shells rounded to 8 significant digits, some of whose
    # exits fail: the pivots leave states within rounding of the value out
    for i in range(20):
        kind = qsd.PLATONIC_KINDS[i % len(qsd.PLATONIC_KINDS)]
        verts = rng.uniform(0.1, 1.0) * qsd.platonic_vertices(kind) @ random_rotation(rng).T
        prior = float(f"{1.0 / len(verts):.8g}")
        yield qsd.validate_ensemble(
            [(prior, tuple(float(f"{x:.8g}") for x in row)) for row in verts.tolist()],
            renormalize=True,
        )


def test_kernels_match_the_frozen_reference():
    # the straight-line kernels do the reference's float operations in its
    # order, so every output agrees to the bit: compared by repr and bytes;
    # an exit that fails fails on both, and no measurement is read off it
    for ens in frozen_reference_inputs():
        sol = minimax_common_point(ens)
        ref = reference_minimax(ens)
        assert sol == ref and repr(sol) == repr(ref)
        if not ref.converged:
            with pytest.raises(ConvergenceError):
                solve_oracle(ens)
            continue
        result = solve_oracle(ens)
        povm, cert = recover_povm(ens, ref)
        pairs = [
            (result.povm.a, povm.a),
            (result.povm.v, povm.v),
            (result.certificate.conjugates, cert.conjugates),
            (result.certificate.lambdas, cert.lambdas),
        ]
        for got, want in pairs:
            assert got.tobytes() == want.tobytes()


def test_mirror_triples_near_a_right_angle_converge():
    # the 2-row pivot systems of these triples have nearly parallel rows; a
    # Gram-matrix solve squared their condition number and left a slack
    # spread wider than PIVOT_WINDOW, so the pivot loop lost a support state
    rng = np.random.default_rng(2026)
    thetas = rng.uniform(math.radians(80.0), math.radians(90.0), 300)
    p1s = rng.uniform(0.001, 0.2, 300)
    for theta, p1 in zip(thetas.tolist(), p1s.tolist()):
        ens = qsd.mirror_ensemble(theta, p1)
        oracle = solve_oracle(ens)
        auto = qsd.solve_auto(ens)
        assert abs(oracle.p_opt - auto.p_opt) <= 1e-9

