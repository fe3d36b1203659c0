"""Randomized invariants over the whole solver surface."""

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

import qsd
from qsd import (
    Povm,
    minimax_objective,
    solve_auto,
    success_probability,
    verify_weak_family,
)
from helpers import (
    assert_result_valid,
    conjugates_from_common_point,
    pair_lower_bound,
    random_ensemble,
)

seeds = st.integers(0, 2 ** 32 - 1)
sizes = st.integers(2, 6)


@settings(deadline=None, max_examples=50)
@given(seed=seeds, n=sizes, lam=st.floats(0.0, 1.0))
def test_minimax_objective_is_convex(seed, n, lam):
    rng = np.random.default_rng(seed)
    ens = random_ensemble(rng, n)
    x = rng.uniform(-1.2, 1.2, 3)
    y = rng.uniform(-1.2, 1.2, 3)
    mid = lam * x + (1.0 - lam) * y
    bound = lam * minimax_objective(ens, x) + (1.0 - lam) * minimax_objective(ens, y)
    assert minimax_objective(ens, mid) <= bound + 1e-12


@settings(deadline=None, max_examples=40)
@given(seed=seeds, n=sizes)
def test_success_probability_is_permutation_invariant(seed, n):
    rng = np.random.default_rng(seed)
    ens = random_ensemble(rng, n)
    result = solve_auto(ens)
    base = success_probability(ens, result.povm)
    perm = rng.permutation(n)
    ens2 = qsd.validate_ensemble(
        [(float(ens.priors[i]), tuple(ens.bloch_matrix[i])) for i in perm]
    )
    povm2 = Povm(result.povm.a[perm], result.povm.v[perm])
    assert success_probability(ens2, povm2) == pytest.approx(base, abs=1e-12)


@settings(
    deadline=None,
    max_examples=40,
    suppress_health_check=[HealthCheck.filter_too_much],
)
@given(seed=seeds, n=sizes)
def test_family_from_objective_value_always_closes(seed, n):
    # at p = f(r) every conjugate (r - q_i)/(p - p_i) has norm <= 1, so the
    # constructed family must verify whenever p is a legal ratio
    rng = np.random.default_rng(seed)
    ens = random_ensemble(rng, n)
    r = rng.uniform(-0.3, 0.3, 3)
    p = minimax_objective(ens, r)
    assume(p <= 1.0)
    assume(p >= float(ens.priors.max()) + 1e-9)
    conj = conjugates_from_common_point(ens, p, r)
    ok, residual = verify_weak_family(ens, p, conj)
    assert ok
    assert residual <= 1e-10
    assert np.linalg.norm(conj, axis=1).max() <= 1.0 + 1e-12


@settings(deadline=None, max_examples=40)
@given(seed=seeds, n=sizes)
def test_optimum_respects_elementary_bounds(seed, n):
    rng = np.random.default_rng(seed)
    ens = random_ensemble(rng, n)
    result = solve_auto(ens)
    assert result.p_opt >= float(ens.priors.max()) - 1e-12
    assert result.p_opt <= 1.0 + 1e-9
    assert result.p_opt >= pair_lower_bound(ens) - 1e-9


@settings(deadline=None, max_examples=30)
@given(seed=seeds, n=sizes)
def test_every_solver_output_carries_a_valid_certificate(seed, n):
    rng = np.random.default_rng(seed)
    ens = random_ensemble(rng, n)
    result = solve_auto(ens)
    assert_result_valid(ens, result)
