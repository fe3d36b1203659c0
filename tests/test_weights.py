"""Weight systems: minimum-norm and support-enumeration solvers."""

import math
from itertools import combinations

import numpy as np
import pytest

from qsd.errors import WeightSystemInfeasible
from qsd.weights import min_norm_nonneg_weights, subset_support_weights


def trine_directions():
    phis = 2.0 * np.pi * np.arange(3) / 3.0
    return np.column_stack([np.cos(phis), np.sin(phis), np.zeros(3)])


def square_directions():
    return np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]])


def test_min_norm_trine_symmetric():
    w = min_norm_nonneg_weights(trine_directions())
    assert np.allclose(w, 2.0 / 3.0, atol=1e-10)
    assert math.fsum(w) == pytest.approx(2.0, abs=1e-10)


def test_min_norm_square_uniform():
    w = min_norm_nonneg_weights(square_directions())
    assert np.allclose(w, 0.5, atol=1e-10)


def test_min_norm_antipodal_pair():
    w = min_norm_nonneg_weights(np.array([[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]]))
    assert np.allclose(w, 1.0, atol=1e-12)


def test_min_norm_infeasible_half_space():
    directions = np.array([[1.0, 0.0, 0.2], [1.0, 0.1, 0.0], [1.0, -0.1, 0.1]])
    with pytest.raises(WeightSystemInfeasible):
        min_norm_nonneg_weights(directions)


def test_subset_support_square_flags_nonunique():
    # two distinct minimal supports, (1,0,1,0) and (0,1,0,1), tie on norm;
    # the deterministic enumeration settles on the axis pair {1, 3}
    w, unique = subset_support_weights(square_directions())
    assert not unique
    assert np.allclose(w, [0.0, 1.0, 0.0, 1.0], atol=1e-10)


def test_subset_support_trine_unique():
    w, unique = subset_support_weights(trine_directions())
    assert unique
    assert np.allclose(w, 2.0 / 3.0, atol=1e-10)


def test_subset_support_infeasible_returns_none():
    directions = np.array([[1.0, 0.0], [0.9, 0.1]])
    w, unique = subset_support_weights(directions)
    assert w is None and unique


def test_directions_must_be_matrix():
    with pytest.raises(ValueError):
        min_norm_nonneg_weights(np.ones(3))


# ---------------------------------------------------------------------------
# the sweep against a brute-force minimum over supports

_FEAS_TOL = 1e-10  # the sweep's own equality residual and negativity bounds
_NEG_TOL = 1e-12


def brute_force_min_norm_sq(directions, total=2.0):
    """Least |w|^2 over every support's lstsq solution that is consistent and
    nonnegative, or None when no support has one.

    The minimum-norm w >= 0 is the least-norm solution of the equality
    system restricted to its own support, so this minimum is exact.
    """
    m = directions.shape[0]
    a = np.vstack([directions.T, np.ones((1, m))])
    rhs = np.zeros(directions.shape[1] + 1)
    rhs[-1] = total
    best = None
    for size in range(1, m + 1):
        for support in combinations(range(m), size):
            cols = a[:, support]
            sol = np.linalg.lstsq(cols, rhs, rcond=None)[0]
            if np.linalg.norm(cols @ sol - rhs) > _FEAS_TOL or sol.min() < -_NEG_TOL:
                continue
            w = np.clip(sol, 0.0, None)
            best = float(w @ w) if best is None else min(best, float(w @ w))
    return best


def _unit(rows):
    return rows / np.linalg.norm(rows, axis=1)[:, None]


def _random(rng, m, dim):
    return _unit(rng.normal(size=(m, dim)))


def _antipodal(rng, m, dim):
    half = _unit(rng.normal(size=((m + 1) // 2, dim)))
    return np.vstack([half, -half])[:m]


def _great_circle(rng, m, dim):
    phis = rng.uniform(0.0, 2.0 * np.pi, m)
    circle = np.column_stack([np.cos(phis), np.sin(phis)])
    if dim == 2:
        return circle
    return circle @ np.linalg.qr(rng.normal(size=(3, 3)))[0][:, :2].T


def _zero_on_facet(rng, m, dim):
    # a fan through 0 in the plane x_dim = 0, every other direction above it
    if dim == 2:
        fan = np.array([[1.0, 0.0], [-1.0, 0.0]])
    else:
        phis = 2.0 * np.pi * np.arange(3) / 3.0 + rng.uniform(0.0, 2.0 * np.pi)
        fan = np.column_stack([np.cos(phis), np.sin(phis), np.zeros(3)])
    rest = rng.normal(size=(m - len(fan), dim))
    rest[:, -1] = np.abs(rest[:, -1]) + 0.1
    return np.vstack([fan, _unit(rest)]) if len(rest) else fan


def _half_circle_arc(rng, m, dim):
    phis = np.sort(rng.uniform(0.0, np.pi, m))
    if rng.random() < 0.5:  # close the arc: its ends are antipodal up to rounding
        phis[0], phis[-1] = 0.0, np.pi
    return np.column_stack([np.cos(phis), np.sin(phis), np.zeros(m)][:dim])


def _duplicates(rng, m, dim):
    base = _unit(rng.normal(size=((m + 1) // 2, dim)))
    return base[rng.integers(0, len(base), m)]


def _clusters(rng, m, dim):
    # tight clusters around the vertices of a rotated regular simplex
    simplex = trine_directions()[:, :2] if dim == 2 else np.array(
        [[1.0, 1.0, 1.0], [1.0, -1.0, -1.0], [-1.0, 1.0, -1.0], [-1.0, -1.0, 1.0]]
    )
    centers = _unit(simplex) @ np.linalg.qr(rng.normal(size=(dim, dim)))[0]
    return _unit(centers[np.arange(m) % len(centers)] + 1e-3 * rng.normal(size=(m, dim)))


@pytest.mark.parametrize(
    "family",
    [_random, _antipodal, _great_circle, _zero_on_facet, _half_circle_arc, _duplicates, _clusters],
    ids=lambda f: f.__name__.lstrip("_"),
)
def test_sweep_matches_brute_force_minimum(family):
    feasible = 0
    for seed in range(3):
        rng = np.random.default_rng(seed)
        for m in range(3, 9):
            for dim in (2, 3):
                directions = family(rng, m, dim)
                expected = brute_force_min_norm_sq(directions)
                try:
                    w = min_norm_nonneg_weights(directions)
                except WeightSystemInfeasible:
                    assert expected is None, (seed, m, dim)
                    continue
                assert expected is not None, (seed, m, dim)
                assert w.min() >= 0.0
                assert abs(float(w @ w) - expected) <= 1e-12, (seed, m, dim)
                feasible += 1
    assert feasible > 0
