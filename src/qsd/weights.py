"""Nonnegative weight systems over conjugate directions.

A pure-conjugate measurement is fixed by weights w >= 0 with
sum w_i = 2, the trace of a complete POVM, and sum w_i d_i = 0 over the
direction rows d_i. Two solvers:

  min_norm_nonneg_weights   the shell and cone solver's one route: an
                            active-set sweep on the equality-constrained
                            least-norm problem (symmetric configurations
                            come out symmetric); the sweep decides
  subset_support_weights    a diagnostic no solver calls: exact support
                            enumeration in increasing size with a
                            non-uniqueness flag, O(m^(dim + 1)) solves

The oracle's hull test solves its last pivot's at most 4 support rows in
closed form (oracle._hull_weights) and shares no code with this module,
only the rows FEAS_TOL and NEG_WEIGHT_TOL of bloch's tolerance table.

Directions may be rows of any dimension; the closed forms pass Bloch rows.
"""

from __future__ import annotations

from itertools import combinations

from .bloch import FEAS_TOL, NEG_WEIGHT_TOL, UNIQUE_TOL, LazyNumpy
from .errors import WeightSystemInfeasible

np = LazyNumpy(globals())

__all__ = ["min_norm_nonneg_weights", "subset_support_weights"]

_TOTAL = 2.0  # sum of the weights: the trace of a complete POVM


def _equality_system(directions: np.ndarray) -> tuple:
    d = np.asarray(directions, dtype=float)
    if d.ndim != 2:
        raise ValueError("directions must be a 2-D array of row vectors")
    m = d.shape[0]
    a = np.vstack([d.T, np.ones((1, m))])
    rhs = np.zeros(d.shape[1] + 1)
    rhs[-1] = _TOTAL
    return a, rhs


def min_norm_nonneg_weights(directions) -> np.ndarray:
    """Minimum-norm w >= 0 with sum w = 2 and sum w_i d_i = 0.

    Sweep: solve the least-norm equality problem on the free set, clamp the
    most negative weight to zero, repeat, at most m times. The sweep
    decides: if it ends without nonnegative weights, WeightSystemInfeasible.
    """
    a, rhs = _equality_system(directions)
    m = a.shape[1]
    free = list(range(m))
    for _ in range(m):
        sol, _, _, _ = np.linalg.lstsq(a[:, free], rhs, rcond=None)
        if np.linalg.norm(a[:, free] @ sol - rhs) > FEAS_TOL:
            break
        if sol.min() >= -NEG_WEIGHT_TOL:
            w = np.zeros(m)
            w[free] = np.clip(sol, 0.0, None)
            return w
        free.pop(int(np.argmin(sol)))
    raise WeightSystemInfeasible("no nonnegative weights solve the completeness system")


def subset_support_weights(directions) -> tuple:
    """Exact solution supported on the fewest directions.

    A diagnostic no solver calls. Returns (weights, unique) where unique is
    False when several distinct minimal-support solutions exist (degenerate
    geometry, e.g. antipodal pairs of an octahedron), or (None, True) when
    no support of size up to dim + 1 is feasible. Ties among equal-size
    supports break by Euclidean norm and then by enumeration order, so
    results are deterministic.
    """
    a, rhs = _equality_system(directions)
    m = a.shape[1]
    max_support = min(m, np.asarray(directions).shape[1] + 1)
    for size in range(1, max_support + 1):
        found = []
        for subset in combinations(range(m), size):
            cols = a[:, subset]
            sol, _, _, _ = np.linalg.lstsq(cols, rhs, rcond=None)
            if np.linalg.norm(cols @ sol - rhs) > FEAS_TOL:
                continue
            if sol.min() < -NEG_WEIGHT_TOL:
                continue
            w = np.zeros(m)
            w[list(subset)] = np.clip(sol, 0.0, None)
            found.append((float(w @ w), subset, w))
        if found:
            found.sort(key=lambda item: (item[0], item[1]))
            best = found[0][2]
            unique = all(np.allclose(best, other[2], atol=UNIQUE_TOL) for other in found[1:])
            return best, unique
    return None, True
