"""Every closed form against the independent minimax oracle.

The oracle never sees the formulas: it minimizes f(r) = max_i (p_i + |r - q_i|)
by exact pivoting over bases of at most four states (the smallest ball
enclosing the balls B(q_i, p_i)), then rebuilds the measurement from the
final basis. Agreement between the two
routes is the package's core safety property, checked here on random
ensembles and backed by brute-force POVM sampling that must stay below the
solved optimum.
"""

import numpy as np

from qsd import random_povm_sample, solve_auto, solve_oracle, validate_ensemble


def random_ensemble(rng, n):
    priors = rng.dirichlet(np.ones(n))
    while priors.min() < 1e-3:
        priors = rng.dirichlet(np.ones(n))
    dirs = rng.normal(size=(n, 3))
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    radii = rng.random(n) ** (1.0 / 3.0)
    return validate_ensemble(
        [(float(p), tuple(r * d)) for p, d, r in zip(priors, dirs, radii)],
        renormalize=True,
    )


rng = np.random.default_rng(4)
worst = {}
for _ in range(200):
    ens = random_ensemble(rng, int(rng.integers(2, 7)))
    closed = solve_auto(ens)
    oracle = solve_oracle(ens)
    delta = abs(closed.p_opt - oracle.p_opt)
    key = closed.method
    worst[key] = max(worst.get(key, 0.0), delta)

print("closed form vs oracle, 200 random ensembles (N = 2 .. 6)")
for method, delta in sorted(worst.items()):
    print(f"  {method:<22} worst |delta p| = {delta:.2e}")

print()
print("brute-force sanity: sampled POVMs never beat the solved optimum")
for seed in (1, 2, 3):
    ens = random_ensemble(rng, 4)
    result = solve_auto(ens)
    best = random_povm_sample(ens, 20_000, seed=seed)
    print(
        f"  p_opt = {result.p_opt:.10f}   best of 2e4 samples = {best:.10f}"
        f"   margin = {result.p_opt - best:.2e}"
    )
