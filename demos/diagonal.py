"""Ensembles on the z axis collapse to a classical assignment problem.

With every Bloch vector diagonal, the best measurement is diagonal too, and
the optimum is max_u p_u (1 + z_u)/2 + max_d p_d (1 - z_d)/2. The solver
walks the same candidate grid as that classical maximum, so the two values
are equal to the last bit, not merely close.
"""

import numpy as np

from qsd import classical_diagonal_oracle, solve_diagonal, validate_ensemble

ensemble = validate_ensemble(
    [(0.5, (0, 0, 0.8)), (0.3, (0, 0, -0.5)), (0.2, (0, 0, 0.1))]
)
result = solve_diagonal(ensemble)
classical = classical_diagonal_oracle(ensemble)

print("three diagonal states")
print(f"  p_opt       {result.p_opt!r}")
print(f"  classical   {classical!r}")
print(f"  bit-equal   {result.p_opt == classical}")
print()
for i, element in enumerate(result.povm.elements):
    vz = element.v[2]
    role = "up" if vz > 0 else ("down" if vz < 0 else "unused")
    print(f"  element {i + 1}: a = {element.a:.3f}  vz = {vz:+.3f}  ({role})")

# one index can win both outcomes; then measuring is pointless
print()
guess = validate_ensemble([(0.98, (0, 0, 0.1)), (0.01, (0, 0, 0.9)), (0.01, (0, 0, -0.9))])
gres = solve_diagonal(guess)
print("dominant-prior instance")
print(f"  p_opt      {gres.p_opt!r}   (= largest prior, guessing regime)")
print(f"  degenerate {gres.certificate.degenerate}")
print(f"  bit-equal  {gres.p_opt == classical_diagonal_oracle(guess)}")

rng = np.random.default_rng(11)
exact = 0
for _ in range(200):
    n = int(rng.integers(2, 7))
    priors = rng.dirichlet(np.ones(n))
    z = rng.uniform(-1.0, 1.0, n)
    ens = validate_ensemble(
        [(float(p), (0.0, 0.0, float(v))) for p, v in zip(priors, z)], renormalize=True
    )
    exact += solve_diagonal(ens).p_opt == classical_diagonal_oracle(ens)
print()
print(f"random draws bit-equal to the classical value: {exact}/200")
