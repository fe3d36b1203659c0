"""What a result carries besides the number.

Anyone can print a probability; the point of the certificate is that a
skeptic can re-derive optimality from it without re-running the solver:
the conjugate states close the family equations, the measurement kills
every conjugate it should, and the KKT residuals are zero to tolerance.
"""

import math

from qsd import (
    kkt_residuals,
    solve_auto,
    success_probability,
    validate_ensemble,
    verify_optimality,
    verify_weak_family,
)

ensemble = validate_ensemble(
    [(0.35, (0.9, 0.0, 0.3)), (0.40, (-0.2, 0.7, -0.5)), (0.25, (0.1, -0.8, 0.4))]
)
result = solve_auto(ensemble)
cert = result.certificate

print(f"solved via {result.method}: p_opt = {result.p_opt:.15f}")
print()

ok, residual = verify_weak_family(ensemble, cert.p, cert.conjugates)
print(f"family closes        {ok}   (max mixture mismatch {residual:.2e})")

ok, residual = verify_optimality(result.povm, cert.conjugates)
print(f"conjugates killed    {ok}   (max |tr tau Pi| {residual:.2e})")

success = success_probability(ensemble, result.povm)
print(f"povm achieves p_opt  {abs(success - result.p_opt) <= 1e-10}")

report = kkt_residuals(ensemble, cert, result.povm)
print(f"kkt passes           {report.passes}")
for name, value in report.residuals().items():
    print(f"  {name:<16} {value:.2e}")

print()
print("per-state anatomy")
for i, (c, pure, lam) in enumerate(
        zip(cert.conjugates.tolist(), cert.pure_mask.tolist(), cert.lambdas.tolist())):
    tag = "pure" if pure else "mixed"
    print(f"  state {i + 1}: |conjugate| = {math.hypot(*c):.12f} ({tag}), lambda = {lam:.12f}")
