"""Two pure states with unequal priors: the closed form, fully certified.

The optimum for a pair is p = (1 + |p2 b2 - p1 b1|) / 2 whenever that beats
guessing the likelier state. Everything else in the result is structure on
top of that number: antipodal unit conjugates, a common mixture point, and
multipliers (1 - p_i/p)/4 that make the first-order conditions vanish.
"""

import math

import numpy as np

from qsd import solve_oracle, solve_two_state, validate_ensemble

ensemble = validate_ensemble([(0.3, (0.0, 0.0, 1.0)), (0.7, (0.6, 0.0, 0.8))])
result = solve_two_state(ensemble)
cert = result.certificate

q = ensemble.weighted_points
formula = 0.5 * (1.0 + np.linalg.norm(q[1] - q[0]))

print("two-state discrimination")
print("  priors            0.3 / 0.7")
print(f"  p_opt             {result.p_opt:.15f}")
print(f"  closed form       {formula:.15f}   (1 + |q2 - q1|)/2")
print()
print("certificate")
print(f"  common point      {tuple(round(x, 12) for x in cert.common_point.tolist())}")
conjugates = cert.conjugates.tolist()
for i, c in enumerate(conjugates):
    print(f"  conjugate {i + 1}       |c| = {math.hypot(*c):.15f}")
print(f"  antipodal check   c1 + c2 = {tuple(x + y for x, y in zip(*conjugates))}")
for i, lam in enumerate(cert.lambdas.tolist()):
    expected = (1.0 - ensemble.priors[i] / result.p_opt) / 4.0
    print(f"  lambda {i + 1}          {lam:.15f}   formula {expected:.15f}")
print()
name, value = result.kkt.worst()
print(f"  worst kkt residual  {name} = {value:.3e}")

oracle = solve_oracle(ensemble)
print()
print("independent minimax oracle")
print(f"  oracle p_opt      {oracle.p_opt:.15f}")
print(f"  |delta|           {abs(oracle.p_opt - result.p_opt):.3e}")
