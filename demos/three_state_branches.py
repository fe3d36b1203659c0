"""Three states, two kinds of optimum.

The solver enumerates five candidates: three boundary ones (a pure pair
carries the measurement, the third element is zero) and the two roots of an
interior quadratic (all three conjugates pure). Every candidate is pushed
through the certificate gate; the smallest ratio that survives is the
answer. No regime inequality is ever trusted directly.
"""

from qsd import ThreeStateCoefficients, cone_ensemble, solve_three_state, validate_ensemble


def show(title, ensemble):
    result = solve_three_state(ensemble)
    cert = result.certificate
    print(title)
    print(f"  method     {result.method}")
    print(f"  p_opt      {result.p_opt:.15f}")
    print(f"  pure mask  {tuple(cert.pure_mask.tolist())}")
    print(f"  lambdas    {tuple(round(l, 12) for l in cert.lambdas.tolist())}")
    a_values = tuple(round(a, 12) for a in result.povm.a.tolist())
    print(f"  povm a_i   {a_values}")
    print()
    return result


# a dominant pair: the optimum ignores the third state entirely
boundary = validate_ensemble([(0.9, (0, 0, 1)), (0.05, (0, 0, -1)), (0.05, (1, 0, 0))])
show("dominant pair (boundary branch)", boundary)

# the symmetric planar trine: all three conjugates pure, equal multipliers
trine = cone_ensemble(3, 1.0, 0.5 * 3.141592653589793)
result = show("equiprobable trine (interior branch)", trine)

coeffs = ThreeStateCoefficients.from_ensemble(trine)
print("interior quadratic for the trine")
print(f"  squared gaps   {coeffs.dist12_sq:.6f} {coeffs.dist13_sq:.6f} {coeffs.dist23_sq:.6f}")
print(f"  roots          {tuple(round(float(r), 15) for r in coeffs.roots())}")
print(f"  selected       {result.p_opt:.15f}  (the validated root)")
