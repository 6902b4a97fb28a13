"""Tour of the spectral state space.

States are coefficient vectors in the eigenbasis of a positive diagonal
operator.  This script builds a small basis, compares the three norms,
shows the semigroup/resolvent steppers agreeing to first order, and
demonstrates the exact bookkeeping of the pathwise dissipation sum.
"""

import numpy as np

from levyflow import (PathSegment, SpectralBasis, dual_norm, h_norm,
                      step_factors, v_norm, v_norm_sq_rows)

basis = SpectralBasis(np.array([1.0, 4.0, 16.0, 64.0]))
rng = np.random.default_rng(0)
v = rng.standard_normal(4)

print("eigenvalues:", basis.eigenvalues)
print(f"|v|  = {h_norm(v):.6f}")
print(f"||v|| = {v_norm(v, basis):.6f}   (weights sqrt(lambda))")
print(f"|v|_* = {dual_norm(v, basis):.6f}   (weights 1/sqrt(lambda))")
print()

# the two steppers are both stable; the resolvent is first-order accurate
print("dt        |resolvent - semigroup| / (dt^2 lam_max^2 |v|)")
for dt in (0.04, 0.02, 0.01, 0.005):
    step = step_factors(basis, dt, "resolvent") - step_factors(basis, dt, "exponential")
    diff = h_norm(step * v)
    print(f"{dt:<8}  {diff / (dt**2 * basis.eigenvalues[-1]**2 * h_norm(v)):.4f}")
print()

# a path accumulates int ||y||^2 with one fixed left-to-right reduction,
# so the discrete recurrence holds bit-exactly
states = rng.standard_normal((11, 4))
path = PathSegment.from_states(basis, 0.0, 0.1, states)
inc = 0.1 * v_norm_sq_rows(path.states[:-1], basis)
exact = all(path.xi_sq[k + 1] == path.xi_sq[k] + inc[k] for k in range(10))
print("dissipation sum xi^2(T) =", path.xi_sq[-1])
print("recurrence xi^2[k+1] == xi^2[k] + dt*||y_k||^2 holds exactly:", exact)
