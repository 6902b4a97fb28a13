"""The two shipped convection models and their structural certificates.

Both models expose the same contract on their one convection operator B:
b(u,v,w) = <B(u,v), w> is skew-symmetric in (v,w), an interpolation norm q
has q(v)^2 <= a0 |v| ||v||, and |b(u,v,w)| <= c_b q(u) ||v|| q(w).  The dyadic shell certifies its
constants analytically; the spectral Navier-Stokes model certifies the
bound constant by Hoelder and estimates a0 from its single-mode states, a
lower estimate that randomized triples then test.
"""

import numpy as np

from levyflow import (DyadicShellParams, dyadic_model, shell_certified_constants,
                      shell_structure_search)
from levyflow.nse2d import (Nse2dParams, estimate_a0, nse2d_model, nse_layout,
                            nse_structure_search)

# --- dyadic shell -----------------------------------------------------------
params = DyadicShellParams(n_modes=16, k0=2.0, visc=1.0)
shell = dyadic_model(params)
a0, c_b = shell_certified_constants(params)
print(f"shell model: {shell.basis.dim} modes, a0 = {a0}, c_b = {c_b}")

rep = shell_structure_search(params, 20_000, seed=1)
print(f"randomized search over {rep.n_samples} triples:")
print(f"  max skew pairing residual   {rep.max_skew_residual:.2e}  (roundoff of <B(u,v), v>)")
print(f"  max interpolation ratio     {rep.max_interp_ratio:.4f}  (saturates at the first shell)")
print(f"  max bound ratio             {rep.max_bound_ratio:.4f}  (sharp value is 1/2 of certified)")
print(f"  violations: {rep.skew_violations + rep.interp_violations + rep.bound_violations}")
print()

# --- 2D Navier-Stokes on the torus ------------------------------------------
nse_params = Nse2dParams(modes_per_axis=6, visc=1.0)
nse = nse2d_model(nse_params)
print(f"nse2d model: {nse.basis.dim} divergence-free modes, "
      f"a0 = {estimate_a0(nse_params):.4f} (single-mode scan, +10% margin), "
      f"c_b = {1.0 / np.sqrt(nse_params.visc)} (Hoelder, 1/sqrt(visc))")

rep = nse_structure_search(nse_params, 5_000, seed=2)
print(f"randomized search over {rep.n_samples} triples:")
print(f"  max skew pairing residual   {rep.max_skew_residual:.2e}")
print(f"  max interpolation ratio     {rep.max_interp_ratio:.4f}  (against the scan's a0)")
print(f"  max bound ratio             {rep.max_bound_ratio:.4f}")

# single Fourier mode: the L4 interpolation ratio has a closed form, and the
# scan's a0 is its largest value with the margin
e = np.zeros(nse.basis.dim)
e[0] = 1.0
lam1 = nse.basis.eigenvalues[0]
q = nse_layout(nse_params).l4_norm(e)
closed = np.sqrt(3.0 / 8.0) / np.pi / np.sqrt(lam1)
print(f"  single-mode ratio {q**2 / np.sqrt(lam1):.6f} vs closed form {closed:.6f}")
print(f"  scan a0 {estimate_a0(nse_params):.6f} vs 1.1 x closed form {1.1 * closed:.6f}")
