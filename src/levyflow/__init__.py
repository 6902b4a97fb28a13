"""Galerkin-spectral solver for hydrodynamic SPDEs with multiplicative Levy noise."""

from .cutoffs import Cutoff, smoothstep
from .diagnostics import (AprioriReport, ContractionReport, EnergyLedger,
                          contraction_report, cross_term_series, energy_ledger,
                          gronwall_bounds, moment_bound_report)
from .models import (DyadicShellParams, ModelSpec, StructureReport, dyadic_model,
                     shell_apply, shell_certified_constants, shell_structure_search,
                     shell_trilinear, zero_b_model)
from .noise import (CoefficientFamily, CoefficientSpec, GrowthConditionError,
                    LevyMeasureSpec, NoiseConditionReport, NoiseRealization,
                    WienerDriverSpec, build_coefficients, certify_constants,
                    compensator_drift, compound_gaussian, condition_report,
                    family, jump_coefficient, no_jumps, path_seeds,
                    psi_hs_norm_sq, read_noise_csv, sample_ensemble, sample_realization,
                    truncated_power, wiener_apply, write_noise_csv)
from .nse2d import (Nse2dParams, estimate_a0, nse2d_model, nse_layout,
                    nse_structure_search)
from .solver import (BlowupError, IterationReport, PicardDivergenceError,
                     SolveOutcome, SolverConfig, baseline_direct,
                     direct_ensemble, ensemble_solve, global_solve, linear_step,
                     picard_ensemble, picard_local, step_factors)
from .spaces import (GalerkinVector, NonFiniteStateError, PathSegment,
                     SpectralBasis, dual_norm, h_norm, h_norm_rows, v_norm,
                     v_norm_sq_rows)

__version__ = "0.1.0"
