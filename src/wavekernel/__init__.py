"""Transmutation kernels and boundary control operators for the half-line
telegraph equation with Hermitian matrix potential."""

__version__ = "0.1.0"

from .boundary_map import (WeylSolution, dump_weyl, lambda_map,
                           lift_control, weyl_solution)
from .control_op import (SobolevReport, build_volterra,
                         certify_h2_bound, condition_estimate, h2_norm,
                         invert_W, measure_h2_bound, neumann_partial_sums,
                         reflect)
from .goursat import (GoursatReport, KernelConstants, KernelField,
                      bound_violations, check_goursat, derivatives_v,
                      dump_kernel, initial_v0, kernel_constants, kernel_w,
                      load_kernel, solve_goursat, split_w, wtilde_x,
                      wtt_explicit)
from .oracle import (FDConfig, bessel_kernel_constant,
                     bessel_substitution_residual, compare, fd_solve)
from .potential import (PotentialGrid, build_potential, constant_potential,
                        integral_Q, norm_constants, parse_potential_file,
                        preset_potential, sampled_potential, zero_potential)
from .propagator import (Control, DifferenceQuotientReport, WaveSnapshot,
                         bump_control, control_from_samples,
                         difference_quotient_test, propagate, ramp_control,
                         random_smooth_control, u_tt, zero_control)

__all__ = [
    "__version__",
    "PotentialGrid", "build_potential", "zero_potential", "constant_potential",
    "sampled_potential", "preset_potential", "parse_potential_file",
    "integral_Q", "norm_constants",
    "KernelField", "KernelConstants", "GoursatReport", "initial_v0",
    "solve_goursat", "kernel_w", "split_w", "derivatives_v", "wtilde_x",
    "wtt_explicit", "kernel_constants", "check_goursat", "bound_violations",
    "dump_kernel", "load_kernel",
    "Control", "WaveSnapshot", "DifferenceQuotientReport", "zero_control",
    "bump_control", "ramp_control", "control_from_samples",
    "random_smooth_control", "propagate", "u_tt", "difference_quotient_test",
    "SobolevReport", "reflect", "build_volterra",
    "invert_W", "neumann_partial_sums", "h2_norm", "measure_h2_bound",
    "certify_h2_bound", "condition_estimate",
    "WeylSolution", "weyl_solution", "dump_weyl", "lambda_map", "lift_control",
    "FDConfig", "fd_solve", "bessel_kernel_constant",
    "bessel_substitution_residual", "compare",
]
