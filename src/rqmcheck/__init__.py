"""Numerical certification of Euclidean realizations of Poincare irreps."""

from .hilbert import (GramReport, MomentumQuadrature, MomentumWaveFunction,
                      RotatedWedge, Term, TestFunction, WedgeFunction,
                      gaussian_packet, gram_matrix, inner_product,
                      laplace_fourier_transform, position_inner_product_mc,
                      random_test_function, rotate_pointwise,
                      wedge_multiplier)
from .generators import (IrrepState, apply_generator, apply_poincare_irrep,
                         boost_wedge_check, check_commutator,
                         momentum_project, semigroup_contraction_check,
                         spin_project, state_from_test_function)
from .kernels import (bessel_k0, bessel_k1, check_factorization,
                      check_kernel_covariance, check_residue_consistency,
                      momentum_kernel, onshell_kernel, position_kernel,
                      scalar_position_kernel)
from .report import CheckReport, make_report
from .spacetime import (KernelVariant, PoincareElement, canonical_boost,
                        compose_poincare, eucl_to_matrix, lorentz_from_sl2c,
                        matrix_to_mink, mink_to_matrix, orth_from_pair,
                        polar_decompose, rotation_su2, boost_sl2c,
                        wigner_rotation)
from .spin import (check_cg_addition, check_group_law, clebsch_gordan,
                   coupling_matrix, spin_matrices, wigner_d)

__version__ = "0.1.0"
