"""Numerical laboratory for Morrey-type function spaces on finite doubling spaces.

Subpackages:
  homspace   spaces of homogeneous type: construction, validation, balls,
             doubling diagnostics
  funcnorm   Lebesgue, Morrey, BMO, grand Lebesgue, and generalized grand
             Morrey norms
  operators  maximal, sharp maximal, singular-integral, and potential
             operators, commutators
  auxfun     exponent bookkeeping functions and boundedness-constant formulas
  corpus     seeded random test-function families
  verify     empirical inequality verification with calibrated constants
  cli        command-line interface
"""

from .auxfun import (AuxExponents, AuxValues, SingularDenominator, aux_values,
                     constant_formula, eta_identity_residual, eval_aux, psi_table)
from .corpus import Corpus, make_corpus
from .funcnorm import (EmptyGrid, GrandNormEvaluator, GrandParams, GridFunction,
                       NormResult, TabulatedFunction, bmo_norm, default_eps_grid,
                       grand_lebesgue_norm, grand_morrey_norm, lp_norm,
                       morrey_norm, phi_functional, s_max)
from .homspace import (BallFamily, DegenerateFit, DiscreteHomSpace,
                       NonPositiveWeight, QuasiTriangleViolation,
                       SpaceValidationError, SymmetryViolation,
                       ZeroDistanceOffDiagonal, build_from_table,
                       build_uniform_grid, check_annulus, doubling_constant,
                       reverse_doubling_exponent, space_from_points)
from .operators import (CZOperator, KernelSizeViolation, KernelSpec,
                        PotentialOperator, commutator, conjugate_kernel,
                        cz_apply, hilbert_kernel, kernel_from_matrix, maximal,
                        maximal_s, potential_apply, sharp_maximal,
                        validate_kernel)
from .verify import (AllSamplesDegenerate, HypothesisFailed, VerificationReport,
                     commutator_suite, dominance_check, embedding_chain_check,
                     fefferman_stein_check, reduction_transfer_check,
                     run_suite)

__version__ = "0.1.0"
