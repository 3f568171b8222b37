"""Korobov/Hua-Wang p-sets: exact (weighted) star discrepancy, exponential-sum
verification, closed-form discrepancy bounds, and tractability inversion."""

from .bounds import (BoundReport, NMinResult, Thm2Params, envelope_constant,
                     n_min_from_bound, thm1_bound, thm2_bound, thm2_params)
from .config import DEFAULT_CAPS, BudgetError, Caps, DivergenceError, InvariantError
from .discrepancy import (DiscrepancyResult, WeightedDiscrepancyResult, box_counts,
                          local_discrepancy, star_discrepancy_exact,
                          star_discrepancy_sampled_lb, weighted_local_discrepancy,
                          weighted_star_discrepancy_exact)
from .expsum import (ExpSumValue, WeightedRhsResult, WeilCheckReport, c_values,
                     hua_wang_double_sum, hua_wang_root_count, korobov_sum,
                     niederreiter_rhs, weighted_niederreiter_rhs, weil_bound_check)
from .numtheory import is_prime, next_prime
from .pointset import PSetKind, RationalPointSet, generate, project
from .qmc import ConvergenceRow, ProductIntegrand, convergence_table, hk_variation, qmc_integrate
from .weights import (GeneralWeights, GeometricTail, PowerLawTail, ProductWeights,
                      TailRule, WeightFormatError, Weights, ZeroTail, gamma_of,
                      gamma_tail_sum, parse_weights, serialize_weights)

__version__ = "0.1.0"
