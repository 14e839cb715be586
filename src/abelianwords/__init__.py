"""Combinatorics-on-words toolkit: Abelian and subword complexity, balance,
Sturmian words driven by exact continued-fraction arithmetic, and Abelian
power search with verifiable certificates."""

from .checks import (CheckReport, MuDecomposition, inspected_length,
                     inspected_prefix, mu_preimage_decompose,
                     periodicity_via_parikh, rauzy_constant3_check,
                     special_factor_witnesses, tm_profile_check)
from .complexity import (ComplexityProfile, abelian_equivalent,
                         abelian_profile, balance_bound, balance_per_length,
                         max_abelian_complexity, parikh, parikh_classes,
                         profile, subword_profile)
from .contfrac import (AffineThreshold, ContinuedFraction, Convergent,
                       InsufficientPrecisionError, affine_sign,
                       compare_with_rational, convergents, floor_range,
                       floor_scaled, frac_less_than)
from .powers import (AbelianPowerOccurrence, CongoWeights, PeriodPair,
                     WeightsTooSmallError, congo_weights, min_abelian_period,
                     sturmian_period_pair, sturmian_power_at, sturmian_powers,
                     vdw_power_search, verify_abelian_power)
from .words import (CONSTANT3, DOUBLING, FIBONACCI, THUE_MORSE, TRIBONACCI,
                    BudgetError, Champernowne, Characteristic, CompletePrefix,
                    Explicit, FixedPoint, Hubert, LiteralPrepend,
                    MaxComplexity, Morphism, Periodic, WordPrefix, WordRecipe,
                    apply_morphism, champernowne_prefix, characteristic_prefix,
                    complete_prefix_length, fixed_point, hubert_ternary,
                    hubert_transform, max_complexity_prefix, prefix_of,
                    recipe_from_dict, recipe_from_json, recipe_to_dict)

__version__ = "0.1.0"
