import pytest

from psetdisc.config import BudgetError, Caps
from psetdisc.discrepancy import star_discrepancy_exact, weighted_star_discrepancy_exact
from psetdisc.expsum import (hua_wang_double_sum, hua_wang_root_count, korobov_sum,
                             niederreiter_rhs, weighted_niederreiter_rhs, weil_bound_check)
from psetdisc.pointset import PSetKind, generate
from psetdisc.weights import ProductWeights

P5 = generate(PSetKind.KOROBOV_P, 5, 2)
W = ProductWeights(gammas=(1.0, 0.5))
# the corner grid of P5: 5 + 1 values on axis 1, {0, 1, 4} + 1 on axis 2
P5_CORNERS = 6 * 4

# guard, cap field, requested amount, the guarded call under given caps
GUARDS = [
    ("pointset.generate", "max_point_entries", 15,
     lambda caps: generate(PSetKind.KOROBOV_P, 5, 3, caps=caps)),
    ("discrepancy.star_discrepancy_exact", "max_corners", P5_CORNERS,
     lambda caps: star_discrepancy_exact(P5, caps=caps)),
    ("expsum.korobov_sum", "max_point_entries", 10,
     lambda caps: korobov_sum((1, 2), 5, caps=caps)),
    ("expsum.hua_wang_double_sum", "max_point_entries", 15,
     lambda caps: hua_wang_double_sum((1, 2, 3), 5, caps=caps)),
    ("expsum.hua_wang_root_count", "max_point_entries", 15,
     lambda caps: hua_wang_root_count((1, 2, 3), 5, caps=caps)),
    ("expsum.weil_bound_check", "max_point_entries", 10,
     lambda caps: weil_bound_check(3, 5, 2, caps=caps)),
    ("expsum.niederreiter_rhs", "max_freq_vectors", 24,
     lambda caps: niederreiter_rhs(P5, caps=caps)),
    # subsets {1}, {2}, {1, 2}: 4 + 4 + 24 frequency vectors
    ("expsum.weighted_niederreiter_rhs", "max_freq_vectors", 32,
     lambda caps: weighted_niederreiter_rhs(P5, W, caps=caps)),
    ("weights._enumerate_subsets", "max_subset_dim", 2,
     lambda caps: weighted_star_discrepancy_exact(P5, W, caps=caps)),
]


@pytest.mark.parametrize("field, amount, call", [g[1:] for g in GUARDS],
                         ids=[g[0] for g in GUARDS])
def test_guard_refuses_past_its_limit_and_passes_at_it(field, amount, call):
    with pytest.raises(BudgetError) as info:
        call(Caps(**{field: amount - 1}))
    assert str(info.value) == f"{field}: requested {amount}, limit {amount - 1}"
    call(Caps(**{field: amount}))

