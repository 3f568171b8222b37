import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from psetdisc.config import DivergenceError
from psetdisc.weights import (GeneralWeights, GeometricTail, PowerLawTail,
                              ProductWeights, WeightFormatError, ZeroTail,
                              gamma_of, gamma_tail_sum, parse_weights,
                              serialize_weights)

HALVING = ProductWeights(gammas=(0.5, 0.25), tail=GeometricTail(0.5))  # 2^-j


def test_gamma_of_product_examples():
    assert gamma_of(HALVING, [1, 3]) == pytest.approx(1 / 16)
    ones = ProductWeights(gammas=(1.0, 1.0, 1.0))
    assert gamma_of(ones, [1, 2, 3]) == 1.0
    assert gamma_of(ones, [2]) == 1.0


def test_gamma_of_general_defaults_to_zero():
    w = GeneralWeights(entries={(1,): 0.5, (1, 2): 0.25})
    assert gamma_of(w, [2]) == 0.0
    assert gamma_of(w, [1, 2]) == 0.25


def test_gamma_of_validates_subset():
    with pytest.raises(ValueError):
        gamma_of(HALVING, [])
    with pytest.raises(ValueError):
        gamma_of(HALVING, [0])
    with pytest.raises(ValueError):
        gamma_of(HALVING, [1, 1])
    with pytest.raises(ValueError):
        HALVING.gamma(0)


def test_negative_weights_rejected():
    with pytest.raises(ValueError):
        ProductWeights(gammas=(0.5, -0.1))
    with pytest.raises(ValueError):
        GeneralWeights(entries={(1,): -1.0})


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_nonfinite_weights_rejected(bad):
    with pytest.raises(ValueError, match="finite and nonnegative"):
        ProductWeights(gammas=(bad, 0.5))
    with pytest.raises(ValueError, match="finite and nonnegative"):
        GeneralWeights(entries={(1,): bad})
    with pytest.raises(ValueError):
        PowerLawTail(exponent=bad, scale=1.0)
    with pytest.raises(ValueError):
        PowerLawTail(exponent=2.0, scale=bad)
    with pytest.raises(ValueError):
        GeometricTail(bad)


def test_general_weights_reject_duplicate_after_canonicalisation():
    with pytest.raises(ValueError, match="duplicate subset \\(1, 2\\)"):
        GeneralWeights(entries={(1, 2): 0.5, (2, 1): 0.25})


@given(st.lists(st.floats(0, 4), min_size=1, max_size=6),
       st.sets(st.integers(1, 6), min_size=1),
       st.sets(st.integers(7, 12), min_size=1))
def test_product_weights_multiplicative(gammas, u, v):
    w = ProductWeights(gammas=tuple(gammas), tail=GeometricTail(0.5))
    lhs = gamma_of(w, sorted(u | v))
    rhs = gamma_of(w, sorted(u)) * gamma_of(w, sorted(v))
    assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-300)


def test_tail_rule_extends_prefix():
    assert HALVING.gamma(1) == 0.5
    assert HALVING.gamma(2) == 0.25
    assert HALVING.gamma(5) == 2.0**-5
    zero = ProductWeights(gammas=(1.0,), tail=ZeroTail())
    assert zero.gamma(2) == 0.0
    power = ProductWeights(tail=PowerLawTail(exponent=2.0, scale=3.0))
    assert power.gamma(4) == pytest.approx(3.0 / 16)


def test_geometric_tail_anchored_at_one_for_empty_prefix():
    w = ProductWeights(tail=GeometricTail(0.5))
    assert [w.gamma(j) for j in (1, 2, 3)] == [0.5, 0.25, 0.125]


def test_tail_sum_geometric_closed_form():
    assert gamma_tail_sum(HALVING, 0) == pytest.approx(1.0, abs=1e-15)
    assert gamma_tail_sum(HALVING, 7) == pytest.approx(2.0**-7, abs=1e-18)
    # prefix participates for small k
    assert gamma_tail_sum(HALVING, 1) == pytest.approx(0.5, abs=1e-15)


def test_tail_sum_basel_case():
    w = ProductWeights(tail=PowerLawTail(exponent=2.0, scale=1.0))
    assert abs(gamma_tail_sum(w, 0) - math.pi**2 / 6) < 1e-10


def test_tail_sum_powerlaw_matches_bigsum_oracle():
    # 10^7-term truncation plus integral remainder bracket
    w = ProductWeights(tail=PowerLawTail(exponent=1.5, scale=2.0))
    j = np.arange(1, 10**7, dtype=np.float64)
    partial = float(np.sum(2.0 * j**-1.5))
    lo = partial + 2.0 * (10**7) ** -0.5 / 0.5
    hi = partial + 2.0 * (10**7 - 0.5) ** -0.5 / 0.5
    got = gamma_tail_sum(w, 0)
    assert lo - 1e-9 <= got <= hi + 1e-9


def test_tail_sum_divergence_error():
    w = ProductWeights(tail=PowerLawTail(exponent=1.0, scale=1.0))
    with pytest.raises(DivergenceError):
        gamma_tail_sum(w, 0)
    w2 = ProductWeights(tail=PowerLawTail(exponent=2.0, scale=1.0))
    with pytest.raises(DivergenceError):
        gamma_tail_sum(w2, 0, t=0.5)


def test_tail_sum_t_norm():
    # Gamma_{0,2} for 2^-j: sqrt(sum 4^-j) = sqrt(1/3)
    assert gamma_tail_sum(HALVING, 0, t=2.0) == pytest.approx(math.sqrt(1 / 3))


def test_tail_sum_monotone_in_k():
    vals = [gamma_tail_sum(HALVING, k) for k in range(12)]
    assert all(a >= b for a, b in zip(vals, vals[1:]))
    assert vals[-1] < 1e-3


def test_tail_sum_validation():
    with pytest.raises(ValueError):
        gamma_tail_sum(HALVING, -1)
    with pytest.raises(ValueError):
        gamma_tail_sum(HALVING, 0, t=0.0)
    with pytest.raises(TypeError):
        gamma_tail_sum(GeneralWeights(entries={(1,): 1.0}), 0)


def test_is_non_increasing():
    assert HALVING.is_non_increasing()
    assert not ProductWeights(gammas=(0.5, 0.75)).is_non_increasing()
    # junction violation: tail jumps above the last listed value
    bad = ProductWeights(gammas=(0.1,), tail=PowerLawTail(exponent=1.5, scale=5.0))
    assert not bad.is_non_increasing()


@pytest.mark.parametrize("tail", [ZeroTail(), GeometricTail(0.5),
                                  PowerLawTail(exponent=2.0, scale=3.0)],
                         ids=["zero", "geometric", "powerlaw"])
def test_is_non_increasing_empty_prefix(tail):
    assert ProductWeights(tail=tail).is_non_increasing()


def test_is_non_increasing_at_the_junction():
    # equal values at the junction: gamma_2 = 1 * 2**-2 = gamma_1, and 0 after 0
    assert ProductWeights(gammas=(0.25,), tail=PowerLawTail(2.0, 1.0)).is_non_increasing()
    assert ProductWeights(gammas=(0.5, 0.0)).is_non_increasing()
    # the power-law tail's first value gamma_3 = 1/9 exceeds the last listed 0.1
    rising = ProductWeights(gammas=(0.5, 0.1), tail=PowerLawTail(2.0, 1.0))
    assert not rising.is_non_increasing()
    assert ProductWeights(gammas=(0.5, 0.125), tail=PowerLawTail(2.0, 1.0)).is_non_increasing()


def test_parse_product_example():
    w = parse_weights("product\n1 0.5\n2 0.25\ntail geometric 0.5")
    assert w == HALVING


def test_parse_general_example():
    w = parse_weights("general\n1 1.0\n1,2 0.5")
    assert w == GeneralWeights(entries={(1,): 1.0, (1, 2): 0.5})


def test_parse_comments_and_blanks():
    w = parse_weights("# header\nproduct\n\n1 1.0  # inline\ntail zero\n")
    assert w == ProductWeights(gammas=(1.0,))


# (text, line number, message): the messages as the parser has always printed them
MALFORMED = [
    ("product\n1 -0.5", 2, "line 2: weight must be finite and nonnegative, got -0.5"),
    ("general\n1 1.0\n1 2.0", 3, "line 3: duplicate subset 1"),
    ("product\n2 0.5", 2, "line 2: indices must be consecutive from 1, expected 1, got 2"),
    ("general\n2,1 0.5", 2, "line 2: indices must be 1-based, sorted, distinct: '2,1'"),
    ("product\n1 abc", 2, "line 2: could not convert string to float: 'abc'"),
    ("bogus\n1 1.0", 1, "line 1: expected 'product' or 'general', got 'bogus'"),
    ("", 1, "line 1: empty weight file"),
    ("product\ntail geometric 1.5", 2, "line 2: geometric ratio must be in (0,1), got 1.5"),
    ("product\ntail zero\ntail zero", 3, "line 3: duplicate tail rule"),
    ("product\ntail zero\n1 0.5", 3, "line 3: tail rule must be the final line"),
    ("product\n1 0.5 0.25", 2, "line 2: expected '<j> <gamma>', got '1 0.5 0.25'"),
    ("general\n1", 2, "line 2: expected '<i1,i2,...> <gamma>', got '1'"),
    ("general\n1 -1.0", 2, "line 2: weight must be finite and nonnegative, got -1.0"),
    ("product\ntail", 2, "line 2: bad tail rule: ''"),  # missing tail kind
    ("product\ntail cubic 2", 2, "line 2: bad tail rule: 'cubic 2'"),  # unknown tail kind
    ("product\ntail geometric", 2, "line 2: bad tail rule: 'geometric'"),  # tail arity
    ("product\ntail powerlaw 2", 2, "line 2: bad tail rule: 'powerlaw 2'"),
    ("general\n1,x 0.5", 2, "line 2: expected integer, got 'x'"),  # non-integer index
    ("general\n1, 0.5", 2, "line 2: expected integer, got ''"),  # empty index
    ("product\n1 nan", 2, "line 2: weight must be finite and nonnegative, got nan"),
    ("product\n1 1e400", 2, "line 2: weight must be finite and nonnegative, got inf"),
    ("general\n1 inf", 2, "line 2: weight must be finite and nonnegative, got inf"),
    ("product\ntail powerlaw inf 1", 2,
     "line 2: powerlaw tail needs finite exponent > 0 and scale > 0"),
    ("product\ntail powerlaw 2 nan", 2,
     "line 2: powerlaw tail needs finite exponent > 0 and scale > 0"),
]


@pytest.mark.parametrize("text,line,message", MALFORMED,
                         ids=[f"{text}-{line}" for text, line, _ in MALFORMED])
def test_parse_rejects_malformed(text, line, message):
    with pytest.raises(WeightFormatError) as err:
        parse_weights(text)
    assert err.value.line_no == line
    assert str(err.value) == message


def test_serialize_tail_lines():
    assert serialize_weights(ProductWeights(gammas=(1.0,))) == "product\n1 1.0\ntail zero\n"
    assert serialize_weights(HALVING).endswith("\ntail geometric 0.5\n")
    power = ProductWeights(tail=PowerLawTail(exponent=2.0, scale=3.0))
    assert serialize_weights(power) == "product\ntail powerlaw 2.0 3.0\n"


tails = st.one_of(
    st.just(ZeroTail()),
    st.floats(0.05, 0.95).map(GeometricTail),
    st.tuples(st.floats(1.1, 4.0), st.floats(0.1, 3.0)).map(
        lambda t: PowerLawTail(exponent=t[0], scale=t[1])),
)


@given(st.lists(st.floats(0, 8), min_size=0, max_size=5), tails)
@settings(max_examples=80)
def test_product_roundtrip(gammas, tail):
    w = ProductWeights(gammas=tuple(gammas), tail=tail)
    assert parse_weights(serialize_weights(w)) == w


@given(st.dictionaries(st.sets(st.integers(1, 6), min_size=1).map(
    lambda u: tuple(sorted(u))), st.floats(0, 8), max_size=6, min_size=1))
@settings(max_examples=80)
def test_general_roundtrip(entries):
    w = GeneralWeights(entries=entries)
    assert parse_weights(serialize_weights(w)) == w
