import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from psetdisc.config import Caps
from psetdisc.discrepancy import star_discrepancy_exact
from psetdisc.pointset import PSetKind, RationalPointSet, generate
from psetdisc.qmc import (ProductIntegrand, convergence_table, hk_variation,
                          qmc_integrate)


def test_constant_integrand_is_exact():
    f = ProductIntegrand(coefficients=(0.0, 0.0))
    for kind in PSetKind:
        est, err = qmc_integrate(generate(kind, 5, 2), f)
        assert est == 1.0
        assert err == 0.0


@given(st.floats(-2, 2), st.sampled_from([3, 5, 11, 31]))
def test_linear_integrand_closed_form_error(c, p):
    # mean of {n/p} is (p-1)/(2p), so the error is |c|/(2p)
    f = ProductIntegrand(coefficients=(c,))
    _, err = qmc_integrate(generate(PSetKind.KOROBOV_P, p, 1), f)
    assert err == pytest.approx(abs(c) / (2 * p), abs=1e-13)


def test_qmc_dimension_mismatch():
    f = ProductIntegrand(coefficients=(1.0,))
    with pytest.raises(ValueError):
        qmc_integrate(generate(PSetKind.KOROBOV_P, 5, 2), f)


def test_estimate_invariant_under_permutation():
    ps = generate(PSetKind.KOROBOV_P, 13, 2)
    rng = np.random.default_rng(5)
    perm = rng.permutation(ps.n)
    shuffled = RationalPointSet(modulus=ps.modulus, dim=ps.dim,
                                numerators=ps.numerators[perm])
    f = ProductIntegrand(coefficients=(1.0, 0.5))
    assert qmc_integrate(ps, f)[0] == qmc_integrate(shuffled, f)[0]


_PRIMES_TO_47 = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47]


@pytest.mark.parametrize("kind", list(PSetKind))
@pytest.mark.parametrize("s", [1, 2, 3, 4, 5])
def test_integrand_on_an_array_is_the_per_point_product(kind, s):
    # one call on the (n, s) array gives, bit for bit, each point's product of
    # 1 + c_j (x_j - 1/2) formed in coordinate order; one point gives a float
    rng = np.random.default_rng(s)
    for p in _PRIMES_TO_47:
        # |c| log-uniform in [1e-3, 7] with both signs, and both ends present from s = 2
        mags = np.concatenate(([1e-3, 7.0], 10 ** rng.uniform(-3, np.log10(7), s)))[:s]
        coeffs = tuple((rng.permutation(mags) * rng.choice([-1.0, 1.0], s)).tolist())
        f = ProductIntegrand(coefficients=coeffs)
        x = generate(kind, p, s).numerators / float(kind.modulus(p))
        want = []
        for row in x.tolist():
            out = 1.0
            for c, xi in zip(coeffs, row):
                out *= 1.0 + c * (xi - 0.5)
            want.append(out)
        got = f(x)
        assert got.shape == (len(want),)
        assert got.tolist() == want, (p, coeffs)
        first = f(x[0].tolist())
        assert type(first) is float and first == want[0]


@pytest.mark.parametrize("point", [[0.3], [0.3, 0.9, 0.1], 0.3, [[0.3], [0.7]],
                                   np.zeros((4, 3)), np.zeros((0, 1))])
def test_integrand_refuses_points_of_another_dimension(point):
    # a short point would lose factors and a long one coordinates
    f = ProductIntegrand(coefficients=(1.0, 2.0))
    with pytest.raises(ValueError, match=r"integrand dim 2 != point shape"):
        f(point)
    assert f([0.3, 0.9]) == (1.0 + 1.0 * (0.3 - 0.5)) * (1.0 + 2.0 * (0.9 - 0.5))
    # the coordinates lie on the last axis of any array
    x = np.random.default_rng(0).random((3, 4, 2))
    assert f(x).tolist() == [[f(p) for p in row] for row in x.tolist()]


@pytest.mark.parametrize("c", [math.nan, math.inf, -math.inf])
def test_integrand_refuses_non_finite_coefficients(c):
    with pytest.raises(ValueError, match="integrand coefficients must be finite"):
        ProductIntegrand(coefficients=(1.0, c))


def test_hk_variation_examples():
    assert hk_variation(ProductIntegrand(coefficients=(0.0, 0.0))) == 0.0
    assert hk_variation(ProductIntegrand(coefficients=(2.0,))) == pytest.approx(2.0)
    assert hk_variation(ProductIntegrand(coefficients=(1.0, 1.0))) == pytest.approx(4.0)


@given(st.lists(st.floats(-3, 3), min_size=1, max_size=7))
@settings(max_examples=80)
def test_hk_variation_matches_subset_enumeration(coeffs):
    f = ProductIntegrand(coefficients=tuple(coeffs))
    s = len(coeffs)
    total = 0.0
    for size in range(1, s + 1):
        for u in itertools.combinations(range(s), size):
            term = 1.0
            for j in range(s):
                term *= abs(coeffs[j]) if j in u else 1 + abs(coeffs[j]) / 2
            total += term
    assert hk_variation(f) == pytest.approx(total, rel=1e-11, abs=1e-12)


@pytest.mark.parametrize("kind,p,s,coeffs", [
    (PSetKind.KOROBOV_P, 31, 3, (1.0, 0.5, 0.25)),
    (PSetKind.KOROBOV_P, 11, 2, (1.0, 0.5)),
    (PSetKind.KOROBOV_Q, 5, 2, (1.0, 1.0)),
    (PSetKind.HUA_WANG_R, 7, 2, (0.5, 2.0)),
])
def test_error_bounded_by_discrepancy_times_variation(kind, p, s, coeffs):
    ps = generate(kind, p, s)
    f = ProductIntegrand(coefficients=coeffs)
    _, err = qmc_integrate(ps, f)
    dstar = star_discrepancy_exact(ps).value
    assert err <= dstar * hk_variation(f) + 1e-12


def test_convergence_table_rows():
    f = ProductIntegrand(coefficients=(1.0, 0.5))
    rows = convergence_table(PSetKind.KOROBOV_P, 2, f, [5, 11, 23, 47])
    assert [r.p for r in rows] == [5, 11, 23, 47]
    for r in rows:
        assert r.bound_source == "exact"
        assert r.error <= r.kh_bound
    assert rows[-1].error < rows[0].error


def test_convergence_table_constant_integrand():
    rows = convergence_table(PSetKind.KOROBOV_P, 1, ProductIntegrand(coefficients=(0.0,)), [5])
    assert len(rows) == 1
    assert rows[0].error == 0.0


def test_convergence_table_empty():
    assert convergence_table(PSetKind.KOROBOV_P, 2,
                             ProductIntegrand(coefficients=(1.0, 0.5)), []) == []


def test_convergence_table_falls_back_to_closed_form_bound():
    caps = Caps(max_corners=10)
    f = ProductIntegrand(coefficients=(1.0, 0.5))
    rows = convergence_table(PSetKind.KOROBOV_P, 2, f, [11], caps=caps)
    assert rows[0].bound_source == "thm1"
    assert rows[0].error <= rows[0].kh_bound


def test_convergence_table_dim_mismatch():
    with pytest.raises(ValueError):
        convergence_table(PSetKind.KOROBOV_P, 2,
                          ProductIntegrand(coefficients=(1.0,)), [5])
