import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from psetdisc.config import BudgetError, Caps
from psetdisc.pointset import PSetKind, RationalPointSet, generate, project


def test_korobov_p_example():
    ps = generate(PSetKind.KOROBOV_P, 5, 2)
    assert ps.modulus == 5
    assert sorted(ps.rows()) == sorted([(0, 0), (1, 1), (2, 4), (3, 4), (4, 1)])


def test_korobov_q_example():
    ps = generate(PSetKind.KOROBOV_Q, 2, 2)
    assert ps.modulus == 4
    assert ps.rows() == [(0, 0), (1, 1), (2, 0), (3, 1)]


def test_hua_wang_r_example():
    ps = generate(PSetKind.HUA_WANG_R, 2, 2)
    assert ps.modulus == 2
    # (a,k) iteration order: a outer, k inner
    assert ps.rows() == [(0, 0), (1, 0), (0, 0), (1, 1)]


def test_r_is_a_multiset():
    ps = generate(PSetKind.HUA_WANG_R, 3, 2)
    rows = ps.rows()
    assert len(rows) == 9
    assert rows.count((0, 0)) == 3  # k=0 for every a


@pytest.mark.parametrize("kind,expected_n,expected_m", [
    (PSetKind.KOROBOV_P, 7, 7),
    (PSetKind.KOROBOV_Q, 49, 49),
    (PSetKind.HUA_WANG_R, 49, 7),
])
def test_counts_and_moduli(kind, expected_n, expected_m):
    ps = generate(kind, 7, 3)
    assert ps.n == expected_n
    assert ps.modulus == expected_m


def test_dimension_one_reductions():
    p = 7
    assert generate(PSetKind.KOROBOV_P, p, 1).rows() == [(n,) for n in range(p)]
    assert generate(PSetKind.KOROBOV_Q, p, 1).rows() == [(n,) for n in range(p * p)]
    rows = generate(PSetKind.HUA_WANG_R, p, 1).rows()
    for k in range(p):
        assert rows.count((k,)) == p


def test_origin_membership():
    for kind in PSetKind:
        assert (0, 0) in generate(kind, 5, 2).rows()


@pytest.mark.parametrize("kind", list(PSetKind))
@pytest.mark.parametrize("p", [2, 3, 5, 11])
def test_numerators_in_range(kind, p):
    ps = generate(kind, p, 3)
    assert ps.numerators.min() >= 0
    assert ps.numerators.max() < ps.modulus


def test_powers_match_bigint_arithmetic():
    ps = generate(PSetKind.KOROBOV_Q, 13, 4)
    m = 13 * 13
    for n in (0, 1, 17, 168):
        assert tuple(ps.numerators[n]) == tuple(n**j % m for j in range(1, 5))


def test_generate_rejects_nonprime():
    with pytest.raises(ValueError):
        generate(PSetKind.KOROBOV_P, 6, 2)


def test_generate_rejects_bad_dim():
    with pytest.raises(ValueError):
        generate(PSetKind.KOROBOV_P, 5, 0)


def test_generate_respects_entry_cap():
    with pytest.raises(BudgetError):
        generate(PSetKind.KOROBOV_Q, 101, 3, caps=Caps(max_point_entries=100))


def test_project_examples():
    ps = generate(PSetKind.KOROBOV_P, 5, 2)
    assert project(ps, [1]).rows() == [(n,) for n in range(5)]
    assert project(ps, [1, 2]).rows() == ps.rows()
    r = generate(PSetKind.HUA_WANG_R, 2, 2)
    assert sorted(project(r, [2]).rows()) == [(0,), (0,), (0,), (1,)]


def test_project_validation():
    ps = generate(PSetKind.KOROBOV_P, 5, 2)
    with pytest.raises(ValueError):
        project(ps, [])
    with pytest.raises(ValueError):
        project(ps, [0, 1])
    with pytest.raises(ValueError):
        project(ps, [3])


@given(st.integers(min_value=1, max_value=4).flatmap(
    lambda s: st.tuples(st.just(s),
                        st.sets(st.integers(1, s), min_size=1),
                        st.sets(st.integers(1, s), min_size=1))))
@settings(max_examples=60)
def test_project_composes(args):
    s, u, _v = args
    u = sorted(u)
    ps = generate(PSetKind.KOROBOV_P, 7, s)
    # relabel: positions within u, then compose back to original indices
    inner = [i + 1 for i in range(len(u))]
    assert project(project(ps, u), inner).rows() == project(ps, u).rows()
    sub = inner[:: 2] or [1]
    composed = [u[i - 1] for i in sub]
    assert project(project(ps, u), sub).rows() == project(ps, composed).rows()


def test_point_set_validation():
    with pytest.raises(ValueError):
        RationalPointSet(modulus=4, dim=2, numerators=np.array([[0, 4]]))
    with pytest.raises(ValueError):
        RationalPointSet(modulus=4, dim=2, numerators=np.array([[0, -1]]))
    with pytest.raises(ValueError):
        RationalPointSet(modulus=4, dim=2, numerators=np.array([[0, 1, 2]]))
    with pytest.raises(ValueError, match="^modulus and dim must be positive$"):
        RationalPointSet(modulus=0, dim=1, numerators=np.zeros((1, 1), dtype=np.int64))
    for modulus, dim in ((7.0, 1), (2.5, 1), (7, 1.0), (True, 1), (7, True)):
        with pytest.raises(ValueError, match="^modulus and dim must be integers$"):
            RationalPointSet(modulus=modulus, dim=dim, numerators=[[0]])
    ps = RationalPointSet(modulus=np.int64(7), dim=np.int32(1), numerators=[[3]])
    assert (type(ps.modulus), type(ps.dim)) == (int, int)
    for dtype in (float, object, str):  # an empty array of any dtype
        with pytest.raises(ValueError, match="point set is empty"):
            RationalPointSet(modulus=4, dim=2, numerators=np.zeros((0, 2), dtype=dtype))


@pytest.mark.parametrize("modulus, numerators", [
    (7, [[2.9]]), (7, np.array([[2.0]])),  # floats, whole or not
    (2**70, [[2**65]]), (2**70, [[2**63]]),  # past int64: object, uint64
    (2**70, [[1], [2**65]]),
], ids=["2.9", "2.0", "2^65", "2^63", "1 and 2^65"])
def test_point_set_refuses_numerators_that_are_no_int64(modulus, numerators):
    with pytest.raises(ValueError, match="^numerators must be integers that fit int64$"):
        RationalPointSet(modulus=modulus, dim=1, numerators=numerators)


def test_point_set_takes_any_int64_integers():
    for numerators in ([[3], [2**62]], np.array([[3]], dtype=np.uint64),
                       np.array([[3]], dtype=object), [[np.int32(3)]]):
        ps = RationalPointSet(modulus=2**63, dim=1, numerators=numerators)
        assert ps.numerators.dtype == np.int64
        assert ps.rows()[0] == (3,)


def test_numerators_are_read_only():
    ps = generate(PSetKind.KOROBOV_P, 5, 2)
    with pytest.raises(ValueError):
        ps.numerators[0, 0] = 3
