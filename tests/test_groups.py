from math import prod

import pytest
from sympy import factorint

from leecodes import (
    FiniteAbelianGroup,
    element_order,
    enumerate_abelian_groups,
    lex_rank,
    lex_unrank,
)
from leecodes.errors import DomainError
from leecodes.groups import factorize


def brute_order(g, G):
    acc = g
    m = 1
    while acc != G.identity:
        acc = G.add(acc, g)
        m += 1
    return m


def count_partitions(k):
    # partition-counting oracle, independent of the enumeration
    table = [1] + [0] * k
    for part in range(1, k + 1):
        for total in range(part, k + 1):
            table[total] += table[total - part]
    return table[k]


def test_element_order_examples():
    assert element_order((2,), FiniteAbelianGroup((8,))) == 4
    assert element_order((0, 0), FiniteAbelianGroup((2, 3))) == 1
    assert element_order((1, 1), FiniteAbelianGroup((2, 4))) == 4


def test_element_order_matches_iteration():
    for factors in [(8,), (2, 3), (2, 4), (6, 10), (4, 4, 3)]:
        G = FiniteAbelianGroup(factors)
        for g in G.elements():
            assert element_order(g, G) == brute_order(g, G)


def test_element_order_divides_group_order():
    for factors in [(12,), (2, 2, 5), (9, 3)]:
        G = FiniteAbelianGroup(factors)
        assert all(G.order % element_order(g, G) == 0 for g in G.elements())


def test_enumerate_abelian_groups_examples():
    assert {G.factors for G in enumerate_abelian_groups(4)} == {(4,), (2, 2)}
    assert len(enumerate_abelian_groups(8)) == 3
    assert {G.factors for G in enumerate_abelian_groups(12)} == {(4, 3), (2, 2, 3)}


@pytest.mark.parametrize("m", list(range(1, 257)))
def test_enumeration_count_matches_partition_oracle(m):
    expected = prod(count_partitions(e) for e in factorint(m).values())
    gs = enumerate_abelian_groups(m)
    assert len(gs) == expected
    assert all(G.order == m for G in gs)
    assert len({G.factors for G in gs}) == len(gs)


def test_factorize_matches_sympy():
    # sympy is a test-only reference here; the library factors by trial division
    for m in range(1, 20000):
        f = factorize(m)
        assert f == factorint(m), m
        assert list(f) == sorted(f)


def test_factorize_examples():
    assert factorize(1) == {}
    assert factorize(10 ** 12) == {2: 12, 5: 12}
    assert factorize(999999999989) == {999999999989: 1}  # largest prime < 10^12
    with pytest.raises(DomainError):
        factorize(0)


def test_enumeration_deterministic_order():
    gs = enumerate_abelian_groups(24)
    assert [G.factors for G in gs] == sorted(G.factors for G in gs)
    assert gs == enumerate_abelian_groups(24)


def test_lex_rank_examples():
    G = FiniteAbelianGroup((2, 3))
    assert lex_rank((0, 0), G) == 1
    assert lex_rank((1, 2), G) == 6
    assert lex_rank((1, 2), G) == G.order
    G2 = FiniteAbelianGroup((5, 4, 3))
    assert lex_rank(G2.identity, G2) == 1
    assert lex_rank((4, 3, 2), G2) == G2.order


@pytest.mark.parametrize("factors", [(7,), (2, 3), (4, 4), (3, 5, 2), (10, 10)])
def test_lex_rank_bijective_with_inverse(factors):
    G = FiniteAbelianGroup(factors)
    ranks = set()
    for a in G.elements():
        r = lex_rank(a, G)
        assert 1 <= r <= G.order
        assert lex_unrank(r, G) == a
        ranks.add(r)
    assert len(ranks) == G.order


def test_lex_unrank_range_check():
    G = FiniteAbelianGroup((3, 3))
    with pytest.raises(DomainError):
        lex_unrank(0, G)
    with pytest.raises(DomainError):
        lex_unrank(10, G)


def test_trivial_group():
    G = FiniteAbelianGroup(())
    assert G.order == 1
    assert G.identity == ()
    assert element_order((), G) == 1
    assert [G.factors for G in enumerate_abelian_groups(1)] == [()]
