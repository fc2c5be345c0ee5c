from math import prod

import pytest
from sympy import factorint

from leecodes import (
    FiniteAbelianGroup,
    Homomorphism,
    element_order,
    enumerate_abelian_groups,
    lex_rank,
)
from leecodes.errors import DomainError, StructuralError
from leecodes.groups import (_factor_primes, _height_key, aut_orbit_representatives,
                             factorize, has_generator)


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


def factor_tuples(limit):
    """Every tuple of factors >= 2 with product at most limit, in every
    order, the empty one (the trivial group) included."""
    out, todo = [], [()]
    while todo:
        factors = todo.pop()
        out.append(factors)
        todo += [factors + (t,) for t in range(2, limit // prod(factors) + 1)]
    return out


def test_has_generator_matches_element_order():
    # every group of order <= 64, in every presentation as a product of
    # cyclic factors, cyclic or not
    for factors in factor_tuples(64):
        G = FiniteAbelianGroup(factors)
        elements = list(G.elements())
        for g in elements:
            assert has_generator([g], G) == (element_order(g, G) == G.order), (factors, g)
        assert has_generator(elements, G) == any(element_order(g, G) == G.order
                                                 for g in elements)
        assert has_generator([], G) is False


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
    # the inverse of rank r is element r - 1 of the lexicographic order
    G = FiniteAbelianGroup(factors)
    elements = list(G.elements())
    assert [lex_rank(a, G) for a in elements] == list(range(1, G.order + 1))


def test_trivial_group():
    G = FiniteAbelianGroup(())
    assert G.order == 1
    assert G.identity == ()
    assert element_order((), G) == 1
    assert [G.factors for G in enumerate_abelian_groups(1)] == [()]


def test_factors_and_coordinates_must_be_ints():
    # int() would truncate 2.5 and parse "3"
    for factors in ((2.5, "3"), (2.0,), ("3",), (True, 2)):
        with pytest.raises(DomainError, match="integers"):
            FiniteAbelianGroup(factors)
    G = FiniteAbelianGroup((5,))
    for g in ((1.5,), (1.0,), ("1",), (True,)):
        assert not G.contains(g)
        with pytest.raises(StructuralError):
            element_order(g, G)
        with pytest.raises(StructuralError):
            lex_rank(g, G)
    # the packing of images never sees the float
    with pytest.raises(StructuralError):
        Homomorphism(G, ((1.5,),))
    with pytest.raises(StructuralError):
        Homomorphism(FiniteAbelianGroup((8,)), ((2,),), half_image=(1.0,))


def _times(m, g, G):
    return tuple(m * x % t for x, t in zip(g, G.factors))


def automorphisms(G):
    """Generator images of every automorphism of G, by brute force.

    Factor i of order t takes any image h with t*h = 0, which makes the
    map a homomorphism; a branch survives while the images so far
    generate a subgroup whose order is the product of their factors,
    which every injective map satisfies.
    """
    elems = list(G.elements())

    def rec(i, images, sub):
        if i == len(G.factors):
            yield images
            return
        t = G.factors[i]
        for h in elems:
            multiples = [_times(c, h, G) for c in range(t)]
            if _times(t, h, G) != G.identity:
                continue
            grown = {G.add(s, c) for s in sub for c in multiples}
            if len(grown) == len(sub) * t:
                yield from rec(i + 1, images + (h,), grown)

    yield from rec(0, (), {G.identity})


def brute_orbits(G):
    """The Aut(G)-orbits of G as sorted lists, by union-find over automorphisms.

    An automorphism maps k*G onto itself, so whether m*g lies in k*G is
    the same for g and its images: the classes of that invariant hold
    whole orbits.  Once the union-find has merged G into as many parts
    as there are classes, the parts are the orbits, and the rest of the
    automorphisms (about 10^7 for Z_2^5) need not be walked.
    """
    elems = list(G.elements())
    exps = range(1, max(G.factors, default=1) + 1)
    kG = {k: {_times(k, g, G) for g in elems} for k in exps}
    classes = len({frozenset((m, k) for m in exps for k in exps if _times(m, g, G) in kG[k])
                   for g in elems})
    parent = {g: g for g in elems}

    def find(g):
        while parent[g] != g:
            parent[g] = parent[parent[g]]
            g = parent[g]
        return g

    parts = len(elems)
    for images in automorphisms(G):
        for g in elems:
            image = G.identity
            for x, h in zip(g, images):
                image = G.add(image, _times(x, h, G))
            a, b = find(g), find(image)
            if a != b:
                parent[a] = b
                parts -= 1
        if parts == classes:
            break
    orbits = {}
    for g in elems:
        orbits.setdefault(find(g), []).append(g)
    return sorted(orbits.values())


def orbit_key(g, G):
    """The key aut_orbit_representatives keys the orbits of G by."""
    return _height_key(g, G.factors, _factor_primes(G))


def test_automorphism_count_matches_gl():
    # |GL(3,2)| = 168, |Aut(Z_4 x Z_2)| = 8, |Aut(Z_9)| = 6
    assert sum(1 for _ in automorphisms(FiniteAbelianGroup((2, 2, 2)))) == 168
    assert sum(1 for _ in automorphisms(FiniteAbelianGroup((4, 2)))) == 8
    assert sum(1 for _ in automorphisms(FiniteAbelianGroup((9,)))) == 6


@pytest.mark.parametrize("m", list(range(1, 33)))
def test_aut_orbit_key_matches_brute_force_orbits(m):
    for G in enumerate_abelian_groups(m):
        orbits = brute_orbits(G)
        keyed = {}
        for g in G.elements():
            keyed.setdefault(orbit_key(g, G), []).append(g)
        assert sorted(keyed.values()) == orbits, G.factors
        assert aut_orbit_representatives(G) == sorted(o[0] for o in orbits), G.factors


def full_scan_orbit_representatives(G):
    """The scan of every element kept as a reference: first member per key."""
    seen = set()
    reps = []
    for g in G.elements():
        key = orbit_key(g, G)
        if key not in seen:
            seen.add(key)
            reps.append(g)
    return reps


def test_orbit_representatives_match_the_full_scan():
    for m in range(1, 401):
        for G in enumerate_abelian_groups(m):
            assert aut_orbit_representatives(G) == full_scan_orbit_representatives(G), G.factors


def test_aut_orbit_key_examples():
    Z8 = FiniteAbelianGroup((8,))
    assert [orbit_key(g, Z8) for g in [(0,), (1,), (2,), (4,), (6,)]] == [
        ((),), ((0, 1, 2),), ((1, 2),), ((2,),), ((1, 2),)]
    G = FiniteAbelianGroup((4, 2, 3))
    assert orbit_key((1, 1, 2), G) == ((0, 1), (0,))
    assert orbit_key((2, 1, 2), G) == ((0,), (0,))
    assert aut_orbit_representatives(FiniteAbelianGroup((7,))) == [(0,), (1,)]
    assert aut_orbit_representatives(FiniteAbelianGroup(())) == [()]


def test_aut_orbit_key_needs_prime_power_factors():
    with pytest.raises(StructuralError):
        orbit_key((1,), FiniteAbelianGroup((6,)))
    with pytest.raises(StructuralError):
        aut_orbit_representatives(FiniteAbelianGroup((4, 10)))
