import random
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leecodes import (
    double_sphere,
    double_sphere_size,
    lee_distance,
    lee_sphere,
    lee_weight,
)
from leecodes.errors import DimensionError, DomainError
from leecodes.lee import (
    double_sphere_sparse,
    even_weight_member,
    even_weight_members,
    format_word,
    format_words,
    lee_sphere_size,
    lee_sphere_sparse,
    nonzeros,
    parse_word,
    parse_words,
    word_length,
)


def brute_sphere(n, r):
    return {w for w in product(range(-r, r + 1), repeat=n)
            if sum(abs(x) for x in w) <= r}


def test_lee_distance_examples():
    assert lee_distance((0, 0), (2, 3)) == 5
    assert lee_distance((7, -1, 4), (7, -1, 4)) == 0
    assert lee_distance((0,), (4,), q=5) == 1


def test_lee_distance_symmetric_and_zero():
    rng = random.Random(7)
    for _ in range(200):
        n = rng.randrange(1, 5)
        u = tuple(rng.randrange(-9, 10) for _ in range(n))
        v = tuple(rng.randrange(-9, 10) for _ in range(n))
        assert lee_distance(u, v) == lee_distance(v, u)
        assert (lee_distance(u, v) == 0) == (u == v)


def test_lee_distance_triangle_inequality():
    rng = random.Random(11)
    for _ in range(300):
        n = rng.randrange(1, 4)
        q = rng.choice([None, 5, 8, 13])
        u, v, w = (tuple(rng.randrange(-9, 10) for _ in range(n)) for _ in range(3))
        assert lee_distance(u, w, q) <= lee_distance(u, v, q) + lee_distance(v, w, q)


def test_lee_distance_dimension_mismatch():
    with pytest.raises(DimensionError):
        lee_distance((1, 2), (1, 2, 3))


def test_lee_sphere_examples():
    assert set(lee_sphere(2, 1)) == {(0, 0), (1, 0), (-1, 0), (0, 1), (0, -1)}
    assert len(lee_sphere(3, 1)) == 7
    assert len(lee_sphere(2, 2)) == 13  # brute-force oracle below agrees


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("r", [0, 1, 2, 3])
def test_lee_sphere_matches_brute_force(n, r):
    assert set(lee_sphere(n, r)) == brute_sphere(n, r)


def test_lee_sphere_sorted_and_symmetric():
    for n, r in [(2, 2), (3, 2)]:
        sph = lee_sphere(n, r)
        assert sph == sorted(sph)
        assert len(sph) == len(set(sph))
        pts = set(sph)
        assert all(tuple(-x for x in w) in pts for w in pts)


def test_double_sphere_examples():
    assert set(double_sphere(2, 1, 1)) == {
        (0, 0), (1, 0), (-1, 0), (2, 0), (0, 1), (0, -1), (1, 1), (1, -1)
    }
    assert len(double_sphere(3, 1, 1)) == 12  # 4n
    assert set(double_sphere(1, 0, 1)) == {(0,), (1,)}


def test_double_sphere_axis_out_of_range():
    with pytest.raises(DomainError):
        double_sphere(2, 1, 3)


def test_double_sphere_size_examples():
    assert double_sphere_size(2, 1) == 8
    assert double_sphere_size(2, 2) == 2 * (2 + 1) ** 2
    assert double_sphere_size(4, 3) == len(double_sphere(4, 3, 1))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("r", [0, 1, 2, 3])
def test_double_sphere_size_matches_enumeration_all_axes(n, r):
    for axis in range(1, n + 1):
        assert double_sphere_size(n, r) == len(double_sphere(n, r, axis))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("r", [0, 1, 2, 3, 4, 5])
def test_spheres_match_brute_force_all_axes(n, r):
    sphere = brute_sphere(n, r)
    assert lee_sphere_size(n, r) == len(sphere)
    assert lee_sphere(n, r) == sorted(sphere)
    for axis in range(1, n + 1):
        e = tuple(int(i == axis - 1) for i in range(n))
        shifted = {tuple(a + b for a, b in zip(w, e)) for w in sphere}
        assert double_sphere(n, r, axis) == sorted(sphere | shifted)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 7])
@pytest.mark.parametrize("r", [0, 1, 2, 3])
def test_sparse_spheres_are_the_dense_ones(n, r):
    # each word once, in the ascending-index form nonzeros gives
    sparse = lee_sphere_sparse(n, r)
    assert len(sparse) == len(set(sparse)) == lee_sphere_size(n, r)
    assert sorted(sparse) == sorted(map(nonzeros, lee_sphere(n, r)))
    for axis in range(1, n + 1):
        sparse = double_sphere_sparse(n, r, axis)
        assert len(sparse) == len(set(sparse)) == double_sphere_size(n, r)
        assert sorted(sparse) == sorted(map(nonzeros, double_sphere(n, r, axis)))


def reference_double_sphere_sparse(n, r, axis):
    """Each word of lee_sphere_sparse, in its order, followed by w + e_axis
    when w has weight r and w_axis >= 0: a per-word weight test and a
    dict lookup on every word."""
    k = axis - 1
    out = []
    for w in lee_sphere_sparse(n, r):
        out.append(w)
        if sum(abs(x) for _, x in w) == r and dict(w).get(k, 0) >= 0:
            bumped = dict(w)
            bumped[k] = bumped.get(k, 0) + 1
            out.append(tuple(sorted(bumped.items())))
    return out


@pytest.mark.parametrize("n, r", [(n, r) for n in range(1, 6) for r in range(5)]
                         + [(96, 1), (192, 1)])
def test_double_sphere_sparse_emission_order(n, r):
    # the order, not only the set: every word, then its bump when it has one
    axes = range(1, n + 1) if n <= 5 else (1, 2, n // 2, n)
    for axis in axes:
        assert double_sphere_sparse(n, r, axis) == reference_double_sphere_sparse(n, r, axis)


def test_lee_sphere_size_domain():
    assert lee_sphere_size(1024, 1) == 2049
    assert lee_sphere_size(3, 10 ** 12) > 10 ** 36
    with pytest.raises(DomainError):
        lee_sphere_size(0, 1)
    with pytest.raises(DomainError):
        lee_sphere_size(2, -1)


@pytest.mark.parametrize("n,r", [(1, 1), (2, 1), (2, 3), (3, 2)])
def test_double_sphere_is_anticode_of_odd_diameter(n, r):
    pts = double_sphere(n, r, 1)
    diam = max(lee_distance(u, v) for u in pts for v in pts)
    assert diam == 2 * r + 1


def test_word_serialization_roundtrip():
    w = (3, -1, 0, 12)
    assert parse_word(format_word(w)) == w
    words = [(1, 2), (-3, 0), (0, 0)]
    text = format_words(words)
    assert text.splitlines() == ["-3,0", "0,0", "1,2"]
    assert set(parse_words(text)) == set(words)


def test_word_length():
    assert word_length([]) is None
    assert word_length([(1, 2), (-3, 0), (0, 0)]) == 2
    assert word_length([()]) == 0
    assert word_length(iter([(5,)])) == 1
    for words in ([(0, 0), (1,)], [(0,), (1,), (2, 0)], [(), (0,)]):
        with pytest.raises(DimensionError):
            word_length(words)
    with pytest.raises(DimensionError):
        parse_words("0,0\n1")


def generator_lee_weight(w, q=None):
    """lee_weight as a generator expression per coordinate."""
    if q is None:
        return sum(abs(x) for x in w)
    return sum(min(x % q, q - x % q) for x in w)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(-10 ** 20, 10 ** 20), max_size=8),
       st.one_of(st.none(), st.integers(2, 50), st.integers(2, 10 ** 20)))
def test_lee_weight_matches_the_generator_form(w, q):
    want = generator_lee_weight(w, q)
    assert lee_weight(tuple(w), q) == want
    assert lee_weight(w, q) == want
    assert lee_weight(iter(w), q) == want


def test_lee_weight_modular():
    assert lee_weight((4, 4), q=8) == 8
    assert lee_weight((7,), q=8) == 1


def test_even_weight_member():
    assert even_weight_member((0, 0, 0)) == (0, 0, 0)
    assert even_weight_member((1, 0, 0)) == (2, 0, 0)
    assert even_weight_member((-1, 2, 0), axis=3) == (-1, 2, 1)
    for w in product(range(-3, 4), repeat=3):
        for axis in (1, 2, 3):
            m = even_weight_member(w, axis)
            assert lee_weight(m) % 2 == 0
            assert lee_distance(m, w) <= 1 and m[axis - 1] - w[axis - 1] in (0, 1)


@st.composite
def words_and_axis(draw):
    """Words of one length n in 1..4, possibly empty, sorted or not, with
    repeats, plus some w - e_axis of even-sum words w: their coordinate
    sum is odd, so their member is w; and an axis in 1..n."""
    n = draw(st.integers(1, 4))
    axis = draw(st.integers(1, n))
    words = draw(st.lists(st.tuples(*[st.integers(-3, 3)] * n), max_size=40))
    k = axis - 1
    partners = [w[:k] + (w[k] - 1,) + w[k + 1:] for w in words if sum(w) % 2 == 0]
    words += draw(st.lists(st.sampled_from(partners), max_size=20)) if partners else []
    words = sorted(words) if draw(st.booleans()) else draw(st.permutations(words))
    return words, axis


@settings(max_examples=400, deadline=None)
@given(words_and_axis())
def test_even_weight_members_is_the_set_of_members(case):
    words, axis = case
    want = sorted({even_weight_member(w, axis) for w in words})
    assert even_weight_members(words, axis) == want


def test_even_weight_members_examples():
    assert even_weight_members([]) == []
    assert even_weight_members([()]) == [()]
    # (1, 0) moves onto (2, 0); on axis 2 it moves to (1, 1)
    assert even_weight_members([(2, 0), (1, 0), (0, 0)]) == [(0, 0), (2, 0)]
    assert even_weight_members([(2, 0), (1, 0), (0, 0)], 2) == [(0, 0), (1, 1), (2, 0)]


def test_nonzeros():
    assert nonzeros((0, -2, 0, 5)) == ((1, -2), (3, 5))
    assert nonzeros((0, 0)) == ()
