import random
from itertools import product
from math import gcd, lcm, prod
from operator import add

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leecodes import (
    ShiftedWindowTiling,
    code_from_window_tiling,
    component_index_n3,
    construct_double_cross_hom,
    double_sphere,
    half_kernel_basis,
    lee_sphere,
    lee_weight,
    shifted_tiling_n3,
    verify_cover,
    verify_nonregular,
)
from leecodes import nonregular
from leecodes.errors import DimensionError, DomainError, StructuralError, WindowError
from leecodes.groups import FiniteAbelianGroup, element_order
from leecodes.lee import even_weight_member
from leecodes.nonregular import (
    K1,
    K2,
    half_lattice_hom,
    lex_sort,
)
from leecodes.tiling import (Homomorphism, _double_cross_images, apply_hom, is_bijection_on,
                             touch_box)


def half_kernel_centers(bound):
    """Brute-force kernel points of the n=3 map, doubled-first coordinates."""
    out = []
    for d1 in range(-2 * bound, 2 * bound + 1):
        for x2 in range(-bound, bound + 1):
            for x3 in range(-bound, bound + 1):
                if (3 * d1 + x2 + 13 * x3) % 24 == 0:
                    out.append((d1, x2, x3))
    return out


def dense_double_cross(n):
    """The reference W = V | (V + (1/2)e_1) in doubled form, sorted, built
    from the dense double sphere V."""
    return sorted(w for v in double_sphere(n, 1, 1)
                  for w in ((2 * v[0],) + v[1:], (2 * v[0] + 1,) + v[1:]))


def dense_verify_nonregular(hom, n):
    """The reference check: phi bijective on the dense 8n-point W, its
    words padded with zeros to the domain Z^hom.n, and a generator among
    phi(e_2), ..., phi(e_hom.n)."""
    W = dense_double_cross(n)
    G = hom.group
    pad = (0,) * max(hom.n - n, 0)
    if len(W) != G.order or not is_bijection_on(half_lattice_hom(hom), [w + pad for w in W]):
        return False
    return any(element_order(g, G) == G.order for g in hom.images[1:])


def dense_double_cross_images(hom, n):
    """phi(V) and phi(V) + h, sorted, by apply_hom on the dense W: in
    doubled form V is the words of W with an even first coordinate."""
    half = half_lattice_hom(hom)
    pad = (0,) * (hom.n - n)
    W = dense_double_cross(n)
    return tuple(sorted(apply_hom(half, w + pad) for w in W if w[0] % 2 == parity)
                 for parity in (0, 1))


def assert_matches_the_dense_reference(hom, n):
    assert verify_nonregular(hom, n) == dense_verify_nonregular(hom, n)
    assert tuple(map(sorted, _double_cross_images(hom, n))) == dense_double_cross_images(hom, n)


def test_sparse_double_cross_matches_the_dense_reference():
    for n in range(2, 65):
        G = FiniteAbelianGroup((8 * n,))
        # a map of the right group that is not bijective on W, for every n
        homs = [Homomorphism(G, ((2,),) + tuple((i,) for i in range(2, n + 1)),
                             half_image=(1,))]
        if n & (n - 1):
            hom = construct_double_cross_hom(n)
            homs.append(hom)
            homs.append(Homomorphism(G, hom.images[:1] + tuple(
                (2 * g[0] % (8 * n),) for g in hom.images[1:]), half_image=hom.half_image))
        for hom in homs:
            assert verify_nonregular(hom, n) == dense_verify_nonregular(hom, n), n


@st.composite
def half_lattice_maps(draw):
    """(hom, n): a map of Z_{8n}, n in 2..40, with phi(e_1) = 2h for its
    half image h.  Either every image is random, or the double-cross map
    of n is scaled by a random unit, its images of e_2..e_n permuted
    (both keep it bijective on W), and maybe one image redrawn."""
    n = draw(st.integers(2, 40))
    mod = 8 * n
    G = FiniteAbelianGroup((mod,))
    g = st.integers(0, mod - 1)
    if n & (n - 1) and draw(st.booleans()):
        hom = construct_double_cross_hom(n)
        u = draw(g.filter(lambda u: gcd(u, mod) == 1))
        h = u * hom.half_image[0] % mod
        rest = [u * x % mod for (x,) in draw(st.permutations(hom.images[1:]))]
        if draw(st.booleans()):
            rest[draw(st.integers(0, n - 2))] = draw(g)
    else:
        h = draw(g)
        rest = draw(st.lists(g, min_size=n - 1, max_size=n - 1))
    images = ((2 * h % mod,),) + tuple((x,) for x in rest)
    return Homomorphism(G, images, half_image=(h,)), n


@settings(max_examples=300, deadline=None)
@given(half_lattice_maps())
def test_verify_nonregular_matches_the_dense_reference(case):
    hom, n = case
    assert verify_nonregular(hom, n) == dense_verify_nonregular(hom, n)


@st.composite
def any_group_half_lattice_maps(draw):
    """(hom, n): a map of Z^m, n <= m <= n + 2 and n in 1..24, with phi(e_1)
    = 2h for its half image h, into a group of order 8n: Z_{8n}, the
    non-cyclic Z_{4n} x Z_2 and Z_{2n} x Z_2^2, or, for n not a power of
    2, Z_{8n} as the two factors Z_{8 low} x Z_odd, n = low * odd; the
    factors in any order.  Either every image is random, or, on a cyclic
    group, the double-cross map of n is carried over by the Chinese
    remainder map and given random images of e_{n+1}, ..., e_m, and
    maybe one image redrawn."""
    n = draw(st.integers(1, 24))
    low = n & -n
    shapes = [(8 * n,), (4 * n, 2), (2 * n, 2, 2)]
    if n != low:
        shapes.append((8 * low, n // low))
    factors = tuple(draw(st.permutations(draw(st.sampled_from(shapes)))))
    G = FiniteAbelianGroup(factors)
    m = n + draw(st.integers(0, 2))
    elem = st.tuples(*(st.integers(0, t - 1) for t in factors))
    if n != low and prod(factors) == lcm(*factors) and draw(st.booleans()):
        hom = construct_double_cross_hom(n)
        h = tuple(hom.half_image[0] % t for t in factors)
        rest = [tuple(x % t for t in factors) for (x,) in hom.images[1:]]
        rest += draw(st.lists(elem, min_size=m - n, max_size=m - n))
        if draw(st.booleans()):
            rest[draw(st.integers(0, m - 2))] = draw(elem)
    else:
        h = draw(elem)
        rest = draw(st.lists(elem, min_size=m - 1, max_size=m - 1))
    return Homomorphism(G, (G.add(h, h),) + tuple(rest), half_image=h), n


@settings(max_examples=300, deadline=None)
@given(any_group_half_lattice_maps())
def test_verify_nonregular_matches_the_dense_reference_on_any_group(case):
    assert_matches_the_dense_reference(*case)


def test_verify_nonregular_on_a_larger_domain_and_two_factors():
    # the double-cross maps of n = 3 and 6 with two more images, on Z_8n
    # and on the same group as Z_{8 low} x Z_odd: still certified
    for n in (3, 6):
        hom = construct_double_cross_hom(n)
        low = n & -n
        for factors in ((8 * n,), (8 * low, n // low), (n // low, 8 * low)):
            G = FiniteAbelianGroup(factors)
            def crt(g):
                return tuple(g[0] % t for t in factors)
            wide = Homomorphism(G, tuple(map(crt, hom.images)) + (G.identity, crt((1,))),
                                half_image=crt(hom.half_image))
            assert verify_nonregular(wide, n) is True
            assert_matches_the_dense_reference(wide, n)


@pytest.mark.parametrize("factors", [(8,), (4, 2), (2, 2, 2), (16,), (8, 2), (2, 8), (4, 4),
                                     (4, 2, 2), (2, 2, 2, 2)])
def test_verify_nonregular_matches_the_dense_reference_for_every_map_at_n_1_and_2(factors):
    # n = hom.n = 2 leaves the packed layout the least room over the
    # fields of the double cross's sums, and n = 1 has no two-term sum:
    # every map of every group of order 8n
    G = FiniteAbelianGroup(factors)
    n = G.order // 8
    for h in G.elements():
        for rest in product(G.elements(), repeat=n - 1):
            assert_matches_the_dense_reference(
                Homomorphism(G, (G.add(h, h),) + rest, half_image=h), n)


def test_verify_nonregular_errors_and_wrong_groups():
    hom = construct_double_cross_hom(3)
    with pytest.raises(StructuralError):  # no half image, checked first
        verify_nonregular(Homomorphism(hom.group, hom.images), 0)
    with pytest.raises(DomainError):
        verify_nonregular(hom, 0)
    assert not verify_nonregular(hom, 5)  # |G| = 24 != 40, before the dimension check
    G40 = FiniteAbelianGroup((40,))
    short = Homomorphism(G40, ((6,), (1,), (13,)), half_image=(3,))
    with pytest.raises(DimensionError):  # the double cross of Z^5 in Z^3
        verify_nonregular(short, 5)


def test_verify_nonregular_refuses_before_listing(monkeypatch):
    def no_listing(*args):
        raise AssertionError("the double cross was listed")

    # the one call that builds anything of size n: the images of V
    monkeypatch.setattr(nonregular, "_double_cross_images", no_listing)
    # |G| = 24 != 8 * 10**6, read from the closed-form size
    assert verify_nonregular(construct_double_cross_hom(3), 10 ** 6) is False
    short = Homomorphism(FiniteAbelianGroup((40,)), ((6,), (1,), (13,)), half_image=(3,))
    with pytest.raises(DimensionError):
        verify_nonregular(short, 5)


def test_construct_double_cross_hom_n3():
    hom = construct_double_cross_hom(3)
    assert hom.group.factors == (24,)
    assert hom.half_image == (3,)
    assert hom.images == ((6,), (1,), (13,))


def test_construct_double_cross_hom_n6():
    hom = construct_double_cross_hom(6)
    assert hom.group.factors == (48,)
    assert hom.half_image == (3,)
    assert hom.images == ((6,), (18,), (1,), (13,), (25,), (37,))


def reference_double_cross_hom(n):
    """construct_double_cross_hom filling its image list by index
    arithmetic: the builder before the images were listed in order."""
    low = n & -n
    odd = n // low
    mod = 8 * n
    images = [None] * n
    images[0] = ((2 * odd) % mod,)
    for i in range(2, low + 1):
        images[i - 1] = (((4 * i - 2) * odd) % mod,)
    for j in range(1, odd // 2 + 1):
        c = low + (j - 1) * 2 * low
        for i in range(1, 2 * low + 1):
            images[i + c - 1] = ((j + 4 * (i - 1) * odd) % mod,)
    assert all(g is not None for g in images)
    return Homomorphism(FiniteAbelianGroup((mod,)), tuple(images), half_image=(odd % mod,))


def test_construct_double_cross_hom_matches_the_reference():
    for n in range(2, 501):
        if n & (n - 1):
            assert construct_double_cross_hom(n) == reference_double_cross_hom(n), n


def test_construct_double_cross_hom_rejects():
    with pytest.raises(DomainError):
        construct_double_cross_hom(4)  # power of two
    with pytest.raises(DomainError):
        construct_double_cross_hom(1)


@pytest.mark.parametrize(
    "n", [n for n in range(2, 31) if n & (n - 1) != 0]
)
def test_verify_nonregular_all_small_n(n):
    assert verify_nonregular(construct_double_cross_hom(n), n)


def test_verify_nonregular_negative():
    hom = construct_double_cross_hom(3)
    broken = Homomorphism(hom.group, ((6,), (2,), (13,)),
                          half_image=hom.half_image)
    assert not verify_nonregular(broken, 3)
    no_half = Homomorphism(hom.group, hom.images)
    with pytest.raises(StructuralError):
        verify_nonregular(no_half, 3)


def test_verify_nonregular_wrong_group_order_is_false():
    # |W| = 8n but |G| = 48: a plain negative, not a SizeError
    hom = Homomorphism(FiniteAbelianGroup((48,)), ((6,), (1,), (13,)),
                       half_image=(3,))
    assert verify_nonregular(hom, 3) is False


def test_half_kernel_basis():
    kb = half_kernel_basis()
    assert kb.det_abs == 12
    assert kb.rows == ((-1, 3, 0), (0, 24, 0), (0, 13, -1))
    half = half_lattice_hom(construct_double_cross_hom(3))
    for row in kb.rows:
        assert apply_hom(half, row) == (0,)


def test_basis_spans_kernel_in_box():
    # every brute-force kernel point is an integer combination of the rows
    kb = half_kernel_basis()
    rows = kb.rows
    for p in half_kernel_centers(6):
        # solve p = a*rows[0] + b*rows[1] + c*rows[2] over Z
        a = -p[0]
        c = -p[2]
        rem = p[1] - a * rows[0][1] - c * rows[2][1]
        assert rem % 24 == 0
    assert len(half_kernel_centers(6)) > 0


def test_component_rule_examples():
    assert component_index_n3((0, 0, 0)) == (K1, None)
    assert component_index_n3((0, 9, 0)) == (K2, 1)
    assert component_index_n3((0, 7, -1)) == (K1, None)
    assert component_index_n3((0, 2, 0)) == (K2, 0)
    assert component_index_n3((0, -3, 0)) == (K2, -1)


def test_component_rule_rejects_a_center_of_the_wrong_length():
    for center in ((0, 1), (0, 1, 2, 3)):
        with pytest.raises(DimensionError):
            component_index_n3(center)


def test_component_rule_ignores_first_axis():
    for x1 in (-5, 0, 7):
        for x2, x3 in [(0, 0), (4, 5), (-2, 1)]:
            assert component_index_n3((x1, x2, x3)) == component_index_n3((0, x2, x3))


def test_component_rule_matches_center_parity():
    # unshifted tile centers: K1 exactly when the half coordinate is integral
    # with even doubled part
    for d1, x2, x3 in half_kernel_centers(12):
        kind, _m = component_index_n3((0, x2, x3))
        assert (kind == K1) == (d1 % 2 == 0)


def flood_fill_components(cells):
    """Connected components of a cell set under 4-adjacency."""
    todo = set(cells)
    comps = []
    while todo:
        seed = todo.pop()
        comp = {seed}
        frontier = [seed]
        while frontier:
            x, y = frontier.pop()
            for nb in ((x + 1, y), (x - 1, y), (x, y + 1), (x, y - 1)):
                if nb in todo:
                    todo.remove(nb)
                    comp.add(nb)
                    frontier.append(nb)
        comps.append(comp)
    return comps


@pytest.mark.parametrize("R", [10, 20, 30])
def test_component_rule_equals_flood_fill(R):
    k2_cells = [
        (x2, x3)
        for x2 in range(-R, R + 1)
        for x3 in range(-R, R + 1)
        if component_index_n3((0, x2, x3))[0] == K2
    ]
    by_rule = {}
    for cell in k2_cells:
        by_rule.setdefault(component_index_n3((0,) + cell)[1], set()).add(cell)
    comps = flood_fill_components(k2_cells)
    assert sorted(map(sorted, comps)) == sorted(
        sorted(v) for v in by_rule.values()
    )


def test_shifted_tiling_basic():
    t = shifted_tiling_n3("000", 24)
    assert t.R == 24 and t.bits == "000"
    assert len(t.centers) == len(set(t.centers))
    assert all(isinstance(x, int) for c in t.centers for x in c)
    assert verify_cover(t)


def test_shifted_tiling_families_distinct():
    seen = {}
    for bits in ["".join(p) for p in product("01", repeat=3)]:
        t = shifted_tiling_n3(bits, 24)
        assert verify_cover(t)
        key = t.centers
        assert key not in seen, f"{bits} collides with {seen.get(key)}"
        seen[key] = bits


def congruence_loop_centers(bits, R):
    """The shifted centers by the original per-(d1, x2) congruence solve.

    For every d1 and x2 of the box [-(R + 4), R + 4], x3 runs through the
    solutions of 3*d1 + x2 + 13*x3 = 0 (mod 24); each center is then
    shifted by its component and kept if it lies in [-(R + 2), R + 2]^3.
    """
    mod = 24
    g3_inv = pow(13, -1, mod)
    margin = 4
    lim = R + 2
    centers = []
    for d1 in range(-2 * (R + margin), 2 * (R + margin) + 1):
        for x2 in range(-(R + margin), R + margin + 1):
            x3_0 = (-(3 * d1 + x2) * g3_inv) % mod
            start = -(R + margin)
            x3 = start + ((x3_0 - start) % mod)
            while x3 <= R + margin:
                kind, m = component_index_n3((0, x2, x3))
                if kind == K1:
                    shifted = d1
                else:
                    up = 1 <= m <= len(bits) and bits[m - 1] == "1"
                    shifted = d1 + 1 if up else d1 - 1
                assert shifted % 2 == 0
                c = (shifted // 2, x2, x3)
                if all(-lim <= x <= lim for x in c):
                    centers.append(c)
                x3 += mod
    return tuple(sorted(set(centers)))


def touches(c, R):
    """The touch rule of double_sphere(3, 1, 1), whose words have least
    coordinates (-1, -1, -1) and greatest (2, 1, 1): -R - M_i <= c_i <=
    R - m_i on every axis."""
    return all(-R - M <= x <= R - m for x, m, M in zip(c, (-1, -1, -1), (2, 1, 1)))


def test_touch_rule_is_the_tile_extent():
    V = double_sphere(3, 1, 1)
    assert [min(col) for col in zip(*V)] == [-1, -1, -1]
    assert [max(col) for col in zip(*V)] == [2, 1, 1]
    assert touch_box(V, 18) == ([-20, -19, -19], [19, 19, 19])


BIT_STRINGS = ["".join(p) for k in range(5) for p in product("01", repeat=k)]


@pytest.mark.parametrize("bits", BIT_STRINGS)
def test_shifted_tiling_equals_congruence_loop(bits):
    # the loop's output at R is its output at a larger R cut to
    # [-(R + 2), R + 2]^3, which holds the touch box at R, so one
    # reference run cut to the touch box serves every R
    # the touch box's x_1 width 2R + 4 is 0 or 2 mod the period 4 of the
    # centers as R is even or odd, so both parities come near low and far
    low = 6 * len(bits) + 6
    windows = sorted(set(range(low, low + 10)) | {30, 37})
    reference = congruence_loop_centers(bits, windows[-1])
    for R in windows:
        want = tuple(c for c in reference if touches(c, R))
        assert shifted_tiling_n3(bits, R).centers == want, (bits, R)


def test_shifted_tiling_walks_one_period(monkeypatch):
    # one x_1-period of the doubled box is 570 kernel points at R = 18,
    # the whole box 5133; the rows come out sorted, with no sort of the
    # whole tiling
    walk = nonregular._kernel_points
    walked = []

    def counted(hom, lo, hi):
        out = walk(hom, lo, hi)
        walked.append(len(out))
        return out

    def whole_sort(points):
        raise AssertionError("lex_sort called")

    monkeypatch.setattr(nonregular, "_kernel_points", counted)
    monkeypatch.setattr(nonregular, "lex_sort", whole_sort)
    t = shifted_tiling_n3("01", 18)
    assert len(walked) == 1 and walked[0] <= 600
    assert len(t.centers) == 5070 and list(t.centers) == sorted(t.centers)


@pytest.mark.parametrize("bits", ["00", "01", "10", "11"])
def test_shifted_tiling_returns_exactly_the_touching_centers(bits):
    # 5070 centers pass the touch rule at R = 18; 5024 of their tiles
    # meet [-R, R]^3, and no other center's tile can
    R = 18
    t = shifted_tiling_n3(bits, R)
    assert len(t.centers) == 5070
    assert all(touches(c, R) for c in t.centers)
    assert sum(any(all(abs(x + y) <= R for x, y in zip(c, v))
                   for v in double_sphere(3, 1, 1)) for c in t.centers) == 5024
    assert verify_cover(t)


@pytest.mark.parametrize("bits", BIT_STRINGS)
def test_shifted_tiling_covers_every_window(bits):
    low = 6 * len(bits) + 6
    for R in (low, low + 1, low + 5, 30):
        assert verify_cover(shifted_tiling_n3(bits, R)), (bits, R)


def test_lex_sort_equals_sorted_on_shuffled_centers():
    rng = random.Random(11)
    centers = list(shifted_tiling_n3("101", 24).centers)
    ties = [tuple(rng.randrange(-2, 3) for _ in range(3)) for _ in range(500)]
    for points in (centers, ties, [], [(1, 0, 0)]):
        for _ in range(3):
            rng.shuffle(points)
            got = list(points)
            lex_sort(got)
            assert got == sorted(points)


def test_shifted_tiling_window_too_small():
    with pytest.raises(WindowError):
        shifted_tiling_n3("101", 10)


def test_shifted_tiling_rejects_bad_bits():
    with pytest.raises(DomainError):
        shifted_tiling_n3("10x", 30)


def test_code_from_window_tiling():
    t = shifted_tiling_n3("101", 24)
    cws = code_from_window_tiling(t)
    assert len(cws) == len(t.centers)
    assert all(lee_weight(c) % 2 == 0 for c in cws)
    # codewords deep inside the window keep pairwise distance >= 4, and 4
    # is attained: no member of inner has another within Lee distance 3,
    # and some pair is at distance exactly 4
    inner = {c for c in cws if all(-20 <= x <= 20 for x in c)}
    ball3 = [v for v in lee_sphere(3, 3) if any(v)]
    weight4 = [v for v in lee_sphere(3, 4) if lee_weight(v) == 4]
    assert not any(tuple(map(add, u, v)) in inner for u in inner for v in ball3)
    assert any(tuple(map(add, u, v)) in inner for u in inner for v in weight4)


def test_code_from_window_tiling_matches_the_set_rule():
    for length in range(4):
        for bits in map("".join, product("01", repeat=length)):
            low = 6 * length + 6
            for R in (low, low + 1, low + 5):
                t = shifted_tiling_n3(bits, R)
                want = sorted({even_weight_member(c) for c in t.centers})
                assert code_from_window_tiling(t) == want, (bits, R)
    # centers that bump onto one word give it once
    t = ShiftedWindowTiling(R=6, bits="", centers=((0, 0, 1), (1, 0, 1), (2, 0, 0)))
    assert code_from_window_tiling(t) == [(1, 0, 1), (2, 0, 0)]
    assert code_from_window_tiling(ShiftedWindowTiling(R=6, bits="", centers=())) == []


def test_code_from_window_tiling_rejects_centers_of_mixed_length():
    for centers in (((0, 0, 0), (1, 0)), ((0, 0, 0), (1, 0, 0, 0))):
        with pytest.raises(DimensionError):
            code_from_window_tiling(ShiftedWindowTiling(R=6, bits="", centers=centers))


@st.composite
def center_tuples(draw):
    """Unsorted center tuples of one length n in 1..4, possibly empty, with
    negative coordinates and repeats, plus some c - e_1 of even-sum
    centers c: their coordinate sum is odd, so their bump lands on c."""
    n = draw(st.integers(1, 4))
    coord = st.integers(-3, 3)
    centers = draw(st.lists(st.tuples(*[coord] * n), max_size=40))
    partners = [(c[0] - 1,) + c[1:] for c in centers if sum(c) % 2 == 0]
    centers += draw(st.lists(st.sampled_from(partners), max_size=20)) if partners else []
    return tuple(draw(st.permutations(centers)))


@settings(max_examples=400, deadline=None)
@given(center_tuples())
def test_code_from_window_tiling_matches_the_set_rule_on_any_centers(centers):
    t = ShiftedWindowTiling(R=6, bits="", centers=centers)
    assert code_from_window_tiling(t) == sorted({even_weight_member(c) for c in centers})


def test_shifted_tiling_json_roundtrip():
    t = shifted_tiling_n3("01", 20)
    d = t.to_dict()
    assert d["R"] == 20 and d["bits"] == "01"
    assert tuple(tuple(c) for c in d["centers"]) == t.centers

