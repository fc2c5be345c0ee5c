import time
from itertools import combinations, product
from math import lcm, prod
from operator import add
from unittest.mock import patch

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from leecodes import (
    FiniteAbelianGroup,
    Homomorphism,
    double_sphere,
    is_bijection_on,
    kernel_basis,
    lee_sphere,
    period,
    search_lattice_tiling,
    verify_window_tiling,
)
from leecodes import (codewords_in_window, construct_dpl4, construct_pl1,
                      codewords_mod_q, min_distance_window, restrict_to_zq, tiling)
from leecodes.errors import (
    ConstructionError,
    DimensionError,
    DomainError,
    SizeError,
    StructuralError,
)
from leecodes.groups import aut_orbit_representatives, element_order, enumerate_abelian_groups
from leecodes.lee import lee_sphere_sparse, nonzeros
from leecodes.nonregular import construct_double_cross_hom, half_lattice_hom
from leecodes.tiling import (
    BUDGET_EXCEEDED,
    FOUND,
    NOT_FOUND,
    KernelBasis,
    abs_det,
    apply_hom,
    apply_hom_sparse,
    det_bareiss,
    _hnf_rows,
    _kernel_points,
    exact_cover,
    inverse_on,
    kernel_points_in_box,
    lattice_basis,
    touch_box,
)

Z5 = FiniteAbelianGroup((5,))
CROSS_HOM = Homomorphism(Z5, ((1,), (2,)))  # bijective on the 5-point cross


def test_apply_hom_examples():
    assert apply_hom(CROSS_HOM, (3, 1)) == (0,)
    assert apply_hom(CROSS_HOM, (0, 0)) == (0,)
    hom8 = Homomorphism(FiniteAbelianGroup((8,)), ((1,), (3,)))
    assert apply_hom(hom8, (5, 4)) == ((5 + 12) % 8,)


def test_apply_hom_sparse_matches_dense():
    hom = Homomorphism(FiniteAbelianGroup((12, 2)), ((1, 0), (3, 1), (5, 1), (7, 0)))
    for a in [(0, 0, 0, 0), (1, -2, 0, 5), (0, 0, 0, -1), (24, 3, -7, 0)]:
        sparse = [(i, x) for i, x in enumerate(a) if x]
        assert apply_hom_sparse(hom, sparse) == apply_hom(hom, a)


@st.composite
def homs_and_words(draw):
    factors = draw(st.lists(st.integers(2, 64), min_size=1, max_size=6))
    n = draw(st.integers(0, 40))
    image = st.tuples(*(st.integers(0, t - 1) for t in factors))
    images = draw(st.lists(image, min_size=n, max_size=n))
    coord = st.integers(-10 ** 30, 10 ** 30)
    a = draw(st.lists(coord, min_size=n, max_size=n))
    return Homomorphism(FiniteAbelianGroup(tuple(factors)), tuple(images)), tuple(a)


def column_sums(hom, a):
    """phi(a) one cyclic factor at a time: the reference for the packed sum."""
    return tuple(sum(x * g[j] for x, g in zip(a, hom.images)) % t
                 for j, t in enumerate(hom.group.factors))


@settings(max_examples=300, deadline=None)
@given(homs_and_words())
def test_packed_phi_equals_column_sums(case):
    hom, a = case
    want = column_sums(hom, a)
    assert apply_hom(hom, a) == want
    assert apply_hom_sparse(hom, nonzeros(a)) == want


@pytest.mark.parametrize("factors", [(64, 64), (63, 64, 2), (4, 2, 2, 2, 2, 2)])
def test_packed_phi_fields_at_their_largest(factors):
    # every field sum at its bound n (L - 1)(t_max - 1): no carry between fields
    n = 40
    hom = Homomorphism(FiniteAbelianGroup(factors), ((*(t - 1 for t in factors),),) * n)
    for a in [(-1,) * n, (10 ** 30 - 1,) * n, tuple(range(-20, 20))]:
        assert apply_hom(hom, a) == column_sums(hom, a)
        assert apply_hom_sparse(hom, nonzeros(a)) == column_sums(hom, a)


def test_columns_are_not_part_of_equality():
    # the packed image columns are derived from images, so outside ==,
    # hash and repr
    hom = Homomorphism(Z5, ((1,), (2,)))
    assert (hom.packed, hom.width, hom.exponent) == ((1, 2), 7, 5)
    assert hom == CROSS_HOM and hash(hom) == hash(CROSS_HOM)
    # a map whose columns are forced to other values still has the ==,
    # hash and repr of a fresh one
    fresh = Homomorphism(Z5, ((1,), (2,)))
    forced = Homomorphism(Z5, ((1,), (2,)))
    for name, value in (("packed", (3, 4)), ("width", 9), ("exponent", 7)):
        object.__setattr__(forced, name, value)
        assert name not in repr(hom)
    assert (forced.packed, forced.width, forced.exponent) == ((3, 4), 9, 7)
    assert forced == fresh and hash(forced) == hash(fresh) and repr(forced) == repr(fresh)
    assert not hasattr(hom, "columns")
    # so is the Hermite basis a map keeps once a kernel walk has built it
    kernel_basis(hom)
    assert "hnf" in vars(hom) and "hnf" not in vars(fresh)
    assert hom == fresh and hash(hom) == hash(fresh) and repr(hom) == repr(fresh)


def test_apply_hom_dimension_check():
    with pytest.raises(DimensionError):
        apply_hom(CROSS_HOM, (1, 2, 3))


def test_image_validation():
    with pytest.raises(StructuralError):
        Homomorphism(Z5, ((1,), (7,)))


@st.composite
def groups_and_images(draw):
    """A group of 0..3 factors and up to 6 images, most of them in it; the
    others have a coordinate out of range, negative, a bool or a float,
    or one coordinate too few or too many."""
    factors = tuple(draw(st.lists(st.integers(2, 9), max_size=3)))
    good = st.tuples(*(st.integers(0, t - 1) for t in factors))
    coord = st.one_of(st.integers(-3, 12), st.just(True), st.just(1.0))
    bad = st.lists(coord, min_size=max(len(factors) - 1, 0),
                   max_size=len(factors) + 1).map(tuple)
    return FiniteAbelianGroup(factors), draw(st.lists(st.one_of(good, good, bad), max_size=6))


@settings(max_examples=300, deadline=None)
@given(groups_and_images())
def test_image_validation_names_the_first_image_outside_the_group(case):
    # the column check refuses exactly the maps that a contains check per
    # image refuses, and names the same first image
    G, images = case
    outside = [g for g in images if not G.contains(g)]
    if not outside:
        assert Homomorphism(G, images).images == tuple(images)
        return
    with pytest.raises(StructuralError) as exc:
        Homomorphism(G, images)
    assert str(exc.value) == f"image {outside[0]} not in group {G.factors}"


def test_is_bijection_on_cross():
    assert is_bijection_on(CROSS_HOM, lee_sphere(2, 1))
    assert not is_bijection_on(Homomorphism(Z5, ((1,), (4,))), lee_sphere(2, 1))
    hom8 = Homomorphism(FiniteAbelianGroup((8,)), ((1,), (3,)))
    assert is_bijection_on(hom8, double_sphere(2, 1, 1))


def test_is_bijection_on_size_check():
    with pytest.raises(SizeError):
        is_bijection_on(CROSS_HOM, lee_sphere(2, 2))


def test_is_bijection_on_dimension_check():
    with pytest.raises(DimensionError):
        is_bijection_on(CROSS_HOM, [(0, 0), (1, 0), (0, 1), (-1, 0), (0, 0, 1)])


def test_inverse_on_inverts_phi_on_the_tile():
    inv = inverse_on(CROSS_HOM, map(nonzeros, lee_sphere(2, 1)))
    assert sorted(inv) == [(g,) for g in range(5)]
    assert all(apply_hom_sparse(CROSS_HOM, w) == g for g, w in inv.items())


def test_inverse_on_sparse_words():
    inv = inverse_on(CROSS_HOM, lee_sphere_sparse(2, 1))
    assert inv == {apply_hom(CROSS_HOM, w): nonzeros(w) for w in lee_sphere(2, 1)}
    with pytest.raises(DimensionError):
        inverse_on(CROSS_HOM, [(), ((0, 1),), ((1, 1),), ((0, -1),), ((2, -1),)])
    with pytest.raises(DimensionError):
        inverse_on(CROSS_HOM, [(), ((0, 1),), ((1, 1),), ((0, -1),), ((-1, -1),)])


def test_inverse_on_collision_is_none():
    # (1, 0) and (0, -1) both map to 1 under e_1 -> 1, e_2 -> 4
    assert inverse_on(Homomorphism(Z5, ((1,), (4,))), lee_sphere_sparse(2, 1)) is None
    with pytest.raises(SizeError):
        inverse_on(CROSS_HOM, lee_sphere_sparse(2, 2))


def dual_form_inverse_on(hom, words):
    """Reference: phi's inverse on |G| words, each dense or sparse, the
    form read off the word's first entry."""
    words = list(words)
    if len(words) != hom.group.order:
        raise SizeError(f"|V| = {len(words)} != |G| = {hom.group.order}")
    inv = {}
    for w in words:
        if not w:
            items = w
        elif type(w[0]) is tuple:
            if not 0 <= w[0][0] <= w[-1][0] < hom.n:
                raise DimensionError(f"sparse word {w} has an index outside 0..{hom.n - 1}")
            items = w
        elif len(w) == hom.n:
            items = nonzeros(w)
        else:
            raise DimensionError(f"word length {len(w)} != {hom.n}")
        g = apply_hom_sparse(hom, items)
        if g in inv:
            return None
        inv[g] = w
    return inv


@st.composite
def anticode_maps(draw):
    """phi: Z^n -> G, n <= 4, with random images and |G| the size of the
    radius-1 sphere or double sphere (on any axis), and that anticode's
    dense words, sorted or shuffled."""
    n = draw(st.integers(1, 4))
    if draw(st.booleans()):
        dense = double_sphere(n, 1, draw(st.integers(1, n)))
    else:
        dense = lee_sphere(n, 1)
    G = draw(st.sampled_from(enumerate_abelian_groups(len(dense))))
    image = st.tuples(*(st.integers(0, t - 1) for t in G.factors))
    hom = Homomorphism(G, draw(st.lists(image, min_size=n, max_size=n)))
    return hom, draw(st.permutations(dense)) if draw(st.booleans()) else dense


@settings(max_examples=300, deadline=None)
@given(anticode_maps())
def test_inverse_on_matches_the_dual_form_reference(case):
    hom, dense = case
    sparse = [nonzeros(w) for w in dense]
    inv = inverse_on(hom, sparse)
    assert inv == dual_form_inverse_on(hom, sparse)
    want = dual_form_inverse_on(hom, dense)
    assert inv == (None if want is None else {g: nonzeros(w) for g, w in want.items()})
    assert is_bijection_on(hom, dense) == (want is not None)


@st.composite
def dense_sets(draw):
    """phi: Z^n -> Z_m, n <= 3, m <= 7, and m - 1 to m + 1 random words of
    length n, at times with one word of another length put in."""
    n = draw(st.integers(1, 3))
    m = draw(st.integers(2, 7))
    hom = Homomorphism(FiniteAbelianGroup((m,)),
                       draw(st.lists(st.tuples(st.integers(0, m - 1)), min_size=n, max_size=n)))
    coord = st.integers(-2, 2)
    words = draw(st.lists(st.tuples(*[coord] * n), min_size=m - 1, max_size=m + 1))
    if draw(st.booleans()):
        length = draw(st.integers(0, 4).filter(lambda k: k != n))
        words.insert(draw(st.integers(0, len(words))), draw(st.tuples(*[coord] * length)))
    return hom, words


@settings(max_examples=300, deadline=None)
@given(dense_sets())
def test_is_bijection_on_matches_the_dual_form_reference(case):
    hom, words = case
    try:
        want = dual_form_inverse_on(hom, words) is not None
    except (DimensionError, SizeError) as exc:
        want = type(exc)
    if any(len(w) != hom.n for w in words):
        # every length is checked before phi: a word of another length is
        # a DimensionError even where the reference, which checks a word
        # when it reaches it, first meets a SizeError or a collision
        want = DimensionError
    if want in (DimensionError, SizeError):
        with pytest.raises(want):
            is_bijection_on(hom, words)
    else:
        assert is_bijection_on(hom, words) == want


LATTICE_HOMS = [CROSS_HOM,
                Homomorphism(FiniteAbelianGroup((4, 2)), ((1, 0), (3, 1), (1, 1))),
                construct_dpl4(5, 20).hom,
                construct_pl1(6).hom]


@pytest.mark.parametrize("hom", LATTICE_HOMS, ids=range(len(LATTICE_HOMS)))
def test_lattice_basis_accepts_kernel_bases(hom):
    kb = kernel_basis(hom)
    assert lattice_basis(hom, kb.rows) == kb
    # any unimodular change of basis spans the same lattice
    rows = [list(r) for r in kb.rows]
    rows[0] = list(map(add, rows[0], rows[-1]))
    assert lattice_basis(hom, rows).det_abs == hom.group.order


@pytest.mark.parametrize("hom", LATTICE_HOMS, ids=range(len(LATTICE_HOMS)))
def test_lattice_basis_rejects_rows_outside_the_kernel(hom):
    rows = [list(r) for r in kernel_basis(hom).rows]
    rows[-1][-1] += 1
    with pytest.raises(ConstructionError, match="not in kernel"):
        lattice_basis(hom, rows)


@pytest.mark.parametrize("hom", LATTICE_HOMS, ids=range(len(LATTICE_HOMS)))
def test_lattice_basis_rejects_a_proper_sublattice(hom):
    # the rows doubled lie in the kernel but span index 2^n |G|
    rows = [[2 * x for x in r] for r in kernel_basis(hom).rows]
    with pytest.raises(ConstructionError, match=r"\|det\(basis\)\| = %d " % (
            2 ** hom.n * hom.group.order)):
        lattice_basis(hom, rows)


def test_lattice_basis_shape_check():
    with pytest.raises(DimensionError):
        lattice_basis(CROSS_HOM, [(5, 0)])
    with pytest.raises(DimensionError):
        lattice_basis(CROSS_HOM, [(5, 0), (3, 1, 0)])


def test_kernel_basis_canonical():
    # diagonal positive, zeros right of it, entries left of it reduced
    # into [0, diagonal of their column)
    for hom in [CROSS_HOM,
                Homomorphism(FiniteAbelianGroup((8,)), ((1,), (3,))),
                Homomorphism(FiniteAbelianGroup((4, 2)), ((1, 0), (3, 1), (1, 1))),
                Homomorphism(FiniteAbelianGroup(()), ((), (), ())),
                construct_dpl4(5, 20).hom,
                construct_pl1(6).hom]:
        H = kernel_basis(hom).rows
        for i, row in enumerate(H):
            assert row[i] > 0
            assert all(row[j] == 0 for j in range(i + 1, len(row)))
            for j in range(i):
                assert 0 <= row[j] < H[j][j]


def test_det_bareiss_examples():
    assert det_bareiss([(1, 2), (3, 4)]) == -2
    assert det_bareiss([(2, 0, 0), (0, 3, 0), (0, 0, 5)]) == 30
    assert det_bareiss([(1, 1), (2, 2)]) == 0


def test_abs_det_examples():
    assert abs_det([(1, 2), (3, 4)]) == 2
    assert abs_det([(2, 0, 0), (0, 3, 0), (0, 0, 5)]) == 30
    assert abs_det([(1, 1), (2, 2)]) == 0
    assert abs_det([(0, 0), (1, 2)]) == 0  # empty row
    assert abs_det([(1, 0), (2, 0)]) == 0  # empty column
    assert abs_det([(1, 0, 0), (0, 1, 1), (0, 2, 2)]) == 0  # singular core
    assert abs_det([(1, 5, 0), (0, 2, 0), (0, 0, 3)]) == 6
    assert abs_det([(2, 3, 0), (0, 0, 1), (0, 0, 1)]) == 0  # peeling empties a row
    assert abs_det([(2, 0, 0), (3, 0, 0), (0, 1, 1)]) == 0  # and a column
    assert abs_det([(5,)]) == 5
    assert abs_det([]) == 1
    with pytest.raises(DimensionError):
        abs_det([(1, 2)])


def test_abs_det_peels_stored_bases_completely(monkeypatch):
    def no_core(mat):
        raise AssertionError(f"abs_det left a {len(mat)} x {len(mat)} core")

    bases = [construct_dpl4(n, q).basis for n, q in
             [(3, 12), (4, 16), (24, 12), (60, 60), (100, 20), (64, 4)]]
    bases += [kernel_basis(construct_dpl4(5, 20).hom), construct_pl1(6).basis,
              kernel_basis(Homomorphism(FiniteAbelianGroup((4, 2)),
                                        ((1, 0), (3, 1), (1, 1))))]
    expected = [abs(det_bareiss(b.rows)) for b in bases]
    monkeypatch.setattr(tiling, "det_bareiss", no_core)
    for basis, det in zip(bases, expected):
        assert abs_det(basis.rows) == det == basis.det_abs


def test_abs_det_bounds_its_dense_core(monkeypatch):
    dense = [(2, 1, 1), (1, 2, 1), (1, 1, 2)]  # no row or column peels
    assert abs_det(dense) == 4
    monkeypatch.setattr(tiling, "MAX_BAREISS_CORE", 3)
    assert abs_det(dense) == 4
    monkeypatch.setattr(tiling, "MAX_BAREISS_CORE", 2)
    calls = []
    with monkeypatch.context() as m:
        m.setattr(tiling, "det_bareiss", calls.append)
        with pytest.raises(SizeError):
            abs_det(dense)
    assert calls == []  # refused before any elimination
    hom = Homomorphism(FiniteAbelianGroup((4,)), ((1,), (1,), (1,)))
    with pytest.raises(SizeError):
        lattice_basis(hom, dense)
    # a peel that leaves no core passes any bound
    monkeypatch.setattr(tiling, "MAX_BAREISS_CORE", 0)
    assert abs_det([(1, 5, 0), (0, 2, 0), (0, 0, 3)]) == 6


def test_abs_det_peels_a_row_or_a_column_alike(monkeypatch):
    # row 0 is the one singleton line of m, and column 0 the one of its
    # transpose: each peel leaves the same 2 x 2 core [[1, 1], [1, 2]]
    cores = []

    def record(mat):
        cores.append([list(row) for row in mat])
        return det_bareiss(mat)

    monkeypatch.setattr(tiling, "det_bareiss", record)
    m = [(1, 0, 0), (1, 1, 1), (1, 1, 2)]
    assert abs_det(m) == 1
    assert abs_det(list(zip(*m))) == 1
    assert cores == [[[1, 1], [1, 2]], [[1, 1], [1, 2]]]


ENTRY = st.integers(-9, 9)


@st.composite
def square_matrices(draw):
    """Dense, sparse, singular, or triangular under a row and column
    permutation around a dense core, up to 7 x 7."""
    k = draw(st.integers(1, 7))
    kind = draw(st.sampled_from(["dense", "sparse", "singular", "triangular"]))
    if kind == "sparse":
        entry = st.one_of(st.just(0), st.just(0), ENTRY)
    else:
        entry = ENTRY
    m = [[draw(entry) for _ in range(k)] for _ in range(k)]
    if kind == "singular":
        a, b = draw(ENTRY), draw(ENTRY)
        i, j = draw(st.integers(0, k - 1)), draw(st.integers(0, k - 1))
        m[-1] = [a * x + b * y for x, y in zip(m[i], m[j])] if k > 1 else [0]
    elif kind == "triangular":
        core = draw(st.integers(0, k))
        nonzero = ENTRY.filter(bool)
        for i in range(k - core):
            m[i][i] = draw(nonzero)
            m[i][i + 1:] = [0] * (k - i - 1)
        rows = draw(st.permutations(range(k)))
        cols = draw(st.permutations(range(k)))
        m = [[m[i][j] for j in cols] for i in rows]
    return m


@settings(max_examples=400, deadline=None)
@given(square_matrices())
def test_abs_det_matches_bareiss(m):
    assert abs_det(m) == abs(det_bareiss(m))


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 8).flatmap(lambda k: st.tuples(
    st.lists(st.lists(ENTRY, min_size=k, max_size=k), min_size=k, max_size=k),
    st.permutations(range(k)), st.permutations(range(k)))))
def test_abs_det_of_a_lower_triangular_matrix_matches_the_peel(case):
    m, rows, cols = case
    k = len(m)
    low = [row[:i + 1] + [0] * (k - i - 1) for i, row in enumerate(m)]
    # upper triangular, and permuted: neither is lower triangular unless
    # diagonal, so both go through the peel
    up = [row[::-1] for row in reversed(low)]
    mixed = [[low[i][j] for j in cols] for i in rows]
    diagonal = abs(prod(row[i] for i, row in enumerate(low)))
    assert abs_det(low) == abs_det(up) == abs_det(mixed) == diagonal
    assert diagonal == abs(det_bareiss(low))


def test_tile_spread():
    # hi_i - lo_i of touch_box(V, 0) is the spread max v_i - min v_i of axis i
    def spread(V):
        lo, hi = touch_box(V, 0)
        return [b - a for a, b in zip(lo, hi)]

    assert spread(double_sphere(3, 1, 1)) == [3, 2, 2]
    assert spread(lee_sphere(2, 2)) == [4, 4]
    assert spread([(0, 0)]) == [0, 0]


def test_kernel_basis_cross():
    kb = kernel_basis(CROSS_HOM)
    assert kb.det_abs == 5
    assert kb.rows == ((5, 0), (3, 1))
    for row in kb.rows:
        assert apply_hom(CROSS_HOM, row) == (0,)


def test_kernel_basis_more():
    hom = Homomorphism(FiniteAbelianGroup((3,)), ((1,),))
    assert kernel_basis(hom).rows == ((3,),)
    hom8 = Homomorphism(FiniteAbelianGroup((8,)), ((1,), (3,)))
    kb = kernel_basis(hom8)
    assert kb.det_abs == 8
    for row in kb.rows:
        assert apply_hom(hom8, row) == (0,)


def test_period_examples():
    assert period(CROSS_HOM) == 5
    hom8 = Homomorphism(FiniteAbelianGroup((8,)), ((1,), (3,)))
    assert period(hom8) == 8
    hom_id = Homomorphism(FiniteAbelianGroup(()), ((), ()))
    assert period(hom_id) == 1


def test_period_of_the_map_of_z0_is_one():
    assert period(Homomorphism(Z5, ())) == 1


def test_period_is_minimal_kernel_period():
    # q * e_i lies in the kernel iff the period divides q
    for hom in [CROSS_HOM,
                Homomorphism(FiniteAbelianGroup((8,)), ((1,), (3,))),
                Homomorphism(FiniteAbelianGroup((4, 3)), ((1, 1), (3, 2)))]:
        p = period(hom)
        identity = hom.group.identity
        n = hom.n
        for q in range(1, 2 * p + 1):
            in_kernel = all(
                apply_hom(hom, tuple(q if j == i else 0 for j in range(n)))
                == identity
                for i in range(n)
            )
            assert in_kernel == (q % p == 0)


@st.composite
def maps_with_zero_columns(draw):
    """phi: Z^n -> G with 0..3 cyclic factors of size 2..24 and n <= 6,
    some factor columns all zero."""
    factors = draw(st.lists(st.integers(2, 24), max_size=3))
    zero = draw(st.sets(st.sampled_from(range(len(factors))))) if factors else set()
    image = st.tuples(*(st.just(0) if j in zero else st.integers(0, t - 1)
                        for j, t in enumerate(factors)))
    n = draw(st.integers(0, 6))
    images = draw(st.lists(image, min_size=n, max_size=n))
    return Homomorphism(FiniteAbelianGroup(tuple(factors)), images)


@settings(max_examples=300, deadline=None)
@given(maps_with_zero_columns())
@example(Homomorphism(Z5, ()))
@example(Homomorphism(FiniteAbelianGroup((4, 6, 9)), ((2, 0, 3), (0, 0, 6), (2, 0, 0))))
def test_period_is_the_lcm_of_the_image_orders(hom):
    # the rule period used to evaluate, one element order per image
    assert period(hom) == lcm(*(element_order(g, hom.group) for g in hom.images))


@settings(max_examples=300, deadline=None)
@given(maps_with_zero_columns())
def test_packed_is_each_image_packed_alone(hom):
    # the rule Homomorphism used to pack by, one shifted sum per image
    w = hom.width
    assert hom.packed == tuple(sum(x << j * w for j, x in enumerate(g)) for g in hom.images)


@settings(max_examples=300, deadline=None)
@given(maps_with_zero_columns())
def test_lex_hnf_is_the_hnf_of_the_reversed_map(hom):
    assert hom.lex_hnf == Homomorphism(hom.group, hom.images[::-1]).hnf


def test_kernel_basis_checks_its_rows_once(monkeypatch):
    # hnf is derived unchecked: lattice_basis, in kernel_basis, is its one proof
    checked = []
    real = tiling._check_in_kernel

    def counted(hom, rows):
        rows = list(rows)
        checked.append(rows)
        real(hom, rows)

    monkeypatch.setattr(tiling, "_check_in_kernel", counted)
    hom = Homomorphism(FiniteAbelianGroup((11,)), tuple((i,) for i in range(1, 6)))
    kb = kernel_basis(hom)
    assert checked == [list(kb.rows)] and len(kb.rows) == 5


def test_a_first_walk_builds_no_second_map(monkeypatch):
    # the walk's basis is derived from the map's images: no second
    # Homomorphism, and so no second image check
    calls = []
    real = tiling._in_group
    monkeypatch.setattr(tiling, "_in_group",
                        lambda images, factors: calls.append(images) or real(images, factors))
    code = construct_dpl4(4, 8)
    assert len(calls) == 1
    hom = code.hom
    points = kernel_points_in_box(hom, 3)
    assert "lex_hnf" in vars(hom) and len(points) > 10 and len(calls) == 1


def test_kernel_points_in_box():
    pts = kernel_points_in_box(CROSS_HOM, 3)
    assert (0, 0) in pts
    assert (3, 1) in pts and (-3, -1) in pts
    assert pts == sorted(pts)
    assert all(apply_hom(CROSS_HOM, p) == (0,) for p in pts)
    for p in pts:
        assert all(-3 <= x <= 3 for x in p)


def test_verify_window_tiling():
    assert verify_window_tiling(CROSS_HOM, lee_sphere(2, 1), 6)
    bad = Homomorphism(Z5, ((1,), (4,)))
    assert not verify_window_tiling(bad, lee_sphere(2, 1), 4)
    hom8 = Homomorphism(FiniteAbelianGroup((8,)), ((1,), (3,)))
    assert verify_window_tiling(hom8, double_sphere(2, 1, 1), 8)


def test_exact_cover():
    cross = lee_sphere(2, 1)
    centers = kernel_points_in_box(CROSS_HOM, 5)
    assert exact_cover(centers, cross, 3)
    assert not exact_cover([c for c in centers if c != (0, 0)], cross, 3)  # hole
    assert not exact_cover(centers + [(1, 0)], cross, 3)  # overlap


def test_exact_cover_input_contract():
    with pytest.raises(SizeError):
        exact_cover([(0,)], [], 1)
    with pytest.raises(DimensionError):  # tile words of mixed length
        exact_cover([(0, 0)], [(0, 0), (1,)], 1)
    with pytest.raises(DimensionError):  # 2-D centers, 1-D tile
        exact_cover([(-1, 5), (0, 7), (1, 9)], [(0,)], 1)
    with pytest.raises(DimensionError):  # 1-D centers, 2-D tile
        exact_cover([(x,) for x in range(-1, 2)], [(0, 0)], 1)


def test_exact_cover_repeated_center_missing_the_window():
    # (5, 5) is a kernel point whose cross lies just outside [-4, 4]^2,
    # though inside the box of centers that can touch it: given twice it
    # overlaps nothing
    R = 4
    cross = lee_sphere(2, 1)
    centers = kernel_points_in_box(CROSS_HOM, R + 1)
    assert (5, 5) in centers
    assert exact_cover(centers + [(5, 5)], cross, R)
    assert exact_cover_by_set(centers + [(5, 5)], cross, R)
    assert not exact_cover(centers + [(0, 0)], cross, R)


@pytest.mark.parametrize("shift", [(3, 2), (-4, -3)])
def test_exact_cover_tile_off_the_origin(shift):
    # every m_i > 0, or every M_i < 0: the translates by l - shift
    R = 3
    tile = [tuple(map(add, v, shift)) for v in lee_sphere(2, 1)]
    assert all(min(col) > 0 for col in zip(*tile)) or all(max(col) < 0 for col in zip(*tile))
    centers = [tuple(a - b for a, b in zip(l, shift))
               for l in kernel_points_in_box(CROSS_HOM, R + 8)]
    assert exact_cover(centers, tile, R)
    origin = (-shift[0], -shift[1])  # the translate of l = 0
    assert not exact_cover([c for c in centers if c != origin], tile, R)  # hole
    assert not exact_cover(centers + [origin], tile, R)  # overlap


def test_exact_cover_at_radius_zero():
    assert exact_cover([(0,)], [(0,)], 0)
    assert exact_cover([(-3,), (0,), (3,)], [(-1,), (0,), (1,)], 0)
    assert not exact_cover([(-1,), (0,), (1,)], [(-1,), (0,), (1,)], 0)
    assert exact_cover([(1, 0)], lee_sphere(2, 1), 0)
    assert not exact_cover([(1, 1)], lee_sphere(2, 1), 0)
    assert not exact_cover([(0,)], [(0,)], -1)


def test_exact_cover_without_centers():
    assert not exact_cover([], lee_sphere(2, 1), 0)
    assert not exact_cover([], lee_sphere(2, 1), 3)


def test_exact_cover_center_far_outside_the_padded_box():
    R = 3
    cross = lee_sphere(2, 1)
    centers = kernel_points_in_box(CROSS_HOM, R + 1)
    for far in [(10 ** 30, 0), (0, -10 ** 30), (R + 2, 0), (-R - 2, -R - 2)]:
        assert exact_cover(centers + [far, far], cross, R)
    assert not exact_cover([(10 ** 30, 0)] + centers[1:], cross, R)


def reference_bitset(indices, size):
    buf = bytearray((size + 7) >> 3)
    for i in indices:
        buf[i >> 3] |= 1 << (i & 7)
    return int.from_bytes(buf, "little")


def test_bitset_edges():
    assert tiling._bitset([], 5) == 0
    assert tiling._bitset(iter(()), 1) == 0
    assert tiling._bitset([0], 1) == 1
    assert tiling._bitset([4], 5) == 1 << 4  # bit size - 1
    assert tiling._bitset(iter([0, 4, 2]), 5) == 0b10101
    # a repeat sets its bit once: exact_cover finds a center given twice
    # by a bit count below the number of touching centers
    x = tiling._bitset([3, 1, 3], 8)
    assert x == 0b1010 and x.bit_count() == 2


def test_bitset_of_a_hundred_thousand_bits():
    # int(..., 2) reads 10^5 binary digits: base 2 is exempt from
    # CPython's 4300-digit limit on int strings
    size = 10 ** 5
    indices = list(range(size - 1, -1, -7)) + [0, size - 1]
    x = tiling._bitset(indices, size)
    assert x == reference_bitset(indices, size)
    assert x.bit_length() == size


def test_hermite_basis_is_built_once_per_map(monkeypatch):
    calls = []
    real = tiling._kernel_hnf
    monkeypatch.setattr(tiling, "_kernel_hnf",
                        lambda factors, images: calls.append(images) or real(factors, images))
    code = construct_dpl4(3, 12)
    verify_window_tiling(code.hom, code.anticode.points(), 3)
    kernel_points_in_box(code.hom, 4)
    min_distance_window(code, 3)
    codewords_mod_q(restrict_to_zq(code, 12))
    kernel_basis(code.hom)
    # every walk reads the lexicographic basis, the Hermite basis of the
    # images reversed, and kernel_basis the map's own: each is built once
    assert calls == [code.hom.images[::-1], code.hom.images]


def test_bijection_iff_window_tiling():
    # the two tiling criteria agree on a batch of candidate maps
    V = double_sphere(2, 1, 1)
    G = FiniteAbelianGroup((8,))
    for a in range(8):
        for b in range(8):
            hom = Homomorphism(G, ((a,), (b,)))
            assert is_bijection_on(hom, V) == verify_window_tiling(hom, V, 5)


def test_verify_window_tiling_tile_off_the_origin():
    # translates of a tile that misses the origin reach the window from
    # beyond the tile's spread
    hom3 = Homomorphism(FiniteAbelianGroup((3,)), ((1,),))
    assert verify_window_tiling(hom3, [(5,), (6,), (7,)], 1)
    cross = [(x + 4, y - 3) for x, y in lee_sphere(2, 1)]
    assert verify_window_tiling(CROSS_HOM, cross, 3)
    assert not verify_window_tiling(Homomorphism(Z5, ((1,), (4,))), cross, 4)


def test_verify_window_tiling_rejects_a_tile_phi_cannot_read():
    cross = lee_sphere(2, 1)
    for tile in ([(v[0],) for v in cross], [v + (0,) for v in cross]):
        with pytest.raises(DimensionError):
            verify_window_tiling(CROSS_HOM, tile, 3)
    with pytest.raises(SizeError):
        verify_window_tiling(CROSS_HOM, [], 3)


def _factor_tuples(limit):
    """Every tuple of cyclic factors >= 2 with product <= limit, () included."""
    out = [()]
    for t in range(2, limit + 1):
        out += [(t,) + rest for rest in _factor_tuples(limit // t)]
    return out


@st.composite
def maps_and_bounds(draw):
    """phi: Z^n -> G with |G| <= 24 and n <= 4, images often zero (phi need
    not be onto), and a box bound 0..3."""
    factors = draw(st.sampled_from(_factor_tuples(24)))
    zero = (0,) * len(factors)
    image = st.tuples(*(st.integers(0, t - 1) for t in factors))
    n = draw(st.integers(1, 4))
    images = draw(st.lists(st.one_of(st.just(zero), image), min_size=n, max_size=n))
    return Homomorphism(FiniteAbelianGroup(factors), images), draw(st.integers(0, 3))


@settings(max_examples=400, deadline=None)
@given(maps_and_bounds())
def test_kernel_points_in_box_matches_box_filter(case):
    hom, bound = case
    box = product(range(-bound, bound + 1), repeat=hom.n)
    identity = hom.group.identity
    assert kernel_points_in_box(hom, bound) == [p for p in box if apply_hom(hom, p) == identity]


@st.composite
def maps_and_small_boxes(draw):
    """phi: Z^n -> G, n 1..4, over one cyclic factor or up to three, images
    often zero, and a box lo..hi whose ranges hold 0 to 5 values."""
    factors = draw(st.lists(st.integers(2, 12), min_size=1, max_size=3))
    zero = (0,) * len(factors)
    image = st.tuples(*(st.integers(0, t - 1) for t in factors))
    n = draw(st.integers(1, 4))
    images = draw(st.lists(st.one_of(st.just(zero), image), min_size=n, max_size=n))
    lo = draw(st.lists(st.integers(-4, 2), min_size=n, max_size=n))
    hi = [a + draw(st.integers(-1, 4)) for a in lo]
    return Homomorphism(FiniteAbelianGroup(tuple(factors)), images), lo, hi


@settings(max_examples=400, deadline=None)
@given(maps_and_small_boxes())
@example((Homomorphism(Z5, ((2,),)), [-7], [8]))  # n = 1
@example((CROSS_HOM, [1, -2], [0, 3]))  # an empty box
@example((CROSS_HOM, [3, 1], [3, 1]))  # one point, in the kernel
@example((CROSS_HOM, [1, 1], [1, 1]))  # one point, outside it
@example((Homomorphism(FiniteAbelianGroup((4, 2)), ((1, 1), (2, 0), (0, 1))),
          [-3, -3, -3], [3, 3, 3]))
def test_kernel_points_are_the_sorted_kernel_points_of_the_box(case):
    hom, lo, hi = case
    box = product(*[range(a, b + 1) for a, b in zip(lo, hi)])
    assert _kernel_points(hom, lo, hi) == sorted(p for p in box if not any(apply_hom(hom, p)))


def test_no_reader_sorts_a_kernel_box():
    # the walk emits lexicographic order, and so does every box reader
    for code, q in ((construct_dpl4(4, 8), 8), (construct_pl1(3), 7)):
        for words in (kernel_points_in_box(code.hom, 3), codewords_in_window(code, 3),
                      codewords_mod_q(restrict_to_zq(code, q))):
            assert len(words) > 10 and words == sorted(words)
        min_distance_window(code, 3)


def reference_kernel_hnf(hom):
    """The two-pass Hermite step kept as a reference: eliminate in the
    natural column order, then bring the kernel rows to lower form."""
    G = hom.group
    n = hom.n
    s = len(G.factors)
    rows = [list(g) + [1 if j == i else 0 for j in range(n)]
            for i, g in enumerate(hom.images)]
    rows += [[t if jj == j else 0 for jj in range(s)] + [0] * n
             for j, t in enumerate(G.factors)]
    kern = [row[s:] for row in _hnf_rows(rows) if not any(row[:s]) and any(row[s:])]
    assert len(kern) == n
    H = _hnf_rows([row[::-1] for row in kern])
    return tuple(tuple(row[::-1]) for row in reversed(H))


def reference_descend(B, j, part, lo, hi, suffix, out):
    """The recursive back substitution kept as a reference."""
    d = B[j][j]
    x = lo[j] + (part[j] - lo[j]) % d
    if j == 0:
        out.extend([(y,) + suffix for y in range(x, hi[0] + 1, d)])
        return
    if x > hi[j]:
        return
    row = B[j][:j]
    z = (x - part[j]) // d
    part = [p + z * b for p, b in zip(part, row)]
    while x <= hi[j]:
        reference_descend(B, j - 1, part, lo, hi, (x,) + suffix, out)
        x += d
        part = list(map(add, part, row))


@st.composite
def maps_and_boxes(draw):
    """phi: Z^n -> G with 0..3 cyclic factors of size 2..12 and n <= 6,
    images often zero, and a box lo..hi whose ranges may be empty."""
    factors = draw(st.lists(st.integers(2, 12), max_size=3))
    zero = (0,) * len(factors)
    image = st.tuples(*(st.integers(0, t - 1) for t in factors))
    n = draw(st.integers(1, 6))
    images = draw(st.lists(st.one_of(st.just(zero), image), min_size=n, max_size=n))
    lo = draw(st.lists(st.integers(-4, 2), min_size=n, max_size=n))
    hi = [a + draw(st.integers(-1, 5)) for a in lo]
    return Homomorphism(FiniteAbelianGroup(tuple(factors)), images), lo, hi


@settings(max_examples=500, deadline=None)
@given(maps_and_boxes())
def test_kernel_basis_and_points_match_two_pass_reference(case):
    hom, lo, hi = case
    basis = reference_kernel_hnf(hom)
    assert tiling._kernel_hnf(hom.group.factors, hom.images) == basis
    expected = []
    reference_descend(basis, hom.n - 1, [0] * hom.n, lo, hi, (), expected)
    # the same points, in lexicographic order with no sort
    assert _kernel_points(hom, lo, hi) == sorted(expected)


def diagonal_kernel_basis(hom):
    """Reference: the Hermite basis, every row checked to lie in ker(phi),
    and |det| read off its diagonal, which must be |G|."""
    basis = reference_kernel_hnf(hom)
    assert not any(any(apply_hom(hom, row)) for row in basis)
    det = prod(basis[i][i] for i in range(hom.n))
    if det != hom.group.order:
        raise ConstructionError(f"|det| = {det} != |G| = {hom.group.order}")
    return KernelBasis(rows=basis, det_abs=det)


@settings(max_examples=300, deadline=None)
@given(maps_and_boxes())
def test_kernel_basis_matches_the_diagonal_reference(case):
    hom = case[0]
    try:
        want = diagonal_kernel_basis(hom)
    except ConstructionError:
        # phi is not onto G; only the message is lattice_basis's
        with pytest.raises(ConstructionError, match=r"\|det\(basis\)\| = "):
            kernel_basis(hom)
    else:
        assert kernel_basis(hom) == want


CERTIFY_HOMS = {
    **{f"dpl4_{n}_{q}": (construct_dpl4, n, q)
       for n, q in [(3, 12), (4, 4), (4, 8), (4, 16), (5, 20)]},
    **{f"pl1_{n}": (construct_pl1, n) for n in range(2, 6)},
}


@pytest.mark.parametrize("name", sorted(CERTIFY_HOMS))
def test_kernel_basis_matches_the_diagonal_reference_on_the_certified_codes(name):
    build, *args = CERTIFY_HOMS[name]
    hom = build(*args).hom
    assert kernel_basis(hom) == diagonal_kernel_basis(hom)


def _reference_points(hom, lo, hi):
    """The reference walk's points, sorted into the lexicographic order
    that _kernel_points emits them in."""
    out = []
    reference_descend(kernel_basis(hom).rows, hom.n - 1, [0] * hom.n, lo, hi, (), out)
    return sorted(out)


@pytest.mark.parametrize("name", sorted(CERTIFY_HOMS))
def test_kernel_points_match_reference_on_the_certified_codes(name):
    build, *args = CERTIFY_HOMS[name]
    hom = build(*args).hom
    for bound in (2, 3, 4):
        lo, hi = [-bound] * hom.n, [bound] * hom.n
        assert _kernel_points(hom, lo, hi) == _reference_points(hom, lo, hi), bound


def test_kernel_points_match_reference_on_the_shifted_half_box():
    lim = 18 + 2  # the box shifted_tiling_n3 walks at R = 18
    half = half_lattice_hom(construct_double_cross_hom(3))
    lo, hi = [-2 * lim - 1, -lim, -lim], [2 * lim + 1, lim, lim]
    points = _kernel_points(half, lo, hi)
    assert points == _reference_points(half, lo, hi)
    assert len(points) > 1000


@pytest.mark.parametrize("lo, hi, expected", [
    ([3], [2], []),                         # empty box
    ([-4], [4], [(0,)]),                    # one point
    ([5], [5], [(5,)]),                     # one point off the origin
    ([-12], [13], [(-10,), (-5,), (0,), (5,), (10,)]),
])
def test_kernel_points_in_one_dimension(lo, hi, expected):
    hom = Homomorphism(Z5, ((2,),))
    assert _kernel_points(hom, lo, hi) == expected
    assert _reference_points(hom, lo, hi) == expected


def test_kernel_of_all_ones_map_at_large_n():
    # one elimination pass and no recursion per coordinate: n = 1200
    # neither runs cubic nor exhausts the interpreter's recursion limit
    hom = Homomorphism(FiniteAbelianGroup((2,)), ((1,),) * 1200)
    assert kernel_basis(hom).det_abs == 2
    assert kernel_points_in_box(hom, 0) == [(0,) * 1200]


def exact_cover_by_set(centers, tile, R):
    """The reference oracle: covered window points as a set of tuples."""
    n = len(tile[0])
    covered = set()
    for c in centers:
        for v in tile:
            p = tuple(map(add, c, v))
            if -R <= min(p) and max(p) <= R:
                if p in covered:
                    return False
                covered.add(p)
    return len(covered) == (2 * R + 1) ** n


TILINGS = (
    (Homomorphism(FiniteAbelianGroup((3,)), ((1,),)), [(-1,), (0,), (1,)]),
    (CROSS_HOM, lee_sphere(2, 1)),
    (Homomorphism(FiniteAbelianGroup((8,)), ((1,), (3,))), double_sphere(2, 1, 1)),
    (Homomorphism(FiniteAbelianGroup((7,)), ((1,), (2,), (3,))), lee_sphere(3, 1)),
)


@st.composite
def covers(draw):
    """(centers, tile, R): a lattice tiling with centers dropped, repeated or
    added, or random centers and tile; duplicates and far centers included.

    The lattice tilings repeat along x_1, so the box holds several equal
    x_1-slabs: a drop or an extra center changes one of them only, and
    one slab may be copied to an x_1 outside touch_box, whose run then
    has the key of a run inside it.  The centers come either sorted, so
    exact_cover reads their runs as they are, or in any order, so it
    sorts them by x_1 first.
    """
    R = draw(st.integers(0, 3))
    if draw(st.booleans()):
        hom, tile = draw(st.sampled_from(TILINGS))
        centers = kernel_points_in_box(hom, R + draw(st.integers(0, 3)))
        drop = draw(st.sets(st.integers(0, len(centers) - 1), max_size=2))
        centers = [c for i, c in enumerate(centers) if i not in drop]
        if centers and draw(st.booleans()):
            lo, hi = touch_box(tile, R)
            v = draw(st.sampled_from(centers))[0]
            x = draw(st.sampled_from([lo[0] - 1, hi[0] + 1, -10 ** 20]))
            centers += [(x,) + c[1:] for c in centers if c[0] == v]
    else:
        n = draw(st.integers(1, 3))
        tile = draw(st.lists(st.tuples(*[st.integers(-2, 2)] * n), min_size=1, max_size=8))
        centers = []
    n = len(tile[0])
    point = st.tuples(*[st.integers(-R - 4, R + 4)] * n)
    extra = st.sampled_from(centers) if centers else point
    centers = centers + draw(st.lists(st.one_of(point, extra), max_size=30))
    if draw(st.booleans()):
        tile = tile + [draw(st.sampled_from(tile))]
    if draw(st.booleans()):
        return sorted(centers), tile, R
    return draw(st.permutations(centers)), tile, R


# the cross tiling at R = 2 over the box |x_i| <= 5: its slabs repeat with
# period 5 along x_1, so those at x_1 = -3 and 2 are equal, and those at
# |x_1| >= 4 lie outside touch_box, whose x_1 range is [-3, 3]
CROSS = lee_sphere(2, 1)
PERIODIC = kernel_points_in_box(CROSS_HOM, 5)
LINE = kernel_points_in_box(Homomorphism(FiniteAbelianGroup((3,)), ((1,),)), 6)


@settings(max_examples=600, deadline=None)
@given(covers())
@example(([c for c in PERIODIC if c != (2, -1)], CROSS, 2))  # a hole in one of two equal slabs
@example((sorted(PERIODIC + [(-3, 0)]), CROSS, 2))  # an overlap in one of them
@example((PERIODIC + [(10 ** 20, y) for x, y in PERIODIC if x == 2], CROSS, 2))  # far copy
@example((sorted(PERIODIC + [(2, -1)]), CROSS, 2))  # a center repeated inside one slab
@example((sorted(PERIODIC + [(5, 0)]), CROSS, 2))  # ... inside a slab outside touch_box
@example((PERIODIC[::-1], CROSS, 2))  # unsorted
@example((LINE, [(-1,), (0,), (1,)], 3))  # n = 1
@example((LINE[::-1] + [(0,)], [(-1,), (0,), (1,)], 3))  # n = 1, unsorted, repeated
@example((LINE + [(6,)], [(-1,), (0,), (1,)], 3))  # n = 1, repeated outside the window
def test_exact_cover_matches_set_oracle(case):
    centers, tile, R = case
    assert exact_cover(centers, tile, R) == exact_cover_by_set(centers, tile, R)


def test_a_periodic_kernel_walk_scatters_one_period_of_slabs(monkeypatch):
    # DPL(3,12)'s walk repeats along x_1 with the period 12 of phi(e_1):
    # of the 2R + 4 = 34 slabs at R = 15 only the first 12 are scattered
    code = construct_dpl4(3, 12)
    V = code.anticode.points()
    R = 15
    lo, hi = touch_box(V, R)
    centers = _kernel_points(code.hom, lo, hi)
    assert period(code.hom) == 12 and hi[0] - lo[0] + 1 == 34
    indices = tiling._indices
    yielded = []

    def counted(*args):
        for i in indices(*args):
            yielded.append(i)
            yield i

    monkeypatch.setattr(tiling, "_indices", counted)
    assert verify_window_tiling(code.hom, V, R)
    assert 0 < len(yielded) <= sum(c[0] < lo[0] + 12 for c in centers) < len(centers) // 2


@pytest.mark.parametrize("hom, tile", TILINGS + (
    (CROSS_HOM, [(x + 4, y - 3) for x, y in lee_sphere(2, 1)]),
    (Homomorphism(FiniteAbelianGroup((2,)), ((0,), (1,))), [(0, 0), (0, 1)]),))
def test_exact_cover_at_the_touch_box_faces(hom, tile):
    # one more center, in the middle of touch_box on every other axis:
    # on the face lo_i or hi_i its translate meets the window and
    # overlaps a tile, one step outside it is ignored, also on the
    # first axis of the domino, which has no spread
    R = 3
    lo, hi = touch_box(tile, R)
    centers = _kernel_points(hom, lo, hi)
    assert exact_cover(centers, tile, R)
    mid = [(a + b) // 2 for a, b in zip(lo, hi)]
    for i in range(len(tile[0])):
        for x, want in ((lo[i], False), (lo[i] - 1, True), (hi[i], False), (hi[i] + 1, True)):
            c = tuple(mid[:i] + [x] + mid[i + 1:])
            got = exact_cover(centers + [c], tile, R)
            assert got == exact_cover_by_set(centers + [c], tile, R) == want, (i, c)


def test_search_not_found_certificate():
    V = [(0, 0), (1, 0), (2, 0), (0, 1), (1, -1)]
    res = search_lattice_tiling(V)
    assert res.status == NOT_FOUND
    assert res.hom is None
    assert res.groups_tried == 1
    assert res.assignments_tried == 5
    fail_images = {images for _g, images in res.failures}
    assert ((1,), (3,)) in fail_images
    assert ((1,), (4,)) in fail_images


def test_search_finds_cross_tiling():
    res = search_lattice_tiling(lee_sphere(2, 1))
    assert res.status == FOUND
    assert res.hom.group.factors == (5,)
    assert res.hom.images == ((1,), (2,))
    assert is_bijection_on(res.hom, lee_sphere(2, 1))


def test_search_finds_double_sphere_tiling():
    V = double_sphere(2, 1, 1)
    res = search_lattice_tiling(V)
    assert res.status == FOUND
    assert is_bijection_on(res.hom, sorted(V))


def test_search_translation_invariant():
    V = [(x + 4, y - 2) for x, y in lee_sphere(2, 1)]
    res = search_lattice_tiling(V)
    assert res.status == FOUND
    assert res.hom.images == ((1,), (2,))


def test_search_deterministic():
    V = [(0, 0), (1, 0), (2, 0), (0, 1), (1, -1)]
    a = search_lattice_tiling(V)
    b = search_lattice_tiling(V)
    assert a == b


def test_search_budget_exceeded():
    res = search_lattice_tiling(double_sphere(3, 1, 1), budget=3)
    assert res.status == BUDGET_EXCEEDED
    assert res.nodes > 3


def test_search_empty_tile():
    with pytest.raises(SizeError):
        search_lattice_tiling([])


def test_search_tile_of_mixed_length():
    for V in ([(0,), (0, 1)], [(0, 1), (1,)], [(0, 0), (1, 0), (0, 0, 1)]):
        with pytest.raises(DimensionError):
            search_lattice_tiling(V)


def test_search_tile_of_z0():
    with pytest.raises(DomainError):
        search_lattice_tiling([()])


def test_search_tile_with_a_repeated_word():
    # the set {0, 1} tiles Z by Z_2; the list of three words is no tile
    assert search_lattice_tiling([(0,), (1,)]).status == FOUND
    for V in ([(0,), (0,), (1,)], [(0, 0), (1, 0), (0, 0)]):
        with pytest.raises(DomainError):
            search_lattice_tiling(V)


# nodes visited with the first image pinned only in a cyclic group of
# prime order -> nodes with one first image per Aut(G)-orbit and the
# tile's coordinate swaps and negations cut
ORBIT_CUT_NODES = {6: 4, 15: 9, 386: 27, 42: 15, 126376: 233, 8094: 160, 22250: 156}


@pytest.mark.parametrize("V, status, nodes, groups_tried", [
    (double_sphere(1, 1), FOUND, 6, 2),
    (double_sphere(2, 1), FOUND, 15, 2),
    (double_sphere(3, 1), FOUND, 386, 2),
    (double_sphere(4, 1), FOUND, 42, 2),
    (double_sphere(5, 1), FOUND, 126376, 2),
    (double_sphere(3, 2), FOUND, 8094, 1),
    (lee_sphere(3, 2), NOT_FOUND, 22250, 2),
])
def test_search_work_counts(V, status, nodes, groups_tried):
    # nodes is the count before the orbit cut; the pruning visits the
    # same nodes in the same order as a check of every partial
    # assignment against all words it fixes
    res = search_lattice_tiling(V)
    assert (res.status, res.nodes, res.groups_tried) == (
        status, ORBIT_CUT_NODES[nodes], groups_tried)
    assert res.nodes < nodes
    if status == FOUND:
        assert is_bijection_on(res.hom, V)


def test_search_first_image_may_be_zero():
    # phi = ((0,), (1,)) maps the words to 0, 1, 2 in Z_3; a first image
    # pinned to a generator misses it and reports a false NotFound
    V = [(0, 0), (1, 1), (0, 2)]
    res = search_lattice_tiling(V)
    assert res.status == FOUND
    assert res.hom.group.factors == (3,)
    assert res.hom.images == ((0,), (1,))
    assert is_bijection_on(res.hom, V)


def _unpruned_search_group(G, start, coeffs, budget, counts, failures, prev, negated):
    """tiling._search_group with every element tried at every depth: no
    orbit cut and no cut by the tile's symmetries."""
    factors = G.factors
    n = len(coeffs)
    images = [None] * n
    elems = list(G.elements())

    def dfs(depth, seen, acc):
        k = start[depth + 1] - start[depth]
        coeff = coeffs[depth]
        for g in elems:
            counts[0] += 1
            if counts[0] > budget:
                return BUDGET_EXCEEDED
            images[depth] = g
            fresh = set()
            ok = True
            for r, x in zip(acc[:k], coeff):
                r = tuple((a + x * b) % t for a, b, t in zip(r, g, factors))
                if r in seen or r in fresh:
                    ok = False
                    break
                fresh.add(r)
            if depth + 1 == n:
                counts[1] += 1
                if ok:
                    return Homomorphism(G, tuple(images))
                if len(failures) < tiling.MAX_FAILURES:
                    failures.append((factors, tuple(images)))
            elif ok:
                res = dfs(depth + 1, seen | fresh, [
                    tuple((a + x * b) % t for a, b, t in zip(r, g, factors)) if x else r
                    for r, x in zip(acc[k:], coeff[k:])
                ])
                if res is not None:
                    return res
        return None

    return dfs(0, {G.identity}, [G.identity] * len(coeffs[0]))


@settings(max_examples=300, deadline=None)
@given(st.integers(2, 3).flatmap(lambda n: st.sets(
    st.tuples(*[st.integers(-2, 2)] * n), min_size=2, max_size=10)))
def test_search_orbit_cut_matches_unpruned_search(V):
    V = sorted(V)
    res = search_lattice_tiling(V)
    with patch.object(tiling, "_search_group", _unpruned_search_group):
        ref = search_lattice_tiling(V)
    assert (res.status, res.groups_tried, res.hom) == (ref.status, ref.groups_tried, ref.hom)
    assert res.nodes <= ref.nodes
    assert res.assignments_tried <= ref.assignments_tried


@st.composite
def symmetrized_tiles(draw):
    """(tile, swaps, negations): a few words of [-1, 1]^n, n = 2 or 3, closed
    under a random set of coordinate swaps and negations, then translated."""
    n = draw(st.integers(2, 3))
    V = draw(st.sets(st.tuples(*[st.integers(-1, 1)] * n), min_size=1, max_size=4))
    swaps = sorted(draw(st.sets(st.sampled_from(list(combinations(range(n), 2))))))
    negations = sorted(draw(st.sets(st.integers(0, n - 1))))
    maps = [lambda w, i=i, j=j: w[:i] + (w[j],) + w[i + 1:j] + (w[i],) + w[j + 1:]
            for i, j in swaps]
    maps += [lambda w, d=d: w[:d] + (-w[d],) + w[d + 1:] for d in negations]
    todo = list(V)
    while todo:
        w = todo.pop()
        for f in maps:
            if f(w) not in V:
                V.add(f(w))
                todo.append(f(w))
    shift = draw(st.tuples(*[st.integers(-3, 3)] * n))
    return sorted(tuple(map(add, w, shift)) for w in V), swaps, negations


def _expanded(symmetries):
    """tiling._tile_symmetries' (prev, negated) as (swaps, negations): every
    pair i < j within a class, read off j's chain of predecessors, and the
    negated coordinates."""
    prev, negated = symmetries
    n = len(prev)
    assert len(negated) == n and not negated[0]
    swaps = []
    for j in range(n):
        i = prev[j]
        while i != n:
            assert i < j
            swaps.append((i, j))
            i = prev[i]
    return sorted(swaps), [d for d in range(n) if negated[d]]


def _symmetries_by_normalizing(W):
    """Reference for tiling._tile_symmetries: normalize each image of W."""
    n = len(W[0])

    def onto(f):
        return tiling._normalize_tile(map(f, W)) == W

    return ([(i, j) for i, j in combinations(range(n), 2)
             if onto(lambda w: w[:i] + (w[j],) + w[i + 1:j] + (w[i],) + w[j + 1:])],
            [d for d in range(1, n) if onto(lambda w: w[:d] + (-w[d],) + w[d + 1:])])


@settings(max_examples=300, deadline=None)
@given(symmetrized_tiles())
def test_symmetry_cut_matches_unpruned_search(case):
    V, swaps, negations = case
    W = tiling._normalize_tile(V)
    found_swaps, found_negations = _expanded(tiling._tile_symmetries(W))
    assert (found_swaps, found_negations) == _symmetries_by_normalizing(W)
    assert set(swaps) <= set(found_swaps)
    assert set(negations) - {0} <= set(found_negations)
    res = search_lattice_tiling(V)
    with patch.object(tiling, "_search_group", _unpruned_search_group):
        ref = search_lattice_tiling(V)
    assert (res.status, res.groups_tried, res.hom) == (ref.status, ref.groups_tried, ref.hom)
    assert res.nodes <= ref.nodes
    assert res.assignments_tried <= ref.assignments_tried


@pytest.mark.parametrize("n", [*range(1, 7), 40])
def test_tile_symmetries_of_the_double_sphere(n):
    # the double sphere is long on axis 0: it swaps and negates only the
    # others; at n = 40 its box holds 4 * 3^39 > 2^63 points, so the word
    # indices are wider than a machine word
    W = tiling._normalize_tile(double_sphere(n, 1))
    assert _expanded(tiling._tile_symmetries(W)) == (list(combinations(range(1, n), 2)),
                                                     list(range(1, n)))


def test_tile_symmetries_of_asymmetric_tiles():
    assert _expanded(tiling._tile_symmetries([(0, 0), (0, 1), (1, -1), (1, 0), (2, 0)])) == (
        [], [])
    # equal spreads, and still no swap: {(0, 0), (0, 1), (1, 1)} swaps to a
    # set with (1, 0)
    assert _expanded(tiling._tile_symmetries([(0, 0), (0, 1), (1, 1)])) == ([], [])
    # {0, 1} x {0, 1, 2}: no swap; axis 1 negates onto a translate (axis 0
    # does too, but that negation is the orbit cut's)
    W = [(x, y) for x in range(2) for y in range(3)]
    assert _expanded(tiling._tile_symmetries(W)) == ([], [1])


def test_tile_symmetries_within_classes():
    # {0, 1}^2 x {0, 1, 2}^2: two classes of interchangeable coordinates
    W = sorted(product(range(2), range(2), range(3), range(3)))
    assert _expanded(tiling._tile_symmetries(W)) == ([(0, 1), (2, 3)], [1, 2, 3])
    # each coordinate keeps only its predecessor in its class; 4 = n marks
    # a class's first member
    assert tiling._tile_symmetries(W) == ([4, 0, 4, 2], [False, True, True, True])
    # the cross of Z^n: one class, every pair; the box of Z^40's holds
    # 3^40 > 2^63 points
    for n in (6, 40):
        W = tiling._normalize_tile(lee_sphere(n, 1))
        assert _expanded(tiling._tile_symmetries(W)) == (list(combinations(range(n), 2)),
                                                         list(range(1, n)))
        assert tiling._tile_symmetries(W) == ([n] + list(range(n - 1)),
                                              [False] + [True] * (n - 1))


def _swapped(w, i, j):
    return tuple(w[j] if k == i else w[i] if k == j else x for k, x in enumerate(w))


def _pairwise_symmetries(W):
    """Every swap and negation tested on its own, as sets up to translation."""
    n = len(W[0])
    key = tiling._normalize_tile(W)

    def onto(f):
        return tiling._normalize_tile([f(w) for w in W]) == key

    return ([(i, j) for i, j in combinations(range(n), 2)
             if onto(lambda w: _swapped(w, i, j))],
            [d for d in range(1, n)
             if onto(lambda w: w[:d] + (-w[d],) + w[d + 1:])])


@st.composite
def symmetric_tiles(draw):
    """Small tiles, some closed under a few coordinate swaps."""
    n = draw(st.integers(1, 5))
    words = draw(st.sets(st.tuples(*[st.integers(-2, 2)] * n), min_size=1, max_size=6))
    for i, j in draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                              max_size=3)):
        words |= {_swapped(w, i, j) for w in words}
    return tiling._normalize_tile(words)


@settings(max_examples=300, deadline=None)
@given(symmetric_tiles())
def test_tile_symmetries_match_the_pairwise_reference(W):
    assert _expanded(tiling._tile_symmetries(W)) == _pairwise_symmetries(W)


def _edge(n):
    """The two-word tile {0, e_1} of Z^n."""
    return [(0,) * n, (1,) + (0,) * (n - 1)]


def test_search_set_up_is_bounded_on_a_large_cross():
    # one swap test per coordinate, not per pair: testing all 28 680 pairs
    # took about a minute before the first node on a 2-vCPU VM
    start = time.perf_counter()
    res = search_lattice_tiling(lee_sphere(240, 1), budget=1)
    assert res.status == BUDGET_EXCEEDED
    assert time.perf_counter() - start < 15
    # one predecessor per coordinate, not a list of the pairs in its class:
    # expanding the 403 651 pairs of {0, e_1}'s one class of 899 coordinates
    # into per-depth lists took over 6 s on a 2-vCPU VM
    start = time.perf_counter()
    res = search_lattice_tiling(_edge(900), budget=1)
    assert res.status == BUDGET_EXCEEDED
    assert time.perf_counter() - start < 3
    # each symmetry test is one pass over the words' mixed-radix indices, with
    # no image words built: rebuilding every word for each test took 12-17 s
    # on the cross of Z^600 and 3-4 s on the one word 0 of Z^4000, against
    # 0.7 s and 0.03 s now, on a 2-vCPU VM
    for V, limit in [(lee_sphere(600, 1), 4), ([(0,) * 4000], 1)]:
        start = time.perf_counter()
        res = search_lattice_tiling(V, budget=1)
        assert res.status == BUDGET_EXCEEDED
        assert time.perf_counter() - start < limit


def test_search_depth_is_not_bounded_by_the_recursion_limit():
    # one DFS frame per coordinate on an explicit stack; Z_2 with e_1 -> 1
    # and every other image 0 takes two nodes at depth 0 and one at each
    # later depth
    n = 1100
    res = search_lattice_tiling(_edge(n))
    assert (res.status, res.nodes, res.assignments_tried) == (FOUND, n + 1, 1)
    assert res.hom.group.factors == (2,)
    assert res.hom.images == ((1,),) + ((0,),) * (n - 1)


def _tuple_search_group(G, start, coeffs, budget, counts, failures, prev, negated):
    """tiling._search_group on element tuples, residues as tuples and the
    fixed residues as a set: the search before element indices, with
    each symmetry cut as a test of the tuples against every pair."""
    swaps, negations = _expanded((prev, negated))
    factors = G.factors
    n = len(coeffs)
    images = [None] * n
    elems = list(G.elements())
    first = aut_orbit_representatives(G)

    def cut(depth, g):
        if any(g < images[i] for i, j in swaps if j == depth):
            return True
        return depth in negations and tuple(-a % t for a, t in zip(g, factors)) < g

    def dfs(depth, seen, acc):
        k = start[depth + 1] - start[depth]
        coeff = coeffs[depth]
        for g in first if depth == 0 else elems:
            if depth and cut(depth, g):
                continue
            counts[0] += 1
            if counts[0] > budget:
                return BUDGET_EXCEEDED
            images[depth] = g
            fresh = set()
            ok = True
            for r, x in zip(acc[:k], coeff):
                r = tuple((a + x * b) % t for a, b, t in zip(r, g, factors))
                if r in seen or r in fresh:
                    ok = False
                    break
                fresh.add(r)
            if depth + 1 == n:
                counts[1] += 1
                if ok:
                    return Homomorphism(G, tuple(images))
                if len(failures) < tiling.MAX_FAILURES:
                    failures.append((factors, tuple(images)))
            elif ok:
                res = dfs(depth + 1, seen | fresh, [
                    tuple((a + x * b) % t for a, b, t in zip(r, g, factors)) if x else r
                    for r, x in zip(acc[k:], coeff[k:])
                ])
                if res is not None:
                    return res
        return None

    return dfs(0, {G.identity}, [G.identity] * len(coeffs[0]))


def _search_fields(res):
    return (res.status, res.hom, res.groups_tried, res.assignments_tried, res.nodes,
            res.failures)


def _tuple_search(V, budget=tiling.DEFAULT_BUDGET):
    with patch.object(tiling, "_search_group", _tuple_search_group):
        return search_lattice_tiling(V, budget)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 3).flatmap(lambda n: st.sets(
    st.tuples(*[st.integers(-2, 2)] * n), min_size=2, max_size=12)))
def test_search_matches_the_tuple_reference(V):
    V = sorted(V)
    res = search_lattice_tiling(V)
    assert _search_fields(res) == _search_fields(_tuple_search(V))
    assert all(type(g) is tuple for _, images in res.failures for g in images)


@pytest.mark.parametrize("V", [double_sphere(3, 1), double_sphere(5, 1), lee_sphere(3, 2)],
                         ids=["ds3_1", "ds5_1", "s3_2"])
def test_search_matches_the_tuple_reference_at_every_budget(V):
    nodes = search_lattice_tiling(V).nodes
    for budget in (1, 2, 3, 10, 100, 1000, nodes - 1, nodes):
        res = search_lattice_tiling(V, budget)
        assert _search_fields(res) == _search_fields(_tuple_search(V, budget)), budget
        assert (res.status == BUDGET_EXCEEDED) == (budget < nodes), budget


# the negation cut reads and fills the memo too
@pytest.mark.parametrize("cap", [1, 3])
@pytest.mark.parametrize("V", [double_sphere(5, 1), lee_sphere(3, 2), double_sphere(4, 2)],
                         ids=["ds5_1", "s3_2", "ds4_2"])
def test_search_memo_cap_keeps_the_result(monkeypatch, V, cap):
    ref = _search_fields(search_lattice_tiling(V))
    monkeypatch.setattr(tiling, "SEARCH_MEMO_CAP", cap)
    assert _search_fields(search_lattice_tiling(V)) == ref


# status, group, nodes and full assignments the tuple search reached on
# tiles larger than the benchmark's
@pytest.mark.parametrize("V, status, factors, nodes, assignments", [
    ([(x,) for x in range(300)], FOUND, (4, 3, 25), 43, 43),
    ([(x,) for x in range(1000)], FOUND, (8, 125), 90, 90),
    ([(x, y) for x in range(300) for y in range(2)], FOUND, (4, 2, 3, 25), 92, 39),
    (lee_sphere(3, 3), NOT_FOUND, None, 1209, 1042),
    (double_sphere(6, 1), FOUND, (4, 2, 3), 338, 11),
    (lee_sphere(4, 3), NOT_FOUND, None, 10541, 8391),
    (double_sphere(4, 2), NOT_FOUND, None, 5445, 3533),
], ids=["interval300", "interval1000", "grid300x2", "s3_3", "ds6_1", "s4_3", "ds4_2"])
def test_search_pins_larger_tiles(V, status, factors, nodes, assignments):
    res = search_lattice_tiling(V)
    assert (res.status, res.nodes, res.assignments_tried) == (status, nodes, assignments)
    if status == FOUND:
        assert res.hom.group.factors == factors
        assert is_bijection_on(res.hom, V)
