import json
from itertools import product
from math import prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import factorint

from leecodes import (
    code_from_json,
    code_to_json,
    codeword_of_tile,
    codewords_in_window,
    codewords_mod_q,
    construct_dpl4,
    construct_pl1,
    is_admissible_q,
    is_bijection_on,
    lee_weight,
    min_distance_window,
    period,
    restrict_to_zq,
)
from leecodes.codes import (
    DOUBLE_SPHERE,
    EVEN_WEIGHT,
    IDENTITY,
    SPHERE,
    AnticodeSpec,
    LinearLeeCode,
    _squarefree_chain,
    apply_transversal,
)
from leecodes.lee import even_weight_members
from leecodes.errors import (
    ConstructionError,
    DataFormatError,
    DomainError,
    MembershipError,
    PeriodicityError,
    WindowError,
)
from leecodes.groups import FiniteAbelianGroup
from leecodes.tiling import (Homomorphism, KernelBasis, _kernel_hnf, _kernel_points, abs_det,
                             apply_hom, det_bareiss, kernel_points_in_box, lattice_basis)


def admissible_oracle(n, q):
    """Closed-form re-derivation: q = 2^b * prod p_i^{b_i} with
    2 <= b <= alpha+2 and 1 <= b_i <= alpha_i."""
    fac = factorint(n)
    alpha = fac.pop(2, 0)
    m = q
    b = 0
    while m % 2 == 0:
        b += 1
        m //= 2
    if not 2 <= b <= alpha + 2:
        return False
    for p, a in fac.items():
        bi = 0
        while m % p == 0:
            bi += 1
            m //= p
        if not 1 <= bi <= a:
            return False
    return m == 1


CONSTRUCTION_SUITE = [(2, 4), (2, 8), (3, 12), (4, 16), (5, 20), (6, 12),
                      (6, 24), (9, 12)]


def test_admissibility_truth_table():
    for n in range(1, 13):
        for q in range(2, 65):
            assert is_admissible_q(n, q) == admissible_oracle(n, q), (n, q)
    for n in range(13, 300):  # every candidate q divides 4n
        for q in range(4, 4 * n + 1, 4):
            if 4 * n % q == 0:
                assert is_admissible_q(n, q) == admissible_oracle(n, q), (n, q)


def test_minimal_admissible_q_is_four_times_odd_radical():
    for n in (3, 5, 6, 9, 10, 12):
        p = prod(p for p in factorint(n) if p != 2)
        qs = [q for q in range(2, 8 * n + 1) if is_admissible_q(n, q)]
        assert qs[0] == 4 * p


def test_admissibility_examples():
    assert is_admissible_q(3, 12)
    assert not is_admissible_q(3, 8)
    assert not is_admissible_q(3, 24)  # 2^3 > alpha+2 = 2
    assert is_admissible_q(4, 4) and is_admissible_q(4, 16)
    assert not is_admissible_q(4, 32)
    with pytest.raises(DomainError):
        is_admissible_q(3, 1)


def test_squarefree_chain():
    assert _squarefree_chain(1) == ()
    assert _squarefree_chain(6) == (6,)
    assert _squarefree_chain(12) == (6, 2)
    assert _squarefree_chain(8) == (2, 2, 2)
    for m in range(1, 200):
        chain = _squarefree_chain(m)
        prod = 1
        for t in chain:
            prod *= t
        assert prod == m
        assert all(chain[i] % chain[i + 1] == 0 for i in range(len(chain) - 1))


@pytest.mark.parametrize("n,q", CONSTRUCTION_SUITE)
def test_construction_suite_invariants(n, q):
    code = construct_dpl4(n, q)
    hom = code.hom
    assert hom.group.order == 4 * n
    assert hom.group.factors[0] == q
    assert is_bijection_on(hom, code.anticode.points())
    assert period(hom) == q
    rows = code.basis.rows
    assert code.basis.det_abs == 4 * n
    assert abs(det_bareiss(rows)) == 4 * n
    assert all(lee_weight(row) % 2 == 0 for row in rows)
    assert sum(length for _b, _s, length in code.blocks) == n
    assert code.transversal == EVEN_WEIGHT


def test_construction_examples():
    code = construct_dpl4(2, 8)
    assert code.hom.group.factors == (8,)
    code = construct_dpl4(3, 12)
    assert code.hom.group.factors == (12,)
    assert code.hom.images == ((1,), (3,), (5,))
    assert code.basis.rows == ((12, 0, 0), (3, -1, 0), (5, 0, -1))
    code = construct_dpl4(2, 4)
    assert code.hom.group.factors == (4, 2)
    code = construct_dpl4(6, 12)
    assert code.hom.group.factors == (12, 2)
    code = construct_dpl4(9, 12)
    assert code.hom.group.factors == (12, 3)


def reference_dpl4(n, q):
    """construct_dpl4 with the basis rows in four branches and the unit
    blocks found by a scan: the builder before the one row rule."""
    if not is_admissible_q(n, q):
        raise DomainError(f"q = {q} is not admissible for n = {n}")
    h_factors = _squarefree_chain(4 * n // q)
    H = FiniteAbelianGroup(h_factors)
    G = FiniteAbelianGroup((q,) + h_factors)
    s = len(G.factors)
    order2, pair_keys, seen = [], [], set()
    for b in H.elements():
        if b == H.identity or b in seen:
            continue
        nb = H.neg(b)
        if nb == b:
            order2.append(b)
        else:
            pair_keys.append(b)
            seen.add(nb)
        seen.add(b)
    images, blocks = [], []
    for b, length in ([(H.identity, q // 4)] + [(b, q // 4) for b in order2]
                      + [(b, q // 2) for b in pair_keys]):
        blocks.append((b, len(images), length))
        for i in range(1, length + 1):
            images.append(((2 * i - 1) % q,) + b)
    assert len(images) == n
    hom = Homomorphism(G, tuple(images))
    m_index = {}  # 1-based index whose image is (1, delta_j)
    for j in range(2, s + 1):
        delta = tuple(1 if jj == j - 2 else 0 for jj in range(len(h_factors)))
        for b, start, _length in blocks:
            if b == delta:
                m_index[j] = start + 1
                break
        else:
            raise ConstructionError(f"no block for unit element of component {j}")
    rows = []
    special = set(m_index.values())
    for i in range(1, n + 1):
        vec = [0] * n
        if i == 1:
            vec[0] = q
        elif i <= q // 4:
            vec[0] = 2 * i - 1
            vec[i - 1] = -1
        elif i in special:
            j = next(j for j, m in m_index.items() if m == i)
            t = G.factors[j - 1]
            vec[0] = t
            vec[i - 1] = -t
        else:
            b = images[i - 1]
            vec[0] = b[0] - sum(b[1:])
            for j in range(2, s + 1):
                vec[m_index[j] - 1] += b[j - 1]
            vec[i - 1] -= 1
        rows.append(tuple(vec))
    assert all(lee_weight(row) % 2 == 0 for row in rows)
    return LinearLeeCode(anticode=AnticodeSpec(kind=DOUBLE_SPHERE, n=n, r=1, axis=1),
                         hom=hom, basis=lattice_basis(hom, rows), blocks=tuple(blocks))


def test_construct_dpl4_matches_the_reference():
    pairs = [(n, q) for n in range(1, 65) for q in range(4, 4 * n + 1, 4)
             if is_admissible_q(n, q)]
    assert len(pairs) == 145
    for n, q in pairs:
        assert code_to_json(construct_dpl4(n, q)) == code_to_json(reference_dpl4(n, q)), (n, q)


def test_construct_dpl4_rejects_inadmissible():
    with pytest.raises(DomainError):
        construct_dpl4(3, 8)


def test_construct_pl1():
    code = construct_pl1(2)
    assert code.hom.group.factors == (5,)
    assert code.hom.images == ((1,), (2,))
    assert code.transversal == IDENTITY
    assert is_bijection_on(code.hom, code.anticode.points())


def test_codeword_of_tile():
    code = construct_dpl4(3, 12)
    assert codeword_of_tile(code, (0, 0, 0)) == (0, 0, 0)
    assert codeword_of_tile(code, (3, -1, 0)) == (3, -1, 0)  # even weight
    with pytest.raises(MembershipError):
        codeword_of_tile(code, (1, 0, 0))


def test_codeword_of_tile_odd_branch():
    # a kernel lattice with odd-weight points exercises the +e_1 shift
    pl1 = construct_pl1(2)
    code = LinearLeeCode(AnticodeSpec(DOUBLE_SPHERE, 2, 1), pl1.hom, pl1.basis, pl1.q,
                         pl1.blocks)
    l = (5, 0)  # kernel vector of odd Lee weight
    assert codeword_of_tile(code, l) == (6, 0)
    assert lee_weight(codeword_of_tile(code, l)) % 2 == 0


def test_restrict_to_zq_and_codeword_count():
    code = restrict_to_zq(construct_dpl4(3, 12), 12)
    cws = codewords_mod_q(code)
    assert len(cws) == 12 ** 3 // (4 * 3)  # 144
    assert len(set(cws)) == len(cws)
    for c in cws:
        assert all(0 <= x < 12 for x in c)
        assert lee_weight(c, q=12) % 2 == 0


def test_restrict_to_zq_rejects_bad_modulus():
    with pytest.raises(PeriodicityError):
        restrict_to_zq(construct_dpl4(3, 12), 8)


def test_restrict_to_zq_rejects_nonpositive_modulus():
    for q in (0, -12):
        with pytest.raises(DomainError):
            restrict_to_zq(construct_dpl4(3, 12), q)


def test_codewords_mod_q_pl1():
    code = restrict_to_zq(construct_pl1(2), 5)
    cws = codewords_mod_q(code)
    assert len(cws) == 5 ** 2 // 5
    assert (0, 0) in cws


def test_codewords_in_window():
    code = construct_dpl4(3, 12)
    cws = codewords_in_window(code, 12)
    assert (0, 0, 0) in cws
    assert cws == sorted(cws)
    identity = code.hom.group.identity
    for c in cws:
        # even transversal with an all-even kernel: codewords are kernel points
        assert apply_hom(code.hom, c) == identity
        assert lee_weight(c) % 2 == 0


CERTIFY_CODES = [("dpl4", 3, 12), ("dpl4", 4, 8), ("pl1", 2, 5), ("pl1", 3, 7), ("pl1", 4, 9)]


def _code(kind, n, q):
    return construct_dpl4(n, q) if kind == "dpl4" else construct_pl1(n)


@pytest.mark.parametrize("kind, n, q", CERTIFY_CODES)
def test_codewords_mod_q_matches_box_filter(kind, n, q):
    code = _code(kind, n, q)
    identity = code.hom.group.identity
    want = sorted(
        tuple(a % q for a in codeword_of_tile(code, x))
        for x in product(range(q), repeat=n)
        if apply_hom(code.hom, x) == identity
    )
    assert codewords_mod_q(restrict_to_zq(code, q)) == want


def _odd_kernel_code(n, axis):
    """The PL(n,1) kernel under the even-weight transversal on `axis`: its
    odd-weight kernel points shift by e_axis, so the codewords are not a
    lattice."""
    pl1 = construct_pl1(n)
    return LinearLeeCode(AnticodeSpec(DOUBLE_SPHERE, n, 1, axis), pl1.hom, pl1.basis, pl1.q,
                         pl1.blocks)


@pytest.mark.parametrize("code", [_code(*c) for c in CERTIFY_CODES]
                         + [construct_dpl4(4, 16), construct_pl1(5),
                            _odd_kernel_code(2, 1), _odd_kernel_code(3, 2)])
def test_codewords_in_window_matches_box_filter(code):
    for R in (1, 2):
        want = sorted({
            c for c in (codeword_of_tile(code, l) for l in kernel_points_in_box(code.hom, R + 1))
            if all(-R <= x <= R for x in c)
        })
        assert codewords_in_window(code, R) == want


def per_point_codewords_mod_q(code):
    """Reference: the transversal of each kernel point of [0, q-1]^n, reduced, sorted."""
    q = code.q
    return sorted(tuple(a % q for a in apply_transversal(code, x))
                  for x in _kernel_points(code.hom, [0] * code.n, [q - 1] * code.n))


def per_point_codewords_in_window(code, R):
    """Reference: the set of the transversals of the kernel points with
    l_axis in [-R - 1, R] and the other l_i in [-R, R], inside the window."""
    a = code.anticode.axis - 1
    lo = [-R] * code.n
    lo[a] = -R - 1
    cws = (apply_transversal(code, l) for l in _kernel_points(code.hom, lo, [R] * code.n))
    return sorted({c for c in cws if -R <= c[a] <= R})


REFERENCE_CODES = ([_code(*c) for c in CERTIFY_CODES]
                   + [construct_dpl4(4, 4), construct_dpl4(4, 16), construct_dpl4(5, 20),
                      construct_pl1(5)]
                   + [_odd_kernel_code(n, axis) for n in (2, 3, 4) for axis in range(1, n + 1)])


@pytest.mark.parametrize("code", REFERENCE_CODES, ids=range(len(REFERENCE_CODES)))
def test_codewords_match_the_per_point_rule(code):
    for R in (1, 2, 3, 4):
        assert codewords_in_window(code, R) == per_point_codewords_in_window(code, R), R
    p = period(code.hom)
    for q in (p, 2 * p) if p ** code.n <= 10 ** 4 else (p,):
        zq = restrict_to_zq(code, q)
        assert codewords_mod_q(zq) == per_point_codewords_mod_q(zq), q


@st.composite
def random_codes(draw):
    """phi: Z^n -> G for n <= 3 and G of one or two cyclic factors of size
    2..6, with random images, so phi need not tile; under an anticode of
    either kind, on any axis, and with its Hermite kernel basis."""
    n = draw(st.integers(1, 3))
    factors = tuple(draw(st.lists(st.integers(2, 6), min_size=1, max_size=2)))
    image = st.tuples(*(st.integers(0, t - 1) for t in factors))
    hom = Homomorphism(FiniteAbelianGroup(factors),
                       draw(st.lists(image, min_size=n, max_size=n)))
    anticode = AnticodeSpec(draw(st.sampled_from([SPHERE, DOUBLE_SPHERE])), n, 1,
                            draw(st.integers(1, n)))
    rows = _kernel_hnf(hom.group.factors, hom.images)
    return LinearLeeCode(anticode, hom, KernelBasis(rows, abs_det(rows)))


@settings(max_examples=200, deadline=None)
@given(random_codes(), st.integers(1, 3), st.integers(1, 2))
def test_codewords_match_the_per_point_rule_on_random_maps(code, R, k):
    assert codewords_in_window(code, R) == per_point_codewords_in_window(code, R)
    zq = restrict_to_zq(code, k * period(code.hom))
    want = per_point_codewords_mod_q(zq)
    e = [0] * code.n
    e[code.anticode.axis - 1] = 1
    if code.anticode.kind == DOUBLE_SPHERE and not any(apply_hom(code.hom, e)):
        # e_axis in ker(phi), which no code has (phi maps 0 and e_axis of
        # its anticode apart): the kernel points l and l + e_axis share a
        # member, which the per-point rule lists twice
        assert set(codewords_mod_q(zq)) == set(want)
    else:
        assert codewords_mod_q(zq) == want


def two_sort_codewords_mod_q(code):
    """Reference: the even-weight members of the kernel points of [0, q-1]^n,
    each reduced mod q, sorted again."""
    q = code.q
    pts = _kernel_points(code.hom, [0] * code.n, [q - 1] * code.n)
    if code.anticode.kind == SPHERE:
        return sorted(pts)
    return sorted(tuple(a % q for a in w)
                  for w in even_weight_members(pts, code.anticode.axis))


# the nine codes of the benchmark's certify workload
NINE_CODES = ([construct_dpl4(n, q) for n, q in [(3, 12), (4, 4), (4, 8), (4, 16), (5, 20)]]
              + [construct_pl1(n) for n in (2, 3, 4, 5)])


@pytest.mark.parametrize("code", NINE_CODES, ids=range(len(NINE_CODES)))
def test_codewords_mod_q_matches_the_two_sort_reference(code):
    p = period(code.hom)
    for q in (p, 2 * p):
        if q ** code.n <= 10 ** 5:
            zq = restrict_to_zq(code, q)
            assert codewords_mod_q(zq) == two_sort_codewords_mod_q(zq), q


@settings(max_examples=200, deadline=None)
@given(random_codes(), st.integers(1, 3))
def test_codewords_mod_q_matches_the_two_sort_reference_on_random_maps(code, k):
    # exactly, repeated words too: a map with e_axis in its kernel lists
    # the member of l_axis = q - 1 moved to q again at l_axis = 0
    zq = restrict_to_zq(code, k * period(code.hom))
    assert codewords_mod_q(zq) == two_sort_codewords_mod_q(zq)


def test_min_distance_examples():
    assert min_distance_window(construct_dpl4(3, 12), 24) == 4
    assert min_distance_window(construct_dpl4(2, 8), 24) == 4
    assert min_distance_window(construct_pl1(2), 10) == 3


@st.composite
def dpl_and_pl_codes(draw):
    """DPL(n, 4) over Z_q for an admissible q, or PL(n, 1), n in 2..5."""
    n = draw(st.integers(2, 5))
    qs = [q for q in range(4, 4 * n + 1, 4) if is_admissible_q(n, q)]
    if draw(st.booleans()):
        return construct_dpl4(n, draw(st.sampled_from(qs)))
    return construct_pl1(n)


@settings(max_examples=100, deadline=None)
@given(st.one_of(dpl_and_pl_codes(), random_codes()), st.integers(1, 4))
def test_min_distance_window_is_the_least_weight_in_the_window(code, R):
    cws = codewords_in_window(code, R)
    if len(cws) < 2:
        with pytest.raises(WindowError):
            min_distance_window(code, R)
    else:
        want = min(sum(abs(x) for x in c) for c in cws if any(c))
        assert min_distance_window(code, R) == want


def test_min_distance_matches_pairwise_scan():
    code = construct_dpl4(2, 8)
    cws = codewords_in_window(code, 12)
    brute = min(
        sum(abs(a - b) for a, b in zip(u, v))
        for i, u in enumerate(cws) for v in cws[i + 1:]
    )
    assert min_distance_window(code, 12) == brute


# a non-lattice DPL(3,4) code: its kernel rows (0, 3, 0) and (2, 2, 1)
# have odd Lee weight, so the even-weight codewords are no lattice
NON_LATTICE_DPL3 = {
    "n": 3, "anticode": {"kind": DOUBLE_SPHERE, "r": 1, "axis": 1},
    "group": [4, 3], "images": [[1, 0], [0, 1], [2, 1]],
    "transversal": EVEN_WEIGHT, "basis": [[4, 0, 0], [0, 3, 0], [2, 2, 1]],
}


@pytest.mark.parametrize("R", [2, 3, 4])
def test_min_distance_of_a_non_lattice_code_matches_pairwise_scan(R):
    code = code_from_json(json.dumps(NON_LATTICE_DPL3))
    assert any(lee_weight(row) % 2 for row in code.basis.rows)
    cws = codewords_in_window(code, R)
    brute = min(
        sum(abs(a - b) for a, b in zip(u, v))
        for i, u in enumerate(cws) for v in cws[i + 1:]
    )
    assert min_distance_window(code, R) == brute == 4


def test_json_roundtrip_bit_exact():
    for code in [construct_dpl4(3, 12), construct_dpl4(2, 4), construct_pl1(3),
                 restrict_to_zq(construct_dpl4(2, 8), 16)]:
        text = code_to_json(code)
        again = code_from_json(text)
        assert code_to_json(again) == text
        assert again.hom == code.hom
        assert again.basis.rows == code.basis.rows
        assert again.q == code.q


def test_json_roundtrip_dpl4_1024_16():
    code = construct_dpl4(1024, 16)
    text = code_to_json(code)
    again = code_from_json(text)
    assert again.basis.det_abs == 4096
    assert code_to_json(again) == text


def test_transversal_must_match_anticode_kind():
    pl = json.loads(code_to_json(construct_pl1(3)))
    dpl = json.loads(code_to_json(construct_dpl4(3, 12)))
    for d, transversal in ((pl, EVEN_WEIGHT), (dpl, IDENTITY)):
        with pytest.raises(DataFormatError, match="transversal"):
            code_from_json(json.dumps(dict(d, transversal=transversal)))


def test_code_from_json_validation():
    good = json.loads(code_to_json(construct_dpl4(2, 8)))
    with pytest.raises(DataFormatError):
        code_from_json("not json")
    bad = dict(good)
    del bad["images"]
    with pytest.raises(DataFormatError):
        code_from_json(json.dumps(bad))
    bad = dict(good)
    bad["basis"] = [[1, 0], [0, 1]]  # det 1, rows not in the kernel
    with pytest.raises(DataFormatError):
        code_from_json(json.dumps(bad))
    bad = dict(good)
    bad["transversal"] = "other"
    with pytest.raises(DataFormatError):
        code_from_json(json.dumps(bad))
    bad = dict(good)
    bad["images"] = [[1], [1]]  # not bijective on the anticode
    with pytest.raises(DataFormatError):
        code_from_json(json.dumps(bad))
    for q in (5, 12, 0, -8, "x"):  # the period 8 must divide q
        with pytest.raises(DataFormatError):
            code_from_json(json.dumps(dict(good, q=q)))
    assert code_from_json(json.dumps(dict(good, q=24))).q == 24


def test_anticode_diameters():
    code4 = construct_dpl4(2, 4)
    assert code4.anticode.diameter == 3
    assert construct_pl1(2).anticode.diameter == 2
