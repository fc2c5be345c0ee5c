import random
import sys
from functools import cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leecodes import (
    DecoderTable,
    build_decoder_table,
    construct_dpl4,
    construct_pl1,
    decode,
    decode_modular,
    is_admissible_q,
    lee_distance,
)
from leecodes import tiling
from leecodes.codes import LinearLeeCode, apply_transversal, code_from_json, code_to_json
from leecodes.errors import (
    ConstructionError,
    DimensionError,
    DomainError,
    PeriodicityError,
)
from leecodes.lee import nonzeros
from leecodes.tiling import Homomorphism, apply_hom


def test_table_inverts_restriction():
    for code in [construct_pl1(2), construct_dpl4(2, 4), construct_dpl4(3, 12)]:
        table = build_decoder_table(code)
        assert len(table.inverse) == code.hom.group.order
        for w in code.anticode.points():
            assert table.inverse[apply_hom(code.hom, w)] == nonzeros(w)


def test_table_slot_examples():
    table = build_decoder_table(construct_pl1(2))
    assert table.inverse[(0,)] == ()  # the identity maps back to the origin
    table = build_decoder_table(construct_dpl4(3, 12))
    # phi(e_3) = 5
    assert table.inverse[(5,)] == ((2, 1),)


def test_decode_examples():
    table = build_decoder_table(construct_dpl4(2, 8))
    res = decode(table, (5, 4))
    assert res.codeword == (4, 4)
    assert res.tile_vector == (4, 4)
    res = decode(table, (1, 0))
    assert res.codeword == (0, 0)
    assert lee_distance((1, 0), res.codeword) == 1


def test_decode_dimension_check():
    table = build_decoder_table(construct_dpl4(2, 8))
    with pytest.raises(DimensionError):
        decode(table, (1, 2, 3))


def test_decode_identity_on_codewords():
    code = construct_dpl4(3, 12)
    table = build_decoder_table(code)
    rng = random.Random(3)
    rows = code.basis.rows
    for _ in range(50):
        coeffs = [rng.randrange(-4, 5) for _ in rows]
        l = tuple(sum(c * row[i] for c, row in zip(coeffs, rows))
                  for i in range(code.n))
        res = decode(table, l)
        assert res.tile_vector == l
        assert lee_distance(res.codeword, l) <= 1


def test_decode_single_error_sweep():
    # every word at distance <= 1 from a tile center decodes back to it
    code = construct_dpl4(2, 8)
    table = build_decoder_table(code)
    for l in [(0, 0), (8, 0), (3, -1), (-3, 1), (11, -1)]:
        assert apply_hom(code.hom, l) == code.hom.group.identity
        for v in code.anticode.points():
            w = tuple(a + b for a, b in zip(l, v))
            assert decode(table, w).tile_vector == l


def test_decode_modular():
    code = construct_dpl4(3, 12)
    table = build_decoder_table(code)
    cw = decode_modular(table, (5, 4, 0), 12)
    assert all(0 <= x < 12 for x in cw)
    # lift independence: adding q to a coordinate does not change the result
    assert decode_modular(table, (5 + 12, 4, 0 - 12), 12) == cw


def test_decode_modular_rejects_bad_modulus():
    table = build_decoder_table(construct_dpl4(3, 12))
    with pytest.raises(PeriodicityError):
        decode_modular(table, (0, 0, 0), 9)


def test_decode_modular_rejects_nonpositive_modulus():
    table = build_decoder_table(construct_dpl4(3, 12))
    for q in (0, -12):
        with pytest.raises(DomainError):
            decode_modular(table, (5, 4, 0), q)


def test_decode_distance_bound():
    code = construct_dpl4(3, 12)
    table = build_decoder_table(code)
    rng = random.Random(9)
    r = code.anticode.r
    for _ in range(200):
        w = tuple(rng.randrange(-40, 41) for _ in range(3))
        res = decode(table, w)
        assert lee_distance(w, res.tile_vector) <= 2 * r  # within the tile
        assert lee_distance(w, res.codeword) <= 2 * r + 1


def test_decode_modular_equals_reduced_decode():
    rng = random.Random(5)
    for code, q in [(construct_dpl4(3, 12), 12), (construct_dpl4(3, 12), 36),
                    (construct_dpl4(6, 24), 24), (construct_pl1(3), 7)]:
        table = build_decoder_table(code)
        for _ in range(100):
            a = tuple(rng.randrange(-60, 61) for _ in range(code.n))
            want = tuple(x % q for x in decode(table, a).codeword)
            assert decode_modular(table, a, q) == want


def test_replaced_code_rederives_the_table():
    table = build_decoder_table(construct_dpl4(3, 12))
    other = build_decoder_table(construct_dpl4(6, 24))
    moved = DecoderTable(other.code)
    assert moved.inverse == other.inverse
    assert moved.period == other.period == 24
    a = (5, -3, 7, 0, 2, 11)
    assert decode(moved, a) == decode(other, a)


def test_table_rejects_phi_colliding_on_the_anticode():
    code = construct_pl1(2)
    # phi(e_1) = phi(e_2) = 1 in Z_5 sends e_1 and e_2 to one element
    bad = LinearLeeCode(code.anticode, Homomorphism(code.hom.group, ((1,), (1,))), code.basis,
                        code.q, code.blocks)
    with pytest.raises(ConstructionError):
        DecoderTable(bad)


def test_load_and_table_invert_the_anticode_once(monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args)
        return real(*args)

    real = tiling.inverse_on
    for name, module in list(sys.modules.items()):
        if name.startswith("leecodes") and hasattr(module, "inverse_on"):
            monkeypatch.setattr(module, "inverse_on", counted)
    text = code_to_json(construct_dpl4(6, 24))
    assert not calls
    table = build_decoder_table(code_from_json(text))
    assert len(calls) == 1
    assert table.inverse is table.code.inverse


# every admissible DPL(n,4,q) with n <= 40 and every PL(n,1) with n <= 20
DECODE_CODES = [("dpl4", n, q) for n in range(1, 41) for q in range(4, 4 * n + 1, 4)
                if is_admissible_q(n, q)] + [("pl1", n, None) for n in range(1, 21)]


@cache
def _table_and_anticode(kind, n, q):
    code = construct_dpl4(n, q) if kind == "dpl4" else construct_pl1(n)
    return build_decoder_table(code), frozenset(code.anticode.points())


@st.composite
def codes_and_words(draw):
    kind, n, q = draw(st.sampled_from(DECODE_CODES))
    word = tuple(draw(st.lists(st.integers(-200, 200), min_size=n, max_size=n)))
    return _table_and_anticode(kind, n, q), word


@settings(max_examples=400, deadline=None)
@given(codes_and_words())
def test_decode_contract(case):
    (table, anticode), a = case
    code = table.code
    res = decode(table, a)
    l = res.tile_vector
    assert apply_hom(code.hom, l) == code.hom.group.identity
    assert tuple(x - y for x, y in zip(a, l)) in anticode
    assert res.codeword == apply_transversal(code, l)
