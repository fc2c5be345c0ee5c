import random
from dataclasses import replace
from itertools import product

import pytest

from leecodes import (
    build_decoder_table,
    construct_dpl4,
    construct_pl1,
    decode,
    decode_modular,
    lee_distance,
    lex_rank,
)
from leecodes.errors import (
    ConstructionError,
    DimensionError,
    DomainError,
    PeriodicityError,
)
from leecodes.tiling import apply_hom


def test_table_inverts_restriction():
    for code in [construct_pl1(2), construct_dpl4(2, 4), construct_dpl4(3, 12)]:
        table = build_decoder_table(code)
        G = code.hom.group
        assert len(table.entries) == G.order
        for w in code.anticode.points():
            g = apply_hom(code.hom, w)
            assert table.entries[lex_rank(g, G) - 1] == w


def test_table_slot_examples():
    table = build_decoder_table(construct_pl1(2))
    assert table.entries[0] == (0, 0)  # identity slot holds the origin
    table = build_decoder_table(construct_dpl4(3, 12))
    # phi(e_3) = 5, so the rank-6 slot holds e_3
    assert table.entries[5] == (0, 0, 1)


def test_table_dump_format():
    table = build_decoder_table(construct_pl1(2))
    lines = table.dump().splitlines()
    assert len(lines) == 5
    assert lines[0] == "1: 0,0"


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


def test_decode_rejects_swapped_table_entries():
    code = construct_dpl4(3, 12)
    table = build_decoder_table(code)
    entries = list(table.entries)
    entries[1], entries[5] = entries[5], entries[1]
    bad = replace(table, entries=tuple(entries))
    # words whose phi lands on one of the two swapped slots read a wrong entry
    swapped = {apply_hom(code.hom, entries[1]), apply_hom(code.hom, entries[5])}
    rejected = 0
    for a in product(range(-3, 4), repeat=3):
        if apply_hom(code.hom, a) in swapped:
            with pytest.raises(ConstructionError):
                decode(bad, a)
            rejected += 1
        else:
            assert decode(bad, a) == decode(table, a)
    assert rejected > 0
