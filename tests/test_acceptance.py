"""Acceptance gate: one pass/fail line per criterion.

Run with `pytest -s tests/test_acceptance.py` to see the lines as they
print; each test also asserts, so a FAIL shows up as a normal pytest
failure.
"""

import random
import time
from itertools import product
from math import prod

from sympy import factorint

from leecodes import (
    FiniteAbelianGroup,
    Homomorphism,
    build_decoder_table,
    code_from_window_tiling,
    component_index_n3,
    construct_double_cross_hom,
    construct_dpl4,
    construct_pl1,
    decode,
    decode_modular,
    double_sphere_size,
    half_kernel_basis,
    is_admissible_q,
    is_bijection_on,
    lee_sphere,
    lee_weight,
    lex_rank,
    min_distance_window,
    period,
    restrict_to_zq,
    search_lattice_tiling,
    shifted_tiling_n3,
    verify_cover,
    verify_nonregular,
    verify_window_tiling,
)
from leecodes.nonregular import K2
from leecodes.tiling import NOT_FOUND, apply_hom


def odd_radical(n):
    """The product of the odd primes of n, from sympy's factorization."""
    return prod(p for p in factorint(n) if p != 2)


def report(k, ok, desc):
    print(f"ACCEPTANCE {k}: {'PASS' if ok else 'FAIL'} - {desc}")
    assert ok, f"acceptance criterion {k} failed: {desc}"


def test_acceptance_01_volume_formula():
    t0 = time.perf_counter()
    ok = True
    for n in range(1, 5):
        for r in range(4):
            brute = {
                w
                for w in product(range(-r - 1, r + 2), repeat=n)
                if lee_weight(w) <= r
                or lee_weight((w[0] - 1,) + w[1:]) <= r
            }
            ok = ok and double_sphere_size(n, r) == len(brute)
    elapsed = time.perf_counter() - t0
    report(1, ok and elapsed < 1.0,
           f"closed-form double-sphere volume matches brute force, n<=4 r<=3 "
           f"({elapsed:.2f}s)")


def test_acceptance_02_cross_tiling():
    t0 = time.perf_counter()
    hom = Homomorphism(FiniteAbelianGroup((5,)), ((1,), (2,)))
    V = lee_sphere(2, 1)
    ok = is_bijection_on(hom, V) and verify_window_tiling(hom, V, 6)
    elapsed = time.perf_counter() - t0
    report(2, ok and elapsed < 1.0,
           f"Z_5 cross map is bijective and tiles the R=6 window ({elapsed:.2f}s)")


def test_acceptance_03_exhaustive_negative():
    t0 = time.perf_counter()
    V = [(0, 0), (1, 0), (2, 0), (0, 1), (1, -1)]
    res = search_lattice_tiling(V)
    fails = {images for _g, images in res.failures}
    ok = (
        res.status == NOT_FOUND
        and res.groups_tried == 1
        and ((1,), (3,)) in fails
        and ((1,), (4,)) in fails
    )
    elapsed = time.perf_counter() - t0
    report(3, ok and elapsed < 1.0,
           f"5-point tile search exhausts Z_5 and reports NotFound ({elapsed:.2f}s)")


def test_acceptance_04_admissible_moduli():
    def closed_form(n, q):
        fac = factorint(n)
        alpha = fac.pop(2, 0)
        m, b = q, 0
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

    ok = all(
        is_admissible_q(n, q) == closed_form(n, q)
        for n in range(1, 13)
        for q in range(2, 65)
    )
    for n in (3, 5, 6, 9, 10, 12):
        p = odd_radical(n)
        minimal = next(q for q in range(2, 8 * n + 1) if is_admissible_q(n, q))
        ok = ok and minimal == 4 * p
    report(4, ok, "modulus admissibility table and minimal q = 4p")


def test_acceptance_05_construction_suite():
    t0 = time.perf_counter()
    ok = True
    for n, q in [(2, 4), (2, 8), (3, 12), (4, 16), (5, 20), (6, 12), (6, 24),
                 (9, 12)]:
        code = construct_dpl4(n, q)
        ok = ok and is_bijection_on(code.hom, code.anticode.points())
        ok = ok and period(code.hom) == q
        ok = ok and code.basis.det_abs == 4 * n
        ok = ok and all(lee_weight(r) % 2 == 0 for r in code.basis.rows)
        ok = ok and sum(length for _b, _s, length in code.blocks) == n
    elapsed = time.perf_counter() - t0
    report(5, ok and elapsed < 5.0,
           f"diameter-4 builder invariants on 8 (n,q) pairs ({elapsed:.2f}s)")


def test_acceptance_06_min_distance():
    ok = (
        min_distance_window(construct_dpl4(3, 12), 24) == 4
        and min_distance_window(construct_dpl4(2, 8), 24) == 4
        and min_distance_window(construct_pl1(2), 10) == 3
    )
    report(6, ok, "window minimum distances 4 / 4 / 3")


def test_acceptance_07_decoder_exhaustive():
    t0 = time.perf_counter()
    q = 12
    code = restrict_to_zq(construct_dpl4(3, q), q)
    table = build_decoder_table(code)
    identity = code.hom.group.identity
    kernel_res = [
        x for x in product(range(q), repeat=3)
        if apply_hom(code.hom, x) == identity
    ]
    # nearest-tile oracle: stamp each residue tile over Z_q^3
    tile = code.anticode.points()
    owner = {}
    for l in kernel_res:
        if lee_weight(l, q) % 2 == 0:
            cw = l
        else:
            cw = ((l[0] + 1) % q,) + l[1:]
        for v in tile:
            p = tuple((a + b) % q for a, b in zip(l, v))
            owner.setdefault(p, []).append(cw)
    ok = len(kernel_res) == 144
    ok = ok and len(owner) == q ** 3 and all(len(v) == 1 for v in owner.values())
    codewords = {v[0] for v in owner.values()}
    ok = ok and len(codewords) == 144
    for p in product(range(q), repeat=3):
        cw = decode_modular(table, p, q)
        ok = ok and cw == owner[p][0]
        ok = ok and cw in codewords
        d = sum(min((a - b) % q, (b - a) % q) for a, b in zip(p, cw))
        ok = ok and d <= 2
        if not ok:
            break
    elapsed = time.perf_counter() - t0
    report(7, ok and elapsed < 10.0,
           f"exhaustive Z_12^3 decode matches the stamping oracle ({elapsed:.2f}s)")


def test_acceptance_08_decoder_scaling():
    import gc

    rng = random.Random(0)
    cases = []
    for n in (128, 256, 512, 1024):
        q = 4 * odd_radical(n)
        table = build_decoder_table(construct_dpl4(n, q))
        words = [tuple(rng.randrange(-1000, 1000) for _ in range(n))
                 for _ in range(30)]
        for w in words:  # warm-up
            decode(table, w)
        cases.append((table, words))
    # one batch per n in each round, the first n rotating, and each n's
    # best batch: a scheduler stall spoils a batch, not a whole n
    best = [float("inf")] * len(cases)
    gc.disable()
    try:
        for r in range(20):
            for k in range(len(cases)):
                i = (r + k) % len(cases)
                table, words = cases[i]
                t0 = time.perf_counter_ns()
                for w in words:
                    decode(table, w)
                best[i] = min(best[i], (time.perf_counter_ns() - t0) / len(words))
    finally:
        gc.enable()
    ratios = [b / a for a, b in zip(best, best[1:])]
    ok = all(1.5 <= r <= 3.0 for r in ratios)
    report(8, ok,
           "decode time per doubling scales linearly, ratios "
           + ", ".join(f"{r:.2f}" for r in ratios))


def test_acceptance_09_double_cross_suite():
    ok = True
    for n in range(2, 31):
        if n & (n - 1) == 0:
            continue
        ok = ok and verify_nonregular(construct_double_cross_hom(n), n)
    kb = half_kernel_basis()
    ok = ok and kb.det_abs == 12
    ok = ok and kb.rows == ((-1, 3, 0), (0, 24, 0), (0, 13, -1))
    report(9, ok, "double-cross maps verified for all non-power-of-2 n <= 30; "
                  "n=3 kernel basis |det| = 12")


def test_acceptance_10_shifted_family():
    t0 = time.perf_counter()
    R = 24
    margin = 4
    sphere3 = [w for w in lee_sphere(3, 3) if any(w)]
    weight4 = [
        w for w in lee_sphere(3, 4) if lee_weight(w) == 4
    ]
    ok = True
    center_sets = set()
    witness_found = False
    for bits in ["".join(p) for p in product("01", repeat=3)]:
        t = shifted_tiling_n3(bits, R)
        ok = ok and verify_cover(t)
        ok = ok and all(isinstance(x, int) for c in t.centers for x in c)
        center_sets.add(t.centers)
        cws = code_from_window_tiling(t)
        cwset = set(cws)
        inner = [c for c in cws if all(abs(x) <= R - margin for x in c)]
        # min distance >= 4: no other codeword within Lee distance 3
        for u in inner:
            for v in sphere3:
                if (u[0] + v[0], u[1] + v[1], u[2] + v[2]) in cwset:
                    ok = False
        # and exactly 4: some pair at distance 4
        hit = any(
            (u[0] + v[0], u[1] + v[1], u[2] + v[2]) in cwset
            for u in inner for v in weight4
        )
        ok = ok and hit
        if not witness_found:
            deep = [c for c in cws if all(abs(x) <= 8 for x in c)]
            for i, u in enumerate(deep):
                for v in deep[i + 1:]:
                    d = (u[0] - v[0], u[1] - v[1], u[2] - v[2])
                    if all(abs(x) <= R - margin for x in d) and d not in cwset:
                        witness_found = True
                        break
                if witness_found:
                    break
    ok = ok and len(center_sets) == 8 and witness_found
    elapsed = time.perf_counter() - t0
    report(10, ok and elapsed < 30.0,
           f"8 shifted window tilings: exact covers, distinct, distance 4, "
           f"non-lattice witness ({elapsed:.2f}s)")


def test_acceptance_11_property_suites():
    ok = True
    # tiling period equals the minimal kernel period
    for p in range(2, 65):
        G = FiniteAbelianGroup((p,))
        hom = Homomorphism(G, ((1,), (p // 2 or 1,)))
        per = period(hom)
        identity = G.identity
        for m in range(1, 2 * per + 1):
            in_kernel = (apply_hom(hom, (m, 0)) == identity
                         and apply_hom(hom, (0, m)) == identity)
            ok = ok and in_kernel == (m % per == 0)
    # lexicographic rank is a bijection onto 1..|G|
    for factors in [(9973,), (16, 625), (10, 10, 10, 10)]:
        G = FiniteAbelianGroup(factors)
        ranks = {lex_rank(a, G) for a in G.elements()}
        ok = ok and ranks == set(range(1, G.order + 1))
    # mod-6 component rule equals flood-fill connectivity
    R = 30
    k2 = {
        (x2, x3)
        for x2 in range(-R, R + 1)
        for x3 in range(-R, R + 1)
        if component_index_n3((0, x2, x3))[0] == K2
    }
    todo = set(k2)
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
    for comp in comps:
        ms = {component_index_n3((0,) + c)[1] for c in comp}
        ok = ok and len(ms) == 1
    ms_all = [component_index_n3((0,) + next(iter(c)))[1] for c in comps]
    ok = ok and len(ms_all) == len(set(ms_all))
    report(11, ok, "period minimality, rank bijectivity, component rule vs "
                   "flood fill")
