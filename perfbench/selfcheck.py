"""Quick self-check: every workload's checks on reduced inputs, then on
answers corrupted on purpose, which each check must reject.

Usage (from the checkout root): python3 perfbench/run.py --self-check
Exit code 0 when every reduced workload passes its checks and every
corrupted answer is caught; 1 otherwise.  Takes about ten seconds.
"""

from __future__ import annotations

import json
from types import SimpleNamespace

import checks
from probe import Probe
import run
import tracing
from workloads import WORKLOADS, Ops, descriptor_path


def reduced_workloads(lc):
    """One pass of each workload on reduced inputs (two for certify)."""
    problems = []
    for name, cls in WORKLOADS.items():
        workload = cls(seed=1, quick=True)
        ops = Ops(Probe(), cls.in_process)
        workload.prepare_checks(ops)
        workload.setup(lc)
        try:
            for _ in range(2 if name == "certify" else 1):
                workload.run_pass(ops, None)
        finally:
            workload.close()
        if ops.failed or ops.wrong or not ops.attempted:
            problems.append(f"{name}: {ops.failed} failed, wrong: {ops.wrong[:3]}")
        print(f"self-check {name}: {ops.attempted} operations checked")
    return problems


def traced_pass():
    """A traced reduced decode pass yields per-call decode spans."""
    tracer = tracing.Tracer()
    workload = WORKLOADS["decode"](seed=1, quick=True)
    ops = Ops(Probe())
    workload.prepare_checks(ops)
    workload.setup(run.import_leecodes(tracer))
    tracer.phase = 0
    workload.run_pass(ops, tracer)
    m = tracing.layer_metrics(tracer, import_ms=1.0, scale=1.0)
    ok = m["decoder.decode_us.n24"]["value"] > 0 and m["codes.load_ms"]["value"] > 0
    return [] if ok and not ops.wrong else ["traced decode pass recorded no decode spans"]


def shift(v, i=0, by=1):
    return tuple(x + by if j == i else x for j, x in enumerate(v))


def corrupted_answers(lc):
    """(label, check, args): each must raise CheckError."""
    cases = []
    # decode: a channel word of the stored n = 24 code
    d24 = json.loads(descriptor_path(24, 12).read_text())
    hom24 = checks.Hom.from_descriptor(d24)
    table = lc.decoder.build_decoder_table(lc.codes.code_from_dict(d24))
    l = tuple(3 * a - 2 * b for a, b in zip(d24["basis"][5], d24["basis"][9]))
    word = checks.add(l, (0, 1) + (0,) * 22)
    res = lc.decoder.decode(table, word)
    flip = shift(res.codeword) if res.codeword == res.tile_vector else tuple(res.tile_vector)
    cases += [
        ("decode: tile vector shifted by e1, channel word",
         checks.check_decode, (hom24, word, shift(res.tile_vector), res.codeword, l)),
        ("decode: tile vector shifted by e1, uniform word",
         checks.check_decode, (hom24, word, shift(res.tile_vector), res.codeword, None)),
        ("decode: tile vector moved by a kernel row",
         checks.check_decode, (hom24, word, checks.add(l, d24["basis"][3]), res.codeword, None)),
        ("decode: odd member of the centre pair",
         checks.check_decode, (hom24, word, res.tile_vector, flip, l)),
        ("decode_modular: one coordinate off",
         checks.check_modular, (shift(tuple(x % 12 for x in res.codeword), 2), l, 12)),
    ]
    # certify: DPL(3,12)
    code = lc.codes.construct_dpl4(3, 12)
    own = checks.Hom(code.hom.group.factors, code.hom.images)
    basis = lc.tiling.kernel_basis(code.hom)
    pts = lc.tiling.kernel_points_in_box(code.hom, 3)
    words = lc.codes.codewords_mod_q(lc.codes.restrict_to_zq(code, 12))
    t0 = lc.nonregular.shifted_tiling_n3("0", 12)
    cw = lc.nonregular.code_from_window_tiling(t0)
    inner = [c for c in cw if all(abs(x) <= 4 for x in c)][0]
    near_o = min(t0.centers, key=checks.lee_weight)
    dc = lc.nonregular.construct_double_cross_hom(3)
    bad_dc = SimpleNamespace(group=dc.group, half_image=dc.half_image,
                             images=(dc.images[0], dc.images[0], dc.images[2]))
    cases += [
        ("kernel_basis: row 1 shifted by e1",
         checks.check_kernel_basis, (own, (shift(basis.rows[0]),) + basis.rows[1:], 12)),
        ("kernel_basis: a kernel vector that is not a basis",
         checks.check_kernel_basis, (own, (tuple(2 * x for x in basis.rows[0]),)
                                     + basis.rows[1:], 12)),
        ("kernel_points_in_box: one point missing",
         checks.check_kernel_points, (own, 3, pts[1:])),
        ("kernel_points_in_box: a point off the lattice",
         checks.check_kernel_points, (own, 3, [shift(pts[0])] + pts[1:])),
        ("codewords_mod_q: one word missing",
         checks.check_codewords_mod_q, (own, 12, True, words[1:])),
        ("codewords_mod_q: a word shifted by e2",
         checks.check_codewords_mod_q, (own, 12, True, [shift(words[0], 1)] + words[1:])),
        ("shifted code: a codeword at distance 2",
         checks.check_min_distance, (cw + [shift(shift(inner), 1)], 4, 4)),
        ("verify_cover: the centre nearest O missing",
         checks.check_cover, ([c for c in t0.centers if c != near_o],
                              checks.double_sphere1(3), 12)),
        ("shifted tilings: two bit strings, one centre set",
         checks.check_distinct, ([t0.centers, t0.centers],)),
        ("double cross: two equal images",
         checks.check_double_cross, (bad_dc, 3)),
    ]
    # search: ds(2,1)
    tile = checks.tile_points("double", 2, 1)
    found = lc.tiling.search_lattice_tiling(tile)
    images = found.hom.images
    cases += [
        ("search: two tile points with one image",
         checks.check_found, (found.hom.group.factors, (images[0], images[0]), tile)),
        ("search: group of the wrong order",
         checks.check_found, ((2, 2), images, tile)),
        ("search: a NotFound tile reported found",
         checks.check_status, ("found", "not_found")),
    ]
    # cli payloads
    d = lc.codes.code_to_dict(lc.codes.construct_dpl4(4, 8))
    bad = dict(d, images=d["images"][1:2] + d["images"][1:])
    groups72 = [list(G.factors) for G in lc.groups.enumerate_abelian_groups(72)]
    cases += [
        ("construct: first image copied from the second", checks.check_descriptor, (bad,)),
        ("verify: min distance 3 reported",
         checks.check_verify_payload, ({"bijection": True, "window_cover": True,
                                        "verified": True, "min_distance": 3}, 4)),
        ("admissible: inverted answer", checks.check_admissible, (12, 32, True)),
        ("groups: one group missing", checks.check_groups, (72, groups72[1:])),
        ("groups: one group listed twice",
         checks.check_groups, (72, groups72[:-1] + groups72[:1])),
    ]
    missed = []
    for label, check, args in cases:
        try:
            check(*args)
        except checks.CheckError:
            continue
        missed.append(f"corrupted answer passed: {label}")
    print(f"self-check: {len(cases) - len(missed)} of {len(cases)} corrupted answers rejected")
    return missed


def benchmark_json(root):
    """BENCHMARK.json names exactly the metrics run.py and tracing.py print."""
    path = root / "BENCHMARK.json"
    if not path.is_file():
        return []
    spec = json.loads(path.read_text())
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    want_layer = {name: unit for name, (unit, *_rest) in tracing.METRICS.items()}
    problems = []
    if e2e != run.END_TO_END:
        problems.append("BENCHMARK.json end_to_end differs from run.END_TO_END")
    if layer != want_layer:
        problems.append("BENCHMARK.json per_layer differs from tracing.METRICS")
    if sorted(w["name"] for w in spec["workloads"]) != sorted(WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from workloads.WORKLOADS")
    return problems


def main(root):
    lc = run.import_leecodes(None)
    problems = (benchmark_json(root) + reduced_workloads(lc) + traced_pass()
                + corrupted_answers(lc))
    for p in problems:
        print(f"self-check FAILED: {p}")
    if not problems:
        print("self-check passed")
    return 1 if problems else 0
