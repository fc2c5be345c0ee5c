"""The four workloads: inputs from a seed, set-up, one timed pass, checks.

Every workload runs whole passes of a fixed make-up, so the number of
operations per pass never depends on the seed or on the machine.  The
seed draws the values inside a pass (words and their order, bit strings,
moduli), never how much work a pass holds.  Only the program
call of an operation is timed; word generation and checks are not.
"""

from __future__ import annotations

import bisect
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from array import array
from collections import deque
from pathlib import Path

import checks
from checks import require
from probe import MIN_PROBES, NOMINAL_PROBE_NS

HERE = Path(__file__).resolve().parent
DATA = HERE / "data"
CLIRUN = HERE / "clirun.py"
PROCESS_TIMEOUT_S = 120


class Failed(Exception):
    """A program call raised or a process exited with a non-zero code."""


class Ops:
    """Times program calls and collects failures and wrong answers.

    `in_process` says whether the calls run in this process.  Then the
    probe time spent during a call is taken out of it and the call is
    converted with this process's probe.  Otherwise each call starts a
    child process, which probes itself, and returns (result, probe ns
    spent in the child, median probe ns in the child, or None).

    What is kept per operation is one nominal time of 8 bytes, so the
    runner's memory hardly grows with the number of operations a run
    makes: an in-process call waits in `pending` only until MIN_PROBES
    probes have followed it, and is then converted exactly as it would
    be at the end of the run.
    """

    def __init__(self, probe, in_process=True):
        self.probe = probe
        self.in_process = in_process
        self.times = array("d")  # nominal ns of every successful operation
        self.pass_ns = array("d")  # nominal ns per pass, by pass number
        self.raw_pass_ns = array("d")  # the same, raw
        self.pending = deque()  # (raw ns, pass number, start ns, end ns)
        self.child_probes = array("d")  # median probe ns of each child process
        self.pass_no = 0
        self.attempted = 0
        self.failed = 0
        self.wrong = []

    def call(self, fn, *args):
        self.attempted += 1
        spent = self.probe.spent
        start = time.perf_counter_ns()
        try:
            result = fn(*args)
        except Exception as exc:  # a failing operation is counted, not fatal
            self.failed += 1
            print(f"failed: {getattr(fn, '__name__', fn)}: {exc!r}", file=sys.stderr)
            raise Failed from exc
        end = time.perf_counter_ns()
        if self.in_process:
            self.pending.append((end - start - (self.probe.spent - spent), self.pass_no,
                                 start, end))
            return result
        result, spent, probe_ns = result
        raw = end - start - spent
        if probe_ns:
            self.child_probes.append(probe_ns)
            self._add(raw, self.pass_no, raw * NOMINAL_PROBE_NS / probe_ns)
        else:
            self.pending.append((raw, self.pass_no, start, end))
        return result

    def _add(self, raw, pass_no, nominal):
        while len(self.pass_ns) <= pass_no:
            self.pass_ns.append(0.0)
            self.raw_pass_ns.append(0.0)
        self.times.append(nominal)
        self.pass_ns[pass_no] += nominal
        self.raw_pass_ns[pass_no] += raw

    def flush(self, final=False):
        """Convert the pending calls that have MIN_PROBES probes after them
        (every pending call if `final`)."""
        at = self.probe.at
        while self.pending:
            raw, pass_no, start, end = self.pending[0]
            if not final and len(at) - bisect.bisect_right(at, end) < MIN_PROBES:
                break
            self.pending.popleft()
            self._add(raw, pass_no, self.probe.nominal(raw, start, end))

    def pass_times(self, raw=False):
        """Time of every pass that had a successful operation."""
        return [t for t in (self.raw_pass_ns if raw else self.pass_ns) if t]

    def scale(self):
        """Run-wide raw-to-nominal factor, from the probes that timed the calls."""
        if self.in_process or not self.child_probes:
            return self.probe.scale()
        return NOMINAL_PROBE_NS / statistics.median(self.child_probes)

    def check(self, fn, *args):
        try:
            fn(*args)
        except (checks.CheckError, KeyError, TypeError, ValueError) as exc:
            if len(self.wrong) < 20:
                print(f"wrong: {exc}", file=sys.stderr)
            self.wrong.append(str(exc))


class Once:
    """Check an answer independently the first time, then by equality."""

    def __init__(self, ops):
        self.ops = ops
        self.seen = {}

    def __call__(self, key, result, check, *args):
        if key not in self.seen:
            self.ops.check(check, *args)
            self.seen[key] = result
        else:
            self.ops.check(require, result == self.seen[key], f"{key} changed between passes")


def _tag(tracer, tag):
    if tracer is not None:
        tracer.tag = tag


def _count(tracer, name, value):
    if tracer is not None:
        tracer.count(name, value)


# --- decode ---------------------------------------------------------------

DECODE_CODES = ((24, 12), (60, 60), (100, 20), (255, 1020), (256, 4))
QUICK_DECODE_CODES = ((24, 12), (60, 60))
ROUND = ("channel", "channel", "uniform", "modular")  # per code, per pass
UNIFORM_BOUND = 1000
COEFF_BOUND = 2


def descriptor_path(n, q):
    return DATA / f"dpl4_n{n}_q{q}.json"


class Decode:
    name = "decode"
    in_process = True

    def __init__(self, seed, quick=False):
        self.rng = random.Random(seed)
        self.codes = []
        for n, q in QUICK_DECODE_CODES if quick else DECODE_CODES:
            text = descriptor_path(n, q).read_text()
            d = json.loads(text)
            rows = [[(i, x) for i, x in enumerate(row) if x] for row in d["basis"]]
            self.codes.append({"n": n, "q": q, "tag": f"n{n}", "text": text,
                               "hom": checks.Hom.from_descriptor(d), "rows": rows,
                               "tile": checks.double_sphere1(n)})

    def prepare_checks(self, ops):
        # channel words are sums of basis rows: prove once that each row is in ker(phi)
        for c in self.codes:
            dense = [[0] * c["n"] for _ in c["rows"]]
            for row, sparse in zip(dense, c["rows"]):
                for i, x in sparse:
                    row[i] = x
            ops.check(require, all(c["hom"].in_kernel(r) for r in dense),
                      f"stored basis of n={c['n']} leaves ker(phi)")

    def setup(self, lc):
        self.lc = lc
        for c in self.codes:
            code = lc.codes.code_from_json(c["text"])
            c["table"] = lc.decoder.build_decoder_table(code)

    def word(self, c, kind):
        rng, n = self.rng, c["n"]
        if kind == "uniform":
            return tuple(rng.randint(-UNIFORM_BOUND, UNIFORM_BOUND) for _ in range(n)), None
        l = [0] * n
        for sparse in c["rows"]:
            k = rng.randint(-COEFF_BOUND, COEFF_BOUND)
            if k:
                for i, x in sparse:
                    l[i] += k * x
        word = checks.add(l, rng.choice(c["tile"]))
        if kind == "modular":
            word = tuple(x % c["q"] for x in word)
        return word, tuple(l)

    def run_pass(self, ops, tracer):
        dec = self.lc.decoder
        items = [(c, kind) for c in self.codes for kind in ROUND]
        self.rng.shuffle(items)
        for c, kind in items:
            word, l = self.word(c, kind)
            _tag(tracer, c["tag"])
            try:
                if kind == "modular":
                    res = ops.call(dec.decode_modular, c["table"], word, c["q"])
                    ops.check(checks.check_modular, res, l, c["q"])
                else:
                    res = ops.call(dec.decode, c["table"], word)
                    ops.check(checks.check_decode, c["hom"], word, res.tile_vector,
                              res.codeword, l)
            except Failed:
                pass

    def close(self):
        pass


# --- certify --------------------------------------------------------------

# kind, n, q, verify-window R, kernel box bound, min-distance window R,
# modulus for codewords_mod_q (None: skipped, q^n is too large)
CERTIFY = (
    ("dpl4", 3, 12, 3, 4, 3, 12),
    ("dpl4", 4, 4, 2, 4, 3, None),
    ("dpl4", 4, 8, 2, 4, 3, 8),
    ("dpl4", 4, 16, 2, 4, 3, None),
    ("dpl4", 5, 20, 1, 3, 2, None),
    ("pl1", 2, 5, 3, 4, 3, 5),
    ("pl1", 3, 7, 3, 4, 3, 7),
    ("pl1", 4, 9, 2, 4, 3, 9),
    ("pl1", 5, 11, 1, 3, 2, None),
)
QUICK_CERTIFY = CERTIFY[:1] + CERTIFY[5:7]
SHIFT_BITS_LEN = 2  # window R = 6 * len + 6 is the least the family allows
SHIFT_STRINGS = 3
DOUBLE_CROSS_N = (3, 5, 6, 7, 12, 24, 96, 192)
QUICK_DOUBLE_CROSS_N = (3, 5)


class Certify:
    name = "certify"
    in_process = True

    def __init__(self, seed, quick=False):
        rng = random.Random(seed)
        self.table = QUICK_CERTIFY if quick else CERTIFY
        self.dc_n = QUICK_DOUBLE_CROSS_N if quick else DOUBLE_CROSS_N
        length = 1 if quick else SHIFT_BITS_LEN
        strings = [format(i, f"0{length}b") for i in range(2 ** length)]
        self.bits = rng.sample(strings, min(SHIFT_STRINGS, len(strings)))
        self.R = 6 * length + 6

    def prepare_checks(self, ops):
        self.once = Once(ops)

    def setup(self, lc):
        self.lc = lc
        self.codes = []
        for kind, n, q, *rest in self.table:
            if kind == "dpl4":
                code = lc.codes.construct_dpl4(n, q)
            else:
                code = lc.codes.construct_pl1(n)
            zq = lc.codes.restrict_to_zq(code, rest[3]) if rest[3] else None
            own = checks.Hom(code.hom.group.factors, code.hom.images)
            self.codes.append((kind, n, q, rest, code, code.anticode.points(), zq, own))

    def run_pass(self, ops, tracer):
        lc, once = self.lc, self.once
        for kind, n, q, (R, bound, md_R, mod), code, V, zq, own in self.codes:
            key = (kind, n, q)
            try:
                ok = ops.call(lc.tiling.verify_window_tiling, code.hom, V, R)
                once(key + ("cover",), ok, require, ok is True, f"{key} window cover failed")
                basis = ops.call(lc.tiling.kernel_basis, code.hom)
                once(key + ("basis",), basis, checks.check_kernel_basis, own, basis.rows,
                     basis.det_abs)
                pts = ops.call(lc.tiling.kernel_points_in_box, code.hom, bound)
                _count(tracer, "tiling.kernel_points", len(pts))
                once(key + ("points",), pts, checks.check_kernel_points, own, bound, pts)
                want = 4 if kind == "dpl4" else 3
                d = ops.call(lc.codes.min_distance_window, code, md_R)
                once(key + ("distance",), d, require, d == want,
                     f"{key} min distance {d}, expected {want}")
                if zq is not None:
                    words = ops.call(lc.codes.codewords_mod_q, zq)
                    _count(tracer, "codes.codewords_mod_q_words", len(words))
                    once(key + ("mod_q",), words, checks.check_codewords_mod_q, own, mod,
                         kind == "dpl4", words)
            except Failed:
                pass
        self.shifted_pass(ops, tracer)
        for n in self.dc_n:
            try:
                hom = ops.call(lc.nonregular.construct_double_cross_hom, n)
                ok = ops.call(lc.nonregular.verify_nonregular, hom, n)
                once(("double_cross", n), (hom, ok), checks.check_double_cross, hom, n)
                once(("nonregular", n), ok, require, ok is True, f"n={n} not certified")
            except Failed:
                pass

    def shifted_pass(self, ops, tracer):
        lc, once = self.lc, self.once
        centre_sets = []
        for bits in self.bits:
            try:
                t = ops.call(lc.nonregular.shifted_tiling_n3, bits, self.R)
                _count(tracer, "nonregular.centers", len(t.centers))
                centre_sets.append(t.centers)
                ok = ops.call(lc.nonregular.verify_cover, t)
                once(("cover", bits), (t.centers, ok), require, ok is True,
                     f"bits {bits}: window cover failed")
                words = ops.call(lc.nonregular.code_from_window_tiling, t)
                once(("shifted_code", bits), words, checks.check_min_distance, words,
                     self.R - 4, 4)
            except Failed:
                pass
        ops.check(checks.check_distinct, centre_sets)

    def close(self):
        pass


# --- search ---------------------------------------------------------------

# tag, function of leecodes.lee that makes the tile, n, r, expected status
TILES = (
    ("ds1_1", "double_sphere", 1, 1, "found"),
    ("ds2_1", "double_sphere", 2, 1, "found"),
    ("ds3_1", "double_sphere", 3, 1, "found"),
    ("ds4_1", "double_sphere", 4, 1, "found"),
    ("ds5_1", "double_sphere", 5, 1, "found"),
    ("ds3_2", "double_sphere", 3, 2, "found"),
    ("s3_2", "lee_sphere", 3, 2, "not_found"),
)
QUICK_TILES = TILES[:3] + TILES[-1:]


class Search:
    name = "search"
    in_process = True

    def __init__(self, seed, quick=False):
        # the tiles are fixed, and so is their order: a search's time depends
        # on what the one before it left in memory, so a seed-shuffled order
        # spread the median operation by 20 %
        self.tiles = QUICK_TILES if quick else TILES

    def prepare_checks(self, ops):
        self.own = {tag: checks.tile_points("sphere" if make == "lee_sphere" else "double", n, r)
                    for tag, make, n, r, _ in self.tiles}

    def setup(self, lc):
        self.lc = lc

    def run_pass(self, ops, tracer):
        lee, tiling = self.lc.lee, self.lc.tiling
        for tag, make, n, r, want in self.tiles:
            _tag(tracer, tag)
            try:
                res, V = ops.call(self.settle, getattr(lee, make), tiling, n, r)
            except Failed:
                continue
            _count(tracer, "tiling.search_nodes", res.nodes)
            _count(tracer, "tiling.search_groups_tried", res.groups_tried)
            own = self.own[tag]
            ops.check(require, sorted(map(tuple, V)) == own, f"{tag}: tile differs")
            ops.check(checks.check_status, res.status, want)
            if res.status == "found":
                ops.check(checks.check_found, res.hom.group.factors, res.hom.images, own)

    @staticmethod
    def settle(build, tiling, n, r):
        V = build(n, r)
        return tiling.search_lattice_tiling(V), V

    def close(self):
        pass


# --- cli ------------------------------------------------------------------

CLI_N = 4
CLI_Q = (4, 8, 16)  # every admissible q for n = 4
CLI_WINDOW = 2
CLI_SEARCH_TILE = (3, 1)  # ds(3,1)
CLI_NONREGULAR_BITS = 2
GROUP_ORDERS = (72, 96, 144, 240, 360, 432, 480, 720, 864, 1296)
OUT = ".perfbench_out"


def cli_command(root, args, tracer=None, phase=None, exit_codes=(0,)):
    """One cold `leecodes` process, which must exit with one of `exit_codes`.

    Returns ((stdout, exit code), probe ns spent in the child, median
    probe ns in the child or None): the child may run on another core
    than this process, so only its own probe tells how fast it ran.
    """
    env = dict(os.environ)
    probe_file = root / OUT / f"probe-{os.getpid()}.json"
    env["PERFBENCH_PROBE"] = str(probe_file)
    trace_file = None
    if tracer is not None:
        trace_file = root / OUT / f"spans-{os.getpid()}.json"
        env["PERFBENCH_SPANS"] = str(trace_file)
    start = time.perf_counter_ns()
    proc = subprocess.run([sys.executable, str(CLIRUN), *args], cwd=root, env=env,
                          capture_output=True, text=True, timeout=PROCESS_TIMEOUT_S)
    end = time.perf_counter_ns()
    probed = json.loads(probe_file.read_text()) if probe_file.exists() else {}
    probe_file.unlink(missing_ok=True)
    if tracer is not None:
        parent = tracer.span(f"process.{args[0]}", start, end, phase)
        if trace_file.exists():
            tracer.adopt(json.loads(trace_file.read_text()), parent, phase)
            trace_file.unlink()
    if proc.returncode not in exit_codes:
        raise RuntimeError(f"leecodes {' '.join(args)} exited {proc.returncode}: "
                           f"{proc.stderr.strip()[-300:]}")
    return (proc.stdout, proc.returncode), probed.get("spent", 0), probed.get("median")


class Cli:
    name = "cli"
    in_process = False

    def __init__(self, seed, quick=False):
        self.rng = random.Random(seed)
        self.q = self.rng.choice(CLI_Q)

    def prepare_checks(self, ops):
        self.centres = {}
        self.tile = checks.tile_points("double", *CLI_SEARCH_TILE)

    def setup(self, lc):
        # a cold process pays for import every time; set-up writes the
        # search tile and starts one process so the file cache is warm
        self.root = lc.root
        self.tracer = lc.tracer
        self.work = lc.root / OUT / f"cli-{os.getpid()}"
        self.work.mkdir(parents=True, exist_ok=True)
        tile = checks.tile_points("double", *CLI_SEARCH_TILE)
        (self.work / "tile.txt").write_text(
            "\n".join(",".join(map(str, w)) for w in tile) + "\n")
        cli_command(self.root, ["groups", "--order", "2", "--json"])

    def run(self, ops, phase, *args, exit_codes=(0,)):
        """Payload of one process, with its exit code if `exit_codes` has more than one."""
        proc = lambda: cli_command(self.root, [*args, "--json"], self.tracer, phase,  # noqa: E731
                                   exit_codes)
        proc.__name__ = f"leecodes {args[0]}"
        out, code = ops.call(proc)
        try:
            payload = json.loads(out)
        except ValueError:
            ops.check(require, False, f"leecodes {args[0]} printed no JSON: {out[:80]!r}")
            raise Failed from None
        return (payload, code) if len(exit_codes) > 1 else payload

    def run_pass(self, ops, tracer):
        rng, q, work = self.rng, self.q, self.work
        phase = tracer.phase if tracer is not None else None
        code_file = str(work / "code.json")
        try:
            d = self.run(ops, phase, "construct", "--n", str(CLI_N), "--q", str(q),
                         "--out", code_file)
            ops.check(require, json.loads(Path(code_file).read_text()) == d,
                      "stored descriptor differs from the printed one")
            hom = checks.Hom.from_descriptor(d)
            ops.check(checks.check_descriptor, d)
            dense = [tuple(r) for r in d["basis"]]
            l = [0] * CLI_N
            for row in dense:
                k = rng.randint(-COEFF_BOUND, COEFF_BOUND)
                l = [a + k * b for a, b in zip(l, row)]
            word = checks.add(l, rng.choice(checks.double_sphere1(CLI_N)))
            # --word=... because argparse reads a leading "-1,..." as an option
            p = self.run(ops, phase, "decode", "--code", code_file,
                         "--word=" + ",".join(map(str, word)))
            ops.check(checks.check_decode, hom, word, p["tile_vector"], p["codeword"], l)
            mword = [x % q for x in word]
            p = self.run(ops, phase, "decode", "--code", code_file,
                         "--word=" + ",".join(map(str, mword)), "--mod", str(q))
            ops.check(checks.check_modular, p["codeword"], l, q)
            p = self.run(ops, phase, "verify", "--code", code_file, "--window",
                         str(CLI_WINDOW))
            ops.check(checks.check_verify_payload, p, 4)
        except Failed:
            pass
        self.small_commands(ops, phase)

    def small_commands(self, ops, phase):
        rng = self.rng
        try:
            p = self.run(ops, phase, "search", "--anticode", str(self.work / "tile.txt"))
            ops.check(checks.check_status, p.get("status"), "found")
            ops.check(checks.check_found, p["group"], p["images"], self.tile)
        except Failed:
            pass
        bits = "".join(rng.choice("01") for _ in range(CLI_NONREGULAR_BITS))
        R = 6 * CLI_NONREGULAR_BITS + 6
        try:
            p = self.run(ops, phase, "nonregular", "--bits", bits, "--window", str(R))
            centres = frozenset(map(tuple, p["centers"]))
            ops.check(checks.check_cover, list(centres), checks.double_sphere1(3), R)
            self.centres.setdefault(bits, centres)
            ops.check(require, self.centres[bits] == centres, f"bits {bits}: centres changed")
            ops.check(checks.check_distinct, list(self.centres.values()))
        except Failed:
            pass
        # admissible or not: the command answers "no" with exit code 1
        n = rng.randint(1, 200)
        q = rng.randrange(4, 4 * n + 1, 4)
        try:
            p, code = self.run(ops, phase, "admissible", "--n", str(n), "--q", str(q),
                               exit_codes=(0, 1))
            ops.check(checks.check_admissible, n, q, p["admissible"])
            ops.check(require, code == (0 if p["admissible"] else 1),
                      f"admissible {n} {q}: answered {p['admissible']} with exit code {code}")
        except Failed:
            pass
        order = rng.choice(GROUP_ORDERS)
        try:
            p = self.run(ops, phase, "groups", "--order", str(order))
            ops.check(checks.check_groups, order, p)
        except Failed:
            pass

    def close(self):
        shutil.rmtree(self.work, ignore_errors=True)


WORKLOADS = {w.name: w for w in (Decode, Certify, Search, Cli)}
