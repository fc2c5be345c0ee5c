"""Command-line front-end with stable machine-readable output.

Exit codes: 0 success/verified, 1 verified negative (NotFound,
inadmissible, verification failed), 2 budget exceeded, 64 usage error
(an argument value out of range, such as a --budget below 1, a decode
word of the wrong length, a --mod the code's period does not divide or
a verify --window too small to hold two codewords), 65 data-format
error, 70 internal error (any other exception, such as MemoryError or
a broken library invariant, in one line with no traceback), 130
interrupted (Ctrl-C); run alone maps errors to them.
"""

from __future__ import annotations

import argparse
import json
import sys
from math import log10

from . import codes, decoder, groups, lee, nonregular, tiling
from .errors import (DataFormatError, DimensionError, DomainError, LeeCodeError,
                     PeriodicityError, WindowError)

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_BUDGET = 2
EXIT_USAGE = 64
EXIT_DATA = 65
EXIT_SOFTWARE = 70  # EX_SOFTWARE of BSD sysexits.h
EXIT_INTERRUPTED = 130  # 128 + SIGINT, as a shell reports it

# largest --order factored: trial division of a prime just below it
# takes about 0.1 s in CPython 3.11, of one near 10^18 minutes
MAX_GROUP_ORDER = 10 ** 12

# largest box a --window may ask for: (2(R + d) + 1)^n points for
# verify, d the anticode's diameter, (2R + 1)^n for tile and
# (2(R + 4) + 1)^3 for nonregular; also the largest n^2 basis entries
# pl1 and construct --n may emit.  Kernel points are enumerated at a
# cost proportional to their number, about box / |G|, but verify's
# cover marks up to box points, tile prints box / |G| of them and
# nonregular keeps about (2R + 4)(2R + 3)^2 / 12 centers: at the bound
# verify DPL(6,12) takes 0.3 s, tile 1.3 s, nonregular 0.8 s (764452
# centers at R = 103) and pl1 --n 3162 5.7 s and 250 MB in CPython 3.11
# on a 2-vCPU VM
MAX_WINDOW_POINTS = 10 ** 7


class UsageError(Exception):
    """An argument value refused before any work; run prints it and exits 64."""


def _emit(args, human, payload):
    if args.json:
        print(json.dumps(payload, separators=(",", ":")))
    else:
        print(human)


def _load_code(path):
    with open(path) as fh:
        return codes.code_from_json(fh.read())


def _load_tile(path):
    """The words of a tile file, one per line; DataFormatError unless they
    are a nonempty set of words of one length."""
    with open(path) as fh:
        text = fh.read()
    try:
        V = lee.parse_words(text)
    except LeeCodeError as exc:
        raise DataFormatError(f"{path}: {exc}") from exc
    if not V:
        raise DataFormatError(f"{path}: no words")
    if len(set(V)) != len(V):
        raise DataFormatError(f"{path}: duplicate words; a tile is a set")
    return V


def _write_out(path, text):
    with open(path, "w") as fh:
        fh.write(text + "\n")


def _emit_code(args, code, name):
    if args.out:
        _write_out(args.out, codes.code_to_json(code))
    _emit(args, f"constructed {name} code, group {list(code.hom.group.factors)}",
          codes.code_to_dict(code))
    return EXIT_OK


def cmd_construct(args):
    _check_basis(args.n)
    try:
        code = codes.construct_dpl4(args.n, args.q)
    except DomainError as exc:
        _emit(args, f"inadmissible: {exc}", {"error": str(exc)})
        return EXIT_NEGATIVE
    return _emit_code(args, code, f"DPL({args.n},4)")


def cmd_pl1(args):
    _check_basis(args.n)
    return _emit_code(args, codes.construct_pl1(args.n), f"PL({args.n},1)")


def cmd_admissible(args):
    ok = codes.is_admissible_q(args.n, args.q)
    _emit(args, "admissible" if ok else "inadmissible",
          {"n": args.n, "q": args.q, "admissible": ok})
    return EXIT_OK if ok else EXIT_NEGATIVE


def cmd_search(args):
    V = _load_tile(args.anticode)
    result = tiling.search_lattice_tiling(V, budget=args.budget)
    cert = result.certificate()
    if result.status == tiling.FOUND:
        _emit(args, f"Found: group {cert['group']} images {cert['images']}", cert)
        return EXIT_OK
    if result.status == tiling.NOT_FOUND:
        _emit(args, f"NotFound: groups_tried={result.groups_tried} "
                    f"assignments_tried={result.assignments_tried}", cert)
        return EXIT_NEGATIVE
    _emit(args, f"BudgetExceeded: nodes={result.nodes}", cert)
    return EXIT_BUDGET


def cmd_groups(args):
    if args.order > MAX_GROUP_ORDER:
        raise UsageError(f"--order above {MAX_GROUP_ORDER} is not supported")
    gs = groups.enumerate_abelian_groups(args.order)
    payload = [list(G.factors) for G in gs]
    _emit(args, "\n".join(str(list(G.factors)) for G in gs), payload)
    return EXIT_OK


def _check_size(what, side, n, unit):
    """UsageError, with the estimate, if side^n exceeds MAX_WINDOW_POINTS."""
    if side ** n > MAX_WINDOW_POINTS:
        raise UsageError(f"{what} {side}^{n} (about 10^{int(n * log10(side))}) "
                         f"{unit}, more than {MAX_WINDOW_POINTS}")


def _check_window(window, reach, n):
    """The scan box of side 2 * (window + reach) + 1 in n dimensions."""
    _check_size(f"--window {window} scans", 2 * (window + reach) + 1, n, "points")


def _check_basis(n):
    """The n x n basis that pl1 and construct emit."""
    _check_size(f"--n {n} emits", n, 2, "basis entries")


def cmd_verify(args):
    code = _load_code(args.code)
    # the diameter is the anticode's largest coordinate spread
    _check_window(args.window, code.anticode.diameter, code.n)
    # the load proved phi bijective on the anticode
    cover = tiling.verify_window_tiling(code.hom, code.anticode.points(), args.window)
    d = code.anticode.diameter + 1
    mind = codes.min_distance_window(code, args.window) if cover else None
    ok = cover and mind is not None and mind >= d
    _emit(args,
          f"bijection=True window_cover={cover} min_distance={mind} "
          f"required>={d} -> {'verified' if ok else 'FAILED'}",
          {"bijection": True, "window_cover": cover, "min_distance": mind,
           "required": d, "verified": ok})
    return EXIT_OK if ok else EXIT_NEGATIVE


def cmd_decode(args):
    code = _load_code(args.code)
    table = decoder.build_decoder_table(code)
    if args.mod is not None:
        cw = decoder.decode_modular(table, args.word, args.mod)
        _emit(args, lee.format_word(cw), {"codeword": list(cw), "q": args.mod})
    else:
        res = decoder.decode(table, args.word)
        _emit(args, lee.format_word(res.codeword),
              {"codeword": list(res.codeword),
               "tile_vector": list(res.tile_vector)})
    return EXIT_OK


def cmd_nonregular(args):
    low = 6 * len(args.bits) + 6
    if any(b not in "01" for b in args.bits) or args.window < low:
        raise UsageError(f"--bits must be 0s and 1s and --window >= {low}")
    # the kernel walk covers one x_1-period; the bound limits the centers
    # kept and printed, in [-R - 2, R + 1] x [-R - 1, R + 1]^2; reach 4
    # keeps 103 the largest window accepted
    _check_window(args.window, 4, 3)
    t = nonregular.shifted_tiling_n3(args.bits, args.window)
    # to_json is the --json payload, written with no list per center
    text = t.to_json() if args.out or args.json else None
    if args.out:
        _write_out(args.out, text)
    print(text if args.json else f"shifted tiling bits={args.bits} R={args.window} "
                                 f"centers={len(t.centers)}")
    return EXIT_OK


def cmd_tile(args):
    code = _load_code(args.code)
    _check_window(args.window, 0, code.n)
    pts = tiling.kernel_points_in_box(code.hom, args.window)
    payload = {"window": args.window, "centers": [list(p) for p in pts]}
    _emit(args, lee.format_words(pts), payload)
    return EXIT_OK


def _budget(text):
    """A node budget: an integer >= 1, also written like 1e6."""
    try:
        k = int(float(text))
    except (ValueError, OverflowError):
        raise argparse.ArgumentTypeError(f"invalid budget {text!r}") from None
    if k < 1:
        raise argparse.ArgumentTypeError(f"budget must be >= 1, got {text!r}")
    return k


def _at_least(text, least):
    try:
        k = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid integer {text!r}") from None
    if k < least:
        raise argparse.ArgumentTypeError(f"must be >= {least}, got {k}")
    return k


def _positive(text):
    """An integer >= 1: a window radius R, a decode modulus, a dimension n
    or a group order."""
    return _at_least(text, 1)


def _modulus(text):
    """An integer >= 2: the q of a code over Z_q^n."""
    return _at_least(text, 2)


def _word(text):
    """A word written as comma-separated integers."""
    try:
        return lee.parse_word(text)
    except LeeCodeError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def build_parser():
    p = argparse.ArgumentParser(prog="leecodes",
                                description="diameter-perfect Lee codes")
    sub = p.add_subparsers(dest="command", required=True)

    def add(name, fn, **kwargs):
        sp = sub.add_parser(name, **kwargs)
        sp.set_defaults(fn=fn)
        sp.add_argument("--json", action="store_true",
                        help="emit the canonical JSON payload")
        return sp

    sp = add("construct", cmd_construct, help="build a DPL(n,4,q) code")
    sp.add_argument("--n", type=_positive, required=True)
    sp.add_argument("--q", type=_modulus, required=True)
    sp.add_argument("--out")

    sp = add("pl1", cmd_pl1, help="build the classical PL(n,1) code")
    sp.add_argument("--n", type=_positive, required=True)
    sp.add_argument("--out")

    sp = add("admissible", cmd_admissible, help="test modulus admissibility")
    sp.add_argument("--n", type=_positive, required=True)
    sp.add_argument("--q", type=_modulus, required=True)

    sp = add("search", cmd_search, help="search for a lattice tiling by a tile file")
    sp.add_argument("--anticode", required=True)
    sp.add_argument("--budget", type=_budget, default=tiling.DEFAULT_BUDGET)

    sp = add("groups", cmd_groups, help="enumerate Abelian groups of an order")
    sp.add_argument("--order", type=_positive, required=True)

    sp = add("verify", cmd_verify, help="verify a code file on a window")
    sp.add_argument("--code", required=True)
    sp.add_argument("--window", type=_positive, required=True)

    sp = add("decode", cmd_decode, help="decode a word with a code file")
    sp.add_argument("--code", required=True)
    sp.add_argument("--word", type=_word, required=True)
    sp.add_argument("--mod", type=_positive)

    sp = add("nonregular", cmd_nonregular, help="n=3 shifted window tiling")
    sp.add_argument("--bits", required=True)
    sp.add_argument("--window", type=int, required=True)
    sp.add_argument("--out")

    sp = add("tile", cmd_tile, help="kernel tile centers of a code in a window")
    sp.add_argument("--code", required=True)
    sp.add_argument("--window", type=_positive, required=True)

    return p


def run(argv):
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.fn(args)
    except UsageError as exc:
        print(exc, file=sys.stderr)
        return EXIT_USAGE
    except DataFormatError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (DimensionError, PeriodicityError, WindowError) as exc:
        # files are checked on load, so only decode's --word (its length),
        # decode's --mod (a q the period does not divide) or verify's
        # --window (too small to hold two codewords) can raise these
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (OSError, UnicodeDecodeError) as exc:
        # a file that cannot be read as text, or an --out that cannot be written
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return EXIT_INTERRUPTED
    except Exception as exc:
        # a fault of the program or the machine, such as MemoryError, or a
        # broken library invariant (ConstructionError, StructuralError): one
        # line, with a code that no result shares; the repr keeps it one line
        print(f"internal error: {exc!r}", file=sys.stderr)
        return EXIT_SOFTWARE


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
