import copy
import json
import os
import random
import subprocess
import sys
import time
from math import isqrt, prod
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from leecodes import (cli, code_from_json, code_to_json, codes, construct_dpl4,
                      construct_pl1, is_admissible_q, restrict_to_zq, tiling)
from leecodes.cli import (
    EXIT_BUDGET,
    EXIT_DATA,
    EXIT_INTERRUPTED,
    EXIT_NEGATIVE,
    EXIT_OK,
    EXIT_SOFTWARE,
    EXIT_USAGE,
    MAX_GROUP_ORDER,
    run,
)
from leecodes.errors import ConstructionError, DataFormatError, StructuralError
from leecodes.lee import double_sphere, format_words, lee_sphere, nonzeros
from leecodes.tiling import abs_det

SRC = str(Path(__file__).resolve().parents[1] / "src")


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    return env


@pytest.fixture
def code_file(tmp_path):
    path = tmp_path / "code.json"
    assert run(["construct", "--n", "3", "--q", "12", "--out", str(path)]) == EXIT_OK
    return str(path)


def test_construct_ok(capsys, tmp_path):
    path = tmp_path / "c.json"
    rc = run(["construct", "--n", "2", "--q", "8", "--json", "--out", str(path)])
    assert rc == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload == json.loads(code_to_json(construct_dpl4(2, 8)))
    assert json.loads(path.read_text()) == payload


def test_construct_inadmissible(capsys):
    assert run(["construct", "--n", "3", "--q", "8"]) == EXIT_NEGATIVE
    assert "inadmissible" in capsys.readouterr().out


def test_pl1(capsys):
    assert run(["pl1", "--n", "2", "--json"]) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["group"] == [5]
    assert payload["images"] == [[1], [2]]


def test_admissible_exit_codes(capsys):
    assert run(["admissible", "--n", "3", "--q", "12"]) == EXIT_OK
    assert run(["admissible", "--n", "3", "--q", "8"]) == EXIT_NEGATIVE
    out = capsys.readouterr().out
    assert "admissible" in out and "inadmissible" in out


def test_groups(capsys):
    assert run(["groups", "--order", "8", "--json"]) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload == [[2, 2, 2], [4, 2], [8]] or len(payload) == 3


def test_search_found(tmp_path, capsys):
    path = tmp_path / "cross.txt"
    path.write_text(format_words(lee_sphere(2, 1)) + "\n")
    assert run(["search", "--anticode", str(path), "--json"]) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["status"] == "found"
    assert payload["group"] == [5]


def test_search_not_found(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_text("0,0\n1,0\n2,0\n0,1\n1,-1\n")
    assert run(["search", "--anticode", str(path), "--json"]) == EXIT_NEGATIVE
    payload = json.loads(capsys.readouterr().out)
    assert payload["status"] == "not_found"
    assert payload["groups_tried"] == 1


def test_search_on_a_tile_deeper_than_the_recursion_limit(tmp_path, capsys):
    # {0, e_1} of Z^1100: one search depth per coordinate
    n = 1100
    path = tmp_path / "edge.txt"
    path.write_text(format_words([(0,) * n, (1,) + (0,) * (n - 1)]) + "\n")
    assert run(["search", "--anticode", str(path), "--json"]) == EXIT_OK
    out, err = capsys.readouterr()
    assert json.loads(out) == {"status": "found", "group": [2],
                               "images": [[1]] + [[0]] * (n - 1)}
    assert "Traceback" not in err


def test_search_budget(tmp_path, capsys):
    path = tmp_path / "v.txt"
    from leecodes import double_sphere
    path.write_text(format_words(double_sphere(3, 1, 1)) + "\n")
    assert run(["search", "--anticode", str(path), "--budget", "3"]) == EXIT_BUDGET


def test_verify(code_file, capsys):
    assert run(["verify", "--code", code_file, "--window", "10"]) == EXIT_OK
    assert "verified" in capsys.readouterr().out
    # the bijection is the one the load proved
    assert run(["verify", "--code", code_file, "--window", "4", "--json"]) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["bijection"] is True and payload["verified"] is True


def test_decode(code_file, capsys):
    assert run(["decode", "--code", code_file, "--word", "5,4,0", "--json"]) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert "codeword" in payload and "tile_vector" in payload
    assert run(["decode", "--code", code_file, "--word", "5,4,0",
                "--mod", "12"]) == EXIT_OK
    assert run(["decode", "--code", code_file, "--word=-1,2,0"]) == EXIT_OK


def test_decode_nonpositive_modulus_is_usage_error(code_file, capsys):
    for q in ("0", "-12", "abc", "1.5"):
        assert run(["decode", "--code", code_file, "--word", "5,4,0",
                    "--mod=" + q]) == EXIT_USAGE, q
    err = capsys.readouterr().err
    assert "Traceback" not in err and "must be >= 1" in err


def test_tile(code_file, capsys):
    assert run(["tile", "--code", code_file, "--window", "6", "--json"]) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert [0, 0, 0] in payload["centers"]


def test_nonregular(tmp_path, capsys):
    out = tmp_path / "t.json"
    rc = run(["nonregular", "--bits", "101", "--window", "24",
              "--out", str(out), "--json"])
    assert rc == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["bits"] == "101"
    assert json.loads(out.read_text()) == payload
    assert run(["nonregular", "--n", "4", "--bits", "1", "--window", "24"]) \
        == EXIT_USAGE


def test_nonregular_window_bound(monkeypatch, capsys):
    # the scan box (2 * (R + 4) + 1)^3 is refused before any enumeration
    def enumerate_anyway(bits, R):
        raise AssertionError(f"shifted_tiling_n3 called with R = {R}")

    with monkeypatch.context() as m:
        m.setattr(cli.nonregular, "shifted_tiling_n3", enumerate_anyway)
        assert run(["nonregular", "--bits", "101", "--window", "400"]) == EXIT_USAGE
    assert "809^3" in capsys.readouterr().err
    assert run(["nonregular", "--bits", "101", "--window", "24"]) == EXIT_OK


def test_nonregular_largest_window(monkeypatch, capsys):
    # 103 is the largest window whose scan box (2 * (R + 4) + 1)^3 is at
    # most MAX_WINDOW_POINTS; 104 is refused before any enumeration
    def enumerate_anyway(bits, R):
        raise AssertionError(f"shifted_tiling_n3 called with R = {R}")

    with monkeypatch.context() as m:
        m.setattr(cli.nonregular, "shifted_tiling_n3", enumerate_anyway)
        assert run(["nonregular", "--bits", "", "--window", "104"]) == EXIT_USAGE
    assert "217^3" in capsys.readouterr().err
    assert run(["nonregular", "--bits", "", "--window", "103"]) == EXIT_OK
    assert "centers=764452" in capsys.readouterr().out


def test_nonregular_bad_arguments_are_usage_errors(monkeypatch, capsys):
    # bits that are not 0/1 and windows below 6 * len(bits) + 6 are refused
    # before any enumeration
    def enumerate_anyway(bits, R):
        raise AssertionError(f"shifted_tiling_n3 called with {bits!r}, R = {R}")

    with monkeypatch.context() as m:
        m.setattr(cli.nonregular, "shifted_tiling_n3", enumerate_anyway)
        for bits, window in [("2", "24"), ("10x", "30"), ("101", "23"),
                             ("101", "0"), ("101", "-5"), ("", "5"), ("1", "-12")]:
            assert run(["nonregular", "--bits", bits, "--window=" + window]) \
                == EXIT_USAGE, (bits, window)
    assert "--window >= 24" in capsys.readouterr().err
    assert run(["nonregular", "--bits", "101", "--window", "24"]) == EXIT_OK
    assert run(["nonregular", "--bits", "", "--window", "6"]) == EXIT_OK


def test_usage_errors():
    assert run([]) == EXIT_USAGE
    assert run(["no-such-command"]) == EXIT_USAGE
    assert run(["construct", "--n", "2"]) == EXIT_USAGE  # missing --q


def test_data_errors(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run(["verify", "--code", str(bad), "--window", "5"]) == EXIT_DATA
    assert run(["verify", "--code", str(tmp_path / "missing.json"),
                "--window", "5"]) == EXIT_DATA


def pl2_descriptor(r):
    """PL(2, r): the radius-r Lee sphere of Z^2 tiles through Z_m, m = 2r^2 + 2r + 1."""
    m = 2 * r * r + 2 * r + 1
    return {"n": 2, "anticode": {"kind": "sphere", "r": r, "axis": 1},
            "group": [m], "images": [[1], [2 * r + 1]], "transversal": "identity",
            "basis": [[m, 0], [-(2 * r + 1), 1]]}


def test_load_bounds_the_anticode_before_inverting_it(tmp_path, capsys, monkeypatch):
    path = tmp_path / "pl2.json"
    path.write_text(json.dumps(pl2_descriptor(3000)))  # |G| = 18006001
    for argv in (["decode", "--word", "1,2"], ["verify", "--window", "5"],
                 ["tile", "--window", "5"]):
        t0 = time.perf_counter()
        assert run(argv + ["--code", str(path)]) == EXIT_DATA, argv
        assert time.perf_counter() - t0 < 1.0, argv
        assert "18006001" in capsys.readouterr().err
    # the bound is inclusive: PL(2, 30) has |G| = 1861
    path.write_text(json.dumps(pl2_descriptor(30)))
    monkeypatch.setattr(codes, "MAX_ANTICODE_POINTS", 1861)
    assert run(["decode", "--code", str(path), "--word", "1,2"]) == EXIT_OK
    monkeypatch.setattr(codes, "MAX_ANTICODE_POINTS", 1860)
    assert run(["decode", "--code", str(path), "--word", "1,2"]) == EXIT_DATA


def test_anticode_bound_admits_every_emitted_and_stored_code():
    # construct --n N --q 4 emits the largest group, |G| = 4N, at the
    # largest N the basis bound lets through
    n = isqrt(cli.MAX_WINDOW_POINTS)
    assert 4 * n <= codes.MAX_ANTICODE_POINTS
    stored = sorted(Path(SRC).parent.glob("perfbench/data/*.json"))
    assert len(stored) == 5
    for path in stored:
        assert code_from_json(path.read_text()).hom.group.order <= codes.MAX_ANTICODE_POINTS


def dense_core_descriptor(n):
    """DPL(n,4) with its basis times a unit upper-triangular +-1 matrix:
    the same lattice in dense rows, which the sparse peel of abs_det
    cannot take apart."""
    d = json.loads(code_to_json(construct_dpl4(n, 4)))
    sparse = [nonzeros(row) for row in d["basis"]]
    rng = random.Random(n)
    for i, row in enumerate(d["basis"]):
        for j in range(i + 1, n):
            u = rng.choice((-1, 1))
            for c, x in sparse[j]:
                row[c] += u * x
    return d


def test_load_bounds_the_dense_core_of_the_determinant(tmp_path, capsys, monkeypatch):
    path = tmp_path / "dense.json"
    path.write_text(json.dumps(dense_core_descriptor(256)))
    t0 = time.perf_counter()
    assert run(["decode", "--code", str(path), "--word", ",".join(["1"] * 256)]) == EXIT_DATA
    assert time.perf_counter() - t0 < 1.0
    assert f"above {tiling.MAX_BAREISS_CORE} rows" in capsys.readouterr().err
    # below the bound the same kind of basis loads, as the same code
    d = dense_core_descriptor(16)
    code = code_from_json(json.dumps(d))
    assert code.basis.rows == tuple(map(tuple, d["basis"]))
    assert code.basis.det_abs == 64
    assert code.hom == construct_dpl4(16, 4).hom
    monkeypatch.setattr(tiling, "MAX_BAREISS_CORE", 0)
    with pytest.raises(DataFormatError):
        code_from_json(json.dumps(d))


def test_bareiss_bound_admits_every_emitted_and_stored_code(monkeypatch):
    # each of them peels completely, so a bound of 0 rows admits it
    emitted = [construct_pl1(n) for n in range(1, 41)]
    emitted += [construct_dpl4(n, q) for n in range(1, 41) for q in range(4, 4 * n + 1, 4)
                if is_admissible_q(n, q)]
    stored = sorted(Path(SRC).parent.glob("perfbench/data/*.json"))
    assert len(stored) == 5
    texts = [code_to_json(code) for code in emitted] + [p.read_text() for p in stored]
    monkeypatch.setattr(tiling, "MAX_BAREISS_CORE", 0)
    for text in texts:
        code = code_from_json(text)
        assert json.loads(code_to_json(code)) == json.loads(text)
        assert abs_det(code.basis.rows) == code.hom.group.order


def test_python_m_cli_runs_main(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "leecodes.cli", "construct", "--n", "3", "--q", "12",
         "--json"],
        capture_output=True, text=True, env=_env(), cwd=tmp_path,
    )
    assert proc.returncode == EXIT_OK, proc.stderr
    assert json.loads(proc.stdout) == json.loads(code_to_json(construct_dpl4(3, 12)))


# SHA-256 of the stdout of nonregular --bits 101 --window 103 --json
NONREGULAR_103_SHA256 = "46d6cdb580864f38ce2819fc99ba352a37eca6d06320adc708b6eb0668d2de7f"


def test_nonregular_json_at_the_largest_window_builds_no_list_per_center(tmp_path):
    # the payload writes the 764452 centers as the tuple they are: the
    # same 9457121 bytes of output, in about 90 MB, where a list per
    # center took the process to 165 MB.  A child of its own runs the
    # CLI, so RUSAGE_CHILDREN reads that process alone; ru_maxrss is in
    # kilobytes on Linux
    script = ("import hashlib, resource, subprocess, sys\n"
              "out = subprocess.run(sys.argv[1:], capture_output=True, check=True).stdout\n"
              "print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss, len(out),"
              " hashlib.sha256(out).hexdigest())\n")
    proc = subprocess.run(
        [sys.executable, "-c", script, sys.executable, "-m", "leecodes.cli", "nonregular",
         "--bits", "101", "--window", "103", "--json"],
        capture_output=True, text=True, env=_env(), cwd=tmp_path, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    maxrss_kb, size, digest = proc.stdout.split()
    assert (int(size), digest) == (9457121, NONREGULAR_103_SHA256)
    assert int(maxrss_kb) < 120 * 1024


@pytest.mark.parametrize("exc", [MemoryError(), RuntimeError("injected fault"),
                                 StructuralError("shifted center (1/2,0,0) is not integral"),
                                 ConstructionError("basis row (1, 0, 0) not in kernel")])
def test_unexpected_error_exits_70_in_one_line(monkeypatch, capsys, exc):
    # exit 1 is a verified negative, so a fault must not read as one, nor
    # must a broken library invariant that no accepted input reaches
    def fail(*args):
        raise exc

    monkeypatch.setattr(cli.nonregular, "shifted_tiling_n3", fail)
    assert run(["nonregular", "--bits", "01", "--window", "18"]) == EXIT_SOFTWARE
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err == f"internal error: {exc!r}\n"


def test_interrupt_exits_130_without_traceback(monkeypatch, capsys):
    def interrupt(*args):
        raise KeyboardInterrupt

    monkeypatch.setattr(cli.groups, "enumerate_abelian_groups", interrupt)
    assert run(["groups", "--order", "8"]) == EXIT_INTERRUPTED
    assert capsys.readouterr().err == "interrupted\n"


@pytest.mark.parametrize("exc", ["MemoryError()", "RuntimeError('injected fault')"])
def test_python_m_cli_exits_70_in_one_line(tmp_path, exc):
    # a sitecustomize module, imported at start-up, makes the library call
    # raise before python -m leecodes.cli runs
    (tmp_path / "sitecustomize.py").write_text(
        "import leecodes.groups\n\n\n"
        "def fail(*args):\n"
        f"    raise {exc}\n\n\n"
        "leecodes.groups.enumerate_abelian_groups = fail\n")
    env = _env()
    env["PYTHONPATH"] = str(tmp_path) + os.pathsep + env["PYTHONPATH"]
    proc = subprocess.run([sys.executable, "-m", "leecodes.cli", "groups", "--order", "8"],
                          capture_output=True, text=True, env=env, cwd=tmp_path)
    assert proc.returncode == EXIT_SOFTWARE, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stderr == f"internal error: {exc}\n"
    assert proc.stdout == ""


def test_import_loads_no_sympy(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, leecodes, leecodes.cli; print('sympy' in sys.modules)"],
        capture_output=True, text=True, env=_env(), cwd=tmp_path,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_cli_import_loads_no_dataclasses(tmp_path):
    # dataclasses and the inspect module it imports made up about a third
    # of the CLI's cold import time; the value classes do without them.
    # Only what the import adds counts, not what start-up hooks loaded
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys; before = set(sys.modules); import leecodes.cli; "
         "print(sorted({'dataclasses', 'inspect'} & (sys.modules.keys() - before)))"],
        capture_output=True, text=True, env=_env(), cwd=tmp_path,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_search_bad_budget_is_usage_error(tmp_path):
    path = tmp_path / "cross.txt"
    path.write_text(format_words(lee_sphere(2, 1)) + "\n")
    for budget in ("abc", "inf", "nan", ""):
        assert run(["search", "--anticode", str(path), "--budget", budget]) == EXIT_USAGE
    assert run(["search", "--anticode", str(path), "--budget", "1e3"]) == EXIT_OK


def test_search_budget_below_one_is_usage_error(tmp_path, capsys):
    path = tmp_path / "cross.txt"
    path.write_text(format_words(lee_sphere(2, 1)) + "\n")
    for budget in ("0", "-1", "0.5"):
        assert run(["search", "--anticode", str(path), f"--budget={budget}"]) == EXIT_USAGE
        assert "budget must be >= 1" in capsys.readouterr().err
    assert run(["search", "--anticode", str(path), "--budget", "1"]) == EXIT_BUDGET


def test_verify_window_too_small_is_usage_error(code_file, capsys):
    # DPL(3,12) holds only the origin inside [-1,1]^3
    assert run(["verify", "--code", code_file, "--window", "1"]) == EXIT_USAGE
    assert "fewer than 2 codewords" in capsys.readouterr().err
    assert run(["verify", "--code", code_file, "--window", "2"]) == EXIT_OK


def test_verify_non_lattice_code(tmp_path, capsys):
    # kernel rows (0, 3, 0) and (2, 2, 1) have odd Lee weight
    path = tmp_path / "nonlattice.json"
    path.write_text(json.dumps({
        "n": 3, "anticode": {"kind": "double-sphere", "r": 1, "axis": 1},
        "group": [4, 3], "images": [[1, 0], [0, 1], [2, 1]],
        "transversal": "even-weight", "basis": [[4, 0, 0], [0, 3, 0], [2, 2, 1]],
    }))
    assert run(["verify", "--code", str(path), "--window", "3", "--json"]) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["min_distance"] == 4 and payload["verified"]


def test_groups_order_cap(capsys):
    assert run(["groups", "--order", str(MAX_GROUP_ORDER + 1)]) == EXIT_USAGE
    assert run(["groups", "--order", str(MAX_GROUP_ORDER), "--json"]) == EXIT_OK
    assert len(json.loads(capsys.readouterr().out)) == 77 * 77  # 2^12 * 5^12


def test_argument_values_are_usage_errors(code_file, capsys):
    for argv in (["pl1", "--n", "0"],
                 ["construct", "--n", "0", "--q", "4"],
                 ["groups", "--order", "0"],
                 ["admissible", "--n", "0", "--q", "4"],
                 ["decode", "--code", code_file, "--word", "abc"]):
        assert run(argv) == EXIT_USAGE, argv
    assert "Traceback" not in capsys.readouterr().err
    # a value the parser accepts and the construction refuses stays negative
    assert run(["construct", "--n", "3", "--q", "8"]) == EXIT_NEGATIVE


def test_modulus_below_two_is_usage_error(capsys):
    for argv in (["construct", "--n", "3", "--q", "0"],
                 ["construct", "--n", "3", "--q=-4"],
                 ["construct", "--n", "3", "--q", "1"],
                 ["construct", "--n", "3", "--q", "abc"],
                 ["admissible", "--n", "3", "--q", "0"],
                 ["admissible", "--n", "3", "--q", "1"]):
        assert run(argv) == EXIT_USAGE, argv
    err = capsys.readouterr().err
    assert "Traceback" not in err and "must be >= 2" in err
    assert run(["admissible", "--n", "3", "--q", "2"]) == EXIT_NEGATIVE
    assert run(["construct", "--n", "3", "--q", "8"]) == EXIT_NEGATIVE


def test_decode_word_of_wrong_length_is_usage_error(code_file, capsys):
    # code_file is DPL(3,12)
    assert run(["decode", "--code", code_file, "--word", "1,2"]) == EXIT_USAGE
    assert run(["decode", "--code", code_file, "--word", "1,2,3,4",
                "--mod", "12"]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert "Traceback" not in err and "word length 2 != 3" in err


def test_search_tile_with_zero_first_image(tmp_path, capsys):
    path = tmp_path / "v.txt"
    path.write_text("0,0\n1,1\n0,2\n")
    assert run(["search", "--anticode", str(path), "--json"]) == EXIT_OK
    assert json.loads(capsys.readouterr().out) == {
        "status": "found", "group": [3], "images": [[0], [1]]}


def test_basis_bound(monkeypatch, capsys):
    class Reached(Exception):
        pass

    def reached(*args):
        raise Reached

    # 3162^2 <= MAX_WINDOW_POINTS < 3163^2: refused before any work
    monkeypatch.setattr(cli.codes, "construct_pl1", reached)
    monkeypatch.setattr(cli.codes, "construct_dpl4", reached)
    for argv in (["pl1", "--n", "3163"], ["construct", "--n", "3163", "--q", "4"]):
        assert run(argv) == EXIT_USAGE, argv
        assert "3163^2" in capsys.readouterr().err
    for argv in (["pl1", "--n", "3162"], ["construct", "--n", "3162", "--q", "4"]):
        assert run(argv) == EXIT_SOFTWARE, argv
        assert "Reached()" in capsys.readouterr().err


@pytest.mark.parametrize("text", [
    "",  # no words
    "0,0\n1,0\n0\n",  # mixed length
    "0,0\n1,x\n",  # unparsable
    "0,0\n1,0\n-1,0\n0,1\n0,-1\n1,0\n",  # duplicate word
])
def test_search_tile_file_is_data(tmp_path, capsys, text):
    path = tmp_path / "tile.txt"
    path.write_text(text)
    assert run(["search", "--anticode", str(path)]) == EXIT_DATA
    assert "data error" in capsys.readouterr().err


def test_decode_rejects_modulus_the_period_does_not_divide(code_file):
    d = json.loads(open(code_file).read())
    d["q"] = 5
    with open(code_file, "w") as fh:
        json.dump(d, fh)
    assert run(["decode", "--code", code_file, "--word", "5,4,0"]) == EXIT_DATA


DPL3 = json.loads(code_to_json(restrict_to_zq(construct_dpl4(3, 12), 12)))
PL3 = json.loads(code_to_json(construct_pl1(3)))
BASES = {"dpl4": DPL3, "pl1": PL3}


_DROP = object()


def _edited(d, path, value=_DROP):
    """A deep copy of d with the field at path set to value, or dropped."""
    d = copy.deepcopy(d)
    node = d
    for key in path[:-1]:
        node = node[key]
    if value is _DROP:
        del node[path[-1]]
    else:
        node[path[-1]] = value
    return d


def _verify(tmp_path, d, window="2"):
    path = tmp_path / "edited.json"
    path.write_text(json.dumps(d))
    return run(["verify", "--code", str(path), "--window", window])


def _field_id(v):
    return ".".join(map(str, v)) if isinstance(v, tuple) else repr(v)[:20]


@pytest.mark.parametrize("base,path,value", [
    ("dpl4", ("group", 0), 12.5),
    ("dpl4", ("basis", 0, 0), 12.7),
    ("dpl4", ("n",), 3.0),
    ("dpl4", ("n",), True),
    ("dpl4", ("q",), "12"),
    ("dpl4", ("q",), None),
    ("dpl4", ("images", 0, 0), "1"),
    ("dpl4", ("anticode", "r"), 1.0),
    ("dpl4", ("anticode", "axis"), 9),
    ("dpl4", ("anticode", "axis"), True),
    ("pl1", ("anticode", "axis"), 0),
    ("pl1", ("anticode", "axis"), 4),
    ("dpl4", ("anticode", "kind"), "cube"),
    ("dpl4", ("anticode", "r"), 2),
    ("dpl4", ("anticode", "r"), 10 ** 12),
    ("dpl4", ("images",), [[1], [3]]),
    ("dpl4", ("images",), [[1, 0], [3, 0], [5, 0]]),
    ("dpl4", ("images", 0), [13]),
    ("dpl4", ("group",), [12, 1]),
    ("dpl4", ("anticode",), [1]),
    ("pl1", ("transversal",), "even-weight"),
    ("dpl4", ("transversal",), "identity"),
], ids=_field_id)
def test_verify_malformed_field_is_data_error(tmp_path, base, path, value):
    assert _verify(tmp_path, BASES[base]) == EXIT_OK
    assert _verify(tmp_path, _edited(BASES[base], path, value)) == EXIT_DATA


def test_window_bounds(code_file, tmp_path, capsys, monkeypatch):
    for argv in (["verify", "--code", code_file, "--window", "-1"],
                 ["verify", "--code", code_file, "--window", "0"],
                 ["tile", "--code", code_file, "--window", "-3"],
                 ["tile", "--code", code_file, "--window", "x"]):
        assert run(argv) == EXIT_USAGE
    big = tmp_path / "dpl8.json"
    big.write_text(code_to_json(construct_dpl4(8, 8)))
    capsys.readouterr()
    assert run(["verify", "--code", str(big), "--window", "2"]) == EXIT_USAGE
    assert "11^8" in capsys.readouterr().err
    assert run(["tile", "--code", str(big), "--window", "6"]) == EXIT_USAGE
    assert "13^8" in capsys.readouterr().err
    # DPL(3,12) at R = 2: verify scans (2 * (2 + 3) + 1)^3, tile (2 * 2 + 1)^3
    monkeypatch.setattr(cli, "MAX_WINDOW_POINTS", 11 ** 3)
    assert run(["verify", "--code", code_file, "--window", "2"]) == EXIT_OK
    assert run(["verify", "--code", code_file, "--window", "3"]) == EXIT_USAGE
    monkeypatch.setattr(cli, "MAX_WINDOW_POINTS", 5 ** 3 - 1)
    assert run(["tile", "--code", code_file, "--window", "2"]) == EXIT_USAGE
    assert run(["tile", "--code", code_file, "--window", "1"]) == EXIT_OK


def test_verify_bound_uses_the_anticode_spread(tmp_path, monkeypatch):
    # PL(2,1): the radius-1 sphere spreads 2 on every axis, so R = 2
    # scans (2 * (2 + 2) + 1)^2 points and R = 3 scans 11^2
    pl = tmp_path / "pl2.json"
    pl.write_text(code_to_json(construct_pl1(2)))
    monkeypatch.setattr(cli, "MAX_WINDOW_POINTS", 9 ** 2)
    assert run(["verify", "--code", str(pl), "--window", "2"]) == EXIT_OK
    assert run(["verify", "--code", str(pl), "--window", "3"]) == EXIT_USAGE


def test_verify_window_bound_comes_before_the_anticode(code_file, monkeypatch, capsys):
    # DPL(3,12) has diameter 3, so R = 200 scans (2 * (200 + 3) + 1)^3
    # points; the bound reads the diameter, not the enumerated anticode
    def enumerate_anyway(self):
        raise AssertionError("AnticodeSpec.points called")

    with monkeypatch.context() as m:
        m.setattr(codes.AnticodeSpec, "points", enumerate_anyway)
        assert run(["verify", "--code", code_file, "--window", "200"]) == EXIT_USAGE
    assert "407^3" in capsys.readouterr().err
    assert run(["verify", "--code", code_file, "--window", "2"]) == EXIT_OK


def _fields(node, path=()):
    """(path, value) of every field below node, depth first."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, value in items:
        yield path + (key,), value
        yield from _fields(value, path + (key,))


def _other_types(value):
    """JSON values of a type other than value's: a float for an int counts."""
    out = [None, "x", [], {}, True, 1.5]
    if isinstance(value, int):
        out += [float(value), str(value), [value]]
    if isinstance(value, list):
        out += [0, {"0": value}]
    return [v for v in out if type(v) is not type(value)]


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_mutated_descriptors_keep_the_exit_code_contract(tmp_path, data):
    base = data.draw(st.sampled_from([DPL3, PL3]))
    fields = list(_fields(base))
    kind = data.draw(st.sampled_from(["drop", "retype", "shorten", "revalue"]))
    if kind == "drop":
        path, _ = data.draw(st.sampled_from(
            [(p, v) for p, v in fields if isinstance(p[-1], str)]))
        d = _edited(base, path)
        # axis (1 when missing, as in both codes) and q are optional
        optional = path[-1] in ("axis", "q")
        allowed = {EXIT_OK, EXIT_NEGATIVE, EXIT_DATA} if optional else {EXIT_DATA}
    elif kind == "retype":
        path, value = data.draw(st.sampled_from(fields))
        d = _edited(base, path, data.draw(st.sampled_from(_other_types(value))))
        allowed = {EXIT_DATA}
    elif kind == "shorten":
        path, value = data.draw(st.sampled_from(
            [(p, v) for p, v in fields if isinstance(v, list) and v]))
        d = _edited(base, path, value[:-1])
        allowed = {EXIT_DATA}
    else:
        path, value = data.draw(st.sampled_from(
            [(p, v) for p, v in fields if isinstance(v, (int, str))]))
        if isinstance(value, str):
            new = st.sampled_from(["sphere", "double-sphere", "identity",
                                   "even-weight", "cube", ""])
        else:
            new = st.one_of(st.integers(-3, 30), st.integers(-10 ** 6, 10 ** 6),
                            st.just(2 ** 70))
        d = _edited(base, path, data.draw(new))
        allowed = {EXIT_OK, EXIT_NEGATIVE, EXIT_DATA}
    assert _verify(tmp_path, d) in allowed


def test_decode_modulus_the_period_does_not_divide_is_usage_error(code_file, capsys):
    # code_file is DPL(3,12), of period 12
    for q in ("9", "1"):
        assert run(["decode", "--code", code_file, "--word", "5,4,0",
                    "--mod", q]) == EXIT_USAGE, q
        err = capsys.readouterr().err
        assert "Traceback" not in err and f"does not divide q = {q}" in err
    assert run(["decode", "--code", code_file, "--word", "5,4,0", "--mod", "24"]) \
        == EXIT_OK


def test_unreadable_input_files_are_data_errors(tmp_path, capsys):
    # a file that is not UTF-8 text, a directory and a missing file
    binary = tmp_path / "binary"
    binary.write_bytes(b"\xff\xfe0,0\n")
    for path in (binary, tmp_path, tmp_path / "missing"):
        assert run(["search", "--anticode", str(path)]) == EXIT_DATA, path
        assert run(["verify", "--code", str(path), "--window", "2"]) == EXIT_DATA, path
    err = capsys.readouterr().err
    assert "Traceback" not in err and err.count("io error") == 6


@pytest.mark.parametrize("base", sorted(BASES))
def test_basis_outside_the_kernel_is_data_error(tmp_path, capsys, base):
    d = copy.deepcopy(BASES[base])
    d["basis"][-1][-1] += 1
    assert _verify(tmp_path, d) == EXIT_DATA
    assert "not in kernel" in capsys.readouterr().err


@pytest.mark.parametrize("base", sorted(BASES))
def test_basis_of_a_proper_sublattice_is_data_error(tmp_path, capsys, base):
    # doubled rows lie in the kernel, but |det| = 2^n |G|
    d = copy.deepcopy(BASES[base])
    d["basis"] = [[2 * x for x in row] for row in d["basis"]]
    assert _verify(tmp_path, d) == EXIT_DATA
    det = 2 ** d["n"] * prod(d["group"])
    assert f"|det(basis)| = {det} != |G|" in capsys.readouterr().err


# the exit codes README.md documents for each subcommand; 65 for
# construct, pl1 and nonregular is an --out that cannot be written
EXIT_SETS = {
    "construct": {EXIT_OK, EXIT_NEGATIVE, EXIT_USAGE, EXIT_DATA},
    "pl1": {EXIT_OK, EXIT_USAGE, EXIT_DATA},
    "admissible": {EXIT_OK, EXIT_NEGATIVE, EXIT_USAGE},
    "search": {EXIT_OK, EXIT_NEGATIVE, EXIT_BUDGET, EXIT_USAGE, EXIT_DATA},
    "groups": {EXIT_OK, EXIT_USAGE},
    "verify": {EXIT_OK, EXIT_NEGATIVE, EXIT_USAGE, EXIT_DATA},
    "decode": {EXIT_OK, EXIT_USAGE, EXIT_DATA},
    "tile": {EXIT_OK, EXIT_USAGE, EXIT_DATA},
    "nonregular": {EXIT_OK, EXIT_USAGE, EXIT_DATA},
}

# zero, negative, small, huge, non-integer and empty values
INTS = st.one_of(
    st.integers(-3, 40).map(str),
    st.sampled_from(["0", "-1", "-12", "10" * 15, "1.5", "abc", "", "1e3", "nan"]),
)
MODS = st.one_of(INTS, st.sampled_from(["12", "24", "7", "14", "8", "9", "1"]))
WORDS = st.one_of(
    st.lists(st.integers(-50, 50), min_size=3, max_size=3).map(
        lambda w: ",".join(map(str, w))),
    st.lists(st.integers(-50, 50), max_size=5).map(lambda w: ",".join(map(str, w))),
    st.sampled_from(["", "abc", "1,,2", "1.5,0,0", "10" * 15 + ",0,0"]),
)

TILE_TEXTS = {
    "cross": format_words(lee_sphere(2, 1)),
    "notfound": "0,0\n1,0\n2,0\n0,1\n1,-1",
    "double": format_words(double_sphere(3, 1, 1)),
    "point": "0",
    "empty": "",
    "mixed": "0,0\n1,0\n0",
    "unparsable": "0,0\n1,x",
    "duplicate": "0,0\n1,0\n0,0",
    "json": json.dumps(DPL3),
}
CODE_TEXTS = {
    "dpl3": json.dumps(DPL3),
    "pl3": json.dumps(PL3),
    "dpl8": code_to_json(construct_dpl4(8, 8)),
    "offkernel": json.dumps(_edited(DPL3, ("basis", 2, 2), DPL3["basis"][2][2] + 1)),
    "malformed": "{not json",
    "empty": "",
    "list": "[1]",
    "tile": TILE_TEXTS["cross"],
}


def _mostly_valid(paths, valid):
    """One of the paths, the first `valid` of them as often as all the rest."""
    return st.one_of(st.sampled_from(paths[:valid]), st.sampled_from(paths))


def _argv_strategy(files):
    """(subcommand, argv): each option given a mutated value or now and then
    dropped, and now and then one option more, often one the subcommand
    does not have."""
    code_files = _mostly_valid(files["codes"], 3)
    outs = st.sampled_from(files["outs"])
    options = {
        "construct": {"--n": INTS, "--q": MODS, "--out": outs},
        "pl1": {"--n": INTS, "--out": outs},
        "admissible": {"--n": INTS, "--q": MODS},
        "search": {"--anticode": _mostly_valid(files["tiles"], 4),
                   "--budget": st.one_of(INTS, st.just("inf"))},
        "groups": {"--order": INTS},
        "verify": {"--code": code_files, "--window": INTS},
        "decode": {"--code": code_files, "--word": WORDS,
                   "--mod": st.one_of(st.none(), MODS)},
        "tile": {"--code": code_files, "--window": INTS},
        "nonregular": {"--bits": st.text("01x2", max_size=2),
                       "--window": st.one_of(INTS, st.integers(6, 15).map(str)),
                       "--out": outs},
    }

    @st.composite
    def draw(draw_):
        command = draw_(st.sampled_from(sorted(options)))
        argv = [command]
        for opt, values in options[command].items():
            value = draw_(values) if draw_(st.integers(0, 4)) < 4 else None
            if value is not None:
                argv.append(f"{opt}={value}")  # "=" keeps "-1" a value
        if draw_(st.booleans()):
            argv.append("--json")
        if draw_(st.integers(0, 9)) == 9:
            argv.append(draw_(st.sampled_from(["--n=3", "--mod=12", "--window=2"])))
        return command, argv

    return draw()


@pytest.fixture
def argv_files(tmp_path):
    files = {"codes": [], "tiles": [], "outs": [str(tmp_path / "out.json"),
                                             str(tmp_path / "no-dir" / "out.json")]}
    for key, texts in (("codes", CODE_TEXTS), ("tiles", TILE_TEXTS)):
        for name, text in texts.items():
            path = tmp_path / f"{key}-{name}"
            path.write_text(text + "\n" if text else "")
            files[key].append(str(path))
        binary = tmp_path / f"{key}-binary"
        binary.write_bytes(b"\xff\xfe0,0\n")
        files[key] += [str(binary), str(tmp_path / "missing"), str(tmp_path)]
    return files


def test_argv_keeps_the_exit_code_contract(argv_files, monkeypatch, capsys):
    # small caps keep every accepted run tiny
    monkeypatch.setattr(cli, "MAX_WINDOW_POINTS", 40 ** 3)
    monkeypatch.setattr(cli, "MAX_GROUP_ORDER", 1000)

    @settings(max_examples=400, deadline=None, database=None)
    @given(_argv_strategy(argv_files))
    def check(case):
        command, argv = case
        rc = run(argv)
        err = capsys.readouterr().err
        assert rc in EXIT_SETS[command], (argv, rc, err)
        assert "Traceback" not in err, argv

    check()
