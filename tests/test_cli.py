import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from leecodes import code_to_json, construct_dpl4
from leecodes.cli import (
    EXIT_BUDGET,
    EXIT_DATA,
    EXIT_NEGATIVE,
    EXIT_OK,
    EXIT_USAGE,
    MAX_GROUP_ORDER,
    run,
)
from leecodes.lee import format_words, lee_sphere

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


def test_search_budget(tmp_path, capsys):
    path = tmp_path / "v.txt"
    from leecodes import double_sphere
    path.write_text(format_words(double_sphere(3, 1, 1)) + "\n")
    assert run(["search", "--anticode", str(path), "--budget", "3"]) == EXIT_BUDGET


def test_verify(code_file, capsys):
    assert run(["verify", "--code", code_file, "--window", "10"]) == EXIT_OK
    assert "verified" in capsys.readouterr().out


def test_decode(code_file, capsys):
    assert run(["decode", "--code", code_file, "--word", "5,4,0", "--json"]) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert "codeword" in payload and "tile_vector" in payload
    assert run(["decode", "--code", code_file, "--word", "5,4,0",
                "--mod", "12"]) == EXIT_OK
    assert run(["decode", "--code", code_file, "--word=-1,2,0"]) == EXIT_OK


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


def test_python_m_cli_runs_main(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "leecodes.cli", "construct", "--n", "3", "--q", "12",
         "--json"],
        capture_output=True, text=True, env=_env(), cwd=tmp_path,
    )
    assert proc.returncode == EXIT_OK, proc.stderr
    assert json.loads(proc.stdout) == json.loads(code_to_json(construct_dpl4(3, 12)))


def test_import_loads_no_sympy(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, leecodes, leecodes.cli; print('sympy' in sys.modules)"],
        capture_output=True, text=True, env=_env(), cwd=tmp_path,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_search_bad_budget_is_usage_error(tmp_path):
    path = tmp_path / "cross.txt"
    path.write_text(format_words(lee_sphere(2, 1)) + "\n")
    for budget in ("abc", "inf", "nan", ""):
        assert run(["search", "--anticode", str(path), "--budget", budget]) == EXIT_USAGE
    assert run(["search", "--anticode", str(path), "--budget", "1e3"]) == EXIT_OK


def test_groups_order_cap(capsys):
    assert run(["groups", "--order", str(MAX_GROUP_ORDER + 1)]) == EXIT_USAGE
    assert run(["groups", "--order", str(MAX_GROUP_ORDER), "--json"]) == EXIT_OK
    assert len(json.loads(capsys.readouterr().out)) == 77 * 77  # 2^12 * 5^12


def test_decode_rejects_modulus_the_period_does_not_divide(code_file):
    d = json.loads(open(code_file).read())
    d["q"] = 5
    with open(code_file, "w") as fh:
        json.dump(d, fh)
    assert run(["decode", "--code", code_file, "--word", "5,4,0"]) == EXIT_DATA
