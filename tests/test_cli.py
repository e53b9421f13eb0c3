"""The batch front end: exit codes, output stability, subcommands."""

import json
import os
import subprocess
import sys

import pytest

from cubnf.cli import main

HERE = os.path.dirname(__file__)
POSITIVE_DIR = os.path.join(HERE, "..", "corpus", "positive")


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr().out
    return code, out


GOOD = """
(assert-cof (hyps (= i j) (= j 0)) (= i 0))
(nf loop-decl (ctx (dim i)) s1 (loop i))
(assert-eq-nf (ctx) s1 (loop 0) base)
(nf papp-decl (ctx (tm p (path bool true false)) (dim i)) bool
  (up bool (papp p i) (split ((= i 0) true) ((= i 1) false))))
"""

BAD = """
(assert-cof (hyps) (or (= i 0) (= i 1)))
"""

WARN = """
(nf opaque-coe
  (ctx (tm P (path univ (code bool) (code bool))) (dim j) (tm x (el (papp P j))))
  (el (papp P j))
  (coe-stuck (i (el (papp P j))) 0 1
    (up (el (papp P j)) x (split ((= j 0) (up bool x (split))) ((= j 1) (up bool x (split)))))
    (split ((= j 0) (up bool x (split))) ((= j 1) (up bool x (split))))))
"""


@pytest.fixture
def good_file(tmp_path):
    p = tmp_path / "good.cub"
    p.write_text(GOOD)
    return str(p)


def test_check_ok_exit_zero(good_file, capsys):
    code, out = run_cli(["check", good_file], capsys)
    assert code == 0
    assert "ok 4, errors 0, warnings 0" in out


def test_check_error_exit_one(tmp_path, capsys):
    p = tmp_path / "bad.cub"
    p.write_text(BAD)
    code, out = run_cli(["check", str(p)], capsys)
    assert code == 1
    assert "cof-not-entailed" in out


def test_check_warning_exit_two(tmp_path, capsys):
    p = tmp_path / "warn.cub"
    p.write_text(WARN)
    code, out = run_cli(["check", str(p)], capsys)
    assert code == 2
    assert "side-condition-unknown" in out


def test_strict_turns_warning_into_error(tmp_path, capsys):
    p = tmp_path / "warn.cub"
    p.write_text(WARN)
    code, out = run_cli(["check", "--strict", str(p)], capsys)
    assert code == 1


def test_json_byte_stable(good_file, capsys):
    _, out1 = run_cli(["check", "--json", good_file], capsys)
    _, out2 = run_cli(["check", "--json", good_file], capsys)
    assert out1 == out2
    rep = json.loads(out1)
    assert rep["summary"] == {"ok": 4, "errors": 0, "warnings": 0}


def test_json_stable_across_processes(good_file):
    env = dict(os.environ)
    runs = []
    for _ in range(2):
        proc = subprocess.run(
            [sys.executable, "-m", "cubnf.cli", "check", "--json", good_file],
            capture_output=True, env=env)
        assert proc.returncode == 0
        runs.append(proc.stdout)
    assert runs[0] == runs[1]


def test_cof_subcommands(capsys):
    code, out = run_cli(["cof", "forall", "i", "(= i 0)"], capsys)
    assert code == 0 and out.strip() == "bot"
    code, out = run_cli(["cof", "eq", "(= 0 1)", "bot"], capsys)
    assert code == 0 and out.strip() == "true"
    code, out = run_cli(["cof", "dnf", "top"], capsys)
    assert code == 0 and out.strip() == "top"
    code, out = run_cli(["cof", "dnf", "(or (= 0 1) (= i 0))"], capsys)
    assert code == 0 and out.strip() == "(= 0 i)"
    code, out = run_cli(["cof", "entails", "--hyp", "(= i j)", "--hyp", "(= j 0)",
                         "(= i 0)"], capsys)
    assert code == 0 and out.strip() == "true"
    code, out = run_cli(["cof", "entails", "(or (= i 0) (= i 1))"], capsys)
    assert code == 0 and out.strip() == "false"


def test_cof_parse_error_exit_one(capsys):
    code = main(["cof", "dnf", "(= i 2)"])
    assert code == 1


def test_subst_command(good_file, capsys):
    code, out = run_cli(["subst", good_file, "papp-decl", "i", "0"], capsys)
    assert code == 0 and out.strip() == "true"
    code, out = run_cli(["subst", good_file, "papp-decl", "i", "1"], capsys)
    assert code == 0 and out.strip() == "false"
    code, out = run_cli(["subst", good_file, "loop-decl", "i", "1"], capsys)
    assert code == 0 and out.strip() == "base"


def test_subst_out_of_fuel_is_a_warning(capsys):
    path = os.path.join(POSITIVE_DIR, "05-path.cub")
    code, out = run_cli(["subst", "--fuel", "1", path, "path-dep", "j", "0"], capsys)
    assert code == 2 and out.strip() == "true"
    code, out = run_cli(["subst", path, "path-dep", "j", "0"], capsys)
    assert code == 0 and out.strip() == "true"


def test_subst_unknown_name(good_file, capsys):
    code = main(["subst", good_file, "nope", "i", "0"])
    assert code == 1


def test_eq_command(tmp_path, capsys):
    p = tmp_path / "eqs.cub"
    p.write_text("""
(nf a (ctx (dim i)) s1 (loop 0))
(nf b (ctx (dim i)) s1 base)
(nf c (ctx (dim i)) s1 (loop i))
""")
    code, out = run_cli(["eq", str(p), "a", "b"], capsys)
    assert code == 0 and out.strip() == "true"
    code, out = run_cli(["eq", str(p), "a", "c"], capsys)
    assert code == 0 and out.strip() == "false"


def test_fuel_env_override(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("CUBNF_FUEL", "7")
    from cubnf.cli import _default_fuel
    assert _default_fuel() == 7
    monkeypatch.delenv("CUBNF_FUEL")
    assert _default_fuel() == 1000


def test_console_script_installed():
    proc = subprocess.run(["cubnf", "--version"], capture_output=True, text=True)
    assert proc.returncode == 0
    assert "cubnf" in proc.stdout
