"""The golden corpus: positives all accepted, negatives rejected with the
expected error kind."""

import glob
import os

import pytest

from cubnf.cli import check_one
from cubnf.parser import parse_file
from cubnf.sexp import ParseError

HERE = os.path.dirname(__file__)
POSITIVE = sorted(glob.glob(os.path.join(HERE, "..", "corpus", "positive", "*.cub")))
NEGATIVE = sorted(glob.glob(os.path.join(HERE, "..", "corpus", "negative", "*.cub")))


def _read(path):
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def test_corpus_is_large_enough():
    n_pos = sum(len(parse_file(_read(p))) for p in POSITIVE)
    assert n_pos >= 30
    assert len(NEGATIVE) >= 15


@pytest.mark.parametrize("path", POSITIVE, ids=os.path.basename)
def test_positive_file_accepted(path):
    decls = parse_file(_read(path))
    for idx, decl in enumerate(decls):
        entry = check_one(decl, fuel=1000, strict=False)
        assert entry["status"] in ("ok", "warning"), (idx, entry["errors"])


@pytest.mark.parametrize("fuel", [1, 2, 5, 20])
@pytest.mark.parametrize("path", POSITIVE, ids=os.path.basename)
def test_positive_file_never_rejected_at_low_fuel(path, fuel):
    # running out of fuel is unknown (a warning), never a rejection
    decls = parse_file(_read(path))
    for idx, decl in enumerate(decls):
        entry = check_one(decl, fuel=fuel, strict=False)
        assert entry["status"] != "error", (idx, entry["errors"])


def test_fuel_exhaustion_in_type_reduction_is_unknown():
    # 05-path.cub's path-dep needs its type reduced before it can be checked
    path = next(p for p in POSITIVE if p.endswith("05-path.cub"))
    decl = next(d for d in parse_file(_read(path)) if getattr(d, "name", None) == "path-dep")
    entry = check_one(decl, fuel=1, strict=False)
    assert entry["status"] == "warning"
    assert any("fuel-exhausted" in w["message"] for w in entry["warnings"])
    strict = check_one(decl, fuel=1, strict=True)
    assert [e["kind"] for e in strict["errors"]] == ["side-condition-unknown"]


@pytest.mark.parametrize("path", NEGATIVE, ids=os.path.basename)
def test_negative_file_rejected_with_kind(path):
    text = _read(path)
    expect = text.splitlines()[0].split("; expect:")[1].strip()
    if expect == "parse":
        with pytest.raises(ParseError):
            parse_file(text)
        return
    decls = parse_file(text)
    kinds = []
    for decl in decls:
        entry = check_one(decl, fuel=1000, strict=False)
        kinds.extend(err["kind"] for err in entry["errors"])
    assert expect in kinds, (expect, kinds)


def test_rule_coverage():
    """Every transcribed rule family appears somewhere in the positives."""
    needles = {
        "lam": False, "app": False, "pair": False, "fst": False, "snd": False,
        "if": False, "code": False, "up-tp": False, "plam": False, "papp": False,
        "star": False, "up": False, "hcomp-stuck": False, "coe-stuck": False,
        "hcomp-val": False, "base": False, "loop": False, "s1-elim": False,
        "glue-tp": False, "glue": False, "unglue": False, "split": False,
    }
    blob = "\n".join(_read(p) for p in POSITIVE)
    for key in needles:
        needles[key] = f"({key} " in blob or f"({key})" in blob or f" {key}" in blob
    missing = [k for k, seen in needles.items() if not seen]
    assert not missing, missing
