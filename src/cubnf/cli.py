"""Batch front end: check declaration files, run cofibration queries,
substitute into named normal forms, and compare them.

Exit codes: 0 all ok; 1 any error; 2 warnings only (warnings become errors
under --strict).  --json output is deterministic: byte-identical across
runs on identical input.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import __version__
from . import parser as P
from . import syntax as S
from .checker import CheckError, Checker, Undecided, check_declared_nf
from .cof import IVar, ONE, ZERO, cof_eq, dnf, entails, forall_elim
from .convert import DEFAULT_FUEL
from .engine import eq_nf, eq_split, subst_i_nf
from .nf import BackupDomainError
from .sexp import ParseError, read_all, write


def _default_fuel() -> int:
    env = os.environ.get("CUBNF_FUEL")
    if env is not None:
        try:
            return max(1, int(env))
        except ValueError:
            pass
    return DEFAULT_FUEL


# ---------------------------------------------------------------------------
# check


def _decl_name(decl) -> str | None:
    return getattr(decl, "name", None)


def _decl_kind(decl) -> str:
    return {P.DefDecl: "def", P.NfDecl: "nf",
            P.AssertEqNf: "assert-eq-nf", P.AssertCof: "assert-cof"}[type(decl)]


def check_one(decl, fuel: int, strict: bool) -> dict:
    entry: dict = {"kind": _decl_kind(decl), "name": _decl_name(decl),
                   "errors": [], "warnings": []}
    ck = Checker(fuel=fuel, strict=strict)
    try:
        match decl:
            case P.DefDecl():
                pass  # parse- and scope-checked only; raw terms are not typed
            case P.NfDecl(_, ctx, ty, term):
                check_declared_nf(ck, ctx, term, ty)
            case P.AssertEqNf(ctx, ty, lhs, rhs):
                check_declared_nf(ck, ctx, lhs, ty, ("lhs",))
                check_declared_nf(ck, ctx, rhs, ty, ("rhs",))
                if isinstance(lhs, S.Split) or isinstance(rhs, S.Split):
                    base = ctx.drop_cofs()
                    equal = eq_split(base, lhs, rhs)
                else:
                    equal = eq_nf(ctx, lhs, rhs, ty)
                if not equal:
                    entry["errors"].append({"kind": "not-equal", "path": "",
                                            "message": "normal forms differ"})
            case P.AssertCof(hyps, goal):
                if not entails(list(hyps), goal):
                    entry["errors"].append({"kind": "cof-not-entailed", "path": "",
                                            "message": "entailment does not hold"})
    except Undecided:
        pass  # already a warning
    except CheckError as e:
        entry["errors"].append({"kind": e.kind, "path": "/".join(e.path),
                                "message": e.message})
    except BackupDomainError as e:
        entry["errors"].append({"kind": e.kind, "path": "", "message": str(e)})
    entry["warnings"] = [{"kind": w.kind, "path": "/".join(w.path), "message": w.message}
                         for w in ck.warnings]
    entry["status"] = ("error" if entry["errors"]
                       else "warning" if entry["warnings"] else "ok")
    return entry


def cmd_check(args) -> int:
    report = {"files": [], "summary": {"ok": 0, "errors": 0, "warnings": 0}}
    for path in args.files:
        frep = {"file": path, "declarations": []}
        try:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
            decls = P.parse_file(text)
        except (ParseError, OSError) as e:
            frep["error"] = str(e)
            report["summary"]["errors"] += 1
            report["files"].append(frep)
            continue
        for idx, decl in enumerate(decls):
            entry = check_one(decl, args.fuel, args.strict)
            entry["index"] = idx
            frep["declarations"].append(entry)
            if entry["status"] == "error":
                report["summary"]["errors"] += 1
            elif entry["status"] == "warning":
                report["summary"]["warnings"] += 1
            else:
                report["summary"]["ok"] += 1
        report["files"].append(frep)

    if args.json:
        print(json.dumps(report, sort_keys=True, separators=(",", ":")))
    else:
        for frep in report["files"]:
            if "error" in frep:
                print(f"{frep['file']}: parse error: {frep['error']}")
                continue
            for entry in frep["declarations"]:
                label = entry["name"] or f"#{entry['index']}"
                line = f"{frep['file']}:{label} [{entry['kind']}] {entry['status']}"
                print(line)
                for err in entry["errors"]:
                    loc = f" at {err['path']}" if err["path"] else ""
                    print(f"  error[{err['kind']}]{loc}: {err['message']}")
                for w in entry["warnings"]:
                    loc = f" at {w['path']}" if w["path"] else ""
                    print(f"  warning[{w['kind']}]{loc}: {w['message']}")
        s = report["summary"]
        print(f"ok {s['ok']}, errors {s['errors']}, warnings {s['warnings']}")
    if report["summary"]["errors"]:
        return 1
    if report["summary"]["warnings"]:
        return 2
    return 0


# ---------------------------------------------------------------------------
# cof


def _parse_cof_arg(text: str):
    nodes = read_all(text)
    if len(nodes) != 1:
        raise ParseError("expected one cofibration", 1, 1)
    return P.parse_cof(nodes[0], None)


def cmd_cof(args) -> int:
    try:
        if args.cof_cmd == "entails":
            hyps = [_parse_cof_arg(h) for h in args.hyp]
            goal = _parse_cof_arg(args.goal)
            result = entails(hyps, goal)
            out = {"verdict": result}
            text = "true" if result else "false"
        elif args.cof_cmd == "eq":
            hyps = [_parse_cof_arg(h) for h in args.hyp]
            result = cof_eq(hyps, _parse_cof_arg(args.lhs), _parse_cof_arg(args.rhs))
            out = {"verdict": result}
            text = "true" if result else "false"
        elif args.cof_cmd == "forall":
            phi = forall_elim(args.var, _parse_cof_arg(args.phi))
            out = {"result": write(P.print_cof(phi))}
            text = out["result"]
        else:  # dnf
            branches = dnf(_parse_cof_arg(args.phi))
            rendered = [write(P.print_cof(b.to_cof())) for b in branches]
            out = {"branches": rendered}
            text = "\n".join(rendered) if rendered else "(no branches)"
    except ParseError as e:
        print(f"parse error: {e}", file=sys.stderr)
        return 1
    if args.json:
        print(json.dumps(out, sort_keys=True, separators=(",", ":")))
    else:
        print(text)
    return 0


# ---------------------------------------------------------------------------
# subst / eq


def _load_nf_decl(path: str, name: str, fuel: int, strict: bool) -> P.NfDecl:
    with open(path, "r", encoding="utf-8") as fh:
        decls = P.parse_file(fh.read())
    for d in decls:
        if isinstance(d, P.NfDecl) and d.name == name:
            entry = check_one(d, fuel, strict)
            if entry["status"] == "error":
                raise CheckError(entry["errors"][0]["kind"], (),
                                 f"declaration {name} does not check")
            return d
    raise KeyError(f"no nf declaration named {name} in {path}")


def cmd_subst(args) -> int:
    try:
        decl = _load_nf_decl(args.file, args.name, args.fuel, args.strict)
    except (ParseError, CheckError, KeyError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    ctx = decl.ctx
    if ctx.cof_hyps():
        print("error: subst needs a cofibration-free declaration context", file=sys.stderr)
        return 1
    if isinstance(decl.term, S.Split):
        print("error: cannot substitute into a split declaration", file=sys.stderr)
        return 1
    if not ctx.has_ivar(args.var):
        print(f"error: {args.var} is not an interval variable of the context", file=sys.stderr)
        return 1
    if args.expr == "0":
        target = ZERO
    elif args.expr == "1":
        target = ONE
    else:
        if not ctx.has_ivar(args.expr):
            print(f"error: {args.expr} is not 0, 1, or a context interval variable",
                  file=sys.stderr)
            return 1
        target = IVar(args.expr)
    result = subst_i_nf(ctx, decl.term, args.var, target)
    ctx2 = S.ctx_subst_i(ctx, args.var, target)
    ty2 = S.subst_i_tp(decl.ty, args.var, target)
    ck = Checker(fuel=args.fuel, strict=args.strict)
    undecided = None
    try:
        ck.check_nf(ctx2, result, ty2)  # every printed result re-checks
    except Undecided as e:
        undecided = e
    except CheckError as e:
        print(f"error: the substituted result does not check: {e}", file=sys.stderr)
        return 1
    rendered = write(P.print_nf(result))
    if args.json:
        print(json.dumps({"result": rendered}, sort_keys=True, separators=(",", ":")))
    else:
        print(rendered)
    if undecided is not None:
        print(f"warning: the substituted result could not be re-checked: {undecided}",
              file=sys.stderr)
        return 2
    return 0


def cmd_eq(args) -> int:
    try:
        a = _load_nf_decl(args.file, args.name1, args.fuel, args.strict)
        b = _load_nf_decl(args.file, args.name2, args.fuel, args.strict)
    except (ParseError, CheckError, KeyError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    if a.ctx != b.ctx or not S.alpha_eq(a.ty, b.ty):
        print("error: declarations live in different contexts or types", file=sys.stderr)
        return 1
    if isinstance(a.term, S.Split) or isinstance(b.term, S.Split):
        equal = eq_split(a.ctx.drop_cofs(), a.term, b.term)
    else:
        equal = eq_nf(a.ctx, a.term, b.term, a.ty)
    out = "true" if equal else "false"
    if args.json:
        print(json.dumps({"verdict": equal}, sort_keys=True, separators=(",", ":")))
    else:
        print(out)
    return 0


# ---------------------------------------------------------------------------
# entry point


def build_arg_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="cubnf",
                                 description="normal-form kernel for Cartesian cubical type theory")
    ap.add_argument("--version", action="version", version=f"cubnf {__version__}")
    sub = ap.add_subparsers(dest="cmd", required=True)

    def common(p):
        p.add_argument("--strict", action="store_true",
                       help="treat unknown side conditions as errors")
        p.add_argument("--fuel", type=int, default=_default_fuel(),
                       help="conversion step budget (env CUBNF_FUEL overrides the default)")
        p.add_argument("--json", action="store_true", help="machine-readable output")

    p = sub.add_parser("check", help="check declaration files")
    p.add_argument("files", nargs="+")
    common(p)
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("cof", help="cofibration queries")
    csub = p.add_subparsers(dest="cof_cmd", required=True)
    pe = csub.add_parser("entails")
    pe.add_argument("--hyp", action="append", default=[])
    pe.add_argument("goal")
    pq = csub.add_parser("eq")
    pq.add_argument("--hyp", action="append", default=[])
    pq.add_argument("lhs")
    pq.add_argument("rhs")
    pf = csub.add_parser("forall")
    pf.add_argument("var")
    pf.add_argument("phi")
    pd = csub.add_parser("dnf")
    pd.add_argument("phi")
    for q in (pe, pq, pf, pd):
        q.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_cof)

    p = sub.add_parser("subst", help="substitute an interval expression into a named nf")
    p.add_argument("file")
    p.add_argument("name")
    p.add_argument("var")
    p.add_argument("expr")
    common(p)
    p.set_defaults(fn=cmd_subst)

    p = sub.add_parser("eq", help="compare two named nf declarations")
    p.add_argument("file")
    p.add_argument("name1")
    p.add_argument("name2")
    common(p)
    p.set_defaults(fn=cmd_eq)
    return ap


def main(argv: list[str] | None = None) -> int:
    args = build_arg_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
