"""Spans around calls into cubnf's layers, installed from outside the program.

`install()` replaces each layer entry point with a wrapper on every module
(or class) that binds it, so calls through `from .cof import dnf` style
imports are seen as well as calls through the defining module. A wrapper
counts every call. It opens a span unless the innermost open span has the
same name: a directly recursive entry (NfSubst.nf, Checker.check_nf) is
counted on every call but timed only at its outermost call. Spans are kept
in memory as [name, start, end, parent] and summarised, or written out, at
the end of the process; a span's self time is its duration minus the
durations of its child spans.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter

# (layer name, module, attribute); "Class.method" names a method.
ENTRIES = [
    ("cof.dnf", "cubnf.cof", "dnf"),
    ("cof.entails", "cubnf.cof", "entails"),
    ("sexp.read_all", "cubnf.sexp", "read_all"),
    ("parser.parse_decl", "cubnf.parser", "parse_decl"),
    ("engine.subst", "cubnf.engine", "NfSubst.nf"),
    ("engine.subst", "cubnf.engine", "NfSubst.ne"),
    ("engine.subst", "cubnf.engine", "NfSubst.netp"),
    ("engine.subst", "cubnf.engine", "NfSubst.nftp"),
    ("engine.canon", "cubnf.engine", "canon"),
    ("engine.canon", "cubnf.engine", "canon_tp"),
    ("engine.eq", "cubnf.engine", "eq_nf"),
    ("engine.eq", "cubnf.engine", "eq_nftp"),
    ("engine.eq", "cubnf.engine", "eq_split"),
    ("convert", "cubnf.convert", "bounded_convert"),
    ("convert", "cubnf.convert", "bounded_convert_tp"),
    # the checker's weak-head step enters the conversion engine directly
    ("convert", "cubnf.checker", "Checker._whnf_tp"),
    ("checker.check_nf", "cubnf.checker", "Checker.check_nf"),
    ("cli.check_one", "cubnf.cli", "check_one"),
]
MK_LAYER = ("nf.mk", "cubnf.nf", "mk_")   # every smart constructor mk_*


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.open: list[int] = []
        self.calls: Counter = Counter()
        self.outcomes: Counter = Counter()
        self.dnf_args: set = set()
        self.dnf_branches_max = 0
        self.read_bytes = 0
        self.missing: list[str] = []

    # -- recording --------------------------------------------------------------

    def wrap(self, name: str, fn, before=None, after=None):
        spans, open_, calls, clock = self.spans, self.open, self.calls, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kw):
            calls[name] += 1
            if before is not None:
                before(args)
            if open_ and spans[open_[-1]][0] == name:
                result = fn(*args, **kw)
            else:
                rec = [name, 0.0, 0.0, open_[-1] if open_ else -1]
                open_.append(len(spans))
                spans.append(rec)
                rec[1] = clock()
                try:
                    result = fn(*args, **kw)
                finally:
                    rec[2] = clock()
                    open_.pop()
            if after is not None:
                after(result)
            return result

        return traced

    def run(self, name: str, fn, *args):
        """Call fn inside a root span of its own (one op, or the parse)."""
        return self.wrap(name, fn)(*args)

    # -- installation -------------------------------------------------------------

    def install(self) -> None:
        hooks = {
            "cof.dnf": (self._on_dnf_args, self._on_dnf_result),
            "sexp.read_all": (self._on_read, None),
            "convert": (None, self._on_verdict),
        }
        for layer, modname, attr in ENTRIES:
            before, after = hooks.get(layer, (None, None))
            self._install_one(layer, modname, attr, before, after)
        layer, modname, prefix = MK_LAYER
        mod = sys.modules.get(modname)
        for attr in sorted(vars(mod) if mod else ()):
            if attr.startswith(prefix) and callable(getattr(mod, attr)):
                self._install_one(layer, modname, attr, None, None)

    def _install_one(self, layer, modname, attr, before, after) -> None:
        mod = sys.modules.get(modname)
        owner_name, _, meth = attr.rpartition(".")
        owner = getattr(mod, owner_name, None) if owner_name else mod
        orig = (owner.__dict__.get(meth) if isinstance(owner, type)
                else getattr(owner, meth, None)) if owner is not None else None
        if orig is None:
            self.missing.append(f"{modname}.{attr}")
            return
        wrapped = self.wrap(layer, orig, before, after)
        if isinstance(owner, type):
            setattr(owner, meth, wrapped)
            return
        for name, module in list(sys.modules.items()):
            if name == "cubnf" or name.startswith("cubnf."):
                for key, val in list(vars(module).items()):
                    if val is orig:
                        setattr(module, key, wrapped)

    def _on_dnf_args(self, args) -> None:
        if args:
            self.dnf_args.add(args[0])

    def _on_dnf_result(self, result) -> None:
        self.dnf_branches_max = max(self.dnf_branches_max, len(result))

    def _on_read(self, args) -> None:
        if args:
            self.read_bytes += len(args[0].encode("utf-8"))

    def _on_verdict(self, result) -> None:
        kind = getattr(result, "kind", None)
        if kind in ("no", "unknown"):
            self.outcomes[kind] += 1

    # -- results ------------------------------------------------------------------

    def summary(self) -> dict:
        """Calls and self time per layer; self time is also split by the
        root span (`op` or `setup.parse`) it was spent under."""
        n = len(self.spans)
        child = [0.0] * n
        root = [0] * n
        for idx, (_, start, end, parent) in enumerate(self.spans):
            if parent >= 0:
                child[parent] += end - start
                root[idx] = root[parent]
            else:
                root[idx] = idx
        self_s: Counter = Counter()
        by_root: Counter = Counter()
        for idx, (name, start, end, _) in enumerate(self.spans):
            dt = (end - start) - child[idx]
            self_s[name] += dt
            by_root[self.spans[root[idx]][0] + "|" + name] += dt
        return {
            "calls": dict(self.calls),
            "self_s": dict(self_s),
            "self_by_root": dict(by_root),
            "outcomes": dict(self.outcomes),
            "dnf_distinct": len(self.dnf_args),
            "dnf_branches_max": self.dnf_branches_max,
            "read_bytes": self.read_bytes,
            "missing": self.missing,
        }

    def dump(self, path: str) -> None:
        names = sorted({s[0] for s in self.spans})
        index = {nm: i for i, nm in enumerate(names)}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": names,
                       "spans": [[index[s[0]], s[1], s[2], s[3]] for s in self.spans]},
                      fh, separators=(",", ":"))
