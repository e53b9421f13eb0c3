"""Seeded input generators for the benchmark, with their reference verdicts.

Everything here is independent of cubnf: terms are built in a small tuple
representation, normalised by the few destabilization equations the
generated grammar can reach, and printed in the byte-exact form that
`write(print_nf(...))` produces. The benchmark therefore knows, without
asking the program under test, which declarations must be accepted, which
error kind each bad one must raise, whether two normal forms are equal,
and what a substituted normal form prints as.

Grammar reached by the generators (over the generation context CTX):

    nf ::= true | false | base | (loop r) | (lam x nf) | (pair nf nf)
         | (plam k nf) | (hcomp-val KIND r s phi (k TUBE)) | (up TAG ne BACKUP)
    ne ::= b0 | w0 | x | (app f0 nf) | (if (x TYPE) ne nf nf)
         | (papp p0 r) | (s1-elim (x s1) c0 nf (k nf))

Interval binders are named uniquely within a term and sort after the
context dimensions `i` and `j`, so no substitution the benchmark asks for
ever renames a binder and every canonical form has one spelling.
"""

from __future__ import annotations

import hashlib
import itertools
import random

CTX = ("(ctx (tm b0 bool) (tm w0 wbool) (tm f0 (pi (x bool) bool)) "
       "(tm p0 (path bool true false)) (tm pr0 (sigma (x bool) bool)) "
       "(tm c0 s1) (dim i) (dim j))")
DIMS = ("i", "j")

T_BOOL, T_WBOOL, T_S1 = "bool", "wbool", "s1"
T_FN, T_PAIR, T_PATH = "(pi (x bool) bool)", "(sigma (x bool) bool)", "(path bool true false)"

TRUE, FALSE, BASE = ("true",), ("false",), ("base",)

# Sizes of one input file; a run checks as many files as fill its seconds.
GEN_CHECK_DECLS = 1200
COF_BOUNDARY_DECLS = 60
SUBST_EQ_PAIRS = 180
# printed-size bands (characters) that terms are drawn in, equally often
GEN_CHECK_BANDS = [(0, 60), (60, 120), (120, 240), (240, 480)]
SUBST_EQ_BANDS = [(40, 120), (120, 240), (240, 480)]
SUBST_TARGETS = ("0", "1", "j")   # every pair is asked i:=0, i:=1 and i:=j
# compositions (weak booleans, circle) are where substitution rebuilds most
EQUAL_PAIR_TYPES = [T_WBOOL, T_WBOOL, T_S1, T_S1, T_BOOL, T_FN, T_PAIR]


def _rng(workload: str, seed: int, index: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{index}")


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# Interval expressions and the cofibrations that tubes use


def _key(e: str) -> tuple[int, str]:
    """cubnf's order on interval elements: 0 < 1 < variables by name."""
    return (0, "") if e == "0" else (1, "") if e == "1" else (2, e)


def cof_text(c) -> str:
    match c:
        case ("eq", a, b):
            return f"(= {a} {b})"
        case ("top",):
            return "top"
        case ("bot",):
            return "bot"
        case ("or", parts):
            return "(or " + " ".join(cof_text(p) for p in parts) + ")"
        case ("and", parts):
            return "(and " + " ".join(cof_text(p) for p in parts) + ")"
    raise TypeError(c)


def cof_subst(c, sub: dict):
    match c:
        case ("eq", a, b):
            return ("eq", sub.get(a, a), sub.get(b, b))
        case ("or" | "and" as op, parts):
            return (op, tuple(cof_subst(p, sub) for p in parts))
    return c


def cof_eval(c, env: dict) -> bool:
    """Value of a cofibration at an endpoint assignment. With the empty
    assignment this is truth in the empty context, for the cofibrations
    tubes carry (joins of equations, top and bot)."""
    match c:
        case ("eq", a, b):
            return env.get(a, a) == env.get(b, b)
        case ("top",):
            return True
        case ("bot",):
            return False
        case ("or", parts):
            return any(cof_eval(p, env) for p in parts)
        case ("and", parts):
            return all(cof_eval(p, env) for p in parts)
    raise TypeError(c)


def _disjuncts(c):
    match c:
        case ("or", parts):
            for p in parts:
                yield from _disjuncts(p)
        case ("bot",):
            return
        case _:
            yield c


def tube_branches(k: str, r: str, phi) -> list[tuple]:
    """Canonical decomposition of (k = r) \\/ phi, for phi a join of
    equations: each branch is () for top or ((rep, other),)."""
    raw = set()
    for d in itertools.chain([("eq", k, r)], _disjuncts(phi)):
        if d == ("top",):
            raw.add(())
            continue
        _, a, b = d
        if a == b:
            raw.add(())
        elif {a, b} != {"0", "1"}:
            raw.add((tuple(sorted((a, b), key=_key)),))
    if () in raw:
        return [()]
    return sorted(raw, key=lambda br: tuple((_key(a), _key(b)) for a, b in br))


def branch_text(br: tuple) -> str:
    if not br:
        return "top"
    (a, b), = br
    return f"(= {a} {b})"


# ---------------------------------------------------------------------------
# Normal forms: printing, substitution with decay, alpha-renaming


def nf_text(t) -> str:
    match t:
        case ("true",) | ("false",) | ("base",):
            return t[0]
        case ("loop", r):
            return f"(loop {r})"
        case ("lam", x, b):
            return f"(lam {x} {nf_text(b)})"
        case ("pair", a, b):
            return f"(pair {nf_text(a)} {nf_text(b)})"
        case ("plam", k, b):
            return f"(plam {k} {nf_text(b)})"
        case ("hcomp", kind, r, s, phi, k, v):
            cases = " ".join(f"({branch_text(br)} {nf_text(restrict(v, br))})"
                             for br in tube_branches(k, r, phi))
            return f"(hcomp-val {kind} {r} {s} {cof_text(phi)} ({k} (split {cases})))"
        case ("up", tag, ne):
            return f"(up {tag} {ne_text(ne)} {_backup_text(ne)})"
    raise TypeError(t)


def ne_text(e) -> str:
    match e:
        case ("var", x):
            return x
        case ("app", f, a):
            return f"(app {ne_text(f)} {nf_text(a)})"
        case ("if", x, m, b, tt, ff):
            return f"(if ({x} {m}) {ne_text(b)} {nf_text(tt)} {nf_text(ff)})"
        case ("papp", p, r):
            return f"(papp {ne_text(p)} {r})"
        case ("s1elim", x, c, b, lv, lp):
            return f"(s1-elim ({x} s1) {ne_text(c)} {nf_text(b)} ({lv} {nf_text(lp)}))"
    raise TypeError(e)


def _backup_text(e) -> str:
    # only path applications of p0 : (path bool true false), and an `if`
    # on one, are unstable; at r = 0 the path is true, at r = 1 false
    if e[0] == "papp":
        r = e[2]
        return f"(split ((= 0 {r}) true) ((= 1 {r}) false))"
    if e[0] == "if" and e[3][0] == "papp":
        _, _, _, (_, _, r), tt, ff = e
        return (f"(split ((= 0 {r}) {nf_text(subst(tt, {r: '0'}))}) "
                f"((= 1 {r}) {nf_text(subst(ff, {r: '1'}))}))")
    return "(split)"


def restrict(v, br: tuple):
    """A tube payload: the value contracted along one branch."""
    if not br:
        return v
    (a, b), = br
    return subst(v, {b: a})


def subst(t, sub: dict):
    """Interval substitution followed by every decay it enables: a loop at
    an endpoint is base, a composition with r = s or a true cofibration is
    its tube value, and a path application at an endpoint is that end."""
    if not sub:
        return t
    match t:
        case ("true",) | ("false",) | ("base",):
            return t
        case ("loop", r):
            r2 = sub.get(r, r)
            return BASE if r2 in ("0", "1") else ("loop", r2)
        case ("lam", x, b):
            return ("lam", x, subst(b, sub))
        case ("pair", a, b):
            return ("pair", subst(a, sub), subst(b, sub))
        case ("plam", k, b):
            return ("plam", k, subst(b, _without(sub, k)))
        case ("hcomp", kind, r, s, phi, k, v):
            return mk_hcomp(kind, sub.get(r, r), sub.get(s, s), cof_subst(phi, sub), k,
                            subst(v, _without(sub, k)))
        case ("up", tag, ne):
            ne2 = subst_ne(ne, sub)
            if ne2[0] == "papp" and ne2[2] in ("0", "1"):
                return TRUE if ne2[2] == "0" else FALSE
            if ne2[0] == "if" and ne2[3][0] == "papp" and ne2[3][2] in ("0", "1"):
                return ne2[4] if ne2[3][2] == "0" else ne2[5]
            return ("up", tag, ne2)
    raise TypeError(t)


def subst_ne(e, sub: dict):
    match e:
        case ("var", _):
            return e
        case ("app", f, a):
            return ("app", f, subst(a, sub))
        case ("if", x, m, b, tt, ff):
            return ("if", x, m, subst_ne(b, sub), subst(tt, sub), subst(ff, sub))
        case ("papp", p, r):
            return ("papp", p, sub.get(r, r))
        case ("s1elim", x, c, b, lv, lp):
            return ("s1elim", x, c, subst(b, sub), lv, subst(lp, _without(sub, lv)))
    raise TypeError(e)


def _without(sub: dict, k: str) -> dict:
    return {a: b for a, b in sub.items() if a != k} if k in sub else sub


def mk_hcomp(kind, r, s, phi, k, v):
    if r == s or cof_eval(phi, {}):
        return v
    return ("hcomp", kind, r, s, phi, k, v)


def rename(t, env: dict):
    """An alpha-variant: every binder gets env's new name, and every join
    in a composition cofibration has its parts reversed."""
    match t:
        case ("true",) | ("false",) | ("base",):
            return t
        case ("loop", r):
            return ("loop", env.get(r, r))
        case ("lam", x, b):
            return ("lam", env[x], rename(b, env))
        case ("pair", a, b):
            return ("pair", rename(a, env), rename(b, env))
        case ("plam", k, b):
            return ("plam", env[k], rename(b, env))
        case ("hcomp", kind, r, s, phi, k, v):
            return ("hcomp", kind, r, s, _reverse_joins(phi), env[k], rename(v, env))
        case ("up", tag, ne):
            return ("up", tag, rename_ne(ne, env))
    raise TypeError(t)


def rename_ne(e, env: dict):
    match e:
        case ("var", x):
            return ("var", env.get(x, x))
        case ("app", f, a):
            return ("app", f, rename(a, env))
        case ("if", x, m, b, tt, ff):
            return ("if", env[x], m, rename_ne(b, env), rename(tt, env), rename(ff, env))
        case ("papp", p, r):
            return ("papp", p, env.get(r, r))
        case ("s1elim", x, c, b, lv, lp):
            return ("s1elim", env[x], c, rename(b, env), env[lv], rename(lp, env))
    raise TypeError(e)


def _reverse_joins(c):
    match c:
        case ("or", parts):
            return ("or", tuple(_reverse_joins(p) for p in reversed(parts)))
    return c


def free_dims(t) -> set:
    return {d for d in DIMS if any(tok == d for tok in _tokens(nf_text(t)))}


def _tokens(text: str):
    return text.replace("(", " ").replace(")", " ").split()


# ---------------------------------------------------------------------------
# Random normal forms over CTX


class TermGen:
    """Random well-typed canonical normal forms over CTX, at a given depth.
    Binders are numbered per term: x<n> for terms, k<n> for intervals."""

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.bool_vars = ["b0"]
        self.fresh = itertools.count(1)
        self.binders: list[str] = []

    def _binder(self, stem: str) -> str:
        name = f"{stem}{next(self.fresh)}"
        self.binders.append(name)
        return name

    def dim(self) -> str:
        return self.rng.choice(DIMS)

    def iexpr(self) -> str:
        return self.dim() if self.rng.random() < 0.6 else self.rng.choice("01")

    def small_cof(self):
        a, b = self.rng.sample(DIMS, 2)
        return self.rng.choice([
            ("bot",), ("top",), ("eq", self.dim(), self.rng.choice("01")),
            ("eq", a, b), ("or", (("eq", a, "0"), ("eq", b, "1"))),
        ])

    # -- booleans ---------------------------------------------------------------

    def bool_nf(self, depth: int):
        if depth <= 0:
            return self.rng.choice([TRUE, FALSE, self.up_bool_var()])
        pick = self.rng.randrange(6)
        if pick < 3:
            return [TRUE, FALSE, self.up_bool_var()][pick]
        if pick == 3:
            return self.up_if(depth)
        if pick == 4:
            return self.up_app(depth)
        return self.papp_bool()

    def rigid_bool(self, depth: int, avoid: str | None = None):
        """A boolean whose root no interval substitution can change,
        drawn from a rigid head class other than `avoid`."""
        cls = self.rng.choice([c for c in ("true", "false", "var", "if", "app") if c != avoid])
        term = {"true": lambda: TRUE, "false": lambda: FALSE,
                "var": self.up_bool_var,
                "if": lambda: self.up_if(max(depth, 1)),
                "app": lambda: self.up_app(max(depth, 1))}[cls]()
        return cls, term

    def up_bool_var(self):
        return ("up", "bool", ("var", self.rng.choice(self.bool_vars)))

    def up_if(self, depth: int):
        x = self._binder("x")
        scrut = ("var", self.rng.choice(self.bool_vars))
        return ("up", "bool", ("if", x, "bool", scrut, self.bool_nf(depth - 1),
                               self.bool_nf(depth - 1)))

    def up_if_papp(self, tag: str, branch):
        """A case split on the path p0 at a dimension, at type `tag`."""
        x = self._binder("x")
        return ("up", tag, ("if", x, tag, ("papp", ("var", "p0"), self.dim()),
                            branch(), branch()))

    def up_app(self, depth: int):
        return ("up", "bool", ("app", ("var", "f0"), self.bool_nf(depth - 1)))

    def papp_bool(self):
        return ("up", "bool", ("papp", ("var", "p0"), self.dim()))

    # -- weak booleans and the circle -------------------------------------------

    def wbool_nf(self, depth: int):
        if depth <= 0:
            return self.rng.choice([TRUE, FALSE, ("up", "wbool", ("var", "w0"))])
        pick = self.rng.randrange(5)
        if pick == 0:
            return self.rng.choice([TRUE, FALSE])
        if pick == 1:
            return ("up", "wbool", ("var", "w0"))
        if pick == 4:
            return self.up_if_papp("wbool", lambda: self.wbool_nf(depth - 1))
        return self.hcomp_val("wbool", self.wbool_nf(depth - 1))

    def s1_nf(self, depth: int):
        if depth <= 0:
            return self.rng.choice([BASE, self.loop()])
        pick = self.rng.randrange(5)
        if pick == 0:
            return BASE
        if pick == 1:
            return self.loop()
        if pick == 2:
            return self.hcomp_val("s1", self.s1_nf(depth - 1))
        if pick == 4:
            return self.up_if_papp("s1", lambda: self.s1_nf(depth - 1))
        x, lv = self._binder("x"), self._binder("k")
        return ("up", "s1", ("s1elim", x, ("var", "c0"), self.s1_nf(depth - 1),
                             lv, self.s1_nf(depth - 1)))

    def loop(self):
        r = self.iexpr()
        return BASE if r in ("0", "1") else ("loop", r)

    def hcomp_val(self, kind: str, value):
        k = self._binder("k")
        return mk_hcomp(kind, self.iexpr(), self.iexpr(), self.small_cof(), k, value)

    # -- composite types ----------------------------------------------------------

    def fn_nf(self, depth: int):
        x = self._binder("x")
        self.bool_vars.append(x)
        body = self.bool_nf(depth - 1)
        self.bool_vars.pop()
        return ("lam", x, body)

    def pair_nf(self, depth: int):
        return ("pair", self.bool_nf(depth - 1), self.bool_nf(depth - 1))

    def path_nf(self, depth: int):
        # the eta-expansion of p0 is the one path the context offers
        k = self._binder("k")
        return ("plam", k, ("up", "bool", ("papp", ("var", "p0"), k)))

    def any_typed(self, depth: int, types=None):
        table = {T_BOOL: self.bool_nf, T_WBOOL: self.wbool_nf, T_S1: self.s1_nf,
                 T_FN: self.fn_nf, T_PAIR: self.pair_nf, T_PATH: self.path_nf}
        ty = self.rng.choice(types or list(table))
        return ty, table[ty](depth)

    def alpha_env(self) -> dict:
        """Fresh names for every binder handed out so far, sorting after
        the context dimensions like the originals."""
        return {b: b[0] + "r" + b[1:] for b in self.binders}


# ---------------------------------------------------------------------------
# Workload: gen-check


def gen_check(seed: int, index: int) -> tuple[str, list]:
    """Declarations in a fixed mix per twenty: twelve `nf`, six
    `assert-eq-nf` against an alpha-renamed or non-canonical partner, and
    two that must fail with a known kind. Terms are drawn at depths 2-5
    and cycle through the GEN_CHECK_BANDS of printed size. Expected entries
    are ("ok", None) or ("error", kind)."""
    rng = _rng("gen-check", seed, index)
    lines, expect = [], []
    for n in range(GEN_CHECK_DECLS):
        role = n % 10
        if role == 0:
            text, kind = _bad_decl(rng, TermGen(rng))
            lines.append(text.replace("NAME", f"bad{n}", 1))
            expect.append(("error", kind))
            continue
        band = GEN_CHECK_BANDS[n % len(GEN_CHECK_BANDS)]
        gen, ty, t = _sized(rng, band, lambda g: g.any_typed(rng.randrange(2, 6)))
        if role > 3:
            lines.append(f"(nf g{n} {CTX} {ty} {nf_text(t)})")
        else:
            partner = _equal_partner(rng, gen, ty, t)
            lines.append(f"(assert-eq-nf {CTX} {ty} {nf_text(t)} {partner})")
        expect.append(("ok", None))
    return "\n".join(lines) + "\n", expect


def _sized(rng: random.Random, band: tuple[int, int], draw, keep=lambda ty, t: True):
    """Redraw until the printed term falls in the size band (and `keep`
    accepts it). A fixed mix of sizes per file keeps the cost of a file
    steady from seed to seed; unbanded, a few exponentially large terms
    would decide it."""
    lo, hi = band
    while True:
        gen = TermGen(rng)
        ty, t = draw(gen)
        if lo <= len(nf_text(t)) < hi and keep(ty, t):
            return gen, ty, t


def _bad_decl(rng: random.Random, gen: TermGen):
    choice = rng.randrange(4)
    if choice == 0:
        return f"(nf NAME {CTX} bool (lam x true))", "rule-mismatch"
    if choice == 1:
        return f"(nf NAME {CTX} bool base)", "rule-mismatch"
    if choice == 2:
        d = gen.dim()
        return (f"(nf NAME {CTX} bool (up bool (papp p0 {d}) "
                f"(split ((= 0 {d}) false) ((= 1 {d}) true))))"), "side-condition-failed"
    cls, a = gen.rigid_bool(rng.randrange(1, 4))
    _, b = gen.rigid_bool(rng.randrange(1, 4), avoid=cls)
    return f"(assert-eq-nf {CTX} bool {nf_text(a)} {nf_text(b)})", "not-equal"


def _equal_partner(rng: random.Random, gen: TermGen, ty: str, t) -> str:
    """Text of a normal form equal to t but spelled differently: an
    alpha-variant, or (at the weak booleans and the circle) t under a
    composition with r = s that canonicalization must collapse."""
    if ty in (T_WBOOL, T_S1) and rng.random() < 0.5:
        r = gen.iexpr()
        k = gen._binder("k")
        return nf_text(("hcomp", ty, r, r, gen.small_cof(), k, t))
    return nf_text(rename(t, gen.alpha_env()))


# ---------------------------------------------------------------------------
# Workload: cof-boundary


def _var_names(k: int) -> list[str]:
    return [f"v{n}" for n in range(1, k + 1)]


def _atom(rng: random.Random, names: list[str]):
    if len(names) >= 2 and rng.random() < 0.4:
        a, b = rng.sample(names, 2)
        return ("eq", a, b)
    return ("eq", rng.choice(names), rng.choice("01"))


def _goal(rng: random.Random, names: list[str], depth: int):
    if depth == 0 or rng.random() < 0.25:
        return _atom(rng, names)
    op = rng.choice(("or", "and"))
    return (op, tuple(_goal(rng, names, depth - 1) for _ in range(rng.randrange(2, 4))))


def boundary_entailed(hyps: list, goal, names: list[str]) -> bool:
    """Reference: every boundary clause pins its variable to an endpoint,
    so the hypotheses hold only at endpoint assignments, and entailment is
    exactly truth of the goal at each assignment satisfying them."""
    for bits in itertools.product("01", repeat=len(names)):
        env = dict(zip(names, bits))
        if all(cof_eval(h, env) for h in hyps) and not cof_eval(goal, env):
            return False
    return True


def cof_boundary(seed: int, index: int) -> tuple[str, list]:
    """`assert-cof` declarations: hypotheses are the boundary of a k-cube
    plus 0, 1 or 2 two-atom clauses that may be diagonal, every (k, count)
    for k = 3..7 equally often; goals are random joins (or, one time in four, meets)
    of cofibrations over the same names, so about a quarter are entailed."""
    rng = _rng("cof-boundary", seed, index)
    lines, expect = [], []
    for n in range(COF_BOUNDARY_DECLS):
        names = _var_names(3 + n % 5)
        hyps = [("or", (("eq", v, "0"), ("eq", v, "1"))) for v in names]
        for _ in range((n // 5) % 3):
            hyps.append(("or", (_atom(rng, names), _atom(rng, names))))
        rng.shuffle(hyps)
        goal = (("or" if rng.random() < 0.75 else "and"),
                tuple(_goal(rng, names, 2) for _ in range(rng.randrange(2, 4))))
        lines.append("(assert-cof (hyps " + " ".join(cof_text(h) for h in hyps) + ") "
                     + cof_text(goal) + ")")
        expect.append(("ok", None) if boundary_entailed(hyps, goal, names)
                      else ("error", "cof-not-entailed"))
    return "\n".join(lines) + "\n", expect


# ---------------------------------------------------------------------------
# Workload: subst-eq


def subst_eq(seed: int, index: int) -> tuple[str, list]:
    """Pairs `(nf aN ...)`, `(nf bN ...)` of normal forms that contain a
    path application at the dimension i, so substituting for it
    destabilizes them, drawn equally often in each of SUBST_EQ_BANDS.
    Two pairs in three are equal (b is an alpha-variant of a, which
    differs from it in binder names); the rest differ in a rigid head at
    the root, which no substitution can change. Expected
    entries, one per (pair, target): (equal, text of a[i:=target])."""
    rng = _rng("subst-eq", seed, index)
    lines, expect = [], []
    for n in range(SUBST_EQ_PAIRS):
        equal = n % 3 != 2
        band = SUBST_EQ_BANDS[(n // 3) % len(SUBST_EQ_BANDS)]
        if equal:
            gen, ty, a = _sized(rng, band,
                                lambda g: g.any_typed(rng.randrange(3, 6), EQUAL_PAIR_TYPES),
                                lambda ty, t: "(papp p0 i)" in nf_text(t))
            b = rename(a, gen.alpha_env())
        else:
            pair = {}

            def draw(g):
                ty, a, pair["b"] = _unequal_pair(rng, g, rng.randrange(3, 6))
                return ty, a

            gen, ty, a = _sized(rng, band, draw, lambda ty, t: "(papp p0 i)" in nf_text(t)
                                and "i" in free_dims(pair["b"]))
            b = pair["b"]
        lines.append(f"(nf a{n} {CTX} {ty} {nf_text(a)})")
        lines.append(f"(nf b{n} {CTX} {ty} {nf_text(b)})")
        for target in SUBST_TARGETS:
            sub = {"i": target}
            expect.append((equal, nf_text(subst(a, sub))))
    return "\n".join(lines) + "\n", expect


def _unequal_pair(rng: random.Random, gen: TermGen, depth: int):
    """Booleans, functions or pairs whose first rigid head differs."""
    ty = rng.choice([T_BOOL, T_FN, T_PAIR])
    cls, a = gen.rigid_bool(depth - 1)
    _, b = gen.rigid_bool(depth - 1, avoid=cls)
    if ty == T_BOOL:
        return ty, a, b
    if ty == T_PAIR:
        snd = gen.bool_nf(depth - 1)
        return ty, ("pair", a, snd), ("pair", b, snd)
    x = gen._binder("x")
    return ty, ("lam", x, a), ("lam", x, b)


WORKLOADS = {"gen-check": gen_check, "cof-boundary": cof_boundary, "subst-eq": subst_eq}
