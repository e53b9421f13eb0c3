"""The normal-form checker: one method per rule of the grammar.

Checking is synthesis-directed for neutrals (returning the type and the
frontier) and type-directed for normal forms against a raw expected type.
Contexts must be cofibration-free at the point of checking a normal form;
declarations carrying assumptions are decomposed into splits first.

Equational side premises are discharged by normal-form equality where both
sides are normal forms, and by the fuel-bounded conversion oracle against
raw embeddings otherwise.  An Unknown verdict is a warning by default and
an error under strict mode.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import nf as N
from . import syntax as S
from .cof import (
    BOT,
    Branch,
    Cof,
    Eq,
    IVar,
    Join,
    Meet,
    ONE,
    ZERO,
    branch_of_eqs,
    cof_eq,
    cvars,
    dnf,
    entails,
    forall_elim,
    ivars,
)
from .convert import (
    DEFAULT_FUEL,
    FUEL_EXHAUSTED,
    NO,
    UNKNOWN,
    _Conv,
    _OutOfFuel,
    bounded_convert,
    bounded_convert_tp,
)
from .cof import TOP_BRANCH
from .engine import (
    NfSubst,
    embed,
    embed_ne,
    embed_netp,
    embed_tp,
    eq_nf,
    eq_nftp,
    subst_split_nf,
)
from .nf import Ne, Nf, NeTp, NfTp, up_frontier
from .syntax import Ctx, Name, Split, ctx_contract, fresh_name

Path = tuple[str, ...]


class CheckError(Exception):
    def __init__(self, kind: str, path: Path, message: str):
        super().__init__(f"{kind} at {'/'.join(path) or '<root>'}: {message}")
        self.kind = kind
        self.path = path
        self.message = message


class Undecided(CheckError):
    """Checking cannot go on past an unknown side condition, which has
    already been recorded as a warning.  The declaration is unknown, not
    rejected."""


@dataclass
class CheckWarning:
    kind: str
    path: Path
    message: str


@dataclass
class Checker:
    fuel: int = DEFAULT_FUEL
    strict: bool = False
    warnings: list[CheckWarning] = field(default_factory=list)

    # -- side conditions -----------------------------------------------------

    def _unknown(self, path: Path, message: str) -> None:
        if self.strict:
            raise CheckError("side-condition-unknown", path, message)
        self.warnings.append(CheckWarning("side-condition-unknown", path, message))

    def convert(self, ctx: Ctx, a: S.Tm, b: S.Tm, path: Path, what: str) -> None:
        v = bounded_convert(ctx, a, b, self.fuel)
        if v.kind == NO:
            raise CheckError("side-condition-failed", path, what)
        if v.kind == UNKNOWN:
            self._unknown(path, f"{what} ({v.reason})")

    def convert_tp(self, ctx: Ctx, a: S.Tp, b: S.Tp, path: Path, what: str,
                   kind: str = "side-condition-failed") -> None:
        v = bounded_convert_tp(ctx, a, b, self.fuel)
        if v.kind == NO:
            raise CheckError(kind, path, what)
        if v.kind == UNKNOWN:
            self._unknown(path, f"{what} ({v.reason})")

    def _whnf_tp(self, ctx: Ctx, ty: S.Tp, path: Path) -> S.Tp:
        """Weak-head reduce a type.  Out of fuel, its head is unknown, so
        checking stops here with an unknown side condition instead of
        judging the unreduced type."""
        conv = _Conv(ctx, TOP_BRANCH, self.fuel)
        try:
            return conv.whnf_tp(ty)
        except _OutOfFuel:
            message = f"weak-head reduction of the type ({FUEL_EXHAUSTED})"
            self._unknown(path, message)
            raise Undecided("side-condition-unknown", path, message)

    def _scope_ie(self, ctx: Ctx, r, path: Path) -> None:
        for n in ivars(r):
            if not ctx.has_ivar(n):
                raise CheckError("rule-mismatch", path, f"unbound interval variable {n}")

    def _scope_cof(self, ctx: Ctx, phi: Cof, path: Path) -> None:
        for n in cvars(phi):
            if not ctx.has_ivar(n):
                raise CheckError("rule-mismatch", path, f"unbound interval variable {n}")

    # -- splits ----------------------------------------------------------------

    def check_split(self, ctx: Ctx, phi: Cof, sp: Split, check_leaf, eq_leaf,
                    path: Path) -> None:
        """Validate a decomposition against the canonical DNF of phi:
        branch-for-branch shape, each payload in its contracted context,
        and agreement wherever two branches overlap."""
        want = dnf(phi)
        if sp.branches() != want:
            raise CheckError("wrong-shape", path,
                             "split shape disagrees with the canonical decomposition")
        contracted: list[tuple[Branch, Ctx]] = []
        for idx, case in enumerate(sp.cases):
            ctx2, sub = ctx_contract(ctx, case.branch)
            contracted.append((case.branch, ctx2))
            check_leaf(ctx2, case.branch, sub, case.payload, path + (f"case{idx}",))
        for i in range(len(sp.cases)):
            for j in range(i + 1, len(sp.cases)):
                bi, bj = sp.cases[i].branch, sp.cases[j].branch
                merged = branch_of_eqs(bi.atoms + bj.atoms)
                if not merged.consistent:
                    continue
                pi = self._restrict(ctx, bi, merged, sp.cases[i].payload)
                pj = self._restrict(ctx, bj, merged, sp.cases[j].payload)
                ctx_m, _ = ctx_contract(ctx, merged)
                if not eq_leaf(ctx_m, pi, pj):
                    raise CheckError("overlap-disagreement", path + (f"case{i}~case{j}",),
                                     "overlapping split branches disagree")

    def _restrict(self, ctx: Ctx, branch: Branch, merged: Branch, payload):
        tau: dict[Name, object] = {}
        names: set[Name] = set()
        for cls in merged.classes:
            for e in cls:
                if isinstance(e, IVar):
                    names.add(e.name)
        for v in names:
            img = merged.rep(IVar(v))
            if img != IVar(v):
                tau[v] = img
        sub = NfSubst(tau, [])
        if isinstance(payload, Nf):
            return sub.nf(payload)
        if isinstance(payload, NfTp):
            return sub.nftp(payload)
        raise TypeError(f"cannot restrict payload: {payload!r}")

    # -- neutral forms -----------------------------------------------------------

    def check_ne(self, ctx: Ctx, e: Ne, path: Path,
                 expected: S.Tp | None = None) -> tuple[S.Tp, Cof]:
        match e:
            case N.NVar(x):
                ty = ctx.lookup_tm(x)
                if ty is None:
                    raise CheckError("rule-mismatch", path, f"unbound variable {x}")
                return ty, BOT
            case N.NApp(f, a):
                tf, phi = self.check_ne(ctx, f, path + ("fn",))
                tf = self._whnf_tp(ctx, tf, path)
                if not isinstance(tf, S.Pi):
                    raise CheckError("rule-mismatch", path, "application head is not a function")
                self.check_nf(ctx, a, tf.dom, path + ("arg",))
                return S.subst_tp(tf.cod, tf.var, embed(a)), phi
            case N.NFst(p):
                tp, phi = self.check_ne(ctx, p, path + ("pair",))
                tp = self._whnf_tp(ctx, tp, path)
                if not isinstance(tp, S.Sigma):
                    raise CheckError("rule-mismatch", path, "projection from a non-pair type")
                return tp.dom, phi
            case N.NSnd(p):
                tp, phi = self.check_ne(ctx, p, path + ("pair",))
                tp = self._whnf_tp(ctx, tp, path)
                if not isinstance(tp, S.Sigma):
                    raise CheckError("rule-mismatch", path, "projection from a non-pair type")
                return S.subst_tp(tp.cod, tp.var, S.Fst(embed_ne(p))), phi
            case N.NIf(x, motive, scrut, on_true, on_false):
                tb, phi = self.check_ne(ctx, scrut, path + ("scrut",))
                tb = self._whnf_tp(ctx, tb, path)
                if not isinstance(tb, S.Bool):
                    raise CheckError("rule-mismatch", path, "if-scrutinee is not a boolean")
                self.check_nftp(ctx.extend_tm(x, S.BOOL), motive, path + ("motive",))
                praw = embed_tp(motive)
                self.check_nf(ctx, on_true, S.subst_tp(praw, x, S.TRUE), path + ("true",))
                self.check_nf(ctx, on_false, S.subst_tp(praw, x, S.FALSE), path + ("false",))
                return S.subst_tp(praw, x, embed_ne(scrut)), phi
            case N.NPApp(p, r):
                tp, phi = self.check_ne(ctx, p, path + ("fn",))
                tp = self._whnf_tp(ctx, tp, path)
                if not isinstance(tp, S.Path):
                    raise CheckError("rule-mismatch", path, "path application head is not a path")
                self._scope_ie(ctx, r, path)
                return (S.subst_i_tp(tp.ty, tp.var, r),
                        Join((phi, Eq(r, ZERO), Eq(r, ONE))))
            case N.NUnglue(phi_ann, g):
                tg, psi = self.check_ne(ctx, g, path + ("arg",))
                tg = self._whnf_tp(ctx, tg, path)
                if not isinstance(tg, S.GlueTp):
                    raise CheckError("rule-mismatch", path, "unglue of a non-glue type")
                if not cof_eq(ctx.cof_hyps(), phi_ann, tg.phi):
                    raise CheckError("frontier-mismatch", path,
                                     "unglue annotation differs from the glue cofibration")
                return tg.base, Join((psi, phi_ann))
            case N.NS1Elim(x, motive, scrut, on_base, lv, on_loop):
                tt, phi = self.check_ne(ctx, scrut, path + ("scrut",))
                tt = self._whnf_tp(ctx, tt, path)
                if not isinstance(tt, S.S1):
                    raise CheckError("rule-mismatch", path, "circle eliminator scrutinee is not in the circle")
                self.check_nftp(ctx.extend_tm(x, S.CIRCLE), motive, path + ("motive",))
                praw = embed_tp(motive)
                self.check_nf(ctx, on_base, S.subst_tp(praw, x, S.BASE), path + ("base",))
                self.check_nf(ctx.extend_i(lv), on_loop,
                              S.subst_tp(praw, x, S.Loop(IVar(lv))), path + ("loop",))
                return S.subst_tp(praw, x, embed_ne(scrut)), phi
            case N.NStar(phi):
                self._scope_cof(ctx, phi, path)
                if not entails(ctx.cof_hyps(), phi):
                    raise CheckError("rule-mismatch", path,
                                     "star requires its cofibration to hold")
                if expected is None:
                    raise CheckError("rule-mismatch", path,
                                     "star cannot synthesize a type")
                return expected, phi
        raise CheckError("rule-mismatch", path, f"not a neutral form: {e!r}")

    def check_netp(self, ctx: Ctx, t: NeTp, path: Path) -> Cof:
        match t:
            case N.NEl(c):
                tc, phi = self.check_ne(ctx, c, path + ("code",), expected=S.UNIV)
                tc = self._whnf_tp(ctx, tc, path)
                if not isinstance(tc, S.U):
                    raise CheckError("rule-mismatch", path, "el of a non-universe code")
                return phi
        raise CheckError("rule-mismatch", path, f"not a neutral type: {t!r}")

    # -- decay compatibility of a backup with its neutral ------------------------

    def _check_backup_against(self, ctx: Ctx, governing: Cof, backup: Split,
                              raw_target: S.Tm, ty: S.Tp, path: Path,
                              what: str) -> None:
        """For each branch of the frontier: contract, let the raw embedding
        decay, and compare with the backup payload."""
        if backup.branches() != dnf(governing):
            raise CheckError("backup-domain-mismatch", path,
                             f"{what} does not span its frontier")
        self.check_split(
            ctx, governing, backup,
            check_leaf=lambda ctx2, br, sub, payload, p2: self._backup_leaf(
                ctx2, sub, payload, raw_target, ty, p2, what),
            eq_leaf=eq_nf,
            path=path,
        )

    def _backup_leaf(self, ctx2: Ctx, sub, payload, raw_target: S.Tm,
                     ty: S.Tp, path: Path, what: str) -> None:
        ty2 = S.isubst_tp_par(ty, sub)
        self.check_nf(ctx2, payload, ty2, path)
        decayed = S.RawSubst({}, sub).tm(raw_target)
        self.convert(ctx2, embed(payload), decayed, path, f"{what} must agree with the decayed neutral")

    # -- normal forms -------------------------------------------------------------

    def check_nf(self, ctx: Ctx, t: Nf, ty: S.Tp, path: Path = ()) -> None:
        assert not ctx.cof_hyps(), "normal forms are checked in cofibration-free contexts"
        ty_w = self._whnf_tp(ctx, ty, path)
        match t:
            case N.NLam(x, body):
                if not isinstance(ty_w, S.Pi):
                    raise CheckError("rule-mismatch", path, "lambda against a non-function type")
                self.check_nf(ctx.extend_tm(x, ty_w.dom), body,
                              S.subst_tp(ty_w.cod, ty_w.var, S.Var(x)), path + ("body",))
            case N.NPair(a, b):
                if not isinstance(ty_w, S.Sigma):
                    raise CheckError("rule-mismatch", path, "pair against a non-pair type")
                self.check_nf(ctx, a, ty_w.dom, path + ("fst",))
                self.check_nf(ctx, b, S.subst_tp(ty_w.cod, ty_w.var, embed(a)),
                              path + ("snd",))
            case N.NTrue() | N.NFalse():
                if not isinstance(ty_w, (S.Bool, S.WBool)):
                    raise CheckError("rule-mismatch", path, "boolean constructor at a non-boolean type")
            case N.NCode(inner):
                if not isinstance(ty_w, S.U):
                    raise CheckError("rule-mismatch", path, "code constructor outside the universe")
                self.check_nftp(ctx, inner, path + ("ty",))
            case N.NPLam(i, body):
                if not isinstance(ty_w, S.Path):
                    raise CheckError("rule-mismatch", path, "path lambda against a non-path type")
                z = fresh_name(i, ctx.names() | S.free_ivars(ty_w) | N.free_ivars_nf(body))
                body2 = NfSubst({i: IVar(z)}, []).nf(body) if z != i else body
                line = S.subst_i_tp(ty_w.ty, ty_w.var, IVar(z))
                self.check_nf(ctx.extend_i(z), body2, line, path + ("body",))
                for end, want, side in ((ZERO, ty_w.left, "left"), (ONE, ty_w.right, "right")):
                    val = NfSubst({z: end}, []).nf(body2)
                    self.convert(ctx, embed(val), want, path + (side,),
                                 "path boundary must match the endpoint")
            case N.NGlueIntro(phi, base, part):
                if not isinstance(ty_w, S.GlueTp):
                    raise CheckError("rule-mismatch", path, "glue constructor against a non-glue type")
                if not cof_eq(ctx.cof_hyps(), phi, ty_w.phi):
                    raise CheckError("rule-mismatch", path,
                                     "glue cofibration differs from the type's")
                self.check_nf(ctx, base, ty_w.base, path + ("base",))
                if part.branches() != dnf(phi):
                    raise CheckError("backup-domain-mismatch", path,
                                     "glue partial element does not span its cofibration")
                partial_tp = dict(zip(ty_w.partial.branches(),
                                      (c.payload for c in ty_w.partial.cases)))
                equiv_tm = dict(zip(ty_w.equiv.branches(),
                                    (c.payload for c in ty_w.equiv.cases)))

                def leaf(ctx2, br, sub, payload, p2):
                    a_ty = partial_tp.get(br)
                    if a_ty is None:
                        raise CheckError("wrong-shape", p2, "glue type data misses this branch")
                    self.check_nf(ctx2, payload, a_ty, p2)
                    ev = equiv_tm.get(br)
                    if ev is not None:
                        lhs = S.RawSubst({}, sub).tm(embed(base))
                        rhs = S.App(S.Fst(ev), embed(payload))
                        self.convert(ctx2, lhs, rhs, p2,
                                     "glued element must match the equivalence image")

                self.check_split(ctx, phi, part, leaf, eq_nf, path + ("part",))
            case N.NBase():
                if not isinstance(ty_w, S.S1):
                    raise CheckError("rule-mismatch", path, "base outside the circle")
            case N.NLoop(r):
                if not isinstance(ty_w, S.S1):
                    raise CheckError("rule-mismatch", path, "loop outside the circle")
                self._scope_ie(ctx, r, path)
            case N.NHCompVal(kind, r, s, phi, i, tube):
                ok = (kind == N.KIND_WBOOL and isinstance(ty_w, S.WBool)) or \
                     (kind == N.KIND_S1 and isinstance(ty_w, S.S1))
                if not ok:
                    raise CheckError("rule-mismatch", path,
                                     "value composition only inhabits the weak booleans and the circle")
                self._check_comp_tube(ctx, ty_w, r, s, phi, i, tube, path)
            case N.NHCompStuck(ty_ne, r, s, phi, i, tube, backup):
                psi = self.check_netp(ctx, ty_ne, path + ("ty",))
                a_raw = embed_netp(ty_ne)
                self.convert_tp(ctx, a_raw, ty_w, path,
                                "stuck composition type must match", kind="rule-mismatch")
                self._check_comp_tube(ctx, a_raw, r, s, phi, i, tube, path)
                whole = S.HComp(a_raw, r, s, phi, i,
                                S.CaseSplit(tuple((c.branch.to_cof(), embed(c.payload))
                                                  for c in tube.cases)))
                self._check_backup_against(ctx, psi, backup, whole, a_raw,
                                           path + ("backup",), "composition stabilizer")
                self._check_comp_overlap(ctx, psi, backup, r, s, phi, i, tube, path)
            case N.NCoeStuck(i, ty_ne, r, s, tm, backup):
                self._scope_ie(ctx, r, path)
                self._scope_ie(ctx, s, path)
                z = fresh_name(i, ctx.names() | N.free_ivars_nf(ty_ne))
                ty_ne2 = NfSubst({i: IVar(z)}, []).netp(ty_ne) if z != i else ty_ne
                phi = self.check_netp(ctx.extend_i(z), ty_ne2, path + ("ty",))
                a_line = embed_netp(ty_ne2)
                self.convert_tp(ctx, S.subst_i_tp(a_line, z, s), ty_w, path,
                                "coercion target type must match", kind="rule-mismatch")
                self.check_nf(ctx, tm, S.subst_i_tp(a_line, z, r), path + ("tm",))
                fa = forall_elim(z, phi)
                whole = S.Coe(z, a_line, r, s, embed(tm))
                self._check_backup_against(ctx, fa, backup, whole,
                                           S.subst_i_tp(a_line, z, s),
                                           path + ("backup",), "coercion stabilizer")
                self._check_coe_overlap(ctx, fa, backup, tm, r, s, path)
            case N.NUp(tag, ne, tpne, backup):
                self._check_up(ctx, t, ty_w, path)
            case _:
                raise CheckError("rule-mismatch", path, f"not a normal form: {t!r}")

    def _check_up(self, ctx: Ctx, t: "N.NUp", ty_w: S.Tp, path: Path) -> None:
        tag, ne, tpne, backup = t.tag, t.ne, t.tpne, t.backup
        if isinstance(ty_w, S.U):
            raise CheckError("rule-mismatch", path,
                             "no neutral-to-normal conversion at the universe")
        want_tag = None
        if isinstance(ty_w, S.Bool):
            want_tag = N.TAG_BOOL
        elif isinstance(ty_w, S.WBool):
            want_tag = N.TAG_WBOOL
        elif isinstance(ty_w, S.S1):
            want_tag = N.TAG_S1
        elif isinstance(ty_w, S.El):
            want_tag = N.TAG_EL
        if want_tag is None or tag != want_tag:
            raise CheckError("rule-mismatch", path,
                             f"stabilized conversion tagged {tag} against {ty_w!r}")
        if tag == N.TAG_EL:
            if tpne is None:
                raise CheckError("rule-mismatch", path, "el-tagged conversion needs its neutral type")
            self.check_netp(ctx, tpne, path + ("tpne",))
            self.convert_tp(ctx, embed_netp(tpne), ty_w, path,
                            "stabilized neutral type must match", kind="rule-mismatch")
        elif tpne is not None:
            raise CheckError("rule-mismatch", path, "only el-tagged conversions carry a neutral type")
        ty_syn, _ = self.check_ne(ctx, ne, path + ("ne",), expected=ty_w)
        self.convert_tp(ctx, ty_syn, ty_w, path,
                        "neutral synthesizes a different type", kind="rule-mismatch")
        f = up_frontier(tag, ne, tpne)
        if isinstance(ne, N.NStar):
            # the collapsed neutral equals everything on its (true) frontier;
            # only the backup's own well-formedness remains
            if backup.branches() != dnf(f):
                raise CheckError("backup-domain-mismatch", path + ("backup",),
                                 "stabilization backup does not span its frontier")

            def leaf(ctx2, br, sub, payload, p2):
                self.check_nf(ctx2, payload, S.isubst_tp_par(ty_w, sub), p2)

            self.check_split(ctx, f, backup, leaf, eq_nf, path + ("backup",))
        else:
            self._check_backup_against(ctx, f, backup, embed_ne(ne), ty_w,
                                       path + ("backup",), "stabilization backup")

    def _check_comp_tube(self, ctx: Ctx, a_raw: S.Tp, r, s, phi: Cof, i: Name,
                         tube: Split, path: Path) -> None:
        self._scope_ie(ctx, r, path)
        self._scope_ie(ctx, s, path)
        self._scope_cof(ctx, phi, path)
        ctx_i = ctx.extend_i(i)
        governing = Join((Eq(IVar(i), r), phi))

        def leaf(ctx2, br, sub, payload, p2):
            self.check_nf(ctx2, payload, S.isubst_tp_par(a_raw, sub), p2)

        self.check_split(ctx_i, governing, tube, leaf, eq_nf, path + ("tube",))

    def _check_comp_overlap(self, ctx: Ctx, psi: Cof, backup: Split, r, s,
                            phi: Cof, i: Name, tube: Split, path: Path) -> None:
        """The stabilizer must restrict to the tube value wherever the
        composition would already have collapsed."""
        for bi, case in enumerate(backup.cases):
            ctx_b, sub_b = ctx_contract(ctx, case.branch)
            ov = Join((Eq(S.isubst_par(r, sub_b), S.isubst_par(s, sub_b)),
                       S.csubst_par(phi, sub_b)))
            tube_b = subst_split_nf([], tube, sub_b)
            tube_at = subst_split_nf([], tube_b, {i: S.isubst_par(s, sub_b)})
            for c in dnf(ov):
                pb = NfSubst(_branch_sub(c), []).nf(case.payload)
                tv_split = subst_split_nf([], tube_at, _branch_sub(c))
                tv = tv_split.total_value()
                if tv is None:
                    from .nf import split_select
                    tv = split_select([c.to_cof()], tube_at)
                ctx_bc, _ = ctx_contract(ctx_b, c)
                if tv is None:
                    self._unknown(path + (f"backup-case{bi}",),
                                  "cannot determine the collapsed tube value")
                    continue
                if not eq_nf(ctx_bc, pb, tv):
                    raise CheckError("side-condition-failed", path + (f"backup-case{bi}",),
                                     "stabilizer disagrees with the collapsed composition")

    def _check_coe_overlap(self, ctx: Ctx, fa: Cof, backup: Split, tm: Nf,
                           r, s, path: Path) -> None:
        for bi, case in enumerate(backup.cases):
            ctx_b, sub_b = ctx_contract(ctx, case.branch)
            rs = Eq(S.isubst_par(r, sub_b), S.isubst_par(s, sub_b))
            tm_b = NfSubst(sub_b, []).nf(tm)
            for c in dnf(rs):
                pb = NfSubst(_branch_sub(c), []).nf(case.payload)
                tm_bc = NfSubst(_branch_sub(c), []).nf(tm_b)
                ctx_bc, _ = ctx_contract(ctx_b, c)
                if not eq_nf(ctx_bc, pb, tm_bc):
                    raise CheckError("side-condition-failed", path + (f"backup-case{bi}",),
                                     "coercion stabilizer disagrees with the argument on r = s")

    # -- normal types ---------------------------------------------------------

    def check_nftp(self, ctx: Ctx, t: NfTp, path: Path = ()) -> None:
        match t:
            case N.TBool() | N.TWBool() | N.TS1() | N.TU():
                return
            case N.TPi(x, dom, cod) | N.TSigma(x, dom, cod):
                self.check_nftp(ctx, dom, path + ("dom",))
                self.check_nftp(ctx.extend_tm(x, embed_tp(dom)), cod, path + ("cod",))
            case N.TPath(i, ty, l, r):
                z = fresh_name(i, ctx.names() | N.free_ivars_nf(ty))
                ty2 = NfSubst({i: IVar(z)}, []).nftp(ty) if z != i else ty
                self.check_nftp(ctx.extend_i(z), ty2, path + ("line",))
                line = embed_tp(ty2)
                self.check_nf(ctx, l, S.subst_i_tp(line, z, ZERO), path + ("left",))
                self.check_nf(ctx, r, S.subst_i_tp(line, z, ONE), path + ("right",))
            case N.TGlue(phi, base, partial, equiv):
                self._scope_cof(ctx, phi, path)
                self.check_nftp(ctx, base, path + ("base",))
                if partial.branches() != dnf(phi) or equiv.branches() != dnf(phi):
                    raise CheckError("backup-domain-mismatch", path,
                                     "glue data does not span its cofibration")

                def leaf(ctx2, br, sub, payload, p2):
                    self.check_nftp(ctx2, payload, p2)

                self.check_split(ctx, phi, partial, leaf, eq_nftp, path + ("partial",))
                # equivalence witnesses are deliberately opaque: scope-checked
                # at parse time, never inspected structurally
            case N.TUp(ne, backup):
                phi = self.check_netp(ctx, ne, path + ("ne",))
                if backup.branches() != dnf(phi):
                    raise CheckError("backup-domain-mismatch", path,
                                     "type stabilization backup does not span its frontier")

                def tleaf(ctx2, br, sub, payload, p2):
                    self.check_nftp(ctx2, payload, p2)
                    decayed = S.RawSubst({}, sub).tp(embed_netp(ne))
                    self.convert_tp(ctx2, embed_tp(payload), decayed, p2,
                                    "type backup must agree with the decayed neutral type")

                self.check_split(ctx, phi, backup, tleaf, eq_nftp, path + ("backup",))
            case _:
                raise CheckError("rule-mismatch", path, f"not a normal type: {t!r}")


def _branch_sub(branch: Branch) -> dict[Name, object]:
    return branch.subst_map()


# ---------------------------------------------------------------------------
# Declaration-level checking: decompose cofibration assumptions up front


def check_declared_nf(checker: Checker, ctx: Ctx, term, ty: S.Tp,
                      path: Path = ()) -> None:
    """Check an `nf` declaration body.  Contexts with cofibration
    assumptions are decomposed into a split over their conjunction, with
    each payload checked in the contracted context at the contracted type."""
    hyps = ctx.cof_hyps()
    if not hyps:
        if isinstance(term, Split):
            raise CheckError("wrong-shape", path,
                             "split body needs a cofibration assumption in the context")
        checker.check_nf(ctx, term, ty, path)
        return
    if not isinstance(term, Split):
        raise CheckError("wrong-shape", path,
                         "context assumptions require an up-front split body")
    base = ctx.drop_cofs()
    phi = Meet(tuple(hyps))

    def leaf(ctx2, br, sub, payload, p2):
        checker.check_nf(ctx2, payload, S.isubst_tp_par(ty, sub), p2)

    checker.check_split(base, phi, term, leaf, eq_nf, path)
