"""Normal and neutral forms with frontiers of instability.

Neutral forms are eliminator spines whose head is a variable (or the
collapsed neutral `star`); each carries a computable frontier: the
cofibration under which it stops being stuck and decays.  Normal forms
package neutrals with backup values spanning their frontier, so interval
substitution can always proceed.

Frontiers are computed, never stored (except the glue annotation on
unglue, whose frontier contribution comes from the type and must travel
with the term).
"""

from __future__ import annotations

from dataclasses import dataclass

from .cof import BOT, Cof, Eq, IExpr, IVar, Join, ONE, ZERO, cvars, ivars
from .syntax import Name, Split

# tags for the stabilized conversion: the eta-free types
TAG_BOOL = "bool"
TAG_WBOOL = "wbool"
TAG_S1 = "s1"
TAG_EL = "el"

KIND_WBOOL = "wbool"
KIND_S1 = "s1"


# ---------------------------------------------------------------------------
# Neutral terms


@dataclass(frozen=True)
class Ne:
    pass


@dataclass(frozen=True)
class NVar(Ne):
    name: Name


@dataclass(frozen=True)
class NApp(Ne):
    fn: Ne
    arg: "Nf"


@dataclass(frozen=True)
class NFst(Ne):
    pair: Ne


@dataclass(frozen=True)
class NSnd(Ne):
    pair: Ne


@dataclass(frozen=True)
class NIf(Ne):
    var: Name              # binds in motive only
    motive: "NfTp"
    scrut: Ne
    on_true: "Nf"
    on_false: "Nf"


@dataclass(frozen=True)
class NPApp(Ne):
    fn: Ne
    arg: IExpr


@dataclass(frozen=True)
class NUnglue(Ne):
    glue_cof: Cof          # the cofibration of the glue type, rechecked by the checker
    tm: Ne


@dataclass(frozen=True)
class NS1Elim(Ne):
    var: Name              # binds in motive only
    motive: "NfTp"
    scrut: Ne
    on_base: "Nf"
    lvar: Name             # binds in on_loop
    on_loop: "Nf"


@dataclass(frozen=True)
class NStar(Ne):
    phi: Cof


# ---------------------------------------------------------------------------
# Normal terms


@dataclass(frozen=True)
class Nf:
    pass


@dataclass(frozen=True)
class NLam(Nf):
    var: Name
    body: Nf


@dataclass(frozen=True)
class NPair(Nf):
    fst: Nf
    snd: Nf


@dataclass(frozen=True)
class NTrue(Nf):
    pass


@dataclass(frozen=True)
class NFalse(Nf):
    pass


@dataclass(frozen=True)
class NCode(Nf):
    ty: "NfTp"


@dataclass(frozen=True)
class NPLam(Nf):
    var: Name
    body: Nf


@dataclass(frozen=True)
class NGlueIntro(Nf):
    phi: Cof
    base: Nf
    part: Split            # of Nf, over phi


@dataclass(frozen=True)
class NBase(Nf):
    pass


@dataclass(frozen=True)
class NLoop(Nf):
    arg: IExpr


@dataclass(frozen=True)
class NHCompVal(Nf):
    kind: str              # wbool | s1
    src: IExpr
    dst: IExpr
    phi: Cof
    var: Name              # binds in tube
    tube: Split            # of Nf, over (var = src) \/ phi


@dataclass(frozen=True)
class NHCompStuck(Nf):
    ty: "NeTp"
    src: IExpr
    dst: IExpr
    phi: Cof
    var: Name              # binds in tube
    tube: Split            # of Nf, over (var = src) \/ phi
    backup: Split          # of Nf, over frontier(ty)


@dataclass(frozen=True)
class NCoeStuck(Nf):
    var: Name              # binds in ty
    ty: "NeTp"
    src: IExpr
    dst: IExpr
    tm: Nf
    backup: Split          # of Nf, over forall var. frontier(ty)


@dataclass(frozen=True)
class NUp(Nf):
    tag: str               # bool | wbool | s1 | el
    ne: Ne
    tpne: "NeTp | None"    # present exactly when tag == el
    backup: Split          # of Nf, over the joined frontier


NF_TRUE, NF_FALSE, NF_BASE = NTrue(), NFalse(), NBase()


# ---------------------------------------------------------------------------
# Neutral and normal types


@dataclass(frozen=True)
class NeTp:
    pass


@dataclass(frozen=True)
class NEl(NeTp):
    code: Ne


@dataclass(frozen=True)
class NfTp:
    pass


@dataclass(frozen=True)
class TPi(NfTp):
    var: Name
    dom: NfTp
    cod: NfTp


@dataclass(frozen=True)
class TSigma(NfTp):
    var: Name
    dom: NfTp
    cod: NfTp


@dataclass(frozen=True)
class TBool(NfTp):
    pass


@dataclass(frozen=True)
class TWBool(NfTp):
    pass


@dataclass(frozen=True)
class TS1(NfTp):
    pass


@dataclass(frozen=True)
class TU(NfTp):
    pass


@dataclass(frozen=True)
class TPath(NfTp):
    var: Name              # binds in ty only
    ty: NfTp
    left: Nf
    right: Nf


@dataclass(frozen=True)
class TGlue(NfTp):
    phi: Cof
    base: NfTp
    partial: Split         # of NfTp, over phi
    equiv: Split           # of opaque raw Tm, over phi (never inspected)


@dataclass(frozen=True)
class TUp(NfTp):
    ne: NeTp
    backup: Split          # of NfTp, over frontier(ne)


T_BOOL, T_WBOOL, T_S1, T_U = TBool(), TWBool(), TS1(), TU()


# ---------------------------------------------------------------------------
# Frontier of instability


def frontier(e: Ne) -> Cof:
    """The cofibration under which a neutral destabilizes.

    Variables are never unstable; eliminators pass the head's frontier
    along; path application adds its endpoint equations; unglue adds the
    glue cofibration; star's frontier is its own cofibration.
    """
    match e:
        case NVar(_):
            return BOT
        case NApp(fn, _):
            return frontier(fn)
        case NFst(p) | NSnd(p):
            return frontier(p)
        case NIf(_, _, scrut, _, _):
            return frontier(scrut)
        case NPApp(fn, r):
            return Join((frontier(fn), Eq(r, ZERO), Eq(r, ONE)))
        case NUnglue(phi, tm):
            return Join((frontier(tm), phi))
        case NS1Elim(_, _, scrut, _, _, _):
            return frontier(scrut)
        case NStar(phi):
            return phi
    raise TypeError(f"not a neutral: {e!r}")


def netp_frontier(t: NeTp) -> Cof:
    match t:
        case NEl(code):
            return frontier(code)
    raise TypeError(f"not a neutral type: {t!r}")


def up_frontier(tag: str, ne: Ne, tpne: NeTp | None) -> Cof:
    """The backup of a stabilized conversion spans the neutral's frontier,
    joined with the type's frontier at a neutral type."""
    if tag == TAG_EL:
        assert tpne is not None
        return Join((netp_frontier(tpne), frontier(ne)))
    return frontier(ne)


# ---------------------------------------------------------------------------
# Size metric (termination instrumentation for the directed rewrites)


def size(x) -> int:
    match x:
        case IExpr():
            return 1
        case Cof():
            return 1 + len(cvars(x))
        case Split(cases):
            return 1 + sum(len(c.branch.atoms) + size(c.payload) for c in cases)
        case None:
            return 0
        case str():
            return 0
        case _:
            total = 1
            for f in vars(x).values():
                if isinstance(f, (Nf, Ne, NfTp, NeTp, Split, IExpr, Cof)):
                    total += size(f)
            return total


# ---------------------------------------------------------------------------
# Free interval variables (for binder freshening during substitution)


def free_ivars_nf(x) -> set[Name]:
    out: set[Name] = set()

    def go(v, bound: frozenset[Name]):
        match v:
            case IExpr():
                out.update(n for n in ivars(v) if n not in bound)
            case Cof():
                out.update(n for n in cvars(v) if n not in bound)
            case Split(cases):
                for c in cases:
                    for a, b in c.branch.atoms:
                        go(a, bound)
                        go(b, bound)
                    go(c.payload, bound)
            case NPLam(i, body):
                go(body, bound | {i})
            case TPath(i, ty, l, r):
                go(ty, bound | {i})
                go(l, bound)
                go(r, bound)
            case NHCompVal(_, src, dst, phi, i, tube):
                go(src, bound)
                go(dst, bound)
                go(phi, bound)
                go(tube, bound | {i})
            case NHCompStuck(ty, src, dst, phi, i, tube, backup):
                go(ty, bound)
                go(src, bound)
                go(dst, bound)
                go(phi, bound)
                go(tube, bound | {i})
                go(backup, bound)
            case NCoeStuck(i, ty, src, dst, tm, backup):
                go(ty, bound | {i})
                go(src, bound)
                go(dst, bound)
                go(tm, bound)
                go(backup, bound)
            case NS1Elim(_, motive, scrut, b, lv, l):
                go(motive, bound)
                go(scrut, bound)
                go(b, bound)
                go(l, bound | {lv})
            case _ if isinstance(v, (Nf, Ne, NfTp, NeTp)):
                for f in vars(v).values():
                    if isinstance(f, (Nf, Ne, NfTp, NeTp, Split, IExpr, Cof)):
                        go(f, bound)
            case _:
                pass

    go(x, frozenset())
    return out


# ---------------------------------------------------------------------------
# Smart constructors: every destabilization equation, applied at build time

# rewrite-step instrumentation; canon asserts strict size decrease per step
REWRITE_STEPS = [0]


class BackupDomainError(Exception):
    kind = "backup-domain-mismatch"


def split_select(hyps: list[Cof], sp: Split):
    """The payload of the first case whose branch is entailed, if any.
    In a cofibration-free context this is exactly the unconstrained case."""
    from .cof import entails
    for case in sp.cases:
        # an unconstrained case needs no query
        if not case.branch.atoms or entails(hyps, case.branch.to_cof()):
            return case.payload
    return None


def check_backup_domain(backup: Split, phi: Cof, what: str) -> None:
    from .cof import dnf
    if backup.branches() != dnf(phi):
        raise BackupDomainError(f"{what} does not span its governing cofibration")


def _took_step(old, new) -> None:
    REWRITE_STEPS[0] += 1
    assert size(new) < size(old), f"rewrite did not shrink: {old!r} -> {new!r}"


def _tube_value_at(hyps: list[Cof], var: Name, tube: Split, dst: IExpr):
    from .engine import subst_split_nf
    moved = subst_split_nf(hyps, tube, {var: dst})
    return split_select(hyps, moved)


def mk_loop(arg: IExpr) -> Nf:
    if arg == ZERO or arg == ONE:
        node = NLoop(arg)
        _took_step(node, NF_BASE)
        return NF_BASE
    return NLoop(arg)


def mk_up(hyps: list[Cof], tag: str, ne: Ne, tpne: NeTp | None, backup: Split) -> Nf:
    from .cof import entails
    f = up_frontier(tag, ne, tpne)
    check_backup_domain(backup, f, "stabilization backup")
    if entails(hyps, f):
        sel = split_select(hyps, backup)
        if sel is not None:
            _took_step(NUp(tag, ne, tpne, backup), sel)
            return sel
    return NUp(tag, ne, tpne, backup)


def mk_up_tp(hyps: list[Cof], ne: NeTp, backup: Split) -> NfTp:
    from .cof import entails
    f = netp_frontier(ne)
    check_backup_domain(backup, f, "type stabilization backup")
    if entails(hyps, f):
        sel = split_select(hyps, backup)
        if sel is not None:
            _took_step(TUp(ne, backup), sel)
            return sel
    return TUp(ne, backup)


def mk_glue(hyps: list[Cof], phi: Cof, base: Nf, part: Split) -> Nf:
    from .cof import entails
    check_backup_domain(part, phi, "glue partial element")
    if entails(hyps, phi):
        sel = split_select(hyps, part)
        if sel is not None:
            _took_step(NGlueIntro(phi, base, part), sel)
            return sel
    return NGlueIntro(phi, base, part)


def mk_glue_tp(hyps: list[Cof], phi: Cof, base: NfTp, partial: Split, equiv: Split) -> NfTp:
    from .cof import entails
    check_backup_domain(partial, phi, "glue partial type")
    check_backup_domain(equiv, phi, "glue equivalence")
    if entails(hyps, phi):
        sel = split_select(hyps, partial)
        if sel is not None:
            _took_step(TGlue(phi, base, partial, equiv), sel)
            return sel
    return TGlue(phi, base, partial, equiv)


def mk_hcomp_val(hyps: list[Cof], kind: str, src: IExpr, dst: IExpr, phi: Cof,
                 var: Name, tube: Split) -> Nf:
    from .cof import entails
    node = NHCompVal(kind, src, dst, phi, var, tube)
    check_backup_domain(tube, Join((Eq(IVar(var), src), phi)), "composition tube")
    if entails(hyps, Join((Eq(src, dst), phi))):
        val = _tube_value_at(hyps, var, tube, dst)
        if val is not None:
            _took_step(node, val)
            return val
    return node


def mk_hcomp_stuck(hyps: list[Cof], ty: NeTp, src: IExpr, dst: IExpr, phi: Cof,
                   var: Name, tube: Split, backup: Split) -> Nf:
    from .cof import entails
    node = NHCompStuck(ty, src, dst, phi, var, tube, backup)
    check_backup_domain(tube, Join((Eq(IVar(var), src), phi)), "composition tube")
    psi = netp_frontier(ty)
    check_backup_domain(backup, psi, "composition stabilizer")
    if entails(hyps, psi):
        sel = split_select(hyps, backup)
        if sel is not None:
            _took_step(node, sel)
            return sel
    if entails(hyps, Join((Eq(src, dst), phi))):
        val = _tube_value_at(hyps, var, tube, dst)
        if val is not None:
            _took_step(node, val)
            return val
    return node


def mk_coe_stuck(hyps: list[Cof], var: Name, ty: NeTp, src: IExpr, dst: IExpr,
                 tm: Nf, backup: Split) -> Nf:
    from .cof import entails, forall_elim
    node = NCoeStuck(var, ty, src, dst, tm, backup)
    fa = forall_elim(var, netp_frontier(ty))
    check_backup_domain(backup, fa, "coercion stabilizer")
    if entails(hyps, fa):
        sel = split_select(hyps, backup)
        if sel is not None:
            _took_step(node, sel)
            return sel
    if entails(hyps, Eq(src, dst)):
        _took_step(node, tm)
        return tm
    return node
