"""Interval expressions, cofibrations, and the face-lattice decision procedures.

Cofibrations are positive formulas (equations, finite meets, finite joins)
over interval expressions.  A branch is a conjunction of equations carrying
its congruence closure.  Entailment is decided by a pruned depth-first
search over the raw branches of the hypotheses, evaluating the goal on each
branch closure; equality is entailment both ways.  The canonical disjunctive
normal form (`dnf`) is kept for where its shape is visible: split shapes,
`cubnf cof dnf` and normal-form comparison.  There is no negation anywhere
in the constructor set.
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass, field
from typing import Iterable, Iterator


# ---------------------------------------------------------------------------
# Interval expressions


@dataclass(frozen=True)
class IExpr:
    """An interval expression: exactly an endpoint or a variable."""

    def key(self) -> tuple[int, str]:
        raise NotImplementedError


@dataclass(frozen=True)
class I0(IExpr):
    def key(self) -> tuple[int, str]:
        return (0, "")

    def __repr__(self) -> str:
        return "I0"


@dataclass(frozen=True)
class I1(IExpr):
    def key(self) -> tuple[int, str]:
        return (1, "")

    def __repr__(self) -> str:
        return "I1"


@dataclass(frozen=True)
class IVar(IExpr):
    name: str

    def key(self) -> tuple[int, str]:
        return (2, self.name)

    def __repr__(self) -> str:
        return f"IVar({self.name!r})"


ZERO = I0()
ONE = I1()


def isubst(e: IExpr, i: str, r: IExpr) -> IExpr:
    """Substitute r for the interval variable i; endpoints are closed."""
    if isinstance(e, IVar) and e.name == i:
        return r
    return e


def isubst_par(e: IExpr, sub: dict[str, IExpr]) -> IExpr:
    """Simultaneous substitution on an interval expression."""
    if isinstance(e, IVar) and e.name in sub:
        return sub[e.name]
    return e


def ivars(e: IExpr) -> set[str]:
    return {e.name} if isinstance(e, IVar) else set()


# ---------------------------------------------------------------------------
# Cofibrations


@dataclass(frozen=True)
class Cof:
    pass


@dataclass(frozen=True)
class Eq(Cof):
    lhs: IExpr
    rhs: IExpr


@dataclass(frozen=True)
class Meet(Cof):
    parts: tuple[Cof, ...]


@dataclass(frozen=True)
class Join(Cof):
    parts: tuple[Cof, ...]


TOP = Meet(())
BOT = Join(())


def meet(parts: Iterable[Cof]) -> Meet:
    return Meet(tuple(parts))


def join(parts: Iterable[Cof]) -> Join:
    return Join(tuple(parts))


def csubst(phi: Cof, i: str, r: IExpr) -> Cof:
    """Homomorphic extension of isubst; Meet/Join structure is preserved."""
    return csubst_par(phi, {i: r})


def csubst_par(phi: Cof, sub: dict[str, IExpr]) -> Cof:
    match phi:
        case Eq(lhs, rhs):
            return Eq(isubst_par(lhs, sub), isubst_par(rhs, sub))
        case Meet(parts):
            return Meet(tuple(csubst_par(p, sub) for p in parts))
        case Join(parts):
            return Join(tuple(csubst_par(p, sub) for p in parts))
    raise TypeError(f"not a cofibration: {phi!r}")


def cvars(phi: Cof) -> set[str]:
    """Interval variables occurring in a cofibration."""
    match phi:
        case Eq(lhs, rhs):
            return ivars(lhs) | ivars(rhs)
        case Meet(parts) | Join(parts):
            out: set[str] = set()
            for p in parts:
                out |= cvars(p)
            return out
    raise TypeError(f"not a cofibration: {phi!r}")


# ---------------------------------------------------------------------------
# Branches: canonical conjunctive clauses with congruence closure

Atom = tuple[IExpr, IExpr]


class _UnionFind:
    """Union-find over interval elements, ordered so the canonical
    representative of a class is always its least element (0 < 1 < names)."""

    def __init__(self) -> None:
        self.parent: dict[IExpr, IExpr] = {}

    def find(self, x: IExpr) -> IExpr:
        p = self.parent
        if x not in p:
            p[x] = x
            return x
        root = x
        while p[root] != root:
            root = p[root]
        while p[x] != root:
            p[x], x = root, p[x]
        return root

    def union(self, a: IExpr, b: IExpr) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return
        if ra.key() > rb.key():
            ra, rb = rb, ra
        self.parent[rb] = ra


@dataclass(frozen=True)
class Branch:
    """One conjunctive clause of a canonical DNF.

    `atoms` pair each class representative with every other class member,
    sides ordered, reflexive atoms absent.  `classes` is the congruence
    closure (merged classes only, each sorted).  `consistent` is False
    exactly when 0 and 1 share a class.
    """

    atoms: tuple[Atom, ...]
    classes: tuple[tuple[IExpr, ...], ...]
    consistent: bool
    # every non-representative class member -> its representative, built
    # from `classes` on first use; no part of equality, hashing or repr
    _reps: dict[IExpr, IExpr] | None = field(default=None, init=False, repr=False,
                                             compare=False)

    def rep_map(self) -> dict[IExpr, IExpr]:
        if self._reps is None:
            reps = {e: cls[0] for cls in self.classes for e in cls[1:]}
            object.__setattr__(self, "_reps", reps)
        return self._reps

    def holds(self, lhs: IExpr, rhs: IExpr) -> bool:
        """Does the equation lhs = rhs hold in this branch's closure?"""
        return self.rep(lhs) == self.rep(rhs)

    def rep(self, e: IExpr) -> IExpr:
        return self.rep_map().get(e, e)

    def satisfies(self, other: Branch) -> bool:
        """Every atom of `other` holds in this branch's closure."""
        return all(self.holds(a, b) for a, b in other.atoms)

    def subst_map(self) -> dict[str, IExpr]:
        """The contraction substitution: each merged variable maps to its
        class representative."""
        out: dict[str, IExpr] = {}
        for cls in self.classes:
            rep = cls[0]
            for e in cls[1:]:
                assert isinstance(e, IVar)
                out[e.name] = rep
        return out

    def to_cof(self) -> Cof:
        if not self.consistent:
            return Eq(ZERO, ONE)
        if not self.atoms:
            return TOP
        if len(self.atoms) == 1:
            a, b = self.atoms[0]
            return Eq(a, b)
        return Meet(tuple(Eq(a, b) for a, b in self.atoms))

    def sort_key(self):
        return tuple((a.key(), b.key()) for a, b in self.atoms)


def _ekey(e: IExpr) -> tuple[int, str]:
    return e.key()


def branch_of_eqs(eqs: Iterable[Atom]) -> Branch:
    """Close a set of equations into a canonical branch."""
    uf = _UnionFind()
    touched: set[IExpr] = set()
    for a, b in eqs:
        uf.union(a, b)
        touched.add(a)
        touched.add(b)
    groups: dict[IExpr, list[IExpr]] = {}
    for e in touched:
        groups.setdefault(uf.find(e), []).append(e)
    classes = tuple(
        tuple(sorted(cls, key=_ekey))
        for root, cls in sorted(groups.items(), key=lambda kv: kv[0].key())
        if len(cls) > 1
    )
    consistent = all(not (ZERO in cls and ONE in cls) for cls in classes)
    atoms: list[Atom] = []
    for cls in classes:
        rep = cls[0]
        for e in cls[1:]:
            atoms.append((rep, e))
    return Branch(tuple(atoms), classes, consistent)


TOP_BRANCH = branch_of_eqs([])


def _merge(b: Branch, c: Branch) -> Branch:
    """The closure of b's and c's atoms together: the same branch as
    branch_of_eqs(b.atoms + c.atoms), built by adding c's atoms to b's
    sorted classes instead of closing everything again."""
    reps = dict(b.rep_map())
    members = {cls[0]: list(cls) for cls in b.classes}
    for x, y in c.atoms:
        rx, ry = reps.get(x, x), reps.get(y, y)
        if rx == ry:
            continue
        if rx.key() > ry.key():
            rx, ry = ry, rx
        absorbed = members.pop(ry, [ry])
        for e in absorbed:
            reps[e] = rx
        small, large = sorted((members.pop(rx, [rx]), absorbed), key=len)
        for e in small:
            insort(large, e, key=_ekey)
        members[rx] = large
    if len(reps) == len(b.rep_map()):
        return b
    classes = tuple(tuple(members[r]) for r in sorted(members, key=_ekey))
    atoms = tuple((cls[0], e) for cls in classes for e in cls[1:])
    out = Branch(atoms, classes, reps.get(ONE, ONE) != ZERO)
    object.__setattr__(out, "_reps", reps)
    return out


def _raw_dnf(phi: Cof) -> Iterator[Branch]:
    match phi:
        case Eq(lhs, rhs):
            yield branch_of_eqs([(lhs, rhs)])
        case Join(parts):
            for p in parts:
                yield from _raw_dnf(p)
        case Meet(parts):
            acc = [TOP_BRANCH]
            for p in parts:
                sub = list(_raw_dnf(p))
                acc = [_merge(b, c) for b in acc for c in sub]
            yield from acc
        case _:
            raise TypeError(f"not a cofibration: {phi!r}")


def dnf(phi: Cof) -> list[Branch]:
    """Canonical disjunctive normal form.

    Inconsistent branches are dropped, duplicates and absorbed branches
    (strict refinements of another branch) removed, output sorted.
    """
    branches = [b for b in _raw_dnf(phi) if b.consistent]
    branches = sorted(set(branches), key=Branch.sort_key)
    # a branch refining another (satisfying all its atoms) is absorbed;
    # distinct canonical branches cannot mutually satisfy each other
    return [b for b in branches if not any(c != b and b.satisfies(c) for c in branches)]


def _conjuncts(hyps: list[Cof]) -> list[Cof]:
    """The hypotheses as a flat list of conjuncts, nested meets opened in
    order.  An explicit stack keeps deep nesting off the call stack."""
    out: list[Cof] = []
    todo = list(reversed(hyps))
    while todo:
        phi = todo.pop()
        if isinstance(phi, Meet):
            todo.extend(reversed(phi.parts))
        else:
            out.append(phi)
    return out


def _holds(phi: Cof, reps: dict[IExpr, IExpr]) -> bool:
    """Is phi true in the closure of a consistent branch, given its
    `rep_map`?  Exactly when the branch satisfies some branch of dnf(phi)."""
    match phi:
        case Eq(lhs, rhs):
            return reps.get(lhs, lhs) == reps.get(rhs, rhs)
        case Meet(parts):
            return all(_holds(p, reps) for p in parts)
        case Join(parts):
            return any(_holds(p, reps) for p in parts)
    raise TypeError(f"not a cofibration: {phi!r}")


def entails(hyps: list[Cof], goal: Cof) -> bool:
    """Face-lattice entailment: the goal holds in every consistent branch
    of the hypotheses.

    Depth-first search over the hypothesis conjuncts, extending a partial
    branch by one raw branch of the next conjunct at a time.  A partial
    branch is dropped once it is inconsistent or the goal holds in it; both
    carry over to every refinement.  A conjunct that already holds in the
    partial branch is passed without splitting, since its other branches
    only refine it.  Neither side is put into canonical DNF.
    """
    options = [[c for c in _raw_dnf(phi) if c.consistent] for phi in _conjuncts(hyps)]
    # (partial branch, raw branch to add to it, conjuncts decided after)
    stack = [(TOP_BRANCH, TOP_BRANCH, 0)]
    while stack:
        b, c, depth = stack.pop()
        b = _merge(b, c)
        if not b.consistent or _holds(goal, b.rep_map()):
            continue
        while depth < len(options) and any(b.satisfies(o) for o in options[depth]):
            depth += 1
        if depth == len(options):
            return False
        stack.extend((b, c, depth + 1) for c in options[depth])
    return True


def cof_eq(hyps: list[Cof], phi: Cof, psi: Cof) -> bool:
    """Extensional equality of cofibrations under hypotheses."""
    return entails(hyps + [phi], psi) and entails(hyps + [psi], phi)


def is_true(hyps: list[Cof], phi: Cof) -> bool:
    return entails(hyps, phi)


def is_false(hyps: list[Cof], phi: Cof) -> bool:
    return entails(hyps + [phi], BOT)


def forall_elim(i: str, phi: Cof) -> Cof:
    """Eliminate universal quantification of the interval variable i.

    Structural: meets and joins map through; an equation not mentioning i
    drops the quantifier, i = i is top, and any other equation touching i
    is bottom (a single point cannot cover the interval).
    """
    match phi:
        case Eq(lhs, rhs):
            li = isinstance(lhs, IVar) and lhs.name == i
            ri = isinstance(rhs, IVar) and rhs.name == i
            if li and ri:
                return TOP
            if li or ri:
                return BOT
            return phi
        case Meet(parts):
            return Meet(tuple(forall_elim(i, p) for p in parts))
        case Join(parts):
            return Join(tuple(forall_elim(i, p) for p in parts))
    raise TypeError(f"not a cofibration: {phi!r}")
