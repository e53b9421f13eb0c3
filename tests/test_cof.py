"""Face-lattice solver tests, cross-checked against the enumeration oracle."""

import itertools
import random

import pytest

from cubnf.cof import (
    BOT,
    Branch,
    Cof,
    Eq,
    IVar,
    Join,
    Meet,
    ONE,
    TOP,
    TOP_BRANCH,
    ZERO,
    _merge,
    branch_of_eqs,
    cof_eq,
    csubst,
    cvars,
    dnf,
    entails,
    forall_elim,
    isubst,
)
from cubnf.oracle import _substitutions, oracle_entails

i, j, k = IVar("i"), IVar("j"), IVar("k")


def test_isubst():
    assert isubst(i, "i", ZERO) == ZERO
    assert isubst(ONE, "i", j) == ONE
    assert isubst(j, "i", ZERO) == j


def test_csubst():
    phi = Join((Eq(i, ZERO), Eq(i, j)))
    assert csubst(phi, "i", j) == Join((Eq(j, ZERO), Eq(j, j)))
    assert csubst(TOP, "i", ZERO) == TOP
    # substitution does not simplify
    assert csubst(Eq(i, ONE), "i", ONE) == Eq(ONE, ONE)


def test_dnf_bot_is_empty():
    assert dnf(BOT) == []


def test_dnf_drops_inconsistent_disjunct():
    # the 0=1 disjunct is the bottom cofibration
    assert dnf(Join((Eq(ZERO, ONE), Eq(i, ZERO)))) == [branch_of_eqs([(ZERO, i)])]


def test_dnf_absorbs_and_simplifies():
    phi = Meet((Eq(i, ZERO), Join((Eq(j, ONE), TOP))))
    expected = [branch_of_eqs([(i, ZERO)])]
    assert dnf(phi) == expected
    assert oracle_entails([phi], Eq(i, ZERO))
    assert oracle_entails([Eq(i, ZERO)], phi)


def test_dnf_reflexive_atoms_dropped():
    assert dnf(Eq(i, i)) == [branch_of_eqs([])]
    assert dnf(Eq(i, i))[0].atoms == ()


def test_branch_closure_and_consistency():
    b = branch_of_eqs([(i, j), (j, ZERO)])
    assert b.consistent
    assert b.holds(i, ZERO)
    assert b.rep(j) == ZERO
    bad = branch_of_eqs([(i, ZERO), (i, ONE)])
    assert not bad.consistent


def test_branch_atoms_oriented():
    b = branch_of_eqs([(j, i)])
    assert b.atoms == ((i, j),)
    b2 = branch_of_eqs([(i, ZERO)])
    assert b2.atoms == ((ZERO, i),)


def test_entails_examples():
    assert entails([], TOP)
    assert entails([Eq(i, j), Eq(j, ZERO)], Eq(i, ZERO))
    assert not entails([Join((Eq(i, ZERO), Eq(i, ONE)))], Eq(i, ZERO))
    # everything holds under bottom
    assert entails([BOT], Eq(ZERO, ONE))
    assert entails([Meet((Eq(i, ZERO), Eq(i, ONE)))], BOT)


def test_cof_eq_examples():
    assert cof_eq([], Eq(ZERO, ONE), BOT)
    phi, psi = Eq(i, ZERO), Eq(j, ONE)
    assert cof_eq([], Meet((phi, psi)), Meet((psi, phi)))
    assert not cof_eq([], Eq(i, ZERO), Eq(i, ONE))


def test_oracle_examples():
    assert oracle_entails([], Eq(i, i))
    assert oracle_entails([Meet((Eq(i, ZERO), Eq(i, ONE)))], BOT)
    assert not oracle_entails([], Join((Eq(i, ZERO), Eq(i, ONE))))


def test_oracle_guard():
    vs = [IVar(n) for n in "abcdef"]
    goal = Meet(tuple(Eq(v, ZERO) for v in vs))
    with pytest.raises(ValueError):
        oracle_entails([], goal)


def test_forall_elim_examples():
    assert forall_elim("i", Eq(j, ZERO)) == Eq(j, ZERO)
    assert forall_elim("i", Eq(i, i)) == TOP
    assert forall_elim("i", Eq(i, ZERO)) == BOT
    got = forall_elim("i", Join((Eq(i, j), Eq(k, ONE))))
    assert got == Join((BOT, Eq(k, ONE)))
    assert "i" not in cvars(got)


def test_forall_elim_idempotent_and_i_free():
    for phi in _pool(["i", "j"], depth=2):
        got = forall_elim("i", phi)
        assert "i" not in cvars(got)
        assert forall_elim("i", got) == got


# ---------------------------------------------------------------------------
# Systematic families


def _atoms(names: list[str]) -> list[Cof]:
    elems = [ZERO, ONE] + [IVar(n) for n in names]
    out: list[Cof] = []
    for a, b in itertools.combinations(elems, 2):
        out.append(Eq(a, b))
    return out


def _pool(names: list[str], depth: int) -> list[Cof]:
    level: list[Cof] = [TOP, BOT] + _atoms(names)
    if depth <= 1:
        return level
    prev = _pool(names, depth - 1)
    base = prev[: len(level)]
    out = list(prev)
    for a, b in itertools.product(base, base):
        out.append(Meet((a, b)))
        out.append(Join((a, b)))
    return out


def _random_cof(rng: random.Random, names: list[str], depth: int) -> Cof:
    if depth == 0 or rng.random() < 0.3:
        elems = [ZERO, ONE] + [IVar(n) for n in names]
        return Eq(rng.choice(elems), rng.choice(elems))
    ctor = rng.choice([Meet, Join])
    width = rng.randint(0, 3)
    return ctor(tuple(_random_cof(rng, names, depth - 1) for _ in range(width)))


def test_solver_agrees_with_oracle_exhaustive_two_vars():
    pool = _pool(["i", "j"], depth=2)
    pairs = 0
    for h, g in itertools.product(pool, pool):
        assert entails([h], g) == oracle_entails([h], g, variables=["i", "j"]), (h, g)
        pairs += 1
    assert pairs > 2000


def test_solver_agrees_with_oracle_random_three_vars():
    rng = random.Random(20260810)
    names = ["i", "j", "k"]
    for _ in range(2000):
        h = _random_cof(rng, names, 3)
        g = _random_cof(rng, names, 3)
        assert entails([h], g) == oracle_entails([h], g, variables=names), (h, g)


def test_solver_agrees_with_oracle_random_four_vars():
    rng = random.Random(4)
    names = ["i", "j", "k", "l"]
    for _ in range(10000):
        h = _random_cof(rng, names, 3)
        g = _random_cof(rng, names, 3)
        assert entails([h], g) == oracle_entails([h], g, variables=names), (h, g)


def test_solver_agrees_with_oracle_random_five_vars_hypothesis_lists():
    rng = random.Random(5)
    names = ["i", "j", "k", "l", "m"]
    for _ in range(600):
        hyps = [_random_cof(rng, names, 3) for _ in range(rng.randint(1, 3))]
        g = _random_cof(rng, names, 3)
        assert entails(hyps, g) == oracle_entails(hyps, g, variables=names), (hyps, g)


def _kernel(sigma, names):
    """Which of 0, 1 and the variables the substitution identifies."""
    elems = [ZERO, ONE] + [sigma[n] for n in names]
    return frozenset((a, b) for a in range(len(elems)) for b in range(a)
                     if elems[a] == elems[b])


def test_oracle_substitutions_one_per_pattern():
    # every map into {0, 1} ∪ variables identifies exactly what one of the
    # enumerated substitutions does, and no two of those identify the same
    for n, count in [(0, 1), (1, 3), (2, 10), (3, 37), (4, 151), (5, 674)]:
        names = [f"v{x}" for x in range(n)]
        kernels = [_kernel(s, names) for s in _substitutions(names)]
        assert len(kernels) == len(set(kernels)) == count
        if n <= 3:
            targets = [ZERO, ONE] + [IVar(v) for v in names]
            every = {_kernel(dict(zip(names, c)), names)
                     for c in itertools.product(targets, repeat=n)}
            assert every == set(kernels)


# ---------------------------------------------------------------------------
# Entailment by search against the canonical-DNF definition


def _entails_by_dnf(hyps, goal):
    """The definition the search replaces: both sides in canonical DNF."""
    return all(any(b.satisfies(c) for c in dnf(goal)) for b in dnf(Meet(tuple(hyps))))


def test_entails_agrees_with_dnf_definition_pool():
    pool = _pool(["i", "j"], depth=2)
    rng = random.Random(11)
    for _ in range(3000):
        hyps = [rng.choice(pool) for _ in range(rng.randint(1, 3))]
        g = rng.choice(pool)
        assert entails(hyps, g) == _entails_by_dnf(hyps, g), (hyps, g)


@pytest.mark.parametrize("names,seed", [(["i", "j", "k"], 20260810), (["i", "j", "k", "l"], 4)])
def test_entails_agrees_with_dnf_definition_random(names, seed):
    rng = random.Random(seed)
    for _ in range(2000):
        hyps = [_random_cof(rng, names, 3) for _ in range(rng.randint(1, 3))]
        g = _random_cof(rng, names, 3)
        assert entails(hyps, g) == _entails_by_dnf(hyps, g), (hyps, g)


def _boundary(names):
    return Meet(tuple(Join((Eq(IVar(v), ZERO), Eq(IVar(v), ONE))) for v in names))


def test_entails_wide_cube_boundary():
    names = [f"v{n}" for n in range(1, 13)]
    cube = _boundary(names)
    assert entails([cube], _boundary(names[:1]))
    assert cof_eq([], cube, _boundary(names[::-1]))
    assert not entails([cube], Eq(IVar("v1"), ZERO))


def test_entails_long_hypothesis_list():
    # 3,000 conjuncts, searched to full depth without recursion
    many = [Join((Eq(IVar(f"v{n}"), ZERO), Eq(IVar(f"v{n}"), ONE))) for n in range(3000)]
    assert entails(many, _boundary(["v0"]))
    assert not entails(many[:1] + many[:1] * 2999, Eq(IVar("v0"), ZERO))
    chain = [Eq(IVar(f"v{n}"), IVar(f"v{n + 1}")) for n in range(3000)]
    assert entails(chain + [Eq(IVar("v3000"), ONE)], Eq(IVar("v0"), ONE))
    nested = TOP
    for hyp in chain:
        nested = Meet((hyp, nested))
    assert not entails([nested], Eq(IVar("v3000"), ZERO))


def test_merge_is_closure_of_both():
    pool = [b for phi in _pool(["i", "j", "k"], depth=2) for b in dnf(phi)]
    pool += [branch_of_eqs([(ZERO, ONE)]), TOP_BRANCH]
    rng = random.Random(12)
    for _ in range(3000):
        b, c = rng.choice(pool), rng.choice(pool)
        assert _merge(b, c) == branch_of_eqs(b.atoms + c.atoms), (b, c)


def test_branch_representatives_do_not_show():
    b = branch_of_eqs([(j, i), (k, ONE)])
    assert b.rep(j) == i and b.rep(k) == ONE and b.rep(ZERO) == ZERO
    same = Branch(b.atoms, b.classes, b.consistent)
    assert same == b and hash(same) == hash(b)
    assert repr(b) == f"Branch(atoms={b.atoms!r}, classes={b.classes!r}, consistent=True)"


def test_extensionality_coherence():
    # lattice-equal cofibrations canonicalize to identical branch lists
    pool = _pool(["i", "j"], depth=2)
    rng = random.Random(7)
    sample = rng.sample(pool, 60)
    for a, b in itertools.combinations(sample, 2):
        if cof_eq([], a, b):
            assert dnf(a) == dnf(b), (a, b)


def test_forall_characterization_exhaustive():
    # entails(H, forall_elim(i, phi))  iff  H entails phi with i generic
    hyp_pool = _pool(["j"], depth=2)
    phi_pool = _pool(["i", "j"], depth=2)
    rng = random.Random(99)
    hyps = rng.sample(hyp_pool, 12)
    phis = rng.sample(phi_pool, 120)
    for h in hyps:
        for phi in phis:
            lhs = entails([h], forall_elim("i", phi))
            rhs = oracle_entails([h], phi, variables=["i", "j"])
            assert lhs == rhs, (h, phi)


def test_solver_agrees_three_vars_systematic():
    # the structured depth-3 pool as hypotheses against a seeded sample of
    # goals, both directions (the full square is quadratically infeasible)
    pool = _pool(["i", "j", "k"], 3)
    rng = random.Random(3)
    goals = [TOP, BOT] + _atoms(["i", "j", "k"]) + rng.sample(pool, 18)
    names = ["i", "j", "k"]
    for h in pool:
        for g in goals:
            assert entails([h], g) == oracle_entails([h], g, variables=names), (h, g)
            assert entails([g], h) == oracle_entails([g], h, variables=names), (g, h)


# ---------------------------------------------------------------------------
# Lattice laws, property-based

from hypothesis import given, settings, strategies as st  # noqa: E402


def _cof_strategy(names=("i", "j")):
    elems = st.sampled_from([ZERO, ONE] + [IVar(n) for n in names])
    atoms = st.builds(Eq, elems, elems)
    return st.recursive(
        atoms,
        lambda c: st.one_of(
            st.builds(lambda ps: Meet(tuple(ps)), st.lists(c, max_size=3)),
            st.builds(lambda ps: Join(tuple(ps)), st.lists(c, max_size=3)),
        ),
        max_leaves=8,
    )


@given(phi=_cof_strategy())
@settings(max_examples=200, deadline=None)
def test_dnf_is_canonical_fixed_point(phi):
    branches = dnf(phi)
    rebuilt = Join(tuple(b.to_cof() for b in branches))
    assert dnf(rebuilt) == branches
    assert cof_eq([], phi, rebuilt)


@given(phi=_cof_strategy(), psi=_cof_strategy())
@settings(max_examples=200, deadline=None)
def test_entails_lattice_laws(phi, psi):
    assert entails([phi], phi)
    assert entails([Meet((phi, psi))], phi)
    assert entails([phi], Join((phi, psi)))
    assert entails([phi], TOP)
    assert entails([BOT], phi)


@given(phi=_cof_strategy(names=("i", "j")))
@settings(max_examples=200, deadline=None)
def test_forall_elim_sound_against_oracle(phi):
    got = forall_elim("i", phi)
    assert "i" not in cvars(got)
    assert entails([], got) == oracle_entails([], phi, variables=["i", "j"])


def test_constructor_set_is_negation_free():
    from cubnf.cof import Cof
    assert {c.__name__ for c in Cof.__subclasses__()} == {"Eq", "Meet", "Join"}
