"""Brute-force semantic oracle for cofibration entailment.

Kept deliberately independent of the solver in `cof`: truth of a formula
under a substitution is decided by direct recursion here, never through
`dnf` or `entails`.  Any interval substitution factors through one into the
same variable set up to renaming, so maps into {0, 1} ∪ variables are
complete.  A positive formula's truth under such a map depends only on
which of the variables and endpoints it identifies, so one map per
partition of {0, 1, variables} keeping 0 and 1 apart suffices: 151 maps at
four variables instead of 6^4 = 1296, 674 at five.
"""

from __future__ import annotations

from typing import Iterator

from .cof import BOT, Cof, Eq, IExpr, IVar, Join, Meet, ONE, ZERO, cvars

ORACLE_MAX_VARS = 5


def _apply(e: IExpr, sigma: dict[str, IExpr]) -> IExpr:
    if isinstance(e, IVar):
        return sigma.get(e.name, e)
    return e


def _literally_true(phi: Cof, sigma: dict[str, IExpr]) -> bool:
    match phi:
        case Eq(lhs, rhs):
            return _apply(lhs, sigma) == _apply(rhs, sigma)
        case Meet(parts):
            return all(_literally_true(p, sigma) for p in parts)
        case Join(parts):
            return any(_literally_true(p, sigma) for p in parts)
    raise TypeError(f"not a cofibration: {phi!r}")


def _substitutions(variables: list[str]) -> Iterator[dict[str, IExpr]]:
    """One substitution per partition of 0, 1, variables with 0 and 1 in
    different blocks, enumerated as restricted growth strings (Knuth, TAOCP
    Vol. 4A, 7.2.1.5) whose first two letters, for 0 and 1, are fixed to
    blocks 0 and 1.  Block 0 maps to 0, block 1 to 1, and every other block
    to the variable that opens it."""
    n = len(variables)
    growth = [0] * n
    while True:
        sigma: dict[str, IExpr] = {}
        opener: list[IExpr] = [ZERO, ONE]
        for v, block in zip(variables, growth):
            if block == len(opener):
                opener.append(IVar(v))
            sigma[v] = opener[block]
        yield sigma
        # next string: bump the rightmost letter below its bound (one past
        # the largest letter before it) and reset everything after it
        k = n - 1
        while k >= 0 and growth[k] == max([1] + growth[:k]) + 1:
            k -= 1
        if k < 0:
            return
        growth[k] += 1
        growth[k + 1:] = [0] * (n - k - 1)


def oracle_entails(hyps: list[Cof], goal: Cof, variables: list[str] | None = None) -> bool:
    """Entailment by exhaustive substitution enumeration.

    Refuses more than ORACLE_MAX_VARS variables; one substitution per
    partition is checked (see `_substitutions`).  `variables` overrides the free-variable set, which matters
    when the goal quantifies over a variable absent from the hypotheses.
    """
    if variables is None:
        names: set[str] = cvars(goal)
        for h in hyps:
            names |= cvars(h)
        variables = sorted(names)
    if len(variables) > ORACLE_MAX_VARS:
        raise ValueError(f"oracle refuses {len(variables)} variables (max {ORACLE_MAX_VARS})")
    hyp = Meet(tuple(hyps))
    for sigma in _substitutions(variables):
        if _literally_true(hyp, sigma) and not _literally_true(goal, sigma):
            return False
    return True


def oracle_is_false(phi: Cof, variables: list[str] | None = None) -> bool:
    return oracle_entails([phi], BOT, variables)
