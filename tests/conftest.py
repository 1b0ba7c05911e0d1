"""Shared fixtures and definition-level oracles.

The oracles here deliberately avoid the code paths they are used to check:
outlier brute forcing iterates raw (L, S) candidate pairs against the
exhaustive extension enumerator, with extension sets memoized per fact
variant, and ``reiter_extensions`` pins that enumerator itself to Reiter's
fixpoint definition without going through its search.  ``nu_theories``
draws structurally random NU/DNU theories for the fuzz tests.
"""

from __future__ import annotations

import itertools

import pytest
from hypothesis import strategies as st

from defoutlier import (
    DefaultRule,
    DefaultTheory,
    Literal,
    extensions,
    is_inconsistent,
    lits,
    negate_all,
    parse_theory,
)

CREDIT_CARD = """
fact CreditNumber & MultipleIPs.
default CreditNumber : -MultipleIPs / -MultipleIPs.
"""

CELLPHONE = """
fact CreditNumber & CellUse & -MfC & QuietTime & NewLocation & MultipleIPs.
default CreditNumber : -MultipleIPs / -MultipleIPs.
default CellUse : MfC / MfC.
default CellUse : -QuietTime / -QuietTime.
default CellUse : -NewLocation / -NewLocation.
"""


@pytest.fixture
def credit_card() -> DefaultTheory:
    return parse_theory(CREDIT_CARD)


@pytest.fixture
def cellphone() -> DefaultTheory:
    return parse_theory(CELLPHONE)


@pytest.fixture
def schematic_pair() -> DefaultTheory:
    # Two unrelated defaults a_i : b_i / b_i with contradicting observations.
    return parse_theory(
        """
        fact a1 & a2 & -b1 & -b2.
        default a1 : b1 / b1.
        default a2 : b2 / b2.
        """
    )


class ExhaustiveOracle:
    """Memoized exhaustive skeptical queries over fact-set variants."""

    def __init__(self, theory: DefaultTheory):
        self.theory = theory
        self._cache: dict[frozenset[Literal], tuple] = {}

    def exts(self, facts: frozenset[Literal]):
        hit = self._cache.get(facts)
        if hit is None:
            hit = extensions(self.theory.with_facts(facts))
            self._cache[facts] = hit
        return hit

    def skeptical(self, facts: frozenset[Literal], goal: Literal) -> bool:
        return all(e.contains(goal) for e in self.exts(facts))

    def cond1(self, s: frozenset[Literal]) -> bool:
        reduced = self.theory.facts - s
        return all(self.skeptical(reduced, x.negate()) for x in s)

    def cond2_strong(self, l: frozenset[Literal], s: frozenset[Literal]) -> bool:
        reduced = self.theory.facts - s - l
        return all(not self.skeptical(reduced, x.negate()) for x in s)

    def cond2_general(self, l: frozenset[Literal], s: frozenset[Literal]) -> bool:
        reduced = self.theory.facts - s - l
        return any(not self.skeptical(reduced, x.negate()) for x in s)

    def is_witness(self, l, s, strong: bool) -> bool:
        cond2 = self.cond2_strong if strong else self.cond2_general
        return self.cond1(s) and cond2(l, s)


def nonempty_subsets(pool, max_size=None):
    top = len(pool) if max_size is None else min(max_size, len(pool))
    for size in range(1, top + 1):
        yield from itertools.combinations(pool, size)


def brute_force_outliers(theory: DefaultTheory, k: int, strong: bool, h: int | None = None):
    """Definition-level outlier sets of size <= k (witness size <= h if set)."""
    oracle = ExhaustiveOracle(theory)
    facts = sorted(theory.facts, key=str)
    found: dict[frozenset[Literal], list[frozenset[Literal]]] = {}
    for l_tuple in nonempty_subsets(facts, k):
        l = frozenset(l_tuple)
        rest = [x for x in facts if x not in l]
        for s_tuple in nonempty_subsets(rest, h):
            s = frozenset(s_tuple)
            if oracle.is_witness(l, s, strong):
                found.setdefault(l, []).append(s)
    return found


@st.composite
def nu_theories(draw):
    """An NU or DNU theory over letters a-h and a variant of it with up to two
    facts withdrawn.  Rules are unary and normal, some with no prerequisite,
    and may form cycles; facts may sit on letters no rule mentions (u, v)."""
    positive = draw(st.booleans())  # the prerequisite polarity: NU or DNU
    letters = draw(st.lists(st.sampled_from("abcdefgh"), min_size=1, max_size=8, unique=True))
    letter = st.sampled_from(letters)
    conclusion = st.builds(Literal, letter, st.booleans())
    rules = []
    for p, c in draw(st.lists(st.tuples(st.none() | letter, conclusion), max_size=10)):
        pre = frozenset() if p is None else frozenset({Literal(p, positive)})
        rules.append(DefaultRule(pre, frozenset({c}), frozenset({c})))
    fact_letters = draw(st.lists(st.sampled_from(letters + ["u", "v"]), max_size=5, unique=True))
    facts = [Literal(x, draw(st.booleans())) for x in fact_letters]
    theory = DefaultTheory(rules, facts)
    withdrawn = draw(st.lists(st.sampled_from(facts), max_size=2)) if facts else []
    return theory, theory.remove_facts(withdrawn)


def reiter_extensions(theory: DefaultTheory) -> set[frozenset[Literal]]:
    """Extensions by Reiter's definition, as literal sets, guessed and checked.

    Every subset G of the rules is guessed as the generating set.  The guess
    E = W | concl(G) is an extension iff it is consistent and E = Gamma(E),
    the least literal set that contains W and the consequent of each rule
    whose prerequisite it contains and whose justification is consistent
    with E.  Inconsistent facts have the single inconsistent extension W,
    which stands for every literal.
    """
    if is_inconsistent(theory.facts):
        return {theory.facts}
    rules = theory.defaults
    guesses = {
        theory.facts.union(*(d.consequent for d in g))
        for size in range(len(rules) + 1)
        for g in itertools.combinations(rules, size)
    }
    found: set[frozenset[Literal]] = set()
    for e in guesses:
        if is_inconsistent(e):
            continue
        usable = [d for d in rules if not is_inconsistent(e | d.justification)]
        gamma = set(theory.facts)
        grew = True
        while grew:
            grew = False
            for d in usable:
                if d.prerequisite <= gamma and not d.consequent <= gamma:
                    gamma |= d.consequent
                    grew = True
        if gamma == e:
            found.add(e)
    return found
