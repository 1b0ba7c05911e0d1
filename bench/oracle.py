"""Answers the benchmark checks the program against, computed independently.

Nothing here calls the code paths being measured.  Satisfiability is a truth
table written here, not ``oracles.sat``.  Outlier questions on acyclic normal
unary (NU) theories are decided from the definition, with entailment taken
from the exhaustive backend on the goal's cone.

The cone is the set of letters with a dependency path to the goal letters
that passes through no fact letter.  A fact fixes its letter in every
extension, so a rule concluding a fact letter either adds nothing or can never
fire; without those rules the cone is a splitting set (Turner, "Splitting a
Default Theory", AAAI 1996): every remaining rule concluding a cone letter
has all its letters in the cone.  The cone's extensions are then the
projections of the whole theory's, and restricting to it changes no answer.
"""

from __future__ import annotations

import itertools

from defoutlier.core import DefaultTheory, Literal
from defoutlier.semantics import extensions


def satisfiable(variable_count: int, clauses) -> bool:
    """Truth-table satisfiability of DIMACS-style signed-integer clauses."""
    for bits in range(1 << variable_count):
        if all(
            any((bits >> (abs(l) - 1) & 1) == (l > 0) for l in clause)
            for clause in clauses
        ):
            return True
    return False


def literal_key(l: Literal):
    """Sort order of literals: by letter, positive first."""
    return (l.letter, not l.positive)


class ConeOracle:
    """Definition-level outlier questions on one acyclic NU theory."""

    def __init__(self, theory: DefaultTheory):
        self.theory = theory
        self.fact_of = {l.letter: l for l in theory.facts}
        self.parents: dict[str, set[str]] = {}
        self.rules_by_letter: dict[str, list] = {}
        for d in theory.defaults:
            (c,) = d.consequent
            self.rules_by_letter.setdefault(c.letter, []).append(d)
            for p in d.prerequisite:
                self.parents.setdefault(c.letter, set()).add(p.letter)
        self._check_acyclic()
        self._exts: dict[tuple, tuple] = {}

    def _check_acyclic(self) -> None:
        # Minimal strong witnesses lie in one strongly connected component;
        # without cycles (self-loops aside) those are single letters, so single
        # facts are the only witness candidates the definition needs.
        state: dict[str, int] = {}
        for root in self.parents:
            if root in state:
                continue
            stack = [(root, iter(self.parents.get(root, ())))]
            state[root] = 1
            while stack:
                x, it = stack[-1]
                for p in it:
                    if p == x:
                        continue
                    if state.get(p) == 1:
                        raise ValueError(f"theory has a dependency cycle through {p}")
                    if p not in state:
                        state[p] = 1
                        stack.append((p, iter(self.parents.get(p, ()))))
                        break
                else:
                    state[x] = 2
                    stack.pop()

    def _fixed(self, letter: str, removed) -> bool:
        fact = self.fact_of.get(letter)
        return fact is not None and fact not in removed

    def cone(self, letters, removed) -> frozenset[str]:
        """Letters with a (possibly empty) dependency path into ``letters``
        whose inner letters are not facts of W minus ``removed``."""
        seen = set(letters)
        frontier = [x for x in seen if not self._fixed(x, removed)]
        while frontier:
            for p in self.parents.get(frontier.pop(), ()):
                if p not in seen:
                    seen.add(p)
                    if not self._fixed(p, removed):
                        frontier.append(p)
        return frozenset(seen)

    def ancestors(self, letters) -> frozenset[str]:
        return self.cone(letters, self.theory.facts)

    def skeptical(self, goals, removed, goal: Literal) -> bool:
        """Every extension of (D, W minus ``removed``) contains ``goal``;
        decided on the cone of the letters ``goals``."""
        cone = self.cone(goals, removed)
        facts = frozenset(
            self.fact_of[x] for x in cone if self._fixed(x, removed)
        )
        exts = self._exts.get((cone, facts))
        if exts is None:
            rules = [
                d
                for x in sorted(cone)
                if not self._fixed(x, removed)
                for d in self.rules_by_letter.get(x, ())
            ]
            exts = self._exts[(cone, facts)] = extensions(DefaultTheory(rules, facts))
        return all(e.contains(goal) for e in exts)

    def entails(self, goal: Literal) -> bool:
        return self.skeptical([goal.letter], frozenset(), goal)

    def strong_witness(self, outlier, witness) -> bool:
        l, s = frozenset(outlier), frozenset(witness)
        goals = [x.letter for x in s]
        return all(self.skeptical(goals, s, x.negate()) for x in s) and all(
            not self.skeptical(goals, s | l, x.negate()) for x in s
        )

    def strong_outliers(self, k: int) -> dict[frozenset, set[frozenset]]:
        """Every strong outlier of size at most k with all its one-fact witnesses.

        An outlier's facts on letters that are not ancestors of the witness
        cannot break condition 1, so each outlier is a part of size 1..k on
        ancestors that does, padded with any other facts.
        """
        facts = sorted(self.theory.facts, key=literal_key)
        found: dict[frozenset, set[frozenset]] = {}
        for s in facts:
            goals = [s.letter]
            if not self.skeptical(goals, {s}, s.negate()):
                continue
            ancestors = self.ancestors(goals)
            inside = [f for f in facts if f.letter in ancestors and f != s]
            outside = [f for f in facts if f.letter not in ancestors]
            for size in range(1, k + 1):
                for core in itertools.combinations(inside, size):
                    if self.skeptical(goals, {s, *core}, s.negate()):
                        continue
                    for pad_size in range(k - size + 1):
                        for pad in itertools.combinations(outside, pad_size):
                            found.setdefault(frozenset(core + pad), set()).add(frozenset([s]))
        return found
