"""Extensions, entailment, and extension checking for disjunction-free default theories.

Two entailment backends are provided.  The exhaustive backend enumerates
every signature set by depth-first search over rule application sequences,
branching on applying versus permanently blocking each applicable rule.  It
prunes every branch where an applied rule is refuted or a blocked rule can
no longer end satisfied or refuted, and it is total (up to a configurable
node budget) on all DF theories.  A rule satisfied or refuted at a node stays
so below it, so each node hands its children only the rules still open.  A
query drops every subtree whose leaves all answer it one way: ``entails``
those whose E holds the goal, ``brave_member`` those whose E holds the
literal's negation.  Each node also bounds its leaves from below, in two
ways.  It never blocks a rule that no leaf below can refute, since every
such leaf is reached first through applying the rule.  And a query closes
E under the open rules that no leaf below can refute; every leaf holds
that closure, so a node whose closure answers the query is dropped as well.
The search's bitmasks over the rule letters are compiled once per rule
base; a fact on a letter no rule mentions never meets a rule, so every
extension carries it unchanged.  The fast backend answers
skeptical literal queries on normal unary (NU) and dual normal unary (DNU)
theories in polynomial time by searching for a countermodel extension: it
grows the set of letters that must be kept non-positive, re-checking
blockability against a positive reachability fixpoint until the requirement
set stabilizes or becomes unsatisfiable.  It reads only the goal letter's
ancestor cone, the letters with a rule path to it: NU and DNU rules are
normal and unary, so a predecessor-closed letter set is a splitting set
(Turner, "Splitting a Default Theory", AAAI 1996) and nothing outside the
cone changes the answer.  A goal literal whose cone has c letters, with e
rules mentioning them, costs O(c * e), whatever the size of the theory: its
fact letters are the cone intersected with the theory's fact index, O(c),
which that bound covers.  The cone comes from ``depgraph.cone_lookup``,
looked up once per call, which keeps it once per letter and rule base for
every layer.  Both backends agree wherever the fast one applies, as the test
suite checks on large seeded random families.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

from .core import DefaultTheory, Literal, _rule_letters, classify, compiled, is_inconsistent, literal_order
from .depgraph import cone_lookup, reach
from .errors import BudgetExceededError, ScopeError

EXHAUSTIVE = "exhaustive"
FAST = "fast"
AUTO = "auto"
DEFAULT_BUDGET = 10**6


@dataclass(frozen=True)
class SignatureSet:
    """The finite literal set characterizing one extension.

    ``generating`` lists the indices (into the theory's rule list) of the
    generating defaults in application order.  An inconsistent signature set
    stands for the single extension of a theory with inconsistent facts and
    contains every literal.
    """

    literals: frozenset[Literal]
    generating: tuple[int, ...]

    @cached_property
    def inconsistent(self) -> bool:
        return is_inconsistent(self.literals)

    def contains(self, literal: Literal) -> bool:
        return self.inconsistent or literal in self.literals


# ---------------------------------------------------------------------------
# Exhaustive backend: signature-set enumeration
# ---------------------------------------------------------------------------


class _MaskIndex:
    """Bitmask form of a rule base over its rule letters: literal 2*i is
    letter i, 2*i+1 its negation, and bit ``absent`` no extension holds."""

    def __init__(self, defaults: Sequence):
        self.lit_id: dict[Literal, int] = {}
        for i, x in enumerate(sorted(_rule_letters(defaults))):
            self.lit_id[Literal(x, True)] = 2 * i
            self.lit_id[Literal(x, False)] = 2 * i + 1
        lit_id = self.lit_id
        self.absent = len(lit_id)
        self.pre = [sum(1 << lit_id[l] for l in d.prerequisite) for d in defaults]
        self.concl = [sum(1 << lit_id[l] for l in d.consequent) for d in defaults]
        # Mask of the negations of the justification literals: a rule is
        # refuted by E exactly when this intersects E.
        self.neg_just = [sum(1 << (lit_id[l] ^ 1) for l in d.justification) for d in defaults]
        # Rules whose justification contradicts itself can never fire.
        self.rules = tuple(i for i, d in enumerate(defaults) if not is_inconsistent(d.justification))
        self.positive_bits = sum(1 << bit for bit in range(0, self.absent, 2))

    def close(self, m: int, rules: Sequence[int]) -> int:
        """The closure of the literal mask ``m`` under the given rules."""
        pre, concl, grew = self.pre, self.concl, True
        while grew:
            grew = False
            for i in rules:
                if concl[i] & ~m and pre[i] & ~m == 0:
                    m |= concl[i]
                    grew = True
        return m

    def to_literals(self, m: int) -> frozenset[Literal]:
        return frozenset(l for l, bit in self.lit_id.items() if m >> bit & 1)


def _iter_masks(idx: _MaskIndex, w_mask: int, budget: int, skip: int):
    """Yield each distinct signature set (as a bitmask) with one generating
    sequence, in depth-first apply-before-block order.

    A node is pruned once no leaf below it can be valid: an applied rule is
    refuted (E only grows; an inconsistent E refutes every rule), or a
    blocked rule is neither satisfied nor refuted by ``upper``, the closure
    of E under the rules neither blocked nor refuted, which contains every E
    reachable below the node.  A node whose E holds all of a nonzero
    ``skip`` is dropped too, since every leaf below it holds ``skip``: the
    caller wants only the leaves that miss it.  A rule satisfied or refuted
    by E stays so below, so each node scans only the rules still open at
    its parent.

    Each node is also bounded from below.  It pushes the block child of
    ``act`` only when ``upper`` refutes ``act``: otherwise no leaf below the
    block child refutes it, so at each such leaf ``act``, whose prerequisite
    E holds, ends satisfied and is a generating rule.  The apply child
    reaches the same leaf and is explored first, so the block child would
    yield only sets already seen, and the same (E, applied) pairs come out
    in the same order.  With a nonzero ``skip``, ``forced`` is the closure
    of E under the live rules ``upper`` cannot refute.  Each of them ends
    satisfied at every valid leaf below: its prerequisite is in the leaf by
    induction, the leaf does not refute it, and a valid leaf leaves no
    unrefuted rule whose prerequisite it holds unsatisfied, blocked or
    not.  So every valid leaf holds ``forced``, and a node whose ``forced``
    holds ``skip`` is dropped like one whose E does.  ``forced`` lies inside
    ``upper``, so it is computed only when ``upper`` holds ``skip``.
    """
    pre, concl, neg_just, positive = idx.pre, idx.concl, idx.neg_just, idx.positive_bits
    seen: set[int] = set()
    nodes = 0
    # Stack entries: (E, blocked-rules mask, applied indices, their neg_just
    # union, the rules open at the parent).
    stack: list[tuple[int, int, tuple[int, ...], int, tuple[int, ...]]] = [(w_mask, 0, (), 0, idx.rules)]
    while stack:
        e, blocked, applied, refuters, rules = stack.pop()
        nodes += 1
        if nodes > budget:
            raise BudgetExceededError(budget)
        if refuters & e or e >> 1 & e & positive or skip and e & skip == skip:
            continue
        act = None
        open_: list[int] = []
        live: list[int] = []
        held: list[int] = []
        for i in rules:
            if concl[i] & ~e == 0 or neg_just[i] & e:
                continue  # satisfied or refuted for good
            open_.append(i)
            if blocked >> i & 1:
                held.append(i)
                continue
            if act is None and pre[i] & ~e == 0:
                act = i
            live.append(i)
        if act is None:
            # A leaf: upper is E, which leaves every held rule open.
            if not held and e not in seen:
                seen.add(e)
                yield e, applied
            continue
        upper = idx.close(e, live)
        if any(concl[i] & ~upper and not neg_just[i] & upper for i in held):
            continue
        if skip and skip & upper == skip:
            forced = idx.close(e, [i for i in live if not neg_just[i] & upper])
            if forced & skip == skip:
                continue
        rules = tuple(open_)
        if neg_just[act] & upper:
            stack.append((e, blocked | (1 << act), applied, refuters, rules))
        stack.append((e | concl[act], blocked, applied + (act,), refuters | neg_just[act], rules))


def _search(theory: DefaultTheory, goal: Iterable[Literal]):
    """The rule base's masks, the facts' mask and the goal's mask, for
    consistent facts.  Facts off the rules never meet a rule, so the search
    leaves them out; a goal literal that is a fact is in every extension and
    needs no bit, and one neither a fact nor on a rule letter gets ``absent``."""
    idx = compiled(theory, _MaskIndex)
    lit_id = idx.lit_id
    w_mask = sum(1 << lit_id[l] for l in theory.facts & lit_id.keys())
    need = sum({1 << lit_id.get(l, idx.absent) for l in goal if l not in theory.facts})
    return idx, w_mask, need


def extensions(theory: DefaultTheory, budget: int = DEFAULT_BUDGET) -> tuple[SignatureSet, ...]:
    """All distinct signature sets of a DF theory, deterministically ordered.

    Returns an empty tuple iff the theory is incoherent.  A theory with
    inconsistent facts has exactly one (inconsistent) extension.
    """
    if not theory.consistent_facts():
        return (SignatureSet(theory.facts, ()),)
    idx, w_mask, _ = _search(theory, ())
    masks = _iter_masks(idx, w_mask, budget, 0)
    sigs = [SignatureSet(theory.facts | idx.to_literals(m), gen) for m, gen in masks]
    sigs.sort(key=lambda s: sorted(map(literal_order, s.literals)))
    return tuple(sigs)


def brave_member(theory: DefaultTheory, literal: Literal, budget: int = DEFAULT_BUDGET) -> bool:
    """True iff some extension contains the literal (false when incoherent)."""
    if not theory.consistent_facts():
        return True
    idx, w_mask, need = _search(theory, (literal,))
    if need >> idx.absent:
        return False
    # A consistent leaf holding the literal's negation misses the literal.
    skip = need and 1 << ((need.bit_length() - 1) ^ 1)
    return any(e & need == need for e, _ in _iter_masks(idx, w_mask, budget, skip))


# ---------------------------------------------------------------------------
# Extension check (NMU scope)
# ---------------------------------------------------------------------------


def is_extension(theory: DefaultTheory, candidate: frozenset[Literal]) -> bool:
    """Decide whether a literal set is an extension of a consistent NMU theory.

    Holds iff the candidate is consistent and holds the facts, every
    default is satisfied (its prerequisite is absent, or its consequent is
    present or contradicted), and every member literal that is not a fact
    ends a rule chain inside the candidate: one ``depgraph.reach`` walk from
    the rules that are prerequisite-free or grounded in a fact.  Every rule
    such a chain meets is applicable, hence satisfied, so the walk never
    needs a literal outside the candidate.
    """
    if not classify(theory).is_nmu:
        raise ScopeError("is_extension requires a normal mixed unary theory")
    if not theory.consistent_facts():
        raise ScopeError("is_extension requires consistent facts")
    candidate = frozenset(candidate)
    if not theory.facts <= candidate or is_inconsistent(candidate):
        return False
    chained: dict[Literal | None, list[Literal]] = {}
    for d in theory.defaults:
        (p,) = d.prerequisite or (None,)
        (c,) = d.consequent
        if (p is None or p in candidate) and c not in candidate and c.negate() not in candidate:
            return False
        chained.setdefault(None if p in theory.facts else p, []).append(c)
    return candidate <= theory.facts | reach(chained, (None,), candidate, ())


# ---------------------------------------------------------------------------
# Fast backend: polynomial skeptical entailment for NU / DNU theories
# ---------------------------------------------------------------------------


class _NuEntailer:
    """Skeptical literal queries on an NU or DNU theory via countermodel search.

    A DNU rule base (``nu`` False) is filed with its polarity swapped, so
    "positive" below means "of polarity ``nu``"; no dual rule is built.
    An extension omitting a goal corresponds to a set of letters kept
    non-positive.  Each such letter must either admit a firable attacking
    rule (one concluding its negation, with a live trigger) or have all of
    its positive supports starved in turn.  Keeping the requirement set
    closed under forced starvation while re-checking attacker liveness
    against the shrinking positive-reachability fixpoint decides
    feasibility exactly.  Every query runs inside the goal letter's
    ancestor cone, which the rule base's dependency graph keeps, and the
    fixpoint is one ``depgraph.reach`` walk, the routine behind the cones.
    The entailer holds no per-query state and never changes once built.
    """

    def __init__(self, defaults: Sequence):
        self.nu = all(p.positive for d in defaults for p in d.prerequisite)
        self.pos_triggers: dict[str, list[str | None]] = {}
        self.neg_triggers: dict[str, list[str | None]] = {}
        self.pos_children: dict[str, list[str]] = {}
        self.top_pos: set[str] = set()
        for d in defaults:
            (c,) = d.consequent
            trig: str | None = None
            if d.prerequisite:
                (p,) = d.prerequisite
                trig = p.letter
            if c.positive == self.nu:
                self.pos_triggers.setdefault(c.letter, []).append(trig)
                if trig is None:
                    self.top_pos.add(c.letter)
                else:
                    self.pos_children.setdefault(trig, []).append(c.letter)
            else:
                self.neg_triggers.setdefault(c.letter, []).append(trig)

    def _reach(self, cone: frozenset[str], wpos: set[str], wneg: set[str], avoid: set[str]) -> set[str]:
        """Cone letters that can be made positive while every letter in
        ``avoid`` stays non-positive (facts are immovable; callers exclude
        them)."""
        blocked = wneg | avoid
        return reach(self.pos_children, wpos | (self.top_pos & cone) - blocked, cone, blocked)

    def _can_all_be_nonpositive(
        self, cone: frozenset[str], wpos: set[str], wneg: set[str], targets: Iterable[str]
    ) -> bool:
        kept = set(targets)
        if kept & wpos:
            return False
        # Reach only shrinks as ``kept`` grows, so a letter with no live
        # attacker under a round's reach has none later either: each round
        # closes the forced starvation with a worklist, and the next round
        # rechecks every kept letter against the smaller reach.
        grew = True
        while grew:
            reach = self._reach(cone, wpos, wneg, kept)
            grew = False
            todo = list(kept)
            while todo:
                x = todo.pop()
                if x in wneg or any(t is None or t in reach for t in self.neg_triggers.get(x, ())):
                    continue
                for t in self.pos_triggers.get(x, ()):
                    if t is None or t in wpos:
                        return False
                    if t not in kept:
                        kept.add(t)
                        todo.append(t)
                        grew = True
        return True

    def skeptical(self, cone: frozenset[str], wpos: set[str], wneg: set[str], x: str, positive: bool) -> bool:
        """Whether every extension holds the literal (``x``, ``positive``);
        ``cone`` is the cone of ``x`` and the fact letters lie inside it."""
        if positive:
            if x in wpos:
                return True
            if x in wneg:
                return False
            return not self._can_all_be_nonpositive(cone, wpos, wneg, {x})
        if x in wneg:
            return True
        if x in wpos:
            return False
        if x not in self.neg_triggers:
            return False
        if x in self._reach(cone, wpos, wneg, set()):
            return False
        # x can never be positive; its negation is everywhere unless every
        # rule concluding -x can be starved, leaving x undecided.
        triggers = self.neg_triggers[x]
        return None in triggers or not self._can_all_be_nonpositive(cone, wpos, wneg, triggers)


def _fast_entails(theory: DefaultTheory, goal: Iterable[Literal]) -> bool:
    index = theory.fact_index()
    if index is None:
        return True  # inconsistent facts entail everything, on the cone or off it
    # A DNU rule base is filed with its polarity swapped: a fact is positive
    # there iff its polarity equals ``nu``, and the goal is negated.
    ent = compiled(theory, _NuEntailer)
    cone_of = cone_lookup(theory)
    for q in goal:
        cone = cone_of(q.letter)
        pos, neg = set(), set()
        for x in index.keys() & cone:
            (pos if index[x].positive == ent.nu else neg).add(x)
        if not ent.skeptical(cone, pos, neg, q.letter, q.positive == ent.nu):
            return False
    return True


def entails(
    theory: DefaultTheory,
    goal: Iterable[Literal],
    backend: str = AUTO,
    budget: int = DEFAULT_BUDGET,
) -> bool:
    """Skeptical entailment: every extension contains every goal literal.

    Incoherent theories entail everything vacuously; theories with
    inconsistent facts entail everything.  ``backend`` is one of
    ``"exhaustive"``, ``"fast"`` (NU/DNU only) or ``"auto"``.  The goal is
    read once, so an iterator will do; the fast backend stops reading it at
    the first literal not entailed.
    """
    if backend in (AUTO, FAST):
        frag = classify(theory)
        if frag.is_nu or frag.is_dnu:
            return _fast_entails(theory, goal)
        if backend == FAST:
            raise ScopeError("fast backend requires an NU or DNU theory")
    elif backend != EXHAUSTIVE:
        raise ValueError(f"unknown backend {backend!r}")
    if not theory.consistent_facts():
        return True
    idx, w_mask, need = _search(theory, goal)
    # A subtree whose E holds the goal holds no counterexample.
    return not need or all(e & need == need for e, _ in _iter_masks(idx, w_mask, budget, need))
