"""Extensions, entailment, and proofs for disjunction-free default theories.

Two entailment backends are provided.  The exhaustive backend enumerates
every signature set by depth-first search over rule application sequences,
branching on applying versus permanently blocking each applicable rule and
validating candidates against the closure and justification-coherence
conditions.  It prunes every branch where an applied rule is refuted or a
blocked rule can no longer end satisfied or refuted, and it is total (up to
a configurable node budget) on all DF theories.  The fast backend answers
skeptical literal queries on normal unary (NU) and dual normal unary (DNU)
theories in polynomial time by searching for a countermodel extension: it
grows the set of letters that must be kept non-positive, re-checking
blockability against a positive reachability fixpoint until the requirement
set stabilizes or becomes unsatisfiable.  It reads only the goal letter's
ancestor cone, the letters with a rule path to it: NU and DNU rules are
normal and unary, so a predecessor-closed letter set is a splitting set
(Turner, "Splitting a Default Theory", AAAI 1996) and nothing outside the
cone changes the answer.  A goal literal whose cone has c letters, with e
rules mentioning them, costs O(c * e) plus O(min(c, |W|)) for its fact
letters, whatever the size of the theory; the cone is computed once per
letter and rule base.  Both backends agree wherever the fast one applies,
as the test suite checks on large seeded random families.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, NamedTuple, Sequence

from .core import DefaultTheory, Literal, _rule_letters, classify, compiled, is_inconsistent, literal_order
from .depgraph import influencing_letters
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


@dataclass(frozen=True)
class Proof:
    """A grounded derivation of a literal: either a fact or a rule chain."""

    target: Literal
    steps: tuple
    in_w: bool

    def __len__(self) -> int:
        return 0 if self.in_w else len(self.steps)


# ---------------------------------------------------------------------------
# Exhaustive backend: signature-set enumeration
# ---------------------------------------------------------------------------


class _MaskIndex:
    """Bitmask encoding of a theory: literal i*2 is letter i, i*2+1 its negation."""

    def __init__(self, theory: DefaultTheory):
        self.letters = sorted(theory.letters())
        self.lit_id: dict[Literal, int] = {}
        for i, x in enumerate(self.letters):
            self.lit_id[Literal(x, True)] = 2 * i
            self.lit_id[Literal(x, False)] = 2 * i + 1

        def mask(literals: Iterable[Literal]) -> int:
            m = 0
            for l in literals:
                m |= 1 << self.lit_id[l]
            return m

        self.w_mask = mask(theory.facts)
        self.pre = [mask(d.prerequisite) for d in theory.defaults]
        self.concl = [mask(d.consequent) for d in theory.defaults]
        # Mask of the negations of the justification literals: a rule is
        # refuted by E exactly when this intersects E.
        self.neg_just = [mask(l.negate() for l in d.justification) for d in theory.defaults]
        # Rules whose justification contradicts itself can never fire.
        self.rules = [
            i for i, d in enumerate(theory.defaults) if not is_inconsistent(d.justification)
        ]
        self.positive_bits = sum(1 << 2 * i for i in range(len(self.letters)))

    def to_literals(self, m: int) -> frozenset[Literal]:
        return frozenset(l for l, bit in self.lit_id.items() if m >> bit & 1)


def _iter_masks(idx: _MaskIndex, budget: int):
    """Yield each distinct signature set (as a bitmask) with one generating
    sequence, in depth-first apply-before-block order.

    A node is pruned once no leaf below it can be valid: an applied rule is
    refuted (E only grows; an inconsistent E refutes every rule), or a
    blocked rule is neither satisfied nor refuted by ``upper``, the closure
    of E under the rules neither blocked nor refuted, which contains every E
    reachable below the node.
    """
    pre, concl, neg_just = idx.pre, idx.concl, idx.neg_just
    rules, positive = idx.rules, idx.positive_bits
    seen: set[int] = set()
    nodes = 0
    # Stack entries: (E, blocked-rules mask, applied indices, their neg_just union).
    stack: list[tuple[int, int, tuple[int, ...], int]] = [(idx.w_mask, 0, (), 0)]
    while stack:
        e, blocked, applied, refuters = stack.pop()
        nodes += 1
        if nodes > budget:
            raise BudgetExceededError(budget)
        if refuters & e or e >> 1 & e & positive:
            continue
        act = None
        live: list[int] = []
        held: list[int] = []
        for i in rules:
            if concl[i] & ~e == 0 or neg_just[i] & e:
                continue  # satisfied or refuted for good
            if blocked >> i & 1:
                held.append(i)
                continue
            if act is None and pre[i] & ~e == 0:
                act = i
            live.append(i)
        upper, grew = e, bool(held) and act is not None
        while grew:
            grew = False
            for i in live:
                if concl[i] & ~upper and pre[i] & ~upper == 0:
                    upper |= concl[i]
                    grew = True
        if any(concl[i] & ~upper and not neg_just[i] & upper for i in held):
            continue
        if act is not None:
            stack.append((e, blocked | (1 << act), applied, refuters))
            stack.append((e | concl[act], blocked, applied + (act,), refuters | neg_just[act]))
        elif e not in seen:
            seen.add(e)
            yield e, applied


def extensions(theory: DefaultTheory, budget: int = DEFAULT_BUDGET) -> tuple[SignatureSet, ...]:
    """All distinct signature sets of a DF theory, deterministically ordered.

    Returns an empty tuple iff the theory is incoherent.  A theory with
    inconsistent facts has exactly one (inconsistent) extension.
    """
    if not theory.consistent_facts():
        return (SignatureSet(theory.facts, ()),)
    idx = _MaskIndex(theory)
    sigs = [SignatureSet(idx.to_literals(m), gen) for m, gen in _iter_masks(idx, budget)]
    sigs.sort(key=lambda s: sorted(map(literal_order, s.literals)))
    return tuple(sigs)


def brave_member(theory: DefaultTheory, literal: Literal, budget: int = DEFAULT_BUDGET) -> bool:
    """True iff some extension contains the literal (false when incoherent)."""
    if not theory.consistent_facts():
        return True
    idx = _MaskIndex(theory)
    bit = idx.lit_id.get(literal)
    if bit is None:
        return False
    return any(e >> bit & 1 for e, _ in _iter_masks(idx, budget))


# ---------------------------------------------------------------------------
# Theorem-style extension check and proofs (NMU scope)
# ---------------------------------------------------------------------------


def _require_nmu(theory: DefaultTheory, op: str) -> None:
    if not classify(theory).is_nmu:
        raise ScopeError(f"{op} requires a normal mixed unary theory")


def _derivations(
    theory: DefaultTheory, context: frozenset[Literal]
) -> dict[Literal, tuple[Literal | None, int]]:
    """Literals provable via rule chains w.r.t. (D, W) and the context set.

    Breadth-first from the rules that are prerequisite-free or grounded in a
    fact (the chain start, None), never concluding a literal the context
    contradicts.  Each literal maps to the conclusion it chains from and the
    rule's index; these parent links form shortest chains.
    """
    chained: dict[Literal | None, list[int]] = {}
    for i, d in enumerate(theory.defaults):
        (p,) = d.prerequisite or (None,)
        chained.setdefault(None if p in theory.facts else p, []).append(i)
    parent: dict[Literal, tuple[Literal | None, int]] = {}
    queue: list[Literal | None] = [None]
    for prev in queue:  # the queue grows while it is walked
        for i in chained.get(prev, ()):
            (c,) = theory.defaults[i].consequent
            if c not in parent and c.negate() not in context:
                parent[c] = (prev, i)
                queue.append(c)
    return parent


def is_extension(theory: DefaultTheory, candidate: frozenset[Literal]) -> bool:
    """Decide whether a literal set is an extension of a consistent NMU theory.

    Holds iff the facts are contained, every default is satisfied (its
    prerequisite is absent, or its consequent is present or contradicted),
    and every member literal has a grounded proof.
    """
    _require_nmu(theory, "is_extension")
    if not theory.consistent_facts():
        raise ScopeError("is_extension requires consistent facts")
    candidate = frozenset(candidate)
    if not theory.facts <= candidate:
        return False
    for d in theory.defaults:
        if d.prerequisite:
            (p,) = d.prerequisite
            if p not in candidate:
                continue
        (c,) = d.consequent
        if c not in candidate and c.negate() not in candidate:
            return False
    return candidate <= theory.facts | _derivations(theory, candidate).keys()


def find_proof(
    theory: DefaultTheory, literal: Literal, context: Iterable[Literal]
) -> Proof | None:
    """Shortest grounded rule chain deriving the literal, or a fact marker.

    A chain is valid when each rule is prerequisite-free, grounded in a fact,
    or chained to the previous conclusion, and no conclusion along it is
    contradicted by the context.  Shortest chains are minimal: removing any
    rule breaks them.
    """
    _require_nmu(theory, "find_proof")
    if literal in theory.facts:
        return Proof(literal, (), True)

    parent = _derivations(theory, frozenset(context))
    if literal not in parent:
        return None
    steps = []
    at: Literal | None = literal
    while at is not None:
        at, i = parent[at]
        steps.append(theory.defaults[i])
    return Proof(literal, tuple(reversed(steps)), False)


# ---------------------------------------------------------------------------
# Fast backend: polynomial skeptical entailment for NU / DNU theories
# ---------------------------------------------------------------------------


class _Cone(NamedTuple):
    """The ancestor cone of one goal letter: the only letters its answer
    reads, since every trigger of a cone letter lies in the cone too."""

    letters: frozenset[str]
    literals: tuple[tuple[str, Literal, Literal], ...]  # (y, y, -y) per letter, shared
    top: tuple[str, ...]  # cone letters a prerequisite-free positive rule concludes
    inside: frozenset[str] | None  # letters ``_reach`` may enter; None: all

    def fact_letters(self, facts: frozenset[Literal]) -> tuple[set[str], set[str]]:
        """The cone letters of the positive and of the negative facts,
        reading whichever of the cone and the facts is smaller."""
        if len(self.literals) <= len(facts):
            pos = {x for x, p, _ in self.literals if p in facts}
            neg = {x for x, _, n in self.literals if n in facts}
        else:
            pos = {l.letter for l in facts if l.positive and l.letter in self.letters}
            neg = {l.letter for l in facts if not l.positive and l.letter in self.letters}
        return pos, neg


class _NuEntailer:
    """Skeptical literal queries on an NU theory via countermodel search.

    An extension omitting a goal corresponds to a set of letters kept
    non-positive.  Each such letter must either admit a firable attacking
    rule (one concluding its negation, with a live trigger) or have all of
    its positive supports starved in turn.  Keeping the requirement set
    closed under forced starvation while re-checking attacker liveness
    against the shrinking positive-reachability fixpoint decides
    feasibility exactly.  Every query runs inside the goal letter's
    ancestor cone, computed once per letter.
    """

    def __init__(self, defaults: Sequence):
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
            if c.positive:
                self.pos_triggers.setdefault(c.letter, []).append(trig)
                if trig is None:
                    self.top_pos.add(c.letter)
                else:
                    self.pos_children.setdefault(trig, []).append(c.letter)
            else:
                self.neg_triggers.setdefault(c.letter, []).append(trig)
        self.letters = _rule_letters(defaults)
        self._cones: dict[str, _Cone] = {}
        self._literals: dict[str, tuple[str, Literal, Literal]] = {}

    def cone(self, theory: DefaultTheory, x: str) -> _Cone:
        """The cone of letter ``x`` of ``theory``, one of this entailer's
        fact variants.  Kept for the letters the rules mention, whose
        ancestors are rule letters too; their literals are made once and
        shared, so the cache holds little beyond the cones' letter sets."""
        try:
            return self._cones[x]
        except KeyError:
            pass
        if x not in self.letters:  # its own cone; nothing is kept
            alone = frozenset([x])
            return _Cone(alone, ((x, Literal(x, True), Literal(x, False)),), (), alone)
        letters = influencing_letters(theory, (x,))
        literals = self._literals
        for y in letters:
            if y not in literals:
                literals[y] = (y, Literal(y, True), Literal(y, False))
        cone = self._cones[x] = _Cone(
            letters,
            tuple(literals[y] for y in letters),
            tuple(y for y in letters if y in self.top_pos),
            None if self.letters <= letters else letters,
        )
        return cone

    def _reach(self, cone: _Cone, wpos: set[str], wneg: set[str], avoid: set[str]) -> set[str]:
        """Cone letters that can be made positive while every letter in
        ``avoid`` stays non-positive (facts are immovable; callers exclude
        them)."""
        inside = cone.inside
        seen = set(wpos)
        frontier = list(seen)
        for y in cone.top:
            if y not in seen and y not in wneg and y not in avoid:
                seen.add(y)
                frontier.append(y)
        while frontier:
            x = frontier.pop()
            for y in self.pos_children.get(x, ()):
                if y not in seen and y not in wneg and y not in avoid and (inside is None or y in inside):
                    seen.add(y)
                    frontier.append(y)
        return seen

    def _can_all_be_nonpositive(
        self, cone: _Cone, wpos: set[str], wneg: set[str], targets: Iterable[str]
    ) -> bool:
        kept = set(targets)
        if kept & wpos:
            return False
        while True:
            reach = self._reach(cone, wpos, wneg, kept)
            grew = False
            for x in sorted(kept):
                if x in wneg:
                    continue
                attackers = self.neg_triggers.get(x, ())
                if any(t is None or t in reach for t in attackers):
                    continue
                missing: set[str] = set()
                for t in self.pos_triggers.get(x, ()):
                    if t is None:
                        return False
                    if t not in kept:
                        missing.add(t)
                if missing & wpos:
                    return False
                if missing:
                    kept |= missing
                    grew = True
            if not grew:
                return True

    def skeptical(self, cone: _Cone, wpos: set[str], wneg: set[str], x: str, positive: bool) -> bool:
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
        # rule mentioning x can be starved, leaving x wholly undecided.
        triggers: set[str] = set()
        for t in self.neg_triggers.get(x, ()):
            if t is None:
                return True
            triggers.add(t)
        for t in self.pos_triggers.get(x, ()):
            if t is not None:
                triggers.add(t)
        return not self._can_all_be_nonpositive(cone, wpos, wneg, triggers)


def _dual_entailer(defaults: Sequence) -> _NuEntailer:
    return _NuEntailer([d.dual() for d in defaults])


def _fast_entails(theory: DefaultTheory, goal: Iterable[Literal], nu: bool) -> bool:
    if not theory.consistent_facts():
        return True  # inconsistent facts entail everything, on the cone or off it
    # A DNU query is answered over the dual (NU) rules: swap the fact
    # polarities and negate the goal instead of building the dual theory.
    ent = compiled(theory, _NuEntailer if nu else _dual_entailer)
    for q in goal:
        cone = ent.cone(theory, q.letter)
        pos, neg = cone.fact_letters(theory.facts)
        if not nu:
            pos, neg = neg, pos
        if not ent.skeptical(cone, pos, neg, q.letter, q.positive == nu):
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
    ``"exhaustive"``, ``"fast"`` (NU/DNU only) or ``"auto"``.
    """
    goal = list(goal)
    if backend in (AUTO, FAST):
        frag = classify(theory)
        if frag.is_nu or frag.is_dnu:
            return _fast_entails(theory, goal, frag.is_nu)
        if backend == FAST:
            raise ScopeError("fast backend requires an NU or DNU theory")
    elif backend != EXHAUSTIVE:
        raise ValueError(f"unknown backend {backend!r}")
    if not theory.consistent_facts():
        return True
    idx = _MaskIndex(theory)
    # A literal absent from the theory gets a bit that no extension holds.
    need = sum({1 << idx.lit_id.get(l, 2 * len(idx.letters)) for l in goal})
    return all(e & need == need for e, _ in _iter_masks(idx, budget))
