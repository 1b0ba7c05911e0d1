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
The search's bitmasks are compiled once per rule base over its letter
numbering (``core.numbering``), literal bit i being rule letter i and bit
i + n its negation, so a theory's fact masks give its facts' mask at once;
a fact on a letter no rule mentions never meets a rule, so every extension
carries it unchanged.  The fast backend answers
skeptical literal queries on normal unary (NU) and dual normal unary (DNU)
theories in polynomial time by searching for a countermodel extension: it
grows the set of letters that must be kept non-positive, re-checking
blockability against a positive reachability fixpoint until the requirement
set stabilizes or becomes unsatisfiable.  It reads only the goal letter's
ancestor cone, the letters with a rule path to it: NU and DNU rules are
normal and unary, so a predecessor-closed letter set is a splitting set
(Turner, "Splitting a Default Theory", AAAI 1996) and nothing outside the
cone changes the answer.  A goal literal whose cone has c letters, with e
rules mentioning them, costs O(c * e) steps, whatever the size of the
theory: its letter sets are masks over the numbering, and its facts are one
``&`` of the theory's fact masks with the cone's mask.  (A step on masks
over n rule letters touches n/30 machine digits, which stays small next to
the interpreter's cost per step at the sizes the benchmarks reach.)  The
cone comes from ``depgraph.cone_lookup``, looked up once per call, which
keeps it once per letter and rule base for every layer.  Both backends agree wherever the fast one applies, as the test
suite checks on large seeded random families.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

from .core import DefaultTheory, Literal, bits, classify, compiled, is_inconsistent, literal_order, numbering
from .depgraph import cone_lookup, walk
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
    """Bitmask form of a rule base over its letter ``numbering``: literal bit
    i is rule letter i and bit i + n its negation, so a theory's fact masks
    ``pos`` and ``neg`` give its facts' mask ``pos | neg << n``.  Bit
    ``absent`` (2n) is one that no extension holds."""

    def __init__(self, theory: DefaultTheory):
        defaults = theory.defaults
        ids = compiled(theory, numbering)
        n = self.n = len(ids)
        lit_id = self.lit_id = {Literal(x, p): i if p else i + n for x, i in ids.items() for p in (True, False)}
        self.absent = 2 * n
        self.pre = [sum(1 << lit_id[l] for l in d.prerequisite) for d in defaults]
        self.concl = [sum(1 << lit_id[l] for l in d.consequent) for d in defaults]
        # Mask of the negations of the justification literals: a rule is
        # refuted by E exactly when this intersects E.
        self.neg_just = [sum(1 << lit_id[l.negate()] for l in d.justification) for d in defaults]
        # Rules whose justification contradicts itself can never fire.
        self.rules = tuple(i for i, d in enumerate(defaults) if not is_inconsistent(d.justification))

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
    pre, concl, neg_just, n = idx.pre, idx.concl, idx.neg_just, idx.n
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
        if refuters & e or e >> n & e or skip and e & skip == skip:
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
    pos, neg = theory.fact_masks()
    w_mask = pos | neg << idx.n
    need = 0
    for l in goal:
        if l in idx.lit_id:
            need |= 1 << idx.lit_id[l]
        elif l not in theory.facts:
            need |= 1 << idx.absent
    return idx, w_mask, need & ~w_mask


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
    skip = need and 1 << idx.lit_id[literal.negate()]
    return any(e & need == need for e, _ in _iter_masks(idx, w_mask, budget, skip))


# ---------------------------------------------------------------------------
# Extension check (NMU scope)
# ---------------------------------------------------------------------------


def is_extension(theory: DefaultTheory, candidate: frozenset[Literal]) -> bool:
    """Decide whether a literal set is an extension of a consistent NMU theory.

    Holds iff the candidate is consistent and holds the facts, every
    default is satisfied (its prerequisite is absent, or its consequent is
    present or contradicted), and every member literal that is not a fact
    ends a rule chain inside the candidate: one ``depgraph.walk`` over the
    search's literal bits from the rules that are prerequisite-free or
    grounded in a fact.  Every rule such a chain meets is applicable, hence
    satisfied, so the walk never needs a literal outside the candidate.
    """
    if not classify(theory).is_nmu:
        raise ScopeError("is_extension requires a normal mixed unary theory")
    if not theory.consistent_facts():
        raise ScopeError("is_extension requires consistent facts")
    candidate = frozenset(candidate)
    if not theory.facts <= candidate or is_inconsistent(candidate):
        return False
    idx, w_mask, _ = _search(theory, ())
    held = 0
    for l in candidate:
        if l in idx.lit_id:
            held |= 1 << idx.lit_id[l]
        elif l not in theory.facts:
            return False  # no rule concludes a literal off the rule letters
    grounded, chained = 0, [0] * idx.absent
    for pre, concl, neg_concl in zip(idx.pre, idx.concl, idx.neg_just):
        if not pre & ~held and not (concl | neg_concl) & held:
            return False
        if pre & ~w_mask:
            chained[pre.bit_length() - 1] |= concl
        else:
            grounded |= concl
    return not held & ~w_mask & ~walk(chained, grounded & held, held)


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
    fixpoint is one ``depgraph.walk``, the routine behind the cones.  Letter
    sets are masks over the rule base's ``numbering``; per letter, the
    entailer files its rules' triggers and children as masks too.  It holds
    no per-query state and never changes once built.
    """

    def __init__(self, theory: DefaultTheory):
        ids = compiled(theory, numbering)
        self.nu = all(p.positive for d in theory.defaults for p in d.prerequisite)
        self.supports = [0] * len(ids)  # triggers of the positive rules concluding a letter
        self.attackers = [0] * len(ids)  # triggers of the rules concluding its negation
        self.children = [0] * len(ids)  # letters the positive rules a letter triggers conclude
        self.top = 0  # letters a prerequisite-free rule concludes positively
        self.top_attacked = 0  # letters a prerequisite-free rule concludes negatively
        self.attacked = 0  # letters some rule concludes negatively
        for d in theory.defaults:
            (c,) = d.consequent
            x = ids[c.letter]
            if c.positive == self.nu:
                if not d.prerequisite:
                    self.top |= 1 << x
                for p in d.prerequisite:
                    self.supports[x] |= 1 << ids[p.letter]
                    self.children[ids[p.letter]] |= 1 << x
            else:
                self.attacked |= 1 << x
                if not d.prerequisite:
                    self.top_attacked |= 1 << x
                for p in d.prerequisite:
                    self.attackers[x] |= 1 << ids[p.letter]

    def _reach(self, cone: int, wpos: int, wneg: int, avoid: int) -> int:
        """Cone letters that can be made positive while every letter in
        ``avoid`` stays non-positive (facts are immovable; callers exclude
        them)."""
        allowed = cone & ~(wneg | avoid)
        return walk(self.children, wpos | self.top & allowed, allowed)

    def _can_all_be_nonpositive(self, cone: int, wpos: int, wneg: int, targets: int) -> bool:
        kept = targets
        if kept & wpos:
            return False
        # Reach only shrinks as ``kept`` grows, so a letter with no live
        # attacker under a round's reach has none later either: each round
        # closes the forced starvation layer by layer, and the next round
        # rechecks every kept letter against the smaller reach.
        defended = wneg | self.top_attacked
        grew = True
        while grew:
            reach = self._reach(cone, wpos, wneg, kept)
            grew = False
            todo = kept
            while todo:
                starved = 0  # triggers of the supports of the undefended letters
                for x in bits(todo & ~defended):
                    if not self.attackers[x] & reach:
                        if self.top >> x & 1:
                            return False
                        starved |= self.supports[x]
                if starved & wpos:
                    return False
                todo = starved & ~kept
                kept |= todo
                grew = grew or bool(todo)
        return True

    def skeptical(self, cone: int, wpos: int, wneg: int, x: int, positive: bool) -> bool:
        """Whether every extension holds the literal (letter ``x``, ``positive``);
        ``cone`` is the cone of ``x`` and the fact masks lie inside it."""
        bit = 1 << x
        if positive:
            if wpos & bit:
                return True
            if wneg & bit:
                return False
            return not self._can_all_be_nonpositive(cone, wpos, wneg, bit)
        if wneg & bit:
            return True
        if wpos & bit or not self.attacked & bit:
            return False
        if self._reach(cone, wpos, wneg, 0) & bit:
            return False
        # x can never be positive; its negation is everywhere unless every
        # rule concluding -x can be starved, leaving x undecided.
        if self.top_attacked & bit:
            return True
        return not self._can_all_be_nonpositive(cone, wpos, wneg, self.attackers[x])


def _fast_entails(theory: DefaultTheory, goal: Iterable[Literal]) -> bool:
    if not theory.consistent_facts():
        return True  # inconsistent facts entail everything, on the cone or off it
    # A DNU rule base is filed with its polarity swapped: a fact is positive
    # there iff its polarity equals ``nu``, and the goal is negated.
    ent, ids, cone_of = compiled(theory, _NuEntailer), compiled(theory, numbering), cone_lookup(theory)
    pos, neg = theory.fact_masks()
    if not ent.nu:
        pos, neg = neg, pos
    for q in goal:
        if q.letter not in ids:  # no rule reaches it: entailed iff a fact
            if q not in theory.facts:
                return False
            continue
        cone = cone_of(q.letter)
        if not ent.skeptical(cone, pos & cone, neg & cone, ids[q.letter], q.positive == ent.nu):
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
