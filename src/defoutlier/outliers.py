"""Outlier and strong-outlier detection.

A witness S for an outlier candidate L (both nonempty disjoint fact
subsets) must have all its negations entailed once S is withdrawn
(condition 1), while withdrawing L as well breaks that entailment
(condition 2): for every literal of S in the strong variant, for at least
one in the general variant.  Each public operation decides both through
one ``_Checker``, which also rejects inconsistent facts and counts work.

On normal unary rules the ancestor cone of each literal of S splits the
theory (Turner 1996), so the witness checks split S by cone: withdrawing L
as well leaves unchanged whether the negation of a literal whose cone misses
L is entailed, and condition 1 has it entailed.  The strong check fails
without an entailment when S has such a literal; the general one fails when
every literal of S is such, and otherwise asks the literals on L's cone
first in condition 1 and only them in condition 2.  General enumeration
likewise asks condition 2 only of the literals whose cone meets the core.

Strong-outlier search exploits two structural facts: every inclusion-
minimal strong witness has all of its letters inside a single strongly
connected component of the dependency graph, and removing fact literals
whose letters cannot reach the witness letters never changes the checks.
The first restricts witness candidates to the facts on one rule component;
the second confines recognition's candidates to the components downstream
of L, and enumeration's outlier checks to "cores" on the witness's influence
cone, padding each passing core with off-cone facts without another
entailment.  Cones, components and the letters of L and S are masks over
the rule base's letter numbering, so each split is one ``&`` per literal,
and ``DefaultTheory.facts_on`` reads every pool and cone as one ``&`` with
the fact masks.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Collection, Iterable, Iterator

from .core import (
    DefaultTheory,
    Literal,
    classify,
    compiled,
    format_literals,
    letter_mask,
    lett,
    literal_order,
    numbering,
)
from .depgraph import cone_lookup, downstream_components
from .errors import InvalidQueryError, ScopeError
from .semantics import AUTO, DEFAULT_BUDGET, EXHAUSTIVE, FAST, _entails_without

LiteralSet = frozenset[Literal]


@dataclass(frozen=True)
class SearchStats:
    """Counters: candidates tried and entails() invocations made, as of the
    end of the operation.  Enumeration counts witness candidates (facts on
    rule letters only; one with no other fact on its influence cone makes no
    entailment) and influence-cone cores, not padded outliers."""

    candidates_examined: int = 0
    entailment_calls: int = 0


@dataclass(frozen=True)
class OutlierReport:
    outlier: LiteralSet
    witnesses: tuple[LiteralSet, ...]
    strong: bool
    search_stats: SearchStats = field(compare=False, default_factory=SearchStats)

    @property
    def found(self) -> bool:
        return bool(self.witnesses)


class _Checker:
    """Conditions 1 and 2 on one theory, for one public operation.  Rejects
    an unknown backend, inconsistent facts, the fast backend outside NU/DNU
    and, when ``op`` names a search, theories outside its scope; the
    entailer alone resolves the ``auto`` backend.  The conditions withdraw
    facts from the fact masks, which needs the consistent facts checked here."""

    def __init__(self, theory: DefaultTheory, strong: bool, backend: str, budget: int, op=None):
        if backend not in (AUTO, EXHAUSTIVE, FAST):
            raise ValueError(f"unknown backend {backend!r}")
        if not theory.consistent_facts():
            raise InvalidQueryError("facts must be consistent")
        frag = self.fragment = classify(theory)
        if op is not None and not frag.is_nmu:
            raise ScopeError(f"{op} requires a normal mixed unary theory")
        if not (frag.is_nu or frag.is_dnu):
            if backend == FAST:
                what = op or "a witness check"
                raise ScopeError(f"{what} with the fast backend requires an NU or DNU theory")
            if op is not None:
                import logging  # imported on use, to keep the module cheap to load

                logging.getLogger(__name__).warning(
                    "%s on a mixed unary theory uses exhaustive entailment; "
                    "expect exponential cost",
                    op,
                )
        self.theory = theory
        self.strong = strong
        self.backend = backend
        self.budget = budget
        self.candidates_examined = self.entailment_calls = 0

    def stats(self) -> SearchStats:
        return SearchStats(self.candidates_examined, self.entailment_calls)

    def cond1(self, s: Collection[Literal]) -> bool:
        """With S withdrawn, the theory entails the negation of S, negated
        lazily and asked in S's order."""
        self.entailment_calls += 1
        return _entails_without(self.theory, s, map(Literal.negate, s), self.backend, self.budget)

    def cond2(self, l: LiteralSet, s: LiteralSet, on: Iterable[Literal]) -> bool:
        """With S and L withdrawn, the theory no longer entails the negation
        of S (strong: of any single literal of S).  Only the literals ``on``
        of S are asked: the caller knows the rest stay entailed."""
        removed = s | l
        goals = ([x.negate()] for x in on) if self.strong else (map(Literal.negate, on),)
        for goal in goals:
            self.entailment_calls += 1
            if _entails_without(self.theory, removed, goal, self.backend, self.budget):
                return False
        return True

    def candidates(self, pools, max_size: int | None = None) -> Iterator[LiteralSet]:
        """The witness candidates in order: the subsets of each pool, of size
        at most ``max_size``.  Each one counts; the caller checks condition 1."""
        for pool in pools:
            for s in map(frozenset, _subsets(pool, max_size)):
                self.candidates_examined += 1
                yield s


def _check_witness(theory, outlier, witness, strong: bool, backend: str, budget: int) -> bool:
    l, s = frozenset(outlier), frozenset(witness)
    if not l:
        raise InvalidQueryError("outlier candidate must be nonempty")
    if not s:
        raise InvalidQueryError("witness candidate must be nonempty")
    if not l.isdisjoint(s):
        raise InvalidQueryError("outlier and witness candidates must be disjoint")
    facts = theory.facts
    if not (l <= facts and s <= facts):
        raise InvalidQueryError("outlier and witness candidates must be subsets of the facts")
    check = _Checker(theory, strong, backend, budget)
    if not check.fragment.is_nmu:
        return check.cond1(s) and check.cond2(l, s, s)
    # The split of S by cone (module docstring): asking the literals on L's
    # cone first lets cond1 fail early, and cond2 need ask no other.
    cone, own = cone_lookup(theory), letter_mask(theory, lett(l))
    on, off = [], []
    for x in s:
        (on if cone(x.letter) & own else off).append(x)
    if not on or strong and off:
        return False
    return check.cond1(on + off) and check.cond2(l, s, on)


def is_witness(
    theory: DefaultTheory,
    outlier: Iterable[Literal],
    witness: Iterable[Literal],
    backend: str = AUTO,
    budget: int = DEFAULT_BUDGET,
) -> bool:
    """Definition-level general witness check for an outlier candidate."""
    return _check_witness(theory, outlier, witness, False, backend, budget)


def is_strong_witness(
    theory: DefaultTheory,
    outlier: Iterable[Literal],
    witness: Iterable[Literal],
    backend: str = AUTO,
    budget: int = DEFAULT_BUDGET,
) -> bool:
    """Strong witness check: the broken entailment must fail for every
    witness literal, not just one."""
    return _check_witness(theory, outlier, witness, True, backend, budget)


def _subsets(pool: list[Literal], max_size: int | None = None) -> Iterable[tuple[Literal, ...]]:
    top = len(pool) if max_size is None else min(max_size, len(pool))
    for size in range(1, top + 1):
        yield from itertools.combinations(pool, size)


def recognize_strong(
    theory: DefaultTheory,
    outlier: Iterable[Literal],
    backend: str = AUTO,
    budget: int = DEFAULT_BUDGET,
    all_witnesses: bool = False,
) -> OutlierReport:
    """Decide whether L is a strong outlier; polynomial on acyclic NU/DNU.

    Candidate witnesses are drawn per strongly connected component, which is
    complete because a strong outlier always has an inclusion-minimal
    witness whose letters share one component.  Only the components
    downstream of L are read: the rules are normal and unary, so withdrawing
    L off the cone of S leaves condition 1 standing and condition 2 fails.
    By default the first witness found is returned; ``all_witnesses``
    collects every single-component one.
    """
    outlier = frozenset(outlier)
    if not outlier or not outlier <= theory.facts:
        raise InvalidQueryError("outlier candidate must be a nonempty subset of the facts")
    check = _Checker(theory, True, backend, budget, "recognize_strong")
    # Downstream of L lie only rule letters and L's own letters, and consistent
    # facts put no fact but L's on those: the rule components hold every pool.
    own = letter_mask(theory, lett(outlier))
    pools = (theory.facts_on(comp & ~own) for comp in downstream_components(theory, own))
    found: list[LiteralSet] = []
    for s in check.candidates(pools):
        if check.cond1(s) and check.cond2(outlier, s, s):
            found.append(s)
            if not all_witnesses:
                break
    return OutlierReport(outlier, tuple(found), True, check.stats())


def _enumerate(
    theory: DefaultTheory,
    k: int,
    backend: str,
    budget: int,
    strong: bool,
    h: int | None,
) -> tuple[OutlierReport, ...]:
    if k < 1:
        raise InvalidQueryError("outlier size bound k must be >= 1")
    op = "enumerate_strong" if strong else "enumerate_general"
    check = _Checker(theory, strong, backend, budget, op)
    # Pools hold the facts on rule letters only: per rule component in SCC
    # order (strong), or all together (general).  A fact on a letter no rule
    # mentions has no other fact on its cone, and once it is withdrawn no
    # extension holds its negation, so no witness holds it.
    pos, neg = theory.fact_masks()
    comps = list(downstream_components(theory, pos | neg))
    pools = map(theory.facts_on, comps) if strong else [theory.facts_on(sum(comps))]  # disjoint masks
    cone, ids = cone_lookup(theory), compiled(theory, numbering)

    hits: dict[LiteralSet, list[LiteralSet]] = {}
    for s_set in check.candidates(pools, h):
        # Incremental lemma: only facts on the influence cone of S matter, so
        # a candidate with no other fact there yields no outlier and skips cond1.
        cones = [(x, cone(x.letter)) for x in s_set]
        s_cone = 0
        for _, c in cones:  # a strong S lies in one SCC, whose letters share one cone
            s_cone |= c
        near = theory.facts_on(s_cone & ~letter_mask(theory, lett(s_set)))
        if not near or not check.cond1(s_set):
            continue
        far = None
        for core in map(frozenset, _subsets(near, k)):
            check.candidates_examined += 1
            # The split of S by cone (module docstring): every core meets the
            # one cone of a strong S, so cond2 asks all of S; a general cond2
            # asks only the literals whose cone meets the core.
            if strong:
                on = s_set
            else:
                own = letter_mask(theory, lett(core))
                on = [x for x, c in cones if c & own]
            if not check.cond2(core, s_set, on):
                continue
            hits.setdefault(core, []).append(s_set)
            if len(core) < k:  # room for a pad of off-cone facts, on rule letters or not
                if far is None:
                    far = theory.facts_on(~s_cone) + [x for x in theory.facts if x.letter not in ids]
                for pad in _subsets(far, k - len(core)):
                    hits.setdefault(core | frozenset(pad), []).append(s_set)

    stats = check.stats()
    reports = [OutlierReport(l_set, tuple(wits), strong, stats) for l_set, wits in hits.items()]
    reports.sort(key=lambda r: sorted(map(literal_order, r.outlier)))
    return tuple(reports)


def enumerate_strong(
    theory: DefaultTheory,
    k: int,
    backend: str = AUTO,
    budget: int = DEFAULT_BUDGET,
) -> tuple[OutlierReport, ...]:
    """All nonempty strong outlier sets of size at most k, with witnesses.

    Witness candidates range over the fact subsets of each rule component in
    SCC order; outlier cores over fact subsets of size up to k on each
    witness's influence cone, and passing cores are padded with off-cone facts.
    """
    return _enumerate(theory, k, backend, budget, strong=True, h=None)


def enumerate_general(
    theory: DefaultTheory,
    k: int,
    h: int,
    backend: str = AUTO,
    budget: int = DEFAULT_BUDGET,
) -> tuple[OutlierReport, ...]:
    """All general outlier sets of size at most k with a witness of size at
    most h.  Worst-case exponential; the witness-size cap keeps the candidate
    space polynomial for fixed h."""
    if h < 1:
        raise InvalidQueryError("witness size bound h must be >= 1")
    return _enumerate(theory, k, backend, budget, strong=False, h=h)


def minimal_strong_witnesses(
    theory: DefaultTheory,
    outlier: Iterable[Literal],
    backend: str = AUTO,
    budget: int = DEFAULT_BUDGET,
) -> frozenset[LiteralSet]:
    """All inclusion-minimal strong witness sets for an outlier candidate."""
    report = recognize_strong(theory, outlier, backend, budget, all_witnesses=True)
    minimal = [
        w
        for w in report.witnesses
        if not any(other < w for other in report.witnesses)
    ]
    return frozenset(minimal)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def format_report_lines(report: OutlierReport, all_witnesses: bool = True) -> list[str]:
    """Line-oriented text: one line per (outlier, witness) pair."""
    strong = "true" if report.strong else "false"
    shown = report.witnesses if all_witnesses else report.witnesses[:1]
    return [
        f"outlier {format_literals(report.outlier)} witness {format_literals(w)} strong={strong}"
        for w in shown
    ]


def format_report_record(report: OutlierReport) -> str:
    """One machine-readable JSON record per (outlier, witness-list)."""
    import json  # imported on use, to keep the module cheap to load

    record = {
        "outlier": [str(l) for l in sorted(report.outlier, key=literal_order)],
        "witnesses": [[str(l) for l in sorted(w, key=literal_order)] for w in report.witnesses],
        "strong": report.strong,
    }
    return json.dumps(record)
