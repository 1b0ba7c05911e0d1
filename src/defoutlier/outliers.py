"""Outlier and strong-outlier detection.

A witness S for an outlier candidate L (both nonempty disjoint fact
subsets) must have all its negations entailed once S is withdrawn
(condition 1), while withdrawing L as well breaks that entailment
(condition 2): for every literal of S in the strong variant, for at least
one in the general variant.  Each public operation decides both through
one ``_Checker``, which also rejects inconsistent facts and counts work.

Strong-outlier search exploits two structural facts: every inclusion-
minimal strong witness has all of its letters inside a single strongly
connected component of the dependency graph, and removing fact literals
whose letters cannot reach the witness letters never changes the checks.
The first restricts witness candidates; the second confines outlier checks
to "cores" on the witness's influence cone, and pads each passing core with
off-cone facts without another entailment.
"""

from __future__ import annotations

import itertools
import json
import logging
from dataclasses import dataclass, field
from typing import Iterable, Iterator

from .core import (
    DefaultTheory,
    Literal,
    classify,
    format_literals,
    lett,
    literal_order,
    negate_all,
)
from .depgraph import decompose, influencing_letters
from .errors import InvalidQueryError, ScopeError
from .semantics import AUTO, DEFAULT_BUDGET, EXHAUSTIVE, FAST, entails

logger = logging.getLogger(__name__)

LiteralSet = frozenset[Literal]


@dataclass
class SearchStats:
    """Counters: candidates tried and entails() invocations made.  Enumeration
    counts witness candidates and influence-cone cores, not padded outliers."""

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
    inconsistent facts and, when ``op`` names a search, theories outside its
    scope; ``entails`` alone resolves the ``auto`` backend."""

    def __init__(self, theory: DefaultTheory, strong: bool, backend: str, budget: int, op=None):
        if not theory.consistent_facts():
            raise InvalidQueryError("facts must be consistent")
        if op is not None:
            frag = classify(theory)
            if not frag.is_nmu:
                raise ScopeError(f"{op} requires a normal mixed unary theory")
            if not (frag.is_nu or frag.is_dnu):
                if backend == FAST:
                    raise ScopeError(f"{op} with the fast backend requires an NU or DNU theory")
                logger.warning(
                    "%s on a mixed unary theory uses exhaustive entailment; "
                    "expect exponential cost",
                    op,
                )
        self.theory = theory
        self.strong = strong
        self.backend = backend
        self.budget = budget
        self.stats = SearchStats()

    def cond1(self, s: LiteralSet) -> bool:
        """With S withdrawn, the theory entails the negation of S."""
        self.stats.entailment_calls += 1
        return entails(self.theory.remove_facts(s), negate_all(s), self.backend, self.budget)

    def cond2(self, l: LiteralSet, s: LiteralSet) -> bool:
        """With S and L withdrawn, the theory no longer entails the negation
        of S (strong: of any single literal of S)."""
        reduced = self.theory.remove_facts(s | l)
        goals = ([x.negate()] for x in s) if self.strong else (negate_all(s),)
        for goal in goals:
            self.stats.entailment_calls += 1
            if entails(reduced, goal, self.backend, self.budget):
                return False
        return True

    def candidates(self, pools, max_size: int | None = None) -> Iterator[LiteralSet]:
        """The witness candidates passing condition 1, in order: the subsets
        of each pool, of size at most ``max_size``.  Each one tried counts."""
        for pool in pools:
            for s in map(frozenset, _subsets(pool, max_size)):
                self.stats.candidates_examined += 1
                if self.cond1(s):
                    yield s


def _check_witness(theory, outlier, witness, strong: bool, backend: str, budget: int) -> bool:
    l, s = frozenset(outlier), frozenset(witness)
    if not l:
        raise InvalidQueryError("outlier candidate must be nonempty")
    if not s:
        raise InvalidQueryError("witness candidate must be nonempty")
    if l & s:
        raise InvalidQueryError("outlier and witness candidates must be disjoint")
    if not (l | s) <= theory.facts:
        raise InvalidQueryError("outlier and witness candidates must be subsets of the facts")
    check = _Checker(theory, strong, backend, budget)
    frag = classify(theory)
    answers = backend in (AUTO, EXHAUSTIVE) or backend == FAST and (frag.is_nu or frag.is_dnu)
    if frag.is_nmu and answers and not lett(l) & influencing_letters(theory, lett(s)):
        # The rules are normal and unary, so the cone of S splits the theory:
        # withdrawing L off it leaves cond1's answer, and cond2 negates it.
        return False
    return check.cond1(s) and check.cond2(l, s)


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


def _witness_pool(theory: DefaultTheory, exclude: LiteralSet) -> list[list[Literal]]:
    """Fact literals grouped by ordered SCC, excluding the outlier candidate."""
    components = decompose(theory).components
    comp_of = {v: i for i, comp in enumerate(components) for v in comp}
    pools: list[list[Literal]] = [[] for _ in components]
    for l in sorted(theory.facts - exclude, key=literal_order):
        pools[comp_of[l.letter]].append(l)
    return pools


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
    witness whose letters share one component.  By default the first witness
    found is returned; ``all_witnesses`` collects every single-component one.
    """
    outlier = frozenset(outlier)
    if not outlier or not outlier <= theory.facts:
        raise InvalidQueryError("outlier candidate must be a nonempty subset of the facts")
    check = _Checker(theory, True, backend, budget, "recognize_strong")
    found: list[LiteralSet] = []
    for s in check.candidates(_witness_pool(theory, outlier)):
        if check.cond2(outlier, s):
            found.append(s)
            if not all_witnesses:
                break
    return OutlierReport(outlier, tuple(found), True, check.stats)


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
    facts_sorted = sorted(theory.facts, key=literal_order)
    fact_of = {l.letter: l for l in facts_sorted}  # consistent: one fact per letter
    pools = _witness_pool(theory, frozenset()) if strong else [facts_sorted]

    hits: dict[LiteralSet, list[LiteralSet]] = {}
    for s_set in check.candidates(pools, h):
        # Incremental lemma: only facts on the influence cone of S matter.
        cone = influencing_letters(theory, lett(s_set))
        near = sorted({fact_of[x] for x in cone if x in fact_of} - s_set, key=literal_order)
        far = None
        for core in map(frozenset, _subsets(near, k)):
            check.stats.candidates_examined += 1
            if not check.cond2(core, s_set):
                continue
            if far is None:
                far = [l for l in facts_sorted if l.letter not in cone]
            hits.setdefault(core, []).append(s_set)
            for pad in _subsets(far, k - len(core)):
                hits.setdefault(core | frozenset(pad), []).append(s_set)

    reports = [
        OutlierReport(l_set, tuple(wits), strong, check.stats)
        for l_set, wits in hits.items()
    ]
    reports.sort(key=lambda r: sorted(map(literal_order, r.outlier)))
    return tuple(reports)


def enumerate_strong(
    theory: DefaultTheory,
    k: int,
    backend: str = AUTO,
    budget: int = DEFAULT_BUDGET,
) -> tuple[OutlierReport, ...]:
    """All nonempty strong outlier sets of size at most k, with witnesses.

    Witness candidates range over single-SCC fact subsets in component
    order; outlier cores over fact subsets of size up to k on each witness's
    influence cone, and passing cores are padded with off-cone facts.
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
    if not report.witnesses:
        return [f"outlier {format_literals(report.outlier)} witness none strong={strong}"]
    shown = report.witnesses if all_witnesses else report.witnesses[:1]
    return [
        f"outlier {format_literals(report.outlier)} witness {format_literals(w)} strong={strong}"
        for w in shown
    ]


def format_report_record(report: OutlierReport) -> str:
    """One machine-readable JSON record per (outlier, witness-list)."""
    record = {
        "outlier": [str(l) for l in sorted(report.outlier, key=literal_order)],
        "witnesses": [[str(l) for l in sorted(w, key=literal_order)] for w in report.witnesses],
        "strong": report.strong,
    }
    return json.dumps(record)
