"""Outlier and strong-outlier detection.

A witness S for an outlier candidate L (both nonempty disjoint fact
subsets) must have all its negations entailed once S is withdrawn, while
withdrawing L as well breaks that entailment: for every literal of S in
the strong variant, for at least one in the general variant.

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
from typing import Iterable

from .core import (
    DefaultTheory,
    Literal,
    classify,
    format_literals,
    is_inconsistent,
    lett,
    negate_all,
)
from .depgraph import build_graph, decompose, influencing_letters
from .errors import InvalidQueryError, ScopeError
from .semantics import AUTO, DEFAULT_BUDGET, EXHAUSTIVE, FAST, entails

logger = logging.getLogger(__name__)

LiteralSet = frozenset[Literal]


@dataclass(frozen=True)
class OutlierQuery:
    """A validated (L, S) candidate pair over a theory's facts."""

    outlier: LiteralSet
    witness: LiteralSet
    strong: bool

    @staticmethod
    def build(
        theory: DefaultTheory, outlier: Iterable[Literal], witness: Iterable[Literal], strong: bool
    ) -> "OutlierQuery":
        l, s = frozenset(outlier), frozenset(witness)
        if not l:
            raise InvalidQueryError("outlier candidate must be nonempty")
        if not s:
            raise InvalidQueryError("witness candidate must be nonempty")
        if l & s:
            raise InvalidQueryError("outlier and witness candidates must be disjoint")
        if not (l | s) <= theory.facts:
            raise InvalidQueryError("outlier and witness candidates must be subsets of the facts")
        if is_inconsistent(theory.facts):
            raise InvalidQueryError("facts must be consistent")
        return OutlierQuery(l, s, strong)


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


def _entails(theory, goal, backend, budget, stats: SearchStats | None) -> bool:
    if stats is not None:
        stats.entailment_calls += 1
    return entails(theory, goal, backend, budget)


def _cond1(theory, s: LiteralSet, backend, budget, stats) -> bool:
    return _entails(theory.remove_facts(s), negate_all(s), backend, budget, stats)


def _cond2_general(theory, l: LiteralSet, s: LiteralSet, backend, budget, stats) -> bool:
    reduced = theory.remove_facts(s | l)
    return not _entails(reduced, negate_all(s), backend, budget, stats)


def _cond2_strong(theory, l: LiteralSet, s: LiteralSet, backend, budget, stats) -> bool:
    reduced = theory.remove_facts(s | l)
    return all(
        not _entails(reduced, [x.negate()], backend, budget, stats) for x in s
    )


def is_witness(
    theory: DefaultTheory,
    outlier: Iterable[Literal],
    witness: Iterable[Literal],
    backend: str = AUTO,
    budget: int = DEFAULT_BUDGET,
) -> bool:
    """Definition-level general witness check for an outlier candidate."""
    q = OutlierQuery.build(theory, outlier, witness, strong=False)
    return _cond1(theory, q.witness, backend, budget, None) and _cond2_general(
        theory, q.outlier, q.witness, backend, budget, None
    )


def is_strong_witness(
    theory: DefaultTheory,
    outlier: Iterable[Literal],
    witness: Iterable[Literal],
    backend: str = AUTO,
    budget: int = DEFAULT_BUDGET,
) -> bool:
    """Strong witness check: the broken entailment must fail for every
    witness literal, not just one."""
    q = OutlierQuery.build(theory, outlier, witness, strong=True)
    return _cond1(theory, q.witness, backend, budget, None) and _cond2_strong(
        theory, q.outlier, q.witness, backend, budget, None
    )


def _resolve_backend(theory: DefaultTheory, backend: str, op: str) -> str:
    frag = classify(theory)
    if not frag.is_nmu:
        raise ScopeError(f"{op} requires a normal mixed unary theory")
    if backend == AUTO:
        backend = FAST if (frag.is_nu or frag.is_dnu) else EXHAUSTIVE
    if backend == FAST and not (frag.is_nu or frag.is_dnu):
        raise ScopeError(f"{op} with the fast backend requires an NU or DNU theory")
    if backend == EXHAUSTIVE and not (frag.is_nu or frag.is_dnu):
        logger.warning(
            "%s on a mixed unary theory uses exhaustive entailment; expect exponential cost",
            op,
        )
    return backend


def _order(l: Literal) -> tuple[str, bool]:
    return (l.letter, not l.positive)


def _witness_pool(theory: DefaultTheory, exclude: LiteralSet) -> list[list[Literal]]:
    """Fact literals grouped by ordered SCC, excluding the outlier candidate."""
    components = decompose(build_graph(theory)).components
    comp_of = {v: i for i, comp in enumerate(components) for v in comp}
    pools: list[list[Literal]] = [[] for _ in components]
    for l in sorted(theory.facts - exclude, key=_order):
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
    if is_inconsistent(theory.facts):
        raise InvalidQueryError("facts must be consistent")
    backend = _resolve_backend(theory, backend, "recognize_strong")
    stats = SearchStats()
    found: list[LiteralSet] = []
    for pool in _witness_pool(theory, outlier):
        for s in _subsets(pool):
            stats.candidates_examined += 1
            s_set = frozenset(s)
            if _cond1(theory, s_set, backend, budget, stats) and _cond2_strong(
                theory, outlier, s_set, backend, budget, stats
            ):
                found.append(s_set)
                if not all_witnesses:
                    return OutlierReport(outlier, tuple(found), True, stats)
    return OutlierReport(outlier, tuple(found), True, stats)


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
    if is_inconsistent(theory.facts):
        raise InvalidQueryError("facts must be consistent")
    op = "enumerate_strong" if strong else "enumerate_general"
    backend = _resolve_backend(theory, backend, op)
    stats = SearchStats()
    facts_sorted = sorted(theory.facts, key=_order)
    fact_of = {l.letter: l for l in facts_sorted}  # consistent: one fact per letter
    cond2 = _cond2_strong if strong else _cond2_general

    if strong:
        s_candidates: Iterable[tuple[Literal, ...]] = (
            s for pool in _witness_pool(theory, frozenset()) for s in _subsets(pool)
        )
    else:
        s_candidates = _subsets(facts_sorted, h)

    hits: dict[LiteralSet, list[LiteralSet]] = {}
    for s in s_candidates:
        s_set = frozenset(s)
        stats.candidates_examined += 1
        if not _cond1(theory, s_set, backend, budget, stats):
            continue
        # Incremental lemma: only facts on the influence cone of S matter.
        cone = influencing_letters(theory, lett(s_set))
        near = sorted({fact_of[x] for x in cone if x in fact_of} - s_set, key=_order)
        far = None
        for core in map(frozenset, _subsets(near, k)):
            stats.candidates_examined += 1
            if not cond2(theory, core, s_set, backend, budget, stats):
                continue
            if far is None:
                far = [l for l in facts_sorted if l.letter not in cone]
            hits.setdefault(core, []).append(s_set)
            for pad in _subsets(far, k - len(core)):
                hits.setdefault(core | frozenset(pad), []).append(s_set)

    reports = [
        OutlierReport(l_set, tuple(wits), strong, stats)
        for l_set, wits in hits.items()
    ]
    reports.sort(key=lambda r: sorted(map(_order, r.outlier)))
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
        "outlier": [str(l) for l in sorted(report.outlier, key=_order)],
        "witnesses": [[str(l) for l in sorted(w, key=_order)] for w in report.witnesses],
        "strong": report.strong,
    }
    return json.dumps(record)
