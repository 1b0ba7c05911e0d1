"""Atomic dependency graph, SCC decomposition, influences, and tightness.

Vertices are the letters of the theory; there is an edge (x, y) whenever
some rule has x among its prerequisite letters and y among its consequent
letters.  The SCC decomposition is ordered so that no later component can
reach an earlier one, with ties broken by smallest member letter, which
makes every downstream enumeration reproducible.  The graph and the order of
the rule letters are compiled once per rule base.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, NamedTuple

from .core import DefaultRule, DefaultTheory, Literal, _rule_letters, compiled, lett


@dataclass(frozen=True)
class DependencyGraph:
    vertices: frozenset[str]
    edges: frozenset[tuple[str, str]]


@dataclass(frozen=True)
class SccDecomposition:
    """Ordered strongly connected components C1..CN with their max size."""

    components: tuple[frozenset[str], ...]
    tightness: int


class _RuleGraph(NamedTuple):
    succ: dict[str, list[str]]
    pred: dict[str, list[str]]
    order: tuple[frozenset[str], ...]


def _compile(defaults: tuple[DefaultRule, ...]) -> _RuleGraph:
    """Successor and predecessor lists of the dependency graph of the rules,
    and the ordered SCCs of the rule letters.

    Prerequisite-free rules contribute no edges.  For non-unary rules every
    prerequisite letter is connected to every consequent letter.
    """
    succ: dict[str, set[str]] = {}
    pred: dict[str, set[str]] = {}
    for d in defaults:
        ys = lett(d.consequent)
        for x in lett(d.prerequisite):
            succ.setdefault(x, set()).update(ys)
            for y in ys:
                pred.setdefault(y, set()).add(x)
    out = {x: sorted(v) for x, v in succ.items()}
    order = _ordered_sccs(_rule_letters(defaults), out)
    return _RuleGraph(out, {y: sorted(v) for y, v in pred.items()}, order)


def build_graph(theory: DefaultTheory) -> DependencyGraph:
    """Dependency graph over all letters of the theory."""
    succ = compiled(theory, _compile).succ
    return DependencyGraph(theory.letters(), frozenset((x, y) for x, ys in succ.items() for y in ys))


def _tarjan(vertices: Iterable[str], adj: Mapping[str, list[str]]) -> list[set[str]]:
    """Iterative Tarjan; components are produced in reverse topological order."""
    index: dict[str, int] = {}
    lowlink: dict[str, int] = {}
    stack: list[str] = []
    done: set[str] = set()  # visited letters not on the stack: already in a component
    sccs: list[set[str]] = []
    work: list[tuple[str, Iterator[str]]] = []

    def visit(v: str) -> None:
        index[v] = lowlink[v] = len(index)
        stack.append(v)
        work.append((v, iter(adj.get(v, ()))))

    for root in vertices:
        if root in index:
            continue
        visit(root)
        while work:
            v, successors = work[-1]
            for w in successors:
                if w not in index:
                    visit(w)
                    break
                if w not in done:
                    lowlink[v] = min(lowlink[v], index[w])
            else:
                work.pop()
                if lowlink[v] == index[v]:
                    comp: set[str] = set()
                    while v not in comp:
                        comp.add(stack.pop())
                    done |= comp
                    sccs.append(comp)
                if work:
                    parent = work[-1][0]
                    lowlink[parent] = min(lowlink[parent], lowlink[v])
    return sccs


def _ordered_sccs(vertices: Iterable[str], succ: Mapping[str, list[str]]) -> tuple[frozenset[str], ...]:
    """The SCCs in ``decompose`` order: Kahn's algorithm over the condensation,
    taking the ready component with the smallest member letter first."""
    sccs = _tarjan(vertices, succ)
    comp_of = {v: i for i, comp in enumerate(sccs) for v in comp}
    indeg = [0] * len(sccs)  # counts edges, not distinct predecessor components
    for x, ys in succ.items():
        for y in ys:
            if comp_of[x] != comp_of[y]:
                indeg[comp_of[y]] += 1
    ready = [(min(comp), i) for i, comp in enumerate(sccs) if indeg[i] == 0]
    heapq.heapify(ready)
    ordered: list[frozenset[str]] = []
    while ready:
        _, i = heapq.heappop(ready)
        ordered.append(frozenset(sccs[i]))
        for x in sccs[i]:
            for y in succ.get(x, ()):
                j = comp_of[y]
                if j != i:
                    indeg[j] -= 1
                    if indeg[j] == 0:
                        heapq.heappush(ready, (min(sccs[j]), j))
    return tuple(ordered)


def decompose(theory: DefaultTheory) -> SccDecomposition:
    """SCCs ordered so no path runs from a later component to an earlier one.

    Incomparable components are ordered by their lexicographically smallest
    member letter.  The rule letters' order is compiled once per rule base;
    a letter only the facts mention has no edges, so it is a singleton
    merged in by that smallest-letter rule.
    """
    isolated = [frozenset([x]) for x in sorted(lett(theory.facts) - compiled(theory, _rule_letters))]
    components = tuple(heapq.merge(compiled(theory, _compile).order, isolated, key=min))
    return SccDecomposition(components, max(map(len, components), default=0))


def reach(adjacency: Mapping[str, Iterable[str]], sources: Iterable[str]) -> frozenset[str]:
    """The sources and every letter reachable from them along ``adjacency``."""
    seen = set(sources)
    frontier = list(seen)
    while frontier:
        for w in adjacency.get(frontier.pop(), ()):
            if w not in seen:
                seen.add(w)
                frontier.append(w)
    return frozenset(seen)


def influences(theory: DefaultTheory, s: Iterable[Literal], target: Literal) -> bool:
    """True iff some letter of ``s`` reaches the letter of ``target``.

    Reachability is reflexive: a letter influences itself via the empty path,
    whether or not it occurs in the theory.
    """
    return target.letter in reach(compiled(theory, _compile).succ, lett(s))


def influencing_letters(theory: DefaultTheory, targets: Iterable[str]) -> frozenset[str]:
    """Letters with a (possibly empty) path to some target letter."""
    return reach(compiled(theory, _compile).pred, targets)


def tightness(theory: DefaultTheory) -> int:
    """Size of the largest SCC of the atomic dependency graph."""
    return decompose(theory).tightness


def to_dot(graph: DependencyGraph, decomposition: SccDecomposition) -> str:
    """DOT rendering with SCCs as clusters."""
    lines = ["digraph dependencies {"]
    for i, comp in enumerate(decomposition.components):
        lines.append(f"  subgraph cluster_{i} {{")
        lines.append(f'    label="C{i + 1}";')
        for v in sorted(comp):
            lines.append(f'    "{v}";')
        lines.append("  }")
    for a, b in sorted(graph.edges):
        lines.append(f'  "{a}" -> "{b}";')
    lines.append("}")
    return "\n".join(lines) + "\n"
