"""Atomic dependency graph, SCC decomposition, influences, and tightness.

Vertices are the letters of the theory; there is an edge (x, y) whenever
some rule has x among its prerequisite letters and y among its consequent
letters.  The SCC decomposition is ordered so that no later component can
reach an earlier one, with ties broken by smallest member letter, which
makes every downstream enumeration reproducible.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Iterable, Mapping

from .core import DefaultRule, DefaultTheory, Literal, compiled, lett


@dataclass(frozen=True)
class DependencyGraph:
    vertices: frozenset[str]
    edges: frozenset[tuple[str, str]]


@dataclass(frozen=True)
class SccDecomposition:
    """Ordered strongly connected components C1..CN with their max size."""

    components: tuple[frozenset[str], ...]
    tightness: int


def _adjacency(defaults: tuple[DefaultRule, ...]) -> tuple[dict[str, list[str]], dict[str, list[str]]]:
    """Successor and predecessor lists of the dependency graph of the rules.

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
    return {x: sorted(v) for x, v in succ.items()}, {y: sorted(v) for y, v in pred.items()}


def build_graph(theory: DefaultTheory) -> DependencyGraph:
    """Dependency graph over all letters of the theory."""
    succ, _ = compiled(theory, _adjacency)
    return DependencyGraph(theory.letters(), frozenset((x, y) for x, ys in succ.items() for y in ys))


def _tarjan(vertices: list[str], adj: dict[str, list[str]]) -> list[set[str]]:
    """Iterative Tarjan; components are produced in reverse topological order."""
    index: dict[str, int] = {}
    lowlink: dict[str, int] = {}
    on_stack: set[str] = set()
    stack: list[str] = []
    sccs: list[set[str]] = []
    counter = 0

    for root in vertices:
        if root in index:
            continue
        work: list[tuple[str, int]] = [(root, 0)]
        while work:
            v, pi = work[-1]
            if pi == 0:
                index[v] = lowlink[v] = counter
                counter += 1
                stack.append(v)
                on_stack.add(v)
            advanced = False
            neighbours = adj.get(v, [])
            while pi < len(neighbours):
                w = neighbours[pi]
                pi += 1
                if w not in index:
                    work[-1] = (v, pi)
                    work.append((w, 0))
                    advanced = True
                    break
                if w in on_stack:
                    lowlink[v] = min(lowlink[v], index[w])
            if advanced:
                continue
            work.pop()
            if lowlink[v] == index[v]:
                comp: set[str] = set()
                while True:
                    w = stack.pop()
                    on_stack.discard(w)
                    comp.add(w)
                    if w == v:
                        break
                sccs.append(comp)
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[v])
    return sccs


def decompose(graph: DependencyGraph) -> SccDecomposition:
    """SCCs ordered so no path runs from a later component to an earlier one.

    Incomparable components are ordered by their lexicographically smallest
    member letter.
    """
    vertices = sorted(graph.vertices)
    adj: dict[str, list[str]] = {v: [] for v in vertices}
    for a, b in sorted(graph.edges):
        adj[a].append(b)

    sccs = _tarjan(vertices, adj)
    comp_of: dict[str, int] = {}
    for i, comp in enumerate(sccs):
        for v in comp:
            comp_of[v] = i

    # Condensation edges, then Kahn's algorithm keyed by smallest letter.
    out: dict[int, set[int]] = {i: set() for i in range(len(sccs))}
    indeg = [0] * len(sccs)
    for a, b in graph.edges:
        ca, cb = comp_of[a], comp_of[b]
        if ca != cb and cb not in out[ca]:
            out[ca].add(cb)
            indeg[cb] += 1
    keys = [min(comp) for comp in sccs]
    ready = [(keys[i], i) for i in range(len(sccs)) if indeg[i] == 0]
    heapq.heapify(ready)
    ordered: list[frozenset[str]] = []
    while ready:
        _, i = heapq.heappop(ready)
        ordered.append(frozenset(sccs[i]))
        for j in sorted(out[i]):
            indeg[j] -= 1
            if indeg[j] == 0:
                heapq.heappush(ready, (keys[j], j))

    tight = max((len(c) for c in ordered), default=0)
    return SccDecomposition(tuple(ordered), tight)


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
    succ, _ = compiled(theory, _adjacency)
    return target.letter in reach(succ, lett(s))


def influencing_letters(theory: DefaultTheory, targets: Iterable[str]) -> frozenset[str]:
    """Letters with a (possibly empty) path to some target letter."""
    _, pred = compiled(theory, _adjacency)
    return reach(pred, targets)


def tightness(theory: DefaultTheory) -> int:
    """Size of the largest SCC of the atomic dependency graph."""
    return decompose(build_graph(theory)).tightness


def to_dot(graph: DependencyGraph, decomposition: SccDecomposition | None = None) -> str:
    """DOT rendering with SCCs as clusters."""
    if decomposition is None:
        decomposition = decompose(graph)
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
