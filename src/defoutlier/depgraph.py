"""Atomic dependency graph, SCC decomposition, influences, and tightness.

Vertices are the letters of the theory; there is an edge (x, y) whenever
some rule has x among its prerequisite letters and y among its consequent
letters.  The SCC decomposition is ordered so that no later component can
reach an earlier one, with ties broken by smallest member letter, which
makes every downstream enumeration reproducible.  The graph and the order of
the rule letters are compiled once per rule base over its letter
``numbering``: successors, predecessors, components and ancestor cones are
int masks, rule letter i being bit i.  Each rule letter's cone is walked
once per rule base and read by every layer through ``cone_lookup``.  One
mask walk, ``walk``, serves the cones, their mirror
``downstream_components``, the fast backend's positive-reachability
fixpoint and the rule chains that ground ``semantics.is_extension``.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

from .core import DefaultTheory, Literal, bits, compiled, letter_mask, lett, numbering


@dataclass(frozen=True)
class DependencyGraph:
    vertices: frozenset[str]
    edges: frozenset[tuple[str, str]]


@dataclass(frozen=True)
class SccDecomposition:
    """Ordered strongly connected components C1..CN with their max size."""

    components: tuple[frozenset[str], ...]
    tightness: int


class _Cones(dict):
    """Each letter's ancestor cone, the mask of the rule letters with a path
    to it: walked on first lookup and kept for a rule letter, 0 for any
    other letter, never stored."""

    def __init__(self, ids: dict[str, int], pred: list[int]):
        self.ids, self.pred = ids, pred

    def __missing__(self, x: str) -> int:
        if x not in self.ids:
            return 0
        cone = self[x] = walk(self.pred, 1 << self.ids[x], -1)
        return cone


class _RuleGraph(NamedTuple):
    succ: list[int]  # per rule letter, the mask of its successors
    pred: list[int]  # per rule letter, the mask of its predecessors
    order: tuple[frozenset[str], ...]  # the ordered SCCs of the rule letters
    blocks: tuple[int, ...]  # the same SCCs as masks
    cones: _Cones


def _compile(theory: DefaultTheory) -> _RuleGraph:
    """Successor and predecessor masks of the dependency graph of the rules,
    the ordered SCCs of the rule letters, and an empty cone cache.

    Prerequisite-free rules contribute no edges.  For non-unary rules every
    prerequisite letter is connected to every consequent letter.
    """
    ids = compiled(theory, numbering)
    adj: list[set[int]] = [set() for _ in ids]
    for d in theory.defaults:
        ys = [ids[l.letter] for l in d.consequent]
        for l in d.prerequisite:
            adj[ids[l.letter]].update(ys)
    succ, pred = [0] * len(ids), [0] * len(ids)
    for x, ys in enumerate(adj):
        for y in ys:
            succ[x] |= 1 << y
            pred[y] |= 1 << x
    names = list(ids)
    order = _ordered_sccs([sorted(ys) for ys in adj])
    blocks = tuple(sum(1 << i for i in comp) for comp in order)
    comps = tuple(frozenset(names[i] for i in comp) for comp in order)
    return _RuleGraph(succ, pred, comps, blocks, _Cones(ids, pred))


def build_graph(theory: DefaultTheory) -> DependencyGraph:
    """Dependency graph over all letters of the theory."""
    names, succ = list(compiled(theory, numbering)), compiled(theory, _compile).succ
    edges = frozenset((names[x], names[y]) for x, ys in enumerate(succ) for y in bits(ys))
    return DependencyGraph(theory.letters(), edges)


def _tarjan(adj: list[list[int]]) -> list[set[int]]:
    """Iterative Tarjan over the vertices 0..n-1 of the successor lists
    ``adj``; components are produced in reverse topological order."""
    index: dict[int, int] = {}
    lowlink: dict[int, int] = {}
    stack: list[int] = []
    done: set[int] = set()  # visited letters not on the stack: already in a component
    sccs: list[set[int]] = []
    work: list[tuple[int, Iterator[int]]] = []

    def visit(v: int) -> None:
        index[v] = lowlink[v] = len(index)
        stack.append(v)
        work.append((v, iter(adj[v])))

    for root in range(len(adj)):
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
                    comp: set[int] = set()
                    while v not in comp:
                        comp.add(stack.pop())
                    done |= comp
                    sccs.append(comp)
                if work:
                    parent = work[-1][0]
                    lowlink[parent] = min(lowlink[parent], lowlink[v])
    return sccs


def _ordered_sccs(succ: list[list[int]]) -> tuple[frozenset[int], ...]:
    """The SCCs in ``decompose`` order: Kahn's algorithm over the condensation,
    taking the ready component with the smallest member first, which in the
    letter numbering is the smallest member letter."""
    sccs = _tarjan(succ)
    comp_of = {v: i for i, comp in enumerate(sccs) for v in comp}
    indeg = [0] * len(sccs)  # counts edges, not distinct predecessor components
    for x, ys in enumerate(succ):
        for y in ys:
            if comp_of[x] != comp_of[y]:
                indeg[comp_of[y]] += 1
    ready = [(min(comp), i) for i, comp in enumerate(sccs) if indeg[i] == 0]
    heapq.heapify(ready)
    ordered: list[frozenset[int]] = []
    while ready:
        _, i = heapq.heappop(ready)
        ordered.append(frozenset(sccs[i]))
        for x in sccs[i]:
            for y in succ[x]:
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
    ids = compiled(theory, numbering)
    isolated = [frozenset([x]) for x in sorted(lett(theory.facts)) if x not in ids]
    components = tuple(heapq.merge(compiled(theory, _compile).order, isolated, key=min))
    return SccDecomposition(components, max(map(len, components), default=0))


def walk(adjacency: Sequence[int], sources: int, allowed: int) -> int:
    """The bits of ``sources`` and every bit reachable from them, where bit
    i leads to the bits of ``adjacency[i]``, entering only bits of
    ``allowed`` (-1 allows every bit).  The one walk behind the ancestor
    cones, ``downstream_components``, the NU positive-reachability fixpoint
    and the extension check's rule chains."""
    seen = frontier = sources
    while frontier:
        step = 0
        while frontier:  # the bits of the frontier, inlined: this loop is hot
            low = frontier & -frontier
            step |= adjacency[low.bit_length() - 1]
            frontier ^= low
        frontier = step & allowed & ~seen
        seen |= frontier
    return seen


def influences(theory: DefaultTheory, s: Iterable[Literal], target: Literal) -> bool:
    """True iff some letter of ``s`` reaches the letter of ``target``.

    Reachability is reflexive: a letter influences itself via the empty path,
    whether or not it occurs in the theory.
    """
    letters = lett(s)
    return target.letter in letters or bool(letter_mask(theory, letters) & cone_lookup(theory)(target.letter))


def cone_lookup(theory: DefaultTheory) -> Callable[[str], int]:
    """The rule base's per-letter ancestor cone: a letter maps to the mask of
    the rule letters with a (possibly empty) path to it, 0 for a letter no
    rule mentions, each cone kept once per rule base.  Look it up once per
    call and apply it to each letter."""
    return compiled(theory, _compile).cones.__getitem__


def downstream_components(theory: DefaultTheory, sources: int) -> Iterator[int]:
    """The masks of the rule letters' components, in ``decompose`` order,
    that some letter of the mask ``sources`` reaches by a (possibly empty)
    path: the mirror of the ancestor cones, walked per call along the
    compiled graph."""
    graph = compiled(theory, _compile)
    below = walk(graph.succ, sources, -1)
    return (block for block in graph.blocks if block & below)


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
