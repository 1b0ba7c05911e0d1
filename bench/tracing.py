"""Spans around calls into the program's public functions, for the traced run.

``Tracer.install`` replaces every module-level reference to the functions in
``TRACED`` (in every loaded ``defoutlier`` module) with a wrapper that records
a span: name, start, end and the index of the enclosing span.  Spans stay in
memory until the run writes them out; nothing in ``src/`` changes.
"""

from __future__ import annotations

import json
import sys
from contextlib import contextmanager
from time import perf_counter

from defoutlier import core, depgraph, oracles, outliers, semantics

# (module, attribute, span name); entails is named by the backend it uses.
TRACED = [
    (core, "parse_theory", "core.parse"),
    (core, "is_inconsistent", "core.is_inconsistent"),
    (core, "classify", "core.classify"),
    (core, "dualize", "core.dualize"),
    (depgraph, "build_graph", "depgraph.build_graph"),
    (depgraph, "decompose", "depgraph.decompose"),
    (semantics, "entails", None),
    (outliers, "is_witness", "outliers.is_witness"),
    (outliers, "is_strong_witness", "outliers.is_strong_witness"),
    (outliers, "recognize_strong", "outliers.recognize_strong"),
    (outliers, "enumerate_strong", "outliers.enumerate_strong"),
    (outliers, "enumerate_general", "outliers.enumerate_general"),
    (outliers, "minimal_strong_witnesses", "outliers.minimal_strong_witnesses"),
    (oracles, "random_theory", "oracles.generate"),
    (oracles, "random_cnf3", "oracles.generate"),
    (oracles, "build_thm8", "oracles.generate"),
    (oracles, "build_thm9", "oracles.generate"),
    (oracles, "build_thm10", "oracles.generate"),
]


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self._stack: list[int] = []
        self._restore: list[tuple] = []

    @contextmanager
    def span(self, name: str):
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    def _open(self, name: str) -> int:
        index = len(self.spans)
        self.spans.append([name, perf_counter(), 0.0, self._stack[-1] if self._stack else -1])
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index][2] = perf_counter()
        self._stack.pop()

    def _wrap(self, fn, name):
        open_, close = self._open, self._close

        def traced(*args, **kwargs):
            index = open_(name)
            try:
                return fn(*args, **kwargs)
            finally:
                close(index)

        return traced

    def _wrap_entails(self, fn, classify):
        open_, close = self._open, self._close

        def traced(theory, goal, backend=semantics.AUTO, budget=semantics.DEFAULT_BUDGET):
            if backend == semantics.AUTO:
                frag = classify(theory)
                fast = frag.is_nu or frag.is_dnu
            else:
                fast = backend == semantics.FAST
            index = open_("semantics.fast" if fast else "semantics.exhaustive")
            try:
                return fn(theory, goal, backend, budget)
            finally:
                close(index)

        return traced

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items() if n == "defoutlier" or n.startswith("defoutlier.")]
        classify = core.classify  # the entails wrapper's own lookup is not a span
        for home, attr, name in TRACED:
            original = getattr(home, attr)
            if name is None:
                wrapper = self._wrap_entails(original, classify)
            else:
                wrapper = self._wrap(original, name)
            for module in modules:
                if getattr(module, attr, None) is original:
                    self._restore.append((module, attr, original))
                    setattr(module, attr, wrapper)
        original = core.DefaultTheory.remove_facts
        self._restore.append((core.DefaultTheory, "remove_facts", original))
        core.DefaultTheory.remove_facts = self._wrap(original, "core.remove_facts")

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def totals(self, root_name: str) -> tuple[int, dict[str, list[float]]]:
        """Per span name, [calls, total, self time] summed over the spans
        below the root spans called ``root_name``; also the number of roots."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                child_time[parent] += end - start
        under = [False] * len(spans)
        roots = 0
        out: dict[str, list[float]] = {}
        for i, (name, start, end, parent) in enumerate(spans):
            if parent < 0:
                under[i] = name == root_name
                roots += under[i]
                continue
            under[i] = under[parent]
            if under[i]:
                row = out.setdefault(name, [0, 0.0, 0.0])
                row[0] += 1
                row[1] += end - start
                row[2] += end - start - child_time[i]
        return roots, out

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")
