"""Benchmark of defoutlier, end to end and per module.

Run from the repository root:

    python3 bench/run.py --workload nu-enumerate --seed 1 --seconds 30 --trace 0

The workload's inputs are made from the seed and set up SETUPS times.  Rounds
of its library calls, each followed by its CLI calls, repeat until
``--seconds`` have passed, one call at a time in this one process.  The
results of the first round are then checked (see ``oracle.py``) and the last
line printed is one JSON object.  ``--trace 0`` reports the end-to-end
metrics; ``--trace 1`` runs the first half of the rounds untraced and the rest
with spans around the program's public functions, and reports the per-module
metrics.  Raw results (and, traced, the spans) go to ``bench/results/``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from collections import defaultdict
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RESULTS = ROOT / "bench" / "results"
SETUPS = 5
CLI_TIMEOUT_S = 150


def _cli(argv: list[str]) -> tuple[float, int, str]:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    start = perf_counter()
    proc = subprocess.run(
        [sys.executable, *argv], cwd=ROOT, env=env, capture_output=True, text=True, timeout=CLI_TIMEOUT_S
    )
    return perf_counter() - start, proc.returncode, proc.stdout


def _reference_loop() -> None:
    """Fixed pure-Python work that does not touch the program."""
    table: dict[frozenset, int] = {}
    for i in range(4500):
        key = frozenset(((i * 7919) % 997, i % 13))
        table[key] = table.get(key, 0) + 1
    sorted(table.values())


class Yardstick:
    """Operation time in ref units: seconds divided by the time
    ``_reference_loop`` takes at about the same moment.

    Other tenants of the machine slow this process down by up to about 1.8x
    for stretches of seconds to tens of seconds; the reference loop slows down
    with it.  The loop is timed at most every ``EVERY_S`` seconds, between
    operations; the operation time since the previous sample is divided by the
    mean of the two samples around it.  A CLI call is bracketed by two samples
    of its own.
    """

    EVERY_S = 0.1

    def __init__(self):
        self.samples: list[float] = []
        self.ref: dict[str, float] = defaultdict(float)
        self._pending: dict[str, float] = defaultdict(float)
        self.seconds = 0.0
        self._last = float("-inf")

    def add(self, group: str, seconds: float) -> None:
        self._pending[group] += seconds
        self.seconds += seconds

    @staticmethod
    def sample() -> float:
        gc.disable()  # a collection here would time the program's heap
        try:
            t = perf_counter()
            _reference_loop()
            return perf_counter() - t
        finally:
            gc.enable()

    def tick(self, force: bool = False) -> None:
        if not force and perf_counter() - self._last < self.EVERY_S:
            return
        sample = self.sample()
        around = (self.samples[-1] + sample) / 2 if self.samples else sample
        for group, seconds in self._pending.items():
            self.ref[group] += seconds / around
        self._pending.clear()
        self.samples.append(sample)
        self._last = perf_counter()


def _search_counts(results) -> tuple[int, int, int]:
    """Candidates examined, entailment calls and witnesses found, read from
    the ``SearchStats`` of the outlier reports among the results.  All reports
    of one enumeration share one stats object, and an enumeration that finds
    nothing returns no report, so its counts cannot be read."""
    from defoutlier.outliers import OutlierReport

    candidates = calls = witnesses = 0
    for r in results:
        reports = [r] if isinstance(r, OutlierReport) else list(r) if isinstance(r, tuple) else []
        if reports and isinstance(reports[0], OutlierReport):
            candidates += reports[0].search_stats.candidates_examined
            calls += reports[0].search_stats.entailment_calls
            witnesses += sum(len(x.witnesses) for x in reports)
    return candidates, calls, witnesses


def measure(workload, seed: int, seconds: float, trace: bool, workdir: Path) -> dict:
    from tracing import Tracer

    tracer = Tracer() if trace else None
    setup_s: list[float] = []

    def set_up(traced: bool):
        start = perf_counter()
        with tracer.span("setup") if traced else nullcontext():
            inputs = workload.setup(seed, workdir)
        setup_s.append(perf_counter() - start)
        return inputs

    if tracer:
        tracer.install()
    for _ in range(SETUPS):
        inputs = set_up(trace)
    if tracer:
        tracer.uninstall()
    ops = workload.operations(inputs)
    calls = [["-m", "defoutlier", *c] for c in workload.cli_calls(inputs)]
    rounds = []
    first = first_cli = first_digest = None
    attempted = failed = repeats_differing = 0
    errors: list[str] = []
    start = perf_counter()
    while True:
        traced = tracer is not None and bool(rounds) and perf_counter() - start >= seconds / 2
        if traced and not rounds[-1]["traced"]:
            tracer.install()
        yardstick = Yardstick()
        yardstick.tick()
        results = []
        with tracer.span("round") if traced else nullcontext():
            for group, fn in ops:
                t = perf_counter()
                try:
                    results.append(fn())
                except Exception as exc:  # counted as a failed operation
                    errors.append(traceback.format_exc())
                    results.append(exc)
                yardstick.add(group, perf_counter() - t)
                yardstick.tick()
        yardstick.tick(force=True)
        cli_results, cli_s, cli_ref = [], [], []
        for argv in calls:
            before = Yardstick.sample()
            dt, code, out = _cli(argv)
            cli_s.append(dt)
            cli_ref.append(dt * 2 / (before + Yardstick.sample()))
            cli_results.append((code, out))
            failed += code not in (0, 1)
        attempted += len(ops) + len(calls)
        failed += sum(isinstance(r, Exception) for r in results)
        digest = hash((repr(results), repr(cli_results)))
        if first is None:
            first, first_cli, first_digest = results, cli_results, digest
        elif digest != first_digest:
            repeats_differing += 1
        del results
        rounds.append(
            {"traced": traced, "s": yardstick.seconds, "ref": dict(yardstick.ref), "cli_s": cli_s, "cli_ref": cli_ref}
        )
        if perf_counter() - start >= seconds and (tracer is None or traced):
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer:
        tracer.uninstall()

    problems = workload.check(inputs, first, first_cli)
    if repeats_differing:
        problems.append(f"{repeats_differing} rounds gave results differing from the first")
    plain = [r for r in rounds if not r["traced"]]
    round_ref = statistics.median(sum(r["ref"].values()) for r in plain)
    groups = dict.fromkeys(group for group, _ in ops)
    out = {
        "workload": workload.name,
        "seed": seed,
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "errors": errors,
        "setup_s": setup_s,
        "rounds": rounds,
        "details": {
            **workload.details(inputs, {g: statistics.median(r["ref"][g] for r in plain) for g in groups}),
            "round_s": (statistics.median(r["s"] for r in plain), "s"),
            "cli_call_s": (statistics.median(x for r in plain for x in r["cli_s"]), "s"),
            "reference_s": (statistics.median(r["s"] / sum(r["ref"].values()) for r in plain), "s"),
        },
    }
    if not trace:
        out["metrics"] = {
            "setup_s": (statistics.median(setup_s), "s"),
            "round_ref": (round_ref, "ref"),
            "cli_call_ref": (statistics.median(x for r in plain for x in r["cli_ref"]), "ref"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
        return out

    n_setups, at_setup = tracer.totals("setup")
    n_rounds, at_round = tracer.totals("round")

    def per_round(name: str, column: int) -> float:
        return at_round.get(name, [0, 0.0, 0.0])[column] / n_rounds

    candidates, entail_calls, witnesses = _search_counts(first)
    outliers_self = sum(v[2] for k, v in at_round.items() if k.startswith("outliers."))
    traced_rounds = [r for r in rounds if r["traced"]]
    overhead_ref = statistics.median(sum(r["ref"].values()) for r in traced_rounds) - round_ref
    out["metrics"] = {
        "core.parse_s": (at_setup["core.parse"][2] / n_setups, "s"),
        "core.remove_facts_calls": (per_round("core.remove_facts", 0), "count"),
        "core.remove_facts_s": (per_round("core.remove_facts", 2), "s"),
        "core.is_inconsistent_s": (per_round("core.is_inconsistent", 2), "s"),
        "core.classify_calls": (per_round("core.classify", 0), "count"),
        "core.classify_s": (per_round("core.classify", 2), "s"),
        "depgraph.build_graph_calls": (per_round("depgraph.build_graph", 0), "count"),
        "depgraph.build_graph_s": (per_round("depgraph.build_graph", 2), "s"),
        "depgraph.decompose_s": (per_round("depgraph.decompose", 2), "s"),
        "semantics.entails_calls": (
            per_round("semantics.fast", 0) + per_round("semantics.exhaustive", 0), "count"
        ),
        "semantics.entails_self_s": (
            per_round("semantics.fast", 2) + per_round("semantics.exhaustive", 2), "s"
        ),
        "semantics.fast_calls": (per_round("semantics.fast", 0), "count"),
        "semantics.fast_self_s": (per_round("semantics.fast", 2), "s"),
        "outliers.candidates_examined": (candidates, "count"),
        "outliers.entailment_calls": (entail_calls, "count"),
        "outliers.hit_ratio": (witnesses / candidates if candidates else 0.0, "1"),
        "outliers.self_s": (outliers_self / n_rounds, "s"),
        "oracles.generate_s": (at_setup["oracles.generate"][2] / n_setups, "s"),
        "cli.import_s": (statistics.median(_cli(["-c", "import defoutlier"])[0] for _ in range(3)), "s"),
        "cli.call_s": (statistics.median(s for r in rounds for s in r["cli_s"]), "s"),
        "trace.overhead_s": (overhead_ref * out["details"]["reference_s"][0], "s"),
    }
    # Modules some workloads never reach: reported here, not as metrics.
    for name, column, key in (
        ("core.dualize", 0, "core.dualize_calls"),
        ("core.dualize", 2, "core.dualize_s"),
        ("semantics.exhaustive", 0, "semantics.exhaustive_calls"),
        ("semantics.exhaustive", 2, "semantics.exhaustive_self_s"),
    ):
        out["details"][key] = (per_round(name, column), "count" if column == 0 else "s")
    out["spans"] = tracer
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "defoutlier" / "__init__.py").is_file():
        print(f"error: no defoutlier sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    try:
        # One CPU for this process and its CLI children, so that the
        # yardstick measures the speed of the CPU the work runs on.
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    except (AttributeError, OSError):
        pass
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]()

    RESULTS.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=RESULTS))
    try:
        out = measure(workload, args.seed, args.seconds, bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    stem = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}-{time.strftime('%Y%m%dT%H%M%S')}"
    tracer = out.pop("spans", None)
    if tracer is not None:
        tracer.write(stem.with_suffix(".spans.jsonl"))
    stem.with_suffix(".json").write_text(json.dumps(out, indent=1) + "\n", encoding="utf-8")
    for problem in out["problems"]:
        print(f"check failed: {problem}", file=sys.stderr)
    for error in out["errors"][:3]:
        print(error, file=sys.stderr)
    for name, (value, unit) in {**out["details"], **out["metrics"]}.items():
        print(f"{name} = {value} {unit}")
    print(
        json.dumps(
            {
                "correct": out["correct"],
                "attempted": out["attempted"],
                "failed": out["failed"],
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in out["metrics"].items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
