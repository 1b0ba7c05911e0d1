"""The benchmark's workloads.

Each workload makes its inputs from a seed (``setup``: generate, write as
text, read back), lists the library calls of one round (``operations``) and
the CLI calls made after each round (``cli_calls``), and checks the results
of one round against ``oracle`` (``check``).  Library calls go through module
attributes so that the traced run's wrappers see them.
"""

from __future__ import annotations

import itertools
import math
import random
import statistics
from pathlib import Path

from defoutlier import core, oracles, outliers, semantics
from defoutlier.core import Literal
from defoutlier.oracles import Cnf3

from oracle import ConeOracle, literal_key, satisfiable


def _round_trip(theory, path: Path, problems: list[str]):
    """Write a theory as text, read it back, and note any difference."""
    path.write_text(core.theory_to_text(theory), encoding="utf-8")
    parsed = core.parse_theory(path.read_text(encoding="utf-8"), allow_reserved=True)
    if parsed.defaults != theory.defaults or parsed.facts != theory.facts:
        problems.append(f"{path.name}: parsed theory differs from the one written")
    return parsed


def _report_pairs(text: str) -> set[tuple[str, str]]:
    """(outlier, witness) pairs from CLI ``enumerate`` text output."""
    pairs = set()
    for line in text.splitlines():
        if line.startswith("outlier "):
            outlier, rest = line[len("outlier "):].split(" witness ")
            pairs.add((outlier, rest.split(" strong=")[0]))
    return pairs


def _map_pairs(found: dict) -> set[tuple[str, str]]:
    return {
        (core.format_literals(l), core.format_literals(s)) for l, ws in found.items() for s in ws
    }


def _reports_map(reports) -> dict:
    return {r.outlier: set(r.witnesses) for r in reports}


def _diff(what: str, got: dict, want: dict) -> str:
    missing = sorted(core.format_literals(l) for l in want.keys() - got.keys())
    extra = sorted(core.format_literals(l) for l in got.keys() - want.keys())
    wrong = sorted(core.format_literals(l) for l in got.keys() & want.keys() if got[l] != want[l])
    return f"{what}: missing {missing[:3]}, extra {extra[:3]}, wrong witnesses {wrong[:3]}"


class NuEnumerate:
    """``enumerate_strong`` (fast backend) on seeded acyclic NU theories.

    ``k1`` and ``k2`` are ladders of (letters, theories per round); each
    theory has 4n/3 rules.  Smaller rungs hold more theories so that no
    single random theory sets the round time.
    """

    name = "nu-enumerate"

    def __init__(self, k1=((100, 8), (200, 4), (400, 2), (800, 1)), k2=((100, 4), (200, 1))):
        self.ladders = ((1, k1), (2, k2))

    def setup(self, seed: int, workdir: Path):
        rng = random.Random(seed)
        problems: list[str] = []
        items = []
        for k, ladder in self.ladders:
            for n, count in ladder:
                for i in range(count):
                    theory = oracles.random_theory("NU", n, 4 * n // 3, 1, rng.randrange(2**31))
                    path = workdir / f"k{k}-n{n}-{i}.dth"
                    items.append((k, n, _round_trip(theory, path, problems), path))
        return {"items": items, "problems": problems}

    def operations(self, inputs):
        return [
            (f"k{k}-n{n}", lambda t=theory, k=k: outliers.enumerate_strong(t, k, semantics.FAST))
            for k, n, theory, _ in inputs["items"]
        ]

    def cli_calls(self, inputs):
        # Up to four k=1 theories of the smallest rung, so that the calls are alike.
        smallest = min(n for k, n, _, _ in inputs["items"] if k == 1)
        paths = [path for k, n, _, path in inputs["items"] if k == 1 and n == smallest][:4]
        return [
            ["enumerate", "--strong", "-k", "1", "--all-witnesses", "--backend", "fast", str(p)] for p in paths
        ]

    def check(self, inputs, results, cli_results):
        problems = list(inputs["problems"])
        want_by_path = {}
        for (k, n, theory, path), got in zip(inputs["items"], results):
            if isinstance(got, Exception):
                continue
            want = ConeOracle(theory).strong_outliers(k)
            want_by_path[path] = want
            if _reports_map(got) != want or not all(r.strong for r in got):
                problems.append(_diff(f"k={k} n={n} {path.name}", _reports_map(got), want))
        for call, (code, out) in zip(self.cli_calls(inputs), cli_results):
            want = want_by_path.get(Path(call[-1]))
            if want is not None and code in (0, 1) and (code or _report_pairs(out) != _map_pairs(want)):
                problems.append(f"CLI enumerate on {Path(call[-1]).name}: exit {code}, output differs")
        return problems

    def details(self, inputs, groups):
        k1 = sum(v for g, v in groups.items() if g.startswith("k1-"))
        k2 = sum(v for g, v in groups.items() if g.startswith("k2-"))
        ladder = dict(self.ladders)[1]
        slope = statistics.linear_regression(
            [math.log(n) for n, _ in ladder], [math.log(groups[f"k1-n{n}"] / count) for n, count in ladder]
        ).slope
        return {
            "enumerate_k1_ref": (k1, "ref"),
            "enumerate_k2_ref": (k2, "ref"),
            "enumerate_exponent": (slope, "1"),
        }


def _planted_unsat(variables: int, m: int, rng: random.Random) -> Cnf3:
    """A random 3CNF of m clauses made unsatisfiable by a small core: a unit
    pair (a), (-a), or from 4 clauses on, with even odds, all four sign
    patterns of two variables."""
    a = rng.randint(1, variables)
    if m >= 4 and rng.random() < 0.5:
        b = rng.choice([v for v in range(1, variables + 1) if v != a])
        core_clauses = [(a, a, b), (a, a, -b), (-a, -a, b), (-a, -a, -b)]
    else:
        core_clauses = [(a, a, a), (-a, -a, -a)]
    clauses = core_clauses + list(oracles.random_cnf3(variables, m - len(core_clauses), rng).clauses)
    rng.shuffle(clauses)
    return Cnf3(variables, tuple(clauses))


def _general_witness_search(theory, outlier) -> bool:
    """Is there any general witness for the outlier?  Fact subsets in size
    order, as the reduction tests search them."""
    rest = sorted(theory.facts - outlier, key=literal_key)
    for size in range(1, len(rest) + 1):
        for s in itertools.combinations(rest, size):
            if outliers.is_witness(theory, outlier, frozenset(s), semantics.FAST):
                return True
    return False


class Reductions:
    """The three hardness reductions on seeded 5-variable 3CNF formulas.

    ``sat`` formulas are random (redrawn until satisfiable) with 1-4 clauses;
    ``unsat`` ones have 2-5 clauses around a planted contradiction.  On a
    satisfiable formula the exhaustive search stops at the first model, whose
    place in the search order varies so much between formulas that sums over
    them do not settle; unsatisfiable formulas make every search complete.
    """

    name = "reductions"
    VARIABLES = 5

    def __init__(self, sat=((1, 7), (2, 7), (3, 7), (4, 7)), unsat=((2, 2), (3, 2), (4, 2), (5, 4))):
        self.sat, self.unsat = sat, unsat

    def setup(self, seed: int, workdir: Path):
        rng = random.Random(seed)
        formulas = []
        for m, count in self.sat:
            for _ in range(count):
                phi = oracles.random_cnf3(self.VARIABLES, m, rng)
                while not satisfiable(phi.variable_count, phi.clauses):
                    phi = oracles.random_cnf3(self.VARIABLES, m, rng)
                formulas.append(phi)
        for m, count in self.unsat:
            formulas.extend(_planted_unsat(self.VARIABLES, m, rng) for _ in range(count))
        rng.shuffle(formulas)
        problems: list[str] = []
        items = []
        for i, phi in enumerate(formulas):
            cnf = workdir / f"phi{i}.cnf"
            cnf.write_text(
                f"p cnf {phi.variable_count} {len(phi.clauses)}\n"
                + "".join(" ".join(map(str, c)) + " 0\n" for c in phi.clauses),
                encoding="utf-8",
            )
            parsed = oracles.parse_dimacs(cnf.read_text(encoding="utf-8"))
            if parsed != phi:
                problems.append(f"{cnf.name}: parsed formula differs from the one written")
            gens = {
                name: build(parsed)
                for name, build in (
                    ("thm8", oracles.build_thm8),
                    ("thm9", oracles.build_thm9),
                    ("thm10", oracles.build_thm10),
                )
            }
            paths = {name: workdir / f"phi{i}-{name}.dth" for name in gens}
            theories = {name: _round_trip(gen.theory, paths[name], problems) for name, gen in gens.items()}
            l = gens["thm8"].letter("l")
            items.append({"phi": parsed, "cnf": cnf, "paths": paths, "theories": theories, "l": l})
        return {"items": items, "problems": problems}

    def operations(self, inputs):
        ops = []
        for item in inputs["items"]:
            th, l = item["theories"], item["l"]
            not_l = frozenset([Literal(l, False)])
            ops += [
                ("witness_search", lambda t=th["thm8"], o=not_l: _general_witness_search(t, o)),
                ("recognize", lambda t=th["thm9"], o=not_l: outliers.recognize_strong(t, o, semantics.FAST)),
                (
                    "exhaustive_entails",
                    lambda t=th["thm10"], g=[Literal(l)]: semantics.entails(t, g, semantics.EXHAUSTIVE),
                ),
            ]
        return ops

    def cli_calls(self, inputs):
        """``recognize`` on the thm9 theories of the first four formulas, so
        that most calls are alike; ``entails`` on the first thm10 theory;
        ``reduce`` on the first formula."""
        items = inputs["items"]
        return [
            *(["recognize", f"--L=-{it['l']}", str(it["paths"]["thm9"])] for it in items[:4]),
            ["entails", f"--goal={items[0]['l']}", str(items[0]["paths"]["thm10"])],
            ["reduce", "--construction", "thm8", str(items[0]["cnf"])],
        ]

    def check(self, inputs, results, cli_results):
        problems = list(inputs["problems"])
        for i, item in enumerate(inputs["items"]):
            phi = item["phi"]
            sat = satisfiable(phi.variable_count, phi.clauses)
            w8, r9, e10 = results[3 * i : 3 * i + 3]
            if not isinstance(w8, Exception) and w8 != sat:
                problems.append(f"thm8 witness search says {w8} on {phi.clauses}")
            if not isinstance(r9, Exception) and r9.found != sat:
                problems.append(f"thm9 recognition says {r9.found} on {phi.clauses}")
            if not isinstance(e10, Exception) and e10 != (not sat):
                problems.append(f"thm10 entailment says {e10} on {phi.clauses}")
        items = inputs["items"]
        *recognized, (c10, _), (c8, out8) = cli_results
        for item, (code, _) in zip(items, recognized):
            sat = satisfiable(item["phi"].variable_count, item["phi"].clauses)
            if code == (1 if sat else 0):
                problems.append(f"CLI recognize on thm9 of {item['phi'].clauses}: exit {code}")
        sat = satisfiable(items[0]["phi"].variable_count, items[0]["phi"].clauses)
        if c10 == (0 if sat else 1):
            problems.append(f"CLI entails on thm10 of {items[0]['phi'].clauses}: exit {c10}")
        built = items[0]["theories"]["thm8"]
        if c8 == 0:
            got = core.parse_theory(out8, allow_reserved=True)
            if set(got.defaults) != set(built.defaults) or got.facts != built.facts:
                problems.append("CLI reduce output differs from build_thm8")
        elif c8 == 1:
            problems.append("CLI reduce: exit 1")
        return problems

    def details(self, inputs, groups):
        return {f"{g}_ref": (groups[g], "ref") for g in ("witness_search", "recognize", "exhaustive_entails")}


class QueryMix:
    """Point queries on one NU theory and its DNU dual, interleaved.

    Each sampled query runs on the NU theory and then, negated, on the dual.
    Witness pairs draw the outlier from the witness's ancestors, where
    condition 2 can hold.
    """

    name = "query-mix"

    def __init__(self, letters=400, entails=96, recognize=1, witness=32):
        self.letters, self.counts = letters, (entails, recognize, witness)

    def setup(self, seed: int, workdir: Path):
        rng = random.Random(seed)
        n = self.letters
        theory = oracles.random_theory("NU", n, 4 * n // 3, 1, rng.randrange(2**31))
        problems: list[str] = []
        nu = _round_trip(theory, workdir / "nu.dth", problems)
        dnu = _round_trip(core.dualize(theory), workdir / "dnu.dth", problems)
        letters = sorted(nu.letters())
        facts = sorted(nu.facts, key=literal_key)
        cones = ConeOracle(nu)
        n_entails, n_recognize, n_witness = self.counts
        queries = [("entails", Literal(rng.choice(letters), rng.random() < 0.5)) for _ in range(n_entails)]
        # A fact on a letter that is no rule's prerequisite influences no
        # other letter, so it is never an outlier and its recognition walks
        # every candidate: a sampled outlier would stop early and halve the
        # round.
        prerequisites = {p.letter for d in nu.defaults for p in d.prerequisite}
        leaves = [f for f in facts if f.letter not in prerequisites]
        queries += [("recognize", f) for f in rng.sample(leaves, n_recognize)]
        for _ in range(n_witness):
            s = rng.choice(facts)
            ancestors = cones.ancestors([s.letter])
            near = [f for f in facts if f != s and f.letter in ancestors]
            queries.append(("witness", (rng.choice(near or [f for f in facts if f != s]), s)))
        rng.shuffle(queries)
        return {"nu": nu, "dnu": dnu, "queries": queries, "problems": problems, "dir": workdir}

    def operations(self, inputs):
        nu, dnu = inputs["nu"], inputs["dnu"]
        ops = []
        for kind, arg in inputs["queries"]:
            for group, theory, neg in (("nu", nu, False), ("dnu", dnu, True)):
                flip = (lambda x: x.negate()) if neg else (lambda x: x)
                if kind == "entails":
                    fn = lambda t=theory, g=[flip(arg)]: semantics.entails(t, g)
                elif kind == "recognize":
                    fn = lambda t=theory, l=[flip(arg)]: outliers.recognize_strong(t, l)
                else:
                    l, s = [flip(arg[0])], [flip(arg[1])]
                    fn = lambda t=theory, l=l, s=s: outliers.is_strong_witness(t, l, s)
                ops.append((group, fn))
        return ops

    def cli_calls(self, inputs):
        d = inputs["dir"]
        goals = [q for kind, q in inputs["queries"] if kind == "entails"]
        fact = next(q for kind, q in inputs["queries"] if kind == "recognize")
        return [
            ["entails", f"--goal={goals[0]}", str(d / "nu.dth")],
            ["entails", f"--goal={goals[1]}", str(d / "nu.dth")],
            ["entails", f"--goal={goals[0].negate()}", str(d / "dnu.dth")],
            ["recognize", f"--L={fact}", str(d / "nu.dth")],
            ["enumerate", "--strong", "-k", "1", "--all-witnesses", str(d / "nu.dth")],
        ]

    def check(self, inputs, results, cli_results):
        problems = list(inputs["problems"])
        oracle = ConeOracle(inputs["nu"])
        found = oracle.strong_outliers(1)
        for i, (kind, arg) in enumerate(inputs["queries"]):
            got_nu, got_dnu = results[2 * i], results[2 * i + 1]
            if isinstance(got_nu, Exception) or isinstance(got_dnu, Exception):
                continue
            if kind == "entails":
                want, got, dual = oracle.entails(arg), got_nu, got_dnu
            elif kind == "recognize":
                want, got, dual = frozenset([arg]) in found, got_nu.found, got_dnu.found
                witnesses = found.get(frozenset([arg]), set())
                negated = {frozenset(x.negate() for x in w) for w in got_dnu.witnesses}
                if not set(got_nu.witnesses) <= witnesses or not negated <= witnesses:
                    problems.append(f"recognize {arg}: witness not among {witnesses}")
            else:
                want, got, dual = oracle.strong_witness([arg[0]], [arg[1]]), got_nu, got_dnu
            if got != want or dual != want:
                problems.append(f"{kind} {arg}: NU {got}, DNU {dual}, definition {want}")
        goals = [q for kind, q in inputs["queries"] if kind == "entails"]
        fact = next(q for kind, q in inputs["queries"] if kind == "recognize")
        expected = [
            oracle.entails(goals[0]),
            oracle.entails(goals[1]),
            oracle.entails(goals[0]),
            frozenset([fact]) in found,
        ]
        for call, want, (code, _) in zip(self.cli_calls(inputs), expected, cli_results):
            if code == (1 if want else 0):
                problems.append(f"CLI {' '.join(call[:2])}: exit {code}, definition says {want}")
        code, out = cli_results[-1]
        if code in (0, 1) and (code or _report_pairs(out) != _map_pairs(found)):
            problems.append(f"CLI enumerate: exit {code}, output differs")
        return problems

    def details(self, inputs, groups):
        n = len(inputs["queries"])
        return {"nu_query_ref": (groups["nu"] / n, "ref"), "dnu_query_ref": (groups["dnu"] / n, "ref")}


WORKLOADS = {w.name: w for w in (NuEnumerate, Reductions, QueryMix)}
