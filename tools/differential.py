"""Answer differential: run a fixed, seeded corpus through the package and
print one SHA-256 digest per section.

Run it in two checkouts and compare the digests; a section whose digest
differs names what changed, and ``--lines`` prints its raw lines to diff::

    python3 tools/differential.py
    python3 tools/differential.py --lines cli > cli.txt

``tools/differential.digests`` holds the digests the committed code prints,
and CI fails when the output differs from it.

Every literal set is printed sorted by ``literal_order``, so the output does
not depend on ``PYTHONHASHSEED``.  It imports ``defoutlier`` from the
checkout's own ``src/`` and uses the standard library only.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import logging
import random
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from defoutlier import (
    EXHAUSTIVE,
    FAST,
    BudgetExceededError,
    Literal,
    brave_member,
    classify,
    dualize,
    entails,
    enumerate_general,
    enumerate_strong,
    extensions,
    is_strong_witness,
    is_witness,
    lits,
    minimal_strong_witnesses,
    parse_theory,
    random_theory,
    recognize_strong,
    theory_to_text,
)
from defoutlier import cli, oracles
from defoutlier.core import literal_order

BUDGETS = (3, 5, 17, 10**6)
ABSENT = "absent0"  # random theories name their letters v1, v2, ...


def show(literals) -> str:
    return "{" + ",".join(str(l) for l in sorted(literals, key=literal_order)) + "}"


def show_all(sets) -> str:
    """A collection of literal sets whose own order carries no meaning."""
    return " ".join(sorted(map(show, sets)))


def outcome(call, *args) -> str:
    """The call's answer, or the name of the error it raised."""
    try:
        return str(call(*args))
    except Exception as exc:  # an error is an outcome here
        return f"raise {type(exc).__name__}"


def sorted_facts(theory):
    return sorted(theory.facts, key=literal_order)


def variants(theory):
    """The theory as drawn, with its first two facts withdrawn, and with no facts."""
    yield "drawn", theory
    yield "minus2", theory.remove_facts(sorted_facts(theory)[:2])
    yield "nofacts", theory.with_facts(())


def goals(theory):
    for x in [*sorted(theory.letters()), ABSENT]:
        yield Literal(x, True)
        yield Literal(x, False)


def fast_section():
    for fragment in ("NU", "DNU"):
        for n, tightness in ((12, 1), (30, 2), (60, 3), (300, 1), (300, 4)):
            for seed in range(30):
                theory = random_theory(fragment, n, 4 * n // 3, tightness, seed)
                for name, variant in variants(theory):
                    answers = "".join("1" if entails(variant, [q], FAST) else "0" for q in goals(variant))
                    yield f"{fragment} n={n} t={tightness} seed={seed} {name} {answers}"


def exhaustive_section():
    theories = [
        (f"{fragment} seed={seed}", random_theory(fragment, 5, 7, 2, seed))
        for fragment in ("NMU", "DF")
        for seed in range(300)
    ]
    rng = random.Random(10)
    for i in range(12):
        phi = oracles.random_cnf3(4, 5, rng)
        theories.append((f"thm10 phi={i}", oracles.build_thm10(phi).theory))
    for tag, theory in theories:
        for name, variant in variants(theory):
            for budget in BUDGETS:
                head = f"{tag} {name} budget={budget}"
                try:
                    sigs = extensions(variant, budget)
                    yield f"{head} extensions " + " ".join(f"{show(s.literals)}{s.generating}" for s in sigs)
                except BudgetExceededError:
                    yield f"{head} extensions raise BudgetExceededError"
                brave = [outcome(brave_member, variant, q, budget) for q in goals(variant)]
                yield f"{head} brave_member " + " ".join(brave)
                skeptical = [outcome(entails, variant, [q], EXHAUSTIVE, budget) for q in goals(variant)]
                yield f"{head} entails " + " ".join(skeptical)


def report_line(report) -> str:
    stats = report.search_stats
    witnesses = " ".join(map(show, report.witnesses))
    return (
        f"{show(report.outlier)} strong={report.strong} [{witnesses}] "
        f"candidates={stats.candidates_examined} entailments={stats.entailment_calls}"
    )


def reports_line(call) -> str:
    return outcome(lambda: " | ".join(map(report_line, call())) or "no reports")


def outliers_section():
    for fragment, n, tightness, backend in (
        ("NU", 12, 2, FAST),
        ("DNU", 12, 2, FAST),
        ("NU", 40, 3, FAST),
        ("DNU", 40, 3, FAST),
        ("NU", 80, 4, FAST),
        ("DNU", 80, 4, FAST),
        ("NU", 7, 2, EXHAUSTIVE),
        ("NMU", 6, 2, EXHAUSTIVE),
    ):
        for seed in range(60):
            theory = random_theory(fragment, n, 4 * n // 3, tightness, seed)
            tag = f"{fragment} n={n} t={tightness} seed={seed} {backend}"
            for k in (1, 2):
                yield f"{tag} strong k={k} " + reports_line(lambda: enumerate_strong(theory, k, backend))
                general = reports_line(lambda: enumerate_general(theory, k, 2, backend))
                yield f"{tag} general k={k} h=2 {general}"
            facts = sorted_facts(theory)[:6]
            pairs = [([l], s) for l in facts[:3] for s in (facts[3:4], facts[4:6]) if s]
            for report in enumerate_general(theory, 2, 2, backend)[:8]:
                # Each reported pair, and its witness with one more fact.
                for w in report.witnesses[:2]:
                    pairs.append((report.outlier, w))
                    extra = [x for x in facts if x not in report.outlier | w][:1]
                    pairs += [(report.outlier, w | {x}) for x in extra]
            for l, s in pairs:
                general = outcome(is_witness, theory, l, s, backend)
                strong = outcome(is_strong_witness, theory, l, s, backend)
                yield f"{tag} witness {show(l)} {show(s)} {general} {strong}"
            for fact in facts:
                for every in (False, True):
                    report = reports_line(lambda: [recognize_strong(theory, [fact], backend, all_witnesses=every)])
                    yield f"{tag} recognize {fact} all={every} {report}"
                minimal = outcome(lambda: show_all(minimal_strong_witnesses(theory, [fact], backend)))
                yield f"{tag} minimal {fact} {minimal}"
    nmu = parse_theory("fact a. fact b. fact c. default -a : b / b. default a : c / c.")
    yield "NMU fast witness " + outcome(is_witness, nmu, lits("c"), lits("b"), FAST)
    yield "NMU fast recognize " + outcome(lambda: recognize_strong(nmu, lits("c"), FAST).found)


def dualize_section():
    for fragment in ("NU", "DNU", "NMU", "DF"):
        for seed in range(10):
            theory = random_theory(fragment, 10, 14, 2, seed)
            dual = dualize(theory)
            yield f"{fragment} seed={seed} {classify(dual).tag} {dualize(dual) == theory}"
            yield theory_to_text(dual).replace("\n", " ")


CELLPHONE = """\
fact CreditNumber & CellUse & -MfC & QuietTime & NewLocation & MultipleIPs.
default CreditNumber : -MultipleIPs / -MultipleIPs.
default CellUse : MfC / MfC.
default CellUse : -QuietTime / -QuietTime.
default CellUse : -NewLocation / -NewLocation.
"""


def cli_section():
    with tempfile.TemporaryDirectory() as tmp:
        phone = Path(tmp, "cellphone.dth")
        phone.write_text(CELLPHONE, encoding="utf-8")
        nu = Path(tmp, "nu.dth")
        nu.write_text(theory_to_text(random_theory("NU", 20, 26, 2, 5)), encoding="utf-8")
        nmu = Path(tmp, "nmu.dth")
        nmu.write_text(theory_to_text(random_theory("NMU", 6, 8, 2, 3)), encoding="utf-8")
        cnf = Path(tmp, "phi.cnf")
        cnf.write_text(oracles.to_dimacs(oracles.random_cnf3(3, 4, random.Random(4))), encoding="utf-8")
        thm10 = Path(tmp, "thm10.dth")
        gen = oracles.build_thm10(oracles.parse_dimacs(cnf.read_text(encoding="utf-8")))
        thm10.write_text(theory_to_text(gen.theory), encoding="utf-8")
        runs = [
            ["classify", phone],
            ["classify", nmu],
            ["extensions", phone],
            ["extensions", nmu],
            ["extensions", "--budget", "3", thm10],
            ["entails", "--goal=-MultipleIPs", phone],
            ["entails", "--goal", "QuietTime,-MultipleIPs", "--backend", "fast", phone],
            ["entails", "--goal", "_l", "--backend", "exhaustive", thm10],
            ["entails", "--goal", "v1", "--backend", "fast", nmu],
            ["entails", "--budget", "0", "--goal", "a", phone],
            ["witness", "--L", "CreditNumber", "--S", "MultipleIPs", phone],
            ["witness", "--L", "CellUse", "--S=-MfC,QuietTime", phone],
            ["recognize", "--L", "CreditNumber", phone],
            ["recognize", "--L", "CellUse", "--all-witnesses", phone],
            ["enumerate", phone],
            ["enumerate", "--general", "--h", "4", "--format", "records", phone],
            ["enumerate", "-k", "2", "--all-witnesses", nu],
            ["enumerate", "-k", "2", "--format", "records", nu],
            ["enumerate", "--general", "-k", "2", "--h", "2", nu],
            ["enumerate", "--h", "2", nu],
            ["enumerate", "-k", "0", nu],
            ["enumerate", nmu],
            ["graph", nu],
            ["graph", "--dot", phone],
            ["random", "--fragment", "DNU", "--seed", "7"],
            ["random", "--tightness", "9", "--letters", "3"],
            ["classify", Path(tmp, "missing.dth")],
            ["bogus"],
        ]
        runs += [["reduce", "--construction", c, cnf] for c in sorted(oracles.BUILDERS)]
        for argv in runs:
            argv = [str(a) for a in argv]
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                code = outcome(cli.main, argv)
            shown = " ".join(a.replace(tmp, "TMP") for a in argv)
            yield f"$ {shown} -> {code}"
            yield from out.getvalue().replace(tmp, "TMP").splitlines()


SECTIONS = {
    "fast": fast_section,
    "exhaustive": exhaustive_section,
    "outliers": outliers_section,
    "dualize": dualize_section,
    "cli": cli_section,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--lines", action="store_true", help="print the raw lines instead of digests")
    parser.add_argument("sections", nargs="*", help=f"any of {', '.join(SECTIONS)} (default: all)")
    args = parser.parse_args(argv)
    unknown = set(args.sections) - SECTIONS.keys()
    if unknown:
        parser.error(f"unknown section {sorted(unknown)[0]!r}")
    logging.getLogger("defoutlier").addHandler(logging.NullHandler())  # the NMU cost warnings
    for name in args.sections or SECTIONS:
        lines = list(SECTIONS[name]())
        if args.lines:
            print("\n".join(f"{name}: {line}" for line in lines))
        else:
            digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
            print(f"{name} {digest} {len(lines)} lines")
    return 0


if __name__ == "__main__":
    sys.exit(main())
