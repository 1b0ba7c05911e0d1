"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s``.  Every expected value is
either a published scenario result, an independently computed brute-force
answer, or a truth-table SAT verdict; no expected value is produced by the
code path under test.
"""

from __future__ import annotations

import itertools
import random
import time

from defoutlier import (
    EXHAUSTIVE,
    FAST,
    DefaultTheory,
    Literal,
    brave_member,
    build_lemma4,
    build_thm8,
    build_thm9,
    build_thm10,
    decompose,
    dualize,
    entails,
    enumerate_strong,
    extensions,
    influences,
    is_inconsistent,
    is_strong_witness,
    is_witness,
    lits,
    parse_theory,
    random_theory,
    recognize_strong,
    sat,
)
from defoutlier.oracles import all_cnf3_formulas, lemma4_goal, lemma4_witness_from_model, random_cnf3

from conftest import CELLPHONE, CREDIT_CARD, ExhaustiveOracle, brute_force_outliers, nonempty_subsets


def _report(num: int, name: str) -> None:
    print(f"ACCEPTANCE {num} {name}: PASS")


# ---------------------------------------------------------------------------
# 1. Golden scenarios
# ---------------------------------------------------------------------------


def test_criterion_1_golden_scenarios():
    start = time.monotonic()
    credit = parse_theory(CREDIT_CARD)
    cell = parse_theory(CELLPHONE)

    reports = enumerate_strong(credit, 1)
    assert {r.outlier for r in reports} == {lits("CreditNumber")}
    assert reports[0].witnesses == (lits("MultipleIPs"),)
    assert is_witness(credit, lits("CreditNumber"), lits("MultipleIPs"))
    assert is_strong_witness(credit, lits("CreditNumber"), lits("MultipleIPs"))

    s4 = lits("-MfC", "NewLocation", "QuietTime", "MultipleIPs")
    for outlier in (lits("CreditNumber"), lits("CellUse")):
        assert is_witness(cell, outlier, s4)
        assert not is_strong_witness(cell, outlier, s4)
    assert is_strong_witness(cell, lits("CreditNumber"), lits("MultipleIPs"))
    pool = sorted(lits("-MfC", "NewLocation", "QuietTime"), key=str)
    for subset in nonempty_subsets(pool):
        assert is_strong_witness(cell, lits("CellUse"), frozenset(subset))

    elapsed = time.monotonic() - start
    assert elapsed < 1.0, f"golden scenarios took {elapsed:.2f}s"
    _report(1, "golden scenarios")


# ---------------------------------------------------------------------------
# 2. Backend equivalence
# ---------------------------------------------------------------------------


def test_criterion_2_backend_equivalence():
    rng = random.Random(202)
    disagreements = 0
    for trial in range(1000):
        n = rng.randint(2, 8)
        m = rng.randint(1, min(12, 2 * n))
        c = min(n, rng.choice([1, 1, 2, 2, 3, n]))
        theory = random_theory("NU", n, m, c, seed=trial * 7 + 1)
        for variant in (theory, dualize(theory)):
            exts = extensions(variant)
            for letter in sorted(variant.letters()):
                for q in (Literal(letter, True), Literal(letter, False)):
                    exhaustive = all(e.contains(q) for e in exts)
                    fast = entails(variant, [q], FAST)
                    if exhaustive != fast:
                        disagreements += 1
    assert disagreements == 0
    _report(2, "backend equivalence (1000 NU theories + DNU duals)")


# ---------------------------------------------------------------------------
# 3. Enumeration vs definition-level brute force
# ---------------------------------------------------------------------------


def test_criterion_3_enumeration_vs_brute_force():
    rng = random.Random(303)
    mismatches = 0
    oracle_checked = 0
    for trial in range(300):
        n = rng.randint(3, 8)
        m = rng.randint(2, 12)
        c = rng.choice([1, 2])
        theory = random_theory("NU", n, m, min(c, n), seed=trial * 13 + 5)
        for k in (1, 2):
            got = {r.outlier for r in enumerate_strong(theory, k, backend=FAST)}
            want = set(brute_force_outliers(theory, k, strong=True))
            if got != want:
                mismatches += 1
            oracle_checked += 1
    assert mismatches == 0, f"{mismatches} of {oracle_checked} comparisons differ"
    _report(3, "strong enumeration equals brute force (300 theories, k=1..2)")


# ---------------------------------------------------------------------------
# 4. Reduction oracles
# ---------------------------------------------------------------------------


def _has_general_witness(theory: DefaultTheory, outlier) -> bool:
    rest = sorted(theory.facts - outlier, key=str)
    for s in nonempty_subsets(rest):
        if is_witness(theory, outlier, frozenset(s), backend=FAST):
            return True
    return False


def _lemma4_holds(gen) -> bool:
    xs = sorted(gen.theory.facts, key=str)
    for size in range(0, len(xs) + 1):
        for s in itertools.combinations(xs, size):
            s = frozenset(s)
            if entails(gen.theory.remove_facts(s), lemma4_goal(gen, s), backend=FAST):
                return True
    return False


def _check_reductions(phi) -> list[str]:
    failures = []
    satisfiable, model = sat(phi)

    gen8 = build_thm8(phi)
    if _has_general_witness(gen8.theory, frozenset([gen8.literal("l", False)])) != satisfiable:
        failures.append(f"thm8 mismatch on {phi}")

    gen9 = build_thm9(phi)
    if recognize_strong(gen9.theory, frozenset([gen9.literal("l", False)]), backend=FAST).found != satisfiable:
        failures.append(f"thm9 mismatch on {phi}")

    gen10 = build_thm10(phi)
    if entails(gen10.theory, [gen10.literal("l")], EXHAUSTIVE) != (not satisfiable):
        failures.append(f"thm10 mismatch on {phi}")

    gen4 = build_lemma4(phi)
    if _lemma4_holds(gen4) != satisfiable:
        failures.append(f"lemma4 mismatch on {phi}")
    if satisfiable:
        s = lemma4_witness_from_model(gen4, model)
        if not entails(gen4.theory.remove_facts(s), lemma4_goal(gen4, s), backend=FAST):
            failures.append(f"lemma4 model witness fails on {phi}")
    return failures


def test_criterion_4_reduction_oracles():
    start = time.monotonic()
    failures: list[str] = []

    family = all_cnf3_formulas(3, 3)
    for phi in family:
        failures.extend(_check_reductions(phi))

    rng = random.Random(404)
    for _ in range(200):
        phi = random_cnf3(5, rng.randint(1, 6), rng)
        failures.extend(_check_reductions(phi))

    elapsed = time.monotonic() - start
    assert not failures, failures[:10]
    assert elapsed < 600, f"reduction suite took {elapsed:.0f}s"
    _report(4, f"reduction oracles ({len(family)} exhaustive + 200 random formulas, {elapsed:.0f}s)")


# ---------------------------------------------------------------------------
# 5. Incremental Lemma
# ---------------------------------------------------------------------------


def test_criterion_5_incremental_lemma():
    rng = random.Random(505)
    trials = 0
    violations = 0
    while trials < 1000:
        n = rng.randint(3, 6)
        theory = random_theory(
            "NMU", n, rng.randint(2, 8), min(n, rng.choice([1, 2])), seed=rng.randrange(10**9)
        )
        letters = sorted(theory.letters())
        extra = letters + ["w1", "w2"]
        q = Literal(rng.choice(letters), rng.random() < 0.5)
        s = frozenset(
            Literal(rng.choice(extra), rng.random() < 0.5)
            for _ in range(rng.randint(1, 3))
        )
        if is_inconsistent(theory.facts | s):
            continue
        if influences(theory, s, q):
            continue
        trials += 1
        enlarged = theory.with_facts(theory.facts | s)
        if brave_member(theory, q) and not brave_member(enlarged, q):
            violations += 1
        if entails(theory, [q], EXHAUSTIVE) and not entails(enlarged, [q], EXHAUSTIVE):
            violations += 1
    assert violations == 0
    _report(5, "incremental lemma (1000 trials, brave and skeptical clauses)")


# ---------------------------------------------------------------------------
# 6. Minimal strong witnesses live inside one SCC
# ---------------------------------------------------------------------------


def test_criterion_6_minimal_witnesses_single_scc():
    rng = random.Random(606)
    trials = 0
    violations = 0
    while trials < 300:
        n = rng.randint(3, 6)
        theory = random_theory(
            "NMU", n, rng.randint(2, 8), min(n, rng.choice([1, 2, 3])), seed=rng.randrange(10**9)
        )
        facts = sorted(theory.facts, key=str)
        if len(facts) < 2:
            continue
        outlier = frozenset(rng.sample(facts, rng.randint(1, min(2, len(facts) - 1))))
        trials += 1
        oracle = ExhaustiveOracle(theory)
        rest = [x for x in facts if x not in outlier]
        witnesses = [
            frozenset(s)
            for s in nonempty_subsets(rest)
            if oracle.is_witness(outlier, frozenset(s), strong=True)
        ]
        minimal = [w for w in witnesses if not any(o < w for o in witnesses)]
        decomp = decompose(theory)
        for w in minimal:
            letters = {x.letter for x in w}
            if not any(letters <= comp for comp in decomp.components):
                violations += 1
    assert violations == 0
    _report(6, "minimal strong witnesses single-SCC (300 trials)")


# ---------------------------------------------------------------------------
# 7. Coherence and semi-monotonicity of normal theories
# ---------------------------------------------------------------------------


def test_criterion_7_coherence_and_semi_monotonicity():
    rng = random.Random(707)
    for trial in range(500):
        n = rng.randint(3, 6)
        c = min(n, rng.choice([1, 2]))
        theory = random_theory("DF", n, rng.randint(2, 7), c, seed=trial * 11 + 3)
        base = extensions(theory)
        assert base, "normal theory with consistent facts must be coherent"
        extra = random_theory("DF", n, rng.randint(1, 4), c, seed=trial * 11 + 4).defaults
        enlarged = extensions(DefaultTheory(theory.defaults + extra, theory.facts))
        for e in base:
            assert any(
                e.literals <= e2.literals or e2.inconsistent for e2 in enlarged
            ), "extension lost its containment witness"
    _report(7, "coherence and semi-monotonicity (500 trials)")


# ---------------------------------------------------------------------------
# 8. Polynomial-path performance
# ---------------------------------------------------------------------------


def test_criterion_8_polynomial_path_performance():
    small = random_theory("NU", 150, 200, 1, seed=808)
    start = time.monotonic()
    enumerate_strong(small, 1, backend=FAST)
    t_small = time.monotonic() - start
    assert t_small < 60, f"n=150 enumeration took {t_small:.1f}s"

    big = random_theory("NU", 300, 400, 1, seed=809)
    start = time.monotonic()
    enumerate_strong(big, 1, backend=FAST)
    t_big = time.monotonic() - start
    assert t_big <= 32 * max(t_small, 1e-3), f"{t_big:.2f}s vs {t_small:.2f}s exceeds the 2^5 factor"
    _report(8, f"polynomial path ({t_small:.2f}s at n=150, {t_big:.2f}s at n=300)")
