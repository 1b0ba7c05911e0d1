import itertools
import random

import pytest

from defoutlier import (
    EXHAUSTIVE,
    FAST,
    Cnf3,
    InfeasibleProfileError,
    build_lemma4,
    build_thm8,
    build_thm9,
    build_thm10,
    classify,
    entails,
    parse_dimacs,
    parse_theory,
    random_theory,
    sat,
    theory_to_text,
    tightness,
)
from defoutlier.oracles import (
    all_cnf3_formulas,
    evaluate,
    lemma4_goal,
    lemma4_witness_from_model,
    random_cnf3,
    to_dimacs,
)

PHI_SAT = Cnf3(1, ((1, 1, 1),))
PHI_UNSAT = Cnf3(1, ((1, 1, 1), (-1, -1, -1)))


# ---------------------------------------------------------------------------
# Cnf3 and the SAT oracle
# ---------------------------------------------------------------------------


def test_cnf_validation():
    with pytest.raises(ValueError):
        Cnf3(1, ((1, 2, 1),))
    with pytest.raises(ValueError):
        Cnf3(1, ((1, 1),))  # type: ignore[arg-type]


def test_sat_trivial_cases():
    from defoutlier import lit

    ok, model = sat(PHI_SAT)
    assert ok and model == frozenset({lit("x1")})
    assert sat(PHI_UNSAT) == (False, None)


def test_sat_model_recheck_random():
    from defoutlier import Literal

    rng = random.Random(11)
    for _ in range(60):
        phi = random_cnf3(4, 8, rng)
        ok, model = sat(phi)
        if ok:
            assert evaluate(phi, model)
        else:
            # exhaustively confirm no assignment works
            n = phi.variable_count
            for bits in range(1 << n):
                model = frozenset(
                    Literal(f"x{i+1}", bool(bits >> i & 1)) for i in range(n)
                )
                assert not evaluate(phi, model)


def test_sat_size_guard():
    with pytest.raises(ValueError):
        sat(Cnf3(25, ((1, 2, 3),)))


def test_dimacs_round_trip():
    text = "c comment\np cnf 3 2\n1 -2 3 0\n-1 2 0\n"
    phi = parse_dimacs(text)
    assert phi.variable_count == 3
    assert phi.clauses == ((1, -2, 3), (-1, 2, 2))  # short clause padded
    assert parse_dimacs(to_dimacs(phi)) == phi


def test_dimacs_errors():
    for text, match in (
        ("1 2 3 0\n", "missing 'p cnf' header"),
        ("p cnf 4 1\n1 2 3 4 0\n", "only 3CNF"),
        ("p cnf 3\n", "bad DIMACS header"),
        ("p dnf 3 1\n", "bad DIMACS header"),
        ("p cnf 3 1\n0\n", "empty clause"),
    ):
        with pytest.raises(ValueError, match=match):
            parse_dimacs(text)


# ---------------------------------------------------------------------------
# Reduction constructions
# ---------------------------------------------------------------------------


def test_construction_shapes():
    phi = Cnf3(2, ((1, -2, 2), (-1, -1, 2)))
    g4, g8, g9, g10 = build_lemma4(phi), build_thm8(phi), build_thm9(phi), build_thm10(phi)
    assert classify(g4.theory).tag == "NU"
    assert classify(g8.theory).tag == "NU"
    assert classify(g9.theory).tag == "NU"
    assert classify(g10.theory).tag == "NMU"
    assert tightness(g8.theory) == 1
    assert tightness(g10.theory) == 1
    assert tightness(g9.theory) > 1
    # designated letters are fresh: reserved prefixes, never DIMACS variables
    for gen in (g4, g8, g9, g10):
        user = {f"x{i}" for i in range(1, phi.variable_count + 1)}
        generated = set(gen.theory.letters()) - user
        assert all(x.startswith(("_y", "_c", "_l", "_f")) for x in generated)


def test_generated_theories_round_trip():
    phi = Cnf3(2, ((1, -2, 2), (-1, -1, 2)))
    for build in (build_lemma4, build_thm8, build_thm9, build_thm10):
        t = build(phi).theory
        assert parse_theory(theory_to_text(t), allow_reserved=True) == t


def test_flat_constructions_stay_flat_across_formulas():
    rng = random.Random(5)
    for _ in range(15):
        phi = random_cnf3(rng.randint(1, 4), rng.randint(1, 4), rng)
        assert tightness(build_thm8(phi).theory) == 1
        assert tightness(build_thm10(phi).theory) == 1


def test_lemma4_equivalence_tiny():
    for phi, expect in ((PHI_SAT, True), (PHI_UNSAT, False)):
        gen = build_lemma4(phi)
        xs = sorted(gen.theory.facts, key=str)
        found = False
        for size in range(0, len(xs) + 1):
            for s in itertools.combinations(xs, size):
                s = frozenset(s)
                if entails(gen.theory.remove_facts(s), lemma4_goal(gen, s), EXHAUSTIVE):
                    found = True
                    break
            if found:
                break
        assert found == expect


def test_lemma4_witness_from_model():
    phi = Cnf3(2, ((1, -2, 2), (-1, -1, -2)))
    ok, model = sat(phi)
    assert ok
    gen = build_lemma4(phi)
    s = lemma4_witness_from_model(gen, model)
    assert s <= gen.theory.facts
    assert entails(gen.theory.remove_facts(s), lemma4_goal(gen, s), FAST)


def test_thm10_equivalence_tiny():
    assert not entails(build_thm10(PHI_SAT).theory, [build_thm10(PHI_SAT).literal("l")], EXHAUSTIVE)
    assert entails(build_thm10(PHI_UNSAT).theory, [build_thm10(PHI_UNSAT).literal("l")], EXHAUSTIVE)


# ---------------------------------------------------------------------------
# Random generation
# ---------------------------------------------------------------------------


def test_random_theory_deterministic():
    a = random_theory("NU", 6, 8, 1, seed=42)
    b = random_theory("NU", 6, 8, 1, seed=42)
    assert a == b
    assert theory_to_text(a) == theory_to_text(b)


def test_random_theory_profiles():
    assert classify(random_theory("NU", 6, 8, 1, seed=0)).tag == "NU"
    assert tightness(random_theory("NU", 6, 8, 1, seed=0)) == 1
    t = random_theory("NMU", 5, 10, 2, seed=1)
    assert classify(t).tag == "NMU"
    assert tightness(t) <= 2
    assert classify(random_theory("DNU", 5, 6, 1, seed=2)).tag == "DNU"
    df = random_theory("DF", 5, 6, 2, seed=3)
    assert classify(df).tag == "DF" and classify(df).normal


def test_random_theory_consistent_facts():
    from defoutlier import is_inconsistent

    for seed in range(20):
        assert not is_inconsistent(random_theory("NU", 7, 9, 2, seed=seed).facts)


def test_random_theory_infeasible_profiles():
    with pytest.raises(InfeasibleProfileError):
        random_theory("NU", 3, 5, 4, seed=0)
    with pytest.raises(InfeasibleProfileError):
        random_theory("NMU", 4, 1, 1, seed=0)
    with pytest.raises(InfeasibleProfileError):
        random_theory("XX", 4, 4, 1, seed=0)


def test_all_cnf3_formulas_counts():
    fams = all_cnf3_formulas(1, 2)
    # n=1: clauses over {1,-1}: 4 sorted triples; m=1: 4, m=2: 10
    assert len(fams) == 14
    assert len({(f.variable_count, f.clauses) for f in fams}) == len(fams)
