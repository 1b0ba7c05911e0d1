import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from defoutlier import (
    EXHAUSTIVE,
    FAST,
    BudgetExceededError,
    Cnf3,
    DefaultRule,
    DefaultTheory,
    InfeasibleProfileError,
    Literal,
    ScopeError,
    SignatureSet,
    brave_member,
    build_thm10,
    dualize,
    entails,
    extensions,
    find_proof,
    is_extension,
    is_inconsistent,
    lit,
    lits,
    parse_theory,
    random_theory,
    theory_to_text,
)
from defoutlier import semantics
from defoutlier.core import normal_rule
from conftest import reiter_extensions

TWO_EXT = "fact a. default a : -y / -y. default : y / y."


def ext_sets(theory, **kw):
    return {e.literals for e in extensions(theory, **kw)}


# ---------------------------------------------------------------------------
# Extension enumeration
# ---------------------------------------------------------------------------


def test_incoherent_theory_has_no_extensions():
    assert extensions(parse_theory("default : b / -b.")) == ()


def test_two_extensions():
    assert ext_sets(parse_theory(TWO_EXT)) == {lits("a", "y"), lits("a", "-y")}


def test_no_rules_single_extension():
    assert ext_sets(parse_theory("fact a & -b.")) == {lits("a", "-b")}


def test_inconsistent_facts_single_inconsistent_extension():
    t = parse_theory("fact a & -a. default : b / b.")
    exts = extensions(t)
    assert len(exts) == 1
    assert exts[0].inconsistent
    assert exts[0].contains(lit("anything"))


def test_generating_defaults_are_recorded():
    t = parse_theory(TWO_EXT)
    for e in extensions(t):
        rebuilt = set(t.facts)
        for i in e.generating:
            d = t.defaults[i]
            assert all(p in rebuilt for p in d.prerequisite)
            rebuilt |= d.consequent
        assert rebuilt == set(e.literals)


def test_budget_exceeded():
    t = random_theory("NU", 8, 12, 2, seed=3)
    with pytest.raises(BudgetExceededError):
        extensions(t, budget=3)


def test_pruning_bounds_thm10_search():
    # (x1)(-x1)(x1|x2|x3)(-x2|x4|x5)(x3|-x4|-x5) is unsatisfiable, so every
    # extension holds the designated letter.  Without pruning the branches
    # where a blocked rule can end neither satisfied nor refuted, the search
    # visits 201 365 nodes; with it, 17 477.
    phi = Cnf3(5, ((1, 1, 1), (-1, -1, -1), (1, 2, 3), (-2, 4, 5), (3, -4, -5)))
    gen = build_thm10(phi)
    assert entails(gen.theory, [gen.literal("l")], EXHAUSTIVE, budget=50_000)


def test_signature_set_checks_consistency_once(monkeypatch):
    calls = []
    real = semantics.is_inconsistent
    monkeypatch.setattr(semantics, "is_inconsistent", lambda ls: calls.append(ls) or real(ls))
    sig = SignatureSet(lits("a", "-b"), ())
    assert [sig.contains(lit(x)) for x in ("a", "b", "-b", "c")] == [True, False, True, False]
    assert len(calls) == 1


def _fragment_theories(per_fragment: int):
    """Seeded random NU, DNU, NMU and DF theories of at most 10 rules; every
    fourth one gets a fact contradicting another, so its facts are
    inconsistent."""
    rng = random.Random(4242)
    for fragment in ("NU", "DNU", "NMU", "DF"):
        made = 0
        while made < per_fragment:
            letters, rules = rng.randint(2, 6), rng.randint(2, 10)
            tightness, seed = rng.randint(1, letters), rng.randrange(10**6)
            try:
                t = random_theory(fragment, letters, rules, tightness, seed)
            except InfeasibleProfileError:
                continue
            made += 1
            if made % 4 == 0 and t.facts:
                t = t.with_facts(t.facts | {min(t.facts, key=str).negate()})
            yield t


def test_exhaustive_backend_matches_reiter_definition():
    checked = 0
    for t in _fragment_theories(100):
        want = reiter_extensions(t)
        exts = extensions(t)
        assert len(exts) == len(want)
        assert {e.literals for e in exts} == want
        everything = is_inconsistent(t.facts)
        letters = sorted(t.letters())
        for x in letters + ["absent"]:
            for q in (Literal(x, True), Literal(x, False)):
                assert brave_member(t, q) == (everything or any(q in e for e in want))
                assert entails(t, [q], EXHAUSTIVE) == (everything or all(q in e for e in want))
        pair = lits(letters[0], "-" + letters[-1])
        assert entails(t, pair, EXHAUSTIVE) == (everything or all(pair <= e for e in want))
        checked += 1
    assert checked == 400


def test_exhaustive_backend_matches_reiter_on_non_normal_rules():
    # Multi-literal, non-normal parts, some of them self-contradictory.
    rng = random.Random(99)

    def part(letters, lo, hi):
        n = rng.randint(lo, hi)
        return frozenset(Literal(rng.choice(letters), rng.random() < 0.6) for _ in range(n))

    for _ in range(400):
        letters = "abcd"[: rng.randint(2, 4)]
        rules = [
            DefaultRule(part(letters, 0, 2), part(letters, 1, 2), part(letters, 1, 2))
            for _ in range(rng.randint(1, 7))
        ]
        t = DefaultTheory(rules, part(letters, 0, 2))
        assert ext_sets(t) == reiter_extensions(t), theory_to_text(t)


def test_inconsistent_candidate_is_no_extension():
    # Applying both rules gives {a, b, -b}, whose deductive closure refutes
    # the justification a; with consistent facts no extension is inconsistent.
    assert extensions(parse_theory("default : a / a & b. default : a / -b.")) == ()


def test_self_contradictory_justification_never_fires():
    assert ext_sets(parse_theory("default : a & -a / -a.")) == {frozenset()}


def test_signature_sets_satisfy_closure():
    # No rule may remain applicable and unrefuted against a signature set.
    for seed in range(15):
        t = random_theory("NMU", 6, 8, 2, seed=seed)
        for e in extensions(t):
            for d in t.defaults:
                applicable = d.prerequisite <= e.literals
                refuted = any(c.negate() in e.literals for c in d.justification)
                assert not (applicable and not refuted and not d.consequent <= e.literals)


# ---------------------------------------------------------------------------
# is_extension (candidate checking)
# ---------------------------------------------------------------------------


def test_is_extension_credit_card_variants(credit_card):
    reduced = credit_card.with_facts(lits("CreditNumber"))
    assert is_extension(reduced, lits("CreditNumber", "-MultipleIPs"))
    assert not is_extension(reduced, lits("CreditNumber"))


def test_is_extension_rejects_inconsistent_candidate():
    t = parse_theory(TWO_EXT)
    assert not is_extension(t, lits("a", "y", "-y"))


def test_is_extension_requires_nmu():
    t = DefaultTheory([normal_rule("a & b", "c")], [])
    with pytest.raises(ScopeError):
        is_extension(t, frozenset())


def test_is_extension_agrees_with_enumeration():
    for seed in range(25):
        t = random_theory("NMU", 5, 7, 2, seed=seed)
        valid = ext_sets(t)
        letters = sorted(t.letters())
        import itertools

        universe = [Literal(x, p) for x in letters for p in (True, False)]
        for size in range(0, 3):
            for combo in itertools.combinations(universe, size):
                cand = t.facts | frozenset(combo)
                assert is_extension(t, cand) == (cand in valid)


# ---------------------------------------------------------------------------
# Proofs
# ---------------------------------------------------------------------------


def test_proof_from_facts(credit_card):
    p = find_proof(credit_card, lit("CreditNumber"), credit_card.facts)
    assert p is not None and p.in_w and len(p) == 0


def test_proof_single_rule(credit_card):
    reduced = credit_card.with_facts(lits("CreditNumber"))
    ctx = lits("CreditNumber", "-MultipleIPs")
    p = find_proof(reduced, lit("-MultipleIPs"), ctx)
    assert p is not None and not p.in_w
    assert [str(d) for d in p.steps] == ["CreditNumber : -MultipleIPs / -MultipleIPs"]


def test_proof_blocked_by_context(cellphone):
    assert find_proof(cellphone, lit("MfC"), lits("-MfC")) is None


def test_proof_chain_structure():
    t = parse_theory("fact a. default a : b / b. default b : c / c.")
    p = find_proof(t, lit("c"), lits("a", "b", "c"))
    assert p is not None and len(p) == 2
    # each step chains on the previous conclusion or is grounded in W
    prev = None
    for d in p.steps:
        if d.prerequisite:
            (pre,) = d.prerequisite
            assert pre in t.facts or (prev is not None and pre in prev)
        prev = d.consequent
    (last,) = p.steps[-1].consequent
    assert last == lit("c")


def test_proof_soundness_and_completeness_against_extensions():
    # Within an extension's signature set, exactly its members have proofs.
    for seed in range(20):
        t = random_theory("NMU", 5, 7, 2, seed=seed)
        for e in extensions(t):
            ctx = e.literals
            letters = sorted(t.letters())
            for x in letters:
                for q in (Literal(x, True), Literal(x, False)):
                    has = find_proof(t, q, ctx) is not None
                    assert has == (q in ctx), (t, q, ctx)


def test_proof_requires_nmu():
    t = DefaultTheory([normal_rule("a & b", "c")], [])
    with pytest.raises(ScopeError):
        find_proof(t, lit("c"), frozenset())


# ---------------------------------------------------------------------------
# Entailment and brave membership
# ---------------------------------------------------------------------------


def test_entails_credit_card_conditions(credit_card):
    base = credit_card.with_facts(lits("CreditNumber"))
    for backend in (EXHAUSTIVE, FAST):
        assert entails(base, lits("-MultipleIPs"), backend)
        assert not entails(credit_card.with_facts([]), lits("-MultipleIPs"), backend)


def test_entails_disagreeing_extensions():
    t = parse_theory(TWO_EXT)
    for backend in (EXHAUSTIVE, FAST):
        assert not entails(t, lits("y"), backend)
        assert not entails(t, lits("-y"), backend)
        assert entails(t, lits("a"), backend)


def test_entails_vacuous_on_incoherent():
    t = parse_theory("default : b / -b.")
    assert entails(t, lits("b"), EXHAUSTIVE)


def test_entails_inconsistent_facts():
    t = parse_theory("fact a & -a.")
    assert entails(t, lits("zzz"), EXHAUSTIVE)


def test_fast_backend_scope_error():
    t = parse_theory("default -a : b / b. default a : c / c.")  # NMU proper
    with pytest.raises(ScopeError):
        entails(t, lits("b"), FAST)


def test_brave_member_examples():
    t = parse_theory(TWO_EXT)
    assert brave_member(t, lit("y"))
    assert brave_member(t, lit("-y"))
    assert not brave_member(parse_theory("fact a."), lit("-a"))
    assert not brave_member(parse_theory("default : b / -b."), lit("b"))


# ---------------------------------------------------------------------------
# Backend equivalence and structural properties (smoke level; the acceptance
# suite runs the large seeded families)
# ---------------------------------------------------------------------------


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 10**6), st.sampled_from(["NU", "DNU"]))
def test_fast_equals_exhaustive(seed, fragment):
    t = random_theory(fragment, 6, 9, 2, seed=seed)
    exts = extensions(t)
    for x in sorted(t.letters()):
        for q in (Literal(x, True), Literal(x, False)):
            want = all(e.contains(q) for e in exts)
            assert entails(t, [q], FAST) == want


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6))
def test_normal_theories_coherent_and_semi_monotonic(seed):
    t = random_theory("DF", 6, 8, 2, seed=seed)
    base = extensions(t)
    assert base  # normal theories with consistent facts are coherent
    extra = random_theory("DF", 6, 4, 2, seed=seed + 1).defaults
    bigger = extensions(DefaultTheory(t.defaults + extra, t.facts))
    for e in base:
        assert any(e.literals <= e2.literals or e2.inconsistent for e2 in bigger)


def test_dnu_entailment_via_dualization():
    t = parse_theory("fact -a. default -a : -b / -b. default : b / b.")
    assert classify_tag(t) == "DNU"
    assert not entails(t, lits("-b"), FAST)
    assert not entails(t, lits("b"), FAST)
    assert entails(t, lits("-a"), FAST)


def classify_tag(t):
    from defoutlier import classify

    return classify(t).tag


# ---------------------------------------------------------------------------
# Cone locality of the fast backend
# ---------------------------------------------------------------------------


def _ancestors(theory, letter):
    """The letter and every letter with a rule path to it, read off the rules."""
    parents = {}
    for d in theory.defaults:
        for c in d.consequent:
            parents.setdefault(c.letter, set()).update(p.letter for p in d.prerequisite)
    seen, frontier = {letter}, [letter]
    while frontier:
        for p in parents.get(frontier.pop(), ()):
            if p not in seen:
                seen.add(p)
                frontier.append(p)
    return seen


def _cone_subtheory(theory, letter):
    """The rules concluding a letter of the goal's cone, and the cone's facts."""
    cone = _ancestors(theory, letter)
    return DefaultTheory(
        [d for d in theory.defaults if any(c.letter in cone for c in d.consequent)],
        [l for l in theory.facts if l.letter in cone],
    )


@pytest.mark.parametrize("n,fragment", [(400, "NU"), (600, "DNU"), (800, "NU"), (500, "DNU")])
def test_fast_entails_matches_exhaustive_on_the_goal_cone(n, fragment):
    theory = random_theory(fragment, n, 4 * n // 3, 1, seed=n + 7)
    facts = sorted(theory.facts, key=str)
    for variant in (theory, theory.remove_facts(facts[::3])):
        for x in sorted(theory.letters()):
            sub = _cone_subtheory(variant, x)
            for q in (Literal(x, True), Literal(x, False)):
                assert entails(variant, [q], FAST) == entails(sub, [q], EXHAUSTIVE), (x, q)


def _reach_sizes(monkeypatch, theory, goals):
    sizes = []
    reach = semantics._NuEntailer._reach

    def counting(self, *args):
        seen = reach(self, *args)
        sizes.append(len(seen))
        return seen

    monkeypatch.setattr(semantics._NuEntailer, "_reach", counting)
    answers = [entails(theory, [q], FAST) for q in goals]
    monkeypatch.undo()
    return answers, sizes


def _chain(first, prefix):
    return [normal_rule(first, f"{prefix}0")] + [
        normal_rule(f"{prefix}{i}", f"{prefix}{i + 1}") for i in range(499)
    ]


def test_reach_ignores_rule_chains_off_the_goal_cone(monkeypatch):
    # One 500-letter chain stands apart; another hangs below a positive
    # fact, so a reach over the whole theory would walk down it.
    base = random_theory("NU", 40, 53, 1, seed=11)
    fact = min(l.letter for l in base.facts if l.positive)
    chains = _chain("", "_y") + _chain(fact, "_c")
    padded = DefaultTheory(base.defaults + tuple(chains), base.facts)
    goals = [Literal(x, p) for x in sorted(base.letters()) for p in (True, False)]
    answers, sizes = _reach_sizes(monkeypatch, base, goals)
    padded_answers, padded_sizes = _reach_sizes(monkeypatch, padded, goals)
    assert padded_answers == answers
    assert sizes and padded_sizes == sizes
    assert max(sizes) < 40


def test_inconsistent_facts_off_every_cone_entail_everything():
    t = parse_theory("fact a & z & -z. default a : b / b. default : -c / -c.")
    for backend in (FAST, EXHAUSTIVE):
        assert entails(t, lits("-b"), backend)
        assert entails(t, lits("c"), backend)
        assert entails(t.remove_facts(lits("a")), lits("-b"), backend)
    assert not entails(t.remove_facts(lits("z")), lits("-b"), FAST)
