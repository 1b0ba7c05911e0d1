import copy
import itertools
import random
import tracemalloc

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
    is_extension,
    is_inconsistent,
    lit,
    lits,
    parse_theory,
    random_theory,
    theory_to_text,
)
from defoutlier import semantics
from defoutlier.core import letter_mask, normal_rule
from conftest import nu_theories, reiter_extensions

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
    # extension holds the designated letter.  Pruning the branches where a
    # blocked rule can end neither satisfied nor refuted, and skipping the
    # subtrees whose E already holds the goal, leaves 12 093 nodes (133 631
    # without the first).  Bounding each node from below as well, the search
    # never blocks a rule no leaf can refute and drops a node whose forced
    # literals hold the goal: the root already forces it, so the query
    # answers at budget 3, and ``extensions`` needs 5 338 nodes, not 17 477.
    phi = Cnf3(5, ((1, 1, 1), (-1, -1, -1), (1, 2, 3), (-2, 4, 5), (3, -4, -5)))
    gen = build_thm10(phi)
    assert entails(gen.theory, [gen.literal("l")], EXHAUSTIVE, budget=50_000)
    assert entails(gen.theory, [gen.literal("l")], EXHAUSTIVE, budget=13_000)
    assert entails(gen.theory, [gen.literal("l")], EXHAUSTIVE, budget=3)
    assert len(extensions(gen.theory, budget=6_000)) == 420


def test_lower_bounds_answer_a_planted_core_within_small_budgets():
    # All four sign patterns of x1, x2 make the formula unsatisfiable; the
    # last clause is free.  The parent search needed 12 477 nodes for the
    # query and 17 949 for ``extensions``.
    phi = Cnf3(5, ((1, 1, 2), (1, 1, -2), (-1, -1, 2), (-1, -1, -2), (3, -4, 5)))
    gen = build_thm10(phi)
    assert entails(gen.theory, [gen.literal("l")], EXHAUSTIVE, budget=50)
    assert extensions(gen.theory, budget=6_000)


def test_a_rule_no_leaf_can_refute_is_never_blocked():
    # Blocking any of these rules leads only to leaves its apply branch has
    # already yielded, so the search is one path of 13 nodes, not 25.
    t = DefaultTheory([normal_rule("", f"a{i}") for i in range(12)], lits())
    (sig,) = extensions(t, budget=13)
    assert sig.generating == tuple(range(12))
    assert sig.literals == lits(*(f"a{i}" for i in range(12)))


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
        text, want = theory_to_text(t), reiter_extensions(t)
        exts = extensions(t)
        assert {e.literals for e in exts} == want, text
        for e in exts:
            # The generating rules, applied in order from the facts, are
            # grounded, none is refuted by E, and they rebuild E exactly.
            rebuilt = set(t.facts)
            for i in e.generating:
                d = t.defaults[i]
                assert d.prerequisite <= rebuilt, (text, e)
                assert not any(j.negate() in e.literals for j in d.justification), (text, e)
                rebuilt |= d.consequent
            assert rebuilt == e.literals, (text, e)
        # Multi-literal consequents leave goals half held inside the search.
        everything = is_inconsistent(t.facts)
        queries = [Literal(x, p) for x in sorted(t.letters()) for p in (True, False)]
        for q in queries:
            assert brave_member(t, q) == (everything or any(q in e for e in want)), (text, q)
        for size in (1, 2):
            for goal in map(frozenset, itertools.combinations(queries, size)):
                assert entails(t, goal, EXHAUSTIVE) == (everything or all(goal <= e for e in want)), (text, goal)


# Facts off the rules and on them, consistent and not, with and without rules.
OFF_RULE_THEORIES = [
    TWO_EXT + " fact p & -n.",  # facts on letters no rule mentions, both polarities
    TWO_EXT + " fact p & -p.",  # an inconsistent pair on such a letter
    TWO_EXT + " fact y & -y & p.",  # an inconsistent pair on a rule letter
    "fact a & -y. default a : y / y. default : -q / -q.",  # facts the rules contradict
    "fact p & -n.",  # no rules
    "",  # no rules and no facts
    "fact p. default : b / -b.",  # incoherent, with a fact off the rules
]


@pytest.mark.parametrize("text", OFF_RULE_THEORIES)
def test_exhaustive_queries_match_reiter_with_facts_off_the_rules(text):
    t = parse_theory(text)
    want = reiter_extensions(t)
    assert ext_sets(t) == want
    everything = is_inconsistent(t.facts)
    queries = [Literal(x, p) for x in sorted(t.letters()) + ["absent"] for p in (True, False)]
    for q in queries:
        assert brave_member(t, q) == (everything or any(q in e for e in want)), q
    for size in (1, 2):
        for goal in map(frozenset, itertools.combinations(queries, size)):
            assert entails(t, goal, EXHAUSTIVE) == (everything or all(goal <= e for e in want)), goal


def test_masks_are_built_once_per_rule_base(monkeypatch):
    builds = []

    class Counted(semantics._MaskIndex):
        def __init__(self, theory):
            builds.append(theory.defaults)
            super().__init__(theory)

    monkeypatch.setattr(semantics, "_MaskIndex", Counted)
    t = parse_theory(TWO_EXT + " fact p.")
    without_p = t.remove_facts(lits("p"))
    variants = [t, t.remove_facts(lits("a")), t.with_facts(lits("-y", "q"))]
    for v in variants + [without_p, without_p.remove_facts(lits("a"))]:
        extensions(v)
        for q in lits("y", "-y", "p", "-p"):
            assert brave_member(v, q) == any(q in e for e in reiter_extensions(v))
        entails(v, lits("-y"), EXHAUSTIVE)
    assert builds == [t.defaults]
    extensions(parse_theory(TWO_EXT))  # a new theory has a new rule base
    assert len(builds) == 2


def test_brave_member_answers_a_literal_off_the_rules_without_a_search():
    # f is a fact on a letter no rule mentions: no extension holds -f.  The
    # budget admits only the search's first node.
    t = parse_theory(TWO_EXT + " fact f.")
    assert not brave_member(t, lit("-f"), budget=1)
    assert not brave_member(t, lit("absent"), budget=1)
    # Skeptical entailment of -f still needs to find an extension.
    with pytest.raises(BudgetExceededError):
        entails(t, lits("-f"), EXHAUSTIVE, budget=1)


def test_exhaustive_entails_answers_a_goal_made_only_of_facts_without_a_search():
    # Every extension holds the facts; the budget admits only the first node.
    t = random_theory("NU", 8, 12, 2, seed=3)
    assert lits("-v7", "v2") <= t.facts
    for budget in (1, 3):
        assert entails(t, lits("-v7"), EXHAUSTIVE, budget=budget)
    assert entails(t, [], EXHAUSTIVE, budget=1)
    assert entails(t, lits("-v7", "v2"), EXHAUSTIVE, budget=1)
    with pytest.raises(BudgetExceededError):
        entails(t, lits("-v7", "v1"), EXHAUSTIVE, budget=1)


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
    assert not is_extension(reduced, lits("-MultipleIPs"))  # misses the fact


def test_is_extension_requires_consistent_facts():
    with pytest.raises(ScopeError, match="consistent facts"):
        is_extension(parse_theory("fact a & -a. default a : b / b."), lits("a", "-a", "b"))


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


def test_is_extension_on_a_reversed_chain():
    chain = [normal_rule("", "x0")] + [normal_rule(f"x{i}", f"x{i + 1}") for i in range(599)]
    t = DefaultTheory(chain[::-1], [])
    extension = lits(*(f"x{i}" for i in range(600)))
    assert is_extension(t, extension)
    assert not is_extension(t, extension - lits("x599"))
    assert not is_extension(t, extension | lits("y"))


@settings(max_examples=200, deadline=None)
@given(nu_theories())
def test_is_extension_matches_reiter_extensions(theories):
    # Every candidate of the facts plus up to 3 literals, one letter absent from the theory.
    for t in theories:
        valid = reiter_extensions(t)
        universe = [Literal(x, p) for x in sorted(t.letters()) + ["z"] for p in (True, False)]
        for size in range(4):
            for combo in itertools.combinations(universe, size):
                cand = t.facts | frozenset(combo)
                assert is_extension(t, cand) == (cand in valid), cand


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


def _answer(theory, goal, backend):
    try:
        return entails(theory, goal, backend)
    except ScopeError as e:
        return type(e)


def test_entails_reads_a_one_shot_goal_once():
    for fragment in ("NU", "NMU"):
        t = random_theory(fragment, 6, 8, 2, seed=3)
        singles = [[Literal(x, p)] for x in sorted(t.letters()) for p in (True, False)]
        goals = [[], *singles, *(a + b for a, b in itertools.combinations(singles, 2))]
        for backend in (FAST, EXHAUSTIVE, semantics.AUTO):
            answers = [_answer(t, iter(goal), backend) for goal in goals]
            assert answers == [_answer(t, goal, backend) for goal in goals]
            if fragment == "NU":
                assert True in answers and False in answers
            else:
                assert set(answers) == ({ScopeError} if backend == FAST else {True, False})


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


@settings(max_examples=200, deadline=None)
@given(nu_theories())
def test_fast_equals_exhaustive_on_structured_theories(theories):
    for t in theories:
        exts = extensions(t)
        for x in sorted(t.letters()) + ["z"]:
            for q in (Literal(x, True), Literal(x, False)):
                assert entails(t, [q], FAST) == all(e.contains(q) for e in exts), q


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
        sizes.append(seen.bit_count())  # the letters reached
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


def test_positive_query_on_a_chain_reaches_at_most_twice(monkeypatch):
    # Forced starvation runs down the whole chain within one round, so the
    # query costs O(c) in its cone size c, not one reach per letter.
    chain = [normal_rule("", "x0")] + [normal_rule(f"x{i}", f"x{i + 1}") for i in range(299)]
    answers, sizes = _reach_sizes(monkeypatch, DefaultTheory(chain, lits("x0")), [Literal("x299")])
    assert answers == [True]
    assert 1 <= len(sizes) <= 2


def test_cones_of_a_chain_retain_linear_memory():
    # Querying every letter of a 600-letter chain walks all 600 cones, of
    # up to 600 letters each.  Kept as masks they retain well under 1 MB;
    # kept as letter sets they retained about 9 MB.  Negative goals fill the
    # same cones and, since no rule attacks a letter, return before the NU
    # fixpoint, whose many short-lived ints would make tracing slow.
    chain = [normal_rule("", "x0")] + [normal_rule(f"x{i}", f"x{i + 1}") for i in range(599)]
    theory = DefaultTheory(chain, lits("x0"))  # a fresh rule base, so nothing is compiled yet
    tracemalloc.start()
    try:
        answers = [entails(theory, [Literal(f"x{i}", False)], FAST) for i in range(600)]
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert not any(answers)
    assert retained < 1_000_000


def test_inconsistent_facts_off_every_cone_entail_everything():
    t = parse_theory("fact a & z & -z. default a : b / b. default : -c / -c.")
    for backend in (FAST, EXHAUSTIVE):
        assert entails(t, lits("-b"), backend)
        assert entails(t, lits("c"), backend)
        assert entails(t.remove_facts(lits("a")), lits("-b"), backend)
    assert not entails(t.remove_facts(lits("z")), lits("-b"), FAST)


def test_entailers_hold_no_per_query_state():
    nu = random_theory("NU", 60, 80, 1, 808)
    for t in (nu, dualize(nu)):
        letters = sorted(t.letters()) + [f"absent{i}" for i in range(20)]
        entails(t, [Literal(letters[0])], FAST)
        ent = t._rules[semantics._NuEntailer]
        before = copy.deepcopy(vars(ent))
        for x in letters:
            for q in (Literal(x, True), Literal(x, False)):
                entails(t, [q], FAST)
        assert vars(ent) == before


def test_negative_goal_starves_only_the_rules_concluding_its_negation(monkeypatch):
    # x can never be positive here; -x fails only if the rules concluding -x
    # can all be starved, so only their trigger t is kept non-positive.
    # p, the trigger of the rule concluding x, can never be positive either.
    calls = []
    real = semantics._NuEntailer._can_all_be_nonpositive

    def recording(self, cone, wpos, wneg, targets):
        calls.append(targets)
        return real(self, cone, wpos, wneg, targets)

    monkeypatch.setattr(semantics._NuEntailer, "_can_all_be_nonpositive", recording)
    base = "default t : -x / -x. default p : x / x."
    for text, answer in (
        (base, False),
        (base + " fact t.", True),
        (base + " default : -t / -t. default q : p / p.", False),
    ):
        t = parse_theory(text)
        calls.clear()
        assert entails(t, lits("-x"), FAST) == entails(t, lits("-x"), EXHAUSTIVE) == answer, text
        assert calls == [letter_mask(t, ["t"])], text


def test_dnu_rule_base_is_read_without_dual_rules(monkeypatch):
    dual = dualize(random_theory("NU", 60, 80, 1, 808))
    calls = []
    real = DefaultRule.__init__
    monkeypatch.setattr(DefaultRule, "__init__", lambda d, *parts: calls.append(parts) or real(d, *parts))
    for x in sorted(dual.letters()):
        for q in (Literal(x, True), Literal(x, False)):
            entails(dual, [q], FAST)
    assert calls == []
