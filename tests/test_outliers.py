import dataclasses
import itertools
import logging
import sys
from concurrent.futures import ThreadPoolExecutor

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from defoutlier import (
    EXHAUSTIVE,
    FAST,
    InvalidQueryError,
    Literal,
    ScopeError,
    classify,
    decompose,
    depgraph,
    dualize,
    entails,
    enumerate_general,
    enumerate_strong,
    format_report_lines,
    format_report_record,
    is_strong_witness,
    is_witness,
    lett,
    lit,
    lits,
    minimal_strong_witnesses,
    negate_all,
    outliers,
    parse_theory,
    random_theory,
    recognize_strong,
    semantics,
    theory_to_text,
    tightness,
)
from defoutlier.core import letter_mask
from conftest import ExhaustiveOracle, brute_force_outliers, nonempty_subsets, nu_theories

S4 = lits("-MfC", "NewLocation", "QuietTime", "MultipleIPs")


# ---------------------------------------------------------------------------
# Witness checks (golden scenarios)
# ---------------------------------------------------------------------------


def test_credit_card_witness(credit_card):
    assert is_witness(credit_card, lits("CreditNumber"), lits("MultipleIPs"))
    assert is_strong_witness(credit_card, lits("CreditNumber"), lits("MultipleIPs"))
    assert not is_witness(credit_card, lits("MultipleIPs"), lits("CreditNumber"))


def test_cellphone_general_vs_strong(cellphone):
    for l in (lits("CreditNumber"), lits("CellUse")):
        assert is_witness(cellphone, l, S4)
        assert not is_strong_witness(cellphone, l, S4)
    assert is_strong_witness(cellphone, lits("CreditNumber"), lits("MultipleIPs"))
    assert is_strong_witness(cellphone, lits("CellUse"), lits("-MfC", "NewLocation", "QuietTime"))


def test_cellphone_all_nonempty_subsets_strong_for_celluse(cellphone):
    import itertools

    pool = sorted(lits("-MfC", "NewLocation", "QuietTime"), key=str)
    for size in (1, 2, 3):
        for s in itertools.combinations(pool, size):
            assert is_strong_witness(cellphone, lits("CellUse"), frozenset(s))


def test_invalid_queries(credit_card):
    with pytest.raises(InvalidQueryError):
        is_witness(credit_card, lits("CreditNumber"), frozenset())
    with pytest.raises(InvalidQueryError):
        is_witness(credit_card, frozenset(), lits("MultipleIPs"))
    with pytest.raises(InvalidQueryError):
        is_witness(credit_card, lits("CreditNumber"), lits("CreditNumber"))
    with pytest.raises(InvalidQueryError):
        is_witness(credit_card, lits("CreditNumber"), lits("NotAFact"))
    bad = credit_card.with_facts(lits("a", "-a", "CreditNumber", "MultipleIPs"))
    with pytest.raises(InvalidQueryError):
        is_witness(bad, lits("CreditNumber"), lits("MultipleIPs"))


NU_SMALL = parse_theory("fact a. fact b. default a : c / c. default c : -b / -b.")
DF_SMALL = parse_theory("fact a. fact b. default a & b : c / c.")


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: recognize_strong(NU_SMALL.with_facts(lits("a", "-a", "b")), lits("b")),
         "facts must be consistent"),
        (lambda: recognize_strong(DF_SMALL.with_facts(lits("a", "-a", "b")), lits("b")),
         "facts must be consistent"),
        (lambda: recognize_strong(NU_SMALL, []),
         "outlier candidate must be a nonempty subset of the facts"),
        (lambda: recognize_strong(NU_SMALL, lits("c")),
         "outlier candidate must be a nonempty subset of the facts"),
        (lambda: enumerate_strong(NU_SMALL, 0), "outlier size bound k must be >= 1"),
        (lambda: enumerate_strong(NU_SMALL.with_facts(lits("a", "-a", "b")), 1),
         "facts must be consistent"),
        (lambda: enumerate_strong(DF_SMALL.with_facts(lits("a", "-a", "b")), 1),
         "facts must be consistent"),
        (lambda: enumerate_general(NU_SMALL, 1, 0), "witness size bound h must be >= 1"),
        (lambda: enumerate_general(NU_SMALL, 0, 0), "witness size bound h must be >= 1"),
    ],
    ids=[
        "recognize-inconsistent-nu",
        "recognize-inconsistent-df",
        "recognize-empty",
        "recognize-not-a-fact",
        "enumerate-strong-k0",
        "enumerate-strong-inconsistent-nu",
        "enumerate-strong-inconsistent-df",
        "enumerate-general-h0",
        "enumerate-general-k0-h0",
    ],
)
def test_invalid_search_queries(call, message):
    with pytest.raises(InvalidQueryError) as info:
        call()
    assert str(info.value) == message


# ---------------------------------------------------------------------------
# Recognition
# ---------------------------------------------------------------------------


def test_recognize_cellphone(cellphone):
    assert recognize_strong(cellphone, lits("CreditNumber")).witnesses == (lits("MultipleIPs"),)
    assert not recognize_strong(cellphone, lits("MultipleIPs"), all_witnesses=True).found
    rep = recognize_strong(cellphone, lits("CellUse"), all_witnesses=True)
    assert lits("-MfC") in rep.witnesses


def test_recognize_requires_nmu():
    t = parse_theory("default a & b : c / c. fact a.")
    with pytest.raises(ScopeError):
        recognize_strong(t, lits("a"))


def test_recognize_fast_rejected_on_nmu_proper():
    t = parse_theory("fact a. default -a : b / b. default a : c / c.")
    with pytest.raises(ScopeError):
        recognize_strong(t, lits("a"), backend=FAST)
    recognize_strong(t, lits("a"), backend=EXHAUSTIVE)  # allowed, warns


def test_recognize_all_witnesses_are_the_strong_single_scc_candidates(cellphone):
    # In candidate order: components in order, then subsets by size.
    theories = [cellphone, dualize(cellphone)]
    theories += [random_theory(f, 8, 12, 2, seed=seed) for f in ("NU", "DNU") for seed in range(40)]
    found = 0
    for t in theories:
        facts = _sorted_facts(t)
        components = decompose(t).components
        for f in facts:
            rest = [x for x in facts if x != f]
            want = tuple(
                frozenset(s)
                for comp in components
                for s in nonempty_subsets([x for x in rest if x.letter in comp])
                if is_strong_witness(t, [f], s)
            )
            assert recognize_strong(t, [f], all_witnesses=True).witnesses == want
            found += len(want)
    assert found >= 20


def test_recognize_all_witnesses_match_the_definition():
    # Independent of the off-cone rule: the expected witnesses are the
    # single-SCC candidates, in candidate order, that pass the exhaustive
    # definition-level check.
    found = {}
    for fragment, backend in (("NU", FAST), ("DNU", FAST), ("NMU", EXHAUSTIVE)):
        found[fragment] = 0
        for seed in range(60):
            t = random_theory(fragment, 6 + seed % 3, 16, 2, seed=seed)
            oracle = ExhaustiveOracle(t)
            facts = _sorted_facts(t)
            for f in facts:
                rest = [x for x in facts if x != f]
                want = tuple(
                    frozenset(s)
                    for comp in decompose(t).components
                    for s in nonempty_subsets([x for x in rest if x.letter in comp])
                    if oracle.is_witness(frozenset([f]), frozenset(s), strong=True)
                )
                assert recognize_strong(t, [f], backend, all_witnesses=True).witnesses == want
                found[fragment] += len(want)
    assert min(found.values()) >= 10, found


def test_recognize_stats_counted(cellphone):
    rep = recognize_strong(cellphone, lits("CellUse"), all_witnesses=True)
    assert rep.search_stats.candidates_examined > 0
    assert rep.search_stats.entailment_calls > 0


# ---------------------------------------------------------------------------
# Enumeration
# ---------------------------------------------------------------------------


def test_enumerate_strong_cellphone(cellphone):
    reports = enumerate_strong(cellphone, 1)
    assert {r.outlier for r in reports} == {lits("CreditNumber"), lits("CellUse")}


def test_enumerate_strong_credit_card(credit_card):
    reports = enumerate_strong(credit_card, 1)
    assert {r.outlier for r in reports} == {lits("CreditNumber")}


def test_enumerate_strong_schematic(schematic_pair):
    reports = {r.outlier: r for r in enumerate_strong(schematic_pair, 1)}
    assert set(reports) == {lits("a1"), lits("a2")}
    assert lits("-b1") in reports[lits("a1")].witnesses
    assert lits("-b1", "-b2") not in reports[lits("a1")].witnesses


def test_enumerate_general_schematic(schematic_pair):
    reports = {r.outlier: r for r in enumerate_general(schematic_pair, 1, 2)}
    assert lits("-b1", "-b2") in reports[lits("a1")].witnesses


def test_enumerate_general_cellphone_full_witness(cellphone):
    reports = {r.outlier: r for r in enumerate_general(cellphone, 1, 4)}
    assert S4 in reports[lits("CellUse")].witnesses


def test_enumerate_general_h1_equals_strong_singletons():
    for seed in (0, 5, 9):
        t = random_theory("NU", 6, 8, 2, seed=seed)
        general = {r.outlier for r in enumerate_general(t, 1, 1)}
        strong = {
            r.outlier
            for r in enumerate_strong(t, 1)
            if any(len(w) == 1 for w in r.witnesses)
        }
        assert general == strong


def test_enumerate_matches_brute_force_small():
    # enumerate_strong reports exactly the strong witnesses inside one SCC.
    for seed in range(12):
        t = random_theory("NU", 5, 7, 2, seed=seed)
        components = decompose(t).components
        got = {r.outlier: set(r.witnesses) for r in enumerate_strong(t, 2)}
        want = {
            l: {s for s in ws if any(lett(s) <= c for c in components)}
            for l, ws in brute_force_outliers(t, 2, strong=True).items()
        }
        assert got == want


@st.composite
def observed_nu_theories(draw):
    """A ``nu_theories`` theory that also observes, for up to three rules whose
    prerequisite is on another letter, that prerequisite and the negated
    conclusion on letters with no fact yet, so that defaults are contradicted
    and outliers occur; and a variant with up to two facts withdrawn."""
    theory, _ = draw(nu_theories())
    triggered = [d for d in theory.defaults if lett(d.prerequisite) - lett(d.consequent)]
    facts = {l.letter: l for l in theory.facts}
    for d in draw(st.lists(st.sampled_from(triggered), min_size=1, max_size=3)) if triggered else []:
        for l in d.prerequisite | negate_all(d.consequent):
            facts.setdefault(l.letter, l)
    t = theory.with_facts(facts.values())
    withdrawn = draw(st.lists(st.sampled_from(sorted(t.facts)), max_size=2)) if t.facts else []
    return t, t.remove_facts(withdrawn)


@settings(max_examples=300, deadline=None)
@given(observed_nu_theories())
def test_enumerate_matches_brute_force_on_structured_theories(theories):
    # The theory and its fact-withdrawn variant: cycles, facts on letters no
    # rule mentions and contradicted defaults included.
    for t in theories:
        components = decompose(t).components
        brute = brute_force_outliers(t, 2, strong=True)
        for k in (1, 2):
            got = {r.outlier: set(r.witnesses) for r in enumerate_strong(t, k)}
            want = {
                l: {s for s in ws if any(lett(s) <= c for c in components)}
                for l, ws in brute.items()
                if len(l) <= k
            }
            assert got == want, k
        got = {r.outlier: set(r.witnesses) for r in enumerate_general(t, 1, 2)}
        want = brute_force_outliers(t, 1, strong=False, h=2)
        assert got == {l: set(ws) for l, ws in want.items()}


def test_enumerate_general_matches_brute_force_small():
    for fragment, seed in itertools.product(("NU", "DNU", "NMU"), range(8)):
        t = random_theory(fragment, 5, 7, 2, seed=seed)
        got = {r.outlier: set(r.witnesses) for r in enumerate_general(t, 2, 2)}
        want = brute_force_outliers(t, 2, strong=False, h=2)
        assert got == {l: set(ws) for l, ws in want.items()}


def test_enumerate_padding_invariance(cellphone):
    # Facts on letters no rule mentions lie outside every witness's influence
    # cone and are never witnesses themselves: strong enumeration examines no
    # candidate for them, and they pad every outlier without changing its
    # witnesses.
    k, m = 2, 30
    isolated = lits(*(f"iso{i}" for i in range(m)))
    padded = cellphone.with_facts(cellphone.facts | isolated)
    base = enumerate_strong(cellphone, k)
    got = enumerate_strong(padded, k)
    base_stats, got_stats = base[0].search_stats, got[0].search_stats
    assert got_stats.entailment_calls == base_stats.entailment_calls
    assert got_stats.candidates_examined == base_stats.candidates_examined
    pads = [frozenset(p) for j in range(k) for p in itertools.combinations(isolated, j)]
    want = {r.outlier | p: r.witnesses for r in base for p in pads if len(r.outlier | p) <= k}
    assert {r.outlier: r.witnesses for r in got} == want


def test_enumerate_general_padding_invariance(cellphone):
    # As for strong enumeration: facts on letters no rule mentions are never
    # general witnesses (with one withdrawn, no extension holds its negation),
    # so general enumeration draws no candidate from them, and they pad every
    # outlier without changing its witnesses.
    k, h, m = 2, 2, 30
    isolated = lits(*(f"iso{i}" for i in range(m)))
    padded = cellphone.with_facts(cellphone.facts | isolated)
    base = enumerate_general(cellphone, k, h)
    got = enumerate_general(padded, k, h)
    base_stats, got_stats = base[0].search_stats, got[0].search_stats
    assert got_stats.entailment_calls == base_stats.entailment_calls
    assert got_stats.candidates_examined == base_stats.candidates_examined
    pads = [frozenset(p) for j in range(k) for p in itertools.combinations(isolated, j)]
    want = {r.outlier | p: r.witnesses for r in base for p in pads if len(r.outlier | p) <= k}
    assert {r.outlier: r.witnesses for r in got} == want


def test_enumerate_cost_bound(cellphone):
    k = 2
    reports = enumerate_strong(cellphone, k)
    stats = reports[0].search_stats
    decomp = decompose(cellphone)
    n_facts = len(cellphone.facts)
    import math

    l_candidates = sum(math.comb(n_facts, j) for j in range(1, k + 1))
    bound = sum(2 ** len(c) for c in decomp.components) * (1 + l_candidates)
    assert stats.candidates_examined <= bound


# ---------------------------------------------------------------------------
# Structural properties
# ---------------------------------------------------------------------------


@st.composite
def cone_pairs(draw, max_witness):
    """An ``observed_nu_theories`` theory, a witness candidate S of at most
    ``max_witness`` facts and an outlier candidate L of one or two other facts
    on the influence cone of S, where L can break S's entailment."""
    t = draw(st.sampled_from(draw(observed_nu_theories())))

    def near(s):
        cone = 0
        for x in lett(s):
            cone |= depgraph.cone_lookup(t)(x)
        return [x for x in t.facts_on(cone) if x not in s]

    facts = sorted(t.facts, key=str)
    first = [x for x in facts if near({x})]
    assume(first)
    extra = draw(st.lists(st.sampled_from(facts), max_size=max_witness - 1))
    s = frozenset([draw(st.sampled_from(first)), *extra])
    assume(near(s))
    l = frozenset(draw(st.lists(st.sampled_from(near(s)), min_size=1, max_size=2, unique=True)))
    return t, l, s


@settings(max_examples=60, deadline=None)
@given(cone_pairs(max_witness=2))
def test_strong_implies_general(pair):
    t, l, s = pair
    if is_strong_witness(t, l, s):
        assert is_witness(t, l, s)


@settings(max_examples=60, deadline=None)
@given(cone_pairs(max_witness=1))
def test_singleton_witness_coincidence(pair):
    t, l, s = pair
    assert is_witness(t, l, s) == is_strong_witness(t, l, s)


def test_dualization_equivariance():
    for seed in range(10):
        t = random_theory("NU", 5, 7, 2, seed=seed)
        d = dualize(t)
        got = {r.outlier for r in enumerate_strong(t, 2)}
        got_dual = {frozenset(negate_all(o)) for o in
                    (r.outlier for r in enumerate_strong(d, 2))}
        assert got == got_dual


def test_minimal_strong_witnesses_golden(cellphone):
    assert minimal_strong_witnesses(cellphone, lits("CellUse")) == frozenset(
        {lits("-MfC"), lits("QuietTime"), lits("NewLocation")}
    )
    assert minimal_strong_witnesses(cellphone, lits("CreditNumber")) == frozenset(
        {lits("MultipleIPs")}
    )
    assert minimal_strong_witnesses(cellphone, lits("QuietTime")) == frozenset()


def test_minimal_strong_witnesses_match_brute_force():
    for seed in range(10):
        t = random_theory("NMU", 5, 7, 2, seed=seed)
        oracle = ExhaustiveOracle(t)
        facts = sorted(t.facts, key=str)
        if not facts:
            continue
        l = frozenset(facts[:1])
        from conftest import nonempty_subsets

        all_wit = [
            frozenset(s)
            for s in nonempty_subsets([x for x in facts if x not in l])
            if oracle.is_witness(l, frozenset(s), strong=True)
        ]
        want = frozenset(
            w for w in all_wit if not any(o < w for o in all_wit)
        )
        assert minimal_strong_witnesses(t, l, backend=EXHAUSTIVE) == want


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def test_report_serialization(cellphone):
    rep = recognize_strong(cellphone, lits("CreditNumber"))
    lines = format_report_lines(rep)
    assert lines == ["outlier {CreditNumber} witness {MultipleIPs} strong=true"]
    not_found = recognize_strong(parse_theory("fact a."), lits("a"))
    assert format_report_lines(not_found) == []
    record = format_report_record(rep)
    assert record == (
        '{"outlier": ["CreditNumber"], "witnesses": [["MultipleIPs"]], "strong": true}'
    )


# ---------------------------------------------------------------------------
# Shared rule base across fact variants and threads
# ---------------------------------------------------------------------------


def _sorted_facts(theory):
    return sorted(theory.facts, key=lambda l: (l.letter, not l.positive))


def test_dnu_recognition_builds_one_entailer(monkeypatch):
    built = []

    class CountingEntailer(semantics._NuEntailer):
        def __init__(self, *args, **kwargs):
            built.append(None)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(semantics, "_NuEntailer", CountingEntailer)
    dual = dualize(random_theory("NU", 60, 80, 1, 808))
    for fact in _sorted_facts(dual)[:6]:
        recognize_strong(dual, [fact])
    assert len(built) == 1


def test_scc_order_is_computed_once_per_rule_base(monkeypatch):
    runs = []
    tarjan = depgraph._tarjan

    def counting_tarjan(*args):
        runs.append(None)
        return tarjan(*args)

    monkeypatch.setattr(depgraph, "_tarjan", counting_tarjan)
    theory = random_theory("NU", 60, 80, 1, 808)
    facts = _sorted_facts(theory)
    for fact in facts[:6]:
        recognize_strong(theory, [fact])
    tightness(theory)
    enumerate_strong(theory.remove_facts(facts[:1]), 1)
    assert len(runs) == 1


def _answers(theory):
    """Entailment and strong-witness answers over fact variants."""
    facts = _sorted_facts(theory)[:8]
    out = []
    for s, l in zip(facts, facts[1:]):
        variant = theory.remove_facts([s])
        out.append(decompose(variant).components)
        out.append(entails(variant, [s.negate()]))
        out.append(entails(variant.remove_facts([l]), [s.negate()]))
        out.append(is_strong_witness(theory, [l], [s]))
    variant = theory.remove_facts(facts[:1])
    out.append([entails(variant, [Literal(x, p)], FAST) for x in sorted(theory.letters()) for p in (True, False)])
    return out


def _cones(theory):
    """The rule base's cone cache: rule letter -> the mask of its ancestor cone."""
    return theory._rules[depgraph._compile].cones


def test_concurrent_queries_match_sequential():
    text = theory_to_text(random_theory("NU", 60, 80, 1, 808))

    def fresh():
        nu = parse_theory(text)
        return [nu, dualize(nu)]

    compiled_alone = fresh()
    sequential = [_answers(t) for t in compiled_alone]
    theories = fresh()
    assert not any(t._rules for t in theories)  # nothing compiled yet
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=2) as pool:
            futures = [pool.submit(_answers, t) for t in theories + theories[::-1]]
            results = [f.result(timeout=60) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    assert results == sequential + sequential[::-1]
    masks = [(t._masks, t._at) for t in theories]
    assert masks == [(t._masks, t._at) for t in compiled_alone]
    cones = [_cones(t) for t in theories]
    assert cones == [_cones(t) for t in compiled_alone]
    assert all(cones)


def test_each_cone_is_walked_once_across_layers(monkeypatch):
    theory = random_theory("NU", 60, 80, 1, 808)
    facts = _sorted_facts(theory)
    starts = []
    walk = depgraph.walk

    def counting_walk(adjacency, sources, allowed):
        if adjacency is theory._rules[depgraph._compile].pred:  # cone walks only
            starts.append(sources)
        return walk(adjacency, sources, allowed)

    def one_pass():
        enumerate_strong(theory, 1)
        for s, l in zip(facts, facts[1:]):
            is_strong_witness(theory, [l], [s])
        for x in sorted(theory.letters()):
            entails(theory, [Literal(x, True)])
            entails(theory, [Literal(x, False)])

    monkeypatch.setattr(depgraph, "walk", counting_walk)
    one_pass()
    assert starts and len(starts) == len(set(starts))
    assert all(start.bit_count() == 1 for start in starts)  # one walk per letter's cone
    del starts[:]
    one_pass()
    assert starts == []


# ---------------------------------------------------------------------------
# Witness checks decided off the cone
# ---------------------------------------------------------------------------


def _counting_entails(monkeypatch):
    """Record the goal of every entailment a witness check makes, through
    ``outliers._entails_without``, in the order it is read."""
    calls = []
    real = semantics._entails_without

    def counting(theory, removed, goal, *args, **kwargs):
        goal = list(goal)
        calls.append(goal)
        return real(theory, removed, goal, *args, **kwargs)

    monkeypatch.setattr(outliers, "_entails_without", counting)
    return calls


def test_off_cone_outlier_is_no_witness_without_entailment(cellphone, monkeypatch):
    calls = _counting_entails(monkeypatch)
    s = lits("MultipleIPs")  # its cone is {CreditNumber, MultipleIPs}
    for backend in (FAST, EXHAUSTIVE):
        assert not is_witness(cellphone, lits("CellUse"), s, backend)
        assert not is_strong_witness(cellphone, lits("QuietTime"), s, backend)
    assert calls == []
    assert is_witness(cellphone, lits("CreditNumber"), s)
    assert calls


def test_recognize_reads_only_downstream_of_the_outlier(monkeypatch):
    # A fact whose letter is no rule's prerequisite reaches no other letter,
    # so no witness candidate has it on its cone.
    calls = _counting_entails(monkeypatch)
    for seed in range(3):
        t = random_theory("NU", 400, 533, 1, seed=seed)
        prerequisites = {p.letter for d in t.defaults for p in d.prerequisite}
        leaf = next(f for f in _sorted_facts(t) if f.letter not in prerequisites)
        rep = recognize_strong(t, [leaf])
        assert not rep.found
        assert rep.search_stats.candidates_examined == 0
        assert rep.search_stats.entailment_calls == 0
    assert calls == []


def test_off_cone_rule_matches_the_oracle_on_unary_theories():
    # Witness candidates of 1-3 facts mix literals on and off L's cone.
    found = {(strong, mixed): 0 for strong in (False, True) for mixed in (False, True)}
    for fragment in ("NU", "DNU", "NMU"):
        backends = (FAST, EXHAUSTIVE) if fragment != "NMU" else (EXHAUSTIVE,)
        for seed in range(20):
            t = random_theory(fragment, 6, 8, 2, seed=seed)
            oracle = ExhaustiveOracle(t)
            facts, cone = sorted(t.facts, key=str)[:5], depgraph.cone_lookup(t)
            for l in map(frozenset, nonempty_subsets(facts, 2)):
                for s in map(frozenset, nonempty_subsets([x for x in facts if x not in l], 3)):
                    mixed = len({not cone(x.letter) & letter_mask(t, lett(l)) for x in s}) == 2
                    for strong, check in ((False, is_witness), (True, is_strong_witness)):
                        want = oracle.is_witness(l, s, strong)
                        for backend in backends:
                            assert check(t, l, s, backend) == want, (fragment, seed, l, s, strong, backend)
                        found[strong, mixed] += want
    assert found[False, True] and found[True, False]  # so a wrong split would show
    assert not found[True, True]


def test_witness_checks_ask_only_what_the_split_leaves_open(monkeypatch):
    # The cone of a is {l, a} and the cone of b is {b}: b lies off L's cone.
    t = parse_theory("fact l. fact a. fact b. default l : -a / -a. default : -b / -b.")
    l, s = lits("l"), lits("a", "b")
    calls = _counting_entails(monkeypatch)
    for backend in (FAST, EXHAUSTIVE):
        assert not is_strong_witness(t, l, s, backend)
        assert calls == []
        assert is_witness(t, l, s, backend)
        # cond1 asks the on-cone negation first; cond2 asks only it.
        assert calls == [[lit("-a"), lit("-b")], [lit("-a")]]
        del calls[:]


def test_general_enumeration_asks_cond2_only_on_the_core_cone(monkeypatch):
    t = parse_theory("fact l. fact a. fact b. default l : -a / -a. default : -b / -b.")
    calls = _counting_entails(monkeypatch)
    for backend in (FAST, EXHAUSTIVE):
        (report,) = enumerate_general(t, 1, 2, backend)
        assert report.outlier == lits("l")
        assert set(report.witnesses) == {lits("a"), lits("a", "b")}
        assert calls[-1] == [lit("-a")]  # b lies off the cone of the core {l}


def test_enumeration_splits_s_by_the_core_cone(monkeypatch):
    # A strong S lies in one SCC, whose letters share one cone, so every
    # literal of S has the core on its cone; a general S may have literals
    # off it, and cond2 asks only the others.
    seen, real = [], outliers._Checker.cond2

    def recording(self, l, s, on):
        seen.append((self.strong, l, s, list(on)))
        return real(self, l, s, on)

    monkeypatch.setattr(outliers._Checker, "cond2", recording)
    off = {True: 0, False: 0}
    for fragment in ("NU", "DNU"):
        for seed in range(5):
            t = random_theory(fragment, 40, 53, 3, seed)
            cone = depgraph.cone_lookup(t)
            seen.clear()
            enumerate_strong(t, 2, FAST)
            enumerate_general(t, 2, 2, FAST)
            for strong, l, s, on in seen:
                meets = [x for x in s if cone(x.letter) & letter_mask(t, lett(l))]
                assert sorted(on, key=str) == sorted(meets, key=str)
                off[strong] += len(meets) < len(s)
    assert off == {True: 0, False: off[False]} and off[False]


def test_off_cone_rule_needs_unary_normal_rules():
    # Not normal: the justification -d is no graph edge, so {a} is off the
    # cone of {c} and still makes {c} a witness.
    t = parse_theory("fact a. fact c. fact d. default : -d / d. default a : d / -a.")
    assert not depgraph.cone_lookup(t)("c") & letter_mask(t, ["a"])
    assert is_witness(t, lits("a"), lits("c"))
    # Normal, but one rule concludes two letters: withdrawing {b} unblocks
    # the rival of the rule that concludes -s.
    t = parse_theory("fact b. fact s. default : s & -b / s & -b. default : -s / -s.")
    assert classify(t).normal and not classify(t).is_nmu
    assert not depgraph.cone_lookup(t)("s") & letter_mask(t, ["b"])
    assert is_witness(t, lits("b"), lits("s"))
    assert is_strong_witness(t, lits("b"), lits("s"))


def test_reports_carry_frozen_counts():
    reports = enumerate_strong(random_theory("NU", 150, 200, 1, 808), 1, FAST)
    assert len(reports) > 1
    assert len({r.search_stats for r in reports}) == 1
    with pytest.raises(dataclasses.FrozenInstanceError):
        reports[0].search_stats.entailment_calls = 0


def test_mixed_unary_search_warns_of_exhaustive_cost(caplog):
    nmu = parse_theory("fact a. fact b. fact c. default -a : b / b. default a : c / c.")
    with caplog.at_level(logging.DEBUG, logger="defoutlier"):
        recognize_strong(nmu, lits("c"))
    (record,) = caplog.records
    assert record.levelno == logging.WARNING
    assert record.getMessage() == (
        "recognize_strong on a mixed unary theory uses exhaustive entailment; expect exponential cost"
    )
    caplog.clear()
    with caplog.at_level(logging.DEBUG, logger="defoutlier"):
        enumerate_strong(NU_SMALL, 1, FAST)
    assert caplog.records == []


def test_witness_check_outside_the_backend_scope_still_raises():
    nmu = parse_theory("fact a. fact b. fact c. default -a : b / b. default a : c / c.")
    with pytest.raises(ScopeError):
        is_witness(nmu, lits("c"), lits("b"), FAST)
    with pytest.raises(ValueError):
        is_witness(nmu, lits("c"), lits("b"), "bogus")


def test_unknown_backend_is_rejected_without_entailment():
    with pytest.raises(ValueError, match="unknown backend"):
        recognize_strong(parse_theory("fact a. default a : b / b."), lits("a"), "bogus")
    with pytest.raises(ValueError, match="unknown backend"):
        enumerate_strong(parse_theory(""), 1, "bogus")
    with pytest.raises(ValueError, match="unknown backend"):
        entails(parse_theory("fact a."), lits("a"), "bogus")


def test_checker_rejects_inconsistent_facts_off_every_cone():
    bad = NU_SMALL.with_facts(NU_SMALL.facts | lits("z", "-z"))
    with pytest.raises(InvalidQueryError, match="facts must be consistent"):
        is_witness(bad, lits("a"), lits("b"))
    with pytest.raises(InvalidQueryError, match="facts must be consistent"):
        recognize_strong(bad, lits("b"))
    assert entails(bad, lits("-a"), FAST)
