import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from defoutlier import (
    Cnf3,
    DefaultRule,
    DefaultTheory,
    Literal,
    build_graph,
    build_thm8,
    build_thm9,
    build_thm10,
    decompose,
    dualize,
    influences,
    lit,
    lits,
    parse_theory,
    random_theory,
    tightness,
    to_dot,
)
from defoutlier.core import letter_mask, lett, normal_rule
from defoutlier.depgraph import downstream_components, walk


def _walk(adjacency, sources, allowed):
    """``walk`` over letters: the letters numbered in sorted order, each
    letter set turned into a mask and the walk's mask back into letters."""
    names = sorted({*adjacency, *(y for ys in adjacency.values() for y in ys), *sources, *allowed})
    bit = {x: 1 << i for i, x in enumerate(names)}

    def mask(letters):
        return sum(bit[x] for x in set(letters))

    seen = walk([mask(adjacency.get(x, ())) for x in names], mask(sources), mask(allowed))
    return {x for x in names if seen & bit[x]}


def chain(*pairs):
    return DefaultTheory([normal_rule(a, b) for a, b in pairs], [])


@st.composite
def theories(draw):
    """Rules over a few letters, with multi-literal parts, an explicit cycle
    and some non-normal rules, plus facts that may sit on letters no rule
    mentions (u, v, w)."""
    letters = draw(st.lists(st.sampled_from("abcdefgh"), min_size=1, max_size=7, unique=True))
    literal = st.builds(Literal, st.sampled_from(letters), st.booleans())
    conj = st.frozensets(literal, min_size=1, max_size=2)
    rules = []
    for pre, just, concl in draw(
        st.lists(st.tuples(st.frozensets(literal, max_size=2), st.none() | conj, conj), max_size=10)
    ):
        rules.append(DefaultRule(pre, concl if just is None else just, concl))
    cycle = draw(st.lists(st.sampled_from(letters), max_size=4, unique=True))
    rules += [normal_rule(a, b) for a, b in zip(cycle, cycle[1:] + cycle[:1])]
    fact_letters = draw(st.lists(st.sampled_from(letters + ["u", "v", "w"]), max_size=5, unique=True))
    return DefaultTheory(rules, [Literal(x, draw(st.booleans())) for x in fact_letters])


def test_credit_card_graph(credit_card):
    g = build_graph(credit_card)
    assert g.edges == {("CreditNumber", "MultipleIPs")}
    assert g.vertices == {"CreditNumber", "MultipleIPs"}


def test_cellphone_graph(cellphone):
    g = build_graph(cellphone)
    assert g.edges == {
        ("CreditNumber", "MultipleIPs"),
        ("CellUse", "MfC"),
        ("CellUse", "QuietTime"),
        ("CellUse", "NewLocation"),
    }


def test_prerequisite_free_rules_add_no_edges():
    t = parse_theory("fact a. default : y / y.")
    g = build_graph(t)
    assert g.vertices == {"a", "y"}
    assert g.edges == frozenset()


def test_decompose_chain():
    d = decompose(chain(("a", "b"), ("b", "c")))
    assert d.components == (frozenset("a"), frozenset("b"), frozenset("c"))
    assert d.tightness == 1


def test_decompose_two_cycle():
    d = decompose(chain(("a", "b"), ("b", "a")))
    assert d.components == (frozenset({"a", "b"}),)
    assert d.tightness == 2


def test_decompose_thm9_component():
    gen = build_thm9(Cnf3(1, ((1, 1, 1),)))
    d = decompose(gen.theory)
    comp = next(c for c in d.components if "_f" in c)
    assert {"_f", "x1", "_c1"} <= comp
    assert d.tightness >= 3


def test_decompose_ordering_no_backward_path():
    t = random_theory("NU", 8, 12, 2, seed=7)
    g = build_graph(t)
    d = decompose(t)
    adj: dict[str, list[str]] = {}
    for a, b in g.edges:
        adj.setdefault(a, []).append(b)
    for i, ci in enumerate(d.components):
        for cj in d.components[i + 1 :]:
            assert not (_walk(adj, cj, g.vertices) & ci)


@pytest.mark.parametrize(
    "sources,allowed,blocked,expected",
    [
        ("a", "abcd", "", "abcd"),
        ("a", "abc", "", "abc"),  # d is not allowed
        ("a", "abcd", "b", "acd"),  # d is still entered through c
        ("a", "abcd", "bc", "a"),
        ("c", "abcd", "a", "cd"),  # the cycle back to a is blocked
        ("ad", "", "ad", "ad"),  # sources are returned even when not enterable
        ("e", "abcde", "", "e"),  # a source with no successors
        ("", "abcd", "", ""),
    ],
)
def test_reach_enters_only_allowed_unblocked_letters(sources, allowed, blocked, expected):
    adj = {"a": ["b", "c"], "b": ["d"], "c": ["d"], "d": ["a"]}
    assert _walk(adj, sources, set(allowed) - set(blocked)) == set(expected)


@settings(max_examples=300, deadline=None)
@given(theories())
def test_decompose_matches_definition(t):
    # Reachability over edges read off the rules, not the compiled graph.
    adj: dict[str, set[str]] = {}
    for d in t.defaults:
        for x in lett(d.prerequisite):
            adj.setdefault(x, set()).update(lett(d.consequent))
    reaches = {x: _walk(adj, [x], t.letters()) for x in t.letters()}
    d = decompose(t)
    comps = d.components
    assert all(comps) and sum(map(len, comps)) == len(t.letters())
    assert frozenset().union(*comps) == t.letters()
    assert d.tightness == max(map(len, comps), default=0)
    position = {x: i for i, c in enumerate(comps) for x in c}
    for x in t.letters():
        for y in t.letters():
            same = position[x] == position[y]
            assert same == (y in reaches[x] and x in reaches[y])
            if y in reaches[x]:
                assert position[x] <= position[y]  # no later component reaches an earlier one
    for i, c in enumerate(comps):
        ready = [
            later
            for later in comps[i:]
            if all(position[x] < i for x in t.letters() if reaches[x] & later and x not in later)
        ]
        assert min(c) == min(min(r) for r in ready)


def test_decompose_stable_under_rule_reorder():
    t = parse_theory("default a : b / b. default b : c / c. default : a / a.")
    t2 = DefaultTheory(tuple(reversed(t.defaults)), t.facts)
    assert decompose(t) == decompose(t2)


def test_influences_examples(cellphone):
    assert influences(cellphone, lits("CreditNumber"), lit("MultipleIPs"))
    assert not influences(cellphone, lits("MultipleIPs"), lit("CreditNumber"))
    # reflexive: a letter influences itself via the empty path
    assert influences(cellphone, lits("QuietTime"), lit("QuietTime"))
    # even for letters the theory never mentions
    assert influences(cellphone, lits("zz"), lit("zz"))
    assert not influences(cellphone, lits("zz"), lit("MfC"))


@settings(max_examples=40, deadline=None)
@given(theories(), st.data())
def test_influences_monotone_in_s(t, data):
    letters = sorted(t.letters() | {"u"})
    s_small = frozenset(data.draw(st.lists(st.sampled_from(letters).map(lit), min_size=1, max_size=2)))
    s_big = s_small | {lit(data.draw(st.sampled_from(letters)))}
    for x in letters:
        target = lit(x)
        if influences(t, s_small, target):
            assert influences(t, s_big, target)


@settings(max_examples=40, deadline=None)
@given(theories(), st.data())
def test_downstream_components_match_definition(t, data):
    sources = data.draw(st.frozensets(st.sampled_from(sorted(t.letters() | {"u"})), max_size=2))
    edges = build_graph(t).edges
    below = set(sources)
    while more := {y for x, y in edges if x in below} - below:
        below |= more
    rule_letters = frozenset().union(*(d.letters() for d in t.defaults))
    want = [c for c in decompose(t).components if c <= rule_letters and c & below]
    got = downstream_components(t, letter_mask(t, sources))
    names = sorted(rule_letters)  # the rule base's letter numbering
    assert [{x for i, x in enumerate(names) if m >> i & 1} for m in got] == want


def test_tightness_examples(cellphone):
    phi = Cnf3(2, ((1, -2, 2), (-1, -1, 2)))
    assert tightness(build_thm8(phi).theory) == 1
    assert tightness(build_thm10(phi).theory) == 1
    assert tightness(cellphone) == 1


def test_thm9_cyclic_for_any_clause():
    for phi in (Cnf3(1, ((1, 1, 1),)), Cnf3(2, ((1, -2, 2), (-1, 1, 2)))):
        assert tightness(build_thm9(phi).theory) > 1


def test_dualize_preserves_graph(cellphone):
    assert build_graph(dualize(cellphone)) == build_graph(cellphone)


def test_dot_export(cellphone):
    dot = to_dot(build_graph(cellphone), decompose(cellphone))
    assert dot.startswith("digraph")
    assert '"CreditNumber" -> "MultipleIPs";' in dot
    assert "cluster_0" in dot


def test_tightness_bounded_by_generator_layers():
    for seed in range(10):
        t = random_theory("NU", 9, 14, 3, seed=seed)
        assert tightness(t) <= 3
