import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from defoutlier import (
    Cnf3,
    DefaultTheory,
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
from defoutlier.core import normal_rule


def chain(*pairs):
    return DefaultTheory([normal_rule(a, b) for a, b in pairs], [])


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
    d = decompose(build_graph(chain(("a", "b"), ("b", "c"))))
    assert d.components == (frozenset("a"), frozenset("b"), frozenset("c"))
    assert d.tightness == 1


def test_decompose_two_cycle():
    d = decompose(build_graph(chain(("a", "b"), ("b", "a"))))
    assert d.components == (frozenset({"a", "b"}),)
    assert d.tightness == 2


def test_decompose_thm9_component():
    gen = build_thm9(Cnf3(1, ((1, 1, 1),)))
    d = decompose(build_graph(gen.theory))
    comp = next(c for c in d.components if "_f" in c)
    assert {"_f", "x1", "_c1"} <= comp
    assert d.tightness >= 3


def test_decompose_ordering_no_backward_path():
    t = random_theory("NU", 8, 12, 2, seed=7)
    g = build_graph(t)
    d = decompose(g)
    from defoutlier.depgraph import reach

    adj: dict[str, list[str]] = {}
    for a, b in g.edges:
        adj.setdefault(a, []).append(b)
    for i, ci in enumerate(d.components):
        for cj in d.components[i + 1 :]:
            assert not (reach(adj, cj) & ci)


def test_decompose_stable_under_rule_reorder():
    t = parse_theory("default a : b / b. default b : c / c. default : a / a.")
    t2 = DefaultTheory(tuple(reversed(t.defaults)), t.facts)
    assert decompose(build_graph(t)) == decompose(build_graph(t2))


def test_influences_examples(cellphone):
    assert influences(cellphone, lits("CreditNumber"), lit("MultipleIPs"))
    assert not influences(cellphone, lits("MultipleIPs"), lit("CreditNumber"))
    # reflexive: a letter influences itself via the empty path
    assert influences(cellphone, lits("QuietTime"), lit("QuietTime"))
    # even for letters the theory never mentions
    assert influences(cellphone, lits("zz"), lit("zz"))
    assert not influences(cellphone, lits("zz"), lit("MfC"))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6))
def test_influences_monotone_in_s(seed):
    t = random_theory("NU", 6, 8, 2, seed=seed)
    letters = sorted(t.letters())
    s_small = lits(letters[0])
    s_big = s_small | lits(letters[1])
    for x in letters:
        target = lit(x)
        if influences(t, s_small, target):
            assert influences(t, s_big, target)


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
    dot = to_dot(build_graph(cellphone))
    assert dot.startswith("digraph")
    assert '"CreditNumber" -> "MultipleIPs";' in dot
    assert "cluster_0" in dot


def test_tightness_bounded_by_generator_layers():
    for seed in range(10):
        t = random_theory("NU", 9, 14, 3, seed=seed)
        assert tightness(t) <= 3
