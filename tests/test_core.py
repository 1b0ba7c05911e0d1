import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from defoutlier import (
    DefaultRule,
    DefaultTheory,
    Literal,
    ParseError,
    ReservedLetterError,
    classify,
    dualize,
    entails,
    is_inconsistent,
    lit,
    lits,
    parse_theory,
    theory_to_text,
    tightness,
)
from defoutlier import core
from defoutlier.core import lett, normal_rule, rule
from conftest import CELLPHONE


# ---------------------------------------------------------------------------
# Literals and rules
# ---------------------------------------------------------------------------


def test_negation_involution():
    a = lit("a")
    assert a.negate().negate() == a
    assert a.negate().letter == a.letter
    assert str(a.negate()) == "-a"


@given(st.text(alphabet="abcxyz_", min_size=1), st.booleans())
def test_negation_involution_property(letter, positive):
    l = Literal(letter, positive)
    assert l.negate().negate() == l
    assert l.negate().letter == l.letter


def test_empty_letter_rejected():
    with pytest.raises(ValueError):
        Literal("")


def test_rule_requires_justification_and_consequent():
    with pytest.raises(ValueError):
        DefaultRule(frozenset(), frozenset(), lits("b"))
    with pytest.raises(ValueError):
        DefaultRule(frozenset(), lits("b"), frozenset())


def test_is_inconsistent_matches_definition():
    rng = random.Random(5)
    pool = [Literal(x, p) for x in "abcd" for p in (True, False)]
    cases = [[]] + [
        [rng.choice(pool) for _ in range(rng.randint(1, 8))] for _ in range(500)
    ]
    assert any(len(set(c)) < len(c) for c in cases)  # duplicates occur
    for c in cases:
        want = any(l.negate() in set(c) for l in c)
        for given_as in (list, tuple, set, frozenset, iter):
            assert is_inconsistent(given_as(c)) is want


def test_normal_rule_detection():
    assert normal_rule("a", "-b").normal
    assert not rule("a", "b", "c").normal


def test_lett():
    assert lett(lits("a", "-b")) == {"a", "b"}


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------


def test_parse_simple():
    t = parse_theory("fact a. default a : -b / -b.")
    assert t.facts == lits("a")
    assert t.defaults == (normal_rule("a", "-b"),)


def test_parse_credit_card():
    t = parse_theory(
        """
        % the stolen credit card scenario
        fact CreditNumber & MultipleIPs.
        default CreditNumber : -MultipleIPs / -MultipleIPs.
        """
    )
    assert t.facts == lits("CreditNumber", "MultipleIPs")
    assert t.defaults == (normal_rule("CreditNumber", "-MultipleIPs"),)


def test_parse_empty_justification_error():
    with pytest.raises(ParseError, match="justification"):
        parse_theory("default a : / b.")


def test_parse_syntax_error_position():
    with pytest.raises(ParseError) as err:
        parse_theory("fact a.\nfact |b.")
    assert err.value.line == 2
    assert "unexpected character" in str(err.value)


def test_parse_missing_terminator():
    with pytest.raises(ParseError):
        parse_theory("fact a")


def test_parse_rejects_reserved_letters_by_default():
    with pytest.raises(ReservedLetterError):
        parse_theory("fact _l.")
    t = parse_theory("fact _l.", allow_reserved=True)
    assert t.facts == lits("_l")


def test_parse_deduplicates():
    t = parse_theory("fact a. fact a. default : b / b. default : b / b.")
    assert t.facts == lits("a")
    assert len(t.defaults) == 1


def test_parse_empty_prerequisite():
    t = parse_theory("default : b / b.")
    assert t.defaults[0].prerequisite == frozenset()


def test_round_trip(credit_card):
    assert parse_theory(theory_to_text(credit_card)) == credit_card


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_round_trip_property(data):
    letters = ["a", "b", "c", "d"]
    lit_st = st.builds(Literal, st.sampled_from(letters), st.booleans())
    conj = st.frozensets(lit_st, min_size=1, max_size=2)
    rules = data.draw(
        st.lists(
            st.builds(DefaultRule, st.frozensets(lit_st, max_size=2), conj, conj),
            max_size=4,
        )
    )
    facts = data.draw(st.frozensets(lit_st, max_size=4))
    theory = DefaultTheory(rules, facts)
    assert parse_theory(theory_to_text(theory)) == theory


# ---------------------------------------------------------------------------
# Classification
# ---------------------------------------------------------------------------


def test_classify_cellphone_nu(cellphone):
    frag = classify(cellphone)
    assert frag.tag == "NU"
    assert frag.is_nu and frag.is_nmu and frag.normal


def test_classify_binary_prerequisite_is_df():
    t = DefaultTheory([rule("a & b", "c", "c")], [])
    frag = classify(t)
    assert frag.tag == "DF"
    assert frag.normal and not frag.is_nmu


def test_classify_negative_prerequisite_dnu():
    t = parse_theory("default -a : b / b.")
    assert classify(t).tag == "DNU"


def test_classify_mixed_prerequisites_nmu():
    t = parse_theory("default -a : b / b. default a : c / c.")
    assert classify(t).tag == "NMU"


def test_classify_non_normal_is_df():
    t = parse_theory("default : b / -b.")
    frag = classify(t)
    assert frag.tag == "DF"
    assert not frag.normal


def test_classify_containments(cellphone):
    # A theory tagged NU also passes the NMU predicate; every theory is DF.
    frag = classify(cellphone)
    assert frag.is_nu and frag.is_nmu


def test_classify_prerequisite_free_prefers_nu():
    frag = classify(parse_theory("default : b / b."))
    assert frag.tag == "NU"
    assert frag.is_dnu  # also satisfies the DNU predicate


# ---------------------------------------------------------------------------
# Dualization
# ---------------------------------------------------------------------------


def test_dualize_simple():
    t = parse_theory("fact a. default a : b / b.")
    d = dualize(t)
    assert d.facts == lits("-a")
    assert d.defaults == (normal_rule("-a", "-b"),)


def test_dualize_involution(credit_card, cellphone):
    for t in (credit_card, cellphone):
        assert dualize(dualize(t)) == t


def test_dualize_cellphone_is_dnu(cellphone):
    assert classify(dualize(cellphone)).tag == "DNU"


# ---------------------------------------------------------------------------
# Shared rule base
# ---------------------------------------------------------------------------


def test_fact_variants_share_one_rule_base(cellphone):
    removed = cellphone.remove_facts(lits("CellUse", "MfC"))
    variants = [removed, removed.with_facts(cellphone.facts), cellphone.with_facts([])]
    assert all(v._rules is cellphone._rules for v in variants)
    assert all(v.defaults is cellphone.defaults for v in variants)


def test_rule_base_takes_no_part_in_equality(cellphone):
    classify(cellphone)
    entails(cellphone, lits("-MfC"))
    tightness(cellphone)
    fresh = parse_theory(CELLPHONE)
    assert fresh._rules is not cellphone._rules
    restored = cellphone.remove_facts(lits("CellUse")).with_facts(cellphone.facts)
    for other in (fresh, restored):
        assert other == cellphone
        assert hash(other) == hash(cellphone)
        assert repr(other) == repr(cellphone)
    assert cellphone.remove_facts(lits("CellUse")) != fresh


# ---------------------------------------------------------------------------
# Consistency mark
# ---------------------------------------------------------------------------


def test_remove_facts_keeps_a_known_consistent_mark(cellphone, monkeypatch):
    assert cellphone.consistent_facts()
    calls = []
    real = core.is_inconsistent
    monkeypatch.setattr(core, "is_inconsistent", lambda ls: calls.append(ls) or real(ls))
    variant = cellphone.remove_facts(lits("CellUse")).remove_facts(lits("MfC", "-MfC"))
    assert variant.consistent_facts()
    assert calls == []
    assert cellphone.with_facts(cellphone.facts).consistent_facts()
    assert len(calls) == 1


def test_with_facts_never_inherits_the_mark(cellphone):
    assert cellphone.consistent_facts()
    bad = cellphone.with_facts(cellphone.facts | lits("z", "-z"))
    assert bad._consistent is None
    assert not bad.consistent_facts()
    off_cone = bad.remove_facts(lits("CellUse"))
    assert off_cone._consistent is None
    assert not off_cone.consistent_facts()
    assert bad.remove_facts(lits("-z")).consistent_facts()
    assert bad == cellphone.with_facts(cellphone.facts | lits("-z", "z"))
