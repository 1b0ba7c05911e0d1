import copy
import gc
import os
import pickle
import random
import re
import subprocess
import sys
import threading
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from defoutlier import (
    EXHAUSTIVE,
    FAST,
    DefaultRule,
    DefaultTheory,
    Literal,
    ParseError,
    ReservedLetterError,
    SignatureSet,
    build_graph,
    classify,
    decompose,
    dualize,
    entails,
    is_inconsistent,
    lit,
    lits,
    parse_theory,
    theory_to_text,
    tightness,
)
from defoutlier import core, oracles, semantics
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


def test_letters_the_text_format_cannot_write_are_rejected():
    for text in ("b c", "-b c", "x-y", "1a", "a.", "-", "--b", ""):
        with pytest.raises(ValueError):
            lit(text)
    with pytest.raises(ValueError):
        rule("a", "x-y", "x-y")
    with pytest.raises(ValueError):
        normal_rule("b c", "d")
    assert lit(" - _a1 ") == Literal("_a1", False)
    assert lit("\t-\r\nb\n") == Literal("b", False)
    for text in ("\xa0a", "-\x0cb", "c\u3000", "\va", "- \x85b"):  # blanks the text format rejects
        with pytest.raises(ValueError):
            lit(text)
    with pytest.raises(ValueError, match="'b c'"):
        theory_to_text(DefaultTheory([], [Literal("b c")]))
    odd = frozenset([Literal("x-y")])
    with pytest.raises(ValueError, match="'x-y'"):
        theory_to_text(DefaultTheory([DefaultRule(lits("a"), odd, odd)], lits("a")))


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
# Value semantics
# ---------------------------------------------------------------------------

# Each value type, built twice from scratch, with its exact repr.  Sets hold one
# element so that the repr does not depend on PYTHONHASHSEED.
VALUES = [
    (lambda: Literal("a", False), "Literal('-a')"),
    (lambda: lit("b_2"), "Literal('b_2')"),
    (
        lambda: normal_rule("a", "-b"),
        "DefaultRule(prerequisite=frozenset({Literal('a')}), justification=frozenset({Literal('-b')}), "
        "consequent=frozenset({Literal('-b')}))",
    ),
    (
        lambda: rule("", "c", "d"),
        "DefaultRule(prerequisite=frozenset(), justification=frozenset({Literal('c')}), "
        "consequent=frozenset({Literal('d')}))",
    ),
    (lambda: SignatureSet(lits("a"), (0, 2)), "SignatureSet(literals=frozenset({Literal('a')}), generating=(0, 2))"),
    (
        lambda: classify(parse_theory("default a : b / b.")),
        "Fragment(tag='NU', normal=True, is_nmu=True, is_nu=True, is_dnu=False)",
    ),
    (
        lambda: build_graph(parse_theory("default a : a / a.")),
        "DependencyGraph(vertices=frozenset({'a'}), edges=frozenset({('a', 'a')}))",
    ),
    (
        lambda: decompose(parse_theory("default a : a / a.")),
        "SccDecomposition(components=(frozenset({'a'}),), tightness=1)",
    ),
]


@pytest.mark.parametrize("make, text", VALUES)
def test_value_types_compare_hash_print_and_copy_by_their_fields(make, text):
    value, twin = make(), make()
    assert value is not twin and value == twin and not value != twin
    fields = tuple(getattr(value, name) for name in type(value).__match_args__)
    assert hash(value) == hash(twin) == hash(fields)
    assert repr(value) == text
    assert type(value)(*fields) == value
    for copied in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        assert type(copied) is type(value) and copied == value and hash(copied) == hash(value)
        assert repr(copied) == text
    for name in type(value).__match_args__:
        with pytest.raises(AttributeError):
            setattr(value, name, None)
        with pytest.raises(AttributeError):
            delattr(value, name)
    assert tuple(getattr(value, name) for name in type(value).__match_args__) == fields


def test_slotted_value_types_keep_no_attribute_beside_their_slots():
    for value in (lit("a"), normal_rule("a", "b"), SignatureSet(lits("a"), ())):
        assert not hasattr(value, "__dict__")
        with pytest.raises(AttributeError):
            value.extra = 1
        for name in type(value).__slots__:
            with pytest.raises(AttributeError):
                setattr(value, name, None)
    a = lit("a")
    assert a != ("a", True) and normal_rule("a", "b") != (lits("a"), lits("b"), lits("b"))


def test_literals_order_by_letter_then_polarity():
    ordered = [Literal("a", False), Literal("a"), Literal("b", False), Literal("b")]
    assert sorted(reversed(ordered)) == ordered
    for x in ordered:
        for y in ordered:
            key_x, key_y = (x.letter, x.positive), (y.letter, y.positive)
            assert (x < y, x <= y, x > y, x >= y) == (key_x < key_y, key_x <= key_y, key_x > key_y, key_x >= key_y)
    for op in ("<", "<=", ">", ">="):
        with pytest.raises(TypeError):
            eval(f"x {op} y", {"x": lit("a"), "y": ("a", True)})


def test_negation_is_kept_one_way_and_is_no_part_of_the_value():
    a, fresh = lit("a"), lit("a")
    not_a = a.negate()
    assert a.negate() is not_a and not_a == Literal("a", False)
    assert not_a.negate() == a and not_a.negate() is not_a.negate()
    # The negation holds no link back, so no two literals form a cycle.
    assert not any(r is a for r in gc.get_referents(not_a))
    assert a == fresh and hash(a) == hash(fresh) and repr(a) == repr(fresh)
    assert pickle.dumps(a) == pickle.dumps(fresh)
    assert pickle.loads(pickle.dumps(a)).negate() == not_a


def test_threads_racing_on_negate_get_equal_literals():
    # More threads than cores and a short switch interval make the first
    # negations overlap; each literal's negation must read equal in every
    # thread, and stay put once the race is over.
    literals = [Literal(f"x{i}", i % 2 == 0) for i in range(3000)]
    results, barrier = [], threading.Barrier(8)

    def negate_all_of_them():
        barrier.wait(timeout=30)
        results.append([l.negate() for l in literals])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=negate_all_of_them) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads) and len(results) == 8
    for l, seen in zip(literals, zip(*results)):
        want = Literal(l.letter, not l.positive)
        assert all(n == want for n in seen)
        assert l.negate() is l.negate() == want


def test_pickles_load_under_another_hash_seed(tmp_path):
    # str hashes differ between processes, so a pickle must not carry the
    # hash kept at construction: sets and dicts built from loaded values
    # must still find freshly built ones, and the other way round.
    path = tmp_path / "values.pickle"
    dump = (
        "import pickle, sys\n"
        "from defoutlier import lit, lits\n"
        "from defoutlier.core import normal_rule\n"
        "ls = [lit(x) for x in ('a', '-a', 'b_2', '-long_letter')]\n"
        "rules = [normal_rule('a', '-b'), normal_rule('', 'c')]\n"
        "for l in ls: l.negate()\n"
        "with open(sys.argv[1], 'wb') as f:\n"
        "    pickle.dump((ls, set(ls), {l: str(l) for l in ls}, rules, set(rules)), f)\n"
    )
    load = (
        "import pickle, sys\n"
        "from defoutlier import lit\n"
        "from defoutlier.core import normal_rule\n"
        "with open(sys.argv[1], 'rb') as f:\n"
        "    ls, as_set, as_dict, rules, rule_set = pickle.load(f)\n"
        "fresh = [lit(x) for x in ('a', '-a', 'b_2', '-long_letter')]\n"
        "assert ls == fresh and [hash(l) for l in ls] == [hash(l) for l in fresh]\n"
        "assert all(l in as_set and as_dict[l] == str(l) for l in fresh)\n"
        "assert set(fresh) == as_set and all(l in set(fresh) for l in ls)\n"
        "assert [l.negate() for l in ls] == [l.negate() for l in fresh]\n"
        "fresh_rules = [normal_rule('a', '-b'), normal_rule('', 'c')]\n"
        "assert rules == fresh_rules and all(r in rule_set for r in fresh_rules)\n"
        "assert set(fresh_rules) == rule_set\n"
    )
    for script, seed in ((dump, "1"), (load, "2")):
        env = dict(os.environ, PYTHONHASHSEED=seed)
        proc = subprocess.run([sys.executable, "-c", script, str(path)], capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr


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


def test_parse_errors_pin_message_and_position():
    table = [
        ("fact a.\nfact |b.", ParseError, "unexpected character '|'", 2, 6),
        ("fact a", ParseError, "expected '.' (at end of input)", 1, 7),
        ("fact -.", ParseError, "expected a letter", 1, 7),
        ("fact a &", ParseError, "expected a letter (at end of input)", 1, 9),
        ("default a : / b.", ParseError, "empty justification: expected a literal", 1, 13),
        ("fact a. default a : b / .", ParseError, "empty consequent: expected a literal", 1, 25),
        ("fact a. % c\n\tdefault a b / b.", ParseError, "expected ':'", 2, 12),
        ("x.", ParseError, "expected 'fact' or 'default'", 1, 1),
        (
            "fact _l.",
            ReservedLetterError,
            "letter '_l' uses a prefix reserved for generated theories",
            1,
            6,
        ),
        ("x. |", ParseError, "unexpected character '|'", 1, 4),
        ("fact _l &.", ReservedLetterError, "letter '_l' uses a prefix reserved for generated theories", 1, 6),
        ("fact a.\fb.", ParseError, "unexpected character '\\x0c'", 1, 8),
        ("fact\u00a0a.", ParseError, "unexpected character '\\xa0'", 1, 5),
        ("default a : b / b. %é\nfact 9a.", ParseError, "unexpected character '9'", 2, 6),
    ]
    for text, kind, message, line, col in table:
        with pytest.raises(ParseError) as err:
            parse_theory(text)
        assert type(err.value) is kind, text
        assert (str(err.value), err.value.line, err.value.col) == (
            f"{line}:{col}: {message}",
            line,
            col,
        ), text


_SOUP = [
    "fact", "default", "a", "b2", "_l", "_y0", "-", "&", ":", "/", ".",
    " ", "\n", "\t", "\r", "\f", "% c\n", "%", "|", "é", "7",
]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from(_SOUP), max_size=24), st.booleans())
def test_parse_fails_only_with_positioned_parse_errors(soup, allow_reserved):
    text = "".join(soup)
    try:
        parse_theory(text, allow_reserved=allow_reserved)
    except ParseError as err:
        lines = text.split("\n")
        assert 1 <= err.line <= len(lines)
        assert 1 <= err.col <= len(lines[err.line - 1]) + 1


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


_FILLER = st.lists(
    st.one_of(
        st.sampled_from([" ", "\t", "\r", "\n"]),
        st.text(alphabet="ab_&:/.- ", max_size=8).map(lambda body: f"%{body}\n"),
    ),
    max_size=3,
).map("".join)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_blanks_and_comments_between_tokens_leave_the_parse_equal(data):
    letters = ["a", "b", "fact", "default"]
    lit_st = st.builds(Literal, st.sampled_from(letters), st.booleans())
    conj = st.frozensets(lit_st, min_size=1, max_size=2)
    rules = data.draw(st.lists(st.builds(DefaultRule, st.frozensets(lit_st, max_size=2), conj, conj), max_size=3))
    theory = DefaultTheory(rules, data.draw(st.frozensets(lit_st, max_size=3)))
    # Every letter and every other character of the text, each followed by filler.
    pieces = re.findall(r"[A-Za-z0-9_]+|[^A-Za-z0-9_]", theory_to_text(theory))
    text = "".join(piece + data.draw(_FILLER) for piece in pieces)
    assert parse_theory(text) == theory


def test_long_blank_runs_and_letters_parse_in_linear_time():
    # A grammar whose blank runs could be split two ways backs off
    # quadratically: at 50 000 blanks one such text would take tens of
    # seconds, while all of these take well under one.
    snippets = ["fact a & -b.", "default a & -b : -c / -c.", "fact a & - .", "default - : b / b.", "default a b"]
    texts = [s[:i] + " " * 50_000 + s[i:] for s in snippets for i in range(len(s) + 1)]
    texts += [s.replace("a", "a9" * 50_000) for s in snippets]
    start = time.perf_counter()
    for text in texts:
        try:
            parse_theory(text)
        except ParseError:
            pass
        assert time.perf_counter() - start < 5, text[:40]


def test_comments_hold_any_character_and_keywords_are_letters():
    assert parse_theory("fact a % b & c.\n.") == DefaultTheory([], lits("a"))
    t = parse_theory("fact fact. default default : default / default.")
    assert t == DefaultTheory([normal_rule("default", "default")], lits("fact"))


def test_normal_rules_hold_one_conjunction_object():
    # A normal rule's justification is its consequent, however it was built.
    text = "fact a. default a : b / b. default : -c & b / b & -c. default b : -c / -c."
    phi = oracles.Cnf3(2, ((1, -2, 2), (-1, 1, 2)))
    theories = [build(phi).theory for build in oracles.BUILDERS.values()] + [
        parse_theory(text),
        dualize(parse_theory(text)),
        DefaultTheory([normal_rule("a", "b & -c")], []),
        oracles.random_theory("NU", 12, 16, 2, seed=5),
        oracles.random_theory("NMU", 12, 16, 2, seed=5),
    ]
    for t in theories:
        normal = [d for d in t.defaults if d.normal]
        assert normal, t
        assert all(d.justification is d.consequent for d in normal), t


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


def test_compiled_keeps_the_first_item_stored():
    # A second filler that stores the item while the first one is still
    # computing stands for a racing thread: both must get the stored item,
    # or what one of them caches in its own copy is lost.
    theory = parse_theory("default a : b / b.")
    calls, stored = [], []

    def build(t):
        calls.append(t)
        if len(calls) == 1:
            stored.append(core.compiled(t, build))
        return object()

    assert core.compiled(theory, build) is stored[0]
    assert core.compiled(theory, build) is stored[0] and len(calls) == 2


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
    variant = cellphone.remove_facts(lits("CellUse"))
    for copied in (copy.copy(variant), copy.deepcopy(variant), pickle.loads(pickle.dumps(variant))):
        assert copied == variant and copied._rules is not cellphone._rules


# ---------------------------------------------------------------------------
# Fact index
# ---------------------------------------------------------------------------


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


FACT_INDEX_RULES = [normal_rule("a", "b"), normal_rule("", "-c")]


@pytest.mark.parametrize(
    "facts,removed,index",
    [
        (("a", "-b", "c"), ("a", "c"), {"b": lit("-b")}),  # present literals
        (("a", "-b", "c"), ("d", "-e"), {"a": lit("a"), "b": lit("-b"), "c": lit("c")}),  # absent ones
        (("a", "-b", "c"), ("-a", "b"), {"a": lit("a"), "b": lit("-b"), "c": lit("c")}),  # opposite polarity
        (("a", "-b", "c"), ("a", "-a", "b", "z"), {"b": lit("-b"), "c": lit("c")}),
        ((), (), {}),  # empty facts: consistent, with an empty index
        ((), ("a",), {}),
        (("a", "-a", "b"), ("b",), None),  # inconsistent parent, inconsistent variant
        (("a", "-a", "b"), ("-a",), {"a": lit("a"), "b": lit("b")}),  # its variants decide again
    ],
)
def test_fact_index_of_a_variant_matches_a_fresh_theory(facts, removed, index):
    # ``index`` maps each fact letter to its fact, or is None for inconsistent
    # facts; the fact masks and ``facts_on`` must read the same facts.
    parent = DefaultTheory(FACT_INDEX_RULES, lits(*facts))
    before = parent.fact_masks()
    variant = parent.remove_facts(lits(*removed))
    rebuilt = parent.with_facts(variant.facts)
    assert parent.fact_masks() == before
    assert rebuilt._masks is None and rebuilt._consistent is None  # with_facts inherits neither
    fresh = DefaultTheory(FACT_INDEX_RULES, variant.facts)
    for t in (variant, rebuilt):
        assert t.fact_masks() == fresh.fact_masks()
        assert t.consistent_facts() == fresh.consistent_facts() == (index is not None)
        if index is not None:
            assert t.facts_on(-1) == fresh.facts_on(-1) == sorted(index.values(), key=core.literal_order)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.builds(Literal, st.sampled_from("abcde"), st.booleans()), max_size=6),
    st.lists(st.builds(Literal, st.sampled_from("abcdef"), st.booleans()), max_size=4),
    st.lists(st.builds(Literal, st.sampled_from("abcdef"), st.booleans()), max_size=4),
)
@example(lits("a", "d"), lits("c"), lits("d"))  # d is a fact on a letter no rule mentions
@example(lits("a", "-b"), lits("f", "-f"), lits("a"))  # f is on no fact and no rule
@example(lits("a", "-c", "e"), lits("-a"), lits("e", "-c"))  # removing -a leaves the fact a
def test_fact_index_survives_chains_of_removals(facts, first, second):
    # After one and after two withdrawals, on the NU rules and on their DNU
    # dual, a variant reads like a fresh theory with its facts, and so do the
    # witness checks' entailments on the parent's masks less the withdrawn bits.
    letters = [Literal(x, p) for x in "abcdef" for p in (True, False)]
    for rules in (FACT_INDEX_RULES, dualize(DefaultTheory(FACT_INDEX_RULES, ())).defaults):
        t = DefaultTheory(rules, facts)
        t.consistent_facts()
        once = t.remove_facts(first)
        for variant, withdrawn in ((once, set(first)), (once.remove_facts(second), set(first) | set(second))):
            fresh = DefaultTheory(rules, t.facts - withdrawn)
            assert variant.facts == fresh.facts
            assert variant == fresh and hash(variant) == hash(fresh) and repr(variant) == repr(fresh)
            assert variant.consistent_facts() == fresh.consistent_facts() == (not is_inconsistent(variant.facts))
            assert variant.fact_masks() == fresh.fact_masks()
            if variant.consistent_facts():
                assert variant.facts_on(-1) == fresh.facts_on(-1)
            for q in letters:
                assert entails(variant, [q], FAST) == entails(variant, [q], EXHAUSTIVE) == entails(fresh, [q]), q
                if t.consistent_facts():  # a withdrawal from the masks needs consistent facts
                    for backend in (FAST, EXHAUSTIVE):
                        got = semantics._entails_without(t, withdrawn, [q], backend, semantics.DEFAULT_BUDGET)
                        assert got == entails(fresh, [q]), (q, backend)


@settings(max_examples=200, deadline=None)
@given(
    st.dictionaries(st.sampled_from("abcde"), st.booleans()),
    st.frozensets(st.sampled_from("abcdefg")),
    st.lists(st.builds(Literal, st.sampled_from("abcde"), st.booleans()), max_size=3),
)
def test_facts_on_lists_the_facts_on_the_letters_in_literal_order(polarity, letters, removed):
    # Only the rule letters a, b and c have bits; d and e are facts off the rules.
    t = DefaultTheory(FACT_INDEX_RULES, [Literal(x, p) for x, p in polarity.items()])
    for variant in (t, t.remove_facts(removed)):
        want = sorted((l for l in variant.facts if l.letter in letters & set("abc")), key=core.literal_order)
        assert variant.facts_on(core.letter_mask(variant, letters)) == want


def test_facts_on_returns_the_theorys_own_facts():
    facts = lits("a", "-b", "z")
    t = DefaultTheory(FACT_INDEX_RULES, facts)
    for variant in (t, t.remove_facts(lits("a")), t.remove_facts(lits("-a")).remove_facts(lits("z"))):
        got = variant.facts_on(-1)
        assert got == sorted(variant.facts - lits("z"), key=core.literal_order)  # z has no bit
        assert all(any(x is f for f in facts) for x in got)
