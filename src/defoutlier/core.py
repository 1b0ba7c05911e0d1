"""Literals, default rules, theories, the text format, and fragment classification.

A theory is a pair (D, W): W a finite set of literal facts and D a finite
list of default rules whose prerequisite, justification and consequent are
conjunctions of literals.  The text format is line-oriented::

    fact CreditNumber & MultipleIPs.
    default CreditNumber : -MultipleIPs / -MultipleIPs.
    % comments run to end of line

``-`` negates, ``&`` joins conjuncts, ``.`` terminates a statement, and the
prerequisite may be omitted entirely ("default : b / b.").  One regex scanner
tokenizes the format; a letter is ``[A-Za-z_][A-Za-z0-9_]*``.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass, field
from typing import Callable, Iterable, TypeVar

from .errors import ParseError, ReservedLetterError

# Letter prefixes used for fresh letters in generated theories; rejected in
# ordinary input so user letters can never collide with generated ones.
RESERVED_PREFIXES = ("_y", "_c", "_l", "_f")
# The letter syntax of the text format, shared with ``lit`` and so with CLI literal lists.
LETTER = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")

T = TypeVar("T")


@dataclass(frozen=True, order=True)
class Literal:
    """A signed atom: a letter with a polarity."""

    letter: str
    positive: bool = True

    def __post_init__(self):
        if not self.letter:
            raise ValueError("literal letter must be nonempty")

    def negate(self) -> "Literal":
        return Literal(self.letter, not self.positive)

    def __str__(self) -> str:
        return self.letter if self.positive else "-" + self.letter

    def __repr__(self) -> str:
        return f"Literal({str(self)!r})"


def lit(text: str) -> Literal:
    """Parse a single literal written as ``name`` or ``-name``, where name matches ``LETTER``."""
    text = text.strip()
    letter = text.removeprefix("-").strip()
    if not LETTER.fullmatch(letter):
        raise ValueError(f"bad literal {text!r}")
    return Literal(letter, letter == text)


def lits(*texts: str) -> frozenset[Literal]:
    return frozenset(lit(t) for t in texts)


def lett(literals: Iterable[Literal]) -> frozenset[str]:
    """The set of letters appearing in a literal collection."""
    return frozenset(l.letter for l in literals)


def negate_all(literals: Iterable[Literal]) -> frozenset[Literal]:
    return frozenset(l.negate() for l in literals)


def is_inconsistent(literals: Iterable[Literal]) -> bool:
    """True iff the collection contains some literal and its negation, that
    is, iff its distinct literals outnumber their letters."""
    s = frozenset(literals)
    return len({l.letter for l in s}) < len(s)


def literal_order(l: Literal) -> tuple[str, bool]:
    """The canonical sort key: by letter, the positive literal first."""
    return (l.letter, not l.positive)


def format_literals(literals: Iterable[Literal]) -> str:
    """Canonical ``{a, -b}`` rendering, sorted by letter then polarity."""
    ordered = sorted(literals, key=literal_order)
    return "{" + ", ".join(str(l) for l in ordered) + "}"


@dataclass(frozen=True)
class DefaultRule:
    """A disjunction-free default: prerequisite : justification / consequent.

    All three parts are literal conjunctions; the justification and the
    consequent must be nonempty.  A rule is *normal* when its justification
    equals its consequent.
    """

    prerequisite: frozenset[Literal]
    justification: frozenset[Literal]
    consequent: frozenset[Literal]

    def __post_init__(self):
        if not self.justification:
            raise ValueError("rule justification must be nonempty")
        if not self.consequent:
            raise ValueError("rule consequent must be nonempty")

    @property
    def normal(self) -> bool:
        return self.justification == self.consequent

    def letters(self) -> frozenset[str]:
        return lett(self.prerequisite) | lett(self.justification) | lett(self.consequent)

    def __str__(self) -> str:
        def conj(ls: frozenset[Literal]) -> str:
            return " & ".join(str(l) for l in sorted(ls, key=literal_order))

        pre = conj(self.prerequisite)
        return f"{pre}{' ' if pre else ''}: {conj(self.justification)} / {conj(self.consequent)}"


def rule(pre: str = "", just: str = "", concl: str = "") -> DefaultRule:
    """Build a rule from ``&``-joined literal strings; empty pre allowed."""

    def parts(s: str) -> frozenset[Literal]:
        s = s.strip()
        if not s:
            return frozenset()
        return frozenset(lit(p) for p in s.split("&"))

    return DefaultRule(parts(pre), parts(just), parts(concl))


def normal_rule(pre: str, concl: str) -> DefaultRule:
    return rule(pre, concl, concl)


def compiled(theory: "DefaultTheory", build: Callable[[tuple[DefaultRule, ...]], T]) -> T:
    """``build(theory.defaults)``, computed once per rule base and kept.

    The rule base is a dict that every fact-set variant of a theory shares,
    keyed by the function that computes each item from the rules.  Two
    threads filling the same item at once may both compute it, but only to
    equal values.
    """
    items = theory._rules
    try:
        return items[build]
    except KeyError:
        item = items[build] = build(theory.defaults)
        return item


def _rule_letters(defaults: tuple[DefaultRule, ...]) -> frozenset[str]:
    parts = (part for d in defaults for part in (d.prerequisite, d.justification, d.consequent))
    return frozenset(l.letter for part in parts for l in part)


@dataclass(frozen=True)
class DefaultTheory:
    """A finite default theory (D, W) over literal conjunctions.

    Rules are kept in order but deduplicated (set semantics); facts are a
    literal set.  Instances are immutable and safe to share.  Fact-set
    variants made by ``with_facts`` and ``remove_facts`` share one rule
    base (see ``compiled``), which takes no part in equality, hashing or
    ``repr``.
    Nor does the fact index, each fact letter mapped to its fact:
    ``fact_index`` builds it on first need, only for consistent facts, and
    ``remove_facts`` hands a copy on without the removed facts, since a
    subset of consistent facts is consistent.
    """

    defaults: tuple[DefaultRule, ...]
    facts: frozenset[Literal]
    _rules: dict = field(init=False, compare=False, repr=False)
    _index: dict[str, Literal] | None = field(init=False, compare=False, repr=False)

    def __init__(self, defaults: Iterable[DefaultRule], facts: Iterable[Literal]):
        deduplicated = tuple(dict.fromkeys(defaults))
        object.__setattr__(self, "defaults", deduplicated)
        object.__setattr__(self, "facts", frozenset(facts))
        object.__setattr__(self, "_rules", {})
        object.__setattr__(self, "_index", None)

    def letters(self) -> frozenset[str]:
        return compiled(self, _rule_letters) | lett(self.facts)

    def fact_index(self) -> dict[str, Literal] | None:
        """Each fact letter mapped to its fact, or None when the facts are
        inconsistent (decided again on every call); do not mutate."""
        if self._index is None and not is_inconsistent(self.facts):
            object.__setattr__(self, "_index", {l.letter: l for l in self.facts})
        return self._index

    def consistent_facts(self) -> bool:
        """True iff no fact contradicts another."""
        return self.fact_index() is not None

    def facts_on(self, letters: frozenset[str]) -> list[Literal]:
        """The theory's own facts on ``letters`` in ``literal_order``; they must be consistent."""
        index = self.fact_index()
        return [index[x] for x in sorted(letters) if x in index]

    def with_facts(self, facts: Iterable[Literal]) -> "DefaultTheory":
        return self._variant(frozenset(facts), None)

    def remove_facts(self, removed: Iterable[Literal]) -> "DefaultTheory":
        removed = frozenset(removed)
        index = self._index
        if index is not None:
            index = dict(index)
            for l in removed:
                if index.get(l.letter) == l:  # removing -a leaves a fact a
                    del index[l.letter]
        return self._variant(self.facts - removed, index)

    def _variant(self, facts: frozenset[Literal], index: dict[str, Literal] | None) -> "DefaultTheory":
        variant = object.__new__(DefaultTheory)
        object.__setattr__(variant, "defaults", self.defaults)
        object.__setattr__(variant, "facts", facts)
        object.__setattr__(variant, "_rules", self._rules)
        object.__setattr__(variant, "_index", index)
        return variant


@dataclass(frozen=True)
class Fragment:
    """Classification of a theory into the fragment lattice.

    ``tag`` is the most specific of DF, NMU, NU, DNU; the boolean fields
    expose the full containment picture (a theory may satisfy both the NU
    and DNU predicates when every prerequisite is empty; the tag is then NU).
    """

    tag: str
    normal: bool
    is_nmu: bool
    is_nu: bool
    is_dnu: bool


def classify(theory: DefaultTheory) -> Fragment:
    """Return the most specific fragment tag for a theory."""
    return compiled(theory, _classify_rules)


def _classify_rules(defaults: tuple[DefaultRule, ...]) -> Fragment:
    normal = all(d.normal for d in defaults)

    def unary(d: DefaultRule) -> bool:
        return d.normal and len(d.prerequisite) <= 1 and len(d.consequent) == 1

    is_nmu = all(unary(d) for d in defaults)
    is_nu = is_nmu and all(
        all(p.positive for p in d.prerequisite) for d in defaults
    )
    is_dnu = is_nmu and all(
        all(not p.positive for p in d.prerequisite) for d in defaults
    )
    if is_nu:
        tag = "NU"
    elif is_dnu:
        tag = "DNU"
    elif is_nmu:
        tag = "NMU"
    else:
        tag = "DF"
    return Fragment(tag=tag, normal=normal, is_nmu=is_nmu, is_nu=is_nu, is_dnu=is_dnu)


def dualize(theory: DefaultTheory) -> DefaultTheory:
    """Replace every literal occurrence in D and W by its negation.

    An involution; maps NU theories to DNU ones and vice versa.
    """
    parts = ((d.prerequisite, d.justification, d.consequent) for d in theory.defaults)
    return DefaultTheory((DefaultRule(*map(negate_all, p)) for p in parts), negate_all(theory.facts))


# ---------------------------------------------------------------------------
# Text format
# ---------------------------------------------------------------------------

# Blanks and comments, a token (a letter or a symbol), or any other character.
_TOKEN = re.compile(rf"[ \t\r\n]+|%[^\n]*|({LETTER.pattern}|[-&:/.])|(.)", re.DOTALL)


def _error_at(text: str, offset: int, message: str, kind: type[ParseError] = ParseError) -> ParseError:
    line = text.count("\n", 0, offset) + 1
    return kind(message, line, offset - text.rfind("\n", 0, offset))


def parse_theory(text: str, *, allow_reserved: bool = False) -> DefaultTheory:
    """Parse the theory text format; raises ParseError with line/column.

    ``allow_reserved`` admits the ``_y/_c/_l/_f`` letter prefixes used by
    generated reduction theories.
    """
    tokens: list[tuple[str, int]] = []  # (text, offset), reversed below
    for m in _TOKEN.finditer(text):
        token, other = m.group(1, 2)
        if other is not None:
            raise _error_at(text, m.start(), f"unexpected character {other!r}")
        if token is not None:
            tokens.append((token, m.start()))
    end = tokens[-1][1] + len(tokens[-1][0]) if tokens else 0
    tokens.reverse()  # the next token is tokens[-1]

    def peek() -> str:
        return tokens[-1][0] if tokens else ""

    def at_letter() -> bool:
        return bool(tokens) and tokens[-1][0][0] not in "-&:/."

    def error(message: str) -> ParseError:
        if tokens:
            return _error_at(text, tokens[-1][1], message)
        return _error_at(text, end, message + " (at end of input)")

    def expect(symbol: str) -> None:
        if peek() != symbol:
            raise error(f"expected {symbol!r}")
        tokens.pop()

    def literal() -> Literal:
        positive = peek() != "-"
        if not positive:
            tokens.pop()
        if not at_letter():
            raise error("expected a letter")
        letter, offset = tokens.pop()
        if not allow_reserved and letter.startswith(RESERVED_PREFIXES):
            message = f"letter {letter!r} uses a prefix reserved for generated theories"
            raise _error_at(text, offset, message, ReservedLetterError)
        return Literal(letter, positive)

    def conjunction(what: str) -> frozenset[Literal]:
        if not (at_letter() or peek() == "-"):
            raise error(f"empty {what}: expected a literal")
        out = {literal()}
        while peek() == "&":
            tokens.pop()
            out.add(literal())
        return frozenset(out)

    facts: list[Literal] = []
    defaults: list[DefaultRule] = []
    while tokens:
        keyword = peek()
        if keyword not in ("fact", "default"):
            raise error("expected 'fact' or 'default'")
        tokens.pop()
        if keyword == "fact":
            facts.extend(conjunction("fact"))
        else:
            pre = frozenset() if peek() == ":" else conjunction("prerequisite")
            expect(":")
            just = conjunction("justification")
            expect("/")
            defaults.append(DefaultRule(pre, just, conjunction("consequent")))
        expect(".")
    return DefaultTheory(defaults, facts)


def theory_to_text(theory: DefaultTheory) -> str:
    """Render a theory in the text format (facts first, rules in order);
    raises ValueError on a letter the format cannot write back."""
    bad = sorted(itertools.filterfalse(LETTER.fullmatch, theory.letters()))
    if bad:
        raise ValueError(f"letter {bad[0]!r} cannot be written in the text format")
    lines = [f"fact {l}." for l in sorted(theory.facts, key=literal_order)]
    lines.extend(f"default {d}." for d in theory.defaults)
    return "\n".join(lines) + ("\n" if lines else "")
