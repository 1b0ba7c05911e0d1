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

Every fact-set variant of a theory shares one rule base, where each item
compiled from the rules (see ``compiled``) is kept once.  The first is the
letter ``numbering``: the sorted rule letters, rule letter i being bit i of
every mask over letters in the package.  A theory holds its facts on rule
letters as two such masks, positive and negative, and ``remove_facts``
withdraws facts by clearing bits, building the variant's ``facts`` set
only when something reads it.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, TypeVar

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


def compiled(theory: "DefaultTheory", build: Callable[["DefaultTheory"], T]) -> T:
    """``build(theory)``, computed once per rule base and kept.

    The rule base is a dict that every fact-set variant of a theory shares,
    keyed by the function that computes each item.  ``build`` reads only
    the rules, directly or through other compiled items such as
    ``numbering``.  Two threads filling the same item at once may both
    compute it, but only to equal values.
    """
    items = theory._rules
    try:
        return items[build]
    except KeyError:
        item = items[build] = build(theory)
        return item


def numbering(theory: "DefaultTheory") -> dict[str, int]:
    """Each rule letter mapped to its place in sorted order: the one letter
    numbering of a rule base, compiled through ``compiled``.  Every mask over
    letters (fact masks, cones, components, the NU fixpoint, the exhaustive
    search's literals) gives rule letter i bit i; other letters have none."""
    parts = (part for d in theory.defaults for part in (d.prerequisite, d.justification, d.consequent))
    return {x: i for i, x in enumerate(sorted({l.letter for part in parts for l in part}))}


def bits(mask: int) -> Iterator[int]:
    """The positions of the set bits of a nonnegative mask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def letter_mask(theory: "DefaultTheory", letters: Iterable[str]) -> int:
    """The mask of the rule letters among ``letters``; other letters have no bit."""
    ids = compiled(theory, numbering)
    mask = 0
    for x in letters:
        if x in ids:
            mask |= 1 << ids[x]
    return mask


class DefaultTheory:
    """A finite default theory (D, W) over literal conjunctions.

    Rules are kept in order but deduplicated (set semantics); facts are a
    literal set.  Instances are immutable and safe to share.  Fact-set
    variants made by ``with_facts`` and ``remove_facts`` share one rule
    base (see ``compiled``), which takes no part in equality, hashing or
    ``repr``.  Nor do the fact masks (see ``fact_masks``), built on first
    need, or the consistency mark.  ``remove_facts`` hands both on, clearing
    only the withdrawn bits, since a subset of consistent facts is
    consistent; its variant builds ``facts`` only when something reads it.
    """

    __slots__ = ("defaults", "_rules", "_base", "_removed", "_facts", "_masks", "_at", "_consistent")
    defaults: tuple[DefaultRule, ...]

    def __init__(self, defaults: Iterable[DefaultRule], facts: Iterable[Literal]):
        facts = frozenset(facts)
        _fill(self, tuple(dict.fromkeys(defaults)), {}, facts, (), facts, None, None, None)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to {name!r}: DefaultTheory is immutable")

    def __reduce__(self):  # pickle and copy rebuild from the rules and facts
        return DefaultTheory, (self.defaults, self.facts)

    def __eq__(self, other) -> bool:
        if not isinstance(other, DefaultTheory):
            return NotImplemented
        return self.defaults == other.defaults and self.facts == other.facts

    def __hash__(self) -> int:
        return hash((self.defaults, self.facts))

    def __repr__(self) -> str:
        """The dataclass-style form, with the facts in ``literal_order`` so that
        equal theories print alike whatever built their fact sets."""
        facts = ", ".join(map(repr, sorted(self.facts, key=literal_order)))
        return f"DefaultTheory(defaults={self.defaults!r}, facts=frozenset({'{' + facts + '}' if facts else ''}))"

    @property
    def facts(self) -> frozenset[Literal]:
        if self._facts is None:  # a variant: its ancestor's facts less each withdrawal
            object.__setattr__(self, "_facts", self._base.difference(*self._removed))
        return self._facts

    def letters(self) -> frozenset[str]:
        return lett(self.facts).union(compiled(self, numbering))

    def consistent_facts(self) -> bool:
        """True iff no fact contradicts another; decided once per theory."""
        if self._consistent is None:
            object.__setattr__(self, "_consistent", not is_inconsistent(self.facts))
        return self._consistent

    def fact_masks(self) -> tuple[int, int]:
        """The facts on rule letters as two masks over ``numbering``: the
        positive facts, then the negative ones."""
        if self._masks is None:
            ids = compiled(self, numbering)
            on_rules = [(ids[l.letter], l) for l in self.facts if l.letter in ids]
            object.__setattr__(self, "_at", dict(on_rules))  # for facts_on; its facts must be consistent
            pos = sum(1 << i for i, l in on_rules if l.positive)
            object.__setattr__(self, "_masks", (pos, sum(1 << i for i, l in on_rules if not l.positive)))
        return self._masks

    def facts_on(self, mask: int) -> list[Literal]:
        """The theory's own facts on the rule letters of ``mask`` (-1 for all
        of them), in ``literal_order``; they must be consistent.  Bits ascend
        in sorted letter order, and consistent facts hold one literal per
        letter."""
        pos, neg = self.fact_masks()
        at = self._at
        return [at[i] for i in bits((pos | neg) & mask)]

    def with_facts(self, facts: Iterable[Literal]) -> "DefaultTheory":
        facts = frozenset(facts)
        return _fill(object.__new__(DefaultTheory), self.defaults, self._rules, facts, (), facts, None, None, None)

    def remove_facts(self, removed: Iterable[Literal]) -> "DefaultTheory":
        """The theory without the facts in ``removed`` (other literals are
        ignored), at a cost of O(|removed|) mask operations once the facts
        are known consistent.  Inconsistent facts get a fresh theory."""
        removed = tuple(removed)
        if not self.consistent_facts():
            return self.with_facts(self.facts.difference(removed))
        pos, neg = self.fact_masks()
        ids = compiled(self, numbering)
        for l in removed:
            if l.letter in ids:  # clearing the bit of a literal that is no fact changes nothing
                if l.positive:
                    pos &= ~(1 << ids[l.letter])
                else:
                    neg &= ~(1 << ids[l.letter])
        withdrawn = self._removed + (removed,)
        variant = object.__new__(DefaultTheory)
        return _fill(variant, self.defaults, self._rules, self._base, withdrawn, None, (pos, neg), self._at, True)


_SLOT_SETTERS = [getattr(DefaultTheory, name).__set__ for name in DefaultTheory.__slots__]


def _fill(theory: DefaultTheory, *values) -> DefaultTheory:
    """Set every slot of a new theory, in ``__slots__`` order."""
    for put, value in zip(_SLOT_SETTERS, values, strict=True):
        put(theory, value)
    return theory


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


def _classify_rules(theory: DefaultTheory) -> Fragment:
    defaults = theory.defaults
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
