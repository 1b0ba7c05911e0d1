"""Literals, default rules, theories, the text format, and fragment classification.

A theory is a pair (D, W): W a finite set of literal facts and D a finite
list of default rules whose prerequisite, justification and consequent are
conjunctions of literals.  The text format is line-oriented::

    fact CreditNumber & MultipleIPs.
    default CreditNumber : -MultipleIPs / -MultipleIPs.
    % comments run to end of line

``-`` negates, ``&`` joins conjuncts, ``.`` terminates a statement, and the
prerequisite may be omitted entirely ("default : b / b.").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, TypeVar

from .errors import ParseError, ReservedLetterError

# Letter prefixes used for fresh letters in generated theories; rejected in
# ordinary input so user letters can never collide with generated ones.
RESERVED_PREFIXES = ("_y", "_c", "_l", "_f")

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

    def __neg__(self) -> "Literal":
        return self.negate()

    def __str__(self) -> str:
        return self.letter if self.positive else "-" + self.letter

    def __repr__(self) -> str:
        return f"Literal({str(self)!r})"


def lit(text: str) -> Literal:
    """Parse a single literal written as ``name`` or ``-name``."""
    text = text.strip()
    if text.startswith("-"):
        return Literal(text[1:].strip(), False)
    return Literal(text, True)


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

    def dual(self) -> "DefaultRule":
        return DefaultRule(
            negate_all(self.prerequisite),
            negate_all(self.justification),
            negate_all(self.consequent),
        )

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


class RuleBase(dict):
    """Rule-level items of one deduplicated defaults tuple.

    Every fact-set variant of a theory shares its rule base.  ``compiled``
    fills it lazily, keyed by the function that computes each item from the
    rules.  Two threads filling the same item at once may both compute it,
    but only to equal values.
    """


def compiled(theory: "DefaultTheory", build: Callable[[tuple[DefaultRule, ...]], T]) -> T:
    """``build(theory.defaults)``, computed once per rule base and kept."""
    items = theory._rules
    try:
        return items[build]
    except KeyError:
        item = items[build] = build(theory.defaults)
        return item


def _rule_letters(defaults: tuple[DefaultRule, ...]) -> frozenset[str]:
    return frozenset().union(*(d.letters() for d in defaults))


@dataclass(frozen=True)
class DefaultTheory:
    """A finite default theory (D, W) over literal conjunctions.

    Rules are kept in order but deduplicated (set semantics); facts are a
    literal set.  Instances are immutable and safe to share.  Fact-set
    variants made by ``with_facts`` and ``remove_facts`` share one
    ``RuleBase``, which takes no part in equality, hashing or ``repr``.
    Nor does the consistency mark: ``consistent_facts`` decides it once,
    and ``remove_facts`` hands a known-consistent mark on, since a subset of
    consistent facts is consistent.
    """

    defaults: tuple[DefaultRule, ...]
    facts: frozenset[Literal]
    _rules: RuleBase = field(init=False, compare=False, repr=False)
    _consistent: bool | None = field(init=False, compare=False, repr=False)

    def __init__(self, defaults: Iterable[DefaultRule], facts: Iterable[Literal]):
        deduplicated = tuple(dict.fromkeys(defaults))
        object.__setattr__(self, "defaults", deduplicated)
        object.__setattr__(self, "facts", frozenset(facts))
        object.__setattr__(self, "_rules", RuleBase())
        object.__setattr__(self, "_consistent", None)

    def letters(self) -> frozenset[str]:
        return compiled(self, _rule_letters) | lett(self.facts)

    def consistent_facts(self) -> bool:
        """True iff no fact contradicts another; decided once per lineage."""
        if self._consistent is None:
            object.__setattr__(self, "_consistent", not is_inconsistent(self.facts))
        return self._consistent

    def with_facts(self, facts: Iterable[Literal]) -> "DefaultTheory":
        return self._variant(frozenset(facts), None)

    def remove_facts(self, removed: Iterable[Literal]) -> "DefaultTheory":
        return self._variant(self.facts - frozenset(removed), self._consistent or None)

    def _variant(self, facts: frozenset[Literal], consistent: bool | None) -> "DefaultTheory":
        variant = object.__new__(DefaultTheory)
        object.__setattr__(variant, "defaults", self.defaults)
        object.__setattr__(variant, "facts", facts)
        object.__setattr__(variant, "_rules", self._rules)
        object.__setattr__(variant, "_consistent", consistent)
        return variant

    def __iter__(self) -> Iterator[DefaultRule]:
        return iter(self.defaults)


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
    return DefaultTheory(
        (d.dual() for d in theory.defaults),
        negate_all(theory.facts),
    )


# ---------------------------------------------------------------------------
# Text format
# ---------------------------------------------------------------------------

_IDENT_START = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_")
_IDENT_CONT = _IDENT_START | set("0123456789")


@dataclass
class _Token:
    kind: str  # 'ident', '-', '&', ':', '/', '.'
    text: str
    line: int
    col: int


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    line, col = 1, 1
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "%":
            while i < n and text[i] != "\n":
                i += 1
            continue
        if ch in "-&:/.":
            tokens.append(_Token(ch, ch, line, col))
            i += 1
            col += 1
            continue
        if ch in _IDENT_START:
            start = i
            startcol = col
            while i < n and text[i] in _IDENT_CONT:
                i += 1
                col += 1
            tokens.append(_Token("ident", text[start:i], line, startcol))
            continue
        raise ParseError(f"unexpected character {ch!r}", line, col)
    return tokens


class _Parser:
    def __init__(self, tokens: list[_Token], allow_reserved: bool):
        self.tokens = tokens
        self.pos = 0
        self.allow_reserved = allow_reserved

    def _peek(self) -> _Token | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def _error(self, message: str) -> ParseError:
        tok = self._peek()
        if tok is None:
            last = self.tokens[-1] if self.tokens else None
            line = last.line if last else 1
            col = last.col + len(last.text) if last else 1
            return ParseError(message + " (at end of input)", line, col)
        return ParseError(message, tok.line, tok.col)

    def _expect(self, kind: str, what: str) -> _Token:
        tok = self._peek()
        if tok is None or tok.kind != kind:
            raise self._error(f"expected {what}")
        self.pos += 1
        return tok

    def _literal(self) -> Literal:
        tok = self._peek()
        positive = True
        if tok is not None and tok.kind == "-":
            positive = False
            self.pos += 1
        ident = self._expect("ident", "a letter")
        if not self.allow_reserved and ident.text.startswith(RESERVED_PREFIXES):
            raise ReservedLetterError(
                f"letter {ident.text!r} uses a prefix reserved for generated theories",
                ident.line,
                ident.col,
            )
        return Literal(ident.text, positive)

    def _conjunction(self, what: str) -> frozenset[Literal]:
        tok = self._peek()
        if tok is None or (tok.kind not in ("ident", "-")):
            raise self._error(f"empty {what}: expected a literal")
        out = {self._literal()}
        while True:
            tok = self._peek()
            if tok is not None and tok.kind == "&":
                self.pos += 1
                out.add(self._literal())
            else:
                return frozenset(out)

    def parse(self) -> DefaultTheory:
        facts: list[Literal] = []
        defaults: list[DefaultRule] = []
        while True:
            tok = self._peek()
            if tok is None:
                break
            if tok.kind != "ident" or tok.text not in ("fact", "default"):
                raise self._error("expected 'fact' or 'default'")
            self.pos += 1
            if tok.text == "fact":
                facts.extend(self._conjunction("fact"))
                self._expect(".", "'.'")
            else:
                nxt = self._peek()
                if nxt is not None and nxt.kind == ":":
                    pre: frozenset[Literal] = frozenset()
                else:
                    pre = self._conjunction("prerequisite")
                self._expect(":", "':'")
                just = self._conjunction("justification")
                self._expect("/", "'/'")
                concl = self._conjunction("consequent")
                self._expect(".", "'.'")
                defaults.append(DefaultRule(pre, just, concl))
        return DefaultTheory(defaults, facts)


def parse_theory(text: str, *, allow_reserved: bool = False) -> DefaultTheory:
    """Parse the theory text format; raises ParseError with line/column.

    ``allow_reserved`` admits the ``_y/_c/_l/_f`` letter prefixes used by
    generated reduction theories.
    """
    return _Parser(_tokenize(text), allow_reserved).parse()


def theory_to_text(theory: DefaultTheory) -> str:
    """Render a theory in the text format (facts first, rules in order)."""
    lines = [f"fact {l}." for l in sorted(theory.facts, key=literal_order)]
    lines.extend(f"default {d}." for d in theory.defaults)
    return "\n".join(lines) + ("\n" if lines else "")
