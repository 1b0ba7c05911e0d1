"""Literals, default rules, theories, the text format, and fragment classification.

A theory is a pair (D, W): W a finite set of literal facts and D a finite
list of default rules whose prerequisite, justification and consequent are
conjunctions of literals.  The text format is line-oriented::

    fact CreditNumber & MultipleIPs.
    default CreditNumber : -MultipleIPs / -MultipleIPs.
    % comments run to end of line

``-`` negates, ``&`` joins conjuncts, ``.`` terminates a statement, and the
prerequisite may be omitted entirely ("default : b / b.").  A letter is
``[A-Za-z_][A-Za-z0-9_]*``; the keywords are letters too.  Blanks are space,
tab, CR and LF, and a comment may hold any character.  One regex is the
grammar: each match reads one statement, or as much of it as is well formed,
which names the error.  A parse builds one frozenset per distinct
conjunction, so a normal rule's justification is its consequent.

Literals, rules and theories are immutable slotted classes, not dataclasses,
so that importing the module loads neither ``dataclasses`` nor ``inspect``.
A literal keeps its hash from construction and its negation from the first
``negate()``, since every witness check hashes and negates literals; the
negation keeps no link back, so literals never form a reference cycle.

Every fact-set variant of a theory shares one rule base, where each item
compiled from the rules (see ``compiled``) is kept once.  The first is the
letter ``numbering``: the sorted rule letters, rule letter i being bit i of
every mask over letters in the package.  A theory holds its facts on rule
letters as two such masks, positive and negative; a witness check withdraws
facts by clearing bits of those masks, without building a variant.
"""

from __future__ import annotations

import functools
import itertools
import operator
import re
from typing import Callable, Iterable, Iterator, NamedTuple, TypeVar

from .errors import ParseError, ReservedLetterError

# Letter prefixes used for fresh letters in generated theories; rejected in
# ordinary input so user letters can never collide with generated ones.
RESERVED_PREFIXES = ("_y", "_c", "_l", "_f")
# The letter syntax and the blanks of the text format, shared with ``lit`` and so with CLI literal lists.
LETTER = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_BLANKS = " \t\r\n"

T = TypeVar("T")


class _Immutable:
    """Base of the slotted value types.  Assigning or deleting an attribute
    raises.  Equality, hashing, ``repr``, ``pickle`` and ``copy`` are those of
    the fields that ``__match_args__`` names, so that nothing a subclass
    keeps beside them (a hash, a negation, a lazily filled mark) takes part."""

    __slots__ = ()
    __match_args__: tuple[str, ...]

    def __init_subclass__(cls) -> None:
        cls._fields = operator.attrgetter(*cls.__match_args__)  # the tuple of the fields

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to {name!r}: {type(self).__name__} is immutable")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete {name!r}: {type(self).__name__} is immutable")

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields(self) == self._fields(other)

    def __hash__(self) -> int:
        return hash(self._fields(self))

    def __reduce__(self):
        return type(self), self._fields(self)

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self.__match_args__, self._fields(self)))
        return f"{type(self).__name__}({fields})"


@functools.total_ordering
class Literal(_Immutable):
    """A signed atom: a letter with a polarity.

    Equality, hashing and ordering are those of ``(letter, positive)``.  The
    hash is computed once, at construction, and the negation on the first
    ``negate()``; neither takes part in equality, ``repr`` or ``pickle``.
    """

    __slots__ = ("letter", "positive", "_hash", "_negation")
    __match_args__ = ("letter", "positive")
    letter: str
    positive: bool

    def __init__(self, letter: str, positive: bool = True):
        if not letter:
            raise ValueError("literal letter must be nonempty")
        _set_letter(self, letter)
        _set_positive(self, positive)
        _set_hash(self, hash((letter, positive)))
        _set_negation(self, None)

    def negate(self) -> Literal:
        """The literal of the other polarity: built on the first call, then
        the same object.  It keeps no link back, so that no two literals
        hold each other and reference counting alone frees them."""
        negation = self._negation
        if negation is None:
            negation = Literal(self.letter, not self.positive)
            _set_negation(self, negation)
        return negation

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other) -> bool:  # the base's, written out: every set lookup of a literal runs it
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.letter == other.letter and self.positive == other.positive

    def __lt__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.letter, self.positive) < (other.letter, other.positive)

    def __str__(self) -> str:
        return self.letter if self.positive else "-" + self.letter

    def __repr__(self) -> str:
        return f"Literal({str(self)!r})"


# Literal's slot setters: ``__init__`` and ``negate`` set slots past ``_Immutable.__setattr__``.
_set_letter, _set_positive, _set_hash, _set_negation = (getattr(Literal, x).__set__ for x in Literal.__slots__)


def lit(text: str) -> Literal:
    """Parse a single literal written as ``name`` or ``-name``, where name
    matches ``LETTER``, with blanks of the text format around either part."""
    text = text.strip(_BLANKS)
    letter = text.removeprefix("-").strip(_BLANKS)
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


class DefaultRule(_Immutable):
    """A disjunction-free default: prerequisite : justification / consequent.

    All three parts are literal conjunctions; the justification and the
    consequent must be nonempty.  A rule is *normal* when its justification
    equals its consequent.
    """

    __slots__ = __match_args__ = ("prerequisite", "justification", "consequent")
    prerequisite: frozenset[Literal]
    justification: frozenset[Literal]
    consequent: frozenset[Literal]

    def __init__(
        self, prerequisite: frozenset[Literal], justification: frozenset[Literal], consequent: frozenset[Literal]
    ):
        if not justification:
            raise ValueError("rule justification must be nonempty")
        if not consequent:
            raise ValueError("rule consequent must be nonempty")
        put = object.__setattr__
        put(self, "prerequisite", prerequisite)
        put(self, "justification", justification)
        put(self, "consequent", consequent)

    @property
    def normal(self) -> bool:
        return self.justification == self.consequent

    def letters(self) -> frozenset[str]:
        return lett(self.prerequisite) | lett(self.justification) | lett(self.consequent)

    def __str__(self) -> str:
        return _rule_text(self, _conjunction_text)


def _conjunction_text(ls: frozenset[Literal]) -> str:
    return " & ".join(str(l) for l in sorted(ls, key=literal_order))


def _rule_text(d: DefaultRule, conj: Callable[[frozenset[Literal]], str]) -> str:
    pre = conj(d.prerequisite)
    return f"{pre}{' ' if pre else ''}: {conj(d.justification)} / {conj(d.consequent)}"


def _conjunction(text: str) -> frozenset[Literal]:
    """The literals of an ``&``-joined literal string; none for a blank one."""
    return lits(*text.split("&")) if text.strip(_BLANKS) else frozenset()


def rule(pre: str = "", just: str = "", concl: str = "") -> DefaultRule:
    """Build a rule from ``&``-joined literal strings; empty pre allowed."""
    return DefaultRule(_conjunction(pre), _conjunction(just), _conjunction(concl))


def normal_rule(pre: str, concl: str) -> DefaultRule:
    """A normal rule, whose justification is its consequent: one object."""
    consequent = _conjunction(concl)
    return DefaultRule(_conjunction(pre), consequent, consequent)


def compiled(theory: "DefaultTheory", build: Callable[["DefaultTheory"], T]) -> T:
    """``build(theory)``, computed once per rule base and kept.

    The rule base is a dict that every fact-set variant of a theory shares,
    keyed by the function that computes each item.  ``build`` reads only
    the rules, directly or through other compiled items such as
    ``numbering``.  Two threads filling the same item at once may both
    compute it, but the first one stored is kept and returned to both, so
    what either later caches in it (cones, say) is never lost.
    """
    items = theory._rules
    try:
        return items[build]
    except KeyError:
        return items.setdefault(build, build(theory))


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


class DefaultTheory(_Immutable):
    """A finite default theory (D, W) over literal conjunctions.

    Rules are kept in order but deduplicated (set semantics); facts are a
    literal set.  Instances are immutable and safe to share.  Fact-set
    variants made by ``with_facts`` and ``remove_facts`` share one rule
    base (see ``compiled``), which takes no part in equality, hashing or
    ``repr``.  Nor do the fact masks (see ``fact_masks``) or the
    consistency mark, each filled on first need; a variant fills its own.
    """

    __slots__ = ("defaults", "facts", "_rules", "_masks", "_at", "_consistent")
    __match_args__ = ("defaults", "facts")  # pickle and copy rebuild from the rules and facts
    defaults: tuple[DefaultRule, ...]
    facts: frozenset[Literal]

    def __init__(self, defaults: Iterable[DefaultRule], facts: Iterable[Literal]):
        put = object.__setattr__
        put(self, "defaults", tuple(dict.fromkeys(defaults)))
        put(self, "facts", frozenset(facts))
        put(self, "_rules", {})
        put(self, "_masks", None)
        put(self, "_at", None)
        put(self, "_consistent", None)

    def __repr__(self) -> str:
        """The dataclass-style form, with the facts in ``literal_order`` so that
        equal theories print alike whatever built their fact sets."""
        facts = ", ".join(map(repr, sorted(self.facts, key=literal_order)))
        return f"DefaultTheory(defaults={self.defaults!r}, facts=frozenset({'{' + facts + '}' if facts else ''}))"

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
        """The theory with ``facts`` for its facts and this one's rule base."""
        variant = DefaultTheory((), facts)
        object.__setattr__(variant, "defaults", self.defaults)
        object.__setattr__(variant, "_rules", self._rules)
        return variant

    def remove_facts(self, removed: Iterable[Literal]) -> "DefaultTheory":
        """The theory without the facts in ``removed``; other literals are ignored."""
        return self.with_facts(self.facts.difference(removed))


class Fragment(NamedTuple):
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

    An involution; maps NU theories to DNU ones and vice versa.  Each
    distinct conjunction is negated once, so equal parts stay one object.
    """
    dual = functools.cache(negate_all)
    rules = (DefaultRule(dual(d.prerequisite), dual(d.justification), dual(d.consequent)) for d in theory.defaults)
    return DefaultTheory(rules, negate_all(theory.facts))


# ---------------------------------------------------------------------------
# Text format
# ---------------------------------------------------------------------------

# Blanks are space, tab, CR and LF.  A comment runs from ``%`` to the end of
# its line; ``parse_theory`` first overwrites each with spaces, so that
# offsets hold and no pattern below meets a comment.
_COMMENT = re.compile(r"%[^\n]*")
_BLANK = f"[{_BLANKS}]*"
_LITERAL = rf"(?:-{_BLANK})?{LETTER.pattern}"
_CONJUNCTION = rf"{_LITERAL}(?:{_BLANK}&{_BLANK}{_LITERAL})*"
# The sign and the letter of each literal of a well-formed conjunction; each
# match starts where the last one ended.
_SIGNED_LETTER = re.compile(rf"[{_BLANKS}&]*(-?){_BLANK}({LETTER.pattern})")


def _part(name: str, then: str, optional: bool = False) -> str:
    """A conjunction captured as ``name``, then ``then``, the rest of the
    statement; only an ``optional`` conjunction may be missing before it.

    Where the statement stops short, its last group matched says why:
    ``name`` when ``then`` does not follow; ``name_and`` when a ``&`` (and a
    ``-``) follows with no letter after it; ``name_neg`` when a ``-`` with no
    letter after it stands where the conjunction should; and the group
    before ``name`` when nothing of the conjunction stands there."""
    if not optional:
        then = rf"(?({name}){then}|(?!))"
    return (
        rf"(?:{_BLANK}(?P<{name}>{_CONJUNCTION}))?"
        rf"(?:{then}|(?({name}){_BLANK}&(?:{_BLANK}-)?(?P<{name}_and>)|{_BLANK}-(?P<{name}_neg>)))?"
    )


# The grammar, one statement per match: after blanks (the empty group ``at``
# marks where they end), a statement as far as it is well formed; else a
# token that starts none, or any other character.  A keyword is also a
# letter, so no letter character may follow it.  A text is a run of matches,
# each starting where the last one ended; only the last, at the end of the
# text, can be empty.  No two blank runs meet without a symbol between them,
# so a step that fails backs off over one run only, and time stays linear.
_KEYWORD_END = "(?![A-Za-z0-9_])"
_FACT = f"(?P<fact>fact){_KEYWORD_END}" + _part("f", rf"{_BLANK}\.(?P<fact_end>)")
_RULE = f"(?P<default>default){_KEYWORD_END}" + _part(
    "p", f"{_BLANK}:(?P<colon>)" + _part("j", f"{_BLANK}/(?P<slash>)" + _part("c", rf"{_BLANK}\.(?P<rule_end>)")), True
)
_STATEMENT = re.compile(rf"{_BLANK}(?P<at>)(?:{_FACT}|{_RULE}|(?P<token>{LETTER.pattern}|[-&:/.])|(?P<other>.))?")
_AT, _FACT_END, _RULE_END, _F, _P, _J, _C = (
    _STATEMENT.groupindex[name] for name in ("at", "fact_end", "rule_end", "f", "p", "j", "c")
)
# The message of a statement that stops after the named group; after any other, "expected a letter".
_EXPECTED = {
    "token": "expected 'fact' or 'default'",
    "fact": "empty fact: expected a literal",
    "f": "expected '.'",
    "default": "empty prerequisite: expected a literal",
    "p": "expected ':'",
    "colon": "empty justification: expected a literal",
    "j": "expected '/'",
    "slash": "empty consequent: expected a literal",
    "c": "expected '.'",
}


class _Reserved(Exception):
    """A conjunction read a reserved letter; ``_error`` says where."""


def _error_at(text: str, offset: int, message: str, kind: type[ParseError] = ParseError) -> ParseError:
    line = text.count("\n", 0, offset) + 1
    return kind(message, line, offset - text.rfind("\n", 0, offset))


def _error(text: str, m: re.Match, rest: Iterator[re.Match], allow_reserved: bool) -> ParseError:
    """The error of a text whose statement ``m`` is the first one that stops
    short or reads a reserved letter; ``rest`` yields the matches after it.
    An unexpected character anywhere in the text comes first, then a
    reserved letter that ``m`` reads, then the grammar error of ``m``."""
    after = list(rest)
    for x in (m, *after):
        if x.lastgroup == "other":
            return _error_at(text, x.start("other"), f"unexpected character {x['other']!r}")
    for group in (_F, _P, _J, _C):  # the conjunctions of m, in text order
        if allow_reserved or m[group] is None:
            continue
        for l in _SIGNED_LETTER.finditer(text, *m.span(group)):
            if l[2].startswith(RESERVED_PREFIXES):
                message = f"letter {l[2]!r} uses a prefix reserved for generated theories"
                return _error_at(text, l.start(2), message, ReservedLetterError)
    message = _EXPECTED.get(m.lastgroup, "expected a letter")
    if m.lastgroup == "token":
        return _error_at(text, m.start("token"), message)
    if not after or after[0].lastindex == _AT:  # nothing but blanks follows
        return _error_at(text, m.end(), message + " (at end of input)")
    return _error_at(text, after[0].start(_AT), message)


def parse_theory(text: str, *, allow_reserved: bool = False) -> DefaultTheory:
    """Parse the theory text format; raises ParseError with line/column.

    ``allow_reserved`` admits the ``_y/_c/_l/_f`` letter prefixes used by
    generated reduction theories.
    """
    # Each conjunction text read, and each distinct conjunction, mapped to one
    # frozenset; each literal, by sign and letter, to one Literal.  So every
    # occurrence of a literal shares one kept hash and negation, and a normal
    # rule's justification is its consequent.
    made: dict[str | frozenset[Literal], frozenset[Literal]] = {}
    literals: dict[tuple[str, str], Literal] = {}

    def conjunction(part: str) -> frozenset[Literal]:
        read = []
        for key in _SIGNED_LETTER.findall(part):
            l = literals.get(key)
            if l is None:
                sign, letter = key
                if not allow_reserved and letter.startswith(RESERVED_PREFIXES):
                    raise _Reserved
                l = literals[key] = Literal(letter, not sign)
            read.append(l)
        c = frozenset(read)
        c = made[part] = made.setdefault(c, c)
        return c

    if "%" in text:
        text = _COMMENT.sub(lambda comment: " " * len(comment[0]), text)
    get, empty = made.get, frozenset()
    facts: list[Literal] = []
    defaults: list[DefaultRule] = []
    matches = _STATEMENT.finditer(text)  # each match starts where the last one ended
    try:
        for m in matches:
            last = m.lastindex
            if last == _RULE_END:
                p, j, c = m.group(_P, _J, _C)
                pre = empty if p is None else get(p) or conjunction(p)
                defaults.append(DefaultRule(pre, get(j) or conjunction(j), get(c) or conjunction(c)))
            elif last == _FACT_END:
                f = m[_F]
                facts.extend(get(f) or conjunction(f))
            elif last != _AT:
                break
        else:
            return DefaultTheory(defaults, facts)
    except _Reserved:
        pass
    raise _error(text, m, matches, allow_reserved)


def theory_to_text(theory: DefaultTheory) -> str:
    """Render a theory in the text format (facts first, rules in order);
    raises ValueError on a letter the format cannot write back."""
    bad = sorted(itertools.filterfalse(LETTER.fullmatch, theory.letters()))
    if bad:
        raise ValueError(f"letter {bad[0]!r} cannot be written in the text format")
    lines = [f"fact {l}." for l in sorted(theory.facts, key=literal_order)]
    conj = functools.cache(_conjunction_text)  # each distinct conjunction rendered once per call
    lines.extend(f"default {_rule_text(d, conj)}." for d in theory.defaults)
    return "\n".join(lines) + ("\n" if lines else "")
