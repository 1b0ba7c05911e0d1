"""Independent correctness oracles: 3CNF input, brute-force SAT, reduction
constructions that tie satisfiability to outlier/entailment questions, and a
seeded random theory generator for property tests.

The reductions build default theories whose designated letters use the
reserved ``_y/_c/_l/_f`` prefixes, so they can never collide with DIMACS
variables (mapped to ``x1..xn``) or with letters accepted from ordinary
theory files.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

from .core import DefaultRule, DefaultTheory, Literal, classify
from .errors import InfeasibleProfileError

Clause = tuple[int, int, int]


@dataclass(frozen=True)
class Cnf3:
    """A 3CNF formula over variables 1..n, DIMACS-style signed integers."""

    variable_count: int
    clauses: tuple[Clause, ...]

    def __post_init__(self):
        for cl in self.clauses:
            if len(cl) != 3:
                raise ValueError("every clause must have exactly 3 literals")
            for l in cl:
                if l == 0 or abs(l) > self.variable_count:
                    raise ValueError(f"literal {l} out of range 1..{self.variable_count}")


def parse_dimacs(text: str) -> Cnf3:
    """Read DIMACS CNF; clauses shorter than 3 are padded by repetition."""
    n = 0
    clauses: list[Clause] = []
    seen_header = False
    for raw in text.splitlines():
        s = raw.strip()
        if not s or s.startswith("c"):
            continue
        if s.startswith("p"):
            parts = s.split()
            if len(parts) != 4 or parts[1] != "cnf":
                raise ValueError(f"bad DIMACS header: {s!r}")
            n = int(parts[2])
            seen_header = True
            continue
        lits = [int(tok) for tok in s.split()]
        if lits and lits[-1] == 0:
            lits = lits[:-1]
        if not lits:
            raise ValueError("empty clause in DIMACS input")
        if len(lits) > 3:
            raise ValueError("only 3CNF input is supported")
        while len(lits) < 3:
            lits.append(lits[-1])
        clauses.append((lits[0], lits[1], lits[2]))
    if not seen_header:
        raise ValueError("missing 'p cnf' header")
    return Cnf3(n, tuple(clauses))


def to_dimacs(phi: Cnf3) -> str:
    lines = [f"p cnf {phi.variable_count} {len(phi.clauses)}"]
    lines.extend(" ".join(str(l) for l in cl) + " 0" for cl in phi.clauses)
    return "\n".join(lines) + "\n"


def sat(phi: Cnf3, max_vars: int = 20) -> tuple[bool, frozenset[Literal] | None]:
    """Truth-table satisfiability; returns a model as a literal set if any.

    The model uses the ``x{i}`` letter encoding: ``x_i`` when true,
    ``-x_i`` when false.
    """
    n = phi.variable_count
    if n > max_vars:
        raise ValueError(f"too many variables for the truth-table oracle ({n} > {max_vars})")
    for bits in range(1 << n):
        ok = True
        for cl in phi.clauses:
            if not any(
                (bits >> (abs(l) - 1) & 1) == (1 if l > 0 else 0) for l in cl
            ):
                ok = False
                break
        if ok:
            model = frozenset(
                Literal(f"x{i + 1}", bool(bits >> i & 1)) for i in range(n)
            )
            return True, model
    return False, None


def evaluate(phi: Cnf3, model: frozenset[Literal]) -> bool:
    """Check a Lit(T)-encoded assignment against every clause."""
    true_vars = {int(l.letter[1:]) for l in model if l.positive}
    return all(
        any((abs(l) in true_vars) == (l > 0) for l in cl) for cl in phi.clauses
    )


# ---------------------------------------------------------------------------
# Reduction constructions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GeneratedTheory:
    """A reduction output: the theory plus its designated letters."""

    theory: DefaultTheory
    construction: str
    designated: dict[str, str]

    def letter(self, name: str) -> str:
        return self.designated[name]

    def literal(self, name: str, positive: bool = True) -> Literal:
        return Literal(self.designated[name], positive)


def _x(i: int) -> str:
    return f"x{i}"


def _y(i: int) -> str:
    return f"_y{i}"


def _c(j: int) -> str:
    return f"_c{j}"


def _sigma(l: int) -> Literal:
    # Positive occurrences keep their variable letter; negated variables are
    # routed through their companion letter so prerequisites stay positive.
    return Literal(_x(l), True) if l > 0 else Literal(_y(-l), True)


def _nr(pre: Literal | None, concl: Literal) -> DefaultRule:
    pre_set = frozenset() if pre is None else frozenset([pre])
    return DefaultRule(pre_set, frozenset([concl]), frozenset([concl]))


def _base_rules(phi: Cnf3) -> list[DefaultRule]:
    """Shared structure: companion-letter introduction, clause evaluation,
    and unconditional variable denial."""
    n = phi.variable_count
    rules: list[DefaultRule] = []
    for i in range(1, n + 1):
        rules.append(_nr(Literal(_x(i)), Literal(_y(i), False)))
        rules.append(_nr(None, Literal(_y(i), True)))
    for j, cl in enumerate(phi.clauses, start=1):
        for l in cl:
            rules.append(_nr(_sigma(l), Literal(_c(j), False)))
    for i in range(1, n + 1):
        rules.append(_nr(None, Literal(_x(i), False)))
    return rules


def _designated(phi: Cnf3, extra: dict[str, str]) -> dict[str, str]:
    d = {f"x{i}": _x(i) for i in range(1, phi.variable_count + 1)}
    d.update({f"y{i}": _y(i) for i in range(1, phi.variable_count + 1)})
    d.update({f"c{j}": _c(j) for j in range(1, len(phi.clauses) + 1)})
    d.update(extra)
    return d


def build_lemma4(phi: Cnf3) -> GeneratedTheory:
    """NU theory whose entailment of the denied set evaluates the formula."""
    facts = [Literal(_x(i)) for i in range(1, phi.variable_count + 1)]
    theory = DefaultTheory(_base_rules(phi), facts)
    return GeneratedTheory(theory, "lemma4", _designated(phi, {}))


def lemma4_goal(gen: GeneratedTheory, s: frozenset[Literal]) -> frozenset[Literal]:
    """The goal set for the lemma4 equivalence: negations of S and of every
    clause letter."""
    m = sum(1 for k in gen.designated if k.startswith("c") and k[1:].isdigit())
    goal = {l.negate() for l in s}
    goal |= {gen.literal(f"c{j}", False) for j in range(1, m + 1)}
    return frozenset(goal)


def lemma4_witness_from_model(gen: GeneratedTheory, model: frozenset[Literal]) -> frozenset[Literal]:
    """The fact subset encoding a model: the variables it sets false."""
    return frozenset(Literal(l.letter, True) for l in model if not l.positive)


def build_thm8(phi: Cnf3) -> GeneratedTheory:
    """Acyclic (tightness-1) NU theory: the designated denial literal is a
    general outlier iff the formula is satisfiable."""
    n = phi.variable_count
    m = len(phi.clauses)
    l0, c0 = "_l", _c(0)
    rules = _base_rules(phi)
    for i in range(1, n + 1):
        rules.append(_nr(Literal(_x(i)), Literal(c0, False)))
        rules.append(_nr(Literal(_y(i)), Literal(c0, False)))
    for j in range(1, m + 1):
        rules.append(_nr(Literal(_c(j)), Literal(c0, True)))
    rules.append(_nr(None, Literal(l0, True)))
    rules.append(_nr(Literal(l0), Literal(c0, True)))
    facts = [Literal(_x(i)) for i in range(1, n + 1)]
    facts.append(Literal(l0, False))
    facts.extend(Literal(_c(j)) for j in range(0, m + 1))
    theory = DefaultTheory(rules, facts)
    return GeneratedTheory(theory, "thm8", _designated(phi, {"l": l0, "c0": c0}))


def build_thm9(phi: Cnf3) -> GeneratedTheory:
    """Cyclic NU theory: the designated literal is a strong outlier iff the
    formula is satisfiable."""
    n = phi.variable_count
    m = len(phi.clauses)
    l0, f0 = "_l", "_f"
    rules = _base_rules(phi)
    for i in range(1, n + 1):
        rules.append(_nr(Literal(f0), Literal(_x(i), True)))
    for j in range(1, m + 1):
        rules.append(_nr(Literal(_c(j)), Literal(f0, True)))
        rules.append(_nr(Literal(f0), Literal(_c(j), True)))
    rules.append(_nr(None, Literal(l0, True)))
    rules.append(_nr(Literal(l0), Literal(f0, True)))
    facts = [Literal(_x(i)) for i in range(1, n + 1)]
    facts.append(Literal(l0, False))
    facts.extend(Literal(_c(j)) for j in range(1, m + 1))
    theory = DefaultTheory(rules, facts)
    return GeneratedTheory(theory, "thm9", _designated(phi, {"l": l0, "f": f0}))


def build_thm10(phi: Cnf3) -> GeneratedTheory:
    """Tightness-1 NMU theory with empty facts: it entails the designated
    letter iff the formula is unsatisfiable."""
    n = phi.variable_count
    m = len(phi.clauses)
    l0 = "_l"
    rules: list[DefaultRule] = []
    for i in range(1, n + 1):
        rules.append(_nr(None, Literal(_x(i), True)))
        rules.append(_nr(None, Literal(_x(i), False)))
    for k, cl in enumerate(phi.clauses, start=1):
        for l in cl:
            pre = Literal(_x(abs(l)), l > 0)
            rules.append(_nr(pre, Literal(_c(k), True)))
    for k in range(1, m + 1):
        rules.append(_nr(None, Literal(_c(k), False)))
        rules.append(_nr(Literal(_c(k), False), Literal(l0, True)))
    theory = DefaultTheory(rules, [])
    return GeneratedTheory(theory, "thm10", _designated(phi, {"l": l0}))


BUILDERS = {
    "lemma4": build_lemma4,
    "thm8": build_thm8,
    "thm9": build_thm9,
    "thm10": build_thm10,
}


# ---------------------------------------------------------------------------
# Random theory generation
# ---------------------------------------------------------------------------


def random_cnf3(n: int, m: int, rng: random.Random) -> Cnf3:
    clauses = []
    for _ in range(m):
        clauses.append(
            tuple(rng.choice([1, -1]) * rng.randint(1, n) for _ in range(3))
        )
    return Cnf3(n, tuple(clauses))


def random_theory(
    fragment: str,
    n_letters: int,
    n_rules: int,
    tightness_target: int,
    seed: int,
) -> DefaultTheory:
    """Seeded random theory with a guaranteed fragment tag and tightness cap.

    Letters are laid out in layers of at most ``tightness_target`` letters;
    rule edges only run within a layer or forward, so no SCC can outgrow a
    layer.  Facts are a consistent random literal set.
    """
    if fragment not in ("NU", "DNU", "NMU", "DF"):
        raise InfeasibleProfileError(f"unknown fragment {fragment!r}")
    if n_letters < 1 or n_rules < 1 or tightness_target < 1:
        raise InfeasibleProfileError("letter, rule and tightness counts must be >= 1")
    if tightness_target > n_letters:
        raise InfeasibleProfileError("tightness target exceeds letter count")
    if fragment == "NMU" and n_rules < 2:
        raise InfeasibleProfileError("an NMU profile needs at least 2 rules")

    rng = random.Random(seed)
    letters = [f"v{i + 1}" for i in range(n_letters)]
    layer: dict[str, int] = {}
    pos = 0
    li = 0
    while pos < n_letters:
        size = rng.randint(1, tightness_target)
        for x in letters[pos : pos + size]:
            layer[x] = li
        pos += size
        li += 1

    def pre_sign() -> bool:
        if fragment == "NU":
            return True
        if fragment == "DNU":
            return False
        return rng.random() < 0.5

    rules: list[DefaultRule] = []
    seen: set[DefaultRule] = set()
    forced_signs: list[bool] = []
    if fragment == "NMU":
        forced_signs = [True, False]
    elif fragment == "NU":
        forced_signs = [True]
    elif fragment == "DNU":
        forced_signs = [False]

    attempts = 0
    while len(rules) < n_rules and attempts < 60 * n_rules:
        attempts += 1
        concl_letter = rng.choice(letters)
        concl = Literal(concl_letter, rng.random() < 0.6)
        binary_pre = fragment == "DF" and (not rules or rng.random() < 0.3)
        if binary_pre:
            a, b = rng.sample(letters, 2) if n_letters >= 2 else (letters[0], letters[0])
            if max(layer[a], layer[b]) > layer[concl_letter]:
                continue
            pre = frozenset({Literal(a, rng.random() < 0.7), Literal(b, rng.random() < 0.7)})
        elif rng.random() < 0.25 and not forced_signs:
            pre = frozenset()
        else:
            pre_letter = rng.choice(letters)
            if layer[pre_letter] > layer[concl_letter]:
                continue
            sign = forced_signs.pop() if forced_signs else pre_sign()
            pre = frozenset({Literal(pre_letter, sign)})
        r = DefaultRule(pre, frozenset([concl]), frozenset([concl]))
        if r in seen:
            continue
        seen.add(r)
        rules.append(r)
    if len(rules) < n_rules:
        raise InfeasibleProfileError(
            f"could not draw {n_rules} distinct rules over {n_letters} letters"
        )

    facts = [
        Literal(x, rng.random() < 0.7) for x in letters if rng.random() < 0.6
    ]
    theory = DefaultTheory(rules, facts)
    got = classify(theory).tag
    if got != fragment:
        # The non-unary rule may be missing only if dedup dropped it; the
        # forced prerequisite signs make this unreachable for unary profiles.
        raise InfeasibleProfileError(f"profile {fragment} produced tag {got}")
    return theory


def all_cnf3_formulas(max_vars: int, max_clauses: int) -> list[Cnf3]:
    """Every 3CNF up to clause order and within-clause literal order.

    Clauses are canonicalized as sorted triples (repetition allowed) and
    formulas as sorted clause multisets, which enumerates each formula once
    per distinct literal choice.
    """
    out: list[Cnf3] = []
    for n in range(1, max_vars + 1):
        literals = [i for v in range(1, n + 1) for i in (v, -v)]
        # Require the highest variable to occur so each formula is counted
        # at exactly one n.
        clause_pool = [
            tuple(sorted(c)) for c in itertools.combinations_with_replacement(literals, 3)
        ]
        for m in range(1, max_clauses + 1):
            for combo in itertools.combinations_with_replacement(sorted(set(clause_pool)), m):
                if not any(abs(l) == n for cl in combo for l in cl):
                    continue
                out.append(Cnf3(n, tuple(combo)))
    return out
