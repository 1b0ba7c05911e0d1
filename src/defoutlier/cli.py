"""Command-line front end.

Exit codes: 0 success (or positive decision), 1 negative decision on yes/no
verbs (entails, witness, recognize), 2 usage or parse errors, 3 exhausted
search budget.  Theory inputs are file paths or ``-`` for stdin and may use
the reserved letters of generated theories, so ``reduce`` output can be
piped straight back in.  Each verb imports only the modules it runs:
``outliers`` for ``witness``, ``recognize`` and ``enumerate``, ``oracles``
for ``reduce`` and ``random``.
"""

from __future__ import annotations

import argparse
import sys

from .core import Literal, classify, format_literals, lits, parse_theory, theory_to_text
from .depgraph import build_graph, decompose, to_dot
from .errors import BudgetExceededError, InvalidQueryError, ParseError, ScopeError
from .semantics import DEFAULT_BUDGET, entails, extensions


def _read_text(path: str) -> str:
    """The text of a file, or of stdin for ``-``, less a leading UTF-8 byte-order mark."""
    if path == "-":
        text = sys.stdin.read()
    else:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
    return text.removeprefix("\ufeff")


def _read_theory(path: str):
    return parse_theory(_read_text(path), allow_reserved=True)


def _literal_list(text: str) -> frozenset[Literal]:
    return lits(*text.split(","))


def _budget(text: str) -> int:
    if not text.strip().isdigit() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"budget must be a positive integer, got {text!r}")
    return int(text)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="defoutlier",
        description="Outlier detection in disjunction-free default theories.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    def add_common(p, backend=True):
        if backend:  # extensions is always the exhaustive search
            p.add_argument("--backend", choices=["auto", "exhaustive", "fast"], default="auto")
        p.add_argument("--budget", type=_budget, default=DEFAULT_BUDGET, help="node cap for exhaustive search")
        p.add_argument("theory", help="theory file path, or - for stdin")

    p = sub.add_parser("classify", help="report the fragment of a theory")
    p.add_argument("theory")

    p = sub.add_parser("extensions", help="list all signature sets")
    add_common(p, backend=False)

    p = sub.add_parser("entails", help="skeptical entailment of a literal set")
    p.add_argument("--goal", required=True, help="comma-separated literals, - negates")
    add_common(p)

    p = sub.add_parser("witness", help="check an (outlier, witness) pair")
    p.add_argument("--L", required=True, dest="outlier")
    p.add_argument("--S", required=True, dest="witness")
    add_common(p)

    p = sub.add_parser("recognize", help="decide whether L is a strong outlier")
    p.add_argument("--L", required=True, dest="outlier")
    p.add_argument("--all-witnesses", action="store_true")
    add_common(p)

    p = sub.add_parser("enumerate", help="enumerate outlier sets of bounded size")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--strong", action="store_true", default=True)
    group.add_argument("--general", dest="strong", action="store_false")
    p.add_argument("-k", type=int, default=1, help="outlier size bound")
    p.add_argument("--h", type=int, help="witness size bound, with --general only (default 1)")
    p.add_argument("--all-witnesses", action="store_true")
    p.add_argument("--format", choices=["text", "records"], default="text")
    add_common(p)

    p = sub.add_parser("graph", help="dependency graph, SCCs and tightness")
    p.add_argument("--dot", action="store_true", help="emit DOT with SCC clusters")
    p.add_argument("theory")

    p = sub.add_parser("reduce", help="build a reduction theory from a DIMACS 3CNF")
    # sorted(oracles.BUILDERS), written out so that building the parser imports no oracles
    p.add_argument("--construction", required=True, choices=["lemma4", "thm10", "thm8", "thm9"])
    p.add_argument("cnf", help="DIMACS file path, or - for stdin")

    p = sub.add_parser("random", help="emit a seeded random theory")
    p.add_argument("--fragment", choices=["NU", "DNU", "NMU", "DF"], default="NU")
    p.add_argument("--letters", type=int, default=8)
    p.add_argument("--rules", type=int, default=12)
    p.add_argument("--tightness", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)

    return parser


def _run(args) -> int:
    if args.verb == "classify":
        frag = classify(_read_theory(args.theory))
        suffix = " (normal)" if frag.normal and frag.tag == "DF" else ""
        print(f"{frag.tag}{suffix}")
        return 0

    if args.verb == "extensions":
        exts = extensions(_read_theory(args.theory), args.budget)
        if not exts:
            print("no extensions")
        for e in exts:
            marker = " (inconsistent)" if e.inconsistent else ""
            print(f"{format_literals(e.literals)}{marker}")
        return 0

    if args.verb == "entails":
        theory = _read_theory(args.theory)
        goal = _literal_list(args.goal)
        yes = entails(theory, goal, args.backend, args.budget)
        print("entailed" if yes else "not entailed")
        return 0 if yes else 1

    if args.verb == "witness":
        from . import outliers
        theory = _read_theory(args.theory)
        l, s = _literal_list(args.outlier), _literal_list(args.witness)
        general = outliers.is_witness(theory, l, s, args.backend, args.budget)
        strong = general and outliers.is_strong_witness(theory, l, s, args.backend, args.budget)
        print(
            f"witness: {'yes' if general else 'no'} (general), "
            f"{'yes' if strong else 'no'} (strong)"
        )
        return 0 if general else 1

    if args.verb == "recognize":
        from . import outliers
        theory = _read_theory(args.theory)
        report = outliers.recognize_strong(
            theory,
            _literal_list(args.outlier),
            args.backend,
            args.budget,
            all_witnesses=args.all_witnesses,
        )
        print(f"strong outlier: {'yes' if report.found else 'no'}")
        for line in outliers.format_report_lines(report):
            print(line)
        return 0 if report.found else 1

    if args.verb == "enumerate":
        from . import outliers
        if args.strong and args.h is not None:
            raise InvalidQueryError("--h bounds general witnesses and needs --general")
        theory = _read_theory(args.theory)
        if args.strong:
            reports = outliers.enumerate_strong(theory, args.k, args.backend, args.budget)
        else:
            h = 1 if args.h is None else args.h
            reports = outliers.enumerate_general(theory, args.k, h, args.backend, args.budget)
        if args.format == "records":
            for r in reports:
                print(outliers.format_report_record(r))
        else:
            if not reports:
                print("no outliers")
            for r in reports:
                for line in outliers.format_report_lines(r, args.all_witnesses):
                    print(line)
        return 0

    if args.verb == "graph":
        theory = _read_theory(args.theory)
        decomp = decompose(theory)
        if args.dot:
            sys.stdout.write(to_dot(build_graph(theory), decomp))
        else:
            for i, comp in enumerate(decomp.components, start=1):
                print(f"component {i}: {{{', '.join(sorted(comp))}}}")
            print(f"tightness: {decomp.tightness}")
        return 0

    if args.verb == "reduce":
        from . import oracles
        gen = oracles.BUILDERS[args.construction](oracles.parse_dimacs(_read_text(args.cnf)))
        names = " ".join(f"{k}={v}" for k, v in sorted(gen.designated.items()))
        print(f"% construction={gen.construction} {names}")
        sys.stdout.write(theory_to_text(gen.theory))
        return 0

    if args.verb == "random":
        from . import oracles
        theory = oracles.random_theory(
            args.fragment, args.letters, args.rules, args.tightness, args.seed
        )
        sys.stdout.write(theory_to_text(theory))
        return 0

    raise AssertionError(f"unhandled verb {args.verb}")


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return _run(args)
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ParseError, ScopeError, InvalidQueryError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
