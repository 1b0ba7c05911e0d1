"""Outlier detection in disjunction-free propositional default theories.

``import defoutlier`` loads no submodule.  Each public name, and each of the
six submodules, is imported on first use through the module ``__getattr__``
(PEP 562) and kept in the package's own attributes, so later uses cost a
plain lookup.  Two threads racing on a first use meet the import lock and
store the same object.
"""

import importlib as _importlib

# Each public name mapped to its submodule; a submodule maps to itself.
_HOME = {
    name: module
    for module, names in {
        "core": "DefaultRule DefaultTheory Fragment Literal classify dualize format_literals lett lit lits"
        " negate_all is_inconsistent normal_rule parse_theory rule theory_to_text",
        "depgraph": "DependencyGraph SccDecomposition build_graph decompose influences tightness to_dot",
        "errors": "BudgetExceededError InfeasibleProfileError InvalidQueryError ParseError"
        " ReservedLetterError ScopeError TheoryError",
        "oracles": "Cnf3 GeneratedTheory build_lemma4 build_thm8 build_thm9 build_thm10 parse_dimacs"
        " random_theory sat",
        "outliers": "OutlierReport SearchStats enumerate_general enumerate_strong format_report_lines"
        " format_report_record is_strong_witness is_witness minimal_strong_witnesses recognize_strong",
        "semantics": "AUTO DEFAULT_BUDGET EXHAUSTIVE FAST SignatureSet brave_member entails extensions"
        " is_extension",
    }.items()
    for name in [module, *names.split()]
}

__all__ = sorted(_HOME)
__version__ = "0.1.0"


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    home = _HOME[name]
    module = _importlib.import_module(f"{__name__}.{home}")
    value = globals()[name] = module if name == home else getattr(module, name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_HOME})
