"""Outlier detection in disjunction-free propositional default theories."""

from .core import (
    DefaultRule,
    DefaultTheory,
    Fragment,
    Literal,
    classify,
    dualize,
    format_literals,
    lett,
    lit,
    lits,
    negate_all,
    is_inconsistent,
    normal_rule,
    parse_theory,
    rule,
    theory_to_text,
)
from .depgraph import (
    DependencyGraph,
    SccDecomposition,
    build_graph,
    decompose,
    influences,
    tightness,
    to_dot,
)
from .errors import (
    BudgetExceededError,
    InfeasibleProfileError,
    InvalidQueryError,
    ParseError,
    ReservedLetterError,
    ScopeError,
    TheoryError,
)
from .oracles import (
    Cnf3,
    GeneratedTheory,
    build_lemma4,
    build_thm8,
    build_thm9,
    build_thm10,
    parse_dimacs,
    random_theory,
    sat,
)
from .outliers import (
    OutlierReport,
    SearchStats,
    enumerate_general,
    enumerate_strong,
    format_report_lines,
    format_report_record,
    is_strong_witness,
    is_witness,
    minimal_strong_witnesses,
    recognize_strong,
)
from .semantics import (
    AUTO,
    DEFAULT_BUDGET,
    EXHAUSTIVE,
    FAST,
    SignatureSet,
    brave_member,
    entails,
    extensions,
    is_extension,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
