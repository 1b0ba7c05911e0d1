"""The package surface: every public name resolves, and importing the package
or running a CLI verb loads only the submodules it needs."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import defoutlier
from conftest import CREDIT_CARD

# The public names: 58 functions, classes and constants plus the 6 submodules.
PUBLIC = [
    "AUTO", "BudgetExceededError", "Cnf3", "DEFAULT_BUDGET", "DefaultRule", "DefaultTheory",
    "DependencyGraph", "EXHAUSTIVE", "FAST", "Fragment", "GeneratedTheory", "InfeasibleProfileError",
    "InvalidQueryError", "Literal", "OutlierReport", "ParseError", "ReservedLetterError",
    "SccDecomposition", "ScopeError", "SearchStats", "SignatureSet", "TheoryError", "brave_member",
    "build_graph", "build_lemma4", "build_thm10", "build_thm8", "build_thm9", "classify", "core",
    "decompose", "depgraph", "dualize", "entails", "enumerate_general", "enumerate_strong", "errors",
    "extensions", "format_literals", "format_report_lines", "format_report_record", "influences",
    "is_extension", "is_inconsistent", "is_strong_witness", "is_witness", "lett", "lit", "lits",
    "minimal_strong_witnesses", "negate_all", "normal_rule", "oracles", "outliers", "parse_dimacs",
    "parse_theory", "random_theory", "recognize_strong", "rule", "sat", "semantics", "theory_to_text",
    "tightness", "to_dot",
]
SUBMODULES = ["core", "depgraph", "errors", "oracles", "outliers", "semantics"]


def _loaded_modules(*argv: str) -> set[str]:
    """The modules in ``sys.modules`` when a fresh interpreter exits after
    ``import defoutlier`` (no ``argv``) or ``python -m defoutlier *argv``.
    It runs with ``-S``, so that no ``.pth`` file preloads a standard-library
    module, and finds the package through ``PYTHONPATH``."""
    run = "runpy.run_module('defoutlier', run_name='__main__', alter_sys=True)" if argv else "import defoutlier"
    script = (
        "import atexit, runpy, sys\n"
        "atexit.register(lambda: print(*sys.modules, file=sys.stderr))\n"
        f"sys.argv = ['defoutlier', *{list(argv)!r}]\n"
        f"{run}\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(defoutlier.__file__).parent.parent))
    proc = subprocess.run([sys.executable, "-S", "-c", script], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    return set(proc.stderr.split())


def test_all_lists_every_public_name():
    assert len(PUBLIC) == 64
    assert defoutlier.__all__ == PUBLIC


def test_every_public_name_resolves_after_a_bare_import():
    # A fresh interpreter, since importing a submodule such as the CLI also
    # binds it on the package.
    script = (
        "import sys, types, defoutlier\n"
        "assert not [m for m in sys.modules if m.startswith('defoutlier.')]\n"
        f"public = {PUBLIC!r}\n"
        "assert [name for name in dir(defoutlier) if not name.startswith('_')] == public\n"
        "for name in public:\n"
        "    value = getattr(defoutlier, name)\n"
        f"    if name in {SUBMODULES!r}:\n"
        "        assert value is sys.modules['defoutlier.' + name]\n"
        "    else:\n"
        "        assert not isinstance(value, types.ModuleType), name\n"
        "assert [name for name in dir(defoutlier) if not name.startswith('_')] == public\n"
        "from defoutlier import *\n"
        "assert core.DefaultTheory is DefaultTheory\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'nope'"):
        defoutlier.nope  # noqa: B018
    assert not hasattr(defoutlier, "importlib")


@pytest.mark.parametrize(
    "verb, absent",
    [
        (None, {f"defoutlier.{m}" for m in SUBMODULES} | {"dataclasses", "inspect"}),
        ("entails", {"defoutlier.outliers", "defoutlier.oracles", "dataclasses", "inspect"}),
        ("recognize", {"defoutlier.oracles"}),
        ("classify", {"defoutlier.outliers", "defoutlier.oracles", "dataclasses", "inspect"}),
    ],
)
def test_imports_load_only_what_runs(tmp_path, verb, absent):
    if verb is None:
        loaded = _loaded_modules()
    else:
        path = tmp_path / "creditcard.dth"
        path.write_text(CREDIT_CARD)
        # Each call answers yes and exits 0.
        query = {"entails": ["--goal", "CreditNumber"], "recognize": ["--L", "CreditNumber"]}.get(verb, [])
        loaded = _loaded_modules(verb, *query, str(path))
        assert "defoutlier.cli" in loaded
    assert not loaded & absent
    # Outlier reports are dataclasses, so only the outlier verbs load the module.
    assert ("dataclasses" in loaded) == (verb == "recognize")


def test_threads_racing_on_first_use_get_the_same_objects():
    # A fresh interpreter, so every name is still unbound; more threads than
    # cores and a short switch interval make the first uses overlap.
    script = (
        "import sys, threading, defoutlier\n"
        "sys.setswitchinterval(1e-6)\n"
        "results, barrier = [], threading.Barrier(8)\n"
        "def first_use():\n"
        "    barrier.wait(timeout=30)\n"
        "    results.append([getattr(defoutlier, name) for name in defoutlier.__all__])\n"
        "threads = [threading.Thread(target=first_use) for _ in range(8)]\n"
        "for t in threads: t.start()\n"
        "for t in threads: t.join(timeout=30)\n"
        "assert not any(t.is_alive() for t in threads) and len(results) == 8\n"
        "for seen in results:\n"
        "    assert all(a is b for a, b in zip(seen, results[0]))\n"
        "assert all(getattr(defoutlier, name) is value for name, value in zip(defoutlier.__all__, results[0]))\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
