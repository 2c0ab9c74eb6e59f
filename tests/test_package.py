import ast
import os
import subprocess
import sys
from pathlib import Path

import qredist


def test_public_api_resolves():
    names = qredist.__all__
    assert len(names) == len(set(names))
    assert [name for name in names if not hasattr(qredist, name)] == []
    namespace: dict = {}
    exec("from qredist import *", namespace)
    assert set(names) <= set(namespace)


def _unused_imports(source: str) -> list[str]:
    """Names a module imports but neither uses nor lists in ``__all__``."""
    tree = ast.parse(source)
    imported = {}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif (isinstance(node, ast.Assign)
              and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in used)


def test_modules_use_their_imports():
    unused = {}
    package, tests = Path(qredist.__file__).parent, Path(__file__).parent
    for path in sorted([*package.glob("*.py"), *tests.glob("*.py")]):
        names = _unused_imports(path.read_text())
        if names:
            unused[f"{path.parent.name}/{path.name}"] = names
    assert unused == {}


def _unreferenced_helpers(sources: dict[str, str], public: bool = False) -> list[str]:
    """Module-level private (or, with ``public``, public) functions and classes that no code
    names outside their own definition, across all the given modules.  A re-export names
    nothing: an import binds an alias, and ``__all__`` lists strings."""
    defined, used = [], set()
    for module, source in sources.items():
        for stmt in ast.parse(source).body:
            own = stmt.name if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) else None
            if own and not own.startswith("__") and own.startswith("_") != public:
                defined.append((module, own))
            names = {node.id for node in ast.walk(stmt) if isinstance(node, ast.Name)}
            names |= {node.attr for node in ast.walk(stmt) if isinstance(node, ast.Attribute)}
            used |= names - {own}
    return sorted(f"{module}: {name}" for module, name in defined if name not in used)


def test_private_helpers_are_used():
    package = Path(qredist.__file__).parent
    assert _unreferenced_helpers({path.name: path.read_text()
                                  for path in sorted(package.glob("*.py"))}) == []


def test_unreferenced_helper_is_flagged():
    source = ("def _kept():\n    return 1\n\n"
              "def _dead(n):\n    return _dead(n - 1) if n else _kept()\n")
    assert _unreferenced_helpers({"m.py": source}) == ["m.py: _dead"]


# public definitions that no package code names, each kept for the reason given
_UNREACHED_PUBLIC = {
    "claims of the paper, which tests check directly": [
        "rates.py: one_shot_achievability_bound", "rates.py: incoherent_schumacher_rate",
        "protocols.py: sequential_projector_bound_check",
        "protocols.py: close_states_measurement_check"],
    "the writer of the state-file format": ["stateio.py: save_state"],
    "seeded draws for library callers": ["sampling.py: random_pure_state",
                                         "sampling.py: random_unitary"],
    "names perfbench traces or calls": [
        "protocols.py: convex_split_state", "protocols.py: uhlmann_isometry",
        "qmat.py: relabel_density", "qmat.py: tensor", "qmat.py: tensor_vectors",
        "rates.py: standard_qsr_rates", "qmat.py: apply_subsystem_matrix",
        "entropy.py: restricted_hypothesis_test"],
}


def test_public_definitions_are_used_or_kept_for_a_reason():
    package = Path(qredist.__file__).parent
    unreached = _unreferenced_helpers({path.name: path.read_text()
                                       for path in sorted(package.glob("*.py"))}, public=True)
    assert unreached == sorted(sum(_UNREACHED_PUBLIC.values(), []))


def test_unreferenced_public_definition_is_flagged():
    sources = {"m.py": "def kept():\n    return 1\n\n"
                       "def dead(n):\n    return dead(n - 1) if n else kept()\n\n"
                       "class _Private:\n    pass\n",
               "__init__.py": "from .m import dead\n\n__all__ = ['dead']\n"}
    assert _unreferenced_helpers(sources, public=True) == ["m.py: dead"]


# the standard-library modules that turn data into text, and the package modules that may
# import them: the command line writes every output, and stateio the state-file format
_TEXT_MODULES = {"csv": {"cli"}, "io": {"cli"}, "json": {"cli", "stateio"}}


def _text_imports(sources: dict[str, str]) -> list[str]:
    """Imports of a text module, function bodies included, by a module not allowed it."""
    found = []
    for module, source in sources.items():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Import):
                names = [alias.name.split(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module.split(".")[0]]
            else:
                continue
            found += [f"{module} imports {name}" for name in names
                      if module not in _TEXT_MODULES.get(name, {module})]
    return sorted(found)


def test_only_the_command_line_writes_text():
    package = Path(qredist.__file__).parent
    assert _text_imports({path.stem: path.read_text()
                          for path in sorted(package.glob("*.py"))}) == []


def test_text_import_outside_the_command_line_is_flagged():
    sources = {"cli": "import csv, io, json\n", "stateio": "import json\n",
               "rates": "import math\n\ndef f():\n    import csv\n    from json import dumps\n",
               "qmat": "import io\n"}
    assert _text_imports(sources) == ["qmat imports io", "rates imports csv",
                                      "rates imports json"]


def _foreign_imports(source: str) -> list[str]:
    """Top-level modules imported anywhere in a module, function bodies included,
    other than the standard library, the package itself and numpy."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.add(node.module.split(".")[0])
    return sorted(found - set(sys.stdlib_module_names) - {"qredist", "numpy"})


def test_package_imports_only_numpy():
    package = Path(qredist.__file__).parent
    foreign = {path.name: names for path in sorted(package.glob("*.py"))
               if (names := _foreign_imports(path.read_text()))}
    assert foreign == {}


def test_import_loads_no_scipy():
    src = str(Path(qredist.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    probe = ("import sys, qredist; print(qredist.__file__); "
             "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", probe], env={**os.environ, "PYTHONPATH": path},
                         capture_output=True, text=True, check=True).stdout.splitlines()
    assert out == [qredist.__file__, "[]"]


def _raw_bound_raises(sources: dict[str, str]) -> list[str]:
    """Raises of BoundViolation or ArithmeticError anywhere but in qmat._check_bound, and
    BoundViolation classes outside qmat: every bound and cross-check goes through the helper."""
    found = []
    for module, source in sources.items():
        tree = ast.parse(source)
        helper = set()
        if module == "qmat.py":
            helper = {id(node) for stmt in tree.body
                      if isinstance(stmt, ast.FunctionDef) and stmt.name == "_check_bound"
                      for node in ast.walk(stmt)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef) and node.name == "BoundViolation":
                if module != "qmat.py":
                    found.append(f"{module}:{node.lineno}: class BoundViolation")
            elif isinstance(node, ast.Raise) and node.exc is not None and id(node) not in helper:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                name = exc.id if isinstance(exc, ast.Name) else getattr(exc, "attr", None)
                if name in ("BoundViolation", "ArithmeticError"):
                    found.append(f"{module}:{node.lineno}: raise {name}")
    return found


def test_bounds_are_checked_by_one_helper():
    package = Path(qredist.__file__).parent
    assert _raw_bound_raises({path.name: path.read_text()
                              for path in sorted(package.glob("*.py"))}) == []


def test_raw_bound_raise_is_flagged():
    helper = ("class BoundViolation(ArithmeticError):\n    pass\n\n"
              "def _check_bound(x):\n    if not x <= 1:\n        raise BoundViolation(x)\n")
    raw = ("class BoundViolation(RuntimeError):\n    pass\n\n"
           "def check(x):\n    if x > 1:\n        raise ArithmeticError(x)\n"
           "    if x < 0:\n        raise qmat.BoundViolation\n")
    assert _raw_bound_raises({"qmat.py": helper, "rates.py": raw}) == [
        "rates.py:1: class BoundViolation", "rates.py:6: raise ArithmeticError",
        "rates.py:8: raise BoundViolation"]


# a module may import only package modules of lower rank
_LAYER_RANK = {"qmat": 0, "entropy": 1, "coherence": 1, "sampling": 1, "stateio": 1,
               "protocols": 2, "rates": 3, "cli": 4, "__init__": 4}


def _package_imports(source: str) -> set[str]:
    """Package modules a module imports anywhere, function bodies included; a name imported
    from the package itself counts as ``__init__`` unless it is a module."""
    dotted = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            dotted += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = f"qredist.{node.module or ''}".rstrip(".") if node.level else node.module
            dotted += [f"{base}.{alias.name}" for alias in node.names]
    found = set()
    for name in dotted:
        parts = name.split(".")
        if parts[0] == "qredist":
            found.add(parts[1] if len(parts) > 1 and parts[1] in _LAYER_RANK else "__init__")
    return found


def _layer_violations(sources: dict[str, str]) -> list[str]:
    return sorted(f"{module} imports {dep}" for module, source in sources.items()
                  for dep in _package_imports(source)
                  if _LAYER_RANK[dep] >= _LAYER_RANK[module])


def test_modules_import_only_lower_layers():
    package = Path(qredist.__file__).parent
    sources = {path.stem: path.read_text() for path in sorted(package.glob("*.py"))}
    assert set(sources) == set(_LAYER_RANK)
    assert _layer_violations(sources) == []


def test_layer_violation_is_flagged():
    sources = {
        "entropy": "from .coherence import dephase\nfrom .qmat import EIG_FLOOR\n",
        "qmat": "def f():\n    from . import rates\n    import qredist.cli\n",
        "rates": "from qredist.protocols import qsr_full\nfrom qredist import dephase\n",
    }
    assert _layer_violations(sources) == [
        "entropy imports coherence", "qmat imports cli", "qmat imports rates",
        "rates imports __init__"]
