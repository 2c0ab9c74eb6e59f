import ast
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

