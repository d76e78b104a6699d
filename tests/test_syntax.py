"""The sources parse as Python 3.10, the oldest version pyproject.toml
allows, whatever newer interpreter runs the tests, and the modules of the
package and the benchmark read every name they import."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _sources(*folders):
    return sorted(path for folder in folders for path in (ROOT / folder).rglob("*.py"))


def test_sources_parse_as_python_3_10():
    paths = _sources("src", "tests", "perfbench", "tools")
    assert {"groebner.py", "test_syntax.py", "run.py"} <= {p.name for p in paths}
    failures = []
    for path in paths:
        try:
            ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=(3, 10))
        except SyntaxError as err:
            failures.append(f"{path.relative_to(ROOT)}:{err.lineno}: {err.msg}")
    assert failures == []


def _unused_imports(tree: ast.Module) -> list:
    """(line, name) for each name the module imports and never reads; the
    names of its ``__all__`` are re-exports, and ``__future__`` imports
    are directives."""
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            exported |= set(ast.literal_eval(node.value))
    imported, read = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__":
            for alias in node.names:
                imported.setdefault(alias.asname or alias.name.split(".")[0], node.lineno)
        elif isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            read.add(node.id)
    used = read | exported
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_no_module_imports_a_name_it_never_reads():
    paths = _sources("src", "perfbench", "tools")
    assert {"groebner.py", "__init__.py", "run.py"} <= {p.name for p in paths}
    failures = [
        f"{path.relative_to(ROOT)}:{line}: {name}"
        for path in paths
        for line, name in _unused_imports(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert failures == []
    tree = ast.parse("import os\nfrom .poly import mono_div, mono_lcm\nx = mono_lcm\n")
    assert _unused_imports(tree) == [(1, "os"), (2, "mono_div")]
