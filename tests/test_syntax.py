"""The sources parse as Python 3.10, the oldest version pyproject.toml
allows, whatever newer interpreter runs the tests."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_sources_parse_as_python_3_10():
    paths = sorted(
        path for folder in ("src", "tests", "perfbench") for path in (ROOT / folder).rglob("*.py")
    )
    assert {"groebner.py", "test_syntax.py", "run.py"} <= {p.name for p in paths}
    failures = []
    for path in paths:
        try:
            ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=(3, 10))
        except SyntaxError as err:
            failures.append(f"{path.relative_to(ROOT)}:{err.lineno}: {err.msg}")
    assert failures == []
