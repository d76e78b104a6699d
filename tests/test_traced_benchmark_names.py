"""The traced benchmark wraps charp functions by name (``perfbench/spans.py``
``WRAPPED``); a refactor that renames or deletes one breaks only a traced
run, so every wrapped name is resolved here, on a fresh ``import charp``."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

RESOLVE = """
import json, sys
from spans import WRAPPED
import charp
missing = []
for name, module, attr in WRAPPED:
    owner = sys.modules.get(f"charp.{module}")
    if owner is not None and "." in attr:
        cls_name, attr = attr.split(".")
        owner = getattr(owner, cls_name, None)
        found = owner is not None and callable(owner.__dict__.get(attr))
    else:
        found = owner is not None and callable(getattr(owner, attr, None))
    if not found:
        missing.append(name)
print(json.dumps({"wrapped": len(WRAPPED), "missing": missing}))
"""


def test_every_wrapped_name_resolves_on_a_fresh_import():
    path = [str(ROOT / "src"), str(ROOT / "perfbench")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path + [os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run(
        [sys.executable, "-c", RESOLVE], cwd=ROOT, env=env,
        capture_output=True, text=True, timeout=120, check=True,
    )
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["wrapped"] > 0
    assert result["missing"] == []
