"""Every script in ``examples/`` runs to completion and leaves no file behind.

Each example runs in its own interpreter with ``PYTHONPATH=src``, the way
its docstring says to run it, from an empty working directory.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[2]
SRC = REPO / "src"
EXAMPLES = REPO / "examples"


def _listing(directory: Path) -> set:
    return {path.relative_to(directory) for path in directory.rglob("*")}


@pytest.mark.parametrize(
    "script", sorted(EXAMPLES.glob("*.py")), ids=lambda path: path.stem
)
def test_example_runs_cleanly(script, tmp_path):
    before = _listing(EXAMPLES)
    completed = subprocess.run(
        [sys.executable, str(script)],
        capture_output=True,
        text=True,
        timeout=300,
        cwd=tmp_path,
        env=dict(os.environ, PYTHONPATH=str(SRC)),
    )
    assert completed.returncode == 0, completed.stderr
    assert _listing(EXAMPLES) == before
    assert _listing(tmp_path) == set()
