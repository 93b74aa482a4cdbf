"""The package's import-time dependencies stay what pyproject.toml declares."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src"


def test_public_entry_points_do_not_import_networkx():
    probe = (
        "import json, sys\n"
        "import repro.api, repro.cli\n"
        "print(json.dumps(sorted(name for name in sys.modules "
        "if name.split('.')[0] == 'networkx')))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    completed = subprocess.run(
        [sys.executable, "-c", probe],
        env=env,
        capture_output=True,
        text=True,
        check=True,
        timeout=120,
    )
    assert json.loads(completed.stdout.strip().splitlines()[-1]) == []
