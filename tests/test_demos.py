"""Every script in demos/ runs to completion against the package in src/,
and prints the same bytes each time."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
# demo -> sha256 of its stdout
DEMOS = {
    "carlitz_basics.py": "9323fbce8f7ea48c9780f13599c1151490deaa4148907cca32cb0e5642b46995",
    "class_number_identity.py":
        "b7b003249230b277fc03e14b7d1375ddd94c1cc825662fddb77ff0a5d44d55bf",
    "flagship_tower.py": "7d5d277e39f8f959f3ce4a4cab2c248166d8e6d8f2ff6fb0a7a8a4902a6c814b",
}


def test_every_demo_is_listed():
    assert sorted(p.name for p in (ROOT / "demos").glob("*.py")) == sorted(DEMOS)


@pytest.mark.parametrize("demo, sha256", list(DEMOS.items()), ids=list(DEMOS))
def test_demo_runs(demo, sha256):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / demo)], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert hashlib.sha256(proc.stdout.encode()).hexdigest() == sha256
