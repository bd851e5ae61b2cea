"""Smoke runs of the documented extension recipes.

``examples/custom_scheme.py`` (docs/API.md: register a scheme with only
``open_records``) and ``examples/fleet.py`` (docs/PLACEMENT.md: every
placement policy, offline and closed-loop, on a two-device fleet) run
end to end in a fresh interpreter, as a user would run them.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("example", ["custom_scheme.py", "fleet.py"])
def test_example_runs(example):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]]
                               if env.get("PYTHONPATH") else []))
    out = subprocess.run([sys.executable, str(ROOT / "examples" / example)],
                         capture_output=True, text=True, timeout=300,
                         cwd=str(ROOT), env=env)
    assert out.returncode == 0, out.stdout + out.stderr
    assert out.stdout.strip()
