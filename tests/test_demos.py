"""Each narrative script under demos/ runs to completion on its own."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

import spanrel

DEMOS = sorted((Path(__file__).parent.parent / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs_cleanly(demo):
    env = os.environ.copy()
    env.pop("SPANREL_CONFIG", None)
    package_root = str(Path(spanrel.__file__).parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (package_root, env.get("PYTHONPATH"))))
    done = subprocess.run(
        [sys.executable, str(demo)], capture_output=True, text=True, env=env, timeout=120
    )
    assert done.returncode == 0, done.stderr
    assert "Traceback" not in done.stdout + done.stderr
    assert done.stdout.strip()
