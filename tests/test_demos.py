"""Each narrative script under demos/, and each ```python block of README.md,
runs to completion on its own."""

from __future__ import annotations

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import spanrel

ROOT = Path(__file__).parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
README_BLOCKS = re.findall(r"^```python\n(.*?)^```", (ROOT / "README.md").read_text(), re.M | re.S)


def _run(*args: str) -> subprocess.CompletedProcess:
    """python with args, with this spanrel importable."""
    env = os.environ.copy()
    package_root = str(Path(spanrel.__file__).parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (package_root, env.get("PYTHONPATH"))))
    done = subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env, timeout=120
    )
    assert done.returncode == 0, done.stderr
    assert "Traceback" not in done.stdout + done.stderr
    return done


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs_cleanly(demo):
    assert _run(str(demo)).stdout.strip()


@pytest.mark.parametrize(
    "block", README_BLOCKS, ids=[f"block{i}" for i in range(len(README_BLOCKS))]
)
def test_readme_python_block_runs_cleanly(block):
    _run("-c", block)
