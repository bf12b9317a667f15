"""The README's examples run as written."""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_readme_python_block_runs():
    """The README holds one python block, the Library quick start, and it
    runs to the end against the package in src/."""
    blocks = re.findall(r"^```python\n(.*?)^```$", (ROOT / "README.md").read_text(),
                        re.MULTILINE | re.DOTALL)
    assert len(blocks) == 1
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", blocks[0]], env=env, capture_output=True,
                          text=True, cwd=ROOT)
    assert proc.returncode == 0, proc.stderr
