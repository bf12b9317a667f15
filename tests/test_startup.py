"""Start-up cost: every command pays for the modules ska.cli imports, which
the benchmark reports as setup_s. Importing ska.cli loads, beyond what
`import numpy` loads, only the modules listed in cli_imports.txt beside this
file; a new import is accepted by adding it there."""

import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
PROBE = ("import sys, numpy\n"
         "before = set(sys.modules)\n"
         "import ska.cli\n"
         "print('\\n'.join(sorted(set(sys.modules) - before)))\n")


def test_cli_imports_only_listed_modules_beyond_numpy():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(HERE.parent / "src"), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", PROBE], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stdout.split())
    listed = {line for line in (HERE / "cli_imports.txt").read_text().splitlines()
              if line and not line.startswith("#")}
    assert "ska.cli" in loaded
    assert loaded <= listed, f"imports not in cli_imports.txt: {sorted(loaded - listed)}"
