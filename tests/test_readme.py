"""The python examples of README.md run as written."""

import os
import re
import subprocess
import sys
from pathlib import Path

from monosmt.cli import main

ROOT = Path(__file__).resolve().parent.parent


def test_readme_python_blocks_run(tmp_path):
    # The library block reads maze.gnf from the working directory; the
    # hand-wiring block prints the verdict of its solver.
    assert main(["gen", "maze", "8", "8", "--seed", "0",
                 "-o", str(tmp_path / "maze.gnf")]) == 0
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```$", readme, re.M | re.S)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    outputs = []
    for block in blocks:
        proc = subprocess.run([sys.executable, "-c", block], cwd=tmp_path,
                              env=env, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout)
    assert outputs == ["", "UNSAT\n"]
