"""The quick demos run clean: each is started as its own process from an empty
working directory with ``src`` on ``PYTHONPATH`` and must exit 0 with nothing
on stderr.

Demos 03 and 04 run whole campaigns (about 1-2 s each) whose scenarios the
golden outputs already cover, so they are left out to keep the suite fast.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = ("01_geometry_and_path_loss.py", "02_single_draw_optimization.py",
         "05_complexity_accounting.py")


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_runs_clean(demo, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / demo)],
                          cwd=tmp_path, env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
