"""Each quick demo runs to completion. Demo 06 (training, about 13 s) is left
out; the training tests cover that path."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import winmix

DEMOS = Path(__file__).resolve().parents[1] / "demos"
SRC = Path(winmix.__file__).resolve().parents[1]


@pytest.mark.parametrize("name", sorted(p.name for p in DEMOS.glob("0[1-5]_*.py")))
def test_demo_exits_cleanly(name, tmp_path):
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path, TMPDIR=str(tmp_path))  # demo 05 writes bitmaps
    run = subprocess.run([sys.executable, str(DEMOS / name)], env=env, cwd=tmp_path,
                         capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    assert run.stdout
