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


def run_demo(name, tmp_path):
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path, TMPDIR=str(tmp_path))
    run = subprocess.run([sys.executable, str(DEMOS / name)], env=env, cwd=tmp_path,
                         capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    assert run.stdout


@pytest.mark.parametrize("name", sorted(p.name for p in DEMOS.glob("0[1-5]_*.py")))
def test_demo_exits_cleanly(name, tmp_path):
    run_demo(name, tmp_path)


def test_connectivity_demo_reuses_one_bitmap_dir(tmp_path):
    # the bitmaps land in one fixed directory under the working directory,
    # overwritten by each run, neither piling up there nor under TMPDIR
    for _ in range(2):
        run_demo("05_connectivity.py", tmp_path)
    dirs = {p.parent for p in tmp_path.rglob("*.pgm")}
    assert dirs == {tmp_path / "connectivity_pgms"}
    assert len(list((tmp_path / "connectivity_pgms").iterdir())) == 32
