"""Each demo runs clean from a scratch directory against the source tree."""

import hashlib
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_all_five_demos_are_collected():
    assert [demo.name for demo in DEMOS] == [
        "chords_and_scales.py",
        "counterpoint_search.py",
        "graph_metrics.py",
        "modular_basics.py",
        "render_song.py",
    ]


def _run_demo(tmp_path, demo):
    # A copy in tmp_path keeps files a demo writes beside itself out of the tree.
    script = tmp_path / demo.name
    shutil.copy(demo, script)
    path = os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])
    return subprocess.run(
        [sys.executable, str(script)],
        capture_output=True, text=True, cwd=tmp_path,
        env=dict(os.environ, PYTHONPATH=path), check=False,
    )


@pytest.mark.parametrize("demo", DEMOS, ids=lambda demo: demo.name)
def test_demo_runs_clean(tmp_path, demo):
    proc = _run_demo(tmp_path, demo)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    assert proc.stdout


def test_counterpoint_search_demo_prints_the_pinned_text(tmp_path):
    # The demo prints no floats, so its text is the same on every platform.
    proc = _run_demo(tmp_path, ROOT / "demos" / "counterpoint_search.py")
    assert proc.returncode == 0, proc.stderr
    assert hashlib.sha256(proc.stdout.encode()).hexdigest() == (
        "e9c00d55f301721bf9ede16c296b8d26e3d3c120f9ba5f939aa0a8ce66d5f4f9"
    )
