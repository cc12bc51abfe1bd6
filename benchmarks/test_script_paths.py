"""The host-side benchmark scripts measure the tree they are pointed at.

``bench_hostperf.py``, ``bench_obs_overhead.py``, ``bench_stitchqueue.py``
and ``bench_tiering.py`` import ``repro`` from an explicit
``PYTHONPATH`` when one is set, and from their own checkout's ``src/``
otherwise; each prints the ``repro`` directory it imported as its first
line.  So a parent copy or a mutant can be measured with this tree's
scripts.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = ["bench_hostperf.py", "bench_obs_overhead.py",
           "bench_stitchqueue.py", "bench_tiering.py"]


def _first_line(script: str, pythonpath, cwd: Path) -> str:
    env = dict(os.environ)
    env.pop("PYTHONPATH", None)
    if pythonpath is not None:
        env["PYTHONPATH"] = str(pythonpath)
    out = subprocess.run(
        [sys.executable, str(REPO_ROOT / "benchmarks" / script), "--help"],
        cwd=str(cwd), env=env, capture_output=True, text=True, check=True)
    return out.stdout.splitlines()[0]


@pytest.fixture(scope="module")
def other_tree(tmp_path_factory) -> Path:
    """A second checkout's ``src/``: a copy of this one's package."""
    root = tmp_path_factory.mktemp("other-tree")
    shutil.copytree(REPO_ROOT / "src" / "repro", root / "src" / "repro",
                    ignore=shutil.ignore_patterns("__pycache__"))
    return root


def test_explicit_pythonpath_wins(other_tree: Path) -> None:
    line = _first_line("bench_obs_overhead.py", "src", other_tree)
    assert line == "repro: %s" % (other_tree / "src" / "repro").resolve()


@pytest.mark.parametrize("script", SCRIPTS)
def test_without_pythonpath_scripts_measure_their_checkout(
        script: str, tmp_path: Path) -> None:
    line = _first_line(script, None, tmp_path)
    assert line == "repro: %s" % (REPO_ROOT / "src" / "repro").resolve()
