"""Every script in ``demos/`` runs to its end as a fresh process.

Each demo runs as ``python demos/<name>.py`` in the environment that
``tests/conftest.py`` sets up: this checkout's ``src`` on the import path and
the suite's warning policy, so a warning that would fail a test fails a demo
too. It must exit 0, print its walk-through and write nothing to stderr.
"""

import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_every_demo_is_collected():
    assert [demo.name for demo in DEMOS] == [
        "01_bound_curves.py", "02_three_machines.py",
        "03_inequality_gallery.py", "04_tightness_search.py"]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda demo: demo.stem)
def test_demo_runs_cleanly(demo, tmp_path):
    proc = subprocess.run([sys.executable, str(demo)], cwd=tmp_path,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    assert proc.stdout.strip()
