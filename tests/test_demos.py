"""Every script in ``demos/`` runs to its end as a fresh process.

Each demo runs as ``python demos/<name>.py`` with this checkout's ``src`` on
``PYTHONPATH`` and under the warning options and development mode of the
interpreter running the tests, so a warning that would fail a test fails a
demo too. It must exit 0, print its walk-through and write nothing to stderr.
"""

import os
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
    flags = [f"-W{option}" for option in sys.warnoptions]
    if sys.flags.dev_mode:
        flags += ["-X", "dev"]
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, *flags, str(demo)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    assert proc.stdout.strip()
