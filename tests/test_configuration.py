"""The suite's configuration reaches the processes that tests start.

``pyproject.toml`` holds the import path and the warning policy, and
``tests/conftest.py`` hands both on through the environment.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_a_child_process_inherits_the_import_path_and_the_policy(tmp_path):
    # No env=: the child imports this checkout's src, and a file it leaks
    # raises its ResourceWarning, which CPython reports as ignored because
    # garbage collection cannot pass an exception on.
    proc = subprocess.run(
        [sys.executable, "-c", "import os, clonebound; print(clonebound.__file__); "
                               "open(os.devnull)"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert Path(proc.stdout.strip()) == ROOT / "src" / "clonebound" / "__init__.py"
    assert "Exception ignored" in proc.stderr
    assert "ResourceWarning: unclosed file" in proc.stderr


def test_a_leaked_file_fails_a_test(tmp_path):
    # The warning of a file closed at garbage collection reaches pytest as
    # an unraisable exception, which the policy makes a failure.
    (tmp_path / "test_leak.py").write_text(
        "import os\n\n\ndef test_leak():\n    open(os.devnull)\n")
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q",
         "-c", str(ROOT / "pyproject.toml"), "--rootdir", str(tmp_path),
         str(tmp_path / "test_leak.py")],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "1 failed" in proc.stdout
    assert "PytestUnraisableExceptionWarning" in proc.stdout
