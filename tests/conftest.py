"""Shared pytest configuration: every child process gets the suite's setup.

``pyproject.toml`` puts ``src`` on the import path and makes resource,
deprecation and runtime warnings errors. A process that a test starts reads
neither, so ``pytest_configure`` hands them on through the environment, which
a child inherits unless it is given an ``env`` of its own: ``PYTHONPATH``
gains the ini's ``pythonpath``, ``PYTHONWARNINGS`` the ``filterwarnings``
entries that are not pytest's own, and under ``python -X dev`` the child runs
in development mode too. The variables are restored when the session ends.
A ``-W`` flag is not handed on: a filter that children should share goes in
``PYTHONWARNINGS``, which is kept, before the ini's entries.
"""

import os
import sys

import pytest


def _inherited(name):
    return [os.environ[name]] if os.environ.get(name) else []


def pytest_configure(config):
    env = {
        # This checkout's src first, then the caller's path.
        "PYTHONPATH": os.pathsep.join(
            [*map(str, config.getini("pythonpath")), *_inherited("PYTHONPATH")]),
        # The ini's entries last, so that they win over the caller's, as in
        # the session itself.
        "PYTHONWARNINGS": ",".join(
            [*_inherited("PYTHONWARNINGS"),
             *(entry for entry in config.getini("filterwarnings")
               if ":pytest." not in entry)]),
    }
    if sys.flags.dev_mode:
        env["PYTHONDEVMODE"] = "1"
    patch = pytest.MonkeyPatch()
    for name, value in env.items():
        patch.setenv(name, value)
    config.add_cleanup(patch.undo)
