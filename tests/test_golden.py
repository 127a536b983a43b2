"""Golden corpus: the stdout of seeded commands, pinned byte for byte.

Each text file in ``golden/`` is one command's stdout with the manifest
timestamp blanked. ``golden/fingerprint.json`` records the numpy version
and the SIMD targets numpy dispatches to on the host that wrote the
corpus: numpy picks its ``arccos`` and ``sin`` kernels by CPU, and
L-BFGS-B amplifies last-bit differences. Where the fingerprint matches,
the comparison is exact; elsewhere integers and text must match exactly
and floats to a relative ``FLOAT_REL``.

Rewrite the corpus with ``PYTHONPATH=src python tests/test_golden.py``.
A change to it is a change to a seeded output and is declared as one.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

from clonebound.cli import main
from test_cli import strip_timestamp

GOLDEN = Path(__file__).with_name("golden")
COMMANDS = {
    "verify.json": ["verify", "--z", "0.1,0.5,0.9", "--restarts", "20", "--seed", "1"],
    "lemmas.txt": ["lemmas", "--trials", "20000", "--seed", "3"],
}
FLOAT_REL = 1e-12
# Split on numbers, kept: text sits at even indices, numbers at odd ones.
_NUMBERS = re.compile(r"(-?\d+(?:\.\d+)?(?:[eE][-+]?\d+)?)")


def fingerprint() -> dict:
    """numpy's version and the SIMD targets it is built for and dispatches to."""
    simd = np.show_config(mode="dicts")["SIMD Extensions"]
    return {"numpy": np.__version__, "cpu_baseline": simd["baseline"],
            "cpu_dispatch": simd["found"]}


def stdout_of(argv) -> str:
    """``argv``'s stdout with the timestamp blanked; the command must exit 0."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(argv))
    assert code == 0, (argv, code)
    return strip_timestamp(out.getvalue())


def tolerant_mismatches(want: str, got: str) -> list[str]:
    """Where ``got`` departs from ``want``: text and integers exactly, floats
    (numbers with a point or an exponent) beyond a relative ``FLOAT_REL``."""
    a, b = _NUMBERS.split(want), _NUMBERS.split(got)
    if len(a) != len(b):
        return [f"{len(a) // 2} numbers expected, {len(b) // 2} found"]
    bad = []
    for i, (x, y) in enumerate(zip(a, b)):
        if i % 2 and re.search("[.eE]", x) and re.search("[.eE]", y):
            if not math.isclose(float(x), float(y), rel_tol=FLOAT_REL, abs_tol=0.0):
                bad.append(f"float {x} != {y}")
        elif x != y:
            bad.append(f"{x!r} != {y!r}")
    return bad


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_output_matches_the_golden_corpus(name):
    want = (GOLDEN / name).read_text()
    got = stdout_of(COMMANDS[name])
    recorded, here = json.loads((GOLDEN / "fingerprint.json").read_text()), fingerprint()
    if recorded == here:
        assert got == want, f"exact comparison (fingerprint {here} matches): {name}"
    else:
        bad = tolerant_mismatches(want, got)
        assert not bad, (f"tolerant comparison, floats to rel {FLOAT_REL} (fingerprint "
                         f"{here} differs from the corpus's {recorded}): {name}: {bad}")


def test_tolerant_comparison_bounds_floats_only():
    want = '{"x": 0.1234567890123456, "n": 20000, "s": "lemma1"}'
    assert tolerant_mismatches(want, want.replace("23456,", "234561,")) == []
    for old, new in (("0123456,", "0133456,"), ("20000", "20001"), ("lemma1", "lemma2"),
                     ("20000", "20000.0"), ('"s"', '"t"'), ("}", ", 1}")):
        assert tolerant_mismatches(want, want.replace(old, new)), (old, new)


def regenerate() -> None:
    """Rewrite every golden file and the fingerprint from this checkout."""
    GOLDEN.mkdir(exist_ok=True)
    for name, argv in COMMANDS.items():
        (GOLDEN / name).write_text(stdout_of(argv))
    (GOLDEN / "fingerprint.json").write_text(json.dumps(fingerprint(), indent=2) + "\n")


if __name__ == "__main__":
    regenerate()
