"""Golden corpus: the outputs of seeded commands, pinned byte for byte.

Each text file in ``golden/`` is one command's stdout, and each file in a
subdirectory ``golden/<name>/`` one file that a command wrote to its
``--out`` directory; the manifest timestamp is blanked in all of them.
``golden/fingerprint.json`` records the numpy and OpenBLAS versions, the
SIMD targets numpy dispatches to and the kernel OpenBLAS picked on the host
that wrote the corpus: numpy picks its ``arccos`` and ``sin`` kernels by
CPU, OpenBLAS its dot-product kernels, and L-BFGS-B amplifies last-bit
differences. Where the fingerprint matches, the comparison is exact;
elsewhere (``tolerant_mismatches``) text and integers must match exactly
and floats to a relative ``FLOAT_REL``, with two exceptions: a corpus
float within ``ZERO_ABS`` of 0, a rounding residual such as
``unitarity_residual``, matches any value within ``ZERO_ABS`` of it, and
the values of ``"trials"`` are not compared, since they count L-BFGS-B's
evaluations, which last bits move. ``OPENBLAS_CORETYPE=Haswell`` and
``NPY_DISABLE_CPU_FEATURES`` make this process imitate another host.

Rewrite the corpus with ``PYTHONPATH=src python tests/test_golden.py``.
A change to it is a change to a seeded output and is declared as one.
"""

from __future__ import annotations

import contextlib
import ctypes
import io
import json
import math
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest

from clonebound.cli import main
from test_cli import strip_timestamp

GOLDEN = Path(__file__).with_name("golden")
COMMANDS = {
    "verify.json": ["verify", "--z", "0.1,0.5,0.9", "--restarts", "20", "--seed", "1"],
    "lemmas.txt": ["lemmas", "--trials", "20000", "--seed", "3"],
    **{f"cloner-{kind}.json": ["cloner", kind, "--z", "0.5", "--seed", "0"]
       for kind in ("sym", "asym", "wz")},
}
#: Commands whose files in ``--out`` are pinned, each in ``golden/<name>/``.
FILE_COMMANDS = {
    "bounds-csv": ["bounds", "--steps", "201", "--seed", "0"],
    "bounds-json": ["bounds", "--steps", "201", "--format", "json", "--seed", "0"],
    "bounds-range": ["bounds", "--z-min", "0.2", "--z-max", "0.7", "--steps", "33",
                     "--format", "json", "--seed", "0"],
}
FLOAT_REL = 1e-12
ZERO_ABS = 1e-15
# Split on numbers, kept: text sits at even indices, numbers at odd ones.
_NUMBERS = re.compile(r"(-?\d+(?:\.\d+)?(?:[eE][-+]?\d+)?)")


def openblas_core() -> str | None:
    """The kernel that numpy's bundled OpenBLAS picked for this CPU (or that
    ``OPENBLAS_CORETYPE`` named); None where numpy bundles no such library."""
    for lib in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        try:
            get = getattr(ctypes.CDLL(str(lib)), "scipy_openblas_get_corename64_", None)
        except OSError:
            continue
        if get is not None:
            get.argtypes, get.restype = [], ctypes.c_char_p
            return get().decode()
    return None


def fingerprint() -> dict:
    """numpy's and its BLAS's versions, the SIMD targets numpy is built for
    and dispatches to, and OpenBLAS's kernel."""
    config = np.show_config(mode="dicts")
    simd = config["SIMD Extensions"]
    return {"numpy": np.__version__,
            "blas": config["Build Dependencies"]["blas"]["version"],
            # numpy leaves "found" out when it dispatches to no target.
            "cpu_baseline": simd["baseline"], "cpu_dispatch": simd.get("found", []),
            "openblas_core": openblas_core()}


def stdout_of(argv) -> str:
    """``argv``'s stdout with the timestamp blanked; the command must exit 0."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(argv))
    assert code == 0, (argv, code)
    return strip_timestamp(out.getvalue())


def files_of(argv) -> dict[str, str]:
    """The files ``argv`` writes to a fresh ``--out`` directory, by name,
    with the timestamp blanked; the command must exit 0."""
    with tempfile.TemporaryDirectory() as out:
        stdout_of([*argv, "--out", out])
        return {p.name: strip_timestamp(p.read_text(encoding="utf-8"))
                for p in sorted(Path(out).iterdir())}


def tolerant_mismatches(want: str, got: str) -> list[str]:
    """Where ``got`` departs from ``want``: text and integers exactly, floats
    (numbers with a point or an exponent) beyond a relative ``FLOAT_REL``,
    or beyond ``ZERO_ABS`` where ``want`` holds a float within ``ZERO_ABS``
    of 0; a ``"trials"`` value is not compared."""
    a, b = _NUMBERS.split(want), _NUMBERS.split(got)
    if len(a) != len(b):
        return [f"{len(a) // 2} numbers expected, {len(b) // 2} found"]
    bad = []
    for i, (x, y) in enumerate(zip(a, b)):
        if i % 2 and a[i - 1].endswith('"trials": '):
            continue
        if i % 2 and re.search("[.eE]", x) and re.search("[.eE]", y):
            zero = ZERO_ABS if abs(float(x)) <= ZERO_ABS else 0.0
            if not math.isclose(float(x), float(y), rel_tol=FLOAT_REL, abs_tol=zero):
                bad.append(f"float {x} != {y}")
        elif x != y:
            bad.append(f"{x!r} != {y!r}")
    return bad


def assert_matches_golden(name: str, got: str) -> None:
    """``got`` against ``golden/<name>``: exactly where the fingerprint
    matches, else with ``tolerant_mismatches``."""
    want = (GOLDEN / name).read_text(encoding="utf-8")
    recorded, here = json.loads((GOLDEN / "fingerprint.json").read_text()), fingerprint()
    if recorded == here:
        assert got == want, f"exact comparison (fingerprint {here} matches): {name}"
    else:
        bad = tolerant_mismatches(want, got)
        assert not bad, (f"tolerant comparison, floats to rel {FLOAT_REL} (fingerprint "
                         f"{here} differs from the corpus's {recorded}): {name}: {bad}")


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_output_matches_the_golden_corpus(name):
    assert_matches_golden(name, stdout_of(COMMANDS[name]))


@pytest.mark.parametrize("name", sorted(FILE_COMMANDS))
def test_files_match_the_golden_corpus(name):
    files = files_of(FILE_COMMANDS[name])
    assert sorted(files) == sorted(p.name for p in (GOLDEN / name).iterdir())
    for file, text in files.items():
        assert_matches_golden(f"{name}/{file}", text)


def test_tolerant_comparison_bounds_floats_only():
    want = ('{"x": 0.1234567890123456, "n": 20000, "s": "lemma1", "r": 0.0, '
            '"y": 1e-17, "u": 1.1102230246251565e-16, "g": 7.816081e-12, '
            '"trials": 10955, "sweep_trials": 20}')
    # A corpus float within ZERO_ABS of 0 is held within ZERO_ABS; a larger
    # one, however small, to a relative FLOAT_REL.
    for old, new in (("23456,", "234561,"), ("0.0,", "2.7755575615628914e-16,"),
                     ("0.0,", "-1e-15,"), ("10955", "10953"), ("1e-17", "2e-17"),
                     ("1e-17", "1.00000000001e-17"),
                     ("1.1102230246251565e-16", "1.6653345369377348e-16")):
        assert tolerant_mismatches(want, want.replace(old, new)) == [], (old, new)
    for old, new in (("0123456,", "0133456,"), ("20000", "20001"), ("lemma1", "lemma2"),
                     ("20000", "20000.0"), ('"s"', '"t"'), ("}", ", 1}"),
                     ("0.0,", "1.1e-15,"), ("7.816081e-12", "7.817081e-12"),
                     ("20}", "21}"), ('"trials"', '"tries"')):
        assert tolerant_mismatches(want, want.replace(old, new)), (old, new)


def regenerate() -> None:
    """Rewrite every golden file and the fingerprint from this checkout."""
    GOLDEN.mkdir(exist_ok=True)
    for name, argv in COMMANDS.items():
        (GOLDEN / name).write_text(stdout_of(argv), encoding="utf-8")
    for name, argv in FILE_COMMANDS.items():
        (GOLDEN / name).mkdir(exist_ok=True)
        for file, text in files_of(argv).items():
            (GOLDEN / name / file).write_text(text, encoding="utf-8")
    (GOLDEN / "fingerprint.json").write_text(json.dumps(fingerprint(), indent=2) + "\n")


if __name__ == "__main__":
    regenerate()
