"""Golden corpus: the outputs of seeded commands, pinned byte for byte.

Each text file in ``golden/`` is one command's stdout, and each file in a
subdirectory ``golden/<name>/`` one file that a command wrote to its
``--out`` directory; the manifest timestamp is blanked in all of them.
Every file is compared exactly, on every host. ``golden/fingerprint.json``
records the numpy, scipy and OpenBLAS versions, the SIMD targets numpy
dispatches to and the kernel OpenBLAS picked on the host that wrote the
corpus; a failure names it beside this host's. ``OPENBLAS_CORETYPE``,
``OPENBLAS_NUM_THREADS`` and ``NPY_DISABLE_CPU_FEATURES`` make this process
imitate another host. ``lemmas.txt`` is compared twice: once with the
sweeps on one worker per usable CPU, once with them on a single worker.

Rewrite the corpus with ``PYTHONPATH=src python tests/test_golden.py``.
A change to it is a change to a seeded output and is declared as one.
"""

from __future__ import annotations

import contextlib
import ctypes
import io
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
import scipy

from clonebound import geometry
from clonebound.cli import main
from test_cli import strip_timestamp

pytestmark = pytest.mark.host_bits

GOLDEN = Path(__file__).with_name("golden")
#: The versions CI installs, one ``name==version`` a line.
CONSTRAINTS = Path(__file__).parents[1] / ".github" / "constraints.txt"
COMMANDS = {
    "verify.json": ["verify", "--z", "0.1,0.5,0.9", "--restarts", "20", "--seed", "1"],
    "lemmas.txt": ["lemmas", "--trials", "20000", "--seed", "3"],
    **{f"cloner-{kind}.json": ["cloner", kind, "--z", "0.5", "--seed", "0"]
       for kind in ("sym", "asym", "wz")},
    **{f"cloner-{kind}-z0.37.json": ["cloner", kind, "--z", "0.37", "--seed", "0"]
       for kind in ("sym", "asym", "wz")},
}
#: Commands whose files in ``--out`` are pinned, each in ``golden/<name>/``.
FILE_COMMANDS = {
    "bounds-csv": ["bounds", "--steps", "201", "--seed", "0"],
    "bounds-json": ["bounds", "--steps", "201", "--format", "json", "--seed", "0"],
    "bounds-range": ["bounds", "--z-min", "0.2", "--z-max", "0.7", "--steps", "33",
                     "--format", "json", "--seed", "0"],
}


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
    """The numpy, scipy and BLAS versions, the SIMD targets numpy is built
    for and dispatches to, and OpenBLAS's kernel. verify's best
    points follow the path of scipy's L-BFGS-B routine ``setulb``."""
    config = np.show_config(mode="dicts")
    simd = config["SIMD Extensions"]
    return {"numpy": np.__version__, "scipy": scipy.__version__,
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


def assert_matches_golden(name: str, got: str) -> None:
    """``got`` against ``golden/<name>``, byte for byte, whatever the host."""
    want = (GOLDEN / name).read_text(encoding="utf-8")
    recorded = json.loads((GOLDEN / "fingerprint.json").read_text())
    assert got == want, f"{name} (fingerprint {fingerprint()}, the corpus's {recorded})"


@pytest.mark.parametrize("name, cpus", [
    *(pytest.param(name, None, id=name) for name in sorted(COMMANDS)),
    # The sweeps run one worker per usable CPU; their bytes must not depend on it.
    pytest.param("lemmas.txt", 1, id="lemmas.txt-one-worker"),
])
def test_output_matches_the_golden_corpus(name, cpus, monkeypatch):
    if cpus is not None:
        monkeypatch.setattr(geometry, "_usable_cpus", lambda: cpus)
    assert_matches_golden(name, stdout_of(COMMANDS[name]))


@pytest.mark.parametrize("name", sorted(FILE_COMMANDS))
def test_files_match_the_golden_corpus(name):
    files = files_of(FILE_COMMANDS[name])
    assert sorted(files) == sorted(p.name for p in (GOLDEN / name).iterdir())
    for file, text in files.items():
        assert_matches_golden(f"{name}/{file}", text)


def test_ci_pins_the_corpus_toolchain():
    # CI installs the numpy and scipy that wrote the corpus: a bumped pin
    # must come with a corpus rewritten under it.
    pins = dict(line.split("==") for line in CONSTRAINTS.read_text().split())
    recorded = json.loads((GOLDEN / "fingerprint.json").read_text())
    assert {k: pins[k] for k in ("numpy", "scipy")} == {
        k: recorded[k] for k in ("numpy", "scipy")}


@pytest.mark.parametrize("host", ["recorded", "another"])
def test_one_ulp_fails_whatever_the_fingerprint(host, monkeypatch):
    sym = (GOLDEN / "cloner-sym.json").read_text(encoding="utf-8")
    ae = json.loads(sym)["ae"]
    one_ulp = sym.replace(f'"ae": {ae!r}', f'"ae": {float(np.nextafter(ae, 1.0))!r}')
    verify = (GOLDEN / "verify.json").read_text(encoding="utf-8")
    trials = verify.replace('"seed": ', '"trials": 10954,\n      "seed": ', 1)
    assert one_ulp != sym and trials != verify
    recorded = json.loads((GOLDEN / "fingerprint.json").read_text())
    here = recorded if host == "recorded" else {"openblas_core": "another"}
    monkeypatch.setitem(globals(), "fingerprint", lambda: here)
    for name, text in (("cloner-sym.json", one_ulp), ("verify.json", trials)):
        with pytest.raises(AssertionError):
            assert_matches_golden(name, text)


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
