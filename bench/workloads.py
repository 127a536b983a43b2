"""Seeded operation lists for the four benchmark workloads.

Each workload is a closed loop with one client: :func:`rounds` yields lists
of CLI operations, and the client runs every operation to completion before
it starts the next. All arguments, state files and program seeds derive
from the workload seed, so the same seed gives the same operations. Every
round runs at least one seeded operation twice, so byte-determinism is
checked in every run.

Paths in an operation's argv are relative to the run's work directory,
which is the working directory of every command.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

import numpy as np

WORKLOADS = ("quick", "curves", "verify", "lemmas")

#: What one unit of ``work_per_s`` counts, per workload.
WORK_UNITS = {
    "quick": "commands",
    "curves": "rows",
    "verify": "z points",
    "lemmas": "sweep trials",
}

CURVE_STEPS = 200_001
VERIFY_Z = (0.1, 0.5, 0.9)
VERIFY_RESTARTS = 20
LEMMA_TRIALS = 100_000
LEMMA_SWEEPS = 5
QUICK_STEPS = 201
QUICK_TRIALS = 1_000
KINDS = ("sym", "asym", "wz")


@dataclass(frozen=True)
class Op:
    """One ``python -m clonebound.cli`` invocation and what it must produce.

    Two operations with one argv must write the same bytes. ``out`` is the
    artifact path (a file, or a directory for ``bounds``); None means stdout
    is the artifact. ``expect`` holds what the oracle needs to judge the
    output.
    """

    argv: tuple[str, ...]
    work: float
    out: str | None
    expect: dict

    @property
    def command(self) -> str:
        return self.argv[0]


def _seed(rng: np.random.Generator) -> int:
    return int(rng.integers(0, 2**31 - 1))


def _op(argv: list[str], work: float, out: str | None, **expect) -> Op:
    return Op(argv=tuple(argv), work=work, out=out, expect=expect)


def _bounds(n: int, steps: int, fmt: str, z_min: float, z_max: float,
            seed: int, work: float) -> Op:
    out = f"out/o{n}"
    argv = ["bounds", "--steps", str(steps), "--format", fmt,
            "--out", out, "--seed", str(seed)]
    if (z_min, z_max) != (0.0, 1.0):
        argv[1:1] = ["--z-min", repr(z_min), "--z-max", repr(z_max)]
    return _op(argv, work, out, steps=steps, fmt=fmt, z_min=z_min, z_max=z_max)


def haar_pair(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Two independent Haar-random unit vectors of dimension ``dim``."""
    v = rng.standard_normal((2, dim)) + 1j * rng.standard_normal((2, dim))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def _write_pair(path: Path, pair: np.ndarray) -> None:
    payload = {key: [[float(a.real), float(a.imag)] for a in vec]
               for key, vec in zip(("phi", "psi"), pair)}
    path.write_text(json.dumps(payload), encoding="utf-8")


def _quick_round(rng, n: int, workdir: Path) -> list[Op]:
    z = float(rng.uniform(0.01, 0.99))
    kind = KINDS[int(rng.integers(3))]
    out = f"out/o{n}.json"
    ops = [_op(["cloner", kind, "--z", repr(z), "--out", out], 1, out,
               kind=kind, z=z)]

    pair = haar_pair(rng, int(rng.integers(2, 9)))
    state_file = f"in/pair{n + 1}.json"
    _write_pair(workdir / state_file, pair)
    kind = KINDS[int(rng.integers(3))]
    out = f"out/o{n + 1}.json"
    ops.append(_op(["cloner", kind, "--states", state_file, "--out", out], 1,
                   out, kind=kind, states=state_file))

    ops.append(_bounds(n + 2, QUICK_STEPS, "csv", 0.0, 1.0, _seed(rng), 1))
    ops.append(_bounds(n + 3, QUICK_STEPS, "json", 0.0, 1.0, _seed(rng), 1))
    ops.append(_op(["lemmas", "--trials", str(QUICK_TRIALS), "--seed",
                    str(_seed(rng))], 1, None, trials=QUICK_TRIALS))
    # One operation of the round runs twice: the determinism check.
    ops.append(ops[int(rng.integers(len(ops)))])
    return ops


def _curve_range(rng) -> tuple[float, float]:
    if rng.random() < 0.5:
        return 0.0, 1.0
    z_min = round(float(rng.uniform(0.0, 0.5)), 3)
    return z_min, round(float(rng.uniform(z_min + 0.3, 1.0)), 3)


def _curves_round(rng, n: int, workdir: Path) -> list[Op]:
    # One CSV and one JSON op per round keeps every run's format mix equal.
    ops = []
    for i, fmt in enumerate(("csv", "json")):
        z_min, z_max = _curve_range(rng)
        op = _bounds(n + i, CURVE_STEPS, fmt, z_min, z_max, _seed(rng),
                     2 * CURVE_STEPS)
        ops += [op, op]
    return ops


def _verify_round(rng, n: int, workdir: Path) -> list[Op]:
    out = f"out/o{n}.json"
    argv = ["verify", "--z", ",".join(map(str, VERIFY_Z)),
            "--restarts", str(VERIFY_RESTARTS), "--seed", str(_seed(rng)),
            "--out", out]
    op = _op(argv, len(VERIFY_Z), out, z=VERIFY_Z)
    return [op, op]


def _lemmas_round(rng, n: int, workdir: Path) -> list[Op]:
    argv = ["lemmas", "--trials", str(LEMMA_TRIALS), "--dims", "2-8",
            "--seed", str(_seed(rng))]
    op = _op(argv, LEMMA_SWEEPS * LEMMA_TRIALS, None, trials=LEMMA_TRIALS)
    return [op, op]


_ROUNDS = {
    "quick": _quick_round,
    "curves": _curves_round,
    "verify": _verify_round,
    "lemmas": _lemmas_round,
}


def rounds(workload: str, seed: int, workdir: Path) -> Iterator[list[Op]]:
    """Endless rounds of operations for ``workload`` under ``seed``.

    Input files are written into ``workdir/in`` as rounds are generated.
    """
    rng = np.random.default_rng([WORKLOADS.index(workload), seed])
    make = _ROUNDS[workload]
    (workdir / "in").mkdir(parents=True, exist_ok=True)
    (workdir / "out").mkdir(parents=True, exist_ok=True)
    n = 0
    while True:
        ops = make(rng, n, workdir)
        n += len(ops)
        yield ops

