"""Independent checks of every artifact a benchmark operation writes.

The reference values come from the paper's closed forms, evaluated here
with mpmath (and, for whole curves, in extended precision), never with the
package's own functions. :func:`check` returns the list of problems it
found; an empty list means the operation succeeded.
"""

from __future__ import annotations

import hashlib
import json
import re
from pathlib import Path

import mpmath as mp
import numpy as np

BOUNDS_TOL = 1e-13
CLONER_TOL = 1e-9
UNITARITY_MAX = 1e-10
ATTAINMENT_MAX = 1e-5
#: Curve rows checked with mpmath; every row is checked in long double.
MP_ROWS = 256
MP_DPS = 40
SWEEPS = ("lemma1", "lemma2", "lemma3", "lemma4", "gate_approx")

_TIMESTAMP = re.compile(rb'"timestamp": "[^"]*"')
_SWEEP_LINE = re.compile(
    r"^(\w+): trials=(\d+) min_slack=(\S+) violations=(\d+)$")


# Closed forms, written once against a math module: mpmath or numpy.

def re_floor(m, z):
    return z - z * z / m.sqrt(1 + z * z)


def ae_floor(m, z):
    return z * m.sqrt(1 - z**4) - z * z * m.sqrt(1 - z * z)


def hb_floor(m, z):
    return 2 * (m.sqrt(1 + z * (1 - z)) - 1)


def re_sym(z):
    inside = (1 + z + z * z) / (1 + z + z * z + z**3) - 1 / mp.sqrt(1 + z * z)
    return mp.sqrt(2) * mp.sqrt(inside)


def re_wz_quoted(z):
    return mp.sqrt(3) * z / mp.sqrt(1 + z * z)


def cloner_forms(kind: str, z) -> dict:
    """ae, re and per-state x of one machine at overlap z (mpmath)."""
    if kind == "asym":
        # Favoring phi: phi is copied perfectly, psi carries D - d.
        ae = ae_floor(mp, z)
        return {"ae": ae, "re": re_floor(mp, z), "x_phi": mp.mpf(0), "x_psi": ae}
    if kind == "sym":
        x = mp.sin((mp.acos(z * z) - mp.acos(z)) / 2)
        return {"ae": 2 * x, "re": re_sym(z), "x_phi": x, "x_psi": x}
    # Basis copier: x(psi) = sqrt(3) z sqrt(1 - z^2). Its relative error
    # divides by the sine of the angle between its own flagged ideals,
    # whose cosine is z^5 / sqrt(z^6 + (1 - z^2)^3).
    x = mp.sqrt(3) * z * mp.sqrt(1 - z * z)
    cos_ideal_sq = z**10 / (z**6 + (1 - z * z) ** 3)
    return {"ae": x, "re": x / mp.sqrt(1 - cos_ideal_sq),
            "x_phi": mp.mpf(0), "x_psi": x}


def overlap(phi, psi):
    """|<phi|psi>| / (|phi| |psi|) of two [[re, im], ...] lists (mpmath)."""
    a = [mp.mpc(*pair) for pair in phi]
    b = [mp.mpc(*pair) for pair in psi]
    dot = mp.fsum(mp.conj(x) * y for x, y in zip(a, b))
    norm_a = mp.sqrt(mp.fsum(abs(x) ** 2 for x in a))
    norm_b = mp.sqrt(mp.fsum(abs(y) ** 2 for y in b))
    return abs(dot) / (norm_a * norm_b)


def _off(name: str, got, want, tol: float) -> list[str]:
    if not isinstance(got, (int, float)):
        return [f"{name}: expected a number, got {got!r}"]
    err = abs(mp.mpf(got) - want)
    if not err <= tol:
        return [f"{name} = {got!r} misses {mp.nstr(want, 17)} by "
                f"{mp.nstr(err, 3)}"]
    return []


def _check_curve(name: str, z: np.ndarray, got: np.ndarray, form) -> list[str]:
    zl = z.astype(np.longdouble)
    err = np.abs(got.astype(np.longdouble) - form(np, zl))
    bad = np.flatnonzero(~(err <= BOUNDS_TOL))
    if bad.size:
        i = int(bad[0])
        return [f"{name}: {bad.size} rows off, first z={float(z[i])!r} "
                f"by {float(err[i]):.3e}"]
    problems = []
    with mp.workdps(MP_DPS):
        for i in np.unique(np.linspace(0, z.size - 1, MP_ROWS).astype(int)):
            problems += _off(f"{name} at z={float(z[i])!r}", float(got[i]),
                             form(mp, mp.mpf(float(z[i]))), BOUNDS_TOL)
    return problems


def _read_csv(path: Path, header: str) -> np.ndarray:
    with open(path, encoding="utf-8") as fh:
        first = fh.readline().rstrip("\n")
        if first != header:
            raise ValueError(f"{path.name} header is {first!r}, not {header!r}")
        return np.loadtxt(fh, delimiter=",", ndmin=2)


def _check_bounds(op, out: Path) -> list[str]:
    e = op.expect
    if e["fmt"] == "csv":
        fig1 = _read_csv(out / "fig1.csv", "z,value")
        fig2 = _read_csv(out / "fig2.csv", "z,ae_bound,hb_bound")
        json.loads((out / "run.manifest.json").read_text(encoding="utf-8"))
        z1, f = fig1.T
        z2, ae, hb = fig2.T
    else:
        d1 = json.loads((out / "fig1.json").read_text(encoding="utf-8"))
        d2 = json.loads((out / "fig2.json").read_text(encoding="utf-8"))
        z1, f = np.array(d1["z"]), np.array(d1["values"])
        z2, ae, hb = (np.array(d2[k]) for k in ("z", "ae_bound", "hb_bound"))
    problems = []
    for name, z in (("fig1 z", z1), ("fig2 z", z2)):
        if z.size != e["steps"] or z[0] != e["z_min"] or z[-1] != e["z_max"]:
            problems.append(f"{name}: {z.size} rows over [{z[0]}, {z[-1]}], "
                            f"expected {e['steps']} over "
                            f"[{e['z_min']}, {e['z_max']}]")
        elif not np.all(np.diff(z) > 0):
            problems.append(f"{name}: grid is not increasing")
    if problems:
        return problems
    return (_check_curve("F(z)", z1, f, re_floor)
            + _check_curve("ae floor", z2, ae, ae_floor)
            + _check_curve("older floor", z2, hb, hb_floor))


def _check_cloner(op, report: dict, workdir: Path) -> list[str]:
    e = op.expect
    with mp.workdps(MP_DPS):
        if "z" in e:
            z = mp.mpf(e["z"])
        else:
            pair = json.loads((workdir / e["states"]).read_text(encoding="utf-8"))
            z = overlap(pair["phi"], pair["psi"])
        forms = cloner_forms(e["kind"], z)
        per_state = report["per_state"]
        closed = report["closed_form"]
        problems = (
            _off("z", report["z"], z, CLONER_TOL)
            + _off("ae", report["ae"], forms["ae"], CLONER_TOL)
            + _off("re", report["re"], forms["re"], CLONER_TOL)
            + _off("x(phi)", per_state["phi"]["x"], forms["x_phi"], CLONER_TOL)
            + _off("x(psi)", per_state["psi"]["x"], forms["x_psi"], CLONER_TOL)
            + _off("re_floor", closed["re_floor"], re_floor(mp, z), CLONER_TOL)
            + _off("ae_floor", closed["ae_floor"], ae_floor(mp, z), CLONER_TOL)
            + _off("hb_floor", closed["hb_floor"], hb_floor(mp, z), CLONER_TOL)
            + _off("re_sym", closed["re_sym"], re_sym(z), CLONER_TOL)
            + _off("re_wz_quoted", closed["re_wz_quoted"], re_wz_quoted(z),
                   CLONER_TOL)
        )
    residual = report["unitarity_residual"]
    if not residual < UNITARITY_MAX:
        problems.append(f"unitarity_residual {residual!r} >= {UNITARITY_MAX}")
    return problems


def _check_lemmas(op, stdout: str) -> list[str]:
    rows = [_SWEEP_LINE.match(line) for line in stdout.splitlines()]
    names = tuple(m.group(1) for m in rows if m)
    if None in rows or names != SWEEPS:
        return [f"lemmas printed {stdout!r}, expected one line per sweep "
                f"{SWEEPS}"]
    problems = []
    for m in rows:
        name, trials, _, violations = m.groups()
        if int(trials) != op.expect["trials"]:
            problems.append(f"{name}: {trials} trials, expected "
                            f"{op.expect['trials']}")
        if int(violations):
            problems.append(f"{name}: {violations} violations")
    return problems


def _check_verify(op, report: dict) -> list[str]:
    problems = []
    if report["violations"] != 0:
        problems.append(f"verify: {report['violations']} violations")
    gap = report["max_attainment_gap"]
    if not gap < ATTAINMENT_MAX:
        problems.append(f"verify: max_attainment_gap {gap!r} >= {ATTAINMENT_MAX}")
    zs = tuple(p["z"] for p in report["points"])
    if zs != tuple(op.expect["z"]):
        return problems + [f"verify: points at z={zs}, expected {op.expect['z']}"]
    with mp.workdps(MP_DPS):
        for p in report["points"]:
            z = mp.mpf(p["z"])
            problems += _off(f"bound_ae at z={p['z']}", p["bound_ae"],
                             ae_floor(mp, z), BOUNDS_TOL)
            problems += _off(f"bound_re at z={p['z']}", p["bound_re"],
                             re_floor(mp, z), BOUNDS_TOL)
    return problems


def check(op, exit_code: int, stdout: bytes, workdir: Path) -> list[str]:
    """Problems with one finished operation whose paths are relative to
    ``workdir``."""
    if exit_code != 0:
        return [f"exit code {exit_code}"]
    try:
        if op.command == "bounds":
            return _check_bounds(op, workdir / op.out)
        if op.command == "lemmas":
            return _check_lemmas(op, stdout.decode("utf-8"))
        report = json.loads((workdir / op.out).read_text(encoding="utf-8"))
        if op.command == "cloner":
            return _check_cloner(op, report, workdir)
        return _check_verify(op, report)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return [f"unreadable output: {type(exc).__name__}: {exc}"]


def artifacts(op, stdout: bytes, workdir: Path) -> list[tuple[str, bytes]]:
    """(name, bytes) of everything the operation wrote, in a fixed order."""
    if op.out is None:
        return [("stdout", stdout)]
    out = workdir / op.out
    if out.is_dir():
        return [(p.name, p.read_bytes()) for p in sorted(out.iterdir())]
    return [(out.name, out.read_bytes())]


def digest(items: list[tuple[str, bytes]]) -> str:
    """sha256 of the artifacts with only the manifest timestamp blanked,
    as the determinism acceptance test compares them."""
    h = hashlib.sha256()
    for name, data in items:
        h.update(name.encode() + b"\0")
        h.update(_TIMESTAMP.sub(b'"timestamp": "X"', data) + b"\0")
    return h.hexdigest()
