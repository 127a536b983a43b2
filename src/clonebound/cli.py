"""Command-line front-end.

Four subcommands:

* ``bounds``  sample the error lower-bound curves to CSV or JSON,
* ``cloner``  build one machine and report its full error analysis,
* ``lemmas``  run the seeded random sweeps of the inequality suite,
* ``verify``  optimize and sweep to confirm the bounds are tight floors.

Exit codes: 0 success, 1 usage or domain error (an input too large for
memory included), 2 I/O error (a failed write to stdout included),
3 invariant violation, 4 attainment failure, 130 interrupted (128 +
SIGINT). Commands raise ``ValueError`` for a bad input and let an
``OSError`` from a write or a ``KeyboardInterrupt`` through; ``main``
alone turns these into codes 1, 2 and 130 with a one-line message, while
``lemmas`` and ``verify`` return their verdicts 3 and 4, judged at
``geometry.DEFAULT_SWEEP_TOL``, which no flag or environment variable sets.
With a fixed ``--seed`` (default ``CLONEBOUND_SEED``) every data file is
reproduced byte for byte, but for the manifest timestamp on its own line.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import sys
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__, cloners
from .bounds import (
    ae_lower_bound,
    hb_bound,
    re_lower_bound,
    sample_curve,
    table_csv,
)
from .cloners import closed_form_re_s, closed_form_re_wz
from .cloning import TwoStateSet, unitarity_residual
from .geometry import ALL_SWEEPS, DEFAULT_SWEEP_TOL, _violations
from .search import verify_point
from .statespace import norm

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_IO = 2
EXIT_VIOLATION = 3
EXIT_ATTAINMENT = 4

#: Rows (CSV) or list elements (JSON) per piece of a written file, so a
#: ``bounds`` file is never held whole in memory.
WRITE_BLOCK = 8192


def _manifest(command: str, parameters: dict, seed: int) -> dict:
    """Provenance record embedded in or accompanying every artifact."""
    return {"command": command, "parameters": parameters, "seed": seed,
            "tool_version": __version__,
            "timestamp": datetime.now(timezone.utc).isoformat()}


class _Parser(argparse.ArgumentParser):
    """argparse with the exit-code contract (usage errors exit 1)."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)

    def _print_message(self, message, file=None):
        # argparse's own version swallows an OSError; let it reach main (exit 2).
        if message:
            (file or sys.stderr).write(message)


def _resolve_seed(args) -> int:
    """``--seed``, else ``CLONEBOUND_SEED``, else 0; an integer >= 0."""
    name, text = "--seed", args.seed
    if text is None:
        name, text = "CLONEBOUND_SEED", os.environ.get("CLONEBOUND_SEED", "0")
    try:
        seed = int(text)
    except ValueError:
        seed = -1
    if seed < 0:
        raise ValueError(f"{name} must be an integer >= 0, got {text!r}")
    return seed


def _json_pieces(payload: dict):
    """The text of ``json.dumps(payload, indent=2) + "\\n"`` in pieces, where
    a top-level value may also be a 1-D numpy array, written as its list.

    ``indent`` selects json's pure-Python encoder, so an array is written by
    the C encoder with indented separators instead, from ``.tolist()`` of
    ``WRITE_BLOCK`` elements per piece. Keys must be strings."""
    if not payload:
        yield "{}\n"
        return
    opening = "{\n"
    for key, value in payload.items():
        yield f"{opening}  {json.dumps(key)}: "
        opening = ",\n"
        if not isinstance(value, np.ndarray):
            yield json.dumps(value, indent=2).replace("\n", "\n  ")
        elif not len(value):
            yield "[]"
        else:
            yield "[\n    "
            for start in range(0, len(value), WRITE_BLOCK):
                block = json.dumps(value[start:start + WRITE_BLOCK].tolist(),
                                   separators=(",\n    ", ": "))
                yield (",\n    " if start else "") + block[1:-1]
            yield "\n  ]"
    yield "\n}\n"


def _csv_pieces(header, columns):
    """The text of ``table_csv(header, columns)``, ``WRITE_BLOCK`` rows per
    piece: each block is one ``table_csv`` call, its header line dropped
    after the first."""
    for start in range(0, len(columns[0]), WRITE_BLOCK):
        text = table_csv(header, [c[start:start + WRITE_BLOCK] for c in columns])
        yield text[text.index("\n") + 1:] if start else text


def _write(out, pieces) -> None:
    """Write an iterable of strings to stdout when ``out`` is None, else to
    the file ``out``, which appears whole or not at all.

    The text goes to a new file beside ``out``'s symlink-resolved target and
    is renamed over it once complete; on any exception the new file is
    removed. A target that exists and is not a regular file (a device, a
    FIFO) cannot be replaced by a rename, so it is written in place."""
    if out is None:
        sys.stdout.writelines(pieces)
        return
    in_place = os.path.exists(out) and not os.path.isfile(out)
    target = os.path.realpath(out)
    head, name = os.path.split(target)
    path = out if in_place else os.path.join(head, f".{name}.{os.getpid()}.tmp")
    try:
        with open(path, "w" if in_place else "x", encoding="utf-8") as fh:
            fh.writelines(pieces)
        if not in_place:
            os.replace(path, target)
    except BaseException as exc:
        if not in_place:
            with contextlib.suppress(OSError):
                os.remove(path)
        if isinstance(exc, OSError):
            # Name the artifact, not the new file. A write or close that
            # fails (a full disk) names no file, which main would report as
            # a failed write to stdout.
            exc.filename = str(Path(out))
        raise


def build_parser() -> _Parser:
    parser = _Parser(prog="clonebound", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("bounds", help="emit the lower-bound curves")
    p.add_argument("--z-min", type=float, default=0.0)
    p.add_argument("--z-max", type=float, default=1.0)
    p.add_argument("--steps", type=int, default=201)
    p.add_argument("--out", type=str, default=".", help="output directory")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("cloner", help="build and analyze one machine")
    p.add_argument("kind", choices=("sym", "asym", "wz"))
    p.add_argument("--z", type=float, default=None,
                   help="overlap of a canonical pair (alternative to --states)")
    p.add_argument("--states", type=str, default=None,
                   help="JSON file with explicit 'phi' and 'psi' amplitude lists")
    p.add_argument("--dim", type=int, default=None,
                   help="dimension of the --z pair (default 2)")
    p.add_argument("--favored", choices=("phi", "psi"), default="phi")
    p.add_argument("--out", type=str, default=None, help="report file (default stdout)")
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_cloner)

    p = sub.add_parser("lemmas", help="run the inequality sweeps")
    p.add_argument("--trials", type=int, default=100_000)
    p.add_argument("--dims", type=str, default="2-8",
                   help="dimensions, e.g. '2-8' or '2,4,8'")
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_lemmas)

    p = sub.add_parser("verify", help="check the bounds are tight floors")
    p.add_argument("--z", type=str, required=True,
                   help="overlap value or comma list, each in (0, 0.99]")
    p.add_argument("--restarts", type=int, default=20)
    p.add_argument("--sweep-trials", type=int, default=10_000)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", type=str, default=None, help="report file (default stdout)")
    p.set_defaults(func=cmd_verify)

    return parser


def cmd_bounds(args) -> int:
    # sample_curve rejects a bad range or step count, and BoundCurve a grid
    # that is not strictly increasing (a range narrower than its steps).
    try:
        curve_re, curve_ae, curve_hb = [
            sample_curve(f.__name__, f, args.z_min, args.z_max, args.steps)
            for f in (re_lower_bound, ae_lower_bound, hb_bound)]
    except ValueError:
        raise ValueError(f"invalid range [{args.z_min}, {args.z_max}] "
                         f"with {args.steps} steps") from None
    manifest = _manifest(
        "bounds",
        {"z_min": args.z_min, "z_max": args.z_max, "steps": args.steps,
         "format": args.format},
        args.seed,
    )
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    # table_csv is looked up at call time, so a wrapper installed on the
    # module (the tracer in bench/spans.py) sees every call. Both formats
    # stream from the sampled arrays, WRITE_BLOCK rows or elements at a time.
    if args.format == "csv":
        written = ["fig1.csv", "fig2.csv", "run.manifest.json"]
        _write(out_dir / "fig1.csv", _csv_pieces(
            ("z", "value"), (curve_re.grid, curve_re.values)))
        _write(out_dir / "fig2.csv", _csv_pieces(
            ("z", "ae_bound", "hb_bound"),
            (curve_ae.grid, curve_ae.values, curve_hb.values)))
        _write(out_dir / "run.manifest.json", _json_pieces(
            {"artifacts": written[:2], "manifest": manifest}))
    else:
        written = ["fig1.json", "fig2.json"]
        _write(out_dir / "fig1.json", _json_pieces({
            "name": curve_re.name, "z": curve_re.grid,
            "values": curve_re.values, "manifest": manifest}))
        _write(out_dir / "fig2.json", _json_pieces({
            "name": "fig2", "z": curve_ae.grid, "ae_bound": curve_ae.values,
            "hb_bound": curve_hb.values, "manifest": manifest}))
    print(f"wrote {', '.join(written)} to {out_dir}")
    return EXIT_OK


def _load_state_file(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            payload = json.load(fh)
        except RecursionError:
            raise ValueError("state file is nested too deeply to parse") from None
    if not isinstance(payload, dict):
        raise ValueError("state file must hold a JSON object with keys 'phi' and 'psi'")
    states = {}
    for key in ("phi", "psi"):
        if key not in payload:
            raise ValueError(f"state file is missing key {key!r}")
        not_pairs = ValueError(f"state {key!r} must be a list of [re, im] pairs")
        rows = payload[key]
        # JSON numbers only: np.asarray would parse "1" or true as 1.0.
        if not (isinstance(rows, list) and len(rows) >= 2 and all(
                isinstance(row, list) and len(row) == 2
                and all(type(a) in (int, float) for a in row) for row in rows)):
            raise not_pairs
        try:
            pairs = np.asarray(rows, dtype=float)
        except OverflowError:       # an integer too large for a float
            raise not_pairs from None
        if not np.all(np.isfinite(pairs)):
            raise ValueError(f"state {key!r} has a non-finite amplitude")
        vec = pairs[:, 0] + 1j * pairs[:, 1]
        if not np.any(vec):
            raise ValueError(f"state {key!r} is the zero vector")
        with np.errstate(over="ignore"):
            n = norm(vec)
        # Below sqrt(smallest normal float) the squared norm is subnormal
        # and has lost digits; above sqrt(largest float) it overflows.
        if not math.sqrt(sys.float_info.min) <= n < math.inf:
            raise ValueError(
                f"state {key!r} cannot be normalized: the squared norm of its "
                f"amplitudes {'overflows' if n == math.inf else 'underflows'} "
                f"double precision"
            )
        if abs(n - 1.0) > 1e-6:
            print(
                f"clonebound cloner: warning: {key} renormalized "
                f"(norm was {n:.9g})",
                file=sys.stderr,
            )
        states[key] = vec / n
    return TwoStateSet.from_states(states["phi"], states["psi"])


def cmd_cloner(args) -> int:
    if (args.z is None) == (args.states is None):
        raise ValueError("provide exactly one of --z or --states")
    if args.states is None:
        set_ = TwoStateSet.at_overlap(args.z, 2 if args.dim is None else args.dim)
    elif args.dim is not None:
        raise ValueError("--dim applies only with --z")
    else:
        try:
            set_ = _load_state_file(args.states)
        except OSError as exc:      # an unreadable --states is a usage error
            raise ValueError(str(exc)) from None

    # Builders are looked up on the module at call time, so a wrapper
    # installed there (the tracer in bench/spans.py) sees every build; each
    # rejects a pair of identical states.
    if args.kind == "sym":
        result = cloners.build_symmetric(set_)
    elif args.kind == "asym":
        result = cloners.build_asymmetric(set_, args.favored)
    else:
        result = cloners.build_wootters_zurek(set_)

    z = set_.z
    closed = {
        "re_floor": float(re_lower_bound(z)),
        "ae_floor": float(ae_lower_bound(z)),
        "hb_floor": float(hb_bound(z)),
        "re_sym": closed_form_re_s(z),
        "re_wz_quoted": closed_form_re_wz(z),
    }
    manifest = _manifest(
        "cloner",
        {"kind": args.kind, "z": z, "dim": set_.dim,
         "favored": args.favored if args.kind == "asym" else None,
         "states": args.states},
        args.seed,
    )
    report = {
        "kind": args.kind,
        "z": z,
        "delta": result.set.delta,
        "Delta": result.set.delta_product,
        "inputs": {
            "phi": [[float(a.real), float(a.imag)] for a in set_.phi],
            "psi": [[float(a.real), float(a.imag)] for a in set_.psi],
        },
        "per_state": {
            "phi": {"x": result.a_phi.x, "delta_s": result.a_phi.delta_s},
            "psi": {"x": result.a_psi.x, "delta_s": result.a_psi.delta_s},
        },
        "ae": result.ae,
        "re": result.re,
        "closed_form": closed,
        "unitarity_residual": unitarity_residual(result),
        "manifest": manifest,
    }
    _write(args.out, _json_pieces(report))
    return EXIT_OK


def _parse_dims(text: str):
    """``lo-hi`` (both ends included) or ``d1,d2,...``; the sweeps check the values."""
    text = text.strip()
    try:
        if "-" in text and "," not in text:
            lo, hi = (int(part) for part in text.split("-", 1))
            dims = tuple(range(lo, hi + 1))
        else:
            dims = tuple(int(part) for part in text.split(","))
    except ValueError:
        raise ValueError(f"--dims must be a range lo-hi or a list d1,d2,... of "
                         f"integers, got {text!r}") from None
    except OverflowError:       # more entries than a tuple can hold
        raise ValueError(f"--dims range {text!r} holds too many dimensions") from None
    if not dims:
        raise ValueError(f"--dims range {text!r} is empty: lo exceeds hi")
    return dims


def cmd_lemmas(args) -> int:
    if args.trials < 1:
        raise ValueError("--trials must be >= 1")
    dims = _parse_dims(args.dims)
    total_violations = 0
    for name, sweep in ALL_SWEEPS:
        r = sweep(args.trials, dims=dims, seed=args.seed)
        total_violations += r.violations
        print(
            f"{name}: trials={r.trials} min_slack={r.min_slack:.6e} "
            f"violations={r.violations}"
        )
    if total_violations:
        print(f"clonebound lemmas: {total_violations} violations "
              f"(implementation bug: these are theorems)", file=sys.stderr)
        return EXIT_VIOLATION
    return EXIT_OK


def cmd_verify(args) -> int:
    try:
        z_values = [float(part) for part in args.z.split(",") if part.strip()]
    except ValueError:
        raise ValueError(f"cannot parse --z {args.z!r}") from None
    if not z_values or any(not 0.0 < z <= 0.99 for z in z_values):
        raise ValueError("every z must lie in (0, 0.99]")
    if args.restarts < 1 or args.sweep_trials < 1:
        raise ValueError("--restarts and --sweep-trials must be >= 1")
    records = [
        verify_point(z, restarts=args.restarts, seed=args.seed,
                     sweep_trials=args.sweep_trials)
        for z in z_values
    ]
    total_violations = sum(r["violations"] for r in records)
    max_gap = max(r["attainment_gap"] for r in records)
    manifest = _manifest(
        "verify",
        {"z": z_values, "restarts": args.restarts,
         "sweep_trials": args.sweep_trials},
        args.seed,
    )
    report = {
        "points": records,
        "violations": total_violations,
        "max_attainment_gap": max_gap,
        "manifest": manifest,
    }
    _write(args.out, _json_pieces(report))
    chain_violations = sum(r["sweep"]["chain_violations"] for r in records)
    for count, kind in ((total_violations, "floor"), (chain_violations, "chain")):
        if count:
            print(f"clonebound verify: {count} {kind} violations", file=sys.stderr)
    if total_violations or chain_violations:
        return EXIT_VIOLATION
    # A best point above its floor by more than the rounding allowance, or
    # with a NaN gap, has not attained it.
    if _violations([-r["attainment_gap"] for r in records]):
        print(f"clonebound verify: attainment gap {max_gap:.3e} "
              f"exceeds {DEFAULT_SWEEP_TOL}", file=sys.stderr)
        return EXIT_ATTAINMENT
    return EXIT_OK


def main(argv=None) -> int:
    prefix = "clonebound:"
    try:
        try:
            args = build_parser().parse_args(argv)
        except SystemExit as exc:
            # argparse raises for --help/--version (code 0) and usage errors.
            code = int(exc.code or 0)
        else:
            prefix = f"clonebound {args.command}:"
            args.seed = _resolve_seed(args)
            code = args.func(args)
        sys.stdout.flush()          # a failed write to stdout exits 2 too
        return code
    except ValueError as exc:
        print(f"{prefix} {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError as exc:
        # numpy raises a MemoryError subclass for an array it cannot
        # allocate; its message names the size, on one line.
        detail = f": {exc}" if str(exc) else ""
        print(f"{prefix} out of memory{detail}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        if exc.filename is None:
            # stdout failed. Point it at the null device, so that the flush
            # at interpreter exit does not fail again on what it still holds.
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
        print(f"{prefix} cannot write {exc.filename or 'stdout'}: {exc}", file=sys.stderr)
        return EXIT_IO
    except KeyboardInterrupt:
        print(f"{prefix} interrupted", file=sys.stderr)
        return 130                  # 128 + SIGINT, as a shell reports it


if __name__ == "__main__":
    sys.exit(main())
