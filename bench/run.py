"""The clonebound benchmark: time the CLI as a user runs it.

Usage, from the root of a checkout::

    python3 bench/run.py --workload quick --seed 1 --seconds 8 --trace 0

Each workload is a closed loop with one client (see ``workloads.py``):
every command is a fresh ``python -m clonebound.cli`` process, launched
with ``src`` on ``PYTHONPATH``, that runs to completion before the next
starts. With ``--trace 0`` the run reports the end-to-end metrics of
BENCHMARK.json; with ``--trace 1`` it replays the same operations in one
process through ``clonebound.cli.main`` with spans around the calls into
each module, and reports the per-layer metrics. ``--workload all`` runs
every workload in turn.

Every operation's output is checked against independent closed forms
(``oracle.py``). The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the full record of
the run (environment, every operation, artifact digests, spans) is
written to ``bench/.out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import glob
import hashlib
import io
import itertools
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path

import numpy as np

import oracle
import spans
import workloads
from workloads import WORKLOADS, Op

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / ".out"

SETUP_LAUNCHES = 5
SPAWN_LAUNCHES = 5
IMPORTTIME_LAUNCHES = 3
OP_TIMEOUT_S = 120.0
IMPORT_CLI = "import clonebound.cli"


class SetupError(RuntimeError):
    """The program cannot be set up here, so no result is printed."""


# ---------------------------------------------------------------------------
# Child processes
# ---------------------------------------------------------------------------

@dataclass
class Proc:
    exit_code: int
    wall_s: float
    cpu_s: float
    rss_mb: float
    stdout: bytes
    stderr: bytes


def child_env() -> dict:
    """The caller's environment with the working tree's ``src`` first on
    ``PYTHONPATH``; nothing else is pinned."""
    env = dict(os.environ)
    paths = [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def launch(args: list[str], env: dict, cwd: Path) -> Proc:
    """Run ``python <args>`` to completion; account for it with ``wait4``.

    ``wait4`` gives this child's own peak RSS and CPU time, where
    ``RUSAGE_CHILDREN`` would keep a running maximum over every child.
    """
    with open(cwd / "stdout", "w+b") as out, open(cwd / "stderr", "w+b") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *args], env=env, cwd=cwd,
                                stdout=out, stderr=err)
        timer = threading.Timer(OP_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return Proc(proc.returncode, wall, usage.ru_utime + usage.ru_stime,
                    usage.ru_maxrss / 1024.0, out.read(), err.read())


def measure_setup(env: dict, cwd: Path) -> list[float]:
    """Wall times of fresh ``import clonebound.cli`` processes, after one
    discarded launch that compiles the bytecode caches."""
    walls = []
    for i in range(SETUP_LAUNCHES + 1):
        p = launch(["-c", IMPORT_CLI], env, cwd)
        if p.exit_code != 0:
            raise SetupError(f"{IMPORT_CLI!r} exited {p.exit_code}: "
                             f"{p.stderr.decode(errors='replace')[-2000:]}")
        if i:
            walls.append(p.wall_s)
    return walls


def parse_importtime(stderr: str) -> dict[str, float]:
    """Cumulative seconds of each module's first import in
    ``python -X importtime`` output."""
    seen: dict[str, float] = {}
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        fields = line[len("import time:"):].split("|")
        if len(fields) != 3 or not fields[1].strip().isdigit():
            continue
        seen.setdefault(fields[2].strip(), int(fields[1]) * 1e-6)
    return seen


def import_breakdown(env: dict, cwd: Path) -> dict[str, float]:
    """``cli.spawn_s`` and the ``cli.import_*`` metrics, medians of several
    launches."""
    spawn = [launch(["-c", "pass"], env, cwd).wall_s
             for _ in range(SPAWN_LAUNCHES)]
    names = {"cli.import_s": "clonebound.cli",
             "cli.import_scipy_optimize_s": "scipy.optimize",
             "cli.import_numpy_s": "numpy"}
    samples = {metric: [] for metric in names}
    launch(["-c", IMPORT_CLI], env, cwd)  # compiles the bytecode caches
    for _ in range(IMPORTTIME_LAUNCHES):
        p = launch(["-X", "importtime", "-c", IMPORT_CLI], env, cwd)
        seen = parse_importtime(p.stderr.decode(errors="replace"))
        for metric, module in names.items():
            if module not in seen:
                raise SetupError(f"-X importtime never reported {module}")
            samples[metric].append(seen[module])
    result = {"cli.spawn_s": statistics.median(spawn)}
    result.update({k: statistics.median(v) for k, v in samples.items()})
    return result


# ---------------------------------------------------------------------------
# Results shared by both kinds of run
# ---------------------------------------------------------------------------

@dataclass
class OpRecord:
    index: int
    op: Op
    exit_code: int
    wall_s: float
    cpu_s: float | None
    rss_mb: float | None
    digest: str | None
    problems: list[str]

    def as_dict(self) -> dict:
        return {"index": self.index, "argv": list(self.op.argv),
                "exit_code": self.exit_code, "wall_s": self.wall_s,
                "cpu_s": self.cpu_s, "rss_mb": self.rss_mb,
                "digest": self.digest, "problems": self.problems}


@dataclass
class Ledger:
    """Checks each finished operation and compares the digests of repeats."""

    workdir: Path
    records: list[OpRecord] = field(default_factory=list)
    digests: dict[str, str] = field(default_factory=dict)

    def finish(self, op: Op, exit_code: int, stdout: bytes, stderr: bytes,
               wall_s: float, cpu_s=None, rss_mb=None) -> OpRecord:
        problems = oracle.check(op, exit_code, stdout, self.workdir)
        if exit_code != 0 and stderr.strip():
            problems.append(stderr.decode(errors="replace").strip()
                            .splitlines()[-1])
        digest = None
        if exit_code == 0:
            try:
                digest = oracle.digest(oracle.artifacts(op, stdout, self.workdir))
            except OSError as exc:
                problems.append(f"unreadable output: {exc}")
        if digest is not None:
            first = self.digests.setdefault(" ".join(op.argv), digest)
            if first != digest:
                problems.append(f"output differs from an earlier run of the "
                                f"same operation: {digest} != {first}")
        if op.out is not None:  # outputs can be tens of MB
            target = self.workdir / op.out
            if target.is_dir():
                shutil.rmtree(target)
            else:
                target.unlink(missing_ok=True)
        record = OpRecord(len(self.records), op, exit_code, wall_s, cpu_s,
                          rss_mb, digest, problems)
        self.records.append(record)
        return record

    @property
    def failed(self) -> int:
        return sum(1 for r in self.records if r.problems)


def tail_percentile(samples: list[float]) -> tuple[int, float] | None:
    """(p, value): the highest whole percentile with at least ten samples
    above it, by nearest rank; None with fewer than 11 samples."""
    n = len(samples)
    if n < 11:
        return None
    p = (100 * (n - 10)) // n
    rank = max(1, -(-p * n // 100))
    return p, sorted(samples)[rank - 1]


def fresh_workdir() -> Path:
    workdir = OUT / "work"
    if workdir.exists():
        shutil.rmtree(workdir)
    workdir.mkdir(parents=True)
    return workdir


# ---------------------------------------------------------------------------
# Timed run: the end-to-end metrics
# ---------------------------------------------------------------------------

def timed_run(workload: str, seed: int, seconds: float) -> dict:
    workdir = fresh_workdir()
    env = child_env()
    setup = measure_setup(env, workdir)
    ledger = Ledger(workdir)
    rounds = workloads.rounds(workload, seed, workdir)
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        for op in next(rounds):
            p = launch(["-m", "clonebound.cli", *op.argv], env, workdir)
            ledger.finish(op, p.exit_code, p.stdout, p.stderr, p.wall_s,
                          p.cpu_s, p.rss_mb)
    elapsed = time.perf_counter() - start
    recs = ledger.records
    walls = [r.wall_s for r in recs]
    metrics = {
        "setup_s": statistics.median(setup),
        "work_per_s": sum(r.op.work for r in recs) / sum(walls),
        "op_p50_s": statistics.median(walls),
        "cpu_per_op_s": statistics.median(r.cpu_s for r in recs),
        "peak_rss_mb": max(r.rss_mb for r in recs),
    }
    tail = tail_percentile(walls)
    report = {
        "setup_walls_s": setup,
        "elapsed_s": elapsed,
        "op_tail_s": None if tail is None else
        {"percentile": tail[0], "value": tail[1], "samples": len(walls)},
        "failed_frac": ledger.failed / len(recs),
    }
    return {"metrics": metrics, "report": report, "ledger": ledger}


# ---------------------------------------------------------------------------
# Traced run: the per-layer metrics
# ---------------------------------------------------------------------------

def _call_main(main, op: Op, workdir: Path) -> tuple[int, float, bytes, bytes]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.chdir(workdir), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = main(list(op.argv))
        except Exception as exc:  # a crash is one failed operation
            print(f"{type(exc).__name__}: {exc}", file=err)
            code = -1
        wall = time.perf_counter() - start
    return code, wall, out.getvalue().encode(), err.getvalue().encode()


def traced_run(workload: str, seed: int, seconds: float) -> dict:
    workdir = fresh_workdir()
    env = child_env()
    layers = import_breakdown(env, workdir)

    sys.path.insert(0, str(SRC))
    import clonebound.cli as cli

    # Each operation runs untraced and traced back to back, in alternating
    # order, so slow drifts of the machine fall on both sides alike; the
    # second run of each operation is also its determinism check. The first
    # operation runs once more beforehand, so first-call costs (allocator
    # growth, lazy initialisation) fall on neither side.
    ledger = Ledger(workdir)
    recorder = spans.Recorder(spans.targets(cli))
    rounds = workloads.rounds(workload, seed, workdir)
    first = next(rounds)
    code, wall, stdout, stderr = _call_main(cli.main, first[0], workdir)
    ledger.finish(first[0], code, stdout, stderr, wall)
    plain = traced = 0.0
    replayed = 0
    start = time.perf_counter()
    for op in itertools.chain.from_iterable(itertools.chain([first], rounds)):
        if time.perf_counter() - start >= seconds:
            break
        for with_spans in ((False, True) if replayed % 2 else (True, False)):
            if with_spans:
                recorder.op = replayed
                with recorder:
                    main = recorder.wrap(f"cli.main.{op.command}", cli.main)
                    code, wall, stdout, stderr = _call_main(main, op, workdir)
                traced += wall
            else:
                code, wall, stdout, stderr = _call_main(cli.main, op, workdir)
                plain += wall
            ledger.finish(op, code, stdout, stderr, wall)
        replayed += 1

    layers.update(spans.layer_metrics(recorder.spans))
    layers["trace.overhead_frac"] = traced / plain - 1.0
    report = {"replayed_ops": replayed, "untraced_s": plain, "traced_s": traced,
              "failed_frac": ledger.failed / len(ledger.records)}
    return {"metrics": layers, "report": report, "ledger": ledger,
            "spans": recorder.to_json()}


# ---------------------------------------------------------------------------
# Environment and output
# ---------------------------------------------------------------------------

def _blas() -> dict:
    info = {"name": "unknown", "threads": "unknown"}
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["name"] = f"{deps.get('name')} {deps.get('version')}"
    except (KeyError, TypeError, AttributeError):
        pass
    libs = Path(np.__file__).parent.parent / "numpy.libs"
    for lib in glob.glob(str(libs / "*openblas*")):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["threads"] = fn()
                return info
    return info


def _commit() -> str:
    if not (ROOT / ".git").exists():  # a plain checkout, or inside another repo
        return "unknown"
    try:
        p = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                           capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return p.stdout.strip() if p.returncode == 0 else "unknown"


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def environment() -> dict:
    def version(dist):
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return "missing"

    return {
        "commit": _commit(),
        "source_sha256": _source_digest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": version("scipy"),
        "blas": _blas(),
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


def declared_metrics(trace: int) -> dict[str, str]:
    """Name -> unit of the metrics BENCHMARK.json declares for this mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def summary_lines(workload: str, result: dict) -> list[str]:
    m, rep = result["metrics"], result["report"]
    led = result["ledger"]
    lines = [f"[{workload}] {len(led.records)} operations, "
             f"{led.failed} failed"]
    for rec in led.records:
        for problem in rec.problems:
            lines.append(f"  FAILED op {rec.index} ({' '.join(rec.op.argv)}): "
                         f"{problem}")
    if "setup_s" in m:
        unit = workloads.WORK_UNITS[workload]
        tail = rep["op_tail_s"]
        rows = [
            ("setup_s", f"{m['setup_s']:.4f} s (median of "
                        f"{len(rep['setup_walls_s'])} launches)"),
            ("work_per_s", f"{m['work_per_s']:.6g} {unit}/s"),
            ("op_p50_s", f"{m['op_p50_s']:.4f} s"),
            ("op_tail_s", "n/a: fewer than 11 operations" if tail is None else
             f"{tail['value']:.4f} s at p{tail['percentile']} of "
             f"{tail['samples']} operations"),
            ("cpu_per_op_s", f"{m['cpu_per_op_s']:.4f} s"),
            ("peak_rss_mb", f"{m['peak_rss_mb']:.1f} MB"),
            ("failed_frac", f"{rep['failed_frac']:.4g} "
                            f"({led.failed} of {len(led.records)})"),
        ]
        lines += [f"  {name:<14} {text}" for name, text in rows]
    else:
        lines.append(f"  replayed {rep['replayed_ops']} operations in-process: "
                     f"{rep['untraced_s']:.3f} s untraced, "
                     f"{rep['traced_s']:.3f} s traced")
        units = declared_metrics(1)
        lines += [f"  {name:<48} {value:.6g} {units[name]}"
                  for name, value in m.items()]
    return lines


def write_record(workload: str, seed: int, trace: int, seconds: float,
                 env_info: dict, result: dict) -> Path:
    OUT.mkdir(parents=True, exist_ok=True)
    path = OUT / f"{workload}-seed{seed}-trace{trace}.json"
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "environment": env_info, "metrics": result["metrics"],
        "report": result["report"],
        "operations": [r.as_dict() for r in result["ledger"].records],
        "digests": result["ledger"].digests,
    }
    if "spans" in result:
        record["spans"] = result["spans"]
    path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return path


def _seed(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("seed must be >= 0")
    return value


def _seconds(text: str) -> float:
    value = float(text)
    if not 0 < value <= 120:
        raise argparse.ArgumentTypeError("seconds must be in (0, 120]")
    return value


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=_seed, required=True)
    parser.add_argument("--seconds", type=_seconds, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "clonebound" / "cli.py").is_file():
        print(f"bench: no clonebound sources at {SRC}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    run = traced_run if args.trace else timed_run
    env_info = environment()
    print(f"clonebound benchmark: seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    print(f"environment: {json.dumps(env_info)}")
    results = {}
    for name in names:
        try:
            results[name] = run(name, args.seed, args.seconds)
        except SetupError as exc:
            print(f"bench: cannot set up clonebound: {exc}", file=sys.stderr)
            return 3
        print("\n".join(summary_lines(name, results[name])))
        path = write_record(name, args.seed, args.trace, args.seconds,
                            env_info, results[name])
        print(f"  record: {path.relative_to(ROOT)}")

    attempted = sum(len(r["ledger"].records) for r in results.values())
    failed = sum(r["ledger"].failed for r in results.values())
    units = declared_metrics(args.trace)
    metrics = {}
    for name, r in results.items():
        if set(r["metrics"]) != set(units):
            raise AssertionError(f"{name} measured {sorted(r['metrics'])}, "
                                 f"BENCHMARK.json declares {sorted(units)}")
        prefix = "" if len(results) == 1 else f"{name}."
        for key, value in r["metrics"].items():
            metrics[prefix + key] = {"value": value, "unit": units[key]}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
