"""Self-tests of the benchmark's checks, accounting and tracing.

Run from the root of a checkout: ``python3 -m pytest bench``.
"""

from __future__ import annotations

import json
import sys

import pytest

import oracle
import run
import spans
import workloads

sys.path.insert(0, str(run.SRC))
import clonebound.cli as cli  # noqa: E402


def _execute(ledger, op):
    code, wall, stdout, stderr = run._call_main(cli.main, op, ledger.workdir)
    return ledger.finish(op, code, stdout, stderr, wall)


def _ops(workload, tmp_path, seed=3):
    return next(workloads.rounds(workload, seed, tmp_path))


@pytest.fixture
def ledger(tmp_path):
    return run.Ledger(tmp_path)


def test_quick_round_passes_every_check(ledger, tmp_path):
    for op in _ops("quick", tmp_path):
        record = _execute(ledger, op)
        assert record.problems == [], op.argv
    assert ledger.failed == 0


def _keep_output(ledger, op):
    """Run ``op`` without letting the ledger delete its artifact."""
    code, _, stdout, _ = run._call_main(cli.main, op, ledger.workdir)
    assert code == 0
    return stdout


@pytest.mark.parametrize("kind", ["sym", "asym", "wz"])
def test_corrupted_cloner_number_is_one_failure(ledger, tmp_path, kind):
    out = "out/report.json"
    op = workloads.Op(("cloner", kind, "--z", "0.37", "--out", out), 1,
                      out, {"kind": kind, "z": 0.37})
    (tmp_path / "out").mkdir()
    stdout = _keep_output(ledger, op)
    path = tmp_path / out
    report = json.loads(path.read_text())
    report["per_state"]["psi"]["x"] += 1e-8
    path.write_text(json.dumps(report))
    record = ledger.finish(op, 0, stdout, b"", 1.0)
    assert len(record.problems) == 1 and "x(psi)" in record.problems[0]
    assert ledger.failed == 1


def test_corrupted_curve_row_is_one_failure(ledger, tmp_path):
    (tmp_path / "out").mkdir()
    op = workloads._bounds(0, 2001, "csv", 0.0, 1.0, 5, 1)
    stdout = _keep_output(ledger, op)
    path = tmp_path / op.out / "fig2.csv"
    lines = path.read_text().splitlines()
    z, ae, hb = lines[777].split(",")
    lines[777] = ",".join([z, repr(float(ae) + 1e-12), hb])
    path.write_text("\n".join(lines) + "\n")
    record = ledger.finish(op, 0, stdout, b"", 1.0)
    assert len(record.problems) == 1 and "ae floor" in record.problems[0]
    assert ledger.failed == 1


def test_nonzero_exit_is_one_failure(ledger, tmp_path):
    op = _ops("lemmas", tmp_path)[0]
    record = ledger.finish(op, 3, b"", b"clonebound lemmas: 1 violations\n", 1.0)
    assert record.problems[0] == "exit code 3"
    assert ledger.failed == 1


def test_one_byte_nondeterminism_is_one_failure(ledger, tmp_path):
    op = workloads.Op(("lemmas", "--trials", "10"), 1, None,
                      {"trials": 10})
    text = "".join(f"{name}: trials=10 min_slack=1.000000e-01 violations=0\n"
                   for name in oracle.SWEEPS)
    assert ledger.finish(op, 0, text.encode(), b"", 1.0).problems == []
    changed = text.replace("1.000000e-01", "1.000001e-01", 1).encode()
    assert len(ledger.finish(op, 0, changed, b"", 1.0).problems) == 1
    assert ledger.finish(op, 0, text.encode(), b"", 1.0).problems == []
    assert ledger.failed == 1


def test_digest_ignores_only_the_timestamp():
    a = b'{"seed": 1, "timestamp": "2026-01-01T00:00:00"}'
    b = b'{"seed": 1, "timestamp": "2027-05-05T11:11:11"}'
    c = b'{"seed": 2, "timestamp": "2026-01-01T00:00:00"}'
    assert oracle.digest([("m", a)]) == oracle.digest([("m", b)])
    assert oracle.digest([("m", a)]) != oracle.digest([("m", c)])


@pytest.mark.parametrize("n, expected", [
    (10, None),
    (11, (9, 0.0)),
    (20, (50, 9.0)),
    (100, (90, 89.0)),
])
def test_tail_percentile_keeps_ten_samples_beyond(n, expected):
    samples = [float(i) for i in range(n)][::-1]
    assert run.tail_percentile(samples) == expected
    if expected is not None:
        assert sum(s > expected[1] for s in samples) >= 10


def test_same_seed_same_operations(tmp_path):
    for workload in workloads.WORKLOADS:
        first = [op.argv for op in _ops(workload, tmp_path / "a", seed=7)]
        again = [op.argv for op in _ops(workload, tmp_path / "b", seed=7)]
        other = [op.argv for op in _ops(workload, tmp_path / "c", seed=8)]
        assert first == again
        assert first != other


def test_recorder_restores_every_name(tmp_path):
    targets = spans.targets(cli)
    before = [vars(owner)[attr] for owner, attr, _, _ in targets]
    recorder = spans.Recorder(targets)
    ledger = run.Ledger(tmp_path)
    with recorder:
        for op in _ops("quick", tmp_path):
            main = recorder.wrap(f"cli.main.{op.command}", cli.main)
            code, wall, stdout, stderr = run._call_main(main, op, tmp_path)
            assert ledger.finish(op, code, stdout, stderr, wall).problems == []
    assert [vars(owner)[attr] for owner, attr, _, _ in targets] == before
    names = {s.name for s in recorder.spans}
    assert {"cli.main.cloner", "geometry.gate_approx",
            "statespace.random_states", "bounds.table_csv"} <= names
    metrics = spans.layer_metrics(recorder.spans)
    assert metrics["geometry.lemma1.violations"] == 0
    assert metrics["bounds.table_csv.rows"] > 0


def test_self_time_excludes_children():
    s = [spans.Span("cli.main.bounds", 0.0, 10.0, None, 0),
         spans.Span("bounds.sample_curve", 1.0, 3.0, 0, 0),
         spans.Span("bounds.table_csv", 4.0, 8.0, 0, 0)]
    m = spans.layer_metrics(s)
    assert m["cli.main_s.bounds"] == 10.0
    assert m["cli.main_self_s.bounds"] == 4.0


def test_parse_importtime():
    text = ("import time: self [us] | cumulative | imported package\n"
            "import time:       120 |     125927 |   numpy\n"
            "import time:       901 |     630230 |       scipy.optimize\n"
            "import time:      7704 |     816806 | clonebound.cli\n")
    seen = run.parse_importtime(text)
    assert seen["clonebound.cli"] == pytest.approx(0.816806)
    assert seen["numpy"] == pytest.approx(0.125927)
    assert seen["scipy.optimize"] == pytest.approx(0.630230)


def test_declared_metrics_match_benchmark_json():
    assert set(run.declared_metrics(0)) == {
        "setup_s", "work_per_s", "op_p50_s", "cpu_per_op_s", "peak_rss_mb"}
    assert set(run.declared_metrics(1)) == set(
        spans.layer_metrics([])) | {
        "cli.spawn_s", "cli.import_s", "cli.import_scipy_optimize_s",
        "cli.import_numpy_s", "trace.overhead_frac"}
