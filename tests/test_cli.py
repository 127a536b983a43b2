import contextlib
import inspect
import io
import json
import math
import os
import re
import signal
import subprocess
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

try:
    import resource
except ImportError:          # not on Windows
    resource = None

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import clonebound
import oracles
from clonebound.bounds import ae_lower_bound, hb_bound, re_lower_bound, sample_curve
from clonebound import geometry, search
from clonebound.cli import WRITE_BLOCK, _json_pieces, main
from clonebound.statespace import COLLINEAR_TOL
from test_bounds import _table_csv_reference
from test_geometry import patch_slack


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def strip_timestamp(text: str) -> str:
    """The manifest timestamp is the only volatile field in any artifact."""
    return re.sub(r'"timestamp": "[^"]*"', '"timestamp": "X"', text)


def read_csv(path):
    lines = path.read_text().strip().split("\n")
    header = lines[0].split(",")
    data = np.array([[float(x) for x in ln.split(",")] for ln in lines[1:]])
    return header, data


class TestBounds:
    def test_writes_both_figures_with_manifest(self, tmp_path, capsys):
        code, out, _ = run(capsys, "bounds", "--steps", "201",
                           "--out", str(tmp_path), "--seed", "0")
        assert code == 0
        assert "fig1.csv" in out and "fig2.csv" in out
        header1, fig1 = read_csv(tmp_path / "fig1.csv")
        header2, fig2 = read_csv(tmp_path / "fig2.csv")
        assert header1 == ["z", "value"]
        assert header2 == ["z", "ae_bound", "hb_bound"]
        assert fig1.shape == (201, 2) and fig2.shape == (201, 3)
        manifest = json.loads((tmp_path / "run.manifest.json").read_text())
        assert manifest["manifest"]["command"] == "bounds"
        assert manifest["manifest"]["seed"] == 0

    def test_fig2_landmarks(self, tmp_path, capsys):
        run(capsys, "bounds", "--steps", "201", "--out", str(tmp_path))
        _, fig2 = read_csv(tmp_path / "fig2.csv")
        z, ae, hb = fig2[:, 0], fig2[:, 1], fig2[:, 2]
        assert abs(z[np.argmax(ae)] - 0.577) <= 0.005
        assert np.max(ae) == pytest.approx(0.272, abs=5e-4)
        assert np.all(ae >= hb - 1e-12)

    def test_json_format_embeds_manifest(self, tmp_path, capsys):
        code, _, _ = run(capsys, "bounds", "--steps", "11", "--format", "json",
                         "--out", str(tmp_path))
        assert code == 0
        fig1 = json.loads((tmp_path / "fig1.json").read_text())
        fig2 = json.loads((tmp_path / "fig2.json").read_text())
        assert fig1["manifest"]["parameters"]["steps"] == 11
        assert len(fig2["ae_bound"]) == 11

    def test_empty_range_is_a_usage_error(self, tmp_path, capsys):
        code, _, err = run(capsys, "bounds", "--z-min", "0", "--z-max", "0",
                           "--out", str(tmp_path))
        assert code == 1 and "invalid range" in err
        # One ulp wide: too narrow for 5 distinct grid points.
        code, _, err = run(capsys, "bounds", "--z-min", "0.5",
                           "--z-max", "0.5000000000000001", "--steps", "5",
                           "--out", str(tmp_path))
        assert code == 1 and "invalid range" in err
        assert "Traceback" not in err

    def test_too_few_steps_is_a_usage_error(self, tmp_path, capsys):
        code, _, _ = run(capsys, "bounds", "--steps", "1", "--out", str(tmp_path))
        assert code == 1

    def test_unwritable_path_is_an_io_error(self, tmp_path, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("x")
        code, _, err = run(capsys, "bounds", "--out", str(blocker / "sub"))
        assert code == 2 and "cannot write" in err

    def test_artifacts_are_what_indent_2_and_17g_write(self, tmp_path, capsys):
        for fmt in ("csv", "json"):
            code, _, _ = run(capsys, "bounds", "--steps", "2001", "--seed", "3",
                             "--format", fmt, "--out", str(tmp_path / fmt))
            assert code == 0
        # Floats round-trip exactly, so re-encoding the parsed file with
        # indent=2 reproduces it only if indent=2 wrote it.
        for name in ("json/fig1.json", "json/fig2.json", "csv/run.manifest.json"):
            text = (tmp_path / name).read_text()
            assert text == json.dumps(json.loads(text), indent=2) + "\n"
        for name, width in (("fig1.csv", 2), ("fig2.csv", 3)):
            lines = (tmp_path / "csv" / name).read_text().split("\n")
            assert len(lines) == 2003 and lines[-1] == ""
            for line in lines[1:-1]:
                fields = line.split(",")
                assert len(fields) == width
                assert fields == [f"{float(f):.17g}" for f in fields]


_JSON_FLOAT = st.one_of(st.floats(),
                        st.sampled_from([-0.0, math.nan, math.inf, -math.inf]))
_JSON_LEAF = st.one_of(st.none(), st.booleans(), st.integers(), _JSON_FLOAT,
                       _JSON_FLOAT.map(np.float64), st.text(max_size=8))
_JSON_VALUE = st.recursive(
    _JSON_LEAF,
    lambda inner: st.one_of(st.lists(inner, max_size=4),
                            st.dictionaries(st.text(max_size=4), inner, max_size=4)),
    max_leaves=12)
_JSON_PAYLOAD = st.dictionaries(
    st.text(max_size=6),
    st.one_of(st.lists(_JSON_FLOAT, max_size=12), _JSON_VALUE),
    max_size=5)


@given(_JSON_PAYLOAD)
@example({})
@example({"a": [], "b": {}, "c": [1.0], "d": [[1.0]]})
@example({"mixed": [1.0, 2], "bool": [True, 1.0], "np": [np.float64(0.1), 0.2]})
@example({"nested": [1.0, [2.0, []], {"k": [3.0]}], "deep": {"a": {"b": [1.0]}}})
@example({"special": [math.nan, math.inf, -math.inf, -0.0, 5e-324]})
@example({"new\nline": "a\nb", "non-ascii \u00e9": ["\u2603", 1.0]})
@settings(max_examples=300, deadline=None)
def test_dump_json_matches_indent_2(payload):
    assert "".join(_json_pieces(payload)) == json.dumps(payload, indent=2) + "\n"


B = WRITE_BLOCK


@pytest.mark.parametrize("tail", [[], [7]], ids=["floats", "int-last"])
@pytest.mark.parametrize("n", [0, 1, B - 1, B, B + 1, 2 * B + 1])
def test_dump_json_float_lists_across_block_boundaries(n, tail):
    # A float64 array is written WRITE_BLOCK elements at a time, exactly as
    # json writes its list; a list, here with one int at the end or not,
    # takes the generic path.
    rng = np.random.default_rng(n)
    values = (rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n)).tolist()
    values[:4] = [math.nan, math.inf, -math.inf, -0.0][:n]
    payload = {"name": "fig", "values": values + tail, "manifest": {"seed": n}}
    expected = json.dumps(payload, indent=2) + "\n"
    assert "".join(_json_pieces(payload)) == expected
    if not tail:
        payload["values"] = np.array(values, dtype=np.float64)
        assert "".join(_json_pieces(payload)) == expected


@pytest.mark.parametrize("steps", [B - 1, B, B + 1, 2 * B + 1])
def test_bounds_files_across_block_boundaries(tmp_path, capsys, steps):
    re_, ae, hb = (sample_curve(f.__name__, f, 0.0, 1.0, steps)
                   for f in (re_lower_bound, ae_lower_bound, hb_bound))
    for fmt in ("csv", "json"):
        code, _, _ = run(capsys, "bounds", "--steps", str(steps), "--seed", "5",
                         "--format", fmt, "--out", str(tmp_path / fmt))
        assert code == 0
    expected_csv = {
        "fig1.csv": _table_csv_reference(("z", "value"), (re_.grid, re_.values)),
        "fig2.csv": _table_csv_reference(("z", "ae_bound", "hb_bound"),
                                         (ae.grid, ae.values, hb.values)),
    }
    for name, expected in expected_csv.items():
        assert (tmp_path / "csv" / name).read_text(encoding="utf-8") == expected
    expected_json = {
        "fig1.json": re_.to_json_dict(),
        "fig2.json": {"name": "fig2", "z": ae.grid.tolist(),
                      "ae_bound": ae.values.tolist(),
                      "hb_bound": hb.values.tolist()},
    }
    for name, body in expected_json.items():
        text = (tmp_path / "json" / name).read_text(encoding="utf-8")
        body["manifest"] = json.loads(text)["manifest"]
        assert text == json.dumps(body, indent=2) + "\n"


@pytest.mark.parametrize("fmt, ratio", [("csv", 1.0), ("json", 0.8)])
def test_bounds_memory_stays_below_the_bytes_written(tmp_path, capsys, fmt, ratio):
    # Written whole, the text of each file and its copies took 2.7 (CSV)
    # and 3.9 (JSON) times the bytes written. Streamed from the sampled
    # arrays in blocks of WRITE_BLOCK rows or elements, only the curves and
    # one block remain: 0.72 and 0.55 times. With each JSON figure's whole
    # float lists built first, JSON took 1.38 times.
    def traced_peak(steps, out):
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        assert main(["bounds", "--steps", str(steps), "--format", fmt,
                     "--out", str(out)]) == 0
        return tracemalloc.get_traced_memory()[1] - before

    tracemalloc.start()
    try:
        traced_peak(2, tmp_path / "warm")   # first-call allocations out of the way
        peak = traced_peak(100_001, tmp_path / "big")
    finally:
        tracemalloc.stop()
    capsys.readouterr()
    written = sum(f.stat().st_size for f in (tmp_path / "big").iterdir())
    assert peak < ratio * written


class TestCloner:
    def test_asym_report_at_half(self, capsys):
        code, out, _ = run(capsys, "cloner", "asym", "--z", "0.5")
        assert code == 0
        report = json.loads(out)
        assert report["ae"] == pytest.approx(0.268, abs=5e-4)
        assert report["re"] == pytest.approx(0.27639, abs=5e-6)
        assert report["re"] == pytest.approx(report["closed_form"]["re_floor"],
                                             abs=1e-9)
        assert report["unitarity_residual"] < 1e-10
        assert report["per_state"]["phi"]["x"] < 1e-12

    def test_sym_report_matches_closed_form(self, capsys):
        code, out, _ = run(capsys, "cloner", "sym", "--z", "0.5")
        report = json.loads(out)
        assert code == 0
        assert report["re"] == pytest.approx(report["closed_form"]["re_sym"],
                                             abs=1e-9)

    def test_wz_report_near_equal_superposition(self, capsys):
        code, out, _ = run(capsys, "cloner", "wz", "--z", "0.70711")
        report = json.loads(out)
        assert code == 0
        assert report["per_state"]["psi"]["x"] == pytest.approx(0.8660, abs=1e-4)
        assert report["closed_form"]["re_wz_quoted"] == pytest.approx(1.0, abs=1e-4)
        # definition-faithful value is also reported and differs
        assert report["re"] < report["closed_form"]["re_wz_quoted"]

    def test_favored_psi(self, capsys):
        _, out, _ = run(capsys, "cloner", "asym", "--z", "0.5",
                        "--favored", "psi")
        report = json.loads(out)
        assert report["per_state"]["psi"]["x"] < 1e-12

    def test_identical_states_rejected(self, capsys):
        code, _, err = run(capsys, "cloner", "sym", "--z", "1.0")
        assert code == 1
        assert "identical states clone ideally" in err

    @pytest.mark.parametrize("dim", ["2", "3"])
    @pytest.mark.parametrize("machine", [["sym"], ["asym"], ["asym", "--favored", "psi"],
                                         ["wz"]], ids=["sym", "asym-phi", "asym-psi", "wz"])
    def test_re_is_a_number_just_below_the_collinear_limit(self, capsys, machine, dim):
        # The builders reject z >= 1 - COLLINEAR_TOL. Just below it the sine
        # of the ideal outputs' angle is still 2.0e-6, far above
        # DEGENERATE_TOL, so every machine they build has a finite RE.
        z = float(np.nextafter(1.0 - COLLINEAR_TOL, 0.0))
        code, out, _ = run(capsys, "cloner", *machine, "--z", repr(z), "--dim", dim)
        report = json.loads(out)
        assert code == 0 and report["z"] == z
        assert type(report["re"]) is float and math.isfinite(report["re"])

    def test_z_and_states_are_mutually_exclusive(self, tmp_path, capsys):
        f = tmp_path / "states.json"
        f.write_text(json.dumps({"phi": [[1, 0], [0, 0]],
                                 "psi": [[0, 0], [1, 0]]}))
        code, _, err = run(capsys, "cloner", "sym", "--z", "0.5",
                           "--states", str(f))
        assert code == 1 and "exactly one" in err
        code, _, err = run(capsys, "cloner", "sym")
        assert code == 1 and "exactly one" in err

    def test_state_file_happy_path(self, tmp_path, capsys):
        inv = 1 / np.sqrt(2)
        f = tmp_path / "states.json"
        f.write_text(json.dumps({
            "phi": [[1, 0], [0, 0]],
            "psi": [[inv, 0], [0, inv]],
        }))
        code, out, _ = run(capsys, "cloner", "asym", "--states", str(f))
        report = json.loads(out)
        assert code == 0
        assert report["z"] == pytest.approx(inv, abs=1e-12)

    def test_state_file_renormalizes_with_warning(self, tmp_path, capsys):
        f = tmp_path / "states.json"
        f.write_text(json.dumps({
            "phi": [[1.001, 0], [0, 0]],
            "psi": [[0, 0], [1, 0]],
        }))
        code, out, err = run(capsys, "cloner", "asym", "--states", str(f))
        assert code == 0
        assert "renormalized" in err
        assert json.loads(out)["z"] == pytest.approx(0.0, abs=1e-12)

    def test_malformed_state_file(self, tmp_path, capsys):
        f = tmp_path / "bad.json"
        f.write_text("{not json")
        code, _, err = run(capsys, "cloner", "asym", "--states", str(f))
        assert code == 1
        f.write_text(json.dumps({"phi": [[1, 0], [0, 0]]}))
        code, _, err = run(capsys, "cloner", "asym", "--states", str(f))
        assert code == 1 and "psi" in err
        f.write_text(json.dumps("phi psi"))
        code, _, err = run(capsys, "cloner", "asym", "--states", str(f))
        assert code == 1 and "must hold a JSON object" in err
        f.write_text(json.dumps({"phi": {"a": 1}, "psi": [[1, 0], [0, 0]]}))
        code, _, err = run(capsys, "cloner", "asym", "--states", str(f))
        assert code == 1 and "'phi' must be a list of [re, im] pairs" in err
        f.write_text('{"phi": %s}' % ("[" * 100_000 + "]" * 100_000))
        code, _, err = run(capsys, "cloner", "asym", "--states", str(f))
        assert code == 1 and "nested too deeply" in err
        # Strings and booleans are not numbers, though numpy would parse them.
        f.write_text(json.dumps({"phi": [["1", "0"], ["0", "0"]],
                                 "psi": [["0.6", "0"], ["0.8", "0"]]}))
        code, out, err = run(capsys, "cloner", "asym", "--states", str(f))
        assert code == 1 and out == ""
        assert "'phi' must be a list of [re, im] pairs" in err
        f.write_text(json.dumps({"phi": [[True, False], [False, False]],
                                 "psi": [[0.6, 0], [0.8, 0]]}))
        code, out, err = run(capsys, "cloner", "asym", "--states", str(f))
        assert code == 1 and out == ""
        assert "'phi' must be a list of [re, im] pairs" in err
        # A missing file and a directory are usage errors too.
        for path in (tmp_path / "missing.json", tmp_path):
            code, out, err = run(capsys, "cloner", "asym", "--states", str(path))
            assert code == 1 and out == ""
            assert err.startswith("clonebound cloner:") and err.count("\n") == 1
            assert str(path) in err and "Traceback" not in err

    @pytest.mark.parametrize("phi, message", [
        ([[1e200, 0], [0, 0]], "squared norm of its amplitudes overflows"),
        ([[0, 0], [1e-170, 0]], "squared norm of its amplitudes underflows"),
        ([[0, 0], [1e-160, 0]], "squared norm of its amplitudes underflows"),
        ([[0, 0], [0, 0]], "'phi' is the zero vector"),
        ([[10**400, 0], [0, 0]], "'phi' must be a list of [re, im] pairs"),
        ([[0, 0], [1, 0], [0, 0]], "dimension mismatch: 3 vs 2"),
    ], ids=["overflow", "underflow", "subnormal", "zero", "huge-integer", "dimensions"])
    def test_unnormalizable_state_file(self, tmp_path, capsys, phi, message):
        f = tmp_path / "states.json"
        f.write_text(json.dumps({"phi": phi, "psi": [[1, 0], [0, 0]]}))
        code, out, err = run(capsys, "cloner", "sym", "--states", str(f))
        assert code == 1 and out == ""
        assert err.startswith("clonebound cloner:") and err.count("\n") == 1
        assert message in err and "Traceback" not in err

    @pytest.mark.parametrize("amplitude", ["NaN", "Infinity"])
    def test_non_finite_state_file(self, tmp_path, capsys, amplitude):
        f = tmp_path / "states.json"
        f.write_text('{"phi": [[1, 0], [0, 0]], "psi": [[%s, 0], [1, 0]]}'
                     % amplitude)
        code, _, err = run(capsys, "cloner", "sym", "--states", str(f))
        assert code == 1
        assert "'psi' has a non-finite amplitude" in err
        assert "Traceback" not in err

    def test_dim_with_states_is_a_usage_error(self, tmp_path, capsys):
        f = tmp_path / "states.json"
        f.write_text(json.dumps({"phi": [[1, 0], [0, 0]],
                                 "psi": [[0, 0], [1, 0]]}))
        code, out, err = run(capsys, "cloner", "sym", "--states", str(f),
                             "--dim", "5")
        assert code == 1 and out == ""
        assert "--dim applies only with --z" in err

    def test_report_to_file(self, tmp_path, capsys):
        out_file = tmp_path / "report.json"
        code, _, _ = run(capsys, "cloner", "asym", "--z", "0.3",
                         "--out", str(out_file))
        assert code == 0
        assert json.loads(out_file.read_text())["z"] == pytest.approx(0.3)


class TestLemmas:
    def test_small_run_passes(self, capsys):
        code, out, _ = run(capsys, "lemmas", "--trials", "2000", "--seed", "7")
        assert code == 0
        lines = [ln for ln in out.strip().split("\n") if "violations=" in ln]
        assert len(lines) == 5
        assert all("violations=0" in ln for ln in lines)

    def test_single_trial(self, capsys):
        code, _, _ = run(capsys, "lemmas", "--trials", "1")
        assert code == 0

    def test_dims_list_syntax(self, capsys):
        code, _, _ = run(capsys, "lemmas", "--trials", "100", "--dims", "2,4")
        assert code == 0

    def test_invalid_dims(self, capsys):
        code, _, err = run(capsys, "lemmas", "--trials", "10", "--dims", "1-3")
        assert code == 1 and ">= 2" in err
        # A long range names its lowest dimension, not every one.
        code, out, err = run(capsys, "lemmas", "--trials", "10", "--dims", "0-100000")
        assert (code, out) == (1, "")
        assert err == "clonebound lemmas: dimensions must all be >= 2, got 0\n"
        # A repeated dimension would draw its blocks twice; no sweep prints.
        code, out, err = run(capsys, "lemmas", "--trials", "8", "--dims", "2,3,2")
        assert (code, out) == (1, "")
        assert err == "clonebound lemmas: dimensions must be distinct, got (2, 3, 2)\n"
        # More dimensions than a tuple can hold: an OverflowError, not a size.
        code, _, err = run(capsys, "lemmas", "--trials", "5", "--dims", f"2-{10 ** 30}")
        assert code == 1 and err == (f"clonebound lemmas: --dims range '2-{10 ** 30}' "
                                     f"holds too many dimensions\n")
        code, out, err = run(capsys, "lemmas", "--trials", "5", "--dims", "5-3")
        assert (code, out) == (1, "")
        assert err == "clonebound lemmas: --dims range '5-3' is empty: lo exceeds hi\n"

    def test_invalid_trials(self, capsys):
        code, _, _ = run(capsys, "lemmas", "--trials", "0")
        assert code == 1

    def test_nan_slack_exits_three(self, capsys, monkeypatch):
        patch_slack(monkeypatch, "lemma1", lambda n, dim, rng: np.full(n, np.nan))
        code, out, err = run(capsys, "lemmas", "--trials", "100", "--dims", "2")
        assert code == 3
        assert "lemma1: trials=100 min_slack=nan violations=100\n" in out
        assert err.startswith("clonebound lemmas: 100 violations")

    def test_an_undercut_of_5e_10_exits_three_whatever_the_environment(
            self, capsys, monkeypatch):
        # Every sample of lemma 2 misses by 5e-10, five times the rounding
        # allowance DEFAULT_SWEEP_TOL, and a CLONEBOUND_TOL in the
        # environment is not read.
        triples = geometry._triples

        def undercut(*sample):
            lemma1, (lhs, _), lemma3 = triples(*sample)
            return lemma1, (lhs, lhs - 5e-10), lemma3

        monkeypatch.setattr(geometry, "_triples", undercut)
        monkeypatch.setenv("CLONEBOUND_TOL", "1e-9")
        code, out, err = run(capsys, "lemmas", "--trials", "100", "--dims", "2")
        assert code == 3
        assert re.search(r"^lemma2: trials=100 min_slack=-\S+ violations=100$", out, re.M)
        assert err.startswith("clonebound lemmas: 100 violations")

    def test_tol_is_not_an_option(self, capsys):
        code, out, err = run(capsys, "lemmas", "--trials", "5", "--tol", "0")
        assert (code, out) == (1, "")
        assert "unrecognized arguments: --tol 0" in err

    def test_each_block_is_drawn_once(self, capsys, monkeypatch):
        assert_each_block_drawn_once(capsys, monkeypatch)


def assert_each_block_drawn_once(capsys, monkeypatch):
    """Run ``lemmas --trials 20000 --dims 2-8`` with ``geometry.random_states``,
    the tracer's seam, counting its calls, and assert that each block was
    drawn once: from every block's generator one draw of 3n states, the
    triples that all five sweeps share."""
    calls = []
    random_states = geometry.random_states

    def counted(n, dim, rng):
        calls.append((rng.bit_generator.seed_seq.spawn_key, n))
        return random_states(n, dim, rng)

    monkeypatch.setattr(geometry, "random_states", counted)
    assert run(capsys, "lemmas", "--trials", "20000", "--dims", "2-8")[0] == 0
    # 20000 trials over seven dimensions: one block of 2857 or 2858 each.
    blocks = [((dim, 0), n) for dim, n in geometry._split_trials(20000, range(2, 9))]
    assert sorted(calls) == sorted((key, 3 * n) for key, n in blocks)


class TestVerify:
    def test_single_point(self, capsys):
        code, out, _ = run(capsys, "verify", "--z", "0.5", "--restarts", "3",
                           "--sweep-trials", "2000", "--seed", "1")
        assert code == 0
        report = json.loads(out)
        assert report["violations"] == 0
        point = report["points"][0]
        assert point["best_re"] - point["bound_re"] < 1e-5
        assert point["best_ae"] >= point["bound_ae"] - 1e-9

    def test_z_list(self, tmp_path, capsys):
        out_file = tmp_path / "verify.json"
        code, _, _ = run(capsys, "verify", "--z", "0.1,0.9", "--restarts", "2",
                         "--sweep-trials", "1000", "--out", str(out_file))
        assert code == 0
        report = json.loads(out_file.read_text())
        assert [p["z"] for p in report["points"]] == [0.1, 0.9]

    def test_out_of_range_z(self, capsys):
        code, _, err = run(capsys, "verify", "--z", "1.5")
        assert code == 1 and "(0, 0.99]" in err
        code, _, _ = run(capsys, "verify", "--z", "0")
        assert code == 1
        for count in ("--restarts", "--sweep-trials"):
            code, out, err = run(capsys, "verify", "--z", "0.5", count, "0")
            assert (code, out) == (1, "")
            assert err == "clonebound verify: --restarts and --sweep-trials must be >= 1\n"

    def test_unparsable_z(self, capsys):
        code, _, err = run(capsys, "verify", "--z", "0.5,oops")
        assert code == 1 and "parse" in err

    def test_nan_sweep_exits_three_with_strict_json(self, tmp_path, capsys, monkeypatch):
        sample = search._sample_block

        def nan_ae(rng, n, z):
            ae, re, chain1, chain2 = sample(rng, n, z)
            ae[3] = np.nan
            return ae, re, chain1, chain2

        monkeypatch.setattr(search, "_sample_block", nan_ae)
        out_file = tmp_path / "verify.json"
        code, _, err = run(capsys, "verify", "--z", "0.4", "--restarts", "1",
                           "--sweep-trials", "50", "--seed", "3", "--out", str(out_file))
        assert code == 3 and err == "clonebound verify: 1 floor violations\n"
        report = json.loads(out_file.read_text(), parse_constant=_reject_non_finite)
        sweep = report["points"][0]["sweep"]
        assert sweep["ae_min"] is sweep["ae_mean"] is sweep["ae_max"] is None
        assert sweep["floor_violations"] == 1 and sweep["re_min"] is not None

    def test_chain_violations_exit_three(self, capsys, monkeypatch):
        sample = search._sample_block

        def bad_chains(rng, n, z):
            ae, re, chain1, chain2 = sample(rng, n, z)
            chain1[2], chain2[5] = -1e-6, np.nan
            return ae, re, chain1, chain2

        monkeypatch.setattr(search, "_sample_block", bad_chains)
        code, out, err = run(capsys, "verify", "--z", "0.4", "--restarts", "1",
                             "--sweep-trials", "50", "--seed", "3")
        report = json.loads(out)
        assert report["points"][0]["sweep"]["chain_violations"] == 2
        assert report["violations"] == 0
        assert code == 3 and err == "clonebound verify: 2 chain violations\n"

    # The planted defects of the verdict table: a floor raised past what the
    # search reaches is a violation (exit 3); a floor lowered below it, or a
    # search that stops short of it, is an attainment failure (exit 4).
    VERIFY_ARGS = ("verify", "--z", "0.1,0.5,0.9", "--restarts", "20", "--seed", "1")

    def test_raised_ae_floor_exits_three(self, capsys, monkeypatch):
        floor = search.ae_lower_bound
        monkeypatch.setattr(search, "ae_lower_bound", lambda z: floor(z) + 1e-8)
        code, out, err = run(capsys, *self.VERIFY_ARGS)
        violations = json.loads(out)["violations"]
        assert code == 3 and violations > 0
        assert err == f"clonebound verify: {violations} floor violations\n"

    def test_ae_floor_raised_by_5e_10_exits_three(self, capsys, monkeypatch):
        # The search reaches the AE floor to ~1e-16, so a floor 5e-10 too
        # high is five times the rounding allowance DEFAULT_SWEEP_TOL above it.
        floor = search.ae_lower_bound
        monkeypatch.setattr(search, "ae_lower_bound", lambda z: floor(z) + 5e-10)
        code, _, err = run(capsys, "verify", "--z", "0.5", "--restarts", "2",
                           "--sweep-trials", "500", "--seed", "1")
        assert code == 3 and err == "clonebound verify: 1 floor violations\n"

    def test_lowered_ae_floor_exits_four(self, capsys, monkeypatch):
        floor = search.ae_lower_bound
        for drop in (1e-4, 1e-6):
            monkeypatch.setattr(search, "ae_lower_bound", lambda z, drop=drop: floor(z) - drop)
            code, out, err = run(capsys, *self.VERIFY_ARGS)
            report = json.loads(out)
            assert code == 4 and report["violations"] == 0, drop
            assert err == (f"clonebound verify: attainment gap {report['max_attainment_gap']:.3e}"
                           f" exceeds {geometry.DEFAULT_SWEEP_TOL}\n")

    def test_crippled_optimizer_exits_four(self, capsys, monkeypatch):
        # One L-BFGS-B iteration per start leaves the best point short of the
        # floor; no start is handed a point that attains it.
        monkeypatch.setattr(search, "LBFGSB_MAX_ITER", 1)
        code, out, err = run(capsys, *self.VERIFY_ARGS)
        report = json.loads(out)
        assert code == 4 and report["violations"] == 0
        assert report["max_attainment_gap"] > geometry.DEFAULT_SWEEP_TOL
        assert err.startswith("clonebound verify: attainment gap ")

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_ends_of_the_range_attain(self, capsys, seed):
        code, out, err = run(capsys, "verify", "--z", "0.01,0.99", "--restarts", "20",
                             "--seed", str(seed))
        assert (code, err) == (0, ""), err
        assert json.loads(out)["max_attainment_gap"] <= geometry.DEFAULT_SWEEP_TOL


class TestSeedsAndDeterminism:
    @pytest.mark.parametrize("value", ["123", "abc", "-3"])
    def test_no_environment_variable_sets_the_seed(self, capsys, monkeypatch, value):
        # CLONEBOUND_SEED was once the seed's default; now --seed alone sets it.
        for argv in (("lemmas", "--trials", "1000"), ("cloner", "sym", "--z", "0.5")):
            monkeypatch.delenv("CLONEBOUND_SEED", raising=False)
            code, out, err = run(capsys, *argv)
            assert (code, err) == (0, "")
            monkeypatch.setenv("CLONEBOUND_SEED", value)
            code, out_env, err = run(capsys, *argv)
            assert (code, err) == (0, "")
            assert strip_timestamp(out_env) == strip_timestamp(out)

    def test_bounds_csv_bytes_are_reproducible(self, tmp_path, capsys):
        a, b = tmp_path / "a", tmp_path / "b"
        run(capsys, "bounds", "--steps", "101", "--out", str(a), "--seed", "5")
        run(capsys, "bounds", "--steps", "101", "--out", str(b), "--seed", "5")
        assert (a / "fig1.csv").read_bytes() == (b / "fig1.csv").read_bytes()
        assert (a / "fig2.csv").read_bytes() == (b / "fig2.csv").read_bytes()

    @pytest.mark.parametrize("argv, message", [
        (("lemmas", "--trials", "5", "--seed", "-1"),
         "--seed must be an integer >= 0, got -1"),
        (("verify", "--z", "0.5", "--seed", "-1"),
         "--seed must be an integer >= 0, got -1"),
        (("bounds", "--seed", "-1", "--out", "{tmp}"),
         "--seed must be an integer >= 0, got -1"),
    ], ids=["seed-negative-lemmas", "seed-negative-verify", "seed-negative-bounds"])
    def test_bad_seed_or_tol_is_a_usage_error(self, tmp_path, capsys, argv, message):
        argv = [a.replace("{tmp}", str(tmp_path / "out")) for a in argv]
        code, _, err = run(capsys, *argv)
        assert code == 1
        assert message in err
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_cloner_json_reproducible_modulo_timestamp(self, capsys):
        _, out1, _ = run(capsys, "cloner", "asym", "--z", "0.5", "--seed", "3")
        _, out2, _ = run(capsys, "cloner", "asym", "--z", "0.5", "--seed", "3")
        assert strip_timestamp(out1) == strip_timestamp(out2)


@pytest.mark.parametrize("argv", [
    ("cloner", "asym", "--z", "0.3"),
    ("verify", "--z", "0.5", "--restarts", "1", "--sweep-trials", "10"),
])
def test_unwritable_report_is_an_io_error(tmp_path, capsys, argv):
    target = tmp_path / "missing" / "report.json"
    code, out, err = run(capsys, *argv, "--out", str(target))
    assert code == 2 and out == ""
    assert "cannot write" in err


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_full_report_file_is_named(capsys):
    # The write fails only when the file is closed, with no file name attached.
    code, out, err = run(capsys, "cloner", "asym", "--z", "0.3", "--out", "/dev/full")
    assert (code, out) == (2, "")
    assert err.startswith("clonebound cloner: cannot write /dev/full: [Errno 28] ")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_full_bounds_file_fails_mid_stream_with_one_line(tmp_path, fmt):
    # fig1 spans many blocks, so a write fails while blocks are still to
    # come, not at close as for a short report.
    out = tmp_path / "out"
    out.mkdir()
    target = out / f"fig1.{fmt}"
    target.symlink_to("/dev/full")
    proc = subprocess.run(
        [sys.executable, "-m", "clonebound.cli", "bounds", "--steps", "200001",
         "--format", fmt, "--out", str(out)],
        capture_output=True, text=True, timeout=300)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.startswith(
        f"clonebound bounds: cannot write {target}: [Errno 28] ")
    assert proc.stderr.count("\n") == 1 and proc.stderr.endswith("\n")


@pytest.mark.skipif(resource is None, reason="needs the resource module")
def test_file_size_limit_leaves_no_partial_artifact(tmp_path):
    # Under a 1 MiB file size limit fig1.csv fails mid-stream (CPython
    # ignores SIGXFSZ, so the write raises). Its new file is removed, and
    # the fig2.csv of an earlier run keeps its bytes.
    out = tmp_path / "out"
    out.mkdir()
    (out / "fig2.csv").write_bytes(b"earlier run\n")
    limit = 1 << 20
    proc = subprocess.run(
        [sys.executable, "-m", "clonebound.cli", "bounds", "--steps", "200001",
         "--out", str(out)],
        capture_output=True, text=True, timeout=300,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_FSIZE, (limit, limit)))
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.startswith(
        f"clonebound bounds: cannot write {out / 'fig1.csv'}: [Errno 27] ")
    assert proc.stderr.count("\n") == 1 and proc.stderr.endswith("\n")
    assert sorted(os.listdir(out)) == ["fig2.csv"]
    assert (out / "fig2.csv").read_bytes() == b"earlier run\n"


def _interrupt(argv, started, env=None, sigint=signal.SIG_DFL):
    """Run ``argv`` in a child that starts with ``sigint`` as its SIGINT
    action, whatever this process's is (a shell starts a background job
    ignoring SIGINT), send it SIGINT once ``started(child)`` is true, and
    return its exit code, stdout and stderr."""
    proc = subprocess.Popen(
        [sys.executable, "-u", "-m", "clonebound.cli", *argv],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, env=env, preexec_fn=lambda: signal.signal(signal.SIGINT, sigint))
    try:
        deadline = time.monotonic() + 120
        while not started(proc):
            assert proc.poll() is None and time.monotonic() < deadline
            time.sleep(0.01)
        proc.send_signal(signal.SIGINT)
        stdout, stderr = proc.communicate(timeout=120)
    finally:
        proc.kill()
        proc.wait()
    return proc.returncode, stdout, stderr


def test_interrupt_exits_130_with_one_line(tmp_path):
    # Wait until the child has created a file in d, so that it is inside
    # main. The unfinished fig1.csv must then leave nothing behind.
    out = tmp_path / "d"
    result = _interrupt(["bounds", "--steps", "3000001", "--out", str(out)],
                        lambda child: out.exists() and any(out.iterdir()))
    assert result == (130, "", "clonebound bounds: interrupted\n")
    assert list(out.iterdir()) == []


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs /proc")
def test_lemmas_interrupt_exits_130_with_one_line():
    # The sweeps' one pass prints nothing until it ends, so a second thread
    # shows that the child is inside it: the pass starts a thread pool, and
    # nothing before it starts a thread while OpenBLAS keeps one, as it does
    # when neither variable below is set. What the child printed before
    # SIGINT stays whole lines.
    env = {k: v for k, v in os.environ.items()
           if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
    code, stdout, stderr = _interrupt(
        ["lemmas", "--trials", "3000000", "--seed", "1"],
        lambda child: len(os.listdir(f"/proc/{child.pid}/task")) > 1, env)
    assert (code, stderr) == (130, "clonebound lemmas: interrupted\n")
    for line in stdout.splitlines(keepends=True):
        assert re.fullmatch(r"\w+: trials=\d+ min_slack=\S+ violations=0\n", line)


@pytest.mark.parametrize("argv, last", [
    (["cloner", "sym", "--z", "0.5"], "}\n"),
    (["lemmas", "--trials", "2000"], "gate_approx: "),
], ids=["cloner", "lemmas"])
def test_late_interrupt_ends_the_command_without_a_traceback(argv, last):
    # SIGINT right after the report's last line lands as main returns or
    # while the interpreter shuts down. Either main reports it, or the
    # process ends by the signal; no try prints a traceback.
    for _ in range(3):
        code, _, stderr = _interrupt(
            argv, lambda child: any(line.startswith(last) for line in child.stdout))
        assert "Traceback" not in stderr and "Exception ignored" not in stderr
        assert (code, stderr) in ((130, f"clonebound {argv[0]}: interrupted\n"),
                                  (-signal.SIGINT, ""))


def test_late_interrupt_that_the_caller_ignores_stays_ignored():
    # A command started with SIGINT ignored, as a shell starts a background
    # job, finishes as if no SIGINT came.
    code, _, stderr = _interrupt(["cloner", "sym", "--z", "0.5"],
                                 lambda child: any(line == "}\n" for line in child.stdout),
                                 sigint=signal.SIG_IGN)
    assert (code, stderr) == (0, "")


def _out_of_memory(*args, **kwargs):
    raise MemoryError("Unable to allocate 43.7 TiB for an array with shape "
                      "(6000000000000,) and data type float64")


@pytest.mark.parametrize("argv, attr, fake", [
    (("lemmas", "--trials", str(10 ** 12), "--dims", "2"), "ALL_SWEEPS",
     (("lemma1", _out_of_memory),)),
    (("verify", "--z", "0.5", "--sweep-trials", str(10 ** 12)), "verify_point",
     _out_of_memory),
    (("bounds", "--steps", str(10 ** 12)), "sample_curve", _out_of_memory),
])
def test_out_of_memory_exits_one(capsys, monkeypatch, argv, attr, fake):
    # The sizes are never allocated: the call that would allocate them is
    # replaced, and raises before anything is written.
    monkeypatch.setattr(f"clonebound.cli.{attr}", fake)
    code, _, err = run(capsys, *argv)
    assert code == 1
    assert err == f"clonebound {argv[0]}: out of memory: Unable to allocate 43.7 TiB " \
                  f"for an array with shape (6000000000000,) and data type float64\n"


@pytest.mark.parametrize("argv", [
    ("lemmas", "--trials", str(10 ** 30), "--dims", "2"),
    ("lemmas", "--trials", "5", "--dims", str(10 ** 30)),
    ("verify", "--z", "0.5", "--restarts", "1", "--sweep-trials", str(10 ** 30)),
    ("verify", "--z", "0.5", "--restarts", str(10 ** 30), "--sweep-trials", "1"),
])
def test_oversized_count_exits_one(capsys, argv):
    # numpy cannot convert a size this large to an index; every count is
    # checked the same way, with numpy's message, before anything is allocated.
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert err == f"clonebound {argv[0]}: Maximum allowed dimension exceeded\n"


FULL_STDOUT_ARGVS = pytest.mark.parametrize("argv", [
    ("bounds", "--out", "{tmp}"),
    ("cloner", "sym", "--z", "0.5"),
    ("lemmas", "--trials", "10", "--dims", "2"),
    ("verify", "--z", "0.5", "--restarts", "1", "--sweep-trials", "10"),
    ("lemmas", "--help"),
    ("--version",),
])


def _assert_full_stdout_exits_two(tmp_path, argv, unbuffered):
    """Run ``argv`` in a fresh process with stdout on a full device."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    argv = [a.replace("{tmp}", str(tmp_path / "out")) for a in argv]
    with open("/dev/full", "w") as full:
        proc = subprocess.run([sys.executable, "-m", "clonebound.cli", *argv],
                              stdout=full, stderr=subprocess.PIPE, env=env,
                              cwd=tmp_path, text=True, timeout=300)
    # Help and version print before any command is chosen to run.
    prefix = "clonebound" if {"--help", "--version"} & set(argv) else f"clonebound {argv[0]}"
    assert (proc.returncode, proc.stderr) == (
        2, f"{prefix}: cannot write stdout: [Errno 28] No space left on device\n")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@FULL_STDOUT_ARGVS
def test_full_stdout_is_an_io_error(tmp_path, argv):
    # Buffered stdout: the interpreter's flush at exit must not then fail
    # on the text main could not write.
    _assert_full_stdout_exits_two(tmp_path, argv, unbuffered=False)


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@FULL_STDOUT_ARGVS
def test_full_unbuffered_stdout_is_an_io_error(tmp_path, argv):
    # Unbuffered stdout: the write itself fails, for help and version inside
    # argparse, which would swallow the error.
    _assert_full_stdout_exits_two(tmp_path, argv, unbuffered=True)


@pytest.mark.parametrize("set_env, threads", [
    ({}, "1"),
    ({"OPENBLAS_NUM_THREADS": "3"}, "3"),
    ({"OMP_NUM_THREADS": "2"}, None),
])
def test_blas_threads_default_to_one_unless_set(set_env, threads):
    env = {k: v for k, v in os.environ.items()
           if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
    proc = subprocess.run(
        [sys.executable, "-c", "import clonebound, os; "
         "print(os.environ.get('OPENBLAS_NUM_THREADS'))"],
        env={**env, **set_env}, capture_output=True, text=True, timeout=300)
    assert (proc.returncode, proc.stdout) == (0, f"{threads}\n")


# The package's public names: every function, class and constant that
# ``import *`` binds. The submodules are reached as attributes.
PUBLIC_NAMES = {
    "ATOL_ALG", "ATOL_UNITARY", "BoundCurve", "CloneAnalysis", "ClonerResult",
    "FactorDims", "InequalityReport", "Projector", "RE_BOUND_ARGMAX", "SearchConfig",
    "SearchOutcome", "SweepResult", "SweepStats", "TwoStateSet", "absolute_error",
    "ae_lower_bound", "analyze_output", "analyze_pair", "angle", "apply_projector",
    "basis_state", "build_asymmetric", "build_symmetric", "build_wootters_zurek",
    "closed_form_re_s", "closed_form_re_wz", "coplanar_equality_witness",
    "gate_approx_check", "gate_bound", "gram_schmidt_residual", "hb_bound",
    "inequality_chain", "inner", "lemma1_check", "lemma2_defect", "lemma3_check",
    "lemma4_check", "lemma4_saturation_witness", "materialize_unitary", "measure_prob",
    "measurement_deviation", "minimize_objective", "normalize", "plane_frame",
    "random_cloner_sweep", "random_projector", "random_state", "random_unitary",
    "re_lower_bound", "relative_error", "replay_sample", "sample_curve",
    "sweep_gate_approx", "sweep_lemma1", "sweep_lemma2", "sweep_lemma3",
    "sweep_lemma4", "tensor", "unitarity_residual", "verify_point",
}


def test_star_import_binds_the_public_names_and_no_module():
    namespace = {}
    exec("from clonebound import *", namespace)
    del namespace["__builtins__"]
    assert set(clonebound.__all__) == set(namespace) == PUBLIC_NAMES
    assert not [name for name, value in namespace.items() if inspect.ismodule(value)]
    assert clonebound.search is search
    # Each public sweep's help names its inequality, not a template's field.
    for name in sorted(n for n in PUBLIC_NAMES if n.startswith("sweep_")):
        doc = inspect.getdoc(namespace[name])
        assert "``name``" not in doc and " <= " in doc.splitlines()[1], name


class TestUsage:
    def test_unknown_command_exits_one(self, capsys):
        assert main(["fly"]) == 1
        assert main(["cloner", "tripler", "--z", "0.5"]) == 1

    def test_no_command_exits_one(self, capsys):
        assert main([]) == 1

    def test_version_exits_zero(self, capsys):
        assert main(["--version"]) == 0


# Inputs at the edge of what the loaders and the range check accept.
_EDGE_FLOATS = [0.0, -0.0, 0.5, 1.0, -1.0, 1e308, -1e308, 1e-320, 1e-170,
                math.nan, math.inf, -math.inf]
_AMPLITUDES = st.one_of(st.sampled_from(_EDGE_FLOATS + [10 ** 400]),
                        st.floats(), st.integers(-3, 3))
# JSON strings and booleans: not numbers, though np.asarray(..., dtype=float)
# reads "1" or true as 1.0.
_NOT_NUMBERS = st.one_of(st.booleans(), st.sampled_from(["1", "0.6", "nan", ""]),
                         st.text(max_size=3))
_AMPLITUDES = st.one_of(_AMPLITUDES, _NOT_NUMBERS)
_STATES = st.one_of(
    st.lists(st.lists(_AMPLITUDES, min_size=2, max_size=2), max_size=4),
    st.lists(st.lists(_AMPLITUDES, max_size=3), max_size=4),     # ragged
    st.dictionaries(st.text(max_size=3), _AMPLITUDES, max_size=2),
    st.text(max_size=5),
    _AMPLITUDES,
)


def _pairs(dim, amplitude=st.one_of(st.floats(-2, 2),
                                    st.sampled_from([1e-8, 1e-170, 1e-320]))):
    return st.lists(st.lists(amplitude, min_size=2, max_size=2),
                    min_size=dim, max_size=dim)


_PAYLOADS = st.one_of(
    st.integers(2, 4).flatmap(
        lambda dim: st.fixed_dictionaries({"phi": _pairs(dim), "psi": _pairs(dim)})),
    st.integers(2, 4).flatmap(lambda dim: st.fixed_dictionaries({
        "phi": _pairs(dim), "psi": _pairs(dim, st.one_of(st.floats(-2, 2), _NOT_NUMBERS))})),
    st.fixed_dictionaries({"phi": _STATES, "psi": _STATES}),
    st.dictionaries(st.sampled_from(["phi", "psi", "x"]), _STATES, max_size=3),
    st.text(max_size=8),
    st.lists(_AMPLITUDES, max_size=3),
    _AMPLITUDES,
)
_Z_ENDS = st.one_of(
    st.sampled_from(_EDGE_FLOATS + [math.nextafter(0.5, 1.0), math.nextafter(0.5, 0.0),
                                    math.nextafter(1.0, 0.0), math.nextafter(1.0, 2.0),
                                    5e-324]),
    st.floats(),
)


def _holds_non_number(payload) -> bool:
    """True when a 'phi' or 'psi' row of the state file holds a non-number."""
    if not isinstance(payload, dict):
        return False
    return any(type(a) not in (int, float)
               for key in ("phi", "psi") if isinstance(payload.get(key), list)
               for row in payload[key] if isinstance(row, list)
               for a in row)


def _reject_non_finite(token):
    """json.loads hook for NaN, Infinity and -Infinity, the only non-finite tokens."""
    raise AssertionError(f"non-finite number {token} in the report")


@given(st.one_of(
    st.tuples(st.just("cloner"), st.sampled_from(["sym", "asym", "wz"]), _PAYLOADS),
    st.tuples(st.just("bounds"), _Z_ENDS, _Z_ENDS, st.integers(-1, 50)),
))
@settings(max_examples=200, deadline=None)
# |<phi|psi>| is subnormal, and dividing by it overflows.
@example(("cloner", "wz", {"phi": [[0, 0], [0, 1]],
                           "psi": [[0, 1], [0, 1.0095485547531997e-64]]}))
def test_input_boundary_fuzz(case):
    """Any state file or bounds range exits 0 or 1, never with a traceback."""
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        if case[0] == "cloner":
            _, kind, payload = case
            states = Path(tmp) / "states.json"
            states.write_text(json.dumps(payload))
            argv = ["cloner", kind, "--states", str(states)]
        else:
            _, z_min, z_max, steps = case
            argv = ["bounds", f"--z-min={z_min!r}", f"--z-max={z_max!r}",
                    f"--steps={steps}", "--out", tmp]
        code = main(argv)
    assert code in (0, 1), (argv, err.getvalue())
    assert "Traceback" not in err.getvalue()
    if case[0] == "cloner" and _holds_non_number(case[2]):
        assert code == 1, (argv, out.getvalue())
    if case[0] == "cloner" and code == 0:
        json.loads(out.getvalue(), parse_constant=_reject_non_finite)


def _dims_texts():
    """``--dims`` values: small integers joined by ',' or '-', never free text."""
    return st.lists(st.integers(-3, 12), min_size=1, max_size=4).flatmap(
        lambda ds: st.lists(st.sampled_from([",", "-"]), min_size=len(ds) - 1,
                            max_size=len(ds) - 1).map(
            lambda seps: str(ds[0]) + "".join(s + str(d) for s, d in zip(seps, ds[1:]))))


@given(st.integers(1, 50), _dims_texts())
@settings(max_examples=100, deadline=None)
def test_lemmas_and_environment_fuzz(trials, dims):
    """Any lemmas run or --dims value exits 0 or 1."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(["lemmas", "--trials", str(trials), f"--dims={dims}"])
    assert code in (0, 1), (trials, dims, err.getvalue())
    assert "Traceback" not in err.getvalue()


# --z entries: edge values of the (0, 0.99] range check, any float, or text.
_Z_ENTRY = st.one_of(
    st.sampled_from(["0", "0.99", repr(math.nextafter(0.99, 1.0)), "5e-324", "1e-170",
                     "1", "-0.5", "nan", "inf", "", " 0.5 ", "0x1"]),
    st.floats(0.0, 1.0).map(repr),
    st.text(max_size=4),
)


@given(st.lists(_Z_ENTRY, min_size=1, max_size=3).map(",".join),
       st.integers(1, 3), st.integers(1, 200), st.integers(0, 2 ** 32))
@settings(max_examples=100, deadline=None)
def test_verify_fuzz(z_text, restarts, sweep_trials, seed):
    """Any verify --z list, restart count and sweep size exits 0-4 cleanly."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(["verify", f"--z={z_text}", "--restarts", str(restarts),
                     "--sweep-trials", str(sweep_trials), "--seed", str(seed)])
    assert code in (0, 1, 2, 3, 4), (z_text, restarts, sweep_trials, err.getvalue())
    assert "Traceback" not in err.getvalue()


# Free argv: the flags of each command with values of their type most of
# the time. Sizes are small or too large for any array (never one that
# really allocates); text holds no digit that int() would read.
_INT = st.one_of(st.integers(-3, 50), st.integers(10 ** 30, 10 ** 40),
                 st.just(int("1" * 400))).map(str)
_FLOAT = st.sampled_from(_EDGE_FLOATS + [0.99, 0.37, 5e-324]).map(repr)
_TEXT = st.text(st.characters(exclude_characters="\x00", exclude_categories=("Cs", "Nd")),
                max_size=4).filter(lambda t: not t.startswith("-"))
_VALUES = {
    **dict.fromkeys(["--steps", "--seed", "--dim", "--trials", "--restarts",
                     "--sweep-trials"], _INT),
    **dict.fromkeys(["--z-min", "--z-max", "--z"], _FLOAT),
    "--out": _TEXT, "--states": _TEXT,
    "--dims": st.one_of(_INT, st.sampled_from(["2-8", "2,3", "5-3", f"2-{10 ** 30}"])),
    "--format": st.sampled_from(["csv", "json"]),
    "--favored": st.sampled_from(["phi", "psi"]),
}
_ANY_VALUE = st.one_of(*_VALUES.values())
_FLAGS = {
    "bounds": ["--z-min", "--z-max", "--steps", "--out", "--format", "--seed"],
    "cloner": ["--z", "--states", "--dim", "--favored", "--out", "--seed"],
    "lemmas": ["--trials", "--dims", "--seed"],
    "verify": ["--z", "--restarts", "--sweep-trials", "--seed", "--out"],
}
# Runnable defaults that the drawn flags override, small so that runs are short.
_BASE = {
    "bounds": st.just(["bounds"]),
    "cloner": st.sampled_from(["sym", "asym", "wz"]).map(lambda k: ["cloner", k, "--z", "0.5"]),
    "lemmas": st.just(["lemmas", "--trials", "5", "--dims", "2"]),
    "verify": st.just(["verify", "--z", "0.5", "--restarts", "1", "--sweep-trials", "10"]),
}


def _free_argv(command):
    pair = st.sampled_from(_FLAGS[command]).flatmap(
        lambda f: st.one_of(_VALUES[f], _VALUES[f], _ANY_VALUE).map(lambda v: [f, v]))
    # One argv in four ends in a stray flag or value.
    stray = st.one_of(st.sampled_from([*_VALUES, "--help", "--version"]), _ANY_VALUE)
    tail = st.one_of(st.just([]), st.just([]), st.just([]), stray.map(lambda t: [t]))
    return st.tuples(_BASE[command], st.lists(pair, max_size=4), tail).map(
        lambda t: t[0] + sum(t[1], []) + t[2])


@given(st.sampled_from(sorted(_FLAGS)).flatmap(_free_argv))
@settings(max_examples=150, deadline=None)
def test_free_argv_fuzz(argv):
    """Any argv returns an exit code 0-4 and raises nothing out of main."""
    for i in range(1, len(argv)):
        # The search runs its restarts in a Python loop: cap them at 3.
        if argv[i - 1] == "--restarts" and argv[i].lstrip("-").isdecimal():
            argv[i] = str(min(int(argv[i]), 3))
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp, \
            contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        mp.chdir(tmp)
        code = main(argv)
    assert code in (0, 1, 2, 3, 4), (argv, err.getvalue())
