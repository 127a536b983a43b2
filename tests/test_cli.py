import contextlib
import io
import json
import math
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from clonebound.cli import main


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

    @pytest.mark.parametrize("phi, message", [
        ([[1e200, 0], [0, 0]], "squared norm of its amplitudes overflows"),
        ([[0, 0], [1e-170, 0]], "squared norm of its amplitudes underflows"),
        ([[0, 0], [1e-160, 0]], "squared norm of its amplitudes underflows"),
        ([[0, 0], [0, 0]], "'phi' is the zero vector"),
    ], ids=["overflow", "underflow", "subnormal", "zero"])
    def test_unnormalizable_state_file(self, tmp_path, capsys, phi, message):
        f = tmp_path / "states.json"
        f.write_text(json.dumps({"phi": phi, "psi": [[1, 0], [1, 0]]}))
        code, out, err = run(capsys, "cloner", "sym", "--states", str(f))
        assert code == 1 and out == ""
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

    def test_invalid_trials(self, capsys):
        code, _, _ = run(capsys, "lemmas", "--trials", "0")
        assert code == 1


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

    def test_unparsable_z(self, capsys):
        code, _, err = run(capsys, "verify", "--z", "0.5,oops")
        assert code == 1 and "parse" in err


class TestSeedsAndDeterminism:
    def test_env_seed_matches_flag_seed(self, tmp_path, capsys, monkeypatch):
        a, b = tmp_path / "a", tmp_path / "b"
        monkeypatch.setenv("CLONEBOUND_SEED", "123")
        run(capsys, "verify", "--z", "0.5", "--restarts", "2",
            "--sweep-trials", "500", "--out", str(a))
        monkeypatch.delenv("CLONEBOUND_SEED")
        run(capsys, "verify", "--z", "0.5", "--restarts", "2",
            "--sweep-trials", "500", "--seed", "123", "--out", str(b))
        assert strip_timestamp(a.read_text()) == strip_timestamp(b.read_text())

    def test_bounds_csv_bytes_are_reproducible(self, tmp_path, capsys):
        a, b = tmp_path / "a", tmp_path / "b"
        run(capsys, "bounds", "--steps", "101", "--out", str(a), "--seed", "5")
        run(capsys, "bounds", "--steps", "101", "--out", str(b), "--seed", "5")
        assert (a / "fig1.csv").read_bytes() == (b / "fig1.csv").read_bytes()
        assert (a / "fig2.csv").read_bytes() == (b / "fig2.csv").read_bytes()

    @pytest.mark.parametrize("argv, env, message", [
        (("lemmas", "--trials", "5"), {"CLONEBOUND_SEED": "abc"},
         "CLONEBOUND_SEED must be an integer >= 0, got 'abc'"),
        (("lemmas", "--trials", "5", "--seed", "-1"), {},
         "--seed must be an integer >= 0, got -1"),
        (("verify", "--z", "0.5", "--seed", "-1"), {},
         "--seed must be an integer >= 0, got -1"),
        (("bounds", "--seed", "-1", "--out", "{tmp}"), {},
         "--seed must be an integer >= 0, got -1"),
        (("cloner", "sym", "--z", "0.5"), {"CLONEBOUND_SEED": "-3"},
         "CLONEBOUND_SEED must be an integer >= 0, got '-3'"),
        (("lemmas", "--trials", "5"), {"CLONEBOUND_TOL": "x"},
         "CLONEBOUND_TOL must be a finite number >= 0, got 'x'"),
        (("lemmas", "--trials", "5"), {"CLONEBOUND_TOL": "nan"},
         "CLONEBOUND_TOL must be a finite number >= 0, got 'nan'"),
        (("lemmas", "--trials", "5", "--tol", "nan"), {},
         "--tol must be a finite number >= 0, got nan"),
        (("lemmas", "--trials", "5", "--tol", "inf"), {},
         "--tol must be a finite number >= 0, got inf"),
        (("lemmas", "--trials", "5", "--tol", "-1"), {},
         "--tol must be a finite number >= 0, got -1.0"),
    ], ids=["env-seed-text", "seed-negative-lemmas", "seed-negative-verify",
            "seed-negative-bounds", "env-seed-negative", "env-tol-text",
            "env-tol-nan", "tol-nan", "tol-inf", "tol-negative"])
    def test_bad_seed_or_tol_is_a_usage_error(self, tmp_path, capsys,
                                               monkeypatch, argv, env, message):
        for key, value in env.items():
            monkeypatch.setenv(key, value)
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
_STATES = st.one_of(
    st.lists(st.lists(_AMPLITUDES, min_size=2, max_size=2), max_size=4),
    st.lists(st.lists(_AMPLITUDES, max_size=3), max_size=4),     # ragged
    st.dictionaries(st.text(max_size=3), _AMPLITUDES, max_size=2),
    st.text(max_size=5),
    _AMPLITUDES,
)


def _pairs(dim):
    amplitude = st.one_of(st.floats(-2, 2), st.sampled_from([1e-8, 1e-170, 1e-320]))
    return st.lists(st.lists(amplitude, min_size=2, max_size=2),
                    min_size=dim, max_size=dim)


_PAYLOADS = st.one_of(
    st.integers(2, 4).flatmap(
        lambda dim: st.fixed_dictionaries({"phi": _pairs(dim), "psi": _pairs(dim)})),
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


def _reject_non_finite(token):
    """json.loads hook for NaN, Infinity and -Infinity, the only non-finite tokens."""
    raise AssertionError(f"non-finite number {token} in the report")


@given(st.one_of(
    st.tuples(st.just("cloner"), st.sampled_from(["sym", "asym", "wz"]), _PAYLOADS),
    st.tuples(st.just("bounds"), _Z_ENDS, _Z_ENDS, st.integers(-1, 50)),
))
@settings(max_examples=200, deadline=None)
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
    if case[0] == "cloner" and code == 0:
        json.loads(out.getvalue(), parse_constant=_reject_non_finite)
