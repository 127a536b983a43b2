"""Acceptance gate: every exit criterion as one executable check.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line per
criterion (pytest's own -v report gives the FAIL lines). The checks pin
the published landmark values, the closed-form consistency of the three
machines, the inequality sweeps, tightness of the floors, and byte-level
reproducibility of the command-line artifacts.
"""

import json
import re
import time

import numpy as np
import pytest

import oracles
from clonebound.bounds import ae_lower_bound, hb_bound, re_lower_bound, sample_curve
from clonebound.cli import main
from clonebound.cloners import (
    build_asymmetric,
    build_symmetric,
    build_wootters_zurek,
    closed_form_re_s,
    materialize_unitary,
)
from clonebound.cloning import (
    FactorDims,
    TwoStateSet,
    analyze_output,
    inequality_chain,
    measurement_deviation,
    relative_error,
    unitarity_residual,
)
from clonebound.geometry import (
    coplanar_equality_witness,
    lemma1_check,
    lemma2_defect,
    sweep_gate_approx,
    sweep_lemma1,
    sweep_lemma2,
    sweep_lemma3,
    sweep_lemma4,
)
from clonebound.search import SearchConfig, minimize_objective, random_cloner_sweep
from clonebound.statespace import basis_state, random_projector, random_state, tensor

Z_GRID = [round(0.05 * k, 2) for k in range(1, 20)]   # 0.05 .. 0.95


def _ok(criterion: str, detail: str = "") -> None:
    print(f"[PASS] {criterion} {detail}".rstrip())


def _csv(path):
    lines = path.read_text().strip().split("\n")
    return np.array([[float(x) for x in ln.split(",")] for ln in lines[1:]])


@pytest.fixture(scope="module")
def grid_results():
    out = {}
    for z in Z_GRID:
        s = TwoStateSet.at_overlap(z)
        out[z] = {
            "sym": build_symmetric(s),
            "asym": build_asymmetric(s),
            "wz": build_wootters_zurek(s),
        }
    return out


@pytest.fixture(scope="module")
def tightness():
    t0 = time.perf_counter()
    outcomes = {}
    for z in (0.1, 0.3, 0.5, 1 / np.sqrt(3), 0.7, 0.9):
        cfg = SearchConfig(z=z, restarts=20, seed=1)
        outcomes[z] = (
            minimize_objective("ae", cfg),
            minimize_objective("re", cfg),
        )
    sweeps = {
        z: random_cloner_sweep(SearchConfig(z=z, seed=2), n=100_000)
        for z in (0.1, 0.5, 0.9)
    }
    elapsed = time.perf_counter() - t0
    return outcomes, sweeps, elapsed


def test_c01_figure1_matches_closed_form_and_falls_near_one(tmp_path):
    t0 = time.perf_counter()
    assert main(["bounds", "--steps", "201", "--out", str(tmp_path)]) == 0
    fig1 = _csv(tmp_path / "fig1.csv")
    elapsed = time.perf_counter() - t0
    z, values = fig1[:, 0], fig1[:, 1]
    assert np.array_equal(values, re_lower_bound(z)), \
        "emitted curve must be the closed form itself"
    tail = values[z >= 0.96]
    assert np.all(np.diff(tail) < 0), "curve must strictly decrease on [0.96, 1]"
    assert elapsed < 1.0
    _ok("criterion 1a", f"fig1 is the closed form; decreasing tail; {elapsed:.2f}s")


def test_c01_figure1_increasing_through_z09(tmp_path):
    # On [0, 0.9] the curve rises to its maximum at z* = sqrt((sqrt(5)-1)/2)
    # = 0.78615, where F'(z) = 1 - (2z + z^3)/(1 + z^2)^(3/2) vanishes, then
    # falls through z = 0.9. z* comes from the oracle, not from the package.
    assert main(["bounds", "--steps", "201", "--out", str(tmp_path)]) == 0
    fig1 = _csv(tmp_path / "fig1.csv")
    z_star = oracles.RE_ARGMAX
    window = fig1[fig1[:, 0] <= 0.9]
    z, values = window[:, 0], window[:, 1]
    steps = np.diff(values)
    rising = z[1:] <= z_star
    falling = z[:-1] >= z_star
    bad = np.nonzero(rising & (steps <= 0))[0]
    assert bad.size == 0, (
        f"curve stops increasing at z = {z[bad[0] + 1]:.3f} "
        f"before the maximum at z* = {z_star:.5f}"
    )
    bad = np.nonzero(falling & (steps >= 0))[0]
    assert bad.size == 0, (
        f"curve stops decreasing at z = {z[bad[0] + 1]:.3f} "
        f"after the maximum at z* = {z_star:.5f}"
    )
    peak = int(np.argmax(values))
    assert abs(z[peak] - z_star) <= z[1] - z[0], \
        f"grid maximum at z = {z[peak]:.3f}, more than one step from z* = {z_star:.5f}"
    gap = oracles.f_bound(z_star) - values[peak]
    assert 0 < gap < 1e-6, f"F(z*) - grid maximum = {gap:.2e}, not in (0, 1e-6)"
    _ok("criterion 1b", f"rises to z* = {z_star:.5f}, then falls through z = 0.9")


def test_c02_figure2_landmarks():
    t0 = time.perf_counter()
    curve_ae = sample_curve("ae", ae_lower_bound, 0.0, 1.0, 201)
    curve_hb = sample_curve("hb", hb_bound, 0.0, 1.0, 201)
    assert abs(curve_ae.argmax_z() - 1 / np.sqrt(3)) <= 0.005
    assert np.max(curve_ae.values) == pytest.approx(np.sqrt(2 / 27), abs=1e-4)
    assert abs(curve_hb.argmax_z() - 0.5) <= 0.005
    assert np.max(curve_hb.values) == pytest.approx(np.sqrt(5) - 2, abs=1e-6)
    assert float(ae_lower_bound(0.5)) == pytest.approx(
        np.sqrt(3) * (np.sqrt(5) - 1) / 8, abs=1e-12
    )
    ratio = float(ae_lower_bound(0.8) / hb_bound(0.8))
    assert ratio == pytest.approx(1.5, abs=0.02)
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    _ok("criterion 2", f"figure-2 landmarks reproduced; {elapsed:.2f}s")


def test_c03_dominance_over_hb():
    t0 = time.perf_counter()
    z = np.linspace(0.0, 1.0, 10_000)
    gap = ae_lower_bound(z) - hb_bound(z)
    assert np.min(gap) >= -1e-12
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    _ok("criterion 3", f"stronger floor dominates on 10^4 points; {elapsed:.2f}s")


def test_c04_lemma_suite():
    t0 = time.perf_counter()
    sweeps = [
        sweep_lemma1(100_000, seed=41, tol=1e-10),
        sweep_lemma2(100_000, seed=42, tol=1e-10),
        sweep_lemma3(100_000, seed=43, tol=1e-10),
        sweep_lemma4(100_000, seed=44, tol=1e-10),
        sweep_gate_approx(100_000, seed=45, tol=1e-10),
    ]
    for r in sweeps:
        assert r.violations == 0, f"{r.name} violated {r.violations} times"
    phi, ups, psi = coplanar_equality_witness(dim=3)
    assert abs(lemma1_check(phi, ups, psi).slack) < 1e-12
    assert abs(lemma2_defect(phi, ups, psi).slack) < 1e-12
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    _ok("criterion 4", f"5 x 10^5 trials, zero violations; {elapsed:.1f}s")


def test_c05_pipeline_consistency_on_the_grid(grid_results):
    t0 = time.perf_counter()
    for z, results in grid_results.items():
        assert relative_error(results["asym"]) == pytest.approx(
            float(re_lower_bound(z)), abs=1e-9
        )
        assert results["asym"].ae == pytest.approx(float(ae_lower_bound(z)),
                                                   abs=1e-9)
        assert relative_error(results["sym"]) == pytest.approx(
            closed_form_re_s(z), abs=1e-9
        )
        assert results["wz"].a_psi.x == pytest.approx(
            np.sqrt(3) * z * np.sqrt(1 - z * z), abs=1e-10
        )
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    _ok("criterion 5", f"all machines match their closed forms; {elapsed:.2f}s")


def test_c06_unitarity_realizability(grid_results):
    for z, results in grid_results.items():
        for kind, r in results.items():
            assert unitarity_residual(r) < 1e-10, f"{kind} at z={z}"
            u = materialize_unitary(r)
            dev = np.max(np.abs(u.conj().T @ u - np.eye(u.shape[0])))
            assert dev < 1e-10
            blank = basis_state(r.dims.d2, 0)
            for s, out in ((r.set.phi, r.a_phi.v), (r.set.psi, r.a_psi.v)):
                vec = tensor(s, blank)
                if r.dims.danc > 1:
                    vec = tensor(vec, basis_state(r.dims.danc, 0))
                assert np.max(np.abs(u @ vec - out)) < 1e-9
    _ok("criterion 6", "inner products preserved; materialized unitaries exact")


def test_c07_tightness(tightness):
    outcomes, sweeps, elapsed = tightness
    for z, (out_ae, out_re) in outcomes.items():
        assert out_ae.best_ae >= out_ae.bound_ae - 1e-9, f"AE floor broken at z={z}"
        assert out_re.best_re >= out_re.bound_re - 1e-9, f"RE floor broken at z={z}"
        assert out_ae.best_ae - out_ae.bound_ae < 1e-5, f"AE not attained at z={z}"
        assert out_re.best_re - out_re.bound_re < 1e-5, f"RE not attained at z={z}"
    for z, sweep in sweeps.items():
        assert sweep.floor_violations == 0, f"sweep floor broken at z={z}"
        assert sweep.undefined_re == 0
    assert elapsed < 120.0
    _ok("criterion 7", f"floors attained, never undercut; {elapsed:.1f}s")


def test_c08_inequality_chain(tightness, grid_results):
    _, sweeps, _ = tightness
    for z, sweep in sweeps.items():
        assert sweep.chain1_violations == 0, f"chain 1 broken at z={z}"
        assert sweep.chain2_violations == 0, f"chain 2 broken at z={z}"
        assert sweep.min_chain_slack >= -1e-10
    for z, results in grid_results.items():
        for kind in ("sym", "asym"):
            _, key = inequality_chain(results[kind])
            assert abs(key.slack) < 1e-10, f"{kind} misses equality at z={z}"
    _ok("criterion 8", "chains hold on 3 x 10^5 samples; equality for optima")


def test_c09_measurement_deviation():
    rng = np.random.default_rng(90)
    violations = 0
    for _ in range(10_000):
        d = int(rng.integers(2, 4))
        danc = int(rng.integers(1, 3))
        dims = FactorDims(d, d, danc)
        s = random_state(d, rng)
        a = analyze_output(random_state(dims.total, rng), s, dims)
        p = random_projector(d, int(rng.integers(1, d)), rng)
        mode = int(rng.integers(1, 3))
        if not measurement_deviation(a, s, p, mode).holds:
            violations += 1
    assert violations == 0
    _ok("criterion 9", "10^4 deviation trials, zero violations")


def test_c10_determinism(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["bounds", "--steps", "201", "--out", str(a), "--seed", "9"]) == 0
    assert main(["bounds", "--steps", "201", "--out", str(b), "--seed", "9"]) == 0
    for name in ("fig1.csv", "fig2.csv"):
        assert (a / name).read_bytes() == (b / name).read_bytes()

    def strip_timestamp(text):
        return re.sub(r'"timestamp": "[^"]*"', '"timestamp": "X"', text)

    ra, rb = tmp_path / "ra.json", tmp_path / "rb.json"
    for path in (ra, rb):
        assert main(["cloner", "wz", "--z", "0.5", "--seed", "4",
                     "--out", str(path)]) == 0
    assert strip_timestamp(ra.read_text()) == strip_timestamp(rb.read_text())

    va, vb = tmp_path / "va.json", tmp_path / "vb.json"
    for path in (va, vb):
        assert main(["verify", "--z", "0.5", "--restarts", "2",
                     "--sweep-trials", "1000", "--seed", "4",
                     "--out", str(path)]) == 0
    assert strip_timestamp(va.read_text()) == strip_timestamp(vb.read_text())
    _ok("criterion 10", "byte-identical artifacts under a fixed seed")
