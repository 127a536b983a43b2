import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clonebound import geometry
from clonebound.geometry import (
    ALL_SWEEPS,
    SWEEP_BLOCK,
    InequalityReport,
    coplanar_equality_witness,
    coplanar_state,
    gate_approx_check,
    gate_bound,
    lemma1_check,
    lemma2_defect,
    lemma3_check,
    lemma4_check,
    lemma4_saturation_witness,
    sweep_gate_approx,
    sweep_lemma1,
    sweep_lemma2,
    sweep_lemma3,
    sweep_lemma4,
)
from clonebound.statespace import (
    Projector,
    basis_state,
    random_projector,
    random_state,
    random_unitary,
)

seeds = st.integers(min_value=0, max_value=2 ** 32 - 1)
dims = st.sampled_from([2, 3, 4, 6, 8])


def test_report_holds_iff_slack_above_minus_tol():
    r = InequalityReport.compare(1.0, 1.0 - 5e-11, tol=1e-10)
    assert r.holds and r.slack == pytest.approx(-5e-11)
    r = InequalityReport.compare(1.0, 1.0 - 5e-10, tol=1e-10)
    assert not r.holds


def test_lemma1_identical_triplet_is_tight():
    v = basis_state(3, 0)
    r = lemma1_check(v, v, v)
    assert r.lhs == r.rhs == 1.0 and r.slack == 0.0


def test_lemma1_coplanar_equality_witness():
    phi, ups, psi = coplanar_equality_witness(dim=4)
    r = lemma1_check(phi, ups, psi)
    assert abs(r.slack) < 1e-12


def test_lemma2_degenerate_middle_point():
    rng = np.random.default_rng(5)
    phi, ups = random_state(3, rng), random_state(3, rng)
    r = lemma2_defect(phi, ups, phi)
    assert r.slack == pytest.approx(0.0, abs=1e-12)


def test_lemma2_coplanar_equality_witness():
    phi, ups, psi = coplanar_equality_witness(dim=2)
    r = lemma2_defect(phi, ups, psi)
    assert abs(r.slack) < 1e-12
    # the witness really is the between-configuration at 0, 20, 50 degrees
    assert r.lhs == pytest.approx(np.radians(50))
    assert r.rhs == pytest.approx(np.radians(20) + np.radians(30))


def test_lemma3_extreme_cases():
    e1, e2 = basis_state(2, 0), basis_state(2, 1)
    r = lemma3_check(e1, e1, e2)
    assert r.lhs == pytest.approx(1.0) and r.rhs == pytest.approx(1.0)
    same = lemma3_check(e2, e1, e1)
    assert same.lhs == 0.0 and same.rhs == pytest.approx(0.0, abs=1e-12)


def test_lemma4_saturation_at_orthogonal_pair():
    e1, e2 = basis_state(2, 0), basis_state(2, 1)
    p = Projector(e1[None, :])
    r = lemma4_check(p, e1, e2)
    assert r.lhs == pytest.approx(1.0) and r.rhs == pytest.approx(1.0)


def test_lemma4_bisector_witness_saturates():
    delta = 0.7
    p, phi, psi = lemma4_saturation_witness(delta)
    r = lemma4_check(p, phi, psi)
    assert abs(r.lhs - np.sin(delta)) < 1e-12
    assert abs(r.slack) < 1e-12


def test_lemma4_bisector_supremum_sweep():
    # the sup over rank-1 projectors in the real plane reaches sin(delta)
    delta = 1.1
    _, phi, psi = lemma4_saturation_witness(delta)
    best = 0.0
    for t in np.linspace(0, np.pi, 721):
        p = Projector(coplanar_state(t)[None, :])
        best = max(best, lemma4_check(p, phi, psi).lhs)
    assert best >= np.sin(delta) - 1e-6


@given(seeds, dims)
@settings(max_examples=100, deadline=None)
def test_lemma_checks_hold_on_random_triplets(seed, dim):
    rng = np.random.default_rng(seed)
    a, b, c = (random_state(dim, rng) for _ in range(3))
    assert lemma1_check(a, b, c).holds
    assert lemma2_defect(a, b, c).holds
    assert lemma3_check(a, b, c).holds
    rank = int(rng.integers(1, dim))
    assert lemma4_check(random_projector(dim, rank, rng), a, b).holds


def test_gate_bound_values_and_monotonicity():
    assert gate_bound(0.0) == 0.0
    assert gate_bound(2.0) == pytest.approx(0.0, abs=1e-15)
    assert gate_bound(1.0) == pytest.approx(np.sqrt(3) / 2)
    grid = np.linspace(0, np.sqrt(2), 200)
    vals = [gate_bound(e) for e in grid]
    assert all(b > a for a, b in zip(vals, vals[1:]))
    assert all(gate_bound(e) <= e for e in grid[1:])
    with pytest.raises(ValueError):
        gate_bound(2.5)
    with pytest.raises(ValueError):
        gate_bound(-0.1)


def test_gate_approx_identical_and_phase_cases():
    rng = np.random.default_rng(9)
    u = random_unitary(4, rng)
    sigma = random_state(4, rng)
    p = random_projector(4, 2, rng)
    r = gate_approx_check(u, u, sigma, p)
    assert r.lhs == 0.0 and r.rhs == pytest.approx(0.0, abs=1e-12)
    # a global phase moves the operator distance but not any probability
    r = gate_approx_check(u, np.exp(0.05j) * u, sigma, p)
    assert r.lhs < 1e-12
    assert r.rhs == pytest.approx(gate_bound(abs(np.exp(0.05j) - 1)), abs=1e-10)
    assert r.holds


@pytest.mark.parametrize(
    "sweep", [sweep_lemma1, sweep_lemma2, sweep_lemma3, sweep_lemma4,
              sweep_gate_approx]
)
def test_sweeps_find_no_violations(sweep):
    r = sweep(20_000, seed=7)
    assert r.violations == 0
    assert r.min_slack >= -1e-10
    assert r.passed


def test_sweeps_are_deterministic():
    for _, sweep in ALL_SWEEPS:
        a = sweep(3_000, seed=42)
        b = sweep(3_000, seed=42)
        assert a == b


def test_sweep_single_trial_runs():
    r = sweep_lemma1(1, seed=0)
    assert r.trials == 1 and r.violations == 0


@pytest.mark.parametrize("name, sweep", ALL_SWEEPS)
def test_sweep_blocks_rebuild_from_their_seeds(monkeypatch, name, sweep):
    # Block b of dimension d is drawn from SeedSequence(seed, spawn_key=(d, b)).
    slack = getattr(geometry, f"_{name}_slack")
    drawn = []

    def recording(n, dim, rng):
        s = slack(n, dim, rng)
        drawn.append((dim, n, s))
        return s

    monkeypatch.setattr(geometry, f"_{name}_slack", recording)
    r = sweep(2 * (SWEEP_BLOCK + 5), dims=(2, 5), seed=9)
    assert [(dim, n) for dim, n, _ in drawn] == [
        (2, SWEEP_BLOCK), (2, 5), (5, SWEEP_BLOCK), (5, 5)]
    for (dim, n, s), block in zip(drawn, (0, 1, 0, 1)):
        rng = np.random.default_rng(np.random.SeedSequence(9, spawn_key=(dim, block)))
        np.testing.assert_array_equal(slack(n, dim, rng), s)
    assert r.min_slack == min(s.min() for _, _, s in drawn)


@pytest.mark.parametrize("name, sweep", ALL_SWEEPS)
def test_sweep_memory_does_not_grow_with_trials(name, sweep):
    def traced_peak(blocks):
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        sweep(blocks * SWEEP_BLOCK, dims=(3,), seed=1)
        return tracemalloc.get_traced_memory()[1] - before

    tracemalloc.start()
    try:
        traced_peak(1)      # first-call allocations out of the way
        small, large = traced_peak(2), traced_peak(16)
    finally:
        tracemalloc.stop()
    assert large <= 1.1 * small
