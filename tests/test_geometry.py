import os
import sys
import threading
import tracemalloc
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from clonebound import geometry
from clonebound.geometry import (
    ALL_SWEEPS,
    DEFAULT_DIMS,
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
    replay_sample,
    sweep_blocks,
    sweep_gate_approx,
    sweep_lemma1,
    sweep_lemma2,
    sweep_lemma3,
    sweep_lemma4,
)
from clonebound.statespace import (
    Projector,
    _complex_normal,
    basis_state,
    check_unitary,
    phase_fixed_q,
    random_projector,
    random_state,
    random_unitary,
)

seeds = st.integers(min_value=0, max_value=2 ** 32 - 1)
dims = st.sampled_from([2, 3, 4, 6, 8])


def patch_slack(monkeypatch, name, fn):
    """Make ``fn(n, dim, rng)`` the slack of the sweep ``name``; the other
    sweeps keep theirs."""
    slack = geometry._slack

    def patched(key, n, dim, rng):
        return fn(n, dim, rng) if key == name else slack(key, n, dim, rng)

    monkeypatch.setattr(geometry, "_slack", patched)


def test_report_holds_iff_slack_above_minus_tol():
    r = InequalityReport.compare(1.0, 1.0 - 5e-11)
    assert r.holds and r.slack == pytest.approx(-5e-11)
    r = InequalityReport.compare(1.0, 1.0 - 5e-10)
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
    assert gate_bound(2.0) == 1.0
    assert gate_bound(1.0) == pytest.approx(np.sqrt(3) / 2)
    assert gate_bound(np.sqrt(2)) == pytest.approx(1.0)
    grid = np.linspace(0, np.sqrt(2), 200)
    vals = [gate_bound(e) for e in grid]
    assert all(b > a for a, b in zip(vals, vals[1:]))
    assert all(gate_bound(e) <= e for e in grid[1:])
    with pytest.raises(ValueError):
        gate_bound(2.5)
    with pytest.raises(ValueError):
        gate_bound(-0.1)
    with pytest.raises(ValueError):
        gate_bound(float("nan"))
    # Inside a sweep a NaN eps gives a NaN bound, which counts as a violation.
    assert np.isnan(geometry._gate_bound(np.array([np.nan]))).all()


@pytest.mark.parametrize("phase", [0.9 * np.pi, np.pi], ids=["0.9pi", "pi"])
def test_gate_bound_is_one_where_a_gate_pair_can_part_a_state(phase):
    # Beyond eps = sqrt(2), U^H V can turn a state orthogonal to itself, so
    # the bound is 1. I and diag(1, exp(i phase)) are 2 sin(phase / 2) apart
    # and move the probability of the projector onto (1, 1)/sqrt(2) from 1
    # to cos^2(phase / 2): 0.9755 apart at 0.9 pi, 1 apart at pi.
    sigma = np.array([1.0, 1.0]) / np.sqrt(2)
    r = gate_approx_check(np.eye(2), np.diag([1.0, np.exp(1j * phase)]), sigma,
                          Projector(sigma[None, :]))
    assert r.lhs == pytest.approx(np.sin(phase / 2) ** 2)
    assert r.rhs == 1.0 and r.holds


@pytest.mark.parametrize("dim", range(2, 9))
def test_gate_epsilon_is_the_spectral_norm(dim):
    # eps from the eigenphases of U^H V, as the gate check takes them, is
    # the largest singular value of U - V, for far unitaries, for near ones
    # as a small perturbation makes them, and for equal ones.
    rng = np.random.default_rng(dim)
    u = np.stack([random_unitary(dim, rng) for _ in range(50)])
    far = np.stack([random_unitary(dim, rng) for _ in range(50)])
    near = phase_fixed_q(u + 1e-6 * _complex_normal(rng, (50, dim, dim)))
    for v in (far, near, u):
        theta = np.angle(np.linalg.eigvals(np.swapaxes(u.conj(), -1, -2) @ v))
        want = np.linalg.svd(u - v, compute_uv=False)[:, 0]
        np.testing.assert_allclose(geometry._gate_epsilon(theta), want, rtol=0, atol=4e-15)


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


def test_gate_approx_rejects_a_nan_unitary():
    # NaN fails every comparison, so a NaN matrix must not pass as unitary
    # and reach the probabilities as a state with a NaN norm.
    rng = np.random.default_rng(9)
    u = random_unitary(4, rng)
    with pytest.raises(ValueError, match="not unitary"):
        gate_approx_check(np.full((4, 4), np.nan), u, random_state(4, rng),
                          random_projector(4, 2, rng))


def test_gate_approx_takes_every_unitary_check_unitary_takes():
    # u (1 + 2e-11) deviates from unitarity by 4e-11, inside ATOL_UNITARY;
    # the states it makes are then off unit norm by 2e-11, which the
    # check must not reject at the unit-vector tolerance ATOL_ALG.
    rng = np.random.default_rng(9)
    u, sigma, p = random_unitary(4, rng), random_state(4, rng), random_projector(4, 2, rng)
    assert check_unitary(u * (1 + 2e-11)) is not None
    r = gate_approx_check(u * (1 + 2e-11), u, sigma, p)
    assert r.holds and r.lhs < 1e-10


def parting_projector(a, b):
    """The projector that parts the unit states a and b most: onto the
    eigenvector of |a><a| - |b><b| with the largest eigenvalue, sin(angle(a, b))
    (Helstrom, Quantum Detection and Estimation Theory, 1976)."""
    _, vectors = np.linalg.eigh(np.outer(a, a.conj()) - np.outer(b, b.conj()))
    return Projector(vectors[:, -1][None, :])


def test_probability_checks_reject_a_projector_of_another_dimension():
    rng = np.random.default_rng(9)
    p, u = random_projector(3, 1, rng), random_unitary(4, rng)
    a, b = random_state(4, rng), random_state(4, rng)
    with pytest.raises(ValueError, match="dimension mismatch: 4 vs 3"):
        lemma4_check(p, a, b)
    with pytest.raises(ValueError, match="dimension mismatch: 4 vs 3"):
        gate_approx_check(u, u, a, p)
    with pytest.raises(ValueError, match="share one dimension"):
        lemma4_check(p, a, random_state(3, rng))


@pytest.mark.parametrize("dim", range(2, 9))
def test_rotated_equality_witnesses_are_tight(dim):
    # The checks evaluate the sweeps' formulas. A random unitary keeps each
    # witness an equality case and spreads it over every coordinate.
    rng = np.random.default_rng(dim)
    for _ in range(50):
        rot = random_unitary(dim, rng)
        phi, ups, psi = (rot @ x for x in coplanar_equality_witness(dim))
        p, f, g = lemma4_saturation_witness(rng.uniform(0.1, np.pi / 2), dim)
        p, f, g = Projector(p.basis @ rot.T), rot @ f, rot @ g
        u = random_unitary(dim, rng)
        sigma, q = random_state(dim, rng), random_projector(dim, 1, rng)
        # The gate bound's equality case: eigenphases +-alpha of U^H V, sigma
        # an equal superposition of their eigenvectors, and the projector
        # that parts U sigma and V sigma most.
        w, alpha = random_unitary(dim, rng), rng.uniform(0.1, np.pi / 2)
        phases = np.ones(dim, dtype=complex)
        phases[:2] = np.exp(1j * alpha), np.exp(-1j * alpha)
        v, tilted = u @ w @ np.diag(phases) @ w.conj().T, (w[:, 0] + w[:, 1]) / np.sqrt(2)
        reports = [lemma1_check(phi, ups, psi), lemma2_defect(phi, ups, psi),
                   lemma3_check(p.basis[0], f, g), lemma4_check(p, f, g),
                   gate_approx_check(u, u, sigma, q),
                   gate_approx_check(u, v, tilted, parting_projector(u @ tilted, v @ tilted))]
        # Near-collinear coplanar triples at axis angles 0, 5t and 2t, where
        # arccos of an overlap would lose half of the digits.
        for t in (1e-5, 1e-6, 1e-7, 1e-8, 1e-9):
            triple = [rot @ coplanar_state(k * t, dim) for k in (0, 5, 2)]
            reports += [lemma1_check(*triple), lemma2_defect(*triple)]
        assert [abs(r.slack) <= 1e-12 for r in reports] == [True] * 16


@pytest.mark.parametrize("dim", range(2, 9))
def test_gate_sweep_meets_the_projector_that_parts_its_states_most(dim):
    # The sweep's deviation, sin(angle(sigma, D sigma)), is the check's at the
    # projector that parts sigma and D sigma most, and no projector parts
    # them more: the sweep checks the bound against every projector at once.
    rng = np.random.default_rng(dim)
    theta, sigma = geometry._draw_gate_approx(5, dim, rng)
    deviation, bound = geometry._gate_sup(theta, sigma)
    for t, s, dev, rhs in zip(theta, sigma, deviation, bound):
        d = np.diag(np.exp(1j * t))
        best = gate_approx_check(np.eye(dim), d, s, parting_projector(s, d @ s))
        assert abs(best.lhs - dev) <= 1e-12 and abs(best.rhs - rhs) <= 1e-12
        for _ in range(100):
            p = random_projector(dim, int(rng.integers(1, dim + 1)), rng)
            assert gate_approx_check(np.eye(dim), d, s, p).lhs <= dev + 1e-12


def test_lemma4_slack_does_not_move_under_a_common_rotation():
    # The lemma 4 sweep draws P onto coordinate axes. That loses nothing,
    # since one unitary applied to phi, psi and P's frame leaves the slack.
    # Rounding moved the closest samples of seeds 1 to 20 by at most 8 ulps
    # of 1; the bound allows 18.
    r = sweep_lemma4(20000, seed=3)
    dim, block, size, index = r.closest
    phi, psi, q = (x[index] for x in geometry._draw_lemma4(
        size, dim, geometry._block_rng(3, dim, block)))
    frame = q[:, q.any(axis=0)]
    rng = np.random.default_rng(0)
    for _ in range(20):
        rot = random_unitary(dim, rng)
        rotated = lemma4_check(Projector((rot @ frame).T), rot @ phi, rot @ psi)
        assert abs(rotated.slack - r.min_slack) <= 4e-15


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


def test_sweep_of_no_trials_draws_nothing():
    r = sweep_gate_approx(0)
    assert (r.trials, r.min_slack, r.violations, r.closest) == (0, np.inf, 0, None)


@pytest.mark.parametrize("trials, dims", [
    (-5, DEFAULT_DIMS), (10, ()), (10, (0,)), (10, (1,)), (10, (3, 1))])
def test_sweeps_reject_bad_counts_and_dimensions(trials, dims):
    for _, sweep in ALL_SWEEPS:
        with pytest.raises(ValueError):
            sweep(trials, dims=dims)


@pytest.mark.parametrize("name, sweep", ALL_SWEEPS)
def test_sweep_blocks_rebuild_from_their_seeds(monkeypatch, name, sweep):
    # Block b of dimension d is drawn from SeedSequence(seed, spawn_key=(d, b)).
    # Blocks run concurrently, so they are keyed by that spawn key, not by
    # call order.
    slack = partial(geometry._slack, name)
    drawn = {}

    def recording(n, dim, rng):
        s = slack(n, dim, rng)
        drawn[rng.bit_generator.seed_seq.spawn_key] = (dim, n, s)
        return s

    patch_slack(monkeypatch, name, recording)
    r = sweep(2 * (SWEEP_BLOCK + 5), dims=(2, 5), seed=9)
    assert sorted((dim, n, key[1]) for key, (dim, n, _) in drawn.items()) == [
        (2, 5, 1), (2, SWEEP_BLOCK, 0), (5, 5, 1), (5, SWEEP_BLOCK, 0)]
    for (dim, block), (_, n, s) in drawn.items():
        rng = np.random.default_rng(np.random.SeedSequence(9, spawn_key=(dim, block)))
        np.testing.assert_array_equal(slack(n, dim, rng), s)
    assert r.min_slack == min(s.min() for _, _, s in drawn.values())


def _serial_reference(slack, trials, dims, seed, tol):
    """(min_slack, violations, closest) of one sweep, block after block."""
    slacks, addresses = [], []
    for dim, n in geometry._split_trials(trials, dims):
        for block, (rng, size) in enumerate(sweep_blocks(n, dim, seed)):
            slacks.append(slack(size, dim, rng))
            addresses += [(dim, block, size, i) for i in range(size)]
    s = np.concatenate(slacks)
    i = int(np.argmin(s))
    return float(s[i]), int(np.count_nonzero(~(s >= -tol))), addresses[i]


@pytest.mark.parametrize("name, sweep", ALL_SWEEPS)
def test_threaded_sweep_equals_serial_loop(monkeypatch, name, sweep):
    # More workers than cores and a short switch interval, so the blocks
    # finish out of order; dims 2..8 each get one full and one partial block.
    monkeypatch.setattr(geometry, "_usable_cpus", lambda: 4)
    trials, dims, tol = 7 * SWEEP_BLOCK + 10, range(2, 9), 1e-10
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        r = sweep(trials, dims=dims, seed=3, tol=tol)
    finally:
        sys.setswitchinterval(interval)
    slack = partial(geometry._slack, name)
    want = _serial_reference(slack, trials, dims, 3, tol)
    assert (r.min_slack, r.violations, r.closest) == want
    assert r.min_slack.hex() == want[0].hex()


@pytest.mark.parametrize("name, sweep", ALL_SWEEPS)
def test_closest_sample_replays_bit_for_bit(name, sweep):
    r = sweep(3 * SWEEP_BLOCK + 11, dims=(2, 3, 7), seed=4)
    dim, block, size, index = r.closest
    assert dim in (2, 3, 7) and 0 <= index < size <= SWEEP_BLOCK
    assert replay_sample(name, 4, *r.closest).hex() == r.min_slack.hex()


#: |float slack - exact slack| allowed of every sweep: a few ulps of pi/2,
#: the largest angle, for the rounding of each angle and of its cos or sin.
EXACT_SLACK_TOL = 1e-15


def exact_recheck(name):
    """Rebuild the closest sample of sweep ``name`` (20000 trials, seed 3)
    from its address, recompute its inequality at 40 digits from the exact
    float components, and assert that it holds and that the sweep's
    ``min_slack`` is that slack within EXACT_SLACK_TOL."""
    r = dict(ALL_SWEEPS)[name](20000, seed=3)
    dim, block, size, index = r.closest
    draw = geometry._SWEEPS[name][0]
    sample = [x[index] for x in draw(size, dim, geometry._block_rng(3, dim, block))]
    exact = getattr(oracles, f"{name}_slack")(*sample)
    assert exact >= 0, (name, exact)
    assert abs(exact - r.min_slack) <= EXACT_SLACK_TOL, (name, exact, r.min_slack)


@pytest.mark.parametrize("name", list(geometry._SWEEPS))
def test_closest_sample_holds_in_exact_arithmetic(name):
    exact_recheck(name)


def test_replay_of_an_unknown_sweep_names_the_sweeps():
    with pytest.raises(ValueError, match="lemma1, lemma2, lemma3, lemma4, gate_approx"):
        replay_sample("lemma5", 0, 2, 0, 1, 0)


@pytest.mark.parametrize("dim, block, size, index", [
    (1, 0, 10, 0), (3, -1, 10, 0), (3, 0, 0, 0), (3, 0, SWEEP_BLOCK + 1, 0),
    (3, 0, 10, -1), (3, 0, 10, 10)])
def test_replay_rejects_an_address_no_sweep_makes(dim, block, size, index):
    with pytest.raises(ValueError, match="no sweep samples at"):
        replay_sample("lemma1", 4, dim, block, size, index)


@pytest.mark.parametrize("make", [partial(coplanar_state, 0.3), coplanar_equality_witness,
                                  partial(lemma4_saturation_witness, 0.5)])
@pytest.mark.parametrize("dim", [0, 1])
def test_coplanar_constructions_need_dimension_two(make, dim):
    with pytest.raises(ValueError, match="dimension >= 2, got"):
        make(dim=dim)


def test_nan_slack_is_a_violation(monkeypatch):
    # One NaN in every block: min(inf, nan) is inf and nan < -tol is False,
    # so a running min and a "< -tol" count would both let it pass.
    def nan_at_7(n, dim, rng):
        s = np.ones(n)
        s[7] = np.nan
        return s

    patch_slack(monkeypatch, "lemma1", nan_at_7)
    r = sweep_lemma1(1000, seed=1)
    assert r.violations == 7 and not r.passed
    assert np.isnan(r.min_slack) and r.closest == (2, 0, 143, 7)


def _stub_slack(n, dim, rng):
    threading.Event().wait(0.001)
    return np.zeros(n)


@pytest.mark.parametrize("cpus, ndims", [(None, None), (4, 1), (3, 5)],
                         ids=["every-cpu", "one-dim", "three-of-five"])
def test_blocks_run_on_every_worker_and_no_more(monkeypatch, cpus, ndims):
    # One worker per usable CPU, but no more workers than dimensions. The
    # first `workers` calls meet at a barrier, which times out unless they
    # all run at once; a counter catches any call beyond `workers`.
    if cpus is None:
        cpus = ndims = geometry._usable_cpus()
    monkeypatch.setattr(geometry, "_usable_cpus", lambda: cpus)
    workers = min(cpus, ndims)
    barrier = threading.Barrier(workers, timeout=30)
    lock = threading.Lock()
    calls = active = peak = 0

    def stub(n, dim, rng):
        nonlocal calls, active, peak
        with lock:
            calls += 1
            first = calls <= workers
            active += 1
            peak = max(peak, active)
        if first:
            barrier.wait()
        s = _stub_slack(n, dim, rng)
        with lock:
            active -= 1
        return s

    patch_slack(monkeypatch, "lemma1", stub)
    r = sweep_lemma1(3 * ndims * SWEEP_BLOCK, dims=range(2, 2 + ndims), seed=0)
    assert calls == 3 * ndims and r.violations == 0
    assert peak == workers


def test_usable_cpus_without_an_affinity_mask(monkeypatch):
    # Platforms without sched_getaffinity fall back to the CPU count, and to
    # one worker where even that is unknown.
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    assert geometry._usable_cpus() == os.cpu_count()
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert geometry._usable_cpus() == 1


def test_blocks_are_read_at_most_the_window_ahead(monkeypatch):
    monkeypatch.setattr(geometry, "_usable_cpus", lambda: 3)
    window = 2 * 3
    lock = threading.Lock()
    finished = read = lead = 0
    blocks = geometry.sweep_blocks

    def counted(n, dim, seed):
        nonlocal read, lead
        for item in blocks(n, dim, seed):
            with lock:
                read += 1
                lead = max(lead, read - finished)
            yield item

    def stub(n, dim, rng):
        nonlocal finished
        s = _stub_slack(n, dim, rng)
        with lock:
            finished += 1
        return s

    monkeypatch.setattr(geometry, "sweep_blocks", counted)
    patch_slack(monkeypatch, "lemma1", stub)
    sweep_lemma1(4 * 5 * SWEEP_BLOCK, dims=(2, 3, 4, 5), seed=0)
    assert read == 20 and 0 < lead <= window


def test_failing_block_propagates_and_stops_the_sweep(monkeypatch):
    # Dimension 2 has blocks 0..9, read first; block 3 raises.
    monkeypatch.setattr(geometry, "_usable_cpus", lambda: 2)
    window, k = 2 * 2, 3
    boom = RuntimeError("block 3 failed")
    started = []

    def stub(n, dim, rng):
        started.append(rng.bit_generator.seed_seq.spawn_key)
        if dim == 2 and rng.bit_generator.seed_seq.spawn_key[1] == k:
            raise boom
        return _stub_slack(n, dim, rng)

    patch_slack(monkeypatch, "lemma1", stub)
    threads = threading.active_count()
    with pytest.raises(RuntimeError) as excinfo:
        sweep_lemma1(2 * 10 * SWEEP_BLOCK, dims=(2, 3), seed=0)
    assert excinfo.value is boom
    assert (2, k) in started
    assert all(dim == 2 and block < k + window for dim, block in started)
    # The pool was shut down before the exception left the sweep.
    assert threading.active_count() == threads


@pytest.mark.parametrize("name, stacks", [("lemma4", 1.5), ("gate_approx", 1.0)],
                         ids=["lemma4", "gate_approx"])
def test_projector_block_holds_at_most_its_stacks(name, stacks):
    # A dimension-8 block of a projector sweep draws no matrix: its states,
    # eigenphases or coordinate frames and probabilities together stay below
    # ``stacks`` of the (4096, 8, 8) complex stacks that a draw of U and V
    # would hold. Lemma 4's einsum takes its real frame as a complex copy.
    stack = SWEEP_BLOCK * 8 * 8 * np.dtype(np.complex128).itemsize

    def traced_peak():
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        geometry._slack(name, SWEEP_BLOCK, 8, geometry._block_rng(1, 8, 0))
        return tracemalloc.get_traced_memory()[1] - before

    tracemalloc.start()
    try:
        traced_peak()       # first-call allocations out of the way
        peak = traced_peak()
    finally:
        tracemalloc.stop()
    assert peak <= stacks * stack


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
