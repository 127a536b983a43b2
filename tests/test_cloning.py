import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from clonebound.cloners import build_asymmetric, build_symmetric
from clonebound.cloning import (
    CloneAnalysis,
    FactorDims,
    TwoStateSet,
    absolute_error,
    analyze_output,
    analyze_pair,
    inequality_chain,
    lifted_prob,
    measurement_deviation,
    relative_error,
    unitarity_residual,
)
from clonebound.geometry import gate_approx_check, lemma4_saturation_witness
from clonebound.search import N_PARAMS
from clonebound.statespace import (
    Projector,
    apply_projector,
    as_state,
    basis_state,
    check_unitary,
    gram_schmidt_residual,
    normalize,
    random_projector,
    random_state,
    tensor,
)
from test_search import ambient_pair

seeds = st.integers(min_value=0, max_value=2 ** 32 - 1)
overlaps = st.floats(min_value=0.0, max_value=1.0)


class TestTwoStateSet:
    def test_at_overlap_caches_geometry(self):
        s = TwoStateSet.at_overlap(0.5)
        assert s.z == pytest.approx(0.5, abs=1e-15)
        assert s.delta == pytest.approx(np.pi / 3, abs=1e-15)
        assert s.delta_product == pytest.approx(np.arccos(0.25), abs=1e-15)

    def test_from_states_fixes_the_phase(self):
        rng = np.random.default_rng(2)
        phi = random_state(3, rng)
        psi = np.exp(1.3j) * random_state(3, rng)
        s = TwoStateSet.from_states(phi, psi)
        ov = np.vdot(s.phi, s.psi)
        assert abs(ov.imag) < 1e-14 and ov.real >= 0
        assert s.z == pytest.approx(abs(np.vdot(phi, psi)), abs=1e-12)
        assert s.delta == pytest.approx(np.arccos(s.z), abs=1e-12)

    @given(overlaps)
    @settings(max_examples=60, deadline=None)
    def test_product_angle_dominates_single_angle(self, z):
        s = TwoStateSet.at_overlap(z)
        assert s.delta_product >= s.delta - 1e-12

    def test_rejects_out_of_range_overlap(self):
        with pytest.raises(ValueError):
            TwoStateSet.at_overlap(1.2)


class TestFactorDims:
    def test_total(self):
        assert FactorDims(3, 3, 2).total == 18

    def test_rejects_mismatched_copy_space(self):
        with pytest.raises(ValueError, match="must equal"):
            FactorDims(2, 3, 1)

    def test_rejects_empty_ancilla(self):
        with pytest.raises(ValueError):
            FactorDims(2, 2, 0)


class TestAnalyzeOutput:
    def test_perfect_copy(self):
        rng = np.random.default_rng(7)
        s = random_state(3, rng)
        m = random_state(4, rng)
        v = tensor(tensor(s, s), m)
        a = analyze_output(v, s, FactorDims(3, 3, 4))
        assert a.x == pytest.approx(0.0, abs=1e-12)
        assert a.delta_s == pytest.approx(0.0, abs=1e-15)
        assert not a.degenerate
        assert np.allclose(a.ideal, v, atol=1e-12)

    def test_orthogonal_copy_is_degenerate(self):
        rng = np.random.default_rng(8)
        s = random_state(3, rng)
        t = gram_schmidt_residual(random_state(3, rng), s)
        v = tensor(tensor(s, t), basis_state(2, 0))
        a = analyze_output(v, s, FactorDims(3, 3, 2))
        assert a.x == pytest.approx(1.0, abs=1e-12)
        assert a.delta_s == pytest.approx(np.pi / 2, abs=1e-12)
        assert a.degenerate and a.ideal is None and a.k is None

    @given(seeds, st.sampled_from([2, 3]), st.sampled_from([1, 2, 3]))
    @settings(max_examples=100, deadline=None)
    def test_unitarity_identity_norm_split(self, seed, d, danc):
        rng = np.random.default_rng(seed)
        dims = FactorDims(d, d, danc)
        v = random_state(dims.total, rng)
        s = random_state(d, rng)
        a = analyze_output(v, s, dims)
        q_norm = np.linalg.norm(a.q)
        assert q_norm ** 2 + a.x ** 2 == pytest.approx(1.0, abs=1e-12)
        assert a.x == pytest.approx(np.sin(a.delta_s), abs=1e-12)
        assert np.cos(a.delta_s) == pytest.approx(q_norm, abs=1e-12)

    def test_dimension_checks(self):
        dims = FactorDims(2, 2, 1)
        with pytest.raises(ValueError, match="dimension"):
            analyze_output(basis_state(8, 0), basis_state(2, 0), dims)
        with pytest.raises(ValueError, match="dimension"):
            analyze_output(basis_state(4, 0), basis_state(3, 0), dims)


def _output_with_error(s, t, x, danc=2):
    """Unit output whose analysis against s has error size exactly x."""
    good = tensor(tensor(s, s), basis_state(danc, 0))
    bad = tensor(tensor(s, t), basis_state(danc, 0))
    return np.sqrt(1 - x * x) * good + x * bad


class TestErrors:
    def test_absolute_error_adds_the_sizes(self):
        e1, e2 = basis_state(2, 0), basis_state(2, 1)
        dims = FactorDims(2, 2, 2)
        a = analyze_output(_output_with_error(e1, e2, 0.3), e1, dims)
        b = analyze_output(_output_with_error(e2, e1, 0.4), e2, dims)
        assert a.x == pytest.approx(0.3, abs=1e-12)
        assert absolute_error(a, b) == pytest.approx(0.7, abs=1e-12)

    def test_absolute_error_perfect_copies(self):
        s = TwoStateSet.at_overlap(0.0)
        r = build_asymmetric(s)
        assert r.ae == pytest.approx(0.0, abs=1e-12)
        assert relative_error(r) == pytest.approx(0.0, abs=1e-12)

    def test_asymmetric_ae_at_half_matches_quoted_value(self):
        r = build_asymmetric(TwoStateSet.at_overlap(0.5))
        assert r.ae == pytest.approx(np.sqrt(3) * (np.sqrt(5) - 1) / 8, abs=1e-12)
        assert round(r.ae, 3) == 0.268

    def test_asymmetric_re_at_half_is_the_floor(self):
        r = build_asymmetric(TwoStateSet.at_overlap(0.5))
        assert relative_error(r) == pytest.approx(oracles.F_AT_HALF, abs=1e-12)

    def test_relative_error_undefined_for_identical_states(self):
        phi = basis_state(2, 0)
        s = TwoStateSet.from_states(phi, phi)
        v = tensor(tensor(phi, phi), basis_state(2, 0))
        r = analyze_pair(s, v, v, FactorDims(2, 2, 2))
        assert r.re is None and relative_error(r) is None

    def test_relative_error_rejects_degenerate_ideal(self):
        e1, e2 = basis_state(2, 0), basis_state(2, 1)
        s = TwoStateSet.from_states(e1, e2)
        v_phi = tensor(tensor(e1, e2), basis_state(2, 0))   # orthogonal copy
        v_psi = tensor(tensor(e2, e2), basis_state(2, 0))
        r = analyze_pair(s, v_phi, v_psi, FactorDims(2, 2, 2))
        assert r.a_phi.degenerate
        with pytest.raises(ValueError, match="degenerate"):
            relative_error(r)


class TestInequalityChain:
    @pytest.mark.parametrize("z", [0.05, 0.25, 0.5, 0.75, 0.95])
    def test_equality_for_both_optimal_machines(self, z):
        s = TwoStateSet.at_overlap(z)
        for build in (build_symmetric, build_asymmetric):
            r1, r2 = inequality_chain(build(s))
            assert abs(r2.slack) < 1e-10      # the key constraint is met exactly
            assert r1.holds and r2.holds

    @pytest.mark.parametrize("z", [0.5, 0.9])
    def test_chain2_lhs_is_the_one_deficit(self, z):
        # D and d come from bounds alone: chain 2's lhs is D - d bit for bit.
        s = TwoStateSet.at_overlap(z)
        _, r2 = inequality_chain(build_asymmetric(s))
        deficit = s.delta_product - s.delta
        assert np.float64(r2.lhs).tobytes() == np.float64(deficit).tobytes()

    @given(seeds)
    @settings(max_examples=50, deadline=None)
    def test_holds_for_random_realizable_pairs(self, seed):
        rng = np.random.default_rng(seed)
        z = float(rng.uniform(0.05, 0.95))
        s = TwoStateSet.at_overlap(z)
        v_phi, v_psi = ambient_pair(rng.standard_normal(N_PARAMS), z)
        r = analyze_pair(s, v_phi, v_psi, FactorDims(2, 2, 1))
        r1, r2 = inequality_chain(r)
        assert r1.holds and r2.holds

    def test_ideal_angle_dominates_product_angle(self):
        rng = np.random.default_rng(12)
        for _ in range(200):
            z = float(rng.uniform(0.0, 0.98))
            s = TwoStateSet.at_overlap(z, dim=2)
            dims = FactorDims(2, 2, 2)
            r = analyze_pair(s, random_state(8, rng), random_state(8, rng), dims)
            if r.ideal_angle is None:
                continue
            assert r.ideal_angle >= s.delta_product - 1e-10


class TestMeasurementDeviation:
    def test_perfect_copy_zero_deviation(self):
        rng = np.random.default_rng(21)
        s = random_state(2, rng)
        v = tensor(tensor(s, s), basis_state(3, 0))
        a = analyze_output(v, s, FactorDims(2, 2, 3))
        for mode in (1, 2):
            for _ in range(20):
                p = random_projector(2, 1, rng)
                r = measurement_deviation(a, s, p, mode)
                assert r.lhs < 1e-12 and r.holds

    def test_orthogonal_copy_bounded_by_one(self):
        e1, e2 = basis_state(2, 0), basis_state(2, 1)
        v = tensor(tensor(e1, e2), basis_state(2, 0))
        a = analyze_output(v, e1, FactorDims(2, 2, 2))
        p = random_projector(2, 1, np.random.default_rng(0))
        r = measurement_deviation(a, e1, p, 2)
        assert r.rhs == pytest.approx(1.0, abs=1e-12)
        assert r.holds

    @given(seeds)
    @settings(max_examples=150, deadline=None)
    def test_random_trials_hold(self, seed):
        rng = np.random.default_rng(seed)
        d = int(rng.integers(2, 5))
        danc = int(rng.integers(1, 4))
        dims = FactorDims(d, d, danc)
        s = random_state(d, rng)
        a = analyze_output(random_state(dims.total, rng), s, dims)
        p = random_projector(d, int(rng.integers(1, d)), rng)
        mode = int(rng.integers(1, 3))
        assert measurement_deviation(a, s, p, mode).holds

    @pytest.mark.parametrize("seed", range(5))
    def test_lifted_prob_matches_the_grid_contraction(self, seed):
        # lifted_prob evaluates the sweeps' kernel on the output's rows along
        # the measured mode; the contraction over the whole grid it replaced
        # agrees.
        rng = np.random.default_rng(seed)
        for d in range(2, 6):
            for danc in (1, 2, 3):
                dims = FactorDims(d, d, danc)
                a = analyze_output(random_state(dims.total, rng), random_state(d, rng), dims)
                p = random_projector(d, int(rng.integers(1, d + 1)), rng)
                grid = a.v.reshape(d, d, danc)
                for mode, spec in ((1, "ri,ijk->rjk"), (2, "rj,ijk->irk")):
                    coeff = np.einsum(spec, p.basis.conj(), grid)
                    old = min(max(float(np.sum(np.abs(coeff) ** 2)), 0.0), 1.0)
                    assert abs(lifted_prob(a, p, mode) - old) <= 1e-15

    def test_mode_validation(self):
        e1 = basis_state(2, 0)
        a = analyze_output(tensor(e1, e1), e1, FactorDims(2, 2, 1))
        p = random_projector(2, 1, np.random.default_rng(1))
        with pytest.raises(ValueError, match="mode"):
            lifted_prob(a, p, 3)
        with pytest.raises(ValueError, match="dimension mismatch: 2 vs 3"):
            lifted_prob(a, random_projector(3, 1, np.random.default_rng(1)), 1)


def test_unitarity_residual_zero_for_constructions():
    for z in (0.1, 0.5, 0.9):
        r = build_symmetric(TwoStateSet.at_overlap(z))
        assert unitarity_residual(r) < 1e-10


_E0 = basis_state(2, 0)
_HALF = TwoStateSet.at_overlap(0.5)


@pytest.mark.parametrize("call, args, message", [
    (as_state, ([],), "must be 1-D and non-empty"),
    (as_state, (np.eye(2),), "must be 1-D and non-empty"),
    (normalize, (np.zeros(2),), "cannot normalize the zero vector"),
    (Projector.complement, (Projector(np.eye(2)),), "full-rank projector has no complement"),
    (apply_projector, (Projector(basis_state(3, 0)), _E0), "dimension mismatch: 2 vs 3"),
    (check_unitary, (np.ones((2, 3)),), "expected a square matrix"),
    (random_projector, (3, 0, np.random.default_rng(0)), r"rank must be in 1\.\.3, got 0"),
    (random_projector, (3, 4, np.random.default_rng(0)), r"rank must be in 1\.\.3, got 4"),
    (gate_approx_check, (np.eye(2), np.eye(3), _E0, Projector(_E0)),
     "unitaries and state must share one dimension"),
    (lemma4_saturation_witness, (0.0,), r"delta must be in \(0, pi/2\]"),
    (lemma4_saturation_witness, (1.6,), r"delta must be in \(0, pi/2\]"),
    (TwoStateSet.from_states, (_E0, basis_state(3, 0)), "phi and psi must share one dimension"),
    (TwoStateSet.at_overlap, (0.5, 1), "need dimension >= 2"),
    (absolute_error, (analyze_output(tensor(_E0, _E0), _E0, FactorDims(2, 2, 1)),
                      analyze_output(basis_state(8, 0), _E0, FactorDims(2, 2, 2))),
     "analyses were made over different factor layouts"),
    # phi's output lies wholly off phi x phi, so its ideal has no direction.
    (inequality_chain, (analyze_pair(_HALF, basis_state(4, 3), tensor(_HALF.psi, _HALF.psi),
                                     FactorDims(2, 2, 1)),),
     "inequality chain needs non-degenerate ideals"),
], ids=["as_state-empty", "as_state-2d", "normalize-zero", "complement-full-rank",
        "apply_projector-dims", "check_unitary-not-square", "random_projector-rank-0",
        "random_projector-rank-above-dim", "gate_approx_check-dims", "lemma4-delta-0",
        "lemma4-delta-above-half-pi", "from_states-dims", "at_overlap-dim-1",
        "absolute_error-layouts", "inequality_chain-degenerate"])
def test_library_checks_reject_bad_arguments(call, args, message):
    with pytest.raises(ValueError, match=message):
        call(*args)
