import numpy as np
import pytest

from clonebound.bounds import ae_lower_bound, re_lower_bound
from clonebound.cloners import build_asymmetric, closed_form_re_s
from clonebound.cloning import FactorDims, TwoStateSet, analyze_pair
from clonebound.search import (
    SearchConfig,
    encode_params,
    make_frame,
    minimize_objective,
    minimize_symmetric_re,
    parameterize_pair,
    params_length,
    random_cloner_sweep,
    verify_point,
    warm_start_params,
)


def test_config_validation():
    with pytest.raises(ValueError):
        SearchConfig(z=1.0)
    with pytest.raises(ValueError):
        SearchConfig(z=0.5, restarts=0)


class TestParameterization:
    def test_length(self):
        assert params_length(4) == 12
        assert params_length(2) == 4

    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_outputs_are_unit_with_exact_overlap(self, m):
        z = 0.37
        frame = make_frame(TwoStateSet.at_overlap(z), m, seed=5)
        rng = np.random.default_rng(123)
        for _ in range(50):
            params = rng.standard_normal(params_length(m))
            v_phi, v_psi = parameterize_pair(params, z, frame)
            assert np.linalg.norm(v_phi) == pytest.approx(1.0, abs=1e-12)
            assert np.linalg.norm(v_psi) == pytest.approx(1.0, abs=1e-12)
            assert abs(np.vdot(v_phi, v_psi) - z) < 1e-12

    def test_warm_start_reproduces_the_asymmetric_machine(self):
        z = 0.5
        set_ = TwoStateSet.at_overlap(z)
        frame = make_frame(set_, 4, seed=1)
        v_phi, v_psi = parameterize_pair(warm_start_params(z, 4), z, frame)
        r = build_asymmetric(set_)
        assert np.max(np.abs(v_phi - r.a_phi.v)) < 1e-10
        assert np.max(np.abs(v_psi - r.a_psi.v)) < 1e-10

    def test_degenerate_parameters_rejected(self):
        frame = make_frame(TwoStateSet.at_overlap(0.5), 3, seed=0)
        params = np.zeros(params_length(3))
        params[: 2 * 3 - 2] = 0.3     # any V, but W coefficients all zero
        with pytest.raises(ValueError, match="degenerate"):
            parameterize_pair(params, 0.5, frame)

    def test_wrong_length_rejected(self):
        frame = make_frame(TwoStateSet.at_overlap(0.5), 3, seed=0)
        with pytest.raises(ValueError, match="parameters"):
            parameterize_pair(np.zeros(5), 0.5, frame)

    def test_encode_decode_round_trip(self):
        rng = np.random.default_rng(77)
        m = 4
        v = rng.standard_normal(m) + 1j * rng.standard_normal(m)
        v[0] = abs(v[0])              # encodable gauge
        v /= np.linalg.norm(v)
        w = rng.standard_normal(m) + 1j * rng.standard_normal(m)
        w -= v * np.vdot(v, w)
        w /= np.linalg.norm(w)
        z = 0.42
        frame = make_frame(TwoStateSet.at_overlap(z), m, seed=2)
        v_phi, v_psi = parameterize_pair(encode_params(v, w), z, frame)
        expect_phi = v @ frame
        expect_psi = (z * v + np.sqrt(1 - z * z) * w) @ frame
        assert np.max(np.abs(v_phi - expect_phi)) < 1e-12
        assert np.max(np.abs(v_psi - expect_psi)) < 1e-12

    def test_agrees_with_the_full_analysis_pipeline(self):
        z = 0.61
        set_ = TwoStateSet.at_overlap(z)
        frame = make_frame(set_, 4, seed=9)
        rng = np.random.default_rng(31)
        cfg = SearchConfig(z=z, seed=31)
        stats = random_cloner_sweep(cfg, n=1)
        params = rng.standard_normal(params_length(4))
        v_phi, v_psi = parameterize_pair(params, z, frame)
        r = analyze_pair(set_, v_phi, v_psi, FactorDims(2, 2, 1))
        # the coordinate shortcut and the ambient analysis agree
        from clonebound.search import _coords_from_params, _pair_errors

        v, vp, _ = _coords_from_params(params, z, 4)
        x_phi, x_psi, _, _ = _pair_errors(v, vp, z)
        assert r.a_phi.x == pytest.approx(x_phi, abs=1e-12)
        assert r.a_psi.x == pytest.approx(x_psi, abs=1e-12)
        assert stats.trials == 1


class TestMinimize:
    def test_re_converges_to_the_floor_at_half(self):
        out = minimize_objective("re", SearchConfig(z=0.5, restarts=5, seed=1))
        assert out.best_re == pytest.approx(float(re_lower_bound(0.5)), abs=1e-6)
        assert out.best_re >= out.bound_re - 1e-9

    def test_ae_converges_to_the_floor_at_the_peak(self):
        z = 1 / np.sqrt(3)
        out = minimize_objective("ae", SearchConfig(z=z, restarts=5, seed=2))
        assert out.best_ae == pytest.approx(np.sqrt(2 / 27), abs=1e-6)
        assert out.best_ae >= out.bound_ae - 1e-9

    def test_floors_hold_at_high_overlap(self):
        cfg = SearchConfig(z=0.9, restarts=20, seed=3)
        for objective in ("ae", "re"):
            out = minimize_objective(objective, cfg)
            assert out.best_ae >= out.bound_ae - 1e-9
            assert out.best_re >= out.bound_re - 1e-9

    def test_deterministic_given_the_seed(self):
        cfg = SearchConfig(z=0.4, restarts=3, seed=11)
        a = minimize_objective("ae", cfg)
        b = minimize_objective("ae", cfg)
        assert a.best_ae == b.best_ae and a.best_re == b.best_re
        assert a.trials == b.trials
        assert np.array_equal(a.best_params, b.best_params)

    def test_rejects_unknown_objective_and_zero_overlap(self):
        with pytest.raises(ValueError, match="objective"):
            minimize_objective("fidelity", SearchConfig(z=0.5))
        with pytest.raises(ValueError, match="0 < z"):
            minimize_objective("ae", SearchConfig(z=0.0))


class TestSymmetricRestriction:
    @pytest.mark.parametrize("z", [0.3, 0.5, 0.7])
    def test_floor_is_the_symmetric_closed_form(self, z):
        out = minimize_symmetric_re(SearchConfig(z=z, restarts=5, seed=4))
        assert out.best_re >= closed_form_re_s(z) - 1e-6
        assert out.best_re <= closed_form_re_s(z) + 1e-5

    def test_symmetric_floor_sits_above_the_general_floor(self):
        out = minimize_symmetric_re(SearchConfig(z=0.5, restarts=3, seed=5))
        assert out.best_re > float(re_lower_bound(0.5)) + 1e-3


class TestRandomSweep:
    @pytest.mark.parametrize("z", [0.1, 0.5, 0.9])
    def test_no_floor_or_chain_violations(self, z):
        cfg = SearchConfig(z=z, seed=6)
        stats = random_cloner_sweep(cfg, n=20_000)
        assert stats.floor_violations == 0
        assert stats.chain1_violations == 0 and stats.chain2_violations == 0
        assert stats.undefined_re == 0
        assert stats.ae_min >= float(ae_lower_bound(z)) - 1e-9
        assert stats.re_min >= float(re_lower_bound(z)) - 1e-9

    def test_stats_are_ordered(self):
        stats = random_cloner_sweep(SearchConfig(z=0.3, seed=8), n=5_000)
        assert stats.ae_min <= stats.ae_mean <= stats.ae_max
        assert stats.re_min <= stats.re_mean <= stats.re_max

    def test_deterministic(self):
        a = random_cloner_sweep(SearchConfig(z=0.3, seed=8), n=2_000)
        b = random_cloner_sweep(SearchConfig(z=0.3, seed=8), n=2_000)
        assert a == b

    def test_needs_at_least_one_sample(self):
        with pytest.raises(ValueError):
            random_cloner_sweep(SearchConfig(z=0.3, seed=8), n=0)


def test_verify_point_record():
    rec = verify_point(0.5, restarts=3, seed=9, sweep_trials=2_000)
    assert rec.violations == 0
    assert rec.attainment_gap < 1e-5
    d = rec.as_dict()
    for key in ("z", "bound_ae", "bound_re", "best_ae", "best_re",
                "violations", "trials", "seed"):
        assert key in d
    assert d["sweep"]["floor_violations"] == 0
