import itertools
import threading
import tracemalloc
from dataclasses import fields

import numpy as np
import pytest
from scipy.optimize import minimize

import oracles
from clonebound import search
from clonebound.bounds import ae_lower_bound, re_lower_bound
from clonebound.cloners import build_asymmetric, closed_form_re_s, plane_frame
from clonebound.cloning import FactorDims, TwoStateSet, analyze_pair
from clonebound.geometry import SWEEP_BLOCK
from clonebound.search import (
    N_PARAMS,
    SUBSPACE_DIM,
    SearchConfig,
    _coords_from_params,
    _cold_starts,
    _lockstep_lbfgsb,
    _objective_factory,
    _pair_errors,
    _run_minimize,
    _sample_block,
    minimize_objective,
    random_cloner_sweep,
    verify_point,
)
from clonebound.statespace import Projector, _dots, norm, random_states

# The row [theta, a, b] of the fully asymmetric machine: theta = 0, a = e1
# and b = e2, so V_phi = e1 and V_psi = z e1 + sin d e2.
ASYM_PARAMS = np.array([0, 1, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0], dtype=float)
ASYM_PARAMS.setflags(write=False)


def ambient_pair(params, z):
    """The pair ``params`` encodes, in the two-qubit output space: frame
    axes 0 and 1 span the product plane, axes 2 and 3 its complement."""
    e1, e2 = plane_frame(TwoStateSet.at_overlap(z))
    frame = np.vstack([e1, e2, Projector([e1, e2]).complement().basis])
    c = _coords_from_params(params, z)
    return c.v @ frame, c.v_psi @ frame


def test_config_validation():
    with pytest.raises(ValueError):
        SearchConfig(z=1.0)
    with pytest.raises(ValueError):
        SearchConfig(z=0.5, restarts=0)


class TestParameterization:
    def test_length(self):
        # theta, a in C^3, b in C^4
        assert N_PARAMS == 15 == ASYM_PARAMS.shape[0]

    # The frame is orthonormal, so norms and overlaps in frame coordinates
    # are those of the ambient vectors.
    def test_outputs_are_unit_with_exact_overlap(self):
        z = 0.37
        rng = np.random.default_rng(123)
        for _ in range(50):
            c = _coords_from_params(rng.standard_normal(N_PARAMS), z)
            assert np.linalg.norm(c.v) == pytest.approx(1.0, abs=1e-12)
            assert np.linalg.norm(c.v_psi) == pytest.approx(1.0, abs=1e-12)
            assert abs(np.vdot(c.v, c.v_psi) - z) < 1e-12

    def test_base_point_is_the_asymmetric_machine(self):
        z = 0.5
        set_ = TwoStateSet.at_overlap(z)
        v_phi, v_psi = ambient_pair(ASYM_PARAMS, z)
        r = build_asymmetric(set_)
        assert np.max(np.abs(v_phi - r.a_phi.v)) < 1e-10
        assert np.max(np.abs(v_psi - r.a_psi.v)) < 1e-10

    def test_degenerate_parameters_rejected(self):
        m = SUBSPACE_DIM
        rows = np.zeros((3, N_PARAMS))
        rows[:, 0] = 0.4
        rows[:2, 1] = 1.0               # a = (1, 0, 0): V = (cos 0.4, sin 0.4, 0, 0)
        # rows[0]: b = 0
        rows[1, 2 * m - 1: 2 * m + 3: 2] = np.cos(0.4), np.sin(0.4)    # b parallel to V
        rows[2, 2 * m - 1:] = 1.0       # a = 0
        for params in rows:
            with np.errstate(divide="ignore", invalid="ignore"):
                assert not _coords_from_params(params, 0.5).ok, params
            for objective in ("ae", "sym"):
                value, grad = _objective_factory(objective, 0.5)(params)
                assert value == np.inf and not grad.any(), (objective, params)

    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError, match="parameters"):
            _coords_from_params(np.zeros(5), 0.5)

    def test_encode_decode_round_trip(self):
        rng = np.random.default_rng(77)
        m = SUBSPACE_DIM
        v = rng.standard_normal(m) + 1j * rng.standard_normal(m)
        v[0] = abs(v[0])              # the gauge the parameterization fixes
        v /= np.linalg.norm(v)
        w = rng.standard_normal(m) + 1j * rng.standard_normal(m)
        w -= v * np.vdot(v, w)
        w /= np.linalg.norm(w)
        z = 0.42
        tail = norm(v[1:])
        params = np.concatenate([[np.arctan2(tail, v[0].real)],
                                 np.concatenate([v[1:] / tail, w]).view(np.float64)])
        c = _coords_from_params(params, z)
        assert np.max(np.abs(c.v - v)) < 1e-12
        assert np.max(np.abs(c.v_psi - (z * v + np.sqrt(1 - z * z) * w))) < 1e-12

    def test_agrees_with_the_full_analysis_pipeline(self):
        z = 0.61
        set_ = TwoStateSet.at_overlap(z)
        rng = np.random.default_rng(31)
        cfg = SearchConfig(z=z, seed=31)
        stats = random_cloner_sweep(cfg, n=1)
        params = rng.standard_normal(N_PARAMS)
        v_phi, v_psi = ambient_pair(params, z)
        r = analyze_pair(set_, v_phi, v_psi, FactorDims(2, 2, 1))
        # the coordinate shortcut and the ambient analysis agree
        c = _coords_from_params(params, z)
        x_phi, x_psi, _, _ = _pair_errors(c.v, c.v_psi, z)
        assert r.a_phi.x == pytest.approx(x_phi, abs=1e-12)
        assert r.a_psi.x == pytest.approx(x_psi, abs=1e-12)
        assert stats.trials == 1


def _reference_objective(objective, z):
    """The search objective's value, written out afresh on ``norm`` and ``_dots``,
    with sin d = sqrt((1 - z)(1 + z)) and sin D = sin d sqrt(1 + z^2)."""
    m = SUBSPACE_DIM
    sin_d = np.sqrt((1.0 - z) * (1.0 + z))
    u = np.zeros(m)
    u[0], u[1] = z * z, sin_d * np.sqrt(1.0 + z * z)

    def fun(params):
        theta = params[0]
        a = params[1:2 * m - 1:2] + 1j * params[2:2 * m - 1:2]
        b = params[2 * m - 1::2] + 1j * params[2 * m::2]
        v = np.empty(m, dtype=np.complex128)
        v[0] = np.cos(theta)
        v[1:] = np.sin(theta) * (a / norm(a))
        p = b - v * _dots(v, b)
        v_psi = z * v + sin_d * (p / norm(p))
        q_psi = _dots(u, v_psi)
        x_psi = norm(v_psi - u * q_psi)
        if objective == "sym":
            value = np.sin(theta) * np.sin(theta) + x_psi * x_psi
        else:
            value = abs(np.sin(theta)) + x_psi
        a_norm, b_norm = norm(a), norm(b)
        gauge = (a_norm * a_norm - 1) ** 2 + (b_norm * b_norm - 1) ** 2
        return float(value + 0.25 * gauge)

    return fun


class TestBitIdentity:
    """The objective gives the bits of its formula written out on the one
    reduction kernel.

    Seeded ``verify`` reports depend on every bit of the objective, and an
    ulp of difference can survive a few hashes unnoticed.
    """

    @pytest.mark.parametrize("objective", ["ae", "sym"])
    @pytest.mark.parametrize("z", [0.1, 0.5, 0.9])
    def test_objective(self, objective, z):
        fun = _objective_factory(objective, z)
        ref = _reference_objective(objective, z)
        rng = np.random.default_rng(7)
        for scale in np.concatenate([np.logspace(-9, -2, 8).repeat(40), [0.5] * 200]):
            x = ASYM_PARAMS + scale * rng.standard_normal(N_PARAMS)
            x[0] = abs(x[0])        # inside the box theta >= 0
            assert np.array_equal(fun(x)[0], ref(x)), (x, fun(x)[0], ref(x))


@pytest.mark.parametrize("objective", ["ae", "sym"])
@pytest.mark.parametrize("z", [0.1, 0.5, 0.9])
def test_objective_gives_a_row_the_same_bits_in_any_stack(objective, z):
    # So a stacked optimizer sees the bits L-BFGS-B sees one row at a time.
    # Rows the parameterization rejects (NaN theta, inf in b, a = 0) are
    # stacked in among the others, and give inf and a zero gradient alone too.
    m = SUBSPACE_DIM
    rng = np.random.default_rng(43)
    scales = np.logspace(-9, 0, 4500)[:, None]
    rows = ASYM_PARAMS + scales * rng.standard_normal((4500, N_PARAMS))
    rejected = np.zeros(len(rows), dtype=bool)
    for start, step, columns, bad in ((0, 97, 0, np.nan), (1, 101, N_PARAMS - 1, np.inf),
                                      (2, 103, slice(1, 2 * m - 1), 0.0)):
        rows[start::step, columns] = bad
        rejected[start::step] = True
    fun = _objective_factory(objective, z)
    value, grad = fun(rows)
    alone = [fun(row) for row in rows]
    assert value.tobytes() == np.array([f for f, _ in alone]).tobytes()
    assert grad.tobytes() == np.stack([g for _, g in alone]).tobytes()
    np.testing.assert_array_equal(value == np.inf, rejected)
    assert not grad[rejected].any()


@pytest.mark.parametrize("z", [0.1, 0.5, 0.9])
def test_pair_errors_give_a_row_the_same_bits_in_any_stack(z):
    # So a sweep sample recomputed alone matches its block.
    rng = np.random.default_rng(41)
    v, v_psi = random_states(4096, SUBSPACE_DIM, rng), random_states(4096, SUBSPACE_DIM, rng)
    alone = [_pair_errors(v[i:i + 1], v_psi[i:i + 1], z) for i in range(len(v))]
    np.testing.assert_array_equal(_pair_errors(v, v_psi, z), np.concatenate(alone, axis=1))


class TestGradient:
    # Offset 10 puts theta in (10.05, 11.52), off the [0, pi/2] box: sin theta
    # is negative there and cos theta takes both signs. The "sym" search
    # leaves theta unbounded.
    @pytest.mark.parametrize("theta_offset", [0.0, 10.0])
    @pytest.mark.parametrize("objective", ["ae", "sym"])
    @pytest.mark.parametrize("z", [0.1, 0.5, 0.9])
    def test_matches_central_differences(self, z, objective, theta_offset):
        fun = _objective_factory(objective, z)
        rng = np.random.default_rng(17)
        h = 1e-6
        for _ in range(20):
            x = 0.5 * rng.standard_normal(N_PARAMS)
            x[0] = theta_offset + rng.uniform(0.05, np.pi / 2 - 0.05)
            _, grad = fun(x)
            numeric = [(fun(x + h * e)[0] - fun(x - h * e)[0]) / (2 * h)
                       for e in np.eye(x.shape[0])]
            assert np.max(np.abs(grad - numeric)) < 1e-8


class TestNonFiniteParameters:
    # 1e150: the norms are finite but the gauge term overflows; 1e200: the
    # squared norms overflow.
    @pytest.mark.parametrize("value", [1e150, 1e200, np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("objective", ["ae", "sym"])
    def test_objective_is_infinite(self, value, objective):
        fun = _objective_factory(objective, 0.5)
        points = [np.full(N_PARAMS, value)]
        for i in (0, 1, N_PARAMS - 1):      # theta, a, b one at a time
            if np.isfinite(value) and i == 0:
                continue            # a huge but finite angle is a valid angle
            points.append(ASYM_PARAMS.copy())
            points[-1][i] = value
        for x in points:
            f, grad = fun(x)
            # A finite gradient keeps L-BFGS-B's curvature pairs clean.
            assert f == np.inf and np.all(np.isfinite(grad)), x

    def test_zero_norms_are_infinite(self):
        fun = _objective_factory("ae", 0.5)
        assert fun(np.zeros(N_PARAMS))[0] == np.inf


class TestColdStarts:
    """Evidence that rests on converged runs from seeded random starts."""

    @pytest.mark.parametrize("z", [0.1, 0.5, 0.9])
    def test_cold_starts_alone_reach_the_ae_floor(self, z):
        cfg = SearchConfig(z=z, restarts=20, seed=1)
        best, _, _ = _run_minimize(_objective_factory("ae", z),
                                   _cold_starts(cfg), (0.0, np.pi / 2))
        bound = float(ae_lower_bound(z))
        assert bound - 1e-9 <= best < bound + 1e-5

    @pytest.mark.parametrize("z", [0.1, 0.5, 0.9])
    def test_best_point_is_the_vertex_witness(self, z):
        # Chain 2 gives delta_phi + delta_psi >= D - d, and sin is concave on
        # [0, pi/2], so sin(delta_phi) + sin(delta_psi) >= sin(D - d), with
        # equality at the vertex x_phi = 0, x_psi = sin(D - d).
        out = minimize_objective("ae", SearchConfig(z=z, restarts=20, seed=1))
        c = _coords_from_params(out.best_params, z)
        x_phi, x_psi, _, _ = _pair_errors(c.v, c.v_psi, z)
        assert x_phi == 0.0
        assert abs(x_psi - oracles.ae_bound(z)) < 1e-12

    @pytest.mark.parametrize("z", [0.1, 0.5, 0.9])
    def test_cold_starts_alone_reach_the_symmetric_machine(self, z):
        # Chain 2 and sin^2 a + sin^2 b = 1 - cos(a + b) cos(a - b): the only
        # minimizer of x_phi^2 + x_psi^2 is x_phi = x_psi = sin((D - d)/2).
        cfg = SearchConfig(z=z, restarts=20, seed=1)
        runs = list(_lockstep_lbfgsb(_objective_factory("sym", z), _cold_starts(cfg),
                                     (None, None)))
        assert len(runs) == 20
        for res in runs:
            c = _coords_from_params(res.x, z)
            x_phi, x_psi, _, _ = _pair_errors(c.v, c.v_psi, z)
            re = (x_phi + x_psi) / np.sqrt(1.0 - z ** 4)
            assert res.status == 0 and abs(re - closed_form_re_s(z)) < 1e-8, res
            assert abs(x_phi - x_psi) < 1e-6
            assert abs(x_phi - oracles.sym_ae(z) / 2) < 1e-6

    def test_cold_start_protocol(self):
        # 20 cold starts at each of seeds 1-5 and z = 0.1, 0.5, 0.9: nearly
        # every AE start converges to the floor, every equal-angle start to
        # the symmetric closed form, and no point dips below its floor.
        ae_hits, sym_hits, lowest = 0, 0, np.inf
        for seed, z in itertools.product(range(1, 6), (0.1, 0.5, 0.9)):
            starts = _cold_starts(SearchConfig(z=z, restarts=20, seed=seed))
            for objective, box in (("ae", (0.0, np.pi / 2)), ("sym", (None, None))):
                for res in _lockstep_lbfgsb(_objective_factory(objective, z), starts, box):
                    c = _coords_from_params(res.x, z)
                    x_phi, x_psi, _, _ = _pair_errors(c.v, c.v_psi, z)
                    if objective == "ae":
                        gap = x_phi + x_psi - float(ae_lower_bound(z))
                        ae_hits += gap < 1e-8
                    else:
                        gap = (x_phi + x_psi) / np.sqrt(1.0 - z ** 4) - closed_form_re_s(z)
                        sym_hits += abs(gap) < 1e-8
                    lowest = min(lowest, gap)
        assert ae_hits >= 285 and sym_hits == 300, (ae_hits, sym_hits)
        assert lowest >= -1e-15, lowest


def _search_starts(objective, cfg):
    """The starts and theta box of ``minimize_objective(objective, cfg)``."""
    box = (None, None) if objective == "sym" else (0.0, np.pi / 2)
    return _cold_starts(cfg), box


class TestLockstep:
    """Driving every start in lockstep changes no start's run."""

    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("objective", ["ae", "sym"])
    @pytest.mark.parametrize("z", [0.1, 0.5, 0.9])
    def test_each_start_is_solo_lbfgsb_bit_for_bit(self, z, objective, seed):
        # The reference is public scipy: a release that changes setulb or
        # its driver's loop fails here.
        fun = _objective_factory(objective, z)
        starts, box = _search_starts(objective, SearchConfig(z=z, restarts=20, seed=seed))
        runs = list(_lockstep_lbfgsb(fun, starts, box))
        assert len(runs) == len(starts)
        for x0, res in zip(starts, runs):
            solo = minimize(fun, x0, method="L-BFGS-B", jac=True,
                            bounds=[box] + [(None, None)] * (N_PARAMS - 1),
                            options={"ftol": search.OBJECTIVE_TOL,
                                     "gtol": search.GRADIENT_TOL})
            assert res.x.tobytes() == solo.x.tobytes()
            assert np.float64(res.f).tobytes() == np.float64(solo.fun).tobytes()
            assert (res.evals, res.status) == (solo.nfev, solo.status)

    @pytest.mark.parametrize("width", [1, 3, search.LOCKSTEP_WIDTH])
    @pytest.mark.parametrize("objective", ["ae", "sym"])
    def test_width_changes_no_result(self, objective, width, monkeypatch):
        # 10 starts: at width 3 the last lockstep group holds one start.
        cfg = SearchConfig(z=0.5, restarts=10, seed=2)
        starts, box = _search_starts(objective, cfg)
        fun = _objective_factory(objective, cfg.z)
        wide = list(_lockstep_lbfgsb(fun, starts, box))
        out = minimize_objective(objective, cfg)
        monkeypatch.setattr(search, "LOCKSTEP_WIDTH", width)
        for res, ref in zip(_lockstep_lbfgsb(fun, starts, box), wide, strict=True):
            assert res.x.tobytes() == ref.x.tobytes() and res[1:] == ref[1:]
        narrow = minimize_objective(objective, cfg)
        for f in fields(out):
            assert np.asarray(getattr(narrow, f.name)).tobytes() == \
                np.asarray(getattr(out, f.name)).tobytes(), f.name


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
        out = minimize_objective("ae", cfg)
        assert out.best_ae >= out.bound_ae - 1e-9
        assert out.best_re >= out.bound_re - 1e-9
        # RE = AE / sin D with D fixed by z: both names run the one AE search.
        same = minimize_objective("re", cfg)
        for f in fields(out):
            assert np.array_equal(getattr(same, f.name), getattr(out, f.name)), f.name

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
        for objective in ("ae", "sym"):
            with pytest.raises(ValueError, match="0 < z"):
                minimize_objective(objective, SearchConfig(z=0.0))


class TestSymmetricRestriction:
    @pytest.mark.parametrize("z", [0.3, 0.5, 0.7])
    def test_floor_is_the_symmetric_closed_form(self, z):
        out = minimize_objective("sym", SearchConfig(z=z, restarts=5, seed=4))
        assert out.best_re >= closed_form_re_s(z) - 1e-6
        assert out.best_re <= closed_form_re_s(z) + 1e-5

    def test_symmetric_floor_sits_above_the_general_floor(self):
        out = minimize_objective("sym", SearchConfig(z=0.5, restarts=3, seed=5))
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

    def test_blocks_rebuild_from_their_seeds(self, monkeypatch):
        # Block b is drawn from SeedSequence(seed, spawn_key=(SUBSPACE_DIM, b)),
        # and the summaries are those of all the blocks' values together.
        drawn = []

        def recording(rng, n, z):
            values = _sample_block(rng, n, z)
            drawn.append((n, values))
            return values

        monkeypatch.setattr(search, "_sample_block", recording)
        stats = random_cloner_sweep(SearchConfig(z=0.4, seed=3), n=SWEEP_BLOCK + 7)
        assert [n for n, _ in drawn] == [SWEEP_BLOCK, 7]
        for block, (n, values) in enumerate(drawn):
            rng = np.random.default_rng(
                np.random.SeedSequence(3, spawn_key=(SUBSPACE_DIM, block)))
            rebuilt = _sample_block(rng, n, 0.4)
            for got, want in zip(values, rebuilt):
                np.testing.assert_array_equal(got, want)
        ae, re, chain1, chain2 = (np.concatenate(v) for v in zip(*(v for _, v in drawn)))
        assert (stats.ae_min, stats.ae_max) == (ae.min(), ae.max())
        assert (stats.re_min, stats.re_max) == (re.min(), re.max())
        assert stats.ae_mean == pytest.approx(ae.mean(), rel=1e-13)
        assert stats.re_mean == pytest.approx(re.mean(), rel=1e-13)
        assert stats.min_chain_slack == min(chain1.min(), chain2.min())
        # Bit for bit, the mean is the block sums added in block order.
        for mean, k in ((stats.ae_mean, 0), (stats.re_mean, 1)):
            blocks = [values[k] for _, values in drawn]
            assert mean == sum(float(b.sum()) for b in blocks) / sum(b.size for b in blocks)

    def test_failing_block_propagates_and_stops_the_sweep(self, monkeypatch):
        boom = RuntimeError("block 1 failed")

        def failing(rng, n, z):
            if rng.bit_generator.seed_seq.spawn_key == (SUBSPACE_DIM, 1):
                raise boom
            return _sample_block(rng, n, z)

        monkeypatch.setattr(search, "_sample_block", failing)
        threads = threading.active_count()
        with pytest.raises(RuntimeError) as excinfo:
            random_cloner_sweep(SearchConfig(z=0.4, seed=3), n=3 * SWEEP_BLOCK)
        assert excinfo.value is boom
        # The pool was shut down before the exception left the sweep.
        assert threading.active_count() == threads

    def test_nan_chain_slack_is_a_violation(self, monkeypatch):
        def nan_chains(rng, n, z):
            ae, re, chain1, chain2 = _sample_block(rng, n, z)
            ae[3] = re[4] = np.nan
            chain1[5] = chain2[5] = chain2[6] = np.nan
            return ae, re, chain1, chain2

        monkeypatch.setattr(search, "_sample_block", nan_chains)
        stats = random_cloner_sweep(SearchConfig(z=0.4, seed=3), n=SWEEP_BLOCK + 7)
        assert (stats.chain1_violations, stats.chain2_violations) == (2, 4)
        # A NaN error is a floor violation, and no summary drops it.
        assert (stats.floor_violations_ae, stats.floor_violations_re) == (2, 2)
        assert np.all(np.isnan([stats.ae_min, stats.ae_mean, stats.ae_max,
                                stats.re_min, stats.re_mean, stats.re_max,
                                stats.min_chain_slack]))
        assert verify_point(0.4, restarts=1, seed=3, sweep_trials=7).violations == 2

    def test_memory_does_not_grow_with_samples(self):
        def traced_peak(blocks):
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            random_cloner_sweep(SearchConfig(z=0.3, seed=8), n=blocks * SWEEP_BLOCK)
            return tracemalloc.get_traced_memory()[1] - before

        tracemalloc.start()
        try:
            traced_peak(1)      # first-call allocations out of the way
            small, large = traced_peak(2), traced_peak(16)
        finally:
            tracemalloc.stop()
        assert large <= 1.1 * small

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


def test_verify_point_rejects_an_unindexable_count_before_searching(monkeypatch):
    def no_search(*args, **kwargs):
        raise AssertionError("the search ran before the sweep count was checked")

    monkeypatch.setattr(search, "minimize_objective", no_search)
    with pytest.raises(ValueError, match="Maximum allowed dimension exceeded"):
        verify_point(0.5, restarts=1, sweep_trials=10 ** 30)
