import numpy as np
import pytest

import oracles
from clonebound.bounds import ae_lower_bound, re_lower_bound
from clonebound.cloners import (
    build_asymmetric,
    build_symmetric,
    build_wootters_zurek,
    closed_form_re_s,
    closed_form_re_wz,
    materialize_unitary,
    plane_frame,
)
from clonebound.cloning import FactorDims, TwoStateSet, analyze_output, relative_error
from clonebound.statespace import (
    basis_state,
    check_unitary,
    gram_schmidt_residual,
    inner,
    random_state,
    tensor,
)

Z_GRID = [round(0.05 * k, 2) for k in range(1, 20)]   # 0.05 .. 0.95


def machine_inputs(result):
    blank = basis_state(result.dims.d2, 0)
    vecs = []
    for s in (result.set.phi, result.set.psi):
        vec = tensor(s, blank)
        if result.dims.danc > 1:
            vec = tensor(vec, basis_state(result.dims.danc, 0))
        vecs.append(vec)
    return vecs


class TestPlaneFrame:
    def test_orthogonal_pair_gives_the_products_themselves(self):
        s = TwoStateSet.at_overlap(0.0)
        e1, e2 = plane_frame(s)
        assert np.allclose(e1, tensor(s.phi, s.phi))
        assert np.allclose(e2, tensor(s.psi, s.psi), atol=1e-15)

    @pytest.mark.parametrize("z", [0.1, 0.5, 0.9])
    def test_frame_is_orthonormal_with_real_decomposition(self, z):
        rng = np.random.default_rng(17)
        phi = random_state(3, rng)
        psi_raw = np.exp(0.7j) * (
            z * phi + np.sqrt(1 - z * z) * gram_schmidt_residual(
                random_state(3, rng), phi)
        )
        s = TwoStateSet.from_states(phi, psi_raw / np.linalg.norm(psi_raw))
        e1, e2 = plane_frame(s)
        assert abs(inner(e1, e2)) < 1e-12
        ov = inner(e1, tensor(s.psi, s.psi))
        assert ov.imag == pytest.approx(0.0, abs=1e-12)
        assert ov.real == pytest.approx(s.z ** 2, abs=1e-12)

    def test_identical_states_have_no_plane(self):
        with pytest.raises(ValueError, match="identical"):
            plane_frame(TwoStateSet.at_overlap(1.0))


class TestSymmetric:
    def test_orthogonal_states_clone_exactly(self):
        r = build_symmetric(TwoStateSet.at_overlap(0.0))
        assert r.ae == pytest.approx(0.0, abs=1e-12)

    def test_ae_matches_doubled_half_angle_sine(self):
        r = build_symmetric(TwoStateSet.at_overlap(0.5))
        assert r.ae == pytest.approx(oracles.SYM_AE_AT_HALF, abs=1e-12)
        assert r.ae == pytest.approx(0.27009, abs=5e-6)

    @pytest.mark.parametrize("z", Z_GRID)
    def test_equal_split_and_closed_form(self, z):
        r = build_symmetric(TwoStateSet.at_overlap(z))
        assert abs(r.a_phi.delta_s - r.a_psi.delta_s) < 1e-10
        assert relative_error(r) == pytest.approx(closed_form_re_s(z), abs=1e-9)
        assert relative_error(r) == pytest.approx(oracles.sym_re(z), abs=1e-12)


class TestAsymmetric:
    def test_orthogonal_states_clone_exactly(self):
        r = build_asymmetric(TwoStateSet.at_overlap(0.0))
        assert r.ae == pytest.approx(0.0, abs=1e-12)
        assert relative_error(r) == pytest.approx(0.0, abs=1e-12)

    def test_quoted_ae_value_at_half(self):
        r = build_asymmetric(TwoStateSet.at_overlap(0.5))
        assert r.ae == pytest.approx(np.sqrt(3) * (np.sqrt(5) - 1) / 8, abs=1e-12)

    @pytest.mark.parametrize("z", Z_GRID)
    def test_attains_both_floors(self, z):
        r = build_asymmetric(TwoStateSet.at_overlap(z))
        assert r.ae == pytest.approx(float(ae_lower_bound(z)), abs=1e-9)
        assert relative_error(r) == pytest.approx(float(re_lower_bound(z)), abs=1e-9)

    @pytest.mark.parametrize("favored", ["phi", "psi"])
    def test_favored_state_is_copied_exactly(self, favored):
        r = build_asymmetric(TwoStateSet.at_overlap(0.6), favored)
        x_fav = r.a_phi.x if favored == "phi" else r.a_psi.x
        x_other = r.a_psi.x if favored == "phi" else r.a_phi.x
        assert x_fav < 1e-12
        big, small = r.set.delta_product, r.set.delta
        assert x_other == pytest.approx(np.sin(big - small), abs=1e-12)

    def test_rejects_unknown_favored(self):
        with pytest.raises(ValueError, match="favored"):
            build_asymmetric(TwoStateSet.at_overlap(0.5), "both")


class TestWoottersZurek:
    def test_orthogonal_states_clone_exactly(self):
        r = build_wootters_zurek(TwoStateSet.at_overlap(0.0))
        assert r.ae == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("z", Z_GRID)
    def test_error_size_closed_form(self, z):
        r = build_wootters_zurek(TwoStateSet.at_overlap(z))
        assert r.a_phi.x < 1e-12
        assert r.a_psi.x == pytest.approx(
            np.sqrt(3) * z * np.sqrt(1 - z * z), abs=1e-10
        )
        assert r.a_psi.x == pytest.approx(oracles.wz_x_psi(z), abs=1e-12)

    def test_error_size_at_symmetric_point(self):
        r = build_wootters_zurek(TwoStateSet.at_overlap(1 / np.sqrt(2)))
        assert r.a_psi.x == pytest.approx(np.sqrt(3) / 2, abs=1e-12)
        assert r.dims.danc == 2     # the two-dimensional machine mode

    def test_definition_faithful_re_differs_from_quoted_form(self):
        # The machine-flag ideals are less parallel than the bare products,
        # so the definition divides by a larger sine than the quoted form.
        r = build_wootters_zurek(TwoStateSet.at_overlap(0.5))
        assert relative_error(r) == pytest.approx(
            oracles.wz_re_definition(0.5), abs=1e-12
        )
        assert relative_error(r) < closed_form_re_wz(0.5)
        assert closed_form_re_wz(0.5) == pytest.approx(
            r.ae / np.sqrt(1 - 0.5 ** 4), abs=1e-12
        )

    def test_differs_from_the_asymmetric_optimum(self):
        r = build_wootters_zurek(TwoStateSet.at_overlap(0.5))
        assert abs(relative_error(r) - float(re_lower_bound(0.5))) > 1e-3

    def test_flagless_variant_gives_a_different_error(self):
        # Without the orthogonal machine flags the two branches add
        # coherently and the error on psi is smaller; the quoted closed
        # form singles out the flagged construction.
        s = TwoStateSet.at_overlap(0.5)
        omega = gram_schmidt_residual(s.psi, s.phi)
        v_psi = s.z * tensor(s.phi, s.phi) + np.sqrt(1 - s.z ** 2) * tensor(
            omega, omega
        )
        flat = analyze_output(v_psi, s.psi, FactorDims(2, 2, 1))
        flagged = build_wootters_zurek(s).a_psi.x
        assert abs(flat.x - flagged) > 0.05


class TestClosedForms:
    def test_re_s_endpoints_and_value(self):
        assert closed_form_re_s(0.0) == pytest.approx(0.0, abs=1e-15)
        assert closed_form_re_s(0.5) == pytest.approx(oracles.SYM_RE_AT_HALF,
                                                      abs=1e-12)
        with pytest.raises(ValueError):
            closed_form_re_s(1.0)

    @pytest.mark.parametrize("z", Z_GRID)
    def test_symmetric_floor_dominates_general_floor(self, z):
        assert closed_form_re_s(z) >= float(re_lower_bound(z)) - 1e-12

    def test_re_wz_values(self):
        assert closed_form_re_wz(0.0) == 0.0
        assert closed_form_re_wz(1.0) == pytest.approx(np.sqrt(1.5), abs=1e-15)
        assert closed_form_re_wz(1 / np.sqrt(3)) == pytest.approx(
            np.sqrt(3) / 2, abs=1e-15
        )
        assert closed_form_re_wz(1 / np.sqrt(2)) == pytest.approx(1.0, abs=1e-15)
        with pytest.raises(ValueError):
            closed_form_re_wz(-0.1)


class TestRealizability:
    @pytest.mark.parametrize("z", Z_GRID)
    def test_inner_products_are_preserved(self, z):
        s = TwoStateSet.at_overlap(z)
        for build in (build_symmetric, build_asymmetric, build_wootters_zurek):
            r = build(s)
            assert abs(inner(r.a_phi.v, r.a_psi.v) - inner(s.phi, s.psi)) < 1e-10

    @pytest.mark.parametrize("z", [0.05, 0.5, 0.95])
    def test_plane_membership(self, z):
        s = TwoStateSet.at_overlap(z)
        e1, e2 = plane_frame(s)
        for build in (build_symmetric, build_asymmetric):
            r = build(s)
            for v in (r.a_phi.v, r.a_psi.v):
                outside = v - e1 * inner(e1, v) - e2 * inner(e2, v)
                assert np.linalg.norm(outside) < 1e-10

    @pytest.mark.parametrize("z", [0.1, 0.5, 0.9])
    def test_materialized_unitary_reproduces_the_outputs(self, z):
        s = TwoStateSet.at_overlap(z, dim=2)
        for build in (build_symmetric, build_asymmetric, build_wootters_zurek):
            r = build(s)
            u = check_unitary(materialize_unitary(r))
            for vec, out in zip(machine_inputs(r), (r.a_phi.v, r.a_psi.v)):
                assert np.max(np.abs(u @ vec - out)) < 1e-9

    def test_materialize_in_higher_input_dimension(self):
        rng = np.random.default_rng(4)
        phi, psi = random_state(3, rng), random_state(3, rng)
        r = build_symmetric(TwoStateSet.from_states(phi, psi))
        u = check_unitary(materialize_unitary(r))
        for vec, out in zip(machine_inputs(r), (r.a_phi.v, r.a_psi.v)):
            assert np.max(np.abs(u @ vec - out)) < 1e-9


@pytest.mark.parametrize(
    "build", [build_symmetric, build_asymmetric, build_wootters_zurek]
)
def test_identical_states_are_rejected(build):
    with pytest.raises(ValueError, match="identical states clone ideally"):
        build(TwoStateSet.at_overlap(1.0))
