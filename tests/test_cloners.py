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
from clonebound.cloning import (
    FactorDims,
    TwoStateSet,
    analyze_output,
    analyze_pair,
    relative_error,
)
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

    def test_e2_is_unit_near_overlap_one(self):
        # e2 is the residual divided by its computed norm; divided by
        # sqrt(1 - z^4) it would be 5.5e-10 off unit here.
        _, e2 = plane_frame(TwoStateSet.at_overlap(1.0 - 1e-8))
        assert abs(np.linalg.norm(e2) - 1.0) <= 1e-12

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
        assert abs(r.a_phi.delta_s - r.a_psi.delta_s) < 1e-15
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


@pytest.mark.parametrize("z", Z_GRID)
def test_error_angles_match_the_deficit(z):
    # Each error angle is atan2(x, ||q||): it keeps the digits that
    # arccos(||q||) loses, so both machines split D - d to within an ulp.
    s = TwoStateSet.at_overlap(z)
    sym, asym = build_symmetric(s), build_asymmetric(s)
    errors = [sym.a_phi.delta_s, sym.a_psi.delta_s, asym.a_phi.delta_s,
              asym.a_psi.delta_s]
    expected = [oracles.deficit(z) / 2] * 2 + [0.0, oracles.deficit(z)]
    assert np.max(np.abs(np.subtract(errors, expected))) <= 5e-16


#: (x_phi, x_psi, ae, re) of each machine at overlap z, from the oracles.
MACHINE_ORACLES = {
    build_symmetric: lambda z: (oracles.sym_ae(z) / 2, oracles.sym_ae(z) / 2,
                                oracles.sym_ae(z), oracles.sym_re(z)),
    build_asymmetric: lambda z: (0.0, oracles.ae_bound(z), oracles.ae_bound(z),
                                 oracles.f_bound(z)),
    build_wootters_zurek: lambda z: (0.0, oracles.wz_x_psi(z), oracles.wz_x_psi(z),
                                     oracles.wz_re_definition(z)),
}


@pytest.mark.parametrize("build", list(MACHINE_ORACLES), ids=lambda b: b.__name__)
def test_machines_keep_full_relative_precision_near_one(build):
    # Up to z = 1 - 10^-11, the last overlap COLLINEAR_TOL admits, and on a
    # grid over [0.5, 0.99]. Below z = 0.5 the deficit D - d is a difference
    # of two angles near pi/2 and keeps its digits only absolutely. Each x is
    # the norm of a residual of unit vectors: measured within 2.7e-15 (sym's
    # x_psi at z = 0.9), where the textbook forms are 9.4e-10 off.
    zs = [z for z in oracles.NEAR_ONE if z < 1.0 - 1e-12] + oracles.GRID[49:]
    for z in zs:
        r = build(TwoStateSet.at_overlap(z))
        for got, ref in zip((r.a_phi.x, r.a_psi.x, r.ae, r.re), MACHINE_ORACLES[build](z)):
            assert oracles.rel_err(got, ref) <= 4e-15, z


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

    def test_re_s_keeps_full_relative_precision(self):
        # Its published form is a difference that cancels as z -> 0.
        for z in oracles.NEAR_ONE + oracles.NEAR_ZERO + oracles.GRID:
            assert oracles.rel_err(closed_form_re_s(z), oracles.sym_re(z)) <= 1e-15, z

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

    @pytest.mark.parametrize("tilt, realizable", [
        (8.66e-13, True), (4.4e-12, False), (4.4e-11, False)])
    def test_materialize_takes_one_overlap_tolerance(self, tilt, realizable):
        # Tilting V(psi) toward V(phi) by `tilt` misses the input overlap by
        # tilt * sin(60 deg): 7.5e-13, 3.8e-12 and 3.8e-11. The completion
        # needs an orthonormal output pair within ATOL_ALG = 1e-12.
        r = build_symmetric(TwoStateSet.at_overlap(0.5))
        v_phi, v_psi = r.a_phi.v, r.a_psi.v
        w = gram_schmidt_residual(v_phi, v_psi)
        tilted = analyze_pair(r.set, v_phi, np.cos(tilt) * v_psi + np.sin(tilt) * w,
                              r.dims)
        gap = abs(inner(v_phi, tilted.a_psi.v) - 0.5)
        assert gap == pytest.approx(tilt * np.sqrt(3) / 2, rel=1e-3)
        if realizable:
            check_unitary(materialize_unitary(tilted))
        else:
            with pytest.raises(ValueError, match="no unitary maps"):
                materialize_unitary(tilted)

    @pytest.mark.parametrize("z", [1.0, 1.0 - 5e-13])
    def test_materialize_rejects_collinear_inputs(self, z):
        # The overlap modulus rule of gram_schmidt_residual: at or above
        # 1 - COLLINEAR_TOL the inputs span no plane to complete.
        s = TwoStateSet.at_overlap(z)
        v_phi, v_psi = (tensor(x, x) for x in (s.phi, s.psi))
        r = analyze_pair(s, v_phi, v_psi, FactorDims(2, 2))
        with pytest.raises(ValueError, match="inputs are collinear"):
            materialize_unitary(r)

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
