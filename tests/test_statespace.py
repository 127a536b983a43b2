import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from clonebound.cloners import build_asymmetric, build_symmetric, build_wootters_zurek
from clonebound.cloning import TwoStateSet, unitarity_residual
from clonebound.search import SUBSPACE_DIM, _pair_errors
from clonebound.statespace import (
    Projector,
    _angles,
    _complex_normal,
    _dots,
    _norms,
    _residuals,
    angle,
    apply_projector,
    as_state,
    basis_state,
    check_unitary,
    gram_schmidt_residual,
    inner,
    measure_prob,
    norm,
    normalize,
    phase_fixed_q,
    random_projector,
    random_state,
    random_states,
    random_unitary,
    tensor,
)

seeds = st.integers(min_value=0, max_value=2 ** 32 - 1)
dims = st.sampled_from([2, 3, 4, 5, 8])


def test_inner_basis_cases():
    e1, e2 = basis_state(3, 0), basis_state(3, 1)
    assert inner(e1, e1) == 1
    assert inner(e1, e2) == 0
    assert inner([1, 0], [1 / np.sqrt(2), 1j / np.sqrt(2)]) == pytest.approx(
        1 / np.sqrt(2)
    )


def test_inner_is_conjugate_linear_in_first_argument():
    a = normalize([1j, 1])
    b = normalize([1, 1])
    assert inner(a, b) == pytest.approx(np.conj(inner(b, a)))


def test_inner_rejects_dimension_mismatch():
    with pytest.raises(ValueError, match="dimension mismatch"):
        inner([1, 0], [1, 0, 0])


def test_angle_examples():
    assert angle(basis_state(2, 0), basis_state(2, 1)) == pytest.approx(np.pi / 2)
    assert angle([1, 0], [0.5, np.sqrt(3) / 2]) == pytest.approx(np.pi / 3)


@given(seeds, dims, st.floats(0, 2 * np.pi))
@settings(max_examples=50, deadline=None)
@example(seed=34171048, dim=2, theta=2.0)   # overlap 0.9999988
def test_angle_global_phase_invariance(seed, dim, theta):
    rng = np.random.default_rng(seed)
    v = random_state(dim, rng)
    w = random_state(dim, rng)
    assert angle(v, np.exp(1j * theta) * v) == pytest.approx(0.0, abs=1e-7)
    assert abs(angle(v, np.exp(1j * theta) * w) - angle(v, w)) < 1e-14


@given(seeds, dims)
@settings(max_examples=50, deadline=None)
def test_angle_symmetric_and_in_range(seed, dim):
    rng = np.random.default_rng(seed)
    v, w = random_state(dim, rng), random_state(dim, rng)
    assert angle(v, w) == angle(w, v)
    assert 0.0 <= angle(v, w) <= np.pi / 2


@pytest.mark.parametrize("dim", [2, 3, 8])
def test_angle_keeps_its_digits_near_overlap_one(dim):
    # arccos(|<a|b>|) is off by up to ~1e-8 at these angles; the reference
    # is the exact angle between the stored vectors, normalized in mpmath.
    rng = np.random.default_rng(dim)
    for t in [0.1, 1e-3, 1e-5, 1e-7, 1e-9, 1e-11, 0.0]:
        a, x = random_state(dim, rng), random_state(dim, rng)
        x = normalize(x - a * np.vdot(a, x))
        b = (np.cos(t) * a + np.sin(t) * x) * np.exp(1j * rng.uniform(0, 2 * np.pi))
        with mp.workdps(40):
            va, vb = ([mp.mpc(complex(c)) for c in v] for v in (a, b))
            ov = abs(mp.fsum(mp.conj(p) * q for p, q in zip(va, vb)))
            na, nb = (mp.sqrt(mp.fsum(abs(c) ** 2 for c in v)) for v in (va, vb))
            assert abs(angle(a, b) - mp.acos(ov / (na * nb))) < 1e-15, t


@pytest.mark.parametrize("dim", [2, 3, 8])
def test_stacked_angles_are_angle_row_by_row(dim):
    # Every angle in the package comes from the one stacked kernel; on each
    # row it gives angle()'s bits, also for identical and orthogonal rows.
    rng = np.random.default_rng(dim)
    a, b = random_states(300, dim, rng), random_states(300, dim, rng)
    b[:100] = a[:100] * np.exp(0.3j)
    b[100:200] = a[100:200] + 1e-7 * b[100:200]
    b[100:200] /= np.linalg.norm(b[100:200], axis=1, keepdims=True)
    a[-1], b[-1] = basis_state(dim, 0), basis_state(dim, 1)
    assert np.array_equal(_angles(a, b), [angle(x, y) for x, y in zip(a, b)])
    assert np.array_equal(_angles(a[:, None], b[None, :2])[:, 1],
                          [angle(x, b[1]) for x in a])


def test_angle_at_a_subnormal_overlap_is_a_right_angle():
    # Dividing <a|b> by a subnormal |<a|b>| overflows; such rows are
    # orthogonal to double precision.
    for ov in [1e-320, 5e-324j, -2e-310 + 1e-315j]:
        assert angle([1, 0], [ov, 1]) == np.pi / 2
        assert angle([ov, 1], [1, 0]) == np.pi / 2
    tiny = np.finfo(float).tiny
    assert angle([1, 0], [tiny, np.sqrt(1 - tiny**2)]) == np.pi / 2


def test_angle_rejects_non_unit_input():
    with pytest.raises(ValueError, match="unit vector"):
        angle([1, 1], [1, 0])


def test_angle_rejects_nan_input():
    with pytest.raises(ValueError, match="unit vector"):
        angle([np.nan, 0], [1, 0])


@pytest.mark.parametrize("values", [[np.nan, 0], [1, np.inf], [0, -np.inf],
                                    [1, complex(0, np.nan)]])
def test_as_state_rejects_non_finite_amplitudes(values):
    with pytest.raises(ValueError, match="non-finite amplitude"):
        as_state(values)
    assert np.array_equal(as_state([1, 0.5j]), np.array([1, 0.5j]))


def test_tensor_basis_and_index_convention():
    a, b = basis_state(2, 1), basis_state(3, 2)
    out = tensor(a, b)
    assert out[1 * 3 + 2] == 1
    assert np.count_nonzero(out) == 1


@given(seeds, dims)
@settings(max_examples=50, deadline=None)
def test_tensor_norm_and_overlap_factorization(seed, dim):
    rng = np.random.default_rng(seed)
    a, b = random_state(dim, rng), random_state(dim, rng)
    assert np.linalg.norm(tensor(a, b)) == pytest.approx(1.0, abs=1e-12)
    lhs = abs(inner(tensor(a, a), tensor(b, b)))
    assert lhs == pytest.approx(abs(inner(a, b)) ** 2, abs=1e-12)


@given(seeds, dims)
@settings(max_examples=50, deadline=None)
def test_tensor_overlap_angle_identity(seed, dim):
    rng = np.random.default_rng(seed)
    a, b = random_state(dim, rng), random_state(dim, rng)
    expected = np.arccos(np.cos(angle(a, b)) ** 2)
    assert angle(tensor(a, a), tensor(b, b)) == pytest.approx(expected, abs=1e-12)


def test_gram_schmidt_residual_known_cases():
    e1, e2 = basis_state(2, 0), basis_state(2, 1)
    assert np.allclose(gram_schmidt_residual(e2, e1), e2)
    diag = normalize([1, 1])
    assert np.allclose(gram_schmidt_residual(diag, e1), e2, atol=1e-15)


@given(seeds, dims)
@settings(max_examples=100, deadline=None)
def test_gram_schmidt_residual_properties(seed, dim):
    rng = np.random.default_rng(seed)
    target, anchor = random_state(dim, rng), random_state(dim, rng)
    res = gram_schmidt_residual(target, anchor)
    assert abs(inner(anchor, res)) < 1e-12
    assert np.linalg.norm(res) == pytest.approx(1.0, abs=1e-12)
    # stays inside span{target, anchor}
    q = np.linalg.qr(np.stack([anchor, target]).T)[0]
    inside = q @ (q.conj().T @ res)
    assert np.linalg.norm(res - inside) < 1e-12


@pytest.mark.parametrize("gap", [1e-6, 1e-8, 1e-10])
def test_gram_schmidt_residual_is_unit_near_overlap_one(gap):
    # The residual is divided by its computed norm. Divided by
    # sqrt(1 - |<a|t>|^2) instead, it would be up to 1.1e-10 off unit here at
    # gap 1e-6 and 1.1e-6 off at gap 1e-10. Orthogonality is not checked this
    # tightly: one Gram-Schmidt pass leaves about 1e-16/|residual| of it.
    rng = np.random.default_rng(5)
    for _ in range(20):
        anchor = random_state(5, rng)
        w = gram_schmidt_residual(random_state(5, rng), anchor)
        c = (1.0 - gap) * np.exp(2j * np.pi * rng.uniform())
        target = normalize(c * anchor + np.sqrt(1.0 - abs(c) ** 2) * w)
        assert abs(np.linalg.norm(gram_schmidt_residual(target, anchor)) - 1.0) <= 1e-12


def test_gram_schmidt_residual_rejects_collinear():
    v = normalize([1, 1j])
    with pytest.raises(ValueError, match="collinear"):
        gram_schmidt_residual(v, np.exp(0.3j) * v)


def test_projector_requires_orthonormal_basis():
    with pytest.raises(ValueError, match="orthonormal"):
        Projector(np.array([[1.0, 1.0]]) / 1.0)


def test_projector_takes_atol_alg_on_the_diagonal_too():
    # A row 1e-8 off unit norm is rejected; np.allclose's default rtol of
    # 1e-5 would let the Gram diagonal pass.
    with pytest.raises(ValueError, match="orthonormal"):
        Projector([[1.0 + 1e-8, 0.0]])
    Projector([[1.0, 1e-13], [0.0, 1.0]])


def test_projector_fixed_point_and_kill():
    p = Projector(basis_state(2, 0)[None, :])
    assert np.allclose(apply_projector(p, basis_state(2, 0)), basis_state(2, 0))
    assert np.allclose(apply_projector(p, basis_state(2, 1)), 0.0)


@given(seeds, dims)
@settings(max_examples=50, deadline=None)
def test_projector_idempotent(seed, dim):
    rng = np.random.default_rng(seed)
    rank = int(rng.integers(1, dim))
    p = random_projector(dim, rank, rng)
    v = random_state(dim, rng)
    once = apply_projector(p, v)
    twice = apply_projector(p, once)
    assert np.max(np.abs(twice - once)) < 1e-12
    assert np.linalg.norm(once) <= 1.0 + 1e-12


def test_measure_prob_examples():
    p = Projector(basis_state(2, 0)[None, :])
    assert measure_prob(p, basis_state(2, 0)) == pytest.approx(1.0)
    assert measure_prob(p, basis_state(2, 1)) == pytest.approx(0.0)
    assert measure_prob(p, [0.5, np.sqrt(3) / 2]) == pytest.approx(0.25, abs=1e-12)


@pytest.mark.parametrize("seed", range(5))
def test_measure_prob_matches_the_projected_vector_form(seed):
    # measure_prob evaluates the sweeps' kernel; the form it replaced,
    # ||P s||^2 as the squared norm of the projected vector, agrees.
    rng = np.random.default_rng(seed)
    for dim in range(2, 9):
        for rank in range(1, dim + 1):
            p, s = random_projector(dim, rank, rng), random_state(dim, rng)
            projected = apply_projector(p, s)
            old = min(max(float(np.real(np.vdot(projected, projected))), 0.0), 1.0)
            assert abs(measure_prob(p, s) - old) <= 1e-15


def test_measure_prob_rejects_a_dimension_mismatch():
    with pytest.raises(ValueError, match="dimension mismatch: 3 vs 2"):
        measure_prob(Projector(basis_state(2, 0)[None, :]), basis_state(3, 0))


@pytest.mark.host_bits
@pytest.mark.parametrize("shape", [
    7, (5, 3), (4, 3, 3), (6, 4, 2), (0, 3),
    (515, 3, 3), (3 * 4096, 2), 16389, 32768, (4096, 8, 8),
])
def test_complex_normal_is_the_sum_form_bit_for_bit(shape):
    # The 1-D, (n, d), (n, d, d) and (k, d, r) draws of the package, small
    # and large: real parts first, then imaginary parts, and the generator
    # left where the sum form leaves it.
    old, new = np.random.default_rng(42), np.random.default_rng(42)
    want = old.standard_normal(shape) + 1j * old.standard_normal(shape)
    got = _complex_normal(new, shape)
    assert got.dtype == np.complex128 and got.shape == want.shape
    assert np.array_equal(got.view(np.float64), want.view(np.float64))
    assert new.random() == old.random()


@given(seeds, dims)
@settings(max_examples=50, deadline=None)
def test_projector_completeness(seed, dim):
    rng = np.random.default_rng(seed)
    rank = int(rng.integers(1, dim))
    p = random_projector(dim, rank, rng)
    s = random_state(dim, rng)
    total = measure_prob(p, s) + measure_prob(p.complement(), s)
    assert total == pytest.approx(1.0, abs=1e-12)


def test_check_unitary():
    rng = np.random.default_rng(11)
    u = random_unitary(5, rng)
    check_unitary(u)
    with pytest.raises(ValueError, match="not unitary"):
        check_unitary(1.001 * u)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_check_unitary_rejects_non_finite_entries(bad):
    u = random_unitary(3, np.random.default_rng(11))
    for m in (np.full((3, 3), bad), np.where(np.eye(3) == 1, bad, u)):
        with pytest.raises(ValueError, match="not unitary"), np.errstate(invalid="ignore"):
            check_unitary(m)


finite = st.floats(allow_nan=False, allow_infinity=False, allow_subnormal=True,
                   min_value=-1e200, max_value=1e200)
edge = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2e-308, 1e200, -1e200])
parts = st.one_of(finite, edge)


# fill=st.nothing() draws every element; a fill value would repeat one.
@given(st.one_of(
    hnp.arrays(np.float64, st.integers(0, 16), elements=parts, fill=st.nothing()),
    hnp.arrays(np.complex128, st.integers(0, 16),
               elements=st.builds(complex, parts, parts), fill=st.nothing())))
@example(np.random.default_rng(3).standard_normal(16))  # v[::2] sums differently
@settings(max_examples=300, deadline=None)
def test_norm_is_the_kernels_and_near_mpmath(v):
    # The search objective's bit identity and every check_unit rest on this:
    # norm is _norms of the row, strided views included. It is inf where a
    # square overflows. Where every part lies in [2^-500, 2^500] or is 0, no
    # square overflows and none that underflows can matter, so the norm is
    # within (n + 1) eps of the exact one, whatever order the squares add in.
    for x in (v, v[::-1], v[::2]):
        got = norm(x)
        assert np.array_equal(got, _norms(x))
        parts = np.abs(np.concatenate([x.real, x.imag]))
        with np.errstate(over="ignore"):
            overflows = np.isinf(np.square(parts)).any()
        if overflows:
            assert got == np.inf
        elif parts.size and 2.0 ** -500 <= parts.max() <= 2.0 ** 500:
            with mp.workdps(40):
                exact = mp.sqrt(mp.fsum(mp.mpf(float(p)) ** 2 for p in parts))
                assert abs(got - exact) <= (x.size + 1) * np.finfo(float).eps * exact


@pytest.mark.host_bits
@pytest.mark.parametrize("dim", range(2, 9))
def test_reductions_give_a_row_the_same_bits_in_any_stack(dim):
    rng = np.random.default_rng(dim)
    a, b = random_states(4096, dim, rng), random_states(4096, dim, rng)
    for kernel, args in ((_dots, (a, b)), (_norms, (a + b,)), (_angles, (a, b)),
                         (_joined_residuals, (a, b))):
        whole = kernel(*args)
        alone = [kernel(*(x[i:i + 1] for x in args)) for i in range(len(a))]
        np.testing.assert_array_equal(whole, np.concatenate(alone))
        np.testing.assert_array_equal(whole[:100], [kernel(*(x[i] for x in args))
                                                    for i in range(100)])


def _joined_residuals(anchor, target):
    """Both results of ``_residuals`` in one array, the overlap first."""
    ov, r = _residuals(anchor, target)
    return np.concatenate([ov[..., None], r], axis=-1)


def _cloner_numbers():
    """Every number that ``cloner sym|asym|wz --states`` prints for a seeded
    5-dim pair, the closed forms of z apart: 5 [re, im] normals per state
    from ``default_rng(5)``, each state normalized as the state file loader
    does."""
    pairs = np.random.default_rng(5).standard_normal((2, 5, 2))
    phi, psi = pairs[..., 0] + 1j * pairs[..., 1]
    set_ = TwoStateSet.from_states(phi / norm(phi), psi / norm(psi))
    return [set_.phi, set_.psi, np.array([set_.z, set_.delta, set_.delta_product]),
            *(np.array([r.a_phi.x, r.a_phi.delta_s, r.a_psi.x, r.a_psi.delta_s,
                        r.ae, r.re, unitarity_residual(r)])
              for r in (build_symmetric(set_), build_asymmetric(set_),
                        build_wootters_zurek(set_)))]


def _kernel_digests(names):
    """sha256 of each named kernel's results on seeded rows that
    ``random_states`` draws, in dimensions 2-8; ``_pair_errors`` takes those
    of the search's dimension at z = 0.1, 0.5 and 0.9, and ``"cloners"`` is
    the three machines' reports on a seeded 5-dim pair."""
    rng = np.random.default_rng(2026)
    rows = [(random_states(4096, d, rng), random_states(4096, d, rng)) for d in range(2, 9)]
    results = {
        "random_states": lambda: [x for pair in rows for x in pair],
        "_dots": lambda: [_dots(a, b) for a, b in rows],
        "_norms": lambda: [_norms(a + b) for a, b in rows],
        "_angles": lambda: [_angles(a, b) for a, b in rows],
        "_residuals": lambda: [x for a, b in rows for x in _residuals(a, b)],
        "_pair_errors": lambda: [np.stack(_pair_errors(*rows[SUBSPACE_DIM - 2], z))
                                 for z in (0.1, 0.5, 0.9)],
        "cloners": _cloner_numbers,
    }
    return {name: hashlib.sha256(b"".join(x.tobytes() for x in results[name]())).hexdigest()
            for name in names}


@pytest.mark.host_bits
@pytest.mark.parametrize("env, names", [
    ({"OPENBLAS_CORETYPE": "Haswell"},
     ["_dots", "_norms", "_angles", "_residuals", "random_states", "_pair_errors",
      "cloners"]),
    ({"NPY_DISABLE_CPU_FEATURES": "AVX512_SPR AVX512_ICL X86_V4 X86_V3"},
     ["_dots", "_norms", "random_states"]),
], ids=["openblas-haswell", "numpy-baseline-simd"])
def test_reductions_give_the_same_bits_on_an_imitated_host(env, names):
    # Another OpenBLAS kernel, or numpy limited to its baseline SIMD target,
    # changes no bit of a reduction. _angles' arctan2 and complex multiply,
    # _residuals' complex multiply and _pair_errors' abs still follow numpy's
    # SIMD target. So do the seeded 5-dim cloner reports: baseline-only numpy
    # moves their bytes, so only the OpenBLAS kernel is varied under them.
    env = {**os.environ, **env}
    env["PYTHONPATH"] = os.pathsep.join([str(Path(__file__).parent), env["PYTHONPATH"]])
    proc = subprocess.run(
        [sys.executable, "-c", "import json, sys, test_statespace as t; "
                               "print(json.dumps(t._kernel_digests(sys.argv[1:])))", *names],
        env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == _kernel_digests(names)


@pytest.mark.host_bits
def test_stacks_give_each_matrix_its_own_result():
    # Every matrix of a stack comes out as it does alone, bit for bit, and
    # the input is left as it was.
    rng = np.random.default_rng(12)
    g = rng.standard_normal((263, 3, 3)) + 1j * rng.standard_normal((263, 3, 3))
    kept = g.copy()
    q = phase_fixed_q(g)
    assert not np.shares_memory(q, g)
    assert np.array_equal(g.view(np.float64), kept.view(np.float64))
    np.testing.assert_array_equal(q, np.stack([phase_fixed_q(m) for m in g]))
    d = np.einsum("...ii->...i", np.swapaxes(q.conj(), -1, -2) @ g)
    assert np.all(d.real > 0) and np.allclose(d.imag, 0, atol=1e-12)


def test_basis_state_bounds():
    with pytest.raises(ValueError):
        basis_state(2, 2)
