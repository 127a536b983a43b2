"""The three concrete copying machines and their closed-form error curves.

For a pair with overlap z, write d = arccos(z) for the angle between the
inputs and D = arccos(z^2) for the angle between the doubled products
phi x phi and psi x psi. All three machines below are realizable by a
unitary, certified by <V(phi)|V(psi)> = <phi|psi>.

* Symmetric: both outputs lie in span{phi x phi, psi x psi}, each rotated
  by (D - d)/2 off its own ideal, splitting the unavoidable angle deficit
  evenly. Its relative error has the closed form :func:`closed_form_re_s`.
* Fully asymmetric: copies the favored state perfectly and loads the whole
  deficit D - d onto the other branch. This one attains the lower bounds
  on both the absolute and the relative error.
* Basis copier (Wootters-Zurek style): copies the orthonormal basis
  {phi, omega} perfectly, with a two-dimensional machine mode recording
  which basis vector was copied. Its error on psi is
  x(psi) = sqrt(3) z sqrt(1 - z^2).
"""

from __future__ import annotations

import numpy as np

from .bounds import _overlap_sines
from .cloning import ClonerResult, FactorDims, TwoStateSet, analyze_pair
from .statespace import (
    COLLINEAR_TOL, Projector, _dots, _residuals, basis_state, gram_schmidt_residual, norm,
    tensor,
)


def _require_distinct(set_: TwoStateSet) -> None:
    if set_.z >= 1.0 - COLLINEAR_TOL:
        raise ValueError("identical states clone ideally; relative error undefined")


def plane_frame(set_: TwoStateSet):
    """Orthonormal frame (e1, e2) of span{phi x phi, psi x psi}.

    e1 is phi x phi itself; with canonical phases psi x psi decomposes as
    z^2 e1 + sqrt(1 - z^4) e2 with real coefficients.
    """
    _require_distinct(set_)
    e1 = tensor(set_.phi, set_.phi)
    e2 = gram_schmidt_residual(tensor(set_.psi, set_.psi), e1)
    return e1, e2


def build_symmetric(set_: TwoStateSet) -> ClonerResult:
    """Optimal symmetric machine: equal error angles (D - d)/2 on both branches."""
    e1, e2 = plane_frame(set_)
    big = set_.delta_product
    theta = (big - set_.delta) / 2.0
    v_phi = np.cos(theta) * e1 + np.sin(theta) * e2
    v_psi = np.cos(big - theta) * e1 + np.sin(big - theta) * e2
    dims = FactorDims(set_.dim, set_.dim, 1)
    return analyze_pair(set_, v_phi, v_psi, dims)


def build_asymmetric(set_: TwoStateSet, favored: str = "phi") -> ClonerResult:
    """Fully asymmetric machine: the favored state is copied perfectly.

    The other output sits in the product plane at angle d from the favored
    output, rotated toward its own ideal, so its error angle is exactly
    D - d. This construction meets the lower bounds on both errors.
    """
    if favored not in ("phi", "psi"):
        raise ValueError(f"favored must be 'phi' or 'psi', got {favored!r}")
    e1, e2 = plane_frame(set_)
    big = set_.delta_product
    dims = FactorDims(set_.dim, set_.dim, 1)
    if favored == "phi":
        v_phi = e1
        v_psi = np.cos(set_.delta) * e1 + np.sin(set_.delta) * e2
    else:
        v_psi = tensor(set_.psi, set_.psi)
        v_phi = np.cos(big - set_.delta) * e1 + np.sin(big - set_.delta) * e2
    return analyze_pair(set_, v_phi, v_psi, dims)


def build_wootters_zurek(set_: TwoStateSet) -> ClonerResult:
    """Basis copier with orthogonal machine flags.

    omega is the unit residual of psi against phi, so {phi, omega} is an
    orthonormal basis of the input plane. The machine sends
    s x blank x start -> s x s x flag(s) for s in {phi, omega}, with
    flag(phi) and flag(omega) orthonormal in a 2-dimensional machine mode;
    psi = z phi + sqrt(1 - z^2) omega is copied by linearity.
    """
    _require_distinct(set_)
    omega = gram_schmidt_residual(set_.psi, set_.phi)
    f1 = basis_state(2, 0)
    f2 = basis_state(2, 1)
    v_phi = tensor(tensor(set_.phi, set_.phi), f1)
    v_psi = set_.z * v_phi + _overlap_sines(set_.z)[0] * tensor(tensor(omega, omega), f2)
    dims = FactorDims(set_.dim, set_.dim, 2)
    return analyze_pair(set_, v_phi, v_psi, dims)


def closed_form_re_s(z: float) -> float:
    """Relative error of the symmetric machine:

    sqrt(2) * [ (1 + z + z^2)/(1 + z + z^2 + z^3) - 1/sqrt(1 + z^2) ]^(1/2),
    computed as z sqrt(2/((1 + z)(1 + z + z^2 + (1 + z) s)))/s, s = sqrt(1 + z^2),
    since (1 + z + z^2)^2 - (1 + z)^2 (1 + z^2) = z^2: the difference cancels as z -> 0.
    """
    if not 0.0 <= z < 1.0:
        raise ValueError(f"overlap z must be in [0, 1), got {z!r}")
    s = np.sqrt(1.0 + z * z)
    return float(z * np.sqrt(2.0 / ((1.0 + z) * (1.0 + z + z * z + (1.0 + z) * s))) / s)


def closed_form_re_wz(z: float) -> float:
    """Relative error sqrt(3) z / sqrt(1 + z^2) quoted for the basis copier.

    This equals the basis copier's absolute error divided by
    sqrt(1 - z^4), the ideal-output sine of the machines without an
    auxiliary mode. The definition applied to the basis copier itself
    divides by the (larger) sine of the angle between its own ideal
    outputs, whose machine flags are nearly orthogonal, and so gives a
    smaller value; :func:`build_wootters_zurek` reports that one, and the
    command-line report prints both.
    """
    if not 0.0 <= z <= 1.0:
        raise ValueError(f"overlap z must be in [0, 1], got {z!r}")
    return float(np.sqrt(3.0) * z / np.sqrt(1.0 + z * z))


def materialize_unitary(r: ClonerResult) -> np.ndarray:
    """Complete a machine's two input->output assignments to a full unitary.

    Inputs are s x blank x start with blank and start the first basis
    vectors of their factors. A unitary extension exists exactly when the
    two assignments preserve the inner product, which every constructed
    machine satisfies; the remaining directions are completed arbitrarily
    but deterministically.
    """
    # Without a machine mode (danc = 1) start is [1], which tensor leaves out.
    blank, start = basis_state(r.dims.d2, 0), basis_state(r.dims.danc, 0)
    a1, a2 = (tensor(tensor(s, blank), start) for s in (r.set.phi, r.set.psi))
    b1, b2 = r.a_phi.v, r.a_psi.v

    g_in, p2 = _residuals(a1, a2)
    if abs(g_in) >= 1.0 - COLLINEAR_TOL:
        raise ValueError("inputs are collinear; extension is underdetermined")

    # The shared Gram-Schmidt coefficient g_in keeps the map exact on both vectors.
    q2 = b2 - b1 * g_in
    in_pair = [a1, p2 / norm(p2)]
    out_pair = [b1, q2 / norm(q2)]
    # Projector checks that the output pair is orthonormal, the one thing the
    # completion needs; <b1|q2> = <b1|b2> - <a1|a2>.
    try:
        p_out = Projector(out_pair)
    except ValueError:
        raise ValueError(f"no unitary maps these inputs to these outputs: <in|in> = "
                         f"{g_in:.15g} but <out|out> = {_dots(b1, b2):.15g}") from None

    # Orthonormal completions via the complements of the spanned planes.
    basis_in, basis_out = (np.concatenate([p.basis, p.complement().basis]).T
                           for p in (Projector(in_pair), p_out))
    return basis_out @ basis_in.conj().T
