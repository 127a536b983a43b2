"""Error calculus for two-state copying machines.

A copying machine acting on original x blank x machine sends each input
state s of a prescribed pair {phi, psi} to an output vector V(s) living in
the composite space of dimension d1*d2*danc. The output splits as

    V(s) = (s x s) x q(s)  +  perp(s),

where q(s) collects the amplitudes along the perfectly-copied subspace and
perp(s) is orthogonal to it. The error size of the copy is
x(s) = ||perp(s)|| = sin(angle between V(s) and the nearest ideal product
state Id(s) = s x s x k(s)), with k(s) = q(s)/||q(s)||. ||q(s)|| is that
angle's cosine, so the error angle is delta_s = atan2(x(s), ||q(s)||).

The absolute error of a machine on the pair is x(phi) + x(psi); the
relative error divides that by sin(angle(Id(phi), Id(psi))), i.e. by how
distinguishable the two ideal outputs themselves are.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .bounds import _overlap_angles, _overlap_sines
from .geometry import InequalityReport
from .statespace import (
    Projector, _dots, _projector_probs, _residuals, angle, as_state, basis_state, check_unit,
    inner, measure_prob, norm, tensor,
)

# A length this small counts as zero: ||q|| at or below it leaves the ideal
# without a direction, sin(ideal angle) below it the relative error undefined.
DEGENERATE_TOL = 1e-12


@dataclass(frozen=True)
class TwoStateSet:
    """The pair of states to be copied, with cached overlap geometry.

    ``psi`` is stored with its global phase fixed so that <phi|psi> = z
    is real and nonnegative; every quantity below depends only on moduli,
    and the canonical phase keeps constructed-cloner inner products real.
    ``delta`` = arccos z is the angle between phi and psi, and
    ``delta_product`` = arccos z^2 the angle between phi x phi and psi x psi.
    """

    phi: np.ndarray
    psi: np.ndarray
    z: float
    delta: float
    delta_product: float

    @classmethod
    def from_states(cls, phi, psi) -> "TwoStateSet":
        phi = check_unit(as_state(phi))
        psi = check_unit(as_state(psi))
        if phi.shape != psi.shape:
            raise ValueError("phi and psi must share one dimension")
        # np.angle(0) = 0, so a vanishing overlap leaves psi untouched.
        psi = psi * np.exp(-1j * np.angle(_dots(phi, psi)))
        z = float(min(abs(_dots(phi, psi)), 1.0))
        return cls(phi, psi, z, *_overlap_angles(z))

    @classmethod
    def at_overlap(cls, z: float, dim: int = 2) -> "TwoStateSet":
        """Canonical pair phi = e1, psi = z e1 + sin d e2."""
        if not 0.0 <= z <= 1.0:
            raise ValueError(f"overlap z must be in [0, 1], got {z!r}")
        if dim < 2:
            raise ValueError("need dimension >= 2")
        phi = basis_state(dim, 0)
        psi = z * basis_state(dim, 0) + _overlap_sines(z)[0] * basis_state(dim, 1)
        return cls.from_states(phi, psi)

    @property
    def dim(self) -> int:
        return self.phi.shape[0]


@dataclass(frozen=True)
class FactorDims:
    """Factor dimensions of the composite output space.

    ``danc`` = 1 means no auxiliary machine mode; copies must live in the
    same space as originals (d1 = d2).
    """

    d1: int
    d2: int
    danc: int = 1

    def __post_init__(self):
        if self.d1 != self.d2:
            raise ValueError(f"copy dimension {self.d2} must equal original {self.d1}")
        if self.d1 < 2 or self.danc < 1:
            raise ValueError("need d1 = d2 >= 2 and danc >= 1")

    @property
    def total(self) -> int:
        return self.d1 * self.d2 * self.danc


@dataclass(frozen=True)
class CloneAnalysis:
    """Decomposition of one output vector against its intended input.

    ``ideal`` and ``k`` are None when ||q|| = 0: the output is entirely
    orthogonal to the copied subspace, the error angle is pi/2, and every
    unit machine vector attains it, so no single ideal is distinguished.
    """

    v: np.ndarray
    q: np.ndarray
    x: float
    delta_s: float
    k: Optional[np.ndarray]
    ideal: Optional[np.ndarray]
    dims: FactorDims

    @property
    def degenerate(self) -> bool:
        return self.ideal is None


def analyze_output(v, s, dims: FactorDims) -> CloneAnalysis:
    """Split an output vector into its ideal-copy part and its error part.

    Parameters
    ----------
    v : array_like
        Unit output vector in the composite space, length dims.total.
    s : array_like
        The unit input state the output is judged against, length dims.d1.
    dims : FactorDims
        Factor layout of ``v``.
    """
    v = check_unit(as_state(v))
    s = check_unit(as_state(s))
    if v.shape[0] != dims.total:
        raise ValueError(f"output has dimension {v.shape[0]}, expected {dims.total}")
    if s.shape[0] != dims.d1:
        raise ValueError(f"input has dimension {s.shape[0]}, expected {dims.d1}")

    # Each machine-mode column of v, projected off s x s; perp.T is v's layout.
    ss = tensor(s, s)
    q, perp = _residuals(ss, v.reshape(dims.d1 * dims.d2, dims.danc).T)
    q_norm = norm(q)
    x = norm(perp.T)

    k = q / q_norm if q_norm > DEGENERATE_TOL else None
    ideal = None if k is None else tensor(ss, k)
    return CloneAnalysis(
        v=v,
        q=q,
        x=x,
        delta_s=float(np.arctan2(x, q_norm)),
        k=k,
        ideal=ideal,
        dims=dims,
    )


def absolute_error(a_phi: CloneAnalysis, a_psi: CloneAnalysis) -> float:
    """Total error size x(phi) + x(psi), in [0, 2]."""
    if a_phi.dims != a_psi.dims:
        raise ValueError("analyses were made over different factor layouts")
    return a_phi.x + a_psi.x


@dataclass(frozen=True)
class ClonerResult:
    """Full record of one machine applied to one two-state set.

    ``re`` and ``ideal_angle`` are None when undefined: either output is
    degenerate, or the two ideal outputs coincide and the relative error
    would divide by zero.
    """

    set: TwoStateSet
    dims: FactorDims
    a_phi: CloneAnalysis
    a_psi: CloneAnalysis
    ae: float
    re: Optional[float]
    ideal_angle: Optional[float]


def analyze_pair(set_: TwoStateSet, v_phi, v_psi, dims: FactorDims) -> ClonerResult:
    """Analyze both outputs of a machine and assemble the error record."""
    a_phi = analyze_output(v_phi, set_.phi, dims)
    a_psi = analyze_output(v_psi, set_.psi, dims)
    ae = absolute_error(a_phi, a_psi)
    if a_phi.degenerate or a_psi.degenerate:
        ideal_angle = None
        re = None
    else:
        ideal_angle = angle(a_phi.ideal, a_psi.ideal)
        sin_ideal = np.sin(ideal_angle)
        re = float(ae / sin_ideal) if sin_ideal >= DEGENERATE_TOL else None
    return ClonerResult(
        set=set_, dims=dims, a_phi=a_phi, a_psi=a_psi,
        ae=ae, re=re, ideal_angle=ideal_angle,
    )


def relative_error(r: ClonerResult) -> Optional[float]:
    """Absolute error divided by sin(angle between the ideal outputs).

    Returns None (undefined) when the ideal outputs coincide, which
    happens exactly for identical input states.

    Raises
    ------
    ValueError
        If either branch has a degenerate ideal.
    """
    if r.a_phi.degenerate or r.a_psi.degenerate:
        raise ValueError("relative error needs non-degenerate ideals on both branches")
    return r.re


def unitarity_residual(r: ClonerResult) -> float:
    """|<V(phi)|V(psi)> - <phi|psi>|; zero for outputs of a genuine unitary."""
    return abs(inner(r.a_phi.v, r.a_psi.v) - inner(r.set.phi, r.set.psi))


def _chains(delta_phi, delta_psi, out_angle, ideal_angle, d, big):
    """(lhs, rhs) of chain 1, ideal_angle <= delta_phi + delta_psi + out_angle,
    and of chain 2, big - d <= delta_phi + delta_psi; scalars or arrays."""
    errors = delta_phi + delta_psi
    return (ideal_angle, errors + out_angle), (big - d, errors)


def inequality_chain(r: ClonerResult):
    """The two angle restrictions every unitary-produced output pair obeys.

    Report 1:  angle(Id(phi), Id(psi)) <= delta(phi) + delta(psi)
                                          + angle(V(phi), V(psi)).
    Report 2:  delta(phi) + delta(psi) >= angle(phi x phi, psi x psi)
                                          - angle(phi, psi).

    Both follow from the triangle inequality; the second is the key
    constraint behind the lower bounds, and the optimal machines meet it
    with equality. Each holds within DEFAULT_SWEEP_TOL.
    """
    if r.a_phi.degenerate or r.a_psi.degenerate:
        raise ValueError("inequality chain needs non-degenerate ideals")
    chains = _chains(
        r.a_phi.delta_s, r.a_psi.delta_s, angle(r.a_phi.v, r.a_psi.v),
        r.ideal_angle, r.set.delta, r.set.delta_product)
    return tuple(InequalityReport.compare(lhs, rhs) for lhs, rhs in chains)


def lifted_prob(a: CloneAnalysis, p: Projector, mode: int) -> float:
    """Outcome probability of a single-particle projector on output mode 1 or 2."""
    if mode not in (1, 2):
        raise ValueError(f"mode must be 1 or 2, got {mode!r}")
    # The output's rows along the measured mode, each a state of that mode.
    grid = a.v.reshape(a.dims.d1, a.dims.d2, a.dims.danc)
    rows = np.moveaxis(grid, mode - 1, -1).reshape(-1, a.dims.d1)
    return min(max(float(np.sum(_projector_probs(p, rows))), 0.0), 1.0)


def measurement_deviation(a: CloneAnalysis, s, p: Projector, mode: int) -> InequalityReport:
    """Deviation of copy statistics from input statistics, bounded by x.

    Checks |P(outcome on mode | V) - P(outcome | s)| <= x, within
    DEFAULT_SWEEP_TOL, for the given single-particle projector lifted to
    output mode 1 or 2. A perfect copy makes the left side 0 for every projector.
    """
    s = check_unit(as_state(s))
    lhs = abs(lifted_prob(a, p, mode) - measure_prob(p, s))
    return InequalityReport.compare(lhs, a.x)
