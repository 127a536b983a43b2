"""Numerical tightness checks for the error lower bounds.

A pair of candidate outputs (V_phi, V_psi) is realizable by some unitary
machine exactly when <V_phi|V_psi> equals the input overlap z. This module
parameterizes realizable pairs directly,

    V_psi = z V_phi + sqrt(1 - z^2) W,   W a unit vector orthogonal
                                         to V_phi,

so every candidate the optimizer or the random sweep ever evaluates is
realizable by construction. Everything runs in the coordinates of one
orthonormal frame of the two-qubit output space: e1 = phi x phi, e2 the
unit residual of psi x psi against it, and two directions orthogonal to
the product plane. The optimum lies inside the plane, and the other two
directions exist to confirm that leaving it never helps. No error depends
on which two they are, so the frame is never built.

Three entry points:

* :func:`minimize_objective` runs L-BFGS-B with an analytic gradient from
  seeded random starts (plus a warm start at the fully asymmetric machine)
  and checks the bounds are floors that the asymmetric construction
  attains. It minimizes AE: on these machines RE = AE / sin D with
  sin D = sqrt(1 - z^4) fixed by z, so both floors share one minimizer.
  V_phi is written in angle coordinates, V_phi = (cos theta,
  sin theta a/|a|) with theta in [0, pi/2], so x_phi = sin theta is smooth
  and the optimum is the box face theta = 0 (Byrd, Lu, Nocedal & Zhu,
  SIAM J. Sci. Comput. 16 (1995) 1190).
* :func:`minimize_symmetric_re` minimizes x_phi^2 + x_psi^2. Chain 2 gives
  delta_phi + delta_psi >= D - d, and sin^2 a + sin^2 b = 1 - cos(a+b) cos(a-b),
  so its only minimizer is delta_phi = delta_psi = (D - d)/2, the symmetric machine.
* :func:`random_cloner_sweep` samples realizable pairs uniformly and
  checks the floors and the two chain inequalities on every sample.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import NamedTuple

import numpy as np
from scipy.optimize import minimize

from .bounds import ae_lower_bound, re_lower_bound
from .cloners import closed_form_re_s
from .cloning import DEGENERATE_TOL
from .geometry import _batch_angle, sweep_blocks

FLOOR_TOL = 1e-9
CHAIN_TOL = 1e-10
# L-BFGS-B stopping rules per start: relative decrease of the objective,
# and largest projected-gradient component.
OBJECTIVE_TOL = 1e-15
GRADIENT_TOL = 1e-10
# Complex dimension of the search subspace: the whole product space of a
# qubit pair, i.e. the product plane plus two orthogonal directions.
SUBSPACE_DIM = 4
# Real parameters of one realizable pair: theta, a in C^3, b in C^4.
N_PARAMS = 4 * SUBSPACE_DIM - 1
# Weight of the objective's gauge term on the norms of a and b.
GAUGE_WEIGHT = 0.25


@dataclass(frozen=True)
class SearchConfig:
    """Reproducible settings for one search or sweep."""

    z: float
    restarts: int = 20
    seed: int = 0

    def __post_init__(self):
        if not 0.0 <= self.z < 1.0:
            raise ValueError(f"overlap z must be in [0, 1), got {self.z!r}")
        if self.restarts < 1:
            raise ValueError("need at least one restart")


@dataclass(frozen=True)
class SearchOutcome:
    """Best objective values found, against the analytic floors."""

    best_ae: float
    best_re: float
    bound_ae: float
    bound_re: float
    best_params: np.ndarray
    trials: int


def _norm(x: np.ndarray):
    """``np.linalg.norm`` of a complex vector, by its own arithmetic."""
    return np.sqrt(x.real.dot(x.real) + x.imag.dot(x.imag))


class _Coords(NamedTuple):
    """A decoded parameter vector, with the intermediates its gradient needs."""

    theta: float
    a_hat: np.ndarray       # unit direction of V[1:]
    a_norm: float
    b: np.ndarray
    alpha: complex          # <V|b>
    p_norm: float           # |P b|, P = I - |V><V|
    v: np.ndarray           # V_phi
    w: np.ndarray           # P b / |P b|
    v_psi: np.ndarray


def _coords_from_params(params, z: float) -> _Coords:
    """Decode [theta, a, b] into a realizable pair; a and b are stored as
    interleaved real and imaginary parts.

    V_phi = (cos theta, sin theta a/|a|), so the phase gauge V_phi[0] >= 0
    is built in and x_phi = sin theta is smooth; W = P b/|P b| is the unit
    part of b orthogonal to V_phi, and V_psi = z V_phi + sqrt(1 - z^2) W.
    """
    params = np.ascontiguousarray(params, dtype=float)
    if params.shape != (N_PARAMS,):
        raise ValueError(f"expected {N_PARAMS} parameters, got shape {params.shape}")
    theta = float(params[0])
    if not np.isfinite(theta):
        raise ValueError("degenerate parameters: theta is not finite")
    a = params[1:2 * SUBSPACE_DIM - 1].view(np.complex128)
    a_norm = float(_norm(a))
    # A norm that is zero, NaN or overflows leaves no direction to follow.
    if not 0.0 < a_norm < np.inf:
        raise ValueError("degenerate parameters: the direction a has no finite, "
                         "nonzero norm")
    a_hat = a / a_norm
    v = np.empty(SUBSPACE_DIM, dtype=np.complex128)
    v[0] = np.cos(theta)
    v[1:] = np.sin(theta) * a_hat
    b = params[2 * SUBSPACE_DIM - 1:].view(np.complex128)
    alpha = np.vdot(v, b)
    p = b - v * alpha
    p_norm = float(_norm(p))
    if not DEGENERATE_TOL <= p_norm < np.inf:
        raise ValueError("degenerate parameters: zero orthogonal component")
    w = p / p_norm
    v_psi = z * v + np.sqrt(1.0 - z * z) * w
    return _Coords(theta, a_hat, a_norm, b, alpha, p_norm, v, w, v_psi)


def encode_params(v_target: np.ndarray, w_target: np.ndarray) -> np.ndarray:
    """Parameters of the pair (V_phi, W) = (v_target, w_target).

    ``v_target`` and ``w_target`` must be orthonormal. Both are first
    multiplied by the phase that makes v_target[0] real and >= 0, the
    gauge the parameterization fixes; a common phase changes no error.
    """
    phase = v_target[0] / abs(v_target[0]) if v_target[0] != 0 else 1.0
    v, w = v_target / phase, w_target / phase
    tail = _norm(v[1:])
    # At theta = 0 the direction a is arbitrary; take the first axis.
    a = v[1:] / tail if tail > 0 else np.eye(v.shape[0] - 1, 1)[:, 0]
    return np.concatenate([[np.arctan2(tail, v[0].real)],
                           np.concatenate([a, w]).view(np.float64)])


def warm_start_params(theta: float) -> np.ndarray:
    """Parameters of the in-plane pair at plane angle ``theta``: V_phi =
    cos theta e1 + sin theta e2 and W its in-plane normal, which puts V_psi
    at plane angle theta + d. Angle 0 is the fully asymmetric machine and
    (D - d)/2 the symmetric one."""
    v, w = np.zeros((2, SUBSPACE_DIM), dtype=np.complex128)
    v[0], v[1] = np.cos(theta), np.sin(theta)
    w[0], w[1] = -np.sin(theta), np.cos(theta)
    return encode_params(v, w)


def _psi_axis(z: float) -> np.ndarray:
    """Coordinates of psi x psi in the frame: z^2 e1 + sqrt(1 - z^4) e2."""
    u = np.zeros(SUBSPACE_DIM)
    u[0] = z * z
    u[1] = np.sqrt(1.0 - z ** 4)
    return u


def _pair_errors(v: np.ndarray, v_psi: np.ndarray, z: float):
    """(x_phi, x_psi) for one coordinate pair.

    Error sizes are residual norms, not sqrt(1 - |q|^2): the latter loses
    eight digits next to |q| = 1, which is exactly where the optimizer
    converges, and would let it dip below the analytic floor by ~1e-8.
    """
    u = _psi_axis(z)
    return float(_norm(v[1:])), float(_norm(v_psi - u * np.vdot(u, v_psi)))


def _objective_factory(objective: str, z: float):
    """``fun(params) -> (value, gradient)`` of AE or, for ``"sym"``,
    x_phi^2 + x_psi^2, with the gradient by reverse-mode differentiation
    through :func:`_coords_from_params`.

    The value adds the gauge term GAUGE_WEIGHT ((|a|^2 - 1)^2 + (|b|^2 - 1)^2),
    which is zero on unit a and b. Without it the value is blind to the
    norms of a and b, every step lengthens them, and the gradient, which
    falls as 1/|b|, drops below tolerance long before the floor. Complex
    cotangents follow d value = Re(<cotangent|d vector>). A point the
    parameterization rejects and one whose value overflows have the value
    ``inf``.
    """
    s = np.sqrt(1.0 - z * z)
    u = _psi_axis(z)
    rejected = (np.inf, np.zeros(N_PARAMS))

    def value_and_gradient(params):
        c = _coords_from_params(params, z)
        sin_t, cos_t = np.sin(c.theta), np.cos(c.theta)
        q = u @ c.v_psi
        r = c.v_psi - u * q
        x_psi = _norm(r)
        if objective == "sym":
            value = sin_t * sin_t + x_psi * x_psi
            g_theta, g_psi = 2 * sin_t * cos_t, 2 * r
        else:
            value = abs(sin_t) + x_psi
            # d|sin t|/dt = sign(sin t) cos t; copysign(cos_t, sin_t) would
            # drop the sign of cos t, which is negative off [0, pi/2].
            g_theta = np.copysign(1.0, sin_t) * cos_t
            g_psi = r / x_psi if x_psi > 0 else np.zeros(SUBSPACE_DIM, dtype=np.complex128)
        # V_psi = z V + s W, W = p/|p|, p = b - V <V|b>.
        g_w = s * g_psi
        g_p = (g_w - c.w * np.vdot(c.w, g_w).real) / c.p_norm
        g_b = g_p - c.v * np.vdot(c.v, g_p)
        g_v = z * g_psi - np.conj(c.alpha) * g_p - np.vdot(g_p, c.v) * c.b
        # V = (cos theta, sin theta a_hat), a_hat = a/|a|.
        g_theta += -sin_t * g_v[0].real + cos_t * np.vdot(c.a_hat, g_v[1:]).real
        g_ahat = sin_t * g_v[1:]
        g_a = (g_ahat - c.a_hat * np.vdot(c.a_hat, g_ahat).real) / c.a_norm
        ga, gb = c.a_norm ** 2 - 1.0, _norm(c.b) ** 2 - 1.0
        value += GAUGE_WEIGHT * (ga * ga + gb * gb)
        g_a = g_a + 4 * GAUGE_WEIGHT * ga * c.a_norm * c.a_hat
        g_b = g_b + 4 * GAUGE_WEIGHT * gb * c.b
        return float(value), np.concatenate(
            [[g_theta], np.concatenate([g_a, g_b]).view(np.float64)])

    def fun(params):
        # Huge or non-finite parameters overflow on the way to a rejection.
        with np.errstate(over="ignore", invalid="ignore"):
            try:
                value, gradient = value_and_gradient(params)
            except ValueError:
                return rejected
        return (value, gradient) if np.isfinite(value) else rejected

    return fun


def _run_minimize(fun, starts, theta_box):
    """L-BFGS-B from each start in turn: (best value, best point, evaluations).

    ``theta_box`` is the (low, high) bound on theta; a and b are free.
    """
    best_f, best_x, evals = np.inf, None, 0
    for x0 in starts:
        bounds = [theta_box] + [(None, None)] * (len(x0) - 1)
        res = minimize(fun, x0, method="L-BFGS-B", jac=True, bounds=bounds,
                       options={"ftol": OBJECTIVE_TOL, "gtol": GRADIENT_TOL})
        evals += res.nfev
        if res.fun < best_f:
            best_f, best_x = res.fun, res.x
    return best_f, best_x, evals


def _angles(z: float):
    """(d, D) = (arccos z, arccos z^2), as :class:`TwoStateSet` computes them."""
    return float(np.arccos(z)), float(np.arccos(min(z * z, 1.0)))


def _cold_starts(cfg: SearchConfig) -> list[np.ndarray]:
    """``cfg.restarts`` seeded random starts: theta uniform on its box, a
    and b uniform on their unit spheres."""
    m = SUBSPACE_DIM
    rng = np.random.default_rng(cfg.seed)
    starts = []
    for _ in range(cfg.restarts):
        theta = rng.uniform(0.0, np.pi / 2)
        a, b = rng.standard_normal(2 * m - 2), rng.standard_normal(2 * m)
        starts.append(np.concatenate([[theta], a / np.linalg.norm(a),
                                      b / np.linalg.norm(b)]))
    return starts


def _search(cfg: SearchConfig, warm: np.ndarray, fun, theta_box,
            bound_re: float) -> SearchOutcome:
    """Minimize ``fun`` from ``warm`` plus ``cfg.restarts`` seeded random starts,
    with theta held to ``theta_box``, and read AE and RE at the best point."""
    starts = [warm] + _cold_starts(cfg)
    _, best_x, evals = _run_minimize(fun, starts, theta_box)

    c = _coords_from_params(best_x, cfg.z)
    x_phi, x_psi = _pair_errors(c.v, c.v_psi, cfg.z)
    best_ae = x_phi + x_psi
    return SearchOutcome(
        best_ae=float(best_ae),
        best_re=float(best_ae / np.sqrt(1.0 - cfg.z ** 4)),
        bound_ae=float(ae_lower_bound(cfg.z)),
        bound_re=bound_re,
        best_params=best_x,
        trials=evals,
    )


def minimize_objective(objective: str, cfg: SearchConfig) -> SearchOutcome:
    """Minimize the copying error over realizable pairs at overlap ``cfg.z``.

    Runs L-BFGS-B on AE from a warm start at the asymmetric machine and
    from ``cfg.restarts`` seeded random starts. The outcome reports the AE
    and RE at the best point found together with the analytic floors.

    ``objective`` is ``"ae"`` or ``"re"``, and both names run the same AE
    search: RE = AE / sin D, with sin D = sqrt(1 - z^4) fixed by z, so the
    two floors have one minimizer. The name stays because acceptance test
    c07 asks for each floor by name, and the benchmark tracer
    (``bench/spans.py``) names its span after it.
    """
    if objective not in ("ae", "re"):
        raise ValueError(f"objective must be 'ae' or 're', got {objective!r}")
    if cfg.z <= 0.0:
        raise ValueError("minimization needs 0 < z < 1")
    return _search(cfg, warm_start_params(0.0), _objective_factory("ae", cfg.z),
                   (0.0, np.pi / 2), float(re_lower_bound(cfg.z)))


def minimize_symmetric_re(cfg: SearchConfig) -> SearchOutcome:
    """Find the least RE of a machine with equal error angles on both branches.

    Minimizes x_phi^2 + x_psi^2 over all realizable pairs with theta free:
    by chain 2 its only minimizer is the symmetric machine, which also
    serves as the warm start. ``best_re`` is read at the best point, and
    the floor is the symmetric closed form, reported in ``bound_re``.
    """
    if cfg.z <= 0.0:
        raise ValueError("minimization needs 0 < z < 1")
    small, big = _angles(cfg.z)
    return _search(cfg, warm_start_params((big - small) / 2.0),
                   _objective_factory("sym", cfg.z), (None, None),
                   closed_form_re_s(cfg.z))


@dataclass(frozen=True)
class SweepStats:
    """Summary of a random sweep over realizable pairs at fixed overlap."""

    z: float
    trials: int
    seed: int
    ae_min: float
    ae_mean: float
    ae_max: float
    re_min: float
    re_mean: float
    re_max: float
    floor_violations_ae: int
    floor_violations_re: int
    chain1_violations: int
    chain2_violations: int
    min_chain_slack: float
    undefined_re: int

    @property
    def floor_violations(self) -> int:
        return self.floor_violations_ae + self.floor_violations_re


@dataclass
class _Running:
    """Running minimum, maximum, sum and count of the values added."""

    lo: float = np.inf
    hi: float = -np.inf
    total: float = 0.0
    count: int = 0

    def add(self, x: np.ndarray) -> None:
        if x.size:
            # np.minimum and np.maximum keep a NaN; min and max drop it.
            self.lo = float(np.minimum(self.lo, x.min()))
            self.hi = float(np.maximum(self.hi, x.max()))
            self.total += float(x.sum())
            self.count += x.size

    def min_mean_max(self) -> tuple[float, float, float]:
        """(min, mean, max), all NaN when nothing was added."""
        if not self.count:
            return np.nan, np.nan, np.nan
        return self.lo, self.total / self.count, self.hi


def _sample_block(rng: np.random.Generator, n: int, z: float):
    """(ae, re, chain1, chain2) of ``n`` uniform realizable pairs at overlap z.

    ``re`` holds only the pairs on which it is defined; ``chain1`` and
    ``chain2`` are the slacks of the two chain inequalities.
    """
    m = SUBSPACE_DIM
    v = rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    w = rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))
    w -= v * np.einsum("bi,bi->b", v.conj(), w)[:, None]
    w /= np.linalg.norm(w, axis=1, keepdims=True)
    v_psi = z * v + np.sqrt(1.0 - z * z) * w

    u = _psi_axis(z)
    q_phi = np.abs(v[:, 0])
    q_psi_c = v_psi @ u.conj()
    q_psi = np.abs(q_psi_c)
    x_phi = np.linalg.norm(v[:, 1:], axis=1)
    x_psi = np.linalg.norm(v_psi - u[None, :] * q_psi_c[:, None], axis=1)
    ae = x_phi + x_psi

    defined = np.minimum(q_phi, q_psi) > DEGENERATE_TOL
    re = ae[defined] / np.sqrt(1.0 - z ** 4)

    # Chain inequalities: angles from the actual sampled vectors.
    delta_phi = np.arccos(np.minimum(q_phi, 1.0))
    delta_psi = np.arccos(np.minimum(q_psi, 1.0))
    small, big = _angles(z)
    chain1 = delta_phi + delta_psi + _batch_angle(v, v_psi) - big
    chain2 = delta_phi + delta_psi - (big - small)
    return ae, re, chain1, chain2


def random_cloner_sweep(cfg: SearchConfig, n: int = 10_000) -> SweepStats:
    """Sample ``n`` realizable pairs uniformly and check floors and chains.

    Sampling is Gaussian-then-normalize inside the subspace for V_phi and
    for the orthogonal direction W, so the constraint <V_phi|V_psi> = z
    holds exactly on every sample. Pairs are drawn in blocks as the
    geometry sweeps draw theirs, in dimension SUBSPACE_DIM, and only
    running summaries are kept.
    """
    if n < 1:
        raise ValueError("need at least one sample")
    bound_ae = float(ae_lower_bound(cfg.z))
    bound_re = float(re_lower_bound(cfg.z))
    ae_run, re_run = _Running(), _Running()
    min_chain_slack = np.inf
    floor_ae = floor_re = chain1_bad = chain2_bad = 0
    for rng, size in sweep_blocks(n, SUBSPACE_DIM, cfg.seed):
        ae, re, chain1, chain2 = _sample_block(rng, size, cfg.z)
        ae_run.add(ae)
        re_run.add(re)
        min_chain_slack = float(np.min([min_chain_slack, chain1.min(), chain2.min()]))
        # A NaN error or slack fails its comparison and counts as a violation.
        floor_ae += int(np.count_nonzero(~(ae >= bound_ae - FLOOR_TOL)))
        floor_re += int(np.count_nonzero(~(re >= bound_re - FLOOR_TOL)))
        chain1_bad += int(np.count_nonzero(~(chain1 >= -CHAIN_TOL)))
        chain2_bad += int(np.count_nonzero(~(chain2 >= -CHAIN_TOL)))

    ae_min, ae_mean, ae_max = ae_run.min_mean_max()
    re_min, re_mean, re_max = re_run.min_mean_max()
    return SweepStats(
        z=cfg.z,
        trials=n,
        seed=cfg.seed,
        ae_min=ae_min,
        ae_mean=ae_mean,
        ae_max=ae_max,
        re_min=re_min,
        re_mean=re_mean,
        re_max=re_max,
        floor_violations_ae=floor_ae,
        floor_violations_re=floor_re,
        chain1_violations=chain1_bad,
        chain2_violations=chain2_bad,
        min_chain_slack=min_chain_slack,
        undefined_re=n - re_run.count,
    )


@dataclass(frozen=True)
class VerifyRecord:
    """Per-overlap verification record emitted by the ``verify`` command."""

    z: float
    bound_ae: float
    bound_re: float
    best_ae: float
    best_re: float
    violations: int
    trials: int
    seed: int
    attainment_gap: float
    sweep: SweepStats

    def as_dict(self) -> dict:
        d = {f.name: getattr(self, f.name) for f in fields(self)}
        d["sweep"] = {
            "trials": self.sweep.trials,
            "ae_min": self.sweep.ae_min,
            "ae_mean": self.sweep.ae_mean,
            "ae_max": self.sweep.ae_max,
            "re_min": self.sweep.re_min,
            "re_mean": self.sweep.re_mean,
            "re_max": self.sweep.re_max,
            "floor_violations": self.sweep.floor_violations,
            "chain_violations": self.sweep.chain1_violations
            + self.sweep.chain2_violations,
            "undefined_re": self.sweep.undefined_re,
        }
        return d


def verify_point(z: float, restarts: int = 20, seed: int = 0,
                 sweep_trials: int = 10_000) -> VerifyRecord:
    """Search and sweep at one overlap value.

    One search serves both floors: RE = AE / sin D on every realizable
    pair, so the AE minimizer also minimizes RE, and ``best_ae`` and
    ``best_re`` are read from the same best point.
    """
    cfg = SearchConfig(z=z, restarts=restarts, seed=seed)
    # The sweep goes first: it rejects a count it cannot index before the
    # search has run.
    sweep = random_cloner_sweep(cfg, n=sweep_trials)
    out = minimize_objective("ae", cfg)
    violations = sweep.floor_violations
    if out.best_ae < out.bound_ae - FLOOR_TOL:
        violations += 1
    if out.best_re < out.bound_re - FLOOR_TOL:
        violations += 1
    return VerifyRecord(
        z=z,
        bound_ae=out.bound_ae,
        bound_re=out.bound_re,
        best_ae=out.best_ae,
        best_re=out.best_re,
        violations=violations,
        trials=out.trials + sweep.trials,
        seed=seed,
        attainment_gap=float(max(out.best_ae - out.bound_ae,
                                 out.best_re - out.bound_re)),
        sweep=sweep,
    )
