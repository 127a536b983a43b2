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
on which two they are, so the frame is never built. The decode and the
objective take stacks of parameter rows and flag the rows they reject.

:func:`minimize_objective` is the one search: L-BFGS-B with an analytic
gradient from ``restarts`` seeded random starts, and no other. Handed no
point known to attain, it must find the floors itself. The starts run in
lockstep, each with its own state of L-BFGS-B's reverse-communication
routine, and one stacked objective call per round answers every start that
asks for a point. Every start still follows, bit for bit, the run scipy's
``minimize`` makes from it alone: the objective gives a row the same bits
in any stack, and the driver's loop is scipy's, step for step.

* ``"ae"`` (or ``"re"``) minimizes AE. On every realizable pair RE = AE /
  sin D with sin D = sqrt(1 - z^4) fixed by z, so both floors share one
  minimizer. V_phi = (cos theta, sin theta a/|a|) with theta in [0, pi/2],
  so x_phi = sin theta is smooth and the optimum is the box face theta = 0
  (Byrd, Lu, Nocedal & Zhu, SIAM J. Sci. Comput. 16 (1995) 1190).
* ``"sym"`` minimizes x_phi^2 + x_psi^2, theta free. Chain 2 gives
  delta_phi + delta_psi >= D - d, and sin^2 a + sin^2 b = 1 - cos(a+b)
  cos(a-b), so its only minimizer is delta_phi = delta_psi = (D - d)/2,
  the symmetric machine.

:func:`random_cloner_sweep` samples realizable pairs uniformly and checks
the floors and the two chain inequalities on every sample, in blocks of
the ``lemmas`` sweeps' engine (:mod:`clonebound.geometry`), folded in order.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, fields
from typing import NamedTuple

import numpy as np
from scipy.optimize import _lbfgsb

from .bounds import _overlap_angles, _overlap_sines, ae_lower_bound, re_lower_bound
from .cloners import closed_form_re_s
from .cloning import DEGENERATE_TOL, _chains
from .geometry import _block_summaries, _violations
from .statespace import (
    _angles, _complex_normal, _dots, _norms, _residuals, norm, random_states,
)

# L-BFGS-B stopping rules per start: relative decrease of the objective,
# and largest projected-gradient component.
OBJECTIVE_TOL = 1e-15
GRADIENT_TOL = 1e-10
# OBJECTIVE_TOL as setulb takes it, in units of the machine epsilon.
_FACTR = OBJECTIVE_TOL / np.finfo(float).eps
# The rest of L-BFGS-B's settings are scipy's defaults: correction pairs
# kept, line-search steps per iteration, and the caps on iterations and on
# evaluations per start.
LBFGSB_MEMORY = 10
LBFGSB_MAXLS = 20
LBFGSB_MAX_ITER = LBFGSB_MAX_EVALS = 15000
# Starts driven in lockstep at once; each holds ~12 KB of L-BFGS-B state.
LOCKSTEP_WIDTH = 64
# Complex dimension of the search subspace: the whole product space of a
# qubit pair, i.e. the product plane plus two orthogonal directions.
SUBSPACE_DIM = 4
# Real parameters of one realizable pair: theta, a in C^3, b in C^4.
N_PARAMS = 4 * SUBSPACE_DIM - 1
# Weight of the objective's gauge term on the norms of a and b.
GAUGE_WEIGHT = 0.25


@dataclass(frozen=True)
class SearchConfig:
    """Reproducible settings for one search or sweep: ``restarts`` is the
    number of seeded starts a search runs, the only starts it has."""

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


class _Coords(NamedTuple):
    """Decoded parameter rows, with the intermediates their gradient needs;
    a vector field has one axis more. A row whose ``ok`` is False has no pair."""

    ok: np.ndarray
    cos_t: np.ndarray
    sin_t: np.ndarray
    a_hat: np.ndarray       # unit direction of V[1:]
    a_norm: np.ndarray
    b: np.ndarray
    alpha: np.ndarray       # <V|b>
    p_norm: np.ndarray      # |P b|, P = I - |V><V|
    v: np.ndarray           # V_phi
    w: np.ndarray           # P b / |P b|
    v_psi: np.ndarray


def _realizable(v: np.ndarray, b: np.ndarray, z: float):
    """(<V|b>, |P b|, W, V_psi) of rows V = V_phi and b: W = P b/|P b| is the
    unit part of b orthogonal to V_phi, and V_psi = z V_phi + sin d W."""
    alpha, p = _residuals(v, b)
    p_norm = _norms(p)
    w = p / p_norm[..., None]
    return alpha, p_norm, w, z * v + _overlap_sines(z)[0] * w


def _coords_from_params(params, z: float) -> _Coords:
    """Decode rows [theta, a, b], the last axis, into realizable pairs; a and
    b are stored as interleaved real and imaginary parts.

    V_phi = (cos theta, sin theta a/|a|), so the phase gauge V_phi[0] >= 0
    is built in and x_phi = sin theta is smooth. A row is rejected, ``ok``
    False, when theta is not finite, when a has no finite nonzero norm to
    take a direction from, or when P b is not finite or shorter than
    DEGENERATE_TOL. It computes through NaN and inf, which numpy reports
    unless the caller silences it, as the objective does.
    """
    params = np.ascontiguousarray(params, dtype=float)
    if params.shape[-1:] != (N_PARAMS,):
        raise ValueError(f"expected {N_PARAMS} parameters, got shape {params.shape}")
    m = SUBSPACE_DIM
    theta = params[..., 0][()]
    a = params[..., 1:2 * m - 1].view(np.complex128)
    b = params[..., 2 * m - 1:].view(np.complex128)
    a_norm = _norms(a)
    a_hat = a / a_norm[..., None]
    cos_t, sin_t = np.cos(theta), np.sin(theta)
    v = np.empty(a.shape[:-1] + (m,), dtype=np.complex128)
    v[..., 0] = cos_t
    v[..., 1:] = sin_t[..., None] * a_hat
    alpha, p_norm, w, v_psi = _realizable(v, b, z)
    ok = (np.isfinite(theta) & (0.0 < a_norm) & (a_norm < np.inf)
          & (DEGENERATE_TOL <= p_norm) & (p_norm < np.inf))
    return _Coords(ok, cos_t, sin_t, a_hat, a_norm, b, alpha, p_norm, v, w, v_psi)


def _psi_axis(z: float) -> np.ndarray:
    """Coordinates of psi x psi in the frame: z^2 e1 + sin D e2."""
    u = np.zeros(SUBSPACE_DIM)
    u[:2] = z * z, _overlap_sines(z)[1]
    return u


def _pair_errors(v: np.ndarray, v_psi: np.ndarray, z: float):
    """(x_phi, x_psi, cos delta_phi, cos delta_psi) of coordinate pairs, one
    pair per row of the stacks: the error sizes and their cosines.

    Each error size is a residual norm: x_phi of V_phi's tail (its residual off
    e1), x_psi of V_psi's ``_residuals`` off psi x psi. sqrt(1 - |q|^2) would lose
    eight digits next to |q| = 1, where the optimizer converges.
    """
    q_psi, r = _residuals(_psi_axis(z), v_psi)
    return _norms(v[..., 1:]), _norms(r), np.abs(v[..., 0]), np.abs(q_psi)


def _objective_factory(objective: str, z: float):
    """``fun(params) -> (value, gradient)`` of AE or, for ``"sym"``,
    x_phi^2 + x_psi^2, with the gradient by reverse-mode differentiation
    through :func:`_coords_from_params`. ``params`` is one row or a stack
    of rows, and each row's value and gradient are those it has alone.

    The value adds the gauge term GAUGE_WEIGHT ((|a|^2 - 1)^2 + (|b|^2 - 1)^2),
    which is zero on unit a and b. Without it the value is blind to the
    norms of a and b, every step lengthens them, and the gradient, which
    falls as 1/|b|, drops below tolerance long before the floor. Complex
    cotangents follow d value = Re(<cotangent|d vector>). A row the
    parameterization rejects and one whose value overflows have the value
    ``inf`` and a zero gradient.
    """
    s = _overlap_sines(z)[0]
    u = _psi_axis(z)
    m = SUBSPACE_DIM

    def fun(params):
        # A rejected row computes through NaN and inf, and huge parameters overflow.
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            c = _coords_from_params(params, z)
            sin_t, cos_t = c.sin_t, c.cos_t
            _, r = _residuals(u, c.v_psi)
            x_psi = _norms(r)
            if objective == "sym":
                value = sin_t * sin_t + x_psi * x_psi
                g_theta, g_psi = 2 * sin_t * cos_t, 2 * r
            else:
                value = np.abs(sin_t) + x_psi
                # d|sin t|/dt = sign(sin t) cos t; copysign(cos_t, sin_t) would
                # drop the sign of cos t, which is negative off [0, pi/2].
                g_theta = np.copysign(1.0, sin_t) * cos_t
                # At the kink x_psi = 0, r is 0 up to underflow and is the
                # subgradient taken there: divide it by 1.
                g_psi = r / (x_psi + (x_psi == 0))[..., None]
            # V_psi = z V + s W, W = p/|p|, p = b - V <V|b>.
            g_w = s * g_psi
            g_p = (g_w - c.w * _dots(c.w, g_w).real[..., None]) / c.p_norm[..., None]
            # <g_p|V> is the conjugate of the overlap <V|g_p> the residual takes.
            ov, g_b = _residuals(c.v, g_p)
            g_v = (z * g_psi - np.conj(c.alpha)[..., None] * g_p
                   - np.conj(ov)[..., None] * c.b)
            # V = (cos theta, sin theta a_hat), a_hat = a/|a|; the gauge term
            # adds 4 GAUGE_WEIGHT (|a|^2 - 1) a to a's cotangent, likewise b's.
            g_theta = g_theta + (-sin_t * g_v[..., 0].real
                                 + cos_t * _dots(c.a_hat, g_v[..., 1:]).real)
            g_ahat = sin_t[..., None] * g_v[..., 1:]
            g_a = ((g_ahat - c.a_hat * _dots(c.a_hat, g_ahat).real[..., None])
                   / c.a_norm[..., None])
            b_norm = _norms(c.b)
            ga, gb = c.a_norm * c.a_norm - 1.0, b_norm * b_norm - 1.0
            value = value + GAUGE_WEIGHT * (ga * ga + gb * gb)
            g_a += (4 * GAUGE_WEIGHT * ga * c.a_norm)[..., None] * c.a_hat
            g_b += (4 * GAUGE_WEIGHT * gb)[..., None] * c.b
            gradient = np.empty(c.ok.shape + (N_PARAMS,))
            gradient[..., 0] = g_theta
            g_ab = gradient[..., 1:].view(np.complex128)
            g_ab[..., :m - 1], g_ab[..., m - 1:] = g_a, g_b
            ok = c.ok & (value < np.inf)        # the value is >= 0, or NaN
        if not ok.all():
            value = np.where(ok, value, np.inf)[()]
            gradient[~ok] = 0.0
        return value, gradient

    return fun


class _StartResult(NamedTuple):
    """Where one L-BFGS-B start stopped: ``status`` is scipy's, 0 converged,
    1 an iteration or evaluation cap, 2 any other stop."""

    x: np.ndarray
    f: float
    evals: int
    status: int


class _LbfgsbRun:
    """One start's L-BFGS-B state, stepped through the reverse-communication
    routine ``setulb`` as scipy's ``_minimize_lbfgsb`` steps it."""

    def __init__(self, x0: np.ndarray):
        n, m = x0.shape[0], LBFGSB_MEMORY
        self.x, self.f, self.g = x0, 0.0, np.zeros(n)
        self.wa = np.zeros(2 * m * n + 5 * n + 11 * m * m + 8 * m)
        self.iwa = np.zeros(3 * n, np.int32)
        self.task, self.ln_task = np.zeros(2, np.int32), np.zeros(2, np.int32)
        self.lsave, self.isave = np.zeros(4, np.int32), np.zeros(44, np.int32)
        self.dsave = np.zeros(29)
        self.iterations = self.evals = 0
        # The last evaluated point, its value and its gradient.
        self.seen = self.f_seen = self.g_seen = None

    def record(self, x, f, g):
        self.seen, self.f_seen, self.g_seen = x, f, g
        self.evals += 1

    def advance(self, lower, upper, nbd) -> bool:
        """Step until ``setulb`` asks for the value and gradient at a point
        not yet evaluated (True) or stops (False)."""
        task = self.task
        while True:
            if task[0] == 3:            # the request at x is answered
                self.f, self.g[:] = self.f_seen, self.g_seen
            _lbfgsb.setulb(LBFGSB_MEMORY, self.x, lower, upper, nbd, self.f,
                           self.g, _FACTR, GRADIENT_TOL, self.wa, self.iwa,
                           task, self.lsave, self.isave, self.dsave,
                           LBFGSB_MAXLS, self.ln_task)
            if task[0] == 3:            # FG: value and gradient at x
                if not np.array_equal(self.x, self.seen):
                    return True
            elif task[0] == 1:          # NEW_X: an iteration is done
                self.iterations += 1
                if self.iterations >= LBFGSB_MAX_ITER:
                    task[:] = 5, 504
                elif self.evals > LBFGSB_MAX_EVALS:
                    task[:] = 5, 502
            else:
                return False

    def result(self) -> _StartResult:
        capped = self.evals > LBFGSB_MAX_EVALS or self.iterations >= LBFGSB_MAX_ITER
        status = 0 if self.task[0] == 4 else 1 if capped else 2
        return _StartResult(self.x, self.f, self.evals, status)


def _lockstep_lbfgsb(fun, starts, theta_box):
    """L-BFGS-B from every start, driven in lockstep: each start's
    :class:`_StartResult`, in start order.

    ``theta_box`` is the (low, high) bound on theta, None for no bound; a and
    b are free. Up to LOCKSTEP_WIDTH starts at once each keep their own
    ``setulb`` state, and every round advances each live start until it asks
    for the value and gradient at a new point or stops; one stacked ``fun``
    call then answers every request. Each start follows the iterates it
    follows alone under ``scipy.optimize.minimize(method="L-BFGS-B",
    jac=True)``, bit for bit: ``fun`` gives a row the bits it has alone, and
    the loop is scipy's ``_minimize_lbfgsb`` with its ``ScalarFunction``
    accounting, which evaluates and counts x0 once and serves a request at
    the last evaluated point from its cache.
    """
    n = N_PARAMS
    lb, ub = np.full(n, -np.inf), np.full(n, np.inf)
    nbd, lower, upper = np.zeros(n, np.int32), np.zeros(n), np.zeros(n)
    low, high = theta_box
    if low is not None:
        lb[0] = lower[0] = low
        nbd[0] = 1
    if high is not None:
        ub[0] = upper[0] = high
        nbd[0] = 3 if low is None else 2
    starts = iter(starts)
    while runs := [_LbfgsbRun(np.clip(np.asarray(x0, dtype=float).ravel(), lb, ub))
                   for x0 in itertools.islice(starts, LOCKSTEP_WIDTH)]:
        live = runs
        while live:
            points = np.array([run.x for run in live])
            values, grads = fun(points)
            for run, x, f, g in zip(live, points, values, grads):
                run.record(x, f, g)
            live = [run for run in live if run.advance(lower, upper, nbd)]
        yield from (run.result() for run in runs)


def _run_minimize(fun, starts, theta_box):
    """L-BFGS-B from every start: (best value, best point, evaluations). The
    best start is the first with the strictly lowest value.

    ``theta_box`` is the (low, high) bound on theta; a and b are free.
    """
    best_f, best_x, evals = np.inf, None, 0
    for res in _lockstep_lbfgsb(fun, starts, theta_box):
        evals += res.evals
        if res.f < best_f:
            best_f, best_x = res.f, res.x
    return best_f, best_x, evals


def _cold_starts(cfg: SearchConfig) -> list[np.ndarray]:
    """``cfg.restarts`` seeded random starts: theta uniform on its box, a
    and b uniform on their unit spheres."""
    m = SUBSPACE_DIM
    rng = np.random.default_rng(cfg.seed)
    starts = []
    for _ in range(cfg.restarts):
        theta = rng.uniform(0.0, np.pi / 2)
        a, b = rng.standard_normal(2 * m - 2), rng.standard_normal(2 * m)
        starts.append(np.concatenate([[theta], a / norm(a), b / norm(b)]))
    return starts


def minimize_objective(objective: str, cfg: SearchConfig) -> SearchOutcome:
    """Minimize ``objective`` over realizable pairs at overlap ``cfg.z`` by
    L-BFGS-B from ``cfg.restarts`` seeded random starts, its only starts,
    and report AE and RE at the best point found against the floors.

    ``"ae"`` and ``"re"`` run the same AE search, theta in [0, pi/2]:
    RE = AE / sin D, with sin D = sqrt(1 - z^4) fixed by z, so the two
    floors have one minimizer. Both names stay because acceptance test c07
    asks for each floor by name, and the benchmark tracer
    (``bench/spans.py``) names its span after it. ``"sym"`` minimizes
    x_phi^2 + x_psi^2 with theta free, and its ``bound_re`` is the
    symmetric closed form.
    """
    if objective in ("ae", "re"):
        box, bound_re = (0.0, np.pi / 2), float(re_lower_bound(cfg.z))
    elif objective == "sym":
        box, bound_re = (None, None), closed_form_re_s(cfg.z)
    else:
        raise ValueError(f"objective must be 'ae', 're' or 'sym', got {objective!r}")
    if cfg.z <= 0.0:
        raise ValueError("minimization needs 0 < z < 1")
    _, best_x, evals = _run_minimize(_objective_factory(objective, cfg.z),
                                     _cold_starts(cfg), box)

    c = _coords_from_params(best_x, cfg.z)
    x_phi, x_psi, _, _ = _pair_errors(c.v, c.v_psi, cfg.z)
    best_ae = x_phi + x_psi
    return SearchOutcome(
        best_ae=float(best_ae),
        best_re=float(best_ae / _overlap_sines(cfg.z)[1]),
        bound_ae=float(ae_lower_bound(cfg.z)),
        bound_re=bound_re,
        best_params=best_x,
        trials=evals,
    )


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

    @property
    def chain_violations(self) -> int:
        return self.chain1_violations + self.chain2_violations


def _sample_block(rng: np.random.Generator, n: int, z: float):
    """(ae, re, chain1, chain2) of ``n`` uniform realizable pairs at overlap z.

    ``re`` holds only the pairs on which it is defined; ``chain1`` and
    ``chain2`` are the slacks of the two chain inequalities.
    """
    m = SUBSPACE_DIM
    v = random_states(n, m, rng)
    _, _, _, v_psi = _realizable(v, _complex_normal(rng, (n, m)), z)

    x_phi, x_psi, q_phi, q_psi = _pair_errors(v, v_psi, z)
    ae = x_phi + x_psi

    defined = np.minimum(q_phi, q_psi) > DEGENERATE_TOL
    re = ae[defined] / _overlap_sines(z)[1]

    # Chain inequalities on the sampled vectors, each error angle from its sine
    # and cosine; the ideal outputs phi x phi and psi x psi are at angle D.
    small, big = _overlap_angles(z)
    (lhs1, rhs1), (lhs2, rhs2) = _chains(
        np.arctan2(x_phi, q_phi), np.arctan2(x_psi, q_psi), _angles(v, v_psi),
        big, small, big)
    return ae, re, rhs1 - lhs1, rhs2 - lhs2


def random_cloner_sweep(cfg: SearchConfig, n: int = 10_000) -> SweepStats:
    """Sample ``n`` realizable pairs uniformly and check floors and chains.

    Sampling is Gaussian-then-normalize inside the subspace for V_phi and
    for the orthogonal direction W, so the constraint <V_phi|V_psi> = z
    holds exactly on every sample. Pairs are drawn by the geometry sweeps'
    block engine, in the one dimension SUBSPACE_DIM and so on one worker;
    each block is reduced to its minima, maxima, sums and counts, and these
    are folded in block order.
    """
    if n < 1:
        raise ValueError("need at least one sample")
    bound_ae = float(ae_lower_bound(cfg.z))
    bound_re = float(re_lower_bound(cfg.z))

    def summarize(dim, block, rng, size):
        ae, re, chain1, chain2 = _sample_block(rng, size, cfg.z)
        # An empty re has extremes inf and -inf and sum 0.0: it changes no fold.
        lo = [ae.min(), re.min(initial=np.inf), np.min([chain1.min(), chain2.min()])]
        hi = [ae.max(), re.max(initial=-np.inf)]
        # Floors and chains alike fail below -DEFAULT_SWEEP_TOL, or on a NaN.
        bad = [_violations(s) for s in (ae - bound_ae, re - bound_re, chain1, chain2)]
        return lo, hi, [float(ae.sum()), float(re.sum())], [re.size] + bad

    # np.minimum and np.maximum keep a NaN; min and max drop it.
    lo, hi, total, count = np.inf, -np.inf, 0.0, 0
    for b_lo, b_hi, b_total, b_count in _block_summaries(
            summarize, n, (SUBSPACE_DIM,), cfg.seed):
        lo, hi = np.minimum(lo, b_lo), np.maximum(hi, b_hi)
        total, count = np.add(total, b_total), np.add(count, b_count)
    ae_min, re_min, min_chain_slack = map(float, lo)
    ae_max, re_max = map(float, hi)
    defined, floor_ae, floor_re, chain1_bad, chain2_bad = map(int, count)
    return SweepStats(
        z=cfg.z,
        trials=n,
        seed=cfg.seed,
        ae_min=ae_min,
        ae_mean=float(total[0]) / n,
        ae_max=ae_max,
        re_min=re_min if defined else np.nan,
        re_mean=float(total[1]) / defined if defined else np.nan,
        re_max=re_max if defined else np.nan,
        floor_violations_ae=floor_ae,
        floor_violations_re=floor_re,
        chain1_violations=chain1_bad,
        chain2_violations=chain2_bad,
        min_chain_slack=min_chain_slack,
        undefined_re=n - defined,
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
        d["sweep"] = {"trials": self.sweep.trials}
        for name in ("ae_min", "ae_mean", "ae_max", "re_min", "re_mean", "re_max"):
            value = getattr(self.sweep, name)
            # JSON has no NaN: a non-finite summary is written as null.
            d["sweep"][name] = value if np.isfinite(value) else None
        d["sweep"] |= {
            "floor_violations": self.sweep.floor_violations,
            "chain_violations": self.sweep.chain_violations,
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
    violations = sweep.floor_violations + _violations(
        [out.best_ae - out.bound_ae, out.best_re - out.bound_re])
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
