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
point known to attain, it must find the floors itself. Each start is a
generator that runs scipy's loop on L-BFGS-B's reverse-communication routine
and yields the points it needs; the starts run in lockstep, and one stacked
objective call per round answers them all. Every start still follows, bit
for bit, the run scipy's ``minimize`` makes from it alone: the objective
gives a row the same bits in any stack.

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
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.optimize import _lbfgsb

from .bounds import _overlap_angles, _overlap_sines, ae_lower_bound, re_lower_bound
from .cloners import closed_form_re_s
from .cloning import DEGENERATE_TOL, _chains
from .geometry import _block_summaries, _check_count, _violations
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
# Each search's (low, high) bound on theta, None where theta is free; a and
# b are always free.
_THETA_BOX = {"ae": (0.0, np.pi / 2), "re": (0.0, np.pi / 2), "sym": None}


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
        _check_count(self.restarts)


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


def _lbfgsb_start(x0, lower, upper, nbd):
    """One L-BFGS-B start, as a generator that runs scipy's ``_minimize_lbfgsb``
    loop on the reverse-communication routine ``setulb``: it yields each point
    whose value and gradient it needs, is sent them, and returns its
    :class:`_StartResult`. As scipy does, it projects x0 into its box, then
    counts evaluations as ``ScalarFunction`` does: x0 first, and a request at
    the last evaluated point is served from that evaluation.
    """
    n, m = len(x0), LBFGSB_MEMORY
    x, f, g = np.array(x0, dtype=float), 0.0, np.zeros(n)  # setulb moves x in place
    np.clip(x, lower, upper, out=x, where=nbd == 2)
    wa = np.zeros(2 * m * n + 5 * n + 11 * m * m + 8 * m)
    iwa = np.zeros(3 * n, np.int32)
    task, ln_task = np.zeros(2, np.int32), np.zeros(2, np.int32)
    lsave, isave, dsave = np.zeros(4, np.int32), np.zeros(44, np.int32), np.zeros(29)
    seen = x.copy()
    f_seen, g_seen = yield seen
    evals, iterations = 1, 0
    while True:
        _lbfgsb.setulb(m, x, lower, upper, nbd, f, g, _FACTR, GRADIENT_TOL, wa, iwa,
                       task, lsave, isave, dsave, LBFGSB_MAXLS, ln_task)
        if task[0] == 3:                # FG: value and gradient at x
            if not np.array_equal(x, seen):
                seen = x.copy()
                f_seen, g_seen = yield seen
                evals += 1
            f, g = f_seen, g_seen.copy()  # scipy, too, hands setulb a copy of g
        elif task[0] == 1:              # NEW_X: an iteration is done
            iterations += 1
            if iterations >= LBFGSB_MAX_ITER:
                task[:] = 5, 504
            elif evals > LBFGSB_MAX_EVALS:
                task[:] = 5, 502
        else:
            break
    capped = evals > LBFGSB_MAX_EVALS or iterations >= LBFGSB_MAX_ITER
    return _StartResult(x, f, evals, 0 if task[0] == 4 else 1 if capped else 2)


def _lockstep_lbfgsb(fun, starts, theta_box):
    """L-BFGS-B from every start, driven in lockstep: each start's
    :class:`_StartResult`, in start order.

    ``theta_box`` is the (low, high) bound on theta, or None for none; a and
    b are free. Up to LOCKSTEP_WIDTH :func:`_lbfgsb_start` generators run at
    once. Every round, one stacked ``fun`` call answers the point each live
    start asked for, and each start runs on to its next point or returns.
    Each follows its solo run under ``scipy.optimize.minimize(method=
    "L-BFGS-B", jac=True)`` bit for bit, since ``fun`` gives a row the bits
    it has alone.
    """
    lower, upper = np.zeros(N_PARAMS), np.zeros(N_PARAMS)
    nbd = np.zeros(N_PARAMS, np.int32)  # setulb's codes: 0 free, 2 both bounds
    if theta_box is not None:
        nbd[0] = 2
        lower[0], upper[0] = theta_box
    starts = iter(starts)
    while runs := [_lbfgsb_start(x0, lower, upper, nbd)
                   for x0 in itertools.islice(starts, LOCKSTEP_WIDTH)]:
        asks, results = {run: next(run) for run in runs}, {}
        while asks:
            values, grads = fun(np.array(list(asks.values())))
            for run, f, g in zip(list(asks), values, grads):
                try:
                    asks[run] = run.send((f, g))
                except StopIteration as stop:
                    results[run] = stop.value
                    del asks[run]
        yield from (results[run] for run in runs)


def _cold_starts(cfg: SearchConfig):
    """Yield ``cfg.restarts`` seeded random starts, one at a time: theta
    uniform on [0, pi/2], a and b uniform on their unit spheres."""
    m = SUBSPACE_DIM
    rng = np.random.default_rng(cfg.seed)
    for _ in range(cfg.restarts):
        theta = rng.uniform(0.0, np.pi / 2)
        a, b = rng.standard_normal(2 * m - 2), rng.standard_normal(2 * m)
        yield np.concatenate([[theta], a / norm(a), b / norm(b)])


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
    symmetric closed form. The best point is that of the first start with
    the strictly lowest value, and ``trials`` counts every start's evaluations.
    """
    if objective not in _THETA_BOX:
        raise ValueError(f"objective must be 'ae', 're' or 'sym', got {objective!r}")
    if cfg.z <= 0.0:
        raise ValueError("minimization needs 0 < z < 1")
    best_f, best_x, evals = np.inf, None, 0
    for res in _lockstep_lbfgsb(_objective_factory(objective, cfg.z), _cold_starts(cfg),
                                _THETA_BOX[objective]):
        evals += res.evals
        if res.f < best_f:
            best_f, best_x = res.f, res.x

    c = _coords_from_params(best_x, cfg.z)
    x_phi, x_psi, _, _ = _pair_errors(c.v, c.v_psi, cfg.z)
    best_ae = x_phi + x_psi
    return SearchOutcome(
        best_ae=float(best_ae),
        best_re=float(best_ae / _overlap_sines(cfg.z)[1]),
        bound_ae=float(ae_lower_bound(cfg.z)),
        bound_re=(closed_form_re_s(cfg.z) if objective == "sym"
                  else float(re_lower_bound(cfg.z))),
        best_params=best_x,
        trials=evals,
    )


@dataclass(frozen=True)
class SweepStats:
    """Summary of a random sweep over realizable pairs at fixed overlap."""

    trials: int
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
        trials=n,
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


def verify_point(z: float, restarts: int = 20, seed: int = 0,
                 sweep_trials: int = 10_000) -> dict:
    """Search and sweep at one overlap value: the point's record, as the
    ``verify`` report writes it.

    One search serves both floors: RE = AE / sin D on every realizable
    pair, so the AE minimizer also minimizes RE, and ``best_ae`` and
    ``best_re`` are read from the same best point.
    """
    cfg = SearchConfig(z=z, restarts=restarts, seed=seed)
    # The sweep goes first: it rejects a count it cannot index before the
    # search has run.
    sweep = random_cloner_sweep(cfg, n=sweep_trials)
    out = minimize_objective("ae", cfg)
    gaps = [out.best_ae - out.bound_ae, out.best_re - out.bound_re]
    summaries = {name: getattr(sweep, name) for name in
                 ("ae_min", "ae_mean", "ae_max", "re_min", "re_mean", "re_max")}
    return {
        "z": z,
        "bound_ae": out.bound_ae,
        "bound_re": out.bound_re,
        "best_ae": out.best_ae,
        "best_re": out.best_re,
        "violations": sweep.floor_violations + _violations(gaps),
        "seed": seed,
        "attainment_gap": float(max(gaps)),
        "sweep": {
            "trials": sweep.trials,
            # JSON has no NaN: a non-finite summary is written as null.
            **{k: v if np.isfinite(v) else None for k, v in summaries.items()},
            "floor_violations": sweep.floor_violations,
            "chain_violations": sweep.chain_violations,
            "undefined_re": sweep.undefined_re,
        },
    }
