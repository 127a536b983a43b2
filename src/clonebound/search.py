"""Numerical tightness checks for the error lower bounds.

A pair of candidate outputs (V_phi, V_psi) is realizable by some unitary
machine exactly when <V_phi|V_psi> equals the input overlap z. This module
parameterizes realizable pairs directly,

    V_psi = z V_phi + sqrt(1 - z^2) W,   W a unit vector orthogonal
                                         to V_phi,

so every candidate the optimizer or the random sweep ever evaluates is
realizable by construction. The search space is a low-dimensional complex
subspace containing the product plane span{phi x phi, psi x psi}: the
optimum lies inside the plane, and the extra directions exist to confirm
that leaving it never helps.

Two entry points:

* :func:`minimize_objective` runs seeded Nelder-Mead restarts (plus a warm
  start at the fully asymmetric machine) and checks the bounds are floors
  that the asymmetric construction attains.
* :func:`random_cloner_sweep` samples realizable pairs uniformly and
  checks the floors and the two chain inequalities on every sample.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np
from scipy.optimize import minimize
# scipy.optimize loads the LAPACK wrappers itself; importing them after it
# keeps -X importtime charging all of scipy.linalg to scipy.optimize.
from scipy.linalg.lapack import zgeqrf, zungqr

from .bounds import ae_lower_bound, re_lower_bound
from .cloners import closed_form_re_s, plane_frame
from .cloning import DEGENERATE_TOL, TwoStateSet
from .geometry import _batch_angle

FLOOR_TOL = 1e-9
CHAIN_TOL = 1e-10
# Nelder-Mead iteration cap per start, and its function-value tolerance.
MAX_ITERS = 400
OBJECTIVE_TOL = 1e-12
# Complex dimension of the search subspace: the whole product space of a
# qubit pair, i.e. the product plane plus two orthogonal directions.
SUBSPACE_DIM = 4


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
    attained_within: float
    best_params: np.ndarray
    trials: int


def make_frame(set_: TwoStateSet, subspace_dim: int = SUBSPACE_DIM,
               seed: int = 0) -> np.ndarray:
    """Orthonormal ambient basis (rows) of the search subspace, for z < 1.

    Row 0 is phi x phi, row 1 the unit residual of psi x psi against it;
    further rows are seeded random directions orthogonal to the plane.
    Subspace coordinates map to the ambient space as ``coords @ basis``.
    """
    e1, e2 = plane_frame(set_)
    ambient = e1.shape[0]
    if not 2 <= subspace_dim <= ambient:
        raise ValueError(f"subspace_dim must be in 2..{ambient}, got {subspace_dim}")
    rows = [e1, e2]
    rng = np.random.default_rng(seed)
    while len(rows) < subspace_dim:
        g = rng.standard_normal(ambient) + 1j * rng.standard_normal(ambient)
        for r in rows:          # two passes of modified Gram-Schmidt
            g = g - r * np.vdot(r, g)
        for r in rows:
            g = g - r * np.vdot(r, g)
        n = np.linalg.norm(g)
        if n > 1e-8:
            rows.append(g / n)
    return np.stack(rows)


def _complement_basis(v: np.ndarray) -> np.ndarray:
    """Orthonormal basis (columns) of the orthogonal complement of ``v``.

    The reduced QR of ``[v | I]``, by the two LAPACK calls that
    ``np.linalg.qr`` makes, without its per-call overhead. The C-order
    copy matters: ``q @ c`` sums in a different order on a Fortran-order
    ``q`` and would move the objective by an ulp.
    """
    m = v.shape[0]
    buf = np.eye(m, m + 1, k=1, dtype=np.complex128, order="F")
    buf[:, 0] = v
    qr, tau, _, _ = zgeqrf(buf, overwrite_a=1)
    q, _, _ = zungqr(qr[:, :m], tau, overwrite_a=1)
    return np.ascontiguousarray(q)[:, 1:]


def _norm(x: np.ndarray):
    """``np.linalg.norm`` of a complex vector, by its own arithmetic."""
    return np.sqrt(x.real.dot(x.real) + x.imag.dot(x.imag))


def params_length(subspace_dim: int) -> int:
    """Real parameters needed for one realizable pair: 4*subspace_dim - 4."""
    return 4 * subspace_dim - 4


def _coords_from_params(params, z: float, m: int):
    params = np.asarray(params, dtype=float)
    if params.shape != (params_length(m),):
        raise ValueError(
            f"expected {params_length(m)} parameters for subspace_dim {m}, "
            f"got shape {params.shape}"
        )
    pv, pw = params[: 2 * m - 2], params[2 * m - 2:]

    # V: first coordinate pinned to 1 (phase gauge), then normalized.
    v = np.empty(m, dtype=np.complex128)
    v[0] = 1.0
    v[1:] = pv[0::2] + 1j * pv[1::2]
    v = v / _norm(v)

    # W: complex coefficients over the complement of V, then normalized.
    # W's own phase is physical (it moves V_psi), so it stays free.
    c = pw[0::2] + 1j * pw[1::2]
    w = _complement_basis(v) @ c
    w_norm = _norm(w)
    if w_norm < DEGENERATE_TOL:
        raise ValueError("degenerate parameters: zero orthogonal component")
    w = w / w_norm
    v_psi = z * v + np.sqrt(1.0 - z * z) * w
    return v, v_psi, w


def parameterize_pair(params, z: float, basis: np.ndarray):
    """Map raw parameters to an ambient realizable output pair.

    ``basis`` is a :func:`make_frame` basis. By construction both outputs
    are unit and <V_phi|V_psi> = z exactly.
    """
    v, v_psi, _ = _coords_from_params(params, z, basis.shape[0])
    return v @ basis, v_psi @ basis


def encode_params(v_target: np.ndarray, w_target: np.ndarray) -> np.ndarray:
    """Invert the parameterization for targets with v_target[0] != 0.

    ``w_target`` must be a unit vector orthogonal to ``v_target``.
    """
    m = v_target.shape[0]
    if abs(v_target[0]) < 1e-12:
        raise ValueError("cannot encode a vector with vanishing first coordinate")
    params = np.zeros(params_length(m))
    pv = v_target[1:] / v_target[0]
    params[0: 2 * m - 2: 2] = pv.real
    params[1: 2 * m - 2: 2] = pv.imag
    c = _complement_basis(v_target / np.linalg.norm(v_target)).conj().T @ w_target
    params[2 * m - 2 + 0::2] = c.real
    params[2 * m - 2 + 1::2] = c.imag
    return params


def warm_start_params(z: float, m: int) -> np.ndarray:
    """Parameters encoding the fully asymmetric machine's outputs."""
    v = np.zeros(m, dtype=np.complex128)
    v[0] = 1.0
    e2 = np.zeros(m, dtype=np.complex128)
    e2[1] = 1.0
    return encode_params(v, e2)


def _psi_axis(z: float, m: int) -> np.ndarray:
    """Coordinates of psi x psi in the frame: z^2 e1 + sqrt(1 - z^4) e2."""
    u = np.zeros(m, dtype=np.complex128)
    u[0] = z * z
    u[1] = np.sqrt(1.0 - z ** 4)
    return u


def _pair_errors(v: np.ndarray, v_psi: np.ndarray, z: float):
    """(x_phi, x_psi, |q_phi|, |q_psi|) for one coordinate pair.

    Error sizes are residual norms, not sqrt(1 - |q|^2): the latter loses
    eight digits next to |q| = 1, which is exactly where the optimizer
    converges, and would let it dip below the analytic floor by ~1e-8.
    """
    q_phi = v[0]
    x_phi = float(_norm(v[1:]))
    u = _psi_axis(z, v.shape[0])
    q_psi = np.vdot(u, v_psi)
    x_psi = float(_norm(v_psi - u * q_psi))
    return x_phi, x_psi, abs(q_phi), abs(q_psi)


def _objective_factory(objective: str, z: float, m: int,
                       symmetric_penalty: float = 0.0):
    sin_big = np.sqrt(1.0 - z ** 4)

    def fun(params) -> float:
        try:
            v, v_psi, _ = _coords_from_params(params, z, m)
        except ValueError:
            return np.inf
        x_phi, x_psi, q_phi, q_psi = _pair_errors(v, v_psi, z)
        ae = x_phi + x_psi
        if objective == "ae":
            value = ae
        else:
            if min(q_phi, q_psi) <= DEGENERATE_TOL:
                return np.inf      # undefined relative error at this point
            value = ae / sin_big
        if symmetric_penalty > 0.0:
            value += symmetric_penalty * (q_phi - q_psi) ** 2
        return value

    return fun


def _run_minimize(fun, starts):
    best_f, best_x, evals = np.inf, None, 0
    for x0 in starts:
        res = minimize(
            fun, x0, method="Nelder-Mead",
            options={"maxiter": MAX_ITERS, "xatol": 1e-10, "fatol": OBJECTIVE_TOL},
        )
        evals += res.nfev
        if res.fun < best_f:
            best_f, best_x = res.fun, res.x
    # Shrink-restart from the incumbent in case a run stagnated early.
    res = minimize(
        fun, best_x, method="Nelder-Mead",
        options={"maxiter": MAX_ITERS, "xatol": 1e-12, "fatol": OBJECTIVE_TOL},
    )
    evals += res.nfev
    if res.fun < best_f:
        best_f, best_x = res.fun, res.x
    return best_f, best_x, evals


def _angles(z: float):
    """(d, D) = (arccos z, arccos z^2), as :class:`TwoStateSet` computes them."""
    return float(np.arccos(z)), float(np.arccos(min(z * z, 1.0)))


def _search(cfg: SearchConfig, warm: np.ndarray, fun, bound_re: float,
            gap) -> SearchOutcome:
    """Minimize ``fun`` from ``warm`` plus ``cfg.restarts`` seeded random starts.

    ``gap(ae_gap, re_gap)`` turns the distances of the best point above the
    AE floor and above ``bound_re`` into ``attained_within``.
    """
    rng = np.random.default_rng(cfg.seed)
    starts = [warm]
    for _ in range(cfg.restarts):
        starts.append(0.5 * rng.standard_normal(params_length(SUBSPACE_DIM)))

    _, best_x, evals = _run_minimize(fun, starts)

    v, v_psi, _ = _coords_from_params(best_x, cfg.z, SUBSPACE_DIM)
    x_phi, x_psi, _, _ = _pair_errors(v, v_psi, cfg.z)
    best_ae = x_phi + x_psi
    best_re = best_ae / np.sqrt(1.0 - cfg.z ** 4)
    bound_ae = float(ae_lower_bound(cfg.z))
    return SearchOutcome(
        best_ae=float(best_ae),
        best_re=float(best_re),
        bound_ae=bound_ae,
        bound_re=bound_re,
        attained_within=float(gap(best_ae - bound_ae, best_re - bound_re)),
        best_params=best_x,
        trials=evals,
    )


def minimize_objective(objective: str, cfg: SearchConfig) -> SearchOutcome:
    """Minimize AE or RE over realizable pairs in the search subspace.

    Runs ``cfg.restarts`` seeded random starts plus a warm start at the
    asymmetric machine. The outcome reports the AE and RE at the best
    point found together with the analytic floors.
    """
    if objective not in ("ae", "re"):
        raise ValueError(f"objective must be 'ae' or 're', got {objective!r}")
    if cfg.z <= 0.0:
        raise ValueError("minimization needs 0 < z < 1")
    return _search(cfg, warm_start_params(cfg.z, SUBSPACE_DIM),
                   _objective_factory(objective, cfg.z, SUBSPACE_DIM),
                   float(re_lower_bound(cfg.z)), max)


def minimize_symmetric_re(cfg: SearchConfig) -> SearchOutcome:
    """Minimize RE restricted to equal error angles on both branches.

    The restriction |q_phi| = |q_psi| is enforced by a stiff quadratic
    penalty; the symmetric machine itself satisfies it exactly and serves
    as the warm start. The relevant floor is the symmetric closed form,
    reported in ``bound_re``.
    """
    if cfg.z <= 0.0:
        raise ValueError("minimization needs 0 < z < 1")
    m = SUBSPACE_DIM

    # Warm start: the symmetric machine, in plane coordinates. Its V_psi
    # sits at plane angle big - theta, and W is the unit residual of
    # V_psi against V_phi.
    small, big = _angles(cfg.z)
    theta = (big - small) / 2.0
    v_sym = np.zeros(m, dtype=np.complex128)
    v_sym[0], v_sym[1] = np.cos(theta), np.sin(theta)
    v_psi_sym = np.zeros(m, dtype=np.complex128)
    v_psi_sym[0], v_psi_sym[1] = np.cos(big - theta), np.sin(big - theta)
    w_dir = v_psi_sym - v_sym * np.vdot(v_sym, v_psi_sym)
    w_dir /= np.linalg.norm(w_dir)

    return _search(cfg, encode_params(v_sym, w_dir),
                   _objective_factory("re", cfg.z, m, symmetric_penalty=1e8),
                   closed_form_re_s(cfg.z), lambda ae_gap, re_gap: re_gap)


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


def random_cloner_sweep(cfg: SearchConfig, n: int = 10_000) -> SweepStats:
    """Sample ``n`` realizable pairs uniformly and check floors and chains.

    Sampling is Gaussian-then-normalize inside the subspace for V_phi and
    for the orthogonal direction W, so the constraint <V_phi|V_psi> = z
    holds exactly on every sample.
    """
    if n < 1:
        raise ValueError("need at least one sample")
    z, m = cfg.z, SUBSPACE_DIM
    rng = np.random.default_rng(cfg.seed)

    v = rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    w = rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))
    w -= v * np.einsum("bi,bi->b", v.conj(), w)[:, None]
    w /= np.linalg.norm(w, axis=1, keepdims=True)
    v_psi = z * v + np.sqrt(1.0 - z * z) * w

    u = _psi_axis(z, m)
    q_phi = np.abs(v[:, 0])
    q_psi_c = v_psi @ u.conj()
    q_psi = np.abs(q_psi_c)
    x_phi = np.linalg.norm(v[:, 1:], axis=1)
    x_psi = np.linalg.norm(v_psi - u[None, :] * q_psi_c[:, None], axis=1)
    ae = x_phi + x_psi

    defined = np.minimum(q_phi, q_psi) > DEGENERATE_TOL
    sin_big = np.sqrt(1.0 - z ** 4)
    re = np.where(defined, ae / sin_big, np.inf)

    bound_ae = float(ae_lower_bound(z))
    bound_re = float(re_lower_bound(z))

    # Chain inequalities: angles from the actual sampled vectors.
    delta_phi = np.arccos(np.minimum(q_phi, 1.0))
    delta_psi = np.arccos(np.minimum(q_psi, 1.0))
    small, big = _angles(z)
    chain1 = delta_phi + delta_psi + _batch_angle(v, v_psi) - big
    chain2 = delta_phi + delta_psi - (big - small)

    re_defined = re[defined]
    return SweepStats(
        z=z,
        trials=n,
        seed=cfg.seed,
        ae_min=float(ae.min()),
        ae_mean=float(ae.mean()),
        ae_max=float(ae.max()),
        re_min=float(re_defined.min()) if re_defined.size else np.nan,
        re_mean=float(re_defined.mean()) if re_defined.size else np.nan,
        re_max=float(re_defined.max()) if re_defined.size else np.nan,
        floor_violations_ae=int(np.count_nonzero(ae < bound_ae - FLOOR_TOL)),
        floor_violations_re=int(np.count_nonzero(re_defined < bound_re - FLOOR_TOL)),
        chain1_violations=int(np.count_nonzero(chain1 < -CHAIN_TOL)),
        chain2_violations=int(np.count_nonzero(chain2 < -CHAIN_TOL)),
        min_chain_slack=float(min(chain1.min(), chain2.min())),
        undefined_re=int(np.count_nonzero(~defined)),
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
    """Optimize both objectives and sweep at one overlap value."""
    cfg = SearchConfig(z=z, restarts=restarts, seed=seed)
    out_ae = minimize_objective("ae", cfg)
    out_re = minimize_objective("re", cfg)
    sweep = random_cloner_sweep(cfg, n=sweep_trials)
    violations = sweep.floor_violations
    if out_ae.best_ae < out_ae.bound_ae - FLOOR_TOL:
        violations += 1
    if out_re.best_re < out_re.bound_re - FLOOR_TOL:
        violations += 1
    gap = max(out_ae.best_ae - out_ae.bound_ae, out_re.best_re - out_re.bound_re)
    return VerifyRecord(
        z=z,
        bound_ae=out_ae.bound_ae,
        bound_re=out_re.bound_re,
        best_ae=out_ae.best_ae,
        best_re=out_re.best_re,
        violations=violations,
        trials=out_ae.trials + out_re.trials + sweep.trials,
        seed=seed,
        attainment_gap=float(gap),
        sweep=sweep,
    )
