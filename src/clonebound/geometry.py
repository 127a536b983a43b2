"""Angle-metric inequality suite.

Four facts about the angle between unit vectors, each exposed as a single
check returning an :class:`InequalityReport`, plus seeded random sweeps
that hammer every check over dimensions 2..8:

1. cos(angle(a, c)) <= cos(angle(a, b) - angle(b, c)), equality only for
   coplanar triplets.
2. The spherical triangle inequality
   angle(a, b) <= angle(a, c) + angle(b, c).
3. | |<t|a>|^2 - |<t|b>|^2 | <= sin(angle(a, b)).
4. |<a|P|a> - <b|P|b>| <= sin(angle(a, b)) for any orthogonal projector P,
   i.e. close states generate close outcome statistics for any measurement.

A corollary of (4): if two unitaries satisfy ||U - V|| <= eps in spectral
norm, any outcome probability after U differs from the one after V by at
most eps*sqrt(1 - eps^2/4) (see :func:`gate_bound`).
"""

from __future__ import annotations

import os
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .statespace import (
    Projector,
    angle,
    as_state,
    check_unit,
    check_unitary,
    measure_prob,
    phase_fixed_q,
    random_states,
    spectral_norms,
)

DEFAULT_SWEEP_TOL = 1e-10
DEFAULT_DIMS = (2, 3, 4, 5, 6, 7, 8)
# Largest perturbation size eta in the gate-approximation sweep.
GATE_MAX_PERTURBATION = 0.3


@dataclass(frozen=True)
class InequalityReport:
    """Outcome of a single inequality check: lhs <= rhs within tol."""

    lhs: float
    rhs: float
    slack: float
    holds: bool
    tol: float

    @classmethod
    def compare(cls, lhs: float, rhs: float, tol: float) -> "InequalityReport":
        slack = rhs - lhs
        return cls(lhs=lhs, rhs=rhs, slack=slack, holds=slack >= -tol, tol=tol)


@dataclass(frozen=True)
class SweepResult:
    """Summary of a randomized sweep of one inequality.

    ``closest`` is the address (dim, block, size, index) of the sample with
    the least slack, the earliest one on a tie, for :func:`replay_sample`;
    ``None`` when the sweep drew no trial. A NaN slack counts as a
    violation and is the least slack.
    """

    name: str
    trials: int
    min_slack: float
    violations: int
    seed: int
    tol: float
    closest: tuple[int, int, int, int] | None

    @property
    def passed(self) -> bool:
        return self.violations == 0


def _triple_angles(a, b, c):
    a = check_unit(as_state(a))
    b = check_unit(as_state(b))
    c = check_unit(as_state(c))
    if not a.shape == b.shape == c.shape:
        raise ValueError("all three states must share one dimension")
    return a, b, c


def lemma1_check(phi, ups, psi, tol: float = DEFAULT_SWEEP_TOL) -> InequalityReport:
    """cos(angle(phi, psi)) <= cos(angle(phi, ups) - angle(ups, psi))."""
    phi, ups, psi = _triple_angles(phi, ups, psi)
    lhs = np.cos(angle(phi, psi))
    rhs = np.cos(angle(phi, ups) - angle(ups, psi))
    return InequalityReport.compare(float(lhs), float(rhs), tol)


def lemma2_defect(phi, ups, psi, tol: float = DEFAULT_SWEEP_TOL) -> InequalityReport:
    """Spherical triangle inequality: angle(phi, ups) <= angle(phi, psi) + angle(ups, psi)."""
    phi, ups, psi = _triple_angles(phi, ups, psi)
    lhs = angle(phi, ups)
    rhs = angle(phi, psi) + angle(ups, psi)
    return InequalityReport.compare(lhs, rhs, tol)


def lemma3_check(theta, phi, psi, tol: float = DEFAULT_SWEEP_TOL) -> InequalityReport:
    """| |<theta|phi>|^2 - |<theta|psi>|^2 | <= sin(angle(phi, psi))."""
    theta, phi, psi = _triple_angles(theta, phi, psi)
    lhs = abs(abs(np.vdot(theta, phi)) ** 2 - abs(np.vdot(theta, psi)) ** 2)
    rhs = np.sin(angle(phi, psi))
    return InequalityReport.compare(float(lhs), float(rhs), tol)


def lemma4_check(p: Projector, phi, psi, tol: float = DEFAULT_SWEEP_TOL) -> InequalityReport:
    """|<phi|P|phi> - <psi|P|psi>| <= sin(angle(phi, psi))."""
    lhs = abs(measure_prob(p, phi) - measure_prob(p, psi))
    rhs = np.sin(angle(phi, psi))
    return InequalityReport.compare(float(lhs), float(rhs), tol)


def gate_bound(epsilon: float) -> float:
    """Probability-deviation bound eps*sqrt(1 - eps^2/4) for 0 <= eps <= 2.

    Increasing on [0, sqrt(2)], equal to 1 at eps = sqrt(2), and never
    larger than eps itself.
    """
    if not 0.0 <= epsilon <= 2.0:
        raise ValueError(f"epsilon must be in [0, 2], got {epsilon!r}")
    return float(epsilon * np.sqrt(1.0 - epsilon * epsilon / 4.0))


def gate_approx_check(u, v, sigma, p: Projector, tol: float = DEFAULT_SWEEP_TOL) -> InequalityReport:
    """Outcome-probability deviation between two close unitaries.

    Computes eps = ||u - v|| (largest singular value) and checks

        |P(R | u sigma) - P(R | v sigma)| <= gate_bound(min(eps, 2)).
    """
    u = check_unitary(u)
    v = check_unitary(v)
    sigma = check_unit(as_state(sigma))
    if u.shape != v.shape or u.shape[1] != sigma.shape[0]:
        raise ValueError("unitaries and state must share one dimension")
    eps = float(spectral_norms((u - v)[None])[0])
    lhs = abs(measure_prob(p, u @ sigma) - measure_prob(p, v @ sigma))
    rhs = gate_bound(min(eps, 2.0))
    return InequalityReport.compare(lhs, rhs, tol)


# ---------------------------------------------------------------------------
# Equality witnesses: coplanar configurations where the bounds are tight.
# ---------------------------------------------------------------------------

def coplanar_state(theta: float, dim: int = 2) -> np.ndarray:
    """Real-plane state cos(theta) e1 + sin(theta) e2 embedded in ``dim``."""
    v = np.zeros(dim, dtype=np.complex128)
    v[0] = np.cos(theta)
    v[1] = np.sin(theta)
    return v


def coplanar_equality_witness(dim: int = 2, outer: float = np.radians(50.0),
                              middle: float = np.radians(20.0)):
    """Triplet (phi, ups, psi) achieving equality in checks 1 and 2.

    phi, ups, psi sit in one real plane at axis angles 0, ``outer`` and
    ``middle``; psi lies angularly between phi and ups, which is exactly
    the degenerate great-circle configuration where the triangle
    inequality is an equality.
    """
    if not 0.0 < middle < outer <= np.pi / 2:
        raise ValueError("need 0 < middle < outer <= pi/2")
    return (
        coplanar_state(0.0, dim),
        coplanar_state(outer, dim),
        coplanar_state(middle, dim),
    )


def lemma4_saturation_witness(delta: float, dim: int = 2):
    """(projector, phi, psi) saturating check 4: lhs = sin(delta) exactly.

    phi and psi straddle a bisector axis at +/- delta/2; the rank-1
    projector direction sits at 45 degrees from that axis, where
    cos^2(pi/4 + delta/2) - cos^2(pi/4 - delta/2) = -sin(delta).
    """
    if not 0.0 < delta <= np.pi / 2:
        raise ValueError("delta must be in (0, pi/2]")
    phi = coplanar_state(-delta / 2.0, dim)
    psi = coplanar_state(+delta / 2.0, dim)
    theta = coplanar_state(np.pi / 4.0, dim)
    return Projector(theta[None, :]), phi, psi


# ---------------------------------------------------------------------------
# Seeded random sweeps. Each dimension's share of the trials is drawn in
# blocks of SWEEP_BLOCK trials, each block from its own generator (see
# sweep_blocks). Blocks run concurrently on a thread pool with one worker
# per usable CPU, and no more workers than dimensions: the batched LAPACK
# calls, einsum and the generator fills release the interpreter lock. A
# block shares no state with another, and the sweep folds the blocks'
# minima and counts in block order, so the result does not depend on which
# block finishes first. A sweep keeps only running summaries and a bounded
# window of blocks in flight, so its memory is bounded for any trial count,
# and (seed, dim, block, index) pins every sample exactly.
# ---------------------------------------------------------------------------

#: Trials drawn at once by every sweep.
SWEEP_BLOCK = 4096


def sweep_blocks(n: int, dim: int, seed: int):
    """Yield (generator, size) for each block of ``n`` trials in dimension ``dim``.

    Block b draws from ``SeedSequence(seed, spawn_key=(dim, b))``. A count
    beyond the largest array index is rejected before any block.
    """
    if n > np.iinfo(np.intp).max:
        raise ValueError("Maximum allowed dimension exceeded")
    for block, start in enumerate(range(0, n, SWEEP_BLOCK)):
        yield _block_rng(seed, dim, block), min(SWEEP_BLOCK, n - start)


def _block_rng(seed: int, dim: int, block: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(dim, block)))


def _split_trials(trials: int, dims) -> list[tuple[int, int]]:
    dims = tuple(dims)
    # A dimension's blocks are seeded by (dim, block): a repeat would draw
    # the same samples twice and count them as new trials.
    if len(set(dims)) != len(dims):
        raise ValueError(f"dimensions must be distinct, got {dims}")
    base, extra = divmod(trials, len(dims))
    return [(d, base + (1 if i < extra else 0)) for i, d in enumerate(dims)]


def _batch_angle(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    ov = np.abs(np.einsum("bi,bi->b", x.conj(), y))
    return np.arccos(np.minimum(ov, 1.0))


def _random_projector_probs(states: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Per-trial outcome probabilities ||P s||^2 for random projectors.

    ``states`` has shape (n, k, dim): k states per trial sharing one
    projector of rank uniform in 1..dim-1 (rank 1 when dim = 2). Trials are
    grouped by rank so the QR factorizations batch.
    """
    n, k, dim = states.shape
    ranks = rng.integers(1, dim, size=n) if dim > 2 else np.ones(n, dtype=int)
    probs = np.empty((n, k))
    for rank in np.unique(ranks):
        idx = np.nonzero(ranks == rank)[0]
        g = rng.standard_normal((idx.size, dim, rank)) + 1j * rng.standard_normal(
            (idx.size, dim, rank)
        )
        q, _ = np.linalg.qr(g)
        # coeff[b, j, r] = <q_r | state_j> for trial b
        coeff = np.einsum("bir,bji->bjr", q.conj(), states[idx])
        probs[idx] = np.sum(np.abs(coeff) ** 2, axis=2)
    return probs


def _usable_cpus() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity mask on this platform
        return os.cpu_count() or 1


def _in_order(fn, items, workers: int):
    """Yield ``fn(*item)`` for each of ``items``, in order, from ``workers`` threads.

    At most two items per worker are in flight, so ``items`` is read only
    that far ahead. When a call raises, the calls not yet started are
    cancelled and its exception propagates.
    """
    pool = ThreadPoolExecutor(workers)
    pending = deque()
    try:
        for item in items:
            pending.append(pool.submit(fn, *item))
            if len(pending) == 2 * workers:
                yield pending.popleft().result()
        while pending:
            yield pending.popleft().result()
    finally:
        pool.shutdown(cancel_futures=True)


def _sweep(name: str, slack, trials: int, dims, seed: int, tol: float) -> SweepResult:
    """Run ``slack(n, dim, rng)`` (rhs - lhs per trial) over every block."""

    def run(dim, block, rng, size):
        s = slack(size, dim, rng)
        index = int(np.argmin(s))  # the first NaN, if there is one
        return float(s[index]), (dim, block, size, index), int(
            np.count_nonzero(~(s >= -tol)))

    splits = _split_trials(trials, dims)
    blocks = ((dim, block, rng, size) for dim, n in splits
              for block, (rng, size) in enumerate(sweep_blocks(n, dim, seed)))
    # No more workers than dimensions: a sweep runs at most as many blocks
    # at once as it has dimensions, so a one-dimension sweep runs its blocks
    # one at a time and holds what the serial sweep held.
    workers = min(_usable_cpus(), len(splits))
    min_slack, closest, violations = np.inf, None, 0
    for low, address, bad in _in_order(run, blocks, workers):
        violations += bad
        # Strictly lower, so the earliest block wins a tie; a NaN beats any number.
        if closest is None or low < min_slack or np.isnan(low) > np.isnan(min_slack):
            min_slack, closest = low, address
    return SweepResult(name, trials, min_slack, violations, seed, tol, closest)


def _lemma1_slack(n, dim, rng):
    t = random_states(3 * n, dim, rng).reshape(n, 3, dim)
    phi, ups, psi = t[:, 0], t[:, 1], t[:, 2]
    return np.cos(_batch_angle(phi, ups) - _batch_angle(ups, psi)) - np.cos(
        _batch_angle(phi, psi)
    )


def _lemma2_slack(n, dim, rng):
    t = random_states(3 * n, dim, rng).reshape(n, 3, dim)
    phi, ups, psi = t[:, 0], t[:, 1], t[:, 2]
    return _batch_angle(phi, psi) + _batch_angle(ups, psi) - _batch_angle(phi, ups)


def _lemma3_slack(n, dim, rng):
    t = random_states(3 * n, dim, rng).reshape(n, 3, dim)
    theta, phi, psi = t[:, 0], t[:, 1], t[:, 2]
    lhs = np.abs(
        np.abs(np.einsum("bi,bi->b", theta.conj(), phi)) ** 2
        - np.abs(np.einsum("bi,bi->b", theta.conj(), psi)) ** 2
    )
    return np.sin(_batch_angle(phi, psi)) - lhs


def _lemma4_slack(n, dim, rng):
    pair = random_states(2 * n, dim, rng).reshape(n, 2, dim)
    probs = _random_projector_probs(pair, rng)
    lhs = np.abs(probs[:, 0] - probs[:, 1])
    return np.sin(_batch_angle(pair[:, 0], pair[:, 1])) - lhs


def _gate_approx_slack(n, dim, rng):
    gu = rng.standard_normal((n, dim, dim)) + 1j * rng.standard_normal((n, dim, dim))
    u = phase_fixed_q(gu)
    del gu

    g = rng.standard_normal((n, dim, dim)) + 1j * rng.standard_normal((n, dim, dim))
    g /= spectral_norms(g)[:, None, None]
    eta = rng.uniform(0.0, GATE_MAX_PERTURBATION, size=n)
    g *= eta[:, None, None]
    g += u
    v = phase_fixed_q(g)  # of u + eta * g, built in place
    del g

    sigma = random_states(n, dim, rng)
    out = np.stack(
        [np.einsum("bij,bj->bi", u, sigma), np.einsum("bij,bj->bi", v, sigma)],
        axis=1,
    )
    u -= v  # only u - v is needed from here on
    eps = np.minimum(spectral_norms(u), 2.0)
    rhs = eps * np.sqrt(1.0 - eps * eps / 4.0)

    probs = _random_projector_probs(out, rng)
    return rhs - np.abs(probs[:, 0] - probs[:, 1])


def sweep_lemma1(trials: int, dims=DEFAULT_DIMS, seed: int = 0,
                 tol: float = DEFAULT_SWEEP_TOL) -> SweepResult:
    return _sweep("lemma1", _lemma1_slack, trials, dims, seed, tol)


def sweep_lemma2(trials: int, dims=DEFAULT_DIMS, seed: int = 0,
                 tol: float = DEFAULT_SWEEP_TOL) -> SweepResult:
    return _sweep("lemma2", _lemma2_slack, trials, dims, seed, tol)


def sweep_lemma3(trials: int, dims=DEFAULT_DIMS, seed: int = 0,
                 tol: float = DEFAULT_SWEEP_TOL) -> SweepResult:
    return _sweep("lemma3", _lemma3_slack, trials, dims, seed, tol)


def sweep_lemma4(trials: int, dims=DEFAULT_DIMS, seed: int = 0,
                 tol: float = DEFAULT_SWEEP_TOL) -> SweepResult:
    return _sweep("lemma4", _lemma4_slack, trials, dims, seed, tol)


def sweep_gate_approx(trials: int, dims=DEFAULT_DIMS, seed: int = 0,
                      tol: float = DEFAULT_SWEEP_TOL) -> SweepResult:
    """Random (U, perturbed V, state, projector) trials of the gate bound.

    V is the QR re-orthonormalization of U + eta*G with the Gaussian
    direction G scaled to unit spectral norm and eta uniform in
    [0, GATE_MAX_PERTURBATION], which keeps eps = ||U - V|| well inside the
    bound's valid range eps <= sqrt(2).
    """
    return _sweep("gate_approx", _gate_approx_slack, trials, dims, seed, tol)


#: Sweeps driven by the command-line ``lemmas`` command, in print order.
ALL_SWEEPS = (
    ("lemma1", sweep_lemma1),
    ("lemma2", sweep_lemma2),
    ("lemma3", sweep_lemma3),
    ("lemma4", sweep_lemma4),
    ("gate_approx", sweep_gate_approx),
)


def replay_sample(name: str, seed: int, dim: int, block: int, size: int,
                  index: int) -> float:
    """Slack of one sample of the sweep ``name``, rebuilt from its address.

    ``(dim, block, size, index)`` is a :attr:`SweepResult.closest`; the
    result equals that sweep's ``min_slack`` bit for bit.
    """
    slack = {"lemma1": _lemma1_slack, "lemma2": _lemma2_slack,
             "lemma3": _lemma3_slack, "lemma4": _lemma4_slack,
             "gate_approx": _gate_approx_slack}[name]
    return float(slack(size, dim, _block_rng(seed, dim, block))[index])
