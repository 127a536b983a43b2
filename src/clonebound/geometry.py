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
most eps*sqrt(1 - eps^2/4) while eps <= sqrt(2); beyond, U^H V can turn a
state orthogonal and the bound is 1 (see :func:`gate_bound`).

Each inequality is written once (``_lemma1`` .. ``_gate_approx``): a check
evaluates it on a stack of one sample, a sweep on the stacks that its draw
makes (``_SWEEPS``). The gate's is its bound on a deviation: of the
caller's projector in the check, of every projector at once (lemma 4's
right side) in the sweep. Every angle comes from statespace's one atan2
kernel, every outcome probability from its one ||P s||^2 kernel.
"""

from __future__ import annotations

import os
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .statespace import (
    Projector, _angles, _check_same_dim, _dots, _outcome_probs, _projector_probs, as_state,
    check_unit, check_unitary, random_states,
)

# Rounding allowance of every inequality verdict in the package (_violations).
DEFAULT_SWEEP_TOL = 1e-10
DEFAULT_DIMS = (2, 3, 4, 5, 6, 7, 8)


def _violations(slack, tol: float = DEFAULT_SWEEP_TOL) -> int:
    """How many samples break lhs <= rhs: their slack rhs - lhs is below -tol, or NaN."""
    return int(np.count_nonzero(~(np.asarray(slack) >= -tol)))


@dataclass(frozen=True)
class InequalityReport:
    """Outcome of a single inequality check: lhs <= rhs within DEFAULT_SWEEP_TOL."""

    lhs: float
    rhs: float
    slack: float
    holds: bool

    @classmethod
    def compare(cls, lhs: float, rhs: float) -> "InequalityReport":
        slack = rhs - lhs
        return cls(lhs=lhs, rhs=rhs, slack=slack, holds=_violations(slack) == 0)


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
    closest: tuple[int, int, int, int] | None

    @property
    def passed(self) -> bool:
        return self.violations == 0


# ---------------------------------------------------------------------------
# The inequalities, each written once: a function of stacks of samples (one
# trial per row; probs[:, j] is an outcome's probability in state j) that
# returns the (lhs, rhs) arrays of lhs <= rhs. A check validates its sample
# and evaluates its inequality on a stack of one.
# ---------------------------------------------------------------------------

def _lemma1(phi, ups, psi):
    return np.cos(_angles(phi, psi)), np.cos(_angles(phi, ups) - _angles(ups, psi))


def _lemma2(phi, ups, psi):
    return _angles(phi, ups), _angles(phi, psi) + _angles(ups, psi)


def _lemma3(theta, phi, psi):
    lhs = np.abs(np.abs(_dots(theta, phi)) ** 2 - np.abs(_dots(theta, psi)) ** 2)
    return lhs, np.sin(_angles(phi, psi))


def _lemma4(phi, psi, q):  # q: P's frame, orthonormal or zero columns
    probs = _outcome_probs(q, np.stack([phi, psi], axis=1))
    return np.abs(probs[:, 0] - probs[:, 1]), np.sin(_angles(phi, psi))


def _gate_approx(theta, deviation):  # theta: the eigenphases of U^H V
    return deviation, _gate_bound(_gate_epsilon(theta))


def _gate_epsilon(theta):
    """||U - V|| = ||I - U^H V|| = max_k |1 - exp(i theta_k)|, theta the eigenphases."""
    return 2.0 * np.max(np.abs(np.sin(theta / 2.0)), axis=-1)


def _gate_bound(eps):
    # No range check: a NaN eps in a sweep must stay a violation, and
    # NaN > sqrt(2) is False.
    return np.where(eps > np.sqrt(2.0), 1.0, eps * np.sqrt(1.0 - eps * eps / 4.0))


def _report(inequality, *sample) -> InequalityReport:
    lhs, rhs = inequality(*(np.asarray(x)[None] for x in sample))
    return InequalityReport.compare(float(lhs[0]), float(rhs[0]))


def _unit_states(*states):
    states = [check_unit(as_state(x)) for x in states]
    if len({x.shape for x in states}) > 1:
        raise ValueError("all states must share one dimension")
    return states


def lemma1_check(phi, ups, psi) -> InequalityReport:
    """cos(angle(phi, psi)) <= cos(angle(phi, ups) - angle(ups, psi))."""
    return _report(_lemma1, *_unit_states(phi, ups, psi))


def lemma2_defect(phi, ups, psi) -> InequalityReport:
    """Spherical triangle inequality: angle(phi, ups) <= angle(phi, psi) + angle(ups, psi)."""
    return _report(_lemma2, *_unit_states(phi, ups, psi))


def lemma3_check(theta, phi, psi) -> InequalityReport:
    """| |<theta|phi>|^2 - |<theta|psi>|^2 | <= sin(angle(phi, psi))."""
    return _report(_lemma3, *_unit_states(theta, phi, psi))


def lemma4_check(p: Projector, phi, psi) -> InequalityReport:
    """|<phi|P|phi> - <psi|P|psi>| <= sin(angle(phi, psi))."""
    phi, psi = _unit_states(phi, psi)
    _check_same_dim(phi, p.basis[0])
    return _report(_lemma4, phi, psi, p.basis.T)


def gate_bound(epsilon: float) -> float:
    """Probability-deviation bound for ||U - V|| = eps, 0 <= eps <= 2.

    eps*sqrt(1 - eps^2/4) up to eps = sqrt(2), where it reaches 1, and 1
    beyond, where U^H V can turn a state orthogonal to itself. Increasing
    on [0, sqrt(2)] and never larger than eps itself.
    """
    if not 0.0 <= epsilon <= 2.0:
        raise ValueError(f"epsilon must be in [0, 2], got {epsilon!r}")
    return float(_gate_bound(epsilon))


def gate_approx_check(u, v, sigma, p: Projector) -> InequalityReport:
    """Outcome-probability deviation between two close unitaries.

    Computes eps = ||u - v|| = max_k |1 - exp(i theta_k)| from the
    eigenphases theta_k of u^H v and checks

        |P(R | u sigma) - P(R | v sigma)| <= gate_bound(eps).
    """
    u, v = check_unitary(u), check_unitary(v)
    sigma = check_unit(as_state(sigma))
    if u.shape != v.shape or u.shape[1] != sigma.shape[0]:
        raise ValueError("unitaries and state must share one dimension")
    out = np.einsum("bij,bj->bi", np.stack([u, v]), np.stack([sigma, sigma]))
    probs = _projector_probs(p, out)
    theta = np.angle(np.linalg.eigvals(u.conj().T @ v))
    return _report(_gate_approx, theta, np.abs(probs[0] - probs[1]))


# ---------------------------------------------------------------------------
# Equality witnesses: coplanar configurations where the bounds are tight.
# ---------------------------------------------------------------------------

def coplanar_state(theta: float, dim: int = 2) -> np.ndarray:
    """Real-plane state cos(theta) e1 + sin(theta) e2 embedded in ``dim``."""
    if dim < 2:
        raise ValueError(f"a coplanar state needs dimension >= 2, got {dim}")
    v = np.zeros(dim, dtype=np.complex128)
    v[0] = np.cos(theta)
    v[1] = np.sin(theta)
    return v


def coplanar_equality_witness(dim: int = 2):
    """Triplet (phi, ups, psi) achieving equality in checks 1 and 2.

    phi, ups, psi sit in one real plane at axis angles 0, 50 and 20
    degrees; psi lies angularly between phi and ups, which is exactly the
    degenerate great-circle configuration where the triangle inequality is
    an equality.
    """
    return tuple(coplanar_state(np.radians(deg), dim) for deg in (0.0, 50.0, 20.0))


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
# Seeded random sweeps: the five of _SWEEPS and search.random_cloner_sweep.
# Each dimension's share of the trials is drawn in blocks of SWEEP_BLOCK
# trials, each block from its own generator (see sweep_blocks). Blocks run
# concurrently on a thread pool with one worker per usable CPU, and no more
# workers than dimensions: einsum, the ufuncs and the generator fills
# release the interpreter lock. A block shares no state
# with another, and each sweep folds the blocks' summaries in block order
# (see _block_summaries), so the result does not depend on which block
# finishes first. A sweep keeps only running summaries and a bounded
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
    _check_count(n)
    for block, start in enumerate(range(0, n, SWEEP_BLOCK)):
        yield _block_rng(seed, dim, block), min(SWEEP_BLOCK, n - start)


def _check_count(n: int) -> None:
    """Reject a count beyond the largest array index, with numpy's message."""
    if n > np.iinfo(np.intp).max:
        raise ValueError("Maximum allowed dimension exceeded")


def _block_rng(seed: int, dim: int, block: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(dim, block)))


def _split_trials(trials: int, dims) -> list[tuple[int, int]]:
    dims = tuple(dims)
    if trials < 0:
        raise ValueError(f"trial count must be >= 0, got {trials}")
    if not dims:
        raise ValueError("need one or more dimensions")
    # The lowest only: a range can hold more dimensions than a line should.
    if min(dims) < 2:
        raise ValueError(f"dimensions must all be >= 2, got {min(dims)}")
    # A dimension's blocks are seeded by (dim, block): a repeat would draw
    # the same samples twice and count them as new trials.
    if len(set(dims)) != len(dims):
        raise ValueError(f"dimensions must be distinct, got {dims}")
    base, extra = divmod(trials, len(dims))
    return [(d, base + (1 if i < extra else 0)) for i, d in enumerate(dims)]


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


def _block_summaries(summarize, trials: int, dims, seed: int):
    """Yield ``summarize(dim, block, rng, size)`` for every block of ``trials``
    split over ``dims``, in block order.

    A bad split is rejected here; a count beyond the largest array index,
    when the first summary is asked for.
    """
    splits = _split_trials(trials, dims)
    blocks = ((dim, block, rng, size) for dim, n in splits
              for block, (rng, size) in enumerate(sweep_blocks(n, dim, seed)))
    # No more workers than dimensions: a sweep runs at most as many blocks
    # at once as it has dimensions, so a one-dimension sweep runs its blocks
    # one at a time and holds what a serial sweep holds.
    return _in_order(summarize, blocks, min(_usable_cpus(), len(splits)))


def _draw_triples(n, dim, rng):
    t = random_states(3 * n, dim, rng).reshape(n, 3, dim)
    return t[:, 0], t[:, 1], t[:, 2]


def _draw_lemma4(n, dim, rng):
    """Random (phi, psi, frame of P) trials of lemma 4. The slack does not change
    when all three are conjugated by one unitary, and phi, psi are Haar and drawn
    apart from P, so P projects onto the first r coordinates, r uniform in 1..dim-1."""
    pair = random_states(2 * n, dim, rng).reshape(n, 2, dim)
    ranks = rng.integers(1, dim, size=(n, 1, 1))
    return pair[:, 0], pair[:, 1], np.eye(dim, dim - 1) * (np.arange(dim - 1) < ranks)


def _draw_gate_approx(n, dim, rng):
    """Random (eigenphases of U^H V, sigma) trials of the gate bound.

    The deviation's supremum over projectors, sin(angle(U sigma, V sigma))
    (lemma 4, which is sharp), does not change when sigma, U and V are all
    conjugated by one unitary, and sigma is Haar and drawn apart from the
    gates. So (U sigma, V sigma) has the law of (sigma', D sigma'), D =
    diag(exp(i theta)) with theta the eigenphases of U^H V, and only D is
    drawn: theta = t w, with t uniform in [0, pi/2] per trial and w uniform
    in [-1, 1]^dim, so eps = ||I - D|| spans [0, sqrt(2)], the range where
    the bound is below 1.
    """
    sigma = random_states(n, dim, rng)
    theta = rng.uniform(0.0, np.pi / 2.0, size=(n, 1)) * rng.uniform(-1.0, 1.0, size=(n, dim))
    return theta, sigma


def _gate_sup(theta, sigma):
    """The gate bound on (sigma, D sigma) against the deviation of every
    projector at once, sin(angle(sigma, D sigma)): lemma 4's right side."""
    return _gate_approx(theta, np.sin(_angles(sigma, np.exp(1j * theta) * sigma)))


#: name -> (draw, inequality) of each sweep, in ``lemmas`` print order. A
#: draw ``(n, dim, rng)`` returns the ``n``-sample stacks its inequality takes.
_SWEEPS = {
    "lemma1": (_draw_triples, _lemma1),
    "lemma2": (_draw_triples, _lemma2),
    "lemma3": (_draw_triples, _lemma3),
    "lemma4": (_draw_lemma4, _lemma4),
    "gate_approx": (_draw_gate_approx, _gate_sup),
}


def _slack(name: str, n: int, dim: int, rng: np.random.Generator) -> np.ndarray:
    """rhs - lhs of sweep ``name`` on ``n`` samples drawn from ``rng``."""
    draw, inequality = _SWEEPS[name]
    lhs, rhs = inequality(*draw(n, dim, rng))
    return rhs - lhs


def _sweep(name: str, trials: int, dims, seed: int, tol: float) -> SweepResult:
    def run(dim, block, rng, size):
        s = _slack(name, size, dim, rng)
        index = int(np.argmin(s))  # the first NaN, if there is one
        return float(s[index]), (dim, block, size, index), _violations(s, tol)

    min_slack, closest, violations = np.inf, None, 0
    for low, address, bad in _block_summaries(run, trials, dims, seed):
        violations += bad
        # Strictly lower, so the earliest block wins a tie; a NaN beats any number.
        if closest is None or low < min_slack or np.isnan(low) > np.isnan(min_slack):
            min_slack, closest = low, address
    return SweepResult(name, trials, min_slack, violations, closest)


def _sweep_function(name: str):
    def sweep(trials: int, dims=DEFAULT_DIMS, seed: int = 0,
              tol: float = DEFAULT_SWEEP_TOL) -> SweepResult:
        return _sweep(name, trials, dims, seed, tol)
    sweep.__name__ = sweep.__qualname__ = f"sweep_{name}"
    return sweep


#: Sweeps driven by the command-line ``lemmas`` command, in print order.
ALL_SWEEPS = tuple((name, _sweep_function(name)) for name in _SWEEPS)
sweep_lemma1, sweep_lemma2, sweep_lemma3, sweep_lemma4, sweep_gate_approx = (
    sweep for _, sweep in ALL_SWEEPS)


def replay_sample(name: str, seed: int, dim: int, block: int, size: int,
                  index: int) -> float:
    """Slack of one sample of the sweep ``name``, rebuilt from its address.

    ``(dim, block, size, index)`` is a :attr:`SweepResult.closest`; the
    result equals that sweep's ``min_slack`` bit for bit. An address that no
    sweep makes is rejected.
    """
    if name not in _SWEEPS:
        raise ValueError(f"unknown sweep {name!r}; the sweeps are {', '.join(_SWEEPS)}")
    if dim < 2 or block < 0 or not 0 <= index < size <= SWEEP_BLOCK:
        raise ValueError(f"no sweep samples at (dim, block, size, index) = "
                         f"{(dim, block, size, index)}: it needs dim >= 2, block >= 0 "
                         f"and 0 <= index < size <= {SWEEP_BLOCK}")
    return float(_slack(name, size, dim, _block_rng(seed, dim, block))[index])
