"""Complex state-vector core.

Pure states are plain 1-D complex numpy arrays normalized to unit length.
This module provides the inner-product machinery, tensor products,
Gram-Schmidt residuals, rank-k orthogonal projectors, and the angle metric

    angle(a, b) = arccos(|<a|b>|)  in  [0, pi/2],

which is zero exactly when the two states coincide up to a global phase.
Every inner product and vector norm in the package comes from one reduction
(``_dots``), every residual of a target against an anchor from one kernel
on it (``_residuals``), divided by its computed norm where it must be unit,
and every angle of two vectors from one kernel that keeps its digits near
overlap 1 (``_angles``); the angles of a given z come from :mod:`.bounds`.
All public functions are pure and never mutate their inputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Tolerance for algebraic identities (norms, orthogonality, idempotency).
ATOL_ALG = 1e-12
# Tolerance for unitarity of matrices (max-abs entry deviation of U^H U - I).
ATOL_UNITARY = 1e-10
# Overlap modulus at or above 1 - COLLINEAR_TOL counts as collinear.
COLLINEAR_TOL = 1e-12


def as_state(values) -> np.ndarray:
    """Coerce a sequence of finite amplitudes to a 1-D complex128 array."""
    v = np.asarray(values, dtype=np.complex128)
    if v.ndim != 1 or v.size < 1:
        raise ValueError(f"state vector must be 1-D and non-empty, got shape {v.shape}")
    if not np.isfinite(v).all():
        raise ValueError("state vector has a non-finite amplitude, "
                         "so it is not a unit vector")
    return v


def norm(v: np.ndarray) -> float:
    """Euclidean norm of an array, flattened: ``_norms`` of it as one row."""
    return float(_norms(v.reshape(-1)))


def _dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """<a|b> on the last axis of broadcast stacks by einsum's loops, not BLAS: a row
    has the same bits in any stack and kernel (a real row, if equally contiguous)."""
    return np.einsum("...i,...i->...", a.conj(), b)


def _norms(v: np.ndarray) -> np.ndarray:
    """Euclidean norms along the last axis, sqrt(Re _dots(v, v)); inf on overflow."""
    return np.sqrt(_dots(v, v).real)


def _residuals(anchor: np.ndarray, target: np.ndarray):
    """(<anchor|target>, target - anchor <anchor|target>) on the last axis of broadcast
    stacks, by ``_dots``: a row's bits do not depend on its stack."""
    ov = _dots(anchor, target)
    return ov, target - anchor * ov[..., None]


def normalize(v) -> np.ndarray:
    """Scale a nonzero vector to unit norm."""
    v = as_state(v)
    n = norm(v)
    if n == 0.0:
        raise ValueError("cannot normalize the zero vector")
    return v / n


def check_unit(v: np.ndarray) -> np.ndarray:
    """Validate that ``v`` is a unit vector within ATOL_ALG; returns ``v``.

    A non-finite norm (NaN or infinite amplitudes) is rejected too.
    """
    n = norm(v)
    if not abs(n - 1.0) <= ATOL_ALG:
        raise ValueError(f"expected a unit vector, got norm {n!r}")
    return v


def _check_same_dim(a: np.ndarray, b: np.ndarray) -> None:
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape[0]} vs {b.shape[0]}")


def inner(a, b) -> complex:
    """Hermitian inner product <a|b>, conjugate-linear in the first argument."""
    a = as_state(a)
    b = as_state(b)
    _check_same_dim(a, b)
    return complex(_dots(a, b))


def angle(a, b) -> float:
    """Angle arccos(|<a|b>|) between two unit vectors, in [0, pi/2].

    Raises
    ------
    ValueError
        If dimensions differ or either input is not a unit vector.
    """
    a = check_unit(as_state(a))
    b = check_unit(as_state(b))
    _check_same_dim(a, b)
    return float(_angles(a, b))


def _angles(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Angle between each pair of unit rows of two broadcast stacks.

    2 atan2(|a' - b'|, |a' + b'|), a' = a h, b' = b conj(h), h = sqrt(<a|b>/|<a|b>|)
    or 1 where |<a|b>| is 0 or subnormal, keeps the digits that
    arccos(|<a|b>|) loses near overlap 1 (Kahan, "How Futile are Mindless
    Assessments of Roundoff in Floating-Point Computation?", 2006). Swapping
    a and b conjugates h and so only negates a' - b': the result is symmetric
    bit for bit. A row's bits do not depend on its stack.
    """
    ov = _dots(a, b)
    mag = np.hypot(ov.real, ov.imag)
    # Dividing by a subnormal |<a|b>| overflows; such rows are orthogonal to
    # double precision.
    zero = mag < np.finfo(float).tiny
    h = np.sqrt(np.where(zero, 1, ov) / np.where(zero, 1, mag))[..., None]
    a, b = a * h, b * np.conj(h)
    # Rounding may put orthogonal states an ulp past pi/2.
    return np.minimum(2.0 * np.arctan2(_norms(a - b), _norms(a + b)), np.pi / 2)


def tensor(a, b) -> np.ndarray:
    """Kronecker product a (x) b; component (i, j) sits at index i*dim(b) + j."""
    return np.kron(as_state(a), as_state(b))


def gram_schmidt_residual(target, anchor) -> np.ndarray:
    """Unit component of ``target`` orthogonal to ``anchor``.

    Returns the residual of ``_residuals`` over its computed norm: a unit
    vector orthogonal to ``anchor`` in span{target, anchor}, even near overlap 1.

    Raises
    ------
    ValueError
        If the two states are collinear (overlap modulus >= 1 - 1e-12),
        where the residual direction is undefined.
    """
    target = check_unit(as_state(target))
    anchor = check_unit(as_state(anchor))
    _check_same_dim(target, anchor)
    ov, residual = _residuals(anchor, target)
    if abs(ov) >= 1.0 - COLLINEAR_TOL:
        raise ValueError(
            f"states are collinear (overlap modulus {abs(ov)!r}); residual undefined"
        )
    return residual / norm(residual)


@dataclass(frozen=True)
class Projector:
    """Orthogonal projector represented by an orthonormal basis of its range.

    The representation keeps idempotency structural: applying the projector
    twice expands every vector in the same orthonormal basis. ``basis`` has
    shape (rank, ambient_dim), one basis vector per row.
    """

    basis: np.ndarray

    def __post_init__(self):
        b = np.atleast_2d(np.asarray(self.basis, dtype=np.complex128))
        object.__setattr__(self, "basis", b)
        gram = b @ b.conj().T
        if not np.allclose(gram, np.eye(b.shape[0]), rtol=0.0, atol=ATOL_ALG):
            raise ValueError("projector basis rows are not orthonormal")

    @property
    def rank(self) -> int:
        return self.basis.shape[0]

    @property
    def ambient_dim(self) -> int:
        return self.basis.shape[1]

    def complement(self) -> "Projector":
        """Projector onto the orthogonal complement of the range."""
        if self.rank == self.ambient_dim:
            raise ValueError("full-rank projector has no complement")
        # Hermitian null space: vectors x with <b_k|x> = 0 for every row.
        _, _, vh = np.linalg.svd(self.basis.conj(), full_matrices=True)
        return Projector(vh[self.rank:].conj())


def apply_projector(p: Projector, v) -> np.ndarray:
    """Project ``v`` onto the range of ``p``: sum_k b_k <b_k|v>."""
    v = as_state(v)
    _check_same_dim(v, p.basis[0])
    coeff = p.basis.conj() @ v
    return coeff @ p.basis


def _outcome_probs(q: np.ndarray, states: np.ndarray) -> np.ndarray:
    """Unclamped ||P s||^2 = sum_r |<q_r|s>|^2, shape (n, k), of the k states
    per trial in ``states`` (n, k, dim), P projecting each trial's states onto
    the orthonormal columns q_r of its matrix in ``q`` (n, dim, rank)."""
    coeff = np.einsum("bir,bji->bjr", q.conj(), states)
    return np.sum(np.abs(coeff) ** 2, axis=2)


def _projector_probs(p: Projector, states: np.ndarray) -> np.ndarray:
    """``_outcome_probs`` of ``p`` on the rows of ``states``, as one trial."""
    _check_same_dim(states[0], p.basis[0])
    return _outcome_probs(p.basis.T[None], states[None])[0]


def measure_prob(p: Projector, s) -> float:
    """Outcome probability <s|P|s> = ||P s||^2 for a unit state ``s``."""
    s = check_unit(as_state(s))
    return min(max(float(_projector_probs(p, s[None])[0]), 0.0), 1.0)


def check_unitary(u: np.ndarray) -> np.ndarray:
    """Validate U^H U = I within ATOL_UNITARY (max-abs entry); returns ``u``.
    A matrix with a NaN or infinite entry is rejected too."""
    u = np.asarray(u, dtype=np.complex128)
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {u.shape}")
    dev = np.max(np.abs(u.conj().T @ u - np.eye(u.shape[0])))
    if not dev <= ATOL_UNITARY:
        raise ValueError(f"matrix is not unitary (max deviation {dev:.3e})")
    return u


def basis_state(dim: int, index: int = 0) -> np.ndarray:
    """Standard basis vector e_index in dimension ``dim``."""
    if not 0 <= index < dim:
        raise ValueError(f"index {index} out of range for dimension {dim}")
    e = np.zeros(dim, dtype=np.complex128)
    e[index] = 1.0
    return e


# ---------------------------------------------------------------------------
# Seeded random samplers (Haar-uniform states, unitaries, projectors).
# ---------------------------------------------------------------------------

def _complex_normal(rng: np.random.Generator, shape) -> np.ndarray:
    """Complex standard Gaussians x + iy of ``shape``, all x drawn before any y,
    as two real ``standard_normal(shape)`` draws summed would give them."""
    z = np.empty(shape, dtype=np.complex128)
    z.real = rng.standard_normal(shape)
    z.imag = rng.standard_normal(shape)
    return z


def random_state(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-uniform unit vector: one row of :func:`random_states`."""
    return random_states(1, dim, rng)[0]


def random_states(n: int, dim: int, rng: np.random.Generator) -> np.ndarray:
    """Batch of ``n`` Haar-uniform unit vectors, shape (n, dim)."""
    v = _complex_normal(rng, (n, dim))
    v /= _norms(v)[:, None]
    return v


def random_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-ish random unitary via QR orthonormalization of a Gaussian matrix."""
    return phase_fixed_q(_complex_normal(rng, (dim, dim)))


def phase_fixed_q(g: np.ndarray) -> np.ndarray:
    """Q factor of g = QR, for one matrix or a stack, with diag(R) made positive.

    Fixing the column phases keeps the result independent of the QR
    convention of the linear-algebra backend.
    """
    q, r = np.linalg.qr(g)
    d = np.einsum("...ii->...i", r)
    q *= (d / np.abs(d))[..., None, :]
    return q


def random_projector(dim: int, rank: int, rng: np.random.Generator) -> Projector:
    """Random rank-``rank`` projector from orthonormalized Gaussian vectors."""
    if not 1 <= rank <= dim:
        raise ValueError(f"rank must be in 1..{dim}, got {rank}")
    q, _ = np.linalg.qr(_complex_normal(rng, (dim, rank)))
    return Projector(q.T)
