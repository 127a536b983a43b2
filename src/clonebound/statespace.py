"""Complex state-vector core.

Pure states are plain 1-D complex numpy arrays normalized to unit length.
This module provides the inner-product machinery, tensor products,
Gram-Schmidt residuals, rank-k orthogonal projectors, and the angle metric

    angle(a, b) = arccos(|<a|b>|)  in  [0, pi/2],

which is zero exactly when the two states coincide up to a global phase.
All functions are pure and never mutate their inputs.
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
    """Coerce a sequence of amplitudes to a 1-D complex128 array."""
    v = np.asarray(values, dtype=np.complex128)
    if v.ndim != 1 or v.size < 1:
        raise ValueError(f"state vector must be 1-D and non-empty, got shape {v.shape}")
    return v


def norm(v: np.ndarray) -> float:
    """Euclidean norm sqrt(<v|v>)."""
    return float(np.linalg.norm(v))


def normalize(v) -> np.ndarray:
    """Scale a nonzero vector to unit norm."""
    v = as_state(v)
    n = norm(v)
    if n == 0.0:
        raise ValueError("cannot normalize the zero vector")
    return v / n


def check_unit(v: np.ndarray, atol: float = ATOL_ALG) -> np.ndarray:
    """Validate that ``v`` is a unit vector; returns ``v`` unchanged.

    A non-finite norm (NaN or infinite amplitudes) is rejected too.
    """
    n = norm(v)
    if not abs(n - 1.0) <= atol:
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
    return complex(np.vdot(a, b))


def angle(a, b, atol: float = ATOL_ALG) -> float:
    """Angle arccos(|<a|b>|) between two unit vectors, in [0, pi/2].

    The arccos argument is clamped to [0, 1] so that an overlap of
    1 +/- one ulp cannot produce a NaN.

    Raises
    ------
    ValueError
        If dimensions differ or either input is not a unit vector.
    """
    a = check_unit(as_state(a), atol)
    b = check_unit(as_state(b), atol)
    _check_same_dim(a, b)
    return float(np.arccos(min(abs(np.vdot(a, b)), 1.0)))


def tensor(a, b) -> np.ndarray:
    """Kronecker product a (x) b; component (i, j) sits at index i*dim(b) + j."""
    return np.kron(as_state(a), as_state(b))


def gram_schmidt_residual(target, anchor) -> np.ndarray:
    """Unit component of ``target`` orthogonal to ``anchor``.

    Returns (target - anchor <anchor|target>) / sqrt(1 - |<anchor|target>|^2),
    which is orthogonal to ``anchor`` and lies in span{target, anchor}.

    Raises
    ------
    ValueError
        If the two states are collinear (overlap modulus >= 1 - 1e-12),
        where the residual direction is undefined.
    """
    target = check_unit(as_state(target))
    anchor = check_unit(as_state(anchor))
    _check_same_dim(target, anchor)
    ov = np.vdot(anchor, target)
    if abs(ov) >= 1.0 - COLLINEAR_TOL:
        raise ValueError(
            f"states are collinear (overlap modulus {abs(ov)!r}); residual undefined"
        )
    residual = target - anchor * ov
    return residual / np.sqrt(1.0 - abs(ov) ** 2)


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
        if not np.allclose(gram, np.eye(b.shape[0]), atol=ATOL_ALG):
            raise ValueError("projector basis rows are not orthonormal")

    @property
    def rank(self) -> int:
        return self.basis.shape[0]

    @property
    def ambient_dim(self) -> int:
        return self.basis.shape[1]

    @classmethod
    def from_span(cls, vectors) -> "Projector":
        """Projector onto the span of the given (independent) vectors."""
        m = np.atleast_2d(np.asarray(vectors, dtype=np.complex128))
        q, r = np.linalg.qr(m.T)
        keep = np.abs(np.diag(r)) > 1e-10
        if not np.all(keep):
            raise ValueError("spanning vectors are linearly dependent")
        return cls(q.T)

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
    if v.shape[0] != p.ambient_dim:
        raise ValueError(f"dimension mismatch: {v.shape[0]} vs {p.ambient_dim}")
    coeff = p.basis.conj() @ v
    return coeff @ p.basis


def measure_prob(p: Projector, s) -> float:
    """Outcome probability <s|P|s> = ||P s||^2 for a unit state ``s``."""
    s = check_unit(as_state(s))
    projected = apply_projector(p, s)
    prob = float(np.real(np.vdot(projected, projected)))
    return min(max(prob, 0.0), 1.0)


def check_unitary(u: np.ndarray, atol: float = ATOL_UNITARY) -> np.ndarray:
    """Validate U^H U = I within ``atol`` (max-abs entry); returns ``u``."""
    u = np.asarray(u, dtype=np.complex128)
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {u.shape}")
    dev = np.max(np.abs(u.conj().T @ u - np.eye(u.shape[0])))
    if dev > atol:
        raise ValueError(f"matrix is not unitary (max deviation {dev:.3e})")
    return u


def operator_norm(a: np.ndarray) -> float:
    """Spectral norm (largest singular value), computed by full SVD."""
    return float(np.linalg.norm(np.asarray(a, dtype=np.complex128), 2))


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

def random_state(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-uniform unit vector: complex standard Gaussian, then normalize."""
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def random_states(n: int, dim: int, rng: np.random.Generator) -> np.ndarray:
    """Batch of ``n`` Haar-uniform unit vectors, shape (n, dim)."""
    v = rng.standard_normal((n, dim)) + 1j * rng.standard_normal((n, dim))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def random_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-ish random unitary via QR orthonormalization of a Gaussian matrix."""
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return phase_fixed_q(g)


def phase_fixed_q(g: np.ndarray) -> np.ndarray:
    """Q factor of g = QR, for one matrix or a stack, with diag(R) made positive.

    Fixing the column phases keeps the result independent of the QR
    convention of the linear-algebra backend.
    """
    q, r = np.linalg.qr(g)
    d = np.einsum("...ii->...i", r)
    return q * (d / np.abs(d))[..., None, :]


def random_projector(dim: int, rank: int, rng: np.random.Generator) -> Projector:
    """Random rank-``rank`` projector from orthonormalized Gaussian vectors."""
    if not 1 <= rank <= dim:
        raise ValueError(f"rank must be in 1..{dim}, got {rank}")
    g = rng.standard_normal((dim, rank)) + 1j * rng.standard_normal((dim, rank))
    q, _ = np.linalg.qr(g)
    return Projector(q.T)
