"""Complex dense linear algebra kernel shared by the scheme implementations.

Null vectors, numerical rank decisions, guarded linear solves and seeded
circularly symmetric Gaussian sampling.  Every matrix handled here is small
(at most 8x8) and dense, so the routines lean on LAPACK through
``numpy.linalg`` and add the contract checks the alignment constructions
rely on: explicit rank guards, residual verification and a canonical phase
convention that makes repeated computations reproducible to the bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "NumericsError",
    "RankDeficient",
    "Singular",
    "Tolerances",
    "DEFAULT_TOL",
    "phase_normalize",
    "null_vector",
    "numerical_rank",
    "solve_square",
    "left_null_basis",
    "sample_complex_gaussian",
]


class NumericsError(Exception):
    """Base class for numerical contract failures."""


class RankDeficient(NumericsError):
    """A matrix fell short of the rank the construction requires.

    Raised on degenerate channel/precoder draws; callers treat it as a
    discard-and-resample event, not as a bug.
    """


class Singular(NumericsError):
    """A square system is too ill-conditioned to solve reliably."""


@dataclass(frozen=True)
class Tolerances:
    """Relative cutoffs used for rank decisions and residual acceptance.

    Attributes
    ----------
    rank_rel : float
        Singular values below ``rank_rel`` times the largest singular value
        are treated as zero.  Also bounds the acceptable condition number of
        square solves at ``1 / rank_rel``.
    residual_rel : float
        Acceptance threshold for null-space residuals, relative to the
        Frobenius norm of the matrix.
    """

    rank_rel: float = 1e-8
    residual_rel: float = 1e-8

    def __post_init__(self) -> None:
        for name in ("rank_rel", "residual_rel"):
            value = getattr(self, name)
            if not (0.0 < value < 1.0):
                raise ValueError(f"{name} must lie strictly inside (0, 1), got {value!r}")


DEFAULT_TOL = Tolerances()


def _as_matrix(a) -> np.ndarray:
    a = np.asarray(a, dtype=np.complex128)
    if a.ndim != 2 or min(a.shape) < 1:
        raise ValueError(f"expected a nonempty 2-D array, got shape {np.shape(a)}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix entries must be finite")
    return a


def phase_normalize(v: np.ndarray, rel_cut: float = 1e-9) -> np.ndarray:
    """Rotate ``v`` by a unit phase so its first significant entry is real positive.

    The pivot is the first entry whose magnitude exceeds ``rel_cut`` times the
    largest magnitude in the vector, which makes the convention stable against
    entries that are zero only up to roundoff.  The rotation leaves the norm
    unchanged.  A zero vector is returned as a copy.
    """
    v = np.asarray(v, dtype=np.complex128)
    mags = np.abs(v)
    top = mags.max()
    if top == 0.0:
        return v.copy()
    pivot_index = int(np.argmax(mags > rel_cut * top))
    pivot = v[pivot_index]
    return v * (pivot.conjugate() / abs(pivot))


def null_vector(a, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Unit-norm right null vector of a wide matrix with a 1-D null space.

    ``a`` must have strictly fewer rows than columns and full row rank up to
    ``tol.rank_rel``; otherwise :class:`RankDeficient` is raised.  The vector
    returned is the right singular vector belonging to the implicit zero
    singular value, phase-normalized so repeated calls on the same input give
    an identical result.

    Parameters
    ----------
    a : array_like, shape (m, n) with m < n
    tol : Tolerances

    Returns
    -------
    v : ndarray, shape (n,)
        Unit norm, with ``norm(a @ v) <= tol.residual_rel * norm(a, 'fro')``.
    """
    a = _as_matrix(a)
    rows, cols = a.shape
    if rows >= cols:
        raise ValueError(f"null_vector expects rows < cols, got shape {a.shape}")
    u, s, vh = np.linalg.svd(a, full_matrices=True)
    if cols - rows != 1:
        # Wider matrices have a larger null space; the caller asked for a
        # single vector, which is only well defined for a one-dimensional
        # null space, i.e. cols == rows + 1 at full row rank.
        raise ValueError("null space is not one-dimensional for this shape")
    rank = int(np.count_nonzero(s > tol.rank_rel * s[0])) if s[0] > 0.0 else 0
    if rank < rows:
        raise RankDeficient(
            f"matrix of shape {a.shape} has numerical rank {rank} < {rows}"
        )
    v = phase_normalize(vh[-1].conj())
    v /= np.linalg.norm(v)
    residual = np.linalg.norm(a @ v)
    scale = np.linalg.norm(a)
    if residual > tol.residual_rel * scale:
        raise NumericsError(
            f"null vector residual {residual:.3e} exceeds {tol.residual_rel:.1e} * {scale:.3e}"
        )
    return v


def numerical_rank(a, tol: Tolerances = DEFAULT_TOL) -> int:
    """Number of singular values above ``tol.rank_rel`` times the largest one.

    Invariant under multiplication of ``a`` by any nonzero scalar.  The zero
    matrix has rank 0.
    """
    a = _as_matrix(a)
    s = np.linalg.svd(a, compute_uv=False)
    if s[0] == 0.0:
        return 0
    return int(np.count_nonzero(s > tol.rank_rel * s[0]))


def solve_square(a, b, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Solve ``a @ x = b`` for square ``a``, guarding against ill-conditioning.

    ``b`` is a vector of shape ``(rows,)`` or a stack of ``k`` right-hand
    sides of shape ``(rows, k)``; ``x`` has the shape of ``b``.  The guard
    costs one SVD of ``a`` whatever ``k`` is.

    Raises :class:`Singular` when the condition number of ``a`` exceeds
    ``1 / tol.rank_rel`` (equivalently, when the smallest singular value falls
    below ``tol.rank_rel`` times the largest).
    """
    a = _as_matrix(a)
    rows, cols = a.shape
    if rows != cols:
        raise ValueError(f"solve_square expects a square matrix, got shape {a.shape}")
    b = np.asarray(b, dtype=np.complex128)
    if b.ndim not in (1, 2) or b.shape[0] != rows:
        raise ValueError(f"right-hand side shape {b.shape} does not match matrix {a.shape}")
    s = np.linalg.svd(a, compute_uv=False)
    if s[0] == 0.0 or s[-1] <= tol.rank_rel * s[0]:
        cond = np.inf if s[-1] == 0.0 else s[0] / s[-1]
        raise Singular(f"condition number {cond:.3e} exceeds {1.0 / tol.rank_rel:.1e}")
    return np.linalg.solve(a, b)


def left_null_basis(a, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Orthonormal basis of the left null space of ``a``.

    Returns an ``(m, m - r)`` matrix ``n`` with orthonormal columns satisfying
    ``n.conj().T @ a ~ 0``, where ``r`` is the numerical rank of ``a``.  The
    columns are the left singular vectors belonging to the discarded singular
    values, each phase-normalized for reproducibility.
    """
    a = _as_matrix(a)
    u, s, vh = np.linalg.svd(a, full_matrices=True)
    rank = int(np.count_nonzero(s > tol.rank_rel * s[0])) if s[0] > 0.0 else 0
    basis = u[:, rank:]
    basis = np.column_stack([phase_normalize(basis[:, i]) for i in range(basis.shape[1])]) \
        if basis.shape[1] else basis
    residual = np.linalg.norm(basis.conj().T @ a)
    scale = np.linalg.norm(a)
    if scale > 0.0 and residual > tol.residual_rel * scale:
        raise NumericsError(
            f"left null basis residual {residual:.3e} exceeds {tol.residual_rel:.1e} * {scale:.3e}"
        )
    return basis


def sample_complex_gaussian(rng: np.random.Generator, count: int) -> np.ndarray:
    """Draw ``count`` i.i.d. circularly symmetric complex Gaussians, unit variance.

    Real and imaginary parts are independent ``N(0, 1/2)`` so that
    ``E|z|^2 = 1``.  Deterministic given the generator state.
    """
    re = rng.standard_normal(count)
    im = rng.standard_normal(count)
    return (re + 1j * im) / np.sqrt(2.0)
