"""Brute-force linear algebra oracles, independent of the library's SVD path.

The decompositions here are computed by one-sided Jacobi orthogonalization
written out in elementary numpy arithmetic (no ``np.linalg`` calls at all),
so agreement with the package is a meaningful cross-check rather than a
tautology.  Jacobi is slow but achieves high relative accuracy on the small
matrices these tests use, which lets the comparisons run at 1e-10 and below.

The 3-user IC helpers at the end re-derive the retrospective scheme's
annihilators and phase-2 triples from the full channel tensor, one
system at a time, the way a receiver would.  They share the library's
``null_vector`` so their triples match the encoder's bit for bit: what they
check is the encoder's wiring (which systems, which sub-triples, in which
order), not the factorization.

The causality oracle at the very end reruns a block with the channel
states of later slots perturbed: a transmitter that reads only earlier
slots sends the same bits up to the cut.  No run of the package calls it;
the tests own it.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from alignsim.base import Scheme
from alignsim.channel import ChannelTensor
from alignsim.evaluate import _draw_batch, simulate_block
from alignsim.numerics import null_vector
from alignsim.retro_csit_ic3 import (
    PHASE1_SLOTS,
    _alpha_sub,
    _unit_cross,
    alpha_system,
    interferers,
)


def _norm(v: np.ndarray) -> float:
    return float(np.sqrt(np.sum(np.abs(v) ** 2)))


def jacobi_right_vectors(a: np.ndarray, max_sweeps: int = 60) -> tuple[np.ndarray, np.ndarray]:
    """One-sided Jacobi factorization ``a = U diag(s) Wᴴ``.

    Returns ``(s, w)`` with singular values descending and ``w`` unitary
    (columns are right singular vectors); ``a @ w[:, k]`` has norm ``s[k]``.
    Rotations are applied until every column pair is orthogonal to roughly
    machine precision.
    """
    b = np.array(a, dtype=np.complex128)
    n = b.shape[1]
    w = np.eye(n, dtype=np.complex128)
    # columns this far below the matrix scale are numerically zero; rotating
    # them against each other only churns noise (and can reach denormals)
    floor = (1e-20 * _norm(b)) ** 2
    for _ in range(max_sweeps):
        rotated = False
        for i in range(n - 1):
            for j in range(i + 1, n):
                x = b[:, i]
                y = b[:, j]
                aa = float(np.sum(np.abs(x) ** 2))
                bb = float(np.sum(np.abs(y) ** 2))
                c = complex(np.sum(np.conj(x) * y))
                if aa <= floor or bb <= floor or abs(c) <= 1e-15 * np.sqrt(aa * bb):
                    continue
                rotated = True
                phase = c / abs(c)
                tau = (bb - aa) / (2.0 * abs(c))
                if tau >= 0.0:
                    t = 1.0 / (tau + np.sqrt(1.0 + tau * tau))
                else:
                    t = -1.0 / (-tau + np.sqrt(1.0 + tau * tau))
                cs = 1.0 / np.sqrt(1.0 + t * t)
                sn = t * cs
                # unitary 2x2 right-multiplication on the (i, j) column pair
                bi = cs * x - sn * np.conj(phase) * y
                bj = sn * x + cs * np.conj(phase) * y
                b[:, i] = bi
                b[:, j] = bj
                wi = cs * w[:, i] - sn * np.conj(phase) * w[:, j]
                wj = sn * w[:, i] + cs * np.conj(phase) * w[:, j]
                w[:, i] = wi
                w[:, j] = wj
        if not rotated:
            break
    norms = np.array([_norm(b[:, k]) for k in range(n)])
    order = np.argsort(norms)[::-1]
    return norms[order], w[:, order]


def jacobi_singular_values(a: np.ndarray) -> np.ndarray:
    s, _ = jacobi_right_vectors(a)
    return s[: min(a.shape)]


def jacobi_null_vector(a: np.ndarray) -> np.ndarray:
    """Unit right vector for the smallest singular value."""
    _, w = jacobi_right_vectors(a)
    v = w[:, -1]
    return v / _norm(v)


def jacobi_rank(a: np.ndarray, rel_tol: float) -> int:
    s = jacobi_singular_values(a)
    if s[0] == 0.0:
        return 0
    return int(np.count_nonzero(s > rel_tol * s[0]))


def jacobi_left_null_basis(a: np.ndarray, rel_tol: float) -> np.ndarray:
    """Orthonormal basis of the left null space, via Jacobi on ``aᴴ``."""
    s, w = jacobi_right_vectors(a.conj().T)
    top = s[0]
    if top == 0.0:
        return w
    return w[:, s <= rel_tol * top]


def gauss_solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a⁻¹ b`` for square ``a`` by Gauss-Jordan elimination with partial pivoting."""
    a = np.array(a, dtype=np.complex128)
    b = np.array(b, dtype=np.complex128)
    n = a.shape[0]
    for col in range(n):
        pivot = col + int(np.argmax(np.abs(a[col:, col])))
        a[[col, pivot]] = a[[pivot, col]]
        b[[col, pivot]] = b[[pivot, col]]
        for row in range(n):
            if row != col:
                factor = a[row, col] / a[col, col]
                a[row] -= factor * a[col]
                b[row] -= factor * b[col]
    return b / np.diag(a)[:, None]


def zero_forcing_oracle(g: np.ndarray, rows: list[int], rel_tol: float = 1e-8) -> np.ndarray:
    """Zero-forcing decoder of the unknowns ``rows`` of the receive matrix ``g``.

    Projects the observations onto the left null space of the other
    unknowns' columns (Jacobi), then inverts what is left of the wanted
    columns there.
    """
    others = [k for k in range(g.shape[1]) if k not in rows]
    basis = jacobi_left_null_basis(g[:, others], rel_tol)
    return gauss_solve(basis.conj().T @ g[:, rows], basis.conj().T)


def random_complex_matrix(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    return (rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))) / np.sqrt(2.0)


def random_rank_matrix(
    rng: np.random.Generator, rows: int, cols: int, rank: int
) -> np.ndarray:
    left = random_complex_matrix(rng, rows, rank)
    right = random_complex_matrix(rng, rank, cols)
    return left @ right


# -- 3-user IC retrospective scheme ------------------------------------------------


def compute_alphas(h5: np.ndarray, phase1: np.ndarray) -> np.ndarray:
    """Unit-norm annihilators ``alpha[k]`` of the three interference systems, one call each."""
    return np.stack([null_vector(alpha_system(h5, phase1, rx)) for rx in range(3)])


def phase2_coefficients(alphas: np.ndarray) -> np.ndarray:
    """Unit-norm triples ``c[k]``: the cross product of the two sub-triples constraining ``k``.

    The sub-triples are taken in ascending receiver order; where they are
    parallel, the triple is NaN or ill-conditioned, as the encoder's is.
    """
    coeffs = np.empty((3, 3, *alphas.shape[2:]), dtype=np.complex128)
    for tx in range(3):
        lo, hi = interferers(tx)  # the receivers that see tx as interference
        coeffs[tx] = _unit_cross(_alpha_sub(alphas[lo], lo, tx), _alpha_sub(alphas[hi], hi, tx))
    return coeffs


def effective_precoders(
    h: np.ndarray, phase1: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(alphas, coeffs, precoders) where ``precoders[k, i, n]`` spans all 8 slots.

    Column ``i`` of transmitter ``k``'s effective 8x3 precoding matrix is
    ``precoders[k, i, :]``: the phase-1 coefficients, then the repeated
    phase-2 triple.
    """
    alphas = compute_alphas(h[:, :, :PHASE1_SLOTS], phase1)
    coeffs = phase2_coefficients(alphas)
    precoders = np.empty((3, 3, *h.shape[2:]), dtype=np.complex128)
    precoders[:, :, :PHASE1_SLOTS] = phase1
    for n in range(PHASE1_SLOTS, h.shape[2]):
        precoders[:, :, n] = coeffs
    return alphas, coeffs, precoders


# -- causality under future-channel perturbation -----------------------------------


def future_perturbation_invariant(
    scheme: Scheme,
    base_seed: int,
    trials: Sequence[int],
    perturb_from: int,
) -> bool:
    """True when perturbing channel states of slots >= ``perturb_from`` leaves
    every transmit scalar of slots <= ``perturb_from`` bit-identical, for
    every trial in ``trials``.

    The trials are drawn as one stack and run as one block each way, which
    gives every trial the bits it has alone.  The perturbation rotates every
    affected coefficient's phase and scales its magnitude by 1.5, or by
    1/1.5 where 1.5 would leave the magnitude band; the band of a drawn
    tensor spans far more than 1.5², so the tensor stays inside it.  So a
    transmit scalar that depends on a future gain's magnitude, not only one
    that depends on its phase, changes on every draw.
    """
    tensor, offline, msgs = _draw_batch(scheme, base_seed, [(trial, 0) for trial in trials])
    x_ref = simulate_block(scheme, tensor, offline, msgs).x
    h2 = tensor.h.copy()
    future = h2[:, :, perturb_from:]
    future *= np.where(1.5 * np.abs(future) <= tensor.mag_bounds[1], 1.5, 1 / 1.5) * np.exp(0.7j)
    perturbed = ChannelTensor(h=h2, mag_bounds=tensor.mag_bounds)
    x_alt = simulate_block(scheme, perturbed, offline, msgs).x
    upto = perturb_from + 1
    return bool(np.array_equal(x_ref[:, :upto], x_alt[:, :upto]))
