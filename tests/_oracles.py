"""Brute-force linear algebra oracles, independent of the library's SVD path.

The decompositions here are computed by one-sided Jacobi orthogonalization
written out in elementary numpy arithmetic (no ``np.linalg`` calls at all),
so agreement with the package is a meaningful cross-check rather than a
tautology.  Jacobi is slow but achieves high relative accuracy on the small
matrices these tests use, which lets the comparisons run at 1e-10 and below.

The 3-user IC helpers at the end re-derive the retrospective scheme's
annihilators and phase-2 triples from the full channel ``h``, one
system at a time, the way a receiver would.  They share the library's
``null_vector`` and its systems (``Scheme.offline_interference``, which
``tests/test_retro_csit_ic3.py`` checks against directions written out by
hand) so their triples match the encoder's bit for bit: what they check is
the encoder's wiring (which systems, which sub-triples, in which order),
not the factorization.

The noise-weight oracle reruns a block with a unit impulse at every
receiver and slot, whether or not a transmitter replays it, which is how
the package found the weights before they rode the decode run.

The slot-pattern helper gives a drawn channel a coherence pattern: groups
of slots that share one channel, as under block fading.

The causality oracle at the very end reruns a block with the channel
states of later slots perturbed: a transmitter that reads only earlier
slots sends the same bits up to the cut.  No run of the package calls it;
the tests own it.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from alignsim.base import Scheme
from alignsim.evaluate import _draw_batch, simulate_block
from alignsim.numerics import null_vector, ordered_sum
from alignsim.retro_csit_ic3 import (
    PHASE1_SLOTS,
    IC3RetroCsitScheme,
    _alpha_sub,
    interferers,
)

_IC3 = IC3RetroCsitScheme()


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


def compute_alphas(h: np.ndarray, offline) -> np.ndarray:
    """Unit-norm annihilators ``alpha[k]`` of the three interference systems, one call each.

    ``h`` holds at least the phase-1 slots; ``offline`` is the scheme's
    draw, or any pair whose ``table`` is laid out as its table.
    """
    return np.stack([
        null_vector(_IC3.offline_interference(h, offline, [rx])[:, :, 0]) for rx in range(3)
    ])


def phase2_coefficients(alphas: np.ndarray) -> np.ndarray:
    """Unit-norm triples ``c[k]``: the null vector of the two sub-triples constraining ``k``.

    One ``null_vector`` call per transmitter, on the 2x3 matrix of its
    sub-triples in ascending receiver order; where they are parallel, the
    triple is one of the many orthogonal to both.
    """
    coeffs = np.empty((3, 3, *alphas.shape[2:]), dtype=np.complex128)
    for tx in range(3):
        lo, hi = interferers(tx)  # the receivers that see tx as interference
        pair = np.stack([_alpha_sub(alphas[lo], lo, tx), _alpha_sub(alphas[hi], hi, tx)])
        coeffs[tx] = null_vector(pair)
    return coeffs


def effective_precoders(h: np.ndarray, offline) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(alphas, coeffs, precoders) where ``precoders[k, i, n]`` spans all 8 slots.

    Column ``i`` of transmitter ``k``'s effective 8x3 precoding matrix is
    ``precoders[k, i, :]``: the phase-1 coefficients, ``table[3k + i, n]``,
    then the repeated phase-2 triple.
    """
    alphas = compute_alphas(h, offline)
    coeffs = phase2_coefficients(alphas)
    precoders = np.empty((3, 3, *h.shape[2:]), dtype=np.complex128)
    precoders[:, :, :PHASE1_SLOTS] = offline.table.reshape(3, 3, *offline.table.shape[1:])
    for n in range(PHASE1_SLOTS, h.shape[2]):
        precoders[:, :, n] = coeffs
    return alphas, coeffs, precoders


# -- noise weights from an impulse at every receiver and slot ---------------------


def all_impulse_weights(scheme: Scheme, ctx, h: np.ndarray, offline) -> np.ndarray:
    """Per-symbol noise weights ``(num_symbols, T)`` of the block, from one all-impulse run.

    The run has zero messages and one batch column per ``(rx, slot)``
    impulse, in that order, with the impulse as noise, so the replays carry
    it forward as they would.  Each symbol's weight is the sum of its
    squared decodes over the columns, left to right.
    """
    size = scheme.num_rx * scheme.num_slots
    trials = h.shape[3]
    zero_msgs = np.zeros((scheme.num_symbols, size, trials), dtype=np.complex128)
    impulses = np.eye(size, dtype=np.complex128).reshape(scheme.num_rx, scheme.num_slots, size, 1)
    impulses = np.broadcast_to(impulses, (scheme.num_rx, scheme.num_slots, size, trials))
    record = simulate_block(scheme, h, offline, zero_msgs, noise=impulses)
    columns = scheme.decode(record.y, ctx)
    return ordered_sum(np.moveaxis(np.abs(columns) ** 2, 1, 0))


# -- causality under future-channel perturbation -----------------------------------


def slot_pattern(h: np.ndarray, groups: Sequence[Sequence[int]]) -> np.ndarray:
    """A copy of the channel stack ``h`` where every slot of a group has its first slot's channel.

    ``h`` is ``h[rx, tx, slot, t]``; a slot in no group keeps its own draw.
    """
    patterned = h.copy()
    for group in groups:
        patterned[:, :, list(group)] = h[:, :, group[0], None]
    return patterned


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
    gives every trial the bits it has alone.  The perturbation scales every
    affected coefficient by ``1.5 e^{0.7j}``, which moves its magnitude and
    its phase.  So a transmit scalar that depends on a future gain's
    magnitude, not only one that depends on its phase, changes on every
    draw.
    """
    h, offline, msgs = _draw_batch(scheme, base_seed, [(trial, 0) for trial in trials])
    x_ref = simulate_block(scheme, h, offline, msgs).x
    perturbed = h.copy()
    perturbed[:, :, perturb_from:] *= 1.5 * np.exp(0.7j)
    x_alt = simulate_block(scheme, perturbed, offline, msgs).x
    upto = perturb_from + 1
    return bool(np.array_equal(x_ref[:, :upto], x_alt[:, :upto]))
