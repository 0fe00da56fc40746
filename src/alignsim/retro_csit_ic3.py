"""Eight-slot delayed-CSIT scheme for the 3-user interference channel (9 symbols / 8 slots).

Transmitter ``k`` carries three symbols ``u[k, 0..2]`` for receiver ``k``
(flat index ``3k + i``).  Slot plan (0-based):

* Slots 0-4: each transmitter sends offline random combinations of its own
  three symbols.  No channel knowledge is used.
* Slots 5-7: each transmitter repeats a single retrospectively chosen
  combination ``s[k] = c[k] . u[k]``, three times, using no channel
  knowledge of the current slots.

At receiver ``k``, the phase-1 interference from its two interferers spans a
five-dimensional subspace of the 8-slot receive space with a one-dimensional
annihilator ``alpha[k]`` (the null vector of the 5x6 matrix of interfering
receive directions, interferer of lower index first).  The coefficient
triple ``c[k]`` is the cross product of the two sub-triples of
``alpha[.]`` that constrain transmitter ``k`` at the receivers it
interferes with, which forces each phase-2 repetition to stay inside the
interference space already spanned during phase 1.  Interference at each
receiver therefore occupies exactly 5 of 8 dimensions, leaving 3 for the
three desired symbols; the zero-forcing decoder every scheme shares
(:mod:`alignsim.base`) certifies this and decodes.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .base import Scheme
from .channel import FeedbackKind, FeedbackModel
from .numerics import (
    Degenerate,
    Tolerances,
    dot,
    frobenius_norm,
    matvec,
    null_vector,
    sample_complex_gaussian,
    vector_norm,
)

__all__ = [
    "COEFF_NORM_FLOOR",
    "CONSTRAINT_RESIDUAL_MAX",
    "DegenerateCoefficients",
    "ICOffline",
    "interferers",
    "alpha_system",
    "compute_alphas",
    "phase2_coefficients",
    "effective_precoders",
    "IC3RetroCsitScheme",
]

NUM_SLOTS = 8
PHASE1_SLOTS = 5

#: A phase-2 cross product of unit-norm alpha sub-triples shorter than this
#: is treated as vanished: the two constraints are parallel.
COEFF_NORM_FLOOR = 1e-12

#: Largest accepted |c[tx] . alpha_sub(rx, tx)| for the phase-2 triples.
CONSTRAINT_RESIDUAL_MAX = 1e-12


class DegenerateCoefficients(Degenerate):
    """A phase-2 coefficient cross product vanished (discardable draw)."""


@dataclass(frozen=True)
class ICOffline:
    """Phase-1 coefficients ``phase1[k, i, n]``, unit power per (k, n)."""

    phase1: np.ndarray


def interferers(rx: int) -> tuple[int, int]:
    """The two transmitters interfering at ``rx``, lower index first."""
    return tuple(j for j in range(3) if j != rx)


def alpha_system(h5: np.ndarray, phase1: np.ndarray, rx: int) -> np.ndarray:
    """5x6 matrix of phase-1 interfering receive directions at ``rx``.

    ``h5`` is the slot-0..4 channel block ``(3, 3, 5, *T)``.  Columns 0-2
    belong to the lower-indexed interferer, columns 3-5 to the higher-indexed
    one.
    """
    a, b = interferers(rx)
    cols = [h5[rx, j, :] * phase1[j, i, :] for j in (a, b) for i in range(3)]
    return np.stack(cols, axis=1)


def compute_alphas(h5: np.ndarray, phase1: np.ndarray, tol: Tolerances) -> np.ndarray:
    """Unit-norm annihilator vectors ``alpha[k]`` of the three interference systems.

    Each row ``alpha[k]`` has its first significant entry real positive, so
    every node computing it from the same channel states gets the same
    vector bit for bit.
    """
    return np.stack([null_vector(alpha_system(h5, phase1, rx), tol) for rx in range(3)])


def _alpha_sub(alpha: np.ndarray, rx: int, tx: int) -> np.ndarray:
    """Sub-triple of receiver ``rx``'s annihilator ``alpha`` that weights transmitter ``tx``."""
    a, b = interferers(rx)
    if tx == a:
        return alpha[0:3]
    if tx == b:
        return alpha[3:6]
    raise ValueError(f"transmitter {tx} does not interfere at receiver {rx}")


def phase2_coefficients(alphas: np.ndarray) -> np.ndarray:
    """Unit-norm combination triples ``c[k]`` for the phase-2 repetitions.

    ``c[k]`` must be orthogonal to the two alpha sub-triples that constrain
    transmitter ``k`` at the receivers it interferes with; the cross product
    of those sub-triples (taken in ascending receiver order) satisfies both
    constraints at once.  Raises :class:`DegenerateCoefficients` when the
    sub-triples are parallel and the cross product vanishes.
    """
    coeffs = np.empty((3, 3, *alphas.shape[2:]), dtype=np.complex128)
    for tx in range(3):
        lo, hi = interferers(tx)  # the receivers that see tx as interference
        coeffs[tx] = _unit_cross(
            _alpha_sub(alphas[lo], lo, tx), _alpha_sub(alphas[hi], hi, tx), tx
        )
    return coeffs


def _unit_cross(a: np.ndarray, b: np.ndarray, tx: int) -> np.ndarray:
    """Unit-norm cross product of two ``(3, *T)`` triples; raises when it vanishes."""
    c = np.stack([a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2], a[0] * b[1] - a[1] * b[0]])
    norm = vector_norm(c)
    if np.any(norm < COEFF_NORM_FLOOR):
        raise DegenerateCoefficients(f"phase-2 coefficient triple of transmitter {tx} vanished")
    return c / norm


def effective_precoders(
    h: np.ndarray, phase1: np.ndarray, tol: Tolerances
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(alphas, coeffs, precoders) where ``precoders[k, i, n]`` spans all 8 slots.

    ``precoders`` stacks the phase-1 coefficients with the repeated phase-2
    triple, so column ``i`` of transmitter ``k``'s effective 8x3 precoding
    matrix is ``precoders[k, i, :]``.
    """
    alphas = compute_alphas(h[:, :, :PHASE1_SLOTS], phase1, tol)
    coeffs = phase2_coefficients(alphas)
    precoders = np.empty((3, 3, NUM_SLOTS, *h.shape[3:]), dtype=np.complex128)
    precoders[:, :, :PHASE1_SLOTS] = phase1
    for n in range(PHASE1_SLOTS, NUM_SLOTS):
        precoders[:, :, n] = coeffs
    return alphas, coeffs, precoders


class IC3RetroCsitScheme(Scheme):
    """3-user interference channel, delayed CSIT, 9 symbols over 8 slots."""

    scheme_id = "ic3_retro_csit"
    num_slots = NUM_SLOTS
    num_rx = 3
    num_tx = 3
    num_entities = 3
    num_symbols = 9
    dof = Fraction(9, 8)
    feedback = FeedbackModel(kind=FeedbackKind.DELAYED_CSIT)
    csi_slot_budget = Fraction(PHASE1_SLOTS, NUM_SLOTS)

    def symbols_for_rx(self, rx: int) -> list[int]:
        return [3 * rx + i for i in range(3)]

    def draw_offline(self, rng: np.random.Generator) -> ICOffline:
        phase1 = sample_complex_gaussian(rng, 3 * 3 * PHASE1_SLOTS).reshape(
            3, 3, PHASE1_SLOTS
        )
        for k in range(3):
            for n in range(PHASE1_SLOTS):
                phase1[k, :, n] /= np.linalg.norm(phase1[k, :, n])
        return ICOffline(phase1=phase1)

    def transmit(self, antenna, slot, view, msgs, offline, state, amp, tol):
        u = msgs.reshape(3, 3, *msgs.shape[1:])
        k = antenna
        if slot < PHASE1_SLOTS:
            return amp * dot(offline.phase1[k, :, slot], u[k])
        key = ("coeff", view.tx)
        if key not in state:
            # Transmitter k only needs the annihilators of the two receivers
            # it interferes with, and reads only their cross channels.
            subs = []
            for rx in interferers(k):
                a, b = interferers(rx)
                reads = np.array(
                    [[view.channel_coeff(rx, j, n) for n in range(PHASE1_SLOTS)] for j in (a, b)]
                )
                h5 = np.zeros((3, 3, *reads.shape[1:]), dtype=np.complex128)
                h5[rx, [a, b]] = reads
                alpha = null_vector(alpha_system(h5, offline.phase1, rx), tol)
                state[("alpha", k, rx)] = alpha
                subs.append(_alpha_sub(alpha, rx, k))
            state[key] = _unit_cross(subs[0], subs[1], k)
        # The same scalar is repeated in every phase-2 slot.
        return amp * dot(state[key], u[k])

    def certificates(self, ctx):
        """Decoder certificates plus the residuals of the encoder's cached alphas and triples."""
        certs = super().certificates(ctx)
        h5 = ctx.tensor.h[:, :, :PHASE1_SLOTS]
        for rx in range(3):
            a = alpha_system(h5, ctx.offline.phase1, rx)
            alpha = ctx.state[("alpha", interferers(rx)[0], rx)]
            certs[f"alpha_residual_rx{rx}"] = vector_norm(matvec(a, alpha)) / frobenius_norm(a)
        # The defining orthogonality of each transmitter's triple against the
        # annihilators it was built from: c[tx] . alpha_sub(rx, tx) = 0.
        constraint = 0.0
        for tx in range(3):
            for rx in interferers(tx):
                sub = _alpha_sub(ctx.state[("alpha", tx, rx)], rx, tx)
                constraint = np.maximum(constraint, abs(dot(ctx.state[("coeff", tx)], sub)))
        certs["constraint_residual"] = constraint
        return certs

    def check_certificates(self, certs, tol):
        failures = super().check_certificates(certs, tol)
        for rx in range(3):
            if np.any(certs[f"alpha_residual_rx{rx}"] > tol.residual_rel):
                failures.append(f"alpha_residual_rx{rx}")
        if np.any(certs["constraint_residual"] > CONSTRAINT_RESIDUAL_MAX):
            failures.append("constraint_residual")
        return failures
