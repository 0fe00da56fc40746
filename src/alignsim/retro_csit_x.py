"""Seven-slot delayed-CSIT scheme for the two-user X channel (8 symbols / 7 slots).

Two transmitters each carry one two-symbol message for each of two receivers.
Message symbols are ``u[k, j, i]``: the i-th symbol (i in {0, 1}) from
transmitter ``j`` to receiver ``k``; the flat index is ``4k + 2j + i``.

The scheme is a schedule of coefficient rows over each transmitter's own
four symbols (slots 0-based):

* Slots 0-2: offline random rows.  No channel knowledge is used.
* Slots 3-6: rows both transmitters derive in one call per block run
  (:meth:`XRetroCsitScheme.derive`): offline random combinations of each
  transmitter's two second-layer variables ``s[j, k]``, one per message
  ``(k, j)``, written out over the symbols.  Each layer variable is chosen,
  from the slot-0..2 channel states that the one-slot feedback delay has
  made available, so that at each receiver the two cross interference
  symbols arrive along a single direction.

The layer variables come from the unique null vector ``v`` of each 3x4
matrix whose columns are the slot-0..2 receive directions, at one receiver,
of the four symbols intended for the other.  For receiver 0's ``v`` that
system makes the combination ``sum_j (v[2j] u[1, j, 0] + v[2j+1] u[1, j,
1])`` of receiver 1's symbols invisible at receiver 0.  So once the layer
``s[j, 1] = v[2j+1] u[1, j, 0] - v[2j] u[1, j, 1]`` is substituted, the two
cross second symbols ``u[1, j, 1]`` arrive at receiver 0 along directions
that, scaled by ``v[2j+1]``, sum to zero: along one direction.
Symmetrically, receiver 1's null vector gives ``s[., 0]``.  The paper
writes each layer as ``u[k, j, 0] - gamma[j, k] u[k, j, 1]``, with ``gamma``
the ratio ``v[2j] / v[2j+1]`` of the two entries the layer uses; the rows
take the entries themselves, so no ratio is formed and a zero entry is no
special case.  At each receiver the four interfering symbols then fill
only 3 of the 7 receive dimensions: two for their layer variables and one
for the direction along which both cross second symbols arrive in phase 1.
That leaves 4 for the receiver's own four symbols; the zero-forcing decoder
every scheme shares (:mod:`alignsim.base`) certifies this and decodes.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .base import RowPayload, Scheme
from .channel import FeedbackKind, FeedbackModel
from .numerics import complex_gaussian, null_vector, standard_normals, vector_norm

__all__ = [
    "XOffline",
    "interference_system",
    "XRetroCsitScheme",
]

PHASE1_SLOTS = 3


def _own(j: int) -> tuple[int, ...]:
    """Flat indices of transmitter ``j``'s symbols ``u[0, j, :]`` and ``u[1, j, :]``."""
    return (2 * j, 2 * j + 1, 4 + 2 * j, 5 + 2 * j)


class XOffline(NamedTuple):
    """Coefficients agreed on before the block, independent of the channel.

    ``phase1[k, j, i, n]`` weights symbol ``u[k, j, i]`` in transmitter j's
    slot-n scalar, n in 0..2, normalized to unit power per (j, n).
    ``phase2[j, m, p]`` weights layer variable ``s[j, m]`` in transmitter j's
    slot-(3+p) scalar.
    """

    phase1: np.ndarray
    phase2: np.ndarray

    @property
    def rows(self) -> np.ndarray:
        """``rows[j, n]``: transmitter j's slot-n row of ``phase1`` over its own symbols."""
        return self.phase1.transpose(1, 3, 0, 2, 4).reshape(2, PHASE1_SLOTS, 4, -1)


def interference_system(h3: np.ndarray, phase1: np.ndarray, rx: int) -> np.ndarray:
    """3x4 matrix of phase-1 receive directions, at ``rx``, of the other receiver's symbols.

    ``h3`` is the slot-0..2 channel block ``(2, 2, 3, T)``.  Column order:
    (tx 0, sym 0), (tx 0, sym 1), (tx 1, sym 0), (tx 1, sym 1).
    """
    other = 1 - rx
    cols = []
    for j in range(2):
        for i in range(2):
            cols.append(h3[rx, j, :] * phase1[other, j, i, :])
    return np.stack(cols, axis=1)


class XRetroCsitScheme(Scheme):
    """X channel, delayed CSIT, 8 symbols over 7 slots."""

    scheme_id = "x_retro_csit"
    num_rx = 2
    owners = (0, 0, 1, 1, 0, 0, 1, 1)
    feedback = FeedbackModel(kind=FeedbackKind.DELAYED_CSIT)
    schedule = (
        *[tuple(RowPayload(_own(j), (j, n)) for j in range(2)) for n in range(PHASE1_SLOTS)],
        *[tuple(RowPayload(_own(j), p, derived=True) for j in range(2)) for p in range(4)],
    )
    csi_slot_budget = Fraction(PHASE1_SLOTS, len(schedule))

    def draw_offline(self, rngs) -> XOffline:
        trials, phase2_slots = len(rngs), self.num_slots - PHASE1_SLOTS
        # phase 2's complex draw follows phase 1's in each stream: one normal call covers both
        phase1_count = 2 * 2 * 2 * PHASE1_SLOTS
        z = standard_normals(rngs, 2 * (phase1_count + 2 * 2 * phase2_slots))
        phase1 = complex_gaussian(z[: 2 * phase1_count])
        phase1 = phase1.reshape(2, 2, 2, PHASE1_SLOTS, trials)
        # Unit transmit power per (transmitter, slot): the scalar sent is the
        # sum of coefficient * unit-power symbol.
        norm = vector_norm(phase1.swapaxes(1, 2).reshape(4, 2, PHASE1_SLOTS, trials))
        return XOffline(
            phase1=phase1 / norm[None, :, None],
            phase2=complex_gaussian(z[2 * phase1_count :]).reshape(2, 2, phase2_slots, trials),
        )

    def derive(self, views, offline):
        """Each transmitter ``view.tx``'s phase-2 rows, from the slot-0..2 states' null vectors.

        Each transmitter reads all twelve states through its own view; both
        interference systems are factored once for all.  Nothing is judged
        here: a draw whose system is short of rank gives one null vector of
        several, and the decoder judges the receive matrix it makes (a
        measure-zero event).
        """
        h3 = np.empty((2, 2, PHASE1_SLOTS, *offline.phase1.shape[4:]), dtype=np.complex128)
        for view in views:
            # slot by slot, each slot's matrix row by row
            for m in range(PHASE1_SLOTS):
                for k in range(2):
                    for j in range(2):
                        h3[k, j, m] = view.channel_coeff(k, j, m)
        # both receivers' systems in one null_vector call, stacked after the columns
        systems = np.stack([interference_system(h3, offline.phase1, rx) for rx in range(2)], axis=2)
        null = null_vector(systems)
        derived = []
        for view in views:
            j, c = view.tx, offline.phase2[view.tx]
            # v[:, k]: the entries of receiver 1-k's null vector that weigh transmitter j
            v = null[2 * j : 2 * j + 2, ::-1]
            # c[k] s[j, k] over (u[0, j, 0], u[0, j, 1], u[1, j, 0], u[1, j, 1]), per slot
            rows = np.stack([c[0] * v[1, 0], -c[0] * v[0, 0], c[1] * v[1, 1], -c[1] * v[0, 1]])
            derived.append(np.moveaxis(rows / vector_norm(rows), 1, 0))
        return derived
