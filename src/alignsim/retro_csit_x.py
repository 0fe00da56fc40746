"""Seven-slot delayed-CSIT scheme for the two-user X channel (8 symbols / 7 slots).

Two transmitters each carry one two-symbol message for each of two receivers.
Message symbols are ``u[k, j, i]``: the i-th symbol (i in {0, 1}) from
transmitter ``j`` to receiver ``k``; the flat index is ``4k + 2j + i``.

The scheme is a schedule of coefficient rows over each transmitter's own
four symbols (slots 0-based):

* Slots 0-2: offline random rows, the base draw's table
  (:meth:`~alignsim.base.Scheme.draw_offline`): symbol ``u[k, j, i]``'s
  coefficient at slot ``n`` is ``table[4k + 2j + i, n]``.  No channel
  knowledge is used.
* Slots 3-6: rows both transmitters derive in one call per block run
  (:meth:`XRetroCsitScheme.derive`): offline random combinations of each
  transmitter's two second-layer variables ``s[j, k]``, one per message
  ``(k, j)``, written out over the symbols.  The combinations' weights
  ``c[j, k, p]``, for slot ``3 + p``, are the draw's 16 extra
  coefficients.  Each layer variable is chosen, from the slot-0..2
  channel states that the one-slot feedback delay has made available, so
  that at each receiver the two cross interference symbols arrive along a
  single direction.

The layer variables come from the unique null vector ``v`` of each 3x4
matrix whose columns are the slot-0..2 receive directions, at one receiver,
of the four symbols intended for the other
(:meth:`~alignsim.base.Scheme.offline_interference`).  For receiver 0's
``v`` that system makes the combination ``sum_j (v[2j] u[1, j, 0] +
v[2j+1] u[1, j, 1])`` of receiver 1's symbols invisible at receiver 0.  So
once the layer
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

import numpy as np

from .base import RowPayload, Scheme
from .channel import FeedbackKind, FeedbackModel
from .numerics import null_vector, vector_norm

__all__ = ["XRetroCsitScheme"]

PHASE1_SLOTS = 3


def _own(j: int) -> tuple[int, ...]:
    """Flat indices of transmitter ``j``'s symbols ``u[0, j, :]`` and ``u[1, j, :]``."""
    return (2 * j, 2 * j + 1, 4 + 2 * j, 5 + 2 * j)


class XRetroCsitScheme(Scheme):
    """X channel, delayed CSIT, 8 symbols over 7 slots."""

    scheme_id = "x_retro_csit"
    num_rx = 2
    owners = (0, 0, 1, 1, 0, 0, 1, 1)
    feedback = FeedbackModel(kind=FeedbackKind.DELAYED_CSIT)
    schedule = (
        *[tuple(RowPayload(_own(j)) for j in range(2))] * PHASE1_SLOTS,
        *[tuple(RowPayload(_own(j), p) for j in range(2)) for p in range(4)],
    )
    csi_slot_budget = Fraction(PHASE1_SLOTS, len(schedule))
    # c[j, k, p]: the weight of layer s[j, k] in transmitter j's slot-(3+p) row
    offline_extra = 2 * 2 * (len(schedule) - PHASE1_SLOTS)

    def derive(self, views, offline):
        """Each transmitter ``view.tx``'s phase-2 rows, from the slot-0..2 states' null vectors.

        Each transmitter reads all twelve states through its own view; both
        interference systems are factored once for all.  Nothing is judged
        here: a draw whose system is short of rank gives one null vector of
        several, and the decoder judges the receive matrix it makes (a
        measure-zero event).
        """
        h3 = np.empty((2, 2, PHASE1_SLOTS, *offline.table.shape[2:]), dtype=np.complex128)
        for view in views:
            # slot by slot, each slot's matrix row by row
            for m in range(PHASE1_SLOTS):
                for k in range(2):
                    for j in range(2):
                        h3[k, j, m] = view.channel_coeff(k, j, m)
        # both receivers' systems in one null_vector call, stacked after the columns
        null = null_vector(self.offline_interference(h3, offline, range(2)))
        weights = offline.extra.reshape(2, 2, self.num_slots - PHASE1_SLOTS, -1)
        derived = []
        for view in views:
            j, c = view.tx, weights[view.tx]
            # v[:, k]: the entries of receiver 1-k's null vector that weigh transmitter j
            v = null[2 * j : 2 * j + 2, ::-1]
            # c[k] s[j, k] over (u[0, j, 0], u[0, j, 1], u[1, j, 0], u[1, j, 1]), per slot
            rows = np.stack([c[0] * v[1, 0], -c[0] * v[0, 0], c[1] * v[1, 1], -c[1] * v[0, 1]])
            derived.append(np.moveaxis(rows / vector_norm(rows), 1, 0))
        return derived
