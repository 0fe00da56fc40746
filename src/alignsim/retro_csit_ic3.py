"""Eight-slot delayed-CSIT scheme for the 3-user interference channel (9 symbols / 8 slots).

Transmitter ``k`` carries three symbols ``u[k, 0..2]`` for receiver ``k``
(flat index ``3k + i``).  The scheme is a schedule of coefficient rows over
each transmitter's own three symbols (slots 0-based):

* Slots 0-4: offline random rows, the base draw's table
  (:meth:`~alignsim.base.Scheme.draw_offline`): symbol ``3k + i``'s
  coefficient at slot ``n`` is ``table[3k + i, n]``.  No channel knowledge
  is used.
* Slots 5-7: one row per transmitter, the retrospectively chosen
  combination ``s[k] = c[k] . u[k]``, sent three times, using no channel
  knowledge of the current slots.  All three transmitters' rows come from
  one :meth:`IC3RetroCsitScheme.derive` call per block run, which factors
  each receiver's annihilator once for both transmitters that use it.

So the scheme is its schedule and its ``derive``.  At receiver ``k``, the
phase-1 interference from its two interferers spans a five-dimensional
subspace of the 8-slot receive space with a one-dimensional annihilator
``alpha[k]``: the null vector of the 5x6 matrix of interfering receive
directions (:meth:`~alignsim.base.Scheme.offline_interference`), interferer
of lower index first.  The coefficient
triple ``c[k]`` is the null vector of the 2x3 matrix whose rows are the two
sub-triples of ``alpha[.]`` that constrain transmitter ``k`` at the
receivers it interferes with, which forces each phase-2 repetition to stay
inside the interference space already spanned during phase 1.  Where the
two sub-triples are independent, that is the direction of their cross
product; where they are parallel, any triple orthogonal to both aligns, and
the null vector is one of them, so no ratio or product of near-equal terms
is ever formed.  Interference at each
receiver therefore occupies exactly 5 of 8 dimensions, leaving 3 for the
three desired symbols; the zero-forcing decoder every scheme shares
(:mod:`alignsim.base`) certifies this and decodes.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from .base import RowPayload, Scheme
from .channel import FeedbackKind, FeedbackModel
from .numerics import null_vector

__all__ = ["interferers", "IC3RetroCsitScheme"]

PHASE1_SLOTS = 5


def interferers(rx: int) -> tuple[int, int]:
    """The two transmitters interfering at ``rx``, lower index first."""
    return tuple(j for j in range(3) if j != rx)


def _own(k: int) -> tuple[int, ...]:
    """Flat indices of transmitter ``k``'s symbols ``u[k, 0..2]``."""
    return (3 * k, 3 * k + 1, 3 * k + 2)


def _alpha_sub(alpha: np.ndarray, rx: int, tx: int) -> np.ndarray:
    """Sub-triple of receiver ``rx``'s annihilator ``alpha`` that weights transmitter ``tx``."""
    a, b = interferers(rx)
    if tx == a:
        return alpha[0:3]
    if tx == b:
        return alpha[3:6]
    raise ValueError(f"transmitter {tx} does not interfere at receiver {rx}")


class IC3RetroCsitScheme(Scheme):
    """3-user interference channel, delayed CSIT, 9 symbols over 8 slots."""

    scheme_id = "ic3_retro_csit"
    num_rx = 3
    owners = (0, 0, 0, 1, 1, 1, 2, 2, 2)
    feedback = FeedbackModel(kind=FeedbackKind.DELAYED_CSIT)
    schedule = (
        *[tuple(RowPayload(_own(k)) for k in range(3))] * PHASE1_SLOTS,
        *[tuple(RowPayload(_own(k), 0) for k in range(3))] * 3,
    )
    csi_slot_budget = Fraction(PHASE1_SLOTS, len(schedule))

    def derive(self, views, offline):
        """Each transmitter ``view.tx``'s phase-2 triple, from the annihilators of its two victims.

        Transmitter ``k`` reads, through its own view, only the cross channels
        of the two receivers it interferes with: those its victims'
        annihilators are built from.  Every receiver some transmitter needs
        is factored once, all in one ``null_vector`` call, and every triple
        comes from one more, on the stacked pairs of sub-triples.
        """
        h5 = np.zeros((3, 3, PHASE1_SLOTS, *offline.table.shape[2:]), dtype=np.complex128)
        for view in views:
            for rx in interferers(view.tx):
                for j in interferers(rx):
                    for n in range(PHASE1_SLOTS):
                        h5[rx, j, n] = view.channel_coeff(rx, j, n)
        victims = sorted({rx for view in views for rx in interferers(view.tx)})
        # every victim's system in one null_vector call, stacked after the columns
        systems = self.offline_interference(h5, offline, victims)
        alphas = dict(zip(victims, np.moveaxis(null_vector(systems), 1, 0)))
        # each transmitter's sub-triples at its lower and its higher victim, as the
        # rows of a 2x3 system stacked after the columns: (2, 3, views, T)
        pairs = np.array([
            [_alpha_sub(alphas[rx], rx, view.tx) for rx in interferers(view.tx)] for view in views
        ])
        triples = null_vector(np.moveaxis(pairs, 0, 2))
        return list(np.ascontiguousarray(np.moveaxis(triples, 1, 0))[:, None])
