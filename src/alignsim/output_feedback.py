"""Short feedback-based schemes driven by explicit slot schedules.

Three constructions, each a schedule (``bc_mat``'s with one derived row):

* ``bc_mat``: two-antenna broadcast channel with delayed CSIT, 4 symbols
  over 3 slots.  Slots 0 and 1 send each user's symbol pair; in slot 2 a
  single antenna sends the sum of the two interference combinations the
  users already observed, a row the transmitter derives from the
  now-available channel states.
* ``x_output_fb``: two-user X channel with delayed output feedback (every
  transmitter sees every receiver's outputs), 4 symbols over 3 slots.  Slots
  0 and 1 send the symbols for receivers 0 and 1; in slot 2 each transmitter
  replays an output that is interference to one receiver and a fresh desired
  equation to the other.
* ``ic3_output_fb``: 3-user interference channel where each transmitter is
  fed back only its own receiver's outputs, 6 symbols over 5 slots.  Three
  symbol slots are followed by two slots replaying overheard outputs, wired
  so that at every receiver the replays add no interference the receiver
  has not already seen and complete two equations in its own two symbols.

A schedule assigns each (slot, antenna) a payload: an information symbol,
a stored received output, or a coefficient row derived from delayed CSIT.
The encoder engine and the zero-forcing decoder that every scheme shares
(:mod:`alignsim.base`) do the rest.  Every payload is linear in the
symbols and in the replayed outputs, and the decoder certifies what the
schedules are built for: at each receiver the interference fills the slots
its two symbols leave free, one slot of three in the 3-slot schemes and
three slots of five in ``ic3_output_fb``.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from .base import OutputPayload, RowPayload, Scheme, SymbolPayload
from .channel import FeedbackKind, FeedbackModel
from .numerics import ordered_sum

__all__ = ["BcMatScheme", "XOutputFeedbackScheme", "IC3OutputFeedbackScheme"]


class BcMatScheme(Scheme):
    """Two-antenna broadcast channel, delayed CSIT, 4 symbols over 3 slots.

    Symbols 0-1 are user 0's pair, symbols 2-3 user 1's.  Both antennas are
    driven by a single transmitter entity.  In slot 2 antenna 0 sends what
    receiver 1 observed in slot 0 plus what receiver 0 observed in slot 1,
    noise-free: interference already known to one receiver and a fresh
    equation in its own pair to the other.
    """

    scheme_id = "bc_mat"
    num_rx = 2
    owners = (0, 0, 0, 0)
    feedback = FeedbackModel(kind=FeedbackKind.DELAYED_CSIT)
    csi_slot_budget = Fraction(2, 3)

    schedule = (
        (SymbolPayload(0), SymbolPayload(1)),
        (SymbolPayload(2), SymbolPayload(3)),
        (RowPayload((0, 1, 2, 3), 0), None),
    )

    @classmethod
    def entity_of(cls, antenna: int) -> int:
        return 0

    def derive(self, views, offline):
        """Slot 2's row: the coefficients of both clean observations, at unit norm."""
        (view,) = views
        # receiver 1's slot-0 coefficients on symbols 0-1, receiver 0's slot-1 ones on 2-3
        row = np.stack(
            [view.channel_coeff(rx, j, m) for rx, m in ((1, 0), (0, 1)) for j in range(2)]
        )
        return [row[None] / np.sqrt(ordered_sum(abs(row) ** 2))]


class XOutputFeedbackScheme(Scheme):
    """Two-user X channel, delayed output feedback, 4 symbols over 3 slots.

    Symbol ``2k + j`` travels from transmitter ``j`` to receiver ``k``.  In
    slot 2, transmitter 0 replays what receiver 1 observed in slot 0 and
    transmitter 1 replays what receiver 0 observed in slot 1; each replay is
    already known to one receiver and completes a 2x2 system at the other.
    """

    scheme_id = "x_output_fb"
    num_rx = 2
    owners = (0, 1, 0, 1)
    feedback = FeedbackModel(kind=FeedbackKind.DELAYED_OUTPUT)
    csi_slot_budget = Fraction(0, 1)

    schedule = (
        (SymbolPayload(0), SymbolPayload(1)),
        (SymbolPayload(2), SymbolPayload(3)),
        (OutputPayload(rx=1, slot=0), OutputPayload(rx=0, slot=1)),
    )


class IC3OutputFeedbackScheme(Scheme):
    """3-user interference channel, own-receiver output feedback, 6 symbols over 5 slots.

    Symbol ``2k + i`` is the i-th symbol for receiver ``k``.  Slots 0-2
    schedule two active transmitters each; slots 3-4 replay overheard
    outputs so that at every receiver the four interfering symbols fill
    only three of the five dimensions, leaving two for its own pair.
    """

    scheme_id = "ic3_output_fb"
    num_rx = 3
    owners = (0, 0, 1, 1, 2, 2)
    feedback = FeedbackModel(
        kind=FeedbackKind.DELAYED_OUTPUT,
        output_association={
            0: frozenset({0}),
            1: frozenset({1}),
            2: frozenset({2}),
        },
    )
    csi_slot_budget = Fraction(0, 1)

    schedule = (
        (SymbolPayload(0), SymbolPayload(2), None),
        (SymbolPayload(1), None, SymbolPayload(4)),
        (None, SymbolPayload(3), SymbolPayload(5)),
        (None, OutputPayload(rx=1, slot=1), OutputPayload(rx=2, slot=0)),
        (OutputPayload(rx=0, slot=2), None, OutputPayload(rx=2, slot=0)),
    )
