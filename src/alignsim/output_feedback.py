"""Short feedback-based schemes driven by explicit slot schedules.

Three constructions share one execution engine:

* ``bc_mat``: two-antenna broadcast channel with delayed CSIT, 4 symbols
  over 3 slots.  Slots 0 and 1 send each user's symbol pair; in slot 2 a
  single antenna sends the sum of the two interference combinations the
  users already observed, rebuilt at the transmitter from the now-available
  channel states.
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

A schedule assigns each (slot, antenna) a payload: an information symbol, a
stored received output, or a superposition of clean combinations rebuilt
from delayed CSIT.  That is all a scheme here defines.  Every payload is
linear in the symbols and in the replayed outputs, so the receivers decode
with the zero-forcing decoder every scheme shares (:mod:`alignsim.base`).
It certifies what the schedules are built for: at each receiver the
interference fills the slots its two symbols leave free, one slot of three
in the 3-slot schemes and three slots of five in ``ic3_output_fb``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .base import Scheme
from .channel import FeedbackKind, FeedbackModel
from .numerics import ordered_sum

__all__ = [
    "SymbolPayload",
    "OutputPayload",
    "ComboPayload",
    "ScheduledScheme",
    "BcMatScheme",
    "XOutputFeedbackScheme",
    "IC3OutputFeedbackScheme",
]


@dataclass(frozen=True)
class SymbolPayload:
    """Send information symbol ``symbol`` scaled to full power."""

    symbol: int


@dataclass(frozen=True)
class OutputPayload:
    """Replay the value receiver ``rx`` observed at ``slot``, unscaled.

    The transmitter reads the stored output through its feedback view; it
    has no channel knowledge, so the replay cannot be renormalized and its
    power is proportional to, not exactly equal to, the slot budget.
    """

    rx: int
    slot: int


@dataclass(frozen=True)
class ComboPayload:
    """Send the sum of clean combinations ``refs``, rebuilt from delayed CSIT.

    Each ref ``(rx, slot)`` names the noise-free linear combination receiver
    ``rx`` observed at ``slot``.  The transmitter knows the symbols it sent
    and, once the feedback delay has passed, the channel states, so it can
    reconstruct the combinations exactly and normalize the sum to full
    power.
    """

    refs: tuple[tuple[int, int], ...]


class ScheduledScheme(Scheme):
    """Execution engine for schedule-driven schemes.

    Subclasses provide ``schedule``: per slot, per antenna payloads, ``None``
    for silence.  The schedule fixes the block's size: ``num_slots`` is its
    number of rows, ``num_tx`` their length and ``num_symbols`` its number of
    symbol payloads.
    """

    schedule: tuple[tuple[object, ...], ...]

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls.num_slots = len(cls.schedule)
        cls.num_tx = len(cls.schedule[0])
        cls.num_symbols = sum(
            isinstance(payload, SymbolPayload) for row in cls.schedule for payload in row
        )

    def transmit(self, antenna, slot, view, msgs, offline, state, tol):
        payload = self.schedule[slot][antenna]
        if payload is None:
            return 0j
        if isinstance(payload, SymbolPayload):
            return msgs[payload.symbol]
        if isinstance(payload, OutputPayload):
            return view.output(payload.rx, payload.slot)
        if isinstance(payload, ComboPayload):
            # each coefficient is read once; their norm scales the sum to full power
            terms = [
                (view.channel_coeff(r, j, m), other.symbol)
                for r, m in payload.refs
                for j, other in enumerate(self.schedule[m])
                if isinstance(other, SymbolPayload)
            ]
            norm = np.sqrt(ordered_sum(abs(coeff) ** 2 for coeff, _ in terms))
            return ordered_sum(coeff * msgs[symbol] for coeff, symbol in terms) / norm
        raise TypeError(f"unknown payload {payload!r}")


class BcMatScheme(ScheduledScheme):
    """Two-antenna broadcast channel, delayed CSIT, 4 symbols over 3 slots.

    Symbols 0-1 are user 0's pair, symbols 2-3 user 1's.  Both antennas are
    driven by a single transmitter entity.
    """

    scheme_id = "bc_mat"
    num_rx = 2
    feedback = FeedbackModel(kind=FeedbackKind.DELAYED_CSIT)
    csi_slot_budget = Fraction(2, 3)

    schedule = (
        (SymbolPayload(0), SymbolPayload(1)),
        (SymbolPayload(2), SymbolPayload(3)),
        (ComboPayload(refs=((1, 0), (0, 1))), None),
    )

    def entity_of(self, antenna: int) -> int:
        return 0


class XOutputFeedbackScheme(ScheduledScheme):
    """Two-user X channel, delayed output feedback, 4 symbols over 3 slots.

    Symbol ``2k + j`` travels from transmitter ``j`` to receiver ``k``.  In
    slot 2, transmitter 0 replays what receiver 1 observed in slot 0 and
    transmitter 1 replays what receiver 0 observed in slot 1; each replay is
    already known to one receiver and completes a 2x2 system at the other.
    """

    scheme_id = "x_output_fb"
    num_rx = 2
    feedback = FeedbackModel(kind=FeedbackKind.DELAYED_OUTPUT)
    csi_slot_budget = Fraction(0, 1)

    schedule = (
        (SymbolPayload(0), SymbolPayload(1)),
        (SymbolPayload(2), SymbolPayload(3)),
        (OutputPayload(rx=1, slot=0), OutputPayload(rx=0, slot=1)),
    )


class IC3OutputFeedbackScheme(ScheduledScheme):
    """3-user interference channel, own-receiver output feedback, 6 symbols over 5 slots.

    Symbol ``2k + i`` is the i-th symbol for receiver ``k``.  Slots 0-2
    schedule two active transmitters each; slots 3-4 replay overheard
    outputs so that at every receiver the four interfering symbols fill
    only three of the five dimensions, leaving two for its own pair.
    """

    scheme_id = "ic3_output_fb"
    num_rx = 3
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
