"""Common contract shared by every transmission scheme.

A scheme is a stateless description of one block: how many slots, antennas,
receivers and information symbols it uses, which feedback model it assumes,
and how to encode, decode and certify a single block.  All per-trial data
(channel, offline coefficients, messages, cached alignment constants) is
passed in explicitly, so one scheme instance can be shared freely across
trials and worker processes.

Encoding happens one scalar at a time through ``transmit``; the only window
into the channel or the past outputs is the :class:`~alignsim.channel.\
TxInformationView` handed in by the block driver, which makes the feedback
causality of every scheme mechanically checkable.  Decoding gets the full
channel tensor (receivers have global CSI) via a per-trial context object
prepared by ``decode_context``.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Any

import numpy as np

from .channel import FeedbackModel, TxInformationView
from .numerics import Tolerances, sample_complex_gaussian

__all__ = ["Scheme"]


class Scheme:
    """Base class; subclasses fill in the class attributes and the four hooks."""

    scheme_id: str
    num_slots: int
    num_rx: int
    num_tx: int          # channel inputs (antennas)
    num_entities: int    # independent transmitter entities doing the reading
    num_symbols: int
    dof: Fraction
    feedback: FeedbackModel
    csi_slot_budget: Fraction  # largest legal fraction of slots with CSI read back

    def entity_of(self, antenna: int) -> int:
        """Transmitter entity that drives the given antenna (identity by default)."""
        return antenna

    def draw_offline(self, rng: np.random.Generator) -> Any:
        """Channel-independent coefficients shared by all nodes before the block."""
        return None

    def draw_messages(self, rng: np.random.Generator) -> np.ndarray:
        """Unit-power information symbols, one per message slot in the block."""
        return sample_complex_gaussian(rng, self.num_symbols)

    def symbols_for_rx(self, rx: int) -> list[int]:
        """Indices into the message vector that receiver ``rx`` must recover."""
        raise NotImplementedError

    def transmit(
        self,
        antenna: int,
        slot: int,
        view: TxInformationView,
        msgs: np.ndarray,
        offline: Any,
        state: dict,
        amp: float,
        tol: Tolerances,
    ) -> complex | np.ndarray:
        """Scalar sent from ``antenna`` at ``slot``.

        ``msgs`` has shape ``(num_symbols, *B, *T)``: ``B`` is empty or one
        axis of blocks on the same channel, and ``T`` is empty or the trial
        axis of a stack of trials, which the view's channel and ``offline``
        carry last as well.  The result is the ``(*B, *T)`` array of scalars,
        or one scalar that holds for all of them.  ``msgs[i]`` indexing keeps
        the unbatched case on numpy scalars.  View reads carry both axes
        through and are logged once per trial whatever ``B`` is.

        ``state`` is a per-block scratch dict for caching constants computed
        from the view (it starts empty each block).  ``amp`` is the square
        root of the transmit power; information-bearing slots are scaled so
        their average power is exactly ``amp**2``.
        """
        raise NotImplementedError

    def decode_context(self, tensor, offline: Any, tol: Tolerances, amp: float) -> Any:
        """Receiver-side constants shared by all decoders of one block.

        ``tensor`` and ``offline`` may carry a trailing trial axis; the
        context then holds one set of constants per trial.  May raise a
        :class:`~alignsim.numerics.Degenerate` error for measure-zero draws,
        or a :class:`~alignsim.numerics.NumericsError` when a structural
        property of the construction fails to hold.
        """
        raise NotImplementedError

    def decode(self, rx: int, y_row: np.ndarray, ctx: Any) -> np.ndarray:
        """Estimates of ``symbols_for_rx(rx)`` from that receiver's observations.

        ``y_row`` has shape ``(num_slots, *B, *T)`` and the result
        ``(len(symbols_for_rx(rx)), *B, *T)``.  ``y_row`` may be a view of the
        received block, so it must not be written to.
        """
        raise NotImplementedError

    def certificates(self, ctx: Any) -> dict[str, float]:
        """Per-block health figures (ranks, determinants, residuals).

        With a trial axis each value is a ``(T,)`` array, or one float that
        holds for every trial.
        """
        return {}

    def check_certificates(self, certs: dict[str, float], tol: Tolerances) -> list[str]:
        """Names of certificate checks that failed (empty means all passed)."""
        return []
