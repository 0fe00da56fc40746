"""Common contract shared by every transmission scheme: its one encoder engine and one decoder.

A scheme is a stateless description of one block: a schedule of payloads,
the feedback model it assumes, its draws and the rows its transmitters
derive.  All per-trial data (channel, offline coefficients, messages) is
passed in explicitly, and each entity's derived rows live in a cache of one
block run, so one scheme instance can be shared freely across trials and
worker processes.

The schedule assigns each (slot, antenna) a payload, and it fixes the
block's size.  :meth:`Scheme.transmit`, the one encoder engine, sends a
payload one scalar at a time: an information symbol, a replayed output, or
a coefficient row over named symbols.  A row comes from the offline draw or
from the sending entity's :meth:`Scheme.derive`, which the engine runs once
per block.  The only window into the channel or the past outputs is the
:class:`~alignsim.channel.TxInformationView` handed in by the block driver,
which makes the feedback causality of every scheme mechanically checkable.
Delayed CSIT becomes coefficients only inside a ``derive``: the engine
itself reads no channel state.

Every payload is complex-linear in the symbols, so decoding is the same for
all schemes and is defined here once.  The encoder's impulse response at
receiver ``rx`` (what the receiver observes when one symbol is 1 and the
rest are 0) is a ``num_slots x num_symbols`` receive matrix ``G``.  The
receiver zero-forces with the rows of ``G⁺`` that belong to its own
symbols.  This recovers them exactly when ``G`` has full row rank and the
interference fills only the ``num_slots - len(symbols_for_rx(rx))``
dimensions that the desired symbols leave free.  This is the alignment
each scheme is built for, and the decoder certifies it for every scheme:
:meth:`Scheme.decode_context` judges each draw's receive conditioning and
zero-forcing residual, and its :class:`DecodeContext` carries those two
values per receiver as the block's certificates, the same for every scheme.
The context holds what the decoder made alone, never the block run it was
read from.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Any

import numpy as np

from .channel import FeedbackModel, TxInformationView
from .numerics import (
    NumericsError, Singular, Tolerances, dot, matvec, sample_complex_gaussian, zero_forcing_rows,
)

__all__ = [
    "InterferenceRankUnexpected", "SymbolPayload", "OutputPayload", "RowPayload",
    "DecodeContext", "Scheme",
]


class InterferenceRankUnexpected(NumericsError):
    """Interference at a receiver spans more dimensions than the design leaves it.

    A zero-forcing residual above ``Tolerances.residual_rel``, or NaN, means
    some interference cannot be told apart from the desired symbols.  This is a
    structural failure of the construction, never a resampling event.
    """


@dataclass(frozen=True)
class SymbolPayload:
    """Send information symbol ``symbol`` at full power."""

    symbol: int

    @property
    def symbols(self) -> tuple[int]:
        """The one symbol it names, as a row names its symbols."""
        return (self.symbol,)


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
class RowPayload:
    """Send ``rows[row] . msgs[symbols]``: a coefficient row over the named symbols.

    ``rows`` is the offline draw's ``offline.rows``, or, where ``derived``,
    the rows the sending entity derived from its view (:meth:`Scheme.derive`).
    Each row is a ``(len(symbols), T)`` array that the draw or ``derive``
    normalizes to full power.
    """

    symbols: tuple[int, ...]
    row: int | tuple[int, ...]
    derived: bool = False


@dataclass(frozen=True)
class DecodeContext:
    """The zero-forcing decoders of one block and the certificates they were judged by.

    ``decoders[rx]`` is the ``(len(symbols_for_rx(rx)), num_slots, T)``
    stack of matrices that map receiver ``rx``'s observations to its
    symbols.  ``certificates`` holds their guards (see
    :func:`~alignsim.numerics.zero_forcing_rows`), ``receive_cond_rx*`` and
    ``zf_residual_rx*``, a ``(T,)`` array each, by receiver in the order
    :meth:`Scheme.decode_context` judges them.  Every scheme reports the same
    two per receiver.  The design's interference rank
    (:meth:`Scheme.interference_rank`) is not among them: the two guards
    certify it (ROADMAP item 2 would measure it).
    """

    decoders: tuple[np.ndarray, ...]
    certificates: dict[str, np.ndarray]


class Scheme:
    """Base class, encoder engine and decoder: subclasses give a schedule, draws and ``derive``.

    ``schedule[slot][antenna]`` is a payload, or ``None`` for silence.  The
    schedule fixes the block's size: ``num_slots`` is its number of rows,
    ``num_tx`` their length and ``num_symbols`` the number of symbols its
    payloads name.
    """

    scheme_id: str
    schedule: tuple[tuple[object, ...], ...]
    num_slots: int
    num_rx: int
    num_tx: int          # channel inputs (antennas)
    num_symbols: int
    feedback: FeedbackModel
    csi_slot_budget: Fraction  # largest legal fraction of slots with CSI read back

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls.num_slots = len(cls.schedule)
        cls.num_tx = len(cls.schedule[0])
        cls.num_symbols = len(
            {s for payloads in cls.schedule for p in payloads for s in getattr(p, "symbols", ())}
        )

    def entity_of(self, antenna: int) -> int:
        """Transmitter entity that drives the given antenna and reads for it (identity by default)."""
        return antenna

    def draw_offline(self, rngs) -> Any:
        """Channel-independent coefficients shared by all nodes before the block.

        ``rngs`` is a sequence of ``T`` generators, one per trial, whose draws
        are stacked on a trailing trial axis.  A schedule with offline rows
        reads them as ``offline.rows``.
        """
        return None

    def draw_messages(self, rngs) -> np.ndarray:
        """Unit-power information symbols ``(num_symbols, T)`` (``rngs`` as above)."""
        return sample_complex_gaussian(rngs, self.num_symbols)

    def derive(self, view: TxInformationView, offline: Any) -> np.ndarray:
        """Entity ``view.tx``'s derived rows (by ``RowPayload.row``), at its first derived slot.

        It judges no draw: the decoder judges the receive matrix its rows make
        (:meth:`decode_context`).
        """
        raise NotImplementedError(f"{self.scheme_id} schedules no derived rows")

    def symbols_for_rx(self, rx: int) -> list[int]:
        """Indices into the message vector that receiver ``rx`` must recover.

        Every receiver wants as many symbols, stored in one contiguous block
        per receiver, in receiver order.
        """
        per_rx = self.num_symbols // self.num_rx
        return list(range(per_rx * rx, per_rx * (rx + 1)))

    def interference_rank(self, rx: int) -> int:
        """Receive dimensions the design leaves to interference at ``rx``."""
        return self.num_slots - len(self.symbols_for_rx(rx))

    def transmit(
        self,
        antenna: int,
        slot: int,
        view: TxInformationView,
        msgs: np.ndarray,
        offline: Any,
        state: dict,
    ) -> complex | np.ndarray:
        """Scalar sent from ``antenna`` at ``slot``: its payload in the schedule.

        ``msgs`` has shape ``(num_symbols, *B, T)``: ``B`` is empty or one
        axis of blocks on each trial's channel, and ``T`` is the trial axis,
        which the view's channel and ``offline`` carry last as well.  The
        result is the ``(*B, T)`` array of scalars, or one scalar that holds
        for all of them.  View reads carry both axes through and are logged
        once per read whatever ``B`` and ``T`` are.

        ``state`` is the cache of one block run (it starts empty each run): at
        an entity's first derived row, the engine stores its :meth:`derive`
        under the entity index; it runs with floating-point warnings off,
        since a degenerate draw may divide by zero there, and judges
        nothing.  The scalar is complex-linear in ``msgs``
        and in the outputs it replays, so a power ``P`` is the message scale
        ``sqrt(P)``.  A payload is one of three kinds.  The two built from
        the symbols alone (a symbol, a coefficient row) are normalized: with
        unit-power messages their average power is exactly 1 per (antenna,
        slot), whatever the channel; a row that depends on the channel is
        its entity's :meth:`derive`, the only place delayed CSIT is read.  A
        replayed output is not: it is sent as received, so its power follows
        its slot's channel gains and noise.  For noiseless unit-power
        messages it averages 2 over channel draws, since two antennas feed
        every replayed slot (ROADMAP item 4).
        """
        payload = self.schedule[slot][antenna]
        if payload is None:
            return 0j
        if isinstance(payload, SymbolPayload):
            return msgs[payload.symbol]
        if isinstance(payload, OutputPayload):
            return view.output(payload.rx, payload.slot)
        if isinstance(payload, RowPayload):
            if payload.derived and view.tx not in state:
                with np.errstate(all="ignore"):
                    state[view.tx] = self.derive(view, offline)
            rows = state[view.tx] if payload.derived else offline.rows
            return dot(rows[payload.row], msgs[list(payload.symbols)])
        raise TypeError(f"unknown payload {payload!r}")

    def decode_context(self, tol: Tolerances, response: np.ndarray) -> DecodeContext:
        """Zero-forcing decoders of every receiver for one block, and its certificates.

        ``response`` is the encoder's impulse response ``(num_rx, num_slots,
        num_symbols, T)``: the received block of a run whose message columns
        are the identity.

        All receivers' matrices share one shape and want as many symbols, so
        one :func:`~alignsim.numerics.zero_forcing_rows` call factors them all,
        each bit for bit as a call on its matrix alone would.

        This is the one judge of every draw, and of every certificate.  Each
        draw meets two checks per receiver, receiver by receiver, in the
        order of the context's ``certificates`` keys: ``receive_cond_rx*``
        above ``Tolerances.rank_rel`` (``--tol-rank``), then
        ``zf_residual_rx*`` at or below ``Tolerances.residual_rel``
        (``--tol-residual``).  A NaN passes neither, and a receive matrix
        that is not finite has a NaN ``cond``.  The draw's first failed check
        decides.  Where it is a ``receive_cond_rx*``, the draw is degenerate;
        :class:`~alignsim.numerics.Singular` carries every such draw, each
        with a message that names its receiver, its condition number and the
        cutoff.  Where it is a zero-forcing residual, for any draw,
        :class:`InterferenceRankUnexpected` is raised instead, naming the
        first such draw's residual and receiver.  So a block of one draw
        raises what that draw meets first, whichever draws share its block.
        """
        # every receiver's receive matrix has one shape: one SVD call for all
        g = np.moveaxis(response, 0, 2)
        rows = np.array([self.symbols_for_rx(rx) for rx in range(self.num_rx)])
        d, cond, residual = zero_forcing_rows(g, rows)
        # rows cond_rx0, residual_rx0, cond_rx1, ...: each draw's checks in key order
        failed = np.stack([~(cond > tol.rank_rel), ~(residual <= tol.residual_rel)], axis=1)
        failed = failed.reshape(2 * self.num_rx, -1)
        if failed.any():
            draws = np.flatnonzero(failed.any(axis=0))
            rx, leak = np.divmod(failed[:, draws].argmax(axis=0), 2)
            if leak.any():
                i = leak.argmax()
                r = int(rx[i])
                raise InterferenceRankUnexpected(
                    f"zero-forcing residual {residual[r].flat[draws[i]]:.3e} at receiver {r} "
                    f"exceeds {tol.residual_rel:.1e} (interference may fill only "
                    f"{self.interference_rank(r)} of {self.num_slots} receive dimensions)"
                )
            messages = {}
            for t, r in zip(draws.tolist(), rx.tolist()):
                value = cond[r].flat[t]
                messages[t] = (
                    f"receiver {r}: condition number "
                    f"{1.0 / value if value > 0.0 else np.inf:.3e} exceeds "
                    f"{1.0 / tol.rank_rel:.1e}; receive_cond_rx{r} is at or below the "
                    f"--tol-rank cutoff {tol.rank_rel:.1e}"
                )
            raise Singular(messages)
        certificates = {}
        for rx in range(self.num_rx):
            certificates[f"receive_cond_rx{rx}"] = cond[rx]
            certificates[f"zf_residual_rx{rx}"] = residual[rx]
        return DecodeContext(tuple(np.ascontiguousarray(np.moveaxis(d, 2, 0))), certificates)

    def decode(self, y: np.ndarray, ctx: DecodeContext) -> np.ndarray:
        """Estimates of every symbol from the received block ``y``.

        ``y`` has shape ``(num_rx, num_slots, *B, T)`` and the result
        ``(num_symbols, *B, T)``; each receiver decodes its own symbols
        from its own row.
        """
        decoded = np.empty((self.num_symbols, *y.shape[2:]), dtype=np.complex128)
        for rx in range(self.num_rx):
            decoded[self.symbols_for_rx(rx)] = matvec(ctx.decoders[rx], y[rx])
        return decoded
