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
a coefficient row over named symbols.  A row with no row key is offline:
the schedule's offline slots are those that send one, and one table, drawn
channel-free before the block (:meth:`Scheme.draw_offline`), holds a
coefficient per symbol and offline slot.  A row with a key comes from the
sending entity's derived rows: one :meth:`Scheme.derive` call per block run
turns the delayed CSI into the rows of every entity that first derives at a
slot, each entity reading through its own view.  The receive directions
that the offline rows give each receiver's unwanted symbols, the systems a
retrospective ``derive`` annihilates, are built once, here
(:meth:`Scheme.offline_interference`).  The only
window into the channel or the past outputs is the
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

from collections.abc import Sequence
from fractions import Fraction
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .channel import FeedbackModel, TxInformationView
from .numerics import (
    NumericsError, Singular, Tolerances, complex_gaussian, dot, matvec, sample_complex_gaussian,
    standard_normals, vector_norm, zero_forcing_rows,
)

__all__ = [
    "InterferenceRankUnexpected", "SymbolPayload", "OutputPayload", "RowPayload", "Offline",
    "DecodeContext", "Scheme",
]


class InterferenceRankUnexpected(NumericsError):
    """Interference at a receiver spans more dimensions than the design leaves it.

    A zero-forcing residual above ``Tolerances.residual_rel``, or NaN, means
    some interference cannot be told apart from the desired symbols.  This is a
    structural failure of the construction, never a resampling event.
    """


class SymbolPayload(NamedTuple):
    """Send information symbol ``symbol`` at full power."""

    symbol: int

    @property
    def symbols(self) -> tuple[int]:
        """The one symbol it names, as a row names its symbols."""
        return (self.symbol,)


class OutputPayload(NamedTuple):
    """Replay the value receiver ``rx`` observed at ``slot``, unscaled.

    The transmitter reads the stored output through its feedback view; it
    has no channel knowledge, so the replay cannot be renormalized and its
    power is proportional to, not exactly equal to, the slot budget.
    """

    rx: int
    slot: int


class RowPayload(NamedTuple):
    """Send a coefficient row over the named symbols: ``row . msgs[symbols]``.

    With no ``row`` key the row is offline: the offline table's coefficients
    of ``symbols`` at this slot (:meth:`Scheme.draw_offline`).  A key names
    one of the rows the sending entity derived from its view
    (:meth:`Scheme.derive`).  Each row is a ``(len(symbols), T)`` array that
    the draw or ``derive`` normalizes to full power.
    """

    symbols: tuple[int, ...]
    row: int | None = None


class Offline(NamedTuple):
    """Coefficients shared by all nodes before the block, independent of the channel.

    ``table[symbol, k, t]`` weighs ``symbol`` in the offline rows of the
    ``k``-th offline slot, normalized to unit power over each row's symbols;
    ``extra`` holds the scheme's ``offline_extra`` further coefficients,
    ``(offline_extra, T)``, as drawn.
    """

    table: np.ndarray
    extra: np.ndarray


class DecodeContext(NamedTuple):
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
    payloads name.  A schedule has no more slots than symbols, since each
    receive matrix ``G`` must be wide enough to zero-force; a class whose
    schedule has more is rejected when it is created.  ``replayed_outputs``
    lists the distinct ``(rx, slot)`` outputs its transmitters replay, in
    that order: where the noise reaches a transmit signal.
    ``offline_slots`` lists the slots that send an offline row (a
    :class:`RowPayload` with no row key), in order; a class whose offline
    rows name one symbol twice in a slot is rejected when it is created.
    ``offline_extra`` counts the offline coefficients a scheme draws past
    its table (:meth:`draw_offline`).

    Transmitters are distributed: ``owners[s]`` is the one entity that knows
    symbol ``s``, and a class whose schedule has antenna ``j`` send a
    symbol or row naming a symbol that ``entity_of(j)`` does not own is
    rejected when it is created.
    """

    scheme_id: str
    schedule: tuple[tuple[object, ...], ...]
    num_slots: int
    num_rx: int
    num_tx: int          # channel inputs (antennas)
    num_symbols: int
    owners: tuple[int, ...]  # the entity that knows each symbol
    replayed_outputs: tuple[tuple[int, int], ...]
    offline_slots: tuple[int, ...]
    offline_extra: int = 0
    feedback: FeedbackModel
    csi_slot_budget: Fraction  # largest legal fraction of slots with CSI read back

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls.num_slots = len(cls.schedule)
        cls.num_tx = len(cls.schedule[0])
        cls.num_symbols = len(
            {s for payloads in cls.schedule for p in payloads for s in getattr(p, "symbols", ())}
        )
        cls.replayed_outputs = tuple(sorted(
            {(p.rx, p.slot) for payloads in cls.schedule for p in payloads
             if isinstance(p, OutputPayload)}
        ))
        # each offline row, a row with no key: (slot, antenna, symbols)
        offline = [
            (slot, antenna, p.symbols) for slot, payloads in enumerate(cls.schedule)
            for antenna, p in enumerate(payloads) if isinstance(p, RowPayload) and p.row is None
        ]
        cls.offline_slots = tuple(sorted({slot for slot, _, _ in offline}))
        name = getattr(cls, "scheme_id", cls.__name__)
        if cls.num_slots > cls.num_symbols:
            raise ValueError(
                f"scheme {name}: its schedule has {cls.num_slots} slots but names only "
                f"{cls.num_symbols} symbols"
            )
        for slot, payloads in enumerate(cls.schedule):
            for antenna, p in enumerate(payloads):
                entity = cls.entity_of(antenna)
                if any(cls.owners[s] != entity for s in getattr(p, "symbols", ())):
                    raise ValueError(
                        f"scheme {name}: slot {slot}, antenna {antenna} names a symbol "
                        f"that its entity {entity} does not own"
                    )
            named = [s for n, _, symbols in offline if n == slot for s in symbols]
            if len(set(named)) < len(named):
                raise ValueError(f"scheme {name}: slot {slot}'s offline rows name a symbol twice")
        # (k, antenna, symbols) of each offline row, k its slot's place in offline_slots
        cls._offline_rows = [(cls.offline_slots.index(n), a, s) for n, a, s in offline]
        # per row width, the (R, w) symbols and (R, 1) slot places of those rows:
        # draw_offline normalizes each width's rows in one gather and scatter
        by_width: dict[int, list] = {}
        for k, _, symbols in cls._offline_rows:
            by_width.setdefault(len(symbols), []).append((symbols, [k]))
        cls._row_index = [tuple(map(np.array, zip(*rows))) for rows in by_width.values()]

    @classmethod
    def entity_of(cls, antenna: int) -> int:
        """Transmitter entity that drives the given antenna and reads for it (identity by default)."""
        return antenna

    def draw_offline(self, rngs) -> Offline | None:
        """Channel-independent coefficients shared by all nodes before the block.

        ``rngs`` is a sequence of ``T`` generators, one per trial, whose draws
        are stacked on a trailing trial axis.  Each generator makes one
        normal call: the CN(0, 1) table ``table[symbol, k]``, one coefficient
        per symbol and offline slot, symbol-major, then ``offline_extra``
        more, each complex draw its real parts before its imaginary ones.
        Each offline row is then normalized to unit power over its symbols,
        summed in the row's order, so the row sends unit power.  A scheme
        with neither draws nothing and gets ``None``.
        """
        count = self.num_symbols * len(self.offline_slots)
        if not count + self.offline_extra:
            return None
        z = standard_normals(rngs, 2 * (count + self.offline_extra))
        table = complex_gaussian(z[: 2 * count]).reshape(self.num_symbols, -1, len(rngs))
        for symbols, ks in self._row_index:
            rows = table[symbols, ks]
            table[symbols, ks] = rows / vector_norm(rows.swapaxes(0, 1))[:, None]
        return Offline(table, complex_gaussian(z[2 * count :]))

    def offline_interference(self, h: np.ndarray, offline: Offline, rxs) -> np.ndarray:
        """Each receiver's receive directions, over the offline slots, of the symbols it does not want.

        ``h[rx, antenna, slot]`` holds at least the offline slots' channel
        states that these directions use, from the views of a ``derive``.
        Column ``c`` of receiver ``rx``'s system is the ``c``-th symbol it
        does not want, in index order: over the offline slots, its coefficient
        times the channel from the antenna that sends it to ``rx``, and 0
        where no offline row of the slot names it.  The systems of the
        receivers ``rxs`` (a sequence) come stacked after the columns,
        ``(len(offline_slots), u, len(rxs), T)``, as
        :func:`~alignsim.numerics.null_vector` takes a stack: one indexed
        product builds them all.
        """
        antennas, slots, symbols, k = self._interference_index
        antennas, symbols = antennas[..., rxs], symbols[:, rxs]
        systems = h[rxs, np.maximum(antennas, 0), slots] * offline.table[symbols, k]
        systems[antennas < 0] = 0.0
        return systems

    @cached_property
    def _interference_index(self) -> tuple[np.ndarray, ...]:
        """Index arrays of :meth:`offline_interference` for every receiver.

        The sending antenna ``(K, u, num_rx)`` (-1 where no offline row of
        the slot names the symbol), the slots ``(K, 1, 1)``, each receiver's
        unwanted symbols ``(u, num_rx)`` and the slots' places ``(K, 1, 1)``.
        """
        senders = np.full((self.num_symbols, len(self.offline_slots)), -1)
        for k, antenna, symbols in self._offline_rows:
            senders[list(symbols), k] = antenna
        unwanted = np.array([np.delete(range(self.num_symbols), w) for w in self._symbol_rows]).T
        k = np.arange(len(self.offline_slots))[:, None, None]
        return senders[unwanted, k], np.array(self.offline_slots)[k], unwanted, k

    def draw_messages(self, rngs) -> np.ndarray:
        """Unit-power information symbols ``(num_symbols, T)`` (``rngs`` as above)."""
        return sample_complex_gaussian(rngs, self.num_symbols)

    def derive(self, views: Sequence[TxInformationView], offline: Offline) -> list[np.ndarray]:
        """Each entity ``view.tx``'s derived rows (by ``RowPayload.row``), in the order of ``views``.

        The engine calls it once per block run for each slot of
        :attr:`derive_plan` that names entities, with one view per entity at
        that slot, and caches each entity's rows under its index for the rest
        of the run.  Every entity reads through its own view exactly what its
        own rows use, so the access log and the causality checks stay per
        entity; work that several entities' rows share, such as factoring one
        receiver's system, is done once.  It judges no draw: the decoder
        judges the receive matrix the rows make (:meth:`decode_context`).
        """
        raise NotImplementedError(f"{self.scheme_id} schedules no derived rows")

    @cached_property
    def derive_plan(self) -> tuple[tuple[int, ...], ...]:
        """``derive_plan[slot]``: the entities whose first derived row is sent at ``slot``.

        Each entity appears once, at its first derived slot; the entities of a
        slot are in the order their antennas first send a derived row.
        """
        first: dict[int, int] = {}
        for slot, payloads in enumerate(self.schedule):
            for antenna, payload in enumerate(payloads):
                if isinstance(payload, RowPayload) and payload.row is not None:
                    first.setdefault(self.entity_of(antenna), slot)
        return tuple(
            tuple(tx for tx, first_slot in first.items() if first_slot == slot)
            for slot in range(self.num_slots)
        )

    def symbols_for_rx(self, rx: int) -> list[int]:
        """Indices into the message vector that receiver ``rx`` must recover.

        Every receiver wants as many symbols, stored in one contiguous block
        per receiver, in receiver order.
        """
        per_rx = self.num_symbols // self.num_rx
        return list(range(per_rx * rx, per_rx * (rx + 1)))

    @cached_property
    def _symbol_rows(self) -> np.ndarray:
        """``(num_rx, w)``: row ``rx`` holds :meth:`symbols_for_rx` of ``rx``."""
        return np.array([self.symbols_for_rx(rx) for rx in range(self.num_rx)])

    def interference_rank(self, rx: int) -> int:
        """Receive dimensions the design leaves to interference at ``rx``."""
        return self.num_slots - len(self.symbols_for_rx(rx))

    def transmit(
        self,
        antenna: int,
        slot: int,
        view: TxInformationView,
        msgs: np.ndarray,
        offline: Offline | None,
        state: dict,
    ) -> complex | np.ndarray:
        """Scalar sent from ``antenna`` at ``slot``: its payload in the schedule.

        ``msgs`` has shape ``(num_symbols, *B, T)``: ``B`` is empty or one
        axis of blocks on each trial's channel, and ``T`` is the trial axis,
        which the view's channel and ``offline`` carry last as well.  The
        result is the ``(*B, T)`` array of scalars, or one scalar that holds
        for all of them.  View reads carry both axes through and are logged
        once per read whatever ``B`` and ``T`` are.

        ``state`` is the cache of one block run (it starts empty each run):
        ``state[tx]`` holds entity ``tx``'s derived rows, which the block
        driver (:func:`~alignsim.evaluate.simulate_block`) stores from one
        :meth:`derive` call before the entity's first derived slot is sent;
        a row with a key is sent from there, and a row with none from the
        offline table's coefficients of its symbols at this slot.
        The scalar is complex-linear in ``msgs``
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
            symbols = list(payload.symbols)
            row = (offline.table[symbols, self.offline_slots.index(slot)] if payload.row is None
                   else state[view.tx][payload.row])
            return dot(row, msgs[symbols])
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
        :class:`InterferenceRankUnexpected` is raised instead, and its
        ``draws`` carry every such draw, each with a message that names its
        residual and receiver.  So each draw an exception names gets the
        message a block of that draw alone raises, whichever draws share its
        block.
        """
        # every receiver's receive matrix has one shape: one SVD call for all
        g = np.moveaxis(response, 0, 2)
        d, cond, residual = zero_forcing_rows(g, self._symbol_rows)
        if not ((cond > tol.rank_rel).all() and (residual <= tol.residual_rel).all()):
            # rows cond_rx0, residual_rx0, cond_rx1, ...: each draw's checks in key order
            failed = np.stack([~(cond > tol.rank_rel), ~(residual <= tol.residual_rel)], axis=1)
            failed = failed.reshape(2 * self.num_rx, -1)
            draws = np.flatnonzero(failed.any(axis=0))
            rx, leak = np.divmod(failed[:, draws].argmax(axis=0), 2)
            # a leak in the block is raised, naming each draw whose first failed check leaks
            error = InterferenceRankUnexpected if leak.any() else Singular
            named = leak == leak.any()
            messages = {}
            for t, r in zip(draws[named].tolist(), rx[named].tolist()):
                if error is Singular:
                    value = cond[r].flat[t]
                    messages[t] = (
                        f"receiver {r}: condition number "
                        f"{1.0 / value if value > 0.0 else np.inf:.3e} exceeds "
                        f"{1.0 / tol.rank_rel:.1e}; receive_cond_rx{r} is at or below the "
                        f"--tol-rank cutoff {tol.rank_rel:.1e}"
                    )
                else:
                    messages[t] = (
                        f"zero-forcing residual {residual[r].flat[t]:.3e} at receiver {r} "
                        f"exceeds {tol.residual_rel:.1e} (interference may fill only "
                        f"{self.interference_rank(r)} of {self.num_slots} receive dimensions)"
                    )
            raise error(messages)
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
