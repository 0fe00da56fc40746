"""Fading channel, feedback models and causality-audited transmitter views.

The channel is the plain complex array ``h[rx, tx, slot, t]`` of i.i.d.
CN(0, 1) coefficients, one per (receiver, transmitter, slot) of each trial
``t`` of a stack, untruncated as in the paper's fading model.  Receivers are
assumed to know the whole array (global receiver CSI, including the current
slot).  Transmitters never touch the array or the received signals directly:
everything they learn goes through a :class:`TxInformationView`, which
enforces the feedback model's delay and association rules and records every
read in an :class:`AccessLog`.  A read that the model does not permit raises
:class:`CausalityViolation`, which is always a bug in a scheme, never a
recoverable event.

Slot indices are 0-based throughout.  Feedback arrives one slot late: a view
for slot ``n`` exposes information of slots ``0 .. n-1`` only.
"""

from __future__ import annotations

import enum
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from .numerics import matvec, sample_complex_gaussian

__all__ = [
    "CausalityViolation",
    "FeedbackKind",
    "FeedbackModel",
    "SignalRecord",
    "generate_channel",
    "apply_channel",
    "AccessRecord",
    "AccessLog",
    "TxInformationView",
]

class CausalityViolation(Exception):
    """A transmitter asked for information its feedback model does not grant."""


class FeedbackKind(enum.Enum):
    """What the feedback link carries back to the transmitters."""

    DELAYED_CSIT = "delayed_csit"
    DELAYED_OUTPUT = "delayed_output"


class FeedbackModel(NamedTuple):
    """Feedback kind, and which transmitters see which receiver outputs.

    Either kind arrives one slot late, the delay the retrospective schemes
    are built on.  ``output_association`` maps a receiver index to the set
    of transmitter entities that are fed that receiver's output.  ``None``
    means full association (every transmitter sees every output).  It is
    only consulted under output feedback.
    """

    kind: FeedbackKind
    output_association: Mapping[int, frozenset[int]] | None = None

    @property
    def provides_csi(self) -> bool:
        return self.kind is FeedbackKind.DELAYED_CSIT

    @property
    def provides_output(self) -> bool:
        return self.kind is FeedbackKind.DELAYED_OUTPUT

    def output_allowed(self, rx: int, tx: int) -> bool:
        if not self.provides_output:
            return False
        if self.output_association is None:
            return True
        return tx in self.output_association.get(rx, frozenset())


def generate_channel(
    num_rx: int, num_tx: int, num_slots: int, rngs: Sequence[np.random.Generator]
) -> np.ndarray:
    """Draw one i.i.d. CN(0, 1) channel per generator: the stack ``h[rx, tx, slot, t]``.

    Channel ``t`` is bit for bit what ``[rngs[t]]`` alone gives.  No draw is
    refused here: a draw the decoder cannot use is the decoder's to judge.
    """
    count = num_rx * num_tx * num_slots
    return sample_complex_gaussian(rngs, count).reshape(num_rx, num_tx, num_slots, len(rngs))


def apply_channel(
    x_slot: np.ndarray, h: np.ndarray, slot: int, noise: np.ndarray | None = None
) -> np.ndarray:
    """Propagate one slot of transmit scalars through the channel.

    Returns ``y[k] = sum_j h[k, j, slot] * x_slot[j]``, evaluated through a
    single fixed arithmetic path, plus ``noise`` when it is given.

    ``x_slot`` has shape ``(num_tx, *B, T)``, where ``B`` is empty or one
    axis of independent blocks on each trial's channel.  The output and
    ``noise`` have the shape of ``x_slot`` with ``num_rx`` leading.
    """
    x_slot = np.asarray(x_slot, dtype=np.complex128)
    if x_slot.ndim not in (2, 3) or x_slot.shape[0] != h.shape[1]:
        raise ValueError(f"expected {h.shape[1]} transmit scalars, got shape {x_slot.shape}")
    y = matvec(h[:, :, slot], x_slot)
    if noise is not None:
        y = y + np.asarray(noise, dtype=np.complex128)
    return y


class SignalRecord(NamedTuple):
    """All scalars of one simulated block.

    ``x[j, n]`` is what antenna ``j`` sent at slot ``n`` and ``y[k, n]``
    what receiver ``k`` observed, noise included when the run added any.
    Both arrays end in the run's ``(*B, T)``: its batch axis, if any, then
    the trial axis.
    """

    x: np.ndarray
    y: np.ndarray


class AccessRecord(NamedTuple):
    """One read through a transmitter view, for every trial of the block at once.

    ``kind`` is ``"csi"`` for a channel coefficient ``h[item_rx, item_tx,
    item_slot]`` and ``"output"`` for a received value ``y[item_rx,
    item_slot]`` (``item_tx`` is None in that case).  ``slot`` is the slot
    being encoded when the read happened.
    """

    tx: int
    slot: int
    kind: str
    item_rx: int
    item_tx: int | None
    item_slot: int


class AccessLog:
    """Append-only record of every transmitter-side information read.

    A view call holds one record however many trials' channels the block
    runs on: every trial of a stack makes the same reads, so the log is
    each trial's own.
    """

    def __init__(self) -> None:
        self.records: list[AccessRecord] = []

    def append(self, record: AccessRecord) -> None:
        self.records.append(record)

    def csi_slots(self) -> frozenset[int]:
        """Slots whose channel states any transmitter read: the CSI usage is their share."""
        return frozenset(r.item_slot for r in self.records if r.kind == "csi")


class TxInformationView:
    """Everything transmitter entity ``tx`` may legally read while encoding slot ``slot``.

    Channel coefficients are available only under delayed CSIT feedback,
    received outputs only under output feedback and only for
    receivers associated with this transmitter; both only for slots at least
    one in the past.  Each successful read is appended to the log (one
    record per call), so the log doubles as a usage certificate.  A read
    returns the value on every trial of the stack.
    """

    def __init__(
        self,
        tx: int,
        slot: int,
        h: np.ndarray,
        outputs: np.ndarray,
        model: FeedbackModel,
        log: AccessLog | None = None,
    ) -> None:
        self.tx = tx
        self.slot = slot
        self._h = h
        self._outputs = outputs
        self.model = model
        self._log = log

    def _check_item_slot(self, item_slot: int, what: str) -> None:
        latest = self.slot - 1
        if not (0 <= item_slot <= latest):
            raise CausalityViolation(
                f"transmitter {self.tx} encoding slot {self.slot} asked for {what} "
                f"of slot {item_slot}; only slots 0..{latest} are visible"
            )

    def channel_coeff(self, rx: int, tx_col: int, item_slot: int) -> np.ndarray:
        """Read ``h[rx, tx_col, item_slot]``, a ``(T,)`` array, enforcing delay and model kind."""
        if not self.model.provides_csi:
            raise CausalityViolation(
                f"feedback kind {self.model.kind.value} carries no channel state"
            )
        self._check_item_slot(item_slot, "channel state")
        if self._log is not None:
            self._log.append(AccessRecord(self.tx, self.slot, "csi", rx, tx_col, item_slot))
        return self._h[rx, tx_col, item_slot]

    def output(self, rx: int, item_slot: int) -> np.ndarray:
        """Read the value receiver ``rx`` observed at ``item_slot``.

        This is the ``(*B, T)`` array of that value across the run's batch
        and trials; it is checked and logged as one read.
        """
        if not self.model.provides_output:
            raise CausalityViolation(
                f"feedback kind {self.model.kind.value} carries no receiver outputs"
            )
        if not self.model.output_allowed(rx, self.tx):
            raise CausalityViolation(
                f"output of receiver {rx} is not fed back to transmitter {self.tx}"
            )
        self._check_item_slot(item_slot, f"output of receiver {rx}")
        if self._log is not None:
            self._log.append(AccessRecord(self.tx, self.slot, "output", rx, None, item_slot))
        return self._outputs[rx, item_slot]

