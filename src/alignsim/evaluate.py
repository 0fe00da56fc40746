"""Trial running, decode verification, rate evaluation and DoF estimation.

One trial is one block of a scheme on a fresh channel draw: encode through
causality-checked views, decode at every receiver, compare against the sent
symbols and collect the scheme's structural certificates.  The decoder is
the only judge of a draw: the channel is used as drawn, however weak a
coefficient.  A draw whose receive matrix the decoder judges singular (a
non-finite one included) is a measure-zero event; it is discarded and the
trial is resampled with a fresh deterministic seed, up to a fixed retry cap.
A causality violation or a failed certificate is never resampled: it aborts
the run as a scheme failure.

Every scheme decodes with one zero-forcing decoder (see
:mod:`alignsim.base`).  Its receive matrices are read off the trial's own
block run: next to the message column, the run carries one identity
message column per symbol, whose received blocks are the encoder's
impulse response.  Rates use the zero-forcing SINR of that decoder.  Every
block runs at unit amplitude, and power ``P`` is the message scale
``sqrt(P)``.  Each transmit scalar is complex-linear in the messages and in
the outputs it replays, and the decode ``D y`` is complex-linear in the
received block.  So the decode of messages ``sqrt(P) m`` under unit noise
is ``sqrt(P) m`` plus a fixed linear image of the noise block, the same at
every ``P``, and the per-symbol error relative to the message scale is
exactly ``1/sqrt(P)`` times that image.  The per-symbol noise weight is the
squared norm of the image.  Noise at a receiver/slot position that no
transmitter replays never reaches a transmit signal, and its image is a
column of the decoders.  The image of a replayed position is read off the
trial's own block run too: for rates, the run carries one more column per
replayed output, with zero messages and that position's unit impulse as
noise, so that the replays carry it forward as they would.  A weight turns
into an exact per-symbol SINR ``P / weight`` at every operating point,
which makes rate curves deterministic and smooth enough for slope fitting.

Seeding: trial ``t``, attempt ``a`` of a run with ``base_seed`` uses
``numpy.random.SeedSequence((base_seed, t, a))`` split into independent
channel / offline / message streams, so runs are reproducible trial by
trial, independent of execution order and worker count.  A batch derives
all its trials' generators in one vectorized pass of the SeedSequence hash,
bit for bit those of that contract.

A run has at most one worker per ``ENTRIES_PER_WORKER`` receive-matrix
entries, ``num_rx * num_slots * num_symbols`` per trial, the work of the
decoder's stacked SVD.  Each worker's share is one contiguous range of
trials, which :func:`_run_draws` runs in contiguous batches of at most
``TRIAL_BATCH`` (see :func:`run_trials`).  The calling process is the
first worker; a run of ``W`` workers starts ``W - 1`` child processes, one
per further share, so a run of up to ``ENTRIES_PER_WORKER`` entries starts
none: a child costs more to start than so short a share saves, and a run
on one worker does not even import :mod:`multiprocessing`.  A batch
draws with one ``generate_channel``, one ``draw_offline`` and one
``draw_messages`` call, each handed the batch's generators of that stream:
each generator makes one normal call, into its row of one buffer, and the
complex build and normalization run once on the stack.  The batch then
goes through one block run, one decode context (which judges the
certificates), one decode and, for rates, the noise weights, which need
no run of their own: a batch is one block run in every mode.  Every
reduction on that axis is a stacked LAPACK call or a left-to-right sum, so
a trial's numbers are bit for bit the same whichever trials share its
batch.  So a block the decoder fails splits by draw: the degenerate draws
it names run again together at their trials' next attempt, a draw it fails
otherwise fails its trial, and the draws it does not name run again as a
block of their own, which gives them the bits they had.  Once every trial
of the batch has passed or failed, the lowest failing trial raises, with
the message a run of that trial alone gives.
Outcomes stay arrays on the trial axis (:class:`TrialOutcomes`) from the
batch to the run's report, joined in trial order.
"""

from __future__ import annotations

import math
import numbers
import os
import signal
import sys
from collections.abc import Callable, Sequence
from fractions import Fraction
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from .base import Scheme
from .channel import (
    AccessLog,
    SignalRecord,
    TxInformationView,
    apply_channel,
    generate_channel,
)
from .numerics import (
    NumericsError,
    Singular,
    Tolerances,
    ordered_sum,
    seeded_generators,
    spawn_states,
)
from .registry import get_scheme

if TYPE_CHECKING:
    from multiprocessing.process import BaseProcess

__all__ = [
    "SchemeFailure",
    "TRIAL_BATCH",
    "ENTRIES_PER_WORKER",
    "MAX_ATTEMPTS",
    "DECODE_REL_TOL",
    "Discard",
    "TrialOutcomes",
    "RunReport",
    "DofEstimate",
    "simulate_block",
    "run_trials",
    "noise_transfer_weights",
    "sum_rate_bits",
    "validate_snr_grid",
    "estimate_dof",
    "dof_by_counting",
]

#: Most trials stacked into one block run.
TRIAL_BATCH = 256

#: Decoding work per worker, in receive-matrix entries (trials times
#: ``num_rx * num_slots * num_symbols``): a run starts at most one worker per
#: this many.  On a shared 2-core machine every scheme's second worker breaks
#: even between about 15k and 41k entries, where one worker takes 20-30 ms.
ENTRIES_PER_WORKER = 2**15

#: Retry cap per trial index before the run is declared broken.
MAX_ATTEMPTS = 10

#: A noiseless decode counts as exact when the worst relative symbol error
#: stays below this.
DECODE_REL_TOL = 1e-6

#: Smallest noise weight a rate divides by, so an exact zero gives a finite SINR.
WEIGHT_FLOOR = 1e-300

#: Smallest message magnitude a relative decode error divides by.
SCALE_FLOOR = 1e-300

#: Largest accepted SNR grid magnitude in dB, far past any physical SNR; near
#: 3000 dB the transmit power overflows a float.
SNR_DB_MAX = 1000.0

#: Smallest accepted gap between SNR grid points in dB.  Rounding in the sum
#: rates then moves a two-point slope by under 1e-6, even at SNR_DB_MAX, where
#: a 1e-12 dB gap halves it; near 1e-200 dB the least-squares fit raises.
SNR_GRID_MIN_GAP_DB = 1e-6


class SchemeFailure(Exception):
    """A structural guarantee of a scheme failed; resampling would hide a bug."""


class Discard(NamedTuple):
    """A degenerate draw, resampled with the trial's next attempt."""

    trial: int
    attempt: int
    reason: str


class TrialOutcomes(NamedTuple):
    """Outcomes of ``n`` trials in trial order, each array ``(n,)`` or ``(n, num_symbols)``.

    ``noise_weights`` is present when rates were asked for.  A batch audits its
    trials' reads at once: ``csi_slots`` holds for all.  A block's outcomes,
    as :func:`_run_block` gives them, are in draw order, with ``trial`` and
    ``attempt`` ``None``.
    """

    trial: np.ndarray | None
    attempt: np.ndarray | None
    max_rel_symbol_error: np.ndarray
    certificates: dict[str, np.ndarray]
    noise_weights: np.ndarray | None
    csi_slots: list[int]

    @property
    def decode_ok(self) -> np.ndarray:
        """Per trial, whether the noiseless decode was exact."""
        return self.max_rel_symbol_error <= DECODE_REL_TOL


def _concat(parts: list[TrialOutcomes]) -> TrialOutcomes:
    """The outcomes of ``parts``, joined in trial order; a lone part is returned as it is."""
    first = parts[0]
    if len(parts) == 1:
        return first
    order = np.argsort(np.concatenate([p.trial for p in parts]))

    def join(arrays):
        return np.concatenate(arrays)[order]

    return TrialOutcomes(
        trial=join([p.trial for p in parts]),
        attempt=join([p.attempt for p in parts]),
        max_rel_symbol_error=join([p.max_rel_symbol_error for p in parts]),
        certificates={key: join([p.certificates[key] for p in parts]) for key in first.certificates},
        noise_weights=None if first.noise_weights is None else join(
            [p.noise_weights for p in parts]
        ),
        csi_slots=sorted(set().union(*(p.csi_slots for p in parts))),
    )


class RunReport(NamedTuple):
    """All outcomes of a deterministic multi-trial run."""

    outcomes: TrialOutcomes
    discards: list[Discard]

    @property
    def all_decode_ok(self) -> bool:
        return bool(np.all(self.outcomes.decode_ok))

    @property
    def max_rel_symbol_error(self) -> float:
        return float(np.max(self.outcomes.max_rel_symbol_error))


class DofEstimate(NamedTuple):
    """Least-squares slope of average sum rate against log2 of the power.

    Power ``P`` is the message scale ``sqrt(P)`` of unit-amplitude blocks,
    so each symbol's SINR is exactly ``P / weight`` for its noise weight
    (see :func:`noise_transfer_weights`), and the slope is the pre-log.
    ``max_rel_symbol_error`` is the worst noiseless relative decode error of
    the underlying trials.  The noiseless block is linear in the messages,
    so this relative leakage is the same at every message scale, hence at
    every grid point; its square bounds the leaked-to-desired power ratio
    across the sweep.
    """

    scheme_id: str
    snr_grid_db: list[float]
    sum_rates: list[float]
    slope: float
    intercept: float
    r_squared: float
    trials_per_point: int
    discards: int
    max_rel_symbol_error: float


def _draw_batch(scheme: Scheme, base_seed: int, draws: list[tuple[int, int]]):
    """Channel ``h``, offline coefficients and messages of the draws, on a trailing trial axis.

    Draw ``(trial, attempt)`` takes its channel, offline and message streams
    from the three children of ``SeedSequence((base_seed, trial, attempt))``;
    the seeds of the whole batch come from one pass of the seed hash.  A
    scheme with no offline coefficients draws nothing offline, so its
    offline generators are never built.  Past building its generators,
    a draw's only work of its own is one normal call per stream.
    """
    states = spawn_states([(base_seed, trial, attempt) for trial, attempt in draws], 3)
    h = generate_channel(
        scheme.num_rx, scheme.num_tx, scheme.num_slots, seeded_generators(states[:, 0])
    )
    offline = None
    if scheme.offline_slots or scheme.offline_extra:
        offline = scheme.draw_offline(seeded_generators(states[:, 1]))
    msgs = scheme.draw_messages(seeded_generators(states[:, 2]))
    return h, offline, msgs


def simulate_block(
    scheme: Scheme,
    h: np.ndarray,
    offline,
    msgs: np.ndarray,
    noise: np.ndarray | None = None,
    log: AccessLog | None = None,
) -> SignalRecord:
    """Run one block slot by slot, at unit amplitude, and return every signal involved.

    The block runs on ``h[rx, tx, slot, t]``, a stack of ``T`` trials'
    channels, with offline coefficients stacked the same way.  ``msgs`` has
    shape ``(num_symbols, *B, T)``, where ``B`` is empty or one batch size:
    a batch runs ``B`` blocks on each trial's channel at once, one per
    column.  ``noise`` is an optional array added at the receivers,
    ``(num_rx, num_slots, *B, T)`` or one that broadcasts to it;
    transmitters doing output feedback see the noisy values, as they would
    on a real feedback link.  Every array of the returned record ends in
    ``(*B, T)``.  The views log one record per read, whatever ``B`` and
    ``T`` are.  At each slot of the scheme's
    :attr:`~alignsim.base.Scheme.derive_plan` that names entities, one
    :meth:`~alignsim.base.Scheme.derive` call, with one view per entity,
    derives their rows before any antenna sends; it runs with
    floating-point warnings off, since a degenerate draw may divide by zero
    there.  The rows are cached for this run alone (see
    :meth:`~alignsim.base.Scheme.transmit`): a second run derives them
    again.
    """
    num_tx, num_rx, num_slots = scheme.num_tx, scheme.num_rx, scheme.num_slots
    batch = np.shape(msgs)[1:]
    x = np.zeros((num_tx, num_slots, *batch), dtype=np.complex128)
    y = np.zeros((num_rx, num_slots, *batch), dtype=np.complex128)
    state: dict = {}
    for n, deriving in enumerate(scheme.derive_plan):
        if deriving:
            views = [TxInformationView(tx, n, h, y, scheme.feedback, log) for tx in deriving]
            with np.errstate(all="ignore"):
                state.update(zip(deriving, scheme.derive(views, offline)))
        for j in range(num_tx):
            view = TxInformationView(scheme.entity_of(j), n, h, y, scheme.feedback, log)
            x[j, n] = scheme.transmit(j, n, view, msgs, offline, state)
        noise_slot = None if noise is None else noise[:, n]
        y[:, n] = apply_channel(x[:, n], h, n, noise=noise_slot)
    return SignalRecord(x=x, y=y)


def noise_transfer_weights(scheme: Scheme, ctx, replayed_images: np.ndarray) -> np.ndarray:
    """Per-symbol squared norm of the decoder's unit-power noise image.

    The image of the unit impulse at receiver ``rx``, slot ``n`` is column
    ``(rx, n)`` of the linear noise-to-error map, so the sum of its squared
    magnitudes over the ``num_rx * num_slots`` impulses, in ``(rx, n)``
    order, gives the variance of each symbol estimate under unit-variance
    noise: an array of shape ``(num_symbols, T)``.  At transmit power
    ``P``, the message scale ``sqrt(P)``, the per-symbol SINR is then ``P /
    weight``.

    An impulse that no transmitter replays never reaches a transmit
    signal: its image is column ``n`` of ``ctx.decoders[rx]`` on the
    symbols of ``rx`` and exactly zero on the rest, which the sum skips.  A
    replayed impulse, one of ``scheme.replayed_outputs``, is carried forward
    by the replays, and its image is the decode of a block run with zero
    messages and that impulse as noise: ``replayed_images`` holds them,
    ``(num_symbols, len(scheme.replayed_outputs), T)`` in that order, as
    read off the block ``ctx`` was read from.  Without replayed outputs the
    weights are the decoders' squared row norms, summed over slots left to
    right.
    """
    replayed = dict(zip(scheme.replayed_outputs, np.moveaxis(np.abs(replayed_images) ** 2, 1, 0)))
    weights = np.empty((scheme.num_symbols, *ctx.decoders[0].shape[2:]), dtype=np.float64)
    for own, decoder in enumerate(ctx.decoders):
        symbols = scheme.symbols_for_rx(own)
        rows = np.abs(decoder) ** 2
        terms = []
        for rx in range(scheme.num_rx):
            for n in range(scheme.num_slots):
                if (rx, n) in replayed:
                    terms.append(replayed[rx, n][symbols])
                elif rx == own:
                    terms.append(rows[:, n])
        weights[symbols] = ordered_sum(terms)
    return weights


def sum_rate_bits(weights: np.ndarray, power, num_slots: int) -> float | np.ndarray:
    """Sum rate in bits per channel use from per-symbol noise weights.

    ``weights`` is ``(*A, num_symbols)``, with the symbols on the last axis,
    and ``power`` a float or an array that broadcasts against ``weights``.
    The result has the broadcast leading shape: a float for one weight
    vector and one power.  With C-ordered weights each vector sums along
    its own contiguous row, bit for bit as it would alone.
    """
    sinr = power / np.maximum(weights, WEIGHT_FLOOR)
    return np.sum(np.log2(1.0 + sinr), axis=-1) / num_slots


def _run_block(
    scheme: Scheme, h: np.ndarray, offline, msgs: np.ndarray, tol: Tolerances, collect_weights: bool
) -> TrialOutcomes:
    """Run the block of channels ``h``, offline coefficients and messages; its draws' outcomes.

    The arrays are stacked on a trailing draw axis, as :func:`_draw_batch`
    gives them or as a caller builds them.  The outcomes come in draw order
    with no ``trial`` or ``attempt``, which :func:`_run_draws` sets.  Raises
    what the decoder raises, a :class:`NumericsError` that names the failing
    draws by their index on that axis.  It judges no CSI budget: the
    outcomes' ``csi_slots`` are the slots whose channel states the
    transmitters read, the same for every draw of the block.  The block is
    one run, whose columns are the message, for rates one zero message per
    replayed output with that output's unit impulse as noise (see
    :func:`noise_transfer_weights`), then one identity message per symbol.
    The run adds ``-0.0`` as noise everywhere else, the identity of
    floating-point addition, so the message and identity columns keep the
    bits of a noiseless run.
    """
    n = msgs.shape[-1]
    log = AccessLog()
    size = scheme.num_symbols
    replayed = scheme.replayed_outputs if collect_weights else ()
    k = len(replayed)
    # after the message column, the impulse columns' zero messages, then the
    # identity columns, whose received blocks are the decoder's impulse response
    eye = np.eye(size, k + size, k)
    columns = np.concatenate([msgs[:, None], np.broadcast_to(eye[:, :, None], (*eye.shape, n))], 1)
    noise = None
    if replayed:
        # both parts -0.0: a +0.0 part would turn a -0.0 one into +0.0
        noise = np.full((scheme.num_rx, scheme.num_slots, 1 + k + size, 1), complex(-0.0, -0.0))
        for column, (rx, slot) in enumerate(replayed, 1):
            noise[rx, slot, column] = 1.0
    y = simulate_block(scheme, h, offline, columns, noise=noise, log=log).y
    ctx = scheme.decode_context(tol, y[:, :, 1 + k :])
    decoded = scheme.decode(y[:, :, : 1 + k], ctx)
    weights = None
    if collect_weights:
        weights = noise_transfer_weights(scheme, ctx, decoded[:, 1:])
    errors = np.max(np.abs(decoded[:, 0] - msgs), axis=0)
    scales = np.maximum(np.max(np.abs(msgs), axis=0), SCALE_FLOOR)
    return TrialOutcomes(
        trial=None,
        attempt=None,
        max_rel_symbol_error=errors / scales,
        certificates=ctx.certificates,
        noise_weights=None if weights is None else np.ascontiguousarray(weights.T),
        csi_slots=sorted(log.csi_slots()),
    )


def _run_draws(
    scheme: Scheme,
    base_seed: int,
    trials: Sequence[int],
    tol: Tolerances,
    collect_weights: bool,
    check: Callable[[], None] = lambda: None,
) -> tuple[TrialOutcomes, list[Discard]]:
    """Run the trials until each one passes or fails; returns (outcomes, discards).

    The trials run in ``ceil(len(trials) / TRIAL_BATCH)`` contiguous
    batches, whose sizes differ by at most one, each cut as it is reached.
    ``check`` runs before each batch and ends the run when its caller cannot
    use it: a child worker whose caller is gone exits, and the caller raises
    once a child has exited without sending.  A batch runs from attempt 0 as
    one block, drawn by :func:`_draw_batch` and run by :func:`_run_block`,
    whose outcomes take their draws' trial and attempt.  A block the decoder
    fails splits by the draws its :class:`NumericsError` names.  A
    :class:`~alignsim.numerics.Singular` draw is discarded, and those of one
    block run together at their trials' next attempt; any other named draw,
    or a trial out of its ``MAX_ATTEMPTS`` attempts, fails its trial.  The
    draws it does not name run again as a block of their own.  A draw's
    numbers do not depend on the draws that share its block, so they come
    out as they would have, and so does each failure's message.  Every draw
    makes the same reads, so reads over the CSI budget fail the lowest trial
    that a block of the batch passed.  Once every trial of a batch has
    passed or failed, its lowest failing trial raises :class:`SchemeFailure`
    with the message a run of that trial alone gives.  Otherwise the
    outcomes come in trial order, and the discards by (trial, attempt).
    """
    n = len(trials)
    batches = -(-n // TRIAL_BATCH)
    outcomes: list[TrialOutcomes] = []
    discards: list[Discard] = []
    for b in range(batches):
        check()
        blocks = [[(trial, 0) for trial in trials[b * n // batches : (b + 1) * n // batches]]]
        passed: list[TrialOutcomes] = []
        failures: dict[int, str] = {}
        while blocks:
            draws = blocks.pop()
            h, offline, msgs = _draw_batch(scheme, base_seed, draws)
            try:
                result = _run_block(scheme, h, offline, msgs, tol, collect_weights)
            except NumericsError as error:
                rest, resampled = [], []
                for index, (trial, attempt) in enumerate(draws):
                    if index not in error.draws:
                        rest.append((trial, attempt))
                        continue
                    reason = f"{type(error).__name__}: {error.draws[index]}"
                    if not isinstance(error, Singular):
                        failures[trial] = reason
                        continue
                    discards.append(Discard(trial, attempt, reason))
                    if attempt + 1 == MAX_ATTEMPTS:
                        failures[trial] = f"exceeded {MAX_ATTEMPTS} attempts; last discard: {reason}"
                    else:
                        resampled.append((trial, attempt + 1))
                blocks += [block for block in (rest, resampled) if block]
            else:
                trial, attempt = np.array(draws).T
                passed.append(result._replace(trial=trial, attempt=attempt))
        if passed and Fraction(len(passed[0].csi_slots), scheme.num_slots) > scheme.csi_slot_budget:
            failures[min(int(p.trial[0]) for p in passed)] = (
                f"transmitters read channel states of slots {passed[0].csi_slots}, "
                f"above the budget {scheme.csi_slot_budget}"
            )
        if failures:
            trial = min(failures)
            raise SchemeFailure(f"{scheme.scheme_id} trial {trial}: {failures[trial]}")
        outcomes += passed
    return _concat(outcomes), sorted(discards)


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity set where the platform has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _batch_plan(scheme: Scheme, num_trials: int, threads: int) -> list[range]:
    """Each worker's share of the trials of ``scheme``, a contiguous range.

    A trial's decoding work is the ``num_rx * num_slots * num_symbols``
    entries of its receive matrices, which the decoder's stacked SVD
    factors.  ``min(threads, usable CPUs, ceil(work / ENTRIES_PER_WORKER))``
    workers, at least one, for the run's total ``work``, take contiguous
    shares of the trials whose sizes differ by at most one, so a run of up
    to ``ENTRIES_PER_WORKER`` entries has one worker: below that a child
    costs more to start and join than its share saves.  A ``threads`` of 0
    drops its term: no bound beyond the usable CPUs and the work.  Planning
    and pickling a share cost the same for any size; :func:`_run_draws`
    cuts it into batches.
    """
    cpus = _usable_cpus()
    work = num_trials * scheme.num_rx * scheme.num_slots * scheme.num_symbols
    workers = max(1, min(threads or cpus, cpus, -(-work // ENTRIES_PER_WORKER)))
    bounds = [w * num_trials // workers for w in range(workers + 1)]
    return [range(a, b) for a, b in zip(bounds, bounds[1:])]


def _send_trial_range(args, sender, caller: int) -> None:
    """A child worker: run ``_run_draws(*args)`` and send back what it returned or raised.

    It ignores SIGINT and ends at SIGTERM without a word: the caller stops
    on either signal, and kills it.  Once its parent is no longer
    ``caller``, the process that started it, it exits at its next batch,
    since nothing is left to read its share.
    """
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.signal(signal.SIGTERM, signal.SIG_DFL)

    def orphaned() -> None:
        if os.getppid() != caller:
            sys.exit(1)

    try:
        result = _run_draws(*args, orphaned)
    except Exception as exc:
        result = exc
    sender.send(result)


def _receive_trial_range(child: BaseProcess, receiver):
    """What a child sent: its share's (outcomes, discards), or the exception the share raised.

    A child that exits before it sends raises :class:`ChildProcessError`
    naming its exit code.
    """
    try:
        return receiver.recv()
    except EOFError:
        child.join()
        raise ChildProcessError(
            f"a worker process exited with code {child.exitcode} before sending its trials"
        ) from None


def run_trials(
    scheme_id: str,
    num_trials: int,
    base_seed: int,
    tol: Tolerances = Tolerances(),
    collect_weights: bool = False,
    threads: int = 1,
) -> RunReport:
    """Run ``num_trials`` deterministic trials of a scheme, from 1 to ``sys.maxsize``.

    The outcome is identical for any ``threads`` value.  At most
    ``threads`` workers run (0 sets no bound of its own), at most one per
    usable CPU and one per ``ENTRIES_PER_WORKER`` receive-matrix entries of
    the run's decoding work (see :func:`_batch_plan`); each runs an equal
    contiguous share of the trials through :func:`_run_draws`, in
    near-equal batches of at most ``TRIAL_BATCH``, cut as they run.  The
    scheme is resolved once: the caller is the first worker and runs the
    first share, and each further share runs on that scheme object in a
    child process of its own, forked whatever the default start method (so
    a run of more than one worker needs a platform with ``fork``).  So a
    run of ``W`` workers starts ``W - 1`` children, and a run of up to
    ``ENTRIES_PER_WORKER`` entries starts none: up to 1365 trials of
    ``bc_mat``, or 151 of ``ic3_retro_csit``.
    The shares are received in order, so the first failure in trial order
    is the one raised.  Before each of its batches the caller reads what
    every exited child sent, so a child that exits before it sends raises
    :class:`ChildProcessError` at the caller's next batch, or once the
    caller's share is done.  No child
    outlives the call: one still running when the call ends, by a return or
    by an exception (an interrupt included), is killed and joined, and a
    child whose caller dies without that exits at its next batch.
    """
    if not 1 <= num_trials <= sys.maxsize:
        # a share of more than sys.maxsize trials has no len()
        raise ValueError(f"num_trials must be from 1 to {sys.maxsize}")
    if threads < 0:
        raise ValueError(f"threads must be non-negative, got {threads}")
    scheme = get_scheme(scheme_id)
    first, *rest = [
        (scheme, base_seed, share, tol, collect_weights)
        for share in _batch_plan(scheme, num_trials, threads)
    ]
    children: list[tuple[BaseProcess, object]] = []
    sent: dict[BaseProcess, object] = {}

    def receive_exited() -> None:
        # an exited child's pipe holds all it sent, so this read never waits
        for child, receiver in children:
            if child not in sent and child.exitcode is not None:
                sent[child] = _receive_trial_range(child, receiver)

    try:
        if rest:
            # a run that starts no child never imports multiprocessing.  A child
            # must be forked, whatever the default start method: under forkserver
            # its parent would be the server, and it would stop as orphaned
            from multiprocessing import get_context

            fork = get_context("fork")
        for args in rest:
            receiver, sender = fork.Pipe(duplex=False)
            child = fork.Process(target=_send_trial_range, args=(args, sender, os.getpid()))
            child.start()
            children.append((child, receiver))
            # the child holds the only write end left, so its exit ends the pipe
            sender.close()
        ranges = [_run_draws(*first, receive_exited)]
        # receive before joining: a child blocks on a send the pipe cannot hold
        for child, receiver in children:
            result = sent[child] if child in sent else _receive_trial_range(child, receiver)
            if isinstance(result, Exception):
                raise result
            ranges.append(result)
        for child, _ in children:
            child.join()
    finally:
        for child, receiver in children:
            if child.is_alive():
                child.kill()
            child.join()
            receiver.close()
    return RunReport(_concat([o for o, _ in ranges]), [d for _, ds in ranges for d in ds])


def dof_by_counting(scheme: Scheme) -> Fraction:
    """Exact degrees of freedom: symbols delivered per slot of the block."""
    return Fraction(scheme.num_symbols, scheme.num_slots)


def validate_snr_grid(grid: Sequence[float]) -> None:
    """Raise ``ValueError`` unless :func:`estimate_dof` can fit a slope over the grid in dB."""
    if len(grid) < 2:
        raise ValueError("the SNR grid needs at least two points")
    # a bool is an int to Python, but no SNR in dB
    if not all(isinstance(v, numbers.Real) and not isinstance(v, bool) and math.isfinite(v)
               for v in grid):
        raise ValueError(f"SNR grid points must be finite numbers, got {grid}")
    if any(abs(v) > SNR_DB_MAX for v in grid):
        raise ValueError(f"SNR grid points must lie within +-{SNR_DB_MAX:g} dB, got {grid}")
    if np.min(np.diff(sorted(grid))) < SNR_GRID_MIN_GAP_DB:
        gap = f"{SNR_GRID_MIN_GAP_DB:g} dB"
        raise ValueError(f"SNR grid points must be distinct, {gap} apart or more, got {grid}")


def estimate_dof(
    scheme_id: str,
    snr_grid_db: list[float],
    trials_per_point: int,
    base_seed: int,
    tol: Tolerances = Tolerances(),
    threads: int = 1,
) -> DofEstimate:
    """Fit the pre-log slope of the average sum rate over an SNR grid.

    The same seeded trials supply every grid point (their per-symbol noise
    weights are power-independent), so the grid points share randomness and
    the fit measures the slope, not the Monte Carlo noise.  One
    :func:`sum_rate_bits` call rates every trial at every point, and the
    average over trials is one mean per point.

    The grid is checked by :func:`validate_snr_grid` before any trial runs:
    at least two points, all finite, within ``+-SNR_DB_MAX`` dB and at least
    ``SNR_GRID_MIN_GAP_DB`` apart, or ``ValueError``.
    """
    validate_snr_grid(snr_grid_db)
    scheme = get_scheme(scheme_id)
    report = run_trials(
        scheme_id,
        trials_per_point,
        base_seed,
        tol=tol,
        collect_weights=True,
        threads=threads,
    )
    powers = np.array([10.0 ** (point / 10.0) for point in snr_grid_db])
    # (points, trials) rates from one (points, trials, symbols) pass
    rates = sum_rate_bits(report.outcomes.noise_weights, powers[:, None, None], scheme.num_slots)
    rates_arr = np.mean(rates, axis=1)
    sum_rates = rates_arr.tolist()
    log2_power = np.array([point / 10.0 * math.log2(10.0) for point in snr_grid_db])
    slope, intercept = np.polyfit(log2_power, rates_arr, 1)
    fitted = slope * log2_power + intercept
    ss_res = float(np.sum((rates_arr - fitted) ** 2))
    ss_tot = float(np.sum((rates_arr - rates_arr.mean()) ** 2))
    r_squared = 1.0 - ss_res / ss_tot if ss_tot > 0.0 else 1.0
    return DofEstimate(
        scheme_id=scheme_id,
        snr_grid_db=[float(s) for s in snr_grid_db],
        sum_rates=sum_rates,
        slope=float(slope),
        intercept=float(intercept),
        r_squared=float(r_squared),
        trials_per_point=trials_per_point,
        discards=len(report.discards),
        max_rel_symbol_error=report.max_rel_symbol_error,
    )
