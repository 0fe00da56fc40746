"""The trailing axes of the block engine: the batch axis ``B`` and the trial axis ``T``.

Every block runs on a stack of trials, so one trial is a stack of one.  A
run with a batch axis must compute, column by column, what a run of each
column alone computes, and must read through the transmitter views exactly
as that run does.  A stack of trials must compute, trial by trial, what a
one-trial stack of each computes.  The noise-transfer weights, which read
the replayed outputs' impulses off the batch's one block run and take the
decoder rows for every other impulse, are checked against a per-impulse
loop and, bit for bit, against one run with an impulse at every receiver
and slot.  A trial's results must not depend, to the bit, on the trials
that share its batch.
"""

from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import alignsim.evaluate as evaluate
from alignsim.base import OutputPayload, Scheme, SymbolPayload
from alignsim.channel import AccessLog, FeedbackKind, FeedbackModel, generate_channel
from alignsim.evaluate import (
    MAX_ATTEMPTS,
    TRIAL_BATCH,
    _draw_batch,
    _run_block,
    _run_draws,
    run_trials,
    simulate_block,
)
from alignsim.numerics import Singular, Tolerances, ordered_sum, sample_complex_gaussian
from alignsim.registry import SCHEMES, get_scheme

from _decode import decode_context, noise_weights
from _oracles import all_impulse_weights
from _outcomes import outcome_fields, run_with_batches

ALL_SCHEME_IDS = sorted(SCHEMES)


def per_impulse_weights(scheme, h, offline, ctx):
    """Reference weights: one block run per (receiver, slot) impulse.

    On a stack of trials, every trial takes the impulse in the same run.
    """
    trials = h.shape[3:]
    zero_msgs = np.zeros((scheme.num_symbols, *trials), dtype=np.complex128)
    weights = np.zeros((scheme.num_symbols, *trials), dtype=np.float64)
    for k0 in range(scheme.num_rx):
        for n0 in range(scheme.num_slots):
            noise = np.zeros((scheme.num_rx, scheme.num_slots, *trials), dtype=np.complex128)
            noise[k0, n0] = 1.0
            record = simulate_block(scheme, h, offline, zero_msgs, noise=noise)
            weights += np.abs(scheme.decode(record.y, ctx)) ** 2
    return weights


def _draw(scheme, rng):
    """(h, offline) of a one-trial stack drawn from ``rng``."""
    h = generate_channel(scheme.num_rx, scheme.num_tx, scheme.num_slots, [rng])
    return h, scheme.draw_offline([rng])


def _assert_close(batched, column):
    scale = max(float(np.max(np.abs(column))), 1e-300)
    assert float(np.max(np.abs(batched - column))) <= 1e-12 * scale


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    scheme_id=st.sampled_from(ALL_SCHEME_IDS),
    batch=st.integers(1, 6),
    seed=st.integers(0, 2**32 - 1),
)
def test_batched_block_matches_unbatched_columns(scheme_id, batch, seed):
    scheme = get_scheme(scheme_id)
    rng = np.random.default_rng(seed)
    h, offline = _draw(scheme, rng)
    msgs = sample_complex_gaussian([rng], scheme.num_symbols * batch).reshape(-1, batch, 1)
    noise = sample_complex_gaussian([rng], scheme.num_rx * scheme.num_slots * batch).reshape(
        scheme.num_rx, scheme.num_slots, batch, 1
    )
    try:
        ctx = decode_context(scheme, h, offline)
        log = AccessLog()
        record = simulate_block(scheme, h, offline, msgs, noise=noise, log=log)
        decoded = scheme.decode(record.y, ctx)
    except Singular:
        assume(False)
    assert record.x.shape == (scheme.num_tx, scheme.num_slots, batch, 1)
    assert record.y.shape == (scheme.num_rx, scheme.num_slots, batch, 1)
    assert decoded.shape == (scheme.num_symbols, batch, 1)
    for b in range(batch):
        column_log = AccessLog()
        column = simulate_block(
            scheme, h, offline, msgs[:, b], noise=noise[:, :, b], log=column_log
        )
        # one record per scalar read, not one per batch column
        assert log.records == column_log.records
        for name in ("x", "y"):
            _assert_close(getattr(record, name)[:, :, b], getattr(column, name))
        _assert_close(decoded[:, b], scheme.decode(column.y, ctx))


@pytest.mark.parametrize("scheme_id", ALL_SCHEME_IDS)
def test_noise_weights_match_per_impulse_reference(scheme_id):
    scheme = get_scheme(scheme_id)
    rng = np.random.default_rng(31)
    for _ in range(3):
        h, offline = _draw(scheme, rng)
        ctx = decode_context(scheme, h, offline)
        weights = noise_weights(scheme, h, offline, ctx)
        reference = per_impulse_weights(scheme, h, offline, ctx)
        assert weights.shape == (scheme.num_symbols, 1)
        np.testing.assert_allclose(weights, reference, rtol=1e-12)


DELAYED_CSIT_IDS = ["bc_mat", "ic3_retro_csit", "x_retro_csit"]
OUTPUT_FEEDBACK_IDS = ["ic3_output_fb", "x_output_fb"]


def _one_and_stacked(scheme):
    """(h, offline) of a one-trial stack, then of a 40-trial stack."""
    one = _draw(scheme, np.random.default_rng(37))
    h, offline, _ = _draw_batch(scheme, 37, [(t, 0) for t in range(40)])
    return [one, (h, offline)]


def _decoder_row_norms(scheme, ctx):
    """Each symbol's squared decoder row norm, summed over slots left to right."""
    trials = ctx.decoders[0].shape[2:]
    norms = np.empty((scheme.num_symbols, *trials), dtype=np.float64)
    for rx, decoder in enumerate(ctx.decoders):
        norms[scheme.symbols_for_rx(rx)] = ordered_sum(np.moveaxis(np.abs(decoder) ** 2, 1, 0))
    return norms


@pytest.mark.parametrize("scheme_id", DELAYED_CSIT_IDS)
def test_weights_without_output_feedback_are_exact(scheme_id):
    # no transmitter replays an output, so the weights are the decoder rows
    # and must still carry the impulse runs' bits
    scheme = get_scheme(scheme_id)
    assert not scheme.feedback.provides_output
    for h, offline in _one_and_stacked(scheme):
        ctx = decode_context(scheme, h, offline)
        reference = per_impulse_weights(scheme, h, offline, ctx)
        weights = noise_weights(scheme, h, offline, ctx)
        assert weights.shape == reference.shape
        assert np.array_equal(weights, reference)


@pytest.mark.parametrize("scheme_id", OUTPUT_FEEDBACK_IDS)
def test_output_feedback_weights_are_not_decoder_row_norms(scheme_id):
    # replayed outputs carry the noise forward, so the row norms miss part of it
    scheme = get_scheme(scheme_id)
    assert scheme.feedback.provides_output
    for h, offline in _one_and_stacked(scheme):
        ctx = decode_context(scheme, h, offline)
        reference = per_impulse_weights(scheme, h, offline, ctx)
        np.testing.assert_allclose(
            noise_weights(scheme, h, offline, ctx),
            reference,
            rtol=1e-12,
        )
        assert not np.allclose(_decoder_row_norms(scheme, ctx), reference, rtol=1e-3)


@pytest.mark.parametrize("scheme_id", ALL_SCHEME_IDS)
@pytest.mark.parametrize("trials", [1, 17, 256])
def test_batch_weights_equal_the_all_impulse_run(scheme_id, trials):
    # the batch's one block run carries an impulse only where an output is
    # replayed; a run with an impulse at every receiver and slot gives the same bits
    scheme = get_scheme(scheme_id)
    h, offline, msgs = _draw_batch(scheme, 3, [(t, 0) for t in range(trials)])
    outcomes = _run_block(scheme, h, offline, msgs, Tolerances(), True)
    reference = all_impulse_weights(scheme, decode_context(scheme, h, offline), h, offline)
    assert outcomes.noise_weights.shape == (trials, scheme.num_symbols)
    assert np.array_equal(outcomes.noise_weights, reference.T)


@pytest.mark.parametrize("scheme_id", ALL_SCHEME_IDS)
@pytest.mark.parametrize("collect_weights", [False, True], ids=["verify", "sweep"])
@pytest.mark.parametrize("trials", [1, 17, 256])
def test_run_block_on_the_drawn_arrays_gives_the_runs_outcomes(scheme_id, collect_weights, trials):
    # a run's one path from a block to outcomes takes the arrays as given: on
    # the arrays a batch draws it gives, bit for bit, what the run recorded
    scheme = get_scheme(scheme_id)
    report, [recorded] = run_with_batches(scheme_id, trials, 3, collect_weights)
    draws = [(t, 0) for t in range(trials)]
    h, offline, msgs = _draw_batch(scheme, 3, draws)
    outcomes = _run_block(scheme, h, offline, msgs, Tolerances(), collect_weights)
    assert outcome_fields(outcomes) == outcome_fields(recorded)
    trial, attempt = np.array(draws).T
    labelled = outcomes._replace(trial=trial, attempt=attempt)
    assert outcome_fields(labelled) == outcome_fields(report.outcomes)
    # a draw with no channel is singular, and the decoder names it alone
    zeroed = trials // 2
    h[..., zeroed] = 0.0
    with pytest.raises(Singular) as raised:
        _run_block(scheme, h, offline, msgs, Tolerances(), collect_weights)
    assert list(raised.value.draws) == [zeroed]


class _ChainedReplay(Scheme):
    """Two receivers, three antennas, full output feedback: slot 2 replays slot 1's
    output at receiver 1, which itself carries two replays of slot 0."""

    scheme_id = "chained_replay"
    num_rx = 2
    owners = (2, 0, 0, 2)
    feedback = FeedbackModel(kind=FeedbackKind.DELAYED_OUTPUT)
    csi_slot_budget = Fraction(0, 1)

    schedule = (
        (SymbolPayload(2), None, None),
        (SymbolPayload(1), OutputPayload(rx=0, slot=0), OutputPayload(rx=1, slot=0)),
        (OutputPayload(rx=1, slot=0), OutputPayload(rx=1, slot=1), SymbolPayload(0)),
        (None, OutputPayload(rx=0, slot=0), SymbolPayload(3)),
    )


@pytest.mark.parametrize("seed", [0, 3, 9])
def test_chained_replay_weights_equal_the_all_impulse_run(seed):
    # no shipped schedule replays an output that itself carries a replay; the
    # weights read off the batch run must still be the all-impulse run's bits
    scheme = _ChainedReplay()
    outcomes, discards = _run_draws(scheme, seed, range(256), Tolerances(), True)
    assert discards == [] and outcomes.decode_ok.all()
    h, offline, _ = _draw_batch(scheme, seed, [(t, 0) for t in range(256)])
    reference = all_impulse_weights(scheme, decode_context(scheme, h, offline), h, offline)
    assert np.array_equal(outcomes.noise_weights, reference.T)


@pytest.mark.parametrize("scheme_id", ALL_SCHEME_IDS)
def test_a_sweep_batch_decodes_as_a_verify_batch(scheme_id):
    # the impulse columns and the -0.0 noise of the other columns leave the
    # message and identity columns their noiseless bits, signs of zero included
    scheme = get_scheme(scheme_id)
    block = _draw_batch(scheme, 5, [(t, 0) for t in range(40)])
    received = []

    def recording(*args, **kwargs):
        record = simulate_block(*args, **kwargs)
        received.append(record.y)
        return record

    with mock.patch.object(evaluate, "simulate_block", recording):
        sweep = _run_block(scheme, *block, Tolerances(), True)
        verify = _run_block(scheme, *block, Tolerances(), False)
    assert verify.noise_weights is None and sweep.noise_weights is not None
    swept_y, verified_y = received
    impulses = len(scheme.replayed_outputs)
    assert swept_y.shape[2] == verified_y.shape[2] + impulses
    kept = np.delete(swept_y, np.arange(1, 1 + impulses), axis=2)
    assert kept.tobytes() == verified_y.tobytes()
    pairs = [(sweep.max_rel_symbol_error, verify.max_rel_symbol_error)]
    assert list(sweep.certificates) == list(verify.certificates)
    pairs += [(sweep.certificates[key], verify.certificates[key]) for key in verify.certificates]
    for swept, verified in pairs:
        assert np.array_equal(swept, verified)
        assert np.array_equal(np.signbit(swept), np.signbit(verified))


# -- trials on the batch axis -------------------------------------------------

_FULL_RUNS: dict = {}


def _full_batch(scheme_id):
    """Outcomes of the first TRIAL_BATCH trials of seed 41, run as one full batch.

    They come without trials and attempts, as a block's outcomes do.
    """
    if scheme_id not in _FULL_RUNS:
        report = run_trials(scheme_id, TRIAL_BATCH, 41, collect_weights=True)
        assert not report.discards
        _FULL_RUNS[scheme_id] = report.outcomes._replace(trial=None, attempt=None)
    return _FULL_RUNS[scheme_id]


def _run_drawn(scheme, base_seed, draws):
    """The outcomes of the draws run as one block, with noise weights."""
    return _run_block(scheme, *_draw_batch(scheme, base_seed, draws), Tolerances(), True)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    scheme_id=st.sampled_from(ALL_SCHEME_IDS),
    trial=st.integers(0, TRIAL_BATCH - 1),
    partner=st.integers(0, TRIAL_BATCH - 1),
    partner_attempt=st.integers(0, MAX_ATTEMPTS - 1),
    first=st.booleans(),
)
def test_trial_result_independent_of_batch(scheme_id, trial, partner, partner_attempt, first):
    scheme = get_scheme(scheme_id)
    reference = outcome_fields(_full_batch(scheme_id), trial)
    alone = _run_drawn(scheme, 41, [(trial, 0)])
    other = (partner, partner_attempt)
    pair = [(trial, 0), other] if first else [other, (trial, 0)]
    try:
        paired = _run_drawn(scheme, 41, pair)
    except Singular:
        assume(False)
    # every field, noise weights included, must match to the bit
    assert outcome_fields(alone, 0) == reference
    assert outcome_fields(paired, 0 if first else 1) == reference


@pytest.mark.parametrize("scheme_id", ALL_SCHEME_IDS)
def test_draws_at_mixed_attempts_match_their_draws_alone(scheme_id):
    # a batch that resamples runs some trials at later attempts than others
    scheme = get_scheme(scheme_id)
    draws = [(t, (3 * t) % MAX_ATTEMPTS) for t in range(12)] + [(40, 0), (5, 0)]
    batch = _run_drawn(scheme, 43, draws)
    for index, draw in enumerate(draws):
        alone = _run_drawn(scheme, 43, [draw])
        assert outcome_fields(batch, index) == outcome_fields(alone, 0), draw


def _join(items):
    """Join one-trial stacks of arrays, or of records of arrays, on their trial axis."""
    first = items[0]
    if first is None:
        return None
    if isinstance(first, tuple):
        return type(first)(*(_join(fields) for fields in zip(*items)))
    return np.concatenate(items, axis=-1)


@pytest.mark.parametrize("scheme_id", ALL_SCHEME_IDS)
def test_trial_stack_matches_unbatched_trials(scheme_id):
    scheme = get_scheme(scheme_id)
    rng = np.random.default_rng(43)
    trials = 5
    draws = [_draw(scheme, rng) + (scheme.draw_messages([rng]),) for _ in range(trials)]
    h = _join([d[0] for d in draws])
    offline = _join([d[1] for d in draws])
    msgs = _join([d[2] for d in draws])
    log = AccessLog()
    record = simulate_block(scheme, h, offline, msgs, log=log)
    ctx = decode_context(scheme, h, offline)
    decoded = scheme.decode(record.y, ctx)
    weights = noise_weights(scheme, h, offline, ctx)
    certs = ctx.certificates
    assert weights.shape == (scheme.num_symbols, trials)
    for t, (one_h, one_offline, one_msgs) in enumerate(draws):
        one_log = AccessLog()
        one = simulate_block(scheme, one_h, one_offline, one_msgs, log=one_log)
        one_ctx = decode_context(scheme, one_h, one_offline)
        # each trial reads what its one-trial stack reads, record for record,
        # and both run one arithmetic, so every number matches to the bit
        assert log.records == one_log.records
        assert np.array_equal(record.x[..., t : t + 1], one.x)
        assert np.array_equal(decoded[:, t : t + 1], scheme.decode(one.y, one_ctx))
        assert np.array_equal(
            weights[:, t : t + 1], noise_weights(scheme, one_h, one_offline, one_ctx)
        )
        for key, value in one_ctx.certificates.items():
            batch_value = np.broadcast_to(certs[key], (trials,))[t]
            assert np.array_equal(batch_value, np.broadcast_to(value, (1,))[0]), key
