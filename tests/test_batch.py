"""The trailing axes of the block engine: the batch axis ``B`` and the trial axis ``T``.

Every block runs on a stack of trials, so one trial is a stack of one.  A
run with a batch axis must compute, column by column, what a run of each
column alone computes, and must read through the transmitter views exactly
as that run does.  A stack of trials must compute, trial by trial, what a
one-trial stack of each computes.  The noise-transfer weights, which come
from one batched run under output feedback and from the decoder rows
otherwise, are checked against the per-impulse loop they replace.  A
trial's results must not depend, to the bit, on the trials that share its
batch.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from alignsim.channel import AccessLog, ChannelTensor, generate_channel
from alignsim.evaluate import (
    MAX_ATTEMPTS,
    TRIAL_BATCH,
    _draw_batch,
    _run_batch,
    noise_transfer_weights,
    run_trials,
    simulate_block,
)
from alignsim.numerics import Singular, Tolerances, ordered_sum, sample_complex_gaussian
from alignsim.registry import SCHEMES, get_scheme

from _decode import decode_context
from _outcomes import outcome_fields

ALL_SCHEME_IDS = sorted(SCHEMES)


def per_impulse_weights(scheme, tensor, offline, ctx):
    """Reference weights: one block run per (receiver, slot) impulse.

    On a stack of trials, every trial takes the impulse in the same run.
    """
    trials = tensor.h.shape[3:]
    zero_msgs = np.zeros((scheme.num_symbols, *trials), dtype=np.complex128)
    weights = np.zeros((scheme.num_symbols, *trials), dtype=np.float64)
    for k0 in range(scheme.num_rx):
        for n0 in range(scheme.num_slots):
            noise = np.zeros((scheme.num_rx, scheme.num_slots, *trials), dtype=np.complex128)
            noise[k0, n0] = 1.0
            record = simulate_block(scheme, tensor, offline, zero_msgs, noise=noise)
            weights += np.abs(scheme.decode(record.y, ctx)) ** 2
    return weights


def _draw(scheme, rng):
    """(tensor, offline) of a one-trial stack drawn from ``rng``."""
    tensor = generate_channel(scheme.num_rx, scheme.num_tx, scheme.num_slots, [rng])
    return tensor, scheme.draw_offline([rng])


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
    tensor, offline = _draw(scheme, rng)
    msgs = sample_complex_gaussian([rng], scheme.num_symbols * batch).reshape(-1, batch, 1)
    noise = sample_complex_gaussian([rng], scheme.num_rx * scheme.num_slots * batch).reshape(
        scheme.num_rx, scheme.num_slots, batch, 1
    )
    try:
        ctx = decode_context(scheme, tensor, offline)
        log = AccessLog()
        record = simulate_block(scheme, tensor, offline, msgs, noise=noise, log=log)
        decoded = scheme.decode(record.y, ctx)
    except Singular:
        assume(False)
    assert record.x.shape == (scheme.num_tx, scheme.num_slots, batch, 1)
    assert record.y.shape == (scheme.num_rx, scheme.num_slots, batch, 1)
    assert decoded.shape == (scheme.num_symbols, batch, 1)
    for b in range(batch):
        column_log = AccessLog()
        column = simulate_block(
            scheme, tensor, offline, msgs[:, b], noise=noise[:, :, b], log=column_log
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
        tensor, offline = _draw(scheme, rng)
        ctx = decode_context(scheme, tensor, offline)
        weights = noise_transfer_weights(scheme, ctx, tensor, offline)
        reference = per_impulse_weights(scheme, tensor, offline, ctx)
        assert weights.shape == (scheme.num_symbols, 1)
        np.testing.assert_allclose(weights, reference, rtol=1e-12)


DELAYED_CSIT_IDS = ["bc_mat", "ic3_retro_csit", "x_retro_csit"]
OUTPUT_FEEDBACK_IDS = ["ic3_output_fb", "x_output_fb"]


def _one_and_stacked(scheme):
    """(tensor, offline) of a one-trial stack, then of a 40-trial stack."""
    one = _draw(scheme, np.random.default_rng(37))
    tensor, offline, _ = _draw_batch(scheme, 37, [(t, 0) for t in range(40)])
    return [one, (tensor, offline)]


def _decoder_row_norms(scheme, ctx):
    """Each symbol's squared decoder row norm, summed over slots left to right."""
    trials = ctx.decoders[0].shape[2:]
    norms = np.empty((scheme.num_symbols, *trials), dtype=np.float64)
    for rx, decoder in enumerate(ctx.decoders):
        norms[scheme.symbols_for_rx(rx)] = ordered_sum(np.moveaxis(np.abs(decoder) ** 2, 1, 0))
    return norms


@pytest.mark.parametrize("scheme_id", DELAYED_CSIT_IDS)
def test_weights_without_output_feedback_are_exact(scheme_id):
    # no transmitter hears an output, so the weights skip the impulse run
    # and must still carry the impulse run's bits
    scheme = get_scheme(scheme_id)
    assert not scheme.feedback.provides_output
    for tensor, offline in _one_and_stacked(scheme):
        ctx = decode_context(scheme, tensor, offline)
        reference = per_impulse_weights(scheme, tensor, offline, ctx)
        weights = noise_transfer_weights(scheme, ctx, tensor, offline)
        assert weights.shape == reference.shape
        assert np.array_equal(weights, reference)


@pytest.mark.parametrize("scheme_id", OUTPUT_FEEDBACK_IDS)
def test_output_feedback_weights_are_not_decoder_row_norms(scheme_id):
    # replayed outputs carry the noise forward, so the row norms miss part of it
    scheme = get_scheme(scheme_id)
    assert scheme.feedback.provides_output
    for tensor, offline in _one_and_stacked(scheme):
        ctx = decode_context(scheme, tensor, offline)
        reference = per_impulse_weights(scheme, tensor, offline, ctx)
        np.testing.assert_allclose(
            noise_transfer_weights(scheme, ctx, tensor, offline),
            reference,
            rtol=1e-12,
        )
        assert not np.allclose(_decoder_row_norms(scheme, ctx), reference, rtol=1e-3)


# -- trials on the batch axis -------------------------------------------------

_FULL_RUNS: dict = {}


def _full_batch(scheme_id):
    """Outcomes of the first TRIAL_BATCH trials of seed 41, run as one full batch."""
    if scheme_id not in _FULL_RUNS:
        report = run_trials(scheme_id, TRIAL_BATCH, 41, collect_weights=True)
        assert not report.discards
        _FULL_RUNS[scheme_id] = report.outcomes
    return _FULL_RUNS[scheme_id]


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
    alone = _run_batch(scheme, 41, [(trial, 0)], Tolerances(), True)
    other = (partner, partner_attempt)
    pair = [(trial, 0), other] if first else [other, (trial, 0)]
    try:
        paired = _run_batch(scheme, 41, pair, Tolerances(), True)
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
    batch = _run_batch(scheme, 43, draws, Tolerances(), True)
    assert list(zip(batch.trial.tolist(), batch.attempt.tolist())) == draws
    for index, draw in enumerate(draws):
        alone = _run_batch(scheme, 43, [draw], Tolerances(), True)
        assert outcome_fields(batch, index) == outcome_fields(alone, 0), draw


def _join(items):
    """Join one-trial stacks of arrays, or of dataclasses of arrays, on their trial axis."""
    first = items[0]
    if first is None:
        return None
    if dataclasses.is_dataclass(first):
        return type(first)(**{
            f.name: _join([getattr(item, f.name) for item in items])
            for f in dataclasses.fields(first)
        })
    return np.concatenate(items, axis=-1)


@pytest.mark.parametrize("scheme_id", ALL_SCHEME_IDS)
def test_trial_stack_matches_unbatched_trials(scheme_id):
    scheme = get_scheme(scheme_id)
    rng = np.random.default_rng(43)
    trials = 5
    draws = [_draw(scheme, rng) + (scheme.draw_messages([rng]),) for _ in range(trials)]
    tensor = ChannelTensor(h=_join([d[0].h for d in draws]))
    offline = _join([d[1] for d in draws])
    msgs = _join([d[2] for d in draws])
    log = AccessLog()
    record = simulate_block(scheme, tensor, offline, msgs, log=log)
    ctx = decode_context(scheme, tensor, offline)
    decoded = scheme.decode(record.y, ctx)
    weights = noise_transfer_weights(scheme, ctx, tensor, offline)
    certs = ctx.certificates
    assert weights.shape == (scheme.num_symbols, trials)
    for t, (one_tensor, one_offline, one_msgs) in enumerate(draws):
        one_log = AccessLog()
        one = simulate_block(scheme, one_tensor, one_offline, one_msgs, log=one_log)
        one_ctx = decode_context(scheme, one_tensor, one_offline)
        # each trial reads what its one-trial stack reads, record for record,
        # and both run one arithmetic, so every number matches to the bit
        assert log.records == one_log.records
        assert np.array_equal(record.x[..., t : t + 1], one.x)
        assert np.array_equal(decoded[:, t : t + 1], scheme.decode(one.y, one_ctx))
        assert np.array_equal(
            weights[:, t : t + 1], noise_transfer_weights(scheme, one_ctx, one_tensor, one_offline)
        )
        for key, value in one_ctx.certificates.items():
            batch_value = np.broadcast_to(certs[key], (trials,))[t]
            assert np.array_equal(batch_value, np.broadcast_to(value, (1,))[0]), key
