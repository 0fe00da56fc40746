import dataclasses
import math
import multiprocessing
import os
import pickle
import time
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from alignsim.base import DecodeContext, InterferenceRankUnexpected, OutputPayload
from alignsim.channel import AccessLog, TxInformationView, generate_channel
from alignsim.evaluate import (
    DECODE_REL_TOL,
    MAX_ATTEMPTS,
    TRIAL_BATCH,
    TRIALS_PER_WORKER,
    WEIGHT_FLOOR,
    Discard,
    DofEstimate,
    RunReport,
    SchemeFailure,
    TrialOutcomes,
    _concat,
    _draw_batch,
    _run_batch,
    _run_draws,
    dof_by_counting,
    estimate_dof,
    noise_transfer_weights,
    run_trials,
    simulate_block,
    sum_rate_bits,
    validate_snr_grid,
)
from alignsim.numerics import (
    NumericsError,
    Singular,
    Tolerances,
    sample_complex_gaussian,
    seeded_generators,
    spawn_states,
    zero_forcing_rows,
)
from alignsim.output_feedback import BcMatScheme
from alignsim.registry import SCHEMES, get_scheme

from _decode import decode_context, impulse_response
from _oracles import future_perturbation_invariant
from _outcomes import outcome_fields

ALL_SCHEME_IDS = sorted(SCHEMES)

#: Transmitter that owns each symbol, in the schemes with one entity per antenna.
OWNER = {
    "x_retro_csit": lambda s: (s // 2) % 2,
    "ic3_retro_csit": lambda s: s // 3,
    "x_output_fb": lambda s: s % 2,
    "ic3_output_fb": lambda s: s // 2,
}


class TestSimulateBlock:
    @pytest.mark.parametrize("scheme_id", ALL_SCHEME_IDS)
    def test_received_values_reconstruct_from_channel(self, scheme_id):
        scheme = get_scheme(scheme_id)
        rng = np.random.default_rng(7)
        tensor = generate_channel(scheme.num_rx, scheme.num_tx, scheme.num_slots, [rng])
        offline = scheme.draw_offline([rng])
        msgs = scheme.draw_messages([rng])
        record = simulate_block(scheme, tensor, offline, msgs)
        for n in range(scheme.num_slots):
            np.testing.assert_allclose(
                record.y[:, n, 0], tensor.h[:, :, n, 0] @ record.x[:, n, 0], rtol=1e-13
            )

    @pytest.mark.parametrize("scheme_id", ALL_SCHEME_IDS)
    def test_doubled_messages_double_every_signal(self, scheme_id):
        # power P is the message scale sqrt(P): every transmit scalar is
        # complex-linear in the messages and no normalization depends on
        # them.  A power-of-two scale commutes with rounding, so a noiseless
        # block at messages 2 m is the block at m, doubled, to the bit.
        scheme = get_scheme(scheme_id)
        tensor, offline, msgs = _draw_batch(scheme, 12, [(t, 0) for t in range(16)])
        once = simulate_block(scheme, tensor, offline, msgs)
        twice = simulate_block(scheme, tensor, offline, 2.0 * msgs)
        assert np.array_equal(twice.x, 2.0 * once.x)
        assert np.array_equal(twice.y, 2.0 * once.y)
        assert np.any(once.y != 0.0)

    @pytest.mark.parametrize("scheme_id", sorted(OWNER))
    def test_distributed_transmitters_send_only_their_own_symbols(self, scheme_id):
        # transmitter j knows only its own messages: a block that carries
        # every other symbol, one per batch column, leaves it silent wherever
        # it does not replay an output
        scheme = get_scheme(scheme_id)
        tensor, offline, _ = _draw_batch(scheme, 14, [(t, 0) for t in range(6)])
        for j in range(scheme.num_tx):
            others = [s for s in range(scheme.num_symbols) if OWNER[scheme_id](s) != j]
            msgs = np.zeros((scheme.num_symbols, len(others), tensor.num_trials), complex)
            msgs[others, range(len(others))] = 1.0
            record = simulate_block(scheme, tensor, offline, msgs)
            assert np.any(record.x != 0.0)
            for n, payloads in enumerate(scheme.schedule):
                if not isinstance(payloads[j], OutputPayload):
                    assert np.all(record.x[j, n] == 0.0), (j, n)

    @pytest.mark.parametrize("scheme_id, entities", [("x_retro_csit", 2), ("ic3_retro_csit", 3)])
    def test_derive_runs_once_per_entity_per_block_run(self, monkeypatch, scheme_id, entities):
        # the engine caches each entity's derivation for one block run: a
        # second run on the same block derives again, to the same bits
        scheme = get_scheme(scheme_id)
        derive, calls = scheme.derive, []

        def counted(view, offline):
            calls.append(view.tx)
            return derive(view, offline)

        monkeypatch.setattr(scheme, "derive", counted)
        tensor, offline, msgs = _draw_batch(scheme, 15, [(t, 0) for t in range(4)])
        first = simulate_block(scheme, tensor, offline, msgs)
        assert sorted(calls) == list(range(entities))
        again = simulate_block(scheme, tensor, offline, msgs)
        assert sorted(calls) == sorted(2 * list(range(entities)))
        assert np.array_equal(again.x, first.x)

    @pytest.mark.parametrize("scheme_id", ALL_SCHEME_IDS)
    def test_the_engine_reads_no_channel(self, monkeypatch, scheme_id):
        # delayed CSIT becomes coefficients only inside a derive
        scheme = get_scheme(scheme_id)
        reads = {"derive": 0, "engine": 0}
        deriving = []
        channel_coeff, derive = TxInformationView.channel_coeff, scheme.derive

        def counted_read(view, *item):
            reads["derive" if deriving else "engine"] += 1
            return channel_coeff(view, *item)

        def counted_derive(view, offline):
            deriving.append(view.tx)
            try:
                return derive(view, offline)
            finally:
                deriving.pop()

        monkeypatch.setattr(TxInformationView, "channel_coeff", counted_read)
        monkeypatch.setattr(scheme, "derive", counted_derive)
        tensor, offline, msgs = _draw_batch(scheme, 5, [(t, 0) for t in range(3)])
        log = AccessLog()
        simulate_block(scheme, tensor, offline, msgs, log=log)
        assert reads["engine"] == 0
        assert reads["derive"] == sum(r.kind == "csi" for r in log.records)
        assert (reads["derive"] > 0) == scheme.feedback.provides_csi

    @pytest.mark.parametrize("scheme_id", ALL_SCHEME_IDS)
    def test_error_is_linear_in_noise_and_inverse_in_amplitude(self, scheme_id):
        # the premise of the rate model: the decode error, relative to the
        # message scale sqrt(P), is a P-independent linear image of the noise
        # divided by sqrt(P)
        scheme = get_scheme(scheme_id)
        rng = np.random.default_rng(8)
        tensor = generate_channel(scheme.num_rx, scheme.num_tx, scheme.num_slots, [rng])
        offline = scheme.draw_offline([rng])
        msgs = scheme.draw_messages([rng])
        noise = sample_complex_gaussian([rng], scheme.num_rx * scheme.num_slots).reshape(
            scheme.num_rx, scheme.num_slots, 1
        )
        ctx = decode_context(scheme, tensor, offline)

        def decode_error(scale, z, messages):
            record = simulate_block(scheme, tensor, offline, scale * messages, noise=z)
            return scheme.decode(record.y, ctx) / scale - messages

        base = decode_error(1.0, noise, msgs)
        # message scaling: err(scale) = err(1) / scale
        scaled = decode_error(8.0, noise, msgs)
        np.testing.assert_allclose(scaled, base / 8.0, rtol=1e-8)
        # message independence: a different message draw, same noise
        msgs2 = scheme.draw_messages([np.random.default_rng(99)])
        np.testing.assert_allclose(decode_error(1.0, noise, msgs2), base, rtol=0, atol=1e-10)
        # additivity in the noise
        noise2 = sample_complex_gaussian(
            [np.random.default_rng(100)], scheme.num_rx * scheme.num_slots
        ).reshape(scheme.num_rx, scheme.num_slots, 1)
        lhs = decode_error(1.0, noise + noise2, msgs)
        rhs = base + decode_error(1.0, noise2, msgs)
        np.testing.assert_allclose(lhs, rhs, rtol=0, atol=1e-10)


class _PeeksAtTheCurrentSlot(BcMatScheme):
    """Scales antenna 0's slot-2 scalar by ``|h[0, 0, 2]|``, read past the view."""

    def transmit(self, antenna, slot, view, msgs, offline, state):
        x = super().transmit(antenna, slot, view, msgs, offline, state)
        if (antenna, slot) == (0, 2):
            return x * np.abs(view._tensor.h[0, 0, 2])
        return x


def test_perturbation_check_catches_a_scheme_that_peeks(monkeypatch):
    """The causality check can fail: it flags a transmitter that reads the current slot.

    The peek scales a scalar by a channel gain the receivers know, so the
    scheme still decodes exactly and ``verify`` passes it; only the
    perturbation check, cut at the peeked slot, tells (ROADMAP item 7).
    """
    scheme = _PeeksAtTheCurrentSlot()
    monkeypatch.setitem(SCHEMES, "bc_mat", scheme)
    report = run_trials("bc_mat", 20, base_seed=0)
    assert report.all_decode_ok and report.max_rel_symbol_error <= 1e-12
    invariant = [
        future_perturbation_invariant(scheme, 0, range(20), cut) for cut in range(3)
    ]
    assert invariant == [True, True, False]


def test_perturbation_check_catches_a_magnitude_peek_on_every_trial():
    """The perturbation moves every future gain's magnitude, so one trial suffices."""
    scheme = _PeeksAtTheCurrentSlot()
    for trial in range(20):
        assert not future_perturbation_invariant(scheme, 0, [trial], 2)


#: Noise columns per trial of the empirical weight check.
NOISE_COLUMNS = 4000


class TestNoiseWeights:
    def test_weights_match_empirical_error_variance(self):
        # the weights are an oracle outside the impulse model: each trial's
        # decoders, applied to a block under real unit-variance noise, must
        # leave each symbol an error whose variance is its weight.  The mean
        # of NOISE_COLUMNS values |e|^2 / weight, each Exp(1) for a complex
        # Gaussian error, has standard deviation 1/sqrt(NOISE_COLUMNS), so a
        # 5 sigma band is +-7.9%; every (scheme, power, symbol, trial) meets it.
        band = 5.0 / math.sqrt(NOISE_COLUMNS)
        for scheme_id in ALL_SCHEME_IDS:
            scheme = get_scheme(scheme_id)
            tensor, offline, msgs = _draw_batch(scheme, 9, [(t, 0) for t in range(16)])
            ctx = decode_context(scheme, tensor, offline)
            weights = noise_transfer_weights(scheme, ctx, tensor, offline)
            rng = np.random.default_rng(10)
            shape = (scheme.num_rx, scheme.num_slots, NOISE_COLUMNS, tensor.num_trials)
            noise = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / math.sqrt(2)
            for power in (10.0, 1e4):
                sent = math.sqrt(power) * msgs[:, None]
                columns = np.broadcast_to(sent, (scheme.num_symbols, *shape[2:]))
                record = simulate_block(scheme, tensor, offline, columns, noise=noise)
                errors = scheme.decode(record.y, ctx) - sent
                ratio = np.mean(np.abs(errors) ** 2, axis=1) / weights
                assert np.all(np.abs(ratio - 1.0) <= band), (scheme_id, power, ratio)

    def test_sum_rate_formula(self):
        weights = np.array([2.0, 0.5])
        rate = sum_rate_bits(weights, power=8.0, num_slots=4)
        expected = (np.log2(1.0 + 8.0 / 2.0) + np.log2(1.0 + 8.0 / 0.5)) / 4.0
        assert abs(rate - expected) <= 1e-12


class TestRunTrials:
    def test_deterministic_and_thread_invariant(self):
        a = run_trials("bc_mat", 8, base_seed=5, threads=1)
        b = run_trials("bc_mat", 8, base_seed=5, threads=1)
        c = run_trials("bc_mat", 8, base_seed=5, threads=2)
        assert a.outcomes.trial.tolist() == list(range(8))
        for other in (b, c):
            assert outcome_fields(other.outcomes) == outcome_fields(a.outcomes)

    def test_trial_results_independent_of_run_length(self):
        long = run_trials("x_retro_csit", 6, base_seed=3)
        short = run_trials("x_retro_csit", 3, base_seed=3)
        assert outcome_fields(short.outcomes) == outcome_fields(long.outcomes, slice(3))

    def test_rejects_zero_trials(self):
        with pytest.raises(ValueError):
            run_trials("bc_mat", 0, base_seed=1)

    def test_sinr_and_rate_population(self):
        report = run_trials("bc_mat", 2, base_seed=6, collect_weights=True)
        power, slots = 10.0**3.0, get_scheme("bc_mat").num_slots
        assert report.outcomes.noise_weights.shape == (2, 4)
        for row in report.outcomes.noise_weights:
            rate = sum_rate_bits(row, power, slots)
            assert rate > 0.0
            expected = sum(np.log2(1.0 + power / w) for w in row) / slots
            assert abs(rate - expected) <= 1e-12 * expected


def _singular_where(mask):
    """Raise the decoder's ``Singular`` for the draws of a block where ``mask`` holds, if any."""
    if np.any(mask):
        raise Singular({int(t): "synthetic degenerate draw" for t in np.flatnonzero(mask)})


def _leak_where(mask):
    """Fail the decoder's certificates, as a leak does, for the draws where ``mask`` holds."""
    if np.any(mask):
        raise InterferenceRankUnexpected({int(t): "synthetic leak" for t in np.flatnonzero(mask)})


# The synthetic schemes below key on ``response[0, 0, 0]``: receiver 0's
# slot-0 output for symbol 0 alone, which for bc_mat is its first channel
# coefficient ``h[0, 0, 0]`` to the bit.
class _DiscardSometimes(BcMatScheme):
    """Discards each draw whose first channel coefficient leans positive."""

    def decode_context(self, tol, response):
        _singular_where(response[0, 0, 0].real > 0.0)
        return super().decode_context(tol, response)


class _DiscardAlways(BcMatScheme):
    def decode_context(self, tol, response):
        _singular_where(np.ones(response.shape[-1], dtype=bool))


class _BadCertificates(BcMatScheme):
    def decode_context(self, tol, response):
        _leak_where(np.ones(response.shape[-1], dtype=bool))


class _BudgetBreaker(BcMatScheme):
    csi_slot_budget = Fraction(1, 3)


class TestDiscardAndFailurePaths:
    def test_discarded_attempts_are_resampled_and_reported(self):
        scheme = _DiscardSometimes()
        seen_discard = False
        for trial in range(12):
            result, discards = _run_draws(scheme, 17, [trial], Tolerances(), False)
            assert result.decode_ok.tolist() == [True]
            assert result.trial.tolist() == [trial]
            assert result.attempt.tolist() == [len(discards)]
            for attempt, d in enumerate(discards):
                assert d == Discard(trial, attempt, d.reason)
                assert "Singular" in d.reason
            seen_discard = seen_discard or bool(discards)
        assert seen_discard

    def test_retry_cap_becomes_scheme_failure(self):
        with pytest.raises(SchemeFailure, match=str(MAX_ATTEMPTS)):
            _run_draws(_DiscardAlways(), 18, [0], Tolerances(), False)

    def test_certificate_failure_is_fatal_not_resampled(self):
        with pytest.raises(SchemeFailure, match="trial 0: InterferenceRankUnexpected: synthetic"):
            _run_draws(_BadCertificates(), 19, [0], Tolerances(), False)

    def test_csi_budget_violation_is_fatal(self):
        with pytest.raises(SchemeFailure, match="budget"):
            _run_draws(_BudgetBreaker(), 20, [0], Tolerances(), False)

    @pytest.mark.parametrize("scheme_id, discards", [("x_retro_csit", 123), ("ic3_retro_csit", 73)])
    def test_the_decoder_judges_every_discard(self, scheme_id, discards):
        # at a coarse rank cutoff many draws are degenerate; each one is the
        # decoder's Singular, resampled within one batch of 130 trials
        report = run_trials(scheme_id, 130, 7, tol=Tolerances(rank_rel=0.01), threads=1)
        assert len(report.discards) == discards
        assert all(d.reason.startswith("Singular: ") for d in report.discards)
        assert report.all_decode_ok


class TestDofEstimation:
    def test_counting_values(self):
        expected = {
            "x_retro_csit": Fraction(8, 7),
            "ic3_retro_csit": Fraction(9, 8),
            "bc_mat": Fraction(4, 3),
            "x_output_fb": Fraction(4, 3),
            "ic3_output_fb": Fraction(6, 5),
        }
        for scheme_id, dof in expected.items():
            scheme = get_scheme(scheme_id)
            assert dof_by_counting(scheme) == dof

    def test_estimate_matches_counting(self):
        estimate = estimate_dof("bc_mat", [40.0, 55.0, 70.0], 20, base_seed=2)
        assert isinstance(estimate, DofEstimate)
        assert abs(estimate.slope - 4.0 / 3.0) <= 0.05
        assert estimate.r_squared >= 0.999
        assert estimate.max_rel_symbol_error <= DECODE_REL_TOL
        assert estimate.discards == 0

    def test_estimate_deterministic(self):
        e1 = estimate_dof("x_output_fb", [40.0, 60.0], 5, base_seed=4)
        e2 = estimate_dof("x_output_fb", [40.0, 60.0], 5, base_seed=4)
        assert e1.sum_rates == e2.sum_rates
        assert e1.slope == e2.slope

    def test_short_grid_rejected(self):
        with pytest.raises(ValueError):
            estimate_dof("bc_mat", [40.0], 5, base_seed=1)

    def test_near_equal_grid_rejected_before_any_trial(self):
        with mock.patch("alignsim.evaluate.run_trials") as run:
            with pytest.raises(ValueError, match="1e-06 dB apart or more, got \\[0, 1e-100\\]"):
                estimate_dof("bc_mat", [0, 1e-100], 5, 0)
        run.assert_not_called()

    def test_numpy_grid_points_accepted(self):
        grid = [np.float64(40.0), np.float32(55.0), np.int64(70)]
        validate_snr_grid(grid)
        estimate = estimate_dof("bc_mat", grid, 3, base_seed=1)
        assert estimate.snr_grid_db == [40.0, 55.0, 70.0]

    def test_rates_increase_with_snr(self):
        estimate = estimate_dof("ic3_output_fb", [30.0, 40.0, 50.0], 10, base_seed=5)
        assert estimate.sum_rates == sorted(estimate.sum_rates)


# per dof_sweep batch: the message run, plus the impulse run where a replay
# carries the noise forward
SWEEP_BLOCK_RUNS = {
    "bc_mat": 1,
    "ic3_output_fb": 2,
    "ic3_retro_csit": 1,
    "x_output_fb": 2,
    "x_retro_csit": 1,
}


@pytest.mark.parametrize("scheme_id", ALL_SCHEME_IDS)
def test_sweep_batch_block_runs(scheme_id):
    import alignsim.evaluate as evaluate

    with mock.patch.object(evaluate, "simulate_block", wraps=simulate_block) as spy:
        estimate = estimate_dof(scheme_id, [40.0, 70.0], 40, base_seed=8)
    assert estimate.discards == 0
    assert spy.call_count == SWEEP_BLOCK_RUNS[scheme_id]


@st.composite
def _sweep_inputs(draw):
    scheme = get_scheme(draw(st.sampled_from(ALL_SCHEME_IDS)))
    trials = draw(st.integers(1, 60))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = 10.0 ** rng.uniform(-12.0, 12.0, (trials, scheme.num_symbols))
    # some weights at the floor, some below it
    rows[rng.random(rows.shape) < draw(st.sampled_from([0.0, 0.1, 1.0]))] = WEIGHT_FLOOR
    rows[rng.random(rows.shape) < draw(st.sampled_from([0.0, 0.1]))] = 0.0
    # points 0.1 dB apart or more, so the slope fit stays well posed
    point = st.one_of(st.sampled_from([-10000, 10000]), st.integers(-2000, 2000))
    grid = [k / 10.0 for k in draw(st.lists(point, min_size=2, max_size=6, unique=True))]
    return scheme, rows.tolist(), grid


def _weights_report(scheme, rows):
    """A run report whose trials carry the given noise weights."""
    n = len(rows)
    outcomes = TrialOutcomes(
        trial=np.arange(n), attempt=np.zeros(n, dtype=int), max_rel_symbol_error=np.zeros(n),
        certificates={}, noise_weights=np.array(rows), csi_slots=[],
    )
    return RunReport(outcomes, [])


@settings(max_examples=100, deadline=None, derandomize=True)
@given(inputs=_sweep_inputs())
@example(inputs=(get_scheme("ic3_retro_csit"), [[WEIGHT_FLOOR] * 9] * 3, [-1000.0, 0.0, 1000.0]))
def test_sweep_rates_equal_the_per_trial_loop(inputs):
    import alignsim.evaluate as evaluate

    scheme, rows, grid = inputs
    with np.errstate(all="ignore"), mock.patch.object(
        evaluate, "run_trials", return_value=_weights_report(scheme, rows)
    ):
        estimate = estimate_dof(scheme.scheme_id, grid, len(rows), base_seed=0)
        expected = []
        for point in grid:
            power = 10.0 ** (point / 10.0)
            rates = [sum_rate_bits(np.array(row), power, scheme.num_slots) for row in rows]
            expected.append(float(np.mean(rates)))
    assert all(type(rate) is float for rate in estimate.sum_rates)
    assert np.array(estimate.sum_rates).tobytes() == np.array(expected).tobytes()


class _DiscardOneDraw(BcMatScheme):
    """Discards the one draw whose first channel coefficient is ``coefficient``."""

    def __init__(self, coefficient):
        self.coefficient = coefficient

    def decode_context(self, tol, response):
        _singular_where(response[0, 0, 0] == self.coefficient)
        return super().decode_context(tol, response)


class _FailStrongTrials(BcMatScheme):
    """Fails the certificates of every trial whose first channel coefficient is strong."""

    def decode_context(self, tol, response):
        _leak_where(np.abs(response[0, 0, 0]) > 1.5)
        return super().decode_context(tol, response)


def _first_coefficients(base_seed, trials, attempts=(0,)):
    """The first channel coefficient of each trial's draws at ``attempts``."""
    draws = [(base_seed, trial, attempt) for trial in trials for attempt in attempts]
    return [
        generate_channel(2, 2, 3, seeded_generators(states[:1])).h[0, 0, 0, 0]
        for states in spawn_states(draws, 3)
    ]


class _FailMarkedDraws(BcMatScheme):
    """Fails the certificates of each draw whose first channel coefficient is in ``marked``."""

    def __init__(self, marked):
        self.marked = marked

    def decode_context(self, tol, response):
        _leak_where(np.isin(response[0, 0, 0], self.marked))
        return super().decode_context(tol, response)


class _FailMarkedDiscardOthers(_FailMarkedDraws):
    """Discards the draws in ``singular``, then fails the certificates of those in ``marked``."""

    def __init__(self, marked, singular):
        super().__init__(marked)
        self.singular = singular

    def decode_context(self, tol, response):
        _singular_where(np.isin(response[0, 0, 0], self.singular))
        return super().decode_context(tol, response)


class _StructuralAndCertificateFailures(BcMatScheme):
    """A failed certificate on one draw, raised first, and a structural failure on another."""

    def __init__(self, structural, failing_certificate):
        self.structural = structural
        self.failing_certificate = failing_certificate

    def decode_context(self, tol, response):
        _leak_where(response[0, 0, 0] == self.failing_certificate)
        structural = np.flatnonzero(response[0, 0, 0] == self.structural)
        if structural.size:
            raise NumericsError({int(t): "synthetic structural failure" for t in structural})
        return super().decode_context(tol, response)


def _trial_by_trial(scheme, base_seed, num_trials):
    """Outcomes and discards of the trials, each run alone."""
    parts, discards = [], []
    for trial in range(num_trials):
        outcome, trial_discards = _run_draws(scheme, base_seed, [trial], Tolerances(), False)
        parts.append(outcome)
        discards += trial_discards
    return _concat(parts), discards


def _record_batches(monkeypatch, scheme):
    """Make ``run_trials`` run ``scheme``; the draws of each ``_run_batch`` call it makes."""
    import alignsim.evaluate as evaluate

    calls = []
    run_batch = evaluate._run_batch

    def recording(scheme, base_seed, draws, *args):
        calls.append(list(draws))
        return run_batch(scheme, base_seed, draws, *args)

    monkeypatch.setattr(evaluate, "_run_batch", recording)
    monkeypatch.setattr(evaluate, "get_scheme", lambda scheme_id: scheme)
    return calls


def _split_rounds(num_trials, discards):
    """The draws of each ``_run_batch`` call of a batch whose only failures are ``discards``.

    A block that meets discards runs its discarded draws at their next
    attempt first, then the rest of the block, which passes.  Where each
    block's discards are all its failures, every attempt holds one block.
    """
    discarded = {(d.trial, d.attempt) for d in discards}
    levels = [[(t, 0) for t in range(num_trials)]]
    while any(draw in discarded for draw in levels[-1]):
        levels.append([(t, a + 1) for t, a in levels[-1] if (t, a) in discarded])
    rests = [[draw for draw in level if draw not in discarded] for level in levels[:-1]]
    return levels + rests[::-1]


class TestTrialBatches:
    def test_degenerate_draws_rerun_apart_from_their_batch(self, monkeypatch):
        scheme = _DiscardSometimes()
        expected_outcomes, expected_discards = _trial_by_trial(scheme, 21, 70)
        calls = _record_batches(monkeypatch, scheme)
        report = run_trials("bc_mat", 70, base_seed=21)
        assert outcome_fields(report.outcomes) == outcome_fields(expected_outcomes)
        assert report.discards == expected_discards
        assert report.discards
        assert calls == _split_rounds(70, expected_discards)

    @pytest.mark.parametrize("bad", [0, 77, 127, TRIAL_BATCH - 1])
    def test_one_degenerate_trial_reruns_alone_then_the_rest(self, monkeypatch, bad):
        [states] = spawn_states([(23, bad, 0)], 3)
        first = generate_channel(2, 2, 3, seeded_generators(states[:1])).h[0, 0, 0, 0]
        scheme = _DiscardOneDraw(first)
        expected_outcomes, expected_discards = _trial_by_trial(scheme, 23, TRIAL_BATCH)
        assert [(d.trial, d.attempt) for d in expected_discards] == [(bad, 0)]

        calls = _record_batches(monkeypatch, scheme)
        report = run_trials("bc_mat", TRIAL_BATCH, base_seed=23)
        assert outcome_fields(report.outcomes) == outcome_fields(expected_outcomes)
        assert report.discards == expected_discards
        # the batch, then the bad trial at its next attempt, then the rest of
        # the batch: each comes out as it does alone
        assert calls == [
            [(t, 0) for t in range(TRIAL_BATCH)],
            [(bad, 1)],
            [(t, 0) for t in range(TRIAL_BATCH) if t != bad],
        ]

    def test_dense_discards_rerun_by_attempt(self, monkeypatch):
        scheme = _DiscardSometimes()
        expected_outcomes, expected_discards = _trial_by_trial(scheme, 21, TRIAL_BATCH)
        calls = _record_batches(monkeypatch, scheme)
        report = run_trials("bc_mat", TRIAL_BATCH, base_seed=21)
        assert outcome_fields(report.outcomes) == outcome_fields(expected_outcomes)
        assert report.discards == expected_discards
        # each attempt's discards run together at the next attempt, until one
        # such block passes; then the rest of each block, deepest first
        assert calls == _split_rounds(TRIAL_BATCH, expected_discards)
        attempts = max(d.attempt for d in expected_discards) + 2
        assert len(calls) == 2 * attempts - 1 and attempts <= MAX_ATTEMPTS
        # a draw runs where it is discarded or first passes, and a passing draw
        # again where its block failed: all but those of the last block
        last = len(calls[attempts - 1])
        assert sum(map(len, calls)) == 2 * TRIAL_BATCH + len(expected_discards) - last

    def test_an_early_certificate_failure_beats_a_later_trial_out_of_attempts(
        self, monkeypatch
    ):
        scheme = _FailMarkedDiscardOthers(
            _first_coefficients(26, [5]), _first_coefficients(26, [200], range(MAX_ATTEMPTS))
        )
        with pytest.raises(SchemeFailure, match="^bc_mat trial 200: exceeded 10 attempts; "):
            _run_draws(scheme, 26, [200], Tolerances(), False)
        calls = _record_batches(monkeypatch, scheme)
        # trial 200 reruns alone until it runs out of attempts; the rest of
        # the batch meets trial 5's certificate, and the rest of that passes
        with pytest.raises(SchemeFailure, match=r"^bc_mat trial 5: InterferenceRankUnexpected: "):
            run_trials("bc_mat", TRIAL_BATCH, base_seed=26)
        assert [len(draws) for draws in calls] == (
            [TRIAL_BATCH] + [1] * (MAX_ATTEMPTS - 1) + [TRIAL_BATCH - 1, TRIAL_BATCH - 2]
        )

    def test_an_early_trial_out_of_attempts_beats_a_later_leak(self, monkeypatch):
        scheme = _FailMarkedDiscardOthers(
            _first_coefficients(27, [100]), _first_coefficients(27, [3], range(MAX_ATTEMPTS))
        )
        _record_batches(monkeypatch, scheme)
        message = r"^bc_mat trial 3: exceeded 10 attempts; last discard: Singular: synthetic"
        with pytest.raises(SchemeFailure, match=message):
            run_trials("bc_mat", TRIAL_BATCH, base_seed=27)

    def test_an_early_trial_that_leaks_at_its_next_attempt_beats_a_later_leak(
        self, monkeypatch
    ):
        # trial 4 is singular at attempt 0 and leaks at attempt 1; trial 50
        # leaks at attempt 0
        scheme = _FailMarkedDiscardOthers(
            _first_coefficients(28, [4], [1]) + _first_coefficients(28, [50]),
            _first_coefficients(28, [4]),
        )
        calls = _record_batches(monkeypatch, scheme)
        message = r"^bc_mat trial 4: InterferenceRankUnexpected: synthetic leak$"
        with pytest.raises(SchemeFailure, match=message):
            run_trials("bc_mat", TRIAL_BATCH, base_seed=28)
        others = [(t, 0) for t in range(TRIAL_BATCH) if t != 4]
        assert calls == [
            [(t, 0) for t in range(TRIAL_BATCH)], [(4, 1)], others, [d for d in others if d != (50, 0)]
        ]

    def test_failure_in_left_half_is_raised_before_right_half(self, monkeypatch):
        import alignsim.evaluate as evaluate

        scheme = _StructuralAndCertificateFailures(*_first_coefficients(24, (10, 100)))
        monkeypatch.setattr(evaluate, "get_scheme", lambda scheme_id: scheme)
        with pytest.raises(SchemeFailure, match="bc_mat trial 100: InterferenceRankUnexpected"):
            _run_draws(scheme, 24, [100], Tolerances(), False)
        # the batch fails trial 100's certificates, and the rest of it meets
        # trial 10's structural failure, which is raised first
        with pytest.raises(SchemeFailure, match="bc_mat trial 10: NumericsError"):
            run_trials("bc_mat", TRIAL_BATCH, base_seed=24)

    def test_budget_failure_of_the_first_trial_comes_before_later_certificates(
        self, monkeypatch
    ):
        import alignsim.evaluate as evaluate

        class OverBudget(_FailStrongTrials):
            csi_slot_budget = Fraction(1, 3)

        scheme = OverBudget()
        monkeypatch.setattr(evaluate, "get_scheme", lambda scheme_id: scheme)
        # every trial reads over budget; trial 0 passes its certificates at seed 22
        with pytest.raises(SchemeFailure, match="bc_mat trial 0: transmitters read"):
            run_trials("bc_mat", 100, base_seed=22)

    def test_a_budget_failure_names_the_lowest_trial_a_block_passed(self, monkeypatch):
        class OverBudget(_DiscardOneDraw):
            csi_slot_budget = Fraction(1, 3)

        # trial 5's next attempt passes first, alone; trial 0 passes with the rest
        scheme = OverBudget(_first_coefficients(29, [5])[0])
        calls = _record_batches(monkeypatch, scheme)
        with pytest.raises(SchemeFailure, match="^bc_mat trial 0: transmitters read"):
            run_trials("bc_mat", 100, base_seed=29)
        assert calls[1] == [(5, 1)]

    def test_failure_names_the_failing_trial_of_a_batch(self, monkeypatch):
        import alignsim.evaluate as evaluate

        scheme = _FailStrongTrials()
        monkeypatch.setattr(evaluate, "get_scheme", lambda scheme_id: scheme)
        gains = [
            abs(generate_channel(2, 2, 3, seeded_generators(states[:1])).h[0, 0, 0, 0])
            for states in spawn_states([(22, trial, 0) for trial in range(100)], 3)
        ]
        first_bad = next(trial for trial, gain in enumerate(gains) if gain > 1.5)
        assert first_bad > 0
        with pytest.raises(SchemeFailure, match=f"bc_mat trial {first_bad}: InterferenceRank"):
            run_trials("bc_mat", 100, base_seed=22)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(num_trials=st.integers(1, 1000), threads=st.integers(1, 4), cores=st.integers(1, 4))
def test_batch_plan(num_trials, threads, cores):
    import alignsim.evaluate as evaluate

    with mock.patch.object(evaluate, "_usable_cpus", lambda: cores):
        plan = evaluate._batch_plan(num_trials, threads)
    batches = [batch for worker in plan for batch in worker]
    # read worker by worker, the batches hold every trial once, in order, so
    # each batch and each worker's share is contiguous
    assert [trial for batch in batches for trial in batch] == list(range(num_trials))
    assert len(plan) == min(threads, cores, math.ceil(num_trials / TRIALS_PER_WORKER))
    shares = [sum(len(batch) for batch in worker) for worker in plan]
    assert max(shares) - min(shares) <= 1
    for share, worker in zip(shares, plan):
        sizes = [len(batch) for batch in worker]
        assert len(worker) == math.ceil(share / TRIAL_BATCH)
        assert max(sizes) <= TRIAL_BATCH
        assert max(sizes) - min(sizes) <= 1
    assert all(plan)


def test_batch_plan_cuts_batches_only_when_read():
    # a trillion trials plan as two numbers per worker, picklable for a child
    import alignsim.evaluate as evaluate

    with mock.patch.object(evaluate, "_usable_cpus", lambda: 2):
        start = time.perf_counter()
        plan = evaluate._batch_plan(10**12, 2)
        assert time.perf_counter() - start < 0.1
    half, size = 10**12 // 2, TRIAL_BATCH
    assert [len(share) for share in plan] == [half // size] * 2
    assert [(share[0], share[-1]) for share in plan] == [
        (range(0, size), range(half - size, half)),
        (range(half, half + size), range(10**12 - size, 10**12)),
    ]
    assert pickle.loads(pickle.dumps(plan)) == plan
    with pytest.raises(IndexError):
        plan[0][half // TRIAL_BATCH]


def test_batch_plan_at_threads_0_is_bounded_by_cpus_and_batches():
    import alignsim.evaluate as evaluate

    with mock.patch.object(evaluate, "_usable_cpus", lambda: 3):
        assert len(evaluate._batch_plan(10**6, 0)) == 3
        assert len(evaluate._batch_plan(2 * TRIALS_PER_WORKER, 0)) == 2
        assert len(evaluate._batch_plan(1, 0)) == 1


class TestWorkerProcesses:
    """Two workers, the caller and one child; under the fixture they run trials 0-3 and 4-7."""

    @pytest.fixture
    def evaluate(self, monkeypatch):
        import alignsim.evaluate as evaluate

        monkeypatch.setattr(evaluate, "_usable_cpus", lambda: 2)
        monkeypatch.setattr(evaluate, "TRIALS_PER_WORKER", 4)
        assert [list(share) for share in evaluate._batch_plan(8, 2)] == [
            [range(0, 4)], [range(4, 8)]
        ]
        return evaluate

    def test_outcomes_of_a_share_larger_than_the_pipe_buffer(self, monkeypatch):
        import alignsim.evaluate as evaluate

        monkeypatch.setattr(evaluate, "_usable_cpus", lambda: 2)
        # two shares of 1024 trials; a share's pickled outcomes take about 110 kB
        one = run_trials("bc_mat", 2048, base_seed=5, collect_weights=True, threads=1)
        two = run_trials("bc_mat", 2048, base_seed=5, collect_weights=True, threads=2)
        assert multiprocessing.active_children() == []
        assert outcome_fields(two.outcomes) == outcome_fields(one.outcomes)
        assert two.discards == one.discards

    def test_failure_in_the_child_share_reaches_the_caller(self, evaluate, monkeypatch):
        scheme = _FailMarkedDraws(_first_coefficients(8, [6]))
        monkeypatch.setattr(evaluate, "get_scheme", lambda scheme_id: scheme)
        message = r"^bc_mat trial 6: InterferenceRankUnexpected: synthetic leak$"
        with pytest.raises(SchemeFailure, match=message):
            run_trials("bc_mat", 8, base_seed=8, threads=2)
        assert multiprocessing.active_children() == []

    def test_the_callers_earlier_failure_wins(self, evaluate, monkeypatch):
        scheme = _FailMarkedDraws(_first_coefficients(8, [1, 6]))
        monkeypatch.setattr(evaluate, "get_scheme", lambda scheme_id: scheme)
        with pytest.raises(SchemeFailure, match="^bc_mat trial 1: InterferenceRankUnexpected"):
            run_trials("bc_mat", 8, base_seed=8, threads=2)
        assert multiprocessing.active_children() == []

    def test_a_child_that_exits_without_sending_is_an_error(self, evaluate, monkeypatch):
        run_trial_range = evaluate._run_trial_range

        def exits_in_the_child(args, check):
            if args[2][0].start > 0:
                os._exit(7)
            return run_trial_range(args, check)

        monkeypatch.setattr(evaluate, "_run_trial_range", exits_in_the_child)
        with pytest.raises(ChildProcessError, match="exited with code 7"):
            run_trials("bc_mat", 8, base_seed=8, threads=2)
        assert multiprocessing.active_children() == []

    def test_a_child_that_exits_early_stops_the_caller_at_its_next_batch(
        self, evaluate, monkeypatch
    ):
        monkeypatch.setattr(evaluate, "TRIAL_BATCH", 1)
        assert len(evaluate._batch_plan(8, 2)[0]) == 4
        run_trial_range, run_draws = evaluate._run_trial_range, evaluate._run_draws
        batches = []

        def exits_in_the_child(args, check):
            if args[2][0].start > 0:
                os._exit(7)
            return run_trial_range(args, check)

        def waits_for_the_child_to_exit(scheme, base_seed, trials, *rest):
            deadline = time.monotonic() + 10
            while multiprocessing.active_children():
                assert time.monotonic() < deadline, "the child did not exit"
                time.sleep(0.01)
            batches.append(trials)
            return run_draws(scheme, base_seed, trials, *rest)

        monkeypatch.setattr(evaluate, "_run_trial_range", exits_in_the_child)
        monkeypatch.setattr(evaluate, "_run_draws", waits_for_the_child_to_exit)
        with pytest.raises(ChildProcessError, match="exited with code 7"):
            run_trials("bc_mat", 8, base_seed=8, threads=2)
        # the check before the caller's second batch sees the exited child, if
        # the one before its first does not
        assert len(batches) <= 1
        assert multiprocessing.active_children() == []

    def test_an_interrupt_in_the_caller_kills_the_child(self, evaluate, monkeypatch):
        def sleeps_in_the_child(args, check):
            if args[2][0].start > 0:
                time.sleep(60)
            raise KeyboardInterrupt

        monkeypatch.setattr(evaluate, "_run_trial_range", sleeps_in_the_child)
        start = time.perf_counter()
        with pytest.raises(KeyboardInterrupt):
            run_trials("bc_mat", 8, base_seed=8, threads=2)
        assert multiprocessing.active_children() == []
        assert time.perf_counter() - start < 30


_COEFFS = st.complex_numbers(max_magnitude=100.0, allow_nan=False, allow_infinity=False)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    scheme_id=st.sampled_from(ALL_SCHEME_IDS),
    seed=st.integers(0, 2**32 - 1),
    a=_COEFFS,
    b=_COEFFS,
)
def test_decode_is_linear_in_the_received_block(scheme_id, seed, a, b):
    scheme = get_scheme(scheme_id)
    rng = np.random.default_rng(seed)
    tensor = generate_channel(scheme.num_rx, scheme.num_tx, scheme.num_slots, [rng])
    offline = scheme.draw_offline([rng])
    try:
        ctx = decode_context(scheme, tensor, offline)
    except Singular:
        assume(False)
    size = scheme.num_rx * scheme.num_slots
    y1, y2 = sample_complex_gaussian([rng], 2 * size).reshape(
        2, scheme.num_rx, scheme.num_slots, 1
    )

    d1, d2 = scheme.decode(y1, ctx), scheme.decode(y2, ctx)
    combined = scheme.decode(a * y1 + b * y2, ctx)
    scale = max(abs(a) * float(np.max(np.abs(d1))) + abs(b) * float(np.max(np.abs(d2))), 1e-300)
    assert float(np.max(np.abs(combined - (a * d1 + b * d2)))) <= 1e-12 * scale


def _rx_keys(names, num_rx):
    return [f"{name}_rx{rx}" for rx in range(num_rx) for name in names]


# every certificate of each scheme, in the order the decoder judges them:
# the decoder's, which are every scheme's
_CHECK_ORDER = {
    scheme_id: _rx_keys(["receive_cond", "zf_residual"], scheme.num_rx)
    for scheme_id, scheme in SCHEMES.items()
}


def test_every_scheme_is_certified_by_the_decoder_alone():
    # the certificates are the decoder's own guards, held in its context
    # beside the decoders it judged, and the context holds nothing else
    assert [f.name for f in dataclasses.fields(DecodeContext)] == ["decoders", "certificates"]


def _judged(scheme_id, guards):
    """``decode_context`` of two draws of a scheme whose guards read ``guards``.

    ``guards[(key, draw)]`` replaces the value of certificate ``key`` at
    ``draw`` in what ``zero_forcing_rows`` returns to the decoder.
    """
    scheme = get_scheme(scheme_id)
    tensor, offline, _ = _draw_batch(scheme, 25, [(0, 0), (1, 0)])
    response = impulse_response(scheme, tensor, offline)

    def spoiled(g, rows):
        d, cond, residual = zero_forcing_rows(g, rows)
        cond, residual = cond.copy(), residual.copy()
        for (key, draw), value in guards.items():
            name, rx = key.rsplit("_rx", 1)
            (cond if name == "receive_cond" else residual)[int(rx), draw] = value
        return d, cond, residual

    with mock.patch("alignsim.base.zero_forcing_rows", spoiled):
        return scheme.decode_context(Tolerances(), response)


def _singular_at(rx):
    return (
        f"receiver {rx}: condition number inf exceeds 1.0e+08; "
        f"receive_cond_rx{rx} is at or below the --tol-rank cutoff 1.0e-08"
    )


@pytest.mark.parametrize("scheme_id", ALL_SCHEME_IDS)
def test_failure_list_keeps_check_order(scheme_id):
    # the certificates come in the order the decoder judges them: where
    # draw 1 fails every check from one key on (a receive condition of 0,
    # residuals of 1), the decoder names that key's check
    keys = _CHECK_ORDER[scheme_id]
    assert list(_judged(scheme_id, {}).certificates) == keys
    bad = {"receive_cond": 0.0, "zf_residual": 1.0}
    for first, key in enumerate(keys):
        guards = {(later, 1): bad[later.rsplit("_rx", 1)[0]] for later in keys[first:]}
        name, rx = key.rsplit("_rx", 1)
        if name == "receive_cond":
            with pytest.raises(Singular) as info:
                _judged(scheme_id, guards)
            assert info.value.draws == {1: _singular_at(rx)}
        else:
            with pytest.raises(InterferenceRankUnexpected, match=f" at receiver {rx} exceeds "):
                _judged(scheme_id, guards)


@pytest.mark.parametrize("scheme_id", ALL_SCHEME_IDS)
def test_nan_certificate_fails_every_check(scheme_id):
    # a NaN guard fails its check: a NaN residual beside a healthy receive
    # condition is a leak, not a pass
    for key in _CHECK_ORDER[scheme_id]:
        name, rx = key.rsplit("_rx", 1)
        if name == "receive_cond":
            with pytest.raises(Singular) as info:
                _judged(scheme_id, {(key, 0): np.nan})
            assert info.value.draws == {0: _singular_at(rx)}
        else:
            message = f"^zero-forcing residual nan at receiver {rx} "
            with pytest.raises(InterferenceRankUnexpected, match=message):
                _judged(scheme_id, {(key, 0): np.nan})


@pytest.mark.parametrize("scheme_id", ALL_SCHEME_IDS)
def test_certificate_keys_are_unique_and_reported(scheme_id):
    keys = list(_judged(scheme_id, {}).certificates)
    assert len(set(keys)) == len(keys)
    assert list(run_trials(scheme_id, 3, base_seed=27).outcomes.certificates) == keys


def test_concat_joins_the_arrays_and_merges_the_audits():
    def outcomes(trials, csi_slots):
        trials = np.array(trials)
        return TrialOutcomes(
            trial=trials, attempt=0 * trials, max_rel_symbol_error=trials / 10.0,
            certificates={"c": 2.0 * trials}, noise_weights=np.outer(trials, [1.0, 1.0]),
            csi_slots=csi_slots,
        )

    joined = _concat([outcomes([0, 1], [2]), outcomes([2], [0, 2])])
    assert joined.trial.tolist() == [0, 1, 2]
    assert joined.max_rel_symbol_error.tolist() == [0.0, 0.1, 0.2]
    assert joined.certificates["c"].tolist() == [0.0, 2.0, 4.0]
    assert joined.noise_weights.tolist() == [[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]]
    assert joined.csi_slots == [0, 2]
    lone = outcomes([0, 1], [2])
    assert _concat([lone]) is lone
