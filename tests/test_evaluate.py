import math
import multiprocessing
import os
import pickle
import subprocess
import sys
import time
from collections import Counter
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import alignsim.retro_csit_ic3 as retro_csit_ic3
import alignsim.retro_csit_x as retro_csit_x
from alignsim.base import DecodeContext, OutputPayload, RowPayload, Scheme, SymbolPayload
from alignsim.channel import (
    AccessLog, AccessRecord, FeedbackKind, FeedbackModel, TxInformationView, generate_channel,
)
from alignsim.evaluate import (
    DECODE_REL_TOL,
    ENTRIES_PER_WORKER,
    MAX_ATTEMPTS,
    TRIAL_BATCH,
    WEIGHT_FLOOR,
    Discard,
    DofEstimate,
    RunReport,
    SchemeFailure,
    TrialOutcomes,
    _draw_batch,
    _join,
    _run_block,
    _run_draws,
    _write_rows,
    dof_by_counting,
    estimate_dof,
    run_trials,
    simulate_block,
    sum_rate_bits,
    validate_snr_grid,
)
from alignsim.numerics import (
    Tolerances,
    sample_complex_gaussian,
    seeded_generators,
    spawn_states,
    zero_forcing_rows,
)
from alignsim.output_feedback import BcMatScheme, XOutputFeedbackScheme
from alignsim.registry import SCHEMES, get_scheme

from _decode import decode_context, impulse_response, noise_weights
from _golden import recorded
from _oracles import future_perturbation_invariant
from _outcomes import outcome_fields, replayed

ALL_SCHEME_IDS = sorted(SCHEMES)


def _fresh(scheme_id: str):
    """A new instance of a registered scheme, for a test to patch in place of the shared one."""
    return type(get_scheme(scheme_id))()


#: The derive slot and each entity's CSI reads ``(rx, tx, slot)`` of the
#: retrospective schemes, as each entity made them deriving on its own.
READS_ALONE = {
    "x_retro_csit": (3, lambda tx: [(k, j, m) for m in range(3) for k in range(2) for j in range(2)]),
    "ic3_retro_csit": (5, lambda tx: [
        (rx, j, n)
        for rx in retro_csit_ic3.interferers(tx)
        for j in retro_csit_ic3.interferers(rx)
        for n in range(5)
    ]),
}


class _TimeSharing(Scheme):
    """Two transmitters time-sharing four slots of offline rows, two symbols each.

    It has no draw of its own: the base draw's table holds all its rows.
    """

    scheme_id = "time_sharing"
    num_rx = 2
    owners = (0, 0, 1, 1)
    feedback = FeedbackModel(kind=FeedbackKind.DELAYED_CSIT)
    csi_slot_budget = Fraction(0, 1)
    schedule = (*[(RowPayload((0, 1)), None)] * 2, *[(None, RowPayload((2, 3)))] * 2)


class TestSimulateBlock:
    @pytest.mark.parametrize("scheme_id", ALL_SCHEME_IDS)
    def test_received_values_reconstruct_from_channel(self, scheme_id):
        scheme = get_scheme(scheme_id)
        rng = np.random.default_rng(7)
        h = generate_channel(scheme.num_rx, scheme.num_tx, scheme.num_slots, [rng])
        offline = scheme.draw_offline([rng])
        msgs = scheme.draw_messages([rng])
        record = simulate_block(scheme, h, offline, msgs)
        for n in range(scheme.num_slots):
            np.testing.assert_allclose(
                record.y[:, n, 0], h[:, :, n, 0] @ record.x[:, n, 0], rtol=1e-13
            )

    @pytest.mark.parametrize("scheme_id", ALL_SCHEME_IDS)
    def test_doubled_messages_double_every_signal(self, scheme_id):
        # power P is the message scale sqrt(P): every transmit scalar is
        # complex-linear in the messages and no normalization depends on
        # them.  A power-of-two scale commutes with rounding, so a noiseless
        # block at messages 2 m is the block at m, doubled, to the bit.
        scheme = get_scheme(scheme_id)
        h, offline, msgs = _draw_batch(scheme, 12, [(t, 0) for t in range(16)])
        once = simulate_block(scheme, h, offline, msgs)
        twice = simulate_block(scheme, h, offline, 2.0 * msgs)
        assert np.array_equal(twice.x, 2.0 * once.x)
        assert np.array_equal(twice.y, 2.0 * once.y)
        assert np.any(once.y != 0.0)

    @pytest.mark.parametrize(
        "scheme_id", [s for s in ALL_SCHEME_IDS if len(set(get_scheme(s).owners)) > 1]
    )
    def test_distributed_transmitters_send_only_their_own_symbols(self, scheme_id):
        # transmitter j knows only its own messages: a block that carries
        # every other symbol, one per batch column, leaves it silent wherever
        # it does not replay an output
        scheme = get_scheme(scheme_id)
        h, offline, _ = _draw_batch(scheme, 14, [(t, 0) for t in range(6)])
        for j in range(scheme.num_tx):
            entity = scheme.entity_of(j)
            others = [s for s in range(scheme.num_symbols) if scheme.owners[s] != entity]
            msgs = np.zeros((scheme.num_symbols, len(others), h.shape[3]), complex)
            msgs[others, range(len(others))] = 1.0
            record = simulate_block(scheme, h, offline, msgs)
            assert np.any(record.x != 0.0)
            for n, payloads in enumerate(scheme.schedule):
                if not isinstance(payloads[j], OutputPayload):
                    assert np.all(record.x[j, n] == 0.0), (j, n)

    @pytest.mark.parametrize("scheme_id, entities", [("x_retro_csit", 2), ("ic3_retro_csit", 3)])
    def test_derive_runs_once_per_entity_per_block_run(self, scheme_id, entities):
        # the engine caches each entity's derivation for one block run: a
        # second run on the same block derives again, to the same bits.  One
        # call derives every entity, each through its own view
        scheme = _fresh(scheme_id)
        derive, calls = scheme.derive, []

        def counted(views, offline):
            calls.append([view.tx for view in views])
            return derive(views, offline)

        scheme.derive = counted
        h, offline, msgs = _draw_batch(scheme, 15, [(t, 0) for t in range(4)])
        first = simulate_block(scheme, h, offline, msgs)
        assert calls == [list(range(entities))]
        again = simulate_block(scheme, h, offline, msgs)
        assert calls == 2 * [list(range(entities))]
        assert np.array_equal(again.x, first.x)

    @pytest.mark.parametrize(
        "scheme_id, module, systems",
        [("x_retro_csit", retro_csit_x, 2), ("ic3_retro_csit", retro_csit_ic3, 3)],
    )
    def test_each_receiver_system_is_factored_once_per_block_run(
        self, monkeypatch, scheme_id, module, systems
    ):
        # a verify batch is one block run: one derive call for every entity,
        # which factors each receiver's system once per trial, not once per
        # entity that uses it
        scheme = _fresh(scheme_id)
        derive, null_vector, calls, factored = scheme.derive, module.null_vector, [], Counter()

        def counted_derive(views, offline):
            calls.append([view.tx for view in views])
            return derive(views, offline)

        def counted_null_vector(a):
            # systems factored, by their row count
            factored[a.shape[0]] += a[0, 0].size
            return null_vector(a)

        scheme.derive = counted_derive
        monkeypatch.setattr(module, "null_vector", counted_null_vector)
        block = _draw_batch(scheme, 3, [(t, 0) for t in range(7)])
        _run_block(scheme, *block, Tolerances(), False)
        assert calls == [list(range(scheme.num_tx))]
        # a receiver's system has one row per phase-1 slot
        assert factored.pop(module.PHASE1_SLOTS) == systems * 7
        # and ic3_retro_csit's triples are one 2x3 system per transmitter and trial
        assert factored == (Counter({2: 3 * 7}) if module is retro_csit_ic3 else Counter())

    @pytest.mark.parametrize("scheme_id", sorted(READS_ALONE))
    def test_each_entity_reads_what_it_read_deriving_alone(self, scheme_id):
        # one derive call for all entities widens no entity's reads
        scheme = get_scheme(scheme_id)
        h, offline, msgs = _draw_batch(scheme, 16, [(t, 0) for t in range(3)])
        log = AccessLog()
        simulate_block(scheme, h, offline, msgs, log=log)
        slot, reads = READS_ALONE[scheme_id]
        expected = Counter(
            AccessRecord(tx, slot, "csi", rx, j, n)
            for tx in range(scheme.num_tx)
            for rx, j, n in reads(tx)
        )
        assert Counter(log.records) == expected

    def test_a_schedule_with_more_slots_than_symbols_is_rejected_at_class_creation(self):
        # three slots cannot zero-force two symbols: the class is not built
        with pytest.raises(ValueError) as raised:

            class TooLong(XOutputFeedbackScheme):
                schedule = (
                    (SymbolPayload(0), SymbolPayload(1)),
                    (None, None),
                    (OutputPayload(rx=1, slot=0), None),
                )

        assert str(raised.value) == (
            "scheme x_output_fb: its schedule has 3 slots but names only 2 symbols"
        )

    @pytest.mark.parametrize("foreign", [SymbolPayload(3), RowPayload((0, 3), 0)])
    def test_a_schedule_that_sends_another_entitys_symbol_is_rejected_at_class_creation(
        self, foreign
    ):
        # symbol 3 is transmitter 1's: antenna 0, transmitter 0, cannot send it
        # alone or in a row
        with pytest.raises(ValueError) as raised:

            class Foreign(XOutputFeedbackScheme):
                schedule = (
                    XOutputFeedbackScheme.schedule[0],
                    (foreign, SymbolPayload(2)),
                    XOutputFeedbackScheme.schedule[2],
                )

        assert str(raised.value) == (
            "scheme x_output_fb: slot 1, antenna 0 names a symbol that its entity 0 does not own"
        )

    @pytest.mark.parametrize(
        "slot", [(RowPayload((0, 1)), RowPayload((1, 3))), (RowPayload((0, 0)), None)],
        ids=["two_rows", "one_row"],
    )
    def test_a_schedule_whose_offline_rows_name_a_symbol_twice_is_rejected_at_class_creation(
        self, slot
    ):
        # the table holds one coefficient per symbol and offline slot: a slot's
        # offline rows cannot weigh one symbol twice
        with pytest.raises(ValueError) as raised:

            class Twice(BcMatScheme):
                schedule = (slot, BcMatScheme.schedule[1], BcMatScheme.schedule[2])

        assert str(raised.value) == "scheme bc_mat: slot 0's offline rows name a symbol twice"

    @pytest.mark.parametrize("collect_weights", [False, True], ids=["verify", "sweep"])
    def test_a_schedule_of_offline_rows_decodes_on_the_base_draw(self, collect_weights):
        scheme = _TimeSharing()
        h, offline, msgs = _draw_batch(scheme, 0, [(t, 0) for t in range(64)])
        assert scheme.offline_slots == (0, 1, 2, 3) and offline.table.shape == (4, 4, 64)
        # each row the schedule sends is unit power over its symbols
        for symbols, ks in (([0, 1], [0, 1]), ([2, 3], [2, 3])):
            power = np.sum(np.abs(offline.table[symbols][:, ks]) ** 2, axis=0)
            np.testing.assert_allclose(power, 1.0, rtol=1e-15)
        outcomes, verdict = _run_block(scheme, h, offline, msgs, Tolerances(), collect_weights)
        assert verdict == {}
        assert np.all(outcomes.decode_ok)
        assert np.max(outcomes.max_rel_symbol_error) <= 1e-12
        # a slot whose rows do not name a symbol gives it no direction
        systems = scheme.offline_interference(h, offline, range(2))
        assert np.all(systems[:2, :, 0] == 0.0) and np.all(systems[2:, :, 1] == 0.0)
        assert np.all(systems[2:, :, 0] != 0.0) and np.all(systems[:2, :, 1] != 0.0)

    def test_offline_interference_holds_each_receivers_unwanted_directions(self):
        # written out by hand: over the offline slots, each unwanted symbol's
        # coefficient times the channel from the antenna whose row names it
        for scheme in map(get_scheme, ("ic3_retro_csit", "x_retro_csit")):
            h, offline, _ = _draw_batch(scheme, 4, [(t, 0) for t in range(5)])
            systems = scheme.offline_interference(h, offline, range(scheme.num_rx))
            for rx in range(scheme.num_rx):
                unwanted = [s for s in range(scheme.num_symbols) if s not in scheme.symbols_for_rx(rx)]
                for k, slot in enumerate(scheme.offline_slots):
                    for c, symbol in enumerate(unwanted):
                        (antenna,) = [
                            j for j, p in enumerate(scheme.schedule[slot]) if symbol in p.symbols
                        ]
                        want = h[rx, antenna, slot] * offline.table[symbol, k]
                        assert systems[k, c, rx].tobytes() == want.tobytes()

    @pytest.mark.parametrize("scheme_id", ALL_SCHEME_IDS)
    def test_the_engine_reads_no_channel(self, monkeypatch, scheme_id):
        # delayed CSIT becomes coefficients only inside a derive
        scheme = _fresh(scheme_id)
        reads = {"derive": 0, "engine": 0}
        deriving = []
        channel_coeff, derive = TxInformationView.channel_coeff, scheme.derive

        def counted_read(view, *item):
            reads["derive" if deriving else "engine"] += 1
            return channel_coeff(view, *item)

        def counted_derive(views, offline):
            deriving.append(views)
            try:
                return derive(views, offline)
            finally:
                deriving.pop()

        monkeypatch.setattr(TxInformationView, "channel_coeff", counted_read)
        scheme.derive = counted_derive
        h, offline, msgs = _draw_batch(scheme, 5, [(t, 0) for t in range(3)])
        log = AccessLog()
        simulate_block(scheme, h, offline, msgs, log=log)
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
        h = generate_channel(scheme.num_rx, scheme.num_tx, scheme.num_slots, [rng])
        offline = scheme.draw_offline([rng])
        msgs = scheme.draw_messages([rng])
        noise = sample_complex_gaussian([rng], scheme.num_rx * scheme.num_slots).reshape(
            scheme.num_rx, scheme.num_slots, 1
        )
        ctx = decode_context(scheme, h, offline)

        def decode_error(scale, z, messages):
            record = simulate_block(scheme, h, offline, scale * messages, noise=z)
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
            return x * np.abs(view._h[0, 0, 2])
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
            h, offline, msgs = _draw_batch(scheme, 9, [(t, 0) for t in range(16)])
            ctx = decode_context(scheme, h, offline)
            weights = noise_weights(scheme, h, offline, ctx)
            rng = np.random.default_rng(10)
            shape = (scheme.num_rx, scheme.num_slots, NOISE_COLUMNS, h.shape[3])
            noise = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / math.sqrt(2)
            for power in (10.0, 1e4):
                sent = math.sqrt(power) * msgs[:, None]
                columns = np.broadcast_to(sent, (scheme.num_symbols, *shape[2:]))
                record = simulate_block(scheme, h, offline, columns, noise=noise)
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
        # in trial order, each trial as its draw gives it alone
        alone = replayed(get_scheme("bc_mat"), 5, range(8))
        assert outcome_fields(a.outcomes) == outcome_fields(alone)
        for other in (b, c):
            assert outcome_fields(other.outcomes) == outcome_fields(a.outcomes)

    def test_trial_results_independent_of_run_length(self):
        long = run_trials("x_retro_csit", 6, base_seed=3)
        short = run_trials("x_retro_csit", 3, base_seed=3)
        assert outcome_fields(short.outcomes) == outcome_fields(long.outcomes, slice(3))

    def test_rejects_zero_trials(self):
        with pytest.raises(ValueError):
            run_trials("bc_mat", 0, base_seed=1)

    def test_rejects_more_trials_than_a_share_can_hold(self):
        # a share is a range, and a range past sys.maxsize has no len()
        with pytest.raises(ValueError, match="num_trials"):
            run_trials("bc_mat", sys.maxsize + 1, base_seed=1, threads=1)

    def test_rejects_negative_threads_before_any_trial(self):
        # as the CLI does with exit 2; a negative bound used to run one worker
        with mock.patch("alignsim.evaluate._run_draws") as run:
            with pytest.raises(ValueError, match="threads must be non-negative, got -3"):
                run_trials("bc_mat", 10, 0, threads=-3)
        run.assert_not_called()

    def test_sinr_and_rate_population(self):
        report = run_trials("bc_mat", 2, base_seed=6, collect_weights=True)
        power, slots = 10.0**3.0, get_scheme("bc_mat").num_slots
        assert report.outcomes.noise_weights.shape == (2, 4)
        for row in report.outcomes.noise_weights:
            rate = sum_rate_bits(row, power, slots)
            assert rate > 0.0
            expected = sum(np.log2(1.0 + power / w) for w in row) / slots
            assert abs(rate - expected) <= 1e-12 * expected


def _failing_where(ctx, mask, singular, reason):
    """The decode context ``ctx`` with the draws where ``mask`` holds failing for ``reason``.

    Their verdict is ``(singular, reason)``, in place of the decoder's own.
    """
    verdict = {int(t): (singular, reason) for t in np.flatnonzero(mask)}
    return ctx._replace(verdict={**ctx.verdict, **verdict})


def _singular_where(ctx, mask):
    """``ctx`` with the draws where ``mask`` holds judged degenerate."""
    return _failing_where(ctx, mask, True, "Singular: synthetic degenerate draw")


def _leak_where(ctx, mask):
    """``ctx`` with the draws where ``mask`` holds failing their certificates, as a leak does."""
    return _failing_where(ctx, mask, False, "InterferenceRankUnexpected: synthetic leak")


# The synthetic schemes below key on ``response[0, 0, 0]``: receiver 0's
# slot-0 output for symbol 0 alone, which for bc_mat is its first channel
# coefficient ``h[0, 0, 0]`` to the bit.
class _DiscardSometimes(BcMatScheme):
    """Discards each draw whose first channel coefficient leans positive."""

    def decode_context(self, tol, response):
        return _singular_where(super().decode_context(tol, response), response[0, 0, 0].real > 0.0)


class _DiscardAlways(BcMatScheme):
    def decode_context(self, tol, response):
        every = np.ones(response.shape[-1], dtype=bool)
        return _singular_where(super().decode_context(tol, response), every)


class _BadCertificates(BcMatScheme):
    def decode_context(self, tol, response):
        every = np.ones(response.shape[-1], dtype=bool)
        return _leak_where(super().decode_context(tol, response), every)


class _BudgetBreaker(BcMatScheme):
    csi_slot_budget = Fraction(1, 3)


class TestDiscardAndFailurePaths:
    def test_discarded_attempts_are_resampled_and_reported(self):
        scheme = _DiscardSometimes()
        seen_discard = False
        for trial in range(12):
            result, discards = _run_draws(scheme, 17, [trial], Tolerances(), False)
            assert result.decode_ok.tolist() == [True]
            # the trial's draw at attempt len(discards), as a block of it alone gives it
            assert outcome_fields(result) == outcome_fields(replayed(scheme, 17, [trial], discards))
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

    @pytest.mark.parametrize("scheme_id", ["x_retro_csit", "ic3_retro_csit"])
    def test_the_decoder_judges_every_discard(self, scheme_id):
        # at a coarse rank cutoff many draws are degenerate; the decoder judges
        # each one singular, and it is resampled within one batch of 130
        # trials.  The count is the corpus run's,
        # tests/golden/discards-<scheme>-0.01.json
        discards = recorded(f"discards-{scheme_id}-0.01")["stdout"]["results"]["discards"]
        report = run_trials(scheme_id, 130, 7, tol=Tolerances(rank_rel=0.01), threads=1)
        assert len(report.discards) == discards
        assert all(d.reason.startswith("Singular: ") for d in report.discards)
        assert report.all_decode_ok

    @pytest.mark.parametrize(
        "scheme_id, trial", [("ic3_output_fb", 3534), ("ic3_retro_csit", 10009)]
    )
    def test_the_decoder_not_the_draw_judges_a_weak_coefficient(self, scheme_id, trial):
        # at seed 0 these first draws hold a coefficient of magnitude 4.0e-4
        # and 8.2e-4: the channel keeps it as drawn, and the decoder finds
        # the draw regular and decodes it exactly at its first attempt
        scheme = get_scheme(scheme_id)
        h, _, _ = _draw_batch(scheme, 0, [(trial, 0)])
        assert np.abs(h).min() < 1e-3
        outcomes, discards = _run_draws(scheme, 0, [trial], Tolerances(), True)
        assert discards == []
        assert outcome_fields(outcomes) == outcome_fields(
            replayed(scheme, 0, [trial], collect_weights=True)
        )
        assert outcomes.decode_ok.tolist() == [True]


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

    def test_grid_point_past_the_float_range_rejected_before_any_trial(self):
        # an int that no float holds is a finite number, far out of range;
        # math.isfinite would raise OverflowError converting it
        with pytest.raises(ValueError, match=r"within \+-1000 dB, got \[0, -1000"):
            validate_snr_grid([0, -(10**400)])
        with mock.patch("alignsim.evaluate.run_trials") as run:
            with pytest.raises(ValueError, match=r"within \+-1000 dB, got \[1000"):
                estimate_dof("bc_mat", [10**400, 0], 5, 0)
        run.assert_not_called()

    @pytest.mark.parametrize("grid", [[True, 10.0], [40.0, np.True_, 70.0]])
    def test_bool_grid_points_rejected_before_any_trial(self, grid):
        # True would sweep 1 dB; the CLI's config check refuses it too
        with mock.patch("alignsim.evaluate.run_trials") as run:
            with pytest.raises(ValueError, match="finite numbers"):
                estimate_dof("bc_mat", grid, 5, 0)
        run.assert_not_called()

    def test_numpy_grid_points_accepted(self):
        grid = [np.float64(40.0), np.float32(55.0), np.int64(70)]
        validate_snr_grid(grid)
        estimate = estimate_dof("bc_mat", grid, 3, base_seed=1)
        assert estimate.snr_grid_db == [40.0, 55.0, 70.0]

    def test_rates_increase_with_snr(self):
        estimate = estimate_dof("ic3_output_fb", [30.0, 40.0, 50.0], 10, base_seed=5)
        assert estimate.sum_rates == sorted(estimate.sum_rates)

    @pytest.mark.parametrize("seed", [0, 5])
    @pytest.mark.parametrize("scheme_id", ALL_SCHEME_IDS)
    def test_sum_rates_meet_the_affine_rate_within_its_exact_bound(self, scheme_id, seed):
        # with u = P / w, 0 <= log2(1 + u) - log2(u) <= 1 / (u ln 2), so each
        # sum rate exceeds the affine rate d log2 P - mean(sum_i log2 w_i) / slots
        # by at most mean(sum_i w_i) / (P slots ln 2).  This holds at every seed;
        # a fixed bound on the fitted slope does not (x_retro_csit's slope on
        # this grid at seed 5 is 2.6e-5 off 8/7)
        scheme = get_scheme(scheme_id)
        grid = [70.0, 80.0, 90.0, 100.0]
        estimate = estimate_dof(scheme_id, grid, 40, base_seed=seed)
        weights = run_trials(scheme_id, 40, seed, collect_weights=True).outcomes.noise_weights
        dof = float(dof_by_counting(scheme))
        offset = np.mean(np.sum(np.log2(weights), axis=1)) / scheme.num_slots
        spread = np.mean(np.sum(weights, axis=1)) / (scheme.num_slots * math.log(2.0))
        for point, rate in zip(grid, estimate.sum_rates):
            power = 10.0 ** (point / 10.0)
            remainder = rate - (dof * math.log2(power) - offset)
            assert -1e-12 <= remainder <= spread / power + 1e-12, (point, remainder)


# per dof_sweep batch: one run, whose impulse columns carry the noise of the
# replayed outputs forward
SWEEP_BLOCK_RUNS = 1


@pytest.mark.parametrize("scheme_id", ALL_SCHEME_IDS)
def test_sweep_batch_block_runs(scheme_id):
    import alignsim.evaluate as evaluate

    with mock.patch.object(evaluate, "simulate_block", wraps=simulate_block) as spy:
        estimate = estimate_dof(scheme_id, [40.0, 70.0], 40, base_seed=8)
    assert estimate.discards == 0
    assert spy.call_count == SWEEP_BLOCK_RUNS


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
        max_rel_symbol_error=np.zeros(n), certificates={}, noise_weights=np.array(rows),
        csi_slots=[],
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
        return _singular_where(
            super().decode_context(tol, response), response[0, 0, 0] == self.coefficient
        )


class _FailStrongTrials(BcMatScheme):
    """Fails the certificates of every trial whose first channel coefficient is strong."""

    def decode_context(self, tol, response):
        return _leak_where(super().decode_context(tol, response), np.abs(response[0, 0, 0]) > 1.5)


def _first_coefficients(base_seed, trials, attempts=(0,)):
    """The first channel coefficient of each trial's draws at ``attempts``."""
    draws = [(base_seed, trial, attempt) for trial in trials for attempt in attempts]
    return [
        generate_channel(2, 2, 3, seeded_generators(states[:1]))[0, 0, 0, 0]
        for states in spawn_states(draws, 3)
    ]


class _FailMarkedDraws(BcMatScheme):
    """Fails the certificates of each draw whose first channel coefficient is in ``marked``."""

    def __init__(self, marked):
        self.marked = marked

    def decode_context(self, tol, response):
        return _leak_where(
            super().decode_context(tol, response), np.isin(response[0, 0, 0], self.marked)
        )


class _FailMarkedDiscardOthers(_FailMarkedDraws):
    """Discards the draws in ``singular``, and fails the certificates of those in ``marked``."""

    def __init__(self, marked, singular):
        super().__init__(marked)
        self.singular = singular

    def decode_context(self, tol, response):
        return _singular_where(
            super().decode_context(tol, response), np.isin(response[0, 0, 0], self.singular)
        )


class _StructuralAndCertificateFailures(BcMatScheme):
    """A failed certificate on one draw and a structural failure, not singular, on another."""

    def __init__(self, structural, failing_certificate):
        self.structural = structural
        self.failing_certificate = failing_certificate

    def decode_context(self, tol, response):
        ctx = super().decode_context(tol, response)
        ctx = _leak_where(ctx, response[0, 0, 0] == self.failing_certificate)
        structural = response[0, 0, 0] == self.structural
        return _failing_where(ctx, structural, False, "synthetic structural failure")


def _trial_by_trial(scheme, base_seed, num_trials):
    """Outcomes and discards of the trials, each run alone."""
    parts, discards = [], []
    for trial in range(num_trials):
        outcome, trial_discards = _run_draws(scheme, base_seed, [trial], Tolerances(), False)
        parts.append(outcome)
        discards += trial_discards
    return _join(parts, np.concatenate), discards


def _record_batches(monkeypatch, scheme):
    """Make ``run_trials`` run ``scheme``; the draws of each block it runs."""
    import alignsim.evaluate as evaluate

    calls = []
    draw_batch = evaluate._draw_batch

    def recording(scheme, base_seed, draws):
        calls.append(list(draws))
        return draw_batch(scheme, base_seed, draws)

    monkeypatch.setattr(evaluate, "_draw_batch", recording)
    monkeypatch.setattr(evaluate, "get_scheme", lambda scheme_id: scheme)
    return calls


def _rounds(num_trials, discards):
    """The draws of each block run of a batch whose only failures are ``discards``.

    A block runs its discarded draws at their next attempt, and its other
    draws pass: every attempt holds one block.
    """
    discarded = {(d.trial, d.attempt) for d in discards}
    levels = [[(t, 0) for t in range(num_trials)]]
    while any(draw in discarded for draw in levels[-1]):
        levels.append([(t, a + 1) for t, a in levels[-1] if (t, a) in discarded])
    return levels


class TestTrialBatches:
    def test_degenerate_draws_rerun_apart_from_their_batch(self, monkeypatch):
        scheme = _DiscardSometimes()
        expected_outcomes, expected_discards = _trial_by_trial(scheme, 21, 70)
        calls = _record_batches(monkeypatch, scheme)
        report = run_trials("bc_mat", 70, base_seed=21)
        assert outcome_fields(report.outcomes) == outcome_fields(expected_outcomes)
        assert report.discards == expected_discards
        assert report.discards
        assert calls == _rounds(70, expected_discards)

    @pytest.mark.parametrize("bad", [0, 77, 127, TRIAL_BATCH - 1])
    def test_one_degenerate_trial_reruns_alone(self, monkeypatch, bad):
        [states] = spawn_states([(23, bad, 0)], 3)
        first = generate_channel(2, 2, 3, seeded_generators(states[:1]))[0, 0, 0, 0]
        scheme = _DiscardOneDraw(first)
        expected_outcomes, expected_discards = _trial_by_trial(scheme, 23, TRIAL_BATCH)
        assert [(d.trial, d.attempt) for d in expected_discards] == [(bad, 0)]

        calls = _record_batches(monkeypatch, scheme)
        report = run_trials("bc_mat", TRIAL_BATCH, base_seed=23)
        assert outcome_fields(report.outcomes) == outcome_fields(expected_outcomes)
        assert report.discards == expected_discards
        # the batch, whose other trials pass, then the bad trial at its next
        # attempt: each comes out as it does alone
        assert calls == [[(t, 0) for t in range(TRIAL_BATCH)], [(bad, 1)]]

    def test_dense_discards_rerun_by_attempt(self, monkeypatch):
        scheme = _DiscardSometimes()
        expected_outcomes, expected_discards = _trial_by_trial(scheme, 21, TRIAL_BATCH)
        calls = _record_batches(monkeypatch, scheme)
        report = run_trials("bc_mat", TRIAL_BATCH, base_seed=21)
        assert outcome_fields(report.outcomes) == outcome_fields(expected_outcomes)
        assert report.discards == expected_discards
        # each attempt's discards run together at the next attempt, until one
        # such block passes
        assert calls == _rounds(TRIAL_BATCH, expected_discards)
        attempts = max(d.attempt for d in expected_discards) + 2
        assert len(calls) == attempts and attempts <= MAX_ATTEMPTS
        # a draw runs once, where it is discarded or passes
        assert sum(map(len, calls)) == TRIAL_BATCH + len(expected_discards)

    @pytest.mark.parametrize(
        "scheme_id, trials, drawn", [("ic3_retro_csit", 160, 247), ("x_retro_csit", 300, 505)]
    )
    def test_each_draw_runs_once_per_attempt(self, monkeypatch, scheme_id, trials, drawn):
        # at a coarse rank cutoff most retrospective draws are singular; the
        # run draws each trial once, and each discard's next attempt once
        calls = _record_batches(monkeypatch, get_scheme(scheme_id))
        report = run_trials(scheme_id, trials, 7, tol=Tolerances(rank_rel=0.01), threads=1)
        draws = [draw for block in calls for draw in block]
        assert len(draws) == trials + len(report.discards) == drawn
        assert len(set(draws)) == len(draws)

    def test_an_early_certificate_failure_beats_a_later_trial_out_of_attempts(
        self, monkeypatch
    ):
        scheme = _FailMarkedDiscardOthers(
            _first_coefficients(26, [5]), _first_coefficients(26, [200], range(MAX_ATTEMPTS))
        )
        with pytest.raises(SchemeFailure, match="^bc_mat trial 200: exceeded 10 attempts; "):
            _run_draws(scheme, 26, [200], Tolerances(), False)
        calls = _record_batches(monkeypatch, scheme)
        # the batch fails trial 5's certificate, and trial 200 reruns alone
        # until it runs out of attempts
        with pytest.raises(SchemeFailure, match=r"^bc_mat trial 5: InterferenceRankUnexpected: "):
            run_trials("bc_mat", TRIAL_BATCH, base_seed=26)
        assert [len(draws) for draws in calls] == [TRIAL_BATCH] + [1] * (MAX_ATTEMPTS - 1)

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
        assert calls == [[(t, 0) for t in range(TRIAL_BATCH)], [(4, 1)]]

    def test_failure_in_left_half_is_raised_before_right_half(self, monkeypatch):
        import alignsim.evaluate as evaluate

        scheme = _StructuralAndCertificateFailures(*_first_coefficients(24, (10, 100)))
        monkeypatch.setattr(evaluate, "get_scheme", lambda scheme_id: scheme)
        with pytest.raises(SchemeFailure, match="bc_mat trial 100: InterferenceRankUnexpected"):
            _run_draws(scheme, 24, [100], Tolerances(), False)
        # the batch fails trial 100's certificates and trial 10's structure,
        # whose failure is raised first
        with pytest.raises(SchemeFailure, match="bc_mat trial 10: synthetic structural failure"):
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

        # trial 0 passes in the batch's first block, trial 5 at its next
        # attempt, alone
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
            abs(generate_channel(2, 2, 3, seeded_generators(states[:1]))[0, 0, 0, 0])
            for states in spawn_states([(22, trial, 0) for trial in range(100)], 3)
        ]
        first_bad = next(trial for trial, gain in enumerate(gains) if gain > 1.5)
        assert first_bad > 0
        with pytest.raises(SchemeFailure, match=f"bc_mat trial {first_bad}: InterferenceRank"):
            run_trials("bc_mat", 100, base_seed=22)


def _entries(scheme_id):
    """Receive-matrix entries one trial of the scheme gives the decoder."""
    scheme = get_scheme(scheme_id)
    return scheme.num_rx * scheme.num_slots * scheme.num_symbols


def _passing_blocks(calls):
    """Stand-ins for ``_draw_batch`` and ``_run_block``, by name, that pass every draw.

    Each block's trials go to ``calls``, and each draw's outcomes carry its
    trial as the certificate ``"trial"``.
    """

    def recording(scheme, base_seed, draws):
        calls.append([trial for trial, _ in draws])
        return None, None, np.array([calls[-1]])

    def passing(scheme, h, offline, msgs, *args):
        return TrialOutcomes(np.zeros(msgs.shape[-1]), {"trial": msgs[0]}, None, []), {}

    return {"_draw_batch": recording, "_run_block": passing}


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    scheme_id=st.sampled_from(sorted(SCHEMES)),
    num_trials=st.integers(1, 6000),
    threads=st.integers(1, 4),
    cores=st.integers(1, 4),
)
def test_batch_plan(scheme_id, num_trials, threads, cores):
    import alignsim.evaluate as evaluate

    scheme = get_scheme(scheme_id)
    with mock.patch.object(evaluate, "_usable_cpus", lambda: cores):
        plan = evaluate._batch_plan(scheme, num_trials, threads)
    # read worker by worker, the shares hold every trial once, in order
    assert all(type(share) is range and share.step == 1 for share in plan)
    assert [trial for share in plan for trial in share] == list(range(num_trials))
    work = num_trials * _entries(scheme_id)
    assert len(plan) == min(threads, cores, math.ceil(work / ENTRIES_PER_WORKER))
    shares = [len(share) for share in plan]
    assert max(shares) - min(shares) <= 1
    assert all(plan)
    calls = []
    with mock.patch.multiple(evaluate, **_passing_blocks(calls)):
        for share in plan:
            start = len(calls)
            outcomes, _ = evaluate._run_draws(scheme, 0, share, Tolerances(), False)
            sizes = [len(batch) for batch in calls[start:]]
            assert len(sizes) == math.ceil(len(share) / TRIAL_BATCH)
            assert max(sizes) <= TRIAL_BATCH
            assert max(sizes) - min(sizes) <= 1
            assert outcomes.certificates["trial"].tolist() == list(share)
    # each batch is contiguous, and the batches run in trial order
    assert [trial for batch in calls for trial in batch] == list(range(num_trials))


def test_batch_plan_cuts_batches_only_when_read(monkeypatch):
    # a trillion trials plan as two ranges, picklable for a child; the runner
    # cuts a share's batches only as it reaches them
    import alignsim.evaluate as evaluate

    with mock.patch.object(evaluate, "_usable_cpus", lambda: 2):
        start = time.perf_counter()
        plan = evaluate._batch_plan(get_scheme("bc_mat"), 10**12, 2)
        assert time.perf_counter() - start < 0.1
    half = 10**12 // 2
    assert plan == [range(0, half), range(half, 10**12)]
    assert pickle.loads(pickle.dumps(plan)) == plan
    calls = []
    stand_ins = _passing_blocks(calls)

    def draws_one_batch(*args):
        assert not calls, "the check did not stop the run"
        return stand_ins["_draw_batch"](*args)

    monkeypatch.setattr(evaluate, "_draw_batch", draws_one_batch)
    monkeypatch.setattr(evaluate, "_run_block", stand_ins["_run_block"])

    class Stop(Exception):
        pass

    def stops_before_the_second_batch():
        if calls:
            raise Stop

    with pytest.raises(Stop):
        evaluate._run_draws(
            get_scheme("bc_mat"), 0, plan[1], Tolerances(), False, stops_before_the_second_batch
        )
    assert calls == [list(range(half, half + TRIAL_BATCH))]


def test_run_draws_checks_before_each_batch(monkeypatch):
    import alignsim.evaluate as evaluate

    events = []
    monkeypatch.setattr(evaluate, "TRIAL_BATCH", 3)
    with mock.patch.multiple(evaluate, **_passing_blocks(events)):
        outcomes, discards = evaluate._run_draws(
            get_scheme("bc_mat"), 0, range(8), Tolerances(), False, lambda: events.append("check")
        )
    assert events == ["check", [0, 1], "check", [2, 3, 4], "check", [5, 6, 7]]
    assert outcomes.certificates["trial"].tolist() == list(range(8))
    assert discards == []


def test_batch_plan_at_threads_0_is_bounded_by_cpus_and_work():
    import alignsim.evaluate as evaluate

    with mock.patch.object(evaluate, "_usable_cpus", lambda: 3):
        for scheme_id, scheme in SCHEMES.items():
            per_worker = ENTRIES_PER_WORKER // _entries(scheme_id)
            assert len(evaluate._batch_plan(scheme, 10**6, 0)) == 3
            assert len(evaluate._batch_plan(scheme, 2 * per_worker, 0)) == 2
            assert len(evaluate._batch_plan(scheme, per_worker + 1, 0)) == 2
            assert len(evaluate._batch_plan(scheme, per_worker, 0)) == 1
            assert len(evaluate._batch_plan(scheme, 1, 0)) == 1


class TestWorkerProcesses:
    """Two workers, the caller and one child; under the fixture they run trials 0-3 and 4-7."""

    @pytest.fixture
    def evaluate(self, monkeypatch):
        import alignsim.evaluate as evaluate

        # a cap of four bc_mat trials' work
        monkeypatch.setattr(evaluate, "_usable_cpus", lambda: 2)
        monkeypatch.setattr(evaluate, "ENTRIES_PER_WORKER", 4 * _entries("bc_mat"))
        assert evaluate._batch_plan(get_scheme("bc_mat"), 8, 2) == [range(0, 4), range(4, 8)]
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
        run_draws = evaluate._run_draws

        def exits_in_the_child(scheme, base_seed, trials, *rest):
            if trials.start > 0:
                os._exit(7)
            return run_draws(scheme, base_seed, trials, *rest)

        monkeypatch.setattr(evaluate, "_run_draws", exits_in_the_child)
        with pytest.raises(ChildProcessError, match="exited with code 7"):
            run_trials("bc_mat", 8, base_seed=8, threads=2)
        assert multiprocessing.active_children() == []

    def test_a_child_that_exits_early_stops_the_caller_at_its_next_batch(
        self, evaluate, monkeypatch
    ):
        # the caller's share of 4 trials runs as 4 batches
        monkeypatch.setattr(evaluate, "TRIAL_BATCH", 1)
        run_draws, draw_batch = evaluate._run_draws, evaluate._draw_batch
        batches = []

        def exits_in_the_child(scheme, base_seed, trials, *rest):
            if trials.start > 0:
                os._exit(7)
            return run_draws(scheme, base_seed, trials, *rest)

        def waits_for_the_child_to_exit(scheme, base_seed, draws):
            deadline = time.monotonic() + 10
            while multiprocessing.active_children():
                assert time.monotonic() < deadline, "the child did not exit"
                time.sleep(0.01)
            batches.append(draws)
            return draw_batch(scheme, base_seed, draws)

        monkeypatch.setattr(evaluate, "_run_draws", exits_in_the_child)
        monkeypatch.setattr(evaluate, "_draw_batch", waits_for_the_child_to_exit)
        with pytest.raises(ChildProcessError, match="exited with code 7"):
            run_trials("bc_mat", 8, base_seed=8, threads=2)
        # the check before the caller's second batch sees the exited child, if
        # the one before its first does not
        assert len(batches) <= 1
        assert multiprocessing.active_children() == []

    def test_children_are_forked_whatever_the_default_start_method(self):
        # under forkserver a child's parent is the server, not the caller, so
        # a child not forked would stop as orphaned before its first batch
        src = Path(retro_csit_ic3.__file__).resolve().parents[1]
        paths = [str(src), str(Path(__file__).parent)]
        script = (
            "import multiprocessing\n"
            "multiprocessing.set_start_method('forkserver')\n"
            "import alignsim.evaluate as evaluate\n"
            "from _outcomes import outcome_fields\n"
            "evaluate._usable_cpus = lambda: 2\n"
            "assert len(evaluate._batch_plan(evaluate.get_scheme('ic3_retro_csit'), 400, 2)) == 2\n"
            "one, two = (evaluate.run_trials('ic3_retro_csit', 400, 0, threads=t) for t in (1, 2))\n"
            "assert outcome_fields(two.outcomes) == outcome_fields(one.outcomes)\n"
            "assert two.discards == one.discards\n"
            "print('equal')\n"
        )
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([*paths, os.environ.get("PYTHONPATH", "")])}
        done = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, env=env, timeout=120, text=True
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines()[-1] == "equal"

    def test_an_interrupt_in_the_caller_kills_the_child(self, evaluate, monkeypatch):
        def sleeps_in_the_child(scheme, base_seed, trials, *rest):
            if trials.start > 0:
                time.sleep(60)
            raise KeyboardInterrupt

        monkeypatch.setattr(evaluate, "_run_draws", sleeps_in_the_child)
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
    h = generate_channel(scheme.num_rx, scheme.num_tx, scheme.num_slots, [rng])
    offline = scheme.draw_offline([rng])
    ctx = decode_context(scheme, h, offline)
    # a singular draw is discarded; a leak is a failure
    assert all(singular for singular, _ in ctx.verdict.values()), ctx.verdict
    assume(not ctx.verdict)
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
    # beside the decoders it judged and its verdict, and the context holds
    # nothing else
    assert list(DecodeContext._fields) == ["decoders", "certificates", "verdict"]


def _judged(scheme_id, guards):
    """``decode_context`` of two draws of a scheme whose guards read ``guards``.

    ``guards[(key, draw)]`` replaces the value of certificate ``key`` at
    ``draw`` in what ``zero_forcing_rows`` returns to the decoder.
    """
    scheme = get_scheme(scheme_id)
    h, offline, _ = _draw_batch(scheme, 25, [(0, 0), (1, 0)])
    response = impulse_response(scheme, h, offline)

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
    return True, (
        f"Singular: receiver {rx}: condition number inf exceeds 1.0e+08; "
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
        verdict = _judged(scheme_id, guards).verdict
        if name == "receive_cond":
            assert verdict == {1: _singular_at(rx)}
        else:
            [(singular, reason)] = verdict.values()
            assert list(verdict) == [1] and not singular
            assert reason.startswith("InterferenceRankUnexpected: ")
            assert f" at receiver {rx} exceeds " in reason


@pytest.mark.parametrize("scheme_id", ALL_SCHEME_IDS)
def test_nan_certificate_fails_every_check(scheme_id):
    # a NaN guard fails its check: a NaN residual beside a healthy receive
    # condition is a leak, not a pass
    for key in _CHECK_ORDER[scheme_id]:
        name, rx = key.rsplit("_rx", 1)
        verdict = _judged(scheme_id, {(key, 0): np.nan}).verdict
        if name == "receive_cond":
            assert verdict == {0: _singular_at(rx)}
        else:
            message = f"InterferenceRankUnexpected: zero-forcing residual nan at receiver {rx} "
            assert list(verdict) == [0] and verdict[0][1].startswith(message)
            assert not verdict[0][0]


@pytest.mark.parametrize("scheme_id", ALL_SCHEME_IDS)
def test_certificate_keys_are_unique_and_reported(scheme_id):
    keys = list(_judged(scheme_id, {}).certificates)
    assert len(set(keys)) == len(keys)
    assert list(run_trials(scheme_id, 3, base_seed=27).outcomes.certificates) == keys


def _tagged(values, csi_slots):
    """Outcomes whose every array is made of ``values``, one per trial."""
    values = np.array(values, dtype=float)
    return TrialOutcomes(
        max_rel_symbol_error=values / 10.0, certificates={"c": 2.0 * values},
        noise_weights=np.outer(values, [1.0, 1.0]), csi_slots=csi_slots,
    )


def test_join_concatenates_the_arrays_and_merges_the_audits():
    joined = _join([_tagged([0, 1], [2]), _tagged([2], [0, 2])], np.concatenate)
    assert outcome_fields(joined) == outcome_fields(_tagged([0, 1, 2], [0, 2]))


def test_join_writes_a_rounds_outcomes_into_their_rows():
    # a batch's later round runs some of its trials again, out of order
    batch = _tagged([0, 1, 2, 3], [2])
    before = outcome_fields(batch)
    joined = _join([batch, _tagged([13, 11], [2])], _write_rows([3, 1]))
    assert outcome_fields(joined) == outcome_fields(_tagged([0, 11, 2, 13], [2]))
    assert outcome_fields(batch) == before
