import numpy as np
import pytest

from alignsim.base import OutputPayload, SymbolPayload
from alignsim.channel import AccessLog, CausalityViolation, generate_channel
from alignsim.evaluate import simulate_block
from alignsim.numerics import sample_complex_gaussian
from alignsim.output_feedback import BcMatScheme, IC3OutputFeedbackScheme, XOutputFeedbackScheme
from alignsim.registry import SCHEMES

from _oracles import future_perturbation_invariant
from _outcomes import run_with_batches

BC = BcMatScheme()
XFB = XOutputFeedbackScheme()
ICFB = IC3OutputFeedbackScheme()


def _trial_data(scheme, seed):
    """Channel and messages of a one-trial stack."""
    rng = np.random.default_rng(seed)
    tensor = generate_channel(scheme.num_rx, scheme.num_tx, scheme.num_slots, [rng])
    msgs = scheme.draw_messages([rng])
    return tensor, msgs


def _noise(scheme, seed):
    rng = np.random.default_rng(seed)
    return sample_complex_gaussian([rng], scheme.num_rx * scheme.num_slots).reshape(
        scheme.num_rx, scheme.num_slots, 1
    )


@pytest.fixture(scope="module", params=["bc_mat", "x_output_fb", "ic3_output_fb"])
def fb_report(request):
    return request.param, *run_with_batches(request.param, 400, base_seed=77)


@pytest.mark.parametrize("scheme", SCHEMES.values(), ids=lambda scheme: scheme.scheme_id)
class TestScheduleSizes:
    def test_every_slot_has_one_payload_per_antenna(self, scheme):
        assert all(len(payloads) == scheme.num_tx for payloads in scheme.schedule)

    def test_symbol_payloads_name_each_symbol_once(self, scheme):
        # a symbol payload sends its symbol once; a row may name it in every slot
        symbols = [
            payload.symbol
            for payloads in scheme.schedule
            for payload in payloads
            if isinstance(payload, SymbolPayload)
        ]
        named = {
            symbol
            for payloads in scheme.schedule
            for payload in payloads
            for symbol in getattr(payload, "symbols", ())
        }
        assert len(symbols) == len(set(symbols))
        assert sorted(named) == list(range(scheme.num_symbols))


def test_sizes_come_from_the_schedules():
    sizes = {s.scheme_id: (s.num_slots, s.num_tx, s.num_symbols) for s in SCHEMES.values()}
    assert sizes == {
        "bc_mat": (3, 2, 4),
        "x_output_fb": (3, 2, 4),
        "ic3_output_fb": (5, 3, 6),
        "x_retro_csit": (7, 2, 8),
        "ic3_retro_csit": (8, 3, 9),
    }


class TestAllSchemes:
    def test_exact_recovery_over_trials(self, fb_report):
        _, report, _ = fb_report
        assert report.outcomes.trial.tolist() == list(range(400))
        assert report.all_decode_ok
        assert report.max_rel_symbol_error <= 1e-9
        assert report.discards == []

    def test_csi_usage(self, fb_report):
        # a batch audits the reads of all its trials at once
        scheme_id, report, batches = fb_report
        expected = [0, 1] if scheme_id == "bc_mat" else []
        assert len(batches) == 2
        for batch in batches:
            assert batch.csi_slots == expected
        assert report.outcomes.csi_slots == expected

    def test_own_receiver_outputs_only_where_required(self, fb_report):
        # the views refuse any read outside the association, so the run
        # completing shows every replay stayed inside it
        scheme_id, report, _ = fb_report
        scheme = SCHEMES[scheme_id]
        replays = [
            (scheme.entity_of(j), payload.rx)
            for payloads in scheme.schedule
            for j, payload in enumerate(payloads)
            if isinstance(payload, OutputPayload)
        ]
        assert report.all_decode_ok
        assert all(scheme.feedback.output_allowed(rx, tx) for tx, rx in replays)
        if scheme_id == "ic3_output_fb":
            assert replays and all(tx == rx for tx, rx in replays)


class TestBcMat:
    def test_second_antenna_silent_in_combo_slot(self):
        tensor, msgs = _trial_data(BC, 21)
        record = simulate_block(BC, tensor, None, msgs)
        assert np.all(record.x[1, 2] == 0j)

    def test_combo_is_normalized_sum_of_clean_observations(self):
        # The slot-2 scalar times its normalizer must equal the two clean
        # crossed observations the users are waiting on.
        tensor, msgs = _trial_data(BC, 22)
        record = simulate_block(BC, tensor, None, msgs)
        h = tensor.h
        rho = np.sqrt(
            sum(abs(h[1, j, 0]) ** 2 for j in range(2))
            + sum(abs(h[0, j, 1]) ** 2 for j in range(2))
        )
        target = record.y[1, 0] + record.y[0, 1]
        np.testing.assert_allclose(record.x[0, 2] * rho, target, rtol=1e-12)

    def test_slot_powers(self):
        # unit-power symbols give unit power in every sending (antenna, slot)
        tensor, _ = _trial_data(BC, 23)
        coeffs = np.zeros((2, 3, 4), dtype=np.complex128)
        for sym in range(4):
            msgs = np.zeros((4, 1), dtype=np.complex128)
            msgs[sym] = 1.0
            record = simulate_block(BC, tensor, None, msgs)
            coeffs[:, :, sym] = record.x[..., 0]
        power = np.sum(np.abs(coeffs) ** 2, axis=2)
        np.testing.assert_allclose(power[0, :], 1.0, rtol=1e-10)
        np.testing.assert_allclose(power[1, :2], 1.0, rtol=1e-10)
        assert power[1, 2] == 0.0

    def test_single_entity_reads_for_both_antennas(self):
        tensor, msgs = _trial_data(BC, 24)
        log = AccessLog()
        simulate_block(BC, tensor, None, msgs, log=log)
        assert log.csi_slots() == frozenset({0, 1})
        assert all(r.tx == 0 and r.kind == "csi" for r in log.records)

    def test_combo_reads_each_coefficient_once(self):
        # the combination sums four crossed coefficients: one read each
        tensor, msgs = _trial_data(BC, 25)
        log = AccessLog()
        simulate_block(BC, tensor, None, msgs, log=log)
        reads = [(r.item_rx, r.item_tx, r.item_slot) for r in log.records]
        assert sorted(reads) == [(0, 0, 1), (0, 1, 1), (1, 0, 0), (1, 1, 0)]

    @pytest.mark.parametrize("perturb_from", range(3))
    def test_future_states_never_leak(self, perturb_from):
        assert future_perturbation_invariant(BC, 31, [0], perturb_from)


class TestXOutputFeedback:
    def test_replay_carries_noisy_output_bit_for_bit(self):
        tensor, msgs = _trial_data(XFB, 41)
        noise = _noise(XFB, 42)
        record = simulate_block(XFB, tensor, None, msgs, noise=noise)
        assert np.array_equal(record.x[0, 2], record.y[1, 0])
        assert np.array_equal(record.x[1, 2], record.y[0, 1])

    def test_no_csi_and_full_association_reads(self):
        tensor, msgs = _trial_data(XFB, 43)
        log = AccessLog()
        simulate_block(XFB, tensor, None, msgs, log=log)
        assert log.csi_slots() == frozenset()
        reads = {(r.tx, r.item_rx, r.item_slot) for r in log.records if r.kind == "output"}
        assert reads == {(0, 1, 0), (1, 0, 1)}

    @pytest.mark.parametrize("perturb_from", range(3))
    def test_future_states_never_leak(self, perturb_from):
        assert future_perturbation_invariant(XFB, 32, [0], perturb_from)


class TestIC3OutputFeedback:
    def test_symbol_map(self):
        assert ICFB.symbols_for_rx(0) == [0, 1]
        assert ICFB.symbols_for_rx(1) == [2, 3]
        assert ICFB.symbols_for_rx(2) == [4, 5]

    def test_silent_antennas(self):
        tensor, msgs = _trial_data(ICFB, 51)
        record = simulate_block(ICFB, tensor, None, msgs)
        for slot, payloads in enumerate(ICFB.schedule):
            for j, payload in enumerate(payloads):
                if payload is None:
                    assert np.all(record.x[j, slot] == 0j)

    def test_only_own_outputs_read(self):
        tensor, msgs = _trial_data(ICFB, 52)
        log = AccessLog()
        simulate_block(ICFB, tensor, None, msgs, log=log)
        assert log.csi_slots() == frozenset()
        assert log.records != []
        assert all(r.kind == "output" and r.item_rx == r.tx for r in log.records)

    def test_cross_receiver_read_is_rejected(self):
        # the association table must block a transmitter from replaying a
        # different receiver's output even when the slot is old enough
        class Leaky(IC3OutputFeedbackScheme):
            schedule = (
                ICFB.schedule[0],
                ICFB.schedule[1],
                ICFB.schedule[2],
                (None, OutputPayload(rx=0, slot=1), OutputPayload(rx=2, slot=0)),
                ICFB.schedule[4],
            )

        tensor, msgs = _trial_data(ICFB, 53)
        with pytest.raises(CausalityViolation):
            simulate_block(Leaky(), tensor, None, msgs)

    @pytest.mark.parametrize("perturb_from", range(5))
    def test_future_states_never_leak(self, perturb_from):
        assert future_perturbation_invariant(ICFB, 33, [0], perturb_from)


class TestInterpreterGuards:
    def test_future_output_reference_is_a_causality_violation(self):
        class TooEager(XOutputFeedbackScheme):
            schedule = (
                XFB.schedule[0],
                XFB.schedule[1],
                (OutputPayload(rx=1, slot=2), OutputPayload(rx=0, slot=1)),
            )

        tensor, msgs = _trial_data(XFB, 61)
        with pytest.raises(CausalityViolation):
            simulate_block(TooEager(), tensor, None, msgs)
