import numpy as np
import pytest

from alignsim.channel import (
    AccessLog,
    CausalityViolation,
    FeedbackKind,
    FeedbackModel,
    TxInformationView,
    apply_channel,
    generate_channel,
)


class TestGenerateChannel:
    def test_shape(self, rng):
        assert generate_channel(3, 3, 8, [rng]).shape == (3, 3, 8, 1)

    def test_deterministic(self):
        t1 = generate_channel(2, 2, 7, [np.random.default_rng(11)])
        t2 = generate_channel(2, 2, 7, [np.random.default_rng(11)])
        assert np.array_equal(t1, t2)


class TestApplyChannel:
    def test_clean_reconstruction_exact(self, rng):
        h = generate_channel(2, 2, 5, [rng])
        x = np.array([[1.0 + 2.0j], [-0.5j]])
        y = apply_channel(x, h, 3)
        # the sum over transmitters runs left to right on elementwise products
        assert np.array_equal(y, h[:, 0, 3] * x[0] + h[:, 1, 3] * x[1])
        np.testing.assert_allclose(y[:, 0], h[:, :, 3, 0] @ x[:, 0], rtol=1e-15)

    def test_noise_injection(self, rng):
        h = generate_channel(2, 2, 3, [rng])
        x = np.ones((2, 1), dtype=complex)
        noise = np.array([[1.0], [-1.0j]])
        y = apply_channel(x, h, 0, noise=noise)
        np.testing.assert_allclose(y - apply_channel(x, h, 0), noise, rtol=0, atol=1e-15)


def _channel_and_outputs(rng, num_rx=2, num_tx=2, num_slots=7):
    """A one-trial channel stack and the ``(num_rx, num_slots, 1)`` outputs of its block."""
    h = generate_channel(num_rx, num_tx, num_slots, [rng])
    outputs = (
        rng.standard_normal((num_rx, num_slots, 1))
        + 1j * rng.standard_normal((num_rx, num_slots, 1))
    )
    return h, outputs


class TestDelayedCsitView:
    def test_exposes_strictly_past_slots(self, rng):
        h, outputs = _channel_and_outputs(rng)
        model = FeedbackModel(kind=FeedbackKind.DELAYED_CSIT)
        log = AccessLog()
        view = TxInformationView(0, 3, h, outputs, model, log)
        for m in range(3):
            for k in range(2):
                for j in range(2):
                    assert np.array_equal(view.channel_coeff(k, j, m), h[k, j, m])
        assert [(r.item_rx, r.item_tx, r.item_slot) for r in log.records] == [
            (k, j, m) for m in range(3) for k in range(2) for j in range(2)
        ]
        with pytest.raises(CausalityViolation):
            view.channel_coeff(0, 0, 3)
        with pytest.raises(CausalityViolation):
            view.channel_coeff(0, 0, 6)
        with pytest.raises(CausalityViolation):
            view.channel_coeff(0, 0, -1)

    def test_slot_zero_sees_nothing(self, rng):
        h, outputs = _channel_and_outputs(rng)
        model = FeedbackModel(kind=FeedbackKind.DELAYED_CSIT)
        view = TxInformationView(0, 0, h, outputs, model)
        with pytest.raises(CausalityViolation):
            view.channel_coeff(0, 0, 0)

    def test_no_outputs_under_csit(self, rng):
        h, outputs = _channel_and_outputs(rng)
        model = FeedbackModel(kind=FeedbackKind.DELAYED_CSIT)
        view = TxInformationView(0, 3, h, outputs, model)
        with pytest.raises(CausalityViolation):
            view.output(0, 1)


class TestDelayedOutputView:
    def test_association_and_delay(self, rng):
        h, outputs = _channel_and_outputs(rng, num_rx=3, num_tx=3, num_slots=5)
        model = FeedbackModel(
            kind=FeedbackKind.DELAYED_OUTPUT,
            output_association={0: frozenset({0}), 1: frozenset({1}), 2: frozenset({2})},
        )
        view = TxInformationView(1, 4, h, outputs, model)
        assert np.array_equal(view.output(1, 2), outputs[1, 2])
        with pytest.raises(CausalityViolation):
            view.output(0, 2)  # not this transmitter's receiver
        with pytest.raises(CausalityViolation):
            view.output(1, 4)  # too recent

    def test_full_association_by_default(self, rng):
        h, outputs = _channel_and_outputs(rng)
        model = FeedbackModel(kind=FeedbackKind.DELAYED_OUTPUT)
        view = TxInformationView(0, 2, h, outputs, model)
        assert np.array_equal(view.output(0, 1), outputs[0, 1])
        assert np.array_equal(view.output(1, 0), outputs[1, 0])

    def test_no_csi_under_output_feedback(self, rng):
        h, outputs = _channel_and_outputs(rng)
        model = FeedbackModel(kind=FeedbackKind.DELAYED_OUTPUT)
        view = TxInformationView(0, 2, h, outputs, model)
        with pytest.raises(CausalityViolation):
            view.channel_coeff(0, 0, 0)


class TestAccessLog:
    def test_records_reads(self, rng):
        h, outputs = _channel_and_outputs(rng)
        log = AccessLog()
        csi_view = TxInformationView(
            1, 3, h, outputs, FeedbackModel(kind=FeedbackKind.DELAYED_CSIT), log
        )
        output_view = TxInformationView(
            1, 3, h, outputs, FeedbackModel(kind=FeedbackKind.DELAYED_OUTPUT), log
        )
        csi_view.channel_coeff(0, 1, 2)
        output_view.output(1, 0)
        assert len(log.records) == 2
        csi, out = log.records
        assert (csi.kind, csi.tx, csi.slot, csi.item_rx, csi.item_tx, csi.item_slot) == (
            "csi", 1, 3, 0, 1, 2,
        )
        assert (out.kind, out.item_rx, out.item_slot) == ("output", 1, 0)
        assert log.csi_slots() == frozenset({2})
        # no record breaks the one-slot delay
        assert all(r.item_slot <= r.slot - 1 for r in log.records)

    @pytest.mark.parametrize("kind", [FeedbackKind.DELAYED_CSIT, FeedbackKind.DELAYED_OUTPUT])
    def test_one_record_per_read_on_a_trial_stack(self, kind):
        trials = 5
        h = generate_channel(2, 2, 4, [np.random.default_rng(t) for t in range(trials)])
        outputs = np.ones((2, 4, trials), dtype=complex)
        log = AccessLog()
        view = TxInformationView(1, 3, h, outputs, FeedbackModel(kind=kind), log)
        if kind is FeedbackKind.DELAYED_CSIT:
            values, expected = view.channel_coeff(0, 1, 2), h[0, 1, 2]
        else:
            values, expected = view.output(1, 0), outputs[1, 0]
        # the read returns every trial's value, and the log holds it once
        assert np.array_equal(values, expected) and values.shape == (trials,)
        assert len(log.records) == 1
        assert (log.records[0].tx, log.records[0].slot) == (1, 3)

    def test_denied_reads_leave_no_record(self, rng):
        h, outputs = _channel_and_outputs(rng)
        model = FeedbackModel(kind=FeedbackKind.DELAYED_CSIT)
        log = AccessLog()
        view = TxInformationView(0, 2, h, outputs, model, log)
        with pytest.raises(CausalityViolation):
            view.channel_coeff(0, 0, 2)
        assert log.records == []
