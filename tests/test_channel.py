import numpy as np
import pytest

from alignsim.channel import (
    MAG_BOUNDS_DEFAULT,
    AccessLog,
    CausalityViolation,
    ChannelTensor,
    FeedbackKind,
    FeedbackModel,
    TxInformationView,
    apply_channel,
    generate_channel,
)


class TestGenerateChannel:
    def test_shape_and_bounds(self, rng):
        tensor = generate_channel(3, 3, 8, [rng])
        assert tensor.h.shape == (3, 3, 8, 1)
        mags = np.abs(tensor.h)
        assert mags.min() >= MAG_BOUNDS_DEFAULT[0]
        assert mags.max() <= MAG_BOUNDS_DEFAULT[1]

    def test_deterministic(self):
        t1 = generate_channel(2, 2, 7, [np.random.default_rng(11)])
        t2 = generate_channel(2, 2, 7, [np.random.default_rng(11)])
        assert np.array_equal(t1.h, t2.h)

    def test_rejection_rate_matches_rayleigh_tail(self):
        # |h|^2 is Exp(1), so the out-of-band probability for the default
        # band is (1 - exp(-1e-6)) + exp(-1e6) ~ 1e-6: far below 1e-4.
        lo, hi = MAG_BOUNDS_DEFAULT
        p_reject = (1.0 - np.exp(-(lo**2))) + np.exp(-min(hi**2, 700.0))
        assert p_reject < 1e-4
        tensor = generate_channel(10, 10, 1000, [np.random.default_rng(0)])
        # 1e5 draws at ~1e-6 rejection probability: a handful at most.
        assert tensor.num_rejections <= 10

    def test_tight_band_resamples(self):
        tensor = generate_channel(2, 2, 4, [np.random.default_rng(3)], mag_bounds=(0.5, 2.0))
        mags = np.abs(tensor.h)
        assert tensor.num_rejections > 0
        assert mags.min() >= 0.5 and mags.max() <= 2.0

    def test_unreachable_band_aborts_with_diagnostic(self):
        with pytest.raises(RuntimeError, match="rejection"):
            generate_channel(
                2, 2, 3, [np.random.default_rng(1)], mag_bounds=(1.0, 1.0000001),
                max_rejections=50,
            )

    def test_bad_bounds_rejected(self, rng):
        with pytest.raises(ValueError):
            generate_channel(2, 2, 3, [rng], mag_bounds=(0.0, 1.0))
        with pytest.raises(ValueError):
            generate_channel(2, 2, 3, [rng], mag_bounds=(2.0, 1.0))


class TestChannelTensor:
    def test_validates_magnitudes(self, rng):
        h = np.full((2, 2, 3, 1), 1e-5, dtype=complex)
        with pytest.raises(ValueError, match="magnitude"):
            ChannelTensor(h=h)

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_validates_finite(self, bad):
        h = np.ones((2, 2, 3, 1), dtype=complex)
        h[0, 0, 0] = bad
        with pytest.raises(ValueError, match="finite"):
            ChannelTensor(h=h)
        # an unbounded band still refuses a non-finite coefficient
        with pytest.raises(ValueError, match="finite"):
            ChannelTensor(h=h, mag_bounds=(1e-3, np.inf))

    def test_refuses_a_lone_trial_tensor(self):
        # one block shape: a lone trial is a stack of one, h[rx, tx, slot, t]
        assert ChannelTensor(h=np.ones((2, 2, 3, 1), dtype=complex)).num_trials == 1
        with pytest.raises(ValueError, match=r"h\[rx, tx, slot, t\]"):
            ChannelTensor(h=np.ones((2, 2, 3), dtype=complex))


class TestApplyChannel:
    def test_clean_reconstruction_exact(self, rng):
        tensor = generate_channel(2, 2, 5, [rng])
        x = np.array([[1.0 + 2.0j], [-0.5j]])
        y = apply_channel(x, tensor, 3)
        # the sum over transmitters runs left to right on elementwise products
        assert np.array_equal(y, tensor.h[:, 0, 3] * x[0] + tensor.h[:, 1, 3] * x[1])
        np.testing.assert_allclose(y[:, 0], tensor.h[:, :, 3, 0] @ x[:, 0], rtol=1e-15)

    def test_noise_injection(self, rng):
        tensor = generate_channel(2, 2, 3, [rng])
        x = np.ones((2, 1), dtype=complex)
        noise = np.array([[1.0], [-1.0j]])
        y = apply_channel(x, tensor, 0, noise=noise)
        np.testing.assert_allclose(y - apply_channel(x, tensor, 0), noise, rtol=0, atol=1e-15)


def _tensor_and_outputs(rng, num_rx=2, num_tx=2, num_slots=7):
    """A one-trial channel stack and the ``(num_rx, num_slots, 1)`` outputs of its block."""
    tensor = generate_channel(num_rx, num_tx, num_slots, [rng])
    outputs = (
        rng.standard_normal((num_rx, num_slots, 1))
        + 1j * rng.standard_normal((num_rx, num_slots, 1))
    )
    return tensor, outputs


class TestDelayedCsitView:
    def test_exposes_strictly_past_slots(self, rng):
        tensor, outputs = _tensor_and_outputs(rng)
        model = FeedbackModel(kind=FeedbackKind.DELAYED_CSIT)
        log = AccessLog()
        view = TxInformationView(0, 3, tensor, outputs, model, log)
        for m in range(3):
            for k in range(2):
                for j in range(2):
                    assert np.array_equal(view.channel_coeff(k, j, m), tensor.h[k, j, m])
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
        tensor, outputs = _tensor_and_outputs(rng)
        model = FeedbackModel(kind=FeedbackKind.DELAYED_CSIT)
        view = TxInformationView(0, 0, tensor, outputs, model)
        with pytest.raises(CausalityViolation):
            view.channel_coeff(0, 0, 0)

    def test_no_outputs_under_csit(self, rng):
        tensor, outputs = _tensor_and_outputs(rng)
        model = FeedbackModel(kind=FeedbackKind.DELAYED_CSIT)
        view = TxInformationView(0, 3, tensor, outputs, model)
        with pytest.raises(CausalityViolation):
            view.output(0, 1)


class TestDelayedOutputView:
    def test_association_and_delay(self, rng):
        tensor, outputs = _tensor_and_outputs(rng, num_rx=3, num_tx=3, num_slots=5)
        model = FeedbackModel(
            kind=FeedbackKind.DELAYED_OUTPUT,
            output_association={0: frozenset({0}), 1: frozenset({1}), 2: frozenset({2})},
        )
        view = TxInformationView(1, 4, tensor, outputs, model)
        assert np.array_equal(view.output(1, 2), outputs[1, 2])
        with pytest.raises(CausalityViolation):
            view.output(0, 2)  # not this transmitter's receiver
        with pytest.raises(CausalityViolation):
            view.output(1, 4)  # too recent

    def test_full_association_by_default(self, rng):
        tensor, outputs = _tensor_and_outputs(rng)
        model = FeedbackModel(kind=FeedbackKind.DELAYED_OUTPUT)
        view = TxInformationView(0, 2, tensor, outputs, model)
        assert np.array_equal(view.output(0, 1), outputs[0, 1])
        assert np.array_equal(view.output(1, 0), outputs[1, 0])

    def test_no_csi_under_output_feedback(self, rng):
        tensor, outputs = _tensor_and_outputs(rng)
        model = FeedbackModel(kind=FeedbackKind.DELAYED_OUTPUT)
        view = TxInformationView(0, 2, tensor, outputs, model)
        with pytest.raises(CausalityViolation):
            view.channel_coeff(0, 0, 0)


class TestAccessLog:
    def test_records_reads(self, rng):
        tensor, outputs = _tensor_and_outputs(rng)
        log = AccessLog()
        csi_view = TxInformationView(
            1, 3, tensor, outputs, FeedbackModel(kind=FeedbackKind.DELAYED_CSIT), log
        )
        output_view = TxInformationView(
            1, 3, tensor, outputs, FeedbackModel(kind=FeedbackKind.DELAYED_OUTPUT), log
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
        tensor = generate_channel(2, 2, 4, [np.random.default_rng(t) for t in range(trials)])
        outputs = np.ones((2, 4, trials), dtype=complex)
        log = AccessLog()
        view = TxInformationView(1, 3, tensor, outputs, FeedbackModel(kind=kind), log)
        if kind is FeedbackKind.DELAYED_CSIT:
            values, expected = view.channel_coeff(0, 1, 2), tensor.h[0, 1, 2]
        else:
            values, expected = view.output(1, 0), outputs[1, 0]
        # the read returns every trial's value, and the log holds it once
        assert np.array_equal(values, expected) and values.shape == (trials,)
        assert len(log.records) == 1
        assert (log.records[0].tx, log.records[0].slot) == (1, 3)

    def test_denied_reads_leave_no_record(self, rng):
        tensor, outputs = _tensor_and_outputs(rng)
        model = FeedbackModel(kind=FeedbackKind.DELAYED_CSIT)
        log = AccessLog()
        view = TxInformationView(0, 2, tensor, outputs, model, log)
        with pytest.raises(CausalityViolation):
            view.channel_coeff(0, 0, 2)
        assert log.records == []
