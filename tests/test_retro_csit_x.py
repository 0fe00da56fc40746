import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from alignsim.channel import (
    AccessLog,
    AccessRecord,
    TxInformationView,
    generate_channel,
)
from alignsim.evaluate import _draw_batch, simulate_block
from alignsim.numerics import Singular, Tolerances, null_vector, sample_complex_gaussian
from alignsim.registry import get_scheme
from alignsim.retro_csit_x import (
    PHASE1_SLOTS,
    XOffline,
    XRetroCsitScheme,
    alignment_constants,
    interference_system,
)

from _decode import decode_context
from _oracles import future_perturbation_invariant, jacobi_rank
from _outcomes import run_with_batches

SCHEME = XRetroCsitScheme()
NUM_SLOTS = SCHEME.num_slots


def _random_inputs(rng):
    """Phase-1 channel block and coefficients of one trial, as lone systems."""
    h3 = sample_complex_gaussian([rng], 2 * 2 * 3).reshape(2, 2, 3)
    phase1 = sample_complex_gaussian([rng], 2 * 2 * 2 * 3).reshape(2, 2, 2, 3)
    return h3, phase1


def _cross_second_directions(h3, phase1, gamma, rx):
    """Phase-1 receive directions at ``rx`` of the cross second symbols, as columns.

    Independent re-derivation: once ``u[other, j, 0] = s[j, other] +
    gamma[j, other] u[other, j, 1]`` is substituted, symbol ``u[other, j, 1]``
    arrives along the slotwise product of the channel from ``j`` and its
    effective phase-1 weight.  The alignment makes the two columns colinear.
    """
    other = 1 - rx
    return np.stack(
        [
            h3[rx, j] * (phase1[other, j, 0] * gamma[j, other] + phase1[other, j, 1])
            for j in range(2)
        ],
        axis=1,
    )


class TestAlignmentConstants:
    def test_null_property_both_receivers(self, rng):
        for _ in range(50):
            h3, phase1 = _random_inputs(rng)
            gamma = alignment_constants(h3, phase1)
            for rx in range(2):
                assert jacobi_rank(_cross_second_directions(h3, phase1, gamma, rx), 1e-10) == 1

    def test_deterministic(self, rng):
        h3, phase1 = _random_inputs(rng)
        c1 = alignment_constants(h3, phase1)
        c2 = alignment_constants(h3.copy(), phase1.copy())
        assert np.array_equal(c1, c2)

    def test_invariant_under_channel_scale(self, rng):
        h3, phase1 = _random_inputs(rng)
        c1 = alignment_constants(h3, phase1)
        c2 = alignment_constants(1.7 * np.exp(0.3j) * h3, phase1)
        np.testing.assert_allclose(c1, c2, rtol=1e-9)

    def test_degenerate_pinned_entry_raises(self):
        # Receiver-0 system columns e1, e2, -e1, e3: its null vector
        # (1, 0, 1, 0) has zero second and fourth entries, so the ratios
        # gamma = v0/v1 etc. are undefined.  No encoder code judges that:
        # the block runs without a warning, and the decoder finds the
        # receive matrix singular (not finite), so the draw is discarded.
        h, offline, _ = _draw_batch(SCHEME, 3, [(0, 0)])
        h[0, :, :PHASE1_SLOTS] = 1.0
        phase1 = offline.phase1.copy()
        eye = np.eye(3, dtype=np.complex128)[:, :, None]
        phase1[1] = np.stack([[eye[0], eye[1]], [-eye[0], eye[2]]])
        offline = XOffline(phase1=phase1, phase2=offline.phase2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(Singular):
                decode_context(SCHEME, h, offline)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_null_property_is_generic(self, seed):
        gen = np.random.default_rng(seed)
        h3, phase1 = _random_inputs(gen)
        gamma = alignment_constants(h3, phase1)
        s = np.linalg.svd(_cross_second_directions(h3, phase1, gamma, 0), compute_uv=False)
        assert s[1] <= 1e-9 * s[0]


class TestStackedSystems:
    def test_constants_equal_one_null_vector_call_per_receiver(self):
        h, offline, _ = _draw_batch(SCHEME, 5, [(t, 0) for t in range(8)])
        h3 = h[:, :, :PHASE1_SLOTS]
        gamma = alignment_constants(h3, offline.phase1)
        v = null_vector(interference_system(h3, offline.phase1, 0))
        w = null_vector(interference_system(h3, offline.phase1, 1))
        assert gamma[0, 1].tobytes() == (v[0] / v[1]).tobytes()
        assert gamma[1, 1].tobytes() == (v[2] / v[3]).tobytes()
        assert gamma[0, 0].tobytes() == (w[0] / w[1]).tobytes()
        assert gamma[1, 0].tobytes() == (w[2] / w[3]).tobytes()

    def test_cross_second_directions_have_rank_one(self):
        # the stacked constants align both receivers' cross second symbols in every trial
        h, offline, _ = _draw_batch(SCHEME, 6, [(t, 0) for t in range(8)])
        h3, phase1 = h[:, :, :PHASE1_SLOTS], offline.phase1
        gamma = alignment_constants(h3, phase1)
        for rx in range(2):
            cross = _cross_second_directions(h3, phase1, gamma, rx)
            sv = np.linalg.svd(np.moveaxis(cross, -1, 0), compute_uv=False)
            assert np.all(sv[:, 0] > 0.0)
            assert np.all(sv[:, 1] <= Tolerances().rank_rel * sv[:, 0])


def _layer2_vars(u, gamma):
    """Second-layer variables ``s[j, k] = u[k, j, 0] - gamma[j, k] u[k, j, 1]``, written out."""
    s = np.empty((2, 2, *u.shape[3:]), dtype=np.complex128)
    for j in range(2):
        for k in range(2):
            s[j, k] = u[k, j, 0] - gamma[j, k] * u[k, j, 1]
    return s


class TestLayer2Vars:
    def test_definition(self, rng):
        # a derived row sends c[0] s[j, 0] + c[1] s[j, 1], normalized, over j's symbols
        h, offline, _ = _trial_data(10)
        u = sample_complex_gaussian([rng], 8).reshape(2, 2, 2, 1)
        views = [TxInformationView(j, PHASE1_SLOTS, h, None, SCHEME.feedback) for j in range(2)]
        for j, derived in enumerate(SCHEME.derive(views, offline)):
            gamma = alignment_constants(h[:, :, :PHASE1_SLOTS], offline.phase1)
            s = _layer2_vars(u, gamma)
            own = np.stack([u[0, j, 0], u[0, j, 1], u[1, j, 0], u[1, j, 1]])
            for p in range(NUM_SLOTS - PHASE1_SLOTS):
                c = offline.phase2[j, :, p]
                norm = np.sqrt(
                    abs(c[0]) ** 2 * (1.0 + abs(gamma[j, 0]) ** 2)
                    + abs(c[1]) ** 2 * (1.0 + abs(gamma[j, 1]) ** 2)
                )
                sent = np.sum(derived[p] * own, axis=0)
                expected = (c[0] * s[j, 0] + c[1] * s[j, 1]) / norm
                np.testing.assert_allclose(sent, expected, rtol=1e-13)


def _trial_data(seed):
    """Channel, offline coefficients and messages of a one-trial stack."""
    rng = np.random.default_rng(seed)
    h = generate_channel(2, 2, NUM_SLOTS, [rng])
    offline = SCHEME.draw_offline([rng])
    msgs = SCHEME.draw_messages([rng])
    return h, offline, msgs


class TestEncoding:
    def test_zero_messages_given_zero_block(self):
        h, offline, _ = _trial_data(2)
        msgs = np.zeros((8, 1), dtype=np.complex128)
        record = simulate_block(SCHEME, h, offline, msgs)
        assert np.all(record.x == 0.0)
        assert np.all(record.y == 0.0)

    def test_single_symbol_readout(self):
        h, offline, _ = _trial_data(3)
        msgs = np.zeros((8, 1), dtype=np.complex128)
        msgs[0] = 1.0  # u[0, 0, 0]: first symbol from tx 0 to rx 0
        record = simulate_block(SCHEME, h, offline, msgs)
        for n in range(PHASE1_SLOTS):
            assert np.array_equal(record.x[0, n], offline.phase1[0, 0, 0, n])
        # tx 1 carries no part of this symbol in either phase
        assert np.all(record.x[1, :] == 0.0)

    def test_phase1_matches_direct_summation(self, rng):
        h, offline, msgs = _trial_data(4)
        record = simulate_block(SCHEME, h, offline, msgs)
        u = msgs.reshape(2, 2, 2, 1)
        for j in range(2):
            for n in range(PHASE1_SLOTS):
                expected = sum(
                    offline.phase1[k, j, i, n] * u[k, j, i]
                    for k in range(2)
                    for i in range(2)
                )
                np.testing.assert_allclose(record.x[j, n], expected, rtol=1e-12)

    def test_phase2_matches_rederivation(self):
        # Re-derive the phase-2 scalars from the slot-0..2 states alone,
        # through none of the view machinery: exactly as the row over the
        # symbols that the layer variables expand to, and to roundoff as the
        # combination of the layer variables themselves.
        h, offline, msgs = _trial_data(5)
        record = simulate_block(SCHEME, h, offline, msgs)
        gamma = alignment_constants(h[:, :, :PHASE1_SLOTS], offline.phase1)
        u = msgs.reshape(2, 2, 2, 1)
        s = _layer2_vars(u, gamma)
        for j in range(2):
            g = gamma[j]
            for p in range(4):
                c = offline.phase2[j, :, p]
                norm = np.sqrt(
                    abs(c[0]) ** 2 * (1.0 + abs(g[0]) ** 2)
                    + abs(c[1]) ** 2 * (1.0 + abs(g[1]) ** 2)
                )
                expected = (c[0] * s[j, 0] + c[1] * s[j, 1]) / norm
                np.testing.assert_allclose(record.x[j, PHASE1_SLOTS + p], expected, rtol=1e-13)
                row = [c[0], -c[0] * g[0], c[1], -c[1] * g[1]]
                squares = [r.real**2 + r.imag**2 for r in row]
                norm = np.sqrt(((squares[0] + squares[1]) + squares[2]) + squares[3])
                terms = [r / norm * v for r, v in zip(row, u[:, j].reshape(4, 1))]
                exact = ((terms[0] + terms[1]) + terms[2]) + terms[3]
                assert np.array_equal(record.x[j, PHASE1_SLOTS + p], exact)

    def test_csi_reads_are_exactly_phase1_slots(self):
        h, offline, msgs = _trial_data(6)
        log = AccessLog()
        simulate_block(SCHEME, h, offline, msgs, log=log)
        assert log.csi_slots() == frozenset(range(PHASE1_SLOTS))
        assert all(r.kind == "csi" for r in log.records)

    def test_csi_read_sequence(self):
        # each transmitter derives once, at the first phase-2 slot: slot by
        # slot, each slot's matrix row by row, one record per coefficient
        h, offline, msgs = _trial_data(6)
        log = AccessLog()
        simulate_block(SCHEME, h, offline, msgs, log=log)
        assert log.records == [
            AccessRecord(tx, PHASE1_SLOTS, "csi", k, j, m)
            for tx in range(2)
            for m in range(PHASE1_SLOTS)
            for k in range(2)
            for j in range(2)
        ]

    def test_unit_power_per_slot(self):
        # The scalar each antenna sends is a linear form in the 8 unit-power
        # symbols; summing squared coefficients (extracted by unit impulses)
        # gives the average transmit power, which the design pins to 1.
        h, offline, _ = _trial_data(7)
        coeffs = np.zeros((2, NUM_SLOTS, 8), dtype=np.complex128)
        for sym in range(8):
            msgs = np.zeros((8, 1), dtype=np.complex128)
            msgs[sym] = 1.0
            record = simulate_block(SCHEME, h, offline, msgs)
            coeffs[:, :, sym] = record.x[..., 0]
        power = np.sum(np.abs(coeffs) ** 2, axis=2)
        np.testing.assert_allclose(power, 1.0, rtol=1e-10)

    @pytest.mark.parametrize("perturb_from", range(NUM_SLOTS))
    def test_future_states_never_leak(self, perturb_from):
        assert future_perturbation_invariant(SCHEME, 99, [0], perturb_from)


@pytest.fixture(scope="module")
def x_run():
    return run_with_batches("x_retro_csit", 400, base_seed=1234)


@pytest.fixture(scope="module")
def x_report(x_run):
    return x_run[0]


class TestDecoding:
    def test_exact_recovery_over_trials(self, x_report):
        assert x_report.outcomes.trial.tolist() == list(range(400))
        assert x_report.all_decode_ok
        assert x_report.max_rel_symbol_error <= 1e-9

    def test_certificates_over_trials(self, x_report):
        certs = x_report.outcomes.certificates
        for rx in range(2):
            assert np.all(certs[f"receive_cond_rx{rx}"] > 1e-8)
            assert np.all(certs[f"zf_residual_rx{rx}"] <= 1e-8)

    def test_csi_budget_met_every_trial(self, x_run):
        # a batch audits the reads of all its trials at once
        report, batches = x_run
        assert len(batches) == 2
        for batch in batches:
            assert batch.csi_slots == [0, 1, 2]
        assert report.outcomes.csi_slots == [0, 1, 2]

    def test_decode_is_linear_in_observations(self):
        h, offline, msgs = _trial_data(8)
        record = simulate_block(SCHEME, h, offline, msgs)
        ctx = decode_context(SCHEME, h, offline)
        y = record.y
        base = SCHEME.decode(y, ctx)
        scaled = SCHEME.decode((2.0 - 1.0j) * y, ctx)
        np.testing.assert_allclose(scaled, (2.0 - 1.0j) * base, rtol=1e-10)
        z = sample_complex_gaussian([np.random.default_rng(0)], 2 * NUM_SLOTS).reshape(
            2, NUM_SLOTS, 1
        )
        lhs = SCHEME.decode(y + z, ctx)
        rhs = base + SCHEME.decode(z, ctx)
        np.testing.assert_allclose(lhs, rhs, rtol=0, atol=1e-10)

    def test_registry_exposes_scheme(self):
        scheme = get_scheme("x_retro_csit")
        assert isinstance(scheme, XRetroCsitScheme)
        assert scheme.num_symbols == 8 and scheme.num_slots == 7


class TestTransmitterBlindness:
    def test_phase2_constants_need_only_three_states(self):
        # A transmitter that has seen slots 0..2 can compute its phase-2
        # scalars; views for the later slots expose more history, yet the
        # sent values must not change (nothing beyond slot 2 is consumed).
        h, offline, msgs = _trial_data(9)
        record = simulate_block(SCHEME, h, offline, msgs)
        perturbed = h.copy()
        perturbed[:, :, PHASE1_SLOTS:] *= np.exp(1.1j)
        record2 = simulate_block(SCHEME, perturbed, offline, msgs)
        np.testing.assert_array_equal(record.x, record2.x)
