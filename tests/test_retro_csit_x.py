import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from alignsim.base import Offline
from alignsim.channel import (
    AccessLog,
    AccessRecord,
    TxInformationView,
    generate_channel,
)
from alignsim.evaluate import _draw_batch, simulate_block
from alignsim.numerics import (
    Tolerances,
    null_vector,
    sample_complex_gaussian,
    vector_norm,
)
from alignsim.registry import get_scheme
from alignsim.retro_csit_x import PHASE1_SLOTS, XRetroCsitScheme

from _decode import decode_context
from _oracles import future_perturbation_invariant, jacobi_rank
from _outcomes import outcome_fields, replayed, run_with_batches

SCHEME = XRetroCsitScheme()
NUM_SLOTS = SCHEME.num_slots


def _derive(h, offline):
    """Both transmitters' derived rows ``(4, 4, T)``, each through its own view."""
    views = [TxInformationView(j, PHASE1_SLOTS, h, None, SCHEME.feedback) for j in range(2)]
    return SCHEME.derive(views, offline)


def _null_vectors(h, offline):
    """Receiver 0's and receiver 1's null vectors, one ``null_vector`` call each."""
    return [
        null_vector(SCHEME.offline_interference(h, offline, [rx])[:, :, 0]) for rx in range(2)
    ]


def _weights(offline):
    """``c[j, k, p]``: the weight of layer ``s[j, k]`` in transmitter j's slot-(3+p) row."""
    return offline.extra.reshape(2, 2, NUM_SLOTS - PHASE1_SLOTS, -1)


def _cross_second_directions(h, offline, derived, rx):
    """Phase-1 receive directions at ``rx`` of the cross second symbols, as columns.

    Independent re-derivation from the derived rows alone.  Transmitter j's
    first phase-2 row weighs the two symbols of message ``(k, j)``, ``k = 1 -
    rx``, by some multiple of its layer's entries ``(a, b)``.  Once ``u[k, j,
    0] = (s[j, k] - b u[k, j, 1]) / a`` is substituted, symbol ``u[k, j, 1]``
    arrives along the slotwise product of the channel from ``j`` and
    ``table[4k + 2j + 1] - (b / a) table[4k + 2j]``.  Each column here is that
    direction times ``a``, which leaves the rank as it is.  The alignment
    makes the two columns colinear.
    """
    k = 1 - rx
    cols = []
    for j in range(2):
        a, b = derived[j][0, 2 * k], derived[j][0, 2 * k + 1]
        first, second = offline.table[4 * k + 2 * j : 4 * k + 2 * j + 2]
        cols.append(h[rx, j, :PHASE1_SLOTS] * (a * second - b * first))
    return np.stack(cols, axis=1)


class TestAlignment:
    def test_cross_second_directions_have_rank_one_at_both_receivers(self):
        h, offline, _ = _draw_batch(SCHEME, 1, [(t, 0) for t in range(50)])
        derived = _derive(h, offline)
        for rx in range(2):
            cross = _cross_second_directions(h, offline, derived, rx)
            for t in range(50):
                assert jacobi_rank(cross[..., t], 1e-10) == 1

    def test_deterministic(self):
        h, offline, _ = _draw_batch(SCHEME, 2, [(t, 0) for t in range(4)])
        first = _derive(h, offline)
        again = _derive(h.copy(), Offline(offline.table.copy(), offline.extra.copy()))
        assert all(np.array_equal(a, b) for a, b in zip(first, again))

    def test_layers_invariant_under_channel_scale(self):
        # a layer is its two entries up to a common factor: the paper's gamma,
        # their ratio, does not move when every channel state is scaled
        h, offline, _ = _draw_batch(SCHEME, 3, [(t, 0) for t in range(4)])
        rows = _derive(h, offline)
        scaled = _derive(1.7 * np.exp(0.3j) * h, offline)
        for j in range(2):
            for k in range(2):
                a, b = rows[j][:, 2 * k], rows[j][:, 2 * k + 1]
                a2, b2 = scaled[j][:, 2 * k], scaled[j][:, 2 * k + 1]
                np.testing.assert_allclose(a * b2 - a2 * b, 0.0, rtol=0, atol=1e-12)

    def test_a_zero_null_vector_entry_is_no_special_case(self):
        # Receiver-0 system columns e1, e2, -e1, e3: its null vector (1, 0,
        # 1, 0) has zero second and fourth entries, so the paper's ratios
        # gamma = v0/v1 are undefined.  The layers take the entries
        # themselves: each is then a lone symbol, and the rows stay finite.
        # The draw is still degenerate, since receiver 1's own first symbols
        # arrive along e1 and -e1 in phase 1, and the decoder finds receiver 1
        # singular, no longer receiver 0.
        h, offline, _ = _draw_batch(SCHEME, 3, [(0, 0)])
        h[0, :, :PHASE1_SLOTS] = 1.0
        table = offline.table.copy()
        eye = np.eye(3, dtype=np.complex128)[:, :, None]
        # u[1, j, i], symbols 4 + 2j + i
        table[4:] = np.stack([eye[0], eye[1], -eye[0], eye[2]])
        offline = Offline(table, offline.extra)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            derived = _derive(h, offline)
            [(singular, reason)] = decode_context(SCHEME, h, offline).verdict.values()
            assert singular and reason.startswith("Singular: receiver 1: ")
        for rows in derived:
            assert np.all(np.isfinite(rows))
            # message (1, j) weighs only u[1, j, 1]
            assert np.all(rows[:, 2] == 0.0) and np.all(rows[:, 3] != 0.0)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_alignment_is_generic(self, seed):
        h, offline, _ = _draw_batch(SCHEME, seed, [(0, 0)])
        cross = _cross_second_directions(h, offline, _derive(h, offline), 0)
        s = np.linalg.svd(cross[..., 0], compute_uv=False)
        assert s[1] <= 1e-9 * s[0]


def _layer_rows(c, v, w, j):
    """Transmitter j's row ``c[0] s[j, 0] + c[1] s[j, 1]`` over its symbols, unnormalized.

    The layer of message ``(k, j)`` is ``n[2j+1] u[k, j, 0] - n[2j] u[k, j,
    1]``, for ``n`` the null vector of receiver ``1 - k``: ``w`` for ``k = 0``
    and ``v`` for ``k = 1``.
    """
    return [c[0] * w[2 * j + 1], -c[0] * w[2 * j], c[1] * v[2 * j + 1], -c[1] * v[2 * j]]


class TestStackedSystems:
    def test_rows_equal_one_null_vector_call_per_receiver(self):
        h, offline, _ = _draw_batch(SCHEME, 5, [(t, 0) for t in range(8)])
        derived = _derive(h, offline)
        v, w = _null_vectors(h, offline)
        for j in range(2):
            rows = np.stack(_layer_rows(_weights(offline)[j], v, w, j))
            expected = np.moveaxis(rows / vector_norm(rows), 1, 0)
            assert derived[j].tobytes() == expected.tobytes()

    def test_cross_second_directions_have_rank_one(self):
        # the stacked null vectors align both receivers' cross second symbols in every trial
        h, offline, _ = _draw_batch(SCHEME, 6, [(t, 0) for t in range(8)])
        derived = _derive(h, offline)
        for rx in range(2):
            cross = _cross_second_directions(h, offline, derived, rx)
            sv = np.linalg.svd(np.moveaxis(cross, -1, 0), compute_uv=False)
            assert np.all(sv[:, 0] > 0.0)
            assert np.all(sv[:, 1] <= Tolerances().rank_rel * sv[:, 0])


def _layer2_vars(u, v, w):
    """Second-layer variables ``s[j, k]``, written out from the null vectors."""
    s = np.empty((2, 2, *u.shape[3:]), dtype=np.complex128)
    for j in range(2):
        for k, n in enumerate((w, v)):
            s[j, k] = n[2 * j + 1] * u[k, j, 0] - n[2 * j] * u[k, j, 1]
    return s


def _layer_norm(c, v, w, j):
    """Norm of transmitter j's row ``c[0] s[j, 0] + c[1] s[j, 1]`` over its symbols."""
    return np.sqrt(sum(abs(r) ** 2 for r in _layer_rows(c, v, w, j)))


class TestLayer2Vars:
    def test_definition(self, rng):
        # a derived row sends c[0] s[j, 0] + c[1] s[j, 1], normalized, over j's symbols
        h, offline, _ = _trial_data(10)
        u = sample_complex_gaussian([rng], 8).reshape(2, 2, 2, 1)
        v, w = _null_vectors(h, offline)
        s = _layer2_vars(u, v, w)
        for j, derived in enumerate(_derive(h, offline)):
            own = np.stack([u[0, j, 0], u[0, j, 1], u[1, j, 0], u[1, j, 1]])
            for p in range(NUM_SLOTS - PHASE1_SLOTS):
                c = _weights(offline)[j, :, p]
                sent = np.sum(derived[p] * own, axis=0)
                expected = (c[0] * s[j, 0] + c[1] * s[j, 1]) / _layer_norm(c, v, w, j)
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
            assert np.array_equal(record.x[0, n], offline.table[0, n])
        # tx 1 carries no part of this symbol in either phase
        assert np.all(record.x[1, :] == 0.0)

    def test_phase1_matches_direct_summation(self, rng):
        h, offline, msgs = _trial_data(4)
        record = simulate_block(SCHEME, h, offline, msgs)
        u = msgs.reshape(2, 2, 2, 1)
        for j in range(2):
            for n in range(PHASE1_SLOTS):
                expected = sum(
                    offline.table[4 * k + 2 * j + i, n] * u[k, j, i]
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
        v, w = _null_vectors(h, offline)
        u = msgs.reshape(2, 2, 2, 1)
        s = _layer2_vars(u, v, w)
        for j in range(2):
            for p in range(4):
                c = _weights(offline)[j, :, p]
                expected = (c[0] * s[j, 0] + c[1] * s[j, 1]) / _layer_norm(c, v, w, j)
                np.testing.assert_allclose(record.x[j, PHASE1_SLOTS + p], expected, rtol=1e-13)
                row = _layer_rows(c, v, w, j)
                squares = [r.real**2 + r.imag**2 for r in row]
                norm = np.sqrt(((squares[0] + squares[1]) + squares[2]) + squares[3])
                terms = [r / norm * x for r, x in zip(row, u[:, j].reshape(4, 1))]
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
        # the 400 trials are two batches of 200: in trial order, each as its draw gives it alone
        ends = [0, 1, 199, 200, 398, 399]
        alone = replayed(SCHEME, 1234, ends)
        assert outcome_fields(x_report.outcomes, ends) == outcome_fields(alone)
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
