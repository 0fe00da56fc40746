import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from alignsim.channel import AccessLog, TxInformationView, generate_channel
from alignsim.base import Offline
from alignsim.evaluate import _draw_batch, simulate_block
from alignsim.numerics import sample_complex_gaussian
from alignsim.registry import get_scheme
import alignsim.retro_csit_ic3 as ic3
from alignsim.retro_csit_ic3 import (
    PHASE1_SLOTS,
    IC3RetroCsitScheme,
    interferers,
)

from _decode import decode_context
from _oracles import (
    compute_alphas,
    effective_precoders,
    future_perturbation_invariant,
    jacobi_rank,
    phase2_coefficients,
)
from _outcomes import outcome_fields, replayed, run_with_batches

SCHEME = IC3RetroCsitScheme()
NUM_SLOTS = SCHEME.num_slots


def _random_inputs(rng):
    """Phase-1 channel block ``(3, 3, 5)`` and offline table ``(9, 5)`` of one lone trial."""
    h5 = sample_complex_gaussian([rng], 3 * 3 * PHASE1_SLOTS).reshape(3, 3, PHASE1_SLOTS)
    table = sample_complex_gaussian([rng], 3 * 3 * PHASE1_SLOTS).reshape(9, PHASE1_SLOTS)
    return h5, Offline(table, np.empty(0, dtype=np.complex128))


def _sub(alphas, rx, tx):
    a, b = interferers(rx)
    return alphas[rx, 0:3] if tx == a else alphas[rx, 3:6]


class TestInterferers:
    def test_all_pairs(self):
        assert interferers(0) == (1, 2)
        assert interferers(1) == (0, 2)
        assert interferers(2) == (0, 1)


class TestComputeAlphas:
    def test_null_property(self, rng):
        for _ in range(50):
            h5, offline = _random_inputs(rng)
            alphas = compute_alphas(h5, offline)
            assert alphas.shape == (3, 6)
            for rx in range(3):
                a, b = interferers(rx)
                # independent re-derivation of the interfering directions
                mat = np.stack(
                    [
                        np.array([
                            h5[rx, j, n] * offline.table[3 * j + i, n] for n in range(PHASE1_SLOTS)
                        ])
                        for j in (a, b)
                        for i in range(3)
                    ],
                    axis=1,
                )
                assert abs(np.linalg.norm(alphas[rx]) - 1.0) <= 1e-12
                assert np.linalg.norm(mat @ alphas[rx]) <= 1e-10 * np.linalg.norm(mat)

    def test_deterministic(self, rng):
        h5, offline = _random_inputs(rng)
        a1 = compute_alphas(h5, offline)
        a2 = compute_alphas(h5.copy(), Offline(offline.table.copy(), offline.extra))
        assert np.array_equal(a1, a2)

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_null_property_is_generic(self, seed):
        gen = np.random.default_rng(seed)
        h5, offline = _random_inputs(gen)
        alphas = compute_alphas(h5, offline)
        for rx in range(3):
            mat = SCHEME.offline_interference(h5, offline, [rx])[:, :, 0]
            assert np.linalg.norm(mat @ alphas[rx]) <= 1e-9 * np.linalg.norm(mat)


class TestPhase2Coefficients:
    def test_known_annihilator(self):
        eye = np.eye(3, dtype=np.complex128)
        alphas = np.zeros((3, 6), dtype=np.complex128)
        # transmitter 0 is constrained by alphas[1, 0:3] and alphas[2, 0:3]
        alphas[1, 0:3] = eye[0]
        alphas[2, 0:3] = eye[1]
        # keep the other two transmitters' constraints non-parallel
        alphas[0, 0:3] = eye[0]
        alphas[2, 3:6] = eye[1]
        alphas[0, 3:6] = eye[1]
        alphas[1, 3:6] = eye[0]
        coeffs = phase2_coefficients(alphas)
        # the one direction orthogonal to both, at the phase LAPACK gives it
        np.testing.assert_allclose(abs(coeffs[0]), abs(eye[2]), rtol=0, atol=1e-15)

    def test_orthogonal_to_both_constraints(self, rng):
        for _ in range(50):
            alphas = sample_complex_gaussian([rng], 18).reshape(3, 6)
            coeffs = phase2_coefficients(alphas)
            for tx in range(3):
                assert abs(np.linalg.norm(coeffs[tx]) - 1.0) <= 1e-12
                for rx in interferers(tx):
                    assert abs(np.dot(coeffs[tx], _sub(alphas, rx, tx))) <= 1e-12

    def test_a_parallel_pair_is_annihilated(self, monkeypatch):
        # each transmitter's higher victim sub-triple made twice its lower one,
        # (a, 2a): a cross product of the two vanishes (NaN once normalized),
        # but the null vector of the pair is still a unit triple orthogonal to both
        solve, pairs = ic3.null_vector, []

        def parallel(systems):
            if systems.shape[:2] == (2, 3):
                systems = np.stack([systems[0], 2.0 * systems[0]])
                pairs.append(systems)
            return solve(systems)

        monkeypatch.setattr(ic3, "null_vector", parallel)
        h, offline, _ = _draw_batch(SCHEME, 3, [(t, 0) for t in range(4)])
        views = [TxInformationView(k, PHASE1_SLOTS, h, None, SCHEME.feedback) for k in range(3)]
        derived = SCHEME.derive(views, offline)
        (pair,) = pairs
        for k, rows in enumerate(derived):
            triple = rows[0]
            np.testing.assert_allclose(np.linalg.norm(triple, axis=0), 1.0, rtol=1e-14)
            residual = np.sum(pair[:, :, k] * triple, axis=1)
            assert np.all(abs(residual) <= 1e-14 * np.linalg.norm(pair[:, :, k], axis=(0, 1)))


def _trial_data(seed):
    """Channel, offline coefficients and messages of a one-trial stack."""
    rng = np.random.default_rng(seed)
    h = generate_channel(3, 3, NUM_SLOTS, [rng])
    offline = SCHEME.draw_offline([rng])
    msgs = SCHEME.draw_messages([rng])
    return h, offline, msgs


class TestEncoding:
    def test_phase1_matches_direct_summation(self):
        h, offline, msgs = _trial_data(11)
        record = simulate_block(SCHEME, h, offline, msgs)
        u = msgs.reshape(3, 3, 1)
        for k in range(3):
            for n in range(PHASE1_SLOTS):
                expected = sum(offline.table[3 * k + i, n] * u[k, i] for i in range(3))
                np.testing.assert_allclose(record.x[k, n], expected, rtol=1e-12)

    def test_phase2_repeats_one_scalar(self):
        h, offline, msgs = _trial_data(12)
        record = simulate_block(SCHEME, h, offline, msgs)
        assert np.array_equal(record.x[:, 5], record.x[:, 6])
        assert np.array_equal(record.x[:, 5], record.x[:, 7])

    def test_encoder_agrees_with_receiver_side_rederivation(self):
        # Each transmitter derives its combination triple from partial CSI;
        # the receivers re-derive the same triple from the full channel.  Both
        # paths consume identical scalars, so the results match bit for bit.
        h, offline, msgs = _trial_data(13)
        record = simulate_block(SCHEME, h, offline, msgs)
        _, coeffs, _ = effective_precoders(h, offline)
        u = msgs.reshape(3, 3, 1)
        for k in range(3):
            # the repeated scalar is the triple's products, summed left to right
            expected = coeffs[k, 0] * u[k, 0] + coeffs[k, 1] * u[k, 1] + coeffs[k, 2] * u[k, 2]
            assert np.array_equal(record.x[k, 5], expected)

    def test_unit_power_per_slot(self):
        h, offline, _ = _trial_data(14)
        coeffs = np.zeros((3, NUM_SLOTS, 9), dtype=np.complex128)
        for sym in range(9):
            msgs = np.zeros((9, 1), dtype=np.complex128)
            msgs[sym] = 1.0
            record = simulate_block(SCHEME, h, offline, msgs)
            coeffs[:, :, sym] = record.x[..., 0]
        power = np.sum(np.abs(coeffs) ** 2, axis=2)
        np.testing.assert_allclose(power, 1.0, rtol=1e-10)

    def test_csi_reads_are_cross_channels_of_phase1(self):
        h, offline, msgs = _trial_data(15)
        log = AccessLog()
        simulate_block(SCHEME, h, offline, msgs, log=log)
        assert log.csi_slots() == frozenset(range(PHASE1_SLOTS))
        csi = [r for r in log.records if r.kind == "csi"]
        # 2 annihilators x 2 interferers x 5 slots per transmitter
        assert len(csi) == 3 * 2 * 2 * PHASE1_SLOTS
        for rec in csi:
            assert rec.item_rx != rec.tx  # never its own receiver's row
        assert len(csi) == len(log.records)

    @pytest.mark.parametrize("perturb_from", range(NUM_SLOTS))
    def test_future_states_never_leak(self, perturb_from):
        assert future_perturbation_invariant(SCHEME, 77, [0], perturb_from)


def _derived_rows(h, offline, msgs):
    """Each entity's derived rows, as one block run's engine caches them."""
    scheme, rows = IC3RetroCsitScheme(), {}

    def recorded(views, offline):
        derived = SCHEME.derive(views, offline)
        rows.update(zip((view.tx for view in views), derived))
        return derived

    scheme.derive = recorded
    simulate_block(scheme, h, offline, msgs)
    return rows


class TestTransmitCache:
    def test_cached_triples_match_the_oracle(self):
        h, offline, msgs = _trial_data(18)
        derived = _derived_rows(h, offline, msgs)
        _, coeffs, _ = effective_precoders(h, offline)
        # each victim's annihilator, recomputed from its system alone
        alphas = compute_alphas(h, offline)
        for k in range(3):
            np.testing.assert_allclose(derived[k][0], coeffs[k], rtol=0, atol=1e-12)
            # the triple's defining orthogonality: c[k] . alpha_sub(rx, k) = 0
            for rx in interferers(k):
                assert np.all(abs(np.sum(derived[k][0] * _sub(alphas, rx, k), axis=0)) <= 1e-12)

    def test_stacked_victim_systems_equal_one_call_each(self):
        # the triples of both victims' systems, stacked in one null_vector call,
        # are bit for bit those of one call per system
        h, offline, msgs = _draw_batch(SCHEME, 5, [(t, 0) for t in range(8)])
        derived = _derived_rows(h, offline, msgs)
        alphas = compute_alphas(h, offline)
        coeffs = phase2_coefficients(alphas)
        for k in range(3):
            assert derived[k][0].tobytes() == coeffs[k].tobytes()

    @pytest.mark.parametrize("k", range(3))
    @pytest.mark.parametrize("n", [0, PHASE1_SLOTS - 1])
    def test_a_triple_ignores_the_states_its_transmitter_never_reads(self, k, n):
        # transmitter k never reads its own receiver's row h[k, :, :]; a
        # phase-1 state there feeds only receiver k's annihilator, which the
        # shared factoring builds for the other two transmitters alone
        h, offline, msgs = _draw_batch(SCHEME, 9, [(t, 0) for t in range(5)])
        derived = _derived_rows(h, offline, msgs)
        for j in interferers(k):
            perturbed = h.copy()
            perturbed[k, j, n] *= np.exp(0.7j)
            moved = _derived_rows(perturbed, offline, msgs)
            assert moved[k].tobytes() == derived[k].tobytes()
            for other in interferers(k):
                # every trial's triple moves
                assert np.all(np.any(moved[other] != derived[other], axis=(0, 1)))


@pytest.fixture(scope="module")
def ic3_run():
    return run_with_batches("ic3_retro_csit", 400, base_seed=4321)


@pytest.fixture(scope="module")
def ic3_report(ic3_run):
    return ic3_run[0]


class TestDecoding:
    def test_exact_recovery_over_trials(self, ic3_report):
        # the 400 trials are two batches of 200: in trial order, each as its draw gives it alone
        ends = [0, 1, 199, 200, 398, 399]
        alone = replayed(get_scheme("ic3_retro_csit"), 4321, ends)
        assert outcome_fields(ic3_report.outcomes, ends) == outcome_fields(alone)
        assert ic3_report.all_decode_ok
        assert ic3_report.max_rel_symbol_error <= 1e-9

    def test_interference_rank_five_every_trial(self, ic3_report):
        # the decoder's two guards certify that interference fits in 5 of 8 dimensions
        certs = ic3_report.outcomes.certificates
        for rx in range(3):
            assert np.all(certs[f"receive_cond_rx{rx}"] > 1e-8)
            assert np.all(certs[f"zf_residual_rx{rx}"] <= 1e-8)

    def test_csi_budget_met_every_trial(self, ic3_run):
        # a batch audits the reads of all its trials at once
        report, batches = ic3_run
        assert len(batches) == 2
        for batch in batches:
            assert batch.csi_slots == [0, 1, 2, 3, 4]
        assert report.outcomes.csi_slots == [0, 1, 2, 3, 4]

    def test_rank_five_confirmed_by_independent_oracle(self):
        h, offline, _ = _trial_data(16)
        h = h[..., 0]
        _, _, precoders = effective_precoders(h, Offline(*(a[..., 0] for a in offline)))
        for rx in range(3):
            a, b = interferers(rx)
            cols = []
            for j in (a, b):
                for i in range(3):
                    cols.append(
                        np.array(
                            [h[rx, j, n] * precoders[j, i, n] for n in range(NUM_SLOTS)]
                        )
                    )
            interference = np.stack(cols, axis=1)
            assert jacobi_rank(interference, 1e-8) == 5

    def test_wrong_coefficients_break_the_rank_guarantee(self):
        # With a generic (non-aligned) repetition triple the phase-2 slots
        # add a sixth interference dimension, which the decoder must treat
        # as a structural failure rather than a discardable draw.
        h, offline, _ = _trial_data(17)
        gen = np.random.default_rng(0)

        def wrong_triples(views, offline):
            # one random unit triple per transmitter and trial
            c = sample_complex_gaussian([gen], 3 * 3 * h.shape[3]).reshape(3, 1, 3, -1)
            return list(c / np.linalg.norm(c, axis=2, keepdims=True))

        scheme = IC3RetroCsitScheme()
        scheme.derive = wrong_triples
        [(singular, reason)] = decode_context(scheme, h, offline).verdict.values()
        assert not singular
        assert reason.startswith("InterferenceRankUnexpected: ") and "receiver 0" in reason

    def test_registry_exposes_scheme(self):
        scheme = get_scheme("ic3_retro_csit")
        assert isinstance(scheme, IC3RetroCsitScheme)
        assert scheme.num_symbols == 9 and scheme.num_slots == 8
