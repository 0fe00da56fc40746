import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from alignsim.base import Scheme
from alignsim.numerics import (
    Tolerances,
    null_vector,
    sample_complex_gaussian,
    zero_forcing_rows,
)

from _oracles import (
    jacobi_null_vector,
    random_complex_matrix,
    random_rank_matrix,
    zero_forcing_oracle,
)


class TestTolerances:
    def test_defaults(self):
        tol = Tolerances()
        assert tol.rank_rel == 1e-8
        assert tol.residual_rel == 1e-8

    @pytest.mark.parametrize("bad", [0.0, 1.0, -1e-8, 2.0])
    def test_rejects_out_of_range(self, bad):
        with pytest.raises(ValueError):
            Tolerances(rank_rel=bad)
        with pytest.raises(ValueError):
            Tolerances(residual_rel=bad)
        # a positional cutoff and a copy made by _replace are checked as well
        with pytest.raises(ValueError):
            Tolerances(0.5, bad)
        for name in Tolerances._fields:
            with pytest.raises(ValueError):
                Tolerances()._replace(**{name: bad})


class TestNullVector:
    def test_known_example(self):
        a = np.array(
            [
                [1.0, 0.0, 0.0, 1.0],
                [0.0, 1.0, 0.0, 1.0],
                [0.0, 0.0, 1.0, 1.0],
            ],
            dtype=complex,
        )
        v = null_vector(a)
        expected = np.array([1.0, 1.0, 1.0, -1.0]) / 2.0
        # the vector comes at no fixed phase: rotate it onto expected's first
        # entry, then it must be expected, so it has expected's direction
        phase = v[0] / abs(v[0])
        assert abs(abs(np.vdot(expected, v)) - 1.0) <= 1e-12
        np.testing.assert_allclose(v / phase, expected, atol=1e-12)

    def test_residual_and_norm(self, rng):
        for _ in range(50):
            m = int(rng.integers(2, 8))
            a = random_complex_matrix(rng, m, m + 1)
            v = null_vector(a)
            assert abs(np.linalg.norm(v) - 1.0) <= 1e-12
            assert np.linalg.norm(a @ v) <= 1e-8 * np.linalg.norm(a)

    def test_matches_jacobi_oracle(self, rng):
        for _ in range(100):
            m = int(rng.integers(2, 8))
            a = random_complex_matrix(rng, m, m + 1)
            v = null_vector(a)
            w = jacobi_null_vector(a)
            assert np.linalg.norm(a @ v) <= 1e-10 * np.linalg.norm(a)
            # same one-dimensional subspace as the brute-force oracle
            assert 1.0 - abs(np.vdot(w, v)) <= 1e-10

    def test_repeated_calls_identical(self, rng):
        a = random_complex_matrix(rng, 3, 4)
        v1 = null_vector(a)
        v2 = null_vector(a.copy())
        assert np.array_equal(v1, v2)

    def test_rejects_bad_shapes(self, rng):
        with pytest.raises(ValueError):
            null_vector(random_complex_matrix(rng, 3, 3))
        with pytest.raises(ValueError):
            null_vector(random_complex_matrix(rng, 4, 3))
        with pytest.raises(ValueError):
            null_vector(random_complex_matrix(rng, 2, 4))

    def test_rejects_nonfinite(self):
        a = np.ones((2, 3), dtype=complex)
        a[0, 0] = np.nan
        with pytest.raises(ValueError):
            null_vector(a)


def _unitary(rng, n):
    q, r = np.linalg.qr(random_complex_matrix(rng, n, n))
    return q * (np.diagonal(r) / abs(np.diagonal(r)))


def _wide_with_spectrum(rng, s):
    """``m x (m + 1)`` matrix with singular values ``s`` and random singular vectors."""
    m = len(s)
    return _unitary(rng, m) @ np.hstack([np.diag(s), np.zeros((m, 1))]) @ _unitary(rng, m + 1).conj().T


def _near_cutoff(rng, tol, rows=5):
    """A system just above the rank cutoff: singular values ``(1, ..., 1, 2.5 rank_rel)``."""
    return _wide_with_spectrum(rng, [1.0] * (rows - 1) + [2.5 * tol.rank_rel])


def _receive_matrix(rng, rows, wanted, extra):
    """``rows x (rows + extra)`` matrix: ``wanted`` generic columns, then
    ``rows - wanted + extra`` interference columns of rank ``rows - wanted``."""
    interference = random_rank_matrix(rng, rows, rows - wanted + extra, rows - wanted)
    return np.hstack([random_complex_matrix(rng, rows, wanted), interference])


def _decode_context(response):
    """``decode_context`` of bare receivers whose receive matrices are ``response``.

    ``response`` is ``(R, n, k, *T)``, and receiver ``r`` wants the ``w = k //
    R`` unknowns ``w r`` to ``w (r + 1) - 1``, so receiver 0 is the system
    ``zero_forcing_rows(response[0], range(w))``, judged first.
    """
    scheme = Scheme()
    scheme.num_rx, scheme.num_slots, scheme.num_symbols = response.shape[:3]
    return scheme.decode_context(Tolerances(), response)


def _verdict(response):
    """The verdict of :func:`_decode_context`: ``(singular, reason)`` by failing draw."""
    return _decode_context(response).verdict


def _not_above_cutoff(cond):
    """Where ``cond`` fails the decoder's ``receive_cond > rank_rel`` (NaN fails)."""
    return ~(np.asarray(cond) > Tolerances().rank_rel)


class TestZeroForcingRows:
    def test_round_trip_batch(self, rng):
        worst = 0.0
        for _ in range(1000):
            rows = int(rng.integers(2, 9))
            wanted = int(rng.integers(1, rows + 1))
            g = _receive_matrix(rng, rows, wanted, int(rng.integers(1, 4)))
            d, cond, residual = zero_forcing_rows(g, list(range(wanted)))
            if _not_above_cutoff(cond):
                continue
            eye = np.eye(g.shape[1])[:wanted]
            worst = max(worst, np.linalg.norm(d @ g - eye), float(residual))
        assert worst <= 1e-9

    def test_matches_jacobi_oracle(self, rng):
        for _ in range(100):
            rows = int(rng.integers(2, 9))
            wanted = int(rng.integers(1, rows + 1))
            g = _receive_matrix(rng, rows, wanted, int(rng.integers(1, 4)))
            d, _, _ = zero_forcing_rows(g, list(range(wanted)))
            oracle = zero_forcing_oracle(g, list(range(wanted)))
            assert np.linalg.norm(d - oracle) <= 1e-10 * np.linalg.norm(oracle)

    def test_leaking_interference_leaves_a_residual(self, rng):
        # generic interference fills every dimension: nothing can be zero-forced
        g = random_complex_matrix(rng, 4, 6)
        _, cond, residual = zero_forcing_rows(g, [0, 1])
        assert cond > 1e-3
        assert residual > 0.1

    def test_trial_axis_is_bit_identical(self, rng):
        stack = np.stack([_receive_matrix(rng, 5, 2, 2) for _ in range(4)], axis=-1)
        d, cond, residual = zero_forcing_rows(stack, [0, 1])
        for t in range(4):
            one = zero_forcing_rows(stack[..., t : t + 1], [0, 1])
            assert np.array_equal(d[..., t], one[0][..., 0])
            assert cond[t] == one[1][0] and residual[t] == one[2][0]

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        seed=st.integers(0, 2**32 - 1),
        scale_log=st.floats(-6.0, 6.0),
        phase=st.floats(0.0, 6.28),
    )
    def test_scale_invariance(self, seed, scale_log, phase):
        # scaling the receive matrix scales the decoder inversely and leaves
        # both guards where they were
        gen = np.random.default_rng(seed)
        g = _receive_matrix(gen, 4, 2, 1)
        scalar = 10.0**scale_log * np.exp(1j * phase)
        d, cond, residual = zero_forcing_rows(g, [0, 1])
        d_scaled, cond_scaled, residual_scaled = zero_forcing_rows(scalar * g, [0, 1])
        np.testing.assert_allclose(d_scaled * scalar, d, rtol=1e-9)
        assert abs(cond_scaled - cond) <= 1e-9 * cond
        assert residual_scaled <= 1e-9

    # zero_forcing_rows reports every system; the decoder judges its cond

    def test_zero_matrix(self):
        g = np.zeros((3, 4), dtype=complex)
        assert _not_above_cutoff(zero_forcing_rows(g, [0])[1])
        [(singular, reason)] = _verdict(np.stack([g] * 4)).values()
        assert singular and "inf" in reason

    def test_singular_matrix_is_judged_singular(self, rng):
        g = random_complex_matrix(rng, 3, 4)
        g[2] = g[0] + 2.0 * g[1]
        assert _not_above_cutoff(zero_forcing_rows(g, [0])[1])
        [(singular, reason)] = _verdict(np.stack([g] * 4)).values()
        assert singular and reason.startswith("Singular: receiver 0: ")

    def test_condition_guard(self):
        ok = np.diag([1.0, 1e-7]).astype(complex)
        bad = np.diag([1.0, 1e-9]).astype(complex)
        d, cond, _ = zero_forcing_rows(ok, [0, 1])
        assert abs(cond - 1e-7) <= 1e-20
        np.testing.assert_allclose(d, np.diag([1.0, 1e7]), rtol=1e-12)
        ctx = _decode_context(ok[None])
        assert ctx.certificates["receive_cond_rx0"] == cond and np.array_equal(ctx.decoders[0], d)
        assert _not_above_cutoff(zero_forcing_rows(bad, [0, 1])[1])
        [(singular, _)] = _verdict(bad[None]).values()
        assert singular

    def test_shape_checks(self, rng):
        with pytest.raises(ValueError):
            zero_forcing_rows(random_complex_matrix(rng, 3, 2), [0])
        g = random_complex_matrix(rng, 2, 3)
        # a system that is not finite is no shape error: it reports a NaN cond
        g[0, 0] = np.inf
        _, cond, _ = zero_forcing_rows(g, [0])
        assert np.isnan(cond)

    def test_a_system_that_is_not_finite_leaves_its_stack_alone(self, rng):
        good = [random_complex_matrix(rng, 2, 3) for _ in range(2)]
        bad = random_complex_matrix(rng, 2, 3)
        bad[1, 2] = np.nan
        d, cond, residual = zero_forcing_rows(np.stack([good[0], bad, good[1]], -1), [0])
        assert np.isnan(cond[1])
        for t, g in zip((0, 2), good):
            alone = zero_forcing_rows(g[..., None], [0])
            assert d[..., t : t + 1].tobytes() == alone[0].tobytes()
            assert cond[t : t + 1].tobytes() == alone[1].tobytes()
            assert residual[t : t + 1].tobytes() == alone[2].tobytes()


class TestStackedSystems:
    """Several systems per trial in one call give each system's own bits."""

    def test_null_vector_stack_equals_separate_calls(self, rng):
        # (m, n, systems, trials), as a transmitter stacks its victims' systems
        a = np.stack(
            [
                np.stack([random_complex_matrix(rng, 5, 6) for _ in range(7)], axis=-1)
                for _ in range(2)
            ],
            axis=2,
        )
        v = null_vector(a)
        assert v.shape == (6, 2, 7)
        for r in range(2):
            assert np.array_equal(v[:, r], null_vector(a[:, :, r]))
            for t in range(7):
                assert np.array_equal(v[:, r, t], null_vector(a[:, :, r, t : t + 1])[:, 0])
        # ill-conditioned systems mixed into a stack of generic ones: every
        # system keeps its lone bits
        for r, t in [(0, 0), (0, 4), (1, 4), (1, 6)]:
            a[:, :, r, t] = _near_cutoff(rng, Tolerances())
        v = null_vector(a)
        for r in range(2):
            assert np.array_equal(v[:, r], null_vector(a[:, :, r]))
            for t in range(7):
                assert np.array_equal(v[:, r, t], null_vector(a[:, :, r, t : t + 1])[:, 0])

    def test_zero_forcing_per_system_rows_equal_separate_calls(self, rng):
        rows = np.array([[0, 1], [2, 3], [4, 5]])
        g = np.stack(
            [np.stack([_receive_matrix(rng, 5, 2, 2) for _ in range(4)], axis=-1) for _ in rows],
            axis=2,
        )
        d, cond, residual = zero_forcing_rows(g, rows)
        assert d.shape == (2, 5, 3, 4) and cond.shape == residual.shape == (3, 4)
        for r, want in enumerate(rows):
            one = zero_forcing_rows(g[:, :, r], list(want))
            assert np.array_equal(d[:, :, r], one[0])
            assert np.array_equal(cond[r], one[1])
            assert np.array_equal(residual[r], one[2])

    def test_row_sets_must_match_the_first_stack_axis(self, rng):
        g = np.stack([random_complex_matrix(rng, 3, 4) for _ in range(2)], axis=-1)
        with pytest.raises(ValueError, match="row sets"):
            zero_forcing_rows(g, np.array([[0], [1], [2]]))

    def test_singular_names_the_first_bad_system(self, rng):
        # (n, k, receivers, trials), receiver r wanting unknowns 2r and 2r + 1;
        # every other system zero-forces cleanly, so receiver 1 is the first bad one
        g = np.stack(
            [
                np.stack([np.roll(_receive_matrix(rng, 3, 2, 1), 2 * r, 1) for _ in range(3)], -1)
                for r in range(2)
            ],
            axis=2,
        )
        g[2, :, 1, 2] = 0.0
        g[1, :, 1, 2] = 0.0
        cond = zero_forcing_rows(g, np.array([[0, 1], [2, 3]]))[1]
        assert np.argwhere(_not_above_cutoff(cond)).tolist() == [[1, 2]]
        [(singular, reason)] = _verdict(np.moveaxis(g, 2, 0)).values()
        assert singular and reason.startswith("Singular: receiver 1: condition number inf ")

    def test_rank_guard_messages(self, rng):
        # the decoder calls a receive matrix singular where s[-1] / s[0] is
        # not above rank_rel
        singular = (
            "Singular: receiver 0: condition number inf exceeds 1.0e+08; "
            "receive_cond_rx0 is at or below the --tol-rank cutoff 1.0e-08"
        )
        assert _not_above_cutoff(zero_forcing_rows(np.zeros((2, 3)), [0])[1])
        assert _verdict(np.zeros((3, 2, 3))) == {0: (True, singular)}
        # square systems: the healthy trials decode cleanly, trial 2 is zero
        g = np.stack([random_complex_matrix(rng, 3, 3) for _ in range(4)], axis=-1)
        g[:, :, 2] = 0.0
        cond = zero_forcing_rows(g, [0])[1]
        assert np.flatnonzero(_not_above_cutoff(cond)).tolist() == [2]
        assert _verdict(np.stack([g] * 3)) == {2: (True, singular)}


class TestSampleComplexGaussian:
    def test_moments(self):
        rng = np.random.default_rng(99)
        z = sample_complex_gaussian([rng], 200_000)
        assert abs(np.mean(np.abs(z) ** 2) - 1.0) < 0.01
        assert abs(np.mean(z)) < 0.01
        # circular symmetry: the pseudo-variance vanishes
        assert abs(np.mean(z**2)) < 0.01

    def test_deterministic(self):
        z1 = sample_complex_gaussian([np.random.default_rng(5)], 64)
        z2 = sample_complex_gaussian([np.random.default_rng(5)], 64)
        assert np.array_equal(z1, z2)

    @pytest.mark.parametrize("count", [0, 1, 9, 45])
    def test_generator_stack_columns_equal_single_draws(self, count):
        z = sample_complex_gaussian([np.random.default_rng(s) for s in range(5)], count)
        assert z.shape == (count, 5)
        for s in range(5):
            one = sample_complex_gaussian([np.random.default_rng(s)], count)
            assert one.shape == (count, 1)
            assert z[:, s].tobytes() == one[:, 0].tobytes()


@settings(max_examples=60, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1))
def test_null_vector_invariants_property(seed):
    gen = np.random.default_rng(seed)
    m = int(gen.integers(2, 8))
    a = random_complex_matrix(gen, m, m + 1)
    v = null_vector(a)
    assert abs(np.linalg.norm(v) - 1.0) <= 1e-12
    assert np.linalg.norm(a @ v) <= 1e-8 * np.linalg.norm(a)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1))
def test_zero_forcing_round_trip_property(seed):
    gen = np.random.default_rng(seed)
    rows = int(gen.integers(2, 9))
    wanted = int(gen.integers(1, rows + 1))
    g = _receive_matrix(gen, rows, wanted, int(gen.integers(1, 4)))
    d, cond, _ = zero_forcing_rows(g, list(range(wanted)))
    if _not_above_cutoff(cond):
        return
    assert np.linalg.norm(d @ g - np.eye(g.shape[1])[:wanted]) <= 1e-9
