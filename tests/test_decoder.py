"""The zero-forcing decoder every scheme shares.

Its decoder rows are checked against a zero-forcing decoder built here
from the encoder's impulse response, one block run per symbol, with the
Jacobi oracle's left null basis instead of LAPACK.
"""

import re

import numpy as np
import pytest

from alignsim.base import Scheme
from alignsim.channel import generate_channel
from alignsim.evaluate import _draw_batch, simulate_block
from alignsim.numerics import Tolerances, zero_forcing_rows
from alignsim.registry import SCHEMES, get_scheme

from _decode import decode_context, impulse_response
from _oracles import zero_forcing_oracle

ALL_SCHEME_IDS = sorted(SCHEMES)


def test_no_scheme_overrides_the_decoder():
    for scheme in SCHEMES.values():
        assert type(scheme).decode_context is Scheme.decode_context, scheme.scheme_id
        assert type(scheme).decode is Scheme.decode, scheme.scheme_id


@pytest.mark.parametrize("scheme_id", ALL_SCHEME_IDS)
def test_decoder_matches_jacobi_oracle(scheme_id):
    scheme = get_scheme(scheme_id)
    rng = np.random.default_rng(59)
    for _ in range(5):
        h = generate_channel(scheme.num_rx, scheme.num_tx, scheme.num_slots, [rng])
        offline = scheme.draw_offline([rng])
        ctx = decode_context(scheme, h, offline)
        response = np.stack(
            [
                simulate_block(scheme, h, offline, unit[:, None]).y[..., 0]
                for unit in np.eye(scheme.num_symbols, dtype=np.complex128)
            ],
            axis=-1,
        )
        for rx in range(scheme.num_rx):
            oracle = zero_forcing_oracle(response[rx], scheme.symbols_for_rx(rx))
            decoder = ctx.decoders[rx][..., 0]
            assert np.linalg.norm(decoder - oracle) <= 1e-10 * np.linalg.norm(oracle)



@pytest.mark.parametrize("scheme_id", ALL_SCHEME_IDS)
def test_one_factorization_equals_one_call_per_receiver(scheme_id):
    scheme = get_scheme(scheme_id)
    h, offline, _ = _draw_batch(scheme, 61, [(t, 0) for t in range(8)])
    response = impulse_response(scheme, h, offline)
    ctx = scheme.decode_context(Tolerances(), response)
    for rx in range(scheme.num_rx):
        d, cond, residual = zero_forcing_rows(response[rx], scheme.symbols_for_rx(rx))
        assert ctx.decoders[rx].tobytes() == np.ascontiguousarray(d).tobytes()
        assert ctx.decoders[rx].shape == d.shape
        assert ctx.certificates[f"receive_cond_rx{rx}"].tobytes() == cond.tobytes()
        assert ctx.certificates[f"zf_residual_rx{rx}"].tobytes() == residual.tobytes()


def _bc_mat_receiver(rng, rx, leak=False):
    """A ``3 x 4`` receive matrix of ``bc_mat``'s receiver ``rx``: its two symbols
    are generic, and the other two span one dimension, or two where ``leak``."""
    g = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
    if not leak:
        first, second = [c for c in range(4) if c not in get_scheme("bc_mat").symbols_for_rx(rx)]
        g[:, second] = (0.5 - 2.0j) * g[:, first]
    return g


_SINGULAR = (
    "Singular: receiver {rx}: condition number {cond} exceeds 1.0e+08; "
    "receive_cond_rx{rx} is at or below the --tol-rank cutoff 1.0e-08"
)


def _verdict(scheme, response):
    """The decoder's verdict on the draws of ``response``."""
    return scheme.decode_context(Tolerances(), response).verdict


class TestReceiverOrder:
    """``decode_context`` judges each draw's receivers in order."""

    def test_a_leak_at_receiver_0_comes_before_a_singular_receiver_1(self):
        scheme, rng = get_scheme("bc_mat"), np.random.default_rng(3)
        response = np.stack(
            [
                np.stack([_bc_mat_receiver(rng, 0), _bc_mat_receiver(rng, 0, leak=True)], -1),
                np.stack([np.zeros((3, 4)), _bc_mat_receiver(rng, 1)], -1),
            ]
        )
        verdict = _verdict(scheme, response)
        assert verdict[0] == (True, _SINGULAR.format(rx=1, cond="inf"))
        singular, reason = verdict[1]
        assert not singular
        assert re.match(r"InterferenceRankUnexpected: .* at receiver 0 exceeds 1\.0e-08", reason)

    def test_a_singular_receiver_0_comes_before_a_leak_at_receiver_1(self):
        scheme, rng = get_scheme("bc_mat"), np.random.default_rng(4)
        # s = (1, 1, 1e-9): condition number 1e9, above the default cutoff's 1e8
        singular = np.diag([1.0, 1.0, 1e-9, 0.0])[:3]
        response = np.stack(
            [
                np.stack([singular, _bc_mat_receiver(rng, 0)], -1),
                np.stack([_bc_mat_receiver(rng, 1, leak=True), _bc_mat_receiver(rng, 1)], -1),
            ]
        )
        assert _verdict(scheme, response) == {0: (True, _SINGULAR.format(rx=0, cond="1.000e+09"))}

    def test_each_draw_is_judged_by_its_own_first_failed_check(self):
        scheme, rng = get_scheme("bc_mat"), np.random.default_rng(5)
        zero = np.zeros((3, 4))
        # draw 0 is singular at receiver 1, draw 1 passes, draw 2 is singular
        # at receiver 0 and would leak at receiver 1
        response = np.stack(
            [
                np.stack([_bc_mat_receiver(rng, 0)] * 2 + [zero], -1),
                np.stack(
                    [zero, _bc_mat_receiver(rng, 1), _bc_mat_receiver(rng, 1, leak=True)], -1
                ),
            ]
        )
        assert _verdict(scheme, response) == {
            0: (True, _SINGULAR.format(rx=1, cond="inf")),
            2: (True, _SINGULAR.format(rx=0, cond="inf")),
        }

    def test_a_block_reports_every_failing_draw_with_its_verdict_alone(self):
        scheme, rng = get_scheme("bc_mat"), np.random.default_rng(6)
        zero = np.zeros((3, 4))
        # draw 0 passes, draw 1 leaks at receiver 0, draw 2 is singular at
        # receiver 0 and draw 3 leaks at receiver 1
        response = np.stack(
            [
                np.stack(
                    [
                        _bc_mat_receiver(rng, 0),
                        _bc_mat_receiver(rng, 0, leak=True),
                        zero,
                        _bc_mat_receiver(rng, 0),
                    ],
                    -1,
                ),
                np.stack(
                    [_bc_mat_receiver(rng, 1)] * 3 + [_bc_mat_receiver(rng, 1, leak=True)], -1
                ),
            ]
        )
        verdict = _verdict(scheme, response)
        alone = {t: _verdict(scheme, response[..., t : t + 1])[0] for t in (1, 2, 3)}
        assert verdict == alone
        assert [singular for singular, _ in verdict.values()] == [False, True, False]
        assert " at receiver 0 exceeds " in alone[1][1] and " at receiver 1 exceeds " in alone[3][1]
        assert alone[2] == (True, _SINGULAR.format(rx=0, cond="inf"))

    def test_zero_response_is_singular_at_receiver_0(self):
        scheme = get_scheme("bc_mat")
        verdict = _verdict(scheme, np.zeros((2, 3, 4, 2)))
        assert verdict == {t: (True, _SINGULAR.format(rx=0, cond="inf")) for t in (0, 1)}

    def test_a_failing_draws_decoders_are_zero_and_its_decode_finite(self):
        scheme, rng = get_scheme("bc_mat"), np.random.default_rng(7)
        # draw 0 leaks at receiver 0, draw 1 is singular there, draw 2 passes
        response = np.stack(
            [
                np.stack(
                    [_bc_mat_receiver(rng, 0, leak=True), np.zeros((3, 4)), _bc_mat_receiver(rng, 0)],
                    -1,
                ),
                np.stack([_bc_mat_receiver(rng, 1)] * 3, -1),
            ]
        )
        ctx = scheme.decode_context(Tolerances(), response)
        assert list(ctx.verdict) == [0, 1]
        for rx in range(scheme.num_rx):
            assert not ctx.decoders[rx][..., :2].any()
            assert ctx.decoders[rx][..., 2].any()
        y = rng.standard_normal((2, 3, 3)) + 1j * rng.standard_normal((2, 3, 3))
        decoded = scheme.decode(y, ctx)
        assert np.isfinite(decoded).all() and not decoded[:, :2].any()


@pytest.mark.parametrize("scheme_id", ALL_SCHEME_IDS)
def test_receivers_own_the_symbols_in_order(scheme_id):
    scheme = get_scheme(scheme_id)
    owned = [symbol for rx in range(scheme.num_rx) for symbol in scheme.symbols_for_rx(rx)]
    assert owned == list(range(scheme.num_symbols))
