"""The zero-forcing decoder every scheme shares.

Its decoder rows are checked against a zero-forcing decoder built here
from the encoder's impulse response, one unbatched block per symbol, with
the Jacobi oracle's left null basis instead of LAPACK.
"""

import numpy as np
import pytest

from alignsim.base import Scheme
from alignsim.channel import generate_channel
from alignsim.evaluate import _draw_batch, simulate_block
from alignsim.numerics import DEFAULT_TOL, zero_forcing_rows
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
        tensor = generate_channel(scheme.num_rx, scheme.num_tx, scheme.num_slots, rng)
        offline = scheme.draw_offline(rng)
        ctx = decode_context(scheme, tensor, offline)
        response = np.stack(
            [
                simulate_block(scheme, tensor, offline, unit, 1.0, DEFAULT_TOL).y
                for unit in np.eye(scheme.num_symbols, dtype=np.complex128)
            ],
            axis=-1,
        )
        for rx in range(scheme.num_rx):
            oracle = zero_forcing_oracle(response[rx], scheme.symbols_for_rx(rx))
            decoder = ctx.decoders[rx]
            assert np.linalg.norm(decoder - oracle) <= 1e-10 * np.linalg.norm(oracle)



@pytest.mark.parametrize("scheme_id", ALL_SCHEME_IDS)
def test_one_factorization_equals_one_call_per_receiver(scheme_id):
    scheme = get_scheme(scheme_id)
    tensor, offline, _ = _draw_batch(scheme, 61, [(t, 0) for t in range(8)])
    response, state = impulse_response(scheme, tensor, offline)
    ctx = scheme.decode_context(tensor, offline, DEFAULT_TOL, response, state)
    for rx in range(scheme.num_rx):
        d, cond, residual = zero_forcing_rows(response[rx], scheme.symbols_for_rx(rx), DEFAULT_TOL)
        assert ctx.decoders[rx].tobytes() == np.ascontiguousarray(d).tobytes()
        assert ctx.decoders[rx].shape == d.shape
        assert ctx.receive_cond[rx].tobytes() == cond.tobytes()
        assert ctx.zf_residual[rx].tobytes() == residual.tobytes()
