"""Decode contexts for tests that draw their own blocks.

The trial runner reads a block's decoders off the identity message columns
of its own block run; this builds them the same way, from a separate run.
"""

from __future__ import annotations

import numpy as np

from alignsim.evaluate import simulate_block
from alignsim.numerics import Tolerances


def impulse_response(scheme, tensor, offline):
    """``(response, state)`` of a block run whose message columns are the identity."""
    size = scheme.num_symbols
    eye = np.eye(size, dtype=np.complex128)[:, :, None]
    state: dict = {}
    msgs = np.broadcast_to(eye, (size, size, tensor.num_trials))
    record = simulate_block(scheme, tensor, offline, msgs, state=state)
    return record.y, state


def decode_context(scheme, tensor, offline, tol=Tolerances()):
    """The scheme's decoders for the block, read off :func:`impulse_response`."""
    response, state = impulse_response(scheme, tensor, offline)
    return scheme.decode_context(tensor, offline, tol, response, state)
