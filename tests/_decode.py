"""Decode contexts for tests that draw their own blocks.

The trial runner reads a block's decoders off the identity message columns
of its own block run; this builds them the same way, from a separate run.
"""

from __future__ import annotations

import numpy as np

from alignsim.evaluate import simulate_block
from alignsim.numerics import Tolerances


def impulse_response(scheme, tensor, offline):
    """The received block of a run whose message columns are the identity."""
    size = scheme.num_symbols
    eye = np.eye(size, dtype=np.complex128)[:, :, None]
    msgs = np.broadcast_to(eye, (size, size, tensor.num_trials))
    return simulate_block(scheme, tensor, offline, msgs).y


def decode_context(scheme, tensor, offline, tol=Tolerances()):
    """The scheme's decoders for the block, read off :func:`impulse_response`."""
    return scheme.decode_context(tol, impulse_response(scheme, tensor, offline))
