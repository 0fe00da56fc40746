"""Decode contexts and noise weights for tests that draw their own blocks.

The trial runner reads a block's decoders off the identity message columns
of its own block run, and the images of its replayed outputs' noise off
its impulse columns; this builds them the same way, from separate runs.
"""

from __future__ import annotations

import numpy as np

from alignsim.evaluate import noise_transfer_weights, simulate_block
from alignsim.numerics import Tolerances


def impulse_response(scheme, h, offline):
    """The received block of a run whose message columns are the identity."""
    size = scheme.num_symbols
    eye = np.eye(size, dtype=np.complex128)[:, :, None]
    msgs = np.broadcast_to(eye, (size, size, h.shape[3]))
    return simulate_block(scheme, h, offline, msgs).y


def decode_context(scheme, h, offline, tol=Tolerances()):
    """The scheme's decoders for the block, read off :func:`impulse_response`."""
    return scheme.decode_context(tol, impulse_response(scheme, h, offline))


def replayed_images(scheme, h, offline, ctx):
    """Decodes ``(num_symbols, k, T)`` of the ``k`` replayed outputs' unit impulses.

    One block run with zero messages and one column per
    ``scheme.replayed_outputs`` entry, whose impulse is that column's noise.
    """
    trials = h.shape[3]
    replayed = scheme.replayed_outputs
    if not replayed:
        return np.zeros((scheme.num_symbols, 0, trials))
    zero_msgs = np.zeros((scheme.num_symbols, len(replayed), trials), dtype=np.complex128)
    noise = np.zeros((scheme.num_rx, scheme.num_slots, len(replayed), trials), dtype=np.complex128)
    for column, (rx, slot) in enumerate(replayed):
        noise[rx, slot, column] = 1.0
    return scheme.decode(simulate_block(scheme, h, offline, zero_msgs, noise=noise).y, ctx)


def noise_weights(scheme, h, offline, ctx):
    """The block's :func:`~alignsim.evaluate.noise_transfer_weights`, ``(num_symbols, T)``."""
    return noise_transfer_weights(scheme, ctx, replayed_images(scheme, h, offline, ctx))
