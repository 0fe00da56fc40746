"""Trial outcomes in a form that compares bit for bit."""

from __future__ import annotations

from unittest import mock

import numpy as np

from alignsim.evaluate import _draw_batch, _join, _run_block
from alignsim.numerics import Tolerances


def outcome_fields(outcomes, index=slice(None)):
    """Every field of ``outcomes`` at ``index`` of the trial axis, arrays as dtype, shape, bytes."""

    def value(field):
        if isinstance(field, np.ndarray):
            picked = np.asarray(field[index])
            return picked.dtype.str, picked.shape, picked.tobytes()
        if isinstance(field, dict):
            return [(key, value(item)) for key, item in field.items()]
        return field

    return tuple(value(getattr(outcomes, name)) for name in outcomes._fields)


def run_with_batches(scheme_id, num_trials, base_seed, collect_weights=False):
    """A one-worker ``run_trials`` report and the outcomes of each block it ran, in order.

    Each block's outcomes are as ``_run_block`` gave them, every draw's in
    draw order; its verdict is dropped.
    """
    import alignsim.evaluate as evaluate

    run_block = evaluate._run_block
    batches = []

    def recording(*args):
        outcomes, verdict = run_block(*args)
        batches.append(outcomes)
        return outcomes, verdict

    with mock.patch.object(evaluate, "_run_block", recording):
        report = evaluate.run_trials(
            scheme_id, num_trials, base_seed, collect_weights=collect_weights, threads=1
        )
    return report, batches


def replayed(scheme, base_seed, trials, discards=(), collect_weights=False):
    """Outcomes of the trials in order, each one's passing draw run as a block of its own.

    A trial passes at the attempt that counts its entries in ``discards``.
    """
    parts = []
    for trial in trials:
        draw = (trial, sum(d.trial == trial for d in discards))
        block = _draw_batch(scheme, base_seed, [draw])
        outcomes, verdict = _run_block(scheme, *block, Tolerances(), collect_weights)
        assert verdict == {}, draw
        parts.append(outcomes)
    return _join(parts, np.concatenate)
