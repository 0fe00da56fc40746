"""Trial outcomes in a form that compares bit for bit."""

from __future__ import annotations

from unittest import mock

import numpy as np


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

    Each block's outcomes are as ``_run_block`` gave them, before the run
    set their trials and attempts.
    """
    import alignsim.evaluate as evaluate

    run_block = evaluate._run_block
    batches = []

    def recording(*args):
        batches.append(run_block(*args))
        return batches[-1]

    with mock.patch.object(evaluate, "_run_block", recording):
        report = evaluate.run_trials(
            scheme_id, num_trials, base_seed, collect_weights=collect_weights, threads=1
        )
    return report, batches
