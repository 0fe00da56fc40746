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


def run_with_batches(scheme_id, num_trials, base_seed):
    """A one-worker ``run_trials`` report and the outcomes of each batch it ran, in order."""
    import alignsim.evaluate as evaluate

    run_batch = evaluate._run_batch
    batches = []

    def recording(*args):
        batches.append(run_batch(*args))
        return batches[-1]

    with mock.patch.object(evaluate, "_run_batch", recording):
        report = evaluate.run_trials(scheme_id, num_trials, base_seed, threads=1)
    return report, batches
