"""alignsim: numerical verification of delayed-feedback interference alignment schemes.

Implements and checks, in simulation, linear transmission schemes whose
degrees of freedom exceed what is achievable without feedback: two
retrospective delayed-CSIT schemes (two-user X channel at 8/7, 3-user
interference channel at 9/8), two delayed-output-feedback schemes (X channel
at 4/3, 3-user interference channel with own-receiver feedback at 6/5) and a
two-antenna broadcast baseline at 4/3.  Feedback causality is enforced
mechanically, decoding is verified exactly at zero noise, and the DoF are
estimated from the slope of deterministic rate curves.
"""

from .channel import (
    AccessLog,
    CausalityViolation,
    ChannelTensor,
    FeedbackKind,
    FeedbackModel,
    SignalRecord,
    TxInformationView,
    apply_channel,
    audit_feedback_usage,
    generate_channel,
)
from .evaluate import (
    DofEstimate,
    RunReport,
    SchemeFailure,
    TrialResult,
    dof_by_counting,
    estimate_dof,
    run_trials,
)
from .numerics import (
    Degenerate,
    RankDeficient,
    Singular,
    Tolerances,
    null_vector,
    sample_complex_gaussian,
    zero_forcing_rows,
)
from .registry import SCHEMES, get_scheme

__version__ = "0.1.0"

__all__ = [
    "AccessLog",
    "CausalityViolation",
    "ChannelTensor",
    "Degenerate",
    "DofEstimate",
    "FeedbackKind",
    "FeedbackModel",
    "RankDeficient",
    "RunReport",
    "SCHEMES",
    "SchemeFailure",
    "SignalRecord",
    "Singular",
    "Tolerances",
    "TrialResult",
    "TxInformationView",
    "apply_channel",
    "audit_feedback_usage",
    "dof_by_counting",
    "estimate_dof",
    "generate_channel",
    "get_scheme",
    "null_vector",
    "run_trials",
    "sample_complex_gaussian",
    "zero_forcing_rows",
    "__version__",
]
