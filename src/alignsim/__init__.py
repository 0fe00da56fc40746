"""alignsim: numerical verification of delayed-feedback interference alignment schemes.

Implements and checks, in simulation, linear transmission schemes whose
degrees of freedom exceed what is achievable without feedback: two
retrospective delayed-CSIT schemes (two-user X channel at 8/7, 3-user
interference channel at 9/8), two delayed-output-feedback schemes (X channel
at 4/3, 3-user interference channel with own-receiver feedback at 6/5) and a
two-antenna broadcast baseline at 4/3.  Feedback causality is enforced
mechanically, decoding is verified exactly at zero noise, and the DoF are
estimated from the slope of deterministic rate curves.

Every name is imported from the module that defines it, for instance
``from alignsim.evaluate import run_trials``.
"""

__version__ = "0.1.0"
