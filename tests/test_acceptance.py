"""Acceptance suite: end-to-end checks of every published guarantee.

Each test prints one ``[acceptance] <name>: PASS/FAIL`` line (run pytest
with ``-s`` to see them) and then asserts, so the suite doubles as a
human-readable scorecard and a hard gate.
"""

import time
from fractions import Fraction

import numpy as np

from alignsim.evaluate import (
    dof_by_counting,
    estimate_dof,
    run_trials,
)
from alignsim.numerics import null_vector, zero_forcing_rows
from alignsim.registry import SCHEMES, get_scheme

from _oracles import (
    future_perturbation_invariant,
    jacobi_null_vector,
    random_complex_matrix,
    random_rank_matrix,
    zero_forcing_oracle,
)


def _report(name: str, ok: bool, detail: str = "") -> None:
    line = f"[acceptance] {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


def test_x_retro_csit_thousand_exact_decodes():
    start = time.perf_counter()
    report = run_trials("x_retro_csit", 1000, base_seed=101, threads=1)
    elapsed = time.perf_counter() - start
    certs = report.outcomes.certificates
    exact = int(np.count_nonzero(report.outcomes.max_rel_symbol_error <= 1e-6))
    dets = all(
        np.all(certs[f"receive_cond_rx{rx}"] > 1e-8)
        and np.all(certs[f"zf_residual_rx{rx}"] <= 1e-8)
        for rx in range(2)
    )
    ok = exact == 1000 and dets and elapsed < 30.0
    _report(
        "x-channel delayed-CSIT: 1000 noiseless trials",
        ok,
        f"exact {exact}/1000, worst rel err {report.max_rel_symbol_error:.2e}, "
        f"discards {len(report.discards)}, {elapsed:.1f}s",
    )


def test_ic3_retro_csit_thousand_exact_decodes():
    start = time.perf_counter()
    report = run_trials("ic3_retro_csit", 1000, base_seed=202, threads=1)
    elapsed = time.perf_counter() - start
    certs = report.outcomes.certificates
    exact = int(np.count_nonzero(report.outcomes.max_rel_symbol_error <= 1e-6))
    # a full-rank receive matrix that zero-forces cleanly leaves interference
    # the 5 of 8 dimensions the 3 desired symbols do not take
    ranks_ok = all(
        np.all(certs[f"receive_cond_rx{rx}"] > 1e-8)
        and np.all(certs[f"zf_residual_rx{rx}"] <= 1e-8)
        for rx in range(3)
    )
    ok = exact == 1000 and ranks_ok and elapsed < 60.0
    _report(
        "3-user IC delayed-CSIT: 1000 trials, interference rank 5",
        ok,
        f"exact {exact}/1000, ranks all 5: {ranks_ok}, "
        f"discards {len(report.discards)}, {elapsed:.1f}s",
    )


def test_output_feedback_schemes_exact_and_blind():
    details = []
    ok = True
    for scheme_id in ("x_output_fb", "ic3_output_fb"):
        report = run_trials(scheme_id, 1000, base_seed=303, threads=1)
        exact = int(np.count_nonzero(report.outcomes.max_rel_symbol_error <= 1e-6))
        no_csi = report.outcomes.csi_slots == []
        ok = ok and exact == 1000 and no_csi
        details.append(f"{scheme_id}: {exact}/1000 exact, csi reads 0")
    _report(
        "output-feedback schemes: 1000 trials each, transmitters blind to CSI",
        ok,
        "; ".join(details),
    )


def test_dof_slopes_across_all_schemes():
    grid = [40.0, 50.0, 60.0, 70.0]
    start = time.perf_counter()
    details = []
    ok = True
    for scheme_id in sorted(SCHEMES):
        scheme = get_scheme(scheme_id)
        estimate = estimate_dof(scheme_id, grid, 200, base_seed=404, threads=1)
        target = float(dof_by_counting(scheme))
        slope_ok = abs(estimate.slope - target) <= 0.05
        fit_ok = estimate.r_squared >= 0.999
        leak_ok = estimate.max_rel_symbol_error**2 < 1e-12
        ok = ok and slope_ok and fit_ok and leak_ok
        details.append(
            f"{scheme_id}: slope {estimate.slope:.4f} vs {target:.4f}, "
            f"r2 {estimate.r_squared:.6f}"
        )
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 300.0
    _report(
        "sum-rate slopes match symbols-per-slot on 40-70 dB grid",
        ok,
        "; ".join(details) + f"; total {elapsed:.1f}s",
    )


def test_csi_usage_fractions():
    x_report = run_trials("x_retro_csit", 100, base_seed=505, threads=1)
    ic_report = run_trials("ic3_retro_csit", 100, base_seed=505, threads=1)
    x_fraction = Fraction(len(x_report.outcomes.csi_slots), 7)
    ic_fraction = Fraction(len(ic_report.outcomes.csi_slots), 8)
    ok = x_fraction == Fraction(3, 7) and ic_fraction <= Fraction(5, 8)
    _report(
        "transmitters read CSI of 3/7 slots (X) and at most 5/8 (IC)",
        ok,
        f"x: {x_fraction}, ic3: {ic_fraction}",
    )


def test_causality_replay_every_cut_point():
    checked = 0
    ok = True
    for scheme_id in sorted(SCHEMES):
        scheme = get_scheme(scheme_id)
        trials = range(100)
        for cut in range(scheme.num_slots):
            # one stacked replay per cut; each trial keeps its own bits in the stack
            if not future_perturbation_invariant(scheme, 606, trials, cut):
                ok = False
            checked += len(trials)
    _report(
        "perturbing future channel states never changes past transmissions",
        ok,
        f"{checked} replays across {len(SCHEMES)} schemes, bit-identical",
    )


def test_numerics_agree_with_bruteforce_oracle():
    rng = np.random.default_rng(707)
    worst = 0.0
    ok = True
    for _ in range(100):
        m = int(rng.integers(2, 8))
        a = random_complex_matrix(rng, m, m + 1)
        v = null_vector(a)
        w = jacobi_null_vector(a)
        worst = max(worst, float(np.linalg.norm(a @ v)) / float(np.linalg.norm(a)))
        worst = max(worst, 1.0 - abs(np.vdot(w, v)))
    for _ in range(100):
        # a receive matrix whose last unknowns interfere along fewer directions
        rows = int(rng.integers(2, 9))
        wanted = int(rng.integers(1, rows + 1))
        extra = int(rng.integers(1, 4))
        interference = random_rank_matrix(rng, rows, rows - wanted + extra, rows - wanted)
        g = np.hstack([random_complex_matrix(rng, rows, wanted), interference])
        d, _, residual = zero_forcing_rows(g, list(range(wanted)))
        oracle = zero_forcing_oracle(g, list(range(wanted)))
        worst = max(
            worst,
            float(residual),
            float(np.linalg.norm(d - oracle)) / float(np.linalg.norm(oracle)),
        )
    ok = ok and worst <= 1e-10
    _report(
        "SVD operations match the brute-force Jacobi oracle",
        ok,
        f"100 instances per operation, worst residual {worst:.2e}",
    )
