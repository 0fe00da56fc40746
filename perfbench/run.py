"""alignsim benchmark: CLI trials per second, with a separate traced per-layer split.

Run from the repository root:

    python3 perfbench/run.py --workload verify --seed 0 --seconds 15 --trace 0

The timed run (``--trace 0``) drives ``alignsim.cli.main(argv)`` in-process as
a closed loop with one client: the five schemes run in sorted order, one CLI
run after another, each with the workload's trial count and the workload
seed.  One untimed warm-up pass precedes the timed passes, which repeat until
``--seconds`` have elapsed; every metric is the median over the timed passes.
Every CLI run's output is checked.

The traced run (``--trace 1``) wraps the layers' public functions from this
directory (see ``spans.py``) and reports per-trial self times and counts.

Every line but the last is for people; the last stdout line is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
The exit code is 0 only when every output check passed.  See README.md for
the workloads and the metric-to-layer map.
"""

from __future__ import annotations

import os

# One BLAS thread, set before numpy is first imported; forked pool workers and
# the set-up probes inherit it.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import io
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


@dataclass(frozen=True)
class Workload:
    mode: str
    trials: int  # per scheme and CLI run
    threads: int


WORKLOADS = {
    "verify": Workload("verify", 100, 1),
    "dof_sweep": Workload("dof_sweep", 40, 1),
    "verify_pool2": Workload("verify", 400, 2),
}
SNR_GRID = "40,50,60,70"

#: Scheme id -> the src/alignsim module that implements it.
SCHEME_LAYER = {
    "bc_mat": "output_feedback",
    "ic3_output_fb": "output_feedback",
    "ic3_retro_csit": "retro_csit_ic3",
    "x_output_fb": "output_feedback",
    "x_retro_csit": "retro_csit_x",
}
SCHEMES = sorted(SCHEME_LAYER)
LAYERS = sorted(set(SCHEME_LAYER.values()))
HOOKS = ("transmit", "decode_context", "decode", "certificates")

#: The CLI's own dof_sweep gate and the noiseless decode cutoff.
DOF_SLOPE_TOL = 0.05
DOF_R2_MIN = 0.999
DECODE_REL_TOL = 1e-6

MIN_PASSES = 3
SETUP_PROBES = 9
PROBE_TIMEOUT_S = 60

#: Machine-speed reference: the wall time one SpeedProbe sample takes on the
#: reference machine.  Throughput is rescaled to it.
CALIB_REF_S = 0.005
CALIB_SYSTEMS = 150
#: Speed samples per run's correction factor (see SpeedProbe.slowdowns).
SPEED_WINDOW = 5

#: Speed samples a set-up probe takes after its timed part.
SETUP_SPEED_SAMPLES = 5

#: Imports alignsim and makes one CLI run per scheme in a fresh interpreter;
#: prints the seconds from before the import to the end, then the median of
#: SETUP_SPEED_SAMPLES speed samples taken in the same interpreter.
SETUP_PROBE = """
import contextlib, io, json, sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
from alignsim.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    codes = [main(argv) for argv in json.loads(sys.argv[2])]
seconds = time.perf_counter() - t0
sys.path.insert(0, sys.argv[3])
import statistics
from run import SETUP_SPEED_SAMPLES, _calibration_loop, _calibration_systems
systems = _calibration_systems()
speed = statistics.median(_calibration_loop(*systems) for _ in range(SETUP_SPEED_SAMPLES))
print(json.dumps({"seconds": seconds, "speed": speed, "codes": codes}))
"""


def _calibration_loop(mats, rhs, linalg) -> float:
    t0 = time.perf_counter()
    acc = 0.0
    for a, b in zip(mats, rhs):
        acc += float(linalg.svd(a, compute_uv=False)[0]) + abs(linalg.solve(a, b)[0])
    return time.perf_counter() - t0


def _calibration_systems():
    import numpy as np

    rng = np.random.default_rng(2024)
    shape = (CALIB_SYSTEMS, 6, 6)
    mats = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    rhs = rng.standard_normal(shape[:2]) + 1j * rng.standard_normal(shape[:2])
    return mats, rhs, np.linalg


#: Runs the calibration loop each time a line arrives on stdin and prints its
#: seconds; exits at end of input.
CALIBRATION_PEER = """
import sys
sys.path.insert(0, sys.argv[1])
from run import _calibration_loop, _calibration_systems
systems = _calibration_systems()
for _ in sys.stdin:
    print(_calibration_loop(*systems), flush=True)
"""


class SpeedProbe:
    """A fixed loop of small LAPACK calls, independent of alignsim.

    Other tenants of a shared machine change its speed by tens of percent
    over seconds to minutes.  Sampling this loop next to every CLI run and
    dividing each run's wall by the factor of :meth:`slowdowns` cancels most
    of that drift.  With
    ``parallel`` > 1 the loop runs at once in that many processes, because a
    workload that keeps every core busy meets other tenants differently from
    one that keeps one core busy.  Use it as a context manager: leaving it
    closes every helper process and waits for it to end.
    """

    def __init__(self, parallel: int = 1) -> None:
        self._systems = _calibration_systems()
        self._peers: list[subprocess.Popen] = []
        self.samples: list[float] = []
        try:
            for _ in range(parallel - 1):
                self._peers.append(subprocess.Popen(
                    [sys.executable, "-c", CALIBRATION_PEER, str(Path(__file__).resolve().parent)],
                    stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, cwd=ROOT,
                ))
        except BaseException:
            self.__exit__()
            raise

    def __enter__(self) -> "SpeedProbe":
        return self

    def __exit__(self, *exc) -> None:
        for peer in self._peers:
            try:
                peer.stdin.close()  # end of input: the helper leaves its loop
            except OSError:  # the helper already died; wait for it below
                pass
        for peer in self._peers:
            try:
                peer.wait(timeout=10)
            except subprocess.TimeoutExpired:
                peer.kill()
                peer.wait()
            peer.stdout.close()
        self._peers.clear()

    def sample(self) -> None:
        for peer in self._peers:
            peer.stdin.write("\n")
            peer.stdin.flush()
        seconds = [_calibration_loop(*self._systems)]
        seconds += [float(peer.stdout.readline()) for peer in self._peers]
        self.samples.append(statistics.fmean(seconds))

    def slowdowns(self, runs: int) -> list[float]:
        """Per-run factor over the reference: >1 means the machine ran slow.

        Expects ``runs + 1`` samples, one before each run and one after the
        last.  Run k gets the median of the ``SPEED_WINDOW`` samples centred
        on the one taken just before it, which follows drift over seconds and
        ignores the odd sample slowed by a just-finished process.
        """
        assert len(self.samples) == runs + 1, (len(self.samples), runs)
        half = SPEED_WINDOW // 2
        return [
            statistics.median(self.samples[max(0, k - half):k + half + 1]) / CALIB_REF_S
            for k in range(runs)
        ]


# -- running and checking one CLI call ----------------------------------------


def cli_argv(workload: Workload, scheme: str, seed: int, threads: int, trials: int) -> list[str]:
    argv = [
        "--scheme", scheme, "--mode", workload.mode, "--trials", str(trials),
        "--seed", str(seed), "--threads", str(threads),
    ]
    if workload.mode == "dof_sweep":
        argv += ["--snr-grid", SNR_GRID]
    return argv


def call_cli(main, argv: list[str]) -> tuple[float, int | None, str, str]:
    """Run ``main(argv)`` with stdout and stderr captured; returns (wall, code, out, err)."""
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception:  # a crash is one failed run; keep measuring the others
        code = None
        err.write(traceback.format_exc())
    return time.perf_counter() - t0, code, out.getvalue(), err.getvalue()


def check_run(
    workload: Workload, trials: int, code, out: str, err: str, reference: dict | None
) -> tuple[str | None, dict | None]:
    """Output check of one CLI run; returns (failure reason or None, results)."""
    if code != 0:
        last = err.strip().splitlines()[-1:] or out.strip().splitlines()[-1:] or [""]
        return f"exit code {code}: {last[0][:200]}", None
    try:
        doc = json.loads(out)
        results = doc["results"]
        if doc.get("pass") is not True:
            return '"pass" is not true', results
        if workload.mode == "verify":
            if results["decode_ok"] != trials:
                return f"decode_ok {results['decode_ok']} != trials {trials}", results
        else:
            err_slope = abs(results["slope"] - float(Fraction(results["dof_counting"])))
            if err_slope > DOF_SLOPE_TOL or results["r_squared"] < DOF_R2_MIN:
                return f"slope error {err_slope:.4g}, r2 {results['r_squared']:.6g}", results
        if reference is not None and json.loads(out, parse_float=str)["results"] != reference:
            return "results differ from the --threads 1 run of the same seed", results
    except (ValueError, KeyError, TypeError) as exc:
        return f"unreadable report: {exc!r}", None
    return None, results


@dataclass
class Pass:
    """One closed-loop pass: each scheme once, in sorted order."""

    walls: dict[str, float] = field(default_factory=dict)
    results: dict[str, dict] = field(default_factory=dict)
    failures: list[tuple[str, str]] = field(default_factory=list)

    def trials_per_s(self, trials: int) -> float:
        return len(self.walls) * trials / sum(self.walls.values())


def run_pass(main, workload: Workload, seed: int, threads: int, trials: int,
             references: dict[str, dict] | None = None, speed: SpeedProbe | None = None) -> Pass:
    result = Pass()
    for scheme in SCHEMES:
        if speed is not None:
            speed.sample()
        argv = cli_argv(workload, scheme, seed, threads, trials)
        wall, code, out, err = call_cli(main, argv)
        result.walls[scheme] = wall
        reference = references[scheme] if references else None
        reason, results = check_run(workload, trials, code, out, err, reference)
        if reason is not None:
            result.failures.append((scheme, reason))
        if results is not None:
            result.results[scheme] = results
    return result


def thread1_references(main, workload: Workload, seed: int) -> dict[str, dict]:
    """``results`` of an untimed --threads 1 run per scheme, floats kept as text."""
    references = {}
    for scheme in SCHEMES:
        _, code, out, _ = call_cli(main, cli_argv(workload, scheme, seed, 1, workload.trials))
        try:
            references[scheme] = json.loads(out, parse_float=str)["results"]
        except (ValueError, KeyError):
            references[scheme] = {"unreadable --threads 1 report, exit code": code}
    return references


# -- environment ---------------------------------------------------------------


def load_cli():
    """Import alignsim from this checkout's src/ (never from an installed copy)."""
    if not (SRC / "alignsim" / "__init__.py").is_file():
        sys.exit(f"error: {SRC / 'alignsim'} not found; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import alignsim.cli

    if SRC.resolve() not in Path(alignsim.cli.__file__).resolve().parents:
        sys.exit(f"error: imported alignsim from {alignsim.cli.__file__}, not {SRC}")
    return alignsim.cli


def machine_facts() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas_version = "unknown"
    src_lines = sum(
        len(path.read_text(encoding="utf-8").splitlines())
        for path in (SRC / "alignsim").rglob("*.py")
    )
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_version,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "src_lines": src_lines,
    }


def setup_seconds(seed: int) -> tuple[float, float, list[str]]:
    """Median over fresh interpreters of import plus a one-trial verify run per scheme.

    Verify, because a sweep over a trial or two can miss the slope gate.
    Returns (speed-corrected median, raw median, failures).  Each probe is
    corrected by speed samples it takes itself, after its timed part: samples
    taken by this process right after a child exits are erratic.
    """
    argvs = [cli_argv(WORKLOADS["verify"], scheme, seed, 1, 1) for scheme in SCHEMES]
    raw, corrected, failures = [], [], []
    for _ in range(SETUP_PROBES):
        try:
            proc = subprocess.run(
                [sys.executable, "-c", SETUP_PROBE, str(SRC), json.dumps(argvs),
                 str(Path(__file__).resolve().parent)],
                cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S,
            )
            probe = json.loads(proc.stdout.strip().splitlines()[-1])
        except (subprocess.TimeoutExpired, ValueError, IndexError) as exc:
            failures.append(f"set-up probe failed: {exc!r}")
            continue
        if any(code != 0 for code in probe["codes"]):
            failures.append(f"set-up probe exit codes {probe['codes']}")
        raw.append(probe["seconds"])
        corrected.append(probe["seconds"] / (probe["speed"] / CALIB_REF_S))
    if not raw:
        return float("nan"), float("nan"), failures
    return statistics.median(corrected), statistics.median(raw), failures


def peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest child (pool worker or probe)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


# -- the two runs --------------------------------------------------------------


class Outcome:
    """Metrics, the number of scheme runs attempted, and every failed check."""

    def __init__(self) -> None:
        self.metrics: dict[str, tuple[float, str]] = {}
        self.attempted = 0
        self.failures: list[tuple[str, str]] = []

    def add_pass(self, result: Pass) -> None:
        self.attempted += len(result.walls)
        self.failures += result.failures

    def fail(self, where: str, reason: str) -> None:
        self.failures.append((where, reason))


def timed_run(cli, name: str, seed: int, seconds: float) -> Outcome:
    workload = WORKLOADS[name]
    outcome = Outcome()
    setup_s, setup_raw_s, probe_failures = setup_seconds(seed)
    print(f"set-up: {setup_raw_s:.4f} s wall-clock, {setup_s:.4f} s speed-corrected")
    for reason in probe_failures:
        outcome.fail("setup", reason)
    references = (
        thread1_references(cli.main, workload, seed) if workload.threads > 1 else None
    )

    with SpeedProbe(workload.threads) as speed:

        def one_pass() -> Pass:
            result = run_pass(cli.main, workload, seed, workload.threads, workload.trials,
                              references, speed)
            outcome.add_pass(result)
            return result

        one_pass()  # warm-up, checked but not timed
        speed.samples.clear()
        passes: list[Pass] = []
        deadline = time.perf_counter() + seconds
        while len(passes) < MIN_PASSES or time.perf_counter() < deadline:
            passes.append(one_pass())
        speed.sample()  # closes the window of the last run

    # Runs in the order they were made, each with its own speed factor.
    runs = [(scheme, p.walls[scheme]) for p in passes for scheme in SCHEMES]
    slowdowns = speed.slowdowns(len(runs))

    def rate(schemes: list[str]) -> float:
        """Trials over the summed speed-corrected wall of these schemes' timed runs."""
        wall = sum(w / f for (s, w), f in zip(runs, slowdowns) if s in schemes)
        return len(passes) * len(schemes) * workload.trials / wall

    outcome.metrics["trials_per_s"] = (rate(SCHEMES), "1/s")
    for layer in LAYERS:
        schemes = [s for s in SCHEMES if SCHEME_LAYER[s] == layer]
        outcome.metrics[f"trials_per_s.{layer}"] = (rate(schemes), "1/s")
    outcome.metrics["setup_s"] = (setup_s, "s")
    outcome.metrics["peak_rss_mb"] = (peak_rss_mb(), "MB")
    outcome.metrics["pass_frac"] = (1.0 - len(outcome.failures) / outcome.attempted, "fraction")
    raw = len(runs) * workload.trials / sum(w for _, w in runs)
    print(f"timed passes: {len(passes)} of {len(SCHEMES)} CLI runs x {workload.trials} trials; "
          f"wall-clock {raw:.1f} trials/s; machine slowdown median "
          f"{statistics.median(slowdowns):.3f}, range {min(slowdowns):.3f}-{max(slowdowns):.3f}")
    return outcome


def install_layers(alignsim, tracer):
    """Wrap every traced layer; returns the LayerPatch that undoes it."""
    import numpy as np

    from spans import LayerPatch, count_access_log

    patch = LayerPatch(tracer)
    evaluate = alignsim.evaluate
    patch.function("evaluate.simulate_block", evaluate, "simulate_block", count_access_log)
    patch.function("evaluate.noise_transfer_weights", evaluate, "noise_transfer_weights")
    patch.function("evaluate.run_trials", evaluate, "run_trials")
    patch.function("evaluate.estimate_dof", evaluate, "estimate_dof")
    patch.function("channel.generate_channel", alignsim.channel, "generate_channel")
    patch.function("numerics.svd", np.linalg, "svd")
    patch.function("numerics.solve", np.linalg, "solve")
    for scheme_id in SCHEMES:
        scheme = alignsim.registry.SCHEMES.get(scheme_id)
        layer = SCHEME_LAYER[scheme_id]
        for hook in HOOKS:
            label = f"{layer}.{hook}.{scheme_id}"
            if scheme is None:
                patch.absent.append(label)
            else:
                patch.method(label, scheme, hook, label)
    return patch


def layer_metrics(tracer, result: Pass, trials: int) -> dict[str, tuple[float, str]]:
    """Per-trial (value, unit) metrics of one traced pass; cli.overhead_ms is per CLI run."""
    total = len(SCHEMES) * trials
    calls, self_s, events = tracer.calls, tracer.self_s, tracer.events
    discards = sum(r.get("discards", 0) for r in result.results.values())
    metrics = {
        "evaluate.block_runs": (calls["evaluate.simulate_block"] / total, "count"),
        "evaluate.noise_weights_us": (
            self_s["evaluate.noise_transfer_weights"] / total * 1e6, "us"),
        "evaluate.encode_us": (self_s["evaluate.simulate_block"] / total * 1e6, "us"),
        "evaluate.attempts_per_trial": ((total + discards) / total, "ratio"),
        "channel.generate_us": (self_s["channel.generate_channel"] / total * 1e6, "us"),
        "channel.csi_reads": (events["channel.csi_reads"] / total, "count"),
        "channel.output_reads": (events["channel.output_reads"] / total, "count"),
        "numerics.svd_calls": (calls["numerics.svd"] / total, "count"),
        "numerics.solve_calls": (calls["numerics.solve"] / total, "count"),
        "numerics.lapack_us": (
            (self_s["numerics.svd"] + self_s["numerics.solve"]) / total * 1e6, "us"),
        "cli.overhead_ms": (self_s["cli.main"] / len(SCHEMES) * 1e3, "ms"),
    }
    for scheme_id in SCHEMES:
        layer = SCHEME_LAYER[scheme_id]
        metrics[f"{layer}.transmit_calls.{scheme_id}"] = (
            calls[f"{layer}.transmit.{scheme_id}"] / trials, "count")
        for hook in HOOKS:
            metrics[f"{layer}.{hook}_us.{scheme_id}"] = (
                self_s[f"{layer}.{hook}.{scheme_id}"] / trials * 1e6, "us")
    return metrics


def pool_split(alignsim, workload: Workload, seed: int, outcome: Outcome) -> tuple[float, float]:
    """(overhead ms per run_trials call, efficiency) of 2 workers against 1, same trials."""
    run_trials = getattr(alignsim.evaluate, "run_trials", None)
    if run_trials is None:
        print("absent: alignsim.evaluate.run_trials (pool metrics read 0)")
        return 0.0, 0.0
    walls = {1: 0.0, 2: 0.0}
    for scheme in SCHEMES:
        for threads in (1, 2):
            outcome.attempted += 1
            t0 = time.perf_counter()
            try:
                report = run_trials(scheme, workload.trials, seed, threads=threads,
                                    collect_weights=workload.mode == "dof_sweep")
            except Exception:  # reported as a failed run, like a CLI crash
                outcome.fail(f"pool {scheme}", traceback.format_exc().splitlines()[-1])
                continue
            walls[threads] += time.perf_counter() - t0
            if not report.all_decode_ok:
                outcome.fail(f"pool {scheme}", f"decode failed at {threads} workers")
    overhead_ms = (walls[2] - walls[1] / 2) / len(SCHEMES) * 1e3
    return overhead_ms, walls[1] / (2 * walls[2]) if walls[2] > 0 else 0.0


def traced_run(cli, name: str, seed: int, seconds: float) -> Outcome:
    import alignsim.evaluate
    import alignsim.registry
    from spans import Tracer

    workload = WORKLOADS[name]
    trials = workload.trials
    outcome = Outcome()
    tracer = Tracer()
    traced_main = tracer.wrap("cli.main", cli.main)

    outcome.add_pass(run_pass(cli.main, workload, seed, 1, trials))  # warm-up
    plain: list[Pass] = []
    traced: list[tuple[Pass, dict[str, tuple[float, str]], dict[str, int]]] = []
    absent: list[str] = []
    deadline = time.perf_counter() + seconds
    while len(traced) < 2 or time.perf_counter() < deadline:
        plain.append(run_pass(cli.main, workload, seed, 1, trials))
        outcome.add_pass(plain[-1])
        tracer.reset()
        patch = install_layers(alignsim, tracer)
        try:
            result = run_pass(traced_main, workload, seed, 1, trials)
        finally:
            patch.restore()
        absent = patch.absent
        outcome.add_pass(result)
        traced.append((result, layer_metrics(tracer, result, trials),
                       {**tracer.calls, **tracer.events}))

    first = traced[0][2]
    for _, _, counts in traced[1:]:
        changed = sorted(k for k in first.keys() | counts.keys() if first.get(k) != counts.get(k))
        if changed:
            outcome.fail("counts", f"counts differ between traced passes at one seed: {changed}")
    metrics = {
        key: (statistics.median(m[key][0] for _, m, _ in traced), unit)
        for key, (_, unit) in traced[0][1].items()
    }

    overhead_ms, efficiency = pool_split(alignsim, workload, seed, outcome)
    metrics["evaluate.pool_overhead_ms"] = (overhead_ms, "ms")
    metrics["evaluate.pool_efficiency"] = (efficiency, "ratio")

    results = [r for p, _, _ in traced for r in p.results.values()]
    max_rel = max((r["max_rel_symbol_error"] for r in results), default=0.0)
    if workload.mode != "dof_sweep":
        # The slope readout comes from an untimed sweep at the dof_sweep workload's size.
        sweep = WORKLOADS["dof_sweep"]
        probe = run_pass(cli.main, sweep, seed, 1, sweep.trials)
        outcome.add_pass(probe)
        results = list(probe.results.values())
    slope_err = max(
        (abs(r["slope"] - float(Fraction(r["dof_counting"]))) for r in results), default=0.0)
    metrics["evaluate.max_rel_symbol_error"] = (max_rel, "ratio")
    metrics["evaluate.dof_slope_err"] = (slope_err, "ratio")
    if max_rel > DECODE_REL_TOL:
        outcome.fail("readout", f"max_rel_symbol_error {max_rel:.3g} above {DECODE_REL_TOL}")
    if slope_err > DOF_SLOPE_TOL:
        outcome.fail("readout", f"dof_slope_err {slope_err:.3g} above {DOF_SLOPE_TOL}")

    for line in tracer.summary():
        print(line)
    for label in absent:
        print(f"absent: {label} (its metrics read 0)")
    plain_rate = statistics.median(p.trials_per_s(trials) for p in plain)
    traced_rate = statistics.median(p.trials_per_s(trials) for p, _, _ in traced)
    print(f"tracing overhead at --threads 1: untraced {plain_rate:.1f} trials/s, "
          f"traced {traced_rate:.1f} trials/s, ratio {plain_rate / traced_rate:.3f}")
    print(f"traced passes: {len(traced)} of {len(SCHEMES)} CLI runs x {trials} trials")
    outcome.metrics = metrics
    return outcome


# -- entry point ---------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    cli = load_cli()
    print("machine: " + json.dumps(machine_facts(), sort_keys=True))
    seed = args.seed % 2**63  # the CLI takes non-negative seeds
    run = traced_run if args.trace else timed_run
    outcome = run(cli, args.workload, seed, args.seconds)

    for where, reason in outcome.failures:
        print(f"FAILED {where}: {reason}")
    fail_frac = len(outcome.failures) / outcome.attempted
    print(f"fail_frac = {fail_frac:.6g} ({len(outcome.failures)} of {outcome.attempted} runs)")
    for key, (value, unit) in outcome.metrics.items():
        print(f"{key} = {value:.6g} {unit}")
    correct = not outcome.failures
    print(json.dumps({
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": len(outcome.failures),
        "metrics": {key: {"value": value, "unit": unit}
                    for key, (value, unit) in outcome.metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
