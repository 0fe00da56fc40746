"""Command line front end.

Two modes over the same deterministic engine:

* ``verify``: run noiseless trials, require exact decoding, and report the
  decoder's certificates and which slots had their channel states read.
  The decoder judges the certificates; a failed one, a read the feedback
  model does not grant (an output read outside the association included)
  and a read over the scheme's CSI budget stop the run with exit code 3.
* ``dof_sweep``: fit the sum-rate slope over an SNR grid and compare it
  against the exact symbols-per-slot count.

Outputs are schema-stable: JSON is rendered with sorted keys and floats at
17 significant digits, so identical configs produce byte-identical files.
Exit codes: 0 all assertions passed, 1 an assertion failed, 2 usage error
or a report that could not be produced (an output file that cannot be
opened, standard output closed before the report was out, or a worker
process that exited before sending its trials), 3 a scheme invariant broke
(certificate or causality failure).  Every nonzero exit writes at most
one line to standard error.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
from dataclasses import asdict, dataclass
from fractions import Fraction

import numpy as np

from .channel import CausalityViolation
from .evaluate import (
    TRIALS_PER_WORKER, SchemeFailure, dof_by_counting, estimate_dof, run_trials, validate_snr_grid,
)
from .numerics import Tolerances
from .registry import SCHEMES, get_scheme

__all__ = ["UsageError", "RunConfig", "parse_config", "run", "main"]

FORMATS = ("json", "csv")

#: Acceptance bands for dof_sweep mode.
DOF_SLOPE_TOL = 0.05
DOF_R2_MIN = 0.999
#: Largest accepted leaked-to-desired power ratio of the noiseless decodes.
LEAKAGE_RATIO_MAX = 1e-12


class UsageError(Exception):
    """Bad flags or config file; maps to exit code 2."""


@dataclass
class RunConfig:
    """Fully resolved run description (flags override config file values)."""

    scheme: str
    mode: str = "verify"
    trials: int = 100
    seed: int = 0
    snr_grid_db: list[float] | None = None
    tol_rank: float = Tolerances.rank_rel
    tol_residual: float = Tolerances.residual_rel
    out: str | None = None
    format: str = "json"
    threads: int = 0  # 0: no bound beyond the usable CPUs and the trial count

    def tolerances(self) -> Tolerances:
        try:
            return Tolerances(rank_rel=self.tol_rank, residual_rel=self.tol_residual)
        except ValueError as exc:
            raise UsageError(str(exc)) from None


_NUMBER = (int, float)

#: Accepted JSON types of each config-file key (``bool`` is never a number).
_CONFIG_TYPES = {
    "scheme": (str,), "mode": (str,), "format": (str,), "out": (str, type(None)),
    "trials": (int,), "seed": (int,), "threads": (int,), "snr_grid_db": (list, type(None)),
    "tol_rank": _NUMBER, "tol_residual": _NUMBER,
}


class _Parser(argparse.ArgumentParser):
    """Reports a bad flag as a :class:`UsageError`, like every other usage error."""

    def error(self, message: str):
        raise UsageError(message)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="alignsim",
        description="Simulate and verify delayed-feedback interference alignment schemes.",
    )
    parser.add_argument("--scheme", choices=sorted(SCHEMES), help="scheme identifier")
    parser.add_argument("--mode", choices=MODES, help="what to run (default verify)")
    parser.add_argument("--trials", type=int, help="number of Monte Carlo trials")
    parser.add_argument("--seed", type=int, help="base seed for the trial tree")
    parser.add_argument(
        "--snr-grid",
        dest="snr_grid_db",
        metavar="SNR_GRID",
        type=_parse_snr_grid,
        help="comma-separated SNR grid in dB (dof_sweep mode only), e.g. 40,50,60,70",
    )
    parser.add_argument(
        "--tol-rank", type=float,
        help="receive_cond_rx* cutoff: a draw whose receive matrix has s_min/s_max at or below "
        "it, or is not finite, is singular, and is discarded and resampled",
    )
    parser.add_argument(
        "--tol-residual", type=float,
        help="zf_residual_rx* cutoff: a zero-forcing residual above it fails the run (exit 3)",
    )
    parser.add_argument("--out", help="output file path (default: stdout)")
    parser.add_argument("--format", choices=FORMATS, help="output format (default json)")
    parser.add_argument(
        "--threads",
        type=int,
        help="parallel workers, capped at one per usable CPU and one per "
        f"{TRIALS_PER_WORKER} trials (default: 0, as many as those caps allow)",
    )
    parser.add_argument("--config", help="JSON config file; explicit flags override it")
    return parser


def _parse_snr_grid(text: str) -> list[float]:
    try:
        grid = [float(part) for part in text.split(",") if part.strip() != ""]
    except ValueError as exc:
        raise UsageError(f"bad SNR grid {text!r}: {exc}") from None
    if not grid:
        raise UsageError("SNR grid is empty")
    return grid


def parse_config(argv: list[str] | None = None) -> RunConfig:
    """Merge defaults, config file and command line flags into a RunConfig."""
    flags = vars(_PARSER.parse_args(argv))
    config_path = flags.pop("config")
    values: dict[str, object] = {}
    if config_path is not None:
        try:
            with open(config_path, "r", encoding="utf-8") as fh:
                file_values = json.load(fh)
        except OSError as exc:
            raise UsageError(f"cannot read config file: {exc}") from None
        except json.JSONDecodeError as exc:
            raise UsageError(f"config file is not valid JSON: {exc}") from None
        if not isinstance(file_values, dict):
            raise UsageError("config file must hold a JSON object")
        for key, value in file_values.items():
            _check_config_type(key, value)
        values.update(file_values)
    values.update({key: value for key, value in flags.items() if value is not None})
    if "scheme" not in values:
        raise UsageError("a scheme must be given (--scheme or config file)")
    try:
        config = RunConfig(**values)
    except TypeError as exc:
        raise UsageError(str(exc)) from None
    _validate(config)
    return config


def _check_config_type(key: str, value) -> None:
    if key not in _CONFIG_TYPES:
        raise UsageError(f"unknown config key {key!r}")
    allowed = _CONFIG_TYPES[key]
    if isinstance(value, bool) or not isinstance(value, allowed):
        names = " or ".join("null" if t is type(None) else t.__name__ for t in allowed)
        raise UsageError(f"config key {key!r} must be {names}, got {json.dumps(value)}")
    if key == "snr_grid_db" and value is not None:
        for point in value:
            if isinstance(point, bool) or not isinstance(point, _NUMBER):
                raise UsageError(f"SNR grid points must be numbers, got {json.dumps(point)}")


def _validate(config: RunConfig) -> None:
    try:
        get_scheme(config.scheme)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    if config.mode not in MODES:
        raise UsageError(f"unknown mode {config.mode!r}; choose from {', '.join(MODES)}")
    if config.format not in FORMATS:
        raise UsageError(f"unknown format {config.format!r}")
    if config.trials < 1:
        raise UsageError("trials must be at least 1")
    if config.seed < 0:
        raise UsageError(f"seed must be non-negative, got {config.seed}")
    if config.threads < 0:
        raise UsageError(f"threads must be non-negative, got {config.threads}")
    if config.mode == "dof_sweep":
        if not config.snr_grid_db:
            raise UsageError("dof_sweep mode requires an SNR grid (--snr-grid)")
        try:
            validate_snr_grid(config.snr_grid_db)
        except ValueError as exc:
            raise UsageError(str(exc)) from None
    elif config.snr_grid_db:
        raise UsageError(f"mode {config.mode!r} does not take an SNR grid")
    if config.format == "csv" and config.mode != "dof_sweep":
        raise UsageError("csv output is only available in dof_sweep mode")
    config.tolerances()


# -- stable serialization ---------------------------------------------------


def _render_json(obj) -> str:
    """Deterministic JSON: sorted keys, floats at 17 significant digits."""
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        if not math.isfinite(obj):
            raise ValueError(f"cannot serialize non-finite float {obj!r}")
        return "%.17g" % obj
    if isinstance(obj, Fraction):
        return json.dumps(str(obj))
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(_render_json(item) for item in obj) + "]"
    if isinstance(obj, dict):
        parts = []
        for key in sorted(obj):
            if not isinstance(key, str):
                raise TypeError(f"JSON object keys must be strings, got {key!r}")
            parts.append(json.dumps(key) + ":" + _render_json(obj[key]))
        return "{" + ",".join(parts) + "}"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


# -- modes -------------------------------------------------------------------


def _mode_verify(config: RunConfig) -> tuple[dict, bool]:
    scheme = get_scheme(config.scheme)
    report = run_trials(
        config.scheme, config.trials, config.seed, tol=config.tolerances(), threads=config.threads
    )
    outcomes = report.outcomes
    decode_ok = int(np.count_nonzero(outcomes.decode_ok))
    results = {
        "trials": config.trials,
        "discards": len(report.discards),
        "csi_slot_indices": outcomes.csi_slots,
        "csi_slot_fraction": Fraction(len(outcomes.csi_slots), scheme.num_slots),
        "decode_ok": decode_ok,
        "max_rel_symbol_error": report.max_rel_symbol_error,
        "certificate_extrema": {
            key: [float(np.min(values)), float(np.max(values))]
            for key, values in outcomes.certificates.items()
        },
    }
    return results, decode_ok == config.trials


def _mode_dof_sweep(config: RunConfig) -> tuple[dict, bool]:
    scheme = get_scheme(config.scheme)
    estimate = estimate_dof(
        config.scheme,
        config.snr_grid_db,
        config.trials,
        config.seed,
        tol=config.tolerances(),
        threads=config.threads,
    )
    counting = dof_by_counting(scheme)
    leakage_ratio = estimate.max_rel_symbol_error**2
    results = {
        "snr_grid_db": estimate.snr_grid_db,
        "sum_rates": estimate.sum_rates,
        "slope": estimate.slope,
        "intercept": estimate.intercept,
        "r_squared": estimate.r_squared,
        "dof_counting": counting,
        "dof_counting_float": float(counting),
        "trials_per_point": estimate.trials_per_point,
        "discards": estimate.discards,
        "max_rel_symbol_error": estimate.max_rel_symbol_error,
        "leakage_power_ratio": leakage_ratio,
    }
    passed = (
        abs(estimate.slope - float(counting)) <= DOF_SLOPE_TOL
        and estimate.r_squared >= DOF_R2_MIN
        # leaked power relative to desired is the same at every message
        # scale, so one noiseless figure bounds it across the whole grid
        and leakage_ratio < LEAKAGE_RATIO_MAX
    )
    return results, passed


#: Each mode's runner, in the order ``--help`` lists the modes.
MODES = {"verify": _mode_verify, "dof_sweep": _mode_dof_sweep}

#: Built once per process (it reads ``MODES``); a parse leaves it unchanged,
#: so every ``main`` call shares it.
_PARSER = _build_parser()


def _render_csv(config: RunConfig, results: dict) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["snr_db", "sum_rate", "trials", "discards"])
    for point, rate in zip(results["snr_grid_db"], results["sum_rates"]):
        writer.writerow(
            [
                "%.17g" % point,
                "%.17g" % rate,
                results["trials_per_point"],
                results["discards"],
            ]
        )
    return buffer.getvalue()


def _emit(config: RunConfig, text: str) -> None:
    if config.out is None:
        try:
            sys.stdout.write(text)
            if not text.endswith("\n"):
                sys.stdout.write("\n")
            sys.stdout.flush()
        except BrokenPipeError:
            # the reader went away; with stdout on the null device, the
            # interpreter's last flush of what is still buffered cannot fail
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
            raise UsageError("cannot write the report: standard output was closed") from None
    else:
        try:
            with open(config.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise UsageError(f"cannot write output file: {exc}") from None


def run(config: RunConfig) -> int:
    """Execute one configured run; returns the process exit code."""
    try:
        results, passed = MODES[config.mode](config)
    except (SchemeFailure, CausalityViolation) as exc:
        error_doc = {
            "config": asdict(config),
            "error": {"type": type(exc).__name__, "message": str(exc)},
            "pass": False,
        }
        _emit(config, _render_json(error_doc))
        return 3
    if config.format == "csv":
        _emit(config, _render_csv(config, results))
    else:
        document = {
            "config": asdict(config),
            "results": results,
            "pass": passed,
        }
        _emit(config, _render_json(document))
    return 0 if passed else 1


def main(argv: list[str] | None = None) -> int:
    try:
        return run(parse_config(argv))
    except (UsageError, ChildProcessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
