"""The report corpus: committed CLI runs with their expected stdout, stderr and exit code.

Each case in :data:`CASES` is one ``alignsim`` command line, and
``tests/golden/<case>.json`` holds what it gave: the exit code, standard
error, and the report on standard output, parsed (``null`` where nothing was
written).  ``tests/test_golden.py`` reruns every case in-process and compares.

Exit codes, keys, integers and strings always match exactly.  Floats match
bit for bit, and standard output byte for byte, when numpy, its BLAS and
the BLAS kernel are those recorded in ``tests/golden/versions.json``.
Elsewhere a float matches within :data:`REL` of the larger magnitude, or
within :data:`FLOOR` for the roundoff-sized keys of :data:`ROUNDOFF_KEY`,
whose healthy values sit near 1e-15 and move with any LAPACK build; a number
inside a message matches to its printed four digits.  Standard error matches
exactly on the recorded Python; on another the CLI's own words, the text
before the second ``": "``, must match, since the rest may quote Python's own
messages.

Regenerate every file after a stated report change with::

    python tests/_golden.py
"""

from __future__ import annotations

import contextlib
import ctypes
import io
import json
import platform
import re
import sys
from pathlib import Path

import numpy as np

GOLDEN = Path(__file__).parent / "golden"
INPUTS = GOLDEN / "inputs"

#: Relative bound on a float off the recorded numpy and BLAS versions.
REL = 1e-6
#: Absolute floor for the keys below, and for numbers printed in messages.
FLOOR = 1e-11
#: Keys whose values are roundoff: zero-forcing residuals, decode errors, leakage.
ROUNDOFF_KEY = re.compile(r"zf_residual_rx\d+|max_rel_symbol_error|leakage_power_ratio")
#: Numbers as the CLI prints them inside messages, to four significant digits.
_PRINTED = re.compile(r"-?\d\.\d{3}e[-+]\d+")

SCHEMES = ("bc_mat", "ic3_output_fb", "ic3_retro_csit", "x_output_fb", "x_retro_csit")
_GRID = ["--snr-grid", "40,50,60,70"]

CASES: dict[str, list[str]] = {}
for _scheme in SCHEMES:
    _run = ["--scheme", _scheme, "--seed", "0", "--threads", "1"]
    CASES[f"verify-{_scheme}"] = [*_run, "--mode", "verify", "--trials", "40"]
    CASES[f"dof_sweep-{_scheme}"] = [*_run, "--mode", "dof_sweep", "--trials", "40", *_GRID]
    # every attempt singular: exit 3 naming the last discard
    CASES[f"tol_rank_0.999-{_scheme}"] = [*_run, "--trials", "1", "--tol-rank", "0.999"]
    # every residual over the cutoff: exit 3 naming trial 0
    CASES[f"tol_residual_1e-17-{_scheme}"] = [*_run, "--trials", "5", "--tol-residual", "1e-17"]
    # the discard counts that tier-1's tests read
    for _tol in ("0.003", "0.01"):
        CASES[f"discards-{_scheme}-{_tol}"] = [
            "--scheme", _scheme, "--mode", "verify", "--trials", "130", "--seed", "7",
            "--threads", "1", "--tol-rank", _tol,
        ]
# the lowest failing trial of the CI's tight-residual run
CASES["tol_residual_1e-13-ic3_retro_csit-300"] = [
    "--scheme", "ic3_retro_csit", "--mode", "verify", "--trials", "300", "--seed", "3",
    "--threads", "1", "--tol-residual", "1e-13",
]
# the CI's tight-residual runs at seed 0: their largest healthy residuals, and
# the first x_retro_csit trial to leak past 1e-12
for _scheme in ("ic3_retro_csit", "x_retro_csit"):
    CASES[f"tol_residual_1e-12-{_scheme}-300"] = [
        "--scheme", _scheme, "--mode", "verify", "--trials", "300", "--seed", "0",
        "--threads", "1", "--tol-residual", "1e-12",
    ]
CASES["tol_residual_1e-12-x_retro_csit-3239"] = [
    "--scheme", "x_retro_csit", "--mode", "verify", "--trials", "3239", "--seed", "0",
    "--threads", "1", "--tol-residual", "1e-12",
]
# the lowest trial out of attempts in the CI's two-worker failure run
CASES["tol_rank_0.05-ic3_output_fb-400"] = [
    "--scheme", "ic3_output_fb", "--mode", "verify", "--trials", "400", "--seed", "7",
    "--threads", "1", "--tol-rank", "0.05",
]
# the discard counts of the CI's two-worker sweeps that rerun discarded draws
for _scheme, _trials, _tol in (("ic3_output_fb", "400", "0.02"), ("x_output_fb", "1400", "0.05")):
    CASES[f"dof_sweep_discards-{_scheme}-{_trials}"] = [
        "--scheme", _scheme, "--mode", "dof_sweep", "--trials", _trials, "--seed", "7",
        "--threads", "1", "--tol-rank", _tol, *_GRID,
    ]
CASES.update({
    "usage-unknown_scheme": ["--scheme", "nope"],
    "usage-bad_trials": ["--scheme", "bc_mat", "--trials", "abc"],
    "usage-mode_audit": ["--scheme", "bc_mat", "--mode", "audit"],
    "usage-bad_config_value": ["--config", "{inputs}/bad_value.json"],
    "usage-non_utf8_config": ["--config", "{inputs}/non_utf8.json"],
    "usage-long_integer_config": ["--config", "{inputs}/long_integer.json"],
    "usage-deep_config": ["--config", "{inputs}/deep.json"],
    "usage-nul_out": ["--config", "{inputs}/nul_out.json"],
    "usage-out_empty": ["--config", "{inputs}/out_empty.json"],
    "usage-out_directory": ["--config", "{inputs}/out_directory.json"],
    "usage-out_missing_directory": ["--config", "{inputs}/out_missing_directory.json"],
    "usage-grid_past_float_range": ["--config", "{inputs}/grid_past_float_range.json"],
    "usage-out_surrogate": ["--config", "{inputs}/out_surrogate.json"],
    "usage-out_name_too_long": ["--config", "{inputs}/out_name_too_long.json"],
})


def _blas_kernel() -> str | None:
    """The kernel of numpy's bundled OpenBLAS (``None`` where that library or its query is missing).

    scipy-openblas picks its kernel for the CPU at run time, or as
    ``OPENBLAS_CORETYPE`` says, and the kernel moves the last bits of LAPACK's
    results.  The library is the one numpy loaded, so this is the kernel its runs use.
    """
    for path in (Path(np.__file__).parent.parent / "numpy.libs").glob("libscipy_openblas64_*.so"):
        try:
            corename = ctypes.CDLL(str(path)).scipy_openblas_get_corename64_
        except (OSError, AttributeError):
            return None
        corename.argtypes, corename.restype = (), ctypes.c_char_p
        return corename().decode()
    return None


def versions() -> dict[str, str | None]:
    """The Python, numpy, BLAS and BLAS kernel a report depends on (``None`` if unknown)."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas = None
    return {"python": ".".join(platform.python_version_tuple()[:2]), "numpy": np.__version__,
            "blas": blas, "blas_kernel": _blas_kernel()}


def recorded(name: str) -> dict:
    """The committed file of case ``name``: argv, exit code, stderr and the parsed report."""
    return json.loads((GOLDEN / f"{name}.json").read_text())


def run(name: str) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of case ``name`` through ``alignsim.cli.main``, in-process."""
    from alignsim.cli import main

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([part.format(inputs=INPUTS) for part in CASES[name]])
    return code, out.getvalue(), err.getvalue()


def render(doc) -> str:
    """``doc`` as the CLI renders a report: sorted keys, floats at 17 significant digits."""
    if isinstance(doc, float):
        return "%.17g" % doc
    if isinstance(doc, dict):
        return "{" + ",".join(json.dumps(k) + ":" + render(doc[k]) for k in sorted(doc)) + "}"
    if isinstance(doc, list):
        return "[" + ",".join(map(render, doc)) + "]"
    return json.dumps(doc)


def _close(a: float, b: float, rel: float, floor: float) -> bool:
    return abs(a - b) <= max(rel * max(abs(a), abs(b)), floor)


def differences(expected, actual, key: str = "") -> list[str]:
    """Where ``actual`` departs from ``expected`` beyond the cross-version bounds, by key path."""
    if isinstance(expected, dict) and isinstance(actual, dict):
        if expected.keys() != actual.keys():
            return [f"{key}: keys {sorted(expected)} != {sorted(actual)}"]
        return [d for k in expected for d in differences(expected[k], actual[k], f"{key}.{k}")]
    if isinstance(expected, list) and isinstance(actual, list) and len(expected) == len(actual):
        return [d for i, (e, a) in enumerate(zip(expected, actual))
                for d in differences(e, a, f"{key}[{i}]")]
    numbers = (int, float)
    if (isinstance(expected, numbers) and isinstance(actual, numbers)
            and not isinstance(expected, bool) and not isinstance(actual, bool)):
        if isinstance(expected, int) and isinstance(actual, int):
            same = expected == actual
        else:
            leaf = key.rsplit(".", 1)[-1].split("[")[0]
            same = _close(expected, actual, REL, FLOOR if ROUNDOFF_KEY.fullmatch(leaf) else 0.0)
    elif isinstance(expected, str) and isinstance(actual, str):
        parts = _PRINTED.split(expected), _PRINTED.split(actual)
        printed = _PRINTED.findall(expected), _PRINTED.findall(actual)
        # one unit in the fourth digit is at most 1e-3 of the number
        same = parts[0] == parts[1] and len(printed[0]) == len(printed[1]) and all(
            _close(float(e), float(a), 1e-3, FLOOR) for e, a in zip(*printed)
        )
    else:
        same = type(expected) is type(actual) and expected == actual
    return [] if same else [f"{key}: expected {expected!r}, got {actual!r}"]


def main() -> None:
    for stale in GOLDEN.glob("*.json"):
        if stale.name != "versions.json":
            stale.unlink()
    for name in CASES:
        code, out, err = run(name)
        # the report parsed, so that a regeneration's diff shows each moved key
        case = {"argv": CASES[name], "exit": code, "stderr": err,
                "stdout": json.loads(out) if out else None}
        (GOLDEN / f"{name}.json").write_text(json.dumps(case, indent=1, sort_keys=True) + "\n")
        print(f"{name}: exit {code}", file=sys.stderr)
    (GOLDEN / "versions.json").write_text(json.dumps(versions(), indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).parent.parent / "src"))
    main()
