"""Tiny-length smoke test of the benchmark.

    python3 -m pytest -q perfbench/test_smoke.py

Runs every workload, timed and traced, at a few trials per scheme and checks
that the printed metrics are exactly the ones BENCHMARK.json names.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from spans import LayerPatch, Tracer  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
TINY = {
    "verify": run.Workload("verify", 2, 1),
    "dof_sweep": run.Workload("dof_sweep", 4, 1),
    "verify_pool2": run.Workload("verify", 4, 2),
}


@pytest.fixture
def tiny(monkeypatch):
    for name, workload in TINY.items():
        monkeypatch.setitem(run.WORKLOADS, name, workload)
    monkeypatch.setattr(run, "SETUP_PROBES", 1)


def _run(capsys, *argv: str) -> tuple[int, dict]:
    code = run.main(list(argv))
    last = capsys.readouterr().out.strip().splitlines()[-1]
    return code, json.loads(last)


def test_spec_names_every_workload():
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(run.WORKLOADS)


@pytest.mark.parametrize("workload", sorted(TINY))
@pytest.mark.parametrize("trace", ["0", "1"])
def test_workload_prints_every_metric(tiny, capsys, workload, trace):
    code, doc = _run(capsys, "--workload", workload, "--seed", "3", "--seconds", "0", "--trace", trace)
    assert code == 0 and doc["correct"] and doc["failed"] == 0 and doc["attempted"] >= 5
    listed = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in doc["metrics"].items()} == {
        m["name"]: m["unit"] for m in listed
    }


def test_traced_counts(tiny, capsys):
    _, doc = _run(capsys, "--workload", "verify", "--seed", "0", "--seconds", "0", "--trace", "1")
    metrics = {name: m["value"] for name, m in doc["metrics"].items()}
    assert metrics["evaluate.block_runs"] == 1.0
    assert metrics["evaluate.noise_weights_us"] == 0.0
    assert metrics["channel.csi_reads"] == pytest.approx((60 + 24 + 8) / 5)


def test_failed_checks_are_reported():
    workload = run.WORKLOADS["verify"]
    reason, _ = run.check_run(workload, 2, 1, '{"pass":false}', "", None)
    assert reason.startswith("exit code 1")
    reason, _ = run.check_run(workload, 2, 0, '{"pass":false,"results":{}}', "", None)
    assert reason == '"pass" is not true'
    reason, _ = run.check_run(workload, 2, 0, '{"pass":true,"results":{"decode_ok":1}}', "", None)
    assert reason == "decode_ok 1 != trials 2"
    report = '{"pass":true,"results":{"decode_ok":2,"x":0.1}}'
    reason, _ = run.check_run(workload, 2, 0, report, "", {"decode_ok": 2, "x": "0.10"})
    assert reason == "results differ from the --threads 1 run of the same seed"


def test_absent_hook_is_reported_not_raised():
    class Scheme:
        def transmit(self):
            return 1

    scheme, tracer = Scheme(), Tracer()
    patch = LayerPatch(tracer)
    patch.method("m.transmit.s", scheme, "transmit", "m.transmit.s")
    patch.method("m.decode_context.s", scheme, "decode_context", "m.decode_context.s")
    assert scheme.transmit() == 1 and tracer.calls["m.transmit.s"] == 1
    assert patch.absent == ["m.decode_context.s"]
    patch.restore()
    assert "transmit" not in vars(scheme)


def test_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "verify", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
