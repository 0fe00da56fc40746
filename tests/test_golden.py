"""Every run of the report corpus gives what ``tests/golden/`` recorded (see ``_golden``)."""

import json

import pytest

from _golden import CASES, GOLDEN, differences, recorded, render, run, versions

RECORDED = json.loads((GOLDEN / "versions.json").read_text())
CURRENT = versions()
#: Floats bit for bit, and stdout byte for byte, only on the recorded numpy and BLAS.
SAME_NUMERICS = CURRENT["blas"] is not None and all(
    CURRENT[key] == RECORDED[key] for key in ("numpy", "blas")
)


def test_every_case_has_one_file():
    files = {path.stem for path in GOLDEN.glob("*.json")} - {"versions"}
    assert files == set(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_the_run_gives_its_recorded_report(name):
    expected = recorded(name)
    assert expected["argv"] == CASES[name]
    code, out, err = run(name)
    assert code == expected["exit"]
    if CURRENT["python"] == RECORDED["python"]:
        assert err == expected["stderr"]
    else:
        # past the CLI's own words a message may quote Python's
        assert err.split(": ")[:2] == expected["stderr"].split(": ")[:2]
        assert err.count("\n") == expected["stderr"].count("\n")
    report = expected["stdout"]
    if SAME_NUMERICS:
        assert out == ("" if report is None else render(report) + "\n")
    else:
        assert differences(report, json.loads(out) if out else None) == []


def test_the_cross_version_comparison_keeps_its_bounds():
    # off the recorded versions the floats are compared by bounds, which this
    # machine's runs never reach; the bounds must still hold on a moved report
    report = recorded("dof_sweep-ic3_retro_csit")["stdout"]
    assert differences(report, report) == []

    def moved(key, value):
        doc = json.loads(json.dumps(report))
        doc["results"][key] = value
        return differences(report, doc)

    results = report["results"]
    assert moved("max_rel_symbol_error", results["max_rel_symbol_error"] + 1e-12) == []
    assert moved("max_rel_symbol_error", 1e-10) != []
    assert moved("slope", results["slope"] * (1 + 1e-7)) == []
    assert moved("slope", results["slope"] * (1 + 1e-5)) != []
    assert moved("discards", results["discards"] + 1) != []
    flipped = json.loads(json.dumps(report))
    flipped["pass"] = 1
    assert differences(report, flipped) != []
    message = "trial 0: condition number 6.465e+02 exceeds 1.0e+00"
    assert differences(message, message.replace("6.465e+02", "6.466e+02")) == []
    assert differences(message, message.replace("6.465e+02", "7.008e+02")) != []
    assert differences(message, message.replace("trial 0", "trial 1")) != []
