import contextlib
import io
import json
import math
import os
import re
import signal
import subprocess
import sys
import threading
import time
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fractions import Fraction

import numpy as np

import alignsim.cli as cli
import alignsim.evaluate as evaluate
import alignsim.retro_csit_ic3 as retro_csit_ic3
import alignsim.retro_csit_x as retro_csit_x
from alignsim.base import OutputPayload
from alignsim.cli import RunConfig, UsageError, _render_json, main, parse_config, run
from alignsim.evaluate import SchemeFailure
from alignsim.output_feedback import BcMatScheme, IC3OutputFeedbackScheme, XOutputFeedbackScheme
from alignsim.registry import SCHEMES


#: SNR grids the CLI refuses with exit 2, and a word of each message.
BAD_SNR_GRIDS = [
    ("nan,50", "finite"),
    ("inf,50", "finite"),
    ("50,50", "distinct"),
    # distinct, but too close for the slope fit, which would raise
    ("0,1e-270", "1e-06 dB apart or more"),
    ("40,40.0000005,70", "1e-06 dB apart or more"),
    ("40,5000", "within"),
    ("40", "two points"),
]


class TestParseConfig:
    def test_defaults(self):
        config = parse_config(["--scheme", "bc_mat"])
        assert config.mode == "verify"
        assert config.trials == 100
        assert config.seed == 0
        assert config.format == "json"
        assert config.threads == 0

    def test_flags_override_config_file(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"scheme": "bc_mat", "trials": 7, "seed": 3}))
        config = parse_config(["--config", str(path), "--trials", "9"])
        assert config.trials == 9
        assert config.seed == 3
        assert config.scheme == "bc_mat"

    def test_unknown_config_key_is_named(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"scheme": "bc_mat", "trails": 5}))
        with pytest.raises(UsageError, match="trails"):
            parse_config(["--config", str(path)])

    def test_missing_config_file(self):
        with pytest.raises(UsageError, match="cannot read"):
            parse_config(["--scheme", "bc_mat", "--config", "/nonexistent/x.json"])

    def test_scheme_required(self):
        with pytest.raises(UsageError, match="scheme"):
            parse_config([])

    def test_snr_grid_only_in_dof_sweep(self):
        with pytest.raises(UsageError, match="does not take"):
            parse_config(["--scheme", "bc_mat", "--snr-grid", "40,50"])
        with pytest.raises(UsageError, match="requires an SNR grid"):
            parse_config(["--scheme", "bc_mat", "--mode", "dof_sweep"])

    def test_snr_grid_needs_two_points(self):
        with pytest.raises(UsageError, match="two points"):
            parse_config(["--scheme", "bc_mat", "--mode", "dof_sweep", "--snr-grid", "40"])

    def test_bad_snr_grid_text(self):
        with pytest.raises(UsageError, match="bad SNR grid"):
            parse_config(
                ["--scheme", "bc_mat", "--mode", "dof_sweep", "--snr-grid", "40,abc"]
            )

    def test_csv_only_in_dof_sweep(self):
        with pytest.raises(UsageError, match="csv"):
            parse_config(["--scheme", "bc_mat", "--format", "csv"])

    def test_bad_tolerance(self):
        with pytest.raises(UsageError):
            parse_config(["--scheme", "bc_mat", "--tol-rank", "2.0"])

    def test_trials_must_be_positive(self):
        with pytest.raises(UsageError, match="trials"):
            parse_config(["--scheme", "bc_mat", "--trials", "0"])

    def test_resolved_threads(self):
        # the CLI passes --threads through; the batch plan resolves 0
        config = parse_config(["--scheme", "bc_mat", "--threads", "3"])
        assert config.threads == 3
        config = parse_config(["--scheme", "bc_mat"])
        assert config.threads == 0
        workers = len(evaluate._batch_plan(10**6, config.threads))
        assert workers == evaluate._usable_cpus() >= 1


class TestRenderJson:
    def test_sorted_keys_and_fraction(self):
        text = _render_json({"b": Fraction(3, 7), "a": 1})
        assert text == '{"a":1,"b":"3/7"}'

    def test_float_precision_round_trips(self):
        value = 1.0 / 3.0
        assert json.loads(_render_json({"x": value}))["x"] == value

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            _render_json({"x": math.inf})

    def test_rejects_non_string_keys(self):
        with pytest.raises(TypeError):
            _render_json({1: "a"})

    def test_nested_containers_and_none(self):
        assert _render_json({"a": [1, (2.5, None)], "b": True}) == '{"a":[1,[2.5,null]],"b":true}'


def _run_main(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestVerifyMode:
    def test_verify_passes_and_reports(self, capsys):
        code, out, _ = _run_main(
            capsys,
            ["--scheme", "x_output_fb", "--trials", "5", "--seed", "1", "--threads", "1"],
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["pass"] is True
        assert doc["results"]["decode_ok"] == 5
        assert doc["results"]["csi_slot_indices"] == []
        assert doc["config"]["scheme"] == "x_output_fb"
        assert sorted(doc["results"]) == [
            "certificate_extrema", "csi_slot_fraction", "csi_slot_indices", "decode_ok",
            "discards", "max_rel_symbol_error", "trials",
        ]

    def test_output_is_byte_stable(self, capsys):
        argv = ["--scheme", "bc_mat", "--trials", "4", "--seed", "9", "--threads", "1"]
        _, out1, _ = _run_main(capsys, argv)
        _, out2, _ = _run_main(capsys, argv)
        assert out1 == out2

    def test_out_file(self, capsys, tmp_path):
        path = tmp_path / "report.json"
        code, out, _ = _run_main(
            capsys,
            [
                "--scheme", "bc_mat", "--trials", "2", "--seed", "0",
                "--threads", "1", "--out", str(path),
            ],
        )
        assert code == 0
        assert out == ""
        doc = json.loads(path.read_text())
        assert doc["results"]["trials"] == 2

    def test_verify_reports_certificate_extrema(self, capsys):
        code, out, _ = _run_main(
            capsys,
            ["--scheme", "x_retro_csit", "--trials", "3", "--seed", "2", "--threads", "1"],
        )
        assert code == 0
        extrema = json.loads(out)["results"]["certificate_extrema"]
        assert extrema["receive_cond_rx0"][0] > 1e-8
        assert extrema["zf_residual_rx1"][1] <= 1e-8
        assert sorted(extrema) == [
            "receive_cond_rx0", "receive_cond_rx1", "zf_residual_rx0", "zf_residual_rx1"
        ]


class TestAuditMode:
    """The audit of the transmitters' reads, which ``verify`` makes: the former
    audit mode's cases, and that mode now a usage error."""

    def test_audit_mode_is_a_usage_error(self, capsys):
        code, out, err = _run_main(capsys, ["--scheme", "bc_mat", "--mode", "audit"])
        assert code == 2 and out == ""
        assert err.startswith("error: argument --mode: invalid choice: 'audit' ")
        assert err.count("\n") == 1

    def test_x_scheme_fraction_is_exactly_three_sevenths(self, capsys):
        code, out, _ = _run_main(
            capsys,
            [
                "--scheme", "x_retro_csit", "--mode", "verify",
                "--trials", "3", "--seed", "0", "--threads", "1",
            ],
        )
        assert code == 0
        results = json.loads(out)["results"]
        assert results["csi_slot_fraction"] == "3/7"
        assert results["csi_slot_indices"] == [0, 1, 2]

    def test_ic3_scheme_fraction_at_most_five_eighths(self, capsys):
        code, out, _ = _run_main(
            capsys,
            [
                "--scheme", "ic3_retro_csit", "--mode", "verify",
                "--trials", "3", "--seed", "0", "--threads", "1",
            ],
        )
        assert code == 0
        results = json.loads(out)["results"]
        assert results["csi_slot_fraction"] == "5/8"
        assert Fraction(results["csi_slot_fraction"]) <= Fraction(5, 8)

    def test_output_feedback_audit(self, capsys):
        code, out, _ = _run_main(
            capsys,
            [
                "--scheme", "ic3_output_fb", "--mode", "verify",
                "--trials", "3", "--seed", "0", "--threads", "1",
            ],
        )
        assert code == 0
        results = json.loads(out)["results"]
        assert results["csi_slot_fraction"] == "0"
        assert results["csi_slot_indices"] == []
        assert json.loads(out)["pass"] is True

    def test_over_budget_reads_exit_3(self, capsys, monkeypatch):
        # the run stops on an over-budget read before verify reports
        class OverBudget(BcMatScheme):
            csi_slot_budget = Fraction(1, 3)

        monkeypatch.setitem(SCHEMES, "bc_mat", OverBudget())
        code, out, err = _run_main(
            capsys, ["--scheme", "bc_mat", "--mode", "verify", "--trials", "3", "--threads", "1"]
        )
        assert code == 3 and err == ""
        error = json.loads(out)["error"]
        assert error["type"] == "SchemeFailure"
        assert error["message"] == (
            "bc_mat trial 0: transmitters read channel states of slots [0, 1], above the "
            "budget 1/3"
        )

    def test_output_read_outside_the_association_exits_3(self, capsys, monkeypatch):
        # transmitter 1 replays receiver 0's output, which is not fed back to it
        class Leaky(IC3OutputFeedbackScheme):
            schedule = (
                *IC3OutputFeedbackScheme.schedule[:3],
                (None, OutputPayload(rx=0, slot=1), OutputPayload(rx=2, slot=0)),
                IC3OutputFeedbackScheme.schedule[4],
            )

        monkeypatch.setitem(SCHEMES, "ic3_output_fb", Leaky())
        code, out, err = _run_main(
            capsys,
            ["--scheme", "ic3_output_fb", "--mode", "verify", "--trials", "3", "--threads", "1"],
        )
        assert code == 3 and err == ""
        assert json.loads(out)["error"] == {
            "type": "CausalityViolation",
            "message": "output of receiver 0 is not fed back to transmitter 1",
        }


class TestDofSweepMode:
    def test_high_snr_grid_passes(self, capsys):
        code, out, _ = _run_main(
            capsys,
            [
                "--scheme", "bc_mat", "--mode", "dof_sweep",
                "--snr-grid", "40,55,70", "--trials", "20",
                "--seed", "2", "--threads", "1",
            ],
        )
        assert code == 0
        results = json.loads(out)["results"]
        assert abs(results["slope"] - results["dof_counting_float"]) <= 0.05
        assert results["r_squared"] >= 0.999
        assert results["leakage_power_ratio"] < 1e-12

    def test_low_snr_grid_fails_the_slope_band(self, capsys):
        code, out, _ = _run_main(
            capsys,
            [
                "--scheme", "bc_mat", "--mode", "dof_sweep",
                "--snr-grid", "0,5", "--trials", "3",
                "--seed", "2", "--threads", "1",
            ],
        )
        assert code == 1
        assert json.loads(out)["pass"] is False

    def test_csv_output(self, capsys):
        code, out, _ = _run_main(
            capsys,
            [
                "--scheme", "bc_mat", "--mode", "dof_sweep",
                "--snr-grid", "40,55,70", "--trials", "20",
                "--seed", "2", "--threads", "1", "--format", "csv",
            ],
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "snr_db,sum_rate,trials,discards"
        assert len(lines) == 4
        first = lines[1].split(",")
        assert float(first[0]) == 40.0
        assert float(first[1]) > 0.0


class TestFailurePaths:
    def test_usage_error_exit_code(self, capsys, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"scheme": "nope"}))
        code, out, err = _run_main(capsys, ["--config", str(path)])
        assert code == 2
        assert out == ""
        assert "unknown scheme" in err

    @pytest.mark.parametrize(
        "argv, file_values",
        [
            (["--seed", "-1"], {}),
            ([], {"seed": -1}),
        ],
    )
    def test_negative_seed_exits_2(self, capsys, tmp_path, argv, file_values):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"scheme": "bc_mat", "trials": 1, **file_values}))
        code, out, err = _run_main(capsys, ["--config", str(path), *argv])
        assert code == 2
        assert out == ""
        assert err == "error: seed must be non-negative, got -1\n"

    @pytest.mark.parametrize("grid, reason", BAD_SNR_GRIDS)
    def test_bad_snr_grid_points_exit_2(self, capsys, grid, reason):
        code, out, err = _run_main(
            capsys,
            ["--scheme", "bc_mat", "--mode", "dof_sweep", f"--snr-grid={grid}", "--trials", "2"],
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert reason in err and "Traceback" not in err

    @pytest.mark.parametrize("grid", [grid for grid, _ in BAD_SNR_GRIDS])
    def test_library_rejects_bad_grids_before_any_trial(self, capsys, monkeypatch, grid):
        # the library and the CLI apply one set of grid rules, with one message
        calls = []
        monkeypatch.setattr(evaluate, "run_trials", lambda *args, **kwargs: calls.append(args))
        with pytest.raises(ValueError) as info:
            evaluate.estimate_dof("bc_mat", cli._parse_snr_grid(grid), 5, 0)
        assert calls == []
        _, _, err = _run_main(
            capsys,
            ["--scheme", "bc_mat", "--mode", "dof_sweep", f"--snr-grid={grid}", "--trials", "2"],
        )
        assert err == f"error: {info.value}\n"

    def test_duplicate_snr_grid_in_config_file_exits_2(self, capsys, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(
            json.dumps({"scheme": "bc_mat", "mode": "dof_sweep", "snr_grid_db": [50, 50.0]})
        )
        code, out, err = _run_main(capsys, ["--config", str(path)])
        assert code == 2
        assert out == ""
        assert "distinct" in err

    def test_bad_flag_choice_exits_2(self, capsys):
        code, out, err = _run_main(capsys, ["--scheme", "nope"])
        assert code == 2
        assert out == "" and err.startswith("error: argument --scheme: ") and err.count("\n") == 1

    def test_scheme_failure_maps_to_exit_3(self, capsys, monkeypatch):
        def boom(*args, **kwargs):
            raise SchemeFailure("synthetic invariant break")

        monkeypatch.setattr(cli, "run_trials", boom)
        config = parse_config(["--scheme", "bc_mat", "--trials", "1"])
        code = run(config)
        out = capsys.readouterr().out
        assert code == 3
        doc = json.loads(out)
        assert doc["pass"] is False
        assert doc["error"]["type"] == "SchemeFailure"
        assert "synthetic" in doc["error"]["message"]

    def test_config_echo_includes_all_flags(self, capsys):
        code, out, _ = _run_main(
            capsys,
            ["--scheme", "bc_mat", "--trials", "2", "--seed", "5", "--threads", "1"],
        )
        assert code == 0
        echo = json.loads(out)["config"]
        assert set(echo) == {
            "scheme", "mode", "trials", "seed", "snr_grid_db",
            "tol_rank", "tol_residual", "out", "format", "threads",
        }


class TestStructuralFailures:
    @pytest.mark.parametrize(
        "argv, reason",
        [
            (
                ["--scheme", "ic3_retro_csit", "--trials", "50", "--tol-rank", "0.05"],
                "Singular",
            ),
            (["--scheme", "x_retro_csit", "--trials", "5", "--tol-residual", "1e-17"], "residual"),
            (["--scheme", "ic3_retro_csit", "--trials", "5", "--tol-residual", "1e-17"], "residual"),
        ],
    )
    def test_structural_failure_exits_3_naming_the_trial(self, capsys, argv, reason):
        code, out, err = _run_main(capsys, [*argv, "--threads", "1"])
        assert code == 3
        assert err == ""
        assert out.count("\n") == 1
        doc = json.loads(out)
        assert doc["pass"] is False
        assert doc["error"]["type"] == "SchemeFailure"
        message = doc["error"]["message"]
        assert message.startswith(f"{argv[1]} trial ")
        assert reason in message


    @pytest.mark.parametrize(
        "scheme, condition", [("x_retro_csit", "2.401e+02"), ("ic3_retro_csit", "6.465e+02")]
    )
    def test_rank_deficient_null_systems_exit_3(self, capsys, scheme, condition):
        # at --tol-rank 0.999 no receive matrix is conditioned well enough,
        # so every attempt ends in the decoder's Singular
        code, out, err = _run_main(
            capsys,
            ["--scheme", scheme, "--trials", "1", "--tol-rank", "0.999", "--threads", "1"],
        )
        assert code == 3 and err == ""
        assert json.loads(out)["error"]["message"] == (
            f"{scheme} trial 0: exceeded 10 attempts; last discard: Singular: receiver 0: "
            f"condition number {condition} exceeds 1.0e+00; receive_cond_rx0 is at or below "
            "the --tol-rank cutoff 1.0e+00"
        )

    def test_zero_pinned_entry_is_a_singular_discard(self, capsys, monkeypatch):
        # a null vector whose pinned entry is exactly 0 makes gamma and the
        # derived rows non-finite; the decoder judges that receive matrix
        # singular, so each attempt is a discard, not a traceback
        solve = retro_csit_x.null_vector

        def pinned_zero(systems):
            v = solve(systems)
            v[1] = 0.0
            return v

        monkeypatch.setattr(retro_csit_x, "null_vector", pinned_zero)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code, out, err = _run_main(
                capsys, ["--scheme", "x_retro_csit", "--trials", "1", "--threads", "1"]
            )
        assert code == 3 and err == ""
        assert json.loads(out)["error"]["message"].startswith(
            "x_retro_csit trial 0: exceeded 10 attempts; last discard: Singular: receiver 0: "
        )

    def test_singular_discard_names_receiver_certificate_and_flag(self, capsys):
        code, out, _ = _run_main(
            capsys,
            ["--scheme", "ic3_retro_csit", "--trials", "5", "--tol-rank", "0.05",
             "--threads", "1"],
        )
        assert code == 3
        message = json.loads(out)["error"]["message"]
        assert re.search(r"Singular: receiver \d: .*receive_cond_rx\d", message)
        assert "--tol-rank" in message


def _misalign_bc_mat(monkeypatch):
    # slot 2 resends receiver 0's own slot-0 equation instead of receiver 1's
    class Misaligned(BcMatScheme):
        def derive(self, view, offline):
            # receiver 1's slot-0 observation plus receiver 0's, both in symbols 0-1
            pair = [view.channel_coeff(1, j, 0) + view.channel_coeff(0, j, 0) for j in range(2)]
            row = np.stack([*pair, 0 * pair[0], 0 * pair[0]])
            return row[None] / np.sqrt(np.sum(abs(row) ** 2, axis=0))

    monkeypatch.setitem(SCHEMES, "bc_mat", Misaligned())


def _misalign_x_output_fb(monkeypatch):
    # transmitter 1 replays receiver 1's slot-1 output, a second view of
    # the symbols that interfere at receiver 0
    class Misaligned(XOutputFeedbackScheme):
        schedule = (
            *XOutputFeedbackScheme.schedule[:2],
            (OutputPayload(rx=1, slot=0), OutputPayload(rx=1, slot=1)),
        )

    monkeypatch.setitem(SCHEMES, "x_output_fb", Misaligned())


def _misalign_ic3_output_fb(monkeypatch):
    # transmitter 2 replays its receiver's slot-2 output in slot 4
    class Misaligned(IC3OutputFeedbackScheme):
        schedule = (
            *IC3OutputFeedbackScheme.schedule[:4],
            (OutputPayload(rx=0, slot=2), None, OutputPayload(rx=2, slot=2)),
        )

    monkeypatch.setitem(SCHEMES, "ic3_output_fb", Misaligned())


def _misalign_x_retro_csit(monkeypatch):
    # the layer variables use a coupling constant off the aligning one
    aligned = retro_csit_x.alignment_constants

    def off_by_a_tenth(h3, phase1):
        return 1.1 * aligned(h3, phase1)

    monkeypatch.setattr(retro_csit_x, "alignment_constants", off_by_a_tenth)


def _nudge_x_retro_csit_gamma(monkeypatch):
    # one coupling constant off the aligning one by a relative 1e-6
    aligned = retro_csit_x.alignment_constants

    def nudged(h3, phase1):
        gamma = aligned(h3, phase1)
        gamma[0, 1] *= 1 + 1e-6
        return gamma

    monkeypatch.setattr(retro_csit_x, "alignment_constants", nudged)


def _misalign_ic3_retro_csit(monkeypatch):
    # every transmitter repeats a fixed generic triple instead of the aligned one
    def generic_triple(a, b):
        c = np.array([1.0, 0.5j, -0.75 + 0.25j]) / np.sqrt(1.0 + 0.25 + 0.625)
        return np.broadcast_to(c.reshape(3, *(1,) * (a.ndim - 1)), a.shape)

    monkeypatch.setattr(retro_csit_ic3, "_unit_cross", generic_triple)


def _nudge_ic3_retro_csit_triples(monkeypatch):
    # each transmitter's aligned triple, its first coefficient off by a relative 1e-6
    aligned = retro_csit_ic3._unit_cross

    def nudged(a, b):
        c = aligned(a, b)
        return np.concatenate([c[:1] * (1 + 1e-6), c[1:]])

    monkeypatch.setattr(retro_csit_ic3, "_unit_cross", nudged)


@pytest.mark.parametrize(
    "scheme_id, misalign",
    [
        ("bc_mat", _misalign_bc_mat),
        ("x_output_fb", _misalign_x_output_fb),
        ("ic3_output_fb", _misalign_ic3_output_fb),
        ("x_retro_csit", _misalign_x_retro_csit),
        ("ic3_retro_csit", _misalign_ic3_retro_csit),
        # drift of a relative 1e-6 in the aligned constants: the decoder alone catches it
        ("x_retro_csit", _nudge_x_retro_csit_gamma),
        ("ic3_retro_csit", _nudge_ic3_retro_csit_triples),
    ],
)
def test_misaligned_encoder_exits_3_naming_the_trial(capsys, monkeypatch, scheme_id, misalign):
    # interference leaking into one more dimension is a structural failure
    misalign(monkeypatch)
    code, out, err = _run_main(
        capsys, ["--scheme", scheme_id, "--trials", "3", "--seed", "0", "--threads", "1"]
    )
    assert code == 3
    assert err == ""
    doc = json.loads(out)
    assert doc["error"]["type"] == "SchemeFailure"
    message = doc["error"]["message"]
    assert message.startswith(f"{scheme_id} trial 0: InterferenceRankUnexpected")
    assert "zero-forcing residual" in message


class TestConfigTypes:
    @pytest.mark.parametrize(
        "file_values",
        [
            {"seed": "x"},
            {"trials": "5"},
            {"threads": "2"},
            {"tol_rank": "1e-3"},
            {"trials": 2.0},
            {"seed": True},
            {"scheme": 3},
            {"mode": "dof_sweep", "snr_grid_db": [40, "50"]},
            {"mode": "dof_sweep", "snr_grid_db": "40,50"},
        ],
    )
    def test_wrong_type_exits_2_with_one_line(self, capsys, tmp_path, file_values):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"scheme": "bc_mat", "trials": 1, **file_values}))
        code, out, err = _run_main(capsys, ["--config", str(path)])
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_numbers_of_either_json_type_are_accepted(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"scheme": "bc_mat", "tol_rank": 1e-8, "tol_residual": 0.5}))
        assert parse_config(["--config", str(path)]).tol_residual == 0.5


class TestThreads:
    @pytest.mark.parametrize("argv, file_values", [(["--threads", "-1"], {}), ([], {"threads": -3})])
    def test_negative_threads_exit_2(self, capsys, tmp_path, argv, file_values):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"scheme": "bc_mat", "trials": 1, **file_values}))
        code, out, err = _run_main(capsys, ["--config", str(path), *argv])
        assert code == 2
        assert out == ""
        assert "threads must be non-negative" in err and err.count("\n") == 1

    def test_workers_clamped_to_core_count(self, monkeypatch):
        import alignsim.evaluate as evaluate

        started = []

        class RecordingProcess(evaluate.Process):
            """A worker process that records its start."""

            def start(self):
                started.append(self)
                super().start()

        def children_started():
            count = len(started)
            started.clear()
            return count

        monkeypatch.setattr(evaluate, "Process", RecordingProcess)
        monkeypatch.setattr(evaluate, "_usable_cpus", lambda: 3)
        # 8 trials are one worker's: the caller runs them and starts no child
        report = evaluate.run_trials("bc_mat", 8, base_seed=0, threads=500)
        assert children_started() == 0
        assert report.outcomes.trial.tolist() == list(range(8))
        # at most one worker per 2 trials: four, capped at three cores, so
        # the caller and two children
        monkeypatch.setattr(evaluate, "TRIALS_PER_WORKER", 2)
        report = evaluate.run_trials("bc_mat", 8, base_seed=0, threads=500)
        assert children_started() == 2
        assert report.outcomes.trial.tolist() == list(range(8))
        # 4 trials: two workers, below the three cores
        evaluate.run_trials("bc_mat", 4, base_seed=0, threads=500)
        assert children_started() == 1


class TestOneLineErrors:
    @pytest.mark.parametrize(
        "argv",
        [
            ["--scheme", "nope"],
            ["--scheme", "bc_mat", "--trials", "abc"],
            ["--scheme", "bc_mat", "--no-such-flag"],
        ],
    )
    def test_bad_flag_is_one_line(self, capsys, argv):
        code, out, err = _run_main(capsys, argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_snr_grid_out_of_range_exits_2(self, capsys):
        code, out, err = _run_main(
            capsys,
            ["--scheme", "bc_mat", "--mode", "dof_sweep", "--snr-grid", "40,5000", "--trials", "2"],
        )
        assert code == 2
        assert out == "" and "within" in err

    def test_unwritable_output_exits_2(self, capsys, tmp_path):
        target = tmp_path / "missing" / "report.json"
        code, out, err = _run_main(
            capsys, ["--scheme", "bc_mat", "--trials", "1", "--threads", "1", "--out", str(target)]
        )
        assert code == 2
        assert out == "" and err.startswith("error: cannot write") and err.count("\n") == 1

    def test_closed_stdout_exits_2_without_traceback(self):
        read_end, write_end = os.pipe()
        os.close(read_end)
        src = str(Path(cli.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        argv = ["--scheme", "bc_mat", "--mode", "verify", "--trials", "3", "--threads", "1"]
        try:
            done = subprocess.run(
                [sys.executable, "-m", "alignsim.cli", *argv],
                stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=120, text=True,
            )
        finally:
            os.close(write_end)
        assert "Traceback" not in done.stderr
        assert done.returncode == 2
        assert done.stderr == "error: cannot write the report: standard output was closed\n"


    def test_a_worker_that_exits_early_is_one_line(self, capfd, monkeypatch):
        # two workers of 4 trials each; the child exits before it sends
        run_trial_range = evaluate._run_trial_range

        def exits_in_the_child(args, check):
            if args[2][0].start > 0:
                os._exit(7)
            return run_trial_range(args, check)

        monkeypatch.setattr(evaluate, "_usable_cpus", lambda: 2)
        monkeypatch.setattr(evaluate, "TRIALS_PER_WORKER", 4)
        monkeypatch.setattr(evaluate, "_run_trial_range", exits_in_the_child)
        code = main(["--scheme", "bc_mat", "--trials", "8", "--threads", "2"])
        out, err = capfd.readouterr()
        assert code == 2
        assert out == ""
        assert err == "error: a worker process exited with code 7 before sending its trials\n"


#: The console script's run, on two workers whatever the CPUs: the caller and one child.
_TWO_WORKER_MAIN = (
    "import sys, alignsim.cli as cli, alignsim.evaluate as evaluate\n"
    "evaluate._usable_cpus = lambda: 2\n"
    "sys.exit(cli.main(sys.argv[1:]))\n"
)


def _live_group(pgid):
    """Pid and ignored-signal mask of each process of group ``pgid`` that has not exited."""
    live = []
    for entry in filter(str.isdigit, os.listdir("/proc")):
        try:
            stat = Path(f"/proc/{entry}/stat").read_text()
            status = Path(f"/proc/{entry}/status").read_text()
        except OSError:  # it exited while the table was read
            continue
        # the fields after the command name: state, parent pid, process group
        state, _, group = stat.rpartition(")")[2].split()[:3]
        if int(group) == pgid and state not in "ZX":
            live.append((int(entry), int(re.search(r"^SigIgn:\s*(\w+)", status, re.M)[1], 16)))
    return live


@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="reads the process table")
class TestSignals:
    """A run stopped by a signal prints one line and leaves no worker.

    Each run starts in a session of its own, so its process group holds the
    caller and its one child alone.
    """

    @pytest.fixture
    def start_run(self):
        """Start the run; at teardown, kill whatever of its group is left."""
        started = []

        def start():
            src = str(Path(cli.__file__).resolve().parents[1])
            paths = [src, os.environ.get("PYTHONPATH", "")]
            env = {**os.environ, "PYTHONPATH": os.pathsep.join(paths)}
            # each share runs for minutes, far past any of the cases' time bounds
            argv = ["--scheme", "ic3_retro_csit", "--trials", "2000000", "--threads", "2"]
            proc = subprocess.Popen(
                [sys.executable, "-c", _TWO_WORKER_MAIN, *argv], stdout=subprocess.PIPE,
                stderr=subprocess.PIPE, env=env, start_new_session=True, text=True,
            )
            started.append(proc)
            # the child runs its share once it ignores SIGINT
            sigint = 1 << (signal.SIGINT - 1)
            deadline = time.monotonic() + 10
            while not any(pid != proc.pid and mask & sigint for pid, mask in _live_group(proc.pid)):
                assert proc.poll() is None and time.monotonic() < deadline, "no child ignores SIGINT"
                time.sleep(0.01)
            return proc

        yield start
        for proc in started:
            for pid, _ in _live_group(proc.pid):
                with contextlib.suppress(ProcessLookupError):
                    os.kill(pid, signal.SIGKILL)
            proc.communicate()

    @staticmethod
    def _assert_group_gone(pgid):
        deadline = time.monotonic() + 5
        while _live_group(pgid):
            assert time.monotonic() < deadline, _live_group(pgid)
            time.sleep(0.01)

    @pytest.mark.parametrize(
        "stop, code",
        [
            pytest.param(lambda proc: os.killpg(proc.pid, signal.SIGINT), 130, id="SIGINT-group"),
            pytest.param(lambda proc: proc.send_signal(signal.SIGTERM), 143, id="SIGTERM-caller"),
        ],
    )
    def test_a_stopped_run_exits_with_one_line(self, start_run, stop, code):
        proc = start_run()
        stop(proc)
        out, err = proc.communicate(timeout=10)
        assert proc.returncode == code
        assert out == ""
        assert err == f"error: stopped by {signal.Signals(code - 128).name}\n"
        self._assert_group_gone(proc.pid)

    def test_a_child_terminated_alone_stops_the_run_with_one_line(self, start_run):
        proc = start_run()
        [child] = [pid for pid, _ in _live_group(proc.pid) if pid != proc.pid]
        os.kill(child, signal.SIGTERM)
        out, err = proc.communicate(timeout=10)
        assert proc.returncode == 2
        assert out == ""
        assert err == "error: a worker process exited with code -15 before sending its trials\n"
        self._assert_group_gone(proc.pid)

    def test_a_child_whose_caller_is_killed_stops_at_its_next_batch(self, start_run):
        proc = start_run()
        proc.kill()
        # the orphaned child holds the pipes open until it exits
        out, err = proc.communicate(timeout=10)
        assert proc.returncode == -signal.SIGKILL
        assert out == "" and err == ""
        self._assert_group_gone(proc.pid)


class TestInProcessCalls:
    def test_calls_share_one_parser_and_stay_independent(self, capsys, monkeypatch):
        def no_second_parser():
            raise AssertionError("main() built a parser")

        monkeypatch.setattr(cli, "_build_parser", no_second_parser)
        sweep = ["--scheme", "bc_mat", "--mode", "dof_sweep", "--trials", "3", "--threads", "1",
                 "--snr-grid", "40,50,60,70"]
        code, first, err = _run_main(capsys, sweep)
        assert code == 0 and err == ""
        # no flag of the sweep carries over: this run has no grid
        code, out, err = _run_main(capsys, ["--scheme", "bc_mat", "--trials", "3", "--threads", "1"])
        assert code == 0 and err == ""
        assert '"snr_grid_db":null' in out and '"mode":"verify"' in out
        code, out, err = _run_main(capsys, ["--scheme", "bc_mat", "--trials", "abc"])
        assert code == 2
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1
        code, again, err = _run_main(capsys, sweep)
        assert code == 0 and err == ""
        assert again == first

    def test_main_runs_outside_the_main_thread(self, capsys):
        argv = ["--scheme", "bc_mat", "--trials", "2", "--threads", "1"]
        codes = []
        handler = signal.getsignal(signal.SIGTERM)
        worker = threading.Thread(target=lambda: codes.append(main(argv)))
        worker.start()
        worker.join(timeout=60)
        assert not worker.is_alive() and codes == [0]
        assert signal.getsignal(signal.SIGTERM) is handler
        code, out, err = _run_main(capsys, argv)
        assert code == 0 and err == ""
        assert signal.getsignal(signal.SIGTERM) is handler

    def test_help_names_every_scheme_and_mode(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["--help"])
        assert info.value.code == 0
        text = capsys.readouterr().out
        for name in [*SCHEMES, *cli.MODES]:
            assert name in text


@pytest.mark.parametrize(
    "mode, trials, extra, total_discards",
    [
        pytest.param(mode, trials, [], 0, id=f"{trials}-{mode}")
        for mode in ("verify", "dof_sweep")
        for trials in (65, 130, 257)
    ]
    + [
        # a loose --tol-rank makes the decoder judge draws singular at seed 7,
        # a few at 0.003 and most retrospective ones at 0.01
        pytest.param("verify", 130, ["--tol-rank", "0.003"], 25, id="130-verify-discards"),
        pytest.param("verify", 130, ["--tol-rank", "0.01"], 219, id="130-verify-dense-discards"),
    ],
)
def test_reports_identical_across_thread_counts(capsys, mode, trials, extra, total_discards):
    # at one worker, 257 trials are two batches of 128 and 129; at two, 65
    # trials are one worker's and start no child, 130 are one batch of 65
    # per worker, and 257 one batch of 128 or 129 per worker
    discards = 0
    for scheme in sorted(cli.SCHEMES):
        argv = ["--scheme", scheme, "--mode", mode, "--trials", str(trials), "--seed", "7", *extra]
        if mode == "dof_sweep":
            argv += ["--snr-grid", "40,55,70"]
        outs = {}
        for threads in ("1", "2"):
            code, out, _ = _run_main(capsys, [*argv, "--threads", threads])
            assert code == 0
            outs[threads] = out
        assert outs["1"].replace('"threads":1,', '"threads":2,') == outs["2"]
        discards += json.loads(outs["1"])["results"]["discards"]
    assert discards == total_discards


_SCHEME_IDS = sorted(cli.SCHEMES)

_FLAG_VALUES = {
    "--mode": st.sampled_from([*cli.MODES, "dof_sweep", "bogus"]),
    "--trials": st.sampled_from(["1", "2", "3", "0", "-2", "x"]),
    "--seed": st.sampled_from(["0", "7", "12345678901234567890", "-1", "seed"]),
    "--snr-grid": st.sampled_from(
        ["40,55,70", "40,55,70", "30,50", "40", "40,40", "nan,50", "1e999,2", "0,20", "a,b"]
    ),
    "--tol-rank": st.sampled_from(["1e-8", "0.05", "0.5", "1e-300", "0", "nan", "x"]),
    "--tol-residual": st.sampled_from(["1e-8", "1e-17", "0.9", "-1", "inf"]),
    "--format": st.sampled_from(["json", "json", "csv", "xml"]),
    "--threads": st.sampled_from(["1", "1", "0x", "-1"]),
}

_CONFIG_VALUES = {
    "mode": st.sampled_from([*cli.MODES, 1.5]),
    "trials": st.sampled_from([1, 3, 0, "2", 2.0, True, None]),
    "seed": st.sampled_from([0, 5, -1, "x", 1.5, [1]]),
    "snr_grid_db": st.sampled_from([[40, 55, 70], [40], None, "40,50", [40, "x"], [1e308, 1]]),
    "tol_rank": st.sampled_from([1e-8, 0.05, 2.0, "1e-3", None]),
    "tol_residual": st.sampled_from([1e-8, 1e-17, 0, "x"]),
    "format": st.sampled_from(["json", "csv", 7]),
    "threads": st.sampled_from([1, -1, "2", 1.0]),
    "trails": st.just(1),
}


@settings(max_examples=80, deadline=None, derandomize=True)
@given(
    flags=st.fixed_dictionaries(
        {"--scheme": st.sampled_from([*_SCHEME_IDS, *_SCHEME_IDS, "nope"])},
        optional=_FLAG_VALUES,
    ),
    config=st.one_of(
        st.none(),
        st.none(),
        st.sampled_from(["[1, 2]", "{not json"]),
        st.fixed_dictionaries({}, optional=_CONFIG_VALUES),
    ),
)
def test_fuzzed_inputs_exit_cleanly(flags, config, tmp_path_factory):
    argv = [part for flag, value in flags.items() for part in (flag, value)]
    if config is not None:
        path = tmp_path_factory.mktemp("fuzz") / "run.json"
        path.write_text(config if isinstance(config, str) else json.dumps(config))
        argv += ["--config", str(path)]
    # keep every run small and in-process: at most 3 trials, one worker
    for flag, default in (("--trials", "3"), ("--threads", "1")):
        if flag not in flags:
            argv += [flag, default]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2, 3)
    assert err.getvalue().count("\n") <= 1
