"""Command-line interface: configs, artifacts, determinism, exit codes."""

import csv
import io
import json
import math
from pathlib import Path

import numpy as np
import pytest
from modval import cli
from modval.cli import (
    EXIT_ALL_REJECTED,
    EXIT_CONFIG,
    EXIT_INVERSION,
    EXIT_OK,
    EXIT_PROTOCOL,
    _EXIT_BY_ERROR,
    main,
)
from modval.errors import NegativeDiscriminant
from tests import cli_digest


def write_config(tmp_path, name="run.json", **overrides):
    doc = {
        "schema_version": 1,
        "state": {"preset": "fig4a"},
        "postselection": {"preset": "uniform_plus"},
        "epsilon": 0.2,
        "method": "exact_inversion",
        "output_path": "-",
        "format": "csv",
    }
    doc.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def parse_csv(text):
    lines = [ln for ln in text.splitlines() if not ln.startswith("#")]
    return list(csv.DictReader(io.StringIO("\n".join(lines))))


def amp_table(rows):
    out = {}
    for row in rows:
        key = (int(row["comp_a"]), int(row["comp_b"]))
        out[key] = complex(float(row["amp_re"]), float(row["amp_im"]))
    return out


# normalized, so no renormalization warning joins the error line
_ZERO_AMPLITUDE_POSTSELECTION = {"amps": [[math.sqrt(0.5), 0], [0, 0], [0, 0],
                                          [math.sqrt(0.5), 0]]}


class TestReconstructCommand:
    def test_fig4a_amplitudes(self, tmp_path, capsys):
        code = main(["reconstruct", "--config", write_config(tmp_path), "--no-timestamp"])
        assert code == EXIT_OK
        amps = amp_table(parse_csv(capsys.readouterr().out))
        root_half = 1 / math.sqrt(2)
        assert abs(amps[(0, 0)] - root_half) <= 1e-10
        assert abs(amps[(0, 1)]) <= 1e-10
        assert abs(amps[(1, 0)]) <= 1e-10
        assert abs(amps[(1, 1)] - root_half) <= 1e-10

    def test_fig4b_amplitudes(self, tmp_path, capsys):
        cfg = write_config(tmp_path, state={"preset": "fig4b"})
        assert main(["reconstruct", "--config", cfg]) == EXIT_OK
        amps = amp_table(parse_csv(capsys.readouterr().out))
        assert abs(amps[(1, 1)] - 1j / math.sqrt(2)) <= 1e-10

    def test_fig4d_amplitudes(self, tmp_path, capsys):
        cfg = write_config(tmp_path, state={"preset": "fig4d"})
        assert main(["reconstruct", "--config", cfg]) == EXIT_OK
        amps = amp_table(parse_csv(capsys.readouterr().out))
        expected = {(0, 0): 0.8, (0, 1): -0.6j, (1, 0): -0.8, (1, 1): -0.6j}
        for key, value in expected.items():
            assert abs(amps[key] - value / math.sqrt(2)) <= 1e-10

    def test_explicit_amplitudes_renormalized_with_warning(self, tmp_path, capsys):
        cfg = write_config(tmp_path, state={"amps": [[1, 0], [0, 0], [0, 0], [1, 0]],
                                            "dims": [2, 2]})
        assert main(["reconstruct", "--config", cfg]) == EXIT_OK
        captured = capsys.readouterr()
        assert "renormalized" in captured.err
        amps = amp_table(parse_csv(captured.out))
        assert abs(amps[(0, 0)] - 1 / math.sqrt(2)) <= 1e-10

    def test_noise_adds_std_columns(self, tmp_path, capsys):
        cfg = write_config(tmp_path, noise={"pairs_per_setting": 20000, "trials": 25,
                                            "seed": 4})
        assert main(["reconstruct", "--config", cfg]) == EXIT_OK
        rows = parse_csv(capsys.readouterr().out)
        assert "amp_re_std" in rows[0]
        assert float(rows[3]["amp_re_std"]) > 0

    def test_json_format(self, tmp_path, capsys):
        cfg = write_config(tmp_path, format="json")
        assert main(["reconstruct", "--config", cfg]) == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert doc["schema_version"] == 1
        assert len(doc["rows"]) == 4
        assert {"comp_a", "comp_b", "amp_re", "amp_im"} <= set(doc["columns"])

    def test_output_file(self, tmp_path):
        out = tmp_path / "table.csv"
        cfg = write_config(tmp_path, output_path=str(out))
        assert main(["reconstruct", "--config", cfg]) == EXIT_OK
        assert out.exists() and "amp_re" in out.read_text()


class TestSweepCommand:
    def test_rows_and_reference_points(self, tmp_path, capsys):
        cfg = write_config(tmp_path, state={"preset": "fig3"})
        code = main(["sweep-theta", "--config", cfg, "--steps", "41", "--no-timestamp"])
        assert code == EXIT_OK
        rows = parse_csv(capsys.readouterr().out)
        assert len(rows) == 41 * 3
        by_key = {(round(float(r["theta"]), 9), r["method"]): r for r in rows}
        root_half = 1 / math.sqrt(2)

        row0 = by_key[(0.0, "exact_inversion")]
        assert abs(float(row0["psi_vv_re"]) - root_half) <= 1e-10
        assert abs(float(row0["psi_vv_im"])) <= 1e-10

        half_pi = round(math.pi / 2, 9)
        row_half = by_key[(half_pi, "exact_inversion")]
        assert abs(float(row_half["psi_vv_re"])) <= 1e-10
        assert abs(float(row_half["psi_vv_im"]) - root_half) <= 1e-10

        pi_key = round(math.pi, 9)
        for method in ("definitional", "first_order", "exact_inversion"):
            row_pi = by_key[(pi_key, method)]
            assert row_pi["error"] == "orthogonal_postselection"
            assert row_pi["psi_vv_re"] == ""

    def test_requires_phase_family_preset(self, tmp_path):
        cfg = write_config(tmp_path)  # fig4a
        assert main(["sweep-theta", "--config", cfg]) == EXIT_CONFIG

    def test_steps_validated(self, tmp_path):
        cfg = write_config(tmp_path, state={"preset": "fig3"})
        assert main(["sweep-theta", "--config", cfg, "--steps", "1"]) == EXIT_CONFIG


class TestTomographyCommand:
    def test_correlated_state_matrix(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        assert main(["tomography", "--config", cfg, "--no-timestamp"]) == EXIT_OK
        text = capsys.readouterr().out
        rows = parse_csv(text)
        assert len(rows) == 16
        mat = np.zeros((4, 4), dtype=complex)
        for row in rows:
            mat[int(row["row"]), int(row["col"])] = complex(float(row["re"]), float(row["im"]))
        expected = np.zeros((4, 4))
        expected[0, 0] = expected[0, 3] = expected[3, 0] = expected[3, 3] = 0.5
        np.testing.assert_allclose(mat, expected, atol=1e-12)
        assert "# positive=True" in text

    def test_two_qubit_only(self, tmp_path):
        state = {"amps": [[1, 0]] + [[0, 0]] * 5, "dims": [3, 2]}
        cfg = write_config(tmp_path, state=state)
        assert main(["tomography", "--config", cfg]) == EXIT_CONFIG


class TestCompareCommand:
    def test_exact_data_all_fidelities_one(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        assert main(["compare", "--config", cfg]) == EXIT_OK
        rows = parse_csv(capsys.readouterr().out)
        assert len(rows) == 1
        for col in ("fidelity_direct_vs_truth", "fidelity_tomography_vs_truth",
                    "fidelity_direct_vs_tomography"):
            assert abs(float(rows[0][col]) - 1.0) <= 1e-10

    def test_noisy_trials_mostly_high_fidelity(self, tmp_path, capsys):
        # calibrated: at 1e5 pairs per setting every seed clears 0.99; the
        # assertion keeps the spec's 95%-of-seeds margin
        cfg = write_config(tmp_path, noise={"pairs_per_setting": 100_000, "trials": 40,
                                            "seed": 21})
        assert main(["compare", "--config", cfg]) == EXIT_OK
        rows = parse_csv(capsys.readouterr().out)
        assert len(rows) == 40
        good = sum(
            1 for r in rows
            if min(float(r["fidelity_direct_vs_truth"]),
                   float(r["fidelity_tomography_vs_truth"]),
                   float(r["fidelity_direct_vs_tomography"])) >= 0.99)
        assert good >= 0.95 * len(rows)


class TestDeterminismAndErrors:
    def test_byte_identical_without_timestamp(self, tmp_path):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        cfg = write_config(tmp_path, noise={"pairs_per_setting": 5000, "trials": 10,
                                            "seed": 99})
        assert main(["reconstruct", "--config", cfg, "--no-timestamp", "--out", str(out1)]) == EXIT_OK
        assert main(["reconstruct", "--config", cfg, "--no-timestamp", "--out", str(out2)]) == EXIT_OK
        assert out1.read_bytes() == out2.read_bytes()

    def test_timestamp_line_present_by_default(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        assert main(["reconstruct", "--config", cfg]) == EXIT_OK
        assert capsys.readouterr().out.startswith("# generated=")

    def test_missing_config_file(self, tmp_path, capsys):
        assert main(["reconstruct", "--config", str(tmp_path / "nope.json")]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("error: config_error:")
        assert err.count("\n") == 1

    def test_invalid_json_reports_location(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text('{"schema_version": 1,,}')
        assert main(["reconstruct", "--config", str(path)]) == EXIT_CONFIG
        assert "line" in capsys.readouterr().err

    def test_wrong_schema_version(self, tmp_path):
        assert main(["reconstruct", "--config",
                     write_config(tmp_path, schema_version=2)]) == EXIT_CONFIG

    def test_unknown_method(self, tmp_path):
        assert main(["reconstruct", "--config",
                     write_config(tmp_path, method="magic")]) == EXIT_CONFIG

    def test_orthogonal_postselection_exit_code(self, tmp_path, capsys):
        cfg = write_config(tmp_path, state={"preset": "fig3"}, theta=math.pi)
        assert main(["reconstruct", "--config", cfg]) == EXIT_PROTOCOL
        assert "orthogonal_postselection" in capsys.readouterr().err

    def test_all_trials_rejected_exit_code(self, tmp_path, capsys):
        cfg = write_config(tmp_path, noise={"pairs_per_setting": 1, "trials": 3, "seed": 0})
        assert main(["reconstruct", "--config", cfg]) == EXIT_ALL_REJECTED
        assert "all_trials_rejected" in capsys.readouterr().err

    def test_compare_all_trials_rejected_exit_code(self, capsys):
        config = str(Path(__file__).parent.parent / "configs" / "fig4a.json")
        assert main(["compare", "--config", config, "--pairs", "1", "--trials", "3",
                     "--seed", "0"]) == EXIT_ALL_REJECTED
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: all_trials_rejected: all 3 trials failed inversion")
        assert err.count("\n") == 1

    def test_inversion_failure_maps_to_exit_four(self):
        codes = {err: code for err, code in _EXIT_BY_ERROR}
        assert codes[NegativeDiscriminant] == EXIT_INVERSION == 4

    def test_definitional_method_with_noise_is_config_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        for command in ("reconstruct", "compare"):
            code = main([command, "--config", cfg, "--method", "definitional",
                         "--pairs", "1000", "--trials", "3"])
            assert code == EXIT_CONFIG
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("error: config_error:")
            assert captured.err.count("\n") == 1

    def test_sweep_epsilon_out_of_range_is_config_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path, state={"preset": "fig3"})
        for epsilon in ("2", "0", "-0.5"):
            code = main(["sweep-theta", "--config", cfg, "--steps", "3", "--epsilon", epsilon])
            assert code == EXIT_CONFIG
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("error: config_error:")
            assert captured.err.count("\n") == 1

    @pytest.mark.parametrize("flag, value", [
        ("--theta-min", "nan"), ("--theta-max", "inf"), ("--theta-min", "-inf"),
    ])
    def test_sweep_non_finite_bounds_are_config_error(self, tmp_path, capsys, flag, value):
        cfg = write_config(tmp_path, state={"preset": "fig3"})
        # "--flag=value": argparse would read a bare "-inf" as an option
        code = main(["sweep-theta", "--config", cfg, "--steps", "3", f"{flag}={value}"])
        assert code == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: config_error:")
        assert flag in captured.err
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize("flags", [
        ["--pairs", "-5"], ["--pairs", "0"], ["--pairs", "100", "--trials", "0"],
    ])
    def test_invalid_noise_flags_are_config_error(self, tmp_path, capsys, flags):
        cfg = write_config(tmp_path)
        assert main(["reconstruct", "--config", cfg, *flags]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: config_error:")
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize("overrides", [
        {"g": 0.0},  # s = 0: every weak value divides by zero
        {"g": 2 * math.pi},  # s ~ 1e-16: weak values near 1e16
        {"g": 1e-9},
    ])
    def test_vanishing_coupling_is_config_error(self, tmp_path, capsys, overrides):
        cfg = write_config(tmp_path, **overrides)
        assert main(["reconstruct", "--config", cfg]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: config_error:")
        assert "coupling" in captured.err
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize("field, text", [
        ("theta", "NaN"), ("theta", "Infinity"), ("epsilon", "NaN"),
        ("g", "NaN"), ("g", "-Infinity"),
    ])
    def test_non_finite_numbers_are_config_error(self, tmp_path, capsys, field, text):
        path = Path(write_config(tmp_path, state={"preset": "fig3"}, theta=0.5))
        doc = json.loads(path.read_text())
        doc[field] = "__VALUE__"
        # json.dumps refuses to write NaN with allow_nan=False; splice the literal in
        path.write_text(json.dumps(doc).replace('"__VALUE__"', text))
        assert main(["reconstruct", "--config", str(path)]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: config_error:")
        assert field in captured.err
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize("command, flags", [
        ("reconstruct", []), ("reconstruct", ["--method", "definitional"]),
        ("reconstruct", ["--pairs", "1000", "--trials", "3"]),
        ("compare", []), ("compare", ["--pairs", "1000", "--trials", "3"]),
        ("sweep-theta", ["--steps", "3"]),
    ])
    def test_zero_amplitude_postselection_is_config_error(self, tmp_path, capsys,
                                                          command, flags):
        cfg = write_config(tmp_path, state={"preset": "fig3"}, theta=0.5,
                           postselection=_ZERO_AMPLITUDE_POSTSELECTION)
        assert main([command, "--config", cfg, *flags]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: config_error: postselection")
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize("command", ["reconstruct", "compare", "tomography"])
    @pytest.mark.parametrize("overrides, flags", [
        ({"noise": {"pairs_per_setting": 1000, "trials": 3, "seed": -1}}, []),
        ({}, ["--pairs", "1000", "--seed", "-1"]),
        ({"noise": {"pairs_per_setting": 1000, "seed": 4}}, ["--seed=-7"]),
    ])
    def test_negative_seed_is_config_error(self, tmp_path, capsys, command, overrides, flags):
        cfg = write_config(tmp_path, **overrides)
        assert main([command, "--config", cfg, *flags]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: config_error: noise: seed")
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize("command", ["reconstruct", "compare", "tomography"])
    @pytest.mark.parametrize("field", ["state", "postselection"])
    @pytest.mark.parametrize("dims", [
        ["a", 2], 5, [1, 4], [2, 2, 1], [4], [], None, [2, [2]], [2, 0], [-2, -2],
        [2.9, 2], "22",
    ])
    def test_malformed_dims_are_config_error(self, tmp_path, capsys, command, field, dims):
        amps = {"amps": [[0.5, 0]] * 4, "dims": dims}
        cfg = write_config(tmp_path, **{field: amps})
        assert main([command, "--config", cfg]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: config_error: {field}.dims")
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize("dims", [[2.0, 2], ["2", "2"]])
    def test_int_convertible_dims_keep_working(self, tmp_path, capsys, dims):
        amps = [[math.sqrt(0.5), 0], [0, 0], [0, 0], [math.sqrt(0.5), 0]]
        reference = write_config(tmp_path, "reference.json",
                                 state={"amps": amps, "dims": [2, 2]})
        assert main(["reconstruct", "--config", reference, "--no-timestamp"]) == EXIT_OK
        want = capsys.readouterr().out
        cfg = write_config(tmp_path, state={"amps": amps, "dims": dims})
        assert main(["reconstruct", "--config", cfg, "--no-timestamp"]) == EXIT_OK
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == (want, "")

    def test_tomography_ignores_zero_amplitude_postselection(self, tmp_path, capsys):
        cfg = write_config(tmp_path, postselection=_ZERO_AMPLITUDE_POSTSELECTION)
        assert main(["tomography", "--config", cfg]) == EXIT_OK
        assert capsys.readouterr().err == ""

    def test_noise_flags_require_pairs(self, tmp_path):
        cfg = write_config(tmp_path)
        assert main(["reconstruct", "--config", cfg, "--trials", "5"]) == EXIT_CONFIG

    def test_noise_from_flags_alone(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        code = main(["reconstruct", "--config", cfg, "--pairs", "10000",
                     "--trials", "5", "--seed", "1"])
        assert code == EXIT_OK
        rows = parse_csv(capsys.readouterr().out)
        assert "amp_re_std" in rows[0]

    def test_alt_postselection_preset(self, tmp_path, capsys):
        cfg = write_config(tmp_path, state={"preset": "fig3"}, theta=math.pi,
                           postselection={"preset": "alt_postselection"})
        assert main(["reconstruct", "--config", cfg]) == EXIT_OK
        amps = amp_table(parse_csv(capsys.readouterr().out))
        assert abs(amps[(1, 1)] + 1 / math.sqrt(2)) <= 1e-10

    def test_method_and_epsilon_overrides(self, tmp_path, capsys):
        cfg = write_config(tmp_path, state={"preset": "fig3"}, theta=math.pi / 4,
                           method="exact_inversion")
        assert main(["reconstruct", "--config", cfg, "--method", "first_order",
                     "--epsilon", "0.05"]) == EXIT_OK
        amps = amp_table(parse_csv(capsys.readouterr().out))
        ideal = complex(math.cos(math.pi / 4), math.sin(math.pi / 4)) / math.sqrt(2)
        deviation = abs(amps[(1, 1)] - ideal)
        # first-order bias at eps = 0.05 is small but clearly nonzero
        assert 1e-6 < deviation < 1e-3

    def test_module_invocation(self, tmp_path):
        import subprocess
        import sys

        cfg = write_config(tmp_path)
        proc = subprocess.run([sys.executable, "-m", "modval", "reconstruct",
                               "--config", cfg, "--no-timestamp"],
                              capture_output=True, text=True)
        assert proc.returncode == EXIT_OK
        assert "amp_re" in proc.stdout

    def test_import_loads_no_scipy(self):
        import subprocess
        import sys

        code = ("import modval.cli, sys; "
                "print(','.join(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')))")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == ""

    def test_import_loads_no_numpy_random(self):
        import subprocess
        import sys

        code = ("import modval.cli, sys; "
                "print(','.join(sorted(m for m in sys.modules if m.startswith('numpy.random'))))")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == ""

    def test_json_output_all_commands(self, tmp_path, capsys):
        cfg = write_config(tmp_path, state={"preset": "fig3"}, format="json")
        commands = (["reconstruct"], ["sweep-theta", "--steps", "5"],
                    ["tomography"], ["compare"])
        for command in commands:
            assert main([*command, "--config", cfg, "--no-timestamp"]) == EXIT_OK
            doc = json.loads(capsys.readouterr().out)
            assert doc["schema_version"] == 1
            assert doc["rows"]
        # the tomography document also carries the full matrix arrays
        assert main(["tomography", "--config", cfg, "--no-timestamp"]) == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert len(doc["matrix_re"]) == 4 and len(doc["matrix_im"]) == 4


class TestParserReuse:
    def test_consecutive_calls_match_a_fresh_parser(self, tmp_path, capsys):
        sweep = write_config(tmp_path, "sweep.json", state={"preset": "fig3"})
        recon = write_config(tmp_path, "recon.json")
        calls = [
            ["sweep-theta", "--config", sweep, "--steps", "3", "--theta-min", "0",
             "--no-timestamp"],
            ["reconstruct", "--config", recon, "--no-timestamp"],
            ["reconstruct", "--config", recon, "--no-such-flag"],  # argparse usage error
            ["sweep-theta", "--config", sweep, "--no-timestamp"],  # every sweep default
        ]

        def run(argv):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            captured = capsys.readouterr()
            return code, captured.out, captured.err

        fresh = []
        for argv in calls:
            cli._build_parser.cache_clear()
            fresh.append(run(argv))
        assert [code for code, _, _ in fresh] == [EXIT_OK, EXIT_OK, EXIT_CONFIG, EXIT_OK]
        cli._build_parser.cache_clear()
        assert [run(argv) for argv in calls] == fresh
        assert cli._build_parser() is cli._build_parser()


class TestCliDigest:
    """A slice of the seeded parent-vs-change sweep in tests/cli_digest.py."""

    def test_slice_is_deterministic_and_fails_cleanly(self, tmp_path):
        grid = cli_digest.runs()
        for label, command, fields, flags in grid[::15] + [r for r in grid if " error " in r[0]]:
            captured = cli_digest.capture(main, tmp_path, command, fields, flags)
            status, out, err = captured
            assert status in {"0", "2", "3", "4", "5"}, label
            if status != "0":
                assert out == "" and err.startswith("error: "), label
                assert err.count("\n") == 1, label
            again = cli_digest.capture(main, tmp_path, command, fields, flags)
            assert cli_digest.digest(again) == cli_digest.digest(captured), label

    def test_command_line(self):
        import subprocess
        import sys

        root = Path(__file__).parent.parent
        proc = subprocess.run([sys.executable, str(root / "tests" / "cli_digest.py"),
                               "--src", str(root / "src"), "--every", "50"],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.splitlines()
        assert len(lines) == len(cli_digest.runs()[::50])
        assert all(len(line.split(" ", 1)[0]) == 64 for line in lines)


# Seeded runs whose --no-timestamp tables are pinned byte for byte in
# tests/data/<name>.csv (or .json): (subcommand, config overrides, extra flags).
_FIG4A_NOISE = {"pairs_per_setting": 100_000, "trials": 20, "seed": 7}
_LOW_COUNT_NOISE = {"pairs_per_setting": 500, "trials": 30, "seed": 11}
_STATE_3X2 = {"amps": [[0.5, 0], [0.1, 0.3], [0.2, -0.4], [0.3, 0], [0.4, 0.2], [-0.1, 0.3]],
              "dims": [3, 2]}
_STATE_4X3 = {"amps": [[0.4, 0.1], [0.2, -0.3], [0.1, 0.2], [0.3, 0], [-0.2, 0.1],
                       [0.25, 0.15], [0.1, -0.1], [0.3, 0.2], [0.2, 0], [0.15, -0.25],
                       [0.3, 0.1], [0.1, 0.3]],
              "dims": [4, 3]}
_STATE_7X5 = {"amps": [[0.17, -0.33], [-0.13, 0.35], [0.1, -0.23], [-0.1, -0.13], [0.02, 0.07],
                       [0.19, -0.06], [-0.06, 0.2], [-0.01, -0.07], [0.03, -0.06], [-0.14, 0.43],
                       [0.31, 0.01], [0.14, 0.01], [-0.02, -0.22], [-0.44, -0.04], [-0.37, 0.17],
                       [-0.33, -0.2], [-0.12, 0.17], [0.17, -0.18], [-0.31, 0.1], [0.06, -0.04],
                       [-0.25, 0.11], [0.15, 0.05], [-0.02, -0.4], [0.0, 0.08], [0.15, 0.29],
                       [0.16, 0.36], [0.14, -0.03], [-0.07, -0.4], [0.25, 0.31], [-0.04, -0.04],
                       [0.12, 0.31], [0.03, 0.04], [0.18, -0.18], [-0.07, 0.21], [-0.05, -0.12]],
              "dims": [7, 5]}
# non-uniform, every amplitude nonzero
_POSTSELECTION_7X5 = {
    "amps": [[0.18, -0.35], [-0.19, 0.28], [0.12, -0.24], [-0.01, -0.15], [0.06, 0.07],
             [0.24, 0.04], [-0.11, 0.13], [0.06, -0.07], [0.1, -0.05], [0.1, 0.45],
             [0.35, 0.09], [0.17, 0.07], [0.0, -0.22], [-0.39, -0.07], [-0.32, 0.18],
             [-0.13, -0.34], [-0.03, 0.19], [0.2, -0.2], [-0.15, 0.26], [0.11, -0.05],
             [-0.21, 0.07], [0.16, 0.12], [0.23, -0.36], [0.07, 0.08], [0.01, 0.32],
             [0.33, 0.28], [0.19, 0.03], [-0.17, -0.34], [0.33, 0.28], [0.0, -0.02],
             [0.03, 0.33], [0.06, 0.05], [0.14, -0.24], [-0.03, 0.21], [-0.03, -0.1]],
    "dims": [7, 5]}
GOLDEN_CASES = {
    "reconstruct_fig4a_noise": ("reconstruct", {"noise": _FIG4A_NOISE}, []),
    "reconstruct_fig4a_low_count": ("reconstruct", {"noise": _LOW_COUNT_NOISE},
                                    ["--epsilon", "0.9"]),
    "reconstruct_fig4a_low_count_clamp": (
        "reconstruct", {"noise": {**_LOW_COUNT_NOISE, "clamp": True}}, ["--epsilon", "0.9"]),
    "reconstruct_fig4d_first_order": (
        "reconstruct", {"state": {"preset": "fig4d"}, "noise": _FIG4A_NOISE},
        ["--method", "first_order"]),
    "reconstruct_3x2_noise": (
        "reconstruct", {"state": _STATE_3X2,
                        "noise": {"pairs_per_setting": 50_000, "trials": 10, "seed": 3}},
        []),
    # 27 of the 30 trials fall outside the reachable set and are clamped
    "reconstruct_3x2_g1_low_count_clamp": (
        "reconstruct", {"state": _STATE_3X2, "g": 1.0,
                        "noise": {**_LOW_COUNT_NOISE, "clamp": True}},
        ["--epsilon", "0.9"]),
    "reconstruct_4x3_g1": ("reconstruct", {"state": _STATE_4X3, "g": 1.0}, []),
    "reconstruct_7x5_postselected": (
        "reconstruct", {"state": _STATE_7X5, "postselection": _POSTSELECTION_7X5, "g": 2.5},
        ["--epsilon", "0.3"]),
    "reconstruct_fig4d_definitional": ("reconstruct", {"state": {"preset": "fig4d"}},
                                       ["--method", "definitional"]),
    # theta = +/-pi rows carry the orthogonal_postselection marker
    "sweep_fig3_steps9": ("sweep-theta", {"state": {"preset": "fig3"}}, ["--steps", "9"]),
    "compare_fig4a_noise": ("compare", {"noise": {**_FIG4A_NOISE, "trials": 5}}, []),
    "compare_fig4a_low_count": ("compare", {"noise": {**_LOW_COUNT_NOISE, "trials": 5}},
                                ["--epsilon", "0.9"]),
    "tomography_fig4a_noise": ("tomography",
                               {"noise": {"pairs_per_setting": 1000, "seed": 7}}, []),
    # JSON documents, pinned in tests/data/<name>.json: empty cells are null,
    # and the tomography document carries the matrix arrays
    "reconstruct_3x2_g1_json": ("reconstruct", {"state": _STATE_3X2, "g": 1.0,
                                                "format": "json"}, []),
    "reconstruct_3x2_noise_json": (
        "reconstruct", {"state": _STATE_3X2, "format": "json",
                        "noise": {"pairs_per_setting": 50_000, "trials": 10, "seed": 3}},
        []),
    "sweep_fig3_steps9_json": ("sweep-theta", {"state": {"preset": "fig3"}, "format": "json"},
                               ["--steps", "9"]),
    "compare_fig4a_low_count_json": (
        "compare", {"noise": {**_LOW_COUNT_NOISE, "trials": 5}, "format": "json"},
        ["--epsilon", "0.9"]),
    "tomography_fig4a_noise_json": (
        "tomography", {"noise": {"pairs_per_setting": 1000, "seed": 7}, "format": "json"}, []),
}
GOLDEN_DIR = Path(__file__).parent / "data"


def golden_path(name):
    suffix = GOLDEN_CASES[name][1].get("format", "csv")
    return GOLDEN_DIR / f"{name}.{suffix}"


def run_golden_case(name, tmp_path):
    command, overrides, flags = GOLDEN_CASES[name]
    out = tmp_path / golden_path(name).name
    cfg = write_config(tmp_path, name=f"{name}-config.json", **overrides)
    code = main([command, "--config", cfg, *flags, "--no-timestamp", "--out", str(out)])
    return code, out


@pytest.mark.parametrize("name", sorted(GOLDEN_CASES))
def test_seeded_tables_match_golden(name, tmp_path):
    code, out = run_golden_case(name, tmp_path)
    assert code == EXIT_OK
    assert out.read_bytes() == golden_path(name).read_bytes()
