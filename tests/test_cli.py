"""End-to-end tests for the command line interface.

Covers the four subcommands, the JSON config schema with field-path error
messages, CSV output (atomic, deterministic, round-trippable), and the
documented exit codes: 0 success / verification pass, 1 verification fail
or linear-algebra failure, 2 config or usage error, 3 series divergence or
stepping overflow.
"""

import json
import os
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from nabladelay import closed_form_solve
from nabladelay.cli import load_config, main

M2 = [[0.2, 0.1], [0.0, 0.3]]
N2 = [[0.1, 0.0], [0.4, 0.2]]


def base_config(**overrides):
    doc = {
        "alpha": 0.5,
        "delay": 2,
        "horizon": 8,
        "M": [[0.2]],
        "N": [[0.1]],
        "phi": [[1.0], [1.0]],
    }
    doc.update(overrides)
    return doc


def write_config(tmp_path, name="config.json", **overrides):
    path = tmp_path / name
    path.write_text(json.dumps(base_config(**overrides)))
    return str(path)


def read_csv(path):
    comments, header, rows = [], None, []
    for line in path.read_text().splitlines():
        if line.startswith("#"):
            comments.append(line)
        elif header is None:
            header = line
        else:
            rows.append(line.split(","))
    return comments, header, rows


def csv_values(path):
    _, _, rows = read_csv(path)
    ks = [int(row[0]) for row in rows]
    values = np.array([[float(x) for x in row[1:]] for row in rows])
    return ks, values


class TestSolveCommand:
    def test_zero_system_writes_zero_table(self, tmp_path):
        cfg = write_config(tmp_path, M=[[0.0]], N=[[0.0]], phi=[[0.0], [0.0]])
        out = tmp_path / "trace.csv"
        assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
        comments, header, rows = read_csv(out)
        assert comments == []
        assert header == "k,z1"
        ks, values = csv_values(out)
        assert ks == list(range(-1, 9))
        assert np.array_equal(values, np.zeros((10, 1)))

    def test_planar_header_names_each_component(self, tmp_path):
        cfg = write_config(
            tmp_path, M=M2, N=N2, phi=[[1.0, 0.0], [0.0, 1.0]], horizon=5
        )
        out = tmp_path / "trace.csv"
        assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
        _, header, _ = read_csv(out)
        assert header == "k,z1,z2"

    def test_closed_and_step_routes_agree(self, tmp_path):
        cfg = write_config(
            tmp_path,
            M=M2,
            N=N2,
            phi=[[0.5, -0.2], [1.0, 0.3]],
            horizon=20,
            forcing={"type": "constant", "value": [0.1, -0.2]},
        )
        closed_out = tmp_path / "closed.csv"
        step_out = tmp_path / "step.csv"
        assert main(["solve", "--config", cfg, "--method", "closed", "--out", str(closed_out)]) == 0
        assert main(["solve", "--config", cfg, "--method", "step", "--out", str(step_out)]) == 0
        ks_c, closed = csv_values(closed_out)
        ks_s, step = csv_values(step_out)
        assert ks_c == ks_s
        assert float(np.max(np.abs(closed - step))) <= 1e-8

    def test_delta_route_uses_shifted_grid(self, tmp_path):
        cfg = write_config(tmp_path, horizon=6)
        out = tmp_path / "delta.csv"
        assert main(["solve", "--config", cfg, "--method", "delta", "--out", str(out)]) == 0
        ks, _ = csv_values(out)
        assert ks == list(range(0, 8))  # [2 - delay, horizon + 1]

    def test_round_trip_preserves_float_values(self, tmp_path):
        cfg = write_config(tmp_path, M=M2, N=N2, phi=[[0.5, -0.2], [1.0, 0.3]], horizon=10)
        out = tmp_path / "trace.csv"
        assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
        _, values = csv_values(out)
        trace = closed_form_solve(load_config(cfg))
        assert np.array_equal(values, trace.values.values)

    def test_output_is_deterministic(self, tmp_path):
        cfg = write_config(tmp_path, M=M2, N=N2, phi=[[0.5, -0.2], [1.0, 0.3]], horizon=10)
        first = tmp_path / "a.csv"
        second = tmp_path / "b.csv"
        assert main(["solve", "--config", cfg, "--out", str(first)]) == 0
        assert main(["solve", "--config", cfg, "--out", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes()

    def test_no_temp_files_left_behind(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "trace.csv"
        assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
        leftovers = [p.name for p in tmp_path.iterdir() if p.suffix == ".tmp"]
        assert leftovers == []

    def test_commutative_method_rejects_non_commuting_pair(self, tmp_path, capsys):
        cfg = write_config(tmp_path, M=M2, N=N2, phi=[[1.0, 0.0], [0.0, 1.0]])
        out = tmp_path / "trace.csv"
        code = main(["solve", "--config", cfg, "--method", "commutative", "--out", str(out)])
        assert code == 2
        assert "parameter error" in capsys.readouterr().err
        assert not out.exists()

    def test_divergent_series_exits_3_without_partial_output(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            alpha=0.9,
            M=[[5.0]],
            N=[[3.0]],
            horizon=12,
            truncation={"i_max": 120},
        )
        out = tmp_path / "trace.csv"
        with pytest.warns(RuntimeWarning):
            code = main(["solve", "--config", cfg, "--method", "closed", "--out", str(out)])
        assert code == 3
        err = capsys.readouterr().err
        assert "series divergence" in err
        assert "TruncationPolicy" in err
        assert not out.exists()

    def test_singular_implicit_matrix_exits_1(self, tmp_path, capsys):
        cfg = write_config(tmp_path, M=[[1.0]])
        out = tmp_path / "trace.csv"
        code = main(["solve", "--config", cfg, "--method", "step", "--out", str(out)])
        assert code == 1
        assert "solver failure" in capsys.readouterr().err


class TestConfigValidation:
    def test_missing_field_names_the_path(self, tmp_path, capsys):
        doc = base_config()
        del doc["alpha"]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        code = main(["solve", "--config", str(path), "--out", str(tmp_path / "o.csv")])
        assert code == 2
        assert "alpha" in capsys.readouterr().err

    def test_nested_field_path_reported(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            forcing={"type": "table", "values": [[0.0]] * 7 + [["bad"]]},
        )
        code = main(["solve", "--config", cfg, "--out", str(tmp_path / "o.csv")])
        assert code == 2
        assert "forcing.values[7]" in capsys.readouterr().err

    def test_invalid_json_rejected(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        code = main(["solve", "--config", str(path), "--out", str(tmp_path / "o.csv")])
        assert code == 2
        assert "invalid JSON" in capsys.readouterr().err

    def test_missing_file_rejected(self, tmp_path, capsys):
        code = main(
            ["solve", "--config", str(tmp_path / "absent.json"), "--out", str(tmp_path / "o.csv")]
        )
        assert code == 2
        assert "cannot read" in capsys.readouterr().err

    def test_alpha_outside_open_interval(self, tmp_path, capsys):
        cfg = write_config(tmp_path, alpha=1.0)
        assert main(["solve", "--config", cfg, "--out", str(tmp_path / "o.csv")]) == 2
        assert "alpha" in capsys.readouterr().err

    def test_phi_length_must_equal_delay(self, tmp_path, capsys):
        cfg = write_config(tmp_path, phi=[[1.0]])
        assert main(["solve", "--config", cfg, "--out", str(tmp_path / "o.csv")]) == 2
        assert "phi" in capsys.readouterr().err

    def test_unknown_truncation_field_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path, truncation={"max_terms": 10})
        assert main(["solve", "--config", cfg, "--out", str(tmp_path / "o.csv")]) == 2
        assert "truncation.max_terms" in capsys.readouterr().err

    def test_boolean_is_not_a_number(self, tmp_path, capsys):
        cfg = write_config(tmp_path, alpha=True)
        assert main(["solve", "--config", cfg, "--out", str(tmp_path / "o.csv")]) == 2
        assert "alpha" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "overrides, field",
        [
            ({"M": [[float("nan")]]}, "M[0][0]"),
            ({"phi": [[1.0], [float("inf")]]}, "phi[1][0]"),
            ({"forcing": {"type": "table", "values": [[0.0]] * 7 + [[float("-inf")]]}},
             "forcing.values[7][0]"),
            ({"truncation": {"tol": float("nan")}}, "truncation.tol"),
            ({"N": [[10 ** 400]]}, "N[0][0]"),
        ],
    )
    def test_non_finite_number_names_the_field(self, tmp_path, capsys, overrides, field):
        cfg = write_config(tmp_path, **overrides)
        assert main(["solve", "--config", cfg, "--out", str(tmp_path / "o.csv")]) == 2
        err = capsys.readouterr().err
        assert field in err and "finite" in err
        assert not (tmp_path / "o.csv").exists()

    def test_stepping_overflow_exits_3_without_output(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path, alpha=0.6, delay=1, horizon=3000, M=[[0.9]], N=[[0.9]], phi=[[1.0]]
        )
        out = tmp_path / "trace.csv"
        for argv in (["solve", "--config", cfg, "--method", "step", "--out", str(out)],
                     ["verify", "--config", cfg]):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                code = main(argv)
            assert code == 3
            err = capsys.readouterr().err
            assert "overflowed float64 at k = 262" in err
            assert "series" not in err
            assert not out.exists()

    def test_usage_error_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["solve"])  # missing required --config/--out
        assert exc.value.code == 2


class TestVerifyCommand:
    def test_pass_prints_report_and_exits_0(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            M=M2,
            N=N2,
            phi=[[0.5, -0.2], [1.0, 0.3]],
            horizon=15,
            forcing={"type": "constant", "value": [0.1, -0.2]},
        )
        assert main(["verify", "--config", cfg]) == 0
        out = capsys.readouterr().out
        assert "max deviation" in out
        assert "max defining-equation residual" in out
        assert "condition number" in out
        assert out.rstrip().endswith("PASS")

    def test_unattainable_tolerance_exits_1(self, tmp_path, capsys):
        cfg = write_config(tmp_path, M=M2, N=N2, phi=[[0.5, -0.2], [1.0, 0.3]], horizon=15)
        assert main(["verify", "--config", cfg, "--tol", "1e-16"]) == 1
        assert capsys.readouterr().out.rstrip().endswith("FAIL")

    def test_divergent_closed_form_exits_3_with_oracle_note(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            alpha=0.9,
            M=[[5.0]],
            N=[[3.0]],
            horizon=12,
            truncation={"i_max": 120},
        )
        with pytest.warns(RuntimeWarning):
            code = main(["verify", "--config", cfg])
        assert code == 3
        captured = capsys.readouterr()
        assert "closed form unavailable" in captured.err
        assert "TruncationPolicy" in captured.err
        assert "oracle trace computed" in captured.out
        assert captured.out.rstrip().endswith("FAIL")

    def test_singular_system_exits_1(self, tmp_path, capsys):
        cfg = write_config(tmp_path, M=[[1.0]])
        assert main(["verify", "--config", cfg]) == 1
        assert "solver failure" in capsys.readouterr().err


class TestQtableCommand:
    @staticmethod
    def write_matrix(tmp_path, name, matrix):
        path = tmp_path / name
        path.write_text(json.dumps(matrix))
        return str(path)

    @staticmethod
    def parse_block(stdout, label, dim):
        lines = stdout.splitlines()
        start = lines.index(f"{label} =") + 1
        return np.array(
            [
                [float(x) for x in line.strip().strip("[]").split(", ")]
                for line in lines[start : start + dim]
            ]
        )

    def test_prints_identity_base_case_and_mixed_words(self, tmp_path, capsys):
        m_path = self.write_matrix(tmp_path, "m.json", M2)
        n_path = self.write_matrix(tmp_path, "n.json", N2)
        assert main(["qtable", "--m", m_path, "--n", n_path, "--imax", "3"]) == 0
        out = capsys.readouterr().out
        np.testing.assert_array_equal(self.parse_block(out, "Q(1,0)", 2), np.eye(2))
        M, N = np.array(M2), np.array(N2)
        np.testing.assert_allclose(
            self.parse_block(out, "Q(3,1)", 2), M @ N + N @ M, atol=1e-15
        )

    def test_imax_above_cap_rejected(self, tmp_path, capsys):
        m_path = self.write_matrix(tmp_path, "m.json", M2)
        n_path = self.write_matrix(tmp_path, "n.json", N2)
        assert main(["qtable", "--m", m_path, "--n", n_path, "--imax", "13"]) == 2
        assert "imax" in capsys.readouterr().err

    def test_dimension_mismatch_rejected(self, tmp_path, capsys):
        m_path = self.write_matrix(tmp_path, "m.json", M2)
        n_path = self.write_matrix(tmp_path, "n.json", [[1.0]])
        assert main(["qtable", "--m", m_path, "--n", n_path, "--imax", "3"]) == 2
        assert "does not match" in capsys.readouterr().err

    def test_non_square_matrix_rejected(self, tmp_path, capsys):
        m_path = self.write_matrix(tmp_path, "m.json", [[1.0, 2.0]])
        n_path = self.write_matrix(tmp_path, "n.json", [[1.0, 2.0]])
        assert main(["qtable", "--m", m_path, "--n", n_path, "--imax", "2"]) == 2
        assert "square" in capsys.readouterr().err


class TestFigureCommand:
    def test_divergent_showcase_emits_truncation_caveat(self, tmp_path):
        out = tmp_path / "figure.csv"
        args = [
            "figure", "--alpha", "0.9", "--beta", "0.6",
            "--m", "5", "--n", "3", "--delay", "2", "--out", str(out),
        ]
        with pytest.warns(RuntimeWarning):
            assert main(args) == 0
        comments, header, rows = read_csv(out)
        assert comments == ["# truncated at i=60, convergence not guaranteed"]
        assert header == "k,D,E,F"
        assert [int(r[0]) for r in rows] == list(range(-2, 21))
        assert all(np.isfinite(float(x)) for r in rows for x in r[1:])

    def test_no_delay_matrix_collapses_first_two_columns(self, tmp_path):
        out = tmp_path / "figure.csv"
        args = [
            "figure", "--alpha", "0.5", "--beta", "0.5",
            "--m", "0.3", "--n", "0", "--delay", "2", "--out", str(out),
        ]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(args) == 0
        comments, _, rows = read_csv(out)
        assert comments == []
        for row in rows:
            assert abs(float(row[1]) - float(row[2])) <= 1e-12

    def test_pure_delay_collapses_first_and_third_columns(self, tmp_path):
        out = tmp_path / "figure.csv"
        args = [
            "figure", "--alpha", "0.5", "--beta", "0.5",
            "--m", "0", "--n", "0.3", "--delay", "2", "--out", str(out),
        ]
        assert main(args) == 0
        _, _, rows = read_csv(out)
        for row in rows:
            assert abs(float(row[1]) - float(row[3])) <= 1e-12

    def test_rejects_bad_grid_bounds(self, tmp_path, capsys):
        out = tmp_path / "figure.csv"
        args = [
            "figure", "--alpha", "0.5", "--beta", "0.5",
            "--m", "0.1", "--n", "0.1", "--delay", "2",
            "--kmax", "-5", "--out", str(out),
        ]
        assert main(args) == 2
        assert "kmax" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag, value", [("m", "nan"), ("m", "inf"), ("beta", "nan"), ("n", "-inf"), ("alpha", "nan")]
    )
    def test_rejects_non_finite_flag(self, tmp_path, capsys, flag, value):
        out = tmp_path / "figure.csv"
        flags = {"alpha": "0.5", "beta": "0.5", "m": "0.1", "n": "0.1", flag: value}
        args = ["figure", *(f"--{name}={v}" for name, v in flags.items()),
                "--delay", "2", "--kmax", "4", "--out", str(out)]
        assert main(args) == 2
        err = capsys.readouterr().err
        assert f"{flag}: expected a finite number" in err
        assert not out.exists()

    def test_rejects_alpha_outside_series_domain(self, tmp_path, capsys):
        out = tmp_path / "figure.csv"
        args = [
            "figure", "--alpha", "1.5", "--beta", "1.0",
            "--m", "0.1", "--n", "0.1", "--delay", "2", "--out", str(out),
        ]
        assert main(args) == 2
        assert "alpha" in capsys.readouterr().err


@pytest.mark.skipif(shutil.which("nabladelay") is None, reason="console script not on PATH")
def test_console_script_runs(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "trace.csv"
    proc = subprocess.run(
        ["nabladelay", "solve", "--config", cfg, "--out", str(out)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert out.exists()


def run_module(*args):
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, "-m", "nabladelay", *args],
        capture_output=True, text=True, env=env, timeout=120,
    )


def test_module_entry_point_solves(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "trace.csv"
    proc = run_module("solve", "--config", cfg, "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    ks, values = csv_values(out)
    assert ks == list(range(-1, 9))
    np.testing.assert_array_equal(values, closed_form_solve(load_config(cfg)).values.values)


def test_module_entry_point_rejects_nan_without_traceback(tmp_path):
    cfg = write_config(tmp_path, M=[[float("nan")]])
    proc = run_module("verify", "--config", cfg)
    assert proc.returncode == 2
    assert "M[0][0]" in proc.stderr
    assert "Traceback" not in proc.stderr
