"""End-to-end tests for the command line interface.

Covers the four subcommands, the JSON config schema with field-path error
messages, CSV output (atomic, deterministic, round-trippable), and the
documented exit codes: 0 success / verification pass, 1 verification fail
or linear-algebra failure, 2 config or usage error, 3 series divergence or
stepping overflow.
"""

import ast
import dataclasses
import hashlib
import importlib
import itertools
import json
import math
import os
import shutil
import subprocess
import sys
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import nabladelay
from nabladelay import (
    DpmlFunction,
    DpmlParams,
    TruncationPolicy,
    WordSumTable,
    closed_form_solve,
    ml_eval,
    ml_partial_sum,
    monomial_run,
)
from nabladelay import cli
from nabladelay.cli import ConfigError, load_config, main, parse_config
from nabladelay.dpml import DivergenceError

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

    def test_zero_forcing_writes_the_unforced_csv(self, tmp_path):
        unforced, zero = tmp_path / "unforced.csv", tmp_path / "zero.csv"
        for out, extra in ((unforced, {}), (zero, {"forcing": {"type": "zero"}})):
            cfg = write_config(tmp_path, name=f"{out.stem}.json", M=M2, N=N2,
                               phi=[[0.5, -0.2], [1.0, 0.3]], **extra)
            assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
        assert zero.read_bytes() == unforced.read_bytes()

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
        # Broken syntax, an int past Python's 4,300-digit limit, nesting past
        # the recursion limit and bytes that are not UTF-8, as a config and
        # as a qtable matrix file.
        path = tmp_path / "broken.json"
        for text in [b"{not json", b'{"alpha": 0.5, "horizon": ' + b"9" * 5000 + b"}",
                     b"[" * 100000 + b"]" * 100000, b"\xff{}"]:
            path.write_bytes(text)
            code = main(["solve", "--config", str(path), "--out", str(tmp_path / "o.csv")])
            assert code == 2
            assert capsys.readouterr().err.startswith("config error: invalid JSON")
            assert main(["qtable", "--m", str(path), "--n", str(path), "--imax", "2"]) == 2
            assert capsys.readouterr().err.startswith(f"config error: {path}: invalid JSON")

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

    @pytest.mark.parametrize("field", [f.name for f in dataclasses.fields(TruncationPolicy)])
    def test_every_truncation_field_lands_in_the_policy(self, field):
        value = 2 * getattr(TruncationPolicy(), field)
        system = parse_config(base_config(truncation={field: value}))
        assert system.policy == dataclasses.replace(TruncationPolicy(), **{field: value})
        assert type(getattr(system.policy, field)) is type(value)

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


SQUARE3 = [[0.1, 0.0, 0.0], [0.0, 0.1, 0.0], [0.0, 0.0, 0.1]]
WIDE = [[0.1, 0.2, 0.3], [0.0, 0.1, 0.2]]
PLANAR_PHI = [[1.0, 0.0], [0.0, 1.0]]

# Configs each with one range or shape fault, and the field the message
# must begin with.  The library's DelaySystem makes most of these checks;
# the CLI maps its ValueError to exit 2 with the library's text.
BAD_CONFIGS = {
    "alpha-zero": ({"alpha": 0.0}, "alpha"),
    "alpha-one": ({"alpha": 1.0}, "alpha"),
    "delay-zero": ({"delay": 0}, "delay"),
    "delay-negative": ({"delay": -2}, "delay"),
    "horizon-zero": ({"horizon": 0}, "horizon"),
    "M-not-square": ({"M": WIDE, "N": WIDE, "phi": PLANAR_PHI}, "M"),
    "N-shape": ({"M": M2, "N": [[0.1]], "phi": PLANAR_PHI}, "N"),
    "phi-short": ({"phi": [[1.0]]}, "phi"),
    "phi-long": ({"phi": [[1.0]] * 3}, "phi"),
    "phi-empty": ({"phi": []}, "phi"),
    "phi-not-a-list": ({"phi": 1.0}, "phi"),
    "forcing-short": ({"forcing": {"type": "table", "values": [[0.0]] * 7}}, "forcing.values"),
    "constant-forcing-horizon-zero": (
        {"horizon": 0, "forcing": {"type": "constant", "value": [1.0]}}, "horizon"),
    "phi-narrower-than-M": ({"M": SQUARE3, "N": SQUARE3, "phi": PLANAR_PHI}, "phi[0]"),
    "delay-not-int": ({"delay": 2.0}, "delay"),
    "M-empty": ({"M": []}, "M"),
    "forcing-a-number": ({"forcing": 1.0}, "forcing"),
    "forcing-type-unknown": ({"forcing": {"type": "sine"}}, "forcing.type"),
    "truncation-a-list": ({"truncation": [3]}, "truncation"),
    "truncation-window-zero": ({"truncation": {"window": 0}}, "truncation"),
}


class TestRejectedInput:
    """Each bad input exits 2, names its field or flag first and writes nothing."""

    @staticmethod
    def assert_rejected(code, capsys, field, out=None):
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith(f"config error: {field}"), err
        assert "Traceback" not in err
        assert out is None or not out.exists()

    @pytest.mark.parametrize("overrides, field", list(BAD_CONFIGS.values()),
                             ids=list(BAD_CONFIGS))
    def test_solve_config(self, tmp_path, capsys, overrides, field):
        out = tmp_path / "o.csv"
        code = main(["solve", "--config", write_config(tmp_path, **overrides), "--out", str(out)])
        self.assert_rejected(code, capsys, field, out)

    def test_config_root_not_an_object(self, tmp_path, capsys):
        config, out = tmp_path / "config.json", tmp_path / "o.csv"
        config.write_text(json.dumps([base_config()]))
        code = main(["solve", "--config", str(config), "--out", str(out)])
        self.assert_rejected(code, capsys, "config root must be a JSON object", out)

    @pytest.mark.parametrize("m, n, field", [([[1.0, 2.0]], [[1.0, 2.0]], "M"),
                                             (M2, [[1.0]], "N")], ids=["not-square", "mismatch"])
    def test_qtable_matrices(self, tmp_path, capsys, m, n, field):
        m_path = TestQtableCommand.write_matrix(tmp_path, "m.json", m)
        n_path = TestQtableCommand.write_matrix(tmp_path, "n.json", n)
        code = main(["qtable", "--m", m_path, "--n", n_path, "--imax", "2"])
        self.assert_rejected(code, capsys, field)

    @pytest.mark.parametrize("grid", [["--delay", "0"], ["--delay", "-3", "--kmax", "3"]])
    def test_figure_delay(self, tmp_path, capsys, grid):
        out = tmp_path / "figure.csv"
        code = main(["figure", "--alpha", "0.5", "--beta", "0.5", "--m", "0.1", "--n", "0.1",
                     *grid, "--out", str(out)])
        self.assert_rejected(code, capsys, "delay", out)

    def test_figure_negative_imax(self, tmp_path, capsys):
        out = tmp_path / "figure.csv"
        code = main(["figure", "--alpha", "0.5", "--beta", "0.5", "--m", "0.1", "--n", "0.1",
                     "--delay", "2", "--imax", "-1", "--out", str(out)])
        self.assert_rejected(code, capsys, "imax", out)

    # 10**13 points of one float each are 73 TiB, which numpy refuses at
    # once; a size that could be allocated must not be tried here.  At
    # 2**61 and 10**20 points numpy cannot describe the array at all, so
    # those grids are turned down before anything is allocated.
    @pytest.mark.parametrize("command", [["solve"], ["solve", "--method", "step"], ["verify"]])
    @pytest.mark.parametrize("forcing", [None, {"type": "constant", "value": [1.0]}],
                             ids=["zero", "constant"])
    def test_horizon_past_memory(self, tmp_path, capsys, command, forcing):
        out = tmp_path / "o.csv"
        for horizon in (10**13, 2**61, 10**20):
            config = write_config(tmp_path, horizon=horizon,
                                  **({} if forcing is None else {"forcing": forcing}))
            args = [*command, "--config", config]
            args += ["--out", str(out)] if command[0] == "solve" else []
            self.assert_rejected(main(args), capsys, "horizon", out)

    def test_figure_kmax_past_memory(self, tmp_path, capsys):
        # The grid is [-delay, kmax], so a huge delay is a grid past memory too.
        out = tmp_path / "figure.csv"
        for grid in (("2", 10**13), ("2", 10**20), (10**20, 20)):
            code = main(["figure", "--alpha", "0.5", "--beta", "0.5", "--m", "0.1", "--n", "0.1",
                         "--delay", str(grid[0]), "--kmax", str(grid[1]), "--out", str(out)])
            self.assert_rejected(code, capsys, "kmax", out)


# The per-entry number checks, one call per entry, that the CLI ran on every
# table before tables were checked in one pass; the reference for the
# messages and values the one-pass checks must reproduce.


def reference_number(value, path):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(path, f"expected a number, got {type(value).__name__}")
    try:
        number = float(value)
    except OverflowError:
        number = math.inf
    if not math.isfinite(number):
        raise ConfigError(path, f"expected a finite number, got {value!r}")
    return number


def reference_vectors(rows, length, path):
    checked = []
    for i, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != length:
            raise ConfigError(f"{path}[{i}]", f"expected a list of {length} numbers")
        checked.append([reference_number(x, f"{path}[{i}][{j}]") for j, x in enumerate(row)])
    return np.array(checked, dtype=float)


def reference_matrix(value, path):
    if not isinstance(value, list) or not value:
        raise ConfigError(path, "expected a nonempty 2-D row-major array")
    width = None
    rows = []
    for i, row in enumerate(value):
        if not isinstance(row, list) or not row:
            raise ConfigError(f"{path}[{i}]", "expected a nonempty list of numbers")
        if width is None:
            width = len(row)
        elif len(row) != width:
            raise ConfigError(f"{path}[{i}]", f"expected {width} entries, got {len(row)}")
        rows.append([reference_number(x, f"{path}[{i}][{j}]") for j, x in enumerate(row)])
    return np.array(rows)


def reference_tables(doc):
    """M, N, phi and forcing.values of ``doc`` as bytes, or the error text."""
    try:
        M = reference_matrix(doc["M"], "M")
        N = reference_matrix(doc["N"], "N")
        phi = reference_vectors(doc["phi"], M.shape[0], "phi")
        forcing = reference_vectors(doc["forcing"]["values"], M.shape[0], "forcing.values")
    except ConfigError as exc:
        return str(exc)
    return [(a.shape, a.tobytes()) for a in (M, N, phi, forcing)]


def parsed_tables(doc):
    try:
        system = parse_config(doc)
    except ConfigError as exc:
        return str(exc)
    arrays = (system.M, system.N, system.phi.values, system.forcing.values)
    return [(a.shape, a.tobytes()) for a in arrays]


TABLE_FIELDS = ("M", "phi", "forcing.values")
# JSON texts of single entries: wrong types, non-finite numbers (1e400 reads
# as inf, the int 10**400 overflows float) and valid ints past 2**63.
ENTRY_TEXTS = ("true", '"1.5"', "null", "[1.0]", "NaN", "Infinity", "-Infinity", "1e400",
               "1" + "0" * 400, str(2**63 + 1), str(10**30), "-0.0", "5e-324", "7")
ROW_TEXTS = ("[]", "[0.25, 0.5, 0.75]", "[0.25]", "0.5", "[[0.25, 0.5]]")


def parity_doc():
    """A valid config with fresh 2-wide tables M, phi and forcing.values."""
    return base_config(
        delay=2, horizon=3, M=[[0.2, 0.1], [0.0, 0.3]], N=N2, phi=[[1.0, 2.0], [3.0, 4.0]],
        forcing={"type": "table", "values": [[0.5, 1.5], [2.5, 3.5], [4.5, 5.5]]},
    )


def parity_table(doc, field):
    return doc["forcing"]["values"] if field == "forcing.values" else doc[field]


def parity_config_text(field, index, text, row=False):
    """A valid config text with one entry (or row) of ``field`` replaced by ``text``."""
    doc = parity_doc()
    rows = parity_table(doc, field)
    if row:
        rows[index] = "SLOT"
    else:
        rows[index][index] = "SLOT"
    return json.dumps(doc).replace('"SLOT"', text)


def parity_cases():
    for field, index in itertools.product(TABLE_FIELDS, (0, -1)):
        for text in ENTRY_TEXTS:
            yield pytest.param(parity_config_text(field, index, text),
                               id=f"{field}[{index}][{index}]={text[:12]}")
        for text in ROW_TEXTS:
            yield pytest.param(parity_config_text(field, index, text, row=True),
                               id=f"{field}[{index}]={text}")


class TestOneTableCheckParity:
    """Tables checked in one pass give the per-entry checks' messages and bytes."""

    @pytest.mark.parametrize("text", list(parity_cases()))
    def test_cli_and_parse_match_per_entry_checks(self, tmp_path, capsys, text):
        doc = json.loads(text)
        want = reference_tables(doc)
        assert parsed_tables(doc) == want
        cfg = tmp_path / "config.json"
        cfg.write_text(text)
        out = tmp_path / "trace.csv"
        code = main(["solve", "--method", "step", "--config", str(cfg), "--out", str(out)])
        err = capsys.readouterr().err
        if isinstance(want, str):
            assert (code, err) == (2, f"config error: {want}\n")
            assert not out.exists()
        else:  # an M entry of 1e30 makes I - M singular (exit 1)
            assert code in (0, 1) and not err.startswith("config error")

    @pytest.mark.parametrize("late, early", [("null", "true"), ("NaN", "[1.0]"),
                                             ("1e400", "Infinity"), ("7", '"1.5"')])
    def test_first_fault_in_parse_order_is_named(self, late, early):
        for first, second in (("M", "phi"), ("M", "forcing.values"), ("phi", "forcing.values")):
            doc = json.loads(parity_config_text(second, 0, late))
            parity_table(doc, first)[-1][-1] = json.loads(early)
            want = reference_tables(doc)
            assert parsed_tables(doc) == want
            assert want.startswith(f"{first}[")

    @pytest.mark.parametrize("bad", [None, np.float64("nan"), np.float64(np.inf), np.int64(7),
                                     np.float32(0.1), np.bool_(True)])
    def test_numpy_scalars_take_the_per_entry_checks(self, bad):
        rng = np.random.default_rng(4)
        doc = parity_doc()
        for field in TABLE_FIELDS:
            for row in parity_table(doc, field):
                row[:] = [np.float64(x) for x in rng.normal(size=len(row)) * 0.1]
        if bad is not None:
            doc["forcing"]["values"][1][1] = bad
        want = reference_tables(doc)
        assert parsed_tables(doc) == want
        assert isinstance(want, list) == (bad is None)


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

    # -1e-9 and -inf as separate tokens, which argparse alone reads as options.
    @pytest.mark.parametrize("tol", ["nan", "inf", "-1", "-1e-9", "-inf"])
    def test_rejects_bad_tolerance(self, tmp_path, capsys, tol):
        cfg = write_config(tmp_path)
        assert main(["verify", "--config", cfg, "--tol", tol]) == 2
        captured = capsys.readouterr()
        assert "tol: " in captured.err
        assert captured.out == ""


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

    # Output of the word-sum table before it read the series' row source.
    # The signed zeros of M and N print as 0.0 there: the recursion took
    # one matrix product at a time, which sums -0.0 products to +0.0.
    CAPTURED = [
        ([[-0.0]], [[0.5]], 3,
         "Q(1,0) =\n  [1.0]\n\nQ(2,0) =\n  [0.0]\n\nQ(2,1) =\n  [0.5]\n\nQ(3,0) =\n  [0.0]\n\n"
         "Q(3,1) =\n  [0.0]\n\nQ(3,2) =\n  [0.25]\n"),
        ([[0.2, -0.0], [0.0, 0.3]], [[-0.0, 0.1], [0.4, 0.2]], 3,
         "Q(1,0) =\n  [1.0, 0.0]\n  [0.0, 1.0]\n\nQ(2,0) =\n  [0.2, 0.0]\n  [0.0, 0.3]\n\n"
         "Q(2,1) =\n  [0.0, 0.1]\n  [0.4, 0.2]\n\n"
         "Q(3,0) =\n  [0.04000000000000001, 0.0]\n  [0.0, 0.09]\n\n"
         "Q(3,1) =\n  [0.0, 0.05]\n  [0.2, 0.12]\n\n"
         "Q(3,2) =\n  [0.04000000000000001, 0.020000000000000004]\n"
         "  [0.08000000000000002, 0.08000000000000002]\n"),
    ]
    M3 = [[0.3, -0.1, 0.2], [0.05, 0.25, -0.15], [-0.2, 0.1, 0.35]]
    N3 = [[0.1, 0.2, -0.3], [-0.25, 0.15, 0.05], [0.3, -0.05, 0.2]]
    M3_SHA256 = "b4dc8768a69211975301bbcba2239ebfbae55a25da5e0c954aca1f28a1aa1f74"

    @pytest.mark.parametrize("M, N, imax, want", CAPTURED, ids=["1x1-signed-zero", "2x2"])
    def test_output_matches_captured_bytes(self, tmp_path, capsys, M, N, imax, want):
        m_path = self.write_matrix(tmp_path, "m.json", M)
        n_path = self.write_matrix(tmp_path, "n.json", N)
        assert main(["qtable", "--m", m_path, "--n", n_path, "--imax", str(imax)]) == 0
        assert capsys.readouterr().out == want

    def test_full_table_matches_captured_digest(self, tmp_path, capsys):
        m_path = self.write_matrix(tmp_path, "m.json", self.M3)
        n_path = self.write_matrix(tmp_path, "n.json", self.N3)
        assert main(["qtable", "--m", m_path, "--n", n_path, "--imax", "12"]) == 0
        out = capsys.readouterr().out.encode()
        assert len(out) == 16035 and hashlib.sha256(out).hexdigest() == self.M3_SHA256

    def test_output_is_the_repr_of_the_table_rows(self, tmp_path, capsys):
        rng = np.random.default_rng(4)
        M, N = 0.4 * rng.normal(size=(3, 3)), 0.4 * rng.normal(size=(3, 3))
        m_path = self.write_matrix(tmp_path, "m.json", M.tolist())
        n_path = self.write_matrix(tmp_path, "n.json", N.tolist())
        assert main(["qtable", "--m", m_path, "--n", n_path, "--imax", "7"]) == 0
        table = WordSumTable(M, N)
        want = "\n\n".join(
            f"Q({i},{j}) =\n" + "\n".join("  [" + ", ".join(map(repr, line)) + "]"
                                         for line in entry.tolist())
            for i in range(1, 8) for j, entry in enumerate(table.row(i))
        )
        assert capsys.readouterr().out == want + "\n"

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
        # Divergent in every column, at the default kmax and at 200: one
        # warning a run, and one stack per column fills every row.
        out = tmp_path / "figure.csv"
        for kmax in ([], ["--kmax", "200"]):
            args = [
                "figure", "--alpha", "0.9", "--beta", "0.6",
                "--m", "5", "--n", "3", "--delay", "2", *kmax, "--out", str(out),
            ]
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                assert main(args) == 0
            assert [w.category for w in caught] == [RuntimeWarning]
            comments, header, rows = read_csv(out)
            assert comments == ["# truncated at i=60, convergence not guaranteed"]
            assert header == "k,D,E,F"
            assert [int(r[0]) for r in rows] == list(range(-2, 201 if kmax else 21))
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

    @pytest.mark.parametrize("flag, value", [("m", "-1e-3"), ("beta", "-2.5E1"), ("n", "-1E-2")])
    def test_float_flag_takes_negative_exponent_notation(self, tmp_path, flag, value):
        # argparse alone reads -1e-3 as an option, not as --m's value.
        flags = {"alpha": "0.5", "beta": "0.5", "m": "0.1", "n": "0.1", flag: value}
        joined, separate = tmp_path / "joined.csv", tmp_path / "separate.csv"
        tail = ["--delay", "2", "--kmax", "6"]
        assert main(["figure", *(f"--{name}={v}" for name, v in flags.items()), *tail,
                     "--out", str(joined)]) == 0
        assert main(["figure", *itertools.chain.from_iterable(
            (f"--{name}", v) for name, v in flags.items()), *tail, "--out", str(separate)]) == 0
        assert separate.read_bytes() == joined.read_bytes()

    def test_rejects_negative_infinity_as_separate_token(self, tmp_path, capsys):
        out = tmp_path / "figure.csv"
        args = ["figure", "--alpha", "0.5", "--beta", "0.5", "--m", "-inf", "--n", "0.1",
                "--delay", "2", "--out", str(out)]
        assert main(args) == 2
        assert "config error: m: expected a finite number, got -inf" in capsys.readouterr().err
        assert not out.exists()

    def test_warns_once_from_the_general_column(self, tmp_path):
        # D, E and F are DPML functions of (m, n), (m, 0) and (0, n).  E's
        # and F's 1-norms, |m| and |n|, are at most D's |m| + |n|, so D's
        # warning, made when it is built and blamed on the caller's line,
        # is the only one, even where no point needs a series.
        out = tmp_path / "figure.csv"
        args = ["figure", "--alpha", "0.5", "--beta", "0.5", "--m", "1.25", "--n", "1.5",
                "--delay", "3", "--kmax", "-3", "--out", str(out)]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(args) == 0
        assert [str(w.message).split(";")[0] for w in caught] == [
            "sum of coefficient 1-norms is 2.75 >= 1"
        ]
        assert caught[0].filename == __file__
        assert read_csv(out)[2] == [["-3", "1.0", "1.0", "1.0"]]

    @pytest.mark.parametrize(
        "alpha, beta, m, n, delay, kmax, imax",
        [(0.3, 0.4, -1.3, 0.5, 1, 60, 60),  # cancelling: D(54) is 2.4e13, a term 4.6e28
         (0.3, 0.4, -1.3, 0.5, 2, 60, 60), (0.9, 0.6, 5.0, 3.0, 2, 20, 60),
         (0.6, 1.7, 1.3, 0.2, 5, 60, 60), (1.0, 1.0, -0.9, 3.0, 2, 20, 7)],
    )
    def test_truncated_cells_are_within_rounding_of_the_exact_sum(
            self, tmp_path, alpha, beta, m, n, delay, kmax, imax):
        # Column D of a truncated table against the exact sum of its terms,
        # taken in fractions from the code's own float monomial weights and
        # word sums.  Each term is one product, summed over the p + 1 delay
        # blocks of its order and then over the imax + 1 orders, so the
        # float sum is within gamma_N sum |terms|, N = (p + 1) + imax + 1.
        out = tmp_path / "figure.csv"
        argv = ["figure", "--alpha", str(alpha), "--beta", str(beta), "--m", str(m),
                "--n", str(n), "--delay", str(delay), "--kmax", str(kmax),
                "--imax", str(imax), "--out", str(out)]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            assert main(argv) == 0
        comments, _, rows = read_csv(out)
        assert comments == [f"# truncated at i={imax}, convergence not guaranteed"]
        got = {int(row[0]): Fraction(float(row[1])) for row in rows}
        assert got[-delay] == 1
        # h[i][x] is the order-i monomial at x + 1, q[i][j] is Q(i + 1, j).
        h = [[Fraction(x) for x in monomial_run(i * alpha + (beta - 1.0), kmax + delay)]
             for i in range(imax + 1)]
        table = WordSumTable([[m]], [[n]])
        q = [[Fraction(float(x)) for x in table.row(i + 1)[:, 0, 0]] for i in range(imax + 1)]
        u = Fraction(1, 2**53)
        for k in range(1 - delay, kmax + 1):
            p = max(0, -(-k // delay))
            terms = [h[i][k - (j - 1) * delay - 1] * q[i][j]
                     for i in range(imax + 1) for j in range(min(i, p) + 1)]
            size = (p + 1) + imax + 1
            bound = size * u / (1 - size * u) * sum(map(abs, terms))
            error = abs(got[k] - sum(terms))
            assert error <= bound, (k, float(error), float(bound))

    def test_rejects_alpha_outside_series_domain(self, tmp_path, capsys):
        out = tmp_path / "figure.csv"
        args = [
            "figure", "--alpha", "1.5", "--beta", "1.0",
            "--m", "0.1", "--n", "0.1", "--delay", "2", "--out", str(out),
        ]
        assert main(args) == 2
        assert "alpha" in capsys.readouterr().err


def test_cli_imports_no_private_dpml_name():
    # qtable reads the public word-sum table; figure tabulates three DPML
    # functions, not the one-matrix series.
    tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
    names = [alias.name for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom) and (node.module or "").endswith("dpml")
             for alias in node.names]
    assert "WordSumTable" in names
    assert not {"ml_eval", "ml_partial_sum"} & set(names)
    assert [name for name in names if name.startswith("_")] == []


def reference_csv(rows, header, comment=None):
    """Reference writer: CSV bytes built one cell at a time with repr(float(x))."""
    lines = [] if comment is None else [comment]
    lines.append(header)
    for row in rows:
        lines.append(",".join(repr(float(x)) if i else str(x) for i, x in enumerate(row)))
    return ("\n".join(lines) + "\n").encode()


# -0.0, subnormals, the extremes of float64, and magnitudes either side of
# 1e16, where repr switches from positional to exponent notation.  The step
# route copies phi into the CSV verbatim; the forcing puts magnitudes near
# 1e300 into the trajectory.
PHI_EDGES = [[-0.0, 5e-324], [-2.2250738585072014e-308, 2.0**-1074 * 3],
             [1e16, 9999999999999998.0], [-1e16 - 2.0, 123456789012345680.0]]
FORCING_EDGES = [[1e-300, -1e300], [1.7976931348623157e300, 1e15 + 0.3], [0.1, 1 / 3],
                 [1e-5, 1e-4], [1e16, -1e-16], [0.0, 1e22]]


class TestCsvByteParity:
    """The CSV writer gives the bytes of the per-cell repr(float(x)) writer."""

    @pytest.mark.parametrize("method", ["closed", "step", "commutative", "delta"])
    def test_solve_output_matches_per_cell_writer(self, tmp_path, method):
        cfg = write_config(
            tmp_path, delay=4, horizon=6, M=[[0.2, 0.0], [0.0, 0.2]], N=[[0.1, 0.0], [0.0, 0.1]],
            phi=PHI_EDGES, forcing={"type": "table", "values": FORCING_EDGES},
        )
        out = tmp_path / "trace.csv"
        assert main(["solve", "--method", method, "--config", cfg, "--out", str(out)]) == 0
        route = {"closed": "closed_form_solve", "step": "step_solve",
                 "commutative": "commutative_solve", "delta": "delta_solve"}[method]
        trace = getattr(nabladelay, route)(load_config(cfg)).values
        rows = ((k, *z) for k, z in zip(trace.points(), trace.values))
        assert out.read_bytes() == reference_csv(rows, "k,z1,z2")
        if method == "step":
            assert out.read_text().splitlines()[1].split(",")[1:] == ["-0.0", "5e-324"]

    @pytest.mark.parametrize(
        "alpha, beta, m, n, delay, kmax, truncated",
        [(0.9, 0.6, 5.0, 3.0, 2, 20, True), (0.5, 0.5, 0.3, 0.0, 2, 20, False),
         (0.5, 0.5, 0.0, 0.3, 2, 20, False), (0.7, 1.2, 0.2, 0.3, 3, 40, False),
         (0.4, 0.9, -0.3, 0.2, 1, -1, False),
         # beta > 1 apart from alpha; m <= -1, which warns and diverges;
         # delay 5; kmax = -delay with |m| >= 1; a second truncated table.
         (0.6, 1.7, 0.4, 0.2, 2, 20, False), (0.6, 1.7, -1.3, 0.2, 2, 20, True),
         (0.5, 1.0, 0.3, 0.2, 5, 30, False), (0.5, 0.5, 1.3, 0.1, 3, -3, False),
         (0.6, 1.7, 1.3, 0.2, 5, 60, True)],
    )
    def test_figure_output_matches_per_cell_writer(self, tmp_path, alpha, beta, m, n, delay,
                                                   kmax, truncated):
        out = tmp_path / "figure.csv"
        argv = ["figure", "--alpha", str(alpha), "--beta", str(beta), "--m", str(m),
                "--n", str(n), "--delay", str(delay), "--kmax", str(kmax), "--out", str(out)]
        points = range(-delay, kmax + 1)

        def table(imax):
            # Numpy scalars in every value column, as the figure command built them.
            D, F = (fn.stack(-delay, kmax, imax)[:, 0, 0] for fn in pairs)
            E = [np.eye(1)[0, 0] if k == -delay
                 else (ml_eval([[m]], alpha, beta - 1.0, k, -delay) if imax is None
                       else ml_partial_sum([[m]], alpha, beta - 1.0, k, -delay, imax))[0, 0]
                 for k in points]
            return list(zip(points, D, E, F))

        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            assert main(argv) == 0
            pairs = [DpmlFunction(DpmlParams(alpha, beta, delay, [[mm]], [[n]]))
                     for mm in (m, 0.0)]
            try:
                comment, rows = None, table(None)
            except DivergenceError:
                comment, rows = "# truncated at i=60, convergence not guaranteed", table(60)
        assert (comment is not None) == truncated
        assert out.read_bytes() == reference_csv(rows, "k,D,E,F", comment)


def out_argv(command, tmp_path, out):
    if command == "solve":
        return ["solve", "--config", write_config(tmp_path), "--out", str(out)]
    return ["figure", "--alpha", "0.5", "--beta", "0.5", "--m", "0.1", "--n", "0.1",
            "--delay", "2", "--kmax", "4", "--out", str(out)]


def unwritable_out(tmp_path, case):
    if case == "missing directory":
        return tmp_path / "absent" / "trace.csv"
    target = tmp_path / "existing"
    target.mkdir()
    return target


class TestUnwritableOutput:
    @pytest.mark.parametrize("case", ["missing directory", "existing directory"])
    @pytest.mark.parametrize("command", ["solve", "figure"])
    def test_exits_2_naming_out(self, tmp_path, capsys, command, case):
        out = unwritable_out(tmp_path, case)
        assert main(out_argv(command, tmp_path, out)) == 2
        err = capsys.readouterr().err
        assert "out: cannot write output file" in err
        assert "Traceback" not in err
        assert not list(tmp_path.rglob(".nabladelay-*.tmp"))

    def test_module_entry_point_exits_2_without_traceback(self, tmp_path):
        out = unwritable_out(tmp_path, "missing directory")
        proc = run_module(*out_argv("solve", tmp_path, out))
        assert proc.returncode == 2
        assert "out: cannot write output file" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert not list(tmp_path.rglob(".nabladelay-*.tmp"))


def test_console_script_entry_resolves_to_run(tmp_path, monkeypatch):
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    scripts = tomllib.loads(pyproject.read_text(encoding="utf-8"))["project"]["scripts"]
    assert scripts["nabladelay"] == "nabladelay.cli:run"
    module, _, name = scripts["nabladelay"].partition(":")
    entry = getattr(importlib.import_module(module), name)
    argv = ["solve", "--config", write_config(tmp_path), "--out", str(tmp_path / "trace.csv")]
    monkeypatch.setattr(sys, "argv", ["nabladelay", *argv])
    with pytest.raises(SystemExit) as exc:
        entry()
    assert exc.value.code == main(argv) == 0


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
