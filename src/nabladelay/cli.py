"""Command-line interface.

Subcommands
-----------
solve
    Solve one configured system and write the trajectory as CSV.
verify
    Solve by both routes and report deviations, residuals and PASS/FAIL.
qtable
    Print the word-sum matrices Q(i, j) for a matrix pair.
figure
    Tabulate the scalar DPML function next to its one-matrix and pure-delay
    special cases; on divergent parameter sets the fixed partial sum is
    written together with a truncation caveat comment.

Exit codes: 0 success (verify: PASS), 1 verification failure, 2 schema or
usage violation (messages name the offending config field or flag, e.g. a
negative or non-finite ``verify --tol``, an ``--out`` path that cannot be
written, a file that is not JSON, or a ``horizon`` or ``--kmax`` too large
for memory), 3 series
divergence (messages name the truncation policy), a stepping trajectory
that overflowed float64, or a closed-form trajectory whose defining-equation
residual is over budget (messages name the first such k).

File formats
------------
Configs and matrix files are JSON; matrices are 2-D row-major arrays.
CSV cells are written with ``repr`` so every float round-trips exactly,
and files are written atomically (temp file then rename).
"""

from __future__ import annotations

import argparse
import dataclasses
import itertools
import json
import math
import os
import sys
import tempfile
import warnings

import numpy as np

from . import solver
from .dpml import (
    CommutativityError,
    DivergenceError,
    DpmlFunction,
    DpmlParams,
    TruncationPolicy,
    WordSumTable,
)
from .grid_calculus import _require_count, _require_grid
from .solver import DelaySystem, SingularityError, _ResidualOverBudget, _SteppingOverflow, verify

__all__ = ["ConfigError", "load_config", "parse_config", "main", "run"]


class ConfigError(ValueError):
    """Schema violation in a config or matrix file; names the field path."""

    def __init__(self, path: str, problem: str) -> None:
        self.path = path
        self.problem = problem
        super().__init__(f"{path}: {problem}" if path else problem)


def _require(doc: dict, key: str, path: str = ""):
    if key not in doc:
        raise ConfigError(f"{path}.{key}" if path else key, "missing required field")
    return doc[key]


def _as_number(value, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(path, f"expected a number, got {type(value).__name__}")
    try:
        number = float(value)
    except OverflowError:
        number = math.inf
    if not math.isfinite(number):
        raise ConfigError(path, f"expected a finite number, got {value!r}")
    return number


def _as_int(value, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(path, f"expected an integer, got {type(value).__name__}")
    return value


def _as_vector(value, length: int, path: str) -> list[float]:
    if not isinstance(value, list) or len(value) != length:
        raise ConfigError(path, f"expected a list of {length} numbers")
    return [_as_number(x, f"{path}[{i}]") for i, x in enumerate(value)]


def _finite_table(rows: list, width: int) -> np.ndarray | None:
    # The table as a float array when every row is a list of ``width`` finite
    # ints and floats, else None, leaving the caller's per-entry checks to
    # name the fault.  The type test comes first: numpy would read true as
    # 1.0 and "1.5" as 1.5.  numpy converts an int as float() does and
    # raises OverflowError where float() would.
    if set(map(type, rows)) != {list} or set(map(len, rows)) != {width}:
        return None
    if not set(map(type, itertools.chain.from_iterable(rows))) <= {float, int}:
        return None
    try:
        flat = np.fromiter(itertools.chain.from_iterable(rows), float, len(rows) * width)
    except OverflowError:
        return None
    return flat.reshape(len(rows), width) if np.isfinite(flat).all() else None


def _as_vectors(value: list, length: int, path: str):
    # Rows of ``length`` numbers, checked in one pass when they are plain.
    table = _finite_table(value, length)
    if table is not None:
        return table
    return [_as_vector(v, length, f"{path}[{i}]") for i, v in enumerate(value)]


def _as_matrix(value, path: str) -> np.ndarray:
    if not isinstance(value, list) or not value:
        raise ConfigError(path, "expected a nonempty 2-D row-major array")
    if isinstance(value[0], list) and value[0]:
        table = _finite_table(value, len(value[0]))
        if table is not None:
            return table
    rows = []
    for i, row in enumerate(value):
        if not isinstance(row, list) or not row:
            raise ConfigError(f"{path}[{i}]", "expected a nonempty list of numbers")
        if len(row) != len(value[0]):  # row 0 is a nonempty list by now
            raise ConfigError(f"{path}[{i}]", f"expected {len(value[0])} entries, got {len(row)}")
        rows.append([_as_number(x, f"{path}[{i}][{j}]") for j, x in enumerate(row)])
    return np.array(rows)


def parse_config(doc) -> DelaySystem:
    """Build a :class:`DelaySystem` from a decoded config document.

    Raises :class:`ConfigError` naming the offending field path on any
    schema violation.
    """
    if not isinstance(doc, dict):
        raise ConfigError("", "config root must be a JSON object")
    alpha = _as_number(_require(doc, "alpha"), "alpha")
    delay = _as_int(_require(doc, "delay"), "delay")
    # Constant forcing is tiled to the horizon before the system checks it.
    horizon = _as_int(_require(doc, "horizon"), "horizon")
    if horizon < 1:
        raise ConfigError("horizon", f"must be >= 1, got {horizon}")
    M = _as_matrix(_require(doc, "M"), "M")
    N = _as_matrix(_require(doc, "N"), "N")
    dim = M.shape[0]
    try:
        _require_grid("horizon", horizon, dim * dim)
    except ValueError as exc:
        raise ConfigError("", str(exc)) from exc
    phi = _require(doc, "phi")
    if not isinstance(phi, list):
        raise ConfigError("phi", "expected a list of vectors ordered k = 1 - delay .. 0")
    phi = _as_vectors(phi, dim, "phi")
    forcing = _parse_forcing(doc.get("forcing"), dim, horizon)
    policy = _parse_truncation(doc.get("truncation"))
    try:
        # The library's range and shape rules, its messages naming the field.
        return DelaySystem(
            alpha=alpha, delay=delay, M=M, N=N, phi=phi,
            forcing=forcing, horizon=horizon, policy=policy,
        )
    except ValueError as exc:
        raise ConfigError("", str(exc)) from exc


def _parse_forcing(doc, dim: int, horizon: int) -> np.ndarray | list | None:
    # The rows f(1) .. f(horizon) for the system to check, None for zero forcing.
    if doc is None:
        return None
    if not isinstance(doc, dict):
        raise ConfigError("forcing", "expected an object with a 'type' field")
    ftype = _require(doc, "type", "forcing")
    if ftype == "zero":
        return None
    if ftype == "constant":
        vec = _as_vector(_require(doc, "value", "forcing"), dim, "forcing.value")
        return np.tile(vec, (horizon, 1))
    if ftype == "table":
        values = _require(doc, "values", "forcing")
        if not isinstance(values, list) or len(values) != horizon:
            raise ConfigError(
                "forcing.values", f"expected {horizon} vectors ordered k = 1 .. {horizon}"
            )
        return _as_vectors(values, dim, "forcing.values")
    raise ConfigError("forcing.type", f"expected 'zero', 'constant' or 'table', got {ftype!r}")


def _parse_truncation(doc) -> TruncationPolicy:
    if doc is None:
        return TruncationPolicy()
    if not isinstance(doc, dict):
        raise ConfigError("truncation", "expected an object")
    kwargs = {}
    fields = {f.name: _as_int if isinstance(f.default, int) else _as_number
              for f in dataclasses.fields(TruncationPolicy)}
    for key, value in doc.items():
        if key not in fields:
            raise ConfigError(f"truncation.{key}", "unknown field")
        kwargs[key] = fields[key](value, f"truncation.{key}")
    try:
        return TruncationPolicy(**kwargs)
    except ValueError as exc:
        raise ConfigError("truncation", str(exc)) from exc


def _read_json(path: str, kind: str, field: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ConfigError(field, f"cannot read {kind} file: {exc}") from exc
    except (ValueError, RecursionError) as exc:  # also too many digits or nesting levels
        raise ConfigError(field, f"invalid JSON: {exc}") from exc


def load_config(path: str) -> DelaySystem:
    """Read and validate a JSON config file."""
    return parse_config(_read_json(path, "config", ""))


def _load_matrix_file(path: str) -> np.ndarray:
    return _as_matrix(_read_json(path, "matrix", path), path)


def _atomic_write(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path)) or "."
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".nabladelay-", suffix=".tmp")
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException as exc:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)
        if isinstance(exc, OSError):
            problem = f"cannot write output file {path}: {exc.strerror or exc}"
            raise ConfigError("out", problem) from exc
        raise


def _write_csv(path: str, header: str, ks, rows: list, comment: str | None = None) -> None:
    # ``rows`` holds Python floats, as ndarray.tolist() gives them: the repr
    # of a numpy scalar is not the repr of its float.
    lines = [] if comment is None else [comment]
    lines.append(header)
    lines.extend(f"{k}," + ",".join(map(repr, row)) for k, row in zip(ks, rows))
    lines.append("")
    _atomic_write(path, "\n".join(lines))


# --method choice -> solver route.  Routes are looked up on the solver
# module at call time, so a wrapped route (a profiler span, say) is called.
_METHODS = {
    "closed": "closed_form_solve",
    "step": "step_solve",
    "commutative": "commutative_solve",
    "delta": "delta_solve",
}


def cmd_solve(args) -> int:
    system = load_config(args.config)
    trace = getattr(solver, _METHODS[args.method])(system)
    header = "k," + ",".join(f"z{i + 1}" for i in range(system.dim))
    _write_csv(args.out, header, trace.values.points(), trace.values.values.tolist())
    return 0


def cmd_verify(args) -> int:
    system = load_config(args.config)
    try:
        report = verify(system, tol=args.tol)
    except ValueError as exc:  # verify's --tol rule, checked before it solves
        raise ConfigError("tol", str(exc)) from exc
    if not report.closed_form_available:
        print(report.message, file=sys.stderr)
        print(f"oracle trace computed for k in [{1 - system.delay}, {system.horizon}]")
        print("FAIL")
        return 3
    print(
        f"max deviation between closed form and stepping oracle: "
        f"{report.max_deviation!r} at k = {report.worst_deviation_k}"
    )
    print(
        f"max defining-equation residual of closed form: "
        f"{report.max_residual!r} at k = {report.worst_residual_k}"
    )
    print(f"condition number of I - M: {report.condition:.6g}")
    print(f"tolerance: {args.tol!r}")
    print("PASS" if report.passed else "FAIL")
    return 0 if report.passed else 1


def cmd_qtable(args) -> int:
    if not 1 <= args.imax <= 12:
        raise ConfigError("imax", f"must lie in [1, 12], got {args.imax}")
    M = _load_matrix_file(args.m)
    N = _load_matrix_file(args.n)
    try:
        table = WordSumTable(M, N)
    except ValueError as exc:
        raise ConfigError("", str(exc)) from exc
    blocks = []
    for i in range(1, args.imax + 1):
        for j, entry in enumerate(table.row(i)):
            body = "\n".join(
                "  [" + ", ".join(repr(float(x)) for x in row) + "]" for row in entry
            )
            blocks.append(f"Q({i},{j}) =\n{body}")
    print("\n\n".join(blocks))
    return 0


def cmd_figure(args) -> int:
    for flag in ("alpha", "beta", "m", "n"):
        _as_number(getattr(args, flag), flag)
    r, kmax = args.delay, args.kmax
    try:
        _require_count("imax", args.imax, 0)
        # Columns D, E and F are the DPML function of the pairs (m, n),
        # (m, 0) and (0, n): the general series, its one-matrix case and
        # its pure-delay case.  E's and F's coefficient 1-norms, |m| and
        # |n|, are at most D's |m| + |n|, so D's convergence warning is the
        # run's one; theirs would repeat it.
        columns = [DpmlFunction(DpmlParams(args.alpha, args.beta, r, [[args.m]], [[args.n]]))]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            columns += [DpmlFunction(DpmlParams(args.alpha, args.beta, r, [[m]], [[n]]))
                        for m, n in ((args.m, 0.0), (0.0, args.n))]
        _require_grid("kmax", kmax + r + 1, 1)  # the grid [-delay, kmax]
    except ValueError as exc:
        raise ConfigError("", str(exc)) from exc
    if kmax < -r:
        raise ConfigError("kmax", f"must be >= {-r}, got {kmax}")

    def table(imax: int | None) -> list:
        # Adaptive sums when imax is None, else fixed partial sums through
        # imax: one stack per column.
        return np.column_stack([fn.stack(-r, kmax, imax)[:, 0, 0] for fn in columns]).tolist()

    comment = None
    try:
        rows = table(None)
    except DivergenceError:
        # Divergent parameter set: fall back to the fixed partial sum for
        # every column so the table remains well defined.
        comment = f"# truncated at i={args.imax}, convergence not guaranteed"
        rows = table(args.imax)
    _write_csv(args.out, "k,D,E,F", range(-r, kmax + 1), rows, comment=comment)
    return 0


class _ArgumentParser(argparse.ArgumentParser):
    # argparse reads a token such as -1e-3 or -inf as an option, so
    # "--m -1e-3" would fail with "expected one argument".  No option of
    # this CLI looks like a number: a token float() reads is a value, in
    # the subcommands' parsers too, which are built from this class.

    def _parse_optional(self, arg_string):
        try:
            float(arg_string)
        except ValueError:
            return super()._parse_optional(arg_string)
        return None


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="nabladelay",
        description=(
            "Closed-form and stepping solvers for linear nabla fractional "
            "difference systems with one constant delay"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="solve a configured system and write CSV")
    p_solve.add_argument("--config", required=True, help="JSON system config")
    p_solve.add_argument(
        "--method",
        choices=list(_METHODS),
        default="closed",
        help="solution route (default: closed)",
    )
    p_solve.add_argument("--out", required=True, help="output CSV path")
    p_solve.set_defaults(func=cmd_solve)

    p_verify = sub.add_parser(
        "verify", help="cross-check closed form against the stepping oracle"
    )
    p_verify.add_argument("--config", required=True, help="JSON system config")
    p_verify.add_argument("--tol", type=float, default=1e-8, help="pass tolerance")
    p_verify.set_defaults(func=cmd_verify)

    p_qtable = sub.add_parser("qtable", help="print word-sum matrices Q(i, j)")
    p_qtable.add_argument("--m", required=True, help="JSON matrix file for M")
    p_qtable.add_argument("--n", required=True, help="JSON matrix file for N")
    p_qtable.add_argument("--imax", type=int, required=True, help="max word index (<= 12)")
    p_qtable.set_defaults(func=cmd_qtable)

    p_figure = sub.add_parser(
        "figure", help="tabulate the scalar DPML function and its special cases"
    )
    p_figure.add_argument("--alpha", type=float, required=True)
    p_figure.add_argument("--beta", type=float, required=True)
    p_figure.add_argument("--m", type=float, required=True, help="scalar coefficient M")
    p_figure.add_argument("--n", type=float, required=True, help="scalar coefficient N")
    p_figure.add_argument("--delay", type=int, required=True)
    p_figure.add_argument("--kmax", type=int, default=20)
    p_figure.add_argument("--imax", type=int, default=60, help="partial-sum order for divergent sets")
    p_figure.add_argument("--out", required=True, help="output CSV path")
    p_figure.set_defaults(func=cmd_figure)

    return parser


def main(argv=None) -> int:
    """Entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        # A grid too long to hold: its length is the horizon or --kmax.
        field = "kmax" if args.command == "figure" else "horizon"
        print(f"config error: {field}: the grid does not fit in memory ({exc})", file=sys.stderr)
        return 2
    except CommutativityError as exc:
        print(f"parameter error: {exc}", file=sys.stderr)
        return 2
    except (_SteppingOverflow, _ResidualOverBudget) as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 3
    except DivergenceError as exc:
        print(f"series divergence: {exc}", file=sys.stderr)
        return 3
    except SingularityError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 1


def run() -> None:  # console-script shim
    sys.exit(main())


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
