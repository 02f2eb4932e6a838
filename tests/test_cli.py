"""Command-line interface: formats, round-trips, exit codes."""

import csv
import io
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wallcurve import ExperimentConfig, Window, cli
from wallcurve.cli import _CELL, _table, main


def run_cli(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_walk_zero_steps(capsys):
    code, out, _ = run_cli(capsys, "walk", "--steps", "0")
    assert code == 0
    assert out == "k,site,height\n0,0,1\n"


@pytest.mark.parametrize("estimator, height", [("occupation", "0.01"), ("band", "0")])
def test_curve_zero_steps(capsys, estimator, height):
    # A zero-step walk is its origin at t = 0: one block of height 1/sqrt(n),
    # and a band that has held no time yet.
    code, out, err = run_cli(capsys, "curve", "--steps", "0", "--estimator", estimator)
    assert (code, err) == (0, "")
    assert out == f"t,x,h\n0,0,{height}\n"


def test_walk_row_count_and_determinism(tmp_path):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    assert main(["walk", "--steps", "1000", "--seed", "5", "-o", str(out1)]) == 0
    assert main(["walk", "--steps", "1000", "--seed", "5", "-o", str(out2)]) == 0
    data1 = out1.read_bytes()
    assert data1 == out2.read_bytes()
    assert data1.decode().count("\n") == 1002  # header + 1001 rows


def test_walk_emits_full_resolution_by_default(tmp_path):
    out = tmp_path / "wall.csv"
    assert main(["walk", "--steps", "1000000", "--seed", "3", "-o", str(out)]) == 0
    with out.open() as fh:
        assert sum(1 for _ in fh) == 10**6 + 2  # header + one row per block


def test_csv_round_trip_is_byte_identical(tmp_path):
    out = tmp_path / "curve.csv"
    assert main(["curve", "--steps", "500", "--n", "500", "--seed", "8", "-o", str(out)]) == 0
    text = out.read_text()
    reader = csv.reader(io.StringIO(text))
    header = next(reader)
    assert header == ["t", "x", "h"]
    rebuilt = [",".join(header)]
    for row in reader:
        rebuilt.append(",".join(_CELL["f"] % float(v) for v in row))
    assert "\n".join(rebuilt) + "\n" == text


def test_curve_mirrors_under_negative_position_factor(capsys):
    code, plus, _ = run_cli(capsys, "curve", "--steps", "50", "--n", "50", "--seed", "4")
    assert code == 0
    code, minus, _ = run_cli(
        capsys, "curve", "--steps", "50", "--n", "50", "--seed", "4", "--c", "-1"
    )
    assert code == 0
    for row_p, row_m in zip(plus.splitlines()[1:], minus.splitlines()[1:]):
        t_p, x_p, h_p = row_p.split(",")
        t_m, x_m, h_m = row_m.split(",")
        assert (t_p, h_p) == (t_m, h_m)
        assert float(x_m) == pytest.approx(-float(x_p))


def test_curve_strided_row_count(capsys):
    code, out, _ = run_cli(
        capsys, "curve", "--steps", "1000", "--n", "1000", "--stride", "100"
    )
    assert code == 0
    assert len(out.splitlines()) == 1 + 1000 // 100 + 1


def test_profile_emits_levels(capsys):
    code, out, _ = run_cli(
        capsys,
        "profile", "--n", "400", "--t", "0.5",
        "--ymin", "-1", "--ymax", "1", "--levels", "11",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "y,local_time"
    assert len(lines) == 12


def test_verify_area_passes_with_exit_zero(capsys, tmp_path):
    out = tmp_path / "report.json"
    code = main(["verify", "area", "--t", "1", "--n", "2000", "-o", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["verdict"] == "pass"
    assert report["statistic"] < 1e-9
    assert set(report) == {
        "test_name", "statistic", "p_value", "n_samples", "seed", "params", "verdict",
    }
    assert report["params"]["alpha"] == 0.001


def test_verify_area_walks_ceil_of_n_t_steps(tmp_path):
    # 100 * 0.07 rounds to 7.000000000000001, which is still 7 steps.
    out = tmp_path / "report.json"
    assert main(["verify", "area", "--n", "100", "--t", "0.07", "-o", str(out)]) == 0
    assert json.loads(out.read_text())["n_samples"] == 7


def test_verify_json_round_trip(tmp_path):
    out = tmp_path / "report.json"
    main(["verify", "area", "--n", "1000", "-o", str(out)])
    text = out.read_text()
    assert json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n" == text


def test_table_json_round_trip(tmp_path):
    out = tmp_path / "walk.json"
    main(["walk", "--steps", "50", "--seed", "2", "--format", "json", "-o", str(out)])
    text = out.read_text()
    rows = json.loads(text)
    assert len(rows) == 51
    assert rows[0] == {"k": 0, "site": 0, "height": 1}
    assert json.dumps(rows, indent=2, sort_keys=True) + "\n" == text


def test_verify_statistical_failure_exits_one(capsys):
    # alpha = 1 cannot be exceeded by any p-value, forcing a fail verdict.
    code, out, _ = run_cli(
        capsys,
        "verify", "knight", "--replicates", "600", "--n", "500", "--alpha", "1.0",
    )
    assert code == 1
    assert json.loads(out)["verdict"] == "fail"


def test_verify_reports_are_byte_deterministic(tmp_path):
    args = ["verify", "reversal", "--replicates", "600", "--n", "1000", "--seed", "12"]
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    assert main(args + ["-o", str(out1)]) == 0
    assert main(args + ["-o", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_verify_unknown_experiment_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "bogus"])
    assert exc.value.code == 2


def test_verify_rejects_eps(capsys):
    # No experiment reads a band width, so verify has no --eps to set one.
    with pytest.raises(SystemExit) as exc:
        main(["verify", "area", "--eps", "0.1"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --eps 0.1" in capsys.readouterr().err


def test_invalid_parameters_exit_two(capsys):
    code, _, err = run_cli(capsys, "verify", "area", "--t", "-1")
    assert code == 2
    assert "error: t must be > 0, got -1.0" in err


def test_area_overflow_exits_two(capsys):
    # |c| * d overflows: the area is not a finite number, so it is bad input.
    code, out, err = run_cli(capsys, "verify", "area", "--c", "1e308", "--d", "1e308", "--n", "100")
    assert (code, out) == (2, "")
    assert "area of factors c = 1e+308, d = 1e+308 must be finite" in err


def test_report_json_rejects_non_finite_numbers():
    with pytest.raises(ValueError):
        list(cli._dump_json({"statistic": float("nan")}))


@pytest.mark.parametrize("c", ["-1e3", "-2.5E-1", "-.5e+1", "-1_0e1"])
def test_negative_factor_in_exponent_form_is_a_value(capsys, c):
    args = ["curve", "--steps", "10", "--n", "1"]
    _, joined, _ = run_cli(capsys, *args, f"--c={c}")
    code, spaced, err = run_cli(capsys, *args, "--c", c)
    assert (code, err) == (0, "")
    assert spaced == joined
    # A value that overflows a level is read too, and rejected as such.
    code, _, err = run_cli(capsys, *args, "--c", "-1e308")
    assert code == 2
    assert "position factor c = -1e+308 makes a level non-finite" in err


def test_unwritable_output_exits_two(capsys, tmp_path):
    code, _, err = run_cli(
        capsys, "walk", "--steps", "1", "-o", str(tmp_path / "missing" / "x.csv")
    )
    assert code == 2
    assert "error" in err


# 10**14 steps need 728 TiB of int64 sites, above the 128 TiB a process can
# address, so the allocation fails at once whatever the memory overcommit.
_TOO_MANY = str(10**14)


@pytest.mark.parametrize(
    "args",
    [
        ["walk", "--steps", _TOO_MANY],
        ["curve", "--steps", _TOO_MANY],
        ["profile", "--n", _TOO_MANY],
        ["verify", "area", "--n", _TOO_MANY],
        ["verify", "density", "--n", _TOO_MANY, "--replicates", "1000"],
    ],
)
def test_request_too_large_to_allocate_exits_two(capsys, args):
    code, out, err = run_cli(capsys, *args)
    assert code == 2
    assert out == ""
    assert err.startswith("error: Unable to allocate")


def test_float_formatting_round_trips():
    for x in (0.25, 1 / 3, 1e-17, 123456.789012345678, 2.0**-52):
        assert float(_CELL["f"] % x) == x
        assert _CELL["f"] % float(_CELL["f"] % x) == _CELL["f"] % x


@pytest.mark.parametrize("command", [["walk", "--steps", "4"], ["curve", "--steps", "4", "--n", "4"]])
@pytest.mark.parametrize("stride", ["-1", "0"])
def test_stride_below_one_exits_two(capsys, command, stride):
    code, out, err = run_cli(capsys, *command, "--stride", stride)
    assert code == 2
    assert out == ""
    assert f"stride must be >= 1, got {stride}" in err


@pytest.mark.parametrize(
    "option, value, message",
    [
        ("--alpha", "7", "alpha must be in (0, 1]"),
        ("--alpha", "0", "alpha must be in (0, 1]"),
        ("--alpha", "nan", "alpha must be in (0, 1]"),
        ("--t", "0", "t must be > 0"),
    ],
)
def test_verify_config_out_of_range_exits_two(capsys, option, value, message):
    code, out, err = run_cli(capsys, "verify", "area", option, value)
    assert code == 2
    assert out == ""
    assert message in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (("profile", "--eps", "nan"), "eps must be finite, got nan"),
        (("profile", "--eps", "inf"), "eps must be finite, got inf"),
        (("profile", "--t", "inf"), "t must be finite, got inf"),
        (("curve", "--estimator", "band", "--eps", "nan"), "eps must be finite, got nan"),
        (("curve", "--c", "nan"), "position factor c must be finite, got nan"),
        (("curve", "--c", "inf"), "position factor c must be finite, got inf"),
        (("curve", "--d", "nan"), "height factor d must be finite, got nan"),
        (("verify", "area", "--t", "inf"), "t must be finite, got inf"),
        (
            ("curve", "--steps", "3", "--n", "1", "--c", "-inf"),
            "position factor c must be finite, got -inf",
        ),
        (
            ("curve", "--steps", "100", "--n", "1", "--c", "1e308"),
            "position factor c = 1e+308 makes a level non-finite",
        ),
        (
            ("curve", "--steps", "100", "--n", "1", "--d", "1e308"),
            "height factor d = 1e+308 makes a height non-finite",
        ),
        # argparse reads these negative spellings as values, not as options.
        (
            ("curve", "--steps", "3", "--n", "1", "--c", "-nan"),
            "position factor c must be finite, got nan",
        ),
        (
            ("curve", "--steps", "3", "--n", "1", "--d", "-Infinity"),
            "height factor d must be finite, got -inf",
        ),
        (("verify", "area", "--t", "-INF"), "t must be finite, got -inf"),
        (("profile", "--ymin", "-inf"), "ymin must be finite, got -inf"),
        (("profile", "--ymax", "nan"), "ymax must be finite, got nan"),
        (("verify", "coverage", "--delta", "inf"), "cell size delta must be finite, got inf"),
        (("verify", "coverage", "--delta", "nan"), "cell size delta must be finite, got nan"),
        (("verify", "coverage", "--hhi", "inf"), "40 x inf cells of size 0.05 are not a finite"),
        (("verify", "coverage", "--hhi", "nan"), "40 x nan cells of size 0.05 are not a finite"),
        (("verify", "coverage", "--xhi", "inf"), "inf x 10 cells of size 0.05 are not a finite"),
        (("verify", "coverage", "--xlo", "-inf"), "inf x 10 cells of size 0.05 are not a finite"),
        # Finite ends whose difference overflows.
        (
            ("verify", "coverage", "--xlo", "-1e308", "--xhi", "1e308"),
            "inf x 10 cells of size 0.05 are not a finite grid",
        ),
        # A finite grid too large to allocate is refused before allocation.
        (
            ("verify", "coverage", "--delta", "1e-8"),
            "200000000 x 50000000 = 10000000000000000 cells of size 1e-08 exceed the limit",
        ),
        # A given eps is checked whatever the estimator reads.
        (("profile", "--estimator", "occupation", "--eps", "-5"), "eps must be > 0, got -5.0"),
        (("curve", "--estimator", "occupation", "--eps", "nan"), "eps must be finite, got nan"),
        (("profile", "--levels", "-3"), "levels must be >= 1, got -3"),
        (("profile", "--levels", "0"), "levels must be >= 1, got 0"),
        # A band too narrow for float64 cancels to 0 or garbage; it is refused.
        (
            ("curve", "--steps", "4", "--n", "1", "--estimator", "band", "--eps", "1e-17"),
            "eps must be >= 9.31e-10 for 0 steps at n = 1, got 1e-17",
        ),
        (
            ("profile", "--n", "100", "--eps", "1e-17", "--seed", "3"),
            "eps must be >= 9.31e-09 for 100 steps at n = 100, got 1e-17",
        ),
        # A walk longer than 2**62 steps is refused before numpy sizes it.
        (("verify", "density", "--t", "1e300"), "a walk of 1e+304 steps exceeds the limit of 2**62"),
        (("verify", "levy", "--t", "1e300"), "a walk of 1e+304 steps exceeds the limit of 2**62"),
        (("profile", "--t", "1e300"), "a walk of 1e+304 steps exceeds the limit of 2**62"),
        (("walk", "--steps", str(10**20)), "a walk of 1e+20 steps exceeds the limit of 2**62"),
        (("curve", "--steps", str(10**20)), "a walk of 1e+20 steps exceeds the limit of 2**62"),
        # A count that wraps in np.linspace is refused before it gets there.
        (("profile", "--levels", str(2**63)), f"levels must be <= 2**59, got {2**63}"),
        # The GOF cell masses of a t this small underflow to nan.
        (
            ("verify", "density", "--t", "1e-200"),
            "t = 1e-200 is too small for the GOF: its cell masses underflow",
        ),
    ],
)
def test_non_finite_options_exit_two(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert f"error: {message}" in err


def test_huge_levels_snap_to_no_site_without_an_invalid_cast(capsys):
    args = ("profile", "--n", "100", "--estimator", "occupation", "--levels", "3")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, _ = run_cli(capsys, *args, "--ymin", "-1e300", "--ymax", "1e300")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))[1:]
    assert [row[1] for row in rows] == ["0", rows[1][1], "0"]
    assert float(rows[1][1]) > 0


@pytest.mark.parametrize("command", ["profile", "curve"])
def test_valid_eps_leaves_the_occupation_estimate_alone(capsys, command):
    args = (command, "--n", "100", "--estimator", "occupation")
    code, out, _ = run_cli(capsys, *args, "--eps", "0.3")
    assert (code, out) == run_cli(capsys, *args)[:2]
    assert code == 0


def test_verify_defaults_are_the_library_defaults():
    args = cli.build_parser().parse_args(["verify", "area"])
    config = ExperimentConfig("area")
    assert (args.replicates, args.n, args.t, args.seed) == (
        config.replicates, config.n, config.t, config.seed
    )
    assert (args.alpha, args.c, args.d, args.delta) == (
        config.alpha, config.c, config.d, config.delta
    )
    assert Window(args.xlo, args.xhi, args.hhi) == config.window
    assert args.budget == config.step_budget


_INT64_EDGES = [0, 1, -1, 9, -9, 10, -10, -(2**63), 2**63 - 1]
_UINT64_EDGES = [0, 1, 9, 10, 99, 2**32 - 1, 2**32, 2**63, 2**64 - 1]


def test_json_table_matches_json_module(monkeypatch):
    # Records cross block boundaries; keys are out of order in the header.
    # JSON floats are repr, so the mixed table goes through the % template;
    # the integer one goes through the digit kernel, as every CSV table does.
    monkeypatch.setattr(cli, "_BLOCK", 3)
    mixed = (
        np.array([3, -1, 0, 7, 2, 5, 9], dtype=np.int64),
        np.array([0.1, -0.0, 1e-300, 2.0**-52, 1 / 3, 1e22, 123456.789]),
        np.arange(7, dtype=np.uint16),
    )
    integer = (mixed[0], np.array(_INT64_EDGES[:7]), mixed[2])
    header = ["x", "h", "a"]
    for columns in (mixed, integer):
        for stride in (1, 2, 7):
            records = [
                dict(zip(header, row)) for row in zip(*(c[::stride].tolist() for c in columns))
            ]
            expected = json.dumps(records, indent=2, sort_keys=True) + "\n"
            assert b"".join(_table("json", header, columns, stride)).decode() == expected


def _template_table(fmt, header, columns, stride):
    """The reference for CSV tables and JSON integer tables: every row through
    a ``%`` template, ``%d`` for an integer column and ``%.17g`` for a float one."""
    cells = ["%.17g" if c.dtype.kind == "f" else "%d" for c in columns]
    columns = [c[::stride].tolist() for c in columns]
    if fmt == "json":
        header, cells, columns = zip(*sorted(zip(header, cells, columns), key=lambda col: col[0]))
        fields = [f"    {json.dumps(name)}: {cell}" for name, cell in zip(header, cells)]
        record = "  {\n" + ",\n".join(fields) + "\n  }"
        return "[\n" + ",\n".join(record % row for row in zip(*columns)) + "\n]\n"
    row = ",".join(cells) + "\n"
    return ",".join(header) + "\n" + "".join(row % r for r in zip(*columns))


@st.composite
def _integer_columns(draw):
    """1-4 int64 or uint64 columns of one length, edge values likely."""
    n_rows = draw(st.integers(1, 20))
    columns = []
    for _ in range(draw(st.integers(1, 4))):
        if draw(st.booleans()):
            values = st.sampled_from(_INT64_EDGES) | st.integers(-(2**63), 2**63 - 1)
            dtype = np.int64
        else:
            values = st.sampled_from(_UINT64_EDGES) | st.integers(0, 2**64 - 1)
            dtype = np.uint64
        columns.append(np.array(draw(st.lists(values, min_size=n_rows, max_size=n_rows)), dtype))
    return columns


_EDGE_COLUMNS = [np.array(_INT64_EDGES), np.array(_UINT64_EDGES, np.uint64)]


@settings(max_examples=200, deadline=None)
@given(
    fmt=st.sampled_from(["csv", "json"]),
    stride=st.sampled_from([1, 2, 7]),
    columns=_integer_columns(),
)
@example(fmt="csv", stride=1, columns=_EDGE_COLUMNS)
@example(fmt="json", stride=1, columns=_EDGE_COLUMNS)
def test_integer_table_matches_template(fmt, stride, columns):
    header = ["x", "h", "a", "k"][: len(columns)]
    expected = _template_table(fmt, header, columns, stride)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cli, "_BLOCK", 3)  # rows cross block boundaries
        assert b"".join(_table(fmt, header, columns, stride)).decode() == expected


# Where '%.17g' rounds half to even (12345.000122070312|5), rounds past
# 10**17 (99999999999999999.0 is 1e17, written 1e+17), or switches between
# fixed and exponent notation (1e-4, 1e17), with their neighbours one ulp away.
_FLOAT_EDGES = [
    12345 + 2**-13, 99999999999999999.0, 0.0, -0.0, 5e-324, 1.7976931348623157e308,
    *(np.nextafter(10.0**k, to) for k in range(-5, 19) for to in (0, 10.0**k, np.inf)),
]


_FLOATS = st.sampled_from(_FLOAT_EDGES) | st.floats(allow_nan=True, allow_infinity=True)


@st.composite
def _mixed_columns(draw):
    """A float column and 0-3 int64, uint64 or float columns of one length, in any order."""
    n_rows = draw(st.integers(1, 20))
    values = {
        "f": _FLOATS,
        "i": st.integers(-(2**63), 2**63 - 1),
        "u": st.integers(0, 2**64 - 1),
    }
    dtypes = {"f": np.float64, "i": np.int64, "u": np.uint64}
    kinds = ["f"] + draw(st.lists(st.sampled_from("fiu"), max_size=3))
    columns = [
        np.array(draw(st.lists(values[k], min_size=n_rows, max_size=n_rows)), dtypes[k])
        for k in kinds
    ]
    return draw(st.permutations(columns))


_FLOAT_EDGE_COLUMNS = [
    np.array(_FLOAT_EDGES),
    np.resize(np.array(_INT64_EDGES), len(_FLOAT_EDGES)),
    -np.array(_FLOAT_EDGES),
]


@settings(max_examples=200, deadline=None)
@given(stride=st.sampled_from([1, 2, 7]), columns=_mixed_columns())
@example(stride=1, columns=_FLOAT_EDGE_COLUMNS)
@example(stride=2, columns=_FLOAT_EDGE_COLUMNS)
def test_float_table_matches_template(stride, columns):
    header = ["x", "h", "a", "k"][: len(columns)]
    expected = _template_table("csv", header, columns, stride)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cli, "_BLOCK", 3)  # rows cross block boundaries
        assert b"".join(_table("csv", header, columns, stride)).decode() == expected


@settings(max_examples=100, deadline=None)
@given(values=st.lists(_FLOATS, min_size=1, max_size=20))
@example(values=_FLOAT_EDGES)
def test_float_kernel_leaves_only_exponent_cells_to_percent(values):
    # The kernel renders zeros and every cell in fixed notation; the rest go
    # through ``_CELL["f"]``, which here marks them.
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cli, "_CELL", {**cli._CELL, "f": "%.17g~"})
        got = b"".join(_table("csv", ["x"], [np.array(values)])).decode()
    texts = ["%.17g" % v for v in values]
    marked = [t + "~" if "e" in t or "n" in t else t for t in texts]
    assert got == "x\n" + "".join(t + "\n" for t in marked)


def test_closed_stdout_exits_141_quietly():
    # The reader takes one line and closes the pipe, as ``| head -1`` does,
    # while the table is still being written.
    code = (
        "import sys\n"
        "from wallcurve.cli import main\n"
        "sys.exit(main(['walk', '--steps', '100000']))\n"
    )
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    with subprocess.Popen(
        [sys.executable, "-c", code], env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE
    ) as proc:
        assert proc.stdout.readline() == b"k,site,height\n"
        proc.stdout.close()
        err = proc.stderr.read()
        assert (proc.wait(timeout=120), err) == (141, b"")


def test_failed_table_leaves_existing_output_file(tmp_path):
    out = tmp_path / "prev.json"
    out.write_text("[]\n")
    columns = (np.arange(3), np.array([0.0, np.inf, 1.0]))
    with pytest.raises(ValueError, match="non-finite values in column 'h'"):
        cli._write(str(out), _table("json", ["k", "h"], columns))
    assert out.read_text() == "[]\n"


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_json_table_rejects_non_finite_values(bad):
    columns = (np.arange(3), np.array([0.0, bad, 1.0]))
    with pytest.raises(ValueError, match="non-finite values in column 'h'"):
        b"".join(_table("json", ["k", "h"], columns))
