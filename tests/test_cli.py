import argparse
import csv
import importlib.util
import inspect
import io
import json
import math
import os
import re
import subprocess
import sys
import time
import types
from pathlib import Path

import numpy as np
import pytest

import upb.bounds
import upb.cli as cli
from upb import (
    Constellation,
    DimensionError,
    NumericalError,
    ParseError,
    RangeError,
    ValidationError,
    compute_bounds,
    save_constellation,
)
from upb.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--format", "json", "--no-timestamp")
    assert code == 0, err
    return json.loads(out)


# --- bound ---------------------------------------------------------------------


def test_bound_n1_matches_sine(capsys, tmp_path):
    doc = run_json(capsys, "bound", "--n", "1", "--m", "8", "--cache-dir", str(tmp_path))
    assert doc["command"] == "bound"
    assert len(doc["results"]) == 3
    for row in doc["results"]:
        assert row["value"] == pytest.approx(math.sin(math.pi / 8.0), abs=1e-6)
    assert "timestamp" not in doc and "wall_time_s" not in doc


def test_json_floats_stay_floats(capsys, tmp_path):
    # B2 at (3, 8) saturates at exactly 1.0: it must read back as a float,
    # not as the integer 1
    doc = run_json(capsys, "bound", "--n", "3", "--m", "8", "--cache-dir", str(tmp_path))
    b2 = next(row for row in doc["results"] if row["method"] == "b2")
    assert b2["value"] == 1.0 and type(b2["value"]) is float
    assert doc["parameters"] == {"n": 3, "m": 8, "method": "b1,b2,b3"}


def test_nonfinite_json_value_is_numerical_failure(capsys, tmp_path, monkeypatch):
    rows = cli._bound_rows

    def nan_rows(*args):
        return [dict(row, value=math.nan) for row in rows(*args)]

    monkeypatch.setattr(cli, "_bound_rows", nan_rows)
    code, out, err = run(capsys, "bound", "--n", "1", "--m", "4", "--format", "json",
                         "--cache-dir", str(tmp_path))
    assert code == 2 and out == ""
    assert "numerical failure: non-finite value in output" in err


def test_bound_reproduces_published_m128(capsys, tmp_path):
    doc = run_json(
        capsys, "bound", "--n", "2", "--m", "128", "--method", "b1",
        "--cache-dir", str(tmp_path),
    )
    (row,) = doc["results"]
    assert row["value"] == pytest.approx(0.5347, abs=5e-3)
    assert row["metric"] == "euclidean" and row["strategy"] == "exact"


def test_bound_usage_errors(capsys, tmp_path):
    code, _, err = run(capsys, "bound", "--n", "2", "--m", "1", "--cache-dir", str(tmp_path))
    assert code == 1 and "m must be ≥ 2" in err
    code, _, _ = run(capsys, "bound", "--n", "0", "--m", "4", "--cache-dir", str(tmp_path))
    assert code == 1
    code, _, _ = run(capsys, "bound", "--n", "2", "--m", "4", "--method", "b9",
                     "--cache-dir", str(tmp_path))
    assert code == 1


def test_bound_ids_have_one_check(capsys, tmp_path, monkeypatch):
    # the library and the CLI refuse an unknown id with one message, and
    # compute_bounds checks its ids before its first solve: a str, None or
    # an int is no list of ids
    def no_solve(*args):
        raise AssertionError("bound ids are checked before any solve")

    monkeypatch.setattr(upb.bounds, "solve_r0", no_solve)
    message = "unknown bound id 'b9'; expected one of b1, b2, b3"
    for methods in (("b9",), ("b1", "b9"), ["b9"]):
        with pytest.raises(ValidationError) as info:
            compute_bounds(2, 8, methods)
        assert str(info.value) == message
    for methods in ("b1", None, 5):
        with pytest.raises(ValidationError) as info:
            compute_bounds(2, 8, methods)
        assert str(info.value) == f"methods must be a list or tuple of bound ids such as ('b1',), got {methods!r}"
    code, out, err = run(capsys, "bound", "--n", "2", "--m", "8", "--method", "b1,b9",
                         "--cache-dir", str(tmp_path))
    assert (code, out, err) == (1, "", f"error: {message}\n")
    assert list(tmp_path.iterdir()) == []
    # all stands for b1, b2, b3, and every other id of the list is still checked
    code, out, err = run(capsys, "bound", "--n", "2", "--m", "8", "--method", "all,b9",
                         "--cache-dir", str(tmp_path))
    assert (code, out, err) == (1, "", f"error: {message}\n")
    assert list(tmp_path.iterdir()) == []


def test_method_list_is_checked_by_the_library(capsys, tmp_path):
    # the CLI only splits --method: compute_bounds drops a repeated id and
    # refuses an empty list, with one error line
    for fmt in ("table", "csv", "json"):
        outputs = [
            run(capsys, "bound", "--n", "2", "--m", "24", "--method", method, "--format", fmt,
                "--no-timestamp", "--cache-dir", str(tmp_path))
            for method in ("b1,b1,b3", "b1,b3")
        ]
        assert outputs[0] == outputs[1] and outputs[0][0] == 0, fmt
        outputs = [
            run(capsys, "bound", "--n", "2", "--m", "24", "--method", method, "--format", fmt,
                "--no-timestamp", "--cache-dir", str(tmp_path))
            for method in ("all", "b3,all", "all,b1")
        ]
        assert outputs[0] == outputs[1] == outputs[2] and outputs[0][0] == 0, fmt
    code, out, err = run(capsys, "bound", "--n", "2", "--m", "24", "--method", ",",
                         "--cache-dir", str(tmp_path / "empty"))
    assert (code, out, err) == (1, "", "error: methods must name at least one of b1, b2, b3\n")
    assert not (tmp_path / "empty").exists()


def test_samples_and_nodes_are_ignored(capsys, tmp_path):
    # the hidden flags bound --samples/--seed and sweep --nodes change no
    # output and no cache key, and no help text names them
    for args, hidden in (
        (("bound", "--n", "2", "--m", "24"), ("--samples", "10", "--seed", "5")),
        (("sweep", "--n", "2", "--m-start", "24", "--m-end", "24"), ("--nodes", "5")),
    ):
        args += ("--format", "json", "--no-timestamp", "--cache-dir", str(tmp_path))
        _, plain, _ = run(capsys, *args)
        code, flagged, _ = run(capsys, *args, *hidden)
        assert code == 0 and flagged == plain
        assert len(list(tmp_path.glob("*.json"))) == 2  # same cache keys, no new entries
        with pytest.raises(SystemExit):
            main([args[0], "--help"])
        help_text = capsys.readouterr().out
        assert not any(flag in help_text for flag in ("--samples", "--nodes", "--seed"))
    with pytest.raises(SystemExit):
        main(["search", "--help"])
    assert "--seed" in capsys.readouterr().out


def test_bound_above_float_range_is_numerical_failure(capsys, tmp_path):
    # the solve works on the Haar fraction, so (2 pi)^n n! overflowing from
    # n = 125 no longer matters; the kernel's own limit is n = 200, and a
    # call above it fails before any table is built
    start = time.perf_counter()
    code, out, err = run(capsys, "bound", "--n", "201", "--m", "4", "--cache-dir", str(tmp_path))
    assert time.perf_counter() - start < 1.0
    assert code == 2 and out == ""
    assert "numerical failure" in err and "n <= 200" in err and "Traceback" not in err


def test_bound_numerical_failure_maps_to_exit_2(capsys, tmp_path, monkeypatch):
    def explode(*args, **kwargs):
        raise NumericalError("injected failure", bracket=(0.1, 0.2))

    monkeypatch.setattr(upb.bounds, "solve_r0", explode)
    code, _, err = run(capsys, "bound", "--n", "1", "--m", "4", "--cache-dir", str(tmp_path))
    assert code == 2 and "injected failure" in err


@pytest.mark.parametrize("error, code, prefix", [
    (ValidationError, 1, "error: "),
    (DimensionError, 1, "error: "),
    (ParseError, 1, "error: "),
    (NumericalError, 2, "numerical failure: "),
    (RangeError, 2, "numerical failure: "),
])
def test_each_exception_root_has_one_exit_code(capsys, tmp_path, monkeypatch, error, code, prefix):
    # NumericalError and its subclass RangeError exit 2, every other UpbError 1
    assert issubclass(error, NumericalError) == (code == 2)

    def fail(*args, **kwargs):
        raise error("injected failure")

    monkeypatch.setattr(cli, "compute_bounds", fail)
    got, out, err = run(capsys, "bound", "--n", "2", "--m", "4", "--cache-dir", str(tmp_path))
    assert (got, out, err) == (code, "", f"{prefix}injected failure\n")


@pytest.mark.parametrize("n, m, method", [
    (4, 2**64, "all"),
    (8, 10**20, "b1"),
    (8, 10**20, "b3"),
    (2, 10**21, "all"),
])
def test_bound_refuses_a_radius_below_its_error(capsys, tmp_path, n, m, method):
    # at these m the kernel's error bound at F = 1/m, or at (2, 10^21) the
    # bisection width, swamps r0, which would be noise: exit 2 names r0 and
    # sigma_r, and nothing is cached
    code, out, err = run(capsys, "bound", "--n", str(n), "--m", str(m), "--method", method,
                         "--cache-dir", str(tmp_path))
    assert code == 2 and out == ""
    found = re.search(r"radius r0 = (\S+) has error σ_r = (\S+) > r0/10", err)
    assert err.startswith("numerical failure: ") and found, err
    r0, se_r = float(found[1]), float(found[2])
    assert 0.0 < 0.1 * r0 < se_r
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("n, m, method", [
    (7, 10**30, "b1"),
    (16, 10**30, "b3"),
    (24, 10**30, "all"),
])
def test_bound_refuses_a_target_below_the_kernel_error(capsys, tmp_path, n, m, method):
    # here r0 passes the r0/10 check, but the kernel's error bound at r0 is
    # above 1/(2m), so the sign of F - 1/m is unknown there: exit 2 names
    # that error and 1/m, and nothing is cached
    code, out, err = run(capsys, "bound", "--n", str(n), "--m", str(m), "--method", method,
                         "--cache-dir", str(tmp_path))
    assert code == 2 and out == ""
    found = re.search(r"has error (\S+) > 1/\(2m\): the target F = 1/m = (\S+) ", err)
    assert err.startswith("numerical failure: ") and found, err
    assert float(found[2]) == pytest.approx(1.0 / m, rel=1e-3)
    assert float(found[1]) > 0.5 / m
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("argv", [
    ("bound", "--n", "2", "--m", str(2**1024)),
    ("bound", "--n", "1", "--m", str(10**400)),
    ("bound", "--n", "1", "--m", str(10**200), "--method", "b1"),
    ("sweep", "--n", "2", "--m-start", str(2**1024), "--m-end", str(2**1030), "--m-factor", "2"),
])
def test_m_beyond_the_float_range_is_one_line(capsys, tmp_path, argv):
    # 1/m, or at n = 1 the square of r0 = 2 sin(pi/(2m)), is beyond the
    # float range: exit 2 with one line on stderr, not a traceback
    code, out, err = run(capsys, *argv, "--cache-dir", str(tmp_path))
    assert code == 2 and out == ""
    assert err.startswith("numerical failure: ") and err.count("\n") == 1, err
    assert "beyond the float range" in err or "below the float range" in err


@pytest.mark.parametrize("m", [628_000, 10**9])
def test_bound_n1_solves_the_closed_form_at_large_m(capsys, tmp_path, m):
    # n = 1 inverts the arc length exactly, so no m is refused for its radius error
    doc = run_json(capsys, "bound", "--n", "1", "--m", str(m), "--cache-dir", str(tmp_path))
    closed = {"euclidean": 2.0 * math.sin(0.5 * math.pi / m), "riemannian": math.pi / m}
    for row in doc["results"]:
        assert row["r0"] == closed[row["metric"]], row
        assert row["value"] + row["std_error"] >= math.sin(math.pi / m), row


def test_root_tol_flag_is_a_usage_error(capsys, tmp_path):
    # the solve has no settings, so the retired --root-tol is an unknown flag
    code, out, err = run(capsys, "bound", "--n", "1", "--m", "8", "--root-tol", "1e-6",
                         "--cache-dir", str(tmp_path))
    assert code == 1 and out == ""
    assert err.startswith("error: ") and "--root-tol" in err and "Traceback" not in err


def test_help_exits_zero():
    with pytest.raises(SystemExit) as info:
        main(["--help"])
    assert info.value.code == 0


def test_each_subcommand_accepts_exactly_its_flags(capsys):
    # every flag must select something; bound's --samples and --seed and
    # sweep's --nodes are ignored, kept for the benchmark that passes them
    (subparsers,) = [a for a in cli._build_parser()._actions
                     if isinstance(a, argparse._SubParsersAction)]
    flags = {
        name: {opt for action in sub._actions for opt in action.option_strings or [action.dest]}
        for name, sub in subparsers.choices.items()
    }
    common = {"-h", "--help", "--format", "--out", "--no-timestamp", "--cache-dir"}
    assert flags == {
        "bound": common | {"--n", "--m", "--method", "--samples", "--seed"},
        "table": common,
        "sweep": common | {"--n", "--m-start", "--m-end", "--m-step", "--m-factor", "--method", "--nodes"},
        "eval": common | {"file", "--bounds"},
        "search": common | {"--n", "--m", "--trials", "--objective", "--seed"},
        "selftest": {"-h", "--help"},
    }
    code, out, err = run(capsys, "selftest", "--format", "json")
    assert code == 1 and out == "" and "unrecognized arguments" in err


# --- determinism and cache --------------------------------------------------------


def test_output_byte_identical_across_cache_states(capsys, tmp_path):
    args = ("bound", "--n", "2", "--m", "24",
            "--format", "json", "--no-timestamp", "--cache-dir", str(tmp_path))
    code, cold, _ = run(capsys, *args)
    assert code == 0
    assert list(tmp_path.glob("*.json"))  # the solve populated the cache
    code, warm, _ = run(capsys, *args)
    assert code == 0
    assert cold == warm


def test_warm_cache_does_no_mass_work(capsys, tmp_path, monkeypatch):
    calls = []
    real = upb.weyl._cdf

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(upb.weyl, "_cdf", counting)
    args = ("bound", "--n", "4", "--m", "24", "--samples", "2000", "--no-timestamp",
            "--cache-dir", str(tmp_path))
    code, cold, _ = run(capsys, *args)
    assert code == 0 and calls
    calls.clear()
    code, warm, _ = run(capsys, *args)
    assert code == 0
    assert calls == []
    assert warm == cold


def test_library_and_cli_share_one_error_model(capsys, tmp_path):
    library = compute_bounds(4, 24)
    doc = run_json(capsys, "bound", "--n", "4", "--m", "24", "--cache-dir", str(tmp_path))
    assert [r["method"] for r in doc["results"]] == ["b1", "b2", "b3"]
    for res, row in zip(library, doc["results"]):
        assert res.bound_id == row["method"]
        assert res.r0 == row["r0"] and res.value == row["value"]
        assert res.std_error_hint == pytest.approx(row["std_error"], rel=1e-12)
    assert library[0].std_error_hint > 0.0  # B2 saturates at 1 here, so its row carries 0


def test_csv_output_deterministic(capsys, tmp_path):
    args = ("sweep", "--n", "1", "--m-start", "2", "--m-end", "6", "--method", "b1",
            "--format", "csv", "--no-timestamp", "--cache-dir", str(tmp_path))
    _, first, _ = run(capsys, *args)
    _, second, _ = run(capsys, *args)
    assert first == second


def test_corrupt_cache_entry_is_recomputed(capsys, tmp_path):
    args = ("bound", "--n", "1", "--m", "8", "--method", "b1",
            "--format", "json", "--no-timestamp", "--cache-dir", str(tmp_path))
    _, before, _ = run(capsys, *args)
    for path in tmp_path.glob("*.json"):
        path.write_text("{broken")
    _, after, _ = run(capsys, *args)
    assert json.loads(after) == json.loads(before)


def test_cache_dir_from_environment(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("UPB_CACHE_DIR", str(tmp_path / "envcache"))
    code, _, _ = run(capsys, "bound", "--n", "1", "--m", "4", "--format", "json",
                     "--no-timestamp")
    assert code == 0
    assert list((tmp_path / "envcache").glob("*.json"))
    # the flag wins over a set variable
    code, _, _ = run(capsys, "bound", "--n", "1", "--m", "5", "--format", "json",
                     "--no-timestamp", "--cache-dir", str(tmp_path / "flagcache"))
    assert code == 0
    assert list((tmp_path / "flagcache").glob("*.json"))
    assert not list((tmp_path / "envcache").glob("1_5_*.json"))
    # an empty variable falls back to ./.upb-cache
    monkeypatch.setenv("UPB_CACHE_DIR", "")
    monkeypatch.chdir(tmp_path)
    code, _, _ = run(capsys, "bound", "--n", "1", "--m", "6", "--format", "json",
                     "--no-timestamp")
    assert code == 0
    assert list((tmp_path / ".upb-cache").glob("*.json"))


def test_timestamp_present_without_flag(capsys, tmp_path):
    code, out, _ = run(capsys, "bound", "--n", "1", "--m", "4", "--format", "json",
                       "--cache-dir", str(tmp_path))
    assert code == 0
    doc = json.loads(out)
    assert "timestamp" in doc and "wall_time_s" in doc


def test_wall_time_covers_the_subcommand(capsys, tmp_path, monkeypatch):
    # main starts the one timer before the subcommand does its work
    real = cli.compute_bounds

    def slow_compute_bounds(*args, **kwargs):
        time.sleep(0.2)
        return real(*args, **kwargs)

    monkeypatch.setattr(cli, "compute_bounds", slow_compute_bounds)
    code, out, _ = run(capsys, "bound", "--n", "1", "--m", "4", "--format", "json",
                       "--cache-dir", str(tmp_path))
    assert code == 0
    assert json.loads(out)["wall_time_s"] >= 0.2


# --- sweep ----------------------------------------------------------------------------


def sweep_rows(out):
    reader = csv.DictReader(io.StringIO(out))
    assert reader.fieldnames == list(cli._SWEEP_COLUMNS)
    return list(reader)


def test_sweep_csv_n1_matches_closed_form(capsys, tmp_path):
    code, out, _ = run(capsys, "sweep", "--n", "1", "--m-start", "2", "--m-end", "32",
                       "--m-factor", "2", "--format", "csv", "--no-timestamp",
                       "--cache-dir", str(tmp_path))
    assert code == 0
    rows = sweep_rows(out)
    assert [int(r["m"]) for r in rows if r["method"] == "b1"] == [2, 4, 8, 16, 32]
    for row in rows:
        expected = math.sin(math.pi / int(row["m"]))
        assert float(row["value"]) == pytest.approx(expected, abs=1e-6)
    for method in ("b1", "b2", "b3"):
        vals = [float(r["value"]) for r in rows if r["method"] == method]
        assert all(a >= b for a, b in zip(vals, vals[1:]))


def test_sweep_n3_values_in_unit_interval(capsys, tmp_path):
    code, out, _ = run(capsys, "sweep", "--n", "3", "--m-start", "4", "--m-end", "8",
                       "--m-factor", "2", "--nodes", "32", "--format", "csv",
                       "--no-timestamp", "--cache-dir", str(tmp_path))
    assert code == 0
    rows = sweep_rows(out)
    assert len(rows) == 6
    for row in rows:
        assert 0.0 < float(row["value"]) <= 1.0


def test_sweep_writes_out_file(capsys, tmp_path):
    out_file = tmp_path / "sweep.csv"
    code, stdout, _ = run(capsys, "sweep", "--n", "1", "--m-start", "2", "--m-end", "4",
                          "--method", "b1", "--format", "csv", "--no-timestamp",
                          "--out", str(out_file), "--cache-dir", str(tmp_path))
    assert code == 0 and stdout == ""
    assert sweep_rows(out_file.read_text())


def test_sweep_unwritable_out_path(capsys, tmp_path):
    code, _, err = run(capsys, "sweep", "--n", "1", "--m-start", "2", "--m-end", "4",
                       "--out", str(tmp_path / "missing" / "x.csv"),
                       "--cache-dir", str(tmp_path))
    assert code == 1 and "--out" in err


def test_sweep_range_validation(capsys, tmp_path):
    code, _, _ = run(capsys, "sweep", "--n", "1", "--m-start", "8", "--m-end", "4",
                     "--cache-dir", str(tmp_path))
    assert code == 1
    for factor in ("0.5", "nan", "inf"):
        code, _, err = run(capsys, "sweep", "--n", "1", "--m-start", "2", "--m-end", "8",
                           "--m-factor", factor, "--cache-dir", str(tmp_path))
        assert code == 1 and "--m-factor must be > 1" in err, factor


@pytest.mark.parametrize("argv", [
    ("--m-start", "2", "--m-end", str(10**11)),
    ("--m-start", "2", "--m-end", str(10**30)),
    ("--m-start", "2", "--m-end", str(10**12), "--m-factor", "1.0000001"),
], ids=["step-1e11", "step-1e30", "factor"])
def test_sweep_longer_than_the_limit_is_refused_before_any_solve(capsys, tmp_path, argv):
    # the grid is read lazily to one size past the limit, so neither a huge
    # --m-end nor a factor just above 1 builds it, and nothing is solved
    start = time.monotonic()
    code, out, err = run(capsys, "sweep", "--n", "2", *argv, "--cache-dir", str(tmp_path))
    assert time.monotonic() - start < 5.0
    assert code == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and "more than 10000 sizes" in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("spacing", [(), ("--m-factor", "1.0000001")], ids=["step", "factor"])
def test_sweep_grid_at_the_limit_is_read_whole(spacing):
    # sizes 2 .. 10001 by both spacings, without a solve; one more is refused
    def sweep(m_end):
        args = cli._build_parser().parse_args(["sweep", "--n", "2", "--m-start", "2",
                                               "--m-end", str(m_end), *spacing])
        return cli._sweep_sizes(args)

    assert cli._MAX_SWEEP_SIZES == 10**4
    assert sweep(10**4 + 1) == list(range(2, 10**4 + 2))
    with pytest.raises(ValidationError, match="more than 10000 sizes"):
        sweep(10**4 + 2)


@pytest.mark.parametrize("flags", [
    ("--m-step", "3", "--m-factor", "2"),
    ("--m-step", "1", "--m-factor", "2"),
    ("--m-factor", "2", "--m-step", "1"),
])
def test_sweep_spacing_flags_are_exclusive(capsys, tmp_path, flags):
    # a step next to a factor would be ignored, so giving both is a usage
    # error, also when the step is the default 1
    code, out, err = run(capsys, "sweep", "--n", "2", "--m-start", "2", "--m-end", "10", *flags,
                         "--cache-dir", str(tmp_path))
    assert code == 1 and out == ""
    assert err.startswith("error: argument --m-") and "not allowed with argument" in err
    assert list(tmp_path.iterdir()) == []
    for spacing in ((), ("--m-factor", "2")):
        doc = run_json(capsys, "sweep", "--n", "1", "--m-start", "2", "--m-end", "4", *spacing,
                       "--cache-dir", str(tmp_path))
        assert doc["parameters"]["m_step"] == 1 and type(doc["parameters"]["m_step"]) is int


# --- table -----------------------------------------------------------------------------


def test_table_consistent_columns_within_tolerance(capsys, tmp_path):
    code, out, _ = run(capsys, "table", "--format", "csv",
                       "--no-timestamp", "--cache-dir", str(tmp_path))
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 16
    # the published m=64 and m=100 entries are inconsistent with the packing
    # equality; the acceptance suite tracks them, the other columns must match
    for row in rows:
        dev = abs(float(row["computed"]) - float(row["reference"]))
        assert dev == pytest.approx(float(row["abs_dev"]), abs=1e-12)
        if int(row["m"]) in (64, 100):
            assert 0.005 < dev < 0.011
        else:
            assert dev <= 0.005


# --- eval ------------------------------------------------------------------------------


def write_constellation(tmp_path, members, name="v.json", label=""):
    path = tmp_path / name
    save_constellation(Constellation(members, label=label), path)
    return path


def test_eval_antipodal_pair(capsys, tmp_path):
    path = write_constellation(tmp_path, [np.eye(2), -np.eye(2)])
    doc = run_json(capsys, "eval", str(path), "--bounds",
                   "--cache-dir", str(tmp_path))
    rows = {r["name"]: r for r in doc["results"]}
    assert rows["diversity_sum"]["value"] == pytest.approx(1.0)
    assert rows["diversity_product"]["value"] == pytest.approx(1.0)
    assert rows["diversity_sum"]["detail"] == "pair 0,1"
    assert rows["chordal_packing_radius"]["value"] == pytest.approx(2.0)
    assert rows["bound_b1"]["value"] >= 1.0 - 1e-9
    assert "gap" in rows["bound_b1"]["detail"]


def test_eval_reports_not_fully_diverse(capsys, tmp_path):
    path = write_constellation(tmp_path, [np.eye(2), np.diag([1.0, -1.0])])
    code, out, _ = run(capsys, "eval", str(path), "--no-timestamp",
                       "--cache-dir", str(tmp_path))
    assert code == 0
    assert "not fully diverse" in out


def test_eval_rejects_duplicate_members(capsys, tmp_path):
    eye = [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]
    path = tmp_path / "dup.json"
    path.write_text(json.dumps({"n": 2, "matrices": [eye, eye]}))
    code, _, err = run(capsys, "eval", str(path), "--cache-dir", str(tmp_path))
    assert code == 1 and "matrices 0 and 1 are equal" in err


def test_eval_missing_file(capsys, tmp_path):
    code, _, _ = run(capsys, "eval", str(tmp_path / "nope.json"),
                     "--cache-dir", str(tmp_path))
    assert code == 1


@pytest.mark.parametrize("content", [
    b'{"n": 1, "matrices": [[[[1' + b"0" * 400 + b', 0]]], [[[0, 1]]]]}',
    b'{"n": 1' + b"0" * 5000 + b', "matrices": []}',
    b"[" * 200000,
    b'{"n": 1, "label": "\xe9", "matrices": []}',
], ids=["float-overflow", "digit-limit", "deep-nesting", "not-utf8"])
def test_eval_malformed_file_is_usage_error(capsys, tmp_path, content):
    path = tmp_path / "bad.json"
    path.write_bytes(content)
    code, _, err = run(capsys, "eval", str(path), "--cache-dir", str(tmp_path))
    assert code == 1
    assert err.startswith("error: ") and "Traceback" not in err


SCIPY_MODULES = "sorted(k for k in sys.modules if k == 'scipy' or k.startswith('scipy.'))"
# OpenSSL's hash module, which `import hashlib` loads (~17 ms per process)
OPENSSL_MODULES = "sorted(k for k in sys.modules if k == '_hashlib')"
# numpy's compiled core, which its __init__ loads; the lazy module that
# upb registers under "numpy" loads nothing until its first attribute access
NUMPY_LOADED = "'numpy._core' in sys.modules"
LOADED = f"{SCIPY_MODULES}, {OPENSSL_MODULES}, {NUMPY_LOADED}"


def test_import_and_eval_load_no_scipy(tmp_path):
    # a count of loaded modules, not a timing: the package depends on numpy
    # alone, so neither `import upb` nor a cold solve may load scipy, and
    # nothing but search (numpy.random loads it) may load OpenSSL. numpy
    # loads on the first numeric operation: not at `import upb`, for --help,
    # a usage error or rows served from the cache, but for a cold solve,
    # eval and search.
    path = write_constellation(tmp_path, [np.eye(2), -np.eye(2)])
    # each command with its cache, a word its output must contain, its exit
    # code, whether it may load OpenSSL and whether it loads numpy; a
    # command run a second time on the same cache is served from it
    sweep = ["sweep", "--n", "3", "--m-start", "8", "--m-end", "32", "--m-factor", "2"]
    commands = [
        (["eval", str(path)], "eval", "diversity_sum", 0, False, True),
        (["eval", str(path), "--bounds"], "eval-bounds", "bound_b3", 0, False, True),
        (["bound", "--n", "3", "--m", "16"], "bound", "riemannian", 0, False, True),
        (["bound", "--n", "3", "--m", "16"], "bound", "riemannian", 0, False, False),
        (["table"], "table", "max abs deviation", 0, False, True),
        (["table"], "table", "max abs deviation", 0, False, False),
        (sweep, "sweep", "riemannian", 0, False, True),
        (sweep, "sweep", "riemannian", 0, False, False),
        (["search", "--n", "2", "--m", "4", "--trials", "20", "--seed", "3",
          "--out", str(tmp_path / "best.json")], "search", "bound_b3", 0, True, True),
        (["--help"], "help", "usage: upb", 0, False, False),
        (["bound", "--n", "3", "--m", "x"], "usage", "invalid int value", 1, False, False),
        (["bound", "--n", "3", "--m", "1"], "usage", "m must be", 1, False, False),
    ]
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    for argv, cache, word, expected, openssl, numpy in commands:
        if argv != ["--help"]:
            argv = argv + ["--no-timestamp", "--cache-dir", str(tmp_path / f"cache-{cache}")]
        code = (
            "import sys, upb\n"
            f"print({LOADED})\n"
            "from upb import *\n"
            "import upb.cli\n"
            f"print({LOADED})\n"
            "try:\n"
            f"    code = upb.cli.main({argv!r})\n"
            "except SystemExit as exc:\n"
            "    code = exc.code\n"
            f"print(code, {LOADED})\n"
        )
        res = subprocess.run([sys.executable, "-c", code], env=env, cwd=tmp_path,
                             capture_output=True, text=True, timeout=120)
        assert res.returncode == 0, res.stderr
        lines = res.stdout.splitlines()
        assert lines[0] == lines[1] == "[] [] False", argv
        assert word in res.stdout + res.stderr, argv
        assert lines[-1].startswith(f"{expected} [] "), argv
        assert lines[-1].endswith(str(numpy)), argv
        assert openssl or lines[-1] == f"{expected} [] [] {numpy}", argv


# --- search ----------------------------------------------------------------------------


def test_search_circle_example(capsys, tmp_path):
    out_file = tmp_path / "best.json"
    # At m = 3 a trial reaches 0.95 of the optimum with probability ~6e-3, so
    # 10^4 trials miss it with probability ~e^-58 whatever the seed.
    doc = run_json(capsys, "search", "--n", "1", "--m", "3", "--trials", "10000",
                   "--seed", "874", "--out", str(out_file), "--cache-dir", str(tmp_path))
    rows = {r["name"]: r for r in doc["results"]}
    score = rows["best_sum"]["value"]
    assert score >= 0.95 * math.sin(math.pi / 3.0)
    best_bound = min(rows[f"bound_{b}"]["value"] for b in ("b1", "b2", "b3"))
    assert score <= best_bound + 1e-12
    assert out_file.exists()


def test_search_saved_file_reproducible(capsys, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for out_file in (a, b):
        code, _, _ = run(capsys, "search", "--n", "2", "--m", "3", "--trials", "200",
                         "--seed", "11", "--out", str(out_file), "--no-timestamp",
                         "--cache-dir", str(tmp_path))
        assert code == 0
    assert a.read_bytes() == b.read_bytes()


def test_search_reports_an_unwritable_file_in_one_line(capsys, tmp_path):
    # save_constellation's own error, exit 1
    code, out, err = run(capsys, "search", "--n", "1", "--m", "4", "--trials", "10",
                         "--out", str(tmp_path), "--cache-dir", str(tmp_path / "cache"))
    assert (code, out) == (1, "")
    assert err == f"error: cannot write constellation file: [Errno 21] Is a directory: '{tmp_path}'\n"


def test_search_validates_flags(capsys, tmp_path, monkeypatch):
    def no_solve(*args):
        raise AssertionError("flags are checked before the bounds are solved")

    monkeypatch.setattr(cli, "compute_bounds", no_solve)
    code, _, _ = run(capsys, "search", "--n", "1", "--m", "4", "--trials", "0",
                     "--cache-dir", str(tmp_path))
    assert code == 1
    code, _, _ = run(capsys, "search", "--n", "1", "--m", "4", "--objective", "trace",
                     "--cache-dir", str(tmp_path))
    assert code == 1


def test_search_past_kernel_limit_fails_before_searching(capsys, tmp_path, monkeypatch):
    # the kernel's n limit is checked first, so n > 200 exits before the
    # search and writes no constellation file
    def no_search(*args, **kwargs):
        raise AssertionError("the n limit is checked before the search")

    monkeypatch.setattr(cli, "random_search", no_search)
    monkeypatch.chdir(tmp_path)
    start = time.monotonic()
    code, out, err = run(capsys, "search", "--n", "201", "--m", "2", "--trials", "1")
    assert code == 2 and out == ""
    assert "n <= 200" in err
    assert time.monotonic() - start < 5.0
    assert list(tmp_path.iterdir()) == []


def test_search_refuses_a_draw_above_the_limit(capsys, tmp_path):
    # m = 10^18 passes the size check, since 1/m is a float, but one trial's
    # Haar draw would take 64 EB: exit 2 with one line, before any allocation
    start = time.monotonic()
    code, out, err = run(capsys, "search", "--n", "2", "--m", str(10**18), "--trials", "1",
                         "--out", str(tmp_path / "best.json"), "--cache-dir", str(tmp_path / "cache"))
    assert time.monotonic() - start < 5.0
    assert code == 2 and out == ""
    assert err.startswith("numerical failure: ") and err.count("\n") == 1 and "1024 MiB" in err, err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("m, trials", [("3", str(10**20)), ("100000", "1")], ids=["trials", "m"])
def test_search_refuses_unbounded_pair_work(capsys, tmp_path, m, trials):
    # 10^20 trials at m = 3, or one trial at m = 10^5 (5e9 pairs), would run
    # for hours: exit 1 with one line before the first draw
    start = time.monotonic()
    code, out, err = run(capsys, "search", "--n", "2", "--m", m, "--trials", trials,
                         "--out", str(tmp_path / "best.json"), "--cache-dir", str(tmp_path / "cache"))
    assert time.monotonic() - start < 1.0
    assert code == 1 and out == ""
    assert err.startswith("error: a search with n = 2") and err.count("\n") == 1
    assert "more than 2^34 bytes of pair differences" in err, err
    assert list(tmp_path.iterdir()) == []


def test_search_solves_after_searching_and_saves_last(capsys, tmp_path, monkeypatch):
    # the bounds are solved after the search, so the kernel's memo does not
    # add to its peak memory; a failed solve still writes no file
    order = []
    search = cli.random_search

    def tracked_search(*args, **kwargs):
        order.append("search")
        return search(*args, **kwargs)

    def failed_solve(*args):
        order.append("solve")
        raise NumericalError("injected failure")

    monkeypatch.setattr(cli, "random_search", tracked_search)
    monkeypatch.setattr(cli, "compute_bounds", failed_solve)
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, "search", "--n", "2", "--m", "3", "--trials", "10")
    assert code == 2 and out == "" and "injected failure" in err
    assert order == ["search", "solve"]
    assert list(tmp_path.iterdir()) == []


# --- selftest ----------------------------------------------------------------------------


def test_selftest_passes_quickly(capsys):
    start = time.monotonic()
    code, out, _ = run(capsys, "selftest")
    elapsed = time.monotonic() - start
    assert code == 0
    assert elapsed < 60.0
    assert out.count("ok   ") == 5
    assert "selftest passed" in out


@pytest.mark.parametrize(
    "name, attribute, fault, detail",
    [
        pytest.param("normalizer", "normalizer_estimate",
                     lambda n, samples, seed: (1.1 * cli.total_mass(n), 1.0),
                     "normalizer n=1: relative error 0.1 exceeds 0.01", id="normalizer"),
        pytest.param("kernel-vs-haar", "ball_volume_fraction", lambda n, r, metric: 0.0,
                     "euclidean r=2.0: kernel fraction 0.000000 vs Haar ", id="kernel-vs-haar"),
        pytest.param("product-le-sum", "diversity_summary",
                     lambda c: types.SimpleNamespace(diversity_sum=0.5, diversity_product=1.0),
                     "trial 0: diversity product 1 exceeds sum 0.5", id="product-le-sum"),
        pytest.param("metric-envelope", "riemannian_distance", lambda a, b: -1.0,
                     "trial 0: distance -1 outside [", id="metric-envelope"),
        pytest.param("n1-closed-forms", "compute_bounds",
                     lambda n, m: [types.SimpleNamespace(bound_id="b1", value=0.0)],
                     "b1(1, 2) = 0, expected sin(pi/2) = 1", id="n1-closed-forms"),
    ],
)
def test_selftest_reports_each_failing_check(capsys, monkeypatch, name, attribute, fault, detail):
    # each check fails through the name cli calls; the other four still pass
    monkeypatch.setattr(cli, attribute, fault)
    code, out, _ = run(capsys, "selftest")
    assert code == 2
    (line,) = [line for line in out.splitlines() if line.startswith("FAIL")]
    assert line.startswith(f"FAIL {name}: {detail}")
    assert out.count("ok   ") == 4
    assert out.endswith(f"selftest failed: {name}\n")


# --- the benchmark's use of the CLI ------------------------------------------------------


BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture
def bench_run(monkeypatch):
    """bench/run.py as a module, loaded without writing bytecode under bench/."""
    # set before loading, so run.py itself leaves no bytecode, and restored
    # afterwards, since the module sets it for the whole interpreter
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(BENCH))
    spec = importlib.util.spec_from_file_location("bench_run", BENCH / "run.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def benchmark_calls(bench_run):
    """Every call of every workload's plan, toy and full, at seeds 0-2."""
    for index, plan in enumerate(bench_run.WORKLOADS.values()):
        for toy in (True, False):
            for seed in range(3):
                yield from plan(np.random.default_rng([seed, index]), toy)["calls"]


def test_every_benchmark_argv_parses(bench_run, tmp_path):
    parsed = 0
    for call in benchmark_calls(bench_run):
        args = cli._build_parser().parse_args(call.argv(tmp_path))
        assert args.command == call.kind
        parsed += 1
    assert parsed > 0


def test_every_hidden_flag_has_a_benchmark_caller(bench_run, tmp_path):
    # a flag hidden from --help is kept only while the benchmark passes it;
    # once it no longer does, the flag must go too
    (subparsers,) = [a for a in cli._build_parser()._actions
                     if isinstance(a, argparse._SubParsersAction)]
    hidden = {(name, opt) for name, sub in subparsers.choices.items()
              for action in sub._actions if action.help == argparse.SUPPRESS
              for opt in action.option_strings}
    passed = {(call.kind, arg) for call in benchmark_calls(bench_run)
              for arg in call.argv(tmp_path) if arg.startswith("--")}
    assert hidden <= passed


def test_bound_rows_carry_every_key_the_benchmark_reads(bench_run, tmp_path):
    read = set(re.findall(r"row\[[\"'](\w+)[\"']\]", inspect.getsource(bench_run.Checker.check_rows)))
    assert {"n", "m", "method", "r0", "value"} <= read
    args = cli._build_parser().parse_args(["bound", "--n", "2", "--m", "8", "--cache-dir", str(tmp_path)])
    for row in cli._bound_rows(args, 2, 8, ("b1", "b2", "b3")):
        assert read <= row.keys()


def test_benchmark_toy_plans_pass_its_output_checks(bench_run, capsys, tmp_path, monkeypatch):
    # each workload's toy calls at seed 0, run in-process from a work
    # directory holding the plan's constellation files (eval names its file
    # relative to it), pass the benchmark's own checks, and a rerun on the
    # filled cache prints the same bytes
    checker = bench_run.Checker(bench_run.load_oracle())
    for index, (name, plan_of) in enumerate(bench_run.WORKLOADS.items()):
        plan = plan_of(np.random.default_rng([0, index]), True)
        workdir = tmp_path / name
        workdir.mkdir()
        for file, mats in plan["files"]:
            bench_run.write_constellation(workdir / file, mats)
        monkeypatch.chdir(workdir)
        cold = []
        for call in plan["calls"]:
            code, out, err = run(capsys, *call.argv(workdir))
            assert checker.check(call, {"rc": code, "stdout": out, "stderr": err}, workdir) == [], call.args
            cold.append(out)
        assert [run(capsys, *call.argv(workdir))[1] for call in plan["calls"]] == cold, name
