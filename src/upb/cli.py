"""Command-line interface: bound / table / sweep / eval / search / selftest.

Exit codes: 0 success, 1 usage or validation failure (a request over a work
cap included), 2 numerical failure.
Structured output (``--format csv|json``) is byte-identical for identical
flags and seed when ``--no-timestamp`` is passed; timing fields are dropped
along with the timestamp since wall time is never reproducible.
"""

import argparse
import csv
import io
import itertools
import json
import math
import os
import sys
import time
from datetime import datetime, timezone
from pathlib import Path

from . import _lazy_numpy
from .bounds import BOUND_IDS, _check_cache_dir, _check_size, compute_bounds, euclidean_riemannian_envelope
from .constellation import (
    Constellation,
    _chordal_radius,
    diversity_summary,
    load_constellation,
    random_search,
    riemannian_distance,
    save_constellation,
)
from .errors import NumericalError, UpbError, ValidationError
from .matrices import haar_sample
from .weyl import ball_volume_fraction, normalizer_estimate, total_mass

np = _lazy_numpy()

__all__ = ["main", "console_main"]

# Published reference values for the n = 2 upper-bound table.  Rows are
# constellation sizes; columns give the first and second Euclidean bounds
# as printed in the source table (4 significant digits).
_TABLE_M = (24, 48, 64, 80, 100, 120, 128, 1000)
_TABLE_REF = {
    "b1": (0.7598, 0.6603, 0.6131, 0.5932, 0.5578, 0.5425, 0.5347, 0.3270),
    "b2": (0.7794, 0.6734, 0.6235, 0.6026, 0.5654, 0.5496, 0.5415, 0.3285),
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # route argparse failures through exit code 1
        raise ValidationError(message)


# ---------------------------------------------------------------------------
# output formatting


def _cell(value, digits: int) -> str:
    """Render one cell: floats at the given precision, the rest verbatim."""
    return format(value, f".{digits}g") if isinstance(value, float) else str(value)


def _emit(args, t0: float, parameters: dict, columns, rows, notes=()) -> None:
    """Write one invocation's rows, timed from t0, as a table, CSV or JSON, to
    stdout or to --out (for search, --out names the constellation file instead)."""
    wall_time_s = time.perf_counter() - t0
    timestamp = datetime.now(timezone.utc).isoformat(timespec="seconds")
    if args.format == "json":
        doc = {
            "command": args.command,
            "parameters": parameters,
            "results": [{c: row[c] for c in columns} for row in rows],
        }
        if notes:
            doc["notes"] = list(notes)
        if not args.no_timestamp:
            doc["wall_time_s"] = round(wall_time_s, 3)
            doc["timestamp"] = timestamp
        try:
            text = json.dumps(doc, indent=2, allow_nan=False) + "\n"
        except ValueError as exc:  # a NaN or infinite float
            raise NumericalError(f"non-finite value in output: {exc}") from exc
    elif args.format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(columns)
        writer.writerows([_cell(row[c], 17) for c in columns] for row in rows)
        text = buf.getvalue()
    else:
        grid = [list(columns)] + [[_cell(row[c], 6) for c in columns] for row in rows]
        widths = [max(len(r[i]) for r in grid) for i in range(len(columns))]
        lines = ["  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip() for row in grid]
        lines.extend(notes)
        if not args.no_timestamp:
            lines.append(f"wall_time_s {wall_time_s:.3f}  timestamp {timestamp}")
        text = "\n".join(lines) + "\n"
    if args.out is not None and args.command != "search":
        try:
            Path(args.out).write_text(text)
        except OSError as exc:
            raise ValidationError(f"cannot write --out file: {exc}") from exc
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# bound rows: the library computes and caches, the CLI lays out


def _bound_rows(args, n: int, m: int, methods) -> list:
    results = compute_bounds(n, m, methods, args.cache_dir)
    return [
        {
            "n": n,
            "m": m,
            "method": res.bound_id,
            "metric": res.metric,
            "r0": res.r0,
            "value": res.value,
            "std_error": res.std_error_hint,
            "strategy": "exact",
            "samples": 0,
            "seed": 0,
        }
        for res in results
    ]


def _gap_rows(results, achieved: float) -> list:
    """One bound_<id> row per bound, with its gap over the achieved diversity."""
    return [
        {"name": f"bound_{res.bound_id}", "value": res.value, "detail": f"gap {res.value - achieved:.6g}"}
        for res in results
    ]


_SWEEP_COLUMNS = ("n", "m", "method", "metric", "r0", "value", "std_error", "strategy", "samples", "seed")
# A sweep solves each size once, at 8-19 ms a size (500 sizes took 4.2 s at
# n = 4 and 9.5 s at n = 2 from an empty cache on 2 cores), so this many
# sizes is already minutes; a longer grid is refused before the first solve.
_MAX_SWEEP_SIZES = 10_000


# ---------------------------------------------------------------------------
# subcommands: each returns its record (parameters, columns, rows[, notes]),
# which main times and writes through _emit


def _bound_record(args, params: dict, sizes):
    """The record of bound and sweep: bound rows at n for each m of sizes(args),
    for the comma-separated ids of --method (every id if one is all), which
    compute_bounds checks; the method parameter names the ids of its rows."""
    names = [tok.strip() for tok in args.method.split(",") if tok.strip()]
    methods = [*BOUND_IDS, *(t for t in names if t != "all")] if "all" in names else names
    per_size = [_bound_rows(args, args.n, m, methods) for m in sizes(args)]
    ids = ",".join(row["method"] for row in per_size[0])  # every size has the same rows
    return {**params, "method": ids}, _SWEEP_COLUMNS, [row for rows in per_size for row in rows]


def cmd_bound(args):
    return _bound_record(args, {"n": args.n, "m": args.m}, lambda a: [a.m])


def cmd_table(args):
    rows = []
    worst = 0.0
    for i, m in enumerate(_TABLE_M):
        for res in compute_bounds(2, m, ("b1", "b2"), args.cache_dir):
            reference = _TABLE_REF[res.bound_id][i]
            dev = abs(res.value - reference)
            worst = max(worst, dev)
            rows.append(
                {
                    "m": m,
                    "method": res.bound_id,
                    "computed": res.value,
                    "reference": reference,
                    "abs_dev": dev,
                }
            )
    notes = (f"max abs deviation {worst:.6g} over {len(rows)} entries",)
    return {"n": 2}, ("m", "method", "computed", "reference", "abs_dev"), rows, notes


def _geometric_sizes(start: int, end: int, factor: float):
    """The distinct roundings of start · factor^k up to end, in order."""
    value = float(start)
    last = 0  # below every size
    while value <= end + 1:  # also stops at an overflow to inf
        m = int(round(value))
        if m > end:
            break
        if m > last:
            last = m
            yield m
        # skip the factors that would round to the last size again, so a
        # factor just above 1 takes one step per size, not millions
        skip = math.ceil(math.log((last + 0.5) / value, factor))
        value *= factor ** max(1, skip)


def _sweep_sizes(args) -> list:
    """The sweep's sizes m, after the size check at --m-start; ValidationError
    for a grid of more than _MAX_SWEEP_SIZES, read lazily up to one past it."""
    _check_size(args.n, args.m_start)
    if args.m_end < args.m_start:
        raise ValidationError("--m-end must be ≥ --m-start")
    if args.m_factor is not None:
        if not (math.isfinite(args.m_factor) and args.m_factor > 1.0):
            raise ValidationError("--m-factor must be > 1")
        grid = _geometric_sizes(args.m_start, args.m_end, args.m_factor)
    elif args.m_step < 1:
        raise ValidationError("--m-step must be ≥ 1")
    else:
        grid = range(args.m_start, args.m_end + 1, args.m_step)
    sizes = list(itertools.islice(grid, _MAX_SWEEP_SIZES + 1))
    if len(sizes) > _MAX_SWEEP_SIZES:
        raise ValidationError(f"the sweep has more than {_MAX_SWEEP_SIZES} sizes m; "
                              "raise --m-step or --m-factor, or narrow --m-start..--m-end")
    return sizes


def cmd_sweep(args):
    params = {
        "n": args.n,
        "m_start": args.m_start,
        "m_end": args.m_end,
        "m_step": args.m_step,
        "m_factor": args.m_factor,
    }
    return _bound_record(args, params, _sweep_sizes)


def cmd_eval(args):
    constellation = load_constellation(args.file)
    # bounds first: n > 200 fails here, before the pair scan
    results = []
    if args.bounds:
        results = compute_bounds(constellation.n, constellation.m, BOUND_IDS, args.cache_dir)
    summary = diversity_summary(constellation)
    rows = [
        {
            "name": "diversity_sum",
            "value": summary.diversity_sum,
            "detail": f"pair {summary.sum_pair[0]},{summary.sum_pair[1]}",
        },
        {
            "name": "diversity_product",
            "value": summary.diversity_product,
            "detail": f"pair {summary.product_pair[0]},{summary.product_pair[1]}",
        },
        {
            "name": "chordal_packing_radius",
            "value": _chordal_radius(constellation.n, summary.diversity_sum),
            "detail": "",
        },
    ]
    notes = []
    if summary.diversity_product <= 0.0:
        notes.append("constellation is not fully diverse (diversity product is 0)")
    rows.extend(_gap_rows(results, summary.diversity_sum))
    params = {"file": str(args.file), "n": constellation.n, "m": constellation.m}
    if constellation.label:
        params["label"] = constellation.label
    return params, ("name", "value", "detail"), rows, notes


def cmd_search(args):
    # the size and cache checks, then the search, then the bounds: n > 200,
    # an m beyond the float range or a bad --cache-dir fails before any work,
    # a bad --trials before the search's first trial, a failed solve writes
    # no file, and the kernel's memo is not yet held while the search runs
    _check_size(args.n, args.m)
    _check_cache_dir(args.cache_dir)
    best, score = random_search(args.n, args.m, args.trials, args.seed, objective=args.objective)
    results = compute_bounds(args.n, args.m, BOUND_IDS, args.cache_dir)
    out_path = args.out if args.out is not None else f"constellation-n{args.n}-m{args.m}-{args.objective}.json"
    save_constellation(best, out_path)
    rows = [{"name": f"best_{args.objective}", "value": score, "detail": f"saved {out_path}"}]
    rows.extend(_gap_rows(results, score))
    params = {
        "n": args.n,
        "m": args.m,
        "trials": args.trials,
        "objective": args.objective,
        "seed": args.seed,
    }
    return params, ("name", "value", "detail"), rows


# ---------------------------------------------------------------------------
# selftest


def _selftest_normalizer() -> str:
    for n in (1, 2, 3):
        value, _ = normalizer_estimate(n, 200_000, 20_240_718)
        ref = total_mass(n)
        rel = abs(value - ref) / ref
        if rel > 0.01:
            return f"normalizer n={n}: relative error {rel:.3g} exceeds 0.01"
    return ""


def _selftest_kernel_vs_haar() -> str:
    """The mass kernel's ball fraction F(r) against the share of Haar draws
    within distance r of I, within 5 binomial standard errors: the Frobenius
    norm of U - I, or the 2-norm of U's eigenangles."""
    n, draws = 3, 100_000
    u = haar_sample(n, 20_240_719, draws)
    distances = {
        "euclidean": np.linalg.norm(u - np.eye(n), axis=(1, 2)),
        "riemannian": np.linalg.norm(np.angle(np.linalg.eigvals(u)), axis=1),
    }
    radii = {"euclidean": (2.0, 2.3, 2.6), "riemannian": (2.0, 2.5, 3.0)}
    for metric, distance in distances.items():
        for radius in radii[metric]:
            empirical = float(np.mean(distance <= radius))
            exact = ball_volume_fraction(n, radius, metric)
            se = math.sqrt(max(exact * (1.0 - exact), 1e-12) / draws)
            if abs(empirical - exact) > 5.0 * se:
                return (f"{metric} r={radius}: kernel fraction {exact:.6f} vs Haar "
                        f"{empirical:.6f} (> 5 standard errors {se:.2e})")
    return ""


def _selftest_product_le_sum() -> str:
    rng = np.random.default_rng(7)
    for trial in range(100):
        n = int(rng.integers(1, 5))
        m = int(rng.integers(2, 9))
        constellation = Constellation(haar_sample(n, rng, m))
        summary = diversity_summary(constellation)
        s, p = summary.diversity_sum, summary.diversity_product
        if p > s + 1e-12:
            return f"trial {trial}: diversity product {p:.12g} exceeds sum {s:.12g}"
    return ""


def _selftest_envelope() -> str:
    rng = np.random.default_rng(11)
    for trial in range(200):
        n = int(rng.integers(1, 6))
        a, b = haar_sample(n, rng, 2)
        d = float(np.linalg.norm(a - b))
        dist = riemannian_distance(a, b)
        lower, upper = euclidean_riemannian_envelope(n, d)
        if not (lower - 1e-9 <= dist <= upper + 1e-9):
            return f"trial {trial}: distance {dist:.9g} outside [{lower:.9g}, {upper:.9g}]"
    return ""


def _selftest_closed_forms() -> str:
    for m in (2, 3, 4, 8, 16, 64):
        expected = math.sin(math.pi / m)
        for res in compute_bounds(1, m):
            if abs(res.value - expected) > 1e-15:
                return f"{res.bound_id}(1, {m}) = {res.value:.9g}, expected sin(pi/{m}) = {expected:.9g}"
    return ""


def cmd_selftest() -> int:
    checks = (
        ("normalizer", _selftest_normalizer),
        ("kernel-vs-haar", _selftest_kernel_vs_haar),
        ("product-le-sum", _selftest_product_le_sum),
        ("metric-envelope", _selftest_envelope),
        ("n1-closed-forms", _selftest_closed_forms),
    )
    failures = []
    for name, fn in checks:
        detail = fn()
        if detail:
            failures.append(name)
            print(f"FAIL {name}: {detail}")
        else:
            print(f"ok   {name}")
    if failures:
        print(f"selftest failed: {', '.join(failures)}")
        return 2
    print("selftest passed")
    return 0


# ---------------------------------------------------------------------------
# parser assembly


def _build_parser() -> _Parser:
    output = _Parser(add_help=False)
    output.add_argument("--format", default="table", choices=["table", "csv", "json"])
    output.add_argument("--out", default=None)
    output.add_argument("--no-timestamp", action="store_true")
    output.add_argument("--cache-dir", default=os.environ.get("UPB_CACHE_DIR") or ".upb-cache")

    parser = _Parser(prog="upb", description="Upper bounds on unitary constellation diversity.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_bound = sub.add_parser("bound", parents=[output], help="bounds for one (n, m)")
    p_bound.add_argument("--n", type=int, required=True)
    p_bound.add_argument("--m", type=int, required=True)
    p_bound.add_argument("--method", default="all")
    # accepted and ignored, since bench/run.py passes them; ROADMAP item 6 removes them
    p_bound.add_argument("--samples", type=int, help=argparse.SUPPRESS)
    p_bound.add_argument("--seed", type=int, help=argparse.SUPPRESS)
    p_bound.set_defaults(func=cmd_bound)

    p_table = sub.add_parser("table", parents=[output],
                             help="n = 2 reference table with deviations")
    p_table.set_defaults(func=cmd_table)

    p_sweep = sub.add_parser("sweep", parents=[output], help="bounds over a range of m")
    p_sweep.add_argument("--n", type=int, required=True)
    p_sweep.add_argument("--m-start", type=int, required=True)
    p_sweep.add_argument("--m-end", type=int, required=True)
    spacing = p_sweep.add_mutually_exclusive_group()
    # a string default, which argparse converts, so that an explicit
    # --m-step 1 still counts as given next to --m-factor
    spacing.add_argument("--m-step", type=int, default="1")
    spacing.add_argument("--m-factor", type=float, default=None)
    p_sweep.add_argument("--method", default="all")
    # accepted and ignored, since bench/run.py passes it; ROADMAP item 6 removes it
    p_sweep.add_argument("--nodes", type=int, help=argparse.SUPPRESS)
    p_sweep.set_defaults(func=cmd_sweep)

    p_eval = sub.add_parser("eval", parents=[output],
                            help="diversity figures for a constellation file")
    p_eval.add_argument("file")
    p_eval.add_argument("--bounds", action="store_true")
    p_eval.set_defaults(func=cmd_eval)

    p_search = sub.add_parser("search", parents=[output],
                              help="random search for a good constellation")
    p_search.add_argument("--n", type=int, required=True)
    p_search.add_argument("--m", type=int, required=True)
    p_search.add_argument("--trials", type=int, default=10_000)
    p_search.add_argument("--objective", default="sum", choices=["sum", "product"])
    p_search.add_argument("--seed", type=int, default=0)
    p_search.set_defaults(func=cmd_search)

    sub.add_parser("selftest", help="fast internal consistency checks")

    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        if args.command == "selftest":
            return cmd_selftest()
        t0 = time.perf_counter()
        _emit(args, t0, *args.func(args))
        return 0
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except UpbError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def console_main() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    raise SystemExit(main())
