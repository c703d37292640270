"""End-to-end and per-layer benchmark of the upb CLI.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --selfcheck

Run from the repository root. The CLI runs from source (``src/`` on
PYTHONPATH); nothing is installed or built.

Load model: a closed loop with one client. Each CLI invocation is a fresh
interpreter started by this process, one at a time, so per-process caches
(the Monte Carlo point sets) are paid on every invocation as they are for a
user. BLAS threads are capped at the number of usable cores.

Each workload runs *cycles* of a *cold pass* against an empty cache
directory and a *warm pass*: the same argv again against the cache the cold
pass filled. Cycles repeat until the run has measured ``--seconds``, and the
times are medians over cycles. Every invocation runs in a
per-run work directory under ``.bench_build/`` with ``UPB_CACHE_DIR`` unset
and an explicit ``--cache-dir`` (and ``search --out``), so the repository's
tracked ``.upb-cache/`` can never turn a cold pass warm; the run fails if any
file of the checkout outside ``.bench_build/`` changed.

Workloads (the seed draws the sweep and bound m, every ``--seed`` passed to
upb, the trial counts and the constellation files; upb receives only argv and
files):

  tensor-sweep    ``sweep --n 3`` at one m with the default 200 nodes, plus
                  ``table`` (n = 2). Cold time is the tensor mass kernel in
                  ``weyl`` and the bisection in ``bounds``; warm time is the
                  CLI and its cache alone. No Monte Carlo.
  mc-bound        ``bound`` at n = 4, 5, 6 with 100k Monte Carlo samples.
                  Cold exercises the Monte Carlo kernel and point generation;
                  warm exposes the CLI's per-row error model, which evaluates
                  mass three times per row even on a cache hit.
  constellations  ``search --n 2`` for both objectives and ``eval`` of
                  generated files (n = 4, m = 200 and n = 8, m = 500). Time is
                  in ``constellation`` and ``matrices``; a ``weyl`` or
                  ``bounds`` change should show no change here.

Correctness is checked against oracles that do not import upb: Haar-quantile
packing radii (bench/oracle.json, regenerated by bench/make_oracle.py), the
frozen n = 2 radii and bound values, the bound formulas, a numpy
recomputation of diversity sum and product, search best <= min(B1, B2, B3),
and every pass's stdout byte-identical to the first cold pass's.

The last stdout line is the result object; the line before it is a report
with the provenance record, the unbounded metrics (``warm_s``,
``r0_abs_err_max``, ``failed_frac``, ...) and the failed checks.
"""

import argparse
import hashlib
import importlib.metadata
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np

sys.dont_write_bytecode = True  # a run writes nothing in the checkout outside .bench_build
from make_oracle import haar_unitaries  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".bench_build" / "upb-bench"
ORACLE = BENCH / "oracle.json"
SPEC = ROOT / "BENCHMARK.json"

CLI = ["-c", 'import sys; from upb.cli import console_main; sys.argv[0] = "upb"; console_main()']
INVOCATION_TIMEOUT_S = 150.0
RUN_BUDGET_S = 150.0  # stop repeating cycles well before the 180 s limit
MAX_CYCLES = 12
SETUP_REPEATS = 7
IMPORT_PROBE_REPEATS = 3

# Tolerances.
ORACLE_Z = 4.0  # Haar-quantile oracle: standard errors of (oracle + row); see Checker.oracle_miss
# A Monte Carlo r0 from N samples spreads over seeds by at most this multiple
# of the standard error of the 1/m quantile of N Haar draws (1.9 at most for
# n = 4..6, m = 24..64 at 100k samples, 50 seeds each).
MC_SPREAD = 2.0
FROZEN_TOL = 1e-5  # n = 2 frozen radii and bound values
FORMULA_TOL = 1e-12  # printed bound value against the bound formula at printed r0
DIVERSITY_RTOL = 1e-9  # numpy recomputation of diversity figures

# n = 2 reference table: frozen equality-consistent values and the published
# row the CLI echoes as "reference".
TABLE_M = (24, 48, 64, 80, 100, 120, 128, 1000)
FROZEN_R0 = (1.18199, 0.99966, 0.93192, 0.88237, 0.83535, 0.79872, 0.78613, 0.47237)
FROZEN = {
    "b1": (0.759316, 0.661247, 0.622168, 0.592794, 0.564331, 0.541792, 0.533973, 0.329323),
    "b2": (0.779708, 0.674439, 0.633054, 0.602144, 0.572344, 0.548846, 0.540714, 0.330846),
}
PUBLISHED = {
    "b1": (0.7598, 0.6603, 0.6131, 0.5932, 0.5578, 0.5425, 0.5347, 0.3270),
    "b2": (0.7794, 0.6734, 0.6235, 0.6026, 0.5654, 0.5496, 0.5415, 0.3285),
}
BOUND_METRIC = {"b1": "euclidean", "b2": "euclidean", "b3": "riemannian"}

# m values the seed draws from; each (n, m, metric) has an oracle entry. The
# tensor and Monte Carlo kernels cost the same at every m.
SWEEP_M = (8, 12, 16, 24, 32, 48, 64)
MC_M = (24, 32, 48, 64)  # below 24, B3 saturates at n = 6 and its row carries no error
# Search cost grows with m^2 and trials, so the search size is fixed and the
# seed varies trials by only +-5%; seed-drawn m made cold_s spread 0.33.
SEARCH_M = 12
SEARCH_TRIALS = (1900, 2100)

# Counters that must repeat exactly for a given seed and source tree.
DETERMINISTIC = (
    "weyl.mass_calls",
    "bounds.solve_calls",
    "bounds.evals_per_solve",
    "bounds.restarts",
    "cli.warm_mass_calls",
    "cli.cache_hit_ratio",
)

# Metrics that are printed in the report line but carry no regression bound.
# r0_abs_err_max varies with the seed by design and failed_frac is 0 on a
# correct run. warm_s is mostly interpreter start-up and imports, whose speed
# drifts by 15-30% between runs minutes apart on a shared 2-core machine. The
# search and eval figures are constellations-only, and every workload must
# print every bounded metric.
REPORT_METRICS = {
    "warm_s": "s",
    "r0_abs_err_max": "radius",
    "r0_z_reported_max": "sigma",
    "failed_frac": "ratio",
    "search_trials_per_s.sum": "trials/s",
    "search_trials_per_s.product": "trials/s",
    "eval_s": "s",
}


class Call:
    """One CLI invocation of a pass: its argv and what its output is checked for."""

    def __init__(self, kind, args, **meta):
        self.kind = kind
        self.args = list(args)
        self.meta = meta

    def argv(self, workdir):
        argv = self.args + ["--format", "json", "--no-timestamp", "--cache-dir", str(workdir / "cache")]
        if self.kind == "search":
            argv += ["--out", str(self.out_file(workdir))]
        return argv

    def out_file(self, workdir):
        return workdir / f"search-{self.meta['objective']}.json"


# ---------------------------------------------------------------------------
# workloads


def plan_tensor_sweep(rng, toy):
    # One m keeps the cold pass short, leaving room for several cycles.
    m = int(rng.choice(SWEEP_M))
    nodes = ["--nodes", "40"] if toy else []
    return {
        "calls": [
            Call("sweep", ["sweep", "--n", "3", "--m-start", str(m), "--m-end", str(m), *nodes]),
            Call("table", ["table"]),
        ],
        "files": [],
        "sizes": {"sweep_n": 3, "sweep_m": [m], "nodes": 40 if toy else 200, "table_n": 2,
                  "table_m": list(TABLE_M)},
    }


def plan_mc_bound(rng, toy):
    samples = 20_000 if toy else 100_000
    calls = []
    rows = []
    for n in (4,) if toy else (4, 5, 6):
        m = int(rng.choice(MC_M))
        seed = int(rng.integers(2**31))
        calls.append(Call("bound", ["bound", "--n", str(n), "--m", str(m), "--samples", str(samples),
                                    "--seed", str(seed)]))
        rows.append({"n": n, "m": m, "seed": seed})
    return {"calls": calls, "files": [], "sizes": {"samples": samples, "bounds": rows}}


def plan_constellations(rng, toy):
    m = SEARCH_M
    lo, hi = (100, 200) if toy else SEARCH_TRIALS
    calls = []
    searches = []
    for objective in ("sum", "product"):
        trials = int(rng.integers(lo, hi))
        seed = int(rng.integers(2**31))
        calls.append(Call("search", ["search", "--n", "2", "--m", str(m), "--trials", str(trials),
                                     "--objective", objective, "--seed", str(seed)],
                          objective=objective, trials=trials, n=2, m=m))
        searches.append({"objective": objective, "trials": trials, "seed": seed})
    files = []
    for n, size in ((4, 12), (8, 16)) if toy else ((4, 200), (8, 500)):
        name = f"eval-n{n}-m{size}.json"
        files.append((name, haar_unitaries(n, size, rng)))
        calls.append(Call("eval", ["eval", name], file=name, n=n, m=size))
    return {"calls": calls, "files": files,
            "sizes": {"search_n": 2, "search_m": m, "searches": searches,
                      "eval": [{"n": f[1].shape[1], "m": f[1].shape[0]} for f in files]}}


WORKLOADS = {
    "tensor-sweep": plan_tensor_sweep,
    "mc-bound": plan_mc_bound,
    "constellations": plan_constellations,
}


def write_constellation(path, mats):
    doc = {"n": int(mats.shape[1]),
           "matrices": [[[[float(e.real), float(e.imag)] for e in row] for row in u] for u in mats]}
    path.write_text(json.dumps(doc) + "\n")


def read_constellation(path):
    doc = json.loads(Path(path).read_text())
    return np.array([[[complex(re, im) for re, im in row] for row in u] for u in doc["matrices"]])


# ---------------------------------------------------------------------------
# running processes


def child_env():
    env = dict(os.environ)
    env.pop("UPB_CACHE_DIR", None)
    env.pop("PYTHONDONTWRITEBYTECODE", None)  # byte-compile upb once, as an installed copy would be
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONPYCACHEPREFIX"] = str(WORK / "pycache")
    threads = str(len(os.sched_getaffinity(0)))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    return env


def spawn(cmd, cwd):
    """Run cmd to completion; returns wall seconds, exit code, stdout, stderr, peak RSS in MB."""
    out_path, err_path = cwd / ".stdout", cwd / ".stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=cwd, env=child_env(), stdin=subprocess.DEVNULL,
                                stdout=out, stderr=err)
        watchdog = threading.Timer(INVOCATION_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "wall": wall,
        "rc": proc.returncode,
        "stdout": out_path.read_bytes(),
        "stderr": err_path.read_text(errors="replace")[-2000:],
        "rss_mb": usage.ru_maxrss / 1024.0,
    }


def timed_import(module, cwd, repeats):
    walls = []
    for _ in range(repeats):
        res = spawn([sys.executable, "-c", f"import {module}"], cwd)
        if res["rc"] != 0:
            raise SystemExit(f"import {module} failed: {res['stderr']}")
        walls.append(res["wall"])
    return statistics.median(walls)


def run_pass(calls, workdir, name, spans_dir=None):
    results = []
    for i, call in enumerate(calls):
        if spans_dir is None:
            cmd = [sys.executable, *CLI, *call.argv(workdir)]
        else:
            cmd = [sys.executable, str(BENCH / "trace_runner.py"), str(spans_dir / f"{name}-{i}.json"),
                   f"{name}-{i}", "--", *call.argv(workdir)]
        results.append(spawn(cmd, workdir))
    return results


# ---------------------------------------------------------------------------
# oracles and checks (numpy and the formulas only; upb is never imported)


def b1_of_r(n, r):
    return min(1.0, math.sqrt(max(r * r / n - r**4 / (4.0 * n * n), 0.0)))


def b2_of_r(n, r):
    q = r * r / 4.0
    k = math.floor(q + 1e-12)
    alpha = min(max(q - k, 0.0), 1.0)
    arg = math.sqrt((math.pi**2 * k + 4.0 * math.asin(math.sqrt(alpha)) ** 2) / n)
    return math.sin(min(arg, 0.5 * math.pi))


def b3_of_r(n, r):
    return math.sin(min(0.5 * math.pi, r / math.sqrt(n)))


BOUND_OF_R = {"b1": b1_of_r, "b2": b2_of_r, "b3": b3_of_r}


def r0_slope(method, n, r):
    """|dB/dr| of B1 or B3, to turn a row's std_error into a radius error."""
    if method == "b1":
        b = b1_of_r(n, r)
        return abs(2.0 * r / n - r**3 / (n * n)) / (2.0 * b) if 0.0 < b < 1.0 else 0.0
    x = r / math.sqrt(n)
    return math.cos(x) / math.sqrt(n) if x < 0.5 * math.pi else 0.0


def r0_from_b1(n, b1):
    return math.sqrt(2.0 * n * (1.0 - math.sqrt(max(0.0, 1.0 - b1 * b1))))


def r0_from_b3(n, b3):
    return math.sqrt(n) * math.asin(b3)


def diversity(mats):
    """Diversity sum and product of a (m, n, n) stack, chunked over pairs."""
    m, n = mats.shape[0], mats.shape[1]
    best_sum, best_prod = math.inf, math.inf
    for i in range(m - 1):
        d = mats[i] - mats[i + 1:]
        sums = np.sqrt(np.sum(np.abs(d) ** 2, axis=(1, 2))) / (2.0 * math.sqrt(n))
        _, logabs = np.linalg.slogdet(d)
        best_sum = min(best_sum, float(sums.min()))
        best_prod = min(best_prod, float(np.min(0.5 * np.exp(logabs / n))))
    return best_sum, best_prod


def chordal_radius(n, dsum):
    d = 2.0 * math.sqrt(n) * dsum
    inner = max(0.0, 1.0 - d * d / (4.0 * n))
    return math.sqrt(2.0 * n * max(0.0, 1.0 - math.sqrt(inner)))


def close(a, b, rtol):
    return abs(a - b) <= rtol * max(abs(b), 1.0)


class Checker:
    """Checks one invocation's stdout; collects failures and radius errors."""

    def __init__(self, oracle, frozen_r0=FROZEN_R0):
        self.oracle = oracle["values"]
        self.draws = oracle["draws"]
        self.frozen_r0 = frozen_r0
        self.r0_errors = []
        self.z_reported = []

    def check(self, call, res, workdir):
        if res["rc"] != 0:
            return [f"exit code {res['rc']}: {res['stderr'].strip()[-300:]}"]
        try:
            doc = json.loads(res["stdout"])
        except ValueError:
            return ["stdout is not JSON"]
        try:
            return getattr(self, "check_" + call.kind)(call, doc["results"], workdir)
        except (KeyError, IndexError, TypeError, ValueError) as exc:
            return [f"malformed output: {exc!r}"]

    def oracle_miss(self, n, m, metric, r0, se_row, samples=0):
        """|r0 - oracle| against ORACLE_Z standard errors of (oracle + row).

        For a Monte Carlo row (samples > 0) the row's standard error is its
        reported std_error, but at least MC_SPREAD times the standard error of
        the 1/m quantile of `samples` Haar draws. The reported std_error is a
        sample estimate from heavy-tailed weights and can be several times
        smaller than the actual spread of r0 over seeds; the floor depends
        only on the oracle and the sample count. How far r0 is in reported
        standard errors is kept as r0_z_reported_max.
        """
        ref = self.oracle[f"{n}:{m}:{metric}"]
        err = abs(r0 - ref["r0"])
        self.r0_errors.append(err)
        if samples:
            self.z_reported.append(err / (ref["se"] + se_row))
            se_row = max(se_row, MC_SPREAD * ref["se"] * math.sqrt(self.draws / samples))
        tol = ORACLE_Z * (ref["se"] + se_row)
        if err > tol:
            return [f"n={n} m={m} {metric}: r0 {r0:.6f} vs oracle {ref['r0']:.6f} (|err| {err:.2e} > {tol:.2e})"]
        return []

    def check_rows(self, rows):
        """sweep / bound rows: bound formula, shared radius, Haar oracle."""
        out = []
        by_nm = {}
        for row in rows:
            n, r0, method = row["n"], row["r0"], row["method"]
            if abs(row["value"] - BOUND_OF_R[method](n, r0)) > FORMULA_TOL:
                out.append(f"n={n} m={row['m']} {method}: value {row['value']} != B(r0)")
            by_nm.setdefault((n, row["m"]), {})[method] = row
        for (n, m), group in by_nm.items():
            if "b1" in group and "b2" in group and group["b1"]["r0"] != group["b2"]["r0"]:
                out.append(f"n={n} m={m}: b1 and b2 rows disagree on the euclidean r0")
            for method in ("b1", "b3"):
                row = group.get(method)
                if row is None:
                    continue
                se_row, samples = 0.0, 0
                if row["strategy"] != "tensor":
                    slope = r0_slope(method, n, row["r0"])
                    se_row = row["std_error"] / slope if slope > 0.0 else math.inf
                    samples = row["samples"]
                out += self.oracle_miss(n, m, BOUND_METRIC[method], row["r0"], se_row, samples)
        return out

    def check_sweep(self, call, rows, workdir):
        return self.check_rows(rows)

    check_bound = check_sweep

    def check_table(self, call, rows, workdir):
        out = []
        for row in rows:
            i, method = TABLE_M.index(row["m"]), row["method"]
            if abs(row["computed"] - FROZEN[method][i]) > FROZEN_TOL:
                out.append(f"table m={row['m']} {method}: {row['computed']} vs frozen {FROZEN[method][i]}")
            if row["reference"] != PUBLISHED[method][i]:
                out.append(f"table m={row['m']} {method}: reference {row['reference']} is not the published value")
            if abs(row["abs_dev"] - abs(row["computed"] - row["reference"])) > FORMULA_TOL:
                out.append(f"table m={row['m']} {method}: abs_dev inconsistent")
            if method == "b1" and abs(r0_from_b1(2, row["computed"]) - self.frozen_r0[i]) > FROZEN_TOL:
                out.append(f"table m={row['m']}: r0 {r0_from_b1(2, row['computed']):.6f} vs frozen {self.frozen_r0[i]}")
        if len(rows) != 2 * len(TABLE_M):
            out.append(f"table has {len(rows)} rows, expected {2 * len(TABLE_M)}")
        return out

    def check_search(self, call, rows, workdir):
        out = []
        n, m, objective = call.meta["n"], call.meta["m"], call.meta["objective"]
        values = {row["name"]: row["value"] for row in rows}
        best = values[f"best_{objective}"]
        bounds = {b: values[f"bound_{b}"] for b in ("b1", "b2", "b3")}
        if best > min(bounds.values()):
            out.append(f"search {objective}: best {best} exceeds min bound {min(bounds.values())}")
        dsum, dprod = diversity(read_constellation(call.out_file(workdir)))
        if not close(best, dsum if objective == "sum" else dprod, DIVERSITY_RTOL):
            out.append(f"search {objective}: best {best} != recomputed {dsum if objective == 'sum' else dprod}")
        r0_e = r0_from_b1(n, bounds["b1"])
        if abs(bounds["b2"] - b2_of_r(n, r0_e)) > 1e-9:
            out.append(f"search {objective}: b2 {bounds['b2']} inconsistent with b1")
        out += self.oracle_miss(n, m, "euclidean", r0_e, 0.0)
        out += self.oracle_miss(n, m, "riemannian", r0_from_b3(n, bounds["b3"]), 0.0)
        return out

    def check_eval(self, call, rows, workdir):
        values = {row["name"]: row["value"] for row in rows}
        mats = read_constellation(workdir / call.meta["file"])
        dsum, dprod = diversity(mats)
        want = {
            "diversity_sum": dsum,
            "diversity_product": dprod,
            "chordal_packing_radius": chordal_radius(mats.shape[1], dsum),
        }
        return [f"eval {call.meta['file']}: {k} {values.get(k)} != recomputed {v}"
                for k, v in want.items() if not close(values.get(k, math.nan), v, DIVERSITY_RTOL)]


def load_oracle():
    return json.loads(ORACLE.read_text())


# ---------------------------------------------------------------------------
# filesystem isolation


def tree_snapshot():
    """(path, size, mtime) of every checkout file outside .bench_build, plus git status if available."""
    snap = []
    for dirpath, dirnames, filenames in os.walk(ROOT):
        rel = Path(dirpath).relative_to(ROOT)
        if rel == Path("."):
            dirnames[:] = [d for d in dirnames if d not in (".bench_build", ".git")]
        for name in filenames:
            st = os.stat(Path(dirpath) / name, follow_symlinks=False)
            snap.append((str(rel / name), st.st_size, st.st_mtime_ns))
    status = ""
    if (ROOT / ".git").exists() and shutil.which("git"):
        status = subprocess.run(["git", "status", "--porcelain"], cwd=ROOT, capture_output=True,
                                text=True, check=False).stdout
    return sorted(snap), status


# ---------------------------------------------------------------------------
# per-layer metrics from spans


def load_spans(spans_dir):
    invocations = []
    missing = set()
    for path in sorted(spans_dir.glob("*.json")):
        doc = json.loads(path.read_text())
        missing.update(doc["missing"])
        invocations.append(doc)
    return invocations, sorted(missing)


def layer_metrics(invocations):
    """Per-layer counts and times from the traced cold and warm passes."""
    mass = {"tensor": {}, "monte-carlo": {}}  # strategy -> n -> durations
    first_mc, mc_samples, mc_time = [], 0, 0.0
    solves = {"cold": 0, "warm": 0}
    solve_evals, restarts, solve_self = 0, 0, 0.0
    mass_calls = {"cold": 0, "warm": 0}
    cli_self_warm = 0.0
    search = {"sum": [0, 0.0], "product": [0, 0.0]}
    summary_s, load_s = 0.0, 0.0
    for inv in invocations:
        phase = "cold" if inv["invocation"].startswith("cold") else "warm"
        spans = inv["spans"]
        children = {}
        for sid, name, start, end, parent, info in spans:
            if parent is not None:
                children.setdefault(parent, []).append(end - start)
        seen_mc = False
        for sid, name, start, end, parent, info in spans:
            dur = end - start
            self_s = dur - sum(children.get(sid, ()))
            if name.endswith("ball_mass"):
                mass_calls[phase] += 1
                strategy = info.get("strategy")
                if strategy in mass:
                    mass[strategy].setdefault(info.get("n"), []).append(dur)
                if strategy == "monte-carlo":
                    mc_samples += info.get("samples", 0)
                    mc_time += dur
                    if not seen_mc:
                        first_mc.append(dur)
                        seen_mc = True
            elif name == "cli.solve_r0":
                solves[phase] += 1
                solve_evals += len(children.get(sid, ()))
                restarts += info.get("restarts", 0)
                solve_self += self_s
            elif name == "cli.main" and phase == "warm":
                cli_self_warm += self_s
            elif name == "cli.random_search" and info.get("objective") in search:
                search[info["objective"]][0] += info.get("trials", 0)
                search[info["objective"]][1] += dur
            elif name == "cli.diversity_summary" and phase == "cold":
                summary_s += dur
            elif name == "cli.load_constellation" and phase == "cold":
                load_s += dur
    total_solves = solves["cold"] + solves["warm"]

    def p50_ms(values):
        return 1000.0 * statistics.median(values) if values else 0.0

    def largest_n(by_n):
        """Durations at the largest n, where the kernel's cost is (n = 2 table calls are cheap)."""
        return by_n[max(by_n)] if by_n else []

    return {
        "weyl.mass_calls": mass_calls["cold"] + mass_calls["warm"],
        "weyl.mass_self_s": sum(sum(d) for by_n in mass.values() for d in by_n.values()),
        "weyl.mass_p50_ms.tensor": p50_ms(largest_n(mass["tensor"])),
        "weyl.mass_p50_ms.monte-carlo": p50_ms(largest_n(mass["monte-carlo"])),
        "weyl.mass_first_ms.monte-carlo": p50_ms(first_mc),
        "weyl.mc_points_per_s": mc_samples / mc_time if mc_time > 0 else 0.0,
        "bounds.solve_calls": total_solves,
        "bounds.evals_per_solve": solve_evals / total_solves if total_solves else 0.0,
        "bounds.solve_self_s": solve_self,
        "bounds.restarts": restarts,
        "cli.self_s": cli_self_warm,
        "cli.warm_mass_calls": mass_calls["warm"],
        "cli.cache_hit_ratio": 1.0 - solves["warm"] / solves["cold"] if solves["cold"] else 0.0,
        "constellation.search_trials_per_s.sum": search["sum"][0] / search["sum"][1] if search["sum"][1] else 0.0,
        "constellation.search_trials_per_s.product":
            search["product"][0] / search["product"][1] if search["product"][1] else 0.0,
        "constellation.summary_ms": 1000.0 * summary_s,
        "constellation.load_ms": 1000.0 * load_s,
    }


PROBE = """
import json, sys, time
import numpy as np
from upb.constellation import Constellation
from upb.matrices import UnitaryMatrix, stacked_logabsdet
out = {"construct_s": 0.0, "validations": 0, "validate_s": 0.0, "logabsdet": 0, "logabsdet_s": 0.0}
for path in sys.argv[1:]:
    doc = json.load(open(path))
    mats = np.array([[[complex(a, b) for a, b in row] for row in u] for u in doc["matrices"]])
    t = time.perf_counter(); members = [UnitaryMatrix(u) for u in mats]
    out["validate_s"] += time.perf_counter() - t; out["validations"] += len(mats)
    t = time.perf_counter(); Constellation(members)
    out["construct_s"] += time.perf_counter() - t
    i, j = np.triu_indices(len(mats), 1); diffs = mats[i] - mats[j]
    t = time.perf_counter(); stacked_logabsdet(diffs)
    out["logabsdet_s"] += time.perf_counter() - t; out["logabsdet"] += len(diffs)
print(json.dumps(out))
"""


def probe_metrics(plan, workdir):
    """Direct calls of the constellation and matrices layers at the workload's eval inputs.

    Returns the metrics and what is missing: a probe that cannot run (say, a
    public name was removed) reports zeros, not a failed run.
    """
    zero = {"constellation.construct_ms": 0.0, "matrices.logabsdet_per_s": 0.0,
            "matrices.unitary_validate_per_s": 0.0}
    if not plan["files"]:
        return zero, []
    res = spawn([sys.executable, "-c", PROBE, *(str(workdir / name) for name, _ in plan["files"])], workdir)
    if res["rc"] != 0:
        return zero, [f"layer probe: {res['stderr'].strip().splitlines()[-1:]}"]
    out = json.loads(res["stdout"])
    return {
        "constellation.construct_ms": 1000.0 * out["construct_s"],
        "matrices.logabsdet_per_s": out["logabsdet"] / out["logabsdet_s"],
        "matrices.unitary_validate_per_s": out["validations"] / out["validate_s"],
    }, []


def source_digest():
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def counters_drift(plan, layer):
    """Compare the deterministic counters with an earlier run of the same argv and source."""
    argv_digest = hashlib.sha256(json.dumps([c.args for c in plan["calls"]]).encode()).hexdigest()[:16]
    store = WORK / "counters" / f"{argv_digest}-{source_digest()}.json"
    now = {k: layer[k] for k in DETERMINISTIC}
    if store.exists():
        before = json.loads(store.read_text())
        return [f"counter {k} drifted: {before[k]} -> {now[k]}" for k in DETERMINISTIC if before.get(k) != now[k]]
    store.parent.mkdir(parents=True, exist_ok=True)
    store.write_text(json.dumps(now))
    return []


# ---------------------------------------------------------------------------
# one run


def provenance(workload, seed, plan):
    def git_sha():
        if (ROOT / ".git").exists() and shutil.which("git"):
            return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                  text=True, check=False).stdout.strip() or "unknown"
        return "unknown"

    return {
        "nproc": os.cpu_count(),
        "usable_cores": len(os.sched_getaffinity(0)),
        "blas_threads": int(child_env()["OPENBLAS_NUM_THREADS"]),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": importlib.metadata.version("scipy"),
        "git_sha": git_sha(),
        "source_digest": source_digest(),
        "workload": workload,
        "seed": seed,
        "sizes": plan["sizes"],
    }


def prepare(workload, seed, toy, tag):
    plan = WORKLOADS[workload](np.random.default_rng([seed, list(WORKLOADS).index(workload)]), toy)
    workdir = WORK / f"run-{os.getpid()}-{tag}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    for name, mats in plan["files"]:
        write_constellation(workdir / name, mats)
    return plan, workdir


def passes(plan, workdir, deadline, cycle_limit, spans_dir=None):
    """Cycles of a cold pass against an empty cache and a warm pass against the
    cache it filled, while the next cycle is expected to end by the deadline.

    At least one cycle runs, at most cycle_limit. Returns [(cold, warm), ...].
    """
    cycles = []
    last = 0.0
    while not cycles or (len(cycles) < cycle_limit and time.perf_counter() + last < deadline):
        t0 = time.perf_counter()
        shutil.rmtree(workdir / "cache", ignore_errors=True)
        k = len(cycles)
        cycles.append((run_pass(plan["calls"], workdir, f"cold{k}", spans_dir),
                       run_pass(plan["calls"], workdir, f"warm{k}", spans_dir)))
        last = time.perf_counter() - t0
    return cycles


def check_passes(plan, workdir, cycles, checker):
    """Failures per invocation: exit code, output checks of the first cold pass,
    and every other pass's stdout byte-identical to it."""
    failures = []
    failed = 0
    first = cycles[0][0]
    for i, call in enumerate(plan["calls"]):
        problems = checker.check(call, first[i], workdir)
        failed += bool(problems)
        failures += problems
        for k, (cold, warm) in enumerate(cycles):
            for phase, res in (("cold", cold), ("warm", warm)):
                if res is first:
                    continue
                extra = [] if res[i]["rc"] == 0 else [f"{phase} pass {k} exit code {res[i]['rc']}"]
                if res[i]["stdout"] != first[i]["stdout"]:
                    extra.append(f"{phase} pass {k} stdout of {call.kind} differs from the first cold stdout")
                failed += bool(extra)
                failures += extra
    return failures, failed


def end_to_end(plan, cycles):
    walls = lambda results, kind=None: sum(r["wall"] for c, r in zip(plan["calls"], results)
                                          if kind is None or c.kind == kind)
    all_passes = [p for cycle in cycles for p in cycle]
    metrics = {
        "cold_s": statistics.median(walls(cold) for cold, _ in cycles),
        "peak_rss_mb": max(r["rss_mb"] for p in all_passes for r in p),
    }
    report = {
        "warm_s": statistics.median(walls(warm) for _, warm in cycles),
        "eval_s": statistics.median(walls(p, "eval") for p in all_passes),
    }
    for objective in ("sum", "product"):
        rates = [c.meta["trials"] / r["wall"] for p in all_passes for c, r in zip(plan["calls"], p)
                 if c.kind == "search" and c.meta["objective"] == objective]
        report[f"search_trials_per_s.{objective}"] = statistics.median(rates) if rates else 0.0
    return metrics, report


def run(workload, seed, seconds, trace, toy=False, oracle=None):
    t_start = time.perf_counter()
    oracle = oracle if oracle is not None else load_oracle()
    before = tree_snapshot()
    plan, workdir = prepare(workload, seed, toy, "main")
    checker = Checker(oracle)
    extra_dirs = []
    try:
        failures, failed, attempted, missing = [], 0, 0, []
        if not trace:
            setup_s = timed_import("upb", workdir, SETUP_REPEATS)
            deadline = t_start + min(seconds, RUN_BUDGET_S)
            cycles = passes(plan, workdir, deadline, MAX_CYCLES)
            attempted = 2 * len(plan["calls"]) * len(cycles)
            failures, failed = check_passes(plan, workdir, cycles, checker)
            metrics, report = end_to_end(plan, cycles)
            metrics_out = {"setup_s": setup_s, **metrics}
        else:
            layer = {
                "setup.import_numpy_s": timed_import("numpy", workdir, IMPORT_PROBE_REPEATS),
                "setup.import_scipy_s": timed_import("scipy.linalg", workdir, IMPORT_PROBE_REPEATS),
            }
            cycles = passes(plan, workdir, 0.0, 1)
            traced_dir = prepare(workload, seed, toy, "traced")[1]
            extra_dirs.append(traced_dir)
            spans_dir = traced_dir / "spans"
            spans_dir.mkdir()
            t_cycles = passes(plan, traced_dir, 0.0, 1, spans_dir)
            attempted = 4 * len(plan["calls"])
            for d, c in ((workdir, cycles), (traced_dir, t_cycles)):
                f, k = check_passes(plan, d, c, checker)
                failures += f
                failed += k
            invocations, missing = load_spans(spans_dir)
            layer.update(layer_metrics(invocations))
            probes, probe_missing = probe_metrics(plan, workdir)
            layer.update(probes)
            missing += probe_missing
            untraced = sum(r["wall"] for p in cycles[0] for r in p)
            traced = sum(r["wall"] for p in t_cycles[0] for r in p)
            layer["trace.overhead_frac"] = (traced - untraced) / untraced
            failures += counters_drift(plan, layer)
            metrics, report = end_to_end(plan, cycles)
            report.update(metrics)
            metrics_out = layer
    finally:
        for d in [workdir, *extra_dirs]:
            shutil.rmtree(d, ignore_errors=True)
    if tree_snapshot() != before:
        failures.append("the run changed files of the checkout outside .bench_build")
    report["r0_abs_err_max"] = max(checker.r0_errors, default=0.0)
    report["r0_z_reported_max"] = max(checker.z_reported, default=0.0)
    report["failed_frac"] = failed / attempted
    e2e_units, layer_units = units()
    return {
        "report": {"provenance": provenance(workload, seed, plan),
                   "report_metrics": with_units(report, {**e2e_units, **REPORT_METRICS}),
                   "trace_missing": missing, "failures": failures,
                   "elapsed_s": time.perf_counter() - t_start},
        "result": {"correct": not failures, "attempted": attempted, "failed": failed,
                   "metrics": with_units(metrics_out, layer_units if trace else e2e_units)},
    }


def units():
    """Units of the end-to-end and per-layer metrics, as BENCHMARK.json declares them."""
    spec = json.loads(SPEC.read_text())
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def with_units(metrics, unit_of):
    return {name: {"value": value, "unit": unit_of[name]} for name, value in metrics.items()}


# ---------------------------------------------------------------------------
# self-check


def selfcheck():
    """Toy-size runs of every workload: metric names and units, a failing gate, steady counters."""
    e2e_units, layer_units = units()
    oracle = load_oracle()
    problems = []
    for workload in WORKLOADS:
        for trace, unit_of in ((0, e2e_units), (1, layer_units)):
            out = run(workload, 1, 1, trace, toy=True, oracle=oracle)
            result = out["result"]
            printed = {name: m["unit"] for name, m in result["metrics"].items()}
            if printed != unit_of:
                problems.append(f"{workload} trace={trace}: metrics or units differ from BENCHMARK.json")
            reported = {name: m["unit"] for name, m in out["report"]["report_metrics"].items()}
            if any(reported.get(name) != unit for name, unit in REPORT_METRICS.items()):
                problems.append(f"{workload} trace={trace}: report metrics or units missing")
            if not result["correct"]:
                problems.append(f"{workload} trace={trace}: toy run failed: {out['report']['failures']}")
            print(f"{'ok  ' if result['correct'] else 'FAIL'} {workload} trace={trace}: {len(printed)} metrics",
                  file=sys.stderr)
        again = run(workload, 1, 1, 1, toy=True, oracle=oracle)
        if not again["result"]["correct"]:
            problems.append(f"{workload}: second traced toy run failed: {again['report']['failures']}")

    # A perturbed oracle value (tensor and Monte Carlo rows) and a perturbed
    # frozen value must fail the gate.
    for workload, key_of in (("tensor-sweep", lambda sizes: f"3:{sizes['sweep_m'][0]}:euclidean"),
                             ("mc-bound", lambda sizes: f"4:{sizes['bounds'][0]['m']}:euclidean")):
        plan, workdir = prepare(workload, 1, True, "perturbed")
        try:
            cold = passes(plan, workdir, 0.0, 1)[0][0]
            key = key_of(plan["sizes"])
            ref = oracle["values"][key]
            samples = plan["sizes"].get("samples")
            floor = MC_SPREAD * ref["se"] * math.sqrt(oracle["draws"] / samples) if samples else 0.0
            shift = 3.0 * ORACLE_Z * (ref["se"] + floor)
            bad = {**oracle, "values": {**oracle["values"], key: {"r0": ref["r0"] + shift, "se": ref["se"]}}}
            if not Checker(bad).check(plan["calls"][0], cold[0], workdir):
                problems.append(f"{workload}: a perturbed Haar oracle value was not caught")
            if Checker(oracle).check(plan["calls"][0], cold[0], workdir):
                problems.append(f"{workload}: the unperturbed oracle failed the first call")
            if workload == "tensor-sweep":
                frozen_r0 = (FROZEN_R0[0] + 1e-4,) + FROZEN_R0[1:]
                if not Checker(oracle, frozen_r0=frozen_r0).check(plan["calls"][1], cold[1], workdir):
                    problems.append("a perturbed frozen r0 was not caught")
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    for p in problems:
        print(f"FAIL {p}", file=sys.stderr)
    print("selfcheck " + ("failed" if problems else "passed"), file=sys.stderr)
    return 1 if problems else 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--selfcheck", action="store_true")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "upb" / "cli.py").is_file():
        print(f"error: no upb sources under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2
    if args.selfcheck:
        return selfcheck()
    if None in (args.workload, args.seed, args.seconds, args.trace):
        parser.error("--workload, --seed, --seconds and --trace are required")
    out = run(args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps(out["report"]))
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
