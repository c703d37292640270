"""Regenerate bench/oracle.json: Haar-quantile packing radii for the benchmark.

For a Haar-distributed U in U(n) with eigenangles theta, the normalized ball
mass mass(r) / total_mass is the probability that U lies in the ball:

  euclidean   2 sqrt(sum sin^2(theta_j / 2)) = 2 sqrt((n - Re tr U) / 2) <= r
  riemannian  sqrt(sum theta_j^2) <= r

so the packing radius r0 solving m * mass(r0) = total_mass is the 1/m
quantile of that radius over Haar draws. The quantile's standard error comes
from the binomial spread of the order statistic: half the distance between
the order statistics one binomial standard deviation either side of p N.

This script uses numpy only (QR of complex Ginibre matrices with the R
diagonal phases removed, then np.linalg.eigvals) and never imports upb, so
it is an oracle independent of the package's quadrature and Monte Carlo.

    python3 bench/make_oracle.py            # about 3 minutes on 2 cores
"""

import json
import math
import sys
import time
from pathlib import Path

import numpy as np

DIMENSIONS = (2, 3, 4, 5, 6)
SIZES = (6, 8, 10, 12, 16, 20, 24, 32, 48, 64)
DRAWS = 2_000_000
CHUNK = 50_000
SEED = 20_260_417
OUT = Path(__file__).with_name("oracle.json")


def haar_unitaries(n, count, rng):
    """count Haar-distributed elements of U(n), shape (count, n, n)."""
    z = (rng.standard_normal((count, n, n)) + 1j * rng.standard_normal((count, n, n))) / math.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (d / np.abs(d))[:, None, :]


def haar_angles(n, count, rng):
    return np.angle(np.linalg.eigvals(haar_unitaries(n, count, rng)))


def radii(n, rng):
    euc = np.empty(DRAWS)
    riem = np.empty(DRAWS)
    for start in range(0, DRAWS, CHUNK):
        theta = haar_angles(n, min(CHUNK, DRAWS - start), rng)
        stop = start + len(theta)
        euc[start:stop] = 2.0 * np.sqrt(np.sum(np.sin(0.5 * theta) ** 2, axis=1))
        riem[start:stop] = np.sqrt(np.sum(theta * theta, axis=1))
    euc.sort()
    riem.sort()
    return {"euclidean": euc, "riemannian": riem}


def quantile_with_se(sorted_r, p):
    count = len(sorted_r)
    k = max(0, math.ceil(p * count) - 1)
    spread = math.sqrt(count * p * (1.0 - p))
    lo = max(0, int(math.floor(k - spread)))
    hi = min(count - 1, int(math.ceil(k + spread)))
    return float(sorted_r[k]), 0.5 * float(sorted_r[hi] - sorted_r[lo])


def main():
    rng = np.random.default_rng(SEED)
    table = {}
    for n in DIMENSIONS:
        t0 = time.perf_counter()
        rs = radii(n, rng)
        for metric, sorted_r in rs.items():
            for m in SIZES:
                r0, se = quantile_with_se(sorted_r, 1.0 / m)
                table[f"{n}:{m}:{metric}"] = {"r0": r0, "se": se}
        print(f"n={n}: {time.perf_counter() - t0:.1f} s", file=sys.stderr)
    doc = {
        "method": "empirical 1/m quantile of the ball radius over Haar draws (numpy QR + eigvals)",
        "draws": DRAWS,
        "seed": SEED,
        "key": "n:m:metric",
        "values": table,
    }
    OUT.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
