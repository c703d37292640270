"""The 40-digit measurement behind test_weyl.PHI_ERRORS, kept as a tool.

    PYTHONPATH=src python tests/phi_error_oracle.py 2 3 4 6 8 12 16

prints, for each metric and each n given, max |phi_float64 - phi_40| of
weyl._toeplitz_phi over 12 omegas, rounded up to two digits. omega_k is
taken at k = 1024, k = 2^19 and the ten k rounded from geomspace(1, 4n, 10),
and each is evaluated in the chunk of omegas weyl._terms builds it in.
phi_40 is the Toeplitz determinant at the same float omega from 40-digit
coefficients (mpmath besselj, erf of the completed square) and mpmath's
40-digit LU determinant with partial pivoting, and the difference is taken
at 40 digits too. It needs mpmath, which is not a dependency of the package.
On one core of an Intel Xeon, the rows n <= 16 of both metrics take
seconds, and n = 128, 160 and 200 about 35 minutes.
"""

import math
import sys

import numpy as np

from upb import weyl


def chunk_of(n, k):
    """The omegas of the chunk weyl._terms evaluates omega_k in, and the
    position of omega_k there: blocks (0, 512], (512, 1024], ..., each cut
    into chunks of _CHUNK_BYTES / (16 n^2) terms from its start."""
    lo = 0 if k <= weyl._FIRST_TERMS // 2 else 1 << ((k - 1).bit_length() - 1)
    step = max(1, weyl._CHUNK_BYTES // (16 * n * n))
    start = lo + (k - 1 - lo) // step * step
    stop = min(start + step, 2 * lo if lo else weyl._FIRST_TERMS // 2)
    return np.arange(start + 1, stop + 1), k - 1 - start


def error_40(n, w, phi, metric):
    """|phi - det[c_{j-k}(w)]| at 40 digits, w and phi floats."""
    import mpmath

    mp = mpmath.mp
    mp.dps = 40
    t = mp.mpf(w)
    if metric == "euclidean":
        # c_k = e^{it/2} (-i)^k J_k(t/2), k = 1-n..n-1
        c = {k: mp.expj(t / 2) * (-1j) ** (k % 4) * mp.besselj(k, t / 2) for k in range(1 - n, n)}
    else:
        # c_k = e^{-ik^2/(4t)} (1/2pi) int e^{itu^2} du over [-pi - k/(2t), pi - k/(2t)]
        s = mp.expj(-mp.pi / 4) * mp.sqrt(t)
        c = {}
        for k in range(n):
            shift = k / (2 * t)
            span = mp.erf(s * (mp.pi - shift)) - mp.erf(s * (-mp.pi - shift))
            c[k] = c[-k] = mp.expj(mp.pi / 4 - k * k / (4 * t)) * span / (4 * mp.sqrt(mp.pi * t))
    return float(abs(phi - mp.det(mp.matrix([[c[j - k] for k in range(n)] for j in range(n)]))))


def phi_error(n, metric):
    """max |phi_float64 - phi_40| over the omegas, rounded up to two digits."""
    ks = sorted({1024, 1 << 19, *(int(round(v)) for v in np.geomspace(1, 4 * n, 10))})
    err = 0.0
    for k in ks:
        terms, at = chunk_of(n, k)
        w = 2.0 * math.pi * terms / (n * weyl._KAPPA[metric])
        err = max(err, error_40(n, float(w[at]), complex(weyl._toeplitz_phi(n, w, metric)[at]), metric))
    unit = 10.0 ** (math.floor(math.log10(err)) - 1)
    return math.ceil(err / unit) * unit


if __name__ == "__main__":
    for metric in weyl.METRICS:
        print(f"{metric}: " + ", ".join(f"{n}: {phi_error(n, metric):.1e}" for n in map(int, sys.argv[1:])))
