"""Unitary constellations: diversity metrics, baselines, serialization.

A constellation is a finite set of m >= 2 distinct elements of U(n). Its
diversity sum is min ||A - B|| / (2 sqrt(n)) over pairs, its diversity
product min |det(A - B)|^(1/n) / 2; both lie in [0, 1] and the product never
exceeds the sum.
"""

import itertools
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

from . import _lazy_numpy
from .errors import DimensionError, ParseError, ValidationError, check_int
from .matrices import UnitaryMatrix, _generator, as_complex_matrix, haar_sample, stacked_logabsdet, unitary_eigenangles

np = _lazy_numpy()

__all__ = [
    "Constellation",
    "DiversitySummary",
    "chordal_packing_radius",
    "diversity_product",
    "diversity_sum",
    "diversity_summary",
    "load_constellation",
    "random_search",
    "riemannian_distance",
    "save_constellation",
]

# Bytes random_search holds at once: at its peak a chunk of trials takes
# about 6 arrays the size of its Haar draw (the draw, QR temporaries, one
# row of pair differences). Results do not depend on it.
_SEARCH_BYTES = 4 << 20


@dataclass(frozen=True, eq=False)
class Constellation:
    """m >= 2 pairwise-distinct unitaries of a common dimension n.

    ``members`` may be given as UnitaryMatrix instances or raw arrays; raw
    arrays are validated on construction.
    """

    members: tuple
    label: str = ""

    def __post_init__(self):
        members = tuple(
            u if isinstance(u, UnitaryMatrix) else UnitaryMatrix(u) for u in self.members
        )
        if len(members) < 2:
            raise ValidationError(f"constellation needs at least 2 members, got {len(members)}")
        n = members[0].n
        for i, u in enumerate(members):
            if u.n != n:
                raise ValidationError(f"matrix {i} has dimension {u.n}, expected {n}")
        for i, d in _pair_rows(np.stack([u.array for u in members])):
            equal = np.flatnonzero(np.max(np.abs(d), axis=(-2, -1)) <= 1e-12)
            if equal.size:
                raise ValidationError(f"matrices {i} and {i + 1 + equal[0]} are equal within 1e-12")
        object.__setattr__(self, "members", members)

    @property
    def n(self):
        return self.members[0].n

    @property
    def m(self):
        return len(self.members)


@dataclass(frozen=True)
class DiversitySummary:
    n: int
    m: int
    diversity_sum: float
    sum_pair: tuple
    diversity_product: float
    product_pair: tuple


def _pair_rows(stack):
    """Pair differences of a stack (..., m, n, n), one row at a time.

    Yields (i, stack[..., i, :, :] - stack[..., i+1:, :, :]) for i = 0 .. m-2:
    pairs come in itertools.combinations order, and only one row of them,
    O(m n^2) memory, exists at a time.
    """
    for i in range(stack.shape[-3] - 1):
        yield i, stack[..., i, None, :, :] - stack[..., i + 1 :, :, :]


def _first_min(best, values, i):
    """(value, pair) of the smaller of ``best`` and row i's first minimum;
    a tie keeps ``best``, the earlier pair."""
    k = int(np.argmin(values))
    return (float(values[k]), (i, i + 1 + k)) if values[k] < best[0] else best


def _sum_values(diffs, n):
    norms = np.sqrt(np.sum(np.abs(diffs) ** 2, axis=(-2, -1)))
    return norms / (2.0 * math.sqrt(n))


def _product_values(diffs, n):
    logabs = stacked_logabsdet(diffs)
    with np.errstate(over="ignore"):
        vals = 0.5 * np.exp(logabs / n)  # exp(-inf) = 0 for singular differences
    return vals


def _pair_minima(v, *value_fns):
    """(value, pair) of each value function's first minimum over the member
    pairs of a Constellation, in one pass; ties go to the first pair in
    itertools.combinations order."""
    best = [(math.inf, None)] * len(value_fns)
    for i, d in _pair_rows(np.stack([u.array for u in v.members])):
        best = [_first_min(b, values(d, v.n), i) for b, values in zip(best, value_fns)]
    return best


def diversity_summary(v):
    """Both diversity metrics of a Constellation with their minimizing pairs."""
    sum_min, prod_min = _pair_minima(v, _sum_values, _product_values)
    return DiversitySummary(v.n, v.m, *sum_min, *prod_min)


def diversity_sum(v):
    """min ||A - B|| / (2 sqrt(n)) over member pairs, in [0, 1]."""
    return _pair_minima(v, _sum_values)[0][0]


def diversity_product(v):
    """min |det(A - B)|^(1/n) / 2 over member pairs, in [0, 1].

    Zero exactly when some pair difference is singular; the constellation is
    fully diverse iff the value is positive.
    """
    return _pair_minima(v, _product_values)[0][0]


def riemannian_distance(a, b):
    """Geodesic distance sqrt(sum theta_j^2) of the eigenangles of A* B."""
    aa, bb = as_complex_matrix(a), as_complex_matrix(b)
    if aa.shape != bb.shape:
        raise DimensionError(f"dimension mismatch: {aa.shape} vs {bb.shape}")
    theta = unitary_eigenangles(aa.conj().T @ bb)
    return float(np.sqrt(np.sum(theta * theta)))


def chordal_packing_radius(v):
    """Largest r with pairwise-disjoint chordal balls: from the minimal
    distance d, the smaller root of 2 sqrt(r^2 - r^4/(4n)) = d."""
    return _chordal_radius(v.n, diversity_sum(v))


def _chordal_radius(n, dsum):
    """chordal_packing_radius of an n x n constellation with diversity sum dsum.

    The root sqrt(2n (1 - sqrt(1 - dsum^2))) in half-angle form, which does
    not cancel at small dsum: 1 - cos(t) = 2 sin^2(t/2) with sin(t) = dsum.
    """
    return 2.0 * math.sqrt(n) * math.sin(0.5 * math.asin(min(dsum, 1.0)))


def random_search(n, m, trials, seed, objective="sum"):
    """Best of ``trials`` Haar-sampled constellations under an objective.

    objective is "sum" or "product". seed is a numpy Generator or a Python
    or numpy integer of any sign and size, taken mod 2^64. Deterministic
    given seed, and chunking is invisible: trial k always takes the k-th
    block of m haar_sample draws from one sequential stream. Returns
    (Constellation, score).
    """
    n = check_int(n, "n", 1)
    m = check_int(m, "m", 2)
    trials = check_int(trials, "trials", 1)
    if objective not in ("sum", "product"):
        raise ValidationError(f"objective must be 'sum' or 'product', got {objective!r}")
    rng = _generator(seed)
    values = _sum_values if objective == "sum" else _product_values
    chunk = max(1, _SEARCH_BYTES // (6 * m * n * n * 16))
    best_score = -1.0
    best = None
    done = 0
    while done < trials:
        take = min(chunk, trials - done)
        q = haar_sample(n, rng, (take, m))
        scores = np.full(take, np.inf)
        for _, diffs in _pair_rows(q):
            scores = np.minimum(scores, np.min(values(diffs, n), axis=-1))
        k = int(np.argmax(scores))
        if scores[k] > best_score:
            best_score = float(scores[k])
            best = q[k].copy()
        done += take
    members = tuple(UnitaryMatrix(best[i]) for i in range(m))
    return Constellation(members, label=f"random-search-{objective}"), best_score


def save_constellation(v, path):
    """Write a constellation as one line of JSON: keys n, label (if set),
    matrices, in that order; entries as [re, im] pairs in shortest
    round-trip form, so the file loads back bit for bit."""
    doc = {"n": v.n}
    if v.label:
        doc["label"] = v.label
    pairs = np.stack([u.array for u in v.members]).view(float).reshape(v.m, v.n, v.n, 2)
    doc["matrices"] = pairs.tolist()
    Path(path).write_text(json.dumps(doc) + "\n", encoding="utf-8")


def load_constellation(path):
    """Read a constellation file, validating structure, dimension homogeneity,
    and unitarity; errors name the offending matrix index."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    try:
        data = json.loads(text)
    # ValueError covers JSONDecodeError and integers over Python's digit limit
    except (ValueError, RecursionError) as exc:
        raise ParseError(f"invalid JSON in {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise ParseError(f"expected a JSON object at top level, got {type(data).__name__}")
    n = data.get("n")
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise ParseError(f"field 'n' must be a positive integer, got {n!r}")
    label = data.get("label", "")
    if not isinstance(label, str):
        raise ParseError(f"field 'label' must be a string, got {label!r}")
    mats = data.get("matrices")
    if not isinstance(mats, list) or len(mats) < 2:
        raise ParseError("field 'matrices' must be a list of at least 2 matrices")
    members = []
    for idx, mat in enumerate(mats):
        arr = _parse_matrix(mat, idx)
        if arr.shape != (n, n):
            raise ValidationError(
                f"matrix {idx} has shape {arr.shape[0]}x{arr.shape[1]}, expected {n}x{n}"
            )
        try:
            members.append(UnitaryMatrix(arr))
        except ValidationError as exc:
            raise ValidationError(f"matrix {idx}: {exc}") from exc
    try:
        return Constellation(tuple(members), label=label)
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from exc


def _parse_matrix(mat, idx):
    """A JSON matrix of [re, im] entries as a complex array.

    One numpy conversion and one check of the set of entry types accept
    valid input: only int and float pass, so bool, strings and null do not.
    Anything else goes to the per-entry scan, which names the first
    malformed row or entry.
    """
    if not isinstance(mat, list) or not mat:
        raise ParseError(f"matrix {idx} must be a nonempty list of rows")
    try:
        pairs = np.array(mat, dtype=float)
        types = set(map(type, itertools.chain.from_iterable(itertools.chain.from_iterable(mat))))
    except (TypeError, ValueError, OverflowError):
        return _scan_matrix(mat, idx)
    # finite and strictly inside the float range; an int that rounds to the
    # largest float goes to the scan, which compares it exactly
    if (pairs.ndim == 3 and pairs.shape[2] == 2 and types <= {int, float}
            and np.all(np.abs(pairs) < sys.float_info.max)):
        return pairs.view(complex)[..., 0]
    return _scan_matrix(mat, idx)


def _scan_matrix(mat, idx):
    """_parse_matrix entry by entry: ParseError names the first malformed row
    or entry; what passes (rows without entries, entries of exactly the
    largest float) is returned as a complex array."""
    rows = []
    width = None
    for r, row in enumerate(mat):
        if not isinstance(row, list) or (width is not None and len(row) != width):
            raise ParseError(f"matrix {idx} row {r} is malformed")
        width = len(row)
        entries = []
        for e in row:
            if (
                not isinstance(e, list)
                or len(e) != 2
                or not all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in e)
                or not all(abs(x) <= sys.float_info.max for x in e)  # finite, in float range
            ):
                raise ParseError(f"matrix {idx} row {r} has a malformed entry: {e!r}")
            entries.append(complex(e[0], e[1]))
        rows.append(entries)
    return np.array(rows, dtype=complex)
