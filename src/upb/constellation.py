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
from .errors import DimensionError, ParseError, ValidationError, _describe_int, check_choice, check_int
from .matrices import (
    _VALIDATION_TOL,
    _check_unitary,
    _generator,
    _square,
    haar_sample,
    stacked_logabsdet,
    unitary_eigenangles,
)

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
# Bytes of pair differences one run may compute: trials · m(m − 1)/2 · n² ·
# 16 for a search, m(m − 1)/2 · n² · 16 for a constellation's metrics. At n = 2
# that is 2.7e8 pairs: on 2 cores, one trial at m = 23 170 took 35 s to
# search by sum, 101 s by product and 96 s to eval. A larger run is refused
# before its first draw or on construction instead of seeming to hang.
_MAX_PAIR_BYTES = 1 << 34


@dataclass(frozen=True, eq=False)
class Constellation:
    """m >= 2 pairwise-distinct unitaries of a common dimension n.

    ``members``, an iterable of arrays or one (m, n, n) array, is converted
    once, to a read-only complex copy, and checked once: for unitarity,
    against _VALIDATION_TOL, and for distinct members, by _first_duplicate.
    Only input that is no finite stack of m >= 2 square members is scanned
    member by member, by _scan_members. The checks run in the order label,
    iterable members, coercion of every member, member count, dimensions,
    unitarity, pair budget, duplicates, and the first fault in that order is
    raised; load_constellation leaves every value check to this one.
    """

    members: "np.ndarray"
    label: str = ""

    def __post_init__(self):
        if not isinstance(self.label, str):
            raise ValidationError(f"label must be a string, got {self.label!r}")
        try:
            members = np.array(self.members, dtype=complex)
        except (TypeError, ValueError, OverflowError):
            members = None
        if not (members is not None and members.ndim == 3 and members.shape[0] >= 2
                and members.shape[1] == members.shape[2] >= 1 and np.all(np.isfinite(members))):
            members = _scan_members(self.members)
        m, n = members.shape[:2]
        members.setflags(write=False)
        _check_unitary(members, _VALIDATION_TOL)
        _check_pair_work(1, m, n, f"a constellation with n = {n}, m = {m}")
        duplicate = _first_duplicate(members)
        if duplicate:
            raise ValidationError("matrices {} and {} are equal within 1e-12".format(*duplicate))
        object.__setattr__(self, "members", members)

    @property
    def n(self):
        return self.members.shape[1]

    @property
    def m(self):
        return self.members.shape[0]


def _scan_members(members):
    """Constellation's members coerced one at a time into one (m, n, n)
    stack, or the error of the first fault, which names its member."""
    try:
        members = iter(members)
    except TypeError:
        raise ValidationError(f"members must be an iterable of matrices, got {members!r}") from None
    arrays = []
    for i, u in enumerate(members):
        try:
            arrays.append(_square(u, "unitary matrix"))
        except ValidationError as exc:  # DimensionError stays DimensionError
            raise type(exc)(f"matrix {i}: {exc}") from exc
    if len(arrays) < 2:
        raise ValidationError(f"constellation needs at least 2 members, got {len(arrays)}")
    n = arrays[0].shape[0]
    for i, a in enumerate(arrays):
        if a.shape[0] != n:
            raise ValidationError(f"matrix {i} has dimension {a.shape[0]}, expected {n}")
    return np.stack(arrays)


@dataclass(frozen=True)
class DiversitySummary:
    diversity_sum: float
    sum_pair: tuple
    diversity_product: float
    product_pair: tuple


def _check_pair_work(trials, m, n, what):
    """ValidationError where trials constellations of m members of order n
    compute more than _MAX_PAIR_BYTES of pair differences; what names the run."""
    if trials * (m * (m - 1) // 2) * n * n * 16 > _MAX_PAIR_BYTES:
        raise ValidationError(f"{what} computes more than 2^{_MAX_PAIR_BYTES.bit_length() - 1} bytes "
                              "of pair differences, the limit for one run")


def _first_duplicate(members):
    """The first pair (i, j), in itertools.combinations order, of a stack
    (m, n, n) of unitaries whose entries all differ by at most 1e-12, or None.

    The projection p = w . vec(A), w_k = sin(k^2) over all 2n^2 real
    coordinates, differs by at most ||w||_1 1e-12 within such a pair, and
    rounding adds at most 2n^2 eps ||w||_1 (unitary entries are at most 1
    in modulus). So only pairs whose sorted projections lie within
    ||w||_1 (1e-12 + 8 n^2 eps) are compared entry by entry, those d places
    apart in step d: O(m log m) when no two members are that close.
    """
    m, n = members.shape[:2]
    w = np.sin(np.arange(1.0, 2 * n * n + 1) ** 2)
    p = members.reshape(m, -1).view(float) @ w
    order = np.argsort(p)
    p = p[order]
    slack = np.abs(w).sum() * (1e-12 + 8 * n * n * np.finfo(float).eps)
    span = np.searchsorted(p, p + slack, side="right") - np.arange(m)  # within reach, itself included
    first = m * m  # the least i m + j of a pair found
    for d in range(1, int(span.max())):
        a = np.flatnonzero(span > d)
        i, j = order[a], order[a + d]
        close = np.max(np.abs(members[i] - members[j]), axis=(-2, -1)) <= 1e-12
        first = int((np.minimum(i, j) * m + np.maximum(i, j)).min(initial=first, where=close))
    return None if first == m * m else divmod(first, m)


def _pair_min(stack, values):
    """First minimum of ``values`` over the member pairs of a stack
    (..., m, n, n), with its pair: arrays (value, i, j) of the leading shape.

    For i = 0 .. m-2, values maps the row of differences stack[..., i, :, :]
    - stack[..., i+1:, :, :] to an array of their shape less the last two
    axes; only one row, O(m n^2) memory, exists at a time, and of it only
    its first minimum and that minimum's column are kept. The first row
    holding the least of those minima names the pair, so ties go to the
    first pair in itertools.combinations order.
    """
    lows, cols = [], []
    for i in range(stack.shape[-3] - 1):
        row = values(stack[..., i, None, :, :] - stack[..., i + 1 :, :, :])
        lows.append(row.min(axis=-1))
        cols.append(row.argmin(axis=-1))
    lows, cols = np.stack(lows, axis=-1), np.stack(cols, axis=-1)
    i = np.argmin(lows, axis=-1)[..., None]
    low, k = (np.take_along_axis(kept, i, axis=-1)[..., 0] for kept in (lows, cols))
    return low, i[..., 0], i[..., 0] + 1 + k


def _sum_values(diffs):
    norms = np.sqrt(np.sum(np.abs(diffs) ** 2, axis=(-2, -1)))
    return norms / (2.0 * math.sqrt(diffs.shape[-1]))


def _product_values(diffs):
    logabs = stacked_logabsdet(diffs)
    with np.errstate(over="ignore"):
        vals = 0.5 * np.exp(logabs / diffs.shape[-1])  # exp(-inf) = 0 for singular differences
    return vals


def _constellation(v):
    """v if it is a Constellation, else ValidationError."""
    if not isinstance(v, Constellation):
        raise ValidationError(f"expected a Constellation, got {type(v).__name__}")
    return v


def diversity_summary(v):
    """Both diversity metrics of a Constellation with their minimizing pairs."""
    best, first, second = _pair_min(_constellation(v).members, lambda d: np.stack([_sum_values(d), _product_values(d)]))
    pairs = [(int(i), int(j)) for i, j in zip(first, second)]
    return DiversitySummary(float(best[0]), pairs[0], float(best[1]), pairs[1])


def diversity_sum(v):
    """min ||A - B|| / (2 sqrt(n)) over member pairs, in [0, 1]."""
    return float(_pair_min(_constellation(v).members, _sum_values)[0])


def diversity_product(v):
    """min |det(A - B)|^(1/n) / 2 over member pairs, in [0, 1].

    Zero exactly when some pair difference is singular; the constellation is
    fully diverse iff the value is positive.
    """
    return float(_pair_min(_constellation(v).members, _product_values)[0])


def riemannian_distance(a, b):
    """Geodesic distance sqrt(sum theta_j^2) of the eigenangles of A* B, for
    unitary A and B of one shape (residual at most 1e-9, as for a member of a
    Constellation)."""
    aa, bb = _square(a, "a"), _square(b, "b")
    if aa.shape != bb.shape:
        raise DimensionError(f"dimension mismatch: {aa.shape} vs {bb.shape}")
    _check_unitary(np.stack([aa, bb]), _VALIDATION_TOL)  # names operand 0 (a) or 1 (b)
    theta = unitary_eigenangles(aa.conj().T @ bb)
    return float(np.sqrt(np.sum(theta * theta)))


def chordal_packing_radius(v):
    """Largest r with pairwise-disjoint chordal balls: from the minimal
    distance d, the smaller root of 2 sqrt(r^2 - r^4/(4n)) = d."""
    return _chordal_radius(_constellation(v).n, diversity_sum(v))


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
    check_choice(objective, ("sum", "product"), "objective")
    _check_pair_work(trials, m, n, f"a search with n = {n}, m = {m}, trials = {_describe_int(trials)}")
    rng = _generator(seed)
    values = _sum_values if objective == "sum" else _product_values
    chunk = max(1, _SEARCH_BYTES // (6 * m * n * n * 16))
    best_score = -1.0
    best = None
    for done in range(0, trials, chunk):
        q = haar_sample(n, rng, (min(chunk, trials - done), m))
        scores = _pair_min(q, values)[0]
        k = int(np.argmax(scores))
        if scores[k] > best_score:
            best_score = float(scores[k])
            best = q[k].copy()
    return Constellation(best, label=f"random-search-{objective}"), best_score


def save_constellation(v, path):
    """Write a constellation as one line of JSON: keys n, label (if set),
    matrices, in that order; entries as [re, im] pairs in shortest
    round-trip form, so the file loads back bit for bit."""
    doc = {"n": _constellation(v).n}
    if v.label:
        doc["label"] = v.label
    pairs = v.members.view(float).reshape(v.m, v.n, v.n, 2)
    doc["matrices"] = pairs.tolist()
    try:
        Path(path).write_text(json.dumps(doc) + "\n", encoding="utf-8")
    except (OSError, TypeError) as exc:  # TypeError: a path that is no path
        raise ValidationError(f"cannot write constellation file: {exc}") from exc


def load_constellation(path):
    """Read a constellation file: parse it into one (m, n, n) stack, then
    construct. Parsing checks the header, every entry and every member's
    shape before Constellation checks any value, so a structural fault in
    any member is reported before a value fault in any member; errors name
    the offending matrix index."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError, TypeError) as exc:  # TypeError: a path that is no path
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
    stack = _parse_matrices(mats, n)
    del text, data, mats  # so the parsed file is freed before the stack checks' temporaries exist
    return Constellation(stack, label=label)


def _parse_matrices(mats, n):
    """A JSON list of m matrices of [re, im] entries as one complex (m, n, n) array.

    One numpy conversion, one check of the set of entry types and one shape
    check accept valid input: only int and float pass, so bool, strings and
    null do not. Anything else goes to the per-member scan, which names the
    first malformed matrix, row or entry, or the first member not n x n.
    """
    try:
        pairs = np.array(mats, dtype=float)
        types = set(map(type, itertools.chain.from_iterable(
            itertools.chain.from_iterable(itertools.chain.from_iterable(mats)))))
        # finite and strictly inside the float range; an int that rounds to
        # the largest float goes to the scan, which compares it exactly
        if (pairs.shape == (len(mats), n, n, 2) and types <= {int, float}
                and np.all(np.abs(pairs) < sys.float_info.max)):
            return pairs.view(complex)[..., 0]
    except (TypeError, ValueError, OverflowError):
        pass
    return np.stack([_scan_matrix(mat, idx, n) for idx, mat in enumerate(mats)])


def _scan_matrix(mat, idx, n):
    """One member of _parse_matrices entry by entry: ParseError names the
    first malformed row or entry, ValidationError a member not n x n; what
    passes (entries of exactly the largest float) is returned as a complex
    array."""
    if not isinstance(mat, list) or not mat:
        raise ParseError(f"matrix {idx} must be a nonempty list of rows")
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
    arr = np.array(rows, dtype=complex)
    if arr.shape != (n, n):
        raise ValidationError(f"matrix {idx} has shape {arr.shape[0]}x{arr.shape[1]}, expected {n}x{n}")
    return arr
