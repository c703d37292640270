"""The constellation-file loader with per-entry Python checks, kept as a
reference oracle for the tests.

load(path) returns (label, member arrays) or raises what that loader raises,
with the same type and message. Every entry is checked one at a time, and
every member is parsed and shape-checked before any is validated. Then
each member is validated the old way: its unitarity residual against 1e-9,
then |det| within 1e-6 of 1 through the reference elimination
determinant_oracle.determinant; then pairwise distinctness within 1e-12.
"""

import itertools
import json
import sys
from pathlib import Path

import numpy as np

from determinant_oracle import determinant
from upb import ParseError, ValidationError, unitarity_residual


def parse_matrix(mat, idx):
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
    return np.array(rows, dtype=complex)


def check_member(a, tol=1e-9):
    with np.errstate(over="ignore", invalid="ignore"):  # overflowing entries
        res = unitarity_residual(a)
        dmod = abs(determinant(a))
    if res > tol:
        raise ValidationError(f"matrix is not unitary: residual {res:.3e} > {tol:.1e}")
    if abs(dmod - 1.0) > 1e-6:
        raise ValidationError(f"determinant modulus {dmod:.9f} is not within 1e-6 of 1")


def load(path):
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    try:
        data = json.loads(text)
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
        arr = parse_matrix(mat, idx)
        if arr.shape != (n, n):
            raise ValidationError(
                f"matrix {idx} has shape {arr.shape[0]}x{arr.shape[1]}, expected {n}x{n}"
            )
        members.append(arr)
    for idx, arr in enumerate(members):
        try:
            check_member(arr)
        except ValidationError as exc:
            raise ValidationError(f"matrix {idx}: {exc}") from exc
    for i, j in itertools.combinations(range(len(members)), 2):
        if np.max(np.abs(members[i] - members[j])) <= 1e-12:
            raise ValidationError(f"matrices {i} and {j} are equal within 1e-12")
    return label, members
