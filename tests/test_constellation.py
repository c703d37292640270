import itertools
import json
import math
import tracemalloc

import numpy as np
import pytest

import upb.constellation
from upb import (
    Constellation,
    DimensionError,
    ParseError,
    ValidationError,
    b1_of_r,
    chordal_packing_radius,
    diversity_product,
    diversity_sum,
    diversity_summary,
    haar_sample,
    load_constellation,
    random_search,
    riemannian_distance,
    save_constellation,
    unitarity_residual,
    unitary_eigenangles,
)


def roots_of_unity(m):
    return [np.array([[np.exp(2j * np.pi * k / m)]]) for k in range(m)]


def pair(a, b):
    return Constellation([np.asarray(a, dtype=complex), np.asarray(b, dtype=complex)])


# --- diversity metrics --------------------------------------------------------


def test_antipodal_pair_metrics():
    v = pair(np.eye(2), -np.eye(2))
    s = diversity_summary(v)
    assert s.diversity_sum == pytest.approx(1.0)
    assert s.diversity_product == pytest.approx(1.0)
    assert s.sum_pair == (0, 1) and s.product_pair == (0, 1)


def test_reflection_pair_not_fully_diverse():
    v = pair(np.eye(2), np.diag([1.0, -1.0]))
    assert diversity_sum(v) == pytest.approx(1.0 / math.sqrt(2.0))
    assert diversity_product(v) == pytest.approx(0.0, abs=1e-15)


@pytest.mark.parametrize("m", [2, 3, 4, 8])
def test_roots_of_unity_metrics(m):
    v = Constellation(roots_of_unity(m))
    expected = math.sin(math.pi / m)
    assert diversity_sum(v) == pytest.approx(expected, rel=1e-12)
    assert diversity_product(v) == pytest.approx(expected, rel=1e-12)


def test_summary_identifies_minimizing_pair():
    # three points on the circle with one close pair (indices 1, 2)
    v = Constellation(
        [np.array([[1.0 + 0j]]), np.array([[np.exp(2.9j)]]), np.array([[np.exp(3.1j)]])]
    )
    s = diversity_summary(v)
    assert s.sum_pair == (1, 2)
    assert s.diversity_sum == pytest.approx(math.sin(0.1), rel=1e-9)


def test_metrics_invariant_under_global_rotation():
    rng = np.random.default_rng(17)
    members = [haar_sample(3, rng) for _ in range(4)]
    v = Constellation(members)
    g = haar_sample(3, rng)
    rotated = Constellation([g @ u for u in members])
    assert diversity_sum(rotated) == pytest.approx(diversity_sum(v), abs=1e-10)
    assert diversity_product(rotated) == pytest.approx(diversity_product(v), abs=1e-10)


def test_product_le_sum_random():
    rng = np.random.default_rng(23)
    for _ in range(100):
        n = int(rng.integers(1, 5))
        m = int(rng.integers(2, 8))
        v = Constellation([haar_sample(n, rng) for _ in range(m)])
        assert diversity_product(v) <= diversity_sum(v) + 1e-12


# --- riemannian distance --------------------------------------------------------


def test_riemannian_distance_examples():
    assert riemannian_distance(np.eye(2), -np.eye(2)) == pytest.approx(math.pi * math.sqrt(2.0))
    assert riemannian_distance(np.eye(2), np.diag([1.0, -1.0])) == pytest.approx(math.pi)
    assert riemannian_distance(np.eye(3), np.eye(3)) == pytest.approx(0.0, abs=1e-8)


def test_riemannian_distance_symmetry():
    rng = np.random.default_rng(29)
    a, b = haar_sample(3, rng), haar_sample(3, rng)
    assert riemannian_distance(a, b) == pytest.approx(riemannian_distance(b, a), rel=1e-10)


def test_riemannian_distance_rejects_mixed_shapes():
    with pytest.raises(DimensionError):
        riemannian_distance(np.eye(2), np.eye(3))
    with pytest.raises(DimensionError):
        riemannian_distance([1.0], [1.0])
    with pytest.raises(ValidationError):  # coerced by as_complex_matrix, like every matrix argument
        riemannian_distance(np.eye(2), [["a", 0], [0, 1]])
    with pytest.raises(DimensionError):  # an isometry of C^1 into C^2 is no unitary matrix
        riemannian_distance([[1.0], [0.0]], [[1.0], [0.0]])


def test_riemannian_distance_rejects_non_unitary_operands():
    # A* B = I here, so only a check of the operands themselves, at the
    # members' bound 1e-9, can refuse them; the error names the operand
    for a, b, failing in ((2 * np.eye(2), 0.5 * np.eye(2), 0),
                          (np.eye(2) * (1 + 1e-8), np.eye(2), 0),
                          (np.eye(2), np.eye(2) * (1 + 1e-8), 1)):
        with pytest.raises(ValidationError, match=rf"^matrix {failing}: matrix is not unitary"):
            riemannian_distance(a, b)


def test_each_metric_computes_only_its_own_values(monkeypatch):
    v = Constellation([haar_sample(3, seed) for seed in range(30)])
    summary = diversity_summary(v)
    assert diversity_product(v) == summary.diversity_product  # bit for bit
    radius = upb.constellation._chordal_radius(v.n, summary.diversity_sum)

    def no_determinant(diffs):
        raise AssertionError("the diversity sum took a determinant")

    monkeypatch.setattr(upb.constellation, "stacked_logabsdet", no_determinant)
    assert diversity_sum(v) == summary.diversity_sum
    assert chordal_packing_radius(v) == radius


# --- packing radius ---------------------------------------------------------------


def test_packing_radius_examples():
    assert chordal_packing_radius(pair(np.eye(2), -np.eye(2))) == pytest.approx(2.0)
    # n=1 at Frobenius distance sqrt(2): radius 2 sin(pi/8)
    v = pair([[1.0]], [[1j]])
    assert chordal_packing_radius(v) == pytest.approx(2.0 * math.sin(math.pi / 8.0), rel=1e-12)


def test_packing_radius_small_distance_limit():
    d = 1e-4
    v = pair([[1.0]], [[np.exp(2j * np.arcsin(d / 2.0))]])
    r = chordal_packing_radius(v)
    assert r / d == pytest.approx(0.5, rel=0.01)


@pytest.mark.parametrize("n", [1, 2, 8])
def test_packing_radius_round_trips_through_b1(n):
    # B1 is the diversity sum at the chordal radius, so it inverts the
    # radius; the root in its sqrt(1 - sqrt(1 - d^2)) form cancels at small d
    for dsum in (1e-8, 1e-6, 1e-3, 0.3, 0.99, 1.0):
        r = upb.constellation._chordal_radius(n, dsum)
        assert b1_of_r(n, r) == pytest.approx(dsum, rel=1e-14, abs=0.0)


# --- constellation construction ------------------------------------------------------


def test_constellation_validates_membership():
    with pytest.raises(ValidationError):
        Constellation([np.eye(2)])  # m must be >= 2
    with pytest.raises(ValidationError):
        Constellation([np.eye(2), np.eye(3)])  # mixed dimensions
    with pytest.raises(ValidationError):
        Constellation([np.eye(2), np.eye(2)])  # duplicates
    with pytest.raises(ValidationError):
        Constellation([np.eye(2), 2.0 * np.eye(2)])  # not unitary
    for members in (5, None):  # not iterable
        with pytest.raises(ValidationError) as info:
            Constellation(members)
        assert str(info.value) == f"members must be an iterable of matrices, got {members!r}"
    with pytest.raises(ValidationError, match="^label must be a string"):
        Constellation(5, label=5)  # the label is checked first


def test_label_must_be_a_string():
    # a label that save_constellation would write and load_constellation refuse
    for label in (5, ["x"], None):
        with pytest.raises(ValidationError) as info:
            Constellation([np.eye(2)], label=label)  # before the member count is checked
        assert str(info.value) == f"label must be a string, got {label!r}"


def test_member_errors_name_the_member():
    cases = [
        (2.0 * np.eye(2), ValidationError, "matrix is not unitary: residual"),
        (np.ones((2, 3)), DimensionError, "unitary matrix must be square, got 2x3"),
        (np.array([[np.nan, 0.0], [0.0, 1.0]]), ValidationError, "matrix entries must be finite"),
        ([["a", 0], [0, 1]], ValidationError, "matrix entries must be numeric"),
    ]
    for bad, kind, message in cases:
        with pytest.raises(kind, match=f"^matrix 1: {message}") as info:
            Constellation([np.eye(2), bad, -np.eye(2)])
        assert type(info.value) is kind
    # the same members as one stack, which is checked for unitarity at once
    with pytest.raises(ValidationError, match="^matrix 1: matrix is not unitary: residual") as info:
        Constellation(np.stack([np.eye(2), 2.0 * np.eye(2), -np.eye(2)]))
    assert type(info.value) is ValidationError
    with pytest.raises(ValidationError, match="^matrix is not unitary: residual"):
        unitary_eigenangles(2.0 * np.eye(2))  # a single matrix has no index


def test_metrics_and_save_refuse_anything_but_a_constellation(tmp_path):
    path = tmp_path / "v.json"
    for bad in ("a", 3, None, haar_sample(2, 0, 3)):
        for call in (diversity_sum, diversity_product, diversity_summary, chordal_packing_radius,
                     lambda v: save_constellation(v, path)):
            with pytest.raises(ValidationError) as info:
                call(bad)
            assert str(info.value) == f"expected a Constellation, got {type(bad).__name__}"
    assert not path.exists()


def test_overflowing_members_and_operands_are_validation_errors():
    with pytest.raises(ValidationError) as info:
        Constellation([[[10**400]], [[1]]])
    assert str(info.value) == "matrix 0: matrix entries must be numeric: int too large to convert to float"
    with pytest.raises(ValidationError, match="^matrix entries must be numeric: "):
        riemannian_distance([[10**400]], [[1]])


def test_duplicate_threshold_names_the_first_pair_within_it():
    members = [haar_sample(3, seed) for seed in range(5)]
    near = members[1].copy()
    near[0, 0] += 1e-13
    # (1, 3) comes before the exact copy's pair (2, 4) in combinations order
    with pytest.raises(ValidationError, match="^matrices 1 and 3 are equal within 1e-12$"):
        Constellation(members[:3] + [near, members[2]] + members[3:])
    near[0, 0] = members[1][0, 0] + 2e-12
    assert Constellation(members[:3] + [near] + members[3:]).m == 6


def test_construction_forms_no_pair_differences(monkeypatch, tmp_path):
    path = tmp_path / "v.json"
    save_constellation(Constellation(haar_sample(2, 1, 50)), path)

    def no_pairs(stack, values):
        raise AssertionError("construction walked the member pairs")

    monkeypatch.setattr(upb.constellation, "_pair_min", no_pairs)
    v = Constellation(haar_sample(2, 0, 200))
    assert load_constellation(path).m == 50
    with pytest.raises(AssertionError, match="walked the member pairs"):
        diversity_sum(v)  # the patch is live


def test_constellation_and_summary_hold_one_row_of_pairs():
    # all m(m-1)/2 = 79800 differences at n = 4 would take 20 MB
    members = [haar_sample(4, seed) for seed in range(400)]
    tracemalloc.start()
    try:
        diversity_summary(Constellation(members))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


def test_random_search_stays_within_its_memory_budget():
    # 4 MiB of Haar draws, QR temporaries and pair differences at a time;
    # sizing chunks by the pair row alone peaked at about 25 MiB at both sizes
    for n, m, trials in ((2, 12, 10**4), (8, 100, 50)):
        tracemalloc.start()
        try:
            random_search(n, m, trials, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20, (n, m, trials)


def test_constellation_accepts_arrays_and_nested_lists():
    v = Constellation([haar_sample(2, 1), np.eye(2).tolist()])
    assert v.n == 2 and v.m == 2
    np.testing.assert_array_equal(v.members[1], np.eye(2))


def test_members_are_one_read_only_stack():
    arrays = [haar_sample(3, seed) for seed in range(5)]
    stack = np.stack(arrays)
    frozen = stack.copy()
    frozen.setflags(write=False)
    for members in (arrays, (u for u in arrays), stack, frozen):
        v = Constellation(members)
        assert v.members.shape == (5, 3, 3) and v.members.dtype == np.complex128
        assert v.members.tobytes() == stack.tobytes()
        assert not v.members.flags.writeable
    assert stack.flags.writeable  # the caller's array is copied, not frozen
    assert all(u.flags.writeable for u in arrays)
    with pytest.raises(ValueError):
        v.members[0, 0, 0] = 0.0


def test_a_finite_stack_is_converted_once(monkeypatch):
    def forbidden(*args):
        raise AssertionError("a member was coerced on its own")

    stack = haar_sample(3, 4, 20)
    monkeypatch.setattr(upb.constellation, "_square", forbidden)
    for members in (stack, list(stack), stack.tolist()):
        assert Constellation(members).members.tobytes() == stack.tobytes()
    # input that converts to no finite stack of m >= 2 is scanned member by member
    for members in ((u for u in stack), [*stack[:2], np.full((3, 3), np.nan)], stack[:1]):
        with pytest.raises(AssertionError, match="coerced on its own"):
            Constellation(members)


def test_constellation_refuses_pair_work_over_the_budget(monkeypatch):
    # m = 4 at n = 2: 6 pairs of 2 x 2 differences, 384 bytes
    members = [haar_sample(2, seed) for seed in range(4)]
    monkeypatch.setattr(upb.constellation, "_MAX_PAIR_BYTES", 384)
    assert Constellation(members).m == 4
    monkeypatch.setattr(upb.constellation, "_MAX_PAIR_BYTES", 256)
    with pytest.raises(ValidationError, match="^a constellation with n = 2, m = 4 computes more than 2\\^8 bytes"):
        Constellation(members)
    with pytest.raises(ValidationError, match="^a search with n = 2, m = 4, trials = 1 computes"):
        random_search(2, 4, 1, seed=0)


# --- random search ---------------------------------------------------------------------


def test_random_search_deterministic():
    a, score_a = random_search(2, 4, 300, seed=5)
    b, score_b = random_search(2, 4, 300, seed=5)
    assert score_a == score_b
    for x, y in zip(a.members, b.members):
        np.testing.assert_array_equal(x, y)


def test_random_search_chunking_is_invisible(monkeypatch):
    # a chunk of trials and one constellation reduce their pairs alike, so
    # the score is the metric of the constellation returned, bit for bit
    metric = {"sum": diversity_sum, "product": diversity_product}
    for n, objective in itertools.product((1, 2, 3), metric):
        a, score_a = random_search(n, 5, 40, seed=12, objective=objective)
        with monkeypatch.context() as patch:
            patch.setattr(upb.constellation, "_SEARCH_BYTES", 1)  # one trial per chunk
            b, score_b = random_search(n, 5, 40, seed=12, objective=objective)
        assert score_a == score_b == metric[objective](a)
        for x, y in zip(a.members, b.members):
            np.testing.assert_array_equal(x, y)


def test_random_search_near_circle_optimum():
    _, score = random_search(1, 4, 5000, seed=6)
    assert score >= 0.95 * math.sin(math.pi / 4.0)


def test_random_search_members_are_unitary():
    best, score = random_search(2, 3, 200, seed=8)
    assert best.m == 3
    assert score > 0.0
    for u in best.members:
        assert unitarity_residual(u) <= 1e-10


def test_random_search_product_objective():
    best, score = random_search(2, 3, 300, seed=9, objective="product")
    assert score == diversity_product(best)
    assert score <= diversity_sum(best) + 1e-12


def test_random_search_validates_arguments():
    with pytest.raises(ValidationError):
        random_search(1, 4, 0, seed=1)
    for objective in ("trace", np.array(["sum"]), None):
        with pytest.raises(ValidationError) as info:
            random_search(1, 4, 10, seed=1, objective=objective)
        assert str(info.value) == f"unknown objective {objective!r}; expected one of sum, product"
    for seed in ("3", 1.7, True, None, np.float64(3.0)):
        with pytest.raises(ValidationError, match="^seed must be an integer"):
            random_search(1, 4, 10, seed=seed)
    # any integer is taken mod 2^64: negative, numpy and beyond 64 bits alike
    score = random_search(1, 4, 10, seed=-5)[1]
    for seed in (np.int64(-5), 2**64 - 5, 2**128 - 5, np.uint64(2**64 - 5)):
        assert random_search(1, 4, 10, seed=seed)[1] == score


def test_random_search_reproduces_documented_score():
    # the README's quick-start value; it pins the draw layout of haar_sample
    _, score = random_search(1, 4, 5000, seed=6)
    assert abs(score - 0.678713) <= 1e-6


# --- save / load -------------------------------------------------------------------------


def test_save_load_roundtrip(tmp_path):
    rng = np.random.default_rng(41)
    for n in (3, 8):
        v = Constellation([haar_sample(n, rng) for _ in range(4)], label="round-trip")
        path = tmp_path / f"v{n}.json"
        save_constellation(v, path)
        back = load_constellation(path)
        assert back.label == "round-trip"
        assert back.n == n and back.m == 4
        for x, y in zip(v.members, back.members):
            assert x.tobytes() == y.tobytes()  # bit for bit, signed zeros included
    # entries are written in their shortest round-trip form, which for
    # these differs from 17 significant digits
    text = path.read_text()
    entries = v.members[0].view(float).ravel()
    shorter = [x for x in entries if repr(float(x)) != format(x, ".17g")]
    assert shorter
    assert all(repr(float(x)) in text and format(x, ".17g") not in text for x in shorter)


def test_saved_file_is_plain_json_with_stable_keys(tmp_path):
    v = Constellation([np.eye(2), -np.eye(2)])
    path = tmp_path / "v.json"
    save_constellation(v, path)
    text = path.read_text()
    doc = json.loads(text)
    assert list(doc.keys()) == ["n", "matrices"]
    assert doc["n"] == 2
    assert doc["matrices"][0][0][0] == [1.0, 0.0]
    assert text.index('"n"') < text.index('"matrices"')
    assert text.endswith("}\n") and text.count("\n") == 1  # one line

    label = 'a "quoted" label: ünïcödé ∑ \\ 🙂'
    labelled = Constellation([np.eye(2), -np.eye(2)], label=label)
    save_constellation(labelled, path)
    doc = json.loads(path.read_text(encoding="utf-8"))
    assert list(doc.keys()) == ["n", "label", "matrices"]
    assert doc["label"] == label
    assert load_constellation(path).label == label


def test_load_rejects_malformed_files(tmp_path):
    missing = tmp_path / "nope.json"
    with pytest.raises(ParseError):
        load_constellation(missing)

    bad_json = tmp_path / "bad.json"
    bad_json.write_text("{not json")
    with pytest.raises(ParseError):
        load_constellation(bad_json)

    bad_entry = tmp_path / "entry.json"
    bad_entry.write_text(json.dumps({"n": 1, "matrices": [[["x", 0.0]], [[0.0, 1.0]]]}))
    with pytest.raises(ParseError):
        load_constellation(bad_entry)

    too_big = tmp_path / "big.json"  # an integer beyond the float range
    too_big.write_text('{"n": 1, "matrices": [[[[1' + "0" * 400 + ', 0]]], [[[0, 1]]]]}')
    with pytest.raises(ParseError, match="matrix 0 row 0"):
        load_constellation(too_big)

    too_long = tmp_path / "long.json"  # beyond Python's integer digit limit
    too_long.write_text('{"n": 1' + "0" * 5000 + ', "matrices": []}')
    with pytest.raises(ParseError, match="long.json"):
        load_constellation(too_long)

    too_deep = tmp_path / "deep.json"
    too_deep.write_text("[" * 200000)
    with pytest.raises(ParseError, match="deep.json"):
        load_constellation(too_deep)

    not_utf8 = tmp_path / "latin1.json"
    not_utf8.write_bytes(b'{"n": 1, "label": "\xe9", "matrices": []}')
    with pytest.raises(ParseError, match="latin1.json"):
        load_constellation(not_utf8)

    too_few = tmp_path / "few.json"
    too_few.write_text(json.dumps({"n": 1, "matrices": [[[1.0, 0.0]]]}))
    with pytest.raises(ParseError):  # structurally malformed: fewer than 2 members
        load_constellation(too_few)


def test_save_and_load_errors_are_package_errors(tmp_path):
    v = Constellation([np.eye(2), -np.eye(2)])
    for path in (tmp_path, tmp_path / "missing" / "v.json", None, 5):
        with pytest.raises(ValidationError, match="^cannot write constellation file: "):
            save_constellation(v, path)
    with pytest.raises(ParseError, match="^cannot read None: "):
        load_constellation(None)


def _write_stack(path, stack):
    """A well-formed constellation file of a stack (m, n, n), valid or not."""
    m, n = stack.shape[:2]
    path.write_text(json.dumps({"n": n, "matrices": stack.view(float).reshape(m, n, n, 2).tolist()}))
    return path


def test_load_names_offending_matrix(tmp_path, monkeypatch):
    # each file has one value fault, which Constellation alone reports: the
    # loader raises its type and message, with no path
    haar = haar_sample(2, 1, 4)
    nonunitary, overflowing, duplicate = haar.copy(), haar.copy(), haar.copy()
    nonunitary[1] = 2.0 * np.eye(2)
    overflowing[1] = [[1e308, 1e308], [1e308, -1e308]]  # residual nan
    duplicate[2] = duplicate[0]
    cases = [(nonunitary, "^matrix 1: matrix is not unitary: residual 4.243e\\+00 > 1.0e-09$"),
             (overflowing, "^matrix 1: matrix is not unitary: residual nan > 1.0e-09$"),
             (duplicate, "^matrices 0 and 2 are equal within 1e-12$"),
             (haar, "^a constellation with n = 2, m = 4 computes more than 2\\^8 bytes")]
    for k, (stack, message) in enumerate(cases):
        path = _write_stack(tmp_path / f"v{k}.json", stack)
        if stack is haar:
            monkeypatch.setattr(upb.constellation, "_MAX_PAIR_BYTES", 256)
        with pytest.raises(ValidationError, match=message) as want:
            Constellation(stack)
        with pytest.raises(ValidationError) as got:
            load_constellation(path)
        assert type(got.value) is type(want.value) and str(got.value) == str(want.value)


def test_load_checks_structure_before_values(tmp_path):
    # matrix 0 is not unitary and matrix 1 is malformed: parsing names matrix 1
    doc = {"n": 1, "matrices": [[[[2.0, 0.0]]], [[[True, 0.0]]]]}
    path = tmp_path / "v.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ParseError, match="^matrix 1 row 0 has a malformed entry"):
        load_constellation(path)


def test_load_validates_the_stack_once(tmp_path, monkeypatch):
    path = tmp_path / "v.json"
    save_constellation(Constellation(haar_sample(3, 2, 20)), path)
    calls = []

    def forbidden(*args):
        raise AssertionError("the loader scanned a member")

    def counted(a, tol):
        calls.append(a.shape)
        return check(a, tol)

    check = upb.constellation._check_unitary
    monkeypatch.setattr(upb.constellation, "_scan_matrix", forbidden)  # one numpy conversion
    monkeypatch.setattr(upb.constellation, "_check_unitary", counted)
    for _ in range(2):
        assert load_constellation(path).m == 20
    assert calls == [(20, 3, 3)] * 2


def test_load_rejects_wrong_shape(tmp_path):
    doc = {"n": 2, "matrices": [[[[1.0, 0.0]]], [[[0.0, 1.0]]]]}
    path = tmp_path / "v.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ValidationError):
        load_constellation(path)
