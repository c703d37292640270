import math

import numpy as np
import pytest

from determinant_oracle import determinant
from upb import (
    Constellation,
    DimensionError,
    NumericalError,
    ValidationError,
    as_complex_matrix,
    haar_sample,
    riemannian_distance,
    stacked_logabsdet,
    unitarity_residual,
    unitary_eigenangles,
)


# --- independent oracles ----------------------------------------------------


def cofactor_det(a):
    """Laplace expansion along the first row; exponential cost, n <= 5 only."""
    a = np.asarray(a, dtype=complex)
    n = a.shape[0]
    if n == 1:
        return complex(a[0, 0])
    total = 0j
    for j in range(n):
        minor = np.delete(np.delete(a, 0, axis=0), j, axis=1)
        total += (-1) ** j * a[0, j] * cofactor_det(minor)
    return total


# --- as_complex_matrix --------------------------------------------------------


def test_as_complex_matrix_coerces_and_validates():
    out = as_complex_matrix([[1, 2], [3, 4]])
    assert out.dtype == np.complex128 and out.shape == (2, 2)
    with pytest.raises(DimensionError):
        as_complex_matrix([1.0, 2.0])
    with pytest.raises(ValidationError):
        as_complex_matrix([[np.nan, 0.0], [0.0, 1.0]])
    with pytest.raises(ValidationError, match="^matrix must have at least one row and column$"):
        as_complex_matrix([[]])
    with pytest.raises(ValidationError, match="^matrix 0: matrix must have at least one row and column$"):
        Constellation(np.zeros((2, 0, 0)))


# --- the reference determinant (tests/determinant_oracle.py) -----------------


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_determinant_matches_cofactor_expansion(n):
    rng = np.random.default_rng(100 + n)
    for _ in range(10):
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        expected = cofactor_det(a)
        assert determinant(a) == pytest.approx(expected, rel=1e-10)


def test_determinant_examples():
    assert determinant(np.eye(3)) == pytest.approx(1.0)
    assert determinant(np.diag([2.0, 3.0, 4.0])) == pytest.approx(24.0)
    singular = np.array([[1.0, 2.0], [2.0, 4.0]])
    assert determinant(singular) == pytest.approx(0.0, abs=1e-12)
    assert determinant([[1j]]) == pytest.approx(1j)


def test_stacked_logabsdet_matches_single():
    rng = np.random.default_rng(7)
    mats = rng.standard_normal((6, 3, 3)) + 1j * rng.standard_normal((6, 3, 3))
    out = stacked_logabsdet(mats)
    assert out.shape == (6,)
    for k in range(6):
        assert out[k] == pytest.approx(math.log(abs(cofactor_det(mats[k]))), rel=1e-10)


def test_non_numeric_entries_are_validation_errors():
    # one coercion: strings, objects and ints beyond the float range alike
    for bad in ([["a", 0], [0, 1]], object(), [[10**400]]):
        for call in (as_complex_matrix, stacked_logabsdet, lambda a: riemannian_distance(a, a), unitarity_residual,
                     unitary_eigenangles):
            with pytest.raises(ValidationError, match="^matrix entries must be numeric: "):
                call(bad)


def test_stacked_logabsdet_singular_gives_neg_inf():
    mats = np.stack([np.eye(2, dtype=complex), np.ones((2, 2), dtype=complex)])
    out = stacked_logabsdet(mats)
    assert out[0] == pytest.approx(0.0, abs=1e-12)
    assert out[1] == -np.inf


# --- eigenangles -------------------------------------------------------------


def test_eigenangles_examples():
    np.testing.assert_allclose(unitary_eigenangles(np.eye(2)), [0.0, 0.0], atol=1e-12)
    np.testing.assert_allclose(
        unitary_eigenangles(np.diag([1j, -1j])), [-np.pi / 2, np.pi / 2], atol=1e-12
    )
    # -1 maps to the half-open branch value -pi, not +pi
    np.testing.assert_allclose(unitary_eigenangles(-np.eye(2)), [-np.pi, -np.pi], atol=1e-12)


def test_eigenangles_sorted_in_half_open_branch():
    rng = np.random.default_rng(3)
    for _ in range(20):
        u = haar_sample(4, rng)
        theta = unitary_eigenangles(u)
        assert np.all(np.diff(theta) >= 0.0)
        assert np.all(theta >= -np.pi) and np.all(theta < np.pi)


def test_eigenangles_product_equals_determinant():
    rng = np.random.default_rng(4)
    for _ in range(10):
        u = haar_sample(3, rng)
        theta = unitary_eigenangles(u)
        assert np.exp(1j * theta).prod() == pytest.approx(determinant(u), abs=1e-8)


def test_eigenangles_match_eigvals_oracle():
    rng = np.random.default_rng(5)
    for _ in range(10):
        u = haar_sample(3, rng)
        expected = np.sort(np.angle(np.linalg.eigvals(u)))
        expected = np.where(expected >= np.pi, expected - 2 * np.pi, expected)
        np.testing.assert_allclose(unitary_eigenangles(u), np.sort(expected), atol=1e-8)


def test_eigenangles_rejects_nonunitary():
    with pytest.raises((ValidationError, NumericalError)):
        unitary_eigenangles(np.array([[2.0, 0.0], [0.0, 1.0]]))


def test_eigenvalue_failure_is_one_line_numerical_error(monkeypatch):
    # LAPACK's failure to converge reaches the caller as one NumericalError
    # line, through unitary_eigenangles and riemannian_distance alike
    def no_convergence(a):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigvals", no_convergence)
    for call in (lambda: unitary_eigenangles(np.eye(2)), lambda: riemannian_distance(np.eye(2), -np.eye(2))):
        with pytest.raises(NumericalError) as info:
            call()
        assert str(info.value) == "eigenvalues did not converge: Eigenvalues did not converge"


# --- Haar sampling -----------------------------------------------------------


def test_haar_sample_is_unitary_and_deterministic():
    a = haar_sample(3, 42)
    b = haar_sample(3, 42)
    np.testing.assert_array_equal(a, b)
    assert type(a) is np.ndarray and a.shape == (3, 3) and a.dtype == np.complex128 and a.flags.writeable
    assert unitarity_residual(a) <= 1e-12
    assert abs(abs(determinant(a)) - 1.0) <= 1e-12


def test_haar_sample_trace_is_centered():
    # E[tr U] = 0 under Haar measure; the mean over 2000 draws should be
    # within a few standard errors of zero (Var |tr| per entry ~ 1).
    rng = np.random.default_rng(8)
    traces = np.array([np.trace(haar_sample(2, rng)) for _ in range(2000)])
    assert abs(traces.mean()) < 0.1


def test_haar_sample_accepts_generator_and_advances_it():
    rng = np.random.default_rng(9)
    a = haar_sample(2, rng)
    b = haar_sample(2, rng)
    assert np.abs(a - b).max() > 1e-6


@pytest.mark.parametrize("seed", [-1, 1.5, True])
def test_haar_sample_rejects_seeds_that_are_not_nonnegative_integers(seed):
    # a negative integer seed is taken mod 2^64; a non-integer is refused
    if type(seed) is int:
        assert np.array_equal(haar_sample(2, seed), haar_sample(2, 2**64 + seed))
        return
    with pytest.raises(ValidationError):
        haar_sample(2, seed)


@pytest.mark.parametrize("n, size", [(2, 10**18), (10**6, None)])
def test_haar_sample_refuses_a_draw_above_the_limit(n, size):
    # both are far above the 2^30-byte limit, so the refusal allocates nothing
    with pytest.raises(ValidationError, match=r"needs more than 1024 MiB, the limit for one random draw$"):
        haar_sample(n, 0, size)


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
def test_haar_batch_equals_successive_single_draws(n):
    rng = np.random.default_rng(5)
    singles = np.stack([haar_sample(n, rng) for _ in range(6)])
    np.testing.assert_array_equal(haar_sample(n, 5, 6), singles)
    np.testing.assert_array_equal(haar_sample(n, 5, (2, 3)), singles.reshape(2, 3, n, n))
    assert haar_sample(n, 5, 0).shape == (0, n, n)
    for size in (True, 2.0, "3", -1, (2, 1.5), [2]):
        with pytest.raises(ValidationError):
            haar_sample(n, 5, size)


# --- unitary matrices as plain arrays ------------------------------------------


def test_unitaries_are_checked_and_members_are_read_only():
    # a unitary is a plain array: Constellation and riemannian_distance check
    # it, and a Constellation's members are read-only
    v = Constellation([np.eye(2), -np.eye(2)])
    assert v.n == 2
    with pytest.raises(ValueError):
        v.members[0, 0, 0] = 5.0
    with pytest.raises(DimensionError):
        Constellation([np.ones((2, 3)), np.ones((2, 3))])
    with pytest.raises(DimensionError):
        riemannian_distance(np.ones((2, 3)), np.ones((2, 3)))
    with pytest.raises(ValidationError):
        Constellation([2.0 * np.eye(2), np.eye(2)])
    with pytest.raises(ValidationError):
        riemannian_distance(2.0 * np.eye(2), np.eye(2))


def test_eigenangles_accept_a_looser_residual_than_distances():
    # a residual of about 4e-8: above the 1e-9 of Constellation and
    # riemannian_distance, below the eigenangles' 1e-6
    almost = np.eye(2) + 1e-8
    with pytest.raises(ValidationError, match=r"^matrix 0: matrix is not unitary: residual .* > 1\.0e-09$"):
        riemannian_distance(almost, np.eye(2))
    np.testing.assert_allclose(unitary_eigenangles(almost), [0.0, 0.0], atol=1e-7)
    with pytest.raises(ValidationError, match=r"^matrix is not unitary: residual .* > 1\.0e-06$"):
        unitary_eigenangles(np.eye(2) + 1e-6)


def test_overflowing_residual_rejected():
    # M*M overflows to inf - inf = NaN off the diagonal; NaN must not pass
    a = np.array([[1e308, 1e308], [1e308, -1e308]])
    with pytest.raises(ValidationError, match="residual nan"):
        riemannian_distance(a, np.eye(2))
    with pytest.raises(ValidationError, match="residual nan"):
        unitary_eigenangles(a)


@pytest.mark.parametrize("n", [1, 2, 5, 16])
def test_residual_bound_implies_determinant_bound(n):
    # the worst case for |det| at a given residual: every s_i^2 - 1 = tol / sqrt(n)
    tol = 1e-9  # the bound on the residual of Constellation's members
    rng = np.random.default_rng(60 + n)
    u, v = haar_sample(n, rng), haar_sample(n, rng)
    a = (u * math.sqrt(1.0 + 0.999 * tol / math.sqrt(n))) @ v
    Constellation([a, -a])
    assert abs(abs(determinant(a)) - 1.0) <= (math.sqrt(n) * tol + tol**2) / 2.0
    assert abs(abs(determinant(a)) - 1.0) >= 0.99 * math.sqrt(n) * tol / 2.0  # the bound is tight

