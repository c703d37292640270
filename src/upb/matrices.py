"""Complex matrix primitives: coercion, log-determinants, eigenangles, Haar sampling.

Matrices are plain numpy arrays (row-major, complex128). ``UnitaryMatrix`` is a
thin validated wrapper used where unitarity is a contract rather than a hope;
every function below also accepts raw arrays.
"""

from __future__ import annotations  # so that `array: np.ndarray` does not load numpy

import math
from dataclasses import dataclass

from . import _lazy_numpy
from .errors import DimensionError, NumericalError, RangeError, ValidationError, _describe_int, check_int

np = _lazy_numpy()

__all__ = [
    "UnitaryMatrix",
    "as_complex_matrix",
    "haar_sample",
    "stacked_logabsdet",
    "unitarity_residual",
    "unitary_eigenangles",
]

_VALIDATION_TOL = 1e-9  # bound on a UnitaryMatrix's residual ||M*M - I||
_EIGENANGLE_TOL = 1e-6  # bound on that of unitary_eigenangles' argument
# Bytes one random draw may take. The largest draw the package makes is
# selftest's 100 000 Haar matrices of order 3 (14 MB), and random_search
# draws in 4 MiB chunks; a draw past this would end in numpy's
# "array is too big" or in a MemoryError instead of one line.
_MAX_DRAW_BYTES = 1 << 30


def _numeric(value, dtype, what):
    """np.asarray(value, dtype), or ValidationError naming it ``what`` where an entry is no number."""
    try:
        return np.asarray(value, dtype=dtype)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(f"{what} entries must be numeric: {exc}") from exc


def as_complex_matrix(m):
    """Coerce ``m`` to a 2-d complex128 array, rejecting malformed input.

    Raises DimensionError for non-2-d input and ValidationError for empty
    matrices or non-finite entries.
    """
    if isinstance(m, UnitaryMatrix):
        m = m.array
    a = _numeric(m, complex, "matrix")
    if a.ndim != 2:
        raise DimensionError(f"expected a 2-d matrix, got ndim={a.ndim}")
    if a.shape[0] < 1 or a.shape[1] < 1:
        raise ValidationError("matrix must have at least one row and column")
    if not np.all(np.isfinite(a)):
        raise ValidationError("matrix entries must be finite")
    return a


def _square(m, what):
    """as_complex_matrix(m), which must be square; ``what`` names it in the error."""
    a = as_complex_matrix(m)
    rows, cols = a.shape
    if rows != cols:
        raise DimensionError(f"{what} must be square, got {rows}x{cols}")
    return a


def stacked_logabsdet(mats):
    """log|det| over a stack of square matrices, shape (..., n, n) -> (...).

    LAPACK's LU through ``np.linalg.slogdet``, in the log domain so
    near-singular differences of unitaries stay representable. Singular
    matrices map to -inf.
    """
    a = _numeric(mats, complex, "matrix")
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise DimensionError(f"expected a stack of square matrices, got shape {a.shape}")
    return np.linalg.slogdet(a)[1]


def _residual(a):
    """Frobenius norm of M*M - I for each matrix M of a stack (..., n, n)."""
    return np.linalg.norm(a.conj().swapaxes(-1, -2) @ a - np.eye(a.shape[-1]), axis=(-2, -1))


def unitarity_residual(m):
    """Frobenius norm of M*M - I (0 for exactly unitary M)."""
    return float(_residual(_square(m, "unitarity residual input")))


def _check_unitary(a, tol):
    """ValidationError unless every matrix of ``a``, one square array or a
    stack (m, n, n) of them, has unitarity residual <= tol; in a stack the
    error names the first failing matrix by its index."""
    with np.errstate(over="ignore", invalid="ignore"):
        res = _residual(a)
    if not res.max() <= tol:  # a NaN residual, from overflowing entries, fails too
        i = np.argmin(res <= tol)  # the first failing matrix
        message = f"matrix is not unitary: residual {res.flat[i]:.3e} > {tol:.1e}"
        raise ValidationError(message if a.ndim == 2 else f"matrix {i}: {message}")


def unitary_eigenangles(u):
    """Eigenvalue angles of a unitary matrix, sorted ascending in [-pi, pi).

    The angles of ``np.linalg.eigvals``: a unitary matrix is normal, so its
    eigenvalues are perfectly conditioned (a perturbation E moves each by at
    most ||E||), clustered and repeated ones included.
    """
    a = _square(u, "eigenangle input")
    _check_unitary(a, _EIGENANGLE_TOL)
    try:
        eig = np.linalg.eigvals(a)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigenvalues did not converge: {exc}") from exc
    theta = np.angle(eig)
    theta = np.where(theta >= np.pi, theta - 2.0 * np.pi, theta)  # branch [-pi, pi)
    return np.sort(theta)


def _generator(seed):
    """seed if it is a numpy Generator, else a Generator seeded with the
    integer seed mod 2^64 (any sign and size; ValidationError otherwise)."""
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(check_int(seed, "seed", -math.inf) % 2**64)


def _check_draw(count, n):
    """RangeError where haar_sample's draw of count matrices of order n exceeds _MAX_DRAW_BYTES."""
    if count * n * n * 16 > _MAX_DRAW_BYTES:
        raise RangeError(f"haar_sample's Gaussian draw ({_describe_int(count)} × {_describe_int(n)}² "
                         f"complex entries) needs more than {_MAX_DRAW_BYTES >> 20} MiB, the limit for one random draw")


def haar_sample(n, rng, size=None):
    """Draw Haar-distributed elements of U(n).

    ``rng`` is a numpy Generator or an integer seed of any sign and size,
    taken mod 2^64. ``size=None`` returns one UnitaryMatrix; an int or a
    tuple of ints returns an array of shape (*size, n, n) whose matrices
    are, in C order, those that as many single draws from the same stream
    would give. Complex Ginibre matrix (real and
    imaginary parts interleaved), QR, then the Q columns are rephased by the
    R diagonal so the distribution is exactly Haar rather than
    QR-convention dependent (Mezzadri 2007, Notices AMS 54). RangeError
    where the Gaussian draw would exceed 2^30 bytes.
    """
    n = check_int(n, "n", 1)
    dims = () if size is None else size if isinstance(size, tuple) else (size,)
    shape = tuple(check_int(k, "size", 0) for k in dims)
    count = math.prod(shape)
    _check_draw(count, n)
    g = _generator(rng).standard_normal((*shape, n, n, 2))
    z = (g[..., 0] + 1j * g[..., 1]) / math.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r, axis1=-2, axis2=-1)
    absd = np.abs(d)
    phase = np.where(absd > 0, d, 1.0) / np.where(absd > 0, absd, 1.0)
    q = q * phase[..., None, :]
    return UnitaryMatrix(q) if size is None else q


@dataclass(frozen=True, eq=False)
class UnitaryMatrix:
    """A validated element of U(n).

    Rejects non-unitary input instead of renormalizing it; the wrapped array
    is read-only. The unitarity residual ||M*M - I|| must be at most
    tol = 1e-9, which also bounds the determinant: with d_i = s_i^2 - 1 over
    the singular values s_i, sum d_i^2 <= tol^2, so
    |log|det M|| = |sum log(1 + d_i)| / 2 <= (sqrt(n) tol + tol^2) / 2, and
    |det M| is within 6e-9 of 1 for every n <= 143.
    """

    array: np.ndarray

    def __post_init__(self):
        a = _square(self.array, "unitary matrix")
        _check_unitary(a, _VALIDATION_TOL)
        a = a.copy()
        a.setflags(write=False)
        object.__setattr__(self, "array", a)

    @property
    def n(self):
        return self.array.shape[0]
