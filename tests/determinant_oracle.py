"""The reference elimination determinant, used only by the tests.

An independent determinant for the checks that compare against one: the
eigenangle product, Haar samples, the residual-to-|det| bound of
UnitaryMatrix, and the member check of loader_oracle. It is checked itself
against a cofactor expansion in test_matrices.py.
"""

import numpy as np

from upb.matrices import _square


def determinant(m):
    """Determinant by row-pivoted Gaussian elimination.

    Partial pivoting picks the largest column modulus below the diagonal,
    ties broken by the lowest row index; the result is the product of pivots
    times the permutation sign. A zero pivot short-circuits to 0.
    """
    a = _square(m, "determinant input").copy()
    rows = a.shape[0]
    sign = 1.0
    det = 1.0 + 0.0j
    for k in range(rows):
        p = k + int(np.argmax(np.abs(a[k:, k])))  # argmax takes the first max: lowest index wins ties
        if a[p, k] == 0:
            return 0j
        if p != k:
            a[[k, p]] = a[[p, k]]
            sign = -sign
        pivot = a[k, k]
        det *= pivot
        if k + 1 < rows:
            a[k + 1 :, k:] -= np.outer(a[k + 1 :, k] / pivot, a[k, k:])
    return complex(sign * det)
