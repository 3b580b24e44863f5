"""Long-double oracles shared by the tests: a Cholesky factor and a forward
substitution evaluated in ``np.longdouble``, and the quadratic forms of the
volatility recursion built from them. Where long double is no wider than
double, the tests that use them are skipped (``needs_long_double``)."""

import numpy as np
import pytest

needs_long_double = pytest.mark.skipif(np.finfo(np.longdouble).eps >= 1e-17,
                                       reason="no long double wider than double")


def cholesky_lower_ld(m):
    low = np.zeros_like(m)
    for j in range(len(m)):
        low[j, j] = np.sqrt(m[j, j] - low[j, :j] @ low[j, :j])
        low[j + 1:, j] = (m[j + 1:, j] - low[j + 1:, :j] @ low[j, :j]) / low[j, j]
    return low


def solve_lower_ld(low, b):
    x = np.zeros_like(b)
    for i in range(len(low)):
        x[i] = (b[i] - low[i, :i] @ x[:i]) / low[i, i]
    return x


def quadratic_forms_ld(e, q, beta, S0):
    """q_t = e_t' A_t^{-1} e_t / Q_t (N,) in long double, with A_t = beta^{1/2} S_{t-1}
    beta^{1/2} and S_t = A_t + e_t e_t' / Q_t run from S0 in long double on the
    float e (N, p) and Q (N,)."""
    ld = np.longdouble
    root = np.sqrt(np.asarray(beta, dtype=ld))
    outer = root[:, None] * root[None, :]
    s, out = np.asarray(S0, dtype=ld), np.empty(len(q), dtype=ld)
    for i, (e_t, q_t) in enumerate(zip(np.asarray(e, dtype=ld), np.asarray(q, dtype=ld))):
        a = s * outer
        w = solve_lower_ld(cholesky_lower_ld(a), e_t)
        out[i] = (w @ w) / q_t
        s = a + np.outer(e_t, e_t) / q_t
    return out
