"""Small dense-matrix helpers shared by the filter, densities and samplers.

All covariance-like matrices in this package are small (p, d well below ~50),
so everything here is plain dense numpy with explicit symmetrization.
"""

import numpy as np
from scipy.linalg.lapack import dpotrf, dpotrs, dtrtrs

from .errors import NonPositiveDefinite

# Relative jitter added once before declaring a matrix non-PD.
JITTER_SCALE = 1e-10


def symmetrize(m):
    """Return (M + M') / 2 over the last two axes, removing floating-point
    asymmetry drift."""
    m = np.asarray(m, dtype=float)
    return (m + m.swapaxes(-1, -2)) / 2.0


def cholesky_upper(m):
    """Upper-triangular C with M = C'C and strictly positive diagonal, for
    the symmetrized M (see :func:`factor_symmetric`)."""
    return factor_symmetric(symmetrize(m))


def factor_symmetric(m):
    """Upper Cholesky factor of an exactly symmetric M by LAPACK ``potrf``. A
    failure gets one retry with ``JITTER_SCALE * tr(M)/dim`` added to the diagonal;
    a second failure, or a non-finite M, raises :class:`NonPositiveDefinite`."""
    if not np.isfinite(m).all():
        raise NonPositiveDefinite(f"matrix of shape {m.shape} is not finite")
    c, info = dpotrf(m, lower=0, clean=1)
    if info == 0:
        return c
    dim = m.shape[0]
    jitter = JITTER_SCALE * np.trace(m) / dim
    c, info = dpotrf(m + jitter * np.eye(dim), lower=0, clean=1)
    if info == 0:
        return c
    raise NonPositiveDefinite(f"matrix of shape {m.shape} is not positive definite")


def solve_upper_t(c, b):
    """X with C'X = B for an upper-triangular C such as a Cholesky factor (``trtrs``)."""
    return dtrtrs(c, b, lower=0, trans=1)[0]


def inv_factor(c):
    """(C'C)^{-1} from the upper factor C (LAPACK ``potrs``), symmetrized."""
    return symmetrize(dpotrs(c, np.eye(c.shape[0]), lower=0)[0])


def cholesky_upper_stack(m):
    """Upper factors of a (..., p, p) stack of SPD matrices.

    One batched factorization; when it fails, each matrix is factored by
    :func:`cholesky_upper`, with its jitter retry and error.
    """
    m = np.asarray(m, dtype=float)
    try:
        return np.swapaxes(np.linalg.cholesky(m), -1, -2)
    except np.linalg.LinAlgError:
        flat = m.reshape((-1,) + m.shape[-2:])
        return np.stack([cholesky_upper(x) for x in flat]).reshape(m.shape)


def inv_spd(m):
    """Inverse of an SPD matrix via its Cholesky factor, symmetrized."""
    return inv_factor(cholesky_upper(m))


def logdet_spd(m):
    """log|M| for SPD M via Cholesky (no sign ambiguity)."""
    c = cholesky_upper(m)
    return 2.0 * np.sum(np.log(np.diag(c)))


def vech_indices(p):
    """(i, j) index pairs of the column-stacked lower triangle of a p x p
    matrix: (1,1), (2,1), ..., (p,1), (2,2), (3,2), ..., (p,p), zero-based."""
    rows, cols = np.triu_indices(p)
    return list(zip(cols.tolist(), rows.tolist()))
