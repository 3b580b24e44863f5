"""Small dense-matrix helpers shared by the filter, densities and samplers.

All covariance-like matrices in this package are small (p, d well below ~50),
so everything here is plain dense numpy with explicit symmetrization.
"""

import numpy as np
import scipy.linalg

from .errors import NonPositiveDefinite

# Relative jitter added once before declaring a matrix non-PD.
JITTER_SCALE = 1e-10


def symmetrize(m):
    """Return (M + M') / 2 over the last two axes, removing floating-point
    asymmetry drift."""
    m = np.asarray(m, dtype=float)
    return (m + m.swapaxes(-1, -2)) / 2.0


def cholesky_upper(m):
    """Upper-triangular C with M = C'C and strictly positive diagonal.

    On failure one jitter retry is made, adding ``JITTER_SCALE * tr(M)/dim``
    to the diagonal; if that also fails a :class:`NonPositiveDefinite` is
    raised.
    """
    m = symmetrize(m)
    try:
        return scipy.linalg.cholesky(m, lower=False)
    except scipy.linalg.LinAlgError:
        pass
    dim = m.shape[0]
    jitter = JITTER_SCALE * np.trace(m) / dim
    try:
        return scipy.linalg.cholesky(m + jitter * np.eye(dim), lower=False)
    except scipy.linalg.LinAlgError as exc:
        raise NonPositiveDefinite(
            f"matrix of shape {m.shape} is not positive definite"
        ) from exc


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
    c = cholesky_upper(m)
    identity = np.eye(m.shape[0])
    inv = scipy.linalg.cho_solve((c, False), identity)
    return symmetrize(inv)


def logdet_spd(m):
    """log|M| for SPD M via Cholesky (no sign ambiguity)."""
    c = cholesky_upper(m)
    return 2.0 * np.sum(np.log(np.diag(c)))


def vech_indices(p):
    """(i, j) index pairs of the column-stacked lower triangle of a p x p
    matrix: (1,1), (2,1), ..., (p,1), (2,2), (3,2), ..., (p,p), zero-based."""
    rows, cols = np.triu_indices(p)
    return list(zip(cols.tolist(), rows.tolist()))
