"""The sequential conjugate filter.

One engine of two passes drives both branches. The state pass runs the
beta-independent recursions once per (delta, F, G): first the data-free
covariance pass, shared with the single-step API and the simulator,

    Omega_t = Delta^{1/2} G_t P_{t-1} G_t' Delta^{1/2},  R_t = G_t P_{t-1} G_t' + Omega_t
    Q_t = F_t' R_t F_t + 1,  A_t = R_t F_t / Q_t,  P_t = R_t - A_t F_t' R_t

then the mean pass a_t = G_t m_{t-1}, f_t = a_t' F_t, e_t = y_t - f_t,
m_t = a_t + A_t e_t', on the observed block. The volatility pass runs, for K
discount vectors at once,

    S_t = beta^{1/2} S_{t-1} beta^{1/2} + e_t e_t' / Q_t
    n_t = tr(beta)/p * n_{t-1} + 1

At beta = I, n grows by one per observation (the constant-volatility
branch); with beta < I and n = 1/(1 - tr(beta)/p) it is a fixed point of
the last line. :func:`run_models` groups models by their state-pass inputs
and runs one state pass per group. :func:`forecast_law` alone gives each
step's prior scale and forecast degrees of freedom. Also here: the
maximum-likelihood estimator of a constant volatility and closure under
full-row-rank linear maps of y_t.
"""

import itertools
import warnings
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .data import write_csv
from .distributions import InvWishartParams, MultiTParams
from .errors import (
    DimensionMismatch,
    EmptyData,
    FeatureUnavailable,
    MvdlmError,
    NonPositiveDefinite,
    RankDeficient,
    StateOverflow,
)
from .linalg import (cholesky_upper_stack, logdet_factor, solve_lower_stack, symmetrize,
                     vech_indices)
from .model import FilterState, ModelSpec, Priors, validate

FIXED_POINT_TOL = 1e-9
CLOSED_FORM_RTOL = 1e-8
BLOCK_ROWS = 64  # rows of one batched volatility_pass in run_models
BLOCK_BYTES = 1 << 20  # scales of one block of steps: K rows x steps x p^2 x 8 bytes


def step_blocks(n_steps, n_rows, p):
    """Slices of the steps 0..N-1 (one empty slice at N = 0), each of as many steps, at least
    one, as keep the scales of ``n_rows`` rows of p series within ``BLOCK_BYTES``: a stage
    that reads a pass's scales holds one block of them and its temporaries at a time."""
    size = max(1, BLOCK_BYTES // (n_rows * p * p * 8))
    return [slice(lo, min(lo + size, n_steps)) for lo in range(0, n_steps or 1, size)]


def scale_blocks(e, Q, betas, S0):
    """The scale path S_0..S_N of the K rows of ``betas`` (K, p) from ``S0`` (K, p, p), one
    block of :func:`step_blocks` at a time: yields each block's steps and its
    S_start..S_stop, a (K, len + 1, p, p) view of one buffer that the next block reuses.
    Every run gives the same bits, so a reader replays the path rather than keep it.

    The buffer is time-major, so that step t of every row is one contiguous (K, p, p)
    block. The rank-one terms e_t e_t' / Q_t of a block are built in place in row 0 of its
    steps, then copied to the other rows. Sums and products of exactly symmetric operands
    stay exactly symmetric, so each step is two in-place ufuncs without symmetrize: the
    step adds its prior, then forms the next prior."""
    law = forecast_law(betas)
    prior = law(S0, 0.0)[0]  # symmetrized, as a caller's S0 may not be
    blocks = step_blocks(len(Q), *betas.shape)
    buffer, start = np.empty((blocks[0].stop + 1, *S0.shape)), S0
    for steps in blocks:
        block = buffer[:steps.stop - steps.start + 1]
        block[0] = start  # S0, then the last scale of the block before
        outer = np.multiply(e[steps, :, None], e[steps, None, :], out=block[1:, 0])
        block[1:, 1:] = np.divide(outer, Q[steps, None, None], out=outer)[:, None]
        for scale in block[1:]:
            np.add(prior, scale, scale)
            np.multiply(scale, law.outer, prior)
        yield steps, np.swapaxes(block, 0, 1)
        start = block[-1]


@dataclass(frozen=True)
class Prediction:
    """One-step-ahead quantities computed before seeing y_t."""

    t: int
    R: np.ndarray
    a: np.ndarray  # prior state mean G_t m_{t-1}
    f: np.ndarray
    Q: float
    sigma_prior: InvWishartParams
    forecast: MultiTParams
    gain: np.ndarray  # R_t F_t / Q_t
    P: np.ndarray  # posterior state covariance P_t (data-free)


@dataclass(frozen=True)
class StepResult:
    """Per-step byproducts of a predict/update cycle.

    ``u`` is the standardized forecast error and is None when the forecast
    law has 2 or fewer degrees of freedom.
    """

    t: int
    f: np.ndarray
    Q: float
    R: np.ndarray
    e: np.ndarray
    r: np.ndarray
    u: np.ndarray | None
    sigma_prior: InvWishartParams
    sigma_post: InvWishartParams


@dataclass(frozen=True)
class StatePass:
    """Output of the state recursions over N steps (independent of beta)."""

    f: np.ndarray  # (N, p) forecast means
    e: np.ndarray  # (N, p) forecast errors
    Q: np.ndarray  # (N,) forecast spreads
    R: np.ndarray  # (N, d, d) prior state covariances
    m: np.ndarray  # (d, p) posterior state mean after step N
    P: np.ndarray  # (d, d) posterior state covariance after step N


@dataclass(frozen=True, eq=False)  # a pass of arrays equals only itself
class VolatilityPass:
    """Output of the volatility recursions for K discount vectors ``betas``
    over ``e`` and ``Q``: the ends S_0 and S_N of the scale path, the degrees
    of freedom and the scale terms, all from one run of :func:`scale_blocks`.
    The path itself is kept only when it is one block (``whole``); a reader
    of S_t otherwise replays it by :meth:`blocks`. ``u`` is computed on first
    read, for all K rows."""

    S0: np.ndarray  # (K, p, p) starting scales S_0
    final: np.ndarray  # (K, p, p) final scales S_N
    n: np.ndarray  # (K, N+1) degrees of freedom n_0..n_N
    e: np.ndarray  # (N, p) forecast errors
    Q: np.ndarray  # (N,) forecast spreads
    betas: np.ndarray  # (K, p) volatility discounts
    terms: tuple  # the scale_terms, filled up to a failed factor
    failure: str | None  # the message of a scale that did not factor, raised by scale_terms
    whole: np.ndarray | None  # (K, N+1, p, p) S_0..S_N when the pass is one block

    @property
    def scale_terms(self):
        """log|S_0|..log|S_N| (K, N+1) and q_t = e_t' A_t^{-1} e_t / Q_t (K, N) against the
        prior scale A_t = beta^{1/2} S_{t-1} beta^{1/2}, for all K rows, computed by
        :func:`volatility_pass`; a scale that did not factor raises here, where it is read."""
        if self.failure is not None:
            raise NonPositiveDefinite(self.failure)
        return self.terms

    def blocks(self):
        """The blocks of :func:`scale_blocks`: ``whole`` as its one block, else a replay
        from S_0. Each S_start..S_stop holds only until the next block is drawn."""
        if self.whole is not None:
            return iter([(slice(0, len(self.Q)), self.whole)])
        return scale_blocks(self.e, self.Q, self.betas, self.S0)

    def scales(self, rows=slice(None)):
        """S_0..S_N of ``rows`` (..., N+1, p, p), a new array filled block by block."""
        out = np.empty((*self.S0[rows].shape[:-2], len(self.Q) + 1, *self.S0.shape[-2:]))
        for steps, S in self.blocks():
            out[..., steps.start:steps.stop + 1, :, :] = S[rows]
        return out

    @cached_property
    def u(self):  # (K, N, p) standardized errors, NaN where dof <= 2
        law = forecast_law(self.betas[:, None])  # broadcast over the steps of a block
        u = np.empty((len(self.betas), *self.e.shape))
        for steps, S in self.blocks():
            scale = S[:, :-1] * law.outer  # the priors, exactly symmetric past a caller's S0
            if not steps.start:
                scale[:, :1] = symmetrize(scale[:, :1])  # S0: symmetrize runs on that row only
            u[:, steps] = _whiten(self.e[steps], self.Q[steps], scale, law.mean * self.n[:, steps])
        return u

    def posterior_means(self, k, scales, steps):
        """Posterior means of row k (or rows k) from its ``scales`` at ``steps``, NaN where
        undefined."""
        p = self.betas.shape[1]
        return _iw_means(scales, self.n[k, steps] + 2 * p, p)


def _iw_means(scales, dof, p):
    """Inverted-Wishart means scale / (dof - 2p - 2) of a stack of scales,
    NaN where the mean is undefined."""
    divisor = np.asarray(dof - 2 * p - 2, dtype=float)[..., None, None]
    means = np.full(scales.shape, np.nan)
    return np.divide(scales, divisor, out=means, where=divisor > 0)


@dataclass
class Trajectory:
    """Filter output over N steps: the arrays of the state pass ``states``
    and row ``row`` of the volatility pass ``volatility``: ``S``, replayed on
    each read, ``n`` and ``u``, which is computed on its first read, once for
    every row of the pass.

    The :class:`StepResult` that :func:`update` records at step t is row
    t - 1 of ``f``, ``e``, ``Q``, ``R``, ``residuals`` and ``u`` (a NaN row
    where it is None), row t of ``S`` and ``n`` (the posterior) and row
    t - 1 of :meth:`forecast_laws` (the prior).
    """

    states: StatePass
    volatility: VolatilityPass
    row: int
    spec: ModelSpec
    priors: Priors

    f = property(lambda self: self.states.f)  # (N, p) forecast means
    e = property(lambda self: self.states.e)  # (N, p) forecast errors
    Q = property(lambda self: self.states.Q)  # (N,) forecast spreads
    R = property(lambda self: self.states.R)  # (N, d, d) prior state covariances
    S = property(lambda self: self.volatility.scales(self.row))  # (N+1, p, p) S_0..S_N
    n = property(lambda self: self.volatility.n[self.row])  # (N+1,) n_0..n_N
    u = property(lambda self: self.volatility.u[self.row])  # (N, p), NaN where dof <= 2
    residuals = property(lambda self: self.e / self.Q[:, None])
    p = property(lambda self: self.spec.p)
    final = property(lambda self: FilterState(  # the posterior after step N
        t=len(self.Q), m=self.states.m, P=self.states.P, S=self.volatility.final[self.row],
        n=float(self.n[-1])))

    def __len__(self):
        return len(self.Q)

    def forecast_laws(self):
        """The N one-step forecast laws: scales (N, p, p) and dofs (N,), by :func:`forecast_law`."""
        return forecast_law(self.spec.vol_discounts)(self.S[:-1], self.n[:-1])

    forecast_dofs = property(lambda self: forecast_law(self.spec.vol_discounts).mean * self.n[:-1])
    posterior_means = property(  # Sigma_0..Sigma_N (N+1, p, p), NaN where undefined
        lambda self: self.volatility.posterior_means(self.row, self.S, slice(None)))

    @property
    def forecast_means(self):
        """One-step forecast means E[Sigma_t | D_{t-1}], t = 1..N (N, p, p), NaN where undefined."""
        scales, dofs = self.forecast_laws()
        return _iw_means(scales, dofs + 2 * self.p, self.p)


def _evolve(P, g, delta_outer):
    """Omega_t = Delta^{1/2} G P G' Delta^{1/2} and R_t = G P G' + Omega_t,
    with ``delta_outer`` = Delta^{1/2} 1 1' Delta^{1/2}: the discount
    construction, made here and nowhere else."""
    inner = g @ P @ g.T
    omega = symmetrize(inner * delta_outer)
    return omega, symmetrize(inner + omega)


def _observe(r_mat, f_vec):
    """Q_t = F' R_t F + 1, the gain R_t F / Q_t and P_t = R_t - gain F' R_t."""
    fr = f_vec @ r_mat
    q = float(fr @ f_vec) + 1.0
    gain = r_mat @ f_vec / q
    return q, gain, symmetrize(r_mat - gain[:, None] * fr)


def _state_blocks(F, G, P0):
    """Index arrays of the observed block O, then of each unobserved block.

    Components i and j share a block when G_ij or G_ji is non-zero at any
    step of the (N, d, d) stack G, or P0_ij is non-zero; O joins the blocks
    that meet the support of the (N, d) stack F at any step.
    """
    g = (G != 0.0).any(axis=0)
    linked = g | g.T | (P0 != 0.0) | np.eye(len(P0), dtype=bool)
    for _ in range(len(P0).bit_length()):  # transitive closure by squaring
        linked = linked @ linked
    observed = linked[(F != 0.0).any(axis=0)].any(axis=0)
    rest = sorted({tuple(np.flatnonzero(row)) for row in linked[~observed]})
    return [np.flatnonzero(observed), *(np.array(block) for block in rest)]


def _block_recursion(P, g, f, delta_outer, observed):
    """Omega_t, R_t (N, b, b), Q_t (N,), the gains (N, b) and the final P of
    one block from its P0 block ``P`` and stacks ``g`` of G_t and ``f`` of
    F_t, by :func:`_evolve` and :func:`_observe`. Off the observed block
    P_t = R_t, and Q_t and the gains are left unfilled."""
    n_steps, b = f.shape
    omega, r = np.empty((2, n_steps, b, b))
    q, gain = np.empty(n_steps), np.empty((n_steps, b))
    for i, g_t, f_t in zip(range(n_steps), g, f):
        omega[i], r[i] = _evolve(P, g_t, delta_outer)
        if observed:
            q[i], gain[i], P = _observe(r[i], f_t)
        else:
            P = r[i]
    return omega, r, q, gain, P


def _scalar_recursion(P, g, f, delta_outer, observed):
    """:func:`_block_recursion` for a block of one component in float
    arithmetic: the operations of :func:`_evolve` and :func:`_observe` on
    1 x 1 arrays, in their order. A 1 x 1 matrix product sums from +0.0,
    hence ``0.0 +``; ``(x + x) / 2.0`` is :func:`symmetrize`. Off the
    observed block, Q_t and the gains come back empty."""
    p_t, w = float(P[0, 0]), float(delta_outer[0, 0])
    omega, r, q, gain = [], [], [], []
    for g_t, f_t in zip(g[:, 0, 0].tolist(), f[:, 0].tolist()):
        inner = 0.0 + g_t * p_t * g_t
        o_t = inner * w
        o_t = (o_t + o_t) / 2.0
        r_t = inner + o_t
        r_t = (r_t + r_t) / 2.0
        omega.append(o_t)
        r.append(r_t)
        if observed:
            fr = 0.0 + f_t * r_t  # F'R, and R F since r_t f_t == f_t r_t
            q_t = fr * f_t + 1.0
            k_t = fr / q_t
            p_t = r_t - k_t * fr
            p_t = (p_t + p_t) / 2.0
            q.append(q_t)
            gain.append(k_t)
        else:
            p_t = r_t
    shape = (len(omega), 1, 1)
    return (np.reshape(omega, shape), np.reshape(r, shape), np.array(q, dtype=float),
            np.array(gain, dtype=float)[:, None], np.array([[p_t]]))


@dataclass(frozen=True)
class CovariancePass:
    """The data-free state recursions over N steps."""

    omega: np.ndarray  # (N, d, d) evolution covariances Omega_t
    R: np.ndarray  # (N, d, d) prior state covariances
    Q: np.ndarray  # (N,) forecast spreads
    gain: np.ndarray  # (N, d) gains R_t F_t / Q_t
    P: np.ndarray  # (d, d) posterior state covariance after step N
    F: np.ndarray  # (N, d) designs F_t, a broadcast view when constant
    G: np.ndarray  # (N, d, d) evolutions G_t, likewise
    blocks: list  # index arrays of the state blocks, the observed block first


def covariance_pass(spec, P0, n_steps, start=1):
    """Run the data-free recursions for steps start..start+N-1 from P0.

    The recursion runs block by block (see :func:`_state_blocks`): a block
    of one component in float arithmetic (:func:`_scalar_recursion`), any
    other through the matrix kernel (:func:`_block_recursion`), with the same
    results. Every block but the observed block O has zero gain, and its R
    and P follow the prior-only recursion P_t = R_t = G P_{t-1} G' + Omega_t.
    They may overflow without reaching O; an entry of Omega, R or P past the
    float range reads inf, never NaN. A non-finite R_t or Q_t on O raises
    :class:`StateOverflow`. A time-varying F_t or G_t is resolved here, once
    per step.
    """
    d, varying = spec.d, not spec.time_invariant
    if varying:
        F, G = np.empty((n_steps, d)), np.empty((n_steps, d, d))
        for i in range(n_steps):
            G[i], F[i] = spec.evolution_at(start + i), spec.design_at(start + i)
    else:
        F, G = (np.broadcast_to(x, (n_steps, *x.shape)) for x in (spec.design, spec.evolution))
    root = np.sqrt((1.0 - spec.state_discounts) / spec.state_discounts)
    omega, r = np.zeros((2, n_steps, d, d))
    q, gain, P = np.ones(n_steps), np.zeros((n_steps, d)), np.zeros((d, d))
    blocks = _state_blocks(F, G, P0)
    for k, idx in enumerate(blocks):
        sub, cols = np.ix_(idx, idx), idx[:, None]
        kernel = _scalar_recursion if len(idx) == 1 else _block_recursion
        with np.errstate(over="ignore", invalid="ignore"):
            omega_b, r_b, q_b, gain_b, P_b = kernel(
                P0[sub], G[:, cols, idx], F[:, idx], np.outer(root[idx], root[idx]), not k
            )
        if k:  # overflowed entries read inf, not the NaN of inf - inf
            for block in (omega_b, r_b, P_b):
                block[np.isnan(block)] = np.inf
        else:
            _check_finite(r_b, idx, start, q_b)
            q, gain[:, idx] = q_b, gain_b
        omega[:, cols, idx], r[:, cols, idx], P[sub] = omega_b, r_b, P_b
    return CovariancePass(omega=omega, R=r, Q=q, gain=gain, P=P, F=F, G=G, blocks=blocks)


def _check_finite(stack, idx, start, q=1.0):
    """Raise :class:`StateOverflow` at the first step whose matrix in
    ``stack`` (components ``idx`` of the state) or spread ``q`` is not finite."""
    rows = ~np.isfinite(stack).all(axis=2)
    bad = rows.any(axis=1) | ~np.isfinite(q)
    if bad.any():
        i = int(np.argmax(bad))
        where = f"state component {idx[np.argmax(rows[i])] + 1}" if rows[i].any() else "Q_t"
        raise StateOverflow(
            f"state covariance overflowed at step {start + i} in {where}: the state "
            "discounts inflate it past the float range"
        )


@dataclass(frozen=True)
class ForecastLaw:
    """The one-step forecast law: called on the posterior (S, n), it gives
    the prior scale beta^{1/2} S beta^{1/2} (symmetrized) and the degrees of
    freedom k = tr(beta)/p n. On stacks, the leading axes of beta (..., p)
    and of n broadcast against those of S (..., p, p)."""

    outer: np.ndarray  # beta^{1/2} beta^{1/2}', (..., p, p)
    mean: np.ndarray  # tr(beta)/p, (...)

    def __call__(self, S, n):
        return symmetrize(S * self.outer), self.mean * n


def forecast_law(beta):
    """The :class:`ForecastLaw` under the discounts ``beta``, the one place
    it is made."""
    root = np.sqrt(beta)
    return ForecastLaw(root[..., :, None] * root[..., None, :], np.mean(beta, axis=-1))


def _whiten(e, q, scale, dof):
    """Standardized errors {(dof - 2) Q^{-1} scale^{-1}}^{1/2} e by the
    symmetric root, over a (..., p, p) stack of scales; rows with dof <= 2
    come back NaN.

    With scale = V diag(lam) V', u = V (V'e / sqrt(lam)), never forming the
    root.
    """
    factor = np.sqrt(np.where(dof > 2.0, dof - 2.0, np.nan) / q)[..., None]
    lam, vecs = np.linalg.eigh(scale)
    if np.any(lam <= 0.0):
        raise NonPositiveDefinite("volatility scale has a non-positive eigenvalue")
    coef = (np.swapaxes(vecs, -1, -2) @ e[..., None])[..., 0] / np.sqrt(lam)
    return (vecs @ coef[..., None])[..., 0] * factor


def _as_observation_matrix(observations, p):
    obs = np.asarray(observations, dtype=float)
    if obs.size == 0:
        return np.empty((0, p))
    if obs.ndim == 1:
        if p != 1:
            raise DimensionMismatch("1-d observations only valid when p = 1")
        obs = obs.reshape(-1, 1)
    if obs.ndim != 2 or obs.shape[1] != p:
        raise DimensionMismatch(
            f"observations have shape {obs.shape}, expected (N, {p})"
        )
    return obs


def _mean_recursion(m, g, f, gain, y, observed):
    """The forecasts f_t (N, p) and final mean of one block from its m0 rows
    ``m``, stacks ``g`` of G_t and ``f`` of F_t and its gains (N, b):
    a_t = G_t m_{t-1}, f_t = a_t' F_t, m_t = a_t + gain_t e_t'. Off the
    observed block m_t = a_t, and the forecasts come back None."""
    n_steps = len(g)
    forecasts = np.empty((n_steps, m.shape[1])) if observed else None
    gains = gain[:, :, None]
    for i, g_t, f_t in zip(range(n_steps), g, f):
        a = g_t @ m
        if observed:
            forecasts[i] = a.T @ f_t
            m = a + gains[i] * (y[i] - forecasts[i])
        else:
            m = a
    return forecasts, m


def _scalar_mean_recursion(m, g, f, gain, y, observed):
    """:func:`_mean_recursion` for a block of one component in float
    arithmetic, series by series: the operations of its loop on 1 x 1
    arrays, in their order, a 1 x 1 product summing from +0.0 as in
    :func:`_scalar_recursion`."""
    g = g[:, 0, 0].tolist()
    final = []
    if not observed:
        for m_j in m[0].tolist():
            for g_t in g:
                m_j = 0.0 + g_t * m_j
            final.append(m_j)
        return None, np.array([final])
    steps = list(zip(g, f[:, 0].tolist(), gain[:, 0].tolist()))
    forecasts = np.empty((len(g), m.shape[1]))
    for j, (m_j, y_j) in enumerate(zip(m[0].tolist(), y.T.tolist())):
        column = []
        for (g_t, f_t, k_t), y_t in zip(steps, y_j):
            a_t = 0.0 + g_t * m_j
            f_j = 0.0 + a_t * f_t
            m_j = a_t + k_t * (y_t - f_j)
            column.append(f_j)
        forecasts[:, j] = column
        final.append(m_j)
    return forecasts, np.array([final])


def _mean_pass(cov, m, y=None):
    """The mean pass over the steps of the covariance pass ``cov`` from the
    (d, p) mean ``m``: the forecasts f (N, p) and the final mean, or, with
    ``y`` None, the prior mean a_t = G_t m_{t-1} of a one-step ``cov``.

    It runs block by block, like the covariance pass, reading the F_t, G_t
    and state blocks it resolved: a block of one component in float
    arithmetic (:func:`_scalar_mean_recursion`), any other through
    :func:`_mean_recursion`. Only the observed block meets the data; every
    other block evolves its means without it, and an entry past the float
    range reads inf, never NaN.
    """
    out, f = np.empty(m.shape), None
    for k, idx in enumerate(cov.blocks):
        kernel = _scalar_mean_recursion if len(idx) == 1 else _mean_recursion
        args = m[idx], cov.G[:, idx[:, None], idx], cov.F[:, idx], cov.gain[:, idx], y
        if k:
            with np.errstate(over="ignore", invalid="ignore"):
                m_b = kernel(*args, False)[1]
            m_b[np.isnan(m_b)] = np.inf
        else:
            f, m_b = kernel(*args, y is not None)
        out[idx] = m_b
    return out if y is None else (f, out)


def state_pass(spec, priors, observations):
    """Run the beta-independent state recursions over every observation:
    the covariance pass, then the mean pass (:func:`_mean_pass`) on the
    data. Returns a :class:`StatePass`.
    """
    y = _as_observation_matrix(observations, spec.p)
    missing = ~np.isfinite(y).all(axis=1)
    if missing.any():
        raise DimensionMismatch(
            f"observation at step {int(np.argmax(missing)) + 1} has missing or "
            "non-finite components"
        )
    cov = covariance_pass(spec, priors.P0, y.shape[0])
    f, m = _mean_pass(cov, priors.m0, y)
    return StatePass(f=f, e=y - f, Q=cov.Q, R=cov.R, m=m, P=cov.P)


def volatility_pass(e, Q, betas, S0, n):
    """Run the volatility recursions for K discount vectors at once.

    ``betas`` is (K, p), ``S0`` the starting scale ((p, p) or (K, p, p)) and
    ``n`` the starting degrees of freedom (scalar or (K,)). Rows with every
    beta_i = 1 grow n by one per step. For the others n must be the fixed
    point 1/(1 - tr(beta)/p), which is asserted, and the closed-form
    expression for S_N is checked against the recursion to relative 1e-8.

    The scale path runs once, block by block (:func:`scale_blocks`). While a
    block is held, its scale terms are computed: one batched Cholesky
    S_t = C_t'C_t of S_start..S_stop and a forward substitution
    C_{t-1}'w = beta^{-1/2} e_t per step; no factor is kept, and a block after
    the first factors one scale more. Returns a :class:`VolatilityPass`, which
    whitens only when its ``u`` is first read.
    """
    betas = np.atleast_2d(np.asarray(betas, dtype=float))
    n_cells, p = betas.shape
    n_steps = len(Q)
    constant = np.all(betas == 1.0, axis=1)
    n0 = np.broadcast_to(np.asarray(n, dtype=float), (n_cells,))
    S0 = np.array(np.broadcast_to(S0, (n_cells, p, p)), dtype=float)  # kept for the replays
    n1 = forecast_law(betas).mean * n0 + 1.0
    off = ~constant & (np.abs(n1 - n0) > FIXED_POINT_TOL * np.maximum(1.0, np.abs(n0)))
    if off.any():
        k = int(np.argmax(off))
        raise MvdlmError(
            f"degrees-of-freedom fixed point violated at step 1: {n1[k]} != {n0[k]}"
        )
    growth = np.broadcast_to(constant[:, None], (n_cells, n_steps))
    n_path = np.cumsum(np.hstack([n0[:, None], growth]), axis=1)
    logdet, q = np.empty((n_cells, n_steps + 1)), np.empty((n_cells, n_steps))
    root, failure = np.sqrt(betas)[:, None], None
    for steps, S in scale_blocks(e, Q, betas, S0):
        if failure is not None:
            continue
        try:
            upper = cholesky_upper_stack(S)
        except NonPositiveDefinite as exc:  # raised where the terms are read: var reads none
            failure = str(exc)
            continue
        logdet[:, steps.start:steps.stop + 1] = logdet_factor(upper)
        w = solve_lower_stack(np.swapaxes(upper[:, :-1], -1, -2), e[steps] / root)
        q[:, steps] = np.sum(w ** 2, axis=-1) / Q[steps]
    final = S[:, -1].copy()
    if n_steps and not constant.all():
        closed = _closed_form_scales(e, Q, np.sqrt(betas[~constant]), S0[~constant])
        rel = np.max(np.abs(closed - final[~constant]), axis=(1, 2)) / np.maximum(
            np.max(np.abs(final[~constant]), axis=(1, 2)), 1e-300
        )
        if np.any(rel > CLOSED_FORM_RTOL):
            raise MvdlmError(
                f"closed-form scale accumulation deviates from the recursion "
                f"(relative error {float(np.max(rel)):.3e})"
            )
    return VolatilityPass(S0=S0, final=final, n=n_path, e=e, Q=Q, betas=betas,
                          terms=(logdet, q), failure=failure, whole=None if steps.start else S)


def _closed_form_scales(e, q, roots, S0):
    """Direct evaluation of the accumulated-scale identity at the horizon.

    S_T = beta^{T/2} S_0 beta^{T/2} + sum_i beta^{i/2} r_{T-i} e_{T-i}' beta^{i/2}
    computed without using the recursion, for each row of ``roots`` (K, p).
    """
    big_t = len(q)
    decay = roots**big_t
    total = S0 * (decay[:, :, None] * decay[:, None, :])
    ages = big_t - np.arange(1, big_t + 1)  # beta exponent i for step t
    weights = roots[:, None, :] ** ages[None, :, None]
    r_scaled = (e / q[:, None]) * weights
    total = total + np.swapaxes(r_scaled, 1, 2) @ (e * weights)
    return symmetrize(total)


def forecast_mean(m, f_vec):
    """m' F over the support of F only: a state component that F does not
    load never enters, even where its mean reads inf."""
    idx = np.flatnonzero(f_vec)
    return m[idx].T @ f_vec[idx]


def predict(state, spec, t):
    """One-step prediction from the posterior at t-1.

    Returns the prior state covariance R_t and mean a_t = G_t m_{t-1}, the
    forecast mean (by :func:`forecast_mean`) and spread, the
    inverted-Wishart prior of the step volatility (its ``mean``, where
    defined, is the forecast mean of the volatility), the multivariate-t
    forecast law of y_t, and the data-free gain and P_t. :func:`update`
    applies a_t, the gain and P_t, so G_t is resolved once. a_t comes from
    the mean pass of :func:`state_pass` (:func:`_mean_pass`) over one step
    without data.
    """
    cov = covariance_pass(spec, state.P, 1, start=t)
    a = _mean_pass(cov, state.m)
    f = forecast_mean(a, cov.F[0])
    q = float(cov.Q[0])
    scale_prior, k = forecast_law(spec.vol_discounts)(state.S, state.n)
    sigma_prior = InvWishartParams(dof=k + 2 * spec.p, scale=scale_prior)
    forecast = MultiTParams(dof=k, location=f, scale_row=q, scale_col=scale_prior)
    return Prediction(t, cov.R[0], a, f, q, sigma_prior, forecast, cov.gain[0], cov.P)


def update(state, y_t, spec, t, prediction=None):
    """Absorb the observation y_t, returning the new state and step record.
    S_t, n_t and u_t come from a one-step :func:`volatility_pass`, which
    asserts the degrees-of-freedom fixed point as in :func:`run`."""
    y_t = np.asarray(y_t, dtype=float)
    if y_t.shape != (spec.p,):
        raise DimensionMismatch(
            f"observation at step {t} has shape {y_t.shape}, expected {(spec.p,)}"
        )
    if not np.all(np.isfinite(y_t)):
        raise DimensionMismatch(
            f"observation at step {t} has missing or non-finite components"
        )
    if prediction is None or prediction.t != t:
        prediction = predict(state, spec, t)
    q, e = prediction.Q, y_t - prediction.f
    m_new = prediction.a + np.outer(prediction.gain, e)
    vol = volatility_pass(e[None], np.array([q]), spec.vol_discounts, state.S, state.n)
    s_new, n_new, u = vol.final[0], float(vol.n[0, 1]), vol.u[0, 0]
    sigma_post = InvWishartParams(dof=n_new + 2 * spec.p, scale=s_new)
    step = StepResult(
        t, prediction.f, q, prediction.R, e, e / q, None if np.isnan(u[0]) else u,
        prediction.sigma_prior, sigma_post,
    )
    return FilterState(t=t, m=m_new, P=prediction.P, S=s_new, n=n_new), step


def _state_inputs(spec, priors, y):
    """What the state pass of a model reads: its data, F, G, delta, m0 and
    P0, by value where they are arrays and by identity where a provider is
    a callable."""
    return tuple(
        (x.shape, x.tobytes()) if isinstance(x, np.ndarray) else id(x)
        for x in (y, spec.design, spec.evolution, spec.state_discounts, priors.m0, priors.P0)
    )


def run_models(models):
    """Filter each (spec, priors, observations) of ``models``; returns their
    trajectories in order.

    Each model is validated once. Models whose state-pass inputs are equal
    (see :func:`_state_inputs`) share one :func:`state_pass`, and their
    volatility recursions run in batched :func:`volatility_pass` calls of up
    to ``BLOCK_ROWS`` rows, each row from its own beta, S0 and validated
    degrees of freedom (the prior n0 when every beta_i = 1, else the asserted
    fixed point). Each trajectory equals the one its model gives alone, and the
    ``u`` of a batch is whitened once, on the first read of any row.
    """
    groups = {}
    for i, (spec, priors, observations) in enumerate(models):
        n = validate(spec, priors)
        y = _as_observation_matrix(observations, spec.p)
        groups.setdefault(_state_inputs(spec, priors, y), []).append((i, spec, priors, y, n))
    trajectories = [None] * len(models)
    for members in groups.values():
        _, spec, priors, y, _ = members[0]
        states = state_pass(spec, priors, y)
        for lo in range(0, len(members), BLOCK_ROWS):
            index, specs, priors, _, dofs = zip(*members[lo:lo + BLOCK_ROWS])
            vol = volatility_pass(states.e, states.Q, [spec.vol_discounts for spec in specs],
                                  np.array([prior.S0 for prior in priors]), dofs)
            for k, i in enumerate(index):
                trajectories[i] = Trajectory(states, vol, k, specs[k], priors[k])
    return trajectories


def run(spec, priors, observations):
    """Filter a full observation sequence: :func:`run_models` of one model."""
    return run_models([(spec, priors, observations)])[0]


def posterior_path(e, Q, spec, priors):
    """The one-row volatility pass of the model (spec, priors) re-derived from
    its forecast errors e and spreads Q: the ``volatility`` of its :func:`run`
    trajectory."""
    dof = validate(spec, priors)  # as run_models starts each volatility pass
    return volatility_pass(e, Q, spec.vol_discounts, priors.S0, dof)


def mle_constant(observations, spec, priors):
    """Closed-form maximum-likelihood estimate of a constant volatility.

    Averages the per-step cross products r_t e_t' of the residual and
    forecast errors produced by the constant-volatility recursions. The
    result is symmetrized; each term already is symmetric because
    r_t is proportional to e_t. Requires every volatility discount to be 1.
    """
    if not spec.constant_volatility:
        raise MvdlmError("mle_constant requires every volatility discount to be 1")
    obs = _as_observation_matrix(observations, spec.p)
    if obs.shape[0] == 0:
        raise EmptyData("maximum-likelihood estimation needs observations")
    trajectory = run(spec, priors, obs)
    return symmetrize(trajectory.residuals.T @ trajectory.e / obs.shape[0])


@dataclass(frozen=True)
class LinearTransformResult:
    """Outcome of filtering a linearly transformed observation series."""

    trajectory: Trajectory
    base_trajectory: Trajectory
    transform: np.ndarray
    marginal_dof: float
    max_closure_error: float


def linear_transform(spec, priors, observations, a_matrix):
    """Filter y*_t = A y_t and verify closure of the scale recursion.

    A must be q x p with full row rank. With a scalar discount matrix
    (beta = b I_p) the transformed run satisfies S*_t = A S_t A' exactly;
    that identity is asserted to 1e-10. For non-scalar beta the transform
    is only supported when A selects coordinates, the per-coordinate
    discounts carry over, and a warning notes that exact closure of the
    general transform is not established.

    ``marginal_dof`` is n_N + 2q, of the transformed posterior IW_q(n_N + 2q,
    S*_N): a linear map keeps the dimension-free dof n_N, so A Sigma_N A' is its mean.
    """
    a_matrix = np.atleast_2d(np.asarray(a_matrix, dtype=float))
    q_dim, p = a_matrix.shape
    if p != spec.p:
        raise DimensionMismatch(f"transform has {p} columns, expected {spec.p}")
    if q_dim > p or np.linalg.matrix_rank(a_matrix) < q_dim:
        raise RankDeficient("transform must have full row rank q <= p")
    beta = spec.vol_discounts
    if np.all(beta == beta[0]):
        beta_star = np.full(q_dim, beta[0])
    else:
        selection = _selection_rows(a_matrix)
        if selection is None:
            raise FeatureUnavailable(
                "exact closure under a general transform requires a scalar "
                "discount matrix; non-scalar discounts only support "
                "coordinate-selection transforms"
            )
        beta_star = beta[selection]
        warnings.warn(
            "non-scalar volatility discounts: closure is asserted for the "
            "selected coordinates only",
            stacklevel=2,
        )
    obs = _as_observation_matrix(observations, spec.p)
    base = run(spec, priors, obs)
    spec_star = replace(spec, p=q_dim, vol_discounts=beta_star)
    priors_star = Priors(
        priors.m0 @ a_matrix.T, priors.P0, a_matrix @ priors.S0 @ a_matrix.T, priors.n0
    )
    transformed = run(spec_star, priors_star, obs @ a_matrix.T)
    expected = a_matrix @ base.S[1:] @ a_matrix.T
    err = np.max(np.abs(transformed.S[1:] - expected), axis=(1, 2), initial=0.0)
    scale = np.maximum(np.max(np.abs(expected), axis=(1, 2), initial=0.0), 1.0)
    max_err = float(np.max(err / scale, initial=0.0))
    if max_err > 1e-10:
        raise MvdlmError(f"scale closure violated: max relative deviation {max_err:.3e}")
    marginal_dof = float(transformed.n[-1]) + 2 * q_dim
    return LinearTransformResult(transformed, base, a_matrix, marginal_dof, max_err)


def _selection_rows(a_matrix):
    """Indices selected by a 0/1 coordinate-selection matrix, else None."""
    rows = np.argmax(a_matrix != 0.0, axis=1)
    unit_rows = np.array_equal(a_matrix, np.eye(a_matrix.shape[1])[rows])
    return rows if unit_rows and len(set(rows.tolist())) == len(rows) else None


def trajectory_to_csv(trajectory, path):
    """Write the per-step record to CSV with a fixed, documented column order.

    Columns: t, f_1..f_p, e_1..e_p, u_1..u_p, Q and the lower triangle of
    the posterior-mean volatility (column-stacked, named sigma_post_i_j).
    Moments that are undefined under the model's discounts are written as
    NaN rather than being invented. The forecast means are not written:
    E[Sigma_t | D_{t-1}] is (beta^{1/2} 1 1' beta^{1/2}) o Sigma_post,t-1
    times (n_{t-1} - 2) / (k_t - 2), with k_t = mean(beta) n_{t-1}.
    """
    p, vol, row = trajectory.p, trajectory.volatility, trajectory.row
    pairs = vech_indices(p)
    header = ["t", *(f"{name}_{i + 1}" for name in "feu" for i in range(p)), "Q",
              *(f"sigma_post_{i + 1}_{j + 1}" for i, j in pairs)]
    rows, cols = (np.array(idx) for idx in zip(*pairs))
    f, e, u, q = trajectory.f, trajectory.e, trajectory.u, trajectory.Q
    blocks = (np.column_stack([f[steps], e[steps], u[steps], q[steps], vol.posterior_means(
        row, S[row, 1:], slice(steps.start + 1, steps.stop + 1))[:, rows, cols]])
              for steps, S in vol.blocks())
    write_csv(path, [header], range(1, len(trajectory) + 1), itertools.chain.from_iterable(blocks))
