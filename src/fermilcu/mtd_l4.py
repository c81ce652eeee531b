"""Rank-1 quartic factorizations of the two-body tensor and the LCU whose
fragments are products of four rotated Majoranas.

The three schemes, a branching SVD chain (l4-svd), a tensor train (l4-mps)
and alternating least squares over rank-1 quadruples (l4-cp4), all write
t = g/4 in one form,

    t = sum_m omega_m v1_m x v2_m x v3_m x v4_m,

and return it as one record, QuarticFactors: the weights omega, four N x W
stacks of direction vectors in entry order, the method label, the scheme's
own metadata and the residual of the fit. l4_lcu reads the arrays directly:
each weight above WEIGHT_TOL is stored once, as one row of a two-reflection
lcu.ReflectionBlock under the pattern of the four spin pairs (see the lcu
module docstring), and fermionic_lcu.reflection_lcu assembles the LCU, so
lambda is the one-body stream's 2 sum|mu| plus that block's one_norm,
4 sum|omega|.

l4-cp4 searches for the smallest rank that meets the tolerance, doubling
and then bisecting, and warm-starts each trial rank from the factors of an
earlier one (cp4_als). Each ALS sweep solves its symmetric positive-definite
normal equations by Cholesky, falling back to LU (_als_sweep).
"""

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import khatri_rao
from scipy.linalg.lapack import dposv

from .fermionic_lcu import SPIN_PAIRS, reflection_lcu
from .lcu import LcuDecomposition, ReflectionBlock

WEIGHT_TOL = 1e-12
ALS_MAX_SWEEPS = 300
ALS_RIDGE = 1e-12


@dataclass
class QuarticFactors:
    """t = g/4 as sum_m weights[m] v1[:, m] x v2[:, m] x v3[:, m] x v4[:, m].

    vectors holds the four N x W stacks; their columns are unit wherever the
    weight exceeds WEIGHT_TOL. metadata carries what the scheme reports
    (bond_dims for l4-mps; rank, converged, sweeps and trial_ranks for
    l4-cp4). loss is the squared Frobenius residual at the g scale,
    loss_abs the sum of |residual entries|, an operator-level bound.
    """
    method: str
    weights: np.ndarray
    vectors: tuple
    metadata: dict = field(default_factory=dict)
    loss: float = 0.0
    loss_abs: float = 0.0

    @property
    def rank(self) -> int:
        return self.weights.size

    def reconstruct(self) -> np.ndarray:
        """4 t, the g-scale tensor, as one product of Khatri-Rao matrices."""
        v1, v2, v3, v4 = self.vectors
        n = v1.shape[0]
        t = (khatri_rao(v1, v2) * self.weights) @ khatri_rao(v3, v4).T
        return 4.0 * t.reshape(n, n, n, n)


def _record(method, weights, vectors, g, **metadata) -> QuarticFactors:
    """The record with its g-scale squared residual and sum of |residual|."""
    factors = QuarticFactors(method, weights, tuple(vectors), metadata)
    delta = factors.reconstruct() - g
    factors.loss = float((delta * delta).sum())
    factors.loss_abs = float(np.abs(delta).sum())
    return factors


def _check_symmetric(g: np.ndarray):
    for perm in ((1, 0, 2, 3), (0, 1, 3, 2), (2, 3, 0, 1)):
        if np.abs(g - g.transpose(perm)).max() > 1e-10:
            raise ValueError("two-body tensor lacks 8-fold symmetry")


def _keep_count(s: np.ndarray, budget_sq: float, weight: float = 1.0) -> int:
    """Largest tail of singular values whose weighted squared mass fits."""
    if s.size == 0:
        return 0
    tail = np.cumsum((s * s)[::-1])[::-1] * weight
    keep = s.size
    while keep > 0 and tail[keep - 1] <= budget_sq:
        keep -= 1
    return keep


def _first_cut(g: np.ndarray, tol: float):
    """Truncated i | jkl SVD of t = g/4 that both SVD schemes start from:
    (u1, s1, v1t, budget, spent), with the squared-loss budget tol/16 at
    the t scale and the part of it this cut spent."""
    _check_symmetric(g)
    n = g.shape[0]
    budget = tol / 16.0
    u1f, s1f, v1t = np.linalg.svd((0.25 * g).reshape(n, n ** 3),
                                  full_matrices=False)
    keep = _keep_count(s1f, budget)
    spent = float((s1f[keep:] ** 2).sum())
    return u1f[:, :keep], s1f[:keep], v1t[:keep], budget, spent


def mps_factorize(g: np.ndarray, tol: float = 1e-6) -> QuarticFactors:
    """Tensor-train factorization with cuts i | jkl, (uj) | kl, (vk) | l.

    Truncation drops trailing singular values only while the accumulated
    (conservatively weighted) squared loss stays below tol at the g scale.
    Middle-cut slices are stored with unit columns; the removed norms n2, n3
    fold into the weight of entry (u, v, w), s1_u s2_v s3_w n2_uv n3_vw, and
    the entries run over (u, v, w) in row-major order.
    """
    n = g.shape[0]
    u1, s1, rest, budget, spent = _first_cut(g, tol)
    values, units, norms = [s1], [], []
    w_up = 1.0
    for width in (n * n, n):
        s = values[-1]
        w_up *= float((s ** 2).max()) if s.size else 0.0
        u, sv, vt = np.linalg.svd(rest.reshape(s.size * n, width),
                                  full_matrices=False)
        keep = _keep_count(sv, budget - spent, weight=w_up)
        spent += w_up * float((sv[keep:] ** 2).sum())
        slices = u[:, :keep].reshape(s.size, n, keep)
        norm = np.linalg.norm(slices, axis=1)
        units.append(np.where(norm[:, None] > 0,
                              slices / np.maximum(norm[:, None], 1e-300), 0.0))
        norms.append(norm)
        values.append(sv[:keep])
        rest = vt[:keep]

    weights = np.einsum("u,v,w,uv,vw->uvw", *values, *norms).ravel()
    bond_dims = tuple(s.size for s in values)
    columns = (u1[:, :, None, None], units[0].transpose(1, 0, 2)[..., None],
               units[1].transpose(1, 0, 2)[:, None], rest.T[:, None, None, :])
    vectors = [np.broadcast_to(c, (n, *bond_dims)).reshape(n, -1)
               for c in columns]
    return _record("l4-mps", weights, vectors, g, bond_dims=bond_dims)


def svd_chain_factorize(g: np.ndarray, tol: float = 1e-6) -> QuarticFactors:
    """Branching factorization i | jkl, then j | kl per alpha1, then k | l
    per (alpha1, alpha2); the weight of (alpha1, alpha2, alpha3) is
    (s1 s2) s3, and each branch appends its entries in that order."""
    n = g.shape[0]
    u1, s1, v1t, budget, spent = _first_cut(g, tol)

    weights = [np.zeros(0)]
    stacks = [[np.zeros((n, 0))] for _ in range(4)]
    for a1 in range(s1.size):
        b = v1t[a1].reshape(n, n * n)
        ub, sb, vbt = np.linalg.svd(b, full_matrices=False)
        keep = _keep_count(sb, budget - spent, weight=float(s1[a1] ** 2))
        spent += float(s1[a1] ** 2) * float((sb[keep:] ** 2).sum())
        for a2 in range(keep):
            c = vbt[a2].reshape(n, n)
            uc, sc, vct = np.linalg.svd(c, full_matrices=False)
            w_up = float(s1[a1] ** 2) * float(sb[a2] ** 2)
            kc = _keep_count(sc, budget - spent, weight=w_up)
            spent += w_up * float((sc[kc:] ** 2).sum())
            weights.append(s1[a1] * sb[a2] * sc[:kc])
            columns = (u1[:, [a1] * kc], ub[:, [a2] * kc], uc[:, :kc], vct[:kc].T)
            for stack, column in zip(stacks, columns):
                stack.append(column)
    return _record("l4-svd", np.concatenate(weights),
                   [np.hstack(stack) for stack in stacks], g)


def _apply_sign_convention(weights, vecs):
    """Flip each column so its largest-magnitude entry is positive."""
    out = []
    for v in vecs:
        peak = v[np.abs(v).argmax(axis=0), np.arange(v.shape[1])]
        sign = np.where(peak < 0, -1.0, 1.0)
        out.append(v * sign)
        weights = weights * sign
    order = np.argsort(-np.abs(weights), kind="stable")
    return weights[order], [v[:, order] for v in out]


def _als_sweep(unfoldings, vecs, grams, ridge):
    """One pass of least-squares updates over the four modes, in place.

    unfoldings[mode] is t with that mode's index first, as an n x n^3
    matrix; grams[k] is vecs[k]^T vecs[k], recomputed only for the factor
    that changes. Each mode solves the symmetric positive-definite normal
    equations (G o G' o G'' + ridge) A^T = (unfolding @ z)^T, z the
    Khatri-Rao product of the other three factors, by Cholesky (LAPACK
    dposv), and by LU when the matrix is not numerically positive definite.
    Returns the column norms of the last factor, the weights, and that
    mode's right-hand side, whose factors v1-v3 no later mode changes.
    """
    rank = vecs[0].shape[1]
    for mode in range(4):
        a, b, c = (i for i in range(4) if i != mode)
        z = (vecs[a][:, None, None] * vecs[b][None, :, None]
             * vecs[c][None, None]).reshape(-1, rank)
        lhs = grams[a] * grams[b] * grams[c] + ridge
        rhs = (unfoldings[mode] @ z).T
        _, solved, info = dposv(lhs, rhs)
        if info > 0:
            solved = np.linalg.solve(lhs, rhs)
        norms = np.linalg.norm(solved, axis=1)
        norms = np.where(norms > 0, norms, 1.0)
        vecs[mode] = solved.T / norms
        grams[mode] = vecs[mode].T @ vecs[mode]
    return norms, rhs


def _als_residual(t_sq, rhs, vecs, weights, grams):
    """||t - sum_m w_m v1_m x v2_m x v3_m x v4_m||^2 without the model tensor:
    t_sq - 2 sum_m w_m <t, v1_m x v2_m x v3_m x v4_m> + w^T (G1 o G2 o G3 o G4) w
    with the Gram matrices grams[k] = G_k = V_k^T V_k. The inner products
    contract the sweep's last right-hand side, rhs[m] = t contracted with
    v1_m, v2_m and v3_m, against v4_m."""
    inner = (rhs.T * vecs[3]).sum(axis=0)
    gram = grams[0] * grams[1] * grams[2] * grams[3]
    return t_sq - 2.0 * float(weights @ inner) + float(weights @ gram @ weights)


def _als_fit(t, rank, seed, start=None):
    """Seeded ALS at one rank, at least one sweep: (vecs, weights, squared
    residual, sweeps).

    The start draws seeded random unit columns; a warm start, four N x W
    stacks of unit columns, then overwrites the leading min(rank, W) columns
    of each factor. Mode 0 is solved first, from modes 1-3, so no weights
    are carried over. The four unfoldings of t are built once per fit, and
    each factor's Gram matrix is carried between sweeps and recomputed only
    when that factor changes; products of Gram matrices keep the order of a
    fresh computation, so the fit is bit-identical to rebuilding them.
    Sweeps stop once the residual, taken in Gram form by _als_residual,
    changes by at most 1e-10 ||t||^2 between sweeps.
    """
    n = t.shape[0]
    rng = np.random.default_rng([seed, rank])
    vecs = []
    for _ in range(4):
        v = rng.standard_normal((n, rank))
        vecs.append(v / np.linalg.norm(v, axis=0))
    if start is not None:
        width = min(rank, start[0].shape[1])
        for v, s in zip(vecs, start):
            v[:, :width] = s[:, :width]
    unfoldings = [np.moveaxis(t, mode, 0).reshape(n, -1) for mode in range(4)]
    grams = [v.T @ v for v in vecs]
    ridge = ALS_RIDGE * np.eye(rank)
    prev = np.inf
    t_sq = float((t * t).sum())
    for sweeps in range(1, ALS_MAX_SWEEPS + 1):
        weights, rhs = _als_sweep(unfoldings, vecs, grams, ridge)
        resid = _als_residual(t_sq, rhs, vecs, weights, grams)
        if abs(prev - resid) <= 1e-10 * max(t_sq, 1e-30):
            prev = resid
            break
        prev = resid
    return vecs, weights, prev, sweeps


def _by_weight(fit):
    """A fit's factors with columns sorted by descending |weight|."""
    vecs, weights = fit[:2]
    order = np.argsort(-np.abs(weights), kind="stable")
    return [v[:, order] for v in vecs]


def cp4_als(g: np.ndarray, max_rank: int = None, tol: float = 1e-6,
            seed: int = 7) -> QuarticFactors:
    """Alternating least squares over rank-1 quadruples.

    Rank grows by doubling until the g-scale squared residual meets tol, then
    bisects between the last rank that failed and the first that fitted to
    the smallest sufficient rank. Every trial rank draws its own seeded
    random start, warm-started from an earlier fit (Kolda & Bader, SIAM
    Rev. 51, 455, 2009): a doubled rank from the rank before it, a bisection
    midpoint from the smallest rank that has fitted, their columns sorted
    by descending |weight| in the leading places. Each sweep solves its
    normal equations by Cholesky (_als_sweep), and each residual is read
    from the factors' Gram matrices (_als_residual); only the returned
    factors are rebuilt as a tensor, for loss and loss_abs. Hitting max_rank
    without convergence returns the best factors flagged. metadata reports
    the rank, converged, the ALS sweeps summed over every trial fit, the
    trial ranks in the order they were fitted, and aligned with them each
    fit's g-scale squared residual, in Gram form, which fitted when below
    tol (trial_residuals), and its sweeps (trial_sweeps).
    """
    _check_symmetric(g)
    n = g.shape[0]
    if max_rank is None:
        max_rank = n ** 4
    t = 0.25 * g
    target = tol / 16.0
    tried = {}

    def fits(rank, start=None):
        tried[rank] = _als_fit(t, rank, seed, start)
        return tried[rank][2] < target

    lo, hi = 0, 1
    converged = fits(hi)
    while not converged and hi < max_rank:
        lo, hi = hi, min(2 * hi, max_rank)
        converged = fits(hi, _by_weight(tried[lo]))
    while converged and lo + 1 < hi:
        mid = (lo + hi) // 2
        if fits(mid, _by_weight(tried[hi])):
            hi = mid
        else:
            lo = mid
    vecs, weights = tried[hi][:2]
    weights, vecs = _apply_sign_convention(weights, list(vecs))
    return _record("l4-cp4", weights, vecs, g, rank=hi, converged=converged,
                   sweeps=sum(fit[3] for fit in tried.values()),
                   trial_ranks=list(tried),
                   trial_residuals=[16.0 * fit[2] for fit in tried.values()],
                   trial_sweeps=[fit[3] for fit in tried.values()])


def l4_lcu(factors: QuarticFactors, one_body: ReflectionBlock,
           constant: float = 0.0) -> LcuDecomposition:
    """Blocks: the one-body stream (fermionic_lcu.one_body_block), then one
    row of double reflections per weight above WEIGHT_TOL, in entry order,
    under the pattern of the four spin pairs; the columns at those weights
    must be unit to 1e-8. The record's metadata is reported after the
    common keys.
    """
    kept = np.abs(factors.weights) > WEIGHT_TOL
    omega = factors.weights[kept]
    vecs = [v[:, kept] for v in factors.vectors]
    if np.abs(np.linalg.norm(vecs, axis=1) - 1.0).max(initial=0.0) > 1e-8:
        raise ValueError("direction vectors must be unit")
    quads = ReflectionBlock(omega, SPIN_PAIRS, [v.T for v in vecs])
    metadata = {"n_weights": omega.size,
                "loss": float(factors.loss),
                "truncation_bound": float(factors.loss_abs)}
    metadata.update(factors.metadata)
    return reflection_lcu(factors.method, one_body, (quads,), constant,
                          metadata)
