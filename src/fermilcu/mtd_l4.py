"""Rank-1 quartic factorizations of the two-body tensor and the LCU whose
fragments are products of four rotated Majoranas.

All three schemes factorize t = g/4, the tensor whose entries multiply bare
reflection products; weights therefore enter the 1-norm as 4 sum|Omega| once
the four spin combinations are counted.
"""

from dataclasses import dataclass

import numpy as np
from scipy.linalg import khatri_rao

from .fermionic_lcu import OneBodyFragment, _one_body_fragments
from .lcu import Fragment, LcuDecomposition, Reflection, ReflectionProduct
from .qubit_lcu import givens_chain_angles

SVD_CHAIN_GUARD = 8
WEIGHT_TOL = 1e-12


@dataclass
class MpsFactors:
    """Three-cut tensor train i | jkl, (uj) | kl, (vk) | l.

    Middle-cut slices are stored with unit columns; the removed norms n2, n3
    fold into the effective weight, which is no longer a product of the
    singular values alone.
    """
    label = "l4-mps"
    metadata_keys = ("bond_dims",)
    u1: np.ndarray          # N x r1
    u2: np.ndarray          # r1 x N x r2, unit columns per (u, v)
    u3: np.ndarray          # r2 x N x r3, unit columns per (v, w)
    w3: np.ndarray          # N x r3
    s1: np.ndarray
    s2: np.ndarray
    s3: np.ndarray
    n2: np.ndarray          # r1 x r2
    n3: np.ndarray          # r2 x r3
    loss: float = 0.0       # squared Frobenius residual at the g scale
    loss_abs: float = 0.0   # sum |residual entries|, an operator-level bound

    @property
    def bond_dims(self):
        return self.s1.size, self.s2.size, self.s3.size

    def weights(self) -> np.ndarray:
        return np.einsum("u,v,w,uv,vw->uvw", self.s1, self.s2, self.s3,
                         self.n2, self.n3)

    def weight_entries(self):
        omega = self.weights()
        r1, r2, r3 = omega.shape
        for u in range(r1):
            for v in range(r2):
                for w in range(r3):
                    yield (omega[u, v, w], self.u1[:, u], self.u2[u, :, v],
                           self.u3[v, :, w], self.w3[:, w])

    def reconstruct(self) -> np.ndarray:
        t = np.einsum("iu,ujv,vkw,lw,uvw->ijkl",
                      self.u1, self.u2, self.u3, self.w3, self.weights())
        return 4.0 * t


@dataclass
class Cp4Factors:
    """Sum of rank-1 quadruples: t = sum_m Omega_m v1 x v2 x v3 x v4."""
    label = "l4-cp4"
    metadata_keys = ("rank", "converged")
    rank: int
    weights: np.ndarray
    vectors: tuple  # four N x W arrays with unit columns
    converged: bool = True
    loss: float = 0.0
    loss_abs: float = 0.0

    def weight_entries(self):
        v1, v2, v3, v4 = self.vectors
        for m in range(self.rank):
            yield self.weights[m], v1[:, m], v2[:, m], v3[:, m], v4[:, m]

    def reconstruct(self) -> np.ndarray:
        v1, v2, v3, v4 = self.vectors
        return 4.0 * np.einsum("m,im,jm,km,lm->ijkl",
                               self.weights, v1, v2, v3, v4)


@dataclass
class SvdChainFactors:
    """Branching SVDs i | jkl, then j | kl per alpha1, then k | l per pair."""
    label = "l4-svd"
    metadata_keys = ()
    u1: np.ndarray
    s1: np.ndarray
    u2: list        # per alpha1: N x r2
    s2: list        # per alpha1: (r2,)
    u3: list        # per alpha1: list per alpha2 of N x r3
    s3: list
    v3: list        # per alpha1: list per alpha2 of N x r3
    loss: float = 0.0
    loss_abs: float = 0.0

    def weight_entries(self):
        """Yield (omega, v1, v2, v3, v4) over all retained branches."""
        for a1 in range(self.s1.size):
            for a2 in range(self.s2[a1].size):
                for a3 in range(self.s3[a1][a2].size):
                    omega = self.s1[a1] * self.s2[a1][a2] * self.s3[a1][a2][a3]
                    yield (omega,
                           self.u1[:, a1],
                           self.u2[a1][:, a2],
                           self.u3[a1][a2][:, a3],
                           self.v3[a1][a2][:, a3])

    def reconstruct(self) -> np.ndarray:
        n = self.u1.shape[0]
        t = np.zeros((n, n, n, n))
        for omega, v1, v2, v3, v4 in self.weight_entries():
            t += omega * np.einsum("i,j,k,l->ijkl", v1, v2, v3, v4)
        return 4.0 * t

    def as_cp4(self) -> Cp4Factors:
        entries = [e for e in self.weight_entries() if abs(e[0]) > WEIGHT_TOL]
        if not entries:
            n = self.u1.shape[0]
            empty = np.zeros((n, 0))
            return Cp4Factors(0, np.zeros(0), (empty,) * 4)
        weights = np.array([e[0] for e in entries])
        vecs = [np.column_stack([e[i] for e in entries]) for i in range(1, 5)]
        weights, vecs = _apply_sign_convention(weights, vecs)
        return Cp4Factors(weights.size, weights, tuple(vecs))


def _with_loss(factors, g: np.ndarray):
    """Record the g-scale squared residual and the sum of |residual|."""
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


def mps_factorize(g: np.ndarray, tol: float = 1e-6) -> MpsFactors:
    """Tensor-train factorization with cuts i | jkl, (uj) | kl, (vk) | l.

    Truncation drops trailing singular values only while the accumulated
    (conservatively weighted) squared loss stays below tol at the g scale.
    """
    n = g.shape[0]
    u1, s1, v1t, budget, spent = _first_cut(g, tol)
    r1 = s1.size

    m2 = v1t.reshape(r1 * n, n * n) if r1 else np.zeros((0, n * n))
    u2f, s2f, v2t = np.linalg.svd(m2, full_matrices=False)
    w_up = float((s1 ** 2).max()) if r1 else 0.0
    keep = _keep_count(s2f, budget - spent, weight=w_up)
    spent += w_up * float((s2f[keep:] ** 2).sum())
    u2raw, s2, v2 = u2f[:, :keep], s2f[:keep], v2t[:keep].T
    r2 = keep

    m3 = v2.T.reshape(r2 * n, n) if r2 else np.zeros((0, n))
    u3f, s3f, v3t = np.linalg.svd(m3, full_matrices=False)
    w_up3 = w_up * (float((s2 ** 2).max()) if r2 else 0.0)
    keep = _keep_count(s3f, budget - spent, weight=w_up3)
    spent += w_up3 * float((s3f[keep:] ** 2).sum())
    u3raw, s3, v3 = u3f[:, :keep], s3f[:keep], v3t[:keep].T
    r3 = keep

    u2_slices = u2raw.reshape(r1, n, r2) if r1 * r2 else np.zeros((r1, n, r2))
    n2 = np.linalg.norm(u2_slices, axis=1)
    u2_unit = np.where(n2[:, None, :] > 0, u2_slices / np.maximum(n2[:, None, :], 1e-300), 0.0)
    u3_slices = u3raw.reshape(r2, n, r3) if r2 * r3 else np.zeros((r2, n, r3))
    n3 = np.linalg.norm(u3_slices, axis=1)
    u3_unit = np.where(n3[:, None, :] > 0, u3_slices / np.maximum(n3[:, None, :], 1e-300), 0.0)

    return _with_loss(MpsFactors(u1=u1, u2=u2_unit, u3=u3_unit, w3=v3,
                                 s1=s1, s2=s2, s3=s3, n2=n2, n3=n3), g)


def svd_chain_factorize(g: np.ndarray, tol: float = 1e-6) -> SvdChainFactors:
    """Branching factorization i | jkl, then j | kl, then k | l."""
    n = g.shape[0]
    if n > SVD_CHAIN_GUARD:
        raise ValueError(f"branch count grows as N^3; guard is N <= {SVD_CHAIN_GUARD}")
    u1, s1, v1, budget, spent = _first_cut(g, tol)

    u2, s2, u3, s3, v3 = [], [], [], [], []
    for a1 in range(s1.size):
        b = v1[a1].reshape(n, n * n)
        ub, sb, vbt = np.linalg.svd(b, full_matrices=False)
        keep = _keep_count(sb, budget - spent, weight=float(s1[a1] ** 2))
        spent += float(s1[a1] ** 2) * float((sb[keep:] ** 2).sum())
        u2.append(ub[:, :keep])
        s2.append(sb[:keep])
        u3_branch, s3_branch, v3_branch = [], [], []
        for a2 in range(keep):
            c = vbt[a2].reshape(n, n)
            uc, sc, vct = np.linalg.svd(c, full_matrices=False)
            w_up = float(s1[a1] ** 2) * float(sb[a2] ** 2)
            kc = _keep_count(sc, budget - spent, weight=w_up)
            spent += w_up * float((sc[kc:] ** 2).sum())
            u3_branch.append(uc[:, :kc])
            s3_branch.append(sc[:kc])
            v3_branch.append(vct[:kc].T)
        u3.append(u3_branch)
        s3.append(s3_branch)
        v3.append(v3_branch)
    return _with_loss(SvdChainFactors(u1=u1, s1=s1, u2=u2, s2=s2, u3=u3,
                                      s3=s3, v3=v3), g)


def _apply_sign_convention(weights, vecs):
    """Flip each column so its largest-magnitude entry is positive."""
    weights = weights.copy()
    out = []
    for v in vecs:
        v = v.copy()
        for m in range(v.shape[1]):
            col = v[:, m]
            if col[np.argmax(np.abs(col))] < 0:
                v[:, m] = -col
                weights[m] = -weights[m]
        out.append(v)
    order = np.argsort(-np.abs(weights), kind="stable")
    return weights[order], [v[:, order] for v in out]


def _als_sweep(unfoldings, vecs, grams, ridge):
    """One pass of least-squares updates over the four modes, in place.

    unfoldings[mode] is t with that mode's index first, as an n x n^3
    matrix; grams[k] is vecs[k]^T vecs[k], recomputed only for the factor
    that changes. Returns the column norms of the last factor, the weights.
    """
    rank = vecs[0].shape[1]
    for mode in range(4):
        others = [i for i in range(4) if i != mode]
        z = np.einsum("jm,km,lm->jklm", *(vecs[i] for i in others)).reshape(-1, rank)
        gram = np.ones((rank, rank))
        for i in others:
            gram = gram * grams[i]
        a = np.linalg.solve(gram + ridge, (unfoldings[mode] @ z).T).T
        norms = np.linalg.norm(a, axis=0)
        norms = np.where(norms > 0, norms, 1.0)
        vecs[mode] = a / norms
        grams[mode] = vecs[mode].T @ vecs[mode]
    return norms


def _als_residual(t, t_sq, vecs, weights, grams):
    """||t - sum_m w_m v1_m x v2_m x v3_m x v4_m||^2 without the model tensor:
    t_sq - 2 sum_m w_m <t, v1_m x v2_m x v3_m x v4_m> + w^T (G1 o G2 o G3 o G4) w
    with the Gram matrices grams[k] = G_k = V_k^T V_k."""
    v1, v2, v3, v4 = vecs
    n = t.shape[0]
    inner = ((t.reshape(n ** 3, n).T @ khatri_rao(khatri_rao(v1, v2), v3)) * v4).sum(axis=0)
    gram = grams[0] * grams[1] * grams[2] * grams[3]
    return t_sq - 2.0 * float(weights @ inner) + float(weights @ gram @ weights)


def _als_fit(t, rank, seed, max_sweeps=300, reg=1e-12):
    """Seeded ALS at one rank, at least one sweep: (vecs, weights, squared
    residual).

    The four unfoldings of t are built once per fit, and each factor's Gram
    matrix is carried between sweeps and recomputed only when that factor
    changes; products of Gram matrices keep the order of a fresh
    computation, so the fit is bit-identical to rebuilding them. Sweeps stop
    once the residual, taken in Gram form by _als_residual, changes by at
    most 1e-10 ||t||^2 between sweeps.
    """
    n = t.shape[0]
    rng = np.random.default_rng([seed, rank])
    vecs = []
    for _ in range(4):
        v = rng.standard_normal((n, rank))
        vecs.append(v / np.linalg.norm(v, axis=0))
    unfoldings = [np.moveaxis(t, mode, 0).reshape(n, -1) for mode in range(4)]
    grams = [v.T @ v for v in vecs]
    ridge = reg * np.eye(rank)
    prev = np.inf
    t_sq = float((t * t).sum())
    for _ in range(max_sweeps):
        weights = _als_sweep(unfoldings, vecs, grams, ridge)
        resid = _als_residual(t, t_sq, vecs, weights, grams)
        if abs(prev - resid) <= 1e-10 * max(t_sq, 1e-30):
            prev = resid
            break
        prev = resid
    return vecs, weights, prev


def cp4_als(g: np.ndarray, max_rank: int = None, tol: float = 1e-6,
            seed: int = 7) -> Cp4Factors:
    """Alternating least squares over rank-1 quadruples.

    Rank grows by doubling until the g-scale squared residual meets tol, then
    bisects to the smallest sufficient rank. Each trial rank is fitted from
    its own seeded random start, and its residual is read from the factors'
    Gram matrices (_als_residual); only the returned factors are rebuilt as a
    tensor, for loss and loss_abs. Hitting max_rank without convergence
    returns the best factors flagged.
    """
    _check_symmetric(g)
    n = g.shape[0]
    if max_rank is None:
        max_rank = n ** 4
    t = 0.25 * g
    target = tol / 16.0

    tried = {}

    def fit(rank):
        if rank not in tried:
            tried[rank] = _als_fit(t, rank, seed)
        return tried[rank]

    rank = 1
    while True:
        vecs, weights, resid = fit(rank)
        if resid < target:
            break
        if rank >= max_rank:
            weights, vecs = _apply_sign_convention(weights, list(vecs))
            return _with_loss(
                Cp4Factors(rank, weights, tuple(vecs), converged=False), g)
        rank = min(2 * rank, max_rank)

    lo = rank // 2 if rank > 1 else 1
    hi = rank
    while lo + 1 < hi if rank > 1 else False:
        mid = (lo + hi) // 2
        _, _, resid = fit(mid)
        if resid < target:
            hi = mid
        else:
            lo = mid
    best = hi if rank > 1 else 1
    vecs, weights, resid = fit(best)
    weights, vecs = _apply_sign_convention(weights, list(vecs))
    return _with_loss(Cp4Factors(best, weights, tuple(vecs), converged=True), g)


def l4_lcu(factors, one_body: OneBodyFragment,
           constant: float = 0.0) -> LcuDecomposition:
    """Fragments: per weight, four spin pairs of double reflections.

    Each retained direction vector is paired with the Givens chain realizing
    its rotated Majorana; vectors must be unit to 1e-8. Each factor class
    gives its label, weight_entries() and the metadata_keys it reports.
    """
    fragments = _one_body_fragments(one_body)
    lam2 = 0.0
    n_weights = 0
    for omega, v1, v2, v3, v4 in factors.weight_entries():
        if abs(omega) <= WEIGHT_TOL:
            continue
        n_weights += 1
        lam2 += 4.0 * abs(omega)
        angles = [givens_chain_angles(v) for v in (v1, v2, v3, v4)]
        for sigma in (0, 1):
            for tau in (0, 1):
                pair = ReflectionProduct(
                    (Reflection(v1.copy(), v2.copy(), sigma,
                                v_angles=angles[0], w_angles=angles[1]),
                     Reflection(v3.copy(), v4.copy(), tau,
                                v_angles=angles[2], w_angles=angles[3])),
                    float(np.sign(omega)),
                )
                fragments.append(Fragment(abs(omega), "reflection-product", pair))
    metadata = {"n_weights": n_weights,
                "one_body_lambda": one_body.lambda_contribution,
                "loss": float(factors.loss),
                "truncation_bound": float(factors.loss_abs)}
    metadata.update((key, getattr(factors, key)) for key in factors.metadata_keys)
    return LcuDecomposition(
        method=factors.label,
        n_orbitals=one_body.rotation.shape[0],
        fragments=fragments,
        one_norm=float(one_body.lambda_contribution + lam2),
        constant=constant,
        metadata=metadata,
    )
