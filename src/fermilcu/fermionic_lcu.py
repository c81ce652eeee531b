"""Fermionic factorizations: one-body diagonalization, single and double
factorization from a pivoted Cholesky of the two-body tensor, and greedy CSA
fits. All emit blocks of rotated reflections, lcu.ReflectionBlock under
the contract in the lcu module docstring.

sf, df, csa and the L4 methods of mtd_l4 share one LCU form, which
reflection_lcu assembles: the one-body stream (one_body_block), then the
method's blocks, with lambda the sum of the blocks' one_norm. pauli and ac
keep their own lambda (see the lcu module docstring).
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.linalg import eigh, expm, expm_frechet, logm

from .lcu import LcuDecomposition, PolyBlock, ReflectionBlock
from .majorana import MajoranaHamiltonian
from .qubit_lcu import _BudgetSpent, rotate_two_body

PSD_FLOOR = -1e-8
CHOLESKY_TOL = 1e-6
EIGENVALUE_FLOOR = 1e-8
SPIN_PAIRS = ((0, 0), (0, 1), (1, 0), (1, 1))


@dataclass
class CsaFragment:
    rotation: np.ndarray
    coefficients: np.ndarray  # symmetric lambda matrix in the rotated basis


@dataclass
class CsaResult:
    fragments: list
    residual: np.ndarray
    converged: bool
    evaluations: int = 0  # value-and-gradient calls of the fit


def one_body_block(matrix) -> ReflectionBlock:
    """The one-body stream of a symmetric matrix sum_a mu_a u_a u_a^T: one
    row of weight mu_a per eigenvector u_a whose eigenvalue is at least
    1e-14 in magnitude, with v = w = u_a, under the pattern of both spins;
    its one_norm is 2 sum|mu| over those rows."""
    mu, u = eigh(matrix)
    keep = np.abs(mu) >= 1e-14
    rows = u.T[keep]
    return ReflectionBlock(mu[keep], ((0,), (1,)), (rows, rows))


def diagonalize_one_body(maj: MajoranaHamiltonian) -> ReflectionBlock:
    """The one-body stream of h~/2 (one_body_block)."""
    return one_body_block(0.5 * maj.h_tilde)


def reflection_lcu(method, one_body, blocks, constant,
                   metadata) -> LcuDecomposition:
    """The LCU of one_body, then blocks, plus constant: lambda is the sum of
    the blocks' one_norm, the one-body stream's share reported as
    one_body_lambda ahead of metadata's own keys."""
    blocks = (one_body, *blocks)
    return LcuDecomposition(
        method=method,
        n_orbitals=one_body.directions[0].shape[1],
        blocks=blocks,
        one_norm=sum(block.one_norm for block in blocks),
        constant=constant,
        metadata={"one_body_lambda": one_body.one_norm, **metadata},
    )


def _pair_blocks(u, lam):
    """Rotated reflection pairs of sum_ab lam_ab n_a n_b in the frame u: two
    blocks of weight lam_ab / 2 per row, the pairs a < b in row-major order
    under the four spin pairs and the pairs a = a under (0, 1) alone, one
    fragment per pair x < y of the labels x = 2 a + s. DF passes the
    rank-one lam = mu mu^T."""
    blocks = []
    for (a, b), pattern in ((np.triu_indices(lam.shape[0], 1), SPIN_PAIRS),
                            (np.diag_indices(lam.shape[0]), ((0, 1),))):
        weights = 0.5 * lam[a, b]
        keep = np.abs(weights) >= 1e-14
        va, vb = u.T[a[keep]], u.T[b[keep]]
        blocks.append(ReflectionBlock(weights[keep], pattern, (va, va, vb, vb)))
    return blocks


def pivoted_cholesky(maj: MajoranaHamiltonian, tol: float = CHOLESKY_TOL):
    """Greedy rank-1 peeling of the reshaped two-body tensor.

    Returns the factors, symmetric N x N matrices W_l with
    g ~ sum_l W_l x W_l, and the residual tensor. Stops once the squared
    Frobenius norm of the residual drops below tol. Pivots on the largest
    residual diagonal, lowest index on ties.
    """
    n = maj.n_orbitals
    a = maj.g.reshape(n * n, n * n)
    a = 0.5 * (a + a.T)
    if a.size and np.linalg.eigvalsh(a).min() < PSD_FLOOR:
        raise ValueError("two-body tensor is not positive semidefinite")
    res = a.copy()
    factors = []
    residual_sq = float((res * res).sum())
    for step in range(n * n + 1):
        if residual_sq < tol:
            break
        d = np.diag(res)
        p = int(np.argmax(d))
        if d[p] <= 1e-14:
            break
        w = res[:, p] / np.sqrt(d[p])
        res = res - np.outer(w, w)
        residual_sq = float((res * res).sum())
        wm = w.reshape(n, n)
        factors.append(0.5 * (wm + wm.T))
    else:
        raise RuntimeError("pivoting failed to reduce the residual")
    delta = res.reshape(n, n, n, n)
    return factors, delta


def _truncation_metadata(maj, delta):
    """Residual size plus an operator-level bound on what the drop can cost."""
    fold = np.einsum("ijkk->ij", delta)
    return {
        "residual_sq": float((delta * delta).sum()),
        "truncation_bound": float(np.abs(delta).sum() + 2.0 * np.abs(fold).sum()
                                  + abs(np.einsum("iijj->", delta))),
    }


def _base_constant(maj: MajoranaHamiltonian) -> float:
    """h0 - sum_ij g_iijj, the constant before any factor's share."""
    return float(maj.h0 - np.einsum("iijj->", maj.g))


def cholesky_sf(maj: MajoranaHamiltonian,
                tol: float = CHOLESKY_TOL) -> LcuDecomposition:
    """Single factorization: one squared-polynomial fragment per factor.

    Each factor contributes the second Chebyshev polynomial of its normalized
    two-Majorana layer with weight (N_l)^2 / 8, N_l = 2 sum|W_l|; the linear
    part of the square folds into the one-body stream and the rest lands in
    the constant.
    """
    factors, delta = pivoted_cholesky(maj, tol)
    constant = _base_constant(maj)
    weights, norms = [], []
    for w in factors:
        d = float(np.trace(w))
        norm = 2.0 * float(np.abs(w).sum())
        weight = norm * norm / 8.0
        weights.append(weight)
        constant += d * d + weight
        norms.append(norm)
    metadata = _truncation_metadata(maj, delta)
    metadata.update({"n_factors": len(factors), "fragment_weights": weights})
    poly = PolyBlock(weights, np.reshape(
        factors, (-1, maj.n_orbitals, maj.n_orbitals)), norms)
    return reflection_lcu("sf", diagonalize_one_body(maj), (poly,), constant,
                          metadata)


def double_factorize(maj: MajoranaHamiltonian,
                     tol: float = CHOLESKY_TOL) -> LcuDecomposition:
    """Double factorization: diagonalize each factor, pair up the rotated
    reflections.

    Fragment coefficients are mu_a mu_b / 2 over distinct index-spin pairs,
    so each factor's blocks hold (sum|mu|)^2 - (1/2) sum mu^2 of the 1-norm;
    the reported per-factor weight keeps the (N_l^DF)^2 / 2 form with
    N_l^DF = sum_i |mu_i|. The factors come from pivoted_cholesky at tol;
    eigenvalues below EIGENVALUE_FLOOR are dropped and their weight is
    accumulated in the metadata.
    """
    factors, delta = pivoted_cholesky(maj, tol)
    blocks = []
    constant = _base_constant(maj)
    weights = []
    eigenvalue_loss = 0.0
    for w in factors:
        lam, u = eigh(w)
        keep = np.abs(lam) >= EIGENVALUE_FLOOR
        eigenvalue_loss += float(np.abs(lam)[~keep].sum())
        mu = lam[keep]
        d = float(np.trace(w))
        weights.append(float(np.abs(mu).sum()) ** 2 / 2.0)
        constant += d * d + 0.5 * float((mu * mu).sum())
        blocks.extend(_pair_blocks(u[:, keep], np.outer(mu, mu)))
    metadata = _truncation_metadata(maj, delta)
    metadata.update({
        "n_factors": len(factors),
        "fragment_weights": weights,
        "eigenvalue_loss": eigenvalue_loss,
    })
    return reflection_lcu("df", diagonalize_one_body(maj), blocks, constant,
                          metadata)


@lru_cache(maxsize=None)
def _triangles(n):
    """Read-only indices of the strict lower triangle (the stored entries
    of a skew generator K) and of the upper triangle (those of lam)."""
    lower, upper = np.tril_indices(n, -1), np.triu_indices(n)
    for index in (*lower, *upper):
        index.flags.writeable = False
    return lower, upper


def _skew_from_vector(x, n):
    m = np.zeros((n, n))
    m[_triangles(n)[0]] = x
    return m - m.T


def _vector_from_rotation(u):
    gen = np.real(logm(u))
    gen = 0.5 * (gen - gen.T)
    return gen[_triangles(u.shape[0])[0]]


def _pair_columns(u):
    """O = (u_a u_a^T) reshaped to n^2 x n, one column per orbital a."""
    n = u.shape[0]
    return (u[:, None, :] * u[None, :, :]).reshape(n * n, n)


def _csa_tensor(u, lam):
    n = u.shape[0]
    o = _pair_columns(u)
    return (o @ lam @ o.T).reshape(n, n, n, n)


def _csa_pack(u, lam):
    """x = (strict lower triangle of K = logm u, upper triangle of lam)."""
    return np.concatenate([_vector_from_rotation(u), lam[_triangles(u.shape[0])[1]]])


def _csa_unpack(x, n):
    """(K, lam) from x; the fragment's rotation is expm(K)."""
    n_skew = n * (n - 1) // 2
    lam = np.zeros((n, n))
    lam[_triangles(n)[1]] = x[n_skew:]
    return _skew_from_vector(x[:n_skew], n), lam + lam.T - np.diag(np.diag(lam))


def _csa_cost(x, target, n):
    """f = ||T - O lam O^T||^2 and its exact gradient in x.

    With D = T - O lam O^T, df/dlam = -2 O^T D O and df/dO = -2 (D O +
    D^T O) lam, which assumes no symmetry of the target. df/dU collects
    df/dO over both slots of u_a u_a^T and pulls back through U = expm(K) by
    the adjoint Frechet derivative, expm_frechet(K^T, .). Both gradients are
    then folded onto the stored triangles.
    """
    k, lam = _csa_unpack(x, n)
    u = expm(k)
    o = _pair_columns(u)
    d = target.reshape(n * n, n * n) - o @ lam @ o.T
    g_lam = -2.0 * (o.T @ d @ o)
    g_o = (-2.0 * (d @ o + d.T @ o) @ lam).reshape(n, n, n)
    g_u = np.einsum("ija,ja->ia", g_o + g_o.transpose(1, 0, 2), u)
    g_k = expm_frechet(k.T, g_u, compute_expm=False)
    lower, upper = _triangles(n)
    grad = np.concatenate([
        (g_k - g_k.T)[lower],
        (g_lam + g_lam.T - np.diag(np.diag(g_lam)))[upper],
    ])
    return float((d * d).sum()), grad


def _csa_seeds(target, rng):
    """Starts of one fit: the rank-1 peel of target, then the identity frame
    and a random frame, each with the lam read off the rotated target."""
    n = target.shape[0]

    def lam_guess(u):
        guess = np.einsum("aabb->ab", rotate_two_body(target, u))
        return 0.5 * (guess + guess.T)

    seeds = []
    try:
        mat = target.reshape(n * n, n * n)
        p = int(np.argmax(np.diag(mat)))
        if mat[p, p] > 1e-14:
            w = (mat[:, p] / np.sqrt(mat[p, p])).reshape(n, n)
            w = 0.5 * (w + w.T)
            mu, uw = eigh(w)
            # logm of a det -1 matrix is no real skew generator; flipping a
            # column leaves every projector u_a u_a^T as it is
            if np.linalg.det(uw) < 0:
                uw[:, -1] = -uw[:, -1]
            seeds.append(_csa_pack(uw, np.outer(mu, mu)))
    except (ValueError, np.linalg.LinAlgError):
        pass
    eye = np.eye(n)
    seeds.append(_csa_pack(eye, lam_guess(eye)))
    ur = expm(_skew_from_vector(rng.normal(scale=0.2, size=n * (n - 1) // 2), n))
    seeds.append(_csa_pack(ur, lam_guess(ur)))
    return seeds


def csa_decompose(maj: MajoranaHamiltonian, n_fragments: int,
                  budget: int = None, seed: int = 13) -> CsaResult:
    """Greedy least-squares cascade of rotated number-product fragments.

    Each step fits one (rotation, lambda-matrix) pair to the current residual
    by L-BFGS-B on the exact gradient of _csa_cost, starting from a rank-1
    peel of the residual plus seeded alternatives, and keeps the lowest
    objective seen. One evaluation is one value-and-gradient call; budget
    caps their total, and a fit or cascade cut short by it flags the result
    as partial.
    """
    from scipy.optimize import minimize

    if n_fragments < 1:
        raise ValueError("need at least one fragment")
    n = maj.n_orbitals
    rng = np.random.default_rng(seed)
    limit = np.inf if budget is None else budget
    evaluations = 0
    residual = maj.g.copy()
    fragments = []
    converged = True

    for _ in range(n_fragments):
        if float((residual * residual).sum()) < 1e-14:
            break
        if evaluations >= limit:
            converged = False
            break
        target = residual
        best = {"fun": np.inf}

        def cost(x):
            nonlocal evaluations
            if evaluations >= limit:
                raise _BudgetSpent
            evaluations += 1
            value, grad = _csa_cost(x, target, n)
            if value < best["fun"]:
                best.update(fun=value, x=x.copy())
            return value, grad

        for x0 in _csa_seeds(target, rng):
            try:
                minimize(cost, x0, jac=True, method="L-BFGS-B")
            except _BudgetSpent:
                converged = False
                break
            if best["fun"] < 1e-14:
                break
        k, lam = _csa_unpack(best["x"], n)
        u = expm(k)
        fragments.append(CsaFragment(rotation=u, coefficients=lam))
        residual = residual - _csa_tensor(u, lam)
    return CsaResult(fragments=fragments, residual=residual, converged=converged,
                     evaluations=evaluations)


def csa_lcu(maj: MajoranaHamiltonian, result: CsaResult) -> LcuDecomposition:
    """LCU view of a CSA cascade: rotated reflection pairs per fragment.

    Number-operator diagonals fold into the effective one-body matrix and the
    constant before any 1-norm is evaluated.
    """
    lam_eff = 0.5 * maj.h_tilde - np.einsum("ijkk->ij", maj.g)
    constant = _base_constant(maj)
    pairs = []
    for frag in result.fragments:
        u, lam = frag.rotation, frag.coefficients
        rowsum = lam.sum(axis=1)
        lam_eff = lam_eff + u @ np.diag(rowsum) @ u.T
        constant += float(lam.sum() + 0.5 * np.trace(lam))
        pairs.extend(_pair_blocks(u, lam))
    metadata = _truncation_metadata(maj, result.residual)
    metadata["n_fragments"] = len(result.fragments)
    metadata["converged"] = result.converged
    metadata["evaluations"] = result.evaluations
    metadata["residual"] = float(np.linalg.norm(result.residual))
    return reflection_lcu("csa", one_body_block(lam_eff), pairs, constant,
                          metadata)
