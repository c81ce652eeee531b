"""Fermionic factorizations: one-body diagonalization, single and double
factorization from a pivoted Cholesky of the two-body tensor, and greedy CSA
fits. All emit fragments built from rotated reflections.
"""

from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh, expm, logm
from scipy.optimize import minimize

from .lcu import ChebyshevSquare, Fragment, LcuDecomposition, Reflection, ReflectionProduct
from .majorana import MajoranaHamiltonian
from .qubit_lcu import rotate_two_body

PSD_FLOOR = -1e-8
CHOLESKY_TOL = 1e-6


@dataclass
class OneBodyFragment:
    """Eigendecomposition of the folded one-body matrix h~/2."""
    rotation: np.ndarray
    eigenvalues: np.ndarray

    @property
    def lambda_contribution(self) -> float:
        return 2.0 * float(np.abs(self.eigenvalues).sum())


@dataclass
class CholeskyFactor:
    index: int
    matrix: np.ndarray
    eigenvalues: np.ndarray = None
    rotation: np.ndarray = None


@dataclass
class CsaFragment:
    rotation: np.ndarray
    coefficients: np.ndarray  # symmetric lambda matrix in the rotated basis


@dataclass
class CsaResult:
    fragments: list
    residual: np.ndarray
    converged: bool


def diagonalize_one_body(maj: MajoranaHamiltonian) -> OneBodyFragment:
    """Split h~/2 into rotation and eigenvalues; 1-norm cost is 2 sum|mu|."""
    lam, u = eigh(0.5 * maj.h_tilde)
    return OneBodyFragment(rotation=u, eigenvalues=lam)


def _one_body_fragments(one_body: OneBodyFragment):
    frags = []
    u = one_body.rotation
    for a, mu in enumerate(one_body.eigenvalues):
        if abs(mu) < 1e-14:
            continue
        for sigma in (0, 1):
            refl = Reflection(v=u[:, a].copy(), w=u[:, a].copy(), sigma=sigma)
            frags.append(Fragment(abs(mu), "reflection-product",
                                  ReflectionProduct((refl,), float(np.sign(mu)))))
    return frags


def _pair_fragments(u, lam):
    """Rotated reflection pairs of sum_ab lam_ab n_a n_b in the frame u.

    One fragment per unordered pair of distinct (orbital, spin) labels, with
    coefficient lam_ab / 2; DF passes the rank-one lam = mu mu^T.
    """
    fragments = []
    labels = [(a, s) for a in range(lam.shape[0]) for s in (0, 1)]
    for x, (a, s) in enumerate(labels):
        for b, t in labels[x + 1:]:
            coeff = 0.5 * lam[a, b]
            if abs(coeff) < 1e-14:
                continue
            pair = ReflectionProduct(
                (Reflection(u[:, a].copy(), u[:, a].copy(), s),
                 Reflection(u[:, b].copy(), u[:, b].copy(), t)),
                float(np.sign(coeff)),
            )
            fragments.append(Fragment(abs(coeff), "reflection-product", pair))
    return fragments


def pivoted_cholesky(maj: MajoranaHamiltonian, tol: float = CHOLESKY_TOL):
    """Greedy rank-1 peeling of the reshaped two-body tensor.

    Stops once the squared Frobenius norm of the residual drops below tol.
    Pivots on the largest residual diagonal, lowest index on ties.
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
        wm = 0.5 * (wm + wm.T)
        factors.append(CholeskyFactor(index=len(factors), matrix=wm))
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
    """core + tr h, with h recovered from the stored folded matrix."""
    h = maj.h_tilde - 2.0 * np.einsum("ijkk->ij", maj.g)
    core = maj.h0 - np.trace(h) - np.einsum("iijj->", maj.g)
    return float(core + np.trace(h))


def cholesky_sf(maj: MajoranaHamiltonian, tol: float = CHOLESKY_TOL):
    """Single factorization: one squared-polynomial fragment per factor.

    Each factor contributes the second Chebyshev polynomial of its normalized
    two-Majorana layer with weight (N_l)^2 / 8, N_l = 2 sum|W_l|; the linear
    part of the square folds into the one-body stream and the rest lands in
    the constant.
    """
    factors, delta = pivoted_cholesky(maj, tol)
    one_body = diagonalize_one_body(maj)
    fragments = _one_body_fragments(one_body)
    constant = _base_constant(maj)
    weights = []
    for fac in factors:
        d = float(np.trace(fac.matrix))
        norm = 2.0 * float(np.abs(fac.matrix).sum())
        weight = norm * norm / 8.0
        weights.append(weight)
        constant += d * d + weight
        fragments.append(Fragment(weight, "sf-poly",
                                  ChebyshevSquare(fac.matrix, norm)))
    lam = one_body.lambda_contribution + sum(weights)
    metadata = _truncation_metadata(maj, delta)
    metadata.update({
        "n_factors": len(factors),
        "fragment_weights": weights,
        "one_body_lambda": one_body.lambda_contribution,
    })
    lcu = LcuDecomposition(
        method="sf",
        n_orbitals=maj.n_orbitals,
        fragments=fragments,
        one_norm=float(lam),
        constant=constant,
        metadata=metadata,
    )
    return factors, lcu


def double_factorize(maj: MajoranaHamiltonian, factors=None,
                     tol: float = 1e-8,
                     cholesky_tol: float = CHOLESKY_TOL) -> LcuDecomposition:
    """Double factorization: diagonalize each factor, pair up the rotated
    reflections.

    Fragment coefficients are mu_a mu_b / 2 over distinct index-spin pairs,
    so each factor contributes (sum|mu|)^2 - (1/2) sum mu^2 to the 1-norm;
    the reported per-factor weight keeps the (N_l^DF)^2 / 2 form with
    N_l^DF = sum_i |mu_i|. Eigenvalues below tol are dropped and their
    weight is accumulated in the metadata.
    """
    if factors is None:
        factors, delta = pivoted_cholesky(maj, cholesky_tol)
    else:
        recon = sum(np.einsum("ij,kl->ijkl", f.matrix, f.matrix) for f in factors)
        delta = maj.g - recon
    one_body = diagonalize_one_body(maj)
    fragments = _one_body_fragments(one_body)
    constant = _base_constant(maj)
    lam2 = 0.0
    weights = []
    eigenvalue_loss = 0.0
    for fac in factors:
        lam, u = eigh(fac.matrix)
        keep = np.abs(lam) >= tol
        eigenvalue_loss += float(np.abs(lam)[~keep].sum())
        mu = lam[keep]
        uk = u[:, keep]
        fac.eigenvalues = mu
        fac.rotation = uk
        d = float(np.trace(fac.matrix))
        m1 = float(np.abs(mu).sum())
        m2 = float((mu * mu).sum())
        weights.append(m1 * m1 / 2.0)
        constant += d * d + 0.5 * m2
        lam2 += m1 * m1 - 0.5 * m2
        fragments += _pair_fragments(uk, np.outer(mu, mu))
    metadata = _truncation_metadata(maj, delta)
    metadata.update({
        "n_factors": len(factors),
        "fragment_weights": weights,
        "eigenvalue_loss": eigenvalue_loss,
        "one_body_lambda": one_body.lambda_contribution,
    })
    return LcuDecomposition(
        method="df",
        n_orbitals=maj.n_orbitals,
        fragments=fragments,
        one_norm=float(one_body.lambda_contribution + lam2),
        constant=constant,
        metadata=metadata,
    )


def _skew_from_vector(x, n):
    m = np.zeros((n, n))
    k = 0
    for i in range(1, n):
        for j in range(i):
            m[i, j] = x[k]
            m[j, i] = -x[k]
            k += 1
    return m


def _vector_from_rotation(u):
    n = u.shape[0]
    gen = logm(u)
    gen = np.real(gen)
    gen = 0.5 * (gen - gen.T)
    return np.array([gen[i, j] for i in range(1, n) for j in range(i)])


def _csa_tensor(u, lam):
    outer = np.einsum("ia,ja->ija", u, u)
    return np.einsum("ija,ab,klb->ijkl", outer, lam, outer)


def csa_decompose(maj: MajoranaHamiltonian, n_fragments: int,
                  budget: int = None, seed: int = 13) -> CsaResult:
    """Greedy least-squares cascade of rotated number-product fragments.

    Each step fits one (rotation, lambda-matrix) pair to the current residual
    by quasi-Newton descent with finite-difference gradients, starting from a
    rank-1 peel of the residual plus seeded alternatives. budget caps the
    total objective evaluations; exhaustion flags the result as partial.
    """
    if n_fragments < 1:
        raise ValueError("need at least one fragment")
    n = maj.n_orbitals
    n_skew = n * (n - 1) // 2
    tri = np.triu_indices(n)
    rng = np.random.default_rng(seed)
    counter = {"evals": 0}
    residual = maj.g.copy()
    fragments = []
    converged = True

    def unpack(x):
        u = expm(_skew_from_vector(x[:n_skew], n))
        lam = np.zeros((n, n))
        lam[tri] = x[n_skew:]
        lam = lam + lam.T - np.diag(np.diag(lam))
        return u, lam

    def pack(u, lam):
        return np.concatenate([_vector_from_rotation(u), lam[tri]])

    def lam_guess(u, res):
        guess = np.einsum("aabb->ab", rotate_two_body(res, u))
        return 0.5 * (guess + guess.T)

    for _ in range(n_fragments):
        if float((residual * residual).sum()) < 1e-14:
            break
        target = residual

        def cost(x):
            counter["evals"] += 1
            u, lam = unpack(x)
            diff = target - _csa_tensor(u, lam)
            return float((diff * diff).sum())

        seeds = []
        try:
            mat = target.reshape(n * n, n * n)
            p = int(np.argmax(np.diag(mat)))
            if mat[p, p] > 1e-14:
                w = (mat[:, p] / np.sqrt(mat[p, p])).reshape(n, n)
                w = 0.5 * (w + w.T)
                mu, uw = eigh(w)
                seeds.append(pack(uw, np.outer(mu, mu)))
        except (ValueError, np.linalg.LinAlgError):
            pass
        eye = np.eye(n)
        seeds.append(pack(eye, lam_guess(eye, target)))
        ur = expm(_skew_from_vector(rng.normal(scale=0.2, size=n_skew), n))
        seeds.append(pack(ur, lam_guess(ur, target)))

        best = None
        for x0 in seeds:
            options = {}
            if budget is not None:
                remaining = budget - counter["evals"]
                if remaining <= 0:
                    converged = False
                    break
                options["maxfun"] = remaining
            out = minimize(cost, x0, method="L-BFGS-B", options=options)
            if best is None or out.fun < best.fun:
                best = out
            if best.fun < 1e-14:
                break
        if best is None:
            break
        u, lam = unpack(best.x)
        fragments.append(CsaFragment(rotation=u, coefficients=lam))
        residual = residual - _csa_tensor(u, lam)
        if budget is not None and counter["evals"] >= budget:
            converged = False
            break
    return CsaResult(fragments=fragments, residual=residual, converged=converged)


def csa_lcu(maj: MajoranaHamiltonian, result: CsaResult) -> LcuDecomposition:
    """LCU view of a CSA cascade: rotated reflection pairs per fragment.

    Number-operator diagonals fold into the effective one-body matrix and the
    constant before any 1-norm is evaluated.
    """
    n = maj.n_orbitals
    h = maj.h_tilde - 2.0 * np.einsum("ijkk->ij", maj.g)
    lam_eff = 0.5 * h
    constant = _base_constant(maj)
    fragments = []
    lam2 = 0.0
    for frag in result.fragments:
        u, lam = frag.rotation, frag.coefficients
        rowsum = lam.sum(axis=1)
        lam_eff = lam_eff + u @ np.diag(rowsum) @ u.T
        constant += float(lam.sum() + 0.5 * np.trace(lam))
        lam2 += float(np.abs(lam).sum() - 0.5 * np.abs(np.diag(lam)).sum())
        fragments += _pair_fragments(u, lam)
    eigs, u0 = eigh(lam_eff)
    one_body = OneBodyFragment(rotation=u0, eigenvalues=eigs)
    fragments = _one_body_fragments(one_body) + fragments
    metadata = _truncation_metadata(maj, result.residual)
    metadata["n_fragments"] = len(result.fragments)
    metadata["one_body_lambda"] = one_body.lambda_contribution
    metadata["converged"] = result.converged
    metadata["residual"] = float(np.linalg.norm(result.residual))
    return LcuDecomposition(
        method="csa",
        n_orbitals=n,
        fragments=fragments,
        one_norm=float(one_body.lambda_contribution + lam2),
        constant=constant,
        metadata=metadata,
    )
