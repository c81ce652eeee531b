"""Brute-force checks: full reconstruction of an LCU against the
Hamiltonian, and the spectral lower bound on the 1-norm.

Reconstruction expands each Pauli, AC and squared-polynomial fragment on its
own, but sums the reflection products first: a reflection (v, w, sigma) is
sum_ij v_i w_j Q_ij,sigma, so the products of one spin pair (sigma, tau) add
up, by linearity, to one weight matrix on the ordered Q_ij,sigma Q_kl,tau,
expanded once. `fragment_pauli_sum` stays the per-fragment reference.
Partial sums keep every term; only the final `PauliSum` of a fragment or of
the reconstruction difference drops sums below PRUNE_TOL, so residue that
cancels across fragments is not lost on the way.
"""

from dataclasses import dataclass

import numpy as np

from .lcu import ChebyshevSquare, Fragment, LcuDecomposition
from .majorana import (
    PauliSum,
    combine_terms,
    dense_matrix,
    expand_reflections,
    pauli_sum_of_hamiltonian,
    reflection_table,
    sparse_matrix,
    word_products,
)

BUFFER_TERMS = 1 << 18
ROUNDING_ULPS = 64


@dataclass
class SpectralRange:
    e_min: float
    e_max: float

    @property
    def half_range(self) -> float:
        return 0.5 * (self.e_max - self.e_min)


def spectral_range(maj) -> SpectralRange:
    """Extremal eigenvalues of the qubit matrix, constants included."""
    nq = 2 * maj.n_orbitals
    if nq > 24:
        raise ValueError("spectral range limited to 24 qubits")
    op = pauli_sum_of_hamiltonian(maj)
    if not len(op):
        return SpectralRange(0.0, 0.0)
    if nq <= 10:
        eigs = np.linalg.eigvalsh(dense_matrix(op))
        return SpectralRange(float(eigs[0]), float(eigs[-1]))
    from scipy.sparse.linalg import eigsh

    mat = sparse_matrix(op)
    v0 = np.ones(mat.shape[0]) / np.sqrt(mat.shape[0])  # deterministic start
    lo = eigsh(mat, k=1, which="SA", v0=v0, return_eigenvectors=False)
    hi = eigsh(mat, k=1, which="LA", v0=v0, return_eigenvectors=False)
    return SpectralRange(float(lo[0]), float(hi[0]))


def _reflection_terms(refl, n_orbitals: int):
    qx, qz, qc = (a[:, :, refl.sigma] for a in reflection_table(n_orbitals))
    c = np.outer(refl.v, refl.w)
    keep = c != 0.0
    return qx[keep], qz[keep], c[keep] * qc[keep]


def _product_terms(a, b):
    """All pairwise products of two term sets, like terms combined."""
    x, z, phase = word_products(a[0][:, None], a[1][:, None],
                                b[0][None, :], b[1][None, :])
    c = a[2][:, None] * b[2][None, :] * phase
    return combine_terms(x.ravel(), z.ravel(), c.ravel())


def _chebyshev_terms(cs: ChebyshevSquare, n_orbitals: int):
    qx, qz, qc = reflection_table(n_orbitals)
    keep = np.broadcast_to((cs.w_matrix != 0.0)[:, :, None], qc.shape)
    c = 0.5 * cs.w_matrix[:, :, None] * qc / (cs.norm / 2.0)
    layer = (qx[keep], qz[keep], c[keep])
    x, z, c = _product_terms(layer, layer)
    zero = np.zeros(1, dtype=np.uint64)
    return (np.concatenate([x, zero]), np.concatenate([z, zero]),
            np.concatenate([2.0 * c, [-1.0]]))


def _word_terms(words, coeffs):
    return (np.array([w.x_mask for w in words], dtype=np.uint64),
            np.array([w.z_mask for w in words], dtype=np.uint64),
            np.asarray(coeffs, dtype=complex))


def _fragment_terms(fragment: Fragment, n_orbitals: int):
    """(x, z, coeffs) of the fragment unitary, coefficient excluded; a word
    may repeat."""
    unit = fragment.unitary
    if fragment.kind == "pauli":
        return _word_terms([unit.word], [unit.phase])
    if fragment.kind == "ac-group":
        return _word_terms(unit.words, np.asarray(unit.coeffs) / unit.norm)
    if fragment.kind == "reflection-product":
        total = None
        for refl in unit.reflections:
            s = _reflection_terms(refl, n_orbitals)
            total = s if total is None else _product_terms(total, s)
        return total[0], total[1], unit.sign * total[2]
    if fragment.kind == "sf-poly":
        return _chebyshev_terms(unit, n_orbitals)
    raise ValueError(f"unknown fragment kind {fragment.kind!r}")


def fragment_pauli_sum(fragment: Fragment, n_orbitals: int) -> PauliSum:
    """The fragment unitary as a combination of Pauli words (coefficient
    excluded)."""
    return PauliSum.from_arrays(2 * n_orbitals,
                                *_fragment_terms(fragment, n_orbitals))


def _running_sum(parts):
    """Combined sum of a stream of (x, z, coeffs) term sets. Parts gather in
    a buffer of about BUFFER_TERMS terms that is merged into the running
    total when full, so memory follows the number of distinct words."""
    total = (np.zeros(0, dtype=np.uint64), np.zeros(0, dtype=np.uint64),
             np.zeros(0, dtype=complex))
    buffered, size = [], 0
    for part in parts:
        buffered.append(part)
        size += part[0].size
        if size >= BUFFER_TERMS:
            total = combine_terms(*map(np.concatenate, zip(total, *buffered)))
            buffered, size = [], 0
    return combine_terms(*map(np.concatenate, zip(total, *buffered)))


def _reflection_weights(products, n_orbitals: int):
    """Spin-resolved weights (one, two) for expand_reflections of
    sum_k u_k s_k R_k over products R_k of one or two reflections. The
    fragments of one spin tuple sum in one matrix product over their stacked
    outer(v, w) rows, weighted by coefficient times sign u_k s_k."""
    nn = n_orbitals * n_orbitals
    one = np.zeros((nn, 2))
    two = np.zeros((nn, 2, nn, 2))
    groups = {}
    for frag in products:
        unit = frag.unitary
        groups.setdefault(tuple(r.sigma for r in unit.reflections), []).append(
            (frag.coefficient * unit.sign,
             *(vector for r in unit.reflections for vector in (r.v, r.w))))
    for spins, rows in groups.items():
        weight, *vectors = (np.array(column) for column in zip(*rows))
        outer = [(v[:, :, None] * w[:, None, :]).reshape(weight.size, nn)
                 for v, w in zip(vectors[::2], vectors[1::2])]
        if len(spins) == 1:
            one[:, spins[0]] = weight @ outer[0]
        else:
            two[:, spins[0], :, spins[1]] = outer[0].T @ (weight[:, None] * outer[1])
    return one.ravel(), two.reshape(2 * nn, 2 * nn)


def _fragment_parts(fragments, n_orbitals: int):
    """(x, z, coeffs) term sets that sum to sum_k u_k U_k: Pauli, AC and
    squared-polynomial fragments one at a time, in their order, then the
    products of one or two reflections, summed per spin tuple and expanded
    once."""
    products = []
    for frag in fragments:
        if (frag.kind == "reflection-product"
                and len(frag.unitary.reflections) in (1, 2)):
            products.append(frag)
            continue
        x, z, c = _fragment_terms(frag, n_orbitals)
        yield x, z, frag.coefficient * c
    if products:
        weights = _reflection_weights(products, n_orbitals)
        for terms in expand_reflections(n_orbitals, *weights):
            yield tuple(a.ravel() for a in terms)


def verify_reconstruction(lcu: LcuDecomposition, maj) -> float:
    """Deviation of sum_k u_k U_k + constant from the full Hamiltonian: the
    1-norm of the Pauli-coefficient difference, which upper-bounds its
    operator norm, at every size.

    Reflection-product fragments are summed per spin pair before they are
    expanded (by linearity; see the module docstring); the other fragments
    are expanded one by one.
    """
    n = maj.n_orbitals
    target = pauli_sum_of_hamiltonian(maj)
    identity = np.zeros(1, dtype=np.uint64)

    def parts():
        yield from _fragment_parts(lcu.fragments, n)
        yield identity, identity, np.array([lcu.constant], dtype=complex)
        yield target.x, target.z, -target.coeffs

    diff = PauliSum.from_arrays(2 * n, *_running_sum(parts()))
    return float(np.abs(diff.coeffs).sum())


def reconstruction_tolerance(lcu: LcuDecomposition) -> float:
    """The declared truncation bound (at least 1e-6) plus a rounding
    allowance of ROUNDING_ULPS * eps * (lambda + |constant|): the 1-norm
    deviation sums the rounding residue of every kept term."""
    rounding = ROUNDING_ULPS * np.finfo(float).eps * (
        lcu.one_norm + abs(lcu.constant))
    return max(1e-6, float(lcu.metadata.get("truncation_bound", 0.0))) + rounding


def verify_norm_bound(lcu: LcuDecomposition, srange: SpectralRange) -> bool:
    """lambda >= Delta E / 2 once excluded constants are reinstated."""
    return lcu.one_norm + abs(lcu.constant) >= srange.half_range - 1e-9
