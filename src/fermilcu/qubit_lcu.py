"""Qubit-side decompositions: sparse Pauli LCU, anticommuting grouping, and
orbital optimization of either 1-norm.

Both LCUs take their Q and QQ items from the array kernel of `majorana`.
Grouping is sorted insertion (Crawford et al., Quantum 5, 385, 2021): by
descending |coefficient|, ties by `word_sort_keys` then item index, each item
joins the first group it anticommutes with throughout. Its items are the
tensor-level ones of `_tensor_item_structure`, in one form; the grouping of
an explicit qubit operator's combined words is the cross-check
sorted_insertion_ac in tests/reference.py. AC groups are priced from their
sizes (resources.ac_costs), so no circuit angles are computed here.

The groups are built group-major. Group g is the greedy scan, in rank order,
over the items no earlier group took: whether an item joins group g depends
only on the earlier members of g, and a new group starts at the lowest-ranked
item still unplaced, so placing the items one at a time in rank order gives
the same groups, in the same order, with the same members in the same order.
A scan is a loop over Python-int bitsets of the items: the candidate mask
starts as the unplaced items, its lowest-ranked item joins, and the mask is
ANDed with that item's anticommutation row, each item being placed once.

Anticommutation rows are factored. The symplectic product is bilinear over
GF(2), so the row of a product word Q_a Q_b is the XOR of the rows of Q_a
and Q_b. Each item names its two factors: (a, b) for a pair, (a, zero
factor) for a Q word. Each Q word is itself a product of two Majoranas, and
two even Majorana monomials anticommute exactly when they share an odd
number of Majoranas. So each call builds, per Majorana, the bitset of the
items in rank order that hold it an odd number of times, 4N of them, and
the row of the Q word gamma_p gamma_q is the XOR of the bitsets of p and q.
"""

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain

import numpy as np

from .lcu import AcBlock, LcuDecomposition, PauliBlock
from .majorana import (
    MajoranaHamiltonian,
    build_majorana,
    reflection_table,
    reflection_terms,
    word_products,
    word_sort_keys,
)

COEFF_TOL = 1e-12
LOCALIZE_SWEEPS = 8
LOCALIZE_TOL = 1e-10
ANGLE_SWEEPS = 40


def sparse_pauli_lcu(maj: MajoranaHamiltonian, threshold: float = 1e-5) -> LcuDecomposition:
    """One fragment per tensor entry: Q for h~ and ordered QQ products for g.

    A term is dropped when its tensor entry, |h~_ij| or |g_ijkl|, is at
    most threshold, the rule resources.sparse_term_count prices by (the
    sparse method thresholds the integrals; Berry et al., Quantum 3, 208,
    2019), or when its weight is below COEFF_TOL; dropped_weight sums them
    all. The 1-norm is taken directly on the tensors, sum|h~| + sum|g|, so
    it is independent of the threshold. Products that collapse to the
    identity go to the constant instead of the fragment list. Fragments and
    running sums follow the row-major order of Q_a and of (Q_a, Q_b).
    """
    n = maj.n_orbitals
    (qx, qz, c1), (x, z, c2) = reflection_terms(maj)
    identity = ((x | z) == 0).ravel()
    c2 = c2.ravel()
    # zero-weight entries (g = 0) add nothing to either running sum
    constant = _running_sum(c2[identity], complex(maj.h0))
    identity_weight = _running_sum(np.abs(c2[identity]))
    x = np.concatenate([qx, x.ravel()[~identity]])
    z = np.concatenate([qz, z.ravel()[~identity]])
    c = np.concatenate([c1, c2[~identity]])
    weight = np.abs(c)
    # the Pauli weights are exactly |h~| / 2 and |g| / 4
    entry = weight * np.repeat([2.0, 4.0], [c1.size, c.size - c1.size])
    kept = (weight >= COEFF_TOL) & (entry > threshold)
    # every coefficient is purely real or purely imaginary, so its unit
    # phase is exact from the signs; c / |c| can miss a unit by an ulp
    phase = np.sign(c[kept].real) + 1j * np.sign(c[kept].imag)
    block = PauliBlock(2 * n, weight[kept], x[kept], z[kept], phase)
    if abs(constant.imag) > 1e-9:
        raise AssertionError("constant failed to come out real")
    # every term left out counts, those below COEFF_TOL too, so the
    # truncation bound covers the whole difference from H
    dropped = _running_sum(weight[~kept])
    one_norm = float(np.abs(maj.h_tilde).sum() + np.abs(maj.g).sum())
    return LcuDecomposition(
        method="pauli",
        n_orbitals=n,
        blocks=(block,),
        one_norm=one_norm,
        constant=float(constant.real),
        metadata={
            "threshold": threshold,
            "dropped_weight": dropped,
            "truncation_bound": dropped,
            "identity_weight": identity_weight,
            "n_fragments": len(block),
        },
    )


def _running_sum(values, start=0.0):
    """Left-to-right sum from start, the order a loop of += adds in."""
    return np.cumsum(np.concatenate([[start], values]))[-1].item()


@lru_cache(maxsize=None)
def _tensor_item_structure(n: int):
    """Index structure of tensor-level items; values come from gather later.

    Items are the Q words a = (i, j, sigma), row-major, carrying h~_ij/2,
    then the products Q_a Q_b over pairs a < b, row-major, each merging the
    two conjugate orderings of the pair; pairs whose phases are imaginary
    cancel exactly and are dropped here once and for all. Item k is the
    product of factors fa[k] and fb[k], indices into the Q words followed by
    the identity: "qx" and "qz" hold the factor masks and "majoranas" the
    two Majoranas of each factor, gamma_{p, m} numbered 2p + m on qubit p,
    each with a zero factor last, whose Majoranas are both 4N and cancel.
    The cached arrays are read-only.
    """
    qx, qz, qc = (a.ravel() for a in reflection_table(n))
    if np.any(qc.imag):
        raise AssertionError("Q word phase must be real")
    n_q = qx.size
    a, b = np.triu_indices(n_q, k=1)
    phase = word_products(qx[a], qz[a], qx[b], qz[b])[2]
    real = (qc[a] * qc[b] * phase).real
    merged = np.abs(real) >= 1e-12
    # int32 halves the two index arrays of one entry per item
    fa = np.concatenate([np.arange(n_q), a[merged]]).astype(np.int32)
    fb = np.concatenate([np.full(n_q, n_q), b[merged]]).astype(np.int32)
    qx, qz = np.append(qx, np.uint64(0)), np.append(qz, np.uint64(0))
    # Q_ij,sigma = i gamma_{i sigma, 0} gamma_{j sigma, 1}, qubit p = 2i + sigma
    i, j, sigma = np.unravel_index(np.arange(n_q), (n, n, 2))
    majoranas = np.append(np.stack([4 * i + 2 * sigma, 4 * j + 2 * sigma + 1],
                                   axis=1), [[4 * n, 4 * n]], axis=0)
    struct = {
        "qx": qx,
        "qz": qz,
        "majoranas": majoranas.astype(np.int32),
        "fa": fa,
        "fb": fb,
        "weight": 0.5 * np.concatenate([qc.real, real[merged]]),
    }
    struct["key"] = word_sort_keys(*_item_words(struct), 2 * n)
    for array in struct.values():
        array.flags.writeable = False
    return struct


def _item_coeffs(struct, h_tilde: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Coefficients of the items: h~_ij of Q word a = (i, j, sigma) sits at
    h~.flat[a // 2], and g_ijkl of the pair (a, b) at g[a // 2, b // 2] with
    g read as an N^2 x N^2 matrix."""
    n_q = 2 * h_tilde.size
    a, b = struct["fa"] >> 1, struct["fb"][n_q:] >> 1
    entries = np.concatenate([h_tilde.ravel()[a[:n_q]],
                              g.reshape(h_tilde.size, -1)[a[n_q:], b]])
    return struct["weight"] * entries


def _item_words(struct):
    """X and Z masks of every item, the products of its two factors."""
    fa, fb = struct["fa"], struct["fb"]
    return (struct["qx"][fa] ^ struct["qx"][fb],
            struct["qz"][fa] ^ struct["qz"][fb])


def _factor_rows(majoranas, fa, fb):
    """Per factor f, the Python-int bitset of the items f anticommutes with:
    bit b is set when f anticommutes with the item whose factors are fa[b]
    and fb[b]. Bit b of Majorana p's bitset is set when p is among the
    Majoranas of fa[b] and fb[b] an odd number of times, and a factor's row
    is the XOR of its two Majoranas' bitsets (module docstring)."""
    held = np.zeros((majoranas.max() + 1, fa.size), dtype=bool)
    bit = np.arange(fa.size)
    for factor in (fa, fb):
        for column in majoranas[factor].T:
            held[column, bit] ^= True
    columns = [int.from_bytes(row, "little") for row in
               np.packbits(held, axis=1, bitorder="little")]
    return [columns[p] ^ columns[q] for p, q in majoranas.tolist()]


def _sorted_insertion(coeffs, struct):
    """Greedy grouping of the items of _tensor_item_structure: descending
    |coefficient|, ties by struct["key"] then index; each item joins the
    first group it fully anticommutes with. Items at or below COEFF_TOL
    join no group.

    Built group-major (module docstring) on bitsets whose bit b stands for
    the item of rank m - 1 - b, so the lowest-ranked item in a mask is its
    highest set bit. An item's row has the bits of the items it
    anticommutes with, the XOR of its two factor rows, read when the item
    is placed.
    """
    magnitude = np.abs(coeffs)
    order = np.lexsort((struct["key"], -magnitude))
    order = order[magnitude[order] > COEFF_TOL][::-1]
    fa, fb = struct["fa"][order], struct["fb"][order]
    factor = _factor_rows(struct["majoranas"], fa, fb)
    fa, fb = fa.tolist(), fb.tolist()
    item = order.tolist()
    unplaced = (1 << len(item)) - 1
    groups = []
    while unplaced:
        mask = unplaced
        members = []
        while mask:
            b = mask.bit_length() - 1
            members.append(item[b])
            unplaced ^= 1 << b
            # an item commutes with itself, so its own bit clears too
            mask &= factor[fa[b]] ^ factor[fb[b]]
        groups.append(members)
    return groups


def _group_norms(coeffs, groups):
    """Each group's coefficient norm, sqrt(d . d) as np.linalg.norm takes it,
    and λ: the norms summed left to right. The coefficients are gathered in
    group order once, and each dot product reads its group's slice."""
    ordered = coeffs[list(chain.from_iterable(groups))]
    norms = np.empty(len(groups))
    start = 0
    for k, members in enumerate(groups):
        d = ordered[start:start + len(members)]
        norms[k] = math.sqrt(d.dot(d))
        start += len(members)
    return norms, _running_sum(norms)


def _groups_to_lcu(x, z, coeffs, groups, n_qubits, constant, metadata):
    """One AC block of the groups: the items in group order, and per group
    its size and norm (_group_norms). The items in no group, those sorted
    insertion leaves out at or below COEFF_TOL, are the truncation: their
    |coefficients| summed left to right."""
    sizes = [len(members) for members in groups]
    order = np.concatenate(groups) if groups else np.zeros(0, dtype=np.int64)
    norms, one_norm = _group_norms(coeffs, groups)
    unplaced = np.ones(coeffs.size, dtype=bool)
    unplaced[order] = False
    dropped = _running_sum(np.abs(coeffs[unplaced]))
    metadata = dict(metadata)
    metadata["n_groups"] = len(groups)
    metadata["group_sizes"] = sizes
    metadata["dropped_weight"] = dropped
    metadata["truncation_bound"] = dropped
    return LcuDecomposition(
        method="ac",
        n_orbitals=n_qubits // 2,
        blocks=(AcBlock(n_qubits, x[order], z[order], coeffs[order], sizes,
                        norms),),
        one_norm=one_norm,
        constant=constant,
        metadata=metadata,
    )


def ac_lcu(maj: MajoranaHamiltonian) -> LcuDecomposition:
    """Anticommuting grouping of the tensor-level items: the Q and merged-QQ
    terms, duplicates kept per index pair. Grouping the combined qubit
    operator instead is the test reference sorted_insertion_ac of
    pauli_sum_of_hamiltonian(maj), in tests/reference.py.
    """
    struct = _tensor_item_structure(maj.n_orbitals)
    coeffs = _item_coeffs(struct, maj.h_tilde, maj.g)
    groups = _sorted_insertion(coeffs, struct)
    constant = maj.h0 + 0.5 * float(np.einsum("ijij->", maj.g))
    return _groups_to_lcu(*_item_words(struct), coeffs, groups,
                          2 * maj.n_orbitals, constant,
                          {"level": "tensor", "n_items": int(coeffs.size)})


class _BudgetSpent(Exception):
    """Raised by an objective when its evaluation budget is used up."""


@dataclass
class OrbitalRotation:
    """Result of 1-norm minimization over real orbital rotations."""
    matrix: np.ndarray
    initial_one_norm: float
    one_norm: float
    evaluations: int
    converged: bool


def rotation_pairs(n: int):
    return [(i, j) for i in range(1, n) for j in range(i)]


class _RotationChain:
    """Products of plane rotations over all index pairs, in a fixed order,
    that keep the last call's Givens matrices and running products.

    The Givens matrices are multiplied left to right as full n x n
    products, u = u @ g_k starting from the identity. Applying each
    rotation to two columns instead rounds differently, and the
    orbital-optimization search follows those last bits. A call restarts
    the product at the first angle whose bits differ from the last call's
    (compared as int64, so +0.0 and -0.0 differ); the prefix before it is
    the same product of the same matrices, so the result is bit-identical
    to a fresh chain's.
    """

    def __init__(self, n: int):
        self.n = n
        self.pairs = rotation_pairs(n)
        self.givens = [np.eye(n) for _ in self.pairs]
        # products[k] = g_0 ... g_{k-1}; the first call fills k >= 1
        self.products = [np.eye(n)] * (len(self.pairs) + 1)
        self.bits = None

    def __call__(self, angles) -> np.ndarray:
        angles = np.asarray(angles, dtype=float)
        if angles.size != len(self.pairs):
            raise ValueError(f"expected {len(self.pairs)} angles for "
                             f"{self.n} orbitals")
        bits = angles.view(np.int64)
        first = 0
        if self.bits is not None:
            changed = np.flatnonzero(bits != self.bits)
            first = changed[0] if changed.size else len(self.pairs)
        c, s = np.cos(angles), np.sin(angles)
        for k in range(first, len(self.pairs)):
            i, j = self.pairs[k]
            g = self.givens[k]
            g[j, j] = g[i, i] = c[k]
            g[j, i] = s[k]
            g[i, j] = -s[k]
            self.products[k + 1] = self.products[k] @ g
        self.bits = bits.copy()
        return self.products[-1]


def rotation_from_angles(angles, n: int) -> np.ndarray:
    """Product of plane rotations over all index pairs, in a fixed order:
    a fresh _RotationChain."""
    return _RotationChain(n)(angles)


def rotate_two_body(g: np.ndarray, u: np.ndarray) -> np.ndarray:
    """g'_abcd = sum g_ijkl u_ia u_jb u_kc u_ld.

    Each step contracts the leading index with u and appends the new index
    at the end, as tensordot(out, u, axes=([0], [0])) does, by one matrix
    product on a reshaped view; the result is bit-identical to the
    tensordot chain without its per-call overhead.
    """
    n, m = u.shape
    out = g
    for _ in range(4):
        out = np.dot(out.reshape(n, -1).T, u)
    return out.reshape(m, m, m, m)


def angles_from_rotation(u: np.ndarray) -> np.ndarray:
    """Exact angle vector reproducing u through rotation_from_angles.

    Earlier brackets leave the last basis vector fixed from the left, so the
    last row of u is the last row of its own bracket, a Givens chain whose
    angles solve sequentially; peeling that bracket recurses on the leading
    block. Requires det u = +1.
    """
    n = u.shape[0]
    if abs(np.linalg.det(u) - 1.0) > 1e-8:
        raise ValueError("need a proper rotation (det +1)")
    v = u.copy()
    angles = {}
    for k in range(n - 1, 0, -1):
        row = v[k, :]
        r = 1.0
        thetas = []
        for j in range(k):
            if abs(r) <= 1e-14:
                s, c = 0.0, 1.0
            elif j == k - 1:
                s, c = -row[j] / r, row[k] / r
            else:
                s = float(np.clip(-row[j] / r, -1.0, 1.0))
                c = np.sqrt(max(0.0, 1.0 - s * s))
            thetas.append(float(np.arctan2(s, c)))
            r *= c
        bracket = np.eye(n)
        for j, theta in enumerate(thetas):
            cj, sj = np.cos(theta), np.sin(theta)
            gmat = np.eye(n)
            gmat[j, j] = cj
            gmat[k, k] = cj
            gmat[j, k] = sj
            gmat[k, j] = -sj
            bracket = bracket @ gmat
            angles[(k, j)] = theta
        v = v @ bracket.T
    return np.array([angles[p] for p in rotation_pairs(n)])


def _pair_gain(sub: np.ndarray, theta: float) -> float:
    c, s = np.cos(theta), np.sin(theta)
    t = rotate_two_body(sub, np.array([[c, -s], [s, c]]))
    return float(t[0, 0, 0, 0] + t[1, 1, 1, 1])


def localizing_rotation(g: np.ndarray) -> np.ndarray:
    """Pairwise-rotation localization maximizing the self-repulsion
    sum_i g_iiii, which needs nothing beyond the two-electron tensor.

    Concentrated orbitals empty most of the tensor, so this is a strong seed
    for 1-norm minimization on extended systems where searches started at the
    delocalized frame stall.
    """
    from scipy.optimize import minimize_scalar

    n = g.shape[0]
    g = g.copy()
    u = np.eye(n)
    for _ in range(LOCALIZE_SWEEPS):
        total_gain = 0.0
        for i in range(1, n):
            for j in range(i):
                idx = [i, j]
                sub = g[np.ix_(idx, idx, idx, idx)]
                base = sub[0, 0, 0, 0] + sub[1, 1, 1, 1]
                res = minimize_scalar(
                    lambda t: -_pair_gain(sub, t),
                    bounds=(-np.pi / 4, np.pi / 4), method="bounded",
                    options={"xatol": 1e-10})
                gain = -res.fun - base
                if gain > LOCALIZE_TOL:
                    total_gain += gain
                    c, s = np.cos(res.x), np.sin(res.x)
                    rot = np.eye(n)
                    rot[j, j] = c
                    rot[i, i] = c
                    rot[j, i] = s
                    rot[i, j] = -s
                    u = u @ rot
                    g = rotate_two_body(g, rot)
        if total_gain < LOCALIZE_TOL:
            break
    return u


def _angle_sweeps(evaluate, best_val, best_angles):
    """Coordinate descent over the plane-rotation angles, one at a time.

    Direction-set search stalls in high dimension; sweeping the angles
    individually with a bounded scalar minimizer reliably pulls the rotation
    the rest of the way down, the same way pairwise-rotation localization
    sweeps do. An evaluation budget is enforced by evaluate itself, which
    raises _BudgetSpent at the cap.
    """
    from scipy.optimize import minimize_scalar

    n_angles = best_angles.size
    tol = 1e-9 * max(abs(best_val), 1.0)
    for _ in range(ANGLE_SWEEPS):
        sweep_start = best_val
        for k in range(n_angles):
            center = best_angles[k]

            def line(theta):
                trial = best_angles.copy()
                trial[k] = theta
                return evaluate(trial)

            res = minimize_scalar(
                line, bounds=(center - np.pi / 2, center + np.pi / 2),
                method="bounded", options={"xatol": 1e-8})
            if res.fun < best_val:
                best_val = float(res.fun)
                best_angles = best_angles.copy()
                best_angles[k] = float(res.x)
        if sweep_start - best_val < tol:
            break
    return best_val, best_angles


def orbital_optimize(mol, objective: str = "pauli", budget: int = None,
                     restarts: int = 3, seed: int = 7):
    """Minimize the chosen 1-norm over SO(N) by direction-set search
    followed by coordinate sweeps over the individual plane-rotation angles.

    Starts from the identity, from a self-repulsion-localized frame, and
    from seeded random angle sets; the result is never worse than the
    unrotated tensors. budget caps objective evaluations, the unrotated one
    included: the objective raises _BudgetSpent at the cap, the search stops
    at the best point evaluated, and the converged flag is cleared. Returns
    the rotation together with the rotated integrals; the rotation's
    one_norm is the objective on the Hamiltonian built from those integrals,
    the λ the method then reports.
    """
    from scipy.optimize import minimize

    from .integrals import MolecularIntegrals

    maj = build_majorana(mol)
    n = maj.n_orbitals
    n_angles = len(rotation_pairs(n))
    counter = {"evals": 0}

    if objective == "pauli":
        def one_norm(h_tilde, g):
            return float(np.abs(h_tilde).sum() + np.abs(g).sum())
    elif objective == "ac":
        struct = _tensor_item_structure(n)

        def one_norm(h_tilde, g):
            coeffs = _item_coeffs(struct, h_tilde, g)
            return _group_norms(coeffs, _sorted_insertion(coeffs, struct))[1]
    else:
        raise ValueError("objective must be 'pauli' or 'ac'")

    # the unrotated evaluation always runs, whatever the budget
    limit = np.inf if budget is None else max(budget, 1)
    seen = {"val": np.inf}
    chain = _RotationChain(n)

    def evaluate(angles):
        if counter["evals"] >= limit:
            raise _BudgetSpent
        counter["evals"] += 1
        u = chain(angles)
        value = one_norm(u.T @ maj.h_tilde @ u, rotate_two_body(maj.g, u))
        if value < seen["val"]:
            seen.update(val=value, angles=np.array(angles, dtype=float))
        return value

    baseline = evaluate(np.zeros(n_angles))
    rng = np.random.default_rng(seed)
    best_val = baseline
    best_angles = np.zeros(n_angles)
    converged = True
    if n_angles:
        # hold half the budget back for the angle sweeps
        powell_budget = None if budget is None else budget // 2
        starts = [np.zeros(n_angles)]
        if n_angles > 1:
            starts.append(angles_from_rotation(localizing_rotation(maj.g)))
        for _ in range(max(restarts - 1, 0)):
            starts.append(rng.normal(scale=0.15, size=n_angles))
        try:
            for idx, x0 in enumerate(starts):
                options = {"xtol": 1e-5, "ftol": 1e-7}
                if powell_budget is not None:
                    remaining = powell_budget - counter["evals"]
                    if remaining <= 0:
                        break
                    # fair share so an early start cannot starve the others
                    options["maxfev"] = max(remaining // (len(starts) - idx), 1)
                res = minimize(evaluate, x0, method="Powell", options=options)
                if res.fun < best_val:
                    best_val = float(res.fun)
                    best_angles = np.asarray(res.x, dtype=float)
            best_val, best_angles = _angle_sweeps(evaluate, best_val, best_angles)
        except _BudgetSpent:
            # a minimizer cut off mid-search returns nothing; keep the best
            # point any search evaluated
            if seen["val"] < best_val:
                best_val, best_angles = seen["val"], seen["angles"]
        if budget is not None and counter["evals"] >= budget:
            converged = False
    u = rotation_from_angles(best_angles, n)
    rotated = MolecularIntegrals(
        n_orbitals=n,
        core_energy=mol.core_energy,
        one_body=u.T @ mol.one_body @ u,
        two_body=rotate_two_body(mol.two_body, u),
    )
    # tensors rebuilt from the rotated integrals round differently from the
    # rotated Majorana tensors, enough to move items between AC groups
    final = build_majorana(rotated)
    rotation = OrbitalRotation(
        matrix=u,
        initial_one_norm=baseline,
        one_norm=one_norm(final.h_tilde, final.g),
        evaluations=counter["evals"],
        converged=converged,
    )
    return rotation, rotated
