"""Qubit-side decompositions: sparse Pauli LCU, anticommuting grouping, and
orbital optimization of either 1-norm.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.optimize import minimize, minimize_scalar

from .lcu import AcGroup, Fragment, LcuDecomposition, PauliTerm
from .majorana import MajoranaHamiltonian, PauliSum, reflection_word

COEFF_TOL = 1e-12
ANGLE_CLAMP = 1e-9


def sparse_pauli_lcu(maj: MajoranaHamiltonian, threshold: float = 1e-5) -> LcuDecomposition:
    """One fragment per tensor entry: Q for h~ and ordered QQ products for g.

    The 1-norm is taken directly on the tensors, sum|h~| + sum|g|, so it is
    independent of the reporting threshold. Products that collapse to the
    identity go to the constant instead of the fragment list.
    """
    n = maj.n_orbitals
    words = _q_words(n)
    fragments = []
    constant = complex(maj.h0)
    dropped = 0.0
    identity_weight = 0.0
    for (i, j, s), (word, ph) in words.items():
        c = 0.5 * maj.h_tilde[i - 1, j - 1] * ph
        if abs(c) < COEFF_TOL:
            continue
        if abs(c) < threshold:
            dropped += abs(c)
            continue
        fragments.append(Fragment(abs(c), "pauli", PauliTerm(word, c / abs(c))))
    items = list(words.items())
    for (i, j, s), (w1, p1) in items:
        for (k, l, t), (w2, p2) in items:
            gval = maj.g[i - 1, j - 1, k - 1, l - 1]
            if gval == 0.0:
                continue
            word, mph = w1 * w2
            c = 0.25 * gval * p1 * p2 * mph
            if word.is_identity():
                constant += c
                identity_weight += abs(c)
                continue
            if abs(c) < COEFF_TOL:
                continue
            if abs(c) < threshold:
                dropped += abs(c)
                continue
            fragments.append(Fragment(abs(c), "pauli", PauliTerm(word, c / abs(c))))
    if abs(constant.imag) > 1e-9:
        raise AssertionError("constant failed to come out real")
    one_norm = float(np.abs(maj.h_tilde).sum() + np.abs(maj.g).sum())
    return LcuDecomposition(
        method="pauli",
        n_orbitals=n,
        fragments=fragments,
        one_norm=one_norm,
        constant=float(constant.real),
        metadata={
            "threshold": threshold,
            "dropped_weight": dropped,
            "truncation_bound": dropped,
            "identity_weight": identity_weight,
            "n_fragments": len(fragments),
        },
    )


def spin_separated_two_body_norm(maj: MajoranaHamiltonian) -> float:
    """Two-body 1-norm after spin separation, for comparison reporting.

    Opposite-spin terms keep their full weight; same-spin pairs combine the
    exchange-related entries before the absolute value is taken.
    """
    g = maj.g
    n = maj.n_orbitals
    total = 0.5 * float(np.abs(g).sum())
    swapped = g.transpose(0, 3, 2, 1)
    i, j, k, l = np.ogrid[:n, :n, :n, :n]
    mask = (i > k) & (l > j)
    total += float(np.abs(g - swapped)[mask].sum())
    return total


@lru_cache(maxsize=None)
def _q_words(n: int):
    """Reflection words Q_ij,sigma keyed by 1-based (i, j, sigma)."""
    out = {}
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            for s in (0, 1):
                out[(i, j, s)] = reflection_word(i, j, s, n)
    return out


@lru_cache(maxsize=None)
def _tensor_item_structure(n: int):
    """Index structure of tensor-level items; values come from gather later.

    One-body items carry h~_ij/2 on each Q word. Two-body items merge the two
    conjugate orderings of each unordered QQ pair; pairs whose phases are
    imaginary cancel exactly and are dropped here once and for all.
    """
    words = _q_words(n)
    triples = list(words.keys())
    ob_words = []
    ob_i = []
    ob_j = []
    ob_sign = []
    for (i, j, s) in triples:
        word, ph = words[(i, j, s)]
        if abs(ph.imag) > 1e-12:
            raise AssertionError("Q word phase must be real")
        ob_words.append(word)
        ob_i.append(i - 1)
        ob_j.append(j - 1)
        ob_sign.append(0.5 * ph.real)
    tb_words = []
    tb_idx = [[], [], [], []]
    tb_weight = []
    for a in range(len(triples)):
        i, j, s = triples[a]
        w1, p1 = words[triples[a]]
        for b in range(a + 1, len(triples)):
            k, l, t = triples[b]
            w2, p2 = words[triples[b]]
            word, mph = w1 * w2
            tot = p1 * p2 * mph
            re = tot.real
            if abs(re) < 1e-12:
                continue
            tb_words.append(word)
            tb_idx[0].append(i - 1)
            tb_idx[1].append(j - 1)
            tb_idx[2].append(k - 1)
            tb_idx[3].append(l - 1)
            tb_weight.append(0.5 * re)
    all_words = ob_words + tb_words
    anti = _anticommutation_matrix(all_words)
    return {
        "words": all_words,
        "ob_i": np.array(ob_i),
        "ob_j": np.array(ob_j),
        "ob_sign": np.array(ob_sign),
        "tb_idx": tuple(np.array(ix) for ix in tb_idx),
        "tb_weight": np.array(tb_weight),
        "anti": anti,
    }


def _anticommutation_matrix(words):
    """Boolean matrix: True where the two words anticommute."""
    m = len(words)
    xs = np.array([w.x_mask for w in words], dtype=np.uint64)
    zs = np.array([w.z_mask for w in words], dtype=np.uint64)
    anti = np.zeros((m, m), dtype=bool)
    step = 512
    for lo in range(0, m, step):
        hi = min(lo + step, m)
        par = np.bitwise_count(xs[lo:hi, None] & zs[None, :]) \
            + np.bitwise_count(zs[lo:hi, None] & xs[None, :])
        anti[lo:hi] = (par & 1).astype(bool)
    return anti


def _tensor_items(maj: MajoranaHamiltonian):
    struct = _tensor_item_structure(maj.n_orbitals)
    d_ob = struct["ob_sign"] * maj.h_tilde[struct["ob_i"], struct["ob_j"]]
    d_tb = struct["tb_weight"] * maj.g[struct["tb_idx"]]
    return struct["words"], np.concatenate([d_ob, d_tb]), struct["anti"]


def _sorted_insertion(words, coeffs, anti=None):
    """Greedy grouping: descending |coefficient|, first fully anticommuting
    group wins; ties broken by the word's letter string.
    """
    m = len(words)
    if anti is None:
        anti = _anticommutation_matrix(words)
    order = sorted(range(m), key=lambda q: (-abs(coeffs[q]), str(words[q])))
    group_mask = np.zeros((m, m), dtype=bool)
    groups = []
    for q in order:
        if abs(coeffs[q]) <= COEFF_TOL:
            continue
        ng = len(groups)
        if ng:
            col = group_mask[:ng, q]
            gi = int(np.argmax(col))
            if col[gi]:
                groups[gi].append(q)
                group_mask[gi] &= anti[q]
                continue
        groups.append([q])
        group_mask[ng] = anti[q]
    return groups


def _groups_to_lcu(words, coeffs, groups, n_orbitals, constant, metadata):
    fragments = []
    total = 0.0
    for members in groups:
        d = np.array([coeffs[q] for q in members], dtype=float)
        a_n = float(np.linalg.norm(d))
        angles = givens_chain_angles(d / a_n)
        group = AcGroup(
            words=tuple(words[q] for q in members),
            coeffs=d,
            norm=a_n,
            angles=angles,
        )
        fragments.append(Fragment(a_n, "ac-group", group))
        total += a_n
    metadata = dict(metadata)
    metadata["n_groups"] = len(groups)
    metadata["group_sizes"] = [len(g) for g in groups]
    return LcuDecomposition(
        method="ac",
        n_orbitals=n_orbitals,
        fragments=fragments,
        one_norm=total,
        constant=constant,
        metadata=metadata,
    )


def sorted_insertion_ac(pauli: PauliSum) -> LcuDecomposition:
    """Anticommuting grouping of an explicit qubit operator."""
    if not pauli.is_hermitian():
        raise ValueError("sorted insertion expects a Hermitian operator")
    words = []
    coeffs = []
    for w, c in pauli.terms.items():
        if w.is_identity():
            continue
        words.append(w)
        coeffs.append(c.real)
    coeffs = np.array(coeffs, dtype=float)
    groups = _sorted_insertion(words, coeffs)
    constant = float(pauli.identity_coefficient().real)
    return _groups_to_lcu(words, coeffs, groups, pauli.n_qubits // 2, constant,
                          {"level": "qubit", "n_items": len(words)})


def ac_lcu(maj: MajoranaHamiltonian, level: str = "tensor") -> LcuDecomposition:
    """Anticommuting grouping at either representation level.

    tensor: items are the Q / merged-QQ terms, duplicates kept per index pair.
    qubit: items are the fully combined Pauli terms.
    """
    if level == "qubit":
        from .majorana import pauli_sum_of_hamiltonian

        return sorted_insertion_ac(pauli_sum_of_hamiltonian(maj))
    if level != "tensor":
        raise ValueError("level must be 'tensor' or 'qubit'")
    words, coeffs, anti = _tensor_items(maj)
    groups = _sorted_insertion(words, coeffs, anti)
    constant = maj.h0 + 0.5 * float(np.einsum("ijij->", maj.g))
    return _groups_to_lcu(words, coeffs, groups, maj.n_orbitals, constant,
                          {"level": "tensor", "n_items": len(words)})


def givens_chain_angles(c) -> np.ndarray:
    """Angles of the rotation chain carrying the first element onto c.

    Conjugating the first word by plane rotations with doubled angles yields
    sum_q c_q P_q; the last angle carries the sign of the final component.
    For a single element the chain is empty and the sign stays with the
    stored coefficient.
    """
    c = np.asarray(c, dtype=float)
    if c.ndim != 1 or c.size == 0:
        raise ValueError("expected a nonempty vector")
    nrm = np.linalg.norm(c)
    if abs(nrm - 1.0) > 1e-8:
        raise ValueError("expected a unit vector")
    c = c / nrm
    # the doubled angle has cosine c_j / rho_j and sine rho_{j+1} / rho_j;
    # arctan2 keeps a small tail that arccos of a ratio near 1 would round off
    rho = np.sqrt(np.cumsum(c[::-1] ** 2)[::-1])
    angles = 0.5 * np.arctan2(rho[1:], c[:-1])
    if c.size > 1:
        angles[-1] = 0.5 * np.arctan2(c[-1], c[-2])
    return angles


def reconstruct_chain(angles, size: int) -> np.ndarray:
    """Unit vector produced by the angle chain; inverse of givens_chain_angles
    up to the single-element sign convention.
    """
    out = np.zeros(size)
    prefix = 1.0
    for j in range(size - 1):
        out[j] = prefix * np.cos(2.0 * angles[j])
        prefix *= np.sin(2.0 * angles[j])
    out[size - 1] = prefix
    return out


def naive_ac_phases(group) -> np.ndarray:
    """Cumulative arcsin phases, one per member, in group order.

    The exponential product built from these phases equals i times the
    normalized group operator; renderers divide the global i back out.
    Accepts an AcGroup or a bare coefficient vector.
    """
    coeffs = group.coeffs if isinstance(group, AcGroup) else group
    d = np.asarray(coeffs, dtype=float)
    if d.size and np.linalg.norm(d) < ANGLE_CLAMP:
        raise ValueError("group norm is zero")
    # the doubled phase has sine d_q / partial_q and cosine
    # partial_{q-1} / partial_q; arctan2 keeps the cosine accurate when d_q
    # dominates, where arcsin of a ratio near 1 would round it to zero
    partial = np.sqrt(np.cumsum(d * d))
    before = np.concatenate(([0.0], partial[:-1]))
    return 0.5 * np.arctan2(d, before)


@dataclass
class OrbitalRotation:
    """Result of 1-norm minimization over real orbital rotations."""
    angles: np.ndarray
    matrix: np.ndarray
    objective: str
    initial_one_norm: float
    one_norm: float
    evaluations: int
    converged: bool


def rotation_pairs(n: int):
    return [(i, j) for i in range(1, n) for j in range(i)]


def rotation_from_angles(angles, n: int) -> np.ndarray:
    """Product of plane rotations over all index pairs, in a fixed order."""
    pairs = rotation_pairs(n)
    if len(angles) != len(pairs):
        raise ValueError(f"expected {len(pairs)} angles for {n} orbitals")
    u = np.eye(n)
    for (i, j), theta in zip(pairs, angles):
        c, s = np.cos(theta), np.sin(theta)
        g = np.eye(n)
        g[j, j] = c
        g[i, i] = c
        g[j, i] = s
        g[i, j] = -s
        u = u @ g
    return u


def rotate_two_body(g: np.ndarray, u: np.ndarray) -> np.ndarray:
    out = g
    for _ in range(4):
        out = np.tensordot(out, u, axes=([0], [0]))
    return out


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


def localizing_rotation(g: np.ndarray, sweeps: int = 8,
                        tol: float = 1e-10) -> np.ndarray:
    """Pairwise-rotation localization maximizing the self-repulsion
    sum_i g_iiii, which needs nothing beyond the two-electron tensor.

    Concentrated orbitals empty most of the tensor, so this is a strong seed
    for 1-norm minimization on extended systems where searches started at the
    delocalized frame stall.
    """
    n = g.shape[0]
    g = g.copy()
    u = np.eye(n)
    for _ in range(sweeps):
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
                if gain > tol:
                    total_gain += gain
                    c, s = np.cos(res.x), np.sin(res.x)
                    rot = np.eye(n)
                    rot[j, j] = c
                    rot[i, i] = c
                    rot[j, i] = s
                    rot[i, j] = -s
                    u = u @ rot
                    g = rotate_two_body(g, rot)
        if total_gain < tol:
            break
    return u


def rotate_hamiltonian(maj: MajoranaHamiltonian, u: np.ndarray) -> MajoranaHamiltonian:
    """Same operator in rotated orbitals; h0 and both folds are covariant."""
    return MajoranaHamiltonian(
        n_orbitals=maj.n_orbitals,
        h0=maj.h0,
        h_tilde=u.T @ maj.h_tilde @ u,
        g=rotate_two_body(maj.g, u),
    )


def _angle_sweeps(evaluate, best_val, best_angles, budget, counter, converged,
                  max_sweeps: int = 40):
    """Coordinate descent over the plane-rotation angles, one at a time.

    Direction-set search stalls in high dimension; sweeping the angles
    individually with a bounded scalar minimizer reliably pulls the rotation
    the rest of the way down, the same way pairwise-rotation localization
    sweeps do.
    """
    n_angles = best_angles.size
    tol = 1e-9 * max(abs(best_val), 1.0)
    for _ in range(max_sweeps):
        if budget is not None and counter["evals"] >= budget:
            return best_val, best_angles, False
        sweep_start = best_val
        for k in range(n_angles):
            center = best_angles[k]

            def line(theta):
                trial = best_angles.copy()
                trial[k] = theta
                return evaluate(trial)

            opts = {"xatol": 1e-8}
            if budget is not None:
                opts["maxiter"] = max(budget - counter["evals"], 3)
            res = minimize_scalar(
                line, bounds=(center - np.pi / 2, center + np.pi / 2),
                method="bounded", options=opts)
            if res.fun < best_val:
                best_val = float(res.fun)
                best_angles = best_angles.copy()
                best_angles[k] = float(res.x)
            if budget is not None and counter["evals"] >= budget:
                return best_val, best_angles, False
        if sweep_start - best_val < tol:
            break
    return best_val, best_angles, converged


def orbital_optimize(mol, objective: str = "pauli", budget: int = None,
                     restarts: int = 3, seed: int = 7):
    """Minimize the chosen 1-norm over SO(N) by direction-set search
    followed by coordinate sweeps over the individual plane-rotation angles.

    Starts from the identity, from a self-repulsion-localized frame, and
    from seeded random angle sets; the result is never worse than the
    unrotated tensors. budget caps objective evaluations; exhausting it
    clears the converged flag. Returns the rotation together with the
    rotated integrals.
    """
    from .integrals import MolecularIntegrals
    from .majorana import build_majorana

    maj = build_majorana(mol)
    n = maj.n_orbitals
    n_angles = len(rotation_pairs(n))
    counter = {"evals": 0}

    if objective == "pauli":
        def evaluate(angles):
            counter["evals"] += 1
            u = rotation_from_angles(angles, n)
            ht = u.T @ maj.h_tilde @ u
            return float(np.abs(ht).sum() + np.abs(rotate_two_body(maj.g, u)).sum())
    elif objective == "ac":
        struct = _tensor_item_structure(n)
        anti = struct["anti"]
        words = struct["words"]

        def evaluate(angles):
            counter["evals"] += 1
            u = rotation_from_angles(angles, n)
            ht = u.T @ maj.h_tilde @ u
            g = rotate_two_body(maj.g, u)
            d_ob = struct["ob_sign"] * ht[struct["ob_i"], struct["ob_j"]]
            d_tb = struct["tb_weight"] * g[struct["tb_idx"]]
            coeffs = np.concatenate([d_ob, d_tb])
            groups = _sorted_insertion(words, coeffs, anti)
            return float(sum(np.linalg.norm(coeffs[np.array(members)])
                             for members in groups))
    else:
        raise ValueError("objective must be 'pauli' or 'ac'")

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
        best_val, best_angles, converged = _angle_sweeps(
            evaluate, best_val, best_angles, budget, counter, converged)
        if budget is not None and counter["evals"] >= budget:
            converged = False
    if best_val > baseline:
        best_val = baseline
        best_angles = np.zeros(n_angles)
    u = rotation_from_angles(best_angles, n)
    rotated = MolecularIntegrals(
        n_orbitals=n,
        core_energy=mol.core_energy,
        one_body=u.T @ mol.one_body @ u,
        two_body=rotate_two_body(mol.two_body, u),
    )
    rotation = OrbitalRotation(
        angles=best_angles,
        matrix=u,
        objective=objective,
        initial_one_norm=baseline,
        one_norm=best_val,
        evaluations=counter["evals"],
        converged=converged,
    )
    return rotation, rotated
