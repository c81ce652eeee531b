"""Reference quantities computed without `fermilcu`.

The FCIDUMP file is read again here, and the Hamiltonian is built from
ladder operators acting on occupation bit strings. No Majorana or Pauli
algebra is involved, so these figures cannot share a fault with the
package's Jordan-Wigner path.

Conventions match the package's qubit layout so that matrices can be
compared entry by entry: spin orbital P = 2p + sigma sits on qubit P, qubit 0
is the most significant bit of the basis index, and an occupied orbital is a
set bit.
"""
from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_matrix, identity
from scipy.sparse.linalg import eigsh

# Lanczos and dense diagonalization are used up to this many qubits;
# beyond it the half range is bounded below from two determinants.
EXACT_MAX_QUBITS = 14


@dataclass(frozen=True)
class Integrals:
    """Raw file content: scalar constant, core one-body t and (pq|rs)."""
    norb: int
    nelec: int
    constant: float
    t: np.ndarray
    eri: np.ndarray


def read_fcidump(path) -> Integrals:
    """Minimal FCIDUMP reader: header NORB/NELEC, then 'value i j k l' lines."""
    text = open(path).read()
    upper = text.upper()
    end = upper.index("&END")
    header = upper[:end].replace("&FCI", " ")
    fields = {}
    for chunk in header.split(","):
        key, sep, value = chunk.partition("=")
        if sep:
            fields[key.strip()] = value.strip()
    norb = int(fields["NORB"])
    nelec = int(fields["NELEC"])
    t = np.zeros((norb, norb))
    eri = np.zeros((norb, norb, norb, norb))
    constant = 0.0
    for line in text[end:].splitlines()[1:]:
        parts = line.split()
        if len(parts) != 5:
            continue
        value = float(parts[0].replace("D", "E").replace("d", "e"))
        i, j, k, l = (int(x) - 1 for x in parts[1:])
        if i < 0:
            constant = value
        elif k < 0:
            t[i, j] = t[j, i] = value
        else:
            for a, b in ((i, j), (j, i)):
                for c, d in ((k, l), (l, k)):
                    eri[a, b, c, d] = eri[c, d, a, b] = value
    return Integrals(norb, nelec, constant, t, eri)


def _parity(values: np.ndarray) -> np.ndarray:
    """(-1) ** popcount, elementwise."""
    return 1.0 - 2.0 * (np.bitwise_count(values) & 1)


def _excitation(p: int, q: int, nq: int) -> csr_matrix:
    """a+_P a_Q on the full Fock space of nq spin orbitals."""
    dim = 1 << nq
    states = np.arange(dim, dtype=np.int64)
    bit_q = 1 << (nq - 1 - q)
    bit_p = 1 << (nq - 1 - p)
    above_q = ~((bit_q << 1) - 1) & (dim - 1)
    above_p = ~((bit_p << 1) - 1) & (dim - 1)
    occupied = (states & bit_q) != 0
    mid = states[occupied] ^ bit_q
    sign = _parity(states[occupied] & above_q)
    free = (mid & bit_p) == 0
    mid, sign = mid[free], sign[free]
    sign = sign * _parity(mid & above_p)
    cols = states[occupied][free]
    return csr_matrix((sign, (mid | bit_p, cols)), shape=(dim, dim))


def ladder_hamiltonian(ints: Integrals) -> csr_matrix:
    """H = c + sum t_pq E_pq + 1/2 sum (pq|rs) (E_pq E_rs - delta_qr E_ps),
    with E_pq = sum_sigma a+_{p sigma} a_{q sigma}."""
    n = ints.norb
    nq = 2 * n
    dim = 1 << nq
    e = {(p, q): _excitation(2 * p, 2 * q, nq) + _excitation(2 * p + 1, 2 * q + 1, nq)
         for p in range(n) for q in range(n)}
    one_body = ints.t - 0.5 * np.einsum("pqqs->ps", ints.eri)
    h = ints.constant * identity(dim, format="csr")
    for (p, q), epq in e.items():
        if one_body[p, q] != 0.0:
            h = h + one_body[p, q] * epq
    for (p, q), epq in e.items():
        w = None
        for (r, s), ers in e.items():
            v = 0.5 * ints.eri[p, q, r, s]
            if v != 0.0:
                w = v * ers if w is None else w + v * ers
        if w is not None:
            h = h + epq @ w
    return h.tocsr()


def determinant_energy(ints: Integrals, occ: np.ndarray) -> float:
    """Slater-Condon diagonal element of one determinant; occ is a 0/1
    vector over spin orbitals P = 2p + sigma."""
    n = ints.norb
    spatial = np.repeat(np.arange(n), 2)
    spin = np.tile([0, 1], n)
    idx = np.flatnonzero(occ)
    p, s = spatial[idx], spin[idx]
    coulomb = ints.eri[p[:, None], p[:, None], p[None, :], p[None, :]]
    exchange = ints.eri[p[:, None], p[None, :], p[None, :], p[:, None]]
    pair = coulomb - (s[:, None] == s[None, :]) * exchange
    np.fill_diagonal(pair, 0.0)
    return float(ints.constant + ints.t[p, p].sum() + 0.5 * pair.sum())


def _local_extreme(ints: Integrals, occ: np.ndarray, sign: float) -> float:
    """Single-flip descent on sign * energy; returns the energy reached."""
    occ = occ.copy()
    best = determinant_energy(ints, occ)
    improved = True
    while improved:
        improved = False
        for k in range(occ.size):
            occ[k] ^= 1
            trial = determinant_energy(ints, occ)
            if sign * trial < sign * best - 1e-12:
                best = trial
                improved = True
            else:
                occ[k] ^= 1
    return best


def determinant_half_range(ints: Integrals) -> float:
    """(E_a - E_b) / 2 for a low and a high determinant.

    Each diagonal element lies inside [E_min, E_max], so this is a lower
    bound on the half spectral range. The low one descends from the aufbau
    filling of the core diagonal, the high one ascends from the full filling.
    """
    nq = 2 * ints.norb
    order = np.argsort(np.repeat(np.diag(ints.t), 2), kind="stable")
    aufbau = np.zeros(nq, dtype=np.int64)
    aufbau[order[:ints.nelec]] = 1
    low = _local_extreme(ints, aufbau, 1.0)
    high = _local_extreme(ints, np.ones(nq, dtype=np.int64), -1.0)
    return 0.5 * (high - low)


@dataclass(frozen=True)
class Reference:
    """Half spectral range, exact or as a determinant lower bound."""
    half_range: float
    exact: bool


def reference_half_range(ints: Integrals, seed: int,
                         matrix: csr_matrix = None) -> Reference:
    """Lanczos starts from a seeded random vector."""
    nq = 2 * ints.norb
    if nq > EXACT_MAX_QUBITS:
        return Reference(determinant_half_range(ints), False)
    h = ladder_hamiltonian(ints) if matrix is None else matrix
    if nq <= 8:
        eigs = np.linalg.eigvalsh(h.toarray())
        return Reference(0.5 * float(eigs[-1] - eigs[0]), True)
    v0 = np.random.default_rng(seed).normal(size=h.shape[0])
    lo = eigsh(h, k=1, which="SA", v0=v0, return_eigenvectors=False)[0]
    hi = eigsh(h, k=1, which="LA", v0=v0, return_eigenvectors=False)[0]
    return Reference(0.5 * float(hi - lo), True)
