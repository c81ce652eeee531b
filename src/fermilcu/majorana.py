"""Majorana/Pauli operator algebra and the Hamiltonian's operator split.

The Hamiltonian separates into a constant h0, a two-Majorana part weighted by
h_tilde_ij = h_ij + 2 sum_k g_ijkk, and a four-Majorana part weighted by g.
Reflection operators Q_ij, built from Majorana pairs, carry the coefficients
h_tilde/2 (per spin) and g/4 (per spin pair). Under Jordan-Wigner with
interleaved spin orbitals, gamma_{j sigma, m} acts on qubit p = 2(j-1) +
sigma + 1 as Z...Z X (m = 0) or Z...Z Y (m = 1); `reflection_table` builds
every Q from that rule.

Pauli words are stored as X/Z bitmasks, bit q for qubit q+1; commutation is
the parity of the symplectic inner product. With Y = iXZ, the product of two
words is the word (x1^x2, z1^z2) times i^k with
k = |x1&z1| + |x2&z2| - |x3&z3| + 2|z1&x2| (Aaronson and Gottesman, PRA 70,
052328, 2004).

Sums of words have one form, the array form: packed uint64 X and Z masks and
complex coefficients in parallel arrays. `word_products` multiplies word
arrays elementwise (with broadcasting), `expand_reflections` lists the Q and
ordered QQ terms of any spin-resolved weights (`hamiltonian_weights`: the
Hamiltonian's, which `reflection_terms` expands), and `combine_terms` sums
like terms by sorting their masks.
`sparse_matrix` assembles the matrix of a sum one X mask at a time, and
`sector_matrix` the blocks of chosen (n_alpha, n_beta) sectors with the
same row-vector kernel restricted to those sectors' states, without the
2^nq-row matrix; a sum that conserves both electron counts, as every
Hamiltonian here does, is block diagonal over the sectors.
`PauliSum` is the combined record of such a sum; `PauliSum.from_arrays`
builds it and is the one place where terms below PRUNE_TOL are dropped.
`combine_terms` packs a word into one 64-bit key, so like terms combine on at
most 32 qubits. `PauliWord` is the frozen record of one word, (n_qubits,
x_mask, z_mask), that the fragment views of `lcu` hold; it has no algebra,
so `word_products` is the package's one Pauli product. The single-word
algebra and the Kronecker matrix the tests compare against live in
tests/reference.py, independent of `word_products`.

Grouping uses one more array form: `word_sort_keys` maps a word to an
integer ordered as its letter string. The symplectic product is bilinear
over GF(2), so the anticommutation row of a product word w1 w2 is the XOR
of the rows of w1 and w2. The tensor-level AC grouping
(`qubit_lcu._tensor_item_structure`) relies on this: it keeps only the two
Majoranas of each of the 2N^2 reflection words, and each grouping packs,
per Majorana, the items in rank order that hold it, and per reflection word
the XOR of its two Majoranas' rows, not one row per item. Sorted insertion
then runs group-major, each group a greedy scan over the items no earlier
group took; placing the items one at a time in rank order gives the same
groups (`qubit_lcu`).
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

PRUNE_TOL = 1e-14

# i**k for k = 0..3, indexed by the phase exponent of a word product
_I_POWERS = np.array([1, 1j, -1, -1j])
# combine_terms packs a word into one sort key, X mask above Z mask
_HALF = np.uint64(32)
_LOW = np.uint64(0xFFFFFFFF)


@dataclass(frozen=True)
class PauliWord:
    """Pauli letters over n_qubits, phase-free; I=(0,0) X=(1,0) Y=(1,1)
    Z=(0,1) in bit q of (x_mask, z_mask) for qubit q+1."""
    n_qubits: int
    x_mask: int
    z_mask: int


def _popcount(masks) -> np.ndarray:
    # bitwise_count returns uint8, which wraps under subtraction: widen first
    return np.bitwise_count(masks).astype(np.int64)


def word_products(x1, z1, x2, z2):
    """Elementwise products of packed words, broadcasting like numpy.

    Returns (x, z, phase): the product word's masks and its phase in
    {1, i, -1, -i}.
    """
    x = x1 ^ x2
    z = z1 ^ z2
    k = (_popcount(x1 & z1) + _popcount(x2 & z2) - _popcount(x & z)
         + 2 * _popcount(z1 & x2))
    return x, z, _I_POWERS[k & 3]


def word_sort_keys(x, z, n_qubits: int) -> np.ndarray:
    """uint64 keys that order words as their letter strings do: one digit
    2z + (x ^ z) per qubit (I, X, Y, Z = 0..3), qubit 1 most significant."""
    if n_qubits > 32:
        raise ValueError("sort keys limited to 32 qubits")
    key = np.zeros(np.shape(x), dtype=np.uint64)
    for q in range(n_qubits):
        xq, zq = (x >> q) & 1, (z >> q) & 1
        key = (key << 2) | (zq << 1) | (xq ^ zq)
    return key


def combine_terms(x, z, coeffs):
    """Sum the coefficients of equal words; nothing is dropped.

    Words come back sorted by (x, z), packed into one 64-bit sort key. The
    sort is stable, so every sum is taken in the order its terms arrived,
    and concatenated sorted runs merge in close to linear time.
    """
    coeffs = np.asarray(coeffs, dtype=complex)
    if x.size == 0:
        return x, z, coeffs
    if np.any((x | z) >> _HALF):
        raise ValueError("array form limited to 32 qubits")
    key = (x << _HALF) | z
    order = np.argsort(key, kind="stable")
    key, coeffs = key[order], coeffs[order]
    first = np.empty(key.size, dtype=bool)
    first[0] = True
    np.not_equal(key[1:], key[:-1], out=first[1:])
    group = np.cumsum(first) - 1
    total = (np.bincount(group, weights=coeffs.real)
             + 1j * np.bincount(group, weights=coeffs.imag))
    key = key[first]
    return key >> _HALF, key & _LOW, total


@dataclass(frozen=True, eq=False)
class PauliSum:
    """sum_t coeffs[t] * word (x[t], z[t]) over n_qubits: distinct words in
    combine_terms order, none with |coefficient| below PRUNE_TOL. Build one
    with from_arrays."""
    n_qubits: int
    x: np.ndarray
    z: np.ndarray
    coeffs: np.ndarray

    def __len__(self) -> int:
        return self.x.size

    @classmethod
    def from_arrays(cls, n_qubits: int, x, z, coeffs) -> "PauliSum":
        """Sum of coeffs[t] * word (x[t], z[t]), like terms combined and
        sums below PRUNE_TOL dropped."""
        x, z, coeffs = combine_terms(x, z, coeffs)
        keep = np.abs(coeffs) >= PRUNE_TOL
        return cls(n_qubits, x[keep], z[keep], coeffs[keep])


@dataclass(frozen=True)
class MajoranaHamiltonian:
    """Constant / two-Majorana / four-Majorana split of the Hamiltonian."""
    n_orbitals: int
    h0: float
    h_tilde: np.ndarray
    g: np.ndarray

    def __post_init__(self):
        if np.abs(self.h_tilde - self.h_tilde.T).max() > 1e-10:
            raise ValueError("h_tilde not symmetric")


def build_majorana(mol) -> MajoranaHamiltonian:
    """Split MolecularIntegrals into the constant/quadratic/quartic parts."""
    h = mol.one_body
    g = mol.two_body
    h0 = float(np.trace(h) + np.einsum("iijj->", g) + mol.core_energy)
    h_tilde = h + 2.0 * np.einsum("ijkk->ij", g)
    return MajoranaHamiltonian(n_orbitals=mol.n_orbitals, h0=h0,
                               h_tilde=h_tilde, g=g)


@lru_cache(maxsize=None)
def reflection_table(n_orbitals: int):
    """(x, z, coeff) of every Q_ij,sigma = i gamma_{i sigma,0} gamma_{j sigma,1},
    each shaped (N, N, 2) and indexed [i-1, j-1, sigma]. The cached arrays
    are read-only."""
    one = np.uint64(1)
    qubit = (2 * np.arange(n_orbitals)[:, None] + np.arange(2)).astype(np.uint64)
    bit = one << qubit
    # gamma_{i sigma, 0} = Z...Z X and gamma_{j sigma, 1} = Z...Z Y on qubit p
    x, z, phase = word_products(bit[:, None, :], (bit - one)[:, None, :],
                                bit[None, :, :], ((bit - one) | bit)[None, :, :])
    table = (x, z, 1j * phase)
    for array in table:
        array.flags.writeable = False
    return table


def expand_reflections(n_orbitals: int, one, two):
    """Terms of sum_a one_a Q_a + sum_ab two_ab Q_a Q_b before like terms
    combine, for a spin-resolved coefficient set: one holds 2N^2 weights on
    the words Q_a, a = (i, j, sigma) row-major, and two a (2N^2, 2N^2) matrix
    on the ordered products. Returns (x, z, c) of the Q_a and of the Q_a Q_b,
    the latter shaped (2N^2, 2N^2)."""
    qx, qz, qc = (a.ravel() for a in reflection_table(n_orbitals))
    x, z, phase = word_products(qx[:, None], qz[:, None], qx[None, :], qz[None, :])
    return ((qx, qz, one * qc),
            (x, z, two * qc[:, None] * qc[None, :] * phase))


def hamiltonian_weights(maj: MajoranaHamiltonian):
    """Spin-resolved weights (one, two) of H - h0 for expand_reflections:
    h_tilde_ij / 2 on every Q_ij,sigma and g_ijkl / 4 on every ordered
    Q_ij,sigma Q_kl,tau."""
    n = maj.n_orbitals
    h_q = np.repeat(maj.h_tilde.ravel(), 2)
    g_qq = np.repeat(np.repeat(maj.g.reshape(n * n, n * n), 2, axis=0), 2, axis=1)
    return 0.5 * h_q, 0.25 * g_qq


def reflection_terms(maj: MajoranaHamiltonian):
    """Terms of H = h0 + (1/2) sum h_tilde_ij Q_ij,sigma
    + (1/4) sum g_ijkl Q_ij,sigma Q_kl,tau before like terms combine, as
    expand_reflections lists them."""
    return expand_reflections(maj.n_orbitals, *hamiltonian_weights(maj))


def pauli_sum_of_hamiltonian(maj: MajoranaHamiltonian) -> PauliSum:
    """Fully multiplied-out qubit operator with like terms combined; the
    array form's 32 qubits (N <= 16) are its only size limit."""
    n = maj.n_orbitals
    (qx, qz, c1), (x, z, c2) = reflection_terms(maj)
    zero = np.zeros(1, dtype=np.uint64)
    x, z, c = combine_terms(np.concatenate([zero, qx, x.ravel()]),
                            np.concatenate([zero, qz, z.ravel()]),
                            np.concatenate([[maj.h0], c1, c2.ravel()]))
    # Hermiticity: imaginary parts cancel between conjugate index pairs
    if np.abs(c.imag).max() > 1e-9:
        raise AssertionError("qubit operator failed to come out Hermitian")
    return PauliSum.from_arrays(2 * n, x, z, c.real)


def dense_matrix(op: PauliSum) -> np.ndarray:
    """Dense matrix of a PauliSum, from sparse_matrix, so it is real when
    every entry is; guard 2N <= 16. tests/reference.py has the independent
    Kronecker form of a word."""
    if op.n_qubits > 16:
        raise ValueError("dense path limited to 16 qubits")
    return sparse_matrix(op).toarray()


def _reverse_bits(masks, n_bits: int):
    out = np.zeros_like(masks)
    for q in range(n_bits):
        out |= ((masks >> np.uint64(q)) & np.uint64(1)) << np.uint64(n_bits - 1 - q)
    return out


def _parity_signs(masks, states):
    """(-1)^|m & s| for every mask m (rows) and every state s (columns)."""
    parity = np.bitwise_count(masks[:, None] & states[None, :]) & 1
    return 1.0 - 2.0 * parity.astype(np.float64)


def _row_block(z_a, z_b, coeffs, states_a, states_b, signs=_parity_signs):
    """The X-group row vector v(r) = sum_t c_t (-1)^|z_t & r| on a grid of
    rows r = (a, b), a in states_a and b in states_b, where r and every z_t
    split into the same two disjoint bit sets (z_t into z_a and z_b): the
    sign factors, so the grid is one matrix product. signs(masks, states)
    gives the factors, as _parity_signs computes them."""
    return (signs(z_a, states_a).T * coeffs) @ signs(z_b, states_b)


def _x_groups(op: PauliSum):
    """The terms in row form, grouped by X mask: (x, z, coeffs, groups).

    Qubit 1 is the leftmost Kronecker factor, so mask bit q becomes bit
    nq-1-q of a basis-state index. Row r of a word holds i^-|x&z| (-1)^|z&r|
    at column r ^ x, so each coefficient takes the phase i^-|x&z|, and the
    words of one X mask, a (start, stop) slice in groups, fill one row
    vector (_row_block).
    """
    nq = op.n_qubits
    x, z = _reverse_bits(op.x, nq), _reverse_bits(op.z, nq)
    coeffs = op.coeffs * _I_POWERS[-_popcount(x & z) & 3]
    if not np.any(coeffs.imag):
        coeffs = coeffs.real
    order = np.argsort(x, kind="stable")
    x, z, coeffs = x[order], z[order], coeffs[order]
    starts = np.flatnonzero(np.r_[True, x[1:] != x[:-1]])
    return x, z, coeffs, list(zip(starts, np.r_[starts[1:], x.size]))


def _csr_from_groups(counts, entries, groups, dim: int, dtype):
    """CSR matrix from each X group's (rows, cols, values), which
    entries(start, stop) returns with distinct rows; counts holds the
    number of entries of every row over all groups, so the matrix is
    written once, in place, group by group."""
    from scipy.sparse import csr_matrix

    indptr = np.zeros(dim + 1, dtype=np.int64)
    indptr[1:] = counts
    np.cumsum(indptr, out=indptr)
    index_type = np.int32 if indptr[-1] <= np.iinfo(np.int32).max else np.int64
    indptr = indptr.astype(index_type)
    indices = np.empty(indptr[-1], dtype=index_type)
    data = np.empty(indptr[-1], dtype=dtype)
    fill = indptr[:-1].copy()
    for lo, hi in groups:
        rows, cols, values = entries(lo, hi)
        at = fill[rows]
        indices[at] = cols
        data[at] = values
        fill[rows] = at + 1
    return csr_matrix((data, indices, indptr), shape=(dim, dim))


def sparse_matrix(op: PauliSum):
    """CSR matrix of a PauliSum, real when every entry is; guard 2N <= 24.

    Each X group's row vector (_x_groups) is taken over all 2^nq rows,
    split into their high and low bits; entries at or below PRUNE_TOL are
    dropped.
    """
    from scipy.sparse import csr_matrix

    nq = op.n_qubits
    if nq > 24:
        raise ValueError("sparse path limited to 24 qubits")
    dim = 1 << nq
    if not len(op):
        return csr_matrix((dim, dim), dtype=complex)
    x, z, coeffs, groups = _x_groups(op)
    n_low = np.uint64(nq // 2)
    low_mask = (np.uint64(1) << n_low) - np.uint64(1)
    high_states = np.arange(1 << (nq - nq // 2), dtype=np.uint64)
    low_states = np.arange(1 << (nq // 2), dtype=np.uint64)

    def entries(lo, hi):
        v = _row_block(z[lo:hi] >> n_low, z[lo:hi] & low_mask, coeffs[lo:hi],
                       high_states, low_states).ravel()
        rows = np.flatnonzero(np.abs(v) > PRUNE_TOL)
        return rows, rows ^ int(x[lo]), v[rows]

    counts = np.zeros(dim, dtype=np.int64)
    for lo, hi in groups:
        counts[entries(lo, hi)[0]] += 1
    return _csr_from_groups(counts, entries, groups, dim, coeffs.dtype)


def _spin_strings(masks, spin: int, n_orbitals: int):
    """The occupations of one spin in row-form masks, as N-bit strings: the
    spin-orbital (i, spin) is mask bit 2i + spin, row bit 2N-1-2i-spin, and
    string bit N-1-i."""
    one = np.uint64(1)
    out = np.zeros_like(masks)
    for k in range(n_orbitals):
        out |= ((masks >> np.uint64(2 * k + 1 - spin)) & one) << np.uint64(k)
    return out


def sector_matrix(op: PauliSum, sectors):
    """Block-diagonal CSR matrix of a PauliSum on the basis states of the
    given (n_alpha, n_beta) sectors, and the block offsets: block k spans
    rows offsets[k] to offsets[k+1]. Alpha electrons sit on qubits 1, 3,
    ..., beta on qubits 2, 4, ..., an occupied spin-orbital on |1>. A
    block's rows are its states in ascending (alpha string, beta string),
    a string reading its orbitals' occupations as a binary number, orbital
    1 most significant. A block is the operator's compression onto its
    sector, the whole operator there when the sum conserves both counts.

    A basis state is a pair of alpha and beta strings, and the sign of a
    Z mask factors over the two, so each X group's row vector is one
    _row_block over the strings whose count its flips keep, computed once;
    the 2^nq-row matrix is never formed. The strings each alpha or beta
    flip mask keeps are listed once per mask, and the signs are read from
    one int8 table of (-1)^|z & s| over the N-bit strings (2^2N bytes).
    Of that grid only the central cells, the rows in the given sectors,
    are written: per group, the grid's row positions are looked up first,
    and every later pass (the PRUNE_TOL zeroing, the extraction and the
    column lookup from the cells' own strings) runs over the central cells
    only. Which cells those are follows from the string classes alone: row
    (a, b) holds one cell of every group whose alpha flips keep the count
    of a and whose beta flips keep the count of b. With P counting the
    groups of each pair of alpha and beta flip masks, and K_a, K_b the
    strings each mask keeps, the row counts are K_a^T P K_b, and each
    group's grid is built once, for its values. Every central cell is
    written, those at or below PRUNE_TOL as 0, and eliminate_zeros drops
    them, as sparse_matrix drops them.
    """
    n = op.n_qubits // 2
    strings = np.arange(1 << n, dtype=np.uint64)
    counts = np.bitwise_count(strings)
    position = np.full((1 << n, 1 << n), -1, dtype=np.int64)
    offsets = [0]
    for n_alpha, n_beta in sectors:
        alpha, beta = strings[counts == n_alpha], strings[counts == n_beta]
        position[np.ix_(alpha, beta)] = offsets[-1] + np.arange(
            alpha.size * beta.size).reshape(alpha.size, beta.size)
        offsets.append(offsets[-1] + alpha.size * beta.size)
    if not len(op):
        return _csr_from_groups(0, None, [], offsets[-1], float), offsets
    x, z, coeffs, groups = _x_groups(op)
    x_a, x_b = _spin_strings(x, 0, n), _spin_strings(x, 1, n)
    z_a, z_b = _spin_strings(z, 0, n), _spin_strings(z, 1, n)
    # P and K_a, K_b of the docstring; float products of counts are exact
    firsts = [lo for lo, _ in groups]
    (flips_a, class_a), (flips_b, class_b) = (
        np.unique(flips[firsts], return_inverse=True) for flips in (x_a, x_b))
    pairs = np.zeros((flips_a.size, flips_b.size))
    np.add.at(pairs, (class_a, class_b), 1.0)
    keep_a, keep_b = (counts[strings ^ flips[:, None]] == counts
                      for flips in (flips_a, flips_b))
    row_counts = np.zeros(offsets[-1], dtype=np.int64)
    central = position >= 0
    row_counts[position[central]] = (
        keep_a.T.astype(float) @ pairs @ keep_b.astype(float))[central]
    kept_a, kept_b = ([strings[k] for k in keep] for keep in (keep_a, keep_b))
    kept = {lo: (kept_a[a], kept_b[b])
            for lo, a, b in zip(firsts, class_a, class_b)}
    sign_table = _parity_signs(strings, strings).astype(np.int8)
    # a cell's string pair (a, b) as one index a 2^N + b, so a cell's column
    # is its index XOR the group's flips
    shift = np.uint64(n)
    position = position.ravel()
    flips = (x_a << shift) | x_b

    def signs(masks, states):
        return sign_table[masks[:, None], states]

    def entries(lo, hi):
        rows_a, rows_b = kept[lo]
        cells = ((rows_a[:, None] << shift) | rows_b).ravel()
        rows = position[cells]
        central = np.flatnonzero(rows >= 0)
        v = _row_block(z_a[lo:hi], z_b[lo:hi], coeffs[lo:hi], rows_a, rows_b,
                       signs).ravel()[central]
        v[np.abs(v) <= PRUNE_TOL] = 0
        return rows[central], position[cells[central] ^ flips[lo]], v

    matrix = _csr_from_groups(row_counts, entries, groups, offsets[-1],
                              coeffs.dtype)
    matrix.eliminate_zeros()
    return matrix, offsets
