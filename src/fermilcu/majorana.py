"""Majorana/Pauli operator algebra and the Hamiltonian's operator split.

The Hamiltonian separates into a constant h0, a two-Majorana part weighted by
h_tilde_ij = h_ij + 2 sum_k g_ijkk, and a four-Majorana part weighted by g.
Reflection operators Q_ij, built from Majorana pairs, carry the coefficients
h_tilde/2 (per spin) and g/4 (per spin pair).

Pauli words are stored as X/Z bitmasks, bit q for qubit q+1; commutation is
the parity of the symplectic inner product. With Y = iXZ, the product of two
words is the word (x1^x2, z1^z2) times i^k with
k = |x1&z1| + |x2&z2| - |x3&z3| + 2|z1&x2| (Aaronson and Gottesman, PRA 70,
052328, 2004).

Bulk work runs on the array form of the same algebra: a set of terms is three
parallel arrays, packed uint64 X and Z masks and complex coefficients.
`word_products` multiplies word arrays elementwise (with broadcasting),
`combine_terms` sums like terms by sorting their masks, and `sparse_matrix`
assembles the matrix of a sum one X mask at a time. `PauliSum` keeps the
dictionary form for small operators; `PauliSum.from_arrays` and
`PauliSum.arrays` convert between the two. `combine_terms` packs a word into
one 64-bit key, so like terms combine on at most 32 qubits.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

PRUNE_TOL = 1e-14

_LETTERS = {(0, 0): "I", (1, 0): "X", (1, 1): "Y", (0, 1): "Z"}
# i**k for k = 0..3, indexed by the phase exponent of a word product
_I_POWERS = np.array([1, 1j, -1, -1j])
# combine_terms packs a word into one sort key, X mask above Z mask
_HALF = np.uint64(32)
_LOW = np.uint64(0xFFFFFFFF)

_PAULI_MATS = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


@dataclass(frozen=True)
class PauliWord:
    """Pauli letters over n_qubits, phase-free; I=(0,0) X=(1,0) Y=(1,1) Z=(0,1)."""
    n_qubits: int
    x_mask: int
    z_mask: int

    def letter(self, q: int) -> str:
        return _LETTERS[((self.x_mask >> q) & 1, (self.z_mask >> q) & 1)]

    def letters(self) -> tuple:
        return tuple(self.letter(q) for q in range(self.n_qubits))

    def __str__(self) -> str:
        return " ".join(self.letters())

    def is_identity(self) -> bool:
        return self.x_mask == 0 and self.z_mask == 0

    def weight(self) -> int:
        return (self.x_mask | self.z_mask).bit_count()

    def commutes_with(self, other: "PauliWord") -> bool:
        """Parity of the symplectic inner product decides (anti)commutation."""
        parity = (self.x_mask & other.z_mask).bit_count() \
            + (self.z_mask & other.x_mask).bit_count()
        return parity % 2 == 0

    def __mul__(self, other: "PauliWord"):
        """Returns (word, phase) with phase in {1, -1, i, -i}."""
        if self.n_qubits != other.n_qubits:
            raise ValueError("qubit count mismatch")
        x = self.x_mask ^ other.x_mask
        z = self.z_mask ^ other.z_mask
        k = ((self.x_mask & self.z_mask).bit_count()
             + (other.x_mask & other.z_mask).bit_count()
             - (x & z).bit_count()
             + 2 * (self.z_mask & other.x_mask).bit_count())
        return PauliWord(self.n_qubits, x, z), complex(_I_POWERS[k % 4])

    def dense(self) -> np.ndarray:
        """Kronecker composition, qubit 1 as the leftmost factor."""
        out = np.array([[1.0 + 0j]])
        for q in range(self.n_qubits):
            out = np.kron(out, _PAULI_MATS[self.letter(q)])
        return out


def identity_word(n_qubits: int) -> PauliWord:
    return PauliWord(n_qubits, 0, 0)


def word_from_letters(letters) -> PauliWord:
    if isinstance(letters, str):
        letters = letters.split()
    x = z = 0
    for q, letter in enumerate(letters):
        if letter == "X":
            x |= 1 << q
        elif letter == "Y":
            x |= 1 << q
            z |= 1 << q
        elif letter == "Z":
            z |= 1 << q
        elif letter != "I":
            raise ValueError(f"unknown Pauli letter {letter!r}")
    return PauliWord(len(letters), x, z)


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


def combine_terms(x, z, coeffs):
    """Sum the coefficients of equal words and drop sums below PRUNE_TOL.

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
    keep = np.abs(total) >= PRUNE_TOL
    key = key[first][keep]
    return key >> _HALF, key & _LOW, total[keep]


@dataclass
class PauliSum:
    """Map from PauliWord to complex coefficient, pruned below 1e-14."""
    n_qubits: int
    terms: dict = field(default_factory=dict)

    def add(self, word: PauliWord, coeff: complex) -> None:
        c = self.terms.get(word, 0j) + coeff
        if abs(c) < PRUNE_TOL:
            self.terms.pop(word, None)
        else:
            self.terms[word] = c

    def one_norm(self, include_identity: bool = False) -> float:
        return float(sum(abs(c) for w, c in self.terms.items()
                         if include_identity or not w.is_identity()))

    def without_identity(self) -> "PauliSum":
        out = PauliSum(self.n_qubits)
        out.terms = {w: c for w, c in self.terms.items() if not w.is_identity()}
        return out

    def identity_coefficient(self) -> complex:
        return self.terms.get(identity_word(self.n_qubits), 0j)

    def is_hermitian(self, tol: float = 1e-10) -> bool:
        return all(abs(c.imag) <= tol for c in self.terms.values())

    def __len__(self) -> int:
        return len(self.terms)

    @classmethod
    def from_arrays(cls, n_qubits: int, x, z, coeffs) -> "PauliSum":
        """Sum of coeffs[t] * word (x[t], z[t]), like terms combined."""
        x, z, coeffs = combine_terms(x, z, coeffs)
        out = cls(n_qubits)
        out.terms = {PauliWord(n_qubits, int(xm), int(zm)): complex(c)
                     for xm, zm, c in zip(x.tolist(), z.tolist(), coeffs)}
        return out

    def arrays(self):
        """(x, z, coeffs): uint64 masks and complex coefficients, one entry
        per term in dictionary order."""
        x = np.array([w.x_mask for w in self.terms], dtype=np.uint64)
        z = np.array([w.z_mask for w in self.terms], dtype=np.uint64)
        return x, z, np.array(list(self.terms.values()), dtype=complex)


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


def jordan_wigner_majorana(j: int, sigma: int, m: int, n_orbitals: int) -> PauliWord:
    """Majorana operator gamma_{j sigma, m} as a Pauli word over 2N qubits.

    j is 1-based; spin-orbital ordering is interleaved, p = 2(j-1) + sigma + 1.
    Flavor m=0 maps to Z...ZX and m=1 to Z...ZY on qubit p.
    """
    if not 1 <= j <= n_orbitals:
        raise ValueError(f"orbital index {j} out of range [1, {n_orbitals}]")
    if sigma not in (0, 1):
        raise ValueError("sigma must be 0 (alpha) or 1 (beta)")
    if m not in (0, 1):
        raise ValueError("flavor must be 0 or 1")
    p = 2 * (j - 1) + sigma  # 0-based qubit
    x = 1 << p
    z = (1 << p) - 1  # Z string on qubits below p
    if m == 1:
        z |= 1 << p
    return PauliWord(2 * n_orbitals, x, z)


def reflection_word(i: int, j: int, sigma: int, n_orbitals: int):
    """Q_ij,sigma = i gamma_{i sigma,0} gamma_{j sigma,1} -> (word, coefficient)."""
    g0 = jordan_wigner_majorana(i, sigma, 0, n_orbitals)
    g1 = jordan_wigner_majorana(j, sigma, 1, n_orbitals)
    word, phase = g0 * g1
    return word, 1j * phase


@lru_cache(maxsize=None)
def reflection_table(n_orbitals: int):
    """(x, z, coeff) of every Q_ij,sigma, each shaped (N, N, 2) and indexed
    [i-1, j-1, sigma]; the same words and coefficients as reflection_word.
    The cached arrays are read-only."""
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


def pauli_sum_of_hamiltonian(maj: MajoranaHamiltonian) -> PauliSum:
    """Fully multiplied-out qubit operator with like terms combined.

    H = h0 + (1/2) sum_{ij sigma} h_tilde_ij Q_ij,sigma
        + (1/4) sum_{ijkl sigma tau} g_ijkl Q_ij,sigma Q_kl,tau
    """
    n = maj.n_orbitals
    if n > 12:
        raise ValueError("term count grows as N^4; guard is N <= 12")
    qx, qz, qc = (a.ravel() for a in reflection_table(n))
    h_q = np.repeat(maj.h_tilde.ravel(), 2)
    g_qq = np.repeat(np.repeat(maj.g.reshape(n * n, n * n), 2, axis=0), 2, axis=1)
    x, z, phase = word_products(qx[:, None], qz[:, None], qx[None, :], qz[None, :])
    c = 0.25 * g_qq * qc[:, None] * qc[None, :] * phase
    zero = np.zeros(1, dtype=np.uint64)
    x, z, c = combine_terms(np.concatenate([zero, qx, x.ravel()]),
                            np.concatenate([zero, qz, z.ravel()]),
                            np.concatenate([[maj.h0], 0.5 * h_q * qc, c.ravel()]))
    # Hermiticity: imaginary parts cancel between conjugate index pairs
    if c.size and np.abs(c.imag).max() > 1e-9:
        raise AssertionError("qubit operator failed to come out Hermitian")
    return PauliSum.from_arrays(2 * n, x, z, c.real)


def dense_matrix(op) -> np.ndarray:
    """Dense matrix of a PauliWord or PauliSum; guard 2N <= 16.

    A PauliSum's matrix comes from sparse_matrix, so it is real when every
    entry is; PauliWord.dense() is the independent Kronecker form.
    """
    if op.n_qubits > 16:
        raise ValueError("dense path limited to 16 qubits")
    if isinstance(op, PauliWord):
        return op.dense()
    return sparse_matrix(op).toarray()


def _reverse_bits(masks, n_bits: int):
    out = np.zeros_like(masks)
    for q in range(n_bits):
        out |= ((masks >> np.uint64(q)) & np.uint64(1)) << np.uint64(n_bits - 1 - q)
    return out


def _parity_signs(masks, n_bits: int):
    """(-1)^|m & b| for every mask m (rows) and every b < 2^n_bits (columns)."""
    states = np.arange(1 << n_bits, dtype=np.uint64)
    parity = np.bitwise_count(masks[:, None] & states[None, :]) & 1
    return 1.0 - 2.0 * parity.astype(np.float64)


def sparse_matrix(op: PauliSum):
    """CSR matrix of a PauliSum, real when every entry is; guard 2N <= 24.

    Qubit 1 is the leftmost Kronecker factor, so mask bit q is bit nq-1-q of
    a basis-state index. Row r of a word holds i^-|x&z| (-1)^|z&r| at column
    r ^ x, so the words sharing an X mask fill one vector over rows,
    v(r) = sum_t c_t i^-|x&z_t| (-1)^|z_t&r|. Splitting r into high and low
    bits factors the signs, which turns v into one small matrix product.
    Entries at or below PRUNE_TOL are dropped; a first pass over the groups
    finds the kept rows, so the matrix is written once, in place.
    """
    from scipy.sparse import csr_matrix

    nq = op.n_qubits
    if nq > 24:
        raise ValueError("sparse path limited to 24 qubits")
    dim = 1 << nq
    if not op.terms:
        return csr_matrix((dim, dim), dtype=complex)
    x, z, coeffs = op.arrays()
    x, z = _reverse_bits(x, nq), _reverse_bits(z, nq)
    coeffs = coeffs * _I_POWERS[-_popcount(x & z) & 3]
    if not np.any(coeffs.imag):
        coeffs = coeffs.real
    order = np.argsort(x, kind="stable")
    x, z, coeffs = x[order], z[order], coeffs[order]
    starts = np.flatnonzero(np.r_[True, x[1:] != x[:-1]])
    groups = list(zip(starts, np.r_[starts[1:], x.size]))
    n_low = np.uint64(nq // 2)

    def group_vector(lo, hi):
        high = _parity_signs(z[lo:hi] >> n_low, nq - nq // 2)
        low = _parity_signs(z[lo:hi] & ((np.uint64(1) << n_low) - np.uint64(1)),
                            nq // 2)
        return ((high.T * coeffs[lo:hi]) @ low).ravel()

    kept = []
    indptr = np.zeros(dim + 1, dtype=np.int64)
    for lo, hi in groups:
        nonzero = np.abs(group_vector(lo, hi)) > PRUNE_TOL
        indptr[1:] += nonzero
        kept.append(np.flatnonzero(nonzero))
    np.cumsum(indptr, out=indptr)
    index_type = np.int32 if indptr[-1] <= np.iinfo(np.int32).max else np.int64
    indptr = indptr.astype(index_type)
    indices = np.empty(indptr[-1], dtype=index_type)
    data = np.empty(indptr[-1], dtype=coeffs.dtype)
    fill = indptr[:-1].copy()
    for (lo, hi), rows in zip(groups, kept):
        at = fill[rows]
        indices[at] = rows ^ int(x[lo])
        data[at] = group_vector(lo, hi)[rows]
        fill[rows] = at + 1
    return csr_matrix((data, indices, indptr), shape=(dim, dim))
