"""Reference constructions that tests compare the package against or build
inputs with; no run of the package calls them.

- `word_from_letters` and `jordan_wigner_majorana` spell Pauli words from
  letters and single Majoranas; tests check the word algebra and the Q
  words of `majorana.reflection_table` against them.
- `word_letters`, `word_label`, `words_commute`, `multiply_words` and
  `word_matrix` are the single-word algebra on the `majorana.PauliWord`
  record: letters, commutation from the symplectic product, the product
  with its phase, and the Kronecker matrix, qubit 1 leftmost. They are the
  reference that `majorana.word_products` and `majorana.sparse_matrix` are
  checked against, and share no code with them.
- `fragment_pauli_sum` expands one fragment view on its own, word by word
  (`_fragment_terms`), the per-fragment reference for the single expansion
  of `verify.verify_reconstruction`; `fragment_matrix` renders it dense and
  applies its defining check: unitary, or Hermitian with spectrum in
  [-1, 1] for sf-poly.
- `item_major_sorted_insertion` places the items of sorted insertion one
  at a time, each into the first group whose packed mask holds it, the
  reference for the group-major `qubit_lcu._sorted_insertion`;
  `factored_row_items` and `kernel_row_items` give it the item rows it reads:
  tensor items as packed factor rows, explicit words as full kernel rows
  (`anticommutation_rows`, packed by `pack_bits`).
  `parity_factor_rows` gathers the factor rows from the Q words' parity
  matrix (`factor_parity`), the reference for the rows
  `qubit_lcu._factor_rows` builds from Majorana bitsets.
- `sorted_insertion_ac` groups an explicit qubit operator: its combined
  Pauli words are the items, placed item-major on their kernel rows, and
  `qubit_lcu._groups_to_lcu` assembles the LCU of the groups, as for
  `qubit_lcu.ac_lcu`'s tensor-level items.
- `ac_naive_matrix` (arcsine phases, `naive_ac_phases`) and
  `ac_givens_matrix` (a Givens chain, `givens_chain_angles`, inverted by
  `reconstruct_chain`) render an AC group as the two circuits its cost
  model prices; both must equal the normalized group operator.
- `rotate_hamiltonian` rotates the Majorana tensors, for the invariants of
  orbital optimization; `emit_fcidump` writes FCIDUMP text for round trips.
- `sector_states` lists a sector's basis-state indices in the row order
  `majorana.sector_matrix` documents; `full_space_range` and
  `full_space_eigsh_range` take the spectral range over the whole 2^2N
  Fock space, dense and by ARPACK's extremal Lanczos, for the
  central-sector `spectral_range` to match.
- `cycle_laplacian` and `random_sparse_symmetric` are operators with known
  or dense-checkable extremes for the in-package Lanczos run.
- `grid_sector_matrix` is the sector build that runs every per-cell pass
  over each X group's whole grid of kept strings, the reference whose CSR
  `majorana.sector_matrix` must reproduce byte for byte.
"""

import numpy as np

from fermilcu.majorana import (
    PRUNE_TOL,
    MajoranaHamiltonian,
    PauliSum,
    PauliWord,
    _csr_from_groups,
    _row_block,
    _spin_strings,
    _x_groups,
    combine_terms,
    dense_matrix,
    pauli_sum_of_hamiltonian,
    reflection_table,
    sparse_matrix,
    word_products,
    word_sort_keys,
)
from fermilcu.lcu import LcuDecomposition
from fermilcu.qubit_lcu import COEFF_TOL, _groups_to_lcu, rotate_two_body
from fermilcu.verify import SpectralRange

UNITARY_TOL = 1e-9
DENSE_QUBITS = 8  # fragment_matrix renders at most a 256 x 256 matrix
ANGLE_CLAMP = 1e-9
EIGSH_SEED = 1950
# items whose anticommutation rows sorted insertion expands at once
INSERTION_BLOCK = 128

_LETTERS = {(0, 0): "I", (1, 0): "X", (1, 1): "Y", (0, 1): "Z"}
_PAULI_MATS = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


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


def word_letters(word: PauliWord) -> tuple:
    """The word's letters, qubit 1 first."""
    return tuple(_LETTERS[(word.x_mask >> q) & 1, (word.z_mask >> q) & 1]
                 for q in range(word.n_qubits))


def word_label(word: PauliWord) -> str:
    """The letters joined by spaces, as word_from_letters reads them."""
    return " ".join(word_letters(word))


def words_commute(a: PauliWord, b: PauliWord) -> bool:
    """Parity of the symplectic inner product decides (anti)commutation."""
    parity = (a.x_mask & b.z_mask).bit_count() + (a.z_mask & b.x_mask).bit_count()
    return parity % 2 == 0


def multiply_words(a: PauliWord, b: PauliWord):
    """(word, phase) of the product a b, phase in {1, -1, i, -i}, one word
    of Python ints at a time."""
    if a.n_qubits != b.n_qubits:
        raise ValueError("qubit count mismatch")
    x, z = a.x_mask ^ b.x_mask, a.z_mask ^ b.z_mask
    k = ((a.x_mask & a.z_mask).bit_count() + (b.x_mask & b.z_mask).bit_count()
         - (x & z).bit_count() + 2 * (a.z_mask & b.x_mask).bit_count())
    return PauliWord(a.n_qubits, x, z), complex((1, 1j, -1, -1j)[k % 4])


def word_matrix(word: PauliWord) -> np.ndarray:
    """Kronecker composition, qubit 1 as the leftmost factor."""
    out = np.array([[1.0 + 0j]])
    for letter in word_letters(word):
        out = np.kron(out, _PAULI_MATS[letter])
    return out


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


def _chebyshev_terms(w_matrix, norm: float, n_orbitals: int):
    """Terms of the ChebyshevSquare of w_matrix and norm."""
    qx, qz, qc = reflection_table(n_orbitals)
    keep = np.broadcast_to((w_matrix != 0.0)[:, :, None], qc.shape)
    c = 0.5 * w_matrix[:, :, None] * qc / (norm / 2.0)
    layer = (qx[keep], qz[keep], c[keep])
    x, z, c = _product_terms(layer, layer)
    zero = np.zeros(1, dtype=np.uint64)
    return (np.concatenate([x, zero]), np.concatenate([z, zero]),
            np.concatenate([2.0 * c, [-1.0]]))


def _word_terms(words, coeffs):
    return (np.array([w.x_mask for w in words], dtype=np.uint64),
            np.array([w.z_mask for w in words], dtype=np.uint64),
            np.asarray(coeffs, dtype=complex))


def _fragment_terms(fragment, n_orbitals: int):
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
        return _chebyshev_terms(unit.w_matrix, unit.norm, n_orbitals)
    raise ValueError(f"unknown fragment kind {fragment.kind!r}")


def fragment_pauli_sum(fragment, n_orbitals: int) -> PauliSum:
    """The fragment unitary as a combination of Pauli words (coefficient
    excluded)."""
    return PauliSum.from_arrays(2 * n_orbitals,
                                *_fragment_terms(fragment, n_orbitals))


def _fragment_orbitals(fragment) -> int:
    unit = fragment.unitary
    if fragment.kind == "pauli":
        return unit.word.n_qubits // 2
    if fragment.kind == "ac-group":
        return unit.words[0].n_qubits // 2
    if fragment.kind == "reflection-product":
        return len(unit.reflections[0].v)
    if fragment.kind == "sf-poly":
        return unit.w_matrix.shape[0]
    raise ValueError(f"unknown fragment kind {fragment.kind!r}")


def fragment_matrix(fragment) -> np.ndarray:
    """Dense matrix of one fragment unitary, with its defining check applied.

    Squared-polynomial fragments are Hermitian with spectrum inside [-1, 1]
    instead of unitary; everything else must be unitary within 1e-9.
    """
    n = _fragment_orbitals(fragment)
    if 2 * n > DENSE_QUBITS:
        raise ValueError(f"dense fragments limited to {DENSE_QUBITS} qubits")
    mat = dense_matrix(fragment_pauli_sum(fragment, n))
    dim = mat.shape[0]
    if fragment.kind == "sf-poly":
        if np.abs(mat - mat.conj().T).max() > UNITARY_TOL:
            raise ValueError("squared-polynomial fragment is not Hermitian")
        eigs = np.linalg.eigvalsh(mat)
        if eigs[0] < -1.0 - 1e-9 or eigs[-1] > 1.0 + 1e-9:
            raise ValueError("squared-polynomial spectrum escapes [-1, 1]")
        return mat
    dev = np.abs(mat @ mat.conj().T - np.eye(dim)).max()
    if dev > UNITARY_TOL:
        raise ValueError(f"fragment is not unitary (deviation {dev:.2e})")
    return mat


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


def naive_ac_phases(coeffs) -> np.ndarray:
    """Cumulative arcsin phases, one per coefficient, in group order.

    The exponential product built from these phases equals i times the
    normalized group operator; renderers divide the global i back out.
    """
    d = np.asarray(coeffs, dtype=float)
    if d.size and np.linalg.norm(d) < ANGLE_CLAMP:
        raise ValueError("group norm is zero")
    # the doubled phase has sine d_q / partial_q and cosine
    # partial_{q-1} / partial_q; arctan2 keeps the cosine accurate when d_q
    # dominates, where arcsin of a ratio near 1 would round it to zero
    partial = np.sqrt(np.cumsum(d * d))
    before = np.concatenate(([0.0], partial[:-1]))
    return 0.5 * np.arctan2(d, before)


def pack_bits(bits) -> np.ndarray:
    """Boolean rows of length m as uint64 rows of ceil(m/64) words: bit b
    goes to word b // 64, bit b % 64; the padding bits are zero."""
    m = bits.shape[-1]
    packed = np.zeros(bits.shape[:-1] + (8 * -(-m // 64),), dtype=np.uint8)
    packed[..., :-(-m // 8)] = np.packbits(bits, axis=-1, bitorder="little")
    return packed.view("<u8").astype(np.uint64)


def anticommutation_rows(x, z) -> np.ndarray:
    """m x ceil(m/64) uint64 rows: bit b of row q (word b // 64, bit b % 64)
    is set when words q and b anticommute. Row q is the XOR of the per-qubit
    X columns (bitsets over the items) at q's Z bits and of the Z columns at
    q's X bits, the parity of the symplectic product."""
    m = x.size
    shifts = np.arange(int(np.bitwise_or.reduce(x | z, initial=0)).bit_length(),
                       dtype=np.uint64)[:, None]
    bits = np.array([(x >> shifts) & 1, (z >> shifts) & 1], dtype=bool)
    x_cols, z_cols = pack_bits(bits)
    anti = np.zeros((m, x_cols.shape[-1]), dtype=np.uint64)
    for p in range(shifts.size):
        np.bitwise_xor(anti, x_cols[p], out=anti, where=bits[1, p, :, None])
        np.bitwise_xor(anti, z_cols[p], out=anti, where=bits[0, p, :, None])
    return anti


def factor_parity(struct):
    """The anticommutation parity of every factor pair of
    qubit_lcu._tensor_item_structure, from the symplectic product of their
    masks; the zero factor, last, anticommutes with nothing."""
    qx, qz = struct["qx"], struct["qz"]
    return (np.bitwise_count((qx[:, None] & qz) ^ (qz[:, None] & qx))
            & 1).astype(bool)


def parity_factor_rows(parity, fa, fb):
    """Per factor f, the Python-int bitset of parity[f, fa] ^ parity[f, fb],
    gathered from the parity matrix sixteen factors at a time: the
    reference for qubit_lcu._factor_rows."""
    rows = []
    for lo in range(0, parity.shape[0], 16):
        block = parity[lo:lo + 16]
        bits = block.take(fa, axis=1)
        bits ^= block.take(fb, axis=1)
        rows.extend(int.from_bytes(row, "little") for row in
                    np.packbits(bits, axis=1, bitorder="little"))
    return rows


def factored_row_items(struct):
    """Items of qubit_lcu._tensor_item_structure with their factor rows
    packed against every item, a zero row last: item q's row is
    rows[fa[q]] ^ rows[fb[q]]."""
    parity, fa, fb = factor_parity(struct), struct["fa"], struct["fb"]
    return {"rows": pack_bits(parity[:, fa] ^ parity[:, fb]), "fa": fa,
            "fb": fb, "key": struct["key"]}


def kernel_row_items(x, z, n_qubits: int):
    """Items of explicit words: each word's full kernel row is its only
    factor, so the items have no second factor (fb is None)."""
    return {
        "rows": anticommutation_rows(x, z),
        "fa": np.arange(x.size),
        "fb": None,
        "key": word_sort_keys(x, z, n_qubits),
    }


def item_major_sorted_insertion(coeffs, items):
    """Greedy grouping: descending |coefficient|, ties by items["key"] then
    index; each item joins the first group it fully anticommutes with.

    Bit q of a group's mask is set while item q anticommutes with every
    member, so placing q ANDs its row into the mask. Item q's row is
    rows[fa[q]] ^ rows[fb[q]], or rows[fa[q]] when fb is None; the rows of
    the ordered items are expanded INSERTION_BLOCK at a time, a block small
    enough to stay in cache, so the loop reads one contiguous row each.
    """
    rows, fa, fb = items["rows"], items["fa"], items["fb"]
    magnitude = np.abs(coeffs)
    order = np.lexsort((items["key"], -magnitude))
    order = order[magnitude[order] > COEFF_TOL]
    bit = np.uint64(1) << np.arange(64, dtype=np.uint64)
    # one row per group, so placing an item ANDs two contiguous rows; the
    # row after the last group is all ones and stands for a new group
    masks = np.empty((64, rows.shape[1]), dtype=np.uint64)
    masks[0] = ~np.uint64(0)
    groups = []
    for start in range(0, order.size, INSERTION_BLOCK):
        block = order[start:start + INSERTION_BLOCK]
        block_rows = rows.take(fa[block], axis=0)
        if fb is not None:
            block_rows ^= rows.take(fb[block], axis=0)
        for q, row in zip(block.tolist(), block_rows):
            gi = int((masks[:len(groups) + 1, q >> 6] & bit[q & 63]).argmax())
            masks[gi] &= row
            if gi < len(groups):
                groups[gi].append(q)
                continue
            groups.append([q])
            if len(groups) == masks.shape[0]:
                masks = np.concatenate([masks, np.empty_like(masks)])
            masks[len(groups)] = ~np.uint64(0)
    return groups


def sorted_insertion_ac(pauli: PauliSum) -> LcuDecomposition:
    """Anticommuting grouping of an explicit qubit operator, whose items are
    its combined Pauli terms; the identity term becomes the constant."""
    if np.any(np.abs(pauli.coeffs.imag) > 1e-10):
        raise ValueError("sorted insertion expects a Hermitian operator")
    coeffs = pauli.coeffs.real
    items = (pauli.x | pauli.z) != 0
    constant = float(coeffs[~items].sum())
    x, z, coeffs = pauli.x[items], pauli.z[items], coeffs[items]
    groups = item_major_sorted_insertion(
        coeffs, kernel_row_items(x, z, pauli.n_qubits))
    return _groups_to_lcu(x, z, coeffs, groups, pauli.n_qubits, constant,
                          {"level": "qubit", "n_items": int(x.size)})


def ac_naive_matrix(group) -> np.ndarray:
    """Double product of arcsine-phased exponentials, give or take the global
    phase i it carries."""
    phases = naive_ac_phases(group.coeffs)
    nq = group.words[0].n_qubits
    dim = 2 ** nq
    gates = []
    for word, phi in zip(group.words, phases):
        w = word_matrix(word)
        gates.append(np.cos(phi) * np.eye(dim) + 1j * np.sin(phi) * w)
    prod = np.eye(dim, dtype=complex)
    for gate in gates + gates[::-1]:  # ascending pass, then descending
        prod = prod @ gate
    return -1j * prod


def ac_givens_matrix(group) -> np.ndarray:
    """Givens-chain conjugation: rotate the first word onto the combination."""
    nq = group.words[0].n_qubits
    dim = 2 ** nq
    mats = [word_matrix(w) for w in group.words]
    angles = givens_chain_angles(group.coeffs / group.norm)
    left = np.eye(dim, dtype=complex)
    for j in reversed(range(len(angles))):
        pp = mats[j + 1] @ mats[j]
        left = left @ (np.cos(angles[j]) * np.eye(dim) + np.sin(angles[j]) * pp)
    sign = 1.0
    if len(group.words) == 1 and group.coeffs[0] < 0:
        sign = -1.0
    return sign * (left @ mats[0] @ left.conj().T)


def rotate_hamiltonian(maj: MajoranaHamiltonian, u: np.ndarray) -> MajoranaHamiltonian:
    """Same operator in rotated orbitals; h0 and both folds are covariant."""
    return MajoranaHamiltonian(
        n_orbitals=maj.n_orbitals,
        h0=maj.h0,
        h_tilde=u.T @ maj.h_tilde @ u,
        g=rotate_two_body(maj.g, u),
    )


def emit_fcidump(mol, nelec: int = 0) -> str:
    """Inverse convention map: render MolecularIntegrals as FCIDUMP text."""
    n = mol.n_orbitals
    eri = 2.0 * mol.two_body
    t = mol.one_body + np.einsum("ikkj->ij", mol.two_body)
    lines = [
        f"&FCI NORB={n},NELEC={nelec},MS2=0,",
        " ORBSYM=" + ",".join(["1"] * n) + ",",
        " ISYM=1,",
        "&END",
    ]
    for i in range(1, n + 1):
        for j in range(1, i + 1):
            for k in range(1, i + 1):
                lmax = j if k == i else k
                for l in range(1, lmax + 1):
                    v = eri[i - 1, j - 1, k - 1, l - 1]
                    if abs(v) > 1e-16:
                        lines.append(f"{v:23.16E} {i:4d} {j:4d} {k:4d} {l:4d}")
    for i in range(1, n + 1):
        for j in range(1, i + 1):
            v = t[i - 1, j - 1]
            if abs(v) > 1e-16:
                lines.append(f"{v:23.16E} {i:4d} {j:4d}    0    0")
    lines.append(f"{mol.core_energy:23.16E}    0    0    0    0")
    return "\n".join(lines) + "\n"


def full_space_range(maj: MajoranaHamiltonian) -> SpectralRange:
    """Extremes of every eigenvalue of the dense 2^2N matrix (2N <= 16)."""
    eigs = np.linalg.eigvalsh(dense_matrix(pauli_sum_of_hamiltonian(maj)))
    return SpectralRange(float(eigs[0]), float(eigs[-1]))


def full_space_eigsh_range(maj: MajoranaHamiltonian) -> SpectralRange:
    """Extremal Lanczos eigenvalues of the sparse 2^2N matrix, from a
    seeded Gaussian start: a start that a symmetry of the matrix maps to
    itself, such as the all-ones vector, can keep an extreme out of the
    Krylov space."""
    from scipy.sparse.linalg import eigsh

    mat = sparse_matrix(pauli_sum_of_hamiltonian(maj))
    v0 = np.random.default_rng(EIGSH_SEED).standard_normal(mat.shape[0])
    lo = eigsh(mat, k=1, which="SA", v0=v0, return_eigenvectors=False)
    hi = eigsh(mat, k=1, which="LA", v0=v0, return_eigenvectors=False)
    return SpectralRange(float(lo[0]), float(hi[0]))


def sector_states(n_orbitals: int, n_alpha: int, n_beta: int) -> list:
    """Indices of the basis states with n_alpha alpha and n_beta beta
    electrons, in ascending (alpha string, beta string): a string reads its
    orbitals' occupations as a binary number, orbital 1 most significant.
    Spin-orbital (i, spin) is qubit 2i + spin + 1, the bit 2N-2i-spin-1 of
    an index, set when occupied."""
    nq = 2 * n_orbitals

    def strings(count):
        return [s for s in range(1 << n_orbitals) if s.bit_count() == count]

    def index(alpha, beta):
        r = 0
        for i in range(n_orbitals):
            bit = n_orbitals - 1 - i
            r |= ((alpha >> bit) & 1) << (nq - 1 - 2 * i)
            r |= ((beta >> bit) & 1) << (nq - 2 - 2 * i)
        return r

    return [index(a, b) for a in strings(n_alpha) for b in strings(n_beta)]


def cycle_laplacian(nodes: int):
    """Graph Laplacian of the cycle on `nodes` nodes, spectrum
    2 - 2 cos(2 pi k / nodes): its lowest eigenvector, for 0, is the
    all-ones vector, and for even `nodes` its highest is 4."""
    from scipy.sparse import diags

    off = -np.ones(nodes - 1)
    lap = diags([2.0 * np.ones(nodes), off, off], [0, 1, -1]).tolil()
    lap[0, nodes - 1] = lap[nodes - 1, 0] = -1.0
    return lap.tocsr()


def random_sparse_symmetric(dim: int, density: float, seed: int):
    """A real symmetric CSR matrix with Gaussian entries at about `density`
    of the positions and a Gaussian diagonal."""
    from scipy.sparse import diags, random as sparse_random

    rng = np.random.default_rng(seed)
    upper = sparse_random(dim, dim, density=density, random_state=rng,
                          data_rvs=rng.standard_normal)
    return (upper + upper.T + diags(rng.standard_normal(dim))).tocsr()


def grid_sector_matrix(op: PauliSum, sectors):
    """`majorana.sector_matrix` as it was before its per-cell passes were
    restricted to the central cells: each X group's grid of kept strings is
    looked up, zeroed at PRUNE_TOL and extracted whole, and the columns are
    looked up over the whole grid. Same blocks, offsets and CSR bytes."""
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
    (flips_a, class_a), (flips_b, class_b) = (
        np.unique(flips[[lo for lo, _ in groups]], return_inverse=True)
        for flips in (x_a, x_b))
    pairs = np.zeros((flips_a.size, flips_b.size))
    np.add.at(pairs, (class_a, class_b), 1.0)
    keep_a, keep_b = ((counts[strings ^ flips[:, None]] == counts).astype(float)
                      for flips in (flips_a, flips_b))
    row_counts = np.zeros(offsets[-1], dtype=np.int64)
    central = position >= 0
    row_counts[position[central]] = (keep_a.T @ pairs @ keep_b)[central]

    def entries(lo, hi):
        rows_a = strings[counts[strings ^ x_a[lo]] == counts]
        rows_b = strings[counts[strings ^ x_b[lo]] == counts]
        rows = position[np.ix_(rows_a, rows_b)]
        kept = rows >= 0
        v = _row_block(z_a[lo:hi], z_b[lo:hi], coeffs[lo:hi], rows_a, rows_b)
        v[np.abs(v) <= PRUNE_TOL] = 0
        cols = position[np.ix_(rows_a ^ x_a[lo], rows_b ^ x_b[lo])]
        return rows[kept], cols[kept], v[kept]

    matrix = _csr_from_groups(row_counts, entries, groups, offsets[-1],
                              coeffs.dtype)
    matrix.eliminate_zeros()
    return matrix, offsets
