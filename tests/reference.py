"""Reference constructions that tests compare the package against or build
inputs with; no run of the package calls them.

- `word_from_letters` and `jordan_wigner_majorana` spell Pauli words from
  letters and single Majoranas; tests check the word algebra and the Q
  words of `majorana.reflection_table` against them.
- `fragment_matrix` renders one fragment dense and applies its defining
  check: unitary, or Hermitian with spectrum in [-1, 1] for sf-poly.
- `ac_naive_matrix` (arcsine phases, `naive_ac_phases`) and
  `ac_givens_matrix` (a Givens chain, `givens_chain_angles`, inverted by
  `reconstruct_chain`) render an AC group as the two circuits its cost
  model prices; both must equal the normalized group operator.
- `rotate_hamiltonian` rotates the Majorana tensors, for the invariants of
  orbital optimization; `emit_fcidump` writes FCIDUMP text for round trips.
- `sector_states` lists a sector's basis-state indices in the row order
  `majorana.sector_matrix` documents; `full_space_range` and
  `full_space_eigsh_range` take the spectral range over the whole 2^2N
  Fock space, dense and by extremal Lanczos, for the central-sector
  `spectral_range` to match.
"""

import numpy as np

from fermilcu.majorana import (
    MajoranaHamiltonian,
    PauliWord,
    dense_matrix,
    pauli_sum_of_hamiltonian,
    sparse_matrix,
)
from fermilcu.qubit_lcu import rotate_two_body
from fermilcu.verify import SpectralRange, fragment_pauli_sum

UNITARY_TOL = 1e-9
DENSE_QUBITS = 8  # fragment_matrix renders at most a 256 x 256 matrix
ANGLE_CLAMP = 1e-9


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


def ac_naive_matrix(group) -> np.ndarray:
    """Double product of arcsine-phased exponentials, give or take the global
    phase i it carries."""
    phases = naive_ac_phases(group.coeffs)
    nq = group.words[0].n_qubits
    dim = 2 ** nq
    gates = []
    for word, phi in zip(group.words, phases):
        w = word.dense()
        gates.append(np.cos(phi) * np.eye(dim) + 1j * np.sin(phi) * w)
    prod = np.eye(dim, dtype=complex)
    for gate in gates + gates[::-1]:  # ascending pass, then descending
        prod = prod @ gate
    return -1j * prod


def ac_givens_matrix(group) -> np.ndarray:
    """Givens-chain conjugation: rotate the first word onto the combination."""
    nq = group.words[0].n_qubits
    dim = 2 ** nq
    mats = [w.dense() for w in group.words]
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
    """Extremal Lanczos eigenvalues of the sparse 2^2N matrix, from the
    normalized all-ones start."""
    from scipy.sparse.linalg import eigsh

    mat = sparse_matrix(pauli_sum_of_hamiltonian(maj))
    v0 = np.ones(mat.shape[0]) / np.sqrt(mat.shape[0])
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
