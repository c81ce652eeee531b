import itertools

import numpy as np
import pytest

from conftest import dense_from_tensors, hamiltonian, pauli_sum, raw_tensors
from reference import (
    grid_sector_matrix,
    jordan_wigner_majorana,
    multiply_words,
    word_from_letters,
    word_label,
    word_letters,
    word_matrix,
    words_commute,
)

from fermilcu.integrals import MolecularIntegrals
from fermilcu.majorana import (
    PauliWord,
    build_majorana,
    dense_matrix,
    pauli_sum_of_hamiltonian,
    reflection_table,
    sector_matrix,
    sparse_matrix,
)

ONE_NORM_HT = {"h2": 0.7884587663, "lih": 4.6145712545, "beh2": 6.9489516950, "h2o": 44.0338845042}
ONE_NORM_G = {"h2": 1.7120866825, "lih": 10.4939736195, "beh2": 19.3280134700, "h2o": 36.3077521542}
H0 = {"h2": -0.5319924345, "lih": -5.2314116197, "beh2": -10.4311672905, "h2o": -49.3819145197}


def test_word_algebra_basics():
    x = word_from_letters("X I")
    z = word_from_letters("Z I")
    w, phase = multiply_words(x, z)
    assert word_label(w) == "Y I"
    assert phase == pytest.approx(-1j)
    w, phase = multiply_words(z, x)
    assert word_label(w) == "Y I"
    assert phase == pytest.approx(1j)
    assert not words_commute(x, z)
    assert words_commute(x, word_from_letters("I Z"))


def test_word_dense_matches_kron():
    w = word_from_letters("X Z")
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    z = np.array([[1, 0], [0, -1]], dtype=complex)
    np.testing.assert_allclose(word_matrix(w), np.kron(x, z), atol=0)


def test_majorana_strings_small():
    # orbital 1, spin up: qubit 1; the two flavors land on X and Y
    assert word_label(jordan_wigner_majorana(1, 0, 0, 2)) == "X I I I"
    assert word_label(jordan_wigner_majorana(1, 0, 1, 2)) == "Y I I I"
    # orbital 2 of the same spin sits two qubits over, behind a Z string
    assert word_label(jordan_wigner_majorana(2, 0, 0, 2)) == "Z Z X I"


def test_majorana_anticommutation_exhaustive():
    for n in (1, 2, 3):
        ops = []
        for j in range(1, n + 1):
            for sigma in (0, 1):
                for m in (0, 1):
                    ops.append(jordan_wigner_majorana(j, sigma, m, n))
        for a, b in itertools.combinations(ops, 2):
            assert not words_commute(a, b)
        for a in ops:
            mat = word_matrix(a)
            np.testing.assert_allclose(mat @ mat, np.eye(mat.shape[0]), atol=1e-12)


def test_reflection_is_hermitian_unitary():
    x, z, coeff = reflection_table(3)
    for i, j, sigma in [(1, 1, 0), (1, 2, 1), (2, 3, 0)]:
        q = (i - 1, j - 1, sigma)
        mat = coeff[q] * word_matrix(PauliWord(6, int(x[q]), int(z[q])))
        np.testing.assert_allclose(mat, mat.conj().T, atol=1e-12)
        np.testing.assert_allclose(mat @ mat, np.eye(mat.shape[0]), atol=1e-12)


def test_reflection_table_matches_word_products():
    # Q_ij,sigma = i gamma_{i sigma,0} gamma_{j sigma,1}, as Kronecker products
    for n in (1, 2, 3):
        x, z, coeff = reflection_table(n)
        for i, j, sigma in itertools.product(range(n), range(n), (0, 1)):
            g0 = word_matrix(jordan_wigner_majorana(i + 1, sigma, 0, n))
            g1 = word_matrix(jordan_wigner_majorana(j + 1, sigma, 1, n))
            word = PauliWord(2 * n, int(x[i, j, sigma]), int(z[i, j, sigma]))
            np.testing.assert_array_equal(coeff[i, j, sigma] * word_matrix(word),
                                          1j * g0 @ g1)


def test_single_orbital_symbolic():
    # N = 1: h0 = h + g + core, h~ = h + 2g, and the qubit form is exact
    core, h, g = 0.25, np.array([[-1.1]]), np.full((1, 1, 1, 1), 0.3)
    mol = MolecularIntegrals(1, core, h, g)
    maj = build_majorana(mol)
    assert maj.h0 == pytest.approx(core + h[0, 0] + 0.3)
    assert maj.h_tilde[0, 0] == pytest.approx(h[0, 0] + 0.6)
    dense = dense_matrix(pauli_sum_of_hamiltonian(maj))
    oracle = dense_from_tensors(core, h, g)
    np.testing.assert_allclose(dense, oracle, atol=1e-12)


@pytest.mark.parametrize("name", ["h2", "lih", "beh2", "h2o"])
def test_tensor_fingerprints(name):
    maj = hamiltonian(name)
    assert np.abs(maj.h_tilde).sum() == pytest.approx(ONE_NORM_HT[name], abs=1e-8)
    assert np.abs(maj.g).sum() == pytest.approx(ONE_NORM_G[name], abs=1e-8)
    assert maj.h0 == pytest.approx(H0[name], abs=1e-8)


def test_h2_qubit_hamiltonian_against_ladder_oracle():
    maj = hamiltonian("h2")
    pauli = pauli_sum_of_hamiltonian(maj)
    assert not np.any(pauli.coeffs.imag)
    dense = dense_matrix(pauli)
    oracle = dense_from_tensors(*raw_tensors("h2"))
    np.testing.assert_allclose(dense, oracle, atol=1e-10)


def test_h2_qubit_one_norm():
    pauli = pauli_sum_of_hamiltonian(hamiltonian("h2"))
    assert len(pauli) == 15
    not_identity = (pauli.x | pauli.z) != 0
    assert np.abs(pauli.coeffs[not_identity]).sum() == pytest.approx(
        1.885637702630794, abs=1e-9)


def test_spin_swap_invariance():
    # swapping the two spin sectors is a relabeling; coefficients must match
    maj = hamiltonian("h2")
    pauli = pauli_sum_of_hamiltonian(maj)
    n = maj.n_orbitals
    perm = [0] * (2 * n)
    for p in range(2 * n):
        orb, spin = divmod(p, 2)
        perm[2 * orb + (1 - spin)] = p
    words = [PauliWord(2 * n, x, z)
             for x, z in zip(pauli.x.tolist(), pauli.z.tolist())]
    swapped = {}
    for word, coeff in zip(words, pauli.coeffs):
        letters = word_letters(word)
        swapped[" ".join(letters[perm[q]] for q in range(2 * n))] = coeff
    for word, coeff in zip(words, pauli.coeffs):
        assert swapped[word_label(word)] == pytest.approx(coeff, abs=1e-12)


def test_sparse_matches_dense():
    pauli = pauli_sum_of_hamiltonian(hamiltonian("h2"))
    dense = dense_matrix(pauli)
    sp = sparse_matrix(pauli)
    np.testing.assert_allclose(sp.toarray(), dense, atol=1e-12)


def test_random_word_sparse_vs_dense():
    rng = np.random.default_rng(3)
    for _ in range(20):
        letters = " ".join(rng.choice(list("IXYZ")) for _ in range(4))
        w = word_from_letters(letters)
        s = pauli_sum(4, [w], [1.0])
        np.testing.assert_allclose(sparse_matrix(s).toarray(), word_matrix(w),
                                   atol=0)


def test_size_guard():
    # the one limit is the array form's 32 qubits: N = 16 combines, 17 raises
    def operator(n):
        mol = MolecularIntegrals(n, 0.0, np.zeros((n, n)), np.zeros((n, n, n, n)))
        return pauli_sum_of_hamiltonian(build_majorana(mol))

    assert len(operator(16)) == 0
    with pytest.raises(ValueError, match="32 qubits"):
        operator(17)


def assert_same_csr(matrix, expected):
    for part in ("data", "indices", "indptr"):
        got, want = getattr(matrix, part), getattr(expected, part)
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("name", ["h2", "lih", "beh2", "h2o", "chain_h02",
                                  "chain_h04", "chain_h06", "chain_h08"])
def test_sector_csr_matches_grid_reference(name):
    # the passes over the central cells write the same entries, in the same
    # order, as the passes over each group's whole grid
    maj = hamiltonian(name)
    n = maj.n_orbitals
    op = pauli_sum_of_hamiltonian(maj)
    sectors = [(n_e // 2, n_e - n_e // 2) for n_e in range(2 * n + 1)]
    (matrix, offsets), (expected, expected_offsets) = (
        build(op, sectors) for build in (sector_matrix, grid_sector_matrix))
    assert offsets == expected_offsets
    assert_same_csr(matrix, expected)
