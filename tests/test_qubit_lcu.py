import numpy as np
import pytest

from conftest import hamiltonian, pauli_sum
from reference import (
    anticommutation_rows,
    factor_parity,
    factored_row_items,
    givens_chain_angles,
    item_major_sorted_insertion,
    kernel_row_items,
    naive_ac_phases,
    pack_bits,
    parity_factor_rows,
    reconstruct_chain,
    rotate_hamiltonian,
    sorted_insertion_ac,
    word_label,
    words_commute,
)

from fermilcu.integrals import MolecularIntegrals, load_fixture
from fermilcu.majorana import build_majorana, pauli_sum_of_hamiltonian
from fermilcu.qubit_lcu import (
    COEFF_TOL,
    _factor_rows,
    _item_coeffs,
    _item_words,
    _sorted_insertion,
    _tensor_item_structure,
    ac_lcu,
    orbital_optimize,
    rotation_from_angles,
    sparse_pauli_lcu,
)
from fermilcu.verify import ROUNDING_ULPS, verify_reconstruction

# columns: pauli λ, ac tensor λ, ac qubit λ, tensor groups, qubit groups,
#          spin-separated two-body norm, pauli constant, pauli fragments
FROZEN = {
    "h2": (2.5005454487, 1.9065429762, 1.7252765624, 12, 10, 1.0971789364, -0.0983511021, 28),
    "lih": (15.1085448739, 10.3770419348, 9.9346510963, 142, 106, 7.7278729209, -4.1342856639, 1788),
    "beh2": (26.2769651650, 17.9519939013, 16.7391635420, 168, 131, 14.5676012603, -8.7031634691, 1840),
    "h2o": (80.3416366584, 58.9912489058, 57.3908801290, 200, 152, 27.9291741000, -46.4239605354, 3052),
}


# columns: ac tensor λ, ac groups, ac items, pauli λ, pauli fragments
CHAIN_FROZEN = {
    "chain_h08": (15.354910526223108, 388, 7360, 42.04853053305262, 8128),
    "chain_h10": (23.121151819438033, 734, 18300, 69.89616609292426, 19884),
}


@pytest.mark.parametrize("name", sorted(CHAIN_FROZEN))
def test_chain_lcus_frozen(name):
    maj = hamiltonian(name)
    lam_ac, n_groups, n_items, lam_pauli, n_fragments = CHAIN_FROZEN[name]
    ac = ac_lcu(maj)
    assert ac.one_norm == pytest.approx(lam_ac, rel=1e-12)
    assert (ac.metadata["n_groups"], ac.metadata["n_items"]) == (n_groups, n_items)
    pauli = sparse_pauli_lcu(maj)
    assert pauli.one_norm == pytest.approx(lam_pauli, rel=1e-12)
    assert len(pauli.fragments) == n_fragments


@pytest.mark.parametrize("name", ("h2", "lih", "beh2", "h2o", "chain_h02",
                                  "chain_h04", "chain_h06", "chain_h08",
                                  "chain_h10"))
def test_pauli_phases_are_exact_units(name):
    phases = {f.unitary.phase for f in sparse_pauli_lcu(hamiltonian(name)).fragments}
    assert phases <= {1, -1, 1j, -1j}


def test_item_structure_holds_packed_rows_only():
    # one packed row per item would hold 41.9 MB at chain_h10, an m x m
    # boolean matrix 335 MB; the Majoranas of the 200 Q words and a zero
    # factor hold 1.6 KB, and each call packs its rows in rank order
    struct = _tensor_item_structure(10)
    m = struct["key"].size
    assert m == 18300
    assert all(a.ndim == 1 for a in struct.values() if a.shape[0] == m)
    assert "parity" not in struct
    assert struct["majoranas"].shape == (201, 2)
    # 444,024 bytes, of which 1,608 are the Majoranas
    assert sum(a.nbytes for a in struct.values()) < 450_000


@pytest.mark.parametrize("n", range(1, 9))
def test_factored_rows_expand_to_kernel_rows(n):
    struct = _tensor_item_structure(n)
    parity, fa, fb = factor_parity(struct), struct["fa"], struct["fb"]
    assert not parity[-1].any() and not parity[:, -1].any()
    np.testing.assert_array_equal(parity, parity.T)
    rows = pack_bits(parity[:, fa] ^ parity[:, fb])
    np.testing.assert_array_equal(rows[fa] ^ rows[fb],
                                  anticommutation_rows(*_item_words(struct)))
    # the per-call bitsets, here over the items in index order
    assert _factor_rows(struct["majoranas"], fa, fb) == [
        int.from_bytes(row, "little") for row in rows]


@pytest.mark.parametrize("name", ("h2", "lih", "beh2", "h2o", "chain_h08"))
def test_ac_groups_match_grouping_from_kernel_rows(name):
    maj = hamiltonian(name)
    struct = _tensor_item_structure(maj.n_orbitals)
    x, z = _item_words(struct)
    coeffs = _item_coeffs(struct, maj.h_tilde, maj.g)
    expected = item_major_sorted_insertion(
        coeffs, kernel_row_items(x, z, 2 * maj.n_orbitals))
    groups = [f.unitary for f in ac_lcu(maj).fragments]
    assert [[(w.x_mask, w.z_mask) for w in g.words] for g in groups] == [
        [(int(x[q]), int(z[q])) for q in members] for members in expected]
    for group, members in zip(groups, expected):
        np.testing.assert_array_equal(group.coeffs, coeffs[members])


FIXTURES = ("h2", "lih", "beh2", "h2o", "chain_h02", "chain_h04", "chain_h06",
            "chain_h08", "chain_h10")


def randomly_rotated(maj):
    """maj in one seeded random orbital frame, angles of scale 0.3."""
    n = maj.n_orbitals
    rng = np.random.default_rng(23)
    return rotate_hamiltonian(maj, rotation_from_angles(
        rng.normal(scale=0.3, size=n * (n - 1) // 2), n))


@pytest.mark.parametrize("rotated", (False, True), ids=("canonical", "rotated"))
@pytest.mark.parametrize("name", FIXTURES)
def test_group_major_groups_equal_item_major(name, rotated):
    maj = hamiltonian(name)
    if rotated:
        maj = randomly_rotated(maj)
    struct = _tensor_item_structure(maj.n_orbitals)
    coeffs = _item_coeffs(struct, maj.h_tilde, maj.g)
    groups = _sorted_insertion(coeffs, struct)
    assert groups == item_major_sorted_insertion(coeffs,
                                                 factored_row_items(struct))
    # a rotated frame leaves no item at zero
    if rotated:
        assert sum(map(len, groups)) == coeffs.size


@pytest.mark.parametrize("rotated", (False, True), ids=("canonical", "rotated"))
@pytest.mark.parametrize("name", FIXTURES)
def test_majorana_factor_rows_equal_parity_rows(name, rotated):
    # the factor rows over the items in rank order, as sorted insertion
    # ranks them, equal those gathered from the Q words' parity matrix
    maj = hamiltonian(name)
    if rotated:
        maj = randomly_rotated(maj)
    struct = _tensor_item_structure(maj.n_orbitals)
    magnitude = np.abs(_item_coeffs(struct, maj.h_tilde, maj.g))
    order = np.lexsort((struct["key"], -magnitude))
    order = order[magnitude[order] > COEFF_TOL][::-1]
    fa, fb = struct["fa"][order], struct["fb"][order]
    assert _factor_rows(struct["majoranas"], fa, fb) == parity_factor_rows(
        factor_parity(struct), fa, fb)


@pytest.mark.parametrize("name", FIXTURES)
def test_ac_groups_are_anticommuting_sets(name):
    maj = hamiltonian(name)
    block, = ac_lcu(maj).blocks
    n_qubits = 2 * maj.n_orbitals
    start = 0
    for size in block.sizes.tolist():
        x = block.x[start:start + size]
        z = block.z[start:start + size]
        start += size
        # n qubits hold at most 2n + 1 pairwise anticommuting words
        assert 1 <= size <= 2 * n_qubits + 1
        parity = np.bitwise_count((x[:, None] & z) ^ (z[:, None] & x)) & 1
        np.testing.assert_array_equal(parity, 1 - np.eye(size, dtype=parity.dtype))
    assert start == block.x.size


@pytest.mark.parametrize("name", sorted(FROZEN))
def test_pauli_lcu_frozen(name):
    maj = hamiltonian(name)
    lcu = sparse_pauli_lcu(maj)
    lam, _, _, _, _, _, const, nfrag = FROZEN[name]
    assert lcu.one_norm == pytest.approx(lam, abs=1e-8)
    assert lcu.constant == pytest.approx(const, abs=1e-8)
    assert len(lcu.fragments) == nfrag
    assert lcu.one_norm == pytest.approx(
        np.abs(maj.h_tilde).sum() + np.abs(maj.g).sum(), abs=1e-12)


def test_pauli_lcu_zero_two_body_diagonal_h():
    h = np.diag([0.3, -0.7])
    mol = MolecularIntegrals(2, 0.0, h, np.zeros((2, 2, 2, 2)))
    lcu = sparse_pauli_lcu(build_majorana(mol))
    assert lcu.one_norm == pytest.approx(1.0)
    # two spins per orbital, Z words only
    assert len(lcu.fragments) == 4


def test_pauli_threshold_moves_weight_to_metadata():
    # h2's smallest nonzero |g| is 0.0906, so the cut must lie above it
    maj = hamiltonian("h2")
    full = sparse_pauli_lcu(maj, threshold=0.0)
    cut = sparse_pauli_lcu(maj, threshold=0.1)
    assert len(cut.fragments) < len(full.fragments)
    assert cut.one_norm == pytest.approx(full.one_norm)
    assert cut.metadata["dropped_weight"] > 0.0


@pytest.mark.parametrize("name, threshold", [
    ("h2", 0.1), ("lih", 1e-3), ("h2o", 1e-5), ("chain_h08", 1e-5),
    ("chain_h10", 1e-5)])
def test_pauli_threshold_drops_only_entries_at_or_below_it(name, threshold):
    # the rule resources.sparse_term_count prices by: a term stays exactly
    # when its tensor entry |h~_ij| or |g_ijkl| is above the threshold. Each
    # h~_ij gives two Q words of weight |h~_ij| / 2, each g_ijkl four
    # ordered products of weight |g_ijkl| / 4, two of which are the
    # identity when (ij) = (kl)
    maj = hamiltonian(name)
    lcu = sparse_pauli_lcu(maj, threshold=threshold)
    n = maj.n_orbitals
    h = np.abs(maj.h_tilde)
    g = np.abs(maj.g).reshape(n * n, n * n)
    n_terms = (2 * (h > threshold).sum() + 4 * (g > threshold).sum()
               - 2 * (np.diag(g) > threshold).sum())
    assert len(lcu.fragments) == n_terms
    dropped = (h[h <= threshold].sum() + g[g <= threshold].sum()
               - 0.5 * np.diag(g)[np.diag(g) <= threshold].sum())
    assert lcu.metadata["dropped_weight"] == pytest.approx(dropped, rel=1e-12,
                                                           abs=1e-15)


def test_sorted_insertion_single_qubit():
    s = pauli_sum(1, ["X", "Y", "Z"], [0.3, -0.4, 1.2])
    lcu = sorted_insertion_ac(s)
    assert len(lcu.fragments) == 1
    assert lcu.one_norm == pytest.approx(np.sqrt(0.09 + 0.16 + 1.44))
    group = lcu.fragments[0].unitary
    # insertion order is by descending magnitude
    assert [word_label(w) for w in group.words] == ["Z", "Y", "X"]


def test_sorted_insertion_commuting_terms_stay_apart():
    s = pauli_sum(2, ["Z I", "I Z"], [0.5, 0.25])
    lcu = sorted_insertion_ac(s)
    assert len(lcu.fragments) == 2
    assert lcu.one_norm == pytest.approx(0.75)


def test_sorted_insertion_strips_identity_to_constant():
    s = pauli_sum(1, ["I", "X"], [0.7, 0.2])
    lcu = sorted_insertion_ac(s)
    assert lcu.constant == pytest.approx(0.7)
    assert lcu.one_norm == pytest.approx(0.2)


def test_sorted_insertion_rejects_non_hermitian():
    with pytest.raises(ValueError, match="Hermitian"):
        sorted_insertion_ac(pauli_sum(2, ["X Z", "Z I"], [0.5, 0.25j]))


@pytest.mark.parametrize("words, coeffs, constant", [
    (["I I"], [0.7], 0.7),
    (["I I", "X Z", "X Z"], [-1.5, 0.25, -0.25], -1.5),
    ([], [], 0.0),
])
def test_sorted_insertion_without_items(words, coeffs, constant):
    lcu = sorted_insertion_ac(pauli_sum(2, words, coeffs))
    assert len(lcu.fragments) == 0 and lcu.one_norm == 0.0
    assert lcu.constant == constant
    assert lcu.metadata["n_groups"] == 0 and lcu.metadata["n_items"] == 0


@pytest.mark.parametrize("name", sorted(FROZEN))
def test_ac_frozen(name):
    maj = hamiltonian(name)
    lam_p, lam_t, lam_q, ng_t, ng_q, *_ = FROZEN[name]
    tensor = ac_lcu(maj)
    assert tensor.one_norm == pytest.approx(lam_t, abs=1e-8)
    assert tensor.metadata["n_groups"] == ng_t
    pauli = pauli_sum_of_hamiltonian(maj)
    qubit = sorted_insertion_ac(pauli)
    assert qubit.one_norm == pytest.approx(lam_q, abs=1e-8)
    assert qubit.metadata["n_groups"] == ng_q
    # grouping can only help relative to the per-term norms
    assert lam_t <= lam_p + 1e-9
    not_identity = (pauli.x | pauli.z) != 0
    assert lam_q <= np.abs(pauli.coeffs[not_identity]).sum() + 1e-9


@pytest.mark.parametrize("name", ["h2o", "chain_h10"])
def test_ac_deviation_within_reported_truncation(name):
    # items at or below COEFF_TOL join no group: their weight is the
    # truncation, and the deviation from H is at most that plus rounding
    maj = hamiltonian(name)
    lcu = ac_lcu(maj)
    bound = lcu.metadata["truncation_bound"]
    assert bound == lcu.metadata["dropped_weight"] > 0.0
    rounding = ROUNDING_ULPS * np.finfo(float).eps * (lcu.one_norm + abs(lcu.constant))
    assert verify_reconstruction(lcu, maj) <= bound + rounding


@pytest.mark.parametrize("name", ["h2", "lih"])
def test_ac_groups_pairwise_anticommute(name):
    maj = hamiltonian(name)
    for lcu in (ac_lcu(maj), sorted_insertion_ac(pauli_sum_of_hamiltonian(maj))):
        for frag in lcu.fragments:
            group = frag.unitary
            words = group.words
            assert frag.coefficient == pytest.approx(np.linalg.norm(group.coeffs))
            for a in range(len(words)):
                for b in range(a + 1, len(words)):
                    assert not words_commute(words[a], words[b])


def test_givens_chain_examples():
    np.testing.assert_allclose(givens_chain_angles([1.0, 0.0, 0.0]), 0.0, atol=1e-15)
    assert givens_chain_angles([0.0, 1.0])[0] == pytest.approx(np.pi / 4)
    with pytest.raises(ValueError):
        givens_chain_angles([0.5, 0.5])


def test_givens_chain_random_roundtrip():
    rng = np.random.default_rng(5)
    for _ in range(100):
        j = int(rng.integers(1, 17))
        c = rng.normal(size=j)
        c /= np.linalg.norm(c)
        angles = givens_chain_angles(c)
        rec = reconstruct_chain(angles, j)
        if j == 1:
            rec = rec * np.sign(c[0])
        np.testing.assert_allclose(rec, c, atol=1e-10)


def test_naive_phases_examples():
    assert naive_ac_phases(np.array([0.8]))[0] == pytest.approx(np.pi / 4)
    phases = naive_ac_phases(np.array([0.5, 0.5]))
    assert phases[1] == pytest.approx(0.5 * np.arcsin(1 / np.sqrt(2)))
    assert phases[1] == pytest.approx(np.pi / 8)


def test_naive_phases_of_group_coeffs():
    lcu = sorted_insertion_ac(pauli_sum_of_hamiltonian(hamiltonian("h2")))
    group = lcu.fragments[0].unitary
    phases = naive_ac_phases(group.coeffs)
    assert phases.shape == (len(group.words),)
    assert abs(phases[0]) == pytest.approx(np.pi / 4)


def test_rotation_matrix_properties():
    rng = np.random.default_rng(2)
    n = 4
    angles = rng.normal(size=n * (n - 1) // 2)
    u = rotation_from_angles(angles, n)
    np.testing.assert_allclose(u.T @ u, np.eye(n), atol=1e-12)
    assert np.linalg.det(u) == pytest.approx(1.0)


def test_rotation_preserves_spectrum():
    from conftest import dense_from_tensors

    mol = load_fixture("h2")
    rng = np.random.default_rng(3)
    angles = rng.normal(size=1)
    u = rotation_from_angles(angles, 2)
    rotated = MolecularIntegrals(
        2, mol.core_energy, u.T @ mol.one_body @ u,
        np.einsum("pi,qj,rk,sl,pqrs->ijkl", u, u, u, u, mol.two_body))
    e0 = np.linalg.eigvalsh(dense_from_tensors(mol.core_energy, mol.one_body, mol.two_body))
    e1 = np.linalg.eigvalsh(dense_from_tensors(rotated.core_energy, rotated.one_body,
                                               rotated.two_body))
    np.testing.assert_allclose(e0, e1, atol=1e-8)


def test_rotate_hamiltonian_norm_invariants():
    maj = hamiltonian("h2")
    u = rotation_from_angles([0.3], 2)
    rot = rotate_hamiltonian(maj, u)
    assert rot.h0 == pytest.approx(maj.h0, abs=1e-12)
    # Frobenius norms are rotation invariants even though 1-norms are not
    assert np.linalg.norm(rot.h_tilde) == pytest.approx(np.linalg.norm(maj.h_tilde))
    assert np.linalg.norm(rot.g) == pytest.approx(np.linalg.norm(maj.g))


def test_orbital_optimize_stationary_case():
    h = np.diag([1.0, 2.0])
    g = np.zeros((2, 2, 2, 2))
    for i in range(2):
        for k in range(2):
            g[i, i, k, k] = 0.1 * (i + 1) * (k + 1)
    mol = MolecularIntegrals(2, 0.0, h, g)
    rot, rotated = orbital_optimize(mol, "pauli", restarts=1)
    assert rot.one_norm <= rot.initial_one_norm + 1e-12
    np.testing.assert_allclose(rot.matrix.T @ rot.matrix, np.eye(2), atol=1e-12)


def test_orbital_optimize_recovers_scramble():
    mol = load_fixture("h2")
    base, _ = orbital_optimize(mol, "pauli", restarts=2)
    rng = np.random.default_rng(9)
    u = rotation_from_angles(rng.normal(size=1), 2)
    scrambled = MolecularIntegrals(
        2, mol.core_energy, u.T @ mol.one_body @ u,
        np.einsum("pi,qj,rk,sl,pqrs->ijkl", u, u, u, u, mol.two_body))
    rot, _ = orbital_optimize(scrambled, "pauli", restarts=2)
    assert rot.one_norm <= base.one_norm + 1e-6


def test_orbital_optimize_budget_flag():
    # the budget is a hard cap; lih/ac/300/2 reaches it inside a line search
    # of the angle sweeps
    mol = load_fixture("lih")
    for objective, budget, restarts in (("pauli", 50, 1), ("ac", 300, 2)):
        rot, _ = orbital_optimize(mol, objective, budget=budget,
                                  restarts=restarts)
        assert not rot.converged
        assert rot.evaluations <= budget
        assert rot.one_norm <= rot.initial_one_norm + 1e-12


# orbital_optimize at the default seed: (objective, fixture) to (budget,
# restarts, evaluations, one_norm). The search follows the last bits of every
# evaluation (a one-ulp change in the rotation product takes lih's oo-pauli
# search from 22,511 to 24,077 evaluations), so a change that rounds
# differently fails here. The values pin the rounding of the BLAS they were
# measured with (OpenBLAS 0.3.31 with its Haswell kernels on x86-64; the
# same at one and at two BLAS threads): a failure on a build with another
# BLAS kernel or CPU reads as a rounding change, not a defect.
OO_FROZEN = {
    ("pauli", "h2"): (None, 3, 276, 2.286741090286598),
    ("pauli", "lih"): (None, 3, 22511, 13.347137785997838),
    ("ac", "h2"): (1000, 2, 145, 1.4033281654429897),
}


@pytest.mark.parametrize("objective,name", sorted(OO_FROZEN))
def test_orbital_optimize_search_path_frozen(objective, name):
    budget, restarts, evaluations, lam = OO_FROZEN[objective, name]
    rot, _ = orbital_optimize(load_fixture(name), objective, budget=budget,
                              restarts=restarts)
    assert rot.evaluations == evaluations
    assert rot.one_norm == pytest.approx(lam, rel=1e-12)


def test_orbital_optimize_rejects_unknown_objective():
    with pytest.raises(ValueError):
        orbital_optimize(load_fixture("h2"), "entropy")


def test_orbital_optimize_ac_reports_lambda_of_returned_integrals():
    # at this budget, grouping the rotated Majorana tensors and grouping the
    # tensors rebuilt from the rotated integrals give different λ
    rot, rotated = orbital_optimize(load_fixture("lih"), "ac", budget=100,
                                    restarts=1)
    lam = ac_lcu(build_majorana(rotated)).one_norm
    assert rot.one_norm == pytest.approx(lam, abs=1e-12)


def test_orbital_optimize_returns_rotated_integrals():
    mol = load_fixture("h2")
    rot, rotated = orbital_optimize(mol, "pauli", restarts=1)
    maj = build_majorana(rotated)
    lam = np.abs(maj.h_tilde).sum() + np.abs(maj.g).sum()
    assert lam == pytest.approx(rot.one_norm, abs=1e-9)
