"""Dense-oracle checks: spectral ranges, fragment rendering, operator
reconstruction, and the 1-norm lower bound, across every decomposition route."""

from dataclasses import replace
from functools import lru_cache

import numpy as np
import pytest

from fermilcu.fermionic_lcu import (
    cholesky_sf,
    csa_decompose,
    csa_lcu,
    diagonalize_one_body,
    double_factorize,
)
from fermilcu.lcu import AcGroup, Fragment, LcuDecomposition, PauliTerm, Reflection, ReflectionProduct
from fermilcu.majorana import (
    MajoranaHamiltonian,
    PauliWord,
    pauli_sum_of_hamiltonian,
    sector_matrix,
)
from fermilcu.mtd_l4 import cp4_als, l4_lcu, mps_factorize, svd_chain_factorize
from fermilcu.qubit_lcu import ac_lcu, sorted_insertion_ac, sparse_pauli_lcu
from fermilcu.verify import (
    SpectralRange,
    fragment_pauli_sum,
    reconstruction_tolerance,
    spectral_range,
    verify_norm_bound,
    verify_reconstruction,
)

from conftest import hamiltonian
from reference import (
    ac_givens_matrix,
    ac_naive_matrix,
    fragment_matrix,
    full_space_eigsh_range,
    full_space_range,
)

# measured on this implementation
H2_E_MIN = -1.1372744061
H2_E_MAX = 0.9209835035
H2_HALF = 1.0291289548
LIH_HALF = 4.8830757803

METHODS = ("pauli", "ac-tensor", "ac-qubit", "sf", "df", "csa",
           "l4-svd", "l4-mps", "l4-cp4")


def zero_hamiltonian(n: int = 1) -> MajoranaHamiltonian:
    return MajoranaHamiltonian(n_orbitals=n, h0=0.0, h_tilde=np.zeros((n, n)),
                               g=np.zeros((n, n, n, n)))


def odd_ground_hamiltonian() -> MajoranaHamiltonian:
    return MajoranaHamiltonian(n_orbitals=1, h0=0.0, h_tilde=np.zeros((1, 1)),
                               g=np.ones((1, 1, 1, 1)))


@lru_cache(maxsize=None)
def h2_lcu(method: str) -> LcuDecomposition:
    maj = hamiltonian("h2")
    if method == "pauli":
        return sparse_pauli_lcu(maj)
    if method == "ac-tensor":
        return ac_lcu(maj)
    if method == "ac-qubit":
        return sorted_insertion_ac(pauli_sum_of_hamiltonian(maj))
    if method == "sf":
        return cholesky_sf(maj)
    if method == "df":
        return double_factorize(maj)
    if method == "csa":
        return csa_lcu(maj, csa_decompose(maj, 2))
    one_body = diagonalize_one_body(maj)
    factorize = {"l4-svd": svd_chain_factorize, "l4-mps": mps_factorize,
                 "l4-cp4": lambda g: cp4_als(g, max_rank=8)}[method]
    return l4_lcu(factorize(maj.g), one_body, constant=maj.h0)


@lru_cache(maxsize=None)
def lih_lcu(method: str) -> LcuDecomposition:
    maj = hamiltonian("lih")
    if method == "df":
        return double_factorize(maj)
    return l4_lcu(svd_chain_factorize(maj.g), diagonalize_one_body(maj),
                  constant=maj.h0)


def rotated(v, angle):
    """v turned by angle towards a unit vector orthogonal to it, renormalized."""
    p = np.roll(v, 1) - (np.roll(v, 1) @ v) * v
    out = np.cos(angle) * v + np.sin(angle) * p / np.linalg.norm(p)
    return out / np.linalg.norm(out)


def with_fault(lcu, fault, angle=0.0):
    """lcu with one fault in its largest product of two reflections."""
    k = max((k for k, f in enumerate(lcu.fragments)
             if f.kind == "reflection-product" and len(f.unitary.reflections) == 2),
            key=lambda k: lcu.fragments[k].coefficient)
    if fault == "drop":
        return replace(lcu, fragments=lcu.fragments[:k] + lcu.fragments[k + 1:])
    frag = lcu.fragments[k]
    first, second = frag.unitary.reflections
    if fault == "sign":
        unit = replace(frag.unitary, sign=-frag.unitary.sign)
    elif fault == "spin":
        unit = replace(frag.unitary, reflections=(replace(first, sigma=1 - first.sigma), second))
    else:
        unit = replace(frag.unitary, reflections=(replace(first, v=rotated(first.v, angle)), second))
    fragments = list(lcu.fragments)
    fragments[k] = replace(frag, unitary=unit)
    return replace(lcu, fragments=fragments)


def sample_word():
    frag = h2_lcu("pauli").fragments[0]
    return frag.unitary.word


class TestSpectralRange:
    def test_h2_extremes_match_pinned_values(self):
        sr = spectral_range(hamiltonian("h2"))
        assert sr.e_min == pytest.approx(H2_E_MIN, abs=1e-9)
        assert sr.e_max == pytest.approx(H2_E_MAX, abs=1e-9)
        assert sr.half_range == pytest.approx(H2_HALF, abs=1e-9)

    def test_lih_half_range_matches_pinned_value(self):
        # 12 qubits in 13 central sectors; the largest, (3, 3), has 400 states
        sr = spectral_range(hamiltonian("lih"))
        assert sr.half_range == pytest.approx(LIH_HALF, abs=1e-6)
        assert sr.e_min < 0.0 < sr.e_max

    def test_half_range_definition(self):
        assert SpectralRange(-3.0, 5.0).half_range == pytest.approx(4.0)

    def test_zero_hamiltonian(self):
        sr = spectral_range(zero_hamiltonian())
        assert (sr.e_min, sr.e_max, sr.half_range) == (0.0, 0.0, 0.0)

    def test_constant_shift_moves_both_ends(self):
        maj = MajoranaHamiltonian(n_orbitals=1, h0=2.5,
                                  h_tilde=np.zeros((1, 1)),
                                  g=np.zeros((1, 1, 1, 1)))
        sr = spectral_range(maj)
        assert sr.e_min == pytest.approx(2.5)
        assert sr.e_max == pytest.approx(2.5)
        assert sr.half_range == pytest.approx(0.0, abs=1e-12)

    def test_guard_rejects_large_systems(self):
        with pytest.raises(ValueError, match="24 qubits"):
            spectral_range(zero_hamiltonian(13))

    def test_rejects_two_body_tensor_without_pair_symmetry(self):
        # g_ijkl != g_jikl breaks the electron counts the sectors rely on
        g = np.zeros((2, 2, 2, 2))
        g[0, 1, 0, 0] = g[0, 0, 0, 1] = 1.0
        maj = MajoranaHamiltonian(n_orbitals=2, h0=0.0,
                                  h_tilde=np.zeros((2, 2)), g=g)
        with pytest.raises(ValueError, match="g_ijkl = g_jikl"):
            spectral_range(maj)

    def test_minimum_in_odd_electron_sector_only(self):
        # one orbital, H = h0 + (1/4) g (Q_a + Q_b)^2: 1 with zero or two
        # electrons, 0 with one, so only an odd sector holds the minimum
        maj = odd_ground_hamiltonian()
        op = pauli_sum_of_hamiltonian(maj)
        even, _ = sector_matrix(op, [(0, 0), (1, 1)])
        assert np.linalg.eigvalsh(even.toarray()).min() == pytest.approx(1.0)
        sr = spectral_range(maj)
        assert (sr.e_min, sr.e_max) == (pytest.approx(0.0, abs=1e-12),
                                        pytest.approx(1.0))
        full = full_space_range(maj)
        assert (full.e_min, full.e_max) == (pytest.approx(0.0, abs=1e-12),
                                            pytest.approx(1.0))

    @pytest.mark.parametrize("name", ["lih", "beh2", "h2o", "chain_h06",
                                      "chain_h08"])
    def test_sectors_match_full_space_lanczos(self, name):
        maj = hamiltonian(name)
        sectors, full = spectral_range(maj), full_space_eigsh_range(maj)
        assert sectors.half_range == pytest.approx(full.half_range, rel=1e-10)
        for mine, theirs in ((sectors.e_min, full.e_min),
                             (sectors.e_max, full.e_max)):
            assert mine == pytest.approx(theirs, rel=1e-10)


class TestFragmentMatrix:
    def test_identity_fragment(self):
        frag = Fragment(1.0, "pauli", PauliTerm(PauliWord(2, 0, 0), 1.0))
        assert np.allclose(fragment_matrix(frag), np.eye(4))

    def test_pauli_fragment_carries_phase(self):
        frag = Fragment(0.5, "pauli", PauliTerm(sample_word(), -1.0))
        assert np.allclose(fragment_matrix(frag), -sample_word().dense())

    def test_single_word_group_is_that_pauli(self):
        word = sample_word()
        group = AcGroup(words=(word,), coeffs=np.array([0.8]), norm=0.8)
        frag = Fragment(0.8, "ac-group", group)
        assert np.allclose(fragment_matrix(frag), word.dense())

    def test_fragment_pauli_sum_single_term(self):
        frag = h2_lcu("pauli").fragments[0]
        ps = fragment_pauli_sum(frag, 2)
        assert len(ps) == 1

    def test_unitarity_violation_raises(self):
        # coefficients and stored norm disagree, so the sum is 0.5 * word
        word = sample_word()
        group = AcGroup(words=(word,), coeffs=np.array([0.5]), norm=1.0)
        with pytest.raises(ValueError, match="not unitary"):
            fragment_matrix(Fragment(0.5, "ac-group", group))

    def test_sf_poly_hermitian_and_bounded(self):
        checked = 0
        for frag in h2_lcu("sf").fragments:
            if frag.kind != "sf-poly":
                continue
            m = fragment_matrix(frag)
            assert np.abs(m - m.conj().T).max() < 1e-12
            eigs = np.linalg.eigvalsh(m)
            assert eigs[0] >= -1.0 - 1e-9
            assert eigs[-1] <= 1.0 + 1e-9
            checked += 1
        assert checked

    def test_sf_poly_single_mode_square_is_unitary(self):
        maj = MajoranaHamiltonian(n_orbitals=1, h0=0.0,
                                  h_tilde=np.zeros((1, 1)),
                                  g=np.ones((1, 1, 1, 1)))
        lcu = cholesky_sf(maj)
        polys = [f for f in lcu.fragments if f.kind == "sf-poly"]
        assert len(polys) == 1
        m = fragment_matrix(polys[0])
        assert np.abs(m @ m.conj().T - np.eye(4)).max() < 1e-12

    def test_dense_guard(self):
        v = np.zeros(5)
        v[0] = 1.0
        pair = ReflectionProduct((Reflection(v, v, 0),), 1.0)
        with pytest.raises(ValueError, match="limited"):
            fragment_matrix(Fragment(1.0, "reflection-product", pair))

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown fragment kind"):
            fragment_matrix(Fragment(1.0, "bogus", None))


class TestFragmentUnitarity:
    @pytest.mark.parametrize("method", METHODS)
    def test_every_fragment_passes_its_defining_check(self, method):
        for frag in h2_lcu(method).fragments:
            m = fragment_matrix(frag)
            assert m.shape == (16, 16)

    @pytest.mark.parametrize("method", ("sf", "df", "csa"))
    def test_reflection_fragments_square_to_identity(self, method):
        checked = 0
        for frag in h2_lcu(method).fragments:
            if frag.kind != "reflection-product":
                continue
            m = fragment_matrix(frag)
            assert np.abs(m @ m - np.eye(16)).max() < 1e-9
            checked += 1
        assert checked

    @pytest.mark.parametrize("method", ("l4-svd", "l4-mps", "l4-cp4"))
    def test_l4_commuting_products_square_to_identity(self, method):
        # same-spin double reflections need not square to identity
        checked = 0
        for frag in h2_lcu(method).fragments:
            refls = frag.unitary.reflections
            if len(refls) == 2 and refls[0].sigma == refls[1].sigma:
                continue
            m = fragment_matrix(frag)
            assert np.abs(m @ m - np.eye(16)).max() < 1e-9
            checked += 1
        assert checked


class TestAcRenderers:
    @staticmethod
    def groups(level):
        return [f.unitary for f in h2_lcu("ac-" + level).fragments]

    @pytest.mark.parametrize("level", ("tensor", "qubit"))
    def test_naive_matches_group_operator(self, level):
        for group in self.groups(level):
            target = sum((c / group.norm) * w.dense()
                         for w, c in zip(group.words, group.coeffs))
            assert np.abs(ac_naive_matrix(group) - target).max() < 1e-12

    @pytest.mark.parametrize("level", ("tensor", "qubit"))
    def test_givens_matches_naive(self, level):
        for group in self.groups(level):
            dev = np.abs(ac_naive_matrix(group) - ac_givens_matrix(group)).max()
            assert dev < 1e-9

    def test_fragment_matrix_agrees_with_renderers(self):
        for frag in h2_lcu("ac-qubit").fragments:
            m = fragment_matrix(frag)
            assert np.abs(m - ac_naive_matrix(frag.unitary)).max() < 1e-12

    def test_single_negative_word(self):
        word = sample_word()
        group = AcGroup(words=(word,), coeffs=np.array([-0.3]), norm=0.3)
        expected = -word.dense()
        assert np.allclose(ac_naive_matrix(group), expected)
        assert np.allclose(ac_givens_matrix(group), expected)


class TestReconstruction:
    @pytest.mark.parametrize("method", METHODS)
    def test_h2_within_tolerance(self, method):
        lcu = h2_lcu(method)
        dev = verify_reconstruction(lcu, hamiltonian("h2"))
        assert dev <= reconstruction_tolerance(lcu)

    def test_pauli_exact(self):
        assert verify_reconstruction(h2_lcu("pauli"), hamiltonian("h2")) < 1e-10

    def test_df_within_default_tolerance(self):
        assert verify_reconstruction(h2_lcu("df"), hamiltonian("h2")) < 1e-6

    def test_corrupted_coefficient_detected(self):
        maj = hamiltonian("h2")
        base = sparse_pauli_lcu(maj)
        frags = list(base.fragments)
        f0 = frags[0]
        frags[0] = Fragment(f0.coefficient + 0.01, f0.kind, f0.unitary)
        dev = verify_reconstruction(replace(base, fragments=frags), maj)
        assert dev == pytest.approx(0.01, rel=1e-6)

    @pytest.mark.parametrize("method", ("df", "l4-svd"))
    @pytest.mark.parametrize("fault, angle", [("sign", 0.0), ("spin", 0.0),
                                              ("rotate", 0.05), ("drop", 0.0)])
    def test_reflection_product_fault_detected(self, method, fault, angle):
        lcu = lih_lcu(method)
        faulty = with_fault(lcu, fault, angle)
        assert verify_reconstruction(faulty, hamiltonian("lih")) > reconstruction_tolerance(lcu)

    @pytest.mark.parametrize("method", ("df", "l4-svd"))
    def test_reflection_rotation_by_1e_6_moves_deviation(self, method):
        # a 1e-6 turn changes the operator by about 1e-6 in 1-norm, inside the
        # 1e-6 floor of reconstruction_tolerance, so only the deviation sees it
        maj, lcu = hamiltonian("lih"), lih_lcu(method)
        moved = verify_reconstruction(with_fault(lcu, "rotate", 1e-6), maj)
        assert abs(moved - verify_reconstruction(lcu, maj)) > 1e-7

    def test_lih_coefficient_level(self):
        # the deviation is the Pauli-coefficient 1-norm of the difference at
        # every size; an untruncated Pauli LCU leaves only rounding in it
        maj = hamiltonian("lih")
        exact = sparse_pauli_lcu(maj, threshold=0.0)
        assert verify_reconstruction(exact, maj) < 1e-8
        df = double_factorize(maj)
        assert verify_reconstruction(df, maj) <= reconstruction_tolerance(df)


class TestNormBound:
    @pytest.mark.parametrize("method", METHODS)
    def test_h2_all_methods_satisfy_bound(self, method):
        sr = spectral_range(hamiltonian("h2"))
        assert verify_norm_bound(h2_lcu(method), sr)

    def test_zero_hamiltonian(self):
        lcu = LcuDecomposition(method="pauli", n_orbitals=1, fragments=[],
                               one_norm=0.0)
        assert verify_norm_bound(lcu, SpectralRange(0.0, 0.0))

    def test_deflated_norm_rejected(self):
        sr = spectral_range(hamiltonian("h2"))
        cheat = replace(h2_lcu("pauli"), one_norm=0.4 * sr.half_range,
                        constant=0.0)
        assert not verify_norm_bound(cheat, sr)


class TestReconstructionTolerance:
    def test_floor(self):
        lcu = LcuDecomposition(method="pauli", n_orbitals=1, fragments=[],
                               one_norm=0.0)
        assert reconstruction_tolerance(lcu) == 1e-6

    def test_truncation_lifts_floor(self):
        lcu = LcuDecomposition(method="df", n_orbitals=1, fragments=[],
                               one_norm=0.0, metadata={"truncation_bound": 5e-3})
        assert reconstruction_tolerance(lcu) == 5e-3

    def test_rounding_allowance_scales_with_lambda_and_constant(self):
        lcu = LcuDecomposition(method="df", n_orbitals=1, fragments=[],
                               one_norm=60.0, constant=-40.0,
                               metadata={"truncation_bound": 5e-3})
        eps = np.finfo(float).eps
        assert reconstruction_tolerance(lcu) == 5e-3 + 64 * eps * 100.0

    def test_h2o_pauli_passes_and_one_more_dropped_term_fails(self):
        # the 1-norm deviation equals the dropped weight up to rounding, which
        # the allowance covers; dropping 1e-9 more must still be caught
        maj = hamiltonian("h2o")
        lcu = sparse_pauli_lcu(maj)
        assert verify_reconstruction(lcu, maj) <= reconstruction_tolerance(lcu)
        first = lcu.fragments[0]
        shrunk = replace(first, coefficient=first.coefficient - 1e-9)
        worse = replace(lcu, fragments=[shrunk] + lcu.fragments[1:])
        assert verify_reconstruction(worse, maj) > reconstruction_tolerance(worse)
