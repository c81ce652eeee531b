"""Factorization stream: one-body diagonalization, pivoted Cholesky,
single/double factorization, CSA cascade."""

import numpy as np
import pytest
from scipy.linalg import eigh, expm

from fermilcu.fermionic_lcu import (
    _csa_seeds,
    _csa_unpack,
    cholesky_sf,
    csa_decompose,
    csa_lcu,
    diagonalize_one_body,
    double_factorize,
    pivoted_cholesky,
)
from fermilcu.integrals import load_fixture
from fermilcu.lcu import Fragments, ReflectionBlock
from fermilcu.majorana import MajoranaHamiltonian
from fermilcu.mtd_l4 import l4_lcu
from fermilcu.qubit_lcu import rotation_from_angles
from fermilcu.report import decompose_method

from conftest import cp4_fit, hamiltonian

# measured on this implementation; integer counts exact, floats to 1e-8
FROZEN = {
    # name: (lambda_one_body, n_factors, lambda_sf, lambda_df)
    "h2": (0.7884587663, 3, 1.6445021075, 2.0669041164),
    "lih": (4.3419917380, 18, 11.1486556621, 10.9211750709),
    "beh2": (6.5798333012, 22, 18.4470500479, 19.6387525348),
    "h2o": (39.1010337611, 23, 62.6672028872, 59.7081153369),
}

H2_SF_CONSTANT = 0.3240509068
H2_DF_CONSTANT = -0.0983511021  # matches the Pauli identity coefficient
H2_DF_FRAGMENTS = 17
H2_CSA_LAMBDA = 1.7269553911
# csa lambda of the finite-difference fit (default fragments and seed); the
# exact-gradient fit must not give it up
CSA_LAMBDA_CEILING = {"h2": 1.7269553910963644, "lih": 10.518048093003292}


def factorized_lcu(method, name):
    """The fixture's LCU by a factorized method; csa fits two fragments and
    l4-cp4 reads the shared cp4_fit, since only the sums are checked."""
    maj = hamiltonian(name)
    if method == "csa":
        return csa_lcu(maj, csa_decompose(maj, 2))
    if method == "l4-cp4":
        return l4_lcu(cp4_fit(name), diagonalize_one_body(maj), constant=maj.h0)
    return decompose_method(load_fixture(name), method)[1]


def two_body_from_matrix(w: np.ndarray) -> np.ndarray:
    return np.einsum("ij,kl->ijkl", w, w)


def toy(h_tilde: np.ndarray, g: np.ndarray = None) -> MajoranaHamiltonian:
    n = h_tilde.shape[0]
    if g is None:
        g = np.zeros((n, n, n, n))
    return MajoranaHamiltonian(n_orbitals=n, h0=0.0, h_tilde=h_tilde, g=g)


def rebuilt(block):
    """sum_a w_a v_a v_a^T over a one-body block's rows."""
    v = block.directions[0]
    return (v.T * block.weights) @ v


class TestDiagonalizeOneBody:
    def test_identity_matrix(self):
        frag = diagonalize_one_body(toy(2.0 * np.eye(2)))
        assert frag.one_norm == pytest.approx(4.0, abs=1e-12)

    def test_mixed_signs(self):
        a = 1.3
        frag = diagonalize_one_body(toy(np.diag([2 * a, -2 * a])))
        assert frag.one_norm == pytest.approx(4 * a, abs=1e-12)

    def test_eigendecomposition_invariant(self, any_molecule):
        maj = hamiltonian(any_molecule)
        frag = diagonalize_one_body(maj)
        assert np.abs(rebuilt(frag) - 0.5 * maj.h_tilde).max() < 1e-10

    def test_h2_residual(self, h2):
        maj = h2
        frag = diagonalize_one_body(maj)
        assert np.abs(rebuilt(frag) - 0.5 * maj.h_tilde).max() < 1e-12

    @pytest.mark.parametrize("name", sorted(FROZEN))
    def test_frozen_contribution(self, name):
        maj = hamiltonian(name)
        frag = diagonalize_one_body(maj)
        assert frag.one_norm == pytest.approx(FROZEN[name][0], abs=1e-8)


class TestPivotedCholesky:
    def test_h2_factor_count(self, h2):
        factors, delta = pivoted_cholesky(h2)
        assert len(factors) == 3
        assert float((delta * delta).sum()) < 1e-12

    def test_reconstruction_is_exact_bookkeeping(self, any_molecule):
        maj = hamiltonian(any_molecule)
        factors, delta = pivoted_cholesky(maj)
        recon = sum(two_body_from_matrix(f) for f in factors) + delta
        assert np.abs(recon - maj.g).max() < 1e-10

    def test_factors_are_symmetric(self, h2):
        factors, _ = pivoted_cholesky(h2)
        for f in factors:
            assert np.abs(f - f.T).max() < 1e-12

    def test_separable_tensor_gives_single_factor(self):
        w = np.array([[1.0, 0.2], [0.2, 0.5]])
        maj = toy(np.zeros((2, 2)), two_body_from_matrix(w))
        factors, delta = pivoted_cholesky(maj)
        assert len(factors) == 1
        got = factors[0]
        assert min(np.abs(got - w).max(), np.abs(got + w).max()) < 1e-10
        assert float((delta * delta).sum()) < 1e-20

    def test_zero_tensor_gives_no_factors(self):
        factors, delta = pivoted_cholesky(toy(np.eye(2)))
        assert factors == []
        assert np.abs(delta).max() == 0.0

    def test_indefinite_tensor_rejected(self):
        g = np.zeros((2, 2, 2, 2))
        g[0, 0, 0, 0] = -1.0
        with pytest.raises(ValueError, match="positive semidefinite"):
            pivoted_cholesky(toy(np.zeros((2, 2)), g))

    def test_looser_tolerance_truncates_earlier(self, lih):
        maj = lih
        tight, _ = pivoted_cholesky(maj, tol=1e-8)
        loose, delta = pivoted_cholesky(maj, tol=1e-2)
        assert len(loose) < len(tight)
        assert float((delta * delta).sum()) < 1e-2


class TestCholeskySf:
    @pytest.mark.parametrize("name", sorted(FROZEN))
    def test_frozen_lambda(self, name):
        maj = hamiltonian(name)
        factors, _ = pivoted_cholesky(maj)
        lcu = cholesky_sf(maj)
        assert len(factors) == FROZEN[name][1]
        assert lcu.one_norm == pytest.approx(FROZEN[name][2], abs=1e-8)

    def test_h2_constant(self, h2):
        lcu = cholesky_sf(h2)
        assert lcu.constant == pytest.approx(H2_SF_CONSTANT, abs=1e-8)

    def test_coefficients_are_positive(self, h2):
        lcu = cholesky_sf(h2)
        assert all(f.coefficient > 0 for f in lcu.fragments)
        assert sum(f.coefficient for f in lcu.fragments) == pytest.approx(
            lcu.one_norm, abs=1e-12)

    def test_weights_match_factor_norms(self, h2):
        maj = h2
        factors, _ = pivoted_cholesky(maj)
        lcu = cholesky_sf(maj)
        for f, weight in zip(factors, lcu.metadata["fragment_weights"]):
            norm = 2.0 * np.abs(f).sum()
            assert weight == pytest.approx(norm * norm / 8.0, abs=1e-12)

    def test_truncation_metadata(self, lih):
        maj = lih
        lcu = cholesky_sf(maj, tol=1e-2)
        assert lcu.metadata["residual_sq"] < 1e-2
        assert lcu.metadata["truncation_bound"] > 0.0


class TestDoubleFactorize:
    @pytest.mark.parametrize("name", sorted(FROZEN))
    def test_frozen_lambda(self, name):
        maj = hamiltonian(name)
        lcu = double_factorize(maj)
        assert lcu.one_norm == pytest.approx(FROZEN[name][3], abs=1e-8)

    def test_h2_constant_matches_pauli_identity(self, h2):
        lcu = double_factorize(h2)
        assert lcu.constant == pytest.approx(H2_DF_CONSTANT, abs=1e-8)

    def test_h2_fragment_count(self, h2):
        lcu = double_factorize(h2)
        assert len(lcu) == H2_DF_FRAGMENTS

    def test_identity_factor_weight(self):
        # g = I x I peels into the single Cholesky factor I
        n = 3
        maj = toy(np.zeros((n, n)), two_body_from_matrix(np.eye(n)))
        lcu = double_factorize(maj)
        assert lcu.metadata["fragment_weights"] == [pytest.approx(n * n / 2.0)]

    def test_eigenvalue_drop_is_accounted(self):
        # the single factor diag(1, 1e-9) has one eigenvalue below the floor
        w = np.diag([1.0, 1e-9])
        maj = toy(np.zeros((2, 2)), two_body_from_matrix(w))
        lcu = double_factorize(maj)
        assert lcu.metadata["eigenvalue_loss"] == pytest.approx(1e-9, abs=1e-15)

    @pytest.mark.parametrize("name", sorted(FROZEN))
    def test_weight_totals_never_exceed_sf(self, name):
        # per-factor (sum|mu|)^2/2 against (2 sum|W|)^2/8, factor by factor;
        # both peel the same pivoted Cholesky factors at the default tol
        maj = hamiltonian(name)
        sf = cholesky_sf(maj)
        df = double_factorize(maj)
        assert df.metadata["n_factors"] == sf.metadata["n_factors"]
        for wdf, wsf in zip(df.metadata["fragment_weights"],
                            sf.metadata["fragment_weights"]):
            assert wdf <= wsf + 1e-9

    def test_pair_coefficients_recombine(self):
        # the fragment views' coefficients, each spatial row counted once per
        # entry of its spin pattern, sum to the advertised 1-norm
        for name in ("lih", "h2o"):
            for method in ("sf", "df", "csa", "l4-svd", "l4-mps", "l4-cp4"):
                lcu = factorized_lcu(method, name)
                assert sum(f.coefficient for f in lcu.fragments) == pytest.approx(
                    lcu.one_norm, abs=1e-12), f"{method} {name}"


class TestReflectionAssembly:
    def test_rows_become_fragments_in_order(self):
        # fragment k is row k // 2 under pattern entry k % 2
        rng = np.random.default_rng(3)
        weights = np.array([0.5, -0.25, 2.0])
        spins = np.array([[0, 1], [1, 1]])
        stacks = [rng.normal(size=(3, 4)) for _ in range(4)]
        frags = list(Fragments([ReflectionBlock(weights, spins, stacks)]))
        assert [f.coefficient for f in frags] == [0.5, 0.5, 0.25, 0.25, 2.0, 2.0]
        assert [f.unitary.sign for f in frags] == [1.0, 1.0, -1.0, -1.0, 1.0, 1.0]
        for k, frag in enumerate(frags):
            assert frag.kind == "reflection-product"
            (r1, r2) = frag.unitary.reflections
            assert (r1.sigma, r2.sigma) == tuple(spins[k % 2])
            for vector, stack in zip((r1.v, r1.w, r2.v, r2.w), stacks):
                assert np.array_equal(vector, stack[k // 2])
                assert not vector.flags.writeable
        # the caller's arrays stay writable
        assert all(stack.flags.writeable for stack in stacks)

    @pytest.mark.parametrize("method", ["sf", "df", "csa", "l4-svd",
                                        "l4-mps", "l4-cp4"])
    def test_every_direction_is_read_only(self, method):
        _, lcu = decompose_method(load_fixture("h2"), method)
        refls = [r for f in lcu.fragments if f.kind == "reflection-product"
                 for r in f.unitary.reflections]
        assert refls
        assert not any(r.v.flags.writeable or r.w.flags.writeable
                       for r in refls)


class TestCsa:
    def test_h2_two_fragments(self, h2):
        maj = h2
        out = csa_decompose(maj, 2)
        assert len(out.fragments) == 2
        assert out.converged
        assert float((out.residual ** 2).sum()) < 1e-6

    def test_greedy_residual_never_increases(self, h2):
        maj = h2
        one = csa_decompose(maj, 1)
        two = csa_decompose(maj, 2)
        r1 = float((one.residual ** 2).sum())
        r2 = float((two.residual ** 2).sum())
        assert r2 <= r1 + 1e-12

    def test_df_representable_single_fragment(self):
        n = 3
        angles = np.array([0.3, -0.7, 0.2])
        u = rotation_from_angles(angles, n)
        mu = np.array([1.0, 0.5, -0.3])
        w = u @ np.diag(mu) @ u.T
        maj = toy(np.zeros((n, n)), two_body_from_matrix(w))
        out = csa_decompose(maj, 1)
        assert len(out.fragments) == 1
        assert float((out.residual ** 2).sum()) < 1e-16
        lam = out.fragments[0].coefficients
        # rank-1 coefficient matrix lam_ab = mu_a mu_b in the fitted basis
        svals = np.linalg.svd(lam, compute_uv=False)
        assert svals[1] < 1e-8
        eigs, vecs = np.linalg.eigh(lam)
        lead = np.argmax(np.abs(eigs))
        a = np.sqrt(abs(eigs[lead])) * vecs[:, lead]
        w_fit = out.fragments[0].rotation @ np.diag(a) @ out.fragments[0].rotation.T
        assert min(np.abs(w_fit - w).max(), np.abs(w_fit + w).max()) < 1e-7

    def test_zero_tensor_gives_no_fragments(self):
        out = csa_decompose(toy(np.eye(2)), 3)
        assert out.fragments == []
        assert out.converged

    def test_budget_exhaustion_flags_partial(self, h2):
        out = csa_decompose(h2, 2, budget=5)
        assert not out.converged
        assert len(out.fragments) <= 2
        assert 0 < out.evaluations <= 5

    def test_rejects_zero_fragments(self, h2):
        with pytest.raises(ValueError):
            csa_decompose(h2, 0)

    def test_h2_lcu_frozen(self, h2):
        maj = h2
        out = csa_decompose(maj, 2)
        lcu = csa_lcu(maj, out)
        assert lcu.one_norm == pytest.approx(H2_CSA_LAMBDA, rel=1e-5)
        assert lcu.constant == pytest.approx(H2_DF_CONSTANT, abs=1e-5)

    def test_lcu_norm_recombines_from_fragments(self, h2):
        maj = h2
        out = csa_decompose(maj, 2)
        lcu = csa_lcu(maj, out)
        assert sum(f.coefficient for f in lcu.fragments) == pytest.approx(
            lcu.one_norm, abs=1e-10)

    def test_peel_seed_keeps_its_projectors(self):
        # the h2o peel's eigenvector matrix has det -1, which logm cannot pack
        target = hamiltonian("h2o").g
        n = target.shape[0]
        mat = target.reshape(n * n, n * n)
        p = int(np.argmax(np.diag(mat)))
        w = (mat[:, p] / np.sqrt(mat[p, p])).reshape(n, n)
        mu, uw = eigh(0.5 * (w + w.T))
        assert np.linalg.det(uw) < 0
        k, lam = _csa_unpack(_csa_seeds(target, np.random.default_rng(0))[0], n)
        u = expm(k)
        projectors = np.einsum("ia,ja->aij", u, u)
        assert np.abs(projectors - np.einsum("ia,ja->aij", uw, uw)).max() < 1e-12
        assert np.abs(lam - np.outer(mu, mu)).max() < 1e-12

    @pytest.mark.parametrize("name", sorted(CSA_LAMBDA_CEILING))
    def test_lambda_not_above_finite_difference_fit(self, name):
        _, lcu = decompose_method(load_fixture(name), "csa")
        assert lcu.one_norm <= CSA_LAMBDA_CEILING[name]
