"""Quartic tensor factorizations and their double-reflection LCU."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from fermilcu import mtd_l4
from fermilcu.fermionic_lcu import diagonalize_one_body, one_body_block
from fermilcu.mtd_l4 import (
    WEIGHT_TOL,
    QuarticFactors,
    _als_fit,
    _als_residual,
    _als_sweep,
    cp4_als,
    l4_lcu,
    mps_factorize,
    svd_chain_factorize,
)

from conftest import cp4_fit, hamiltonian, random_two_body

# measured on this implementation
FROZEN = {
    # name: (lambda_mps, bond_dims, lambda_svd)
    "h2": (2.5229281802, (2, 3, 2), 2.5005454487),
    "lih": (14.7773254512, (6, 18, 6), 11.5723050164),
    "beh2": (25.0073926856, (7, 22, 7), 20.8360167537),
    "h2o": (71.1214295054, (7, 24, 7), 61.3755857882),
}

# cp4_als(g) at the default tol and seed, priced by l4_lcu: (rank, lambda)
CP4_FROZEN = {
    "h2": (4, 2.4091885377624727),
    "lih": (49, 11.072836380204214),
    "beh2": (73, 18.217766144473227),
    "h2o": (81, 59.88586874095229),
}


def quartic(v):
    return np.einsum("i,j,k,l->ijkl", v, v, v, v)


def trivial_one_body(n):
    return one_body_block(np.zeros((n, n)))


class TestMps:
    @pytest.mark.parametrize("name", sorted(FROZEN))
    def test_frozen_lambda_and_dims(self, name):
        maj = hamiltonian(name)
        factors = mps_factorize(maj.g)
        assert factors.metadata["bond_dims"] == FROZEN[name][1]
        lcu = l4_lcu(factors, diagonalize_one_body(maj))
        assert lcu.one_norm == pytest.approx(FROZEN[name][0], rel=1e-7)

    def test_reconstruction_within_budget(self, any_molecule):
        maj = hamiltonian(any_molecule)
        factors = mps_factorize(maj.g)
        assert factors.loss < 1e-6

    def test_separable_tensor_is_exact(self):
        v = np.array([0.6, 0.8, 0.0])
        factors = mps_factorize(quartic(v))
        assert factors.loss < 1e-24
        assert np.abs(factors.reconstruct() - quartic(v)).max() < 1e-12
        assert factors.metadata["bond_dims"] == (1, 1, 1)

    def test_random_tensor_full_rank_lossless(self):
        g = random_two_body(3, np.random.default_rng(5))
        factors = mps_factorize(g, tol=1e-12)
        assert np.abs(factors.reconstruct() - g).max() < 1e-6

    def test_stored_vectors_are_unit(self, h2):
        factors = mps_factorize(h2.g)
        nonzero = factors.weights != 0.0
        assert nonzero.any()
        for v in factors.vectors:
            np.testing.assert_allclose(np.linalg.norm(v[:, nonzero], axis=0),
                                       1.0, atol=1e-10)

    def test_entries_run_row_major_over_bond_indices(self):
        g = random_two_body(3, np.random.default_rng(11))
        factors = mps_factorize(g)
        r1, r2, r3 = factors.metadata["bond_dims"]
        assert factors.rank == r1 * r2 * r3
        v1, v2, v3, v4 = (v.reshape(-1, r1, r2, r3) for v in factors.vectors)
        # v1 depends on u only, v2 on (u, v), v3 on (v, w), v4 on w only
        assert np.array_equal(v1, np.broadcast_to(v1[:, :, :1, :1], v1.shape))
        assert np.array_equal(v2, np.broadcast_to(v2[..., :1], v2.shape))
        assert np.array_equal(v3, np.broadcast_to(v3[:, :1], v3.shape))
        assert np.array_equal(v4, np.broadcast_to(v4[:, :1, :1], v4.shape))

    def test_asymmetric_tensor_rejected(self):
        g = np.zeros((2, 2, 2, 2))
        g[0, 1, 0, 0] = 1.0
        with pytest.raises(ValueError, match="symmetry"):
            mps_factorize(g)


class TestSvdChain:
    @pytest.mark.parametrize("name", sorted(FROZEN))
    def test_frozen_lambda(self, name):
        maj = hamiltonian(name)
        lcu = l4_lcu(svd_chain_factorize(maj.g), diagonalize_one_body(maj))
        assert lcu.one_norm == pytest.approx(FROZEN[name][2], rel=1e-7)

    def test_h2_near_paper_value(self, h2):
        lcu = l4_lcu(svd_chain_factorize(h2.g), diagonalize_one_body(h2))
        assert abs(lcu.one_norm - 2.54) / 2.54 < 0.02

    def test_rank_one_single_weight(self):
        v = np.array([1.0, 0.0])
        factors = svd_chain_factorize(quartic(v))
        kept = factors.weights[np.abs(factors.weights) > WEIGHT_TOL]
        assert kept.size == 1
        lcu = l4_lcu(factors, trivial_one_body(2))
        assert lcu.one_norm == pytest.approx(4 * abs(kept[0]), abs=1e-12)


class TestCp4:
    @pytest.mark.parametrize("name", sorted(CP4_FROZEN))
    def test_frozen_rank_and_lambda(self, name):
        maj = hamiltonian(name)
        factors = cp4_fit(name)
        assert factors.metadata["converged"]
        lcu = l4_lcu(factors, diagonalize_one_body(maj))
        assert (factors.rank, lcu.one_norm) == (
            CP4_FROZEN[name][0], pytest.approx(CP4_FROZEN[name][1], rel=1e-12))

    def test_rank_one_tensor(self):
        v = np.array([0.6, 0.8])
        factors = cp4_als(quartic(v))
        assert factors.rank == 1
        assert factors.metadata["converged"]
        assert ((factors.reconstruct() - quartic(v)) ** 2).sum() < 1e-10

    def test_h2_converges_at_small_rank(self, h2):
        factors = cp4_als(h2.g, max_rank=16)
        assert factors.metadata["converged"]
        assert factors.rank <= 16
        assert ((factors.reconstruct() - h2.g) ** 2).sum() < 1e-6

    def test_h2_lambda_is_reported(self, h2):
        # the reference tabulates 19.2 for this entry but ties it to a
        # specific implementation, so only existence is required
        lcu = l4_lcu(cp4_als(h2.g, max_rank=16), diagonalize_one_body(h2))
        assert lcu.one_norm > 0

    def test_seed_determinism(self, h2):
        a = cp4_als(h2.g, max_rank=16, seed=3)
        b = cp4_als(h2.g, max_rank=16, seed=3)
        assert a.rank == b.rank
        assert np.array_equal(a.weights, b.weights)

    def test_max_rank_exhaustion_flags(self, h2):
        factors = cp4_als(h2.g, max_rank=1)
        assert not factors.metadata["converged"]
        assert factors.rank == 1
        assert factors.loss > 1e-6

    @pytest.mark.parametrize("max_rank", [1, 2, 16])
    def test_trial_residuals_decide_convergence(self, h2, max_rank):
        # h2 fits from rank 4 on (CP4_FROZEN): ranks 1 and 2 stop short
        factors = cp4_als(h2.g, max_rank=max_rank, tol=1e-6)
        meta = factors.metadata
        ranks, residuals = meta["trial_ranks"], meta["trial_residuals"]
        assert len(residuals) == len(meta["trial_sweeps"]) == len(ranks)
        assert sum(meta["trial_sweeps"]) == meta["sweeps"]
        assert all(s >= 1 for s in meta["trial_sweeps"])
        returned = residuals[ranks.index(factors.rank)]
        assert (returned < 1e-6) == meta["converged"] == (max_rank == 16)
        # every trial rank below the returned one missed the target
        assert all(r >= 1e-6 for rank, r in zip(ranks, residuals)
                   if rank < factors.rank)
        assert returned == pytest.approx(factors.loss, rel=1e-6, abs=1e-12)

    def test_bisection_starts_at_last_failed_rank(self, monkeypatch):
        # fits succeed from rank 9 on; doubling clamps at max_rank 12 after
        # 8 fails, so the bisection runs between 8 and 12
        fitted = []

        def from_rank_nine(t, rank, seed, start=None):
            vecs, weights, _, sweeps = _als_fit(t, rank, seed, start)
            fitted.append((rank, rank >= 9, sweeps))
            return vecs, weights, 0.0 if rank >= 9 else 1.0, sweeps

        monkeypatch.setattr(mtd_l4, "_als_fit", from_rank_nine)
        factors = cp4_als(random_two_body(3, np.random.default_rng(0)),
                          max_rank=12)
        assert factors.metadata["converged"] and factors.rank == 9
        ranks = [rank for rank, _, _ in fitted]
        assert ranks[:5] == [1, 2, 4, 8, 12]
        for i, rank in enumerate(ranks):
            assert all(rank > failed for failed, ok, _ in fitted[:i] if not ok)
        assert factors.metadata["trial_ranks"] == ranks
        assert factors.metadata["sweeps"] == sum(s for _, _, s in fitted)

    def test_warm_start_keeps_seeded_columns_beyond_its_width(self, monkeypatch):
        t = 0.25 * random_two_body(3, np.random.default_rng(4))
        start = _als_fit(t, 3, seed=5)[0]

        class FirstSweep(Exception):
            pass

        def stop(unfoldings, vecs, grams, ridge):
            raise FirstSweep([v.copy() for v in vecs])

        monkeypatch.setattr(mtd_l4, "_als_sweep", stop)
        initial = []
        for warm in (None, start):
            with pytest.raises(FirstSweep) as caught:
                _als_fit(t, 6, seed=5, start=warm)
            initial.append(caught.value.args[0])
        for cold, warm, s in zip(*initial, start):
            assert np.array_equal(warm[:, :3], s)
            assert np.array_equal(warm[:, 3:], cold[:, 3:])

    def test_lu_fallback_on_indefinite_normal_equations(self, monkeypatch):
        infos = []
        dposv = mtd_l4.dposv

        def recording(a, b):
            out = dposv(a, b)
            infos.append(out[2])
            return out

        rng = np.random.default_rng(9)
        n, rank = 3, 4
        t = random_two_body(n, rng)
        unfoldings = [np.moveaxis(t, mode, 0).reshape(n, -1) for mode in range(4)]
        vecs = [rng.normal(size=(n, rank)) for _ in range(4)]
        vecs = [v / np.linalg.norm(v, axis=0) for v in vecs]
        ridge = -2.0 * np.eye(rank)
        expected = [v.copy() for v in vecs]
        for mode in range(4):
            others = [expected[i] for i in range(4) if i != mode]
            z = np.einsum("jm,km,lm->jklm", *others).reshape(-1, rank)
            gram = np.prod([v.T @ v for v in others], axis=0)
            a = np.linalg.solve(gram + ridge, (unfoldings[mode] @ z).T).T
            expected[mode] = a / np.linalg.norm(a, axis=0)
        monkeypatch.setattr(mtd_l4, "dposv", recording)
        grams = [v.T @ v for v in vecs]
        _als_sweep(unfoldings, vecs, grams, ridge)
        assert len(infos) == 4 and all(info > 0 for info in infos)
        for v, e in zip(vecs, expected):
            np.testing.assert_allclose(v, e, rtol=1e-10, atol=1e-12)

    def test_sweep_from_exact_decomposition_leaves_no_residual(self):
        rng = np.random.default_rng(21)
        n, rank = 4, 5
        vecs = [rng.normal(size=(n, rank)) for _ in range(4)]
        vecs = [v / np.linalg.norm(v, axis=0) for v in vecs]
        t = np.einsum("m,im,jm,km,lm->ijkl", rng.uniform(1, 2, rank), *vecs)
        t_sq = float((t * t).sum())
        unfoldings = [np.moveaxis(t, mode, 0).reshape(n, -1) for mode in range(4)]
        grams = [v.T @ v for v in vecs]
        weights, rhs = _als_sweep(unfoldings, vecs, grams,
                                  mtd_l4.ALS_RIDGE * np.eye(rank))
        assert abs(_als_residual(t_sq, rhs, vecs, weights, grams)) <= 1e-12 * t_sq

    def test_rank_and_lambda_independent_of_blas_threads(self):
        code = ("import json\n"
                "from fermilcu.fermionic_lcu import diagonalize_one_body\n"
                "from fermilcu.integrals import load_fixture\n"
                "from fermilcu.majorana import build_majorana\n"
                "from fermilcu.mtd_l4 import cp4_als, l4_lcu\n"
                "maj = build_majorana(load_fixture('lih'))\n"
                "f = cp4_als(maj.g)\n"
                "lam = l4_lcu(f, diagonalize_one_body(maj)).one_norm\n"
                "print(json.dumps([f.rank, lam]))\n")
        src = str(Path(__file__).resolve().parents[1] / "src")
        runs = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                       PYTHONPATH=os.pathsep.join(
                           [src, os.environ.get("PYTHONPATH", "")]))
            result = subprocess.run([sys.executable, "-c", code], env=env,
                                    capture_output=True, text=True, check=True)
            runs.append(json.loads(result.stdout))
        (rank1, lam1), (rank2, lam2) = runs
        assert rank1 == rank2
        assert lam2 == pytest.approx(lam1, rel=1e-12)

    def test_sign_convention(self, h2):
        factors = cp4_als(h2.g, max_rank=16)
        for v in factors.vectors:
            for m in range(v.shape[1]):
                col = v[:, m]
                assert col[np.argmax(np.abs(col))] >= 0


class TestL4Lcu:
    def test_single_weight_unit_vectors(self):
        e1 = np.array([1.0, 0.0])
        stack = e1[:, None]
        factors = QuarticFactors("l4-cp4", np.array([1.0]), (stack,) * 4)
        lcu = l4_lcu(factors, trivial_one_body(2))
        assert len(lcu) == 4
        assert lcu.one_norm == pytest.approx(4.0, abs=1e-12)

    def test_zero_weights_dropped(self):
        e1 = np.array([1.0, 0.0])
        stack = np.column_stack([e1, e1])
        factors = QuarticFactors("l4-cp4", np.array([1.0, 0.0]), (stack,) * 4)
        lcu = l4_lcu(factors, trivial_one_body(2))
        assert len(lcu) == 4
        assert lcu.metadata["n_weights"] == 1

    def test_unnormalized_vector_rejected(self):
        bad = np.array([[2.0], [0.0]])
        factors = QuarticFactors("l4-cp4", np.array([1.0]), (bad,) * 4)
        with pytest.raises(ValueError):
            l4_lcu(factors, trivial_one_body(2))

    def test_lambda_matches_fragment_sum(self, h2):
        ob = diagonalize_one_body(h2)
        lcu = l4_lcu(svd_chain_factorize(h2.g), ob)
        assert sum(f.coefficient for f in lcu.fragments) == pytest.approx(
            lcu.one_norm, abs=1e-10)


@pytest.mark.parametrize("factorize", [
    svd_chain_factorize, mps_factorize,
    lambda g: cp4_als(g, max_rank=16, tol=1e-8, seed=1)],
    ids=["l4-svd", "l4-mps", "l4-cp4"])
def test_record_contract(factorize):
    # every scheme returns the one record: unit columns at the kept weights,
    # a reconstruction within loss_abs, and four fragments per kept weight
    g = random_two_body(3, np.random.default_rng(17))
    factors = factorize(g)
    assert type(factors) is QuarticFactors
    assert all(v.shape == (3, factors.rank) for v in factors.vectors)
    kept = np.abs(factors.weights) > WEIGHT_TOL
    assert kept.any()
    for v in factors.vectors:
        np.testing.assert_allclose(np.linalg.norm(v[:, kept], axis=0), 1.0,
                                   atol=1e-10)
    delta = factors.reconstruct() - g
    assert (delta * delta).sum() < 1e-6
    assert np.abs(delta).sum() <= factors.loss_abs + 1e-12
    one_body = one_body_block(np.diag([0.5, 0.0, -0.25]))
    lcu = l4_lcu(factors, one_body)
    assert lcu.method == factors.method
    assert lcu.metadata["n_weights"] == int(kept.sum())
    # two nonzero eigenvalues give two one-body fragments each, one per spin
    assert len(lcu) == 2 * 2 + 4 * lcu.metadata["n_weights"]
