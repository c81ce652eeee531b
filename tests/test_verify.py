"""Dense-oracle checks: spectral ranges, fragment rendering, operator
reconstruction, and the 1-norm lower bound, across every decomposition route."""

import logging
import re
from dataclasses import replace
from functools import lru_cache

import numpy as np
import pytest

from fermilcu import verify
from fermilcu.fermionic_lcu import (
    cholesky_sf,
    csa_decompose,
    csa_lcu,
    diagonalize_one_body,
    double_factorize,
)
from fermilcu.integrals import load_fixture
from fermilcu.lcu import (
    AcGroup,
    Fragment,
    LcuDecomposition,
    PauliTerm,
    Reflection,
    ReflectionBlock,
    ReflectionProduct,
)
from fermilcu.majorana import (
    MajoranaHamiltonian,
    PauliWord,
    pauli_sum_of_hamiltonian,
    sector_matrix,
)
from fermilcu.mtd_l4 import cp4_als, l4_lcu, mps_factorize, svd_chain_factorize
from fermilcu.qubit_lcu import ac_lcu, sparse_pauli_lcu
from fermilcu.report import METHODS as ALL_METHODS, decompose_method
from fermilcu.verify import (
    DENSE_STATES,
    WEIGHT_PRODUCTS,
    SpectralRange,
    _block_range,
    _disc_bounds,
    _lanczos_extremes,
    _project_out,
    _solve,
    reconstruction_tolerance,
    spectral_range,
    verify_norm_bound,
    verify_reconstruction,
)

from conftest import hamiltonian
from reference import (
    ac_givens_matrix,
    ac_naive_matrix,
    cycle_laplacian,
    fragment_matrix,
    fragment_pauli_sum,
    full_space_eigsh_range,
    full_space_range,
    random_sparse_symmetric,
    sorted_insertion_ac,
    word_matrix,
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
    """lcu with one fault in one fragment: the first spin tuple of the row of
    largest |weight| among its blocks of two-reflection products, the first
    such row in block order. The row leaves its block: its other spin
    tuples form a block of their own, and the faulted one (dropped, with
    its sign or first spin flipped, or with v turned by angle) another."""
    b, k = max(((b, k) for b, block in enumerate(lcu.blocks)
                if block.kind == "reflection-product" and block.spins.shape[1] == 2
                for k in range(block.weights.size)),
               key=lambda bk: abs(lcu.blocks[bk[0]].weights[bk[1]]))
    block = lcu.blocks[b]
    row = np.arange(block.weights.size) == k
    split = [ReflectionBlock(block.weights[~row], block.spins,
                             [d[~row] for d in block.directions]),
             ReflectionBlock(block.weights[row], block.spins[1:],
                             [d[row] for d in block.directions])]
    weight, spins = block.weights[row], block.spins[:1].copy()
    v, *stacks = (d[row] for d in block.directions)
    if fault == "sign":
        weight = -weight
    elif fault == "spin":
        spins[0, 0] = 1 - spins[0, 0]
    elif fault == "rotate":
        v[0] = rotated(v[0], angle)
    if fault != "drop":
        split.append(ReflectionBlock(weight, spins, (v, *stacks)))
    return replace(lcu, blocks=lcu.blocks[:b] + tuple(split) + lcu.blocks[b + 1:])


def with_weight_shift(lcu, shift):
    """A Pauli LCU with shift added to the weight of its first fragment."""
    (block,) = lcu.blocks
    weights = block.weights.copy()
    weights[0] += shift
    return replace(lcu, blocks=(replace(block, weights=weights),))


def sample_word():
    frag = h2_lcu("pauli").fragments[0]
    return frag.unitary.word


DECIDED = r"(solved|pruned by discs|pruned by weight)"
SECTOR_RECORD = re.compile(
    r"sector \((\d+), (\d+)\): (\d+) states, (\d+) entries, "
    r"discs \[(\S+), (\S+)\], (\d+) weight products, "
    rf"low {DECIDED}, high {DECIDED}, "
    r"(pruned|joint for (?:low|high|both)|dense|lanczos for (?:low|high|both)), "
    r"(\d+) Lanczos steps, (\d+) reorthogonalizations")
JOINT_RECORD = re.compile(
    r"joint solve of (.+): (\d+) states, (\d+) entries, "
    r"(dense|lanczos for (?:low|high|both)), "
    r"(\d+) Lanczos steps, (\d+) reorthogonalizations")


def central_sectors(name: str):
    """(sectors, matrix, offsets): the central spin sectors of a fixture and
    sector_matrix's block-diagonal matrix of them."""
    n = hamiltonian(name).n_orbitals
    sectors = [(n_e // 2, n_e - n_e // 2) for n_e in range(2 * n + 1)]
    matrix, offsets = sector_matrix(
        pauli_sum_of_hamiltonian(hamiltonian(name)), sectors)
    return sectors, matrix, offsets


def spectral_records(name: str, caplog):
    """spectral_range's DEBUG records on a fixture, parsed: the joint solves
    as (sectors, states, entries, path, steps) and then the sectors as
    ((n_alpha, n_beta), states, entries, lower, upper, path, steps, weight
    products, (what decided the low end, the high end)), each in logging
    order."""
    with caplog.at_level(logging.DEBUG, logger="fermilcu"):
        spectral_range(hamiltonian(name))
    joint, sectors = [], []
    for record in caplog.records:
        assert record.levelno == logging.DEBUG
        message = record.getMessage()
        found = JOINT_RECORD.fullmatch(message)
        if found:
            members, states, stored, path, steps, _ = found.groups()
            assert not sectors, "joint solves come first"
            joint.append(([tuple(map(int, m)) for m in re.findall(
                r"\((\d+), (\d+)\)", members)], int(states), int(stored),
                path, int(steps)))
            continue
        (n_alpha, n_beta, states, stored, low, high, products, low_end,
         high_end, path, steps, _) = SECTOR_RECORD.fullmatch(message).groups()
        sectors.append(((int(n_alpha), int(n_beta)), int(states), int(stored),
                        float(low), float(high), path, int(steps),
                        int(products), (low_end, high_end)))
    return joint, sectors


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


    @pytest.mark.parametrize("n", [6, 7])
    def test_number_operator_spans_minus_n_to_n(self, n):
        # H = (1/2) sum_{i, sigma} Q_ii,sigma, each Q_ii,sigma = -Z on its
        # qubit, is n - n_e on every sector. At n = 7 the blocks above
        # DENSE_STATES are multiples of the identity, so every start vector
        # is an eigenvector and the Lanczos run breaks down at once
        maj = MajoranaHamiltonian(n_orbitals=n, h0=0.0, h_tilde=np.eye(n),
                                  g=np.zeros((n,) * 4))
        sr = spectral_range(maj)
        assert (sr.e_min, sr.e_max) == (pytest.approx(-n), pytest.approx(n))

    def test_logs_one_record_per_sector(self, caplog):
        # beh2 solves large sectors on their own; chain_h06 joins its small
        # low-end candidates into one Lanczos run. The weighted discs rule
        # out (4, 5) at the low end and (3, 3) at the high end, so the high
        # end's joint solve is (0, 0) alone, dense
        for name in ("beh2", "chain_h06"):
            caplog.clear()
            joint, records = spectral_records(name, caplog)
            sectors, matrix, offsets = central_sectors(name)
            # solved, and logged, smallest first; equal sizes by electron count
            order = sorted(range(len(sectors)),
                           key=lambda k: offsets[k + 1] - offsets[k])
            assert len(records) == len(sectors)
            entries, joined = 0, {}
            for (sector, states, stored, low, high, path, steps, products,
                 decided), k in zip(records, order):
                a, b = offsets[k], offsets[k + 1]
                assert (sector, states) == (sectors[k], b - a)
                assert low <= high
                # each end is solved, or pruned by what ruled it out
                side = path.rpartition(" for ")[2]
                solved = {"pruned": (), "dense": ("low", "high")}.get(
                    path, ("low", "high") if side == "both" else (side,))
                for end, how in zip(("low", "high"), decided):
                    assert (how == "solved") == (end in solved), (sector, end)
                assert products <= 2 * WEIGHT_PRODUCTS
                if "pruned by weight" in decided:
                    assert products > 0
                small = b - a <= DENSE_STATES
                if path.startswith("joint"):
                    assert small and steps == 0
                    joined[sector] = path.removeprefix("joint for ")
                elif path != "pruned":
                    assert not small
                    assert path.startswith("lanczos") and steps > 0
                entries += stored
            assert entries == matrix.nnz
            # each joined sector is in the joint solves of its ends
            size = {s: offsets[k + 1] - offsets[k] for k, s in enumerate(sectors)}
            nnz = {s: matrix.indptr[offsets[k + 1]] - matrix.indptr[offsets[k]]
                   for k, s in enumerate(sectors)}
            ends = {}
            for members, states, stored, path, steps in joint:
                assert states == sum(size[s] for s in members)
                assert stored == sum(nnz[s] for s in members)
                assert (path == "dense") == (states <= DENSE_STATES)
                assert (steps > 0) == path.startswith("lanczos")
                side = ("both" if path == "dense"
                        else path.removeprefix("lanczos for "))
                for s in members:
                    ends.setdefault(s, set()).update(
                        ("low", "high") if side == "both" else (side,))
            assert set(ends) == set(joined)
            for s, side in joined.items():
                assert ({"low", "high"} if side == "both" else {side}) <= ends[s]
        assert [(members, path) for members, *_, path, _ in joint] == [
            ([(2, 2), (2, 3), (3, 3), (3, 4), (4, 4)], "lanczos for low"),
            ([(0, 0)], "dense")]
        decided = {record[0]: record[8] for record in records}
        assert decided[(4, 5)] == ("pruned by weight", "pruned by discs")
        assert decided[(3, 3)] == ("solved", "pruned by weight")

    @pytest.mark.parametrize("name, least_pruned", [
        ("lih", 1), ("beh2", 1), ("h2o", 1), ("chain_h06", 0)])
    def test_pruned_sectors_hold_no_extreme(self, name, least_pruned, caplog):
        # every sector's whole spectrum, pruned sectors included, lies in
        # [e_min, e_max], and some sector's reaches each end
        maj = hamiltonian(name)
        n = maj.n_orbitals
        sectors = [(n_e // 2, n_e - n_e // 2) for n_e in range(2 * n + 1)]
        matrix, offsets = sector_matrix(pauli_sum_of_hamiltonian(maj), sectors)
        with caplog.at_level(logging.DEBUG, logger="fermilcu"):
            sr = spectral_range(maj)
        pruned = sum(", pruned, " in r.getMessage() for r in caplog.records)
        assert pruned >= least_pruned
        scale = max(abs(sr.e_min), abs(sr.e_max))
        eigs = [np.linalg.eigvalsh(matrix[a:b, a:b].toarray())
                for a, b in zip(offsets, offsets[1:])]
        assert min(e[0] for e in eigs) == pytest.approx(sr.e_min,
                                                        abs=1e-12 * scale)
        assert max(e[-1] for e in eigs) == pytest.approx(sr.e_max,
                                                         abs=1e-12 * scale)
        for e in eigs:
            assert e[0] >= sr.e_min - 1e-12 * scale
            assert e[-1] <= sr.e_max + 1e-12 * scale

    @pytest.mark.parametrize("name", ["lih", "h2o", "chain_h06"])
    def test_diagonal_bound_picks_the_candidate_sectors(self, name, caplog):
        # the smallest diagonal entry bounds e_min from above and the
        # largest e_max from below. An end whose discs do not reach its
        # bound is pruned by discs. One whose discs do is solved, or pruned
        # by the weighted discs, which the dense spectrum confirms; a large
        # sector's end is also pruned by discs that stop short of the
        # extreme an earlier solve found
        sectors, matrix, offsets = central_sectors(name)
        dense = [matrix[a:b, a:b].toarray() for a, b in zip(offsets, offsets[1:])]
        centre = [np.diag(d).real for d in dense]
        radius = [np.abs(d).sum(axis=1) - np.abs(c) for d, c in zip(dense, centre)]
        d_min = min(c.min() for c in centre)
        d_max = max(c.max() for c in centre)
        spectra = [np.linalg.eigvalsh(d) for d in dense]
        joint, records = spectral_records(name, caplog)
        sr = spectral_range(hamiltonian(name))
        by_sector = {record[0]: record for record in records}
        pruned = weighed = 0
        for k, sector in enumerate(sectors):
            reach = ((centre[k] - radius[k]).min() <= d_min,
                     (centre[k] + radius[k]).max() >= d_max)
            small = offsets[k + 1] - offsets[k] <= DENSE_STATES
            _, _, _, lower, upper, path, _, _, decided = by_sector[sector]
            beyond = (spectra[k][0] > d_min, spectra[k][-1] < d_max)
            extreme = (lower >= sr.e_min, upper <= sr.e_max)
            for end in (0, 1):
                if not reach[end]:
                    assert decided[end] == "pruned by discs", (sector, end)
                elif decided[end] == "pruned by weight":
                    assert beyond[end], (sector, end)
                    weighed += 1
                elif decided[end] == "pruned by discs":
                    assert not small and extreme[end], (sector, end)
            solved = [end for end, how in zip(("low", "high"), decided)
                      if how == "solved"]
            side = "both" if len(solved) == 2 else "".join(solved)
            kind = "joint" if small else "lanczos"
            assert path == (f"{kind} for {side}" if solved else "pruned"), sector
            pruned += path == "pruned"
        assert pruned == {"lih": 11, "h2o": 12, "chain_h06": 7}[name]
        assert weighed == {"lih": 3, "h2o": 3, "chain_h06": 2}[name]
        eigs = np.concatenate(spectra)
        scale = np.abs(eigs).max()
        assert abs(sr.e_min - eigs.min()) <= 1e-12 * scale
        assert abs(sr.e_max - eigs.max()) <= 1e-12 * scale

    @pytest.mark.parametrize("name, runs, steps", [
        ("h2", [], 0), ("lih", [], 0),
        ("beh2", [((3, 3), "low")], 60),
        ("h2o", [((5, 5), "low"), ((4, 5), "low")], 150)])
    def test_lanczos_work_per_molecule(self, name, runs, steps, caplog):
        # the weighted discs leave beh2 one low-end Lanczos run and h2o two;
        # lih's and h2's candidates are solved densely. Steps are read from
        # the DEBUG records, joint solves included
        joint, records = spectral_records(name, caplog)
        assert not any(path.startswith("lanczos") for *_, path, _ in joint)
        assert [(record[0], record[5].removeprefix("lanczos for "))
                for record in records if record[5].startswith("lanczos")] == runs
        assert sum(record[6] for record in records) == steps

    def test_joint_run_finds_extremes_hidden_in_small_blocks(self, caplog):
        # a 5-state block holds the minimum and a 7-state block the
        # maximum, joined with blocks of 350 and 300 states into one
        # Lanczos run; a 500-state block is solved on its own
        from scipy.sparse import block_diag, csr_matrix

        blocks = [random_sparse_symmetric(350, 0.02, 1),
                  csr_matrix(-3.0 * np.ones((5, 5))),
                  random_sparse_symmetric(500, 0.02, 3),
                  random_sparse_symmetric(300, 0.02, 2),
                  csr_matrix(2.5 * np.ones((7, 7)))]
        matrix = block_diag(blocks, format="csr")
        offsets = np.concatenate([[0], np.cumsum([b.shape[0] for b in blocks])])
        labels = ["A", "B", "C", "D", "E"]
        with caplog.at_level(logging.DEBUG, logger="fermilcu"):
            sr = _block_range(matrix.copy(), offsets, labels)
        eigs = np.linalg.eigvalsh(matrix.toarray())
        assert (eigs[0], eigs[-1]) == (pytest.approx(-15.0),
                                       pytest.approx(17.5))
        assert abs(sr.e_min - eigs[0]) <= 1e-12 * eigs[-1]
        assert abs(sr.e_max - eigs[-1]) <= 1e-12 * eigs[-1]
        joint = [r.getMessage() for r in caplog.records
                 if r.getMessage().startswith("joint solve")]
        assert joint[0].startswith("joint solve of A, B, D, E: 662 states")
        assert ", lanczos for " in joint[0]

    def test_disc_bounds_match_dense_rows(self):
        # beh2's blocks, up to 1,225 states, summed one block at a time
        sectors = [(n_e // 2, n_e - n_e // 2) for n_e in range(15)]
        matrix, offsets = sector_matrix(
            pauli_sum_of_hamiltonian(hamiltonian("beh2")), sectors)
        lower, upper = _disc_bounds(matrix, offsets)
        for k, (a, b) in enumerate(zip(offsets, offsets[1:])):
            dense = matrix[a:b, a:b].toarray()
            centre = np.diag(dense).real
            radius = np.abs(dense).sum(axis=1) - np.abs(centre)
            eigs = np.linalg.eigvalsh(dense)
            assert lower[k] == pytest.approx((centre - radius).min(), abs=1e-12)
            assert upper[k] == pytest.approx((centre + radius).max(), abs=1e-12)
            assert lower[k] <= eigs[0] + 1e-12 and eigs[-1] <= upper[k] + 1e-12

    def test_empty_row_has_the_zero_disc(self):
        # odd_ground_hamiltonian is 0 on the one-electron state, whose row
        # stores no entry; the rows around it hold 1
        op = pauli_sum_of_hamiltonian(odd_ground_hamiltonian())
        matrix, offsets = sector_matrix(op, [(0, 0), (0, 1), (1, 1)])
        assert np.diff(matrix.indptr).tolist() == [1, 0, 1]
        lower, upper = _disc_bounds(matrix, offsets)
        assert lower == pytest.approx([1.0, 0.0, 1.0], abs=1e-12)
        assert upper == pytest.approx([1.0, 0.0, 1.0], abs=1e-12)


def lanczos_basis_overlap(block, ends=(True, True)) -> float:
    """max |Q^T Q - I| over the basis of one Lanczos run on the block, Q
    read from the vectors the run multiplies."""
    basis = []

    def matvec(q):
        basis.append(q.copy())
        return block @ q

    _lanczos_extremes(matvec, block.shape[0], block.dtype, ends)
    q = np.array(basis)
    return float(np.abs(q.conj() @ q.T - np.eye(len(basis))).max())


class TestLanczosExtremes:
    def test_cycle_laplacian_whose_all_ones_vector_is_an_eigenvector(self):
        # an all-ones start spans the invariant subspace of eigenvalue 0
        low, high, steps = _solve(cycle_laplacian(500), (True, True))[:3]
        assert steps > 0
        assert low == pytest.approx(0.0, abs=1e-10)
        assert high == pytest.approx(4.0, rel=1e-12)

    @pytest.mark.parametrize("name", ["beh2", "h2o"])
    def test_every_lanczos_block_matches_dense_spectrum(self, name):
        n = hamiltonian(name).n_orbitals
        sectors = [(n_e // 2, n_e - n_e // 2) for n_e in range(2 * n + 1)]
        matrix, offsets = sector_matrix(
            pauli_sum_of_hamiltonian(hamiltonian(name)), sectors)
        blocks = [matrix[a:b, a:b] for a, b in zip(offsets, offsets[1:])
                  if b - a > DENSE_STATES]
        assert len(blocks) == 7
        for block in blocks:
            low, high, steps = _solve(block, (True, True))[:3]
            eigs = np.linalg.eigvalsh(block.toarray())
            scale = np.abs(eigs).max()
            assert steps > 0
            assert abs(low - eigs[0]) <= 1e-12 * scale
            assert abs(high - eigs[-1]) <= 1e-12 * scale

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_runs_until_both_ends_converge(self, sign):
        # one end 9 below the rest, the other 1e-4 above a uniform bulk: a
        # run that stopped once the isolated end converged would leave the
        # other off by far more than the bound
        from scipy.sparse import diags

        spectrum = sign * np.r_[-10.0, np.linspace(-1.0, 1.0, 498), 1.0 + 1e-4]
        low, high, _ = _solve(diags(spectrum).tocsr(), (True, True))[:3]
        assert low == pytest.approx(spectrum.min(), abs=1e-10)
        assert high == pytest.approx(spectrum.max(), abs=1e-10)

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_one_sided_run_stops_once_its_end_converges(self, sign):
        from scipy.sparse import diags

        spectrum = sign * np.r_[-10.0, np.linspace(-1.0, 1.0, 498), 1.0 + 1e-4]
        block = diags(spectrum).tocsr()
        *_, both = _solve(block, (True, True))[:3]
        for ends, end, value in (((True, False), 0, spectrum.min()),
                                 ((False, True), 1, spectrum.max())):
            found = _solve(block, ends)[:3]
            assert found[end] == pytest.approx(value, abs=1e-10)
            assert found[1 - end] is None
            assert 0 < found[2] <= both

    def test_start_finds_extremes_away_from_the_extreme_diagonal(self):
        # Block A holds both extreme eigenvalues, the lowest 0, and has its
        # diagonal near 2; block B's diagonal, 1 to 3.5, holds both extreme
        # diagonal entries. A start on those entries alone stays in B's
        # Krylov space. With the lowest eigenvalue 0, a low-end run whose
        # stopping scale is that Ritz value alone, not the running |A q|,
        # runs on long after the two-sided run has stopped.
        from scipy.sparse import block_diag, diags

        rng = np.random.default_rng(11)
        g = rng.standard_normal((300, 300))
        a = (g + g.T) / np.sqrt(600)
        a -= np.linalg.eigvalsh(a)[0] * np.eye(300)
        b = diags([np.linspace(1.0, 3.5, 200), np.full(199, 0.01),
                   np.full(199, 0.01)], [0, 1, -1])
        block = block_diag((a, b), format="csr")
        diagonal = block.diagonal()
        assert min(diagonal.argmin(), diagonal.argmax()) >= 300
        assert np.linalg.eigvalsh(b.toarray())[[0, -1]] == pytest.approx(
            [1.0, 3.5], abs=0.02)
        eigs = np.linalg.eigvalsh(block.toarray())[[0, -1]]
        low, high, both, _ = _solve(block, (True, True))
        assert (low, high) == pytest.approx(eigs, abs=1e-10)
        for ends, end in (((True, False), 0), ((False, True), 1)):
            found = _solve(block, ends)
            assert found[end] == pytest.approx(eigs[end], abs=1e-10)
            assert found[1 - end] is None
            assert 0 < found[2] <= both

    @pytest.mark.parametrize("name", ["beh2", "h2o"])
    def test_fixture_basis_stays_semi_orthogonal(self, name):
        n = hamiltonian(name).n_orbitals
        sectors = [(n_e // 2, n_e - n_e // 2) for n_e in range(2 * n + 1)]
        matrix, offsets = sector_matrix(
            pauli_sum_of_hamiltonian(hamiltonian(name)), sectors)
        for a, b in zip(offsets, offsets[1:]):
            if b - a > DENSE_STATES:
                overlap = lanczos_basis_overlap(matrix[a:b, a:b])
                assert overlap <= np.sqrt(np.finfo(float).eps)

    @pytest.mark.parametrize("dim, density, seed", [
        (401, 0.003, 1), (430, 0.02, 2), (464, 0.1, 3), (600, 0.02, 4)])
    def test_random_basis_stays_semi_orthogonal(self, dim, density, seed):
        block = random_sparse_symmetric(dim, density, seed)
        assert lanczos_basis_overlap(block) <= np.sqrt(np.finfo(float).eps)

    def test_complex_hermitian_block_matches_dense_spectrum(self):
        from scipy.sparse import csr_matrix

        rng = np.random.default_rng(5)
        a = rng.standard_normal((450, 450)) + 1j * rng.standard_normal(
            (450, 450))
        block = csr_matrix(a + a.conj().T)
        low, high, steps = _solve(block, (True, True))[:3]
        eigs = np.linalg.eigvalsh(block.toarray())
        assert steps > 0
        assert abs(low - eigs[0]) <= 1e-10 * np.abs(eigs).max()
        assert abs(high - eigs[-1]) <= 1e-10 * np.abs(eigs).max()

    def test_projection_of_a_nearly_dependent_vector_is_orthogonal(self):
        # one Gram-Schmidt pass leaves the result about eps |w| / |result|,
        # here 1e-7, off orthogonal; the second brings it to rounding
        rng = np.random.default_rng(11)
        rows = np.linalg.qr(rng.standard_normal((300, 40)))[0].T
        w = rows.T @ rng.standard_normal(40) + 1e-9 * rng.standard_normal(300)
        coefficient = rows[-1] @ w
        out, last = _project_out(w.copy(), [rows[:25], rows[25:]])
        assert np.abs(rows @ out).max() <= 1e-14 * np.linalg.norm(out)
        assert last == pytest.approx(coefficient, rel=1e-12)


class TestFragmentMatrix:
    def test_identity_fragment(self):
        frag = Fragment(1.0, "pauli", PauliTerm(PauliWord(2, 0, 0), 1.0))
        assert np.allclose(fragment_matrix(frag), np.eye(4))

    def test_pauli_fragment_carries_phase(self):
        frag = Fragment(0.5, "pauli", PauliTerm(sample_word(), -1.0))
        assert np.allclose(fragment_matrix(frag), -word_matrix(sample_word()))

    def test_single_word_group_is_that_pauli(self):
        word = sample_word()
        group = AcGroup(words=(word,), coeffs=np.array([0.8]), norm=0.8)
        frag = Fragment(0.8, "ac-group", group)
        assert np.allclose(fragment_matrix(frag), word_matrix(word))

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
            target = sum((c / group.norm) * word_matrix(w)
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
        expected = -word_matrix(word)
        assert np.allclose(ac_naive_matrix(group), expected)
        assert np.allclose(ac_givens_matrix(group), expected)


class TestReconstruction:
    @pytest.mark.parametrize("method", METHODS)
    def test_h2_within_tolerance(self, method):
        lcu = h2_lcu(method)
        dev = verify_reconstruction(lcu, hamiltonian("h2"))
        assert dev <= reconstruction_tolerance(lcu)

    @pytest.mark.parametrize("name", ("h2", "lih"))
    @pytest.mark.parametrize("method", ALL_METHODS)
    def test_one_expansion_and_no_hamiltonian_sum(self, name, method,
                                                  monkeypatch):
        # reconstruction expands LCU - H from the tensors at most once and
        # never builds the Hamiltonian's own Pauli sum
        maj, lcu = decompose_method(load_fixture(name), method, oo_budget=20,
                                    oo_restarts=1)

        def refuse(*args):
            raise AssertionError("reconstruction built H's Pauli sum")

        calls = []
        expand = verify.expand_reflections

        def counting(*args):
            calls.append(args)
            return expand(*args)

        monkeypatch.setattr(verify, "pauli_sum_of_hamiltonian", refuse)
        monkeypatch.setattr(verify, "expand_reflections", counting)
        assert verify_reconstruction(lcu, maj) <= reconstruction_tolerance(lcu)
        assert len(calls) <= 1

    def test_pauli_exact(self):
        assert verify_reconstruction(h2_lcu("pauli"), hamiltonian("h2")) < 1e-10

    def test_df_within_default_tolerance(self):
        assert verify_reconstruction(h2_lcu("df"), hamiltonian("h2")) < 1e-6

    def test_corrupted_coefficient_detected(self):
        maj = hamiltonian("h2")
        dev = verify_reconstruction(
            with_weight_shift(sparse_pauli_lcu(maj), 0.01), maj)
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
        lcu = LcuDecomposition(method="pauli", n_orbitals=1, blocks=(),
                               one_norm=0.0)
        assert verify_norm_bound(lcu, SpectralRange(0.0, 0.0))

    def test_deflated_norm_rejected(self):
        sr = spectral_range(hamiltonian("h2"))
        cheat = replace(h2_lcu("pauli"), one_norm=0.4 * sr.half_range,
                        constant=0.0)
        assert not verify_norm_bound(cheat, sr)


class TestReconstructionTolerance:
    def test_floor(self):
        lcu = LcuDecomposition(method="pauli", n_orbitals=1, blocks=(),
                               one_norm=0.0)
        assert reconstruction_tolerance(lcu) == 1e-6

    def test_truncation_lifts_floor(self):
        lcu = LcuDecomposition(method="df", n_orbitals=1, blocks=(),
                               one_norm=0.0, metadata={"truncation_bound": 5e-3})
        assert reconstruction_tolerance(lcu) == 5e-3

    def test_rounding_allowance_scales_with_lambda_and_constant(self):
        lcu = LcuDecomposition(method="df", n_orbitals=1, blocks=(),
                               one_norm=60.0, constant=-40.0,
                               metadata={"truncation_bound": 5e-3})
        eps = np.finfo(float).eps
        assert reconstruction_tolerance(lcu) == 5e-3 + 64 * eps * 100.0

    def test_h2o_pauli_passes_and_one_more_dropped_term_fails(self):
        # the 1-norm deviation equals the dropped weight up to rounding, which
        # the allowance covers; dropping 1e-9 more must still be caught. At
        # 4e-5 the threshold drops 5.05e-5, above the 1e-6 floor
        maj = hamiltonian("h2o")
        lcu = sparse_pauli_lcu(maj, threshold=4e-5)
        assert verify_reconstruction(lcu, maj) <= reconstruction_tolerance(lcu)
        worse = with_weight_shift(lcu, -1e-9)
        assert verify_reconstruction(worse, maj) > reconstruction_tolerance(worse)
