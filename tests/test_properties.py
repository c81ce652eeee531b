"""Randomized invariants of the algebraic building blocks: array Pauli
products and sparse assembly against Kronecker matrices, packed
anticommutation rows, sort keys and sorted insertion against word-by-word
references, angle chains and their reconstructions, rotation
parameterization round trips, bit-exact rotation and ALS kernels,
localization, tensor factorizations, the spectral norm bound, grouped
reconstruction against the per-fragment reference, and cost-row
monotonicity."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import pauli_sum, random_two_body
from reference import (
    full_space_range,
    givens_chain_angles,
    naive_ac_phases,
    reconstruct_chain,
    rotate_hamiltonian,
    sector_states,
)
from fermilcu.fermionic_lcu import _csa_cost
from fermilcu.integrals import load_fixture
from fermilcu.lcu import Fragment, PauliTerm, Reflection, ReflectionProduct
from fermilcu.majorana import (
    PRUNE_TOL,
    MajoranaHamiltonian,
    PauliSum,
    PauliWord,
    anticommutation_rows,
    pauli_sum_of_hamiltonian,
    sector_matrix,
    sparse_matrix,
    word_products,
    word_sort_keys,
)
from fermilcu.mtd_l4 import _als_residual, _als_sweep, cp4_als, mps_factorize, svd_chain_factorize
from fermilcu.qubit_lcu import (
    _RotationChain,
    _item_coeffs,
    _item_words,
    _sorted_insertion,
    _tensor_item_structure,
    _word_items,
    ac_lcu,
    angles_from_rotation,
    localizing_rotation,
    rotate_two_body,
    rotation_from_angles,
    rotation_pairs,
    sorted_insertion_ac,
    sparse_pauli_lcu,
)
from fermilcu.resources import (
    beta_bits,
    df_select_row,
    l4_sel_row,
    mu_bits,
    prep_row,
    rz_t_cost,
    sparse_prep_row,
    sparse_sel_row,
)
from fermilcu.report import METHODS, decompose_method
from fermilcu.verify import (
    _fragment_parts,
    _fragment_terms,
    _running_sum,
    fragment_pauli_sum,
    spectral_range,
    verify_norm_bound,
    verify_reconstruction,
)


def random_hamiltonian(n, rng) -> MajoranaHamiltonian:
    h = rng.normal(size=(n, n))
    return MajoranaHamiltonian(
        n_orbitals=n,
        h0=float(rng.normal()),
        h_tilde=(h + h.T) / 2,
        g=random_two_body(n, rng),
    )


word_pairs = st.integers(1, 6).flatmap(
    lambda n: st.tuples(st.just(n), st.lists(
        st.integers(0, (1 << n) - 1), min_size=4, max_size=4)))


# words from a pool of at most four, so they repeat; unit-sized coefficients
# cancel exactly, and 3e-15 sums stay below PRUNE_TOL
pooled_terms = st.integers(1, 32).flatmap(lambda n: st.tuples(
    st.just(n),
    st.lists(st.tuples(st.integers(0, (1 << n) - 1), st.integers(0, (1 << n) - 1)),
             min_size=1, max_size=4),
    st.lists(st.tuples(st.integers(0, 3),
                       st.sampled_from([1.0, -1.0, 0.5, -0.5, 0.25j, 3e-15])),
             max_size=20)))


class TestPauliKernels:
    @given(pooled_terms)
    def test_from_arrays_matches_per_word_sums(self, case):
        n, pool, raw = case
        words = [pool[i % len(pool)] for i, _ in raw]
        coeffs = [c for _, c in raw]
        op = PauliSum.from_arrays(n, np.array([x for x, _ in words], dtype=np.uint64),
                                  np.array([z for _, z in words], dtype=np.uint64),
                                  coeffs)
        sums = {}
        for word, c in zip(words, coeffs):
            sums[word] = sums.get(word, 0j) + c
        kept = {word: c for word, c in sums.items() if abs(c) >= PRUNE_TOL}
        terms = list(zip(op.x.tolist(), op.z.tolist()))
        assert op.n_qubits == n and len(op) == len(kept)
        assert op.x.dtype == op.z.dtype == np.uint64 and op.coeffs.dtype == complex
        assert terms == sorted(kept)
        assert dict(zip(terms, op.coeffs.tolist())) == kept
        assert np.all(np.abs(op.coeffs) >= PRUNE_TOL)

    def test_from_arrays_limited_to_32_qubits(self):
        empty = PauliSum.from_arrays(40, np.zeros(0, dtype=np.uint64),
                                     np.zeros(0, dtype=np.uint64), [])
        assert len(empty) == 0 and empty.coeffs.dtype == complex
        with pytest.raises(ValueError, match="32 qubits"):
            PauliSum.from_arrays(33, np.array([1 << 32], dtype=np.uint64),
                                 np.zeros(1, dtype=np.uint64), [1.0])

    @given(word_pairs)
    def test_array_product_matches_dense_product(self, case):
        n, (x1, z1, x2, z2) = case
        a, b = PauliWord(n, x1, z1), PauliWord(n, x2, z2)
        x, z, phase = word_products(*(np.array([m], dtype=np.uint64)
                                      for m in (x1, z1, x2, z2)))
        product = PauliWord(n, int(x[0]), int(z[0]))
        np.testing.assert_array_equal(phase[0] * product.dense(),
                                      a.dense() @ b.dense())
        assert a * b == (product, phase[0])

    @settings(deadline=None)
    @given(st.integers(1, 5).flatmap(lambda n: st.tuples(st.just(n), st.lists(
        st.tuples(st.integers(0, 3), st.integers(0, (1 << n) - 1),
                  st.sampled_from([1.0, -1.0, 0.5, -0.5, 0.5j, -0.25j])),
        min_size=1, max_size=12))))
    def test_sparse_matrix_matches_kron_sum(self, case):
        # X masks come from a pool of four, so groups hold several words,
        # and unit-sized coefficients make entries cancel within a group
        n, raw = case
        words = [PauliWord(n, x & ((1 << n) - 1), z) for x, z, _ in raw]
        coeffs = [c for _, _, c in raw]
        reference = sum(c * word.dense() for word, c in zip(words, coeffs))
        mat = sparse_matrix(pauli_sum(n, words, coeffs))
        assert mat.indices.dtype == np.int32
        assert not np.any(np.abs(mat.data) <= 1e-14)
        np.testing.assert_allclose(mat.toarray(), reference, atol=1e-14)

    @settings(deadline=None)
    @given(st.integers(1, 3).flatmap(lambda n: st.tuples(st.just(n), st.lists(
        st.tuples(st.sampled_from([0, 0b0101, 0b1010, 0b1111, 0b0011]),
                  st.integers(0, (1 << 2 * n) - 1),
                  st.sampled_from([1.0, -1.0, 0.5, -0.5, 0.5j, -0.25j])),
        min_size=1, max_size=12))))
    def test_sector_blocks_are_kron_sum_compressions(self, case):
        # X masks flip same-spin pairs, both spins, or one orbital's two
        # spins, so some sums conserve the counts and some do not; every
        # block is the reference restricted to its sector's states
        n, raw = case
        nq = 2 * n
        words = [PauliWord(nq, x & ((1 << nq) - 1), z) for x, z, _ in raw]
        reference = sum(c * word.dense() for word, (_, _, c) in zip(words, raw))
        sectors = [(a, b) for a in range(n + 1) for b in range(n + 1)]
        mat, offsets = sector_matrix(pauli_sum(nq, words, [c for *_, c in raw]),
                                     sectors)
        assert offsets[-1] == 1 << nq
        for (a, b), lo, hi in zip(sectors, offsets, offsets[1:]):
            rows = sector_states(n, a, b)
            np.testing.assert_allclose(mat[lo:hi, lo:hi].toarray(),
                                       reference[np.ix_(rows, rows)], atol=1e-14)


def _word_lists(sizes, max_qubits):
    """(n, words) with len(words) drawn from sizes; random words mixed with
    single-letter ones, which have odd weight."""
    def words(n):
        mask = st.integers(0, (1 << n) - 1)
        single = st.tuples(st.integers(0, n - 1),
                           st.sampled_from([(1, 0), (1, 1), (0, 1)])).map(
            lambda t: (t[1][0] << t[0], t[1][1] << t[0]))
        return sizes.flatmap(lambda m: st.lists(
            st.one_of(st.tuples(mask, mask), single), min_size=m, max_size=m))
    return st.integers(1, max_qubits).flatmap(
        lambda n: st.tuples(st.just(n), words(n)))


def _masks(words):
    return (np.array([x for x, _ in words], dtype=np.uint64),
            np.array([z for _, z in words], dtype=np.uint64))


def _reference_sorted_insertion(words, coeffs):
    """Sorted insertion one word pair at a time, ties by letter string."""
    order = sorted(range(len(words)),
                   key=lambda q: (-abs(coeffs[q]), str(words[q])))
    groups = []
    for q in order:
        for members in groups:
            if all(not words[q].commutes_with(words[p]) for p in members):
                members.append(q)
                break
        else:
            groups.append([q])
    return groups


class TestGroupingKernels:
    @settings(max_examples=30, deadline=None)
    @given(_word_lists(st.sampled_from([1, 63, 64, 65, 129]), 8))
    def test_packed_rows_match_commutes_with(self, case):
        n, raw = case
        m = len(raw)
        anti = anticommutation_rows(*_masks(raw))
        assert anti.shape == (m, -(-m // 64)) and anti.dtype == np.uint64
        words = [PauliWord(n, x, z) for x, z in raw]
        expected = np.array([[not a.commutes_with(b) for b in words]
                             for a in words])
        cols = np.arange(64 * anti.shape[1])
        bits = (anti[:, cols >> 6] >> (cols & 63).astype(np.uint64)) & 1
        np.testing.assert_array_equal(bits[:, :m], expected)
        assert not bits[:, m:].any()

    @given(_word_lists(st.integers(1, 40), 32))
    def test_sort_keys_order_words_as_letter_strings(self, case):
        n, raw = case
        keys = word_sort_keys(*_masks(raw), n)
        words = [str(PauliWord(n, x, z)) for x, z in raw]
        assert list(np.argsort(keys, kind="stable")) == sorted(
            range(len(words)), key=words.__getitem__)

    @settings(max_examples=40, deadline=None)
    @given(_word_lists(st.sampled_from([3, 30, 70]), 5), st.randoms())
    def test_sorted_insertion_matches_reference(self, case, rnd):
        # coefficients from a short list, so magnitudes tie often
        n, raw = case
        op = pauli_sum(n, [PauliWord(n, x, z) for x, z in raw if x or z],
                       [rnd.choice([1.0, -1.0, 0.5, -0.25]) for x, z in raw if x or z])
        words = [PauliWord(n, x, z) for x, z in zip(op.x.tolist(), op.z.tolist())]
        coeffs = op.coeffs.real
        expected = [[words[q] for q in members]
                    for members in _reference_sorted_insertion(words, coeffs)]
        lcu = sorted_insertion_ac(op)
        assert [list(f.unitary.words) for f in lcu.fragments] == expected

    @settings(max_examples=30, deadline=None)
    @given(st.integers(2, 4), st.integers(0, 2 ** 32 - 1))
    def test_factored_rows_group_as_kernel_rows(self, n, seed):
        # entries from a short list, so magnitudes tie often and some vanish
        rng = np.random.default_rng(seed)
        values = np.array([0.0, 1.0, -1.0, 0.5, -0.25])
        h = rng.choice(values, size=(n, n))
        g = rng.choice(values, size=(n, n, n, n))
        struct = _tensor_item_structure(n)
        coeffs = _item_coeffs(struct, h + h.T, g)
        kernel = _word_items(*_item_words(struct), 2 * n)
        assert _sorted_insertion(coeffs, struct) == _sorted_insertion(coeffs, kernel)


unit_vectors = st.lists(
    st.floats(-1.0, 1.0, allow_nan=False), min_size=2, max_size=9,
).filter(lambda v: np.linalg.norm(v) > 0.1)


class TestAngleChains:
    @given(unit_vectors)
    @example([1.0, 1e-08])  # a tail below arccos resolution near 1
    def test_givens_chain_round_trip(self, raw):
        c = np.array(raw) / np.linalg.norm(raw)
        angles = givens_chain_angles(c)
        assert np.allclose(reconstruct_chain(angles, c.size), c, atol=1e-9)

    @given(unit_vectors)
    @example([1e-09, 0.5])  # a leading entry below arcsin resolution near 1
    def test_ac_phase_product_rebuilds_coefficients(self, raw):
        # d_q / |d| = sin(2 phi_q) prod_{q'>q} cos(2 phi_q'), the invariant
        # that makes the phase ladder render the normalized group operator
        d = np.array(raw)
        phases = naive_ac_phases(d)
        tail = np.cumprod(np.cos(2.0 * phases[::-1]))[::-1]
        tail = np.append(tail[1:], 1.0)
        rebuilt = np.sin(2.0 * phases) * tail
        assert np.allclose(rebuilt, d / np.linalg.norm(d), atol=1e-9)

    def test_chain_handles_vanishing_tail(self):
        c = np.array([0.6, 0.8, 0.0, 0.0])
        angles = givens_chain_angles(c)
        assert np.allclose(reconstruct_chain(angles, 4), c, atol=1e-12)


angle_sets = st.integers(2, 6).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.lists(st.floats(-np.pi, np.pi, allow_nan=False),
                 min_size=n * (n - 1) // 2, max_size=n * (n - 1) // 2),
    )
)


class TestRotationParameterization:
    @given(angle_sets)
    def test_matrix_round_trip(self, case):
        n, raw = case
        u = rotation_from_angles(np.array(raw), n)
        rec = rotation_from_angles(angles_from_rotation(u), n)
        assert np.allclose(rec, u, atol=1e-7)

    def test_haar_rotations_round_trip(self):
        rng = np.random.default_rng(3)
        for n in (2, 3, 5, 8):
            for _ in range(12):
                q, _r = np.linalg.qr(rng.normal(size=(n, n)))
                if np.linalg.det(q) < 0:
                    q[:, 0] = -q[:, 0]
                rec = rotation_from_angles(angles_from_rotation(q), n)
                assert np.allclose(rec, q, atol=1e-8)

    def test_rejects_reflections(self):
        u = np.diag([1.0, 1.0, -1.0])
        with pytest.raises(ValueError):
            angles_from_rotation(u)

    def test_identity_maps_to_zero_angles(self):
        angles = angles_from_rotation(np.eye(5))
        assert np.allclose(angles, 0.0, atol=1e-12)
        assert angles.size == len(rotation_pairs(5))


def givens_product(angles, n):
    """Reference rotation: one np.eye Givens matrix per pair, multiplied in."""
    u = np.eye(n)
    for (i, j), theta in zip(rotation_pairs(n), angles):
        c, s = np.cos(theta), np.sin(theta)
        g = np.eye(n)
        g[j, j] = c
        g[i, i] = c
        g[j, i] = s
        g[i, j] = -s
        u = u @ g
    return u


class TestBitExactKernels:
    """The orbital-optimization search follows the last bits of every
    evaluation, so the fast kernels must round exactly like the plain ones."""

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 8), st.sampled_from([1e-3, 0.3, 3.0]),
           st.integers(0, 2 ** 32 - 1))
    def test_rotation_equals_givens_product(self, n, scale, seed):
        angles = np.random.default_rng(seed).normal(scale=scale,
                                                    size=n * (n - 1) // 2)
        assert np.array_equal(rotation_from_angles(angles, n),
                              givens_product(angles, n))
        assert np.array_equal(rotation_from_angles(list(angles), n),
                              givens_product(list(angles), n))

    @settings(max_examples=40, deadline=None)
    @given(st.integers(2, 7), st.integers(0, 2 ** 32 - 1))
    def test_reused_chain_equals_fresh_chain(self, n, seed):
        # the search's chain restarts at the first angle whose bits changed,
        # a sign-flipped zero included, and must round like a fresh chain
        rng = np.random.default_rng(seed)
        chain = _RotationChain(n)
        angles = rng.normal(size=n * (n - 1) // 2)
        for _ in range(8):
            angles = angles.copy()
            k = rng.integers(angles.size)
            choice = rng.integers(3)
            if choice == 0:
                angles[k] = rng.normal()
            elif choice == 1:
                angles[k] = -0.0 if np.signbit(angles[k]) == 0 else 0.0
            else:
                angles[k:] = rng.normal(size=angles.size - k)
            assert (chain(angles).tobytes()
                    == rotation_from_angles(angles, n).tobytes())

    def test_rotation_rejects_wrong_angle_count(self):
        with pytest.raises(ValueError):
            rotation_from_angles(np.zeros(2), 3)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 7), st.integers(0, 2 ** 32 - 1))
    def test_two_body_rotation_equals_tensordot_chain(self, n, seed):
        rng = np.random.default_rng(seed)
        g = rng.normal(size=(n, n, n, n))
        u = rng.normal(size=(n, n))
        chain = g
        for _ in range(4):
            chain = np.tensordot(chain, u, axes=([0], [0]))
        assert np.array_equal(rotate_two_body(g, u), chain)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 5), st.integers(1, 8), st.integers(0, 2 ** 32 - 1))
    def test_als_residual_same_with_carried_grams(self, n, rank, seed):
        rng = np.random.default_rng(seed)
        t = random_two_body(n, rng)
        vecs = [rng.normal(size=(n, rank)) for _ in range(4)]
        grams = [v.T @ v for v in vecs]
        unfoldings = [np.moveaxis(t, mode, 0).reshape(n, -1) for mode in range(4)]
        _als_sweep(unfoldings, vecs, grams, 1e-12 * np.eye(rank))
        for carried, v in zip(grams, vecs):
            assert np.array_equal(carried, v.T @ v)


class TestTensorRotation:
    def test_frobenius_isometry_and_inverse(self):
        rng = np.random.default_rng(11)
        for n in (2, 3, 4):
            g = random_two_body(n, rng)
            q, _ = np.linalg.qr(rng.normal(size=(n, n)))
            rotated = rotate_two_body(g, q)
            assert np.linalg.norm(rotated) == pytest.approx(
                np.linalg.norm(g), rel=1e-12)
            assert np.allclose(rotate_two_body(rotated, q.T), g, atol=1e-12)
            assert np.allclose(rotate_two_body(g, np.eye(n)), g)

    def test_localizing_rotation_invariants(self):
        rng = np.random.default_rng(5)
        for n in (2, 3, 4, 5):
            g = random_two_body(n, rng)
            u = localizing_rotation(g)
            assert np.allclose(u @ u.T, np.eye(n), atol=1e-10)
            assert np.linalg.det(u) == pytest.approx(1.0, abs=1e-10)
            before = np.einsum("iiii->", g)
            after = np.einsum("iiii->", rotate_two_body(g, u))
            assert after >= before - 1e-12
            assert np.linalg.norm(rotate_two_body(g, u)) == pytest.approx(
                np.linalg.norm(g), rel=1e-12)


class TestAnticommutingGroups:
    def test_groups_pairwise_anticommute(self):
        rng = np.random.default_rng(23)
        for n in (2, 3):
            for _ in range(4):
                lcu = ac_lcu(random_hamiltonian(n, rng))
                assert lcu.fragments
                for fragment in lcu.fragments:
                    group = fragment.unitary
                    words = group.words
                    for a in range(len(words)):
                        for b in range(a + 1, len(words)):
                            assert not words[a].commutes_with(words[b])
                    assert fragment.coefficient == pytest.approx(
                        np.linalg.norm(group.coeffs))
                assert lcu.one_norm == pytest.approx(lcu.coefficient_sum())


class TestFactorizationReconstruction:
    def test_chain_factorizations_rebuild_random_tensors(self):
        rng = np.random.default_rng(7)
        for factorize in (mps_factorize, svd_chain_factorize):
            for _ in range(5):
                g = random_two_body(3, rng)
                factors = factorize(g, tol=1e-12)
                rec = factors.reconstruct()
                assert np.allclose(rec, g, atol=1e-8)
                assert np.abs(rec - g).sum() <= factors.loss_abs + 1e-8

    def test_cp4_residual_bound_is_honest(self):
        rng = np.random.default_rng(13)
        g = random_two_body(2, rng)
        factors = cp4_als(g, max_rank=16, tol=1e-8, seed=1)
        rec = factors.reconstruct()
        assert np.abs(rec - g).sum() <= factors.loss_abs + 1e-8


class TestFitKernels:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(2, 4), st.integers(0, 2 ** 32 - 1))
    def test_csa_gradient_matches_central_differences(self, n, seed):
        rng = np.random.default_rng(seed)
        target = random_two_body(n, rng)
        x = rng.normal(size=n * (n - 1) // 2 + n * (n + 1) // 2)
        _, grad = _csa_cost(x, target, n)
        h = 1e-6
        central = np.array([
            (_csa_cost(x + h * e, target, n)[0]
             - _csa_cost(x - h * e, target, n)[0]) / (2 * h)
            for e in np.eye(x.size)])
        scale = max(1.0, float(np.abs(central).max()))
        assert np.abs(grad - central).max() <= 1e-5 * scale

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 5), st.integers(1, 8), st.integers(0, 2 ** 32 - 1))
    @example(n=1, rank=5, seed=268435457)  # model norm far above ||t||^2
    def test_gram_residual_equals_explicit_residual(self, n, rank, seed):
        rng = np.random.default_rng(seed)
        t = random_two_body(n, rng)
        vecs = [rng.normal(size=(n, rank)) for _ in range(4)]
        weights = rng.normal(size=rank)
        model = np.einsum("m,im,jm,km,lm->ijkl", weights, *vecs)
        explicit = float(((t - model) ** 2).sum())
        t_sq = float((t * t).sum())
        grams = [v.T @ v for v in vecs]
        rhs = np.einsum("ijkl,im,jm,km->ml", t, *vecs[:3])
        # both forms round at the scale of the larger of t_sq and the residual
        assert (abs(_als_residual(t_sq, rhs, vecs, weights, grams) - explicit)
                <= 1e-10 * max(t_sq, explicit))


def _unit(rng, n):
    v = rng.normal(size=n)
    return v / np.linalg.norm(v)


def random_reflection_lcu(n, count, paulis, rng):
    """Products of one or two random reflections, mixed spins and signs,
    with a few Pauli fragments among them."""
    fragments = []
    for _ in range(count):
        refls = tuple(Reflection(_unit(rng, n), _unit(rng, n), int(rng.integers(2)))
                      for _ in range(int(rng.integers(1, 3))))
        sign = float(rng.choice((-1.0, 1.0)))
        fragments.append(Fragment(float(rng.uniform(0.1, 2.0)), "reflection-product",
                                  ReflectionProduct(refls, sign)))
    for _ in range(paulis):
        word = PauliWord(2 * n, *(int(m) for m in rng.integers(1 << (2 * n), size=2)))
        fragments.append(Fragment(float(rng.uniform(0.1, 2.0)), "pauli",
                                  PauliTerm(word, complex(rng.choice((-1.0, 1.0))))))
    rng.shuffle(fragments)
    return fragments


class TestGroupedReconstruction:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(2, 4), st.integers(1, 12), st.integers(0, 3),
           st.integers(0, 2 ** 32 - 1))
    def test_grouped_sum_equals_per_fragment_sum(self, n, count, paulis, seed):
        fragments = random_reflection_lcu(n, count, paulis, np.random.default_rng(seed))
        grouped = PauliSum.from_arrays(
            2 * n, *_running_sum(_fragment_parts(fragments, n)))
        parts = [(grouped.x, grouped.z, grouped.coeffs)]
        for frag in fragments:
            ps = fragment_pauli_sum(frag, n)
            parts.append((ps.x, ps.z, -frag.coefficient * ps.coeffs))
        difference = PauliSum.from_arrays(2 * n, *map(np.concatenate, zip(*parts)))
        assert np.all(np.abs(difference.coeffs) <= 1e-12)

    @pytest.mark.parametrize("method", METHODS)
    def test_lih_deviation_matches_per_fragment_reference(self, method):
        # bounded fits: the comparison needs a decomposition, not a good one
        maj, lcu = decompose_method(load_fixture("lih"), method, oo_budget=200,
                                    oo_restarts=1, max_rank=40)
        n = maj.n_orbitals
        target = pauli_sum_of_hamiltonian(maj)
        zero = np.zeros(1, dtype=np.uint64)

        def per_fragment():
            for frag in lcu.fragments:
                x, z, c = _fragment_terms(frag, n)
                yield x, z, frag.coefficient * c
            yield zero, zero, np.array([lcu.constant], dtype=complex)
            yield target.x, target.z, -target.coeffs

        reference = float(np.abs(PauliSum.from_arrays(
            2 * n, *_running_sum(per_fragment())).coeffs).sum())
        allowed = 64 * np.finfo(float).eps * (lcu.one_norm + abs(lcu.constant))
        assert abs(verify_reconstruction(lcu, maj) - reference) <= allowed


def spin_free_hamiltonian(n, seed, two_body_scale) -> MajoranaHamiltonian:
    rng = np.random.default_rng(seed)
    maj = random_hamiltonian(n, rng)
    return MajoranaHamiltonian(n_orbitals=n, h0=maj.h0, h_tilde=maj.h_tilde,
                               g=two_body_scale * maj.g)


class TestSpectralSectors:
    # one orbital whose minimum only the one-electron sector holds
    ODD_GROUND = MajoranaHamiltonian(n_orbitals=1, h0=0.0,
                                     h_tilde=np.zeros((1, 1)),
                                     g=np.ones((1, 1, 1, 1)))

    @settings(max_examples=40, deadline=None)
    @given(st.builds(spin_free_hamiltonian, st.integers(1, 4),
                     st.integers(0, 2 ** 32 - 1),
                     st.sampled_from([0.1, 1.0, 10.0])))
    @example(ODD_GROUND)
    def test_central_sectors_give_full_space_extremes(self, maj):
        sectors, full = spectral_range(maj), full_space_range(maj)
        assert sectors.e_min == pytest.approx(full.e_min, abs=1e-10)
        assert sectors.e_max == pytest.approx(full.e_max, abs=1e-10)


class TestNormBound:
    def test_exact_pauli_lcu_dominates_half_range(self):
        # lambda + |constant| >= half the spectral spread, for any valid LCU
        rng = np.random.default_rng(29)
        for _ in range(8):
            maj = random_hamiltonian(2, rng)
            lcu = sparse_pauli_lcu(maj, threshold=0.0)
            assert verify_norm_bound(lcu, spectral_range(maj))


class TestCostMonotonicity:
    @given(st.integers(1, 1 << 20), st.integers(1, 40))
    def test_prep_dip_never_exceeds_four(self, k, mu):
        step = (prep_row(k + 1, mu).t_gates - prep_row(k, mu).t_gates)
        assert step >= -4

    @given(st.integers(1, 1 << 16), st.integers(1, 40), st.integers(2, 12))
    def test_doubling_terms_never_cheaper(self, s, mu, n):
        small = sparse_prep_row(s, n, mu)
        big = sparse_prep_row(2 * s, n, mu)
        assert big.t_gates >= small.t_gates
        assert sparse_sel_row(n + 1).t_gates > sparse_sel_row(n).t_gates

    @given(st.integers(1, 1 << 14), st.integers(2, 40), st.integers(4, 64),
           st.integers(2, 20))
    def test_linear_arguments_are_strict(self, count, n, beta, mu):
        assert (df_select_row(count + 1, n, mu, beta).t_gates
                > df_select_row(count, n, mu, beta).t_gates)
        assert (l4_sel_row(count + 1, n, beta).t_gates
                > l4_sel_row(count, n, beta).t_gates)

    @given(st.floats(1e-8, 0.0159))
    def test_rz_cost_grows_as_accuracy_tightens(self, eps):
        assert rz_t_cost(eps / 2) > rz_t_cost(eps)

    @given(st.integers(1, 1 << 12), st.floats(1e-9, 0.5))
    def test_register_widths_monotone(self, n, eps):
        assert mu_bits(n, eps / 2) >= mu_bits(n, eps)
        assert mu_bits(2 * n, eps) >= mu_bits(n, eps)
        assert beta_bits(n, 2.0, eps) >= beta_bits(n, 1.0, eps)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2 ** 31 - 1))
def test_rotation_preserves_spectrum_and_norm_bound(seed):
    # an orbital rotation relabels the same operator, so the spectrum stays
    # put and the rotated frame's 1-norm still clears the original floor
    rng = np.random.default_rng(seed)
    maj = random_hamiltonian(2, rng)
    angles = rng.uniform(-np.pi, np.pi, size=1)
    rotated = rotate_hamiltonian(maj, rotation_from_angles(angles, 2))
    original_range = spectral_range(maj)
    rotated_range = spectral_range(rotated)
    assert rotated_range.e_min == pytest.approx(original_range.e_min, abs=1e-9)
    assert rotated_range.e_max == pytest.approx(original_range.e_max, abs=1e-9)
    assert verify_norm_bound(sparse_pauli_lcu(rotated, threshold=0.0),
                             original_range)
