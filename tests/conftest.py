"""Shared fixtures: molecule loaders and an independent dense ladder-operator oracle.

The oracle builds many-body matrices straight from creation/annihilation
operators defined by bit twiddling, with no Pauli algebra involved, so it
cannot share bugs with the package's Jordan-Wigner path.
"""

from functools import lru_cache

import numpy as np
import pytest

from fermilcu.integrals import load_fixture
from fermilcu.majorana import PauliSum, build_majorana
from fermilcu.mtd_l4 import cp4_als
from reference import word_from_letters

MOLECULES = ("h2", "lih", "beh2", "h2o")


@lru_cache(maxsize=None)
def ladder_ops(n_qubits):
    """Annihilation operators a_p for p = 0..n_qubits-1, qubit p+1 as MSB-first."""
    dim = 1 << n_qubits
    ops = []
    for p in range(n_qubits):
        bitpos = n_qubits - 1 - p
        a = np.zeros((dim, dim))
        for b in range(dim):
            if (b >> bitpos) & 1:
                parity = bin(b >> (bitpos + 1)).count("1")
                a[b & ~(1 << bitpos), b] = (-1.0) ** parity
        ops.append(a)
    return ops


def dense_from_tensors(core, h, g):
    """H = core + sum h_ij E_ij + sum g_ijkl E_ij E_kl with E_ij = sum_s a+_is a_js."""
    n = h.shape[0]
    nq = 2 * n
    ann = ladder_ops(nq)
    dim = 1 << nq
    e_ops = {}
    for i in range(n):
        for j in range(n):
            e = np.zeros((dim, dim))
            for s in (0, 1):
                e += ann[2 * i + s].T @ ann[2 * j + s]
            e_ops[i, j] = e
    out = core * np.eye(dim)
    for i in range(n):
        for j in range(n):
            if h[i, j] != 0.0:
                out += h[i, j] * e_ops[i, j]
    for i in range(n):
        for j in range(n):
            for k in range(n):
                for l in range(n):
                    if g[i, j, k, l] != 0.0:
                        out += g[i, j, k, l] * (e_ops[i, j] @ e_ops[k, l])
    return out


@lru_cache(maxsize=None)
def raw_tensors(name):
    """(core, h, g) in the convention h0 + sum h E + sum g EE."""
    mol = load_fixture(name)
    return mol.core_energy, mol.one_body, mol.two_body


@lru_cache(maxsize=None)
def hamiltonian(name):
    return build_majorana(load_fixture(name))


def pauli_sum(n_qubits, words, coeffs):
    """PauliSum.from_arrays of words (PauliWords or letter strings) and their
    coefficients; a word may repeat."""
    words = [word_from_letters(w) if isinstance(w, str) else w for w in words]
    return PauliSum.from_arrays(
        n_qubits, np.array([w.x_mask for w in words], dtype=np.uint64),
        np.array([w.z_mask for w in words], dtype=np.uint64), coeffs)


@lru_cache(maxsize=None)
def cp4_fit(name):
    """cp4_als of the fixture's two-body tensor at the default tol and seed
    (1e-6, 7), fitted once for every test that reads it."""
    return cp4_als(hamiltonian(name).g)


@pytest.fixture
def h2():
    return hamiltonian("h2")


@pytest.fixture
def lih():
    return hamiltonian("lih")


@pytest.fixture(params=MOLECULES)
def any_molecule(request):
    return request.param


def random_two_body(n, rng, scale=1.0):
    """Random tensor with the full 8-fold index symmetry."""
    g = rng.normal(size=(n, n, n, n)) * scale
    g = g + g.transpose(1, 0, 2, 3)
    g = g + g.transpose(0, 1, 3, 2)
    g = g + g.transpose(2, 3, 0, 1)
    return g / 8.0
