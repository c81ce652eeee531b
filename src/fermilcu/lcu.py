"""Containers shared by every decomposition: fragments and their payloads.

A fragment is one term u_k U_k of H = sum_k u_k U_k. The coefficient is the
magnitude |u_k|; sign or phase information rides inside the payload so that
verify can rebuild the exact operator.

Every rotated-reflection fragment, in the one-body, pair and quadruple
streams of sf, df, csa and the L4 methods, comes from reflection_fragments.
Row k of its stacked inputs is fragment k, in the caller's order: the signed
weight w_k becomes the coefficient |w_k| and the product's sign sign(w_k)
(callers drop zero weights), spins[k] holds the spins of its r reflections,
and the 2r direction stacks come as v_1, w_1, ..., v_r, w_r. The stacks are
made read-only and every v or w is a row view of its stack, so reflections
share rows without copies.
"""

from dataclasses import dataclass, field

import numpy as np


@dataclass
class PauliTerm:
    """phase * word, with |phase| = 1."""
    word: object
    phase: complex


@dataclass
class Reflection:
    """i (v.gamma_{sigma 0})(w.gamma_{sigma 1}) for unit vectors v, w.

    Hermitian and unitary: the two single-Majorana combinations always
    anticommute because they mix different flavors only. A circuit realizes
    each direction vector as a Givens chain; the cost models price that
    chain from N and the angle-register width, so no angles are stored.
    """
    v: np.ndarray
    w: np.ndarray
    sigma: int


@dataclass
class ReflectionProduct:
    """sign times an ordered product of reflections (one or two in practice)."""
    reflections: tuple
    sign: float = 1.0


@dataclass
class ChebyshevSquare:
    """T_2 of the normalized two-Majorana layer R/(norm/2).

    R = (1/2) sum_{ij sigma} W_ij Q_ij,sigma and norm = 2 sum_ij |W_ij|, so the
    polynomial argument has coefficient 1-norm exactly 1. Hermitian with
    spectrum inside [-1, 1]; unitary only when the square collapses.
    """
    w_matrix: np.ndarray
    norm: float


@dataclass
class AcGroup:
    """Mutually anticommuting Pauli words with signed coefficients.

    norm is the Euclidean length of coeffs; the group contributes
    A = sum_q (coeffs_q / norm) words_q.
    """
    words: tuple
    coeffs: np.ndarray
    norm: float


@dataclass
class Fragment:
    coefficient: float
    kind: str  # "pauli" | "reflection-product" | "ac-group" | "sf-poly"
    unitary: object


@dataclass
class LcuDecomposition:
    method: str
    n_orbitals: int
    fragments: list
    one_norm: float
    constant: float = 0.0
    metadata: dict = field(default_factory=dict)

    def coefficient_sum(self) -> float:
        return float(sum(f.coefficient for f in self.fragments))

    def __len__(self) -> int:
        return len(self.fragments)


def reflection_fragments(weights, spins, directions) -> list:
    """One fragment per row of weights (K,), spins (K, r) and the 2r
    direction stacks (K, N) v_1, w_1, ..., v_r, w_r; the contract is in the
    module docstring."""
    rows = []
    for stack in directions:
        stack = np.asarray(stack, dtype=float).view()
        stack.flags.writeable = False
        rows.append(list(stack))
    reflections = zip(*([Reflection(*args) for args in zip(v, w, sigma)]
                        for v, w, sigma in zip(rows[::2], rows[1::2],
                                               np.asarray(spins).T.tolist())))
    signs = np.sign(weights).tolist()
    return [Fragment(c, "reflection-product", ReflectionProduct(product, sign))
            for c, sign, product in zip(np.abs(weights).tolist(), signs,
                                        reflections)]
