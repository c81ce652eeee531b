"""Containers shared by every decomposition: fragments and their payloads.

A fragment is one term u_k U_k of H = sum_k u_k U_k. The coefficient is the
magnitude |u_k|; sign or phase information rides inside the payload so that
verify can rebuild the exact operator.
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
    A = sum_q (coeffs_q / norm) words_q, and angles hold the Givens chain
    that rotates the first word onto A.
    """
    words: tuple
    coeffs: np.ndarray
    norm: float
    angles: np.ndarray


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
