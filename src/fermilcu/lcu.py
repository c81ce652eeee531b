"""Containers shared by every decomposition: the fragment blocks an LCU is
made of, and the fragment views built from them on demand.

A fragment is one term u_k U_k of H = sum_k u_k U_k. The coefficient is the
magnitude |u_k|; sign or phase information rides with the block so that
verify can rebuild the exact operator. An LCU holds its fragments as a
tuple of blocks, each a few stacked arrays with one row, or one run of
rows, per fragment, and nothing on a run path builds a per-fragment
object:

- PauliBlock: fragment k is weights[k] phases[k] P(x[k], z[k]), the weight
  its coefficient and |phases[k]| = 1.
- AcBlock: fragment k is group k, the next sizes[k] items of the item
  masks x, z and signed coefficients coeffs, in group order; its
  coefficient is norms[k], the Euclidean length of those coefficients.
- ReflectionBlock: products of r = 1 or 2 rotated reflections, in the one-
  body, pair and quadruple streams of sf, df, csa and the L4 methods. A
  row is a signed weight w (callers drop zero weights) and 2r direction
  stacks v_1, w_1, ..., v_r, w_r, in the caller's order; every row shares
  the spin pattern spins (M, r). Fragment k, of coefficient |w| and sign
  sign(w), is row k // M, its reflections taking the spins of pattern row
  k % M. The arrays are read-only views; the caller's stay writable.
- PolyBlock: the few squared-polynomial fragments of sf: fragment k is
  weights[k] times the ChebyshevSquare of w_matrices[k] and norms[k].

Every block's arrays are read-only. LcuDecomposition.fragments is a
read-only sequence over the blocks: its length is the sum of the block
sizes, and indexing or iteration builds the Fragment view of a row, whose
arrays are row views of the block's. Views are for inspection and for
fragment_pauli_sum in tests/reference.py, the per-fragment reference.

lambda is the sum of the fragment coefficients. ReflectionBlock and
PolyBlock give their share as one_norm, and every LCU built from them (sf,
df, csa, the L4 methods) takes lambda as the sum of its blocks' shares
(fermionic_lcu.reflection_lcu). pauli keeps the tensor 1-norm, which also
counts the terms its threshold drops and the products that collapse to the
identity, and ac the left-to-right sum of its group norms, which orbital
optimization follows bit for bit.
"""

import bisect
import itertools
import operator
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .majorana import PauliWord


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
    """sign times an ordered product of reflections (one or two)."""
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


def _read_only(array, dtype=None) -> np.ndarray:
    """A read-only view of array, leaving array itself writable."""
    view = np.asarray(array, dtype=dtype).view()
    view.flags.writeable = False
    return view


@dataclass(eq=False)
class PauliBlock:
    """Pauli fragments: weights (K,), masks x, z (K,) and unit phases (K,)."""
    n_qubits: int
    weights: np.ndarray
    x: np.ndarray
    z: np.ndarray
    phases: np.ndarray
    kind = "pauli"

    def __post_init__(self):
        self.weights = _read_only(self.weights, float)
        self.x, self.z = _read_only(self.x, np.uint64), _read_only(self.z, np.uint64)
        self.phases = _read_only(self.phases, complex)

    def __len__(self) -> int:
        return self.weights.size

    def fragment(self, k: int) -> Fragment:
        word = PauliWord(self.n_qubits, int(self.x[k]), int(self.z[k]))
        return Fragment(float(self.weights[k]), self.kind,
                        PauliTerm(word, complex(self.phases[k])))


@dataclass(eq=False)
class AcBlock:
    """Anticommuting groups: item masks x, z and signed coeffs in group
    order, group sizes (G,) and norms (G,)."""
    n_qubits: int
    x: np.ndarray
    z: np.ndarray
    coeffs: np.ndarray
    sizes: np.ndarray
    norms: np.ndarray
    kind = "ac-group"

    def __post_init__(self):
        self.x, self.z = _read_only(self.x, np.uint64), _read_only(self.z, np.uint64)
        self.coeffs = _read_only(self.coeffs, float)
        self.sizes = _read_only(self.sizes, np.int64)
        self.norms = _read_only(self.norms, float)
        self._starts = np.concatenate([[0], np.cumsum(self.sizes)]).tolist()

    def __len__(self) -> int:
        return self.sizes.size

    def fragment(self, k: int) -> Fragment:
        start, stop = self._starts[k], self._starts[k + 1]
        words = tuple(PauliWord(self.n_qubits, x, z) for x, z in zip(
            self.x[start:stop].tolist(), self.z[start:stop].tolist()))
        norm = float(self.norms[k])
        return Fragment(norm, self.kind,
                        AcGroup(words, self.coeffs[start:stop], norm))


@dataclass(eq=False)
class ReflectionBlock:
    """Products of r reflections: signed weights (K,), the spin pattern
    (M, r) of every row and the 2r direction stacks (K, N) v_1, w_1, ...,
    v_r, w_r; the contract is in the module docstring."""
    weights: np.ndarray
    spins: np.ndarray
    directions: tuple
    kind = "reflection-product"

    def __post_init__(self):
        self.weights = _read_only(self.weights, float)
        self.spins = _read_only(self.spins, np.int64)
        self.directions = tuple(_read_only(stack, float)
                                for stack in self.directions)
        if len(self.directions) not in (2, 4) or self.spins.shape[1:] != (
                len(self.directions) // 2,):
            raise ValueError("need products of one or two reflections")

    def __len__(self) -> int:
        return self.weights.size * len(self.spins)

    @property
    def one_norm(self) -> float:
        """M sum|w|, the coefficients of the block's fragments summed."""
        return len(self.spins) * float(np.abs(self.weights).sum())

    def fragment(self, k: int) -> Fragment:
        row, entry = divmod(k, len(self.spins))
        v, w = self.directions[::2], self.directions[1::2]
        reflections = tuple(Reflection(v[j][row], w[j][row], sigma)
                            for j, sigma in enumerate(self.spins[entry].tolist()))
        weight = self.weights[row]
        return Fragment(float(abs(weight)), self.kind,
                        ReflectionProduct(reflections, float(np.sign(weight))))


@dataclass(eq=False)
class PolyBlock:
    """Squared-polynomial fragments: weights (F,), the symmetric matrices
    (F, N, N) and the norms (F,) of their ChebyshevSquares."""
    weights: np.ndarray
    w_matrices: np.ndarray
    norms: np.ndarray
    kind = "sf-poly"

    def __post_init__(self):
        self.weights = _read_only(self.weights, float)
        self.w_matrices = _read_only(self.w_matrices, float)
        self.norms = _read_only(self.norms, float)

    def __len__(self) -> int:
        return self.weights.size

    @property
    def one_norm(self) -> float:
        """sum w, the coefficients of the block's fragments summed."""
        return float(self.weights.sum())

    def fragment(self, k: int) -> Fragment:
        return Fragment(float(self.weights[k]), self.kind,
                        ChebyshevSquare(self.w_matrices[k], float(self.norms[k])))


class Fragments(Sequence):
    """Read-only sequence of the Fragment views of a tuple of blocks, in
    block order; len() reads the block sizes and builds no view."""

    def __init__(self, blocks):
        self._blocks = tuple(blocks)
        self._starts = list(itertools.accumulate(
            (len(b) for b in self._blocks), initial=0))

    def __len__(self) -> int:
        return self._starts[-1]

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[k] for k in range(*index.indices(len(self)))]
        k = operator.index(index)
        if k < 0:
            k += len(self)
        if not 0 <= k < len(self):
            raise IndexError("fragment index out of range")
        b = bisect.bisect_right(self._starts, k) - 1
        return self._blocks[b].fragment(k - self._starts[b])


@dataclass
class LcuDecomposition:
    """sum_k u_k U_k + constant, the fragments held as blocks (see the
    module docstring); fragments is their read-only sequence of views."""
    method: str
    n_orbitals: int
    blocks: tuple
    one_norm: float
    constant: float = 0.0
    metadata: dict = field(default_factory=dict)

    @property
    def fragments(self) -> Fragments:
        return Fragments(self.blocks)

    def __len__(self) -> int:
        return len(self.fragments)
