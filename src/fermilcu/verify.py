"""Brute-force checks: full reconstruction of an LCU against the
Hamiltonian, and the spectral lower bound on the 1-norm.

The spectral range is taken on one sector per electron count, the one
with S_z = 0 or -1/2, and is exact there because a MajoranaHamiltonian is
spin-free (`spectral_range`); the 2^2N-state matrix is never built. Each
end's candidate sectors are chosen before any is solved: the smallest
diagonal entry is a Rayleigh quotient, so it bounds the lowest eigenvalue
from above, and a sector whose Gershgorin discs (`_disc_bounds`) all lie
above it cannot hold that eigenvalue; the largest bounds the highest, the
same way mirrored. A sector whose discs reach the bound is tried again,
before any solve, with the discs of W^-1 A W for a positive diagonal
weight W, which has A's eigenvalues (`_weight_certifies`). The weight comes
from Jacobi's iteration on (D - bound - |O|) w = 1, D the diagonal and |O|
the |off-diagonal| entries, and one that rules the sector out exists
exactly when lambda_min(D - |O|) lies beyond the bound (Collatz, Math. Z.
48, 221, 1942; Varga, Matrix Iterative Analysis, ch. 2). Each product of
|O| with the weight gives the ratio max_i (|O| w)_i / ((d_i - bound) w_i),
and the sector is ruled out once it falls below 1. The iteration gives up
once the least row's ratio reaches 1, a lower bound on the spectral radius
of the Jacobi matrix that proves no weight exists, once the ratio exceeds 1
by more than 4 times its last decrease, or after WEIGHT_PRODUCTS products. w = 1 is the disc test, so this prunes every
sector the discs do, and more. The candidates left of at most
DENSE_STATES states are joined, per end, into one block-diagonal matrix
solved once (`_block_range`): dense if the union is that small too, else
by one Lanczos run. A larger candidate
is solved on its own, smallest first, for the ends whose disc bound still
lies beyond the best extreme found so far. A Lanczos run (Lanczos, J. Res.
Natl. Bur. Stand. 45, 255, 1950) gives the ends it is asked for from one
Krylov space from a seeded start, kept semi-orthogonal by partial
reorthogonalization (Simon, Math. Comp. 42, 115, 1984), stopped once the
extremal Ritz residuals asked for are at most LANCZOS_TOL of the spectral
scale, so each extreme is within residual^2 / gap of an eigenvalue
(`_lanczos_extremes`). Each check computes the Ritz pairs of the asked
ends only, with the largest |A q| so far standing in for the other end in
the scale. The start is the seeded Gaussian times LANCZOS_NOISE plus unit
weight on the basis state of the lowest diagonal entry for the low end and
of the highest for the high end (`_solve`). The run needs nothing of the
block but its product with a vector.

Reconstruction reads the LCU's blocks (see the lcu module docstring) and
expands the difference LCU - H once. Reflection products and squared
polynomials are weights on the Q_ij,sigma and the ordered
Q_ij,sigma Q_kl,tau, the form the Hamiltonian's tensors take
(majorana.hamiltonian_weights). A reflection (v, w, sigma) is
sum_ij v_i w_j Q_ij,sigma, so the rows of one spin pattern add up, by
linearity, to one weight matrix, added at each spin tuple of it; the
ChebyshevSquare of W and norm is (2 / norm^2) sum W_ij W_kl
Q_ij,sigma Q_kl,tau over all four spin pairs, less the identity. These
weights are added to the Hamiltonian's, negated, and expanded once
(expand_reflections). The words of the Pauli blocks, with coefficients
times phases, and of the AC blocks, with their signed item coefficients,
join them with the identity weight constant - h0, and one `PauliSum`
combines the whole; only that final sum drops sums below PRUNE_TOL, so
residue that cancels across fragments is not lost on the way. The
per-fragment expansion that the tests compare against is in
tests/reference.py.
"""

import logging
from dataclasses import dataclass

import numpy as np

from .lcu import LcuDecomposition
# dense_matrix and sparse_matrix are not called here; perfbench's checks
# and trace points read them from this module
from .majorana import (  # noqa: F401
    PauliSum,
    dense_matrix,
    expand_reflections,
    hamiltonian_weights,
    pauli_sum_of_hamiltonian,
    sector_matrix,
    sparse_matrix,
)

# States up to which a block, or a joint block of small candidate sectors,
# is diagonalized densely, both ends exact. A sector above it is solved on
# its own by Lanczos and never joined: joining those too took fewer steps
# but longer, every step multiplying the whole union (one BLAS thread,
# h2o 65 -> 83 ms, chain_h08 444 -> 523 ms)
DENSE_STATES = 400
ROUNDING_ULPS = 64
# Lanczos: Ritz residual bound relative to the spectral scale, steps
# between convergence checks, basis rows per allocation, start seed
LANCZOS_TOL = 1e-8
LANCZOS_CHECK = 10
LANCZOS_CHUNK = 64
LANCZOS_SEED = 20240709
# weight of the seeded Gaussian beside the unit guesses of a Lanczos start
LANCZOS_NOISE = 0.3
# products of a block's |entries| with a weight vector that one end's
# weighted disc bound may take (_weight_certifies)
WEIGHT_PRODUCTS = 16

log = logging.getLogger(__name__)


@dataclass
class SpectralRange:
    e_min: float
    e_max: float

    @property
    def half_range(self) -> float:
        return 0.5 * (self.e_max - self.e_min)


def _project_out(w, basis):
    """w less its projection on the orthonormal rows of the basis arrays,
    by classical Gram-Schmidt twice, and the sum of its two coefficients
    on the last row."""
    last = 0.0
    for _ in range(2):
        projections = [np.conj(rows @ np.conj(w)) for rows in basis]
        for rows, h in zip(basis, projections):
            w -= h @ rows
        last += projections[-1][-1].real
    return w, last


def _lanczos_extremes(matvec, dim: int, dtype=float, ends=(True, True),
                      guesses=()) -> tuple:
    """(lowest, highest, steps, reorthogonalizations): the extremal
    eigenvalues of a Hermitian dim x dim operator that ends asks for, None
    for an end it does not, given only the operator's product with a
    vector, from one Krylov space.

    The start is a Gaussian vector of a fixed seed, so no symmetry of the
    operator keeps an extreme out of the Krylov space, and a run repeats
    bit for bit. Given guesses, indices of basis vectors near the extreme
    eigenvectors, the start is that Gaussian times LANCZOS_NOISE plus unit
    weight on each guess, normalized: the Gaussian part still reaches every
    eigenvector. Each new vector is orthogonalized against the last two
    only, while Simon's omega recurrence (Simon, Math. Comp. 42, 115, 1984)
    estimates its overlaps with the rest of the basis from the tridiagonal
    entries, eps |A| standing in for rounding. Once an estimate exceeds
    sqrt(eps), the vector, and the next one, is projected out of the whole
    basis (_project_out): the basis stays semi-orthogonal, max |Q^T Q - I|
    <= sqrt(eps), so the tridiagonal is the operator's projection on the
    Krylov space to working precision and no extreme gains a spurious copy.
    Every LANCZOS_CHECK steps, the extremal Ritz pairs of the ends asked
    for, and only those, are taken from the tridiagonal, and the run stops
    once the residual beta_m |y_m| of each is at most LANCZOS_TOL times the
    spectral scale: the larger of their Ritz values' magnitudes and the
    largest |A q| so far, which stands in for the end not computed and
    keeps the scale when an asked end lies near 0. Each Ritz value is then
    within its residual of an eigenvalue, and within residual^2 / gap, gap
    being its distance to the rest of the spectrum. On breakdown before dim
    steps (the new residual falls to dim * eps times |A q|: the basis spans
    an invariant subspace), the run goes on from a fresh seeded vector
    projected out of the basis, with a zero off-diagonal entry. At dim
    steps the tridiagonal holds the whole spectrum. The basis grows
    LANCZOS_CHUNK rows at a time, not preallocated. reorthogonalizations
    counts the vectors projected out of the whole basis, breakdowns
    included.
    """
    from scipy.linalg import eigh_tridiagonal

    rng = np.random.default_rng(LANCZOS_SEED)
    eps = np.finfo(float).eps
    threshold = np.sqrt(eps)
    chunks, alpha, beta = [], np.empty(dim), np.empty(dim)
    # at step m, with j = m - 1 counting from 0, omega[k] estimates
    # q_j . q_k for k <= j (1 at k = j) and before[k] q_{j-1} . q_k; norm
    # is the largest |A q| so far
    omega, before, norm = np.zeros(dim + 1), np.zeros(dim + 1), 0.0
    omega[0] = 1.0
    again, reorthogonalizations = False, 0
    q = rng.standard_normal(dim)
    if guesses:
        q *= LANCZOS_NOISE
        for k in guesses:
            q[k] += 1.0
    q = q.astype(dtype)
    q /= np.linalg.norm(q)
    for m in range(1, dim + 1):
        j = m - 1
        at = j % LANCZOS_CHUNK
        if not at:
            chunks.append(np.empty((min(LANCZOS_CHUNK, dim - j), dim),
                                   dtype=dtype))
        chunks[-1][at] = q
        basis = chunks[:-1] + [chunks[-1][:at + 1]]
        w = matvec(q)
        scale = np.linalg.norm(w)
        norm = max(norm, scale)
        if j:
            w -= beta[j - 1] * previous
        alpha[j] = np.vdot(q, w).real
        w -= alpha[j] * q
        b = np.linalg.norm(w)
        if b > dim * eps * scale:
            # q_{j+1} . q_k for k < j, from beta_j q_{j+1} = A q_j -
            # alpha_j q_j - beta_{j-1} q_{j-1}, the same recurrence for each
            # q_k, and A symmetric; rounding adds eps |A| pessimistically
            estimate = (beta[:j] * omega[1:m]
                        + (alpha[:j] - alpha[j]) * omega[:j])
            if j:
                estimate[1:] += beta[:j - 1] * omega[:j - 1]
                estimate -= beta[j - 1] * before[:j]
            estimate += np.copysign(eps * norm, estimate)
            estimate /= b
            if again or np.abs(estimate).max(initial=0.0) > threshold:
                w, last = _project_out(w, basis)
                alpha[j] += last
                b = np.linalg.norm(w)
                estimate[:] = eps
                again = not again
                reorthogonalizations += 1
            before, omega = omega, before
            omega[:j], omega[j], omega[m] = estimate, eps * norm / b, 1.0
        if m == dim or not m % LANCZOS_CHECK:
            # the extremal Ritz pairs (value, vector) of the asked ends only
            ritz = [eigh_tridiagonal(alpha[:m], beta[:j], select="i",
                                     select_range=(k, k)) if wanted else None
                    for k, wanted in zip((0, j), ends)]
            asked = [pair for pair in ritz if pair is not None]
            tol = LANCZOS_TOL * max([norm] + [abs(theta[0])
                                              for theta, _ in asked])
            if m == dim or all(b * abs(y[-1, 0]) <= tol for _, y in asked):
                low, high = (None if pair is None else float(pair[0][0])
                             for pair in ritz)
                return low, high, m, reorthogonalizations
        if b <= dim * eps * scale:
            w, _ = _project_out(rng.standard_normal(dim).astype(dtype), basis)
            b = np.linalg.norm(w)
            beta[j] = 0.0
            before, omega = omega, before
            omega[:m], omega[m] = eps, 1.0
            again = False
            reorthogonalizations += 1
        else:
            beta[j] = b
        previous = q
        q = w / b


def _solve(block, ends) -> tuple:
    """(lowest, highest, Lanczos steps, reorthogonalizations) of a
    Hermitian sparse block: dense up to DENSE_STATES states, both ends
    exact and no steps, else the ends asked for from one Lanczos run
    (_lanczos_extremes) on the block's matrix-vector product. The run's
    start leans on the basis state of the lowest diagonal entry when the
    low end is asked, and of the highest when the high end is, the
    lowest-determinant guess of CI eigensolvers (Davidson, J. Comput.
    Phys. 17, 87, 1975); its seeded Gaussian part keeps every eigenvector
    in the Krylov space, so an extreme that lies in another block of the
    matrix than the extreme diagonal entry is still found.

    Measured at one BLAS thread on the fixtures' sector blocks, the
    Lanczos run is 1-8 ms faster from about 260 states (225: dense
    2.5-3 ms, Lanczos 2.8-5.5 ms; 300: dense 5-5.7 ms, Lanczos
    4.5-4.7 ms); the bound stays at 400, so every sector of up to six
    orbitals on its own keeps the dense path and its memory use, while a
    joint block of such sectors above it takes the Lanczos path."""
    dim = block.shape[0]
    if dim <= DENSE_STATES:
        eigs = np.linalg.eigvalsh(block.toarray())
        return float(eigs[0]), float(eigs[-1]), 0, 0
    diagonal = block.diagonal().real
    guesses = [pick(diagonal) for pick, wanted in
               zip((np.argmin, np.argmax), ends) if wanted]
    return _lanczos_extremes(block.dot, dim, block.dtype, ends, guesses)


def _block(matrix, a, b, absolute=False):
    """The diagonal block in rows a to b of a block-diagonal CSR matrix
    whose blocks' column indices count from their first row, as a CSR
    matrix on the matrix's arrays; with absolute, its entries are the
    absolute values of the stored ones, its one new array. The arrays are
    set on an empty matrix, since the CSR constructor would copy a small
    view."""
    from scipy.sparse import csr_matrix

    lo, hi = matrix.indptr[a], matrix.indptr[b]
    block = csr_matrix((b - a, b - a), dtype=matrix.dtype)
    block.data = np.abs(matrix.data[lo:hi]) if absolute else matrix.data[lo:hi]
    block.indices = matrix.indices[lo:hi]
    block.indptr = matrix.indptr[a:b + 1] - lo
    return block


def _disc_bounds(matrix, offsets) -> tuple:
    """(lower, upper): per diagonal block of a block-diagonal Hermitian CSR
    matrix, block k spanning rows offsets[k] to offsets[k+1], the bounds
    min_i (d_i - r_i) and max_i (d_i + r_i) of its Gershgorin discs, d_i
    the real diagonal entry of row i and r_i the sum of the row's
    |off-diagonal| entries (Gershgorin, Izv. Akad. Nauk SSSR 6, 749, 1931):
    every eigenvalue of the block lies in one of its discs. r_i + |d_i| is
    row i of the product of the block's |entries| with the all-ones
    vector, the first product of _weight_certifies, summed one block at a
    time so that no temporary holds more than a block's stored entries; a
    row with none has the disc [0, 0]."""
    centre = matrix.diagonal().real
    radius = np.zeros(centre.size)
    for a, b in zip(offsets[:-1], offsets[1:]):
        starts, stops = matrix.indptr[a:b], matrix.indptr[a + 1:b + 1]
        # reduceat would give an empty row the next row's first entry
        stored = stops > starts
        if stored.any():
            radius[a:b][stored] = np.add.reduceat(
                np.abs(matrix.data[starts[0]:stops[-1]]),
                starts[stored] - starts[0])
    radius -= np.abs(centre)
    return (np.minimum.reduceat(centre - radius, offsets[:-1]),
            np.maximum.reduceat(centre + radius, offsets[:-1]))


def _weight_certifies(block, bound, end) -> tuple:
    """(certified, products): whether the weighted Gershgorin discs of a
    Hermitian CSR block prove that it has no eigenvalue at or below bound
    (end 0) or at or above it (end 1), and the products of the block's
    |entries| with a weight vector that took, at most WEIGHT_PRODUCTS.

    For A = D + O, D the diagonal, and any w > 0, W^-1 A W with W = diag(w)
    has A's eigenvalues and its discs centred at d_i of radius
    (|O| w)_i / w_i (Varga, Matrix Iterative Analysis, ch. 1). So, with g
    the gap d - bound at the low end and bound - d at the high end,
    |O| w < g w in every row puts every eigenvalue beyond bound; w = 1 is
    the Gershgorin test of _disc_bounds. A row with g <= 0 has its diagonal
    entry, a Rayleigh quotient, at or beyond bound, and no weight proves
    anything, so none is tried. Else such a w exists exactly when the
    symmetric Z-matrix G - |O|, G = diag(g), is a nonsingular M-matrix, that
    is when lambda_min(D - |O|) > bound at the low end and
    lambda_max(D + |O|) < bound at the high end (Collatz, Math. Z. 48, 221,
    1942; Varga, ch. 2), and then Jacobi's iteration on (G - |O|) w = 1,
    w <- |O| w / g + 1 from w = 1, rises to its solution, which passes. Each
    product gives the ratios (|O| w)_i / (g_i w_i), whose maximum the run
    stops on once it is below 1. Their minimum bounds the spectral radius
    of G^-1 |O| from below (Collatz), so once it reaches 1 no weight
    passes, and the run gives up. It also gives up once the maximum is
    above 1 by more than 4 times its last decrease: decreases that shrink
    by a factor of 0.8 or less each product add up to at most 4 times the
    last one, so at that rate the maximum could not reach 1. Each row's
    product is taken as larger by its rounding allowance, so a certificate
    holds in exact arithmetic.
    """
    diagonal = block.diagonal().real
    gap = diagonal - bound if end == 0 else bound - diagonal
    if not (gap > 0).all():
        return False, 0
    magnitudes = _block(block, 0, gap.size, absolute=True)
    centre = np.abs(diagonal)
    # a sum of k nonnegative terms is within k eps of its value
    rounding = (np.diff(magnitudes.indptr) + 4) * np.finfo(float).eps
    w, last = np.ones(gap.size), np.inf
    for products in range(1, WEIGHT_PRODUCTS + 1):
        total = magnitudes @ w
        off, scale = total - centre * w, gap * w
        ratios = (off + rounding * (total + scale)) / scale
        ratio = ratios.max()
        if ratio < 1.0:
            return True, products
        if ratios.min() >= 1.0 or ratio - 1.0 > 4.0 * (last - ratio):
            break
        last = ratio
        w = off / gap + 1.0
    return False, products


def _joint_block(matrix, offsets, members):
    """The block-diagonal CSR matrix of the member blocks of a
    block-diagonal CSR matrix, block k spanning rows offsets[k] to
    offsets[k+1] with its column indices counted from its first row, in
    member order: copies of their rows' stored entries, each block's
    columns renumbered with its rows."""
    from scipy.sparse import csr_matrix

    data, indices, counts, start = [], [], [], 0
    for k in members:
        a, b = offsets[k], offsets[k + 1]
        lo, hi = matrix.indptr[a], matrix.indptr[b]
        data.append(matrix.data[lo:hi])
        indices.append(matrix.indices[lo:hi] + start)
        counts.append(np.diff(matrix.indptr[a:b + 1]))
        start += int(b - a)
    indptr = np.concatenate([[0], np.cumsum(np.concatenate(counts))])
    return csr_matrix((np.concatenate(data), np.concatenate(indices), indptr),
                      shape=(start, start))


def _side(ends) -> str:
    """Which ends a (low, high) pair of flags asks for."""
    return "both" if all(ends) else "low" if ends[0] else "high"


def _block_range(matrix, offsets, labels) -> SpectralRange:
    """Extremal eigenvalues of a block-diagonal Hermitian CSR matrix, block k
    spanning rows offsets[k] to offsets[k+1] and named labels[k] in the
    DEBUG records.

    Each diagonal entry is a Rayleigh quotient, so the smallest bounds the
    lowest eigenvalue from above and the largest the highest from below. A
    block whose lower Gershgorin bound (_disc_bounds) lies above the
    smallest diagonal entry cannot hold the lowest eigenvalue, nor one whose
    upper bound lies below the largest the highest: only the other blocks
    are candidates for an end, and the block of the extreme diagonal entry
    always is. Before any block is solved, each other candidate is tried
    with the weighted discs of _weight_certifies against the same bound,
    and it is no longer a candidate for an end they rule out. A block above
    DENSE_STATES states whose first end fails is solved anyway, so its
    second end is not tried. Then the candidates of at most DENSE_STATES
    states are joined, per end, into one block-diagonal matrix
    (_joint_block) solved once by _solve, both ends at once when both ends
    join the same blocks. The larger candidates follow smallest first, one
    _solve each for the ends it is a candidate for whose disc bound still
    lies beyond the best extreme found so far. Every block is read in
    place, its column indices shifted to count from its first row, so the
    matrix is used up.

    One DEBUG record per joint solve, on the fermilcu.verify logger, gives
    its blocks, states, stored entries, path (dense, or lanczos for low,
    high or both ends), Lanczos steps and reorthogonalizations. Then one
    record per block, smallest first, gives its label, states, stored
    entries, disc bounds, the weight products spent on it, certified or
    not, what decided each end (solved, pruned by discs or pruned by
    weight), path (pruned, joint for the ends it joined, dense, or
    lanczos), Lanczos steps and reorthogonalizations; a joint solve's steps
    are on its own record only, so the steps of all records add up to the
    run's.
    """
    lower, upper = _disc_bounds(matrix, offsets)
    diagonal = matrix.diagonal().real
    bounds = diagonal.min(), diagonal.max()
    sizes = np.diff(offsets)
    small = sizes <= DENSE_STATES
    candidate = lower <= bounds[0], upper >= bounds[1]
    # A block's rows hold only its own columns. Counted from its first row
    # in place, the matrix's arrays serve as each block's (_block)
    for a, b in zip(offsets[:-1], offsets[1:]):
        matrix.indices[matrix.indptr[a]:matrix.indptr[b]] -= a
    certified = np.zeros((2, sizes.size), dtype=bool)
    products = np.zeros(sizes.size, dtype=int)
    for k in np.flatnonzero(candidate[0] | candidate[1]):
        block = _block(matrix, offsets[k], offsets[k + 1])
        for end in np.flatnonzero([candidate[0][k], candidate[1][k]]):
            certified[end, k], spent = _weight_certifies(block, bounds[end], end)
            products[k] += spent
            if not (certified[end, k] or small[k]):
                # a large candidate is solved anyway, and asking its run
                # for one end more costs few steps
                break
    for end in (0, 1):
        candidate[end][certified[end]] = False
    joint = {}
    for end in (0, 1):
        members = tuple(np.flatnonzero(candidate[end] & small).tolist())
        if members:
            joint.setdefault(members, [False, False])[end] = True
    low, high = np.inf, -np.inf

    def solve(block, ends):
        nonlocal low, high
        block_low, block_high, steps, reorthogonalizations = _solve(block, ends)
        if block_low is not None:
            low = min(low, block_low)
        if block_high is not None:
            high = max(high, block_high)
        return (f"lanczos for {_side(ends)}" if steps else "dense", steps,
                reorthogonalizations)

    for members, ends in joint.items():
        block = _joint_block(matrix, offsets, members)
        log.debug("joint solve of %s: %d states, %d entries, %s, "
                  "%d Lanczos steps, %d reorthogonalizations",
                  ", ".join(str(labels[k]) for k in members), block.shape[0],
                  block.nnz, *solve(block, ends))
    for k in np.argsort(sizes, kind="stable"):
        a, b = offsets[k], offsets[k + 1]
        lo, hi = matrix.indptr[a], matrix.indptr[b]
        ends = bool(candidate[0][k]), bool(candidate[1][k])
        if not small[k]:
            ends = ends[0] and lower[k] < low, ends[1] and upper[k] > high
        decided = ["solved" if asked else "pruned by weight"
                   if certified[end, k] else "pruned by discs"
                   for end, asked in enumerate(ends)]
        steps = reorthogonalizations = 0
        if not any(ends):
            path = "pruned"
        elif small[k]:
            path = f"joint for {_side(ends)}"
        else:
            path, steps, reorthogonalizations = solve(_block(matrix, a, b), ends)
        log.debug("sector %s: %d states, %d entries, discs [%.10g, %.10g], "
                  "%d weight products, low %s, high %s, %s, %d Lanczos steps, "
                  "%d reorthogonalizations", labels[k], b - a, hi - lo,
                  lower[k], upper[k], products[k], *decided, path, steps,
                  reorthogonalizations)
    return SpectralRange(float(low), float(high))


def spectral_range(maj) -> SpectralRange:
    """Extremal eigenvalues of the qubit matrix, constants included, from
    the central spin sector of each electron count.

    A MajoranaHamiltonian with symmetric h_tilde and g_ijkl = g_jikl =
    g_ijlk is a spin-free electronic Hamiltonian: it conserves the alpha
    and beta electron counts, so its matrix is block diagonal over the
    (n_alpha, n_beta) sectors, and it commutes with the total spin, so
    every spin multiplet of n_e electrons has a member with
    S_z = 0 (n_e even) or -1/2 (n_e odd). The extremes over the 2N+1
    sectors (floor(n_e/2), ceil(n_e/2)), n_e = 0..2N, are therefore the
    extremes of the whole 2^2N Fock space, whose matrix is never built.

    The sectors' blocks come from sector_matrix's block-diagonal matrix and
    are solved by _block_range: the diagonal bound picks each end's
    candidate sectors, weighted discs rule out more of them before any
    solve, the small candidates of an end are solved in one joint run, and
    the larger ones one run each, smallest first. Its DEBUG records name
    the sectors by (n_alpha, n_beta).
    """
    n = maj.n_orbitals
    if 2 * n > 24:
        raise ValueError("spectral range limited to 24 qubits")
    g = maj.g
    if max(np.abs(g - g.transpose(1, 0, 2, 3)).max(),
           np.abs(g - g.transpose(0, 1, 3, 2)).max()) > 1e-10:
        raise ValueError("spectral range needs g_ijkl = g_jikl = g_ijlk")
    op = pauli_sum_of_hamiltonian(maj)
    if not len(op):
        return SpectralRange(0.0, 0.0)
    sectors = [(n_e // 2, n_e - n_e // 2) for n_e in range(2 * n + 1)]
    return _block_range(*sector_matrix(op, sectors), sectors)


def _difference_terms(lcu: LcuDecomposition, maj):
    """(x, z, coeffs) of sum_k u_k U_k + constant - H, words repeating: the
    Pauli and AC blocks' words, the one expansion of the Q and QQ weights of
    the other blocks less the Hamiltonian's, and the identity (see the
    module docstring)."""
    n = maj.n_orbitals
    nn = n * n
    one, two = hamiltonian_weights(maj)
    one, two = -one.reshape(nn, 2), -two.reshape(nn, 2, nn, 2)
    identity = lcu.constant - maj.h0
    terms, reflections = [], {}
    for block in lcu.blocks:
        if block.kind == "pauli":
            terms.append((block.x, block.z, block.weights * block.phases))
        elif block.kind == "ac-group":
            terms.append((block.x, block.z, block.coeffs))
        elif block.kind == "sf-poly":
            # weight * ChebyshevSquare(W, norm): (2 weight / norm^2) W (x) W
            # on all four spin pairs, less weight on the identity
            w = block.w_matrices.reshape(len(block), nn)
            scale = 2.0 * block.weights / block.norms ** 2
            two += (w.T @ (scale[:, None] * w))[:, None, :, None]
            identity -= block.weights.sum()
        else:
            pattern = tuple(map(tuple, block.spins.tolist()))
            reflections.setdefault(pattern, []).append((block.weights, *block.directions))
    # one matrix product per spin pattern over its rows, in block and row
    # order, added at each spin tuple of the pattern
    for pattern, parts in reflections.items():
        weight, *vectors = (np.concatenate(column) for column in zip(*parts))
        outer = [(v[:, :, None] * w[:, None, :]).reshape(weight.size, nn)
                 for v, w in zip(vectors[::2], vectors[1::2])]
        if len(outer) == 1:
            product = weight @ outer[0]
            for (s,) in pattern:
                one[:, s] += product
        else:
            product = outer[0].T @ (weight[:, None] * outer[1])
            for s, t in pattern:
                two[:, s, :, t] += product
    for x, z, c in expand_reflections(n, one.ravel(), two.reshape(2 * nn, 2 * nn)):
        terms.append((x.ravel(), z.ravel(), c.ravel()))
    zero = np.zeros(1, dtype=np.uint64)
    terms.append((zero, zero, np.array([identity], dtype=complex)))
    return tuple(map(np.concatenate, zip(*terms)))


def verify_reconstruction(lcu: LcuDecomposition, maj) -> float:
    """Deviation of sum_k u_k U_k + constant from the full Hamiltonian: the
    1-norm of the Pauli-coefficient difference, which upper-bounds its
    operator norm, at every size. The difference is expanded once from the
    blocks and the Hamiltonian's tensors (_difference_terms)."""
    diff = PauliSum.from_arrays(2 * maj.n_orbitals, *_difference_terms(lcu, maj))
    return float(np.abs(diff.coeffs).sum())


def reconstruction_tolerance(lcu: LcuDecomposition) -> float:
    """The declared truncation bound (at least 1e-6) plus a rounding
    allowance of ROUNDING_ULPS * eps * (lambda + |constant|): the 1-norm
    deviation sums the rounding residue of every kept term."""
    rounding = ROUNDING_ULPS * np.finfo(float).eps * (
        lcu.one_norm + abs(lcu.constant))
    return max(1e-6, float(lcu.metadata.get("truncation_bound", 0.0))) + rounding


def verify_norm_bound(lcu: LcuDecomposition, srange: SpectralRange) -> bool:
    """lambda >= Delta E / 2 once excluded constants are reinstated."""
    return lcu.one_norm + abs(lcu.constant) >= srange.half_range - 1e-9
