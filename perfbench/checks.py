"""Checks of one run's outputs, made off the clock.

Each check compares a program output with a figure from `oracle.py` or with
a property the method guarantees; none compares with a stored copy of an
earlier output. A failed check makes the run report "correct": false.
"""
import numpy as np

import oracle

TARGET_FIXTURES = ("h2", "lih")   # where the verifier's target is compared
MATRIX_TOL = 1e-10
SPECTRAL_RTOL = 1e-8
BOUND_SLACK = 1e-9
INVARIANT_TOL = 1e-10
UNROTATED = {"oo-pauli": "pauli", "oo-ac": "ac"}


def _loglog_fit(points):
    """Least squares of log10 y on log10 x, written out: (alpha, beta)."""
    lx = np.log10([float(x) for x, _ in points])
    ly = np.log10([float(y) for _, y in points])
    dx = lx - lx.mean()
    beta = float(dx @ (ly - ly.mean()) / (dx @ dx))
    return float(ly.mean() - beta * lx.mean()), beta


def _check_target(name, mol, matrix, report, verify) -> list:
    """The Pauli form of H that verification compares against must equal
    the ladder-operator matrix entry by entry."""
    op = verify.pauli_sum_of_hamiltonian(report.build_majorana(mol))
    if op.n_qubits <= 8:
        diff = float(np.abs(verify.dense_matrix(op) - matrix.toarray()).max())
    else:
        diff = float(abs(verify.sparse_matrix(op) - matrix).max())
    if diff > MATRIX_TOL:
        return [f"{name}: Pauli form of H differs from the ladder-operator "
                f"matrix by {diff:.3e}"]
    return []


def _check_oo(key, op, mol, report) -> list:
    """Orbital optimization must not raise lambda above the unrotated
    method, and the rotation must keep h~'s spectrum and |g|_F."""
    fixture, method = key
    base_maj, base = report.decompose_method(mol, UNROTATED[method])
    problems = []
    if op.lam > base.one_norm * (1.0 + 1e-12):
        problems.append(f"{key}: lambda {op.lam!r} above unrotated "
                        f"{UNROTATED[method]} {base.one_norm!r}")
    spectrum = np.abs(np.linalg.eigvalsh(op.maj.h_tilde)
                      - np.linalg.eigvalsh(base_maj.h_tilde)).max()
    frobenius = abs(np.linalg.norm(op.maj.g) - np.linalg.norm(base_maj.g))
    if spectrum > INVARIANT_TOL or frobenius > INVARIANT_TOL:
        problems.append(f"{key}: rotation changed h~ spectrum by "
                        f"{spectrum:.2e} or |g|_F by {frobenius:.2e}")
    return problems


def _check_cost(key, op) -> list:
    cost = op.cost
    counts = (cost.t_sel, cost.t_prep, cost.rz_sel, cost.rz_prep,
              cost.qubits_nonreusable, cost.qubits_reusable)
    expected = op.lam * (cost.t_gates + cost.rz_tgate_equiv)
    if min(counts) < 0 or not np.isclose(cost.hardness, expected, rtol=1e-12):
        return [f"{key}: cost counts {counts} or hardness {cost.hardness!r} "
                f"inconsistent (lambda * T count = {expected!r})"]
    return []


def _check_fit(key, op, ops) -> list:
    points = [(o.n_orbitals, o.lam) for (f, m), o in ops.items()
              if m == key[1] and o.lam is not None]
    alpha, beta = _loglog_fit(points)
    fit = op.fit
    if (fit.n_points != len(points) or abs(fit.beta - beta) > 1e-9
            or abs(fit.alpha - alpha) > 1e-9
            or not 0.0 <= fit.r_squared <= 1.0 + 1e-12):
        return [f"{key}: fit ({fit.alpha!r}, {fit.beta!r}, {fit.r_squared!r}) "
                f"vs least squares ({alpha!r}, {beta!r})"]
    return []


def check_workload(wl, ops, rounds, program, fixture_path, seed) -> list:
    """Problems found in the first round's ops; later rounds must repeat it."""
    integrals, report, verify = program
    problems = []
    first = {key: op.summary() for key, op in ops.items()}
    for other in rounds[1:]:
        for key, op in other.items():
            if op.summary() != first[key]:
                problems.append(f"{key}: round gave {op.summary()} after "
                                f"{first[key]}")
    for fixture in wl.fixtures:
        path = fixture_path(fixture)
        ints = oracle.read_fcidump(path)
        mol = integrals.load_fcidump(path)
        matrix = None
        if 2 * ints.norb <= oracle.EXACT_MAX_QUBITS:
            matrix = oracle.ladder_hamiltonian(ints)
        ref = oracle.reference_half_range(ints, seed, matrix)
        if fixture in TARGET_FIXTURES:
            problems += _check_target(fixture, mol, matrix, report, verify)
        for key, op in ops.items():
            if key[0] != fixture:
                continue
            if op.srange is not None and ref.exact and abs(
                    op.srange.half_range - ref.half_range) > SPECTRAL_RTOL * max(
                    1.0, ref.half_range):
                problems.append(f"{key}: spectral half range "
                                f"{op.srange.half_range!r} vs {ref.half_range!r}")
            if op.lam is None:
                continue
            covered = op.lam + abs(op.constant)
            if covered < ref.half_range - BOUND_SLACK:
                problems.append(f"{key}: lambda + |c| = {covered!r} below "
                                f"half range {ref.half_range!r}")
            if op.cost is not None:
                problems += _check_cost(key, op)
            if op.fit is not None:
                problems += _check_fit(key, op, ops)
            if key[1] in UNROTATED:
                problems += _check_oo(key, op, mol, report)
    return problems
