"""Closed-form T-gate, qubit, and rotation counts for the oracle circuits of
each decomposition, plus the hardness figure of merit used to compare them.

Every formula is exact integer arithmetic in the register widths. Precision
enters only through the widths mu (coefficient loading) and beta (rotation
angle loading), and through the T-gate equivalent of an R_Z synthesis.
"""

from dataclasses import dataclass, field
from math import ceil, log2

RZ_EPS_WINDOW = 0.016
DEFAULT_BUDGET = 1e-3
SPARSE_THRESHOLD = 1e-5


def bit_helpers(n: int) -> tuple:
    """(b, k, l) = (ceil log2 n, floor log2 n, their gap), exact integers."""
    if n < 1:
        raise ValueError("register sizes start at 1")
    b = (n - 1).bit_length()
    k = n.bit_length() - 1
    return b, k, b - k


def rz_t_cost(eps_r: float) -> float:
    """Average T-gate price of one R_Z rotation synthesized to eps_r."""
    if not 0.0 < eps_r < RZ_EPS_WINDOW:
        raise ValueError(f"synthesis cost model holds for 0 < eps < {RZ_EPS_WINDOW}")
    return 3.067 * log2(1.0 / eps_r) + 9.678


def mu_bits(n: int, eps: float) -> int:
    """Width of the keep-probability register when loading n coefficients:
    the bits needed to resolve each coefficient to eps, ceil(log2(n / eps)).
    """
    if n < 1:
        raise ValueError("need at least one coefficient")
    if not 0.0 < eps < 1.0:
        raise ValueError("accuracy must sit in (0, 1)")
    return ceil(log2(n / eps))


def beta_bits(n_orbitals: int, lam: float, eps_r: float) -> int:
    """Angle-register width for rotation loading: ceil(5.652 + log2(N lam / eps))."""
    if n_orbitals < 1 or lam <= 0.0 or eps_r <= 0.0:
        raise ValueError("need positive orbital count, 1-norm, and accuracy")
    return ceil(5.652 + log2(n_orbitals * lam / eps_r))


@dataclass
class CircuitCost:
    """One circuit directive: T count, qubits held, scratch returned, rotations."""
    t_gates: int
    qubits_nonreusable: int
    qubits_reusable: int
    rz_count: int


def uniform_row(k_states: int, controlled: bool = False) -> CircuitCost:
    """Equal superposition over k_states basis states."""
    b, k, l = bit_helpers(k_states)
    t = 8 * l + (2 * l + 2 * k if controlled else 0)
    q = k + l + (1 if controlled else 0)
    return CircuitCost(t, q, l, 2)


def cswap_row(width: int) -> CircuitCost:
    """Controlled swap of two width-qubit registers."""
    if width < 1:
        raise ValueError("register sizes start at 1")
    return CircuitCost(7 * width, 2 * width + 1, 0, 0)


def givens_row(n_orbitals: int, beta: int) -> CircuitCost:
    """Orbital rotation of N - 1 plane rotations driven by a loaded angle register."""
    if n_orbitals < 1:
        raise ValueError("register sizes start at 1")
    return CircuitCost(14 * n_orbitals * (beta - 2), n_orbitals + beta + 1, 0, 0)


def prep_row(k_coeffs: int, mu: int, controlled: bool = False) -> CircuitCost:
    """Signed coefficient superposition over k_coeffs amplitudes."""
    b, k, l = bit_helpers(k_coeffs)
    t = 8 * l + 4 * k_coeffs + 8 * mu + 7 * b - 8
    q = b + 2 * mu + 3
    r = max(2 * mu - 1, b - 1, l)
    if controlled:
        t += 4 + 2 * k + 2 * l
        q += 1
        r += 1
    return CircuitCost(t, q, r, 2)


def prep_v_row(k_coeffs: int, mu: int, controlled: bool = False) -> CircuitCost:
    """Coefficient superposition that also flags the one-body block."""
    base = prep_row(k_coeffs, mu, controlled)
    return CircuitCost(base.t_gates + 7, base.qubits_nonreusable + 2,
                       base.qubits_reusable, 2)


def sparse_prep_row(s_terms: int, n_orbitals: int, mu: int) -> CircuitCost:
    b_s, _, l_s = bit_helpers(s_terms)
    b_n = bit_helpers(n_orbitals)[0]
    t = 8 * l_s + 4 * s_terms + 8 * mu + 56 * b_n - 1
    q = b_s + 8 * b_n + 2 * mu + 8
    return CircuitCost(t, q, max(l_s, b_s - 1, 2 * mu - 1), 2)


def sparse_sel_row(n_orbitals: int) -> CircuitCost:
    b_n = bit_helpers(n_orbitals)[0]
    b_2n = bit_helpers(2 * n_orbitals)[0]
    return CircuitCost(32 * n_orbitals - 16, 4 * b_n + 4 + 2 * n_orbitals,
                       b_2n + 1, 0)


def ac_sel_row(n_groups: int, group_sizes, n_orbitals: int) -> CircuitCost:
    """Multiplexed application of grouped rotation chains.

    T pays only the unary iteration; every chain member beyond the first costs
    two hard-coded rotations instead.
    """
    if len(group_sizes) != n_groups:
        raise ValueError("group sizes must list every group")
    if any(s < 1 for s in group_sizes):
        raise ValueError("groups need at least one member")
    b_g = bit_helpers(n_groups)[0]
    rz = 2 * int(sum(group_sizes)) - 2 * n_groups
    return CircuitCost(4 * n_groups - 4, 2 * n_orbitals + b_g + 1, b_g, rz)


def l4_sel_row(n_weights: int, n_orbitals: int, beta: int) -> CircuitCost:
    b_w = bit_helpers(n_weights)[0]
    t = n_orbitals * (112 * beta - 196) + 8 * n_weights - 4
    q = 4 + b_w + 2 * n_orbitals + 4 * beta
    return CircuitCost(t, q, b_w, 0)


def l4_mps_prep_row(n_orbitals: int, a1: int, a2: int, a3: int,
                    mu_n: int, mu_1: int, mu_2: int, mu_3: int) -> CircuitCost:
    """Four chained controlled coefficient loads, one per tensor-train index."""
    t = sum(prep_row(k, mu, controlled=True).t_gates
            for k, mu in ((n_orbitals, mu_n), (a1, mu_1), (a2, mu_2), (a3, mu_3)))
    b_n = bit_helpers(n_orbitals)[0]
    b_2 = bit_helpers(a2)[0]
    b_3 = bit_helpers(a3)[0]
    q = 13 + b_n + b_2 + b_3 + 2 * (mu_n + mu_1 + mu_2 + mu_3)
    return CircuitCost(t, q, 4 + b_2 + 2 * mu_2, 9)


def l4_mps_sel_row(n_orbitals: int, a1: int, a2: int, a3: int,
                   beta: int) -> CircuitCost:
    b_n = bit_helpers(n_orbitals)[0]
    b_2 = bit_helpers(a2)[0]
    b_3 = bit_helpers(a3)[0]
    t = (4 * a2 * (n_orbitals + 2 * a1 + 2 * a3)
         + n_orbitals * (112 * beta - 192) + 8 * a1 + 4 * a3 - 24)
    q = 4 + 2 * n_orbitals + beta + b_n + b_2 + b_3
    return CircuitCost(t, q, bit_helpers(a2 * a3)[0], 0)


def df_select_row(n_factors: int, n_orbitals: int, mu: int, beta: int) -> CircuitCost:
    """Multiplexed block encodings, one per factor, each a rotated reflection pair."""
    b_n, k_n, l_n = bit_helpers(n_orbitals)
    b_l = bit_helpers(n_factors)[0]
    t = (n_factors * (8 + 40 * l_n + 16 * n_orbitals + 32 * mu + 28 * b_n + 8 * k_n)
         + n_orbitals * (28 * beta - 48) + 4 * b_n - 20)
    q = 6 + b_l + 2 * n_orbitals + b_n + 2 * mu
    r = 7 + beta + 3 * b_n + b_l + max(2 * mu - 1, b_n - 1, l_n)
    return CircuitCost(t, q, r, 8 * n_factors)


@dataclass
class CostReport:
    """Resource totals for one query: one selection plus two preparations."""
    method: str
    t_sel: int
    t_prep: int
    rz_sel: int
    rz_prep: int
    qubits_nonreusable: int
    qubits_reusable: int
    rz_tgate_equiv: float = 0.0
    hardness: float = None
    params: dict = field(default_factory=dict)

    @property
    def t_gates(self) -> int:
        return self.t_sel + 2 * self.t_prep

    @property
    def rz_count(self) -> int:
        return self.rz_sel + 2 * self.rz_prep

    @property
    def total_qubits(self) -> int:
        return self.qubits_nonreusable + self.qubits_reusable


def hardness(report: CostReport, lam: float) -> float:
    """1-norm times the query T count, rotation synthesis converted to T."""
    return float(lam) * (report.t_gates + report.rz_tgate_equiv)


def _compose(method, sel: CircuitCost, prep: CircuitCost,
             eps_c, eps_r, lam, params) -> CostReport:
    rz_total = sel.rz_count + 2 * prep.rz_count
    equiv = rz_total * rz_t_cost(eps_r) if rz_total else 0.0
    params = dict(params)
    params["eps_coeff"] = eps_c
    params["eps_rot"] = eps_r
    report = CostReport(
        method=method,
        t_sel=sel.t_gates,
        t_prep=prep.t_gates,
        rz_sel=sel.rz_count,
        rz_prep=prep.rz_count,
        qubits_nonreusable=sel.qubits_nonreusable + prep.qubits_nonreusable,
        qubits_reusable=max(sel.qubits_reusable, prep.qubits_reusable),
        rz_tgate_equiv=equiv,
        params=params,
    )
    report.hardness = hardness(report, lam)
    return report


def prep_generic_cost(k_coeffs: int, eps_c: float) -> CircuitCost:
    """Generic coefficient load with the register width set by eps_c."""
    return prep_row(k_coeffs, mu_bits(k_coeffs, eps_c))


def sparse_costs(s_terms: int, n_orbitals: int, eps_c: float,
                 eps_r: float, lam: float) -> CostReport:
    sel = sparse_sel_row(n_orbitals)
    prep = sparse_prep_row(s_terms, n_orbitals, mu_bits(s_terms, eps_c))
    return _compose("pauli", sel, prep, eps_c, eps_r, lam,
                    {"S": s_terms, "N": n_orbitals})


def ac_costs(n_groups: int, group_sizes, n_orbitals: int, eps_c: float,
             eps_r: float, lam: float) -> CostReport:
    sel = ac_sel_row(n_groups, group_sizes, n_orbitals)
    prep = prep_generic_cost(n_groups, eps_c)
    return _compose("ac", sel, prep, eps_c, eps_r, lam,
                    {"G": n_groups, "N": n_orbitals,
                     "total_group_members": int(sum(group_sizes))})


def df_costs(n_factors: int, n_orbitals: int, lam: float, eps_c: float,
             eps_r: float) -> CostReport:
    mu = mu_bits(n_orbitals, eps_c)
    beta = beta_bits(n_orbitals, lam, eps_r)
    sel = df_select_row(n_factors, n_orbitals, mu, beta)
    prep = prep_generic_cost(n_factors, eps_c)
    return _compose("df", sel, prep, eps_c, eps_r, lam,
                    {"L": n_factors, "N": n_orbitals, "mu": mu, "beta": beta})


def l4_costs(n_weights: int, n_orbitals: int, lam: float, eps_c: float,
             eps_r: float) -> CostReport:
    beta = beta_bits(n_orbitals, lam, eps_r)
    sel = l4_sel_row(n_weights, n_orbitals, beta)
    prep = prep_generic_cost(n_weights, eps_c)
    return _compose("l4", sel, prep, eps_c, eps_r, lam,
                    {"W": n_weights, "N": n_orbitals, "beta": beta})


def l4_mps_costs(n_orbitals: int, a1: int, a2: int, a3: int, lam: float,
                 eps_c: float, eps_r: float) -> CostReport:
    beta = beta_bits(n_orbitals, lam, eps_r)
    sel = l4_mps_sel_row(n_orbitals, a1, a2, a3, beta)
    prep = l4_mps_prep_row(n_orbitals, a1, a2, a3,
                           mu_bits(n_orbitals, eps_c), mu_bits(a1, eps_c),
                           mu_bits(a2, eps_c), mu_bits(a3, eps_c))
    return _compose("l4-mps", sel, prep, eps_c, eps_r, lam,
                    {"N": n_orbitals, "alpha": (a1, a2, a3), "beta": beta})


def default_precisions(lam: float, rz_count: int,
                       budget: float = DEFAULT_BUDGET) -> tuple:
    """(eps_c, eps_r): a total synthesis budget of budget / lam, with the
    rotation share split evenly across the rotation count."""
    if lam <= 0.0:
        raise ValueError("need a positive 1-norm")
    eps_total = budget / lam
    eps_c = min(eps_total, 0.5)
    # cap inside the validity window of the synthesis cost model
    eps_r = min(eps_total / max(rz_count, 1), 0.015)
    return eps_c, eps_r


def sparse_term_count(maj, threshold: float = SPARSE_THRESHOLD) -> int:
    """Unique coefficients the sparse preparation loads: folded one-body
    entries with i <= j plus one representative per symmetry orbit of g.

    An orbit is named by the least row-major code of the eight index
    permutations that keep g unchanged.
    """
    import numpy as np  # the cost formulas above need only math

    n = maj.n_orbitals
    codes = np.arange(n ** 4).reshape((n,) * 4)
    orbit = np.minimum.reduce([codes.transpose(perm) for perm in (
        (0, 1, 2, 3), (1, 0, 2, 3), (0, 1, 3, 2), (1, 0, 3, 2),
        (2, 3, 0, 1), (2, 3, 1, 0), (3, 2, 0, 1), (3, 2, 1, 0))])
    one_body = np.abs(maj.h_tilde[np.triu_indices(n)]) > threshold
    return (int(one_body.sum())
            + np.unique(orbit[np.abs(maj.g) > threshold]).size)
