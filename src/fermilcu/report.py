"""Batch plumbing and report emission: run decompositions end to end, price
their oracle circuits, check them against the dense Hamiltonian, and fit the
log-log scaling of hardness and qubit count across the hydrogen chains.
"""

import json
import pathlib
from dataclasses import dataclass

import numpy as np

from .fermionic_lcu import (
    cholesky_sf,
    csa_decompose,
    csa_lcu,
    diagonalize_one_body,
    double_factorize,
)
from .integrals import MolecularIntegrals, load_fcidump, load_fixture
from .majorana import build_majorana
from .mtd_l4 import cp4_als, l4_lcu, mps_factorize, svd_chain_factorize
from .qubit_lcu import ac_lcu, orbital_optimize, sparse_pauli_lcu
from .resources import (
    DEFAULT_BUDGET,
    ac_costs,
    default_precisions,
    df_costs,
    l4_costs,
    l4_mps_costs,
    sparse_costs,
    sparse_term_count,
)
from .verify import (
    reconstruction_tolerance,
    spectral_range,
    verify_norm_bound,
    verify_reconstruction,
)

METHODS = ("pauli", "oo-pauli", "ac", "oo-ac", "sf", "df", "csa",
           "l4-svd", "l4-mps", "l4-cp4")
COSTED_METHODS = ("pauli", "oo-pauli", "ac", "oo-ac", "df",
                  "l4-svd", "l4-mps", "l4-cp4")
CHAIN_FIXTURES = ("chain_h02", "chain_h04", "chain_h06", "chain_h08",
                  "chain_h10")
VERIFY_MAX_ORBITALS = 7

CSV_COLUMNS = ("file", "method", "n_orbitals", "lambda", "constant",
               "t_sel", "t_prep", "rz", "qubits_clean", "qubits_reusable",
               "hardness", "deviation", "bound_ok")


@dataclass
class FitResult:
    alpha: float
    beta: float
    r_squared: float
    n_points: int


def fit_loglog(points) -> FitResult:
    """Ordinary least squares on (log10 x, log10 y)."""
    pts = [(float(x), float(y)) for x, y in points]
    if len(pts) < 2:
        raise ValueError("need at least two points")
    xs = np.array([p[0] for p in pts])
    ys = np.array([p[1] for p in pts])
    if np.any(xs <= 0.0) or np.any(ys <= 0.0):
        raise ValueError("log-log fit needs positive coordinates")
    lx = np.log10(xs)
    ly = np.log10(ys)
    beta, alpha = np.polyfit(lx, ly, 1)
    residual = ly - (alpha + beta * lx)
    ss_res = float(residual @ residual)
    centered = ly - ly.mean()
    ss_tot = float(centered @ centered)
    r_squared = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return FitResult(float(alpha), float(beta), float(r_squared), len(pts))


def decompose_method(mol: MolecularIntegrals, method: str, *,
                     sparse_threshold: float = 1e-5, tol: float = 1e-6,
                     fragments: int = None, max_rank: int = None,
                     seed: int = None, oo_budget: int = None,
                     oo_restarts: int = 3):
    """Run one named decomposition; returns (maj, lcu).

    For the orbital-optimized variants maj is built from the rotated
    integrals, so downstream costing and verification see the same frame the
    LCU lives in.
    """
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}")
    if method in ("oo-pauli", "oo-ac"):
        objective = "pauli" if method == "oo-pauli" else "ac"
        if method == "oo-ac" and oo_budget is None:
            # grouped-norm evaluations are costly; keep the default bounded
            oo_budget = 4000
        rotation, mol = orbital_optimize(mol, objective=objective,
                                         budget=oo_budget, restarts=oo_restarts,
                                         seed=7 if seed is None else seed)
        maj = build_majorana(mol)
        lcu = (sparse_pauli_lcu(maj, threshold=sparse_threshold)
               if objective == "pauli" else ac_lcu(maj))
        lcu.metadata["evaluations"] = rotation.evaluations
        lcu.metadata["converged"] = rotation.converged
        return maj, lcu
    maj = build_majorana(mol)
    if method == "pauli":
        return maj, sparse_pauli_lcu(maj, threshold=sparse_threshold)
    if method == "ac":
        return maj, ac_lcu(maj)
    if method == "sf":
        return maj, cholesky_sf(maj, tol=tol)[1]
    if method == "df":
        return maj, double_factorize(maj, cholesky_tol=tol)
    if method == "csa":
        n_fragments = maj.n_orbitals if fragments is None else fragments
        result = csa_decompose(maj, n_fragments,
                               seed=13 if seed is None else seed)
        return maj, csa_lcu(maj, result)
    one_body = diagonalize_one_body(maj)
    if method == "l4-svd":
        factors = svd_chain_factorize(maj.g, tol=tol)
    elif method == "l4-mps":
        factors = mps_factorize(maj.g, tol=tol)
    else:
        factors = cp4_als(maj.g, max_rank=max_rank, tol=tol,
                          seed=7 if seed is None else seed)
    return maj, l4_lcu(factors, one_body, constant=maj.h0)


def cost_model(lcu) -> str:
    """Name of the cost model that prices lcu: its method label, with both
    grouping levels of ac_lcu priced as "ac"."""
    return "ac" if lcu.method in ("ac-tensor", "ac-qubit") else lcu.method


def costs_for(lcu, maj, eps_coeff: float = None, eps_rot: float = None,
              budget: float = DEFAULT_BUDGET):
    """Price an LCU's oracle pair, deriving default precisions from its 1-norm.

    The rotation and coefficient accuracies never change the gate *counts*
    except through register widths, so the defaults are fixed by a first pass
    at a placeholder rotation accuracy.
    """
    method = cost_model(lcu)
    if method not in COSTED_METHODS:
        raise ValueError(f"no closed-form cost model for method {method!r}")
    n = lcu.n_orbitals
    lam = lcu.one_norm

    def build(eps_c, eps_r):
        if method == "pauli":
            s = sparse_term_count(maj, lcu.metadata["threshold"])
            return sparse_costs(s, n, eps_c, eps_r=eps_r, lam=lam)
        if method == "ac":
            return ac_costs(lcu.metadata["n_groups"],
                            lcu.metadata["group_sizes"], n, eps_c, eps_r,
                            lam=lam)
        if method == "df":
            return df_costs(lcu.metadata["n_factors"] + 1, n, lam,
                            eps_c, eps_r)
        if method == "l4-mps":
            a1, a2, a3 = lcu.metadata["bond_dims"]
            return l4_mps_costs(n, a1, a2, a3, lam, eps_c, eps_r)
        return l4_costs(lcu.metadata["n_weights"], n, lam, eps_c, eps_r)

    if eps_coeff is None or eps_rot is None:
        probe = build(0.5, 1e-4)
        default_c, default_r = default_precisions(lam, probe.rz_count, budget)
        eps_coeff = default_c if eps_coeff is None else eps_coeff
        eps_rot = default_r if eps_rot is None else eps_rot
    report = build(eps_coeff, eps_rot)
    report.params["budget"] = budget
    return report


def cost_report_json(report, method: str, n_orbitals: int, lam: float) -> dict:
    return {
        "method": method,
        "N": int(n_orbitals),
        "lambda": float(lam),
        "t_sel": int(report.t_sel),
        "t_prep": int(report.t_prep),
        "rz": int(report.rz_count),
        "qubits": {"clean": int(report.qubits_nonreusable),
                   "reusable": int(report.qubits_reusable)},
        "hardness": None if report.hardness is None else float(report.hardness),
    }


def verification_payload(lcu, maj, srange=None) -> dict:
    """Reconstruction deviation and norm bound; srange, the Hamiltonian's
    spectral range, is computed from maj when not given."""
    if srange is None:
        srange = spectral_range(maj)
    deviation = verify_reconstruction(lcu, maj)
    return {
        "deviation": float(deviation),
        "bound_ok": bool(verify_norm_bound(lcu, srange)),
        "lambda": float(lcu.one_norm),
        "half_range": float(srange.half_range),
    }


def sig12(value) -> str:
    """12-significant-digit decimal form used in every CSV cell."""
    return format(float(value), ".12g")


def _csv_cell(value):
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, float):
        return sig12(value)
    return str(value)


def rows_to_csv(rows) -> str:
    lines = [",".join(CSV_COLUMNS)]
    for row in rows:
        lines.append(",".join(_csv_cell(row.get(col)) for col in CSV_COLUMNS))
    return "\n".join(lines) + "\n"


def _json_safe(value):
    if isinstance(value, dict):
        return {str(k): _json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, np.ndarray):
        return [_json_safe(v) for v in value.tolist()]
    return value


def parse_config(text: str) -> dict:
    """Flat key-value config: one 'key = value' per line, '#' comments,
    comma-separated lists, and per-method overrides spelled 'key.method'."""
    config = {"overrides": {}}
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"config line needs 'key = value': {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key in ("files", "molecules", "methods", "chains"):
            parsed = [v.strip() for v in value.split(",") if v.strip()]
        else:
            parsed = _coerce(value)
        if "." in key:
            base, method = key.split(".", 1)
            config["overrides"].setdefault(method, {})[base] = parsed
        else:
            config[key] = parsed
    return config


def _coerce(value: str):
    for cast in (int, float):
        try:
            return cast(value)
        except ValueError:
            continue
    return value


def resolve_input(name: str, base_dir: str = ".") -> pathlib.Path:
    """An input is a readable path, a path relative to the config, or the
    short name of a shipped fixture."""
    from .integrals import fixture_dir

    candidate = pathlib.Path(name)
    if candidate.is_file():
        return candidate
    relative = pathlib.Path(base_dir) / name
    if relative.is_file():
        return relative
    stem = name[:-len(".fcidump")] if name.endswith(".fcidump") else name
    fixture = fixture_dir() / f"{stem}.fcidump"
    if fixture.is_file():
        return fixture
    raise FileNotFoundError(f"no input file or fixture named {name!r}")


_OPTION_KEYS = ("sparse_threshold", "tol", "fragments", "max_rank", "seed",
                "oo_budget", "oo_restarts")


def _method_options(config: dict, method: str) -> dict:
    options = {k: config[k] for k in _OPTION_KEYS if k in config}
    for key, value in config.get("overrides", {}).get(method, {}).items():
        if key not in _OPTION_KEYS:
            raise ValueError(f"unknown override key {key!r}")
        options[key] = value
    return options


@dataclass
class PipelineResult:
    rows: list
    json_text: str
    csv_text: str
    exit_code: int
    output_paths: tuple = ()


def run_pipeline(config: dict, base_dir: str = ".") -> PipelineResult:
    """Run every (file, method) pair in config order and emit both report
    forms. Nothing is written until every row has been computed, so a missing
    file or unknown method never leaves a partial report behind."""
    files = config.get("files", config.get("molecules", []))
    methods = config.get("methods", [])
    for method in methods:
        if method not in METHODS:
            raise ValueError(f"unknown method {method!r}")
    resolved = [(name, resolve_input(name, base_dir)) for name in files]

    budget = config.get("budget", DEFAULT_BUDGET)
    rows = []
    failures = 0
    for name, path in resolved:
        mol = load_fcidump(path)
        srange = None  # one spectral range per file, orbital rotations keep it
        for method in methods:
            options = _method_options(config, method)
            maj, lcu = decompose_method(mol, method, **options)
            row = {
                "file": name,
                "method": method,
                "n_orbitals": lcu.n_orbitals,
                "lambda": float(lcu.one_norm),
                "constant": float(lcu.constant),
            }
            if cost_model(lcu) in COSTED_METHODS:
                report = costs_for(lcu, maj,
                                   eps_coeff=config.get("eps_coeff"),
                                   eps_rot=config.get("eps_rot"),
                                   budget=budget)
                row.update({
                    "t_sel": report.t_sel,
                    "t_prep": report.t_prep,
                    "rz": report.rz_count,
                    "qubits_clean": report.qubits_nonreusable,
                    "qubits_reusable": report.qubits_reusable,
                    "hardness": float(report.hardness),
                    "calibration": _json_safe(report.params),
                })
            if lcu.n_orbitals <= VERIFY_MAX_ORBITALS:
                if srange is None:
                    srange = spectral_range(build_majorana(mol))
                check = verification_payload(lcu, maj, srange)
                tolerance = reconstruction_tolerance(lcu)
                ok = check["bound_ok"] and check["deviation"] <= tolerance
                row["deviation"] = check["deviation"]
                row["half_range"] = check["half_range"]
                row["bound_ok"] = check["bound_ok"]
                row["verified"] = bool(ok)
                if not ok:
                    failures += 1
            rows.append(row)

    document = {"config": _json_safe({k: v for k, v in config.items()}),
                "rows": _json_safe(rows)}
    json_text = json.dumps(document, indent=2, sort_keys=True) + "\n"
    csv_text = rows_to_csv(rows)
    exit_code = 1 if failures else 0

    output_paths = ()
    stem = config.get("output")
    if stem:
        stem_path = pathlib.Path(base_dir) / stem
        json_path = stem_path.with_suffix(".json")
        csv_path = stem_path.with_suffix(".csv")
        json_path.write_text(json_text)
        csv_path.write_text(csv_text)
        output_paths = (json_path, csv_path)
    return PipelineResult(rows, json_text, csv_text, exit_code, output_paths)


def chain_series(method: str, chains=CHAIN_FIXTURES, **options):
    """(n_orbitals, lambda, hardness, total qubits) per hydrogen-chain
    fixture, the data behind the scaling plots."""
    rows = []
    for name in chains:
        mol = load_fixture(name)
        maj, lcu = decompose_method(mol, method, **options)
        report = costs_for(lcu, maj)
        rows.append((lcu.n_orbitals, float(lcu.one_norm),
                     float(report.hardness), int(report.total_qubits)))
    return rows


def fit_chain_scaling(method: str, quantity: str = "hardness",
                      chains=CHAIN_FIXTURES, **options):
    """Log-log fit of hardness, qubit count, or 1-norm against chain size."""
    column = {"lambda": 1, "hardness": 2, "qubits": 3}
    if quantity not in column:
        raise ValueError(f"unknown quantity {quantity!r}")
    rows = chain_series(method, chains, **options)
    points = [(row[0], row[column[quantity]]) for row in rows]
    return fit_loglog(points), rows


def series_to_csv(rows) -> str:
    lines = ["N,lambda,hardness,qubits"]
    for n, lam, hard, qubits in rows:
        lines.append(f"{n},{sig12(lam)},{sig12(hard)},{qubits}")
    return "\n".join(lines) + "\n"
