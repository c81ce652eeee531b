"""Batch plumbing and report emission: run decompositions end to end, price
their oracle circuits, check them against the dense Hamiltonian, and fit the
log-log scaling of hardness and qubit count across the hydrogen chains.

METHOD_TABLE is the one list of methods: a new method is one entry there,
giving its builder and its cost model (or none). METHODS, COSTED_METHODS,
the CLI's method choices, decompose_method and costs_for all read it.
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


@dataclass(frozen=True)
class Method:
    """build(maj, **options) returns an LCU labelled with the method's key;
    cost(lcu, maj, eps_c, eps_r) prices it (None: no closed-form model). An
    optimizable method also runs as "oo-<key>", built after minimizing its
    1-norm over orbital rotations within oo_budget evaluations by default."""
    build: object
    cost: object = None
    optimizable: bool = False
    oo_budget: int = None


def _build_l4(factorize):
    def build(maj, **options):
        one_body = diagonalize_one_body(maj)
        return l4_lcu(factorize(maj.g, **options), one_body, constant=maj.h0)
    return build


def _cost_l4(lcu, maj, eps_c, eps_r):
    return l4_costs(lcu.metadata["n_weights"], lcu.n_orbitals, lcu.one_norm,
                    eps_c, eps_r)


# Every callee is looked up in this module's namespace at call time, so a
# wrapper installed on a module attribute (as a tracer does) sees the call.
METHOD_TABLE = {
    "pauli": Method(
        lambda maj, sparse_threshold, **_: sparse_pauli_lcu(
            maj, threshold=sparse_threshold),
        lambda lcu, maj, eps_c, eps_r: sparse_costs(
            sparse_term_count(maj, lcu.metadata["threshold"]), lcu.n_orbitals,
            eps_c, eps_r=eps_r, lam=lcu.one_norm),
        optimizable=True),
    "ac": Method(
        lambda maj, **_: ac_lcu(maj),
        lambda lcu, maj, eps_c, eps_r: ac_costs(
            lcu.metadata["n_groups"], lcu.metadata["group_sizes"],
            lcu.n_orbitals, eps_c, eps_r, lam=lcu.one_norm),
        # grouped-norm evaluations are costly; keep the default bounded
        optimizable=True, oo_budget=4000),
    "sf": Method(lambda maj, tol, **_: cholesky_sf(maj, tol=tol)[1]),
    "df": Method(
        lambda maj, tol, **_: double_factorize(maj, cholesky_tol=tol),
        lambda lcu, maj, eps_c, eps_r: df_costs(
            lcu.metadata["n_factors"] + 1, lcu.n_orbitals, lcu.one_norm,
            eps_c, eps_r)),
    "csa": Method(lambda maj, fragments, seed, **_: csa_lcu(maj, csa_decompose(
        maj, maj.n_orbitals if fragments is None else fragments,
        seed=13 if seed is None else seed))),
    "l4-svd": Method(
        _build_l4(lambda g, tol, **_: svd_chain_factorize(g, tol=tol)),
        _cost_l4),
    "l4-mps": Method(
        _build_l4(lambda g, tol, **_: mps_factorize(g, tol=tol)),
        lambda lcu, maj, eps_c, eps_r: l4_mps_costs(
            lcu.n_orbitals, *lcu.metadata["bond_dims"], lcu.one_norm,
            eps_c, eps_r)),
    "l4-cp4": Method(
        _build_l4(lambda g, tol, max_rank, seed, **_: cp4_als(
            g, max_rank=max_rank, tol=tol, seed=7 if seed is None else seed)),
        _cost_l4),
}
METHODS = tuple(name for key, entry in METHOD_TABLE.items()
                for name in ((key, "oo-" + key) if entry.optimizable else (key,)))
COSTED_METHODS = tuple(m for m in METHODS
                       if METHOD_TABLE[m.removeprefix("oo-")].cost is not None)


def _pricing(method: str):
    """Cost function of a method name or result label; ValueError if none."""
    entry = METHOD_TABLE.get(method.removeprefix("oo-"))
    if entry is None or entry.cost is None:
        raise ValueError(f"no closed-form cost model for method {method!r}")
    return entry.cost


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
    base = method.removeprefix("oo-")
    entry = METHOD_TABLE[base]
    if method != base:
        rotation, mol = orbital_optimize(
            mol, objective=base,
            budget=entry.oo_budget if oo_budget is None else oo_budget,
            restarts=oo_restarts, seed=7 if seed is None else seed)
    maj = build_majorana(mol)
    lcu = entry.build(maj, sparse_threshold=sparse_threshold, tol=tol,
                      fragments=fragments, max_rank=max_rank, seed=seed)
    if method != base:
        lcu.metadata["evaluations"] = rotation.evaluations
        lcu.metadata["converged"] = rotation.converged
    return maj, lcu


def costs_for(lcu, maj, eps_coeff: float = None, eps_rot: float = None,
              budget: float = DEFAULT_BUDGET):
    """Price an LCU's oracle pair, deriving default precisions from its 1-norm.

    The rotation and coefficient accuracies never change the gate *counts*
    except through register widths, so the defaults are fixed by a first pass
    at a placeholder rotation accuracy.
    """
    cost = _pricing(lcu.method)
    if eps_coeff is None or eps_rot is None:
        probe = cost(lcu, maj, 0.5, 1e-4)
        default_c, default_r = default_precisions(lcu.one_norm, probe.rz_count,
                                                  budget)
        eps_coeff = default_c if eps_coeff is None else eps_coeff
        eps_rot = default_r if eps_rot is None else eps_rot
    report = cost(lcu, maj, eps_coeff, eps_rot)
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


OPTION_KEYS = ("sparse_threshold", "tol", "fragments", "max_rank", "seed",
               "oo_budget", "oo_restarts")


def _method_options(config: dict, method: str) -> dict:
    options = {k: config[k] for k in OPTION_KEYS if k in config}
    for key, value in config.get("overrides", {}).get(method, {}).items():
        if key not in OPTION_KEYS:
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
            if method in COSTED_METHODS:
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
    fixture, the data behind the scaling plots; hardness and qubits are None
    for a method without a cost model."""
    rows = []
    for name in chains:
        maj, lcu = decompose_method(load_fixture(name), method, **options)
        hard = qubits = None
        if method in COSTED_METHODS:
            report = costs_for(lcu, maj)
            hard, qubits = float(report.hardness), int(report.total_qubits)
        rows.append((lcu.n_orbitals, float(lcu.one_norm), hard, qubits))
    return rows


def fit_chain_scaling(method: str, quantity: str = "hardness",
                      chains=CHAIN_FIXTURES, **options):
    """Log-log fit of hardness, qubit count, or 1-norm against chain size."""
    column = {"lambda": 1, "hardness": 2, "qubits": 3}
    if quantity not in column:
        raise ValueError(f"unknown quantity {quantity!r}")
    if quantity != "lambda":
        _pricing(method)  # fail before any chain runs
    rows = chain_series(method, chains, **options)
    points = [(row[0], row[column[quantity]]) for row in rows]
    return fit_loglog(points), rows


def series_to_csv(rows) -> str:
    lines = ["N,lambda,hardness,qubits"]
    for n, lam, hard, qubits in rows:
        lines.append(f"{n},{sig12(lam)},{_csv_cell(hard)},{_csv_cell(qubits)}")
    return "\n".join(lines) + "\n"
