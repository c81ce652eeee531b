"""Command-line front end: decompose, price, and verify Hamiltonians from
FCIDUMP files, report spectra, fit chain scaling, and drive batch pipelines.

Exit codes: 0 on success, 1 when `verify` or `pipeline` reports a row that
fails report.verification_payload's verdict, 2 on usage errors (unknown
method, missing file, bad flags).
"""

import argparse
import json
import pathlib
import sys

from .majorana import build_majorana
from .report import (
    CHAIN_FIXTURES,
    METHOD_TABLE,
    METHODS,
    OPTION_KEYS,
    VERIFY_MAX_ORBITALS,
    _json_safe,
    cost_report_json,
    costs_for,
    decompose_method,
    fit_chain_scaling,
    parse_config,
    resolve_input,
    run_pipeline,
    series_to_csv,
    sig12,
    verification_payload,
)
from .integrals import load_fcidump
from .verify import spectral_range


def _print_json(payload):
    print(json.dumps(_json_safe(payload), indent=2, sort_keys=True))


def _decomp_options(args) -> dict:
    return {key: getattr(args, key) for key in OPTION_KEYS
            if getattr(args, key) is not None}


def _run_decomposition(args):
    mol = load_fcidump(resolve_input(args.input))
    return decompose_method(mol, args.method, **_decomp_options(args))


def cmd_decompose(args) -> int:
    maj, lcu = _run_decomposition(args)
    if args.output == "csv":
        print("method,n_orbitals,lambda,constant,n_fragments")
        print(f"{args.method},{lcu.n_orbitals},{sig12(lcu.one_norm)},"
              f"{sig12(lcu.constant)},{len(lcu.fragments)}")
    else:
        _print_json({
            "method": args.method,
            "n_orbitals": lcu.n_orbitals,
            "lambda": lcu.one_norm,
            "constant": lcu.constant,
            "n_fragments": len(lcu.fragments),
            "metadata": lcu.metadata,
        })
    return 0


def cmd_estimate(args) -> int:
    maj, lcu = _run_decomposition(args)
    report = costs_for(lcu, maj, eps_coeff=args.eps_coeff,
                       eps_rot=args.eps_rot)
    payload = cost_report_json(report, args.method, lcu.n_orbitals,
                               lcu.one_norm)
    if args.output == "csv":
        print("method,N,lambda,t_sel,t_prep,rz,qubits_clean,qubits_reusable,"
              "hardness")
        print(f"{args.method},{payload['N']},{sig12(payload['lambda'])},"
              f"{payload['t_sel']},{payload['t_prep']},{payload['rz']},"
              f"{payload['qubits']['clean']},{payload['qubits']['reusable']},"
              f"{sig12(payload['hardness'])}")
    else:
        payload["calibration"] = _json_safe(report.params)
        _print_json(payload)
    return 0


def cmd_verify(args) -> int:
    maj, lcu = _run_decomposition(args)
    payload = verification_payload(lcu, maj)
    _print_json(payload)
    return 0 if payload["verified"] else 1


def cmd_spectrum(args) -> int:
    maj = build_majorana(load_fcidump(resolve_input(args.input)))
    srange = spectral_range(maj)
    if args.output == "csv":
        print("e_min,e_max,half_range")
        print(f"{sig12(srange.e_min)},{sig12(srange.e_max)},"
              f"{sig12(srange.half_range)}")
    else:
        _print_json({"e_min": srange.e_min, "e_max": srange.e_max,
                     "half_range": srange.half_range})
    return 0


def cmd_fit(args) -> int:
    chains = ([c.strip() for c in args.chains.split(",") if c.strip()]
              if args.chains else CHAIN_FIXTURES)
    options = _decomp_options(args)
    if args.method.startswith("oo-"):
        entry = METHOD_TABLE[args.method.removeprefix("oo-")]
        options.setdefault("oo_budget", entry.chain_oo_budget)
        options.setdefault("oo_restarts", entry.chain_oo_restarts)
    fit, rows = fit_chain_scaling(args.method, args.quantity, chains,
                                  **options)
    if args.output == "csv":
        sys.stdout.write(series_to_csv(rows))
    else:
        _print_json({
            "method": args.method,
            "quantity": args.quantity,
            "chains": list(chains),
            "alpha": fit.alpha,
            "beta": fit.beta,
            "r_squared": fit.r_squared,
            "n_points": fit.n_points,
        })
    return 0


def cmd_pipeline(args) -> int:
    config_path = pathlib.Path(args.config)
    if not config_path.is_file():
        raise FileNotFoundError(f"no config file at {config_path}")
    config = parse_config(config_path.read_text())
    result = run_pipeline(config, base_dir=config_path.parent)
    verified = sum(row["verified"] for row in result.rows)
    _print_json({
        "rows": len(result.rows),
        "verified": verified,
        "failed": len(result.rows) - verified,
        "outputs": [str(p) for p in result.output_paths],
    })
    return result.exit_code


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fermilcu",
        description="LCU decompositions and fault-tolerant resource costs "
                    "for electronic-structure Hamiltonians.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_output(p):
        p.add_argument("--output", choices=("json", "csv"), default="json")

    def add_decomp(p, with_input=True):
        if with_input:
            p.add_argument("--input", required=True,
                           help="FCIDUMP path or shipped fixture name")
        p.add_argument("--method", required=True, choices=METHODS)
        # absent flags stay None, so decompose_method's defaults apply
        p.add_argument("--sparse-threshold", type=float, default=None)
        p.add_argument("--tol", type=float, default=None)
        p.add_argument("--fragments", type=int, default=None)
        p.add_argument("--max-rank", type=int, default=None)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--oo-budget", type=int, default=None)
        p.add_argument("--oo-restarts", type=int, default=None)

    p = sub.add_parser("decompose", help="run one decomposition")
    add_decomp(p)
    add_output(p)
    p.set_defaults(handler=cmd_decompose)

    p = sub.add_parser("estimate", help="resource costs for one decomposition")
    add_decomp(p)
    p.add_argument("--eps-coeff", type=float, default=None)
    p.add_argument("--eps-rot", type=float, default=None)
    add_output(p)
    p.set_defaults(handler=cmd_estimate)

    p = sub.add_parser("verify", help="reconstruction deviation and, for "
                       f"N <= {VERIFY_MAX_ORBITALS}, the spectral norm bound")
    add_decomp(p)
    p.set_defaults(handler=cmd_verify)

    p = sub.add_parser("spectrum", help="extremal eigenvalues and half-range, "
                       "exact from the S_z = 0 or -1/2 sector of each "
                       "electron count of the spin-free Hamiltonian")
    p.add_argument("--input", required=True)
    add_output(p)
    p.set_defaults(handler=cmd_spectrum)

    p = sub.add_parser("fit", help="log-log scaling fit over hydrogen chains")
    add_decomp(p, with_input=False)
    p.add_argument("--quantity", choices=("hardness", "qubits", "lambda"),
                   default="hardness")
    p.add_argument("--chains", default=None,
                   help="comma-separated fixture names")
    add_output(p)
    p.set_defaults(handler=cmd_fit)

    p = sub.add_parser("pipeline", help="batch run from a key-value config")
    p.add_argument("--config", required=True)
    p.set_defaults(handler=cmd_pipeline)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
