"""Benchmark of `fermilcu`: decomposition, costing and verification.

Usage:
    python3 perfbench/run.py --workload verify-molecules --seed 1 \
        --seconds 12 --trace 0

One process runs one workload. It times whole rounds of the workload's
operations until --seconds have passed (at least one round), then checks the
outputs against `oracle.py`, off the clock, and prints one JSON line:
{"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics
are the end-to-end ones; with --trace 1 they are per-layer figures from a
traced pass over the same rounds, followed by an untraced pass of the same
length that gives the tracing overhead. See README.md in this directory.
"""
import os

# One BLAS thread: the figures must not depend on how busy the second core is.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import pathlib  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402

HERE = pathlib.Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"   # traced runs write their spans here
SETUP_PROBES = 5
CHAINS = ("chain_h02", "chain_h04", "chain_h06", "chain_h08", "chain_h10")
# decompose_method options as the acceptance grid sets them
METHOD_OPTIONS = {"oo-ac": {"oo_budget": 1000, "oo_restarts": 2}}


@dataclass(frozen=True)
class Workload:
    ops: tuple              # (fixture, method) pairs, in run order
    spectral: tuple = ()    # fixtures whose spectral range is a timed stage
    reconstruct: str = ""   # "timed", "untimed" or "" (no reconstruction)
    fit: bool = False       # fit_loglog of lambda against N per method

    @property
    def fixtures(self) -> tuple:
        return tuple(dict.fromkeys(f for f, _ in self.ops))


def grid(fixtures, methods, skip=()):
    return tuple((f, m) for f in fixtures for m in methods if (f, m) not in skip)


WORKLOADS = {
    "verify-molecules": Workload(
        ops=grid(("h2", "lih", "beh2", "h2o"),
                 ("pauli", "ac", "sf", "df", "l4-svd")),
        spectral=("h2", "lih", "beh2", "h2o"),
        reconstruct="timed"),
    "optimizers": Workload(
        ops=grid(("h2", "lih"), ("oo-pauli", "oo-ac", "csa", "l4-cp4"),
                 skip=(("lih", "oo-ac"),)),
        reconstruct="untimed"),
    "chain-scaling": Workload(
        ops=grid(CHAINS, ("pauli", "ac", "df", "l4-mps")),
        spectral=CHAINS[:3],
        fit=True),
}


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def import_program():
    """Import `fermilcu` from this checkout's src/, never from elsewhere."""
    if not (SRC / "fermilcu" / "__init__.py").is_file():
        fail(f"no fermilcu package under {SRC}")
    sys.path.insert(0, str(SRC))
    import fermilcu
    from fermilcu import integrals, report, verify

    if pathlib.Path(fermilcu.__file__).resolve().parent != SRC / "fermilcu":
        fail(f"imported fermilcu from {fermilcu.__file__}, not {SRC}")
    return integrals, report, verify


def fixture_path(name: str) -> pathlib.Path:
    return SRC / "fermilcu" / "fixtures" / f"{name}.fcidump"


def setup_probe(workload: Workload) -> None:
    """Child process of measure_setup: import, parse, say so, exit."""
    integrals, _, _ = import_program()
    for name in workload.fixtures:
        integrals.load_fcidump(fixture_path(name))
    print("ready", flush=True)


def measure_setup(name: str) -> float:
    """Median wall time from spawning a fresh interpreter until it has
    imported `fermilcu` and parsed the workload's FCIDUMP files."""
    times = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        with subprocess.Popen(
                [sys.executable, str(HERE / "run.py"), "--setup-probe",
                 "--workload", name], stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            proc.stdout.read()
            code = proc.wait(timeout=60)
        if code != 0 or line.strip() != "ready":
            fail(f"set-up probe exited with {code}")
        times.append(elapsed)
    return statistics.median(times)


@dataclass
class Op:
    """One (fixture, method) pair in one round. The decomposition itself is
    kept only where an untimed stage still needs it, so that the rounds hold
    no more memory than a `fermilcu` run of one operation does."""
    fixture: str
    method: str
    lam: float = None
    constant: float = None
    n_orbitals: int = None
    n_fragments: int = None
    maj: object = None
    lcu: object = None
    cost: object = None
    fit: object = None
    srange: object = None
    errors: list = field(default_factory=list)
    seconds: dict = field(default_factory=dict)

    def summary(self) -> tuple:
        return (self.lam, self.constant, self.n_fragments, tuple(self.errors))


def stage(op: Op, name: str, func, *args, **kwargs):
    """Run one stage; a stage that raises marks the operation failed."""
    start = time.perf_counter()
    try:
        return func(*args, **kwargs)
    except Exception as exc:  # the round goes on with the next stage
        op.errors.append(f"{name}: {type(exc).__name__}: {exc}")
        return None
    finally:
        op.seconds[name] = time.perf_counter() - start


def reconstruct(op: Op, lcu, verify) -> None:
    deviation = stage(op, "reconstruct", verify.verify_reconstruction,
                      lcu, op.maj)
    if deviation is not None:
        tolerance = verify.reconstruction_tolerance(lcu)
        if deviation > tolerance:
            op.errors.append(f"reconstruct: deviation {deviation!r} "
                             f"exceeds tolerance {tolerance!r}")


def spectral_range(program, mol):
    """The `fermilcu spectrum` path: Majorana split, then extremal eigenvalues."""
    _, report, verify = program
    return verify.spectral_range(report.build_majorana(mol))


def run_op(op: Op, wl: Workload, mol, spectra: dict, program) -> None:
    """Take one operation through the workload's stages after decompose."""
    _, report, verify = program
    decomposed = stage(op, "decompose", report.decompose_method, mol,
                       op.method, **METHOD_OPTIONS.get(op.method, {}))
    if decomposed is None:
        return
    op.maj, lcu = decomposed
    op.lam, op.constant = lcu.one_norm, lcu.constant
    op.n_orbitals, op.n_fragments = lcu.n_orbitals, len(lcu.fragments)
    if op.method in report.COSTED_METHODS:
        op.cost = stage(op, "cost", report.costs_for, lcu, op.maj)
    if op.fixture in wl.spectral:
        op.srange = spectra[op.fixture]
        if op.srange is None:
            op.errors.append("spectral: no spectral range for fixture")
        elif not verify.verify_norm_bound(lcu, op.srange):
            op.errors.append("spectral: lambda + |c| below half range")
    if wl.reconstruct == "timed":
        reconstruct(op, lcu, verify)
    elif wl.reconstruct == "untimed":
        op.lcu = lcu


def run_round(wl: Workload, mols: dict, program) -> tuple:
    """One timed round; returns (seconds, {(fixture, method): Op})."""
    report = program[1]
    ops = {}
    spectra = {}
    start = time.perf_counter()
    for fixture, method in wl.ops:
        op = ops[fixture, method] = Op(fixture, method)
        if fixture in wl.spectral and fixture not in spectra:
            spectra[fixture] = stage(op, "spectral", spectral_range,
                                     program, mols[fixture])
        run_op(op, wl, mols[fixture], spectra, program)
    if wl.fit:
        for method in dict.fromkeys(m for _, m in wl.ops):
            series = [op for (_, m), op in ops.items() if m == method]
            series[-1].fit = stage(
                series[-1], "fit", report.fit_loglog,
                [(op.n_orbitals, op.lam) for op in series if op.lam is not None])
    return time.perf_counter() - start, ops


def clear_program_caches() -> None:
    """Empty every memoized function of `fermilcu`, so that each round does
    the work a fresh `fermilcu` process does."""
    for name, module in list(sys.modules.items()):
        if name.startswith("fermilcu"):
            for obj in vars(module).values():
                if callable(getattr(obj, "cache_clear", None)):
                    obj.cache_clear()
    gc.collect()


def timed_rounds(wl: Workload, mols: dict, program, seconds: float,
                 rounds: int = None) -> list:
    """Rounds until `seconds` have passed, or exactly `rounds` of them."""
    out = []
    started = time.perf_counter()
    while (len(out) < rounds if rounds else
           not out or time.perf_counter() - started < seconds):
        clear_program_caches()
        out.append(run_round(wl, mols, program))
    return out


def failed_ops(ops: dict, untimed: dict) -> list:
    return [key for key, op in ops.items() if op.errors or untimed.get(key)]


def untimed_verdicts(ops: dict, verify) -> dict:
    """Reconstruction verdicts taken off the clock, per operation."""
    verdicts = {}
    for key, op in ops.items():
        if op.lcu is not None:
            probe = Op(*key, maj=op.maj)
            reconstruct(probe, op.lcu, verify)
            verdicts[key] = probe.errors
    return verdicts


def trace_points(recorder, program):
    integrals, report, verify = program

    def oo(rec, result, args, grown_kb):
        rotation = result[0]
        rec.count("qubit_lcu.oo_evals", rotation.evaluations)
        rec.count("qubit_lcu.oo_converged", int(rotation.converged))

    def ac(rec, result, args, grown_kb):
        rec.count("qubit_lcu.ac_groups", result.metadata["n_groups"])
        rec.count("qubit_lcu.ac_rss_mb", grown_kb / 1024.0)

    def csa(rec, result, args, grown_kb):
        rec.count("fermionic_lcu.csa_converged", int(result.converged))

    def cp4(rec, result, args, grown_kb):
        rec.count("mtd_l4.cp4_rank", result.rank)

    def pauli_sum(rec, result, args, grown_kb):
        rec.count("majorana.pauli_terms", len(result))

    def fragments(rec, result, args, grown_kb):
        rec.count("verify.fragments", len(args[0].fragments))

    points = [
        (integrals, "load_fcidump", "integrals.load", None),
        (report, "decompose_method", "report.decompose", None),
        (report, "costs_for", "report.costs", None),
        (report, "fit_loglog", "report.fit", None),
        (report, "build_majorana", "majorana.build", None),
        (report, "sparse_pauli_lcu", "qubit_lcu.pauli", None),
        (report, "ac_lcu", "qubit_lcu.ac", ac),
        (report, "orbital_optimize", "qubit_lcu.oo", oo),
        (report, "cholesky_sf", "fermionic_lcu.sf", None),
        (report, "double_factorize", "fermionic_lcu.df", None),
        (report, "csa_decompose", "fermionic_lcu.csa", csa),
        (report, "csa_lcu", "fermionic_lcu.csa_lcu", None),
        (report, "diagonalize_one_body", "fermionic_lcu.one_body", None),
        (report, "svd_chain_factorize", "mtd_l4.svd", None),
        (report, "mps_factorize", "mtd_l4.mps", None),
        (report, "cp4_als", "mtd_l4.cp4", cp4),
        (report, "l4_lcu", "mtd_l4.l4_lcu", None),
        (verify, "spectral_range", "verify.spectral", None),
        (verify, "verify_reconstruction", "verify.reconstruct", fragments),
        (verify, "pauli_sum_of_hamiltonian", "majorana.pauli_sum", pauli_sum),
        (verify, "dense_matrix", "majorana.dense_matrix", None),
        (verify, "sparse_matrix", "majorana.sparse_matrix", None),
    ]
    for attr in ("sparse_term_count", "sparse_costs", "ac_costs", "df_costs",
                 "l4_costs", "l4_mps_costs", "default_precisions"):
        points.append((report, attr, "resources.cost", None))
    return points


def per_layer_metrics(names: dict, recorder, traced: list, untraced: list,
                      ops: dict) -> dict:
    """Per-round means of the traced pass; ac_rss_mb is the pass total."""
    rounds = len(traced)
    traced_s = sum(s for s, _ in traced) / rounds
    untraced_s = sum(s for s, _ in untraced) / len(untraced)
    # set-up parsing happens once, before the rounds
    setup = [s for s in recorder.spans if s.name == "integrals.load"]
    top_level = recorder.top_level_s() - sum(s.end - s.start for s in setup)
    values = {"trace.run_s": traced_s,
              "trace.overhead_s": traced_s - untraced_s,
              "trace.unattributed_s": traced_s - top_level / rounds,
              "trace.spans": (len(recorder.spans) - len(setup)) / rounds}
    for key, seconds in recorder.self_times().items():
        name = key if key.endswith(".self_s") else f"{key}_s"
        values[name] = seconds if key.startswith("integrals") else seconds / rounds
    for key, amount in recorder.counts.items():
        values[key] = amount if key == "qubit_lcu.ac_rss_mb" else amount / rounds
    for (fixture, method), op in ops.items():
        if op.lam is not None:
            key = f"lambda.{method}"
            values[key] = values.get(key, 0.0) + op.lam
    return {name: {"value": values.get(name, 0.0), "unit": unit}
            for name, unit in names.items()}


def write_trace(args, recorder, traced, untraced, ops, untimed) -> None:
    """Spans and per-stage seconds of a traced run, for reading afterwards."""
    OUT.mkdir(exist_ok=True)
    document = {
        "workload": args.workload,
        "seed": args.seed,
        "traced_rounds_s": [s for s, _ in traced],
        "untraced_rounds_s": [s for s, _ in untraced],
        "ops": [{"fixture": f, "method": m, "seconds": op.seconds,
                 "lambda": op.lam,
                 "errors": op.errors + untimed.get((f, m), [])}
                for (f, m), op in ops.items()],
        "spans": [[s.name, s.start, s.end, s.parent] for s in recorder.spans],
    }
    path = OUT / f"{args.workload}-seed{args.seed}.json"
    path.write_text(json.dumps(document) + "\n")


def benchmark_spec() -> dict:
    return json.loads((HERE.parent / "BENCHMARK.json").read_text())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--fixtures", default=None,
                        help="comma-separated subset of the workload's fixtures")
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    wl = WORKLOADS[args.workload]
    if args.fixtures:
        keep = args.fixtures.split(",")
        unknown = set(keep) - set(wl.fixtures)
        if unknown:
            parser.error(f"fixtures not in {args.workload}: {sorted(unknown)}")
        wl = Workload(tuple(op for op in wl.ops if op[0] in keep),
                      tuple(f for f in wl.spectral if f in keep),
                      wl.reconstruct, wl.fit and len(keep) > 1)
    if args.setup_probe:
        setup_probe(wl)
        return 0

    spec = benchmark_spec()
    setup_s = None if args.trace else measure_setup(args.workload)
    program = import_program()
    integrals = program[0]

    import checks
    from spans import Recorder

    recorder = Recorder()
    if args.trace:
        recorder.install(trace_points(recorder, program))
    mols = {name: integrals.load_fcidump(fixture_path(name))
            for name in wl.fixtures}
    rounds = timed_rounds(wl, mols, program, args.seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    untraced = []
    if args.trace:
        recorder.uninstall()
        untraced = timed_rounds(wl, mols, program, 0.0, rounds=len(rounds))

    first = rounds[0][1]
    untimed = untimed_verdicts(first, program[2])
    attempted = failed = 0
    for _, ops in rounds + untraced:
        attempted += len(ops)
        failed += len(failed_ops(ops, untimed))
    problems = checks.check_workload(
        wl, first, [ops for _, ops in rounds + untraced], program,
        fixture_path, args.seed)

    for key, op in first.items():
        stages = " ".join(f"{k} {v:.3f}" for k, v in op.seconds.items())
        print(f"op {key[0]} {key[1]}: {stages}", file=sys.stderr)
    for key in failed_ops(first, untimed):
        reasons = first[key].errors + untimed.get(key, [])
        print(f"failed {key[0]} {key[1]}: {'; '.join(reasons)}", file=sys.stderr)
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)

    if args.trace:
        names = {m["name"]: m["unit"] for m in spec["per_layer"]}
        metrics = per_layer_metrics(names, recorder, rounds, untraced, first)
        write_trace(args, recorder, rounds, untraced, first, untimed)
    else:
        values = {
            "run_s": statistics.median(s for s, _ in rounds),
            "setup_s": setup_s,
            "peak_rss_mb": peak_rss_mb,
            "opt_lambda": math.fsum(op.lam for op in first.values()
                                    if op.lam is not None),
        }
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in spec["end_to_end"]}
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
