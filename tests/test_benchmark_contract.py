"""The benchmark's contract with the package: every module attribute that
perfbench/run.py wraps when tracing must exist, and a short untraced run of
one workload must come out correct with no failed operation. Both only read
perfbench/."""

import importlib.util
import json
import pathlib
import subprocess
import sys

from fermilcu import integrals, report, verify

RUN = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "run.py"


def test_trace_points_exist(monkeypatch):
    # run.py pins the BLAS thread variables when imported; restore them after
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")
    spec = importlib.util.spec_from_file_location("perfbench_run", RUN)
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    points = run.trace_points(None, (integrals, report, verify))
    missing = [f"{module.__name__}.{attr}" for module, attr, *_ in points
               if not callable(getattr(module, attr, None))]
    assert points and not missing


def test_short_verify_molecules_run_is_correct():
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", "verify-molecules",
         "--fixtures", "h2", "--seconds", "0.1", "--trace", "0"],
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, proc.stderr[-2000:]
    assert result["attempted"] >= 1 and result["failed"] == 0
