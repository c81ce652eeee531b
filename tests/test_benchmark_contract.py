"""The benchmark's contract with the package: every module attribute that
perfbench/run.py wraps when tracing must exist, every trace hook must read
the real result of the call it wraps, and a short untraced run of each
workload must come out correct with no failed operation. All only read
perfbench/."""

import importlib.util
import json
import math
import pathlib
import subprocess
import sys

import pytest

from fermilcu import integrals, report, verify

RUN = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "run.py"


@pytest.fixture
def trace_points(monkeypatch):
    # run.py pins the BLAS thread variables when imported; restore them after
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")
    spec = importlib.util.spec_from_file_location("perfbench_run", RUN)
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    return run.trace_points(None, (integrals, report, verify))


def test_trace_points_exist(trace_points):
    missing = [f"{module.__name__}.{attr}" for module, attr, *_ in trace_points
               if not callable(getattr(module, attr, None))]
    assert trace_points and not missing


class Counts:
    """The recorder's counting interface, as the hooks call it."""

    def __init__(self):
        self.counts = {}

    def count(self, name, amount):
        self.counts[name] = self.counts.get(name, 0) + amount


def test_trace_hooks_read_real_results(trace_points, monkeypatch):
    # capture the first result and arguments of every hooked attribute while
    # h2 runs through the methods that reach them, then feed them to the hooks
    hooked = [(module, attr, on_result)
              for module, attr, _, on_result in trace_points if on_result]
    calls = {}
    for module, attr, _ in hooked:
        def capture(*args, _func=getattr(module, attr), _attr=attr, **kwargs):
            result = _func(*args, **kwargs)
            calls.setdefault(_attr, (result, args))
            return result
        monkeypatch.setattr(module, attr, capture)
    mol = integrals.load_fixture("h2")
    for method in ("oo-pauli", "ac", "csa", "l4-cp4"):
        maj, lcu = report.decompose_method(mol, method, oo_budget=20,
                                           oo_restarts=1)
    verify.verify_reconstruction(lcu, maj)
    verify.spectral_range(maj)
    assert sorted(calls) == sorted(attr for _, attr, _ in hooked)
    for _, attr, on_result in hooked:
        result, args = calls[attr]
        recorder = Counts()
        on_result(recorder, result, args, 0)
        assert recorder.counts, attr
        assert all(math.isfinite(v) for v in recorder.counts.values()), attr


# together the three runs reach every method that assembles rotated
# reflections: sf, df and l4-svd; df and l4-mps; csa and l4-cp4
@pytest.mark.parametrize("workload, fixtures", [
    ("verify-molecules", "h2"),
    ("chain-scaling", "chain_h02,chain_h04"),
    ("optimizers", "h2"),
], ids=["verify-molecules", "chain-scaling", "optimizers"])
def test_short_run_is_correct(workload, fixtures):
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload,
         "--fixtures", fixtures, "--seconds", "0.1", "--trace", "0"],
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, proc.stderr[-2000:]
    assert result["attempted"] >= 1 and result["failed"] == 0
