"""Self-check of the benchmark harness on the h2 fixture alone.

    python3 perfbench/selfcheck.py

Runs verify-molecules and optimizers restricted to h2, untraced and traced,
and asserts that each prints, as its last line, the attempted and failed
operation counts, "correct": true, and every metric that BENCHMARK.json
names for that mode, each with its unit. Takes about 20 s.
"""
import json
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def run(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", str(trace),
         "--fixtures", "h2"],
        capture_output=True, text=True, timeout=170, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check(result: dict, expected: list, label: str) -> None:
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise SystemExit(f"{label}: keys {sorted(result)}")
    if not (isinstance(result["attempted"], int) and result["attempted"] >= 1
            and isinstance(result["failed"], int)
            and 0 <= result["failed"] <= result["attempted"]):
        raise SystemExit(f"{label}: attempted {result['attempted']!r}, "
                         f"failed {result['failed']!r}")
    if result["correct"] is not True:
        raise SystemExit(f"{label}: correct is {result['correct']!r}")
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    wanted = {m["name"]: m["unit"] for m in expected}
    if printed != wanted:
        raise SystemExit(f"{label}: metrics {printed} differ from {wanted}")
    for name, metric in result["metrics"].items():
        if not isinstance(metric["value"], (int, float)):
            raise SystemExit(f"{label}: {name} has value {metric['value']!r}")


def main() -> int:
    for workload in ("verify-molecules", "optimizers"):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            label = f"{workload} --trace {trace}"
            result = run(workload, trace)
            check(result, SPEC[key], label)
            print(f"ok {label}: attempted {result['attempted']}, "
                  f"failed {result['failed']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
