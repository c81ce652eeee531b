"""Print one JSON line per (fixture, method) row: a fingerprint of every
result a run reports, to compare two checkouts by diffing their output.

Run from the repository root:

    python3 scripts/fingerprint_rows.py > rows.jsonl

Every shipped fixture runs every method, the oo-* methods with an
orbital-optimization budget of 200 evaluations and 1 restart, at one BLAS
thread. A row holds lambda and the constant as float.hex, the fragment
count, the cost report of a costed method, the verification payload with
its deviation also as float.hex, a SHA-256 over every block's kind and
arrays, a SHA-256 of the LCU's metadata as JSON with sorted keys
(metadata), the rows stored over all reflection blocks (reflection_rows)
and the bytes of every block array (block_bytes). The spectral range is
taken once per fixture.
"""
import os

# One BLAS thread, set before numpy loads, so sums come out the same on any
# machine load.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import dataclasses  # noqa: E402
import functools  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import pathlib  # noqa: E402
import sys  # noqa: E402

import numpy as np  # noqa: E402

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from fermilcu.integrals import fixture_dir, load_fixture  # noqa: E402
from fermilcu.majorana import build_majorana  # noqa: E402
from fermilcu.report import (  # noqa: E402
    COSTED_METHODS,
    METHODS,
    costs_for,
    decompose_method,
    verification_payload,
)
from fermilcu.verify import spectral_range  # noqa: E402

OO_OPTIONS = {"oo_budget": 200, "oo_restarts": 1}


def field_values(block):
    """A block's field values in field order, tuples of arrays unpacked."""
    for item in dataclasses.fields(block):
        value = getattr(block, item.name)
        yield from value if isinstance(value, tuple) else (value,)


def block_hash(blocks) -> str:
    """SHA-256 over each block's kind and its fields: arrays by dtype,
    shape and bytes, other values by repr."""
    digest = hashlib.sha256()
    for block in blocks:
        digest.update(block.kind.encode())
        for array in field_values(block):
            if isinstance(array, np.ndarray):
                digest.update(f"{array.dtype}{array.shape}".encode())
                digest.update(np.ascontiguousarray(array).tobytes())
            else:
                digest.update(repr(array).encode())
    return digest.hexdigest()


def to_json(value) -> str:
    """value as JSON with sorted keys, numpy values as plain lists."""
    return json.dumps(value, sort_keys=True, default=lambda v: v.tolist())


def row(name, method, mol, spectrum) -> dict:
    options = OO_OPTIONS if method.startswith("oo-") else {}
    maj, lcu = decompose_method(mol, method, **options)
    out = {
        "fixture": name,
        "method": method,
        "lambda": float(lcu.one_norm).hex(),
        "constant": float(lcu.constant).hex(),
        "fragments": len(lcu.fragments),
        "costs": None,
        "blocks": block_hash(lcu.blocks),
        "metadata": hashlib.sha256(to_json(lcu.metadata).encode()).hexdigest(),
        "reflection_rows": sum(block.weights.size for block in lcu.blocks
                               if block.kind == "reflection-product"),
        "block_bytes": sum(value.nbytes for block in lcu.blocks
                           for value in field_values(block)
                           if isinstance(value, np.ndarray)),
    }
    if method in COSTED_METHODS:
        out["costs"] = dataclasses.asdict(costs_for(lcu, maj))
    payload = verification_payload(lcu, maj, spectrum)
    payload["deviation_hex"] = payload["deviation"].hex()
    out["verification"] = payload
    return out


def main() -> int:
    names = sorted(path.stem for path in fixture_dir().glob("*.fcidump"))
    for name in names:
        mol = load_fixture(name)
        spectrum = functools.cache(lambda: spectral_range(build_majorana(mol)))
        for method in METHODS:
            print(to_json(row(name, method, mol, spectrum)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
