"""The scripts under scripts/: fingerprint_rows.py, the same-results check
that compares two checkouts row by row, still runs and prints what its
docstring lists; and generate_fixtures.py reproduces the shipped fixtures
as far as its docstring claims."""

import functools
import importlib.util
import json
import pathlib
import sys

import numpy as np
import pytest

from fermilcu.integrals import fixture_dir, load_fcidump, load_fixture
from fermilcu.majorana import build_majorana
from fermilcu.report import COSTED_METHODS, METHODS
from fermilcu.verify import spectral_range

SCRIPTS = pathlib.Path(__file__).resolve().parents[1] / "scripts"
ROW_KEYS = {"fixture", "method", "lambda", "constant", "fragments", "costs",
            "blocks", "metadata", "reflection_rows", "block_bytes",
            "verification"}
PAYLOAD_KEYS = {"deviation", "deviation_hex", "tolerance", "bound_ok",
                "lambda", "half_range", "verified"}


def load_script(name, monkeypatch):
    """A script under scripts/ as a module; the BLAS thread variables it
    pins at import and the path entry it adds are restored afterwards."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")
    monkeypatch.setattr(sys, "path", list(sys.path))
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def h2_spectrum():
    mol = load_fixture("h2")
    return mol, functools.cache(lambda: spectral_range(build_majorana(mol)))


@pytest.mark.parametrize("method", METHODS)
def test_fingerprint_row_is_json_with_documented_keys(method, monkeypatch,
                                                      h2_spectrum):
    fingerprint = load_script("fingerprint_rows", monkeypatch)
    mol, spectrum = h2_spectrum
    row = json.loads(fingerprint.to_json(
        fingerprint.row("h2", method, mol, spectrum)))
    assert set(row) == ROW_KEYS
    assert (row["fixture"], row["method"]) == ("h2", method)
    assert set(row["verification"]) == PAYLOAD_KEYS
    assert row["verification"]["verified"] is True
    for key in ("lambda", "constant"):
        assert np.isfinite(float.fromhex(row[key]))
    assert float.fromhex(row["lambda"]) == row["verification"]["lambda"]
    assert float.fromhex(row["verification"]["deviation_hex"]) == (
        row["verification"]["deviation"])
    assert (row["costs"] is not None) == (method in COSTED_METHODS)
    assert row["fragments"] >= 1 and row["block_bytes"] > 0
    assert all(len(row[key]) == 64 for key in ("blocks", "metadata"))


@pytest.fixture(scope="module")
def generator():
    spec = importlib.util.spec_from_file_location(
        "generate_fixtures", SCRIPTS / "generate_fixtures.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    jobs = dict(module.molecule_geometries())
    jobs.update((f"chain_h{n:02d}", module.chain_geometry(n))
                for n in (2, 4, 6))
    return module, jobs


def regenerate(generator, name, directory):
    module, jobs = generator
    atoms, nelec = jobs[name]
    t, eri_mo, enuc, _ = module.mo_tensors(atoms, nelec)
    path = directory / f"{name}.fcidump"
    module.write_fcidump(path, t, eri_mo, enuc, nelec)
    return path


@pytest.mark.parametrize("name", ["h2", "chain_h02"])
def test_regenerated_fixture_is_byte_identical(name, generator, tmp_path):
    path = regenerate(generator, name, tmp_path)
    assert path.read_bytes() == (fixture_dir() / f"{name}.fcidump").read_bytes()


@pytest.mark.parametrize("name", ["lih", "chain_h04", "chain_h06"])
def test_regenerated_fixture_matches_up_to_mo_signs(name, generator, tmp_path):
    # the MO coefficients come out of eigh with rounding that moves the
    # last digits, and the chains' mirror-symmetric MO columns tie in
    # canonicalize_mo_signs, so their signs may flip (chain_h04's do,
    # chain_h06's do not); the magnitudes and the core energy agree
    fresh = load_fcidump(regenerate(generator, name, tmp_path))
    shipped = load_fixture(name)
    assert fresh.core_energy == shipped.core_energy
    for got, want in ((fresh.one_body, shipped.one_body),
                      (fresh.two_body, shipped.two_body)):
        np.testing.assert_allclose(np.abs(got), np.abs(want), rtol=0,
                                   atol=1e-12)
