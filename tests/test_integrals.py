import numpy as np
import pytest

from fermilcu.integrals import (
    FcidumpError,
    fixture_dir,
    load_fixture,
    parse_fcidump,
    to_paper_convention,
)
from reference import emit_fcidump

# Nuclear repulsion energies implied by the fixture geometries.
ENUC = {
    "h2": 0.714139337374,
    "lih": 0.995317709707,
    "beh2": 3.392161852526,
    "h2o": 9.180291287980,
}

NORB = {"h2": 2, "lih": 6, "beh2": 7, "h2o": 7}
NELEC = {"h2": 2, "lih": 4, "beh2": 6, "h2o": 10}


def fixture_text(name):
    return (fixture_dir() / f"{name}.fcidump").read_text()


@pytest.mark.parametrize("name", sorted(ENUC))
def test_fixture_headers(name):
    raw = parse_fcidump(fixture_text(name))
    assert raw.norb == NORB[name]
    assert raw.nelec == NELEC[name]
    assert raw.constant == pytest.approx(ENUC[name], abs=1e-9)


def test_h2_integral_values():
    raw = parse_fcidump(fixture_text("h2"))
    assert raw.t[0, 0] == pytest.approx(-1.252705292190, abs=1e-9)
    mol = to_paper_convention(raw)
    assert mol.two_body[0, 0, 0, 0] == pytest.approx(0.337282553444, abs=1e-9)
    # g carries the 1/2 from the double-counting convention
    assert mol.two_body[0, 0, 0, 0] == pytest.approx(raw.eri[0, 0, 0, 0] / 2)


def test_paper_convention_one_body_shift():
    raw = parse_fcidump(fixture_text("h2"))
    mol = to_paper_convention(raw)
    g = raw.eri / 2.0
    expected = raw.t - np.einsum("ikkj->ij", g)
    np.testing.assert_allclose(mol.one_body, expected, atol=1e-14)


def test_eight_fold_symmetry_of_fixture():
    g = load_fixture("h2o").two_body
    for perm in [(1, 0, 2, 3), (0, 1, 3, 2), (2, 3, 0, 1), (3, 2, 1, 0)]:
        np.testing.assert_allclose(g, g.transpose(perm), atol=1e-10)


@pytest.mark.parametrize("name", sorted(ENUC))
def test_round_trip(name):
    mol = load_fixture(name)
    text = emit_fcidump(mol, nelec=NELEC[name])
    again_raw = parse_fcidump(text)
    assert again_raw.norb == mol.n_orbitals
    assert again_raw.nelec == NELEC[name]
    again = to_paper_convention(again_raw)
    assert again.core_energy == pytest.approx(mol.core_energy, abs=1e-12)
    np.testing.assert_allclose(again.one_body, mol.one_body, atol=1e-12)
    np.testing.assert_allclose(again.two_body, mol.two_body, atol=1e-12)


def test_parse_rejects_out_of_range_index():
    text = (
        "&FCI NORB=2,NELEC=2,MS2=0,\n&END\n"
        "1.0 1 1 1 1\n"
        "0.5 3 1 1 1\n"
    )
    with pytest.raises(FcidumpError) as err:
        parse_fcidump(text)
    assert "line 4" in str(err.value)


def test_orbital_energy_records_are_skipped():
    # 'e i 0 0 0' records, as Molpro writes them between the one-body
    # entries and the core energy, leave the integrals as they are
    text = emit_fcidump(load_fixture("lih"), nelec=NELEC["lih"])
    *body, core = text.rstrip("\n").split("\n")
    energies = [f"{-2.5 + 0.4 * i:.16e} {i} 0 0 0" for i in range(1, 7)]
    with_energies = parse_fcidump("\n".join(body + energies + [core]) + "\n")
    plain = parse_fcidump(text)
    assert with_energies.constant == plain.constant
    np.testing.assert_array_equal(with_energies.t, plain.t)
    np.testing.assert_array_equal(with_energies.eri, plain.eri)


@pytest.mark.parametrize("record", [
    "0.5 0 1 0 0", "0.5 1 0 1 1", "0.5 1 1 0 1", "0.5 1 1 1 0", "0.5 0 0 1 1"])
def test_parse_rejects_mixed_zero_indices(record):
    with pytest.raises(FcidumpError, match="line 3: .*zero"):
        parse_fcidump(f"&FCI NORB=1,NELEC=2,\n&END\n{record}\n")


def test_parse_rejects_malformed_line():
    with pytest.raises(FcidumpError) as err:
        parse_fcidump("&FCI NORB=2,NELEC=2,\n&END\n1.0 1 1 1\n")
    assert "line 3" in str(err.value)


def test_parse_requires_header_fields():
    with pytest.raises(FcidumpError):
        parse_fcidump("&FCI NELEC=2,\n&END\n")


# one orbital: the two-body, one-body and core records, in that order
ONE_ORBITAL_RECORDS = ("0.15 1 1 1 1", "-2.0 1 1 0 0", "3.25 0 0 0 0")


def one_orbital_fcidump(record, value):
    """One-orbital FCIDUMP text with the value of one record replaced."""
    records = list(ONE_ORBITAL_RECORDS)
    records[record] = f"{value} " + records[record].split(maxsplit=1)[1]
    return "&FCI NORB=1,NELEC=2,MS2=0,\n&END\n" + "\n".join(records) + "\n"


@pytest.mark.parametrize("value", ["nan", "inf"])
@pytest.mark.parametrize("record", [0, 1, 2], ids=["two-body", "one-body", "core"])
def test_non_finite_record_rejected(record, value):
    raw = parse_fcidump(one_orbital_fcidump(record, value))
    with pytest.raises(ValueError, match="non-finite"):
        to_paper_convention(raw)


def test_fortran_exponent_accepted():
    raw = parse_fcidump(
        "&FCI NORB=1,NELEC=2,MS2=0,\n&END\n"
        "1.5D-01 1 1 1 1\n"
        "-2.0D+00 1 1 0 0\n"
        "3.25D0 0 0 0 0\n"
    )
    assert raw.eri[0, 0, 0, 0] == pytest.approx(0.15)
    assert raw.t[0, 0] == pytest.approx(-2.0)
    assert raw.constant == pytest.approx(3.25)


def test_fixture_dir_env_override(tmp_path, monkeypatch):
    monkeypatch.setenv("FERMILCU_FIXTURE_DIR", str(tmp_path))
    assert fixture_dir() == tmp_path
    monkeypatch.delenv("FERMILCU_FIXTURE_DIR")
    assert (fixture_dir() / "h2.fcidump").exists()
