"""FCIDUMP parsing and the molecular-integral container. The package only
reads FCIDUMP files; the tests write them for round trips.

The file convention stores two-electron integrals as (ij|kl) in chemists'
notation. Internally we work with the halved tensor g = (ij|kl)/2 and the
effective one-body matrix h = t - sum_k g_ikkj, where t is the file's core
one-body entry.
"""
from __future__ import annotations

import os
import pathlib
from dataclasses import dataclass

import numpy as np

SYMMETRY_TOL = 1e-10


class FcidumpError(ValueError):
    """Malformed FCIDUMP content."""


@dataclass(frozen=True)
class RawIntegrals:
    """Integrals exactly as read from the file: (ij|kl) and core t_ij."""
    norb: int
    nelec: int
    constant: float
    t: np.ndarray        # core one-body entries
    eri: np.ndarray      # (ij|kl), 8-fold symmetrized


@dataclass(frozen=True)
class MolecularIntegrals:
    """Hamiltonian tensors in the working convention.

    two_body is g_ijkl = (ij|kl)/2 and one_body is h_ij = t_ij - sum_k g_ikkj;
    both real, in Hartree. core_energy carries the scalar constant through.
    """
    n_orbitals: int
    core_energy: float
    one_body: np.ndarray
    two_body: np.ndarray

    def __post_init__(self):
        h, g = self.one_body, self.two_body
        n = self.n_orbitals
        if h.shape != (n, n) or g.shape != (n, n, n, n):
            raise ValueError("tensor shapes inconsistent with n_orbitals")
        if not all(np.isfinite(x).all() for x in (self.core_energy, h, g)):
            raise ValueError("non-finite core energy or tensor entries")
        if np.abs(h - h.T).max() > SYMMETRY_TOL:
            raise ValueError("one_body not symmetric")
        for perm in ((1, 0, 2, 3), (0, 1, 3, 2), (2, 3, 0, 1)):
            if np.abs(g - g.transpose(perm)).max() > SYMMETRY_TOL:
                raise ValueError("two_body lacks 8-fold symmetry")


def _parse_header(lines):
    """Read &FCI ... &END, returning (header dict, index of first data line)."""
    header_text = []
    end = None
    for idx, line in enumerate(lines):
        header_text.append(line)
        if "&END" in line.upper() or "/" in line:
            end = idx
            break
    if end is None:
        raise FcidumpError("FCIDUMP header has no &END terminator")
    blob = " ".join(header_text)
    blob = blob.replace("&FCI", " ").replace("&fci", " ")
    blob = blob.replace("&END", " ").replace("&end", " ").replace("/", " ")
    fields = {}
    for chunk in blob.replace("\n", " ").split(","):
        if "=" not in chunk:
            continue
        key, _, val = chunk.partition("=")
        fields[key.strip().upper()] = val.strip()
    for required in ("NORB", "NELEC"):
        if required not in fields:
            raise FcidumpError(f"FCIDUMP header missing {required}")
    try:
        norb = int(fields["NORB"])
        nelec = int(fields["NELEC"])
    except ValueError as exc:
        raise FcidumpError(f"non-integer header field: {exc}") from exc
    if norb <= 0:
        raise FcidumpError("NORB must be positive")
    return norb, nelec, end + 1


def parse_fcidump(text: str) -> RawIntegrals:
    """Parse FCIDUMP text into raw (ij|kl) / t_ij / constant records.

    Indices are 1-based in the file; a line with i=j=k=l=0 holds the scalar
    constant and k=l=0 marks one-body entries. A line 'e i 0 0 0' gives
    the energy of orbital i (Knowles and Handy, Comput. Phys. Commun. 54,
    75, 1989), as Molpro writes it; it is not part of H and is skipped.
    Other records mixing zero and nonzero indices are rejected. Unspecified
    entries are zero; the stated permutational symmetry is applied on
    expansion.
    """
    lines = text.splitlines()
    norb, nelec, start = _parse_header(lines)
    t = np.zeros((norb, norb))
    eri = np.zeros((norb, norb, norb, norb))
    constant = 0.0
    for lineno, line in enumerate(lines[start:], start=start + 1):
        stripped = line.strip()
        if not stripped:
            continue
        parts = stripped.split()
        if len(parts) != 5:
            raise FcidumpError(f"line {lineno}: expected 'value i j k l'")
        try:
            value = float(parts[0].replace("D", "E").replace("d", "e"))
            i, j, k, l = (int(p) for p in parts[1:])
        except ValueError:
            raise FcidumpError(f"line {lineno}: non-numeric entry")
        for name, idx in (("i", i), ("j", j), ("k", k), ("l", l)):
            if idx < 0 or idx > norb:
                raise FcidumpError(
                    f"line {lineno}: index {name}={idx} out of [0, {norb}]")
        if i == j == k == l == 0:
            constant = value
        elif k == 0 and l == 0:
            if j == 0:
                # orbital i's energy, not a term of H
                continue
            if i == 0:
                raise FcidumpError(f"line {lineno}: one-body entry with zero index")
            t[i - 1, j - 1] = value
            t[j - 1, i - 1] = value
        elif k == 0 or l == 0 or i == 0 or j == 0:
            raise FcidumpError(f"line {lineno}: mixed zero/nonzero indices")
        else:
            a, b, c, d = i - 1, j - 1, k - 1, l - 1
            for (x, y) in ((a, b), (b, a)):
                for (z, w) in ((c, d), (d, c)):
                    eri[x, y, z, w] = value
                    eri[z, w, x, y] = value
    return RawIntegrals(norb=norb, nelec=nelec, constant=constant, t=t, eri=eri)


def to_paper_convention(raw: RawIntegrals) -> MolecularIntegrals:
    """Map file integrals to the working tensors: g = (ij|kl)/2, h = t - fold."""
    g = 0.5 * raw.eri
    h = raw.t - np.einsum("ikkj->ij", g)
    return MolecularIntegrals(
        n_orbitals=raw.norb,
        core_energy=raw.constant,
        one_body=h,
        two_body=g,
    )


def load_fcidump(path) -> MolecularIntegrals:
    raw = parse_fcidump(pathlib.Path(path).read_text())
    return to_paper_convention(raw)


def fixture_dir() -> pathlib.Path:
    """Directory holding the shipped FCIDUMP fixtures.

    Overridable through the FERMILCU_FIXTURE_DIR environment variable.
    """
    env = os.environ.get("FERMILCU_FIXTURE_DIR")
    if env:
        return pathlib.Path(env)
    return pathlib.Path(__file__).parent / "fixtures"


def load_fixture(name: str) -> MolecularIntegrals:
    """Load a shipped fixture by short name, e.g. 'h2' or 'chain_h06'."""
    path = fixture_dir() / f"{name}.fcidump"
    if not path.exists():
        raise FileNotFoundError(f"no fixture named {name!r} under {path.parent}")
    return load_fcidump(path)
