"""Generate the STO-3G FCIDUMP fixtures shipped with the package.

Minimal McMurchie-Davidson integral engine (s/p shells only) + restricted
Hartree-Fock with DIIS. Molecular-orbital integrals are exported in the
standard FCIDUMP interchange format. Run from the repository root:

    python3 scripts/generate_fixtures.py [outdir]

The shipped fixtures under src/fermilcu/fixtures/ were produced by this
script. Regeneration reproduces h2 and chain_h02 byte for byte; the other
integrals agree to about 1e-13 in magnitude, not always in sign. The last
digits move with the rounding of the linear algebra, and MO columns whose
largest-magnitude entries tie (chain_h04's mirror-symmetric orbitals) may
come out with the opposite sign from canonicalize_mo_signs, which flips the
sign of every integral they enter (tests/test_scripts.py pins this).
"""
import sys
import pathlib

import numpy as np
from scipy.special import hyp1f1

ANGSTROM = 1.8897259886  # bohr per angstrom

STO3G_1S = [0.15432897, 0.53532814, 0.44463454]
STO3G_2S = [-0.09996723, 0.39951283, 0.70011547]
STO3G_2P = [0.15591627, 0.60768372, 0.39195739]

# element -> (Z, [(l, exps, coefs), ...]); 2s/2p share exponents
BASIS = {
    "H": (1, [(0, [3.42525091, 0.62391373, 0.16885540], STO3G_1S)]),
    "Li": (3, [(0, [16.1195750, 2.9362007, 0.7946505], STO3G_1S),
               (0, [0.6362897, 0.1478601, 0.0480887], STO3G_2S),
               (1, [0.6362897, 0.1478601, 0.0480887], STO3G_2P)]),
    "Be": (4, [(0, [30.1678710, 5.4951153, 1.4871927], STO3G_1S),
               (0, [1.3148331, 0.3055389, 0.0993707], STO3G_2S),
               (1, [1.3148331, 0.3055389, 0.0993707], STO3G_2P)]),
    "N": (7, [(0, [99.1061690, 18.0523120, 4.8856602], STO3G_1S),
              (0, [3.7804559, 0.8784966, 0.2857144], STO3G_2S),
              (1, [3.7804559, 0.8784966, 0.2857144], STO3G_2P)]),
    "O": (8, [(0, [130.7093200, 23.8088610, 6.4436083], STO3G_1S),
              (0, [5.0331513, 1.1695961, 0.3803890], STO3G_2S),
              (1, [5.0331513, 1.1695961, 0.3803890], STO3G_2P)]),
}


def boys(n, x):
    return hyp1f1(n + 0.5, n + 1.5, -x) / (2.0 * n + 1.0)


def hermite_e(i, j, t, Q, a, b):
    """Hermite expansion coefficient E^{ij}_t for gaussians separated by Q."""
    p = a + b
    mu = a * b / p
    if t < 0 or t > i + j:
        return 0.0
    if i == j == t == 0:
        return np.exp(-mu * Q * Q)
    if j == 0:
        return (hermite_e(i - 1, j, t - 1, Q, a, b) / (2 * p)
                - (mu * Q / a) * hermite_e(i - 1, j, t, Q, a, b)
                + (t + 1) * hermite_e(i - 1, j, t + 1, Q, a, b))
    return (hermite_e(i, j - 1, t - 1, Q, a, b) / (2 * p)
            + (mu * Q / b) * hermite_e(i, j - 1, t, Q, a, b)
            + (t + 1) * hermite_e(i, j - 1, t + 1, Q, a, b))


def hermite_r(t, u, v, n, p, PC, memo):
    """Hermite Coulomb integral R^n_{tuv}."""
    key = (t, u, v, n)
    if key in memo:
        return memo[key]
    if t < 0 or u < 0 or v < 0:
        return 0.0
    if t == u == v == 0:
        r2 = PC[0] ** 2 + PC[1] ** 2 + PC[2] ** 2
        val = (-2.0 * p) ** n * boys(n, p * r2)
    elif t > 0:
        val = ((t - 1) * hermite_r(t - 2, u, v, n + 1, p, PC, memo)
               + PC[0] * hermite_r(t - 1, u, v, n + 1, p, PC, memo))
    elif u > 0:
        val = ((u - 1) * hermite_r(t, u - 2, v, n + 1, p, PC, memo)
               + PC[1] * hermite_r(t, u - 1, v, n + 1, p, PC, memo))
    else:
        val = ((v - 1) * hermite_r(t, u, v - 2, n + 1, p, PC, memo)
               + PC[2] * hermite_r(t, u, v - 1, n + 1, p, PC, memo))
    memo[key] = val
    return val


def prim_norm(a, lx, ly, lz):
    def df(n):  # (2n-1)!!
        out = 1
        for k in range(2 * n - 1, 0, -2):
            out *= k
        return out
    l = lx + ly + lz
    return (2 * a / np.pi) ** 0.75 * (4 * a) ** (l / 2) / np.sqrt(df(lx) * df(ly) * df(lz))


def overlap_prim(a, la, A, b, lb, B):
    p = a + b
    out = (np.pi / p) ** 1.5
    for d in range(3):
        out *= hermite_e(la[d], lb[d], 0, A[d] - B[d], a, b)
    return out


class BF:
    """Contracted cartesian gaussian."""

    def __init__(self, center, lmn, exps, coefs):
        self.center = np.asarray(center, float)
        self.lmn = lmn
        self.exps = np.asarray(exps, float)
        raw = np.asarray(coefs, float) * np.array([prim_norm(a, *lmn) for a in exps])
        s = 0.0
        for a, ca in zip(exps, raw):
            for b, cb in zip(exps, raw):
                s += ca * cb * overlap_prim(a, lmn, self.center, b, lmn, self.center)
        self.coefs = raw / np.sqrt(s)


def overlap_1d(i, j, Qd, a, b):
    p = a + b
    return hermite_e(i, j, 0, Qd, a, b) * np.sqrt(np.pi / p)


def kinetic_prim(a, la, A, b, lb, B):
    # 3D kinetic = per-dimension 1D kinetic times the two remaining overlaps
    Q = [A[d] - B[d] for d in range(3)]
    s = [overlap_1d(la[d], lb[d], Q[d], a, b) for d in range(3)]
    t1 = []
    for d in range(3):
        j = lb[d]
        term = -2.0 * b * b * overlap_1d(la[d], j + 2, Q[d], a, b)
        term += b * (2 * j + 1) * s[d]
        if j >= 2:
            term -= 0.5 * j * (j - 1) * overlap_1d(la[d], j - 2, Q[d], a, b)
        t1.append(term)
    return t1[0] * s[1] * s[2] + s[0] * t1[1] * s[2] + s[0] * s[1] * t1[2]


def nuclear_prim(a, la, A, b, lb, B, Cc):
    p = a + b
    P = (a * A + b * B) / p
    PC = P - Cc
    memo = {}
    val = 0.0
    for t in range(la[0] + lb[0] + 1):
        Et = hermite_e(la[0], lb[0], t, A[0] - B[0], a, b)
        if Et == 0.0:
            continue
        for u in range(la[1] + lb[1] + 1):
            Eu = hermite_e(la[1], lb[1], u, A[1] - B[1], a, b)
            if Eu == 0.0:
                continue
            for v in range(la[2] + lb[2] + 1):
                Ev = hermite_e(la[2], lb[2], v, A[2] - B[2], a, b)
                if Ev == 0.0:
                    continue
                val += Et * Eu * Ev * hermite_r(t, u, v, 0, p, PC, memo)
    return 2.0 * np.pi / p * val


def eri_prim(a, la, A, b, lb, B, c, lc, Cc, d, ld, D):
    p = a + b
    q = c + d
    P = (a * A + b * B) / p
    Q = (c * Cc + d * D) / q
    alpha = p * q / (p + q)
    PQ = P - Q
    memo = {}
    val = 0.0
    for t in range(la[0] + lb[0] + 1):
        E1t = hermite_e(la[0], lb[0], t, A[0] - B[0], a, b)
        if E1t == 0.0:
            continue
        for u in range(la[1] + lb[1] + 1):
            E1u = hermite_e(la[1], lb[1], u, A[1] - B[1], a, b)
            if E1u == 0.0:
                continue
            for v in range(la[2] + lb[2] + 1):
                E1v = hermite_e(la[2], lb[2], v, A[2] - B[2], a, b)
                if E1v == 0.0:
                    continue
                for tt in range(lc[0] + ld[0] + 1):
                    E2t = hermite_e(lc[0], ld[0], tt, Cc[0] - D[0], c, d)
                    if E2t == 0.0:
                        continue
                    for uu in range(lc[1] + ld[1] + 1):
                        E2u = hermite_e(lc[1], ld[1], uu, Cc[1] - D[1], c, d)
                        if E2u == 0.0:
                            continue
                        for vv in range(lc[2] + ld[2] + 1):
                            E2v = hermite_e(lc[2], ld[2], vv, Cc[2] - D[2], c, d)
                            if E2v == 0.0:
                                continue
                            sign = (-1.0) ** (tt + uu + vv)
                            val += (E1t * E1u * E1v * E2t * E2u * E2v * sign
                                    * hermite_r(t + tt, u + uu, v + vv, 0, alpha, PQ, memo))
    return 2.0 * np.pi ** 2.5 / (p * q * np.sqrt(p + q)) * val


def build_basis(atoms):
    bfs = []
    charges = []
    centers = []
    for el, xyz in atoms:
        Z, shells = BASIS[el]
        charges.append(Z)
        centers.append(np.asarray(xyz, float))
        for l, exps, coefs in shells:
            if l == 0:
                bfs.append(BF(xyz, (0, 0, 0), exps, coefs))
            else:
                for lmn in [(1, 0, 0), (0, 1, 0), (0, 0, 1)]:
                    bfs.append(BF(xyz, lmn, exps, coefs))
    return bfs, charges, centers


def contracted(op, b1, b2, *extra):
    val = 0.0
    for a, ca in zip(b1.exps, b1.coefs):
        for b, cb in zip(b2.exps, b2.coefs):
            val += ca * cb * op(a, b1.lmn, b1.center, b, b2.lmn, b2.center, *extra)
    return val


def integrals(atoms):
    """AO integrals: overlap, core hamiltonian, (ij|kl) tensor, nuclear repulsion."""
    bfs, charges, centers = build_basis(atoms)
    n = len(bfs)
    S = np.zeros((n, n))
    T = np.zeros((n, n))
    V = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1):
            S[i, j] = S[j, i] = contracted(overlap_prim, bfs[i], bfs[j])
            T[i, j] = T[j, i] = contracted(kinetic_prim, bfs[i], bfs[j])
            v = 0.0
            for Z, Cc in zip(charges, centers):
                v -= Z * contracted(nuclear_prim, bfs[i], bfs[j], Cc)
            V[i, j] = V[j, i] = v
    eri = np.zeros((n, n, n, n))
    pairs = [(i, j) for i in range(n) for j in range(i + 1)]
    for pi, (i, j) in enumerate(pairs):
        for k, l in pairs[:pi + 1]:
            val = 0.0
            for a, ca in zip(bfs[i].exps, bfs[i].coefs):
                for b, cb in zip(bfs[j].exps, bfs[j].coefs):
                    for c, cg in zip(bfs[k].exps, bfs[k].coefs):
                        for d, cd in zip(bfs[l].exps, bfs[l].coefs):
                            val += ca * cb * cg * cd * eri_prim(
                                a, bfs[i].lmn, bfs[i].center, b, bfs[j].lmn, bfs[j].center,
                                c, bfs[k].lmn, bfs[k].center, d, bfs[l].lmn, bfs[l].center)
            for (x, y) in ((i, j), (j, i)):
                for (z, w) in ((k, l), (l, k)):
                    eri[x, y, z, w] = eri[z, w, x, y] = val
    enuc = 0.0
    for i in range(len(charges)):
        for j in range(i):
            enuc += charges[i] * charges[j] / np.linalg.norm(centers[i] - centers[j])
    return S, T + V, eri, enuc


def rhf(S, hcore, eri, enuc, nelec, maxiter=200, tol=1e-11):
    """Closed-shell SCF with DIIS. Returns (total energy, MO coefficients)."""
    n = S.shape[0]
    nocc = nelec // 2
    es, U = np.linalg.eigh(S)
    X = U @ np.diag(es ** -0.5) @ U.T
    D = np.zeros((n, n))
    fock_list, err_list = [], []
    E_old = 0.0
    C = X
    for it in range(maxiter):
        J = np.einsum("pqrs,rs->pq", eri, D)
        K = np.einsum("prqs,rs->pq", eri, D)
        F = hcore + 2 * J - K
        err = X.T @ (F @ D @ S - S @ D @ F) @ X
        fock_list.append(F)
        err_list.append(err)
        if len(fock_list) > 8:
            fock_list.pop(0)
            err_list.pop(0)
        if len(fock_list) > 1:
            m = len(fock_list)
            Bm = -np.ones((m + 1, m + 1))
            Bm[m, m] = 0.0
            for p in range(m):
                for q in range(m):
                    Bm[p, q] = np.sum(err_list[p] * err_list[q])
            rhs = np.zeros(m + 1)
            rhs[m] = -1.0
            try:
                w = np.linalg.solve(Bm, rhs)[:m]
                F = sum(wi * Fi for wi, Fi in zip(w, fock_list))
            except np.linalg.LinAlgError:
                pass
        e_mo, Cp = np.linalg.eigh(X.T @ F @ X)
        C = X @ Cp
        D = C[:, :nocc] @ C[:, :nocc].T
        E = float(np.einsum("pq,pq->", D, 2 * hcore + 2 * J - K))
        if abs(E - E_old) < tol and it > 2:
            break
        E_old = E
    return E + enuc, C


def canonicalize_mo_signs(C):
    """Fix each column's sign so its largest-magnitude entry is positive."""
    C = C.copy()
    for j in range(C.shape[1]):
        k = int(np.argmax(np.abs(C[:, j])))
        if C[k, j] < 0:
            C[:, j] = -C[:, j]
    return C


def mo_tensors(atoms, nelec):
    S, hcore, eri, enuc = integrals(atoms)
    E, C = rhf(S, hcore, eri, enuc, nelec)
    C = canonicalize_mo_signs(C)
    t = C.T @ hcore @ C
    eri_mo = np.einsum("pqrs,pi,qj,rk,sl->ijkl", eri, C, C, C, C, optimize=True)
    return t, eri_mo, enuc, E


def write_fcidump(path, t, eri_mo, enuc, nelec, thresh=1e-14):
    """Standard FCIDUMP: unique (ij|kl) under 8-fold symmetry, then h, then core."""
    n = t.shape[0]
    lines = []
    orbsym = ",".join(["1"] * n)
    lines.append(f"&FCI NORB={n},NELEC={nelec},MS2=0,")
    lines.append(f" ORBSYM={orbsym},")
    lines.append(" ISYM=1,")
    lines.append("&END")
    for i in range(1, n + 1):
        for j in range(1, i + 1):
            for k in range(1, i + 1):
                lmax = j if k == i else k
                for l in range(1, lmax + 1):
                    v = eri_mo[i - 1, j - 1, k - 1, l - 1]
                    if abs(v) > thresh:
                        lines.append(f"{v:23.16E} {i:4d} {j:4d} {k:4d} {l:4d}")
    for i in range(1, n + 1):
        for j in range(1, i + 1):
            v = t[i - 1, j - 1]
            if abs(v) > thresh:
                lines.append(f"{v:23.16E} {i:4d} {j:4d}    0    0")
    lines.append(f"{enuc:23.16E}    0    0    0    0")
    pathlib.Path(path).write_text("\n".join(lines) + "\n")


def molecule_geometries():
    """The benchmark set: bond lengths in angstrom."""
    geoms = {}
    geoms["h2"] = ([("H", (0, 0, 0)), ("H", (0, 0, 0.741 * ANGSTROM))], 2)
    geoms["lih"] = ([("Li", (0, 0, 0)), ("H", (0, 0, 1.595 * ANGSTROM))], 4)
    geoms["beh2"] = ([("H", (0, 0, -1.326 * ANGSTROM)),
                      ("Be", (0, 0, 0)),
                      ("H", (0, 0, 1.326 * ANGSTROM))], 6)
    r = 0.958 * ANGSTROM
    half = np.deg2rad(107.6) / 2
    geoms["h2o"] = ([("O", (0, 0, 0)),
                     ("H", (r * np.sin(half), 0, r * np.cos(half))),
                     ("H", (-r * np.sin(half), 0, r * np.cos(half)))], 10)
    return geoms


def chain_geometry(n_atoms, spacing_angstrom=1.4):
    atoms = [("H", (0, 0, k * spacing_angstrom * ANGSTROM)) for k in range(n_atoms)]
    return atoms, n_atoms


def main(outdir):
    outdir = pathlib.Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    jobs = dict(molecule_geometries())
    # closed-shell hydrogen chains for the scaling study
    for n in (2, 4, 6, 8, 10):
        jobs[f"chain_h{n:02d}"] = chain_geometry(n)
    for name, (atoms, nelec) in jobs.items():
        t, eri_mo, enuc, E = mo_tensors(atoms, nelec)
        path = outdir / f"{name}.fcidump"
        write_fcidump(path, t, eri_mo, enuc, nelec)
        print(f"{name:10s} norb={t.shape[0]:2d} nelec={nelec:2d} E_HF={E:.6f} -> {path}")


if __name__ == "__main__":
    main(sys.argv[1] if len(sys.argv) > 1 else "src/fermilcu/fixtures")
