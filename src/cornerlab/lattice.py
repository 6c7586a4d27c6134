"""Driven 2D p_x + i p_y superconductor with dimerized y-couplings.

Builds the time-periodic Bogoliubov-de Gennes (BdG) matrix of the lattice
model in real space and momentum space, the decoupled 1D chain limit,
the x-mirror antiunitary that makes every real-space harmonic real, and
the (anti)unitary symmetry checks.

Conventions
-----------
* Lattice is 2*Nx x 2*Ny sites, spacing 1. Row index j runs 1..2*Ny
  (1-based, as in the model definition); couplings alternate with
  (-1)**j between odd and even rows.
* Basis ordering of the BdG matrix: site-major with x fastest, then y;
  Nambu (particle, hole) innermost. Flat index = 2*(y*2*Nx + x) + nambu.
* H(t) = (1/2) Psi^dag h_BdG(t) Psi with Psi = (..., c_a, c_a^dag, ...),
  so the number term mu_j(t) c^dag c (after adding h.c. to mu_j/2 c^dag c)
  appears on the BdG diagonal with weight +/- mu_j(t).  The cosine drive
  therefore populates the m = +/-1 Fourier harmonics with weight
  (mu1 +/- dmu1)/2 each.
* Momentum space: 4x4 blocks, sublattice (sigma) outer, Nambu (eta)
  inner, so operators read as kron(sigma_i, eta_j).
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import Iterable

import numpy as np

TWO_PI = 2.0 * np.pi

BOUNDARIES = ("open", "periodic-x", "periodic-y", "periodic-both")

# Pauli matrices; sigma acts on the y-sublattice, eta on Nambu space.
PAULI = {
    "0": np.eye(2, dtype=complex),
    "x": np.array([[0, 1], [1, 0]], dtype=complex),
    "y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "z": np.array([[1, 0], [0, -1]], dtype=complex),
}


# the 16 products kron(sigma_s, eta_e), built once and read-only
_SIGMA_ETA = {(s, e): np.kron(PAULI[s], PAULI[e]) for s in PAULI for e in PAULI}
for _m in _SIGMA_ETA.values():
    _m.setflags(write=False)


def sigma_eta(s: str, e: str) -> np.ndarray:
    """kron(sigma_s, eta_e) on the 4-dim (sublattice x Nambu) space, as a
    read-only array."""
    return _SIGMA_ETA[s, e]


@dataclass(frozen=True)
class LatticeParams:
    """Couplings of the driven lattice model, in units of hbar/T.

    Jy and dJ (Dy and dDy) combine to the staggered y-hoppings (pairings)
    J_{y,j} = Jy + (-1)**j dJ and D_{y,j} = Dy + (-1)**j dDy.  The driven
    chemical potential is mu_j(t) = mu0 + (-1)**j dmu0
    + [mu1 + (-1)**j dmu1] cos(omega t).
    """

    Nx: int
    Ny: int
    Jx: float
    Jy: float
    dJ: float
    Dx: float
    Dy: float
    dDy: float
    mu0: float
    dmu0: float
    mu1: float
    dmu1: float
    omega: float = TWO_PI
    boundary: str = "open"

    def __post_init__(self):
        """Reject bad fields; each message starts with the field's name."""
        for name in ("Nx", "Ny"):
            v = getattr(self, name)
            if isinstance(v, bool) or not isinstance(v, int) or v < 1:
                raise ValueError(f"{name} must be an integer of at least 1, "
                                 f"got {v!r}")
        if self.boundary not in BOUNDARIES:
            raise ValueError(f"boundary must be in {BOUNDARIES}, "
                             f"got {self.boundary!r}")
        for name in ("Jx", "Jy", "dJ", "Dx", "Dy", "dDy",
                     "mu0", "dmu0", "mu1", "dmu1", "omega"):
            v = getattr(self, name)
            if (isinstance(v, bool) or not isinstance(v, (int, float))
                    or not abs(v) <= sys.float_info.max):
                raise ValueError(f"{name} must be a finite number, got {v!r}")
        if self.omega <= 0:
            raise ValueError(f"omega must be positive, got {self.omega}")

    @property
    def shape(self) -> tuple[int, int]:
        """(Lx, Ly) = (2*Nx, 2*Ny) lattice extent in sites."""
        return 2 * self.Nx, 2 * self.Ny

    @property
    def pbc_x(self) -> bool:
        return self.boundary in ("periodic-x", "periodic-both")

    @property
    def pbc_y(self) -> bool:
        return self.boundary in ("periodic-y", "periodic-both")


def fig_s1_params(Nx: int = 8, Ny: int = 8, boundary: str = "open") -> LatticeParams:
    """The corner-mode benchmark parameter point (all couplings in hbar/T)."""
    return LatticeParams(
        Nx=Nx, Ny=Ny,
        Jx=np.pi / 2 + 0.3, Jy=0.15, dJ=0.05,
        Dx=np.pi / 2 - 0.2, Dy=0.55, dDy=0.45,
        mu0=np.pi / 2 + 0.12, dmu0=0.02, mu1=4.0, dmu1=0.0,
        boundary=boundary,
    )


class Mirror:
    """Real signed-permutation involution R, (R v)[a] = sign[a] v[perm[a]],
    with R h^(m)* R = h^(m) for every harmonic of its operator.

    Then W = (1 + iR)/sqrt(2), unitary because R = R^T = R^-1, makes every
    harmonic real: W* = -iRW, so (W^dag h W)* = W^dag R h* R W = W^dag h W.
    On R's eigenvectors W is diag(e^{i pi/4} on R = +1, e^{-i pi/4} on
    R = -1), so it needs no eigendecomposition.
    """

    def __init__(self, perm: np.ndarray, sign: np.ndarray):
        perm = np.asarray(perm, dtype=np.intp)
        sign = np.asarray(sign, dtype=float)
        if (sign.shape != perm.shape or not np.isin(sign, (-1.0, 1.0)).all()
                or not np.array_equal(perm[perm], np.arange(perm.size))
                or not np.array_equal(sign[perm], sign)):
            raise ValueError("mirror is not a symmetric signed involution")
        self.perm, self.sign = perm, sign

    def to_real(self, h: np.ndarray, m: int) -> np.ndarray:
        """W^dag h W of harmonic m as a real array; raises ValueError if it
        keeps an imaginary part above 1e-12 * max|h| (h breaks the mirror)."""
        g = h + 1j * h[:, self.perm] * self.sign               # h (1 + iR)
        out = (g - 1j * self.sign[:, None] * g[self.perm]) / 2  # (1 - iR) g / 2
        imag = np.abs(out.imag).max(initial=0.0)
        if imag > 1e-12 * np.abs(h).max(initial=0.0):
            raise ValueError(f"harmonic {m} breaks the mirror: imaginary "
                             f"part {imag:.3e} in the real basis")
        return out.real

    def to_site(self, v: np.ndarray) -> np.ndarray:
        """W v along the last axis: real-basis vectors back to sites."""
        return (v + 1j * self.sign * v[..., self.perm]) / np.sqrt(2.0)


def x_mirror(Lx: int, Ly: int) -> Mirror:
    """R = M_x (x) tau_z on the site-major, x-fastest, Nambu-innermost
    basis: site (x, y) goes to (Lx-1-x, y) and the hole component flips
    sign.  Every coupling is uniform in x; p_x pairing is odd under M_x
    and i p_y pairing under conjugation, and tau_z restores both, so
    R h^(m)* R = h^(m) for every boundary.  A self-mirrored middle column
    (odd Lx) is fixed."""
    x = np.arange(Lx * Ly) % Lx
    site = np.arange(Lx * Ly) + Lx - 1 - 2 * x
    perm = (2 * site[:, None] + np.arange(2)).ravel()
    return Mirror(perm, np.tile([1.0, -1.0], Lx * Ly))


class DrivenBdG:
    """Time-periodic BdG operator as a dict of Fourier harmonics.

    H(t) = sum_m harmonics[m] * exp(i m omega t).  Hermiticity of H(t)
    requires harmonics[-m] == harmonics[m]^dag, which is validated at
    construction.  Harmonics may carry leading axes, `batch` (a stack of
    Bloch blocks, one per momentum); the relations hold per block.
    Matrices are frozen (non-writeable views).  `mirror`, if given, is an
    antiunitary symmetry of every harmonic of an unbatched operator (see
    `Mirror`); the Sambe assembler then works in the basis where all are
    real.  `partner`, if given, maps each block of a one-axis batch to the
    block at minus its momentum (`momentum_partners`); the Sambe assembler
    then checks particle-hole symmetry between them and keeps one block of
    each pair.
    """

    def __init__(self, harmonics: dict[int, np.ndarray], omega: float,
                 mirror: Mirror | None = None,
                 partner: np.ndarray | None = None):
        if not harmonics:
            raise ValueError("need at least one harmonic")
        dims = {np.shape(h) for h in harmonics.values()}
        if len(dims) != 1 or any(len(s) < 2 or s[-1] != s[-2] for s in dims):
            raise ValueError(f"inconsistent harmonic shapes: {dims}")
        shape = next(iter(dims))
        self.dim, self.batch = shape[-1], shape[:-2]
        self.omega = float(omega)
        if mirror is not None and (mirror.perm.size != self.dim or self.batch):
            raise ValueError(f"mirror of size {mirror.perm.size} on dim "
                             f"{self.dim} with batch {self.batch}")
        self.mirror = mirror
        if partner is not None:
            partner = np.asarray(partner, dtype=np.intp)
            if (len(self.batch) != 1 or partner.shape != self.batch
                    or not np.array_equal(partner[partner],
                                          np.arange(partner.size))):
                raise ValueError(f"partner map of shape {partner.shape} is "
                                 f"not an involution of batch {self.batch}")
        self.partner = partner
        self._h = {}
        for m, mat in harmonics.items():
            arr = np.array(mat, dtype=complex)
            arr.setflags(write=False)
            self._h[int(m)] = arr
        for m, h in self._h.items():
            partner = self._h.get(-m)
            if partner is None:
                raise ValueError(f"harmonic {-m} missing for harmonic {m}")
            if m < 0:
                continue                       # checked with its partner
            defect = np.abs(np.swapaxes(h, -1, -2).conj() - partner).max(
                initial=0.0)
            if defect > 1e-12 * max(1.0, np.abs(h).max(initial=0.0)):
                raise ValueError(f"harmonics {m}/{-m} are not mutually adjoint: "
                                 f"defect {defect:.3e}")

    @property
    def harmonics(self) -> dict[int, np.ndarray]:
        return dict(self._h)

    def component(self, m: int) -> np.ndarray:
        """Fourier component h^(m); zero matrix if absent."""
        h = self._h.get(m)
        if h is None:
            return np.zeros(self.batch + (self.dim, self.dim), dtype=complex)
        return h

    @property
    def max_harmonic(self) -> int:
        return max(abs(m) for m in self._h)

    def __repr__(self):
        ms = sorted(self._h)
        return f"DrivenBdG(dim={self.dim}, harmonics={ms}, omega={self.omega:g})"


@dataclass(frozen=True)
class SymmetryOp:
    """A symmetry acting on the 4-dim momentum-space BdG blocks.

    The defining relation checked by `check_symmetry` is
        U h^*(k)? U^dag = sign * h(flip * k)
    applied per time-Fourier harmonic (antiunitary kinds conjugate the
    matrix and send harmonic m -> -m before comparing).
    """

    kind: str
    matrix: np.ndarray
    antiunitary: bool
    sign: int          # +1 commuting-type, -1 anticommuting-type
    flips_k: bool      # whether the relation compares against h(-k)

    def __post_init__(self):
        u = self.matrix
        if not np.allclose(u @ u.conj().T, np.eye(u.shape[0]), atol=1e-12):
            raise ValueError(f"{self.kind}: matrix is not unitary")


def symmetry_op(kind: str) -> SymmetryOp:
    """The model's symmetry operators: particle-hole P = eta_x K,
    chiral C = sigma_z eta_x, time-reversal T = sigma_z K,
    inversion I = sigma_x eta_z."""
    table = {
        "particle-hole": SymmetryOp("particle-hole", sigma_eta("0", "x"),
                                    antiunitary=True, sign=-1, flips_k=True),
        "chiral": SymmetryOp("chiral", sigma_eta("z", "x"),
                             antiunitary=False, sign=-1, flips_k=False),
        "time-reversal": SymmetryOp("time-reversal", sigma_eta("z", "0"),
                                    antiunitary=True, sign=+1, flips_k=True),
        "inversion": SymmetryOp("inversion", sigma_eta("x", "z"),
                                antiunitary=False, sign=+1, flips_k=True),
    }
    if kind not in table:
        raise ValueError(f"unknown symmetry kind {kind!r}")
    return table[kind]


def _bdg_from_blocks(T: np.ndarray, P: np.ndarray) -> np.ndarray:
    """Interleave hopping block T and pairing block P into the Nambu-innermost
    BdG matrix [[T, P], [-P*, -T*]] (per site pair)."""
    n = T.shape[0]
    h = np.zeros((2 * n, 2 * n), dtype=complex)
    h[0::2, 0::2] = T
    h[0::2, 1::2] = P
    h[1::2, 0::2] = -P.conj()
    h[1::2, 1::2] = -T.conj()
    return h


def build_realspace_bdg(params: LatticeParams) -> DrivenBdG:
    """First-quantized BdG Fourier components of the driven 2D model.

    Static couplings populate h^(0); the cosine drive populates h^(+-1)
    with half weight each.  dim = 2 * (2*Nx) * (2*Ny).
    """
    Lx, Ly = params.shape
    ns = Lx * Ly
    T0 = np.zeros((ns, ns), dtype=complex)
    T1 = np.zeros((ns, ns), dtype=complex)
    P0 = np.zeros((ns, ns), dtype=complex)

    def idx(x: int, y: int) -> int:
        return y * Lx + x

    for y in range(Ly):
        j = y + 1
        sgn = -1 if j % 2 else 1
        mu_static = params.mu0 + sgn * params.dmu0
        mu_drive = (params.mu1 + sgn * params.dmu1) / 2.0
        Jyj = params.Jy + sgn * params.dJ
        Dyj = params.Dy + sgn * params.dDy
        for x in range(Lx):
            a = idx(x, y)
            T0[a, a] += mu_static
            T1[a, a] += mu_drive
            if x + 1 < Lx or params.pbc_x:
                b = idx((x + 1) % Lx, y)
                T0[b, a] += -params.Jx
                T0[a, b] += -params.Jx
                P0[b, a] += params.Dx
                P0[a, b] += -params.Dx
            if y + 1 < Ly or params.pbc_y:
                b = idx(x, (y + 1) % Ly)
                T0[b, a] += -Jyj
                T0[a, b] += -Jyj
                P0[b, a] += 1j * Dyj
                P0[a, b] += -1j * Dyj

    h0 = _bdg_from_blocks(T0, P0)
    h1 = _bdg_from_blocks(T1, np.zeros_like(P0))
    return DrivenBdG({0: h0, 1: h1, -1: h1.conj().T}, params.omega,
                     x_mirror(Lx, Ly))


def build_momentum_bdg(params: LatticeParams, kx, ky,
                       partner: np.ndarray | None = None) -> DrivenBdG:
    """4x4 Bloch BdG Fourier components at momentum (kx, ky).

    h(k, t) = [-(J_{y,-} + J_{y,+} cos ky) sx - J_{y,+} sin ky sy
               - 2 Jx cos kx + mu0 + mu1 cos wt
               + (dmu0 + dmu1 cos wt) sz] ez
              + [(D_{y,-} - D_{y,+} cos ky) sy + D_{y,+} sin ky sx] ex
              + 2 Dx sin kx ey
    with s (e) the sublattice (Nambu) Paulis.  Array momenta broadcast:
    the harmonics then carry their shape as a leading batch, each block
    equal to the scalar build at its momentum; `partner` goes to
    `DrivenBdG`.
    """
    jyp = params.Jy + params.dJ
    jym = params.Jy - params.dJ
    dyp = params.Dy + params.dDy
    dym = params.Dy - params.dDy
    kx, ky = (np.asarray(k, dtype=float)[..., None, None] for k in (kx, ky))

    h0 = (
        -(jym + jyp * np.cos(ky)) * sigma_eta("x", "z")
        - jyp * np.sin(ky) * sigma_eta("y", "z")
        - 2 * params.Jx * np.cos(kx) * sigma_eta("0", "z")
        + params.mu0 * sigma_eta("0", "z")
        + params.dmu0 * sigma_eta("z", "z")
        + (dym - dyp * np.cos(ky)) * sigma_eta("y", "x")
        + dyp * np.sin(ky) * sigma_eta("x", "x")
        + 2 * params.Dx * np.sin(kx) * sigma_eta("0", "y")
    )
    h1 = np.broadcast_to((params.mu1 * sigma_eta("0", "z")
                          + params.dmu1 * sigma_eta("z", "z")) / 2.0, h0.shape)
    return DrivenBdG({0: h0, 1: h1, -1: np.swapaxes(h1, -1, -2).conj()},
                     params.omega, partner=partner)


def momentum_grid(params: LatticeParams) -> list[tuple[float, float]]:
    """Bloch momenta matching the periodic lattice: 2*Nx values of kx and
    Ny values of ky (the y unit cell holds two sites), each in (-pi, pi]."""
    def wrap(k):
        return k - TWO_PI * np.floor(k / TWO_PI + 0.5) if k != np.pi else k

    kxs = [wrap(TWO_PI * m / (2 * params.Nx)) for m in range(2 * params.Nx)]
    kys = [wrap(TWO_PI * m / params.Ny) for m in range(params.Ny)]
    return [(kx, ky) for kx in kxs for ky in kys]


def momentum_partners(params: LatticeParams) -> np.ndarray:
    """Index in `momentum_grid` of -k for each of its points k: grid index
    (m, n) goes to ((-m) mod 2*Nx, (-n) mod Ny).  Points with kx and ky
    each 0 or pi are their own partners."""
    m, n = np.divmod(np.arange(2 * params.Nx * params.Ny), params.Ny)
    return (-m) % (2 * params.Nx) * params.Ny + (-n) % params.Ny


def check_symmetry(
    params: LatticeParams,
    sym: SymmetryOp,
    kgrid: Iterable[tuple[float, float]] | None = None,
) -> float:
    """Max residual of the symmetry relation over the k-grid and harmonics.

    For unitary kinds the relation per harmonic m is
        U h^(m)(k) U^dag - sign * h^(m)(k')
    and for antiunitary kinds (conjugation maps m -> -m)
        U [h^(-m)(k)]^* U^dag - sign * h^(m)(k')
    with k' = -k when the symmetry flips momentum.
    """
    if kgrid is None:
        vals = np.linspace(-np.pi, np.pi, 7, endpoint=False) + 0.211
        kgrid = [(kx, ky) for kx in vals for ky in vals]
    kx, ky = np.array(list(kgrid), dtype=float).reshape(-1, 2).T
    u = sym.matrix
    bdg_k = build_momentum_bdg(params, kx, ky)
    target = build_momentum_bdg(params, -kx, -ky) if sym.flips_k else bdg_k
    worst = 0.0
    for m in sorted(set(bdg_k.harmonics) | set(target.harmonics)):
        h = bdg_k.component(-m).conj() if sym.antiunitary else bdg_k.component(m)
        resid = np.linalg.norm(u @ h @ u.conj().T - sym.sign * target.component(m),
                               ord=2, axis=(-2, -1))
        worst = max(worst, float(resid.max(initial=0.0)))
    return worst


def kitaev_chain_bdg(
    n_sites: int,
    J: float,
    Delta: float,
    mu0: float,
    mu1: float,
    omega: float = TWO_PI,
) -> DrivenBdG:
    """Driven Kitaev chain BdG: hopping -J, pairing Delta, on-site
    mu(t) = mu0 + mu1 cos(omega t), open ends; dim = 2*n_sites."""
    up = np.eye(n_sites, k=1, dtype=complex)          # bonds (x, x + 1)
    T0 = mu0 * np.eye(n_sites, dtype=complex) - J * (up + up.T)
    P0 = Delta * (up.T - up)
    h0 = _bdg_from_blocks(T0, P0)
    h1 = _bdg_from_blocks((mu1 / 2.0) * np.eye(n_sites, dtype=complex),
                          np.zeros_like(P0))
    return DrivenBdG({0: h0, 1: h1, -1: h1.conj().T}, omega,
                     x_mirror(n_sites, 1))


def reduce_to_1d(params: LatticeParams, atol: float = 1e-12) -> DrivenBdG:
    """1D chain BdG of the decoupled j = 1 row (requires Jy = dJ, Dy = dDy).

    At the decoupling point the odd rows j = 1 and j = 2*Ny detach from the
    bulk; the returned chain is exactly the j = 1 row block of the 2D model:
    hopping -Jx, pairing Dx, drive mu_1(t) = mu0 - dmu0 + (mu1 - dmu1) cos wt.
    """
    if abs(params.Jy - params.dJ) > atol or abs(params.Dy - params.dDy) > atol:
        raise ValueError(
            "decoupling requires Jy == dJ and Dy == dDy; got "
            f"Jy-dJ={params.Jy - params.dJ:.3e}, Dy-dDy={params.Dy - params.dDy:.3e}"
        )
    return kitaev_chain_bdg(
        2 * params.Nx,
        J=params.Jx,
        Delta=params.Dx,
        mu0=params.mu0 - params.dmu0,
        mu1=params.mu1 - params.dmu1,
        omega=params.omega,
    )
