"""Floquet degenerate perturbation theory and its lead-Majorana applications.

Three layers:

1. Generic machinery on any time-periodic Hermitian problem, phrased in
   Sambe space: the quasi-degenerate effective block (Van Vleck form)
   through third order.  It tolerates first-order internal structure, and
   on a one-state cluster it is the textbook nondegenerate series with
   time-averaged inner products.  Solves and Van Vleck terms run block by
   block over the components of the problem's nonzero pattern.

2. Lead-Majorana effective couplings: the co-tunneling amplitudes
   T^(00), T^(pipi), T^(0pi) between two single-level leads mediated by a
   nonlocal fermion, and the four-lead third-order amplitude h1234; plus
   exact toy Fock models (leads x Majoranas x a 3-state particle-number
   register, its operators filled in place without kron) used as oracles
   for both.

3. The harmonically-driven mode expansion: nested-commutator construction
   of zero and pi Majorana operators order by order in 1/omega, with the
   Sambe-norm residual history; pi seeds solve one eig per component.

Conventions: couplings are Fourier components on the omega/2 grid,
lambda(t) = sum_n lam[n] * exp(i n omega t / 2); eps_plus/eps_minus are
the quasienergy differences eps_N - eps_{N+-1} (the toy register places
the N+-1 levels at -eps_+-).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from cornerlab import fock
from cornerlab.floquet import assemble_sambe
from cornerlab.lattice import TWO_PI, DrivenBdG


# --------------------------------------------------------------------------
# generic Floquet perturbation theory
# --------------------------------------------------------------------------

def _blocks(pattern: np.ndarray) -> list[np.ndarray]:
    """Connected components of a symmetric boolean pattern, grouped by
    size: one (k, s) index array per size s, its rows the k components of
    that size, each row ascending.  Labels come from min-label
    propagation with pointer jumping, all vectorized."""
    n = pattern.shape[0]
    labels = np.arange(n)
    while True:
        new = np.where(pattern, labels, n).min(axis=1, initial=n)
        new = np.minimum(new, labels)
        new = new[new]
        if np.array_equal(new, labels):
            break
        labels = new
    size = np.bincount(labels, minlength=n)[labels]
    order = np.lexsort((np.arange(n), labels, size))
    bounds = np.flatnonzero(np.diff(size[order])) + 1
    return [rows.reshape(-1, size[rows[0]])
            for rows in np.split(order, bounds)]


def _eigvalsh_sorted(subs: list[np.ndarray]) -> np.ndarray:
    """Every eigenvalue of the (k, s, s) stacks of Hermitian blocks in
    ascending order, one batched eigvalsh per stack."""
    return np.sort(np.concatenate(
        [np.linalg.eigvalsh(sub).ravel() for sub in subs]))


def _eigh_sorted(subs: list[np.ndarray]):
    """One batched eigh per (k, s, s) stack of Hermitian blocks: every
    eigenvalue in ascending order, each stack's eigenvectors, and per
    stack the (k, s) positions of its eigenvalues in that order."""
    solved = [np.linalg.eigh(sub) for sub in subs]
    evals = np.concatenate([w.ravel() for w, _ in solved])
    order = np.argsort(evals, kind="stable")
    column = np.empty_like(order)
    column[order] = np.arange(order.size)
    cols, start = [], 0
    for w, _ in solved:
        cols.append(column[start:start + w.size].reshape(w.shape))
        start += w.size
    return evals[order], [v for _, v in solved], cols


def _place(rows: list[np.ndarray], cols: list[np.ndarray],
           stacks: list[np.ndarray]) -> np.ndarray:
    """The dense matrix holding each (k, s, s) stack at its (k, s) row
    and column indices, zero elsewhere."""
    d = sum(r.size for r in rows)
    out = np.zeros((d, d), dtype=stacks[0].dtype)
    for r, c, stack in zip(rows, cols, stacks):
        out[r[:, :, None], c[:, None, :]] = stack
    return out


def _block_eigh(h: np.ndarray, vectors: bool = True):
    """Eigenvalues of the Hermitian h in ascending order, solved block by
    block over the `_blocks` of its nonzero pattern.  Each group of
    equal-size blocks is one batched eigh/eigvalsh, so a connected h is
    the dense solve.  With `vectors`, also the eigenvector columns in the
    same order, each exactly zero outside its block, and per group the
    (k, s) columns that hold its blocks' states."""
    blocks = _blocks(h != 0)
    subs = [h[rows[:, :, None], rows[:, None, :]] for rows in blocks]
    if not vectors:
        return _eigvalsh_sorted(subs)
    evals, vecs, cols = _eigh_sorted(subs)
    return evals, _place(blocks, cols, vecs), cols


def _same_harmonics(bdg: DrivenBdG, harmonics: dict[int, np.ndarray]) -> bool:
    """Whether `harmonics` holds exactly bdg's harmonic indices, each equal
    to bdg's frozen copy (NaN never is)."""
    frozen = bdg.harmonics
    return len(frozen) == len(harmonics) and all(
        int(m) in frozen and np.array_equal(frozen[int(m)], h)
        for m, h in harmonics.items())


@dataclass(frozen=True)
class _Structure:
    """The lam-independent part of a `PerturbationProblem`, every array
    read-only: the validated, frozen harmonics of H0 and V, the cutoff,
    the `_blocks` of the union of both Sambe patterns and, per block
    size, the stacks of H0 and V blocks, the unperturbed eigenvectors,
    the (k, s) positions of their eigenvalues in the ascending `eps0`,
    and V in that basis."""

    h0: DrivenBdG
    v: DrivenBdG
    m_cutoff: int
    blocks: tuple[np.ndarray, ...]
    h0_blocks: tuple[np.ndarray, ...]
    v_blocks: tuple[np.ndarray, ...]
    eps0: np.ndarray
    vecs: tuple[np.ndarray, ...]
    cols: tuple[np.ndarray, ...]
    v_basis: tuple[np.ndarray, ...]

    @classmethod
    def build(cls, h0, v, omega, m_cutoff) -> _Structure:
        # DrivenBdG rejects harmonics that are not mutually adjoint or not finite
        h0_bdg, v_bdg = DrivenBdG(h0, omega), DrivenBdG(v, 0.0)
        h0_sambe = assemble_sambe(h0_bdg, m_cutoff).matrix
        v_sambe = assemble_sambe(v_bdg, m_cutoff).matrix
        # H0 + lam*V is block-diagonal over the union pattern's components
        blocks = _blocks((h0_sambe != 0) | (v_sambe != 0))
        h0_b = [h0_sambe[rows[:, :, None], rows[:, None, :]] for rows in blocks]
        v_b = [v_sambe[rows[:, :, None], rows[:, None, :]] for rows in blocks]
        eps0, vecs, cols = _eigh_sorted(h0_b)
        v_basis = [w.conj().swapaxes(1, 2) @ vb @ w for w, vb in zip(vecs, v_b)]
        for a in (eps0, *blocks, *h0_b, *v_b, *vecs, *cols, *v_basis):
            a.setflags(write=False)
        return cls(h0_bdg, v_bdg, m_cutoff, tuple(blocks), tuple(h0_b),
                   tuple(v_b), eps0, tuple(vecs), tuple(cols), tuple(v_basis))

    def fits(self, h0, v, omega, m_cutoff) -> bool:
        return (m_cutoff == self.m_cutoff and float(omega) == self.h0.omega
                and _same_harmonics(self.h0, h0) and _same_harmonics(self.v, v))


# the structure of the last problem built, which the next one reuses if it fits
_last_structure: _Structure | None = None


@dataclass
class PerturbationProblem:
    """H(t) = H0(t) + lam * V(t), both given by Fourier harmonics on the
    base frequency `omega` (use omega/2 as base for period-2T problems).

    The lam-independent work is done once per structure: validating and
    freezing the harmonics, both Sambe assemblies (V lifted without the
    n*omega diagonal), the block pattern, the unperturbed block solve and
    V in its basis.  A problem reuses the last problem's structure when
    omega, m_cutoff, the harmonic indices and every harmonic (by value,
    against the structure's frozen copies) are equal, so a lam sweep
    builds it once.  The dense `basis`, `v_matrix` and Sambe matrices are
    built on request.  m_cutoff = 0 is allowed for static problems only."""

    h0: dict[int, np.ndarray]
    v: dict[int, np.ndarray]
    omega: float
    m_cutoff: int
    lam: float = 1.0

    def __post_init__(self):
        global _last_structure
        for name in ("lam", "omega"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, "
                                 f"got {getattr(self, name)!r}")
        if not isinstance(self.m_cutoff, (int, np.integer)) or self.m_cutoff < 0:
            raise ValueError(f"m_cutoff must be an int >= 0, got {self.m_cutoff!r}")
        s = _last_structure
        if s is None or not s.fits(self.h0, self.v, self.omega, self.m_cutoff):
            s = _last_structure = _Structure.build(
                self.h0, self.v, self.omega, self.m_cutoff)
        self._structure = s

    @property
    def eps0(self) -> np.ndarray:
        return self._structure.eps0

    @property
    def _blocks(self) -> list[np.ndarray]:
        return list(self._structure.blocks)

    @cached_property
    def basis(self) -> np.ndarray:
        s = self._structure
        return _place(s.blocks, s.cols, s.vecs)

    @cached_property
    def v_matrix(self) -> np.ndarray:
        """The perturbation in the unperturbed Sambe eigenbasis (lam excluded)."""
        s = self._structure
        return _place(s.cols, s.cols, s.v_basis)

    @cached_property
    def _h0_sambe(self) -> np.ndarray:
        return assemble_sambe(self._structure.h0, self.m_cutoff).matrix

    @cached_property
    def _v_sambe(self) -> np.ndarray:
        return assemble_sambe(self._structure.v, self.m_cutoff).matrix

    def cluster_near(self, center: float, tol: float) -> np.ndarray:
        """Indices of unperturbed Sambe states within tol of `center`."""
        return np.nonzero(np.abs(self.eps0 - center) <= tol)[0]

    def exact_quasienergies(self) -> np.ndarray:
        """Eigenvalues of the full Sambe matrix H0 + lam*V (unfolded)."""
        s = self._structure
        return _eigvalsh_sorted([h + self.lam * v
                                 for h, v in zip(s.h0_blocks, s.v_blocks)])


# unperturbed Sambe levels closer than this to the cluster center belong to it
DEGENERACY_TOL = 1e-8


def effective_hamiltonian(
    problem: PerturbationProblem,
    cluster: np.ndarray,
    order: int = 2,
) -> np.ndarray:
    """Hermitian quasi-degenerate effective block on the cluster (Van Vleck).

    H_eff = P(E0 + lam V)P + lam^2 PVRVP
            + lam^3 [ (PVRVRVP + h.c.)/2 - {PVRRVP, PVP}/2 ],
    with R = Q/(E0 - H0) and E0 the cluster center.  Exact cluster
    degeneracy is assumed; first-order internal elements are allowed.
    Its eigenvalues reproduce the quasienergies through `order`.  V is
    block-diagonal over the problem's blocks, so every term is built from
    the blocks' s x s pieces, one batched product per block size.
    """
    if order not in (1, 2, 3):
        raise ValueError(f"order must be 1, 2 or 3, got {order}")
    eps = problem.eps0
    d = eps.size
    cluster = np.asarray(cluster, dtype=int)
    if (cluster.ndim != 1 or cluster.size == 0 or cluster.min() < 0
            or cluster.max() >= d or np.unique(cluster).size != cluster.size):
        raise ValueError(f"cluster must list distinct states in 0..{d - 1}, "
                         f"got {cluster.tolist()}")
    center = float(eps[cluster].mean())
    if np.abs(eps[cluster] - center).max() > DEGENERACY_TOL:
        raise ValueError(f"cluster is not degenerate within {DEGENERACY_TOL:g}")
    lam = problem.lam
    # per state: its position in the cluster (-1 if not in it) and R's weight
    pos = np.full(d, -1)
    pos[cluster] = np.arange(cluster.size)
    r = np.divide(1.0, center - eps, out=np.zeros(d),
                  where=np.abs(eps - center) > DEGENERACY_TOL)

    heff = np.diag(eps[cluster]).astype(complex)
    s = problem._structure
    for c, v in zip(s.cols, s.v_basis):
        inside = pos[c] >= 0
        pair = inside[:, :, None] & inside[:, None, :]
        pvp = v * pair
        rc = r[c][:, None, :]
        vr = v * rc
        term = lam * pvp
        if order >= 2:
            vrv = vr @ v
            term = term + lam**2 * vrv
        if order >= 3:
            a = vr @ vrv
            b = (vr * rc) @ v
            term = term + lam**3 * (a - (pvp @ b + b @ pvp) / 2)
        k, i, j = np.nonzero(pair)
        heff[pos[c][k, i], pos[c][k, j]] += term[k, i, j]
    return (heff + heff.conj().T) / 2         # also the h.c. half of PVRVRVP


# --------------------------------------------------------------------------
# lead-Majorana effective couplings (two leads)
# --------------------------------------------------------------------------

@dataclass
class TwoLeadParams:
    """Couplings of two single-level leads to the Majorana modes they face.

    coupling_i / coupling_j map (species, n) -> lambda-bar Fourier
    component, species in {"0", "pi"}, n an omega/2 harmonic index.
    Lead energies are E = n_lead * omega / 2 with n_lead in {-1, 0, 1}.
    `direct` is the lead-lead amplitude; its flux is
    Phi(t) = flux0 + flux1 sin(omega t).
    """

    eps_plus: float
    eps_minus: float
    n_i: int
    n_j: int
    coupling_i: dict[tuple[str, int], complex]
    coupling_j: dict[tuple[str, int], complex]
    direct: complex = 0.0
    flux0: float = 0.0
    flux1: float = 0.0
    omega: float = TWO_PI

    def __post_init__(self):
        if self.eps_plus == 0 or self.eps_minus == 0:
            raise ValueError("Coulomb-blockade gaps eps_+- must be nonzero")
        if self.n_i not in (-1, 0, 1) or self.n_j not in (-1, 0, 1):
            raise ValueError(
                "lead energy indices outside {-1, 0, 1} are unsupported "
                "(higher harmonics of the coupling are subdominant)"
            )
        lam_max = max(
            [abs(v) for v in self.coupling_i.values()]
            + [abs(v) for v in self.coupling_j.values()]
            + [abs(self.direct), 0.0]
        )
        gap = min(abs(self.eps_plus), abs(self.eps_minus))
        if lam_max > 0.1 * gap:
            warnings.warn(
                f"couplings ({lam_max:.3g}) exceed 10% of the blockade gap "
                f"({gap:.3g}); perturbative treatment degrades",
                stacklevel=3,
            )

    @property
    def inv_eps(self) -> float:
        return 1.0 / self.eps_plus + 1.0 / self.eps_minus


def species_pair(n_i: int, n_j: int) -> str:
    """'00' for even/even lead energies, 'pipi' for odd/odd, '0pi' mixed."""
    even_i, even_j = n_i % 2 == 0, n_j % 2 == 0
    if even_i and even_j:
        return "00"
    if not even_i and not even_j:
        return "pipi"
    return "0pi"


def lead_effective_coupling(params: TwoLeadParams) -> tuple[str, dict[int, complex]]:
    """Co-tunneling amplitude T_{i,j}(t) as omega/2-grid Fourier components.

        T^(00)   = (1/e+ + 1/e-) i lam0i0^* lam0j0            (static)
        T^(pipi) = (1/e+ + 1/e-) i lampi,-1^* lampj,-1 e^{-i w t}
        T^(0pi)  = (1/e+ + 1/e-) i lam0i0^* lampj,-1 e^{-i w t / 2}

    For the mixed case the even-energy lead must be lead i (swap before
    calling otherwise).
    """
    pair = species_pair(params.n_i, params.n_j)
    c = params.inv_eps
    li, lj = params.coupling_i, params.coupling_j
    if pair == "00":
        amp = 1j * c * np.conj(li.get(("0", 0), 0.0)) * lj.get(("0", 0), 0.0)
        return pair, {0: complex(amp)}
    if pair == "pipi":
        amp = 1j * c * np.conj(li.get(("pi", -1), 0.0)) * lj.get(("pi", -1), 0.0)
        return pair, {-2: complex(amp)}
    if params.n_i % 2 != 0:
        raise ValueError("mixed species pair needs the even-energy lead as lead i")
    amp = 1j * c * np.conj(li.get(("0", 0), 0.0)) * lj.get(("pi", -1), 0.0)
    return pair, {-1: complex(amp)}


# --------------------------------------------------------------------------
# toy Fock models (oracles)
# --------------------------------------------------------------------------

REGISTER_DIM = 3      # particle numbers N-1, N, N+1


@dataclass
class ToyModel:
    """Exact lead-Majorana Fock model, static by construction: its one
    Hamiltonian is `harmonics[0]` (the only key allowed), and the charge
    and named parity operators classify its eigenstates."""

    harmonics: dict[int, np.ndarray]
    charge_op: np.ndarray              # conserved n_leads + N_register
    parity_ops: dict[str, np.ndarray]  # named parity operators

    def __post_init__(self):
        if set(self.harmonics) != {0}:
            raise ValueError(f"toy models are static: harmonics "
                             f"{sorted(self.harmonics)} given, only 0 allowed")

    def exact_levels(self) -> tuple[np.ndarray, np.ndarray]:
        """(energies ascending, eigenvectors as columns) of the Hamiltonian."""
        return _block_eigh(self.harmonics[0])[:2]


def _on_register(f: np.ndarray, lower: np.ndarray | None = None,
                 diagonal: tuple | None = None) -> np.ndarray:
    """f (x) 1 + lower (x) e^{-i phi} + h.c. + 1 (x) diag(`diagonal`) on
    fermion space (x) the particle-number register, e^{-i phi} = |0><1| +
    |1><2|: the np.kron sum, filled into a (dim_f, 3, dim_f, 3) view at the
    register's nonzero entries."""
    dim_f = f.shape[0]
    out = np.zeros((dim_f, REGISTER_DIM, dim_f, REGISTER_DIM), dtype=complex)
    for a in range(REGISTER_DIM):
        out[:, a, :, a] = f
    if lower is not None:
        for a in range(REGISTER_DIM - 1):
            out[:, a, :, a + 1] = lower
            out[:, a + 1, :, a] = lower.conj().T
    out = out.reshape(dim_f * REGISTER_DIM, dim_f * REGISTER_DIM)
    if diagonal is not None:
        out.reshape(-1)[::out.shape[0] + 1] += np.tile(diagonal, dim_f)
    return out


def _toy(n_leads: int, eps_plus: float, eps_minus: float,
         tunnel: list[tuple[int, int, complex]],
         links: list[tuple[int, int, complex]],
         parities: dict[str, tuple[int, int]],
         onsite: np.ndarray | None = None) -> ToyModel:
    """Exact Fock model of `n_leads` single-level leads, two fermion modes
    split into Majoranas gamma_0..gamma_3 (gamma_2k + i gamma_2k+1 = 2 f_k),
    and the 3-state particle-number register (N-1, N, N+1) charged at
    (-eps_-, 0, -eps_+).

    tunnel: (lead, k, amp) adds amp d_lead^dag gamma_k e^{-i phi} + h.c.;
    links: (a, b, amp) adds amp d_b^dag d_a + h.c.; parities: name ->
    (k, l) is i gamma_k gamma_l; `onsite` is a fermion-space term.  The
    charge is n_leads + N_register."""
    n_modes = n_leads + 2
    dim_f = 2**n_modes
    cs = fock.jw_annihilators(n_modes)
    gam = [g for k in range(n_leads, n_modes) for g in fock.majorana_pair(n_modes, k)]
    # fermion-space factors of the register operators e^{-i phi} and 1
    f_lower = np.zeros((dim_f, dim_f), dtype=complex)
    for lead, k, amp in tunnel:
        f_lower += amp * (cs[lead].conj().T @ gam[k])
    f_ident = np.zeros((dim_f, dim_f), dtype=complex)
    for a, b, amp in links:
        f_ident += amp * (cs[b].conj().T @ cs[a])
    f_ident += f_ident.conj().T
    if onsite is not None:
        f_ident += onsite
    n_leads_op = sum(fock.number_op(n_modes, k) for k in range(n_leads))
    return ToyModel(
        harmonics={0: _on_register(f_ident, f_lower,
                                   (-eps_minus, 0.0, -eps_plus))},
        charge_op=_on_register(n_leads_op, diagonal=(0.0, 1.0, 2.0)),
        parity_ops={name: _on_register(1j * gam[k] @ gam[l])
                    for name, (k, l) in parities.items()},
    )


def two_lead_toy(params: TwoLeadParams, scale: float = 1.0) -> ToyModel:
    """Exact Fock model of two leads + one MZM pair (gamma_0, gamma_1) + one
    MPM pair (gamma_2, gamma_3) + the 3-state particle-number register.
    `scale` multiplies every coupling (lambda-bars and the direct link)
    for scaling studies.  The model is static: a coupling at an omega/2
    harmonic other than 0 raises."""
    tunnel = []
    for lead, coupling in enumerate((params.coupling_i, params.coupling_j)):
        for (species, n), lam in coupling.items():
            if n != 0:
                raise ValueError(
                    f"toy model is static: coupling ({species!r}, {n}) of "
                    f"lead {'ij'[lead]} sits at harmonic {n}")
            tunnel.append((lead, {"0": 0, "pi": 2}[species] + lead, scale * lam))
    links = []
    if params.direct != 0:
        if params.flux1 != 0:
            raise ValueError("toy oracle supports static flux only")
        links.append((0, 1, scale * params.direct * np.exp(1j * params.flux0)))
    w = params.omega
    onsite = (params.n_i * w / 2 * fock.number_op(4, 0)
              + params.n_j * w / 2 * fock.number_op(4, 1)
              + (w / 2) * fock.number_op(4, 3))         # the f_pi mode
    return _toy(2, params.eps_plus, params.eps_minus, tunnel, links,
                {"zero": (0, 1), "pi": (2, 3)}, onsite)


def _cluster_states(toy: ToyModel, window: float) -> list[tuple[float, np.ndarray]]:
    """(energy, eigenvector) of the exact charge-2 states within `window`
    of 0 whose pi-pair parity is -1, in ascending energy.

    Near-degenerate groups are first rotated to the joint eigenbasis of
    the (commuting) pi- and zero-pair parities, so every returned vector
    has a sharp zero-pair parity even at vanishing coupling."""
    evals, evecs = toy.exact_levels()
    charge = toy.charge_op
    picked = [(float(e), evecs[:, k]) for k, e in enumerate(evals)
              if abs(e) <= window
              and abs(np.vdot(evecs[:, k], charge @ evecs[:, k]).real - 2) <= 1e-6]
    p0, ppi = toy.parity_ops["zero"], toy.parity_ops["pi"]
    out = []
    i = 0
    while i < len(picked):
        j = i + 1
        while j < len(picked) and picked[j][0] - picked[i][0] < 1e-9:
            j += 1
        basis = np.array([v for _, v in picked[i:j]]).T
        block = basis.conj().T @ (2 * ppi + p0) @ basis
        vecs = basis @ np.linalg.eigh((block + block.conj().T) / 2)[1]
        out += [(picked[i][0], v) for v in vecs.T
                if abs(np.vdot(v, ppi @ v).real + 1) <= 1e-2]
        i = j
    return out


def effective_two_lead_block(params: TwoLeadParams, parity: int,
                             scale: float = 1.0) -> np.ndarray:
    """The predicted 2x2 effective Hamiltonian on (lead i occupied, lead j
    occupied) at fixed mediating-pair parity.

    For the 00 pair both the static co-tunneling amplitude and the direct
    link interfere: offdiag = T^(00) * parity + direct * e^{i flux0}.  For
    the pipi pair the two lead states sit omega apart and the e^{-i w t}
    co-tunneling harmonic bridges them resonantly, so the block carries
    T^(pipi) * parity alone (a static link is off-resonant there).
    """
    pair, T = lead_effective_coupling(params)
    if pair == "00":
        amp = scale**2 * T.get(0, 0.0) * parity \
            + scale * params.direct * np.exp(1j * params.flux0)
    else:
        amp = scale**2 * T.get(-2, 0.0) * parity
    return np.array([[0.0, np.conj(amp)], [amp, 0.0]], dtype=complex)


def verify_effective_model(
    params: TwoLeadParams,
    scale: float = 1.0,
) -> float:
    """Max relative deviation between exact toy-model cluster splittings and
    the effective-model prediction, per parity sector.

    The exact one-lead-particle cluster (4 states: 2 lead positions x 2
    parities of the mediating pair) is centered per parity sector to
    remove the common second-order self-energy; the prediction is
    +-|T * p + direct|.  Valid for configurations without a differential
    second-order detuning (symmetric couplings or eps_+ = eps_-).  Scoped
    to the 00 species pair, whose static toy the zero pair mediates.
    """
    pair, _ = lead_effective_coupling(params)
    if pair != "00":
        # the pi-carrying amplitudes rest on the paper's dressed lead-parity
        # bases; a lab-frame toy with static Majorana operators does not
        # reduce to them, so the oracle is scoped to the 00 pair
        raise NotImplementedError("toy oracle covers the 00 species pair")
    toy = two_lead_toy(params, scale=scale)
    gap = min(abs(params.eps_plus), abs(params.eps_minus))
    states = _cluster_states(toy, 0.45 * gap)
    if len(states) != 4:
        raise RuntimeError(f"expected 4 cluster states, found {len(states)}")
    p0 = toy.parity_ops["zero"]
    worst = 0.0
    for parity in (+1, -1):
        exact = sorted(e for e, v in states
                       if np.vdot(v, p0 @ v).real * parity > 0.5)
        if len(exact) != 2:
            raise RuntimeError("could not classify cluster states by parity")
        exact = np.array(exact) - np.mean(exact)
        pred = np.sort(np.linalg.eigvalsh(
            effective_two_lead_block(params, parity, scale=scale)))
        spread = max(np.abs(pred).max(), 1e-300)
        worst = max(worst, float(np.abs(np.sort(exact) - pred).max() / spread))
    return worst


def signed_splitting(params: TwoLeadParams, parity: int,
                     scale: float = 1.0) -> float:
    """Exact toy-model splitting with a sign fixed by the lead eigenvector:
    positive when the (|i> + e^{i arg T}|j>)/sqrt(2) lead combination is the
    raised state of its parity sector.  Flipping the mediating parity flips
    this sign exactly.  Like `verify_effective_model`, scoped to the 00
    species pair."""
    pair, T = lead_effective_coupling(params)
    if pair != "00":
        raise NotImplementedError("toy oracle covers the 00 species pair")
    toy = two_lead_toy(params, scale=scale)
    gap = min(abs(params.eps_plus), abs(params.eps_minus))
    t0 = T[0]
    phase = np.exp(1j * np.angle(t0)) if t0 != 0 else 1.0
    di, dj = fock.jw_annihilators(4)[:2]
    hop = _on_register(dj.conj().T @ di)
    p0 = toy.parity_ops["zero"]
    sector = [(e, float(np.real(np.conj(phase) * np.vdot(v, hop @ v))))
              for e, v in _cluster_states(toy, 0.45 * gap)
              if np.vdot(v, p0 @ v).real * parity > 0.5]
    if len(sector) != 2:
        raise RuntimeError(f"expected a 2-state sector, found {len(sector)}")
    center = (sector[0][0] + sector[1][0]) / 2
    raised = max(sector, key=lambda ew: ew[1])
    return float(raised[0] - center)


# --------------------------------------------------------------------------
# four-lead third-order amplitude and toy
# --------------------------------------------------------------------------

@dataclass
class FourLeadParams:
    """Four leads l_{1..4,a} at zero energy coupled to the four zero-mode
    corner Majoranas, with weak direct links (1,2) and (3,4)."""

    eps_plus: float
    eps_minus: float
    couplings: dict[int, complex]       # corner -> lambda-bar_{0, l_s, 0}
    link12: complex = 0.0
    link34: complex = 0.0
    flux12: float = 0.0
    flux43: float = 0.0

    def __post_init__(self):
        if set(self.couplings) != {1, 2, 3, 4}:
            raise ValueError("need couplings for corners 1..4")

    @property
    def inv_eps(self) -> float:
        return 1.0 / self.eps_plus + 1.0 / self.eps_minus

    def tilde12(self) -> complex:
        return self.link12 * np.exp(1j * self.flux12)

    def tilde43(self) -> complex:
        return self.link34 * np.exp(1j * self.flux43)


@dataclass
class FourLeadAmplitude:
    """h_1234 = c14 g01 g04 + c24 g02 g04 + c13 g01 g03 (operator-valued
    amplitude of the l1 -> l4 transfer, through third order)."""

    c14: complex
    c24: complex
    c13: complex


def four_lead_effective(params: FourLeadParams) -> FourLeadAmplitude:
    """Second- plus third-order l1 -> l4 amplitude:

    h1234 = -lam4 lam1^* (1/e+ + 1/e-) g01 g04
            - (1/e-^2) [ tilde12^* lam4 lam2^* g02 g04
                         + tilde43^* lam3 lam1^* g01 g03 ].
    """
    lam = params.couplings
    c14 = -lam[4] * np.conj(lam[1]) * params.inv_eps
    c24 = -(1.0 / params.eps_minus**2) * np.conj(params.tilde12()) \
        * lam[4] * np.conj(lam[2])
    c13 = -(1.0 / params.eps_minus**2) * np.conj(params.tilde43()) \
        * lam[3] * np.conj(lam[1])
    return FourLeadAmplitude(c14=complex(c14), c24=complex(c24), c13=complex(c13))


def four_lead_toy(params: FourLeadParams, scale: float = 1.0) -> ToyModel:
    """Exact Fock model: 4 leads + 4 zero-mode Majoranas (modes (g01,g02)
    and (g03,g04)) + the particle-number register.  Static."""
    tunnel = [(s - 1, s - 1, scale * params.couplings[s]) for s in range(1, 5)]
    links = [(0, 1, np.conj(scale * params.tilde12())),
             (2, 3, np.conj(scale * params.tilde43()))]
    return _toy(4, params.eps_plus, params.eps_minus, tunnel, links,
                {"p12": (0, 1), "p34": (2, 3)})


# --------------------------------------------------------------------------
# nested-commutator Majorana mode expansion
# --------------------------------------------------------------------------

def quadratic_from_bdg(h: np.ndarray) -> np.ndarray:
    """Real antisymmetric A with H = (i/4) sum_ab A_ab gamma_a gamma_b for
    the BdG block h (Nambu-innermost), using gamma_{2x} = c_x + c_x^dag,
    gamma_{2x+1} = i(c_x^dag - c_x)."""
    if h.ndim != 2 or h.shape[0] != h.shape[1] or h.shape[0] % 2:
        raise ValueError(f"BdG block must be square with an even size, "
                         f"got shape {h.shape}")
    # b = s^H h s with s = [[1, i], [1, -i]]/2 per site (particle row:
    # c_x = (g_A + i g_B)/2, hole row: c_x^dag), rows first, then columns
    m = np.empty(h.shape, dtype=complex)
    m[0::2] = (h[0::2] + h[1::2]) / 2
    m[1::2] = -1j * (h[0::2] - h[1::2]) / 2
    b = np.empty(h.shape, dtype=complex)
    b[:, 0::2] = (m[:, 0::2] + m[:, 1::2]) / 2
    b[:, 1::2] = 1j * (m[:, 0::2] - m[:, 1::2]) / 2
    a = -1j * (b - b.T)
    if np.abs(a.imag).max() > 1e-10 * max(np.abs(a).max(), 1e-300):
        raise ValueError("BdG block did not map to a real antisymmetric form")
    return a.real


def zero_mode_seeds(a0: np.ndarray, tol: float = 1e-6) -> np.ndarray:
    """Orthonormal near-kernel vectors of A0 (columns); the seeds of the
    zero-mode expansion.  Raises if none exist, reporting the kernel size.
    Every seed v has |A0 v| <= tol * max(||A0||_2, 1), the bound that
    `majorana_mode_expansion` checks."""
    w, v = np.linalg.eigh(1j * a0)
    bound = tol * max(np.abs(w).max(), 1.0)      # max |w| = ||A0||_2
    keep = np.abs(w) <= bound
    if not keep.any():
        raise ValueError(
            f"h0 has no (near-)kernel at tolerance {tol}: kernel dimension 0"
        )
    # realify: A0 is real, so the kept space is closed under conjugation and
    # the leading left singular vectors of its real and imaginary parts span it
    cols = v[:, keep]
    u = np.linalg.svd(np.hstack([cols.real, cols.imag]))[0][:, :keep.sum()]
    out = u[:, np.linalg.norm(a0 @ u, axis=0) <= bound]
    if out.shape[1] == 0:
        raise ValueError("failed to realify the kernel basis")
    return out


def pi_mode_seeds(a0: np.ndarray, a1: np.ndarray, omega: float,
                  tol: float = 1e-6) -> list[np.ndarray]:
    """Complex seed vectors v with i A0 v + i A1 conj(v)/2 = (omega/2) v,
    i.e. the real block eigenproblem
        [[0, X], [Y, 0]] (x; y) = (omega/2) (x; y),
    X = -A0 + A1/2, Y = A0 + A1/2, for v = x + i y.  It is solved at half
    size: the block's eigenpairs are (+-sqrt(mu), (x; +-Y x / sqrt(mu)))
    for the eigenpairs (mu, x) of X Y.  Raises when no block eigenvalue
    sits near omega/2."""
    x_op, y_op = -a0 + a1 / 2, a0 + a1 / 2
    xy = x_op @ y_op
    # one batched eig per size of XY's components (real couplings make A0
    # and A1 bipartite, so XY splits in two); xs holds them as columns
    solved = [(rows, *np.linalg.eig(xy[rows[:, :, None], rows[:, None, :]]))
              for rows in _blocks((xy != 0) | (xy.T != 0))]
    mu = np.concatenate([m.ravel() for _, m, _ in solved])
    xs = np.zeros(xy.shape, dtype=complex)
    start = 0
    for rows, m, v in solved:
        c = start + np.arange(m.size).reshape(m.shape)
        xs[rows[:, :, None], c[:, None, :]] = v
        start += m.size
    w = np.sqrt(mu.astype(complex))          # the root that can near +omega/2
    sel = np.nonzero((np.abs(w.imag) < 1e-8)
                     & (np.abs(w.real - omega / 2) <= tol * omega))[0]
    if sel.size == 0:
        raise ValueError(
            f"no pi-mode seed: no block eigenvalue within {tol * omega:.2e} "
            f"of omega/2 (kernel dimension 0)"
        )
    sel = sel[np.argsort(np.abs(w[sel].real - omega / 2), kind="stable")]
    seeds = []
    for idx in sel:
        x = xs[:, idx].real
        vec = x + 1j * (y_op @ x / w[idx].real)      # |vec| >= |x| = 1
        seeds.append(vec / np.linalg.norm(vec))
    return seeds


def _nu(m: int, species: str) -> float:
    """Frequency of expansion component m in units of omega: m for zero
    modes, m - 1/2 for pi modes (period 2T)."""
    return m - 0.5 if species == "pi" else float(m)


@dataclass
class ModeExpansion:
    """Fourier components of a candidate Majorana operator.

    components[m] is the coefficient vector of exp(i nu_m omega t) with
    nu_m = m for species 'zero' and nu_m = m - 1/2 for species 'pi'
    (period 2T).  residual_history[k] is the Sambe-Frobenius norm of
    [H - i d/dt, gamma] after k correction orders.
    """

    species: str
    omega: float
    components: dict[int, np.ndarray]
    residual_history: list[float]

    def frequency(self, m: int) -> float:
        return _nu(m, self.species) * self.omega

    def at_time(self, t: float) -> np.ndarray:
        out = 0
        for m, v in self.components.items():
            out = out + v * np.exp(1j * self.frequency(m) * t)
        return out

    def hermiticity_defect(self, times: np.ndarray) -> float:
        """Max norm of Im(coefficient vector) over the sampled times; zero
        for an operator that is Hermitian at every instant."""
        worst = 0.0
        for t in times:
            vec = self.at_time(t)
            worst = max(worst, float(np.abs(vec.imag).max()))
        return worst


def _expansion_residual(
    comp: dict[int, np.ndarray], a0: np.ndarray, a1: np.ndarray,
    omega: float, species: str,
) -> dict[int, np.ndarray]:
    """Components of [H - i d/dt, gamma] on the expansion's frequency grid."""
    ms = sorted(comp)
    lo, hi = ms[0] - 1, ms[-1] + 1
    res = {}
    for m in range(lo, hi + 1):
        v = comp.get(m)
        vm = comp.get(m - 1)
        vp = comp.get(m + 1)
        acc = np.zeros(a0.shape[0], dtype=complex)
        if v is not None:
            acc = acc + 1j * (a0 @ v) + _nu(m, species) * omega * v
        if vm is not None:
            acc = acc + 0.5j * (a1 @ vm)
        if vp is not None:
            acc = acc + 0.5j * (a1 @ vp)
        res[m] = acc
    return res


def _residual_norm(res: dict[int, np.ndarray]) -> float:
    return float(np.sqrt(sum(float(np.vdot(v, v).real) for v in res.values())))


def majorana_mode_expansion(
    a0: np.ndarray,
    a1: np.ndarray,
    seed: np.ndarray,
    species: str,
    order: int,
    omega: float = TWO_PI,
    seed_tol: float = 1e-6,
    first_order_pi_coeffs: tuple[float, float] | None = None,
) -> ModeExpansion:
    """Order-by-order construction of a zero or pi Majorana operator.

    Operators are linear in the Majorana basis: gamma(v) = sum_a v_a
    gamma_a, with [H, gamma(v)] = gamma(i A v) for H = (i/4) A_ab g_a g_b.
    Each correction order cancels the off-resonant residual components
    with delta_v = -R_m / (nu_m omega); resonant components (frequency 0
    for zero modes, -+omega/2 for pi modes) are reduced with a pseudo-
    inverse of (iA0 + nu omega), taken from one eigendecomposition of the
    Hermitian iA0 per call, leaving the irreducible part.

    For pi modes the first correction order can be forced to use explicit
    coefficients (a, b): delta at e^{-3 i w t/2} = a [h1, seed]/(2w) and at
    e^{+3 i w t/2} = b [h1, seed^dag]/(2w).  a = 2/3, b = -2/3 is the
    leading-order value: it cancels the nu*w part of the residual at
    -+3w/2, and b = -a keeps the operator Hermitian at every instant.  The
    i A0 term moves the residual minimum along b = -a (about (0.72, -0.72)
    on a 60-site pi chain), and no fixed pair matches the generic sweep,
    which resums i A0.  Passing other values reproduces published variants
    for comparison.
    """
    if species not in ("zero", "pi"):
        raise ValueError(f"species must be 'zero' or 'pi', got {species!r}")
    spec_a0, vecs_a0 = np.linalg.eigh(1j * a0)
    # complex copies, once: numpy casts a real matrix on every product with
    # a complex vector
    a0c, a1c = a0.astype(complex), a1.astype(complex)
    if species == "zero":
        kick = np.linalg.norm(a0 @ seed)
        # max |eigenvalue| of the Hermitian i A0 is ||A0||_2
        if kick > seed_tol * max(np.abs(spec_a0).max(), 1.0):
            kdim = zero_mode_seeds(a0, tol=seed_tol).shape[1] if kick else 0
            raise ValueError(
                f"seed does not commute with h0 (|A0 v| = {kick:.3e}); "
                f"near-kernel dimension is {kdim}"
            )
        comp = {0: np.array(seed, dtype=complex)}
    else:
        lhs = 1j * (a0c @ seed) + 0.5j * (a1c @ seed.conj()) - (omega / 2) * seed
        if np.linalg.norm(lhs) > seed_tol * omega:
            raise ValueError(
                f"pi seed violates the omega/2 eigencondition by "
                f"{np.linalg.norm(lhs):.3e}"
            )
        comp = {0: np.array(seed, dtype=complex),
                1: np.array(seed.conj(), dtype=complex)}

    res = _expansion_residual(comp, a0c, a1c, omega, species)
    history = [_residual_norm(res)]

    for k in range(1, order + 1):
        if species == "pi" and k == 1 and first_order_pi_coeffs is not None:
            a_c, b_c = first_order_pi_coeffs
            x = 1j * (a1c @ comp[0])       # [h1, gamma(seed)]
            y = 1j * (a1c @ comp[1])       # [h1, gamma(seed^dag)]
            comp[-1] = comp.get(-1, 0) + a_c * x / (2 * omega)
            comp[2] = comp.get(2, 0) + b_c * y / (2 * omega)
        else:
            for m, r in res.items():
                if np.linalg.norm(r) == 0:
                    continue
                # Cancel through (iA0 + nu w) delta = -R.  The bare
                # recursion keeps only the nu*w denominator; resumming iA0
                # tightens the per-order ratio to ~||h1||/w wherever the
                # operator is safely invertible.  In frequency sectors the
                # h0 spectrum reaches (nu = -+1/2 for pi modes, nu = 0 for
                # zero modes at gapless points) the solve is trimmed:
                # eigen-directions with |w + nu w| below 0.1 * omega (at
                # nu = 0, where only the near-kernel needs protecting, below
                # 1e-6 * omega) are dropped, leaving the irreducible part.
                nu = _nu(m, species)
                shifted = spec_a0 + nu * omega
                sigma_min = 1e-6 * omega if nu == 0 else 0.1 * omega
                keep = np.abs(shifted) >= sigma_min
                delta = vecs_a0[:, keep] @ (
                    (vecs_a0[:, keep].conj().T @ (-r)) / shifted[keep])
                comp[m] = comp.get(m, 0) + delta
        res = _expansion_residual(comp, a0c, a1c, omega, species)
        history.append(_residual_norm(res))

    return ModeExpansion(species=species, omega=omega, components=comp,
                         residual_history=history)


def pi_first_order_residual(
    a0: np.ndarray, a1: np.ndarray, seed: np.ndarray,
    coeffs: tuple[float, float], omega: float = TWO_PI,
    seed_tol: float = 0.2,
) -> float:
    """Residual norm after the first pi-mode correction built with the
    explicit (a, b) coefficients; used to probe the coefficient choice."""
    exp = majorana_mode_expansion(
        a0, a1, seed, "pi", order=1, omega=omega, seed_tol=seed_tol,
        first_order_pi_coeffs=coeffs,
    )
    return exp.residual_history[-1]
