"""Sambe-space quasienergy solver and Majorana corner-mode extraction.

The extended-space (Sambe) matrix has blocks
    [H]_{nm} = h^(n-m) + n * omega * delta_{nm} * 1,
n, m = -M..M.  Its spectrum repeats each physical quasienergy once per
replica shift by omega, so one representative of every state is the
eigenvalue in the central zone (-omega/2, omega/2].  Only that slice is
solved for; a zone holding any count other than `blockdim` means the
cutoff is too small, and the solve fails loudly.

Half-size solve: an operator that carries a `lattice.Mirror` R (every
lattice and chain built in `lattice`) has real harmonics in the basis
W = (1 + iR)/sqrt(2).  There particle-hole symmetry times R is the
permutation J = tau_x (x) P_n (P_n sends harmonic n to -n), which
anticommutes with the real Sambe matrix, so K' = [[0, B], [B^T, 0]] in J's
eigenbasis and the spectrum is +-sigma over the singular values of B.
Only B is assembled and solved, with one dense eigensolve (of B^T B, for
its d/2 + 1 smallest eigenvalues) and, when the zero window is not empty,
one LU of B; only the kept zero and pi vectors are rebuilt from its
singular pairs and mapped back to sites.  Operators without a mirror stay
complex.

Bloch blocks: a periodic-both lattice is block-diagonal in crystal
momentum.  A batched operator (one 4x4 block per k, from
`build_momentum_bdg` on arrays of momenta) is assembled as the stack of
its complex Sambe matrices and solved for eigenvalues only, in one batched
call, with the zone count checked per block.

Species windows: a mode is `zero` if its quasienergy lies within tol_zero
of 0, and `pi` if it lies within tol_pi of +-omega/2 on the quasienergy
circle.  Pi modes are re-represented at the +omega/2 boundary
(replica-shifting their harmonics by round((omega/2 - eps_raw)/omega)),
which aligns all members of a pi cluster to a common harmonic ladder; this
alignment is what makes the corner-basis rotation meaningful.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from cornerlab.lattice import DrivenBdG, Mirror


@dataclass(frozen=True)
class SambeMatrix:
    """Assembled extended-space matrix with cutoff M (blocks n = -M..M):
    the real half-size block B, of size dim/2, if `mirror` is set, else the
    complex Hermitian Sambe matrix in the site basis."""

    m_cutoff: int
    blockdim: int
    omega: float
    matrix: np.ndarray
    mirror: Mirror | None = None

    @property
    def dim(self) -> int:
        return (2 * self.m_cutoff + 1) * self.blockdim


@dataclass
class FloquetMode:
    """One quasienergy solution with harmonic-resolved spatial amplitudes.

    components[i] is the spatial vector of harmonic n = i - m_cutoff; the
    total weight sums to 1.  For species 'pi' the quasienergy is reported
    at the +omega/2 boundary representative (it may exceed omega/2 by up
    to the species tolerance).
    """

    quasienergy: float
    components: np.ndarray   # shape (2M+1, blockdim)
    species: str             # "zero" | "pi" | "bulk"
    omega: float

    @property
    def m_cutoff(self) -> int:
        return (self.components.shape[0] - 1) // 2

    def harmonic(self, n: int) -> np.ndarray:
        if abs(n) > self.m_cutoff:
            raise IndexError(f"harmonic {n} outside the cutoff M = {self.m_cutoff}")
        return self.components[n + self.m_cutoff]


@dataclass
class SpectrumResult:
    """Folded quasienergy spectrum plus the modes near 0 and +-omega/2.

    Counts, gaps and the window quasienergies come from `quasienergies`
    and the species windows alone, so a result without modes (a stack of
    Bloch blocks, solved for eigenvalues only) is complete."""

    quasienergies: np.ndarray          # sorted, folded to (-omega/2, omega/2]
    modes: list[FloquetMode]
    gaps: tuple[float, float]          # (gap around 0, gap around omega/2)
    omega: float
    tol_zero: float
    tol_pi: float

    def modes_of(self, species: str) -> list[FloquetMode]:
        return [m for m in self.modes if m.species == species]

    def species(self) -> list[str]:
        """Per entry of `quasienergies`: 'zero' within tol_zero of 0, else
        'pi' within tol_pi of +-omega/2 on the quasienergy circle, else
        'bulk'."""
        e, w = self.quasienergies, self.omega
        return np.where(np.abs(e) <= self.tol_zero, "zero", np.where(
            circular_distance(e, w / 2, w) <= self.tol_pi, "pi",
            "bulk")).tolist()

    def window_quasienergies(self, species: str) -> list[float]:
        """Sorted quasienergies of one species, pi entries at their +omega/2
        representative: the quasienergies of the matching `modes`."""
        w = self.omega
        return sorted(float(e) + _pi_shift(e, s, w) * w
                      for e, s in zip(self.quasienergies, self.species())
                      if s == species)

    def counts(self) -> dict[str, int]:
        labels = self.species()
        return {s: labels.count(s) for s in ("zero", "pi")}


def _check_particle_hole(real: dict[int, np.ndarray]) -> None:
    """Raise ValueError unless tau_x h'^(-k) tau_x = -h'^(k) for every
    real-basis harmonic, i.e. unless J anticommutes with K'."""
    for k, h in real.items():
        swap = np.arange(len(h)) ^ 1      # tau_x: particle <-> hole columns
        defect = np.abs(h[1::2] + real[-k][0::2, swap]).max(initial=0.0)
        if defect > 1e-12 * np.abs(h).max(initial=0.0):
            raise ValueError(f"harmonic {k} breaks particle-hole symmetry: "
                             f"defect {defect:.3e} in the real basis")


def assemble_sambe(bdg: DrivenBdG, M: int) -> SambeMatrix:
    """Block-assemble the Sambe matrix for harmonic cutoff M >= 0 (M = 0
    only for static operators).  A batched operator (Bloch blocks) gives
    the stack of their complex Sambe matrices, leading axes first.

    With a mirror, each harmonic is first taken to the real basis (raising
    ValueError if one breaks the mirror or particle-hole symmetry) and only
    the half-size block B is assembled, from (2M+1)^2 blocks of size d/2:
        B_nm = h'^(n-m)_pp + n * omega * delta_nm - h'^(n+m)_ph,
    a block-Toeplitz particle-particle part minus a block-Hankel
    particle-hole part.  Neither the complex nor the full real Sambe matrix
    is formed.
    """
    if M < 0:
        raise ValueError(f"need M >= 0, got {M}")
    if bdg.max_harmonic > 2 * M:
        raise ValueError("cutoff M too small for the harmonic content")
    # (sign s, offset c, block): block (n, m) with m = s * n + c gets `block`
    if bdg.mirror is None:
        e, dtype = bdg.dim, complex
        terms = [(1, -k, h) for k, h in bdg.harmonics.items()]
    else:
        real = {k: bdg.mirror.to_real(h, k) for k, h in bdg.harmonics.items()}
        _check_particle_hole(real)
        e, dtype = bdg.dim // 2, float
        terms = [t for k, h in real.items()
                 for t in ((1, -k, h[0::2, 0::2]), (-1, k, -h[0::2, 1::2]))]
    D = (2 * M + 1) * e
    H = np.zeros(bdg.batch + (D, D), dtype=dtype)
    for s, c, block in terms:
        for n in range(-M, M + 1):
            m = s * n + c
            if abs(m) <= M:
                H[..., (n + M) * e:(n + M + 1) * e,
                  (m + M) * e:(m + M + 1) * e] += block
    diag = np.arange(D)
    H[..., diag, diag] += np.repeat(np.arange(-M, M + 1) * bdg.omega, e)
    return SambeMatrix(m_cutoff=M, blockdim=bdg.dim, omega=bdg.omega,
                       matrix=H, mirror=bdg.mirror)


def circular_distance(eps, target, omega):
    """Distance between quasienergies on the circle of circumference omega."""
    d = np.asarray(eps, dtype=float) - target
    return np.abs(d - omega * np.round(d / omega))


def _pi_shift(eps: float, species: str, omega: float) -> int:
    """Replica shift k taking a pi quasienergy to its +omega/2 representative
    eps + k * omega; 0 for the other species."""
    return int(round((omega / 2 - eps) / omega)) if species == "pi" else 0


def _shift_components(comp: np.ndarray, k: int) -> np.ndarray:
    """Replica shift by k: new^(n) = old^(n-k); the weight truncated at the
    cutoff (at most the outermost harmonic's) is restored by renormalizing."""
    if k == 0:
        return comp.copy()
    out = np.zeros_like(comp)
    if k > 0:
        out[k:] = comp[:-k]
    else:
        out[:k] = comp[-k:]
    return out / np.sqrt((np.abs(out) ** 2).sum())


def _zero_window_left(B: np.ndarray, V: np.ndarray) -> np.ndarray:
    """Orthonormal basis of B^-T V, from one LU of B^T: for right singular
    vectors v_i it spans the left ones, since B^-T v_i = u_i / sigma_i, and
    an error in v_i along v_j enters scaled by sigma_i / sigma_j.  Pivots
    below eps * max|u_jj| are floored to that size (a backward perturbation
    of eps * ||B||, as in LAPACK's inverse iteration), so an exactly
    singular B is solved too."""
    from scipy.linalg import lapack

    lu, piv, _ = lapack.dgetrf(B.T)
    pivots = np.abs(lu.diagonal())
    floor = np.finfo(float).eps * pivots.max()
    small = np.flatnonzero(pivots < floor)
    lu[small, small] = np.copysign(floor, lu[small, small])
    X, _ = lapack.dgetrs(lu, piv, V)
    return np.linalg.qr(X)[0]


def quasienergy_spectrum(
    sambe: SambeMatrix,
    tol_zero: float | None = None,
    tol_pi: float | None = None,
) -> SpectrumResult:
    """Solve the central Floquet zone and package the Majorana modes.

    The folded quasienergies are the Sambe eigenvalues in (-omega/2,
    omega/2], one per state; RuntimeError unless there are `blockdim`.  For
    B they are +-sigma for each singular value sigma < omega/2: an
    eigensolve of B^T B for its d/2 + 1 smallest eigenvalues counts them
    (exactly, if the last lies above (omega/2)^2; else a values-only count
    of the zone precedes the error) and gives the right vectors V, and a
    thin SVD of B V (Rayleigh-Ritz) gives sigma to eps * ||B||, which the
    squared eigenvalues lose near 0.  Its left vectors B v / sigma err by
    eps * ||B||^2 / sigma, so in the zero window they span B^-T V instead,
    from one LU of B (`_zero_window_left`), and are paired with V by an
    SVD of the small block L^T B V.  Elsewhere B v / sigma stays: it errs
    little where sigma is not small, and B^-T would magnify errors along
    the smaller sigma_j.
    Tolerances default to 1e-3 * omega.  Only vectors in the zero/pi windows
    are kept: +-sigma has (u +- v)/2 on the particles of harmonic n and
    (u -+ v)/2 on the holes of -n, mapped back to sites.  Pi modes near
    -omega/2 are shifted to the +omega/2 representative.
    A stack of Bloch-block Sambe matrices is solved for eigenvalues only,
    in one batched call; each block's zone must hold `blockdim` states, and
    the result holds their union and no modes.
    """
    w = sambe.omega
    if tol_zero is None:
        tol_zero = 1e-3 * w
    if tol_pi is None:
        tol_pi = 1e-3 * w
    M, d = sambe.m_cutoff, sambe.blockdim
    B = sambe.matrix
    if B.ndim == 2:
        # scipy.linalg costs ~0.1 s to import; only real-space solves pay it
        import scipy.linalg
    try:
        if B.ndim > 2:
            evals = np.linalg.eigvalsh(B.reshape((-1,) + B.shape[-2:]))
            zone = (evals > -w / 2) & (evals <= w / 2)
            held, evals = zone.sum(axis=1), np.sort(evals[zone])
        elif sambe.mirror is None:
            evals, evecs = scipy.linalg.eigh(
                B, subset_by_value=(-w / 2, w / 2), driver="evr")
            held = evals.size
        else:
            # B^T B is symmetric: its transpose is Fortran-ordered, no copy.
            # Asked for by index, the vectors take n x (d/2 + 1), not n x n.
            last = min(d // 2, len(B) - 1)
            lam, V = scipy.linalg.eigh((B.T @ B).T, driver="evr", overwrite_a=True,
                                       subset_by_index=(0, last))
            held = 2 * np.count_nonzero(lam <= (w / 2) ** 2)
            if held > d:
                # every state asked for is in the zone: count them all
                held = 2 * scipy.linalg.eigh(
                    B.T @ B, eigvals_only=True, driver="evr",
                    subset_by_value=(-1.0, (w / 2) ** 2)).size
            if held == d:
                U, sigma, Zt = scipy.linalg.svd(B @ V[:, :d // 2],
                                                full_matrices=False)
                V = V[:, :d // 2] @ Zt.T
                n0 = int(np.count_nonzero(sigma <= tol_zero))
                if n0:
                    # two-sided Rayleigh-Ritz on the zero window's subspaces
                    L = _zero_window_left(B, V[:, -n0:])
                    Y, sigma[-n0:], Wt = scipy.linalg.svd(L.T @ B @ V[:, -n0:])
                    U[:, -n0:], V[:, -n0:] = L @ Y, V[:, -n0:] @ Wt.T
                evals = np.concatenate([-sigma, sigma[::-1]])
    except np.linalg.LinAlgError as exc:
        raise RuntimeError(f"Sambe eigensolver failed: {exc}") from exc
    held = np.atleast_1d(held)
    bad = np.flatnonzero(held != d)
    if bad.size:
        where = f" of k-block {bad[0]}" if B.ndim > 2 else ""
        raise RuntimeError(
            f"central Floquet zone{where} holds {held[bad[0]]} states, not "
            f"blockdim = {d}, at cutoff M = {M}: raise the cutoff")

    result = SpectrumResult(evals, [], (np.inf, np.inf), w, tol_zero, tol_pi)
    labels = result.species()
    for i, (eps, species) in enumerate(zip(evals, labels)):
        if B.ndim > 2 or species == "bulk":
            continue
        if sambe.mirror is None:
            comp = evecs[:, i].reshape(2 * M + 1, d)
        else:
            j = min(i, d - 1 - i)                  # singular pair of +-sigma_j
            u, v = U[:, j], (1 if i >= d // 2 else -1) * V[:, j]
            comp = np.empty((2 * M + 1, d))
            comp[:, 0::2] = ((u + v) / 2).reshape(2 * M + 1, d // 2)
            comp[::-1, 1::2] = ((u - v) / 2).reshape(2 * M + 1, d // 2)
            comp = sambe.mirror.to_site(comp)
        k = _pi_shift(eps, species, w)
        result.modes.append(FloquetMode(float(eps) + k * w,
                                        _shift_components(comp, k), species, w))

    zero_d = np.sort(np.abs(evals))
    pi_d = np.sort(circular_distance(evals, w / 2, w))
    result.gaps = tuple(float(dist[n]) if n < evals.size else np.inf
                        for dist, n in ((zero_d, labels.count("zero")),
                                        (pi_d, labels.count("pi"))))
    return result


def _site_probability(mode: FloquetMode) -> np.ndarray:
    """Per-site probability, summed over harmonics and the Nambu pair."""
    p = (np.abs(mode.components) ** 2).sum(axis=0)
    return p[0::2] + p[1::2]


def _quadrant_values(shape: tuple[int, int]) -> np.ndarray:
    """Site -> quadrant label (0..3): x-half + 2 * y-half."""
    Lx, Ly = shape
    s = np.arange(Lx * Ly)
    return (s % Lx >= Lx // 2) + 2.0 * (s // Lx >= Ly // 2)


def corner_basis_rotation(
    modes: list[FloquetMode], shape: tuple[int, int]
) -> list[FloquetMode]:
    """Rotate a (near-)degenerate cluster to corner-localized representatives.

    Diagonalizes the position-quadrant weight matrix
        Q_ab = sum_n <psi_a^(n)| diag(quadrant) |psi_b^(n)>
    within the cluster.  All cluster members must share a species (their
    harmonics are then aligned to a common ladder by construction).
    Quasienergies of the rotated modes are expectation values of the
    cluster's diagonal quasienergy matrix in the rotated basis.
    """
    if not modes:
        return []
    species = {m.species for m in modes}
    if len(species) > 1:
        raise ValueError(f"cluster mixes species {species}")
    Lx, Ly = shape
    d = modes[0].components.shape[1]
    if d != 2 * Lx * Ly:
        raise ValueError(f"shape {shape} does not match blockdim {d}")
    C = np.stack([m.components for m in modes])          # (k, 2M+1, d)
    Q = np.einsum("anx,x,bnx->ab", C.conj(),
                  np.repeat(_quadrant_values(shape), 2), C)
    _, U = np.linalg.eigh((Q + Q.conj().T) / 2)
    eps = np.array([m.quasienergy for m in modes])
    out = []
    for c, comp in enumerate(np.einsum("ac,anx->cnx", U, C)):
        comp = comp / np.sqrt((np.abs(comp) ** 2).sum())
        e_rot = float(np.abs(U[:, c]) ** 2 @ eps)
        out.append(FloquetMode(e_rot, comp, modes[0].species, modes[0].omega))
    return out


def corner_localization(
    mode: FloquetMode, corner_frac: float, shape: tuple[int, int]
) -> np.ndarray:
    """Probability weight in the four corner blocks of side
    corner_frac*Lx x corner_frac*Ly, ordered (x-low,y-low), (x-high,y-low),
    (x-low,y-high), (x-high,y-high)."""
    if not 0 < corner_frac <= 0.5:
        raise ValueError(f"corner_frac must be in (0, 0.5], got {corner_frac}")
    Lx, Ly = shape
    site_p = _site_probability(mode)
    if site_p.size != Lx * Ly:
        raise ValueError(f"shape {shape} does not match mode size {site_p.size}")
    wx = max(1, int(round(corner_frac * Lx)))
    wy = max(1, int(round(corner_frac * Ly)))
    grid = site_p.reshape(Ly, Lx)
    xs, ys = (slice(0, wx), slice(Lx - wx, Lx)), (slice(0, wy), slice(Ly - wy, Ly))
    return np.array([grid[y, x].sum() for y in ys for x in xs])


def fourier_weight_profile(mode: FloquetMode) -> dict[int, float]:
    """Harmonic-resolved weights ||psi^(n)||^2, summing to 1."""
    M = mode.m_cutoff
    w = (np.abs(mode.components) ** 2).sum(axis=1)
    return {n - M: float(w[n]) for n in range(2 * M + 1)}
