import dataclasses
import subprocess
import sys

import numpy as np
import pytest

from cornerlab import floquet, lattice
from cornerlab.floquet import (
    assemble_sambe,
    circular_distance,
    corner_basis_rotation,
    corner_localization,
    fourier_weight_profile,
    quasienergy_spectrum,
)
from cornerlab.lattice import DrivenBdG, fig_s1_params, kitaev_chain_bdg

W = 2 * np.pi


def driven_toy(rng, d=6, scale=0.5):
    h0 = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    h0 = (h0 + h0.conj().T) / 2
    h1 = scale * (rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
    return DrivenBdG({0: h0, 1: h1, -1: h1.conj().T}, W)


def test_assemble_validation():
    bdg = kitaev_chain_bdg(2, 1.0, 1.0, 0.0, 0.3)
    with pytest.raises(ValueError):
        assemble_sambe(bdg, 0)


def test_sambe_dimensions():
    bdg = kitaev_chain_bdg(4, 1.0, 1.0, 0.1, 0.3)   # blockdim 8
    sm = assemble_sambe(bdg, 3)
    assert sm.dim == 56 and sm.matrix.shape == (28, 28)
    site = _site_sambe(bdg, 3)
    assert site.shape == (56, 56)
    assert np.abs(site - site.conj().T).max() < 1e-12


def test_static_replica_structure():
    bdg = kitaev_chain_bdg(3, 0.8, 0.5, 0.3, 0.0)
    h0 = np.asarray(bdg.component(0))
    base = np.linalg.eigvalsh(h0)
    # the real Sambe matrix [[0, B], [B^T, 0]] has spectrum +-sigma(B)
    sigma = np.linalg.svd(assemble_sambe(bdg, 2).matrix, compute_uv=False)
    full = np.sort(np.concatenate([sigma, -sigma]))
    expect = np.sort(np.concatenate([base + n * W for n in range(-2, 3)]))
    assert np.abs(full - expect).max() < 1e-10
    # a static operator needs no replicas: M = 0 is h^(0) itself
    static = DrivenBdG({0: h0}, W)
    assert np.array_equal(assemble_sambe(static, 0).matrix, h0)


def test_static_kitaev_zero_modes():
    bdg = kitaev_chain_bdg(8, J=1.0, Delta=1.0, mu0=0.0, mu1=0.0)
    spec = quasienergy_spectrum(assemble_sambe(bdg, 2))
    assert spec.counts() == {"zero": 2, "pi": 0}
    # B is exactly singular here: the left vectors must still solve K x = 0
    site = _site_sambe(bdg, 2)
    for mode in spec.modes:
        x = mode.components.ravel()
        assert np.linalg.norm(site @ x - mode.quasienergy * x) <= 1e-12


def test_dedup_keeps_blockdim_states(rng):
    bdg = driven_toy(rng)
    spec = quasienergy_spectrum(assemble_sambe(bdg, 5))
    assert spec.quasienergies.size == bdg.dim


def _problem(name, rng):
    """(driven operator, cutoff, is BdG): Kitaev chains of 6 ("chain") or
    n ("chain<n>") sites, the 4x4 open lattice ("lattice"), 4x6 lattices
    named by boundary, and the random toy ("toy"), which has no mirror."""
    if name.startswith("chain"):
        n = int(name[5:] or 6)
        return kitaev_chain_bdg(n, 1.3, 0.9, 0.7, 1.1), 5, True
    if name == "lattice":
        return lattice.build_realspace_bdg(fig_s1_params(Nx=2, Ny=2)), 4, True
    if name in lattice.BOUNDARIES:
        p = fig_s1_params(2, 3, boundary=name)
        return lattice.build_realspace_bdg(p), 4, True
    return driven_toy(rng), 5, False


def _site_sambe(bdg, M):
    """Complex site-basis Sambe matrix of the same harmonics, no mirror."""
    return assemble_sambe(DrivenBdG(bdg.harmonics, bdg.omega), M).matrix


@pytest.fixture()
def raw_vectors(monkeypatch):
    """Each kept eigenvector, in the site basis, before its replica shift:
    maps id(mode.components) to (raw components, shift k)."""
    raw = {}
    shift = floquet._shift_components

    def recording_shift(comp, k):
        out = shift(comp, k)
        raw[id(out)] = (comp.copy(), k)
        return out

    monkeypatch.setattr(floquet, "_shift_components", recording_shift)
    return raw


@pytest.mark.parametrize("name", ["chain", "chain7", "lattice", "periodic-x",
                                  "periodic-both", "toy"])
def test_central_zone_matches_dense_oracle(name, rng, raw_vectors):
    bdg, M, is_bdg = _problem(name, rng)
    sm = assemble_sambe(bdg, M)
    # windows of W/4 make every state a zero or pi mode
    spec = quasienergy_spectrum(sm, tol_zero=W / 4, tol_pi=W / 4)
    eps = spec.quasienergies

    site = _site_sambe(bdg, M)
    dense = np.linalg.eigvalsh(site)
    zone = np.sort(dense[(dense > -W / 2) & (dense <= W / 2)])
    assert eps.size == zone.size == sm.blockdim
    assert np.abs(eps - zone).max() <= 1e-10

    # the kept vectors are in the site basis, whatever basis sm.matrix is in
    assert len(spec.modes) == sm.blockdim
    h_norm = np.linalg.norm(site, 2)
    for mode in spec.modes:
        comp, k = raw_vectors[id(mode.components)]
        assert comp.dtype == np.complex128
        v = comp.ravel()
        lam = mode.quasienergy - k * W
        assert np.linalg.norm(site @ v - lam * v) <= 1e-9 * h_norm
        assert circular_distance(eps, mode.quasienergy, W).min() <= 1e-12
    if is_bdg:
        # -eps stays in the zone (so the spectrum is particle-hole paired
        # with itself) only while no state sits on the boundary +-W/2
        assert np.abs(np.abs(eps) - W / 2).min() > 1e-12
        assert np.abs(eps - np.sort(-eps)).max() <= 1e-12


@pytest.mark.parametrize("name", ["chain", "chain7", *lattice.BOUNDARIES])
def test_real_path_matches_complex(name, rng):
    bdg, M, _ = _problem(name, rng)
    real = assemble_sambe(bdg, M)
    cplx = assemble_sambe(DrivenBdG(bdg.harmonics, bdg.omega), M)
    assert real.matrix.dtype == np.float64 and real.mirror is bdg.mirror
    assert real.matrix.shape == (real.dim // 2, real.dim // 2)
    assert cplx.matrix.dtype == np.complex128 and cplx.mirror is None
    a = quasienergy_spectrum(real).quasienergies
    b = quasienergy_spectrum(cplx).quasienergies
    assert np.abs(a - b).max() <= 1e-12


def _real_sambe(bdg, M):
    """The full real Sambe matrix K' of a mirrored operator, assembled by the
    complex path from its real-basis harmonics."""
    real = {k: bdg.mirror.to_real(h, k) for k, h in bdg.harmonics.items()}
    full = assemble_sambe(DrivenBdG(real, bdg.omega), M).matrix
    assert not full.imag.any()
    return full.real


def _j_perm(M, d):
    """J = tau_x (x) P_n as an index map: (harmonic n, site, particle/hole)
    goes to (-n, site, hole/particle)."""
    n, a = np.divmod(np.arange((2 * M + 1) * d), d)
    return (2 * M - n) * d + (a ^ 1)


@pytest.mark.parametrize("name", ["open", "periodic-x", "periodic-both",
                                  "chain60", "chain61"])
def test_j_anticommutes_and_b_is_its_block(name, rng):
    bdg, _, _ = _problem(name, rng)
    M = 3
    full = _real_sambe(bdg, M)
    J = _j_perm(M, bdg.dim)
    assert np.abs(full[np.ix_(J, J)] + full).max() == 0.0
    # B = K'[S, S] - K'[S, JS] with S the particle entries
    S = np.arange(full.shape[0])[0::2]
    B = assemble_sambe(bdg, M).matrix
    assert np.abs(B - (full[np.ix_(S, S)] - full[np.ix_(S, J[S])])).max() == 0.0


def test_particle_hole_breaking_harmonic_raises():
    p = fig_s1_params(2, 2)
    bdg = lattice.build_realspace_bdg(p)
    # a shift of every Nambu component alike keeps the mirror but is no BdG term
    h = bdg.harmonics
    h[0] = h[0] + 0.1 * np.eye(bdg.dim)
    broken = DrivenBdG(h, bdg.omega, bdg.mirror)
    with pytest.raises(ValueError, match="harmonic 0 breaks particle-hole"):
        assemble_sambe(broken, 2)


def test_near_zero_sigma_match_gesdd():
    import scipy.linalg

    bdg = lattice.build_realspace_bdg(fig_s1_params(Nx=4, Ny=4))
    sm = assemble_sambe(bdg, 4)
    eps = quasienergy_spectrum(sm).quasienergies
    assert np.array_equal(eps, -eps[::-1])
    sigma = eps[eps.size // 2:]
    ref = np.sort(scipy.linalg.svdvals(sm.matrix))[:sigma.size]
    assert sigma[0] < 0.05                     # the corner zero modes
    assert np.abs(sigma - ref).max() <= 1e-12


@pytest.mark.parametrize("name, tol", [("lattice", 5e-2), ("lattice", W / 4),
                                       ("kitaev", 1e-3 * W)])
def test_zero_window_left_vectors_match_bbt_oracle(name, tol):
    import scipy.linalg
    from scipy.linalg import lapack

    if name == "kitaev":
        bdg, M = kitaev_chain_bdg(8, J=1.0, Delta=1.0, mu0=0.0, mu1=0.0), 2
    else:
        bdg, M = lattice.build_realspace_bdg(fig_s1_params(Nx=4, Ny=4)), 4
    B = assemble_sambe(bdg, M).matrix
    n0 = int(np.count_nonzero(scipy.linalg.svdvals(B) <= tol))
    if name == "kitaev":
        # B is exactly singular: the LU meets a zero pivot, which is floored
        assert lapack.dgetrf(B.T)[2] > 0
    else:
        # the four corner zero modes (two singular values), or a window
        # that cuts the bulk
        assert (n0 == 2) if tol < 0.1 else (n0 > 20)
    _, V = scipy.linalg.eigh(B.T @ B, subset_by_index=(0, n0 - 1))
    L = floquet._zero_window_left(B, V)
    assert np.abs(L.T @ L - np.eye(n0)).max() <= 1e-12
    # the oracle: the same window's left vectors from a solve of B B^T
    _, oracle = scipy.linalg.eigh(B @ B.T, subset_by_index=(0, n0 - 1))
    assert np.abs(L @ L.T - oracle @ oracle.T).max() <= 1e-10


def _cluster_projectors(spec):
    return {s: sum(np.outer(c, c.conj()) for c in
                   (m.components.ravel() for m in spec.modes_of(s)))
            for s in ("zero", "pi")}


def _rotated_weights(spec, shape):
    """Corner weights of the rotated modes of each species, in a fixed order."""
    out = {}
    for s in ("zero", "pi"):
        w = [corner_localization(m, 0.25, shape)
             for m in corner_basis_rotation(spec.modes_of(s), shape)]
        out[s] = np.array(sorted(w, key=lambda r: int(np.argmax(r))))
    return out


def test_half_size_solve_memory_peak():
    # Every product runs on scipy's BLAS with B.T, Fortran-ordered, so f2py
    # copies nothing: the peak of the traced allocations (B^T B, the
    # vectors and eigh's workspace) stays near one B.  Handing dsyrk a
    # C-ordered B copies it and reads ~2.0 B.
    import tracemalloc

    sm = assemble_sambe(lattice.build_realspace_bdg(fig_s1_params(Nx=5, Ny=5)), 4)
    quasienergy_spectrum(sm, tol_zero=2e-2, tol_pi=2e-2)     # imports scipy
    tracemalloc.start()
    try:
        spec = quasienergy_spectrum(sm, tol_zero=2e-2, tol_pi=2e-2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert spec.counts() == {"zero": 4, "pi": 4}       # the LU path ran
    assert peak <= 1.5 * sm.matrix.nbytes


def test_half_size_vectors_match_complex_solve(raw_vectors):
    p = fig_s1_params(Nx=4, Ny=4)
    bdg = lattice.build_realspace_bdg(p)
    specs = [quasienergy_spectrum(assemble_sambe(op, 4), tol_zero=5e-2,
                                  tol_pi=5e-2)
             for op in (bdg, DrivenBdG(bdg.harmonics, bdg.omega))]
    assert [s.counts() for s in specs] == [{"zero": 4, "pi": 4}] * 2
    assert np.abs(specs[0].quasienergies - specs[1].quasienergies).max() <= 1e-12
    half, cplx = (_cluster_projectors(s) for s in specs)
    for s in ("zero", "pi"):
        assert np.abs(half[s] - cplx[s]).max() <= 1e-10
    half, cplx = (_rotated_weights(s, p.shape) for s in specs)
    for s in ("zero", "pi"):
        assert np.abs(half[s] - cplx[s]).max() <= 1e-10
    # every half-size zero and pi vector solves the site-basis Sambe matrix
    site = _site_sambe(bdg, 4)
    for mode in specs[0].modes:
        comp, k = raw_vectors[id(mode.components)]
        v = comp.ravel()
        lam = mode.quasienergy - k * W
        assert np.linalg.norm(site @ v - lam * v) <= 1e-12


def test_driven_toy_stays_complex(rng):
    sm = assemble_sambe(driven_toy(rng), 2)
    assert sm.mirror is None and sm.matrix.dtype == np.complex128


def test_mirror_breaking_harmonic_raises():
    p = fig_s1_params(2, 2)
    bdg = lattice.build_realspace_bdg(p)
    Lx, Ly = p.shape
    # an on-site term that grows with x is not invariant under x -> Lx-1-x
    x = np.arange(Lx * Ly) % Lx
    ramp = np.diag(np.repeat(0.1 * x, 2) * np.tile([1.0, -1.0], Lx * Ly))
    h = bdg.harmonics
    h[0] = h[0] + ramp
    broken = DrivenBdG(h, bdg.omega, bdg.mirror)
    with pytest.raises(ValueError, match="harmonic 0 breaks the mirror"):
        assemble_sambe(broken, 2)
    # without the mirror the same operator is solved complex
    assert assemble_sambe(DrivenBdG(h, bdg.omega), 2).matrix.dtype == complex


def test_mirror_must_be_a_symmetric_involution():
    with pytest.raises(ValueError, match="signed involution"):
        lattice.Mirror([1, 2, 0], [1.0, 1.0, 1.0])
    with pytest.raises(ValueError, match="signed involution"):
        lattice.Mirror([1, 0], [1.0, -1.0])
    with pytest.raises(ValueError, match="mirror of size 4 on dim 8"):
        DrivenBdG({0: np.eye(8)}, W, lattice.x_mirror(2, 1))


def test_zone_count_mismatch_raises():
    # three of six eigenvalues lie in (-W/2, W/2], one more than blockdim
    diag = np.array([-4.0, -0.5, 0.1, 0.2, 4.0, 5.0])
    sm = floquet.SambeMatrix(m_cutoff=1, blockdim=2, omega=W,
                             matrix=np.diag(diag).astype(complex))
    with pytest.raises(RuntimeError, match="holds 3 states.*raise the cutoff"):
        quasienergy_spectrum(sm)
    # half-size: two singular values below W/2 put four states in the zone
    sm = floquet.SambeMatrix(m_cutoff=1, blockdim=2, omega=W,
                             matrix=np.diag([0.1, 0.2, 4.0]),
                             mirror=lattice.x_mirror(1, 1))
    with pytest.raises(RuntimeError, match="holds 4 states.*raise the cutoff"):
        quasienergy_spectrum(sm)


@pytest.mark.parametrize("sigma, blockdim, held", [
    # three singular values below W/2, more than the d/2 + 1 = 2 asked for
    ([0.1, 0.2, 0.3], 2, 6),
    # one singular value below W/2, one short of d/2 = 2
    ([0.1, 4.0, 5.0, 6.0, 7.0, 8.0], 4, 2),
])
def test_half_size_zone_count_is_exact(sigma, blockdim, held):
    sm = floquet.SambeMatrix(m_cutoff=1, blockdim=blockdim, omega=W,
                             matrix=np.diag(sigma),
                             mirror=lattice.x_mirror(blockdim // 2, 1))
    with pytest.raises(RuntimeError, match=f"holds {held} states.*raise the cutoff"):
        quasienergy_spectrum(sm)


def _seeded_problem(kind, n, M):
    """A lattice of 2n x 2n sites with every parameter drawn +-5 % (key
    [n, M]), or the Kitaev chain of n sites."""
    if kind == "chain":
        return kitaev_chain_bdg(n, 1.3, 0.9, 0.7, 1.1)
    base = fig_s1_params(Nx=n, Ny=n)
    draw = np.random.default_rng([n, M])
    names = ("Jx", "Jy", "dJ", "Dx", "Dy", "dDy",
             "mu0", "dmu0", "mu1", "dmu1")
    return lattice.build_realspace_bdg(lattice.LatticeParams(
        Nx=n, Ny=n, **{k: getattr(base, k) * (1.0 + 0.05 * draw.uniform(-1, 1))
                       for k in names}))


@pytest.fixture()
def dstein_calls(monkeypatch):
    """The eigenvalues handed to each dstein call of the half-size solve."""
    from scipy.linalg import lapack

    calls, dstein = [], lapack.dstein

    def recording(d, e, w, *args):
        calls.append(np.array(w))
        return dstein(d, e, w, *args)

    monkeypatch.setattr(lapack, "dstein", recording)
    return calls


def _singular_pair(comp, mirror):
    """(u, v) of a raw half-size mode: the site-basis components taken back
    to the real basis, (u + v)/2 on the particles of harmonic n and
    (u - v)/2 on the holes of -n; B v = eps u and B^T u = eps v."""
    real = (comp - 1j * mirror.sign * comp[:, mirror.perm]) / np.sqrt(2.0)
    assert np.abs(real.imag).max() <= 1e-14
    p, q = real.real[:, 0::2].ravel(), real.real[::-1, 1::2].ravel()
    return p + q, p - q


@pytest.mark.parametrize("kind, n, M", [
    ("lattice", 4, 4), ("lattice", 5, 4), ("lattice", 6, 4),
    ("lattice", 4, 6), ("lattice", 5, 6), ("lattice", 6, 6),
    ("chain", 40, 5), ("chain", 41, 5)])
def test_half_size_solve_against_oracles(kind, n, M, raw_vectors,
                                         dstein_calls):
    import scipy.linalg

    bdg = _seeded_problem(kind, n, M)
    sm = assemble_sambe(bdg, M)
    tols = {"tol_zero": 5e-2, "tol_pi": 5e-2}
    spec = quasienergy_spectrum(sm, **tols)
    counts = spec.counts()
    assert counts["zero"] > 0 and counts["pi"] > 0
    eps = spec.quasienergies
    assert np.array_equal(eps, -eps[::-1])
    h = eps.size // 2
    sigma = eps[h:]
    sv = scipy.linalg.svdvals(sm.matrix)
    ref = sv[::-1][:h]
    bound = np.finfo(float).eps * sv[0] ** 2 / ref
    # vectors only for the windows and where sqrt(lambda) may err by more
    # than 1e-12; those sigma come from Rayleigh-Ritz
    near = ((ref <= tols["tol_zero"]) | (W / 2 - ref <= tols["tol_pi"])
            | (bound > 1e-12))
    assert [w.size for w in dstein_calls] == [np.count_nonzero(near)]
    assert np.count_nonzero(near) <= 16
    err = np.abs(sigma - ref)
    assert err.max() <= 1e-12
    # the rest are sqrt(lambda), within the stated bound eps ||B||^2 / sigma
    assert np.all(err[~near] <= bound[~near])

    for mode in spec.modes:
        comp, k = raw_vectors[id(mode.components)]
        u, v = _singular_pair(comp, sm.mirror)
        lam = mode.quasienergy - k * W
        assert np.linalg.norm(sm.matrix @ v - lam * u) <= 1e-12
        assert np.linalg.norm(sm.matrix.T @ u - lam * v) <= 1e-12
    if kind == "lattice" and (n > 5 or M > 4):
        return                  # the complex solve is too large to run here
    site = _site_sambe(bdg, M)
    for mode in spec.modes:
        comp, k = raw_vectors[id(mode.components)]
        x = comp.ravel()
        lam = mode.quasienergy - k * W
        assert np.linalg.norm(site @ x - lam * x) <= 1e-12
    cplx = quasienergy_spectrum(assemble_sambe(
        DrivenBdG(bdg.harmonics, bdg.omega), M), **tols)
    assert cplx.counts() == counts
    half, full = _cluster_projectors(spec), _cluster_projectors(cplx)
    for s in ("zero", "pi"):
        assert np.abs(half[s] - full[s]).max() <= 1e-10


def _diagonal_sambe(sigma, blockdim):
    return floquet.SambeMatrix(m_cutoff=1, blockdim=blockdim, omega=W,
                               matrix=np.diag(sigma),
                               mirror=lattice.x_mirror(blockdim // 2, 1))


def test_half_size_solve_without_selected_states(dstein_calls):
    # every sigma lies between eps ||B||^2 / 1e-12 ~ 0.011 and the pi window
    spec = quasienergy_spectrum(_diagonal_sambe([1.0, 1.5, 4, 5, 6, 7], 4))
    assert dstein_calls == [] and spec.modes == []
    assert np.abs(spec.quasienergies - [-1.5, -1.0, 1.0, 1.5]).max() <= 1e-15
    assert spec.gaps == (1.0, W / 2 - 1.5)


def test_half_size_solve_with_every_state_selected(raw_vectors, dstein_calls):
    import scipy.linalg

    sm = assemble_sambe(lattice.build_realspace_bdg(fig_s1_params(2, 2)), 4)
    # windows of W/4 hold every state
    spec = quasienergy_spectrum(sm, tol_zero=W / 4, tol_pi=W / 4)
    h = sm.blockdim // 2
    assert [w.size for w in dstein_calls] == [h]
    assert len(spec.modes) == sm.blockdim
    ref = np.sort(scipy.linalg.svdvals(sm.matrix))[:h]
    assert np.abs(spec.quasienergies[h:] - ref).max() <= 1e-12
    for mode in spec.modes:
        comp, k = raw_vectors[id(mode.components)]
        u, v = _singular_pair(comp, sm.mirror)
        lam = mode.quasienergy - k * W
        assert np.linalg.norm(sm.matrix @ v - lam * u) <= 1e-12
        assert np.linalg.norm(sm.matrix.T @ u - lam * v) <= 1e-12


def test_half_size_solve_of_split_tridiagonal(raw_vectors):
    import scipy.linalg
    from scipy.linalg import lapack

    # two decoupled blocks: B^T B is block-diagonal, so its tridiagonal
    # form splits exactly where the first block ends
    M = 3
    blocks = [assemble_sambe(kitaev_chain_bdg(n, 1.3, 0.9, 0.7, 1.1), M).matrix
              for n in (6, 7)]
    B = scipy.linalg.block_diag(*blocks)
    off = lapack.dsytrd(B.T @ B, lower=1)[2]
    assert off[len(blocks[0]) - 1] == 0.0 and np.all(off[:len(blocks[0]) - 1])
    sm = floquet.SambeMatrix(m_cutoff=M, blockdim=2 * 13, omega=W, matrix=B,
                             mirror=lattice.x_mirror(13, 1))
    spec = quasienergy_spectrum(sm, tol_zero=W / 4, tol_pi=W / 4)
    ref = np.sort(scipy.linalg.svdvals(B))[:13]
    assert np.abs(spec.quasienergies[13:] - ref).max() <= 1e-12
    assert len(spec.modes) == 26
    for mode in spec.modes:
        comp, k = raw_vectors[id(mode.components)]
        u, v = _singular_pair(comp, sm.mirror)
        lam = mode.quasienergy - k * W
        assert np.linalg.norm(B @ v - lam * u) <= 1e-12
        assert np.linalg.norm(B.T @ u - lam * v) <= 1e-12


def test_dstein_failure_raises(monkeypatch):
    from scipy.linalg import lapack

    def failing(d, e, w, *args):
        return np.zeros((d.size, w.size)), 1

    monkeypatch.setattr(lapack, "dstein", failing)
    sm = assemble_sambe(lattice.build_realspace_bdg(fig_s1_params(2, 2)), 4)
    with pytest.raises(RuntimeError, match=r"dstein\) failed for 1 of"):
        quasienergy_spectrum(sm, tol_zero=5e-2, tol_pi=5e-2)


def test_cutoff_3_counts_on_seeded_lattices():
    # At M = 3 a pi mode splits its weight about evenly between two
    # harmonics, so which replica carries the most weight at n = 0 is
    # decided by truncation error; on these seeds the central zone must
    # still hold every state once.
    base = fig_s1_params(Nx=5, Ny=5)
    names = ("Jx", "Jy", "dJ", "Dx", "Dy", "dDy",
             "mu0", "dmu0", "mu1", "dmu1")
    for key in ([507, 6], [605, 0]):
        draw = np.random.default_rng(key)
        vals = {n: getattr(base, n) * (1.0 + 0.05 * draw.uniform(-1, 1))
                for n in names}
        p = lattice.LatticeParams(Nx=5, Ny=5, **vals)
        spec = quasienergy_spectrum(
            assemble_sambe(lattice.build_realspace_bdg(p), 3),
            tol_zero=2e-2, tol_pi=2e-2)
        assert spec.counts() == {"zero": 4, "pi": 4}
        assert spec.quasienergies.size == 200


def test_returned_modes_solve_the_floquet_equation():
    # the modes as returned, after the replica shift of the pi modes to
    # +omega/2, on a +-5 % 10x10 point at M = 4 drawn as in the benchmark's
    # corner-mode solves.  Only interior harmonics are held to the bound: a
    # shifted mode loses its outermost harmonic to the cutoff and is
    # renormalized, so its residual at n = +-M is a truncation error (up to
    # about 7e-3 at this cutoff), not a solver error.
    base = fig_s1_params(Nx=5, Ny=5)
    draw = np.random.default_rng([1, 0])
    names = ("Jx", "Jy", "dJ", "Dx", "Dy", "dDy",
             "mu0", "dmu0", "mu1", "dmu1")
    p = lattice.LatticeParams(Nx=5, Ny=5, **{
        n: getattr(base, n) * (1.0 + 0.05 * draw.uniform(-1, 1)) for n in names})
    bdg = lattice.build_realspace_bdg(p)
    M = 4
    spec = quasienergy_spectrum(assemble_sambe(bdg, M), tol_zero=2e-2,
                                tol_pi=2e-2)
    assert spec.counts() == {"zero": 4, "pi": 4}
    scale = max(np.linalg.norm(h, 2) for h in bdg.harmonics.values())
    for mode in spec.modes:
        c, eps = mode.components, mode.quasienergy
        if mode.species == "pi":
            assert abs(eps - W / 2) < 2e-2
        for n in range(-M + 1, M):
            acc = (n * W - eps) * c[n + M]
            for k, h in bdg.harmonics.items():
                if abs(n - k) <= M:
                    acc = acc + h @ c[n - k + M]
            assert np.linalg.norm(acc) <= 1e-9 * scale, (mode.species, n)


def _grid_bdg(p, paired=True):
    """The Bloch stack over `momentum_grid`; `paired` gives it the partner
    map, as `cornerlab spectrum` does."""
    kx, ky = np.array(lattice.momentum_grid(p)).T
    return lattice.build_momentum_bdg(
        p, kx, ky, lattice.momentum_partners(p) if paired else None)


def _bloch_sambe(p, M, paired=True):
    return assemble_sambe(_grid_bdg(p, paired), M)


def _random_torus(size, key):
    draw = np.random.default_rng(key)
    names = ("Jx", "Jy", "dJ", "Dx", "Dy", "dDy",
             "mu0", "dmu0", "mu1", "dmu1")
    return lattice.LatticeParams(*size, **{n: draw.uniform(-1.5, 1.5)
                                           for n in names},
                                 boundary="periodic-both")


@pytest.mark.parametrize("M", [3, 4])
@pytest.mark.parametrize("size", [(1, 1), (2, 2), (3, 2)])
def test_bloch_spectrum_matches_realspace(size, M):
    # a torus is block-diagonal in momentum: the stacked k-block solve must
    # reproduce the real-space solve, windows (wide, so they hold states)
    # and gaps included
    p = _random_torus(size, [*size, M])
    tols = {"tol_zero": 0.4, "tol_pi": 0.4}
    bloch = quasienergy_spectrum(_bloch_sambe(p, M), **tols)
    real = quasienergy_spectrum(
        assemble_sambe(lattice.build_realspace_bdg(p), M), **tols)
    assert bloch.quasienergies.size == real.quasienergies.size
    assert np.abs(bloch.quasienergies - real.quasienergies).max() < 1e-12
    assert bloch.species == real.species
    assert bloch.counts() == real.counts()
    assert np.allclose(bloch.gaps, real.gaps, rtol=0, atol=1e-12)
    assert bloch.modes == []
    for s in ("zero", "pi"):
        # the real-space modes carry the window quasienergies
        assert real.window_quasienergies(s) == sorted(
            m.quasienergy for m in real.modes_of(s))
        assert np.allclose(bloch.window_quasienergies(s),
                           real.window_quasienergies(s), rtol=0, atol=1e-12)


def test_bloch_cutoff_too_small_raises():
    # a drive of 8 needs more than one harmonic: some k-block's zone is
    # short of its 4 states, and so is the real-space zone
    p = dataclasses.replace(fig_s1_params(1, 1, "periodic-both"), mu1=8.0)
    with pytest.raises(RuntimeError, match="k-block .* raise the cutoff"):
        quasienergy_spectrum(_bloch_sambe(p, 1))
    with pytest.raises(RuntimeError, match="not blockdim = 8.*raise the cutoff"):
        quasienergy_spectrum(assemble_sambe(lattice.build_realspace_bdg(p), 1))
    # with +-k pairs on the grid, the paired solve names the k-block (its
    # index in momentum_grid) and count that the full-grid solve names
    p = dataclasses.replace(p, Nx=2, Ny=3)
    messages = []
    for paired in (False, True):
        with pytest.raises(RuntimeError, match="k-block .* raise the cutoff") as err:
            quasienergy_spectrum(_bloch_sambe(p, 1, paired))
        messages.append(str(err.value))
    assert messages[0] == messages[1]


def test_bloch_short_partner_block_is_named():
    # static blocks (M = 0): block 1 holds omega/2, which its zone
    # (-omega/2, omega/2] keeps; its partner, block 2, then holds -omega/2
    # and is one state short.  Only block 1 is solved, and block 2 is named
    swap = [1, 0, 3, 2]                                  # tau_x
    own = np.diag([0.1, -0.1, 0.2, -0.2]).astype(complex)
    h = np.diag([W / 2, 0.1, 0.2, 0.3]).astype(complex)
    h = np.stack([own, h, -h[swap][:, swap].conj()])
    for partner in (None, [0, 2, 1]):
        sm = assemble_sambe(DrivenBdG({0: h}, W, partner=partner), 0)
        assert sm.matrix.shape[0] == (3 if partner is None else 2)
        with pytest.raises(RuntimeError, match="k-block 2 holds 3 states"):
            quasienergy_spectrum(sm)


@pytest.mark.parametrize("M", [3, 4])
@pytest.mark.parametrize("Ny", [1, 2, 3])
@pytest.mark.parametrize("Nx", [1, 2, 3])
def test_paired_bloch_solve_matches_full_grid(Nx, Ny, M, monkeypatch):
    # P = tau_x K sends the Sambe block at k to minus the block at -k: one
    # block of each +-k pair, solved, must give what every block gives.  An
    # even Ny puts ky = pi on the grid, an odd one leaves it off
    p = _random_torus((Nx, Ny), [Nx, Ny, M, 1])
    tols = {"tol_zero": 0.4, "tol_pi": 0.4}
    full = quasienergy_spectrum(_bloch_sambe(p, M, paired=False), **tols)
    shapes = []
    eigvalsh = np.linalg.eigvalsh

    def recorded(a):
        shapes.append(a.shape)
        return eigvalsh(a)

    monkeypatch.setattr(np.linalg, "eigvalsh", recorded)
    paired = quasienergy_spectrum(_bloch_sambe(p, M), **tols)
    partner = lattice.momentum_partners(p)
    n, n_self = partner.size, int((partner == np.arange(partner.size)).sum())
    assert n_self == (4 if Ny % 2 == 0 else 2)
    D = (2 * M + 1) * 4
    assert shapes == [((n + n_self) // 2, D, D)]
    eps = paired.quasienergies
    assert eps.size == full.quasienergies.size == 4 * n
    assert np.abs(eps - full.quasienergies).max() < 1e-12
    assert np.array_equal(eps, -eps[::-1])
    assert paired.species == full.species
    assert paired.counts() == full.counts()
    assert np.allclose(paired.gaps, full.gaps, rtol=0, atol=1e-12)
    for s in ("zero", "pi"):
        assert np.allclose(paired.window_quasienergies(s),
                           full.window_quasienergies(s), rtol=0, atol=1e-12)


@pytest.mark.parametrize("m", [0, 1])
def test_bloch_particle_hole_breaking_raises(m):
    # a harmonic that breaks tau_x h^(-m)(k)* tau_x = -h^(m)(-k) at one k
    # raises, naming it, before any block's spectrum is taken from its
    # partner's; so does a partner map that pairs the wrong blocks
    p = fig_s1_params(2, 2, "periodic-both")
    bdg = _grid_bdg(p)
    h = bdg.harmonics
    h[m] = np.array(h[m])
    h[m][3] += 0.1 * np.eye(4)
    h[-m] = np.swapaxes(h[m], -1, -2).conj()
    with pytest.raises(ValueError,
                       match=f"harmonic {m} breaks particle-hole symmetry"):
        assemble_sambe(DrivenBdG(h, W, partner=bdg.partner), 4)
    with pytest.raises(ValueError, match="breaks particle-hole symmetry"):
        assemble_sambe(DrivenBdG(bdg.harmonics, W,
                                 partner=np.arange(bdg.partner.size)), 4)
    with pytest.raises(ValueError, match="not an involution"):
        DrivenBdG(bdg.harmonics, W, partner=np.roll(bdg.partner, 1))


def test_import_leaves_scipy_linalg_unloaded():
    # scipy.linalg, scipy.special and scipy.integrate each add ~0.1 s to an
    # import, and scipy.sparse ~0.3 s; only the calls that need them (a
    # Sambe solve, a conductance) load them, so commands and studies that
    # never make one do not pay; a Bloch-block solve needs only numpy
    code = (
        "import importlib, pkgutil, sys, cornerlab\n"
        "names = [m.name for m in pkgutil.iter_modules(cornerlab.__path__)]\n"
        "for name in names:\n"
        "    importlib.import_module('cornerlab.' + name)\n"
        "heavy = ('scipy.linalg', 'scipy.special', 'scipy.integrate',\n"
        "         'scipy.sparse')\n"
        "print(' '.join(names))\n"
        "print(' '.join(m for m in heavy if m in sys.modules))\n"
        "from cornerlab import floquet, lattice\n"
        "p = lattice.fig_s1_params(1, 1, 'periodic-both')\n"
        "kx, ky = zip(*lattice.momentum_grid(p))\n"
        "floquet.quasienergy_spectrum(floquet.assemble_sambe(\n"
        "    lattice.build_momentum_bdg(p, kx, ky), 4))\n"
        "floquet.quasienergy_spectrum(floquet.assemble_sambe(\n"
        "    lattice.build_momentum_bdg(p, kx, ky,\n"
        "                               lattice.momentum_partners(p)), 4))\n"
        "print(' '.join(m for m in heavy if m in sys.modules))\n"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True)
    names, loaded, loaded_bloch = out.stdout.split("\n")[:3]
    assert {"cli", "floquet", "fock", "lattice", "majorana", "perturbation",
            "protocols", "readout"} <= set(names.split())
    assert loaded == "" and loaded_bloch == ""


def test_particle_hole_pairing_of_spectrum():
    bdg = kitaev_chain_bdg(6, 1.3, 0.9, 0.7, 1.1)
    spec = quasienergy_spectrum(assemble_sambe(bdg, 5))
    eps = spec.quasienergies
    for e in eps:
        partner = circular_distance(eps, -e, W).min()
        assert partner < 1e-9


def test_mode_normalization(bench_spectrum):
    for m in bench_spectrum.modes:
        assert (np.abs(m.components) ** 2).sum() == pytest.approx(1.0, abs=1e-12)


def test_fold_and_distance():
    assert circular_distance(-W / 2 + 0.01, W / 2, W) == pytest.approx(0.01)


def test_static_fourier_profile():
    bdg = kitaev_chain_bdg(6, 1.0, 1.0, 0.2, 0.0)
    spec = quasienergy_spectrum(assemble_sambe(bdg, 3), tol_zero=0.5)
    mode = spec.modes_of("zero")[0]
    prof = fourier_weight_profile(mode)
    assert prof[0] == pytest.approx(1.0, abs=1e-12)
    assert sum(prof.values()) == pytest.approx(1.0, abs=1e-12)
    assert np.array_equal(mode.harmonic(-3), mode.components[0])
    for n in (-4, 4):
        with pytest.raises(IndexError, match=f"harmonic {n} outside .* M = 3"):
            mode.harmonic(n)


def _cutoff_shift(bdg, M):
    """Max shift of the 16 folded quasienergies nearest 0 and nearest
    omega/2 (all, if fewer) from cutoff M - 1 to M, matched in order of
    circular distance within each window."""
    windows = []
    for cutoff in (M - 1, M):
        eps = quasienergy_spectrum(assemble_sambe(bdg, cutoff)).quasienergies
        n = min(16, eps.size)
        windows.append(np.concatenate([
            np.sort(np.abs(eps))[:n],
            np.sort(circular_distance(eps, bdg.omega / 2, bdg.omega))[:n]]))
    return float(np.abs(windows[1] - windows[0]).max())


def test_convergence_check_static_and_drive_limit():
    # a static chain needs no replicas, and a weak drive barely moves it
    static = kitaev_chain_bdg(4, 1.0, 1.0, 0.4, 0.0)
    assert _cutoff_shift(static, 3) < 1e-12
    weak = kitaev_chain_bdg(4, 1.0, 1.0, 0.4, 1e-4)
    assert _cutoff_shift(weak, 3) < 1e-9


def test_convergence_decreases_with_cutoff():
    bdg = lattice.build_realspace_bdg(fig_s1_params(Nx=2, Ny=2))
    shifts = [_cutoff_shift(bdg, M) for M in (3, 5, 7)]
    assert shifts[0] > shifts[1] > shifts[2]


def test_default_cutoff_is_converged():
    # the M = 6 default used for the benchmark capture: eigenvalues near 0
    # and omega/2 move by < 1e-6 when the cutoff is raised from 5
    bdg = lattice.build_realspace_bdg(fig_s1_params(Nx=2, Ny=2))
    assert _cutoff_shift(bdg, 6) < 1e-6


def test_corner_localization_uniform():
    d = 2 * 8 * 8
    comp = np.full((3, d), 1.0 / np.sqrt(3 * d), dtype=complex)
    mode = floquet.FloquetMode(0.0, comp, "zero", W)
    w = corner_localization(mode, 0.25, (8, 8))
    assert np.allclose(w, 0.25**2, atol=1e-12)
    with pytest.raises(ValueError):
        corner_localization(mode, 0.7, (8, 8))


def test_benchmark_mode_counts(bench_spectrum):
    assert bench_spectrum.counts() == {"zero": 4, "pi": 4}
    gap0, gappi = bench_spectrum.gaps
    assert gap0 > 10 * bench_spectrum.tol_zero
    assert gappi > 10 * bench_spectrum.tol_pi


def test_corner_rotation_localizes(bench_params, bench_spectrum):
    shape = bench_params.shape
    corners_seen = []
    for species in ("zero", "pi"):
        rot = corner_basis_rotation(bench_spectrum.modes_of(species), shape)
        for m in rot:
            w = corner_localization(m, 0.25, shape)
            assert w.max() >= 0.8
            corners_seen.append((species, int(w.argmax())))
    # each species occupies all four distinct corners
    for species in ("zero", "pi"):
        quads = sorted(c for s, c in corners_seen if s == species)
        assert quads == [0, 1, 2, 3]


def _rotation_reference(modes, shape):
    """Corner rotation with Q built entry by entry (the loop form)."""
    Lx, Ly = shape
    qv = np.array([(1 if s % Lx >= Lx // 2 else 0)
                   + 2 * (1 if s // Lx >= Ly // 2 else 0)
                   for s in range(Lx * Ly)], dtype=float)
    k = len(modes)
    Q = np.zeros((k, k), dtype=complex)
    for a in range(k):
        for b in range(k):
            for va, vb in zip(modes[a].components, modes[b].components):
                dens = va.conj()[0::2] * vb[0::2] + va.conj()[1::2] * vb[1::2]
                Q[a, b] += (qv * dens).sum()
    _, U = np.linalg.eigh((Q + Q.conj().T) / 2)
    eps = np.array([m.quasienergy for m in modes])
    out = []
    for c in range(k):
        comp = sum(U[a, c] * modes[a].components for a in range(k))
        comp = comp / np.sqrt((np.abs(comp) ** 2).sum())
        out.append((float(np.abs(U[:, c]) ** 2 @ eps), comp))
    return out


def test_corner_rotation_matches_loop_reference(bench_params, bench_spectrum):
    shape = bench_params.shape
    for species in ("zero", "pi"):
        modes = bench_spectrum.modes_of(species)
        rot = corner_basis_rotation(modes, shape)
        ref = _rotation_reference(modes, shape)
        assert len(rot) == len(ref) == 4
        for m, (e_ref, c_ref) in zip(rot, ref):
            # equal up to a phase: align it, then compare entries
            overlap = np.vdot(c_ref, m.components)
            aligned = c_ref * overlap / abs(overlap)
            assert np.abs(m.components - aligned).max() <= 1e-12
            assert m.quasienergy == pytest.approx(e_ref, abs=1e-12)
            ref_mode = floquet.FloquetMode(e_ref, c_ref, species, W)
            assert np.abs(corner_localization(m, 0.25, shape)
                          - corner_localization(ref_mode, 0.25, shape)
                          ).max() <= 1e-12


def test_pi_mode_half_harmonic_ladder(bench_spectrum):
    # aligned pi modes carry their weight on two adjacent harmonics
    # (the exp(-i w t / 2) structure splits across integer harmonics)
    for m in bench_spectrum.modes_of("pi"):
        prof = fourier_weight_profile(m)
        top = sorted(prof, key=prof.get, reverse=True)[:2]
        assert abs(top[0] - top[1]) == 1
        assert prof[top[0]] + prof[top[1]] > 0.85


def test_zero_mode_weight_decay(bench_spectrum):
    for m in bench_spectrum.modes_of("zero"):
        prof = fourier_weight_profile(m)
        ns = sorted(n for n in prof if n >= 2)
        for a, b in zip(ns, ns[1:]):
            assert prof[b] <= 2 * prof[a]
        ns = sorted((n for n in prof if n <= -2), reverse=True)
        for a, b in zip(ns, ns[1:]):
            assert prof[b] <= 2 * prof[a]


def test_chain_quasienergies_subset_of_2d():
    p = lattice.LatticeParams(
        Nx=4, Ny=2, Jx=np.pi / 2 + 0.3, Jy=0.1, dJ=0.1,
        Dx=np.pi / 2 + 0.3, Dy=0.5, dDy=0.5,
        mu0=np.pi / 2 + 0.12, dmu0=0.0, mu1=1.0, dmu1=0.0,
    )
    chain = lattice.reduce_to_1d(p)
    spec_1d = quasienergy_spectrum(assemble_sambe(chain, 4))
    full = lattice.build_realspace_bdg(p)
    spec_2d = quasienergy_spectrum(assemble_sambe(full, 4))
    for e in spec_1d.quasienergies:
        assert circular_distance(spec_2d.quasienergies, e, W).min() < 1e-9


def test_robustness_of_mode_counts_under_perturbation(bench_params):
    # +-5% multiplicative perturbations at fixed seeds keep the 4/4 counts
    for seed in (1, 2):
        rng = np.random.default_rng(seed)
        vals = {}
        for name in ("Jx", "Jy", "dJ", "Dx", "Dy", "dDy",
                     "mu0", "dmu0", "mu1", "dmu1"):
            factor = 1.0 + 0.05 * rng.uniform(-1, 1)
            vals[name] = getattr(bench_params, name) * factor
        p = lattice.LatticeParams(Nx=6, Ny=6, **vals)
        bdg = lattice.build_realspace_bdg(p)
        spec = quasienergy_spectrum(assemble_sambe(bdg, 4),
                                    tol_zero=2e-2, tol_pi=2e-2)
        assert spec.counts() == {"zero": 4, "pi": 4}
        assert spec.gaps[0] > 10 * 2e-2 and spec.gaps[1] > 10 * 2e-2
