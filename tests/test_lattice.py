import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cornerlab import lattice
from cornerlab.lattice import (
    DrivenBdG,
    LatticeParams,
    build_momentum_bdg,
    build_realspace_bdg,
    check_symmetry,
    fig_s1_params,
    kitaev_chain_bdg,
    momentum_grid,
    momentum_partners,
    reduce_to_1d,
    sigma_eta,
    symmetry_op,
)


def small_params(**over):
    base = dict(Nx=1, Ny=1, Jx=0.7, Jy=0.2, dJ=0.05, Dx=0.6, Dy=0.3,
                dDy=0.1, mu0=0.4, dmu0=0.02, mu1=1.1, dmu1=0.3)
    base.update(over)
    return LatticeParams(**base)


def random_params(rng, **over):
    vals = {k: float(rng.normal()) for k in
            ("Jx", "Jy", "dJ", "Dx", "Dy", "dDy", "mu0", "dmu0", "mu1", "dmu1")}
    vals.update(Nx=2, Ny=2)
    vals.update(over)
    return LatticeParams(**vals)


def test_param_validation():
    with pytest.raises(ValueError):
        small_params(Nx=0)
    with pytest.raises(ValueError):
        small_params(mu0=np.nan)
    with pytest.raises(ValueError):
        LatticeParams(**{**small_params().__dict__, "boundary": "twisted"})


def test_realspace_dimensions_and_drive_weights():
    p = small_params()
    bdg = build_realspace_bdg(p)
    assert bdg.dim == 8
    h1 = np.asarray(bdg.component(1))
    # drive sits on the site diagonal in the Nambu-z channel with weight
    # (mu1 +- dmu1)/2: odd rows (j=1) carry the minus sign
    offdiag = h1 - np.diag(np.diag(h1))
    assert np.abs(offdiag).max() == 0
    diag = np.diag(h1).reshape(-1, 2)
    for site, (part, hole) in enumerate(diag):
        y = site // 2
        expect = (p.mu1 - p.dmu1) / 2 if y == 0 else (p.mu1 + p.dmu1) / 2
        assert part == pytest.approx(expect, abs=1e-15)
        assert hole == pytest.approx(-expect, abs=1e-15)


def test_no_drive_means_no_harmonics():
    bdg = build_realspace_bdg(small_params(mu1=0.0, dmu1=0.0))
    assert np.abs(np.asarray(bdg.component(1))).max() == 0
    assert np.abs(np.asarray(bdg.component(-1))).max() == 0


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=10, deadline=None)
def test_instantaneous_hermiticity(seed):
    rng = np.random.default_rng(seed)
    p = random_params(rng)
    bdg = build_realspace_bdg(p)
    for t in rng.uniform(0, 1, size=10):
        h = sum(hm * np.exp(1j * m * bdg.omega * t)
                for m, hm in bdg.harmonics.items())
        assert np.abs(h - h.conj().T).max() < 1e-12


def test_momentum_block_basics(rng):
    p = random_params(rng)
    mb = build_momentum_bdg(p, 0.3, -1.2)
    assert mb.dim == 4
    h0 = np.asarray(mb.component(0))
    assert np.abs(h0 - h0.conj().T).max() < 1e-12


def test_momentum_sigma_x_coefficient_at_ky_pi():
    # with Jy = dJ the intra-cell hopping J_{y,-} vanishes and the
    # sigma_x eta_z coefficient at ky = pi is -(0 + J_{y,+} cos pi) = J_{y,+}
    p = small_params(Jy=0.2, dJ=0.2)
    h0 = np.asarray(build_momentum_bdg(p, 0.17, np.pi).component(0))
    coeff = np.trace(h0 @ sigma_eta("x", "z")).real / 4
    assert coeff == pytest.approx(p.Jy + p.dJ, abs=1e-12)


def test_fig_s1_params_keeps_boundary():
    for boundary in lattice.BOUNDARIES:
        assert fig_s1_params(2, 2, boundary=boundary).boundary == boundary


def test_realspace_momentum_consistency():
    # periodic 8x8 lattice: the static spectrum equals the union over the
    # Bloch grid, and likewise for the drive harmonic
    p = fig_s1_params(Nx=2, Ny=2, boundary="periodic-both")
    bdg = build_realspace_bdg(p)
    for m in (0, 1):
        real = np.sort(np.linalg.eigvalsh(np.asarray(bdg.component(m))))
        kvals = []
        for kx, ky in momentum_grid(p):
            km = build_momentum_bdg(p, kx, ky)
            kvals.extend(np.linalg.eigvalsh(np.asarray(km.component(m))))
        assert np.abs(real - np.sort(kvals)).max() < 1e-9
    # one stacked build over the grid equals the per-k scalar builds bitwise
    kx, ky = np.array(momentum_grid(p)).T
    stack = build_momentum_bdg(p, kx, ky)
    assert stack.dim == 4 and stack.batch == (len(kx),)
    for m in (-1, 0, 1):
        scalar = [build_momentum_bdg(p, *k).component(m) for k in zip(kx, ky)]
        assert all(h.shape == (4, 4) for h in scalar)
        assert np.array_equal(stack.component(m), np.stack(scalar))
    # the adjoint relation is checked per block of a stack
    h1 = np.array(stack.component(1))
    h1[2] += 0.1 * sigma_eta("x", "0")
    with pytest.raises(ValueError, match="not mutually adjoint"):
        DrivenBdG({0: stack.component(0), 1: h1,
                   -1: stack.component(-1)}, p.omega)


@pytest.mark.parametrize("boundary", lattice.BOUNDARIES)
def test_adjoint_check_is_relative_and_builders_pass(boundary):
    # one max-abs defect per harmonic pair against 1e-12 * max(1, max|h|):
    # allclose's default rtol = 1e-5 let a pair off by 1e-8 relative pass
    p = fig_s1_params(Nx=1, Ny=2, boundary=boundary)
    bdg = build_realspace_bdg(p)
    kx, ky = np.array(momentum_grid(p)).T
    built = [bdg, kitaev_chain_bdg(7, 1.3, 0.9, 0.7, 1.1),
             build_momentum_bdg(p, kx, ky),
             build_momentum_bdg(p, kx, ky, momentum_partners(p))]
    for b in built:            # each builder's output is accepted again
        DrivenBdG(b.harmonics, b.omega, b.mirror, b.partner)
    h1 = np.array(bdg.component(1))
    for scale in (1.0, 1e3):
        big = {m: scale * np.asarray(bdg.component(m)) for m in (-1, 0, 1)}
        DrivenBdG(big, p.omega)
        off = {**big, 1: scale * h1 * (1 + 1e-8)}
        with pytest.raises(ValueError, match="harmonics 1/-1 are not mutually"):
            DrivenBdG(off, p.omega)
    h0 = np.array(bdg.component(0))
    h0[0, 1] += 1e-8 * np.abs(h0).max()
    with pytest.raises(ValueError, match="harmonics 0/0"):
        DrivenBdG({0: h0}, p.omega)
    with pytest.raises(ValueError, match="harmonic -1 missing"):
        DrivenBdG({0: bdg.component(0), 1: h1}, p.omega)



def test_driven_bdg_rejects_non_finite_harmonics():
    # NaN fails every comparison, so the adjoint test is written to fail
    # on it; an inf entry makes the relative defect inf or NaN
    with pytest.raises(ValueError, match="harmonics 0/0 .* not finite"):
        kitaev_chain_bdg(4, J=1.0, Delta=1.0, mu0=np.nan, mu1=0.5)
    with pytest.raises(ValueError, match="harmonics 1/-1 .* not finite"):
        kitaev_chain_bdg(4, J=1.0, Delta=1.0, mu0=0.3, mu1=np.nan)
    eye, zero = np.eye(2), np.zeros((2, 2))
    inf_diag = np.diag([np.inf, 0.0])
    inf_off = np.array([[0.0, np.inf], [np.inf, 0.0]])
    for harmonics in ({0: np.diag([1.0, np.nan])}, {0: inf_off},
                      {0: eye, 1: inf_diag, -1: zero},
                      {0: eye, 1: zero, -1: inf_diag},
                      {0: eye, 1: inf_diag, -1: inf_diag}):
        with pytest.raises(ValueError, match="not finite"):
            DrivenBdG(harmonics, 1.0)

def test_kitaev_chain_matches_loop_build():
    for n, args in ((1, (0.7, 0.4, 0.3, 0.9)), (2, (1.0, 1.0, 0.0, 0.0)),
                    (40, (0.3, 0.31, 0.05, 0.4)), (61, (1.2, 1.15, -1.0, 0.5))):
        J, Delta, mu0, mu1 = args
        T0 = np.zeros((n, n), dtype=complex)
        P0 = np.zeros((n, n), dtype=complex)
        for x in range(n):
            T0[x, x] = mu0
            if x + 1 < n:
                T0[x + 1, x] = T0[x, x + 1] = -J
                P0[x + 1, x] = Delta
                P0[x, x + 1] = -Delta
        bdg = kitaev_chain_bdg(n, *args)
        h0 = np.asarray(bdg.component(0))
        assert np.abs(h0 - lattice._bdg_from_blocks(T0, P0)).max() <= 1e-15
        assert np.array_equal(np.asarray(bdg.component(1)),
                              lattice._bdg_from_blocks(
                                  mu1 / 2 * np.eye(n), np.zeros((n, n))))


def test_sigma_eta_table_is_kron_and_read_only():
    # build_momentum_bdg reads the 16 products from one module-level table
    for s in "0xyz":
        for e in "0xyz":
            m = sigma_eta(s, e)
            assert np.array_equal(m, np.kron(lattice.PAULI[s], lattice.PAULI[e]))
            assert m.dtype == complex and not m.flags.writeable
            with pytest.raises(ValueError):
                m[0, 0] = 1.0


@pytest.mark.parametrize("Ny", [1, 2, 3])
@pytest.mark.parametrize("Nx", [1, 2, 3])
def test_momentum_partners_map_k_to_minus_k(Nx, Ny):
    p = fig_s1_params(Nx, Ny, "periodic-both")
    k = np.array(momentum_grid(p))
    partner = momentum_partners(p)
    assert partner.shape == (len(k),)
    assert np.array_equal(partner[partner], np.arange(len(k)))
    # -k and k[partner] differ by a reciprocal lattice vector
    d = (k[partner] + k) / (2 * np.pi)
    assert np.abs(d - np.round(d)).max() < 1e-12
    # the self-partnered points have kx and ky each 0 or pi
    own = {tuple(x) for x in k[partner == np.arange(len(k))]}
    kys = (0.0, np.pi) if Ny % 2 == 0 else (0.0,)
    assert own == {(kx, ky) for kx in (0.0, np.pi) for ky in kys}


def test_particle_hole_symmetry_random():
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(20):
        p = random_params(rng)
        worst = max(worst, check_symmetry(p, symmetry_op("particle-hole")))
    assert worst < 1e-10


def test_emergent_symmetries_fine_tuned():
    fine = small_params(Jy=0.0, dJ=0.0, dmu0=0.0, dmu1=0.0)
    for kind in ("chiral", "time-reversal", "inversion"):
        assert check_symmetry(fine, symmetry_op(kind)) < 1e-10


def test_symmetries_broken_at_benchmark_point():
    p = fig_s1_params(Nx=2, Ny=2)
    assert check_symmetry(p, symmetry_op("chiral")) > 1e-3
    assert check_symmetry(p, symmetry_op("particle-hole")) < 1e-10


def test_reduce_to_1d_requires_decoupling():
    with pytest.raises(ValueError, match="decoupling"):
        reduce_to_1d(small_params(Jy=0.2, dJ=0.1))


def test_reduce_to_1d_matches_first_row():
    p = small_params(Nx=3, Ny=2, Jy=0.1, dJ=0.1, Dy=0.5, dDy=0.5)
    chain = reduce_to_1d(p)
    full = build_realspace_bdg(p)
    row = np.arange(2 * p.shape[0])    # row j = 1: the first Lx sites
    for m in (-1, 0, 1):
        assert np.abs(chain.component(m)
                      - full.component(m)[np.ix_(row, row)]).max() < 1e-14


def test_decoupled_rows_have_no_external_elements():
    p = small_params(Nx=2, Ny=3, Jy=0.13, dJ=0.13, Dy=0.4, dDy=0.4)
    bdg = build_realspace_bdg(p)
    Lx, Ly = p.shape
    for j in (1, Ly):
        sites = [(j - 1) * Lx + x for x in range(Lx)]
        sel = np.array([2 * s + n for s in sites for n in (0, 1)])
        rest = np.array([i for i in range(bdg.dim) if i not in set(sel)])
        for m in (-1, 0, 1):
            h = np.asarray(bdg.component(m))
            assert np.abs(h[np.ix_(sel, rest)]).max() == 0


def test_kitaev_chain_static_limit():
    bdg = kitaev_chain_bdg(4, J=1.0, Delta=1.0, mu0=0.0, mu1=0.0)
    ev = np.linalg.eigvalsh(np.asarray(bdg.component(0)))
    # J = Delta, mu = 0: exact zero modes and a gapped bulk at +-2J
    assert np.abs(ev[np.abs(ev) < 1e-9]).size == 2


def test_boundary_flags():
    p_open = small_params(Nx=2, Ny=2, boundary="open")
    p_px = LatticeParams(**{**p_open.__dict__, "boundary": "periodic-x"})
    h_open = np.asarray(build_realspace_bdg(p_open).component(0))
    h_px = np.asarray(build_realspace_bdg(p_px).component(0))
    # wrap bonds appear only with the periodic flag
    assert np.abs(h_px - h_open).max() > 0
    Lx = 4
    a, b = 0, Lx - 1     # sites on opposite x-edges, same row
    blk = h_px[2 * a:2 * a + 2, 2 * b:2 * b + 2]
    assert np.abs(blk).max() > 0
    blk_open = h_open[2 * a:2 * a + 2, 2 * b:2 * b + 2]
    assert np.abs(blk_open).max() == 0


@pytest.mark.parametrize("boundary", lattice.BOUNDARIES)
def test_x_mirror_is_antiunitary_symmetry(boundary, rng):
    # R h^(m)* R = h^(m) for every harmonic, with (R v)[a] = s[a] v[p[a]]
    for shape in ((2, 2), (3, 2)):
        bdg = build_realspace_bdg(
            random_params(rng, Nx=shape[0], Ny=shape[1], boundary=boundary))
        p, s = bdg.mirror.perm, bdg.mirror.sign
        for h in bdg.harmonics.values():
            assert np.array_equal(s[:, None] * s * h[np.ix_(p, p)].conj(), h)
    chain = kitaev_chain_bdg(5, 0.7, 0.4, 0.3, 0.9)
    p, s = chain.mirror.perm, chain.mirror.sign
    assert p[4] == 4 and p[5] == 5          # the middle site is its own image
    for h in chain.harmonics.values():
        assert np.array_equal(s[:, None] * s * h[np.ix_(p, p)].conj(), h)
