import re
import subprocess
import sys
import warnings

import numpy as np
import pytest

from cornerlab import fock
from cornerlab import perturbation as pb
from cornerlab.lattice import build_realspace_bdg, fig_s1_params, kitaev_chain_bdg
from cornerlab.perturbation import (
    FourLeadParams,
    PerturbationProblem,
    TwoLeadParams,
    effective_hamiltonian,
    effective_two_lead_block,
    four_lead_effective,
    four_lead_toy,
    lead_effective_coupling,
    majorana_mode_expansion,
    pi_first_order_residual,
    pi_mode_seeds,
    quadratic_from_bdg,
    signed_splitting,
    species_pair,
    two_lead_toy,
    verify_effective_model,
    zero_mode_seeds,
)

W = 2 * np.pi


def symmetric_params(lam=0.1, direct=0.0, **kw):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return TwoLeadParams(
            eps_plus=1.0, eps_minus=1.0, n_i=0, n_j=0,
            coupling_i={("0", 0): lam}, coupling_j={("0", 0): lam},
            direct=direct, **kw,
        )


# --- generic Floquet perturbation theory -----------------------------------

def test_static_two_level_second_order():
    D, v = 1.7, 0.3
    prob = PerturbationProblem(
        h0={0: np.diag([0.0, D]).astype(complex)},
        v={0: np.array([[0, v], [v, 0]], dtype=complex)},
        omega=W, m_cutoff=0)
    heff = effective_hamiltonian(prob, prob.cluster_near(0.0, 1e-9), order=2)
    assert heff.shape == (1, 1)
    assert heff[0, 0] == pytest.approx(-v**2 / D, abs=1e-14)


def test_zero_perturbation_gives_zero_corrections():
    prob = PerturbationProblem(
        h0={0: np.diag([0.0, 1.0]).astype(complex)},
        v={0: np.zeros((2, 2), dtype=complex)},
        omega=W, m_cutoff=0)
    for order in (1, 2, 3):
        heff = effective_hamiltonian(prob, np.array([0]), order=order)
        assert heff[0, 0] - prob.eps0[0] == 0


def test_random_driven_problem_second_order_slope():
    rng = np.random.default_rng(11)
    d = 6
    h0 = {0: np.diag(np.linspace(-2.0, 2.0, d)).astype(complex)}
    v1 = 0.5 * (rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
    v1 = (v1 + v1.conj().T) / 2
    v1 -= np.diag(np.diag(v1))
    v2 = 0.3 * (rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
    v = {0: v1, 1: v2, -1: v2.conj().T}
    # the Sambe lift of V: block (n, n') = v^(n - n'), no n*omega diagonal
    prob = PerturbationProblem(h0=h0, v=v, omega=W, m_cutoff=2)
    lift = sum(np.kron(np.eye(5, k=-m), vm) for m, vm in v.items())
    basis = prob.basis
    assert np.allclose(prob.v_matrix, basis.conj().T @ lift @ basis,
                       rtol=0, atol=1e-12)
    errs, lams = [], np.geomspace(0.01, 0.1, 6)
    for lam in lams:
        prob = PerturbationProblem(h0=h0, v=v, omega=W, m_cutoff=2, lam=lam)
        j = int(np.argmin(np.abs(prob.eps0 + 2.0)))
        pred = effective_hamiltonian(prob, np.array([j]), order=2)[0, 0].real
        exact = prob.exact_quasienergies()
        errs.append(np.abs(exact - pred).min())
    slope = np.polyfit(np.log(lams), np.log(errs), 1)[0]
    assert slope == pytest.approx(3.0, abs=0.2)


def _dense_problem(prob):
    """The same problem with the dense eigh basis and W^H V W preset: the
    reference for the block solve (its effective block comes from
    `_dense_effective`)."""
    ref = PerturbationProblem(prob.h0, prob.v, prob.omega, prob.m_cutoff,
                              prob.lam)
    eps, W = np.linalg.eigh(ref._h0_sambe)
    ref._unperturbed = (eps, W, None)
    ref.v_matrix = W.conj().T @ ref._v_sambe @ W
    return ref


def _dense_effective(prob, cluster, order):
    """The textbook Van Vleck block from the dense v_matrix: P(E0 + lam V)P
    + lam^2 PVRVP + lam^3 [(PVRVRVP + h.c.)/2 - {PVRRVP, PVP}/2]."""
    eps, V, lam = prob.eps0, prob.v_matrix, prob.lam
    center = float(eps[cluster].mean())
    outside = np.nonzero(np.abs(eps - center) > pb.DEGENERACY_TOL)[0]
    pvp = V[np.ix_(cluster, cluster)]
    heff = np.diag(eps[cluster]).astype(complex) + lam * pvp
    vout = V[np.ix_(cluster, outside)]
    r1 = 1.0 / (center - eps[outside])
    if order >= 2:
        heff = heff + lam**2 * (vout * r1) @ vout.conj().T
    if order >= 3:
        a = (vout * r1) @ V[np.ix_(outside, outside)] @ (vout * r1).conj().T
        b = (vout * r1**2) @ vout.conj().T
        heff = heff + lam**3 * ((a + a.conj().T) / 2 - (pvp @ b + b @ pvp) / 2)
    return (heff + heff.conj().T) / 2


def _toy_problems():
    p4 = FourLeadParams(eps_plus=1.0, eps_minus=0.8,
                        couplings={1: 1.0, 2: 0.8, 3: 0.9, 4: 1.1},
                        link12=0.6, link34=0.5, flux12=0.4, flux43=1.1)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        p2 = TwoLeadParams(eps_plus=1.0, eps_minus=0.8, n_i=0, n_j=0,
                           coupling_i={("0", 0): 1.0}, coupling_j={("0", 0): 0.7},
                           direct=0.5, flux0=0.3)
    for toy in (lambda s: four_lead_toy(p4, s), lambda s: two_lead_toy(p2, s)):
        h0 = toy(0.0).harmonics[0]
        yield PerturbationProblem(h0={0: h0}, v={0: toy(1.0).harmonics[0] - h0},
                                  omega=W, m_cutoff=0, lam=0.03)


@pytest.mark.parametrize("toy", [0, 1], ids=["four-lead", "two-lead"])
def test_block_solve_matches_dense_on_toys(toy):
    prob = list(_toy_problems())[toy]
    ref = _dense_problem(prob)
    d = prob.eps0.size
    # charge and fermion parity split the toys into many small blocks
    assert len(prob._blocks) > 1 and sum(b.size for b in prob._blocks) == d
    assert max(b.shape[1] for b in prob._blocks) < d // 4
    assert np.abs(prob.eps0 - ref.eps0).max() < 1e-12
    assert np.abs(prob.exact_quasienergies()
                  - np.linalg.eigvalsh(ref._h0_sambe + ref.lam * ref._v_sambe)
                  ).max() < 1e-12
    basis = prob.basis
    assert np.abs(basis.conj().T @ basis - np.eye(d)).max() < 1e-12
    assert np.abs(prob.v_matrix
                  - basis.conj().T @ prob._v_sambe @ basis).max() < 1e-12
    cl = prob.cluster_near(0.0, 1e-9)
    assert cl.size >= 2 and np.array_equal(cl, ref.cluster_near(0.0, 1e-9))
    # the per-block Van Vleck series against the dense formula: entry by
    # entry in the block basis, and by eigenvalue in the dense basis
    shuffled = np.random.default_rng(toy).permutation(cl)
    for order in (1, 2, 3):
        heff = effective_hamiltonian(prob, cl, order)
        assert np.abs(heff - _dense_effective(prob, cl, order)).max() < 1e-12
        ev_ref = np.linalg.eigvalsh(_dense_effective(ref, cl, order))
        assert np.abs(np.linalg.eigvalsh(heff) - ev_ref).max() < 1e-12, order
        # the block follows the cluster's order
        assert np.abs(effective_hamiltonian(prob, shuffled, order)
                      - _dense_effective(prob, shuffled, order)).max() < 1e-12
    # the toy's exact levels come from the same helper
    h = prob._h0_sambe + prob.lam * prob._v_sambe
    levels, vecs = pb.ToyModel({0: h}, h, {}).exact_levels()
    assert np.abs(levels - np.linalg.eigvalsh(h)).max() < 1e-12
    assert np.abs(h @ vecs - vecs * levels).max() < 1e-12


def test_block_solve_finds_permuted_blocks():
    rng = np.random.default_rng(19)
    sizes = [1, 3, 5, 3, 2, 5, 1, 4]
    n = sum(sizes)
    perm = rng.permutation(n)
    h = np.zeros((n, n), dtype=complex)
    v = np.zeros((n, n), dtype=complex)
    built, start = [], 0
    for s in sizes:
        idx = perm[start:start + s]
        for m in (h, v):
            a = rng.normal(size=(s, s)) + 1j * rng.normal(size=(s, s))
            m[np.ix_(idx, idx)] = a + a.conj().T
        built.append(frozenset(idx.tolist()))
        start += s
    blocks = pb._blocks(h != 0)
    found = [frozenset(row.tolist()) for b in blocks for row in b]
    assert sorted(map(sorted, found)) == sorted(map(sorted, built))
    assert [b.shape[1] for b in blocks] == sorted(set(sizes))
    w, vecs, cols = pb._block_eigh(h)
    assert np.all(np.diff(w) >= 0)
    assert np.abs(w - np.linalg.eigvalsh(h)).max() < 1e-12
    assert np.abs(pb._block_eigh(h, vectors=False) - w).max() < 1e-12
    assert np.abs(h @ vecs - vecs * w).max() < 1e-12
    assert np.abs(vecs.conj().T @ vecs - np.eye(n)).max() < 1e-12
    # every column is exactly zero outside its block, and `cols` names them
    for rows, c in zip(blocks, cols):
        for r, cc in zip(rows, c):
            outside = np.setdiff1d(np.arange(n), r)
            assert not vecs[np.ix_(outside, cc)].any()
    # a problem with complex eigenvectors: W^H V W per block
    prob = PerturbationProblem(h0={0: h}, v={0: v}, omega=W, m_cutoff=0)
    basis = prob.basis
    assert np.abs(prob.v_matrix - basis.conj().T @ v @ basis).max() < 1e-12


def test_connected_driven_problem_is_one_block():
    rng = np.random.default_rng(5)
    d = 6
    h0 = {0: np.diag(np.linspace(-2.0, 2.0, d)).astype(complex)}
    v1 = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    v2 = 0.3 * (rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
    v = {0: v1 + v1.conj().T, 1: v2, -1: v2.conj().T}
    prob = PerturbationProblem(h0=h0, v=v, omega=W, m_cutoff=2, lam=0.1)
    assert [b.shape for b in prob._blocks] == [(1, 5 * d)]
    ref = _dense_problem(prob)
    # one block is the dense solve it replaces
    assert np.array_equal(prob.eps0, ref.eps0)
    assert np.array_equal(prob.basis, ref.basis)
    assert np.array_equal(prob.exact_quasienergies(), np.linalg.eigvalsh(
        ref._h0_sambe + ref.lam * ref._v_sambe))
    assert np.abs(prob.v_matrix - ref.v_matrix).max() < 1e-12


def test_problem_rejects_bad_harmonics():
    d = 3
    h = np.diag([0.0, 1.0, 2.0]).astype(complex)
    a = np.triu(np.ones((d, d), dtype=complex), 1)
    driven = {0: h, 1: a, -1: a.conj().T}
    with pytest.raises(ValueError, match="adjoint"):
        PerturbationProblem(h0={0: h, 1: a, -1: a}, v={0: h}, omega=W,
                            m_cutoff=2)
    with pytest.raises(ValueError, match="adjoint"):
        PerturbationProblem(h0={0: h}, v={0: a}, omega=W, m_cutoff=0)
    for h0, v in ((driven, {0: h}), ({0: h}, driven)):
        with pytest.raises(ValueError, match="cutoff"):
            PerturbationProblem(h0=h0, v=v, omega=W, m_cutoff=0)


def test_effective_matches_corrections_without_internal_structure():
    rng = np.random.default_rng(3)
    d = 5
    h0 = np.diag([0.0, 0.0, 1.3, 2.1, -1.7]).astype(complex)
    v = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    v = (v + v.conj().T) / 2
    v[np.ix_([0, 1], [0, 1])] = 0          # no internal first-order structure
    prob = PerturbationProblem(h0={0: h0}, v={0: v}, omega=W, m_cutoff=0,
                               lam=0.05)
    cl = prob.cluster_near(0.0, 1e-9)
    assert cl.size == 2
    # the textbook second-order block on the degenerate pair at E0 = 0,
    # built from h0 and v directly: sum_k v_ik v_kj / (E0 - e_k)
    inside, outside = [0, 1], [2, 3, 4]
    e_out = np.diag(h0).real[outside]
    block = 0.05**2 * (v[np.ix_(inside, outside)] / (0.0 - e_out)) \
        @ v[np.ix_(outside, inside)]
    ev = np.linalg.eigvalsh(effective_hamiltonian(prob, cl, order=2))
    assert np.abs(ev - np.linalg.eigvalsh(block)).max() < 1e-12


def test_effective_rejects_bad_cluster():
    prob = PerturbationProblem(
        h0={0: np.diag([0.0, 0.0, 1.0, 2.0]).astype(complex)},
        v={0: np.ones((4, 4), dtype=complex)}, omega=W, m_cutoff=0)
    for cluster in ([0, 0], [-1], [], [4], [[0, 1]]):
        with pytest.raises(ValueError, match=r"distinct states in 0\.\.3"):
            effective_hamiltonian(prob, cluster, order=3)
    assert effective_hamiltonian(prob, [1, 0], order=3).shape == (2, 2)


def test_effective_two_state_eigenvalues():
    g = 0.37
    h0 = np.diag([0.0, 0.0, 3.0]).astype(complex)
    v = np.zeros((3, 3), complex)
    v[0, 1] = v[1, 0] = g                  # internal first-order splitting
    prob = PerturbationProblem(h0={0: h0}, v={0: v}, omega=W, m_cutoff=0)
    heff = effective_hamiltonian(prob, np.array([0, 1]), order=1)
    assert np.allclose(np.linalg.eigvalsh(heff), [-g, g], atol=1e-14)


# --- lead-Majorana effective couplings --------------------------------------

def test_species_pair_inference():
    assert species_pair(0, 0) == "00"
    assert species_pair(1, -1) == "pipi"
    assert species_pair(0, -1) == "0pi"


def test_lead_coupling_direct_substitution():
    params = symmetric_params(0.1)
    pair, T = lead_effective_coupling(params)
    assert pair == "00"
    assert T[0] == pytest.approx(0.02j, abs=1e-15)


def test_lead_coupling_zero_and_mixed():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        p = TwoLeadParams(eps_plus=1.0, eps_minus=1.0, n_i=0, n_j=0,
                          coupling_i={("0", 0): 0.1}, coupling_j={("0", 0): 0.0})
        assert lead_effective_coupling(p)[1][0] == 0
        mixed = TwoLeadParams(eps_plus=1.0, eps_minus=1.0, n_i=0, n_j=-1,
                              coupling_i={("0", 0): 0.1},
                              coupling_j={("pi", -1): 0.2})
    pair, T = lead_effective_coupling(mixed)
    assert pair == "0pi"
    assert set(T) == {-1}                  # the exp(-i w t / 2) factor
    assert T[-1] == pytest.approx(1j * 2 * 0.1 * 0.2, abs=1e-15)


def test_lead_energy_index_restriction():
    with pytest.raises(ValueError, match="unsupported"):
        TwoLeadParams(eps_plus=1.0, eps_minus=1.0, n_i=2, n_j=0,
                      coupling_i={}, coupling_j={})


def test_coupling_warning():
    with pytest.warns(UserWarning, match="blockade gap") as caught:
        TwoLeadParams(eps_plus=1.0, eps_minus=1.0, n_i=0, n_j=0,
                      coupling_i={("0", 0): 0.5}, coupling_j={})
    # the warning names the line that built the parameters
    assert [w.filename for w in caught] == [__file__]


def test_verify_effective_model_scaling_points():
    params = symmetric_params(0.1)
    # lam/eps = 0.02
    assert verify_effective_model(params, scale=0.2) < 5e-2
    assert verify_effective_model(params, scale=1.0) < 5e-2


def test_verify_effective_model_zero_coupling():
    params = symmetric_params(0.1)
    assert verify_effective_model(params, scale=0.0) == 0.0


def test_parity_flip_inverts_signed_splitting():
    params = symmetric_params(0.1)
    sp = signed_splitting(params, +1)
    sm = signed_splitting(params, -1)
    assert sp == pytest.approx(-sm, abs=1e-14)
    assert abs(sp) == pytest.approx(0.02, rel=0.1)


def test_two_lead_error_slope():
    params = symmetric_params(1.0, direct=0.5)
    lams = np.geomspace(0.01, 0.1, 6)
    errs = []
    for lam in lams:
        rel = verify_effective_model(params, scale=lam)
        pred = np.abs(np.linalg.eigvalsh(
            effective_two_lead_block(params, 1, scale=lam))).max()
        errs.append(rel * pred)
    slope = np.polyfit(np.log(lams), np.log(errs), 1)[0]
    assert slope == pytest.approx(3.0, abs=0.2)


def test_pipi_coupling_formula_and_toy_scope():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        params = TwoLeadParams(
            eps_plus=1.0, eps_minus=1.0, n_i=1, n_j=-1,
            coupling_i={("pi", -1): 0.08, ("pi", 1): 0.08},
            coupling_j={("pi", -1): 0.08, ("pi", 1): 0.08})
    pair, T = lead_effective_coupling(params)
    assert pair == "pipi" and set(T) == {-2}
    assert T[-2] == pytest.approx(1j * 2 * 0.08 * 0.08, abs=1e-15)
    with pytest.raises(NotImplementedError):
        verify_effective_model(params)
    with pytest.raises(NotImplementedError):
        signed_splitting(params, +1)
    # the toy is static: a coupling off harmonic 0 is named and rejected
    with pytest.raises(ValueError, match=r"\('pi', -1\) of lead i"):
        two_lead_toy(params)


def test_toy_model_is_static():
    toy = two_lead_toy(symmetric_params(0.1))
    h = toy.harmonics[0]
    x = np.eye(h.shape[0], k=1)
    for harmonics in ({0: h, 1: x, -1: x.T}, {1: x, -1: x.T}):
        with pytest.raises(ValueError, match="static"):
            pb.ToyModel(harmonics, toy.charge_op, toy.parity_ops)


# --- four leads --------------------------------------------------------------

def _kron_register(f, lower=None, diagonal=None):
    """The np.kron build of a register operator: f (x) 1 + lower (x) L +
    h.c. + 1 (x) diag(diagonal), L = |0><1| + |1><2|."""
    out = np.kron(np.eye(f.shape[0]), np.diag(diagonal or (0.0, 0.0, 0.0))) \
        + np.kron(f, np.eye(3))
    if lower is not None:
        hop = np.kron(lower, np.eye(3, k=1))
        out = out + hop + hop.conj().T
    return out


def test_register_fill_equals_kron(monkeypatch):
    rng = np.random.default_rng(8)
    f, lower = (rng.normal(size=(2, 8, 8)) + 1j * rng.normal(size=(2, 8, 8)))
    for args in ((f,), (f, lower), (f, None, (-0.8, 0.0, -1.3)),
                 (f, lower, (-0.8, 0.0, -1.3))):
        assert np.array_equal(pb._on_register(*args), _kron_register(*args))
    # every register operator of the toys and of signed_splitting
    real, seen = pb._on_register, []

    def spy(*args, **kw):
        seen.append((args, kw, real(*args, **kw)))
        return seen[-1][2]

    monkeypatch.setattr(pb, "_on_register", spy)
    p4 = FourLeadParams(eps_plus=1.0, eps_minus=0.8,
                        couplings={1: 1.0, 2: 0.8, 3: 0.9, 4: 1.1},
                        link12=0.6, link34=0.5, flux12=0.4, flux43=1.1)
    four_lead_toy(p4, 0.3)
    signed_splitting(symmetric_params(0.1, direct=0.02, flux0=0.3), +1, 0.7)
    assert len(seen) == 4 + 5          # H, charge, 2 parities; + the hop
    for args, kw, out in seen:
        assert out.dtype == complex
        assert np.array_equal(out, _kron_register(*args, **kw))


def test_four_lead_coefficients_direct_substitution():
    p4 = FourLeadParams(eps_plus=1.0, eps_minus=1.0,
                        couplings={s: 0.1 for s in range(1, 5)},
                        link12=0.01, link34=0.01)
    amp = four_lead_effective(p4)
    assert abs(amp.c14) == pytest.approx(0.02, abs=1e-15)
    assert abs(amp.c24) == pytest.approx(1e-4, abs=1e-15)
    assert abs(amp.c13) == pytest.approx(1e-4, abs=1e-15)


def test_four_lead_no_links_reduces_to_second_order():
    p4 = FourLeadParams(eps_plus=1.0, eps_minus=1.0,
                        couplings={s: 0.1 for s in range(1, 5)})
    amp = four_lead_effective(p4)
    assert amp.c24 == 0 and amp.c13 == 0 and abs(amp.c14) > 0


def test_four_lead_toy_third_order_slope():
    p4 = FourLeadParams(eps_plus=1.0, eps_minus=1.0,
                        couplings={1: 1.0, 2: 0.8, 3: 0.9, 4: 1.1},
                        link12=0.6, link34=0.5, flux12=0.4, flux43=1.1)
    H0 = four_lead_toy(p4, scale=0.0).harmonics[0]
    V = four_lead_toy(p4, scale=1.0).harmonics[0] - H0
    lams = np.geomspace(0.005, 0.05, 6)
    errs = []
    for lam in lams:
        prob = PerturbationProblem(h0={0: H0}, v={0: V}, omega=W,
                                   m_cutoff=0, lam=lam)
        cl = prob.cluster_near(0.0, 1e-9)
        pred = np.sort(np.linalg.eigvalsh(
            effective_hamiltonian(prob, cl, order=3)))
        exact_all = prob.exact_quasienergies()
        exact = np.sort(exact_all[np.argsort(np.abs(exact_all))[:cl.size]])
        errs.append(np.abs(exact - pred).max())
    slope = np.polyfit(np.log(lams), np.log(errs), 1)[0]
    assert slope == pytest.approx(4.0, abs=0.3)


# --- quadratic-Majorana algebra and the mode expansion -----------------------

def test_quadratic_from_bdg_commutator_oracle():
    # independent Fock-space check of [H, gamma(v)] = gamma(i A v)
    rng = np.random.default_rng(4)
    bdg = kitaev_chain_bdg(3, J=0.7, Delta=0.4, mu0=0.3, mu1=0.0)
    h = np.asarray(bdg.component(0))
    a = quadratic_from_bdg(h)
    cs = fock.jw_annihilators(3)
    gammas = []
    for k in range(3):
        ga, gb = fock.majorana_pair(3, k)
        gammas.extend([ga, gb])
    H = np.zeros((8, 8), dtype=complex)
    for i in range(6):
        for j in range(6):
            H += (1j / 4) * a[i, j] * gammas[i] @ gammas[j]
    v = rng.normal(size=6)
    gv = sum(v[i] * gammas[i] for i in range(6))
    lhs = H @ gv - gv @ H
    w = 1j * a @ v
    rhs = sum(w[i] * gammas[i] for i in range(6))
    assert np.abs(lhs - rhs).max() < 1e-12


def _loop_majorana_form(h):
    """s^H h s with s built site by site, the dense product the per-site
    2x2 algebra replaces; returns A = -i (b - b^T)."""
    n = h.shape[0] // 2
    s = np.zeros((2 * n, 2 * n), dtype=complex)
    for x in range(n):
        s[2 * x, 2 * x] = s[2 * x + 1, 2 * x] = 0.5
        s[2 * x, 2 * x + 1] = 0.5j
        s[2 * x + 1, 2 * x + 1] = -0.5j
    b = s.conj().T @ h @ s
    return -1j * (b - b.T)


def test_quadratic_from_bdg_matches_dense_product():
    lat = build_realspace_bdg(fig_s1_params(Nx=2, Ny=2))
    hs = [np.asarray(lat.component(0)), 2 * np.asarray(lat.component(1))]
    for n in (1, 2, 40, 61):
        bdg = kitaev_chain_bdg(n, J=1.2, Delta=0.9, mu0=-0.3, mu1=0.5)
        hs += [np.asarray(bdg.component(0)), 2 * np.asarray(bdg.component(1))]
    for h in hs:
        ref = _loop_majorana_form(h)
        assert np.abs(ref.imag).max() < 1e-15
        assert np.abs(quadratic_from_bdg(h) - ref.real).max() <= 1e-15


def test_quadratic_from_bdg_rejects_bad_shapes():
    for shape in ((3, 3), (4, 6), (4,), (2, 2, 2)):
        with pytest.raises(ValueError, match=re.escape(f"got shape {shape}")):
            quadratic_from_bdg(np.zeros(shape, dtype=complex))


def test_expansion_on_complex_copies_equals_real_operators():
    # the expansion multiplies complex copies of A0 and A1; each residual
    # from the real operators is bit for bit the same
    zero = kitaev_chain_bdg(40, J=0.3, Delta=0.3, mu0=0.05, mu1=0.4, omega=W)
    a0z = quadratic_from_bdg(np.asarray(zero.component(0)))
    a1z = quadratic_from_bdg(2 * np.asarray(zero.component(1)))
    a0p, a1p = pi_chain()
    seedp = pi_mode_seeds(a0p, a1p, W, tol=0.05)[0]
    runs = [(a0z, a1z, zero_mode_seeds(a0z, tol=1e-6)[:, 0], "zero", {}),
            (a0p, a1p, seedp, "pi", {"seed_tol": 0.2}),
            (a0p, a1p, seedp, "pi", {"seed_tol": 0.2,
                                     "first_order_pi_coeffs": (2 / 3, -2 / 3)})]
    for a0, a1, seed, species, kw in runs:
        for order in (0, 1, 2):
            exp = majorana_mode_expansion(a0, a1, seed, species, order=order,
                                          omega=W, **kw)
            real = pb._expansion_residual(exp.components, a0, a1, W, species)
            cplx = pb._expansion_residual(exp.components, a0.astype(complex),
                                          a1.astype(complex), W, species)
            assert all(np.array_equal(real[m], cplx[m]) for m in real)
            assert pb._residual_norm(real) == exp.residual_history[-1]


def test_zero_mode_expansion_trivial_drive():
    bdg = kitaev_chain_bdg(10, J=1.0, Delta=1.0, mu0=0.0, mu1=0.0)
    a0 = quadratic_from_bdg(np.asarray(bdg.component(0)))
    seeds = zero_mode_seeds(a0, tol=1e-10)
    exp = majorana_mode_expansion(a0, np.zeros_like(a0), seeds[:, 0],
                                  "zero", order=2, omega=W)
    assert exp.residual_history[0] < 1e-12
    assert set(exp.components) == {0}
    assert np.abs(exp.components[0] - seeds[:, 0]).max() < 1e-12


def test_zero_seed_requires_kernel():
    bdg = kitaev_chain_bdg(6, J=1.0, Delta=1.0, mu0=5.0, mu1=0.0)  # trivial
    a0 = quadratic_from_bdg(np.asarray(bdg.component(0)))
    with pytest.raises(ValueError, match="kernel"):
        zero_mode_seeds(a0, tol=1e-10)
    good = quadratic_from_bdg(np.asarray(
        kitaev_chain_bdg(6, 1.0, 1.0, 0.0, 0.0).component(0)))
    with pytest.raises(ValueError, match="kernel dimension"):
        majorana_mode_expansion(good, np.zeros_like(good),
                                np.ones(12) / np.sqrt(12), "zero", 1)
    # the bound is seed_tol * max(||A0||_2, 1): a kernel seed pushed along
    # A0's top singular vector passes at half the bound and raises at twice
    u, sv, _ = np.linalg.svd(good)
    seed = zero_mode_seeds(good, tol=1e-10)[:, 0]
    for factor, ok in ((0.5, True), (2.0, False)):
        kicked = seed + factor * 1e-6 * max(sv[0], 1.0) / sv[0] * u[:, 0]
        if ok:
            majorana_mode_expansion(good, np.zeros_like(good), kicked, "zero", 1)
        else:
            with pytest.raises(ValueError, match="does not commute"):
                majorana_mode_expansion(good, np.zeros_like(good), kicked,
                                        "zero", 1)


def test_zero_mode_seeds_accepted_by_expansion():
    # with J and Delta drawn apart, the kernel vectors of i A0 can have a
    # near-zero real or imaginary part; every returned seed must still pass
    # the expansion's own commutation check at the same tolerance
    draw = np.random.default_rng(26)
    J, Delta = 0.3 * (1.0 + 0.05 * draw.uniform(-1, 1, 2))
    bdg = kitaev_chain_bdg(40, J=J, Delta=Delta, mu0=0.05, mu1=0.4, omega=W)
    a0 = quadratic_from_bdg(np.asarray(bdg.component(0)))
    a1 = quadratic_from_bdg(2 * np.asarray(bdg.component(1)))
    seeds = zero_mode_seeds(a0, 1e-6)
    assert seeds.shape[1] == 2
    assert np.abs(seeds.T @ seeds - np.eye(2)).max() < 1e-12
    for c in range(seeds.shape[1]):
        exp = majorana_mode_expansion(a0, a1, seeds[:, c], "zero", order=2,
                                      omega=W, seed_tol=1e-6)
        assert exp.residual_history[-1] < exp.residual_history[0]


def test_zero_mode_residual_decay_and_rate():
    bdg = kitaev_chain_bdg(40, J=0.3, Delta=0.3, mu0=0.05, mu1=0.4, omega=W)
    a0 = quadratic_from_bdg(np.asarray(bdg.component(0)))
    a1 = quadratic_from_bdg(2 * np.asarray(bdg.component(1)))
    seeds = zero_mode_seeds(a0, tol=1e-6)
    exp = majorana_mode_expansion(a0, a1, seeds[:, 0], "zero", order=4, omega=W)
    r = exp.residual_history
    assert all(r[i + 1] < r[i] for i in range(4))
    # per-order contraction at the scale ||h1|| / omega
    ratio_bound = 2.0 * np.linalg.norm(a1, 2) / W
    for i in range(4):
        assert r[i + 1] / r[i] < ratio_bound


def pi_chain():
    bdg = kitaev_chain_bdg(60, J=1.2, Delta=1.2, mu0=1.0, mu1=0.5, omega=W)
    a0 = quadratic_from_bdg(np.asarray(bdg.component(0)))
    a1 = quadratic_from_bdg(2 * np.asarray(bdg.component(1)))
    return a0, a1


def test_pi_seed_error_when_band_cannot_reach():
    bdg = kitaev_chain_bdg(10, J=0.3, Delta=0.3, mu0=0.1, mu1=0.2, omega=W)
    a0 = quadratic_from_bdg(np.asarray(bdg.component(0)))
    a1 = quadratic_from_bdg(2 * np.asarray(bdg.component(1)))
    with pytest.raises(ValueError, match="no pi-mode seed"):
        pi_mode_seeds(a0, a1, W, tol=1e-3)


def _pi_seeds_reference(a0, a1, omega, tol):
    """The real 2n x 2n block eigenproblem that pi_mode_seeds solves at half
    size: (block, selected eigenvalues, the real parts of their (x; y)
    eigenvectors as columns), nearest omega/2 first."""
    n = a0.shape[0]
    block = np.zeros((2 * n, 2 * n))
    block[:n, n:] = -a0 + a1 / 2
    block[n:, :n] = a0 + a1 / 2
    w, v = np.linalg.eig(block)
    sel = np.nonzero((np.abs(w.imag) < 1e-8)
                     & (np.abs(w.real - omega / 2) <= tol * omega))[0]
    sel = sel[np.argsort(np.abs(w[sel].real - omega / 2))]
    return block, w[sel], v[:, sel].real


def _pi_seeds_full_xy(a0, a1, omega, tol):
    """pi_mode_seeds with one eig of the full n x n product X Y in place of
    one per component: (selected sqrt(mu), seeds), nearest omega/2 first."""
    x_op, y_op = -a0 + a1 / 2, a0 + a1 / 2
    mu, xs = np.linalg.eig(x_op @ y_op)
    w = np.sqrt(mu.astype(complex))
    sel = np.nonzero((np.abs(w.imag) < 1e-8)
                     & (np.abs(w.real - omega / 2) <= tol * omega))[0]
    sel = sel[np.argsort(np.abs(w[sel].real - omega / 2), kind="stable")]
    seeds = []
    for idx in sel:
        x = xs[:, idx].real
        vec = x + 1j * (y_op @ x / w[idx].real)
        seeds.append(vec / np.linalg.norm(vec))
    return w[sel], seeds


def _drawn_pi_chain(n_sites, seed):
    """A pi chain with every parameter drawn +-5 %, as in lead-oracles."""
    f = 1.0 + 0.05 * np.random.default_rng(seed).uniform(-1, 1, 7)
    bdg = kitaev_chain_bdg(n_sites, J=1.2 * f[3], Delta=1.2 * f[4],
                           mu0=1.0 * f[5], mu1=0.5 * f[6], omega=W)
    a0 = quadratic_from_bdg(np.asarray(bdg.component(0)))
    a1 = quadratic_from_bdg(2 * np.asarray(bdg.component(1)))
    return a0, a1


def _check_seeds_against(a0, a1, seeds, lam_ref, seed_ref):
    """Every block eigenvalue is doubly degenerate (X Y is a product of two
    antisymmetric matrices), and on some chains each solver splits a pair
    by up to ~1e-5 with eigen-residuals near 1e-14: such a pair is
    resolved only to its splitting.  So eigenvalues agree to 1e-10 or to
    4x the two solvers' splittings of their pair, and residual histories
    to 1e-9 relative or to 1e3x the splittings of seeds[0]'s pair."""
    n = a0.shape[0]
    block = np.zeros((2 * n, 2 * n))
    block[:n, n:] = -a0 + a1 / 2
    block[n:, :n] = a0 + a1 / 2
    assert len(seeds) == lam_ref.size > 0
    z = np.array([np.concatenate([v.real, v.imag]) for v in seeds]).T
    lam = np.einsum("ik,ik->k", z, block @ z)       # |z| = 1
    for v, mu in zip(seeds, lam):                   # the eigencondition
        lhs = 1j * (a0 @ v) + 0.5j * (a1 @ v.conj()) - mu * v
        assert np.linalg.norm(lhs) < 1e-10
    assert np.all(np.diff(np.abs(lam - W / 2)) >= -1e-10)
    pairs = np.sort_complex(lam_ref).reshape(-1, 2)
    ours = np.sort(lam).reshape(-1, 2)
    split = np.repeat(np.abs(pairs[:, 0] - pairs[:, 1])
                      + ours[:, 1] - ours[:, 0], 2)
    diff = np.abs(ours.ravel() - pairs.real.ravel())
    assert np.all(diff <= np.maximum(1e-10, 4 * split))
    split0 = split[np.argmin(np.abs(ours.ravel() - lam[0]))]
    hist = [majorana_mode_expansion(a0, a1, v, "pi", order=3, omega=W,
                                    seed_tol=0.2).residual_history
            for v in (seeds[0], seed_ref)]
    assert np.allclose(hist[0], hist[1], atol=0,
                       rtol=max(1e-9, 1e3 * split0)), split0


@pytest.mark.parametrize("n_sites", [40, 60, 61])
def test_pi_seeds_match_full_block_eig(n_sites):
    # seeded chains drawn as in the expansion tests, against the real
    # 2n x 2n block eigenproblem that pi_mode_seeds solves at half size,
    # and against one eig of all of X Y: real couplings make A0 and A1
    # bipartite, so X Y splits into its two Majorana sublattices and
    # pi_mode_seeds solves one eig per component
    n = 2 * n_sites
    for seed in range(6):
        a0, a1 = _drawn_pi_chain(n_sites, seed)
        xy = (-a0 + a1 / 2) @ (a0 + a1 / 2)
        assert [b.shape for b in pb._blocks((xy != 0) | (xy.T != 0))] \
            == [(2, n_sites)]
        seeds = pi_mode_seeds(a0, a1, W, tol=0.05)
        _, lam_ref, z_ref = _pi_seeds_reference(a0, a1, W, 0.05)
        _check_seeds_against(a0, a1, seeds, lam_ref,
                             (z_ref[:n, 0] + 1j * z_ref[n:, 0])
                             / np.linalg.norm(z_ref[:, 0]))
        w_ref, seeds_ref = _pi_seeds_full_xy(a0, a1, W, 0.05)
        _check_seeds_against(a0, a1, seeds, w_ref.real, seeds_ref[0])


def test_pi_seeds_on_connected_xy_are_the_full_solve():
    # an A-A coupling joins the sublattices: X Y is one component, and
    # the per-component path is the full solve
    a0, a1 = _drawn_pi_chain(60, 0)
    a0[0, 2], a0[2, 0] = 0.05, -0.05
    xy = (-a0 + a1 / 2) @ (a0 + a1 / 2)
    assert [b.shape for b in pb._blocks((xy != 0) | (xy.T != 0))] == [(1, 120)]
    seeds = pi_mode_seeds(a0, a1, W, tol=0.05)
    w_ref, seeds_ref = _pi_seeds_full_xy(a0, a1, W, 0.05)
    assert len(seeds) == len(seeds_ref) > 0
    assert all(np.array_equal(v, r) for v, r in zip(seeds, seeds_ref))
    _check_seeds_against(a0, a1, seeds, w_ref.real, seeds_ref[0])


def test_pi_mode_expansion_residuals_and_hermiticity():
    a0, a1 = pi_chain()
    seeds = pi_mode_seeds(a0, a1, W, tol=0.05)
    v0 = seeds[0]
    dens = (np.abs(v0) ** 2).reshape(-1, 2).sum(axis=1)
    assert dens[:5].sum() + dens[-5:].sum() > 0.8       # edge-localized seed
    exp = majorana_mode_expansion(a0, a1, v0, "pi", order=3, omega=W,
                                  seed_tol=0.2)
    r = exp.residual_history
    assert r[0] > r[1] > r[2] > r[3]
    times = np.linspace(0.05, 1.95, 10)
    assert exp.hermiticity_defect(times) < 1e-10


def test_pi_first_order_coefficients():
    a0, a1 = pi_chain()
    seed = pi_mode_seeds(a0, a1, W, tol=0.05)[0]
    r_corrected = pi_first_order_residual(a0, a1, seed, (2 / 3, -2 / 3))
    r_published = pi_first_order_residual(a0, a1, seed, (2 / 3, -2 / 5))
    # (2/3, -2/3) cancels the nu*w part of the first-order residual; the
    # published (2/3, -2/5) leaves an uncancelled first-order defect
    assert r_corrected < r_published
    # coarse minimality: the exact minimum sits within O(||h||/omega) of
    # (2/3, -2/3), far from -2/5
    for eps in (0.3, -0.3):
        assert pi_first_order_residual(a0, a1, seed, (2 / 3 + eps, -2 / 3)) \
            > r_corrected
        assert pi_first_order_residual(a0, a1, seed, (2 / 3, -2 / 3 + eps)) \
            > r_corrected


def test_explicit_coefficient_step_matches_bare_formula():
    a0, a1 = pi_chain()
    seed = pi_mode_seeds(a0, a1, W, tol=0.05)[0]
    exp = majorana_mode_expansion(a0, a1, seed, "pi", order=1, omega=W,
                                  seed_tol=0.2,
                                  first_order_pi_coeffs=(2 / 3, -2 / 5))
    x = 1j * (a1 @ seed)
    y = 1j * (a1 @ seed.conj())
    assert np.abs(exp.components[-1] - (2 / 3) * x / (2 * W)).max() < 1e-14
    assert np.abs(exp.components[2] - (-2 / 5) * y / (2 * W)).max() < 1e-14


def _expansion_reference(a0, a1, seed, species, order, omega=W):
    """The generic sweep with one np.linalg.solve, or a trimmed SVD, of
    (iA0 + nu w) per harmonic per order: (residual history, components)."""
    n = a0.shape[0]
    comp = {0: np.array(seed, dtype=complex)}
    if species == "pi":
        comp[1] = np.array(seed.conj(), dtype=complex)
    spec = np.linalg.eigvalsh(1j * a0)
    res = pb._expansion_residual(comp, a0, a1, omega, species)
    history = [pb._residual_norm(res)]
    for _ in range(order):
        for m, r in res.items():
            if np.linalg.norm(r) == 0:
                continue
            nu = pb._nu(m, species)
            op = 1j * a0 + nu * omega * np.eye(n)
            sigma_min = 1e-6 * omega if nu == 0 else 0.1 * omega
            if np.abs(spec + nu * omega).min() >= 2 * sigma_min:
                delta = np.linalg.solve(op, -r)
            else:
                u, s, vt = np.linalg.svd(op)
                keep = s >= sigma_min
                delta = vt.conj().T[:, keep] @ (
                    (u.conj().T[keep] @ (-r)) / s[keep])
            comp[m] = comp.get(m, np.zeros(n, dtype=complex)) + delta
        res = pb._expansion_residual(comp, a0, a1, omega, species)
        history.append(pb._residual_norm(res))
    return history, comp


@pytest.mark.parametrize("seed", [None, 0, 1, 2])
def test_expansion_resolvent_matches_solve_and_svd(seed):
    # criterion 5a's chains (seed None) and chains with every parameter
    # drawn +-5 %; the eigen-resolvent of one eigh(iA0) against the
    # per-harmonic solve / trimmed SVD it replaces
    f = (np.ones(7) if seed is None
         else 1.0 + 0.05 * np.random.default_rng(seed).uniform(-1, 1, 7))
    zero = kitaev_chain_bdg(40, J=0.3 * f[0], Delta=0.3 * f[0], mu0=0.05 * f[1],
                            mu1=0.4 * f[2], omega=W)
    pi = kitaev_chain_bdg(60, J=1.2 * f[3], Delta=1.2 * f[4], mu0=1.0 * f[5],
                          mu1=0.5 * f[6], omega=W)
    for bdg, species in ((zero, "zero"), (pi, "pi")):
        a0 = quadratic_from_bdg(np.asarray(bdg.component(0)))
        a1 = quadratic_from_bdg(2 * np.asarray(bdg.component(1)))
        if species == "zero":
            v, kw = zero_mode_seeds(a0, tol=1e-6)[:, 0], {}
        else:
            v, kw = pi_mode_seeds(a0, a1, W, tol=0.05)[0], {"seed_tol": 0.2}
        exp = majorana_mode_expansion(a0, a1, v, species, order=3, omega=W, **kw)
        history, comp = _expansion_reference(a0, a1, v, species, 3)
        assert np.allclose(exp.residual_history, history, rtol=1e-12, atol=0)
        assert set(exp.components) == set(comp)
        for m, c in comp.items():
            err = np.abs(exp.components[m] - c).max()
            assert err <= 1e-12 * np.abs(c).max(), (species, m, err)


def test_perturbation_layer_loads_no_scipy_linalg_or_sparse():
    # lead-oracles' setup time and peak RSS stay flat: the block solve, the
    # toys and the half-size pi seeds run on numpy alone
    code = (
        "import sys, warnings\n"
        "import numpy as np\n"
        "from cornerlab import perturbation as pb\n"
        "from cornerlab.lattice import kitaev_chain_bdg\n"
        "warnings.simplefilter('ignore')\n"
        "p4 = pb.FourLeadParams(1.0, 1.0, {s: 1.0 for s in range(1, 5)},\n"
        "                       0.6, 0.5, 0.4, 1.1)\n"
        "h0 = pb.four_lead_toy(p4, 0.0).harmonics[0]\n"
        "v = pb.four_lead_toy(p4, 1.0).harmonics[0] - h0\n"
        "prob = pb.PerturbationProblem({0: h0}, {0: v}, 2 * np.pi, 0, 0.01)\n"
        "pb.effective_hamiltonian(prob, prob.cluster_near(0.0, 1e-9), 3)\n"
        "prob.exact_quasienergies()\n"
        "p2 = pb.TwoLeadParams(1.0, 1.0, 0, 0, {('0', 0): 0.1},\n"
        "                      {('0', 0): 0.1})\n"
        "pb.verify_effective_model(p2, 0.5)\n"
        "bdg = kitaev_chain_bdg(60, 1.2, 1.2, 1.0, 0.5)\n"
        "a0 = pb.quadratic_from_bdg(np.asarray(bdg.component(0)))\n"
        "a1 = pb.quadratic_from_bdg(2 * np.asarray(bdg.component(1)))\n"
        "pb.pi_mode_seeds(a0, a1, 2 * np.pi, tol=0.05)\n"
        "print(' '.join(m for m in sys.modules\n"
        "               if m.startswith(('scipy.linalg', 'scipy.sparse'))))\n"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == ""
