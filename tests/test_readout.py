import dataclasses

import numpy as np
import pytest
from scipy.special import jv

from cornerlab import readout as ro
from cornerlab.majorana import g, string
from cornerlab.perturbation import four_lead_effective
from cornerlab.readout import (
    LeadConfig,
    LeadId,
    classify_parity,
    config_for_parity,
    joint_conductance,
    tune_fluxes,
    two_lead_conductance,
)

Z1 = string(1j, [g("0", 1), g("0", 2)])
PP12 = string(1j, [g("pi", 1), g("pi", 2)])
X3 = string(1j, [g("0", 4), g("pi", 4)])
FOUR = string(1, [g("0", c) for c in range(1, 5)])


def test_lead_assignment_table():
    cfg = config_for_parity(Z1)
    assert [(l.corner, l.side, l.n) for l in cfg.leads] == [(1, "a", 0), (2, "a", 0)]
    cfg = config_for_parity(PP12)
    assert [(l.corner, l.side, l.n) for l in cfg.leads] == [(1, "a", 1), (2, "a", -1)]
    cfg = config_for_parity(X3)      # same corner, mixed species: sides a, b
    assert [(l.corner, l.side, l.n) for l in cfg.leads] == [(4, "a", 0), (4, "b", -1)]
    cfg = config_for_parity(string(1j, [g("0", 3), g("pi", 2)]))
    assert [(l.corner, l.side, l.n) for l in cfg.leads] == [(3, "a", 0), (2, "a", -1)]
    cfg4 = config_for_parity(FOUR)
    assert len(cfg4.leads) == 4 and cfg4.four_lead is not None
    with pytest.raises(ValueError, match="no lead configuration"):
        config_for_parity(string(1j, [g("0", 1), g("0", 2), g("0", 3), g("pi", 4)][:3]))


def test_cnot_sequence_parities_all_have_configs():
    seqs = [X3, string(1j, [g("pi", 2), g("pi", 4)]),
            string(1j, [g("0", 3), g("pi", 2)]), FOUR]
    for parity in seqs:
        cfg = config_for_parity(parity)
        assert cfg.measured == parity


def test_no_interference_without_direct_link():
    cfg = config_for_parity(Z1, direct=0.0)
    a = two_lead_conductance(cfg, +1)
    b = two_lead_conductance(cfg, -1)
    assert a.value == pytest.approx(b.value, abs=1e-15)
    assert a.decomposition["interference"] == 0


def test_parity_difference_is_twice_interference():
    cfg = config_for_parity(Z1, direct=0.02, flux0=0.8)
    a = two_lead_conductance(cfg, +1)
    b = two_lead_conductance(cfg, -1)
    for r in (a, b):
        assert abs(sum(r.decomposition.values()) - r.value) <= 1e-12
    assert a.value - b.value == pytest.approx(
        2 * a.decomposition["interference"], abs=1e-14)
    assert a.value >= 0 and b.value >= 0
    # parity-even part is parity independent
    assert a.value + b.value == pytest.approx(2 * a.decomposition["g0"], abs=1e-14)


def test_quadrature_stability_under_doubling():
    cfg = config_for_parity(PP12, direct=0.02, flux0=0.7, flux1=2.5)
    v1 = two_lead_conductance(cfg, +1, n_points=256).value
    v2 = two_lead_conductance(cfg, +1, n_points=512).value
    assert abs(v1 - v2) < 1e-10


@pytest.mark.parametrize("parity,order", [(Z1, 0.0), (PP12, 1.0)])
def test_bessel_law_of_interference(parity, order):
    xs = np.linspace(0.0, 5.0, 21)
    contrast = []
    for x in xs:
        cfg = config_for_parity(parity, direct=0.02, flux0=0.9, flux1=float(x))
        gp = two_lead_conductance(cfg, +1).value
        gm = two_lead_conductance(cfg, -1).value
        contrast.append((gp - gm) / 2)
    contrast = np.array(contrast)
    basis = jv(order, xs)
    coef = float(basis @ contrast) / float(basis @ basis)
    resid = np.abs(contrast - coef * basis).max()
    assert resid / np.abs(contrast).max() < 1e-6


def test_mixed_pair_has_no_contrast():
    cfg = config_for_parity(X3, direct=0.02, flux0=1.1)
    a = two_lead_conductance(cfg, +1)
    b = two_lead_conductance(cfg, -1)
    assert a.species_pair == "0pi"
    assert a.value == pytest.approx(b.value, abs=1e-15)


def four_lead_cfg(**over):
    kw = dict(couplings={1: 0.05, 2: 0.04, 3: 0.06, 4: 0.05},
              direct=0.02, flux0=0.3)
    kw.update(over)
    return config_for_parity(FOUR, **kw)


def test_joint_without_links_is_parity_independent():
    cfg = four_lead_cfg(direct=0.0)
    vals = {p: joint_conductance(cfg, p).value
            for p in [(1, 1), (1, -1), (-1, 1), (-1, -1)]}
    assert len({round(v, 14) for v in vals.values()}) == 1


def test_joint_untuned_four_distinct_values():
    cfg = four_lead_cfg()
    vals = [joint_conductance(cfg, p).value
            for p in [(1, 1), (1, -1), (-1, 1), (-1, -1)]]
    for r in [joint_conductance(cfg, p) for p in [(1, 1), (1, -1)]]:
        assert abs(sum(r.decomposition.values()) - r.value) <= 1e-12
    assert len({round(v, 14) for v in vals}) == 4


def test_tuned_fluxes_two_outcomes():
    cfg = four_lead_cfg()
    phi12, phi43 = tune_fluxes(cfg)
    tuned = dataclasses.replace(cfg.four_lead, flux12=phi12, flux43=phi43)
    cfg_t = LeadConfig(cfg.leads, FOUR, four_lead=tuned)
    res = {p: joint_conductance(cfg_t, p)
           for p in [(1, 1), (1, -1), (-1, 1), (-1, -1)]}
    # product symmetry and exactly two distinct values
    assert res[(1, 1)].value == pytest.approx(res[(-1, -1)].value, abs=1e-10)
    assert res[(1, -1)].value == pytest.approx(res[(-1, 1)].value, abs=1e-10)
    assert len({round(r.value, 13) for r in res.values()}) == 2
    a3 = abs(res[(1, 1)].decomposition["a3_term"])
    resid = abs(res[(1, 1)].decomposition["a1_term"]) \
        + abs(res[(1, 1)].decomposition["a2_term"])
    assert resid < 1e-10 * a3


def test_tuned_flux_perturbation_grows_like_sine():
    cfg = four_lead_cfg()
    phi12, phi43 = tune_fluxes(cfg)

    def a1_at(delta):
        p = dataclasses.replace(cfg.four_lead, flux12=phi12 + delta, flux43=phi43)
        c = LeadConfig(cfg.leads, FOUR, four_lead=p)
        return joint_conductance(c, (1.0, 1.0), p1234=0.0).decomposition["a1_term"]

    deltas = np.array([0.05, 0.1, 0.2])
    vals = np.array([a1_at(d) for d in deltas])
    scale = vals[0] / np.sin(deltas[0])
    assert np.allclose(vals, scale * np.sin(deltas), rtol=1e-9)


def test_interference_coefficients_match_joint_conductance():
    # the closed forms tune_fluxes reads, against the Majorana-algebra
    # expansion of <|h1234|^2>, signs included
    rng = np.random.default_rng(17)
    for _ in range(50):
        lam = {s: 0.05 * complex(*rng.normal(size=2)) for s in range(1, 5)}
        cfg = four_lead_cfg(couplings=lam, eps=tuple(rng.uniform(0.5, 2, 2)),
                            direct=0.02 * complex(*rng.normal(size=2)),
                            flux0=rng.uniform(0, 2 * np.pi))
        closed = ro._interference(four_lead_effective(cfg.four_lead))
        terms = joint_conductance(cfg, (1.0, 1.0), p1234=1.0).decomposition
        for c, key in zip(closed, ("a1_term", "a2_term", "a3_term")):
            assert c == pytest.approx(terms[key], rel=1e-14, abs=0)


def test_tune_fluxes_degenerate_error():
    cfg = four_lead_cfg(direct=0.0)   # no links -> a3 term vanishes
    with pytest.raises(ValueError, match="degenerate"):
        tune_fluxes(cfg)


def test_classifier():
    assert classify_parity(1.0, (1.0, 2.0)) == (1, pytest.approx(0.5))
    p, margin = classify_parity(2.0 + 0.1, (1.0, 2.0))
    assert p == -1
    with pytest.raises(ValueError, match="ambiguous"):
        classify_parity(1.5, (1.0, 2.0))
    # noisy reading a tenth of the gap away from the parity -1 reference
    gap = 1.0
    p, margin = classify_parity(1.0 + 0.1 * gap, (2.0, 1.0))
    assert p == -1 and margin == pytest.approx(0.8 * gap / 2)


def test_lead_config_invariants():
    with pytest.raises(ValueError, match="exactly 2 or 4"):
        LeadConfig(leads=(LeadId(1, "a", 0),), measured=Z1)
    with pytest.raises(ValueError, match="TwoLeadParams"):
        LeadConfig(leads=(LeadId(1, "a", 0), LeadId(2, "a", 0)), measured=Z1)
    good4 = config_for_parity(FOUR)
    with pytest.raises(ValueError, match="l_"):
        LeadConfig(leads=tuple(LeadId(s, "a", 1) for s in range(1, 5)),
                   measured=FOUR, four_lead=good4.four_lead)
