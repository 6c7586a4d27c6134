"""Conductance interferometry: Majorana parities -> measurable conductances.

Two-lead readout: the period-averaged conductance between leads i and j is

    Gbar = (1/Ttil) int_0^Ttil |T_ij(t) <i g_a,i g_b,j> + lam e^{i Phi(t)}|^2 dt,

with T_ij(t) the co-tunneling amplitude, lam the direct lead-lead link,
and Phi(t) = Phi0 + Phi1 sin(omega t).  The averaging window Ttil is T for
the 00 and pipi species pairs and 2T for the mixed 0pi pair (the mixed
integrand has period 2T; with an omega-periodic flux its interference term
then averages to zero, so a 0pi pair gives no parity contrast -- the
published mixed-case formula repeats the pipi expressions and is treated
as a misprint).  Units: e = hbar = 1; the overall scale is fixed by using
the integrand above as-is.

Four-lead readout: Gbar between l_{1,a} and l_{4,a} is the expectation of
|h1234|^2 expanded exactly in the Majorana algebra, which yields the
a0..a3 decomposition with parity factors <i g01 g02>, <i g03 g04> and
<g01 g02 g03 g04>.  (The amplitude-squared must be taken as an operator;
squaring the expectation of h1234 would lose the parity structure.)
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

import numpy as np

from cornerlab import majorana as mj
from cornerlab.majorana import MajoranaString, g, string
from cornerlab.lattice import TWO_PI
from cornerlab.perturbation import (
    FourLeadAmplitude,
    FourLeadParams,
    TwoLeadParams,
    four_lead_effective,
    lead_effective_coupling,
)

SIMPSON_POINTS = 256


@dataclass(frozen=True)
class LeadId:
    corner: int      # 1..4
    side: str        # "a" | "b"
    n: int           # energy index: E = n * omega / 2

    def __post_init__(self):
        if not 1 <= self.corner <= 4 or self.side not in ("a", "b"):
            raise ValueError(f"bad lead id ({self.corner}, {self.side})")

    def __repr__(self):
        return f"l{self.corner}{self.side}(n={self.n})"


@dataclass
class LeadConfig:
    """Concrete readout configuration: which leads are on and how.

    Two-lead configs carry a TwoLeadParams; the four-lead configuration
    (all l_{s,a} at n = 0) carries a FourLeadParams.  `measured` is the
    Majorana parity the configuration reads out.
    """

    leads: tuple[LeadId, ...]
    measured: MajoranaString
    two_lead: TwoLeadParams | None = None
    four_lead: FourLeadParams | None = None

    def __post_init__(self):
        if len(self.leads) == 2:
            if self.two_lead is None:
                raise ValueError("two-lead config needs TwoLeadParams")
        elif len(self.leads) == 4:
            if self.four_lead is None:
                raise ValueError("four-lead config needs FourLeadParams")
            if any(l.n != 0 or l.side != "a" for l in self.leads):
                raise ValueError("four-lead config must be all l_{s,a} at n = 0")
        else:
            raise ValueError("config must have exactly 2 or 4 active leads")


@dataclass
class ConductanceResult:
    value: float
    decomposition: dict[str, float]
    details: dict[str, float] = field(default_factory=dict)
    species_pair: str = ""


def _simpson_average(samples: np.ndarray, n_intervals: int) -> float:
    """Composite-Simpson average over one window; `samples` holds
    n_intervals + 1 equispaced values including both endpoints."""
    w = np.ones(n_intervals + 1)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return float((w * samples).sum() / (3.0 * n_intervals))


def _t_of_time(T_harm: dict[int, complex], omega: float, t: np.ndarray) -> np.ndarray:
    out = np.zeros_like(t, dtype=complex)
    for nu, c in T_harm.items():
        out = out + c * np.exp(1j * nu * omega * t / 2)
    return out


def two_lead_conductance(
    cfg: LeadConfig,
    parity: float,
    n_points: int = SIMPSON_POINTS,
) -> ConductanceResult:
    """T-averaged two-lead conductance at the given mediating parity.

    Returns the quadrature value together with its exact split into the
    parity-even part g0 = avg|T|^2 + |lam|^2 and the interference term
    (linear in the parity).
    """
    # scipy.special costs ~0.2 s to import; only conductances need it
    from scipy.special import jv

    params = cfg.two_lead
    if params is None:
        raise ValueError("not a two-lead configuration")
    pair, T_harm = lead_effective_coupling(params)
    w = params.omega
    window = 2 * TWO_PI / w if pair == "0pi" else TWO_PI / w
    t = np.linspace(0.0, window, n_points + 1)
    tij = _t_of_time(T_harm, w, t)
    arm = params.direct * np.exp(1j * (params.flux0 + params.flux1 * np.sin(w * t)))
    g0_samples = np.abs(tij) ** 2 + np.abs(arm) ** 2
    cross_samples = 2.0 * np.real(np.conj(tij) * arm)
    g0 = _simpson_average(g0_samples, n_points)
    cross = _simpson_average(cross_samples, n_points)
    value = g0 + parity * cross

    # analytic interference constant: Gbar = g0 + g1 * parity * sin(Phi0 - Phi00)
    details = {}
    # interference = g1 * parity * sin(Phi0 - phi00):
    #   2 Re[conj(T) lam e^{i Phi0}] <e^{-+ i n w t - i Phi1 sin wt}>
    # the time average supplies J_0 (00 pair) or J_{-1} = -J_1 (pipi pair),
    # and the sine form fixes phi00 = arg T - arg lam -+ pi/2.
    lam = abs(params.direct)
    if pair == "00":
        t0 = T_harm.get(0, 0.0)
        bessel = float(jv(0, params.flux1))
        phi00 = float(np.angle(t0) - np.angle(params.direct) - np.pi / 2) \
            if lam and t0 else 0.0
        g1 = 2.0 * abs(t0) * lam * bessel
    elif pair == "pipi":
        t0 = T_harm.get(-2, 0.0)
        bessel = float(jv(1, params.flux1))
        phi00 = float(np.angle(t0) - np.angle(params.direct) + np.pi / 2) \
            if lam and t0 else 0.0
        g1 = 2.0 * abs(t0) * lam * bessel
    else:
        g1, phi00, bessel = 0.0, 0.0, 0.0   # mixed pair: no surviving term
    details.update(g1=g1, phi00=phi00, bessel=bessel)
    return ConductanceResult(
        value=value,
        decomposition={"g0": g0, "interference": parity * cross},
        details=details,
        species_pair=pair,
    )


def joint_conductance(
    cfg: LeadConfig,
    parities: tuple[float, float],
    p1234: float | None = None,
) -> ConductanceResult:
    """Four-lead conductance (l_{1,a} -> l_{4,a}) at the given parities.

    Expands <|h1234|^2> exactly in the Majorana algebra; the decomposition
    reports the constant term and the three parity-dependent terms of the
    interference formula.
    """
    params = cfg.four_lead
    if params is None:
        raise ValueError("not a four-lead configuration")
    p12, p34 = parities
    if p1234 is None:
        p1234 = -p12 * p34
    amp = four_lead_effective(params)
    ops = ((amp.c14, string(1, [g("0", 1), g("0", 4)])),
           (amp.c24, string(1, [g("0", 2), g("0", 4)])),
           (amp.c13, string(1, [g("0", 1), g("0", 3)])))
    # zero-species mask of a string -> (its term, its expectation per unit
    # phase): <g01 g02> = -i p12, <g03 g04> = -i p34, <g01 g02 g03 g04> =
    # p1234 (equal to -p12 p34 on joint eigenstates); strings pairing other
    # combinations average to zero in the parity eigenbasis
    table = {0b0000: ("a0", 1.0), 0b0011: ("a1_term", -1j * p12),
             0b1100: ("a2_term", -1j * p34), 0b1111: ("a3_term", p1234)}
    terms = {key: 0.0 for key, _ in table.values()}
    for ca, sa in ops:
        for cb, sb in ops:
            prod = mj.multiply(sa.dagger(), sb)
            if prod.mask >> 4:
                raise ValueError(
                    f"non-zero-species string in amplitude: {prod!r}")
            if prod.mask in table:
                key, val = table[prod.mask]
                terms[key] += float(np.real(np.conj(ca) * cb * (prod.phase * val)))
    value = sum(terms.values())
    return ConductanceResult(value=value, decomposition=terms, species_pair="00")


def _interference(amp: FourLeadAmplitude) -> tuple[float, float, float]:
    """(a1, a2, a3): the coefficients of p12, p34 and p1234 in the joint
    conductance, read off h1234 = c14 g01 g04 + c24 g02 g04 + c13 g01 g03."""
    return (2 * np.imag(np.conj(amp.c14) * amp.c24),
            -2 * np.imag(np.conj(amp.c14) * amp.c13),
            2 * np.real(np.conj(amp.c24) * amp.c13))


def tune_fluxes(cfg: LeadConfig) -> tuple[float, float]:
    """Fluxes (Phi_12, Phi_43) that null the single-pair interference terms
    while maximizing the four-Majorana term.

    a1 depends on Phi_12 alone (through c24) and a2 on Phi_43 alone
    (through c13), each sinusoidally; the branch pair of their zeros with
    the largest a3 wins.  Verified through `joint_conductance`:
    |a1| + |a2| < 1e-10 * a3.
    """
    params = cfg.four_lead
    if params is None:
        raise ValueError("not a four-lead configuration")

    def coeffs(phi12, phi43):
        return _interference(four_lead_effective(
            dataclasses.replace(params, flux12=phi12, flux43=phi43)))

    # a(phi) = a(0) cos(phi) + a(pi/2) sin(phi) vanishes at phi = root, root + pi
    a1_0, a2_0, _ = coeffs(0.0, 0.0)
    r12 = np.arctan2(-a1_0, coeffs(np.pi / 2, 0.0)[0])
    r43 = np.arctan2(-a2_0, coeffs(0.0, np.pi / 2)[1])
    # the first maximum in candidate order
    a3, phi12, phi43 = max(((coeffs(p12, p43)[2], p12, p43)
                            for p12 in (r12, r12 + np.pi)
                            for p43 in (r43, r43 + np.pi)), key=lambda c: c[0])
    if abs(a3) < 1e-14:
        raise ValueError("degenerate configuration: four-Majorana term vanishes")
    tuned = LeadConfig(cfg.leads, cfg.measured, four_lead=dataclasses.replace(
        params, flux12=phi12, flux43=phi43))
    terms = joint_conductance(tuned, (1.0, 1.0), p1234=0.0).decomposition
    resid = abs(terms["a1_term"]) + abs(terms["a2_term"])
    if resid > 1e-10 * abs(a3):
        raise RuntimeError(f"flux tuning failed: residual {resid:.3e} vs a3 {a3:.3e}")
    return float(phi12), float(phi43)


def classify_parity(
    measured: float, calibration: tuple[float, float]
) -> tuple[int, float]:
    """Nearest-reference classification of a measured conductance.

    calibration = (G(parity=+1), G(parity=-1)).  Returns (parity, margin)
    with margin = (d_far - d_near)/2; raises when the classification is
    ambiguous (margin below 1e-9)."""
    g_plus, g_minus = calibration
    d_plus, d_minus = abs(measured - g_plus), abs(measured - g_minus)
    margin = abs(d_plus - d_minus) / 2
    if margin < 1e-9:
        raise ValueError(
            f"ambiguous conductance {measured!r}: margin {margin:.3e}")
    return (1 if d_plus < d_minus else -1), float(margin)


DEFAULT_COUPLINGS = {1: 0.05, 2: 0.05, 3: 0.05, 4: 0.05}
DEFAULT_EPS = (1.0, 1.0)
DEFAULT_DIRECT = 0.01


def config_for_parity(
    parity: MajoranaString,
    couplings: dict[int, complex] | None = None,
    eps: tuple[float, float] = DEFAULT_EPS,
    direct: complex = DEFAULT_DIRECT,
    flux0: float = 0.0,
    flux1: float = 0.0,
    omega: float = TWO_PI,
) -> LeadConfig:
    """Lead assignment for a measurable parity string.

    Two-Majorana parities use one lead per involved corner:
      * (0,i)(0,j): l_{i,a}, l_{j,a} at n = 0, 0        (00 pair)
      * (pi,i)(pi,j): l_{i,a}, l_{j,a} at n = +1, -1    (pipi pair)
      * (0,i)(pi,j): the zero-species corner at n = 0 and the pi-species
        corner at n = -1; equal corners use sides a and b of that corner.
    The four-Majorana parity g01 g02 g03 g04 uses {l_{s,a}} at n = 0.
    """
    lam = dict(DEFAULT_COUPLINGS if couplings is None else couplings)
    labels = parity.labels
    if len(labels) == 4:
        expect = tuple(g("0", c) for c in range(1, 5))
        if labels != expect:
            raise ValueError(
                f"four-lead readout measures g01 g02 g03 g04, not {parity!r}")
        params = FourLeadParams(
            eps_plus=eps[0], eps_minus=eps[1],
            couplings={s: complex(lam[s]) for s in range(1, 5)},
            link12=direct, link34=direct,
            flux12=flux0, flux43=flux0,
        )
        return LeadConfig(
            leads=tuple(LeadId(s, "a", 0) for s in range(1, 5)),
            measured=parity, four_lead=params,
        )
    if len(labels) != 2:
        raise ValueError(f"no lead configuration measures {parity!r}")
    (la, lb) = labels
    # order so the zero-species (even lead energy) member comes first
    if la.species_index > lb.species_index:
        la, lb = lb, la
    pair = (la.species, lb.species)
    if pair == ("0", "0"):
        n_a, n_b = 0, 0
        coup_a = {("0", 0): complex(lam[la.corner])}
        coup_b = {("0", 0): complex(lam[lb.corner])}
    elif pair == ("pi", "pi"):
        n_a, n_b = 1, -1
        coup_a = {("pi", -1): complex(lam[la.corner])}
        coup_b = {("pi", -1): complex(lam[lb.corner])}
    else:
        n_a, n_b = 0, -1
        coup_a = {("0", 0): complex(lam[la.corner])}
        coup_b = {("pi", -1): complex(lam[lb.corner])}
    if la.corner == lb.corner:
        leads = (LeadId(la.corner, "a", n_a), LeadId(lb.corner, "b", n_b))
    else:
        leads = (LeadId(la.corner, "a", n_a), LeadId(lb.corner, "a", n_b))
    params = TwoLeadParams(
        eps_plus=eps[0], eps_minus=eps[1], n_i=n_a, n_j=n_b,
        coupling_i=coup_a, coupling_j=coup_b,
        direct=direct, flux0=flux0, flux1=flux1, omega=omega,
    )
    return LeadConfig(leads=leads, measured=parity, two_lead=params)
