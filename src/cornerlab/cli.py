"""Configuration-driven experiment runner.

Subcommands: spectrum, modes, protocol, readout, ptcheck.  All physical
values in the config are in hbar/T units; sampling commands require a
seed (in the config or via --seed).  Identical config + seed produce
byte-identical outputs.

Exit codes: 0 success, 2 configuration/validation error, 1 internal error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from cornerlab import floquet, majorana, perturbation, protocols, readout
from cornerlab.lattice import LatticeParams, build_realspace_bdg, kitaev_chain_bdg

SCHEMA_VERSION = 1


class ConfigError(ValueError):
    pass


_LATTICE_KEYS = {
    "Nx", "Ny", "Jx", "Jy", "dJ", "Dx", "Dy", "dDy",
    "mu0", "dmu0", "mu1", "dmu1", "omega", "boundary",
}
_SCHEMA = {
    "schema_version": None,
    "lattice": _LATTICE_KEYS,
    "sambe": {"cutoff", "tol_zero", "tol_pi"},
    "modes": {"corner_frac"},
    "protocol": {"id", "mode", "seed", "n_inputs", "samples", "correction_mode"},
    "readout": {
        "parity", "couplings", "eps_plus", "eps_minus", "direct",
        "flux0", "flux1",
        "sweep_variable", "sweep_start", "sweep_stop", "sweep_points",
    },
    "ptcheck": {"lambdas", "expansion_sites", "expansion_order"},
}


def load_config(path: str | Path) -> dict:
    """Parse and strictly validate the experiment config."""
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be an object")
    for key, val in cfg.items():
        if key not in _SCHEMA:
            raise ConfigError(f"unknown config section {key!r}")
        allowed = _SCHEMA[key]
        if allowed is None:
            continue
        if not isinstance(val, dict):
            raise ConfigError(f"section {key!r} must be an object")
        for sub in val:
            if sub not in allowed:
                raise ConfigError(f"unknown key {key}.{sub!r}")
    if cfg.get("schema_version", SCHEMA_VERSION) != SCHEMA_VERSION:
        raise ConfigError(f"unsupported schema_version {cfg.get('schema_version')}")
    return cfg


def lattice_from_config(cfg: dict) -> LatticeParams:
    if "lattice" not in cfg:
        raise ConfigError("config needs a 'lattice' section")
    sec = dict(cfg["lattice"])
    try:
        return LatticeParams(**sec)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad lattice parameters: {exc}") from exc


def _fmt(x) -> str:
    if isinstance(x, float):
        return repr(x)
    return str(x)


def write_rows(path: Path, header: list[str], rows: list[list], fmt: str):
    """Write tabular data as CSV or as a JSON list of row objects."""
    if fmt == "csv":
        lines = [",".join(header)]
        lines += [",".join(_fmt(x) for x in row) for row in rows]
        path.with_suffix(".csv").write_text("\n".join(lines) + "\n")
    else:
        data = [dict(zip(header, row)) for row in rows]
        path.with_suffix(".json").write_text(
            json.dumps(data, indent=1, sort_keys=True) + "\n")


def write_json(path: Path, payload: dict):
    payload = {"schema_version": SCHEMA_VERSION, **payload}
    path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")


def _count(sec: dict, section: str, key: str, default: int | None,
           low: int = 1) -> int:
    """A JSON integer config value that must be at least `low`."""
    val = sec.get(key, default)
    if isinstance(val, bool) or not isinstance(val, int):
        raise ConfigError(f"{section}.{key} must be an integer, got {val!r}")
    if val < low:
        raise ConfigError(f"{section}.{key} must be at least {low}, got {val}")
    return val


def _number(sec: dict, section: str, key: str, default: float) -> float:
    """A JSON number config value."""
    val = sec.get(key, default)
    if isinstance(val, bool) or not isinstance(val, (int, float)):
        raise ConfigError(f"{section}.{key} must be a number, got {val!r}")
    return float(val)


def _spectrum_of(cfg: dict):
    params = lattice_from_config(cfg)
    sambe_cfg = cfg.get("sambe", {})
    cutoff = _count(sambe_cfg, "sambe", "cutoff", 6)
    tols = {key: _number(sambe_cfg, "sambe", key, None)
            for key in ("tol_zero", "tol_pi") if key in sambe_cfg}
    for key, tol in tols.items():
        if not tol > 0:
            raise ConfigError(f"sambe.{key} must be positive, got {tol}")
    bdg = build_realspace_bdg(params)
    sm = floquet.assemble_sambe(bdg, cutoff)
    spec = floquet.quasienergy_spectrum(sm, **tols)
    return params, spec


def cmd_spectrum(cfg: dict, out: Path, fmt: str) -> int:
    params, spec = _spectrum_of(cfg)
    rows = []
    mode_eps = {
        "zero": sorted(m.quasienergy for m in spec.modes_of("zero")),
        "pi": sorted(m.quasienergy for m in spec.modes_of("pi")),
    }
    for i, e in enumerate(spec.quasienergies):
        species = floquet.species_of(float(e), spec.omega,
                                     spec.tol_zero, spec.tol_pi)
        rows.append([i, float(e), species])
    write_rows(out / "spectrum", ["index", "quasienergy", "species"], rows, fmt)
    write_json(out / "summary.json", {
        "counts": spec.counts(),
        "gaps": {"zero": spec.gaps[0], "pi": spec.gaps[1]},
        "tolerances": {"zero": spec.tol_zero, "pi": spec.tol_pi},
        "omega": spec.omega,
        "mode_quasienergies": mode_eps,
        "lattice_shape": list(params.shape),
    })
    return 0


def cmd_modes(cfg: dict, out: Path, fmt: str) -> int:
    frac = _number(cfg.get("modes", {}), "modes", "corner_frac", 0.25)
    if not 0 < frac <= 0.5:
        raise ConfigError(f"modes.corner_frac must lie in (0, 0.5], got {frac}")
    params, spec = _spectrum_of(cfg)
    shape = params.shape
    rotated = []
    for species in ("zero", "pi"):
        rotated += floquet.corner_basis_rotation(spec.modes_of(species), shape)
    if not rotated:
        print("warning: no corner modes found for this configuration",
              file=sys.stderr)
    rows = []
    payload = []
    for i, mode in enumerate(rotated):
        weights = floquet.corner_localization(mode, frac, shape)
        rows.append([i, mode.species, float(mode.quasienergy),
                     *[float(w) for w in weights]])
        m = mode.m_cutoff
        comp0 = mode.harmonic(0)
        comp1 = mode.harmonic(1) if m >= 1 else np.zeros_like(comp0)

        def site_prob(vec):
            p = np.abs(vec) ** 2
            return (p[0::2] + p[1::2]).tolist()

        payload.append({
            "index": i,
            "species": mode.species,
            "quasienergy": float(mode.quasienergy),
            "fourier_weights": {str(k): v for k, v in
                                floquet.fourier_weight_profile(mode).items()},
            "site_probability_n0": site_prob(comp0),
            "site_probability_n1": site_prob(comp1),
        })
    write_rows(out / "corner_weights",
               ["index", "species", "quasienergy", "c00", "c10", "c01", "c11"],
               rows, fmt)
    write_json(out / "modes.json", {
        "corner_frac": frac,
        "lattice_shape": list(shape),
        "modes": payload,
    })
    return 0


def cmd_protocol(cfg: dict, out: Path, fmt: str) -> int:
    sec = cfg.get("protocol", {})
    pid = sec.get("id")
    if pid not in protocols.PROTOCOL_IDS:
        raise ConfigError(f"unknown protocol id {pid!r}")
    mode = sec.get("mode", "enumerate")
    if mode not in ("enumerate", "sample"):
        raise ConfigError(f"protocol mode must be enumerate or sample")
    if sec.get("seed") is None:
        raise ConfigError("protocol runs require a seed")
    seed = _count(sec, "protocol", "seed", None, low=0)
    rng = np.random.default_rng(seed)
    n_inputs = _count(sec, "protocol", "n_inputs", 3)
    correction_mode = sec.get("correction_mode", "measured")
    if correction_mode not in ("measured", "classical"):
        raise ConfigError("protocol.correction_mode must be measured or "
                          f"classical, got {correction_mode!r}")
    inputs = protocols.random_logical_inputs(pid, n_inputs, rng)

    if mode == "enumerate":
        report = protocols.enumerate_branches(
            pid, inputs, correction_mode=correction_mode, rng=rng)
        write_json(out / "protocol_report.json", {
            "protocol": pid,
            "mode": mode,
            "seed": seed,
            "branches": report.n_branches,
            "reachable": report.n_reachable,
            "min_fidelity": report.min_fidelity,
            "max_infidelity": 1.0 - report.min_fidelity,
            "correction_table_covered": report.covered,
        })
        print(f"{pid}: min fidelity {report.min_fidelity:.15f} over "
              f"{report.n_reachable} reachable (branch, input) pairs")
        return 0

    samples = _count(sec, "protocol", "samples", 20)
    logs = []
    worst = 0.0
    for state in inputs:
        for _ in range(samples):
            run = protocols.run_protocol(pid, state, rng=rng,
                                         correction_mode=correction_mode)
            fid = protocols.logical_fidelity(
                state, run, protocols.GATES[pid].target)
            worst = max(worst, 1.0 - fid)
            logs.append({
                "steps": run.log(),
                "corrections": run.corrections,
                "retries": run.total_retries,
                "fidelity": fid,
            })
    write_json(out / "protocol_log.json", {
        "protocol": pid, "mode": mode, "seed": seed, "runs": logs,
    })
    write_json(out / "protocol_report.json", {
        "protocol": pid, "mode": mode, "seed": seed,
        "samples": samples * n_inputs, "max_infidelity": worst,
    })
    print(f"{pid}: max infidelity {worst:.3e} over {samples * n_inputs} runs")
    return 0


def cmd_readout(cfg: dict, out: Path, fmt: str) -> int:
    sec = cfg.get("readout", {})
    parity_text = sec.get("parity", "i g01 g02")
    try:
        parity = majorana.parse_string(parity_text)
        readout.config_for_parity(parity)
    except (AttributeError, ValueError) as exc:
        raise ConfigError("readout.parity must be a measurable Majorana "
                          f"string, got {parity_text!r}: {exc}") from exc
    try:
        couplings = {int(k): complex(v) for k, v in
                     sec.get("couplings", readout.DEFAULT_COUPLINGS).items()}
        direct = complex(sec.get("direct", readout.DEFAULT_DIRECT))
    except (AttributeError, TypeError, ValueError) as exc:
        raise ConfigError(f"readout.couplings and readout.direct must be "
                          f"numbers: {exc}") from exc
    if set(couplings) != {1, 2, 3, 4}:
        raise ConfigError("readout.couplings must give corners 1..4, got "
                          f"{sorted(couplings)}")
    eps = (_number(sec, "readout", "eps_plus", 1.0),
           _number(sec, "readout", "eps_minus", 1.0))
    for key, val in zip(("eps_plus", "eps_minus"), eps):
        if val == 0:
            raise ConfigError(f"readout.{key} must be nonzero")
    flux0 = _number(sec, "readout", "flux0", 0.0)
    flux1 = _number(sec, "readout", "flux1", 0.0)

    if len(parity) == 4:
        cfg4 = readout.config_for_parity(parity, couplings, eps, direct,
                                         flux0=flux0)
        phi12, phi43 = readout.tune_fluxes(cfg4)
        tuned = dataclasses.replace(cfg4.four_lead, flux12=phi12, flux43=phi43)
        cfg_t = readout.LeadConfig(cfg4.leads, parity, four_lead=tuned)
        rows = []
        for p12 in (1, -1):
            for p34 in (1, -1):
                res = readout.joint_conductance(cfg_t, (p12, p34))
                rows.append([p12, p34, res.value,
                             *[res.decomposition[k] for k in
                               ("a0", "a1_term", "a2_term", "a3_term")]])
        write_rows(out / "joint_conductance",
                   ["p12", "p34", "G", "a0", "a1", "a2", "a3"], rows, fmt)
        write_json(out / "readout_report.json", {
            "parity": parity_text,
            "tuned_fluxes": [phi12, phi43],
            "distinct_values": sorted({round(r[2], 12) for r in rows}),
        })
        print(f"joint readout: tuned fluxes ({phi12:.6f}, {phi43:.6f}), "
              f"{len({round(r[2], 12) for r in rows})} distinct conductances")
        return 0

    var = sec.get("sweep_variable", "flux0")
    if var not in ("flux0", "flux1"):
        raise ConfigError("sweep_variable must be flux0 or flux1")
    start = _number(sec, "readout", "sweep_start", 0.0)
    stop = _number(sec, "readout", "sweep_stop", 2 * np.pi)
    points = _count(sec, "readout", "sweep_points", 41)
    rows = []
    for val in np.linspace(start, stop, points):
        f0, f1 = (val, flux1) if var == "flux0" else (flux0, val)
        c = readout.config_for_parity(parity, couplings, eps, direct,
                                      flux0=f0, flux1=f1)
        for p in (1, -1):
            res = readout.two_lead_conductance(c, p)
            rows.append([float(val), p, res.value,
                         res.decomposition["g0"],
                         res.decomposition["interference"]])
    write_rows(out / "conductance_sweep",
               [var, "parity", "G", "g0", "interference"], rows, fmt)

    report: dict = {"parity": parity_text, "sweep_variable": var}
    if var == "flux1":
        # one-parameter Bessel fit of the parity contrast
        c0 = readout.config_for_parity(parity, couplings, eps, direct,
                                       flux0=flux0, flux1=0.0)
        pair = readout.two_lead_conductance(c0, 1).species_pair
        order = {"00": 0, "pipi": 1, "0pi": 0.5}[pair]
        xs = np.array([r[0] for r in rows[0::2]])
        contrast = np.array([rows[2 * i][2] - rows[2 * i + 1][2]
                             for i in range(points)]) / 2
        from scipy.special import jv

        basis = jv(order, xs)
        denom = float(basis @ basis)
        coef = float(basis @ contrast) / denom if denom > 0 else 0.0
        resid = np.abs(contrast - coef * basis)
        rel = float(resid.max() / max(np.abs(contrast).max(), 1e-300))
        report.update(bessel_order=order, fit_coefficient=coef,
                      max_relative_residual=rel)
        print(f"bessel fit: order {order}, coefficient {coef:.6e}, "
              f"max relative residual {rel:.3e}")
    write_json(out / "readout_report.json", report)
    return 0


def cmd_ptcheck(cfg: dict, out: Path, fmt: str) -> int:
    sec = cfg.get("ptcheck", {})
    lambdas = sec.get("lambdas", list(np.geomspace(1e-2, 1e-1, 6)))
    if not (isinstance(lambdas, list) and all(
            isinstance(x, (int, float)) and not isinstance(x, bool) and x > 0
            for x in lambdas) and len(set(lambdas)) >= 2):
        raise ConfigError("ptcheck.lambdas must list at least two distinct "
                          f"positive numbers, got {lambdas!r}")
    lambdas = [float(x) for x in lambdas]
    sites = _count(sec, "ptcheck", "expansion_sites", 60, low=40)
    order = _count(sec, "ptcheck", "expansion_order", 3, low=0)
    rows = []
    for lam in lambdas:
        params = perturbation.TwoLeadParams(
            eps_plus=1.0, eps_minus=1.0, n_i=0, n_j=0,
            coupling_i={("0", 0): lam}, coupling_j={("0", 0): lam},
            direct=0.5 * lam, omega=2 * np.pi,
        )
        rows.append([lam, _two_lead_error(params)])
    lams = np.array([r[0] for r in rows])
    errs = np.array([max(r[1], 1e-300) for r in rows])
    slope = float(np.polyfit(np.log(lams), np.log(errs), 1)[0])
    write_rows(out / "ptcheck_scaling", ["lambda", "abs_error"], rows, fmt)

    hist = _expansion_report(sites, order)
    write_rows(out / "ptcheck_residuals", ["order", "residual"],
               [[k, r] for k, r in enumerate(hist)], fmt)
    write_json(out / "ptcheck_report.json", {
        "two_lead_slope": slope,
        "expansion_residuals": hist,
    })
    print(f"two-lead scaling slope: {slope:.3f} (expect 3)")
    print(f"expansion residuals: {['%.3e' % h for h in hist]}")
    return 0


def _two_lead_error(params) -> float:
    """|exact - effective| for the two-lead toy."""
    exact = perturbation.verify_effective_model(params)
    pred = np.abs(np.linalg.eigvalsh(
        perturbation.effective_two_lead_block(params, +1))).max()
    return exact * max(pred, 1e-300)


def _expansion_report(sites: int, order: int):
    from cornerlab.perturbation import (
        majorana_mode_expansion, pi_mode_seeds, quadratic_from_bdg,
    )

    omega = 2 * np.pi
    bdg = kitaev_chain_bdg(sites, J=1.2, Delta=1.2,
                           mu0=1.0, mu1=0.5, omega=omega)
    a0 = quadratic_from_bdg(np.asarray(bdg.component(0)))
    a1 = quadratic_from_bdg(2 * np.asarray(bdg.component(1)))
    seeds = pi_mode_seeds(a0, a1, omega, tol=0.05)
    exp = majorana_mode_expansion(a0, a1, seeds[0], "pi", order, omega=omega,
                                  seed_tol=0.2)
    return [float(h) for h in exp.residual_history]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="cornerlab",
        description="Driven corner-Majorana laboratory experiment runner",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("spectrum", "modes", "protocol", "readout", "ptcheck"):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True)
        p.add_argument("--out", required=True)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--format", choices=("csv", "json"), default="csv")
    args = parser.parse_args(argv)

    try:
        cfg = load_config(args.config)
        if args.seed is not None:
            cfg.setdefault("protocol", {})["seed"] = args.seed
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        handler = {
            "spectrum": cmd_spectrum,
            "modes": cmd_modes,
            "protocol": cmd_protocol,
            "readout": cmd_readout,
            "ptcheck": cmd_ptcheck,
        }[args.command]
        return handler(cfg, out, args.format)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # surface everything else as an internal error
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
