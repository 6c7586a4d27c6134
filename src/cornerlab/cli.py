"""Configuration-driven experiment runner.

Subcommands: spectrum, modes, protocol, readout, ptcheck.  All physical
values in the config are in hbar/T units; `protocol` samples and needs a
seed (protocol.seed, or --seed, which overrides it).  Every config rule
and default is in `_SCHEMA`.  Identical config + seed produce
byte-identical outputs.

Exit codes: 0 success, 2 configuration/validation error, 1 internal error.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import sys
from pathlib import Path

import numpy as np

from cornerlab import floquet, majorana, perturbation, protocols, readout
from cornerlab.lattice import (LatticeParams, build_momentum_bdg,
                               build_realspace_bdg, kitaev_chain_bdg,
                               momentum_grid, momentum_partners)

SCHEMA_VERSION = 1


class ConfigError(ValueError):
    pass


# conditions of the finite-number rules, keyed by the text that names them
_FINITE = {
    "": lambda x: True,
    "> 0": lambda x: x > 0,
    "!= 0": lambda x: x != 0,
    "in (0, 0.5]": lambda x: 0 < x <= 0.5,
}


def _check(name: str, val, rule):
    """`val` normalized if it passes `rule`, else ConfigError.

    A rule is an int (an integer of at least that), a tuple (one of its
    choices), a key of `_FINITE` (a finite number meeting that condition,
    returned as a float) or a function (name, val) -> normalized value.
    """
    if isinstance(rule, int):
        ok = isinstance(val, int) and not isinstance(val, bool) and val >= rule
        want = f"an integer of at least {rule}"
    elif isinstance(rule, tuple):
        ok = isinstance(val, str) and val in rule
        want = "one of " + ", ".join(rule)
    elif isinstance(rule, str):
        ok = (isinstance(val, (int, float)) and not isinstance(val, bool)
              and abs(val) <= sys.float_info.max and _FINITE[rule](val))
        want = f"a finite number {rule}".rstrip()
    else:
        return rule(name, val)
    if not ok:
        raise ConfigError(f"{name} must be {want}, got {val!r}")
    return float(val) if isinstance(rule, str) else val


def _parity(name: str, val):
    try:
        readout.config_for_parity(majorana.parse_string(val))
    except (AttributeError, TypeError, ValueError) as exc:
        raise ConfigError(f"{name} must be a measurable Majorana string, "
                          f"got {val!r}: {exc}") from exc
    return val


def _couplings(name: str, val):
    if not isinstance(val, dict) or set(val) != {"1", "2", "3", "4"}:
        raise ConfigError(f"{name} must give corners 1..4, got {val!r}")
    return {k: _check(f"{name}.{k}", val[k], "") for k in sorted(val)}


def _lambdas(name: str, val):
    if isinstance(val, list):
        val = [_check(name, x, "> 0") for x in val]
    if not isinstance(val, list) or len(set(val)) < 2:
        raise ConfigError(f"{name} must list at least two distinct positive "
                          f"numbers, got {val!r}")
    return val


# _SCHEMA[section][key] = (default, rule); a None default means no value
# unless given.  The lattice section's rule is LatticeParams itself.
_SCHEMA = {
    "sambe": {"cutoff": (6, 1), "tol_zero": (None, "> 0"),
              "tol_pi": (None, "> 0")},
    "modes": {"corner_frac": (0.25, "in (0, 0.5]")},
    "protocol": {
        "id": (None, protocols.PROTOCOL_IDS),
        "mode": ("enumerate", ("enumerate", "sample")),
        "seed": (None, 0),
        "n_inputs": (3, 1), "samples": (20, 1),
        "correction_mode": ("measured", ("measured", "classical")),
    },
    "readout": {
        "parity": ("i g01 g02", _parity),
        "couplings": ({str(k): v for k, v in readout.DEFAULT_COUPLINGS.items()},
                      _couplings),
        "eps_plus": (1.0, "!= 0"), "eps_minus": (1.0, "!= 0"),
        "direct": (readout.DEFAULT_DIRECT, ""),
        "flux0": (0.0, ""), "flux1": (0.0, ""),
        "sweep_variable": ("flux0", ("flux0", "flux1")),
        "sweep_start": (0.0, ""), "sweep_stop": (2 * np.pi, ""),
        "sweep_points": (41, 1),
    },
    "ptcheck": {
        "lambdas": ([float(x) for x in np.geomspace(1e-2, 1e-1, 6)], _lambdas),
        "expansion_sites": (60, 40),
        "expansion_order": (3, 0),
    },
}


def load_config(path: str | Path, seed: int | None = None) -> dict:
    """Read a config, set `protocol.seed` to `seed` if one is given, check
    every key present against `_SCHEMA` and return the normalized config:
    every section but `lattice` complete with defaults, `lattice` as
    `dataclasses.asdict(LatticeParams(...))`, all JSON-serialisable."""
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config root must be an object")
    version = raw.pop("schema_version", SCHEMA_VERSION)
    if isinstance(version, bool) or version != SCHEMA_VERSION:
        raise ConfigError(f"schema_version must be {SCHEMA_VERSION}, "
                          f"got {version!r}")
    for name, sec in raw.items():
        if name != "lattice" and name not in _SCHEMA:
            raise ConfigError(f"unknown config section {name!r}")
        if not isinstance(sec, dict):
            raise ConfigError(f"section {name!r} must be an object")
        keys = _SCHEMA.get(name) or [
            f.name for f in dataclasses.fields(LatticeParams)]
        for key in sec:
            if key not in keys:
                raise ConfigError(f"unknown key {name}.{key!r}")
    if seed is not None:
        raw.setdefault("protocol", {})["seed"] = seed
    cfg: dict = {"schema_version": SCHEMA_VERSION}
    if "lattice" in raw:
        try:
            cfg["lattice"] = dataclasses.asdict(LatticeParams(**raw["lattice"]))
        except ValueError as exc:
            raise ConfigError(f"lattice.{exc}") from exc
        except TypeError as exc:
            raise ConfigError(f"bad lattice parameters: {exc}") from exc
    for name, schema in _SCHEMA.items():
        sec = raw.get(name, {})
        cfg[name] = {key: _check(f"{name}.{key}", sec[key], rule)
                     if key in sec else default
                     for key, (default, rule) in schema.items()}
    return cfg


def _fmt(x) -> str:
    return repr(x) if isinstance(x, float) else str(x)


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


def _spectrum_of(cfg: dict, bloch: bool = False):
    """The lattice's folded spectrum.  With `bloch`, a periodic-both lattice
    is solved per Bloch block, one block of each +-k pair, for
    quasienergies only (no modes)."""
    if "lattice" not in cfg:
        raise ConfigError("config needs a 'lattice' section")
    params = LatticeParams(**cfg["lattice"])
    sambe = cfg["sambe"]
    if bloch and params.boundary == "periodic-both":
        kx, ky = np.array(momentum_grid(params)).T
        bdg = build_momentum_bdg(params, kx, ky, momentum_partners(params))
    else:
        bdg = build_realspace_bdg(params)
    sm = floquet.assemble_sambe(bdg, sambe["cutoff"])
    spec = floquet.quasienergy_spectrum(sm, sambe["tol_zero"], sambe["tol_pi"])
    return params, spec


def cmd_spectrum(cfg: dict, out: Path, fmt: str) -> int:
    params, spec = _spectrum_of(cfg, bloch=True)
    rows = [[i, float(e), s] for i, (e, s) in
            enumerate(zip(spec.quasienergies, spec.species))]
    mode_eps = {s: spec.window_quasienergies(s) for s in ("zero", "pi")}
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
    frac = cfg["modes"]["corner_frac"]
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
        # sambe.cutoff >= 1, so harmonic 1 exists
        prob = [np.abs(mode.harmonic(n)) ** 2 for n in (0, 1)]
        payload.append({
            "index": i,
            "species": mode.species,
            "quasienergy": float(mode.quasienergy),
            "fourier_weights": {str(k): v for k, v in
                                floquet.fourier_weight_profile(mode).items()},
            "site_probability_n0": (prob[0][0::2] + prob[0][1::2]).tolist(),
            "site_probability_n1": (prob[1][0::2] + prob[1][1::2]).tolist(),
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
    sec = cfg["protocol"]
    pid, mode, seed = sec["id"], sec["mode"], sec["seed"]
    if pid is None:
        raise ConfigError("protocol runs require protocol.id")
    if seed is None:
        raise ConfigError("protocol runs require a seed")
    run_id = {"protocol": pid, "mode": mode, "seed": seed}
    rng = np.random.default_rng(seed)
    n_inputs, correction_mode = sec["n_inputs"], sec["correction_mode"]
    inputs = protocols.random_logical_inputs(pid, n_inputs, rng)

    if mode == "enumerate":
        report = protocols.enumerate_branches(
            pid, inputs, correction_mode=correction_mode, rng=rng)
        write_json(out / "protocol_report.json", {
            **run_id,
            "branches": report.n_branches,
            "reachable": report.n_reachable,
            "min_fidelity": report.min_fidelity,
            "max_infidelity": 1.0 - report.min_fidelity,
            "correction_table_covered": report.covered,
        })
        print(f"{pid}: min fidelity {report.min_fidelity:.15f} over "
              f"{report.n_reachable} reachable (branch, input) pairs")
        return 0

    samples = sec["samples"]
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
    write_json(out / "protocol_log.json", {**run_id, "runs": logs})
    write_json(out / "protocol_report.json", {
        **run_id, "samples": samples * n_inputs, "max_infidelity": worst})
    print(f"{pid}: max infidelity {worst:.3e} over {samples * n_inputs} runs")
    return 0


def cmd_readout(cfg: dict, out: Path, fmt: str) -> int:
    sec = cfg["readout"]
    parity_text = sec["parity"]
    parity = majorana.parse_string(parity_text)
    couplings = {int(k): complex(v) for k, v in sec["couplings"].items()}
    direct = complex(sec["direct"])
    eps = (sec["eps_plus"], sec["eps_minus"])
    flux0, flux1 = sec["flux0"], sec["flux1"]

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
        distinct = sorted({round(r[2], 12) for r in rows})
        write_json(out / "readout_report.json", {
            "parity": parity_text,
            "tuned_fluxes": [phi12, phi43],
            "distinct_values": distinct,
        })
        print(f"joint readout: tuned fluxes ({phi12:.6f}, {phi43:.6f}), "
              f"{len(distinct)} distinct conductances")
        return 0

    var, points = sec["sweep_variable"], sec["sweep_points"]
    rows = []
    for val in np.linspace(sec["sweep_start"], sec["sweep_stop"], points):
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
    if var == "flux1" and res.species_pair == "0pi":
        # the 0pi amplitude has only odd harmonics of omega/2, so the
        # omega-periodic flux averages its cross term, the contrast, to 0
        print("no bessel fit: a 0pi pair has no parity contrast in this model")
    elif var == "flux1":
        # one-parameter Bessel fit of the parity contrast
        order = {"00": 0, "pipi": 1}[res.species_pair]
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
    sec = cfg["ptcheck"]
    rows = []
    for lam in sec["lambdas"]:
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

    hist = _expansion_report(sec["expansion_sites"], sec["expansion_order"])
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
    return float(exact * max(pred, 1e-300))


def _expansion_report(sites: int, order: int):
    omega = 2 * np.pi
    bdg = kitaev_chain_bdg(sites, J=1.2, Delta=1.2,
                           mu0=1.0, mu1=0.5, omega=omega)
    a0 = perturbation.quadratic_from_bdg(np.asarray(bdg.component(0)))
    a1 = perturbation.quadratic_from_bdg(2 * np.asarray(bdg.component(1)))
    seeds = perturbation.pi_mode_seeds(a0, a1, omega, tol=0.05)
    exp = perturbation.majorana_mode_expansion(
        a0, a1, seeds[0], "pi", order, omega=omega, seed_tol=0.2)
    return [float(h) for h in exp.residual_history]


_COMMANDS = {"spectrum": cmd_spectrum, "modes": cmd_modes,
             "protocol": cmd_protocol, "readout": cmd_readout,
             "ptcheck": cmd_ptcheck}


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process."""
    parser = argparse.ArgumentParser(
        prog="cornerlab",
        description="Driven corner-Majorana laboratory experiment runner",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True)
        p.add_argument("--out", required=True)
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        if name == "protocol":
            p.add_argument("--seed", type=int, default=None)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)

    try:
        cfg = load_config(args.config, getattr(args, "seed", None))
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        return _COMMANDS[args.command](cfg, out, args.format)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # surface everything else as an internal error
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
