import dataclasses
import importlib.util
import json
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from cornerlab import cli, floquet
from cornerlab.lattice import LatticeParams, build_realspace_bdg, fig_s1_params

ROOT = Path(__file__).resolve().parents[1]


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "cornerlab.cli", *args],
        capture_output=True, text=True,
    )


KITAEV = {
    "schema_version": 1,
    "lattice": {"Nx": 4, "Ny": 1, "Jx": 1.0, "Jy": 0.0, "dJ": 0.0,
                "Dx": 1.0, "Dy": 0.0, "dDy": 0.0,
                "mu0": 0.0, "dmu0": 0.0, "mu1": 0.0, "dmu1": 0.0},
    "sambe": {"cutoff": 2},
}

TRIVIAL = {
    "schema_version": 1,
    "lattice": {"Nx": 3, "Ny": 2, "Jx": 0.2, "Jy": 0.0, "dJ": 0.0,
                "Dx": 0.2, "Dy": 0.0, "dDy": 0.0,
                "mu0": 4.0, "dmu0": 0.0, "mu1": 0.0, "dmu1": 0.0},
    "sambe": {"cutoff": 2},
    "modes": {"corner_frac": 0.25},
}


def write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def test_config_validation(tmp_path):
    bad = dict(KITAEV)
    bad["unknown_section"] = {}
    path = write(tmp_path, "bad.json", bad)
    res = run_cli("spectrum", "--config", path, "--out", str(tmp_path / "o"))
    assert res.returncode == 2
    assert "unknown config section" in res.stderr

    bad2 = {"schema_version": 1, "lattice": dict(KITAEV["lattice"], zap=1)}
    path2 = write(tmp_path, "bad2.json", bad2)
    res = run_cli("spectrum", "--config", path2, "--out", str(tmp_path / "o"))
    assert res.returncode == 2

    # keys that nothing reads are rejected
    for section, key in (("readout", "seed"), ("readout", "samples"),
                         ("ptcheck", "seed")):
        unread = {section: {key: 1}}
        res = run_cli("readout", "--config",
                      write(tmp_path, "unread.json", unread),
                      "--out", str(tmp_path / "o"))
        assert res.returncode == 2
        assert f"unknown key {section}.{key!r}" in res.stderr

    # the output format is the --format option, not a config section
    res = run_cli("spectrum", "--config",
                  write(tmp_path, "fmt.json", dict(KITAEV, output={"format": "json"})),
                  "--out", str(tmp_path / "o"))
    assert res.returncode == 2
    assert "unknown config section 'output'" in res.stderr

    # out-of-range and mistyped values
    for command, section, key, val in (
            ("protocol", "protocol", "n_inputs", 0),
            ("protocol", "protocol", "n_inputs", "x"),
            ("protocol", "protocol", "seed", 1.5),
            ("protocol", "protocol", "seed", -1),
            ("protocol", "protocol", "correction_mode", "bogus"),
            ("spectrum", "sambe", "cutoff", 2.5),
            ("protocol", "protocol", "samples", -3),
            ("readout", "readout", "sweep_points", 0),
            ("spectrum", "sambe", "cutoff", 0),
            ("modes", "modes", "corner_frac", 0.0),
            ("modes", "modes", "corner_frac", 0.6),
            ("modes", "modes", "corner_frac", "x"),
            ("spectrum", "sambe", "tol_zero", "x"),
            ("spectrum", "sambe", "tol_pi", "x"),
            ("spectrum", "sambe", "tol_zero", -1e-3),
            ("spectrum", "sambe", "tol_pi", -1e-3),
            ("readout", "readout", "eps_plus", "x"),
            ("readout", "readout", "eps_plus", 0),
            ("readout", "readout", "eps_minus", 0),
            ("readout", "readout", "couplings", {"1": 0.05, "2": 0.05,
                                                 "3": 0.05}),
            ("readout", "readout", "parity", "i g01 gx9"),
            ("ptcheck", "ptcheck", "expansion_sites", "x"),
            ("ptcheck", "ptcheck", "expansion_sites", 39),
            ("ptcheck", "ptcheck", "lambdas", [0.05]),
            ("ptcheck", "ptcheck", "lambdas", [0.05, 0.05]),
            ("spectrum", "lattice", "Nx", 2.5),
            ("spectrum", "lattice", "Nx", True),
            ("spectrum", None, "schema_version", True),
            ("readout", "readout", "flux1", float("nan")),
            ("ptcheck", "ptcheck", "lambdas", [0.01, float("inf")]),
            ("readout", "readout", "sweep_variable", "flux2"),
            ("protocol", "protocol", "mode", "bogus"),
            ("protocol", "protocol", "id", "toffoli"),
            ("spectrum", "lattice", "Jx", True),
            ("readout", "readout", "flux0", 10 ** 400),
            ("spectrum", "lattice", "Jx", 10 ** 400),
            ("protocol", "protocol", "samples", True),
            ("readout", "readout", "direct", True)):
        cfg = dict(KITAEV, protocol={"id": "cnot", "mode": "sample",
                                     "seed": 5})
        if section is None:  # a top-level key
            cfg[key] = val
        else:
            cfg[section] = dict(cfg.get(section, {}), **{key: val})
        res = run_cli(command, "--config", write(tmp_path, "range.json", cfg),
                      "--out", str(tmp_path / "o"))
        assert res.returncode == 2, (section, key, val, res.stderr)
        name = key if section is None else f"{section}.{key}"
        assert f"{name} must" in res.stderr

    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    res = run_cli("spectrum", "--config", str(broken), "--out", str(tmp_path / "o"))
    assert res.returncode == 2


def test_spectrum_command(tmp_path):
    path = write(tmp_path, "cfg.json", KITAEV)
    out = tmp_path / "out"
    res = run_cli("spectrum", "--config", path, "--out", str(out))
    assert res.returncode == 0
    summary = json.loads((out / "summary.json").read_text())
    # two decoupled Kitaev chains at the exactly solvable point
    assert summary["counts"] == {"zero": 4, "pi": 0}
    header = (out / "spectrum.csv").read_text().splitlines()[0]
    assert header == "index,quasienergy,species"


def test_modes_trivial_phase_warns_but_succeeds(tmp_path):
    path = write(tmp_path, "cfg.json", TRIVIAL)
    out = tmp_path / "out"
    res = run_cli("modes", "--config", path, "--out", str(out))
    assert res.returncode == 0
    assert "no corner modes" in res.stderr
    payload = json.loads((out / "modes.json").read_text())
    assert payload["modes"] == []


def test_protocol_enumerate_and_unknown_id(tmp_path):
    cfg = {"protocol": {"id": "cnot", "mode": "enumerate", "seed": 5,
                        "n_inputs": 2}}
    path = write(tmp_path, "cfg.json", cfg)
    out = tmp_path / "out"
    res = run_cli("protocol", "--config", path, "--out", str(out))
    assert res.returncode == 0
    report = json.loads((out / "protocol_report.json").read_text())
    assert report["min_fidelity"] >= 1 - 1e-10
    assert report["correction_table_covered"]

    bad = {"protocol": {"id": "toffoli", "mode": "enumerate", "seed": 5}}
    res = run_cli("protocol", "--config", write(tmp_path, "b.json", bad),
                  "--out", str(out))
    assert res.returncode == 2


def test_protocol_requires_seed(tmp_path):
    cfg = {"protocol": {"id": "cnot", "mode": "sample"}}
    res = run_cli("protocol", "--config", write(tmp_path, "c.json", cfg),
                  "--out", str(tmp_path / "o"))
    assert res.returncode == 2
    assert "seed" in res.stderr


def test_readout_sweep_and_bessel(tmp_path):
    for parity in ("i gp1 gp2", "i g04 gp4"):
        cfg = {"readout": {"parity": parity, "direct": 0.02, "flux0": 0.9,
                           "sweep_variable": "flux1", "sweep_start": 0.0,
                           "sweep_stop": 4.0, "sweep_points": 9}}
        path = write(tmp_path, "cfg.json", cfg)
        out = tmp_path / "out"
        res = run_cli("readout", "--config", path, "--out", str(out))
        assert res.returncode == 0
        lines = (out / "conductance_sweep.csv").read_text().splitlines()
        assert lines[0] == "flux1,parity,G,g0,interference"
        assert len(lines) == 1 + 2 * 9
        report = json.loads((out / "readout_report.json").read_text())
        if parity == "i gp1 gp2":
            assert report["bessel_order"] == 1
            assert report["max_relative_residual"] < 1e-6
            continue
        # a 0pi pair has no parity contrast, so there is nothing to fit
        g = [float(line.split(",")[2]) for line in lines[1:]]
        assert g[0::2] == g[1::2]
        assert report == {"schema_version": 1, "parity": parity,
                          "sweep_variable": "flux1"}
        assert "no parity contrast" in res.stdout


def test_readout_joint(tmp_path):
    cfg = {"readout": {"parity": "g01 g02 g03 g04", "direct": 0.02,
                       "flux0": 0.3}}
    path = write(tmp_path, "cfg.json", cfg)
    out = tmp_path / "out"
    res = run_cli("readout", "--config", path, "--out", str(out))
    assert res.returncode == 0
    report = json.loads((out / "readout_report.json").read_text())
    assert len(report["distinct_values"]) == 2


def test_reproducibility_byte_identical(tmp_path):
    cfg = {"protocol": {"id": "hadamard1", "mode": "sample", "seed": 9,
                        "n_inputs": 2, "samples": 5}}
    path = write(tmp_path, "cfg.json", cfg)
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        res = run_cli("protocol", "--config", path, "--out", str(out))
        assert res.returncode == 0
        outs.append((out / "protocol_log.json").read_bytes())
    assert outs[0] == outs[1]

    # --seed N on a seedless config is the config with "seed": N
    seedless = {"protocol": {k: v for k, v in cfg["protocol"].items()
                             if k != "seed"}}
    out = tmp_path / "c"
    res = run_cli("protocol", "--config", write(tmp_path, "s.json", seedless),
                  "--out", str(out), "--seed", "9")
    assert res.returncode == 0
    for name in ("protocol_log.json", "protocol_report.json"):
        assert (out / name).read_bytes() == (tmp_path / "a" / name).read_bytes()

    # only the protocol command samples, so only it takes --seed
    res = run_cli("spectrum", "--config", write(tmp_path, "k.json", KITAEV),
                  "--out", str(tmp_path / "d"), "--seed", "9")
    assert res.returncode == 2
    assert "unrecognized arguments: --seed" in res.stderr


def test_load_config_round_trip(tmp_path):
    path = write(tmp_path, "cfg.json", KITAEV)
    cfg = cli.load_config(path)
    again = json.loads(json.dumps(cfg))
    assert again == cfg

    # spelling out every default gives the same normalized config (a None
    # default means "no value" and has no spelling)
    spelled = {"schema_version": 1, "lattice": dict(
        KITAEV["lattice"], **{f.name: f.default for f in
                              dataclasses.fields(LatticeParams)
                              if f.default is not dataclasses.MISSING})}
    for name, sec in cli._SCHEMA.items():
        spelled[name] = {key: default for key, (default, _) in sec.items()
                         if default is not None}
        spelled[name].update(KITAEV.get(name, {}))
    assert cli.load_config(write(tmp_path, "spelled.json", spelled)) == cfg

    # every default passes its own rule
    for name, sec in cli._SCHEMA.items():
        for key, (default, rule) in sec.items():
            if default is not None:
                assert cli._check(f"{name}.{key}", default, rule) == default

    # every section present is checked, whatever the command
    bad = dict(KITAEV, readout={"flux1": float("nan")})
    res = run_cli("spectrum", "--config", write(tmp_path, "bad.json", bad),
                  "--out", str(tmp_path / "o"))
    assert res.returncode == 2
    assert "readout.flux1 must" in res.stderr


def test_readme_example_config_loads(tmp_path):
    readme = (ROOT / "README.md").read_text()
    example = re.search(r"```json\n(.*?)```", readme, re.S).group(1)
    cfg = cli.load_config(write(tmp_path, "readme.json", json.loads(example)))
    assert cfg["lattice"]["Nx"] == 6 and cfg["protocol"]["id"] == "cnot"


def test_json_output_format(tmp_path):
    path = write(tmp_path, "cfg.json", KITAEV)
    out = tmp_path / "out"
    res = run_cli("spectrum", "--config", path, "--out", str(out),
                  "--format", "json")
    assert res.returncode == 0
    rows = json.loads((out / "spectrum.json").read_text())
    assert {"index", "quasienergy", "species"} == set(rows[0])


def test_ptcheck_outputs(tmp_path):
    cfg = {"ptcheck": {"lambdas": [0.02, 0.05, 0.1], "expansion_order": 2}}
    path = write(tmp_path, "cfg.json", cfg)
    out = tmp_path / "out"
    res = run_cli("ptcheck", "--config", path, "--out", str(out))
    assert res.returncode == 0
    # every coupling used is at most 0.1 of the blockade gap
    assert "Warning" not in res.stderr, res.stderr
    report = json.loads((out / "ptcheck_report.json").read_text())
    assert abs(report["two_lead_slope"] - 3.0) < 0.3
    assert "ab_coefficients_minimize_residual" not in report
    lines = (out / "ptcheck_residuals.csv").read_text().splitlines()
    assert lines[0] == "order,residual"
    assert "slope" in res.stdout
    # every field is a plain number, with no numpy scalar repr
    scaling = (out / "ptcheck_scaling.csv").read_text().splitlines()
    assert scaling[0] == "lambda,abs_error" and len(scaling) == 4
    for line in scaling[1:] + lines[1:]:
        for field in line.split(","):
            assert "np." not in field
            float(field)


WINDOW = 0.8


def test_main_in_process_matches_fresh_processes(tmp_path, capsys):
    # the parser is built once per process: repeated in-process calls, with
    # different subcommands, --seed on one protocol call and not the next,
    # and a bad argument, must behave as one fresh process per call
    kitaev = write(tmp_path, "k.json", KITAEV)
    proto = write(tmp_path, "p.json", {"protocol": {
        "id": "cnot", "mode": "sample", "seed": 5, "n_inputs": 1,
        "samples": 2}})
    calls = [(0, ["spectrum", "--config", kitaev, "--format", "json"]),
             (0, ["protocol", "--config", proto, "--seed", "11"]),
             (0, ["protocol", "--config", proto]),
             (2, ["spectrum", "--config", kitaev, "--seed", "3"]),
             (0, ["spectrum", "--config", kitaev])]
    for i, (want, args) in enumerate(calls * 2):
        fresh = run_cli(*args, "--out", str(tmp_path / f"fresh{i}"))
        try:
            code = cli.main([*args, "--out", str(tmp_path / f"in{i}")])
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        assert code == fresh.returncode == want
        assert (captured.out, captured.err) == (fresh.stdout, fresh.stderr)
        names = sorted(f.name for f in (tmp_path / f"fresh{i}").glob("*"))
        assert names == sorted(f.name for f in (tmp_path / f"in{i}").glob("*"))
        for name in names:
            assert ((tmp_path / f"fresh{i}" / name).read_bytes()
                    == (tmp_path / f"in{i}" / name).read_bytes())
    assert cli._parser() is cli._parser()


def _lattice_config(Nx, Ny, boundary, **over):
    """fig_s1 couplings with wide species windows, so both hold states."""
    lat = dataclasses.asdict(fig_s1_params(Nx, Ny, boundary))
    lat.update(over)
    return {"schema_version": 1, "lattice": lat,
            "sambe": {"cutoff": 4, "tol_zero": WINDOW, "tol_pi": WINDOW}}


def _realspace_spectrum(cfg):
    sm = floquet.assemble_sambe(build_realspace_bdg(
        LatticeParams(**cfg["lattice"])), cfg["sambe"]["cutoff"])
    return floquet.quasienergy_spectrum(sm, WINDOW, WINDOW)


def test_spectrum_periodic_both_matches_realspace(tmp_path):
    # periodic-both is solved per Bloch block; the rows and the summary
    # must be those of the real-space solve, and reproducible to the byte
    cfg = _lattice_config(2, 2, "periodic-both", mu1=3.9, dmu1=0.1)
    path = write(tmp_path, "cfg.json", cfg)
    for name in ("a", "b"):
        assert cli.main(["spectrum", "--config", path,
                         "--out", str(tmp_path / name)]) == 0
    for name in ("spectrum.csv", "summary.json"):
        assert ((tmp_path / "a" / name).read_bytes()
                == (tmp_path / "b" / name).read_bytes())
    real = _realspace_spectrum(cfg)
    rows = [line.split(",") for line in
            (tmp_path / "a" / "spectrum.csv").read_text().splitlines()[1:]]
    eps = np.array([float(r[1]) for r in rows])
    assert np.abs(eps - real.quasienergies).max() < 1e-12
    assert [r[2] for r in rows] == real.species
    summary = json.loads((tmp_path / "a" / "summary.json").read_text())
    assert summary["counts"] == real.counts()
    assert summary["counts"]["zero"] + summary["counts"]["pi"] > 0
    assert np.allclose([summary["gaps"]["zero"], summary["gaps"]["pi"]],
                       real.gaps, rtol=0, atol=1e-12)
    for s in ("zero", "pi"):
        want = sorted(m.quasienergy for m in real.modes_of(s))
        assert np.allclose(summary["mode_quasienergies"][s], want,
                           rtol=0, atol=1e-12)


def test_spectrum_open_lattice_files_unchanged(tmp_path):
    # an open lattice keeps the real-space path: its files must be what the
    # command wrote when counts, gaps and the summary's mode quasienergies
    # were read off the modes
    cfg = _lattice_config(2, 2, "open")
    out = tmp_path / "out"
    assert cli.main(["spectrum", "--config", write(tmp_path, "c.json", cfg),
                     "--out", str(out)]) == 0
    spec = _realspace_spectrum(cfg)
    w = spec.omega
    species = ["zero" if abs(e) <= WINDOW else "pi"
               if floquet.circular_distance(e, w / 2, w) <= WINDOW else "bulk"
               for e in spec.quasienergies]
    modes = {s: sorted(m.quasienergy for m in spec.modes_of(s))
             for s in ("zero", "pi")}
    assert modes["zero"] and modes["pi"]
    dist = (np.sort(np.abs(spec.quasienergies)),
            np.sort(floquet.circular_distance(spec.quasienergies, w / 2, w)))
    ref = tmp_path / "ref"
    ref.mkdir()
    cli.write_rows(ref / "spectrum", ["index", "quasienergy", "species"],
                   [[i, float(e), s] for i, (e, s) in
                    enumerate(zip(spec.quasienergies, species))], "csv")
    cli.write_json(ref / "summary.json", {
        "counts": {s: len(v) for s, v in modes.items()},
        "gaps": {s: float(d[len(modes[s])]) for s, d in zip(modes, dist)},
        "tolerances": {"zero": WINDOW, "pi": WINDOW},
        "omega": w,
        "mode_quasienergies": modes,
        "lattice_shape": [4, 4],
    })
    for name in ("spectrum.csv", "summary.json"):
        assert (out / name).read_bytes() == (ref / name).read_bytes()


def test_readout_script_leaves_no_temp_files(tmp_path, monkeypatch):
    spec = importlib.util.spec_from_file_location(
        "run_readout_sweeps", ROOT / "scripts" / "run_readout_sweeps.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    scratch = tmp_path / "tmp"
    scratch.mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(scratch))
    script.run({"readout": {"sweep_points": 3}}, str(tmp_path / "out"))
    assert (tmp_path / "out" / "conductance_sweep.csv").exists()
    assert list(scratch.iterdir()) == []


def test_pool_bench_pairs_runs_of_both_sides(tmp_path, capsys):
    spec = importlib.util.spec_from_file_location(
        "pool_bench", ROOT / "scripts" / "pool_bench.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    env = {"nproc": 2, "numpy": "x", "scipy": "y", "blas": {}, "machine": "m"}

    def write(side, seed, trace, value, workload="w"):
        d = tmp_path / side
        d.mkdir(exist_ok=True)
        rec = {"workload": workload, "seed": seed, "trace": trace,
               "correct": True, "attempted": 10, "failed": 0,
               "environment": env,
               "metrics": {"op_p50_s": {"value": value, "unit": "s"}}}
        (d / f"{workload}.seed{seed}.trace{trace}.json").write_text(
            json.dumps(rec))

    for seed, (a, b) in enumerate([(1.0, 0.8), (1.2, 0.9), (0.9, 1.0)], 1):
        write("parent", seed, 0, a)
        write("change", seed, 0, b)
    write("parent", 4, 0, 5.0)              # unpaired: left out
    for seed, (a, b) in enumerate([(0.5, 0.25), (0.7, 0.2), (0.4, 0.3)], 1):
        write("parent", seed, 1, a)         # every traced run is pooled
        write("change", seed, 1, b)
    out = tmp_path / "BENCH.json"
    assert script.main([str(tmp_path / "parent"), str(tmp_path / "change"),
                        "--out", str(out)]) == 0
    rec = json.loads(out.read_text())
    w = rec["workloads"]["w"]
    assert w["pairs"] == 3 and w["change_wins"] == {"op_p50_s": 2}
    assert w["parent"]["runs"] == {"op_p50_s": [1.0, 1.2, 0.9]}
    assert w["parent"]["quartiles"]["op_p50_s"] == [0.95, 1.0, 1.1]
    assert w["change_over_parent"] == {"op_p50_s": 0.9}
    assert w["parent"]["attempted"] == 30 and w["change"]["correct"]
    assert w["change"]["traced_runs"] == 3
    assert w["change"]["traced"] == {"op_p50_s": {"median": 0.25,
                                                  "range": [0.2, 0.3]}}
    assert w["parent"]["traced"]["op_p50_s"]["range"] == [0.4, 0.7]
    assert w["traced_change_over_parent"] == {"op_p50_s": 0.5}
    assert rec["machine"]["nproc"] == 2 and rec["units"] == {"op_p50_s": "s"}
    # an A/A set: a second copy of the parent, pooled against the parent
    for seed, a in enumerate([1.1, 1.1, 0.8], 1):
        write("copy", seed, 0, a)
    assert script.main([str(tmp_path / "parent"), str(tmp_path / "change"),
                        "--out", str(out), "--a-a", str(tmp_path / "copy")]) == 0
    rec = json.loads(out.read_text())
    assert rec["workloads"]["w"]["change_wins"] == {"op_p50_s": 2}
    aa = rec["a_a"]["workloads"]["w"]
    assert aa["pairs"] == 3 and aa["change_wins"] == {"op_p50_s": 2}
    assert aa["change"]["runs"] == {"op_p50_s": [1.1, 1.1, 0.8]}
    assert aa["change_over_parent"] == {"op_p50_s": 1.1}
    # the median gain beside the parent's interquartile spread, marked in
    # the table only where it exceeds that spread
    assert w["median_gain"] == {"op_p50_s": 0.1}
    assert w["parent_iqr"] == {"op_p50_s": 0.15}
    assert aa["median_gain"] == {"op_p50_s": -0.1}
    lines = capsys.readouterr().out.splitlines()
    assert lines[-3].endswith("op_p50_s 0.900 (2)")      # no mark: 0.1 < 0.15
    for seed, b in enumerate([0.5, 0.6, 0.55], 1):
        write("change", seed, 0, b)
    assert script.main([str(tmp_path / "parent"), str(tmp_path / "change"),
                        "--out", str(out)]) == 0
    w = json.loads(out.read_text())["workloads"]["w"]
    assert w["median_gain"] == {"op_p50_s": 0.45} and w["change_wins"] == {
        "op_p50_s": 3}
    assert "op_p50_s 0.550 (3)*" in capsys.readouterr().out
    # each mark over ten pairs, against the bound BENCHMARK.json declares:
    # "*" needs 9 of 10 pairs lower and a median gain above the parent's
    # spread; "worse" a change median beyond the bound; "unresolved" a
    # parent spread beyond it
    bound = script.BOUNDS["op_p50_s"]
    assert bound == {m["name"]: m["bound"] for m in json.loads(
        (ROOT / "BENCHMARK.json").read_text())["end_to_end"]}["op_p50_s"]
    wide = [1.0 + bound * x for x in (-1.6, -1.2, -0.8, -0.4, 0, 0, 0.4,
                                      0.8, 1.2, 1.6)]
    cases = {"nine": ([1.0] * 10, [0.8] * 9 + [1.1], ["*"]),
             "eight": ([1.0] * 10, [0.8] * 8 + [1.1] * 2, []),
             "worse": ([1.0] * 10, [1.0 + 1.5 * bound] * 10, ["worse"]),
             "edge": ([1.0] * 10, [1.0 + 0.5 * bound] * 10, []),
             "wide": (wide, [1.0] * 10, ["unresolved"]),
             "both": (wide, [1.0 + 1.5 * bound] * 10, ["worse", "unresolved"])}
    for name, (a, b, _) in cases.items():
        for seed, (x, y) in enumerate(zip(a, b), 1):
            write("parent10", seed, 0, x, name)
            write("change10", seed, 0, y, name)
    assert script.main([str(tmp_path / "parent10"), str(tmp_path / "change10"),
                        "--out", str(out)]) == 0
    rec = json.loads(out.read_text())["workloads"]
    lines = capsys.readouterr().out.splitlines()
    for name, (_, _, want) in cases.items():
        assert rec[name]["pairs"] == 10 and rec[name]["marks"] == {
            "op_p50_s": want}, name
        line = next(x for x in lines if x.startswith(name + " "))
        cell = line.split("op_p50_s ")[1]
        assert cell.endswith(")" + "".join(
            m if m == "*" else f" {m}" for m in want)), (name, cell)
    assert rec["nine"]["change_wins"] == {"op_p50_s": 9}
    assert rec["eight"]["median_gain"]["op_p50_s"] > 0
