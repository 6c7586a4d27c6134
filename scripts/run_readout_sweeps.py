#!/usr/bin/env python3
"""Conductance interferometry sweeps: two-lead flux sweeps with the Bessel
fit of the parity contrast, and the tuned four-lead joint-parity table."""

import argparse
import json
import tempfile
from pathlib import Path

from cornerlab import cli


def run(cfg, out):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "config.json"
        path.write_text(json.dumps(cfg))
        rc = cli.main(["readout", "--config", str(path), "--out", out])
    if rc != 0:
        raise SystemExit(rc)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--out", default="out/readout")
    args = ap.parse_args()
    run({"readout": {"parity": "i g01 g02", "direct": 0.02, "flux1": 0.0,
                     "sweep_variable": "flux0", "sweep_points": 61}},
        args.out + "/two_lead_flux0")
    run({"readout": {"parity": "i gp1 gp2", "direct": 0.02, "flux0": 0.9,
                     "sweep_variable": "flux1", "sweep_stop": 5.0,
                     "sweep_points": 41}},
        args.out + "/two_lead_bessel")
    run({"readout": {"parity": "g01 g02 g03 g04", "direct": 0.02,
                     "flux0": 0.3}},
        args.out + "/joint")
    print("outputs in", args.out)


if __name__ == "__main__":
    main()
