#!/usr/bin/env python3
"""Solve the driven lattice at the corner-mode benchmark point and write the
quasienergy spectrum plus corner-localized mode profiles.

The acceptance-scale run (16x16 sites, cutoff 6: --half-size 8 --cutoff 6)
takes about 7.0 s and 0.27 GB on two cores, one Sambe solve for each of the
two commands; the default here, a 12x12 lattice at cutoff 4, about 1.1 s.
"""

import argparse
import dataclasses
import json
import tempfile
from pathlib import Path

from cornerlab import cli
from cornerlab.lattice import fig_s1_params


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--half-size", type=int, default=6,
                    help="Nx = Ny (lattice is 2Nx x 2Ny sites)")
    ap.add_argument("--cutoff", type=int, default=4, help="Sambe cutoff M")
    ap.add_argument("--out", default="out/corner_modes")
    args = ap.parse_args()

    config = {
        "schema_version": 1,
        "lattice": dataclasses.asdict(fig_s1_params(args.half_size, args.half_size)),
        "sambe": {"cutoff": args.cutoff},
        "modes": {"corner_frac": 0.25},
    }
    with tempfile.TemporaryDirectory() as tmp:
        cfg_path = Path(tmp) / "config.json"
        cfg_path.write_text(json.dumps(config))
        for command in ("spectrum", "modes"):
            rc = cli.main([command, "--config", str(cfg_path), "--out", args.out])
            if rc != 0:
                raise SystemExit(rc)
    summary = json.loads((Path(args.out) / "summary.json").read_text())
    print("mode counts:", summary["counts"])
    print("outputs in", args.out)


if __name__ == "__main__":
    main()
