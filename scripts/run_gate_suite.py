#!/usr/bin/env python3
"""Enumerate every measurement-only gate protocol over all outcome branches
and print the worst-case corrected fidelity per gate."""

import argparse

import numpy as np

from cornerlab import protocols


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--inputs", type=int, default=5,
                    help="random logical inputs per protocol")
    args = ap.parse_args()
    rng = np.random.default_rng(args.seed)
    for pid in protocols.PROTOCOL_IDS:
        inputs = protocols.random_logical_inputs(pid, args.inputs, rng)
        rep = protocols.enumerate_branches(pid, inputs)
        print(f"{pid:10s} branches {rep.n_branches:3d} "
              f"min fidelity {rep.min_fidelity:.15f}")


if __name__ == "__main__":
    main()
