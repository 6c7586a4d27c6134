"""Self-tests of the benchmark's checks: each one must pass on a clean
output and turn red on a corrupted copy of it.

    python3 perfbench/selftest.py

Run from the root of a source checkout (it takes about ten seconds).
Prints one PASS/FAIL line per test and exits with code 1 if any failed.
"""

from __future__ import annotations

import copy
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import numpy as np  # noqa: E402

import oracles  # noqa: E402
import workloads  # noqa: E402
from cornerlab import floquet, lattice  # noqa: E402

RESULTS = []


def expect(name, clean_fails, corrupt_fails):
    ok = not clean_fails and bool(corrupt_fails)
    RESULTS.append(ok)
    detail = corrupt_fails[0] if corrupt_fails else "corruption not detected"
    if clean_fails:
        detail = f"clean output failed: {clean_fails[0]}"
    print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")


def corner_modes():
    wl = workloads.CornerModes(1, None)
    wl.setup()
    out = wl._solve(wl._params(0))
    check = lambda o: oracles.check_corner_modes(o, wl.WINDOW)  # noqa: E731

    bad = copy.deepcopy(out)
    eps = bad["spectrum"].quasienergies
    eps[int(np.argmax(eps))] += 1e-3
    expect("corner-modes: one quasienergy shifted by 1e-3", check(out), check(bad))

    bad = copy.deepcopy(out)
    bad["spectrum"].modes[0].quasienergy += 1e-3
    expect("corner-modes: one mode quasienergy shifted by 1e-3", [], check(bad))

    bad = copy.deepcopy(out)
    w = bad["weights"][0]
    k = int(np.argmax(w))
    bad["weights"][0] = np.where(np.arange(4) == k, 0.79, 0.07)
    expect("corner-modes: a corner weight below 0.8", [], check(bad))


def gap_scan():
    """The spectrum-file check against the Bloch oracle, on a 6x6 periodic
    lattice solved in-process at the workload's cutoff."""
    wl = workloads.GapScan(1, None)
    cfg = wl._config(3, 4.2, 0.1)
    p = lattice.LatticeParams(**cfg["lattice"])
    spec = floquet.quasienergy_spectrum(
        floquet.assemble_sambe(lattice.build_realspace_bdg(p), wl.CUTOFF))
    rows = [(float(e), "bulk") for e in spec.quasienergies]
    summary = {"counts": spec.counts(),
               "gaps": {"zero": spec.gaps[0], "pi": spec.gaps[1]},
               "tolerances": {"zero": spec.tol_zero, "pi": spec.tol_pi}}
    blocks = [lattice.build_momentum_bdg(p, kx, ky)
              for kx, ky in lattice.momentum_grid(p)]
    bloch = oracles.bloch_quasienergies([b.component(0) for b in blocks],
                                        [b.component(1) for b in blocks], p.omega)
    tol = oracles.sambe_truncation_tol(4.3)
    check = lambda r, s=summary: oracles.check_spectrum_files(  # noqa: E731
        r, s, 2 * 36, bloch, p.omega, tol)
    bad = list(rows)
    bad[5] = (bad[5][0] + 1e-3, "bulk")
    expect("gap-scan: one quasienergy shifted by 1e-3", check(rows), check(bad))
    bad_summary = copy.deepcopy(summary)
    bad_summary["gaps"]["pi"] += 10 * tol
    expect("gap-scan: summary gap off by 10 x tolerance", [], check(rows, bad_summary))


def bloch_agrees_at_high_cutoff():
    """The Bloch propagator against the program's Sambe solver on a 4x4
    periodic lattice at cutoff M = 7, where truncation is negligible."""
    base = lattice.fig_s1_params()
    vals = {n: getattr(base, n) for n in workloads.DRIVE_NAMES}
    p = lattice.LatticeParams(Nx=2, Ny=2, boundary="periodic-both", **vals)
    spec = floquet.quasienergy_spectrum(
        floquet.assemble_sambe(lattice.build_realspace_bdg(p), 7))
    blocks = [lattice.build_momentum_bdg(p, kx, ky)
              for kx, ky in lattice.momentum_grid(p)]
    bloch = oracles.bloch_quasienergies([b.component(0) for b in blocks],
                                        [b.component(1) for b in blocks],
                                        p.omega, steps=800)
    dev = oracles.circle_mismatch(spec.quasienergies, bloch, p.omega)
    ok = dev <= 1e-9
    RESULTS.append(ok)
    print(f"{'PASS' if ok else 'FAIL'} Bloch oracle vs Sambe M = 7 on 4x4: "
          f"max deviation {dev:.2e} (want <= 1e-9)")


def gate_branches():
    wl = workloads.GateBranches(1, None)
    wl.setup()
    op = wl._protocol_ops(0, 4, "hadamard1")[0]
    rep = op.run()
    records = list(wl.recorder.records)
    clean = op.check(rep)
    # a wrong Pauli correction: an extra logical X on the corrected qubit
    state, run = records[0]
    bad_run = copy.copy(run)
    bad_run.state = type(run.state)(wl.code.sx[0] @ run.state.amplitudes)
    wl.recorder.records = [(state, bad_run)] + records[1:]
    expect("gate-branches: a branch with a wrong Pauli correction", clean,
           op.check(rep))
    # a lost branch: one input's probabilities no longer sum to one
    wl.recorder.records = records[1:]
    expect("gate-branches: one branch missing", [], op.check(rep))


def lead_oracles():
    wl = workloads.LeadOracles(1, None)
    wl.setup()
    rng = workloads._rng(1, 0, 4)
    run, check = wl._readout(rng)
    out = run()
    sine, contrast, phi, joint = out
    bad = (sine, [1.01 * c for c in contrast], phi, joint)
    expect("lead-oracles: pi-pi readout contrast scaled by 1.01", check(out),
           check(bad))
    bad_joint = copy.deepcopy(joint)
    bad_joint[0].value *= 1 + 1e-6
    expect("lead-oracles: one joint conductance off by 1e-6", [],
           check((sine, contrast, phi, bad_joint)))

    run, check = wl._two_lead(workloads._rng(1, 0, 0))
    errs = run()
    squared = [e * wl.LAMS2[0] / lam for e, lam in zip(errs, wl.LAMS2)]
    expect("lead-oracles: two-lead errors scaling as lambda^2", check(errs),
           check(squared))

    run, check = wl._four_lead(workloads._rng(1, 0, 1))
    errs = run()
    cubed = [e * wl.LAMS3[0] / lam for e, lam in zip(errs, wl.LAMS3)]
    expect("lead-oracles: four-lead errors scaling as lambda^3", check(errs),
           check(cubed))

    run, check = wl._parity_flip(workloads._rng(1, 0, 2))
    s_plus, s_minus = run()
    expect("lead-oracles: parity flip off by 1e-12", check((s_plus, s_minus)),
           check((s_plus, -s_plus + 1e-12)))

    run, check = wl._expansion(workloads._rng(1, 0, 3))
    out = run()
    (a0, a1, e0), pi = out
    bad = copy.deepcopy(e0)
    bad.residual_history[-1] = bad.residual_history[-2] * 1.01
    expect("lead-oracles: expansion residual rising at the last order",
           check(out), check(((a0, a1, bad), pi)))


def main():
    corner_modes()
    gap_scan()
    bloch_agrees_at_high_cutoff()
    gate_branches()
    lead_oracles()
    failed = RESULTS.count(False)
    print(f"{len(RESULTS) - failed} of {len(RESULTS)} self-tests passed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
