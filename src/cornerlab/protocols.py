"""Measurement-only gate protocols on the three encoded qubits.

Every gate is a short sequence of two- or four-Majorana parity
measurements followed by an outcome-dependent Pauli/phase correction,
listed once in the GATES table and run by one executor on raw amplitudes,
through the measurement kernel that `majorana.measure` wraps.  Corrections
can themselves be executed as forced-measurement protocols (faithful mode)
or applied directly to the state (classical mode); both paths implement
the same logical operator.

Branch conventions: outcomes are labeled by the measured sign of the
listed Majorana string (not of a sigma-operator relabeling of it).  The
correction tables below were fixed against exact enumeration of all
branches; for the CNOT this differs from a naive reading of the
projector algebra, where two sign slips make the published table
inconsistent (see the repository notes).  Pinned tables:

    hadamard_j  (s1..s5):  1        if s2 == -s3 and s1 == -s4
                           X_j Z_j  if s2 ==  s3 and s1 == -s4
                           X_j      if s2 ==  s3 and s1 ==  s4
                           Z_j      if s2 == -s3 and s1 ==  s4
    phase_j     (s1..s3):  Z_j      iff s1*s2*s3 == -1
    cnot        (s1..s4):  on (a, b) = (s1*s3, s2*s4):
                           (-1,+1) -> 1     (+1,+1) -> X_2
                           (+1,-1) -> Z_1   (-1,-1) -> Z_1 X_2
    tgate_j     (s1..s3):  on (s1, s2):
                           (+1,+1) -> 1     (+1,-1) -> Z_j
                           (-1,+1) -> P_j   (-1,-1) -> P_j Z_j
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from cornerlab import majorana as mj
from cornerlab.majorana import (
    FockState,
    ImpossibleOutcome,
    MajoranaString,
    apply,
    encode_logical,
    g,
    pauli,
    string,
)

RETRY_CAP = 64

X3 = pauli("x", 3)                       # i g04 gp4
_X3_FORM = mj._parity_form(X3)
Z3 = pauli("z", 3)                       # g01 g02 g03 g04
_Z3_DIAGONAL = apply(Z3, np.ones(mj.DIM)).real    # Z3 is diagonal (see majorana)
XZ = {  # sigma_x^(j) sigma_z^(3) as a two-Majorana string (even sector)
    1: string(1j, [g("0", 2), g("0", 4)]),
    2: string(1j, [g("pi", 2), g("pi", 4)]),
}
ZZ = {  # sigma_z^(j) sigma_z^(3) as a two-Majorana string (even sector)
    1: string(-1j, [g("0", 3), g("0", 4)]),
    2: string(-1j, [g("pi", 3), g("pi", 4)]),
}
ZZ_PAPER = {  # the sign convention the Hadamard table is stated in
    1: string(1j, [g("0", 3), g("0", 4)]),
    2: string(1j, [g("pi", 3), g("pi", 4)]),
}
PHASE_PAIR = {  # the classical p_j correction is (1 + g_{s,1} g_{s,2})/sqrt(2)
    1: string(1, [g("0", 1), g("0", 2)]),
    2: string(1, [g("pi", 1), g("pi", 2)]),
}
ZY = {  # the phase-gate middle measurement
    1: string(-1j, [g("0", 3), g("pi", 4)]),
    2: string(1j, [g("pi", 3), g("0", 4)]),
}


class ProtocolStep(NamedTuple):
    parity: MajoranaString
    outcome: int
    probability: float
    retries: int = 0


@dataclass
class ProtocolRun:
    protocol: str
    steps: list[ProtocolStep] = field(default_factory=list)
    corrections: list[str] = field(default_factory=list)
    state: FockState | None = None
    total_retries: int = 0
    own_steps: int | None = None     # steps before correction sub-protocols

    @property
    def outcomes(self) -> tuple[int, ...]:
        return tuple(s.outcome for s in self.steps)

    @property
    def branch_probability(self) -> float:
        """Probability of the protocol's own outcome string; the sampled
        steps of measured corrections are not part of the branch."""
        p = 1.0
        for s in self.steps[:self.own_steps]:
            p *= s.probability
        return p

    def log(self) -> list[dict]:
        return [{"parity": mj.format_string(s.parity), "outcome": s.outcome,
                 "probability": s.probability, "retries": s.retries}
                for s in self.steps]


@dataclass(frozen=True)
class Gate:
    """One measurement-only gate.

    `steps` are the free parity measurements, in order.  Their outcomes
    pick a row of `table`: entry i of the row key is the product of the
    outcomes of the steps listed in `key[i]`, and the row names the
    corrections ("1", x_j, z_j, or p_j for the phase gate) in the order
    they are applied.  With `until_flip`, steps[1] is repeated together
    with a closing x3 until that x3 outcome flips the steps[0] outcome.
    """

    target: np.ndarray                # 4x4 on the logical pair, basis b1 b2
    steps: tuple[MajoranaString, ...]
    key: tuple[tuple[int, ...], ...]
    table: dict[tuple[int, ...], tuple[str, ...]]
    until_flip: bool = False
    ancilla: tuple | np.ndarray = (1.0, 0.0)    # qubit-3 input amplitudes
    forms: tuple = field(init=False, repr=False)  # (perm, coeff) per step

    def __post_init__(self):
        object.__setattr__(self, "forms", tuple(map(mj._parity_form, self.steps)))

    def corrections(self, outcomes) -> tuple[str, ...]:
        return self.table[tuple([math.prod([outcomes[i] for i in idx])
                                 for idx in self.key])]


def magic_state() -> np.ndarray:
    """Ancilla amplitudes of the magic state consumed by the T-gate."""
    return np.array([np.exp(-1j * np.pi / 8), np.exp(1j * np.pi / 8)]) / np.sqrt(2)


def _on(qubit: int, mat2: np.ndarray) -> np.ndarray:
    """A one-qubit gate on logical qubit 1 or 2 of the pair."""
    return np.kron(mat2, np.eye(2)) if qubit == 1 else np.kron(np.eye(2), mat2)


_X = np.array([[0, 1], [1, 0]], dtype=complex)
_Z = np.diag([1.0, -1.0]).astype(complex)
_H = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
_S = np.diag([np.exp(-1j * np.pi / 4), np.exp(1j * np.pi / 4)])
_T = np.diag([np.exp(-1j * np.pi / 8), np.exp(1j * np.pi / 8)])
_CNOT = np.eye(4, dtype=complex)[[0, 1, 3, 2]]


def _gates() -> dict[str, Gate]:
    """Every protocol, keyed by id (the tables of the module docstring)."""
    gates = {}
    for axis, mat, pair in (("x", _X, XZ), ("z", _Z, ZZ)):
        for j in (1, 2):
            gates[f"pauli-{axis}{j}"] = Gate(
                _on(j, mat), (X3, pair[j], Z3), (), {(): ()}, until_flip=True)
    for j in (1, 2):
        x, z = f"x{j}", f"z{j}"
        gates[f"hadamard{j}"] = Gate(
            _on(j, _H), (X3, XZ[j], ZZ_PAPER[j], X3, Z3), ((1, 2), (0, 3)),
            {(-1, -1): ("1",), (1, -1): (z, x), (1, 1): (x,), (-1, 1): (z,)})
    for j in (1, 2):
        gates[f"phase{j}"] = Gate(_on(j, _S), (X3, ZY[j], Z3), ((0, 1, 2),),
                                  {(1,): ("1",), (-1,): (f"z{j}",)})
    gates["cnot"] = Gate(
        _CNOT, (X3, string(1j, [g("pi", 2), g("pi", 4)]),
                string(1j, [g("0", 3), g("pi", 2)]), Z3), ((0, 2), (1, 3)),
        {(-1, 1): ("1",), (1, 1): ("x2",), (1, -1): ("z1",),
         (-1, -1): ("z1", "x2")})
    for j in (1, 2):
        z, p = f"z{j}", f"p{j}"
        gates[f"tgate{j}"] = Gate(
            _on(j, _T), (ZZ[j], X3, Z3), ((0,), (1,)),
            {(1, 1): ("1",), (1, -1): (z,), (-1, 1): (p,), (-1, -1): (z, p)},
            ancilla=magic_state())
    return gates


GATES = _gates()
PROTOCOL_IDS = tuple(GATES)


def _gate(protocol: str) -> Gate:
    if protocol not in GATES:
        raise ValueError(f"unknown protocol id {protocol!r}")
    return GATES[protocol]


class _Executor:
    """Fills one ProtocolRun on raw amplitudes (a FockState is wrapped only
    for a measured correction and at the end): measurements, forced loops,
    corrections."""

    def __init__(self, protocol: str, gate: Gate, state: FockState,
                 rng: np.random.Generator | None, forced: list[int] | None,
                 correction_mode: str):
        if correction_mode not in ("measured", "classical"):
            raise ValueError(f"bad correction mode {correction_mode!r}")
        if forced is None and rng is None:
            raise ValueError("need an rng unless all outcomes are forced")
        n = len(gate.steps)               # forced lists: checked before any draw
        if forced is not None and len(forced) < n:
            raise ValueError("forced outcome list exhausted")
        if forced is not None and len(forced) > n:
            raise ValueError(f"{len(forced) - n} forced outcomes left over "
                             f"after the {n} steps of {protocol}")
        for force in forced or ():
            if force not in (+1, -1):
                raise ValueError(f"forced outcome must be +-1, got {force}")
        self.rng = rng
        self.draw = rng if forced is None else None   # samples own outcomes
        self.mode = correction_mode
        self.psi = state.amplitudes
        self.run = ProtocolRun(protocol)

    def measure_free(self, parity: MajoranaString, form, force: int | None) -> int:
        """One measurement with a free outcome (sampled or forced)."""
        outcome, self.psi, prob = mj._measure_amplitudes(
            self.psi, *form, self.draw, force, parity)
        self.run.steps.append(ProtocolStep(parity, outcome, prob))
        return outcome

    def measure_until_flip(self, pair_parity: MajoranaString, form,
                           force: int | None, opening: int) -> int:
        """Forced-measurement loop: measure (pair_parity, x3) pairs until the
        x3 outcome differs from `opening`; returns the pair outcome of the
        final round.  A failed round restores the pre-round state exactly,
        so in forced mode only the succeeding round is taken.
        """
        run = self.run
        closing = None if force is None else -opening
        retries = 0
        while True:
            mid = self.measure_free(pair_parity, form, force)
            outcome, self.psi, prob = mj._measure_amplitudes(
                self.psi, *_X3_FORM, self.draw, closing, X3)
            if outcome == -opening:
                # the repeat-until-flip loop makes this outcome certain, so
                # forced-branch bookkeeping records probability 1; sampled
                # runs keep the actually drawn probability in their log
                prob = 1.0 if closing is not None else prob
                run.steps.append(ProtocolStep(X3, outcome, prob, retries))
                run.total_retries += retries
                return mid
            retries += 1
            run.steps.append(ProtocolStep(X3, outcome, prob))
            if retries >= RETRY_CAP:
                raise RuntimeError(
                    f"forced-measurement loop exceeded {RETRY_CAP} retries; "
                    f"log: {[(mj.format_string(s.parity), s.outcome) for s in run.steps]}"
                )

    def apply_correction(self, name: str):
        """Apply a correction gate: 1, x_j, z_j, or p_j (phase gate)."""
        run = self.run
        run.corrections.append(name)
        if name == "1":
            return
        kind, qubit = name[0], int(name[1])
        if self.mode == "classical":
            psi = self.psi
            if kind == "p":
                psi = (psi + apply(PHASE_PAIR[qubit], psi)) / np.sqrt(2)
            else:
                psi = apply(pauli(kind, qubit), psi)
            self.psi = FockState(psi).amplitudes      # checks the unit norm
            return
        # measured mode: corrections are measurement protocols themselves
        sub_id = f"phase{qubit}" if kind == "p" else f"pauli-{kind}{qubit}"
        sub = _run(sub_id, mj._unit_state(self.psi), self.rng, None, "measured")
        if run.own_steps is None:
            run.own_steps = len(run.steps)
        self.psi = sub.state.amplitudes
        run.steps.extend(sub.steps)
        run.corrections.extend(f"  {c}" for c in sub.corrections)
        run.total_retries += sub.total_retries


def _run(protocol: str, state: FockState, rng: np.random.Generator | None,
         forced: list[int] | None, correction_mode: str) -> ProtocolRun:
    """Measure the gate's steps (an until-flip gate loops on steps[1]),
    then apply the corrections its table picks."""
    gate = _gate(protocol)
    ex = _Executor(protocol, gate, state, rng, forced, correction_mode)
    outcomes = []
    for i, (parity, form) in enumerate(zip(gate.steps, gate.forms)):
        force = None if forced is None else forced[i]
        if gate.until_flip and i == 1:
            outcomes.append(ex.measure_until_flip(parity, form, force, outcomes[0]))
        else:
            outcomes.append(ex.measure_free(parity, form, force))
    for name in gate.corrections(outcomes):
        ex.apply_correction(name)
    ex.run.state = mj._unit_state(ex.psi)
    return ex.run


def run_protocol(protocol, state, rng=None, forced=None,
                 correction_mode="measured") -> ProtocolRun:
    """Run a protocol by id (see PROTOCOL_IDS).  Give an rng, or force every
    free outcome (the rng then drives measured corrections only)."""
    return _run(protocol, state, rng, forced, correction_mode)


def run_pauli_fix(state, qubit, axis, rng=None, forced=None,
                  correction_mode="measured") -> ProtocolRun:
    """X_j or Z_j by measure-until-flip: open with sigma_x^(3), repeat the
    (sigma_alpha^(j) sigma_z^(3), sigma_x^(3)) pair until the closing x3
    outcome flips, then reinitialize the ancilla with a z3 measurement."""
    return _run(f"pauli-{axis}{qubit}", state, rng, forced, correction_mode)


def run_hadamard(state, qubit, rng=None, forced=None,
                 correction_mode="measured") -> ProtocolRun:
    """Hadamard on logical qubit j via the 5-measurement sequence."""
    return _run(f"hadamard{qubit}", state, rng, forced, correction_mode)


def run_phase(state, qubit, rng=None, forced=None,
              correction_mode="measured") -> ProtocolRun:
    """Phase gate (diag(1, i) up to global phase) via 3 measurements."""
    return _run(f"phase{qubit}", state, rng, forced, correction_mode)


def run_cnot(state, rng=None, forced=None,
             correction_mode="measured") -> ProtocolRun:
    """CNOT with qubit 1 the control and qubit 2 the target."""
    return _run("cnot", state, rng, forced, correction_mode)


def run_tgate(state, qubit, rng=None, forced=None,
              correction_mode="measured") -> ProtocolRun:
    """T-gate consuming a magic-state ancilla
    |M> = (e^{-i pi/8}|0> + e^{i pi/8}|1>)/sqrt(2) on qubit 3."""
    return _run(f"tgate{qubit}", state, rng, forced, correction_mode)


def free_outcome_count(protocol: str) -> int:
    """Number of free outcomes enumerated per branch: one per step.  An
    until-flip loop contributes its success-round pair outcome only (failed
    rounds act as the identity and merely repeat; the closing x3 is forced)."""
    return len(_gate(protocol).steps)


def logical_fidelity(state_in: FockState, run: ProtocolRun, target: np.ndarray) -> float:
    """Global-phase-invariant fidelity of the run against the target gate (a
    4x4 on the logical pair, such as `GATES[pid].target`): one row of
    `_fidelities`."""
    return float(_fidelities(state_in.amplitudes[None], run.state.amplitudes[None],
                             target)[0])


def _fidelities(inputs: np.ndarray, outputs: np.ndarray, target: np.ndarray) -> np.ndarray:
    """Fidelity of each row of stacked (n, 16) input and output amplitudes: the
    input's logical content (qubits 1, 2) is read off at the input ancilla
    configuration, the output's at the ancilla eigenstate the run ends in (sum
    |psi_i|^2 diag(Z3)_i), and both are compared after applying the target;
    a row with |phi| |tgt| < 1e-14 reads 0."""
    anc = (outputs.real ** 2 + outputs.imag ** 2) @ _Z3_DIAGONAL
    if np.any(np.abs(np.abs(anc) - 1) > 1e-9):
        raise ValueError("run did not end with the ancilla in a z eigenstate")
    out = (outputs @ mj._DECODE_ROWS.T).reshape(-1, 4, 2)
    phi = np.where((anc > 0)[:, None], out[:, :, 0], out[:, :, 1])
    # target acts on the logical pair for any input ancilla branch; the
    # overlap maximized over the ancilla branch phases is the sum in quadrature
    tgt = target @ (inputs @ mj._DECODE_ROWS.T).reshape(-1, 4, 2)
    num = (abs(np.einsum("ni,nij->nj", phi.conj(), tgt)) ** 2).sum(1)
    den = (abs(phi) ** 2).sum(1) * (abs(tgt) ** 2).sum((1, 2))
    return np.sqrt(np.divide(num, den, out=np.zeros_like(num), where=den >= 1e-28))


@dataclass
class BranchReport:
    protocol: str
    n_branches: int
    n_reachable: int
    min_fidelity: float
    branch_probabilities: dict[tuple[int, ...], float]
    covered: bool


def enumerate_branches(
    protocol: str,
    inputs: list[FockState],
    correction_mode: str = "classical",
    rng: np.random.Generator | None = None,
) -> BranchReport:
    """Exhaust all outcome strings in force mode, apply corrections, and
    report the minimum logical fidelity over reachable branches.

    Zero-probability branches (forced projector annihilates the state,
    p < 1e-14) are skipped.  In `measured` correction mode one generator,
    seeded by one `rng.integers(2**63)` draw (`default_rng(0)` without an
    rng), drives the correction sub-protocols of every branch in turn; the
    `classical` mode draws nothing.  The table counts as covered when every
    correction row that some outcome string selects was applied (at top
    level) in at least one reachable run.
    """
    gate = _gate(protocol)
    all_signs = list(itertools.product((1, -1), repeat=len(gate.steps)))
    probs: dict[tuple[int, ...], float] = {}
    rows = []                                   # (input, output) amplitudes
    applied = set()
    sub_rng = None
    if correction_mode == "measured":
        sub_rng = np.random.default_rng(
            rng.integers(2**63) if rng is not None else 0)
    for signs in all_signs:
        for state in inputs:
            try:
                run = run_protocol(protocol, state, rng=sub_rng,
                                   forced=list(signs),
                                   correction_mode=correction_mode)
            except ImpossibleOutcome:
                continue
            probs[signs] = probs.get(signs, 0.0) + run.branch_probability
            rows.append((state.amplitudes, run.state.amplitudes))
            applied.add(tuple(c for c in run.corrections
                              if not c.startswith(" ")))
    rows = np.reshape(rows, (-1, 2, mj.DIM))
    return BranchReport(
        protocol=protocol,
        n_branches=len(all_signs),
        n_reachable=len(rows),
        min_fidelity=float(_fidelities(rows[:, 0], rows[:, 1], gate.target).min(initial=1.0)),
        branch_probabilities=probs,
        covered={gate.corrections(s) for s in all_signs} <= applied,
    )


def random_logical_inputs(
    protocol: str, n: int, rng: np.random.Generator,
) -> list[FockState]:
    """Random product inputs for a protocol: Haar-ish random qubits 1-2, the
    ancilla in the magic state for a T-gate and in |0> otherwise."""
    anc = _gate(protocol).ancilla
    out = []
    for _ in range(n):
        qs = []
        for _q in range(2):
            v = rng.normal(size=2) + 1j * rng.normal(size=2)
            qs.append(v / np.linalg.norm(v))
        out.append(encode_logical(qs[0], qs[1], anc))
    return out
