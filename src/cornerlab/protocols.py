"""Measurement-only gate protocols on the three encoded qubits.

Every gate is a short sequence of two- or four-Majorana parity
measurements followed by an outcome-dependent Pauli/phase correction.
Corrections can themselves be executed as forced-measurement protocols
(faithful mode) or applied directly to the state (classical mode); both
paths implement the same logical operator.

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
from dataclasses import dataclass, field

import numpy as np

from cornerlab import majorana as mj
from cornerlab.majorana import (
    FockState,
    MajoranaString,
    apply,
    decode_logical,
    encode_logical,
    g,
    measure,
    multiply,
    pauli,
    string,
)

RETRY_CAP = 64

X3 = pauli("x", 3)                       # i g04 gp4
Z3 = pauli("z", 3)                       # g01 g02 g03 g04
XZ = {  # sigma_x^(j) sigma_z^(3) as a two-Majorana string (even sector)
    1: string(1j, [g("0", 2), g("0", 4)]),
    2: string(1j, [g("pi", 2), g("pi", 4)]),
}
ZZ = {  # sigma_z^(j) sigma_z^(3) as a two-Majorana string (even sector)
    1: multiply(pauli("z", 1), pauli("z", 3)),          # -i g03 g04
    2: string(-1j, [g("pi", 3), g("pi", 4)]),
}
ZZ_PAPER = {  # the sign convention the Hadamard table is stated in
    1: string(1j, [g("0", 3), g("0", 4)]),
    2: string(1j, [g("pi", 3), g("pi", 4)]),
}
ZY = {  # the phase-gate middle measurement
    1: string(-1j, [g("0", 3), g("pi", 4)]),
    2: string(1j, [g("pi", 3), g("0", 4)]),
}
CNOT_STEPS = (X3, string(1j, [g("pi", 2), g("pi", 4)]),
              string(1j, [g("0", 3), g("pi", 2)]), Z3)


@dataclass(frozen=True)
class ProtocolStep:
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
        return [
            {
                "parity": mj.format_string(s.parity),
                "outcome": s.outcome,
                "probability": s.probability,
                "retries": s.retries,
            }
            for s in self.steps
        ]


@dataclass(frozen=True)
class GateSpec:
    """Target unitary on the two logical qubits (4x4, basis b1 b2)."""

    name: str
    matrix: np.ndarray
    qubits: tuple[int, ...]

    def __post_init__(self):
        u = self.matrix
        if not np.allclose(u @ u.conj().T, np.eye(u.shape[0]), atol=1e-12):
            raise ValueError(f"{self.name}: target is not unitary")


def _q1(mat2: np.ndarray) -> np.ndarray:
    return np.kron(mat2, np.eye(2))


def _q2(mat2: np.ndarray) -> np.ndarray:
    return np.kron(np.eye(2), mat2)


_X = np.array([[0, 1], [1, 0]], dtype=complex)
_Z = np.diag([1.0, -1.0]).astype(complex)
_H = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
_S = np.diag([np.exp(-1j * np.pi / 4), np.exp(1j * np.pi / 4)])
_T = np.diag([np.exp(-1j * np.pi / 8), np.exp(1j * np.pi / 8)])
_CNOT = np.array(
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
)

GATE_TARGETS: dict[str, GateSpec] = {
    "pauli-x1": GateSpec("pauli-x1", _q1(_X), (1,)),
    "pauli-x2": GateSpec("pauli-x2", _q2(_X), (2,)),
    "pauli-z1": GateSpec("pauli-z1", _q1(_Z), (1,)),
    "pauli-z2": GateSpec("pauli-z2", _q2(_Z), (2,)),
    "hadamard1": GateSpec("hadamard1", _q1(_H), (1,)),
    "hadamard2": GateSpec("hadamard2", _q2(_H), (2,)),
    "phase1": GateSpec("phase1", _q1(_S), (1,)),
    "phase2": GateSpec("phase2", _q2(_S), (2,)),
    "cnot": GateSpec("cnot", _CNOT, (1, 2)),
    "tgate1": GateSpec("tgate1", _q1(_T), (1,)),
    "tgate2": GateSpec("tgate2", _q2(_T), (2,)),
}

PROTOCOL_IDS = tuple(GATE_TARGETS)


class _Executor:
    """Runs one protocol instance: measurements, forced loops, corrections."""

    def __init__(self, state: FockState, rng: np.random.Generator | None,
                 forced: list[int] | None, correction_mode: str):
        if correction_mode not in ("measured", "classical"):
            raise ValueError(f"bad correction mode {correction_mode!r}")
        if forced is None and rng is None:
            raise ValueError("need an rng unless all outcomes are forced")
        self.state = state
        self.rng = rng
        self.forced = list(forced) if forced is not None else None
        self.mode = correction_mode
        self.steps: list[ProtocolStep] = []
        self.corrections: list[str] = []
        self.total_retries = 0
        self.own_steps: int | None = None

    def measure_free(self, parity: MajoranaString) -> int:
        """One measurement with a free outcome (sampled or forced)."""
        if self.forced is not None:
            if not self.forced:
                raise ValueError("forced outcome list exhausted")
            s = self.forced.pop(0)
            res = measure(self.state, parity, force=s)
        else:
            res = measure(self.state, parity, rng=self.rng)
        self.state = res.post_state
        self.steps.append(ProtocolStep(parity, res.outcome, res.probability))
        return res.outcome

    def measure_until_flip(self, pair_parity: MajoranaString, opening: int) -> tuple[int, int]:
        """Forced-measurement loop: measure (pair_parity, x3) pairs until the
        x3 outcome differs from `opening`.  Returns (mid outcome of the final
        round, flipped x3 outcome).  A failed round restores the pre-round
        state exactly, so in forced mode only the succeeding round is taken.
        """
        retries = 0
        while True:
            mid = self.measure_free(pair_parity)
            if self.forced is not None:
                res = measure(self.state, X3, force=-opening)
            else:
                res = measure(self.state, X3, rng=self.rng)
            self.state = res.post_state
            if res.outcome == -opening:
                # the repeat-until-flip loop makes this outcome certain, so
                # forced-branch bookkeeping records probability 1; sampled
                # runs keep the actually drawn probability in their log
                prob = 1.0 if self.forced is not None else res.probability
                self.steps.append(
                    ProtocolStep(X3, res.outcome, prob, retries))
                self.total_retries += retries
                return mid, res.outcome
            retries += 1
            self.steps.append(ProtocolStep(X3, res.outcome, res.probability))
            if retries >= RETRY_CAP:
                raise RuntimeError(
                    f"forced-measurement loop exceeded {RETRY_CAP} retries; "
                    f"log: {[(mj.format_string(s.parity), s.outcome) for s in self.steps]}"
                )

    def apply_correction(self, name: str):
        """Apply a correction gate: 1, x_j, z_j, or p_j (phase gate)."""
        self.corrections.append(name)
        if name == "1":
            return
        kind, qubit = name[0], int(name[1])
        if self.mode == "classical":
            psi = self.state.amplitudes
            if kind in ("x", "z"):
                psi = apply(pauli(kind, qubit), psi)
            elif kind == "p":
                species = "0" if qubit == 1 else "pi"
                pair = string(1, [g(species, 1), g(species, 2)])
                psi = (psi + apply(pair, psi)) / np.sqrt(2)
            else:
                raise ValueError(f"unknown correction {name!r}")
            self.state = FockState(psi)
            return
        # measured mode: corrections are measurement protocols themselves
        if kind in ("x", "z"):
            sub = run_pauli_fix(self.state, qubit, kind, rng=self.rng)
        elif kind == "p":
            sub = run_phase(self.state, qubit, rng=self.rng)
        else:
            raise ValueError(f"unknown correction {name!r}")
        if self.own_steps is None:
            self.own_steps = len(self.steps)
        self.state = sub.state
        self.steps.extend(sub.steps)
        self.corrections.extend(f"  {c}" for c in sub.corrections)
        self.total_retries += sub.total_retries

    def finish(self, protocol: str) -> ProtocolRun:
        return ProtocolRun(protocol, self.steps, self.corrections,
                           self.state, self.total_retries, self.own_steps)


def run_pauli_fix(
    state: FockState,
    qubit: int,
    axis: str,
    rng: np.random.Generator | None = None,
    forced: list[int] | None = None,
    correction_mode: str = "measured",
) -> ProtocolRun:
    """X_j or Z_j by measure-until-flip: open with sigma_x^(3), repeat the
    (sigma_alpha^(j) sigma_z^(3), sigma_x^(3)) pair until the closing x3
    outcome flips, then reinitialize the ancilla with a z3 measurement."""
    if axis not in ("x", "z") or qubit not in (1, 2):
        raise ValueError(f"pauli fix needs axis x/z and qubit 1/2")
    ex = _Executor(state, rng, forced, correction_mode)
    opening = ex.measure_free(X3)
    pair = XZ[qubit] if axis == "x" else ZZ[qubit]
    ex.measure_until_flip(pair, opening)
    ex.measure_free(Z3)
    return ex.finish(f"pauli-{axis}{qubit}")


def run_hadamard(
    state: FockState,
    qubit: int,
    rng: np.random.Generator | None = None,
    forced: list[int] | None = None,
    correction_mode: str = "measured",
) -> ProtocolRun:
    """Hadamard on logical qubit j via the 5-measurement sequence."""
    if qubit not in (1, 2):
        raise ValueError("hadamard acts on qubit 1 or 2")
    ex = _Executor(state, rng, forced, correction_mode)
    s1 = ex.measure_free(X3)
    s2 = ex.measure_free(XZ[qubit])
    s3 = ex.measure_free(ZZ_PAPER[qubit])
    s4 = ex.measure_free(X3)
    ex.measure_free(Z3)
    if s2 == -s3 and s1 == -s4:
        ex.apply_correction("1")
    elif s2 == s3 and s1 == -s4:
        ex.apply_correction(f"z{qubit}")
        ex.apply_correction(f"x{qubit}")
    elif s2 == s3 and s1 == s4:
        ex.apply_correction(f"x{qubit}")
    else:
        ex.apply_correction(f"z{qubit}")
    return ex.finish(f"hadamard{qubit}")


def run_phase(
    state: FockState,
    qubit: int,
    rng: np.random.Generator | None = None,
    forced: list[int] | None = None,
    correction_mode: str = "measured",
) -> ProtocolRun:
    """Phase gate (diag(1, i) up to global phase) via 3 measurements."""
    if qubit not in (1, 2):
        raise ValueError("phase acts on qubit 1 or 2")
    ex = _Executor(state, rng, forced, correction_mode)
    s1 = ex.measure_free(X3)
    s2 = ex.measure_free(ZY[qubit])
    s3 = ex.measure_free(Z3)
    if s1 * s2 * s3 == -1:
        ex.apply_correction(f"z{qubit}")
    else:
        ex.apply_correction("1")
    return ex.finish(f"phase{qubit}")


def run_cnot(
    state: FockState,
    rng: np.random.Generator | None = None,
    forced: list[int] | None = None,
    correction_mode: str = "measured",
) -> ProtocolRun:
    """CNOT with qubit 1 the control and qubit 2 the target."""
    ex = _Executor(state, rng, forced, correction_mode)
    s1 = ex.measure_free(CNOT_STEPS[0])
    s2 = ex.measure_free(CNOT_STEPS[1])
    s3 = ex.measure_free(CNOT_STEPS[2])
    s4 = ex.measure_free(CNOT_STEPS[3])
    a, b = s1 * s3, s2 * s4
    if a == -1 and b == 1:
        ex.apply_correction("1")
    elif a == 1 and b == 1:
        ex.apply_correction("x2")
    elif a == 1 and b == -1:
        ex.apply_correction("z1")
    else:
        ex.apply_correction("z1")
        ex.apply_correction("x2")
    return ex.finish("cnot")


def run_tgate(
    state: FockState,
    qubit: int,
    rng: np.random.Generator | None = None,
    forced: list[int] | None = None,
    correction_mode: str = "measured",
) -> ProtocolRun:
    """T-gate consuming a magic-state ancilla
    |M> = (e^{-i pi/8}|0> + e^{i pi/8}|1>)/sqrt(2) on qubit 3."""
    if qubit not in (1, 2):
        raise ValueError("tgate acts on qubit 1 or 2")
    ex = _Executor(state, rng, forced, correction_mode)
    s1 = ex.measure_free(ZZ[qubit])
    s2 = ex.measure_free(X3)
    ex.measure_free(Z3)
    if s1 == 1 and s2 == 1:
        ex.apply_correction("1")
    elif s1 == 1 and s2 == -1:
        ex.apply_correction(f"z{qubit}")
    elif s1 == -1 and s2 == 1:
        ex.apply_correction(f"p{qubit}")
    else:
        ex.apply_correction(f"z{qubit}")
        ex.apply_correction(f"p{qubit}")
    return ex.finish(f"tgate{qubit}")


def magic_state() -> np.ndarray:
    """Ancilla amplitudes of the magic state consumed by the T-gate."""
    return np.array([np.exp(-1j * np.pi / 8), np.exp(1j * np.pi / 8)]) / np.sqrt(2)


def run_protocol(
    protocol: str,
    state: FockState,
    rng: np.random.Generator | None = None,
    forced: list[int] | None = None,
    correction_mode: str = "measured",
) -> ProtocolRun:
    """Dispatch by protocol id (see PROTOCOL_IDS)."""
    if protocol.startswith("pauli-"):
        axis, qubit = protocol[6], int(protocol[7])
        return run_pauli_fix(state, qubit, axis, rng, forced, correction_mode)
    if protocol.startswith("hadamard"):
        return run_hadamard(state, int(protocol[-1]), rng, forced, correction_mode)
    if protocol.startswith("phase"):
        return run_phase(state, int(protocol[-1]), rng, forced, correction_mode)
    if protocol == "cnot":
        return run_cnot(state, rng, forced, correction_mode)
    if protocol.startswith("tgate"):
        return run_tgate(state, int(protocol[-1]), rng, forced, correction_mode)
    raise ValueError(f"unknown protocol id {protocol!r}")


def free_outcome_count(protocol: str) -> int:
    """Number of free outcomes enumerated per branch.  Forced-until-flip
    loops contribute their success-round pair only (failed rounds act as
    the identity and merely repeat)."""
    if protocol.startswith("pauli-"):
        return 3   # opening x3, pair mid outcome, final z3 (closing x3 forced)
    if protocol.startswith("hadamard"):
        return 5
    if protocol.startswith("phase") or protocol.startswith("tgate"):
        return 3
    if protocol == "cnot":
        return 4
    raise ValueError(f"unknown protocol id {protocol!r}")


def logical_fidelity(
    state_in: FockState, run: ProtocolRun, target: GateSpec
) -> float:
    """Global-phase-invariant fidelity of the run against the target gate.

    The input's logical content (qubits 1, 2) is read off at the input
    ancilla configuration; the output's at the ancilla eigenstate the run
    ends in.  Both 4-vectors are compared after applying the target.
    """
    dec_in = decode_logical(state_in)
    # collapse the ancilla index: input may have the ancilla in superposition
    psi_in = dec_in.reshape(4, 2)
    dec_out = decode_logical(run.state)
    anc = mj.expectation(run.state, pauli("z", 3))
    if abs(abs(anc) - 1) > 1e-9:
        raise ValueError("run did not end with the ancilla in a z eigenstate")
    b3 = 0 if anc > 0 else 1
    phi = dec_out.reshape(4, 2)[:, b3]
    # target acts on the logical pair for any ancilla branch;
    # overlap maximized over the ancilla branch phases is the sum in quadrature
    tgt = target.matrix @ psi_in
    num = np.linalg.norm(phi.conj() @ tgt)
    den = np.linalg.norm(phi) * np.linalg.norm(tgt)
    if den < 1e-14:
        return 0.0
    return float(num / den)


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
    p < 1e-14) are skipped.  In `measured` correction mode an rng drives
    the free outcomes inside the correction sub-protocols.
    """
    k = free_outcome_count(protocol)
    target = GATE_TARGETS[protocol]
    worst = 1.0
    probs: dict[tuple[int, ...], float] = {}
    reachable = 0
    for signs in itertools.product((1, -1), repeat=k):
        for state in inputs:
            if correction_mode == "measured":
                sub_rng = np.random.default_rng(
                    rng.integers(2**63) if rng is not None else 0)
            else:
                sub_rng = None
            try:
                run = run_protocol(protocol, state, rng=sub_rng,
                                   forced=list(signs),
                                   correction_mode=correction_mode)
            except ValueError as err:
                if "incompatible forced outcome" in str(err):
                    continue
                raise
            reachable += 1
            probs[signs] = probs.get(signs, 0.0) + run.branch_probability
            worst = min(worst, logical_fidelity(state, run, target))
    return BranchReport(
        protocol=protocol,
        n_branches=2**k,
        n_reachable=reachable,
        min_fidelity=worst,
        branch_probabilities=probs,
        covered=True,   # every run above selected exactly one correction row
    )


def random_logical_inputs(
    protocol: str, n: int, rng: np.random.Generator,
) -> list[FockState]:
    """Random product inputs for a protocol: Haar-ish random qubits 1-2, the
    ancilla in the magic state for a T-gate and in |0> otherwise."""
    if protocol not in PROTOCOL_IDS:
        raise ValueError(f"unknown protocol id {protocol!r}")
    anc = magic_state() if protocol.startswith("tgate") else [1.0, 0.0]
    out = []
    for _ in range(n):
        qs = []
        for _q in range(2):
            v = rng.normal(size=2) + 1j * rng.normal(size=2)
            qs.append(v / np.linalg.norm(v))
        out.append(encode_logical(qs[0], qs[1], anc))
    return out
