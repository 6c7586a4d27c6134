"""Exact algebra and state space of the eight corner Majorana operators.

Labels: gamma_{0,j} and gamma_{pi,j} for corners j = 1..4, ordered
(0,1) (0,2) (0,3) (0,4) (pi,1) (pi,2) (pi,3) (pi,4).

Fermion pairing convention: modes are built from consecutive label pairs,
c_k = (gamma_A + i gamma_B)/2 with (A, B) = ((0,1),(0,2)), ((0,3),(0,4)),
((pi,1),(pi,2)), ((pi,3),(pi,4)), Jordan-Wigner ordered in that mode
order.  With this choice i*gamma_A*gamma_B = 2n - 1, so the sigma_z
operators of all three encoded qubits are diagonal in the occupation
basis, and parity +1 of a pair marks the presence of the nonlocal fermion.

Qubit encoding (products of time-periodic operators reduce to the static
algebra; expectation values on the corner-mode subspace are constant):
    sz1 = i g01 g02      sx1 = i g01 g03
    sz2 = i gp1 gp2      sx2 = i gp1 gp3
    sz3 = g01 g02 g03 g04    sx3 = i g04 gp4
All computation is restricted to the even total-parity sector
g01 g02 g03 g04 gp1 gp2 gp3 gp4 = +1.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from cornerlab import fock

SPECIES = ("0", "pi")
N_MAJORANA = 8
N_MODES = 4
DIM = 16


@dataclass(frozen=True, order=True)
class MajoranaLabel:
    """One of the eight corner Majorana operators."""

    species_index: int   # 0 -> quasienergy-zero mode, 1 -> pi mode
    corner: int          # 1..4

    def __post_init__(self):
        if self.species_index not in (0, 1):
            raise ValueError(f"bad species index {self.species_index}")
        if not 1 <= self.corner <= 4:
            raise ValueError(f"corner must be 1..4, got {self.corner}")

    @property
    def species(self) -> str:
        return SPECIES[self.species_index]

    @property
    def index(self) -> int:
        """Position in the canonical label order, 0..7."""
        return 4 * self.species_index + (self.corner - 1)

    def __repr__(self):
        return f"g{'p' if self.species_index else '0'}{self.corner}"


def g(species: str, corner: int) -> MajoranaLabel:
    """Label constructor: g('0', 1) or g('pi', 4)."""
    if species not in SPECIES:
        raise ValueError(f"species must be '0' or 'pi', got {species!r}")
    return MajoranaLabel(SPECIES.index(species), corner)


ALL_LABELS = tuple(g(s, c) for s in SPECIES for c in range(1, 5))


def _canonicalize(factors: tuple[int, ...]) -> tuple[int, tuple[int, ...]]:
    """Sort Majorana indices, tracking the anticommutation sign and
    contracting equal neighbors (gamma^2 = 1).  Returns (sign_power, sorted)
    with sign = (-1)**sign_power."""
    seq = list(factors)
    swaps = 0
    # insertion sort counting transpositions of distinct elements
    for i in range(1, len(seq)):
        j = i
        while j > 0 and seq[j - 1] > seq[j]:
            seq[j - 1], seq[j] = seq[j], seq[j - 1]
            swaps += 1
            j -= 1
    out = []
    for x in seq:
        if out and out[-1] == x:
            out.pop()
        else:
            out.append(x)
    return swaps % 2, tuple(out)


@dataclass(frozen=True)
class MajoranaString:
    """phase * product of Majorana operators, phase in {1, i, -1, -i}.

    Stored canonically: factors strictly increasing in the label order,
    phase as a power of i.  Construct via `string(phase, labels)` or the
    module-level Pauli constants; raw construction skips canonicalization.
    """

    phase_power: int                 # phase = i**phase_power, 0..3
    factors: tuple[int, ...]         # canonical label indices, 0..7

    @property
    def phase(self) -> complex:
        return 1j ** self.phase_power

    @property
    def labels(self) -> tuple[MajoranaLabel, ...]:
        return tuple(ALL_LABELS[i] for i in self.factors)

    def __len__(self):
        return len(self.factors)

    def dagger(self) -> "MajoranaString":
        # reversal of l factors costs (-1)**(l(l-1)/2); conjugate the phase
        l = len(self.factors)
        rev = (l * (l - 1) // 2) % 2
        return MajoranaString((-self.phase_power + 2 * rev) % 4, self.factors)

    def is_hermitian(self) -> bool:
        l = len(self.factors)
        return (l * (l - 1) // 2) % 2 == self.phase_power % 2

    def is_parity(self) -> bool:
        """Hermitian with square one: the measurable strings."""
        return self.is_hermitian()

    def __neg__(self) -> "MajoranaString":
        return MajoranaString((self.phase_power + 2) % 4, self.factors)

    def __repr__(self):
        pre = {0: "", 1: "i ", 2: "- ", 3: "-i "}[self.phase_power % 4]
        body = " ".join(repr(l) for l in self.labels) if self.factors else "1"
        return (pre + body).strip()


def string(phase: complex, labels) -> MajoranaString:
    """Canonical MajoranaString from a unit phase in {1, i, -1, -i} and labels
    (MajoranaLabel instances, in any order, repeats allowed)."""
    table = {1: 0, 1j: 1, -1: 2, -1j: 3}
    key = complex(phase)
    power = None
    for val, p in table.items():
        if abs(key - val) < 1e-12:
            power = p
    if power is None:
        raise ValueError(f"phase must be a fourth root of unity, got {phase}")
    sign_pow, canon = _canonicalize(tuple(l.index for l in labels))
    return MajoranaString((power + 2 * sign_pow) % 4, canon)


def multiply(a: MajoranaString, b: MajoranaString) -> MajoranaString:
    """Canonical product a*b with the anticommutation sign."""
    sign_pow, canon = _canonicalize(a.factors + b.factors)
    return MajoranaString((a.phase_power + b.phase_power + 2 * sign_pow) % 4, canon)


IDENTITY = MajoranaString(0, ())

# --- 16-dim matrix representation (Jordan-Wigner) -------------------------

@lru_cache(maxsize=1)
def _gamma_matrices() -> tuple[np.ndarray, ...]:
    """(A, B) Majorana pairs of the four Jordan-Wigner modes, read-only."""
    gammas = [m for k in range(N_MODES) for m in fock.majorana_pair(N_MODES, k)]
    for m in gammas:
        m.setflags(write=False)
    return tuple(gammas)


def to_matrix(s: MajoranaString) -> np.ndarray:
    """16x16 matrix of the canonical string."""
    gam = _gamma_matrices()
    out = s.phase * np.eye(DIM, dtype=complex)
    for idx in s.factors:
        out = out @ gam[idx]
    return out


# --- qubit encoding --------------------------------------------------------

PAULI_STRINGS: dict[tuple[str, int], MajoranaString] = {
    ("z", 1): string(1j, [g("0", 1), g("0", 2)]),
    ("x", 1): string(1j, [g("0", 1), g("0", 3)]),
    ("z", 2): string(1j, [g("pi", 1), g("pi", 2)]),
    ("x", 2): string(1j, [g("pi", 1), g("pi", 3)]),
    ("z", 3): string(1, [g("0", 1), g("0", 2), g("0", 3), g("0", 4)]),
    ("x", 3): string(1j, [g("0", 4), g("pi", 4)]),
}
for _q in (1, 2, 3):
    # sigma_y = i sigma_x sigma_z
    PAULI_STRINGS[("y", _q)] = multiply(
        string(1j, []), multiply(PAULI_STRINGS[("x", _q)], PAULI_STRINGS[("z", _q)])
    )

TOTAL_PARITY = string(1, list(ALL_LABELS))


def pauli(axis: str, qubit: int) -> MajoranaString:
    return PAULI_STRINGS[(axis, qubit)]


@dataclass
class FockState:
    """State vector on the 4-mode (16-dim) corner-mode Fock space."""

    amplitudes: np.ndarray

    def __post_init__(self):
        amp = np.asarray(self.amplitudes, dtype=complex)
        if amp.shape != (DIM,):
            raise ValueError(f"need {DIM} amplitudes, got shape {amp.shape}")
        n = np.linalg.norm(amp)
        if abs(n - 1.0) > 1e-12:
            raise ValueError(f"state not normalized: |psi| = {n}")
        self.amplitudes = amp

    @property
    def sector(self) -> str:
        p = to_matrix(TOTAL_PARITY)
        val = float(np.vdot(self.amplitudes, p @ self.amplitudes).real)
        if abs(val - 1) < 1e-10:
            return "even"
        if abs(val + 1) < 1e-10:
            return "odd"
        return "mixed"

    def to_json(self) -> str:
        pairs = [[float(a.real), float(a.imag)] for a in self.amplitudes]
        return json.dumps({"amplitudes": pairs})

    @classmethod
    def from_json(cls, text: str) -> "FockState":
        data = json.loads(text)
        amp = np.array([complex(re, im) for re, im in data["amplitudes"]])
        return cls(amp)


@lru_cache(maxsize=1)
def _logical_basis() -> dict[tuple[int, int, int], np.ndarray]:
    """Even-sector basis |b1 b2 b3> with sz_j = (-1)**b_j, built by fixing
    |000> (joint +1 eigenstate, first large amplitude made real positive)
    and applying the sigma_x strings."""
    projectors = [to_matrix(TOTAL_PARITY)] + [
        to_matrix(pauli("z", q)) for q in (1, 2, 3)
    ]
    basis = np.eye(DIM, dtype=complex)
    for p in projectors:
        basis = (basis + p @ basis) / 2
        qmat, rmat = np.linalg.qr(basis)
        keep = np.abs(np.diag(rmat)) > 1e-9
        basis = qmat[:, keep]
    if basis.shape[1] != 1:
        raise RuntimeError(f"|000> not unique: got {basis.shape[1]} states")
    v = basis[:, 0]
    i0 = int(np.argmax(np.abs(v)))
    v = v * np.exp(-1j * np.angle(v[i0]))
    xs = [to_matrix(pauli("x", q)) for q in (1, 2, 3)]
    out = {}
    for bits in itertools.product((0, 1), repeat=3):
        vec = v.copy()
        for q, b in enumerate(bits):
            if b:
                vec = xs[q] @ vec
        out[bits] = vec
    return out


def encode_logical(q1, q2, q3) -> FockState:
    """Even-sector state with the prescribed single-qubit amplitudes
    (each q is a normalized 2-vector in the sigma_z basis)."""
    vecs = []
    for name, q in (("q1", q1), ("q2", q2), ("q3", q3)):
        arr = np.asarray(q, dtype=complex)
        if arr.shape != (2,):
            raise ValueError(f"{name} must be a 2-vector")
        if abs(np.linalg.norm(arr) - 1) > 1e-10:
            raise ValueError(f"{name} is not normalized")
        vecs.append(arr)
    basis = _logical_basis()
    out = np.zeros(DIM, dtype=complex)
    for bits, bvec in basis.items():
        out += vecs[0][bits[0]] * vecs[1][bits[1]] * vecs[2][bits[2]] * bvec
    return FockState(out)


def decode_logical(state: FockState) -> np.ndarray:
    """Overlaps <b1 b2 b3|psi> as an array indexed [b1, b2, b3]."""
    basis = _logical_basis()
    out = np.zeros((2, 2, 2), dtype=complex)
    for bits, bvec in basis.items():
        out[bits] = np.vdot(bvec, state.amplitudes)
    return out


def expectation(state: FockState, s: MajoranaString) -> complex:
    """<psi| S |psi>; real for Hermitian strings."""
    val = complex(np.vdot(state.amplitudes, to_matrix(s) @ state.amplitudes))
    if s.is_hermitian():
        return val.real
    return val


@dataclass
class MeasureResult:
    outcome: int
    post_state: FockState
    probability: float


def measure(
    state: FockState,
    parity: MajoranaString,
    rng: np.random.Generator | None = None,
    force: int | None = None,
) -> MeasureResult:
    """Born-rule measurement of a Hermitian +-1 parity string.

    Exactly one of `rng` (sample mode) and `force` (condition on an outcome)
    must be given.  Forcing an outcome with probability < 1e-14 raises.
    """
    if not parity.is_parity():
        raise ValueError(f"{parity!r} is not a Hermitian parity string")
    if (rng is None) == (force is None):
        raise ValueError("pass exactly one of rng= or force=")
    pm = to_matrix(parity)
    psi = state.amplitudes
    p_plus = float(np.vdot(psi, (psi + pm @ psi)).real) / 2
    p_plus = min(max(p_plus, 0.0), 1.0)
    if force is not None:
        if force not in (+1, -1):
            raise ValueError(f"forced outcome must be +-1, got {force}")
        outcome = force
        prob = p_plus if outcome == 1 else 1 - p_plus
        if prob < 1e-14:
            raise ValueError(
                f"incompatible forced outcome {force:+d} for {parity!r} "
                f"(probability {prob:.3e})"
            )
    else:
        outcome = 1 if rng.random() < p_plus else -1
        prob = p_plus if outcome == 1 else 1 - p_plus
    post = (psi + outcome * (pm @ psi)) / 2
    post = post / np.linalg.norm(post)
    return MeasureResult(outcome, FockState(post), prob)


# --- text form of parity strings (external interface) ----------------------

_TOKEN = {f"g0{c}": g("0", c) for c in range(1, 5)}
_TOKEN.update({f"gp{c}": g("pi", c) for c in range(1, 5)})
_PHASE_TOKEN = {"1": 1, "i": 1j, "-1": -1, "-i": -1j}


def parse_string(text: str) -> MajoranaString:
    """Parse forms like 'i g01 g02' or 'g01 g02 g03 g04'."""
    parts = text.split()
    if not parts:
        raise ValueError("empty string")
    phase = 1
    if parts[0] in _PHASE_TOKEN:
        phase = _PHASE_TOKEN[parts[0]]
        parts = parts[1:]
    labels = []
    for p in parts:
        if p not in _TOKEN:
            raise ValueError(f"unknown Majorana token {p!r}")
        labels.append(_TOKEN[p])
    return string(phase, labels)


def format_string(s: MajoranaString) -> str:
    pre = {0: "", 1: "i", 2: "-1", 3: "-i"}[s.phase_power % 4]
    body = " ".join(repr(l) for l in s.labels)
    return f"{pre} {body}".strip() if body else (pre or "1")
