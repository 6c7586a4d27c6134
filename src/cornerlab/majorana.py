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

Strings act as signed permutations.  On the Jordan-Wigner Fock space
(basis index bit k, most significant first, is the occupation of mode k)
label index a = 2k is gamma_A of mode k and a = 2k + 1 its gamma_B, with
    gamma_{2k} = Z...Z X_k,    gamma_{2k+1} = i Z...Z X_k Z_k
(Z on the modes before k), so every string is a Pauli string
i^p X^x Z^z with (S psi)[i] = i^p (-1)^{|(i^x) & z|} psi[i^x]
(Bravyi & Kitaev, Ann. Phys. 298, 210 (2002)).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

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


@dataclass(frozen=True)
class MajoranaString:
    """phase * product of Majorana operators, phase in {1, i, -1, -i}.

    Stored as a power of i and an 8-bit mask whose bit a is set exactly
    when gamma_a is a factor; the factors multiply in increasing label
    order.  Construct via `string(phase, labels)` or the module-level Pauli
    constants.
    """

    phase_power: int     # phase = i**phase_power, 0..3
    mask: int            # bit a <=> label index a is a factor

    @property
    def phase(self) -> complex:
        return 1j ** self.phase_power

    @property
    def factors(self) -> tuple[int, ...]:
        """Label indices of the factors, increasing."""
        return tuple(a for a in range(N_MAJORANA) if self.mask >> a & 1)

    @property
    def labels(self) -> tuple[MajoranaLabel, ...]:
        return tuple(ALL_LABELS[i] for i in self.factors)

    def __len__(self):
        return self.mask.bit_count()

    def dagger(self) -> "MajoranaString":
        # reversal of l factors costs (-1)**(l(l-1)/2); conjugate the phase
        l = len(self)
        rev = (l * (l - 1) // 2) % 2
        return MajoranaString((-self.phase_power + 2 * rev) % 4, self.mask)

    def is_hermitian(self) -> bool:
        l = len(self)
        return (l * (l - 1) // 2) % 2 == self.phase_power % 2

    def __repr__(self):
        pre = {0: "", 1: "i ", 2: "- ", 3: "-i "}[self.phase_power % 4]
        body = " ".join(repr(l) for l in self.labels) if self.mask else "1"
        return (pre + body).strip()


def multiply(a: MajoranaString, b: MajoranaString) -> MajoranaString:
    """Product a*b: each factor j of b anticommutes past the factors of a
    above j, and equal factors cancel (gamma^2 = 1)."""
    swaps = sum((a.mask >> (j + 1)).bit_count()
                for j in range(N_MAJORANA) if b.mask >> j & 1)
    return MajoranaString((a.phase_power + b.phase_power + 2 * swaps) % 4,
                          a.mask ^ b.mask)


def string(phase: complex, labels) -> MajoranaString:
    """MajoranaString from a unit phase in {1, i, -1, -i} and labels
    (MajoranaLabel instances, in any order, repeats allowed)."""
    table = {1: 0, 1j: 1, -1: 2, -1j: 3}
    key = complex(phase)
    power = None
    for val, p in table.items():
        if abs(key - val) < 1e-12:
            power = p
    if power is None:
        raise ValueError(f"phase must be a fourth root of unity, got {phase}")
    out = MajoranaString(power, 0)
    for l in labels:
        out = multiply(out, MajoranaString(0, 1 << l.index))
    return out


IDENTITY = MajoranaString(0, 0)

# --- action on the 16-dim Fock space (Jordan-Wigner) -----------------------

@lru_cache(maxsize=None)
def _pauli_form(s: MajoranaString) -> tuple[np.ndarray, np.ndarray]:
    """(perm, coeff) with (S psi)[i] = coeff[i] psi[perm[i]], from the Pauli
    form i^p X^x Z^z of the string: perm = i ^ x and
    coeff = i^p (-1)^{|(i^x) & z|}."""
    p, x, z = s.phase_power, 0, 0
    for a in s.factors:
        bit = 1 << (N_MODES - 1 - a // 2)          # mode a // 2
        # gamma_a = i^(a%2) X^bit times Z on the earlier modes, and on its
        # own mode for the B member of the pair.  No smaller factor has Z
        # on this mode, so X^bit commutes past the Z^z collected so far.
        p += a % 2
        x ^= bit
        z ^= (DIM - 2 * bit) | (bit if a % 2 else 0)
    perm = np.arange(DIM) ^ x
    coeff = 1j ** (p % 4) * np.array([(-1.0) ** (int(i) & z).bit_count()
                                      for i in perm])
    perm.setflags(write=False)
    coeff.setflags(write=False)
    return perm, coeff


@lru_cache(maxsize=None)
def _parity_form(s: MajoranaString) -> tuple[np.ndarray, np.ndarray]:
    """`_pauli_form`, once per Hermitian string; others raise, every call."""
    if not s.is_hermitian():
        raise ValueError(f"{s!r} is not a Hermitian parity string")
    return _pauli_form(s)


def apply(s: MajoranaString, psi: np.ndarray) -> np.ndarray:
    """S psi for a 16-vector, or S applied to each column of a 16-row array."""
    perm, coeff = _pauli_form(s)
    return (coeff * psi[perm].T).T


def to_matrix(s: MajoranaString) -> np.ndarray:
    """16x16 matrix of the string."""
    return apply(s, np.eye(DIM))


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
        n = math.sqrt(np.vdot(amp, amp).real)
        if not abs(n - 1.0) <= 1e-12:          # also rejects nan and inf
            raise ValueError(f"state not normalized: |psi| = {n}")
        self.amplitudes = amp


@lru_cache(maxsize=1)
def _logical_basis() -> dict[tuple[int, int, int], np.ndarray]:
    """Even-sector basis |b1 b2 b3> with sz_j = (-1)**b_j: |000> is the
    basis state on which TOTAL_PARITY and the three (diagonal) sigma_z
    strings all read +1, and the sigma_x strings build the others."""
    diagonals = [apply(s, np.ones(DIM))
                 for s in (TOTAL_PARITY, *(pauli("z", q) for q in (1, 2, 3)))]
    hits = np.flatnonzero(np.all(np.array(diagonals) == 1, axis=0))
    if hits.size != 1:
        raise RuntimeError(f"|000> not unique: got {hits.size} states")
    v = np.zeros(DIM, dtype=complex)
    v[hits[0]] = 1
    out = {}
    for bits in itertools.product((0, 1), repeat=3):
        vec = v
        for q, b in enumerate(bits, start=1):
            if b:
                vec = apply(pauli("x", q), vec)
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


# row b1 b2 b3 (read in binary) is the conjugated basis vector <b1 b2 b3|
_DECODE_ROWS = np.array([v.conj() for v in _logical_basis().values()])


def decode_logical(state: FockState) -> np.ndarray:
    """Overlaps <b1 b2 b3|psi> as an array indexed [b1, b2, b3], from one
    product of the 8x16 conjugated basis rows with the amplitudes."""
    return (_DECODE_ROWS @ state.amplitudes).reshape(2, 2, 2)


def expectation(state: FockState, s: MajoranaString) -> complex:
    """<psi| S |psi>; real for Hermitian strings."""
    val = complex(np.vdot(state.amplitudes, apply(s, state.amplitudes)))
    if s.is_hermitian():
        return val.real
    return val


class ImpossibleOutcome(ValueError):
    """A forced measurement outcome whose probability is below 1e-14."""


@dataclass
class MeasureResult:
    outcome: int
    post_state: FockState
    probability: float


def _measure_amplitudes(psi, perm, coeff, rng, force, parity):
    """The kernel of `measure` and of the protocol runs, on raw amplitudes
    and the (perm, coeff) form of the Hermitian `parity`: the outcome drawn
    or forced (+-1, unchecked), the unit post-state and its probability."""
    post = coeff * psi[perm]                # S psi, made psi +- S psi in place
    if force is None:
        outcome = 1 if 2 * rng.random() < 1 + np.vdot(psi, post).real else -1
    else:
        outcome = force
    if outcome == 1:
        post += psi
    else:
        np.subtract(psi, post, out=post)
    norm_sq = float(np.vdot(post, post).real)
    prob = min(norm_sq / 4, 1.0)
    if force is not None and prob < 1e-14:
        raise ImpossibleOutcome(
            f"incompatible forced outcome {force:+d} for {parity!r} "
            f"(probability {prob:.3e})"
        )
    norm = math.sqrt(norm_sq)
    if not 0 < norm < math.inf:            # also rejects nan
        raise ValueError(f"post-measurement norm {norm} is not finite and positive")
    post /= norm
    return outcome, post, prob


def _unit_state(amplitudes: np.ndarray) -> FockState:
    """FockState around amplitudes of unit norm by construction: no checks."""
    out = FockState.__new__(FockState)
    out.amplitudes = amplitudes
    return out


def measure(
    state: FockState,
    parity: MajoranaString,
    rng: np.random.Generator | None = None,
    force: int | None = None,
) -> MeasureResult:
    """Born-rule measurement of a Hermitian +-1 parity string.

    Exactly one of `rng` (sample mode: one `rng.random()` against
    P(+1) = (1 + Re<psi|S psi>)/2) and `force` (condition on an outcome)
    must be given.  Then one overlap <post|post> = 4 P(outcome) of the
    post-state psi +- S psi (a FockState has unit norm) gives both the
    probability, to eps relative even when p ~ 1e-10, and the exact norm
    it is divided by.  Forcing p < 1e-14 raises `ImpossibleOutcome`.  The
    protocol runs call the same kernel, `_measure_amplitudes`.
    """
    perm, coeff = _parity_form(parity)
    if (rng is None) == (force is None):
        raise ValueError("pass exactly one of rng= or force=")
    if force is not None and force not in (+1, -1):
        raise ValueError(f"forced outcome must be +-1, got {force}")
    outcome, post, prob = _measure_amplitudes(state.amplitudes, perm, coeff,
                                              rng, force, parity)
    return MeasureResult(outcome, _unit_state(post), prob)


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
