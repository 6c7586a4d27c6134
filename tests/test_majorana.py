import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cornerlab import fock
from cornerlab import majorana as mj
from cornerlab.majorana import (
    ALL_LABELS,
    DIM,
    IDENTITY,
    MajoranaString,
    TOTAL_PARITY,
    encode_logical,
    expectation,
    format_string,
    g,
    measure,
    multiply,
    parse_string,
    pauli,
    apply,
    string,
    to_matrix,
)
from cornerlab.protocols import GATES

strings_st = st.builds(
    string,
    st.sampled_from([1, 1j, -1, -1j]),
    st.lists(st.sampled_from(ALL_LABELS), max_size=6),
)


def rand_qubit(rng):
    v = rng.normal(size=2) + 1j * rng.normal(size=2)
    return v / np.linalg.norm(v)


def test_labels():
    assert len(ALL_LABELS) == 8
    assert [l.index for l in ALL_LABELS] == list(range(8))
    with pytest.raises(ValueError):
        g("0", 5)
    with pytest.raises(ValueError):
        g("tau", 1)


def test_canonicalization():
    a = g("0", 1)
    s = string(1, [a, a])
    assert s == IDENTITY
    s2 = string(1, [g("0", 2), g("0", 1)])       # swap costs a sign
    assert s2.phase == -1 and s2.factors == (0, 1)
    assert str(string(1j, [g("0", 1), g("0", 2)]))


GAMMAS = [m for k in range(4) for m in fock.majorana_pair(4, k)]


def test_to_matrix_matches_jordan_wigner_products():
    # every mask and phase, in label order and (built through `string`,
    # so `multiply` reorders it) in reverse label order
    for mask in range(2 ** 8):
        for p in range(4):
            s = MajoranaString(p, mask)
            forward = (1j ** p) * np.eye(DIM, dtype=complex)
            backward = forward.copy()
            for a in s.factors:
                forward = forward @ GAMMAS[a]
            for a in reversed(s.factors):
                backward = backward @ GAMMAS[a]
            assert np.array_equal(to_matrix(s), forward)
            rev = string(1j ** p, [ALL_LABELS[a] for a in reversed(s.factors)])
            assert np.array_equal(to_matrix(rev), backward)


def test_multiply_exhaustive():
    unit = [MajoranaString(0, mask) for mask in range(2 ** 8)]
    mats = np.array([to_matrix(s) for s in unit])
    for a in unit:
        prods = [multiply(a, b) for b in unit]
        got = (np.array([1j ** s.phase_power for s in prods])[:, None, None]
               * mats[[s.mask for s in prods]])
        assert np.array_equal(got, mats[a.mask] @ mats)


def test_apply_acts_on_columns(rng):
    cols = rng.normal(size=(DIM, 3)) + 1j * rng.normal(size=(DIM, 3))
    for mask in range(2 ** 8):
        for p in range(4):
            s = MajoranaString(p, mask)
            assert np.abs(apply(s, cols) - to_matrix(s) @ cols).max() < 1e-15
            assert np.abs(apply(s, cols[:, 0])
                          - to_matrix(s) @ cols[:, 0]).max() < 1e-15


def test_logical_basis_is_exact():
    for vec in mj._logical_basis().values():
        nonzero = vec[vec != 0]
        assert nonzero.size == 1
        assert nonzero[0] in (1, -1, 1j, -1j)


def test_anticommutators_exact():
    gam = [to_matrix(string(1, [l])) for l in ALL_LABELS]
    for a in range(8):
        for b in range(8):
            anti = gam[a] @ gam[b] + gam[b] @ gam[a]
            target = 2 * np.eye(DIM) if a == b else np.zeros((DIM, DIM))
            assert np.abs(anti - target).max() < 1e-14


@given(strings_st, strings_st)
@settings(max_examples=60, deadline=None)
def test_multiply_matches_matrices(a, b):
    prod = multiply(a, b)
    assert np.abs(to_matrix(prod) - to_matrix(a) @ to_matrix(b)).max() < 1e-12


@given(strings_st)
@settings(max_examples=40, deadline=None)
def test_dagger_matches_matrices(s):
    assert np.abs(to_matrix(s.dagger()) - to_matrix(s).conj().T).max() < 1e-12
    assert s.is_hermitian() == bool(
        np.abs(to_matrix(s) - to_matrix(s).conj().T).max() < 1e-12)


def test_sigma_product_example():
    # sz1 * sx1 = (i g01 g02)(i g01 g03) -> i-weighted g02 g03 string
    prod = multiply(pauli("z", 1), pauli("x", 1))
    assert np.abs(to_matrix(prod)
                  - to_matrix(pauli("z", 1)) @ to_matrix(pauli("x", 1))).max() < 1e-14
    assert prod.factors == (g("0", 2).index, g("0", 3).index)


def test_parity_square_and_disjoint_commutation():
    z1, pi34 = pauli("z", 1), string(1, [g("pi", 3), g("pi", 4)])
    assert multiply(z1, z1) == IDENTITY
    ab = multiply(pauli("z", 1), string(1j, [g("pi", 3), g("pi", 4)]))
    ba = multiply(string(1j, [g("pi", 3), g("pi", 4)]), pauli("z", 1))
    assert ab == ba


def test_pauli_algebra_on_matrices():
    for q in (1, 2, 3):
        x, y, z = (to_matrix(pauli(a, q)) for a in "xyz")
        eye = np.eye(DIM)
        for m in (x, y, z):
            assert np.abs(m @ m - eye).max() < 1e-13
        assert np.abs(x @ z + z @ x).max() < 1e-13
        assert np.abs(x @ y + y @ x).max() < 1e-13
    for qa, qb in itertools.combinations((1, 2, 3), 2):
        for aa, ab in itertools.product("xz", repeat=2):
            ma, mb = to_matrix(pauli(aa, qa)), to_matrix(pauli(ab, qb))
            assert np.abs(ma @ mb - mb @ ma).max() < 1e-13


def test_paulis_commute_with_total_parity():
    ptot = to_matrix(TOTAL_PARITY)
    for q in (1, 2, 3):
        for a in "xyz":
            m = to_matrix(pauli(a, q))
            assert np.abs(m @ ptot - ptot @ m).max() < 1e-13


def test_encode_basics():
    s = encode_logical([1, 0], [1, 0], [1, 0])
    for q in (1, 2, 3):
        assert expectation(s, pauli("z", q)) == pytest.approx(1.0, abs=1e-12)
    assert expectation(s, TOTAL_PARITY) == pytest.approx(1.0, abs=1e-12)
    # g01 g02 g03 g04 = -(i g01 g02)(i g03 g04), so i g03 g04 reads -1
    assert expectation(s, string(1j, [g("0", 3), g("0", 4)])) \
        == pytest.approx(-1.0, abs=1e-12)

    plus = np.array([1, 1]) / np.sqrt(2)
    s2 = encode_logical(plus, [1, 0], [1, 0])
    assert expectation(s2, pauli("x", 1)) == pytest.approx(1.0, abs=1e-12)

    s3 = encode_logical([1, 0], [1, 0], [0, 1])
    assert expectation(s3, pauli("z", 3)) == pytest.approx(-1.0, abs=1e-12)
    assert expectation(s3, IDENTITY) == pytest.approx(1.0, abs=1e-12)


def test_encode_rejects_unnormalized():
    with pytest.raises(ValueError, match="normalized"):
        encode_logical([1, 1], [1, 0], [1, 0])


def test_encode_round_trip(rng):
    for _ in range(20):
        qs = [rand_qubit(rng) for _ in range(3)]
        state = encode_logical(*qs)
        assert expectation(state, TOTAL_PARITY) == pytest.approx(1.0, abs=1e-10)
        for idx, q in enumerate(qs, start=1):
            bloch = {
                "x": 2 * np.real(np.conj(q[0]) * q[1]),
                "y": 2 * np.imag(np.conj(q[0]) * q[1]),
                "z": abs(q[0]) ** 2 - abs(q[1]) ** 2,
            }
            for axis, want in bloch.items():
                got = expectation(state, pauli(axis, idx))
                assert got == pytest.approx(want, abs=1e-12)


def test_measure_eigenstate(rng):
    s = encode_logical([1, 0], [1, 0], [1, 0])
    for res in (measure(s, pauli("z", 1), force=+1),
                measure(s, pauli("z", 1), rng=rng)):
        assert res.outcome == 1
        assert res.probability == pytest.approx(1.0, abs=1e-12)
        assert np.abs(res.post_state.amplitudes - s.amplitudes).max() < 1e-12
    with pytest.raises(mj.ImpossibleOutcome, match="incompatible"):
        measure(s, pauli("z", 1), force=-1)
    assert issubclass(mj.ImpossibleOutcome, ValueError)


def test_measure_superposition(rng):
    s = encode_logical([1, 0], [1, 0], [1, 0])
    res = measure(s, pauli("x", 1), force=+1)
    assert res.probability == pytest.approx(0.5, abs=1e-12)
    res2 = measure(s, pauli("x", 1), force=-1)
    assert res2.probability == pytest.approx(0.5, abs=1e-12)
    # sample mode draws the Born statistics: +1 half the time on |+>
    plus = encode_logical(np.array([1, 1]) / np.sqrt(2), [1, 0], [1, 0])
    n = 10_000
    count = sum((1 + measure(plus, pauli("z", 1), rng=rng).outcome) // 2
                for _ in range(n))
    assert abs(count - n / 2) < 3 * 0.5 * np.sqrt(n)


def test_measure_validation(rng):
    s = encode_logical([1, 0], [1, 0], [1, 0])
    with pytest.raises(ValueError, match="parity"):
        measure(s, string(1, [g("0", 1), g("0", 2)]), force=1)   # non-Hermitian
    with pytest.raises(ValueError, match="exactly one"):
        measure(s, pauli("z", 1))
    with pytest.raises(ValueError, match="exactly one"):
        measure(s, pauli("z", 1), rng=rng, force=1)


def test_measure_non_hermitian_raises_every_call(rng):
    # the Hermitian check is cached per string; a failed check is not, so
    # every call on a non-Hermitian string raises, in both modes
    s = encode_logical([1, 0], [1, 0], [1, 0])
    bad = string(1, [g("0", 1), g("pi", 2)])
    assert not bad.is_hermitian()
    for _ in range(3):
        for kw in ({"force": 1}, {"force": -1}, {"rng": rng}):
            with pytest.raises(ValueError, match="not a Hermitian parity"):
                measure(s, bad, **kw)
    assert measure(s, pauli("z", 1), force=1).outcome == 1


def test_measure_rejects_non_finite_post_state():
    # the post-state skips FockState's checks; its norm is still guarded
    state = mj.FockState(np.eye(DIM, dtype=complex)[0])
    state.amplitudes = np.full(DIM, np.nan, dtype=complex)
    with pytest.raises(ValueError, match="not finite and positive"):
        measure(state, pauli("z", 1), force=1)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_measure_idempotence_and_sector(seed):
    rng = np.random.default_rng(seed)
    state = encode_logical(rand_qubit(rng), rand_qubit(rng), rand_qubit(rng))
    paritites = [pauli(a, q) for a in "xyz" for q in (1, 2, 3)]
    parity = paritites[int(rng.integers(len(paritites)))]
    first = measure(state, parity, rng=rng)
    again = measure(first.post_state, parity, rng=rng)
    assert again.outcome == first.outcome
    assert again.probability == pytest.approx(1.0, abs=1e-12)
    assert expectation(first.post_state, TOTAL_PARITY) \
        == pytest.approx(1.0, abs=1e-10)
    assert np.linalg.norm(first.post_state.amplitudes) == pytest.approx(1.0, abs=1e-12)


def _even_state(rng):
    """Seeded random state of the even total-parity sector."""
    v = rng.normal(size=DIM) + 1j * rng.normal(size=DIM)
    v = v + to_matrix(TOTAL_PARITY) @ v
    return mj.FockState(v / np.linalg.norm(v))


def test_measure_matches_projector_reference():
    # reference: the projector (1 +- S)/2 as a matrix, normalised by
    # np.linalg.norm; every parity string a gate measures, both outcomes
    parities = {s for gate in GATES.values() for s in gate.steps}
    assert len(parities) == 11
    rng = np.random.default_rng(16)
    for parity in sorted(parities, key=lambda s: (s.mask, s.phase_power)):
        mat = to_matrix(parity)
        for _ in range(4):
            state = _even_state(rng)
            for sign in (+1, -1):
                proj = (state.amplitudes + sign * mat @ state.amplitudes) / 2
                want_p = np.linalg.norm(proj) ** 2
                res = measure(state, parity, force=sign)
                assert res.outcome == sign
                assert abs(res.probability - want_p) < 1e-14
                assert np.abs(res.post_state.amplitudes
                              - proj / np.linalg.norm(proj)).max() < 1e-14


def test_measure_rare_outcome_keeps_unit_norm():
    # an outcome of probability 1e-10: the post-state is normalised by its
    # exact norm, so it stays unit to 1e-12 (2 sqrt(p) would miss by ~eps/p)
    rng = np.random.default_rng(7)
    parity = pauli("x", 2)
    mat = to_matrix(parity)
    psi = _even_state(rng).amplitudes
    plus, minus = (psi + mat @ psi) / 2, (psi - mat @ psi) / 2
    plus, minus = plus / np.linalg.norm(plus), minus / np.linalg.norm(minus)
    state = mj.FockState(np.sqrt(1 - 1e-10) * plus + np.sqrt(1e-10) * minus)
    res = measure(state, parity, force=-1)
    assert res.probability == pytest.approx(1e-10, rel=1e-5)
    post = res.post_state.amplitudes
    assert abs(np.linalg.norm(post) - 1) < 1e-12
    assert abs(np.vdot(minus, post)) == pytest.approx(1.0, abs=1e-9)
    assert np.abs(mat @ post + post).max() < 1e-9


@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
def test_fock_state_rejects_non_finite(bad):
    with pytest.raises(ValueError, match="not normalized"):
        mj.FockState(np.full(DIM, bad, dtype=complex))
    amp = np.zeros(DIM, dtype=complex)
    amp[0], amp[3] = 1, bad
    with pytest.raises(ValueError, match="not normalized"):
        mj.FockState(amp)


def test_probabilities_sum_to_one(rng):
    state = encode_logical(rand_qubit(rng), rand_qubit(rng), rand_qubit(rng))
    p = measure(state, pauli("y", 2), force=1).probability
    q = measure(state, pauli("y", 2), force=-1).probability
    assert p + q == pytest.approx(1.0, abs=1e-12)


def test_total_parity_on_even_sector(rng):
    state = encode_logical(rand_qubit(rng), rand_qubit(rng), rand_qubit(rng))
    assert expectation(state, TOTAL_PARITY) == pytest.approx(1.0, abs=1e-12)


def test_parse_and_format():
    s = parse_string("i g01 g02")
    assert s == pauli("z", 1)
    assert parse_string(format_string(s)) == s
    four = parse_string("g01 g02 g03 g04")
    assert four == pauli("z", 3)
    with pytest.raises(ValueError):
        parse_string("i g09")
