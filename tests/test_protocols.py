import itertools
import warnings

import numpy as np
import pytest

from cornerlab import majorana as mj
from cornerlab import protocols as pt
from cornerlab.majorana import encode_logical, expectation, pauli
from cornerlab.protocols import (
    GATES,
    PROTOCOL_IDS,
    enumerate_branches,
    logical_fidelity,
    magic_state,
    random_logical_inputs,
    run_cnot,
    run_hadamard,
    run_pauli_fix,
    run_phase,
    run_protocol,
    run_tgate,
)

def test_gate_table():
    assert PROTOCOL_IDS == (
        "pauli-x1", "pauli-x2", "pauli-z1", "pauli-z2", "hadamard1",
        "hadamard2", "phase1", "phase2", "cnot", "tgate1", "tgate2")
    names = {"1", "x1", "x2", "z1", "z2", "p1", "p2"}
    for pid, gate in GATES.items():
        u = gate.target
        assert u.shape == (4, 4)
        assert np.allclose(u @ u.conj().T, np.eye(4), atol=1e-12), pid
        assert pt.free_outcome_count(pid) == len(gate.steps)
        assert all(s.is_hermitian() for s in gate.steps), pid
        rows = {gate.corrections(s) for s in itertools.product(
            (1, -1), repeat=len(gate.steps))}
        assert rows == set(gate.table.values()), pid
        assert all(set(row) <= names for row in rows), pid
        ancilla = magic_state() if pid.startswith("tgate") else [1, 0]
        assert np.array_equal(gate.ancilla, ancilla), pid
    with pytest.raises(ValueError, match="unknown protocol"):
        pt.free_outcome_count("hadamard3")


def test_coverage_needs_every_correction_row():
    for pid in PROTOCOL_IDS:
        assert not enumerate_branches(pid, []).covered
    # |0> on qubit 1 and on the ancilla pins s1 = +1 in the T-gate, so the
    # phase-correcting rows never run although every reachable branch is exact
    zero = encode_logical([1, 0], [1, 0], [1, 0])
    rep = enumerate_branches("tgate1", [zero])
    assert rep.n_reachable == 4 and rep.min_fidelity > 1 - 1e-12
    assert not rep.covered


def fidelity_after(pid, state, rng, **kw):
    run = run_protocol(pid, state, rng=rng, **kw)
    return logical_fidelity(state, run, GATES[pid].target), run


def test_hadamard_truth_table(rng):
    zero = encode_logical([1, 0], [1, 0], [1, 0])
    run = run_hadamard(zero, 1, rng=rng)
    assert logical_fidelity(zero, run, GATES["hadamard1"].target) > 1 - 1e-12
    # explicit state check: qubit 1 ends in |+>
    assert expectation(run.state, pauli("x", 1)) == pytest.approx(1.0, abs=1e-10)


def test_pauli_fix_actions(rng):
    one = encode_logical([0, 1], [1, 0], [1, 0])
    run = run_pauli_fix(one, 1, "x", rng=rng)
    assert expectation(run.state, pauli("z", 1)) == pytest.approx(1.0, abs=1e-10)
    zero = encode_logical([1, 0], [1, 0], [1, 0])
    run = run_pauli_fix(zero, 1, "z", rng=rng)
    assert expectation(run.state, pauli("z", 1)) == pytest.approx(1.0, abs=1e-10)
    assert logical_fidelity(zero, run, GATES["pauli-z1"].target) > 1 - 1e-12


def test_phase_action(rng):
    plus = encode_logical(np.array([1, 1]) / np.sqrt(2), [1, 0], [1, 0])
    run = run_phase(plus, 1, rng=rng)
    assert expectation(run.state, pauli("y", 1)) == pytest.approx(1.0, abs=1e-10)


def test_cnot_truth_table(rng):
    for (b1, b2), want in {(0, 0): (0, 0), (0, 1): (0, 1),
                           (1, 0): (1, 1), (1, 1): (1, 0)}.items():
        state = encode_logical([1 - b1, b1], [1 - b2, b2], [1, 0])
        run = run_cnot(state, rng=rng)
        z1 = expectation(run.state, pauli("z", 1))
        z2 = expectation(run.state, pauli("z", 2))
        assert z1 == pytest.approx(1 - 2 * want[0], abs=1e-10)
        assert z2 == pytest.approx(1 - 2 * want[1], abs=1e-10)


def test_cnot_entangles(rng):
    plus = encode_logical(np.array([1, 1]) / np.sqrt(2), [1, 0], [1, 0])
    run = run_cnot(plus, rng=rng)
    fid = logical_fidelity(plus, run, GATES["cnot"].target)
    assert fid > 1 - 1e-12
    # Bell state: single-qubit expectations vanish, zz correlation is 1
    dec = mj.decode_logical(run.state)
    anc = expectation(run.state, pauli("z", 3))
    b3 = 0 if anc > 0 else 1
    logical = dec.reshape(4, 2)[:, b3]
    rho1 = np.einsum("ab,cb->ac", logical.reshape(2, 2),
                     logical.reshape(2, 2).conj())
    schmidt = np.linalg.eigvalsh(rho1)
    assert np.allclose(schmidt, [0.5, 0.5], atol=1e-10)


def test_tgate_action(rng):
    alpha, beta = 0.6, 0.8
    state = encode_logical([alpha, beta], [1, 0], magic_state())
    run = run_tgate(state, 1, rng=rng)
    assert logical_fidelity(state, run, GATES["tgate1"].target) > 1 - 1e-10
    # identity branch amplitudes: alpha e^{-i pi/8}, beta e^{+i pi/8}
    forced = run_tgate(state, 1, forced=[1, 1, 1], correction_mode="classical")
    dec = mj.decode_logical(forced.state).reshape(4, 2)[:, 0]
    phase = dec[0] / (alpha * np.exp(-1j * np.pi / 8))
    assert abs(abs(phase) - 1) < 1e-10
    assert abs(dec[2] - beta * np.exp(1j * np.pi / 8) * phase) < 1e-10


def test_wrong_resource_state_fails_honestly(rng):
    state = encode_logical([0.6, 0.8], [1, 0], [1, 0])   # z eigenstate, not magic
    worst = 1.0
    for _ in range(6):
        fid, _ = fidelity_after("tgate1", state, rng)
        worst = min(worst, fid)
    assert worst < 1 - 1e-3


@pytest.mark.parametrize("pid, correction_mode", [
    *[pytest.param(pid, "classical", id=pid) for pid in PROTOCOL_IDS],
    *[pytest.param(pid, "measured", id=f"{pid}-measured") for pid in PROTOCOL_IDS],
])
def test_enumerate_all_protocols(pid, correction_mode, rng):
    inputs = random_logical_inputs(pid, 3, rng)
    rep = enumerate_branches(pid, inputs, correction_mode=correction_mode,
                             rng=rng)
    assert rep.min_fidelity >= 1 - 1e-12
    assert rep.covered
    total_prob = sum(rep.branch_probabilities.values()) / len(inputs)
    assert total_prob == pytest.approx(1.0, abs=1e-10)
    # enumeration forces outcome strings of the gate's length; one more raises
    signs = next(iter(rep.branch_probabilities))
    with pytest.raises(ValueError, match="1 forced outcomes left over"):
        run_protocol(pid, inputs[0], forced=[*signs, 1],
                     correction_mode=correction_mode, rng=rng)


def test_overlong_forced_list_raises(rng):
    state = random_logical_inputs("phase1", 1, rng)[0]
    with pytest.raises(ValueError,
                       match="3 forced outcomes left over after the 3 steps"):
        run_phase(state, 1, forced=[1, 1, 1, -1, -1, -1],
                  correction_mode="classical")


@pytest.mark.parametrize("forced, message", [
    ([1, 1], "forced outcome list exhausted"),
    # a z1 correction row: the measured correction would sample first
    ([1, 1, -1, 1], "1 forced outcomes left over after the 3 steps of phase1"),
    ([1, 1, 0], "forced outcome must be \\+-1, got 0"),
    ([True, 1, 1], "forced outcome must be \\+-1, got True"),
    ([1, 1.0, 1], "forced outcome must be \\+-1, got 1.0"),
    ([1, 1, np.True_], "forced outcome must be \\+-1, got (np\\.)?True"),
])
def test_forced_list_checked_before_any_draw(forced, message):
    state = random_logical_inputs("phase1", 1, np.random.default_rng(2))[0]
    rng, copy = np.random.default_rng(3), np.random.default_rng(3)
    with pytest.raises(ValueError, match=message):
        run_phase(state, 1, forced=forced, rng=rng, correction_mode="measured")
    assert rng.bit_generator.state == copy.bit_generator.state


def test_forced_numpy_integers_run_as_ints():
    state = random_logical_inputs("phase1", 1, np.random.default_rng(2))[0]
    run = run_phase(state, 1, forced=list(np.array([1, -1, 1])),
                    correction_mode="classical")
    ref = run_phase(state, 1, forced=[1, -1, 1], correction_mode="classical")
    assert run.outcomes == (1, -1, 1)
    assert all(type(o) is int for o in run.outcomes)
    assert run.state.amplitudes.tobytes() == ref.state.amplitudes.tobytes()


def test_forced_measured_corrections_need_an_rng(monkeypatch):
    state = random_logical_inputs("phase1", 1, np.random.default_rng(2))[0]
    calls = []
    kernel = mj._measure_amplitudes
    monkeypatch.setattr(mj, "_measure_amplitudes",
                        lambda *a: calls.append(a) or kernel(*a))
    # the z1 row runs a measured sub-protocol that samples: refused up front
    with pytest.raises(ValueError, match="need an rng"):
        run_protocol("phase1", state, forced=[1, 1, -1],
                     correction_mode="measured")
    assert calls == []
    # the identity row measures nothing beyond the forced steps
    run = run_protocol("phase1", state, forced=[1, 1, 1],
                       correction_mode="measured")
    assert run.corrections == ["1"] and len(calls) == 3
    # classical corrections draw nothing, so any row runs without an rng
    run_protocol("phase1", state, forced=[1, 1, -1], correction_mode="classical")


def _chain_public_measurements(pid, state, signs):
    """A classical-mode forced run written with public `measure` calls:
    (step probabilities, output amplitudes)."""
    gate = GATES[pid]
    probs = []
    for i, (parity, sign) in enumerate(zip(gate.steps, signs)):
        res = mj.measure(state, parity, force=sign)
        state = res.post_state
        probs.append(res.probability)
        if gate.until_flip and i == 1:      # the closing x3 flips step 0
            state = mj.measure(state, pt.X3, force=-signs[0]).post_state
            probs.append(1.0)
    psi = state.amplitudes
    for name in gate.corrections(signs):
        if name != "1":
            kind, q = name[0], int(name[1])
            psi = ((psi + mj.apply(pt.PHASE_PAIR[q], psi)) / np.sqrt(2)
                   if kind == "p" else mj.apply(pauli(kind, q), psi))
    return probs, psi


def test_executor_and_measure_share_one_kernel():
    rng = np.random.default_rng(12)
    for pid in PROTOCOL_IDS:
        state = random_logical_inputs(pid, 1, rng)[0]
        reached = 0
        for signs in itertools.product((1, -1), repeat=len(GATES[pid].steps)):
            try:
                probs, psi = _chain_public_measurements(pid, state, signs)
            except mj.ImpossibleOutcome:
                with pytest.raises(mj.ImpossibleOutcome):
                    run_protocol(pid, state, forced=list(signs),
                                 correction_mode="classical")
                continue
            reached += 1
            run = run_protocol(pid, state, forced=list(signs),
                               correction_mode="classical")
            assert [s.probability for s in run.steps] == probs, (pid, signs)
            assert run.state.amplitudes.tobytes() == psi.tobytes(), (pid, signs)
        assert reached > 0, pid


@pytest.mark.parametrize("pid", ["hadamard1", "cnot", "tgate2"])
def test_enumerate_with_measured_corrections(pid, rng):
    inputs = random_logical_inputs(pid, 2, rng)
    rep = enumerate_branches(pid, inputs, correction_mode="measured", rng=rng)
    assert rep.min_fidelity >= 1 - 1e-12


def test_identity_branches_match_published_rows(rng):
    state = random_logical_inputs("hadamard1", 1, rng)[0]
    # hadamard: s2 = -s3, s1 = -s4 -> no correction
    run = run_hadamard(state, 1, forced=[1, 1, -1, -1, 1],
                       correction_mode="classical")
    assert run.corrections == ["1"]
    # phase: s1 = s*s2 with unflipped ancilla (s3 = s = +1) -> no correction
    run = run_phase(state, 1, forced=[1, 1, 1], correction_mode="classical")
    assert run.corrections == ["1"]
    # cnot: the exact-enumeration table's identity row (s1 s3 = -1, s2 s4 = +1)
    run = run_cnot(state, forced=[1, 1, -1, 1], correction_mode="classical")
    assert run.corrections == ["1"]
    # tgate: s1 = s2 = +1 -> no correction
    magic_in = random_logical_inputs("tgate1", 1, rng)[0]
    run = run_tgate(magic_in, 1, forced=[1, 1, 1], correction_mode="classical")
    assert run.corrections == ["1"]


def test_ancilla_restored_after_every_protocol(rng):
    for pid in PROTOCOL_IDS:
        state = random_logical_inputs(pid, 1, rng)[0]
        run = run_protocol(pid, state, rng=rng)
        anc = expectation(run.state, pauli("z", 3))
        assert abs(abs(anc) - 1) < 1e-12


def test_branch_probability_and_log(rng):
    state = random_logical_inputs("hadamard1", 1, rng)[0]
    run = run_hadamard(state, 1, rng=rng)
    assert 0 < run.branch_probability <= 1
    log = run.log()
    assert all(set(e) == {"parity", "outcome", "probability", "retries"}
               for e in log)


def test_forced_loop_retry_distribution():
    rng = np.random.default_rng(99)
    state = encode_logical([1, 0], [1, 0], [1, 0])
    retries = []
    for _ in range(1000):
        run = run_pauli_fix(state, 1, "x", rng=rng, correction_mode="classical")
        retries.append(run.total_retries)
    retries = np.array(retries)
    # geometric with success probability 1/2: mean 1, var 2
    mean = retries.mean()
    sigma = np.sqrt(2.0 / retries.size)
    assert abs(mean - 1.0) < 3 * sigma
    assert retries.max() < pt.RETRY_CAP


def test_retry_cap_raises():
    class StuckRng:
        def random(self):
            return 0.0      # every outcome lands +1, the loop never flips

        def integers(self, *a, **k):
            return 0

    state = encode_logical(np.array([1, 1]) / np.sqrt(2), [1, 0], [1, 0])
    with pytest.raises(RuntimeError, match="retries"):
        run_pauli_fix(state, 1, "x", rng=StuckRng())


def test_sampling_matches_enumeration_chi2():
    rng = np.random.default_rng(31)
    state = random_logical_inputs("phase1", 1, rng)[0]
    rep = enumerate_branches("phase1", [state])
    probs = {k: v for k, v in rep.branch_probabilities.items() if v > 0}
    n = 10_000
    counts = {k: 0 for k in probs}
    for _ in range(n):
        run = run_phase(state, 1, rng=rng, correction_mode="classical")
        key = run.outcomes[:3]
        counts[key] = counts.get(key, 0) + 1
    assert set(counts) == set(probs)
    chi2 = sum((counts[k] - n * p) ** 2 / (n * p) for k, p in probs.items())
    # 8 reachable branches -> 7 dof; 1% critical value 18.48
    assert chi2 < 18.48


def test_measured_and_classical_corrections_agree(rng):
    state = random_logical_inputs("phase1", 1, rng)[0]
    for forced in ([1, -1, 1], [-1, 1, -1]):
        run_c = run_phase(state, 1, forced=list(forced),
                          correction_mode="classical")
        run_m = run_phase(state, 1, forced=list(forced), rng=rng,
                          correction_mode="measured")
        fid_c = logical_fidelity(state, run_c, GATES["phase1"].target)
        fid_m = logical_fidelity(state, run_m, GATES["phase1"].target)
        assert fid_c > 1 - 1e-12 and fid_m > 1 - 1e-12


def test_identity_protocol_infidelity_zero(rng):
    # measuring sigma_z^(3) on its eigenstate leaves the logical state alone
    state = random_logical_inputs("phase1", 1, rng)[0]
    res = mj.measure(state, pauli("z", 3), force=+1)
    dec_in = mj.decode_logical(state).reshape(4, 2)[:, 0]
    dec_out = mj.decode_logical(res.post_state).reshape(4, 2)[:, 0]
    fid = abs(np.vdot(dec_in, dec_out)) / (np.linalg.norm(dec_in)
                                           * np.linalg.norm(dec_out))
    assert fid == pytest.approx(1.0, abs=1e-12)


def _compose(pids, state, rng):
    for pid in pids:
        run = run_protocol(pid, state, rng=rng)
        state = run.state
    return state


def _logical_overlap(a, b):
    da, db = mj.decode_logical(a), mj.decode_logical(b)
    anc_a = 0 if expectation(a, pauli("z", 3)) > 0 else 1
    anc_b = 0 if expectation(b, pauli("z", 3)) > 0 else 1
    va = da.reshape(4, 2)[:, anc_a]
    vb = db.reshape(4, 2)[:, anc_b]
    return abs(np.vdot(va, vb)) / (np.linalg.norm(va) * np.linalg.norm(vb))


def test_hadamard_squares_to_identity(rng):
    state = random_logical_inputs("hadamard1", 1, rng)[0]
    out = _compose(["hadamard1", "hadamard1"], state, rng)
    assert 1 - _logical_overlap(out, state) < 1e-11


def test_phase_fourth_power_is_identity(rng):
    state = random_logical_inputs("phase2", 1, rng)[0]
    out = _compose(["phase2"] * 4, state, rng)
    assert 1 - _logical_overlap(out, state) < 1e-11


def test_cnot_squares_to_identity(rng):
    state = random_logical_inputs("cnot", 1, rng)[0]
    out = _compose(["cnot", "cnot"], state, rng)
    assert 1 - _logical_overlap(out, state) < 1e-11


def _decode_by_vdot(state):
    """Overlaps with each logical basis vector, one np.vdot apiece."""
    out = np.zeros((2, 2, 2), dtype=complex)
    for bits, bvec in mj._logical_basis().items():
        out[bits] = np.vdot(bvec, state.amplitudes)
    return out


def _fidelity_by_norms(state_in, run, target):
    """logical_fidelity written with np.linalg.norm and per-basis overlaps."""
    psi_in = _decode_by_vdot(state_in).reshape(4, 2)
    b3 = 0 if expectation(run.state, pauli("z", 3)) > 0 else 1
    phi = _decode_by_vdot(run.state).reshape(4, 2)[:, b3]
    tgt = target @ psi_in
    den = np.linalg.norm(phi) * np.linalg.norm(tgt)
    return 0.0 if den < 1e-14 else float(np.linalg.norm(phi.conj() @ tgt) / den)


def _fidelity_by_projection(state_in, run, target):
    """Fidelity from dense matrices: the output projected on its ancilla
    eigenspace by (1 +- Z3)/2 from `to_matrix`, against the target applied
    to the decoded input, re-encoded at the output's ancilla value."""
    z3 = mj.to_matrix(pauli("z", 3))
    out = run.state.amplitudes
    anc = np.vdot(out, z3 @ out).real
    sign = 1 if anc > 0 else -1
    proj = (out + sign * z3 @ out) / 2
    b3 = [1, 0] if sign > 0 else [0, 1]
    basis = {bits: encode_logical(np.eye(2)[bits[0]], np.eye(2)[bits[1]],
                                  b3).amplitudes
             for bits in itertools.product((0, 1), repeat=2)}
    dec_in = mj.decode_logical(state_in)
    overlap_sq, want_sq = 0.0, 0.0
    for j in (0, 1):                        # the input's ancilla branches
        tgt = target @ dec_in[:, :, j].reshape(4)
        want = sum(tgt[2 * a + b] * basis[a, b] for a, b in basis)
        overlap_sq += abs(np.vdot(proj, want)) ** 2
        want_sq += np.vdot(want, want).real
    den = np.vdot(proj, proj).real * want_sq
    return 0.0 if den < 1e-28 else float(np.sqrt(overlap_sq / den))


def test_decode_and_fidelity_match_per_basis_reference():
    rng = np.random.default_rng(16)
    wrong = np.linalg.qr(rng.normal(size=(4, 4))
                         + 1j * rng.normal(size=(4, 4)))[0]
    n_runs, ancillas = 0, set()
    for pid in PROTOCOL_IDS:
        for state in random_logical_inputs(pid, 2, rng):
            assert np.abs(mj.decode_logical(state)
                          - _decode_by_vdot(state)).max() < 1e-14
            runs = [run_protocol(pid, state, rng=rng, correction_mode=mode)
                    for mode in ("measured", "classical")]
            for signs in itertools.product((1, -1), repeat=len(GATES[pid].steps)):
                try:
                    runs.append(run_protocol(pid, state, forced=list(signs),
                                             correction_mode="classical"))
                except mj.ImpossibleOutcome:
                    pass
            for run in runs:
                n_runs += 1
                assert np.abs(mj.decode_logical(run.state)
                              - _decode_by_vdot(run.state)).max() < 1e-14
                ancillas.add(round(expectation(run.state, pauli("z", 3))))
                for target in (GATES[pid].target, wrong, np.zeros((4, 4))):
                    fid = logical_fidelity(state, run, target)
                    assert abs(fid - _fidelity_by_norms(state, run, target)) < 1e-14
                    assert abs(fid - _fidelity_by_projection(state, run, target)
                               ) < 1e-12
    assert n_runs > 200 and ancillas == {1, -1}


def _replay_enumeration(pid, inputs, child):
    """Top-level run logs of a measured-mode enumeration, written out: every
    reachable (outcome string, input) in order, all drawing from `child`."""
    logs = []
    for signs in itertools.product((1, -1), repeat=len(GATES[pid].steps)):
        for state in inputs:
            try:
                run = run_protocol(pid, state, rng=child, forced=list(signs),
                                   correction_mode="measured")
            except mj.ImpossibleOutcome:
                continue
            logs.append(run.log())
    return logs


@pytest.mark.parametrize("pid", ["hadamard1", "cnot", "tgate2"])
def test_measured_enumeration_draws_one_child_generator(pid, monkeypatch):
    inputs = random_logical_inputs(pid, 3, np.random.default_rng(5))
    logs = []
    inner = pt.run_protocol

    def spy(*args, **kwargs):
        run = inner(*args, **kwargs)
        logs.append(run.log())
        return run

    def enumerate_logged(seed):
        logs.clear()
        rng = None if seed is None else np.random.default_rng(seed)
        rep = enumerate_branches(pid, inputs, "measured", rng=rng)
        if rng is not None:
            # the caller's generator advances by exactly one integers draw
            copy = np.random.default_rng(seed)
            copy.integers(2**63)
            assert rng.bit_generator.state == copy.bit_generator.state
        return rep, list(logs)

    monkeypatch.setattr(pt, "run_protocol", spy)
    rep8, logs8 = enumerate_logged(8)
    rep0, logs0 = enumerate_logged(None)
    # equal seeds (or no rng at all) give identical reports and runs
    assert enumerate_logged(8) == (rep8, logs8)
    assert enumerate_logged(None) == (rep0, logs0)
    assert enumerate_logged(9)[1] != logs8    # the seed reaches the corrections
    monkeypatch.undo()
    assert rep8.min_fidelity >= 1 - 1e-12 and rep8.covered
    # every branch's corrections draw, in turn, from one child generator
    # seeded by that draw, or by default_rng(0) without an rng
    child = np.random.default_rng(np.random.default_rng(8).integers(2**63))
    assert _replay_enumeration(pid, inputs, child) == logs8
    assert _replay_enumeration(pid, inputs, np.random.default_rng(0)) == logs0


def test_measured_enumeration_draws_once_without_reachable_runs():
    rng, copy = np.random.default_rng(4), np.random.default_rng(4)
    rep = enumerate_branches("cnot", [], "measured", rng=rng)
    assert rep.n_reachable == 0
    copy.integers(2**63)
    assert rng.bit_generator.state == copy.bit_generator.state
    # classical mode samples nothing, so it leaves the caller's rng alone
    state = random_logical_inputs("cnot", 1, np.random.default_rng(6))
    enumerate_branches("cnot", state, "classical", rng=rng)
    assert rng.bit_generator.state == copy.bit_generator.state


def test_logical_fidelity_rejects_ancilla_superposition(rng):
    state = random_logical_inputs("hadamard1", 1, rng)[0]
    run = run_protocol("hadamard1", state, rng=rng)
    run.state = encode_logical([1, 0], [0, 1], np.array([1, 1j]) / np.sqrt(2))
    with pytest.raises(ValueError, match="ancilla in a z eigenstate"):
        logical_fidelity(state, run, GATES["hadamard1"].target)


@pytest.mark.parametrize("mode", ["classical", "measured"])
def test_vectorised_fidelity_matches_per_run(mode, monkeypatch):
    rng = np.random.default_rng(21)
    records = []
    inner = pt.run_protocol

    def spy(protocol, state, *args, **kwargs):
        run = inner(protocol, state, *args, **kwargs)
        records.append((state, run))
        return run

    monkeypatch.setattr(pt, "run_protocol", spy)
    for pid in PROTOCOL_IDS:
        target = GATES[pid].target
        records.clear()
        rep = enumerate_branches(pid, random_logical_inputs(pid, 3, rng),
                                 correction_mode=mode, rng=rng)
        assert len(records) == rep.n_reachable > 0
        per_run = [logical_fidelity(s, run, target) for s, run in records]
        assert abs(rep.min_fidelity - min(per_run)) <= 1e-15, pid
        ins = np.array([s.amplitudes for s, _ in records])
        outs = np.array([run.state.amplitudes for _, run in records])
        fids = pt._fidelities(ins, outs, target)
        reference = [_fidelity_by_projection(s, run, target) for s, run in records]
        assert np.abs(fids - reference).max() < 1e-12, pid
        # one run ending in an ancilla superposition fails the whole batch
        bad = outs.copy()
        bad[-1] = encode_logical([1, 0], [0, 1],
                                 np.array([1, 1j]) / np.sqrt(2)).amplitudes
        with pytest.raises(ValueError, match="ancilla in a z eigenstate"):
            pt._fidelities(ins, bad, target)
        # a row with a zero denominator reads 0.0 and leaves the others alone
        ins[0] = 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            zeroed = pt._fidelities(ins, outs, target)
        assert zeroed[0] == 0.0 and np.array_equal(zeroed[1:], fids[1:]), pid
