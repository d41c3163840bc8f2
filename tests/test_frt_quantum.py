import itertools
import time

import numpy as np
import pytest

from gate_oracle import gate_by_gate, stage_circuit
from qsca.errors import DimensionTooLarge
from qsca import frt_quantum
from qsca.frt_quantum import (
    FrtStagePlan,
    emit_frt_report,
    run_frt,
    stage_identity_check,
)
from qsca.sca_core import frt_pattern
from qsca.gates import BlockReset, CollectiveCn
from qsca.qstate import StateVector


def blocks_of(words, width):
    """Bit tuples of block words."""
    return tuple(tuple((x >> (width - 1 - i)) & 1 for i in range(width))
                 for x in words)


def record_words(report, m):
    """Block words of the register after stage m, None if annihilated."""
    index, w = report.indices[m], report.radius + 1
    if index is None:
        return None
    n_blocks = report.L + report.padding
    return tuple((index >> (n_blocks - 1 - b) * w) & ((1 << w) - 1)
                 for b in range(n_blocks))


def basis_vector(n_qubits, index):
    """The basis state |index>, or the zero vector when index is None."""
    amp = np.zeros(2 ** n_qubits, dtype=complex)
    if index is not None:
        amp[index] = 1.0
    return StateVector(n_qubits, amp)


def stage_states(plan, start, variant):
    """States after each stage, the stage ops run one gate at a time."""
    state = basis_vector(plan.n_qubits, start)
    for m in range(1, plan.padding + 1):
        state = gate_by_gate(state, plan.stage_ops(m, variant))
        yield m, state


def stage_words(words, m, L):
    """One stage on the word tuple: XOR the lead into the next L, clear it."""
    out = list(words)
    lead = out[m - 1]
    for k in range(1, L + 1):
        out[m - 1 + k] ^= lead
    out[m - 1] = 0
    return tuple(out)


# -- construction -----------------------------------------------------------

def test_input_validation():
    with pytest.raises(ValueError):
        run_frt([], 1)
    with pytest.raises(ValueError):
        run_frt([(1, 0), (1,)], 1)
    with pytest.raises(ValueError):
        run_frt([(0, 0), (1, 1)], 1)
    with pytest.raises(ValueError):
        run_frt([(1, 1), (0, 0)], 1)
    with pytest.raises(ValueError):
        run_frt([(1, 1)], 0)


def test_register_size_guard():
    # both track int64 register indices: the limit is 63 qubits
    with pytest.raises(DimensionTooLarge):
        run_frt([(1, 1)], 40)
    with pytest.raises(DimensionTooLarge):
        stage_identity_check(1, 31, padding=1)


def test_run_frt_sixty_qubits_matches_pattern():
    # r=3: 4-qubit blocks, 3 + 12 blocks = 60 qubits, far past any
    # state vector
    blocks = [(1, 0, 0, 1), (0, 0, 0, 0), (1, 1, 1, 1)]
    word, L, w, padding = 0b1001_0000_1111, 3, 4, 12
    start = time.perf_counter()
    report = run_frt(blocks, padding)
    assert time.perf_counter() - start < 1.0
    assert report.indices[0] == word << padding * w
    for m in range(1, padding + 1):
        want = frt_pattern(word, m, L, w) << (padding - m) * w
        assert report.indices[m] == want, m
    assert report.final_ok


def test_stage_plan_validation():
    with pytest.raises(ValueError):
        FrtStagePlan(0, 1, 2)
    with pytest.raises(DimensionTooLarge, match="64 qubits"):
        FrtStagePlan(1, 31, 2)
    plan = FrtStagePlan(2, 2, 2)
    with pytest.raises(ValueError):
        plan.stage_ops(0)
    with pytest.raises(ValueError):
        plan.stage_ops(3)


def test_stage_plan_ops_golden():
    plan = FrtStagePlan(2, 2, 2)
    assert plan.n_qubits == 8
    assert plan.stage_ops(1) == (
        CollectiveCn(1, 3, 2), CollectiveCn(1, 5, 2),
        BlockReset(1, 2, "extended"))
    assert plan.stage_ops(2, "literal") == (
        CollectiveCn(3, 5, 2), CollectiveCn(3, 7, 2),
        BlockReset(3, 2, "literal"))
    circuit = stage_circuit(plan)
    assert circuit.n_qubits == 8
    assert circuit.ops == plan.stage_ops(1) + plan.stage_ops(2)


def test_stage_ops_are_cns_then_reset():
    w, n_blocks = 2, 5
    for variant in ("literal", "extended"):
        for L in (1, 2, 3):
            plan = FrtStagePlan(L, n_blocks - L, w)
            for m in range(1, n_blocks - L + 1):
                start = (m - 1) * w + 1
                ops = [CollectiveCn(start, start + k * w, w)
                       for k in range(1, L + 1)]
                ops.append(BlockReset(start, w, variant))
                assert plan.stage_ops(m, variant) == tuple(ops)


# -- stage traces -----------------------------------------------------------

def test_three_block_stage_goldens():
    a1, a2, a3 = 0b11, 0b01, 0b10
    report = run_frt(blocks_of((a1, a2, a3), 2), 4)
    assert record_words(report, 1) == (0, a1 ^ a2, a1 ^ a3, a1, 0, 0, 0)
    assert record_words(report, 2) == (0, 0, a2 ^ a3, a2, a1 ^ a2, 0, 0)
    assert record_words(report, 3) == (0, 0, 0, a3, a1 ^ a3, a2 ^ a3, 0)
    assert record_words(report, 4) == (0, 0, 0, 0, a1, a2, a3)
    assert report.indices[4] == 0b110110
    assert report.final_ok


def test_input_record():
    report = run_frt([(1, 1), (0, 1)], 2)
    assert report.indices[0] == 0b1101_0000
    assert record_words(report, 0) == (0b11, 0b01, 0, 0)


def test_two_block_padding_two_lands_shuffled():
    a1, a2 = 0b11, 0b01
    report = run_frt(blocks_of((a1, a2), 2), 2)
    assert record_words(report, 2) == (0, 0, a2, a1 ^ a2)
    assert not report.final_ok


def test_two_block_padding_three_returns():
    a1, a2 = 0b11, 0b01
    report = run_frt(blocks_of((a1, a2), 2), 3)
    assert record_words(report, 3) == (0, 0, 0, a1, a2)
    assert report.final_ok


def test_single_block_walks_any_padding():
    for padding in (1, 2, 3):
        report = run_frt([(1, 0)], padding)
        assert report.final_ok


def test_run_matches_word_oracle():
    rng = np.random.default_rng(5)
    for (r, L, padding) in ((1, 1, 3), (1, 2, 4), (1, 3, 4),
                            (2, 1, 3), (2, 2, 3), (2, 3, 2)):
        w = r + 1
        n_words = 2 ** w
        for _ in range(5):
            words = [int(rng.integers(1, n_words))]
            for _ in range(L - 2):
                words.append(int(rng.integers(0, n_words)))
            if L >= 2:
                words.append(int(rng.integers(1, n_words)))
            report = run_frt(blocks_of(words, w), padding)
            current = tuple(words) + (0,) * padding
            for m in range(1, padding + 1):
                current = stage_words(current, m, L)
                assert record_words(report, m) == current


# -- index tracking against the gate-by-gate states -------------------------

@pytest.mark.parametrize("L, r, padding",
                         [(1, 1, 2), (2, 1, 3), (3, 1, 2), (2, 2, 2)])
@pytest.mark.parametrize("variant", ["literal", "extended"])
def test_run_frt_indices_match_gate_by_gate_states(L, r, padding, variant):
    w = r + 1
    plan = FrtStagePlan(L, padding, w)
    ends = [range(1, 2 ** w)] * min(L, 2)
    choices = ends[:1] + [range(2 ** w)] * (L - 2) + ends[1:]
    for words in itertools.product(*choices):
        report = run_frt(blocks_of(words, w), padding, reset_variant=variant)
        word = int("".join(format(x, f"0{w}b") for x in words), 2)
        start = word << padding * w
        assert report.indices[0] == start
        for m, state in stage_states(plan, start, variant):
            want = basis_vector(plan.n_qubits, report.indices[m])
            assert np.array_equal(state.amplitudes, want.amplitudes)
        # and all stages as one circuit against run_frt's last index
        whole = gate_by_gate(basis_vector(plan.n_qubits, start),
                             stage_circuit(plan, variant).ops)
        want = basis_vector(plan.n_qubits, report.indices[-1])
        assert np.array_equal(whole.amplitudes, want.amplitudes)


def test_circuit_linear_on_superpositions():
    plan = FrtStagePlan(1, 2, 2)
    circuit = stage_circuit(plan)
    a = basis_vector(6, 0b10_00_00)
    b = basis_vector(6, 0b11_00_00)
    mixed = StateVector(6, (a.amplitudes + b.amplitudes) / np.sqrt(2))
    out = gate_by_gate(mixed, circuit.ops)
    want = (gate_by_gate(a, circuit.ops).amplitudes
            + gate_by_gate(b, circuit.ops).amplitudes) / np.sqrt(2)
    assert np.abs(out.amplitudes - want).max() <= 1e-12


# -- reset variants ---------------------------------------------------------

def test_literal_reset_annihilates_on_null_lead():
    # equal blocks make the stage-2 lead null, which the literal reset kills
    report = run_frt([(1, 1), (1, 1)], 2, reset_variant="literal")
    assert report.indices[1] is not None
    assert report.indices[2] is None
    assert not report.final_ok
    states = dict(stage_states(FrtStagePlan(2, 2, 2), 0b1111_0000, "literal"))
    assert np.abs(states[1].amplitudes).max() == 1.0
    assert np.abs(states[2].amplitudes).max() == 0.0


def test_variants_agree_when_leads_stay_nonzero():
    blocks = [(1, 1), (0, 1)]
    ext = run_frt(blocks, 3, reset_variant="extended")
    lit = run_frt(blocks, 3, reset_variant="literal")
    assert ext.final_ok and lit.final_ok
    assert ext.indices == lit.indices


# -- stage identity sweep ---------------------------------------------------

def test_stage_identity_exhaustive_single_block():
    report = stage_identity_check(1, 1)
    assert report.ok
    assert report.n_instances == 3 and report.stages_checked == 2


def test_stage_identity_exhaustive_pairs():
    report = stage_identity_check(2, 1, padding=3, samples=9)
    assert report.ok
    assert report.n_instances == 9 and report.stages_checked == 3


def test_stage_identity_sampled_deterministic():
    report = stage_identity_check(2, 2, padding=3, samples=5)
    assert report.ok and report.n_instances == 5
    assert report.first_mismatch is None
    assert stage_identity_check(2, 2, padding=3, samples=5) == report


def test_stage_identity_exhaustive_budget():
    start = time.perf_counter()
    report = stage_identity_check(3, 2, padding=4, samples=392)
    assert time.perf_counter() - start < 2.0
    assert report.ok and report.n_instances == 392
    # 28 qubits, still exhaustive
    wide = stage_identity_check(3, 3, padding=4, samples=3600)
    assert wide.ok and wide.n_instances == 3600


def test_stage_identity_names_first_mismatch(monkeypatch):
    right = frt_quantum.frt_pattern

    def wrong_at_stage_two(word, k, L, w):
        return right(word, k, L, w) ^ (k == 2) * (word >> (L - 1) * w == 2)

    monkeypatch.setattr(frt_quantum, "frt_pattern", wrong_at_stage_two)
    report = stage_identity_check(2, 1, padding=3, samples=9)
    assert not report.ok
    assert report.n_instances == 9 and report.stages_checked == 3
    assert report.mismatches == 3  # the three particles that lead with 10
    assert report.first_mismatch == ((2, 1), 2)


# -- text format ------------------------------------------------------------

def test_emit_report_golden():
    report = run_frt([(1, 0)], 1)
    assert emit_frt_report(report) == (
        "stage 0: 10 O\n"
        "stage 1: O 10\n"
        "final translated by 1 blocks: ok\n")


def test_emit_report_annihilated():
    report = run_frt([(1, 1), (1, 1)], 2, reset_variant="literal")
    text = emit_frt_report(report)
    assert "stage 2: (not a basis state)" in text
    assert text.endswith("final translated by 2 blocks: MISMATCH\n")
