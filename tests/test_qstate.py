import re
import time
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gate_oracle import (
    affine_image_by_qubit,
    apply_block_reset,
    apply_cn,
    apply_collective_cn,
    apply_not,
    basis_state,
    gate_by_gate,
    word_image_by_gate,
)
from qsca.errors import DimensionTooLarge
from qsca.gates import (
    BlockReset,
    Circuit,
    CollectiveCn,
    Cn,
    Not,
    affine_fold,
    emit_gatelist,
    word_image,
)
from qsca.qstate import (StateVector, apply_circuit, circuit_matrix,
                         square_zeros)
from qsca.quantize import WordMap
from qsca.spin_chain import HamiltonianSum, to_dense


def bit_of(index, q, n):
    return (index >> (n - q)) & 1


def not_matrix(n, q):
    """Permutation matrix of NOT on qubit q, built by index arithmetic."""
    dim = 2 ** n
    mat = np.zeros((dim, dim))
    for i in range(dim):
        mat[i ^ (1 << (n - q)), i] = 1
    return mat


def cn_matrix(n, control, target):
    dim = 2 ** n
    mat = np.zeros((dim, dim))
    for i in range(dim):
        j = i ^ (bit_of(i, control, n) << (n - target))
        mat[j, i] = 1
    return mat


def reset_matrix(n, block, block_len, variant):
    mask = 0
    for q in range(block, block + block_len):
        mask |= 1 << (n - q)
    dim = 2 ** n
    mat = np.zeros((dim, dim))
    for i in range(dim):
        if variant == "literal" and not i & mask:
            continue
        mat[i & ~mask, i] += 1
    return mat


def random_state(rng, n):
    amp = rng.standard_normal(2 ** n) + 1j * rng.standard_normal(2 ** n)
    return StateVector(n, amp / np.linalg.norm(amp))


@st.composite
def circuits(draw, max_qubits, min_qubits=1):
    """Random circuits over all four op kinds, both reset variants."""
    n = draw(st.integers(min_qubits, max_qubits))
    qubit = st.integers(1, n)

    @st.composite
    def block_op(draw, kind):
        w = draw(st.integers(1, n // 2 if kind is CollectiveCn else n))
        start = st.integers(1, n - w + 1)
        if kind is BlockReset:
            return BlockReset(draw(start), w,
                              draw(st.sampled_from(("literal", "extended"))))
        c, t = draw(st.tuples(start, start).filter(
            lambda p: abs(p[0] - p[1]) >= w))
        return CollectiveCn(c, t, w)

    kinds = [st.builds(Not, qubit), block_op(BlockReset)]
    if n >= 2:
        kinds += [st.tuples(qubit, qubit).filter(lambda p: p[0] != p[1])
                  .map(lambda p: Cn(*p)), block_op(CollectiveCn)]
    return Circuit(n, tuple(draw(st.lists(st.one_of(kinds), max_size=12))))


@st.composite
def permutation_runs(draw, max_qubits, min_qubits=1):
    """Qubit count and a run of Not/Cn/CollectiveCn ops, no resets."""
    circuit = draw(circuits(max_qubits, min_qubits))
    return circuit.n_qubits, tuple(op for op in circuit.ops
                                   if not isinstance(op, BlockReset))


# -- states -----------------------------------------------------------------

def test_basis_state():
    assert np.array_equal(basis_state((0,)).amplitudes, [1, 0])
    assert np.array_equal(basis_state((1, 0)).amplitudes, [0, 0, 1, 0])
    with pytest.raises(ValueError):
        basis_state(())


def test_basis_states_orthonormal():
    vecs = [basis_state(((x >> 2) & 1, (x >> 1) & 1, x & 1)).amplitudes
            for x in range(8)]
    gram = np.array([[np.vdot(u, v) for v in vecs] for u in vecs])
    assert np.array_equal(gram, np.eye(8))


def test_state_vector_validation():
    with pytest.raises(ValueError):
        StateVector(2, np.zeros(3, dtype=complex))
    with pytest.raises(ValueError, match="at least one qubit"):
        StateVector(0, np.ones(1, dtype=complex))
    state = basis_state((1,))
    with pytest.raises(ValueError):
        state.amplitudes[0] = 5.0


@pytest.mark.parametrize("dtype", [float, complex])
def test_state_vector_copies_its_input_once(dtype, traced_peak):
    # one complex array of 2^20 amplitudes (16 MiB), not a conversion
    # and then a copy of it
    amp = np.zeros(2 ** 20, dtype=dtype)
    state, peak = traced_peak(StateVector, 20, amp)
    assert peak <= 16 * 2 ** 20 + 2 ** 16
    amp[3] = 1.0
    assert not state.amplitudes.any()


def test_state_vector_value_equality():
    a, b = basis_state((1, 0)), basis_state((1, 0))
    assert a == b and hash(a) == hash(b) and len({a, b}) == 1
    assert a != basis_state((0, 1)) and a != basis_state((1, 0, 0))
    assert a != (a.n_qubits, a.amplitudes)
    signed = StateVector(2, [-0.0, -0.0, 1.0, complex(0.0, -0.0)])
    assert signed == a and hash(signed) == hash(a)


# -- single gates against the index-arithmetic oracles ----------------------

def test_apply_not():
    assert np.array_equal(apply_not(basis_state((0,)), 1).amplitudes, [0, 1])
    rng = np.random.default_rng(0)
    state = random_state(rng, 4)
    twice = apply_not(apply_not(state, 2), 2)
    assert np.allclose(twice.amplitudes, state.amplitudes)
    out = apply_not(state, 3)
    assert np.allclose(out.amplitudes, not_matrix(4, 3) @ state.amplitudes)
    with pytest.raises(ValueError):
        apply_not(state, 5)


def test_apply_cn():
    assert np.array_equal(apply_cn(basis_state((1, 0)), 1, 2).amplitudes,
                          basis_state((1, 1)).amplitudes)
    assert np.array_equal(apply_cn(basis_state((0, 0)), 1, 2).amplitudes,
                          basis_state((0, 0)).amplitudes)
    rng = np.random.default_rng(1)
    state = random_state(rng, 5)
    for control, target in ((1, 4), (4, 1), (2, 3), (5, 2)):
        out = apply_cn(state, control, target)
        assert np.allclose(out.amplitudes,
                           cn_matrix(5, control, target) @ state.amplitudes)
    with pytest.raises(ValueError):
        Cn(2, 2)


def test_apply_collective_cn():
    a = (1, 0, 1)
    state = basis_state(a + (0, 0, 0))
    out = apply_collective_cn(state, 1, 4, 3)
    assert np.array_equal(out.amplitudes, basis_state(a + a).amplitudes)
    back = apply_collective_cn(out, 1, 4, 3)
    assert np.array_equal(back.amplitudes, state.amplitudes)
    # ... and equals the composition of its per-qubit gates
    rng = np.random.default_rng(2)
    state = random_state(rng, 6)
    out = apply_collective_cn(state, 4, 1, 3)
    oracle = state.amplitudes
    for k in range(3):
        oracle = cn_matrix(6, 4 + k, 1 + k) @ oracle
    assert np.allclose(out.amplitudes, oracle)
    with pytest.raises(ValueError):
        CollectiveCn(1, 2, 3)


def test_apply_block_reset():
    lit = apply_block_reset(basis_state((0, 1)), 1, 2, "literal")
    assert np.array_equal(lit.amplitudes, basis_state((0, 0)).amplitudes)
    nul = apply_block_reset(basis_state((0, 0)), 1, 2, "literal")
    assert np.array_equal(nul.amplitudes, [0, 0, 0, 0])
    ext = apply_block_reset(basis_state((0, 0)), 1, 2, "extended")
    assert np.array_equal(ext.amplitudes, basis_state((0, 0)).amplitudes)
    mix = StateVector(2, np.array([1, 1, 0, 1]) / np.sqrt(3))
    out = apply_block_reset(mix, 1, 2, "extended")
    assert np.allclose(out.amplitudes, [3 / np.sqrt(3), 0, 0, 0])
    with pytest.raises(ValueError):
        BlockReset(1, 2, "projective")


def test_literal_reset_sums_only_the_nonzero_words():
    # 1 + 1e-17 rounds to 1, so only a sum that leaves the zero word out
    # keeps the 1e-17
    state = StateVector(2, [1, 1e-17, 0, 0])
    circuit = Circuit(2, (BlockReset(2, 1, "literal"),))
    assert np.array_equal(circuit_matrix(circuit) @ state.amplitudes,
                          [1e-17, 0, 0, 0])


@pytest.mark.parametrize("variant", ["literal", "extended"])
def test_apply_circuit_refuses_resets_before_allocating(variant,
                                                        traced_peak):
    # a state runs only NOT/CN circuits: the fold names a reset, first
    # or last, before any 2^n array is made
    n = 20
    state = random_state(np.random.default_rng(2013), n)
    reset = BlockReset(3, 2, variant)
    for ops in ((reset, Not(1)), (Cn(1, 2), CollectiveCn(1, 4, 2), reset)):
        def refused():
            with pytest.raises(TypeError, match=re.escape(repr(reset))):
                apply_circuit(state, Circuit(n, ops))
        _, peak = traced_peak(refused)
        assert peak < 2 ** 20


def test_block_reset_matrix_identities():
    for n, block, w in ((3, 2, 2), (4, 1, 2), (4, 2, 3)):
        lit = circuit_matrix(Circuit(n, (BlockReset(block, w, "literal"),)))
        ext = circuit_matrix(Circuit(n, (BlockReset(block, w, "extended"),)))
        assert np.array_equal(lit, reset_matrix(n, block, w, "literal"))
        assert np.array_equal(ext, reset_matrix(n, block, w, "extended"))
        assert np.array_equal(lit @ lit, np.zeros_like(lit))
        assert np.array_equal(ext @ ext, ext)


def test_gates_are_linear_and_norm_preserving():
    rng = np.random.default_rng(3)
    ops = (Not(2), Cn(1, 3), Cn(4, 2), CollectiveCn(1, 3, 2))
    for op in ops:
        circuit = Circuit(4, (op,))
        u = random_state(rng, 4)
        v = random_state(rng, 4)
        a, b = rng.standard_normal(2)
        combo = StateVector(4, a * u.amplitudes + b * v.amplitudes)
        left = apply_circuit(combo, circuit).amplitudes
        right = a * apply_circuit(u, circuit).amplitudes \
            + b * apply_circuit(v, circuit).amplitudes
        assert np.abs(left - right).max() <= 1e-12
        out = apply_circuit(u, circuit).amplitudes
        assert abs(np.linalg.norm(out) - 1.0) <= 1e-12
        mat = circuit_matrix(circuit)
        assert np.abs(mat.conj().T @ mat - np.eye(16)).max() <= 1e-12


# -- circuits ---------------------------------------------------------------

def test_circuit_validation():
    with pytest.raises(ValueError):
        Circuit(2, (Not(3),))
    with pytest.raises(ValueError):
        Circuit(3, (CollectiveCn(1, 3, 2),))
    with pytest.raises(ValueError):
        Circuit(0, ())
    # a block's top qubit is start + length - 1, never a list of qubits
    huge = 999999999999999999992
    for op in (BlockReset(1, huge, "literal"), Not(huge),
               CollectiveCn(1, huge, 1)):
        with pytest.raises(ValueError):
            Circuit(4, (op,))


def test_apply_circuit_basics():
    state = basis_state((1, 0))
    assert np.array_equal(apply_circuit(state, Circuit(2, ())).amplitudes,
                          state.amplitudes)
    flip = Circuit(2, (Not(1), Not(1)))
    assert np.array_equal(apply_circuit(state, flip).amplitudes,
                          state.amplitudes)
    with pytest.raises(ValueError):
        apply_circuit(basis_state((0,)), flip)


def test_circuit_matrix_golden():
    mat = circuit_matrix(Circuit(2, (Cn(1, 2),)))
    want = np.array([[1, 0, 0, 0],
                     [0, 1, 0, 0],
                     [0, 0, 0, 1],
                     [0, 0, 1, 0]], dtype=complex)
    assert np.array_equal(mat, want)
    # its readers are BLAS products and row gathers: no row padding
    assert mat.flags.c_contiguous


@pytest.mark.parametrize("dtype", [np.float64, np.int8, complex])
def test_square_zeros_pads_each_row_by_a_cache_line(dtype):
    for dim in (1, 8, 4096):
        mat = square_zeros(dim, dtype)
        itemsize = np.dtype(dtype).itemsize
        assert mat.shape == (dim, dim) and mat.dtype == dtype
        assert mat.strides == ((dim + 64 // itemsize) * itemsize, itemsize)
        assert not mat.any()
        mat[-1, -1] = 1  # writeable, and the pad stays out of the view
        assert mat.sum() == 1 and mat[-1, -1] == 1


def test_circuit_matrix_composition_order():
    c1 = Circuit(3, (Not(1), Cn(1, 2)))
    c2 = Circuit(3, (Cn(2, 3),))
    both = Circuit(3, c1.ops + c2.ops)
    assert np.array_equal(circuit_matrix(both),
                          circuit_matrix(c2) @ circuit_matrix(c1))


def test_circuit_matrix_random_against_oracle():
    rng = np.random.default_rng(4)
    n = 5
    for _ in range(10):
        ops = []
        oracle = np.eye(2 ** n)
        for _ in range(8):
            kind = rng.integers(0, 3)
            if kind == 0:
                q = int(rng.integers(1, n + 1))
                ops.append(Not(q))
                oracle = not_matrix(n, q) @ oracle
            elif kind == 1:
                c, t = rng.choice(np.arange(1, n + 1), size=2, replace=False)
                ops.append(Cn(int(c), int(t)))
                oracle = cn_matrix(n, int(c), int(t)) @ oracle
            else:
                block = int(rng.integers(1, n - 1))
                variant = ("literal", "extended")[int(rng.integers(0, 2))]
                ops.append(BlockReset(block, 2, variant))
                oracle = reset_matrix(n, block, 2, variant) @ oracle
        mat = circuit_matrix(Circuit(n, tuple(ops)))
        assert np.array_equal(mat.real, oracle)
        assert np.array_equal(mat.imag, np.zeros_like(oracle))


@settings(max_examples=60, deadline=None)
@given(permutation_runs(max_qubits=10), st.integers(0, 2 ** 32 - 1))
def test_apply_circuit_matches_gate_by_gate(case, seed):
    n, ops = case
    state = random_state(np.random.default_rng(seed), n)
    out = apply_circuit(state, Circuit(n, ops)).amplitudes
    assert np.array_equal(out, gate_by_gate(state, ops).amplitudes)
    # the state executor moves amplitude x to the word executor's image
    images = word_image(n, ops, np.arange(2 ** n, dtype=np.int64))
    assert np.array_equal(out[images], state.amplitudes)


def test_apply_circuit_leaves_input_and_returns_read_only():
    rng = np.random.default_rng(17)
    n = 6
    state = random_state(rng, n)
    before = state.amplitudes.copy()
    cases = {
        "mixed": (Not(1), Cn(1, 4), Cn(2, 5), CollectiveCn(1, 4, 3), Not(6)),
        "collective only": (CollectiveCn(4, 1, 2),),
        "one NOT": (Not(3),),
        "empty": (),
    }
    for ops in cases.values():
        out = apply_circuit(state, Circuit(n, ops))
        assert np.array_equal(out.amplitudes,
                              gate_by_gate(state, ops).amplitudes)
        assert not out.amplitudes.flags.writeable
        with pytest.raises(ValueError):
            out.amplitudes[0] = 0
        assert np.array_equal(state.amplitudes, before)
        assert not state.amplitudes.flags.writeable


@settings(max_examples=30, deadline=None)
@given(circuits(max_qubits=10))
def test_circuit_matrix_stacks_basis_images(circuit):
    n = circuit.n_qubits
    images = [gate_by_gate(StateVector(n, col), circuit.ops).amplitudes
              for col in np.eye(2 ** n)]
    assert np.array_equal(circuit_matrix(circuit), np.array(images).T)


@settings(max_examples=100, deadline=None)
@given(permutation_runs(max_qubits=12))
def test_reversed_run_folds_to_the_inverse(case):
    # every op of a run is an involution (a collective CN's pairwise CNs
    # touch disjoint qubits), so the reversed run undoes the run
    n, run = case
    x = np.arange(2 ** n, dtype=np.int64)
    there = word_image(n, run, x)
    assert np.array_equal(affine_image_by_qubit(
        n, affine_fold(n, tuple(reversed(run))), there), x)


def seeded_words(n, seed):
    """Seeded int64 basis words of n qubits with 0, 2^n - 1 and -1."""
    words = np.random.default_rng(seed).integers(0, 2 ** n, size=64,
                                                  dtype=np.int64)
    words[:3] = 0, 2 ** n - 1, -1
    return words


@settings(max_examples=100, deadline=None)
@given(permutation_runs(max_qubits=63), st.integers(0, 2 ** 32 - 1))
def test_affine_fold_matches_word_image(case, seed):
    # the fold read one qubit at a time against the op-by-op kernel, on
    # words in [0, 2^n): the fold reads -1 as 2^n - 1
    n, run = case
    words = seeded_words(n, seed)
    words = words[words >= 0]
    assert np.array_equal(affine_image_by_qubit(n, affine_fold(n, run), words),
                          word_image(n, run, words))


@settings(max_examples=100, deadline=None)
@given(circuits(max_qubits=63, min_qubits=13), st.integers(0, 2 ** 32 - 1))
def test_word_image_matches_gate_by_gate_on_wide_registers(circuit, seed):
    # registers too wide for the dense oracles, against the per-gate loop
    n, words = circuit.n_qubits, seeded_words(circuit.n_qubits, seed)
    assert word_image(n, circuit.ops, words).tolist() \
        == word_image_by_gate(n, circuit.ops, words.tolist())


@settings(max_examples=200, deadline=None)
@given(circuits(max_qubits=63), st.integers(0, 2 ** 32 - 1))
def test_word_image_on_ints_matches_arrays(circuit, seed):
    # frt-quantum pushes one Python int, the stage check an int64 array
    n, words = circuit.n_qubits, seeded_words(circuit.n_qubits, seed)
    images = [word_image(n, circuit.ops, x) for x in words.tolist()]
    assert all(type(y) is int for y in images)
    assert images == word_image(n, circuit.ops, words).tolist()


def test_word_kernels_refuse_64_qubits():
    # a 64-qubit word does not fit an int64
    ops, words = (Not(1), Cn(1, 64)), np.array([0], dtype=np.int64)
    for x in (words, 0):
        with pytest.raises(DimensionTooLarge, match="64 qubits"):
            word_image(64, ops, x)
        with pytest.raises(DimensionTooLarge, match="64 qubits"):
            word_image(64, (BlockReset(1, 1),), x)


def test_ops_reject_qubits_below_one():
    for make in (lambda: Not(0), lambda: Cn(0, 1), lambda: Cn(1, -1),
                 lambda: CollectiveCn(0, 3, 2), lambda: CollectiveCn(3, 0, 2),
                 lambda: BlockReset(0, 2), lambda: BlockReset(-1, 1)):
        with pytest.raises(ValueError, match="qubits start at 1"):
            make()


def test_block_ops_reject_empty_blocks():
    for make in (lambda: CollectiveCn(1, 3, 0), lambda: BlockReset(1, 0)):
        with pytest.raises(ValueError, match="block_len must be >= 1"):
            make()


def test_non_ops_raise_type_error():
    # a circuit and the word kernel check each op's top qubit; the
    # emitter meets a non-op only in an object that skipped that check
    with pytest.raises(TypeError, match="not a gate op: 'X 1'"):
        Circuit(1, (Not(1), "X 1"))
    with pytest.raises(TypeError, match="not a gate op: 'X 1'"):
        word_image(1, (Not(1), "X 1"), 0)
    with pytest.raises(TypeError, match="not a gate op: 'X 1'"):
        emit_gatelist(SimpleNamespace(ops=(Not(1), "X 1")))


def test_affine_fold_rejects_qubits_above_n():
    # each op reaches qubit 4 of a 3-qubit register
    for op in (Not(4), Cn(4, 1), Cn(1, 4), CollectiveCn(1, 3, 2),
               CollectiveCn(3, 1, 2)):
        with pytest.raises(ValueError, match="out of range for 3 qubits") \
                as info:
            affine_fold(3, [Not(1), op])
        assert repr(op) in str(info.value)
    # ... and the top qubit itself is in range
    assert affine_fold(3, [Not(3), Cn(1, 3)]) == ((5, 2, 1), 1)


def test_word_image_rejects_qubits_above_n():
    # each op reaches qubit 4 of a 3-qubit register
    for op in (Not(4), Cn(1, 4), CollectiveCn(3, 1, 2), BlockReset(3, 2)):
        with pytest.raises(ValueError, match="out of range for 3 qubits"):
            word_image(3, [Not(1), op], 0)
    # ... and the top qubit itself is in range
    ops = (Not(3), Cn(1, 3), BlockReset(2, 2, "literal"))
    assert [word_image(3, ops, x) for x in (0b110, 0b001)] == [0b100, -1]
    # bits above n pass through
    assert word_image(3, ops, 0b1110) == 0b1100


def test_apply_circuit_20_qubits_within_budget():
    rng = np.random.default_rng(2011)
    n = 20
    ops = []
    for _ in range(1000):
        if rng.integers(2):
            ops.append(Not(int(rng.integers(1, n + 1))))
        else:
            c, t = rng.choice(np.arange(1, n + 1), size=2, replace=False)
            ops.append(Cn(int(c), int(t)))
    circuit = Circuit(n, tuple(ops))
    state = random_state(rng, n)
    best = np.inf
    for _ in range(3):
        start = time.perf_counter()
        out = apply_circuit(state, circuit)
        best = min(best, time.perf_counter() - start)
    print(f"apply_circuit, 1000 NOT/CN gates on 20 qubits: {best:.3f} s")
    assert best < 0.5
    # amplitude x lands on the forward image of x
    images = affine_image_by_qubit(n, affine_fold(n, ops),
                                   np.arange(2 ** n, dtype=np.int64))
    assert np.array_equal(out.amplitudes[images], state.amplitudes)


def random_ops(rng, n, count, first):
    """Seeded NOT, CN, CollectiveCn and reset ops of both variants.
    first is "reset" or "gate" for the kind of the first op, or
    "no reset" for a single NOT/CN run."""
    ops = []
    while len(ops) < count:
        kind = int(rng.integers(3 if first == "no reset" else 4))
        if not ops and first == "reset":
            kind = 3
        elif not ops and first == "gate":
            kind = min(kind, 2)
        if kind == 0:
            ops.append(Not(int(rng.integers(1, n + 1))))
        elif kind == 1:
            c, t = rng.choice(np.arange(1, n + 1), size=2, replace=False)
            ops.append(Cn(int(c), int(t)))
        elif kind == 2:
            w = int(rng.integers(1, n // 2 + 1))
            c, t = rng.integers(1, n - w + 2, size=2)
            if abs(int(c) - int(t)) >= w:
                ops.append(CollectiveCn(int(c), int(t), w))
        else:
            w = int(rng.integers(1, 5))
            ops.append(BlockReset(int(rng.integers(1, n - w + 2)), w,
                                  ("literal", "extended")[rng.integers(2)]))
    return tuple(ops)


@pytest.mark.parametrize("first", ["reset", "gate", "no reset"])
@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("n", [13, 14])
def test_apply_circuit_across_gather_chunks(n, seed, first):
    # a gather writes 2^12 outputs at a time, so 13 and 14 qubits split
    # every circuit over 2 and 4 chunks.  A drawn circuit with resets is
    # refused, and its NOT/CN ops then run without them
    rng = np.random.default_rng([n, seed])
    ops = random_ops(rng, n, 30, first)
    state = random_state(rng, n)
    if first != "no reset":
        with pytest.raises(TypeError, match="not a NOT/CN op"):
            apply_circuit(state, Circuit(n, ops))
        ops = tuple(op for op in ops if not isinstance(op, BlockReset))
    assert np.array_equal(apply_circuit(state, Circuit(n, ops)).amplitudes,
                          gate_by_gate(state, ops).amplitudes)


def test_apply_circuit_peak_memory(traced_peak):
    rng = np.random.default_rng(2012)
    n = 20
    state = random_state(rng, n)
    one_run = Circuit(n, random_ops(rng, n, 200, "no reset"))
    out, peak = traced_peak(apply_circuit, state, one_run)
    # the output state and O(2^12) indices, no 2^n index array
    assert peak <= state.amplitudes.nbytes + 2 ** 20
    images = affine_image_by_qubit(n, affine_fold(n, one_run.ops),
                                   np.arange(2 ** n, dtype=np.int64))
    assert np.array_equal(out.amplitudes[images], state.amplitudes)


def test_circuit_matrix_peak_is_the_matrix(traced_peak):
    n = 10
    circuit = Circuit(n, (Not(1), Cn(2, 5), BlockReset(3, 2, "literal"),
                          CollectiveCn(1, 6, 3), Not(10)))
    mat, peak = traced_peak(circuit_matrix, circuit)
    assert peak <= mat.nbytes + 2 ** 20
    # one 1 per column, except the columns the literal reset annihilates
    assert np.count_nonzero(mat) == 2 ** n - 2 ** (n - 2)


def test_circuit_matrix_dimension_limit():
    big = Circuit(15, (Not(1),))
    with pytest.raises(DimensionTooLarge):
        circuit_matrix(big)


@pytest.mark.parametrize("build", [
    lambda: square_zeros(4097, complex),
    lambda: WordMap(1, np.full(16385, -1)).matrix,
    lambda: circuit_matrix(Circuit(13, (Not(1),))),
    lambda: to_dense(HamiltonianSum(13, 1, ())),
], ids=["square_zeros", "WordMap.matrix", "circuit_matrix", "to_dense"])
def test_dense_budget_refuses_before_allocating(build, traced_peak):
    # each is just over the 256 MiB dense budget; the check runs before
    # any 2^n-sized array is built
    def refused():
        with pytest.raises(DimensionTooLarge):
            build()
    _, peak = traced_peak(refused)
    assert peak < 2 ** 20


# -- text formats -----------------------------------------------------------

_GATES = {"X": Not, "CN": Cn, "CCN": CollectiveCn, "RESET": BlockReset}


def read_gatelist(text, n_qubits):
    """The circuit of an emitted gate list, read back without checks."""
    ops = []
    for line in text.splitlines():
        name, *args = line.split()
        ops.append(_GATES[name](*(int(a) if a.isdigit() else a
                                  for a in args)))
    return Circuit(n_qubits, tuple(ops))


def test_gatelist_round_trip():
    text = ("X 3\n"
            "CN 1 4\n"
            "CCN 1 4 3\n"
            "RESET 4 3 literal\n"
            "RESET 1 2 extended\n")
    circuit = Circuit(6, (Not(3), Cn(1, 4), CollectiveCn(1, 4, 3),
                          BlockReset(4, 3, "literal"),
                          BlockReset(1, 2, "extended")))
    assert emit_gatelist(circuit) == text
    assert read_gatelist(text, 6) == circuit
    assert emit_gatelist(Circuit(2, ())) == ""


@settings(max_examples=100, deadline=None)
@given(circuits(max_qubits=10))
def test_gatelist_round_trip_property(circuit):
    # the text names every op and field: reading it back loses nothing
    assert read_gatelist(emit_gatelist(circuit), circuit.n_qubits) == circuit
