import time
from dataclasses import replace

import numpy as np
import pytest

from gate_oracle import basis_state
from qsca.errors import DimensionTooLarge, RadiusError
from qsca.gates import Cn, Not, build_uf_circuit, chain_circuit
from qsca.qstate import circuit_matrix, square_zeros
from qsca.quantize import (
    BasisPartition,
    IsometryReport,
    TransitionOperator,
    WordMap,
    block_form_ok,
    build_uf_matrix,
    check_partial_isometry,
    emit_matrix_csv,
    emit_matrix_triplets,
    parallelism_demo,
    partition_basis,
    represent_blocked,
    total_step,
    window_centers,
)
from qsca.sca_core import Configuration, Rule, step
from rule_oracle import f_window, next_center, site, window_len


def word_bits(x, width):
    return tuple((x >> (width - 1 - i)) & 1 for i in range(width))


def dyad_sum(r):
    """Independent build: sum of |f(x)><x| outer products."""
    rule = Rule(r)
    width = window_len(rule)
    dim = 2 ** width
    mat = np.zeros((dim, dim), dtype=np.int64)
    for x in range(1, dim):
        bits = f_window(rule, word_bits(x, width))
        e_in = np.zeros(dim, dtype=np.int64)
        e_in[x] = 1
        e_out = np.zeros(dim, dtype=np.int64)
        e_out[int("".join(str(b) for b in bits), 2)] = 1
        mat += np.outer(e_out, e_in)
    return mat


def play_gates(n, ops, bits):
    """Bit-level playback of X/CN gates on a single basis word."""
    bits = list(bits)
    for op in ops:
        if isinstance(op, Not):
            bits[op.q - 1] ^= 1
        elif isinstance(op, Cn):
            bits[op.target - 1] ^= bits[op.control - 1]
        else:
            raise AssertionError(op)
    return tuple(bits)


# -- transition matrix ------------------------------------------------------

def test_build_uf_matrix_radius2():
    t_op = build_uf_matrix(2)
    assert t_op.dimension == 32
    assert t_op.matrix.sum() == 31
    assert t_op.null_index == 0b00000
    assert t_op.preimage_index == 0b00100
    # the missing word maps to the null word; the null column is empty
    assert t_op.matrix[0, t_op.preimage_index] == 1
    assert not t_op.matrix[:, t_op.null_index].any()
    assert not t_op.matrix[t_op.preimage_index, :].any()


def test_transition_operator_value_equality():
    t_op = build_uf_matrix(2)
    same = TransitionOperator(2, t_op.image.astype(np.int32))
    assert t_op == build_uf_matrix(2) == same
    assert hash(t_op) == hash(build_uf_matrix(2)) == hash(same)
    assert len({t_op, same, build_uf_matrix(1)}) == 2
    assert t_op != build_uf_matrix(1)
    assert t_op != TransitionOperator(3, t_op.image)
    assert all(t_op != other for other in corrupted_images(t_op))
    assert t_op != (2, t_op.image)
    assert t_op != WordMap(2, t_op.image)  # same image, other type
    with pytest.raises(ValueError):
        t_op.image[1] = 0  # the image is read-only, so the hash holds


def test_build_uf_matrix_matches_dyad_sum():
    for r in (1, 2):
        mat = build_uf_matrix(r).matrix
        assert np.array_equal(mat, dyad_sum(r))
        # rows padded as by square_zeros, and the result is writeable
        assert mat.strides == square_zeros(mat.shape[0], np.int8).strides
        assert mat.dtype == np.int8 and mat.flags.writeable


def test_build_uf_matrix_radius_bounds():
    with pytest.raises(RadiusError):
        build_uf_matrix(0)
    with pytest.raises(RadiusError):
        build_uf_matrix(7)


def test_window_centers_match_next_center():
    for r in range(1, 5):
        rule = Rule(r)
        width = window_len(rule)
        words = np.arange(2 ** width)
        want = [next_center(rule, word_bits(x, width)) for x in words]
        assert window_centers(words).tolist() == want


def test_equivariance_with_window_map():
    # applying the matrix to a word state gives the stepped word state
    for r in (1, 2, 3):
        rule = Rule(r)
        width = window_len(rule)
        mat = build_uf_matrix(r).matrix
        for x in range(1, 2 ** width):
            out = mat @ basis_state(word_bits(x, width)).amplitudes
            want = basis_state(f_window(rule, word_bits(x, width))).amplitudes
            assert np.array_equal(out, want)


def test_partial_isometry_identities():
    for r in (1, 2, 3):
        report = check_partial_isometry(build_uf_matrix(r))
        assert report.range_residual == 0
        assert report.support_residual == 0
        assert report.norm_deviation <= 1e-12
        assert report.ok


def corrupted_images(t_op):
    """U with two words sharing an image, a dropped image, and an image
    for the null word."""
    col = t_op.dimension // 2 + 1
    shared = t_op.image.copy()
    shared[col] = shared[col + 1]
    dropped = t_op.image.copy()
    dropped[col] = -1
    null_mapped = t_op.image.copy()
    null_mapped[t_op.null_index] = t_op.preimage_index
    return [TransitionOperator(t_op.radius, image)
            for image in (shared, dropped, null_mapped)]


def test_partial_isometry_detects_corruption():
    for corrupted in corrupted_images(build_uf_matrix(1)):
        report = check_partial_isometry(corrupted)
        assert not report.ok
        assert report.range_residual > 0 or report.support_residual > 0


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_isometry_report_rejects_nan_deviation(bad):
    # a tolerance gate must not pass a deviation that compares false
    assert IsometryReport(0, 0, 0.0).ok
    assert not IsometryReport(0, 0, bad).ok


def dense_isometry_report(t_op, samples=20):
    """Oracle: dense int64 products and dense float matvecs."""
    mat = t_op.matrix.astype(np.int64)
    range_target = np.eye(t_op.dimension, dtype=np.int64)
    range_target[t_op.preimage_index, t_op.preimage_index] = 0
    support_target = np.eye(t_op.dimension, dtype=np.int64)
    support_target[t_op.null_index, t_op.null_index] = 0
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(samples):
        v = rng.standard_normal(t_op.dimension) \
            + 1j * rng.standard_normal(t_op.dimension)
        v[t_op.null_index] = 0.0
        worst = max(worst, abs(np.linalg.norm(mat @ v) - np.linalg.norm(v)))
    return (int(np.abs(mat @ mat.T - range_target).max()),
            int(np.abs(mat.T @ mat - support_target).max()), worst)


def test_count_residuals_match_dense_products():
    for r in (1, 2, 3):
        t_op = build_uf_matrix(r)
        for candidate in [t_op] + corrupted_images(t_op):
            report = check_partial_isometry(candidate)
            want_range, want_support, want_norm = \
                dense_isometry_report(candidate)
            assert report.range_residual == want_range
            assert report.support_residual == want_support
            assert abs(report.norm_deviation - want_norm) <= 1e-12
            assert report.ok == (candidate is t_op)


def radius8_images():
    """U at r = 8 built by hand (build_uf_matrix stops at MAX_RADIUS)."""
    words = np.arange(2 ** 17, dtype=np.int64)
    image = (words & ~(1 << 8)) | (window_centers(words) << 8)
    image[0] = -1
    return TransitionOperator(8, image)


def test_partial_isometry_exact_norms_at_radius8():
    # sampled norms are summed independently of order, so an exact
    # partial permutation deviates by exactly 0 at any radius
    t_op = radius8_images()
    start = time.perf_counter()
    report = check_partial_isometry(t_op)
    elapsed = time.perf_counter() - start
    print(f"check_partial_isometry r=8: {elapsed:.3f} s")
    assert report.range_residual == 0 and report.support_residual == 0
    assert report.norm_deviation == 0.0
    assert report.ok
    assert elapsed < 5.0
    for corrupted in corrupted_images(t_op):
        assert not check_partial_isometry(corrupted).ok


def test_partial_isometry_radius6_within_budget():
    start = time.perf_counter()
    report = check_partial_isometry(build_uf_matrix(6))
    elapsed = time.perf_counter() - start
    print(f"build + check_partial_isometry r=6: {elapsed:.3f} s")
    assert report.ok
    assert report.range_residual == 0 and report.support_residual == 0
    assert elapsed < 5.0


# -- basis partition and block form -----------------------------------------

def test_partition_radius1_order():
    part = partition_basis(1)
    assert part.invariant_words.tolist() == [1, 3, 4, 6]
    assert part.flipped_words.tolist() == [0, 5, 7, 2]
    for words in (part.invariant_words, part.flipped_words):
        assert words.dtype == np.int64 and not words.flags.writeable
    assert part == partition_basis(1)
    assert hash(part) == hash(partition_basis(1))


def test_partition_covers_basis():
    for r in (1, 2, 3):
        part = partition_basis(r)
        rule = Rule(r)
        width = window_len(rule)
        words = set(part.invariant_words) | set(part.flipped_words)
        assert len(part.invariant_words) == 2 ** (2 * r)
        assert len(words) == 2 ** width
        # invariant words are the fixed points; flipped words pair with
        # their center-flips
        for x in part.invariant_words:
            w = word_bits(x, width)
            assert f_window(rule, w) == w
        for x in part.flipped_words:
            w = word_bits(x, width)
            if any(w):
                flip = w[:r] + (1 - w[r],) + w[r + 1:]
                assert f_window(rule, w) == flip


def test_blocked_form_radius1_golden():
    blocked = represent_blocked(build_uf_matrix(1), partition_basis(1))
    want = np.zeros((8, 8), dtype=np.int8)
    want[:4, :4] = np.eye(4)
    want[4, 7] = want[5, 6] = want[6, 5] = 1
    assert np.array_equal(blocked, want)


def test_blocked_form_radius2():
    blocked = represent_blocked(build_uf_matrix(2), partition_basis(2))
    want = np.zeros((32, 32), dtype=np.int8)
    want[:16, :16] = np.eye(16)
    for k in range(15):
        want[16 + k, 31 - k] = 1
    assert np.array_equal(blocked, want)


def test_blocked_form_matches_dense_permutation():
    for r in range(1, 5):
        t_op = build_uf_matrix(r)
        part = partition_basis(r)
        order = np.concatenate((part.invariant_words, part.flipped_words))
        blocked = represent_blocked(t_op, part)
        assert np.array_equal(blocked, t_op.matrix[np.ix_(order, order)])
        assert blocked.strides == square_zeros(order.size, np.int8).strides
        assert blocked.dtype == np.int8 and blocked.flags.writeable


def block_form_target(dim, k):
    """diag(I_k, antidiag(1, ..., 1, 0)), dense: the oracle that the
    word-level verdict of block_form_ok is compared against."""
    want = np.zeros((dim, dim), dtype=np.int8)
    want[np.arange(k), np.arange(k)] = 1
    want[np.arange(k, dim - 1), np.arange(dim - 1, k, -1)] = 1
    return want


def test_block_form_verdict_matches_dense_target():
    for r in range(1, 5):
        t_op = build_uf_matrix(r)
        part = partition_basis(r)
        dim, k = t_op.dimension, len(part.invariant_words)
        assert k == 2 ** (2 * r)
        flipped = part.flipped_words
        # the natural word order leaves U as it is; a rotated flipped
        # list misplaces every antidiagonal entry
        natural = BasisPartition(r, range(k), range(k, dim))
        rotated = BasisPartition(r, part.invariant_words,
                                 np.roll(flipped, -1))
        for partition, ok in ((part, True), (natural, False),
                              (rotated, False)):
            dense = np.array_equal(represent_blocked(t_op, partition),
                                   block_form_target(dim, k))
            assert block_form_ok(t_op, partition) == dense == ok


def test_blocked_form_stable_under_repartition():
    t_op = build_uf_matrix(2)
    first = represent_blocked(t_op, partition_basis(2))
    second = represent_blocked(t_op, partition_basis(2))
    assert np.array_equal(first, second)


# -- circuit factorization --------------------------------------------------

def test_build_uf_circuit_gate_order():
    circuit = build_uf_circuit(2, 3, 5)
    assert circuit.ops == (Cn(1, 3), Cn(2, 3), Cn(4, 3), Cn(5, 3), Not(3))
    edge = build_uf_circuit(2, 1, 5)
    assert edge.ops == (Cn(2, 1), Cn(3, 1), Not(1))
    with pytest.raises(ValueError):
        build_uf_circuit(2, 6, 5)


def test_circuit_factorization_exact():
    for r in (1, 2, 3):
        t_op = build_uf_matrix(r)
        mat = circuit_matrix(build_uf_circuit(r, r + 1, 2 * r + 1))
        assert np.array_equal(mat.imag, np.zeros_like(mat.real))
        projected = mat.real.copy()
        projected[:, t_op.null_index] = 0
        assert np.array_equal(projected.astype(np.int8), t_op.matrix)


def test_circuit_on_vacuum_word():
    circuit = build_uf_circuit(2, 3, 5)
    out = circuit_matrix(circuit) @ basis_state((0,) * 5).amplitudes
    assert np.array_equal(out, basis_state((0, 0, 1, 0, 0)).amplitudes)


# -- whole-chain step -------------------------------------------------------

def test_total_step_shift_covariant_subcircuits():
    n = 9
    for r in (1, 2):
        for site in range(r + 1, n - r):
            a = build_uf_circuit(r, site, n).ops
            b = build_uf_circuit(r, site + 1, n).ops
            shifted = []
            for op in a:
                if isinstance(op, Not):
                    shifted.append(Not(op.q + 1))
                else:
                    shifted.append(Cn(op.control + 1, op.target + 1))
            assert tuple(shifted) == b


def test_total_step_circuit_concatenates_sites():
    circuit = chain_circuit(2, 6)
    want = []
    for site in range(1, 7):
        want.extend(build_uf_circuit(2, site, 6).ops)
    assert circuit.ops == tuple(want)


def test_total_step_circuit_vacuum_image():
    # the unitary reading does not fix the vacuum: each unconditional
    # NOT fires unless an earlier new 1 sits within reach, leaving a 1
    # every r+1 sites
    for r, n in ((1, 5), (2, 5), (2, 7)):
        circuit = chain_circuit(r, n)
        out = circuit_matrix(circuit) @ basis_state((0,) * n).amplitudes
        got = word_bits(int(np.flatnonzero(out)[0]), n)
        assert got == play_gates(n, circuit.ops, (0,) * n)
        assert got == tuple(1 if i % (r + 1) == 0 else 0 for i in range(n))


def test_total_step_isometry_fixes_vacuum():
    step_map = total_step(2, 8, "partial_isometry")
    assert isinstance(step_map, WordMap) and step_map.radius == 2
    assert step_map.image[0] == 0


def test_total_step_isometry_matches_classical_scan():
    # words whose support stays clear of the right boundary evolve
    # exactly as on the infinite lattice
    rule = Rule(2)
    n = 12
    step_image = total_step(2, n, "partial_isometry").image
    for x in range(32):
        config = Configuration(4, word_bits(x, 5))
        word = sum(site(config, s) << (n - s) for s in range(1, n + 1))
        image = int(step_image[word])
        stepped = step(rule, config)
        want = sum(site(stepped, s) << (n - s) for s in range(1, n + 1))
        if not stepped.is_empty:
            assert stepped.origin >= 1 and stepped.end <= n
        assert image == want


def test_total_step_isometry_columns_are_units():
    step_map = total_step(1, 6, "partial_isometry")
    assert step_map.dimension == 2 ** 6
    assert (step_map.image >= 0).all()
    # the sparse export: one entry per column, at the image
    op = step_map.tocsc()
    assert op.format == "csc" and op.shape == (2 ** 6, 2 ** 6)
    assert np.array_equal(np.diff(op.indptr), np.ones(2 ** 6, dtype=int))
    assert np.array_equal(op.indices, step_map.image)
    assert np.array_equal(op.data, np.ones(2 ** 6))
    assert np.array_equal(op.toarray(), step_map.matrix)
    t_op = build_uf_matrix(2)  # the null word's column is empty
    assert np.array_equal(t_op.tocsc().toarray(), t_op.matrix)


def test_total_step_chain_step_shares_images():
    # a documented finding, not a design target: the totalized factors
    # U + |0><0| are not injective, so neither is their composition
    for r in (1, 2, 3):
        want = [1] * (r + 1)  # a(n) for n = -r..0
        for n in range(1, 15):
            want.append(want[-1] + want[-r - 1])
            counts = np.bincount(total_step(r, n, "partial_isometry").image,
                                 minlength=2 ** n)
            assert counts.max() == want[-1], (r, n)
            if (r, n) == (1, 14):
                assert int((counts == 0).sum()) == 13_226
        assert want[-1] == {1: 987, 2: 277, 3: 131}[r]


def test_total_step_validation():
    with pytest.raises(ValueError):
        total_step(2, 6, "both")
    with pytest.raises(DimensionTooLarge):
        total_step(2, 15, "partial_isometry")
    with pytest.raises(ValueError, match="unknown mode"):
        total_step(2, 6, "unitary_circuit")
    for n_sites in (0, -1):
        with pytest.raises(ValueError, match="n_sites"):
            total_step(2, n_sites, "partial_isometry")
        with pytest.raises(ValueError, match="n_sites"):
            chain_circuit(2, n_sites)
    with pytest.raises(RadiusError):
        chain_circuit(0, 6)


# -- superposition update ---------------------------------------------------

def test_parallelism_radius2():
    report = parallelism_demo(2)
    assert report.applications == 1
    assert report.image_count == 31
    assert report.expected_amplitude == pytest.approx(1 / np.sqrt(31),
                                                      abs=1e-15)
    assert report.max_deviation <= 1e-12
    assert abs(report.norm - 1.0) <= 1e-12
    assert report.ok


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_parallelism_report_rejects_nan(bad):
    # a NaN (or infinite) deviation or norm fails the gate
    report = parallelism_demo(1)
    assert report.ok
    assert not replace(report, max_deviation=bad).ok
    assert not replace(report, norm=bad).ok
    assert not replace(report, max_deviation=bad, norm=bad).ok


def test_parallelism_image_misses_only_preimage_word():
    t_op = build_uf_matrix(2)
    out = t_op.matrix.astype(float) @ \
        np.where(np.arange(32) == 0, 0, 1 / np.sqrt(31))
    assert out[t_op.preimage_index] == 0
    hits = np.flatnonzero(out)
    assert hits.size == 31
    assert np.allclose(out[hits], 1 / np.sqrt(31))


# -- text formats -----------------------------------------------------------

def test_emit_matrix_triplets_golden():
    # rows ascend, and columns ascend within a row
    word_map = WordMap(1, [1, 0, -1, 0])
    assert emit_matrix_triplets(word_map) == "1 2 1\n1 4 1\n2 1 1\n"
    assert emit_matrix_triplets(WordMap(1, [-1, -1])) == ""


def test_emit_matrix_csv():
    assert emit_matrix_csv(np.eye(2, dtype=np.int8)) == "1,0\n0,1\n"
    with pytest.raises(DimensionTooLarge):
        emit_matrix_csv(np.zeros((5000, 5000), dtype=np.int8))
