"""Release gate: one test per headline property, at full tolerance.

Every check here must pass before a release.  Time limits are generous
on purpose; they catch accidental blowups, not small regressions.
Quantities that are measured but not pinned (the literal-generator
distances, the sum-versus-product gap) are printed so they land in the
run log.
"""

import time

import numpy as np

from gate_oracle import basis_state
from qsca.frt_quantum import stage_identity_check
from qsca.qstate import (
    Circuit,
    Cn,
    Not,
    apply_circuit,
    circuit_matrix,
)
from qsca.quantize import (
    build_uf_circuit,
    build_uf_matrix,
    check_partial_isometry,
    parallelism_demo,
    partition_basis,
    represent_blocked,
)
from qsca.sca_core import BasicString, Particle, Rule, frt_check
from qsca.spin_chain import (
    build_chain_hamiltonian,
    build_site_hamiltonian,
    exp_i_pi,
    generator_cn,
    generator_not,
    sum_product_gap,
    to_dense,
)
from qsca.unitary_compile import reck_decompose, reck_reconstruct


def test_01_blocked_form_is_identity_plus_flip():
    start = time.perf_counter()
    blocked = represent_blocked(build_uf_matrix(2), partition_basis(2))
    want = np.zeros((32, 32), dtype=blocked.dtype)
    want[:16, :16] = np.eye(16, dtype=blocked.dtype)
    for idx in range(15):
        want[16 + idx, 31 - idx] = 1
    assert np.array_equal(blocked, want)
    assert time.perf_counter() - start < 1.0


def test_02_partial_isometry_residuals_exactly_zero():
    start = time.perf_counter()
    for r in (1, 2, 3):
        report = check_partial_isometry(build_uf_matrix(r))
        assert report.range_residual == 0
        assert report.support_residual == 0
        assert report.ok
    assert time.perf_counter() - start < 1.0


def test_03_gate_factorization_reproduces_matrix():
    start = time.perf_counter()
    for r in (1, 2, 3):
        t_op = build_uf_matrix(r)
        mat = circuit_matrix(build_uf_circuit(r, r + 1, 2 * r + 1))
        assert np.abs(mat.imag).max() == 0.0
        work = mat.real.copy()
        work[:, t_op.null_index] = 0.0
        assert np.array_equal(work.astype(t_op.matrix.dtype), t_op.matrix)
    assert time.perf_counter() - start < 2.0


def test_04_block_propagation_stage_patterns_exact():
    start = time.perf_counter()
    pairs = stage_identity_check(2, 1, padding=3, samples=9)
    assert pairs.ok and pairs.n_instances == 9
    sampled = stage_identity_check(3, 2, padding=4, samples=100,
                                   rng=np.random.default_rng(404))
    assert sampled.ok and sampled.n_instances == 100
    assert time.perf_counter() - start < 10.0


def test_05_generator_exponentials_reproduce_gates():
    x_gate = np.array([[0, 1], [1, 0]], dtype=complex)
    cn_gate = np.eye(4, dtype=complex)[[0, 1, 3, 2]]
    got_not = exp_i_pi(generator_not("verified"))
    got_cn = exp_i_pi(generator_cn("verified"))
    assert np.abs(got_not - x_gate).max() <= 1e-10
    assert np.abs(got_cn - cn_gate).max() <= 1e-10
    lit_not = exp_i_pi(generator_not("literal"))
    lit_cn = exp_i_pi(generator_cn("literal"))
    print("literal NOT distance from gate:",
          f"{np.abs(lit_not - x_gate).max():.6f}")
    print("literal CN distance from gate:",
          f"{np.abs(lit_cn - cn_gate).max():.6f}")
    assert np.abs(lit_cn - np.eye(4)).max() <= 1e-10


def test_06_chain_hamiltonian_structure():
    for r in (1, 2, 3):
        h = build_chain_hamiltonian(12, r)
        dense = to_dense(h)
        assert np.abs(dense - dense.T).max() == 0.0
        for term in h.terms:
            assert len(term.support) <= 2
            if len(term.support) == 2:
                assert term.support[1] - term.support[0] <= r
    n, r = 12, 2
    for i in range(r + 1, n - r - 1):
        here = build_site_hamiltonian(i, r, n)
        there = build_site_hamiltonian(i + 1, r, n)
        shifted = sorted(
            (t.coefficient, tuple((s + 1, op) for s, op in t.factors))
            for t in here.terms)
        assert shifted == sorted((t.coefficient, t.factors)
                                 for t in there.terms)
    report = sum_product_gap(8, 2)
    print(f"sum-vs-product gap at 8 sites: {report.sum_vs_product:.6f}")
    print(f"product-vs-circuit gap at 8 sites: "
          f"{report.product_vs_circuit:.3e}")


def test_07_superposition_updates_in_one_application():
    report = parallelism_demo(2)
    assert report.applications == 1
    assert report.image_count == 31
    assert report.expected_amplitude == 1 / np.sqrt(31)
    assert report.max_deviation <= 1e-12
    assert abs(report.norm - 1.0) <= 1e-12
    t_op = build_uf_matrix(2)
    psi = np.full(32, 1 / np.sqrt(31))
    psi[t_op.null_index] = 0.0
    image = t_op.matrix.astype(float) @ psi
    support = set(np.flatnonzero(image))
    assert len(support) == 31 and t_op.preimage_index not in support


def test_08_sampled_particles_recur_on_schedule():
    rng = np.random.default_rng(808)
    rule = Rule(2)
    passes = 0
    for _ in range(3000):
        if passes >= 50:
            break
        L = int(rng.integers(1, 4))
        words = [int(rng.integers(1, 8))]
        for _ in range(L - 2):
            words.append(int(rng.integers(0, 8)))
        if L > 1:
            words.append(int(rng.integers(1, 8)))
        blocks = tuple(
            BasicString(tuple((x >> (2 - i)) & 1 for i in range(3)))
            for x in words)
        report = frt_check(rule, Particle(0, blocks))
        if report.condition_held:
            passes += 1
            assert report.all_matched
    assert passes >= 50


def test_09_mesh_decomposition_within_tolerance():
    rng = np.random.default_rng(909)
    for n in (2, 4, 8, 16, 32):
        for _ in range(20):
            raw = rng.standard_normal((n, n)) \
                + 1j * rng.standard_normal((n, n))
            u, _ = np.linalg.qr(raw)
            plan = reck_decompose(u)
            assert np.abs(reck_reconstruct(plan) - u).max() <= 1e-9
    for r in (1, 2):
        u = circuit_matrix(build_uf_circuit(r, r + 1, 2 * r + 1))
        plan = reck_decompose(u)
        assert np.abs(reck_reconstruct(plan) - u).max() <= 1e-9


def test_10_large_instances_within_time_budget():
    rng = np.random.default_rng(1010)
    n = 20
    ops = []
    for _ in range(1000):
        if rng.integers(2):
            ops.append(Not(int(rng.integers(1, n + 1))))
        else:
            c = int(rng.integers(1, n + 1))
            t = int(rng.integers(1, n))
            if t >= c:
                t += 1
            ops.append(Cn(c, t))
    circuit = Circuit(n, tuple(ops))
    state = basis_state((0,) * n)
    start = time.perf_counter()
    state = apply_circuit(state, circuit)
    assert time.perf_counter() - start < 5.0
    assert abs(np.linalg.norm(state.amplitudes) - 1.0) <= 1e-9

    start = time.perf_counter()
    assert check_partial_isometry(build_uf_matrix(3)).ok
    assert time.perf_counter() - start < 1.0


def test_10_sum_product_gap_within_time_budget():
    start = time.perf_counter()
    for r in (1, 2, 3, 4):
        for variant in ("literal", "verified"):
            report = sum_product_gap(8, r, variant)
            assert np.isfinite(report.sum_vs_product)
    assert time.perf_counter() - start < 1.0
