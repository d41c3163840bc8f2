import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gate_oracle import embedded
from qsca.errors import NotUnitary
from qsca.qstate import circuit_matrix
from qsca.quantize import build_uf_circuit, build_uf_matrix
from qsca.unitary_compile import (
    _rotation_residual,
    _run_starts,
    _unitarity_residual,
    ReckPlan,
    emit_reck_plan,
    reck_decompose,
    reck_reconstruct,
)


def haar_unitary(n, rng):
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


# -- building blocks --------------------------------------------------------

def test_embedded_rotation_golden():
    swap = np.array([[0.0, 1.0], [1.0, 0.0]])
    want = np.array([[0, 0, 1],
                     [0, 1, 0],
                     [1, 0, 0]], dtype=complex)
    assert np.array_equal(embedded(0, 2, swap, 3), want)
    plan = ReckPlan(3, [(0, 2)], [swap], np.ones(3))
    assert not plan.blocks.flags.writeable
    assert np.array_equal(reck_reconstruct(plan), want)


def test_rotation_and_plan_value_equality():
    swap = np.array([[0.0, 1.0], [1.0, 0.0]])
    one = ReckPlan(3, [(0, 1)], [swap], np.ones(3))
    assert one == ReckPlan(3, [(0, 1)], [swap.copy()], np.ones(3))
    assert hash(one) == hash(ReckPlan(3, [(0, 1)], [swap.copy()], np.ones(3)))
    assert one != ReckPlan(3, [(0, 2)], [swap], np.ones(3))
    assert one != ReckPlan(3, [(0, 1)], [np.eye(2)], np.ones(3))
    assert one != (3, one.modes, one.blocks, one.phases)
    plan = reck_decompose(swap)
    same = reck_decompose(swap)
    assert plan == same and hash(plan) == hash(same)
    assert len({plan, same, reck_decompose(np.eye(2))}) == 2
    # signed zeros compare equal, so they hash equal too
    blocks = plan.blocks.copy()
    blocks[blocks == 0] = complex(-0.0, -0.0)
    signed = ReckPlan(plan.dimension, plan.modes, blocks, plan.phases)
    assert signed.blocks.tobytes() != plan.blocks.tobytes()
    assert signed == plan and hash(signed) == hash(plan)
    assert plan != ReckPlan(2, plan.modes, plan.blocks, -plan.phases)


def plan_of(n, rotations, phases):
    """A plan from (i, j, u) triples, in order."""
    return ReckPlan(n,
                    np.array([(i, j) for i, j, _ in rotations],
                             dtype=np.int64).reshape(-1, 2),
                    np.array([u for _, _, u in rotations],
                             dtype=complex).reshape(-1, 2, 2),
                    phases)


def test_plan_validation():
    rot = (0, 1, np.eye(2))
    with pytest.raises(ValueError):
        plan_of(3, (), np.ones(2))
    with pytest.raises(ValueError):
        plan_of(2, (), np.array([1.0, 2.0]))
    with pytest.raises(ValueError):
        plan_of(2, (rot, rot), np.ones(2))
    with pytest.raises(ValueError):
        plan_of(1, (rot,), np.ones(1))
    # each rotation's gates, 0 <= i < j < n and a unitary block, checked
    # on the arrays at once
    swap = np.array([[0.0, 1.0], [1.0, 0.0]])
    for modes in ([(1, 0)], [(1, 1)], [(-1, 1)], [(0, 3)]):
        with pytest.raises(ValueError):
            ReckPlan(3, modes, [swap], np.ones(3))
    with pytest.raises(ValueError):
        ReckPlan(3, [(0, 1), (1, 2)], [swap], np.ones(3))
    with pytest.raises(NotUnitary):
        ReckPlan(3, [(0, 1), (1, 2)], [swap, np.diag([1.0, 2.0])], np.ones(3))
    with pytest.raises(NotUnitary):
        ReckPlan(3, [(0, 1)], [swap * (1 + 1e-11)], np.ones(3))
    ReckPlan(3, [(0, 1)], [swap * (1 + 1e-13)], np.ones(3))
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError):
            ReckPlan(3, [(0, 1)], [[[bad, 0.0], [0.0, 1.0]]], np.ones(3))
    # shapes and dtypes are checked, not reshaped or cast
    for modes, blocks in (([0, 1, 1, 2], [swap, swap]),
                          ([(0, 1), (1, 2)], swap.ravel().tolist() * 2),
                          ([(0, 1)], [swap.ravel()]),
                          ([(0, 1)], [np.eye(3)]),
                          ([(0.0, 1.0)], [swap]),
                          ([(0.5, 1.0)], [swap]),
                          ([], [])):
        with pytest.raises(ValueError):
            ReckPlan(3, modes, blocks, np.ones(3))
    ReckPlan(3, np.empty((0, 2), dtype=np.int32), np.empty((0, 2, 2)),
             np.ones(3))


def test_plan_arrays_and_rotation_views():
    rng = np.random.default_rng(3)
    rots = [(0, 2, haar_unitary(2, rng)),
            (1, 3, haar_unitary(2, rng)),
            (0, 1, haar_unitary(2, rng))]
    plan = plan_of(4, rots, np.ones(4))
    assert plan.modes.dtype == np.int64 and plan.modes.shape == (3, 2)
    assert plan.blocks.shape == (3, 2, 2)
    for a in (plan.modes, plan.blocks, plan.phases):
        assert not a.flags.writeable
    assert plan.rotations is plan.modes
    for k, (i, j, u) in enumerate(rots):
        assert plan.modes[k].tolist() == [i, j]
        assert np.array_equal(plan.blocks[k], u)


# -- decomposition ----------------------------------------------------------

def test_identity_needs_no_rotations():
    plan = reck_decompose(np.eye(4))
    assert plan.modes.shape == (0, 2)
    assert np.array_equal(plan.phases, np.ones(4))
    assert np.array_equal(reck_reconstruct(plan), np.eye(4))


def test_empty_plan():
    plan = reck_decompose(np.zeros((0, 0)))
    assert plan == ReckPlan(0, np.empty((0, 2), dtype=np.int64),
                            np.empty((0, 2, 2)), np.empty(0))
    assert reck_reconstruct(plan).shape == (0, 0)
    with pytest.raises(ValueError):
        ReckPlan(0, [(0, 1)], [np.eye(2)], np.empty(0))


def test_permutation_gives_short_plan():
    perm = np.eye(4)[[1, 2, 3, 0]]
    plan = reck_decompose(perm)
    assert len(plan.modes) == 3
    assert np.abs(reck_reconstruct(plan) - perm).max() <= 1e-12


def test_rejects_non_unitary():
    with pytest.raises(NotUnitary) as info:
        reck_decompose(np.ones((3, 3)))
    assert info.value.residual > 1.0
    with pytest.raises(NotUnitary):
        reck_decompose(build_uf_matrix(1).matrix)
    with pytest.raises(ValueError):
        reck_decompose(np.ones((2, 3)))


def test_round_trip_random():
    rng = np.random.default_rng(31)
    for n in (2, 3, 5, 8, 13):
        u = haar_unitary(n, rng)
        plan = reck_decompose(u)
        assert len(plan.modes) <= n * (n - 1) // 2
        assert np.abs(reck_reconstruct(plan) - u).max() <= 1e-12


def sequential_decompose(u):
    """Oracle: triangular nulling one rotation at a time, as (modes,
    blocks, phases) arrays."""
    work = np.asarray(u, dtype=complex).copy()
    n = work.shape[0]
    modes, blocks = [], []
    for col in range(n - 1):
        for row in range(n - 1, col, -1):
            b = work[row, col]
            if abs(b) <= 1e-10:
                work[row, col] = 0.0
                continue
            a = work[col, col]
            rho = np.sqrt(abs(a) ** 2 + abs(b) ** 2)
            g = np.array([[np.conj(a), np.conj(b)], [-b, a]]) / rho
            pair = g @ work[[col, row], :]
            work[col, :] = pair[0]
            work[row, :] = pair[1]
            work[row, col] = 0.0
            modes.append((col, row))
            blocks.append(g.conj().T)
    diag = np.diag(work)
    return (np.array(modes, dtype=np.int64).reshape(-1, 2),
            np.array(blocks, dtype=complex).reshape(-1, 2, 2),
            diag / np.abs(diag))


def near_tolerance_target(n, rng):
    """A Haar-like unitary whose first column has a 5e-11 entry, just
    inside the 1e-10 skip tolerance, and an exact zero."""
    first = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    first[-1], first[1] = 0.0, 0.0
    first /= np.linalg.norm(first)
    first[-1] = 5e-11
    raw = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    raw[:, 0] = first
    q, r = np.linalg.qr(raw)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def assert_matches_oracle(u, skipped=0.0):
    """`skipped` bounds the entries the tolerance dropped, which both
    plans leave out of the product."""
    modes, blocks, phases = sequential_decompose(u)
    plan = reck_decompose(u)
    assert np.array_equal(plan.modes, modes)
    assert np.abs(plan.blocks - blocks).max(initial=0.0) <= 1e-12
    assert np.abs(plan.phases - phases).max() <= 1e-12
    out = reck_reconstruct(plan)
    oracle = embedded_product(ReckPlan(len(u), modes, blocks, phases))
    assert np.abs(out - oracle).max() <= 1e-12
    assert np.abs(out - u).max() <= 1e-12 + skipped


@settings(max_examples=30, deadline=None)
@given(n=st.integers(1, 32), seed=st.integers(0, 2**32 - 1))
def test_decompose_matches_sequential_oracle_haar(n, seed):
    assert_matches_oracle(haar_unitary(n, np.random.default_rng(seed)))


@settings(max_examples=40, deadline=None)
@given(perm=st.integers(2, 24).flatmap(lambda n: st.permutations(range(n))),
       signs=st.lists(st.sampled_from([1, -1, 1j, -1j]), min_size=24,
                      max_size=24))
def test_decompose_matches_sequential_oracle_permutations(perm, signs):
    # zero pivots: the diagonal entry of a moved column is 0
    target = np.eye(len(perm))[list(perm)] * np.array(signs[:len(perm)])
    assert_matches_oracle(target)


def test_decompose_circuit_targets_bit_identical_to_oracle():
    # `qsca reck --radius` prints these plans; signed zeros included,
    # the text stays what the sequential nulling printed
    for r in (1, 2, 3):
        u = circuit_matrix(build_uf_circuit(r, r + 1, 2 * r + 1))
        modes, blocks, phases = sequential_decompose(u)
        plan = reck_decompose(u)
        assert np.array_equal(plan.modes, modes)
        assert plan.blocks.tobytes() == blocks.tobytes()
        assert plan.phases.tobytes() == phases.tobytes()


def test_decompose_skips_entries_inside_tolerance():
    rng = np.random.default_rng(11)
    for n in (3, 8, 20):
        u = near_tolerance_target(n, rng)
        assert 0 < abs(u[-1, 0]) <= 1e-10 and u[1, 0] == 0
        assert_matches_oracle(u, skipped=1e-10)
        assert (n - 1, 0) not in map(tuple, reck_decompose(u).modes.tolist())


def test_decompose_n128_within_budget():
    u = haar_unitary(128, np.random.default_rng(128))
    start = time.perf_counter()
    plan = reck_decompose(u)
    elapsed = time.perf_counter() - start
    print(f"reck_decompose n=128: {elapsed:.3f} s")
    assert elapsed < 1.0
    assert len(plan.modes) == 128 * 127 // 2


def embedded_product(plan):
    """Oracle: the plan multiplied out with dense embedded n x n matrices."""
    mat = np.diag(plan.phases).astype(complex)
    for (i, j), u in reversed(list(zip(plan.modes.tolist(), plan.blocks))):
        mat = embedded(i, j, u, plan.dimension) @ mat
    return mat


def random_plan(n, count, rng):
    """Arbitrary (not triangular-nulling) plan of `count` rotations."""
    rotations = []
    for _ in range(count):
        i, j = sorted(rng.choice(n, size=2, replace=False))
        rotations.append((int(i), int(j), haar_unitary(2, rng)))
    phases = np.exp(1j * rng.uniform(0, 2 * np.pi, n))
    return plan_of(n, rotations, phases)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(2, 32), fill=st.floats(0, 1), seed=st.integers(0, 2**32 - 1))
def test_reconstruct_matches_embedded_product(n, fill, seed):
    rng = np.random.default_rng(seed)
    plan = random_plan(n, int(fill * n * (n - 1) // 2), rng)
    assert np.abs(reck_reconstruct(plan) - embedded_product(plan)).max() <= 1e-12


@settings(max_examples=40, deadline=None)
@given(perm=st.integers(2, 32).flatmap(lambda n: st.permutations(range(n))))
def test_reconstruct_matches_embedded_product_permutations(perm):
    target = np.eye(len(perm))[list(perm)]
    plan = reck_decompose(target)
    assert len(plan.modes) < len(perm)
    out = reck_reconstruct(plan)
    assert np.abs(out - embedded_product(plan)).max() <= 1e-12
    assert np.abs(out - target).max() <= 1e-12


def test_run_starts_split_on_pivot_and_repeated_partner():
    modes = np.array([(0, 1), (0, 2), (0, 1), (0, 2), (1, 2), (0, 2),
                      (0, 3)])
    assert _run_starts(modes) == [0, 2, 4, 5]
    assert _run_starts(reck_decompose(haar_unitary(
        5, np.random.default_rng(2))).modes) == [0, 4, 7, 9]
    assert _run_starts(np.empty((0, 2), dtype=np.int64)) == []


@st.composite
def shared_pivot_plans(draw):
    """Runs of rotations on one pivot, partners drawn with repeats."""
    n = draw(st.integers(2, 39))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rotations = []
    while len(rotations) < n * (n - 1) // 2 and draw(st.booleans()):
        i = int(rng.integers(0, n - 1))
        partners = rng.integers(i + 1, n, size=int(rng.integers(1, n)))
        for j in partners[:n * (n - 1) // 2 - len(rotations)]:
            rotations.append((i, int(j), haar_unitary(2, rng)))
    phases = np.exp(1j * rng.uniform(0, 2 * np.pi, n))
    return plan_of(n, rotations, phases)


@settings(max_examples=100, deadline=None)
@given(plan=shared_pivot_plans())
def test_reconstruct_matches_embedded_product_shared_pivots(plan):
    assert np.abs(reck_reconstruct(plan) - embedded_product(plan)).max() \
        <= 1e-12


def test_reconstruct_n128_within_budget():
    rng = np.random.default_rng(128)
    u = haar_unitary(128, rng)
    plan = reck_decompose(u)
    start = time.perf_counter()
    out = reck_reconstruct(plan)
    elapsed = time.perf_counter() - start
    print(f"reck_reconstruct n=128: {elapsed:.3f} s")
    assert elapsed < 1.0
    assert np.abs(out - u).max() <= 1e-10


def test_rejects_nan():
    u = np.eye(3)
    u[1, 1] = np.nan
    with pytest.raises(ValueError):
        reck_decompose(u)
    with pytest.raises(ValueError):
        ReckPlan(2, [(0, 1)], [[[np.nan, 0.0], [0.0, 1.0]]], np.ones(2))
    with pytest.raises(ValueError):
        plan_of(2, (), np.array([np.nan, 1.0]))


def test_rotation_residual_closed_form():
    rng = np.random.default_rng(12)
    blocks = [haar_unitary(2, rng) for _ in range(200)]
    blocks += [u + eps * (rng.standard_normal((2, 2))
                          + 1j * rng.standard_normal((2, 2)))
               for u in blocks[:100] for eps in (1e-13, 1e-9, 0.3)]
    blocks += [rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
               for _ in range(100)]
    blocks += [np.zeros((2, 2)), np.eye(2), np.array([[0, 1j], [1, 0]])]
    for u in blocks:
        want = _unitarity_residual(u)
        assert abs(_rotation_residual(u) - want) <= 1e-15 * max(1.0, want)
    for bad in (np.nan, np.inf, -np.inf, complex(0, np.nan)):
        for k in range(4):
            u = np.eye(2, dtype=complex)
            u.flat[k] = bad
            with pytest.raises(ValueError):
                _rotation_residual(u)
            with pytest.raises(ValueError):
                ReckPlan(2, [(0, 1)], [u], np.ones(2))


def test_partial_products_stay_unitary():
    rng = np.random.default_rng(7)
    u = haar_unitary(6, rng)
    plan = reck_decompose(u)
    partial = np.diag(plan.phases).astype(complex)
    for (i, j), u in reversed(list(zip(plan.modes.tolist(), plan.blocks))):
        partial = embedded(i, j, u, 6) @ partial
        gram = partial.conj().T @ partial
        assert np.abs(gram - np.eye(6)).max() <= 1e-12


def test_circuit_unitary_decomposes():
    for r in (1, 2):
        u = circuit_matrix(build_uf_circuit(r, r + 1, 2 * r + 1))
        plan = reck_decompose(u)
        assert np.abs(reck_reconstruct(plan) - u).max() <= 1e-12


# -- text format ------------------------------------------------------------

def _plan_kinds():
    """Decomposed Haar plans (n <= 16), permutation plans and arbitrary
    plans, each drawn from a seed."""
    seeds = st.integers(0, 2**32 - 1)
    haar = st.tuples(st.integers(1, 16), seeds).map(
        lambda a: reck_decompose(
            haar_unitary(a[0], np.random.default_rng(a[1]))))
    perms = st.integers(1, 16).flatmap(
        lambda n: st.permutations(range(n))).map(
        lambda p: reck_decompose(np.eye(len(p))[list(p)]))
    arbitrary = st.tuples(st.integers(2, 16), st.floats(0, 1), seeds).map(
        lambda a: random_plan(a[0], int(a[1] * a[0] * (a[0] - 1) // 2),
                              np.random.default_rng(a[2])))
    return haar | perms | arbitrary


def read_reck_plan(text):
    """The plan of an emitted text, read back without checks.  Each pair
    of float() values is viewed as one complex, so signed zeros survive."""
    rows = [line.split() for line in text.splitlines()]
    rots = [row[1:] for row in rows if row[0] == "R"]
    phases = [[float(x) for x in row[2:]] for row in rows if row[0] == "P"]
    modes = np.array([(int(i) - 1, int(j) - 1) for i, j, *_ in rots],
                     dtype=np.int64).reshape(-1, 2)
    blocks = np.array([[float(x) for x in row[2:]] for row in rots])
    return ReckPlan(len(phases), modes,
                    blocks.reshape(-1, 8).view(complex).reshape(-1, 2, 2),
                    np.array(phases).view(complex).ravel())


@settings(max_examples=80, deadline=None)
@given(plan=_plan_kinds())
def test_text_round_trip_exact(plan):
    back = read_reck_plan(emit_reck_plan(plan))
    assert back == plan and hash(back) == hash(plan)
    # bit-identical, signed zeros included
    assert back.blocks.tobytes() == plan.blocks.tobytes()
    assert back.phases.tobytes() == plan.phases.tobytes()


def test_emit_golden():
    plan = plan_of(2, (), np.array([1.0, -1.0]))
    assert emit_reck_plan(plan) == "P 1 1 0\nP 2 -1 0\n"
    # a rotation by 0.3 rad; 17 significant digits, signed zeros kept
    c, sn = 0.95533648912560598, 0.29552020666133955
    plan = plan_of(2, [(0, 1, np.array([[c, -sn], [sn, c]]))],
                   np.array([1j, complex(-1.0, -0.0)]))
    assert emit_reck_plan(plan) == (
        "R 1 2 0.95533648912560598 0 -0.29552020666133955 0 "
        "0.29552020666133955 0 0.95533648912560598 0\n"
        "P 1 0 1\n"
        "P 2 -1 -0\n")
