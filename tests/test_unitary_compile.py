import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsca.errors import NotUnitary, ParseError
from qsca.qstate import circuit_matrix
from qsca.quantize import build_uf_circuit, build_uf_matrix
from qsca.unitary_compile import (
    EmbeddedRotation,
    _rotation_residual,
    _unitarity_residual,
    ReckPlan,
    emit_reck_plan,
    parse_reck_plan,
    reck_decompose,
    reck_reconstruct,
)


def haar_unitary(n, rng):
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


# -- building blocks --------------------------------------------------------

def test_embedded_rotation_validation():
    with pytest.raises(ValueError):
        EmbeddedRotation(2, 1, np.eye(2))
    with pytest.raises(ValueError):
        EmbeddedRotation(0, 1, np.eye(3))
    with pytest.raises(NotUnitary):
        EmbeddedRotation(0, 1, np.array([[1.0, 0.0], [0.0, 2.0]]))


def test_embedded_rotation_golden():
    swap = EmbeddedRotation(0, 2, np.array([[0.0, 1.0], [1.0, 0.0]]))
    want = np.array([[0, 0, 1],
                     [0, 1, 0],
                     [1, 0, 0]], dtype=complex)
    assert np.array_equal(swap.embedded(3), want)
    assert not swap.u.flags.writeable


def test_plan_validation():
    rot = EmbeddedRotation(0, 1, np.eye(2))
    with pytest.raises(ValueError):
        ReckPlan(3, (), np.ones(2))
    with pytest.raises(ValueError):
        ReckPlan(2, (), np.array([1.0, 2.0]))
    with pytest.raises(ValueError):
        ReckPlan(2, (rot, rot), np.ones(2))
    with pytest.raises(ValueError):
        ReckPlan(1, (rot,), np.ones(1))


# -- decomposition ----------------------------------------------------------

def test_identity_needs_no_rotations():
    plan = reck_decompose(np.eye(4))
    assert plan.rotations == ()
    assert np.array_equal(plan.phases, np.ones(4))
    assert np.array_equal(reck_reconstruct(plan), np.eye(4))


def test_permutation_gives_short_plan():
    perm = np.eye(4)[[1, 2, 3, 0]]
    plan = reck_decompose(perm)
    assert len(plan.rotations) == 3
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
        assert len(plan.rotations) <= n * (n - 1) // 2
        assert np.abs(reck_reconstruct(plan) - u).max() <= 1e-12


def embedded_product(plan):
    """Oracle: the plan multiplied out with dense embedded n x n matrices."""
    mat = np.diag(plan.phases).astype(complex)
    for rot in reversed(plan.rotations):
        mat = rot.embedded(plan.dimension) @ mat
    return mat


def random_plan(n, count, rng):
    """Arbitrary (not triangular-nulling) plan of `count` rotations."""
    rotations = []
    for _ in range(count):
        i, j = sorted(rng.choice(n, size=2, replace=False))
        rotations.append(EmbeddedRotation(int(i), int(j), haar_unitary(2, rng)))
    phases = np.exp(1j * rng.uniform(0, 2 * np.pi, n))
    return ReckPlan(n, tuple(rotations), phases)


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
    assert len(plan.rotations) < len(perm)
    out = reck_reconstruct(plan)
    assert np.abs(out - embedded_product(plan)).max() <= 1e-12
    assert np.abs(out - target).max() <= 1e-12


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
        EmbeddedRotation(0, 1, np.array([[np.nan, 0.0], [0.0, 1.0]]))
    with pytest.raises(ValueError):
        ReckPlan(2, (), np.array([np.nan, 1.0]))


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
                EmbeddedRotation(0, 1, u)


def test_partial_products_stay_unitary():
    rng = np.random.default_rng(7)
    u = haar_unitary(6, rng)
    plan = reck_decompose(u)
    partial = np.diag(plan.phases).astype(complex)
    for rot in reversed(plan.rotations):
        partial = rot.embedded(6) @ partial
        gram = partial.conj().T @ partial
        assert np.abs(gram - np.eye(6)).max() <= 1e-12


def test_circuit_unitary_decomposes():
    for r in (1, 2):
        u = circuit_matrix(build_uf_circuit(r, r + 1, 2 * r + 1))
        plan = reck_decompose(u)
        assert np.abs(reck_reconstruct(plan) - u).max() <= 1e-12


# -- text format ------------------------------------------------------------

def test_text_round_trip_exact():
    rng = np.random.default_rng(13)
    u = haar_unitary(5, rng)
    plan = reck_decompose(u)
    back = parse_reck_plan(emit_reck_plan(plan))
    assert back.dimension == plan.dimension
    assert len(back.rotations) == len(plan.rotations)
    for a, b in zip(plan.rotations, back.rotations):
        assert (a.i, a.j) == (b.i, b.j)
        assert np.array_equal(a.u, b.u)
    assert np.array_equal(back.phases, plan.phases)


def test_emit_golden():
    plan = ReckPlan(2, (), np.array([1.0, -1.0]))
    assert emit_reck_plan(plan) == "P 1 1 0\nP 2 -1 0\n"


def test_parse_errors():
    with pytest.raises(ParseError):
        parse_reck_plan("Q 1 2\n")
    with pytest.raises(ParseError) as info:
        parse_reck_plan("P 1 1 0\nR 2 1 1 0 0 0 0 0 1 0\nP 2 1 0\n")
    assert info.value.line_no == 2
    with pytest.raises(ParseError):
        # non-unitary rotation entries
        parse_reck_plan("R 1 2 1 0 0 0 0 0 2 0\nP 1 1 0\nP 2 1 0\n")
    with pytest.raises(ParseError):
        parse_reck_plan("P 1 1 0\nP 3 1 0\n")
    with pytest.raises(ParseError):
        parse_reck_plan("")
    with pytest.raises(ParseError):
        # phase off the unit circle
        parse_reck_plan("P 1 2 0\n")
    with pytest.raises(ParseError):
        # NaN rotation entry and NaN phase
        parse_reck_plan("R 1 2 nan 0 0 0 0 0 1 0\nP 1 nan 0\nP 2 1 0\n")
    with pytest.raises(ParseError):
        parse_reck_plan("P 1 nan 0\nP 2 1 0\n")
    with pytest.raises(ParseError):
        parse_reck_plan("R 1 2 inf 0 0 0 0 0 1 0\nP 1 1 0\nP 2 1 0\n")
    with pytest.raises(ParseError) as info:
        # a repeated phase line would silently override the first
        parse_reck_plan("P 1 1 0\nP 1 -1 0\nP 2 1 0\n")
    assert info.value.line_no == 2


_PLAN_TOKENS = st.sampled_from(
    ["R", "P", "Q", "0", "1", "2", "3", "-1", "0.5", "nan", "inf", "-inf",
     "1e400", "x", ""])


@settings(max_examples=300, deadline=None)
@given(st.lists(st.lists(_PLAN_TOKENS, max_size=12).map(" ".join), max_size=6))
def test_parser_raises_only_parse_error(lines):
    try:
        plan = parse_reck_plan("\n".join(lines))
    except ParseError:
        return
    assert np.isfinite(plan.phases).all()
