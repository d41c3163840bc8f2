"""Block circuit that propagates a particle state across null blocks.

The register is a row of (r+1)-qubit blocks holding a particle
|A1 ... AL O...O⟩.  Stage m applies the collective controlled-NOT from
block m onto each of blocks m+1..m+L (nearest first) and then resets
block m, so a basis input with leading block B and successors C1..CL
becomes |O, B^C1, ..., B^CL⟩.  Running one stage per padding block
walks the particle to the far end: after p stages the state is exactly
the input translated by p blocks.

Two executors produce identical results.  The `gates` executor applies
the stage ops one gate at a time through the state-vector kernels.  The
`compiled` executor pre-builds each stage as a sparse matrix restricted
to the rows reachable in this run (blocks 1..m null after stage m form
a contiguous index prefix, since earlier blocks are more significant),
which turns a stage into one small sparse matvec; the matrices are
cached and reused across runs of the same geometry.  Large registers
route to `compiled` automatically.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np
from scipy import sparse

from .errors import DimensionTooLarge
from .qstate import (
    BlockReset,
    Circuit,
    CollectiveCn,
    GateOp,
    StateVector,
    apply_block_reset,
    apply_collective_cn,
)
from .sca_core import BasicString

__all__ = [
    "BlockRegister",
    "FrtStagePlan",
    "FrtStageRecord",
    "FrtRunReport",
    "StageIdentityReport",
    "MAX_REGISTER_QUBITS",
    "make_particle_state",
    "frt_stage",
    "run_frt",
    "stage_identity_check",
    "emit_frt_report",
]

_COMPILED_THRESHOLD = 15  # qubits; above this the sparse executor wins
MAX_REGISTER_QUBITS = 24  # one state vector of 2^24 complex amplitudes = 256 MiB


@dataclass(frozen=True)
class BlockRegister:
    """A state vector viewed as n_blocks consecutive (r+1)-qubit blocks."""

    radius: int
    n_blocks: int
    state: StateVector

    def __post_init__(self):
        expected = self.n_blocks * self.block_len
        if self.state.n_qubits != expected:
            raise ValueError(
                f"state has {self.state.n_qubits} qubits, register needs "
                f"{expected}")

    @property
    def block_len(self) -> int:
        return self.radius + 1

    def block_start(self, m: int) -> int:
        """First qubit (1-based) of block m (1-based)."""
        if not 1 <= m <= self.n_blocks:
            raise ValueError(f"block {m} out of range")
        return (m - 1) * self.block_len + 1


@dataclass(frozen=True)
class FrtStagePlan:
    """Gate schedule of the propagation circuit."""

    L: int
    padding: int
    block_len: int

    def __post_init__(self):
        if self.L < 1 or self.padding < 1 or self.block_len < 1:
            raise ValueError("L, padding and block_len must be >= 1")

    @property
    def n_blocks(self) -> int:
        return self.L + self.padding

    @property
    def n_qubits(self) -> int:
        return self.n_blocks * self.block_len

    def stage_ops(self, m: int, reset_variant: str = "extended"
                  ) -> tuple[GateOp, ...]:
        """Ops of stage m: CNs from block m onto m+1..m+L, then the reset."""
        if not 1 <= m <= self.padding:
            raise ValueError(f"stage {m} out of range")
        w = self.block_len

        def start(blk: int) -> int:
            return (blk - 1) * w + 1

        ops: list[GateOp] = [
            CollectiveCn(start(m), start(m + k), w) for k in range(1, self.L + 1)
        ]
        ops.append(BlockReset(start(m), w, reset_variant))
        return tuple(ops)

    def as_circuit(self, reset_variant: str = "extended") -> Circuit:
        """All stages concatenated into one gate list."""
        ops: list[GateOp] = []
        for m in range(1, self.padding + 1):
            ops.extend(self.stage_ops(m, reset_variant))
        return Circuit(self.n_qubits, tuple(ops))


def _coerce_blocks(blocks: Sequence) -> tuple[BasicString, ...]:
    out = tuple(b if isinstance(b, BasicString) else BasicString(tuple(b))
                for b in blocks)
    if not out:
        raise ValueError("need at least one block")
    widths = {len(b.bits) for b in out}
    if len(widths) != 1:
        raise ValueError("blocks must share one length")
    if out[0].is_null or out[-1].is_null:
        raise ValueError("first and last blocks must be nonzero")
    return out


def make_particle_state(blocks: Sequence, padding: int) -> BlockRegister:
    """Basis register |A1 ... AL O^padding⟩."""
    blocks = _coerce_blocks(blocks)
    if padding < 1:
        raise ValueError("padding must be >= 1")
    w = len(blocks[0].bits)
    bits: list[int] = []
    for b in blocks:
        bits.extend(b.bits)
    bits.extend([0] * (padding * w))
    n_blocks = len(blocks) + padding
    if n_blocks * w > MAX_REGISTER_QUBITS:
        raise DimensionTooLarge(
            f"register of {n_blocks * w} qubits exceeds the limit of "
            f"{MAX_REGISTER_QUBITS}")
    amp = np.zeros(2 ** (n_blocks * w), dtype=complex)
    amp[int("".join(str(b) for b in bits), 2)] = 1.0
    return BlockRegister(w - 1, n_blocks,
                         StateVector(n_blocks * w, amp))


def frt_stage(reg: BlockRegister, m: int, L: int,
              reset_variant: str = "extended") -> BlockRegister:
    """Apply one propagation stage through the gate kernels."""
    if m < 1 or m + L > reg.n_blocks:
        raise ValueError(
            f"stage {m} with L={L} exceeds {reg.n_blocks} blocks")
    w = reg.block_len
    state = reg.state
    for k in range(1, L + 1):
        state = apply_collective_cn(state, reg.block_start(m),
                                    reg.block_start(m + k), w)
    state = apply_block_reset(state, reg.block_start(m), w, reset_variant)
    return BlockRegister(reg.radius, reg.n_blocks, state)


@lru_cache(maxsize=8)
def _stage_matrices(block_len: int, L: int, n_blocks: int, variant: str
                    ) -> tuple[sparse.csr_matrix, ...]:
    """Per-stage sparse operators restricted to this run's reachable rows.

    Stage m's output lives on the index prefix where blocks 1..m are
    null, so the matrices are rectangular: stage m maps the length
    2^(q - w(m-1)) prefix onto the length 2^(q - w m) prefix, with w the
    block width in qubits and q the register width.  Row (c', q) pulls
    amplitude from columns (B, c' xor B...B, q) over the leading-block
    words B, which is the collective-CN cascade followed by the reset in
    one gather.
    """
    w = block_len
    padding = n_blocks - L
    jc = 2 ** (w * L)
    b_words = range(2 ** w) if variant == "extended" else range(1, 2 ** w)
    b_words = list(b_words)
    mats = []
    for m in range(1, padding + 1):
        post = 2 ** (w * (n_blocks - m - L))
        cpr = np.arange(jc, dtype=np.int64)
        q = np.arange(post, dtype=np.int64)
        rows_base = (cpr[:, None] * post + q[None, :]).ravel()
        cols = np.empty((rows_base.size, len(b_words)), dtype=np.int64)
        for idx, b in enumerate(b_words):
            mask = 0
            for k in range(L):
                mask |= b << (w * k)
            cols[:, idx] = (((b * jc + (cpr ^ mask))[:, None]) * post
                            + q[None, :]).ravel()
        rows = np.repeat(rows_base, len(b_words))
        data = np.ones(rows.size, dtype=complex)
        shape = (jc * post, (2 ** w) * jc * post)
        mats.append(sparse.csr_matrix((data, (rows, cols.ravel())),
                                      shape=shape))
    return tuple(mats)


@dataclass(frozen=True)
class FrtStageRecord:
    """Register contents after one stage (stage 0 is the input).

    blocks is the decoded block list when the state is a single basis
    component, else None; amplitude is that component's amplitude.
    """

    stage: int
    blocks: tuple[BasicString, ...] | None
    amplitude: complex | None
    state: StateVector | None


@dataclass(frozen=True)
class FrtRunReport:
    radius: int
    L: int
    padding: int
    reset_variant: str
    executor: str
    input_blocks: tuple[BasicString, ...]
    records: tuple[FrtStageRecord, ...]
    final_ok: bool

    @property
    def final_blocks(self) -> tuple[BasicString, ...] | None:
        return self.records[-1].blocks


def _decode_blocks(amp: np.ndarray, n_known_null: int, n_blocks: int,
                   block_len: int):
    """Block list of a single-component vector, or (None, None).

    amp may be a prefix vector; n_known_null leading blocks are implied
    null and prepended to the decoded list.
    """
    hits = np.flatnonzero(amp)
    if hits.size != 1:
        return None, None
    index = int(hits[0])
    width = (n_blocks - n_known_null) * block_len
    bits = [(index >> (width - 1 - i)) & 1 for i in range(width)]
    blocks = [BasicString((0,) * block_len)] * n_known_null
    for b in range(n_blocks - n_known_null):
        blocks.append(BasicString(tuple(bits[b * block_len:(b + 1) * block_len])))
    return tuple(blocks), complex(amp[index])


def run_frt(blocks: Sequence, padding: int, reset_variant: str = "extended",
            executor: str = "auto", keep_states: bool = False) -> FrtRunReport:
    """Run the full propagation circuit and record each stage.

    The final check asserts the state is exactly the basis vector of the
    input particle translated by `padding` blocks.
    """
    blocks = _coerce_blocks(blocks)
    if padding < 1:
        raise ValueError("padding must be >= 1")
    w = len(blocks[0].bits)
    L = len(blocks)
    n_blocks = L + padding
    n_qubits = n_blocks * w
    if executor == "auto":
        executor = "compiled" if n_qubits >= _COMPILED_THRESHOLD else "gates"
    if executor not in ("gates", "compiled"):
        raise ValueError(f"unknown executor {executor!r}")

    reg = make_particle_state(blocks, padding)
    records = [FrtStageRecord(0, blocks + (BasicString((0,) * w),) * padding,
                              1.0 + 0j,
                              reg.state if keep_states else None)]

    if executor == "gates":
        for m in range(1, padding + 1):
            reg = frt_stage(reg, m, L, reset_variant)
            decoded, amp = _decode_blocks(reg.state.amplitudes, 0,
                                          n_blocks, w)
            records.append(FrtStageRecord(
                m, decoded, amp, reg.state if keep_states else None))
    else:
        mats = _stage_matrices(w, L, n_blocks, reset_variant)
        v = np.asarray(reg.state.amplitudes)
        for m in range(1, padding + 1):
            v = mats[m - 1] @ v
            decoded, amp = _decode_blocks(v, m, n_blocks, w)
            state = None
            if keep_states:
                full = np.zeros(2 ** n_qubits, dtype=complex)
                full[:v.size] = v
                state = StateVector(n_qubits, full)
            records.append(FrtStageRecord(m, decoded, amp, state))

    expected = (BasicString((0,) * w),) * padding + blocks
    last = records[-1]
    final_ok = last.blocks == expected and last.amplitude == 1.0
    return FrtRunReport(w - 1, L, padding, reset_variant, executor,
                        blocks, tuple(records), final_ok)


def _predicted_pattern(blocks: tuple[BasicString, ...], m: int
                       ) -> tuple[BasicString, ...]:
    """Closed form for the live blocks after stage m.

    With the cyclic list (O, A1, ..., AL) of length L+1, the blocks
    m+1..m+L hold base ^ next L entries, base being entry m mod L+1.
    """
    L = len(blocks)
    ext = (BasicString((0,) * len(blocks[0].bits)),) + blocks
    base = ext[m % (L + 1)]
    return tuple(base ^ ext[(m + j) % (L + 1)] for j in range(1, L + 1))


@dataclass(frozen=True)
class StageIdentityReport:
    L: int
    radius: int
    n_instances: int
    stages_checked: int
    mismatches: int

    @property
    def ok(self) -> bool:
        return self.mismatches == 0 and self.n_instances > 0


def stage_identity_check(L: int, r: int, padding: int | None = None,
                         samples: int = 50,
                         rng: np.random.Generator | None = None
                         ) -> StageIdentityReport:
    """Check every stage's decoded blocks against the closed-form pattern.

    Exhausts all block assignments when there are at most `samples`,
    otherwise draws seeded random ones (first and last blocks nonzero).
    """
    if padding is None:
        padding = L + 1
    w = r + 1
    n_words = 2 ** w
    interior = L - 2

    def instances():
        total = (n_words - 1) ** 2 * n_words ** max(interior, 0) \
            if L >= 2 else n_words - 1
        if total <= samples:
            def rec(prefix, k):
                if k == L:
                    yield tuple(prefix)
                    return
                first_or_last = k in (0, L - 1)
                for word in range(1 if first_or_last else 0, n_words):
                    yield from rec(prefix + [word], k + 1)
            yield from rec([], 0)
            return
        gen = rng if rng is not None else np.random.default_rng(11)
        for _ in range(samples):
            words = [int(gen.integers(1, n_words))]
            for _ in range(max(interior, 0)):
                words.append(int(gen.integers(0, n_words)))
            if L >= 2:
                words.append(int(gen.integers(1, n_words)))
            yield tuple(words)

    def to_blocks(words):
        return tuple(
            BasicString(tuple((x >> (w - 1 - i)) & 1 for i in range(w)))
            for x in words)

    n_instances = 0
    mismatches = 0
    for words in instances():
        blocks = to_blocks(words)
        n_instances += 1
        report = run_frt(blocks, padding)
        null = BasicString((0,) * w)
        for m in range(1, padding + 1):
            want = ((null,) * m + _predicted_pattern(blocks, m)
                    + (null,) * (padding - m))
            if report.records[m].blocks != want:
                mismatches += 1
    return StageIdentityReport(L, r, n_instances, padding, mismatches)


def emit_frt_report(report: FrtRunReport) -> str:
    """Stage-by-stage block listing, one line per recorded state."""
    lines = []
    for rec in report.records:
        if rec.blocks is None:
            body = "(not a basis state)"
        else:
            body = " ".join(str(b) for b in rec.blocks)
        lines.append(f"stage {rec.stage}: {body}")
    lines.append("final translated by {} blocks: {}".format(
        report.padding, "ok" if report.final_ok else "MISMATCH"))
    return "\n".join(lines) + "\n"
