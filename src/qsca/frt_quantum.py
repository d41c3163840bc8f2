"""Block circuit that propagates a particle state across null blocks.

The register is a row of (r+1)-qubit blocks holding a particle
|A1 ... AL O...O⟩.  Stage m applies the collective controlled-NOT from
block m onto each of blocks m+1..m+L (nearest first) and then resets
block m, so a basis input with leading block B and successors C1..CL
becomes |O, B^C1, ..., B^CL⟩.  Running one stage per padding block
walks the particle to the far end: after p stages the state is exactly
the input translated by p blocks.

A basis input stays a basis state: each collective CN xors block m's
bits onto another block of the register index, and the reset clears
block m's bits, or, in the literal variant, annihilates the state when
they are already clear.  So both drivers push the register index
through each stage with `gates.word_image`: run_frt as one Python int,
where -1 marks the annihilated state, and stage_identity_check all its
instances as one int64 array (with numpy imported inside it, so `qsca
frt-quantum` loads no numpy); neither builds a state vector.  Both take
registers up to the 63 qubits of an int64 index, which FrtStagePlan
checks when it is built.  A run report holds the register index after
each stage; blocks are read from an index by shifts only to format a
report.  The closed form every stage is checked against is
`sca_core.frt_pattern`, the function the classical recurrence check
uses, applied to the array of particle words.
"""

from __future__ import annotations

from itertools import product
from math import prod
from typing import TYPE_CHECKING, Sequence

from .errors import Frozen
from .gates import (BlockReset, CollectiveCn, GateOp, check_word_width,
                    word_image)
from .sca_core import BasicString, Particle, format_block, frt_pattern

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "FrtStagePlan",
    "FrtRunReport",
    "StageIdentityReport",
    "run_frt",
    "stage_identity_check",
    "emit_frt_report",
]


class FrtStagePlan(Frozen):
    """Gate schedule of the propagation circuit, on at most 63 qubits."""

    def __init__(self, L: int, padding: int, block_len: int):
        if L < 1 or padding < 1 or block_len < 1:
            raise ValueError("L, padding and block_len must be >= 1")
        self._assign("L", L)
        self._assign("padding", padding)
        self._assign("block_len", block_len)
        check_word_width(self.n_qubits)

    @property
    def n_qubits(self) -> int:
        return (self.L + self.padding) * self.block_len

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


class FrtRunReport(Frozen):
    """indices[m] is the register index after stage m (stage 0 is the
    input), block 1 most significant, or None once the state is
    annihilated."""

    def __init__(self, radius: int, L: int, padding: int, reset_variant: str,
                 indices: tuple[int | None, ...], final_ok: bool):
        self._assign("radius", radius)
        self._assign("L", L)
        self._assign("padding", padding)
        self._assign("reset_variant", reset_variant)
        self._assign("indices", indices)
        self._assign("final_ok", final_ok)


def run_frt(blocks: Sequence, padding: int,
            reset_variant: str = "extended") -> FrtRunReport:
    """Run the full propagation circuit and record each stage.

    The blocks are validated as a `Particle`.  The final check asserts
    the register is exactly the basis index of the input particle
    translated by `padding` blocks.
    """
    particle = Particle(0, tuple(map(BasicString, blocks)))
    word, L, w = particle.word, particle.block_count, particle.block_len
    plan = FrtStagePlan(L, padding, w)

    x = word << padding * w
    indices = [x]
    for m in range(1, padding + 1):
        x = word_image(plan.n_qubits, plan.stage_ops(m, reset_variant), x)
        indices.append(None if x < 0 else x)
    # translated by padding blocks, the particle fills the low L*w bits
    return FrtRunReport(w - 1, L, padding, reset_variant, tuple(indices),
                        indices[-1] == word)


class StageIdentityReport(Frozen):
    """Outcome of a sweep; first_mismatch is (instance words, stage)."""

    def __init__(self, L: int, radius: int, n_instances: int,
                 stages_checked: int, mismatches: int,
                 first_mismatch: tuple[tuple[int, ...], int] | None = None):
        self._assign("L", L)
        self._assign("radius", radius)
        self._assign("n_instances", n_instances)
        self._assign("stages_checked", stages_checked)
        self._assign("mismatches", mismatches)
        self._assign("first_mismatch", first_mismatch)

    @property
    def ok(self) -> bool:
        return self.mismatches == 0 and self.n_instances > 0


def stage_identity_check(L: int, r: int, padding: int | None = None,
                         samples: int = 50,
                         rng: np.random.Generator | None = None
                         ) -> StageIdentityReport:
    """Check every stage's register against the closed-form pattern.

    Exhausts all block assignments when there are at most `samples`,
    otherwise draws seeded random ones (first and last blocks nonzero).
    The register may be up to 63 qubits.
    """
    import numpy as np
    if padding is None:
        padding = L + 1
    w = r + 1
    plan = FrtStagePlan(L, padding, w)
    n_words = 2 ** w
    ends = [range(1, n_words)] * min(L, 2)
    choices = ends[:1] + [range(n_words)] * max(L - 2, 0) + ends[1:]

    if prod(len(c) for c in choices) <= samples:
        instances = list(product(*choices))
    else:
        gen = rng if rng is not None else np.random.default_rng(11)
        instances = [tuple(int(gen.integers(c.start, c.stop)) for c in choices)
                     for _ in range(samples)]

    words = np.array(instances, dtype=np.int64).reshape(-1, L)
    particles = (words << w * np.arange(L - 1, -1, -1)).sum(axis=1)
    bad = np.zeros((len(words), padding), dtype=bool)
    x = particles << padding * w
    for m in range(1, padding + 1):
        x = word_image(plan.n_qubits, plan.stage_ops(m), x)
        want = frt_pattern(particles, m, L, w) << (padding - m) * w
        bad[:, m - 1] = x != want
    first = None
    if bad.any():
        i, m = np.argwhere(bad)[0]
        first = (instances[i], int(m) + 1)
    return StageIdentityReport(L, r, len(words), padding, int(bad.sum()),
                               first)


def emit_frt_report(report: FrtRunReport) -> str:
    """Stage-by-stage block listing, one line per recorded state."""
    w, n_blocks = report.radius + 1, report.L + report.padding
    lines = []
    for m, index in enumerate(report.indices):
        if index is None:
            body = "(not a basis state)"
        else:
            body = " ".join(
                format_block(index >> (n_blocks - 1 - b) * w
                             & ((1 << w) - 1), w)
                for b in range(n_blocks))
        lines.append(f"stage {m}: {body}")
    lines.append("final translated by {} blocks: {}".format(
        report.padding, "ok" if report.final_ok else "MISMATCH"))
    return "\n".join(lines) + "\n"
