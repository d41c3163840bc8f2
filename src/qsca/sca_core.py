"""Classical radius-r parity filter automaton.

A configuration is a bi-infinite row of bits with finite support, evolved
by a left-to-right scan: the new value of site n is computed from the r
already-updated cells to its left, the current cell, and the r old cells
to its right.  The window rule is the parity rule

    a'[n] = 1 xor a'[n-r] xor ... xor a'[n-1] xor a[n] xor ... xor a[n+r]

totalized so that an all-zero window stays zero (the quiescent background
is a fixed point).  Equivalently: the new bit is 1 iff the window holds a
positive even number of ones.  That is the parity filter rule of Park,
Steiglitz and Thurston (Physica D 19, 423 (1986)); `step` slides the
window along the row keeping only its count of ones, so a site costs
O(1) whatever the radius, and `next_center` stays as the per-window
reference.

On top of the raw evolution this module provides particle segmentation
into (r+1)-cell blocks (basic strings) and the fast-recurrence predictor:
from the 1-counts of consecutive block differences it computes the times
at which a particle repeats intermediate block patterns and finally
returns, up to translation, to its initial shape.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import NullWordError, ParseError, StepDivergedError

__all__ = [
    "Rule",
    "Configuration",
    "Window",
    "BasicString",
    "Particle",
    "FrtPrediction",
    "FrtTimeCheck",
    "FrtReport",
    "next_center",
    "f_window",
    "step",
    "evolve",
    "parse_particles",
    "frt_predict",
    "frt_check",
    "render_particles",
    "parse_configuration",
    "emit_configuration",
    "ascii_diagram",
    "pbm_diagram",
]


@dataclass(frozen=True)
class Rule:
    """The automaton family parameter: neighborhood half-width."""

    radius: int

    def __post_init__(self):
        if self.radius < 1:
            raise ValueError(f"radius must be >= 1, got {self.radius}")

    @property
    def window_len(self) -> int:
        return 2 * self.radius + 1

    @property
    def block_len(self) -> int:
        """Length of a basic string."""
        return self.radius + 1


@dataclass(frozen=True)
class Configuration:
    """Finite-support row of bits; sites outside the stored range are 0.

    The stored range is canonical: leading and trailing zeros are trimmed
    on construction, so structural equality is configuration equality.
    """

    origin: int
    bits: tuple[int, ...]

    def __post_init__(self):
        bits = tuple(map(int, self.bits))
        if not {0, 1}.issuperset(bits):
            raise ValueError("bits must be 0 or 1")
        if 1 in bits:
            lo = bits.index(1)
            hi = len(bits) - bits[::-1].index(1)
            object.__setattr__(self, "bits", bits[lo:hi])
            object.__setattr__(self, "origin", self.origin + lo)
        else:
            object.__setattr__(self, "bits", ())
            object.__setattr__(self, "origin", 0)

    @property
    def is_empty(self) -> bool:
        return not self.bits

    @property
    def end(self) -> int:
        """Site index of the last stored bit (origin - 1 when empty)."""
        return self.origin + len(self.bits) - 1

    def site(self, n: int) -> int:
        """Bit value at site n, 0 outside the stored range."""
        if self.origin <= n <= self.end:
            return self.bits[n - self.origin]
        return 0

    def shifted(self, k: int) -> "Configuration":
        return Configuration(self.origin + k, self.bits)


EMPTY = Configuration(0, ())


@dataclass(frozen=True)
class Window:
    """One update neighborhood: r updated left bits, old center, r old right bits."""

    left_updated: tuple[int, ...]
    center: int
    right: tuple[int, ...]

    @property
    def bits(self) -> tuple[int, ...]:
        return self.left_updated + (self.center,) + self.right


def next_center(rule: Rule, window: Window) -> int:
    """New center bit for one window; total (all-zero window maps to 0)."""
    bits = window.bits
    if len(bits) != rule.window_len:
        raise ValueError(
            f"window has {len(bits)} bits, expected {rule.window_len}"
        )
    if not any(bits):
        return 0
    parity = 0
    for b in bits:
        parity ^= b
    return 1 ^ parity


def f_window(rule: Rule, word: Sequence[int]) -> tuple[int, ...]:
    """One-step image of a nonzero window word: center bit rewritten.

    Bijective from the nonzero words of length 2r+1 onto all words except
    the single word with zero sides and center 1 (the preimage of the
    null word).  Raises NullWordError on the all-zero word, which is
    excluded from the domain.
    """
    word = tuple(int(b) for b in word)
    if len(word) != rule.window_len:
        raise ValueError(f"word has {len(word)} bits, expected {rule.window_len}")
    if not any(word):
        raise NullWordError("the all-zero word has no image")
    r = rule.radius
    w = Window(word[:r], word[r], word[r + 1:])
    return word[:r] + (next_center(rule, w),) + word[r + 1:]


def step(rule: Rule, config: Configuration, scan_limit: int | None = None
         ) -> Configuration:
    """One full time step of the automaton.

    Scans left to right starting r sites left of the support, updating
    each site from its mixed-time window, and stops once the scan has
    passed the old support and the r most recent new bits are all zero
    (every later window is then all-zero).  scan_limit bounds the number
    of scanned sites; the default allows the old support width plus
    64*(r+1) extra sites, after which StepDivergedError signals a
    configuration outside the finite-support regime.

    The scan keeps only the sliding window's count of ones, so each site
    costs O(1) int operations whatever r is.
    """
    if config.is_empty:
        return config
    r = rule.radius
    bits = config.bits
    if scan_limit is None:
        scan_limit = len(bits) + 64 * (r + 1)
    # old[k] is the old bit of site origin - r + k, all zero from
    # k = len(bits) + r on; new[r + k] is its new bit, after r zeros
    # for the sites left of the scan
    old = (0,) * r + bits + (0,) * (r + 1)
    old_len = len(bits) + r
    new = [0] * r
    ones = sum(old[:r + 1])
    k = 0
    while k < old_len or ones:
        if k >= scan_limit:
            raise StepDivergedError(k)
        bit = 1 if ones and not ones & 1 else 0
        new.append(bit)
        # slide: new bit in, new bit k - r out; old bit k out, k + r + 1 in
        ones += bit - new[k]
        if k < old_len:
            ones += old[k + r + 1] - old[k]
        k += 1
    return Configuration(config.origin - r, tuple(new[r:]))


def evolve(rule: Rule, config: Configuration, steps: int,
           scan_limit: int | None = None) -> list[Configuration]:
    """Iterate step; returns steps+1 configurations starting with the input."""
    if steps < 0:
        raise ValueError("steps must be >= 0")
    rows = [config]
    for t in range(1, steps + 1):
        try:
            rows.append(step(rule, rows[-1], scan_limit=scan_limit))
        except StepDivergedError as err:
            raise StepDivergedError(err.sites_scanned, time_index=t) from None
    return rows


@dataclass(frozen=True)
class BasicString:
    """An (r+1)-bit block; the building unit of particles."""

    bits: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "bits", tuple(int(b) for b in self.bits))

    @property
    def is_null(self) -> bool:
        return not any(self.bits)

    @property
    def weight(self) -> int:
        return sum(self.bits)

    def __xor__(self, other: "BasicString") -> "BasicString":
        if len(self.bits) != len(other.bits):
            raise ValueError("length mismatch")
        return BasicString(tuple(a ^ b for a, b in zip(self.bits, other.bits)))

    def __str__(self) -> str:
        if self.is_null:
            return "O"
        return "".join(str(b) for b in self.bits)


def null_string(rule: Rule) -> BasicString:
    return BasicString((0,) * rule.block_len)


@dataclass(frozen=True)
class Particle:
    """A run of basic strings anchored at a site; first and last are nonzero."""

    start_site: int
    blocks: tuple[BasicString, ...]

    def __post_init__(self):
        if not self.blocks:
            raise ValueError("particle needs at least one block")
        if self.blocks[0].is_null or self.blocks[-1].is_null:
            raise ValueError("first and last blocks must be nonzero")
        lens = {len(b.bits) for b in self.blocks}
        if len(lens) != 1:
            raise ValueError("blocks must share one length")

    @property
    def block_count(self) -> int:
        return len(self.blocks)

    @property
    def width(self) -> int:
        return len(self.blocks) * len(self.blocks[0].bits)

    @property
    def flat_bits(self) -> tuple[int, ...]:
        return tuple(b for blk in self.blocks for b in blk.bits)


def parse_particles(rule: Rule, config: Configuration) -> list[Particle]:
    """Segment the support into particles.

    Each particle is a maximal run of (r+1)-blocks cut at the first
    all-zero block of its own grid; the grid is anchored at the
    particle's leftmost 1, and the next particle re-anchors at the next
    1 after the separator.
    """
    out: list[Particle] = []
    if config.is_empty:
        return out
    w = rule.block_len
    pos = config.origin
    while pos <= config.end:
        while pos <= config.end and config.site(pos) == 0:
            pos += 1
        if pos > config.end:
            break
        anchor = pos
        blocks: list[BasicString] = []
        b = 0
        while True:
            blk = BasicString(tuple(config.site(anchor + b * w + j)
                                    for j in range(w)))
            if blk.is_null:
                break
            blocks.append(blk)
            b += 1
        out.append(Particle(anchor, tuple(blocks)))
        pos = anchor + (b + 1) * w
    return out


def render_particles(rule: Rule, particles: Iterable[Particle]) -> Configuration:
    """Place particles on the empty background at their start sites."""
    placed = sorted(particles, key=lambda p: p.start_site)
    if not placed:
        return EMPTY
    for a, b in zip(placed, placed[1:]):
        if a.start_site + a.width > b.start_site:
            raise ValueError("particles overlap")
    lo = placed[0].start_site
    hi = placed[-1].start_site + placed[-1].width
    bits = [0] * (hi - lo)
    for p in placed:
        for i, bit in enumerate(p.flat_bits):
            bits[p.start_site - lo + i] = bit
    return Configuration(lo, tuple(bits))


@dataclass(frozen=True)
class FrtPrediction:
    """Return times and intermediate block patterns of a particle.

    l_counts[i] is the 1-count of the i-th difference string
    (A1, A1^A2, ..., A(L-1)^AL, AL); return_times are their prefix sums.
    predicted_blocks[m] is the block pattern expected at return_times[m]
    for m < L; at return_times[L] (the period) the original pattern
    recurs.
    """

    l_counts: tuple[int, ...]
    return_times: tuple[int, ...]
    predicted_blocks: tuple[tuple[BasicString, ...], ...]
    period: int


def frt_predict(rule: Rule, particle: Particle) -> FrtPrediction:
    """Fast-recurrence data for a particle.

    The pattern predicted at the m-th return time is
    A(m+1) ^ (A(m+2), ..., AL, O, A1, ..., Am), the base block xored
    into the cyclic rotation of the remaining blocks with the null block
    standing in at the wrap position.
    """
    A = particle.blocks
    L = len(A)
    O = BasicString((0,) * len(A[0].bits))
    diffs = [A[0]] + [A[i] ^ A[i + 1] for i in range(L - 1)] + [A[-1]]
    l_counts = tuple(d.weight for d in diffs)
    times = []
    acc = 0
    for l in l_counts:
        acc += l
        times.append(acc)
    patterns = []
    for m in range(L):
        base = A[m]
        seq = list(A[m + 1:]) + [O] + list(A[:m])
        patterns.append(tuple(base ^ x for x in seq))
    return FrtPrediction(l_counts, tuple(times), tuple(patterns), acc)


@dataclass(frozen=True)
class FrtTimeCheck:
    """Outcome of one predicted-time comparison.

    matched is None when the run was cut short by a detector failure
    before this time; shift is the observed translation when matched.
    """

    time: int
    pattern_index: int
    matched: bool | None
    shift: int | None


@dataclass(frozen=True)
class FrtReport:
    prediction: FrtPrediction
    condition_held: bool
    failed_at: int | None
    checks: tuple[FrtTimeCheck, ...]

    @property
    def all_matched(self) -> bool:
        return self.condition_held and all(c.matched for c in self.checks)


def frt_check(rule: Rule, particle: Particle, horizon: int | None = None
              ) -> FrtReport:
    """Evolve a particle in isolation and compare against its prediction.

    At every step the detector requires the configuration to still be a
    single particle of the original block count (the non-splitting side
    condition); a failure is recorded, not raised, and later comparisons
    are marked not-applicable.  Pattern comparisons are up to
    translation, with the observed shift reported.
    """
    pred = frt_predict(rule, particle)
    if horizon is None:
        horizon = pred.period
    if horizon < pred.period:
        raise ValueError("horizon must cover the period")
    L = len(particle.blocks)

    # expected configurations per predicted time m = 0..L-1, plus the
    # period return of the original pattern; all referenced to the anchor
    expected: dict[int, list[tuple[int, Configuration]]] = {}
    for m in range(L):
        flat = tuple(b for blk in pred.predicted_blocks[m] for b in blk.bits)
        expected.setdefault(pred.return_times[m], []).append(
            (m, Configuration(particle.start_site, flat)))
    expected.setdefault(pred.period, []).append(
        (L, Configuration(particle.start_site, particle.flat_bits)))

    config = render_particles(rule, [particle])
    condition_held = True
    failed_at = None
    checks: list[FrtTimeCheck] = []
    for t in range(1, horizon + 1):
        config = step(rule, config)
        found = parse_particles(rule, config)
        if len(found) != 1 or found[0].block_count != L:
            condition_held = False
            failed_at = t
            break
        for m, want in expected.get(t, ()):
            matched = config.bits == want.bits
            shift = config.origin - want.origin if matched else None
            checks.append(FrtTimeCheck(t, m, matched, shift))
    if not condition_held:
        for t, entries in expected.items():
            if t >= failed_at:
                for m, _ in entries:
                    checks.append(FrtTimeCheck(t, m, None, None))
    checks.sort(key=lambda c: (c.time, c.pattern_index))
    return FrtReport(pred, condition_held, failed_at, tuple(checks))


# -- text formats -----------------------------------------------------------

def parse_configuration(text: str) -> Configuration:
    """Read the two-line format: `origin=<int>` then one row of 0/1 digits.

    Blank lines are skipped; error line numbers count them.
    """
    lines = [(line_no, ln.strip())
             for line_no, ln in enumerate(text.splitlines(), start=1)
             if ln.strip()]
    if not lines or not lines[0][1].startswith("origin="):
        raise ParseError("expected a leading origin=<int> line",
                         line_no=lines[0][0] if lines else 1)
    (line_no, head), *rest = lines
    try:
        origin = int(head[len("origin="):])
    except ValueError:
        raise ParseError("bad origin integer", line_no=line_no) from None
    if not rest:
        return Configuration(origin, ())
    line_no, row = rest[0]
    if set(row) - {"0", "1"}:
        raise ParseError("configuration row must contain only 0/1",
                         line_no=line_no)
    if len(rest) > 1:
        raise ParseError("unexpected line after the configuration row",
                         line_no=rest[1][0])
    return Configuration(origin, tuple(int(c) for c in row))


def emit_configuration(config: Configuration) -> str:
    return "origin={}\n{}\n".format(
        config.origin, "".join(str(b) for b in config.bits))


def _frame(configs: Sequence[Configuration]) -> tuple[int, int]:
    """Common site range [lo, hi) covering every row, at least one column."""
    nonempty = [c for c in configs if not c.is_empty]
    if not nonempty:
        return 0, 1
    lo = min(c.origin for c in nonempty)
    hi = max(c.end for c in nonempty) + 1
    return lo, hi


def ascii_diagram(configs: Sequence[Configuration]) -> str:
    """Space-time diagram, one text row per configuration: `.`=0, `#`=1."""
    lo, hi = _frame(configs)
    rows = []
    for c in configs:
        rows.append("".join("#" if c.site(n) else "." for n in range(lo, hi)))
    return "\n".join(rows) + "\n"


def pbm_diagram(configs: Sequence[Configuration]) -> str:
    """Portable bitmap (P1) with one image row per configuration."""
    lo, hi = _frame(configs)
    lines = ["P1", f"{hi - lo} {len(configs)}"]
    for c in configs:
        lines.append(" ".join("1" if c.site(n) else "0" for n in range(lo, hi)))
    return "\n".join(lines) + "\n"
