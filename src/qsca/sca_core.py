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
reference.  A step is the old row shifted r sites left, xor greedy
marks at least r + 1 sites apart, so the new row lies within origin - r
.. the old row's last site and `step` scans just those (proof there).

Particles are runs of (r+1)-cell blocks (basic strings) held as int
words: a block is an int of r+1 bits, a particle of L blocks an int of
L(r+1) bits, A1 most significant.  The fast recurrence (Papatheodorou,
Ablowitz & Saridakis, Stud. Appl. Math. 79, 173 (1988)) takes the return
times from the 1-counts of consecutive block differences; `frt_pattern`
gives the pattern after k returns with bit operators alone, for
`frt_check` here and for the propagation circuit check in `frt_quantum`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate
from typing import Iterable, Sequence

from .errors import NullWordError, ParseError, StepDivergedError, parse_int

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
    "as_word",
    "format_block",
    "frt_pattern",
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
        self._set_trimmed(self.origin, bits)

    @classmethod
    def _trusted(cls, origin: int, bits: Sequence[int]) -> "Configuration":
        """A row from bits known to be 0/1 ints: trimmed, not validated."""
        config = object.__new__(cls)
        config._set_trimmed(origin, bits)
        return config

    def _set_trimmed(self, origin: int, bits: Sequence[int]) -> None:
        if 1 in bits:
            lo = bits.index(1)
            hi = len(bits) - bits[::-1].index(1)
            object.__setattr__(self, "bits", tuple(bits[lo:hi]))
            object.__setattr__(self, "origin", origin + lo)
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
        return Configuration._trusted(self.origin + k, self.bits)


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


def step(rule: Rule, config: Configuration) -> Configuration:
    """One full time step of the automaton.

    Scans left to right over the len(bits) + r sites from r left of the
    support to its last site, updating each site from its mixed-time
    window; no site outside that range can turn on.  Write a for the old
    row, b for the new one and e[m] = b[m] ^ a[m + r].  If e[n-r..n-1]
    are all 0, the window count at n is 2(a[n] + ... + a[n+r-1]) +
    a[n+r], so e[n] = 1 exactly when a[n..n+r] is nonzero.  If one of
    them is 1, the count is odd when a[n+r] = 0 and positive and even
    when a[n+r] = 1, so e[n] = 0.  Hence b is a shifted r sites left,
    xor greedy marks at least r + 1 apart, and past the old support a
    window holds at most one 1 and never a positive even count: the new
    row lies within origin - r .. the old row's last site.

    The scan keeps only the sliding window's count of ones, so each site
    costs O(1) int operations whatever r is.
    """
    if config.is_empty:
        return config
    r = rule.radius
    bits = config.bits
    # old[k] is the old bit of site origin - r + k; new[r + k] is its new
    # bit, after r zeros for the sites left of the scan
    old = (0,) * r + bits + (0,) * (r + 1)
    new = [0] * r
    ones = sum(old[:r + 1])
    for k in range(len(bits) + r):
        bit = 1 if ones and not ones & 1 else 0
        new.append(bit)
        # slide: new bit in, new bit k - r out; old bit k out, k + r + 1 in
        ones += bit - new[k] + old[k + r + 1] - old[k]
    return Configuration._trusted(config.origin - r, new[r:])


def evolve(rule: Rule, config: Configuration, steps: int
           ) -> list[Configuration]:
    """Iterate step; returns steps+1 configurations starting with the input."""
    if steps < 0:
        raise ValueError("steps must be >= 0")
    rows = [config]
    for _ in range(steps):
        rows.append(step(rule, rows[-1]))
    return rows


def as_word(bits: Iterable[int]) -> int:
    """The bits read as a binary number, the first bit most significant."""
    return int("".join(map(str, bits)) or "0", 2)


def format_block(word: int, width: int) -> str:
    """A block word as its width binary digits, `O` for the null block."""
    return format(word, f"0{width}b") if word else "O"


@dataclass(frozen=True)
class BasicString:
    """An (r+1)-bit block; the building unit of particles."""

    bits: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "bits", tuple(int(b) for b in self.bits))

    @property
    def word(self) -> int:
        return as_word(self.bits)

    @property
    def is_null(self) -> bool:
        return not any(self.bits)

    def __str__(self) -> str:
        return format_block(self.word, len(self.bits))


@dataclass(frozen=True)
class Particle:
    """Basic strings anchored at a site; the first and last are nonzero."""

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
    def block_len(self) -> int:
        return len(self.blocks[0].bits)

    @property
    def width(self) -> int:
        return len(self.blocks) * self.block_len

    @property
    def flat_bits(self) -> tuple[int, ...]:
        return tuple(b for blk in self.blocks for b in blk.bits)

    @cached_property
    def word(self) -> int:
        return as_word(self.flat_bits)


def parse_particles(rule: Rule, config: Configuration) -> list[Particle]:
    """Segment the support into particles.

    Each particle is a maximal run of (r+1)-blocks cut at the first
    all-zero block of its own grid; the grid is anchored at the
    particle's leftmost 1, and the next particle re-anchors at the next
    1 after the separator.
    """
    w = rule.block_len
    # the row then two null blocks, so every block read below lies in the
    # word; pos counts sites from the origin
    n = len(config.bits) + 2 * w
    row = as_word(config.bits) << 2 * w
    out: list[Particle] = []
    pos = 0
    while rest := row & ((1 << (n - pos)) - 1):
        anchor = pos = n - rest.bit_length()
        blocks = []
        while blk := row >> (n - pos - w) & (1 << w) - 1:
            blocks.append(BasicString(format(blk, f"0{w}b")))
            pos += w
        out.append(Particle(config.origin + anchor, tuple(blocks)))
    return out


def render_particles(rule: Rule, particles: Iterable[Particle]) -> Configuration:
    """Place particles on the empty background at their start sites."""
    placed = sorted(particles, key=lambda p: p.start_site)
    if not placed:
        return EMPTY
    for a, b in zip(placed, placed[1:]):
        if a.start_site + a.width > b.start_site:
            raise ValueError("particles overlap")
    lo, hi = placed[0].start_site, placed[-1].start_site + placed[-1].width
    row = sum(p.word << (hi - p.start_site - p.width) for p in placed)
    return Configuration(lo, format(row, f"0{hi - lo}b"))


def frt_pattern(word, k: int, L: int, w: int):
    """Predicted word of a particle of L w-bit blocks after k returns.

    Rotate the cyclic list (O, A1, ..., AL) left by k blocks and xor its
    new head into the L blocks after it: the particle itself for k = 0
    mod L+1, A(m+1) ^ (A(m+2), ..., AL, O, A1, ..., Am) for k = m+1.
    Only ^ >> << & * touch word, an int or an int64 array ((L+1)w <= 63).
    """
    n = L * w
    keep = n + w - k % (L + 1) * w
    rot = ((word & ((1 << keep) - 1)) << (n + w - keep)) ^ (word >> keep)
    spread = ((1 << n) - 1) // ((1 << w) - 1)  # a 1 at the foot of each block
    return (rot & ((1 << n) - 1)) ^ (rot >> n) * spread


@dataclass(frozen=True)
class FrtPrediction:
    """Return times and intermediate block patterns of a particle.

    l_counts[i] is the 1-count of the i-th difference string
    (A1, A1^A2, ..., A(L-1)^AL, AL); return_times are their prefix sums.
    predicted_blocks[m] is the word `frt_pattern` gives for return m+1.
    """

    l_counts: tuple[int, ...]
    return_times: tuple[int, ...]
    predicted_blocks: tuple[int, ...]
    period: int


def frt_predict(rule: Rule, particle: Particle) -> FrtPrediction:
    """Fast-recurrence data for a particle of (r+1)-bit blocks."""
    L, w, word = particle.block_count, rule.block_len, particle.word
    if particle.block_len != w:
        raise ValueError(f"particle blocks must have {w} bits")
    # the blocks of (A1..AL O) ^ (O A1..AL) are the difference strings
    diffs = (word << w) ^ word
    l_counts = tuple((diffs >> (j * w) & ((1 << w) - 1)).bit_count()
                     for j in range(L, -1, -1))
    times = tuple(accumulate(l_counts))
    patterns = tuple(frt_pattern(word, k, L, w) for k in range(1, L + 1))
    return FrtPrediction(l_counts, times, patterns, times[-1])


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

    The detector requires every row to stay one particle of L blocks
    (the non-splitting side condition); a failure is recorded, not
    raised, and later checks are marked not-applicable.  The row after
    return k = 1..L+1 must equal `frt_pattern` up to translation.
    """
    pred = frt_predict(rule, particle)
    horizon = pred.period if horizon is None else horizon
    if horizon < pred.period:
        raise ValueError("horizon must cover the period")
    L, w, word = particle.block_count, rule.block_len, particle.word

    def placed(k: int) -> Configuration:  # the row after k returns
        return Configuration(particle.start_site,
                             format(frt_pattern(word, k, L, w), f"0{L * w}b"))

    config = placed(0)
    seen: dict[int, Configuration] = {}
    failed_at = None
    for t in range(1, horizon + 1):
        config = step(rule, config)
        # one particle: it fits in L blocks from its first 1, none null
        spare = L * w - len(config.bits)
        row = as_word(config.bits) << max(spare, 0)
        if spare < 0 or not all(row >> j * w & (1 << w) - 1
                                for j in range(L)):
            failed_at = t
            break
        seen[t] = config
    checks = []
    for k, t in enumerate(pred.return_times, start=1):
        got = seen.get(t)
        if got is None:
            checks.append(FrtTimeCheck(t, k - 1, None, None))
            continue
        want = placed(k)
        matched = got.bits == want.bits
        checks.append(FrtTimeCheck(t, k - 1, matched, got.origin - want.origin
                                   if matched else None))
    return FrtReport(pred, failed_at is None, failed_at, tuple(checks))


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
    origin = parse_int(head[len("origin="):], line_no)
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
    return min(c.origin for c in nonempty), max(c.end for c in nonempty) + 1


def _row_digits(config: Configuration, lo: int, hi: int) -> str:
    """The 0/1 digits of sites lo..hi-1, which cover the configuration."""
    left = "0" * (config.origin - lo) if config.bits else ""
    return (left + "".join(map(str, config.bits))).ljust(hi - lo, "0")


def ascii_diagram(configs: Sequence[Configuration]) -> str:
    """Space-time diagram, one text row per configuration: `.`=0, `#`=1."""
    lo, hi = _frame(configs)
    table = str.maketrans("01", ".#")
    return "".join(_row_digits(c, lo, hi).translate(table) + "\n"
                   for c in configs)


def pbm_diagram(configs: Sequence[Configuration]) -> str:
    """Portable bitmap (P1) with one image row per configuration."""
    lo, hi = _frame(configs)
    lines = ["P1", f"{hi - lo} {len(configs)}"]
    lines += [" ".join(_row_digits(c, lo, hi)) for c in configs]
    return "\n".join(lines) + "\n"
