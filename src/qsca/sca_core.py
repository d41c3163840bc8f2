"""Classical radius-r parity filter automaton.

A configuration is a bi-infinite row of bits with finite support, evolved
by a left-to-right scan: the new value of site n is computed from the r
already-updated cells to its left, the current cell, and the r old cells
to its right.  The window rule is the parity rule

    a'[n] = 1 xor a'[n-r] xor ... xor a'[n-1] xor a[n] xor ... xor a[n+r]

totalized so that an all-zero window stays zero (the quiescent background
is a fixed point).  Equivalently: the new bit is 1 iff the window holds a
positive even number of ones.  That is the parity filter rule of Park,
Steiglitz and Thurston (Physica D 19, 423 (1986)).

A step is the old row shifted r sites left, xor greedy marks at least
r + 1 sites apart (proof at `step`), and that is how it runs: on the row
as one Python int, site `origin` most significant (`Configuration.word`).
The mark candidates are the row or'ed with r shifted copies of itself,
the marks are picked by one regular-expression pass over its digits,
and the shifted row is xor'ed with them, so a step costs O(len + r):
one linear scan in C and O(log r) whole-row int operations.
`evolve` chains the words and builds each row's bits tuple once, and
the diagrams format each row from its word.  The module loads no numpy.

Particles are runs of (r+1)-cell blocks (basic strings) held as int
words: a block is an int of r+1 bits, a particle of L blocks an int of
L(r+1) bits, A1 most significant.  The fast recurrence (Papatheodorou,
Ablowitz & Saridakis, Stud. Appl. Math. 79, 173 (1988)) takes the return
times from the 1-counts of consecutive block differences; `frt_pattern`
gives the pattern after k returns with bit operators alone, for
`frt_check` here and for the propagation circuit check in `frt_quantum`.
`frt_check` runs the particle as one word too.
"""

from __future__ import annotations

import re
from functools import cached_property, lru_cache, partial
from itertools import accumulate
from typing import Iterable, Sequence

from .errors import Frozen, ParseError, StepDivergedError, parse_int

__all__ = [
    "Rule",
    "Configuration",
    "BasicString",
    "Particle",
    "FrtPrediction",
    "FrtTimeCheck",
    "FrtReport",
    "step",
    "evolve",
    "parse_particles",
    "format_block",
    "frt_pattern",
    "frt_predict",
    "frt_check",
    "parse_configuration",
    "ascii_diagram",
    "pbm_diagram",
]


class Rule(Frozen):
    """The automaton family parameter: neighborhood half-width."""

    def __init__(self, radius: int):
        if radius < 1:
            raise ValueError(f"radius must be >= 1, got {radius}")
        self._assign("radius", radius)

    @property
    def block_len(self) -> int:
        """Length of a basic string."""
        return self.radius + 1


_BIT_VALUES = frozenset((0, 1, "0", "1"))
_TO_DIGITS = bytes.maketrans(b"\0\1", b"01")
_FROM_DIGITS = bytes.maketrans(b"01", b"\0\1")


def _digits(bits: Iterable) -> str:
    """The 0/1 digits of a str of digits or of an iterable of 0/1 values.

    Every bit is checked before any is converted, so 1.7 or 2 raises
    ValueError instead of turning into a 1 or a bad word.
    """
    if isinstance(bits, str):
        if not {"0", "1"}.issuperset(bits):
            raise ValueError("bits must be 0 or 1")
        return bits
    bits = tuple(bits)
    if not _BIT_VALUES.issuperset(bits):
        raise ValueError("bits must be 0 or 1")
    return bytes(map(int, bits)).translate(_TO_DIGITS).decode()


def _bit_tuple(digits: str) -> tuple[int, ...]:
    """The bits of a str of 0/1 digits: its bytes translated to 0 and 1."""
    return tuple(digits.encode().translate(_FROM_DIGITS))


def _trim(origin: int, word: int, width: int) -> tuple[int, int]:
    """(origin, word) of a width-bit row word with its zero ends dropped;
    (0, 0) for the empty row."""
    if not word:
        return 0, 0
    zeros = (word & -word).bit_length() - 1
    return origin + width - word.bit_length(), word >> zeros


class Configuration(Frozen):
    """Finite-support row of bits; sites outside the stored range are 0.

    The stored range is canonical: leading and trailing zeros are trimmed
    on construction, so structural equality is configuration equality.
    `word` is the same row as an int, site `origin` most significant; it
    is 0 for the empty row and otherwise has len(bits) bits and ends in 1.
    """

    word: int  # not a field: no part of equality, hash or repr

    def __init__(self, origin: int, bits: Iterable):
        digits = _digits(bits)
        self._set(*_trim(origin, int(digits or "0", 2), len(digits)))

    @classmethod
    def _of_word(cls, origin: int, word: int) -> "Configuration":
        """The row of a trimmed word (odd, or 0 with origin 0)."""
        config = object.__new__(cls)
        config._set(origin, word)
        return config

    def _set(self, origin: int, word: int) -> None:
        self._assign("origin", origin)
        self._assign("bits", _bit_tuple(format(word, "b")) if word else ())
        self._assign("word", word)

    @property
    def is_empty(self) -> bool:
        return not self.bits

    @property
    def end(self) -> int:
        """Site index of the last stored bit (origin - 1 when empty)."""
        return self.origin + len(self.bits) - 1


@lru_cache(maxsize=None)
def _mark_pass(r: int):
    """The substitution that keeps each candidate 1 it meets and blanks
    the r sites after it, which that mark blocks."""
    return partial(re.compile(f"1[01]{{{r}}}").sub, "1" + "0" * r)


def _marks(r: int, cands: int, width: int) -> int:
    """The greedy marks r + 1 apart over a width-bit candidate word.

    One substitution pass over the word's digits from the top: it
    resumes after each match, so each 1 it keeps is the first candidate
    at least r + 1 sites past the previous mark, and the r padding
    zeros let a candidate in the last r sites match.  The scan never
    backtracks, so the cost is O(width) whatever the number of marks.
    """
    digits = _mark_pass(r)(format(cands, f"0{width}b") + "0" * r)
    return int(digits[:width], 2)


def _step_word(r: int, origin: int, word: int) -> tuple[int, int]:
    """`step` on a trimmed row word: the new trimmed (origin, word)."""
    if not word:
        return 0, 0
    # cands has a 1 at each site n whose old window a[n..n+r] is nonzero:
    # the word or'ed with itself shifted 1..r, built by doubling
    cands, span = word, 1
    while span <= r:
        k = min(span, r + 1 - span)
        cands |= cands << k
        span += k
    width = word.bit_length() + r
    return _trim(origin - r, word << r ^ _marks(r, cands, width), width)


def step(rule: Rule, config: Configuration) -> Configuration:
    """One full time step of the automaton.

    Write a for the old row, b for the new one and e[m] = b[m] ^ a[m + r].
    If e[n-r..n-1] are all 0, the window count at n is 2(a[n] + ... +
    a[n+r-1]) + a[n+r], so e[n] = 1 exactly when a[n..n+r] is nonzero.
    If one of them is 1, the count is odd when a[n+r] = 0 and positive
    and even when a[n+r] = 1, so e[n] = 0.  Hence b is a shifted r sites
    left, xor greedy marks at least r + 1 apart, and past the old support
    a window holds at most one 1 and never a positive even count: the new
    row lies within origin - r .. the old row's last site.

    That is how the step runs, on the row word of len + r bits from r
    sites left of the support: the candidates are the word or'ed with r
    shifted copies of itself, the marks are picked by one `re.sub` pass
    over its digits, and the word shifted left by r is xor'ed with them.
    A step costs O(len + r): one linear scan in C and O(log r) whole-row
    int operations.
    """
    return Configuration._of_word(
        *_step_word(rule.radius, config.origin, config.word))


def evolve(rule: Rule, config: Configuration, steps: int
           ) -> list[Configuration]:
    """Iterate step; returns steps+1 configurations starting with the input.

    The rows are chained as words; each row's bits tuple is built once.
    """
    if steps < 0:
        raise ValueError("steps must be >= 0")
    r = rule.radius
    origin, word = config.origin, config.word
    rows = [config]
    for _ in range(steps):
        origin, word = _step_word(r, origin, word)
        rows.append(Configuration._of_word(origin, word))
    return rows


def format_block(word: int, width: int) -> str:
    """A block word as its width binary digits, `O` for the null block."""
    if not 0 <= word < 1 << width:
        raise ValueError(f"block word {word} does not fit in {width} bits")
    return format(word, f"0{width}b") if word else "O"


class BasicString(Frozen):
    """An (r+1)-bit block, the building unit of particles; `word` holds
    its bits as an int, the first bit most significant."""

    word: int  # not a field: no part of equality, hash or repr

    def __init__(self, bits: Iterable):
        digits = _digits(bits)
        self._assign("bits", _bit_tuple(digits))
        self._assign("word", int(digits or "0", 2))

    @property
    def is_null(self) -> bool:
        return not self.word

    def __str__(self) -> str:
        return format_block(self.word, len(self.bits))


class Particle(Frozen):
    """Basic strings anchored at a site; the first and last are nonzero."""

    def __init__(self, start_site: int, blocks: tuple[BasicString, ...]):
        if not blocks:
            raise ValueError("particle needs at least one block")
        if blocks[0].is_null or blocks[-1].is_null:
            raise ValueError("first and last blocks must be nonzero")
        lens = {len(b.bits) for b in blocks}
        if len(lens) != 1:
            raise ValueError("blocks must share one length")
        self._assign("start_site", start_site)
        self._assign("blocks", blocks)

    @property
    def block_count(self) -> int:
        return len(self.blocks)

    @property
    def block_len(self) -> int:
        return len(self.blocks[0].bits)

    @cached_property
    def word(self) -> int:
        w, word = self.block_len, 0
        for blk in self.blocks:
            word = word << w | blk.word
        return word


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
    row = config.word << 2 * w
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


class FrtPrediction(Frozen):
    """Return times and intermediate block patterns of a particle.

    l_counts[i] is the 1-count of the i-th difference string
    (A1, A1^A2, ..., A(L-1)^AL, AL); return_times are their prefix sums.
    predicted_blocks[m] is the word `frt_pattern` gives for return m+1.
    """

    def __init__(self, l_counts: tuple[int, ...],
                 return_times: tuple[int, ...],
                 predicted_blocks: tuple[int, ...], period: int):
        self._assign("l_counts", l_counts)
        self._assign("return_times", return_times)
        self._assign("predicted_blocks", predicted_blocks)
        self._assign("period", period)


def frt_predict(rule: Rule, particle: Particle) -> FrtPrediction:
    """Fast-recurrence data for a particle of (r+1)-bit blocks."""
    L, w, word = particle.block_count, rule.block_len, particle.word
    if particle.block_len != w:
        raise ValueError(f"particle blocks must have {w} bits")
    # the blocks of (A1..AL O) ^ (O A1..AL) are the difference strings
    diffs = (word << w) ^ word
    mask = (1 << w) - 1
    l_counts = tuple([(diffs >> j * w & mask).bit_count()
                      for j in range(L, -1, -1)])
    times = tuple(accumulate(l_counts))
    patterns = tuple([frt_pattern(word, k, L, w) for k in range(1, L + 1)])
    return FrtPrediction(l_counts, times, patterns, times[-1])


class FrtTimeCheck(Frozen):
    """Outcome of one predicted-time comparison.

    matched is None when the run was cut short by a detector failure
    before this time; shift is the observed translation when matched.
    """

    def __init__(self, time: int, pattern_index: int, matched: bool | None,
                 shift: int | None):
        self._assign("time", time)
        self._assign("pattern_index", pattern_index)
        self._assign("matched", matched)
        self._assign("shift", shift)


class FrtReport(Frozen):
    def __init__(self, prediction: FrtPrediction, condition_held: bool,
                 failed_at: int | None, checks: tuple[FrtTimeCheck, ...]):
        self._assign("prediction", prediction)
        self._assign("condition_held", condition_held)
        self._assign("failed_at", failed_at)
        self._assign("checks", checks)

    @property
    def all_matched(self) -> bool:
        return self.condition_held and all(c.matched for c in self.checks)


@lru_cache(maxsize=1024)
def _not_applicable(time: int, pattern_index: int) -> FrtTimeCheck:
    """The check of a time past a detector failure; frozen, so shared."""
    return FrtTimeCheck(time, pattern_index, None, None)


def frt_check(rule: Rule, particle: Particle, horizon: int | None = None
              ) -> FrtReport:
    """Evolve a particle in isolation and compare against its prediction.

    The detector requires every row to stay one particle of L blocks
    (the non-splitting side condition); a failure is recorded, not
    raised, and later checks are marked not-applicable.  The row after
    return k = 1..L+1 must equal `frt_pattern` up to translation.

    The row runs as one trimmed word from start to end.  It passes the
    detector when it fits in L blocks and, placed at the top of them, its
    bits or'ed down w - 1 places hit the foot of every block; a return is
    compared with the trimmed pattern word, and the shift is the
    difference of the two origins.
    """
    pred = frt_predict(rule, particle)
    horizon = pred.period if horizon is None else horizon
    if horizon < pred.period:
        raise ValueError("horizon must cover the period")
    r, L, w, word = rule.radius, particle.block_count, rule.block_len, \
        particle.word
    n = L * w
    feet = ((1 << n) - 1) // ((1 << w) - 1)  # a 1 at the foot of each block
    start = particle.start_site
    origin, row = _trim(start, word, n)
    # rows[t] is the trimmed row after t steps, kept up to the period,
    # the last return time; the detector still runs to the horizon
    rows = [(origin, row)]
    failed_at = None
    for t in range(1, horizon + 1):
        origin, row = _step_word(r, origin, row)
        spare = n - row.bit_length()
        top = row << max(spare, 0)
        for _ in range(1, w):
            top |= top >> 1
        if spare < 0 or top & feet != feet:
            failed_at = t
            break
        if t <= pred.period:
            rows.append((origin, row))
    checks = []
    for k, (t, pattern) in enumerate(
            zip(pred.return_times, pred.predicted_blocks + (word,))):
        if t >= len(rows):
            checks.append(_not_applicable(t, k))
            continue
        want_origin, want = _trim(start, pattern, n)
        got_origin, got = rows[t]
        matched = got == want
        checks.append(FrtTimeCheck(t, k, matched, got_origin - want_origin
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
    return Configuration(origin, row)


def _frame(configs: Sequence[Configuration]) -> tuple[int, int]:
    """Common site range [lo, hi) covering every row, at least one column."""
    nonempty = [c for c in configs if not c.is_empty]
    if not nonempty:
        return 0, 1
    return min(c.origin for c in nonempty), max(c.end for c in nonempty) + 1


def _row_digits(configs: Sequence[Configuration], lo: int, hi: int
                ) -> list[str]:
    """The 0/1 digits of sites lo..hi-1 of each row, which they cover: the
    row word shifted to site hi - 1 and formatted at width hi - lo."""
    spec = f"0{hi - lo}b"
    return [format(c.word << hi - 1 - c.end if c.word else 0, spec)
            for c in configs]


def ascii_diagram(configs: Sequence[Configuration]) -> str:
    """Space-time diagram, one text row per configuration: `.`=0, `#`=1."""
    table = str.maketrans("01", ".#")
    return "".join(row.translate(table) + "\n"
                   for row in _row_digits(configs, *_frame(configs)))


def pbm_diagram(configs: Sequence[Configuration]) -> str:
    """Portable bitmap (P1) with one image row per configuration."""
    lo, hi = _frame(configs)
    width = hi - lo
    digits = "".join(_row_digits(configs, lo, hi)).encode()
    # each digit is followed by a space, or by a newline at a row's end
    body = bytearray(b" ") * (2 * len(digits))
    body[::2] = digits
    body[2 * width - 1::2 * width] = b"\n" * len(configs)
    return f"P1\n{width} {len(configs)}\n" + body.decode()
