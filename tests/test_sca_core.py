import itertools
import random
import time
from collections import deque
from dataclasses import FrozenInstanceError, dataclass, fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsca.errors import ParseError
from qsca.sca_core import (
    BasicString,
    Configuration,
    FrtPrediction,
    FrtReport,
    FrtTimeCheck,
    Particle,
    Rule,
    ascii_diagram,
    evolve,
    format_block,
    frt_check,
    frt_pattern,
    frt_predict,
    parse_configuration,
    parse_particles,
    pbm_diagram,
    step,
)
from rule_oracle import (bits_word, emit_configuration, f_window,
                         flat_bits, next_center, particle_width,
                         render_particles, shifted, site, window_len)

EMPTY = Configuration(0, ())


def reference_step(rule, config, extra=200):
    """Slow second opinion: evaluate the scan over a fixed padded range."""
    if config.is_empty:
        return config
    r = rule.radius
    lo = config.origin - r
    hi = config.end + extra
    new = {}
    for n in range(lo, hi + 1):
        window = [new.get(n - k, 0) for k in range(r, 0, -1)]
        window.append(site(config, n))
        window += [site(config, n + k) for k in range(1, r + 1)]
        if any(window):
            bit = 1
            for b in window:
                bit ^= b
        else:
            bit = 0
        new[n] = bit
    assert all(new[hi - k] == 0 for k in range(r)), "range too small"
    return Configuration(lo, tuple(new[n] for n in range(lo, hi + 1)))


def window_scan_step(rule, config):
    """Per-site oracle: one `next_center` call per site.
    It scans on past the old support until the r latest new bits are
    zero, and fails past the support width plus 64(r+1) sites."""
    if config.is_empty:
        return config
    r = rule.radius
    bound = len(config.bits) + 64 * (r + 1)
    start = config.origin - r
    recent = deque([0] * r, maxlen=r)
    out = []
    n = start
    while not (n > config.end and not any(recent)):
        assert n - start < bound, "the window scan diverged"
        window = (*recent, site(config, n),
                  *(site(config, n + j) for j in range(1, r + 1)))
        bit = next_center(rule, window)
        out.append(bit)
        recent.append(bit)
        n += 1
    return Configuration(start, tuple(out))


def marks_step(rule, config):
    """A step as the old row shifted r sites left, xor greedy marks: a
    mark at each site n whose old window a[n..n+r] is nonzero and with
    no mark at n-r..n-1.  Marks lie within origin - r .. the old end."""
    r = rule.radius
    lo = config.origin - r
    row, last = [], lo - r - 1
    for n in range(lo, config.end + 1):
        mark = n - last > r and any(site(config, n + j) for j in range(r + 1))
        if mark:
            last = n
        row.append(site(config, n + r) ^ mark)
    return Configuration(lo, tuple(row))


# -- per-bit diagram oracle ---------------------------------------------------
# One str per bit, the rendering the word diagrams replaced.

def per_bit_frame(configs):
    nonempty = [c for c in configs if not c.is_empty]
    if not nonempty:
        return 0, 1
    return min(c.origin for c in nonempty), max(c.end for c in nonempty) + 1


def per_bit_row_digits(config, lo, hi):
    """The 0/1 digits of sites lo..hi-1, which cover the configuration."""
    left = "0" * (config.origin - lo) if config.bits else ""
    return (left + "".join(map(str, config.bits))).ljust(hi - lo, "0")


def per_bit_ascii(configs):
    lo, hi = per_bit_frame(configs)
    table = str.maketrans("01", ".#")
    return "".join(per_bit_row_digits(c, lo, hi).translate(table) + "\n"
                   for c in configs)


def per_bit_pbm(configs):
    lo, hi = per_bit_frame(configs)
    lines = ["P1", f"{hi - lo} {len(configs)}"]
    lines += [" ".join(per_bit_row_digits(c, lo, hi)) for c in configs]
    return "\n".join(lines) + "\n"


# -- tuple oracle for particles and the fast recurrence ----------------------
# Blocks as tuples of bits, patterns built block by block, the detector
# reading the row through parse_particles; the word path must agree.

@dataclass(frozen=True)
class TupleBlock:
    bits: tuple[int, ...]

    @property
    def is_null(self):
        return not any(self.bits)

    @property
    def weight(self):
        return sum(self.bits)

    def __xor__(self, other):
        assert len(self.bits) == len(other.bits)
        return TupleBlock(tuple(a ^ b for a, b in zip(self.bits, other.bits)))


@dataclass(frozen=True)
class TupleParticle:
    start_site: int
    blocks: tuple[TupleBlock, ...]

    @property
    def flat_bits(self):
        return tuple(b for blk in self.blocks for b in blk.bits)


def tuple_particle(particle):
    return TupleParticle(particle.start_site, tuple(
        TupleBlock(b.bits) for b in particle.blocks))


def tuple_parse_particles(rule, config):
    out = []
    w = rule.block_len
    pos = config.origin
    while pos <= config.end:
        while pos <= config.end and site(config, pos) == 0:
            pos += 1
        if pos > config.end:
            break
        anchor, blocks = pos, []
        while True:
            blk = TupleBlock(tuple(site(config, anchor + len(blocks) * w + j)
                                   for j in range(w)))
            if blk.is_null:
                break
            blocks.append(blk)
        out.append(TupleParticle(anchor, tuple(blocks)))
        pos = anchor + (len(blocks) + 1) * w
    return out


def tuple_frt_predict(particle):
    A = particle.blocks
    L = len(A)
    O = TupleBlock((0,) * len(A[0].bits))
    diffs = [A[0]] + [A[i] ^ A[i + 1] for i in range(L - 1)] + [A[-1]]
    l_counts = tuple(d.weight for d in diffs)
    times = tuple(sum(l_counts[:i + 1]) for i in range(L + 1))
    patterns = tuple(tuple(A[m] ^ x for x in A[m + 1:] + (O,) + A[:m])
                     for m in range(L))
    return FrtPrediction(l_counts, times, patterns, times[-1])


def tuple_frt_check(rule, particle, horizon=None):
    pred = tuple_frt_predict(particle)
    horizon = pred.period if horizon is None else horizon
    L = len(particle.blocks)
    expected = {}
    for m in range(L):
        flat = tuple(b for blk in pred.predicted_blocks[m] for b in blk.bits)
        expected.setdefault(pred.return_times[m], []).append(
            (m, Configuration(particle.start_site, flat)))
    expected.setdefault(pred.period, []).append(
        (L, Configuration(particle.start_site, particle.flat_bits)))
    config = Configuration(particle.start_site, particle.flat_bits)
    failed_at = None
    checks = []
    for t in range(1, horizon + 1):
        config = step(rule, config)
        found = tuple_parse_particles(rule, config)
        if len(found) != 1 or len(found[0].blocks) != L:
            failed_at = t
            break
        for m, want in expected.get(t, ()):
            matched = config.bits == want.bits
            shift = config.origin - want.origin if matched else None
            checks.append(FrtTimeCheck(t, m, matched, shift))
    if failed_at is not None:
        for t, entries in expected.items():
            if t >= failed_at:
                checks += [FrtTimeCheck(t, m, None, None) for m, _ in entries]
    checks.sort(key=lambda c: (c.time, c.pattern_index))
    return FrtReport(pred, failed_at is None, failed_at, tuple(checks))


def assert_reports_equal(report, oracle):
    pred, want = report.prediction, oracle.prediction
    assert pred.l_counts == want.l_counts
    assert pred.return_times == want.return_times
    assert pred.period == want.period
    assert pred.predicted_blocks == tuple(
        bits_word(b for blk in pattern for b in blk.bits)
        for pattern in want.predicted_blocks)
    assert report.condition_held == oracle.condition_held
    assert report.failed_at == oracle.failed_at
    assert report.checks == oracle.checks


def particle_of(start, words, w):
    return Particle(start, tuple(BasicString(format(x, f"0{w}b"))
                                 for x in words))


def random_config(rng, max_width=12):
    width = int(rng.integers(1, max_width + 1))
    bits = tuple(int(b) for b in rng.integers(0, 2, size=width))
    return Configuration(int(rng.integers(-5, 6)), bits)


# -- window rule ------------------------------------------------------------

def test_rule_lengths():
    assert Rule(2).block_len == 3
    assert Rule(1).block_len == 2
    with pytest.raises(ValueError):
        Rule(0)


def test_next_center_values():
    r2 = Rule(2)
    assert next_center(r2, (0, 0, 1, 0, 0)) == 0
    assert next_center(r2, (0, 0, 0, 0, 0)) == 0
    assert next_center(r2, (1, 0, 0, 0, 1)) == 1
    # positive even number of ones -> 1, odd -> 0
    assert next_center(r2, (1, 1, 1, 1, 1)) == 0
    assert next_center(r2, (1, 1, 0, 1, 1)) == 1
    with pytest.raises(ValueError):
        next_center(r2, (0, 1, 0))


def test_f_window_examples():
    r2 = Rule(2)
    assert f_window(r2, (0, 0, 1, 0, 0)) == (0, 0, 0, 0, 0)
    assert f_window(r2, (1, 1, 1, 1, 1)) == (1, 1, 0, 1, 1)
    with pytest.raises(ValueError, match="all-zero"):
        f_window(r2, (0, 0, 0, 0, 0))
    with pytest.raises(ValueError):
        f_window(r2, (1, 0, 1))


def test_f_window_bijective():
    # injective on nonzero words, image misses exactly the center word
    for r in (1, 2, 3, 4):
        rule = Rule(r)
        width = window_len(rule)
        images = set()
        for x in range(1, 2 ** width):
            bits = tuple((x >> (width - 1 - i)) & 1 for i in range(width))
            images.add(f_window(rule, bits))
        assert len(images) == 2 ** width - 1
        missing = set(
            tuple((x >> (width - 1 - i)) & 1 for i in range(width))
            for x in range(2 ** width)) - images
        assert missing == {(0,) * r + (1,) + (0,) * r}


# -- configurations and stepping --------------------------------------------

def test_configuration_rejects_fractional_bits():
    # each bit is checked before it becomes an int, so 0.5 is not read
    # as 0 and 1.7 not as 1
    with pytest.raises(ValueError):
        Configuration(0, (0.5, 1.7, 1))
    with pytest.raises(ValueError):
        Configuration(0, "0121")
    assert Configuration(0, (True, 0.0, 1.0)) == Configuration(0, (1, 0, 1))


def test_basic_string_rejects_non_bits():
    with pytest.raises(ValueError):
        BasicString((2, 0))
    with pytest.raises(ValueError):
        BasicString("012")


def test_format_block_rejects_words_wider_than_the_block():
    with pytest.raises(ValueError):
        format_block(5, 2)
    with pytest.raises(ValueError):
        format_block(-1, 2)
    assert format_block(3, 2) == "11" and format_block(0, 2) == "O"


def test_configuration_word():
    c = Configuration(3, (0, 0, 1, 0, 1, 1, 0))
    assert c.word == 0b1011 and c.origin == 5
    assert EMPTY.word == 0
    assert Configuration(3, "0010110") == c
    assert hash(Configuration(3, "0010110")) == hash(c)
    assert shifted(c, -4) == Configuration(1, (1, 0, 1, 1))
    assert shifted(c, -4).word == c.word


def test_configuration_trim():
    c = Configuration(3, (0, 0, 1, 1, 0))
    assert c.origin == 5
    assert c.bits == (1, 1)
    assert c.end == 6
    assert site(c, 5) == 1 and site(c, 4) == 0 and site(c, 100) == 0
    assert Configuration(9, (0, 0)) == EMPTY
    assert shifted(c, 2).origin == 7
    with pytest.raises(ValueError):
        Configuration(0, (0, 2))


def test_step_fixes_vacuum():
    assert step(Rule(2), EMPTY) == EMPTY


def test_step_hand_traced():
    # r=2: a lone 111 drifts one site left unchanged
    out = step(Rule(2), Configuration(0, (1, 1, 1)))
    assert out == Configuration(-1, (1, 1, 1))
    # r=1: 11 is a fixed point, 111 decays through 1 to nothing
    assert step(Rule(1), Configuration(0, (1, 1))) == Configuration(0, (1, 1))
    assert step(Rule(1), Configuration(0, (1, 1, 1))) == Configuration(0, (1,))
    assert step(Rule(1), Configuration(0, (1,))) == EMPTY
    # r=2: the preimage-of-null word as a configuration dies too
    assert step(Rule(2), Configuration(0, (1,))) == EMPTY


def test_step_matches_reference_scan():
    rng = np.random.default_rng(42)
    for r in (1, 2, 3):
        rule = Rule(r)
        for _ in range(60):
            config = random_config(rng)
            assert step(rule, config) == reference_step(rule, config)


@settings(max_examples=300, deadline=None)
@given(r=st.integers(1, 4),
       origin=st.integers(-20, 20),
       bits=st.lists(st.integers(0, 1), max_size=40))
def test_step_matches_window_oracle(r, origin, bits):
    # the word step against one next_center call per site
    # and the oracle's own stop rule; neither may raise
    rule = Rule(r)
    config = Configuration(origin, tuple(bits))
    assert step(rule, config) == window_scan_step(rule, config)


@settings(max_examples=300, deadline=None)
@given(r=st.integers(1, 6),
       origin=st.integers(-20, 20),
       bits=st.lists(st.integers(0, 1), max_size=200))
def test_step_is_shift_xor_greedy_marks(r, origin, bits):
    # the word step against both oracles: the marks as a per-site loop,
    # and one next_center call per site
    rule = Rule(r)
    config = Configuration(origin, tuple(bits))
    got = step(rule, config)
    assert got == marks_step(rule, config)
    assert got == window_scan_step(rule, config)


@settings(max_examples=200, deadline=None)
@given(r=st.integers(1, 6),
       origin=st.integers(-20, 20),
       bits=st.lists(st.integers(0, 1), max_size=60))
def test_step_row_within_old_end(r, origin, bits):
    # the padded reference scans 200 sites past the old row and asserts
    # its last r bits are zero; its row starts no earlier than origin - r
    # and ends no later than the old row
    rule = Rule(r)
    config = Configuration(origin, tuple(bits))
    ref = reference_step(rule, config)
    assert step(rule, config) == ref
    if ref.bits:
        assert config.origin - r <= ref.origin and ref.end <= config.end


@settings(max_examples=300, deadline=None)
@given(r=st.integers(1, 4),
       origin=st.integers(-20, 20),
       bits=st.lists(st.integers(0, 1), max_size=40))
def test_step_rows_equal_validated_rows(r, origin, bits):
    # step builds its row without re-validating the bits; the row must be
    # the one the public constructor gives, trimmed, with int bits
    out = step(Rule(r), Configuration(origin, tuple(bits)))
    assert out == Configuration(out.origin, out.bits)
    assert type(out.bits) is tuple
    assert all(type(b) is int for b in out.bits)
    if out.bits:
        assert out.bits[0] == out.bits[-1] == 1
    else:
        assert out.origin == 0
    assert out.word == bits_word(out.bits)
    assert shifted(out, 3) == Configuration(out.origin + 3, out.bits)


def test_step_matches_window_oracle_on_long_rows():
    # rows of up to 200 bits; neither side may raise
    rng = np.random.default_rng(11)
    for r in (1, 2, 3, 4):
        rule = Rule(r)
        for _ in range(30):
            config = random_config(rng, max_width=200)
            assert step(rule, config) == window_scan_step(rule, config)


@settings(max_examples=100, deadline=None)
@given(r=st.integers(7, 24),
       origin=st.integers(-20, 20),
       bits=st.lists(st.integers(0, 1), max_size=200))
def test_word_step_at_wide_radii(r, origin, bits):
    # past r = 7 a mark blocks the whole next byte and more
    rule = Rule(r)
    config = Configuration(origin, tuple(bits))
    assert step(rule, config) == marks_step(rule, config)


def test_step_is_linear_in_the_row_length():
    # the marks come from one regular-expression scan that resumes after
    # each match; a whole-row int operation per mark would make a step
    # O(len^2 / r)
    rng = random.Random(2024)
    config = Configuration(-7, tuple(rng.getrandbits(1)
                                     for _ in range(200_000)))
    rule = Rule(2)
    times = []
    for _ in range(3):
        start = time.perf_counter()
        got = step(rule, config)
        times.append(time.perf_counter() - start)
    start = time.perf_counter()
    want = marks_step(rule, config)
    oracle_time = time.perf_counter() - start
    assert got == want
    assert oracle_time >= 10 * min(times), (oracle_time, min(times))


def test_step_translation_covariance():
    rng = np.random.default_rng(7)
    rule = Rule(2)
    for _ in range(20):
        config = random_config(rng)
        k = int(rng.integers(-9, 10))
        assert step(rule, shifted(config, k)) == shifted(step(rule, config), k)


def test_evolve():
    rule = Rule(1)
    rows = evolve(rule, Configuration(0, (1, 1, 1)), 2)
    assert rows == [Configuration(0, (1, 1, 1)), Configuration(0, (1,)), EMPTY]
    assert evolve(rule, EMPTY, 0) == [EMPTY]
    with pytest.raises(ValueError):
        evolve(rule, EMPTY, -1)
    # a + b steps equals a steps then b more
    rng = np.random.default_rng(3)
    config = random_config(rng)
    whole = evolve(Rule(2), config, 5)
    first = evolve(Rule(2), config, 2)
    rest = evolve(Rule(2), first[-1], 3)
    assert whole == first + rest[1:]


# -- basic strings and particles --------------------------------------------

def test_basic_string():
    a = BasicString((1, 0, 1))
    assert a.word == 0b101 and BasicString("011").word == 0b011
    assert BasicString("101") == a
    assert str(a) == "101" and str(BasicString((0, 1, 1))) == "011"
    assert str(BasicString((0, 0, 0))) == "O"
    assert BasicString((0, 0, 0)).is_null and not a.is_null
    # the word is stored once, out of the constructor, equality and repr
    assert [(f.name, f.init, f.compare) for f in fields(BasicString)] == [
        ("bits", True, True), ("word", False, False)]
    assert repr(a) == "BasicString(bits=(1, 0, 1))"
    with pytest.raises(FrozenInstanceError):
        a.word = 0


@settings(max_examples=200, deadline=None)
@given(w=st.integers(1, 7), data=st.data())
def test_stored_words_match_digits(w, data):
    # both stored words against the digits: a block from a tuple or a
    # digit string, and a particle of such blocks, first and last nonzero
    block = st.lists(st.integers(0, 1), min_size=w, max_size=w)
    end = block.filter(any)
    ends = data.draw(st.lists(end, min_size=1, max_size=2))
    inner = data.draw(st.lists(block, max_size=3)) if len(ends) == 2 else []
    rows = ends[:1] + inner + ends[1:]
    blocks = []
    for bits in rows:
        digits = "".join(map(str, bits))
        blk = BasicString(tuple(bits))
        assert blk == BasicString(digits) and \
            hash(blk) == hash(BasicString(digits))
        assert blk.word == BasicString(digits).word == bits_word(bits)
        assert blk.is_null == (not any(bits)) and str(blk) == (
            digits if any(bits) else "O")
        blocks.append(blk)
    particle = Particle(0, tuple(blocks))
    assert particle.word == bits_word(b for bits in rows for b in bits)
    assert particle.word == int("".join(map(str, sum(rows, []))), 2)


def test_particle_invariants():
    with pytest.raises(ValueError):
        Particle(0, ())
    with pytest.raises(ValueError):
        Particle(0, (BasicString((0, 0)), BasicString((1, 0))))
    with pytest.raises(ValueError):
        Particle(0, (BasicString((1, 0)), BasicString((1,))))
    p = Particle(4, (BasicString((1, 0)), BasicString((0, 1))))
    assert p.block_count == 2
    assert particle_width(p) == 4
    assert flat_bits(p) == (1, 0, 0, 1)
    assert p.word == 0b1001 and p.block_len == 2


def test_parse_particles_segments():
    rule = Rule(2)
    assert parse_particles(rule, EMPTY) == []
    # a >= (r+1)-zero gap splits; each side is one block here
    config = Configuration(0, (1, 1, 1, 0, 0, 0, 0, 0, 0, 1, 1, 1))
    parts = parse_particles(rule, config)
    assert [p.start_site for p in parts] == [0, 9]
    assert all(p.block_count == 1 for p in parts)
    # interior null blocks shorter than a full gap stay inside one particle
    one = parse_particles(Rule(1), Configuration(0, (1, 0, 0, 1)))
    assert len(one) == 1
    assert one[0].blocks == (BasicString((1, 0)), BasicString((0, 1)))


def test_parse_render_round_trip():
    # identity on particle lists in the parser's own canonical form:
    # first block starting with a 1 (the grid anchor) and no interior
    # null blocks (which the parser reads as separators)
    rng = np.random.default_rng(11)
    rule = Rule(2)
    for _ in range(30):
        particles = []
        pos = int(rng.integers(-6, 0))
        for _ in range(int(rng.integers(1, 4))):
            L = int(rng.integers(1, 4))
            words = [int(rng.integers(4, 8))]
            words += [int(rng.integers(1, 8)) for _ in range(max(L - 2, 0))]
            if L > 1:
                words.append(int(rng.integers(1, 8)))
            blocks = tuple(
                BasicString(((w >> 2) & 1, (w >> 1) & 1, w & 1))
                for w in words)
            particles.append(Particle(pos, blocks))
            pos += L * 3 + 3 * int(rng.integers(1, 3))
        config = render_particles(particles)
        assert parse_particles(rule, config) == particles


def test_parse_render_idempotent_on_configurations():
    # a particle may be written down off-anchor; re-reading it settles
    # onto the grid without changing the underlying configuration
    rule = Rule(2)
    off = Particle(0, (BasicString((0, 1, 1)),))
    config = render_particles([off])
    reparsed = parse_particles(rule, config)
    assert render_particles(reparsed) == config
    assert reparsed[0].start_site == 1


def test_render_overlap_rejected():
    a = Particle(0, (BasicString((1, 1)),))
    b = Particle(1, (BasicString((1, 0)),))
    with pytest.raises(ValueError):
        render_particles([a, b])


# -- fast recurrence --------------------------------------------------------

def test_frt_predict_single_block():
    pred = frt_predict(Rule(2), Particle(0, (BasicString((1, 1, 0)),)))
    assert pred.l_counts == (2, 2)
    assert pred.return_times == (2, 4)
    assert pred.period == 4
    assert pred.predicted_blocks == (0b110,)


def test_frt_predict_equal_blocks():
    a = BasicString((1, 0, 1))
    pred = frt_predict(Rule(2), Particle(0, (a, a, a)))
    assert pred.l_counts == (2, 0, 0, 2)
    assert pred.return_times == (2, 2, 2, 4)


def test_frt_predict_pattern_formula():
    a1, a2, a3 = 0b101, 0b011, 0b110
    pred = frt_predict(Rule(2), particle_of(0, (a1, a2, a3), 3))

    def word(x, y, z):
        return x << 6 | y << 3 | z

    assert pred.predicted_blocks == (word(a1 ^ a2, a1 ^ a3, a1),
                                     word(a2 ^ a3, a2, a2 ^ a1),
                                     word(a3, a3 ^ a1, a3 ^ a2))
    assert frt_pattern(word(a1, a2, a3), 4, 3, 3) == word(a1, a2, a3)
    assert frt_pattern(word(a1, a2, a3), 0, 3, 3) == word(a1, a2, a3)


def test_frt_predict_rejects_other_block_width():
    with pytest.raises(ValueError):
        frt_predict(Rule(2), Particle(0, (BasicString((1, 0)),)))


def test_frt_check_single_block_golden():
    report = frt_check(Rule(2), Particle(0, (BasicString((1, 1, 0)),)))
    assert report.condition_held
    assert report.all_matched
    times = [(c.time, c.pattern_index, c.shift) for c in report.checks]
    assert times == [(2, 0, -1), (4, 1, -2)]


def test_frt_check_horizon_too_small():
    with pytest.raises(ValueError):
        frt_check(Rule(2), Particle(0, (BasicString((1, 1, 0)),)), horizon=3)


def test_frt_check_memory_does_not_grow_with_horizon(traced_peak):
    # particle 110 at r = 2 returns at t = 2 and 4 (the period); the
    # detector runs on to the horizon, but only the rows up to the period
    # are kept, so 20,000 steps hold a few rows, not 20,000
    rule, particle = Rule(2), Particle(0, (BasicString((1, 1, 0)),))
    report, peak = traced_peak(frt_check, rule, particle, 20_000)
    assert peak < 256 * 1024
    assert report.condition_held
    assert_reports_equal(report, tuple_frt_check(
        rule, tuple_particle(particle), 20_000))


def test_frt_check_detector_failure_marks_not_applicable():
    # the blocks render as 111, which decays immediately at r=1, so the
    # two-block detector fails on the first step
    report = frt_check(Rule(1), Particle(0, (BasicString((1, 1)),
                                             BasicString((1, 0)))))
    assert not report.condition_held
    assert report.failed_at == 1
    assert all(c.matched is None for c in report.checks
               if c.time >= report.failed_at)
    assert not report.all_matched


def test_frt_theorem_on_sampled_particles():
    # whenever the non-splitting detector passes, every predicted
    # pattern appears on schedule
    rng = np.random.default_rng(5)
    held = 0
    for r in (1, 2):
        rule = Rule(r)
        w = r + 1
        for _ in range(120):
            L = int(rng.integers(1, 4))
            words = [int(rng.integers(1, 2 ** w))]
            words += [int(rng.integers(0, 2 ** w))
                      for _ in range(max(L - 2, 0))]
            if L > 1:
                words.append(int(rng.integers(1, 2 ** w)))
            blocks = tuple(
                BasicString(tuple((x >> (w - 1 - i)) & 1 for i in range(w)))
                for x in words)
            report = frt_check(rule, Particle(0, blocks))
            if report.condition_held:
                held += 1
                assert report.all_matched, blocks
    assert held >= 20


@st.composite
def particle_cases(draw, max_r=3, max_L=5):
    """(r, start site, block words): r <= max_r, L <= max_L, interior
    null blocks allowed."""
    r = draw(st.integers(1, max_r))
    top = 2 ** (r + 1) - 1
    L = draw(st.integers(1, max_L))
    inner = draw(st.lists(st.integers(0, top), min_size=max(L - 2, 0),
                          max_size=max(L - 2, 0)))
    ends = [draw(st.integers(1, top)) for _ in range(min(L, 2))]
    return r, draw(st.integers(-20, 20)), tuple(ends[:1] + inner + ends[1:])


@settings(max_examples=400, deadline=None)
@given(case=particle_cases(max_r=5, max_L=6),
       extra=st.none() | st.integers(0, 60))
def test_frt_check_matches_tuple_oracle(case, extra):
    # horizons reach up to 60 steps past the period, as
    # `frt-classical --horizon` may ask
    r, start, words = case
    rule = Rule(r)
    particle = particle_of(start, words, r + 1)
    horizon = None if extra is None else \
        frt_predict(rule, particle).period + extra
    assert_reports_equal(frt_check(rule, particle, horizon),
                         tuple_frt_check(rule, tuple_particle(particle),
                                         horizon))


def test_frt_check_matches_tuple_oracle_exhaustive():
    # every particle with r <= 2 and L <= 3; a match on a predicted
    # pattern that begins with a 0 bit lies off the particle's grid and
    # must keep its shift
    off_grid = held = 0
    for r in (1, 2):
        rule, w = Rule(r), r + 1
        ends = range(1, 2 ** w)
        for L in (1, 2, 3):
            choices = [ends] + [range(2 ** w)] * (L - 2) + [ends] * (L > 1)
            for words in itertools.product(*choices):
                particle = particle_of(0, words, w)
                report = frt_check(rule, particle)
                assert_reports_equal(report, tuple_frt_check(
                    rule, tuple_particle(particle)))
                held += report.condition_held
                patterns = report.prediction.predicted_blocks
                off_grid += sum(
                    1 for c in report.checks if c.matched and c.pattern_index
                    < L and patterns[c.pattern_index] >> (L * w - 1) == 0)
    assert off_grid == 35
    print(f"exhaustive r <= 2, L <= 3: {held} particles held the "
          f"condition, {off_grid} off-grid matches")


def test_frt_check_off_grid_pattern_golden():
    # r = 2, blocks 101 010: pattern 1 is 010 111, found shifted by -4
    report = frt_check(Rule(2), particle_of(0, (0b101, 0b010), 3))
    assert report.prediction.predicted_blocks == (0b111101, 0b010111)
    assert [(c.time, c.pattern_index, c.shift) for c in report.checks] == \
        [(2, 0, -1), (5, 1, -4), (6, 2, -3)]


@settings(max_examples=300, deadline=None)
@given(r=st.integers(1, 3), origin=st.integers(-30, 30),
       bits=st.lists(st.integers(0, 1), max_size=60))
def test_parse_particles_matches_tuple_oracle(r, origin, bits):
    rule, config = Rule(r), Configuration(origin, tuple(bits))
    got = parse_particles(rule, config)
    assert [tuple_particle(p) for p in got] == \
        tuple_parse_particles(rule, config)
    if got:
        assert render_particles(got) == config


@settings(max_examples=200, deadline=None)
@given(case=particle_cases(), k=st.integers(0, 12))
def test_frt_pattern_on_arrays_matches_ints(case, k):
    r, _, words = case
    w, L = r + 1, len(words)
    word = particle_of(0, words, w).word
    got = frt_pattern(np.array([word, word], dtype=np.int64), k, L, w)
    assert got.tolist() == [frt_pattern(word, k, L, w)] * 2


# -- text formats -----------------------------------------------------------

@settings(max_examples=200, deadline=None)
@given(origin=st.integers(), bits=st.lists(st.integers(0, 1), max_size=60))
def test_configuration_text_round_trip(origin, bits):
    config = Configuration(origin, tuple(bits))
    assert parse_configuration(emit_configuration(config)) == config


def test_configuration_text_golden():
    config = Configuration(-3, (1, 0, 1, 1))
    assert emit_configuration(config) == "origin=-3\n1011\n"
    assert parse_configuration("origin=5\n\n") == EMPTY
    assert parse_configuration("\norigin=-3\n\n1011\n\n") == config


def test_parse_configuration_errors():
    with pytest.raises(ParseError):
        parse_configuration("1011\n")
    with pytest.raises(ParseError):
        parse_configuration("origin=x\n1\n")
    with pytest.raises(ParseError):
        parse_configuration("origin=0\n10121\n")
    # line numbers count blank lines; nothing may follow the row
    for text, line_no in (("\n\norigin=x\n1\n", 3), ("\n1011\n", 2),
                          ("origin=0\n\n10x1\n", 3),
                          ("origin=0\n101\n111\n", 3),
                          ("origin=0\n101\n\norigin=5\n", 4),
                          ("\norigin=1_0\n1\n", 2),
                          ("\norigin=\u0663\n1\n", 2),
                          ("\norigin=+3\n1\n", 2)):
        with pytest.raises(ParseError) as info:
            parse_configuration(text)
        assert info.value.line_no == line_no, text


_CONFIG_TEXT = st.text(st.sampled_from(list("origin=01x-5 \n\t_")), max_size=40)


@settings(max_examples=400, deadline=None)
@given(text=_CONFIG_TEXT | _CONFIG_TEXT.map(lambda t: "origin=" + t))
def test_parse_configuration_raises_only_parse_error(text):
    try:
        config = parse_configuration(text)
    except ParseError:
        return
    assert parse_configuration(emit_configuration(config)) == config


def test_ascii_diagram_golden():
    rows = evolve(Rule(1), Configuration(0, (1, 1, 1)), 2)
    assert ascii_diagram(rows) == "###\n#..\n...\n"


def test_ascii_diagram_empty_rows_are_blank():
    rows = [EMPTY] * 6
    assert all(set(line) <= {"."} for line in
               ascii_diagram(rows).splitlines())
    assert len(ascii_diagram(rows).splitlines()) == 6


def test_diagrams_pad_empty_rows_to_the_frame():
    # the frame lies left of site 0, where an empty row has its origin
    rows = evolve(Rule(1), Configuration(-9, (1, 1, 1)), 2)
    assert rows[-1] == EMPTY
    assert ascii_diagram(rows) == "###\n#..\n...\n"
    assert pbm_diagram(rows) == "P1\n3 3\n1 1 1\n1 0 0\n0 0 0\n"


_ROWS = st.lists(st.builds(Configuration, st.integers(-20, 20),
                           st.lists(st.integers(0, 1), max_size=60)),
                 min_size=1, max_size=8)


@settings(max_examples=300, deadline=None)
@given(configs=_ROWS)
def test_diagrams_match_per_bit_rendering(configs):
    assert ascii_diagram(configs) == per_bit_ascii(configs)
    assert pbm_diagram(configs) == per_bit_pbm(configs)


@settings(max_examples=100, deadline=None)
@given(r=st.integers(1, 4), origin=st.integers(-20, 20),
       bits=st.lists(st.integers(0, 1), max_size=80),
       steps=st.integers(0, 30))
def test_evolved_diagrams_match_per_bit_rendering(r, origin, bits, steps):
    rows = evolve(Rule(r), Configuration(origin, tuple(bits)), steps)
    assert ascii_diagram(rows) == per_bit_ascii(rows)
    assert pbm_diagram(rows) == per_bit_pbm(rows)


def test_pbm_diagram_golden():
    rows = evolve(Rule(1), Configuration(0, (1, 1, 1)), 2)
    assert pbm_diagram(rows) == "P1\n3 3\n1 1 1\n1 0 0\n0 0 0\n"
