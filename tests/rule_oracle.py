"""Per-window and per-bit references for the classical automaton.

The package runs the rule on whole rows and windows as int words; these
functions restate it one window or one bit at a time, for the tests to
compare against: `next_center` and `f_window` for the window rule,
`render_particles` for particle segmentation, `bits_word` and
`flat_bits` for the words of rows, blocks and particles, and
`emit_configuration` for the configuration text format.  `window_len`,
`site`, `shifted` and `particle_width` are the small derived quantities
only the tests read.
"""

from qsca.sca_core import Configuration


def window_len(rule):
    """Cells in one window: r left neighbours, the center, r right."""
    return 2 * rule.radius + 1


def site(config, n):
    """Bit value of a row at site n, 0 outside the stored range."""
    if config.origin <= n <= config.end:
        return config.bits[n - config.origin]
    return 0


def shifted(config, k):
    """The row moved k sites to the right, rebuilt from its word."""
    return Configuration(config.origin + k, format(config.word, "b"))


def bits_word(bits):
    """The bits read as a binary number, the first bit most significant,
    one bit at a time; 0 for no bits."""
    word = 0
    for b in bits:
        word = 2 * word + b
    return word


def flat_bits(particle):
    """The bits of a particle, its blocks' bits in order."""
    return tuple(b for blk in particle.blocks for b in blk.bits)


def particle_width(particle):
    """Sites a particle covers: its block count times its block length."""
    return particle.block_count * particle.block_len


def next_center(rule, bits):
    """New center bit of one window (r updated left bits, the old center,
    r old right bits); total, the all-zero window maps to 0."""
    bits = tuple(bits)
    if len(bits) != window_len(rule):
        raise ValueError(
            f"window has {len(bits)} bits, expected {window_len(rule)}")
    if not any(bits):
        return 0
    parity = 0
    for b in bits:
        parity ^= b
    return 1 ^ parity


def f_window(rule, word):
    """One-step image of a nonzero window word: center bit rewritten.

    Bijective from the nonzero words of length 2r+1 onto all words except
    the single word with zero sides and center 1.  The all-zero word is
    outside the domain and raises ValueError.
    """
    word = tuple(int(b) for b in word)
    if len(word) != window_len(rule):
        raise ValueError(
            f"word has {len(word)} bits, expected {window_len(rule)}")
    if not any(word):
        raise ValueError("the all-zero word has no image")
    r = rule.radius
    return word[:r] + (next_center(rule, word),) + word[r + 1:]


def render_particles(particles):
    """Place particles on the empty background at their start sites."""
    placed = sorted(particles, key=lambda p: p.start_site)
    for a, b in zip(placed, placed[1:]):
        if a.start_site + particle_width(a) > b.start_site:
            raise ValueError("particles overlap")
    if not placed:
        return Configuration(0, ())
    lo = placed[0].start_site
    bits = [0] * (placed[-1].start_site + particle_width(placed[-1]) - lo)
    for p in placed:
        start = p.start_site - lo
        bits[start:start + particle_width(p)] = flat_bits(p)
    return Configuration(lo, tuple(bits))


def emit_configuration(config):
    """The two-line text format: `origin=<int>`, then the stored bits."""
    return "origin={}\n{}\n".format(config.origin,
                                    "".join(map(str, config.bits)))
