"""Synthetic correlated-database generation.

Ground truth lives here: the source distribution, the column repetition
pattern, the hidden row permutation, and the pre-matched seed rows. All
randomness flows from a single 64-bit master seed through fixed substream
keys, so objects can be generated in any order (or in parallel) without
changing the result.

Symbols are the integers ``1..alphabet_size`` and are stored as single
bytes (``uint8``). They are drawn bit-identically to
``Generator.choice(symbols, size, p=p)``: the same uniforms, consumed in
the same order, give the same symbols. A draw fills its float64 uniforms
in contiguous parts over the calling thread's budget (``fanout``), each
part from the stream advanced to its offset, so the budget never changes a
symbol; each part fills and counts them in chunks of DRAW_PART. The noise
channel splits its rows the same way and expands each part's rows of d1
one block of DRAW_PART entries at a time; each part finds its own
positions of each input symbol and draws their outputs from the stream at
that (part, symbol)'s offset. So neither holds more than a few chunks per
part beside the matrices it returns. What is left of the sampler's time is
mostly the uniform stream.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import fanout

MAX_ALPHABET = 255  # one-byte symbol storage

PROB_ATOL = 1e-12

# Uniforms that each part of a split draw fills at least (see _draw); a
# thread start costs about as much as drawing 2^15 of them.
DRAW_PART = 1 << 17

# Substream roles used by sample_instance: streams are keyed by
# (master_seed, point, trial, role) and never overlap.
ROLE_DATABASE = 0
ROLE_PATTERN = 1
ROLE_PERMUTATION = 2
ROLE_CHANNEL = 3
ROLE_SEEDS = 4


def check_prob_vector(p, name, atol=PROB_ATOL):
    """``p`` as a float array; ValueError unless it is a nonempty 1-D vector
    of entries in [0, 1] that sums to 1 within ``atol``.

    A NaN or infinite entry makes the sum non-finite, so it fails the mass test.
    """
    p = np.asarray(p, dtype=float)
    if p.ndim != 1 or p.size == 0:
        raise ValueError(f"{name} must be a nonempty 1-D probability vector")
    total = float(p.sum())
    if not abs(total - 1.0) <= atol:
        raise ValueError(f"{name} mass deviates from 1: it sums to {total!r}")
    if np.any(p < 0.0) or np.any(p > 1.0):
        raise ValueError(f"{name} entries must lie in [0, 1]")
    return p


def as_permutation(sigma, m: int) -> np.ndarray:
    """sigma as int64; ValueError unless it is a permutation of 0..m-1."""
    sigma = np.asarray(sigma)
    if sigma.dtype.kind not in "iu" or not np.array_equal(np.sort(sigma), np.arange(m)):
        raise ValueError(f"sigma must be a permutation of 0..{m - 1}")
    return sigma.astype(np.int64)


def _frozen(arr):
    arr = np.ascontiguousarray(arr)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class ModelSpec:
    """Source, noise, and repetition distributions for one experiment.

    ``p_x`` is the symbol distribution, ``p_y_given_x[i]`` the noise
    output distribution for input symbol ``i + 1``, and ``p_s[k]`` the
    probability that a column is repeated ``k`` times (``k = 0`` deletes
    the column).
    """

    p_x: np.ndarray
    p_y_given_x: np.ndarray
    p_s: np.ndarray

    def __post_init__(self):
        p_x = check_prob_vector(self.p_x, "p_x")
        p_s = check_prob_vector(self.p_s, "p_s")
        size = p_x.size
        if size > MAX_ALPHABET:
            raise ValueError(f"alphabet size {size} exceeds {MAX_ALPHABET}")
        p_ygx = np.asarray(self.p_y_given_x, dtype=float)
        if p_ygx.shape != (size, size):
            raise ValueError(
                f"p_y_given_x must be {size}x{size}, got {p_ygx.shape}"
            )
        for i in range(size):
            check_prob_vector(p_ygx[i], f"p_y_given_x[{i}]")
        object.__setattr__(self, "p_x", _frozen(p_x))
        object.__setattr__(self, "p_y_given_x", _frozen(p_ygx))
        object.__setattr__(self, "p_s", _frozen(p_s))

    @property
    def alphabet_size(self) -> int:
        return self.p_x.size

    @property
    def s_max(self) -> int:
        return self.p_s.size - 1

    @property
    def delta(self) -> float:
        """Probability that a column is deleted."""
        return float(self.p_s[0])

    def p_y(self) -> np.ndarray:
        """Marginal output-symbol distribution."""
        return self.p_x @ self.p_y_given_x

    def expected_repetitions(self) -> float:
        return float(np.arange(self.p_s.size) @ self.p_s)


@dataclass(frozen=True)
class RepetitionPattern:
    """Per-column repetition counts; 0 means deleted, >1 replicated."""

    s: np.ndarray

    def __post_init__(self):
        s = np.asarray(self.s)
        if s.dtype.kind not in "iu" or s.ndim != 1 or s.size == 0:
            raise ValueError("pattern must be a nonempty 1-D integer vector")
        if np.any(s < 0):
            raise ValueError("repetition counts must be nonnegative")
        object.__setattr__(self, "s", _frozen(s.astype(np.int64, copy=False)))

    @property
    def n(self) -> int:
        return self.s.size

    @property
    def total(self) -> int:
        """Total output column count (sum of repetition counts)."""
        return int(self.s.sum())

    def retained_indices(self) -> np.ndarray:
        return np.flatnonzero(self.s)


@dataclass(frozen=True)
class DatabasePair:
    """Anonymized matrix, its noisy repeated counterpart, and hidden truth.

    ``sigma`` maps row ``i`` of ``d1`` to row ``sigma[i]`` of ``d2``
    (0-based). The pattern and permutation are ground truth: generation
    stores them here and detection code never reads them.
    """

    d1: np.ndarray
    d2: np.ndarray
    sigma: np.ndarray
    pattern: RepetitionPattern

    def __post_init__(self):
        m = self.d1.shape[0]
        if self.d2.shape[0] != m:
            raise ValueError("d1 and d2 must have the same row count")
        if self.d2.shape[1] != self.pattern.total:
            raise ValueError(
                "d2 column count must equal the pattern's repetition total"
            )
        object.__setattr__(self, "sigma", _frozen(as_permutation(self.sigma, m)))


@dataclass(frozen=True)
class SeedPair:
    """Pre-matched row batches sharing the database's repetition pattern.

    Rows are aligned by index: row i of g1 and row i of g2 are a
    correctly matched pair. Seeds are generated fresh, never carved out
    of the database pair.
    """

    g1: np.ndarray
    g2: np.ndarray

    def __post_init__(self):
        if self.g1.shape[0] != self.g2.shape[0]:
            raise ValueError("seed matrices must have the same row count")


def substream(master_seed: int, *key: int) -> np.random.Generator:
    """Independent random stream for (master_seed, key).

    Distinct keys give statistically independent, non-overlapping
    streams (numpy SeedSequence spawn keys), which is the whole
    reproducibility contract: a consumer that always asks for the same
    key gets the same stream no matter what else ran before it.
    """
    return np.random.default_rng(np.random.SeedSequence(master_seed, spawn_key=key))


def _splittable(rng: np.random.Generator):
    """The state of ``rng``'s PCG64, or None where its stream must not be
    split: any other bit generator, or a PCG64 holding a buffered 32-bit half.

    A PCG64 without that half gives one 64-bit output per float64 uniform,
    so the uniform at offset i of the stream is the first uniform of a copy
    advanced by i (``_stream_at``).
    """
    state = rng.bit_generator.state
    if type(rng.bit_generator) is np.random.PCG64 and not state["has_uint32"]:
        return state
    return None


def _stream_at(state, offset: int) -> np.random.Generator:
    """A generator on a copy of the PCG64 ``state`` advanced by ``offset``."""
    copy = np.random.PCG64()
    copy.state = state
    return np.random.Generator(copy.advance(offset))


def _edges(p):
    """The compares that pick a symbol from p as ``Generator.choice`` does.

    ``choice`` picks 1 plus the number of entries of p's normalised cdf at
    or below a uniform u in [0, 1). The last entry is exactly 1 > u; of
    the others, one <= 0 counts for every u and one >= 1 for none, and a
    repeated one counts once per repeat. Returns the symbol that u below
    every other entry picks, the distinct entries in (0, 1), and how many
    times each occurs.
    """
    cdf = np.cumsum(p)
    cdf /= cdf[-1]
    inner = cdf[:-1]
    cuts, repeats = np.unique(inner[(inner > 0.0) & (inner < 1.0)], return_counts=True)
    return 1 + int(np.count_nonzero(inner <= 0.0)), cuts, repeats.tolist()


def _count_cdf(u, edges, out, above) -> None:
    """Write into uint8 ``out`` the symbol that each uniform of ``u`` picks
    by ``edges`` (``_edges``): one compare per distinct reachable cdf
    entry, its mask added once per repeat. ``above`` is a bool buffer of
    u's shape."""
    first, cuts, repeats = edges
    out.fill(first)
    mask = above.view(np.uint8)
    for cut, times in zip(cuts, repeats):
        np.greater_equal(u, cut, out=above)
        if times > 1:
            mask *= times
        out += mask


def _draw(p, size, rng: np.random.Generator) -> np.ndarray:
    """i.i.d. symbols 1..len(p) from p, as a borrowed uint8 array of shape
    size.

    Bit-identical to ``rng.choice(np.arange(1, len(p) + 1, dtype=np.uint8),
    size, p=p)``, which returns 1 plus the number of entries of the
    normalised cdf at or below each uniform u (``_count_cdf``).

    A stream that may be split (``_splittable``) fills its uniforms in
    contiguous parts of at least DRAW_PART (``fanout.parts``): each part
    after the first draws from a copy of the stream advanced to its
    offset, and ``rng`` itself draws the first part and is then advanced
    past the rest. Any other stream draws in one part. Each part fills and
    counts its uniforms in chunks of DRAW_PART, in order.
    """
    out = fanout.borrow(size, np.uint8)
    flat = out.reshape(-1)
    edges = _edges(p)
    state = _splittable(rng)
    spans = fanout.parts(flat.size, DRAW_PART, None if state else 1)
    streams = [rng] + [_stream_at(state, start) for start, _ in spans[1:]]
    chunk = max(1, min(DRAW_PART, flat.size))

    def fill(j):
        u, above = buffers[j]
        start, stop = spans[j]
        for c in range(start, stop, chunk):
            length = min(chunk, stop - c)
            streams[j].random(out=u[:length])
            _count_cdf(u[:length], edges, flat[c : c + length], above[:length])

    with fanout.scope():
        # Each part's uniforms and compare mask for one chunk.
        buffers = [(fanout.borrow(chunk, float), fanout.borrow(chunk, bool)) for _ in spans]
        fanout.fan_out(fill, range(len(spans)))
    if len(spans) > 1:
        rng.bit_generator.advance(flat.size - spans[0][1])
    return out


def generate_database(m: int, n: int, spec: ModelSpec, rng: np.random.Generator) -> np.ndarray:
    """i.i.d. symbol matrix of shape (m, n) drawn from spec.p_x, borrowed."""
    if m < 1 or n < 1:
        raise ValueError("matrix dimensions must be positive")
    return _draw(spec.p_x, (m, n), rng)


def draw_pattern(n: int, spec: ModelSpec, rng: np.random.Generator) -> RepetitionPattern:
    """i.i.d. repetition counts for n columns drawn from spec.p_s."""
    s = rng.choice(np.arange(spec.s_max + 1), size=n, p=spec.p_s)
    return RepetitionPattern(s)


def apply_channel(
    d1: np.ndarray,
    pattern: RepetitionPattern,
    spec: ModelSpec,
    rng: np.random.Generator,
) -> np.ndarray:
    """Repeat columns per the pattern and pass entries through the noise
    channel, into a borrowed array; rows keep their order.

    Row i of the output holds, for each original column j in order,
    ``pattern.s[j]`` independent noisy copies of ``d1[i, j]``. Deleted
    columns (count 0) contribute nothing.

    The stream is spent one input symbol at a time, each symbol's entries
    in row-major order, each output drawn as by ``_draw``: the entry at
    rank r among the entries of symbol x takes the uniform at offset
    (entries of the symbols below x) + r.

    The rows split into contiguous parts of at least DRAW_PART entries
    over the calling thread's budget (``fanout.parts``), one part unless
    the stream may be split (``_splittable``), and each part walks its
    rows in blocks of at most DRAW_PART entries. The first fan-out expands
    each block of d1 into its rows of the output and counts its entries
    of each symbol, which fixes the offset of each (part, symbol); the
    second resamples them from a copy of the stream advanced to that
    offset, every symbol of a block into a buffer before the block is
    overwritten, and ``rng`` is then advanced past every entry. A stream
    that may not be split is drawn from directly, one symbol at a time
    over every block, so each symbol expands every block of d1 again.
    """
    m, n = d1.shape
    if pattern.n != n:
        raise ValueError("pattern length must equal the column count of d1")
    k = spec.alphabet_size
    if d1.dtype != np.uint8:  # expanded into the uint8 output, so no symbol may wrap
        narrow = d1.astype(np.uint8)
        if not np.array_equal(narrow, d1):
            raise ValueError(f"d1 symbols must lie in 1..{k}")
        d1 = narrow

    cols = np.repeat(np.arange(n), pattern.s)
    width = max(cols.size, 1)
    edges = [_edges(p) for p in spec.p_y_given_x]
    # noisy must be C-ordered, so that each block's flat view is a view of
    # it and not a copy that silently drops every write.
    noisy = fanout.borrow((m, cols.size), np.uint8)
    state = _splittable(rng)
    rows = fanout.parts(m, -(-DRAW_PART // width), None if state else 1)
    step = max(1, min(DRAW_PART // width, m))
    chunk = step * cols.size

    def blocks(j):
        """Part j's (first row, last row + 1) blocks, in order."""
        r0, r1 = rows[j]
        return [(b0, min(b0 + step, r1)) for b0 in range(r0, r1, step)]

    def expand(b0, b1, out):
        """Rows b0..b1-1 of d1, columns repeated, into the flat ``out``."""
        np.take(d1[b0:b1], cols, axis=1, out=out.reshape(b1 - b0, cols.size), mode="clip")
        return out

    def count(j):
        hit, counts = buffers[j][0], [0] * k
        for b0, b1 in blocks(j):
            x_in = expand(b0, b1, noisy[b0:b1].reshape(-1))
            for x in range(k):
                counts[x] += np.count_nonzero(np.equal(x_in, x + 1, out=hit[: x_in.size]))
        return counts

    def draw(j, x, x_in, target):
        """Resample part j's entries of symbol x + 1 in the flat ``x_in``
        into the same positions of the flat ``target``."""
        hit, u, drawn = buffers[j][:3]
        at = np.flatnonzero(np.equal(x_in, x + 1, out=hit[: x_in.size]))
        size = at.size
        streams[j][x].random(out=u[:size])
        _count_cdf(u[:size], edges[x], drawn[:size], hit[:size])  # hit is free again
        target[at] = drawn[:size]

    def resample(j):
        if state:
            # Block by block: each block's input sits in its rows of noisy
            # since the count, so its outputs go to a buffer until every
            # symbol of the block is drawn.
            out = buffers[j][3]
            for b0, b1 in blocks(j):
                x_in = noisy[b0:b1].reshape(-1)
                for x in range(k):
                    draw(j, x, x_in, out)
                x_in[:] = out[: x_in.size]
        else:
            x_in = buffers[j][3]
            for x in range(k):
                for b0, b1 in blocks(j):
                    size = (b1 - b0) * cols.size
                    draw(j, x, expand(b0, b1, x_in[:size]), noisy[b0:b1].reshape(-1))

    with fanout.scope():
        # Each part's mask, uniforms and drawn symbols for one block, and
        # its outputs or, on a stream that may not be split, its input.
        buffers = [
            [fanout.borrow(chunk, dtype) for dtype in (bool, float, np.uint8, np.uint8)]
            for _ in rows
        ]
        counts = np.array(fanout.fan_out(count, range(len(rows))), np.int64)
        if counts.sum() != noisy.size:  # before any draw, so rng is left as it was
            raise ValueError(f"d1 symbols must lie in 1..{k}")
        totals = counts.sum(axis=0)
        offsets = (np.cumsum(totals) - totals) + (np.cumsum(counts, axis=0) - counts)
        streams = [[_stream_at(state, int(o)) if state else rng for o in part] for part in offsets]
        fanout.fan_out(resample, range(len(rows)))
    if state:
        rng.bit_generator.advance(noisy.size)
    return noisy


def generate_seeds(
    num_seeds: int,
    n: int,
    pattern: RepetitionPattern,
    spec: ModelSpec,
    rng: np.random.Generator,
) -> SeedPair:
    """Batch of pre-matched seed row pairs under the given pattern, both
    borrowed.

    g1 rows are i.i.d. from p_x; g2 is g1 pushed through the channel,
    so row i of each matrix is a matched pair by construction.
    """
    g1 = generate_database(num_seeds, n, spec, rng)
    return SeedPair(g1, apply_channel(g1, pattern, spec, rng))


def sample_instance(
    m: int,
    n: int,
    num_seeds: int,
    spec: ModelSpec,
    master_seed: int,
    point: int = 0,
    trial: int = 0,
) -> tuple[DatabasePair, SeedPair]:
    """One full ground-truth instance from documented substreams.

    Substream key layout: ``(point, trial, role)`` with the ROLE_*
    constants above. Identical arguments always produce bit-identical
    instances. Row i of d1 passes through the channel into row sigma[i]
    of d2. d1, d2, g1 and g2 are borrowed; the channel's output for d1 is
    returned in a scope of its own once it is scattered into d2.
    """
    key = (point, trial)
    d1 = generate_database(m, n, spec, substream(master_seed, *key, ROLE_DATABASE))
    pattern = draw_pattern(n, spec, substream(master_seed, *key, ROLE_PATTERN))
    sigma = substream(master_seed, *key, ROLE_PERMUTATION).permutation(m)
    d2 = fanout.borrow((m, pattern.total), np.uint8)
    with fanout.scope():
        rng = substream(master_seed, *key, ROLE_CHANNEL)
        noisy = apply_channel(d1, pattern, spec, rng)
        d2[sigma] = noisy
        del noisy  # before the seeds are drawn
    rng = substream(master_seed, *key, ROLE_SEEDS)
    seeds = generate_seeds(num_seeds, n, pattern, spec, rng)
    return DatabasePair(d1, d2, sigma, pattern), seeds


def instance_bytes(m: int, n: int, num_seeds: int, s_max: int) -> int:
    """Upper bound on `sample_instance`'s working set on the caller's budget.

    Kept: sigma's int64 entries, the uint8 source rows of d1 and of g1, and
    a uint8 channel output on each side, of at most n * max(s_max, 1)
    columns; on d1's side d2 sits beside that output until it is returned,
    before the seeds are drawn. Transient, the larger of the chunk buffers
    of a draw or of a channel at the budget: each draw part holds DRAW_PART
    float64 uniforms and their compare mask, 9 bytes each; each channel
    part a block of at most DRAW_PART entries, one byte each of mask, drawn
    symbols and outputs (or expanded input), their float64 uniforms and the
    int64 positions of one symbol, 19 bytes each. Each of the at most 5
    kept or borrowed matrices and 4 borrows per part is carved on an
    ALIGN-byte boundary (``fanout.borrow``). And 64 KiB of generators, cdfs
    and array headers (about 6 KiB measured).
    """
    k_max = n * max(s_max, 1)
    rows = max(m, num_seeds)
    kept = m * (n + 2 * k_max + 8) + num_seeds * (n + k_max)
    draw = len(fanout.parts(rows * n, DRAW_PART))
    channel = len(fanout.parts(rows, -(-DRAW_PART // k_max)))
    padding = fanout.ALIGN * (5 + 4 * max(draw, channel))
    return kept + max(9 * draw, 19 * channel) * DRAW_PART + padding + 64 * 1024
