"""Synthetic correlated-database generation.

Ground truth lives here: the source distribution, the column repetition
pattern, the hidden row permutation, and the pre-matched seed rows. All
randomness flows from a single 64-bit master seed through fixed substream
keys, so objects can be generated in any order (or in parallel) without
changing the result.

Symbols are the integers ``1..alphabet_size`` and are stored as single
bytes (``uint8``). They are drawn bit-identically to
``Generator.choice(symbols, size, p=p)``: the same uniforms, consumed in
the same order, give the same symbols. The largest transient of a draw is
its float64 uniforms, 8 bytes per symbol drawn, plus, in the channel, 8
bytes per int64 position of the input symbol being resampled.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

MAX_ALPHABET = 255  # one-byte symbol storage

PROB_ATOL = 1e-12

# Substream roles used by sample_instance: streams are keyed by
# (master_seed, point, trial, role) and never overlap.
ROLE_DATABASE = 0
ROLE_PATTERN = 1
ROLE_PERMUTATION = 2
ROLE_CHANNEL = 3
ROLE_SEEDS = 4


def _check_prob_vector(p, name):
    p = np.asarray(p, dtype=float)
    if p.ndim != 1 or p.size == 0:
        raise ValueError(f"{name} must be a nonempty 1-D probability vector")
    if np.any(p < 0.0) or np.any(p > 1.0):
        raise ValueError(f"{name} entries must lie in [0, 1]")
    if abs(float(p.sum()) - 1.0) > PROB_ATOL:
        raise ValueError(f"{name} must sum to 1, got {float(p.sum())!r}")
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
        p_x = _check_prob_vector(self.p_x, "p_x")
        p_s = _check_prob_vector(self.p_s, "p_s")
        size = p_x.size
        if size > MAX_ALPHABET:
            raise ValueError(f"alphabet size {size} exceeds {MAX_ALPHABET}")
        p_ygx = np.asarray(self.p_y_given_x, dtype=float)
        if p_ygx.shape != (size, size):
            raise ValueError(
                f"p_y_given_x must be {size}x{size}, got {p_ygx.shape}"
            )
        for i in range(size):
            _check_prob_vector(p_ygx[i], f"p_y_given_x[{i}]")
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
        s = np.asarray(self.s, dtype=np.int64)
        if s.ndim != 1 or s.size == 0:
            raise ValueError("pattern must be a nonempty 1-D integer vector")
        if np.any(s < 0):
            raise ValueError("repetition counts must be nonnegative")
        object.__setattr__(self, "s", _frozen(s))

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


def _draw(p, size, rng: np.random.Generator) -> np.ndarray:
    """i.i.d. symbols 1..len(p) from p, as uint8 of shape size.

    Bit-identical to ``rng.choice(np.arange(1, len(p) + 1, dtype=np.uint8),
    size, p=p)``, which returns 1 plus the number of entries of the
    normalised cdf at or below each uniform u. The last entry is exactly
    1 > u, so counting the first len(p) - 1 entries gives the same value.
    """
    u = rng.random(size)
    cdf = np.cumsum(p)
    cdf /= cdf[-1]
    out = np.ones(u.shape, dtype=np.uint8)
    for edge in cdf[:-1]:
        out += u >= edge
    return out


def generate_database(m: int, n: int, spec: ModelSpec, rng: np.random.Generator) -> np.ndarray:
    """i.i.d. symbol matrix of shape (m, n) drawn from spec.p_x."""
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
    channel; rows keep their order.

    Row i of the output holds, for each original column j in order,
    ``pattern.s[j]`` independent noisy copies of ``d1[i, j]``. Deleted
    columns (count 0) contribute nothing.
    """
    n = d1.shape[1]
    if pattern.n != n:
        raise ValueError("pattern length must equal the column count of d1")

    cols = np.repeat(np.arange(n), pattern.s)
    expanded = np.take(d1, cols, axis=1)
    # noisy must be C-ordered, so that flat is a view of it and not a copy
    # that silently drops every write.
    noisy = np.empty(expanded.shape, np.uint8)
    flat = noisy.reshape(-1)
    # One input symbol at a time, in row-major order: the transient is that
    # symbol's int64 positions and float64 uniforms, 16 bytes per entry.
    # An entry outside 1..k is never written, so the writes must cover all.
    written = 0
    for x in range(1, spec.alphabet_size + 1):
        at = np.flatnonzero(expanded == x)
        flat[at] = _draw(spec.p_y_given_x[x - 1], at.size, rng)
        written += at.size
    if written != expanded.size:
        raise ValueError(f"d1 symbols must lie in 1..{spec.alphabet_size}")
    return noisy


def generate_seeds(
    num_seeds: int,
    n: int,
    pattern: RepetitionPattern,
    spec: ModelSpec,
    rng: np.random.Generator,
) -> SeedPair:
    """Batch of pre-matched seed row pairs under the given pattern.

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
    of d2.
    """
    key = (point, trial)
    d1 = generate_database(m, n, spec, substream(master_seed, *key, ROLE_DATABASE))
    pattern = draw_pattern(n, spec, substream(master_seed, *key, ROLE_PATTERN))
    sigma = substream(master_seed, *key, ROLE_PERMUTATION).permutation(m)
    noisy = apply_channel(d1, pattern, spec, substream(master_seed, *key, ROLE_CHANNEL))
    d2 = np.empty_like(noisy)
    d2[sigma] = noisy
    seeds = generate_seeds(num_seeds, n, pattern, spec, substream(master_seed, *key, ROLE_SEEDS))
    return DatabasePair(d1, d2, sigma, pattern), seeds


def instance_bytes(m: int, n: int, num_seeds: int, s_max: int) -> int:
    """Upper bound on `sample_instance`'s working set.

    The kept uint8 arrays (d1, d2 and the channel output it is scattered
    from; g1, g2 and the channel's expanded input and symbol mask), plus
    the generator's largest transient: one float64 uniform per symbol of
    the largest single draw and one int64 position per entry the channel
    resamples at once, both at most max(m, num_seeds) * k_max.
    """
    k_max = n * max(s_max, 1)
    kept = 2 * m * (n + k_max) + 4 * num_seeds * (n + k_max)
    return kept + 16 * max(m, num_seeds) * k_max
