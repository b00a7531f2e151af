"""Scalar reference code the vectorized pipeline stages are checked against."""

import math

import numpy as np

from dbalign.deletions import MisdetectionError
from dbalign.infotheory import repetition_table
from dbalign.matching import (
    STATUS_AMBIGUOUS,
    STATUS_MATCHED,
    STATUS_NO_CANDIDATE,
    MatchResult,
    _safe_log2,
)
from dbalign.replicas import blischke_estimate, running_hamming

#: Cell placeholder for a deleted column.
ERASURE = "*"


def cell(segmented, i, j):
    """Row i's cell for original column j: its run of symbols, or ERASURE."""
    s = int(segmented.pattern.s[j])
    if s == 0:
        return ERASURE
    start = segmented.offsets[j]
    return tuple(int(v) for v in segmented.d2[i, start : start + s])


def row_cells(segmented, i):
    return [cell(segmented, i, j) for j in range(segmented.n)]


def cell_code(cell, alphabet_size):
    code = 0
    for v in cell:
        code = code * alphabet_size + (v - 1)
    return code


def reduceat_cells(d2, starts, log_channel):
    """Reference cells: one ``np.add.reduceat`` over each repeated row.

    ``[l, x, j]`` sums ``log_channel[x, y]`` over the copies y of row l's
    run j, the runs starting at ``starts`` and tiling the row's columns;
    ``log_channel`` has a zero column in front, so symbols 1..k index it.
    """
    return np.stack([np.add.reduceat(log_channel[:, row], starts, axis=1) for row in d2])


def typicality_deviation(x_row, cells, est):
    """Reference (per-pair) typicality deviations.

    Returns (dev_joint, dev_x, dev_y): absolute gaps between the
    empirical per-column log-likelihood rates of the pair and the
    estimate's entropies. Any zero-probability observation makes the
    corresponding deviation infinite.
    """
    x_row = np.asarray(x_row)
    n = len(cells)
    if x_row.size != n:
        raise ValueError("row length must equal the number of cells")
    k = est.alphabet_size
    tables = [repetition_table(est.p_x, est.p_y_given_x, s) for s in range(est.s_max + 1)]
    ll_joint = ll_x = ll_y = 0.0
    for xval, c in zip(x_row, cells):
        px = est.p_x[xval - 1]
        ll_x += math.log2(px) if px > 0.0 else -math.inf
        if c is ERASURE:
            s, code = 0, 0
        else:
            s, code = len(c), cell_code(c, k)
        table = tables[s]
        pj = table[xval - 1, code]
        ll_joint += math.log2(pj) if pj > 0.0 else -math.inf
        qy = float(table[:, code].sum())
        ll_y += math.log2(qy) if qy > 0.0 else -math.inf
    return (
        abs(-ll_joint / n - est.joint_entropy),
        abs(-ll_x / n - est.x_entropy),
        abs(-ll_y / n - est.y_entropy),
    )


def typicality_deviations(x_row, segmented, i, est):
    """`typicality_deviation` of ``x_row`` against repeated row i of
    ``segmented``, vectorized over its cells: one gather per run length,
    summed in numpy's order, so equal to the scalar up to rounding."""
    x_row = np.asarray(x_row, dtype=np.intp)
    n, k, s_all = segmented.n, est.alphabet_size, segmented.pattern.s
    ll_joint = ll_y = 0.0
    with np.errstate(divide="ignore"):  # a zero probability counts as -inf
        ll_x = np.log2(est.p_x[x_row - 1]).sum()
        for s in range(int(s_all.max()) + 1):
            cols = np.flatnonzero(s_all == s)
            runs = segmented.d2[i, segmented.offsets[cols, None] + np.arange(s)]
            codes = (runs.astype(np.intp) - 1) @ k ** np.arange(s - 1, -1, -1)
            table = repetition_table(est.p_x, est.p_y_given_x, s)
            ll_joint += np.log2(table[x_row[cols] - 1, codes]).sum()
            ll_y += np.log2(table[:, codes].sum(axis=0)).sum()
    return (
        abs(-ll_joint / n - est.joint_entropy),
        abs(-ll_x / n - est.x_entropy),
        abs(-ll_y / n - est.y_entropy),
    )


def unsupported_x(est):
    """Symbols whose conditional row in the estimate is all-zero."""
    return ~est.p_y_given_x.any(axis=1)


def ungated_replicas(d2):
    """Replica decisions without the dispersion gate: Blischke's midpoint
    rule on every distance series, raising SingleComponentError where the
    estimator refuses."""
    d2 = np.asarray(d2)
    h = running_hamming(d2)
    return h <= d2.shape[0] * blischke_estimate(h, d2.shape[0]).tau


def cooccurrence_loop(g1, g2, alphabet_size):
    """Reference co-occurrence counts: one column pair at a time.

    ``C[x, i, y, j]`` counts seed rows where g1 column i holds x+1 and
    g2 column j holds y+1, added one seed row at a time by ``np.add.at``.
    """
    x = np.asarray(g1).astype(np.intp) - 1
    y = np.asarray(g2).astype(np.intp) - 1
    k = alphabet_size
    counts = np.zeros((k, x.shape[1], k, y.shape[1]), dtype=np.int64)
    for i in range(x.shape[1]):
        for j in range(y.shape[1]):
            np.add.at(counts[:, i, :, j], (x[:, i], y[:, j]), 1)
    return counts


def cross_hamming_loop(g1, g2, phi):
    """Reference distance matrix: one column comparison at a time.

    ``l[i, j]`` counts seed rows where g1 column i differs from g2
    column j after mapping each g2 symbol y to ``phi[y - 1]``.
    """
    g1 = np.asarray(g1)
    mapped = np.asarray(phi)[np.asarray(g2).astype(np.intp) - 1]
    l = np.empty((g1.shape[1], mapped.shape[1]), dtype=np.int64)
    for i in range(g1.shape[1]):
        l[i] = (g1[:, i : i + 1] != mapped).sum(axis=0)
    return l


def scan_remapping_loop(l, tau_hat):
    """Reference outlier scan: one column at a time, in order.

    An entry is an outlier when it lies at least ``tau_hat`` from the
    grand mean of ``l`` (0 when empty). The first column without exactly
    one outlier decides: more than one raises MisdetectionError, none
    returns None. Otherwise each column's outlier row is returned, and
    rows that do not strictly increase raise MisdetectionError.
    """
    l = np.asarray(l)
    mu = float(l.sum()) / l.size if l.size else 0.0
    rows = []
    for j in range(l.shape[1]):
        hits = [i for i in range(l.shape[0]) if abs(float(l[i, j]) - mu) >= tau_hat]
        if len(hits) > 1:
            raise MisdetectionError(f"column {j} has {len(hits)} outliers")
        if not hits:
            return None
        rows.append(hits[0])
    if any(later <= earlier for earlier, later in zip(rows, rows[1:])):
        raise MisdetectionError("outlier rows are not strictly increasing")
    return np.array(rows, dtype=np.intp)


def aligned_pair_counts(g1, g2_free, retained, alphabet_size):
    """Reference channel counts: one bincount over the aligned seed entries.

    ``[x, y]`` counts seed rows where g1 column ``retained[j]`` holds x+1
    and replica-free column j holds y+1, summed over j.
    """
    k = alphabet_size
    x = np.asarray(g1)[:, np.asarray(retained, dtype=np.intp)].astype(np.intp).ravel()
    y = np.asarray(g2_free).astype(np.intp).ravel()
    return np.bincount((x - 1) * k + (y - 1), minlength=k * k).reshape(k, k).astype(np.int64)


def dense_match_rows(d1, segmented, est, epsilon):
    """Reference matcher: the whole m x m joint score matrix at once.

    The same arithmetic as ``match_rows`` on every score, with d1's rows
    on the leading axis; the counts and first hits are reduced over the
    full matrix instead of one tile of repeated rows at a time.
    """
    d1 = np.asarray(d1)
    m1, n = d1.shape
    d2 = segmented.d2
    m2 = d2.shape[0]
    k = est.alphabet_size
    d1_idx = d1.astype(np.intp) - 1
    retained = np.flatnonzero(segmented.pattern.s)

    log_px = _safe_log2(est.p_x)
    ll_x = log_px[d1_idx].sum(axis=1)
    dev_x = np.abs(-ll_x / n - est.x_entropy)

    log_channel = _safe_log2(est.p_y_given_x)
    d2_idx = d2.astype(np.intp) - 1
    cell_ll = np.add.reduceat(
        log_channel[:, d2_idx.T], segmented.offsets[retained], axis=1
    )

    width = k * retained.size
    onehot = d1_idx[:, None, retained] == np.arange(k)[:, None]
    joint_ll = onehot.reshape(m1, width).astype(float) @ cell_ll.reshape(width, m2)
    joint_ll += ll_x[:, None]
    joint_ll *= -1.0 / n
    joint_ll -= est.joint_entropy
    dev_joint = np.abs(joint_ll, out=joint_ll)

    q_y = np.tensordot(est.p_x, np.exp2(cell_ll), axes=1)
    dev_y = np.abs(-_safe_log2(q_y).sum(axis=0) / n - est.y_entropy)

    typical = (dev_joint <= epsilon) & (dev_x <= epsilon)[:, None]
    typical &= (dev_y <= epsilon)[None, :]
    counts = typical.sum(axis=0)
    unique = counts == 1
    assigned = np.where(unique, typical.argmax(axis=0), -1)
    status = np.where(
        unique, STATUS_MATCHED, np.where(counts == 0, STATUS_NO_CANDIDATE, STATUS_AMBIGUOUS)
    ).astype(np.int8)

    claims = np.bincount(assigned[unique], minlength=m1)
    collided = unique & (claims[assigned] > 1)
    status[collided] = STATUS_AMBIGUOUS
    assigned[collided] = -1
    return MatchResult(assigned=assigned, status=status)


def serial_channel(d1, pattern, spec, rng):
    """Reference channel: one loop over the input symbols on one stream.

    The entries of each symbol, found in row-major order over the expanded
    input, are resampled by one ``Generator.choice`` call, which draws the
    same uniforms in the same order as the split sampler.
    """
    expanded = np.take(d1, np.repeat(np.arange(d1.shape[1]), pattern.s), axis=1)
    noisy = np.empty(expanded.shape, np.uint8)
    flat = noisy.reshape(-1)
    symbols = np.arange(1, spec.alphabet_size + 1, dtype=np.uint8)
    written = 0
    for x in symbols:
        at = np.flatnonzero(expanded == x)
        flat[at] = rng.choice(symbols, at.size, p=spec.p_y_given_x[x - 1])
        written += at.size
    if written != expanded.size:
        raise ValueError(f"d1 symbols must lie in 1..{spec.alphabet_size}")
    return noisy


def markov_rows(m, n, p_x, rho, rng):
    """An m x n uint8 matrix whose rows are Markov chains off the i.i.d.
    model: each entry after the first repeats the one before it with
    probability rho and is otherwise fresh from p_x, so every entry's
    marginal stays p_x."""
    symbols = np.arange(1, len(p_x) + 1, dtype=np.uint8)
    rows = rng.choice(symbols, size=(m, n), p=p_x)
    repeat = rng.random((m, n)) < rho
    for j in range(1, n):
        rows[repeat[:, j], j] = rows[repeat[:, j], j - 1]
    return rows
