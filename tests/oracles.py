"""Scalar reference code the vectorized matcher is checked against."""

import math

import numpy as np

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
    ll_joint = ll_x = ll_y = 0.0
    for xval, c in zip(x_row, cells):
        px = est.p_x[xval - 1]
        ll_x += math.log2(px) if px > 0.0 else -math.inf
        if c is ERASURE:
            s, code = 0, 0
        else:
            s, code = len(c), cell_code(c, k)
        table = est.tables[s]
        pj = table[xval - 1, code]
        ll_joint += math.log2(pj) if pj > 0.0 else -math.inf
        qy = float(table[:, code].sum())
        ll_y += math.log2(qy) if qy > 0.0 else -math.inf
    return (
        abs(-ll_joint / n - est.joint_entropy),
        abs(-ll_x / n - est.x_entropy),
        abs(-ll_y / n - est.y_entropy),
    )
