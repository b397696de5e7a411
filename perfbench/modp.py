"""Arithmetic mod a prime on small integer matrices.

Written apart from ``tworay.field`` and ``tworay.homlab`` so that the
benchmark's checks share no code with what they check.  Vectors are laid out
row-major here (the package uses column-major), and every product is guarded
against int64 overflow.
"""

import numpy as np


def _as_mat(a, p):
    return np.asarray(a, dtype=np.int64) % p


def matmul(a, b, p):
    a, b = _as_mat(a, p), _as_mat(b, p)
    if a.shape[1] != b.shape[0]:
        raise ValueError(f"shape mismatch {a.shape} @ {b.shape}")
    if a.shape[1] * (p - 1) ** 2 >= 2 ** 63:
        raise OverflowError(f"inner dimension {a.shape[1]} overflows mod {p}")
    if a.size == 0 or b.size == 0:
        return np.zeros((a.shape[0], b.shape[1]), dtype=np.int64)
    return (a @ b) % p


def row_reduce(a, p):
    """Reduced row echelon form of a copy of ``a``, with its pivot columns."""
    m = _as_mat(a, p).copy()
    rows, cols = m.shape
    pivots = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        below = np.flatnonzero(m[r:, c])
        if below.size == 0:
            continue
        i = r + int(below[0])
        m[[r, i]] = m[[i, r]]
        m[r] = m[r] * pow(int(m[r, c]), p - 2, p) % p
        hit = np.flatnonzero(m[:, c])
        hit = hit[hit != r]
        if hit.size:
            m[hit] = (m[hit] - np.outer(m[hit, c], m[r])) % p
        pivots.append(c)
        r += 1
    return m, pivots


def rank(a, p):
    a = np.asarray(a)
    return 0 if a.size == 0 else len(row_reduce(a, p)[1])


def kernel(a, p):
    """Columns spanning the right kernel of ``a``."""
    rows, cols = np.shape(a)
    if rows == 0:
        return np.eye(cols, dtype=np.int64)
    m, pivots = row_reduce(a, p)
    free = [c for c in range(cols) if c not in set(pivots)]
    out = np.zeros((cols, len(free)), dtype=np.int64)
    for k, fc in enumerate(free):
        out[fc, k] = 1
        for r, pc in enumerate(pivots):
            out[pc, k] = -m[r, fc] % p
    return out


def is_nilpotent(a, p):
    """A square matrix is nilpotent iff its n-th power vanishes."""
    m = _as_mat(a, p)
    n = m.shape[0]
    power = 1
    while power < n:
        m = matmul(m, m, p)
        power *= 2
    return not m.any()


def block_diag(blocks):
    rows = sum(b.shape[0] for b in blocks)
    cols = sum(b.shape[1] for b in blocks)
    out = np.zeros((rows, cols), dtype=np.int64)
    r = c = 0
    for b in blocks:
        out[r: r + b.shape[0], c: c + b.shape[1]] = b
        r += b.shape[0]
        c += b.shape[1]
    return out
