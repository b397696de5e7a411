"""Exact linear algebra over prime fields.

Matrices are numpy int64 arrays with entries reduced into [0, p), and
products are formed in int64 before reduction (in ``mul`` and in callers
that multiply reduced matrices directly).  An inner product of length n is
exact while n * (p - 1)^2 < 2^63, so the order is capped at ``MAX_PRIME``:
below 2^21 every inner dimension up to 2^21 is safe.  With the default
prime ``DEFAULT_PRIME`` = 32003 the limit is about 9 * 10^9.

One reducer serves dense and sparse input.  ``rref_sparse`` reduces rows
given as ``{column: coefficient}`` dicts in Python integers, so no overflow
bound applies there, and ``rref`` passes the nonzero rows of a dense matrix
through it and rebuilds the dense form.
"""

from collections import defaultdict

import numpy as np

from .defining_system import check_integer


MAX_PRIME = 2 ** 21
DEFAULT_PRIME = 32003


def integer_array(data, name) -> np.ndarray:
    """``data`` as an int64 array; ValueError naming ``name`` unless its
    dtype is an integer type that int64 holds, or it is empty.  The dtype is
    checked, not each entry: bool, float, str, uint64 and object arrays are
    rejected, so a Python integer beyond int64, which makes an object array,
    is rejected rather than reduced.  numpy converts a bool among integers
    to an integer, so the entries of input that is not an ndarray are read
    for bools; an ndarray's dtype says all."""
    a = np.asarray(data)
    kind = a.dtype.kind
    if not (kind == "i" or not a.size or kind == "u" and a.itemsize < 8):
        raise ValueError(f"{name} must hold integers within int64, "
                         f"got dtype {a.dtype}")
    if a.size and not isinstance(data, np.ndarray):
        kinds = set(map(type, np.asarray(data, dtype=object).flat))
        if bool in kinds or np.bool_ in kinds:
            raise ValueError(f"{name} must hold integers within int64, "
                             f"got bool")
    return a.astype(np.int64, copy=False)


class PrimeField:
    """GF(p) arithmetic on numpy integer matrices."""

    def __init__(self, p: int):
        p = check_integer(p, "field order")
        if p >= MAX_PRIME:
            raise ValueError(
                f"field order {p} is too large: int64 products are exact only "
                f"for p < {MAX_PRIME}")
        if p < 2 or any(p % d == 0 for d in range(2, int(p ** 0.5) + 1)):
            raise ValueError(f"field order must be prime, got {p}")
        self.p = p
        # the longest inner product ``mul`` forms exactly
        self.max_inner = (2 ** 63 - 1) // (p - 1) ** 2

    def __repr__(self):
        return f"GF({self.p})"

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("GF", self.p))

    # -- scalars ---------------------------------------------------------

    def red(self, a: int) -> int:
        return int(a) % self.p

    def inv(self, a: int) -> int:
        a = int(a) % self.p
        if a == 0:
            raise ZeroDivisionError("inverse of 0")
        return pow(a, -1, self.p)

    # -- matrices --------------------------------------------------------

    def mat(self, data) -> np.ndarray:
        return integer_array(data, "matrix") % self.p

    def zeros(self, rows: int, cols: int) -> np.ndarray:
        return np.zeros((rows, cols), dtype=np.int64)

    def eye(self, n: int) -> np.ndarray:
        return np.eye(n, dtype=np.int64)

    def mul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """``a @ b`` mod p.  Stacks multiply through ``np.matmul``: a k x n x m
        stack times a k x m x l stack, or one factor a stack and the other
        one matrix, is the k products, each an inner product of length m
        under the bound above.  A zero-size factor gives the zeros of the
        shape ``np.matmul`` gives."""
        if a.shape[-1] != b.shape[-2]:
            raise ValueError(f"shape mismatch {a.shape} @ {b.shape}")
        if a.size and b.size:
            return np.matmul(a, b) % self.p
        return np.zeros(np.broadcast_shapes(a.shape[:-2], b.shape[:-2])
                        + (a.shape[-2], b.shape[-1]), dtype=np.int64)

    def add(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return (a + b) % self.p

    def sub(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return (a - b) % self.p

    def scale(self, c: int, a: np.ndarray) -> np.ndarray:
        return (int(c) % self.p * a) % self.p

    def _pivot_rows(self, a: np.ndarray):
        """The copy of ``a`` mod p, and ``rref_sparse`` of its nonzero rows."""
        m = np.array(a, dtype=np.int64) % self.p
        return m, self.rref_sparse(
            {c: v for c, v in enumerate(row) if v}
            for row in m.tolist() if any(row))

    def rref(self, a: np.ndarray):
        """Row-reduce a copy of ``a``; returns (rref matrix, pivot column list).

        The nonzero rows of ``a`` mod p go through ``rref_sparse``, and the
        dense RREF is rebuilt from its pivot rows in pivot order."""
        m, pivots = self._pivot_rows(a)
        order = sorted(pivots)
        m[:] = 0
        for r, pc in enumerate(order):
            dense = [0] * m.shape[1]
            for c, v in pivots[pc].items():
                dense[c] = v
            m[r] = dense
        return m, order

    def rank(self, a: np.ndarray) -> int:
        """The number of pivots of ``rref_sparse``; no dense RREF is built."""
        if a.size == 0:
            return 0
        return len(self._pivot_rows(a)[1])

    def null_space(self, a: np.ndarray) -> np.ndarray:
        """Columns form a basis of the right kernel of ``a``."""
        if a.shape[1] == 0:
            return self.zeros(0, 0)
        return self.null_space_from_rref(self._pivot_rows(a)[1].items(),
                                         a.shape[1])

    def null_space_from_rref(self, pivot_rows, cols: int) -> np.ndarray:
        """The kernel basis of a ``cols``-column matrix, as columns, read from
        its RREF rows: a collection of pairs (pivot, {column: coefficient})
        that can be iterated twice.  One vector per free column f, 1 at f
        and minus the row's entry at f at each pivot."""
        pivots = {pc for pc, _ in pivot_rows}
        free = {c: k for k, c in enumerate(
            c for c in range(cols) if c not in pivots)}
        basis = self.zeros(cols, len(free))
        for c, k in free.items():
            basis[c, k] = 1
        for pc, row in pivot_rows:
            for c, x in row.items():
                if c != pc:
                    basis[pc, free[c]] = -x % self.p
        return basis

    def rref_sparse(self, rows):
        """Reduced row echelon form of sparse rows ``{column: coefficient}``.

        Returns ``{pivot column: row}``.  Each incoming row is reduced by the
        pivot rows found so far, takes its smallest remaining column as pivot
        (scaled to 1), and that column is then cleared from the earlier rows.
        So every row's pivot is its smallest column and every pivot column is
        zero in every other row: the RREF, whatever the order of ``rows``.
        """
        p = self.p
        pivots = {}
        holders = defaultdict(set)  # non-pivot column -> pivots using it
        for raw in rows:
            row = {c: x for c, v in raw.items() if (x := v % p)}
            # a pivot row has no other pivot column, so one pass suffices
            for qc in [c for c in row if c in pivots]:
                v = row.pop(qc)
                for c, w in pivots[qc].items():
                    if c != qc:
                        x = (row.get(c, 0) - v * w) % p
                        if x:
                            row[c] = x
                        else:
                            del row[c]
            if not row:
                continue
            pc = min(row)
            if row[pc] != 1:
                inv = pow(row[pc], -1, p)
                row = {c: v * inv % p for c, v in row.items()}
            for qc in holders.pop(pc, ()):
                other = pivots[qc]
                v = other.pop(pc)
                for c, w in row.items():
                    if c != pc:
                        x = (other.get(c, 0) - v * w) % p
                        if x:
                            if c not in other:
                                holders[c].add(qc)
                            other[c] = x
                        else:
                            del other[c]
                            holders[c].discard(qc)
            for c in row:
                if c != pc:
                    holders[c].add(pc)
            pivots[pc] = row
        return pivots

    def column_space(self, a: np.ndarray) -> np.ndarray:
        """Columns of ``a`` restricted to a basis of the column space."""
        if a.size == 0:
            return a.reshape(a.shape[0], 0)
        _, pivots = self.rref(a)
        return a[:, pivots]

    def solve(self, a: np.ndarray, b: np.ndarray):
        """One solution x of a @ x = b, or None.  b may be a matrix."""
        rows, cols = a.shape
        b = b.reshape(rows, -1)
        aug = np.hstack([a, b]) % self.p
        m, pivots = self.rref(aug)
        pivots_in_a = [c for c in pivots if c < cols]
        if len(pivots_in_a) != len(pivots):
            return None
        x = self.zeros(cols, b.shape[1])
        for r, pc in enumerate(pivots_in_a):
            x[pc] = m[r, cols:]
        return x

    def inv_matrix(self, a: np.ndarray) -> np.ndarray:
        n = a.shape[0]
        if a.shape != (n, n):
            raise ValueError("not square")
        x = self.solve(a, self.eye(n))
        if x is None:
            raise ZeroDivisionError("singular matrix")
        return x

    def is_zero(self, a: np.ndarray) -> bool:
        return a.size == 0 or not np.any(a % self.p)

    def charpoly(self, a: np.ndarray):
        """Characteristic polynomial of a square matrix, low degree first.

        Hessenberg reduction by similarity (row scaling matched with inverse
        column scaling) followed by the standard three-term recurrence; exact
        over GF(p) for any p.
        """
        n = a.shape[0]
        if a.shape != (n, n):
            raise ValueError("not square")
        h = np.array(a, dtype=np.int64) % self.p
        for c in range(n - 1):
            piv = None
            for r in range(c + 1, n):
                if h[r, c] % self.p:
                    piv = r
                    break
            if piv is None:
                continue
            if piv != c + 1:
                h[[c + 1, piv]] = h[[piv, c + 1]]
                h[:, [c + 1, piv]] = h[:, [piv, c + 1]]
            inv = self.inv(h[c + 1, c])
            for r in range(c + 2, n):
                f = (h[r, c] * inv) % self.p
                if f:
                    h[r] = (h[r] - f * h[c + 1]) % self.p
                    h[:, c + 1] = (h[:, c + 1] + f * h[:, r]) % self.p
        # p_k = charpoly of leading k x k block, coefficients ascending
        polys = [np.array([1], dtype=object)]
        for k in range(1, n + 1):
            tp = np.zeros(k + 1, dtype=object)
            tp[1:] = polys[k - 1]                       # t * p_{k-1}
            tp[:-1] = (tp[:-1] - int(h[k - 1, k - 1]) * polys[k - 1]) % self.p
            prod = 1
            for i in range(k - 1, 0, -1):
                prod = (prod * int(h[i, i - 1])) % self.p
                coef = (prod * int(h[i - 1, k - 1])) % self.p
                if coef:
                    tp[: i] = (tp[: i] - coef * polys[i - 1]) % self.p
            polys.append(tp % self.p)
        return [int(c) for c in polys[n]]
