"""Exact basis of the bound quiver algebra, structure constants, projectives.

The quiver of any defining system is acyclic (every arrow strictly drops a
height function; for xi this uses T_{i,j} < p_i + j), so the path space is
finite and the quotient by the relation ideal is plain linear algebra: span
the ideal slice { u r v } inside the full path space, eliminate greatest
paths first, and keep the non-pivot paths as residue representatives.

Paths are triples (source, arrows, target) with arrows in composition order;
the trivial path at v is (v, (), v).
"""

import numpy as np

from .field import DEFAULT_PRIME, PrimeField
from .quiver import ConsistencyError, Quiver


class NonStabilizing(RuntimeError):
    """The path space has more than ``PATH_CAP`` paths or ``LETTER_CAP``
    letters in all, or the basis more than ``TRIPLE_CAP`` composable triples
    of paths: the input may be valid, but it is too large to hold or to
    check."""


PATH_CAP = 2_000_000
# every path holds its arrow tuple, and the sort in ``_compute`` a key tuple
# as long: about 20 bytes a letter (tracemalloc, one strand of length 200),
# so the letters of a path space at this bound take about 200 MB
LETTER_CAP = 10_000_000
# ``check_associativity`` takes about 11 us a composable triple of basis
# paths (one strand of length 20, 30, 40: 10,629, 46,379 and 135,754 triples
# in 0.09, 0.49 and 1.5 s), so about 11 s at this bound; the largest census
# or regression system has 970
TRIPLE_CAP = 1_000_000


class AlgebraBasis:
    """Basis of A = kQ / (relations) with an exact multiplication table."""

    def __init__(self, quiver: Quiver, relations, field=None):
        self.quiver = quiver
        self.relations = list(relations)
        self.field = field if field is not None else PrimeField(DEFAULT_PRIME)
        self._compute()
        self.check_associativity()
        self.check_relations_vanish()
        self.check_admissibility_witness()

    # -- path space ---------------------------------------------------------

    def _check_path_space(self):
        """Count the paths and their letters before any path is built, and
        raise NonStabilizing past either cap.  Over the vertices in
        topological order, the paths that end at v number
        paths[v] = 1 + sum paths[s], and hold
        letters[v] = sum letters[s] + paths[s] letters, over the arrows
        s -> v.  A vertex on an oriented cycle never comes up in that order,
        and its paths are endless."""
        q = self.quiver
        waiting = {v: len(q.in_arrows[v]) for v in q.vertices}
        ready = [v for v, k in waiting.items() if not k]
        paths, letters = {}, {}
        for v in ready:  # grows as the loop runs
            sources = [q.source[a] for a in q.in_arrows[v]]
            paths[v] = 1 + sum(paths[s] for s in sources)
            letters[v] = sum(letters[s] + paths[s] for s in sources)
            for a in q.out_arrows[v]:
                waiting[q.target[a]] -= 1
                if not waiting[q.target[a]]:
                    ready.append(q.target[a])
        if len(ready) < len(q.vertices):
            raise NonStabilizing("the quiver has an oriented cycle")
        paths, letters = sum(paths.values()), sum(letters.values())
        if paths > PATH_CAP or letters > LETTER_CAP:
            raise NonStabilizing(
                f"path space too large: {paths} paths of {letters} letters "
                f"in all, the bounds being {PATH_CAP} paths and "
                f"{LETTER_CAP} letters")

    def _all_paths(self):
        self._check_path_space()
        q = self.quiver
        paths = [(v, (), v) for v in q.vertices]
        frontier = paths
        while frontier:
            frontier = [
                (q.source[a], arrows + (a,), tgt)
                for src, arrows, tgt in frontier
                for a in q.in_arrows[src]
            ]
            paths.extend(frontier)
        return paths

    def _key(self, path):
        src, arrows, tgt = path
        return (len(arrows), tuple(self.quiver.aindex[a] for a in arrows),
                self.quiver.vindex[src])

    def _compute(self):
        F = self.field
        q = self.quiver
        paths = sorted(self._all_paths(), key=self._key, reverse=True)
        self.paths = paths
        self.path_index = {p: k for k, p in enumerate(paths)}

        by_source = {}
        by_target = {}
        for p in paths:
            by_source.setdefault(p[0], []).append(p)
            by_target.setdefault(p[2], []).append(p)

        rows = []
        for rel in self.relations:
            rel_src = q.path_source(rel.terms[0][1])
            rel_tgt = q.path_target(rel.terms[0][1])
            for u in by_source.get(rel_tgt, ()):      # left factor: u starts at t(r)
                for v in by_target.get(rel_src, ()):  # right factor: v ends at s(r)
                    row = {}
                    for coef, arrows in rel.terms:
                        c = self.path_index[(v[0], u[1] + arrows + v[1], u[2])]
                        row[c] = row.get(c, 0) + coef
                    rows.append(row)
        # {pivot column: reduced row}; the other paths represent the residues
        self._pivots = F.rref_sparse(rows)
        self.rep_paths = [p for c, p in enumerate(paths)
                          if c not in self._pivots]
        self.dimension = len(self.rep_paths)
        self.l_max = max((len(p[1]) for p in self.rep_paths), default=0) + 1

        self.basis_paths = {}
        for p in self.rep_paths:
            self.basis_paths.setdefault((p[0], p[2]), []).append(p)
        for key in self.basis_paths:
            self.basis_paths[key].sort(key=self._key)

        self._mult_cache = {}
        self._projectives = {}
        self._right_projectives = {}

    # -- normal forms and multiplication -------------------------------------

    def reduce_path(self, path):
        """Normal form of a path: dict representative-path -> coefficient."""
        col = self.path_index[path]
        row = self._pivots.get(col)
        if row is None:
            return {path: 1}
        # a reduced row holds no pivot column but its own; the terms go in
        # column order, so every normal form lists them the same way
        p = self.field.p
        return {self.paths[c]: -x % p for c, x in sorted(row.items())
                if c != col}

    def multiply(self, a_path, b_path):
        """Product of two representative paths as a normal-form dict (a after b)."""
        key = (a_path, b_path)
        cached = self._mult_cache.get(key)
        if cached is not None:
            return cached
        if a_path[0] != b_path[2]:
            out = {}
        else:
            out = self.reduce_path((b_path[0], a_path[1] + b_path[1], a_path[2]))
        self._mult_cache[key] = out
        return out

    def structure_constants(self):
        """Full multiplication table {(a, b): {rep: coef}} over representatives."""
        table = {}
        for a in self.rep_paths:
            for b in self.rep_paths:
                if a[0] == b[2]:
                    table[(a, b)] = self.multiply(a, b)
        return table

    def dim_hom(self, u, v) -> int:
        """dim e_u A e_v = number of representative paths v -> u."""
        return len(self.basis_paths.get((v, u), ()))

    # -- consistency witnesses ------------------------------------------------

    def _acc(self, table, rep, value):
        table[rep] = self.field.red(table.get(rep, 0) + value)

    def check_associativity(self):
        """(a b) c = a (b c) for every composable triple of basis paths.
        The triples are counted first, from the number of basis paths
        between each pair of vertices, and more than ``TRIPLE_CAP`` raise
        NonStabilizing before the walk."""
        into, out = {}, {}
        for (s, t), ps in self.basis_paths.items():
            into[t] = into.get(t, 0) + len(ps)
            out[s] = out.get(s, 0) + len(ps)
        triples = sum(len(ps) * into[s] * out[t]
                      for (s, t), ps in self.basis_paths.items())
        if triples > TRIPLE_CAP:
            raise NonStabilizing(
                f"associativity check too long: {triples} composable triples "
                f"of basis paths, the bound being {TRIPLE_CAP}")
        for a in self.rep_paths:
            for b in self.rep_paths:
                if a[0] != b[2]:
                    continue
                ab = self.multiply(a, b)
                for c in self.rep_paths:
                    if b[0] != c[2]:
                        continue
                    bc = self.multiply(b, c)
                    left = {}
                    for p, cf in ab.items():
                        for r, cf2 in self.multiply(p, c).items():
                            self._acc(left, r, cf * cf2)
                    right = {}
                    for p, cf in bc.items():
                        for r, cf2 in self.multiply(a, p).items():
                            self._acc(right, r, cf * cf2)
                    left = {k: v for k, v in left.items() if v}
                    right = {k: v for k, v in right.items() if v}
                    if left != right:
                        raise ConsistencyError(
                            f"associativity fails at {a}, {b}, {c}"
                        )

    def check_relations_vanish(self):
        for rel in self.relations:
            acc = {}
            for coef, arrows in rel.terms:
                path = (self.quiver.path_source(arrows), arrows,
                        self.quiver.path_target(arrows))
                for r, cf in self.reduce_path(path).items():
                    self._acc(acc, r, coef * cf)
            if any(v for v in acc.values()):
                raise ConsistencyError(f"relation does not vanish: {rel}")

    def check_admissibility_witness(self):
        """Every path of length >= l_max reduces to strictly shorter representatives."""
        for p in self.paths:
            if len(p[1]) >= self.l_max:
                nf = self.reduce_path(p)
                if any(len(r[1]) >= len(p[1]) for r in nf):
                    raise ConsistencyError(f"path {p} does not shorten")

    # -- modules over A ---------------------------------------------------------

    def projective_module(self, v: str):
        """Indecomposable projective P(v) = A e_v as a representation.

        Built once per vertex and shared by every caller; like every
        module's, its arrow maps are read-only."""
        P = self._projectives.get(v)
        if P is None:
            from .string_modules import Representation

            basis_at, maps, _ = self._arrow_action(v, True)
            spaces = {w: tuple(("p",) + p[1] for p in ps)
                      for w, ps in basis_at.items()}
            P = self._projectives[v] = Representation(
                self.quiver, self.field, spaces, maps)
        return P

    def right_projective(self, v: str):
        """e_v A with its right arrow action, built once per vertex:
        (dims, maps, basis_at, pos).  At w it has the basis paths w -> v
        (``basis_at[w]``, indexed by ``pos[w]``); arrow a: s -> t acts
        e_v A e_t -> e_v A e_s by the read-only matrix ``maps[a]``."""
        out = self._right_projectives.get(v)
        if out is None:
            basis_at, maps, pos = self._arrow_action(v, False)
            dims = {w: len(ps) for w, ps in basis_at.items()}
            out = self._right_projectives[v] = (dims, maps, basis_at, pos)
        return out

    def _arrow_action(self, v: str, left: bool):
        """A e_v if ``left``, else e_v A: (basis_at, maps, pos), with the
        basis paths v -> w (else w -> v) at each vertex w, indexed by pos[w],
        and the read-only matrix of each arrow a: s -> t, acting p -> a p
        from s to t (else p -> p a from t to s).  A vertex the quiver lacks
        raises ValueError, so neither cache holds a module for it."""
        q = self.quiver
        if v not in q.vindex:
            raise ValueError(f"unknown vertex {v!r}")
        basis_at = {w: self.basis_paths.get((v, w) if left else (w, v), [])
                    for w in q.vertices}
        pos = {w: {p: k for k, p in enumerate(ps)}
               for w, ps in basis_at.items()}
        maps = {}
        for a in q.arrows:
            s, t = q.source[a], q.target[a]
            dom, cod = (s, t) if left else (t, s)
            arrow = (s, (a,), t)
            m = self.field.zeros(len(basis_at[cod]), len(basis_at[dom]))
            for col, p in enumerate(basis_at[dom]):
                nf = self.multiply(arrow, p) if left else self.multiply(p, arrow)
                for r, cf in nf.items():
                    m[pos[cod][r], col] = cf
            m.flags.writeable = False
            maps[a] = m
        return basis_at, maps, pos

    def cartan_matrix(self) -> np.ndarray:
        """C with C[w, v] = dim P(v)_w, rows and columns in quiver vertex order."""
        n = len(self.quiver.vertices)
        C = np.zeros((n, n), dtype=np.int64)
        for (src, tgt), ps in self.basis_paths.items():
            C[self.quiver.vindex[tgt], self.quiver.vindex[src]] += len(ps)
        return C

    def coxeter_matrix(self) -> np.ndarray:
        """Integer matrix sending dim M to dim DTr M for hereditary A: phi =
        -C^T C^-1.  The quiver is acyclic, so C = I + N with N nilpotent and
        C^-1 = sum_{k<n} (-N)^k, summed in Python integers."""
        C = self.cartan_matrix().astype(object)
        n = C.shape[0]
        minus_n = np.eye(n, dtype=object) - C
        term = inverse = np.eye(n, dtype=object)
        for _ in range(1, n):
            term = term @ minus_n
            inverse = inverse + term
        return (-C.T @ inverse).astype(np.int64)
