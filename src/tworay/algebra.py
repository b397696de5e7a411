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

from .field import DEFAULT_PRIME, PrimeField, RationalField
from .quiver import ConsistencyError, Quiver


class NonStabilizing(RuntimeError):
    """Path enumeration exceeded the hard cap; the input cannot be valid."""


PATH_CAP = 2_000_000


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

    def _all_paths(self):
        q = self.quiver
        paths = [(v, (), v) for v in q.vertices]
        frontier = paths
        while frontier:
            nxt = [
                (q.source[a], arrows + (a,), tgt)
                for src, arrows, tgt in frontier
                for a in q.in_arrows[src]
            ]
            paths.extend(nxt)
            if len(paths) > PATH_CAP:
                raise NonStabilizing("path space exceeds cap")
            frontier = nxt
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
        n = len(paths)

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
                    row = np.zeros(n, dtype=np.int64)
                    for coef, arrows in rel.terms:
                        full = (v[0], u[1] + arrows + v[1], u[2])
                        row[self.path_index[full]] += coef
                    rows.append(row)
        if rows:
            if isinstance(F, PrimeField):
                red, pivots = F.rref(np.array(rows, dtype=np.int64) % F.p)
            else:
                red, pivots = F.rref(F.mat(rows))
        else:
            red, pivots = np.zeros((0, n), dtype=np.int64), []
        self._red = red
        self._pivot_row = {c: r for r, c in enumerate(pivots)}

        self.rep_cols = [c for c in range(n) if c not in self._pivot_row]
        self._rep_pos = {c: k for k, c in enumerate(self.rep_cols)}
        self.rep_paths = [paths[c] for c in self.rep_cols]
        self.dimension = len(self.rep_cols)
        self.l_max = max((len(p[1]) for p in self.rep_paths), default=0) + 1

        self.basis_paths = {}
        for p in self.rep_paths:
            self.basis_paths.setdefault((p[0], p[2]), []).append(p)
        for key in self.basis_paths:
            self.basis_paths[key].sort(key=self._key)

        self._nf = {}
        self._mult_cache = {}
        self._projectives = {}
        self._right_projectives = {}

    # -- normal forms and multiplication -------------------------------------

    def reduce_path(self, path):
        """Normal form of a path: dict representative-path -> coefficient."""
        cached = self._nf.get(path)
        if cached is not None:
            return cached
        col = self.path_index[path]
        row = self._pivot_row.get(col)
        one = self.field.red(1)
        if row is None:
            out = {path: one}
        else:
            out = {}
            red_row = self._red[row]
            for c in np.nonzero(red_row)[0]:
                c = int(c)
                if c == col:
                    continue
                # pivot columns other than col cannot appear in a reduced row
                out[self.paths[c]] = self.field.red(-red_row[c])
        self._nf[path] = out
        return out

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
        if P is not None:
            return P
        from .string_modules import Representation

        q = self.quiver
        F = self.field
        if not isinstance(F, PrimeField):
            raise NotImplementedError(
                "representations are computed over prime fields")
        spaces = {}
        basis_at = {}
        for w in q.vertices:
            ps = self.basis_paths.get((v, w), [])
            basis_at[w] = ps
            spaces[w] = tuple(("p",) + p[1] for p in ps)
        pos = {w: {p: k for k, p in enumerate(basis_at[w])} for w in q.vertices}
        maps = {}
        for a in q.arrows:
            s, t = q.source[a], q.target[a]
            m = F.zeros(len(basis_at[t]), len(basis_at[s]))
            arrow_path = (s, (a,), t)
            for col, p in enumerate(basis_at[s]):
                for r, cf in self.multiply(arrow_path, p).items():
                    m[pos[t][r], col] = cf
            maps[a] = m
        P = Representation(q, F, spaces, maps)
        self._projectives[v] = P
        return P

    def right_projective(self, v: str):
        """e_v A with its right arrow action, built once per vertex:
        (dims, maps, basis_at, pos).  At w it has the basis paths w -> v
        (``basis_at[w]``, indexed by ``pos[w]``); arrow a: s -> t acts
        e_v A e_t -> e_v A e_s by the read-only matrix ``maps[a]``."""
        out = self._right_projectives.get(v)
        if out is not None:
            return out
        q = self.quiver
        F = self.field
        basis_at = {w: self.basis_paths.get((w, v), []) for w in q.vertices}
        pos = {w: {p: k for k, p in enumerate(basis_at[w])}
               for w in q.vertices}
        dims = {w: len(basis_at[w]) for w in q.vertices}
        maps = {}
        for a in q.arrows:
            s, t = q.source[a], q.target[a]
            m = F.zeros(dims[s], dims[t])
            arrow_path = (s, (a,), t)
            for col, p in enumerate(basis_at[t]):
                for r, cf in self.multiply(p, arrow_path).items():
                    m[pos[s][r], col] = cf
            m.flags.writeable = False
            maps[a] = m
        out = self._right_projectives[v] = (dims, maps, basis_at, pos)
        return out

    def cartan_matrix(self) -> np.ndarray:
        """C with C[w, v] = dim P(v)_w, rows and columns in quiver vertex order."""
        n = len(self.quiver.vertices)
        C = np.zeros((n, n), dtype=np.int64)
        for (src, tgt), ps in self.basis_paths.items():
            C[self.quiver.vindex[tgt], self.quiver.vindex[src]] += len(ps)
        return C

    def coxeter_matrix(self) -> np.ndarray:
        """Integer matrix sending dim M to dim DTr M for hereditary A: phi =
        -C^T C^-1, with C^-1 read from the RREF of [C | I] over QQ."""
        C = self.cartan_matrix()
        n = C.shape[0]
        QQ = RationalField()
        reduced, _ = QQ.rref(np.hstack([QQ.mat(C), QQ.eye(n)]))
        phi = -QQ.mul(QQ.mat(C.T), reduced[:, n:])
        if any(x.denominator != 1 for x in phi.reshape(-1)):
            raise ValueError("Coxeter matrix not integral")
        return phi.astype(np.int64)
