"""Quiver and relation synthesis from a defining system.

Vertices get canonical ids "x:i:j" / "y:i:j" / "z:i:j" (after identifying
y_{i,0} with x_{i+1,0} cyclically and y_{i,q_i} with x_{i,p_i}); arrows get
"alpha:i:j", "beta:i:j", "gamma:i:j", "xi:i:j".  Paths are stored in
composition order: in (a1, ..., an) arrow a_{k+1} is traversed before a_k,
so target(path) = target(a1) and source(path) = source(an).
"""

import json
from dataclasses import dataclass

from .defining_system import DefiningSystem


class ConsistencyError(RuntimeError):
    """A computed map or decomposition failed the check made on it: the
    code, not the input, is at fault.  Raised, not asserted, so that
    ``python -O`` keeps the check."""


_KIND_ORDER = {"x": 0, "y": 1, "z": 2}
_ARROW_ORDER = {"alpha": 0, "beta": 1, "gamma": 2, "xi": 3}


def _vkey(vid: str):
    kind, i, j = vid.split(":")
    return (_KIND_ORDER[kind], int(i), int(j))


def _akey(aid: str):
    name, i, j = aid.split(":")
    return (_ARROW_ORDER[name], int(i), int(j))


@dataclass(frozen=True)
class Relation:
    """One monomial (single term) or binomial (+1/-1) relation of the ideal."""

    terms: tuple  # ((coef, path), ...) with path a tuple of arrow ids

    @property
    def is_monomial(self) -> bool:
        return len(self.terms) == 1

    def to_json_obj(self):
        return [{"coef": c, "path": list(p)} for c, p in self.terms]

    def __str__(self):
        def fmt(c, p):
            body = " ".join(p)
            return body if c == 1 else f"({c:+d}) {body}"

        return "  +  ".join(fmt(c, p) for c, p in self.terms).replace("+  (-1)", "-")


class Quiver:
    """Bound quiver Q of a defining system, with the Q1' / Q1'' split.

    Two quivers are equal when their vertices and their arrows, each with
    its source and target, agree: two built from one system are one quiver
    for every check of the package that modules, algebras or Hom systems
    share their quiver.  The hash is that of the vertex tuple."""

    def __init__(self, ds: DefiningSystem):
        self.ds = ds
        n = ds.strands
        self.source = {}
        self.target = {}
        self.primed = set()  # Q1' = all alpha arrows

        def x(i, j):
            return f"x:{i}:{j}"

        def y(i, j):
            # the two identifications of the construction
            if j == 0:
                return x(i % n + 1, 0)
            if j == ds.q[i - 1]:
                return x(i, ds.p[i - 1])
            return f"y:{i}:{j}"

        vertices = set()
        for i in range(1, n + 1):
            for j in range(0, ds.top(i) + 1):
                vertices.add(x(i, j))
            for j in range(1, ds.q[i - 1]):
                vertices.add(y(i, j))
            for j in sorted(ds.S[i - 1]):
                vertices.add(f"z:{i}:{j}")

        for i in range(1, n + 1):
            for j in range(1, ds.top(i) + 1):
                a = f"alpha:{i}:{j}"
                self.source[a], self.target[a] = x(i, j), x(i, j - 1)
                self.primed.add(a)
            for j in range(1, ds.q[i - 1] + 1):
                a = f"beta:{i}:{j}"
                self.source[a], self.target[a] = y(i, j), y(i, j - 1)
            for j in sorted(ds.S[i - 1]):
                a = f"gamma:{i}:{j}"
                self.source[a], self.target[a] = f"z:{i}:{j}", x(i, j)
            for j, tj in enumerate(ds.t_sorted(i), start=1):
                a = f"xi:{i}:{j}"
                self.source[a], self.target[a] = x(i, ds.p[i - 1] + j), f"z:{i}:{tj}"

        self._q0_primed = tuple(
            x(i, j) for i in range(1, n + 1) for j in ds.s_sorted(i))
        self._q0_doubleprimed = tuple(
            x(i, j) for i in range(1, n + 1) for j in ds.t_sorted(i))
        self.vertices = sorted(vertices, key=_vkey)
        self._hash = hash(tuple(self.vertices))
        self.arrows = sorted(self.source, key=_akey)
        self.vindex = {v: k for k, v in enumerate(self.vertices)}
        self.aindex = {a: k for k, a in enumerate(self.arrows)}
        self.out_arrows = {v: [] for v in self.vertices}
        self.in_arrows = {v: [] for v in self.vertices}
        for a in self.arrows:
            self.out_arrows[self.source[a]].append(a)
            self.in_arrows[self.target[a]].append(a)

        # Q* endpoints: arrows of Q1'' are traversed backwards in strings
        self.s_star = {
            a: (self.source[a] if a in self.primed else self.target[a])
            for a in self.arrows
        }
        self.t_star = {
            a: (self.target[a] if a in self.primed else self.source[a])
            for a in self.arrows
        }

    def __eq__(self, other):
        return self is other or isinstance(other, Quiver) and (
            self.vertices, self.source, self.target) == (
            other.vertices, other.source, other.target)

    def __hash__(self):
        return self._hash

    # -- derived vertex/arrow families ------------------------------------

    def q0_primed(self) -> tuple:
        """x_{i,j} with j in S_i."""
        return self._q0_primed

    def q0_doubleprimed(self) -> tuple:
        """x_{i,j} with j in T_i."""
        return self._q0_doubleprimed

    def alpha_of(self, xid: str) -> str:
        _, i, j = xid.split(":")
        return f"alpha:{i}:{j}"

    def gamma_of(self, xid: str) -> str:
        _, i, j = xid.split(":")
        return f"gamma:{i}:{j}"

    def path_source(self, path: tuple) -> str:
        return self.source[path[-1]]

    def path_target(self, path: tuple) -> str:
        return self.target[path[0]]

    def is_path(self, path: tuple) -> bool:
        return all(
            self.target[path[k + 1]] == self.source[path[k]]
            for k in range(len(path) - 1)
        )

    def to_dot(self) -> str:
        lines = ["digraph Q {"]
        for v in self.vertices:
            lines.append(f'  "{v}";')
        for a in self.arrows:
            style = "solid" if a in self.primed else "dashed"
            lines.append(
                f'  "{self.source[a]}" -> "{self.target[a]}" '
                f'[label="{a}", style={style}];'
            )
        lines.append("}")
        return "\n".join(lines) + "\n"


def build_quiver(ds: DefiningSystem) -> Quiver:
    return Quiver(ds)


def build_relations(ds: DefiningSystem, quiver: Quiver) -> list:
    """The four relation families, in canonical order."""
    rels = []
    for i in range(1, ds.strands + 1):
        p_i = ds.p[i - 1]
        for j in ds.s_sorted(i):
            rels.append(Relation(((1, (f"alpha:{i}:{j-1}", f"alpha:{i}:{j}",
                                       f"gamma:{i}:{j}")),)))
        if ds.T[i - 1]:
            rels.append(Relation(((1, (f"beta:{i}:{ds.q[i-1]}",
                                       f"alpha:{i}:{p_i + 1}")),)))
        for j in range(2, len(ds.T[i - 1]) + 1):
            rels.append(Relation(((1, (f"xi:{i}:{j-1}", f"alpha:{i}:{p_i + j}")),)))
        for j, tj in enumerate(ds.t_sorted(i), start=1):
            short = (f"alpha:{i}:{tj}", f"gamma:{i}:{tj}", f"xi:{i}:{j}")
            long = tuple(f"alpha:{i}:{k}" for k in range(tj, p_i + j + 1))
            rels.append(Relation(((1, short), (-1, long))))
    for r in rels:
        endpoints = {(quiver.path_source(p), quiver.path_target(p))
                     for _, p in r.terms}
        if len(endpoints) != 1:
            raise ConsistencyError(
                f"relation terms disagree on endpoints: {r}")
        for _, path in r.terms:
            if not quiver.is_path(path):
                raise ConsistencyError(
                    f"relation term not composable: {path}")
    return rels


def relations_to_json(rels) -> str:
    return json.dumps([r.to_json_obj() for r in rels], sort_keys=True)
