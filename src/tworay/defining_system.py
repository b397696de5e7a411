"""Defining systems (p, q, S, T): validation, admissible vertices, extension.

A defining system is the combinatorial seed of the whole construction.  All
operations here are pure; systems are immutable once validated.
"""

import json
import numbers
from dataclasses import dataclass


class DefiningSystemError(ValueError):
    code = "Invalid"


class LengthMismatch(DefiningSystemError):
    code = "LengthMismatch"


class SumTooSmall(DefiningSystemError):
    code = "SumTooSmall"


class SetOutOfRange(DefiningSystemError):
    code = "SetOutOfRange"


class ConsecutiveInS(DefiningSystemError):
    code = "ConsecutiveInS"


class TopInT(DefiningSystemError):
    code = "TopInT"


class NotAdmissible(ValueError):
    pass


class NoValidOrder(RuntimeError):
    """A reduction step found no admissible insertion (cannot occur)."""


@dataclass(frozen=True)
class AdmissibleVertex:
    """An insertion site: 'x'-kind grows S, 'z'-kind grows T.  1-based indices."""

    kind: str
    i: int
    j: int

    def __post_init__(self):
        if self.kind not in ("x", "z"):
            raise ValueError(f"kind must be 'x' or 'z', got {self.kind!r}")

    def __str__(self):
        return f"{self.kind}:{self.i}:{self.j}"

    @classmethod
    def parse(cls, text: str) -> "AdmissibleVertex":
        kind, i, j = text.split(":")
        return cls(kind, int(i), int(j))


@dataclass(frozen=True)
class DefiningSystem:
    p: tuple
    q: tuple
    S: tuple  # tuple of frozensets
    T: tuple

    @property
    def strands(self) -> int:
        return len(self.p)

    def top(self, i: int) -> int:
        """p_i + |T_i| for 1-based strand i: the largest x-index on the strand."""
        return self.p[i - 1] + len(self.T[i - 1])

    def t_sorted(self, i: int) -> list:
        return sorted(self.T[i - 1])

    def s_sorted(self, i: int) -> list:
        return sorted(self.S[i - 1])

    def t_last(self, i: int) -> int:
        """T_{i,|T_i|}, with the convention 0 for empty T_i."""
        t = self.T[i - 1]
        return max(t) if t else 0

    def to_json_obj(self):
        return {
            "p": list(self.p),
            "q": list(self.q),
            "S": [sorted(s) for s in self.S],
            "T": [sorted(t) for t in self.T],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_obj(), sort_keys=True)

    def is_fundamental(self) -> bool:
        return all(not s for s in self.S) and all(not t for t in self.T)

    def fundamental(self) -> "DefiningSystem":
        empties = tuple(frozenset() for _ in self.p)
        return DefiningSystem(self.p, self.q, empties, empties)

    def __str__(self):
        return self.to_json()


def _sequence(name, value, kinds=(list, tuple)):
    """``value``, checked to be one of ``kinds``."""
    if not isinstance(value, kinds):
        raise DefiningSystemError(f"{name} must be a list, got {value!r}")
    return value


def _is_integer(x) -> bool:
    """Whether ``x`` is an integer: not a float, string or boolean, which
    ``int`` would silently convert."""
    return isinstance(x, numbers.Integral) and not isinstance(x, bool)


def _integers(name, entries, kinds=(list, tuple)) -> tuple:
    """``entries`` as a tuple of ints, checked to be one of ``kinds`` and to
    hold integers only."""
    for x in _sequence(name, entries, kinds):
        if not _is_integer(x):
            raise DefiningSystemError(
                f"{name} entries must be integers, got {x!r}")
    return tuple(int(x) for x in entries)


def check_integer(value, name) -> int:
    """``value`` as an int; ValueError unless it is an integer (a numpy
    integer is one, a bool is not)."""
    if not _is_integer(value):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def check_bound(value, name="bound"):
    """ValueError unless ``value`` is a nonnegative integer; the library's
    dimension and length bounds are checked here."""
    if not _is_integer(value) or value < 0:
        raise ValueError(f"{name} must be a nonnegative integer, "
                         f"got {value!r}")


def validate(raw) -> DefiningSystem:
    """Check the five invariants of a candidate quadruple.

    ``raw`` may be a mapping with keys p/q/S/T, a 4-sequence, or a
    DefiningSystem.  p and q are lists of integers, S and T lists of
    integer lists (or sets).  Raises the subclass of DefiningSystemError
    naming the first violation.
    """
    if isinstance(raw, DefiningSystem):
        p, q, S, T = raw.p, raw.q, raw.S, raw.T
    elif isinstance(raw, dict):
        try:
            p, q, S, T = raw["p"], raw["q"], raw["S"], raw["T"]
        except KeyError as exc:
            raise DefiningSystemError(f"missing field {exc}") from None
    elif isinstance(raw, (list, tuple)) and len(raw) == 4:
        p, q, S, T = raw
    else:
        raise DefiningSystemError(
            f"a defining system is an object with fields p, q, S, T or a "
            f"4-sequence, got {raw!r}")

    p, q = _integers("p", p), _integers("q", q)
    sets = (list, tuple, set, frozenset)
    S = tuple(frozenset(_integers(f"S_{i}", s, sets))
              for i, s in enumerate(_sequence("S", S), start=1))
    T = tuple(frozenset(_integers(f"T_{i}", t, sets))
              for i, t in enumerate(_sequence("T", T), start=1))

    if any(x < 1 for x in p) or any(x < 1 for x in q):
        raise SetOutOfRange("entries of p and q must be positive")
    if not (len(q) == len(p) and len(S) == len(p) and len(T) == len(p)):
        raise LengthMismatch(
            f"|p|={len(p)}, |q|={len(q)}, |S|={len(S)}, |T|={len(T)} must agree"
        )
    if sum(p) < 2:
        raise SumTooSmall(f"sum(p) = {sum(p)} < 2")
    for i in range(len(p)):
        top = p[i] + len(T[i])
        if not T[i] <= S[i]:
            raise SetOutOfRange(f"strand {i + 1}: T_i must be a subset of S_i")
        if any(j < 2 or j > top for j in S[i]):
            raise SetOutOfRange(
                f"strand {i + 1}: S_i must lie in [2, {top}], got {sorted(S[i])}"
            )
        if any(j + 1 in S[i] for j in S[i]):
            raise ConsecutiveInS(f"strand {i + 1}: S_i contains consecutive integers")
        if top in T[i]:
            raise TopInT(f"strand {i + 1}: p_i + |T_i| = {top} may not lie in T_i")
    return DefiningSystem(p, q, S, T)


def from_json(text: str) -> DefiningSystem:
    return validate(json.loads(text))


def admissible_vertices(ds: DefiningSystem) -> set:
    """All sites where the system can be extended by one S- or T-insertion."""
    out = set()
    for i in range(1, ds.strands + 1):
        s = ds.S[i - 1]
        for j in range(2, ds.top(i) + 1):
            if j - 1 not in s and j not in s and j + 1 not in s:
                out.add(AdmissibleVertex("x", i, j))
        lo = ds.t_last(i) + 2
        for j in sorted(s):
            if lo <= j <= ds.top(i):
                out.add(AdmissibleVertex("z", i, j))
    return out


def extend(ds: DefiningSystem, v: AdmissibleVertex) -> DefiningSystem:
    """Insert v.j into S (x-kind) or T (z-kind) of strand v.i."""
    if v not in admissible_vertices(ds):
        raise NotAdmissible(f"{v} is not admissible for {ds}")
    S, T = list(ds.S), list(ds.T)
    if v.kind == "x":
        S[v.i - 1] = S[v.i - 1] | {v.j}
    else:
        T[v.i - 1] = T[v.i - 1] | {v.j}
    return validate((ds.p, ds.q, tuple(S), tuple(T)))


def reduce_to_fundamental(ds: DefiningSystem):
    """Express ds as a chain of admissible insertions from its fundamental system.

    Returns (fundamental, chain) with replay(extend, chain) == ds.  Each step
    takes the first admissible insertion among the missing entries: S entries
    strand by strand in increasing order, then T entries the same way.  This
    never stalls.  On the walk, strand i has S_i inside ds.S_i and T_i the k
    smallest entries of ds.T_i = {t_1 < ... < t_n}, so its top is p_i + k.
    A missing S entry j is admissible once j <= p_i + k (ds.S_i holds no
    consecutive integers), and one above p_i + k means k < n (ds.S_i lies in
    [2, p_i + n]).  Then t_(k+1) is admissible: it is at least t_k + 2, and
    at most t_n - 2(n - k - 1) <= p_i + k (as t_n < p_i + n), so already in
    S_i.  So a backtracking search in this order would never backtrack.
    ``NoValidOrder`` is raised should a step find no admissible insertion.
    """
    fund = cur = ds.fundamental()
    chain = []
    while cur != ds:
        adm = admissible_vertices(cur)
        missing = (AdmissibleVertex(kind, i, j)
                   for kind, want, have in (("x", ds.S, cur.S),
                                            ("z", ds.T, cur.T))
                   for i in range(1, ds.strands + 1)
                   for j in sorted(want[i - 1] - have[i - 1]))
        v = next((v for v in missing if v in adm), None)
        if v is None:
            raise NoValidOrder(f"no admissible insertion order reaches {ds}")
        cur = extend(cur, v)
        chain.append(v)
    return fund, chain
