"""Vector space category models and the functor hom-pattern checks.

The three model kinds (K-family, single L, L-family) are order-theoretic:
objects indexed by admissible posets, hom dimensions 0/1 with a single
dimension-2 cell in the L-family.  The lemma checks measure, for a designated
module R over the actual algebra, dim Hom(R, U) for every module U in the
lemma's image list plus all hom dimensions in the quotient by maps killed by
Hom(R, -), and compare against the predicted model, truncated at a string
length bound.
"""

import numpy as np
from dataclasses import dataclass

from .defining_system import admissible_vertices
from .homlab import ConsistencyError, hom_space, transposed_blocks


class BadArity(ValueError):
    pass


@dataclass(frozen=True)
class AdmissiblePoset:
    """A finite slice of a linearly ordered set with direct successors.

    ``min_present`` / ``max_present`` record whether the abstract minimum and
    maximum survived the truncation; rules that name them are skipped when
    they did not.
    """

    elements: tuple
    min_present: bool = True
    max_present: bool = True

    def __len__(self):
        return len(self.elements)

    def index(self, e):
        return self.elements.index(e)

    @property
    def minimum(self):
        if not (self.min_present and self.elements):
            return None
        return self.elements[0]

    @property
    def maximum(self):
        if not (self.max_present and self.elements):
            return None
        return self.elements[-1]

    def successor(self, e):
        i = self.index(e)
        if i + 1 >= len(self.elements):
            return None
        return self.elements[i + 1]

    def prime(self) -> "AdmissiblePoset":
        """I' = I minus its maximum."""
        if self.max_present and self.elements:
            return AdmissiblePoset(self.elements[:-1], self.min_present, False)
        return self

    def ordered_sum(self, other: "AdmissiblePoset") -> "AdmissiblePoset":
        return AdmissiblePoset(self.elements + other.elements,
                               self.min_present, other.max_present)


def interval_poset(lo: int, hi: int) -> AdmissiblePoset:
    return AdmissiblePoset(tuple(("int", j) for j in range(lo, hi + 1)))


class VscModel:
    """Objects with hom-dimension and object-dimension matrices."""

    def __init__(self, kind, objects, objdim, homdim):
        self.kind = kind
        self.objects = list(objects)
        self.objdim = objdim
        self.homdim = homdim

    def hom(self, u, v) -> int:
        return self.homdim.get((u, v), 0)


def build_model(kind: str, posets) -> VscModel:
    """kind 'K' (posets I_1..I_{r+1}), 'L1' (one poset), 'LF' (I_0..I_{r+1})."""
    posets = list(posets)
    if kind == "K":
        if len(posets) < 1:
            raise BadArity("K-family needs at least one poset")
        return _build_k(posets)
    if kind == "L1":
        if len(posets) != 1:
            raise BadArity("single-L model takes exactly one poset")
        return _build_l1(posets[0])
    if kind == "LF":
        if len(posets) < 2:
            raise BadArity("L-family needs at least two posets")
        return _build_lf(posets)
    raise BadArity(f"unknown model kind {kind!r}")


_X_KINDS = ("X", "Xp", "Xpp")


def _x_hom(idx, u, v):
    """Whether Hom(u, v) is nonzero among the X, Xp and Xpp objects, the
    rule the K- and L-family models share; None when u or v is of another
    kind.  ``idx`` maps each poset index p of an ("X", p, g) to its poset."""
    if u[0] not in _X_KINDS or v[0] not in _X_KINDS:
        return None
    if u[0] == "X" and v[0] == "X":
        # lexicographic: by poset, then by position in it
        return (u[1], idx[u[1]].index(u[2])) <= (v[1], idx[v[1]].index(v[2]))
    if u[0] == "X" or u[0] == v[0]:  # X -> Xp, Xpp; Xp -> Xp; Xpp -> Xpp
        return u[1] <= v[1]
    return u[1] < v[1]  # Xp, Xpp -> X; Xp -> Xpp; Xpp -> Xp


def _x_objects(idx) -> list:
    """The X, Xp and Xpp objects over the posets ``idx[p]``, the enumeration
    the K- and L-family models share: ("X", p, g) for g in each I_p', then
    ("Xp", p) and ("Xpp", p) at each p but the last whose maximum
    survived the truncation."""
    objects = [("X", p, g) for p in idx for g in idx[p].prime().elements]
    for p in list(idx)[:-1]:
        if idx[p].max_present:
            objects += [("Xp", p), ("Xpp", p)]
    return objects


def _model(kind, objects, hit) -> VscModel:
    """The model with every object of dimension 1 and a 1-dimensional Hom
    from u to v wherever ``hit(u, v)`` holds."""
    homdim = {(u, v): 1 for u in objects for v in objects if hit(u, v)}
    return VscModel(kind, objects, {o: 1 for o in objects}, homdim)


def _build_k(posets) -> VscModel:
    idx = dict(enumerate(posets, start=1))
    return _model("K", _x_objects(idx), lambda u, v: _x_hom(idx, u, v))


def _build_l1(poset: AdmissiblePoset) -> VscModel:
    objects = [(kind, g) for kind in ("X", "Y") for g in poset.elements]
    return _model("L1", objects, lambda u, v: (u[0], v[0]) != ("Y", "X")
                  and poset.index(u[1]) <= poset.index(v[1]))


def _build_lf(posets) -> VscModel:
    idx = dict(enumerate(posets))
    i0_prime = idx[0].prime().elements
    objects = _x_objects(idx) + [("Y", g) for g in i0_prime] + [("Z",)]
    # an object when I_1 kept its minimum and it is not also I_1's maximum
    x_min_i1 = ("X", 1, idx[1].minimum)

    def hit(u, v):
        kinds = (u[0], v[0])
        if kinds == ("X", "Y"):
            return u[1] == 0 and idx[0].index(u[2]) <= idx[0].index(v[1])
        if kinds in (("X", "Z"), ("Xpp", "Z")):
            # the X_{min I_1} -> Z cell: exact computation of the induced
            # category always exhibits the surviving morphism, so the
            # order-theoretic pattern carries it
            return u[1] == 0 or u == x_min_i1
        if kinds == ("Y", "X"):
            return v == x_min_i1
        if kinds == ("Y", "Y"):
            return idx[0].index(u[1]) <= idx[0].index(v[1])
        return kinds in (("Y", "Z"), ("Z", "Z")) or _x_hom(idx, u, v)

    model = _model("LF", objects, hit)
    if x_min_i1 in model.objdim:
        model.objdim[x_min_i1] = 2
        for g in i0_prime:
            model.homdim[(("X", 0, g), x_min_i1)] = 2
    return model


# -- lemma instantiation ---------------------------------------------------------


class LemmaContext:
    """Everything needed to run one functor pattern check."""

    def __init__(self, modules):
        self.sm = modules
        self.calc = modules.calc
        self.quiver = modules.quiver
        self.field = modules.field

    # designated modules of the three lemmas
    def module_R(self, x: str):
        calc = self.calc
        kind, i, j = x.split(":")
        if kind == "x":
            alpha = f"alpha:{i}:{j}"
            mu = calc.mu(x)
            return self.sm.construct_M(calc.word((alpha,) + mu.letters))
        y = f"x:{i}:{j}"
        return self.sm.construct_NCC(y, calc.mu(y), calc.omega(y))

    def module_X(self, x: str):
        calc = self.calc
        kind, i, j = x.split(":")
        if kind == "x":
            return self.sm.construct_M(calc.mu(x))
        y = f"x:{i}:{j}"
        gamma = f"gamma:{i}:{j}"
        mu_y = calc.mu(y)
        return self.sm.construct_M(calc.word((gamma,) + mu_y.letters))

    def module_I(self, x: str):
        return self.sm.construct_M(self.calc.omega(x))

    def _c_poset(self, x: str, bound: int) -> AdmissiblePoset:
        calc = self.calc
        words = calc.strings_terminating_at(x, bound)
        return AdmissiblePoset(
            tuple(("str", calc.word_key(w)) for w in words),
            min_present=calc.mu(x).length <= bound,
            max_present=calc.omega(x).length <= bound,
        )

    def _strand_posets(self, i: int, j0: int, bound: int, last: int):
        """(anchors, posets) of a strand lemma at x_(i,j0) or z_(i,j0): the
        anchors j0 < j_1 < ... < j_r are j0 and the entries of S_i above
        it, I_p = [j_(p-1), j_p - 1] + C_(x_(i,j_p)) for p = 1..r, and
        I_(r+1) = [j_r, last]."""
        anchors = [j0] + [j for j in self.quiver.ds.s_sorted(i) if j > j0]
        posets = [interval_poset(lo, hi - 1).ordered_sum(
                      self._c_poset(f"x:{i}:{hi}", bound))
                  for lo, hi in zip(anchors, anchors[1:])]
        return anchors, posets + [interval_poset(anchors[-1], last)]

    def _strand_module(self, o, i: int, anchors, prefixed):
        """The module of object ``o`` of a strand lemma on strand i.  The
        X, Xp and Xpp objects over I_p sit at y = x_(i, anchors[p]): X over
        a string C is N(C, omega_y), Xp is M(omega_y) and Xpp is
        N(y, omega_y).  X over an integer j is M(omega) at x_(i,j), with a
        gamma_(i,j) prefix when j is in ``prefixed``.  Y over C is
        M(gamma_(i,j0) C) and Z is M of the trivial string at z_(i,j0)."""
        calc, sm = self.calc, self.sm
        if o[0] == "Z":
            return sm.construct_M(calc.trivial(f"z:{i}:{anchors[0]}"))
        if o[0] == "Y":
            return sm.construct_M(calc.word(
                (f"gamma:{i}:{anchors[0]}",) + o[1][1][0]))
        if o[0] == "X" and o[2][0] == "int":
            j = o[2][1]
            omega = calc.omega(f"x:{i}:{j}")
            if j in prefixed:
                return sm.construct_M(calc.word(
                    (f"gamma:{i}:{j}",) + omega.letters))
            return sm.construct_M(omega)
        y = f"x:{i}:{anchors[o[1]]}"
        omega = calc.omega(y)
        if o[0] == "Xp":
            return sm.construct_M(omega)
        if o[0] == "Xpp":
            return sm.construct_N(y, omega)
        return sm.construct_NCC(y, calc.from_key(o[2][1]), omega)

    def instantiate(self, x: str, which: str, bound: int):
        """(model, assignment dict object -> Representation) for one lemma.

        The model is built on the lemma's posets, truncated at string length
        ``bound``: the K-family on C_x for X, the single-L model on C_x for
        R at an x-vertex, the L-family on C_(x_(i,j0)), I_1, ..., I_(r+1)
        for R at z_(i,j0), and the K-family on I_1, ..., I_(r+1) for I at
        x_(i,j0) (see ``_strand_posets``).  Each object of the model gets its
        module by one rule per lemma: M(C) over C for X; M(alpha_(i,j) C)
        for X over C and M(C) for Y over C in the single-L model; and
        ``_strand_module``, with all anchors prefixed for R and all but j0
        for I.  A pair (x, which) outside ``lemma_sites`` raises ValueError.
        """
        if (x, which) not in lemma_sites(self.quiver):
            raise ValueError(f"{x!r} is not a site of lemma {which!r}")
        calc, sm = self.calc, self.sm
        kind, i, j0 = x.split(":")
        i, j0 = int(i), int(j0)
        if which == "X":
            # C_x is taken at the vertex itself, z-vertices included
            model = build_model("K", [self._c_poset(x, bound)])
            return model, {o: sm.construct_M(calc.from_key(o[2][1]))
                           for o in model.objects}
        if which == "R" and kind == "x":
            model = build_model("L1", [self._c_poset(x, bound)])
            alpha = f"alpha:{i}:{j0}"
            return model, {
                o: sm.construct_M(calc.word((alpha,) + o[1][1][0]))
                if o[0] == "X" else sm.construct_M(calc.from_key(o[1][1]))
                for o in model.objects}
        top = self.quiver.ds.top(i)
        if which == "R":
            anchors, posets = self._strand_posets(i, j0, bound, top + 1)
            model = build_model(
                "LF", [self._c_poset(f"x:{i}:{j0}", bound)] + posets)
            prefixed = anchors
        else:
            anchors, posets = self._strand_posets(i, j0, bound, top)
            model = build_model("K", posets)
            prefixed = anchors[1:]
        return model, {o: self._strand_module(o, i, anchors, prefixed)
                       for o in model.objects}


def _slot(spaces, M):
    """(id, row) of the content of M in ``spaces``: the ids number the
    distinct contents, and row[id of N] is hom_space(M, N) once solved.
    The content is the dimension tuple and the bytes of the maps on the
    support arrows, which fix the Hom system on either side."""
    key = (M.dims, b"".join(M.maps[a].tobytes() for a in M.support_arrows))
    slot = spaces.get(key)
    if slot is None:
        slot = spaces[key] = (len(spaces), {})
    return slot


def measure_pattern(R, assign, field, spaces=None):
    """Measured objdim and homdim matrices through the functor Hom(R, -).

    homdim(u, v) is the rank of f -> (f h)_h, from Hom(u, v) to the maps
    Hom(R, u) -> Hom(R, v).  All composites f h into v are formed from the
    ``hom_space`` arrays, one stacked product (f h)^T = h^T f^T per vertex
    in the supports of R, u and v (elsewhere f h is 0), straight in the
    unknown layout of Hom(R, v), and written in its basis by one solve
    against that kernel array, all of them as its columns.

    Each Hom system is solved once per content pair in ``spaces`` (see
    ``_slot``).  ``ArVerifier.verify`` shares one such dict among all of
    its lemma checks, and drops it when it returns: the lemma objects of
    one vertex, and of the R and X lemmas at a vertex, repeat.  A memo for
    the whole run would hold every Hom system to its end: one kept for
    every ``hom_basis`` call measured +2.7 MB ``peak_rss_mb`` on the
    ``ex14-rows`` benchmark, +5.1 MB on ``tsys-deep`` and +11.2 MB (+25%)
    on ``ex14-certify``.
    """
    objects = sorted(assign, key=repr)
    spaces = {} if spaces is None else spaces
    slots = {o: _slot(spaces, assign[o]) for o in objects}

    def space(M, m_slot, N, n_slot):
        row, j = m_slot[1], n_slot[0]
        if j not in row:
            row[j] = hom_space(M, N)
        return row[j]

    r_slot = _slot(spaces, R)
    from_r = {o: space(R, r_slot, assign[o], slots[o]) for o in objects}
    objdim = {o: len(from_r[o][0]) for o in objects}
    homdim = {(u, v): 0 for u in objects for v in objects}
    for v in objects:
        kv, bv = from_r[v]
        if not len(kv):
            continue
        blocks, composites = [], []  # (u, len Hom(u, v)), composite arrays
        for u in objects:
            ku, bu = from_r[u]
            if not len(ku):
                continue
            kf, bf = space(assign[u], slots[u], assign[v], slots[v])
            if not len(kf):
                continue
            comp = np.zeros((len(kf), len(ku), kv.shape[1]), dtype=np.int64)
            for w, (o, n, m) in bv.items():
                if w in bu and w in bf:
                    comp[:, :, o: o + n * m] = field.mul(
                        transposed_blocks(ku, bu[w])[None],
                        transposed_blocks(kf, bf[w])[:, None]).reshape(
                            len(kf), len(ku), n * m)
            blocks.append((u, len(kf)))
            composites.append(comp.reshape(-1, kv.shape[1]))
        if not blocks:
            continue
        coords = field.solve(kv.T, np.vstack(composites).T)
        if coords is None:
            raise ConsistencyError("composite outside the span of Hom(R, v)")
        start = 0
        for u, n_f in blocks:
            width = n_f * objdim[u]
            # row i: the coordinates of f_i h_1, f_i h_2, ... in turn
            rows = coords[:, start: start + width].T.reshape(n_f, -1)
            homdim[(u, v)] = field.rank(rows)
            start += width
    return objects, objdim, homdim


def match_model(measured, model: VscModel, objects=None) -> dict:
    """Entrywise comparison; objects defaults to the measured object list."""
    objs, objdim, homdim = measured
    if objects is None:
        objects = objs
    mismatches = []
    for o in objects:
        if objdim.get(o) != model.objdim.get(o):
            mismatches.append(("objdim", o, objdim.get(o),
                               model.objdim.get(o)))
    for u in objects:
        for v in objects:
            want = model.hom(u, v)
            got = homdim.get((u, v), 0)
            if got != want:
                mismatches.append(("homdim", (u, v), got, want))
    return {"objects": len(objects), "mismatches": mismatches,
            "ok": not mismatches}


def hom_pattern_of_functor(modules, x: str, which: str, bound: int,
                           spaces=None):
    """Run the lemma ``which`` ("R", "X" or "I") at vertex ``x`` on strings
    of length ``bound``; returns (model, measured, match report).

    The measured objects are the model's (see ``LemmaContext.instantiate``),
    so ``report["objects"]`` counts the objects compared.  A pair
    (x, which) outside ``lemma_sites`` raises ValueError.  ``spaces`` is
    passed to ``measure_pattern``."""
    ctx = LemmaContext(modules)
    model, assign = ctx.instantiate(x, which, bound)
    R = {"R": ctx.module_R, "X": ctx.module_X, "I": ctx.module_I}[which](x)
    measured = measure_pattern(R, assign, modules.field, spaces)
    report = match_model(measured, model)
    return model, measured, report


def i_lemma_vertices(quiver):
    """Vertices satisfying the I-lemma hypothesis, per strand."""
    ds = quiver.ds
    out = []
    for i in range(1, ds.strands + 1):
        lo = ds.t_last(i) + 1
        for j in range(lo, ds.top(i) + 1):
            if j not in ds.S[i - 1]:
                out.append(f"x:{i}:{j}")
    return out


def lemma_sites(quiver):
    """The (vertex, lemma) pairs whose hypotheses hold, in the order
    ``ArVerifier.verify`` checks them: R and X at each admissible vertex,
    sorted, then I at each of ``i_lemma_vertices``."""
    vertices = sorted(map(str, admissible_vertices(quiver.ds)))
    return ([(v, which) for v in vertices for which in ("R", "X")]
            + [(v, "I") for v in i_lemma_vertices(quiver)])
