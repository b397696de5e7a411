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
from .homlab import ConsistencyError, hom_spaces, transposed_blocks


@dataclass(frozen=True)
class AdmissiblePoset:
    """A finite slice of a linearly ordered set.

    ``min_present`` / ``max_present`` record whether the abstract minimum and
    maximum survived the truncation; rules that name them are skipped when
    they did not.
    """

    elements: tuple
    min_present: bool = True
    max_present: bool = True

    def index(self, e):
        return self.elements.index(e)

    @property
    def minimum(self):
        if not (self.min_present and self.elements):
            return None
        return self.elements[0]

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


# -- the lemma sites -------------------------------------------------------------


def _c_poset(modules, x: str, bound: int) -> AdmissiblePoset:
    calc = modules.calc
    words = calc.strings_terminating_at(x, bound)
    return AdmissiblePoset(
        tuple(("str", calc.word_key(w)) for w in words),
        min_present=calc.mu(x).length <= bound,
        max_present=calc.omega(x).length <= bound,
    )


def _strand_posets(modules, i: int, j0: int, bound: int, last: int):
    """(anchors, posets) of a strand lemma at x_(i,j0) or z_(i,j0): the
    anchors j0 < j_1 < ... < j_r are j0 and the entries of S_i above
    it, I_p = [j_(p-1), j_p - 1] + C_(x_(i,j_p)) for p = 1..r, and
    I_(r+1) = [j_r, last]."""
    anchors = [j0] + [j for j in modules.quiver.ds.s_sorted(i) if j > j0]
    posets = [interval_poset(lo, hi - 1).ordered_sum(
                  _c_poset(modules, f"x:{i}:{hi}", bound))
              for lo, hi in zip(anchors, anchors[1:])]
    return anchors, posets + [interval_poset(anchors[-1], last)]


def _strand_module(modules, o, i: int, anchors, prefixed):
    """The module of object ``o`` of a strand lemma on strand i.  The
    X, Xp and Xpp objects over I_p sit at y = x_(i, anchors[p]): X over
    a string C is N(C, omega_y), Xp is M(omega_y) and Xpp is
    N(y, omega_y).  X over an integer j is M(omega) at x_(i,j), with a
    gamma_(i,j) prefix when j is in ``prefixed``.  Y over C is
    M(gamma_(i,j0) C) and Z is M of the trivial string at z_(i,j0)."""
    calc, M = modules.calc, modules.construct_M
    if o[0] == "Z":
        return M(calc.trivial(f"z:{i}:{anchors[0]}"))
    if o[0] == "Y":
        return M(calc.word((f"gamma:{i}:{anchors[0]}",) + o[1][1][0]))
    if o[0] == "X" and o[2][0] == "int":
        j = o[2][1]
        omega = calc.omega(f"x:{i}:{j}")
        if j in prefixed:
            return M(calc.word((f"gamma:{i}:{j}",) + omega.letters))
        return M(omega)
    y = f"x:{i}:{anchors[o[1]]}"
    omega = calc.omega(y)
    if o[0] == "Xp":
        return M(omega)
    if o[0] == "Xpp":
        return modules.construct_N(y, omega)
    return modules.construct_NCC(y, calc.from_key(o[2][1]), omega)


def lemma(modules, x: str, which: str, bound: int):
    """(model, R, assign) of the lemma ``which`` ("R", "X" or "I") at
    vertex ``x``: the model on the lemma's posets truncated at string
    length ``bound``, the designated module R, and ``assign``, the module
    of each object of the model.  With y = x_(i,j0) for x = x_(i,j0) or
    z_(i,j0), one branch per kind of site:

    - X: the K-family on C_x, taken at the vertex itself; R is M(mu_x) at
      an x-vertex and M(gamma_(i,j0) mu_y) at a z-vertex; X over C is M(C).
    - R at an x-vertex: the single-L model on C_x; R is M(alpha_x mu_x),
      X over C is M(alpha_x C) and Y over C is M(C).
    - R at z_(i,j0): the L-family on C_y, I_1, ..., I_(r+1) (see
      ``_strand_posets``); R is N(mu_y, omega_y), and ``_strand_module``
      gives the objects' modules with all anchors prefixed.
    - I at x_(i,j0): the K-family on I_1, ..., I_(r+1); R is M(omega_x),
      and ``_strand_module`` prefixes all anchors but j0.

    A pair (x, which) outside ``lemma_sites``, or a negative ``bound``,
    raises ValueError.
    """
    if (x, which) not in lemma_sites(modules.quiver):
        raise ValueError(f"{x!r} is not a site of lemma {which!r}")
    if bound < 0:
        raise ValueError(f"bound must be nonnegative, got {bound}")
    calc, M = modules.calc, modules.construct_M
    kind, i, j0 = x.split(":")
    i, j0 = int(i), int(j0)
    y = f"x:{i}:{j0}"
    if which == "X":
        model = _build_k([_c_poset(modules, x, bound)])
        R = M(calc.mu(x)) if kind == "x" else M(
            calc.word((f"gamma:{i}:{j0}",) + calc.mu(y).letters))
        return model, R, {o: M(calc.from_key(o[2][1]))
                          for o in model.objects}
    if which == "R" and kind == "x":
        model = _build_l1(_c_poset(modules, x, bound))
        alpha = f"alpha:{i}:{j0}"
        R = M(calc.word((alpha,) + calc.mu(x).letters))
        return model, R, {o: M(calc.word((alpha,) + o[1][1][0]))
                          if o[0] == "X" else M(calc.from_key(o[1][1]))
                          for o in model.objects}
    top = modules.quiver.ds.top(i)
    if which == "R":
        anchors, posets = _strand_posets(modules, i, j0, bound, top + 1)
        model = _build_lf([_c_poset(modules, y, bound)] + posets)
        R = modules.construct_NCC(y, calc.mu(y), calc.omega(y))
        prefixed = anchors
    else:
        anchors, posets = _strand_posets(modules, i, j0, bound, top)
        model = _build_k(posets)
        R = M(calc.omega(x))
        prefixed = anchors[1:]
    return model, R, {o: _strand_module(modules, o, i, anchors, prefixed)
                      for o in model.objects}


def _content(M) -> tuple:
    """The memo key of M: the field order, the quiver, the dimension tuple
    and the bytes of the maps on the support arrows, which fix the Hom
    system on either side."""
    return (M.field.p, M.quiver, M.dims,
            b"".join(M.maps[a].tobytes() for a in M.support_arrows))


def measure_pattern(R, assign, field, spaces=None):
    """Measured objdim and homdim matrices through the functor Hom(R, -).

    homdim(u, v) is the rank of f -> (f h)_h, from Hom(u, v) to the maps
    Hom(R, u) -> Hom(R, v).  All composites f h into v are formed from the
    ``hom_space`` arrays, one stacked product (f h)^T = h^T f^T per vertex
    in the supports of R, u and v (elsewhere f h is 0), straight in the
    unknown layout of Hom(R, v), and written in its basis by one solve
    against that kernel array, all of them as its columns.

    The Hom systems are solved in two batches, Hom(R, o) for every object o
    and then Hom(u, v) for every pair with Hom(R, u) and Hom(R, v) nonzero,
    each content pair once.  ``spaces`` is the memo: one flat dict from the
    pair of ``_content`` keys of (M, N) to ``hom_space(M, N)``, the keys
    taken once per module per call.  A key holds the field order and the
    quiver, so one dict may serve modules over several fields.
    ``ArVerifier.verify`` shares one such dict among all of its lemma
    checks, and drops it when it returns: the lemma objects of one vertex,
    and of the R and X lemmas at a vertex, repeat.  A memo for the whole run
    would hold every Hom system to its end: one kept for every
    ``hom_basis`` call measured +2.7 MB ``peak_rss_mb`` on the
    ``ex14-rows`` benchmark, +5.1 MB on ``tsys-deep`` and +11.2 MB (+25%)
    on ``ex14-certify``.
    """
    objects = sorted(assign, key=repr)
    spaces = {} if spaces is None else spaces
    content = {id(M): _content(M) for M in (R, *assign.values())}

    def solved(pairs) -> list:
        # the content pairs not in ``spaces`` yet, in one batch, each once
        keys = [(content[id(M)], content[id(N)]) for M, N in pairs]
        todo = {k: pair for k, pair in zip(keys, pairs) if k not in spaces}
        spaces.update(zip(todo, hom_spaces(todo.values())))
        return [spaces[k] for k in keys]

    from_r = dict(zip(objects, solved([(R, assign[o]) for o in objects])))
    objdim = {o: len(from_r[o][0]) for o in objects}
    homdim = {(u, v): 0 for u in objects for v in objects}
    reached = [o for o in objects if objdim[o]]
    pairs = [(u, v) for v in reached for u in reached]
    hom = dict(zip(pairs, solved([(assign[u], assign[v]) for u, v in pairs])))
    for v in reached:
        kv, bv = from_r[v]
        blocks, composites = [], []  # (u, len Hom(u, v)), composite arrays
        for u in reached:
            ku, bu = from_r[u]
            kf, bf = hom[u, v]
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

    The measured objects are the model's (see ``lemma``), so
    ``report["objects"]`` counts the objects compared.  A pair (x, which)
    outside ``lemma_sites`` raises ValueError.  ``spaces`` is passed to
    ``measure_pattern``."""
    model, R, assign = lemma(modules, x, which, bound)
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
