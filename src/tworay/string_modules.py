"""Matrix representations attached to strings and bands.

Every constructor lays out string skeletons: position i of a word c_1 ... c_n
carries a basis vector at the vertex between c_i and c_{i+1} (position 0 at
the terminating end).  The skeleton action is: an alpha-letter c_i sends v_i
to v_{i-1}, a reversed letter c_{i+1} sends v_i to v_{i+1}.  On top of that
the families add the extra vectors v', v'' and the band couplings.

Basis labels are added in the order v'' < v' < v_i < v_i' < v_i^{(j)} at
every vertex, v' and v'' at the front, so all matrices are reproducible.
Each basis vector is placed as (vertex, index), the index its vertex's
count of vectors so far, and each arrow entry names its two places at once.
"""

import functools
from collections.abc import Mapping

import numpy as np

from .defining_system import check_bound, check_integer
from .field import DEFAULT_PRIME, PrimeField, integer_array
from .quiver import ConsistencyError, Quiver
from .strings import EMPTY, StringWord, WordCalculus, NotAString


class NotAPair(ValueError):
    pass


class LambdaZero(ValueError):
    pass


class NotABand(ValueError):
    pass


# the band parameters sampled when none are given
DEFAULT_LAMBDAS = (2, 3, 5)
# the labels of the extra vectors v' and v'', one object each
_VP, _VPP = ("vp",), ("vpp",)

@functools.lru_cache(maxsize=None)
def zero_size_block(rows: int, cols: int) -> np.ndarray:
    """The rows x cols matrix with rows * cols = 0, as on an arrow or at a
    vertex outside a support.  It holds no entries, so one read-only array
    per shape is shared by every module and map."""
    if rows and cols:
        raise ConsistencyError(f"a {rows} x {cols} block is not zero-size")
    block = np.zeros((rows, cols), dtype=np.int64)
    block.flags.writeable = False
    return block


class Representation:
    """Vertex spaces with ordered basis labels plus one matrix per arrow.

    The support is fixed when the module is built: ``dims`` is the dimension
    tuple in vertex order, ``support`` the vertices with a nonzero space and
    ``support_arrows`` the arrows between two of them, both in quiver
    order.  Every other arrow map has a zero-size side and is the shared
    ``zero_size_block``, and a path through a vertex outside the support
    acts as 0, so loops over a module visit only its support.

    The support-arrow maps live in one int64 buffer per module, ``buffer``,
    laid out in ``support_arrows`` order, each map row by row from its
    offset in ``starts``; ``homlab.hom_spaces`` reads the entries of many
    modules from it at once.  The buffer is the module's one copy of its
    maps: ``maps`` is a read-only mapping over every arrow, in quiver
    order, which makes each map on access, a read-only view of the
    buffer's segment shaped dim M_t x dim M_s for a support arrow and the
    shared ``zero_size_block`` for any other.  Readers that look up many
    arrows take ``maps`` once.  The buffer is packed from a copy of the
    input, reduced mod p and made read-only once, so a caller's later
    writes to its own matrices do not reach it, and neither it nor its
    views can be written.  So what is certified about the module can be
    recorded on it without going stale: ``indec``, the
    ``homlab.IndecVerdict`` that ``homlab.is_indecomposable`` reaches from
    a solved End(M), and with it ``end_dim``, dim End(M); and
    ``arrow_ranks``, the ranks of the support-arrow maps in that order, set
    by ``homlab.find_iso`` when it first compares them.  All start as None.

    ``pending`` is None, or the tuple of modules, this one among them, whose
    End(M) ``homlab.is_indecomposable`` solves in one ``homlab.hom_spaces``
    stream on the first call to any of them (``theorem_inventory`` gives
    its entries one such group).  That call drops the group from every
    member; until then the group keeps all of its members alive.

    ``labels`` maps each support vertex, and no other, to its tuple of
    basis labels; the module keeps no other per-vertex table besides
    ``dims``, so building it walks its support, the arrows out of it and
    its entries, not the whole quiver.  ``spaces`` is the dict over every
    vertex, in quiver order, () off the support, built from ``labels`` on
    each read, so writing into it changes nothing of the module.

    A module enters in one of two ways.  The constructor takes dense
    matrices (arrays or nested lists), as cokernels, DTr, kernels, direct
    sums and P(v) give them, and checks them before the layout: a space at
    a vertex, or a map on an arrow, that the quiver does not have raises
    ValueError, as do duplicate labels at a vertex, a map of the wrong
    shape and a coefficient that is not an integer.
    ``StringModules._assemble`` lays out the families' modules from the
    labels it places and their entries, each of which must join its
    arrow's ends (``_placed_buffer``).

    Labels and the per-vertex label tuples are immutable and may be
    shared: every module that ``StringModules`` builds takes them from its
    shared tables, so two of its modules with equal labels, or equal label
    tuples at a vertex, hold one object each.
    """

    __slots__ = ("quiver", "field", "labels", "dims", "support",
                 "support_arrows", "starts", "buffer", "indec", "end_dim",
                 "arrow_ranks", "pending")

    def __init__(self, quiver: Quiver, field, spaces, maps):
        self._pack(quiver, field, _checked_spaces(quiver, spaces, maps),
                   maps, _dense_buffer)

    def _pack(self, quiver, field, at, given, buffer):
        """Lay the module out from ``at``, the label tuple of each support
        vertex, kept as ``labels``, and take its buffer from ``buffer(self,
        given, layout, total)``: by then ``self.labels`` and ``self.dims``
        are set, and layout maps each support arrow to (start, rows,
        cols)."""
        self.quiver, self.field, self.labels = quiver, field, at
        vindex, aindex, target = quiver.vindex, quiver.aindex, quiver.target
        self.dims = tuple(len(at[v]) if v in at else 0 for v in vindex)
        self.support = tuple(sorted(at, key=vindex.__getitem__))
        inside = []
        for v in self.support:
            cols = len(at[v])
            for a in quiver.out_arrows[v]:
                rows = len(at.get(target[a], ()))
                if rows:
                    inside.append((aindex[a], a, rows, cols))
        inside.sort()
        layout, total = {}, 0
        for _, a, rows, cols in inside:
            layout[a] = total, rows, cols
            total += rows * cols
        buf = buffer(self, given, layout, total) % field.p
        buf.flags.writeable = False
        self.buffer = buf
        self.support_arrows = tuple(layout)
        self.starts = tuple(start for start, _, _ in layout.values())
        self.indec = self.end_dim = self.arrow_ranks = self.pending = None

    @property
    def maps(self) -> "_ArrowMaps":
        return _ArrowMaps(self)

    @property
    def spaces(self) -> dict:
        labels = self.labels
        return {v: labels.get(v, ()) for v in self.quiver.vertices}

    def dim(self, v: str) -> int:
        return self.dims[self.quiver.vindex[v]]

    def dim_vector(self) -> dict:
        return dict(zip(self.quiver.vertices, self.dims))

    def dim_tuple(self) -> tuple:
        return self.dims

    @property
    def total_dim(self) -> int:
        return sum(self.dims)

    def is_zero(self) -> bool:
        return not self.support

    def direct_sum(self, other: "Representation") -> "Representation":
        return direct_sum_of(self.quiver, self.field, [self, other])

    def to_json_obj(self):
        return {
            "field": self.field.p,
            "spaces": {v: ["|".join(map(str, l)) for l in ls]
                       for v, ls in sorted(self.labels.items())},
            "maps": {a: m.tolist() for a, m in sorted(self.maps.items())
                     if m.size},
        }

    def __repr__(self):
        dv = {v: d for v, d in self.dim_vector().items() if d}
        return f"Representation(dim={self.total_dim}, {dv})"


class _ArrowMaps(Mapping):
    """The arrow maps of one module, read-only, in quiver order: each made
    on access from the module's buffer (see ``Representation``)."""

    __slots__ = ("_rep",)

    def __init__(self, rep: Representation):
        self._rep = rep

    def __getitem__(self, a) -> np.ndarray:
        rep = self._rep
        q, labels = rep.quiver, rep.labels
        rows = len(labels.get(q.target[a], ()))
        cols = len(labels.get(q.source[a], ()))
        if not (rows and cols):  # off the support
            return zero_size_block(rows, cols)
        start = rep.starts[rep.support_arrows.index(a)]
        return rep.buffer[start: start + rows * cols].reshape(rows, cols)

    def __iter__(self):
        return iter(self._rep.quiver.arrows)

    def __len__(self) -> int:
        return len(self._rep.quiver.arrows)


def zero_representation(quiver: Quiver, field) -> Representation:
    return Representation(quiver, field, {}, {})


def _checked_spaces(quiver: Quiver, spaces, given) -> dict:
    """The label tuple of each vertex with a nonzero space; ValueError for
    an unknown vertex, an arrow of ``given`` the quiver lacks, or duplicate
    labels at a vertex."""
    at, vindex = {}, quiver.vindex
    for v, labels in spaces.items():
        if v not in vindex:
            raise ValueError(f"unknown vertex {v!r}")
        if labels:
            at[v] = labels = tuple(labels)
            if len(set(labels)) != len(labels):
                raise ValueError(f"duplicate labels at {v}")
    for a in given:
        if a not in quiver.source:
            raise ValueError(f"unknown arrow {a!r}")
    return at


def _dense_buffer(rep, maps, layout, total) -> np.ndarray:
    """The given dense matrices, row by row, at their places in the
    layout; zeros on a support arrow without one."""
    source, target = rep.quiver.source, rep.quiver.target
    buf = np.zeros(total, dtype=np.int64)
    for a, given in maps.items():
        m = np.asarray(given)
        place = layout.get(a)
        if m.shape != (place[1:] if place
                       else (rep.dim(target[a]), rep.dim(source[a]))):
            raise ValueError(f"bad shape for {a}: {m.shape}")
        if place:
            buf[place[0]: place[0] + m.size] = integer_array(
                given, f"map on {a}").ravel()
    return buf


def _placed_buffer(rep, entries, layout, total) -> np.ndarray:
    """The sums of the families' entries (arrow, target vertex, row, source
    vertex, column, coefficient) at their places in the layout, each row
    and column an index into its vertex's labels.  An entry whose vertices
    are not its arrow's ends raises ConsistencyError."""
    source, target = rep.quiver.source, rep.quiver.target
    flat = [0] * total
    for a, t, r, s, c, x in entries:
        if target[a] != t or source[a] != s:
            raise ConsistencyError(f"arrow {a} does not join labels "
                                   f"{rep.labels[s][c]} and {rep.labels[t][r]}")
        start, _, cols = layout[a]
        flat[start + r * cols + c] += x
    return np.array(flat, dtype=np.int64)


def block_diagonal(field, blocks) -> np.ndarray:
    """The block-diagonal matrix with the given blocks, in order."""
    m = field.zeros(sum(b.shape[0] for b in blocks),
                    sum(b.shape[1] for b in blocks))
    row = col = 0
    for b in blocks:
        m[row: row + b.shape[0], col: col + b.shape[1]] = b
        row, col = row + b.shape[0], col + b.shape[1]
    return m


def direct_sum_of(quiver: Quiver, field, reps) -> Representation:
    """The direct sum of a list of modules, the zero module if it is empty.

    The block-diagonal sum is built in one pass, with the labels of the left
    fold of ``direct_sum``: the last of n summands is tagged ("R",), the one
    before ("L", "R"), and so on, and the first ("L",) * (n - 1).  One
    summand has the empty tag, so its labels and maps are the sum's, and it
    is returned itself.  ValueError for a summand over another field or
    over a quiver unequal to ``quiver``; an equal one built apart is the
    same quiver (see ``Quiver``)."""
    if not reps:
        return zero_representation(quiver, field)
    if any(r.quiver != quiver or r.field != field for r in reps):
        raise ValueError("direct sum over different quivers or fields")
    n = len(reps)
    if n == 1:
        return reps[0]
    tags = [("L",) * (n - 1)] + [("L",) * (n - 1 - i) + ("R",)
                                 for i in range(1, n)]
    spaces = {v: tuple(tag + l for tag, r in zip(tags, reps)
                       for l in r.labels.get(v, ()))
              for v in dict.fromkeys(v for r in reps for v in r.support)}
    summand_maps = [r.maps for r in reps]
    maps = {a: block_diagonal(field, [m[a] for m in summand_maps])
            for a in {a for r in reps for a in r.support_arrows}}
    return Representation(quiver, field, spaces, maps)


def check_relations(rep: Representation, relations) -> list:
    """Evaluate every relation on the representation; list the violations.

    A term whose path passes through a zero vertex space acts as 0 and is
    skipped, so a relation with no term inside the support holds; a term
    naming an arrow that ``rep.quiver`` lacks raises ValueError.  Every
    other term is multiplied out once from its first arrow, the terms are
    added unreduced (each term's entries below p^2) and the sum is reduced
    once."""
    bad = []
    F, maps, arrows_of_q = rep.field, rep.maps, rep.quiver.source
    support = set(rep.support_arrows)
    for rel in relations:
        acc = None
        for coef, arrows in rel.terms:
            if support.issuperset(arrows):
                m = maps[arrows[-1]]
                for a in arrows[-2::-1]:
                    m = F.mul(maps[a], m)
                m = coef % F.p * m
                acc = m if acc is None else acc + m
            else:
                for a in arrows:
                    if a not in arrows_of_q:
                        raise ValueError(f"relation {rel} names arrow {a}, "
                                         f"which the quiver lacks")
        if acc is not None and (acc := acc % F.p).any():
            bad.append((rel, acc))
    return bad


# the number of fields of an atom of each family, its tag included
_ATOM_FIELDS = {"M": 2, "N": 3, "L": 3, "NCC": 4, "R": 4, "Qband": 3}


def _atom_tag(key) -> str:
    """The family tag of an atom; ValueError for a key that is no tuple,
    names no family or has the wrong number of fields for its family."""
    if not (isinstance(key, tuple) and key and isinstance(key[0], str)
            and _ATOM_FIELDS.get(key[0]) == len(key)):
        raise ValueError(f"not an atom: {key!r}")
    return key[0]


class InventoryEntry:
    """One classification entry: family tag, parameters, representation."""

    __slots__ = ("tag", "params", "rep")

    def __init__(self, tag, params, rep):
        self.tag = tag
        self.params = params
        self.rep = rep

    @property
    def key(self):
        return (self.tag,) + self.params

    def __repr__(self):
        return f"<{self.tag} {self.params} dim={self.rep.total_dim}>"


class StringModules:
    """The six representation families over one defining-system algebra,
    and the conventions that name their modules.

    An atom names one module by family tag and parameters, words given by
    their ``word_key``, the form a word takes inside an atom: ("M", C),
    ("N", x, C), ("L", x, C), ("NCC", x, C, C'), ("R", band, lambda, m)
    and ("Qband", x, m).  Words themselves compare by ``==``, which is the
    string's identity.  This class is the one owner of the conventions:

    - ``atom`` is the only map from an atom to its module, for the rows
      and library callers; ``theorem_inventory`` builds each entry as
      ``_build`` of its key, its words read back through ``from_key`` and
      not re-checked, so each entry equals ``atom`` of its key;
    - ``atom_dim`` reads the module's total dimension off the atom; both
      raise ValueError for a key with the wrong number of fields for its
      family, and read an R or Qband atom through ``canon_R`` or
      ``canon_Qb``, so ``NotABand`` for a band or vertex the system lacks;
    - the ``canon_*`` methods turn a family term of the paper into the
      atoms of its direct sum, with the degenerate identifications
      N(C, EMPTY) = M(gamma C), N(C, C) = N_C + M_C and
      N(C, B_x C) = L(B_x C) + M(gamma C), and N_EMPTY = M(e_z) at the
      source z of gamma_x.  A term outside its family raises ``NotAPair``,
      a band term ``NotABand`` or ``LambdaZero``, and a word that is no
      string ``NotAString``.  Each term is checked once, here:
      ``construct_M``, ``construct_N``, ``construct_L``,
      ``construct_NCC``, ``construct_R`` (which looks its word up among
      the bands) and ``construct_Qband`` end, as ``atom`` does, in
      ``_module`` of the atoms their ``canon_*`` returns: the direct sum of
      ``_build`` of each atom, ``_build`` being the one layout of a family
      atom, so a degenerate N or NCC term is the direct sum of its atoms
      and a band term with m = 0 the zero module;
    - ``lams``, the band parameters of the inventory and the rows, is
      ``lam_sample`` mod p then 1, zeros and repeats dropped, in order.

    A module is built in one pass from its word positions.  Each position,
    and v' and v'', is placed at its vertex as (vertex, index): v'' and v'
    take the front slots, reserved before any word is laid out, and each
    position the next index there.  Each arrow entry is (arrow, target
    vertex, row, source vertex, column, coefficient), written as the
    letters are read; ``_assemble`` takes each vertex's label tuple from
    the shared table and lays the module out through
    ``Representation._pack``, the one way into ``Representation`` besides
    its dense constructor, which walks only the support and the arrows
    out of it (see there) and checks that each entry joins its arrow's
    ends.  The module keeps its entries in its buffer alone; its ``maps``
    are views made from that buffer on access.
    """

    def __init__(self, calc: WordCalculus, field=None,
                 lam_sample=DEFAULT_LAMBDAS):
        self.calc = calc
        self.quiver = calc.quiver
        self.field = field if field is not None else PrimeField(DEFAULT_PRIME)
        self._bands = dict(calc.bands())
        self._band_names = {band: name for name, band in self._bands.items()}
        sample = [check_integer(lam, "lam_sample entry") for lam in lam_sample]
        self.lams = list(dict.fromkeys(
            lam for lam in map(self.field.red, (*sample, 1)) if lam))
        # the basis labels of every module built here, shared: tag ->
        # [tag + (0,), tag + (1,), ...], extended on demand, and every
        # per-vertex label tuple met so far -> itself
        self._labels, self._vertex_labels = {}, {}

    # -- assembly helpers ----------------------------------------------------

    def _tagged(self, tag: tuple, n: int) -> list:
        """The shared labels tag + (i,): a list of at least n of them."""
        labels = self._labels.setdefault(tag, [])
        if len(labels) < n:
            labels += (tag + (i,) for i in range(len(labels), n))
        return labels

    def _skeleton(self, word: StringWord, tag: tuple, at, entries,
                  band: bool = False):
        """Lay out one word's positions and generic arrow action.

        Positions run over the I-set [0, n] for strings and the J-set
        [0, n-1] for bands.  Position i is labelled ``tag + (i,)`` and
        placed next at its vertex in ``at`` {v: [label]}, and each letter
        adds its entry to ``entries``.  Returns the vertex and the index
        there of every position, as two lists.
        """
        q = self.quiver
        letters, primed = word.letters, q.primed
        vertices = [q.t_star[c] for c in letters]
        if not band:
            vertices.append(self.calc.source(word))
        index = []
        for v, label in zip(vertices, self._tagged(tag, len(vertices))):
            labels = at.setdefault(v, [])
            index.append(len(labels))
            labels.append(label)
        for c, lv, lo, hv, hi in zip(letters, vertices, index, vertices[1:],
                                     index[1:]):
            entries.append((c, lv, lo, hv, hi, 1) if c in primed
                           else (c, hv, hi, lv, lo, 1))
        return vertices, index

    def _reserve_vp(self, x: str, at):
        """Put v' in the next front slot of the target of alpha_x, before
        any skeleton is laid out; return alpha_x and the vertex and index
        of v'."""
        alpha = self.quiver.alpha_of(x)
        v = self.quiver.target[alpha]
        labels = at.setdefault(v, [])
        labels.append(_VP)
        return alpha, v, len(labels) - 1

    def _assemble(self, at, entries) -> Representation:
        """The module with the labels of ``at`` {v: [label]} and the
        entries (arrow, target vertex, row, source vertex, column,
        coefficient), rows and columns indices into the vertices' labels.
        Each vertex's label tuple is taken from the shared table."""
        table = self._vertex_labels
        for v, labels in at.items():
            labels = tuple(labels)
            at[v] = table.setdefault(labels, labels)
        rep = Representation.__new__(Representation)
        rep._pack(self.quiver, self.field, at, entries, _placed_buffer)
        return rep

    # -- the six families ------------------------------------------------------

    def construct_M(self, word) -> Representation:
        return self._module(self.canon_M(word))

    def construct_N(self, x: str, word) -> Representation:
        return self._module(self.canon_N(x, word))

    def construct_L(self, x: str, word: StringWord) -> Representation:
        return self._module(self.canon_L(x, word))

    def construct_NCC(self, x: str, c, cp) -> Representation:
        return self._module(self.canon_NCC(x, c, cp))

    def _glued(self, x: str, words, with_vpp: bool) -> Representation:
        """N, L and N(C, C'): the skeletons of ``words`` tagged v and vq, v'
        sent to by position p|B_x| of each word for p <= p_x(word), and for
        N and N(C, C') v'' sending to v_0 along gamma_x.  v'' and v' take
        the front slots of their vertices, in that order."""
        calc, q = self.calc, self.quiver
        at, entries, anchors = {}, [], []
        if with_vpp:
            gamma = q.gamma_of(x)
            at[q.source[gamma]] = [_VPP]
        alpha, vp_at, vp = self._reserve_vp(x, at)
        blen = calc.band_of(x).length
        for tag, w in zip(("v", "vq"), words):
            vertices, index = self._skeleton(w, (tag,), at, entries)
            anchors += [(vertices[p * blen], index[p * blen])
                        for p in range(calc.p_count(w, x) + 1)]
        entries += [(alpha, vp_at, vp, v, i, 1) for v, i in anchors]
        if with_vpp:  # anchors[0] is v_0
            entries.append((gamma, *anchors[0], q.source[gamma], 0, 1))
        return self._assemble(at, entries)

    def _band_skeleton(self, band: StringWord, m: int, lam: int, at,
                       entries):
        """m copies of the band word coupled through the closing letter;
        returns the vertex and index of position 0 of the first copy."""
        closing = band.letters[-1]
        if closing in self.quiver.primed:
            raise ConsistencyError("band must close on a reversed letter")
        for j in range(1, m + 1):
            vertices, index = self._skeleton(band, ("vb", j), at, entries,
                                             band=True)
            start, end = (vertices[0], index[0]), (vertices[-1], index[-1])
            entries.append((closing, *start, *end, lam))
            if j == 1:
                first = start
            else:
                entries.append((closing, *start, *last, 1))
            last = end
        return first

    def construct_R(self, band: StringWord, lam: int, m: int) -> Representation:
        # a word that is no band of the system, or a value that is no word,
        # goes to canon_R as its repr, which names no band either
        name = (self._band_names.get(band) if isinstance(band, StringWord)
                else None)
        return self._module(
            self.canon_R(repr(band) if name is None else name, lam, m))

    def construct_Qband(self, x: str, m: int) -> Representation:
        return self._module(self.canon_Qb(x, m))

    # -- atoms and the family conventions -----------------------------------

    def _module(self, atoms) -> Representation:
        """The direct sum of the modules of canonical atoms, as ``canon_*``
        return them: the zero module for none."""
        return direct_sum_of(self.quiver, self.field,
                             [self._build(a) for a in atoms])

    def _build(self, atom) -> Representation:
        """The module of one canonical atom, laid out with no check: the one
        layout of a family atom (``_glued`` lays out N, L and N(C, C')), for
        ``atom``, the ``construct_*``, the inventory and ``vsc`` alike."""
        tag, word = atom[0], self.calc.from_key
        if tag in ("N", "L", "NCC"):
            return self._glued(atom[1], tuple(map(word, atom[2:])),
                               with_vpp=tag != "L")
        at, entries = {}, []
        if tag == "M":
            self._skeleton(word(atom[1]), ("v",), at, entries)
        elif tag == "R":
            _, name, lam, m = atom
            self._band_skeleton(self._bands[name], m, lam, at, entries)
        else:  # Qband
            _, x, m = atom
            alpha, vp_at, vp = self._reserve_vp(x, at)
            start = self._band_skeleton(self._bands[x], m, 1, at, entries)
            entries.append((alpha, vp_at, vp, *start, 1))
        return self._assemble(at, entries)

    def atom(self, key) -> Representation:
        """The module of an atom: the one map from a key to a module."""
        tag, word = _atom_tag(key), self.calc.from_key
        if tag == "M":
            return self.construct_M(word(key[1]))
        if tag == "N":
            return self.construct_N(key[1], word(key[2]))
        if tag == "L":
            return self.construct_L(key[1], word(key[2]))
        if tag == "NCC":
            return self.construct_NCC(key[1], word(key[2]), word(key[3]))
        if tag == "R":
            return self._module(self.canon_R(*key[1:]))
        return self.construct_Qband(key[1], key[2])

    def atom_dim(self, atom) -> int:
        """The total dimension of the module of an atom, read off the key.
        A key of the wrong shape raises ValueError and a band term is read
        through ``canon_R`` or ``canon_Qb``, so both raise as ``atom`` does;
        the letters of a word key are not checked, which is ``atom``'s job.
        """
        tag = _atom_tag(atom)
        if tag == "M":
            return len(atom[1][0]) + 1
        if tag == "N":
            return len(atom[2][0]) + 3
        if tag == "L":
            return len(atom[2][0]) + 2
        if tag == "NCC":
            return len(atom[2][0]) + len(atom[3][0]) + 4
        if tag == "R":
            return sum(m * self._bands[name].length
                       for _, name, _, m in self.canon_R(*atom[1:]))
        return sum(m * self._bands[x].length + 1
                   for _, x, m in self.canon_Qb(*atom[1:]))

    def canon_M(self, w):
        if w is EMPTY:
            return ()
        if not isinstance(w, StringWord):
            raise NotAString(f"not a string: {w!r}")
        self.calc.word(w.letters, w.vertex)  # NotAString unless one
        return (("M", self.calc.word_key(w)),)

    def canon_N(self, x, w):
        calc = self.calc
        if x not in self.quiver.q0_primed():
            raise NotAPair(f"{x} is not in Q0'")
        if w is EMPTY:
            z = self.quiver.source[self.quiver.gamma_of(x)]
            return (("M", calc.word_key(calc.trivial(z))),)
        if not calc.in_s_x(w, x):
            raise NotAPair(f"N-term parameter outside S_x: {w} at {x}")
        return (("N", x, calc.word_key(w)),)

    def canon_L(self, x, w):
        if x not in self.quiver.q0_doubleprimed():
            raise NotAPair(f"{x} is not in Q0''")
        if not (self.calc.in_s_x(w, x) and self.calc.p_count(w, x) > 0):
            raise NotAPair(f"L-term parameter invalid: {w} at {x}")
        return (("L", x, self.calc.word_key(w)),)

    def canon_NCC(self, x, c, cp):
        if x not in self.quiver.q0_primed():
            raise NotAPair(f"{x} is not in Q0'")
        calc, wkey = self.calc, self.calc.word_key
        gamma = self.quiver.gamma_of(x)
        # in_s_x raises NotAString for a C that is no word, EMPTY included
        if not (calc.in_s_x(c, x) and (cp is EMPTY or calc.in_s_x(cp, x))):
            raise NotAPair(f"pair outside S_x: ({c}, {cp}) at {x}")
        if cp is EMPTY:
            return self.canon_M(calc.word((gamma,) + c.letters))
        if c == cp:
            return (("N", x, wkey(c)), ("M", wkey(c)))
        bx = calc.band_of(x)
        if not bx.is_trivial:
            bxc = StringWord(bx.letters + c.letters)
            if cp == bxc:
                return (("L", x, wkey(bxc)),) + self.canon_M(
                    calc.word((gamma,) + c.letters))
            if calc.compare(cp, bxc) > 0:
                raise NotAPair(
                    f"pair violates C' < B_x C: ({c}, {cp}) at {x}")
        if calc.compare(c, cp) > 0:
            raise NotAPair(f"pair out of order: ({c}, {cp}) at {x}")
        return (("NCC", x, wkey(c), wkey(cp)),)

    def canon_R(self, band_name, lam, m):
        lam, m = check_integer(lam, "lam"), check_integer(m, "m")
        if not isinstance(band_name, str) or band_name not in self._bands \
                or m < 0:
            raise NotABand(f"R-term outside its family: {band_name}, m = {m}")
        lam = self.field.red(lam)
        if lam == 0:
            raise LambdaZero("lambda must be a unit")
        return (("R", band_name, lam, m),) if m else ()

    def canon_Qb(self, x, m):
        m = check_integer(m, "m")
        if x not in self.quiver.q0_doubleprimed() or m < 0:
            raise NotABand(f"Q_band term outside its family: {x}, m = {m}")
        return (("Qband", x, m),) if m else ()

    # -- the bounded inventory ---------------------------------------------------

    def theorem_inventory(self, bound: int):
        """All classification entries of total dimension <= bound, sorted by
        the key's repr.

        Each entry is ``_build`` of its key, built as the key is enumerated:
        its words are read back through ``from_key`` with no ``canon_*``
        re-check, being the family's terms by construction, so each module
        equals ``atom`` of its entry's key.

        The band parameter runs over ``lams`` (the theorem's family carries
        every unit; 1 is included for every band so the tube mouths
        referenced by the almost-split-sequence rows are present).

        The entries' modules share one ``pending`` group, so the first
        ``homlab.is_indecomposable`` call on any of them certifies them all
        in one ``homlab.hom_spaces`` stream; building the inventory solves
        no Hom system.  A ``bound`` that is not a nonnegative integer raises
        ValueError.
        """
        check_bound(bound)
        calc, q, wkey = self.calc, self.quiver, self.calc.word_key

        def entry(*key):
            return InventoryEntry(key[0], key[1:], self._build(key))

        entries = [entry("M", wkey(w)) for w in calc.all_strings(bound - 1)]
        for x in q.q0_primed():
            entries += [entry("N", x, wkey(w)) for w in calc.s_x(x, bound - 3)]
        for x in q.q0_doubleprimed():
            bx = calc.band_of(x)
            entries += [entry("L", x, wkey(StringWord(bx.letters + w.letters)))
                        for w in calc.s_x(x, bound - 2 - bx.length)]
        for x in q.q0_primed():
            entries += [entry("NCC", x, wkey(c), wkey(cp))
                        for c, cp in calc.pairs_p_x(x, bound - 4)]
        for name, band in self._bands.items():
            entries += [entry("R", name, lam, m)
                        for m in range(1, bound // band.length + 1)
                        for lam in self.lams]
        for x in q.q0_doubleprimed():
            top = (bound - 1) // self._bands[x].length
            entries += [entry("Qband", x, m) for m in range(1, top + 1)]
        entries.sort(key=lambda e: repr(e.key))
        group = tuple(e.rep for e in entries)
        for M in group:
            M.pending = group
        return entries
