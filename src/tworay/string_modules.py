"""Matrix representations attached to strings and bands.

Every constructor lays out string skeletons: position i of a word c_1 ... c_n
carries a basis vector at the vertex between c_i and c_{i+1} (position 0 at
the terminating end).  The skeleton action is: an alpha-letter c_i sends v_i
to v_{i-1}, a reversed letter c_{i+1} sends v_i to v_{i+1}.  On top of that
the families add the extra vectors v', v'' and the band couplings.

Basis labels are added in the order v'' < v' < v_i < v_i' < v_i^{(j)} at
every vertex, v' and v'' at the front, so all matrices are reproducible.
"""

import functools

import numpy as np

from .field import DEFAULT_PRIME, PrimeField
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

@functools.lru_cache(maxsize=None)
def zero_size_block(rows: int, cols: int) -> np.ndarray:
    """The rows x cols matrix with rows * cols = 0, as on an arrow or at a
    vertex outside a support.  It holds no entries, so one array per shape
    is shared by every module and map."""
    if rows and cols:
        raise ConsistencyError(f"a {rows} x {cols} block is not zero-size")
    return np.zeros((rows, cols), dtype=np.int64)


class Representation:
    """Vertex spaces with ordered basis labels plus one matrix per arrow.

    The support is fixed when the module is built: ``dims`` is the dimension
    tuple in vertex order, ``support`` the vertices with a nonzero space and
    ``support_arrows`` the arrows between two of them.  Every other arrow
    map has a zero-size side and is stored as the shared
    ``zero_size_block``, and a path through a vertex outside the support
    acts as 0, so loops over a module visit only its support.

    The support-arrow maps are views into one int64 buffer per module,
    ``buffer``, laid out in ``support_arrows`` order, each map row by row;
    ``homlab.hom_spaces`` reads the entries of many modules from it at once.
    The buffer is packed from a copy of the input, reduced mod p and made
    read-only once, so a caller's later writes to its own matrices do not
    reach it, and neither it nor its views can be written.  So what is
    certified about the module can be recorded on it without going stale:
    ``indec``, the ``homlab.IndecVerdict`` that ``homlab.is_indecomposable``
    reaches from a solved End(M), and with it ``end_dim``, dim End(M); and
    ``arrow_ranks``, the ranks of the support-arrow maps in that order, set
    by ``homlab.find_iso`` when it first compares them.  All start as None.

    ``pending`` is None, or the tuple of modules, this one among them, whose
    End(M) ``homlab.is_indecomposable`` solves in one ``homlab.hom_spaces``
    stream on the first call to any of them (``theorem_inventory`` gives
    its entries one such group).  That call drops the group from every
    member; until then the group keeps all of its members alive.

    The constructor takes dense matrices (arrays or nested lists),
    ``from_entries`` a list of (row, column, coefficient) per arrow, whose
    entries at one position add.  Both go through the checks of ``_pack``:
    a space at a vertex, or a map on an arrow, that the quiver does not
    have raises ValueError, as does a dense map of the wrong shape.
    """

    __slots__ = ("quiver", "field", "spaces", "dims", "support",
                 "support_arrows", "maps", "buffer", "indec", "end_dim",
                 "arrow_ranks", "pending")

    def __init__(self, quiver: Quiver, field, spaces, maps):
        self._pack(quiver, field, spaces, maps, _dense_buffer)

    @classmethod
    def from_entries(cls, quiver: Quiver, field, spaces, entries):
        rep = cls.__new__(cls)
        rep._pack(quiver, field, spaces, entries, _entry_buffer)
        return rep

    def _pack(self, quiver, field, spaces, given, buffer):
        """Check the spaces and the per-arrow input ``given``, and take the
        buffer from ``buffer(given, shape, layout, total)``: shape maps each
        arrow to (rows, cols), layout each support arrow to (start, rows,
        cols)."""
        self.quiver, self.field = quiver, field
        self.spaces = {v: tuple(spaces.get(v, ())) for v in quiver.vertices}
        dim = {v: len(labels) for v, labels in self.spaces.items()}
        for keys, known, what in ((spaces, dim, "vertex"),
                                  (given, quiver.source, "arrow")):
            for k in keys:
                if k not in known:
                    raise ValueError(f"unknown {what} {k!r}")
        self.dims = tuple(dim.values())
        self.support = tuple(v for v, d in dim.items() if d)
        self.maps, shape, layout, total = {}, {}, {}, 0
        for a in quiver.arrows:
            rows, cols = shape[a] = (dim[quiver.target[a]],
                                     dim[quiver.source[a]])
            if rows and cols:
                layout[a] = total, rows, cols
                total += rows * cols
                self.maps[a] = None  # the view into the buffer, set below
            else:
                self.maps[a] = zero_size_block(rows, cols)
        buf = buffer(given, shape, layout, total) % field.p
        buf.flags.writeable = False
        self.buffer = buf
        for a, (start, rows, cols) in layout.items():
            self.maps[a] = buf[start: start + rows * cols].reshape(rows, cols)
        self.support_arrows = tuple(layout)
        self.indec = self.end_dim = self.arrow_ranks = self.pending = None
        for v in self.support:
            labels = self.spaces[v]
            if len(set(labels)) != len(labels):
                raise ValueError(f"duplicate labels at {v}")

    def dim(self, v: str) -> int:
        return len(self.spaces[v])

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
                       for v, ls in sorted(self.spaces.items()) if ls},
            "maps": {a: m.tolist() for a, m in sorted(self.maps.items())
                     if m.size},
        }

    def __repr__(self):
        dv = {v: d for v, d in self.dim_vector().items() if d}
        return f"Representation(dim={self.total_dim}, {dv})"


def zero_representation(quiver: Quiver, field) -> Representation:
    return Representation(quiver, field, {}, {})


def _dense_buffer(maps, shape, layout, total) -> np.ndarray:
    """The given dense matrices, row by row, at their places in the
    layout; zeros on a support arrow without one."""
    buf = np.zeros(total, dtype=np.int64)
    for a, m in maps.items():
        m = np.asarray(m, dtype=np.int64)
        if m.shape != shape[a]:
            raise ValueError(f"bad shape for {a}: {m.shape}")
        if a in layout:
            buf[layout[a][0]: layout[a][0] + m.size] = m.ravel()
    return buf


def _entry_buffer(entries, shape, layout, total) -> np.ndarray:
    """One flat list of the sums of the given (row, column, coefficient)
    entries, at their places in the layout."""
    flat = [0] * total
    for a, (start, _, cols) in layout.items():
        for r, c, x in entries.get(a, ()):
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
    is returned itself."""
    if not reps:
        return zero_representation(quiver, field)
    if any(r.quiver is not quiver or r.field != field for r in reps):
        raise ValueError("direct sum over different quivers or fields")
    n = len(reps)
    if n == 1:
        return reps[0]
    tags = [("L",) * (n - 1)] + [("L",) * (n - 1 - i) + ("R",)
                                 for i in range(1, n)]
    spaces = {v: tuple(tag + l for tag, r in zip(tags, reps)
                       for l in r.spaces[v]) for v in quiver.vertices}
    maps = {a: block_diagonal(field, [r.maps[a] for r in reps])
            for a in {a for r in reps for a in r.support_arrows}}
    return Representation(quiver, field, spaces, maps)


def check_relations(rep: Representation, relations) -> list:
    """Evaluate every relation on the representation; list the violations.

    A term whose path passes through a zero vertex space acts as 0 and is
    skipped, so a relation with no term inside the support holds.  Every
    other term is multiplied out once from its first arrow, the terms are
    added unreduced (each term's entries below p^2) and the sum is reduced
    once."""
    bad = []
    F, maps = rep.field, rep.maps
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
        if acc is not None and (acc := acc % F.p).any():
            bad.append((rel, acc))
    return bad


class InventoryEntry:
    """One classification entry: family tag, parameters, representation."""

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
    their ``word_key``: ("M", C), ("N", x, C), ("L", x, C),
    ("NCC", x, C, C'), ("R", band, lambda, m) and ("Qband", x, m).  This
    class is the one owner of the conventions:

    - ``atom`` is the only map from an atom to its module, and
      ``theorem_inventory`` builds every entry through it;
    - ``atom_dim`` reads the module's total dimension off the atom;
    - the ``canon_*`` methods turn a family term of the paper into the
      atoms of its direct sum, with the degenerate identifications
      N(C, EMPTY) = M(gamma C), N(C, C) = N_C + M_C and
      N(C, B_x C) = L(B_x C) + M(gamma C), and N_EMPTY = M(e_z) at the
      source z of gamma_x.  A term outside its family raises ``NotAPair``;
      ``construct_N``, ``construct_L`` and ``construct_NCC`` check their
      term here first and build a degenerate one as the direct sum of its
      atoms;
    - ``lams``, the band parameters of the inventory and the rows, is
      ``lam_sample`` mod p then 1, zeros and repeats dropped, in order.
    """

    def __init__(self, calc: WordCalculus, field=None,
                 lam_sample=DEFAULT_LAMBDAS):
        self.calc = calc
        self.quiver = calc.quiver
        self.field = field if field is not None else PrimeField(DEFAULT_PRIME)
        self._bands = dict(calc.bands())
        self.lams = list(dict.fromkeys(
            lam for lam in map(self.field.red, (*lam_sample, 1)) if lam))

    # -- assembly helpers ----------------------------------------------------

    def _skeleton(self, word: StringWord, tag: tuple, vertex_labels, entries,
                  band: bool = False):
        """Lay out one word's positions and generic arrow action.

        Positions run over the I-set [0, n] for strings and the J-set
        [0, n-1] for bands.  Position i is labelled ``tag + (i,)``.
        """
        letters, primed = word.letters, self.quiver.primed
        vertices = [self.quiver.t_star[c] for c in letters]
        if not band:
            vertices.append(self.calc.source(word))
        for i, v in enumerate(vertices):
            vertex_labels.setdefault(v, []).append(tag + (i,))
        for k in range(len(vertices) - 1):
            c, lo, hi = letters[k], tag + (k,), tag + (k + 1,)
            entries.setdefault(c, []).append(
                (lo, hi, 1) if c in primed else (hi, lo, 1))

    def _assemble(self, vertex_labels, entries) -> Representation:
        q = self.quiver
        where = {l: (v, k) for v, labels in vertex_labels.items()
                 for k, l in enumerate(labels)}
        by_arrow = {}
        for a, triples in entries.items():
            ends, out = (q.source[a], q.target[a]), []
            for tgt, src, coef in triples:
                (vs, col), (vt, row) = where[src], where[tgt]
                if (vs, vt) != ends:
                    raise ConsistencyError(
                        f"arrow {a} does not join labels {src} and {tgt}")
                out.append((row, col, coef))
            by_arrow[a] = out
        return Representation.from_entries(q, self.field, vertex_labels,
                                           by_arrow)

    # -- the six families ------------------------------------------------------

    def construct_M(self, word) -> Representation:
        if word is EMPTY:
            return zero_representation(self.quiver, self.field)
        if not isinstance(word, StringWord):
            raise NotAString(f"not a string: {word!r}")
        ok, why = self.calc.check_string(word.letters)
        if not ok:
            raise NotAString(why)
        vertex_labels, entries = {}, {}
        self._skeleton(word, ("v",), vertex_labels, entries)
        return self._assemble(vertex_labels, entries)

    def construct_N(self, x: str, word) -> Representation:
        atoms = self.canon_N(x, word)
        if atoms[0][0] != "N":
            return self._sum_of_atoms(atoms)
        return self._glued(x, (word,), with_vpp=True)

    def construct_L(self, x: str, word: StringWord) -> Representation:
        self.canon_L(x, word)
        return self._glued(x, (word,), with_vpp=False)

    def construct_NCC(self, x: str, c, cp) -> Representation:
        atoms = self.canon_NCC(x, c, cp)
        if atoms[0][0] != "NCC":
            return self._sum_of_atoms(atoms)
        return self._glued(x, (c, cp), with_vpp=True)

    def _glued(self, x: str, words, with_vpp: bool) -> Representation:
        """N, L and N(C, C'): the skeletons of ``words`` tagged v and vq, v'
        sent to by position p|B_x| of each word for p <= p_x(word), and for
        N and N(C, C') v'' sending to v_0 along gamma_x."""
        calc, q = self.calc, self.quiver
        vertex_labels, entries, anchors = {}, {}, []
        blen = calc.band_of(x).length
        for tag, w in zip(("v", "vq"), words):
            self._skeleton(w, (tag,), vertex_labels, entries)
            anchors += [(tag, p * blen) for p in range(calc.p_count(w, x) + 1)]
        self._glue_vp(x, anchors, vertex_labels, entries)
        if with_vpp:
            gamma = q.gamma_of(x)
            vertex_labels.setdefault(q.source[gamma], []).insert(0, ("vpp",))
            entries.setdefault(gamma, []).append((("v", 0), ("vpp",), 1))
        return self._assemble(vertex_labels, entries)

    def _glue_vp(self, x: str, anchors, vertex_labels, entries):
        """Add v' at the target of alpha_x, which sends each anchor to v'."""
        alpha = self.quiver.alpha_of(x)
        vertex_labels.setdefault(self.quiver.target[alpha], []).insert(
            0, ("vp",))
        entries.setdefault(alpha, []).extend(
            (("vp",), a, 1) for a in anchors)

    def _band_skeleton(self, band: StringWord, m: int, lam: int):
        """m copies of the band word coupled through the closing letter."""
        n = band.length
        closing = band.letters[-1]
        if closing in self.quiver.primed:
            raise ConsistencyError("band must close on a reversed letter")
        vertex_labels, entries = {}, {}
        for j in range(1, m + 1):
            self._skeleton(band, ("vb", j), vertex_labels, entries, band=True)
            entries.setdefault(closing, []).append(
                (("vb", j, 0), ("vb", j, n - 1), lam))
            if j < m:
                entries.setdefault(closing, []).append(
                    (("vb", j + 1, 0), ("vb", j, n - 1), 1))
        return vertex_labels, entries

    def construct_R(self, band: StringWord, lam: int, m: int) -> Representation:
        lam = self.field.red(lam)
        if lam == 0:
            raise LambdaZero("lambda must be a unit")
        if m < 0:
            raise NotABand("m must not be negative")
        if m == 0:
            return zero_representation(self.quiver, self.field)
        vertex_labels, entries = self._band_skeleton(band, m, lam)
        return self._assemble(vertex_labels, entries)

    def construct_Qband(self, x: str, m: int) -> Representation:
        if x not in self.quiver.q0_doubleprimed():
            raise NotABand(f"{x} is not in Q0''")
        if m < 1:
            raise NotABand("m must be positive")
        band = self.calc.band_of(x)
        vertex_labels, entries = self._band_skeleton(band, m, 1)
        self._glue_vp(x, [("vb", 1, 0)], vertex_labels, entries)
        return self._assemble(vertex_labels, entries)

    # -- atoms and the family conventions -----------------------------------

    def atom(self, key) -> Representation:
        """The module of an atom: the one map from a key to a module."""
        tag, word = key[0], self.calc.from_key
        if tag == "M":
            return self.construct_M(word(key[1]))
        if tag == "N":
            return self.construct_N(key[1], word(key[2]))
        if tag == "L":
            return self.construct_L(key[1], word(key[2]))
        if tag == "NCC":
            return self.construct_NCC(key[1], word(key[2]), word(key[3]))
        if tag == "R":
            return self.construct_R(self._bands[key[1]], key[2], key[3])
        if tag == "Qband":
            return self.construct_Qband(key[1], key[2])
        raise ValueError(key)

    def atom_dim(self, atom) -> int:
        """The total dimension of the module of an atom, read off the key."""
        tag = atom[0]
        if tag == "M":
            return len(atom[1][0]) + 1
        if tag == "N":
            return len(atom[2][0]) + 3
        if tag == "L":
            return len(atom[2][0]) + 2
        if tag == "NCC":
            return len(atom[2][0]) + len(atom[3][0]) + 4
        if tag == "R":
            return atom[3] * self._bands[atom[1]].length
        if tag == "Qband":
            return atom[2] * self._bands[atom[1]].length + 1
        raise ValueError(atom)

    def _sum_of_atoms(self, atoms) -> Representation:
        return direct_sum_of(self.quiver, self.field,
                             [self.atom(a) for a in atoms])

    def canon_M(self, w):
        if w is EMPTY:
            return ()
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
        if cp is EMPTY:
            return self.canon_M(calc.word((gamma,) + c.letters))
        if not (calc.in_s_x(c, x) and calc.in_s_x(cp, x)):
            raise NotAPair(f"pair outside S_x: ({c}, {cp}) at {x}")
        if wkey(c) == wkey(cp):
            return (("N", x, wkey(c)), ("M", wkey(c)))
        bx = calc.band_of(x)
        if not bx.is_trivial:
            bxc = StringWord(bx.letters + c.letters)
            if wkey(cp) == wkey(bxc):
                return (("L", x, wkey(bxc)),) + self.canon_M(
                    calc.word((gamma,) + c.letters))
            if calc.compare(cp, bxc) > 0:
                raise NotAPair(
                    f"pair violates C' < B_x C: ({c}, {cp}) at {x}")
        if calc.compare(c, cp) > 0:
            raise NotAPair(f"pair out of order: ({c}, {cp}) at {x}")
        return (("NCC", x, wkey(c), wkey(cp)),)

    def canon_R(self, band_name, lam, m):
        if band_name not in self._bands or m < 0:
            raise NotABand(f"R-term outside its family: {band_name}, m = {m}")
        lam = self.field.red(lam)
        if lam == 0:
            raise LambdaZero("lambda must be a unit")
        return (("R", band_name, lam, m),) if m else ()

    def canon_Qb(self, x, m):
        if x not in self.quiver.q0_doubleprimed() or m < 0:
            raise NotABand(f"Q_band term outside its family: {x}, m = {m}")
        return (("Qband", x, m),) if m else ()

    # -- the bounded inventory ---------------------------------------------------

    def theorem_inventory(self, bound: int):
        """All classification entries of total dimension <= bound, each
        built by ``atom`` from its key and sorted by the key's repr.

        The band parameter runs over ``lams`` (the theorem's family carries
        every unit; 1 is included for every band so the tube mouths
        referenced by the almost-split-sequence rows are present).

        The entries' modules share one ``pending`` group, so the first
        ``homlab.is_indecomposable`` call on any of them certifies them all
        in one ``homlab.hom_spaces`` stream; building the inventory solves
        no Hom system.  A negative ``bound`` raises ValueError.
        """
        if bound < 0:
            raise ValueError(f"bound must be nonnegative, got {bound}")
        calc, q, wkey = self.calc, self.quiver, self.calc.word_key
        keys = [("M", wkey(w)) for w in calc.all_strings(bound - 1)]
        for x in q.q0_primed():
            keys += [("N", x, wkey(w)) for w in calc.s_x(x, bound - 3)]
        for x in q.q0_doubleprimed():
            bx = calc.band_of(x)
            keys += [("L", x, wkey(StringWord(bx.letters + w.letters)))
                     for w in calc.s_x(x, bound - 2 - bx.length)]
        for x in q.q0_primed():
            keys += [("NCC", x, wkey(c), wkey(cp))
                     for c, cp in calc.pairs_p_x(x, bound - 4)]
        for name, band in self._bands.items():
            keys += [("R", name, lam, m)
                     for m in range(1, bound // band.length + 1)
                     for lam in self.lams]
        for x in q.q0_doubleprimed():
            top = (bound - 1) // self._bands[x].length
            keys += [("Qband", x, m) for m in range(1, top + 1)]
        entries = [InventoryEntry(k[0], k[1:], self.atom(k)) for k in keys]
        entries.sort(key=lambda e: repr(e.key))
        group = tuple(e.rep for e in entries)
        for M in group:
            M.pending = group
        return entries
