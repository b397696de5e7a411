"""Exact homological machinery: Hom spaces, endomorphism analysis, short
exact sequences, and the Auslander-Reiten translate.

Module maps f: M -> N are dicts vertex -> matrix (dim N_v x dim M_v).  The
intertwiner system f_t M_a = N_a f_s is solved exactly over the prime field;
everything downstream (endomorphism certification, cokernels, DTr) is built
from that one solver.

A string or band module is zero at most vertices (on the 20-vertex worked
example, 6.6 of 20 on average), so every per-module loop runs over the
support that ``Representation`` fixes when it is built: its nonzero
vertices and the arrows between them.  Off the support a map still has a
matrix at every vertex, with a zero-size side; an unknown f_v exists only
where M_v and N_v are both nonzero, an equation only on an arrow from the
support of M to the support of N, and Hom(M, N) = 0 at once when the two
supports do not meet.  Kernels, cokernels, radicals, projective covers and
the quotients of DTr are taken on the support only.

The system is sparse: the arrow maps of string and band modules have few
nonzero entries, and Hom between string modules is spanned by graph maps
(Crawley-Boevey, J. Algebra 126, 1989), so 91 to 94% of the equations in
the three benchmark workloads have one or two terms.  ``_hom_kernel`` builds
the equations arrow by arrow from the nonzero entries of M_a and N_a only,
the unknowns being vec_col(f_v) stacked in vertex order, reduces them in one
``PrimeField.rref_sparse`` call and reads the kernel with
``null_space_from_rref``, one row of a k x (number of unknowns) array per
basis vector.  So its basis is the one ``PrimeField.null_space`` reads from
the RREF of the dense Kronecker matrix of the same equations, by
construction, and bases, isomorphisms and certificates do not depend on how
the system was reduced.

``hom_spaces`` solves a batch of systems in chunks of at most
``_CHUNK_UNKNOWNS`` unknowns, each in one array pass, with the unknowns of
its systems offset into one index space.  The terms (equation, unknown,
coefficient) are expanded from the nonzero entries of the module buffers
and grouped by equation with ``bincount``.  A one-term row zeroes its
unknown, and a two-term row ties the smaller unknown to the larger by
r = -b/a, the inverse taken as a^(p-2) entrywise.  ``_merge`` joins the
classes by label propagation with pointer jumping: each round hooks every
root onto the largest root that a tie joins it to, and the jumps multiply
the weights mod p, the inverse weights alongside, so no inverse is taken in
the loop.  Roots only grow, so the root of a class is again its largest
unknown.  Every tie is then checked against the final weights: a cycle
that disagrees, a self-tie a x_c + b x_c = 0 with a + b != 0 (on a loop), or
a zeroed member zeroes the whole class.  The rows of three or more terms,
rewritten in the roots, go through one ``rref_sparse`` call for the whole
chunk, also those that fall to one or two roots: their unknowns are offset
apart and no row mixes two systems, so, as in ``_reduce_blocks``, each
system gets its own RREF.  The kernel is read in the roots and spread back
by the weights, one row per free root r: weight[c] at each member c of r's
class, and -row[r] weight[c] at each member c of a pivot root whose row
has r.

That is the basis ``null_space`` reads, entry for entry.  ``null_space``
gives one vector per free column f, 1 at f, 0 at every other free column,
and nonzero elsewhere only at pivots left of f (a pivot row has its pivot
as smallest column): each vector is 1 at its largest nonzero column and 0
at the others', and only one basis of the kernel has that shape (two
vectors with one largest column differ by a kernel vector that is 0 at
every such column, hence 0).  The vector read out for a free root r has it
too: it lives on r's class, whose largest unknown is r with weight 1, and
on the classes of pivot roots below r, and every other free root is the
root of another class.

Every Hom system enters through ``hom_spaces``.  It solves a batch of fewer
than ``_BATCH_UNKNOWNS`` unknowns system by system with ``_hom_kernel`` and
passes a larger one as arrays; the comment on the constant gives the costs.
Either way Hom(M, N) comes back as one read-only kernel array, so the views
of ``hom_basis`` into it and the lemma memo of ``vsc.measure_pattern`` share
it without a copy.

Isomorphism is decided without random numbers.  Two invariants settle most
pairs with equal dimension vectors before any Hom system is solved: dim
End(M), and the ranks of the arrow maps of M on its support (an isomorphism
g turns M_a into g_t M_a g_s^-1).  Both are read from the module's maps,
never from its key, and they are used only once recorded: dim End(M) when
``is_indecomposable`` has solved End(M), the ranks on first use after that.
A module without a recorded dim End takes the Hom route below, and no
invariant is solved for on its behalf.  Otherwise ``find_iso`` first returns
the first Hom(M, N) basis element f_i that is invertible at every vertex.
When End(N) is LOCAL that scan is complete: if h = sum c_i f_i is an
isomorphism with inverse sum d_j g_j, then id = sum c_i d_j f_i g_j, so some
f_i g_j is a unit of the local ring End(N), f_i is split epi, and with equal
dimension vectors f_i is an isomorphism; the same holds with End(M) LOCAL
and g_j f_i (Auslander-Reiten-Smalo, Representation Theory of Artin
Algebras, 1995).  LOCAL is read from the modules themselves, never promised
by a caller: ``is_indecomposable`` records its verdict on the module, and
after a failed scan ``find_iso`` answers "not isomorphic" when M or N
carries a LOCAL verdict.  Otherwise it certifies N, once, and a LOCAL N
again ends the search.  Only a certified N that is not LOCAL is split into
LOCAL summands on the idempotents ``is_indecomposable`` exhibits, and the
summands are grouped up to isomorphism.  For a group of m copies of Z with
End(Z)/rad = k, the pairing Hom(Z, M) x Hom(M, Z) -> k that sends (g, f)
to the single eigenvalue of f g has rank the multiplicity of Z in M, so
M = N iff every group's pairing has rank >= m.  Then m independent columns
f_1, ..., f_m, each sent onto one copy of Z in N, make M -> N split epi on
every group; maps between non-isomorphic summands lie in the radical, so
the sum over the groups is an isomorphism, and it is checked before it is
returned.

The AR translate DTr M is read from a minimal projective presentation
P1 --d--> P0 --h--> M -> 0 (Auslander-Reiten-Smalo, Ch. IV), built from one
projective cover.  The generators of each cover are kept as one matrix per
vertex, a generator per column.  The cover h sends one summand P(v) of P0
to each top generator x of M at v, a unit vector of M_v outside rad M_v
(the span of the arrow images into v), and the basis path p of that
summand to p x.  K = ker h is kept in P0 coordinates, K_u the null space of
h_u, read from the RREF of h_u that the cover takes to check that h is
onto.  It is a submodule, so rad K_u is the span of the P0_a K_s over the
arrows a: s -> u, and the columns of K_u that are pivots of
[rad K_u | K_u] are a basis of (K / rad K)_u.  They are the P1 generators:
each is a vector of P0_u, the image under d of the trivial path of its
summand P(u), and its coordinates over the basis paths of the summands of
P0 are the entries of d as a matrix over A, which Tr transposes.  At each
vertex w, Hom(d, A) left-multiplies the basis paths w -> v of each summand
e_v A of Hom(P0, A) by those entries, each product taken from
``AlgebraBasis.multiply``; the sums are reduced mod p once per vertex,
before the cokernel.  Two checks stand in for the second cover that this
saves: h vanishes on every P0_a K_s, and the images of the generators under
the basis paths span K at every vertex (Nakayama's lemma says they must).

Each elimination a module needs at its vertices or arrows, for the
cokernels, the top generators, the cover's rank check and kernel, the P1
generators and the arrow ranks of ``find_iso``, is one ``rref_sparse``
call with the matrices of all vertices in disjoint columns
(``_reduce_blocks``): no row mixes two vertices, so every vertex gets its
own RREF.

Indecomposability is certified as End(M) = k id + rad, that is LOCAL.  When
p > d = dim M, the trace form decides it first (Dickson's criterion;
Curtis-Reiner, Representation Theory of Finite Groups and Associative
Algebras, 1962).  Let A = End(M) inside M_d(k) and I = {a in A : tr(a b) = 0
for all b in A}, an ideal.  For a in I, tr(a^n) = tr(a a^(n-1)) = 0 for
every n >= 1, since id lies in A; Newton's identities divide by 1, ..., d,
all units when p > d, so every coefficient of the charpoly of a below t^d
vanishes and a is nilpotent.  So I is a nil ideal and lies in rad A;
conversely a in rad A makes every a b nilpotent, of trace 0.  Hence I = rad
A, the Gram matrix G_ij = tr(f_i f_j) of an End basis has rank dim A/rad A,
and M is LOCAL iff that rank is 1.  A rank >= 2 leaves M not LOCAL, and the
route below finds the idempotent or the field obstruction.  When p <= d, as
over GF(2) and GF(3) for all but the smallest modules, the trace form can
vanish on A/rad A itself (tr id = d = 0 in k is the first case), and the
flag alone decides.

Without the trace form, or past it, LOCAL is decided thus.  Over the
perfect field GF(p) every f in End(M) is s + n, s semisimple and n
nilpotent, both polynomials in f (Jordan-Chevalley), so for q the least
power of p with q >= d, f^q = s^q + n^q = s^q.  Hence f = l id + n exactly
when f^q = l id: if f^q = l id, every eigenvalue c of s has c^q = l, and
the Frobenius map x -> x^q is injective on the algebraic closure and fixes
l in GF(p), so c = l and s = l id (von zur Gathen-Gerhard, Modern Computer
Algebra, Ch. 14).  One stacked power of the End basis f_j gives every
scalar part l_j at every prime; then End(M) = k id + span(n_j), n_j = f_j -
l_j, and End(M) is LOCAL iff the n_j generate a nilpotent algebra A.  The
flag V_0 = k^d, V_(i+1) = sum_j n_j V_i decides this within d steps, one
stacked product and one elimination each.  If some V_m = 0, every product
of m shifts vanishes, so A is nilpotent, End(M) = k id + A is local and A
is its radical.  Conversely, if End(M) is local, every n_j lies in rad, and
rad^d = 0 (a nilpotent algebra of d x d matrices is simultaneously
triangularizable: Levitzki; Radjavi-Rosenthal, Simultaneous
Triangularization, 2000), so V_d lies in rad^d k^d = 0.  The flag only
descends, so a step that keeps the rank has stalled at a nonzero subspace
and End(M) is not local; only then are products of the shifts searched for
a non-nilpotent one, whose Fitting decomposition gives the idempotent.

The first basis element f that is not l id + nilpotent, and only that one,
goes to ``factor_charpoly`` for the certificate, which reads from its
charpoly c what the verdict needs, with no factorization.  A root l of c,
found by evaluating c at every element of GF(p) at once, gives the Fitting
idempotent of f - l, which is not nilpotent, and M is DECOMPOSABLE.
Without a root, u = f^q for a power q >= d of p generates k[f]/rad, a
product of one field k[t]/(g_i) per distinct irreducible factor g_i of c,
and the fixed space of x -> x^p on k[u] has one dimension per g_i
(Berlekamp).  One g_i, the minimal polynomial of u, is FIELD_OBSTRUCTION;
with more, a fixed x outside k id has its eigenvalues in GF(p), and the
Fitting idempotent of x - l splits M.  Idempotents are found on the total
matrix, whose Fitting projection is block-diagonal: its blocks are the
per-vertex maps of the certificate.
"""

import itertools

import numpy as np

from .defining_system import check_bound
from .string_modules import (ConsistencyError, Representation,
                             block_diagonal, check_relations, direct_sum_of,
                             zero_size_block)


class ProjectiveSummand(ValueError):
    pass


class NotRealizable(RuntimeError):
    pass


# -- hom spaces ---------------------------------------------------------------


def _hom_unknowns(M: Representation, N: Representation):
    """For each vertex v in both supports, (offset of vec_col(f_v) among the
    unknowns of Hom(M, N), dim N_v, dim M_v); and the number of unknowns.
    Off the common support f_v has a zero-size side and no unknowns."""
    blocks, total = {}, 0
    for v in M.support:
        n = N.dim(v)
        if n:
            m = M.dim(v)
            blocks[v] = (total, n, m)
            total += n * m
    return blocks, total


_NO_BLOCK = (0, 0, 0)


def _hom_arrows(M: Representation, N: Representation):
    """The arrows s -> t with M_s and N_t nonzero: on every other arrow the
    equation f_t M_a = N_a f_s has a zero-size side."""
    q = M.quiver
    for s in M.support:
        for a in q.out_arrows[s]:
            if N.dim(q.target[a]):
                yield a


def _hom_kernel(M: Representation, N: Representation, blocks, total: int):
    """Hom(M, N) for ``hom_spaces`` from its blocks and number of unknowns:
    the kernel basis of the equations f_t M_a - N_a f_s = 0 that
    ``PrimeField.null_space_from_rref`` reads from one ``rref_sparse`` call,
    as the rows of one read-only k x ``total`` array, and the blocks.

    Entry (i, j) of arrow a reads sum_k f_t[i, k] M_a[k, j] -
    sum_l N_a[i, l] f_s[l, j]; f_v[i, k] is unknown offset_v + i + k dim N_v.
    The rows go in by descending smallest unknown: along a chain of ties
    each row then meets the rows after it already reduced, and no pivot row
    is rewritten, where ascending order clears each new pivot from every
    row before it.
    """
    F = M.field
    p = F.p
    rows = []
    q, m_maps, n_maps = M.quiver, M.maps, N.maps
    for arrow in _hom_arrows(M, N):
        os_, ns, _ = blocks.get(q.source[arrow], _NO_BLOCK)
        ot, nt, _ = blocks.get(q.target[arrow], _NO_BLOCK)
        # m_cols[j] pairs (unknown of f_t[0, k], M_a[k, j]), n_rows[i] pairs
        # (unknown of f_s[l, 0], -N_a[i, l]), over the nonzero entries; a
        # vertex without a block has no entries on its side
        m_cols = [[(ot + k * nt, c) for k, c in enumerate(col) if c]
                  for col in m_maps[arrow].T.tolist()]
        n_rows = [[(os_ + l, p - c) for l, c in enumerate(row) if c]
                  for row in n_maps[arrow].tolist()]
        for j, m_col in enumerate(m_cols):
            shift = j * ns
            for i, n_row in enumerate(n_rows):
                if m_col or n_row:
                    row = {u + i: x for u, x in m_col}
                    for u, x in n_row:  # one unknown on both sides on a loop
                        row[u + shift] = row.get(u + shift, 0) + x
                    rows.append(row)
    rows.sort(key=min, reverse=True)
    pivots = F.rref_sparse(rows)
    kernel = F.null_space_from_rref(pivots.items(), total).T.copy()
    kernel.flags.writeable = False
    return kernel, blocks


def _check_pair(M: Representation, N: Representation):
    """ValueError unless M and N are modules over one field and over equal
    quivers (``Quiver`` equality: the same vertices and arrows)."""
    F, q, qn = M.field, M.quiver, N.quiver
    if F != N.field:
        raise ValueError(f"modules over different fields: {F}, {N.field}")
    if q is not qn and q != qn:
        raise ValueError("modules over different quivers")


# Below this many unknowns in all, ``hom_spaces`` solves each system alone
# (``_hom_kernel``).  Measured on 2 cores: a system of at most 64 unknowns
# takes 0.16 ms that way and 0.73 ms as one array pass, one of 128 to 511
# unknowns 1.3 ms and 0.85 ms.  No benchmark workload sends a system above 64
# unknowns this way, and it keeps the streams of one or a few systems, where
# a pass loses most, off the arrays: the 48 one-system streams of
# ex14-certify take 8 ms alone and 30 ms as passes.  A lower bound would win
# at most the 4 ms by which passes beat it on the 11 streams of ex14-rows
# (401 systems of 3.8 unknowns: 18 ms alone, 15 ms as passes), so 512
# stays (see CHANGES.md)
_BATCH_UNKNOWNS = 512
# The most unknowns one array pass takes, unless one system has more: it
# bounds the pass's arrays (at 4096, about 2 MB at their peak)
_CHUNK_UNKNOWNS = 4096


def hom_spaces(pairs):
    """Yield Hom(M, N) as the (kernel, blocks) of ``hom_space`` for each
    pair (M, N), in order; every Hom system of the package is solved here.

    A batch of fewer than ``_BATCH_UNKNOWNS`` unknowns in all is solved
    system by system, one sparse elimination each (``_hom_kernel``).  A
    larger one is split, in order, into chunks of at most
    ``_CHUNK_UNKNOWNS`` unknowns over one field and equal quivers (two
    quivers built alike are one, see ``Quiver``), and each chunk is solved
    in one array pass (``_hom_batch``, see the module docstring), to the
    same arrays.  Only one chunk's kernels are held at a time, beyond those
    the caller keeps."""
    systems = []
    for M, N in pairs:
        _check_pair(M, N)
        systems.append((M, N, *_hom_unknowns(M, N)))
    if sum(s[3] for s in systems) < _BATCH_UNKNOWNS:
        for s in systems:
            yield _hom_kernel(*s)
        return
    chunk, size = [], 0
    for s in systems:
        M = s[0]
        if chunk and (size + s[3] > _CHUNK_UNKNOWNS or M.quiver !=
                      chunk[0][0].quiver or M.field != chunk[0][0].field):
            yield from _hom_batch(chunk)
            chunk, size = [], 0
        chunk.append(s)
        size += s[3]
    if chunk:
        yield from _hom_batch(chunk)


def hom_space(M: Representation, N: Representation):
    """Hom(M, N), the one-pair case of ``hom_spaces``: (kernel, blocks).

    ``kernel`` is the read-only k x (number of unknowns) array of the
    reduced kernel basis, one basis map per row; ``blocks`` maps each
    vertex v of the common support to (offset, dim N_v, dim M_v), and row i
    holds vec_col(f_v) at that offset.  Off the common support every f_v is
    0.  ValueError for modules over different fields or quivers."""
    return next(hom_spaces([(M, N)]))


def _inverses(x: np.ndarray, p: int) -> np.ndarray:
    """x^(p - 2) mod p entrywise: the inverse of each nonzero entry."""
    out = np.ones_like(x)
    e = p - 2
    while e:
        if e & 1:
            out = out * x % p
        x = x * x % p
        e >>= 1
    return out


def _runs(counts: np.ndarray):
    """For the concatenation of range(n) over n in ``counts``: the run of
    each position and its index within the run."""
    run = np.repeat(np.arange(len(counts)), counts)
    return run, np.arange(len(run)) - (np.cumsum(counts) - counts)[run]


def _batch_terms(systems):
    """The terms (equation, unknown, coefficient, its inverse) of the
    systems (M, N, blocks, total) of one chunk, with the unknowns of each
    system offset past those of the systems before it; also the number of
    equations and each system's number of unknowns.

    Every module's entries are read from its buffer at once: the buffers
    side by side are one segment per (module, arrow), empty off the module's
    support arrows.  An entry M_a[r, c] of arrow a: s -> t is the term
    f_t[i, r] M_a[r, c] of equation (i, c) for every i < dim N_t, and
    N_a[r, c] gives -N_a[r, c] f_s[c, j] in equation (r, j) for every
    j < dim M_s.  Equation (i, j) of a is number i + j dim N_t of its arrow.
    """
    M0 = systems[0][0]
    q, p = M0.quiver, M0.field.p
    vid = q.vindex
    src = np.array([vid[q.source[a]] for a in q.arrows], dtype=np.int64)
    tgt = np.array([vid[q.target[a]] for a in q.arrows], dtype=np.int64)
    slot, mods = {}, []
    for M, N, _, _ in systems:
        for X in (M, N):
            if id(X) not in slot:
                slot[id(X)] = len(mods)
                mods.append(X)
    dims = np.array([X.dims for X in mods], dtype=np.int64).reshape(
        len(mods), len(vid))
    seg = (dims[:, tgt] * dims[:, src]).reshape(-1)
    ends = np.cumsum(seg)
    flat = np.concatenate([X.buffer for X in mods])
    # each nonzero entry: its segment, so its module and arrow, and its row
    # and column in that arrow's map; the entries come module by module
    nz = np.flatnonzero(flat)
    in_seg = np.searchsorted(ends, nz, "right")
    e_mod, e_arrow = np.divmod(in_seg, len(src))
    e_row, e_col = np.divmod(nz - (ends - seg)[in_seg],
                             dims[e_mod, src[e_arrow]])
    e_val = flat[nz]
    e_inv = _inverses(e_val, p)
    e_count = np.bincount(e_mod, minlength=len(mods))
    e_start = np.cumsum(e_count) - e_count
    mi = np.array([slot[id(M)] for M, _, _, _ in systems], dtype=np.int64)
    ni = np.array([slot[id(N)] for _, N, _, _ in systems], dtype=np.int64)
    dm, dn = dims[mi], dims[ni]
    prod = dm * dn
    sizes = prod.sum(axis=1)
    offsets = (np.cumsum(sizes) - sizes)[:, None] + np.cumsum(prod, 1) - prod
    eqs = (dn[:, tgt] * dm[:, src]).reshape(-1)
    eq_base = (np.cumsum(eqs) - eqs).reshape(len(systems), -1)
    terms = []
    for from_m, mod in ((True, mi), (False, ni)):
        k, i = _runs(e_count[mod])
        e = e_start[mod][k] + i
        a = e_arrow[e]
        nt = dn[k, tgt[a]]
        run, x = _runs(nt if from_m else dm[k, src[a]])
        k, e, a, nt = k[run], e[run], a[run], nt[run]
        if from_m:  # x = i, and the entry is M_a[r, c]
            terms.append((eq_base[k, a] + x + e_col[e] * nt,
                          offsets[k, tgt[a]] + x + e_row[e] * nt,
                          e_val[e], e_inv[e]))
        else:  # x = j, and the entry is N_a[r, c]
            terms.append((eq_base[k, a] + e_row[e] + x * nt,
                          offsets[k, src[a]] + e_col[e] + x * dn[k, src[a]],
                          p - e_val[e], p - e_inv[e]))
    eq, unk, coef, inv = (np.concatenate(t) for t in zip(*terms))
    return eq, unk, coef, inv, int(eqs.sum()), sizes


def _row_starts(eq: np.ndarray):
    """The start and the length of each run of equal entries of ``eq``,
    whose entries are nonnegative."""
    starts = np.flatnonzero(eq != np.concatenate(([-1], eq[:-1])))
    return starts, np.diff(np.concatenate((starts, [len(eq)])))


def _combine(eq, col, coef, n: int, p: int):
    """The terms with one (equation, column) summed mod p, zero sums
    dropped, sorted by equation and then column; columns are below n."""
    key = eq * n + col
    order = np.argsort(key)
    key = key[order]
    starts, _ = _row_starts(key)
    total = (np.add.reduceat(coef[order], starts) % p if len(starts)
             else coef[:0])
    keep = total != 0
    eq, col = np.divmod(key[starts[keep]], n)
    return eq, col, total[keep]


def _merge(parent, weight, winv, lo, hi, r, r_inv, p: int):
    """Join the classes of each tie x_lo = r x_hi, in place.

    Every unknown c points at its root, x_c = weight[c] x_parent[c], and
    winv[c] is 1 / weight[c].  Each round hooks every root that a tie joins
    to a larger root onto the largest such root, through one of those ties,
    and then jumps pointers until every unknown points at its root again.
    Roots only grow, so the root of a class is its largest unknown.
    """
    n = len(parent)
    while len(lo):
        rl, rh = parent[lo], parent[hi]
        live = rl != rh
        if not live.any():
            return
        lo, hi, r, r_inv, rl, rh = (x[live] for x in (lo, hi, r, r_inv,
                                                      rl, rh))
        # weight[lo] x_rl = r weight[hi] x_rh
        up = rl < rh
        down = r * weight[hi] % p * winv[lo] % p  # x_rl over x_rh
        back = r_inv * winv[hi] % p * weight[lo] % p  # x_rh over x_rl
        m = len(lo)
        pick = np.full(n, -1, dtype=np.int64)  # larger root * m + tie
        np.maximum.at(pick, np.where(up, rl, rh),
                      np.where(up, rh, rl) * m + np.arange(m))
        hooked = np.flatnonzero(pick >= 0)
        onto, tie = np.divmod(pick[hooked], m)
        parent[hooked] = onto
        weight[hooked] = np.where(up, down, back)[tie]
        winv[hooked] = np.where(up, back, down)[tie]
        while True:
            moved = np.flatnonzero(parent[parent] != parent)
            if not len(moved):
                break
            up_ = parent[moved]
            weight[moved] = weight[moved] * weight[up_] % p
            winv[moved] = winv[moved] * winv[up_] % p
            parent[moved] = parent[up_]


def _hom_batch(systems) -> list:
    """``hom_space`` of each system (M, N, blocks, total) of one chunk, in
    one array pass over all of them: the two-term rows merged as ties and
    then checked, and the longer rows, rewritten in the roots, through one
    ``rref_sparse`` call (see the module docstring)."""
    F = systems[0][0].field
    p = F.p
    eq, unk, coef, inv, n_eq, sizes = _batch_terms(systems)
    n = int(sizes.sum())
    count = np.bincount(eq, minlength=n_eq)
    row_len = count[eq]  # the number of terms of each term's row
    zero = np.zeros(n, dtype=bool)  # read at roots: the class is 0
    zero[unk[row_len == 1]] = True
    # a two-term row's first term by index, and its other one from the sum
    # of the two indices
    two = np.flatnonzero(row_len == 2)
    rows2 = np.flatnonzero(count == 2)
    first = np.full(n_eq, len(eq), dtype=np.int64)
    np.minimum.at(first, eq[two], two)
    t1 = first[rows2]
    t2 = np.bincount(eq[two], weights=two, minlength=n_eq)[rows2].astype(
        np.int64) - t1
    c, a, a_inv = unk[t1], coef[t1], inv[t1]
    d, b, b_inv = unk[t2], coef[t2], inv[t2]
    loop = c == d  # a x_c + b x_c = 0, on a loop arrow
    zero[c[loop & ((a + b) % p != 0)]] = True
    c, a, a_inv, d, b, b_inv = (x[~loop] for x in (c, a, a_inv, d, b, b_inv))
    swap = c > d
    lo, hi = np.where(swap, d, c), np.where(swap, c, d)
    r = (p - np.where(swap, a, b)) * np.where(swap, b_inv, a_inv) % p
    r_inv = (p - np.where(swap, b, a)) * np.where(swap, a_inv, b_inv) % p
    parent = np.arange(n)
    weight = np.ones(n, dtype=np.int64)
    winv = np.ones(n, dtype=np.int64)
    _merge(parent, weight, winv, lo, hi, r, r_inv, p)  # x_lo = r x_hi
    zero[lo[weight[lo] != r * weight[hi] % p]] = True  # a cycle disagrees
    zero_root = np.zeros(n, dtype=bool)
    zero_root[parent[zero]] = True
    weight[zero_root[parent]] = 0
    # the rows of three or more terms, in the roots of their live unknowns;
    # no row mixes two systems, so each system gets its own RREF
    wide = row_len >= 3
    leq, col, co = eq[wide], unk[wide], coef[wide]
    live = weight[col] != 0
    leq, col, co = _combine(leq[live], parent[col[live]],
                            co[live] * weight[col[live]] % p, n, p)
    starts, length = _row_starts(leq)
    cols, vals = col.tolist(), co.tolist()
    rows = [dict(zip(cols[s:e], vals[s:e]))
            for s, e in zip(starts.tolist(), (starts + length).tolist())]
    pivot = np.zeros(n, dtype=bool)
    spread = []  # (pivot root, free root, minus its entry in the row)
    for pc, row in F.rref_sparse(rows).items():
        pivot[pc] = True
        spread += [(pc, f, p - x) for f, x in row.items() if f != pc]
    # the kernel: one row per free root f, weight[c] at the members c of f
    # and -row[f] weight[c] at the members of each pivot root whose row has
    # f; system i's k_i x total_i array is one slice of ``out``
    system = np.repeat(np.arange(len(systems)), sizes)
    free = np.flatnonzero((parent == np.arange(n)) & ~zero_root & ~pivot)
    bases = np.cumsum(sizes) - sizes
    first_free = np.searchsorted(free, bases)
    k = np.searchsorted(free, bases + sizes) - first_free
    row_of = np.full(n, -1, dtype=np.int64)
    row_of[free] = np.arange(len(free)) - first_free[system[free]]
    at = np.cumsum(k * sizes) - k * sizes
    out = np.zeros(int((k * sizes).sum()), dtype=np.int64)

    def place(c, rows, values):
        i = system[c]
        out[at[i] + rows * sizes[i] + c - bases[i]] = values

    c = np.flatnonzero(weight)
    c = c[row_of[parent[c]] >= 0]
    place(c, row_of[parent[c]], weight[c])
    if spread:
        pc, f, x = np.array(spread, dtype=np.int64).T
        c = np.flatnonzero(weight * pivot[parent])
        c = c[np.argsort(parent[c], kind="stable")]
        lo = np.searchsorted(parent[c], pc)
        run, i = _runs(np.searchsorted(parent[c], pc, "right") - lo)
        c = c[lo[run] + i]
        place(c, row_of[f[run]], x[run] * weight[c] % p)
    out.flags.writeable = False
    return [(out[s: s + k_ * total].reshape(k_, total), blocks)
            for (_, _, blocks, total), s, k_ in zip(systems, at.tolist(),
                                                     k.tolist())]


def transposed_blocks(kernel, block) -> np.ndarray:
    """The k x m x n stack of the transposes f_v^T of the basis maps at one
    vertex, read from its (offset, n, m) block of a Hom kernel array."""
    o, n, m = block
    return kernel[:, o: o + n * m].reshape(len(kernel), m, n)


def _basis_maps(M: Representation, N: Representation, kernel,
                blocks) -> list:
    """The rows of a Hom kernel array as per-vertex matrix dicts: views
    into the array on the common support, the shared zero-size block
    elsewhere."""
    template = {v: None if v in blocks else zero_size_block(n, m)
                for v, n, m in zip(M.quiver.vertices, N.dims, M.dims)}
    basis = [dict(template) for _ in range(len(kernel))]
    for v, block in blocks.items():
        for f, fvt in zip(basis, transposed_blocks(kernel, block)):
            f[v] = fvt.T
    return basis


def hom_basis(M: Representation, N: Representation) -> list:
    """Basis of Hom(M, N) as a list of per-vertex matrix dicts: the dict
    view of ``hom_space``.

    Every vertex has a matrix; off the common support it has a zero-size
    side, and Hom(M, N) = 0 at once when the supports do not meet."""
    return _basis_maps(M, N, *hom_space(M, N))


def compose_maps(F, f, g):
    """f after g, per vertex; a zero-size factor gives a zero block."""
    out = {}
    for v, a in f.items():
        b = g[v]
        out[v] = (F.mul(a, b) if a.size and b.size
                  else F.zeros(a.shape[0], b.shape[1]))
    return out

def map_add(F, f, g):
    return {v: F.add(f[v], g[v]) for v in f}

def identity_map(M: Representation):
    return {v: M.field.eye(n) if n else zero_size_block(0, 0)
            for v, n in zip(M.quiver.vertices, M.dims)}

def zero_map(M: Representation, N: Representation):
    F = M.field
    return {v: F.zeros(N.dim(v), M.dim(v)) for v in M.quiver.vertices}

def is_intertwiner(M, N, f) -> bool:
    F, m_maps, n_maps = M.field, M.maps, N.maps
    for a in _hom_arrows(M, N):
        s, t = M.quiver.source[a], M.quiver.target[a]
        if not F.is_zero(F.sub(F.mul(f[t], m_maps[a]),
                               F.mul(n_maps[a], f[s]))):
            return False
    return True


def total_matrices(M: Representation, maps) -> np.ndarray:
    """k x d x d stack of the block-diagonal matrices of k endomorphisms on
    the total space."""
    d = M.total_dim
    out = np.zeros((len(maps), d, d), dtype=np.int64)
    pos = 0
    for v in M.support:
        dv = M.dim(v)
        out[:, pos: pos + dv, pos: pos + dv] = [f[v] for f in maps]
        pos += dv
    return out


def total_matrix(M: Representation, f) -> np.ndarray:
    """Block-diagonal matrix of an endomorphism on the total space."""
    return total_matrices(M, [f])[0]


# -- powers, roots and the charpoly route ------------------------------------------


def _power(F, a, n: int) -> np.ndarray:
    """a^n for a square matrix, or for each of a k x d x d stack, by
    repeated squaring."""
    out = F.eye(a.shape[-1])
    while n:
        if n & 1:
            out = F.mul(out, a)
        n >>= 1
        if n:
            a = F.mul(a, a)
    return out


def _frobenius_power(F, a) -> np.ndarray:
    """a^q for the least q = p^j >= d, of a d x d matrix or of each of a
    k x d x d stack.  For a = s + n, s semisimple and n nilpotent, both
    polynomials in a, a^q = s^q + n^q = s^q: l for a = l + n, and in general
    a generator of F[a]/rad, since s^q is a Galois conjugate of s, with the
    same minimal polynomial.  Conversely, a^q = l id makes a = l + n: every
    eigenvalue c of s has c^q = l, and x -> x^q is injective on the
    algebraic closure and fixes l in GF(p), so c = l and s = l id."""
    q = F.p
    while q < a.shape[-1]:
        q *= F.p
    return _power(F, a, q)


def _roots(F, coeffs) -> np.ndarray:
    """The roots in GF(p) of an ascending-coefficient polynomial, in
    increasing order: Horner's rule at every element of GF(p) at once, on
    int64 arrays of p entries (0.25 MB at the default prime; the products
    stay below p^2 < 2^42)."""
    xs = np.arange(F.p, dtype=np.int64)
    values = np.zeros(F.p, dtype=np.int64)
    for c in reversed(coeffs):
        values = (values * xs + c) % F.p
    return np.flatnonzero(values == 0)


def is_nilpotent(F, mat) -> bool:
    """Whether a square n x n matrix m is nilpotent: m^(2^s) = 0 with
    2^s > n, by repeated squaring."""
    m = mat % F.p
    for _ in range(max(1, len(m)).bit_length()):
        if not m.any():
            return True
        m = F.mul(m, m)
    return not m.any()


def _generates_nilpotent(F, stack) -> bool:
    """Whether the k x d x d stack n_1, ..., n_k generates a nilpotent
    algebra: the flag V_0 = k^d, V_(i+1) = sum_j n_j V_i reaches 0.

    V_i is kept as the columns of a d x r basis; the rows of the (k r) x d
    transpose of n_j V_i span V_(i+1).  The flag only descends, so equal
    ranks mean it has stalled at a nonzero subspace.
    """
    d = stack.shape[-1]
    basis = F.eye(d)
    while basis.shape[1]:
        image = F.mul(stack, basis)
        reduced, pivots = F.rref(image.transpose(0, 2, 1).reshape(-1, d))
        if len(pivots) == basis.shape[1]:
            return False
        basis = reduced[:len(pivots)].T
    return True


def factor_charpoly(F, a):
    """What the charpoly c of a square matrix a says, found without
    factoring c (see the module docstring): an int l with a - l nilpotent,
    when c = (t - l)^d; a d x d nontrivial idempotent of F[a], when c has
    two coprime factors; or the monic irreducible g of degree >= 2 with
    c = g^m, as an ascending coefficient list.  ``_certify`` needs only the
    certificate, and calls it only on an element that is not scalar +
    nilpotent, so never gets the int.  The fixed space of x -> x^p counts
    the distinct factors (Berlekamp, Bell System Tech. J. 46, 1967; von zur
    Gathen-Gerhard, Modern Computer Algebra, Ch. 14)."""
    d = len(a)
    eye = F.eye(d)
    roots = _roots(F, F.charpoly(a))
    if len(roots):
        lam = int(roots[0])
        shift = (a - lam * eye) % F.p
        if is_nilpotent(F, shift):
            return lam
        return _fitting_idempotent(F, shift)
    u = _frobenius_power(F, a)
    powers = [eye]
    for _ in range(d):
        powers.append(F.mul(powers[-1], u))
    powers = np.array(powers)
    # the first k powers are a basis of F[u], and u^k = sum_i r_i u^i
    reduced, pivots = F.rref(powers.reshape(d + 1, -1).T)
    k = len(pivots)
    w, frobenius = _power(F, u, F.p), [eye]
    for _ in range(k - 1):
        frobenius.append(F.mul(frobenius[-1], w))
    # sum_i c_i u^i is fixed iff sum_i c_i (w^i - u^i) = 0, w = u^p
    moved = (np.array(frobenius) - powers[:k]) % F.p
    fixed = F.null_space(moved.reshape(k, -1).T)
    if fixed.shape[1] == 1:  # only k id
        return [int(-r) % F.p for r in reduced[:k, k]] + [1]
    x = np.tensordot(fixed[:, 1], powers[:k], 1) % F.p
    roots = _roots(F, F.charpoly(x))
    if not len(roots):
        raise ConsistencyError(
            "Frobenius-fixed element has no eigenvalue in GF(p)")
    return _fitting_idempotent(F, (x - int(roots[0]) * eye) % F.p)


# -- indecomposability ----------------------------------------------------------


class IndecVerdict:
    """The status of ``is_indecomposable`` and its certificate, immutable:
    setting either raises AttributeError, so one LOCAL verdict,
    ``_LOCAL``, is shared by every module that has it."""

    __slots__ = ("status", "certificate")
    LOCAL = "LOCAL"
    DECOMPOSABLE = "DECOMPOSABLE"
    FIELD_OBSTRUCTION = "FIELD_OBSTRUCTION"

    def __init__(self, status, certificate=None):
        object.__setattr__(self, "status", status)
        object.__setattr__(self, "certificate", certificate)

    def __setattr__(self, name, value):
        raise AttributeError(f"an IndecVerdict is immutable: {name}")

    def __delattr__(self, name):
        raise AttributeError(f"an IndecVerdict is immutable: {name}")

    def __repr__(self):
        return f"IndecVerdict({self.status})"

    def __eq__(self, other):
        return self.status == other if isinstance(other, str) else NotImplemented


_LOCAL = IndecVerdict(IndecVerdict.LOCAL)


def _fitting_idempotent(F, a) -> np.ndarray:
    """The projection onto Im a^d along Ker a^d, d = dim a: the Fitting
    idempotent, a polynomial in a, nontrivial when a is singular and not
    nilpotent.  When a is the block-diagonal total matrix of an
    endomorphism, so are a^d, its image, its kernel and the projection,
    whose blocks are the per-vertex Fitting idempotents."""
    d = len(a)
    power = _power(F, a, d)
    img = F.column_space(power)
    ker = F.null_space(power)
    basis = np.hstack([ker, img])
    if basis.shape[1] != d:
        raise ConsistencyError("Fitting decomposition failed")
    proj = F.zeros(d, d)
    proj[:, ker.shape[1]:] = img
    return F.mul(proj, F.inv_matrix(basis))


def _vertex_maps(M: Representation, total) -> dict:
    """The endomorphism of M whose total matrix is the block-diagonal
    ``total``: its diagonal blocks, in the order of ``total_matrices``."""
    out = {v: zero_size_block(0, 0) for v in M.quiver.vertices}
    pos = 0
    for v in M.support:
        dv = M.dim(v)
        out[v] = total[pos: pos + dv, pos: pos + dv]
        pos += dv
    return out


def _trace_form_rank(M: Representation, kernel, blocks) -> int:
    """Rank of the Gram matrix G_ij = tr(f_i f_j) of an End basis, given as
    the kernel array and blocks of ``hom_space(M, M)``.

    tr(f_i f_j) = sum_v sum_(a, b) f_i[v][a, b] f_j[v][b, a].  Column
    o + a + b n of the kernel holds f[v][a, b] for the block (o, n, n) of
    v, so one index permutation, a <-> b within each block, gives ``flat_t``
    whose row j holds f_j[v][b, a] there, and G = kernel flat_t^T: k x k,
    with inner length sum_v dim M_v^2, taken in slices under the overflow
    bound of ``PrimeField.mul`` and summed unreduced (``rank`` reduces).
    No product f_i f_j and no total matrix is formed.
    """
    F, step = M.field, M.field.max_inner
    flat_t = kernel[:, [o + b + a * n for o, n, _ in blocks.values()
                        for b in range(n) for a in range(n)]]
    return F.rank(sum(F.mul(kernel[:, lo: lo + step],
                            flat_t[:, lo: lo + step].T)
                      for lo in range(0, kernel.shape[1], step)))


def _certify(M: Representation, basis):
    """LOCAL / DECOMPOSABLE / FIELD_OBSTRUCTION for one endomorphism basis
    that neither its size nor the trace form has decided.

    Every element f is l id + nilpotent exactly when f^q = l id, read for
    the whole stack of total matrices from one ``_frobenius_power``.  The
    first element, in basis order, that is not goes to ``factor_charpoly``,
    which finds an idempotent or the field obstruction.  Once every element
    is scalar + nilpotent, End(M) is LOCAL iff the shifts generate a
    nilpotent algebra, which the flag decides; only a stalled flag pays for
    a Fitting idempotent.  Idempotents are found as total matrices and read
    back per vertex for the certificate.
    """
    F = M.field
    eye = F.eye(M.total_dim)
    totals = total_matrices(M, basis)
    powers = _frobenius_power(F, totals)
    lams = powers[:, 0, 0]
    outside = (powers != lams[:, None, None] * eye).any(axis=(1, 2))
    if outside.any():
        i = int(np.argmax(outside))
        found = factor_charpoly(F, totals[i])
        if isinstance(found, list):
            return IndecVerdict(IndecVerdict.FIELD_OBSTRUCTION,
                                (basis[i], found))
        return IndecVerdict(IndecVerdict.DECOMPOSABLE, _vertex_maps(M, found))
    shifts = (totals - lams[:, None, None] * eye) % F.p
    if _generates_nilpotent(F, shifts):
        return _LOCAL
    return IndecVerdict(IndecVerdict.DECOMPOSABLE,
                        _vertex_maps(M, _fitting_witness(F, shifts)))


def _fitting_witness(F, shifts) -> np.ndarray:
    """Fitting idempotent of a non-nilpotent product of the shifts, a
    k x d x d stack of total matrices.

    It is called only when the flag has stalled, so the shifts do not
    generate a nilpotent algebra, and some product of them is non-nilpotent
    (a multiplicative semigroup of nilpotent matrices spans a nilpotent
    algebra: Levitzki).  The search multiplies the generators into a
    spanning subset of the products of each length and returns on the first
    non-nilpotent one.
    """
    current = list(shifts)
    for _ in range(2 * shifts.shape[-1] + 2):
        nxt = []
        for g in shifts:
            for c in current:
                prod = F.mul(g, c)
                if F.is_zero(prod):
                    continue
                if not is_nilpotent(F, prod):
                    return _fitting_idempotent(F, prod)
                nxt.append(prod)
        if not nxt:
            break
        # keep a spanning subset so the product frontier cannot blow up
        flat = np.stack([m.reshape(-1) for m in nxt], axis=1) % F.p
        _, pivots = F.rref(flat)
        current = [nxt[i] for i in pivots]
    raise ConsistencyError("no non-nilpotent product of the shifts found")


def is_indecomposable(M: Representation) -> IndecVerdict:
    """Certify End(M) = k . id + nilpotents, or exhibit an idempotent.

    End(M) is read as the kernel array of ``hom_space(M, M)``, and
    ``_end_verdict`` decides from it.  The verdict is left on the module as
    ``M.indec`` and dim End(M) as ``M.end_dim``, for ``find_iso``, and a
    later call returns the recorded verdict.

    The first call certifies the module's ``pending`` group (every entry
    of a ``theorem_inventory``), or the module alone, such as a cokernel,
    a DTr or a direct sum: the group is dropped from every member, and the
    End systems of the uncertified ones go through one ``hom_spaces``
    stream, holding at most one chunk's arrays at a time.  A
    ``ConsistencyError`` from any member ends the pass and reaches that
    call; the members after it are certified alone when asked.

    dim End(M) = 1 is LOCAL, and when p > dim M the trace form decides
    LOCAL (Dickson, see the module docstring); only a module these leave
    open is unpacked into maps for ``_certify``.

    DECOMPOSABLE carries a nontrivial idempotent endomorphism.
    FIELD_OBSTRUCTION carries an element f and the monic irreducible g of
    degree >= 2 whose power is the charpoly of f.  Then k[f] is local with
    residue field k[t]/(g), a proper extension of k: End(M) is not k id +
    rad, and k[f] has no idempotent to split M with.
    """
    if M.is_zero():
        raise ValueError("the zero module is neither")
    if M.indec is None:
        todo = []
        for X in M.pending or (M,):
            X.pending = None
            if X.indec is None:
                todo.append(X)
        for X, space in zip(todo, hom_spaces((X, X) for X in todo)):
            _end_verdict(X, *space)
    return M.indec


def _end_verdict(M: Representation, kernel, blocks) -> IndecVerdict:
    """The verdict of ``is_indecomposable`` from End(M), given as the kernel
    array and blocks of ``hom_space(M, M)``; recorded on M as ``M.indec``,
    with dim End(M) as ``M.end_dim``."""
    if len(kernel) == 1 or (M.field.p > M.total_dim
                            and _trace_form_rank(M, kernel, blocks) == 1):
        verdict = _LOCAL
    else:
        verdict = _certify(M, _basis_maps(M, M, kernel, blocks))
    M.end_dim, M.indec = len(kernel), verdict
    return verdict


# -- isomorphism -----------------------------------------------------------------


class IsoVerdict:
    def __init__(self, isomorphic, certificate=None):
        self.isomorphic = isomorphic
        self.certificate = certificate

    def __bool__(self):
        return self.isomorphic


def _full_rank(F, f, M) -> bool:
    """f_v has rank dim M_v on M's support: f is injective on M, or onto M."""
    return all(F.rank(f[v]) == M.dim(v) for v in M.support)


def _arrow_ranks(M: Representation) -> tuple:
    """The ranks of the support-arrow maps of M, in ``support_arrows``
    order, from one elimination; computed once and kept on the module."""
    if M.arrow_ranks is None:
        maps = M.maps
        reduced = _reduce_blocks(M.field,
                                 {a: maps[a] for a in M.support_arrows})
        M.arrow_ranks = tuple(len(rows) for rows in reduced.values())
    return M.arrow_ranks


def find_iso(M: Representation, N: Representation):
    """An explicit isomorphism M -> N, or None if M and N are not isomorphic.

    When both modules carry a recorded dim End (``is_indecomposable`` has
    solved it), M and N with different dim End or different arrow-map ranks
    are not isomorphic, and no Hom system is solved.  Otherwise the Hom(M,
    N) basis is scanned for a map invertible at every vertex.  A failed
    scan answers "not isomorphic" when M or N carries a LOCAL verdict, or
    when N, certified by ``is_indecomposable`` (once: the verdict is kept on
    N), is LOCAL.  Only a certified N that is not LOCAL is split into LOCAL
    summands (Krull-Schmidt), which raises ValueError on a summand that is
    not LOCAL over the working field.  Modules over different fields or
    quivers raise ValueError before any answer, zero modules included.
    """
    return next(_find_isos([(M, N)]))


def _find_isos(pairs):
    """Yield ``find_iso`` of each pair (M, N) of the list ``pairs``, in
    order.  A pair with different dimension vectors or recorded invariants
    gives None, and a pair of zero modules the zero map, with no Hom system
    solved.  The Hom(M, N) systems of the other pairs are solved in one
    ``hom_spaces`` stream; each gives the first basis map invertible at
    every vertex, or after a miss None when M or N is LOCAL, else the
    Krull-Schmidt route.  A generator, as ``hom_spaces`` is, so only one
    chunk's kernels are held at a time, beyond the answers the caller
    keeps.  ValueError for modules over different fields or quivers."""
    is_open = []
    for M, N in pairs:
        _check_pair(M, N)
        is_open.append(M.dims == N.dims and not M.is_zero() and (
            M.end_dim is None or N.end_dim is None
            or M.end_dim == N.end_dim and _arrow_ranks(M) == _arrow_ranks(N)))
    spaces = hom_spaces(pair for pair, todo in zip(pairs, is_open) if todo)
    for (M, N), todo in zip(pairs, is_open):
        if not todo:
            yield zero_map(M, N) if M.is_zero() and N.is_zero() else None
            continue
        basis = _basis_maps(M, N, *next(spaces))
        iso = next((f for f in basis if _full_rank(M.field, f, M)), None)
        if (iso is None and basis and M.indec != IndecVerdict.LOCAL
                and is_indecomposable(N) != IndecVerdict.LOCAL):
            iso = _krull_schmidt_iso(M, N)
        yield iso


def _local_summands(N: Representation):
    """N = sum of LOCAL summands, as (Z, inclusion Z -> N) pairs: split on
    the idempotent e of a DECOMPOSABLE verdict, N = ker e + ker(1 - e)."""
    verdict = is_indecomposable(N)
    if verdict.status == IndecVerdict.LOCAL:
        return [(N, identity_map(N))]
    if verdict.status != IndecVerdict.DECOMPOSABLE:
        raise ValueError(f"no Krull-Schmidt split over GF(p): {verdict}")
    F, e = N.field, verdict.certificate
    one_minus_e = {v: F.sub(m, e[v]) for v, m in identity_map(N).items()}
    out = []
    for p in (e, one_minus_e):
        K, incl = kernel_rep(N, N, p)
        out += [(Z, compose_maps(F, incl, i)) for Z, i in _local_summands(K)]
    return out


def _krull_schmidt_iso(M: Representation, N: Representation):
    """An isomorphism M -> N from the LOCAL summands of N, or None.

    The summands are grouped up to isomorphism.  For a group of m copies of
    Z, the pairing Hom(Z, M) x Hom(M, Z) -> k, (g, f) -> residue of f g, has
    rank the multiplicity of Z in M; m independent columns pick maps
    f_1, ..., f_m: M -> Z, sent onto the m copies.  The residue l of the
    endomorphism f g = l + n of the LOCAL Z is read, for the whole pairing
    at once, from ``_frobenius_power``: (l + n)^q = l.
    """
    F = M.field
    groups = []  # (Z, embeddings Z -> N of the summands isomorphic to Z)
    for Z, incl in _local_summands(N):
        for rep, embeds in groups:
            sigma = find_iso(rep, Z)
            if sigma is not None:
                embeds.append(compose_maps(F, incl, sigma))
                break
        else:
            groups.append((Z, [incl]))
    iso = zero_map(M, N)
    for Z, embeds in groups:
        gs, fs = hom_basis(Z, M), hom_basis(M, Z)
        if not gs or not fs:
            return None
        powers = _frobenius_power(F, total_matrices(
            Z, [compose_maps(F, f, g) for g in gs for f in fs]))
        residues = powers[:, 0, 0]
        if (powers != residues[:, None, None] * F.eye(Z.total_dim)).any():
            raise ValueError("endomorphism is not scalar plus nilpotent")
        _, pivots = F.rref(residues.reshape(len(gs), len(fs)))
        if len(pivots) < len(embeds):
            return None
        for j, embed in zip(pivots, embeds):
            iso = map_add(F, iso, compose_maps(F, embed, fs[j]))
    if not _full_rank(F, iso, M):
        raise ConsistencyError("Krull-Schmidt map is not an isomorphism")
    return iso


def is_isomorphic(M: Representation, N: Representation,
                  both_local=False) -> IsoVerdict:
    """Exact and deterministic; the certificate is the isomorphism.

    ``both_local`` claims that M or N (one side suffices) carries a LOCAL
    verdict recorded by ``is_indecomposable``.  The claim is checked, and
    ValueError raised when it does not hold; it never changes the answer,
    which ``find_iso`` reads from the modules themselves.
    """
    if both_local and IndecVerdict.LOCAL not in (M.indec, N.indec):
        raise ValueError("both_local: neither module carries a LOCAL verdict")
    iso = find_iso(M, N)
    return IsoVerdict(iso is not None, iso)


# -- kernels, cokernels, exact sequences ----------------------------------------


def kernel_rep(M: Representation, N: Representation, f):
    """(K, inclusion K -> M) for a module map f: M -> N."""
    F, q, m_maps = M.field, M.quiver, M.maps
    incl = {v: F.null_space(f[v]) if M.dim(v) else F.zeros(0, 0)
            for v in q.vertices}
    spaces = {v: tuple(("k", i) for i in range(incl[v].shape[1]))
              for v in M.support}
    maps = {}
    for a in M.support_arrows:
        s, t = q.source[a], q.target[a]
        if spaces[s] and spaces[t]:
            coords = F.solve(incl[t], F.mul(m_maps[a], incl[s]))
            if coords is None:
                raise ConsistencyError("kernel is not arrow-stable")
            maps[a] = coords
    return Representation(q, F, spaces, maps), incl


def _reduce_blocks(F, blocks, augment=False) -> dict:
    """The RREF of every matrix a of ``blocks`` {key: a}, or of [a | I] with
    ``augment``, from one ``rref_sparse`` call.

    The matrices sit side by side in disjoint columns, so no row ever mixes
    two of them, and the pivot rows that fall in a matrix's columns are its
    own RREF.  Returns {key: [(pivot, {column: coefficient})]}, the pivot
    rows in pivot order, in the matrix's own columns."""
    rows, starts, base = [], [], 0
    for a in blocks.values():
        starts.append(base)
        n, k = a.shape
        for i, row in enumerate(a.tolist()):
            r = {base + c: x for c, x in enumerate(row) if x}
            if augment:
                r[base + k + i] = 1
            rows.append(r)
        base += k + n if augment else k
    pivots = F.rref_sparse(rows)
    out = {key: [] for key in blocks}
    spans = iter(zip(blocks, starts, starts[1:] + [base]))
    stop = 0
    for pc in sorted(pivots):
        while pc >= stop:
            key, start, stop = next(spans)
        out[key].append((pc - start, {c - start: x
                                      for c, x in pivots[pc].items()}))
    return out


def _quotients(F, mats) -> dict:
    """{key: (projection, section)} of F^n onto F^n / (column space of a),
    for every n x k matrix a of ``mats``, all in one elimination.

    The RREF of [a | I] gives both.  Its pivots among the identity columns
    are the unit vectors e_i kept greedily, e_i lying outside the span of a
    and e_0, ..., e_(i-1): they span the section.  Its rows past rank a,
    read in the identity columns, vanish on the columns of a and are the
    identity on that complement: they are the projection."""
    reduced = _reduce_blocks(F, mats, augment=True)
    out = {}
    for key, a in mats.items():
        n, k = a.shape
        rows = [(pc - k, row) for pc, row in reduced[key] if pc >= k]
        proj, section = F.zeros(len(rows), n), F.zeros(n, len(rows))
        for r, (i, row) in enumerate(rows):
            section[i, r] = 1
            for c, x in row.items():
                proj[r, c - k] = x
        out[key] = proj, section
    return out


def cokernel_rep(M: Representation, N: Representation, f):
    """(Q, projection N -> Q) for a module map f: M -> N."""
    F, q, n_maps = N.field, N.quiver, N.maps
    quot = _quotients(F, {v: f[v] for v in N.support})
    proj = dict.fromkeys(q.vertices, zero_size_block(0, 0))
    spaces, maps = {}, {}
    for v, (pv, section) in quot.items():
        proj[v] = pv
        spaces[v] = tuple(("c", i) for i in range(section.shape[1]))
    for a in N.support_arrows:
        s, t = q.source[a], q.target[a]
        if spaces[s] and spaces[t]:
            maps[a] = F.mul(proj[t], F.mul(n_maps[a], quot[s][1]))
    return Representation(q, F, spaces, maps), proj


def _dims_additive(X, middles, Z) -> bool:
    """dim X + dim Z = the sum of the dimension vectors of ``middles``."""
    return all(x + z == sum(e) for x, z, *e in
               zip(X.dims, Z.dims, *(E.dims for E in middles)))


def realize_ses(X, middles, Z):
    """(E, f, g): E the direct sum of ``middles``, f: X -> E injective and
    g: E -> Z surjective with coker(f) = Z; NotRealizable if none is found.

    For each middle summand E_i, the candidates are the Hom(X, E_i) basis
    maps that are injective or onto ([0] if none).  f runs over their
    product, summands in order and the last varying fastest, and the first
    f whose cokernel ``find_iso`` matches with Z wins.  That f is injective:
    dim X + dim Z = dim E is checked first, and dim coker(f) = dim E - rank
    f, so coker(f) has the dimension vector of Z, which ``find_iso``
    compares before any Hom system, exactly when f is injective.

    The search is complete (Auslander-Reiten-Smalo, Representation Theory of
    Artin Algebras, 1995, Ch. V and VII).  Let the row be almost split, each
    E_i LOCAL with End(E_i)/rad = k, and no E_i isomorphic to X.  Every map
    X -> E_i is a non-isomorphism between indecomposables, so Hom(X, E_i) =
    rad(X, E_i), and its basis spans Irr(X, E_i) = rad/rad^2.  A map X -> E
    is left minimal almost split, hence injective with cokernel = Z, iff for
    each E_i of multiplicity m_i the classes of its components into the m_i
    copies form a basis of Irr(X, E_i).  Such a basis can be picked among
    the basis maps; each has a nonzero class, so it is irreducible, hence
    injective or onto, and a candidate, and the product contains the f they
    make.  This holds for every p, p = 2 included, where no fixed "generic"
    combination of the basis maps is sure to work.  For a candidate that is
    not almost split, the search can miss an exact sequence that exists.

    The zero sequence, X = Z = 0 with no middles, is realized with maps of
    zero size.
    """
    if not _dims_additive(X, middles, Z):
        raise NotRealizable("dimension vectors are not additive")
    found, = _realize_all([(X, middles, Z)])
    if isinstance(found, NotRealizable):
        raise found
    return found


def _realize_all(rows) -> list:
    """``realize_ses`` of each additive row (X, middles, Z), in order:
    (E, f, g), or the NotRealizable that it raises.

    The Hom(X, E_i) systems of all rows go through one ``hom_spaces``
    stream.  The search then runs in rounds: round k takes the k-th
    candidate f of every row still open, in product order, and decides the
    cokernels of the round in one ``_find_isos`` stream, so each row wins
    with the f it wins with alone."""
    out = [None] * len(rows)
    spaces = hom_spaces((X, Y) for X, middles, _ in rows for Y in middles)
    searches = []  # (row, X, Z, E, the candidates f not yet tried)
    for i, (X, middles, Z) in enumerate(rows):
        choices = []
        for Y in middles:
            kernel, blocks = next(spaces)
            keep = [j for j, h in enumerate(_basis_maps(X, Y, kernel, blocks))
                    if _full_rank(X.field, h, X) or _full_rank(X.field, h, Y)]
            # the kept rows copied out, so no chunk of the stream stays held
            choices.append(_basis_maps(X, Y, kernel[keep], blocks) if keep
                           else [zero_map(X, Y)])
        searches.append((i, X, Z, direct_sum_of(X.quiver, X.field, middles),
                         itertools.product(*choices)))
    while searches:
        tries = []  # (search, f, coker f, the projection onto it)
        for search in searches:
            i, X, _, E, candidates = search
            parts = next(candidates, None)
            if parts is None:
                out[i] = NotRealizable(
                    "no injective map with the right cokernel was found")
                continue
            f = {v: np.vstack([h[v] for h in parts] or [zero_size_block(0, n)])
                 for v, n in zip(X.quiver.vertices, X.dims)}
            tries.append((search, f, *cokernel_rep(X, E, f)))
        isos = _find_isos([(Q, Z) for (_, _, Z, _, _), _, Q, _ in tries])
        searches = []
        for (search, f, _, proj), iso in zip(tries, isos):
            i, _, _, E, _ = search
            if iso is None:
                searches.append(search)
            else:
                out[i] = E, f, compose_maps(E.field, iso, proj)
    return out


def is_split(X, E, f) -> bool:
    """True iff the injection f: X -> E has a retraction r, r f = id (exact
    linear solve).

    r f is linear in r, so such an r exists iff id lies in the span of the
    r_i f over a basis r_i of Hom(E, X): one ``solve`` with a column per
    r_i f.  The stack of the r_i at a vertex is the block of the
    ``hom_space`` array, transposed; (r_i f)^T = f^T r_i^T is read row by
    row, which pairs its entries with those of the symmetric id.
    """
    return _splits([(X, E, f)])[0]


def _splits(rows) -> list:
    """``is_split`` of each row (X, E, f), in order, the Hom(E, X) systems
    of all rows in one ``hom_spaces`` stream."""
    out = []
    for (X, _, f), (kernel, blocks) in zip(
            rows, hom_spaces((E, X) for X, E, _ in rows)):
        F = X.field
        if not len(kernel):
            out.append(X.is_zero())
        elif len(blocks) < len(X.support):  # f is 0 on some X_v
            out.append(False)
        else:
            cols = np.hstack([F.mul(f[v].T, transposed_blocks(kernel, block))
                              .reshape(len(kernel), -1)
                              for v, block in blocks.items()])
            ident = np.hstack([F.eye(X.dim(v)).reshape(-1) for v in blocks])
            out.append(F.solve(cols.T, ident) is not None)
    return out


# -- projective covers and the AR translate ---------------------------------------


def top_generators(M: Representation):
    """{v: section} over the vertices v where M / rad M is not 0, in vertex
    order: the columns of the section of M_v onto M_v / rad M_v are the unit
    vectors of M_v that project to a basis of (M / rad M)_v, where rad M_v
    is spanned by the images of the arrows into v."""
    F, q, maps = M.field, M.quiver, M.maps
    rad = {}
    for v in M.support:
        imgs = [maps[a] for a in q.in_arrows[v] if M.dim(q.source[a])]
        rad[v] = np.hstack(imgs) if imgs else F.zeros(M.dim(v), 0)
    return {v: section for v, (_, section) in _quotients(F, rad).items()
            if section.shape[1]}


def _path_images(M: Representation, algebra, v, vecs) -> dict:
    """The images of the columns of ``vecs``, vectors of M_v, under the
    basis paths of A from v: {w: stack} over the vertices w of M's support
    that such a path reaches, the stack being (paths v -> w, in basis order)
    x dim M_w x (columns).  Each prefix of a path is applied once."""
    F, paths, maps = M.field, algebra.basis_paths, M.maps
    memo = {(): vecs}
    out = {}
    for w in M.support:
        if (v, w) not in paths:
            continue
        stack = []
        for _, arrows, _ in paths[v, w]:  # arrows[0] acts last
            # the longest prefix applied so far, then the arrows after it
            k = 0
            while arrows[k:] not in memo:
                k += 1
            got = memo[arrows[k:]]
            for i in range(k - 1, -1, -1):
                got = memo[arrows[i:]] = F.mul(maps[arrows[i]], got)
            stack.append(got)
        out[w] = np.stack(stack)
    return out


def _check_algebra(modules, algebra):
    """ValueError, naming both sides, unless ``algebra`` lies over the field
    of ``modules`` (a module or ``StringModules``) and an equal quiver."""
    if (algebra.field, algebra.quiver) != (modules.field, modules.quiver):
        raise ValueError(
            f"algebra over {algebra.field} and the quiver of "
            f"{algebra.quiver.ds.to_json()}, modules over {modules.field} "
            f"and the quiver of {modules.quiver.ds.to_json()}")


def projective_cover(M: Representation, algebra):
    """(P, h, gens, kernel) with h: P -> M a projective cover.

    An algebra unlike M (``_check_algebra``) raises ValueError before any
    work; the other presentation functions all check here.
    ``gens`` is ``top_generators(M)``.  P is the sum of one P(v) per column
    x of gens[v], in vertex order, and h sends the basis path p of that
    summand to p x.  ``kernel`` holds K_v = ker h_v, in P coordinates, at
    each vertex where it is not 0, read from the same RREF of the h_v as the
    check that h is onto."""
    _check_algebra(M, algebra)
    F, q = M.field, M.quiver
    gens = top_generators(M)
    P = direct_sum_of(q, F, [algebra.projective_module(v)
                             for v, x in gens.items()
                             for _ in range(x.shape[1])])
    h = {v: F.zeros(M.dim(v), P.dim(v)) for v in q.vertices}
    offset = dict.fromkeys(M.support, 0)
    for v, x in gens.items():  # the summands of v are consecutive
        for w, stack in _path_images(M, algebra, v, x).items():
            # summand t of v takes the columns t k, ..., t k + k - 1 at w
            k, rows, n = stack.shape
            h[w][:, offset[w]: offset[w] + n * k] = (
                stack.transpose(1, 2, 0).reshape(rows, n * k))
            offset[w] += n * k
    # covers are epi: rank h_v = dim M_v
    reduced = _reduce_blocks(F, {v: h[v] for v in q.vertices
                                 if M.dim(v) or P.dim(v)})
    if any(len(rows) != M.dim(v) for v, rows in reduced.items()):
        raise ConsistencyError("cover map is not surjective")
    kernel = {}
    for v, rows in reduced.items():
        k = F.null_space_from_rref(rows, P.dim(v))
        if k.shape[1]:
            kernel[v] = k
    return P, h, gens, kernel


def minimal_presentation(M: Representation, algebra):
    """(P0, h, gens0, gens1) of a minimal projective presentation
    P1 --d--> P0 --h--> M -> 0.

    h is the projective cover and gens0 its top generators.  P1 is the sum
    of one P(u) per column x of gens1[u], a vector of P0_u, and d sends the
    basis path p of that summand to p x.  The x are read from K = ker h in
    P0 coordinates, as in the module docstring; M is projective iff gens1
    is empty."""
    F, q = M.field, M.quiver
    P0, h, gens0, kernel = projective_cover(M, algebra)
    # [rad K_u | K_u], rad K_u spanned by the P0_a K_s over the arrows
    # a: s -> u; h_u must vanish on all of it
    blocks, maps = {}, P0.maps
    for u, k in kernel.items():
        blocks[u] = np.hstack([F.mul(maps[a], kernel[q.source[a]])
                               for a in q.in_arrows[u]
                               if q.source[a] in kernel] + [k])
        if not F.is_zero(F.mul(h[u], blocks[u])):
            raise ConsistencyError("kernel is not arrow-stable")
    gens1 = {}
    for u, rows in _reduce_blocks(F, blocks).items():
        r = blocks[u].shape[1] - kernel[u].shape[1]
        chosen = [pc - r for pc, _ in rows if pc >= r]
        if chosen:
            gens1[u] = kernel[u][:, chosen]
    # the images of gens1 under the basis paths must span K_w: in the RREF
    # of [images | K_w] no pivot falls in K_w, and there are dim K_w pivots
    images = {w: [] for w in P0.support}
    for u, x in gens1.items():
        for w, stack in _path_images(P0, algebra, u, x).items():
            images[w].append(stack.transpose(1, 0, 2).reshape(P0.dim(w), -1))
    spans = {w: np.hstack(images[w] + [kernel.get(w, F.zeros(P0.dim(w), 0))])
             for w in P0.support}
    for w, rows in _reduce_blocks(F, spans).items():
        n = kernel[w].shape[1] if w in kernel else 0
        if len(rows) != n or (rows and rows[-1][0] >= spans[w].shape[1] - n):
            raise ConsistencyError("presentation does not cover the kernel")
    return P0, h, gens0, gens1


def is_projective(M: Representation, algebra) -> bool:
    return not minimal_presentation(M, algebra)[3]


def ar_translate(M: Representation, algebra) -> Representation:
    """DTr M from a minimal projective presentation; errors on projectives.

    Tr M is the cokernel of Hom(d, A): Hom(P0, A) -> Hom(P1, A), a map of
    right modules, and D takes it back to the left by transposing."""
    F, q = M.field, M.quiver
    _, _, gens0, gens1 = minimal_presentation(M, algebra)
    if not gens1:
        raise ProjectiveSummand("module is projective")

    # one summand e_v A of Hom(P0, A) per column of gens0[v], one e_u A of
    # Hom(P1, A) per column x_j of gens1[u]; the component of x_j in the
    # summand P(v_i) of P0 is the element sum_a x_j[a] a of e_{u_j} A e_{v_i},
    # over the basis paths a: v_i -> u_j that index its rows of P0_{u_j}
    tops = [v for v, x in gens0.items() for _ in range(x.shape[1])]
    right0 = [algebra.right_projective(v) for v in tops]
    right1, comp = [], []
    for u, x in gens1.items():
        for column in x.T.tolist():
            coords = iter(column)  # zip stops at the paths: summand by summand
            right1.append(algebra.right_projective(u))
            comp.append([[(a, c) for a, c in zip(
                algebra.basis_paths.get((v, u), ()), coords) if c]
                for v in tops])

    # Hom(d, A) at w, on the vertices where Hom(P1, A) is not 0: block (j, i)
    # left-multiplies the basis paths w -> v_i by the component (j, i)
    dmat = {}
    for w in q.vertices:
        height = sum(r[0][w] for r in right1)
        if not height:
            continue
        block = [[0] * sum(r[0][w] for r in right0) for _ in range(height)]
        roff = 0
        for r1, parts in zip(right1, comp):
            coff = 0
            for r0, element in zip(right0, parts):
                for a, c in element:
                    for col, p in enumerate(r0[2][w]):
                        for rpath, cf in algebra.multiply(a, p).items():
                            block[roff + r1[3][w][rpath]][coff + col] += c * cf
                coff += r0[0][w]
            roff += r1[0][w]
        # an entry sums at most dim A products, each below p^2: p < 2^21
        # (MAX_PRIME) and dim A <= PATH_CAP < 2^21 keep the sum below 2^63,
        # so int64 holds it exactly
        dmat[w] = np.array(block, dtype=np.int64) % F.p

    # right-module cokernel of dmat, then vector-space dual back to the left
    quot = _quotients(F, dmat)
    spaces = {w: tuple(("d", i) for i in range(section.shape[1]))
              for w, (_, section) in quot.items()}
    maps = {}
    for a in q.arrows:
        s, t = q.source[a], q.target[a]
        if spaces.get(s) and spaces.get(t):
            # right action of a on Tr: Tr_t -> Tr_s; dualize to get s -> t
            cod_map = block_diagonal(F, [r[1][a] for r in right1])
            act = F.mul(quot[s][0], F.mul(cod_map, quot[t][1]))
            maps[a] = act.T
    return Representation(q, F, spaces, maps)


# -- the almost-split-sequence list ----------------------------------------------


class ArVerifier:
    """Instantiate and verify the classification's almost-split sequences.

    The rows name their terms by atoms; ``StringModules`` (``self.sm``)
    owns the conventions, canonicalising each family term to atoms
    (``canon_*``), giving their dimensions (``atom_dim``) and building their
    modules (``atom``).  This class keeps the rows and the checks, and
    ``verify`` looks each row term up in its inventory.  The end terms of an
    almost-split sequence are indecomposable, so a row whose left or right
    term is not one atom is a row anomaly.  Coverage then asserts that every
    non-projective inventory entry is the right-hand term of exactly one row.

    ``algebra`` must lie over the field of ``modules`` and over an equal
    quiver (``_check_algebra``), else ValueError here, before anything is
    built; ``None`` serves ``rows`` alone (``verify`` raises ValueError).
    """

    def __init__(self, modules, algebra):
        if algebra is not None:
            _check_algebra(modules, algebra)
        self.sm = modules
        self.calc = modules.calc
        self.quiver = modules.quiver
        self.algebra = algebra
        self._rep_cache = {}

    def atom_rep(self, atom):
        """An atom's module, built on a miss; for the library and perfbench."""
        rep = self._rep_cache.get(atom)
        if rep is None:
            rep = self._rep_cache[atom] = self.sm.atom(atom)
        return rep

    def atom_indec(self, atom):
        """``is_indecomposable`` of an atom's module; for library callers."""
        return is_indecomposable(self.atom_rep(atom))

    # -- row enumeration ------------------------------------------------------

    def rows(self, bound: int):
        """Rows with right-term dimension or middle dimension within bound,
        a bound that is not a nonnegative integer raising ValueError.

        Every family is enumerated forwards from its left parameters, so the
        coverage check in ``verify`` stays a real check.  Write |EMPTY| = -1,
        w = max |omega_v| and n = max |nu_v| over all vertices.

        Lemma A.  Either C+ = EMPTY and |C| <= w, or |C+| >= |C| - 1 - w.
        Proof: C+ either appends letters, so |C+| > |C|, or it strips the
        last Q1''-letter together with the Q1'-run after it.  That run is a
        Q1'-only string terminating at some vertex v; by thinness such
        strings are the prefixes of omega_v, so the run has at most w
        letters.  With no Q1''-letter to strip, C+ = EMPTY and C itself is
        a prefix of omega_x.  A shorter prefix of omega_x takes the next
        letter of omega_x, so C+ = EMPTY only for C = omega_x.

        Lemma A'.  Either +C = EMPTY and |C| <= n, or |+C| >= |C| - 1 - n.
        Proof: the mirror image.  +C either prepends letters or strips the
        first Q1'-letter together with the Q1''-run before it, a Q1''-only
        string starting at some vertex v and so a suffix of nu_v.

        Lemma B.  For a != EMPTY, a term canon_NCC(x, a, b) that does not
        raise has dimension >= |a| + |b| + 3.  Proof, case by case:
        N(a, EMPTY) = M(gamma a) has dimension |a| + 2; N(a, a) = N_a + M_a
        has 2|a| + 4; N(a, B_x a) = L(B_x a) + M(gamma a) has
        (|B_x a| + 2) + (|a| + 2) = |a| + |b| + 4; NCC(a, b) has
        |a| + |b| + 4.

        Prefilter.  Before canonicalising a candidate, rows() bounds its
        right term and its middle from below by word lengths, and skips it
        when both bounds exceed ``bound``: the dimension filter would drop
        its row.  M(C), N_C and L(C) have dimensions |C| + 1, |C| + 3 and
        |C| + 2 for C != EMPTY, and Lemma B bounds the NCC terms.  C is the
        loop word, except in family 5, whose loop word is C' and
        C = alpha_x C':

        fam right term     right bound       middle bound
        4   M(+C+)         |+C+| + 1         |C+| + |+C| + 2
        5   N(mu_x, +C+)   |mu_x|+|+C+|+3    |C+| + |mu_x| + |+C| + 4
        6   N_{C+}         |C+| + 3          |C| + |C+| + 3
        7   L(B_x C+)      |B_x| + |C+| + 2  |C+| + |B_x| + |C| + 3
        8   M(C+)          |C+| + 1          |C| + |C+| + 3
        9   M(gamma_x C+)  |C+| + 2          |C+| + |B_x| + |C| + 3
        10  N(C+, C'+)     |C+| + |C'+| + 3  |C| + |C'| + |C+| + |C'+| + 6

        A middle summand M(EMPTY) is no atom, of dimension 0 = |EMPTY| + 1,
        and Lemma B allows b = EMPTY.  An M, N or L right term of EMPTY is
        no atom, M(e_z) or an error, so a candidate with +C+ = EMPTY in
        family 4 or C+ = EMPTY in families 6-9 is always canonicalised.
        Row anomalies are therefore reported for the candidates that can
        fall within the bound: one that raises, or has a sum at one end,
        is reported when a bound allows an in-bound row or its right term
        is of EMPTY, and skipped unreported otherwise.

        Budgets.  The enumeration stops where the lemmas show that longer
        words give no candidate the prefilter keeps.
        - Family 4 takes S' up to |C| <= bound + w + n + 1.  +C+ is +(C+),
          or (+C)+ when C+ = EMPTY, and EMPTY when |C+| + |+C| < |C|.  If
          no step meets EMPTY, Lemmas A and A' give |+C+| >= |C| - 2 - w - n
          and |C+| + |+C| >= 2|C| - 2 - w - n, so a kept candidate has
          |C| <= bound + w + n + 1.  A step that meets EMPTY, or
          |C+| + |+C| < |C|, leaves |C| <= w + n + 1.
        - Families 5-9 take S_x up to |C| <= bound + w.  In families 6 and
          8, C+ = EMPTY means C = omega_x, and otherwise a kept candidate
          has |C+| <= bound - 1, so |C| <= bound + w by Lemma A; families
          7 and 9 keep only |C+| <= bound - 2.  In family 5, C starts with
          the Q1'-letter alpha_x, so +C strips only alpha_x or prepends:
          |+C| >= |C'|, and a kept middle has |C'| <= bound - 3.  C+ = EMPTY
          means |C| <= w; otherwise C+ keeps alpha_x at its start and
          +C+ = +(C+) has |+C+| >= |C+| - 1 >= |C| - 2 - w, so a kept right
          term has |C'| <= bound + w - 2.
        - Family 10 takes the pairs of P_x with |C| + |C'| <= bound + 2w - 1.
          C < C' and omega_x is the largest string at x, so C+ != EMPTY; a
          kept pair has |C+| + |C'+| <= bound - 3, and Lemma A gives
          |C| <= |C+| + 1 + w in both of its cases.
        """
        check_bound(bound)
        sm = self.sm
        out = []
        self.row_anomalies = []
        for family, right, middle, params, terms in self._candidates(bound):
            if right is not None and right > bound and middle > bound:
                continue
            params = params()
            # terms() builds (left, middle, right) inside the try, so an
            # inconsistent instance (a pair leaving P_x, say) surfaces as an
            # anomaly, not a crash
            try:
                left, mid, rt = terms()
            except ValueError as exc:
                self.row_anomalies.append(
                    f"row family {family} at {params}: {exc}")
                continue
            if len(left) != 1 or len(rt) != 1:
                self.row_anomalies.append(
                    f"row family {family} at {params}: ends {left} and "
                    f"{rt} are not one atom each")
                continue
            rdim = sm.atom_dim(rt[0])
            mdim = sum(sm.atom_dim(a) for a in mid)
            if rdim > bound and mdim > bound:
                continue
            out.append({
                "family": family,
                "left": left,
                "middle": mid,
                "right": rt,
                "right_dim": rdim,
                "middle_dim": mdim,
                "key": (family,) + tuple(repr(p) for p in params),
            })
        out.sort(key=lambda r: r["key"])
        return out

    def _candidates(self, bound: int):
        """Yield the candidates of ``rows(bound)`` within the word budgets,
        as (family, right, middle, params, terms), in one pass per word
        source: each band's loop over m yields families 1, 2 and 3 (family 3
        at m + 1), S' family 4, each S_x's loop over C family 5 at C' = C,
        families 6 and 8 and, at x in Q0'', families 7 and 9, and each P_x
        family 10.

        right and middle are the prefilter's lower bounds on the dimensions
        of the right term and of the middle; right is None for a candidate
        that is always canonicalised (the band rows, and the EMPTY cases).
        params() gives the row's parameters and terms() its (left, middle,
        right) as atoms; both read the loop's words, so call them before
        asking for the next candidate.
        """
        sm, calc, q = self.sm, self.calc, self.quiver
        wkey = calc.word_key
        from .strings import EMPTY, StringWord

        max_omega = max(calc.omega(v).length for v in q.vertices)
        max_nu = max(calc.nu(v).length for v in q.vertices)
        plus = {}  # C -> C+, one successor per word

        def succ(c):
            cp = plus.get(c)
            if cp is None:
                cp = plus[c] = calc.successor(c)
            return cp

        # band rows
        for name, band in calc.bands():
            for m in range(1, bound // band.length + 3):
                for lam in sm.lams:
                    if lam == 1 and name != "B0":
                        continue
                    yield 1, None, None, lambda: (name, lam, m), lambda: (
                        sm.canon_R(name, lam, m),
                        sm.canon_R(name, lam, m + 1)
                        + sm.canon_R(name, lam, m - 1),
                        sm.canon_R(name, lam, m))
                if name == "B0":
                    continue
                yield 2, None, None, lambda: (name, m), lambda: (
                    sm.canon_R(name, 1, m),
                    sm.canon_Qb(name, m + 1) + sm.canon_R(name, 1, m - 1),
                    sm.canon_Qb(name, m))
                yield 3, None, None, lambda: (name, m + 1), lambda: (
                    sm.canon_Qb(name, m + 1),
                    sm.canon_R(name, 1, m + 1) + sm.canon_Qb(name, m),
                    sm.canon_R(name, 1, m))

        # string rows
        for c in calc.s_prime(bound + max_omega + max_nu + 1):
            cp = calc.successor(c)
            pc = calc.co_successor(c)
            bi = calc.bi_successor(c)
            yield (4, None if bi is EMPTY else bi.length + 1,
                   cp.length + pc.length + 2,
                   lambda: ("Sprime", wkey(c)), lambda: (
                       sm.canon_M(c),
                       sm.canon_M(cp) + sm.canon_M(pc),
                       sm.canon_M(bi)))

        for x in q.q0_primed():
            alpha = q.alpha_of(x)
            mu = calc.mu(x)
            mlen = mu.length
            omega = calc.omega(x)
            in_q0dd = x in q.q0_doubleprimed()
            if in_q0dd:
                gamma, bl = q.gamma_of(x), calc.band_of(x).letters
            for c in calc.s_x(x, bound + max_omega):
                cp = succ(c)
                cplen = cp.length
                if calc.check_string((alpha,) + c.letters)[0]:
                    # family 5 at C' = c: its C is a = alpha_x C'
                    a = StringWord((alpha,) + c.letters)
                    ap, pa = calc.successor(a), calc.co_successor(a)
                    bi = calc.bi_successor(a)

                    def row5():
                        if pa != c:
                            raise ValueError(
                                f"co-successor of alpha_x C is not C at {x}")
                        return (sm.canon_M(a),
                                sm.canon_M(ap) + sm.canon_NCC(x, mu, pa),
                                sm.canon_NCC(x, mu, bi))

                    yield (5, mlen + bi.length + 3,
                           ap.length + mlen + pa.length + 4,
                           lambda: (x, wkey(c)), row5)
                middle = c.length + cplen + 3
                yield (6, None if cp is EMPTY else cplen + 3, middle,
                       lambda: (x, wkey(c)),
                       lambda: (sm.canon_M(c),
                                sm.canon_NCC(x, c, cp),
                                sm.canon_N(x, cp)))
                if c != omega:
                    yield (8, None if cp is EMPTY else cplen + 1, middle,
                           lambda: (x, wkey(c)),
                           lambda: (sm.canon_N(x, c),
                                    sm.canon_NCC(x, c, cp),
                                    sm.canon_M(cp)))
                if not in_q0dd:
                    continue
                yield (7, None if cp is EMPTY else len(bl) + cplen + 2,
                       middle + len(bl), lambda: (x, wkey(c)), lambda: (
                           sm.canon_M(calc.word((gamma,) + c.letters)),
                           sm.canon_NCC(x, cp, StringWord(bl + c.letters)),
                           sm.canon_L(x, StringWord(bl + cp.letters))))
                yield (9, None if cp is EMPTY else cplen + 2,
                       middle + len(bl), lambda: (x, wkey(c)), lambda: (
                           sm.canon_L(x, StringWord(bl + c.letters)),
                           sm.canon_NCC(x, cp, StringWord(bl + c.letters)),
                           sm.canon_M(calc.word((gamma,) + cp.letters))))
            for c, c2 in calc.pairs_p_x(x, bound + 2 * max_omega - 1):
                cp, c2p = succ(c), succ(c2)
                right = cp.length + c2p.length + 3
                yield (10, right, right + c.length + c2.length + 3,
                       lambda: (x, wkey(c), wkey(c2)),
                       lambda: (sm.canon_NCC(x, c, c2),
                                sm.canon_NCC(x, c, c2p)
                                + sm.canon_NCC(x, cp, c2),
                                sm.canon_NCC(x, cp, c2p)))

    # -- verification -----------------------------------------------------------

    def _match_tau(self, ends) -> list:
        """For each (right, left) of ``ends``, in order: DTr(right) is
        isomorphic to left, False when right is projective.  Every DTr is
        built first, then the Hom(DTr right, left) systems go through one
        ``_find_isos`` stream."""
        pairs = []  # (DTr right, left), or None for a projective right
        for right, left in ends:
            try:
                pairs.append((ar_translate(right, self.algebra), left))
            except ProjectiveSummand:
                pairs.append(None)
        isos = iter(_find_isos([pair for pair in pairs if pair]))
        return [pair is not None and next(isos) is not None
                for pair in pairs]

    def verify(self, bound: int, lemma_len=None):
        """Run every check of the classification at dimension ``bound``.

        The stages, in the order their failures are listed: the row
        anomalies of ``rows``; ``_check_rows`` on the rows with middle dim
        <= bound, each of its checks run over all of them before the next,
        and the entries in row order; ``_coverage`` of the inventory by the
        rows' right terms;
        the relations on every inventory entry; a LOCAL certificate for
        every entry; and ``_lemma_checks`` on strings of length
        ``lemma_len`` (default ``min(6, bound)``).

        The inventory stays on ``self.inventory``, its modules by key on
        ``_rep_cache``, where each row term is looked up.  The first
        ``is_indecomposable`` call on an entry certifies them all, so
        ``_projective_keys`` and each row read the verdicts recorded on the
        modules.  A ``bound`` or ``lemma_len`` that is not a nonnegative
        integer raises ValueError, as does a verifier with no algebra.
        """
        if self.algebra is None:
            raise ValueError("algebra=None serves rows alone, not verify")
        check_bound(bound)
        if lemma_len is not None:
            check_bound(lemma_len, "lemma length")
        inventory = self.sm.theorem_inventory(bound)
        self.inventory = inventory
        self._rep_cache = {e.key: e.rep for e in inventory}
        not_local = [(e.key, e.rep.indec.status) for e in inventory
                     if is_indecomposable(e.rep) != IndecVerdict.LOCAL]
        rows = self.rows(bound)
        projectives = self._projective_keys()
        checked = self._check_rows([r for r in rows
                                    if r["middle_dim"] <= bound])
        coverage, uncovered = self._coverage(rows, bound, projectives)
        relation_failures = [e.key for e in inventory
                             if check_relations(e.rep, self.algebra.relations)]
        lemma_checks = self._lemma_checks(
            min(6, bound) if lemma_len is None else lemma_len)
        failures = (
            list(self.row_anomalies)
            + [f"row {r['key']}: {pb}" for r in checked for pb in r["problems"]]
            + uncovered
            + [f"relations violated by {k!r}" for k in relation_failures]
            + [f"not indecomposable: {k!r} ({s})" for k, s in not_local]
            + [f"lemma {r['lemma']} mismatch at {r['vertex']}"
               for r in lemma_checks if not r["ok"]])
        return {
            "rows_enumerated": len(rows),
            "rows_checked": len(checked),
            "inventory_size": len(inventory),
            "rows": checked,
            "coverage": coverage,
            "well_defined": not relation_failures,
            "all_indecomposable": not not_local,
            "lemma_checks": lemma_checks,
            "failures": failures,
        }

    def _projective_keys(self):
        """The keys of the inventory entries isomorphic to an indecomposable
        projective P(v), the Hom systems in one ``_find_isos`` stream."""
        by_dims = {}
        for v in self.quiver.vertices:
            P = self.algebra.projective_module(v)
            by_dims.setdefault(P.dims, []).append(P)
        pairs = [(e, P) for e in self.inventory
                 for P in by_dims.get(e.rep.dims, ())]
        isos = _find_isos([(e.rep, P) for e, P in pairs])
        return {e.key for (e, _), iso in zip(pairs, isos) if iso is not None}

    def _check_rows(self, rows) -> list:
        """The report entries of ``rows``, in order: each row's status
        (additive, LOCAL ends, realized, nonsplit, DTr(right) = left), its
        problems, and the realized maps f and g as its certificate.

        Every entry is made first.  Then each stage runs over every row
        still open, writing its status and problems into the row's entry,
        before the next stage starts:
        1. the terms looked up in the inventory, additivity and the ends'
           LOCAL verdicts, each problem naming a distinct atom once;
        2. ``_realize_all``: every Hom(X, E_i) of the realization
           candidates, then the Hom(coker f, Z) of ``find_iso`` in rounds,
           round k trying the k-th candidate f of every row still open;
        3. ``_splits``: every Hom(E, X) of the split check;
        4. ``_match_tau``: every DTr Z, then every Hom(DTr Z, X).
        A row with a term outside the inventory, not additive or not
        realized leaves the later stages.  Each stage, and each round of
        stage 2, sends its Hom systems to ``hom_spaces`` as one stream."""
        entries, open_rows = [], []  # open: (entry, left, middles, right)
        for row in rows:
            status = dict.fromkeys(("additivity", "realized", "nonsplit",
                                    "ends_indecomposable", "tau"))
            entry = {"key": row["key"], "family": row["family"],
                     "status": status, "problems": [], "certificate": None}
            entries.append(entry)
            (left,), (right,) = row["left"], row["right"]
            terms = (left, *row["middle"], right)
            outside = [a for a in dict.fromkeys(terms)
                       if a not in self._rep_cache]
            if outside:
                entry["problems"] += [f"term outside the inventory: {a}"
                                      for a in outside]
                continue
            X, *middles, Z = map(self._rep_cache.get, terms)
            status["additivity"] = _dims_additive(X, middles, Z)
            if not status["additivity"]:
                entry["problems"].append("dimension vectors not additive")
                continue
            split_ends = [a for a in dict.fromkeys((left, right))
                          if self._rep_cache[a].indec.status
                          != IndecVerdict.LOCAL]
            status["ends_indecomposable"] = not split_ends
            entry["problems"] += [f"end not indecomposable: {a}"
                                  for a in split_ends]
            open_rows.append((entry, X, middles, Z))
        done = []  # (entry, left, right, E, f) of the realized rows
        for (entry, X, _, Z), found in zip(open_rows, _realize_all(
                [(X, middles, Z) for _, X, middles, Z in open_rows])):
            entry["status"]["realized"] = not isinstance(found, NotRealizable)
            if isinstance(found, NotRealizable):
                entry["problems"].append(f"not realizable: {found}")
                continue
            E, f, g = found
            entry["certificate"] = {
                "injection": {v: m.tolist() for v, m in f.items() if m.size},
                "surjection": {v: m.tolist() for v, m in g.items() if m.size},
            }
            done.append((entry, X, Z, E, f))
        for (entry, *_), split in zip(done, _splits(
                [(X, E, f) for _, X, _, E, f in done])):
            entry["status"]["nonsplit"] = not split
            if split:
                entry["problems"].append("sequence splits")
        done = [(entry, X, Z) for entry, X, Z, _, _ in done]  # E, f let go
        for (entry, X, Z), tau in zip(done, self._match_tau(
                [(Z, X) for _, X, Z in done])):
            entry["status"]["tau"] = tau
            if not tau:
                entry["problems"].append("DTr(right) does not match left")
        return entries

    def _coverage(self, rows, bound, projectives):
        """Every inventory entry outside ``projectives`` is the right term of
        exactly one row with right-term dim <= bound: the coverage report
        and its failure lines, in inventory order."""
        counts = {}
        for row in rows:
            if row["right_dim"] <= bound:
                counts.setdefault(row["right"][0], []).append(row["key"])
        coverage = {"checked": 0, "missing": [], "multiple": []}
        failures = []
        for entry in self.inventory:
            if entry.key in projectives:
                continue
            coverage["checked"] += 1
            hits = counts.get(entry.key, [])
            if not hits:
                coverage["missing"].append(entry.key)
                failures.append(f"coverage: no row ends at {entry.key}")
            elif len(hits) > 1:
                coverage["multiple"].append((entry.key, hits))
                failures.append(f"coverage: {len(hits)} rows end at {entry.key}")
        return coverage, failures

    def _lemma_checks(self, lemma_len):
        """The functor hom-pattern lemmas on strings of length ``lemma_len``
        at each site of ``vsc.lemma_sites``: R and X at each admissible
        vertex, then I at each vertex of ``i_lemma_vertices``."""
        from .vsc import hom_pattern_of_functor, lemma_sites

        checks = []
        spaces = {}  # the Hom systems of the lemma objects, for this call
        for v, which in lemma_sites(self.quiver):
            _, _, match = hom_pattern_of_functor(self.sm, v, which, lemma_len,
                                                 spaces)
            checks.append({"vertex": v, "lemma": which, "ok": match["ok"],
                           "mismatches": match["mismatches"]})
        return checks
