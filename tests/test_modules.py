import hashlib
import json
import tracemalloc

import numpy as np
import pytest

from tworay import EMPTY, StringWord, check_relations
from tworay.field import DEFAULT_PRIME, PrimeField
from tworay.string_modules import (LambdaZero, NotABand, NotAPair,
                                   Representation, StringModules,
                                   direct_sum_of)
from tworay.strings import NotAString
from tworay import homlab, string_modules

from conftest import SYSTEMS, Ctx, ctx


def test_simple_modules(ex14):
    sm = ex14.modules
    for v in ("x:1:0", "z:1:4", "x:2:3"):
        rep = sm.construct_M(sm.calc.trivial(v))
        assert rep.total_dim == 1 and rep.dim(v) == 1


def test_m_of_empty_is_zero(ex14):
    assert ex14.modules.construct_M(EMPTY).is_zero()


def test_trivial_string_at_a_vertex_of_the_quiver(ex14):
    # calc.word((), "nope") used to return a word, and construct_M of it
    # raised KeyError from the layout
    calc = ex14.calc
    for vertex in ("nope", None):
        with pytest.raises(NotAString):
            calc.word((), vertex)
    with pytest.raises(NotAString):
        ex14.modules.construct_M(StringWord((), "nope"))
    assert calc.word((), "x:1:0") == calc.trivial("x:1:0")


def test_m_dimension_formula(ex14):
    sm = ex14.modules
    for w in sm.calc.all_strings(6):
        assert sm.construct_M(w).total_dim == w.length + 1


def test_m_rejects_non_strings(ex14):
    with pytest.raises(NotAString):
        ex14.modules.construct_M(StringWord(("alpha:1:4", "alpha:1:5",
                                             "alpha:1:6", "alpha:1:7")))


def test_n_dimension_formula_and_empty(tsys):
    sm = tsys.modules
    x = "x:1:2"
    for w in sm.calc.s_x(x, 5):
        assert sm.construct_N(x, w).total_dim == w.length + 3
    n_empty = sm.construct_N(x, EMPTY)
    assert n_empty.total_dim == 1 and n_empty.dim("z:1:2") == 1


def test_n_smallest_site():
    c = ctx("s_only")
    sm = c.modules
    rep = sm.construct_N("x:1:2", sm.calc.trivial("x:1:2"))
    assert {v: d for v, d in rep.dim_vector().items() if d} == {
        "z:1:2": 1, "x:1:2": 1, "x:1:1": 1}
    assert rep.maps["alpha:1:2"].tolist() == [[1]]
    assert rep.maps["gamma:1:2"].tolist() == [[1]]


def test_n_rejects_outside_sx(tsys):
    with pytest.raises(NotAPair):
        tsys.modules.construct_N("x:1:2", tsys.calc.omega("x:1:2"))
    with pytest.raises(NotAPair):
        tsys.modules.construct_N("x:1:0", tsys.calc.trivial("x:1:0"))


def test_l_dimension_and_prefix(ex14):
    sm = ex14.modules
    x = "x:1:4"
    bx = sm.calc.band_of(x)
    rep = sm.construct_L(x, bx)
    assert rep.total_dim == bx.length + 2
    # v' receives alpha_x from both band anchors v_0 and v_5
    col_labels = rep.spaces[x]
    alpha = rep.maps["alpha:1:4"]
    vp_row = rep.spaces["x:1:3"].index(("vp",))
    hits = [col_labels[k] for k in range(alpha.shape[1])
            if alpha[vp_row, k] != 0]
    assert hits == [("v", 0), ("v", 5)]
    with pytest.raises(NotAPair):
        sm.construct_L(x, sm.calc.trivial(x))


def test_ncc_dimensions_and_degenerates(tsys):
    sm = tsys.modules
    calc = tsys.calc
    x = "x:1:2"
    mu, triv = calc.mu(x), calc.trivial(x)
    strict = sm.construct_NCC(x, mu, triv)
    assert strict.total_dim == mu.length + 0 + 4
    # N(C, EMPTY) = M(gamma_x C)
    m = sm.construct_NCC(x, mu, EMPTY)
    expect = sm.construct_M(calc.word(("gamma:1:2",) + mu.letters))
    assert m.dim_vector() == expect.dim_vector()
    # N(C, C) = N(C) + M(C) literally
    both = sm.construct_NCC(x, mu, mu)
    assert both.total_dim == sm.construct_N(x, mu).total_dim + \
        sm.construct_M(mu).total_dim
    # N(C, B_x C) = L(B_x C) + M(gamma_x C)
    bx = calc.band_of(x)
    bxmu = StringWord(bx.letters + mu.letters)
    deg = sm.construct_NCC(x, mu, bxmu)
    assert deg.total_dim == sm.construct_L(x, bxmu).total_dim + \
        sm.construct_M(calc.word(("gamma:1:2",) + mu.letters)).total_dim
    with pytest.raises(NotAPair):
        sm.construct_NCC(x, triv, mu)  # out of order


def test_degenerate_identifications_are_isomorphisms(tsys):
    sm = tsys.modules
    calc = tsys.calc
    x = "x:1:2"
    mu = calc.mu(x)
    ncc = sm.construct_NCC(x, mu, mu)
    direct = sm.construct_N(x, mu).direct_sum(sm.construct_M(mu))
    assert homlab.find_iso(ncc, direct) is not None
    bx = calc.band_of(x)
    bxmu = StringWord(bx.letters + mu.letters)
    ncc2 = sm.construct_NCC(x, mu, bxmu)
    direct2 = sm.construct_L(x, bxmu).direct_sum(
        sm.construct_M(calc.word(("gamma:1:2",) + mu.letters)))
    assert homlab.find_iso(ncc2, direct2) is not None


def test_r_band_modules(fund21):
    sm = fund21.modules
    b0 = sm.calc.band_b0()
    assert sm.construct_R(b0, 5, 0).is_zero()
    for read in (sm.atom, sm.atom_dim):
        with pytest.raises(NotABand):
            read(("R", "B0", 5, -2))
    with pytest.raises(LambdaZero):
        sm.construct_R(b0, 0, 1)
    with pytest.raises(NotABand):  # no word, and no dict key either
        sm.construct_R(list(b0.letters), 5, 1)
    # construct_R checks its term through canon_R; m = 0 names no atom
    assert sm.canon_R("B0", 5, 0) == ()
    assert sm.canon_R("B0", 5 - sm.field.p, 1) == (("R", "B0", 5, 1),)
    for name, m in (("B0", -1), ("nope", 1)):
        with pytest.raises(NotABand):
            sm.canon_R(name, 5, m)
    with pytest.raises(LambdaZero):
        sm.canon_R("B0", 0, 1)
    with pytest.raises(NotABand):  # fund21 has no vertex in Q0''
        sm.canon_Qb("x:1:2", 1)
    r1 = sm.construct_R(b0, 5, 1)
    # a nontrivial word drops the vertex it is given, so this is B0
    again = sm.construct_R(StringWord(b0.letters, "x:1:0"), 5, 1)
    assert again.buffer.tobytes() == r1.buffer.tobytes()
    assert r1.dim_tuple() == (1, 1, 1)
    assert r1.maps["beta:1:1"].tolist() == [[5]]
    for m in (1, 2, 3):
        assert sm.construct_R(b0, 7, m).total_dim == m * b0.length


def test_r_nested_submodule(fund21):
    # R(B, lam, m-1) embeds into R(B, lam, m): an injective intertwiner exists
    sm = fund21.modules
    b0 = sm.calc.band_b0()
    F = sm.field
    for m in (2, 3):
        small = sm.construct_R(b0, 5, m - 1)
        big = sm.construct_R(b0, 5, m)
        basis = homlab.hom_basis(small, big)
        assert any(
            all(small.dim(v) == 0 or F.rank(f[v]) == small.dim(v)
                for v in small.quiver.vertices)
            for f in basis)


def test_library_rejects_non_integer_inputs(fund21):
    # these used to be truncated or converted: [[2.7]] stored as [[2]],
    # [["3"]] as 3, [[True]] as 1, lam_sample (2.7, True, "3") as [2, 1, 3],
    # R(B0, 2.5, 1) built as R(B0, 2, 1), and canon_R("B0", 2, 1.5) named
    # the atom ("R", "B0", 2, 1.5); [[2 ** 70]] raised OverflowError
    sm, q = fund21.modules, fund21.quiver
    a = q.arrows[0]
    spaces = {q.source[a]: ("s",), q.target[a]: ("t",)}
    F = PrimeField(5)
    for m in ([[2.7]], [["3"]], [[True]], [[2 ** 70]]):
        with pytest.raises(ValueError, match=f"map on {a} must hold integers"):
            Representation(q, F, spaces, {a: m})
    # numpy turns a bool among integers into an integer: [[1, True]] used to
    # be stored as [[1, 1]]
    wide = {q.source[a]: ("s", "s'"), q.target[a]: ("t",)}
    with pytest.raises(ValueError, match=f"map on {a} must hold integers"):
        Representation(q, F, wide, {a: [[1, True]]})
    with pytest.raises(ValueError, match="matrix must hold integers"):
        F.mat([[1, True]])
    assert F.mat(np.array([[1, True]])).tolist() == [[1, 1]]  # dtype int64
    for lam in (2.7, True, "3"):
        with pytest.raises(ValueError, match="lam_sample entry must be an"):
            StringModules(sm.calc, lam_sample=(lam,))
    b0 = sm.calc.band_b0()
    for lam, m, what in ((2.5, 1, "lam"), (True, 1, "lam"), (2, 1.5, "m")):
        with pytest.raises(ValueError, match=f"^{what} must be an integer"):
            sm.construct_R(b0, lam, m)
        with pytest.raises(ValueError, match=f"^{what} must be an integer"):
            sm.canon_R("B0", lam, m)
    tsys = ctx("tsys").modules  # Q0'' = {x:1:2}
    for build in (tsys.construct_Qband, tsys.canon_Qb):
        with pytest.raises(ValueError, match="^m must be an integer"):
            build("x:1:2", 1.5)
    # numpy integers are integers; a scalar beyond int64 is reduced mod p
    got = Representation(q, F, spaces, {a: np.array([[7]], dtype=np.int32)})
    assert got.maps[a].tolist() == [[2]]
    big = StringModules(sm.calc, F, lam_sample=(np.int64(3), 2 ** 70))
    assert big.lams == [3, pow(2, 70, 5), 1] == [3, 4, 1]
    assert sm.canon_R("B0", np.int64(5), np.int64(1)) == (("R", "B0", 5, 1),)
    assert all(type(x) is int
               for x in sm.canon_R("B0", np.int64(5), np.int64(1))[0][2:])
    assert np.array_equal(sm.construct_R(b0, np.int64(5), np.int64(2)).buffer,
                          sm.construct_R(b0, 5, 2).buffer)


@pytest.mark.hashseed
def test_inventory_shares_labels_and_verdicts():
    # every string and band module takes its labels and its per-vertex
    # label tuples from the shared tables of its StringModules, and every
    # LOCAL module records the one shared verdict
    for name in SYSTEMS:
        labels, tuples = {}, {}
        inventory = ctx(name).modules.theorem_inventory(8)
        for e in inventory:
            for t in e.rep.spaces.values():
                assert tuples.setdefault(t, t) is t
                for label in t:
                    assert labels.setdefault(label, label) is label
        assert len({id(homlab.is_indecomposable(e.rep))
                    for e in inventory}) == 1
    # a verdict is immutable, LOCAL or not
    M = inventory[0].rep
    assert M.indec.status == homlab.IndecVerdict.LOCAL
    for verdict in (M.indec, homlab.is_indecomposable(M.direct_sum(M))):
        for field in ("status", "certificate"):
            with pytest.raises(AttributeError, match="immutable"):
                setattr(verdict, field, None)
            with pytest.raises(AttributeError, match="immutable"):
                delattr(verdict, field)
    assert verdict.status == homlab.IndecVerdict.DECOMPOSABLE


def test_qband(tsys):
    sm = tsys.modules
    x = "x:1:2"
    blen = sm.calc.band_of(x).length
    for m in (1, 2):
        qb = sm.construct_Qband(x, m)
        assert qb.total_dim == m * blen + 1
    with pytest.raises(NotABand):
        sm.construct_Qband("x:1:1", 1)
    # construct_Qband checks its term through canon_Qb; m = 0 names no atom
    assert sm.canon_Qb(x, 0) == ()
    assert sm.canon_Qb(x, 2) == (("Qband", x, 2),)
    for v, m in ((x, -3), ("x:1:0", 2), ("x:1:1", 1)):
        with pytest.raises(NotABand):
            sm.canon_Qb(v, m)
    # away from v', Q(B, m) has the R(B, 1, m) skeleton
    qb = sm.construct_Qband(x, 2)
    r = sm.construct_R(sm.calc.band_of(x), 1, 2)
    vp_vertex = "x:1:1"
    for v in tsys.quiver.vertices:
        expect = r.dim(v) + (1 if v == vp_vertex else 0)
        assert qb.dim(v) == expect


@pytest.mark.parametrize("term", [
    ("R", ("alpha:1:1",), 5, 1),      # a string that is no band
    ("R", (), 5, 1),                  # a trivial string
    ("R", "nope", 5, 1),              # a band name the system lacks
    ("R", "B0", 5, -1),
    ("R", "B0", 0, 1),
    ("R", "x:1:2", DEFAULT_PRIME, 1),  # lambda = p, which is 0
    ("Qband", "x:1:1", 1),            # a vertex outside Q0''
    ("Qband", "nope", 1),             # a vertex the quiver lacks
    ("Qband", "x:1:2", -1),
    ("R", "B0", 5, 0),
    ("R", "x:1:2", 5, 0),
    ("Qband", "x:1:2", 0),
], ids=repr)
def test_band_terms_checked_by_canon(tsys, term):
    """construct_R, construct_Qband and atom check a band term only through
    canon_R and canon_Qb: each raises what the canon_* raises, of the same
    type, and m = 0, which names no atom, gives the zero module."""
    sm, calc = tsys.modules, tsys.calc
    assert sm.field.p == DEFAULT_PRIME
    tag, band, *params = term
    if isinstance(band, tuple):
        band = calc.word(band) if band else calc.trivial("x:1:0")
    if tag == "R":
        canon, build = sm.canon_R, sm.construct_R
        word = dict(calc.bands()).get(band, band)
    else:
        canon, build, word = sm.canon_Qb, sm.construct_Qband, band
    calls = (lambda: build(word, *params),
             lambda: sm.atom((tag, band, *params)))
    try:
        atoms = canon(band, *params)
    except ValueError as e:
        assert type(e) in (NotABand, LambdaZero)
        for call in calls:
            with pytest.raises(ValueError) as got:
                call()
            assert got.type is type(e)
    else:
        assert atoms == ()
        for call in calls:
            assert call().is_zero()


@pytest.mark.parametrize("call, message", [
    (lambda sm, c: sm.canon_L("x:1:0", c.trivial("x:1:0")), "not in Q0''"),
    (lambda sm, c: sm.canon_NCC("x:1:0", c.trivial("x:1:0"), EMPTY),
     "not in Q0'"),
    (lambda sm, c: sm.canon_NCC(
        "x:1:2", c.word(("beta:1:1",)),
        c.word(("alpha:1:3", "xi:1:1", "gamma:1:2", "beta:1:1",
                "alpha:1:1"))), "pair violates C' < B_x C"),
], ids=["canon_L_off_Q0dd", "canon_NCC_off_Q0d", "canon_NCC_above_BxC"])
def test_terms_outside_their_family(tsys, call, message):
    with pytest.raises(NotAPair, match=message):
        call(tsys.modules, tsys.calc)


@pytest.mark.parametrize("value", [
    StringWord(("alpha:1:1", "alpha:1:1")),  # a word that is no string
    "abc",                                   # no word at all
    StringWord((), "nope"),                  # a trivial word off the quiver
], ids=repr)
def test_m_terms_checked_by_canon(tsys, value):
    """construct_M and atom check an M term only through canon_M: each
    raises what canon_M raises, of the same type."""
    sm, calc = tsys.modules, tsys.calc
    key = calc.word_key(value) if isinstance(value, StringWord) else value
    with pytest.raises(ValueError) as want:
        sm.canon_M(value)
    assert want.type is NotAString
    for call in (lambda: sm.construct_M(value), lambda: sm.atom(("M", key))):
        with pytest.raises(ValueError) as got:
            call()
        assert got.type is want.type
    # EMPTY names no atom and gives the zero module
    assert sm.canon_M(EMPTY) == ()
    assert sm.construct_M(EMPTY).is_zero()


@pytest.mark.parametrize("call", [
    lambda sm, c, x, w: sm.canon_L(x, EMPTY),
    lambda sm, c, x, w: sm.construct_L(x, EMPTY),
    lambda sm, c, x, w: sm.canon_NCC(x, EMPTY, w),
    lambda sm, c, x, w: sm.construct_NCC(x, EMPTY, EMPTY),
    lambda sm, c, x, w: c.compare(EMPTY, w),
    lambda sm, c, x, w: c.successor(EMPTY),
    lambda sm, c, x, w: c.in_s_x(EMPTY, x),
    lambda sm, c, x, w: c.word_key(EMPTY),
    lambda sm, c, x, w: sm.canon_M("abc"),
    lambda sm, c, x, w: sm.canon_N(x, "abc"),
    lambda sm, c, x, w: sm.canon_NCC(x, StringWord(("nope",)),
                                     StringWord(("nope2",))),
], ids=["canon_L", "construct_L", "canon_NCC", "construct_NCC", "compare",
        "successor", "in_s_x", "word_key", "canon_M", "canon_N",
        "canon_NCC_unknown_letters"])
def test_no_string_where_one_is_needed(tsys, call):
    # each used to raise AttributeError or KeyError, which the rows did not
    # report as an anomaly; NotAString is a ValueError
    with pytest.raises(NotAString):
        call(tsys.modules, tsys.calc, "x:1:2", tsys.calc.trivial("x:1:2"))


def test_atom_names_a_band_of_the_system(tsys):
    # atom_dim, and atom on an R key, used to raise KeyError from the band
    # table
    sm = tsys.modules
    for key in (("R", "nope", 5, 1), ("Qband", "nope", 1),
                ("Qband", "B0", 1), ("Qband", "x:1:1", 1)):
        for read in (sm.atom, sm.atom_dim):
            with pytest.raises(NotABand):
                read(key)
    assert sm.atom_dim(("R", "x:1:2", 5, 2)) == sm.atom(
        ("R", "x:1:2", 5, 2)).total_dim
    assert sm.atom_dim(("Qband", "x:1:2", 2)) == sm.atom(
        ("Qband", "x:1:2", 2)).total_dim


@pytest.mark.parametrize("key", [
    ("Qband", "x:1:2", 0),   # m = 0: the zero module, of dimension 0
    ("R", "B0", 2, -1),
    ("Qband", "x:1:2", -2),
    ("R", "B0", 2, 1.5),
    ("R", "B0", 0, 1),
    (),
    ("M",),
    ("N", "x:1:2"),
    None,
    ("R", ["B0"], 2, 1),     # atom_dim hands it to canon_R as it is
    # B0 given as its word, not its name: atom built R(B0, 2, 1) from it
    ("R", StringWord(("alpha:1:1", "alpha:1:2", "beta:1:1")), 2, 1),
], ids=repr)
def test_atom_dim_reads_a_key_as_atom_does(tsys, key):
    """atom_dim raises, for a key of the wrong shape or a band term outside
    its family, a ValueError of the type atom raises; otherwise it is the
    dimension of atom's module.  Each used to give a number for a key that
    atom rejects or zeroes, or leak IndexError or TypeError."""
    sm = tsys.modules
    try:
        want = sm.atom(key).total_dim
    except ValueError as e:
        with pytest.raises(ValueError) as got:
            sm.atom_dim(key)
        assert got.type is type(e)
    else:
        assert sm.atom_dim(key) == want == 0


def test_qband_example_support(ex14):
    sm = ex14.modules
    qb = sm.construct_Qband("x:1:4", 1)
    dv = {v: d for v, d in qb.dim_vector().items() if d}
    assert dv.pop("x:1:3") == 1  # the extra v' at t(alpha_x)
    bx = sm.calc.band_of("x:1:4")
    _, I = sm.calc.index_sets(bx)
    support = {v for v, ps in I.items() if ps}
    assert set(dv) <= support


def test_check_relations_negative_control(tsys):
    # Q(B, 2) supports the binomial relation non-vacuously; flipping one
    # entry of gamma breaks it
    sm = tsys.modules
    rep = sm.construct_Qband("x:1:2", 2)
    assert not check_relations(rep, tsys.relations)
    maps = dict(rep.maps)
    maps["gamma:1:2"] = (maps["gamma:1:2"] + 1) % sm.field.p
    flipped = Representation(rep.quiver, rep.field, rep.spaces, maps)
    assert check_relations(flipped, tsys.relations)


def _all_vertex_violations(rep, relations):
    """Every relation evaluated by multiplying the arrow matrices along each
    term's path at every vertex, zero spaces included."""
    p = rep.field.p
    bad = []
    for rel in relations:
        acc = 0
        for coef, path in rel.terms:
            m = np.eye(rep.dim(rep.quiver.path_source(path)), dtype=np.int64)
            for a in reversed(path):  # the rightmost arrow acts first
                m = rep.maps[a] @ m % p
            acc = (acc + coef * m) % p
        if np.any(acc):
            bad.append((rel, acc))
    return bad


def _same_violations(got, want):
    return len(got) == len(want) and all(
        r1 is r2 and np.array_equal(m1, m2)
        for (r1, m1), (r2, m2) in zip(got, want))


def _path_module(c, path):
    """k at every vertex the path visits, 1 on each of its arrows: it
    violates a relation with the path as a term, and any other term that
    leaves these vertices passes through a zero space."""
    q = c.quiver
    on = {q.source[a] for a in path} | {q.target[a] for a in path}
    return Representation(q, c.field, {v: (("v",),) for v in on},
                          {a: [[1]] for a in q.arrows
                           if q.source[a] in on and q.target[a] in on})


@pytest.mark.parametrize("name", sorted(SYSTEMS))
def test_check_relations_matches_all_vertex_evaluation(name):
    """``check_relations`` reports what the all-vertex evaluation reports on
    every inventory entry, on the path module of every relation term, and
    on each of these with one map entry moved off by one.  The violations
    seen must include one where every term lies inside the support and,
    when a relation has two terms, one where a term is skipped."""
    c = ctx(name)
    p = c.field.p
    reps = [e.rep for e in c.modules.theorem_inventory(8)]
    assert all(check_relations(rep, c.relations) == [] for rep in reps)
    reps += [_path_module(c, path) for rel in c.relations
             for _, path in rel.terms]
    kinds = set()
    for rep in reps:
        controls = [None] + list(rep.support_arrows)
        for a in controls:
            tested = rep
            if a is not None:
                maps = dict(rep.maps)
                maps[a] = maps[a].copy()
                maps[a][0, 0] = (maps[a][0, 0] + 1) % p
                tested = Representation(rep.quiver, rep.field, rep.spaces,
                                        maps)
            want = _all_vertex_violations(tested, c.relations)
            got = check_relations(tested, c.relations)
            assert _same_violations(got, want), (rep, a)
            for rel, _ in want:
                support = set(tested.support_arrows)
                kinds.add(any(not support.issuperset(path)
                              for _, path in rel.terms))
    if c.relations:
        assert False in kinds
    if any(len(rel.terms) > 1 for rel in c.relations):
        assert True in kinds


def test_inventory_well_defined(tsys):
    for e in tsys.modules.theorem_inventory(8):
        assert not check_relations(e.rep, tsys.relations), e.key


def test_inventory_dim_formulas(tsys):
    calc = tsys.calc
    blen = {name: b.length for name, b in calc.bands()}
    for e in tsys.modules.theorem_inventory(9):
        d = e.rep.total_dim
        if e.tag == "M":
            assert d == len(e.params[0][0]) + 1
        elif e.tag == "N":
            assert d == len(e.params[1][0]) + 3
        elif e.tag == "L":
            assert d == len(e.params[1][0]) + 2
        elif e.tag == "NCC":
            assert d == len(e.params[1][0]) + len(e.params[2][0]) + 4
        elif e.tag == "R":
            assert d == e.params[2] * blen[e.params[0]]
        elif e.tag == "Qband":
            assert d == e.params[1] * blen[e.params[0]] + 1


def test_inventory_bound_one_is_simples(ex14):
    inv = ex14.modules.theorem_inventory(1)
    assert len(inv) == len(ex14.quiver.vertices)
    assert all(e.tag == "M" and e.rep.total_dim == 1 for e in inv)


@pytest.mark.parametrize("name", sorted(SYSTEMS))
def test_inventory_within_small_bounds(name):
    # bound 0 is empty: the simples (dimension 1) are above it
    c = ctx(name)
    for bound in range(4):
        inv = c.modules.theorem_inventory(bound)
        assert all(e.rep.total_dim <= bound for e in inv), bound
        assert inv or bound == 0
    report = homlab.ArVerifier(c.modules, c.algebra).verify(0)
    assert report["failures"] == [] and report["inventory_size"] == 0


def _same_module(a, b):
    return a.spaces == b.spaces and all(
        np.array_equal(a.maps[x], b.maps[x]) for x in a.quiver.arrows)


@pytest.mark.parametrize("name", sorted(SYSTEMS))
@pytest.mark.hashseed
def test_inventory_entries_are_their_atoms(name):
    # both sides are _build of the key: the inventory calls it directly,
    # with no canon_* re-check, and atom after its canon_* check; the module
    # is the same, label tuple, support arrow and buffer byte alike, of the
    # dimension read off the key
    sm = ctx(name).modules
    for bound in (8, 12):
        for e in sm.theorem_inventory(bound):
            rep = sm.atom(e.key)
            assert rep.spaces == e.rep.spaces, e.key
            assert rep.support_arrows == e.rep.support_arrows, e.key
            assert rep.buffer.tobytes() == e.rep.buffer.tobytes(), e.key
            assert sm.atom_dim(e.key) == e.rep.total_dim, e.key


def test_inventory_heap_guard():
    # a module holds its buffer, its labels dict over its support and a
    # few tuples, and no per-arrow view or dict: the ex14 inventory at 16
    # (1,763 entries, word caches and shared labels included) held 6.02 MiB
    # with a maps dict and a view per support arrow, 2.98 MiB without
    c = Ctx(SYSTEMS["ex14"])
    tracemalloc.start()
    try:
        inv = c.modules.theorem_inventory(16)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(inv) == 1763
    assert held < 4 * 2**20, held


def test_degenerate_terms_are_sums_of_their_atoms(tsys):
    # a degenerate N(C, C') or N_EMPTY is the direct sum of the atoms its
    # canon_* names, label for label
    sm, calc, x = tsys.modules, tsys.calc, "x:1:2"
    mu = calc.mu(x)
    gmu = calc.word(("gamma:1:2",) + mu.letters)
    bxmu = StringWord(calc.band_of(x).letters + mu.letters)
    for cp, summands in ((EMPTY, [sm.construct_M(gmu)]),
                         (mu, [sm.construct_N(x, mu), sm.construct_M(mu)]),
                         (bxmu, [sm.construct_L(x, bxmu),
                                 sm.construct_M(gmu)])):
        want = direct_sum_of(sm.quiver, sm.field, summands)
        assert _same_module(sm.construct_NCC(x, mu, cp), want), cp
    z = tsys.quiver.source["gamma:1:2"]
    assert _same_module(sm.construct_N(x, EMPTY),
                        sm.construct_M(calc.trivial(z)))
    with pytest.raises(NotAPair):
        sm.canon_NCC(x, calc.trivial(x), mu)  # out of order
    with pytest.raises(NotAPair):
        sm.canon_L(x, mu)  # no B_x prefix
    with pytest.raises(ValueError):
        sm.atom(("X", x))


def test_ncc_with_empty_needs_c_in_s_x(tsys):
    # N(C, EMPTY) = M(gamma_x C) is a term of the family only for C in S_x;
    # e(x:1:0) is not in S_x at x:1:2, though gamma_x e(x:1:0) is a string
    sm, calc, x = tsys.modules, tsys.calc, "x:1:2"
    outside = calc.trivial("x:1:0")
    assert not calc.in_s_x(outside, x)
    calc.word(("gamma:1:2",))  # NotAString were it no string
    for call in (sm.canon_NCC, sm.construct_NCC):
        with pytest.raises(NotAPair):
            call(x, outside, EMPTY)
        with pytest.raises(NotAString):
            call(x, EMPTY, EMPTY)
    mu = calc.mu(x)
    assert sm.canon_NCC(x, mu, EMPTY) == sm.canon_M(
        calc.word(("gamma:1:2",) + mu.letters))


# sha256 of every inventory entry's key, spaces and arrow maps, in order
INVENTORY_DIGESTS = {
    ("ex14", 12): (844, "448e50bdb169338b3c0301f6556cda77"
                        "89181ab1fc005fb6509836ada0ba45de"),
    ("tsys", 16): (398, "b233629295d55f2027828c3f8c97943d"
                        "a0c1f72a6372aeda10dd99b69fac12ed"),
    ("s24", 12): (164, "d69d78a203a301d1da7f57f51439306698"
                       "b22be128d8dc22b508b3161f0ede95"),
}


@pytest.mark.parametrize("name, bound", sorted(INVENTORY_DIGESTS))
@pytest.mark.hashseed
def test_inventory_matrices_pinned(name, bound):
    # the stdout pins see only the modules inside checked rows'
    # certificates; this pins every matrix of the inventory byte for byte
    c = ctx(name)
    inv = c.modules.theorem_inventory(bound)
    h = hashlib.sha256()
    for e in inv:
        h.update(repr(e.key).encode())
        h.update(repr(sorted(e.rep.spaces.items())).encode())
        for a in c.quiver.arrows:
            m = e.rep.maps[a]
            h.update(f"{a}{m.shape}{m.dtype}".encode())
            h.update(m.tobytes())
    assert (len(inv), h.hexdigest()) == INVENTORY_DIGESTS[name, bound]


def test_inventory_fundamental_families(fund21):
    tags = {e.tag for e in fund21.modules.theorem_inventory(9)}
    assert tags == {"M", "R"}


def test_inventory_boundary_dimensions(ex14):
    # L(B_{x:1:4} . trivial) has dim 7 and M(B_{x:1:4}) dim 6: both excluded
    # at bound 5, included at their exact dimensions
    inv5 = {e.key for e in ex14.modules.theorem_inventory(5)}
    inv7 = {e.key for e in ex14.modules.theorem_inventory(7)}
    calc = ex14.calc
    bx = calc.band_of("x:1:4")
    lkey = ("L", "x:1:4", calc.word_key(bx))
    mkey = ("M", calc.word_key(bx))
    assert lkey not in inv5 and mkey not in inv5
    assert lkey in inv7 and mkey in inv7
    assert max(e.rep.total_dim for e in ex14.modules.theorem_inventory(5)) <= 5


def test_representation_json(tsys):
    rep = tsys.modules.construct_Qband("x:1:2", 1)
    obj = rep.to_json_obj()
    assert obj["field"] == tsys.field.p
    assert json.dumps(obj, sort_keys=True)
    total = sum(len(v) for v in obj["spaces"].values())
    assert total == rep.total_dim


def test_representation_rejects_bad_input(fund21):
    # ValueError, not assert, so the checks also hold under python -O
    from tworay.field import PrimeField

    q, F = fund21.quiver, fund21.field
    spaces = {"x:1:0": (("c", 0),), "x:1:1": (("c", 0),)}
    with pytest.raises(ValueError, match="bad shape for alpha:1:1"):
        Representation(q, F, spaces, {"alpha:1:1": np.ones((3, 2))})
    with pytest.raises(ValueError, match="duplicate labels at x:1:0"):
        Representation(q, F, {"x:1:0": (("c", 0), ("c", 0))}, {})
    with pytest.raises(ValueError, match="unknown vertex 'nope'"):
        Representation(q, F, {"x:1:0": (("c", 0),), "nope": (("c", 0),)}, {})
    with pytest.raises(ValueError, match="unknown arrow 'alpha:9:9'"):
        Representation(q, F, spaces, {"alpha:9:9": np.ones((1, 1))})
    simple = Representation(q, F, spaces, {"alpha:1:1": [[1]]})
    other = Representation(q, PrimeField(7), spaces, {})
    with pytest.raises(ValueError, match="different quivers or fields"):
        simple.direct_sum(other)


def test_direct_sum_of_one_summand_is_itself(tsys):
    # one summand has the empty tag; with more, the labels are those of the
    # left fold of direct_sum, and the maps are block diagonal
    q, F, sm = tsys.quiver, tsys.field, tsys.modules
    a = sm.construct_Qband("x:1:2", 1)
    b = sm.construct_M(tsys.calc.mu("x:1:2"))
    assert direct_sum_of(q, F, [a]) is a
    ab = direct_sum_of(q, F, [a, b])
    for v in q.vertices:
        assert ab.spaces[v] == (tuple(("L",) + l for l in a.spaces[v])
                                + tuple(("R",) + l for l in b.spaces[v]))
    aba = direct_sum_of(q, F, [a, b, a])
    fold = ab.direct_sum(a)
    assert aba.spaces == fold.spaces and aba.spaces["x:1:2"][0][:2] == (
        "L", "L")
    for x in q.arrows:
        assert np.array_equal(aba.maps[x], fold.maps[x])
        assert np.array_equal(ab.maps[x][:a.dim(q.target[x]),
                                         :a.dim(q.source[x])], a.maps[x])


def test_quivers_built_alike_are_one_quiver():
    # equal and of one hash when vertices and arrows agree, whatever the
    # object; the quivers of two different systems differ
    twin = Ctx(SYSTEMS["tsys"]).quiver
    q = ctx("tsys").quiver
    assert twin is not q and twin == q and hash(twin) == hash(q)
    assert not twin != q and {q: 1}[twin] == 1
    quivers = [ctx(name).quiver for name in sorted(SYSTEMS)]
    for i, a in enumerate(quivers):
        for j, b in enumerate(quivers):
            assert (a == b) == (i == j) and (a != b) == (i != j)
    assert q != "tsys" and q != q.ds


def test_direct_sum_of_summands_over_a_quiver_built_alike(tsys):
    # a summand built over an equal quiver object sums as one built over
    # the sum's own; an unequal quiver still raises
    q, F = tsys.quiver, tsys.field
    twin = Ctx(SYSTEMS["tsys"])

    def summands(c):
        return [c.modules.construct_Qband("x:1:2", 1),
                c.modules.construct_M(c.calc.mu("x:1:2")),
                c.modules.construct_R(c.calc.band_b0(), 3, 2)]

    ours, theirs = summands(tsys), summands(twin)
    want = direct_sum_of(q, F, ours)
    for mixed in ([ours[0], theirs[1], ours[2]],
                  [theirs[0], ours[1], theirs[2]], theirs):
        got = direct_sum_of(q, F, mixed)
        assert got.quiver is q
        assert got.dims == want.dims and got.labels == want.labels
        assert got.support_arrows == want.support_arrows
        assert got.buffer.tobytes() == want.buffer.tobytes()
    other = ctx("s_only").modules.construct_M(ctx("s_only").calc.mu("x:1:2"))
    with pytest.raises(ValueError, match="different quivers or fields"):
        direct_sum_of(q, F, [ours[0], other])
    with pytest.raises(ValueError, match="different quivers or fields"):
        ours[0].direct_sum(other)


def test_check_relations_rejects_an_arrow_the_quiver_lacks(tsys, ex14):
    # ex14's relations name arrows that tsys lacks; a term off the support
    # was once skipped, so all 107 tsys entries at 8 passed them
    entries = tsys.modules.theorem_inventory(8)
    assert len(entries) == 107
    for e in entries:
        with pytest.raises(ValueError, match=r"names arrow \S+, which the "
                                             r"quiver lacks"):
            check_relations(e.rep, ex14.relations)
    # a relation of the module's own quiver that lies off its support holds
    simple = tsys.modules.construct_M(tsys.calc.trivial("x:1:0"))
    assert check_relations(simple, tsys.relations) == []


def test_support_arrow_maps_are_read_only(tsys):
    # invariants recorded on a module cannot go stale under it; the
    # caller's own matrices stay writeable
    rep = tsys.modules.construct_Qband("x:1:2", 2)
    assert rep.support_arrows
    for a in rep.support_arrows:
        with pytest.raises(ValueError, match="read-only"):
            rep.maps[a][0, 0] = 1
        with pytest.raises(TypeError):
            rep.maps[a] = rep.maps[a].copy()
    given = {a: rep.maps[a].copy() for a in rep.support_arrows}
    copy = Representation(rep.quiver, rep.field, rep.spaces, given)
    for a in copy.support_arrows:
        assert not copy.maps[a].flags.writeable
        given[a][0, 0] += 1


@pytest.mark.hashseed
def test_representation_input_paths(tsys):
    """Nested lists, int64 arrays and unreduced input of either kind give
    one module: equal read-only maps that share no memory with the caller's,
    and off the support the shared zero-size block of shape dim N_t x 0 or
    0 x dim N_s, which ``homlab._hom_kernel`` reads to emit its one-term
    equations."""
    q, F, p = tsys.quiver, tsys.field, tsys.field.p
    word = tsys.calc.word(("xi:1:1", "gamma:1:2", "alpha:1:3", "xi:1:1",
                           "gamma:1:2", "beta:1:1"))
    spaces = tsys.modules.construct_M(word).spaces
    shape = {a: (len(spaces[q.target[a]]), len(spaces[q.source[a]]))
             for a in q.arrows}
    assert {(r > 0, c > 0) for r, c in shape.values()} == {
        (True, True), (True, False), (False, True)}
    arrays = {a: (np.arange(r * c).reshape(r, c) * 7919 + 1) % p
              for a, (r, c) in shape.items() if r and c}
    want = {a: m.copy() for a, m in arrays.items()}
    built = [Representation(q, F, spaces, arrays),
             Representation(q, F, spaces,
                            {a: m.tolist() for a, m in arrays.items()}),
             Representation(q, F, spaces,
                            {a: m - 2 * p for a, m in arrays.items()}),
             Representation(q, F, spaces,
                            {a: m + 5 * p for a, m in arrays.items()}),
             Representation(q, F, spaces,
                            {a: (m - 2 * p).tolist() for a, m in arrays.items()}),
             Representation(q, F, spaces,
                            {a: (m + 5 * p).tolist() for a, m in arrays.items()})]
    for a, m in arrays.items():
        m += 1  # the caller's arrays stay writeable
    for rep in built:
        assert rep.support_arrows == tuple(arrays)
        for a, (r, c) in shape.items():
            m = rep.maps[a]
            assert m.shape == (r, c)
            if not (r and c):
                assert m is string_modules.zero_size_block(r, c)
                continue
            assert np.array_equal(m, want[a]) and m.dtype == np.int64
            assert not np.shares_memory(m, arrays[a])
            with pytest.raises(ValueError, match="read-only"):
                m[0, 0] = 0
    with pytest.raises(ValueError, match="unknown arrow 'alpha:9:9'"):
        Representation(q, F, spaces, {"alpha:9:9": []})
    with pytest.raises(ValueError, match="duplicate labels at x:1:0"):
        Representation(q, F, {"x:1:0": (("c",), ("c",))}, {})


def _check_layout(rep):
    """A module's layout against a walk over every vertex and arrow of its
    quiver, derived from its spaces alone; and its ``maps`` made from its
    buffer: every arrow in quiver order, a support arrow's map a read-only
    dim M_t x dim M_s view of the next segment of the buffer, in
    ``support_arrows`` order, any other arrow's the shared zero-size block,
    and the dense constructor, given every map, packs the same buffer.
    ``spaces`` is a new dict on each read, built from ``labels``, which
    holds the support alone."""
    q, spaces, maps = rep.quiver, rep.spaces, rep.maps
    assert list(spaces) == q.vertices
    again = rep.spaces
    assert again is not spaces and again == spaces
    v = q.vertices[0]
    again[v] += (("written",),)
    assert rep.spaces == spaces and rep.dim(v) == len(spaces[v])
    assert rep.labels == {v: spaces[v] for v in rep.support}
    assert all(spaces[v] == () for v in q.vertices if v not in rep.support)
    with pytest.raises(KeyError):
        rep.dim("nope")
    assert rep.dims == tuple(len(spaces[v]) for v in q.vertices)
    assert rep.support == tuple(v for v in q.vertices if spaces[v])
    assert rep.support_arrows == tuple(
        a for a in q.arrows if spaces[q.source[a]] and spaces[q.target[a]])
    assert rep.buffer.dtype == np.int64
    assert list(maps) == q.arrows and len(maps) == len(q.arrows)
    offset = 0
    for a in q.arrows:
        m = maps[a]
        shape = (len(spaces[q.target[a]]), len(spaces[q.source[a]]))
        assert m.shape == shape and not m.flags.writeable, a
        if a not in rep.support_arrows:
            assert m is string_modules.zero_size_block(*shape), a
            continue
        assert np.shares_memory(m, rep.buffer), a
        assert np.array_equal(m.ravel(), rep.buffer[offset: offset + m.size])
        offset += m.size
    assert offset == rep.buffer.size
    again = Representation(q, rep.field, rep.spaces, dict(maps))
    assert again.buffer.tobytes() == rep.buffer.tobytes()


def test_module_layout_matches_a_quiver_walk():
    # a module walks only its support and the arrows out of it; its layout
    # must be the one a walk over the whole quiver gives (the inventory
    # entries are checked by test_arrow_maps_made_from_the_buffer)
    c = ctx("tsys")
    inv = [e.rep for e in c.modules.theorem_inventory(8)]
    A, B, f = next((A, B, fs[0]) for A in inv for B in inv
                   if A.total_dim < B.total_dim
                   for fs in [homlab.hom_basis(A, B)] if fs)
    cokernel, _ = homlab.cokernel_rep(A, B, f)
    dtr = next(t for M in inv
               if not homlab.is_projective(M, c.algebra)
               for t in [homlab.ar_translate(M, c.algebra)] if t.support_arrows)
    total = direct_sum_of(c.quiver, c.field, inv[:3])
    for rep in (cokernel, dtr, total):
        assert rep.support_arrows
        _check_layout(rep)


@pytest.mark.parametrize("name", sorted(SYSTEMS))
@pytest.mark.hashseed
def test_arrow_maps_made_from_the_buffer(name):
    # the buffer is a module's one copy of its maps, on every way in: the
    # families' layout, the dense constructor (P(v), direct sums) and the
    # modules homlab computes (DTr)
    c = ctx(name)
    inv = [e.rep for e in c.modules.theorem_inventory(8)]
    projectives = [c.algebra.projective_module(v) for v in c.quiver.vertices]
    dtr = next(t for M in inv if not homlab.is_projective(M, c.algebra)
               for t in [homlab.ar_translate(M, c.algebra)] if t.support)
    total = direct_sum_of(c.quiver, c.field, inv[-3:])
    for rep in inv + projectives + [dtr, total]:
        _check_layout(rep)


@pytest.mark.parametrize("name", sorted(SYSTEMS))
def test_every_degenerate_term_is_built_from_its_atoms(name):
    # every construct_* ends in the direct sum of its canon_* atoms, so a
    # degenerate N or NCC term is the sum of the atoms' modules, label
    # tuple, support arrow and buffer byte alike, and m = 0 the zero module
    c = ctx(name)
    sm, calc, q, bound = c.modules, c.calc, c.quiver, 8
    terms = [(sm.construct_N, (x, EMPTY), sm.canon_N(x, EMPTY))
             for x in q.q0_primed()]
    for x in q.q0_primed():
        bx = calc.band_of(x)
        pairs = [(w, w) for w in calc.s_x(x, bound)]
        pairs += [(w, EMPTY) for w in calc.s_x(x, bound)]
        if not bx.is_trivial:
            pairs += [(w, StringWord(bx.letters + w.letters))
                      for w in calc.s_x(x, bound - bx.length)]
        terms += [(sm.construct_NCC, (x, *pair), sm.canon_NCC(x, *pair))
                  for pair in pairs]
    terms += [(sm.construct_R, (band, lam, 0), sm.canon_R(band_name, lam, 0))
              for band_name, band in calc.bands() for lam in sm.lams]
    terms += [(sm.construct_Qband, (x, 0), sm.canon_Qb(x, 0))
              for x in q.q0_doubleprimed()]
    for construct, args, atoms in terms:
        rep = construct(*args)
        want = direct_sum_of(q, c.field, [sm.atom(a) for a in atoms])
        assert rep.spaces == want.spaces, args
        assert rep.support_arrows == want.support_arrows, args
        assert rep.buffer.tobytes() == want.buffer.tobytes(), args
        _check_layout(rep)
    sizes = {len(atoms) for _, _, atoms in terms}
    assert sizes == ({0, 1, 2} if q.q0_primed() else {0})


def test_basis_label_order(tsys):
    sm = tsys.modules
    calc = tsys.calc
    x = "x:1:2"
    rep = sm.construct_NCC(x, calc.mu(x), calc.trivial(x))
    labels = rep.spaces[x]
    kinds = [l[0] for l in labels]
    assert kinds == sorted(kinds, key=["vpp", "vp", "v", "vq", "vb"].index)


# the basis label order at every vertex: v'' < v' < v_i < v_i' < v_i^(j)
_LABEL_RANK = {"vpp": 0, "vp": 1, "v": 2, "vq": 3, "vb": 4}


def _label_key(label):
    return (_LABEL_RANK[label[0]],) + tuple(label[1:])


@pytest.mark.parametrize("name", sorted(SYSTEMS))
def test_row_atom_labels_built_in_order(name):
    # the constructors add each vertex's labels in the order of the key;
    # the atoms of the rows at 12 reach past the pinned inventories
    c = ctx(name)
    rows = homlab.ArVerifier(c.modules, c.algebra).rows(12)
    atoms = {a for row in rows for part in ("left", "middle", "right")
             for a in row[part]}
    assert atoms
    for a in sorted(atoms, key=repr):
        for labels in c.modules.atom(a).spaces.values():
            assert list(labels) == sorted(labels, key=_label_key), a


GOLDEN_NCC = {
    "field": 32003,
    "maps": {"alpha:1:1": [[0]], "alpha:1:2": [[1, 1]],
             "beta:1:1": [[1, 0]], "gamma:1:2": [[1], [0]]},
    "spaces": {"x:1:0": ["v|1"], "x:1:1": ["vp"],
               "x:1:2": ["v|0", "vq|0"], "z:1:2": ["vpp"]},
}

GOLDEN_QBAND = {
    "field": 32003,
    "maps": {"alpha:1:2": [[1]], "alpha:1:3": [[1]],
             "gamma:1:2": [[1]], "xi:1:1": [[1]]},
    "spaces": {"x:1:1": ["vp"], "x:1:2": ["vb|1|0"],
               "x:1:3": ["vb|1|1"], "z:1:2": ["vb|1|2"]},
}


def test_golden_matrices(tsys):
    # basis layout and matrix entries are pinned byte-for-byte
    ncc = tsys.modules.construct_NCC("x:1:2", tsys.calc.mu("x:1:2"),
                                     tsys.calc.trivial("x:1:2"))
    assert ncc.to_json_obj() == GOLDEN_NCC
    qb = tsys.modules.construct_Qband("x:1:2", 1)
    assert qb.to_json_obj() == GOLDEN_QBAND
