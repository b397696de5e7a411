import hashlib

import numpy as np
import pytest

from tworay import build_quiver, build_relations, AlgebraBasis, vsc
from tworay.defining_system import admissible_vertices
from tworay.field import PrimeField
from tworay.homlab import compose_maps, hom_basis, hom_space
from tworay.string_modules import Representation
from tworay.vsc import (_build_k, _build_l1, _build_lf,
                        hom_pattern_of_functor, i_lemma_vertices,
                        interval_poset, lemma, match_model, measure_pattern)

from conftest import SYSTEMS, ctx


def test_poset_operations():
    I = interval_poset(2, 5)
    assert I.minimum == ("int", 2)
    assert I.prime().elements == (("int", 2), ("int", 3), ("int", 4))
    assert not I.prime().max_present
    J = interval_poset(7, 8)
    s = I.ordered_sum(J)
    assert s.elements[0] == ("int", 2) and s.elements[-1] == ("int", 8)


def test_l1_model_smallest():
    model = _build_l1(interval_poset(1, 1))
    x, y = ("X", ("int", 1)), ("Y", ("int", 1))
    assert set(model.objects) == {x, y}
    assert model.hom(x, x) == model.hom(x, y) == model.hom(y, y) == 1
    assert model.hom(y, x) == 0


def test_k_model_single_poset():
    # one poset of size 2: I' drops the maximum, leaving a single object
    model = _build_k([interval_poset(1, 2)])
    assert model.objects == [("X", 1, ("int", 1))]
    # size 3 gives two objects with an upper-triangular pattern
    model3 = _build_k([interval_poset(1, 3)])
    a, b = ("X", 1, ("int", 1)), ("X", 1, ("int", 2))
    assert model3.objects == [a, b]
    assert model3.hom(a, b) == 1 and model3.hom(b, a) == 0
    assert model3.hom(a, a) == model3.hom(b, b) == 1


def test_k_model_two_posets():
    model = _build_k([interval_poset(1, 3), interval_poset(4, 5)])
    assert ("Xp", 1) in model.objects and ("Xpp", 1) in model.objects
    assert model.hom(("Xp", 1), ("Xpp", 1)) == 0  # strict p < q required
    assert model.hom(("X", 1, ("int", 1)), ("Xpp", 1)) == 1
    assert model.hom(("Xpp", 1), ("X", 2, ("int", 4))) == 1
    assert model.hom(("X", 2, ("int", 4)), ("X", 1, ("int", 1))) == 0


def test_lf_model_dim_two_cells():
    model = _build_lf([interval_poset(0, 2), interval_poset(3, 5)])
    x_min_i1 = ("X", 1, ("int", 3))
    assert model.objdim[x_min_i1] == 2
    assert all(d == 1 for o, d in model.objdim.items() if o != x_min_i1)
    twos = {pair for pair, d in model.homdim.items() if d == 2}
    assert twos == {(("X", 0, ("int", 0)), x_min_i1),
                    (("X", 0, ("int", 1)), x_min_i1)}
    assert model.hom(("Y", ("int", 0)), x_min_i1) == 1
    assert model.hom(("Y", ("int", 0)), ("Z",)) == 1
    assert model.hom(("Xpp", 0), ("Z",)) == 1
    assert model.hom(("Xp", 0), ("Z",)) == 0


def test_model_composability():
    # listed hom pairs compose: hom(u,v) and hom(v,w) nonzero forces
    # hom(u,w) nonzero, except through the corrected X_{min I1} -> Z cell
    # (there the measured composites genuinely vanish in the quotient)
    models = [
        _build_k([interval_poset(1, 3), interval_poset(4, 6)]),
        _build_l1(interval_poset(1, 4)),
        _build_lf([interval_poset(0, 2), interval_poset(3, 4),
                   interval_poset(5, 6)]),
    ]
    def special(u, v):
        # the two lane-changing cells of the L-family: Y -> X_{min I1} and
        # X_{min I1} -> Z; composites through them genuinely vanish
        into_min = u[0] == "Y" and v[0] == "X"
        out_of_min = v == ("Z",) and u[0] == "X" and u[1] == 1
        return into_min or out_of_min

    for model in models:
        for u in model.objects:
            for v in model.objects:
                if not model.hom(u, v):
                    continue
                for w in model.objects:
                    if model.hom(v, w):
                        if special(u, v) or special(v, w):
                            continue
                        assert model.hom(u, w), (u, v, w)


def test_lemma_patterns_small_systems():
    for name in ("fund21", "fund32", "tsys"):
        c = ctx(name)
        for v in sorted(str(a) for a in admissible_vertices(c.ds)):
            for which in ("R", "X"):
                _, _, rep = hom_pattern_of_functor(c.modules, v, which, 5)
                assert rep["ok"], (name, v, which, rep["mismatches"][:3])
        for v in i_lemma_vertices(c.quiver):
            _, _, rep = hom_pattern_of_functor(c.modules, v, "I", 5)
            assert rep["ok"], (name, v, rep["mismatches"][:3])


def test_lemma_pattern_z_kind_multi_poset():
    c = ctx("s24")
    model, measured, rep = hom_pattern_of_functor(c.modules, "z:1:2", "R", 4)
    assert rep["ok"]
    assert model.kind == "LF"
    # r = 1 here: posets I_0, I_1 = [2,3] + C_{x:1:4}, I_2 = [4,6]
    assert any(o[0] == "Xpp" and o[1] == 1 for o in model.objects)


def test_match_model_detects_truncation_skew():
    c = ctx("fund21")
    model, R, assign = lemma(c.modules, "x:1:2", "R", 3)
    measured = measure_pattern(R, assign)
    # deliberately compare against a model built from a longer truncation:
    # the poset gains elements and the object sets disagree
    model_long, _, assign_long = lemma(c.modules, "x:1:2", "R", 5)
    assert len(assign_long) > len(assign)
    report = match_model(measured, model_long,
                         objects=sorted(assign_long, key=repr))
    assert not report["ok"]


def test_vacuous_truncation():
    c = ctx("tsys")
    model, measured, rep = hom_pattern_of_functor(c.modules, "x:1:3", "I", 5)
    assert measured[0] == [] and rep["ok"]


def test_one_point_extension_dimension_bookkeeping():
    # dim A[R] = dim A + dim R + 1, cross-checked against the algebra of the
    # extended defining system
    from tworay.defining_system import extend

    for name in ("fund21", "fund32", "s24", "ex14"):
        c = ctx(name)
        for v in sorted(admissible_vertices(c.ds), key=str):
            _, R, _ = lemma(c.modules, str(v), "R", 0)
            extended = extend(c.ds, v)
            q2 = build_quiver(extended)
            a2 = AlgebraBasis(q2, build_relations(extended, q2), c.field)
            assert a2.dimension == c.algebra.dimension + R.total_dim + 1, (
                name, str(v))



# -- measure_pattern against the per-map reference --------------------------------


def _dict_measure(R, assign, F, quiver):
    """The pattern from ``hom_basis`` maps: each composite f h formed with
    ``compose_maps``, flattened over every vertex, and written in the
    flattened Hom(R, v) basis by one solve per pair (u, v)."""
    def flat(f):
        return np.concatenate([f[w].reshape(-1) for w in quiver.vertices])

    objects = sorted(assign, key=repr)
    from_r = {o: hom_basis(R, assign[o]) for o in objects}
    homdim = {}
    for u in objects:
        for v in objects:
            fs = hom_basis(assign[u], assign[v])
            comps = [flat(compose_maps(F, f, h)) for f in fs for h in from_r[u]]
            homdim[(u, v)] = 0
            if comps and from_r[v]:
                coords = F.solve(np.stack([flat(h) for h in from_r[v]], axis=1),
                                 np.stack(comps, axis=1))
                assert coords is not None
                homdim[(u, v)] = F.rank(coords.T.reshape(len(fs), -1))
    return objects, {o: len(from_r[o]) for o in objects}, homdim


def _lemmas(c, bound):
    """(R, assign) of every R, X and I lemma of a system."""
    picks = [(v, which) for v in sorted(map(str, admissible_vertices(c.ds)))
             for which in ("R", "X")]
    picks += [(v, "I") for v in i_lemma_vertices(c.quiver)]
    return [lemma(c.modules, v, which, bound)[1:] for v, which in picks]


def _counted_solves(monkeypatch):
    """The pairs ``measure_pattern`` hands to ``hom_spaces``, one list per
    batch."""
    batches = []
    hom_spaces = vsc.hom_spaces

    def counted(pairs):
        batches.append(list(pairs))
        return hom_spaces(batches[-1])

    monkeypatch.setattr(vsc, "hom_spaces", counted)
    return batches


@pytest.mark.parametrize("name", sorted(SYSTEMS))
def test_measure_pattern_matches_dict_reference(name, monkeypatch):
    # the composites read from the kernel arrays give the reference's
    # objdim and homdim, with one memo for every lemma as with one each
    c = ctx(name)
    lemmas = _lemmas(c, 4)
    batches = _counted_solves(monkeypatch)
    fresh = [measure_pattern(R, assign) for R, assign in lemmas]
    fresh_solves = sum(map(len, batches))
    spaces = {}
    shared = [measure_pattern(R, assign, spaces)
              for R, assign in lemmas]
    assert shared == fresh
    objects = any(got[0] for got in fresh)  # none on tsys at length 4
    shared_solves = sum(map(len, batches)) - fresh_solves
    assert shared_solves < fresh_solves or not objects
    nonzero = 0
    for (R, assign), got in zip(lemmas, fresh):
        assert got == _dict_measure(R, assign, c.field, c.quiver)
        nonzero += any(got[2].values())
    assert nonzero or not objects


def test_hom_space_memo_key_is_content(fund21, monkeypatch):
    # modules built apart with one content share an entry, one changed map
    # entry makes a new one, and Hom(a, a) = Hom(a, b) is solved once
    sm, calc = fund21.modules, fund21.calc
    word = calc.word(("alpha:1:1", "alpha:1:2"))
    a, b = sm.construct_M(word), sm.construct_M(word)
    arrow = a.support_arrows[0]
    maps = {x: m.copy() for x, m in a.maps.items()}
    maps[arrow][0, 0] += 1
    c = Representation(a.quiver, a.field, a.spaces, maps)
    assert a is not b and vsc._content(a) == vsc._content(b)
    assert vsc._content(c) != vsc._content(a)
    batches = _counted_solves(monkeypatch)
    spaces = {}
    measure_pattern(a, {"a": a, "b": b, "c": c}, spaces)
    ka, kc = vsc._content(a), vsc._content(c)
    # the first batch, Hom(R = a, -): Hom(a, a) = Hom(a, b) once, Hom(a, c)
    assert [(vsc._content(M), vsc._content(N)) for M, N in batches[0]] == [
        (ka, ka), (ka, kc)]
    assert sum(map(len, batches)) == len(spaces)


def test_hom_space_memo_key_holds_the_field(tsys, monkeypatch):
    # one quiver and one content over GF(3) and GF(5), with one memo: the
    # GF(5) pair is solved again, and gets its own kernel
    q = tsys.quiver
    spaces = {"x:1:0": (("c", 0),), "x:1:1": (("c", 0),)}
    batches = _counted_solves(monkeypatch)
    memo = {}
    for p, want in ((3, [[2, 1]]), (5, [[3, 1]])):
        F = PrimeField(p)
        M = Representation(q, F, spaces, {"alpha:1:1": [[2]]})
        N = Representation(q, F, spaces, {"alpha:1:1": [[1]]})
        measure_pattern(M, {"n": N}, memo)
        assert batches[-2] == [(M, N)]  # Hom(M, N), then Hom(N, N)
        kernel, _ = memo[vsc._content(M), vsc._content(N)]
        assert kernel.tolist() == want == hom_space(M, N)[0].tolist()
    assert len(memo) == 4


@pytest.mark.parametrize("vertex, which", [
    ("y:1:1", "R"),  # not a vertex of the quiver
    ("x:1:0", "R"),  # a vertex, but not admissible
    ("x:1:1", "X"),  # x:1:2 is in S_1, so x:1:1 is not admissible
    ("z:1:8", "Q"),  # an admissible vertex, but no such lemma
])
def test_lemma_outside_its_sites_rejected(ex14, vertex, which):
    assert (vertex, which) not in vsc.lemma_sites(ex14.quiver)
    with pytest.raises(ValueError) as err:
        hom_pattern_of_functor(ex14.modules, vertex, which, 6)
    assert vertex in str(err.value) and repr(which) in str(err.value)


# the number of objects each lemma site compares at string length 6
OBJECT_COUNTS = {
    "ex14": {("z:1:8", "R"): 30, ("z:1:8", "X"): 11, ("z:2:2", "R"): 17,
             ("z:2:2", "X"): 6, ("x:1:7", "I"): 16, ("x:2:1", "I"): 10,
             ("x:2:3", "I"): 0},
    "s24": {("z:1:2", "R"): 27, ("z:1:2", "X"): 6, ("z:1:4", "R"): 17,
            ("z:1:4", "X"): 6, ("x:1:1", "I"): 20, ("x:1:3", "I"): 10,
            ("x:1:5", "I"): 0},
    "fund32": {**{(v, which): n for v in ("x:1:2", "x:1:3", "x:2:2")
                  for which, n in (("R", 14), ("X", 6))},
               ("x:1:1", "I"): 2, ("x:1:2", "I"): 1, ("x:1:3", "I"): 0,
               ("x:2:1", "I"): 1, ("x:2:2", "I"): 0},
}


@pytest.mark.parametrize("name", sorted(OBJECT_COUNTS))
def test_lemma_object_counts_pinned(name):
    # the assignment is read off the model, so a model that lost objects
    # would still match; the counts pin the models themselves
    c = ctx(name)
    counts = {(v, which): hom_pattern_of_functor(c.modules, v, which, 6)[2]
              ["objects"] for v, which in vsc.lemma_sites(c.quiver)}
    assert counts == OBJECT_COUNTS[name]


def test_lemma_models_pinned():
    # every model of every lemma site of the eight systems at lemma lengths
    # 4, 6 and 8: its kind, objects, object dimensions and hom dimensions
    digest, count = hashlib.sha256(), 0
    for name in SYSTEMS:
        c = ctx(name)
        for bound in (4, 6, 8):
            for v, which in vsc.lemma_sites(c.quiver):
                model, _, _ = lemma(c.modules, v, which, bound)
                digest.update(repr((
                    model.kind, model.objects,
                    sorted(model.objdim.items(), key=repr),
                    sorted(model.homdim.items(), key=repr))).encode())
                count += 1
    assert count == 144
    assert digest.hexdigest() == (
        "619230a4adf1f19ef47c59e3ad84b908e964fa006b79b6ea6b83e129742b3ad8")


def test_lemma_modules_pinned():
    # the designated module R and the objects' modules of every lemma site
    # of the eight systems at lemma lengths 4, 6 and 8: the spaces, then
    # each map's arrow, shape and entries, objects in repr order
    digest, count = hashlib.sha256(), 0

    def add(M):
        digest.update(repr(M.spaces).encode())
        for a, m in M.maps.items():
            digest.update(repr((a, m.shape)).encode())
            digest.update(m.tobytes())

    for name in SYSTEMS:
        c = ctx(name)
        for bound in (4, 6, 8):
            for v, which in vsc.lemma_sites(c.quiver):
                _, R, assign = lemma(c.modules, v, which, bound)
                add(R)
                for o in sorted(assign, key=repr):
                    add(assign[o])
                count += 1
    assert count == 144
    assert digest.hexdigest() == (
        "9541eb4716fbb0b0bb702037151dfa16d9e1a4544e50cc35126a6c9d93bacf7e")
