import collections
import contextlib
import gc
import hashlib
import itertools
import io
import json
import types

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from tworay import (StringModules, StringWord, ar_translate, hom_basis,
                    is_indecomposable, is_isomorphic, is_split, realize_ses)
from tworay import homlab, vsc
from tworay.field import PrimeField
from tworay.homlab import (ArVerifier, IndecVerdict, NotRealizable,
                           ProjectiveSummand, _quotients,
                           compose_maps, find_iso, hom_space, hom_spaces,
                           is_intertwiner, is_nilpotent, is_projective,
                           total_matrix)
from tworay.string_modules import Representation, zero_representation
from tworay.vsc import lemma, lemma_sites

from conftest import SYSTEMS, Ctx, ctx


def test_hom_identity_and_simples(fund21):
    sm = fund21.modules
    s0 = sm.construct_M(sm.calc.trivial("x:1:0"))
    s1 = sm.construct_M(sm.calc.trivial("x:1:1"))
    assert len(hom_basis(s0, s0)) == 1
    assert len(hom_basis(s0, s1)) == 0
    m = sm.construct_M(sm.calc.word(("alpha:1:1",)))
    assert len(hom_basis(m, m)) >= 1


def test_hom_derived_value(fund21):
    # frozen from an independent hand solve of the 2-unknown commuting system
    sm = fund21.modules
    a = sm.construct_M(sm.calc.word(("alpha:1:1",)))
    ab = sm.construct_M(sm.calc.word(("alpha:1:1", "alpha:1:2")))
    basis = hom_basis(a, ab)
    assert len(basis) == 1
    assert is_intertwiner(a, ab, basis[0])


def test_hom_projective_counts_dimension(tsys):
    for v in tsys.quiver.vertices:
        P = tsys.algebra.projective_module(v)
        for m in (tsys.modules.construct_Qband("x:1:2", 1),
                  tsys.modules.construct_N("x:1:2", tsys.calc.mu("x:1:2"))):
            assert len(hom_basis(P, m)) == m.dim(v)


def test_indecomposable_simple_and_sum(fund21):
    sm = fund21.modules
    s = sm.construct_M(sm.calc.trivial("x:1:0"))
    assert is_indecomposable(s).status == IndecVerdict.LOCAL
    ss = s.direct_sum(s)
    v = is_indecomposable(ss)
    assert v.status == IndecVerdict.DECOMPOSABLE
    e = v.certificate
    F = sm.field
    assert is_intertwiner(ss, ss, e)
    sq = compose_maps(F, e, e)
    assert all(F.is_zero(F.sub(sq[x], e[x])) for x in e)
    r = F.rank(total_matrix(ss, e))
    assert 0 < r < ss.total_dim
    with pytest.raises(ValueError, match="zero module"):
        is_indecomposable(zero_representation(fund21.quiver, F))


def test_indecomposable_mixed_sum(tsys):
    sm = tsys.modules
    a = sm.construct_Qband("x:1:2", 1)
    b = sm.construct_M(sm.calc.mu("x:1:2"))
    v = is_indecomposable(a.direct_sum(b))
    assert v.status == IndecVerdict.DECOMPOSABLE


def test_field_obstruction_control(fund21):
    # over GF(3) a band glued along an irreducible quadratic has End = GF(9)
    F3 = PrimeField(3)
    comp = np.array([[0, 2], [1, 0]])  # companion of t^2 + 1
    eye = np.eye(2, dtype=np.int64)
    rep = Representation(fund21.quiver, F3,
                         {v: (("v", 0), ("v", 1))
                          for v in fund21.quiver.vertices},
                         {"alpha:1:1": eye, "alpha:1:2": eye,
                          "beta:1:1": comp})
    v = is_indecomposable(rep)
    assert v.status == IndecVerdict.FIELD_OBSTRUCTION
    # the same gluing along a split polynomial decomposes instead
    split = np.array([[1, 0], [0, 2]])
    rep2 = Representation(fund21.quiver, F3,
                          {v: (("v", 0), ("v", 1))
                           for v in fund21.quiver.vertices},
                          {"alpha:1:1": eye, "alpha:1:2": eye,
                           "beta:1:1": split})
    assert is_indecomposable(rep2).status == IndecVerdict.DECOMPOSABLE


def test_is_isomorphic_basics(fund21):
    sm = fund21.modules
    calc = fund21.calc
    a = sm.construct_M(calc.word(("alpha:1:1", "alpha:1:2")))
    a2 = sm.construct_M(calc.word(("alpha:1:1", "alpha:1:2")))
    b = sm.construct_M(calc.word(("alpha:1:2", "beta:1:1")))
    r = sm.construct_R(calc.band_b0(), 5, 1)
    assert a.dim_tuple() == b.dim_tuple() == r.dim_tuple()
    assert is_isomorphic(a, a2)
    assert not is_isomorphic(a, b)
    assert not is_isomorphic(a, r)
    assert not is_isomorphic(r, sm.construct_R(calc.band_b0(), 6, 1))
    iso = is_isomorphic(a, a2).certificate
    assert iso is not None and is_intertwiner(a, a2, iso)


def test_realize_split_candidate(fund21):
    sm = fund21.modules
    x = sm.construct_M(fund21.calc.word(("alpha:1:1",)))
    z = sm.construct_M(fund21.calc.trivial("x:1:2"))
    E, f, _ = realize_ses(x, [x.direct_sum(z)], z)
    assert is_split(x, E, f)


def test_realize_theorem_row(ctx_s=None):
    # 0 -> M(C) -> N(C, C+) -> N(C+) -> 0 at the smallest admissible C on
    # (p=(2), q=(1), S=({2}))
    c = ctx("s_only")
    sm = c.modules
    calc = c.calc
    x = "x:1:2"
    mu = calc.mu(x)  # beta, the minimum of C_x
    mup = calc.successor(mu)
    left = sm.construct_M(mu)
    middle = sm.construct_NCC(x, mu, mup)
    right = sm.construct_N(x, mup)
    E, f, g = realize_ses(left, [middle], right)
    assert E is middle
    assert not is_split(left, E, f)
    F = sm.field
    for v in c.quiver.vertices:  # exactness bookkeeping per vertex
        rank_f = F.rank(f[v]) if left.dim(v) else 0
        rank_g = F.rank(g[v]) if right.dim(v) else 0
        assert rank_f == left.dim(v)
        assert rank_g == right.dim(v)
        assert rank_f + rank_g == middle.dim(v)
    comp = {v: F.mul(g[v], f[v]) for v in c.quiver.vertices}
    assert all(F.is_zero(m) for m in comp.values())


def test_realize_rejects_bad_dimensions(fund21):
    sm = fund21.modules
    s = sm.construct_M(fund21.calc.trivial("x:1:0"))
    with pytest.raises(NotRealizable, match="not additive"):
        realize_ses(s, [s], s)


def test_realize_the_zero_sequence(tsys):
    # 0 -> 0 -> 0 -> 0 -> 0 is exact and split, with an empty middle and
    # maps of zero size at every vertex
    zero = zero_representation(tsys.quiver, tsys.field)
    E, f, g = realize_ses(zero, [], zero)
    assert E.is_zero()
    for h in (f, g):
        assert h.keys() == set(tsys.quiver.vertices)
        assert all(m.shape == (0, 0) for m in h.values())
    assert is_split(zero, E, f)


def test_nonsplit_band_extension(fund21):
    # 0 -> R(l,1) -> R(l,2) -> R(l,1) -> 0 through the tube is not split
    sm = fund21.modules
    b0 = fund21.calc.band_b0()
    r1 = sm.construct_R(b0, 5, 1)
    r2 = sm.construct_R(b0, 5, 2)
    E, f, _ = realize_ses(r1, [r2], r1)
    assert not is_split(r1, E, f)


def test_projectivity_and_translate_errors(fund21):
    for v in fund21.quiver.vertices:
        P = fund21.algebra.projective_module(v)
        assert is_projective(P, fund21.algebra)
        with pytest.raises(ProjectiveSummand):
            ar_translate(P, fund21.algebra)


def test_translate_matches_coxeter(fund21):
    phi = fund21.algebra.coxeter_matrix()
    sm = fund21.modules
    mods = [sm.construct_M(w) for w in fund21.calc.all_strings(5)]
    mods.append(sm.construct_R(fund21.calc.band_b0(), 3, 2))
    checked = 0
    for m in mods:
        if is_projective(m, fund21.algebra):
            continue
        tau = ar_translate(m, fund21.algebra)
        assert (np.array(tau.dim_tuple())
                == phi @ np.array(m.dim_tuple())).all()
        checked += 1
    assert checked >= 10


def test_translate_simple_source(fund21):
    # tau of the simple at the Q*-source x:1:1 via the reflection computation
    sm = fund21.modules
    s1 = sm.construct_M(fund21.calc.trivial("x:1:1"))
    tau = ar_translate(s1, fund21.algebra)
    phi = fund21.algebra.coxeter_matrix()
    assert (np.array(tau.dim_tuple()) == phi @ np.array(s1.dim_tuple())).all()


def test_band_periodicity(fund21, tsys):
    sm = fund21.modules
    b0 = fund21.calc.band_b0()
    for lam in (2, 3):
        for m in (1, 2):
            r = sm.construct_R(b0, lam, m)
            assert is_isomorphic(r, ar_translate(r, fund21.algebra))
    smt = tsys.modules
    bx = tsys.calc.band_of("x:1:2")
    for lam in (2, 5):
        r = smt.construct_R(bx, lam, 1)
        assert is_isomorphic(r, ar_translate(r, tsys.algebra))


def test_tube_mouth_translate(tsys):
    # tau Q(B, m) = R(B, 1, m): the lambda = 1 tube is not homogeneous
    sm = tsys.modules
    bx = tsys.calc.band_of("x:1:2")
    for m in (1, 2):
        qb = sm.construct_Qband("x:1:2", m)
        tau = ar_translate(qb, tsys.algebra)
        assert is_isomorphic(tau, sm.construct_R(bx, 1, m))
        r = sm.construct_R(bx, 1, m)
        assert not is_isomorphic(ar_translate(r, tsys.algebra), r).isomorphic


def test_verify_leaves_no_cyclic_garbage(tsys):
    # _path_images used to define a recursive closure that held its own
    # cell, so every call left the closure, its memo and the module in a
    # reference cycle for the cyclic collector
    ver = ArVerifier(tsys.modules, tsys.algebra)
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        ver.verify(12)
        gc.collect()
        garbage = list(gc.garbage)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()

    def module(o):
        return (o.__module__ if isinstance(o, types.FunctionType)
                else type(o).__module__) or ""

    assert [o for o in garbage if module(o).startswith("tworay")] == []


def test_verifier_negative_control(fund21):
    sm = fund21.modules
    b0 = fund21.calc.band_b0()
    # wrong middle: no map at all from R(2,1) into R(3,2)
    with pytest.raises(NotRealizable):
        realize_ses(sm.construct_R(b0, 2, 1), [sm.construct_R(b0, 3, 2)],
                    sm.construct_R(b0, 2, 1))
    # right cokernel mismatch: R(2,2)/R(2,1) is not R(3,1)
    with pytest.raises(NotRealizable):
        realize_ses(sm.construct_R(b0, 2, 1), [sm.construct_R(b0, 2, 2)],
                    sm.construct_R(b0, 3, 1))


def test_verify_report_fund21(fund21):
    rep = ArVerifier(fund21.modules, fund21.algebra).verify(6)
    assert rep["failures"] == []
    assert rep["coverage"]["missing"] == []
    assert rep["coverage"]["multiple"] == []
    assert rep["rows_checked"] > 0
    families = {r["family"] for r in rep["rows"]}
    assert families == {1, 4}  # fundamental: band rows and string rows only


def test_verify_report_tsys(tsys):
    rep = ArVerifier(tsys.modules, tsys.algebra).verify(8)
    assert rep["failures"] == []
    fams = {r["family"] for r in rep["rows"]}
    # rows 3, 7, 9, 10 need middles beyond 8 on this system (the acceptance
    # sweep at bound 12 reaches all ten families across its systems)
    assert {1, 2, 4, 5, 6, 8} <= fams


def test_verify_row2_instance_with_zero_term(tsys):
    # 0 -> R(B,1,1) -> Q(B,2) + R(B,1,0) -> Q(B,1) -> 0 with the zero term
    # dropped from the middle
    sm = tsys.modules
    bx = tsys.calc.band_of("x:1:2")
    left = sm.construct_R(bx, 1, 1)
    middle = [sm.construct_Qband("x:1:2", 2)]  # R(B,1,0) = 0 contributes nothing
    right = sm.construct_Qband("x:1:2", 1)
    E, f, _ = realize_ses(left, middle, right)
    assert not is_split(left, E, f)
    tau = ar_translate(right, tsys.algebra)
    assert is_isomorphic(tau, left)


def test_find_iso_permuted_sum(tsys):
    sm = tsys.modules
    a = sm.construct_M(tsys.calc.mu("x:1:2"))
    b = sm.construct_M(tsys.calc.trivial("z:1:2"))
    assert find_iso(a.direct_sum(b), b.direct_sum(a)) is not None


def test_verify_reports_mutated_row(fund21):
    # dropping a middle summand from a genuine row must surface in the report
    ver = ArVerifier(fund21.modules, fund21.algebra)
    rows = ver.rows(6)
    row = next(r for r in rows if r["middle_dim"] <= 6
               and len(r["middle"]) == 2)
    mutated = dict(row)
    mutated["middle"] = mutated["middle"][:1]
    mutated["middle_dim"] = sum(map(ver.sm.atom_dim, mutated["middle"]))
    ver.rows = lambda bound: [mutated]
    report = ver.verify(6)
    assert any("row" in f for f in report["failures"])
    bad = report["rows"][0]
    assert bad["problems"]


@pytest.mark.hashseed
def test_verify_lists_failures_in_stage_order(fund21, monkeypatch):
    # one planted failure per stage; the failures come out stage by stage:
    # row anomalies, checked rows, coverage, relations, LOCAL certificates,
    # lemmas
    from tworay import vsc

    ver = ArVerifier(fund21.modules, fund21.algebra)
    row = next(r for r in ver.rows(6)
               if r["middle_dim"] <= 6 and len(r["middle"]) == 2)
    mutated = dict(row, middle=row["middle"][:1])
    mutated["middle_dim"] = ver.sm.atom_dim(mutated["middle"][0])

    def planted_rows(bound):
        ver.row_anomalies = ["planted anomaly"]
        return [mutated]

    ver.rows = planted_rows
    check_relations, end_verdict = homlab.check_relations, homlab._end_verdict
    monkeypatch.setattr(homlab, "check_relations", lambda rep, relations: (
        ["planted"] if rep is ver.inventory[3].rep
        else check_relations(rep, relations)))

    def planted_verdict(M, kernel, blocks):
        # the verdict step that verify's batched End solve feeds
        if M is not ver.inventory[7].rep:
            return end_verdict(M, kernel, blocks)
        M.end_dim, M.indec = len(kernel), IndecVerdict(
            IndecVerdict.DECOMPOSABLE)
        return M.indec

    monkeypatch.setattr(homlab, "_end_verdict", planted_verdict)
    match_model = vsc.match_model
    calls = []

    def first_mismatches(measured, model, objects=None):
        report = match_model(measured, model, objects)
        if not calls:
            report["mismatches"].append(("homdim", ("a", "b"), 1, 0))
            report["ok"] = False
        calls.append(report)
        return report

    monkeypatch.setattr(vsc, "match_model", first_mismatches)
    report = ver.verify(6)

    # P(x:1:0), P(x:1:1), P(x:1:2), and the right end of the one row
    skip = {("M", ((), "x:1:0")), ("M", (("alpha:1:1",), "x:1:0")),
            ("M", (("alpha:1:1", "alpha:1:2", "beta:1:1"), "x:1:0")),
            row["right"][0]}
    uncovered = [e.key for e in ver.inventory if e.key not in skip]
    assert len(uncovered) == 22
    assert report["failures"] == (
        ["planted anomaly",
         f"row {row['key']}: dimension vectors not additive"]
        + [f"coverage: no row ends at {k}" for k in uncovered]
        + [f"relations violated by {ver.inventory[3].key!r}",
           f"not indecomposable: {ver.inventory[7].key!r} (DECOMPOSABLE)",
           "lemma R mismatch at x:1:2"])


@pytest.mark.parametrize("bounds", [(12, 8), (8, 12)])
def test_second_verify_certifies_its_own_inventory(tsys, bounds):
    # each verify call reads and certifies the inventory it built, not the
    # modules of an earlier call on the same verifier
    fresh = {b: ArVerifier(tsys.modules, tsys.algebra).verify(b)
             for b in bounds}
    ver = ArVerifier(tsys.modules, tsys.algebra)
    for bound in bounds:
        report = ver.verify(bound)
        assert all(e.rep.indec is not None and e.rep.pending is None
                   for e in ver.inventory)
        assert all(ver.atom_rep(e.key) is e.rep for e in ver.inventory)
        assert report == fresh[bound]


@pytest.mark.hashseed
def test_verify_reports_terms_outside_the_inventory(tsys, monkeypatch):
    # verify looks every row term up in its inventory: an entry dropped from
    # theorem_inventory is a problem of each checked row it is a term of
    # (here the middle, the left and the right term of three family-4 rows),
    # not a module built on the side
    dropped = ("M", (("alpha:1:3",), "x:1:2"))
    inventory = tsys.modules.theorem_inventory
    monkeypatch.setattr(tsys.modules, "theorem_inventory", lambda bound: [
        e for e in inventory(bound) if e.key != dropped])
    ver = ArVerifier(tsys.modules, tsys.algebra)
    terms = {r["key"]: (*r["left"], *r["middle"], *r["right"])
             for r in ver.rows(8)}
    report = ver.verify(8)
    hit = [r for r in report["rows"] if dropped in terms[r["key"]]]
    assert len(hit) == 3
    assert report["failures"] == [
        f"row {r['key']}: term outside the inventory: {dropped}" for r in hit]
    assert all(r["certificate"] is None
               and set(r["status"].values()) == {None} for r in hit)


@pytest.mark.hashseed
def test_verify_names_each_absent_term_once(tsys, monkeypatch):
    # a term outside the inventory that occurs twice in one row (here both
    # ends of the tube row (1, 'B0', 1, 1)) is one problem of that row
    dropped = ("R", "B0", 1, 1)
    inventory = tsys.modules.theorem_inventory
    monkeypatch.setattr(tsys.modules, "theorem_inventory", lambda bound: [
        e for e in inventory(bound) if e.key != dropped])
    ver = ArVerifier(tsys.modules, tsys.algebra)
    terms = {r["key"]: (*r["left"], *r["middle"], *r["right"])
             for r in ver.rows(8)}
    report = ver.verify(8)
    hit = [r for r in report["rows"] if dropped in terms[r["key"]]]
    assert any(terms[r["key"]].count(dropped) == 2 for r in hit)
    line = f"term outside the inventory: {dropped}"
    assert all(r["problems"] == [line] for r in hit)
    assert report["failures"] == [f"row {r['key']}: {line}" for r in hit]


@pytest.mark.parametrize("same_atom", [False, True],
                         ids=["distinct ends", "one atom at both ends"])
@pytest.mark.hashseed
def test_verify_names_each_non_local_end_once(tsys, monkeypatch, same_atom):
    # a DECOMPOSABLE verdict planted on the right end of a row (one whose
    # right end ends no other row, or a tube row whose two ends are one
    # atom) is one problem of that row; the row still goes through the
    # later stages, and the entry is listed among the LOCAL failures
    ver = ArVerifier(tsys.modules, tsys.algebra)
    rows = [r for r in ver.rows(8) if r["middle_dim"] <= 8]
    ends = collections.Counter(a for r in rows
                               for a in {*r["left"], *r["right"]})
    row = next(r for r in rows if (r["left"] == r["right"]) == same_atom
               and ends[r["right"][0]] == 1)
    planted = row["right"][0]
    end_verdict = homlab._end_verdict

    def planted_verdict(M, kernel, blocks):
        if M is not ver._rep_cache[planted]:
            return end_verdict(M, kernel, blocks)
        M.end_dim, M.indec = len(kernel), IndecVerdict(
            IndecVerdict.DECOMPOSABLE)
        return M.indec

    monkeypatch.setattr(homlab, "_end_verdict", planted_verdict)
    report = ver.verify(8)
    entry = next(r for r in report["rows"] if r["key"] == row["key"])
    assert entry["status"] == {"additivity": True, "realized": True,
                               "nonsplit": True, "ends_indecomposable": False,
                               "tau": True}
    line = f"end not indecomposable: {planted}"
    assert entry["problems"] == [line]
    assert entry["certificate"] is not None
    assert report["failures"] == [
        f"row {row['key']}: {line}",
        f"not indecomposable: {planted!r} (DECOMPOSABLE)"]


def _planted_rows(ver, bound):
    """The rows of ``ver`` at ``bound`` with middle <= bound, and after
    every tenth one a planted row that stops at one stage of ``verify``:
    a term outside the inventory, not additive, two not realizable (no
    candidate, and a cokernel that ``find_iso`` turns down), split, DTr
    mismatch, and a projective right end (split as well)."""
    genuine = [r for r in ver.rows(bound) if r["middle_dim"] <= bound]
    projective = next(e.key for e in ver.sm.theorem_inventory(bound)
                      if is_projective(e.rep, ver.algebra))

    def row(name, left, middle, right):
        return {"family": 0, "left": (left,), "middle": tuple(middle),
                "right": (right,), "right_dim": 0, "middle_dim": 0,
                "key": (0, name)}

    def band(lam, m):
        return ("R", "B0", lam, m)

    planted = [
        row("outside", band(1, 1), [band(1, 9)], band(1, 1)),
        row("not additive", band(1, 2), [band(1, 3)], band(1, 2)),
        row("no candidate", band(2, 1), [band(3, 2)], band(2, 1)),
        row("wrong cokernel", band(2, 1), [band(2, 2)], band(3, 1)),
        row("split", band(1, 1), [band(1, 1), band(2, 1)], band(2, 1)),
        row("tau mismatch", band(1, 1), [band(1, 3)], band(1, 2)),
        row("projective", band(1, 1), [band(1, 1), projective], projective),
    ]
    out = []
    for i, r in enumerate(genuine):
        out.append(r)
        if i % 10 == 9 and planted:
            out.append(planted.pop(0))
    return out + planted


@pytest.mark.hashseed
def test_verify_planted_rows_stop_at_their_stage(tsys):
    """Green rows mixed with rows planted to stop at each stage: every
    planted row reports the problems of its stage and of no later one, and
    the whole report (statuses, problems, certificates, failures in order)
    is pinned."""
    ver = ArVerifier(tsys.modules, tsys.algebra)
    rows = _planted_rows(ver, 12)
    ver.rows = lambda bound: rows
    report = ver.verify(12)
    problems = {r["key"][1]: r["problems"] for r in report["rows"]
                if r["key"][0] == 0}
    assert problems == {
        "outside": ["term outside the inventory: ('R', 'B0', 1, 9)"],
        "not additive": ["dimension vectors not additive"],
        "no candidate": ["not realizable: no injective map with the right "
                         "cokernel was found"],
        "wrong cokernel": ["not realizable: no injective map with the right "
                           "cokernel was found"],
        "split": ["sequence splits", "DTr(right) does not match left"],
        "tau mismatch": ["DTr(right) does not match left"],
        "projective": ["sequence splits", "DTr(right) does not match left"],
    }
    assert sum(not r["problems"] for r in report["rows"]) == 57
    text = json.dumps([report["rows"], report["failures"]], sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "2806e3573f642306518180e903d9dfca766a340c0449a5e29ab9289a908798d9")


@pytest.mark.parametrize("name", ["tsys", "ex14"])
def test_verify_builds_no_module_on_the_side(name, monkeypatch):
    def refuse(self, atom):
        raise AssertionError(f"verify asked for {atom}")

    monkeypatch.setattr(ArVerifier, "atom_rep", refuse)
    monkeypatch.setattr(ArVerifier, "atom_indec", refuse)
    c = ctx(name)
    assert ArVerifier(c.modules, c.algebra).verify(8)["failures"] == []


def test_indecomposable_small_characteristic(fund21):
    # when the total dimension vanishes mod p the trace cannot locate the
    # eigenvalue and the charpoly route takes over
    from tworay.string_modules import StringModules

    gf2 = PrimeField(2)
    sm2 = StringModules(fund21.calc, gf2)
    r = sm2.construct_R(fund21.calc.band_b0(), 1, 2)  # dim 6, End = k[t]/t^2
    assert r.total_dim % 2 == 0
    assert len(hom_basis(r, r)) == 2
    assert is_indecomposable(r).status == IndecVerdict.LOCAL
    s = sm2.construct_M(fund21.calc.trivial("x:1:0"))
    ss = s.direct_sum(s)
    v = is_indecomposable(ss)
    assert v.status == IndecVerdict.DECOMPOSABLE


def test_verify_reports_lemma_mismatch(fund21, monkeypatch, tmp_path):
    # the first lemma check reports one mismatch: verify must name it, and
    # the CLI must print exactly the failures verify returns
    from tworay import cli, vsc

    match_model = vsc.match_model
    calls = []

    def one_mismatch(measured, model, objects=None):
        report = match_model(measured, model, objects)
        if not calls:
            report["mismatches"].append(("homdim", ("a", "b"), 1, 0))
            report["ok"] = False
        calls.append(report)
        return report

    monkeypatch.setattr(vsc, "match_model", one_mismatch)
    report = ArVerifier(fund21.modules, fund21.algebra).verify(5)
    first = report["lemma_checks"][0]
    assert (first["vertex"], first["lemma"], first["ok"]) == ("x:1:2", "R",
                                                              False)
    assert all(r["ok"] for r in report["lemma_checks"][1:])
    assert report["failures"] == ["lemma R mismatch at x:1:2"]

    path = tmp_path / "fund21.json"
    path.write_text(json.dumps(SYSTEMS["fund21"]))
    calls.clear()
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(["verify", str(path), "--max-dim", "5"])
    assert code == 1
    assert json.loads(buf.getvalue())["failures"] == report["failures"]


# -- the sparse Hom solver against the dense Kronecker system ---------------------


def _unknown_offsets(M, N):
    offsets, total = {}, 0
    for v in M.quiver.vertices:
        offsets[v] = total
        total += N.dim(v) * M.dim(v)
    return offsets, total


def _kron_system(M, N, offsets, total):
    """Dense rows of f_t M_a - N_a f_s = 0 over column-major vec(f_v)."""
    F, q = M.field, M.quiver
    blocks = [F.zeros(0, total)]
    for a in q.arrows:
        s, t = q.source[a], q.target[a]
        ms, mt, ns, nt = M.dim(s), M.dim(t), N.dim(s), N.dim(t)
        block = np.zeros((nt * ms, total), dtype=np.int64)
        block[:, offsets[t]: offsets[t] + nt * mt] += np.kron(
            M.maps[a].T, np.eye(nt, dtype=np.int64))
        block[:, offsets[s]: offsets[s] + ns * ms] -= np.kron(
            np.eye(ms, dtype=np.int64), N.maps[a])
        blocks.append(block % F.p)
    return np.vstack(blocks)


def _dense_hom_basis(M, N):
    """Hom(M, N) from the dense Kronecker system, its kernel read by the
    reference Gauss-Jordan of this file, not by ``PrimeField``'s reducer."""
    F = M.field
    offsets, total = _unknown_offsets(M, N)
    if total == 0:
        return []
    kernel = _gauss_jordan_null_space(F, _kron_system(M, N, offsets, total))
    return [{v: kernel[offsets[v]: offsets[v] + N.dim(v) * M.dim(v), k]
             .reshape((N.dim(v), M.dim(v)), order="F")
             for v in M.quiver.vertices} for k in range(kernel.shape[1])]


def _dense_is_split(X, E, f):
    F = X.field
    offsets, total = _unknown_offsets(E, X)
    if total == 0:
        return True
    rows = [_kron_system(E, X, offsets, total)]
    rhs = [F.zeros(rows[0].shape[0], 1)]
    for v in X.quiver.vertices:  # r_v f_v = id
        xv, ev = X.dim(v), E.dim(v)
        block = np.zeros((xv * xv, total), dtype=np.int64)
        block[:, offsets[v]: offsets[v] + xv * ev] = np.kron(
            f[v].T, np.eye(xv, dtype=np.int64))
        rows.append(block % F.p)
        rhs.append(F.eye(xv).reshape(-1, 1, order="F"))
    return F.solve(np.vstack(rows), np.vstack(rhs)) is not None


def _assert_same_basis(M, N):
    got, want = hom_basis(M, N), _dense_hom_basis(M, N)
    assert len(got) == len(want)
    for f, g in zip(got, want):
        for v in M.quiver.vertices:
            assert f[v].shape == g[v].shape
            assert np.array_equal(f[v], g[v]), v


@pytest.mark.parametrize("name", sorted(SYSTEMS))
def test_hom_basis_matches_dense_reference(name):
    c = ctx(name)
    inv = c.modules.theorem_inventory(8)
    picked = inv[::max(1, len(inv) // 8)]
    bands = [e for e in inv if e.tag == "R"][::2]
    assert any(e.params[1] != 1 for e in bands)
    mods = [e.rep for e in picked + bands]
    mods += [picked[k].rep.direct_sum(picked[-1 - k].rep) for k in range(2)]
    taus = []
    for e in picked[:6] + bands[:2]:
        if not is_projective(e.rep, c.algebra):
            taus.append(ar_translate(e.rep, c.algebra))
    assert taus
    mods += taus
    mods += [c.modules.construct_M(c.calc.trivial(v))
             for v in (c.quiver.vertices[0], c.quiver.vertices[-1])]
    disjoint = 0
    for M in mods:
        for N in mods:
            _assert_same_basis(M, N)
            if not set(M.support) & set(N.support):
                assert hom_basis(M, N) == []
                disjoint += 1
    assert disjoint  # the pairs include supports that do not meet


def test_hom_basis_rejects_mixed_pairs():
    small, big = Ctx(SYSTEMS["tsys"], PrimeField(3)), Ctx(SYSTEMS["tsys"])
    a = small.modules.construct_Qband("x:1:2", 1)
    b = big.modules.construct_Qband("x:1:2", 1)
    assert len(hom_basis(a, a)) == len(hom_basis(b, b)) >= 1
    with pytest.raises(ValueError, match="fields"):
        hom_basis(a, b)
    with pytest.raises(ValueError, match="fields"):
        hom_basis(b, a)
    other = ctx("s_only").modules.construct_M(ctx("s_only").calc.mu("x:1:2"))
    with pytest.raises(ValueError, match="quivers"):
        hom_basis(b, other)
    same_shape = Ctx(SYSTEMS["tsys"]).modules.construct_Qband("x:1:2", 1)
    assert len(hom_basis(b, same_shape)) == len(hom_basis(b, b))


def test_realize_ses_with_a_middle_over_a_quiver_built_alike(tsys):
    # middle terms built over an equal quiver object realize the sequence
    # that those built over the ends' own quiver do
    ver = ArVerifier(tsys.modules, None)
    twin = ArVerifier(Ctx(SYSTEMS["tsys"]).modules, None)
    rows = [r for r in ver.rows(10)
            if len(r["middle"]) >= 2 and r["middle_dim"] <= 10]
    assert len(rows) >= 10
    for row in rows:
        (left,), (right,) = ([ver.atom_rep(a) for a in row[end]]
                             for end in ("left", "right"))
        want = realize_ses(left, [ver.atom_rep(a) for a in row["middle"]],
                           right)
        E, f, g = realize_ses(left, [twin.atom_rep(a) for a in row["middle"]],
                              right)
        assert E.quiver is tsys.quiver
        assert (E.dims, E.labels, E.support_arrows) == (
            want[0].dims, want[0].labels, want[0].support_arrows), row["key"]
        assert E.buffer.tobytes() == want[0].buffer.tobytes(), row["key"]
        for got, map_ in ((f, want[1]), (g, want[2])):
            assert got.keys() == map_.keys()
            assert all(np.array_equal(got[v], map_[v]) for v in got)


@pytest.mark.parametrize("name, bound", [("tsys", 12), ("ex14", 8)])
def test_verify_with_an_algebra_over_a_quiver_built_alike(name, bound):
    # the modules over one quiver object and the algebra over an equal one
    # give the report of one quiver; the direct sums of projective covers
    # once raised "different quivers" late in verify
    c = ctx(name)
    want = ArVerifier(c.modules, c.algebra).verify(bound)
    assert want["failures"] == [] and want["rows_checked"] > 0
    twin = Ctx(SYSTEMS[name])
    assert twin.algebra.quiver is not c.quiver
    assert ArVerifier(c.modules, twin.algebra).verify(bound) == want


def test_verifier_checks_its_modules_and_algebra_when_built(tsys, ex14):
    # a field or quiver mismatch raises before anything is built, naming
    # both sides; with no algebra the rows alone stay available
    small = StringModules(tsys.calc, PrimeField(3))
    with pytest.raises(ValueError, match=r"algebra over GF\(32003\) .*"
                                         r"modules over GF\(3\)"):
        ArVerifier(small, tsys.algebra)
    with pytest.raises(ValueError, match=r"algebra over GF\(32003\) and the "
                                         r"quiver of \{.*\"p\": \[6, 3\].*"
                                         r"modules over GF\(32003\) and the "
                                         r"quiver of \{.*\"p\": \[2\]"):
        ArVerifier(tsys.modules, ex14.algebra)
    assert ArVerifier(small, None).rows(8)


def test_verify_without_an_algebra_raises_before_the_inventory(tsys,
                                                               monkeypatch):
    # algebra=None serves rows alone: verify says so before it builds or
    # certifies any inventory entry
    calls, real = [], StringModules.theorem_inventory
    monkeypatch.setattr(StringModules, "theorem_inventory",
                        lambda sm, bound: calls.append(bound) or
                        real(sm, bound))
    ver = ArVerifier(tsys.modules, None)
    for bound in (4, 8):
        with pytest.raises(ValueError, match=r"algebra=None serves rows alone"):
            ver.verify(bound)
    assert calls == []
    assert ver.rows(8)


def test_hom_spaces_takes_quivers_built_alike_in_one_chunk(monkeypatch):
    # End of the tsys entries at 8 (1,038 unknowns, one array pass), the
    # second half built over an equal quiver object: one chunk, the arrays
    # of the one-quiver batch
    c = ctx("tsys")
    ours = [e.rep for e in c.modules.theorem_inventory(8)]
    theirs = [e.rep for e in Ctx(SYSTEMS["tsys"]).modules.theorem_inventory(8)]
    half = len(ours) // 2
    mixed = ours[:half] + theirs[half:]
    assert sum(homlab._hom_unknowns(M, M)[1] for M in mixed) >= 512
    want = list(hom_spaces([(M, M) for M in ours]))
    chunks, real = [], homlab._hom_batch
    monkeypatch.setattr(homlab, "_hom_batch",
                        lambda systems: chunks.append(systems) or
                        real(systems))
    got = list(hom_spaces([(M, M) for M in mixed]))
    assert len(chunks) == 1 and len(got) == len(want)
    for (kernel, blocks), (w_kernel, w_blocks) in zip(got, want):
        assert blocks == w_blocks
        assert np.array_equal(kernel, w_kernel)


def test_is_split_matches_dense_solve(tsys):
    ver = ArVerifier(tsys.modules, tsys.algebra)
    rows = [r for r in ver.rows(10) if r["middle_dim"] <= 10]
    assert rows
    verdicts = set()
    for row in rows:
        (left,), (right,) = ([ver.atom_rep(a) for a in row[end]]
                             for end in ("left", "right"))
        for middle in ([ver.atom_rep(a) for a in row["middle"]],
                       [left, right]):
            try:
                E, f, _ = realize_ses(left, middle, right)
            except NotRealizable:
                continue
            got = is_split(left, E, f)
            assert got == _dense_is_split(left, E, f), row["key"]
            verdicts.add(got)
    assert verdicts == {True, False}


# -- realization in one call against the candidate record it replaced -----------


class _SesCandidate:
    """The record the realization filled in before ``realize_ses`` returned
    (E, f, g): a claimed sequence, its middle summands and their sum."""

    def __init__(self, left, middles, right):
        self.left = left
        self.middles = list(middles)
        self.middle = homlab.direct_sum_of(left.quiver, left.field,
                                           self.middles)
        self.right = right
        self.f = None
        self.g = None

    def dims_additive(self):
        return self.middle.dims == tuple(
            l + r for l, r in zip(self.left.dims, self.right.dims))


def _realize_ses_reference(cand):
    """The realization on the record: each candidate f is first tested for
    injectivity, and only an injective one reaches its cokernel."""
    if not cand.dims_additive():
        raise NotRealizable("dimension vectors are not additive")
    X, E, Z = cand.left, cand.middle, cand.right
    F = X.field
    full_rank = homlab._full_rank
    choices = [[h for h in hom_basis(X, Y)
                if full_rank(F, h, X) or full_rank(F, h, Y)]
               or [homlab.zero_map(X, Y)] for Y in cand.middles]
    for parts in itertools.product(*choices):
        f = {v: np.vstack([h[v] for h in parts]) for v in X.quiver.vertices}
        if full_rank(F, f, X):
            Q, proj = homlab.cokernel_rep(X, E, f)
            iso = find_iso(Q, Z)
            if iso is not None:
                cand.f, cand.g = f, compose_maps(F, iso, proj)
                return cand
    raise NotRealizable("no injective map with the right cokernel was found")


def _is_split_reference(cand):
    if cand.f is None:
        raise ValueError("realize the sequence first")
    X, E = cand.left, cand.middle
    F = X.field
    kernel, blocks = hom_space(E, X)
    if not len(kernel):
        return X.is_zero()
    if len(blocks) < len(X.support):
        return False
    cols = np.hstack([F.mul(cand.f[v].T,
                            homlab.transposed_blocks(kernel, block))
                      .reshape(len(kernel), -1)
                      for v, block in blocks.items()])
    ident = np.hstack([F.eye(X.dim(v)).reshape(-1) for v in blocks])
    return F.solve(cols.T, ident) is not None


def _assert_same_realization(X, middles, Z):
    """``realize_ses`` and ``is_split`` agree with the reference: the same
    NotRealizable message, or the same dimension vector of E, the same f and
    g arrays and the same split verdict, which is returned."""
    cand = _SesCandidate(X, middles, Z)
    try:
        _realize_ses_reference(cand)
    except NotRealizable as exc:
        with pytest.raises(NotRealizable) as got:
            realize_ses(X, middles, Z)
        assert str(got.value) == str(exc)
        return str(exc)
    E, f, g = realize_ses(X, middles, Z)
    assert E.dims == cand.middle.dims
    for got, want in ((f, cand.f), (g, cand.g)):
        assert got.keys() == want.keys()
        assert all(np.array_equal(got[v], want[v]) for v in want)
    split = is_split(X, E, f)
    assert split == _is_split_reference(cand)
    return split


@pytest.mark.parametrize("name, bound, p", [
    *((name, 12, 32003) for name in sorted(SYSTEMS)),
    ("tsys", 20, 32003), ("tsys", 20, 2)])
def test_realization_matches_candidate_reference(name, bound, p, monkeypatch):
    """Every row with middle <= bound, its split sum (left + right), the
    row with its ends swapped and the row less its last middle summand:
    one call realizes each as the record did, or fails with its message.
    A candidate f that is not injective now reaches ``cokernel_rep``, and
    some do; ``find_iso`` turns them down."""
    c = ctx(name) if p == 32003 else Ctx(SYSTEMS[name], PrimeField(p))
    ver = ArVerifier(c.modules, c.algebra)
    rows = [r for r in ver.rows(bound) if r["middle_dim"] <= bound]
    assert rows
    cokernel_rep, not_injective = homlab.cokernel_rep, []

    def counting(M, N, f):
        if not homlab._full_rank(M.field, f, M):
            not_injective.append(f)
        return cokernel_rep(M, N, f)

    monkeypatch.setattr(homlab, "cokernel_rep", counting)
    outcomes = set()
    for row in rows:
        (X,), (Z,) = ([ver.atom_rep(a) for a in row[end]]
                      for end in ("left", "right"))
        middles = [ver.atom_rep(a) for a in row["middle"]]
        assert _assert_same_realization(X, middles, Z) is False, row["key"]
        for args in ((X, [X, Z], Z), (Z, middles, X), (X, middles[:-1], Z)):
            outcomes.add(_assert_same_realization(*args))
    assert outcomes >= {True, "dimension vectors are not additive",
                        "no injective map with the right cokernel was found"}
    assert not_injective


_PRIMES = (2, 3, 32003)


@st.composite
def _systems(draw):
    """(field, dense matrix, the same rows as {column: coefficient} dicts).

    Entries run over [-2p, 2p), so coefficients that vanish mod p appear in
    the dicts; sparse draws keep about one entry in five, so empty rows are
    common."""
    F = PrimeField(draw(st.sampled_from(_PRIMES)))
    n_rows, n_cols = draw(st.integers(0, 9)), draw(st.integers(0, 9))
    keep = 5 if draw(st.booleans()) else 1
    rows = []
    for _ in range(n_rows):
        row = {}
        for c in range(n_cols):
            if draw(st.integers(0, keep - 1)) == 0:
                row[c] = draw(st.integers(-2 * F.p, 2 * F.p - 1))
        rows.append(row)
    dense = F.zeros(n_rows, n_cols)
    for r, row in enumerate(rows):
        for c, v in row.items():
            dense[r, c] = v % F.p
    return F, dense, rows


def _gauss_jordan(F, a):
    """Reference RREF mod p, independent of ``PrimeField``'s reducer: a numpy
    Gauss-Jordan sweep over the columns.  Returns (rref, pivot columns)."""
    m = np.array(a, dtype=np.int64) % F.p
    rows, cols = m.shape
    pivots = []
    r = 0
    for c in range(cols):
        if r >= rows:
            break
        nz = np.nonzero(m[r:, c])[0]
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            m[[r, i]] = m[[i, r]]
        m[r] = (m[r] * pow(int(m[r, c]), -1, F.p)) % F.p
        col = m[:, c].copy()
        col[r] = 0
        nzrows = np.nonzero(col)[0]
        if nzrows.size:
            m[nzrows] = (m[nzrows] - np.outer(col[nzrows], m[r])) % F.p
        pivots.append(c)
        r += 1
    return m, pivots


def _gauss_jordan_null_space(F, a):
    """Kernel basis read from the reference RREF: one column per free column,
    1 there and minus the free column's entries in the pivot rows."""
    m, pivots = _gauss_jordan(F, a)
    free = [c for c in range(a.shape[1]) if c not in pivots]
    basis = np.zeros((a.shape[1], len(free)), dtype=np.int64)
    for k, fc in enumerate(free):
        basis[fc, k] = 1
        for r, pc in enumerate(pivots):
            basis[pc, k] = (-m[r, fc]) % F.p
    return basis


def _fixed_system(p, rows, n_cols):
    """A fixed ``_systems`` draw: rows as {column: unreduced coefficient}."""
    F = PrimeField(p)
    dense = F.zeros(len(rows), n_cols)
    for r, row in enumerate(rows):
        for c, v in row.items():
            dense[r, c] = v % p
    return F, dense, rows


_EDGE_SYSTEMS = [
    case for p in _PRIMES for case in (
        _fixed_system(p, [], 0),                  # empty shape
        _fixed_system(p, [], 4),                  # no rows
        _fixed_system(p, [{}, {}, {}], 0),        # no columns
        _fixed_system(p, [{}, {1: -1}, {}, {1: 2 * p}], 3),  # zero rows
        _fixed_system(p, [{0: -1, 2: -p - 2}, {0: p + 1, 1: -2 * p, 2: 1}],
                      3),                         # negative, 0 mod p
    )]


@settings(max_examples=200, deadline=None)
@given(_systems())
def test_sparse_elimination_matches_dense(system):
    """``rref``, ``null_space`` and ``rref_sparse`` against the reference
    Gauss-Jordan, on unreduced input."""
    F, dense, rows = system
    n_cols = dense.shape[1]
    raw = np.zeros(dense.shape, dtype=np.int64)
    for r, row in enumerate(rows):
        for c, v in row.items():
            raw[r, c] = v
    want_m, want_pivots = _gauss_jordan(F, raw)
    m, pivots = F.rref(raw)
    assert pivots == want_pivots and np.array_equal(m, want_m)
    want = _gauss_jordan_null_space(F, raw)
    got = F.null_space(raw)
    assert got.shape == want.shape and np.array_equal(got, want)
    sparse = F.rref_sparse(rows)
    assert sorted(sparse) == want_pivots
    for r, pc in enumerate(want_pivots):
        assert sparse[pc] == {c: int(x) for c, x in enumerate(want_m[r]) if x}
    assert F.rref_sparse(rows[::-1]) == sparse


for _case in _EDGE_SYSTEMS:
    test_sparse_elimination_matches_dense = example(_case)(
        test_sparse_elimination_matches_dense)


class _LoopQuiver:
    """u -> v by two parallel arrows a and b, a loop l at v, and c: v -> w.
    An equation on l has one unknown on both sides, whose terms
    ``hom_basis`` adds together, and the ties through a and b close cycles
    whose weights may disagree."""

    vertices = ("u", "v", "w")
    arrows = ("a", "b", "l", "c")
    source = {"a": "u", "b": "u", "l": "v", "c": "v"}
    target = {"a": "v", "b": "v", "l": "v", "c": "w"}
    out_arrows = {"u": ("a", "b"), "v": ("l", "c"), "w": ()}
    vindex = {"u": 0, "v": 1, "w": 2}
    aindex = {"a": 0, "b": 1, "l": 2, "c": 3}


_LOOP_QUIVER = _LoopQuiver()


def _loop_rep(F, dims, maps):
    spaces = {v: tuple(("e", i) for i in range(d))
              for v, d in zip(_LOOP_QUIVER.vertices, dims)}
    return Representation(_LOOP_QUIVER, F, spaces, maps)


@st.composite
def _loop_maps(draw, F, rows, cols):
    """A matrix rows[t] x cols[s] for every arrow s -> t, with sparse
    entries: small coefficients make consistent tie cycles likely at every
    p."""
    q = _LOOP_QUIVER
    entry = st.one_of(st.just(0), st.just(0), st.sampled_from((1, 2, F.p - 1)),
                      st.integers(0, F.p - 1))
    maps = {}
    for a in q.arrows:
        shape = (rows[q.vertices.index(q.target[a])],
                 cols[q.vertices.index(q.source[a])])
        maps[a] = np.reshape([draw(entry) for _ in range(shape[0] * shape[1])],
                             shape)
    return maps


@st.composite
def _loop_reps(draw, F):
    dims = [draw(st.integers(0, 3)) for _ in _LOOP_QUIVER.vertices]
    return _loop_rep(F, dims, draw(_loop_maps(F, dims, dims)))


def _extension(X, Z, d_maps):
    """E with E_v = X_v + Z_v and E_a = [[X_a, D_a], [0, Z_a]]: X is a
    submodule, Z the quotient, and D = 0 splits."""
    q, dims = _LOOP_QUIVER, dict(zip(_LOOP_QUIVER.vertices,
                                     zip(X.dims, Z.dims)))
    maps = {}
    for a in q.arrows:
        (xs, zs), (xt, zt) = dims[q.source[a]], dims[q.target[a]]
        e = np.zeros((xt + zt, xs + zs), dtype=np.int64)
        e[:xt, :xs] = X.maps[a]
        e[:xt, xs:] = d_maps.get(a, 0)
        e[xt:, xs:] = Z.maps[a]
        maps[a] = e
    return _loop_rep(X.field, [x + z for x, z in zip(X.dims, Z.dims)], maps)


@st.composite
def _loop_extensions(draw):
    """(X, Z, E) over ``_LoopQuiver``, dimensions up to 3 at each vertex."""
    F = PrimeField(draw(st.sampled_from(_PRIMES)))
    X, Z = draw(_loop_reps(F)), draw(_loop_reps(F))
    return X, Z, _extension(X, Z, draw(_loop_maps(F, X.dims, Z.dims)))


def _loop_case(p, x_dims, x_maps, z_dims, z_maps, d_maps=None):
    F = PrimeField(p)
    X, Z = _loop_rep(F, x_dims, x_maps), _loop_rep(F, z_dims, z_maps)
    return X, Z, _extension(X, Z, d_maps or {})


_LOOP_CASES = [
    # f_v = 2 f_u on a and f_v = w f_u on b: the tie cycle agrees iff w = 2
    _loop_case(32003, (1, 1, 0), {"a": [[1]], "b": [[1]]},
               (1, 1, 0), {"a": [[2]], "b": [[2]]}),
    _loop_case(32003, (1, 1, 0), {"a": [[1]], "b": [[1]]},
               (1, 1, 0), {"a": [[2]], "b": [[3]]}),
    _loop_case(5, (1, 1, 0), {"a": [[1]], "b": [[3]]},
               (1, 1, 0), {"a": [[2]], "b": [[1]]}),  # 6 = 1 mod 5
    # on the loop f_v l_X = l_Z f_v merges into (l_X - l_Z) f_v = 0
    _loop_case(3, (0, 1, 0), {"l": [[2]]}, (0, 1, 0), {"l": [[2]]}),
    _loop_case(3, (0, 1, 0), {"l": [[2]]}, (0, 1, 0), {"l": [[1]]}),
    # a 0 forced through a tie, and a row of three terms on top
    _loop_case(2, (1, 2, 1), {"a": [[1], [1]], "c": [[1, 1]]},
               (1, 1, 1), {"a": [[1]], "c": [[0]]}),
    # 0 -> S_v -> P -> S_u -> 0 does not split
    _loop_case(3, (0, 1, 0), {}, (1, 0, 0), {}, {"a": [[1]]}),
]


def _loop_examples(test):
    for case in reversed(_LOOP_CASES):
        test = example(case)(test)
    return test


def _loop_pairs(case):
    X, Z, E = case
    return [(X, Z), (Z, X), (X, E), (E, X)]


@settings(max_examples=300, deadline=None)
@given(_loop_extensions())
@_loop_examples
def test_hom_sweep_matches_dense(case):
    """``hom_basis`` on a small system, one sparse elimination of its
    equations, is the dense reference kernel.  ``is_split`` on the
    inclusion of X in the extension E agrees with the dense solve."""
    X, Z, E = case
    for M, N in _loop_pairs(case):
        _assert_same_basis(M, N)
    f = {v: np.eye(e, x, dtype=np.int64)
         for v, x, e in zip(_LOOP_QUIVER.vertices, X.dims, E.dims)}
    assert is_split(X, E, f) == _dense_is_split(X, E, f)


@contextlib.contextmanager
def _array_passes(chunk):
    """``hom_spaces`` forced through its array passes, in chunks of at most
    ``chunk`` unknowns (a larger system still makes a chunk of its own)."""
    saved = homlab._BATCH_UNKNOWNS, homlab._CHUNK_UNKNOWNS
    homlab._BATCH_UNKNOWNS, homlab._CHUNK_UNKNOWNS = 0, chunk
    try:
        yield
    finally:
        homlab._BATCH_UNKNOWNS, homlab._CHUNK_UNKNOWNS = saved


def _assert_hom_spaces_match(pairs, chunks=(1, 50, 4096)):
    """``hom_spaces`` equals the sweep ``_hom_kernel`` array for array, on
    its own route and by array passes over chunks of each size in
    ``chunks``."""
    want = [homlab._hom_kernel(M, N, *homlab._hom_unknowns(M, N))
            for M, N in pairs]
    runs = [list(hom_spaces(pairs))]
    for chunk in chunks:
        with _array_passes(chunk):
            runs.append(list(hom_spaces(pairs)))
    for got in runs:
        assert len(got) == len(want)
        for (kernel, blocks), (w_kernel, w_blocks) in zip(got, want):
            assert blocks == w_blocks
            assert kernel.dtype == w_kernel.dtype
            assert kernel.shape == w_kernel.shape
            assert np.array_equal(kernel, w_kernel)
            assert not kernel.flags.writeable


def test_hom_spaces_matches_on_loop_cases():
    # every example of test_hom_sweep_matches_dense in one batch, over the
    # fields 32003, 5, 3 and 2 in turn
    _assert_hom_spaces_match([pair for case in _LOOP_CASES
                              for pair in _loop_pairs(case)])


@settings(max_examples=100, deadline=None)
@given(st.lists(_loop_extensions(), min_size=1, max_size=6))
def test_hom_spaces_matches_on_loop_systems(cases):
    _assert_hom_spaces_match([pair for case in cases
                              for pair in _loop_pairs(case)], chunks=(1, 20))


@pytest.mark.parametrize("p", [32003, 2, 3, 5])
def test_hom_spaces_matches_on_inventories_and_lemmas(p):
    """The End pair of every inventory entry of the eight systems at bound
    10, and every pair a lemma site compares at length 6, in one batch."""
    pairs = []
    for name in sorted(SYSTEMS):
        c = ctx(name) if p == 32003 else Ctx(SYSTEMS[name], PrimeField(p))
        pairs += [(e.rep, e.rep) for e in c.modules.theorem_inventory(10)]
        for v, which in lemma_sites(c.quiver):
            _, R, assign = lemma(c.modules, v, which, 6)
            objects = [assign[o] for o in sorted(assign, key=repr)]
            pairs += [(R, o) for o in objects]
            pairs += [(u, o) for u in objects for o in objects]
    assert len(pairs) > 2000
    _assert_hom_spaces_match(pairs, chunks=(50, 4096))


def test_hom_spaces_matches_on_tsys_deep_inventory(tsys):
    """The End pair of every entry of tsys's inventory at bound 20 (the
    ``tsys-deep`` workload, 632 systems): 765 of their 2,163 rows of three
    or more terms fall to one or two roots once the ties are merged."""
    pairs = [(e.rep, e.rep) for e in tsys.modules.theorem_inventory(20)]
    assert len(pairs) == 632
    _assert_hom_spaces_match(pairs, chunks=(50, 4096))


def _verify_traffic(c, bound, monkeypatch):
    """The verifier after ``verify`` at ``bound``, its report, and every pair
    that its projective check and its row stages send to ``hom_spaces``, in
    order (the End stream of the inventory and the lemma patterns left
    out)."""
    pairs, real = [], homlab.hom_spaces

    def recording(batch):
        batch = list(batch)
        pairs.extend(batch)
        return real(batch)

    for name in ("_projective_keys", "_check_rows"):
        method = getattr(ArVerifier, name)

        def recorded(self, *args, method=method):
            monkeypatch.setattr(homlab, "hom_spaces", recording)
            try:
                return method(self, *args)
            finally:
                monkeypatch.setattr(homlab, "hom_spaces", real)

        monkeypatch.setattr(ArVerifier, name, recorded)
    ver = ArVerifier(c.modules, c.algebra)
    report = ver.verify(bound)
    monkeypatch.undo()
    return ver, report, pairs


@pytest.mark.parametrize("name, bound, p", [
    ("tsys", 20, 32003), ("tsys", 20, 2), ("ex14", 12, 32003)])
def test_hom_spaces_matches_on_verify_traffic(name, bound, p, monkeypatch):
    """Every Hom system of ``verify``'s projective check and row stages:
    the P(v), the middles E_i and their direct sums E, the cokernels and
    the DTr modules, all built densely, not as inventory entries.  The
    array passes give the sweep's arrays and blocks on each."""
    c = ctx(name) if p == 32003 else Ctx(SYSTEMS[name], PrimeField(p))
    ver, report, pairs = _verify_traffic(c, bound, monkeypatch)
    assert report["failures"] == [] and len(pairs) > 500
    inventory = {id(e.rep) for e in ver.inventory}
    outside = {id(M) for pair in pairs for M in pair} - inventory
    assert len(outside) > 300
    _assert_hom_spaces_match(pairs, chunks=(50, 4096))


def test_staged_rows_match_the_library_per_row(tsys):
    """Each row of ``verify`` on tsys at 20, checked stage by stage over all
    rows, has the status and certificate that the library functions give
    for that row alone."""
    ver = ArVerifier(tsys.modules, tsys.algebra)
    report = ver.verify(20)
    rows = {r["key"]: r for r in ver.rows(20)}
    assert report["rows_checked"] == 146
    for entry in report["rows"]:
        row = rows[entry["key"]]
        (X,), (Z,) = ([ver.atom_rep(a) for a in row[end]]
                      for end in ("left", "right"))
        middles = [ver.atom_rep(a) for a in row["middle"]]
        E, f, g = realize_ses(X, middles, Z)
        assert entry["status"] == {
            "additivity": True, "realized": True,
            "nonsplit": not is_split(X, E, f),
            "ends_indecomposable": True,
            "tau": is_isomorphic(ar_translate(Z, tsys.algebra), X).isomorphic}
        assert entry["certificate"] == {
            "injection": {v: m.tolist() for v, m in f.items() if m.size},
            "surjection": {v: m.tolist() for v, m in g.items() if m.size}}


def test_hom_spaces_threshold_keeps_single_pairs_on_the_sweep(ex14,
                                                              monkeypatch):
    # a batch below the threshold never reaches the array passes
    monkeypatch.setattr(homlab, "_hom_batch",
                        lambda systems: pytest.fail("array pass"))
    M = ex14.modules.theorem_inventory(8)[-1].rep
    assert homlab._hom_unknowns(M, M)[1] < homlab._BATCH_UNKNOWNS
    (kernel, blocks), = hom_spaces([(M, M)])
    want = hom_space(M, M)
    assert blocks == want[1] and np.array_equal(kernel, want[0])


def test_hom_spaces_splits_mixed_streams(monkeypatch):
    """One ``hom_spaces`` call over the GF(2) and GF(32003) modules of tsys
    and ex14, in runs of seven pairs that alternate the field on one quiver
    object, equals the sweep pair by pair: each array pass is over one
    field and one quiver."""
    pairs = []
    for name in ("tsys", "ex14"):
        c = ctx(name)
        runs = []
        for sm in (c.modules, StringModules(c.calc, PrimeField(2))):
            reps = [e.rep for e in sm.theorem_inventory(8)]
            mixed = [pair for M, N in zip(reps, reps[1:])
                     for pair in ((M, M), (M, N))]
            runs.append([mixed[i: i + 7] for i in range(0, len(mixed), 7)])
        pairs += [pair for two in zip(*runs) for run in two for pair in run]
    assert sum(homlab._hom_unknowns(M, N)[1] for M, N in pairs) >= 2 * 4096
    chunks, real = [], homlab._hom_batch
    monkeypatch.setattr(homlab, "_hom_batch",
                        lambda systems: chunks.append(systems) or
                        real(systems))
    got = list(hom_spaces(pairs))
    assert len(got) == len(pairs)
    for (M, N), (kernel, blocks) in zip(pairs, got):
        w_kernel, w_blocks = homlab._hom_kernel(M, N,
                                                *homlab._hom_unknowns(M, N))
        assert blocks == w_blocks
        assert np.array_equal(kernel, w_kernel)
    fields = [{(s[0].field.p, id(s[0].quiver)) for s in chunk}
              for chunk in chunks]
    assert all(len(f) == 1 for f in fields)
    # the field changes every seven pairs on each quiver
    assert len(chunks) >= len(pairs) // 7


def test_every_hom_system_enters_through_hom_spaces(monkeypatch):
    """Every Hom system solved, swept (``_hom_kernel``) or in an array pass
    (``_hom_batch``), was handed to ``hom_spaces``, through ``homlab`` or
    ``vsc``: ``verify`` on tsys at 10, then ``hom_basis``, a lone
    ``is_indecomposable`` on a direct sum and ``find_iso`` between two
    direct sums, which takes the Krull-Schmidt route."""
    handed, swept, passed = [], [], []
    for module in (homlab, vsc):
        def handing(pairs, real=module.hom_spaces):
            pairs = list(pairs)
            handed.extend(pairs)
            return real(pairs)

        monkeypatch.setattr(module, "hom_spaces", handing)
    kernel, batch, split = (homlab._hom_kernel, homlab._hom_batch,
                            homlab._krull_schmidt_iso)
    monkeypatch.setattr(homlab, "_hom_kernel", lambda M, N, *rest:
                        swept.append((M, N)) or kernel(M, N, *rest))
    monkeypatch.setattr(homlab, "_hom_batch", lambda systems:
                        passed.extend(s[:2] for s in systems) or
                        batch(systems))
    routes = []
    monkeypatch.setattr(homlab, "_krull_schmidt_iso", lambda M, N:
                        routes.append((M, N)) or split(M, N))
    c = Ctx(SYSTEMS["tsys"])
    ver = ArVerifier(c.modules, c.algebra)
    assert ver.verify(10)["failures"] == []
    reps = [e.rep for e in ver.inventory]
    hom_basis(reps[2], reps[3])
    assert is_indecomposable(reps[0].direct_sum(reps[1])) == (
        IndecVerdict.DECOMPOSABLE)
    M, N = reps[4].direct_sum(reps[5]), reps[5].direct_sum(reps[4])
    assert find_iso(M, N) is not None and routes == [(M, N)]
    assert swept and passed
    ids = collections.Counter((id(M), id(N)) for M, N in handed)
    assert ids == collections.Counter((id(M), id(N))
                                      for M, N in swept + passed)


def test_euler_form_on_hereditary_systems():
    """dim Hom(X, Y) - dim Hom(Y, tau X) = <dim X, dim Y> for every ordered
    pair of inventory entries of the hereditary systems at bound 10 (the
    Auslander-Reiten formula, Ext^1(X, Y) = D Hom(Y, tau X); Assem-Simson-
    Skowronski, Elements Vol. 1, Ch. III-IV), all Hom systems in one batch
    per system.  tau X = 0 for a projective X."""
    checked = 0
    for name in ("fund21", "fund32", "fund22"):
        c = ctx(name)
        assert not c.relations
        q = c.quiver
        reps = [e.rep for e in c.modules.theorem_inventory(10)]
        taus = [None if is_projective(X, c.algebra) else
                ar_translate(X, c.algebra) for X in reps]
        dims = np.array([X.dims for X in reps])
        index = {v: i for i, v in enumerate(q.vertices)}
        src = [index[q.source[a]] for a in q.arrows]
        tgt = [index[q.target[a]] for a in q.arrows]
        euler = dims @ dims.T - dims[:, src] @ dims[:, tgt].T
        pairs = [(X, Y) for X in reps for Y in reps]
        pairs += [(Y, tau) for tau in taus if tau is not None for Y in reps]
        dims_hom = iter([len(kernel) for kernel, _ in hom_spaces(pairs)])
        hom = np.array([next(dims_hom) for _ in range(len(reps) ** 2)])
        ext = np.zeros((len(reps), len(reps)), dtype=np.int64)
        for i, tau in enumerate(taus):
            if tau is not None:
                ext[i] = [next(dims_hom) for _ in reps]
        assert next(dims_hom, None) is None
        assert np.array_equal(hom.reshape(ext.shape) - ext, euler), name
        checked += len(reps) ** 2
    assert checked == 12716


@settings(max_examples=100, deadline=None)
@given(_systems())
def test_quotients_match_greedy_extension(system):
    """The section of ``_quotients`` spans the unit vectors e_i that extend
    the column space, taken greedily."""
    F, dense, _ = system
    img = F.column_space(dense)
    n = dense.shape[0]
    greedy, cur = [], img
    for i in range(n):
        e = F.zeros(n, 1)
        e[i, 0] = 1
        if F.rank(np.hstack([cur, e])) > cur.shape[1]:
            greedy.append(i)
            cur = np.hstack([cur, e])
    _, section = _quotients(F, {"v": img})["v"]
    assert section.shape == (n, len(greedy))
    assert np.array_equal(section, F.eye(n)[:, greedy])


@st.composite
def _matrix_batches(draw):
    """(field, list of matrices) over one field: random sparse or dense
    matrices with zero, empty and full-rank ones mixed in."""
    F = PrimeField(draw(st.sampled_from(_PRIMES)))
    mats = []
    for _ in range(draw(st.integers(0, 5))):
        n, k = draw(st.integers(0, 6)), draw(st.integers(0, 6))
        kind = draw(st.sampled_from(("random", "zero", "full")))
        if kind == "zero":
            mats.append(F.zeros(n, k))
        elif kind == "full":  # rank min(n, k): an identity, scrambled
            a = F.eye(max(n, k))[:n, :k]
            mixer = np.triu(np.ones((n, n), dtype=np.int64))
            mats.append(F.mul(mixer, a) if n and k else a)
        else:
            keep = draw(st.integers(1, 4))
            mats.append(np.array(
                [[draw(st.integers(0, F.p - 1))
                  if draw(st.integers(1, keep)) == 1 else 0
                  for _ in range(k)] for _ in range(n)],
                dtype=np.int64).reshape(n, k))
    return F, mats


def _edge_batch(p):
    """Zero, empty and full-rank blocks side by side, and a random one."""
    F = PrimeField(p)
    rand = np.array([[1, 0, p - 1], [2 % p, 0, 1], [0, 0, 0]], dtype=np.int64)
    return F, [F.zeros(3, 2), F.zeros(0, 3), F.zeros(2, 0), F.zeros(0, 0),
               F.eye(3), rand, F.eye(4)[:, :2]]


@settings(max_examples=200, deadline=None)
@given(_matrix_batches())
@example(_edge_batch(2))
@example(_edge_batch(3))
@example(_edge_batch(32003))
def test_quotients_match_per_matrix_reference(batch):
    """One batched elimination gives every matrix its own quotient: the
    projection is the reference Gauss-Jordan RREF of [a | I] past rank a,
    read in the identity columns, the section the unit vectors at its
    pivots there; proj a = 0 and proj section = I."""
    F, mats = batch
    got = _quotients(F, dict(enumerate(mats)))
    assert list(got) == list(range(len(mats)))
    for key, a in enumerate(mats):
        n, k = a.shape
        m, pivots = _gauss_jordan(F, np.hstack([a, F.eye(n)]))
        rank = sum(c < k for c in pivots)
        chosen = [c - k for c in pivots[rank:]]
        proj, section = got[key]
        assert np.array_equal(proj, m[rank:n, k:])
        assert np.array_equal(section, F.eye(n)[:, chosen])
        assert F.is_zero(F.mul(proj, a))
        assert np.array_equal(F.mul(proj, section), F.eye(len(chosen)))


# -- deterministic isomorphism ---------------------------------------------------


def _nilpotent_composite_reference(M, N):
    """M and N with End(M) or End(N) local are isomorphic iff some composite
    g f of the two Hom bases is not nilpotent."""
    if M.dim_tuple() != N.dim_tuple():
        return False
    F = M.field
    return any(not is_nilpotent(F, total_matrix(M, compose_maps(F, g, f)))
               for f in hom_basis(M, N) for g in hom_basis(N, M))


def _assert_isomorphism(M, N, f):
    F = M.field
    assert is_intertwiner(M, N, f)
    for v in M.quiver.vertices:
        assert f[v].shape == (N.dim(v), M.dim(v)) and M.dim(v) == N.dim(v)
        if M.dim(v):
            assert F.rank(f[v]) == M.dim(v)


def _check_local_decision(M, N):
    want = _nilpotent_composite_reference(M, N)
    f = find_iso(M, N)
    assert (f is not None) == want
    assert is_indecomposable(N).status == IndecVerdict.LOCAL
    verdict = is_isomorphic(M, N, both_local=True)
    assert verdict.isomorphic == want
    if want:
        _assert_isomorphism(M, N, f)
        _assert_isomorphism(M, N, verdict.certificate)
    return want


@pytest.mark.parametrize("name", sorted(SYSTEMS))
def test_local_iso_decision_matches_nilpotent_composites(name):
    c = ctx(name)
    inv = c.modules.theorem_inventory(8)
    groups = {}
    for e in inv:
        groups.setdefault(e.rep.dim_tuple(), []).append(e.rep)
    decided = [_check_local_decision(a, b) for reps in groups.values()
               for k, a in enumerate(reps) for b in reps[k:]]
    assert decided.count(True) == len(inv)  # each entry only with itself
    ver = ArVerifier(c.modules, c.algebra)
    taus = 0
    for row in ver.rows(8):
        if row["middle_dim"] > 8 or len(row["right"]) != 1:
            continue
        right = ver.atom_rep(row["right"][0])
        if is_projective(right, c.algebra):
            continue
        tau = ar_translate(right, c.algebra)
        for a in row["left"]:
            taus += _check_local_decision(tau, ver.atom_rep(a))
    assert taus > 0


def _sum_cases(fund21, tsys):
    """(M, N, isomorphic) for direct sums that the basis scan alone cannot
    decide: permuted sums, and sums with equal dimension vectors that
    differ in one summand, with lambda != 1 band summands among them."""
    sm, calc = fund21.modules, fund21.calc
    a = sm.construct_M(calc.word(("alpha:1:1", "alpha:1:2")))
    b = sm.construct_M(calc.word(("alpha:1:2", "beta:1:1")))
    r5 = sm.construct_R(calc.band_b0(), 5, 1)
    r6 = sm.construct_R(calc.band_b0(), 6, 1)
    smt = tsys.modules
    c = smt.construct_M(tsys.calc.mu("x:1:2"))
    d = smt.construct_M(tsys.calc.trivial("z:1:2"))
    s = lambda *ms: ms[0] if len(ms) == 1 else ms[0].direct_sum(s(*ms[1:]))
    return [
        (s(a, a, b), s(b, a, a), True),
        (s(c, c, d), s(d, c, c), True),
        (s(a, a), s(a, b), False),
        (s(a, b, b), s(a, a, b), False),
        (s(r5, a), s(a, r5), True),
        (s(r5, a), s(r6, a), False),
        (s(r5, r5, b), s(b, r5, r5), True),
        (s(r5, r6), s(r6, r6), False),
    ]


def test_krull_schmidt_sums(fund21, tsys):
    for M, N, want in _sum_cases(fund21, tsys):
        assert M.dim_tuple() == N.dim_tuple()
        f = find_iso(M, N)
        assert (f is not None) == want
        assert is_isomorphic(M, N).isomorphic == want
        if want:
            _assert_isomorphism(M, N, f)
        assert (find_iso(N, M) is not None) == want


def test_krull_schmidt_rejects_field_obstruction(fund21):
    # End of the band glued along t^2 + 1 over GF(3) is GF(9): its square has
    # no invertible Hom basis element and no summand LOCAL over GF(3)
    F3 = PrimeField(3)
    eye = np.eye(2, dtype=np.int64)
    rep = Representation(fund21.quiver, F3,
                         {v: (("v", 0), ("v", 1))
                          for v in fund21.quiver.vertices},
                         {"alpha:1:1": eye, "alpha:1:2": eye,
                          "beta:1:1": np.array([[0, 2], [1, 0]])})
    with pytest.raises(ValueError):
        find_iso(rep.direct_sum(rep), rep.direct_sum(rep))


def test_zero_modules_are_isomorphic(fund21):
    zero = zero_representation(fund21.quiver, fund21.field)
    f = find_iso(zero, zero)
    assert f is not None
    assert all(f[v].shape == (0, 0) for v in fund21.quiver.vertices)
    verdict = is_isomorphic(zero, zero)
    assert verdict.isomorphic and verdict.certificate is not None
    s = fund21.modules.construct_M(fund21.calc.trivial("x:1:0"))
    assert find_iso(zero, s) is None and not is_isomorphic(s, zero)


def test_find_iso_rejects_mixed_fields_before_answering(tsys):
    # as hom_space does: zero modules and unequal dimension vectors over
    # different fields are a usage error, not an answer
    gf3, gf5 = (Ctx(SYSTEMS["tsys"], PrimeField(p)) for p in (3, 5))
    zeros = [zero_representation(tsys.quiver, c.field) for c in (gf3, gf5)]
    for M, N in (zeros, (gf3.modules.construct_Qband("x:1:2", 1),
                         gf5.modules.construct_Qband("x:1:2", 2)),
                 (zeros[0], gf5.modules.construct_Qband("x:1:2", 1))):
        with pytest.raises(ValueError, match="different fields"):
            find_iso(M, N)
        with pytest.raises(ValueError, match="different fields"):
            is_isomorphic(M, N)
        with pytest.raises(ValueError, match="different fields"):
            hom_space(M, N)


def test_isomorphism_draws_no_random_numbers(monkeypatch, fund21, tsys):
    def no_rng(*args, **kwargs):
        raise AssertionError("random numbers drawn")

    monkeypatch.setattr(np.random, "default_rng", no_rng)
    for M, N, want in _sum_cases(fund21, tsys):
        assert (find_iso(M, N) is not None) == want
        assert is_isomorphic(M, N).isomorphic == want
    report = ArVerifier(tsys.modules, tsys.algebra).verify(10)
    assert report["failures"] == [] and report["rows_checked"] > 0


# -- isomorphism invariants -------------------------------------------------------


@st.composite
def _loop_conjugates(draw):
    """(M, N) over ``_LoopQuiver`` with N_a = g_t M_a g_s^-1 for a random
    invertible g_v = (row permutation of a unit lower triangular) @ upper
    triangular with a nonzero diagonal, at every vertex."""
    F = PrimeField(draw(st.sampled_from(_PRIMES)))
    M = draw(_loop_reps(F))
    units = st.integers(1, F.p - 1)
    g = {}
    for v, d in zip(_LOOP_QUIVER.vertices, M.dims):
        lower, upper = (np.array([draw(st.integers(0, F.p - 1))
                                  for _ in range(d * d)],
                                 dtype=np.int64).reshape(d, d)
                        for _ in range(2))
        diag = np.diag([draw(units) for _ in range(d)]).astype(np.int64)
        perm = draw(st.permutations(range(d)))
        g[v] = ((np.tril(lower, -1) + F.eye(d))[perm] @
                (np.triu(upper, 1) + diag)) % F.p
    q = _LOOP_QUIVER
    maps = {a: F.mul(F.mul(g[q.target[a]], M.maps[a]),
                     F.inv_matrix(g[q.source[a]]))
            if M.maps[a].size else M.maps[a] for a in q.arrows}
    return M, _loop_rep(F, M.dims, maps)


@settings(max_examples=200, deadline=None)
@given(_loop_conjugates())
def test_recorded_invariants_agree_on_isomorphic_modules(case):
    """Once End is solved on both sides, isomorphic modules carry the same
    dim End and arrow ranks, so ``find_iso`` goes on to the Hom scan and
    returns an isomorphism."""
    M, N = case
    assume(not M.is_zero())
    verdicts = [is_indecomposable(X) for X in (M, N)]
    assert M.end_dim == N.end_dim == len(hom_basis(M, M))
    assert homlab._arrow_ranks(M) == homlab._arrow_ranks(N) == tuple(
        M.field.rank(M.maps[a]) for a in M.support_arrows)
    local = verdicts[0].status == IndecVerdict.LOCAL
    assert verdicts[1].status == verdicts[0].status
    try:
        f = find_iso(M, N)
    except ValueError as exc:
        # a summand with End/rad larger than GF(p): Krull-Schmidt over GF(p)
        # does not decide, with or without the invariants
        assert not local and "Krull-Schmidt" in str(exc)
        return
    assert f is not None
    _assert_isomorphism(M, N, f)


def test_invariants_settle_inventory_pairs_as_the_hom_scan(monkeypatch):
    """On every same-dimension pair of the bound-8 inventories of the eight
    systems, once each entry is certified, ``find_iso`` agrees with a full
    scan of the Hom(M, N) basis for a map invertible at every vertex, and
    solves no Hom system for a pair whose invariants differ.  Some pairs
    are settled by dim End and some, with equal dim End, by the arrow
    ranks alone."""
    real = homlab.hom_basis
    solved = _recorded_batches(monkeypatch)
    by_end = by_ranks = 0
    for name in sorted(SYSTEMS):
        c = ctx(name)
        groups = {}
        for e in c.modules.theorem_inventory(8):
            assert is_indecomposable(e.rep).status == IndecVerdict.LOCAL
            groups.setdefault(e.rep.dims, []).append(e.rep)
        for reps in groups.values():
            for k, M in enumerate(reps):
                for N in reps[k + 1:]:
                    F = M.field
                    want = any(all(F.rank(f[v]) == M.dim(v)
                                   for v in M.support)
                               for f in real(M, N))
                    ends = [len(real(X, X)) for X in (M, N)]
                    ranks = [tuple(F.rank(X.maps[a])
                                   for a in X.support_arrows)
                             for X in (M, N)]
                    assert [M.end_dim, N.end_dim] == ends
                    settled = ends[0] != ends[1] or ranks[0] != ranks[1]
                    by_end += ends[0] != ends[1]
                    by_ranks += ends[0] == ends[1] and settled
                    del solved[:]
                    f = find_iso(M, N)
                    assert (f is not None) == want, (name, M, N)
                    assert sum(solved, []) == ([] if settled else [(M, N)])
                    for X, r in zip((M, N), ranks):
                        assert X.arrow_ranks in (None, r)
                    if want:
                        _assert_isomorphism(M, N, f)
    assert by_end and by_ranks


def _recorded_batches(monkeypatch) -> list:
    """The batches handed to ``homlab.hom_spaces`` from now on, each as the
    list of its pairs, in call order."""
    batches, real = [], homlab.hom_spaces

    def recording(pairs):
        batches.append(list(pairs))
        return real(batches[-1])

    monkeypatch.setattr(homlab, "hom_spaces", recording)
    return batches


def test_fresh_modules_take_the_hom_route(fund21, monkeypatch):
    """Without a recorded dim End on both sides no invariant is used or
    solved for: ``find_iso`` solves Hom(M, N) and nothing else."""
    sm, calc = fund21.modules, fund21.calc
    a = sm.construct_M(calc.word(("alpha:1:1", "alpha:1:2")))
    b = sm.construct_M(calc.word(("alpha:1:2", "beta:1:1")))
    assert a.dims == b.dims
    solved = _recorded_batches(monkeypatch)
    is_indecomposable(a)
    assert solved == [[(a, a)]] and a.end_dim == 1
    assert find_iso(a, b) is None
    assert solved == [[(a, a)], [(a, b)]]
    assert a.arrow_ranks is None and b.end_dim is None


def test_both_local_is_a_checked_claim(fund21):
    """``both_local`` must be backed by a recorded LOCAL verdict, and it does
    not change the answer."""
    sm, calc = fund21.modules, fund21.calc
    a = sm.construct_M(calc.word(("alpha:1:1", "alpha:1:2")))
    b = sm.construct_M(calc.word(("alpha:1:2", "beta:1:1")))
    with pytest.raises(ValueError, match="both_local"):
        is_isomorphic(a, b, both_local=True)
    assert a.indec is None and b.indec is None
    assert is_indecomposable(b).status == IndecVerdict.LOCAL
    assert not is_isomorphic(a, b, both_local=True)
    assert is_isomorphic(b, b, both_local=True)


def test_uncertified_local_pair_certifies_target_once(fund21, monkeypatch):
    """On a failed scan with no verdict on either side, ``find_iso`` solves
    End(N) once, keeps the verdict on N, and answers from it without the
    Krull-Schmidt route; a LOCAL verdict on M answers with no End solve."""
    sm, calc = fund21.modules, fund21.calc
    a = sm.construct_M(calc.word(("alpha:1:2", "beta:1:1")))
    b = sm.construct_M(calc.word(("beta:1:1", "alpha:1:1")))
    assert a.dims == b.dims and len(hom_basis(a, b)) == 1
    solved = _recorded_batches(monkeypatch)
    monkeypatch.setattr(homlab, "_krull_schmidt_iso",
                        lambda M, N: pytest.fail("Krull-Schmidt route"))
    assert find_iso(a, b) is None
    assert solved == [[(a, b)], [(b, b)]]
    assert b.indec == IndecVerdict.LOCAL and a.indec is None
    assert find_iso(a, b) is None
    assert solved == [[(a, b)], [(b, b)], [(a, b)]]
    # a LOCAL verdict already on M ends the search with no End solve
    is_indecomposable(a)
    fresh = sm.construct_M(calc.word(("beta:1:1", "alpha:1:1")))
    del solved[:]
    assert find_iso(a, fresh) is None
    assert solved == [[(a, fresh)]] and fresh.indec is None


# -- LOCAL certification by the radical flag -------------------------------------


def _power(F, a, n):
    out = F.eye(len(a))
    for _ in range(n):
        out = out @ a % F.p
    return out


def _scalar_part(F, t):
    """l with t = l id + nilpotent, or None.  (l + n)^q = l for q = p^k >= d,
    since Frobenius fixes GF(p) and n^q = 0."""
    d, q = len(t), F.p
    while q < d:
        q *= F.p
    power, base = F.eye(d), t % F.p
    while q:
        if q & 1:
            power = power @ base % F.p
        base = base @ base % F.p
        q >>= 1
    lam = int(power[0, 0])
    shift = (t - lam * np.eye(d, dtype=np.int64)) % F.p
    return None if _power(F, shift, d).any() else lam


def _local_reference(M, basis):
    """End(M) is local iff every basis element is l id + nilpotent and every
    product of d shifts vanishes: the span of the products of each length is
    closed under left multiplication by the shifts, d times."""
    F, d = M.field, M.total_dim
    shifts = []
    for f in basis:
        t = total_matrix(M, f)
        lam = _scalar_part(F, t)
        if lam is None:
            return False
        shifts.append((t - lam * np.eye(d, dtype=np.int64)) % F.p)
    span = shifts
    for _ in range(d - 1):
        prods = [g @ m % F.p for g in shifts for m in span]
        _, pivots = F.rref(np.array([m.reshape(-1) for m in prods]).T)
        span = [prods[i] for i in pivots]
        if not span:
            return True
    return not any(m.any() for m in span)


def _assert_certified(M, basis=None):
    """The verdict equals the product-closure reference; a DECOMPOSABLE
    certificate is a nontrivial idempotent intertwiner."""
    basis = hom_basis(M, M) if basis is None else basis
    verdict = homlab._certify(M, basis)
    local = _local_reference(M, basis)
    assert (verdict.status == IndecVerdict.LOCAL) == local
    if not local:
        assert verdict.status == IndecVerdict.DECOMPOSABLE
        F, e = M.field, verdict.certificate
        assert is_intertwiner(M, M, e)
        sq = compose_maps(F, e, e)
        assert all(np.array_equal(sq[v], e[v] % F.p) for v in e)
        assert 0 < F.rank(total_matrix(M, e)) < M.total_dim
    return local


def _square_with_nilpotent_basis(M):
    """M + M with an End basis of scalar + nilpotent elements spanning
    End(M + M) = M_2(End M), which is not local: n (x) b for b in an End(M)
    basis and n in {id, E12, E21, [[1, 1], [-1, -1]]}.  Only the product
    search behind a stalled flag can split it."""
    F = M.field
    ns = [[[1, 0], [0, 1]], [[0, 1], [0, 0]], [[0, 0], [1, 0]],
          [[1, 1], [-1, -1]]]
    basis = [{v: np.kron(np.array(n), b[v]) % F.p for v in b}
             for n in ns for b in hom_basis(M, M)]
    return M.direct_sum(M), basis


@pytest.mark.parametrize("name", sorted(SYSTEMS))
def test_certify_matches_product_closure(name):
    c = ctx(name)
    inv = c.modules.theorem_inventory(8)
    assert all(_assert_certified(e.rep) for e in inv)
    translated = 0
    for e in inv:
        if e.rep.total_dim <= 6 and not is_projective(e.rep, c.algebra):
            translated += _assert_certified(ar_translate(e.rep, c.algebra))
    assert translated > 0


def test_certify_sums_match_product_closure(fund21, tsys):
    from tworay.string_modules import StringModules

    sums = {id(M): M for M, N, _ in _sum_cases(fund21, tsys) for M in (M, N)}
    assert not any(_assert_certified(M) for M in sums.values())
    sm2 = StringModules(fund21.calc, PrimeField(2))
    atoms = [fund21.modules.construct_R(fund21.calc.band_b0(), 5, 1),
             fund21.modules.construct_M(fund21.calc.word(("alpha:1:1",))),
             tsys.modules.construct_M(tsys.calc.mu("x:1:2")),
             sm2.construct_M(fund21.calc.trivial("x:1:0"))]
    for M in atoms:
        assert _assert_certified(M)
        assert not _assert_certified(*_square_with_nilpotent_basis(M))


def test_local_certification_never_searches_products(monkeypatch, fund21):
    # LOCAL needs neither the product search nor the charpoly: the
    # Frobenius power gives every eigenvalue
    def forbidden(*args):
        raise AssertionError("product search entered")

    def no_charpoly(*args):
        raise AssertionError("charpoly factored")

    monkeypatch.setattr(homlab, "_fitting_witness", forbidden)
    monkeypatch.setattr(homlab, "factor_charpoly", no_charpoly)
    for name in ("tsys", "s24", "ex14"):
        for e in ctx(name).modules.theorem_inventory(10):
            assert is_indecomposable(e.rep).status == IndecVerdict.LOCAL
    s = fund21.modules.construct_M(fund21.calc.trivial("x:1:0"))
    with pytest.raises(AssertionError, match="product search"):
        homlab._certify(*_square_with_nilpotent_basis(s))


# -- scalar parts by one Frobenius power ------------------------------------------


def _nilpotent_mask(F, stack):
    """Which matrices of a k x n x n stack are nilpotent, by squaring."""
    m = stack % F.p
    for _ in range(max(1, stack.shape[-1]).bit_length()):
        m = F.mul(m, m)
    return ~m.any(axis=(-2, -1))


def _certify_per_element(M, basis):
    """``_certify`` with the scalar parts found element by element: l =
    trace / d where p does not divide d, checked by a nilpotency mask, and
    otherwise the root that ``factor_charpoly`` returns."""
    F, d = M.field, M.total_dim
    eye = F.eye(d)
    totals = homlab.total_matrices(M, basis)
    lams = np.zeros(len(basis), dtype=np.int64)
    nil = np.zeros(len(basis), dtype=bool)
    if d % F.p:
        lams = np.trace(totals, axis1=1, axis2=2) % F.p * F.inv(d) % F.p
        nil = _nilpotent_mask(F, totals - lams[:, None, None] * eye)
    for i, f in enumerate(basis):
        if nil[i]:
            continue
        found = homlab.factor_charpoly(F, totals[i])
        if isinstance(found, int):
            lams[i] = found
        elif isinstance(found, list):
            return IndecVerdict(IndecVerdict.FIELD_OBSTRUCTION, (f, found))
        else:
            return IndecVerdict(IndecVerdict.DECOMPOSABLE,
                                homlab._vertex_maps(M, found))
    shifts = (totals - lams[:, None, None] * eye) % F.p
    if homlab._generates_nilpotent(F, shifts):
        return IndecVerdict(IndecVerdict.LOCAL)
    return IndecVerdict(IndecVerdict.DECOMPOSABLE, homlab._vertex_maps(
        M, homlab._fitting_witness(F, shifts)))


def _assert_same_certificate(M, basis=None):
    """``_certify`` and the per-element route agree, array for array."""
    basis = hom_basis(M, M) if basis is None else basis
    got, want = homlab._certify(M, basis), _certify_per_element(M, basis)
    assert got.status == want.status
    if want.status == IndecVerdict.DECOMPOSABLE:
        assert got.certificate.keys() == want.certificate.keys()
        assert all(np.array_equal(got.certificate[v], want.certificate[v])
                   for v in want.certificate)
    elif want.status == IndecVerdict.FIELD_OBSTRUCTION:
        (f, fac), (g, gac) = got.certificate, want.certificate
        assert f is g and fac == gac
    return got.status


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_certify_matches_per_element_route(p):
    statuses = set()
    for name in sorted(SYSTEMS):
        c = Ctx(SYSTEMS[name], PrimeField(p))
        for e in c.modules.theorem_inventory(10):
            statuses.add(_assert_same_certificate(e.rep))
    assert statuses == {IndecVerdict.LOCAL}


@pytest.mark.parametrize("p", [3, 32003])
def test_certify_matches_per_element_route_on_sums(p):
    c = Ctx(SYSTEMS["tsys"], PrimeField(p))
    inv = [e.rep for e in c.modules.theorem_inventory(8)]
    for M, N in zip(inv[::3], inv[1::3]):
        assert (_assert_same_certificate(M.direct_sum(N))
                == IndecVerdict.DECOMPOSABLE)


def test_certify_matches_per_element_route_on_the_control(fund21):
    F3 = PrimeField(3)
    eye = np.eye(2, dtype=np.int64)
    want = {(0, 2, 1, 0): IndecVerdict.FIELD_OBSTRUCTION,  # t^2 + 1
            (1, 0, 0, 2): IndecVerdict.DECOMPOSABLE}
    for entries, status in want.items():
        rep = Representation(fund21.quiver, F3,
                             {v: (("v", 0), ("v", 1))
                              for v in fund21.quiver.vertices},
                             {"alpha:1:1": eye, "alpha:1:2": eye,
                              "beta:1:1": np.array(entries).reshape(2, 2)})
        assert _assert_same_certificate(rep) == status


@st.composite
def _scalar_plus_nilpotent_sets(draw):
    """(field, k x d x d stack): uniform entries, or c_i id plus a strictly
    upper triangular matrix conjugated by a unit triangular P."""
    F = PrimeField(draw(st.sampled_from((2, 3, 5, 7, 32003))))
    d, k = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    entry = st.integers(0, F.p - 1)

    def mats(n):
        flat = draw(st.lists(entry, min_size=n * d * d, max_size=n * d * d))
        return np.array(flat, dtype=np.int64).reshape(n, d, d)

    stack = mats(k)
    if draw(st.booleans()):
        lower, upper = mats(2)
        P = (np.tril(lower, -1) + F.eye(d)) @ (np.triu(upper, 1) + F.eye(d))
        cs = np.array(draw(st.lists(entry, min_size=k, max_size=k)))
        stack = (P % F.p @ np.triu(stack, 1) @ F.inv_matrix(P % F.p)
                 + cs[:, None, None] * F.eye(d)) % F.p
    return F, stack


@settings(max_examples=200, deadline=None)
@given(_scalar_plus_nilpotent_sets())
def test_frobenius_power_finds_the_scalar_part(case):
    # f = l id + nilpotent iff f^q = l id, q the least power of p >= d;
    # brute force tries every c in GF(p) for p <= 7, and tr / d above d
    F, stack = case
    d = stack.shape[-1]
    powers = homlab._frobenius_power(F, stack)
    for f, power in zip(stack, powers):
        lam = int(power[0, 0])
        scalar = np.array_equal(power, lam * F.eye(d))
        cs = (range(F.p) if F.p <= 7
              else [int(np.trace(f)) * F.inv(d) % F.p])
        brute = [c for c in cs
                 if not _power(F, (f - c * F.eye(d)) % F.p, d).any()]
        assert scalar == bool(brute)
        assert not scalar or brute == [lam]


# -- LOCAL certification by the trace form ---------------------------------------


def _trace_rank_and_flag(M):
    """rank tr(f_i f_j) on the End basis, and the verdict of the route
    behind it (Frobenius power, flag, Fitting witness), which ``_certify``
    takes without the trace form."""
    rank = homlab._trace_form_rank(M, *homlab.hom_space(M, M))
    return rank, homlab._certify(M, hom_basis(M, M))


@pytest.mark.parametrize("name", sorted(SYSTEMS))
def test_trace_form_matches_flag(name):
    # Dickson: with p > dim M, rank tr(f_i f_j) = dim End(M)/rad, so LOCAL
    # iff the rank is 1, as the flag decides
    c = ctx(name)
    inv = [e.rep for e in c.modules.theorem_inventory(8)]
    mods = inv + [ar_translate(M, c.algebra) for M in inv
                  if not is_projective(M, c.algebra)]
    assert len(mods) > len(inv)
    ranks = set()
    for M in mods:
        assert M.total_dim < c.field.p
        rank, flag = _trace_rank_and_flag(M)
        assert (rank == 1) == (flag.status == IndecVerdict.LOCAL)
        assert is_indecomposable(M).status == flag.status
        ranks.add(rank)
    assert 1 in ranks


def test_trace_form_on_sums(fund21, tsys, monkeypatch):
    # on the direct sums the trace form has rank >= 2 and the DECOMPOSABLE
    # certificate is the flag route's, element for element
    sums = {id(M): M for M, N, _ in _sum_cases(fund21, tsys) for M in (M, N)}
    for M in sums.values():
        rank, flag = _trace_rank_and_flag(M)
        got = is_indecomposable(M)
        assert rank >= 2
        assert got.status == flag.status == IndecVerdict.DECOMPOSABLE
        assert all(np.array_equal(got.certificate[v], flag.certificate[v])
                   for v in flag.certificate)
    # End(M)/rad of a sum of m_i copies of pairwise non-isomorphic LOCAL
    # modules is a product of the M_(m_i)(k): dimension sum m_i^2
    sm, calc = fund21.modules, fund21.calc
    a = sm.construct_M(calc.word(("alpha:1:1", "alpha:1:2")))
    b = sm.construct_M(calc.word(("alpha:1:2", "beta:1:1")))
    r5 = sm.construct_R(calc.band_b0(), 5, 1)
    r6 = sm.construct_R(calc.band_b0(), 6, 1)
    s = lambda *ms: ms[0] if len(ms) == 1 else ms[0].direct_sum(s(*ms[1:]))
    for M, residue_dim in ((a, 1), (r5, 1), (s(a, b), 2), (s(r5, r6), 2),
                           (s(a, a, b), 5), (s(r5, r5, b), 5),
                           (s(a, a, a), 9)):
        space = homlab.hom_space(M, M)
        assert homlab._trace_form_rank(M, *space) == residue_dim
        with monkeypatch.context() as m:  # the Gram matrix in short slices
            m.setattr(M.field, "max_inner", 2)
            assert homlab._trace_form_rank(M, *space) == residue_dim


def test_trace_form_certifies_without_the_flag(monkeypatch):
    # at GF(32003) > dim M the trace form alone certifies every entry
    def forbidden(*args):
        raise AssertionError("flag or _certify entered")

    monkeypatch.setattr(homlab, "_generates_nilpotent", forbidden)
    monkeypatch.setattr(homlab, "_certify", forbidden)
    several = 0
    for name in ("tsys", "s24", "ex14"):
        c = ctx(name)
        assert c.field.p == 32003
        for e in c.modules.theorem_inventory(10):
            assert is_indecomposable(e.rep).status == IndecVerdict.LOCAL
            several += e.rep.end_dim > 1
    assert several > 0


def test_flag_decides_when_p_is_at_most_dim(fund21, monkeypatch):
    # p <= dim M: Dickson's argument needs p > dim M, the trace form is not
    # consulted and the flag decides
    from tworay.string_modules import StringModules

    def forbidden(*args):
        raise AssertionError("trace form consulted")

    monkeypatch.setattr(homlab, "_trace_form_rank", forbidden)
    for p in (2, 3):
        sm = StringModules(fund21.calc, PrimeField(p))
        r = sm.construct_R(fund21.calc.band_b0(), 1, 2)
        assert r.total_dim >= p and len(hom_basis(r, r)) == 2
        assert is_indecomposable(r).status == IndecVerdict.LOCAL


def test_field_obstruction_control_above_dim(fund21):
    # over GF(7) > dim M = 6 the band glued along t^2 + 1, irreducible mod 7,
    # has End = GF(49): trace form rank 2, then the charpoly route reports
    # the obstruction with the element and its quadratic factor
    F7 = PrimeField(7)
    comp = np.array([[0, 6], [1, 0]])  # companion of t^2 + 1
    eye = np.eye(2, dtype=np.int64)

    def glued(beta):
        return Representation(fund21.quiver, F7,
                              {v: (("v", 0), ("v", 1))
                               for v in fund21.quiver.vertices},
                              {"alpha:1:1": eye, "alpha:1:2": eye,
                               "beta:1:1": beta})

    rep = glued(comp)
    assert rep.total_dim < F7.p
    space = homlab.hom_space(rep, rep)
    assert len(space[0]) == 2 and homlab._trace_form_rank(rep, *space) == 2
    v = is_indecomposable(rep)
    assert v.status == IndecVerdict.FIELD_OBSTRUCTION
    f, fac = v.certificate
    assert is_intertwiner(rep, rep, f) and fac == [1, 0, 1]
    split = glued(np.array([[1, 0], [0, 2]]))
    v = is_indecomposable(split)
    assert v.status == IndecVerdict.DECOMPOSABLE
    assert is_intertwiner(split, split, v.certificate)


def _brute_nilpotent(F, mats, length):
    """Every product of ``length`` matrices from ``mats`` vanishes."""
    prods = [F.eye(mats.shape[-1])]
    for _ in range(length):
        prods = [g @ m % F.p for g in mats for m in prods]
    return not any(m.any() for m in prods)


@st.composite
def _matrix_sets(draw):
    """(field, k x d x d stack): uniform entries, or a strictly upper
    triangular set conjugated by an invertible P = (row permutation of a
    unit lower triangular) @ unit upper triangular."""
    F = PrimeField(draw(st.sampled_from((2, 3))))
    d, k = draw(st.integers(1, 4)), draw(st.integers(1, 3))

    def mats(n):
        flat = draw(st.lists(st.integers(0, F.p - 1), min_size=n * d * d,
                             max_size=n * d * d))
        return np.array(flat, dtype=np.int64).reshape(n, d, d)

    stack = mats(k)
    if draw(st.booleans()):
        lower, upper = mats(2)
        perm = draw(st.permutations(range(d)))
        P = ((np.tril(lower, -1) + F.eye(d))[perm] @
             (np.triu(upper, 1) + F.eye(d))) % F.p
        stack = P @ np.triu(stack, 1) @ F.inv_matrix(P) % F.p
    return F, stack


def _e12_e21(p, d):
    """{E12, E21}: nilpotent matrices whose products E11, E22 are not."""
    pair = np.zeros((2, d, d), dtype=np.int64)
    pair[0, 0, 1] = pair[1, 1, 0] = 1
    return PrimeField(p), pair


@settings(max_examples=200, deadline=None)
@given(_matrix_sets())
@example(_e12_e21(2, 2))
@example(_e12_e21(3, 4))
def test_flag_matches_brute_force(case):
    F, stack = case
    d = stack.shape[-1]
    assert homlab._generates_nilpotent(F, stack) == _brute_nilpotent(
        F, stack, d + 1)
    single = [_brute_nilpotent(F, m[None], d) for m in stack]
    assert [is_nilpotent(F, m) for m in stack] == single


# -- the charpoly route against trial division -------------------------------------


def _poly_divmod(p, a, b):
    """Quotient and remainder of ascending coefficient lists, b monic."""
    a, n = list(a), len(b) - 1
    quotient = [0] * max(len(a) - n, 0)
    for k in range(len(a) - 1 - n, -1, -1):
        c = quotient[k] = a[k + n] % p
        for i, x in enumerate(b):
            a[k + i] = (a[k + i] - c * x) % p
    return quotient, a[:n]


def _monic(p, degree):
    for low in itertools.product(range(p), repeat=degree):
        yield list(low) + [1]


def _distinct_factors(p, c):
    """The distinct monic irreducible factors of a monic c, by trial
    division in increasing degree: each divisor found is irreducible,
    since every factor of smaller degree is already divided out."""
    factors, degree = [], 1
    while 2 * degree <= len(c) - 1:
        for g in _monic(p, degree):
            quotient, rest = _poly_divmod(p, c, g)
            if any(rest):
                continue
            factors.append(g)
            while not any(rest):
                c = quotient
                quotient, rest = _poly_divmod(p, c, g)
        degree += 1
    return factors + ([c] if len(c) > 1 else [])


def _companion(p, c):
    d = len(c) - 1
    a = np.zeros((d, d), dtype=np.int64)
    a[1:, :-1] = np.eye(d - 1, dtype=np.int64)
    a[:, -1] = [-x % p for x in c[:-1]]
    return a


def _power_poly(p, g, m):
    out = [1]
    for _ in range(m):
        prod = [0] * (len(out) + len(g) - 1)
        for i, x in enumerate(out):
            for j, y in enumerate(g):
                prod[i + j] = (prod[i + j] + x * y) % p
        out = prod
    return out


def _assert_route(F, a, factors):
    """``factor_charpoly`` answers as the distinct factors say: the root of
    the one linear factor, the one irreducible factor, or, with two or
    more, an idempotent of F[a] other than 0 and 1."""
    got = homlab.factor_charpoly(F, a)
    if len(factors) > 1:
        assert isinstance(got, np.ndarray)
        assert np.array_equal(F.mul(got, got), got)
        assert 0 < F.rank(got) < len(a)
        assert np.array_equal(F.mul(got, a), F.mul(a, got))
    elif len(factors[0]) == 2:
        assert got == -factors[0][0] % F.p
    else:
        assert got == factors[0]


@pytest.mark.parametrize("p, top", [(2, 6), (3, 6), (5, 5)])
def test_charpoly_route_matches_trial_division(p, top):
    """Every monic polynomial of degree <= top, as its companion matrix,
    whose commutant is F[a]: so an idempotent commuting with a lies in
    F[a]."""
    F = PrimeField(p)
    moebius = {1: 1, 2: -1, 3: -1, 4: 0, 5: -1, 6: 1}
    for degree in range(1, top + 1):
        irreducible = 0
        for c in _monic(p, degree):
            factors = _distinct_factors(p, c)
            irreducible += factors == [c]
            _assert_route(F, _companion(p, c), factors)
        # the oracle counts the irreducibles as Gauss's formula does
        assert irreducible * degree == sum(
            moebius[k] * p ** (degree // k)
            for k in range(1, degree + 1) if degree % k == 0)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_charpoly_route_on_repeated_blocks(p):
    """C(g^i) + C(g^j) for one irreducible g, conjugated: not cyclic, with
    charpoly g^(i+j) and minimal polynomial g^max(i, j)."""
    F = PrimeField(p)
    seen = 0
    for degree in (1, 2, 3):
        for g in _monic(p, degree):
            if _distinct_factors(p, g) != [g]:
                continue
            for i, j in ((1, 1), (1, 2), (2, 2)):
                if degree * (i + j) > 6:
                    continue
                blocks = [_companion(p, c) for c in
                          (_power_poly(p, g, i), _power_poly(p, g, j))]
                d = sum(map(len, blocks))
                a = np.zeros((d, d), dtype=np.int64)
                a[:len(blocks[0]), :len(blocks[0])] = blocks[0]
                a[len(blocks[0]):, len(blocks[0]):] = blocks[1]
                ones = np.ones((d, d), dtype=np.int64)
                P = np.tril(ones) @ np.triu(ones) % p  # determinant 1
                _assert_route(F, F.mul(F.mul(P, a), F.inv_matrix(P)), [g])
                seen += 1
    assert seen



# -- the inventory's read-ahead -----------------------------------------------


def _same_verdict(got, want):
    """Equal status and certificate: None, a map {vertex: matrix}, or
    (map, irreducible factor)."""
    assert got.status == want.status
    c, w = got.certificate, want.certificate
    if isinstance(w, tuple):
        assert c[1] == w[1]
        c, w = c[0], w[0]
    if w is None:
        assert c is None
    else:
        assert c.keys() == w.keys()
        assert all(np.array_equal(c[v], w[v]) for v in w)


_READ_AHEAD_CASES = ([(name, 8, 32003) for name in sorted(SYSTEMS)]
                     + [("tsys", 20, 32003), ("tsys", 8, 2), ("tsys", 8, 3)])


@pytest.mark.parametrize("name,bound,p", _READ_AHEAD_CASES)
def test_read_ahead_matches_per_module_verdicts(name, bound, p, monkeypatch):
    """Certifying an inventory by the read-ahead of its first
    ``is_indecomposable`` call records, entry for entry, the status, dim End
    and certificate of ``_end_verdict`` on ``hom_space(M, M)``; over GF(2)
    and GF(3) ``_certify`` decides some of them.  A hand-made group of
    direct sums of entries, DECOMPOSABLE, compares its idempotents too."""
    c = ctx(name) if p == 32003 else Ctx(SYSTEMS[name], PrimeField(p))
    certified = []
    real = homlab._certify
    monkeypatch.setattr(homlab, "_certify",
                        lambda M, basis: certified.append(M) or real(M, basis))
    ahead = [e.rep for e in c.modules.theorem_inventory(bound)]
    alone = [e.rep for e in c.modules.theorem_inventory(bound)]
    sums = [(a.direct_sum(b), a.direct_sum(b)) for a, b in
            zip(alone[:40:4], alone[1:40:4])]
    group = tuple(s for s, _ in sums)
    for s in group:
        s.pending = group
    for M in ahead:
        is_indecomposable(M)
    assert (p < 32003) == bool(certified)  # the trace form decides at 32003
    for M in group:
        is_indecomposable(M)
    for M, N in zip(ahead + list(group), alone + [s for _, s in sums]):
        want = homlab._end_verdict(N, *hom_space(N, N))
        _same_verdict(M.indec, want)
        assert M.end_dim == N.end_dim
        assert M.pending is None
    assert all(s.indec == IndecVerdict.DECOMPOSABLE for s in group)


def test_read_ahead_solves_once(ex14, monkeypatch):
    """Building the inventory solves no Hom system; the first
    ``is_indecomposable`` call solves every entry's End(M) in one
    ``hom_spaces`` call and drops the group from every entry, and the later
    calls solve nothing."""
    def forbidden(*args):
        raise AssertionError("Hom system solved")

    for f in ("hom_space", "hom_spaces", "_hom_kernel", "_hom_batch"):
        monkeypatch.setattr(homlab, f, forbidden)
    inventory = ex14.modules.theorem_inventory(8)
    reps = [e.rep for e in inventory]
    assert all(M.pending is reps[0].pending for M in reps)
    assert list(reps[0].pending) == reps
    monkeypatch.undo()
    calls = []
    real = homlab.hom_spaces
    monkeypatch.setattr(homlab, "hom_spaces",
                        lambda pairs: calls.append(list(pairs)) or
                        real(calls[-1]))
    is_indecomposable(reps[5])
    assert calls == [[(M, M) for M in reps]]
    assert all(M.pending is None and M.indec is not None for M in reps)
    for f in ("hom_space", "hom_spaces", "_hom_kernel", "_hom_batch",
              "_end_verdict"):
        monkeypatch.setattr(homlab, f, forbidden)
    assert all(is_indecomposable(M) is M.indec for M in reps)


def test_sums_and_translates_take_the_sweep(tsys, monkeypatch):
    """A direct sum of two entries and a DTr belong to no group: each is
    swept alone, and the entries' group is left for its own first call."""
    reps = [e.rep for e in tsys.modules.theorem_inventory(8)]
    total = reps[0].direct_sum(reps[1])
    right = next(M for M in reps if not is_projective(M, tsys.algebra))
    translate = ar_translate(right, tsys.algebra)
    assert total.pending is None and translate.pending is None
    solved = _recorded_batches(monkeypatch)
    monkeypatch.setattr(homlab, "_hom_batch",
                        lambda systems: pytest.fail("array pass"))
    assert is_indecomposable(total) == IndecVerdict.DECOMPOSABLE
    assert is_indecomposable(translate) == IndecVerdict.LOCAL
    assert solved == [[(total, total)], [(translate, translate)]]
    assert all(M.pending is reps[0].pending and M.indec is None
               for M in reps)


def test_read_ahead_error_reaches_the_first_call(fund21, monkeypatch):
    """A ConsistencyError from a later member surfaces at the call that
    started the pass; the group is gone, the members before it keep their
    verdicts, and the rest are swept when asked."""
    from tworay.quiver import ConsistencyError

    reps = [e.rep for e in fund21.modules.theorem_inventory(6)]
    bad = reps[len(reps) // 2]
    real = homlab._end_verdict

    def failing(M, kernel, blocks):
        if M is bad:
            raise ConsistencyError("planted")
        return real(M, kernel, blocks)

    monkeypatch.setattr(homlab, "_end_verdict", failing)
    with pytest.raises(ConsistencyError, match="planted"):
        is_indecomposable(reps[0])
    assert all(M.pending is None for M in reps)
    assert all(M.indec is not None for M in reps[:len(reps) // 2])
    assert all(M.indec is None for M in reps[len(reps) // 2:])
    monkeypatch.undo()
    assert all(is_indecomposable(M) == IndecVerdict.LOCAL for M in reps)


def test_library_rejects_negative_bounds(fund21):
    """A negative or non-integer bound raises the ValueError of ``verify``
    in the inventory, the rows and a lemma site, instead of an empty
    answer or a TypeError deep inside."""
    ver = ArVerifier(fund21.modules, fund21.algebra)
    v, which = lemma_sites(fund21.quiver)[0]
    for call in (lambda: fund21.modules.theorem_inventory(-3),
                 lambda: ver.rows(-2),
                 lambda: lemma(fund21.modules, v, which, -2),
                 lambda: ver.verify(-1),
                 lambda: fund21.modules.theorem_inventory(8.0),
                 lambda: fund21.modules.theorem_inventory(True),
                 lambda: ver.rows(8.0),
                 lambda: ver.verify(8.5),
                 lambda: ver.verify(None),
                 lambda: ver.verify(8, 6.0),
                 lambda: lemma(fund21.modules, v, which, 6.5)):
        with pytest.raises(ValueError, match="nonnegative"):
            call()
