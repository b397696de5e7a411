"""Acceptance suite: one test per criterion, each printing a PASS line with
its wall time (run with -s to watch them stream)."""

import itertools
import time

import numpy as np

from tworay import (ar_translate, build_quiver, check_relations,
                    is_indecomposable, is_isomorphic, validate)
from tworay.defining_system import admissible_vertices
from tworay.field import PrimeField
from tworay.homlab import ArVerifier, IndecVerdict, is_projective
from tworay.strings import WordCalculus
from tworay.string_modules import StringModules
from tworay.vsc import hom_pattern_of_functor, i_lemma_vertices

from conftest import SYSTEMS, ctx

SWEEP = ("ex14", "fund21", "fund32", "fund22")
SWEEP_BOUND = 12


def _report(num, elapsed, budget, detail):
    print(f"\nACCEPTANCE {num}: PASS in {elapsed:.1f}s (budget {budget}s) "
          f"- {detail}")
    assert elapsed < budget


REFERENCE_RELATIONS = {
    ("alpha:1:1 alpha:1:2 gamma:1:2",),
    ("alpha:1:3 alpha:1:4 gamma:1:4",),
    ("alpha:1:5 alpha:1:6 gamma:1:6",),
    ("alpha:1:7 alpha:1:8 gamma:1:8",),
    ("alpha:2:1 alpha:2:2 gamma:2:2",),
    ("beta:1:2 alpha:1:7",),
    ("xi:1:1 alpha:1:8",),
    ("alpha:1:2 alpha:1:3 alpha:1:4 alpha:1:5 alpha:1:6 alpha:1:7",
     "alpha:1:2 gamma:1:2 xi:1:1"),
    ("alpha:1:6 alpha:1:7 alpha:1:8", "alpha:1:6 gamma:1:6 xi:1:2"),
}


def test_criterion_1_worked_example():
    t0 = time.time()
    c = ctx("ex14")
    assert len(c.quiver.vertices) == 20
    assert len(c.quiver.arrows) == 22
    assert len(c.relations) == 9
    assert sum(r.is_monomial for r in c.relations) == 7
    # the reference relation list is produced verbatim by the variant
    # input T=({2,6},{}); canonical forms must match it one-for-one
    d = ctx("ex14_display")
    assert len(d.quiver.vertices) == 20 and len(d.quiver.arrows) == 22
    got = {tuple(sorted(" ".join(p) for _, p in r.terms)) for r in d.relations}
    assert got == {tuple(sorted(t)) for t in REFERENCE_RELATIONS}
    _report(1, time.time() - t0, 1.0,
            "20 vertices, 22 arrows, 9 relations (7 monomial + 2 binomial), "
            "reference list matched one-for-one")


def _sweep_inventories():
    for name in SWEEP:
        c = ctx(name)
        yield name, c, c.modules.theorem_inventory(SWEEP_BOUND)


def test_criterion_2_well_definedness():
    t0 = time.time()
    total = 0
    for name, c, inv in _sweep_inventories():
        for e in inv:
            assert not check_relations(e.rep, c.relations), (name, e.key)
        total += len(inv)
    _report(2, time.time() - t0, 60.0,
            f"{total} representations of dim <= {SWEEP_BOUND} satisfy all "
            "relations")


def test_criterion_3_indecomposability():
    t0 = time.time()
    total = 0
    for name, c, inv in _sweep_inventories():
        for e in inv:
            verdict = is_indecomposable(e.rep)
            assert verdict.status == IndecVerdict.LOCAL, (name, e.key, verdict)
        total += len(inv)
    _report(3, time.time() - t0, 300.0,
            f"all {total} inventory entries have verdict LOCAL")


def test_criterion_4_pairwise_nonisomorphism():
    t0 = time.time()
    pairs = 0
    for name, c, inv in _sweep_inventories():
        groups = {}
        for e in inv:
            groups.setdefault(e.rep.dim_tuple(), []).append(e)
        for group in groups.values():
            if len(group) > 1:  # both_local below claims these verdicts
                for e in group:
                    assert is_indecomposable(e.rep) == IndecVerdict.LOCAL
            for a, b in itertools.combinations(group, 2):
                pairs += 1
                assert not is_isomorphic(a.rep, b.rep,
                                         both_local=True).isomorphic, (
                    name, a.key, b.key)
    _report(4, time.time() - t0, 600.0,
            f"no isomorphic pair among distinct parameters "
            f"({pairs} same-dimension-vector pairs tested)")


def test_criterion_5_ar_verification():
    t0 = time.time()
    rows_total = 0
    cov_total = 0
    families = set()
    for name in ("ex14", "fund21", "tsys", "s24"):
        c = ctx(name)
        report = ArVerifier(c.modules, c.algebra).verify(SWEEP_BOUND)
        assert report["failures"] == [], (name, report["failures"][:5])
        assert not report["coverage"]["missing"]
        assert not report["coverage"]["multiple"]
        rows_total += report["rows_checked"]
        cov_total += report["coverage"]["checked"]
        families |= {r["family"] for r in report["rows"]}
    assert families == set(range(1, 11))
    _report(5, time.time() - t0, 900.0,
            f"{rows_total} rows realized non-split with matching DTr; "
            f"{cov_total} non-projective entries each covered exactly once; "
            "all ten row families exercised")


def test_criterion_6_hereditary_coxeter():
    t0 = time.time()
    checked = 0
    for name in ("fund21", "fund32", "fund22"):
        c = ctx(name)
        phi = c.algebra.coxeter_matrix()
        for e in c.modules.theorem_inventory(8):
            if is_projective(e.rep, c.algebra):
                continue
            tau = ar_translate(e.rep, c.algebra)
            want = phi @ np.array(e.rep.dim_tuple())
            assert (np.array(tau.dim_tuple()) == want).all(), (name, e.key)
            checked += 1
    _report(6, time.time() - t0, 60.0,
            f"dim DTr = Coxeter transform for {checked} non-projective "
            "entries of dim <= 8")


def test_criterion_7_bruteforce_oracle():
    from bruteforce import indecomposable_counts

    t0 = time.time()
    raw = SYSTEMS["fund21"]
    ds = validate(raw)
    quiver = build_quiver(ds)
    calc = WordCalculus(quiver)
    gf2 = PrimeField(2)
    modules = StringModules(calc, gf2, lam_sample=())
    inv = modules.theorem_inventory(len(quiver.vertices))
    inv_counts = {}
    for e in inv:
        dims = e.rep.dim_tuple()
        if all(d <= 1 for d in dims):
            inv_counts[dims] = inv_counts.get(dims, 0) + 1
    brute = indecomposable_counts(quiver)
    assert inv_counts == brute
    _report(7, time.time() - t0, 120.0,
            f"GF(2) exhaustion over dims <= 1 agrees with the inventory on "
            f"{len(brute)} dimension vectors "
            f"({sum(brute.values())} classes)")


def test_criterion_8_lemma_patterns():
    t0 = time.time()
    checks = 0
    dim2_seen = 0
    k_objdims = []
    for name in ("ex14", "fund21", "fund32", "fund22", "s24", "tsys"):
        c = ctx(name)
        for v in sorted(str(a) for a in admissible_vertices(c.ds)):
            for which in ("R", "X"):
                model, measured, rep = hom_pattern_of_functor(
                    c.modules, v, which, 6)
                assert rep["ok"], (name, v, which, rep["mismatches"][:3])
                checks += 1
                if which == "X":
                    k_objdims += list(measured[1].values())
                if model.kind == "LF":
                    dim2_seen += sum(
                        1 for d in measured[2].values() if d == 2)
        for v in i_lemma_vertices(c.quiver):
            model, measured, rep = hom_pattern_of_functor(c.modules, v, "I", 6)
            assert rep["ok"], (name, v, "I", rep["mismatches"][:3])
            checks += 1
            k_objdims += list(measured[1].values())
    assert all(d == 1 for d in k_objdims)  # K-objects are one-dimensional
    assert dim2_seen > 0                   # the L-family dim-2 cell occurred
    _report(8, time.time() - t0, 300.0,
            f"{checks} lemma patterns matched at string length 6; "
            f"{len(k_objdims)} K-object dims all 1; "
            f"{dim2_seen} dim-2 hom cells confirmed")


def test_criterion_9_band_periodicity():
    t0 = time.time()
    checked = 0
    for name in ("fund21", "tsys"):
        c = ctx(name)
        for band_name, band in c.calc.bands():
            for lam in (2, 3, 5, 1):
                if lam == 1 and band_name != "B0":
                    continue  # row 1 licenses lambda = 1 only for B0
                for m in (1, 2, 3):
                    r = c.modules.construct_R(band, lam, m)
                    tau = ar_translate(r, c.algebra)
                    assert is_isomorphic(tau, r), (
                        name, band_name, lam, m)
                    checked += 1
    _report(9, time.time() - t0, 120.0,
            f"DTr-periodicity verified for {checked} band modules")
