"""Row enumeration: the word budgets and the prefilter lose no row, the
lemmas and bounds behind them hold, every row has one indecomposable at each
end, the census verifies, and inconsistent instances stay anomalies."""

import itertools
import os
import subprocess
import sys
from pathlib import Path

import pytest

from tworay import (EMPTY, AlgebraBasis, StringModules, WordCalculus,
                    build_quiver, build_relations)
from tworay.defining_system import (DefiningSystemError, admissible_vertices,
                                    extend, validate)
from tworay.homlab import ArVerifier

from conftest import SYSTEMS, Ctx, ctx

TESTS = Path(__file__).resolve().parent


@pytest.mark.parametrize("name", sorted(SYSTEMS))
def test_pruned_enumeration_is_complete(name):
    # rows(b + 6) enumerates with larger budgets; the rows it
    # finds within b must be exactly those rows(b) finds
    c = ctx(name)
    ver = ArVerifier(c.modules, c.algebra)
    for b in range(3, 11):
        wide = [r for r in ver.rows(b + 6)
                if r["right_dim"] <= b or r["middle_dim"] <= b]
        assert ver.rows(b) == wide, b


@pytest.mark.parametrize("name", sorted(SYSTEMS))
def test_family10_lemmas(name):
    c = ctx(name)
    calc, q = c.calc, c.quiver
    sm = c.modules
    w = max(calc.omega(v).length for v in q.vertices)

    def dim(atoms):
        return sum(sm.atom_dim(a) for a in atoms)

    for x in q.q0_primed():
        for a, b in calc.pairs_p_x(x, 2 * 8 + 2 * w + 4):
            ap, bp = calc.successor(a), calc.successor(b)
            # Lemma A on both words of the pair
            for word, plus in ((a, ap), (b, bp)):
                if plus is EMPTY:
                    assert word.length <= w
                else:
                    assert plus.length >= word.length - 1 - w
            assert ap is not EMPTY
            # Lemma B on the right term; the middle is larger still
            right = dim(sm.canon_NCC(x, ap, bp))
            middle = dim(sm.canon_NCC(x, a, bp) + sm.canon_NCC(x, ap, b))
            assert right >= ap.length + bp.length + 3
            assert middle >= right + a.length + b.length + 3


@pytest.mark.parametrize("name", sorted(SYSTEMS))
def test_family10_budget_covers_every_surviving_pair(name, monkeypatch):
    # rows() may emit the same list with a smaller budget when no pair at the
    # budget's edge yields a row; what it must never do is ask pairs_p_x for
    # less than a pair the prefilter would keep.  On s_only and tsys at
    # bound 6 such a pair has |C| + |C'| equal to the budget.
    c = ctx(name)
    calc, q = c.calc, c.quiver
    ver = ArVerifier(c.modules, c.algebra)
    w = max(calc.omega(v).length for v in q.vertices)
    pairs_p_x, asked = calc.pairs_p_x, {}

    def spy(x, budget):
        asked[x] = budget
        return pairs_p_x(x, budget)

    monkeypatch.setattr(calc, "pairs_p_x", spy)
    for b in range(3, 11):
        asked.clear()
        ver.rows(b)
        for x in q.q0_primed():
            for a, a2 in pairs_p_x(x, 2 * b + 2 * w + 4):
                ap, a2p = calc.successor(a), calc.successor(a2)
                if ap.length + a2p.length + 3 <= b:
                    assert a.length + a2.length <= asked[x], (b, a, a2)


@pytest.mark.parametrize("name", sorted(SYSTEMS))
def test_prefilter_bounds_hold(name):
    # Lemmas A and A' on every string, and the prefilter's bounds against
    # the atoms canon_* returns on every candidate of _candidates(8 + n + 4),
    # most of them beyond bound 8
    c = ctx(name)
    calc, q, sm = c.calc, c.quiver, c.modules
    w = max(calc.omega(v).length for v in q.vertices)
    n = max(calc.nu(v).length for v in q.vertices)
    for word in calc.all_strings(8 + w + n + 4):
        plus, co_plus = calc.successor(word), calc.co_successor(word)
        assert (word.length <= w if plus is EMPTY
                else plus.length >= word.length - 1 - w)
        assert (word.length <= n if co_plus is EMPTY
                else co_plus.length >= word.length - 1 - n)

    def dim(atoms):
        return sum(sm.atom_dim(a) for a in atoms)

    seen, checked = set(), set()
    for family, right, middle, params, terms in ArVerifier(
            sm, None)._candidates(8 + n + 4):
        if right is None:
            continue
        seen.add(family)
        try:
            _, mid, rt = terms()
        except ValueError:
            continue
        assert dim(rt) >= right and dim(mid) >= middle, (family, params())
        checked.add(family)
    assert checked == seen


@pytest.mark.parametrize("name", sorted(SYSTEMS))
def test_budgets_cover_every_kept_candidate(name):
    # rows(b) may leave a candidate out of its budgets only where the
    # prefilter would drop it: every family 4-9 candidate of a wider
    # enumeration that the prefilter keeps at b is one of rows(b)'s (family
    # 10 has its own test above)
    c = ctx(name)
    calc, q = c.calc, c.quiver
    ver = ArVerifier(c.modules, None)
    n = max(calc.nu(v).length for v in q.vertices)
    wide = [(family, right, middle, params())
            for family, right, middle, params, _ in ver._candidates(10 + n + 4)
            if 4 <= family <= 9]
    for b in range(0, 11):
        have = {(family, params())
                for family, _, _, params, _ in ver._candidates(b)}
        for family, right, middle, params in wide:
            if right is None or right <= b or middle <= b:
                assert (family, params) in have, (b, family, params)


def _wrong_co_successor_anomalies():
    """Anomalies of tsys rows(8) when the co-successor returns a wrong word."""
    c = Ctx(SYSTEMS["tsys"])
    calc = c.calc
    calc.co_successor = lambda w: calc.trivial(calc.terminus(w))
    ver = ArVerifier(c.modules, c.algebra)
    ver.rows(8)
    return [a for a in ver.row_anomalies if "co-successor" in a]


def test_wrong_co_successor_is_an_anomaly():
    assert _wrong_co_successor_anomalies()


def test_wrong_co_successor_is_an_anomaly_under_optimisation():
    # ``python -O`` strips assert statements; the check must not be one
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join([str(TESTS.parent / "src"),
                                           str(TESTS)]))
    script = ("import test_rows; "
              "print(__debug__, len(test_rows._wrong_co_successor_anomalies()))")
    out = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                         cwd=TESTS, capture_output=True, text=True, check=True)
    debug, count = out.stdout.split()
    assert debug == "False"
    assert int(count) == len(_wrong_co_successor_anomalies()) > 0


def _census():
    """Every system reachable by ``extend`` from a fundamental system with at
    most 2 strands, p_i <= 4 and q_i <= 2, that has at most 9 vertices."""
    todo = []
    for n in (1, 2):
        for p in itertools.product(range(1, 5), repeat=n):
            for q in itertools.product(range(1, 3), repeat=n):
                try:
                    todo.append(validate({"p": p, "q": q, "S": [[]] * n,
                                          "T": [[]] * n}))
                except DefiningSystemError:  # sum(p) < 2
                    pass
    seen, out = set(), []
    while todo:
        ds = todo.pop()
        if ds in seen:
            continue
        seen.add(ds)
        quiver = build_quiver(ds)
        if len(quiver.vertices) <= 9:
            out.append(quiver)
            todo += [extend(ds, v) for v in admissible_vertices(ds)]
    return out


def test_census_rows_have_one_atom_at_each_end():
    # the end terms of an almost-split sequence are indecomposable; rows()
    # needs no algebra
    quivers = _census()
    assert len(quivers) == 229
    total = 0
    for quiver in quivers:
        ver = ArVerifier(StringModules(WordCalculus(quiver)), None)
        rows = ver.rows(12)
        assert ver.row_anomalies == [], quiver.ds
        assert all(len(r["left"]) == len(r["right"]) == 1 for r in rows)
        total += len(rows)
    assert total == 36470


def _census_verify(quivers, bound):
    """verify(bound) on each system, which must come back green; returns the
    rows checked and the entries covered, summed."""
    checked = covered = 0
    for quiver in quivers:
        modules = StringModules(WordCalculus(quiver))
        algebra = AlgebraBasis(quiver, build_relations(quiver.ds, quiver),
                               modules.field)
        report = ArVerifier(modules, algebra).verify(bound)
        assert report["failures"] == [], quiver.ds
        checked += report["rows_checked"]
        covered += report["coverage"]["checked"]
    return checked, covered


def test_census_verify_green():
    # verify(8) on the census systems with at most 7 vertices: its coverage
    # check fails if rows() loses an in-bound row, whatever rows() tests say
    quivers = [qv for qv in _census() if len(qv.vertices) <= 7]
    assert len(quivers) == 68
    assert _census_verify(quivers, 8) == (1305, 4278)


@pytest.mark.census
def test_census_verify_green_at_ten():
    # all 229 census systems at bound 10; run with pytest -m census
    quivers = _census()
    assert len(quivers) == 229
    assert _census_verify(quivers, 10) == (8429, 27258)


def test_row_end_of_two_atoms_is_an_anomaly(tsys, monkeypatch):
    # the conventions are patched on a StringModules of this verifier alone
    ver = ArVerifier(StringModules(tsys.calc), tsys.algebra)
    canon_N, target = ver.sm.canon_N, []

    def two_atoms(x, w):
        # the first N-term canonicalised gains a second atom
        atoms = canon_N(x, w)
        target[:] = target or [(x, repr(w))]
        if target == [(x, repr(w))]:
            atoms += ver.sm.canon_M(ver.calc.trivial(x))
        return atoms

    monkeypatch.setattr(ver.sm, "canon_N", two_atoms)
    clean = ArVerifier(tsys.modules, tsys.algebra).rows(8)
    rows = ver.rows(8)
    # the term is the right end of a family-6 row and the left end of a
    # family-8 row, and both rows leave the list
    bad = [a for a in ver.row_anomalies if "not one atom" in a]
    assert [a[:12] for a in bad] == ["row family 6", "row family 8"]
    assert len(rows) == len(clean) - 2
    report = ver.verify(8)
    assert bad[0] in report["failures"]
