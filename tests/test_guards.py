"""The consistency checks on certificates raise ``ConsistencyError``, so
that ``python -O``, which strips ``assert`` statements, keeps them."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from tworay import (WordCalculus, build_quiver, build_relations, homlab,
                    quiver, string_modules, vsc)
from tworay.field import PrimeField
from tworay.homlab import ConsistencyError

from conftest import SYSTEMS, Ctx

TESTS = Path(__file__).resolve().parent


def _raised(call):
    try:
        call()
    except ConsistencyError as exc:
        return str(exc)
    return None


def _guard_failures():
    """The message of each check, each made to fail on fund21: a Hom(R, v)
    basis of zero maps, a cover that drops a top generator, a Fitting
    decomposition whose kernel basis is lost, a charpoly without roots for
    an idempotent, whose Frobenius-fixed elements then have no eigenvalue,
    a kernel whose arrow maps cannot be solved for, a Krull-Schmidt map
    that is declared singular, a presentation whose kernel K = ker h is
    taken to be all of P0 (not arrow-stable), one whose basis of K repeats
    its columns, so that the P1 generators span less than K claims, a
    Fitting witness sought among nilpotent shifts alone, an arrow entry
    between labels at the wrong vertices, a band that closes on an
    alpha-letter, a block with entries taken for a zero-size one, two
    alpha-arrows with one Q* target, and, on tsys, an algebra whose product
    of an arrow with the trivial path at its source is doubled, one in which
    no path reduces, so that relations do not vanish and long paths do not
    shorten, and relation terms that disagree on their source or are not
    composable."""
    c = Ctx(SYSTEMS["fund21"])
    simple = lambda: c.modules.construct_M(c.calc.trivial("x:1:0"))
    R, a, b = simple(), simple(), simple()
    hom_spaces, top_generators = vsc.hom_spaces, homlab.top_generators
    null_space, solve = PrimeField.null_space, PrimeField.solve
    null_space_from_rref = PrimeField.null_space_from_rref
    charpoly = PrimeField.charpoly
    full_rank = homlab._full_rank
    string = c.modules.construct_M(c.calc.word(("alpha:1:1",)))
    source_simple = c.modules.construct_M(c.calc.trivial("x:1:1"))

    def zero_r_to_a(pairs):
        # measure_pattern solves each Hom system once per content pair, so
        # the maps R -> ss -> a must leave Hom(R, a): R = a = b in content
        pairs = list(pairs)
        for (X, Y), (kernel, blocks) in zip(pairs, hom_spaces(pairs)):
            yield (0 * kernel if X is R and Y is a else kernel), blocks

    ss = a.direct_sum(b)
    first = {v: ss.field.zeros(ss.dim(v), ss.dim(v)) for v in ss.spaces}
    first["x:1:0"][0, 0] = 1  # the projection onto the first summand
    out = []
    try:
        vsc.hom_spaces = zero_r_to_a
        out.append(_raised(lambda: vsc.measure_pattern(
            R, {"a": a, "ss": ss})))
        vsc.hom_spaces = hom_spaces
        homlab.top_generators = lambda M: {
            v: g[:, :1] for v, g in top_generators(M).items()}
        out.append(_raised(lambda: homlab.projective_cover(ss, c.algebra)))
        homlab.top_generators = top_generators
        PrimeField.null_space = lambda F, m: null_space(F, m)[:, :0]
        out.append(_raised(lambda: homlab._fitting_idempotent(
            ss.field, homlab.total_matrix(ss, first))))
        PrimeField.null_space = null_space
        # t^2 + 1 has no root mod 32003 = 3 mod 4
        PrimeField.charpoly = lambda F, a: [1, 0, 1]
        out.append(_raised(lambda: homlab.is_indecomposable(ss)))
        PrimeField.charpoly = charpoly
        PrimeField.solve = lambda F, a, b: None
        out.append(_raised(lambda: homlab.kernel_rep(
            string, string, homlab.zero_map(string, string))))
        PrimeField.solve = solve
        homlab._full_rank = lambda F, f, M: False
        out.append(_raised(lambda: homlab.find_iso(ss, ss)))
        homlab._full_rank = full_rank
        PrimeField.null_space_from_rref = lambda F, rows, n: F.eye(n)
        out.append(_raised(lambda: homlab.minimal_presentation(
            string, c.algebra)))
        PrimeField.null_space_from_rref = lambda F, rows, n: np.hstack(
            [null_space_from_rref(F, rows, n)] * 2)
        out.append(_raised(lambda: homlab.minimal_presentation(
            source_simple, c.algebra)))
        PrimeField.null_space_from_rref = null_space_from_rref
        shift = string.field.zeros(2, 2)
        shift[0, 1] = 1  # squares to 0, so every product of it vanishes
        out.append(_raised(lambda: homlab._fitting_witness(
            string.field, shift[None])))
        # alpha:1:1 runs from x:1:1 to x:1:0; the entry (arrow, target
        # vertex, row, source vertex, column, coefficient) swaps its ends
        out.append(_raised(lambda: c.modules._assemble(
            {"x:1:0": [("v", 0)], "x:1:1": [("v", 1)]},
            [("alpha:1:1", "x:1:1", 0, "x:1:0", 0, 1)])))
        out.append(_raised(lambda: c.modules._band_skeleton(
            c.calc.word(("alpha:1:1",)), 1, 1, {}, [])))
        out.append(_raised(lambda: string_modules.zero_size_block(1, 2)))
        q = build_quiver(c.ds)
        q.t_star["alpha:1:2"] = q.t_star["alpha:1:1"]
        out.append(_raised(lambda: WordCalculus(q)))
        t = Ctx(SYSTEMS["tsys"])
        algebra = t.algebra
        arrow = next(p for p in algebra.rep_paths if len(p[1]) == 1)
        algebra._mult_cache[arrow, (arrow[0], (), arrow[0])] = {arrow: 2}
        out.append(_raised(algebra.check_associativity))
        algebra.reduce_path = lambda path: {path: 1}
        out.append(_raised(algebra.check_relations_vanish))
        out.append(_raised(algebra.check_admissibility_witness))
        q = build_quiver(t.ds)
        q.path_source = lambda path: path[-1]
        out.append(_raised(lambda: build_relations(t.ds, q)))
        q = build_quiver(t.ds)
        q.is_path = lambda path: False
        out.append(_raised(lambda: build_relations(t.ds, q)))
    finally:
        vsc.hom_spaces, homlab.top_generators = hom_spaces, top_generators
        PrimeField.null_space, PrimeField.solve = null_space, solve
        PrimeField.charpoly = charpoly
        homlab._full_rank = full_rank
        PrimeField.null_space_from_rref = null_space_from_rref
    return out


WANT = ["composite outside the span of Hom(R, v)",
        "cover map is not surjective", "Fitting decomposition failed",
        "Frobenius-fixed element has no eigenvalue in GF(p)",
        "kernel is not arrow-stable",
        "Krull-Schmidt map is not an isomorphism",
        "kernel is not arrow-stable",
        "presentation does not cover the kernel",
        "no non-nilpotent product of the shifts found",
        "arrow alpha:1:1 does not join labels ('v', 0) and ('v', 1)",
        "band must close on a reversed letter",
        "a 1 x 2 block is not zero-size",
        "Q* extension not unique",
        "associativity fails at ('z:1:2', ('beta:1:1', 'gamma:1:2'), "
        "'x:1:0'), ('x:1:3', ('xi:1:1',), 'z:1:2'), ('x:1:3', (), 'x:1:3')",
        "relation does not vanish: alpha:1:1 alpha:1:2 gamma:1:2",
        "path ('x:1:3', ('alpha:1:1', 'alpha:1:2', 'gamma:1:2', 'xi:1:1'), "
        "'x:1:0') does not shorten",
        "relation terms disagree on endpoints: "
        "alpha:1:2 gamma:1:2 xi:1:1  - alpha:1:2 alpha:1:3",
        "relation term not composable: "
        "('alpha:1:1', 'alpha:1:2', 'gamma:1:2')"]


def test_guards_raise():
    assert _guard_failures() == WANT
    assert homlab.ConsistencyError is string_modules.ConsistencyError
    assert string_modules.ConsistencyError is quiver.ConsistencyError


def test_guards_raise_under_optimisation():
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join([str(TESTS.parent / "src"),
                                           str(TESTS)]))
    script = ("import test_guards; "
              "print(__debug__, test_guards._guard_failures())")
    out = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                         cwd=TESTS, capture_output=True, text=True, check=True)
    debug, failures = out.stdout.split(" ", 1)
    assert debug == "False"
    assert failures.strip() == repr(WANT)
