"""DTr from one projective cover against the two-cover construction.

``_two_cover_translate`` is the construction the package used before it read
the P1 generators from K = ker h directly: it builds K as a module
(``kernel_rep``), covers it a second time, and composes the inclusion with
that cover to get d: P1 -> P0.  Its covers take rad M as a column space and
the top generators as the unit vectors outside it, one elimination each, and
its quotients take one elimination per vertex.  Its transpose multiplies in
A by its own ``_left_mult``."""

import hashlib
import itertools
from collections import Counter

import numpy as np
import pytest

from tworay import ar_translate, homlab, is_isomorphic
from tworay.field import PrimeField
from tworay.homlab import (compose_maps, hom_spaces, is_projective,
                           kernel_rep, minimal_presentation, projective_cover)
from tworay.string_modules import Representation, block_diagonal

from conftest import SYSTEMS, Ctx, ctx


def _quotient(F, a):
    n, k = a.shape
    m, pivots = F.rref(np.hstack([a, F.eye(n)]))
    rank = sum(c < k for c in pivots)
    chosen = [c - k for c in pivots[rank:]]
    section = F.zeros(n, len(chosen))
    section[chosen, range(len(chosen))] = 1
    return m[rank:, k:], section


def _cover(M, algebra):
    F, q = M.field, M.quiver
    summands = []
    for v in q.vertices:
        if not M.dim(v):
            continue
        imgs = [M.maps[a] for a in q.in_arrows[v] if M.dim(q.source[a])]
        rad = (F.column_space(np.hstack(imgs)) if imgs
               else F.zeros(M.dim(v), 0))
        _, section = _quotient(F, rad)
        summands += [(v, section[:, [j]]) for j in range(section.shape[1])]
    reps = [algebra.projective_module(v) for v, _ in summands]
    P = reps[0]
    for rep in reps[1:]:
        P = P.direct_sum(rep)
    h = {v: F.zeros(M.dim(v), P.dim(v)) for v in q.vertices}
    offset = dict.fromkeys(q.vertices, 0)
    for (v, x), rep in zip(summands, reps):
        for w in M.support:
            for k, path in enumerate(algebra.basis_paths.get((v, w), [])):
                y = x
                for a in reversed(path[1]):  # path[1][-1] acts first
                    y = F.mul(M.maps[a], y)
                h[w][:, offset[w] + k] = y[:, 0]
            offset[w] += rep.dim(w)
    assert all(F.rank(h[v]) == M.dim(v) for v in M.support)
    return P, h, summands


def _left_mult(algebra, element, path):
    """element * path for element {a: c_a} of A, as {basis path: sum}: each
    a path is the normal form of the joined path, read with ``reduce_path``
    rather than from the multiplication table."""
    out = Counter()
    for a, c in element.items():
        joined = (path[0], a[1] + path[1], a[2])  # a after path
        for r, cf in algebra.reduce_path(joined).items():
            out[r] += c * cf
    return out


def _two_cover_translate(M, algebra):
    """(DTr M or None for a projective M, the vertices of the P1 summands)."""
    F, q = M.field, M.quiver
    P0, h, gens0 = _cover(M, algebra)
    K, incl = kernel_rep(P0, M, h)
    if K.is_zero():
        return None, []
    _, h1, gens1 = _cover(K, algebra)
    d = compose_maps(F, incl, h1)
    right0 = [algebra.right_projective(v) for v, _ in gens0]
    right1 = [algebra.right_projective(u) for u, _ in gens1]
    # the column of each P1 generator in d, and each P0 summand's first row
    cols, col_offset = [], dict.fromkeys(q.vertices, 0)
    for u, _ in gens1:
        cols.append(col_offset[u] + algebra.basis_paths[u, u].index((u, (), u)))
        for w in q.vertices:
            col_offset[w] += len(algebra.basis_paths.get((u, w), ()))
    rows, row_offset = [], dict.fromkeys(q.vertices, 0)
    for v, _ in gens0:
        rows.append(dict(row_offset))
        for w in q.vertices:
            row_offset[w] += len(algebra.basis_paths.get((v, w), ()))
    comp = [[{p: int(d[u][rows[i][u] + k, col])
              for k, p in enumerate(algebra.basis_paths.get((v, u), []))
              if d[u][rows[i][u] + k, col]}
             for i, (v, _) in enumerate(gens0)]
            for (u, _), col in zip(gens1, cols)]
    spaces, quot = {}, {}
    for w in q.vertices:
        n_cod = sum(r[0][w] for r in right1)
        if not n_cod:
            continue
        dmat = F.zeros(n_cod, sum(r[0][w] for r in right0))
        roff = 0
        for j, r1 in enumerate(right1):
            coff = 0
            for i, r0 in enumerate(right0):
                for col, p in enumerate(r0[2][w]):
                    for rpath, cf in _left_mult(algebra, comp[j][i], p).items():
                        dmat[roff + r1[3][w][rpath], coff + col] += cf
                coff += r0[0][w]
            roff += r1[0][w]
        quot[w] = _quotient(F, dmat % F.p)
        spaces[w] = tuple(("d", i) for i in range(quot[w][1].shape[1]))
    maps = {}
    for a in q.arrows:
        s, t = q.source[a], q.target[a]
        if spaces.get(s) and spaces.get(t):
            cod_map = block_diagonal(F, [r[1][a] for r in right1])
            maps[a] = F.mul(quot[s][0], F.mul(cod_map, quot[t][1])).T
    return Representation(q, F, spaces, maps), [u for u, _ in gens1]


def _check(M, algebra):
    """Returns whether M is projective, after comparing with the oracle."""
    want, want_gens = _two_cover_translate(M, algebra)
    assert is_projective(M, algebra) == (want is None)
    gens1 = minimal_presentation(M, algebra)[3]
    assert Counter({u: x.shape[1] for u, x in gens1.items()}) == Counter(
        want_gens)
    if want is not None:
        got = ar_translate(M, algebra)
        assert got.dims == want.dims
        assert is_isomorphic(got, want).isomorphic
    return want is None


@pytest.mark.parametrize("name", sorted(SYSTEMS))
def test_translate_matches_two_cover_reference(name):
    c = ctx(name)
    projective = [_check(e.rep, c.algebra)
                  for e in c.modules.theorem_inventory(8)]
    assert not all(projective)


@pytest.mark.parametrize("name", ("fund21", "tsys", "ex14"))
def test_translate_of_sums_matches_two_cover_reference(name):
    c = ctx(name)
    inv = c.modules.theorem_inventory(6)
    plain = [e.rep for e in inv if not is_projective(e.rep, c.algebra)]
    proj = c.algebra.projective_module(c.quiver.vertices[0])
    sums = [plain[0].direct_sum(plain[-1]), plain[1].direct_sum(plain[1]),
            proj.direct_sum(plain[2]), proj.direct_sum(proj)]
    assert [_check(M, c.algebra) for M in sums] == [False] * 3 + [True]


# -- the Auslander-Reiten formula as an oracle for DTr -----------------------------


def _rescaled(M):
    """M with the first nonzero entry of its first support-arrow map
    doubled."""
    F = M.field
    maps = {a: M.maps[a].copy() for a in M.support_arrows}
    for m in maps.values():
        nonzero = np.flatnonzero(m)
        if len(nonzero):
            m.flat[nonzero[0]] = 2 * m.flat[nonzero[0]] % F.p
            break
    return Representation(M.quiver, F, M.spaces, maps)


def _ar_formula_mismatches(name, bound):
    """For every inventory entry X of projective dimension <= 1 that is not
    projective, and every entry Y: dim Ext^1(X, Y) against dim Hom(Y, tau X)
    (Auslander-Reiten formula, ASS Vol. 1, IV.2), and against the three
    controls.  Ext^1 is read from the test's own cover 0 -> Omega X -> P0 ->
    X -> 0: dim Ext^1(X, Y) = dim Hom(Omega X, Y) - dim Hom(P0, Y) +
    dim Hom(X, Y).  Returns the number of X, of pairs with Ext^1 != 0, and
    of mismatches of the formula and of each control."""
    c = ctx(name)
    entries = [e.rep for e in c.modules.theorem_inventory(bound)]
    cases = []  # (X, Omega X, P0, tau X, tau X rescaled)
    for X in entries:
        P0, h, _ = _cover(X, c.algebra)
        omega, _ = kernel_rep(P0, X, h)
        if omega.is_zero():
            continue  # X is projective
        if omega.total_dim != _cover(omega, c.algebra)[0].total_dim:
            continue  # Omega X is not projective: pd X >= 2
        tau = ar_translate(X, c.algebra)
        cases.append((X, omega, P0, tau, _rescaled(tau)))
    pairs = [pair for X, omega, P0, tau, bad in cases for Y in entries
             for pair in ((omega, Y), (P0, Y), (X, Y), (Y, tau), (Y, X),
                          (Y, bad))]
    dims = iter(len(kernel) for kernel, _ in hom_spaces(pairs))
    nonzero, mismatches = 0, Counter()
    for _ in range(len(cases) * len(entries)):
        omega_y, p0_y, x_y, y_tau, y_x, y_bad = itertools.islice(dims, 6)
        ext = omega_y - p0_y + x_y
        nonzero += ext != 0
        mismatches.update({"formula": ext != y_tau, "tau = X": ext != y_x,
                           "rescaled": ext != y_bad,
                           "Omega = P0": x_y != y_tau})
    return len(cases), nonzero, mismatches


def _assert_ar_formula(name, bound, controls):
    cases, nonzero, mismatches = _ar_formula_mismatches(name, bound)
    assert cases and nonzero
    assert mismatches["formula"] == 0
    assert all(mismatches[k] for k in controls), mismatches


@pytest.mark.parametrize("name", ["tsys", "s24"])
def test_ar_formula_on_pd_one_entries(name):
    _assert_ar_formula(name, 10, ("tau = X", "rescaled", "Omega = P0"))


@pytest.mark.census
@pytest.mark.parametrize("name, bound", [
    *((name, 8) for name in sorted(SYSTEMS)), ("tsys", 14), ("s24", 14)])
def test_ar_formula_census(name, bound):
    # rescaling one entry of a string module is a change of basis, so the
    # rescaled control bites only where some tau X is a band module: not on
    # ex14 at 8, whose bands are longer than 8
    _assert_ar_formula(name, bound, ("tau = X", "Omega = P0"))


# -- DTr byte for byte ----------------------------------------------------------

TRANSLATE_DIGESTS = {
    ("ex14", 12): (
        824, "b302029af9f8619a959d6f21f3ecd60ad3f582db86f2c85fb78521c8d42b954e"),
    ("tsys", 20): (
        627, "de4243ea11599e004afc2a7eed6cc0413052aea1136136e7371933153f2236da"),
}


@pytest.mark.parametrize("name, bound", sorted(TRANSLATE_DIGESTS))
@pytest.mark.hashseed
def test_translate_digest_pinned(name, bound):
    # dims, labels and arrow buffer of DTr of every non-projective inventory
    # entry, in inventory order: a change to the presentation or the
    # transpose that moves one entry of one map fails here
    c = ctx(name)
    h, count = hashlib.sha256(), 0
    for e in c.modules.theorem_inventory(bound):
        if is_projective(e.rep, c.algebra):
            continue
        T = ar_translate(e.rep, c.algebra)
        h.update(repr((T.dims, T.spaces)).encode() + T.buffer.tobytes())
        count += 1
    assert (count, h.hexdigest()) == TRANSLATE_DIGESTS[name, bound]


# the field of a tsys module and the system of the algebra beside it: a
# field mismatch and a quiver mismatch
MISMATCHES = {
    "field": (PrimeField(3), "tsys",
              r"algebra over GF\(32003\) .*modules over GF\(3\)"),
    "quiver": (None, "ex14",
               r"algebra over GF\(32003\) and the quiver of "
               r"\{.*\"p\": \[6, 3\].*modules over GF\(32003\) "
               r"and the quiver of \{.*\"p\": \[2\]"),
}


@pytest.mark.parametrize("mismatch", sorted(MISMATCHES))
@pytest.mark.parametrize("present", [projective_cover, minimal_presentation,
                                     is_projective, ar_translate],
                         ids=lambda f: f.__name__)
def test_presentation_rejects_an_algebra_unlike_the_module(
        present, mismatch, monkeypatch):
    # the module and the algebra are checked once, in projective_cover,
    # before the top generators are read
    field, system, message = MISMATCHES[mismatch]
    M = Ctx(SYSTEMS["tsys"], field).modules.theorem_inventory(4)[-1].rep
    calls = []
    monkeypatch.setattr(homlab, "top_generators",
                        lambda M: calls.append(M))
    with pytest.raises(ValueError, match=message):
        present(M, ctx(system).algebra)
    assert calls == []
