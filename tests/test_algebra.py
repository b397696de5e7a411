import hashlib
import itertools

import numpy as np
import pytest

from tworay import AlgebraBasis, build_quiver, validate
from tworay import algebra as algebra_module
from tworay.algebra import NonStabilizing
from tworay.field import PrimeField

from conftest import SYSTEMS, ctx


def test_fundamental_21_dimension():
    # trivial paths e_0, e_1, e_2 plus arrows a1, a2, b1 plus a1 a2
    assert ctx("fund21").algebra.dimension == 7


def test_projectives_reject_unknown_vertex(tsys):
    # projective_module("nope") used to return the zero module and cache it
    a = tsys.algebra
    for build in (a.projective_module, a.right_projective):
        with pytest.raises(ValueError, match="unknown vertex 'nope'"):
            build("nope")
    assert "nope" not in a._projectives and "nope" not in a._right_projectives


def test_every_vertex_has_trivial_class():
    for name in ("fund21", "tsys", "ex14"):
        a = ctx(name).algebra
        for v in a.quiver.vertices:
            assert a.dim_hom(v, v) >= 1


def test_t_system_long_alpha_path_vanishes():
    c = ctx("tsys")
    a = c.algebra
    p = ("alpha:1:1", "alpha:1:2", "alpha:1:3")
    path = (c.quiver.path_source(p), p, c.quiver.path_target(p))
    # rewrite a2 a3 -> a2 gamma xi via the binomial, then a1 a2 gamma = 0
    assert a.reduce_path(path) == {}


def test_binomial_identification():
    c = ctx("tsys")
    a = c.algebra
    p1 = ("alpha:1:2", "alpha:1:3")
    p2 = ("alpha:1:2", "gamma:1:2", "xi:1:1")
    nf1 = a.reduce_path((c.quiver.path_source(p1), p1, c.quiver.path_target(p1)))
    nf2 = a.reduce_path((c.quiver.path_source(p2), p2, c.quiver.path_target(p2)))
    assert nf1 == nf2 and nf1


def test_projective_dimensions_fundamental():
    c = ctx("fund21")
    a = c.algebra
    dims = {v: {w: d for w, d in a.projective_module(v).dim_vector().items()
                if d} for v in c.quiver.vertices}
    assert dims["x:1:0"] == {"x:1:0": 1}
    assert dims["x:1:1"] == {"x:1:0": 1, "x:1:1": 1}
    assert dims["x:1:2"] == {"x:1:0": 2, "x:1:1": 1, "x:1:2": 1}


def test_projectives_satisfy_relations():
    from tworay import check_relations

    for name in ("tsys", "ex14"):
        c = ctx(name)
        for v in c.quiver.vertices:
            P = c.algebra.projective_module(v)
            assert not check_relations(P, c.relations)


def test_simple_sink_projective():
    c = ctx("fund21")
    P = c.algebra.projective_module("x:1:0")
    assert P.total_dim == 1


def test_admissibility_witness_and_lmax():
    a = ctx("ex14").algebra
    assert a.l_max == max(len(p[1]) for p in a.rep_paths) + 1
    # the witness is asserted during construction; re-run it explicitly
    a.check_admissibility_witness()
    a.check_relations_vanish()


def test_dimension_field_independent():
    # the relations have coefficients +-1, so the residue paths do not
    # depend on the prime
    for name in sorted(SYSTEMS):
        c = ctx(name)
        for p in (2, 3):
            small = AlgebraBasis(c.quiver, c.relations, PrimeField(p))
            assert small.dimension == c.algebra.dimension
            assert small.rep_paths == c.algebra.rep_paths


def test_structure_constants_closed():
    a = ctx("tsys").algebra
    table = a.structure_constants()
    reps = set(a.rep_paths)
    for (x, y), nf in table.items():
        for r in nf:
            assert r in reps


def test_cartan_unitriangular_determinant():
    for name in ("fund21", "tsys", "ex14"):
        C = ctx(name).algebra.cartan_matrix()
        assert round(abs(np.linalg.det(C.astype(float)))) == 1


def test_projective_top_is_simple():
    from tworay.homlab import top_generators

    for name in ("tsys", "ex14"):
        c = ctx(name)
        for v in c.quiver.vertices:
            P = c.algebra.projective_module(v)
            gens = top_generators(P)
            assert list(gens) == [v] and gens[v].shape[1] == 1


@pytest.mark.parametrize("name", sorted(SYSTEMS))
def test_coxeter_matrix_inverts_cartan(name):
    # phi = -C^T C^-1 exactly, whatever route computes C^-1
    a = ctx(name).algebra
    C, phi = a.cartan_matrix(), a.coxeter_matrix()
    assert phi.dtype == np.int64
    assert np.array_equal(phi @ C, -C.T)


PROJECTIVE_DIGESTS = {
    "ex14": "084b68cb6ca44ef85f01c503b26166817922b7e6865802c388fa6c8a4732962f",
    "ex14_display":
        "eab3586879f047b4b1988759bfbcc2d04cb534e92e68112612e2cefb557f10a6",
    "fund21": "d6d2b0cd6a48b78977f8975db47d8f5ad8f411de498ed07884e50871d1f8af2d",
    "fund22": "442c150889683cb7fec619226ec5982fa597c2f9dc92e2ebefa146ac5a70bb8f",
    "fund32": "e11191610e3e48c73ef3347e6e36890548c065f1423f988611987a6fbf79ffac",
    "s24": "a8bba16ff6bd549b77a273ff3091209708643d6ad74c891cb784a742589986b3",
    "s_only": "9f1b48856b7f5263a3d10bb9d0cae6bfd9ca93adc315acccb23907a4d865611d",
    "tsys": "47d7e3d643ec678172ccaba71f1a628cbcdfc1b8551ae51eaef72b9eb052c0a2",
}


@pytest.mark.parametrize("name", sorted(SYSTEMS))
def test_projectives_pinned(name):
    # P(v), e_vA and the multiplication table byte for byte, in vertex and
    # arrow order; the table's normal forms keep their term order
    a = ctx(name).algebra
    q = a.quiver
    h = hashlib.sha256()
    for v in q.vertices:
        P = a.projective_module(v)
        dims, maps, _, _ = a.right_projective(v)
        h.update(repr((P.spaces, dims)).encode())
        for m in [P.maps[x] for x in q.arrows] + [maps[x] for x in q.arrows]:
            h.update(repr((m.dtype.str, m.shape)).encode() + m.tobytes())
    h.update(repr(list(a.structure_constants().items())).encode())
    assert h.hexdigest() == PROJECTIVE_DIGESTS[name]


def test_dimension_is_sum_of_hom_blocks():
    for name in ("fund21", "tsys", "ex14"):
        a = ctx(name).algebra
        total = sum(a.dim_hom(u, v) for u in a.quiver.vertices
                    for v in a.quiver.vertices)
        assert total == a.dimension


def test_prime_field_rejects_overflowing_order():
    # int64 products wrap silently once (p - 1)^2 times the inner dimension
    # reaches 2^63: GF(2^31 - 1) used to return p - 1 for a 1x3 @ 3x1 product
    # of entries p - 1, whose exact value is 3
    with pytest.raises(ValueError, match="too large"):
        PrimeField(2147483647)
    F = PrimeField(2097143)  # the largest prime below the cap 2^21
    a = F.mat([[F.p - 1] * 3])
    assert F.mul(a, a.T).tolist() == [[3]]
    big = F.mat([[F.p - 1] * 4096])
    assert F.mul(big, big.T).tolist() == [[4096 % F.p]]


def test_prime_field_takes_integer_orders_only():
    # GF(2.5) used to reduce [[3]] to the float [[0.5]], and GF(7.0) failed
    # later inside pow
    for p in (2.5, 7.0, True, "7", None):
        with pytest.raises(ValueError, match="integer"):
            PrimeField(p)
    for p in (7, np.int64(7)):
        F = PrimeField(p)
        assert type(F.p) is int and F == PrimeField(7)
        assert F.inv(3) == 5 and F.rank(F.mat([[3]])) == 1
    with pytest.raises(ValueError, match="prime"):
        PrimeField(9)


def test_prime_field_mat_rejects_non_integers():
    # mat used to truncate [[2.9, -1.2]] to [[2, 6]]; the dtype is checked,
    # so a Python integer beyond int64 (an object array) is rejected too
    F = PrimeField(7)
    for data in ([[2.9, -1.2]], [["3"]], [[True]], [[2 ** 70]], [[2 ** 63]]):
        with pytest.raises(ValueError, match="matrix must hold integers"):
            F.mat(data)
    for data in ([[9, -1]], np.array([[9, -1]], dtype=np.int8),
                 np.array([[9, 6]], dtype=np.uint32)):
        assert F.mat(data).dtype == np.int64
        assert F.mat(data).tolist() == [[2, 6]]
    assert F.mat([]).shape == (0,)


def _strand(n):
    """The quiver of one strand of length n: about n^2 / 2 paths of n^3 / 6
    letters in all."""
    return build_quiver(validate({"p": [n], "q": [1], "S": [[]], "T": [[]]}))


def test_path_space_too_large_is_found_before_it_is_built(monkeypatch):
    # the cap used to be compared with the number of paths built so far,
    # level by level, so the letters of a long strand (n^3 / 6) filled the
    # memory first, and a large count of letters was never refused; both
    # totals are now counted before any path is built
    monkeypatch.setattr(algebra_module, "PATH_CAP", 1000)
    with pytest.raises(NonStabilizing, match=(
            "1892 paths of 37821 letters in all, the bounds being 1000 "
            f"paths and {algebra_module.LETTER_CAP} letters")):
        AlgebraBasis(_strand(60), [])
    monkeypatch.setattr(algebra_module, "PATH_CAP", 2_000_000)
    monkeypatch.setattr(algebra_module, "LETTER_CAP", 1000)
    with pytest.raises(NonStabilizing, match="232 paths of 1541 letters"):
        AlgebraBasis(_strand(20), [])
    monkeypatch.setattr(algebra_module, "LETTER_CAP", 1541)
    assert AlgebraBasis(_strand(20), []).dimension == 232
    # a quiver with an oriented cycle has endless paths
    q = _strand(3)
    s, t = q.source[q.arrows[0]], q.target[q.arrows[0]]
    q.source["back"], q.target["back"] = t, s
    q.out_arrows[t].append("back")
    q.in_arrows[s].append("back")
    monkeypatch.setattr(algebra_module, "PATH_CAP", 1000)
    with pytest.raises(NonStabilizing, match="oriented cycle"):
        AlgebraBasis(q, [])


def test_long_associativity_check_is_refused_before_the_walk(monkeypatch):
    # check_associativity walks every composable triple of basis paths,
    # about n^4 / 24 on one strand of length n, so time, not memory, used to
    # bound the input; the triples are now counted before the walk
    monkeypatch.setattr(algebra_module, "TRIPLE_CAP", 10_000)
    with pytest.raises(NonStabilizing, match=(
            "10629 composable triples of basis paths, the bound being 10000")):
        AlgebraBasis(_strand(20), [])
    monkeypatch.setattr(algebra_module, "TRIPLE_CAP", 10_629)
    assert AlgebraBasis(_strand(20), []).dimension == 232
    # the count is the number of triples the walk visits
    alg = ctx("tsys").algebra
    paths = alg.rep_paths
    walked = sum(1 for a in paths for b in paths if a[0] == b[2]
                 for c in paths if b[0] == c[2])
    monkeypatch.setattr(algebra_module, "TRIPLE_CAP", walked)
    alg.check_associativity()
    monkeypatch.setattr(algebra_module, "TRIPLE_CAP", walked - 1)
    with pytest.raises(NonStabilizing, match=f" {walked} composable triples"):
        alg.check_associativity()


def test_prime_field_multiplies_stacks():
    F = PrimeField(7)
    rng = np.random.default_rng(3)
    a = F.mat(rng.integers(0, 7, (3, 4, 5)))
    b = F.mat(rng.integers(0, 7, (3, 5, 2)))
    c = F.mat(rng.integers(0, 7, (5, 2)))
    assert np.array_equal(F.mul(a, b), np.stack([F.mul(x, y)
                                                 for x, y in zip(a, b)]))
    assert np.array_equal(F.mul(a, c), np.stack([F.mul(x, c) for x in a]))
    empty = ((a[:, :0], b, (3, 0, 2)), (a[:, :, :0], b[:, :0], (3, 4, 2)),
             (F.zeros(0, 5), c, (0, 2)), (F.zeros(2, 0), F.zeros(0, 3), (2, 3)))
    for x, y, shape in empty:
        z = F.mul(x, y)
        assert z.shape == shape and z.dtype == np.int64 and not z.any()
    with pytest.raises(ValueError, match="shape mismatch"):
        F.mul(a, a)


def test_prime_field_mul_keeps_the_batch_shape_of_empty_factors():
    # the zero-size branch used to return a.shape[:-1] + b.shape[-1:]: an
    # eye times an empty 0 x 3 x 3 stack gave 3 x 3, not 0 x 3 x 3
    F = PrimeField(5)
    batches = ((), (0,), (1,), (4,), (2, 1), (2, 4))
    for lead_a, lead_b in itertools.product(batches, repeat=2):
        try:
            np.broadcast_shapes(lead_a, lead_b)
        except ValueError:
            continue
        for n, m, k in itertools.product((0, 2), (0, 3), (0, 2)):
            x = np.ones(lead_a + (n, m), dtype=np.int64)
            y = np.ones(lead_b + (m, k), dtype=np.int64)
            z = F.mul(x, y)
            assert z.shape == np.matmul(x, y).shape and z.dtype == np.int64
            assert np.array_equal(z, np.matmul(x, y) % F.p)
