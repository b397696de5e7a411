"""Checks of the package's outputs that do not trust the package.

Representations are turned into plain data (vertex dimensions and arrow
matrices) and every property is recomputed with ``modp``.  Each check counts
one operation in a ``Tally``; a failed operation keeps its message.
"""

import json

import numpy as np

import modp


class Tally:
    """Operations attempted and failed, with the first failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def check(self, ok, message):
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(message)
        return ok


class Shape:
    """Vertices and arrows (name, source, target) of a quiver."""

    def __init__(self, vertices, arrows):
        self.vertices = list(vertices)
        self.arrows = list(arrows)
        self.source = {a: s for a, s, _ in self.arrows}
        self.target = {a: t for a, _, t in self.arrows}

    @classmethod
    def of(cls, quiver):
        return cls(quiver.vertices,
                   [(a, quiver.source[a], quiver.target[a])
                    for a in quiver.arrows])


class Module:
    """A representation as plain data: dims per vertex, matrix per arrow."""

    def __init__(self, shape, dims, maps):
        self.shape = shape
        self.dims = {v: int(dims.get(v, 0)) for v in shape.vertices}
        self.maps = {}
        for a, s, t in shape.arrows:
            m = maps.get(a)
            if m is None:
                m = np.zeros((self.dims[t], self.dims[s]), dtype=np.int64)
            m = np.asarray(m, dtype=np.int64).reshape(self.dims[t],
                                                      self.dims[s])
            self.maps[a] = m

    @classmethod
    def of(cls, shape, rep):
        return cls(shape, {v: len(rep.spaces[v]) for v in shape.vertices},
                   {a: np.array(rep.maps[a]) for a, _, _ in shape.arrows})

    @property
    def total_dim(self):
        return sum(self.dims.values())


def direct_sum(shape, modules):
    dims = {v: sum(m.dims[v] for m in modules) for v in shape.vertices}
    maps = {a: modp.block_diag([m.maps[a] for m in modules])
            for a, _, _ in shape.arrows}
    return Module(shape, dims, maps)


# -- relations ---------------------------------------------------------------


def path_matrix(shape, module, path, p):
    """Matrix of a path, with the composition order read off the arrows."""
    path = tuple(path)
    if all(shape.target[path[k + 1]] == shape.source[path[k]]
           for k in range(len(path) - 1)):
        order = path                 # the last arrow acts first
    elif all(shape.target[path[k]] == shape.source[path[k + 1]]
             for k in range(len(path) - 1)):
        order = path[::-1]           # the first arrow acts first
    else:
        raise ValueError(f"not a path: {path}")
    m = module.maps[order[0]]
    for a in order[1:]:
        m = modp.matmul(m, module.maps[a], p)
    return m % p


def violated_relations(shape, module, relations, p):
    """Relations (as tuples of (coef, path) terms) that do not vanish."""
    bad = []
    for terms in relations:
        acc = None
        for coef, path in terms:
            term = coef * path_matrix(shape, module, path, p)
            acc = term if acc is None else acc + term
        if np.any(acc % p):
            bad.append(terms)
    return bad


def violating_module(shape, relations, p):
    """Relations violated by k -1-> k -1-> ... along the path of the first
    monomial relation, zero elsewhere: a module every check must reject."""
    path = next(terms[0][1] for terms in relations if len(terms) == 1)
    dims = {}
    for a in path:
        dims[shape.source[a]] = dims[shape.target[a]] = 1
    return violated_relations(
        shape, Module(shape, dims, {a: [[1]] for a in path}), relations, p)


# -- morphisms ---------------------------------------------------------------


def is_intertwiner(M, N, f, p):
    return all(
        not np.any((modp.matmul(f[t], M.maps[a], p)
                    - modp.matmul(N.maps[a], f[s], p)) % p)
        for a, s, t in M.shape.arrows)


def hom_space(M, N, p):
    """Basis of Hom(M, N), solved row-major from f_t M_a = N_a f_s."""
    shape = M.shape
    offsets, total = {}, 0
    for v in shape.vertices:
        offsets[v] = total
        total += N.dims[v] * M.dims[v]
    if total == 0:
        return []
    blocks = []
    for a, s, t in shape.arrows:
        rows = N.dims[t] * M.dims[s]
        if rows == 0:
            continue
        block = np.zeros((rows, total), dtype=np.int64)
        ot, os_ = offsets[t], offsets[s]
        block[:, ot: ot + N.dims[t] * M.dims[t]] += np.kron(
            np.eye(N.dims[t], dtype=np.int64), M.maps[a].T)
        block[:, os_: os_ + N.dims[s] * M.dims[s]] -= np.kron(
            N.maps[a], np.eye(M.dims[s], dtype=np.int64))
        blocks.append(block % p)
    if blocks:
        ker = modp.kernel(np.vstack(blocks), p)
    else:
        ker = np.eye(total, dtype=np.int64)
    basis = []
    for k in range(ker.shape[1]):
        basis.append({v: ker[offsets[v]: offsets[v] + N.dims[v] * M.dims[v], k]
                      .reshape(N.dims[v], M.dims[v]) for v in shape.vertices})
    return basis


def random_element(basis, rng, p):
    coeffs = rng.integers(0, p, len(basis))
    return {v: sum(int(c) * f[v] for c, f in zip(coeffs, basis)) % p
            for v in basis[0]}


def total_matrix(M, f):
    return modp.block_diag([np.asarray(f[v], dtype=np.int64).reshape(
        M.dims[v], M.dims[v]) for v in M.shape.vertices])


def scalar_plus_nilpotent(M, endo, p):
    """endo = (trace / dim) . id + nilpotent on the total space of M."""
    t = total_matrix(M, endo)
    d = M.total_dim
    lam = int(np.trace(t)) * pow(d, p - 2, p) % p
    return modp.is_nilpotent((t - lam * np.eye(d, dtype=np.int64)) % p, p)


def local_by_sampling(M, end_basis, rng, p, tries=3):
    """False as soon as one random element of End(M) is not scalar +
    nilpotent (which a decomposable module shows with probability ~1 - 1/p
    per try); True if every try was."""
    return all(scalar_plus_nilpotent(M, random_element(end_basis, rng, p), p)
               for _ in range(tries))


# -- almost-split certificates ----------------------------------------------


def certificate_maps(shape, cert, rows_of, cols_of, key):
    """Per-vertex matrices from a report certificate; absent means empty."""
    out = {}
    for v in shape.vertices:
        m = cert.get(key, {}).get(v)
        shape_v = (rows_of.dims[v], cols_of.dims[v])
        if m is None:
            out[v] = np.zeros(shape_v, dtype=np.int64)
        else:
            out[v] = np.asarray(m, dtype=np.int64)
            if out[v].shape != shape_v:
                raise ValueError(f"{key} at {v} has shape {out[v].shape}, "
                                 f"want {shape_v}")
    return out


def certificate_problems(left, middle, right, cert, p):
    """Why the certificate 0 -> left -f-> middle -g-> right -> 0 fails, if it
    does: f and g commute with every arrow, f is injective and g surjective
    at every vertex, g f = 0 and dimensions add up, which together make the
    sequence exact."""
    shape = left.shape
    out = []
    for v in shape.vertices:
        if left.dims[v] + right.dims[v] != middle.dims[v]:
            out.append(f"dimensions not additive at {v}")
    if out:
        return out
    try:
        f = certificate_maps(shape, cert, middle, left, "injection")
        g = certificate_maps(shape, cert, right, middle, "surjection")
    except ValueError as exc:
        return [str(exc)]
    if not is_intertwiner(left, middle, f, p):
        out.append("injection does not commute with the arrows")
    if not is_intertwiner(middle, right, g, p):
        out.append("surjection does not commute with the arrows")
    for v in shape.vertices:
        if modp.rank(f[v], p) != left.dims[v]:
            out.append(f"injection not injective at {v}")
        if modp.rank(g[v], p) != right.dims[v]:
            out.append(f"surjection not surjective at {v}")
        if np.any(modp.matmul(g[v], f[v], p)):
            out.append(f"g f != 0 at {v}")
    return out


def flip_one_entry(cert):
    """A copy of the certificate with one injection entry set to 0, chosen as
    the only nonzero entry of its column so that injectivity must break."""
    for v, m in sorted(cert["injection"].items()):
        arr = np.asarray(m)
        for col in range(arr.shape[1]):
            nz = np.flatnonzero(arr[:, col])
            if nz.size == 1:
                bad = json.loads(json.dumps(cert))
                bad["injection"][v][int(nz[0])][col] = 0
                return bad
    return None


# -- the structure of the worked example --------------------------------------


EX14_STRUCTURE = {"vertices": 20, "arrows": 22, "relations": 9, "monomial": 7}


def structure_of(quiver, relations):
    return {"vertices": len(quiver.vertices), "arrows": len(quiver.arrows),
            "relations": len(relations),
            "monomial": sum(len(r.terms) == 1 for r in relations)}
