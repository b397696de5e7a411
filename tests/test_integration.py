"""Seeded end-to-end sweep over randomly grown defining systems: the full
verification must come back green on every one of them."""

import random

from tworay import validate
from tworay.defining_system import admissible_vertices, extend
from tworay.homlab import ArVerifier

from conftest import Ctx


def _grow(rng):
    n = rng.randint(1, 2)
    while True:
        p = [rng.randint(1, 3) for _ in range(n)]
        if 2 <= sum(p) <= 5:
            break
    q = [rng.randint(1, 2) for _ in range(n)]
    ds = validate({"p": p, "q": q, "S": [[]] * n, "T": [[]] * n})
    for _ in range(rng.randint(0, 4)):
        opts = sorted(admissible_vertices(ds), key=str)
        if not opts:
            break
        ds = extend(ds, opts[rng.randrange(len(opts))])
    return ds


def test_random_systems_verify_green():
    rng = random.Random(20250809)
    seen = set()
    budget = 12
    while len(seen) < budget:
        ds = _grow(rng)
        key = ds.to_json()
        if key in seen:
            continue
        seen.add(key)
        c = Ctx(ds.to_json_obj())
        report = ArVerifier(c.modules, c.algebra).verify(8)
        assert report["failures"] == [], (key, report["failures"][:4])
        assert not report["coverage"]["missing"], key
        assert not report["coverage"]["multiple"], key


def test_two_strand_mixed_system_full_check():
    raw = {"p": [3, 2], "q": [2, 1], "S": [[2], [2]], "T": [[2], []]}
    c = Ctx(raw)
    report = ArVerifier(c.modules, c.algebra).verify(9, lemma_len=5)
    assert report["failures"] == []
    assert report["well_defined"] and report["all_indecomposable"]
    assert report["lemma_checks"] and all(r["ok"]
                                          for r in report["lemma_checks"])


def test_three_strand_system():
    raw = {"p": [2, 1, 1], "q": [1, 2, 1], "S": [[2], [], []],
           "T": [[], [], []]}
    c = Ctx(raw)
    report = ArVerifier(c.modules, c.algebra).verify(8)
    assert report["failures"] == []


def test_public_names_resolve():
    import tworay

    assert len(set(tworay.__all__)) == len(tworay.__all__)
    missing = [n for n in tworay.__all__ if not hasattr(tworay, n)]
    assert missing == []
