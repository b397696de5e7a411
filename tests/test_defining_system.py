import json
import random

import pytest

from tworay import defining_system
from tworay.defining_system import (AdmissibleVertex, ConsecutiveInS,
                                    DefiningSystemError,
                                    LengthMismatch, NotAdmissible,
                                    NoValidOrder,
                                    SetOutOfRange, SumTooSmall, TopInT,
                                    admissible_vertices, extend, from_json,
                                    reduce_to_fundamental, validate)

from conftest import SYSTEMS
from test_rows import _census


def test_worked_example_is_valid():
    ds = validate(SYSTEMS["ex14"])
    assert ds.p == (6, 3) and ds.q == (2, 2)
    assert ds.S == (frozenset({2, 4, 6, 8}), frozenset({2}))
    assert ds.top(1) == 8 and ds.top(2) == 3
    assert validate(ds) == ds


def test_sum_too_small():
    with pytest.raises(SumTooSmall):
        validate({"p": [1], "q": [1], "S": [[]], "T": [[]]})


def test_consecutive_in_s():
    with pytest.raises(ConsecutiveInS):
        validate({"p": [3], "q": [1], "S": [[2, 3]], "T": [[]]})


def test_other_violations():
    with pytest.raises(LengthMismatch):
        validate({"p": [2, 2], "q": [1], "S": [[], []], "T": [[], []]})
    with pytest.raises(SetOutOfRange):
        validate({"p": [0, 2], "q": [1, 1], "S": [[], []], "T": [[], []]})
    with pytest.raises(SetOutOfRange):
        validate({"p": [2], "q": [1], "S": [[5]], "T": [[]]})
    with pytest.raises(SetOutOfRange):
        validate({"p": [2], "q": [1], "S": [[]], "T": [[2]]})  # T not in S
    with pytest.raises(TopInT):
        validate({"p": [2], "q": [1], "S": [[2, 4]], "T": [[2, 4]]})


@pytest.mark.parametrize("raw", [
    {"p": ["a"], "q": [1], "S": [[]], "T": [[]]},
    {"p": 3, "q": [1], "S": [[]], "T": [[]]},
    {"p": [2], "q": [1], "S": [[]], "T": 0},
    {"p": [2.5], "q": [1], "S": [[]], "T": [[]]},
    {"p": [True, True], "q": [1, 1], "S": [[], []], "T": [[], []]},
    {"p": [2], "q": [1.0], "S": [[]], "T": [[]]},
    {"p": [3], "q": [1], "S": [["2"]], "T": [[]]},
    {"p": [3], "q": [1], "S": [2], "T": [[]]},
    [[2], [1], [[]]],
    None,
    "p q S T",
])
def test_malformed_input_rejected(raw):
    """Entries that are not integers (booleans and floats too), fields that
    are not lists, and a top level that is neither an object nor a
    4-sequence are errors of the system, never silently converted."""
    with pytest.raises(DefiningSystemError):
        validate(raw)


def test_missing_field_is_named():
    with pytest.raises(DefiningSystemError, match="missing field 'T'") as exc:
        validate({"p": [2], "q": [1], "S": [[]]})
    assert type(exc.value) is DefiningSystemError


def test_four_sequence_is_accepted():
    assert validate(([2], [1], [[]], [[]])) == validate(SYSTEMS["fund21"])
    assert validate([[6, 3], [2, 2], [[2, 4, 6, 8], [2]], [[4, 6], []]]) == (
        validate(SYSTEMS["ex14"]))


def test_json_round_trip():
    text = json.dumps(SYSTEMS["ex14"])
    ds = from_json(text)
    assert json.loads(ds.to_json()) == {
        "p": [6, 3], "q": [2, 2], "S": [[2, 4, 6, 8], [2]], "T": [[4, 6], []]}


def test_admissible_fundamental():
    ds = validate(SYSTEMS["fund32"])
    got = {str(v) for v in admissible_vertices(ds)}
    assert got == {"x:1:2", "x:1:3", "x:2:2"}


def test_admissible_worked_example():
    ds = validate(SYSTEMS["ex14"])
    got = {str(v) for v in admissible_vertices(ds)}
    # strand 1: every j in [2,8] has a neighbor in S, so no x-kind anywhere;
    # z-kind uses the T-empty convention T_last = 0 on strand 2 (without it
    # no first T-insertion would ever be allowed and reduction could not
    # exist for systems with nonempty T)
    assert got == {"z:1:8", "z:2:2"}


def test_extend_fundamental():
    ds = validate(SYSTEMS["fund32"])
    out = extend(ds, AdmissibleVertex("x", 1, 2))
    assert out.S == (frozenset({2}), frozenset())
    assert out.T == (frozenset(), frozenset())


def test_extend_not_admissible():
    ds = validate(SYSTEMS["fund32"])
    ds2 = extend(ds, AdmissibleVertex("x", 1, 2))
    with pytest.raises(NotAdmissible):
        extend(ds2, AdmissibleVertex("x", 1, 3))  # neighbor of 2 in S
    with pytest.raises(NotAdmissible):
        extend(ds2, AdmissibleVertex("z", 1, 3))  # 3 not in S
    with pytest.raises(ValueError, match="kind"):
        AdmissibleVertex("y", 1, 2)


def test_extend_z_kind_revalidates():
    ds = validate(SYSTEMS["ex14"])
    out = extend(ds, AdmissibleVertex("z", 1, 8))
    assert out.T == (frozenset({4, 6, 8}), frozenset())
    # new top is 9, not in T, so the result validates
    assert out.top(1) == 9


def test_reduce_fundamental_is_identity():
    ds = validate(SYSTEMS["fund32"])
    fund, chain = reduce_to_fundamental(ds)
    assert fund == ds and chain == []


def test_reduce_single_insertion():
    ds = validate(SYSTEMS["s_only"])
    fund, chain = reduce_to_fundamental(ds)
    assert fund.is_fundamental()
    assert [str(v) for v in chain] == ["x:1:2"]


def test_reduce_worked_example_chain():
    ds = validate(SYSTEMS["ex14"])
    fund, chain = reduce_to_fundamental(ds)
    assert len(chain) == 7
    assert sum(v.kind == "x" for v in chain) == 5
    assert sum(v.kind == "z" for v in chain) == 2
    cur = fund
    for v in chain:
        cur = extend(cur, v)
    assert cur == ds


# the chain of each system, one insertion site per step
CHAINS = {
    "fund21": [], "fund32": [], "fund22": [],
    "s_only": ["x:1:2"],
    "s24": ["x:1:2", "x:1:4"],
    "tsys": ["x:1:2", "z:1:2"],
    "ex14": ["x:1:2", "x:1:4", "x:1:6", "x:2:2", "z:1:4", "z:1:6", "x:1:8"],
    "ex14_display": ["x:1:2", "x:1:4", "x:1:6", "x:2:2", "z:1:2", "z:1:6",
                     "x:1:8"],
}


@pytest.mark.parametrize("name", sorted(SYSTEMS))
def test_reduce_chains_pinned(name):
    fund, chain = reduce_to_fundamental(validate(SYSTEMS[name]))
    assert [str(v) for v in chain] == CHAINS[name]


def _search_chain(ds):
    """The chain by a backtracking search over the same candidate order as
    ``reduce_to_fundamental`` (missing S entries strand by strand in
    increasing order, then missing T entries), or None if none exists."""

    def candidates(cur):
        adm = admissible_vertices(cur)
        for kind, want, have in (("x", ds.S, cur.S), ("z", ds.T, cur.T)):
            for i in range(1, ds.strands + 1):
                for j in sorted(want[i - 1] - have[i - 1]):
                    if (v := AdmissibleVertex(kind, i, j)) in adm:
                        yield v

    def search(cur, chain):
        if cur.S == ds.S and cur.T == ds.T:
            return chain
        for v in candidates(cur):
            found = search(extend(cur, v), chain + [v])
            if found is not None:
                return found
        return None

    return search(ds.fundamental(), [])


def test_reduce_equals_search_on_census():
    systems = [quiver.ds for quiver in _census()]
    assert len(systems) == 229
    for ds in systems:
        fund, chain = reduce_to_fundamental(ds)
        assert chain == _search_chain(ds), ds


def test_reduce_without_candidate_raises(monkeypatch):
    monkeypatch.setattr(defining_system, "admissible_vertices",
                        lambda ds: set())
    with pytest.raises(NoValidOrder):
        reduce_to_fundamental(validate(SYSTEMS["s_only"]))


def _random_system(rng):
    """Grow a random valid system by admissible insertions from a fundamental."""
    n = rng.randint(1, 2)
    p = [rng.randint(1, 5) for _ in range(n)]
    while sum(p) < 2:
        p = [rng.randint(1, 5) for _ in range(n)]
    q = [rng.randint(1, 3) for _ in range(n)]
    ds = validate({"p": p, "q": q, "S": [[]] * n, "T": [[]] * n})
    for _ in range(rng.randint(0, 6)):
        options = sorted(admissible_vertices(ds), key=str)
        if not options:
            break
        ds = extend(ds, options[rng.randrange(len(options))])
    return ds


def test_reduce_round_trip_random():
    rng = random.Random(7)
    for _ in range(40):
        ds = _random_system(rng)
        fund, chain = reduce_to_fundamental(ds)
        assert fund.is_fundamental()
        cur = fund
        for v in chain:
            cur = extend(cur, v)
        assert cur == ds


def test_extension_preserves_validity_random():
    rng = random.Random(11)
    for _ in range(40):
        ds = _random_system(rng)
        for v in sorted(admissible_vertices(ds), key=str):
            extend(ds, v)  # validate() inside must not raise


def test_admissible_respects_strand_permutation():
    ds = validate({"p": [3, 2], "q": [1, 2], "S": [[2], []], "T": [[], []]})
    swapped = validate({"p": [2, 3], "q": [2, 1], "S": [[], [2]],
                        "T": [[], []]})
    perm = {1: 2, 2: 1}
    got = {(v.kind, perm[v.i], v.j) for v in admissible_vertices(ds)}
    want = {(v.kind, v.i, v.j) for v in admissible_vertices(swapped)}
    assert got == want
