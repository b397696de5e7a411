import functools
import json

import pytest

from tworay import EMPTY, StringWord
from tworay.strings import DifferentTerminus, NotAString

from conftest import SYSTEMS, ctx


def ref_compare(quiver, a, b):
    """The order by its definition: a first-difference scan of the letters."""
    if a.letters == b.letters:
        return 0
    k = 0
    while k < min(a.length, b.length) and a.letters[k] == b.letters[k]:
        k += 1
    if k < a.length and a.letters[k] not in quiver.primed:
        return -1
    if k < b.length and b.letters[k] not in quiver.primed:
        return 1
    if k < b.length and b.letters[k] in quiver.primed:
        return -1
    return 1


def ref_band(ds, x):
    """B_x spelled out from the defining system (trivial off Q0'')."""
    _, i, tj = (int(v) if v.isdigit() else v for v in x.split(":"))
    if tj not in ds.T[i - 1]:
        return ()
    j = ds.t_sorted(i).index(tj) + 1
    return tuple(f"alpha:{i}:{k}" for k in range(tj + 1, ds.p[i - 1] + j + 1)) \
        + (f"xi:{i}:{j}", f"gamma:{i}:{tj}")


def ref_in_s_x(c, w, x):
    """S_x membership by its definition: strip the B_x powers, then prepend
    alpha_x."""
    if c.calc.terminus(w) != x:
        return False
    bx, rest = ref_band(c.ds, x), w.letters
    while bx and rest[: len(bx)] == bx:
        rest = rest[len(bx):]
    return c.calc.check_string((c.quiver.alpha_of(x),) + rest)[0]


def by_terminus(c, bound):
    groups = {}
    for w in c.calc.all_strings(bound):
        groups.setdefault(c.calc.terminus(w), []).append(w)
    return groups


def test_forbidden_run_detected(ex14):
    calc = ex14.calc
    ok, why = calc.check_string(("alpha:1:4", "alpha:1:5", "alpha:1:6",
                              "alpha:1:7"))
    assert not ok and "position 0" in why


def test_band_word_is_string(ex14):
    ok, _ = ex14.calc.check_string(
        ("alpha:1:5", "alpha:1:6", "alpha:1:7", "xi:1:1", "gamma:1:4"))
    assert ok


def test_single_arrows_are_strings(ex14):
    for a in ex14.quiver.arrows:
        assert ex14.calc.check_string((a,))[0]


def test_not_composable_diagnostic(ex14):
    ok, why = ex14.calc.check_string(("alpha:1:1", "alpha:1:3"))
    assert not ok and "composable" in why


def test_index_sets_trivial(ex14):
    calc = ex14.calc
    J, I = calc.index_sets(calc.trivial("x:1:4"))
    assert J == {} and I == {"x:1:4": [0]}


def test_index_sets_one_letter(fund21):
    calc = fund21.calc
    J, I = calc.index_sets(calc.word(("alpha:1:1",)))
    assert J == {"x:1:0": [0]}
    assert I == {"x:1:0": [0], "x:1:1": [1]}


def test_index_sets_band_closes(ex14):
    calc = ex14.calc
    bx = calc.band_of("x:1:4")
    _, I = calc.index_sets(bx)
    assert I["x:1:4"] == [0, 5]


def test_position_partition(ex14):
    calc = ex14.calc
    for w in calc.all_strings(6):
        _, I = calc.index_sets(w)
        assert sum(len(ps) for ps in I.values()) == w.length + 1


def test_extremal_strings(ex14):
    calc = ex14.calc
    assert calc.omega("x:1:0").letters == tuple(
        f"alpha:1:{j}" for j in range(1, 7))
    assert calc.mu("x:1:0").is_trivial
    # sinks of Q*: a vertex with no Q*-in-arrows has trivial omega and mu
    for v in ex14.quiver.vertices:
        if calc.omega(v).is_trivial and calc.mu(v).is_trivial:
            assert all(ex14.quiver.t_star[a] != v for a in ex14.quiver.arrows)


def test_bands(ex14):
    calc = ex14.calc
    bx = calc.band_of("x:1:4")
    assert bx.letters == ("alpha:1:5", "alpha:1:6", "alpha:1:7", "xi:1:1",
                          "gamma:1:4")
    assert bx.length == 5
    assert calc.band_of("x:1:6").length == 4
    b0 = calc.band_b0()
    assert b0.length == 13
    assert calc.terminus(b0) == calc.source(b0) == "x:1:0"
    for name, b in calc.bands():
        assert calc.terminus(b) == calc.source(b)


def test_band_powers_are_strings(ex14):
    calc = ex14.calc
    for x in ex14.quiver.q0_doubleprimed():
        bx = calc.band_of(x)
        for power in (1, 2, 3):
            assert calc.check_string(bx.letters * power)[0]


def test_p_count(ex14):
    calc = ex14.calc
    x = "x:1:4"
    bx = calc.band_of(x)
    assert calc.p_count(calc.trivial(x), x) == 0
    assert calc.p_count(StringWord(bx.letters * 2), x) == 2
    tail = calc.mu(x)
    assert calc.p_count(StringWord(bx.letters + tail.letters), x) == 1


def test_compare(fund21):
    calc = fund21.calc
    x = "x:1:0"
    triv = calc.trivial(x)
    assert calc.compare(calc.mu(x), calc.omega(x)) <= 0
    assert calc.compare(triv, triv) == 0
    assert calc.compare(calc.word(("alpha:1:1",)), triv) == 1
    with pytest.raises(DifferentTerminus):
        calc.compare(calc.trivial("x:1:0"), calc.trivial("x:1:1"))


def test_order_is_total_on_bounded_sets(ex14):
    calc = ex14.calc
    for x in ("x:1:0", "x:1:4", "z:1:4"):
        words = calc.strings_terminating_at(x, 5)
        for i, a in enumerate(words):
            for b in words[i + 1:]:
                assert calc.compare(a, b) == -1
                assert calc.compare(b, a) == 1
        if words:
            mu, om = calc.mu(x), calc.omega(x)
            if mu.length <= 5:
                assert words[0].letters == mu.letters
            if om.length <= 5:
                assert words[-1].letters == om.letters


def test_successor_basics(fund21):
    calc = fund21.calc
    assert calc.successor(calc.omega("x:1:0")) is EMPTY
    assert calc.co_successor(calc.nu("x:1:0")) is EMPTY
    s = calc.successor(calc.trivial("x:1:0"))
    assert s.letters == ("alpha:1:1",)


def test_successor_t_system(tsys):
    calc = tsys.calc
    x = "x:1:2"
    assert calc.successor(calc.trivial(x)).letters == (
        "alpha:1:3", "xi:1:1", "gamma:1:2", "beta:1:1")
    # alpha_x . trivial equals omega_{x_{1,1}} = nu omega there, so both the
    # plain successor and the diagonal successor vanish
    w = calc.word(("alpha:1:2",))
    assert calc.successor(w) is EMPTY
    assert calc.bi_successor(w) is EMPTY


def test_order_successor_coherence(ex14):
    calc = ex14.calc
    bound = 5
    for x in ("x:1:0", "x:2:0", "x:1:4"):
        words = calc.strings_terminating_at(x, bound)
        for w in words:
            s = calc.successor(w)
            if s is EMPTY:
                continue
            assert calc.compare(w, s) == -1
            # nothing within the bound lies strictly between w and w+
            for d in words:
                assert not (calc.compare(w, d) == -1
                            and calc.compare(d, s) == -1), (w, d, s)


def test_bi_successor_well_defined(ex14):
    calc = ex14.calc
    nu_omegas = set()
    for x in ex14.quiver.vertices:
        nu_omegas.add(calc.word_key(calc.concat(calc.nu(x), calc.omega(x))))
    for w in calc.all_strings(5):
        s, c = calc.successor(w), calc.co_successor(w)
        sl = s.length if s is not EMPTY else -1
        cl = c.length if c is not EMPTY else -1
        bi = calc.bi_successor(w)
        if sl + cl < w.length:
            assert bi is EMPTY
            assert calc.word_key(w) in nu_omegas
        else:
            assert bi is not EMPTY
            assert calc.word_key(w) not in nu_omegas
            if s is not EMPTY and c is not EMPTY:
                assert calc.co_successor(s).letters == bi.letters
                assert calc.successor(c).letters == bi.letters


def test_nu_omega_always_strings(ex14):
    calc = ex14.calc
    for x in ex14.quiver.vertices:
        w = calc.concat(calc.nu(x), calc.omega(x))
        assert calc.check_string(w.letters)[0]


def test_s_x_families(ex14, tsys):
    calc = ex14.calc
    # x in Q0' \ Q0'': every string terminating there belongs to S_x
    x = "x:1:8"
    assert x in ex14.quiver.q0_primed()
    assert x not in ex14.quiver.q0_doubleprimed()
    for w in calc.strings_terminating_at(x, 5):
        assert calc.in_s_x(w, x)
    # x in Q0'': omega_x is excluded, and alpha_x C membership follows the
    # terminating-substring criterion
    calct = tsys.calc
    xt = "x:1:2"
    om = calct.omega(xt)
    assert not calct.in_s_x(om, xt)
    for w in calct.s_x(xt, 6):
        _, rest = calct.strip_band(w, xt)
        assert not calct.is_terminating_substring(om, rest)
        gamma_w = ("gamma:1:2",) + w.letters
        assert calct.check_string(gamma_w)[0]


def test_s_prime_exclusions(ex14):
    calc = ex14.calc
    sp = {calc.word_key(w) for w in calc.s_prime(6)}
    for x in calc.quiver.vertices:
        w = calc.concat(calc.nu(x), calc.omega(x))
        if w.length <= 6:
            assert calc.word_key(w) not in sp
    for x in ex14.quiver.q0_primed():
        for c in calc.s_x(x, 6):
            assert calc.word_key(c) not in sp


def test_pairs_p_x(tsys):
    calc = tsys.calc
    x = "x:1:2"
    pairs = calc.pairs_p_x(x, 6)
    assert pairs
    bx = calc.band_of(x)
    for c, cp in pairs:
        assert calc.compare(c, cp) == -1
        bxc = StringWord(bx.letters + c.letters)
        assert calc.compare(cp, bxc) == -1


def test_closing_remark_scoped(ex14, tsys, fund21):
    # for x in Q0', C in S_x with alpha_x C a string: +(alpha_x C) = C, and
    # (alpha_x C)+ = alpha_x (C+) provided C != omega_x and alpha_x C+ is a
    # string; the proviso genuinely fails in the smallest T-system, where
    # trivial_+ = B_x mu_x starts with omega_x
    for c in (ex14, tsys, fund21):
        calc = c.calc
        for x in c.quiver.q0_primed():
            alpha = c.quiver.alpha_of(x)
            omega = calc.omega(x)
            for w in calc.s_x(x, 4):
                if not calc.check_string((alpha,) + w.letters)[0]:
                    assert x in c.quiver.q0_doubleprimed()
                    assert calc.is_terminating_substring(omega, w)
                    continue
                aw = StringWord((alpha,) + w.letters)
                co = calc.co_successor(aw)
                assert co is not EMPTY and co.letters == w.letters
                wp = calc.successor(w)
                if w.letters != omega.letters and wp is not EMPTY and \
                        calc.check_string((alpha,) + wp.letters)[0]:
                    suc = calc.successor(aw)
                    assert suc is not EMPTY
                    assert suc.letters == (alpha,) + wp.letters
        for x in c.quiver.q0_primed():
            if x in c.quiver.q0_doubleprimed():
                continue
            alpha = c.quiver.alpha_of(x)
            aw = StringWord((alpha,) + calc.omega(x).letters)
            assert calc.successor(aw) is EMPTY


def test_alpha_x_membership_rule(tsys):
    # for x in Q0'': alpha_x C is a string iff omega_x is not a terminating
    # substring of C
    calc = tsys.calc
    x = "x:1:2"
    alpha = tsys.quiver.alpha_of(x)
    omega = calc.omega(x)
    for w in calc.strings_terminating_at(x, 6):
        lhs = calc.check_string((alpha,) + w.letters)[0]
        rhs = not calc.is_terminating_substring(omega, w)
        assert lhs == rhs


_BOUNDED = {
    "all_strings": lambda calc, b: calc.all_strings(b),
    "strings_terminating_at": lambda calc, b: calc.strings_terminating_at(
        "x:1:2", b),
    "s_x": lambda calc, b: calc.s_x("x:1:2", b),
    "pairs_p_x": lambda calc, b: calc.pairs_p_x("x:1:2", b),
    "s_prime": lambda calc, b: calc.s_prime(b),
}


@pytest.mark.parametrize("method", sorted(_BOUNDED))
def test_bounds_are_integers(tsys, method):
    """A bound that is not an integer raises ValueError; a negative one
    gives [], as the inventory asks for bound - 4 at small bounds.  A float
    bound used to give the strings up to its ceiling and a bool to act as
    an integer."""
    call = _BOUNDED[method]
    for bad in (2.5, True, None, "3"):
        with pytest.raises(ValueError):
            call(tsys.calc, bad)
    assert call(tsys.calc, -1) == []


def test_serialization(ex14):
    calc = ex14.calc
    w = calc.band_of("x:1:4")
    obj = calc.to_json_obj(w)
    assert obj == list(reversed(w.letters))
    assert calc.to_json_obj(EMPTY) is None
    t = calc.trivial("z:1:4")
    assert calc.to_json_obj(t) == {"vertex": "z:1:4"}
    assert json.dumps(calc.to_json_obj(w))


def test_trivial_needs_vertex(ex14):
    with pytest.raises(NotAString):
        ex14.calc.word(())


def test_band_of_rejects(ex14):
    from tworay.strings import NotInQ0dd

    with pytest.raises(NotInQ0dd):
        ex14.calc.band_of("x:1:1")
    with pytest.raises(NotInQ0dd):
        ex14.calc.band_of("x:1:0")
    # x in Q0' \ Q0'' gets the trivial band
    assert ex14.calc.band_of("x:1:8").is_trivial


def test_families_bundle(tsys):
    calc = tsys.calc
    assert {calc.word_key(w) for w in calc.s_prime(5)} <= {
        calc.word_key(w) for w in calc.all_strings(5)}
    assert [n for n, _ in calc.bands()][0] == "B0"
    for x in tsys.quiver.q0_primed():
        for a, b in calc.pairs_p_x(x, 5):
            assert calc.compare(a, b) == -1


def test_empty_composes_with_nothing(ex14):
    with pytest.raises(NotAString):
        ex14.calc.concat(EMPTY, ex14.calc.trivial("x:1:0"))
    with pytest.raises(NotAString):
        ex14.calc.concat(ex14.calc.trivial("x:1:0"), EMPTY)


def test_b0_visits_every_strand(ex14):
    b0 = ex14.calc.band_b0()
    for i in (1, 2):
        assert f"alpha:{i}:1" in b0.letters
        assert f"beta:{i}:1" in b0.letters


def test_extremal_strings_tuple(ex14):
    calc = ex14.calc
    om, mu, pi, nu = calc.extremal_strings("x:1:0")
    assert om.letters == calc.omega("x:1:0").letters
    assert mu.is_trivial
    assert pi.is_trivial  # nothing in Q1' starts at a sink of the alpha chain
    assert calc.terminus(nu) != "x:1:0" or nu.is_trivial


# -- the order key, cached bands and S_x membership against their definitions


@pytest.mark.parametrize("name", sorted(SYSTEMS))
def test_order_key_matches_first_difference(name):
    c = ctx(name)
    for words in by_terminus(c, 8).values():
        for a in words:
            for b in words:
                assert c.calc.compare(a, b) == ref_compare(c.quiver, a, b), \
                    (a, b)


@pytest.mark.parametrize("name", sorted(SYSTEMS))
def test_strings_terminating_at_sorted_by_reference(name):
    c = ctx(name)
    ref_key = functools.cmp_to_key(functools.partial(ref_compare, c.quiver))
    for x in c.quiver.vertices:
        got = c.calc.strings_terminating_at(x, 8)
        assert [w.letters for w in got] == [
            w.letters for w in sorted(got, key=ref_key)]
        assert len(got) == len(by_terminus(c, 8).get(x, []))


@pytest.mark.parametrize("name", sorted(SYSTEMS))
def test_pairs_p_x_matches_brute_force(name):
    c = ctx(name)
    bound = 14
    for x in c.quiver.q0_primed():
        sx = c.calc.s_x(x, bound)
        bx = ref_band(c.ds, x)
        want = [(a, b) for a in sx for b in sx
                if a.length + b.length <= bound
                and ref_compare(c.quiver, a, b) < 0
                and not (bx and ref_compare(
                    c.quiver, b, StringWord(bx + a.letters)) >= 0)]
        got = c.calc.pairs_p_x(x, bound)
        assert [(a.letters, b.letters) for a, b in got] == \
            [(a.letters, b.letters) for a, b in want]


@pytest.mark.parametrize("name", sorted(SYSTEMS))
def test_cached_band_and_s_x_membership(name):
    c = ctx(name)
    calc = c.calc
    primed = c.quiver.q0_primed()
    for x in primed:
        bx = calc.band_of(x)
        assert bx.letters == ref_band(c.ds, x)
        assert calc.band_of(x) is bx
        if not bx.letters:
            assert x not in c.quiver.q0_doubleprimed() and bx.vertex == x
    words = calc.all_strings(7)
    for x in primed:
        for _ in range(2):  # the second pass answers from the memo
            for w in words:
                assert calc.in_s_x(w, x) == ref_in_s_x(c, w, x), (w, x)
        # trivial strings share the empty letter tuple: only the one at x is
        # in S_x
        for v in c.quiver.vertices:
            assert calc.in_s_x(calc.trivial(v), x) == (v == x)


# -- whole-word reference for the one-letter extension test -------------------


def ref_runs(ds):
    """The forbidden runs alpha_{i,T_{i,j}} ... alpha_{i,p_i+j}."""
    return [tuple(f"alpha:{i}:{k}" for k in range(t, ds.p[i - 1] + j + 1))
            for i in range(1, ds.strands + 1)
            for j, t in enumerate(ds.t_sorted(i), start=1)]


def ref_is_string(c, letters):
    """String test on the whole word: composable in Q*, and no forbidden run
    at any position."""
    q = c.quiver
    if any(a not in q.aindex for a in letters):
        return False
    if any(q.t_star[letters[k + 1]] != q.s_star[letters[k]]
           for k in range(len(letters) - 1)):
        return False
    return not any(letters[k: k + len(run)] == run
                   for run in ref_runs(c.ds) for k in range(len(letters)))


def ref_letter(c, w, primed, at_source):
    """The unique Q1' (primed) or Q1'' letter composing with w at one end."""
    q = c.quiver
    if at_source:
        v, end = c.calc.source(w), q.t_star
    else:
        v, end = c.calc.terminus(w), q.s_star
    for a in q.arrows:
        if (a in q.primed) == primed and end[a] == v:
            return a
    return None


def ref_grow(c, x, primed, at_source):
    w = StringWord((), x)
    while True:
        a = ref_letter(c, w, primed, at_source)
        if a is None:
            return w
        cand = w.letters + (a,) if at_source else (a,) + w.letters
        if not ref_is_string(c, cand):
            return w
        w = StringWord(cand, x)


def ref_successor(c, w):
    q = c.quiver
    a = ref_letter(c, w, True, True)
    if a is not None and ref_is_string(c, w.letters + (a,)):
        tail = ref_grow(c, q.source[a], False, True)
        return StringWord(w.letters + (a,) + tail.letters, w.vertex)
    k = w.length - 1
    while k >= 0 and w.letters[k] in q.primed:
        k -= 1
    if k < 0:
        return EMPTY
    return StringWord(w.letters[:k], c.calc.terminus(w) if k == 0 else None)


def ref_co_successor(c, w):
    q = c.quiver
    b = ref_letter(c, w, False, False)
    if b is not None and ref_is_string(c, (b,) + w.letters):
        head = ref_grow(c, q.source[b], True, False)
        return StringWord(head.letters + (b,) + w.letters, w.vertex)
    k = 0
    while k < w.length and w.letters[k] not in q.primed:
        k += 1
    if k == w.length:
        return EMPTY
    rest = w.letters[k + 1:]
    return StringWord(rest, c.calc.source(w) if not rest else None)


def ref_bi_successor(c, w):
    s, p = ref_successor(c, w), ref_co_successor(c, w)
    if s.length + p.length < w.length:
        return EMPTY
    return ref_co_successor(c, s) if s is not EMPTY else ref_successor(c, p)


def ref_all_strings(c, bound):
    """Breadth-first by length; at each word the Q1' letter before the Q1''
    letter, each kept when the whole new word passes ``ref_is_string``."""
    out = [StringWord((), v) for v in c.quiver.vertices]
    frontier = list(out)
    while frontier:
        nxt = []
        for w in frontier:
            if w.length >= bound:
                continue
            for primed in (True, False):
                a = ref_letter(c, w, primed, True)
                if a is not None and ref_is_string(c, w.letters + (a,)):
                    nxt.append(StringWord(w.letters + (a,), w.vertex))
        out.extend(nxt)
        frontier = nxt
    return out


@pytest.mark.parametrize("name", sorted(SYSTEMS))
def test_word_calculus_matches_whole_word_reference(name):
    c = ctx(name)
    calc = c.calc
    strings = calc.all_strings(12)
    assert strings == ref_all_strings(c, 12)
    for v in c.quiver.vertices:
        assert calc.omega(v) == ref_grow(c, v, True, True)
        assert calc.mu(v) == ref_grow(c, v, False, True)
        assert calc.pi(v) == ref_grow(c, v, True, False)
        assert calc.nu(v) == ref_grow(c, v, False, False)
    for w in strings:
        assert calc.check_string(w.letters)[0] == ref_is_string(c, w.letters)
        assert calc.successor(w) == ref_successor(c, w)
        assert calc.co_successor(w) == ref_co_successor(c, w)
        assert calc.bi_successor(w) == ref_bi_successor(c, w)


@pytest.mark.parametrize("name", sorted(SYSTEMS))
def test_one_letter_extensions_match_whole_word_test(name):
    # every composable one-letter extension of every short string, at both
    # ends, including the ones that complete a forbidden run
    c = ctx(name)
    calc, q = c.calc, c.quiver
    for w in calc.all_strings(10):
        for a in q.arrows:
            if q.t_star[a] == calc.source(w):
                assert calc._appends(w.letters, a) == \
                    ref_is_string(c, w.letters + (a,)), (w, a)
            if q.s_star[a] == calc.terminus(w):
                assert calc._prepends(a, w.letters) == \
                    ref_is_string(c, (a,) + w.letters), (a, w)


# -- a word's identity --------------------------------------------------------


def test_successor_of_a_trivial_word_is_the_one_letter_word(tsys):
    # the successor used to keep the trivial word's vertex, so this string
    # was two dict keys
    calc = tsys.calc
    up = calc.successor(calc.trivial("x:1:0"))
    assert up == calc.word(("alpha:1:1",)) and up.vertex is None
    assert hash(up) == hash(calc.word(("alpha:1:1",)))


@pytest.mark.parametrize("name", sorted(SYSTEMS))
@pytest.mark.hashseed
def test_word_identity(name):
    """Every word the calculus returns is its string: a nontrivial one has
    no vertex, its word_key gives it back, and it is found among words
    rebuilt from its letters.  CI also runs this under fixed hash seeds."""
    c = ctx(name)
    calc, q = c.calc, c.quiver
    words = list(calc.all_strings(8))
    for x in q.q0_primed():
        words += calc.s_x(x, 8)
        words += [w for pair in calc.pairs_p_x(x, 8) for w in pair]
        words += [calc.strip_band(w, x)[1]
                  for w in calc.strings_terminating_at(x, 8)]
    for w in calc.all_strings(8):
        words += [calc.successor(w), calc.co_successor(w),
                  calc.bi_successor(w)]
    for v in q.vertices:
        words += calc.extremal_strings(v)
    words += [band for _, band in calc.bands()]
    words = [w for w in words if w is not EMPTY]
    rebuilt = {calc.word(w.letters) if w.letters else calc.trivial(w.vertex):
               w for w in words}
    for w in words:
        assert w.is_trivial or w.vertex is None, w
        again = calc.from_key(calc.word_key(w))
        assert again == w and hash(again) == hash(w)
        assert rebuilt[w] == w
