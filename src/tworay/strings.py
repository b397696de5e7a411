"""The word calculus on Q*: strings, index sets, bands, the order, successors.

A string is a path in Q* (the quiver with non-alpha arrows reversed) that
avoids every run alpha_{i,T_{i,j}} ... alpha_{i,p_i+j}.  Letters are stored in
composition order: in c_1 ... c_n the terminating end is on the left, so
position 0 sits at t*(c_1) and position n at s*(c_n).  Terminating substrings
are therefore letter-tuple prefixes.

The extension structure of Q* is thin: at any vertex there is at most one
Q1'-letter and at most one Q1''-letter available on either side, which makes
the order, successors and extremal strings all deterministic scans.

Extending a string by one letter.  The forbidden runs are contiguous, so if
c_1 ... c_n is a string and c_{n+1} composes with c_n, any forbidden run in
c_1 ... c_{n+1} that is not already in c_1 ... c_n occupies the last
position: it ends at c_{n+1}.  The run alpha_{i,T_{i,j}} ... alpha_{i,p_i+j}
ends at alpha_{i,p_i+j} and starts at alpha_{i,T_{i,j}}; both indices are
distinct for distinct j, so each letter ends at most one run and starts at
most one.  Appending a is therefore decided by comparing the last
len(run) - 1 letters with the run ending at a, and prepending by comparing
the first len(run) - 1 letters with the run starting at a, in time
independent of the word's length.  (A word shorter than that gives a
shorter slice, which never matches.)

The order key.  Among strings with a common terminus, C < D is decided at the
first position k where they differ: C < D when C carries a Q1''-letter there,
or D carries a Q1'-letter there.  Both words walk the same vertices up to k,
so by thinness they cannot carry two different letters of one class at k;
the letter *class* at k (or the end of the word) settles the comparison.
Hence the order is lexicographic on the key that maps each Q1''-letter to 0,
each Q1'-letter to 2 and appends a 1 for the end of the word:
Q1'' < end < Q1' at every position.
"""

from dataclasses import dataclass

from .defining_system import check_integer
from .quiver import ConsistencyError, Quiver


class NotAString(ValueError):
    pass


class DifferentTerminus(ValueError):
    pass


class NotInQ0dd(ValueError):
    pass


class _Empty:
    """The formal empty string: length -1, no endpoints, composes with nothing."""

    length = -1

    def __repr__(self):
        return "EMPTY"

    def __bool__(self):
        return False


EMPTY = _Empty()


@dataclass(frozen=True)
class StringWord:
    """A string: its letters, and the vertex only of a trivial string (a
    nontrivial one drops it), so ``==`` and ``hash`` are its identity."""

    letters: tuple
    vertex: str = None

    def __post_init__(self):
        if self.letters and self.vertex is not None:
            object.__setattr__(self, "vertex", None)

    @property
    def length(self) -> int:
        return len(self.letters)

    @property
    def is_trivial(self) -> bool:
        return not self.letters

    def __iter__(self):
        return iter(self.letters)

    def __str__(self):
        return f"e({self.vertex})" if self.is_trivial else " ".join(self.letters)


class WordCalculus:
    """All string operations for one bound quiver."""

    def __init__(self, quiver: Quiver):
        self.quiver = quiver
        ds = quiver.ds
        self.forbidden = []
        for i in range(1, ds.strands + 1):
            for j, tj in enumerate(ds.t_sorted(i), start=1):
                run = tuple(
                    f"alpha:{i}:{k}" for k in range(tj, ds.p[i - 1] + j + 1)
                )
                self.forbidden.append(run)
        # letter -> the rest of the unique forbidden run it ends / starts
        self._run_head = {run[-1]: run[:-1] for run in self.forbidden}
        self._run_tail = {run[0]: run[1:] for run in self.forbidden}

        # unique one-sided extensions (thinness of Q*)
        self._ext_primed = {}      # u -> alpha with t*(alpha) = u   (source-end)
        self._ext_unprimed = {}    # u -> c in Q1'' with t*(c) = u   (source-end)
        self._pre_primed = {}      # u -> alpha with s*(alpha) = u   (terminus-end)
        self._pre_unprimed = {}    # u -> c in Q1'' with s*(c) = u   (terminus-end)
        for a in quiver.arrows:
            if a in quiver.primed:
                fwd, bwd = self._ext_primed, self._pre_primed
            else:
                fwd, bwd = self._ext_unprimed, self._pre_unprimed
            if quiver.t_star[a] in fwd or quiver.s_star[a] in bwd:
                raise ConsistencyError("Q* extension not unique")
            fwd[quiver.t_star[a]] = a
            bwd[quiver.s_star[a]] = a

        # the four extremal strings at each vertex, built once like the bands
        src, term, vs = self._grow_source, self._grow_terminus, quiver.vertices
        self._omega = {v: src(v, self._ext_primed) for v in vs}
        self._mu = {v: src(v, self._ext_unprimed) for v in vs}
        self._pi = {v: term(v, self._pre_primed) for v in vs}
        self._nu = {v: term(v, self._pre_unprimed) for v in vs}
        self._bands = {x: self._build_band(x) for x in quiver.q0_doubleprimed()}
        for x in quiver.q0_primed():
            self._bands.setdefault(x, StringWord((), x))
        self._rank = {a: 2 if a in quiver.primed else 0 for a in quiver.arrows}
        self._keys = {}       # letters -> order key
        self._in_s_x = {}     # (letters, x) -> membership of S_x

    # -- basic word accessors ---------------------------------------------

    def trivial(self, vertex: str) -> StringWord:
        if vertex not in self.quiver.vindex:
            raise NotAString(f"unknown vertex {vertex}")
        return StringWord((), vertex)

    def terminus(self, w: StringWord) -> str:
        """t*(w).  It and ``source``, which every word operation reads
        first, raise NotAString for EMPTY, a non-word or an unknown letter."""
        try:
            return self.quiver.t_star[w.letters[0]] if w.letters else w.vertex
        except (AttributeError, KeyError):
            raise NotAString(f"not a string: {w!r}") from None

    def source(self, w: StringWord) -> str:
        try:
            return self.quiver.s_star[w.letters[-1]] if w.letters else w.vertex
        except (AttributeError, KeyError):
            raise NotAString(f"not a string: {w!r}") from None

    def word(self, letters, vertex=None) -> StringWord:
        w = StringWord(tuple(letters), vertex)
        if w.is_trivial and vertex not in self.quiver.vindex:
            raise NotAString(f"a trivial string needs a vertex of the "
                             f"quiver, got {vertex!r}")
        ok, why = self.check_string(w.letters)
        if not ok:
            raise NotAString(why)
        return w

    def word_key(self, w: StringWord) -> tuple:
        """The form a word takes inside an atom or a lemma poset: letters
        plus terminus, which reach stdout by ``repr``."""
        terminus = self.terminus(w)
        return w.letters, terminus

    def from_key(self, key: tuple) -> StringWord:
        """The string with the given ``word_key``."""
        try:
            letters, terminus = key
        except (TypeError, ValueError):
            raise NotAString(f"not a word key: {key!r}") from None
        return StringWord(letters, terminus)

    def check_string(self, letters) -> tuple:
        """(True, '') if the letter tuple is a string, else (False, diagnostic)."""
        letters = tuple(letters)
        q = self.quiver
        for c in letters:
            if c not in q.aindex:
                return False, f"unknown arrow {c}"
        for k in range(len(letters) - 1):
            if q.t_star[letters[k + 1]] != q.s_star[letters[k]]:
                return False, f"not composable in Q* at position {k + 1}"
        for k, c in enumerate(letters):
            tail = self._run_tail.get(c)
            if tail is not None and letters[k + 1 : k + 1 + len(tail)] == tail:
                return False, f"forbidden alpha-run at position {k}"
        return True, ""

    def _appends(self, letters: tuple, a: str) -> bool:
        """Whether string + (a,) is a string, for a letter a composing at the
        source end (see the module docstring)."""
        head = self._run_head.get(a)
        return head is None or letters[len(letters) - len(head):] != head

    def _prepends(self, a: str, letters: tuple) -> bool:
        """Whether (a,) + string is a string, for a letter a composing at the
        terminus end."""
        tail = self._run_tail.get(a)
        return tail is None or letters[: len(tail)] != tail

    def concat(self, left: StringWord, right: StringWord) -> StringWord:
        """left * right with right as starting substring (left at the terminus)."""
        if left is EMPTY or right is EMPTY:
            raise NotAString("the empty string composes with nothing")
        if left.is_trivial:
            if left.vertex != self.terminus(right):
                raise NotAString("endpoints do not match")
            return right
        if right.is_trivial:
            if right.vertex != self.source(left):
                raise NotAString("endpoints do not match")
            return left
        return self.word(left.letters + right.letters)

    def is_terminating_substring(self, part: StringWord, whole: StringWord) -> bool:
        if part.is_trivial:
            return self.terminus(whole) == part.vertex
        return whole.letters[: part.length] == part.letters

    # -- index sets ---------------------------------------------------------

    def index_sets(self, w: StringWord):
        """(J, I) mapping vertex -> sorted position lists."""
        if w is EMPTY:
            raise NotAString("index sets undefined for the empty string")
        J = {}
        for i in range(w.length):
            J.setdefault(self.quiver.t_star[w.letters[i]], []).append(i)
        I = {v: list(ps) for v, ps in J.items()}
        I.setdefault(self.source(w), []).append(w.length)
        return J, I

    # -- extremal strings ----------------------------------------------------

    def _extremal(self, table, x: str) -> StringWord:
        w = table.get(x)
        if w is None:
            raise NotAString(f"unknown vertex {x}")
        return w

    def omega(self, x: str) -> StringWord:
        """Longest Q1'-only string terminating at x."""
        return self._extremal(self._omega, x)

    def mu(self, x: str) -> StringWord:
        """Longest Q1''-only string terminating at x."""
        return self._extremal(self._mu, x)

    def pi(self, x: str) -> StringWord:
        """Longest Q1'-only string starting at x."""
        return self._extremal(self._pi, x)

    def nu(self, x: str) -> StringWord:
        """Longest Q1''-only string starting at x."""
        return self._extremal(self._nu, x)

    def extremal_strings(self, x: str):
        """(omega_x, mu_x, pi_x, nu_x): the four maximal one-sided strings."""
        return (self.omega(x), self.mu(x), self.pi(x), self.nu(x))

    def _grow_source(self, x: str, table) -> StringWord:
        """Extend the trivial string at x at its source end while it stays one."""
        letters = ()
        c = table.get(x)
        while c is not None and self._appends(letters, c):
            letters += (c,)
            c = table.get(self.quiver.s_star[c])
        return StringWord(letters, x)

    def _grow_terminus(self, x: str, table) -> StringWord:
        """Extend the trivial string at x at its terminus end while it stays one."""
        letters = ()
        c = table.get(x)
        while c is not None and self._prepends(c, letters):
            letters = (c,) + letters
            c = table.get(self.quiver.t_star[c])
        return StringWord(letters, x)

    # -- bands ---------------------------------------------------------------

    def _build_band(self, x: str) -> StringWord:
        _, i, j = x.split(":")
        i, tj = int(i), int(j)
        jpos = self.quiver.ds.t_sorted(i).index(tj) + 1
        top = self.quiver.ds.p[i - 1] + jpos
        letters = tuple(f"alpha:{i}:{k}" for k in range(tj + 1, top + 1))
        letters += (f"xi:{i}:{jpos}", f"gamma:{i}:{tj}")
        return self.word(letters)

    def band_of(self, x: str) -> StringWord:
        """B_x for x in Q0'': the cycle alpha_{i,T+1} ... alpha_{i,p+j} xi_j gamma_T.

        For x in Q0' \\ Q0'' returns the trivial string at x (B_x = x).
        """
        bx = self._bands.get(x)
        if bx is None:
            raise NotInQ0dd(f"{x} is not in Q0''")
        return bx

    def band_b0(self) -> StringWord:
        ds = self.quiver.ds
        letters = []
        for i in range(1, ds.strands + 1):
            letters += [f"alpha:{i}:{j}" for j in range(1, ds.p[i - 1] + 1)]
            letters += [f"beta:{i}:{j}" for j in range(ds.q[i - 1], 0, -1)]
        return self.word(letters)

    def bands(self):
        """The family of bands: B_0 first, then B_x for x in Q0''."""
        out = [("B0", self.band_b0())]
        for x in self.quiver.q0_doubleprimed():
            out.append((x, self.band_of(x)))
        return out

    def p_count(self, w: StringWord, x: str) -> int:
        """Largest p >= 0 with B_x^p a terminating substring of w."""
        if self.terminus(w) != x:
            raise DifferentTerminus(f"{w} does not terminate at {x}")
        bx = self.band_of(x)
        if bx.is_trivial:
            return 0
        p = 0
        while w.letters[p * bx.length : (p + 1) * bx.length] == bx.letters:
            p += 1
        return p

    def strip_band(self, w: StringWord, x: str):
        """(p_C, C') with w = B_x^{p_C} C'."""
        p = self.p_count(w, x)
        n = p * self.band_of(x).length
        rest = StringWord(w.letters[n:], x)
        return p, rest

    # -- the linear order and successors --------------------------------------

    def compare(self, a: StringWord, b: StringWord) -> int:
        """-1, 0, 1 for a < b, a = b, a > b among strings with a common terminus."""
        if self.terminus(a) != self.terminus(b):
            raise DifferentTerminus(
                f"{a} and {b} terminate at different vertices"
            )
        ka, kb = self._key(a.letters), self._key(b.letters)
        return (ka > kb) - (ka < kb)

    def _key(self, letters: tuple) -> tuple:
        """The order key of the module docstring, cached per letter tuple."""
        key = self._keys.get(letters)
        if key is None:
            key = tuple(map(self._rank.__getitem__, letters)) + (1,)
            self._keys[letters] = key
        return key

    def successor(self, w: StringWord):
        """C+ : append the unique alpha and the full mu, or strip beta omega."""
        a = self._ext_primed.get(self.source(w))
        if a is not None and self._appends(w.letters, a):
            tail = self._mu[self.quiver.source[a]]
            return StringWord(w.letters + (a,) + tail.letters)
        k = w.length - 1
        while k >= 0 and w.letters[k] in self.quiver.primed:
            k -= 1
        if k < 0:
            return EMPTY  # w = omega_x
        return StringWord(w.letters[:k], self.terminus(w))

    def co_successor(self, w: StringWord):
        """+C : prepend the unique beta and the full pi, or strip nu alpha."""
        b = self._pre_unprimed.get(self.terminus(w))
        if b is not None and self._prepends(b, w.letters):
            head = self._pi[self.quiver.source[b]]
            return StringWord(head.letters + (b,) + w.letters)
        k = 0
        while k < w.length and w.letters[k] not in self.quiver.primed:
            k += 1
        if k == w.length:
            return EMPTY  # w = nu_x
        return StringWord(w.letters[k + 1 :], self.source(w))

    def bi_successor(self, w: StringWord):
        """+C+ : the diagonal successor, EMPTY exactly for C = nu_x omega_x."""
        s = self.successor(w)
        c = self.co_successor(w)
        sl = s.length if s is not EMPTY else -1
        cl = c.length if c is not EMPTY else -1
        if sl + cl < w.length:
            return EMPTY  # w = nu_x omega_x
        if s is not EMPTY:
            return self.co_successor(s)
        return self.successor(c)

    # -- families ---------------------------------------------------------------

    def all_strings(self, bound: int):
        """Every string of length <= bound, breadth-first by length: [] for
        a negative bound, ValueError for one that is not an integer.  The
        other families read their bound through here or
        ``strings_terminating_at``, which checks it alike."""
        bound = check_integer(bound, "bound")
        if bound < 0:
            return []
        cached_bound, cached = getattr(self, "_string_cache", (-1, None))
        if cached_bound >= bound:
            return [w for w in cached if w.length <= bound]
        out = [self.trivial(v) for v in self.quiver.vertices]
        frontier = list(out)
        while frontier:
            nxt = []
            for w in frontier:
                if w.length >= bound:
                    continue
                src = self.source(w)
                for table in (self._ext_primed, self._ext_unprimed):
                    c = table.get(src)
                    if c is None:
                        continue
                    if self._appends(w.letters, c):
                        nxt.append(StringWord(w.letters + (c,)))
            out.extend(nxt)
            frontier = nxt
        self._string_cache = (bound, out)
        return out

    def strings_terminating_at(self, x: str, bound: int):
        """C_x truncated at the length bound, sorted by the linear order.

        The strings are grouped by terminus once per indexed bound, and a
        group is sorted when it is first asked for; a smaller bound filters
        the sorted group by length."""
        bound = check_integer(bound, "bound")
        indexed_bound, groups, ordered = getattr(
            self, "_by_terminus", (-1, {}, {}))
        if indexed_bound < bound:
            groups, ordered = {}, {}
            for w in self.all_strings(bound):
                groups.setdefault(self.terminus(w), []).append(w)
            self._by_terminus = (bound, groups, ordered)
        if x not in ordered:
            ordered[x] = sorted(groups.get(x, ()),
                                key=lambda w: self._key(w.letters))
        return [w for w in ordered[x] if w.length <= bound]

    def in_s_x(self, w: StringWord, x: str) -> bool:
        """Membership of the family S_x, for x in Q0'."""
        if self.terminus(w) != x:
            return False
        memo = (w.letters, x)  # the terminus is x, so this identifies w
        hit = self._in_s_x.get(memo)
        if hit is None:
            _, rest = self.strip_band(w, x)
            alpha = self.quiver.alpha_of(x)
            hit = self.check_string((alpha,) + rest.letters)[0]
            self._in_s_x[memo] = hit
        return hit

    def s_x(self, x: str, bound: int):
        return [w for w in self.strings_terminating_at(x, bound)
                if self.in_s_x(w, x)]

    def pairs_p_x(self, x: str, bound: int):
        """P_x pairs (C, C') with |C| + |C'| <= bound."""
        # s_x is sorted by the order without repeats, so a < b iff a comes
        # first.  For x in Q0'', C' < B_x C compares keys, as key(B_x C) =
        # key(B_x)[:-1] + key(C); elsewhere there is no upper limit, and (3,)
        # exceeds every key.
        sx = self.s_x(x, bound)
        keys = [self._key(w.letters) for w in sx]
        head = self._key(self.band_of(x).letters)[:-1]
        lengths = [w.length for w in sx]
        out = []
        for i, a in enumerate(sx):
            room = bound - lengths[i]
            limit = head + keys[i] if head else (3,)
            out += [(a, sx[j]) for j in range(i + 1, len(sx))
                    if lengths[j] <= room and keys[j] < limit]
        return out

    def s_prime(self, bound: int):
        """S' : all strings minus the four excluded families of the main theorem."""
        excluded = {self.concat(self.nu(x), self.omega(x))
                    for x in self.quiver.vertices}
        for x in self.quiver.q0_primed():
            alpha = self.quiver.alpha_of(x)
            for c in self.s_x(x, bound):
                excluded.add(c)
                if self.check_string((alpha,) + c.letters)[0]:
                    excluded.add(StringWord((alpha,) + c.letters))
        for x in self.quiver.q0_doubleprimed():
            gamma = self.quiver.gamma_of(x)
            excluded.update(StringWord((gamma,) + c.letters)
                            for c in self.s_x(x, bound))
        return [w for w in self.all_strings(bound) if w not in excluded]

    # -- serialization ------------------------------------------------------------

    def to_json_obj(self, w):
        """Arrays carry arrow ids with position 0 last; EMPTY is null."""
        if w is EMPTY:
            return None
        if w.is_trivial:
            return {"vertex": w.vertex}
        return list(reversed(w.letters))
