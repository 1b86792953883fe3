"""Type-A engine: quiver representations of an oriented A_n quiver, torsion
classes and the Cambrian lattice tors(Lambda), wide subcategories, mutable
intervals, the Serre permutation on them, interval mutations, 2-cluster
triples, the type-A suite, and the Tamari / type-I(m) lattice generators.

Sets of indecomposables are bitmasks over the vertex intervals [lo, hi] in
(lo, hi) order.  The engine reads three things off the quiver: that list, the
dimension vectors and the Euler form of the orientation.  Hom and Ext^1
between indecomposables come from the sign of the Euler form, and every
torsion and wide closure is a double perpendicular.  The
torsion classes and their labelled covers come from one walk up from 0 (the
brute-force definitions check the tables, the closures and the walk in the
tests).  The engine works on masks only; the label-level wrappers that read
them as sets of indecomposables are the tests' (tests/oracles.py).
"""

from __future__ import annotations

import itertools
import math
from functools import cached_property, lru_cache

from .errors import GuardrailExceeded, PeriodViolation, RotationViolation, SerrelabError
from .lattice import (
    IntervalRef,
    Lattice,
    _check_size,
    _cliques,
    _iter_bits,
    build_lattice,
    lattice_to_json_dict,
    poset_isomorphism,
)
from .perm import cycle_decomposition

QUIVER_GUARDRAIL = 5


class QuiverA:
    """Oriented A_n quiver; orientation[k] = 'L' points the edge between
    vertices k+1 and k+2 at the lower vertex, 'R' at the higher one."""

    __slots__ = ("n", "orientation")

    def __init__(self, n: int, orientation: str = ""):
        if n < 1:
            raise ValueError("quiver needs at least one vertex")
        if len(orientation) != n - 1 or set(orientation) - {"L", "R"}:
            raise ValueError("orientation must be 'L'/'R' per edge")
        self.n = n
        self.orientation = orientation

    def __eq__(self, other):  # the engine cache is keyed on the quiver
        if other.__class__ is not QuiverA:
            return NotImplemented
        return self.n == other.n and self.orientation == other.orientation

    def __hash__(self):
        return hash((self.n, self.orientation))

    def arrows(self):
        out = []
        for k, d in enumerate(self.orientation):
            lo, hi = k + 1, k + 2
            out.append((hi, lo) if d == "L" else (lo, hi))
        return out

    # the engine reads these three and nothing else about the type

    def indecs(self):
        """The interval modules, in (lo, hi) order."""
        return [IndecA(lo, hi) for lo in range(1, self.n + 1) for hi in range(lo, self.n + 1)]

    def dimvec(self, m: IndecA):
        return tuple(1 if m.lo <= v <= m.hi else 0 for v in range(1, self.n + 1))

    def _euler(self, d, e):
        """The Euler form <d, e> = sum d_v e_v - sum over arrows s -> t of d_s e_t."""
        s = sum(a * b for a, b in zip(d, e))
        for (src, tgt) in self.arrows():
            s -= d[src - 1] * e[tgt - 1]
        return s


class IndecA:
    """The interval module of the vertices lo..hi."""

    __slots__ = ("lo", "hi")

    def __init__(self, lo: int, hi: int):
        self.lo = lo
        self.hi = hi

    def __eq__(self, other):
        if other.__class__ is not IndecA:
            return NotImplemented
        return self.lo == other.lo and self.hi == other.hi

    def __hash__(self):
        return hash((self.lo, self.hi))

    def __repr__(self):
        return f"[{self.lo},{self.hi}]"


def check_rank(n):
    """Rejects a quiver rank past the guardrail, before anything is built."""
    if n > QUIVER_GUARDRAIL:
        raise GuardrailExceeded(f"n={n} > {QUIVER_GUARDRAIL}")


def all_orientations(n):
    return ["".join(bits) for bits in itertools.product("LR", repeat=max(n - 1, 0))]


def linear_quiver(n):
    return QuiverA(n, "L" * (n - 1))


# -- the engine -----------------------------------------------------------------


# The perpendiculars are the engine's hot loop: _union and _meet walk the bits
# themselves rather than through _iter_bits.


def _union(rows, mask):
    """OR of rows[i] over the members i of mask."""
    out = 0
    while mask:
        low = mask & -mask
        out |= rows[low.bit_length() - 1]
        mask ^= low
    return out


def _meet(rows, mask, out):
    """AND of out and rows[i] over the members i of mask."""
    while mask:
        low = mask & -mask
        out &= rows[low.bit_length() - 1]
        mask ^= low
    return out


class _Engine:
    def __init__(self, q: QuiverA):
        check_rank(q.n)
        self.q = q
        self.n = q.n
        self.indecs = q.indecs()
        self.N = len(self.indecs)
        self.idx = {m: i for i, m in enumerate(self.indecs)}
        self.full_mask = (1 << self.N) - 1
        self._tables()
        self._walk_torsion()
        self._a_tors_cache = {}
        self._a_free_cache = {}
        self._intervals = None
        self._serre = None
        self._positions = None
        self._mutations = None
        self._triples = None

    # ---- Hom and Ext from the sign of the Euler form ------------------------------

    def _tables(self):
        """Between indecomposables of a Dynkin quiver Hom and Ext^1 are never
        both nonzero, so the sign of <x, y> = dim Hom(x, y) - dim Ext^1(x, y)
        decides both.  hom_out[i] holds the j with Hom(i, j) != 0 and hom_in[j]
        the i; ext_* (Ext^1 != 0) and orth_* (both zero) alike."""
        N = self.N
        dims = [self.q.dimvec(m) for m in self.indecs]
        self.hom_out, self.hom_in, self.ext_out, self.ext_in, self.orth_out, self.orth_in = (
            [0] * N for _ in range(6)
        )
        for i, x in enumerate(dims):
            for j, y in enumerate(dims):
                s = self.q._euler(x, y)
                out, into = (
                    (self.hom_out, self.hom_in) if s > 0
                    else (self.ext_out, self.ext_in) if s < 0
                    else (self.orth_out, self.orth_in)
                )
                out[i] |= 1 << j
                into[j] |= 1 << i
        self.proj_mask = sum(1 << i for i in range(N) if not self.ext_out[i])
        # below[x]: the other y with Hom(y, x) != 0 and dim y <= dim x, which
        # in a wide subcategory holding both makes y a proper subobject of x
        self.below = [
            sum(1 << j for j in _iter_bits(self.hom_in[i] & ~(1 << i))
                if all(a <= b for a, b in zip(dims[j], dims[i])))
            for i in range(N)
        ]

    # ---- closures: double perpendiculars -----------------------------------------

    def perp_from(self, mask):
        """mask^{perp_0}: objects receiving no hom from mask (torsion-free side)."""
        return self.full_mask & ~_union(self.hom_out, mask)

    def perp_into(self, mask):
        """^{perp_0}mask: objects with no hom into mask (a torsion class)."""
        return self.full_mask & ~_union(self.hom_in, mask)

    def torsion_closed(self, mask):
        """The least torsion class holding mask, ^{perp_0}(mask^{perp_0})."""
        return self.perp_into(self.perp_from(mask))

    def wide_closure(self, mask):
        """The least wide subcategory holding mask: the left perpendicular of
        its right perpendicular under <x, y> = 0 (Hom = Ext^1 = 0)."""
        return _meet(self.orth_in, _meet(self.orth_out, mask, self.full_mask), self.full_mask)

    # ---- torsion classes ---------------------------------------------------------

    def _walk_torsion(self):
        """Torsion classes and their labelled covers, walking up from 0.

        Every cover T <. T' has a unique brick label B in T^{perp_0} cap T',
        and T' = gen(T | B); every indecomposable of a Dynkin quiver is a
        brick.  So the upper covers of T are the minimal classes among
        gen(T | x) = ^{perp_0}((T | x)^{perp_0}) for x in T^{perp_0}.
        tors_masks is sorted by (size, mask), and tors_lower / tors_upper
        list each class's covers as (class, label) in that order."""
        upper = {}
        todo = [0]
        while todo:
            t = todo.pop()
            if t in upper:
                continue
            perp = self.perp_from(t)
            cands = {self.torsion_closed(t | 1 << x) for x in _iter_bits(perp)}
            upper[t] = []
            for c in cands:
                if any(d != c and d & c == d for d in cands):
                    continue
                label = perp & c
                if label.bit_count() != 1:
                    raise SerrelabError("cover edge label is not unique")
                upper[t].append((c, label))
                todo.append(c)
        self.tors_masks = sorted(upper, key=lambda m: (m.bit_count(), m))
        self.tors_set = set(upper)
        pos = {m: p for p, m in enumerate(self.tors_masks)}
        self.tors_upper, self.tors_lower = {}, {t: [] for t in self.tors_masks}
        for t in self.tors_masks:
            self.tors_upper[t] = sorted(upper[t], key=lambda e: pos[e[0]])
            for c, label in self.tors_upper[t]:
                self.tors_lower[c].append((t, label))

    def mask_label(self, mask):
        return "".join("1" if mask >> i & 1 else "0" for i in range(self.N))

    def a_tors(self, mask):
        """a(T) for a torsion class: the wide closure of the lower-cover edge
        labels (these are exactly the simple objects of a(T))."""
        if mask not in self._a_tors_cache:
            labels = 0
            for _, lab in self.tors_lower[mask]:
                labels |= lab
            self._a_tors_cache[mask] = self.wide_closure(labels)
        return self._a_tors_cache[mask]

    def a_free(self, mask):
        """a(F) for the torsion-free class F = T^{perp_0}: the wide closure of
        the upper-cover edge labels of T."""
        if mask not in self._a_free_cache:
            labels = 0
            for _, lab in self.tors_upper[mask]:
                labels |= lab
            self._a_free_cache[mask] = self.wide_closure(labels)
        return self._a_free_cache[mask]

    def tors_lattice(self) -> tuple:
        """(Lattice, label->mask map); labels are fixed-width bitmask strings."""
        masks = self.tors_masks
        labels = {m: self.mask_label(m) for m in masks}
        covers = []
        for mb in masks:
            for ma, _lab in self.tors_lower[mb]:
                covers.append((labels[ma], labels[mb]))
        lat = build_lattice(list(labels.values()), covers)
        return lat, {labels[m]: m for m in masks}

    # ---- wide subcategories and the Ingalls-Thomas maps ----------------------------

    def simples_of(self, wide_mask):
        """Members with no proper subobject in wide_mask."""
        return sum(1 << x for x in _iter_bits(wide_mask) if not wide_mask & self.below[x])

    def rank_of(self, wide_mask):
        return self.simples_of(wide_mask).bit_count()

    def wide_subcats(self):
        """Wide subcategories as wide closures of semibricks (sets of
        pairwise hom-orthogonal indecomposables)."""
        compat = [self.full_mask & ~(self.hom_out[i] | self.hom_in[i]) for i in range(self.N)]
        out = {self.wide_closure(m) for m in _cliques(compat, self.full_mask)}
        return sorted(out, key=lambda m: (m.bit_count(), m))

    def ext_injectives_in(self, mask):
        """Members of mask with no Ext^1 from any member."""
        return sum(1 << x for x in _iter_bits(mask) if not self.ext_in[x] & mask)

    def ext_projectives_in(self, mask):
        """Members of mask with no Ext^1 into any member."""
        return sum(1 << x for x in _iter_bits(mask) if not self.ext_out[x] & mask)

    # ---- mutable intervals ----------------------------------------------------------

    def mutable_intervals(self):
        if self._intervals is not None:
            return self._intervals
        out = {}
        for lo in self.tors_masks:
            alo = self.a_tors(lo)
            for hi in self.tors_masks:
                if lo & hi == lo and alo & self.a_tors(hi) == alo:
                    out[(lo, hi)] = self._build_interval(lo, hi)
        self._intervals = out
        return out

    def _build_interval(self, lo, hi):
        f_hi = self.perp_from(hi)
        a_flo = self.a_free(lo)
        a_fhi = self.a_free(hi)
        w1 = self.a_tors(lo)
        w2 = a_flo & self.a_tors(hi)
        w3 = a_fhi
        ranks = (self.rank_of(w1), self.rank_of(w2), self.rank_of(w3))
        if sum(ranks) != self.n:
            raise SerrelabError("delta-sequence ranks do not sum to the rank of the algebra")
        t_free = self.ext_injectives_in(f_hi & a_flo)
        t_tors = self.ext_projectives_in(lo & self.a_tors(hi))
        t_supp = self.proj_mask & self.perp_into(lo | f_hi)
        w_free = self.wide_closure(t_free)
        w_tors = self.wide_closure(t_tors)
        # the smallest wide subcategory over a partial tilting module has the
        # same rank, and W_free is pinched between a(F') and a(F)
        if self.rank_of(w_free) != bin(t_free).count("1"):
            raise SerrelabError("rank of W(T_free) differs from |T_free|")
        if self.rank_of(w_tors) != bin(t_tors).count("1"):
            raise SerrelabError("rank of W(T_tors) differs from |T_tors|")
        if a_fhi & w_free != a_fhi or w_free & a_flo != w_free:
            raise SerrelabError("W_free is not pinched between a(F') and a(F)")
        return MutableInterval(
            engine=self,
            lo=lo,
            hi=hi,
            delta=(w1, w2, w3),
            delta_ranks=ranks,
            t_free=t_free,
            t_tors=t_tors,
            t_supp=t_supp,
            w_free=w_free,
            w_tors=w_tors,
            k=self.rank_of(w_free),
        )

    def serre_perm(self, iv):
        """S(I) = [gen(T_free), gen(lo | W_free)], tabulated for every mutable
        interval on the first call; None marks an image outside the set."""
        if self._serre is None:
            ivs = self.mutable_intervals()
            self._serre = {
                key: ivs.get((self.torsion_closed(v.t_free), self.torsion_closed(v.lo | v.w_free)))
                for key, v in ivs.items()
            }
        target = self._serre[iv.key]
        if target is None:
            raise SerrelabError("Serre permutation left the set of mutable intervals")
        return target

    @cached_property
    def serre_cycles(self):
        """The cycles of the Serre permutation, as lists of mutable intervals
        in the order of mutable_intervals(); decomposed once."""
        return cycle_decomposition(self.serre_perm, self.mutable_intervals().values())

    # ---- interval mutations -----------------------------------------------------------

    def interval_mutations(self):
        if self._mutations is not None:
            return self._mutations
        ivs = self.mutable_intervals()
        out = []
        for iv in ivs.values():
            if iv.lo == iv.hi:
                continue
            simple_bits = self.simples_of(iv.delta[1])
            bits = simple_bits
            while bits:
                x = (bits & -bits).bit_length() - 1
                bits &= bits - 1
                a_hi = iv.hi & self.perp_into(1 << x)
                b_lo = self.torsion_closed(iv.lo | 1 << x)
                A = ivs.get((iv.lo, a_hi))
                B = ivs.get((b_lo, iv.hi))
                if A is None or B is None:
                    raise SerrelabError("interval mutation produced a non-mutable part")
                self._assert_mutation(B, iv, A)
                out.append(IntervalMutation(B=B, I=iv, A=A, x=self.indecs[x]))
        self._mutations = out
        return out

    def _member_bits(self, iv):
        """The torsion classes in iv as a bitmask over positions in
        tors_masks: the classes above iv.lo meet the classes below iv.hi."""
        if self._positions is None:
            tors = self.tors_masks
            above = {m: sum(1 << p for p, t in enumerate(tors) if m & t == m) for m in tors}
            below = {m: sum(1 << p for p, t in enumerate(tors) if t & m == t) for m in tors}
            self._positions = above, below
        above, below = self._positions
        return above[iv.lo] & below[iv.hi]

    def _assert_mutation(self, B, I, A):
        mi, ma, mb = (self._member_bits(x) for x in (I, A, B))
        if ma & mb or ma | mb != mi:
            raise SerrelabError("interval mutation is not a disjoint union")
        # hi is the largest member of [lo, hi] under (size, mask)
        if B.hi != I.hi:
            raise SerrelabError("max B != max I")
        if A.lo != I.lo:
            raise SerrelabError("mutation bounds are off")

    def rotation_check(self):
        muts = self.interval_mutations()
        keyset = {(m.B.key, m.I.key, m.A.key) for m in muts}
        records = []
        for m in muts:
            wb, wi, wa = m.B.w_free, m.I.w_free, m.A.w_free
            if wb & wi != wb or wi & wa != wi:
                raise RotationViolation("W_free chain inclusion fails")
            if m.B.k + 1 != m.A.k:
                raise RotationViolation("rank gap is not 1")
            case1 = wi == wa
            case2 = wb == wi
            if case1 == case2:
                raise RotationViolation("rotation cases are not exclusive")
            SB, SI, SA = self.serre_perm(m.B), self.serre_perm(m.I), self.serre_perm(m.A)
            if case1:
                rotated = (SI.key, SA.key, SB.key)
            else:
                rotated = (SA.key, SB.key, SI.key)
            if rotated not in keyset:
                raise RotationViolation("rotated triple is not an interval mutation")
            records.append({"case": 1 if case1 else 2, "triple": (m.B.key, m.I.key, m.A.key)})
        return records

    # ---- 2-cluster triples ---------------------------------------------------------

    def _orthogonal_pairs(self, max_size):
        """(t_tors, t_free, size, elig): rigid t_tors and t_free with at most
        max_size summands together and no Hom or Ext^1 from t_tors to t_free;
        elig holds the projectives with no hom into either."""
        compat = [self.full_mask & ~(self.ext_out[i] | self.ext_in[i] | 1 << i) for i in range(self.N)]
        for t_tors in _cliques(compat, self.full_mask):
            bad = _union(self.hom_out, t_tors) | _union(self.ext_out, t_tors)
            for t_free in _cliques(compat, self.full_mask & ~bad):
                size = t_tors.bit_count() + t_free.bit_count()
                if size <= max_size:
                    yield t_tors, t_free, size, self.proj_mask & self.perp_into(t_tors | t_free)

    def cluster_triples(self):
        if self._triples is None:
            triples = []
            for t_tors, t_free, size, elig in self._orthogonal_pairs(self.n):
                have = elig.bit_count()
                if have > self.n - size:
                    raise SerrelabError("support completion is not unique")
                if have == self.n - size:
                    triples.append(ClusterTriple(t_free=t_free, t_tors=t_tors, t_supp=elig))
            self._triples = triples
        return self._triples

    def interval_of(self, t: "ClusterTriple"):
        lo = self.torsion_closed(t.t_tors)
        hi = self.perp_into(t.t_free)
        iv = self.mutable_intervals().get((lo, hi))
        if iv is None:
            raise SerrelabError("interval of a 2-cluster triple is not mutable")
        return iv


class ClusterTriple:
    __slots__ = ("t_free", "t_tors", "t_supp")

    def __init__(self, t_free: int, t_tors: int, t_supp: int):
        self.t_free = t_free
        self.t_tors = t_tors
        self.t_supp = t_supp


class MutableInterval:
    def __init__(self, engine, lo, hi, delta, delta_ranks, t_free, t_tors, t_supp, w_free, w_tors, k):
        self.engine = engine
        self.lo = lo
        self.hi = hi
        self.delta = delta
        self.delta_ranks = delta_ranks
        self.t_free = t_free
        self.t_tors = t_tors
        self.t_supp = t_supp
        self.w_free = w_free
        self.w_tors = w_tors
        self.k = k

    @property
    def key(self):
        return (self.lo, self.hi)

    def __repr__(self):
        e = self.engine
        return f"MutableInterval({e.mask_label(self.lo)} <= {e.mask_label(self.hi)}, k={self.k})"


class IntervalMutation:
    __slots__ = ("B", "I", "A", "x")

    def __init__(self, B, I, A, x):  # three MutableIntervals and an IndecA
        self.B = B
        self.I = I
        self.A = A
        self.x = x


@lru_cache(maxsize=None)
def _engine(q: QuiverA) -> _Engine:
    return _Engine(q)


# -- public operations ------------------------------------------------------------


def tors_lattice(q: QuiverA) -> Lattice:
    return _engine(q).tors_lattice()[0]


def mutable_intervals(q: QuiverA):
    return list(_engine(q).mutable_intervals().values())


def coxeter_number(q: QuiverA) -> int:
    return q.n + 1


def indec_count(q: QuiverA) -> int:
    return q.n * (q.n + 1) // 2


def fuss_catalan_count(n: int) -> int:
    """Number of mutable intervals / 2-cluster tilting objects in type A_n."""
    return math.comb(3 * n + 3, n + 1) // (2 * n + 3)


def serre_orbit_stats(q: QuiverA):
    """Check the period and the rank sum on every cycle of the Serre
    permutation: its length L divides 2h+2 and (2h+2)/L times its rank sum
    is 2N (for A_1 also h+1 and N); returns orbit cycle data."""
    h = coxeter_number(q)
    N = indec_count(q)
    period = 2 * h + 2
    cycles = _engine(q).serre_cycles
    for cyc in cycles:
        key, L, ksum = cyc[0].key, len(cyc), sum(iv.k for iv in cyc)
        if period % L:
            raise PeriodViolation(f"interval {key} does not return after {period} steps")
        if period // L * ksum != 2 * N:
            raise PeriodViolation(f"rank sum {period // L * ksum} != {2 * N} for interval {key}")
        if q.n == 1 and ((h + 1) % L or (h + 1) // L * ksum != N):
            raise PeriodViolation("A_1 special (N, h+1) periodicity fails")
    return {
        "period_bound": period,
        "cycle_lengths": sorted(len(c) for c in cycles),
        "orbit_count": len(cycles),
    }


def interval_mutations(q: QuiverA):
    return _engine(q).interval_mutations()


def rotation_check(q: QuiverA):
    return _engine(q).rotation_check()


def cluster_triples(q: QuiverA):
    return _engine(q).cluster_triples()


def interval_of(q: QuiverA, t: ClusterTriple) -> MutableInterval:
    return _engine(q).interval_of(t)


def run_typea_suite(q: QuiverA, categorical=True) -> dict:
    """Counts, Serre-permutation statistics, mutation and rotation checks,
    cluster bijection, and the categorical integration."""
    eng = _engine(q)
    out = {"orientation": q.orientation, "n": q.n, "checks": {}}
    lat, _ = eng.tors_lattice()
    out["tors_lattice"] = lattice_to_json_dict(lat)
    ivs = mutable_intervals(q)
    triples = cluster_triples(q)
    expected = fuss_catalan_count(q.n)
    out["checks"]["counts"] = {
        "torsion_classes": len(eng.tors_masks),
        "wide_subcats": len(eng.wide_subcats()),
        "mutable_intervals": len(ivs),
        "cluster_triples": len(triples),
        "expected_two_catalan": expected,
        "ok": len(ivs) == len(triples) == expected,
    }
    try:
        stats = serre_orbit_stats(q)
        out["checks"]["serre_periods"] = {"ok": True, **stats}
    except SerrelabError as exc:
        out["checks"]["serre_periods"] = {"ok": False, "error": str(exc)}
    muts = interval_mutations(q)
    out["checks"]["interval_mutations"] = {
        "count": len(muts),
        "expected_three_to_n": q.n * len(ivs),
        "ok": 3 * len(muts) == q.n * len(ivs),
    }
    try:
        rotation_check(q)
        out["checks"]["rotation"] = {"ok": True, "triples": len(muts)}
    except SerrelabError as exc:
        out["checks"]["rotation"] = {"ok": False, "error": str(exc)}
    images = {interval_of(q, t).key for t in triples}
    roundtrip = all(
        interval_of(q, ClusterTriple(iv.t_free, iv.t_tors, iv.t_supp)).key == iv.key
        for iv in ivs
    )
    out["checks"]["cluster_bijection"] = {
        "ok": images == {iv.key for iv in ivs} and roundtrip,
        "roundtrip": roundtrip,
    }
    out["mutable_intervals"] = [
        {
            "lo": eng.mask_label(iv.lo),
            "hi": eng.mask_label(iv.hi),
            "delta_ranks": list(iv.delta_ranks),
            "k": iv.k,
        }
        for iv in ivs
    ]
    out["serre_permutation_cycles"] = [
        [f"{eng.mask_label(iv.lo)}<={eng.mask_label(iv.hi)}" for iv in cyc]
        for cyc in eng.serre_cycles
    ]
    if categorical:
        from .derived import StalkResult, serre_on_support

        bad = []
        for iv in ivs:
            lo, hi = lat.index[eng.mask_label(iv.lo)], lat.index[eng.mask_label(iv.hi)]
            res = serre_on_support(lat, lat.interval_mask(lo, hi))
            s = eng.serre_perm(iv)
            want = IntervalRef(eng.mask_label(s.lo), eng.mask_label(s.hi))
            good = (
                isinstance(res, StalkResult)
                and res.interval == want
                and res.shift == iv.k
            )
            if not good:
                bad.append(eng.mask_label(iv.lo) + "<=" + eng.mask_label(iv.hi))
        out["checks"]["categorical_serre"] = {"ok": not bad, "failures": bad, "total": len(ivs)}
    out["ok"] = all(c.get("ok", False) for c in out["checks"].values())
    return out


# -- lattice generators --------------------------------------------------------------


def _binary_trees(k):
    if k == 0:
        return [None]
    out = []
    for left in range(k):
        for l in _binary_trees(left):
            for r in _binary_trees(k - 1 - left):
                out.append((l, r))
    return out


def _tree_str(t):
    if t is None:
        return "."
    return f"({_tree_str(t[0])}{_tree_str(t[1])})"


def _rotations(t):
    """Single right-rotations ((A,B),C) -> (A,(B,C)) anywhere in t."""
    if t is None:
        return
    l, r = t
    if l is not None:
        yield (l[0], (l[1], r))
    for ll in _rotations(l):
        yield (ll, r)
    for rr in _rotations(r):
        yield (l, rr)


def tamari_rotation_lattice(n: int) -> Lattice:
    """Tamari lattice on binary trees with n internal nodes, covers given by
    single rotations; independent of the torsion-class construction."""
    trees = _binary_trees(n)
    labels = [_tree_str(t) for t in trees]
    lab = dict(zip(labels, trees))
    covers = []
    for s in labels:
        for t2 in _rotations(lab[s]):
            covers.append((s, _tree_str(t2)))
    return build_lattice(labels, covers)


def gen_tamari(n: int) -> Lattice:
    """tors of the linear A_{n-1} quiver, cross-checked against the rotation
    order on binary trees."""
    if n < 1:
        raise ValueError("n >= 1")
    if n == 1:
        return build_lattice(["t"], [])
    lat = tors_lattice(linear_quiver(n - 1))
    rot = tamari_rotation_lattice(n)
    if poset_isomorphism(lat, rot) is None:
        raise SerrelabError("torsion-class Tamari lattice is not the rotation lattice")
    return lat


def gen_type_i(m: int) -> Lattice:
    """The (m+2)-element lattice: bottom, one left element, a right chain of
    m-1 elements, top."""
    if m < 2:
        raise ValueError("m >= 2")
    _check_size(m + 2)  # before any label is listed
    elements = ["0", "L"] + [f"R{i}" for i in range(1, m)] + ["1"]
    covers = [("0", "L"), ("L", "1"), ("0", "R1"), (f"R{m-1}", "1")]
    covers += [(f"R{i}", f"R{i+1}") for i in range(1, m - 1)]
    return build_lattice(elements, covers)
