"""Type-A engine on any oriented Dynkin quiver (A_n from the CLI): torsion
classes and the Cambrian lattice tors(Lambda), wide subcategories, mutable
intervals, the Serre permutation on them, interval mutations, 2-cluster
triples, the type-A suite, and the Tamari / type-I(m) lattice generators.

The indecomposables are the positive roots, their own dimension vectors, and
sets of them are bitmasks over the roots in (first support index, last
support index) order: for A_n the intervals [lo, hi] in (lo, hi) order.  The
engine reads two things off the quiver: that list and the Euler form.  Hom
and Ext^1 between indecomposables come from the sign of the Euler form, and
every torsion and wide closure is a double perpendicular: an OR of table
rows over the members of a mask, read from byte tables, one lookup per byte
of the mask, each table built on first use.  The torsion classes and their
labelled covers come from one walk up from 0 (the brute-force definitions
check the tables, the closures and the walk in the tests), and the Lattice
built from them (element p is tors_masks[p]) holds their inclusion order.  The engine works on masks only; the label-level
wrappers that read them as sets of indecomposables are the tests'.
"""

from __future__ import annotations

import itertools
import math
from functools import cached_property, lru_cache

from .errors import GuardrailExceeded, PeriodViolation, RotationViolation, SerrelabError
from .lattice import (
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


class DynkinQuiver:
    """A Dynkin quiver (a species, for the non-simply-laced types): the Cartan
    matrix a_ij = <alpha_i^vee, alpha_j>, its symmetrizer d (d_i a_ij =
    d_j a_ji) and one letter per edge (i, j), i < j, of the diagram, the
    edges in lexicographic order: 'L' points the edge at i, 'R' at j."""

    __slots__ = ("cartan", "d", "orientation", "n", "arrows")

    def __init__(self, cartan, d, orientation: str = ""):
        n = len(d)
        if n < 1:
            raise ValueError("quiver needs at least one vertex")
        edges = [(i, j) for i in range(n) for j in range(i + 1, n) if cartan[i][j]]
        if len(orientation) != len(edges) or set(orientation) - {"L", "R"}:
            raise ValueError("orientation must be 'L'/'R' per edge")
        self.cartan = tuple(map(tuple, cartan))
        self.d = tuple(d)
        self.orientation = orientation
        self.n = n
        self.arrows = [(j, i) if o == "L" else (i, j) for (i, j), o in zip(edges, orientation)]

    def __eq__(self, other):  # the engine cache is keyed on the quiver
        if other.__class__ is not DynkinQuiver:
            return NotImplemented
        return (self.cartan, self.d, self.orientation) == (other.cartan, other.d, other.orientation)

    def __hash__(self):
        return hash((self.cartan, self.d, self.orientation))

    # the engine reads these two and nothing else about the type

    def indecs(self):
        """The indecomposables, which are the positive roots and their own
        dimension vectors, by simple reflections; in (first support index,
        last support index, root) order, which for A_n is the intervals
        [lo, hi] in (lo, hi) order."""
        n, a = self.n, self.cartan
        roots = {tuple(int(i == j) for j in range(n)) for i in range(n)}
        todo = list(roots)
        while todo:
            beta = todo.pop()
            for i in range(n):
                c = sum(a[i][j] * beta[j] for j in range(n))
                image = beta[:i] + (beta[i] - c,) + beta[i + 1:]
                if c < 0 and image not in roots:
                    roots.add(image)
                    todo.append(image)
        return sorted(roots, key=lambda r: (min(s := [i for i in range(n) if r[i]]), max(s), r))

    def euler(self, x, y):
        """<x, y> = sum d_i x_i y_i - sum over arrows i -> j of d_i |a_ij| x_i y_j."""
        s = sum(d * a * b for d, a, b in zip(self.d, x, y))
        for i, j in self.arrows:
            s -= self.d[i] * abs(self.cartan[i][j]) * x[i] * y[j]
        return s

    def fuss_catalan(self, m: int) -> int:
        """Cat^(m)(W) = prod (m h + e_i + 1) / (e_i + 1): h is 1 + the largest
        root height and the exponents e_i are the dual partition of the number
        of roots at each height (Kostant)."""
        heights = [sum(r) for r in self.indecs()]
        h = max(heights) + 1
        exponents = [sum(heights.count(k) > j for k in range(1, h)) for j in range(self.n)]
        return math.prod(m * h + e + 1 for e in exponents) // math.prod(e + 1 for e in exponents)


def quiver_a(n: int, orientation: str = "") -> DynkinQuiver:
    """The A_n quiver: orientation[k] points the edge (k, k+1) at k ('L') or k+1 ('R')."""
    cartan = [[2 if i == j else -1 if abs(i - j) == 1 else 0 for j in range(n)] for i in range(n)]
    return DynkinQuiver(cartan, (1,) * n, orientation)


def check_rank(n):
    """Rejects a quiver rank past the guardrail, before anything is built."""
    if n > QUIVER_GUARDRAIL:
        raise GuardrailExceeded(f"n={n} > {QUIVER_GUARDRAIL}")


def all_orientations(n):
    return ["".join(bits) for bits in itertools.product("LR", repeat=max(n - 1, 0))]


def linear_quiver(n):
    return quiver_a(n, "L" * (n - 1))


# -- the engine -----------------------------------------------------------------


# The closures are the engine's hot loop.  Each is an OR of rows over the
# members of a mask, read from byte tables: one lookup per byte of the mask
# rather than one step per bit.


def _byte_tables(rows):
    """tabs[k][s]: the OR of rows[8k + i] over the bits i of the byte s, each
    entry the one without the lowest bit of s OR that bit's row."""
    tabs = []
    for k in range(0, len(rows), 8):
        chunk = rows[k:k + 8]
        tab = [0] * (1 << len(chunk))
        for s in range(1, len(tab)):
            low = s & -s
            tab[s] = tab[s ^ low] | chunk[low.bit_length() - 1]
        tabs.append(tab)
    return tabs


def _or_over(tabs, mask):
    """The OR of rows[i] over the members i of mask, tabs = _byte_tables(rows)."""
    out = 0
    for tab in tabs:
        out |= tab[mask & 255]
        mask >>= 8
    return out


class _Engine:
    def __init__(self, q: DynkinQuiver):
        check_rank(q.n)
        self.q = q
        self.n = q.n
        self.indecs = q.indecs()
        self.N = len(self.indecs)
        self.idx = {m: i for i, m in enumerate(self.indecs)}
        self.full_mask = (1 << self.N) - 1
        self._tables()
        self._walk_torsion()

    # ---- Hom and Ext from the sign of the Euler form ------------------------------

    def _tables(self):
        """Between indecomposables of a Dynkin quiver Hom and Ext^1 are never
        both nonzero, so the sign of <x, y> = dim Hom(x, y) - dim Ext^1(x, y)
        decides both.  hom_out[i] holds the j with Hom(i, j) != 0 and hom_in[j]
        the i; ext_* (Ext^1 != 0) alike.  A zero sign means x and y are
        orthogonal, so the orthogonal pairs are the complement of hom | ext."""
        N = self.N
        dims = self.indecs  # the roots are their own dimension vectors
        self.hom_out, self.hom_in, self.ext_out, self.ext_in = ([0] * N for _ in range(4))
        for i, x in enumerate(dims):
            for j, y in enumerate(dims):
                s = self.q.euler(x, y)
                if s:
                    out, into = (self.hom_out, self.hom_in) if s > 0 else (self.ext_out, self.ext_in)
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

    # ---- byte tables of the row families, each built on first use ------------------

    _hom_out_tabs = cached_property(lambda self: _byte_tables(self.hom_out))
    _hom_in_tabs = cached_property(lambda self: _byte_tables(self.hom_in))
    _ext_out_tabs = cached_property(lambda self: _byte_tables(self.ext_out))
    _ext_in_tabs = cached_property(lambda self: _byte_tables(self.ext_in))
    # hom | ext, the complement of the orthogonal rows: the wide closure's AND
    # of orthogonal rows is the complement of the OR of these
    _hom_ext_out_tabs = cached_property(
        lambda self: _byte_tables([h | e for h, e in zip(self.hom_out, self.ext_out)]))
    _hom_ext_in_tabs = cached_property(
        lambda self: _byte_tables([h | e for h, e in zip(self.hom_in, self.ext_in)]))

    @cached_property
    def _above_tabs(self):
        """Byte tables of above, the transpose of below: above[y] holds the x
        with y in below[x]."""
        above = [0] * self.N
        for x, b in enumerate(self.below):
            for y in _iter_bits(b):
                above[y] |= 1 << x
        return _byte_tables(above)

    # ---- closures: double perpendiculars -----------------------------------------

    def perp_from(self, mask):
        """mask^{perp_0}: objects receiving no hom from mask (torsion-free side)."""
        return self.full_mask & ~_or_over(self._hom_out_tabs, mask)

    def perp_into(self, mask):
        """^{perp_0}mask: objects with no hom into mask (a torsion class)."""
        return self.full_mask & ~_or_over(self._hom_in_tabs, mask)

    def torsion_closed(self, mask):
        """The least torsion class holding mask, ^{perp_0}(mask^{perp_0})."""
        return self.perp_into(self.perp_from(mask))

    def wide_closure(self, mask):
        """The least wide subcategory holding mask: the left perpendicular of
        its right perpendicular under <x, y> = 0 (Hom = Ext^1 = 0)."""
        full = self.full_mask
        return full & ~_or_over(self._hom_ext_in_tabs, full & ~_or_over(self._hom_ext_out_tabs, mask))

    # ---- torsion classes ---------------------------------------------------------

    def _walk_torsion(self):
        """Torsion classes and their labelled covers, walking up from 0.

        Every cover T <. T' has a unique brick label B in T^{perp_0} cap T',
        and T' = gen(T | B); every indecomposable of a Dynkin quiver is a
        brick.  So the upper covers of T are the minimal classes among
        gen(T | x) = ^{perp_0}((T | x)^{perp_0}) for x in T^{perp_0}.
        tors_masks is sorted by (size, mask), pos maps a class to its place
        there, and tors_lower / tors_upper list each class's covers as
        (class, label) in that order."""
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
        self.pos = pos = {m: p for p, m in enumerate(self.tors_masks)}
        self.tors_upper, self.tors_lower = {}, {t: [] for t in self.tors_masks}
        for t in self.tors_masks:
            self.tors_upper[t] = sorted(upper[t], key=lambda e: pos[e[0]])
            for c, label in self.tors_upper[t]:
                self.tors_lower[c].append((t, label))

    def mask_label(self, mask):
        return "".join("1" if mask >> i & 1 else "0" for i in range(self.N))

    @cached_property
    def lat(self) -> Lattice:
        """tors(Lambda) as a Lattice: element p is tors_masks[p], labelled by
        mask_label, so its up- and down-sets are the inclusion order."""
        labels = [self.mask_label(m) for m in self.tors_masks]
        covers = [(labels[self.pos[t]], labels[p])
                  for p, mb in enumerate(self.tors_masks) for t, _ in self.tors_lower[mb]]
        return build_lattice(labels, covers)

    @cached_property
    def a_tors(self):
        """a(T) for every torsion class T: the wide closure of its lower-cover
        labels, which are exactly the simple objects of a(T).  A cover is
        determined by its brick label, so the labels' sum is their union."""
        return {t: self.wide_closure(sum(lab for _, lab in c)) for t, c in self.tors_lower.items()}

    @cached_property
    def a_free(self):
        """a(F) for the torsion-free class F = T^{perp_0}, keyed by T: the
        wide closure of the upper-cover labels of T."""
        return {t: self.wide_closure(sum(lab for _, lab in c)) for t, c in self.tors_upper.items()}

    # ---- wide subcategories and the Ingalls-Thomas maps ----------------------------

    def simples_of(self, wide_mask):
        """Members with no proper subobject in wide_mask."""
        return wide_mask & ~_or_over(self._above_tabs, wide_mask)

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
        return mask & ~_or_over(self._ext_out_tabs, mask)

    def ext_projectives_in(self, mask):
        """Members of mask with no Ext^1 into any member."""
        return mask & ~_or_over(self._ext_in_tabs, mask)

    # ---- mutable intervals ----------------------------------------------------------

    @cached_property
    def mutable_intervals(self):
        """The intervals [lo, hi] of tors with a(lo) inside a(hi), keyed
        (lo, hi) in the order of tors_masks; each hi is read off the
        up-set of lo in lat."""
        tors, a_tors, out = self.tors_masks, self.a_tors, {}
        for p, lo in enumerate(tors):
            alo = a_tors[lo]
            for q in _iter_bits(self.lat.up_mask[p]):
                hi = tors[q]
                if alo & a_tors[hi] == alo:
                    out[(lo, hi)] = self._build_interval(lo, hi)
        return out

    def _build_interval(self, lo, hi):
        f_hi = self.perp_from(hi)
        a_flo = self.a_free[lo]
        a_fhi = self.a_free[hi]
        w1 = self.a_tors[lo]
        w2 = a_flo & self.a_tors[hi]
        w3 = a_fhi
        ranks = (self.rank_of(w1), self.rank_of(w2), self.rank_of(w3))
        if sum(ranks) != self.n:
            raise SerrelabError("delta-sequence ranks do not sum to the rank of the algebra")
        t_free = self.ext_injectives_in(f_hi & a_flo)
        t_tors = self.ext_projectives_in(lo & self.a_tors[hi])
        t_supp = self.proj_mask & self.perp_into(lo | f_hi)
        w_free = self.wide_closure(t_free)
        w_tors = self.wide_closure(t_tors)
        k = self.rank_of(w_free)
        # the smallest wide subcategory over a partial tilting module has the
        # same rank, and W_free is pinched between a(F') and a(F)
        if k != t_free.bit_count():
            raise SerrelabError("rank of W(T_free) differs from |T_free|")
        if self.rank_of(w_tors) != t_tors.bit_count():
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
            k=k,
        )

    @cached_property
    def serre_table(self):
        """S(I) = [gen(T_free), gen(lo | W_free)] for every mutable interval,
        keyed by I.key; None marks an image outside the set."""
        ivs = self.mutable_intervals
        return {
            key: ivs.get((self.torsion_closed(v.t_free), self.torsion_closed(v.lo | v.w_free)))
            for key, v in ivs.items()
        }

    def serre_perm(self, iv):
        """S(iv), read off serre_table."""
        target = self.serre_table[iv.key]
        if target is None:
            raise SerrelabError("Serre permutation left the set of mutable intervals")
        return target

    @cached_property
    def serre_cycles(self):
        """The cycles of the Serre permutation, as lists of mutable intervals
        in the order of mutable_intervals; decomposed once."""
        return cycle_decomposition(self.serre_perm, self.mutable_intervals.values())

    # ---- interval mutations -----------------------------------------------------------

    @cached_property
    def interval_mutations(self):
        ivs = self.mutable_intervals
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
        return out

    def _member_bits(self, iv):
        """The torsion classes in iv, as a mask over the elements of lat."""
        return self.lat.interval_mask(self.pos[iv.lo], self.pos[iv.hi])

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
        muts = self.interval_mutations
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
            bad = _or_over(self._hom_ext_out_tabs, t_tors)
            for t_free in _cliques(compat, self.full_mask & ~bad):
                size = t_tors.bit_count() + t_free.bit_count()
                if size <= max_size:
                    yield t_tors, t_free, size, self.proj_mask & self.perp_into(t_tors | t_free)

    @cached_property
    def cluster_triples(self):
        triples = []
        for t_tors, t_free, size, elig in self._orthogonal_pairs(self.n):
            have = elig.bit_count()
            if have > self.n - size:
                raise SerrelabError("support completion is not unique")
            if have == self.n - size:
                triples.append(ClusterTriple(t_free=t_free, t_tors=t_tors, t_supp=elig))
        return triples

    def interval_of(self, t: "ClusterTriple"):
        lo = self.torsion_closed(t.t_tors)
        hi = self.perp_into(t.t_free)
        iv = self.mutable_intervals.get((lo, hi))
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
        self.key = (lo, hi)

    def __repr__(self):
        e = self.engine
        return f"MutableInterval({e.mask_label(self.lo)} <= {e.mask_label(self.hi)}, k={self.k})"


class IntervalMutation:
    __slots__ = ("B", "I", "A", "x")

    def __init__(self, B, I, A, x):  # three MutableIntervals and a root
        self.B = B
        self.I = I
        self.A = A
        self.x = x


@lru_cache(maxsize=None)
def _engine(q: DynkinQuiver) -> _Engine:
    return _Engine(q)


# -- public operations ------------------------------------------------------------


def tors_lattice(q: DynkinQuiver) -> Lattice:
    return _engine(q).lat


def mutable_intervals(q: DynkinQuiver):
    return list(_engine(q).mutable_intervals.values())


def serre_orbit_stats(q):
    """Check the period and the rank sum on every cycle of the Serre
    permutation: its length L divides 2h+2 and (2h+2)/L times its rank sum
    is 2N (for A_1 also h+1 and N); returns orbit cycle data.  N is the
    number of indecomposables (positive roots) and h = 2N/n the Coxeter
    number, so any Dynkin quiver the engine reads gives its own."""
    eng = _engine(q)
    N = eng.N
    h = 2 * N // eng.n
    period = 2 * h + 2
    cycles = eng.serre_cycles
    for cyc in cycles:
        key, L, ksum = cyc[0].key, len(cyc), sum(iv.k for iv in cyc)
        if period % L:
            raise PeriodViolation(f"interval {key} does not return after {period} steps")
        if period // L * ksum != 2 * N:
            raise PeriodViolation(f"rank sum {period // L * ksum} != {2 * N} for interval {key}")
        if eng.n == 1 and ((h + 1) % L or (h + 1) // L * ksum != N):
            raise PeriodViolation("A_1 special (N, h+1) periodicity fails")
    return {
        "period_bound": period,
        "cycle_lengths": sorted(len(c) for c in cycles),
        "orbit_count": len(cycles),
    }


def interval_mutations(q: DynkinQuiver):
    return _engine(q).interval_mutations


def rotation_check(q: DynkinQuiver):
    return _engine(q).rotation_check()


def cluster_triples(q: DynkinQuiver):
    return _engine(q).cluster_triples


def interval_of(q: DynkinQuiver, t: ClusterTriple) -> MutableInterval:
    return _engine(q).interval_of(t)


def run_typea_suite(q: DynkinQuiver, categorical=True) -> dict:
    """Counts, Serre-permutation statistics, mutation and rotation checks,
    cluster bijection, and the categorical integration."""
    eng = _engine(q)
    out = {"orientation": q.orientation, "n": q.n, "checks": {}}
    lat = eng.lat
    out["tors_lattice"] = lattice_to_json_dict(lat)

    def label(mask):
        return lat.labels[eng.pos[mask]]

    ivs = mutable_intervals(q)
    triples = cluster_triples(q)
    expected = q.fuss_catalan(2)
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
    parts = {(t.t_free, t.t_tors, t.t_supp) for t in triples}
    roundtrip = all(
        (iv.t_free, iv.t_tors, iv.t_supp) in parts
        and interval_of(q, ClusterTriple(iv.t_free, iv.t_tors, iv.t_supp)).key == iv.key
        for iv in ivs
    )
    out["checks"]["cluster_bijection"] = {
        "ok": images == {iv.key for iv in ivs} and roundtrip,
        "roundtrip": roundtrip,
    }
    out["mutable_intervals"] = [
        {
            "lo": label(iv.lo),
            "hi": label(iv.hi),
            "delta_ranks": list(iv.delta_ranks),
            "k": iv.k,
        }
        for iv in ivs
    ]
    out["serre_permutation_cycles"] = [
        [f"{label(iv.lo)}<={label(iv.hi)}" for iv in cyc]
        for cyc in eng.serre_cycles
    ]
    if categorical:
        from .derived import StalkResult, serre_on_support

        bad = []
        for iv in ivs:
            res = serre_on_support(lat, eng._member_bits(iv))
            want = eng._member_bits(eng.serre_perm(iv))
            if not (isinstance(res, StalkResult) and res.support == want and res.shift == iv.k):
                bad.append(f"{label(iv.lo)}<={label(iv.hi)}")
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
    check_rank(n - 1)  # before any quiver or Cartan matrix is built
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
