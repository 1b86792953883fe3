"""Finite posets and lattices: construction, validation, index-level order
queries and antichain machinery on bitmasks.

Elements are opaque hashable labels; internally everything runs on dense
integer indices in input order, with up/down sets stored as bitmasks.
A fixed linear extension (topological order of the covers, ties broken
by input order) is computed once and reused for all triangular matrix
work downstream.  Label-level queries, structural classification and the
antichain enumeration are the tests' oracles (tests/oracles.py).
"""

from __future__ import annotations

import itertools
import json
from collections import Counter
from functools import cached_property

from .errors import CycleDetected, GuardrailExceeded, NotALattice, RedundantCover

SIZE_GUARDRAIL = 10_000


def _check_size(n: int):
    if n > SIZE_GUARDRAIL:
        raise GuardrailExceeded(f"{n} elements > {SIZE_GUARDRAIL}")


def default_max_steps(lattice: Lattice) -> int:
    """The step budget of a Coxeter trajectory or a derived Serre orbit."""
    return 4 * (lattice.n + 10)


def _iter_bits(mask: int):
    """Indices of the set bits of mask, lowest first: the shared bit walk.
    Some hot loops walk bits themselves instead (geom._bits, typea's
    interval mutations, support_antichain, coxeter._moebius).  Private
    because perfbench's tracer wraps every public function of a layer in a
    span, and a span per walk would distort the layers' self times."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class Poset:
    """Finite poset on labelled elements with explicit cover relation."""

    def __init__(self, elements, covers):
        labels = tuple(elements)
        if len(set(labels)) != len(labels):
            raise ValueError("element labels must be distinct")
        if not labels:
            raise ValueError("empty element set")
        _check_size(len(labels))
        self.labels = labels
        self.n = len(labels)
        self.index = {lab: i for i, lab in enumerate(labels)}
        cov = []
        for lo, hi in covers:
            if lo not in self.index or hi not in self.index:
                raise ValueError(f"cover ({lo!r}, {hi!r}) references unknown label")
            cov.append((self.index[lo], self.index[hi]))
        if len(set(cov)) != len(cov):
            count = Counter(cov)  # the first cover listed twice, in input order
            dup = next(c for c in cov if count[c] > 1)
            raise RedundantCover(labels[dup[0]], labels[dup[1]], "is listed twice")
        self.covers = tuple(cov)
        self.upper_covers = [[] for _ in range(self.n)]
        self.lower_covers = [[] for _ in range(self.n)]
        for a, b in self.covers:
            if a == b:
                raise CycleDetected(f"self-cover at {labels[a]!r}")
            self.upper_covers[a].append(b)
            self.lower_covers[b].append(a)
        self.topo = self._linear_extension()
        self.up_mask, self.down_mask = self._closure()
        self._check_irredundant()

    def _linear_extension(self):
        indeg = [len(self.lower_covers[i]) for i in range(self.n)]
        avail = sorted(i for i in range(self.n) if indeg[i] == 0)
        order = []
        import heapq

        heapq.heapify(avail)
        while avail:
            v = heapq.heappop(avail)
            order.append(v)
            for w in self.upper_covers[v]:
                indeg[w] -= 1
                if indeg[w] == 0:
                    heapq.heappush(avail, w)
        if len(order) != self.n:
            raise CycleDetected("cover relation contains a directed cycle")
        return tuple(order)

    def _closure(self):
        up = [1 << i for i in range(self.n)]
        for v in reversed(self.topo):
            for w in self.upper_covers[v]:
                up[v] |= up[w]
        down = [1 << i for i in range(self.n)]
        for v in self.topo:
            for w in self.lower_covers[v]:
                down[v] |= down[w]
        return up, down

    def _check_irredundant(self):
        for a, b in self.covers:
            between = self.up_mask[a] & self.down_mask[b]
            if between != (1 << a) | (1 << b):
                raise RedundantCover(self.labels[a], self.labels[b])

    # -- index-level queries -------------------------------------------------

    def leq_i(self, a: int, b: int) -> bool:
        return bool(self.up_mask[a] >> b & 1)

    def interval_mask(self, a: int, b: int) -> int:
        return self.up_mask[a] & self.down_mask[b]

    def mask_members(self, mask: int):
        return list(_iter_bits(mask))

    def __len__(self):
        return self.n

    def __repr__(self):
        return f"Poset({self.n} elements, {len(self.covers)} covers)"


class Lattice(Poset):
    """Finite lattice: a bounded poset in which any two upper covers of an
    element have a join.  Its meet and join tables are built on first read."""

    def __init__(self, elements, covers):
        super().__init__(elements, covers)
        if not self._covers_join():
            self._tables()  # not a lattice: the pair scan names the first bad pair
        # a lattice has one minimal and one maximal element, so they open
        # and close every linear extension
        self.bottom, self.top = self.topo[0], self.topo[-1]

    def _covers_join(self) -> bool:
        """Whether the poset is a lattice, by Bjoerner, Edelman and Ziegler
        (DCG 1990, Lemma 2.1): a finite bounded poset is one when any two
        upper covers x, y of an element have a join, that is when up(x) &
        up(y) is the up-set of some element.  It is bounded when the first
        element of the linear extension lies below everything and the last
        one above.  (Given the least element, the cover test already forces
        a greatest one, by Newman's lemma; the last element's test is the
        cheaper exit.)"""
        full, up = (1 << self.n) - 1, self.up_mask
        if up[self.topo[0]] != full or self.down_mask[self.topo[-1]] != full:
            return False
        ups = set(up)
        return all(
            up[x] & up[y] in ups for cov in self.upper_covers for x, y in itertools.combinations(cov, 2)
        )

    def _tables(self):
        """The meet of a and b is the element whose down-set is down(a) & down(b),
        if there is one; the join likewise with up-sets.  Raises NotALattice
        on the first pair of indices a <= b that lacks a meet or a join."""
        n, down, up = self.n, self.down_mask, self.up_mask
        by_down = {m: c for c, m in enumerate(down)}
        by_up = {m: c for c, m in enumerate(up)}
        meet = [[0] * n for _ in range(n)]
        join = [[0] * n for _ in range(n)]
        for a in range(n):
            for b in range(a, n):
                m = by_down.get(down[a] & down[b])
                j = by_up.get(up[a] & up[b])
                if m is None or j is None:
                    raise NotALattice(self.labels[a], self.labels[b], "meet" if m is None else "join")
                meet[a][b] = meet[b][a] = m
                join[a][b] = join[b][a] = j
        return meet, join

    # Properties, not __getattr__: a class with __getattr__ makes every
    # attribute read of its instances take CPython's slow path.

    @cached_property
    def _meet_join(self):
        """One scan fills both tables, on the first read of either."""
        return self._tables()

    @property
    def meet_tab(self):
        """meet_tab[a][b]: the index of the meet of a and b."""
        return self._meet_join[0]

    @property
    def join_tab(self):
        """join_tab[a][b]: the index of the join of a and b."""
        return self._meet_join[1]

    def __repr__(self):
        bottom, top = self.labels[self.bottom], self.labels[self.top]
        return f"Lattice({self.n} elements, bottom={bottom!r}, top={top!r})"


class Antichain:
    """An antichain over (mode='over') or under (mode='under') a base element."""

    __slots__ = ("members", "base", "mode")

    def __init__(self, members: frozenset, base, mode: str):
        self.members = members
        self.base = base
        self.mode = mode  # 'over' | 'under'

    def __eq__(self, other):
        if other.__class__ is not Antichain:
            return NotImplemented
        return self.members == other.members and self.base == other.base and self.mode == other.mode

    def __hash__(self):
        return hash((self.members, self.base, self.mode))

    def validate(self, lattice: Lattice):
        if self.mode not in ("over", "under"):
            raise ValueError(f"bad antichain mode {self.mode!r}")
        idx = [lattice.index[m] for m in self.members]
        b = lattice.index[self.base]
        for i, j in itertools.combinations(idx, 2):
            if lattice.leq_i(i, j) or lattice.leq_i(j, i):
                raise ValueError("antichain members must be pairwise incomparable")
        for i in idx:
            if self.mode == "over":
                if not (lattice.leq_i(b, i) and b != i):
                    raise ValueError(f"base must lie strictly below member {lattice.labels[i]!r}")
            else:
                if not (lattice.leq_i(i, b) and b != i):
                    raise ValueError(f"base must lie strictly above member {lattice.labels[i]!r}")


def build_lattice(elements, covers) -> Lattice:
    """Validated lattice from labels and cover pairs (deterministic order)."""
    return Lattice(elements, covers)


# -- JSON interchange --------------------------------------------------------


def lattice_to_json_dict(lat: Lattice) -> dict:
    return {
        "elements": [str(x) for x in lat.labels],
        "covers": [[str(lat.labels[a]), str(lat.labels[b])] for a, b in lat.covers],
    }


def lattice_from_json_dict(data: dict) -> Lattice:
    """The lattice of {"elements": [label, ...], "covers": [[lo, hi], ...]}
    with string labels; ValueError on any other shape."""
    if not isinstance(data, dict):
        raise ValueError("lattice JSON must be an object with 'elements' and 'covers'")
    elements, covers = data.get("elements"), data.get("covers")
    if not isinstance(elements, list) or not all(isinstance(x, str) for x in elements):
        raise ValueError("'elements' must be a list of string labels")
    if not isinstance(covers, list) or not all(
        isinstance(c, list) and len(c) == 2 and all(isinstance(x, str) for x in c) for c in covers
    ):
        raise ValueError("'covers' must be a list of [lower, upper] label pairs")
    return build_lattice(elements, [tuple(c) for c in covers])


def load_lattice(path) -> Lattice:
    with open(path, "r", encoding="utf-8") as fh:
        return lattice_from_json_dict(json.load(fh))


# -- generators ---------------------------------------------------------------


def chain_product(sizes) -> Lattice:
    """Product of chains C_{s} for s in sizes (a divisor lattice), labelled
    'e0'..: element i has the mixed-radix digits of i as coordinates, the
    first size most significant, and its upper covers in coordinate order."""
    taken, n = [], 1
    for s in sizes:  # checked as the product grows: a long list is never multiplied out
        if s < 1:
            raise ValueError("chain sizes must be positive")
        n *= s
        _check_size(n)
        taken.append(s)
    if not taken:
        raise ValueError("chain_product needs at least one chain size")
    strides = [1] * len(taken)  # suffix products: the stride of each coordinate
    for k in range(len(taken) - 1, 0, -1):
        strides[k - 1] = strides[k] * taken[k]
    labels = [f"e{i}" for i in range(n)]
    covers = [
        (labels[i], labels[i + stride])
        for i in range(n)
        for s, stride in zip(taken, strides)
        if i // stride % s < s - 1
    ]
    return build_lattice(labels, covers)


def boolean_lattice(k: int) -> Lattice:
    """B_k as a product of k two-element chains."""
    if k < 1:
        raise ValueError(f"boolean lattice needs k >= 1, got k={k}")
    return chain_product(itertools.repeat(2, k))


def product(l1: Lattice, l2: Lattice) -> Lattice:
    """Componentwise-order product; labels joined with '|'."""
    _check_size(l1.n * l2.n)
    labels = []
    for x in l1.labels:
        for y in l2.labels:
            labels.append(f"{x}|{y}")
    if len(set(labels)) != len(labels):
        raise ValueError("product labels collide; relabel inputs first")
    covers = []
    for i, x in enumerate(l1.labels):
        for j, y in enumerate(l2.labels):
            for a, b in l1.covers:
                if a == i:
                    covers.append((f"{x}|{y}", f"{l1.labels[b]}|{y}"))
            for a, b in l2.covers:
                if a == j:
                    covers.append((f"{x}|{y}", f"{x}|{l2.labels[b]}"))
    return build_lattice(labels, covers)


def order_dual(lat: Lattice) -> Lattice:
    return build_lattice(lat.labels, [(lat.labels[b], lat.labels[a]) for a, b in lat.covers])


# -- antichains ----------------------------------------------------------------


def _extreme(masks, mask: int) -> int:
    """An element v of the nonzero mask with masks[v] & mask == {v}: a minimal
    element for masks = down-sets, a maximal one for up-sets."""
    v = (mask & -mask).bit_length() - 1
    while rest := masks[v] & mask & ~(1 << v):
        v = (rest & -rest).bit_length() - 1
    return v


def support_interval(lat: Lattice, mask):
    """The labels (lo, hi) when mask is the interval [lo, hi], else None (mask
    None included).  Reports read them; the Serre steps and checks compare masks."""
    if not mask:
        return None
    lo, hi = _extreme(lat.down_mask, mask), _extreme(lat.up_mask, mask)
    if lat.interval_mask(lo, hi) != mask:
        return None
    return lat.labels[lo], lat.labels[hi]


def support_antichain(lat: Lattice, mask: int):
    """(lo, members) when mask is the support of an antichain module: mask has
    a minimum lo and up(lo) minus mask is the up-set of the antichain whose
    indices, in increasing order, are members.  Else None."""
    if not mask:
        return None
    lo = _extreme(lat.down_mask, mask)
    if mask & ~lat.up_mask[lo]:
        return None
    outside = lat.up_mask[lo] & ~mask
    members, covered, rest = [], 0, outside
    while rest:
        low = rest & -rest
        rest ^= low
        c = low.bit_length() - 1
        if lat.down_mask[c] & outside == low:
            members.append(c)
            covered |= lat.up_mask[c]
    return (lo, members) if covered == outside else None


def min_complement_antichain(lat: Lattice, ref) -> Antichain:
    """Minimal elements of up(lo) outside [lo, hi], ref the labels (lo, hi) in
    the shape support_interval returns; writes M_[lo,hi] as an antichain
    module over lo."""
    lo_label, hi_label = ref
    lo, hi = lat.index[lo_label], lat.index[hi_label]
    if not lat.leq_i(lo, hi):
        raise ValueError(f"not an interval: {lo_label!r} !<= {hi_label!r}")
    _, members = support_antichain(lat, lat.interval_mask(lo, hi))
    return Antichain(frozenset(lat.labels[c] for c in members), lo_label, "over")


ANTICHAIN_GUARDRAIL = 16


def _subset_joins(base: int, members, join_tab):
    """gamma, the subset-join table of the antichain C = members over base:
    gamma[S] is the join of the members in S, S a bitmask over their
    positions, and the base for the empty subset.  With the meet table for
    join_tab it is the subset-meet table of an antichain under base."""
    gamma = [base] * (1 << len(members))
    for s in range(1, len(gamma)):
        gamma[s] = join_tab[gamma[s & (s - 1)]][members[(s & -s).bit_length() - 1]]
    return gamma


def _is_boolean(gamma, meet_tab) -> bool:
    """Whether the antichain C of the subset-join table gamma is boolean.
    gamma preserves joins by construction; C is boolean iff gamma preserves
    meets, that is iff every gamma(S) is the meet of the coatom joins
    gamma(C - {c}) over c not in S.  Injectivity follows: gamma(S) = gamma(T)
    with c in S - T gives c = c meet gamma(T) = gamma({}) = base, although
    every member lies strictly above the base.  With the tables swapped it is
    the same test in the order dual."""
    full = len(gamma) - 1
    meets = gamma[:]  # meets[s]: meet of gamma(C - {c}) over c not in s
    for s in range(full - 1, -1, -1):
        c = ~s & (s + 1)  # lowest member not in s
        meets[s] = meet_tab[meets[s | c]][gamma[full ^ c]]
    return meets == gamma


def _antichain_gamma(lat: Lattice, ac: Antichain, mode: str, caller: str):
    """The prologue of the label-level antichain functions: checks the mode,
    validates ac and returns its subset-join table (mode 'over') or
    subset-meet table (mode 'under') over the sorted member indices."""
    if ac.mode != mode:
        raise ValueError(f"{caller} expects mode={mode!r}")
    ac.validate(lat)
    if len(ac.members) > ANTICHAIN_GUARDRAIL:
        raise GuardrailExceeded(f"antichain of size {len(ac.members)}")
    members = sorted(lat.index[m] for m in ac.members)
    tab = lat.join_tab if mode == "over" else lat.meet_tab
    return _subset_joins(lat.index[ac.base], members, tab)


def is_boolean_antichain(lat: Lattice, ac: Antichain) -> bool:
    """No verdict calls it; perfbench's tracer reads it at startup, as it
    does min_complement_antichain."""
    return _is_boolean(_antichain_gamma(lat, ac, "over", "is_boolean_antichain"), lat.meet_tab)


def _cliques(compat, allowed):
    """Masks of all sets of pairwise compatible indices inside the mask
    allowed (j in compat[i] when i and j are compatible), the empty set
    included, in depth-first order: each set is extended by the later
    allowed indices compatible with all its members."""
    out = []

    def extend(start, mask, allowed):
        out.append(mask)
        for i in _iter_bits(allowed & ~((1 << start) - 1)):
            extend(i + 1, mask | 1 << i, allowed & compat[i])

    extend(0, 0, allowed)
    return out


# -- poset isomorphism (backtracking with invariant refinement) -----------------


def _refine_colors(lat: Lattice):
    colors = [
        (
            bin(lat.down_mask[i]).count("1"),
            bin(lat.up_mask[i]).count("1"),
            len(lat.lower_covers[i]),
            len(lat.upper_covers[i]),
        )
        for i in range(lat.n)
    ]
    for _ in range(lat.n):
        new = []
        for i in range(lat.n):
            up = tuple(sorted(colors[j] for j in lat.upper_covers[i]))
            dn = tuple(sorted(colors[j] for j in lat.lower_covers[i]))
            new.append((colors[i], up, dn))
        canon = {c: k for k, c in enumerate(sorted(set(new)))}
        new_ids = [canon[c] for c in new]
        if len(set(new_ids)) == len(set(colors)):
            return new_ids
        colors = new_ids
    return colors


def poset_isomorphism(l1: Lattice, l2: Lattice):
    """A label map realizing an isomorphism of the underlying posets, or None."""
    if l1.n != l2.n or len(l1.covers) != len(l2.covers):
        return None
    c1, c2 = _refine_colors(l1), _refine_colors(l2)
    if sorted(c1) != sorted(c2):
        return None
    cands = {i: [j for j in range(l2.n) if c2[j] == c1[i]] for i in range(l1.n)}
    order = sorted(range(l1.n), key=lambda i: (len(cands[i]), i))
    assign = [None] * l1.n
    used = [False] * l2.n
    cov1 = set(l1.covers)
    cov2 = set(l2.covers)

    def ok(i, j):
        for k in range(l1.n):
            m = assign[k]
            if m is None:
                continue
            if ((k, i) in cov1) != ((m, j) in cov2):
                return False
            if ((i, k) in cov1) != ((j, m) in cov2):
                return False
        return True

    # depth-first over the positions of `order`; nxt[pos] is the index in
    # cands[order[pos]] of the next candidate to try there
    nxt = [0] * l1.n
    pos = 0
    while pos < l1.n:
        i = order[pos]
        if assign[i] is not None:  # back from a dead end: undo this choice
            used[assign[i]] = False
            assign[i] = None
        cs = cands[i]
        k = nxt[pos]
        while k < len(cs) and (used[cs[k]] or not ok(i, cs[k])):
            k += 1
        if k == len(cs):
            if pos == 0:
                return None
            nxt[pos] = 0
            pos -= 1
            continue
        assign[i] = cs[k]
        used[cs[k]] = True
        nxt[pos] = k + 1
        pos += 1
    return {l1.labels[i]: l2.labels[assign[i]] for i in range(l1.n)}
