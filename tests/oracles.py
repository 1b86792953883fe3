"""Reference implementations that the tests compare serrelab against, and the
label-level helpers the tests are written in.  No CLI verdict runs any of it:
the package works on indices, bitmasks and support masks, and these are the
definitions and the dense linear algebra it is checked against.  The module
is held to the package's exactness rules (tests/test_exactness.py)."""

from __future__ import annotations

import functools
import itertools
from collections import namedtuple
from dataclasses import dataclass

from serrelab import linalg
from serrelab.derived import ScalarComplex, _boundary, _subsets, cohomology
from serrelab.errors import GuardrailExceeded, LatticeMismatch, SerrelabError
from serrelab.fields import QQ
from serrelab.geom import _bits, _check_n, _chord_table, _is_tree
from serrelab.lattice import (
    Antichain,
    Lattice,
    _antichain_gamma,
    _cliques,
    _is_boolean,
    _iter_bits,
    build_lattice,
)
from serrelab.reps import LatticeRep, support_module
from serrelab.typea import DynkinQuiver, _engine

# -- lattices -----------------------------------------------------------------

# A closed interval [lo, hi] by its labels.  It compares equal to the plain
# (lo, hi) pairs of support_interval and find_interval_iso.
IntervalRef = namedtuple("IntervalRef", "lo hi")


def chain(k: int) -> Lattice:
    """Chain with k elements labelled '0'..'k-1'."""
    if k < 1:
        raise ValueError("chain needs at least one element")
    labels = [str(i) for i in range(k)]
    return build_lattice(labels, [(labels[i], labels[i + 1]) for i in range(k - 1)])


def leq(lat: Lattice, a, b) -> bool:
    return lat.leq_i(lat.index[a], lat.index[b])


def meet(lat: Lattice, a, b):
    return lat.labels[lat.meet_tab[lat.index[a]][lat.index[b]]]


def join(lat: Lattice, a, b):
    return lat.labels[lat.join_tab[lat.index[a]][lat.index[b]]]


def interval_labels(lat: Lattice, ref: IntervalRef):
    lo, hi = lat.index[ref.lo], lat.index[ref.hi]
    if not lat.leq_i(lo, hi):
        raise ValueError(f"not an interval: {ref.lo!r} is not below {ref.hi!r}")
    return [lat.labels[i] for i in lat.mask_members(lat.interval_mask(lo, hi))]


def is_dual_boolean_antichain(lat: Lattice, ac: Antichain) -> bool:
    """The same test in the order dual, for antichains under a base: subsets
    go to meets, unions to meets and intersections to joins."""
    gamma = _antichain_gamma(lat, ac, "under", "is_dual_boolean_antichain")
    return _is_boolean(gamma, lat.join_tab)


def boolean_partner(lat: Lattice, ac: Antichain) -> Antichain:
    """The paired dual antichain of the boolean sublattice spanned by `ac`:
    coatom joins under the full join."""
    gamma = _antichain_gamma(lat, ac, "over", "boolean_partner")
    full = len(gamma) - 1
    dual = frozenset(lat.labels[gamma[full ^ (1 << j)]] for j in range(full.bit_length()))
    return Antichain(dual, lat.labels[gamma[full]], "under")


def all_antichains_over(lat: Lattice, base):
    """Every antichain strictly above `base`, the empty one included: the
    cliques of the incomparability relation inside up(base) - base."""
    b = lat.index[base]
    incomparable = [~(up | down) for up, down in zip(lat.up_mask, lat.down_mask)]
    return [
        Antichain(frozenset(lat.labels[c] for c in _iter_bits(mask)), base, "over")
        for mask in _cliques(incomparable, lat.up_mask[b] & ~(1 << b))
    ]


@dataclass(frozen=True)
class Classification:
    is_distributive: bool
    is_semidistributive: bool
    is_divisor_lattice: bool
    is_boolean: bool
    chain_sizes: tuple  # sizes of chain factors when divisor, else ()


def _join_irreducibles(lat: Lattice):
    return [i for i in range(lat.n) if len(lat.lower_covers[i]) == 1]


def _is_distributive(lat: Lattice) -> bool:
    ji = _join_irreducibles(lat)
    phi = []
    for x in range(lat.n):
        m = 0
        for k, j in enumerate(ji):
            if lat.leq_i(j, x):
                m |= 1 << k
        phi.append(m)
    if len(set(phi)) != lat.n:
        return False
    for a in range(lat.n):
        for b in range(a + 1, lat.n):
            if phi[lat.join_tab[a][b]] != phi[a] | phi[b]:
                return False
    return True


def _is_semidistributive(lat: Lattice) -> bool:
    n = lat.n
    for tab, other in ((lat.meet_tab, lat.join_tab), (lat.join_tab, lat.meet_tab)):
        for a in range(n):
            groups = {}
            for b in range(n):
                groups.setdefault(tab[a][b], []).append(b)
            for v, grp in groups.items():
                for b, c in itertools.combinations(grp, 2):
                    if tab[a][other[b][c]] != v:
                        return False
    return True


def _chain_factors(lat: Lattice):
    """Sizes of the chain factors of a distributive lattice, or None when it is
    not a product of chains.  By Birkhoff's theorem a distributive lattice is
    the lattice of down-sets of its join-irreducibles J, so it is a product of
    chains iff J splits into chains with no comparabilities between them; a
    chain of length k in J gives a factor of size k + 1."""
    ji = _join_irreducibles(lat)
    ji_mask = sum(1 << j for j in ji)
    members = {}  # elements of J comparable to j -> how many j share that set
    for j in ji:
        comparable = (lat.up_mask[j] | lat.down_mask[j]) & ji_mask
        members[comparable] = members.get(comparable, 0) + 1
    sizes = {m: bin(m).count("1") for m in members}
    if any(sizes[m] != k for m, k in members.items()):
        return None
    return tuple(sorted(k + 1 for k in sizes.values()))


def classify(lat: Lattice) -> Classification:
    """Structural classification; the divisor test is Birkhoff's criterion on
    the join-irreducibles."""
    distr = _is_distributive(lat)
    semi = _is_semidistributive(lat)
    # non-distributive lattices are never chain products
    chain_sizes = _chain_factors(lat) if distr else None
    divisor = chain_sizes is not None
    boolean = divisor and all(s == 2 for s in chain_sizes)
    return Classification(distr, semi, divisor, boolean, chain_sizes or ())


# -- representations ----------------------------------------------------------


def interval_module(lattice: Lattice, ref: IntervalRef, field=QQ) -> LatticeRep:
    lo, hi = lattice.index[ref.lo], lattice.index[ref.hi]
    if not lattice.leq_i(lo, hi):
        raise ValueError(f"not an interval: {ref.lo!r} !<= {ref.hi!r}")
    return support_module(lattice, lattice.interval_mask(lo, hi), field)


def simple_module(lattice: Lattice, a, field=QQ) -> LatticeRep:
    return interval_module(lattice, IntervalRef(a, a), field)


def projective_module(lattice: Lattice, a, field=QQ) -> LatticeRep:
    return interval_module(lattice, IntervalRef(a, lattice.labels[lattice.top]), field)


def injective_module(lattice: Lattice, a, field=QQ) -> LatticeRep:
    return interval_module(lattice, IntervalRef(lattice.labels[lattice.bottom], a), field)


def antichain_module(lattice: Lattice, ac: Antichain, field=QQ) -> LatticeRep:
    """Support {y >= base : c !<= y for all members c}, identity maps."""
    if ac.mode != "over":
        raise ValueError("antichain_module expects mode='over'")
    ac.validate(lattice)
    supp = lattice.up_mask[lattice.index[ac.base]]
    for c in ac.members:
        supp &= ~lattice.up_mask[lattice.index[c]]
    return support_module(lattice, supp, field)


def dual_antichain_module(lattice: Lattice, ac: Antichain, field=QQ) -> LatticeRep:
    """Support {y <= base : y !<= d for all members d}, identity maps."""
    if ac.mode != "under":
        raise ValueError("dual_antichain_module expects mode='under'")
    ac.validate(lattice)
    supp = lattice.down_mask[lattice.index[ac.base]]
    for d in ac.members:
        supp &= ~lattice.down_mask[lattice.index[d]]
    return support_module(lattice, supp, field)


@dataclass
class RepMorphism:
    """Componentwise linear map between representations of one lattice."""

    source: LatticeRep
    target: LatticeRep
    components: list


def _hom_system(M: LatticeRep, N: LatticeRep):
    """Rows of the commuting-square system; unknowns are the entries of the
    components f_v in element order, row-major."""
    if M.lattice is not N.lattice:
        raise LatticeMismatch("hom endpoints live over different lattices")
    lat = M.lattice
    offs = []
    t = 0
    for v in range(lat.n):
        offs.append(t)
        t += N.dims[v] * M.dims[v]
    nvars = t
    rows = []
    for (a, b) in lat.covers:
        Mab, Nab = M.maps[(a, b)], N.maps[(a, b)]
        for i in range(N.dims[b]):
            for j in range(M.dims[a]):
                row = [0] * nvars
                # (f_b Mab)_{ij} - (Nab f_a)_{ij} = 0
                for l in range(M.dims[b]):
                    if Mab[l][j]:
                        row[offs[b] + i * M.dims[b] + l] += Mab[l][j]
                for k in range(N.dims[a]):
                    if Nab[i][k]:
                        row[offs[a] + k * M.dims[a] + j] -= Nab[i][k]
                rows.append(row)
    return rows, nvars, offs


def hom_basis(M: LatticeRep, N: LatticeRep):
    """Basis of Hom(M, N) in echelon order."""
    rows, nvars, offs = _hom_system(M, N)
    if nvars == 0:
        return []
    basis = linalg.kernel_basis(rows, nvars, M.field)
    lat = M.lattice
    out = []
    for vec in basis:
        comps = []
        for v in range(lat.n):
            comp = [
                [vec[offs[v] + i * M.dims[v] + j] for j in range(M.dims[v])]
                for i in range(N.dims[v])
            ]
            comps.append(comp)
        out.append(RepMorphism(M, N, comps))
    return out


def hom_dim(M: LatticeRep, N: LatticeRep) -> int:
    rows, nvars, _ = _hom_system(M, N)
    if nvars == 0:
        return 0
    return nvars - linalg.rank(rows, nvars, M.field)


def direct_sum(reps, field=None) -> tuple:
    """Direct sum; returns (rep, offsets) with offsets[s][v] the coordinate
    offset of summand s at element v."""
    reps = list(reps)
    if not reps:
        raise ValueError("direct_sum of nothing")
    lat = reps[0].lattice
    field = field or reps[0].field
    n = lat.n
    offsets = []
    dims = [0] * n
    for r in reps:
        if r.lattice is not lat:
            raise LatticeMismatch("direct sum over different lattices")
        offsets.append(dims[:])
        dims = [d + rd for d, rd in zip(dims, r.dims)]
    maps = {}
    for (a, b) in lat.covers:
        m = linalg.zeros(dims[b], dims[a])
        for s, r in enumerate(reps):
            rm = r.maps[(a, b)]
            ob, oa = offsets[s][b], offsets[s][a]
            for i in range(r.dims[b]):
                for j in range(r.dims[a]):
                    m[ob + i][oa + j] = rm[i][j]
        maps[(a, b)] = m
    return LatticeRep(lat, dims, maps, field, validate=False), offsets


ISO_GRID_GUARDRAIL = 1_000_000


def is_isomorphic(M: LatticeRep, N: LatticeRep) -> bool:
    """Deterministic isomorphism test via invertible-combination search over
    a Schwartz-Zippel grid of hom-basis coefficients."""
    if M.lattice is not N.lattice:
        raise LatticeMismatch("iso test over different lattices")
    if M.dims != N.dims:
        return False
    if M.is_zero():
        return True
    basis = hom_basis(M, N)
    if not basis:
        return False
    field = M.field
    dim_total = sum(M.dims)

    def invertible(coeffs):
        for v in range(M.lattice.n):
            d = M.dims[v]
            if d == 0:
                continue
            comb = linalg.zeros(d, d)
            for c, f in zip(coeffs, basis):
                if not c:
                    continue
                fv = f.components[v]
                for i in range(d):
                    for j in range(d):
                        comb[i][j] = comb[i][j] + c * fv[i][j]
            if linalg.rank(comb, d, field) != d:
                return False
        return True

    m = len(basis)
    for k in range(m):  # single basis elements first
        coeffs = [0] * m
        coeffs[k] = 1
        if invertible(coeffs):
            return True
    grid = dim_total + 1
    if grid ** m > ISO_GRID_GUARDRAIL:
        raise GuardrailExceeded(f"iso search grid {grid}^{m} too large")
    values = [field.of(t) for t in range(grid)]
    for coeffs in itertools.product(values, repeat=m):
        if invertible(coeffs):
            return True
    return False


# -- Koszul (co)resolutions ------------------------------------------------------


def _koszul(lattice: Lattice, gamma, kind: str, field) -> ScalarComplex:
    """The Koszul complex on the subset-join table (kind 'proj') or the
    subset-meet table (kind 'inj') gamma of an antichain C: one summand at
    gamma(S) per subset S of C, in degree -|S| for 'proj' and |S| for 'inj',
    maps from _boundary, transposed for a coresolution, which runs upward."""
    k = (len(gamma) - 1).bit_length()
    by_size, d = _subsets(k)[0], _boundary(k)
    step = -1 if kind == "proj" else 1
    degrees = {step * i: [gamma[s] for s in subs] for i, subs in enumerate(by_size)}
    if kind == "proj":
        diffs = {-i: d[i] for i in range(1, k + 1)}
    else:
        diffs = {i - 1: linalg.transpose(d[i], len(by_size[i])) for i in range(1, k + 1)}
    return ScalarComplex(lattice, kind, degrees, diffs, field)


def _check_resolves(cx: ScalarComplex, target: LatticeRep, what: str):
    """The complex is exact away from degree 0, where its cohomology is
    isomorphic to target."""
    for d, h in cohomology(cx).items():
        if d == 0:
            if not is_isomorphic(h, target):
                raise SerrelabError(f"{what} does not resolve the module")
        elif not h.is_zero():
            raise SerrelabError(f"{what} not exact in degree {d}")


def antichain_resolution(lattice: Lattice, ac: Antichain, field=QQ) -> ScalarComplex:
    """Closed-form Koszul resolution of the antichain module: degree -i holds
    one P_{join of S} per i-subset S, signs by the Koszul rule."""
    gamma = _antichain_gamma(lattice, ac, "over", "antichain_resolution")
    cx = _koszul(lattice, gamma, "proj", field)
    _check_resolves(cx, antichain_module(lattice, ac, field), "antichain resolution")
    return cx


def antichain_coresolution(lattice: Lattice, ac: Antichain, field=QQ) -> ScalarComplex:
    """Injective Koszul coresolution of a dual antichain module, degrees 0..|D|."""
    gamma = _antichain_gamma(lattice, ac, "under", "antichain_coresolution")
    cx = _koszul(lattice, gamma, "inj", field)
    _check_resolves(cx, dual_antichain_module(lattice, ac, field), "antichain coresolution")
    return cx


# -- type A: Hom, Ext and the structure tables from their definitions ---------------


def interval(n: int, lo: int, hi: int):
    """The interval module of the vertices lo..hi (counted from 1) of an A_n
    quiver, as the 0/1 dimension vector that is its root."""
    return tuple(int(lo <= v <= hi) for v in range(1, n + 1))


def _hom_space(q: DynkinQuiver, A, B):
    """(dim, witness) for Hom(A, B) between interval modules by a linear solve
    over QQ: the scalars f_v on the common vertices with f_t a_st = b_st f_s
    on every arrow s -> t.  witness maps each common vertex to the scalar of
    a basis morphism."""
    common = [v for v in range(q.n) if A[v] and B[v]]
    if not common:
        return 0, None
    pos = {v: k for k, v in enumerate(common)}
    rows = []
    for s, t in q.arrows:
        row = [0] * len(common)
        if A[s] and A[t] and t in pos:
            row[pos[t]] += 1
        if B[s] and B[t] and s in pos:
            row[pos[s]] -= 1
        if any(row):
            rows.append(row)
    basis = linalg.kernel_basis(rows, len(common), QQ) if rows else linalg.identity(len(common))
    if len(basis) > 1:
        raise SerrelabError("hom space between type-A indecomposables exceeds dimension 1")
    if not basis:
        return 0, None
    return 1, {v: basis[0][pos[v]] for v in common}


class QuiverTables:
    """The indecomposables of an A_n quiver q, the intervals in (lo, hi)
    order as 0/1 dimension vectors, and the tables between them, from their
    definitions: Hom by a linear solve per pair, Ext^1 from it and the Euler
    form, and quotients, submodules, kernels and cokernels from the image of
    the basis hom.

    h[i][j], e[i][j]: dim Hom(i, j) and dim Ext^1(i, j).
    quot_mask[i]: the quotients of i; sub_mask[j]: the submodules of j.
    kerdec[(i, j)], cokerdec[(i, j)]: the summands of the kernel and the
    cokernel of the basis hom i -> j.
    mid_pairs[s]: (q, E) per indecomposable middle of 0 -> S -> E -> Q -> 0.
    wide_pairs[s]: mid_pairs[s] with the kernel and cokernel summands added.
    proj_mask: the projectives."""

    def __init__(self, q: DynkinQuiver):
        n = self.n = q.n
        self.indecs = [interval(n, lo, hi) for lo in range(1, n + 1) for hi in range(lo, n + 1)]
        self.idx = {m: i for i, m in enumerate(self.indecs)}
        N = self.N = len(self.indecs)
        self.h = [[0] * N for _ in range(N)]
        self.e = [[0] * N for _ in range(N)]
        witness = {}
        for i, A in enumerate(self.indecs):
            for j, B in enumerate(self.indecs):
                self.h[i][j], w = _hom_space(q, A, B)
                if w is not None:
                    witness[(i, j)] = w
                euler = sum(a * b for a, b in zip(A, B))
                euler -= sum(A[s] * B[t] for s, t in q.arrows)
                self.e[i][j] = self.h[i][j] - euler
                if self.e[i][j] < 0:
                    raise SerrelabError("negative Ext dimension")
        self.quot_mask, self.sub_mask, self.kerdec, self.cokerdec = [0] * N, [0] * N, {}, {}
        for (i, j), w in witness.items():
            A, B = self.indecs[i], self.indecs[j]
            supp_a, supp_b = {v for v in range(n) if A[v]}, {v for v in range(n) if B[v]}
            image = {v for v in supp_a & supp_b if w[v]}
            if image == supp_b:
                self.quot_mask[i] |= 1 << j
            if image == supp_a:
                self.sub_mask[j] |= 1 << i
            self.kerdec[(i, j)] = self._runs(supp_a - image)
            self.cokerdec[(i, j)] = self._runs(supp_b - image)
        # 0 -> S -> E -> Q -> 0 with E indecomposable: S and Q adjacent runs of E
        # (disjoint, with an interval as their sum) and the basis hom S -> E
        # injective
        self.mid_pairs = [[] for _ in range(N)]
        self.wide_pairs = [[] for _ in range(N)]
        for si, S in enumerate(self.indecs):
            for qi, Qm in enumerate(self.indecs):
                mid = 0
                ei = self.idx.get(tuple(a + b for a, b in zip(S, Qm)))
                if ei is not None:
                    w = witness.get((si, ei))
                    if w is not None and all(w[v] for v in range(n) if S[v]):
                        mid = 1 << ei
                        self.mid_pairs[si].append((qi, mid))
                wide = mid | self.kerdec.get((si, qi), 0) | self.cokerdec.get((si, qi), 0)
                if wide:
                    self.wide_pairs[si].append((qi, wide))
        # the projective at v spans the vertices reachable from v along the arrows
        fwd = {v: [] for v in range(n)}
        for s, t in q.arrows:
            fwd[s].append(t)
        self.proj_mask = 0
        for v in range(n):
            seen, stack = {v}, [v]
            while stack:
                for y in fwd[stack.pop()]:
                    if y not in seen:
                        seen.add(y)
                        stack.append(y)
            self.proj_mask |= 1 << self.idx[interval(n, min(seen) + 1, max(seen) + 1)]

    def _runs(self, vertex_set):
        """Mask of the maximal runs of a vertex set."""
        out, run = 0, None
        for v in range(self.n + 1):
            if v < self.n and v in vertex_set:
                run = v if run is None else run
            elif run is not None:
                out |= 1 << self.idx[interval(self.n, run + 1, v)]
                run = None
        return out


@functools.lru_cache(maxsize=None)
def quiver_tables(q: DynkinQuiver) -> QuiverTables:
    return QuiverTables(q)


def close(mask, unary, pairs):
    """Least superset of mask holding unary[i] (unless unary is None) for
    every member i, and r for every member pair (i, j) with (j, r) in
    pairs[i]: with QuiverTables' tables the torsion (quot_mask, mid_pairs),
    torsion-free (sub_mask, mid_pairs) and wide (None, wide_pairs) closures."""
    m = mask
    while True:
        x = m
        for i in _iter_bits(m):
            if unary is not None:
                x |= unary[i]
            for j, r in pairs[i]:
                if m >> j & 1:
                    x |= r
        if x == m:
            return m
        m = x


# -- the engine's closures by bit walks ------------------------------------------


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


def bit_walk_closures(eng, mask):
    """The engine's closures and member filters of mask, and the Hom-or-Ext^1
    targets of its members (the `bad` mask of the 2-cluster pairs), by name,
    each one a walk over the bits of mask through the engine's rows: the
    oracle of the engine's byte tables."""
    full = eng.full_mask
    members = list(_iter_bits(mask))
    # orthogonal: neither Hom nor Ext^1 is nonzero
    orth_out = [full & ~(h | e) for h, e in zip(eng.hom_out, eng.ext_out)]
    orth_in = [full & ~(h | e) for h, e in zip(eng.hom_in, eng.ext_in)]
    return {
        "perp_from": full & ~_union(eng.hom_out, mask),
        "perp_into": full & ~_union(eng.hom_in, mask),
        "wide_closure": _meet(orth_in, _meet(orth_out, mask, full), full),
        "simples_of": sum(1 << x for x in members if not mask & eng.below[x]),
        "ext_injectives_in": sum(1 << x for x in members if not eng.ext_in[x] & mask),
        "ext_projectives_in": sum(1 << x for x in members if not eng.ext_out[x] & mask),
        "hom_ext_out": _union(eng.hom_out, mask) | _union(eng.ext_out, mask),
    }


# -- type A: masks read as sets of indecomposables ------------------------------------
#
# eng is an engine or a QuiverTables: both list the indecomposables in the
# same (lo, hi) order, so their masks agree.


def members_of(eng, mask):
    return frozenset(eng.indecs[i] for i in _iter_bits(mask))


def mask_of(eng, members):
    return sum(1 << eng.idx[x] for x in set(members))


def interval_members(eng, iv):
    return [m for m in eng.tors_masks if iv.lo & m == iv.lo and m & iv.hi == m]


def serre_perm_inverse(eng, iv):
    lo = iv.hi & eng.perp_into(iv.w_tors)
    hi = eng.perp_into(iv.t_tors)
    target = eng.mutable_intervals.get((lo, hi))
    if target is None:
        raise SerrelabError("inverse Serre permutation left the set of mutable intervals")
    return target


def almost_triples(eng):
    """2-rigid triples with n-1 summands, with supp allowed to be any
    eligible subset of the right size."""
    out = set()
    for t_tors, t_free, size, elig in eng._orthogonal_pairs(eng.n - 1):
        for comb in itertools.combinations(_iter_bits(elig), eng.n - 1 - size):
            out.add((t_free, t_tors, sum(1 << p for p in comb)))
    return sorted(out)


def completions(eng, almost):
    t_free, t_tors, t_supp = almost
    found = []
    for t in eng.cluster_triples:
        if (
            t.t_free & t_free == t_free
            and t.t_tors & t_tors == t_tors
            and t.t_supp & t_supp == t_supp
        ):
            extra = (
                bin(t.t_free ^ t_free).count("1")
                + bin(t.t_tors ^ t_tors).count("1")
                + bin(t.t_supp ^ t_supp).count("1")
            )
            if extra == 1:
                found.append(t)
    return found


def indec_rep(q: DynkinQuiver, m):
    """dims per vertex and per-arrow 0/1 scalars of the interval module m."""
    amaps = {}
    for k, (s, t) in enumerate(q.arrows):
        amaps[k] = 1 if m[s] and m[t] else 0
    return {"dims": m, "arrows": q.arrows, "arrow_scalars": amaps}


def _as_indices(tab, M):
    """One indecomposable (a root tuple) or a list of them."""
    if isinstance(M, tuple):
        return [tab.idx[M]]
    return [tab.idx[m] for m in M]


def hom_dim_q(q: DynkinQuiver, M, N) -> int:
    tab = quiver_tables(q)
    return sum(tab.h[i][j] for i in _as_indices(tab, M) for j in _as_indices(tab, N))


def ext1_dim_q(q: DynkinQuiver, M, N) -> int:
    tab = quiver_tables(q)
    return sum(tab.e[i][j] for i in _as_indices(tab, M) for j in _as_indices(tab, N))


def quotients_of(q: DynkinQuiver, m):
    tab = quiver_tables(q)
    return members_of(tab, tab.quot_mask[tab.idx[m]])


def subs_of(q: DynkinQuiver, m):
    tab = quiver_tables(q)
    return members_of(tab, tab.sub_mask[tab.idx[m]])


def torsion_classes(q: DynkinQuiver):
    eng = _engine(q)
    return [members_of(eng, m) for m in eng.tors_masks]


def wide_subcats(q: DynkinQuiver):
    eng = _engine(q)
    return [members_of(eng, m) for m in eng.wide_subcats()]


def a_of(q: DynkinQuiver, members):
    """a(T) of a torsion class, the associated wide subcategory."""
    eng = _engine(q)
    mask = mask_of(eng, members)
    if mask not in eng.pos:
        raise ValueError("a_of expects a torsion class")
    return members_of(eng, eng.a_tors[mask])


def a_of_torsionfree(q: DynkinQuiver, members):
    """a(F) of a torsion-free class, the cogen-side dual."""
    eng = _engine(q)
    fmask = mask_of(eng, members)
    tmask = eng.perp_into(fmask)
    if tmask not in eng.pos or eng.perp_from(tmask) != fmask:
        raise ValueError("a_of_torsionfree expects a torsion-free class")
    return members_of(eng, eng.a_free[tmask])


def gen(q: DynkinQuiver, members):
    eng = _engine(q)
    return members_of(eng, eng.torsion_closed(mask_of(eng, members)))


def cogen(q: DynkinQuiver, members):
    """The least torsion-free class holding members."""
    tab = quiver_tables(q)
    return members_of(tab, close(mask_of(tab, members), tab.sub_mask, tab.mid_pairs))


def edge_label(q: DynkinQuiver, lo_members, hi_members):
    """The unique indecomposable in T^{perp_0} cap T' for a cover T <. T'."""
    eng = _engine(q)
    lo = mask_of(eng, lo_members)
    hi = mask_of(eng, hi_members)
    cand = eng.perp_from(lo) & hi
    if bin(cand).count("1") != 1:
        raise SerrelabError("edge label is not unique")
    return eng.indecs[cand.bit_length() - 1]


# -- polygons: chord sets checked and turned into masks ------------------------------


def _norm_edges(edges):
    return frozenset((a, b) if a < b else (b, a) for a, b in edges)


def _mask_of(p: int, chords) -> int:
    """The mask of chords, pairs of distinct vertices of the p-gon."""
    bit = _chord_table(p).bit
    mask = 0
    for a, b in chords:
        if a == b or not (0 <= a < p and 0 <= b < p):
            raise ValueError(f"({a}, {b}) is no chord of the {p}-gon")
        mask |= bit[a][b]
    return mask


def noncrossing(p: int, mask: int) -> bool:
    """No two chords of mask cross: no chord's crossing mask meets mask."""
    cross = _chord_table(p).cross
    return not any(cross[k] & mask for k in _bits(mask))


def make_tree(n: int, edges) -> int:
    """The mask of a noncrossing spanning tree of the (n+2)-gon."""
    _check_n(n)  # the chord table grows as p^2 ints of up to p^2 / 2 bits
    p = n + 2
    es = _norm_edges(edges)
    mask = _mask_of(p, es)
    if not noncrossing(p, mask):
        raise ValueError("edges cross")
    if not _is_tree(p, es):
        raise ValueError("edges do not form a spanning tree")
    return mask


def make_quad(n: int, diagonals) -> int:
    """The mask of a quadrangulation of the 2(n+2)-gon."""
    _check_n(n)
    p = 2 * (n + 2)
    ds = _norm_edges(diagonals)
    mask = _mask_of(p, ds)
    for a, b in ds:
        if (b - a) % p in (1, p - 1):
            raise ValueError("boundary edges are not quadrangulation diagonals")
        if (a + b) % 2 == 0:
            raise ValueError("diagonals must connect vertices of opposite parity")
    if not noncrossing(p, mask):
        raise ValueError("diagonals cross")
    if len(ds) != n:
        raise ValueError(f"need exactly {n} diagonals")
    return mask
