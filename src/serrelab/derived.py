"""Minimal projective resolutions, the Nakayama functor on complexes of
projectives, cohomology, and the derived Serre functor with orbit
bookkeeping.  The Serre functor of an antichain module with a boolean
antichain has a closed form on support bitmasks.  Every other small enough
antichain module goes through its Koszul resolution, whose Nakayama image at
an element x is the relative chain complex of the simplicial complex
Delta_x = {S : x !<= gamma(S)}: ranks of one shared simplex boundary are
taken once per distinct pattern of summands, with no complex or module
built; a non-stalk image comes back as dimension vectors, an antichain module
as a mask.  The minimal resolution is their oracle, and the one fallback.
It works in the coordinates of its projective sums: its syzygies are
subspaces, its generators the columns of its differentials, and the
cohomology of its Nakayama image reads each term at v as the summands
present there, with cover maps that reindex; no term module is built.  The
Koszul (co)resolutions built as complexes are the tests' oracles
(tests/oracles.py).

Degree convention: projective resolutions live in degrees <= 0 with the
resolved module in degree 0; a Serre image concentrated in degree -k is
reported as shift +k.
"""

from __future__ import annotations

import functools
import itertools

from . import linalg
from .errors import MaxStepsExceeded, NotAComplex, SerrelabError
from .fields import QQ
from .lattice import (
    Lattice,
    _is_boolean,
    _iter_bits,
    _subset_joins,
    default_max_steps,
    support_antichain,
    support_interval,
)
from .reps import LatticeRep, support_module, thin_support


class StalkResult:
    """A Serre image concentrated in one degree: rep[shift].

    support is the support mask when the image is isomorphic to the module
    with identity maps on it, as every closed-form image and every recognised
    antichain module is; rep is then built from the mask on first access.
    Orbits and checks compare that mask; only a report reads an interval's
    labels off it (support_interval).  rep is one
    representative of the isomorphism class of the image; the closed form and
    the oracle may return different bases of the same class."""

    def __init__(self, lattice: Lattice, shift: int, support, rep=None, field=QQ):
        self.lattice, self.shift, self.support, self.field = lattice, shift, support, field
        self._rep = rep

    @property
    def rep(self) -> LatticeRep:
        if self._rep is None:
            self._rep = support_module(self.lattice, self.support, self.field)
        return self._rep

    def dimension_vector(self):
        if self.support is None:
            return list(self._rep.dims)
        return [self.support >> v & 1 for v in range(self.lattice.n)]


class GeneralComplexResult:
    """The dimension vector of each nonzero degree of an image spread over
    several degrees (not Serre formal here)."""

    __slots__ = ("cohomology",)

    def __init__(self, cohomology):
        self.cohomology = cohomology


class SerreOrbit:
    __slots__ = ("start", "steps", "period", "total_shift", "failure")

    def __init__(self, start, steps, period, total_shift, failure=None):
        self.start = start
        self.steps = steps
        self.period = period  # None when the orbit fails
        self.total_shift = total_shift  # None when the orbit fails
        self.failure = failure  # the GeneralComplexResult that stopped the orbit, or None

    def to_json_dict(self):
        return {
            "start": str(self.start),
            "steps": [
                {
                    "dimension_vector": s.dimension_vector(),
                    "shift": s.shift,
                    "interval": list(map(str, iv)) if iv else None,
                }
                for s in self.steps
                for iv in [support_interval(s.lattice, s.support)]
            ],
            "period": self.period,
            "total_shift": self.total_shift,
            "serre_formal": self.failure is None,
        }


class ScalarComplex:
    """Complex of indecomposable projectives (kind='proj') or injectives
    (kind='inj') with scalar-block differentials.

    degrees: dict degree -> list of element indices (one per summand);
    diffs: dict d -> matrix of scalars mapping degree d to degree d+1, with
    rows indexed by the summands of degree d+1, reduced into the field's
    canonical scalars at construction.  A block may be nonzero only when the
    target label lies below the source label, which is exactly when the
    canonical map between the corresponding indecomposables exists.
    """

    def __init__(self, lattice: Lattice, kind: str, degrees, diffs, field=QQ, minimal=False):
        if kind not in ("proj", "inj"):
            raise ValueError("kind must be 'proj' or 'inj'")
        self.lattice = lattice
        self.kind = kind
        self.field = field
        self.degrees = {d: list(v) for d, v in degrees.items() if v}
        self.diffs = {d: [[field.of(x) for x in row] for row in m] for d, m in diffs.items()}
        self.minimal = minimal
        self._validate()

    def _validate(self):
        lat = self.lattice
        for d, mat in self.diffs.items():
            src = self.degrees.get(d, [])
            tgt = self.degrees.get(d + 1, [])
            if len(mat) != len(tgt) or (mat and len(mat[0]) != len(src)):
                raise ValueError(f"differential at degree {d} has wrong shape")
            for i, t in enumerate(tgt):
                for j, s in enumerate(src):
                    if mat[i][j] and not lat.leq_i(t, s):
                        raise ValueError(
                            "nonzero block where no canonical map exists: "
                            f"{lat.labels[t]!r} !<= {lat.labels[s]!r}"
                        )
            if self.minimal:
                for i, t in enumerate(tgt):
                    for j, s in enumerate(src):
                        if t == s and mat[i][j]:
                            raise SerrelabError("split summand in a minimal complex")
        # d o d = 0 as plain scalar matrices (label bookkeeping is implied)
        for d in self.diffs:
            if d + 1 in self.diffs:
                prod = linalg.mat_mul(self.diffs[d + 1], self.diffs[d], self.field)
                if not linalg.is_zero(prod):
                    raise NotAComplex(f"d o d != 0 between degrees {d} and {d + 2}")


def _alive(lat: Lattice, labels, kind):
    """alive[v]: the positions j of the summands present at element v, in
    order; P_l is present when l <= v (kind 'proj'), I_l when v <= l."""
    present = lat.up_mask if kind == "proj" else lat.down_mask
    alive = [[] for _ in range(lat.n)]
    for j, l in enumerate(labels):
        for v in _iter_bits(present[l]):
            alive[v].append(j)
    return alive


def _restrict(mat, src_alive, tgt_alive):
    """Components of the map between sums of indecomposables whose block
    (i, j) is the scalar mat[i][j] times the canonical map.  Both the
    canonical map P_s -> P_t (the identity on up(s)) and I_s -> I_t (the
    identity on down(t)) are the identity exactly where both summands are
    present, so each component is mat restricted to the summands there."""
    return [[[mat[i][j] for j in src] for i in tgt] for src, tgt in zip(src_alive, tgt_alive)]


def cohomology(cx: ScalarComplex) -> dict:
    """Pointwise ker/im quotients with induced cover maps, per degree.  The
    term at v is the list of the summands present there and the
    differentials are the scalar blocks restricted to them.  Every cover map
    of a sum of P_l or of I_l is the identity on the summands present at both
    ends, so along a cover a < b a cycle at a is reindexed: summand j keeps
    its coordinate when present at a and is 0 otherwise."""
    lat, field = cx.lattice, cx.field
    alive = {d: _alive(lat, labels, cx.kind) for d, labels in cx.degrees.items()}
    out = {}
    for d, here in sorted(alive.items()):
        dims = list(map(len, here))
        if d + 1 in alive and d in cx.diffs:
            comps = _restrict(cx.diffs[d], here, alive[d + 1])
            cycles = [linalg.kernel_basis(comps[v], dims[v], field) for v in range(lat.n)]
        else:
            cycles = [linalg.identity(k) for k in dims]
        if d - 1 in alive and d - 1 in cx.diffs:
            comps = _restrict(cx.diffs[d - 1], alive[d - 1], here)
            bounds = [linalg.column_space_basis(c, len(s), field) for c, s in zip(comps, alive[d - 1])]
        else:
            bounds = [[] for _ in range(lat.n)]
        basis = [
            [z[k] for k in linalg.extend_basis(q, z, n, field)] if q else z
            for z, q, n in zip(cycles, bounds, dims)
        ]
        maps = {}
        for (a, b) in lat.covers:
            pos = {j: c for c, j in enumerate(here[a])}
            cols = []
            for vec in basis[a]:
                img = [vec[pos[j]] if j in pos else 0 for j in here[b]]
                coords = linalg.coordinates(bounds[b] + basis[b], img, dims[b], field)
                if coords is None:
                    raise SerrelabError("cycles not closed under cover maps; induced map ill-defined")
                cols.append(coords[len(bounds[b]):])
            maps[(a, b)] = linalg.transpose(cols, len(basis[b]))
        out[d] = LatticeRep(lat, map(len, basis), maps, field, validate=False)
    return out


# -- projective resolutions -----------------------------------------------------


def _syzygy(lat: Lattice, labels, image, target_dims, field):
    """The kernel of the cover sum(P_l) ->> N that sends the generator of
    summand j to image(j, v) at each element v, as K_v in k^len(labels): the
    coordinates of the summands absent at v are 0.  Checks the cover is onto,
    N_v of dimension target_dims[v]."""
    spaces = []
    for v, alive in enumerate(_alive(lat, labels, "proj")):
        cols = [image(j, v) for j in alive]
        kernel = linalg.kernel_basis(linalg.transpose(cols, len(cols[0]) if cols else 0), len(alive), field)
        if len(alive) - len(kernel) != target_dims[v]:
            raise SerrelabError("projective cover is not surjective")
        space = []
        for u in kernel:
            vec = [0] * len(labels)
            for j, x in zip(alive, u):
                vec[j] = x
            space.append(vec)
        spaces.append(space)
    return spaces


def projective_resolution(M: LatticeRep) -> ScalarComplex:
    """Minimal projective resolution via iterated projective covers; lives in
    degrees -len..0.

    Each syzygy is kept as the subspace K_v of k^m at each element v, inside
    the sum of m projectives before it, where every cover map is the
    identity.  So the radical of the syzygy at a is the span of the K_b over
    the lower covers b of a, its generators at a are vectors of K_a outside
    that span, and each generator is a column of the next differential.  Only
    degree 0 reads M's cover maps, through M.composites(a) once per element a
    that carries a generator."""
    if M.is_zero():
        raise ValueError("projective_resolution of the zero module")
    lat, field = M.lattice, M.field
    gens = []  # degree 0: (element a, vector of M_a outside the image of the lower covers)
    for a in range(lat.n):
        rad = [col for b in lat.lower_covers[a] for col in zip(*M.maps[(b, a)])]
        std = linalg.identity(M.dims[a])
        gens += [(a, std[k]) for k in linalg.extend_basis(rad, std, M.dims[a], field)]
    labels = [a for a, _ in gens]
    degrees, diffs = {0: labels}, {}
    composites = {a: M.composites(a) for a in set(labels)}
    spaces = _syzygy(
        lat, labels, lambda j, v: linalg.mat_vec(composites[labels[j]][v], gens[j][1], field),
        M.dims, field,
    )
    step = 0
    while any(spaces):
        step += 1
        if step > 2 * lat.n + 4:
            raise SerrelabError("projective resolution did not terminate")
        m = len(labels)
        cols, labels = [], []
        for a in range(lat.n):
            rad = [u for b in lat.lower_covers[a] for u in spaces[b]]
            for k in linalg.extend_basis(rad, spaces[a], m, field):
                cols.append(spaces[a][k])
                labels.append(a)
        degrees[-step] = labels
        diffs[-step] = linalg.transpose(cols, m)
        spaces = _syzygy(lat, labels, lambda j, v: cols[j], [len(s) for s in spaces], field)
    return ScalarComplex(lat, "proj", degrees, diffs, field, minimal=True)


# -- the simplex boundary of the Koszul complexes ---------------------------------


@functools.lru_cache(maxsize=None)
def _subsets(k):
    """The subsets of a k-set as bitmasks: by size, increasing inside a size,
    and for each member c, the set of subsets without c as a bitmask over
    subsets (bit S set when c is not in S)."""
    by_size = [[] for _ in range(k + 1)]
    for s in range(1 << k):
        by_size[bin(s).count("1")].append(s)
    without = [sum(1 << s for s in range(1 << k) if not s >> c & 1) for c in range(k)]
    return by_size, without


@functools.lru_cache(maxsize=None)
def _boundary(k):
    """The signed boundary of the full simplex on a k-set, shared by every
    field, so read only: entry i maps the i-subsets to the (i-1)-subsets in
    _subsets order, S to each S - {c} with the sign (-1)^(position of c in
    S); entry 0 is [].  Its entries are the ints +-1, which the linear
    algebra reduces on entry."""
    by_size = _subsets(k)[0]
    d = [[]]
    for i in range(1, k + 1):
        src, tgt = by_size[i], by_size[i - 1]
        row = {t: r for r, t in enumerate(tgt)}
        mat = linalg.zeros(len(tgt), len(src))
        for j, s in enumerate(src):
            for pos, c in enumerate(_iter_bits(s)):
                mat[row[s ^ (1 << c)]][j] = 1 if pos % 2 == 0 else -1
        d.append(mat)
    return d


# -- the derived Serre functor ----------------------------------------------------


def nakayama(cx: ScalarComplex) -> ScalarComplex:
    """Replace each P_a by I_a, keeping the degrees and the scalar blocks
    along canonical maps."""
    if cx.kind != "proj":
        raise ValueError("nakayama expects a complex of projectives")
    return ScalarComplex(cx.lattice, "inj", cx.degrees, cx.diffs, cx.field, cx.minimal)


def serre(M: LatticeRep):
    """The derived Serre functor: a StalkResult when the image is concentrated
    in one degree, else the full cohomology.

    When M is recognised as an antichain module, the steps of
    serre_on_support take over on its support mask and antichain, found once.
    Every other input goes to serre_by_resolution, the oracle.
    """
    found = _antichain_support(M)
    if found is None:
        return serre_by_resolution(M)
    return _serre_on_antichain(M.lattice, *found, M.field)


def _antichain_support(M: LatticeRep):
    """(mask, ac) when M is an antichain module: M is thin with support mask,
    the support has a minimum lo and is up(lo) minus the up-set of an
    antichain, ac = support_antichain(lat, mask), and every cover map inside
    the support is nonzero.  Rescaling by the composites from lo
    (M.composites(lo)) then makes every such map the identity, so M is
    isomorphic to support_module on that mask.  Else None."""
    mask = thin_support(M)
    ac = None if mask is None else support_antichain(M.lattice, mask)
    return None if ac is None else (mask, ac)


def serre_support(lat: Lattice, gamma):
    """The closed form of the Serre functor on support masks.  gamma is the
    subset-join table of the antichain C of an antichain module over lo; when
    C is boolean, the support mask of the Serre image, which sits in degree
    -|C|, else None.

    The Koszul resolution of an antichain module is exact.  When C is boolean
    its Nakayama image is the injective Koszul coresolution of the dual
    antichain module of the coatom joins of C under their full join beta,
    shifted by |C|; the mask is that module's support, down(beta) minus the
    down-sets of the coatom joins.  No linear algebra is involved."""
    if not _is_boolean(gamma, lat.down_mask):
        return None
    full = len(gamma) - 1
    image = lat.down_mask[gamma[full]]
    for j in range(full.bit_length()):
        image &= ~lat.down_mask[gamma[full ^ (1 << j)]]
    return image


def serre_on_support(lat: Lattice, mask: int, field=QQ):
    """The Serre image of support_module(lat, mask, field), mask convex.

    When mask is the support of an antichain module whose antichain C has
    2^|C| <= |L|, so that the Koszul resolution has no more summands than the
    lattice has elements, one subset-join table of C serves both fast paths:
    the closed form when C is boolean, and otherwise the simplicial homology
    of its Nakayama image (_koszul_image).  A boolean C always passes the
    size test, its 2^|C| subset joins being distinct, so a larger C is sent
    on before its table is built.  Everything else goes to
    serre_by_resolution, the oracle and the only step that builds a
    LatticeRep, as does a Koszul stalk that is no antichain module."""
    return _serre_on_antichain(lat, mask, support_antichain(lat, mask), field)


def _serre_on_antichain(lat: Lattice, mask: int, ac, field):
    """serre_on_support with ac = support_antichain(lat, mask) given."""
    if ac is not None and 1 << len(ac[1]) <= lat.n:
        lo, members = ac
        gamma = _subset_joins(lo, members, lat.up_mask, lat.by_up)
        image = serre_support(lat, gamma)
        if image is not None:
            return StalkResult(lat, len(members), image, field=field)
        res = _koszul_image(lat, gamma, field)
        if res is not None:
            return res
    return serre_by_resolution(support_module(lat, mask, field))


def _pattern_homology(d, field, pattern: int):
    """(dims, ranks) of the Koszul complex with boundary table d restricted
    to the subsets in pattern, a bitmask over subsets closed under adding
    members: dims[i] = dim H^{-i} and ranks[i] the rank of the restricted
    differential out of degree -i (ranks[0] = ranks[k + 1] = 0).

    Its complement Delta = {S not in pattern} is a simplicial complex on C,
    and H^{-i} is the reduced homology H_{i-2}(Delta).  When the restriction
    is void, or is closed under removing some member c (Delta a cone with
    apex c, as when the pattern is full), adding c is a contraction: dims
    are 0 with no rank taken, and ranks is None."""
    by_size, without = _subsets(len(d) - 1)
    k = len(by_size) - 1
    if not pattern or any(
        (pattern & low) << (1 << c) == pattern & ~low for c, low in enumerate(without)
    ):
        return [0] * (k + 1), None
    alive = [[j for j, s in enumerate(subs) if pattern >> s & 1] for subs in by_size]
    ranks = [0] * (k + 2)
    for i in range(1, k + 1):
        if alive[i] and alive[i - 1]:
            mat = _restrict(d[i], [alive[i]], [alive[i - 1]])[0]
            ranks[i] = linalg.rank(mat, len(alive[i]), field)
    return [len(alive[i]) - ranks[i] - ranks[i + 1] for i in range(k + 1)], ranks


def _projection_rank(d, field, s: int, big: int, small: int, homology):
    """The rank of the map on H^{-s} induced by projecting the Koszul complex
    with boundary table d on the pattern big onto the pattern small inside
    it; for a cover a < b of the lattice this is the cover map of the
    Nakayama image, with big = P_a and small = P_b.  homology maps each
    pattern to its _pattern_homology.

    The kernel K of the projection (the subsets in big but not in small) is a
    subcomplex, so the preimage of the boundaries of small is B_big + K, and
    the rank is dim(Z_big + K_s) - dim(B_big + K_s), that is
    dim Z_big + rank(d restricted to K_s) - |K_s| - rank_small(-s-1)."""
    (dims, ranks), (_, ranks_small) = homology[big], homology[small]
    if ranks is None or ranks_small is None:
        return 0
    by_size = _subsets(len(d) - 1)[0]
    dropped = big & ~small
    cols = [j for j, t in enumerate(by_size[s]) if dropped >> t & 1]
    rows = [i for i, t in enumerate(by_size[s - 1]) if dropped >> t & 1] if s else []
    rho = 0
    if rows and cols:
        rho = linalg.rank(_restrict(d[s], [cols], [rows])[0], len(cols), field)
    return dims[s] + ranks[s + 1] + rho - len(cols) - ranks_small[s + 1]


def _koszul_image(lat: Lattice, gamma, field):
    """The Serre image of the antichain module with subset-join table gamma,
    with no module or complex built; None for a stalk that is no antichain
    module.  At an element x the Nakayama image of the Koszul resolution is
    the Koszul complex restricted to the pattern P_x = {S : x <= gamma(S)},
    the summands I_gamma(S) present at x, so its cohomology is taken once
    per distinct pattern; an image in several degrees is returned as the
    dimension vector of each.  A thin stalk in degree -s on an antichain
    module's support is that module when every cover map inside the support
    is nonzero (_projection_rank, once per distinct pair of patterns)."""
    d = _boundary((len(gamma) - 1).bit_length())
    pattern = [0] * lat.n
    for s, g in enumerate(gamma):
        for x in _iter_bits(lat.down_mask[g]):
            pattern[x] |= 1 << s
    homology = {p: _pattern_homology(d, field, p) for p in set(pattern)}
    vectors = {-i: [homology[p][0][i] for p in pattern] for i in range(len(d))}
    nonzero = {deg: vec for deg, vec in vectors.items() if any(vec)}
    if len(nonzero) != 1:
        return GeneralComplexResult(cohomology=nonzero)
    ((deg, vec),) = nonzero.items()
    mask = sum(1 << x for x, dim in enumerate(vec) if dim)
    if max(vec) > 1 or support_antichain(lat, mask) is None:
        return None
    pairs = {(pattern[a], pattern[b]) for a, b in lat.covers if mask >> a & 1 and mask >> b & 1}
    if not all(_projection_rank(d, field, -deg, big, small, homology) for big, small in pairs):
        return None
    return StalkResult(lat, -deg, mask, field=field)


def serre_by_resolution(M: LatticeRep):
    """Cohomology of nakayama(projective_resolution(M)); a StalkResult when
    concentrated in one degree, else the dimension vectors per degree."""
    if M.is_zero():
        raise ValueError("serre of the zero module")
    H = cohomology(nakayama(projective_resolution(M)))
    nonzero = {d: h for d, h in H.items() if not h.is_zero()}
    if len(nonzero) == 1:
        ((d, h),) = nonzero.items()
        found = _antichain_support(h)
        return StalkResult(h.lattice, -d, None if found is None else found[0], h, h.field)
    return GeneralComplexResult(cohomology={d: list(h.dims) for d, h in nonzero.items()})


def serre_walk(lattice: Lattice, mask: int, field=QQ):
    """The successive Serre images of support_module(lattice, mask, field):
    StalkResults, ending after the first GeneralComplexResult if one appears.
    Each step runs on the support mask of the previous image when it has
    one, so a LatticeRep is built only for an oracle step, among them the
    fallback of a Koszul stalk that is no antichain module.  An image
    without a mask is no antichain module (serre_by_resolution has just
    tested it), so its step goes straight to serre_by_resolution."""
    res = serre_on_support(lattice, mask, field)
    while True:
        yield res
        if isinstance(res, GeneralComplexResult):
            return
        if res.support is None:
            res = serre_by_resolution(res.rep)
        else:
            res = serre_on_support(lattice, res.support, field)


def serre_orbit(lattice: Lattice, a, max_steps=None, field=QQ) -> SerreOrbit:
    """Iterate the derived Serre functor from the injective at `a` until its
    mask down(a) returns, a non-stalk image appears, or the budget runs out."""
    if max_steps is None:
        max_steps = default_max_steps(lattice)
    start = lattice.down_mask[lattice.index[a]]
    steps = []
    total = 0
    for res in itertools.islice(serre_walk(lattice, start, field), max_steps):
        if isinstance(res, GeneralComplexResult):
            return SerreOrbit(a, steps, None, None, failure=res)
        steps.append(res)
        total += res.shift
        if res.support == start:
            return SerreOrbit(a, steps, len(steps), total)
    raise MaxStepsExceeded(a, max_steps)
