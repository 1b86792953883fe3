"""Representations of a finite lattice over an exact field.

A representation assigns a vector space to each lattice element and a
matrix to each cover, composing compatibly along all paths.  Matrices
act on column vectors; composition along a chain a < b < c is the
product map(b,c) @ map(a,b).  Cover maps hold the field's canonical
scalars (fields.py); the linear algebra layer keeps them so.
"""

from __future__ import annotations

import itertools

from . import linalg
from .errors import GuardrailExceeded, LatticeMismatch, SerrelabError
from .fields import QQ
from .lattice import Antichain, IntervalRef, Lattice, support_interval


class LatticeRep:
    """Pointwise vector spaces + cover matrices over a fixed lattice.

    Caller-supplied cover maps are reduced through field.of and their
    commutativity validated at construction by default; internal
    constructions, commutative by design and built from canonical scalars,
    pass validate=False.
    """

    def __init__(self, lattice: Lattice, dims, cover_maps, field=QQ, validate=True):
        self.lattice = lattice
        self.field = field
        self.dims = tuple(dims)
        if len(self.dims) != lattice.n:
            raise ValueError("dims must list one dimension per lattice element")
        self.maps = {}
        for (a, b) in lattice.covers:
            m = cover_maps.get((a, b))
            if m is None:
                m = linalg.zeros(self.dims[b], self.dims[a])
            elif validate:
                m = [[field.of(x) for x in row] for row in m]
            if len(m) != self.dims[b] or (m and len(m[0]) != self.dims[a]):
                raise ValueError(f"cover map {(a, b)} has wrong shape")
            self.maps[(a, b)] = m
        self._path_cache = {}
        if validate:
            self.validate_commutes()

    # -- structural helpers ----------------------------------------------------

    def canonical_map(self, a: int, b: int):
        """Composite along a fixed canonical cover path from a up to b: each
        step goes to the least upper cover still below b.  The path is walked
        iteratively and the cache filled from b back down to a."""
        if not self.lattice.leq_i(a, b):
            raise ValueError("canonical_map needs a <= b")
        cache = self._path_cache
        path = [a]
        while (path[-1], b) not in cache:
            x = path[-1]
            if x == b:
                cache[(b, b)] = linalg.identity(self.dims[b])
            else:
                path.append(min(m for m in self.lattice.upper_covers[x] if self.lattice.leq_i(m, b)))
        for x, step in zip(path[-2::-1], path[:0:-1]):
            cache[(x, b)] = linalg.mat_mul(cache[(step, b)], self.maps[(x, step)], self.field)
        return cache[(a, b)]

    def validate_commutes(self):
        """All cover-path composites agree: for each a <= b every first
        cover step must reproduce the canonical composite."""
        lat = self.lattice
        for a in range(lat.n):
            for b in lat.mask_members(lat.up_mask[a]):
                if a == b:
                    continue
                ref = self.canonical_map(a, b)
                for m in lat.upper_covers[a]:
                    if not lat.leq_i(m, b):
                        continue
                    via = linalg.mat_mul(self.canonical_map(m, b), self.maps[(a, m)], self.field)
                    if not linalg.mat_eq(via, ref):
                        raise ValueError(
                            f"cover maps do not commute between "
                            f"{lat.labels[a]!r} and {lat.labels[b]!r}"
                        )

    def dimension_vector(self):
        return list(self.dims)

    def total_dim(self):
        return sum(self.dims)

    def is_zero(self):
        return all(d == 0 for d in self.dims)

    def support(self):
        return [i for i, d in enumerate(self.dims) if d > 0]

    def __repr__(self):
        return f"LatticeRep(dims={list(self.dims)})"

    def to_json_dict(self):
        lat = self.lattice
        return {
            "field": getattr(self.field, "name", "rational"),
            "dims": {str(lat.labels[i]): d for i, d in enumerate(self.dims)},
            "cover_maps": [
                {
                    "cover": [str(lat.labels[a]), str(lat.labels[b])],
                    "matrix": [[str(x) for x in row] for row in self.maps[(a, b)]],
                }
                for (a, b) in lat.covers
                if self.dims[a] and self.dims[b]
            ],
        }


class RepMorphism:
    """Componentwise linear map between representations of one lattice."""

    def __init__(self, source: LatticeRep, target: LatticeRep, components):
        if source.lattice is not target.lattice:
            raise LatticeMismatch("morphism endpoints live over different lattices")
        self.source = source
        self.target = target
        self.components = list(components)

    def validate(self):
        f, M, N = self.components, self.source, self.target
        for (a, b) in M.lattice.covers:
            lhs = linalg.mat_mul(f[b], M.maps[(a, b)], M.field)
            rhs = linalg.mat_mul(N.maps[(a, b)], f[a], M.field)
            if not linalg.mat_eq(lhs, rhs):
                raise ValueError(f"morphism does not commute over cover {(a, b)}")

    def compose(self, other: "RepMorphism") -> "RepMorphism":
        """self after other."""
        if other.target is not self.source:
            raise LatticeMismatch("composition endpoints do not match")
        comps = [
            linalg.mat_mul(self.components[v], other.components[v], self.source.field)
            for v in range(self.source.lattice.n)
        ]
        return RepMorphism(other.source, self.target, comps)

    def is_zero(self):
        return all(linalg.is_zero(c) for c in self.components)

    def __repr__(self):
        return f"RepMorphism({self.source!r} -> {self.target!r})"


def zero_rep(lattice: Lattice, field=QQ) -> LatticeRep:
    return LatticeRep(lattice, [0] * lattice.n, {}, field, validate=False)


def zero_morphism(source: LatticeRep, target: LatticeRep) -> RepMorphism:
    comps = [
        linalg.zeros(target.dims[v], source.dims[v])
        for v in range(source.lattice.n)
    ]
    return RepMorphism(source, target, comps)


# -- standard modules ---------------------------------------------------------


def support_module(lattice: Lattice, supp_mask: int, field=QQ) -> LatticeRep:
    """1 on every element of supp_mask, identity maps inside it; a
    representation whenever supp_mask is convex."""
    dims = [1 if supp_mask >> i & 1 else 0 for i in range(lattice.n)]
    maps = {}
    for (a, b) in lattice.covers:
        if dims[a] and dims[b]:
            maps[(a, b)] = [[1]]
    return LatticeRep(lattice, dims, maps, field, validate=False)


def interval_module(lattice: Lattice, ref: IntervalRef, field=QQ) -> LatticeRep:
    lo, hi = lattice.index[ref.lo], lattice.index[ref.hi]
    if not lattice.leq_i(lo, hi):
        raise ValueError(f"not an interval: {ref.lo!r} !<= {ref.hi!r}")
    return support_module(lattice, lattice.interval_mask(lo, hi), field)


def simple_module(lattice: Lattice, a, field=QQ) -> LatticeRep:
    return interval_module(lattice, IntervalRef(a, a), field)


def projective_module(lattice: Lattice, a, field=QQ) -> LatticeRep:
    return interval_module(lattice, IntervalRef(a, lattice.top_label), field)


def injective_module(lattice: Lattice, a, field=QQ) -> LatticeRep:
    return interval_module(lattice, IntervalRef(lattice.bottom_label, a), field)


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


# -- hom spaces ---------------------------------------------------------------


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


# -- kernels, images, cokernels -------------------------------------------------


def direct_sum(reps, field=None) -> tuple:
    """Direct sum; returns (rep, offsets) with offsets[s][v] the coordinate
    offset of summand s at element v."""
    reps = list(reps)
    if not reps:
        raise ValueError("direct_sum of nothing; use zero_rep")
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


def subquotient(N: LatticeRep, sub, quo):
    """(S, basis) with S_v = span(sub[v]) / span(quo[v]) carrying the cover
    maps of N induced; span(quo[v]) must lie in span(sub[v]).

    basis[v] lists the vectors of sub[v] that extend quo[v] to a basis of
    span(sub[v]), in order; sub[v] itself when quo[v] is empty, so sub[v]
    must then be independent.  Raises SerrelabError when a cover map of N
    does not carry the subquotient into itself.
    """
    lat, field = N.lattice, N.field
    basis = [
        [sub[v][k] for k in linalg.extend_basis(quo[v], sub[v], N.dims[v], field)] if quo[v] else sub[v]
        for v in range(lat.n)
    ]
    dims = [len(bv) for bv in basis]
    maps = {}
    for (a, b) in lat.covers:
        span_b, skip = quo[b] + basis[b], len(quo[b])
        cols = []
        for vec in basis[a]:
            img = linalg.mat_vec(N.maps[(a, b)], vec, field)
            coords = linalg.coordinates(span_b, img, N.dims[b], field)
            if coords is None:
                raise SerrelabError("subquotient not closed under cover maps; induced map ill-defined")
            cols.append(coords[skip:])
        maps[(a, b)] = linalg.transpose(cols, dims[b])
    return LatticeRep(lat, dims, maps, field, validate=False), basis


def _inclusion(S: LatticeRep, N: LatticeRep, basis) -> RepMorphism:
    """S -> N sending the i-th basis vector of S_v to basis[v][i]."""
    return RepMorphism(S, N, [linalg.transpose(basis[v], N.dims[v]) for v in range(N.lattice.n)])


def kernel(f: RepMorphism):
    """(K, incl) with K the pointwise kernel carrying induced cover maps."""
    M, field = f.source, f.source.field
    kbasis = [
        linalg.kernel_basis(f.components[v], M.dims[v], field) if M.dims[v] else []
        for v in range(M.lattice.n)
    ]
    K, kbasis = subquotient(M, kbasis, [[] for _ in kbasis])
    return K, _inclusion(K, M, kbasis)


def _image_basis(f: RepMorphism):
    return [
        linalg.column_space_basis(f.components[v], f.source.dims[v], f.source.field)
        for v in range(f.source.lattice.n)
    ]


def image(f: RepMorphism):
    """(Im, incl) with Im the pointwise image inside the target."""
    ibasis = _image_basis(f)
    Im, ibasis = subquotient(f.target, ibasis, [[] for _ in ibasis])
    return Im, _inclusion(Im, f.target, ibasis)


def cokernel(f: RepMorphism):
    """(C, proj) with C = target/im(f) and proj the quotient morphism."""
    N, field = f.target, f.source.field
    im = _image_basis(f)
    std = [linalg.identity(d) for d in N.dims]
    C, reps = subquotient(N, std, im)
    # projection at v: coordinates in [im | chosen reps], keep the reps part
    proj_comps = []
    for v in range(N.lattice.n):
        span, skip = im[v] + reps[v], len(im[v])
        cols = [linalg.coordinates(span, e, N.dims[v], field)[skip:] for e in std[v]]
        proj_comps.append(linalg.transpose(cols, C.dims[v]))
    return C, RepMorphism(N, C, proj_comps)


# -- isomorphism detection -------------------------------------------------------


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
    dim_total = M.total_dim()

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


def thin_support(M: LatticeRep):
    """The support mask of M when M is thin (every dimension 0 or 1) and every
    cover map inside its support is nonzero, else None."""
    if any(d > 1 for d in M.dims):
        return None
    mask = sum(1 << v for v, d in enumerate(M.dims) if d)
    for (a, b), m in M.maps.items():
        if mask >> a & 1 and mask >> b & 1 and not m[0][0]:
            return None
    return mask


def find_interval_iso(M: LatticeRep):
    """The interval I with M isomorphic to M_I, or None.

    For 0/1 dimension vectors supported on an interval, rescaling by the
    canonical composites from the minimum realizes the isomorphism iff
    every internal cover map is nonzero.
    """
    mask = thin_support(M)
    return None if mask is None else support_interval(M.lattice, mask)
