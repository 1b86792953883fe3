"""Representations of a finite lattice over an exact field.

A representation assigns a vector space to each lattice element and a
matrix to each cover, composing compatibly along all paths.  Matrices
act on column vectors; composition along a chain a < b < c is the
product map(b,c) @ map(a,b).
"""

from __future__ import annotations

import itertools

from . import linalg
from .errors import GuardrailExceeded, LatticeMismatch
from .fields import QQ
from .lattice import Antichain, IntervalRef, Lattice


class LatticeRep:
    """Pointwise vector spaces + cover matrices over a fixed lattice.

    Commutativity is validated at construction by default; internal
    constructions that are commutative by design pass validate=False.
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
                m = linalg.zeros(self.dims[b], self.dims[a], field)
            if len(m) != self.dims[b] or (m and len(m[0]) != self.dims[a]):
                raise ValueError(f"cover map {(a, b)} has wrong shape")
            self.maps[(a, b)] = m
        self._path_cache = {}
        if validate:
            self.validate_commutes()

    # -- structural helpers ----------------------------------------------------

    def canonical_map(self, a: int, b: int):
        """Composite along a fixed canonical cover path from a up to b."""
        if not self.lattice.leq_i(a, b):
            raise ValueError("canonical_map needs a <= b")
        key = (a, b)
        if key in self._path_cache:
            return self._path_cache[key]
        if a == b:
            m = linalg.identity(self.dims[a], self.field)
        else:
            step = min(m for m in self.lattice.poset.upper_covers[a] if self.lattice.leq_i(m, b))
            m = linalg.mat_mul(self.canonical_map(step, b), self.maps[(a, step)], self.field)
        self._path_cache[key] = m
        return m

    def validate_commutes(self):
        """All cover-path composites agree: for each a <= b every first
        cover step must reproduce the canonical composite."""
        lat = self.lattice
        for a in range(lat.n):
            for b in lat.poset.mask_members(lat.up_mask[a]):
                if a == b:
                    continue
                ref = self.canonical_map(a, b)
                for m in lat.poset.upper_covers[a]:
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

    def __init__(self, source: LatticeRep, target: LatticeRep, components, validate=False):
        if source.lattice is not target.lattice:
            raise LatticeMismatch("morphism endpoints live over different lattices")
        self.source = source
        self.target = target
        self.components = list(components)
        if validate:
            self.validate()

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
        linalg.zeros(target.dims[v], source.dims[v], source.field)
        for v in range(source.lattice.n)
    ]
    return RepMorphism(source, target, comps)


def identity_morphism(rep: LatticeRep) -> RepMorphism:
    comps = [linalg.identity(d, rep.field) for d in rep.dims]
    return RepMorphism(rep, rep, comps)


# -- standard modules ---------------------------------------------------------


def _indicator_rep(lattice: Lattice, supp_mask: int, field=QQ) -> LatticeRep:
    dims = [1 if supp_mask >> i & 1 else 0 for i in range(lattice.n)]
    maps = {}
    one = field.one
    for (a, b) in lattice.covers:
        if dims[a] and dims[b]:
            maps[(a, b)] = [[one]]
    return LatticeRep(lattice, dims, maps, field, validate=False)


def interval_module(lattice: Lattice, ref: IntervalRef, field=QQ) -> LatticeRep:
    lo, hi = lattice.index[ref.lo], lattice.index[ref.hi]
    if not lattice.leq_i(lo, hi):
        raise ValueError(f"not an interval: {ref.lo!r} !<= {ref.hi!r}")
    return _indicator_rep(lattice, lattice.poset.interval_mask(lo, hi), field)


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
    return _indicator_rep(lattice, supp, field)


def dual_antichain_module(lattice: Lattice, ac: Antichain, field=QQ) -> LatticeRep:
    """Support {y <= base : y !<= d for all members d}, identity maps."""
    if ac.mode != "under":
        raise ValueError("dual_antichain_module expects mode='under'")
    ac.validate(lattice)
    supp = lattice.down_mask[lattice.index[ac.base]]
    for d in ac.members:
        supp &= ~lattice.down_mask[lattice.index[d]]
    return _indicator_rep(lattice, supp, field)


# -- hom spaces ---------------------------------------------------------------


def _hom_system(M: LatticeRep, N: LatticeRep):
    """Rows of the commuting-square system; unknowns are the entries of the
    components f_v in element order, row-major."""
    if M.lattice is not N.lattice:
        raise LatticeMismatch("hom endpoints live over different lattices")
    lat, field = M.lattice, M.field
    offs = []
    t = 0
    for v in range(lat.n):
        offs.append(t)
        t += N.dims[v] * M.dims[v]
    nvars = t
    rows = []
    z = field.zero
    for (a, b) in lat.covers:
        Mab, Nab = M.maps[(a, b)], N.maps[(a, b)]
        for i in range(N.dims[b]):
            for j in range(M.dims[a]):
                row = [z] * nvars
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
        m = linalg.zeros(dims[b], dims[a], field)
        for s, r in enumerate(reps):
            rm = r.maps[(a, b)]
            ob, oa = offsets[s][b], offsets[s][a]
            for i in range(r.dims[b]):
                for j in range(r.dims[a]):
                    m[ob + i][oa + j] = rm[i][j]
        maps[(a, b)] = m
    return LatticeRep(lat, dims, maps, field, validate=False), offsets


def _induced_in_basis(basis_cols, vec, dim, field):
    coords = linalg.coordinates(basis_cols, vec, dim, field)
    if coords is None:
        raise ValueError("vector not in subspace; induced map ill-defined")
    return coords


def kernel(f: RepMorphism):
    """(K, incl) with K the pointwise kernel carrying induced cover maps."""
    M, field, lat = f.source, f.source.field, f.source.lattice
    kbasis = []
    for v in range(lat.n):
        if M.dims[v] == 0:
            kbasis.append([])
        else:
            kbasis.append(linalg.kernel_basis(f.components[v], M.dims[v], field))
    dims = [len(b) for b in kbasis]
    maps = {}
    for (a, b) in lat.covers:
        cols = []
        for vec in kbasis[a]:
            img = linalg.mat_vec(M.maps[(a, b)], vec, field)
            cols.append(_induced_in_basis(kbasis[b], img, M.dims[b], field))
        maps[(a, b)] = [[cols[j][i] for j in range(dims[a])] for i in range(dims[b])]
    K = LatticeRep(lat, dims, maps, field, validate=False)
    incl = RepMorphism(
        K, M, [[[kbasis[v][j][i] for j in range(dims[v])] for i in range(M.dims[v])] for v in range(lat.n)]
    )
    return K, incl


def image(f: RepMorphism):
    """(Im, incl) with Im the pointwise image inside the target."""
    N, field, lat = f.target, f.source.field, f.source.lattice
    ibasis = []
    for v in range(lat.n):
        ibasis.append(linalg.column_space_basis(f.components[v], f.source.dims[v], field))
    dims = [len(b) for b in ibasis]
    maps = {}
    for (a, b) in lat.covers:
        cols = []
        for vec in ibasis[a]:
            img = linalg.mat_vec(N.maps[(a, b)], vec, field)
            cols.append(_induced_in_basis(ibasis[b], img, N.dims[b], field))
        maps[(a, b)] = [[cols[j][i] for j in range(dims[a])] for i in range(dims[b])]
    Im = LatticeRep(lat, dims, maps, field, validate=False)
    incl = RepMorphism(
        Im, N, [[[ibasis[v][j][i] for j in range(dims[v])] for i in range(N.dims[v])] for v in range(lat.n)]
    )
    return Im, incl


def cokernel(f: RepMorphism):
    """(C, proj) with C = target/im(f) and proj the quotient morphism."""
    N, field, lat = f.target, f.source.field, f.source.lattice
    im_cols = []
    rep_idx = []
    for v in range(lat.n):
        cols = linalg.column_space_basis(f.components[v], f.source.dims[v], field)
        im_cols.append(cols)
        std = linalg.identity(N.dims[v], field)
        rep_idx.append(linalg.extend_basis(cols, std, N.dims[v], field))
    dims = [len(r) for r in rep_idx]
    # projection at v: coordinates in [im | chosen reps], keep the reps part
    proj_comps = []
    for v in range(lat.n):
        reps_v = [
            [field.one if i == k else field.zero for i in range(N.dims[v])] for k in rep_idx[v]
        ]
        basis = im_cols[v] + reps_v
        comp = []
        for i in range(N.dims[v]):
            e = [field.one if t == i else field.zero for t in range(N.dims[v])]
            coords = linalg.coordinates(basis, e, N.dims[v], field)
            comp.append(coords[len(im_cols[v]):])
        # comp currently rows=N.dims, want rows=dims[v], cols=N.dims[v]
        proj_comps.append([[comp[i][r] for i in range(N.dims[v])] for r in range(dims[v])])
    maps = {}
    for (a, b) in lat.covers:
        m = linalg.zeros(dims[b], dims[a], field)
        for j, k in enumerate(rep_idx[a]):
            vec = [field.one if t == k else field.zero for t in range(N.dims[a])]
            img = linalg.mat_vec(N.maps[(a, b)], vec, field)
            col = linalg.mat_vec(proj_comps[b], img, field)
            for i in range(dims[b]):
                m[i][j] = col[i]
        maps[(a, b)] = m
    C = LatticeRep(lat, dims, maps, field, validate=False)
    proj = RepMorphism(N, C, proj_comps)
    return C, proj


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
            comb = linalg.zeros(d, d, field)
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

    one = field.one
    m = len(basis)
    for k in range(m):  # single basis elements first
        coeffs = [field.zero] * m
        coeffs[k] = one
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


def find_interval_iso(M: LatticeRep):
    """The interval I with M isomorphic to M_I, or None.

    For 0/1 dimension vectors supported on an interval, rescaling by the
    canonical composites from the minimum realizes the isomorphism iff
    every internal cover map is nonzero.
    """
    lat = M.lattice
    if any(d > 1 for d in M.dims):
        return None
    supp = M.support()
    if not supp:
        return None
    mask = 0
    for v in supp:
        mask |= 1 << v
    minimals = [v for v in supp if lat.down_mask[v] & mask == 1 << v]
    maximals = [v for v in supp if lat.up_mask[v] & mask == 1 << v]
    if len(minimals) != 1 or len(maximals) != 1:
        return None
    lo, hi = minimals[0], maximals[0]
    if lat.poset.interval_mask(lo, hi) != mask:
        return None
    for (a, b) in lat.covers:
        if mask >> a & 1 and mask >> b & 1 and not M.maps[(a, b)][0][0]:
            return None
    return IntervalRef(lat.labels[lo], lat.labels[hi])
