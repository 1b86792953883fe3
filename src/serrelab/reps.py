"""Representations of a finite lattice over an exact field.

A representation assigns a vector space to each lattice element and a
matrix to each cover, composing compatibly along all paths.  Matrices
act on column vectors; composition along a chain a < b < c is the
product map(b,c) @ map(a,b).  Cover maps hold the field's canonical
scalars (fields.py); the linear algebra layer keeps them so.

LatticeRep.composites builds the composites from one element up in one walk;
the commutativity check and degree 0 of the minimal resolution read it.

What a verdict needs: support-mask modules and the thin-support test behind
the Serre dispatch.  Morphisms, the standard modules, hom spaces, direct sums
and the isomorphism test are the tests' oracles (tests/oracles.py); the
minimal resolution and the cohomology of its Nakayama image work in the
coordinates of their projective and injective sums and build no term module
(derived.py).
"""

from __future__ import annotations

from . import linalg
from .fields import QQ
from .lattice import Lattice, support_interval


class LatticeRep:
    """Pointwise vector spaces + cover matrices over a fixed lattice.

    Caller-supplied cover maps are reduced through field.of and their
    commutativity checked at construction by default, by composites(a) where a
    has two or more upper covers: two disagreeing paths from a maximal such a
    leave it by different covers.  Internal constructions, commutative by
    design and built from canonical scalars, pass validate=False.
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
        if validate:
            for a in range(lattice.n):
                if len(lattice.upper_covers[a]) > 1:
                    self.composites(a)

    def composites(self, a: int):
        """{b: the composite of the cover maps from a up to b} for every b >= a,
        in one walk along lat.topo.  The composite at b goes through a lower
        cover u >= a of b; every other such u must give the same matrix, else
        the maps do not commute and ValueError names a and b."""
        lat, dims, up = self.lattice, self.dims, self.lattice.up_mask[a]
        out = {a: linalg.identity(dims[a])}
        for b in lat.topo:
            for u in lat.lower_covers[b]:
                if not up >> u & 1:
                    continue
                if dims[u]:
                    via = linalg.mat_mul(self.maps[(u, b)], out[u], self.field)
                else:  # through a zero space; mat_mul cannot read the width off an empty factor
                    via = linalg.zeros(dims[b], dims[a])
                if out.setdefault(b, via) != via:
                    pair = f"{lat.labels[a]!r} and {lat.labels[b]!r}"
                    raise ValueError(f"cover maps do not commute between {pair}")
        return out

    def is_zero(self):
        return all(d == 0 for d in self.dims)

    def __repr__(self):
        return f"LatticeRep(dims={list(self.dims)})"


def support_module(lattice: Lattice, supp_mask: int, field=QQ) -> LatticeRep:
    """1 on every element of supp_mask, identity maps inside it; a
    representation whenever supp_mask is convex."""
    dims = [1 if supp_mask >> i & 1 else 0 for i in range(lattice.n)]
    maps = {}
    for (a, b) in lattice.covers:
        if dims[a] and dims[b]:
            maps[(a, b)] = [[1]]
    return LatticeRep(lattice, dims, maps, field, validate=False)


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
    """The labels (lo, hi) of the interval I with M isomorphic to M_I, or None:
    the pair that min_complement_antichain takes.

    For 0/1 dimension vectors supported on an interval, rescaling by the
    composites from the minimum (LatticeRep.composites) realizes the
    isomorphism iff every internal cover map is nonzero.  No verdict calls it; perfbench's
    tracer reads it to count closed-form eligible Serre inputs.
    """
    mask = thin_support(M)
    return None if mask is None else support_interval(M.lattice, mask)
