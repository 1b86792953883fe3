"""Representations of a finite lattice over an exact field.

A representation assigns a vector space to each lattice element and a
matrix to each cover, composing compatibly along all paths.  Matrices
act on column vectors; composition along a chain a < b < c is the
product map(b,c) @ map(a,b).  Cover maps hold the field's canonical
scalars (fields.py); the linear algebra layer keeps them so.

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
            if self.dims[step]:
                cache[(x, b)] = linalg.mat_mul(cache[(step, b)], self.maps[(x, step)], self.field)
            else:  # through a zero space; mat_mul cannot read the width off an empty factor
                cache[(x, b)] = linalg.zeros(self.dims[b], self.dims[x])
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
                    if via != ref:
                        raise ValueError(
                            f"cover maps do not commute between "
                            f"{lat.labels[a]!r} and {lat.labels[b]!r}"
                        )

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
    """The interval I with M isomorphic to M_I, or None.

    For 0/1 dimension vectors supported on an interval, rescaling by the
    canonical composites from the minimum realizes the isomorphism iff
    every internal cover map is nonzero.  No verdict calls it; perfbench's
    tracer reads it to count closed-form eligible Serre inputs.
    """
    mask = thin_support(M)
    return None if mask is None else support_interval(M.lattice, mask)
