"""Minimal projective resolutions, antichain (co)resolutions, the Nakayama
functor on complexes of projectives, cohomology, and the derived Serre
functor with orbit bookkeeping.  The Serre functor of an antichain module
with a boolean antichain has a closed form on support bitmasks, and every
other small enough antichain module goes through its Koszul resolution; the
generic path through the minimal resolution is kept as their oracle.

Degree convention: projective resolutions live in degrees <= 0 with the
resolved module in degree 0; a Serre image concentrated in degree -k is
reported as shift +k.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from . import linalg
from .errors import MaxStepsExceeded, NotAComplex, SerrelabError
from .fields import QQ
from .lattice import (
    ANTICHAIN_GUARDRAIL,
    Antichain,
    IntervalRef,
    Lattice,
    boolean_joins,
    support_antichain,
    support_interval,
)
from .reps import (
    LatticeRep,
    RepMorphism,
    antichain_module,
    dual_antichain_module,
    is_isomorphic,
    kernel,
    subquotient,
    support_module,
    thin_support,
)


class StalkResult:
    """A Serre image concentrated in one degree: rep[shift].

    support is the support mask when the image is isomorphic to the module
    with identity maps on it, as every closed-form image and every recognised
    antichain module is; rep is then built from the mask on first access.
    interval is set when the image is an interval module.  rep is one
    representative of the isomorphism class of the image; the closed form and
    the oracle may return different bases of the same class."""

    def __init__(self, lattice: Lattice, shift: int, support, rep=None, field=QQ):
        self.lattice, self.shift, self.support, self.field = lattice, shift, support, field
        self._rep = rep
        self.interval = None if support is None else support_interval(lattice, support)

    @property
    def rep(self) -> LatticeRep:
        if self._rep is None:
            self._rep = support_module(self.lattice, self.support, self.field)
        return self._rep

    def dimension_vector(self):
        if self.support is None:
            return self._rep.dimension_vector()
        return [self.support >> v & 1 for v in range(self.lattice.n)]


@dataclass
class GeneralComplexResult:
    """Cohomology spread over several degrees (not Serre formal here)."""

    cohomology: dict

    def degrees(self):
        return sorted(self.cohomology)


@dataclass
class SerreOrbit:
    start: object
    start_interval: IntervalRef
    steps: list
    period: int | None
    total_shift: int | None
    failure: GeneralComplexResult | None = None

    def to_json_dict(self):
        return {
            "start": str(self.start),
            "steps": [
                {
                    "dimension_vector": s.dimension_vector(),
                    "shift": s.shift,
                    "interval": [str(s.interval.lo), str(s.interval.hi)] if s.interval else None,
                }
                for s in self.steps
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
    rows indexed by the summands of degree d+1.  A block may be nonzero only
    when the target label lies below the source label, which is exactly when
    the canonical map between the corresponding indecomposables exists.
    """

    def __init__(self, lattice: Lattice, kind: str, degrees, diffs, field=QQ, minimal=False):
        if kind not in ("proj", "inj"):
            raise ValueError("kind must be 'proj' or 'inj'")
        self.lattice = lattice
        self.kind = kind
        self.field = field
        self.degrees = {d: list(v) for d, v in degrees.items() if v}
        self.diffs = {d: m for d, m in diffs.items()}
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

    def realize(self, kind=None) -> "RepComplex":
        """Explicit complex of representations (P_a or I_a summands)."""
        kind = kind or self.kind
        lat, field = self.lattice, self.field
        terms = {}
        coords = {}
        for d, labels in self.degrees.items():
            terms[d], coords[d] = _indec_sum(lat, labels, kind, field)
        diffs = {}
        for d, mat in self.diffs.items():
            if d not in terms or d + 1 not in terms:
                if not linalg.is_zero(mat):
                    raise ValueError("differential out of an empty term")
                continue
            comps = _block_components(mat, coords[d], coords[d + 1], terms[d], terms[d + 1])
            diffs[d] = RepMorphism(terms[d], terms[d + 1], comps)
        return RepComplex(terms, diffs)


def _block_components(mat, src_pos, tgt_pos, source: LatticeRep, target: LatticeRep):
    """Components of the map between sums of indecomposables whose block
    (i, j) is the scalar mat[i][j] times the canonical map.  Both the
    canonical map P_s -> P_t (the identity on up(s)) and I_s -> I_t (the
    identity on down(t)) are the identity exactly where both summands are
    present, which the positions of _indec_sum record."""
    comps = []
    for v in range(source.lattice.n):
        comp = linalg.zeros(target.dims[v], source.dims[v], source.field)
        for i, tp in enumerate(tgt_pos):
            if tp[v] is None:
                continue
            for j, sp in enumerate(src_pos):
                if mat[i][j] and sp[v] is not None:
                    comp[tp[v]][sp[v]] = mat[i][j]
        comps.append(comp)
    return comps


def _indec_sum(lat: Lattice, labels, kind, field):
    """Direct sum of P_l / I_l for l in labels; returns (rep, positions) with
    positions[j][v] the coordinate of summand j at element v (or None)."""
    n = lat.n
    pos = [[None] * n for _ in labels]
    dims = [0] * n
    for j, l in enumerate(labels):
        for v in range(n):
            alive = lat.leq_i(l, v) if kind == "proj" else lat.leq_i(v, l)
            if alive:
                pos[j][v] = dims[v]
                dims[v] += 1
    maps = {}
    one = field.one
    for (a, b) in lat.covers:
        m = linalg.zeros(dims[b], dims[a], field)
        for j in range(len(labels)):
            if pos[j][a] is not None and pos[j][b] is not None:
                m[pos[j][b]][pos[j][a]] = one
        maps[(a, b)] = m
    return LatticeRep(lat, dims, maps, field, validate=False), pos


class RepComplex:
    """Cochain complex of LatticeRep with RepMorphism differentials."""

    def __init__(self, terms, diffs, validate=True):
        self.terms = dict(terms)
        self.diffs = dict(diffs)
        if validate:
            for d, f in self.diffs.items():
                if d + 1 in self.diffs:
                    if not self.diffs[d + 1].compose(f).is_zero():
                        raise NotAComplex(f"d o d != 0 at degree {d}")

    def degrees(self):
        return sorted(self.terms)


def cohomology(cx: RepComplex) -> dict:
    """Pointwise ker/im quotients with induced cover maps, per degree."""
    out = {}
    for d in cx.degrees():
        term = cx.terms[d]
        n, field = term.lattice.n, term.field
        if d in cx.diffs:
            cycles = [linalg.kernel_basis(cx.diffs[d].components[v], term.dims[v], field) for v in range(n)]
        else:
            cycles = [linalg.identity(term.dims[v], field) for v in range(n)]
        if d - 1 in cx.diffs:
            f = cx.diffs[d - 1]
            bounds = [linalg.column_space_basis(f.components[v], f.source.dims[v], field) for v in range(n)]
        else:
            bounds = [[] for _ in range(n)]
        out[d] = subquotient(term, cycles, bounds)[0]
    return out


# -- projective resolutions -----------------------------------------------------


def _projective_cover(M: LatticeRep):
    """(labels, phi) with phi a projective cover sum(P_l) ->> M."""
    lat, fieldk = M.lattice, M.field
    gens = []  # (element index, generating vector in M_a)
    for a in range(lat.n):
        if M.dims[a] == 0:
            continue
        rad_cols = []
        for b in lat.lower_covers[a]:
            mat = M.maps[(b, a)]
            for j in range(M.dims[b]):
                rad_cols.append([mat[i][j] for i in range(M.dims[a])])
        rad_basis = (
            linalg.column_space_basis(
                [[col[i] for col in rad_cols] for i in range(M.dims[a])], len(rad_cols), fieldk
            )
            if rad_cols
            else []
        )
        std = linalg.identity(M.dims[a], fieldk)
        for k in linalg.extend_basis(rad_basis, std, M.dims[a], fieldk):
            gens.append((a, std[k]))
    labels = [a for a, _ in gens]
    P, pos = _indec_sum(lat, labels, "proj", fieldk)
    comps = []
    for v in range(lat.n):
        comp = linalg.zeros(M.dims[v], P.dims[v], fieldk)
        for j, (a, vec) in enumerate(gens):
            if pos[j][v] is None:
                continue
            img = linalg.mat_vec(M.canonical_map(a, v), vec, fieldk)
            for i in range(M.dims[v]):
                comp[i][pos[j][v]] = img[i]
        comps.append(comp)
    phi = RepMorphism(P, M, comps)
    for v in range(lat.n):  # cover must be onto
        if linalg.rank(phi.components[v], P.dims[v], fieldk) != M.dims[v]:
            raise SerrelabError("projective cover is not surjective")
    return labels, phi, P, pos


def _scalar_blocks(d: RepMorphism, src_labels, src_pos, tgt_labels, tgt_pos):
    """Extract the scalar of each block of a map between sums of projectives
    and assert the map is exactly its block reconstruction."""
    lat, fieldk = d.source.lattice, d.source.field
    mat = linalg.zeros(len(tgt_labels), len(src_labels), fieldk)
    for j, s in enumerate(src_labels):
        v = s  # generator of P_s sits at element s
        col = src_pos[j][v]
        for i, t in enumerate(tgt_labels):
            if tgt_pos[i][v] is not None:
                sc = d.components[v][tgt_pos[i][v]][col]
                if sc and not lat.leq_i(t, s):
                    raise SerrelabError("scalar block without a canonical map")
                mat[i][j] = sc
    recon = _block_components(mat, src_pos, tgt_pos, d.source, d.target)
    if not all(map(linalg.mat_eq, recon, d.components)):
        raise SerrelabError("map between projective sums is not block-scalar")
    return mat


def projective_resolution(M: LatticeRep) -> ScalarComplex:
    """Minimal projective resolution via iterated projective covers; lives in
    degrees -len..0."""
    if M.is_zero():
        raise ValueError("projective_resolution of the zero module")
    lat, fieldk = M.lattice, M.field
    degrees = {}
    diffs = {}
    current = M
    prev_incl = None
    prev_labels = prev_pos = None
    step = 0
    while not current.is_zero():
        labels, phi, P, pos = _projective_cover(current)
        degrees[-step] = labels
        if prev_incl is not None:
            d = prev_incl.compose(phi)
            diffs[-step] = _scalar_blocks(d, labels, pos, prev_labels, prev_pos)
        K, incl = kernel(phi)
        prev_incl = incl
        prev_labels, prev_pos = labels, pos
        current = K
        step += 1
        if step > 2 * lat.n + 4:
            raise SerrelabError("projective resolution did not terminate")
    return ScalarComplex(lat, "proj", degrees, diffs, fieldk, minimal=True)


# -- antichain (co)resolutions ---------------------------------------------------


def _koszul(lattice: Lattice, members_idx, base_idx, bound_op, field):
    """degrees i -> subsets of size i with their lattice bound, plus Koszul
    differentials from size i to size i-1 (entry sign (-1)^position)."""
    members = sorted(members_idx)
    subsets = {i: list(itertools.combinations(members, i)) for i in range(len(members) + 1)}
    labels = {}
    for i, subs in subsets.items():
        row = []
        for s in subs:
            if not s:
                row.append(base_idx)
            else:
                j = s[0]
                for c in s[1:]:
                    j = bound_op[j][c]
                row.append(j)
        labels[i] = row
    diffs = {}
    one = field.one
    for i in range(1, len(members) + 1):
        src, tgt = subsets[i], subsets[i - 1]
        index = {s: k for k, s in enumerate(tgt)}
        mat = linalg.zeros(len(tgt), len(src), field)
        for j, s in enumerate(src):
            for p in range(len(s)):
                t = s[:p] + s[p + 1:]
                sign = one if p % 2 == 0 else -one
                mat[index[t]][j] = sign
        diffs[i] = mat
    return labels, diffs


def _check_resolves(cx: ScalarComplex, target: LatticeRep, what: str):
    """The realized complex is exact away from degree 0, where its cohomology
    is isomorphic to target."""
    for d, h in cohomology(cx.realize()).items():
        if d == 0:
            if not is_isomorphic(h, target):
                raise SerrelabError(f"{what} does not resolve the module")
        elif not h.is_zero():
            raise SerrelabError(f"{what} not exact in degree {d}")


def antichain_resolution(lattice: Lattice, ac: Antichain, field=QQ, validate=True) -> ScalarComplex:
    """Closed-form Koszul resolution of the antichain module: degree -i holds
    one P_{join of S} per i-subset S, signs by the Koszul rule."""
    if ac.mode != "over":
        raise ValueError("antichain_resolution expects mode='over'")
    ac.validate(lattice)
    members = [lattice.index[m] for m in ac.members]
    labels, diffs = _koszul(lattice, members, lattice.index[ac.base], lattice.join_tab, field)
    degrees = {-i: labs for i, labs in labels.items()}
    sc_diffs = {-i: diffs[i] for i in diffs}
    cx = ScalarComplex(lattice, "proj", degrees, sc_diffs, field)
    if validate:
        _check_resolves(cx, antichain_module(lattice, ac, field), "antichain resolution")
    return cx


def antichain_coresolution(lattice: Lattice, ac: Antichain, field=QQ, validate=True) -> ScalarComplex:
    """Injective Koszul coresolution of a dual antichain module, degrees 0..|D|."""
    if ac.mode != "under":
        raise ValueError("antichain_coresolution expects mode='under'")
    ac.validate(lattice)
    members = [lattice.index[m] for m in ac.members]
    labels, diffs = _koszul(lattice, members, lattice.index[ac.base], lattice.meet_tab, field)
    degrees = dict(labels.items())
    # Koszul maps run from size i to size i-1; as a coresolution the arrows
    # go the other way, so transpose the sign matrices
    sc_diffs = {}
    for i, mat in diffs.items():
        sc_diffs[i - 1] = linalg.transpose(mat, len(degrees[i]))
    cx = ScalarComplex(lattice, "inj", degrees, sc_diffs, field)
    if validate:
        _check_resolves(cx, dual_antichain_module(lattice, ac, field), "antichain coresolution")
    return cx


def nakayama(cx: ScalarComplex) -> RepComplex:
    """Replace each P_a by I_a, keeping the scalar blocks along canonical maps."""
    if cx.kind != "proj":
        raise ValueError("nakayama expects a complex of projectives")
    return cx.realize(kind="inj")


# -- the derived Serre functor ----------------------------------------------------


def serre(M: LatticeRep):
    """The derived Serre functor: a StalkResult when the image is concentrated
    in one degree, else the full cohomology.

    When M is recognised as an antichain module, serre_on_support takes over
    on its support mask.  Every other input goes to serre_by_resolution, the
    oracle.
    """
    mask = _antichain_support(M)
    if mask is not None:
        return serre_on_support(M.lattice, mask, M.field)
    return serre_by_resolution(M)


def _antichain_support(M: LatticeRep):
    """The support mask of M when M is an antichain module: M is thin, its
    support has a minimum lo and is up(lo) minus the up-set of an antichain,
    and every cover map inside the support is nonzero.  Rescaling by the
    composites from lo then makes every such map the identity, so M is
    isomorphic to support_module on that mask.  Else None."""
    mask = thin_support(M)
    if mask is None or support_antichain(M.lattice, mask) is None:
        return None
    return mask


def serre_support(lat: Lattice, mask: int):
    """The closed form of the Serre functor on support masks: (mask', k) when
    mask is the support of the antichain module of an antichain C over lo and
    C is boolean, else None.

    The Koszul resolution of an antichain module is exact.  When C is boolean
    its Nakayama image is the injective Koszul coresolution of the dual
    antichain module of the coatom joins of C under their full join beta,
    shifted by k = |C|; mask' is that module's support, down(beta) minus the
    down-sets of the coatom joins.  No linear algebra is involved."""
    ac = support_antichain(lat, mask)
    if ac is None or len(ac[1]) > ANTICHAIN_GUARDRAIL:
        return None
    lo, members = ac
    gamma = boolean_joins(lo, members, lat.meet_tab, lat.join_tab)
    if gamma is None:
        return None
    full = len(gamma) - 1
    image = lat.down_mask[gamma[full]]
    for j in range(len(members)):
        image &= ~lat.down_mask[gamma[full ^ (1 << j)]]
    return image, len(members)


def serre_on_support(lat: Lattice, mask: int, field=QQ):
    """The Serre image of support_module(lat, mask, field), mask convex.

    The closed form when serre_support applies.  For any other antichain
    module with 2^|C| <= |L|, so that the Koszul resolution has no more
    summands than the lattice has elements, the cohomology of the Nakayama
    image of that resolution.  Everything else goes to serre_by_resolution,
    the oracle; only those two paths build a LatticeRep."""
    hit = serre_support(lat, mask)
    if hit is not None:
        return StalkResult(lat, hit[1], hit[0], field=field)
    ac = support_antichain(lat, mask)
    if ac is not None and 2 ** len(ac[1]) <= lat.n:
        lo, members = ac
        C = Antichain(frozenset(lat.labels[c] for c in members), lat.labels[lo], "over")
        return _serre_image(antichain_resolution(lat, C, field, validate=False))
    return serre_by_resolution(support_module(lat, mask, field))


def serre_by_resolution(M: LatticeRep):
    """Cohomology of nakayama(projective_resolution(M)); a StalkResult when
    concentrated in one degree, else the full cohomology."""
    if M.is_zero():
        raise ValueError("serre of the zero module")
    return _serre_image(projective_resolution(M))


def _serre_image(res: ScalarComplex):
    """Cohomology of the Nakayama image of a projective resolution: a
    StalkResult when concentrated in one degree, else the full cohomology."""
    H = cohomology(nakayama(res))
    nonzero = {d: h for d, h in H.items() if not h.is_zero()}
    if len(nonzero) == 1:
        ((d, h),) = nonzero.items()
        return StalkResult(h.lattice, -d, _antichain_support(h), h, h.field)
    return GeneralComplexResult(cohomology=nonzero)


def serre_walk(lattice: Lattice, mask: int, field=QQ):
    """The successive Serre images of support_module(lattice, mask, field):
    StalkResults, ending after the first GeneralComplexResult if one appears.
    Each step runs on the support mask of the previous image when it has
    one, so a LatticeRep is built only for a Koszul or oracle step.  An image
    without one is no antichain module (_serre_image has just tested it), so
    its step goes straight to serre_by_resolution."""
    res = serre_on_support(lattice, mask, field)
    while True:
        yield res
        if isinstance(res, GeneralComplexResult):
            return
        if res.support is None:
            res = serre_by_resolution(res.rep)
        else:
            res = serre_on_support(lattice, res.support, field)


def default_max_steps(lattice: Lattice) -> int:
    return 4 * (lattice.n + 10)


def serre_orbit(lattice: Lattice, a, max_steps=None, field=QQ) -> SerreOrbit:
    """Iterate the derived Serre functor from the injective at `a` until the
    orbit returns to it, a non-stalk image appears, or the budget runs out."""
    if max_steps is None:
        max_steps = default_max_steps(lattice)
    start_ref = IntervalRef(lattice.bottom_label, a)
    steps = []
    total = 0
    walk = serre_walk(lattice, lattice.down_mask[lattice.index[a]], field)
    for res in itertools.islice(walk, max_steps):
        if isinstance(res, GeneralComplexResult):
            return SerreOrbit(a, start_ref, steps, None, None, failure=res)
        steps.append(res)
        total += res.shift
        if res.interval == start_ref:
            return SerreOrbit(a, start_ref, steps, len(steps), total)
    raise MaxStepsExceeded(a, max_steps)
