"""Integer fast path: Cartan and Coxeter matrices of the incidence algebra
and the combinatorial Serre-formality check with Serre permutation
extraction, plus the agreement check against the derived machinery.

All matrices act on dimension vectors written in input element order.
"""

from __future__ import annotations

import math

from .errors import Disagreement, MaxStepsExceeded, SerrelabError
from .fields import QQ
from .lattice import Lattice, default_max_steps, support_interval
from .perm import cycle_decomposition


class CoxeterMatrix:
    __slots__ = ("matrix", "cartan", "columns")

    def __init__(self, matrix, cartan, columns):
        self.matrix = matrix
        self.cartan = cartan  # the rows of Omega, cartan_matrix(lat)
        self.columns = columns  # _columns(matrix): the nonzeros of each column


def _inj_vector(lat: Lattice, i: int):
    down = lat.down_mask[i]
    return [down >> v & 1 for v in range(lat.n)]


def _ones(lat: Lattice, mask):
    """The 0/1 vector of mask as a {index: value} dict of its nonzeros."""
    return dict.fromkeys(lat.mask_members(mask), 1)


def _moebius(lat: Lattice):
    """The rows {b: mu(a, b)} of the nonzero values of the Moebius function,
    by Rota's recursion mu(a, b) = -sum_{a <= c < b} mu(a, c), filled in
    along the linear extension and summed over the set bits of the interval
    mask where mu(a, .) is nonzero."""
    mu = []
    for a in range(lat.n):
        up, row, nonzero = lat.up_mask[a], {a: 1}, 1 << a
        for b in lat.topo:
            if b == a or not up >> b & 1:
                continue
            below, m = lat.interval_mask(a, b) & nonzero, 0
            while below:
                low = below & -below
                m -= row[low.bit_length() - 1]
                below ^= low
            if m:
                row[b] = m
                nonzero |= 1 << b
        mu.append(row)
    return mu


def cartan_matrix(lat: Lattice):
    """The rows of Omega = zeta^T for zeta[i][j] = [i <= j]: row i is the 0/1
    vector of down(i).  Omega^-1 = mu^T, and C = -Omega^T Omega^-1 sends
    [P_i] = zeta^T e_i to -zeta e_i = -[I_i], the construction-time ground
    truth; the untransposed zeta fails it on the bottom element's column as
    soon as n > 1."""
    return [_inj_vector(lat, i) for i in range(lat.n)]


def _columns(C):
    """The nonzero entries of each column of C, as (row, value) pairs."""
    return [[(i, x) for i, x in enumerate(col) if x] for col in zip(*C)]


def _apply_columns(cols, v):
    """C v for v a {index: value} dict of nonzeros: a sum of the columns of C
    over the support of v only, returned in the same sparse form."""
    out = {}
    for j, x in v.items():
        for i, c in cols[j]:
            out[i] = out.get(i, 0) + c * x
    return {i: y for i, y in out.items() if y}


def coxeter_matrix(lat: Lattice) -> CoxeterMatrix:
    """C[i][j] = -sum_{k >= i} mu(j, k), scattered from the sparse rows of mu.
    The [P_i] form a basis, so C[P_i] = -[I_i] for every i fixes C; that
    identity is checked on every build, on the columns that the trajectories
    then reuse."""
    n = lat.n
    C = [[0] * n for _ in range(n)]
    down = [lat.mask_members(m) for m in lat.down_mask]
    for j, row in enumerate(_moebius(lat)):
        for k, m in row.items():  # m = mu(j, k)
            for i in down[k]:
                C[i][j] -= m
    cols = _columns(C)
    for i in range(n):
        if _apply_columns(cols, _ones(lat, lat.up_mask[i])) != dict.fromkeys(down[i], -1):
            raise SerrelabError("Coxeter matrix failed its defining identity")
    return CoxeterMatrix(matrix=C, cartan=cartan_matrix(lat), columns=cols)


class Trajectory:
    __slots__ = ("element", "vectors", "steps", "sign", "target", "failed", "strict_target")

    def __init__(self, element, vectors, steps, sign, target, failed, strict_target=None):
        self.element = element
        self.vectors = vectors  # [I_i], C[I_i], ..., up to +-[P_target] or the failure point
        self.steps = steps  # n_i when found, else None
        self.sign = sign  # +1 / -1 at termination, else None
        self.target = target  # pi(element), else None
        self.failed = failed  # 'mixed-sign' when a vector is not weakly signed, else None
        # pi(element) under the strict reading, which accepts +[P_j] only;
        # None when the strict reading fails for this element
        self.strict_target = strict_target


class SerreFormalReport:
    __slots__ = ("lattice", "coxeter", "trajectories", "is_serre_formal", "permutation", "cycles",
                 "lcm_period", "strict_sign_differs")

    def __init__(self, lattice, coxeter, trajectories, is_serre_formal, permutation, cycles,
                 lcm_period, strict_sign_differs):
        self.lattice = lattice
        self.coxeter = coxeter
        self.trajectories = trajectories
        self.is_serre_formal = is_serre_formal
        self.permutation = permutation  # element -> pi(element), or None
        self.cycles = cycles  # None when permutation is
        self.lcm_period = lcm_period  # None when permutation is
        self.strict_sign_differs = strict_sign_differs

    @property
    def classification(self) -> str:
        return (
            "combinatorially Serre formal"
            if self.is_serre_formal
            else "not combinatorially Serre formal"
        )

    def to_json_dict(self):
        perm = self.permutation or {}
        return {
            "serre_formal": self.is_serre_formal,
            "classification": self.classification,
            "cartan_matrix": self.coxeter.cartan,
            "coxeter_matrix": self.coxeter.matrix,
            "permutation": {str(k): str(v) for k, v in perm.items()},
            "permutation_oneline": [str(perm[e]) for e in self.lattice.labels] if perm else None,
            "cycles": [[str(x) for x in c] for c in (self.cycles or [])],
            "lcm_period": self.lcm_period,
            "strict_sign_differs": self.strict_sign_differs,
            "trajectories": {
                str(t.element): {
                    "vectors": [list(v) for v in t.vectors],
                    "steps": t.steps,
                    "sign": t.sign,
                    "target": None if t.target is None else str(t.target),
                    "failed": t.failed,
                }
                for t in self.trajectories.values()
            },
        }


def _weakly_signed(v):
    return all(x >= 0 for x in v) or all(x <= 0 for x in v)


def _run_trajectories(lat: Lattice, cols, max_steps):
    """Iterate C on each [I_i] until it first hits +-[P_j] (the signed
    reading).  The strict reading, which accepts +[P_j] only, needs no walk
    of its own: C[P_j] = -[I_j] (checked in coxeter_matrix), so past a
    -[P_j] hit at step k the walk goes on as the trajectory of I_j from step
    k + 1.  It follows those hops to the first +[P] hit within max_steps.

    v is kept as a {index: value} dict of its nonzeros and C is applied over
    the support of v through cols, the nonzeros of its columns
    (CoxeterMatrix.columns); the recorded vectors are dense tuples."""
    n = lat.n
    ptable = {}
    for j in range(n):
        pv = _ones(lat, lat.up_mask[j])
        ptable[frozenset(pv.items())] = (j, 1)
        ptable[frozenset((u, -1) for u in pv)] = (j, -1)

    def dense(v):
        d = [0] * n
        for u, x in v.items():
            d[u] = x
        return tuple(d)

    out = {}
    for i, label in enumerate(lat.labels):
        v = _ones(lat, lat.down_mask[i])
        vectors = [dense(v)]
        for k in range(max_steps + 1):
            if not _weakly_signed(v.values()):
                out[label] = Trajectory(label, vectors, None, None, None, "mixed-sign")
                break
            hit = ptable.get(frozenset(v.items()))
            if hit is not None:
                j, sign = hit
                out[label] = Trajectory(label, vectors, k, sign, lat.labels[j], None)
                break
            v = _apply_columns(cols, v)
            vectors.append(dense(v))
        else:
            raise MaxStepsExceeded(label, max_steps)
    for traj in out.values():
        t, total = traj, 0
        while t.failed is None and total + t.steps <= max_steps:
            if t.sign == 1:
                traj.strict_target = t.target
                break
            total += t.steps + 1
            t = out[t.target]
    return out


def _as_permutation(lat: Lattice, targets):
    """targets (element -> target or None) if it is a permutation, else None."""
    if None in targets.values() or len(set(targets.values())) != lat.n:
        return None
    return targets


def combinatorial_serre_check(lat: Lattice, max_steps=None) -> SerreFormalReport:
    """Iterate the Coxeter matrix on each injective dimension vector until it
    hits +-[P_j], requiring weak positivity or negativity throughout."""
    if max_steps is None:
        max_steps = default_max_steps(lat)
    cox = coxeter_matrix(lat)
    trajs = _run_trajectories(lat, cox.columns, max_steps)
    perm = _as_permutation(lat, {e: t.target for e, t in trajs.items()})
    strict = _as_permutation(lat, {e: t.strict_target for e, t in trajs.items()})
    cycles = None if perm is None else cycle_decomposition(perm.__getitem__, lat.labels)
    return SerreFormalReport(
        lattice=lat,
        coxeter=cox,
        trajectories=trajs,
        is_serre_formal=perm is not None,
        permutation=perm,
        cycles=cycles,
        lcm_period=None if cycles is None else math.lcm(*map(len, cycles)),
        # would the strict (+[P_j] only) reading change the verdict?
        strict_sign_differs=(strict is None) != (perm is None),
    )


class CrossCheck:
    __slots__ = ("lattice", "ok", "per_element", "combinatorial")

    def __init__(self, lattice, ok, per_element, combinatorial):
        self.lattice = lattice
        self.ok = ok
        self.per_element = per_element
        self.combinatorial = combinatorial

    def to_json_dict(self):
        return {
            "agree": self.ok,
            "per_element": {str(k): v for k, v in self.per_element.items()},
            "combinatorial": self.combinatorial.to_json_dict(),
        }


def cross_check(lat: Lattice, max_steps=None, field=QQ) -> CrossCheck:
    """Run the Coxeter trajectories and the derived Serre iteration side by
    side on every injective; raise Disagreement on any mismatch."""
    from .derived import GeneralComplexResult, serre_walk

    report = combinatorial_serre_check(lat, max_steps)
    per = {}
    for i, label in enumerate(lat.labels):
        traj = report.trajectories[label]
        if traj.failed is not None:
            per[label] = {"combinatorial_failed": traj.failed}
            continue
        walk = serre_walk(lat, lat.down_mask[i], field)
        got, support, shifts = _inj_vector(lat, i), lat.down_mask[i], []
        for k in range(traj.steps + 1):
            if got != [abs(x) for x in traj.vectors[k]]:
                raise Disagreement(label, k, traj.vectors[k], got)
            if k == traj.steps:
                break
            res = next(walk)
            if isinstance(res, GeneralComplexResult):
                raise Disagreement(label, k, traj.vectors[k + 1], "non-stalk Serre image")
            shifts.append(res.shift)
            got, support = res.dimension_vector(), res.support
        if support != lat.up_mask[lat.index[traj.target]]:
            derived = support_interval(lat, support)
            raise Disagreement(label, traj.steps, f"projective {traj.target!r}", derived)
        per[label] = {
            "pi": str(traj.target),
            "steps": traj.steps,
            "derived_shifts": shifts,
        }
    return CrossCheck(lattice=lat, ok=True, per_element=per, combinatorial=report)
