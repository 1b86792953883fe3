"""The type-A engine, unchanged, on the root data of non-simply-laced and
type-D Dynkin quivers.

The engine reads two things off its DynkinQuiver: the indecomposables and
the Euler form.  For a Dynkin quiver (a species, for the non-simply-laced
types) the indecomposables are the positive roots, their own dimension
vectors, so a quiver is built from a Cartan matrix alone: the roots by
simple reflections, and the symmetrized Euler form

    <x, y> = sum_i d_i x_i y_i - sum over arrows i -> j of d_i |a_ij| x_i y_j

for the symmetrizer d (d_i a_ij = d_j a_ji).  The counts are the
Coxeter-Catalan numbers of the type: Cat(W) torsion classes, and Cat^(2)(W)
mutable intervals and 2-cluster triples, which the quiver reads off its
root heights.  serre_orbit_stats reads the Coxeter number h = 2N/n off the
root count N, so its period bound is the type's 2h+2 and every Serre cycle
divides it."""

import pytest

from serrelab.typea import DynkinQuiver, _engine, run_typea_suite, serre_orbit_stats

# Cartan matrices a_ij = <alpha_i^vee, alpha_j>, with their symmetrizers
CARTAN = {
    "G2": ([[2, -3], [-1, 2]], (1, 3)),
    "B3": ([[2, -1, 0], [-1, 2, -1], [0, -2, 2]], (2, 2, 1)),
    "C3": ([[2, -1, 0], [-1, 2, -2], [0, -1, 2]], (1, 1, 2)),
    "D4": ([[2, -1, 0, 0], [-1, 2, -1, -1], [0, -1, 2, 0], [0, -1, 0, 2]], (1, 1, 1, 1)),
    "F4": ([[2, -1, 0, 0], [-1, 2, -1, 0], [0, -2, 2, -1], [0, 0, -1, 2]], (2, 2, 1, 1)),
}


def root_quiver(kind: str, orientation: str) -> DynkinQuiver:
    cartan, d = CARTAN[kind]
    n = len(d)
    for i in range(n):
        for j in range(n):
            assert d[i] * cartan[i][j] == d[j] * cartan[j][i]
    return DynkinQuiver(cartan, d, orientation)


# kind, orientations, roots, torsion classes, Cat^(2), Serre cycles (count,
# length), 2h+2
CASES = [
    ("G2", ("L", "R"), 6, 8, 21, (3, 7), 14),
    ("B3", ("LR",), 9, 20, 84, (12, 7), 14),
    ("C3", ("LR", "RL"), 9, 20, 84, (12, 7), 14),
    ("D4", ("LRL", "RRR"), 12, 50, 336, (48, 7), 14),
    ("F4", ("LRL",), 24, 105, 780, (60, 13), 26),
]


@pytest.mark.parametrize(
    "kind, orientation, roots, tors, two_catalan, cycles, period",
    [(k, o, *rest) for k, os, *rest in CASES for o in os],
    ids=[f"{k}-{o}" for k, os, *_ in CASES for o in os],
)
def test_engine_runs_on_root_data(kind, orientation, roots, tors, two_catalan, cycles, period):
    q = root_quiver(kind, orientation)
    eng = _engine(q)
    assert eng.N == roots
    assert len(eng.tors_masks) == tors == q.fuss_catalan(1)
    ivs = eng.mutable_intervals
    triples = eng.cluster_triples
    assert len(ivs) == len(triples) == two_catalan
    # interval_of maps the 2-cluster triples one to one onto the intervals
    images = [eng.interval_of(t).key for t in triples]
    assert len(set(images)) == len(images) and set(images) == set(ivs)
    count, length = cycles
    assert [len(c) for c in eng.serre_cycles] == [length] * count
    # the period and rank-sum checks on the type's own h and N
    stats = serre_orbit_stats(q)
    assert stats["period_bound"] == period
    assert stats["cycle_lengths"] == [length] * count
    assert 3 * len(eng.interval_mutations) == q.n * len(ivs)
    assert eng.rotation_check()
    # the whole suite, with Cat^(2)(W) read off the type's own root heights
    suite = run_typea_suite(q, categorical=False)
    assert suite["checks"]["counts"]["expected_two_catalan"] == two_catalan
    assert suite["ok"], suite["checks"]
