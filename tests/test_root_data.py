"""The type-A engine, unchanged, on the root data of non-simply-laced and
type-D Dynkin quivers.

The engine reads three things off its quiver: the indecomposables, their
dimension vectors and the Euler form.  For a Dynkin quiver (a species, for
the non-simply-laced types) the indecomposables are the positive roots, so
a quiver here is built from a Cartan matrix alone: the roots by simple
reflections, and the symmetrized Euler form

    <x, y> = sum_i d_i x_i y_i - sum over arrows i -> j of d_i |a_ij| x_i y_j

for the symmetrizer d (d_i a_ij = d_j a_ji).  The counts are the
Coxeter-Catalan numbers of the type: Cat(W) torsion classes, and Cat^(2)(W)
mutable intervals and 2-cluster triples."""

import pytest

from serrelab.typea import _Engine

# Cartan matrices a_ij = <alpha_i^vee, alpha_j>, with their symmetrizers
CARTAN = {
    "G2": ([[2, -3], [-1, 2]], (1, 3)),
    "B3": ([[2, -1, 0], [-1, 2, -1], [0, -2, 2]], (2, 2, 1)),
    "D4": ([[2, -1, 0, 0], [-1, 2, -1, -1], [0, -1, 2, 0], [0, -1, 0, 2]], (1, 1, 1, 1)),
    "F4": ([[2, -1, 0, 0], [-1, 2, -1, 0], [0, -2, 2, -1], [0, 0, -1, 2]], (2, 2, 1, 1)),
}


class RootQuiver:
    """A Dynkin quiver given by its Cartan matrix and an orientation:
    orientation[k] = 'L' points the k-th edge (i, j), i < j, of the diagram
    (edges in lexicographic order) at i, 'R' at j."""

    def __init__(self, kind: str, orientation: str):
        self.cartan, self.d = CARTAN[kind]
        self.n = len(self.d)
        edges = [(i, j) for i in range(self.n) for j in range(i + 1, self.n) if self.cartan[i][j]]
        assert len(orientation) == len(edges)
        self.arrows = [(j, i) if o == "L" else (i, j) for (i, j), o in zip(edges, orientation)]
        for i in range(self.n):
            for j in range(self.n):
                assert self.d[i] * self.cartan[i][j] == self.d[j] * self.cartan[j][i]

    def indecs(self):
        """The positive roots by simple reflections, by height then
        coordinates."""
        simple = [tuple(int(i == j) for j in range(self.n)) for i in range(self.n)]
        roots, todo = set(simple), list(simple)
        while todo:
            beta = todo.pop()
            for i in range(self.n):
                c = sum(self.cartan[i][j] * beta[j] for j in range(self.n))
                image = tuple(b - c * (k == i) for k, b in enumerate(beta))
                if min(image) >= 0 and any(image) and image not in roots:
                    roots.add(image)
                    todo.append(image)
        return sorted(roots, key=lambda r: (sum(r), r))

    def dimvec(self, root):
        return root

    def _euler(self, x, y):
        s = sum(d * a * b for d, a, b in zip(self.d, x, y))
        for i, j in self.arrows:
            s -= self.d[i] * abs(self.cartan[i][j]) * x[i] * y[j]
        return s


# kind, orientations, roots, torsion classes, Cat^(2), Serre cycles (count, length)
CASES = [
    ("G2", ("L", "R"), 6, 8, 21, (3, 7)),
    ("B3", ("LR",), 9, 20, 84, (12, 7)),
    ("D4", ("LRL", "RRR"), 12, 50, 336, (48, 7)),
    ("F4", ("LRL",), 24, 105, 780, (60, 13)),
]


@pytest.mark.parametrize(
    "kind, orientation, roots, tors, two_catalan, cycles",
    [(k, o, *rest) for k, os, *rest in CASES for o in os],
    ids=[f"{k}-{o}" for k, os, *_ in CASES for o in os],
)
def test_engine_runs_on_root_data(kind, orientation, roots, tors, two_catalan, cycles):
    q = RootQuiver(kind, orientation)
    eng = _Engine(q)
    assert eng.N == roots
    assert len(eng.tors_masks) == tors
    ivs = eng.mutable_intervals()
    triples = eng.cluster_triples()
    assert len(ivs) == len(triples) == two_catalan
    # interval_of maps the 2-cluster triples one to one onto the intervals
    images = [eng.interval_of(t).key for t in triples]
    assert len(set(images)) == len(images) and set(images) == set(ivs)
    count, length = cycles
    assert [len(c) for c in eng.serre_cycles] == [length] * count
    assert 3 * len(eng.interval_mutations()) == q.n * len(ivs)
    assert eng.rotation_check()
