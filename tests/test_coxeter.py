import json
from types import SimpleNamespace

import pytest

from serrelab import coxeter, derived, linalg
from serrelab.coxeter import (
    cartan_matrix,
    combinatorial_serre_check,
    coxeter_matrix,
    cross_check,
)
from serrelab.derived import GeneralComplexResult, StalkResult
from serrelab.errors import Disagreement, MaxStepsExceeded, SerrelabError
from serrelab.lattice import boolean_lattice, chain_product
from serrelab.typea import gen_tamari, gen_type_i

from oracles import chain
from record_golden import run_request


def test_cartan_two_chain():
    lat = chain(2)
    cart = cartan_matrix(lat)
    flat = sorted(x for row in cart.matrix for x in row)
    assert flat == [0, 1, 1, 1]  # zeta pattern of a chain, up to orientation
    assert linalg.mat_mul(cart.matrix, cart.inverse) == linalg.identity(2)


def test_cartan_counts_comparable_pairs():
    b2 = boolean_lattice(2)
    cart = cartan_matrix(b2)
    assert sum(x for row in cart.matrix for x in row) == 9


def test_cartan_unimodular(pentagon, appendix9):
    for lat in (pentagon, appendix9, boolean_lattice(3)):
        cart = cartan_matrix(lat)
        assert linalg.mat_mul(cart.matrix, cart.inverse) == linalg.identity(lat.n)


def _dense_moebius(lat):
    """mu[a][b] by the defining recursion, dense: the independent oracle of
    the Cartan inverse and of the Coxeter matrix."""
    n = lat.n
    mu = [[0] * n for _ in range(n)]
    for a in range(n):
        mu[a][a] = 1
        # fill upward along the linear extension
        for b in lat.topo:
            if b == a or not lat.leq_i(a, b):
                continue
            mu[a][b] = -sum(
                mu[a][c] for c in range(n) if lat.leq_i(a, c) and lat.leq_i(c, b) and c != b
            )
    return mu


def _m3():
    from serrelab.lattice import build_lattice

    return build_lattice(
        ["0", "x", "y", "z", "1"],
        [("0", "x"), ("0", "y"), ("0", "z"), ("x", "1"), ("y", "1"), ("z", "1")],
    )


def test_moebius_inverse():
    # the Cartan inverse is the Moebius-function matrix
    m3 = _m3()
    assert _dense_moebius(m3)[m3.bottom][m3.top] == 2
    for lat in _differential_lattices() + [m3]:
        n = lat.n
        mu = _dense_moebius(lat)
        cart = cartan_matrix(lat)
        # fixed convention: Omega = zeta^T, so its inverse is mu^T
        assert cart.matrix == [[1 if lat.leq_i(j, i) else 0 for j in range(n)] for i in range(n)]
        assert cart.inverse == [[mu[j][i] for j in range(n)] for i in range(n)]


def test_coxeter_identity(pentagon, appendix9, kite):
    for lat in (pentagon, appendix9, kite, chain_product([3, 2])):
        C = coxeter_matrix(lat).matrix
        for i in range(lat.n):
            pv = [1 if lat.leq_i(i, v) else 0 for v in range(lat.n)]
            iv = [1 if lat.leq_i(v, i) else 0 for v in range(lat.n)]
            assert linalg.mat_vec(C, pv) == [-x for x in iv]


def test_coxeter_one_element():
    lat = chain(1)
    assert coxeter_matrix(lat).matrix == [[-1]]


def test_appendix_permutation(appendix9):
    rep = combinatorial_serre_check(appendix9)
    assert rep.is_serre_formal
    assert rep.permutation == {
        "1": "9", "2": "2", "3": "3", "4": "4", "5": "7",
        "6": "6", "7": "5", "8": "8", "9": "1",
    }
    assert sorted(map(sorted, rep.cycles)) == sorted(
        map(sorted, [["1", "9"], ["2"], ["3"], ["4"], ["5", "7"], ["6"], ["8"]])
    )
    assert rep.lcm_period == 2
    # the strict +[P] reading would reject this lattice; the +- reading is used
    assert rep.strict_sign_differs


def test_coxeter_action_on_appendix_injective(appendix9):
    # one Coxeter step on [I(1)] lands on minus the class of the module N
    C = coxeter_matrix(appendix9).matrix
    i1 = [1 if appendix9.leq_i(v, appendix9.index["1"]) else 0 for v in range(9)]
    step = linalg.mat_vec(C, i1)
    assert [abs(x) for x in step] == [0, 0, 0, 1, 1, 0, 1, 0, 0]


def test_divisor_lattices_pass():
    for sizes in [(2, 2), (2, 3), (4, 3), (2, 2, 2)]:
        rep = combinatorial_serre_check(chain_product(sizes))
        assert rep.is_serre_formal, sizes


def test_kite_fails(kite):
    rep = combinatorial_serre_check(kite)
    assert not rep.is_serre_formal


def test_max_steps_exceeded(kite):
    # with a tiny budget even good lattices run out before closing
    with pytest.raises(MaxStepsExceeded):
        combinatorial_serre_check(chain_product([4, 4]), max_steps=1)


def test_cross_check_agreement(pentagon, appendix9):
    for lat in (pentagon, appendix9, boolean_lattice(2), chain_product([3, 2]),
                gen_type_i(3), gen_type_i(4)):
        cc = cross_check(lat)
        assert cc.ok
        for label, entry in cc.per_element.items():
            assert "combinatorial_failed" not in entry


def test_cross_check_appendix_shifts(appendix9):
    cc = cross_check(appendix9)
    assert cc.per_element["1"] == {"pi": "9", "steps": 2, "derived_shifts": [2, 2]}
    assert cc.per_element["9"] == {"pi": "1", "steps": 0, "derived_shifts": []}


def test_cross_check_records_combinatorial_failures(kite):
    cc = cross_check(kite)
    failed = [k for k, v in cc.per_element.items() if "combinatorial_failed" in v]
    assert failed  # the kite is not Serre formal, and this is reported not hidden


def test_products_of_serre_formal_lattices(pentagon):
    # Serre formality is preserved under lattice products
    from serrelab.lattice import product

    prod = product(pentagon, chain(2))
    rep = combinatorial_serre_check(prod)
    assert rep.is_serre_formal
    assert cross_check(prod).ok


def _all_b3_sublattices():
    import itertools as it

    seen = set()
    out = []
    for bits in range(1, 1 << 8):
        members = {i for i in range(8) if bits >> i & 1}
        while True:
            new = set(members)
            for a, b in it.product(members, repeat=2):
                new.add(a & b)
                new.add(a | b)
            if new == members:
                break
            members = new
        key = frozenset(members)
        if key in seen:
            continue
        seen.add(key)
        elems = sorted(members)
        covers = [
            (str(a), str(b))
            for a in elems
            for b in elems
            if a != b
            and a & b == a
            and not any(c != a and c != b and a & c == a and c & b == c for c in elems)
        ]
        from serrelab.lattice import build_lattice

        out.append(build_lattice([str(x) for x in elems], covers))
    return out


def test_distributive_classification_sweep():
    # on every sublattice of B3 (all distributive), combinatorial Serre
    # formality coincides exactly with being a divisor lattice
    from oracles import classify

    lattices = _all_b3_sublattices()
    assert len(lattices) == 73
    for lat in lattices:
        c = classify(lat)
        assert c.is_distributive
        formal = combinatorial_serre_check(lat).is_serre_formal
        assert formal == c.is_divisor_lattice, lat.labels


def test_cross_check_sweep_b3_sublattices():
    # wherever the combinatorial check succeeds, the derived machinery agrees
    formal = 0
    for lat in _all_b3_sublattices():
        if combinatorial_serre_check(lat).is_serre_formal:
            assert cross_check(lat).ok
            formal += 1
    assert formal == 67


def _derived_steps(monkeypatch, step):
    """cross_check's derived side (derived.serre_walk, imported at call time)
    yields step(lat, res) in place of each true Serre image res."""
    walk = derived.serre_walk

    def patched(lat, mask, field):
        return (step(lat, res) for res in walk(lat, mask, field))

    monkeypatch.setattr(derived, "serre_walk", patched)


def _on_support(support):
    """A step with the true shift and dimension vector but the support mask
    support(lat): the final check reads the mask alone."""
    return lambda lat, res: SimpleNamespace(
        shift=res.shift, dimension_vector=res.dimension_vector, support=support(lat)
    )


@pytest.mark.parametrize(
    "support, derived_side",
    [(lambda lat: lat.down_mask[0], r"\('0', '0'\)"), (lambda lat: None, "None")],
    ids=["interval", "no-mask"],
)
def test_cross_check_rejects_a_wrong_final_support(monkeypatch, support, derived_side):
    # on C_2, S(I_0) = S(S_0) = P_1[1]; a step on S_0's mask, or on an oracle
    # stalk with no mask, is named by its interval labels or None
    _derived_steps(monkeypatch, _on_support(support))
    want = f"element '0', step 1: combinatorial projective '1' vs derived {derived_side}$"
    with pytest.raises(Disagreement, match=want):
        cross_check(chain(2))


def test_cross_check_rejects_a_wrong_dimension_vector(monkeypatch):
    # S(S_0) = P_1[1] on C_2, given here on S_0's mask
    _derived_steps(monkeypatch, lambda lat, res: StalkResult(lat, res.shift, lat.down_mask[0]))
    want = r"element '0', step 1: combinatorial \(0, 1\) vs derived \[1, 0\]$"
    with pytest.raises(Disagreement, match=want):
        cross_check(chain(2))


def test_cross_check_rejects_a_non_stalk_image(monkeypatch):
    _derived_steps(monkeypatch, lambda lat, res: GeneralComplexResult({-1: [1, 0], 0: [0, 1]}))
    with pytest.raises(Disagreement, match="element '0', step 0: .* vs derived non-stalk Serre image$"):
        cross_check(chain(2))


def test_crosscheck_command_reports_a_disagreement(monkeypatch):
    _derived_steps(monkeypatch, _on_support(lambda lat: lat.down_mask[0]))
    code, out = run_request("crosscheck --gen chainprod 2")
    assert code == 2
    result = json.loads(out)["result"]
    assert result["agree"] is False
    assert result["disagreement"] == (
        "disagreement at element 'e0', step 1: combinatorial projective 'e1' vs derived ('e0', 'e0')"
    )


def test_diamond_m3_not_serre_formal():
    assert not combinatorial_serre_check(_m3()).is_serre_formal


def test_trajectories_unisigned(appendix9):
    rep = combinatorial_serre_check(appendix9)
    for t in rep.trajectories.values():
        for v in t.vectors:
            assert all(x >= 0 for x in v) or all(x <= 0 for x in v)
            assert any(v)


# -- differential test of the fused Coxeter pass --------------------------------


def _oracle_walk(lat, C, i, max_steps, signs):
    """One element's walk as its own loop: (vectors, steps, sign, target,
    failed), or None when no accepted [P_j] comes within max_steps.  signs
    (1, -1) accept +-[P_j], (1,) only +[P_j]."""
    n = lat.n
    proj = {tuple(1 if lat.leq_i(j, v) else 0 for v in range(n)): j for j in range(n)}
    v = [1 if lat.leq_i(u, i) else 0 for u in range(n)]
    vectors = [tuple(v)]
    for k in range(max_steps + 1):
        if not any(v):
            raise SerrelabError("vanished")
        if not (all(x >= 0 for x in v) or all(x <= 0 for x in v)):
            return vectors, None, None, None, "mixed-sign"
        hits = [(s, proj[tuple(s * x for x in v)]) for s in signs if tuple(s * x for x in v) in proj]
        if hits:
            s, j = hits[0]
            return vectors, k, s, lat.labels[j], None
        v = [sum(c * x for c, x in zip(row, v)) for row in C]
        vectors.append(tuple(v))
    return None


def _oracle_reading(lat, C, max_steps, signs):
    """One reading, element by element: element -> _oracle_walk."""
    out = {}
    for i, label in enumerate(lat.labels):
        walk = _oracle_walk(lat, C, i, max_steps, signs)
        if walk is None:
            raise MaxStepsExceeded(label, max_steps)
        out[label] = walk
    return out


def _oracle_permutation(lat, reading):
    perm = {e: r[3] for e, r in reading.items()}
    if None in perm.values() or len(set(perm.values())) != lat.n:
        return None
    return perm


def _differential_lattices():
    import glob
    import os

    from conftest import FIXTURES
    from serrelab.lattice import load_lattice
    from serrelab.typea import all_orientations, quiver_a, tors_lattice

    lats = [load_lattice(p) for p in sorted(glob.glob(os.path.join(FIXTURES, "*.json")))]
    lats += [gen_tamari(n) for n in range(1, 6)]
    lats += [gen_type_i(m) for m in range(2, 7)]
    lats += [tors_lattice(quiver_a(3, o)) for o in all_orientations(3)]
    return lats + _all_b3_sublattices()


def test_fused_trajectory_pass_matches_two_loop_oracle(pentagon, kite):
    from serrelab.lattice import product
    from serrelab.typea import quiver_a, tors_lattice

    # 27 elements; 25 elements, 5 of them with mixed-sign trajectories; and a
    # non-linear A4 orientation (42 elements; the linear one is Tamari(5))
    extra = [chain_product([3, 3, 3]), product(pentagon, kite), tors_lattice(quiver_a(4, "LRL"))]
    lattices = _differential_lattices() + extra
    differs = 0
    for lat in lattices:
        n = lat.n
        mu = _dense_moebius(lat)
        # C = -zeta mu^T
        C = [[-sum(mu[j][k] for k in range(n) if lat.leq_i(i, k)) for j in range(n)] for i in range(n)]
        for max_steps in (4 * (n + 10), 3):
            try:
                signed = _oracle_reading(lat, C, max_steps, (1, -1))
            except MaxStepsExceeded:
                with pytest.raises(MaxStepsExceeded):
                    combinatorial_serre_check(lat, max_steps)
                continue
            try:
                strict_perm = _oracle_permutation(lat, _oracle_reading(lat, C, max_steps, (1,)))
            except (MaxStepsExceeded, SerrelabError):
                strict_perm = None
            rep = combinatorial_serre_check(lat, max_steps)
            assert rep.coxeter.matrix == C
            got = {e: (t.vectors, t.steps, t.sign, t.target, t.failed) for e, t in rep.trajectories.items()}
            assert got == signed, lat.labels
            assert rep.permutation == _oracle_permutation(lat, signed)
            assert rep.strict_sign_differs == ((strict_perm is None) != (rep.permutation is None))
            if strict_perm is not None:
                assert {e: t.strict_target for e, t in rep.trajectories.items()} == strict_perm
            differs += rep.strict_sign_differs
    assert len(lattices) == 7 + 5 + 5 + 4 + 3 + 73
    assert differs  # the strict reading changes some verdicts in this sweep


def test_each_strict_target_is_its_own_plus_p_only_walk():
    # the strict target of an element depends on that element alone, not on
    # whether the strict reading failed on an earlier one
    for lat in _differential_lattices():
        C = coxeter_matrix(lat).matrix
        for max_steps in (4 * (lat.n + 10), 3):
            try:
                rep = combinatorial_serre_check(lat, max_steps)
            except MaxStepsExceeded:
                continue
            for i, label in enumerate(lat.labels):
                walk = _oracle_walk(lat, C, i, max_steps, (1,))
                want = None if walk is None else walk[3]
                assert rep.trajectories[label].strict_target == want, (lat.labels, label, max_steps)
    # Tamari(5): all 42 signed targets, 26 of them strict
    trajs = combinatorial_serre_check(gen_tamari(5)).trajectories.values()
    assert sum(t.strict_target is not None for t in trajs) == 26


def test_the_trajectory_pass_applies_c_once_per_step(monkeypatch, appendix9):
    # one first-hit walk per element: no step past its +-[P_j]
    from serrelab.lattice import default_max_steps, product

    apply, calls = coxeter._apply_columns, []
    monkeypatch.setattr(coxeter, "_apply_columns", lambda cols, v: calls.append(1) or apply(cols, v))
    for lat, steps in ((gen_tamari(5), 162), (product(appendix9, appendix9), 221)):
        C = coxeter_matrix(lat).matrix
        calls.clear()
        trajs = coxeter._run_trajectories(lat, C, default_max_steps(lat))
        assert len(calls) == sum(t.steps for t in trajs.values()) == steps
