import gc
import math
import random
import weakref
from fractions import Fraction

import pytest

from tpoly import combos, dwork, hodge, lattice
from tpoly.lattice import isosceles

D7 = isosceles(7)
D13 = isosceles(13)

EXAMPLE_BETA = {
    (2, 6): (1, 2), (3, 5): (1, 1), (3, 6): (2, 1), (5, 3): (4, 2),
    (5, 6): (1, 5), (6, 2): (5, 1), (6, 3): (4, 1), (6, 5): (1, 4),
    (6, 6): (2, 4),
}


def test_labels():
    labels2 = combos.label_T1prime(isosceles(2))
    assert len(labels2) == 6
    labels7 = combos.label_T1prime(D7)
    assert len(labels7) == 36
    assert labels7[0] == (7, 0) and labels7[1] == (0, 7)
    assert combos.label_T1prime(D7) == labels7  # stable


def test_ordinary_case_single_empty_bijection():
    bs = combos.special_bijections(isosceles(5), 11)
    assert len(bs) == 1 and bs[0].sign == 1 and bs[0].pairs == ()


def test_example_bijection_enumerated():
    bs = combos.special_bijections(D7, 17)
    assert any(b.as_dict() == EXAMPLE_BETA for b in bs)
    # every difference vector is inside the closed triangle
    for b in bs[:50]:
        for v in b.vectors:
            assert v[0] >= 0 and v[1] >= 0 and v[0] + v[1] <= 7


def test_budget_is_all_or_nothing():
    with pytest.raises(combos.EnumerationBudgetExceeded):
        combos.special_bijections(D7, 17, budget=50)


def test_special_bijections_freed_without_cyclic_collection():
    gc.disable()
    try:
        bs = combos.special_bijections(D7, 17)
        first = weakref.ref(bs[0])
        del bs
        assert first() is None
    finally:
        gc.enable()


def _ref_make_special(delta, y0, mapping):
    """The per-bijection construction before the shared maker."""
    pairs = tuple((pt, mapping[pt]) for pt in y0)
    index = {pt: i for i, pt in enumerate(y0)}
    perm = [index[lattice.mirror(delta, mapping[pt])] for pt in y0]
    vecs = tuple(sorted((pt[0] - q[0], pt[1] - q[1]) for pt, q in pairs))
    return combos.SpecialBijection(pairs, combos.permutation_sign(perm), vecs)


def test_special_bijections_match_reference_7_17():
    _, _, y0, _ = lattice.split_T1(D7, 17)
    bs = combos.special_bijections(D7, 17)
    assert len(bs) == 12096
    for b in bs:
        ref = _ref_make_special(D7, y0, b.as_dict())
        assert (b.pairs, b.sign, b.vectors) == \
            (ref.pairs, ref.sign, ref.vectors)
    # equal pairs, vectors and vector multisets are one object each
    for part in (lambda b: b.pairs, lambda b: b.vectors,
                 lambda b: (b.vectors,)):
        items = [t for b in bs for t in part(b)]
        assert len({id(t) for t in items}) == len(set(items))


def test_combo_correspondence_roundtrip():
    # bijection -> combo -> bijection is the identity
    d = 7
    p = 17
    bs = combos.special_bijections(D7, p)
    pprime = pow(p, -1, d)
    _, t12, _, _ = lattice.split_T1(D7, p)
    rng = random.Random(1)
    for b in rng.sample(bs, 40) + [next(b for b in bs
                                        if b.as_dict() == EXAMPLE_BETA)]:
        data = combos.combo_from_bijection(D7, p, b)
        tau_inv = {img: src for src, img in data.tau}
        # beta(P) = tau^{-1}((p' P)%) recovers the bijection
        for pt, target in b.as_dict().items():
            pre = ((pprime * pt[0]) % d, (pprime * pt[1]) % d)
            assert pre in t12
            assert tau_inv[pre] == target


def test_combo_degree_and_signs():
    p = 17
    t1 = lattice.enumerate_T(D7, 1)
    h1 = hodge.minimal_h(D7, p, t1)
    bs = combos.special_bijections(D7, p)
    rng = random.Random(2)
    exp1, exp2 = combos.expected_vertex_exponents(D7, p)
    for b in rng.sample(bs, 60):
        data = combos.combo_from_bijection(D7, p, b)
        assert data.total_degree == h1          # special => optimal
        assert data.tau_sign == b.sign
        assert data.exponents[0] == exp1 and data.exponents[1] == exp2


def _dense_combo_from_bijection(delta, p, beta):
    """combo_from_bijection as it was written over dense expansion
    vectors, one 36-term sum per coordinate and a factorial per entry."""
    d = delta.d
    labels = combos.label_T1prime(delta)
    label_idx = {q: i for i, q in enumerate(labels)}
    t11, t12, _, _ = lattice.split_T1(delta, p)
    beta_map = beta.as_dict()
    t1 = lattice.enumerate_T(delta, 1)
    tau_inv = {}
    b_vectors = {}
    for pt in t1:
        img = ((p * pt[0]) % d, (p * pt[1]) % d)
        i1, i2 = (p * pt[0]) // d, (p * pt[1]) // d
        vec = [0] * len(labels)
        vec[0] = i1
        vec[1] = i2
        if pt in t11:
            src = img
        else:
            src = beta_map[img]
            extra = (img[0] - src[0], img[1] - src[1])
            vec[label_idx[extra]] += 1
        tau_inv[pt] = src
        b_vectors[src] = tuple(vec)
        target = (p * pt[0] - src[0], p * pt[1] - src[1])
        combo = (sum(v * q[0] for v, q in zip(vec, labels)),
                 sum(v * q[1] for v, q in zip(vec, labels)))
        if combo != target:
            raise AssertionError("combo constraint fails")
    index = {pt: i for i, pt in enumerate(t1)}
    perm = [index[tau_inv[pt]] for pt in t1]
    tau_pairs = tuple(sorted(((src, pt) for pt, src in tau_inv.items()),
                             key=lambda pr: delta.canonical_key(pr[0])))
    exps = [0] * len(labels)
    denom = 1
    total = 0
    for vec in b_vectors.values():
        for i, b in enumerate(vec):
            exps[i] += b
            total += b
            if b >= p:
                raise AssertionError("expansion entry reached p")
            denom *= math.factorial(b)
    return combos.ComboData(tau_pairs, combos.permutation_sign(perm),
                            b_vectors, tuple(exps), Fraction(1, denom), total)


def test_sparse_combo_matches_dense_reference():
    # every special bijection at (5,19), and 500 seeded draws at (7,17)
    d5 = isosceles(5)
    cases = [(d5, 19, b) for b in combos.special_bijections(d5, 19)]
    assert len(cases) == 426
    sc = combos.SpecialCount(D7, 17)
    rng = random.Random(4)
    cases += [(D7, 17, sc.sample(rng)) for _ in range(500)]
    for delta, p, b in cases:
        data = combos.combo_from_bijection(delta, p, b)
        # equal b_vectors: full-length tuples, zeros included
        assert data == _dense_combo_from_bijection(delta, p, b)


def test_v_special_ordinary_single_term():
    d5 = isosceles(5)
    vs = combos.v_special(d5, 11)
    assert len(vs) == 1
    (exps, coeff), = vs.items()
    exp1, exp2 = combos.expected_vertex_exponents(d5, 11)
    assert exps[0] == exp1 and exps[1] == exp2
    assert sum(exps[2:]) == 0
    # coefficient is +-1/prod(b!) with p-unit denominator
    assert abs(coeff.numerator) == 1 and coeff.denominator % 11 != 0
    # explicit value: product over T1 of (2x)!(2y)! since p = 1 + 2d
    denom = 1
    for q in lattice.enumerate_T(d5, 1):
        denom *= math.factorial(2 * q[0]) * math.factorial(2 * q[1])
    assert abs(coeff) == Fraction(1, denom)


def test_v_special_denominators_p_units_7_17():
    vs = combos.v_special(D7, 17)
    assert all(v.denominator % 17 != 0 for v in vs.values())
    assert len(vs) > 1


def test_special_classes_match_enumeration_7_17():
    # the DP against the bijection-by-bijection oracle
    p = 17
    bs = combos.special_bijections(D7, p)
    oracle = combos.relatedness_classes(bs)
    classes = combos.special_classes(D7, p)
    assert [c.vectors for c in classes] == [cl[0].vectors for cl in oracle]
    assert [c.size for c in classes] == [len(cl) for cl in oracle]
    assert [c.sign_balance for c in classes] \
        == [sum(b.sign for b in cl) for cl in oracle]
    by_vectors = {c.vectors: c for c in classes}
    k = combos.combo_denominator(D7, p)
    for b in random.Random(3).sample(bs, 100):
        data = combos.combo_from_bijection(D7, p, b)
        assert b.sign * data.coefficient == Fraction(b.sign, k)
        assert by_vectors[b.vectors].exponents == data.exponents


@pytest.mark.parametrize("d,p", [(5, 19), (7, 17), (7, 53)])
def test_one_class_dp_matches_enumeration(d, p):
    # special_classes(vectors=...) against the bijection-by-bijection oracle
    delta = isosceles(d)
    k = combos.combo_denominator(delta, p)
    full = {c.vectors: c for c in combos.special_classes(delta, p)}
    for cl in combos.relatedness_classes(combos.special_bijections(delta, p)):
        one, = combos.special_classes(delta, p, vectors=cl[0].vectors)
        assert one.vectors == cl[0].vectors
        assert one.size == len(cl)
        assert one.sign_balance == sum(b.sign for b in cl)
        assert one.coefficient == Fraction(one.sign_balance, k)
        assert one.exponents == full[one.vectors].exponents


def test_one_class_dp_on_neighbouring_multisets_5_19():
    # move one count between two labels of each class: the one-class DP
    # returns the class with the moved multiset if it exists, else nothing
    delta = isosceles(5)
    full = {c.vectors: c for c in combos.special_classes(delta, 19)}
    for vectors in full:
        support = sorted(set(vectors))
        for a in support:
            for b in support:
                if a == b:
                    continue
                moved = list(vectors)
                moved.remove(b)
                moved = tuple(sorted(moved + [a]))
                got = combos.special_classes(delta, 19, vectors=moved)
                assert got == ([full[moved]] if moved in full else [])


def test_one_class_dp_without_bijection_is_empty():
    # (7,17) has no special bijection using one label for all nine points
    label = combos.special_classes(D7, 17)[0].vectors[0]
    assert combos.special_classes(D7, 17, vectors=(label,) * 9) == []


def test_special_classes_budget_counts_transitions():
    # (7,17) takes 38,845 DP transitions; one fewer is all-or-nothing
    assert sum(c.size for c in combos.special_classes(D7, 17, budget=38_845)) \
        == 12_096
    with pytest.raises(combos.EnumerationBudgetExceeded):
        combos.special_classes(D7, 17, budget=38_844)


def test_relatedness_classes_mirror_invariant():
    bs = combos.special_bijections(D7, 17)
    classes = combos.relatedness_classes(bs)
    assert sum(len(c) for c in classes) == len(bs)
    # conjugating by the coordinate swap permutes classes; sizes invariant
    sizes = sorted(len(c) for c in classes)
    swapped = {}
    for b in bs:
        key = tuple(sorted((v[1], v[0]) for v in b.vectors))
        swapped[key] = swapped.get(key, 0) + 1
    assert sorted(swapped.values()) == sizes


@pytest.mark.parametrize("d,p", [(7, 17), (13, 41), (41, 11)])
def test_c0_distribution_formula(d, p):
    rep = combos.c0_distribution_counts(isosceles(d), p)
    assert all(row["match"] for row in rep["rows"])
    if rep["gamma_in_hypothesis"]:
        assert rep["gamma_bijection"]


def test_c0_distribution_values_7_17():
    rep = combos.c0_distribution_counts(D7, 17)
    got = {row["k"]: row["enumerated"] for row in rep["rows"]}
    assert got == {1: 0, 2: 1, 3: 2}


def test_c0_distribution_out_of_regime_11_41():
    # d=11, p=41 has p0*d0 = 24 > d: the cell trace undercounts and the
    # closed form genuinely fails; kept as a regression witness
    rep = combos.c0_distribution_counts(isosceles(11), 41)
    assert not all(row["match"] for row in rep["rows"])
    assert not rep["gamma_in_hypothesis"]


def test_k2_distribution():
    rep = combos.k2_distribution_counts(D13, 41)
    assert rep["hypothesis"]
    assert [(r["i"], r["enumerated"]) for r in rep["rows"]] == [(1, 1)]
    assert all(r["match"] for r in rep["rows"])

    rep7 = combos.k2_distribution_counts(D7, 17)
    assert not rep7["hypothesis"]
    for row in rep7["rows"]:
        assert not row["in_hypothesis"]

    assert combos.k2_distribution_counts(isosceles(5), 11)["rows"] == []


def test_generic_coincidence_witness():
    d3 = isosceles(3)
    rep = combos.generic_coincidence_test(d3, 7, trials=12, seed=0)
    assert rep["conclusion"] == "nonzero mod p"
    assert rep["witness"] is not None
    assert rep["h_T1"] == 16


def test_generic_coincidence_inconclusive_semantics():
    # a single trial may miss; the report never claims "proved zero"
    d3 = isosceles(3)
    rep = combos.generic_coincidence_test(d3, 7, trials=0, seed=0)
    assert rep["conclusion"] == "inconclusive"


def test_optimal_combos_value_matches_det_T1():
    d3 = isosceles(3)
    f = {(3, 0): 1, (0, 3): 2, (1, 1): 3}
    for M in (1, 2):
        val = combos.optimal_combos_value(d3, 7, f, M)
        det = dwork.det_T1(d3, f, 7, M, 18)
        assert val == int(det[16]) % 7 ** M


def test_optimal_combos_value_second_f():
    d3 = isosceles(3)
    f = {(3, 0): 2, (0, 3): 5, (2, 1): 1, (0, 1): 4}
    val = combos.optimal_combos_value(d3, 7, f, 1)
    det = dwork.det_T1(d3, f, 7, 1, 18)
    assert val == int(det[16]) % 7


@pytest.mark.parametrize("d,p", [(5, 11), (5, 19), (7, 17), (7, 53)])
def test_special_count_is_number_of_special_bijections(d, p):
    delta = isosceles(d)
    assert combos.SpecialCount(delta, p).count \
        == len(combos.special_bijections(delta, p))


def _sampler_probability(sc, beta):
    """The product of the comp ratios along beta's columns."""
    col = {q: j for j, q in enumerate(sc.pairs.targets)}
    prob, mask = Fraction(1), 0
    for pt in sc.pairs.y0:
        j = col[beta.as_dict()[pt]]
        prob *= Fraction(sc.comp[mask | 1 << j], sc.comp[mask])
        mask |= 1 << j
    return prob


def test_sampler_is_exactly_uniform_7_17():
    sc = combos.SpecialCount(D7, 17)
    bs = combos.special_bijections(D7, 17)
    assert sc.count == 12_096
    assert all(_sampler_probability(sc, b) == Fraction(1, 12_096) for b in bs)
    assert all(sc.pairs.admits(b.as_dict()) for b in bs)
    known = {b.pairs: (b.sign, b.vectors) for b in bs}
    rng = random.Random(0)
    for _ in range(500):
        s = sc.sample(rng)
        assert known[s.pairs] == (s.sign, s.vectors)


def test_sampler_frequencies_5_19():
    # 426 special bijections, 14 draws each expected: a chi-square with
    # 425 degrees of freedom has mean 425 and standard deviation 29
    sc = combos.SpecialCount(isosceles(5), 19)
    bs = combos.special_bijections(isosceles(5), 19)
    rng = random.Random(1)
    draws = 14 * len(bs)
    seen = {b.pairs: 0 for b in bs}
    for _ in range(draws):
        seen[sc.sample(rng).pairs] += 1
    assert len(seen) == len(bs) == 426
    chi2 = sum((c - 14) ** 2 / 14 for c in seen.values())
    assert chi2 < 425 + 6 * 29


def test_special_pairs_reject_non_special_maps():
    table = combos.special_pairs(D7, 17)
    assert table.admits(EXAMPLE_BETA)
    swapped = dict(EXAMPLE_BETA)
    swapped[(2, 6)], swapped[(5, 3)] = swapped[(5, 3)], swapped[(2, 6)]
    assert not table.admits(swapped)    # (2,6) - (4,2) leaves the cone
    assert not table.admits({**EXAMPLE_BETA, (2, 6): (2, 4)})
    assert not table.admits({k: v for k, v in EXAMPLE_BETA.items()
                             if k != (2, 6)})


def test_special_count_budget_is_table_size():
    # |Y0| = 9 at (7,17): the table has 512 entries
    assert combos.SpecialCount(D7, 17, budget=512).count == 12_096
    with pytest.raises(combos.EnumerationBudgetExceeded):
        combos.SpecialCount(D7, 17, budget=511)
