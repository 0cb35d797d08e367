from collections import Counter
from fractions import Fraction

import pytest

from tpoly import beta, combos, lattice
from tpoly.lattice import isosceles

D13 = isosceles(13)
D7 = isosceles(7)


def test_beta1_13_41():
    b1, part = beta.build_beta1(D13, 41)
    assert len(part.l1) == 10
    assert part.l2 == ((12, 12),)
    assert len(part.l3) == 10
    for src, q in b1.items():
        t = src[0] - q[0]
        assert src[1] - q[1] == t and 1 <= 2 * t <= 13
        assert beta.eligible(D13, src, q)


def test_beta1_tie_break_invariance():
    b1a, _ = beta.build_beta1(D13, 41)
    b1b, _ = beta.build_beta1(D13, 41, reverse_ties=True)
    va = Counter(src[0] - q[0] for src, q in b1a.items())
    vb = Counter(src[0] - q[0] for src, q in b1b.items())
    assert va == vb


def test_beta1_empty_for_ordinary():
    b1, part = beta.build_beta1(isosceles(5), 11)
    assert not b1 and not part.l1 and not part.l2 and not part.l3


def test_partition_facts_13_41():
    _, part = beta.build_beta1(D13, 41)
    facts = beta.partition_facts(D13, 41, part)
    assert all(facts.values()), facts


def test_pigeonhole_diagonal_density():
    # p0 consecutive diagonal points inside Y hold exactly floor(p0/2)
    # points of Y0.  At p0 = 2 the trace lives on alternating diagonals
    # only, so the count applies to the diagonals Y0 actually meets.
    for d, p in ((13, 41), (7, 17)):
        delta = isosceles(d)
        p0 = p % d
        _, _, y0, _ = lattice.split_T1(delta, p)
        y0set = set(y0)
        occupied = {q[1] - q[0] for q in y0}
        for k in range(-(d - 3), d - 2):
            if k not in occupied:
                continue
            run = [(x, x + k) for x in range(d)
                   if 0 <= x + k <= d - 1 and 2 * x + k > d]
            for start in range(len(run) - p0 + 1):
                window = run[start:start + p0]
                assert sum(1 for q in window if q in y0set) == p0 // 2


def test_p0_2_parity_degeneracy():
    # regression witness: at p0 = 2 the odd diagonals carry no Y0 points,
    # so the floor(p0/2) density only holds on the even ones
    _, _, y0, _ = lattice.split_T1(D13, 41)
    assert all((q[1] - q[0]) % 2 == 0 for q in y0)


@pytest.mark.parametrize("d,p", [(7, 17), (13, 41), (19, 41)])
def test_g_bounds_on_windows(d, p):
    # the displayed window bounds hold on the diagonals the sets occupy,
    # with the upper bound loose by at most the one boundary point that
    # a sum-range window can gain over a point-count window
    delta = isosceles(d)
    p0 = p % d
    _, _, y0, my0 = lattice.split_T1(delta, p)
    y0set, my0set = set(y0), set(my0)
    occupied = {q[1] - q[0] for q in my0}
    for k in range(-(d - 2), d - 1):
        for b1 in range(abs(k) + 1, d):
            for b2 in range(b1 + 1, d):
                window = [q for q in my0set
                          if q[1] - q[0] == k and b1 <= q[0] + q[1] <= b2]
                if k in occupied:
                    assert len(window) >= beta.g1_bound(p0, b2 - b1)
        for b1 in range(d + 1, 2 * d - 1):
            for b2 in range(b1 + 1, 2 * d - 1):
                window = [q for q in y0set
                          if q[1] - q[0] == k and b1 <= q[0] + q[1] <= b2]
                assert len(window) <= beta.g2_bound(p0, b2 - b1) + 1
    for n in range(1, 30):
        # the displayed cross inequality g1(n+p0) >= g2(n) fails at
        # p0=3, n=2 with the printed branch formulas; the window form
        # that the distribution argument needs is the one with a full
        # extra period
        assert beta.g1_bound(p0, n + 2 * p0) >= beta.g2_bound(p0, n)
        assert beta.g1_bound(p0, n) <= beta.g1_bound(p0, n + 1)
        assert beta.g2_bound(p0, n) <= beta.g2_bound(p0, n + 1)


def test_choose_u_cases():
    # h at or above 1/4 selects u = 1/2
    sel = beta.choose_u(23, 47)  # p0 = 1 -> trivial branch keeps u = 1/2
    assert sel["u"] == 0.5
    # h = 1/8 would select (1 + 2h)/3 = 5/12: exercise via the formula
    h = 1 / 8
    assert (1 + 2 * h) / 3 == pytest.approx(5 / 12)
    sel13 = beta.choose_u(13, 41)
    assert sel13["p0"] == 2
    assert sel13["h_d0"] == 0.0 and sel13["h_d2"] == 0.0
    assert sel13["case"] == "small-h" and sel13["u"] == pytest.approx(1 / 3)
    assert sel13["G"] == pytest.approx(2 / 3)


def test_stage2_bookkeeping_13_41():
    _, part = beta.build_beta1(D13, 41)
    k20 = [q for q in combos.k2_region(D13, 41)
           if q in set(lattice.split_T1(D13, 41)[3])]
    book = beta.stage2_bookkeeping(D13, 41, part, k20)
    assert book["J1"] == [12]
    assert book["d3"] == 12
    assert book["bounds"]["s3"] == len(book["J3"])
    assert not book["bounds"]["d_bound_ok"]  # desk scale sits below the bound


def test_assemble_13_41():
    a = beta.assemble_beta(D13, 41)
    assert a.sign == 1
    assert a.k_formula == 1 and a.k_exponent == 0
    assert set(a.beta2) == {(12, 12)}
    # closure arrow carries the same difference vector as its source arrow
    (src, q), = a.beta2.items()
    v = (src[0] - q[0], src[1] - q[1])
    mq = (13 - q[0], 13 - q[1])
    q2 = a.sbeta2[mq]
    assert (mq[0] - q2[0], mq[1] - q2[1]) == v
    beta.validate_assembly(a)
    # stage-2 target sits in a K2 copy
    assert beta._copy_index(D13, 41, q) is not None
    # lexicographic rank of the chosen stage-2 map is maximal
    assert a.bookkeeping["rank"] == a.bookkeeping["top_rank"]


def test_assemble_deterministic():
    a = beta.assemble_beta(D13, 41)
    b = beta.assemble_beta(D13, 41)
    assert a.beta == b.beta and a.sign == b.sign


def test_related_class_13_41():
    a = beta.assemble_beta(D13, 41)
    rep = beta.related_class_characterization(a)
    assert rep["generated_size"] == 2 ** a.k_exponent == 1
    assert rep["symmetric_size"] == 1
    assert rep["enumerated_size"] == 15
    assert rep["signs"] == [1]
    coeff = rep["class_coefficient"]
    num = abs(coeff.numerator)
    assert num & (num - 1) == 0
    assert coeff.denominator % 41 != 0
    # beta-tilde itself is in both classes
    assert any(dict(b.pairs) == a.beta for b in rep["symmetric"])


def test_7_17_refused_with_diagnostics():
    with pytest.raises(beta.BetaHypothesisError) as err:
        beta.assemble_beta(D7, 17)
    diag = err.value.diagnostics
    assert diag["sizes"]["L2"] == 3
    assert not diag["hypothesis"]["p0_lt_d_over_6"]


def test_ordinary_assembly_trivial():
    a = beta.assemble_beta(isosceles(5), 11)
    assert a.beta == {} and a.k_exponent == 0 and a.sign == 1


def enumerate_related(delta, p, vectors):
    """Every special bijection with the given difference multiset, one at
    a time by depth-first search: the oracle for the one-class DP."""
    _, _, y0, my0 = lattice.split_T1(delta, p)
    make_special = combos._special_maker(delta, y0)
    my0_set = set(my0)
    counts = Counter(vectors)
    used, assignment, out = set(), {}, []

    def rec(i):
        if i == len(y0):
            out.append(make_special(assignment))
            return
        src = y0[i]
        for v in sorted(c for c in counts if counts[c] > 0):
            q = (src[0] - v[0], src[1] - v[1])
            if q in my0_set and q not in used:
                counts[v] -= 1
                used.add(q)
                assignment[src] = q
                rec(i + 1)
                del assignment[src]
                used.discard(q)
                counts[v] += 1

    rec(0)
    return out


def is_symmetric(delta, bij):
    m = dict(bij.pairs)
    return all(m.get(lattice.mirror(delta, q)) == lattice.mirror(delta, src)
               for src, q in bij.pairs)


def test_enumerate_related_matches_class():
    a = beta.assemble_beta(D13, 41)
    found = enumerate_related(D13, 41, a.special.vectors)
    keys = {b.vectors for b in found}
    assert keys == {a.special.vectors}
    assert len(found) == 15


@pytest.mark.parametrize("d,p", [(13, 41), (8, 23), (14, 37)])
def test_related_class_matches_enumeration(d, p):
    delta = isosceles(d)
    a = beta.assemble_beta(delta, p)
    rep = beta.related_class_characterization(a)
    found = enumerate_related(delta, p, a.special.vectors)
    k = combos.combo_denominator(delta, p)
    assert rep["enumerated_size"] == len(found)
    assert rep["class_coefficient"] == Fraction(sum(b.sign for b in found), k)
    assert rep["signs"] == sorted({b.sign for b in found})
    symmetric = [b for b in found if is_symmetric(delta, b)]
    assert sorted(b.pairs for b in rep["symmetric"]) \
        == sorted(b.pairs for b in symmetric)
    assert sorted(b.sign for b in rep["symmetric"]) \
        == sorted(b.sign for b in symmetric)


@pytest.mark.parametrize("d,p", [(13, 41), (19, 41)])
def test_closure_lands_in_l3(monkeypatch, d, p):
    # Y0 = L1 + L2 + L3, beta2 covers L2 and m maps m(Y0) onto Y0: a
    # closure source outside beta1 and beta2 always lies in L3
    tried = []
    search = beta._closure_completions

    def spy(delta, p_, beta1, beta2, counts, budget):
        tried.append((dict(beta1), dict(beta2)))
        return search(delta, p_, beta1, beta2, counts, budget)

    monkeypatch.setattr(beta, "_closure_completions", spy)
    delta = isosceles(d)
    a = beta.assemble_beta(delta, p)
    l3 = set(a.partition.l3)
    assert tried and a.partition.l2
    for beta1, beta2 in tried:
        assert set(beta2) == set(a.partition.l2)
        for q in beta2.values():
            mq = lattice.mirror(delta, q)
            assert mq in beta1 or mq in beta2 or mq in l3


def test_valid_toggles_run_once_per_assembly(monkeypatch):
    calls = []
    toggles = beta.valid_toggles

    def counted(a, budget=400_000):
        calls.append(a)
        return toggles(a, budget)

    monkeypatch.setattr(beta, "valid_toggles", counted)
    a = beta.assemble_beta(D13, 41)
    beta.related_class_characterization(a)
    assert len(calls) == 1 and a.k_exponent == len(a.toggles) == 0


def test_related_class_refused_past_budget_19_41():
    a = beta.assemble_beta(isosceles(19), 41)
    with pytest.raises(combos.EnumerationBudgetExceeded,
                       match="more than 20000 DP transitions"):
        beta.related_class_characterization(a, budget=20_000)


def test_toggle_empty_subset_is_beta():
    a = beta.assemble_beta(D13, 41)
    full = beta._toggle_subset_valid(a, (), 10000)
    assert full == a.beta


def test_symmetry_of_assembled_map():
    a = beta.assemble_beta(D13, 41)
    m = a.beta
    for src, q in m.items():
        assert m[(13 - q[0], 13 - q[1])] == (13 - src[0], 13 - src[1])


def test_assembly_beta2_surface():
    a = beta.assemble_beta(D13, 41)
    assert set(a.beta2bar) == {(12, 12)}
    assert "stage2" in a.bookkeeping and "bounds" in a.bookkeeping["stage2"]


def test_maximize_beta2_idempotent():
    b2bar = beta.assemble_beta(D13, 41).beta2bar
    m1 = beta.maximize_beta2(D13, 41, b2bar)
    m2 = beta.maximize_beta2(D13, 41, m1)
    vseq, _ = beta.exchange_family(D13, 41, b2bar)
    assert beta._count_vector(m1, vseq) == beta._count_vector(m2, vseq)
    assert m1 == m2
    assert beta.maximize_beta2(D13, 41, {}) == {}


def test_maximize_beta2_rank_not_below_start():
    b2bar = beta.assemble_beta(D13, 41).beta2bar
    vseq, fam = beta.exchange_family(D13, 41, b2bar)
    best = beta.maximize_beta2(D13, 41, b2bar)
    assert beta._count_vector(best, vseq) >= beta._count_vector(b2bar, vseq)
    assert all(beta._count_vector(best, vseq) >= beta._count_vector(m, vseq)
               for m in fam)
