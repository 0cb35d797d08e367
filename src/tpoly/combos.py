"""Special bijections, monomial bookkeeping, and distribution counts.

A bijection beta from Y0 to its mirror is special when every difference
P - beta(P) stays inside the closed unit-weight triangle; each such
bijection corresponds to a unique minimal permutation of T1 whose
expansion vectors are forced, which is what makes the leading
coefficient of the T1 determinant tractable: terms group by the
difference-vector multiset (relatedness classes).

A class's multiset is a count per generator label, hence a monomial, and
every bijection's combo coefficient is sign/K with one K for all of them
(``combo_denominator``).  So ``special_classes`` reads every class's
size, sign balance and monomial off one signed subset DP over the
special-pair matrix on Y0 x Y0, the determinant view of the special
part, without enumerating a bijection.  ``SpecialCount`` runs the
unsigned subset DP on the same matrix: its number of completions per
set of used columns gives the permanent, the number of special
bijections, and draws one uniformly at random.  ``special_bijections``,
``relatedness_classes`` and ``combo_from_bijection`` enumerate and
reconstruct bijection by bijection; they are the oracle both DPs are
tested against, and keep their own special-pair test for that reason.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .lattice import (Point, TriangleSpec, antidiag_index, enumerate_T,
                      fundamental_cell, mirror, split_T1)


class EnumerationBudgetExceeded(RuntimeError):
    pass


def label_T1prime(delta: TriangleSpec) -> list[Point]:
    """Generators for expansions: the two far vertices first, then the rest."""
    d = delta.d
    q1, q2 = (d, 0), (0, d)
    rest = [q for q in enumerate_T(delta, 1, closed=True) if q not in (q1, q2)]
    return [q1, q2] + rest


def permutation_sign(perm: list[int]) -> int:
    """Sign via cycle decomposition."""
    n = len(perm)
    seen = [False] * n
    sign = 1
    for i in range(n):
        if seen[i]:
            continue
        length = 0
        j = i
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


@dataclass(frozen=True)
class SpecialBijection:
    """beta: Y0 -> m(Y0) with all differences in the closed triangle."""

    pairs: tuple[tuple[Point, Point], ...]  # (P, beta(P)) in canonical order
    sign: int
    vectors: tuple[Point, ...]              # sorted multiset of P - beta(P)

    def as_dict(self) -> dict[Point, Point]:
        return dict(self.pairs)


def _special_maker(delta: TriangleSpec, y0: tuple[Point, ...]):
    """SpecialBijection from a Y0 -> m(Y0) dict, for one enumeration.

    Builds the mirror index once; the bijections it makes share their
    equal (P, beta(P)) pairs, difference vectors and vector multisets.
    """
    index = {mirror(delta, pt): i for i, pt in enumerate(y0)}
    shared: dict[tuple, tuple] = {}

    def share(t: tuple) -> tuple:
        return shared.setdefault(t, t)

    def make(mapping: dict[Point, Point]) -> SpecialBijection:
        pairs = tuple(share((pt, mapping[pt])) for pt in y0)
        vecs = sorted(share((pt[0] - q[0], pt[1] - q[1])) for pt, q in pairs)
        perm = [index[q] for _, q in pairs]
        return SpecialBijection(pairs, permutation_sign(perm),
                                share(tuple(vecs)))
    return make


@dataclass(frozen=True)
class SpecialPairs:
    """The special-pair matrix on Y0 x m(Y0), row by row.

    Row i is Y0[i] and column j the target m(Y0[j]); rows[i] lists the
    columns j, ascending, with Y0[i] - m(Y0[j]) in the closed unit-weight
    triangle.
    """

    y0: tuple[Point, ...]
    targets: tuple[Point, ...]
    rows: tuple[tuple[int, ...], ...]

    def admits(self, mapping: dict[Point, Point]) -> bool:
        """Whether mapping is a special bijection: keys Y0, distinct
        images, and every pair special."""
        col = {q: j for j, q in enumerate(self.targets)}
        return (set(mapping) == set(self.y0)
                and len(set(mapping.values())) == len(mapping)
                and all(col.get(mapping[pt]) in row
                        for pt, row in zip(self.y0, self.rows)))


@lru_cache(maxsize=64)
def special_pairs(delta: TriangleSpec, p: int) -> SpecialPairs:
    _, _, y0, _ = split_T1(delta, p)
    targets = tuple(mirror(delta, pt) for pt in y0)
    rows = []
    for pt in y0:
        diffs = ((pt[0] - q[0], pt[1] - q[1]) for q in targets)
        rows.append(tuple(j for j, v in enumerate(diffs)
                          if delta.in_cone(v)
                          and delta.weight_num(v) <= delta.det))
    return SpecialPairs(y0, targets, tuple(rows))


class SpecialCount:
    """The number of special bijections, and an exact uniform sampler.

    An unsigned subset DP over the special-pair matrix: comp[mask] is
    the number of ways to place rows popcount(mask).. on the columns
    outside mask, so comp[0] is the permanent.  The table has 2^|Y0|
    entries; more than ``budget`` raises.
    """

    def __init__(self, delta: TriangleSpec, p: int,
                 budget: int = 2_000_000):
        self.pairs = special_pairs(delta, p)
        n = len(self.pairs.y0)
        if 1 << n > budget:
            raise EnumerationBudgetExceeded(
                f"more than {budget} count-table entries")
        rows = self.pairs.rows
        comp = [0] * (1 << n)
        comp[-1] = 1
        for mask in range((1 << n) - 2, -1, -1):
            comp[mask] = sum(comp[mask | 1 << j]
                             for j in rows[mask.bit_count()]
                             if not mask >> j & 1)
        self.comp = comp
        self.count = comp[0]
        self._make = _special_maker(delta, self.pairs.y0)

    def sample(self, rng: random.Random) -> SpecialBijection:
        """A special bijection, each one with probability exactly 1/count.

        Row by row, a free column j is taken with probability
        comp[mask | 1 << j] / comp[mask]; the product telescopes.
        """
        comp = self.comp
        mask = 0
        mapping = {}
        for pt, row in zip(self.pairs.y0, self.pairs.rows):
            r = rng.randrange(comp[mask])
            for j in row:
                if mask >> j & 1:
                    continue
                r -= comp[mask | 1 << j]
                if r < 0:
                    break
            mask |= 1 << j
            mapping[pt] = self.pairs.targets[j]
        return self._make(mapping)


def special_bijections(delta: TriangleSpec, p: int,
                       budget: int = 2_000_000) -> list[SpecialBijection]:
    """All special bijections, by DFS with fewest-candidates-first ordering.

    All-or-nothing: exceeding the budget raises rather than returning a
    silently biased partial list.
    """
    _, _, y0, my0 = split_T1(delta, p)
    if not y0:
        return [SpecialBijection((), 1, ())]
    cand = {}
    for pt in y0:
        opts = [q for q in my0
                if delta.in_cone((pt[0] - q[0], pt[1] - q[1]))
                and delta.weight_num((pt[0] - q[0], pt[1] - q[1])) <= delta.det]
        cand[pt] = opts
    order = sorted(y0, key=lambda pt: (len(cand[pt]),) + delta.canonical_key(pt))
    make = _special_maker(delta, y0)
    out: list[SpecialBijection] = []
    used: set[Point] = set()
    assignment: dict[Point, Point] = {}
    steps = 0

    def rec(i: int):
        nonlocal steps
        steps += 1
        if steps > budget:
            raise EnumerationBudgetExceeded(f"more than {budget} search steps")
        if i == len(order):
            out.append(make(assignment))
            return
        pt = order[i]
        for q in cand[pt]:
            if q in used:
                continue
            used.add(q)
            assignment[pt] = q
            rec(i + 1)
            used.discard(q)
        assignment.pop(pt, None)

    try:
        rec(0)
    finally:
        # rec holds itself, and through it out: without this, the
        # bijections outlive the caller's list until a cyclic collection
        del rec
    return sorted(out, key=lambda b: b.pairs)


@dataclass(frozen=True)
class ComboData:
    """Forced expansion data of the minimal permutation behind a bijection."""

    tau: tuple[tuple[Point, Point], ...]    # (P, tau(P)) over T1
    tau_sign: int
    b_vectors: dict[Point, tuple[int, ...]]  # domain point -> exponents
    exponents: tuple[int, ...]               # column sums over labels
    coefficient: Fraction                    # 1 / prod b!
    total_degree: int


def combo_from_bijection(delta: TriangleSpec, p: int,
                         beta: SpecialBijection) -> ComboData:
    """Reconstruct the special combo behind beta and validate it.

    T_{1,1} points pull back through the parallelogram residue; T_{1,2}
    points route through beta, which contributes one extra generator.
    An expansion vector has at most three nonzero entries, the two
    vertex labels and the extra one, so the combo, exponents, degree and
    denominator are summed over those entries only.
    """
    d = delta.d
    labels = label_T1prime(delta)
    label_idx = {q: i for i, q in enumerate(labels)}
    t11, t12, _, _ = split_T1(delta, p)
    beta_map = beta.as_dict()
    t1 = enumerate_T(delta, 1)
    tau_inv: dict[Point, Point] = {}
    entries: dict[Point, dict[int, int]] = {}   # domain point -> {label: b}
    for pt in t1:
        img = ((p * pt[0]) % d, (p * pt[1]) % d)
        i1, i2 = (p * pt[0]) // d, (p * pt[1]) // d
        vec = {0: i1, 1: i2}
        if pt in t11:
            src = img
        else:
            src = beta_map[img]
            k = label_idx[(img[0] - src[0], img[1] - src[1])]
            vec[k] = vec.get(k, 0) + 1
        tau_inv[pt] = src
        entries[src] = vec
        target = (p * pt[0] - src[0], p * pt[1] - src[1])
        combo = (sum(b * labels[i][0] for i, b in vec.items()),
                 sum(b * labels[i][1] for i, b in vec.items()))
        if combo != target:
            raise AssertionError(f"combo constraint fails at {src}: {combo} != {target}")
    index = {pt: i for i, pt in enumerate(t1)}
    perm = [index[tau_inv[pt]] for pt in t1]   # position of tau^{-1}(P)
    tau_pairs = tuple(sorted(((src, pt) for pt, src in tau_inv.items()),
                             key=lambda pr: delta.canonical_key(pr[0])))
    exps = [0] * len(labels)
    denom = 1
    b_vectors: dict[Point, tuple[int, ...]] = {}
    for src, vec in entries.items():
        dense = [0] * len(labels)
        for i, b in vec.items():
            if b >= p:
                raise AssertionError("expansion entry reached p")
            dense[i] = b
            exps[i] += b
            denom *= math.factorial(b)
        b_vectors[src] = tuple(dense)
    return ComboData(tau_pairs, permutation_sign(perm), b_vectors,
                     tuple(exps), Fraction(1, denom), sum(exps))


def relatedness_classes(bijections: list[SpecialBijection]) \
        -> list[list[SpecialBijection]]:
    """Group by the difference-vector multiset."""
    groups: dict[tuple, list[SpecialBijection]] = {}
    for b in bijections:
        groups.setdefault(b.vectors, []).append(b)
    return [groups[k] for k in sorted(groups)]


def combo_denominator(delta: TriangleSpec, p: int) -> int:
    """K = prod over T1 of floor(px/d)! * floor(py/d)!.

    The expansion vector of a T1 point holds these two vertex entries,
    plus a 1 at the extra label for a T_{1,2} point.  The extra label is
    never a vertex label (``special_classes`` checks it), so every special
    bijection's combo coefficient is exactly sign/K.  Checks that every
    vertex entry is below p.
    """
    d = delta.d
    k = 1
    for x, y in enumerate_T(delta, 1):
        i1, i2 = (p * x) // d, (p * y) // d
        if i1 >= p or i2 >= p:
            raise AssertionError("expansion entry reached p")
        k *= math.factorial(i1) * math.factorial(i2)
    return k


@dataclass(frozen=True)
class SpecialClass:
    """One relatedness class: the special bijections sharing a multiset."""

    vectors: tuple[Point, ...]     # sorted multiset of P - beta(P)
    exponents: tuple[int, ...]     # its monomial: column sums over labels
    size: int                      # number of special bijections
    sign_balance: int              # sum of their signs
    coefficient: Fraction          # sum of sign/K = sign_balance/K


def special_classes(delta: TriangleSpec, p: int, budget: int = 2_000_000,
                    vectors: tuple[Point, ...] | None = None) \
        -> list[SpecialClass]:
    """Every relatedness class, by a signed subset DP over special pairs.

    Row i of the table is Y0[i], column j the target m(Y0[j]); an entry
    is the extra label of P - m(Q) when that difference is special.  The
    DP places one row per step.  A state packs the used columns and the
    count per extra label into one int, and carries the unsigned and the
    signed number of partial bijections reaching it.  Placing row i at
    column j flips the sign once per used column right of j, which counts
    the inversions of the permutation of Y0.  Full states are the classes,
    ordered by multiset as ``relatedness_classes`` orders them.

    ``vectors``, a difference multiset, asks for its class alone: the
    table keeps only the entries whose label is in it, and after each row
    the DP drops every state holding more of some label than the multiset
    does.  Every full state left has exactly the multiset's counts, so the
    result is that one class, or empty when no special bijection has it.

    All-or-nothing: more than ``budget`` DP transitions raises.
    """
    d = delta.d
    labels = label_T1prime(delta)
    label_idx = {q: i for i, q in enumerate(labels)}
    _, t12, _, _ = split_T1(delta, p)
    table = special_pairs(delta, p)
    y0 = table.y0
    k = combo_denominator(delta, p)
    base = [0] * len(labels)
    base[0], base[1] = expected_vertex_exponents(delta, p)
    # the T_{1,2} point whose residue is each Y0 point
    source = {((p * x) % d, (p * y) % d): (x, y) for x, y in t12}
    n = len(y0)
    # a label count is at most n; for one class, a spare top bit per count
    width = n.bit_length() + (vectors is not None)
    full = (1 << n) - 1
    cap: dict[int, int] = {}        # label index -> its count in vectors
    for v in vectors or ():
        cap[label_idx[v]] = cap.get(label_idx[v], 0) + 1
    used_labels: dict[int, int] = {}  # label index -> packed slot
    rows = []
    for pt, cols in zip(y0, table.rows):
        x, y = source[pt]
        i1, i2 = (p * x) // d, (p * y) // d
        row = []
        for j in cols:
            q = table.targets[j]
            extra = (pt[0] - q[0], pt[1] - q[1])
            lab = label_idx[extra]
            if lab < 2:
                raise AssertionError(f"extra label {extra} is a vertex label")
            combo = (i1 * labels[0][0] + i2 * labels[1][0] + labels[lab][0],
                     i1 * labels[0][1] + i2 * labels[1][1] + labels[lab][1])
            if combo != (p * x - q[0], p * y - q[1]):
                raise AssertionError(f"combo constraint fails at {q}")
            if vectors is not None and lab not in cap:
                continue
            slot = used_labels.setdefault(lab, len(used_labels))
            row.append((j, (1 << j) + (1 << (n + width * slot)),
                        full & -(2 << j)))
        rows.append(row)
    # each count starts at top - 1 - cap, so it sets its top bit, the
    # guard, just when it passes its cap
    start = guard = 0
    if vectors is not None:
        top = 1 << (width - 1)
        for lab, slot in used_labels.items():
            start += (top - 1 - cap[lab]) << (n + width * slot)
            guard += top << (n + width * slot)

    layer = {start: (1, 1)}         # packed state -> (count, signed count)
    steps = 0
    for row in rows:
        nxt: dict[int, tuple[int, int]] = {}
        for key, (cnt, sgn) in layer.items():
            for j, add, right in row:
                if key >> j & 1:
                    continue
                steps += 1
                if steps > budget:
                    raise EnumerationBudgetExceeded(
                        f"more than {budget} DP transitions")
                if (key & right).bit_count() & 1:
                    s = -sgn
                else:
                    s = sgn
                nk = key + add
                old = nxt.get(nk)
                nxt[nk] = (cnt, s) if old is None \
                    else (old[0] + cnt, old[1] + s)
        if guard:
            nxt = {key: c for key, c in nxt.items() if not key & guard}
        layer = nxt

    slot_mask = (1 << width) - 1
    out = []
    for key, (cnt, sgn) in layer.items():
        packed = (key - start) >> n
        exps = list(base)
        vecs = []
        for lab, slot in used_labels.items():
            c = (packed >> (width * slot)) & slot_mask
            exps[lab] += c
            vecs += [labels[lab]] * c
        out.append(SpecialClass(tuple(sorted(vecs)), tuple(exps), cnt, sgn,
                                Fraction(sgn, k)))
    return sorted(out, key=lambda c: c.vectors)


def v_special(delta: TriangleSpec, p: int,
              budget: int = 2_000_000) -> dict[tuple[int, ...], Fraction]:
    """The special part of the leading coefficient, grouped by monomial.

    Returns exponent-vector -> exact rational coefficient (signs summed).
    """
    return {c.exponents: c.coefficient
            for c in special_classes(delta, p, budget) if c.sign_balance}


def expected_vertex_exponents(delta: TriangleSpec, p: int) -> tuple[int, int]:
    """Maximal exponents of the two vertex generators: sums of floor(p*P/d)."""
    d = delta.d
    t1 = enumerate_T(delta, 1)
    return (sum((p * q[0]) // d for q in t1), sum((p * q[1]) // d for q in t1))


# -- distribution counts on the fundamental cell and K2 ---------------


def _d1_d0_d2(d: int, p0: int) -> tuple[int, int, int]:
    d1, d0 = divmod(d, p0)
    d2 = pow(d0, -1, p0) if p0 > 1 else 0
    return d1, d0, d2


def c0_distribution_counts(delta: TriangleSpec, p: int) -> dict:
    """Enumerated vs closed-form antidiagonal counts on the cell trace.

    Also checks the residue map gamma from the index set
    {(i*d1, j*d1): i,j>0, i+j<=p0} onto C0.
    """
    d = delta.d
    p0 = p % d
    if p0 < 2:
        return {"rows": [], "gamma_bijection": True,
                "gamma_in_hypothesis": False, "p0": p0}
    d1, d0, d2 = _d1_d0_d2(d, p0)
    cell, c0 = fundamental_cell(delta, p)
    c0set = set(c0)
    rows = []
    for k in range(1, p0 + 1):
        enum = sum(1 for q in c0
                   if antidiag_index(q) in (2 * d - k, 2 * d - p0 - k))
        formula = p0 - 1 if k == p0 else (k * d2) % p0 - 1
        rows.append({"k": k, "enumerated": enum, "formula": formula,
                     "match": enum == formula})
    # gamma: A -> C0 through residues mod p0 (needs the wrap-free regime)
    a_set = [(i * d1, j * d1) for i in range(1, p0)
             for j in range(1, p0) if i + j <= p0]
    gamma_ok = len(a_set) == len(c0)
    images = set()
    for pt in a_set:
        img = ((p * pt[0]) % d, (p * pt[1]) % d)
        hits = [c for c in c0 if (c[0] - img[0]) % p0 == 0
                and (c[1] - img[1]) % p0 == 0]
        if len(hits) != 1:
            gamma_ok = False
            break
        images.add(hits[0])
    gamma_ok = gamma_ok and images == c0set
    return {"rows": rows, "gamma_bijection": gamma_ok,
            "gamma_in_hypothesis": d > 2 * p0 and p0 * d0 < d, "p0": p0}


def k2_region(delta: TriangleSpec, p: int) -> list[Point]:
    """K2: antidiagonals d-3p0..d-1 crossed with diagonals starting at ceil(d/2)."""
    d = delta.d
    p0 = p % d
    lo = -(-d // 2)
    out = []
    for w in range(d - 3 * p0, d):
        for dk in range(lo, lo + 2 * p0):
            if (w - dk) % 2 == 0:
                x = (w - dk) // 2
                out.append((x, x + dk))
    return delta.sort_points(out)


def k2_distribution_counts(delta: TriangleSpec, p: int) -> dict:
    d = delta.d
    p0 = p % d
    hyp = p > 2 * d + 1 and 6 * p0 < d
    if p0 < 2:
        return {"rows": [], "hypothesis": hyp, "p0": p0}
    _, d0, d2 = _d1_d0_d2(d, p0)
    _, _, _, my0 = split_T1(delta, p)
    k20 = [q for q in k2_region(delta, p) if q in set(my0)]
    rows = []
    for i in range(1, p0):
        enum = sum(1 for q in k20 if antidiag_index(q) == d - i)
        formula = p0 - 1 if (i - d0) % p0 == 0 else (i * (p0 - d2)) % p0
        rows.append({"i": i, "enumerated": enum, "formula": formula,
                     "match": enum == formula, "in_hypothesis": hyp})
    return {"rows": rows, "hypothesis": hyp, "p0": p0}


# -- generic coincidence search ----------------------------------------


def random_polynomial(delta: TriangleSpec, rng: random.Random, p: int) \
        -> dict[Point, int]:
    """Random residues on the closed unit triangle with nonzero vertices."""
    f = {}
    for q in enumerate_T(delta, 1, closed=True):
        if q == (0, 0):
            continue
        if q in ((delta.a1, delta.b1), (delta.a2, delta.b2)):
            f[q] = rng.randrange(1, p)
        else:
            c = rng.randrange(p)
            if c:
                f[q] = c
    return f


def generic_coincidence_test(delta: TriangleSpec, p: int, trials: int,
                             seed: int) -> dict:
    """Sample polynomials and test the leading determinant coefficient mod p.

    A single nonzero hit certifies that the universal leading coefficient
    is not divisible by p at these parameters; all-zero runs stay
    inconclusive.
    """
    from .dwork import det_T1
    from .hodge import minimal_h
    rng = random.Random(seed)
    h1 = minimal_h(delta, p, enumerate_T(delta, 1))
    witness = None
    nonzero = 0
    for _ in range(trials):
        f = random_polynomial(delta, rng, p)
        det = det_T1(delta, f, p, M=1, N=h1 + 2)
        if det[h1] % p:
            nonzero += 1
            if witness is None:
                witness = f
    degree_bound = h1
    return {
        "trials": trials,
        "nonzero": nonzero,
        "witness": witness,
        "seed": seed,
        "h_T1": h1,
        "conclusion": "nonzero mod p" if witness else "inconclusive",
        "schwartz_zippel_miss_bound": f"{degree_bound}/{p} per trial (if nonzero)",
    }


# -- independent evaluation of the optimal-combo sum -------------------


def optimal_combos_value(delta: TriangleSpec, p: int,
                         f_residues: dict[Point, int], M: int) -> int:
    """Evaluate the full optimal-combo expansion at the lifted coefficients.

    Independent oracle for the leading coefficient of the T1 determinant:
    sums sgn(tau) * prod over decompositions with factorial coefficients,
    over every minimal permutation of T1.  Exponential in |T1|; meant for
    d <= 3.
    """
    import itertools
    from .dwork import teichmueller_int
    from .hodge import cost_term, minimal_h

    pm = p ** M
    t1 = enumerate_T(delta, 1)
    labels = label_T1prime(delta)
    lifts = [teichmueller_int(f_residues.get(q, 0), p, M) for q in labels]
    h_min = minimal_h(delta, p, t1)
    inv_fact = [pow(math.factorial(b) % pm, -1, pm) for b in range(p)]

    memo: dict[tuple, int] = {}

    def dec_value(idx: int, rx: int, ry: int, parts: int) -> int:
        if parts == 0:
            return 1 if rx == 0 and ry == 0 else 0
        if idx == len(labels):
            return 0
        key = (idx, rx, ry, parts)
        if key in memo:
            return memo[key]
        qx, qy = labels[idx]
        total = 0
        b = 0
        apow = 1
        while b <= parts and b * qx <= rx and b * qy <= ry:
            if b < p:
                sub = dec_value(idx + 1, rx - b * qx, ry - b * qy, parts - b)
                if sub:
                    total = (total + apow * inv_fact[b] % pm * sub) % pm
            b += 1
            apow = apow * lifts[idx] % pm
            if b * qx > rx and qx == 0 and qy == 0:
                break
            if qx == 0 and qy == 0 and b > parts:
                break
        memo[key] = total
        return total

    total = 0
    n = len(t1)
    for perm in itertools.permutations(range(n)):
        h = sum(cost_term(delta, p, t1[i], t1[perm[i]]) for i in range(n))
        if h != h_min:
            continue
        sign = permutation_sign(list(perm))
        prod = 1
        for i in range(n):
            src, dst = t1[i], t1[perm[i]]
            rx = p * dst[0] - src[0]
            ry = p * dst[1] - src[1]
            parts = cost_term(delta, p, src, dst)
            prod = prod * dec_value(0, rx, ry, parts) % pm
            if prod == 0:
                break
        total = (total + sign * prod) % pm
    return total
