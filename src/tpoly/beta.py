"""Staged construction of an explicit special bijection on Y0.

Stage 1 greedily matches diagonal arrows of maximal weight subject to
the eligibility rule (weight of the source above 3/2 or of the target
below 1/2).  Leftover heavy points (L2) are routed into shifted copies
of the K2 region near the lower-right corner, symmetrized by the mirror
closure; the remaining light points are completed by a deterministic
backtracking search that keeps the whole map symmetric and special.

The shift bookkeeping follows the staged schedule where it parses; the
normative contract is: images in pairwise-disjoint K2 copies inside the
square, every difference inside the closed unit triangle, and full
validation of the assembled bijection.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction

from .lattice import (Point, TriangleSpec, antidiag_index, diag_index,
                      mirror, split_T1)
from .combos import (EnumerationBudgetExceeded, SpecialBijection, _d1_d0_d2,
                     _special_maker, combo_denominator, k2_region,
                     special_classes)


# completions assemble_beta tries for an even one before it keeps the first
EVEN_TRIES = 64


class BetaHypothesisError(RuntimeError):
    """Raised when a construction stage's hypothesis gate fails."""

    def __init__(self, message: str, diagnostics: dict):
        super().__init__(message)
        self.diagnostics = diagnostics


class BetaConstructionError(RuntimeError):
    pass


# -- stage 1: greedy diagonal arrows -----------------------------------


@dataclass(frozen=True)
class Partition123:
    l1: tuple[Point, ...]
    l2: tuple[Point, ...]
    l3: tuple[Point, ...]


def eligible(delta: TriangleSpec, p_src: Point, q_dst: Point) -> bool:
    d = delta.d
    t = p_src[0] - q_dst[0]
    if p_src[1] - q_dst[1] != t or t <= 0 or 2 * t > d:
        return False
    return (2 * (p_src[0] + p_src[1]) > 3 * d
            or 2 * (q_dst[0] + q_dst[1]) < d)


def build_beta1(delta: TriangleSpec, p: int, reverse_ties: bool = False):
    """Greedy stage-1 arrows; returns (mapping, Partition123)."""
    _, _, y0, my0 = split_T1(delta, p)
    pairs = [(pt, q) for pt in y0 for q in my0 if eligible(delta, pt, q)]
    keyfn = (lambda pr: (-(pr[0][0] - pr[1][0]),) + delta.canonical_key(pr[0])
             + delta.canonical_key(pr[1]))
    pairs.sort(key=keyfn, reverse=False)
    if reverse_ties:
        pairs.sort(key=lambda pr: (-(pr[0][0] - pr[1][0]),)
                   + tuple(-v for v in delta.canonical_key(pr[0])
                           + delta.canonical_key(pr[1])))
    b1: dict[Point, Point] = {}
    used_dst: set[Point] = set()
    for pt, q in pairs:
        if pt in b1 or q in used_dst:
            continue
        b1[pt] = q
        used_dst.add(q)
    for pt, q in b1.items():
        mq, mp = mirror(delta, q), mirror(delta, pt)
        if b1.get(mq) != mp:
            raise AssertionError("stage-1 map is not symmetric")
    d = delta.d
    l1, l2, l3 = [], [], []
    for pt in y0:
        if pt in b1:
            l1.append(pt)
        elif 2 * (pt[0] + pt[1]) > 3 * d:
            l2.append(pt)
        else:
            l3.append(pt)
    return b1, Partition123(tuple(l1), tuple(l2), tuple(l3))


def region_K1(delta: TriangleSpec, p: int) -> list[Point]:
    d = delta.d
    p0 = p % d
    out = []
    for x in range(d):
        for y in range(d):
            if x + y <= d:
                continue
            if 2 * d - 3 * p0 <= x + y <= 2 * d and -p0 <= y - x < p0:
                out.append((x, y))
    return delta.sort_points(out)


def partition_facts(delta: TriangleSpec, p: int, part: Partition123) -> dict:
    """The three L2-distribution facts (each meaningful in-hypothesis)."""
    d = delta.d
    p0 = p % d
    k1 = set(region_K1(delta, p))
    return {
        "l2_in_K1": all(pt in k1 for pt in part.l2),
        "no_l2_on_far_diagonals": all(abs(diag_index(pt)) < p0 for pt in part.l2),
        "no_l2_on_low_antidiagonals": all(
            not (d <= antidiag_index(pt) <= 2 * d - 3 * p0) for pt in part.l2),
    }


# -- stage 2 bookkeeping ------------------------------------------------


def choose_u(d: int, p: int) -> dict:
    """Optimizer u of the exponent trade-off G(h, u) = max(2(u-h), 1-u, u).

    The two h variants (based on d0 and on d2) are both reported; the
    schedule uses the d2 variant, matching the covering-density counts.
    """
    p0 = p % d
    if p0 < 2:
        return {"p0": p0, "u": 0.5, "h_d0": None, "h_d2": None, "case": "trivial",
                "G": 0.5}
    _, d0, d2 = _d1_d0_d2(d, p0)
    h_d0 = math.log(max(p0 - d0, 1), p0)
    h_d2 = math.log(max(p0 - d2, 1), p0)
    h = h_d2
    if h >= 0.25:
        u, case = 0.5, "balanced"
    else:
        u, case = (1 + 2 * h) / 3, "small-h"
    g = max(2 * (u - h), 1 - u, u)
    return {"p0": p0, "u": u, "h_d0": h_d0, "h_d2": h_d2, "case": case, "G": g}


def k2_shift_cover(delta: TriangleSpec, p: int, rows: list[int],
                   k20: list[Point]) -> list[int] | None:
    """Greedy covering of the K2 rows by cyclic shifts of the K2 trace.

    Returns an increasing sequence of shift indices whose shifted traces
    cover every K2 lattice point on the given rows, or None.
    """
    d = delta.d
    p0 = p % d
    lo = -(-d // 2)
    k2 = [q for q in k2_region(delta, p) if antidiag_index(q) in rows]
    k20_rows = [q for q in k20 if antidiag_index(q) in rows]

    def shifted(i):
        out = set()
        for q in k20_rows:
            cand = (q[0] - i, q[1] + i)
            if lo <= diag_index(cand) < lo + 2 * p0:
                out.add(cand)
            else:
                out.add((q[0] + p0 - i, q[1] - (p0 - i)))
        return out

    remaining = set(k2)
    chosen = []
    covers = {i: shifted(i) for i in range(p0)}
    while remaining:
        best, best_gain = None, 0
        for i in range(p0):
            gain = len(covers[i] & remaining)
            if gain > best_gain:
                best, best_gain = i, gain
        if best is None:
            return None
        chosen.append(best)
        remaining -= covers[best]
    return sorted(chosen)


def stage2_bookkeeping(delta: TriangleSpec, p: int, part: Partition123,
                       k20: list[Point]) -> dict:
    d = delta.d
    p0 = p % d
    _, d0, d2 = _d1_d0_d2(d, p0)
    sel = choose_u(d, p)
    u = sel["u"]
    jt = list(range(d - 3 * p0, d))
    thr = d - p0 ** u / max(p0 - d2, 1)
    j1 = [j for j in jt if j > thr]
    row_counts = {j: sum(1 for q in k20 if antidiag_index(q) == j) for j in jt}
    j2 = [j for j in jt if j not in j1 and row_counts[j] >= p0 ** u]
    j3 = [j for j in jt if j not in j1 and j not in j2]
    t1 = sum(1 for q in part.l2 if antidiag_index(q) - d in j1)
    cover2 = k2_shift_cover(delta, p, j2, k20) if j2 else []
    d3_rows = [j for j in jt if row_counts[j] >= p0 / 2]
    d3 = max(d3_rows) if d3_rows else None
    cover3 = k2_shift_cover(delta, p, [d3], k20) if d3 is not None else []
    t2 = len(cover2) if cover2 is not None else None
    t3 = len(cover3) if cover3 is not None else None
    s3 = len(j3)
    n_shifts = (t1 if t1 else 0) + (t2 or 0) + (t3 or 0) * s3
    h = sel["h_d2"] or 0.0
    bounds = {
        "t1": t1,
        "t1_bound": 0.5 * (p0 ** (2 * (u - h)) + p0 ** (u - h)),
        "t2": t2,
        "t2_bound": (math.floor(-math.log(3 * p0 ** 2, 1 - p0 ** (u - 1)))
                     if 0 < p0 ** (u - 1) < 1 else None),
        "t3": t3,
        "t3_bound": math.floor(math.log2(p0)) if p0 > 1 else 0,
        "s3": s3,
        "n_shifts": n_shifts,
        "d_needed": 4 * p0 * (n_shifts + 2 * s3 + 3),
        "d_bound_ok": d >= 4 * p0 * (n_shifts + 2 * s3 + 3),
    }
    return {"u_selection": sel, "J1": j1, "J2": j2, "J3": j3, "d3": d3,
            "cover2": cover2, "cover3": cover3, "bounds": bounds,
            "row_counts": row_counts}


# -- contract-driven arrow search ---------------------------------------


def g1_bound(p0: int, n: int) -> int:
    """Lower bound for m(Y0) points in a length-n diagonal window."""
    i, j = divmod(n, 2 * p0)
    if j <= p0:
        return i * (p0 // 2)
    return i * (p0 // 2) + j // 2 - (p0 + 1) // 2


def g2_bound(p0: int, n: int) -> int:
    """Upper bound for Y0 points in a length-n diagonal window."""
    i, j = divmod(n, 2 * p0)
    if j <= p0:
        return i * (p0 // 2) + j // 2
    return (i + 1) * (p0 // 2)


def _vec(a: Point, b: Point) -> Point:
    return (a[0] - b[0], a[1] - b[1])


def _reflected(src: Point, q: Point) -> Point:
    """Target of the arrow from src whose vector is src - q reflected."""
    return (src[0] - src[1] + q[1], src[1] - src[0] + q[0])


def _in_unit_triangle(delta: TriangleSpec, v: Point) -> bool:
    return v[0] >= 0 and v[1] >= 0 and delta.weight_num(v) <= delta.det


def _copy_index(delta: TriangleSpec, p: int, q: Point) -> int | None:
    """Index i of the K2 copy shifted by (i*p0, -i*p0) containing q."""
    d = delta.d
    p0 = p % d
    lo = -(-d // 2)
    if not (d - 3 * p0 <= antidiag_index(q) <= d - 1):
        return None
    dk = diag_index(q)
    if dk >= lo + 2 * p0:
        return None
    i = -((dk - lo) // (2 * p0))
    if lo - 2 * i * p0 <= dk < lo + 2 * p0 - 2 * i * p0:
        return i
    return None


def _beta2_candidates(delta: TriangleSpec, p: int, src: Point,
                      part: Partition123, b1_ran: set[Point],
                      my0: tuple[Point, ...]) -> list[tuple[Point, int]]:
    """(target, copy-index) options for a stage-2 arrow from src."""
    lset = set(part.l1) | set(part.l2)
    out = []
    for q in my0:
        v = _vec(src, q)
        if not _in_unit_triangle(delta, v):
            continue
        if q in b1_ran:
            continue
        if mirror(delta, q) in lset:
            continue
        idx = _copy_index(delta, p, q)
        if idx is None:
            continue
        out.append((q, idx))
    out.sort(key=lambda t: (-antidiag_index(t[0]), t[1])
             + delta.canonical_key(t[0]))
    return out


def _completions(delta: TriangleSpec, p: int, fixed: dict[Point, Point],
                 dom_rest: list[Point], ran_rest: list[Point],
                 required: dict[Point, int] | None, budget: int):
    """Generator over symmetric special completions (may raise on budget)."""
    dom_rest = delta.sort_points(dom_rest)
    dom_set = set(dom_rest)
    ran_set = set(ran_rest)
    n = len(dom_rest)
    assigned: dict[Point, Point] = {}
    used: set[Point] = set()
    counts = dict(required) if required is not None else None
    steps = 0

    def candidates(src: Point):
        opts = []
        for q in ran_set:
            if q in used:
                continue
            v = _vec(src, q)
            if not _in_unit_triangle(delta, v):
                continue
            if counts is not None and counts.get(v, 0) <= 0:
                continue
            diag = v[0] == v[1]
            opts.append(((0 if diag else 1, -v[0] if diag else 0)
                         + delta.canonical_key(q), q, v))
        opts.sort(key=lambda t: t[0])
        return [(t[1], t[2]) for t in opts]

    def rec(i: int):
        nonlocal steps
        steps += 1
        if steps > budget:
            raise EnumerationBudgetExceeded(
                f"more than {budget} completion search steps")
        while i < n and dom_rest[i] in assigned:
            i += 1
        if i == n:
            yield dict(assigned)
            return
        src = dom_rest[i]
        for q, v in candidates(src):
            partner = mirror(delta, q)
            partner_img = mirror(delta, src)
            forced = None
            if partner == src:
                pass
            elif partner in assigned:
                if assigned[partner] != partner_img:
                    continue
            elif partner in fixed:
                if fixed[partner] != partner_img:
                    continue
            else:
                if partner not in dom_set:
                    continue
                if partner_img in used or partner_img not in ran_set:
                    continue
                v2 = _vec(partner, partner_img)
                if not _in_unit_triangle(delta, v2):
                    continue
                if counts is not None and counts.get(v2, 0) <= (1 if v2 == v else 0):
                    continue
                forced = (partner, partner_img, v2)
            assigned[src] = q
            used.add(q)
            if counts is not None:
                counts[v] -= 1
            if forced:
                pp, qq, vv = forced
                assigned[pp] = qq
                used.add(qq)
                if counts is not None:
                    counts[vv] -= 1
            yield from rec(i + 1)
            if forced:
                pp, qq, vv = forced
                del assigned[pp]
                used.discard(qq)
                if counts is not None:
                    counts[vv] += 1
            del assigned[src]
            used.discard(q)
            if counts is not None:
                counts[v] += 1

    yield from rec(0)


def _closure_completions(delta: TriangleSpec, p: int,
                         beta1: dict[Point, Point], beta2: dict[Point, Point],
                         counts: dict[Point, int] | None, budget: int):
    """Generator over (closure, completion, full map) for beta1 and beta2.

    The mirror closure sends m(beta2(P)) to m(P).  Since Y0 = L1 + L2 + L3,
    beta2's domain is all of L2 and m maps m(Y0) onto Y0, a closure
    source outside beta1 and beta2 lies in L3.  Nothing is yielded when a
    closure source is already mapped or the merged map is not injective;
    with ``counts``, nor when its vectors exceed them, and the completion
    then uses exactly what is left.  Past ``budget`` search steps raises
    ``EnumerationBudgetExceeded``.
    """
    closure: dict[Point, Point] = {}
    for src, q in beta2.items():
        mq = mirror(delta, q)
        if mq in beta1 or mq in beta2 or mq in closure:
            return
        closure[mq] = mirror(delta, src)
    fixed = {**beta1, **beta2, **closure}
    ran_used = set(fixed.values())
    if len(ran_used) != len(fixed):
        return
    if counts is not None:
        counts = dict(counts)
        for src, q in fixed.items():
            v = _vec(src, q)
            if counts.get(v, 0) <= 0:
                return
            counts[v] -= 1
    _, _, y0, my0 = split_T1(delta, p)
    for comp in _completions(delta, p, fixed,
                             [pt for pt in y0 if pt not in fixed],
                             [q for q in my0 if q not in ran_used],
                             counts, budget):
        yield closure, comp, {**fixed, **comp}


@dataclass
class BetaAssembly:
    delta: TriangleSpec
    p: int
    beta1: dict[Point, Point]
    partition: Partition123
    beta2bar: dict[Point, Point]
    beta2: dict[Point, Point]
    sbeta2: dict[Point, Point]
    beta3: dict[Point, Point]
    beta: dict[Point, Point]
    special: SpecialBijection
    k_formula: int
    sign: int
    bookkeeping: dict = field(default_factory=dict)
    toggles: list[Point] = field(default_factory=list)  # valid_toggles(self)

    @property
    def k_exponent(self) -> int:
        return len(self.toggles)

    def vector_multiset(self) -> dict[Point, int]:
        return Counter(_vec(src, q) for src, q in self.beta.items())


def _count_vector(beta2: dict[Point, Point], vseq: list[Point]) -> tuple[int, ...]:
    counts = []
    for v in vseq:
        vd = (v[1], v[0])
        counts.append(sum(1 for src, q in beta2.items()
                          if _vec(src, q) in (v, vd)))
    return tuple(counts)


def exchange_family(delta: TriangleSpec, p: int,
                    beta2bar: dict[Point, Point],
                    limit: int = 4096) -> tuple[list[Point], list[dict]]:
    """The maps reachable from beta2bar by swapping each arrow's vector
    with its reflection; returns (vector sequence, family)."""
    _, _, _, my0 = split_T1(delta, p)
    my0_set = set(my0)
    srcs = delta.sort_points(beta2bar)
    vseq: list[Point] = []
    for src in srcs:
        v = _vec(src, beta2bar[src])
        if v not in vseq:
            vseq.append(v)
    family: list[dict[Point, Point]] = []

    def gen(idx, cur, used_q):
        if len(family) > limit:
            raise BetaConstructionError("exchange family too large")
        if idx == len(srcs):
            family.append(dict(cur))
            return
        src = srcs[idx]
        opts = set()
        for v in vseq:
            for w in (v, (v[1], v[0])):
                q = (src[0] - w[0], src[1] - w[1])
                if q in my0_set and q not in used_q \
                        and _in_unit_triangle(delta, w):
                    opts.add(q)
        for q in sorted(opts, key=delta.canonical_key):
            cur[src] = q
            gen(idx + 1, cur, used_q | {q})
        cur.pop(src, None)

    gen(0, {}, set())
    return vseq, family


def ranked_family(delta: TriangleSpec, p: int, beta2bar: dict[Point, Point]) \
        -> tuple[list[Point], list[dict]]:
    """The exchange family in descending rank: the per-vector usage
    counts taken in sequence order, ties by canonical target order."""
    vseq, family = exchange_family(delta, p, beta2bar)
    srcs = delta.sort_points(beta2bar)
    family.sort(key=lambda m: (_count_vector(m, vseq),
                               tuple(delta.canonical_key(m[s]) for s in srcs)),
                reverse=True)
    return vseq, family


def maximize_beta2(delta: TriangleSpec, p: int,
                   beta2bar: dict[Point, Point]) -> dict[Point, Point]:
    """A rank-maximal element of the exchange family.

    Swap moves can only raise the per-vector usage counts taken in
    sequence order, so the lexicographic maximum is the fixed point of
    the augmenting process; ties break by canonical target order.
    """
    return ranked_family(delta, p, beta2bar)[1][0]


def assemble_beta(delta: TriangleSpec, p: int,
                  budget: int = 400_000) -> BetaAssembly:
    """Run the full pipeline and validate the assembled bijection.

    Raises BetaHypothesisError when L2 is nonempty but the stage-2
    hypothesis (p > 2d+1 and p0 < d/6) fails; with empty L2 the
    diagonal-plus-completion fallback is still attempted.
    """
    d = delta.d
    p0 = p % d
    b1, part = build_beta1(delta, p)
    _, _, y0, my0 = split_T1(delta, p)
    make_special = _special_maker(delta, y0)
    my0_set = set(my0)
    hyp = {"p_gt_2d_plus_1": p > 2 * d + 1, "p0_lt_d_over_6": 6 * p0 < d}
    facts = partition_facts(delta, p, part)
    k20 = [q for q in k2_region(delta, p) if q in my0_set]
    book: dict = {"hypothesis": hyp, "partition_facts": facts,
                  "sizes": {"Y0": len(y0), "L1": len(part.l1),
                            "L2": len(part.l2), "L3": len(part.l3)}}
    if p0 >= 2:
        book["stage2"] = stage2_bookkeeping(delta, p, part, k20)
    if part.l2 and not all(hyp.values()):
        raise BetaHypothesisError(
            "nonempty L2 outside the stage-2 hypothesis", book)

    b1_ran = set(b1.values())
    l2 = delta.sort_points(part.l2)
    cand_lists = [_beta2_candidates(delta, p, src, part, b1_ran, my0)
                  for src in l2]

    result: dict | None = None

    def try_beta2bar(arrows: dict[Point, Point]) -> dict | None:
        # walk the exchange family in descending rank to the first
        # assembly-feasible element: the rank-maximal feasible map
        vseq, family = ranked_family(delta, p, arrows)
        top_rank = _count_vector(family[0], vseq) if family else ()
        for beta2 in family:
            trial = finish_assembly(arrows, beta2)
            if trial is not None:
                trial["rank"] = _count_vector(beta2, vseq)
                trial["top_rank"] = top_rank
                return trial
        return None

    def finish_assembly(beta2bar, beta2) -> dict | None:
        chosen = None
        try:
            for closure, comp, full in itertools.islice(_closure_completions(
                    delta, p, b1, beta2, None, budget), EVEN_TRIES):
                spec_b = make_special(full)
                if chosen is None or spec_b.sign == 1:
                    chosen = (closure, comp, full, spec_b)
                if spec_b.sign == 1:
                    break
        except EnumerationBudgetExceeded:
            return None
        if chosen is None:
            return None
        closure, comp, full, spec_b = chosen
        return {"beta2bar": dict(beta2bar), "beta2": dict(beta2),
                "closure": closure, "comp": comp, "full": full,
                "special": spec_b}

    if not l2:
        trial = finish_assembly({}, {})
        if trial is None:
            raise BetaConstructionError("no symmetric special completion found")
        result = trial
    else:
        def dfs2(idx, used_q, copy_vec, arrows):
            nonlocal result
            if result is not None:
                return
            if idx == len(l2):
                result = try_beta2bar(dict(arrows))
                return
            src = l2[idx]
            for q, ci in cand_lists[idx]:
                if q in used_q:
                    continue
                v = _vec(src, q)
                if ci in copy_vec and copy_vec[ci] != v:
                    continue
                arrows[src] = q
                added = ci not in copy_vec
                if added:
                    copy_vec[ci] = v
                dfs2(idx + 1, used_q | {q}, copy_vec, arrows)
                if added:
                    del copy_vec[ci]
                del arrows[src]
                if result is not None:
                    return

        dfs2(0, set(), {}, {})
        if result is None:
            raise BetaConstructionError(
                "no contract-satisfying stage-2 schedule found")

    beta2 = result["beta2"]
    full = result["full"]
    spec_b = result["special"]
    sbeta2 = {**beta2, **result["closure"]}
    beta3 = dict(result["comp"])
    k_formula = sum(_reflected(src, q) in my0_set for src, q in beta2.items())
    book["used_copies"] = sorted({_copy_index(delta, p, q)
                                  for q in beta2.values()}) if beta2 else []
    if "rank" in result:
        book["rank"] = list(result["rank"])
        book["top_rank"] = list(result["top_rank"])
    assembly = BetaAssembly(delta, p, b1, part, result["beta2bar"], beta2,
                            sbeta2, beta3, full, spec_b, k_formula,
                            spec_b.sign, book)
    validate_assembly(assembly)
    assembly.toggles = valid_toggles(assembly, budget)
    return assembly


def validate_assembly(a: BetaAssembly) -> None:
    delta, p = a.delta, a.p
    _, _, y0, my0 = split_T1(delta, p)
    if sorted(a.beta) != sorted(y0):
        raise AssertionError("domain is not Y0")
    if sorted(a.beta.values()) != sorted(my0):
        raise AssertionError("image is not m(Y0)")
    for src, q in a.beta.items():
        if not _in_unit_triangle(delta, _vec(src, q)):
            raise AssertionError(f"difference at {src} leaves the unit triangle")
    for src in a.partition.l1:
        if a.beta[src] != a.beta1[src]:
            raise AssertionError("assembled map disagrees with stage 1")
    for src in a.sbeta2:
        if a.beta[src] != a.sbeta2[src]:
            raise AssertionError("assembled map disagrees with the closure")


def valid_toggles(a: BetaAssembly, budget: int = 400_000) -> list[Point]:
    """L2 points whose reflected-vector variant extends to a related map."""
    out = []
    for src in a.beta2:
        if _toggle_subset_valid(a, (src,), budget) is not None:
            out.append(src)
    return sorted(out, key=a.delta.canonical_key)


def _toggle_subset_valid(a: BetaAssembly, subset: tuple[Point, ...],
                         budget: int) -> dict[Point, Point] | None:
    """Try to rebuild a related bijection with reflected arrows on subset."""
    my0_set = set(split_T1(a.delta, a.p)[3])
    beta2 = {}
    for src, q in a.beta2.items():
        if src in subset:
            q = _reflected(src, q)
            if q not in my0_set:
                return None
        beta2[src] = q
    try:
        for _, _, full in _closure_completions(a.delta, a.p, a.beta1, beta2,
                                               a.vector_multiset(), budget):
            return full
    except EnumerationBudgetExceeded:
        pass
    return None


def related_class_characterization(a: BetaAssembly,
                                   budget: int = 400_000) -> dict:
    """The relatedness class of the assembled map and its symmetric part.

    Two class notions are reported.  The full multiset class is every
    special bijection sharing beta's difference-vector multiset; its
    size, its signs and its coefficient, sign/prod(b!) = sign/K summed in
    exact rationals, come from the one-class ``special_classes`` DP.  Its
    symmetric members, the class the toggle characterization describes,
    come from the completion search started with no fixed arrows and
    exactly beta's vector counts.  ``generated_size`` counts the distinct
    maps rebuilt from the subsets of ``a.toggles``.  More than ``budget``
    DP transitions or search steps raises ``EnumerationBudgetExceeded``.
    """
    delta, p = a.delta, a.p
    _, _, y0, my0 = split_T1(delta, p)
    [cls] = special_classes(delta, p, budget, vectors=a.special.vectors)
    make_special = _special_maker(delta, y0)
    symmetric = [make_special(m) for m in _completions(
        delta, p, {}, list(y0), list(my0), a.vector_multiset(), budget)]
    generated = set()
    for rsize in range(len(a.toggles) + 1):
        for subset in itertools.combinations(a.toggles, rsize):
            full = _toggle_subset_valid(a, subset, budget) if subset \
                else a.beta
            if full is not None:
                generated.add(tuple(sorted(full.items())))
    return {
        "k_formula": a.k_formula,
        "k_validated": len(a.toggles),
        "symmetric": symmetric,
        "generated_size": len(generated),
        "enumerated_size": cls.size,
        "symmetric_size": len(symmetric),
        "signs": [s for s in (-1, 1) if cls.size + s * cls.sign_balance],
        "class_coefficient": cls.coefficient,
        "symmetric_class_coefficient": Fraction(
            sum(b.sign for b in symmetric), combo_denominator(delta, p)),
    }
