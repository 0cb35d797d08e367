"""Command-line orchestration: polygons, figures, and the verify battery.

Every command emits UTF-8 JSON (rationals as "num/den" strings) or SVG;
randomized searches take an explicit seed that is embedded in the
report, and the verify battery is deterministic for a fixed seed
independent of the worker count (checks are pure and keyed by name).
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import random
import sys
from concurrent.futures import ThreadPoolExecutor
from decimal import Decimal
from fractions import Fraction

from . import beta as beta_mod
from . import combos, dwork, hodge, lattice, svg
from .lattice import TriangleSpec
from .series import is_prime

SCHEMA = "tpoly/1"


def frac_str(x) -> str:
    f = x if isinstance(x, Fraction) else Fraction(x)
    # Decimal prints past the int-to-str digit limit, kept for parsing --f
    return f"{Decimal(f.numerator)}/{Decimal(f.denominator)}"


def _json_default(obj):
    if isinstance(obj, Fraction):
        return frac_str(obj)
    raise TypeError(f"unserializable {type(obj)}")


_encode_str = json.encoder.encode_basestring_ascii
_encode_scalar = json.JSONEncoder(default=_json_default).encode


def _dumps(obj) -> str:
    """``json.dumps(obj, sort_keys=True, indent=1, default=_json_default)``.

    Any ``indent`` sends ``json.dumps`` to its pure-Python generator
    encoder.  This writes the same text into one chunk list with the
    stdlib's C leaf encoders; an exact int goes through ``repr``, and a
    list of nothing but exact ints (so no ``bool``) through one join.
    Dict keys are sorted and coerced as the stdlib does, and raise its
    ``TypeError``.  There is no circular-reference check: a cycle ends
    in ``RecursionError`` instead of ``ValueError``.
    """
    chunks: list[str] = []
    _write_json(obj, "\n", chunks.append)
    return "".join(chunks)


def _write_json(o, nl: str, emit) -> None:
    """Emit o as ``_dumps`` does; nl is a newline plus the indent of the
    line o starts on."""
    if type(o) is int:
        emit(repr(o))
    elif isinstance(o, str):
        emit(_encode_str(o))
    elif isinstance(o, (list, tuple)):
        if not o:
            emit("[]")
            return
        inner = nl + " "
        if set(map(type, o)) == {int}:
            emit("[" + inner + ("," + inner).join(map(repr, o)) + nl + "]")
            return
        sep = "[" + inner
        for v in o:
            emit(sep)
            sep = "," + inner
            _write_json(v, inner, emit)
        emit(nl + "]")
    elif isinstance(o, dict):
        if not o:
            emit("{}")
            return
        inner = nl + " "
        sep = "{" + inner
        for k, v in sorted(o.items()):
            if not isinstance(k, str):
                if k is not None and not isinstance(k, (int, float)):
                    raise TypeError("keys must be str, int, float, bool "
                                    f"or None, not {k.__class__.__name__}")
                k = _encode_scalar(k)
            emit(sep + _encode_str(k) + ": ")
            sep = "," + inner
            _write_json(v, inner, emit)
        emit(nl + "}")
    elif o is None or isinstance(o, (int, float)):
        emit(_encode_scalar(o))
    else:
        _write_json(_json_default(o), nl, emit)


def dump_json(obj, path: str | None) -> str:
    text = _dumps(obj) + "\n"
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return text


class Refused(Exception):
    """A documented refusal; ``main`` reports it through ``refuse``."""


def triangle_from_args(args) -> TriangleSpec:
    if args.d is not None:
        return lattice.isosceles(args.d)
    if None in (args.a1, args.b1, args.a2, args.b2):
        raise Refused("need --d or all of --a1 --b1 --a2 --b2")
    return lattice.make_triangle(args.a1, args.b1, args.a2, args.b2)


def check_config(delta: TriangleSpec, p: int) -> None:
    if not is_prime(p):
        raise Refused(f"p = {p} is not prime")
    if delta.det % p == 0:
        raise Refused("p divides det; the residue machinery degenerates")


def refuse(args, reason: str, status: str = "refused",
           path: str | None = None) -> int:
    """A typed refusal: one JSON record (to --json or path) and exit 2."""
    dump_json({"schema": SCHEMA, "command": args.command, "p": args.p,
               "status": status, "reason": reason}, path or args.json)
    return 2


def load_f(path: str) -> dict[lattice.Point, int]:
    """An --f file: a JSON object {"x,y": coefficient}; refuses any other."""
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except (OSError, ValueError) as exc:
        raise Refused(f"cannot read --f: {exc}") from None
    if not isinstance(raw, dict):
        raise Refused('--f must hold a JSON object {"x,y": coefficient}')
    out = {}
    for key, val in raw.items():
        try:
            x, y = key.split(",")
            if type(val) is not int:    # not a float, a string or a bool
                raise TypeError
            out[(int(x), int(y))] = val
        except (TypeError, ValueError):
            raise Refused(f"--f entry {key!r}: {val!r} is not "
                          '"x,y": integer') from None
    return out


# -- commands ----------------------------------------------------------


def cmd_ihp(args) -> int:
    delta = triangle_from_args(args)
    check_config(delta, args.p)
    if args.lmax < 0:
        raise Refused("ihp needs --lmax >= 0")
    res = hodge.ihp(delta, args.p, args.lmax)
    payload = {
        "schema": SCHEMA,
        "command": "ihp",
        "p": args.p,
        "triangle": [delta.a1, delta.b1, delta.a2, delta.b2],
        "hypothesis_ok": res.hypothesis_ok,
        "vertices": [[x, frac_str(y)] for x, y in res.hull.vertices],
        "certified": [bool(c and res.hull.value_at(ell) == h)
                      for ell, h, c in zip(res.ell_values, res.h_values,
                                           res.certified)],
        "h_values": list(res.h_values),
    }
    dump_json(payload, args.json)
    return 0


def cmd_gnp_vertices(args) -> int:
    delta = triangle_from_args(args)
    check_config(delta, args.p)
    rows = []
    for k in range(1, args.kmax + 1):
        xk, xpk, hk, hpk = hodge.closed_form_vertices(delta, args.p, k)
        row = {"k": k, "x_k": xk, "x_k_closed": xpk, "h_Tk": hk, "h_Tk_closed": hpk}
        if delta.is_isosceles:
            row["isosceles_formula"] = list(
                hodge.isosceles_vertex_formulas(delta, args.p, k))
        rows.append(row)
    dump_json({"schema": SCHEMA, "command": "gnp-vertices", "p": args.p,
               "rows": rows}, args.json)
    return 0


def cmd_hodge_h(args) -> int:
    delta = triangle_from_args(args)
    check_config(delta, args.p)
    pts = lattice.enumerate_T(delta, args.k, closed=args.closed)
    g = hodge.greedy_minimal_permutation(delta, args.p, pts)
    o = hodge.assignment_oracle(delta, args.p, pts, pts)
    dump_json({"schema": SCHEMA, "command": "hodge-h", "p": args.p,
               "k": args.k, "closed": args.closed, "cardinality": len(pts),
               "h_greedy": g.h, "h_oracle": o.h,
               "h1": frac_str(g.h1), "h2": frac_str(g.h2)}, args.json)
    return 0 if g.h == o.h else 1


def cmd_dwork_np(args) -> int:
    delta = triangle_from_args(args)
    check_config(delta, args.p)
    if args.M < 1 or args.tprec < 1 or args.lmax < 0:
        raise Refused("dwork-np needs --M >= 1, --tprec >= 1 and --lmax >= 0")
    f = load_f(args.f)
    try:
        cs = dwork.char_series(delta, f, args.p, args.M, args.tprec, args.lmax)
    except ValueError as exc:
        # the documented refusals: support off the triangle, vanishing
        # vertex coefficients, exhausted precision, p^M past exact arithmetic
        raise Refused(str(exc)) from None
    hull, certified, flagged = dwork.newton_polygon_C(cs)
    payload = {
        "schema": SCHEMA,
        "command": "dwork-np",
        "p": args.p, "M": args.M, "tprec": args.tprec,
        "valuations": {str(ell): cs.valuation(ell)
                       for ell in range(len(cs.u))},
        "certified": certified,
        "flagged_at_least_N": flagged,
        "precision": cs.prec,
        "vertices": [[x, frac_str(y)] for x, y in hull.vertices],
    }
    dump_json(payload, args.json)
    return 0


def cmd_leading_coeff(args) -> int:
    delta = triangle_from_args(args)
    check_config(delta, args.p)
    if args.M < 1:
        raise Refused("leading-coeff needs --M >= 1")
    f = load_f(args.f)
    h1 = hodge.minimal_h(delta, args.p, lattice.enumerate_T(delta, 1))
    try:
        det = dwork.det_T1(delta, f, args.p, args.M, h1 + 2)
    except ValueError as exc:
        # a support that is not a full triangle, or p^M past exact int64
        raise Refused(str(exc)) from None
    lead = int(det[h1])
    payload = {"schema": SCHEMA, "command": "leading-coeff", "p": args.p,
               "h_T1": h1, "leading": lead,
               "unit_mod_p": lead % args.p != 0}
    if delta.is_isosceles and delta.d <= 3:
        payload["combo_formula"] = combos.optimal_combos_value(
            delta, args.p, f, args.M)
        payload["match"] = payload["combo_formula"] == lead % args.p ** args.M
    dump_json(payload, args.json)
    return 0


def cmd_special(args) -> int:
    delta = triangle_from_args(args)
    check_config(delta, args.p)
    try:
        classes = combos.special_classes(delta, args.p, budget=args.budget)
    except combos.EnumerationBudgetExceeded as exc:
        return refuse(args, str(exc), "out-of-budget", args.emit_classes)
    # a coefficient is sign_balance/K: format each distinct value once
    coeff = {c.sign_balance: c.coefficient for c in classes}
    coeff = {s: frac_str(f) for s, f in coeff.items()}
    recs = [{
        "vector_multiset": c.vectors,
        "size": c.size,
        "sign_balance": c.sign_balance,
        "coefficient": coeff[c.sign_balance],
        "exponents": c.exponents,
    } for c in classes]
    dump_json({"schema": SCHEMA, "command": "special", "p": args.p,
               "count": sum(c.size for c in classes), "classes": recs},
              args.emit_classes)
    return 0


def cmd_beta(args) -> int:
    delta = triangle_from_args(args)
    check_config(delta, args.p)
    try:
        a = beta_mod.assemble_beta(delta, args.p)
    except beta_mod.BetaHypothesisError as exc:
        dump_json({"schema": SCHEMA, "command": "beta", "p": args.p,
                   "status": "out-of-hypothesis",
                   "diagnostics": _plain(exc.diagnostics)}, args.json)
        return 2
    payload = {
        "schema": SCHEMA, "command": "beta", "p": args.p,
        "status": "ok",
        "stages": {
            "beta1": _pairs(a.beta1),
            "beta2bar": _pairs(a.beta2bar),
            "beta2": _pairs(a.beta2),
            "symmetric_closure": _pairs(a.sbeta2),
            "beta3": _pairs(a.beta3),
            "beta": _pairs(a.beta),
        },
        "sign": a.sign,
        "k_exponent": a.k_exponent,
        "k_formula": a.k_formula,
        "bookkeeping": _plain(a.bookkeeping),
    }
    dump_json(payload, args.json)
    if args.svg:
        with open(args.svg, "w", encoding="utf-8") as fh:
            fh.write(svg.figure_beta(delta, args.p, a.beta))
    return 0


def _pairs(mapping):
    return [[list(k), list(v)] for k, v in sorted(mapping.items())]


def _plain(obj):
    if isinstance(obj, dict):
        return {str(k): _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple, set)):
        return [_plain(v)
                for v in (sorted(obj) if isinstance(obj, set) else obj)]
    if isinstance(obj, Fraction):
        return frac_str(obj)
    return obj


def cmd_figure(args) -> int:
    delta = triangle_from_args(args)
    check_config(delta, args.p)
    kinds = {"t1": svg.figure_t1_split, "y0": svg.figure_y0,
             "regions": svg.figure_regions}
    text = kinds[args.which](delta, args.p)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


# -- verify battery ----------------------------------------------------

T12_REFERENCE_7_17 = {(1, 2), (1, 4), (2, 1), (2, 2), (2, 3), (2, 4), (3, 2),
                  (4, 1), (4, 2)}
Y0_REFERENCE_7_17 = {(2, 6), (3, 5), (3, 6), (5, 3), (5, 6), (6, 2), (6, 3),
                 (6, 5), (6, 6)}
C0_REFERENCE_7_17 = {(5, 6), (6, 5), (6, 6)}

# tau^{-1} of the worked minimal permutation at (7,17); two entries
# restore obvious typos in the source table ((0,6)->(0,4), (1,3)->(3,2))
EXAMPLE_TAU_INV_7_17 = {
    (0, 0): (0, 0), (0, 1): (0, 3), (0, 2): (0, 6), (0, 3): (0, 2),
    (0, 4): (0, 5), (0, 5): (0, 1), (0, 6): (0, 4), (1, 0): (3, 0),
    (1, 1): (3, 3), (1, 5): (3, 1), (2, 0): (6, 0), (3, 0): (2, 0),
    (3, 1): (2, 3), (3, 3): (2, 2), (4, 0): (5, 0), (5, 0): (1, 0),
    (5, 1): (1, 3), (6, 0): (4, 0), (1, 2): (2, 1), (1, 4): (1, 1),
    (2, 1): (4, 1), (2, 2): (2, 4), (2, 3): (5, 1), (2, 4): (1, 4),
    (3, 2): (1, 2), (4, 1): (4, 2), (4, 2): (1, 5), (1, 3): (3, 2),
}

EXAMPLE_BETA_7_17 = {
    (2, 6): (1, 2), (3, 5): (1, 1), (3, 6): (2, 1), (5, 3): (4, 2),
    (5, 6): (1, 5), (6, 2): (5, 1), (6, 3): (4, 1), (6, 5): (1, 4),
    (6, 6): (2, 4),
}


def _check(name, provenance, fn):
    def run():
        try:
            ok, expected, computed = fn()
            status = "pass" if ok else "fail"
        except beta_mod.BetaHypothesisError as exc:
            status, expected, computed = "out-of-hypothesis", None, str(exc)
        except combos.EnumerationBudgetExceeded as exc:
            status, expected, computed = "out-of-budget", None, str(exc)
        except Exception as exc:  # noqa: BLE001 - reported, never skipped
            status, expected, computed = "fail", None, f"{type(exc).__name__}: {exc}"
        return {"name": name, "status": status, "provenance": provenance,
                "expected": _plain(expected), "computed": _plain(computed)}
    return name, run


def build_checks(delta: TriangleSpec, p: int, seed: int):
    d = delta.d
    checks = []
    rng_seed = seed

    def add(name, provenance, fn):
        checks.append(_check(name, provenance, fn))

    def c_counts():
        rows = []
        for k in (1, 2, 3):
            brute = lattice.x_count(delta, k)
            formula = (k * d + 1) * k * d // 2
            rows.append((k, brute, formula))
        return (all(b == f for _, b, f in rows),
                [r[2] for r in rows], [r[1] for r in rows])
    add("x_counts_match_formula", "reference", c_counts)

    def c_linearity():
        rng = random.Random(rng_seed)
        pool = lattice.enumerate_T(delta, 3, closed=True)
        for _ in range(200):
            a = pool[rng.randrange(len(pool))]
            b = pool[rng.randrange(len(pool))]
            s = (a[0] + b[0], a[1] + b[1])
            if delta.weight_num(s) != delta.weight_num(a) + delta.weight_num(b):
                return False, 0, (a, b)
        return True, "w(P+Q)=w(P)+w(Q)", "holds on 200 samples"
    add("weight_linearity", "definition", c_linearity)

    def c_eta():
        eta = lattice.eta_permutation(delta, p)
        pprime = pow(p, -1, delta.det)
        ok = all(lattice.parallelogram_residue(
            delta, (pprime * q[0], pprime * q[1])) == src
            for src, q in eta.items())
        return ok and len(set(eta.values())) == delta.det, \
            "bijection with residue inverse", len(eta)
    add("eta_permutation_bijective", "cross-check", c_eta)

    def c_hT1():
        t1 = lattice.enumerate_T(delta, 1)
        g = hodge.greedy_minimal_permutation(delta, p, t1)
        o = hodge.assignment_oracle(delta, p, t1, t1)
        closed = hodge.isosceles_vertex_formulas(delta, p, 1)[2]
        return g.h == o.h == closed, closed, (g.h, o.h)
    add("h_T1_greedy_oracle_closed_form", "cross-check", c_hT1)

    def c_h2lin():
        return hodge.h2_linearity_check(delta, p, 2), True, True
    add("h2_linearity_k2", "cross-check", c_h2lin)

    def c_ihp():
        x1, xp1, h1, hp1 = hodge.closed_form_vertices(delta, p, 1)
        res = hodge.ihp(delta, p, xp1)
        v1 = res.hull.value_at(x1)
        v2 = res.hull.value_at(xp1)
        slope_ok = (v2 - v1) == (xp1 - x1) * (p - 1)
        return (v1 == h1 and v2 == hp1 and slope_ok,
                (h1, hp1), (v1, v2))
    add("ihp_vertices_and_slope", "cross-check", c_ihp)

    def c_c0_rows():
        rep = combos.c0_distribution_counts(delta, p)
        ok = all(r["match"] for r in rep["rows"])
        if not rep["gamma_in_hypothesis"]:
            if ok:
                return True, "rows match (outside hypothesis)", rep["rows"]
            raise beta_mod.BetaHypothesisError(
                "c0 distribution outside hypothesis", {"rows": rep["rows"]})
        return ok and rep["gamma_bijection"], "all rows match formula", rep["rows"]
    add("c0_distribution_rows", "reference", c_c0_rows)

    def c_k2_rows():
        rep = combos.k2_distribution_counts(delta, p)
        if not rep["hypothesis"]:
            if all(r["match"] for r in rep["rows"]):
                return True, "rows match (outside hypothesis)", rep["rows"]
            raise beta_mod.BetaHypothesisError(
                "k2 distribution outside hypothesis", {"rows": rep["rows"]})
        return all(r["match"] for r in rep["rows"]), "all rows match", rep["rows"]
    add("k2_distribution_rows", "reference", c_k2_rows)

    def c_beta():
        a = beta_mod.assemble_beta(delta, p)
        expected = "special, even, class = 2^k, coefficient 2^i/N1"
        computed = {"sign": a.sign, "k_validated": a.k_exponent,
                    "k_formula": a.k_formula}
        if a.sign != 1:
            # an odd assembly fails before the class DP, whose budget
            # could otherwise mask it
            return False, expected, computed
        rep = beta_mod.related_class_characterization(a)
        ok = (rep["symmetric_size"] == 2 ** a.k_exponent
              and rep["symmetric_size"] == rep["generated_size"]
              and all(b.sign == 1 for b in rep["symmetric"]))
        coeff = rep["class_coefficient"]
        num = abs(coeff.numerator)
        ok = ok and num & (num - 1) == 0 and coeff.denominator % p != 0
        return ok, expected, {**computed,
                              "symmetric_class": rep["symmetric_size"],
                              "multiset_class": rep["enumerated_size"],
                              "coefficient": coeff}
    add("beta_pipeline", "cross-check", c_beta)

    if (d, p) == (7, 17):
        def c_fig2():
            t11, t12, _, _ = lattice.split_T1(delta, p)
            return set(t12) == T12_REFERENCE_7_17, sorted(T12_REFERENCE_7_17), sorted(t12)
        add("figure2_T12_set", "reference", c_fig2)

        def c_fig3():
            _, _, y0, _ = lattice.split_T1(delta, p)
            return set(y0) == Y0_REFERENCE_7_17, sorted(Y0_REFERENCE_7_17), sorted(y0)
        add("figure3_Y0_set", "reference", c_fig3)

        def c_c0set():
            _, c0 = lattice.fundamental_cell(delta, p)
            return set(c0) == C0_REFERENCE_7_17, sorted(C0_REFERENCE_7_17), sorted(c0)
        add("fundamental_cell_C0_set", "reference", c_c0set)

        def c_example_tau():
            t1 = lattice.enumerate_T(delta, 1)
            idx = {q: i for i, q in enumerate(t1)}
            mapping = [None] * len(t1)
            for img, src in EXAMPLE_TAU_INV_7_17.items():
                mapping[idx[src]] = idx[img]
            a = hodge.score_assignment(delta, p, t1, t1, mapping)
            o = hodge.assignment_oracle(delta, p, t1, t1)
            return a.h == o.h == 259, 259, (a.h, o.h)
        add("example_permutation_is_minimal", "reference", c_example_tau)

        def c_example_beta():
            sc = combos.SpecialCount(delta, p)
            return (sc.pairs.admits(EXAMPLE_BETA_7_17),
                    "example admitted by the special-pair table; "
                    "computed is the table's permanent", sc.count)
        add("example_special_bijection_present", "reference", c_example_beta)

        def c_exponents():
            exp1, exp2 = combos.expected_vertex_exponents(delta, p)
            sc = combos.SpecialCount(delta, p)
            rng = random.Random(rng_seed)
            sample = [sc.sample(rng) for _ in range(60)]
            datas = [combos.combo_from_bijection(delta, p, b) for b in sample]
            ok = all(dd.exponents[0] == exp1 and dd.exponents[1] == exp2
                     and dd.tau_sign == b.sign
                     for dd, b in zip(datas, sample))
            return ok, (exp1, exp2), "sampled 60 bijections"
        add("special_combo_exponent_maximality", "cross-check", c_exponents)

    if p % d == 1:
        def c_ordinary():
            t11, t12, y0, _ = lattice.split_T1(delta, p)
            t1 = lattice.enumerate_T(delta, 1)
            ident = hodge.score_assignment(delta, p, t1, t1,
                                           list(range(len(t1))))
            o = hodge.assignment_oracle(delta, p, t1, t1)
            sc = combos.SpecialCount(delta, p)
            return (not t12 and not y0 and ident.h == o.h and sc.count == 1
                    and sc.sample(random.Random(rng_seed)).sign == 1), \
                "empty Y0, identity minimal", (len(t12), ident.h, o.h)
        add("ordinary_case_trivialities", "definition", c_ordinary)

    return checks


def run_verify(delta: TriangleSpec, p: int, seed: int, workers: int) -> dict:
    checks = build_checks(delta, p, seed)
    results = {}
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            futures = {name: pool.submit(fn) for name, fn in checks}
            for name, fut in futures.items():
                results[name] = fut.result()
    else:
        for name, fn in checks:
            results[name] = fn()
    ordered = [results[name] for name in sorted(results)]
    failures = sum(1 for r in ordered if r["status"] == "fail")
    return {
        "schema": SCHEMA,
        "command": "verify",
        "d": delta.d if delta.is_isosceles else None,
        "triangle": [delta.a1, delta.b1, delta.a2, delta.b2],
        "p": p,
        "seed": seed,
        "checks": ordered,
        "failures": failures,
    }


def cmd_verify(args) -> int:
    delta = triangle_from_args(args)
    check_config(delta, args.p)
    workers = int(os.environ.get("TPOLY_WORKERS", "1"))
    report = run_verify(delta, args.p, args.seed, workers)
    dump_json(report, args.json)
    if report["failures"]:
        return 1
    return 2 if any(c["status"] == "out-of-budget" for c in report["checks"]) else 0


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The tpoly argument parser, built on first use and kept for the
    process: ``parse_args`` returns a fresh namespace and leaves it as is."""
    ap = argparse.ArgumentParser(prog="tpoly", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    def common(sp, with_p=True):
        sp.add_argument("--d", type=int, default=None)
        sp.add_argument("--a1", type=int, default=None)
        sp.add_argument("--b1", type=int, default=None)
        sp.add_argument("--a2", type=int, default=None)
        sp.add_argument("--b2", type=int, default=None)
        if with_p:
            sp.add_argument("--p", type=int, required=True)
        sp.add_argument("--json", default=None)

    sp = sub.add_parser("ihp")
    common(sp)
    sp.add_argument("--lmax", type=int, default=40)
    sp.set_defaults(fn=cmd_ihp)

    sp = sub.add_parser("gnp-vertices")
    common(sp)
    sp.add_argument("--kmax", type=int, default=3)
    sp.set_defaults(fn=cmd_gnp_vertices)

    sp = sub.add_parser("hodge-h")
    common(sp)
    sp.add_argument("--k", type=int, default=1)
    sp.add_argument("--closed", action="store_true")
    sp.set_defaults(fn=cmd_hodge_h)

    sp = sub.add_parser("dwork-np")
    common(sp)
    sp.add_argument("--f", required=True)
    sp.add_argument("--tprec", type=int, default=20)
    sp.add_argument("--lmax", type=int, default=8)
    sp.add_argument("--M", type=int, default=2)
    sp.set_defaults(fn=cmd_dwork_np)

    sp = sub.add_parser("leading-coeff")
    common(sp)
    sp.add_argument("--f", required=True)
    sp.add_argument("--M", type=int, default=1)
    sp.set_defaults(fn=cmd_leading_coeff)

    sp = sub.add_parser("special")
    common(sp)
    sp.add_argument("--emit-classes", default=None)
    sp.add_argument("--budget", type=int, default=2_000_000)
    sp.set_defaults(fn=cmd_special)

    sp = sub.add_parser("beta")
    common(sp)
    sp.add_argument("--svg", default=None)
    sp.set_defaults(fn=cmd_beta)

    sp = sub.add_parser("figure")
    common(sp)
    sp.add_argument("--which", choices=["t1", "y0", "regions"], default="t1")
    sp.add_argument("--out", default=None)
    sp.set_defaults(fn=cmd_figure)

    sp = sub.add_parser("verify")
    common(sp)
    sp.add_argument("--seed", type=int, default=0)
    sp.set_defaults(fn=cmd_verify)
    return ap


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.fn(args)
    except Refused as exc:
        return refuse(args, str(exc))
    except lattice.NotIsoscelesError as exc:
        # verify, figure, special and beta read the isosceles leg d
        return refuse(args, f"{args.command} needs --d: {exc}")


if __name__ == "__main__":
    raise SystemExit(main())
