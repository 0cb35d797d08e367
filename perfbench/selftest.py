"""Self-test of the benchmark's checks: none of them may be vacuous.

    python3 perfbench/selftest.py

Runs one real task per workload and confirms that its checks pass.
Then it corrupts the output once per check, the way a faulty program
could, and confirms that the check named for that corruption rejects
it.  Exits 1 if a check accepts a corrupted output or rejects a good one.
"""

from __future__ import annotations

import copy
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[0:0] = [str(HERE.parent / "src"), str(HERE)]

import workloads  # noqa: E402


def bump(out, ell, t, by=1):
    out["u"][ell][t] = (out["u"][ell][t] + by) % 49
    return out


def drop_last_certified(out):
    out["certified"].pop()
    return out


def edit_report(i, fn):
    """Mutation that rewrites the i-th JSON report of a CLI task."""
    def mutate(out):
        code, text = out[i]
        rep = json.loads(text)
        fn(rep)
        out[i] = (code, json.dumps(rep))
        return out
    return mutate


def check_by_name(rep, name):
    return next(c for c in rep["checks"] if c["name"] == name)


def set_status(name, status):
    def fn(rep):
        check_by_name(rep, name)["status"] = status
        rep["failures"] = sum(c["status"] == "fail" for c in rep["checks"])
    return fn


def drop_bijection(rep):
    rep["count"] -= 1
    big = next(c for c in rep["classes"] if c["size"] > 1)
    big["size"] -= 1


# workload -> [(corruption, check that must reject it, deep check?)]
CORRUPTIONS = {
    "np-window": [
        ("u_0 changed", "u0_is_one", False, lambda o: bump(o, 0, 0)),
        ("u_1 coefficient changed", "u1_torus_sum", False,
         lambda o: bump(o, 1, 5)),
        ("u_3 given a unit constant term", "np_above_ihp", False,
         lambda o: bump(o, 3, 0, by=1 - int(o["u"][3][0]))),
        ("certified point dropped", "certified_points", False,
         drop_last_certified),
        ("last coefficient of u_5 changed", "u_berkowitz", True,
         lambda o: bump(o, 5, 19)),
    ],
    "twisted-zq": [
        ("u_1 coefficient changed", "u1_torus_sum", False,
         lambda o: bump(o, 1, 7)),
        ("u_2 given a unit constant term", "np_above_ihp", False,
         lambda o: bump(o, 2, 0, by=1 - int(o["u"][2][0]))),
    ],
    "special-classes": [
        ("a bijection dropped", "count_is_permanent", False,
         edit_report(0, drop_bijection)),
        ("a sign balance changed", "signs_sum_to_determinant", False,
         edit_report(1, lambda r: r["classes"][0].update(
             sign_balance=r["classes"][0]["sign_balance"] + 2))),
        ("a class size changed", "class_sizes_sum_to_count", False,
         edit_report(0, lambda r: r["classes"][3].update(
             size=r["classes"][3]["size"] + 1))),
        ("a vertex exponent changed", "vertex_exponents", False,
         edit_report(1, lambda r: r["classes"][2]["exponents"].__setitem__(
             0, r["classes"][2]["exponents"][0] + 1))),
        ("exit code changed", "exit_code", False,
         lambda o: [(1, o[0][1])] + o[1:]),
    ],
    "verify-battery": [
        ("beta_pipeline fails at (13,41)", "no_failures", False,
         edit_report(1, set_status("beta_pipeline", "fail"))),
        ("beta_pipeline passes out of hypothesis at (7,17)",
         "status_by_hypothesis", False,
         edit_report(0, set_status("beta_pipeline", "pass"))),
        ("k2 rows out-of-hypothesis at (13,41)", "status_by_hypothesis",
         False, edit_report(1, set_status("k2_distribution_rows",
                                          "out-of-hypothesis"))),
        ("bijection count changed", "bijection_count_is_permanent", False,
         edit_report(0, lambda r: check_by_name(
             r, "example_special_bijection_present").update(computed=12095))),
        ("seed changed", "seed_echoed", False,
         edit_report(1, lambda r: r.update(seed=r["seed"] + 1))),
        ("report bytes changed", "byte_identical_repeat", True,
         lambda o: [(o[0][0], o[0][1] + " ")] + o[1:]),
    ],
}


def main() -> int:
    bad = 0
    for name, cases in CORRUPTIONS.items():
        wl = workloads.WORKLOADS[name]()
        wl.setup(0)
        wl.prepare_checks()
        inp = wl.task_input(0)
        out = wl.run(inp)
        errs = wl.check(inp, out) + wl.deep_check(inp, out)
        print(f"{name}: genuine output {'passes' if not errs else errs}")
        bad += bool(errs)
        for label, check, deep, mutate in cases:
            corrupt = mutate(copy.deepcopy(out))
            errs = (wl.deep_check if deep else wl.check)(inp, corrupt)
            hit = any(n == check for n, _ in errs)
            print(f"  {label}: {check} "
                  f"{'rejects it' if hit else 'ACCEPTS IT'}")
            bad += not hit
    print("selftest", "failed" if bad else "passed")
    return 1 if bad else 0


if __name__ == "__main__":
    raise SystemExit(main())
