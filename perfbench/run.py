"""Benchmark for tpoly: four workloads, end-to-end or per-layer metrics.

Run from the repository root:

    python3 perfbench/run.py --workload np-window --seed 1 --seconds 20 --trace 0

With ``--trace 0`` the run times whole tasks with nothing wrapped and
reports the end-to-end metrics, scaled to a reference machine speed
that ``speed.py`` samples while each task runs.  With ``--trace 1`` it alternates each
task untraced and traced, reports per-layer metrics per traced task,
and writes the spans to ``perfbench/runs/``.  Every task's outputs are
checked before the run reports; the last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from speed import SpeedProbe  # the script's own directory is on sys.path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_PROBES = 7


def fail(msg: str) -> None:
    print(f"perfbench: {msg}", file=sys.stderr)
    raise SystemExit(2)


def setup_cpu_seconds(workload: str, seed: int) -> float:
    """CPU seconds of a fresh interpreter that runs the workload's set-up,
    scaled to the reference machine speed.

    CPU time of the child, all threads, from exec to exit: unlike its
    wall time it does not grow when the machine steals time.  The child
    samples the machine's speed while it sets up (see ``speed.py``) and
    prints the scale and the CPU time its probes took.
    """
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    done = subprocess.run([sys.executable, str(HERE / "setup_probe.py"),
                           workload, str(seed)], cwd=ROOT, check=True,
                          timeout=60, stdout=subprocess.PIPE, text=True)
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    probe = json.loads(done.stdout.splitlines()[-1])
    cpu = after.ru_utime - before.ru_utime + after.ru_stime - before.ru_stime
    return (cpu - probe["probe_cpu_s"]) * probe["scale"]


def run_task(wl, inp, probe: SpeedProbe):
    """(output or None on an exception, wall seconds, CPU seconds).

    The times leave out the time the probe's samples took; a probe that
    was never entered takes none.
    """
    start = probe.mark()
    try:
        out = wl.run(inp)
    except Exception as exc:  # noqa: BLE001 - counted as a failed operation
        print(f"perfbench: task failed: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        out = None
    wall, cpu = probe.since(start)
    return out, wall, cpu


def untraced(wl, seconds: float, setup_probe):
    """Tasks until their summed wall time reaches seconds.

    Task times are scaled to the reference machine speed before they
    are reported; the unscaled ones go to standard error.  Throughput
    is one over the median task time, so that a task the host stalls
    (wall time far above CPU time) does not move it.  Each output is
    checked as soon as its task ends, with the clock stopped, so no
    output is kept and checks take no measured time.

    ``setup_probe()`` times one fresh set-up.  It runs SETUP_PROBES
    times, spread evenly over the timed phase between tasks, so that
    their median samples the machine's slow and fast phases alike.
    """
    first, errs, walls, cpus, scales = None, [], [], [], []
    setups = [setup_probe()]
    gap = seconds / (SETUP_PROBES - 1)
    attempted = failed = 0
    busy = 0.0
    while busy < seconds:
        inp = wl.task_input(attempted)
        with SpeedProbe() as probe:
            out, wall, cpu = run_task(wl, inp, probe)
        attempted += 1
        busy += wall
        if out is not None:
            walls.append(wall)
            cpus.append(cpu)
            scales.append(probe.scale)
            errs += wl.check(inp, out)
            if first is None:
                first = (inp, out)
        else:
            failed += 1
        while len(setups) < SETUP_PROBES and busy >= gap * len(setups):
            setups.append(setup_probe())
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if first is not None:
        errs += wl.deep_check(*first)
    ref_walls = [w * k for w, k in zip(walls, scales)]
    ref_cpus = [c * k for c, k in zip(cpus, scales)]
    metrics = {
        "tasks_per_s": (1 / statistics.median(ref_walls) if walls else 0.0,
                        "1/s"),
        "task_cpu_s_p50": (statistics.median(ref_cpus) if cpus else 0.0, "s"),
        "peak_rss_mb": (peak_mb, "MB"),
        "setup_s": (statistics.median(setups), "s"),
    }
    print(f"perfbench: {len(walls)} tasks in {busy:.2f} s; wall "
          f"{[round(w, 3) for w in walls]}; cpu {[round(c, 3) for c in cpus]}; "
          f"speed scale {[round(k, 3) for k in scales]}; "
          f"setup cpu {[round(t, 4) for t in setups]}", file=sys.stderr)
    return bool(walls), errs, attempted, failed, metrics


def traced(wl, seconds: float, trace_path: Path):
    from tpoly import lattice
    from layertrace import Tracer
    import workloads

    tracer = Tracer()
    first, errs, overhead = None, [], []
    per_task_distinct = 0
    attempted = failed = 0
    busy = 0.0
    while busy < seconds:
        inp = wl.task_input(len(overhead))
        out, plain_wall, _ = run_task(wl, inp, SpeedProbe())
        tracer.task = len(overhead)
        tracer.install()
        try:
            out2, traced_wall, _ = run_task(wl, inp, SpeedProbe())
        finally:
            tracer.remove()
        per_task_distinct += len(tracer.distinct_bijections)
        tracer.distinct_bijections.clear()
        attempted += 2
        busy += plain_wall + traced_wall
        overhead.append(traced_wall - plain_wall)
        for o in (out, out2):
            if o is None:
                failed += 1
            else:
                errs += wl.check(inp, o)
                first = first or (inp, o)
    if first is not None:
        errs += wl.deep_check(*first)
    tracer.write(trace_path)

    n = len(overhead)
    incl, self_s = tracer.totals()
    c = tracer.counts
    metrics = {}

    def put(name, value, unit):
        metrics[name] = (value, unit)

    for name in ("dwork.poly_matmul", "dwork.expand_Ef", "dwork.dwork_matrix",
                 "dwork.poly_trace", "dwork.char_series", "dwork.twisted_traces",
                 "dwork.expand_Ef_zq", "dwork.zq_mat_mul", "series.artin_hasse",
                 "series.pi_of_T", "combos.special_bijections",
                 "combos.relatedness_classes", "combos.combo_from_bijection",
                 "hodge.assignment_oracle", "hodge.greedy_minimal_permutation",
                 "hodge.ihp", "beta.assemble_beta",
                 "beta.related_class_characterization"):
        put(f"{name}.s", incl[name] / n, "s")
    put("dwork.char_series.self_s", self_s["dwork.char_series"] / n, "s")
    for name in ("dwork.poly_matmul", "combos.combo_from_bijection",
                 "hodge.assignment_oracle", "dwork.zq_mat_mul"):
        put(f"{name}.calls", c[f"{name}.calls"] / n, "count")
    put("dwork.poly_matmul.madds", c["dwork.poly_matmul.madds"] / n, "count")
    put("dwork.expand_Ef.series", c["dwork.expand_Ef.series"] / n, "count")
    calls = c["dwork.window_points.calls"]
    put("dwork.window.n",
        c["dwork.window_points.points"] / calls if calls else 0, "points")
    entries = c["dwork.dwork_matrix.entries"]
    put("dwork.dwork_matrix.nonzero_frac",
        c["dwork.dwork_matrix.nonzero"] / entries if entries else 0, "ratio")
    for meth in ("SeriesRing.mul", "UnramifiedRing.mul", "UnramifiedRing.add",
                 "UnramifiedRing.frobenius"):
        put(f"series.{meth}.calls", c[f"series.{meth}.calls"] / n, "count")
    put("combos.special_bijections.count",
        c["combos.special_bijections.count"] / n, "count")
    put("combos.relatedness_classes.classes",
        c["combos.relatedness_classes.classes"] / n, "count")
    calls = c["combos.combo_from_bijection.calls"]
    put("combos.combo_from_bijection.useful_ratio",
        per_task_distinct / calls if calls else 0, "ratio")
    for check in workloads.VERIFY_CHECKS:
        put(f"cli.check.{check}.s", incl[f"cli.check.{check}"] / n, "s")
    for fn in (lattice.enumerate_T, lattice.split_T1):
        info = fn.cache_info()
        lookups = info.hits + info.misses
        put(f"lattice.{fn.__name__}.hit_ratio",
            info.hits / lookups if lookups else 0, "ratio")
    put("trace.overhead_s", statistics.median(overhead), "s")
    return first is not None, errs, attempted, failed, metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "tpoly" / "__init__.py").is_file():
        fail(f"no tpoly sources under {SRC}; run from a repository checkout")
    sys.path[0:0] = [str(SRC), str(HERE)]
    import workloads
    if args.workload not in workloads.WORKLOADS:
        fail(f"unknown workload {args.workload!r}; "
             f"choose from {sorted(workloads.WORKLOADS)}")
    # one verify worker, the default, so the battery runs on one thread
    os.environ["TPOLY_WORKERS"] = "1"

    wl = workloads.WORKLOADS[args.workload]()
    wl.setup(args.seed)
    wl.prepare_checks()
    import tpoly
    if Path(tpoly.__file__).resolve().parent != (SRC / "tpoly").resolve():
        fail(f"imported tpoly from {tpoly.__file__}, not from {SRC}")
    if os.path.isdir("/proc/self/task"):
        print(f"perfbench: {len(os.listdir('/proc/self/task'))} threads "
              f"after import", file=sys.stderr)

    if args.trace == 0:
        ok, errs, attempted, failed, metrics = untraced(
            wl, args.seconds,
            lambda: setup_cpu_seconds(args.workload, args.seed))
    else:
        out_dir = HERE / "runs"
        out_dir.mkdir(exist_ok=True)
        ok, errs, attempted, failed, metrics = traced(
            wl, args.seconds,
            out_dir / f"trace-{args.workload}-{args.seed}.jsonl")

    for name, msg in errs:
        print(f"perfbench: check {name} failed: {msg}", file=sys.stderr)
    print(json.dumps({
        "correct": ok and not errs,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if not errs else 1


if __name__ == "__main__":
    raise SystemExit(main())
