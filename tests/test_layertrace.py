"""The benchmark must find every tpoly name it wraps, reads or calls."""

import ast
import importlib.util
import inspect
import sys
from pathlib import Path

import tpoly.cli  # noqa: F401 - the tracer wraps every imported tpoly module
from tpoly import dwork, lattice, series
from tpoly.lattice import isosceles

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
LAYERTRACE = PERFBENCH / "layertrace.py"


def _load_layertrace():
    spec = importlib.util.spec_from_file_location("layertrace", LAYERTRACE)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _snapshot(lt):
    """Every tpoly module attribute, and the counted class methods."""
    out = {(name, attr): val for name, mod in sys.modules.items()
           if name.startswith("tpoly") and mod is not None
           for attr, val in vars(mod).items()}
    for modname, cls_name, meth in lt.COUNTED:
        cls = getattr(sys.modules[modname], cls_name)
        out[(cls_name, meth)] = cls.__dict__[meth]
    return out


def test_tracer_install_and_remove():
    lt = _load_layertrace()
    before = _snapshot(lt)
    tracer = lt.Tracer()
    tracer.install()
    try:
        for modname, attr, _ in lt.SPANS:
            assert getattr(sys.modules[modname], attr) is not before[(modname, attr)]
        for modname, cls_name, meth in lt.COUNTED:
            cls = getattr(sys.modules[modname], cls_name)
            assert cls.__dict__[meth] is not before[(cls_name, meth)]
        assert tpoly.cli._check is not before[("tpoly.cli", "_check")]
        dwork.window_points(isosceles(2), 7, 4)
        assert tracer.counts["dwork.window_points.calls"] == 1
    finally:
        tracer.remove()
    after = _snapshot(lt)
    assert after.keys() == before.keys()
    assert all(after[key] is val for key, val in before.items())


def test_benchmark_reads_only_existing_names():
    """Every dwork., series. and lattice. attribute the workloads and the
    runner read exists, and every call to one binds to its signature;
    parsed only, no task runs."""
    modules = {"dwork": dwork, "series": series, "lattice": lattice}
    seen = set()
    for path in (PERFBENCH / "workloads.py", PERFBENCH / "run.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                call, node = node, node.func
            else:
                call = None
            if not (isinstance(node, ast.Attribute)
                    and isinstance(node.value, ast.Name)
                    and node.value.id in modules):
                continue
            where = f"{path.name}:{node.lineno} {node.value.id}.{node.attr}"
            assert hasattr(modules[node.value.id], node.attr), where
            seen.add(f"{node.value.id}.{node.attr}")
            if call is not None:
                assert not any(isinstance(a, ast.Starred) for a in call.args)
                fn = getattr(modules[node.value.id], node.attr)
                inspect.signature(fn).bind(
                    *call.args, **{k.arg: k.value for k in call.keywords})
    assert {"dwork.char_series", "dwork.window_points", "dwork.expand_Ef",
            "series.artin_hasse", "lattice.split_T1"} <= seen
