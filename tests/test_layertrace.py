"""The benchmark's per-layer tracer must find every name it wraps."""

import importlib.util
import sys
from pathlib import Path

import tpoly.cli  # noqa: F401 - the tracer wraps every imported tpoly module
from tpoly import dwork
from tpoly.lattice import isosceles

LAYERTRACE = Path(__file__).resolve().parents[1] / "perfbench" / "layertrace.py"


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
