"""One workload set-up in a fresh interpreter, timed by its parent.

    python3 perfbench/setup_probe.py <workload> <seed>

Prints one JSON line: the machine-speed scale sampled while setting up,
and the CPU seconds the speed probes took, which the parent takes out
of the child's CPU time (see ``speed.py``).
"""

import json
import sys
from pathlib import Path

from speed import SpeedProbe

HERE = Path(__file__).resolve().parent
sys.path[0:0] = [str(HERE.parent / "src"), str(HERE)]

with SpeedProbe() as probe:
    import workloads  # noqa: E402

    workloads.WORKLOADS[sys.argv[1]]().setup(int(sys.argv[2]))
print(json.dumps({"scale": probe.scale, "probe_cpu_s": probe.cpu_spent}))
