"""Re-measure the CLI commands of the ROADMAP baseline table.

    python3 perfbench/baseline.py [repeats]

Each command runs as its own ``python3 -m tpoly.cli`` process from the
repository's ``src``, the way a user's ``tpoly`` runs, and the median
wall and CPU seconds over the repeats (default 1) are printed.
"""

from __future__ import annotations

import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
F_D3 = {"3,0": 1, "0,3": 2, "1,1": 3}

COMMANDS = [
    ["special", "--d", "7", "--p", "17"],
    ["dwork-np", "--d", "3", "--p", "7", "--tprec", "20", "--f", "{f}"],
    ["dwork-np", "--d", "3", "--p", "7", "--tprec", "30", "--f", "{f}"],
    ["verify", "--d", "7", "--p", "17"],
    ["beta", "--d", "13", "--p", "41"],
    ["ihp", "--d", "7", "--p", "17", "--lmax", "40"],
]


def main() -> int:
    repeats = int(sys.argv[1]) if len(sys.argv) > 1 else 1
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    with tempfile.TemporaryDirectory(dir=ROOT / "perfbench") as tmp:
        fpath = Path(tmp) / "f.json"
        fpath.write_text(json.dumps(F_D3))
        for cmd in COMMANDS:
            argv = [a.replace("{f}", str(fpath)) for a in cmd]
            walls, cpus = [], []
            for _ in range(repeats):
                before = resource.getrusage(resource.RUSAGE_CHILDREN)
                t0 = time.perf_counter()
                subprocess.run([sys.executable, "-m", "tpoly.cli", *argv],
                               env=env, cwd=tmp, stdout=subprocess.DEVNULL,
                               check=False, timeout=600)
                walls.append(time.perf_counter() - t0)
                after = resource.getrusage(resource.RUSAGE_CHILDREN)
                cpus.append(after.ru_utime - before.ru_utime
                            + after.ru_stime - before.ru_stime)
            print(f"tpoly {' '.join(cmd).replace(' --f {f}', '')}: "
                  f"wall {statistics.median(walls):.2f} s, "
                  f"cpu {statistics.median(cpus):.2f} s", flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
