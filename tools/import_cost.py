"""Wall time and peak memory of importing ``pitomo`` in a fresh interpreter.

    python3 tools/import_cost.py [ROOT]

One subprocess with one BLAS thread imports ``pitomo`` from ROOT/src
(by default the tree this tool is in), then ``pitomo.cli``.  The report
prints the wall time of each import, the process's peak RSS
(``ru_maxrss``, in MB of 1e6 bytes as ``bench/run.py`` reports it) and,
for each module of ``HEAVY``, whether the imports loaded it: scipy's
``linalg`` package, whose init pulls in ``numpy.f2py`` and
``numpy.testing``.  One run gives one sample, and both figures vary from
run to run.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

HEAVY = ("scipy.linalg", "numpy.f2py", "numpy.testing")
THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

PROBE = """
import json, resource, sys, time
sys.path.insert(0, sys.argv[1])
start = time.perf_counter()
import pitomo
middle = time.perf_counter()
import pitomo.cli
end = time.perf_counter()
print(json.dumps({
    "pitomo_s": middle - start,
    "cli_s": end - middle,
    "maxrss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
    "loaded": [name for name in json.loads(sys.argv[2]) if name in sys.modules],
}))
"""


def measure(root: Path) -> dict:
    """The probe's figures for the tree ``root``: ``pitomo_s``, ``cli_s``,
    ``maxrss_mb`` and ``loaded``, the modules of ``HEAVY`` it imported."""
    env = dict(os.environ, **{name: "1" for name in THREADS})
    done = subprocess.run(
        [sys.executable, "-c", PROBE, str(root / "src"), json.dumps(HEAVY)],
        capture_output=True, text=True, check=True, env=env, timeout=120,
    )
    return json.loads(done.stdout.splitlines()[-1])


def report(figures: dict) -> list[str]:
    """The readable lines of a ``measure`` result."""
    lines = [f"import pitomo      {figures['pitomo_s']:.3f} s",
             f"import pitomo.cli  {figures['cli_s']:.3f} s",
             f"ru_maxrss          {figures['maxrss_mb']:.1f} MB"]
    lines += [f"{name:18s} {'loaded' if name in figures['loaded'] else 'not loaded'}"
              for name in HEAVY]
    return lines


def main(argv: list[str]) -> None:
    if len(argv) > 2:
        raise SystemExit(__doc__)
    root = Path(argv[1]) if len(argv) == 2 else Path(__file__).resolve().parents[1]
    print("\n".join(report(measure(root.resolve()))))


if __name__ == "__main__":
    main(sys.argv)
