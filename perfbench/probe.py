"""Child processes that run.py times from the outside.

    probe.py setup WORKLOAD SEED TINY WORKDIR
        import the package, build one round of WORKLOAD's inputs, print "ready"
    probe.py import-scipy-stats
        print the seconds `import scipy.stats` takes after numpy is loaded
"""

import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]


def main(argv) -> int:
    if argv[0] == "setup":
        import workloads

        workload, seed, tiny, workdir = argv[1:]
        workloads.build(workload, int(seed), tiny == "1", Path(workdir))
        print("ready", flush=True)
        return 0
    if argv[0] == "import-scipy-stats":
        import numpy  # noqa: F401  (loaded first, so only scipy.stats is timed)

        start = time.perf_counter()
        import scipy.stats  # noqa: F401
        print(time.perf_counter() - start)
        return 0
    raise SystemExit(f"unknown probe {argv[0]!r}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
