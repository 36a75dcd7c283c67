"""Time one user's per-domain set-up in a fresh interpreter.

    python3 perfbench/setup_probe.py SRC_DIR [LOCATIONS_CSV]

Prints the seconds taken by ``import spatpca.cli`` plus ``build_penalty`` for
the sites in LOCATIONS_CSV (read before the clock starts).  Without a
locations file it only imports, which fills the bytecode and file caches.
"""

import csv
import sys
import time


def main(argv) -> int:
    src = argv[0]
    rows = None
    if len(argv) > 1:
        with open(argv[1], newline="") as fh:
            rows = [[float(v) for v in row] for row in csv.reader(fh) if row]
    sys.path.insert(0, src)
    start = time.perf_counter()
    import spatpca.cli  # noqa: F401
    from spatpca.tps import SpatialDomain, build_penalty

    if rows is not None:
        build_penalty(SpatialDomain(rows))
    print(repr(time.perf_counter() - start))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
