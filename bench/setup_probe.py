"""Time one fresh-process set-up of a workload and print it in seconds.

    python3 bench/setup_probe.py shoot

Set-up is what a new process pays before its first op: importing the
workload's divstat entry module (and with it numpy and scipy), loading the
workload's built-in manifolds, and the first evaluation of each, which
compiles its expression jets.
"""

import sys
import time

from run import import_divstat

ENTRY = {"shoot": "connect", "trace": "geodesic", "scan": "cli"}
MANIFOLDS = {
    "shoot": ("half-plane-exp", "paraboloid", "punctured-plane"),
    "trace": ("euclidean", "paraboloid", "punctured-plane", "half-plane-exp"),
    "scan": ("euclidean", "paraboloid", "punctured-plane", "half-plane-exp"),
}


def main(workload):
    t0 = time.perf_counter()
    import_divstat()
    import importlib

    importlib.import_module(f"divstat.{ENTRY[workload]}")
    from divstat.manifold import load_manifold
    from divstat.statstruct import ConnKind, connection_dcoeffs

    for name in MANIFOLDS[workload]:
        connection_dcoeffs(load_manifold(name), (1.0, 0.5), ConnKind.NABLA)
    print(f"{time.perf_counter() - t0:.6f}")


if __name__ == "__main__":
    main(sys.argv[1])
