"""Set-up probe: import a path's modules, load the C kernel, say "ready".

Usage: ``python3 perfbench/ready.py {figures,validate}``.  The benchmark
times this process from start to the "ready" line; exits 1 when the
compiled kernel cannot be loaded.
"""

from __future__ import annotations

import sys

MODULES = {
    "figures": (
        "repro.experiments.example1",
        "repro.experiments.example2",
        "repro.experiments.example3",
        "repro.experiments.batch",
        "repro.experiments.executor",
    ),
    "validate": (
        "repro.experiments.validation",
        "repro.experiments.batch",
        "repro.simulation.rare",
    ),
}


def main(path: str) -> int:
    import importlib

    for name in MODULES[path]:
        importlib.import_module(name)
    from repro.network import cprobe

    if not cprobe.available():
        print("C probe kernel unavailable", file=sys.stderr)
        return 1
    print("ready", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
