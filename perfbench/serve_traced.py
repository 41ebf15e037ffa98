"""Start the bound service with the benchmark's layer wrappers installed.

Usage: ``python3 perfbench/serve_traced.py TRACE_OUT [service args...]``

The wrappers go in before ``repro.service.api`` builds its HTTP server,
so every call the server makes goes through them; when the server shuts
down (SIGTERM), the per-layer totals are written to ``TRACE_OUT`` as
JSON.
"""

from __future__ import annotations

import json
import sys

from tracer import Tracer


def main(argv: list[str]) -> int:
    trace_out, service_args = argv[0], argv[1:]
    tracer = Tracer()
    tracer.install()
    from repro.service.api.__main__ import main as serve

    rc = serve(service_args)
    with open(trace_out, "w") as handle:
        json.dump(tracer.to_json(), handle)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
