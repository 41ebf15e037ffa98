"""Record the outputs the benchmark checks against.

Usage: ``python3 perfbench/record_reference.py`` (from the checkout
root).  Writes ``reference/figures.json`` (every cell's rows of the
full Figs. 2-4 grids, by cell key) and ``reference/validate.json``
(the bound of every naive and rare validation point).  Re-record only
when a change is *meant* to move the bounds, and say so in the change.
"""

from __future__ import annotations

import json

from common import (
    REFERENCE_DIR,
    configure_environment,
    new_run_dir,
    remove_tree,
)


def main() -> int:
    configure_environment()
    import figures
    import validate

    REFERENCE_DIR.mkdir(exist_ok=True)
    run_dir = new_run_dir()
    try:
        _, _, results = figures.sweep_pass(
            figures.specs("full"), run_dir / "figures", 1
        )
        bounds = {}
        for name in validate.GRIDS:
            _, _, rows = validate.run_grid(name, "full", 1, run_dir / name)
            bounds[name] = {
                f"{row.scheduler}/{row.hops}": row.bound for row in rows
            }
    finally:
        remove_tree(run_dir)
    rows = {
        cell.key: [dict(row) for row in cell.rows]
        for result in results
        for cell in result.cells
    }
    for name, data in (("figures.json", rows), ("validate.json", bounds)):
        with open(REFERENCE_DIR / name, "w") as handle:
            json.dump(data, handle, indent=1, sort_keys=True)
            handle.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
