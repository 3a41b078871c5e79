"""Regenerate perfbench/pinned.json, the benchmark's expected outputs.

    python3 perfbench/pin.py

Every pinned digest comes from a reference path the workloads do not
use: TPC-H and SQL reads run one at a time on the iterator engine, and
the scale-out plans on the 1-host deployment.  The Figure 8 block totals
are the payloads of the harness's own ``fig8_cell``.  Re-pin only when a
change is meant to alter query results or Figure 8's disk reads, and say
so in CHANGES.md.
"""

from __future__ import annotations

import json

import run


def pin() -> dict:
    from repro.baseline.engine import IteratorEngine
    from repro.harness.config import (
        DEFAULT, build_sharded_wisconsin_system, build_tpch_system,
    )
    from repro.harness.experiments import MIX, fig8_cell
    from repro.sql import plan as sql_plan

    import workloads as W

    digests = {}
    _, _, tpch = build_tpch_system(DEFAULT, "dbmsx")
    for name in MIX:
        for v in range(W.VARIANTS):
            plan = W.tpch_plan(name, v)
            digests[f"{name}/{v}"] = W.digest(
                tpch.run_query(plan), W.order_defined(plan))
    for i in range(8):
        plan = W.fig8_plan(i)
        digests[f"q6@fig8/{i}"] = W.digest(
            tpch.run_query(plan), W.order_defined(plan))

    _, sm, _ = W.SqlRw.build()
    reference = IteratorEngine(sm, work_mem_tuples=DEFAULT.work_mem_tuples)
    for t in range(6):
        for v in range(W.VARIANTS):
            text = W.sql_read(t, v)
            digests[f"t{t}/{v}"] = W.digest(
                reference.run_query(sql_plan(text, sm.catalog)),
                "ORDER BY" in text)

    _, _, single_host = build_sharded_wisconsin_system(DEFAULT, 1)
    for name, plan in W.scaleout_plans().items():
        digests[name] = W.digest(single_host.run_query(plan),
                                 W.order_defined(plan))

    blocks = {}
    for cell in W.ScanSweep(seed=0).cells:
        name = W.cell_name(*cell)
        blocks[name] = fig8_cell(W.fig8_spec(name))
    return {"digests": digests, "fig8_blocks": blocks}


if __name__ == "__main__":
    run.import_program()
    with open(run.PINNED_FILE, "w") as f:
        json.dump(pin(), f, indent=1, sort_keys=True)
        f.write("\n")
