"""Self-tests of the benchmark.  From the repository root::

    python3 -m pytest perfbench -q
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

run.import_program()

from layers import BENCH, LAYERS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

#: Units of wall-clock figures; every other per-layer metric is a count
#: or a ratio of counts and must repeat exactly.
WALL_UNITS = ("s", "ms", "1/s")


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_reduced_run_passes_output_check(name):
    rounds, problems = run.run_rounds(name, run.HOLDOUT_SEED, 0, small=True)
    assert problems == []
    (rnd,) = rounds
    assert rnd.attempted > 0
    assert len(rnd.marks) == len(rnd.resp_vs) == rnd.attempted


def test_output_check_counts_wrong_and_raising_ops_as_failed():
    rnd = run.new_round(WORKLOADS["sql_rw"](run.DEFAULT_SEED, small=True))
    pinned = run.load_pinned()
    read = next(op for op, _ in rnd.results if op.expect is None)
    write = next(op for op, _ in rnd.results if op.expect is not None)
    pinned["digests"][read.key] = "0" * 16
    rnd.results.append((write, [(-1,)]))
    rnd.results.append((write, RuntimeError("boom")))
    problems = run.check_round(rnd, pinned)
    reads_of_key = sum(1 for op, _ in rnd.results if op.key == read.key)
    assert len(problems) == reads_of_key + 2


def test_fig8_pins_match_the_harness_cells():
    pinned = run.load_pinned()
    for seed in range(len(pinned["fig8_blocks"])):
        assert run.check_fig8_live(seed, pinned) == []


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_traced_counters_repeat_exactly(name):
    first, problems, _ = run.per_layer(name, run.DEFAULT_SEED, small=True)
    second, again, _ = run.per_layer(name, run.DEFAULT_SEED, small=True)
    assert problems == again == []
    assert set(first) == set(second)
    counters = {m for m, (_, unit, _) in first.items()
                if unit not in WALL_UNITS and m != "trace.overhead"}
    assert "sim.events" in counters and "hw.disk.blocks_read" in counters
    assert {m: first[m][0] for m in counters} == {m: second[m][0] for m in counters}


def test_layer_self_times_add_up_to_the_traced_wall():
    metrics, problems, _ = run.per_layer("tpch_mix", run.DEFAULT_SEED, small=True)
    assert problems == []
    wall = metrics["trace.wall_s"][0]
    parts = [metrics[f"{layer}.self_s"][0] for layer in LAYERS + (BENCH,)]
    assert sum(parts) + metrics["unattributed_s"][0] == pytest.approx(wall)
    # The profiler places nearly all of the time in a layer.
    assert metrics["unattributed_s"][0] < 0.15 * wall
    for layer in ("sim", "relational", "engine", "osp"):
        assert metrics[f"{layer}.self_s"][0] > 0
