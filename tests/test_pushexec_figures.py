"""Byte-identical figures on the push backend.

The ``--engine pushed`` contract: substituting the push backend into a
figure's engine-invariant cells must not change a byte of the output.
These tests pin figure cells to *committed* payload hashes: a fig8
Baseline cell, which must come out the same on the packet machinery and
on the push backend, and the DBMS X cells of fig8 and fig12, which run
on the push engine.  Each is checked serially and on a two-worker
process pool.  The DBMS X hashes were recorded while that persona still
ran on the Volcano iterator engine.  Every SMOKE cell of Figures 9
(merge-join split) and 10 (sort-merge sharing) is pinned the same way:
both run the packet µEngines' sort and merge join.

The hashes are part of the repository's recorded results: if a change
legitimately moves a figure, recompute them with the snippet in each
test's failure message.
"""

import hashlib
import json

from repro.harness.config import CLIENT_SEED_BASE, SMOKE
from repro.harness.experiments import (
    fig8_cell,
    fig8_cells,
    fig9_cells,
    fig10_cells,
    fig12_cells,
    force_engine,
    substitute_engine,
)
from repro.parallel import PoolRunner
from repro.parallel.cells import CellSpec, coords, fn_key

#: sha256 of the canonical-JSON payload of one committed cell each.
FIG8_CELL_SHA = (
    "2abaca4911e68fa9bfbf3482ee797fd5b9045b841fdff7253557c5fe15de6477"
)
FIG12_CELL_SHA = (
    "24c5b18b98306ec1d61f7c33a24e35d1ac9ff000048343eeca654153b9043d09"
)
FIG8_DBMSX_CELL_SHA = (
    "39fa9ec190eee7b6f4dff1100d6343e10918d044c75eac8f9e9a2596173f80c9"
)
#: sha256 of the canonical-JSON list of every SMOKE cell payload of a
#: figure, in cell order.
FIG9_CELLS_SHA = (
    "a7d5c11c20189a46a397197874faafa844360986e8b84235e9cdf2255f3662b2"
)
FIG10_CELLS_SHA = (
    "c16972c3b82be0c878720d6f94e520f9e8d5f09c9b18ee48622799223d8a85a4"
)


def _sha(payload) -> str:
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True).encode()
    ).hexdigest()


def _fig8_spec():
    return [
        s
        for s in fig8_cells(SMOKE)
        if s.coord["count"] == 2
        and s.coord["system"] == "baseline"
        and s.coord["gap"] == 20
    ][0]


def _fig8_dbmsx_spec():
    """A DBMS X fig8 cell.  The rendered figure plots only Baseline and
    QPipe w/OSP; the repository benchmark's scan sweep runs DBMS X
    cells through the same cell function."""
    return CellSpec(
        "fig8", fn_key(fig8_cell), SMOKE,
        coords(count=2, system="dbmsx", gap=20),
        seeds=(("CLIENT_SEED_BASE", CLIENT_SEED_BASE),),
    )


def _fig12_spec():
    return [
        s
        for s in fig12_cells(SMOKE)
        if s.coord["system"] == "dbmsx" and s.coord["count"] == 2
    ][0]


def _run(spec, jobs):
    with PoolRunner(jobs=jobs) as runner:
        return runner.run([spec])[spec].payload


def _check_cell(spec, committed_sha, substituted=True):
    pushed = substitute_engine([spec], "pushed")[0]
    if substituted:
        assert pushed is not spec
        assert dict(pushed.coords)["engine"] == "pushed"
        candidates = (spec, pushed)
    else:
        # Already on the push engine: nothing to substitute.
        assert pushed == spec
        candidates = (spec,)
    for candidate in candidates:
        for jobs in (1, 2):
            got = _sha(_run(candidate, jobs))
            assert got == committed_sha, (
                f"{candidate.figure} cell hash {got} != committed "
                f"{committed_sha} (coords={dict(candidate.coords)}, "
                f"jobs={jobs}); if the figure legitimately moved, "
                f"recompute with _sha(run_cells_serial([spec])[spec])"
            )


def _figure_sha(specs, jobs):
    with PoolRunner(jobs=jobs) as runner:
        results = runner.run(specs)
    return _sha([results[spec].payload for spec in specs])


def _check_figure(specs, committed_sha):
    for jobs in (1, 2):
        got = _figure_sha(specs, jobs)
        assert got == committed_sha, (
            f"{specs[0].figure} cells hash {got} != committed "
            f"{committed_sha} (jobs={jobs}); if the figure legitimately "
            f"moved, recompute with _figure_sha(specs, 1)"
        )


def test_fig9_cells_hash_matches_committed_output():
    _check_figure(fig9_cells(SMOKE), FIG9_CELLS_SHA)


def test_fig10_cells_hash_matches_committed_output():
    _check_figure(fig10_cells(SMOKE), FIG10_CELLS_SHA)


def test_fig8_cell_hash_matches_committed_output():
    _check_cell(_fig8_spec(), FIG8_CELL_SHA)


def test_fig8_dbmsx_cell_hash_matches_committed_output():
    _check_cell(_fig8_dbmsx_spec(), FIG8_DBMSX_CELL_SHA, substituted=False)


def test_fig12_cell_hash_matches_committed_output():
    _check_cell(_fig12_spec(), FIG12_CELL_SHA, substituted=False)


def test_substitute_engine_rewrites_only_invariant_slots():
    """OSP cells must stay on the packet engine -- sharing lives there --
    while baseline-fig8 cells may move to the push backend.  dbms-x
    cells already run on it, so they are left alone."""
    rewritten = substitute_engine(fig8_cells(SMOKE), "pushed")
    for spec in rewritten:
        c = dict(spec.coords)
        if c["system"] == "qpipe":
            assert "engine" not in c
        else:
            assert c["engine"] == "pushed"
    rewritten = substitute_engine(fig12_cells(SMOKE), "pushed")
    for spec in rewritten:
        c = dict(spec.coords)
        assert "engine" not in c
    assert substitute_engine([_fig8_dbmsx_spec()], "pushed") == [
        _fig8_dbmsx_spec()
    ]
    # backend "packets" is the identity.
    originals = fig12_cells(SMOKE)
    assert substitute_engine(originals, "packets") == originals


def test_force_engine_rewrites_every_engine_aware_slot():
    rewritten = force_engine(fig12_cells(SMOKE), "pushed")
    assert all(dict(s.coords)["engine"] == "pushed" for s in rewritten)


def test_engine_coordinate_changes_the_cache_key():
    """Packet- and push-backed runs of the same grid point must never
    collide in the content-addressed cell cache."""
    spec = _fig8_spec()
    pushed = substitute_engine([spec], "pushed")[0]
    assert spec.slug() != pushed.slug()
