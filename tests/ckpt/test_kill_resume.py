"""Kill-and-resume equivalence against the committed digest gate.

Each case runs the digest gate's ``kill_resume`` cell for the quick
smoke grid: every point is hard-killed (``os._exit``) the instant its
boundary snapshot is published, every snapshot resumes in a fresh
interpreter, and the resumed grid digest must equal the committed
``SMOKE_digest.json`` entry — the digest of an uninterrupted,
never-checkpointed single-engine sweep.  Swept across every drive mode
x two topology-zoo shapes.
"""

from pathlib import Path

import pytest

from repro.bench.smoke import results_digest
from repro.ckpt.smoke import kill_and_resume_point
from repro.gate import Cell, cell_runs, expect_digest

DIGEST_FILE = Path(__file__).resolve().parents[2] / "SMOKE_digest.json"

#: drive modes — single is the single-engine front end; the 2-shard
#: modes exercise both coordinator drive modes and adaptive lookahead
EXECUTION_MODES = [
    pytest.param("single", id="single-engine"),
    pytest.param("seq", id="2-shard-sequential"),
    pytest.param("par", id="2-shard-parallel"),
    pytest.param("adaptive", id="2-shard-adaptive"),
]


@pytest.mark.parametrize("topology", ["mesh", "star"])
@pytest.mark.parametrize("mode", EXECUTION_MODES)
def test_killed_grid_resumes_to_the_committed_digest(tmp_path, topology, mode):
    cell = Cell("quick", topology, mode, "kill_resume")
    [(_, payloads)] = cell_runs(cell, n_shards=2, snapshot_dir=tmp_path)
    assert expect_digest(DIGEST_FILE, cell.key, results_digest(payloads)) == 0, (
        f"{cell}: killed-and-resumed grid diverged from the uninterrupted digest"
    )


def test_midrun_kill_resumes_byte_identical(tmp_path):
    """mm2 has a true mid-run boundary (kernel 1 of 2): kill there and
    require the resumed result to match an uninterrupted in-process
    run through the canonical digest."""
    from repro.bench.smoke import _variant_config, topology_smoke_config
    from repro.gpu.system import MultiGpuSystem
    from repro.workloads.base import Scale
    from repro.workloads.registry import get_workload

    probe = kill_and_resume_point(
        "mm2", "full", snapshot_dir=tmp_path, kill_at=1
    )
    config = topology_smoke_config("mesh")
    node = MultiGpuSystem(
        config=config, netcrafter=_variant_config("full"), seed=0
    )
    node.load(
        get_workload("mm2").build(n_gpus=config.n_gpus, scale=Scale.small(), seed=0)
    )
    assert results_digest([probe]) == results_digest([node.run().to_dict()])
