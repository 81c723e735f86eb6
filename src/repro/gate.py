"""The digest gate: every way of driving a run reproduces the committed digests.

The reproduction's results must not depend on how a run is driven.  A
*cell* of the gate is

* a grid: ``quick``/``full`` of the Table-3 smoke grid, or
  ``collective:quick``/``collective:full`` of the collective family
  (:func:`~repro.bench.smoke.smoke_points`);
* a topology: any registered fabric, on its smoke node
  (:func:`~repro.bench.smoke.topology_smoke_config`);
* a drive mode: ``single`` engine, ``seq`` (sequential-windowed
  shards), ``par`` (process-parallel shards) or ``adaptive``
  (sequential-windowed shards with adaptive lookahead);
* a perturbation: ``none``; ``kill_resume``, where every point is
  snapshotted at its first kernel boundary, hard-killed and resumed in
  a fresh interpreter (:mod:`repro.ckpt.smoke`; a mid-run boundary for
  the multi-kernel collectives); or ``zero_faults``, where the grid
  reruns under both inert fault configs (:data:`INERT_FAULTS`).

Each cell digests its grid's results and compares them with the
committed single-engine entry of its (grid, topology) through
:func:`expect_digest`.  A perturbation never changes the key: the
invariant is identity.

Usage::

    python -m repro.gate                   # every cell with a committed key
    python -m repro.gate --topology star --mode par --perturbation kill_resume
    python -m repro.gate --grid collective:quick --snapshot-dir /tmp/ckpt

Exit codes: 0 when every cell matches, 1 when a digest mismatches or a
kill-and-resume fails, 2 for a missing key or a request no node can
serve (reported before anything runs).
"""

from __future__ import annotations

import argparse
import itertools
import json
import shutil
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.bench.smoke import (
    results_digest,
    run_smoke_grid,
    smoke_points,
    topology_smoke_config,
)
from repro.ckpt import CheckpointError
from repro.ckpt.smoke import kill_and_resume_point
from repro.faults.config import FaultConfig, FlapWindow
from repro.network.topologies import topology_names
from repro.shard.coordinator import ShardedSystem

GRIDS = ("quick", "full", "collective:quick", "collective:full")
MODES = ("single", "seq", "par", "adaptive")
PERTURBATIONS = ("none", "kill_resume", "zero_faults")

#: fault configs that must leave every digest untouched: all rates zero
#: (the layer auto-disables) and nonzero rates forced off
INERT_FAULTS = (
    ("zero rates", FaultConfig()),
    (
        "enabled=False with nonzero rates",
        FaultConfig(
            ber=1e-4,
            drop_rate=0.01,
            flaps=(FlapWindow(100, 500, 0.5),),
            seed=9,
            enabled=False,
        ),
    ),
)


@dataclass(frozen=True)
class Cell:
    grid: str
    topology: str
    mode: str
    perturbation: str

    @property
    def key(self) -> str:
        """The committed digest key: bare ``quick``/``full`` on the mesh,
        topology-prefixed elsewhere, with a ``collective:`` prefix on top
        for the collective grids."""
        family, _, size = self.grid.rpartition(":")
        key = size if self.topology == "mesh" else f"{self.topology}:{size}"
        return f"{family}:{key}" if family else key

    def __str__(self) -> str:
        return f"[{self.grid} {self.topology} {self.mode} {self.perturbation}]"


def gated_pairs() -> List[Tuple[str, str]]:
    """The (grid, topology) pairs with committed digests: both Table-3
    grids on every registered fabric, and the quick collective grid on
    the paper mesh and on one virtual-switch fabric."""
    return [(grid, t) for grid in ("quick", "full") for t in topology_names()] + [
        ("collective:quick", "mesh"),
        ("collective:quick", "star"),
    ]


def select_cells(
    grids: Sequence[str] = (),
    topologies: Sequence[str] = (),
    modes: Sequence[str] = (),
    perturbations: Sequence[str] = (),
) -> List[Cell]:
    """The cells the filters select; an empty filter selects everything.

    Only gated pairs are selected unless both ``grids`` and
    ``topologies`` are given: then exactly the named pairs run, and one
    without a committed key fails loudly.
    """
    if grids and topologies:
        pairs = list(itertools.product(grids, topologies))
    else:
        pairs = [
            (grid, t)
            for grid, t in gated_pairs()
            if (not grids or grid in grids) and (not topologies or t in topologies)
        ]
    return [
        Cell(grid, topology, mode, perturbation)
        for grid, topology in pairs
        for mode in modes or MODES
        for perturbation in perturbations or PERTURBATIONS
    ]


def expect_digest(path, key: str, digest: str) -> int:
    """Compare ``digest`` with entry ``key`` of the committed digest file.

    Prints a one-line verdict and returns the gate's exit code: 0 on a
    match, 1 on a mismatch, 2 when the file or the key is missing.
    """
    try:
        expected = json.loads(Path(path).read_text()).get(key)
    except FileNotFoundError:
        print(f"no digest file {path}", file=sys.stderr)
        return 2
    if expected is None:
        print(f"{path} has no key {key!r}", file=sys.stderr)
        return 2
    if digest != expected:
        print(
            f"DIGEST MISMATCH for {key!r}: got {digest}, expected {expected}",
            file=sys.stderr,
        )
        return 1
    print(f"digest matches {path}[{key!r}]")
    return 0


def _drive(mode: str, n_shards: int) -> Dict[str, object]:
    """``build_node`` sharding arguments of a drive mode."""
    if mode == "single":
        return {}
    return {
        "n_shards": n_shards,
        "parallel": mode == "par",
        "adaptive": mode == "adaptive",
    }


def unservable(cell: Cell, n_shards: int) -> Optional[str]:
    """Why the cell's node cannot run in its drive mode, or None."""
    config = topology_smoke_config(cell.topology)
    if cell.mode == "single" or (
        n_shards > 1 and ShardedSystem.supports(config, n_shards)
    ):
        return None
    return (
        f"{cell}: the {cell.topology} node ({config.n_clusters} clusters, "
        f"{config.coherence} coherence) cannot run as {n_shards} shards; "
        "sharding needs software coherence and 2+ shards dividing the clusters"
    )


def cell_runs(
    cell: Cell, n_shards: int, snapshot_dir: Optional[Path]
) -> Iterator[Tuple[str, List[Dict[str, object]]]]:
    """(label, result payloads of the whole grid) for each run of the cell."""
    family, _, size = cell.grid.rpartition(":")
    quick, collective = size == "quick", bool(family)
    drive = _drive(cell.mode, n_shards)
    if cell.perturbation == "kill_resume":
        # one directory per grid: quick and full share workloads, and a
        # failing cell's snapshots must survive the cells after it
        grid_dir = Path(snapshot_dir) / cell.grid.replace(":", "-")
        yield "", [
            kill_and_resume_point(
                workload,
                variant,
                snapshot_dir=grid_dir,
                topology=cell.topology,
                **drive,
            )
            for workload, variant in smoke_points(quick, collective)
        ]
        return
    config = topology_smoke_config(cell.topology)
    configs = [("", config)]
    if cell.perturbation == "zero_faults":
        configs = [
            (f" {label}", config.with_overrides(faults=faults))
            for label, faults in INERT_FAULTS
        ]
    for label, system_config in configs:
        results, _, _ = run_smoke_grid(
            quick, collective=collective, system_config=system_config, **drive
        )
        yield label, [r.to_dict() for r in results]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.gate",
        description="Run grid x topology x drive mode x perturbation cells "
        "and require each to reproduce its committed digest.  Each filter "
        "may repeat; with none, every cell with a committed key runs.",
    )
    parser.add_argument("--grid", action="append", choices=GRIDS)
    parser.add_argument("--topology", action="append", choices=topology_names())
    parser.add_argument("--mode", action="append", choices=MODES)
    parser.add_argument("--perturbation", action="append", choices=PERTURBATIONS)
    parser.add_argument(
        "--shards",
        type=int,
        default=2,
        metavar="N",
        help="cluster shards of the sharded modes (default 2)",
    )
    parser.add_argument(
        "--snapshot-dir",
        type=Path,
        default=None,
        metavar="DIR",
        help="where kill_resume cells publish their snapshots (default: a "
        "temporary directory, removed when every cell passes)",
    )
    parser.add_argument(
        "--expect-file",
        default="SMOKE_digest.json",
        metavar="PATH",
        help="committed digest file (default SMOKE_digest.json)",
    )
    args = parser.parse_args(argv)

    cells = select_cells(
        args.grid or (), args.topology or (), args.mode or (), args.perturbation or ()
    )
    for cell in cells:
        reason = unservable(cell, args.shards)
        if reason is not None:
            print(reason, file=sys.stderr)
            return 2

    snapshot_dir = args.snapshot_dir
    temporary = snapshot_dir is None and any(
        cell.perturbation == "kill_resume" for cell in cells
    )
    if temporary:
        snapshot_dir = Path(tempfile.mkdtemp(prefix="repro-gate-snapshots-"))
    exit_code = 0
    for cell in cells:
        try:
            for label, payloads in cell_runs(cell, args.shards, snapshot_dir):
                digest = results_digest(payloads)
                print(f"{cell}{label}: {len(payloads)} points, digest {digest}")
                code = expect_digest(args.expect_file, cell.key, digest)
                exit_code = max(exit_code, code)
        except CheckpointError as exc:
            print(f"{cell}: {exc}", file=sys.stderr)
            exit_code = max(exit_code, 1)
        sys.stdout.flush()
    verdict = "every digest matches" if exit_code == 0 else f"FAILED (exit {exit_code})"
    print(f"gate: {len(cells)} cells, {verdict}")
    if temporary:
        if exit_code == 0:
            shutil.rmtree(snapshot_dir, ignore_errors=True)
        else:
            print(f"gate: snapshots kept in {snapshot_dir}")
    return exit_code


if __name__ == "__main__":
    sys.exit(main())
