"""Collective-communication sweep (extension).

NetCrafter's mechanisms — parent-request stitching, PTW sequencing,
trimming — were designed against Table 3's compute kernels, whose
remote traffic is sparse and poorly packed.  Bulk collectives are the
opposite regime: dense, full-line, highly regular pulls.  This driver
sweeps the collective family (:mod:`repro.workloads.collective`) across
{workload x fabric x baseline/NetCrafter} and asks the extension
question directly: *do stitching and PTW sequencing help or hurt bulk
collectives?*

Per-phase answers come from the
:meth:`~repro.stats.report.RunResult.phase_breakdown` blocks each run
carries (reduce-scatter vs all-gather vs bubble etc.); the per-point
answer is the ``nc_speedup`` series.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, List, Optional

from repro.config import SystemConfig
from repro.core.config import NetCrafterConfig
from repro.experiments.figures import FigureResult
from repro.experiments.runner import ExperimentScale
from repro.stats.report import RunResult, geometric_mean
from repro.workloads.registry import collective_workload_names

#: fabrics the sweep covers: the paper's mesh node plus two zoo shapes
#: with different hop structure — a neighbour ring (ring all-reduce's
#: native home) and a star whose hub sees every chunk twice
COLLECTIVE_TOPOLOGIES = ("mesh", "ring", "star")


def collective_system(fabric: str) -> SystemConfig:
    """The node each fabric runs on: the historical 2x2 for mesh, a
    4-cluster x 1-GPU node for the zoo shapes (matching ext_topology)."""
    if fabric == "mesh":
        return SystemConfig.default()
    return SystemConfig.default().with_overrides(
        n_clusters=4, gpus_per_cluster=1, inter_topology=fabric
    )


def _phase_note(label: str, run: RunResult) -> str:
    """One line per phase: its share of inter-cluster flits and mean
    remote-read latency (cache-stable: counters and exact means only)."""
    parts = []
    for name, block in run.phase_breakdown().items():
        share = (
            block.inter_flits / run.inter_flits_sent
            if run.inter_flits_sent
            else 0.0
        )
        parts.append(
            f"{name}: {share:.0%} of flits, "
            f"mean lat {block.read_latency_inter.mean():.0f}cy, "
            f"stitch {block.stitch_rate():.2f}"
        )
    return f"{label} phases — " + "; ".join(parts)


def ext_collective(exp: Optional[ExperimentScale] = None) -> FigureResult:
    """The collective sweep: {workload x fabric x baseline/NetCrafter}.

    Series, per ``workload@fabric`` label:

    * ``base_cycles`` / ``nc_cycles`` — runtime under the baseline and
      full NetCrafter;
    * ``nc_speedup`` — full NetCrafter over the same fabric's baseline
      (>1 = helps, <1 = hurts);
    * ``stitch_rate`` — fraction of egress flits stitched under
      NetCrafter (how much the mechanism even fires on dense traffic).
    """
    exp = exp or ExperimentScale.standard()
    workloads = collective_workload_names()
    exp = replace(exp, workloads=tuple(workloads))
    nc = NetCrafterConfig.full()
    exp.prefetch(
        [
            variant
            for fabric in COLLECTIVE_TOPOLOGIES
            for variant in (
                (collective_system(fabric), None),
                (collective_system(fabric), nc),
            )
        ],
    )
    labels: List[str] = []
    series: Dict[str, List[float]] = {
        "base_cycles": [],
        "nc_cycles": [],
        "nc_speedup": [],
        "stitch_rate": [],
    }
    speedups_by_fabric: Dict[str, List[float]] = {}
    phase_notes: List[str] = []
    for fabric in COLLECTIVE_TOPOLOGIES:
        system = collective_system(fabric)
        for name in workloads:
            base = exp.run(name, system=system)
            crafted = exp.run(name, system=system, netcrafter=nc)
            label = f"{name}@{fabric}"
            labels.append(label)
            series["base_cycles"].append(float(base.cycles))
            series["nc_cycles"].append(float(crafted.cycles))
            series["nc_speedup"].append(crafted.speedup_over(base))
            series["stitch_rate"].append(crafted.stitch_rate())
            speedups_by_fabric.setdefault(fabric, []).append(
                crafted.speedup_over(base)
            )
            if fabric == "mesh":
                phase_notes.append(_phase_note(label, crafted))
    result = FigureResult(
        "ext_collective",
        "Full NetCrafter on bulk collectives (workload x fabric)",
        labels,
        series,
    )
    geomeans = ", ".join(
        f"{fabric} {geometric_mean(vals):.3f}"
        for fabric, vals in speedups_by_fabric.items()
    )
    result.notes = (
        f"geomean nc_speedup by fabric: {geomeans}. " + " | ".join(phase_notes)
    )
    return result
