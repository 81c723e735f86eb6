"""Command-line interface for regenerating paper figures and ablations.

Usage::

    python -m repro.experiments list
    python -m repro.experiments fig14 --scale quick
    python -m repro.experiments fig3 fig9 --scale standard
    python -m repro.experiments all --scale quick --jobs 4
    python -m repro.experiments fig14 --shards 2 --window 4
    python -m repro.experiments fig14 --trace --metrics-interval 1000 --profile

Independent simulation points fan out over ``--jobs`` worker processes,
and finished results persist in a content-addressed disk cache (default
``$REPRO_CACHE_DIR`` or ``.repro_cache``; disable with ``--no-cache``),
so re-generating figures after the first pass is nearly free.  The flags,
layered over the ``REPRO_*`` environment defaults
(:meth:`~repro.experiments.runner.RunContext.from_env`), build the one
run context every point runs under.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from functools import partial
from typing import Callable, Dict

from repro.experiments import ablations, chaos, collective, extensions, figures, runner
from repro.experiments.cache import DEFAULT_CACHE_DIR
from repro.experiments.report import generate_report
from repro.experiments.runner import (
    CheckpointOptions,
    ExperimentScale,
    ObservabilityOptions,
    RunContext,
    ShardingOptions,
)
from repro.workloads.base import Scale

DRIVERS: Dict[str, Callable] = {
    "fig3": figures.fig3_ideal_speedup,
    "fig4": figures.fig4_network_utilization,
    "fig5": figures.fig5_remote_latency,
    "fig6": figures.fig6_flit_occupancy,
    "fig7": figures.fig7_cacheline_utilization,
    "fig8": figures.fig8_ptw_priority,
    "fig9": figures.fig9_ptw_fraction,
    "fig12": figures.fig12_stitch_rate,
    "fig14": figures.fig14_overall_speedup,
    "fig15": figures.fig15_netcrafter_latency,
    "fig16": figures.fig16_l1_mpki,
    "fig17": figures.fig17_trim_granularity,
    "fig18": figures.fig18_pooling_sweep,
    "fig19": figures.fig19_selective_pooling_sweep,
    "fig20": figures.fig20_byte_reduction,
    "fig21": figures.fig21_flit_size,
    "fig22": figures.fig22_bandwidth_sweep,
    "abl_scheduler": ablations.ablate_scheduler,
    "abl_early_release": ablations.ablate_early_release,
    "abl_pooling_grace": ablations.ablate_pooling_grace,
    "abl_search_depth": ablations.ablate_search_depth,
    "abl_cq_capacity": ablations.ablate_cq_capacity,
    "ext_coherence": extensions.ext_hw_coherence,
    "ext_coherence_traffic": extensions.ext_coherence_traffic,
    "ext_scaling": extensions.ext_scaling,
    "ext_topology": extensions.ext_topology,
    "ext_placement": extensions.ext_placement,
    "ext_energy": extensions.ext_energy,
    "ext_collective": collective.ext_collective,
    "chaos": chaos.chaos_ber_sweep,
}

SCALES = {
    "quick": ExperimentScale.quick,
    "standard": ExperimentScale.standard,
    "full": lambda: ExperimentScale(scale=Scale.default()),
}


def _topology_choices():
    from repro.network.topologies import topology_names

    return topology_names()


def _print_tables() -> None:
    print("== table1 ==")
    for row in figures.table1_flit_census():
        print("  ", row)
    print("== table2 ==")
    for key, value in figures.table2_configuration().items():
        print(f"  {key:22s} {value}")
    print("== table3 ==")
    for row in figures.table3_workloads():
        print("  ", row)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Regenerate NetCrafter paper figures and ablations.",
    )
    parser.add_argument(
        "targets",
        nargs="+",
        help="figure ids (fig3..fig22, abl_*, ext_*), 'tables', 'report', "
        "'list', or 'all'",
    )
    parser.add_argument(
        "--scale",
        choices=sorted(SCALES),
        default="quick",
        help="experiment scale (default: quick)",
    )
    parser.add_argument(
        "--output",
        default="results/report.md",
        help="where 'report' writes its markdown (default: results/report.md)",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        help="worker processes for independent simulation points "
        "(default: $REPRO_JOBS or 1)",
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        help="persistent result cache directory "
        "(default: $REPRO_CACHE_DIR or .repro_cache)",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the persistent result cache for this invocation",
    )
    shard_group = parser.add_argument_group(
        "sharding",
        "intra-run cluster sharding: split each simulation into "
        "per-cluster shards advancing in conservative lookahead windows; "
        "results are byte-identical to the single-engine run (use --jobs "
        "instead when there are many independent points to spread)",
    )
    shard_group.add_argument(
        "--shards",
        type=int,
        metavar="N",
        help="simulate each point as N cluster shards in worker processes "
        "(must divide the config's cluster count; default: $REPRO_SHARDS)",
    )
    shard_group.add_argument(
        "--window",
        type=int,
        metavar="CYCLES",
        help="lookahead window size in cycles (default: $REPRO_WINDOW, else "
        "the inter-cluster link latency, the maximum safe value)",
    )
    shard_group.add_argument(
        "--sequential-shards",
        action="store_true",
        help="drive the shards round-robin in this process instead of "
        "worker processes (debugging / digest comparisons)",
    )
    shard_group.add_argument(
        "--adaptive-window",
        action="store_true",
        help="derive each shard's lookahead window from replicated "
        "simulation state instead of a fixed size (byte-identical "
        "results, fewer windows on sparse traffic; overrides --window; "
        "default: $REPRO_ADAPTIVE_WINDOW)",
    )
    topo_group = parser.add_argument_group(
        "topology",
        "re-run any target on a different inter-cluster fabric from the "
        "topology zoo (repro.network.topologies); applies to every "
        "simulation point, and the 'ext_topology' target sweeps the "
        "whole zoo in one figure",
    )
    topo_group.add_argument(
        "--topology",
        choices=_topology_choices(),
        default=None,
        metavar="SHAPE",
        help="inter-cluster fabric for every point "
        f"(one of: {', '.join(_topology_choices())})",
    )
    topo_group.add_argument(
        "--bw-class",
        action="append",
        default=None,
        metavar="CLASS=BW",
        help="per-class link bandwidth override in bytes/cycle, e.g. "
        "'up=32' for a star/fat_tree uplink tier (repeatable)",
    )
    fault_group = parser.add_argument_group(
        "fault injection",
        "chaos-run parameters for the 'chaos' target (deterministic: the "
        "fault RNG is keyed on packet content, so points cache normally)",
    )
    fault_group.add_argument(
        "--fault-ber",
        default=None,
        metavar="P[,P...]",
        help="bit-error rates to sweep (comma list; default "
        "0,2e-5,1e-4,5e-4)",
    )
    fault_group.add_argument(
        "--fault-drop",
        type=float,
        default=None,
        metavar="P",
        help="per-flit drop probability applied at every sweep point "
        "(default 0)",
    )
    fault_group.add_argument(
        "--fault-flaps",
        default=None,
        metavar="S:E:F[,...]",
        help="bandwidth-flap windows on inter-cluster links, each "
        "start:end:factor (e.g. 1000:5000:0.25)",
    )
    fault_group.add_argument(
        "--fault-seed",
        type=int,
        default=None,
        metavar="N",
        help="fault-process seed (default 1)",
    )
    ckpt_group = parser.add_argument_group(
        "checkpointing",
        "kernel-boundary checkpoint/resume (repro.ckpt): each point's "
        "latest resumable snapshot is published atomically to "
        "<dir>/<fingerprint>.ckpt; a resumed run's result is "
        "byte-identical to an uninterrupted one",
    )
    ckpt_group.add_argument(
        "--checkpoint-every",
        type=int,
        default=None,
        metavar="K",
        help="snapshot every K completed kernels (enables checkpointing; "
        "the final boundary is always snapshotted)",
    )
    ckpt_group.add_argument(
        "--checkpoint-dir",
        default="results/ckpt",
        metavar="DIR",
        help="snapshot directory (default: results/ckpt)",
    )
    ckpt_group.add_argument(
        "--resume-from",
        default=None,
        metavar="PATH",
        help="resume points from snapshots: a checkpoint directory "
        "(per-point lookup by fingerprint) or one snapshot file; a "
        "snapshot whose fingerprint does not match the point fails "
        "loudly (FingerprintMismatchError)",
    )
    obs_group = parser.add_argument_group(
        "observability",
        "per-run artifacts (any of these forces fresh simulation: "
        "cached results carry no trace)",
    )
    obs_group.add_argument(
        "--trace",
        action="store_true",
        help="record flit/packet lifecycle events; writes <stem>.trace.jsonl "
        "plus a Chrome trace_event export (<stem>.trace.json) per run",
    )
    obs_group.add_argument(
        "--trace-sample",
        type=int,
        default=1,
        metavar="N",
        help="keep every Nth packet lifecycle in the trace (default: 1 = all)",
    )
    obs_group.add_argument(
        "--metrics-interval",
        type=int,
        default=None,
        metavar="CYCLES",
        help="snapshot link/queue/MSHR/engine metrics every CYCLES cycles "
        "into <stem>.metrics.jsonl",
    )
    obs_group.add_argument(
        "--profile",
        action="store_true",
        help="profile engine callbacks (events + wall time per handler) "
        "into <stem>.profile.json",
    )
    obs_group.add_argument(
        "--obs-dir",
        default="results/obs",
        metavar="DIR",
        help="directory for observability artifacts (default: results/obs)",
    )
    args = parser.parse_args(argv)

    if args.trace_sample < 1:
        parser.error("--trace-sample must be >= 1")
    if args.metrics_interval is not None and args.metrics_interval < 1:
        parser.error("--metrics-interval must be >= 1")
    if args.shards is not None and args.shards < 1:
        parser.error("--shards must be >= 1")
    if args.window is not None and args.window < 1:
        parser.error("--window must be >= 1")
    if args.checkpoint_every is not None and args.checkpoint_every < 1:
        parser.error("--checkpoint-every must be >= 1")

    try:
        chaos_options = _chaos_options(args)
    except ValueError as exc:
        parser.error(f"bad fault sweep spec: {exc}")
    overrides = _system_overrides(parser, args)
    try:
        ctx = _run_context(args, overrides)
    except ValueError as exc:
        parser.error(str(exc))
    if overrides:
        print(
            "topology overrides: "
            + ", ".join(f"{k}={v}" for k, v in sorted(overrides.items()))
        )

    if args.targets == ["list"]:
        print("available targets:")
        for name in ["tables", "report"] + list(DRIVERS):
            print(f"  {name}")
        return 0

    if ctx.observability is not None:
        print(f"observability artifacts -> {args.obs_dir}/ (cache bypassed)")
    if ctx.sharding is not None:
        sharding = ctx.sharding
        mode = "sequential" if sharding.parallel is False else "process-parallel"
        window = "adaptive" if sharding.adaptive else (sharding.window or "max")
        print(
            f"cluster sharding: {sharding.n_shards} shard(s), "
            f"window={window}, {mode}"
        )
    if ctx.checkpoint is not None:
        ckpt = ctx.checkpoint
        print(
            f"checkpointing: every {ckpt.every} kernel(s) -> {ckpt.directory}/"
            + (f", resuming from {ckpt.resume_from}" if ckpt.resume_from else "")
        )
    exp = replace(SCALES[args.scale](), context=ctx)
    drivers = dict(
        DRIVERS, chaos=partial(chaos.chaos_ber_sweep, options=chaos_options)
    )
    targets = list(DRIVERS) + ["tables"] if args.targets == ["all"] else args.targets
    for target in targets:
        if target == "tables":
            _print_tables()
            continue
        if target == "report":
            from pathlib import Path

            Path(args.output).parent.mkdir(parents=True, exist_ok=True)
            generate_report(exp, path=args.output)
            print(f"report written to {args.output}")
            continue
        driver = drivers.get(target)
        if driver is None:
            print(f"unknown target {target!r}; try 'list'", file=sys.stderr)
            return 2
        print(driver(exp).to_table())
        print()
    if runner.run_stats.points:
        print("== run summary ==")
        for line in runner.run_stats.summary_lines():
            print(f"  {line}")
    return 0


def _chaos_options(args) -> chaos.ChaosOptions:
    """The chaos sweep the ``--fault-*`` flags ask for (raises ValueError)."""
    from repro.faults.config import FlapWindow

    given: Dict[str, object] = {}
    if args.fault_ber is not None:
        given["bers"] = tuple(float(p) for p in args.fault_ber.split(","))
    if args.fault_drop is not None:
        given["drop_rate"] = args.fault_drop
    if args.fault_flaps is not None:
        windows = (spec.split(":") for spec in args.fault_flaps.split(","))
        given["flaps"] = tuple(
            FlapWindow(int(start), int(end), float(factor))
            for start, end, factor in windows
        )
    if args.fault_seed is not None:
        given["seed"] = args.fault_seed
    return chaos.ChaosOptions(**given)


def _system_overrides(parser, args) -> Dict[str, object]:
    """``SystemConfig`` overrides from ``--topology`` / ``--bw-class``."""
    overrides: Dict[str, object] = {}
    if args.topology is not None:
        overrides["inter_topology"] = args.topology
    if args.bw_class:
        bw: Dict[str, float] = {}
        for spec in args.bw_class:
            cls, sep, value = spec.partition("=")
            if not sep or not cls:
                parser.error(f"--bw-class wants CLASS=BW, got {spec!r}")
            if cls in bw:
                parser.error(
                    f"duplicate --bw-class for class {cls!r} "
                    f"(already set to {bw[cls]:g})"
                )
            try:
                bw[cls] = float(value)
            except ValueError:
                parser.error(f"bad bandwidth in --bw-class {spec!r}")
        overrides["link_bw_overrides"] = tuple(sorted(bw.items()))
    return overrides


def _run_context(args, overrides: Dict[str, object]) -> RunContext:
    """The flags layered over :meth:`RunContext.from_env` (raises
    ValueError for overrides the config rejects)."""
    env = RunContext.from_env()
    env_shards = env.sharding or ShardingOptions()
    checkpoint = None
    if args.checkpoint_every is not None or args.resume_from is not None:
        checkpoint = CheckpointOptions(
            directory=args.checkpoint_dir,
            every=args.checkpoint_every or 1,
            resume_from=args.resume_from,
        )
    return RunContext(
        jobs=env.jobs if args.jobs is None else args.jobs,
        cache_dir=None
        if args.no_cache
        else (args.cache_dir or env.cache_dir or DEFAULT_CACHE_DIR),
        sharding=ShardingOptions(
            n_shards=env_shards.n_shards if args.shards is None else args.shards,
            window=env_shards.window if args.window is None else args.window,
            parallel=False if args.sequential_shards else None,
            adaptive=args.adaptive_window or env_shards.adaptive,
        ),
        observability=ObservabilityOptions(
            trace=args.trace,
            trace_sample=args.trace_sample,
            metrics_interval=args.metrics_interval,
            profile=args.profile,
            out_dir=args.obs_dir,
        ),
        checkpoint=checkpoint,
        system_overrides=overrides,
    )

if __name__ == "__main__":
    sys.exit(main())
