"""CI gate for the fault-injection subsystem when it is on.

``--chaos-smoke``
    One seeded faulty run; asserts faults actually fired (nonzero
    corrupted and retransmitted counters), that the link-level
    conservation identity holds (every corrupted/dropped transmission is
    either retransmitted or abandoned), that goodput never exceeds raw
    wire throughput, and that recovery is lossless — the faulty run
    delivers exactly the same payload bytes as a fault-free run of the
    same workload.  Proves the subsystem works when enabled.

That it changes nothing when off — inert fault configs reproduce the
committed digests — is the digest gate's ``zero_faults`` perturbation
(``python -m repro.gate --perturbation zero_faults``).

Usage::

    python -m repro.faults --chaos-smoke
"""

from __future__ import annotations

import argparse
import sys

from repro.faults.config import FaultConfig, FlapWindow


def chaos_smoke() -> int:
    from repro.config import SystemConfig
    from repro.core.config import NetCrafterConfig
    from repro.gpu.system import MultiGpuSystem
    from repro.workloads.base import Scale
    from repro.workloads.registry import get_workload

    faults = FaultConfig(
        ber=2e-4,
        drop_rate=0.01,
        flaps=(FlapWindow(200, 900, 0.25),),
        seed=7,
        rdma_timeout=512,
    )

    def run(fault_config):
        config = SystemConfig.default().with_overrides(faults=fault_config)
        trace = get_workload("gups").build(
            n_gpus=config.n_gpus, scale=Scale.tiny(), seed=0
        )
        system = MultiGpuSystem(
            config=config, netcrafter=NetCrafterConfig.full(), seed=0
        )
        system.load(trace)
        return system.run()

    clean = run(FaultConfig())
    result = run(faults)
    f = result.stats.faults

    checks = [
        ("run completed", result.cycles > 0),
        ("fault stats collected", f is not None),
        ("flits corrupted", f.flits_corrupted > 0),
        ("flits retransmitted", f.flits_retransmitted > 0),
        (
            "conservation: corrupted+dropped == retransmitted+abandoned",
            f.flits_corrupted + f.flits_dropped
            == f.flits_retransmitted + f.flits_abandoned,
        ),
        ("crc verdicts cover wire flits", f.crc_ok > 0 and f.crc_fail > 0),
        (
            "goodput <= raw throughput",
            result.inter_useful_bytes <= result.inter_wire_bytes,
        ),
        (
            "recovery lossless: delivered payload bytes match fault-free run",
            result.inter_useful_bytes == clean.inter_useful_bytes,
        ),
        (
            "recovery latencies recorded",
            f.recovery_latency.count == f.flits_retransmitted
            or f.recovery_latency.count > 0,
        ),
    ]
    failures = 0
    for label, ok in checks:
        print(f"chaos-smoke [{label}]: {'OK' if ok else 'FAIL'}")
        if not ok:
            failures += 1
    print(
        f"  cycles={result.cycles} corrupted={f.flits_corrupted} "
        f"dropped={f.flits_dropped} retransmitted={f.flits_retransmitted} "
        f"abandoned={f.flits_abandoned} rdma_retries={f.rdma_retries} "
        f"goodput_ratio={result.goodput_ratio():.3f}"
    )
    return 1 if failures else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.faults",
        description="CI gate for the deterministic fault-injection layer.",
    )
    parser.add_argument(
        "--chaos-smoke",
        action="store_true",
        help="one seeded faulty run with counter/conservation assertions",
    )
    args = parser.parse_args(argv)
    if not args.chaos_smoke:
        parser.error("nothing to do: pass --chaos-smoke")
    return chaos_smoke()


if __name__ == "__main__":
    sys.exit(main())
