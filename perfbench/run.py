"""Benchmark entry point.

Usage (from the repository root)::

    python3 perfbench/run.py --workload table3_mesh --seed 0 --seconds 20 --trace 0

Prints a human-readable report (host fingerprint, every metric with its
unit, raw value and sample count, operation failures) and, as the last
line, one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``,
measured untraced; ``--trace 1`` reports its per-layer metrics from a
run that also drives each point under the layer profiler.  Exits 1 when
any correctness check fails, 2 when the program cannot be found.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from calibration import host_fingerprint  # noqa: E402
from report import Report  # noqa: E402

WORKLOADS = ("table3_mesh", "collective_sharded", "campaign_mixed")


def declared_metrics(trace: bool):
    """(name, unit) pairs the run must report, from ``BENCHMARK.json``."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [(m["name"], m["unit"]) for m in spec["per_layer" if trace else "end_to_end"]]


def run(workload: str, seed: int, seconds: float, trace: bool) -> Report:
    report = Report(workload, seed, host_fingerprint())
    if workload == "campaign_mixed":
        from service import run_campaign_mixed

        work = ROOT / f".perfbench_work.{os.getpid()}"
        run_campaign_mixed(report, seed, seconds, ROOT, work)
    elif workload == "table3_mesh":
        from simdrive import run_table3_mesh

        run_table3_mesh(report, seed, seconds, trace)
    else:
        from simdrive import run_collective_sharded

        run_collective_sharded(report, seed, seconds, trace)
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no program to benchmark: {ROOT / 'src' / 'repro'} is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    declared = declared_metrics(bool(args.trace))
    report = run(args.workload, args.seed, args.seconds, bool(args.trace))
    if report.correct:
        # layers a workload never exercises read zero, not absent
        for name, unit in declared:
            if name not in report.metrics:
                if not args.trace:
                    raise KeyError(f"{args.workload} did not measure {name}")
                report.set(name, 0, unit, samples=0)
    names = [name for name, _ in declared if name in report.metrics]
    for line in report.lines(names):
        print(line)
    print(report.result_line(names), flush=True)
    if not report.correct:
        print(f"correctness checks failed: error_rate {report.error_rate:.4g}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
