"""CLI: run the benchmark suite, emit/validate ``BENCH_core.json``,
and optionally diff against the committed baseline.

Examples::

    python -m repro.bench                       # full suite -> BENCH_core.json
    python -m repro.bench --quick               # CI-sized suite
    python -m repro.bench --compare             # diff vs BENCH_baseline.json
    python -m repro.bench --update-baseline     # promote this run to baseline

``--compare`` exits non-zero when any benchmark regressed past its
threshold or when an e2e result digest moved (simulator semantics
changed).  The default threshold is ``--fail-threshold`` (1.3x); a
baseline row may pin its own ``fail_threshold`` for benchmarks known to
be noisy, and ``--update-baseline`` preserves those pins.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from repro.bench.harness import (
    Clock,
    compare_reports,
    comparison_lines,
    comparison_markdown,
    overhead_markdown,
    run_benchmarks,
)
from repro.bench.schema import BenchSchemaError, validate_report

DEFAULT_OUT = "BENCH_core.json"
DEFAULT_BASELINE = "BENCH_baseline.json"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Run the simulator benchmark suite.",
    )
    parser.add_argument(
        "--quick", action="store_true", help="CI-sized suite (smaller inputs)"
    )
    parser.add_argument(
        "--out", default=DEFAULT_OUT, help=f"output path (default {DEFAULT_OUT})"
    )
    parser.add_argument(
        "--only",
        nargs="+",
        metavar="NAME",
        help="run only the named benchmarks",
    )
    parser.add_argument(
        "--compare",
        nargs="?",
        const=DEFAULT_BASELINE,
        metavar="BASELINE",
        help=f"diff against a baseline report (default {DEFAULT_BASELINE}, "
        "committed at the repo root)",
    )
    parser.add_argument(
        "--fail-threshold",
        type=float,
        default=1.3,
        help="with --compare, fail when a benchmark is this many times "
        "slower than the baseline (default 1.3; a baseline row's own "
        "fail_threshold field overrides this per benchmark)",
    )
    parser.add_argument(
        "--summary-out",
        metavar="PATH",
        help="write a markdown summary (the comparison delta table when "
        "--compare is given, else the plain results) to PATH — CI "
        "appends it to $GITHUB_STEP_SUMMARY",
    )
    parser.add_argument(
        "--repeats",
        type=int,
        default=3,
        help="run each benchmark this many times and report the minimum "
        "wall time (default 3; the suite is deterministic, so spread "
        "between repeats is machine noise)",
    )
    parser.add_argument(
        "--update-baseline",
        action="store_true",
        help="also write this run's report over the baseline path",
    )
    return parser


def promote_baseline(doc: dict, baseline_path: Path) -> dict:
    """Build the promoted baseline document for ``--update-baseline``.

    The promoted baseline starts from the current run's rows, with two
    merge rules against the old baseline (when one exists):

    * hand-pinned ``fail_threshold`` values are carried over — promoting
      a run must not silently loosen the gate;
    * benchmarks the current run did not execute (``--only`` subsets)
      keep their old rows instead of vanishing, and per-row keys present
      only in the old row (overhead counters recorded by a fuller run,
      digests from a different machine epoch) are retained under the
      re-run row rather than dropped.
    """
    baseline_doc = dict(doc)
    baseline_doc.pop("comparison", None)
    rows = [dict(row) for row in baseline_doc["benchmarks"]]
    if baseline_path.exists():
        try:
            old = json.loads(baseline_path.read_text())
            old_rows = {
                row["name"]: row
                for row in old.get("benchmarks", [])
                if isinstance(row, dict) and "name" in row
            }
        except ValueError:
            old_rows = {}
        merged = []
        for row in rows:
            old_row = old_rows.pop(row["name"], None)
            if old_row is not None:
                # old-only keys survive; fresh values win everywhere else
                carried = {k: v for k, v in old_row.items() if k not in row}
                row.update(carried)
                if "fail_threshold" in old_row:
                    row["fail_threshold"] = old_row["fail_threshold"]
            merged.append(row)
        # benchmarks not re-run this invocation keep their old rows
        merged.extend(old_rows.values())
        rows = merged
    baseline_doc["benchmarks"] = rows
    return baseline_doc


def main(argv=None, clock: Clock = time.perf_counter) -> int:
    """CLI entry point; ``clock`` times every benchmark repeat."""
    args = build_parser().parse_args(argv)
    report = run_benchmarks(
        quick=args.quick, only=args.only, repeats=args.repeats, clock=clock
    )

    doc = report.to_dict()
    exit_code = 0
    if args.compare is not None:
        baseline_path = Path(args.compare)
        try:
            baseline = json.loads(baseline_path.read_text())
            validate_report(baseline)
        except FileNotFoundError:
            print(f"baseline not found: {baseline_path}", file=sys.stderr)
            return 2
        except (ValueError, BenchSchemaError) as exc:
            print(f"invalid baseline {baseline_path}: {exc}", file=sys.stderr)
            return 2
        comparison = compare_reports(
            doc, baseline, fail_threshold=args.fail_threshold
        )
        doc["comparison"] = comparison
        if comparison["regressions"] or comparison.get("digest_match") is False:
            exit_code = 1

    try:
        validate_report(doc)
    except BenchSchemaError as exc:  # pragma: no cover - self-check
        print(f"generated report failed schema validation: {exc}", file=sys.stderr)
        return 2

    blob = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    Path(args.out).write_text(blob)
    if args.update_baseline:
        baseline_path = Path(args.compare or DEFAULT_BASELINE)
        baseline_doc = promote_baseline(doc, baseline_path)
        baseline_path.write_text(
            json.dumps(baseline_doc, indent=2, sort_keys=True) + "\n"
        )

    for rec in report.records:
        print(
            f"{rec.name:<30} {rec.work_units:>10d} units  "
            f"{rec.wall_seconds:7.3f}s  {rec.rate:>12.0f}/s  "
            f"rss {rec.peak_rss_kb} KiB"
        )
    if "comparison" in doc:
        print()
        for line in comparison_lines(doc["comparison"]):
            print(line)
    if args.summary_out:
        if "comparison" in doc:
            summary = ["### Benchmark deltas", ""]
            summary += comparison_markdown(doc["comparison"])
        else:
            summary = [
                "### Benchmark results",
                "",
                "| benchmark | work units | wall | rate |",
                "|---|---:|---:|---:|",
            ] + [
                f"| {rec.name} | {rec.work_units:,} "
                f"| {rec.wall_seconds:.3f}s | {rec.rate:,.0f}/s |"
                for rec in report.records
            ]
            summary += overhead_markdown(
                [{"name": rec.name, **rec.extra} for rec in report.records]
            )
        Path(args.summary_out).write_text("\n".join(summary) + "\n")
    print(f"\nwrote {args.out}")
    return exit_code


if __name__ == "__main__":
    sys.exit(main())
