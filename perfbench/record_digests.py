"""Record the committed per-point digests ``table3_mesh`` checks against.

Usage (from the repository root)::

    python3 perfbench/record_digests.py

Simulates every Table-3 application x {baseline, full} x trace seed of
the pool on the single engine and writes ``digests/table3_mesh.json``.
Re-record only when a change is meant to alter simulated behaviour.
Before writing, the seed-0 gups/mt points are checked against the
committed ``SMOKE_digest.json["quick"]`` grid.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

from simdrive import (  # noqa: E402
    DIGEST_FILE,
    TABLE3_SEED_POOL,
    VARIANTS,
    Point,
    drive,
    point_digest,
)

from repro.bench.smoke import results_digest  # noqa: E402
from repro.config import SystemConfig  # noqa: E402
from repro.workloads.base import Scale  # noqa: E402
from repro.workloads.registry import all_workload_names  # noqa: E402


def main() -> int:
    config, scale = SystemConfig.default(), Scale.small()
    digests = {}
    smoke = []
    for app in all_workload_names():
        for seed in range(TABLE3_SEED_POOL):
            for variant in VARIANTS:
                point = Point(app, variant, seed)
                result = drive(point, config, scale).result
                digests[point.key] = point_digest(result)
                if seed == 0 and app in ("gups", "mt"):
                    smoke.append(result.to_dict())
        print(f"{app}: {TABLE3_SEED_POOL} seeds recorded", flush=True)
    want = json.loads((HERE.parent / "SMOKE_digest.json").read_text())["quick"]
    if results_digest(smoke) != want:
        print("seed-0 gups/mt points disagree with SMOKE_digest.json['quick']", file=sys.stderr)
        return 1
    DIGEST_FILE.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    print(f"{len(digests)} digests -> {DIGEST_FILE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
