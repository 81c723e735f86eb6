"""Child entry points of the kill-and-resume harness.

``--run-killed``/``--resume`` are internal: :mod:`repro.ckpt.smoke`
spawns them to cross real process boundaries.  Each takes a JSON point
spec as its sole argument and is not meant for interactive use; the
kill-and-resume gate itself is ``python -m repro.gate --perturbation
kill_resume``.
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.ckpt.smoke import child_resume, child_run_killed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.ckpt",
        description="kill-and-resume child entry points (internal)",
    )
    child = parser.add_mutually_exclusive_group(required=True)
    child.add_argument("--run-killed", metavar="SPEC_JSON", default=None)
    child.add_argument("--resume", metavar="SPEC_JSON", default=None)
    args = parser.parse_args(argv)

    if args.run_killed is not None:
        return child_run_killed(json.loads(args.run_killed))
    return child_resume(json.loads(args.resume))


if __name__ == "__main__":
    sys.exit(main())
