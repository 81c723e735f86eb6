"""Kill-and-resume smoke: the checkpoint subsystem's standing gate.

For every point of the :mod:`repro.bench.smoke` grid this harness

1. runs the point in a child process with a checkpoint hook that
   hard-kills the child (``os._exit``, no cleanup, no atexit) the
   instant its boundary snapshot is published,
2. asserts the child actually died at the checkpoint,
3. resumes the snapshot in a *fresh* interpreter, and
4. requires the resumed results' grid digest to equal the committed
   ``SMOKE_digest.json`` entry — the same digest an uninterrupted
   single-engine sweep produces, byte for byte.

Because the committed digest is produced by runs that never checkpoint,
passing here proves simultaneously that the hook is a pure observer and
that a killed-and-resumed run is indistinguishable from an undisturbed
one.  The sweep runs in all three execution modes (single-engine,
sequential-windowed, process-parallel) and on any topology-zoo shape
with a committed digest entry.

A multi-kernel probe (``mm2``, killed at its *mid-run* boundary) rides
along: smoke-grid workloads quiesce once at the end, so the probe is
what exercises resume with real follow-on kernels.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Dict, List, Optional

from repro.bench.smoke import (
    _grid_key,
    _variant_config,
    results_digest,
    smoke_points,
    topology_smoke_config,
)
from repro.ckpt import Checkpointer, CheckpointError, resume, run_fingerprint
from repro.gpu.node import build_node
from repro.workloads.base import Scale
from repro.workloads.registry import get_workload

#: exit code the killed child dies with right after publishing a snapshot
KILL_EXIT_CODE = 43
#: exit code when the child finished without ever being killed (a bug:
#: the kill boundary never fired)
RAN_TO_COMPLETION_CODE = 47


class KillAfterSave(Checkpointer):
    """A checkpointer that hard-kills the process after saving.

    ``os._exit`` skips every cleanup path — no atexit, no finally
    blocks, no multiprocessing teardown — the closest a test harness
    gets to a preemption.  Orphaned shard workers notice the dead pipe
    (EOFError) and exit on their own.
    """

    def __init__(self, path, fingerprint, kill_at: int) -> None:
        super().__init__(path=path, fingerprint=fingerprint, every=1)
        self.kill_at = kill_at

    def after_save(self, boundary: int) -> None:
        if boundary >= self.kill_at:
            sys.stdout.flush()
            sys.stderr.flush()
            os._exit(KILL_EXIT_CODE)


def _point_context(spec: Dict[str, object]):
    """(config, netcrafter, trace, fingerprint) for one point spec."""
    config = topology_smoke_config(spec["topology"])
    netcrafter = _variant_config(spec["variant"])
    trace = get_workload(spec["workload"]).build(
        n_gpus=config.n_gpus, scale=Scale.small(), seed=spec["seed"]
    )
    fingerprint = run_fingerprint(
        config,
        netcrafter,
        spec["seed"],
        trace,
        n_shards=spec["n_shards"],
        window=spec["window"],
    )
    return config, netcrafter, trace, fingerprint


def child_run_killed(spec: Dict[str, object]) -> int:
    """Child entry: simulate until the kill-boundary snapshot, then die."""
    config, netcrafter, trace, fingerprint = _point_context(spec)
    hook = KillAfterSave(spec["snapshot"], fingerprint, kill_at=spec["kill_at"])
    node = build_node(
        config,
        netcrafter,
        spec["seed"],
        n_shards=spec["n_shards"],
        window=spec["window"],
        parallel=spec["parallel"],
    )
    node._ckpt_hook = hook
    node.load(trace)
    node.run()
    return RAN_TO_COMPLETION_CODE


def child_resume(spec: Dict[str, object]) -> int:
    """Child entry: resume the snapshot, print the result dict as JSON."""
    config, netcrafter, trace, _ = _point_context(spec)
    result = resume(
        spec["snapshot"],
        config=config,
        netcrafter=netcrafter,
        seed=spec["seed"],
        workload=trace,
        n_shards=spec["n_shards"],
        window=spec["window"],
        parallel=spec["parallel"],
    )
    print(json.dumps(result.to_dict()))
    return 0


def _spawn(flag: str, spec: Dict[str, object]) -> subprocess.CompletedProcess:
    """Run a child entry point in its own session and reap the session.

    A hard-killed coordinator leaves forked shard workers behind (they
    inherit its pipe ends, so they never see EOF); capturing through OS
    pipes would then block until the orphans die.  Capture to temp files
    instead, wait only for the direct child, and SIGKILL the whole
    session afterwards — the same scope a real preemption kills.
    """
    cmd = [sys.executable, "-m", "repro.ckpt", flag, json.dumps(spec)]
    with tempfile.TemporaryFile() as out, tempfile.TemporaryFile() as err:
        proc = subprocess.Popen(
            cmd,
            stdout=out,
            stderr=err,
            start_new_session=True,
            env=dict(os.environ),
        )
        try:
            returncode = proc.wait(timeout=600)
        finally:
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except (ProcessLookupError, PermissionError):
                pass
        out.seek(0)
        err.seek(0)
        return subprocess.CompletedProcess(
            cmd,
            returncode,
            out.read().decode("utf-8", "replace"),
            err.read().decode("utf-8", "replace"),
        )


def kill_and_resume_point(
    workload: str,
    variant: str,
    *,
    snapshot_dir: Path,
    seed: int = 0,
    topology: str = "mesh",
    n_shards: int = 1,
    window: Optional[int] = None,
    parallel: bool = False,
    kill_at: int = 1,
) -> Dict[str, object]:
    """Save → hard-kill → resume one point across real process boundaries.

    Returns the resumed run's ``RunResult.to_dict`` payload; raises
    :class:`~repro.ckpt.CheckpointError` if the child did not die at the
    checkpoint or the resume child failed.
    """
    snapshot_dir = Path(snapshot_dir)
    snapshot_dir.mkdir(parents=True, exist_ok=True)
    mode = "single" if n_shards <= 1 and window is None else (
        "par" if parallel else "seq"
    )
    spec = {
        "workload": workload,
        "variant": variant,
        "seed": seed,
        "topology": topology,
        "n_shards": n_shards,
        "window": window,
        "parallel": parallel,
        "kill_at": kill_at,
        "snapshot": str(
            snapshot_dir / f"{topology}-{workload}-{variant}-{mode}.ckpt"
        ),
    }
    killed = _spawn("--run-killed", spec)
    if killed.returncode != KILL_EXIT_CODE:
        raise CheckpointError(
            f"kill child for {workload}/{variant} exited "
            f"{killed.returncode}, expected {KILL_EXIT_CODE} "
            f"(stderr: {killed.stderr.strip()[-2000:]})"
        )
    if not Path(spec["snapshot"]).exists():
        raise CheckpointError(
            f"kill child for {workload}/{variant} died without "
            f"publishing {spec['snapshot']}"
        )
    resumed = _spawn("--resume", spec)
    if resumed.returncode != 0:
        raise CheckpointError(
            f"resume child for {workload}/{variant} exited "
            f"{resumed.returncode} (stderr: {resumed.stderr.strip()[-2000:]})"
        )
    return json.loads(resumed.stdout.strip().splitlines()[-1])


def run_smoke(
    quick: bool = True,
    *,
    topology: str = "mesh",
    n_shards: int = 1,
    window: Optional[int] = None,
    parallel: bool = False,
    seed: int = 0,
    snapshot_dir: Path = Path("results/ckpt-smoke"),
    expect_file: Optional[str] = "SMOKE_digest.json",
    midrun_probe: bool = True,
) -> int:
    """The ``python -m repro.ckpt --smoke`` gate; returns an exit code."""
    grid_key = _grid_key(quick, topology)
    mode = (
        "single-engine"
        if n_shards <= 1 and window is None
        else f"{n_shards} shard(s), "
        + ("process-parallel" if parallel else "sequential-windowed")
    )
    print(f"ckpt kill-and-resume smoke [{grid_key}] {mode}")
    results: List[Dict[str, object]] = []
    for workload, variant in smoke_points(quick):
        payload = kill_and_resume_point(
            workload,
            variant,
            snapshot_dir=snapshot_dir,
            seed=seed,
            topology=topology,
            n_shards=n_shards,
            window=window,
            parallel=parallel,
        )
        print(f"  {workload}/{variant}: killed at checkpoint, resumed OK")
        results.append(payload)
    digest = results_digest(results)
    print(f"resumed-grid digest {digest}")

    exit_code = 0
    if expect_file:
        committed = json.loads(Path(expect_file).read_text())
        expected = committed.get(grid_key)
        if expected is None:
            print(
                f"{expect_file} has no entry for the {grid_key!r} grid",
                file=sys.stderr,
            )
            return 2
        if digest == expected:
            print("digest matches the committed uninterrupted-run digest")
        else:
            print(f"DIGEST MISMATCH: expected {expected}", file=sys.stderr)
            exit_code = 1

    if midrun_probe:
        # the grid workloads quiesce once; mm2 has a true mid-run
        # boundary, so kill there and compare against an in-process
        # uninterrupted reference
        probe = kill_and_resume_point(
            "mm2",
            "full",
            snapshot_dir=snapshot_dir,
            seed=seed,
            topology=topology,
            n_shards=n_shards,
            window=window,
            parallel=parallel,
            kill_at=1,
        )
        spec = {
            "workload": "mm2",
            "variant": "full",
            "seed": seed,
            "topology": topology,
            "n_shards": n_shards,
            "window": window,
            "parallel": parallel,
        }
        config, netcrafter, trace, _ = _point_context(spec)
        reference = build_node(
            config,
            netcrafter,
            seed,
            n_shards=n_shards,
            window=window,
            parallel=parallel,
        )
        reference.load(trace)
        # compare via the canonical digest: the probe payload round-tripped
        # through JSON (tuples have become lists), so compare the digests,
        # which canonicalize both sides the same way
        if results_digest([probe]) == results_digest([reference.run().to_dict()]):
            print("mm2 mid-run boundary: killed at kernel 1/2, resumed byte-identical")
        else:
            print(
                "mm2 mid-run boundary: resumed result DIVERGED from the "
                "uninterrupted run",
                file=sys.stderr,
            )
            exit_code = 1
    return exit_code
