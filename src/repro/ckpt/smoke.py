"""Kill-and-resume of one smoke-grid point across real process boundaries.

:func:`kill_and_resume_point`

1. runs the point in a child process with a checkpoint hook that
   hard-kills the child (``os._exit``, no cleanup, no atexit) the
   instant its boundary snapshot is published,
2. asserts the child actually died at the checkpoint, and
3. resumes the snapshot in a *fresh* interpreter, returning the resumed
   run's result payload.

The digest gate (:mod:`repro.gate`, perturbation ``kill_resume``)
digests the resumed payloads of a whole grid and requires the committed
``SMOKE_digest.json`` entry — the digest of runs that never checkpoint
— so passing proves both that the hook is a pure observer and that a
killed-and-resumed run is indistinguishable from an undisturbed one.
Table-3 grid workloads quiesce once, at the end; the collective grid's
multi-kernel workloads die at a true mid-run boundary.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Dict

from repro.bench.smoke import SEED, _variant_config, topology_smoke_config
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
        n_gpus=config.n_gpus, scale=Scale.small(), seed=SEED
    )
    fingerprint = run_fingerprint(
        config, netcrafter, SEED, trace, n_shards=spec["n_shards"]
    )
    return config, netcrafter, trace, fingerprint


def child_run_killed(spec: Dict[str, object]) -> int:
    """Child entry: simulate until the kill-boundary snapshot, then die."""
    config, netcrafter, trace, fingerprint = _point_context(spec)
    hook = KillAfterSave(spec["snapshot"], fingerprint, kill_at=spec["kill_at"])
    node = build_node(
        config,
        netcrafter,
        SEED,
        n_shards=spec["n_shards"],
        parallel=spec["parallel"],
        adaptive=spec["adaptive"],
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
        seed=SEED,
        workload=trace,
        n_shards=spec["n_shards"],
        parallel=spec["parallel"],
        adaptive=spec["adaptive"],
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
    topology: str = "mesh",
    n_shards: int = 1,
    parallel: bool = False,
    adaptive: bool = False,
    kill_at: int = 1,
) -> Dict[str, object]:
    """Save → hard-kill → resume one point across real process boundaries.

    Returns the resumed run's ``RunResult.to_dict`` payload; raises
    :class:`~repro.ckpt.CheckpointError` if the child did not die at the
    checkpoint or the resume child failed.
    """
    snapshot_dir = Path(snapshot_dir)
    snapshot_dir.mkdir(parents=True, exist_ok=True)
    mode = "single" if n_shards <= 1 and not adaptive else (
        "par" if parallel else "seq"
    )
    if adaptive:
        mode += "-adaptive"
    spec = {
        "workload": workload,
        "variant": variant,
        "topology": topology,
        "n_shards": n_shards,
        "parallel": parallel,
        "adaptive": adaptive,
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
