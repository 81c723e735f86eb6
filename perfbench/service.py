"""The service workload: ``campaign_mixed``.

A ``python -m repro.campaign serve --jobs 2`` subprocess runs on fresh
cache and journal directories inside the benchmark's work directory.
One client drives it as a closed loop: submit a campaign, follow its
watch stream until complete, fetch the results, then submit the next.

The traffic follows the repository's own campaign flow, the CI
``campaign-smoke`` job: a client submits
``examples/campaigns/smoke_quick.json`` (two applications x {baseline,
full}, four points) and a second client resubmits the identical
campaign.  So every campaign here is two applications' baseline/full
pairs, and every new campaign is resubmitted once, right after it is
served.  A new campaign is one of:

* ``fresh``: two new pairs, so every point executes, is cached and
  journaled;
* ``overlap``: one pair seen before and one new pair.

and its resubmission is a ``repeat``: the exact point set, served by the
content-addressed resubmission path and cache reads.  The CI flow has no
overlap; that new campaigns alternate fresh and overlap (in an order the
run seed shuffles) is an assumption, so the mix is fresh:overlap:repeat
1:1:2 and ``points_per_s`` is also reported per class.  Points are at
``tiny`` scale rather than the smoke grid's ``small`` so a run serves
hundreds of campaigns; the smoke grid itself is served once as a digest
gate.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from calibration import Calibrator, ParallelReference
from report import Report, geomean, peak_rss_mb, percentile

from repro.campaign.client import CampaignClientError, request, watch
from repro.campaign.spec import parse_campaign
from repro.workloads.registry import all_workload_names

#: bound on every client call and on each server's start
CALL_TIMEOUT_S = 30.0
START_TIMEOUT_S = 60.0
#: server starts per run; ``setup_s`` is their median, the last one serves
SETUP_REPS = 9
JOBS = 2
#: the new-campaign classes; each is followed by its resubmission, and
#: the run seed shuffles their order per block
NEW_CLASSES = ("fresh", "overlap")
#: campaigns served when peak RSS is read: client and server keep every
#: campaign, so a peak read at the end would grow with throughput
RSS_AFTER_CAMPAIGNS = 300
#: seconds between reference-loop samples (campaigns are milliseconds long)
CALIBRATE_EVERY_S = 0.25
#: the committed quick smoke grid, served once per run as a digest gate
SMOKE_CAMPAIGN = {
    "name": "smoke-quick",
    "grid": {
        "workloads": ["gups", "mt"],
        "variants": ["baseline", "full"],
        "scale": "small",
        "seeds": [0],
    },
}

TransportError = (CampaignClientError, OSError, ValueError)


class Server:
    """One campaign server subprocess and its directories."""

    def __init__(self, root: Path, work: Path, index: int) -> None:
        self.journal = work / f"journal{index}"
        self.cache = work / f"cache{index}"
        self.log = work / f"server{index}.log"
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self._log_handle = open(self.log, "wb")
        self.proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro.campaign",
                "--journal-dir", str(self.journal),
                "serve", "--cache-dir", str(self.cache), "--jobs", str(JOBS),
            ],
            cwd=str(root),
            env=env,
            stdout=self._log_handle,
            stderr=subprocess.STDOUT,
            start_new_session=True,
        )
        self.endpoint: Optional[Tuple[str, int]] = None

    def wait_ready(self, timeout: float = START_TIMEOUT_S) -> None:
        """Block until the server answers a ping; raises on timeout."""
        deadline = time.monotonic() + timeout
        while True:
            if self.proc.poll() is not None:
                raise CampaignClientError(
                    f"server exited with {self.proc.returncode} before answering"
                )
            try:
                if self.endpoint is None:
                    self.endpoint = self._read_endpoint()
                reply = request(self.endpoint, {"op": "ping"}, timeout=CALL_TIMEOUT_S)
                if reply.get("ok"):
                    return
            except TransportError:
                pass
            if time.monotonic() > deadline:
                raise CampaignClientError(f"server not answering after {timeout:.0f}s")
            time.sleep(0.005)

    def _read_endpoint(self) -> Tuple[str, int]:
        """The endpoint file, read directly: ``client.discover_endpoint``
        opens a ``CampaignJournal``, whose constructor sweeps ``*.tmp``
        files, and polling it can delete the server's in-flight endpoint
        file before the rename (the server then dies on start)."""
        endpoint = json.loads((self.journal / "server.json").read_text())
        return str(endpoint["host"]), int(endpoint["port"])

    def stop(self) -> None:
        """Graceful shutdown, escalating to killing the process group."""
        if self.proc.poll() is None and self.endpoint is not None:
            try:
                request(self.endpoint, {"op": "shutdown"}, timeout=CALL_TIMEOUT_S)
            except TransportError:
                pass
        try:
            self.proc.wait(timeout=CALL_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            pass
        # the server's pool workers share its session; take them down too
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            pass
        self.proc.wait()
        self._log_handle.close()

    def log_tail(self, lines: int = 5) -> str:
        text = self.log.read_text(errors="replace").strip().splitlines()
        return " | ".join(text[-lines:])


class Campaigns:
    """The seeded campaign sequence: specs, and which points are seen."""

    def __init__(self, seed: int) -> None:
        self.rng = random.Random(seed)
        self.seen_pairs: List[Tuple[str, int]] = []
        self.submitted: List[dict] = []
        self._used_seeds = set()
        self._block: List[str] = []
        self._apps: List[str] = []
        self._resubmit = False

    def next_class(self) -> str:
        """A new campaign, then its resubmission, then the next new one."""
        if self._resubmit:
            self._resubmit = False
            return "repeat"
        self._resubmit = True
        if not self.submitted:
            return "fresh"  # an overlap needs a pair seen before
        if not self._block:
            self._block = list(NEW_CLASSES)
            self.rng.shuffle(self._block)
        return self._block.pop()

    def _new_pair(self) -> Tuple[str, int]:
        # applications come round in shuffled rounds, so every run's mix
        # of cheap and costly applications is the same
        if not self._apps:
            self._apps = all_workload_names()
            self.rng.shuffle(self._apps)
        while True:
            seed = self.rng.randrange(1, 1 << 30)
            if seed not in self._used_seeds:
                self._used_seeds.add(seed)
                return self._apps.pop(), seed

    def spec(self, kind: str) -> dict:
        if kind == "repeat":
            return self.submitted[-1]
        pairs = [self._new_pair()]
        pairs.append(self.rng.choice(self.seen_pairs) if kind == "overlap" else self._new_pair())
        self.seen_pairs.extend(p for p in pairs if p not in self.seen_pairs)
        data = {
            "name": f"{kind}-{len(self.submitted)}",
            "points": [
                {"workload": app, "variant": variant, "seed": seed, "scale": "tiny"}
                for app, seed in pairs
                for variant in ("baseline", "full")
            ],
        }
        self.submitted.append(data)
        return data


class Outcome:
    """One served campaign, as the client saw it."""

    def __init__(self) -> None:
        self.submit_s = 0.0
        self.fetch_s = 0.0
        self.total_s = 0.0
        self.digest = ""
        self.results: List[dict] = []
        #: (fingerprint, source, server wall s, seconds since submit returned)
        #: for the point events the watch stream delivered: the stream
        #: opens after submit returns, so a point served in between has
        #: none
        self.served: List[Tuple[str, str, float, float]] = []
        #: the server's counters when the campaign completed
        self.counters: Dict[str, float] = {}


def serve_campaign(endpoint, data: dict) -> Outcome:
    """Submit, follow the watch stream to completion, fetch; all bounded."""
    out = Outcome()
    start = time.perf_counter()
    reply = request(endpoint, {"op": "submit", "campaign": data}, timeout=CALL_TIMEOUT_S)
    submitted = time.perf_counter()
    out.submit_s = submitted - start
    if not reply.get("ok"):
        raise CampaignClientError(f"submit refused: {reply.get('error')}")
    cid = reply["campaign"]
    complete = False
    for event in watch(endpoint, cid, timeout=CALL_TIMEOUT_S):
        if event.get("ok") is False:
            raise CampaignClientError(f"watch failed: {event.get('error')}")
        if event.get("event") == "point" and event.get("state") == "failed":
            raise CampaignClientError(f"point failed: {event.get('error')}")
        if event.get("event") == "point" and event.get("state") == "served":
            out.served.append(
                (
                    event["fingerprint"],
                    event.get("source", ""),
                    float(event["wall_seconds"]),
                    time.perf_counter() - submitted,
                )
            )
        if event.get("event") == "campaign" and event.get("state") == "complete":
            complete = True
            out.counters = event.get("counters", {})
    if not complete:
        raise CampaignClientError("watch stream ended before the campaign completed")
    fetch_start = time.perf_counter()
    fetched = request(endpoint, {"op": "fetch", "campaign": cid}, timeout=CALL_TIMEOUT_S)
    end = time.perf_counter()
    if not fetched.get("ok"):
        raise CampaignClientError(f"fetch refused: {fetched.get('error')}")
    out.fetch_s = end - fetch_start
    out.total_s = end - start
    out.digest = fetched["digest"]
    out.results = fetched["results"]
    return out


def _smoke_digest(root: Path) -> str:
    return json.loads((root / "SMOKE_digest.json").read_text())["quick"]


def run_campaign_mixed(report: Report, seed: int, seconds: float, root: Path,
                       work: Path) -> None:
    """The campaign metrics come from client spans and the watch stream in
    every run; a traced run reports the same measurements.

    The server keeps ``JOBS`` worker processes busy, so the reference loop
    is timed in as many processes at once.
    """
    reference = ParallelReference(JOBS)
    cal = Calibrator(timer=reference.time, busy=JOBS)
    servers: List[Server] = []
    work.mkdir(parents=True, exist_ok=True)
    try:
        _run(report, cal, seed, seconds, root, work, servers)
    finally:
        for server in servers:
            server.stop()
        reference.close()
        shutil.rmtree(work, ignore_errors=True)


def _run(report, cal, seed, seconds, root, work, servers) -> None:
    # set-up: server start to first answered ping, several times
    cal.checkpoint()
    for index in range(SETUP_REPS):
        if servers:
            servers.pop().stop()
        start = time.perf_counter()
        server = Server(root, work, index)
        servers.append(server)
        try:
            server.wait_ready()
        except TransportError as exc:
            report.operation([f"{exc} ({server.log_tail()})"], f"server start {index}")
            return
        cal.add("setup", time.perf_counter() - start)
        report.operation([], f"server start {index}")
        cal.checkpoint()
    endpoint, server_pid = servers[-1].endpoint, servers[-1].proc.pid
    fingerprints = set()

    # digest gate on the committed quick grid; also warms the worker pool
    try:
        smoke = serve_campaign(endpoint, SMOKE_CAMPAIGN)
        want = _smoke_digest(root)
        report.operation(
            [] if smoke.digest == want else [f"digest {smoke.digest[:16]} != {want[:16]}"],
            "smoke-quick campaign",
        )
        fingerprints.update(parse_campaign(SMOKE_CAMPAIGN).fingerprints)
    except TransportError as exc:
        report.operation([str(exc)], "smoke-quick campaign")
        return
    cal.checkpoint()

    campaigns = Campaigns(seed)
    first_digest: Dict[str, str] = {}
    # execute totals come from the server's counters, which count every
    # execution; the watch stream may miss a point served before it opens
    executed_before = int(smoke.counters.get("points_executed", 0))
    exec_s_before = float(smoke.counters.get("exec_seconds", 0.0))
    exec_cycles = exec_points = 0
    cycles_by_pair: Dict[Tuple[str, str, int], int] = {}
    points_by_kind: Dict[str, int] = {}
    last_reference = time.perf_counter()
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        kind = campaigns.next_class()
        data = campaigns.spec(kind)
        spec = parse_campaign(data)
        cid = spec.campaign_id
        try:
            out = serve_campaign(endpoint, data)
        except TransportError as exc:
            report.operation([str(exc)], f"{kind} campaign")
            break  # the service is unusable; the run has failed
        problems = []
        if cid in first_digest and out.digest != first_digest[cid]:
            problems.append(f"repeat digest {out.digest[:16]} != first {first_digest[cid][:16]}")
        first_digest.setdefault(cid, out.digest)
        new = [i for i, fp in enumerate(spec.fingerprints) if fp not in fingerprints]
        executed_now = int(out.counters.get("points_executed", -1))
        exec_s_now = float(out.counters.get("exec_seconds", 0.0))
        if executed_now - executed_before != len(new):
            problems.append(
                f"server executed {executed_now - executed_before} points, "
                f"{len(new)} were new"
            )
        report.operation(problems, f"{kind} campaign")
        fingerprints.update(spec.fingerprints)
        cal.add(f"latency.{kind}", out.total_s)
        cal.add("campaign", out.total_s)
        points_by_kind[kind] = points_by_kind.get(kind, 0) + len(out.results)
        cal.add("submit", out.submit_s)
        cal.add("fetch", out.fetch_s)
        if new:
            cal.add("execute", exec_s_now - exec_s_before)
            exec_points += len(new)
            exec_cycles += sum(out.results[i]["cycles"] for i in new)
        executed_before, exec_s_before = executed_now, exec_s_now
        for _, source, wall, since_submit in out.served:
            if source == "executed":
                cal.add("queue_wait", max(0.0, since_submit - wall))
        for point, result in zip(data["points"], out.results):
            cycles_by_pair[(point["workload"], point["variant"], point["seed"])] = result["cycles"]
        if len(cal.raw("campaign")) == RSS_AFTER_CAMPAIGNS:
            report.set("peak_rss_mb", peak_rss_mb(server_pid), "MB")
        if time.perf_counter() - last_reference >= CALIBRATE_EVERY_S:
            cal.checkpoint()
            last_reference = time.perf_counter()
    cal.close()
    if "peak_rss_mb" not in report.metrics:  # a run too short to reach the count
        report.set("peak_rss_mb", peak_rss_mb(server_pid), "MB")

    # exactly-once: every unique point executed once, none twice
    try:
        status = request(endpoint, {"op": "status"}, timeout=CALL_TIMEOUT_S)
        counters = status.get("counters", {})
        executed = int(counters.get("points_executed", -1))
        requested = int(counters.get("points_requested", 0))
        report.operation(
            [] if executed == len(fingerprints)
            else [f"points_executed {executed} != {len(fingerprints)} unique points"],
            "exactly-once audit",
        )
    except TransportError as exc:
        report.operation([str(exc)], "exactly-once audit")
        return
    if not cal.raw("latency.fresh") or not cal.raw("execute"):
        report.operation(["no fresh campaign completed"], "campaign loop")
        return

    report.set("setup_s", statistics.median(cal.calibrated("setup")), "s",
               raw=statistics.median(cal.raw("setup")), samples=SETUP_REPS)
    fresh_cal, fresh_raw = cal.calibrated("latency.fresh"), cal.raw("latency.fresh")
    report.set("turnaround_p50_s", percentile(fresh_cal, 50), "s",
               raw=percentile(fresh_raw, 50), samples=len(fresh_cal))
    report.set("campaign.fresh_p90_s", percentile(fresh_cal, 90), "s",
               raw=percentile(fresh_raw, 90), samples=len(fresh_cal))
    points_served = sum(points_by_kind.values())
    campaign_cal, campaign_raw = cal.calibrated("campaign"), cal.raw("campaign")
    report.set("points_per_s", points_served / sum(campaign_cal), "1/s",
               raw=points_served / sum(campaign_raw), samples=len(campaign_cal))
    exec_cal, exec_raw = sum(cal.calibrated("execute")), sum(cal.raw("execute"))
    report.set("sim_cycles_per_s", exec_cycles / exec_cal, "1/s",
               raw=exec_cycles / exec_raw, samples=exec_points)
    report.set("runner.execute_s", exec_cal / exec_points, "s",
               raw=exec_raw / exec_points, samples=exec_points)

    for kind, points in sorted(points_by_kind.items()):
        values, raw = cal.calibrated(f"latency.{kind}"), cal.raw(f"latency.{kind}")
        report.set(f"campaign.{kind}_points_per_s", points / sum(values), "1/s",
                   raw=points / sum(raw), samples=len(values))
        if kind != "fresh":
            for p in (50, 90):
                report.set(f"campaign.{kind}_p{p}_s", percentile(values, p), "s",
                           raw=percentile(raw, p), samples=len(values))
    for name, kind, scale in (("campaign.submit_ms", "submit", 1000.0),
                              ("campaign.fetch_ms", "fetch", 1000.0),
                              ("campaign.queue_wait_s", "queue_wait", 1.0)):
        values, raw = cal.calibrated(kind), cal.raw(kind)
        if values:
            report.set(name, scale * statistics.median(values), name.rsplit("_", 1)[1],
                       raw=scale * statistics.median(raw), samples=len(values))
    report.set("campaign.points_executed", executed, "count")
    report.set("cache.hit_ratio", 1.0 - executed / requested if requested else 0.0, "ratio")
    ratios = [
        cycles_by_pair[(app, "baseline", s)] / cycles
        for (app, variant, s), cycles in cycles_by_pair.items()
        if variant == "full" and (app, "baseline", s) in cycles_by_pair
    ]
    report.set("netcrafter.speedup", geomean(ratios), "x", samples=len(ratios))
    report.note(
        "campaigns served: "
        + ", ".join(
            f"{k[len('latency.'):]} {len(cal.raw(k))}" for k in cal.kinds() if k.startswith("latency.")
        )
        + f"; {points_served} points, {executed} executed"
    )
