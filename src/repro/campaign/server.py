"""The campaign server: a long-lived experiment-serving front end.

A single-process asyncio server that accepts campaigns
(:mod:`repro.campaign.spec`), executes their points through the existing
runner on a bounded worker pool, and serves results from the shared
:class:`~repro.experiments.cache.ResultCache` — with three guarantees:

**Dedupe.**  Points are identified by
:func:`~repro.experiments.cache.fingerprint`.  Concurrent campaigns
containing the same point share one in-process task (and therefore one
execution); across *processes* the cache dir's in-flight claims extend
the same guarantee to external ``run_many`` clients — whoever wins the
claim executes, everyone else follows the published result.

**Streaming progress.**  Clients subscribe to per-campaign event streams
(newline-delimited JSON over a localhost TCP socket): every point's
``queued -> running -> served`` transitions with its source
(``executed``/``cache``/``peer``) and wall time, plus campaign-level
completion carrying :class:`~repro.obs.CounterSet`-style hit/miss
counters.

**Durability.**  Campaign membership journals through
:mod:`repro.atomicio` (:class:`~repro.campaign.journal.CampaignJournal`)
and results live in the content-addressed cache, so a restarted server
resumes unfinished campaigns and re-serves completed ones without
re-executing anything whose result survived.

Scheduling is priority-first (higher ``priority`` campaigns dispatch
before lower, FIFO within a priority); a point shared between campaigns
runs at the highest priority any of them asked for.
"""

from __future__ import annotations

import asyncio
import heapq
import json
import time
from concurrent.futures import Executor, ProcessPoolExecutor
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.campaign.journal import CampaignJournal
from repro.campaign.spec import (
    CampaignSpec,
    CampaignSpecError,
    parse_campaign,
    point_from_descriptor,
)
from repro.experiments.cache import ResultCache, point_descriptor
from repro.experiments.runner import ExperimentPoint, RunContext, execute_point
from repro.obs import CounterSet

#: protocol version stamped on every response/event line
PROTOCOL_VERSION = 1

#: how often a point following a cross-process claim re-polls the cache
PEER_POLL_SECONDS = 0.05


@dataclass
class PointTask:
    """One in-flight unique point, shared by every campaign naming it."""

    fingerprint: str
    point: ExperimentPoint
    label: str
    priority: int
    seq: int
    state: str = "queued"  # queued | running | done
    source: Optional[str] = None  # executed | cache | peer
    wall_seconds: float = 0.0
    campaigns: Set[str] = field(default_factory=set)


@dataclass
class CampaignState:
    """One submitted campaign: ordered membership plus its watchers."""

    id: str
    name: str
    priority: int
    #: (fingerprint, label) in submission order — fetch/digest order
    points: List[Tuple[str, str]]
    submitted_at: float
    #: full point descriptors keyed by fingerprint, journaled so a
    #: restarted server can re-execute pruned points from scratch
    descriptors: Dict[str, Dict[str, object]] = field(default_factory=dict)
    done: Set[str] = field(default_factory=set)
    watchers: List[asyncio.Queue] = field(default_factory=list)

    @property
    def complete(self) -> bool:
        return len(self.done) >= len(self.points)

    def progress(self) -> Dict[str, int]:
        return {"points": len(self.points), "done": len(self.done)}


class CampaignServer:
    """Serve campaigns over newline-delimited JSON on a local socket."""

    def __init__(
        self,
        cache_dir: str,
        journal_dir: str,
        jobs: int = 1,
        host: str = "127.0.0.1",
        port: int = 0,
        executor: Optional[Executor] = None,
        execute_fn: Optional[Callable] = None,
    ) -> None:
        self.cache = ResultCache(cache_dir)
        self.journal = CampaignJournal(journal_dir)
        self.jobs = max(1, int(jobs))
        self.host = host
        self.port = port
        self.metrics = CounterSet()
        self.campaigns: Dict[str, CampaignState] = {}
        self.tasks: Dict[str, PointTask] = {}
        #: lazy-invalidation priority heap of (-priority, seq, fingerprint)
        self._queue: List[Tuple[int, int, str]] = []
        self._seq = 0
        self._running = 0
        self._wake = asyncio.Event()
        self._stopping = asyncio.Event()
        self._server: Optional[asyncio.base_events.Server] = None
        self._dispatcher: Optional[asyncio.Task] = None
        self._point_tasks: Set[asyncio.Task] = set()
        self._owns_executor = executor is None and execute_fn is None
        self._executor = executor
        # points run plainly: no sharding, artifacts or checkpoints, and
        # nothing read from the server's environment
        self._execute = execute_fn or partial(execute_point, ctx=RunContext())

    # -- lifecycle -----------------------------------------------------------

    async def start(self) -> None:
        """Bind, recover journaled campaigns, and begin dispatching."""
        if self._owns_executor:
            self._executor = ProcessPoolExecutor(max_workers=self.jobs)
        self._recover()
        self._server = await asyncio.start_server(
            self._handle_connection, host=self.host, port=self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        self.journal.publish_endpoint(self.host, self.port)
        self._dispatcher = asyncio.create_task(self._dispatch_loop())

    async def serve_forever(self) -> None:
        await self._stopping.wait()

    async def stop(self) -> None:
        """Graceful shutdown: stop accepting, let running points finish."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        if self._dispatcher is not None:
            self._dispatcher.cancel()
            try:
                await self._dispatcher
            except asyncio.CancelledError:
                pass
        if self._point_tasks:
            await asyncio.gather(*self._point_tasks, return_exceptions=True)
        if self._owns_executor and self._executor is not None:
            self._executor.shutdown(wait=True)
        self.journal.clear_endpoint()
        self._stopping.set()

    def _recover(self) -> None:
        """Replay the journal: re-serve complete campaigns, re-enqueue
        unfinished points (cached results count as already done)."""
        for record in self.journal.load_all():
            campaign = CampaignState(
                id=record["id"],
                name=record.get("name", record["id"]),
                priority=int(record.get("priority", 0)),
                points=[(p["fingerprint"], p["label"]) for p in record["points"]],
                submitted_at=float(record.get("submitted_at", 0.0)),
                descriptors={
                    p["fingerprint"]: p["descriptor"]
                    for p in record["points"]
                    if p.get("descriptor") is not None
                },
            )
            self.campaigns[campaign.id] = campaign
            for entry in record["points"]:
                fp = entry["fingerprint"]
                if self.cache.get_by_key(fp) is not None:
                    campaign.done.add(fp)
                    continue
                # the cached result is gone (pruned, or never finished):
                # rebuild the point from its journaled descriptor and
                # queue a re-execution
                point = point_from_descriptor(entry["descriptor"])
                self._enqueue_point(fp, point, entry["label"], campaign)
                self.metrics.inc("points_recovered")
            if campaign.done and not campaign.complete:
                self._journal_campaign(campaign)
            self.metrics.inc("campaigns_recovered")

    # -- submission & scheduling ---------------------------------------------

    def _enqueue_point(
        self, fp: str, point: ExperimentPoint, label: str, campaign: CampaignState
    ) -> PointTask:
        task = self.tasks.get(fp)
        if task is not None and task.state != "done":
            task.campaigns.add(campaign.id)
            if campaign.priority > task.priority and task.state == "queued":
                # shared points run at the highest interested priority
                task.priority = campaign.priority
                heapq.heappush(self._queue, (-task.priority, task.seq, fp))
            self.metrics.inc("points_deduped_inflight")
            return task
        self._seq += 1
        task = PointTask(
            fingerprint=fp,
            point=point,
            label=label,
            priority=campaign.priority,
            seq=self._seq,
            campaigns={campaign.id},
        )
        self.tasks[fp] = task
        heapq.heappush(self._queue, (-task.priority, task.seq, fp))
        self._wake.set()
        return task

    def submit(self, spec: CampaignSpec) -> Dict[str, object]:
        """Register a campaign; returns the submission summary."""
        cid = spec.campaign_id
        self.metrics.inc("campaigns_submitted")
        self.metrics.inc("points_requested", len(spec.points))
        existing = self.campaigns.get(cid)
        if existing is not None:
            # content-addressed resubmission: same points, same campaign.
            # Raise the priority of anything still pending if asked.
            self.metrics.inc("campaigns_resubmitted")
            if spec.priority > existing.priority:
                existing.priority = spec.priority
                for fp, _ in existing.points:
                    task = self.tasks.get(fp)
                    if task is not None and task.state == "queued":
                        task.priority = max(task.priority, spec.priority)
                        heapq.heappush(self._queue, (-task.priority, task.seq, fp))
                self._wake.set()
                self._journal_campaign(existing)
            return self._submission_summary(existing, resubmitted=True)

        campaign = CampaignState(
            id=cid,
            name=spec.name,
            priority=spec.priority,
            points=[
                (fp, point.label())
                for fp, point in zip(spec.fingerprints, spec.points)
            ],
            submitted_at=time.time(),
            descriptors={
                fp: point_descriptor(point)
                for fp, point in zip(spec.fingerprints, spec.points)
            },
        )
        self.campaigns[cid] = campaign
        for fp, point in zip(spec.fingerprints, spec.points):
            done_task = self.tasks.get(fp)
            if done_task is not None and done_task.state == "done":
                campaign.done.add(fp)
                self.metrics.inc("points_served_memo")
                continue
            if done_task is None and self.cache.get_by_key(fp) is not None:
                campaign.done.add(fp)
                self.metrics.inc("points_served_cache")
                continue
            self._enqueue_point(fp, point, point.label(), campaign)
        self._journal_campaign(campaign)
        self._emit(
            campaign,
            {
                "event": "campaign",
                "state": "accepted" if not campaign.complete else "complete",
                **campaign.progress(),
            },
        )
        return self._submission_summary(campaign, resubmitted=False)

    def _submission_summary(
        self, campaign: CampaignState, resubmitted: bool
    ) -> Dict[str, object]:
        pending = [fp for fp, _ in campaign.points if fp not in campaign.done]
        return {
            "campaign": campaign.id,
            "name": campaign.name,
            "priority": campaign.priority,
            "points": len(campaign.points),
            "pending": len(pending),
            "complete": campaign.complete,
            "resubmitted": resubmitted,
        }

    def _journal_campaign(self, campaign: CampaignState) -> None:
        record_points = [
            {
                "fingerprint": fp,
                "label": label,
                "descriptor": campaign.descriptors.get(fp),
            }
            for fp, label in campaign.points
        ]
        self.journal.save(
            {
                "id": campaign.id,
                "name": campaign.name,
                "priority": campaign.priority,
                "submitted_at": campaign.submitted_at,
                "state": "complete" if campaign.complete else "active",
                "points": record_points,
                "done": sorted(campaign.done),
            }
        )

    # -- dispatch ------------------------------------------------------------

    async def _dispatch_loop(self) -> None:
        while True:
            while self._queue and self._running < self.jobs:
                _, _, fp = heapq.heappop(self._queue)
                task = self.tasks.get(fp)
                if task is None or task.state != "queued":
                    continue  # lazily-invalidated heap entry
                task.state = "running"
                self._running += 1
                runner = asyncio.create_task(self._run_point(task))
                self._point_tasks.add(runner)
                runner.add_done_callback(self._point_tasks.discard)
            self._wake.clear()
            await self._wake.wait()

    async def _run_point(self, task: PointTask) -> None:
        loop = asyncio.get_running_loop()
        started = time.perf_counter()
        self._emit_point(task, "running")
        try:
            result = self.cache.get(task.point)
            if result is not None:
                task.source = "cache"
                self.metrics.inc("points_served_cache")
            else:
                result = await self._execute_or_follow(loop, task)
        except Exception as exc:
            task.state = "done"
            task.source = "error"
            self.metrics.inc("points_failed")
            self._finish_point(task, error=f"{type(exc).__name__}: {exc}")
            return
        finally:
            self._running -= 1
            self._wake.set()
        task.wall_seconds = time.perf_counter() - started
        task.state = "done"
        self._finish_point(task)

    async def _execute_or_follow(self, loop, task: PointTask):
        """Claim-then-execute, or follow a peer process's execution."""
        while True:
            if self.cache.claim(task.fingerprint):
                try:
                    # a peer may have published between the miss and the
                    # claim win; its result is authoritative
                    result = self.cache.get(task.point)
                    if result is not None:
                        task.source = "peer"
                        self.metrics.inc("points_served_peer")
                        return result
                    result, seconds = await loop.run_in_executor(
                        self._executor, self._execute, task.point
                    )
                    self.cache.put(task.point, result)
                    task.source = "executed"
                    self.metrics.inc("points_executed")
                    self.metrics.inc("exec_seconds", seconds)
                    return result
                finally:
                    self.cache.release(task.fingerprint)
            result = self.cache.get(task.point)
            if result is not None:
                task.source = "peer"
                self.metrics.inc("points_served_peer")
                return result
            await asyncio.sleep(PEER_POLL_SECONDS)

    def _finish_point(self, task: PointTask, error: Optional[str] = None) -> None:
        for cid in sorted(task.campaigns):
            campaign = self.campaigns.get(cid)
            if campaign is None:
                continue
            if error is None:
                campaign.done.add(task.fingerprint)
            self._journal_campaign(campaign)
            self._emit_point(task, "served" if error is None else "failed", cid, error)
            if campaign.complete:
                self._emit(
                    campaign,
                    {
                        "event": "campaign",
                        "state": "complete",
                        **campaign.progress(),
                        "counters": self.metrics.to_dict(),
                    },
                )

    # -- events --------------------------------------------------------------

    def _emit(self, campaign: CampaignState, event: Dict[str, object]) -> None:
        payload = {"v": PROTOCOL_VERSION, "campaign": campaign.id, **event}
        for queue in list(campaign.watchers):
            queue.put_nowait(payload)

    def _emit_point(
        self,
        task: PointTask,
        state: str,
        only_campaign: Optional[str] = None,
        error: Optional[str] = None,
    ) -> None:
        for cid in sorted(task.campaigns):
            if only_campaign is not None and cid != only_campaign:
                continue
            campaign = self.campaigns.get(cid)
            if campaign is None:
                continue
            event = {
                "event": "point",
                "state": state,
                "label": task.label,
                "fingerprint": task.fingerprint,
            }
            if task.source is not None:
                event["source"] = task.source
            if state == "served":
                event["wall_seconds"] = round(task.wall_seconds, 6)
                event.update(campaign.progress())
            if error is not None:
                event["error"] = error
            self._emit(campaign, event)

    # -- protocol ------------------------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            line = await reader.readline()
            if not line:
                return
            try:
                request = json.loads(line)
            except json.JSONDecodeError:
                await self._send(writer, {"ok": False, "error": "bad JSON request"})
                return
            op = request.get("op")
            handler = {
                "ping": self._op_ping,
                "submit": self._op_submit,
                "status": self._op_status,
                "fetch": self._op_fetch,
                "watch": self._op_watch,
                "shutdown": self._op_shutdown,
            }.get(op)
            if handler is None:
                await self._send(
                    writer, {"ok": False, "error": f"unknown op {op!r}"}
                )
                return
            await handler(request, writer)
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass

    async def _send(self, writer: asyncio.StreamWriter, payload: Dict) -> None:
        payload.setdefault("v", PROTOCOL_VERSION)
        writer.write(json.dumps(payload).encode("utf-8") + b"\n")
        await writer.drain()

    async def _op_ping(self, request, writer) -> None:
        await self._send(
            writer,
            {
                "ok": True,
                "campaigns": len(self.campaigns),
                "queued": sum(
                    1 for t in self.tasks.values() if t.state == "queued"
                ),
                "running": self._running,
                "counters": self.metrics.to_dict(),
            },
        )

    async def _op_submit(self, request, writer) -> None:
        try:
            spec = parse_campaign(
                request.get("campaign"), request.get("default_name", "campaign")
            )
        except CampaignSpecError as exc:
            await self._send(writer, {"ok": False, "error": str(exc)})
            return
        summary = self.submit(spec)
        await self._send(writer, {"ok": True, **summary})

    def _campaign_status(self, campaign: CampaignState) -> Dict[str, object]:
        states: Dict[str, int] = {"done": len(campaign.done), "queued": 0, "running": 0}
        for fp, _ in campaign.points:
            if fp in campaign.done:
                continue
            task = self.tasks.get(fp)
            state = task.state if task is not None else "queued"
            states[state] = states.get(state, 0) + 1
        return {
            "campaign": campaign.id,
            "name": campaign.name,
            "priority": campaign.priority,
            "complete": campaign.complete,
            **campaign.progress(),
            "states": states,
        }

    async def _op_status(self, request, writer) -> None:
        cid = request.get("campaign")
        if cid is not None:
            campaign = self.campaigns.get(cid)
            if campaign is None:
                await self._send(
                    writer, {"ok": False, "error": f"unknown campaign {cid!r}"}
                )
                return
            await self._send(
                writer,
                {
                    "ok": True,
                    **self._campaign_status(campaign),
                    "counters": self.metrics.to_dict(),
                },
            )
            return
        await self._send(
            writer,
            {
                "ok": True,
                "campaigns": [
                    self._campaign_status(c)
                    for c in sorted(
                        self.campaigns.values(), key=lambda c: c.submitted_at
                    )
                ],
                "counters": self.metrics.to_dict(),
            },
        )

    async def _op_fetch(self, request, writer) -> None:
        cid = request.get("campaign")
        campaign = self.campaigns.get(cid)
        if campaign is None:
            await self._send(
                writer, {"ok": False, "error": f"unknown campaign {cid!r}"}
            )
            return
        if not campaign.complete:
            await self._send(
                writer,
                {
                    "ok": False,
                    "error": "campaign incomplete",
                    **self._campaign_status(campaign),
                },
            )
            return
        results = []
        missing = []
        for fp, label in campaign.points:
            result = self.cache.get_by_key(fp)
            if result is None:
                missing.append({"fingerprint": fp, "label": label})
            else:
                results.append(result.to_dict())
        if missing:
            # cached results were pruned after completion: demote the
            # campaign and re-enqueue so a follow-up fetch succeeds
            labels = dict(campaign.points)
            for entry in missing:
                fp = entry["fingerprint"]
                campaign.done.discard(fp)
                point = point_from_descriptor(campaign.descriptors[fp])
                self._enqueue_point(fp, point, labels[fp], campaign)
            self._journal_campaign(campaign)
            await self._send(
                writer,
                {
                    "ok": False,
                    "error": "results pruned; re-executing",
                    "missing": missing,
                },
            )
            return
        from repro.bench.smoke import results_digest

        await self._send(
            writer,
            {
                "ok": True,
                "campaign": cid,
                "points": len(results),
                "results": results,
                "digest": results_digest(results),
            },
        )

    async def _op_watch(self, request, writer) -> None:
        cid = request.get("campaign")
        campaign = self.campaigns.get(cid)
        if campaign is None:
            await self._send(
                writer, {"ok": False, "error": f"unknown campaign {cid!r}"}
            )
            return
        queue: asyncio.Queue = asyncio.Queue()
        campaign.watchers.append(queue)
        try:
            await self._send(
                writer, {"ok": True, "event": "snapshot", **self._campaign_status(campaign)}
            )
            if campaign.complete:
                await self._send(
                    writer,
                    {
                        "event": "campaign",
                        "campaign": cid,
                        "state": "complete",
                        **campaign.progress(),
                        "counters": self.metrics.to_dict(),
                    },
                )
                return
            while True:
                event = await queue.get()
                await self._send(writer, event)
                if event.get("event") == "campaign" and event.get("state") in (
                    "complete",
                ):
                    return
        finally:
            try:
                campaign.watchers.remove(queue)
            except ValueError:
                pass

    async def _op_shutdown(self, request, writer) -> None:
        await self._send(writer, {"ok": True, "stopping": True})
        asyncio.get_running_loop().create_task(self.stop())
