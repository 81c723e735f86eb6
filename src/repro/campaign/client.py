"""Blocking client for the campaign server's NDJSON protocol.

One request per connection: the client opens a localhost TCP socket,
writes a single JSON request line, and reads either one response line
(``submit``/``status``/``fetch``) or a stream of event lines until the
campaign completes (``watch``).  Used by the ``python -m repro.campaign``
CLI and by tests; servers are discovered through the journal directory's
endpoint file when no explicit ``host:port`` is given.
"""

from __future__ import annotations

import json
import socket
import time
from typing import Dict, Iterator, Optional, Tuple

from repro.campaign.journal import default_journal_dir, read_endpoint


class CampaignClientError(RuntimeError):
    """Connection failures and server-side error responses."""


def discover_endpoint(journal_dir: Optional[str] = None) -> Tuple[str, int]:
    """The serving endpoint published in ``<journal_dir>/server.json``."""
    root = journal_dir or default_journal_dir()
    endpoint = read_endpoint(root)
    if endpoint is None:
        raise CampaignClientError(
            f"no campaign server endpoint under {root} "
            "(is `python -m repro.campaign serve` running?)"
        )
    return str(endpoint["host"]), int(endpoint["port"])


def parse_endpoint(value: str) -> Tuple[str, int]:
    """``host:port`` -> tuple, with a loud error on malformed input."""
    host, sep, port = value.rpartition(":")
    if not sep or not host:
        raise CampaignClientError(f"endpoint must be host:port, got {value!r}")
    try:
        return host, int(port)
    except ValueError as exc:
        raise CampaignClientError(f"bad endpoint port in {value!r}") from exc


def _connect(endpoint: Tuple[str, int], timeout: float) -> socket.socket:
    try:
        return socket.create_connection(endpoint, timeout=timeout)
    except OSError as exc:
        raise CampaignClientError(
            f"cannot reach campaign server at {endpoint[0]}:{endpoint[1]}: {exc}"
        ) from exc


def request(
    endpoint: Tuple[str, int], payload: Dict[str, object], timeout: float = 600.0
) -> Dict[str, object]:
    """One request/response round trip; raises on transport errors.

    Server-side failures come back as ``{"ok": false, "error": ...}`` —
    returned, not raised, so callers can inspect structured context
    (e.g. an incomplete campaign's progress block).
    """
    with _connect(endpoint, timeout) as sock:
        sock.sendall(json.dumps(payload).encode("utf-8") + b"\n")
        with sock.makefile("r", encoding="utf-8") as stream:
            line = stream.readline()
    if not line:
        raise CampaignClientError("server closed the connection without replying")
    return json.loads(line)


def watch(
    endpoint: Tuple[str, int], campaign_id: str, timeout: float = 3600.0
) -> Iterator[Dict[str, object]]:
    """Stream a campaign's events until it completes (or errors)."""
    with _connect(endpoint, timeout) as sock:
        sock.sendall(
            json.dumps({"op": "watch", "campaign": campaign_id}).encode("utf-8")
            + b"\n"
        )
        with sock.makefile("r", encoding="utf-8") as stream:
            for line in stream:
                event = json.loads(line)
                yield event
                if event.get("ok") is False:
                    return
                if (
                    event.get("event") == "campaign"
                    and event.get("state") == "complete"
                ):
                    return


def wait_complete(
    endpoint: Tuple[str, int],
    campaign_id: str,
    timeout: float = 3600.0,
    poll: float = 0.2,
) -> Dict[str, object]:
    """Block until the campaign reports complete; returns final status."""
    deadline = time.monotonic() + timeout
    while True:
        status = request(
            endpoint, {"op": "status", "campaign": campaign_id}, timeout=30.0
        )
        if not status.get("ok"):
            raise CampaignClientError(str(status.get("error")))
        if status.get("complete"):
            return status
        if time.monotonic() > deadline:
            raise CampaignClientError(
                f"campaign {campaign_id} incomplete after {timeout:.0f}s: "
                f"{status.get('states')}"
            )
        time.sleep(poll)
