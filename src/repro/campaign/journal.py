"""Durable campaign state, journaled through :mod:`repro.atomicio`.

The server's source of truth splits in two: *results* live in the
content-addressed :class:`~repro.experiments.cache.ResultCache`
(fingerprint-keyed, shared with every other tool), while *campaign
membership* — which ordered fingerprints a campaign id maps to, its
name, priority and point descriptors — lives here, one JSON record per
campaign, published atomically so a crash mid-write can never tear a
record.  A restarted server replays the journal: campaigns whose points
are all cached re-serve without execution, anything unfinished is
re-enqueued.

Point descriptors are stored in full (the same normalized configuration
content the fingerprint hashes) so recovery can *re-execute* lost
points, not merely re-serve cached ones.
"""

from __future__ import annotations

import enum
import json
import time
from pathlib import Path
from typing import Dict, List, Optional, Union

from repro.atomicio import atomic_write_text, sweep_orphans

JOURNAL_FORMAT_VERSION = 1


def _json_default(obj: object) -> object:
    """Point descriptors carry config enums (e.g. ``PriorityMode``);
    journal them by value, the same flattening the cache applies."""
    if isinstance(obj, enum.Enum):
        return obj.value
    raise TypeError(f"cannot journal {type(obj).__name__}: {obj!r}")


def default_journal_dir() -> str:
    """``$REPRO_CAMPAIGN_DIR`` if set, else ``.repro_campaigns``."""
    import os

    return os.environ.get("REPRO_CAMPAIGN_DIR", ".repro_campaigns")


#: endpoint file name under the journal root
ENDPOINT_FILE = "server.json"


def read_endpoint(root: Union[str, Path]) -> Optional[Dict[str, object]]:
    """The endpoint published under journal ``root``, or ``None``.

    A pure read: unlike opening a :class:`CampaignJournal` it never
    sweeps temp files, so a client polling while the server publishes
    cannot delete the server's in-flight ``server.json`` write.
    """
    try:
        return json.loads((Path(root) / ENDPOINT_FILE).read_text())
    except (OSError, ValueError):
        return None


class CampaignJournal:
    """One-record-per-campaign durable store plus the endpoint file."""

    def __init__(self, root: Union[str, Path]) -> None:
        self.root = Path(root)
        self.campaign_dir = self.root / "campaigns"
        self.campaign_dir.mkdir(parents=True, exist_ok=True)
        # writers that died mid-publish leave *.tmp orphans; opening the
        # journal is the no-writer moment to sweep them
        self.swept_orphans = sweep_orphans(self.root)

    def _path(self, campaign_id: str) -> Path:
        return self.campaign_dir / f"{campaign_id}.json"

    def save(self, record: Dict[str, object]) -> None:
        """Atomically publish one campaign record (keyed by its id)."""
        record = dict(record)
        record["format"] = JOURNAL_FORMAT_VERSION
        record.setdefault("updated_at", time.time())
        atomic_write_text(
            self._path(str(record["id"])),
            json.dumps(record, sort_keys=True, default=_json_default),
        )

    def load(self, campaign_id: str) -> Optional[Dict[str, object]]:
        """One campaign record, or ``None`` (missing/corrupt reads as absent)."""
        try:
            record = json.loads(self._path(campaign_id).read_text())
        except FileNotFoundError:
            return None
        except (OSError, ValueError):
            return None
        if record.get("format") != JOURNAL_FORMAT_VERSION:
            return None
        return record

    def load_all(self) -> List[Dict[str, object]]:
        """Every readable campaign record, oldest submission first."""
        records = []
        for path in self.campaign_dir.glob("*.json"):
            record = self.load(path.stem)
            if record is not None:
                records.append(record)
        records.sort(key=lambda r: (r.get("submitted_at", 0.0), r.get("id", "")))
        return records

    # -- endpoint discovery --------------------------------------------------
    #
    # ``serve`` binds an ephemeral port by default; clients discover it
    # through this file rather than configuration.  The pid lets a client
    # distinguish "server gone" (stale file) from "server busy".

    @property
    def endpoint_path(self) -> Path:
        return self.root / ENDPOINT_FILE

    def publish_endpoint(self, host: str, port: int) -> None:
        import os

        atomic_write_text(
            self.endpoint_path,
            json.dumps(
                {
                    "host": host,
                    "port": port,
                    "pid": os.getpid(),
                    "started_at": time.time(),
                }
            ),
        )

    def read_endpoint(self) -> Optional[Dict[str, object]]:
        return read_endpoint(self.root)

    def clear_endpoint(self) -> None:
        try:
            self.endpoint_path.unlink()
        except OSError:
            pass
