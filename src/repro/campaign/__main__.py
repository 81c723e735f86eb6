"""Campaign service CLI.

Usage::

    # serve: run the long-lived front end (Ctrl-C to stop)
    python -m repro.campaign serve --jobs 4
    python -m repro.campaign serve --journal-dir /srv/campaigns \\
        --cache-dir /srv/cache --port 7791

    # submit a campaign file; --wait blocks and prints the final summary,
    # --watch streams per-point progress events as they happen
    python -m repro.campaign submit examples/campaigns/smoke_quick.json --wait
    python -m repro.campaign submit nightly.yaml --watch

    # inspect and retrieve
    python -m repro.campaign status
    python -m repro.campaign status CAMPAIGN_ID
    python -m repro.campaign fetch CAMPAIGN_ID --out results/campaign.json

    # digest gate (CI): fail unless the fetched digest matches a key in
    # a committed digest file
    python -m repro.campaign submit smoke.json --wait \\
        --expect-digest-file SMOKE_digest.json --expect-digest-key quick

Clients discover the server through ``<journal-dir>/server.json``
(written atomically on bind); ``--endpoint host:port`` overrides.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys
from pathlib import Path

from repro.campaign.client import (
    CampaignClientError,
    discover_endpoint,
    parse_endpoint,
    request,
    watch,
)
from repro.campaign.journal import default_journal_dir
from repro.campaign.spec import CampaignSpecError, load_campaign
from repro.experiments.cache import default_cache_dir


def _endpoint(args) -> tuple:
    if args.endpoint:
        return parse_endpoint(args.endpoint)
    return discover_endpoint(args.journal_dir)


def _cmd_serve(args) -> int:
    from repro.campaign.server import CampaignServer

    server = CampaignServer(
        cache_dir=args.cache_dir or default_cache_dir(),
        journal_dir=args.journal_dir,
        jobs=args.jobs,
        host=args.host,
        port=args.port,
    )

    async def _serve() -> None:
        await server.start()
        print(
            f"campaign server on {server.host}:{server.port} "
            f"(journal {server.journal.root}, cache {server.cache.root}, "
            f"{server.jobs} worker{'s' if server.jobs != 1 else ''})",
            flush=True,
        )
        try:
            await server.serve_forever()
        except asyncio.CancelledError:
            pass

    try:
        asyncio.run(_serve())
    except KeyboardInterrupt:
        print("campaign server stopped", file=sys.stderr)
    return 0


def _print_event(event: dict) -> None:
    print(json.dumps(event), flush=True)


def _cmd_submit(args) -> int:
    try:
        spec = load_campaign(args.file)
    except CampaignSpecError as exc:
        print(f"bad campaign file: {exc}", file=sys.stderr)
        return 2
    endpoint = _endpoint(args)
    payload = {
        "op": "submit",
        "campaign": _campaign_data(args.file),
        "default_name": Path(args.file).stem,
    }
    response = request(endpoint, payload)
    if not response.get("ok"):
        print(f"submit failed: {response.get('error')}", file=sys.stderr)
        return 1
    cid = response["campaign"]
    print(json.dumps(response), flush=True)
    if not (args.wait or args.watch or args.expect_digest_file):
        return 0

    if args.watch:
        for event in watch(endpoint, cid):
            _print_event(event)
            if event.get("ok") is False:
                return 1
    else:
        from repro.campaign.client import wait_complete

        wait_complete(endpoint, cid, timeout=args.timeout)

    fetched = request(endpoint, {"op": "fetch", "campaign": cid})
    if not fetched.get("ok"):
        print(f"fetch failed: {fetched.get('error')}", file=sys.stderr)
        return 1
    status = request(endpoint, {"op": "status", "campaign": cid})
    summary = {
        "campaign": cid,
        "name": spec.name,
        "points": fetched["points"],
        "digest": fetched["digest"],
        "counters": status.get("counters", {}),
    }
    print(json.dumps(summary), flush=True)

    if args.expect_digest_file:
        from repro.gate import expect_digest

        return expect_digest(
            args.expect_digest_file, args.expect_digest_key, fetched["digest"]
        )
    return 0


def _campaign_data(path: str) -> dict:
    """The raw campaign mapping (parsed client-side for YAML support)."""
    source = Path(path)
    if source.suffix.lower() in (".yaml", ".yml"):
        import yaml

        return yaml.safe_load(source.read_text())
    return json.loads(source.read_text())


def _cmd_status(args) -> int:
    payload = {"op": "status"}
    if args.campaign:
        payload["campaign"] = args.campaign
    response = request(_endpoint(args), payload)
    print(json.dumps(response, indent=2))
    return 0 if response.get("ok") else 1


def _cmd_fetch(args) -> int:
    response = request(
        _endpoint(args), {"op": "fetch", "campaign": args.campaign}
    )
    if not response.get("ok"):
        print(f"fetch failed: {response.get('error')}", file=sys.stderr)
        return 1
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(json.dumps(response, indent=2))
        print(
            f"{response['points']} results -> {args.out} "
            f"(digest {response['digest']})"
        )
    else:
        print(json.dumps(response, indent=2))
    return 0


def _cmd_shutdown(args) -> int:
    response = request(_endpoint(args), {"op": "shutdown"})
    print(json.dumps(response))
    return 0 if response.get("ok") else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.campaign",
        description="Long-lived experiment-serving front end over the "
        "runner and result cache.",
    )
    parser.add_argument(
        "--journal-dir",
        default=default_journal_dir(),
        metavar="DIR",
        help="campaign journal + endpoint discovery directory "
        "(default: $REPRO_CAMPAIGN_DIR or .repro_campaigns)",
    )
    parser.add_argument(
        "--endpoint",
        default=None,
        metavar="HOST:PORT",
        help="explicit server endpoint (default: discovered from the "
        "journal dir's server.json)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    serve = sub.add_parser("serve", help="run the campaign server")
    serve.add_argument(
        "--cache-dir",
        default=None,
        metavar="DIR",
        help="result cache directory (default: $REPRO_CACHE_DIR or "
        ".repro_cache; shared with run_many clients)",
    )
    serve.add_argument(
        "--jobs", type=int, default=1, metavar="N", help="worker processes"
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port", type=int, default=0, help="TCP port (default: ephemeral)"
    )
    serve.set_defaults(func=_cmd_serve)

    submit = sub.add_parser("submit", help="submit a campaign file")
    submit.add_argument("file", help="campaign JSON/YAML file")
    submit.add_argument(
        "--wait", action="store_true", help="block until complete, then fetch"
    )
    submit.add_argument(
        "--watch",
        action="store_true",
        help="stream progress events (NDJSON) until complete, then fetch",
    )
    submit.add_argument(
        "--timeout", type=float, default=3600.0, help="--wait timeout seconds"
    )
    submit.add_argument(
        "--expect-digest-file",
        default=None,
        metavar="FILE",
        help="after completion, compare the served digest against this "
        "committed digest file (implies --wait)",
    )
    submit.add_argument(
        "--expect-digest-key",
        default="quick",
        metavar="KEY",
        help="key inside --expect-digest-file (default: quick)",
    )
    submit.set_defaults(func=_cmd_submit)

    status = sub.add_parser("status", help="server or campaign status")
    status.add_argument("campaign", nargs="?", default=None)
    status.set_defaults(func=_cmd_status)

    fetch = sub.add_parser("fetch", help="fetch a completed campaign's results")
    fetch.add_argument("campaign")
    fetch.add_argument(
        "--out", default=None, metavar="FILE", help="write results JSON here"
    )
    fetch.set_defaults(func=_cmd_fetch)

    shutdown = sub.add_parser("shutdown", help="stop the server gracefully")
    shutdown.set_defaults(func=_cmd_shutdown)

    args = parser.parse_args(argv)
    if getattr(args, "jobs", 1) < 1:
        parser.error("--jobs must be >= 1")
    try:
        return args.func(args)
    except CampaignClientError as exc:
        print(str(exc), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
