"""Tests for the campaign CLI surface and the blocking client helpers.

Full serve/submit/fetch round trips run in the server test suite (and
the CI campaign-smoke job); here we cover the CLI's failure modes and
the client's endpoint plumbing, which need no live server.
"""

import asyncio
import json
import threading

import pytest

from repro.campaign.__main__ import main
from repro.campaign.client import (
    CampaignClientError,
    discover_endpoint,
    parse_endpoint,
    request,
)
from repro.campaign.journal import CampaignJournal
from repro.campaign.server import CampaignServer
from repro.stats.collectors import RunStats
from repro.stats.report import RunResult


class TestParseEndpoint:
    def test_host_port(self):
        assert parse_endpoint("127.0.0.1:7791") == ("127.0.0.1", 7791)

    @pytest.mark.parametrize("bad", ["", "localhost", ":80", "host:port"])
    def test_malformed_rejected(self, bad):
        with pytest.raises(CampaignClientError):
            parse_endpoint(bad)


class TestDiscovery:
    def test_no_endpoint_file_fails_loudly(self, tmp_path):
        with pytest.raises(CampaignClientError, match="no campaign server"):
            discover_endpoint(str(tmp_path))

    def test_published_endpoint_discovered(self, tmp_path):
        journal = CampaignJournal(tmp_path)
        journal.publish_endpoint("127.0.0.1", 4141)
        assert discover_endpoint(str(tmp_path)) == ("127.0.0.1", 4141)

    def test_discovery_leaves_in_flight_writes_alone(self, tmp_path):
        # a server mid-publish holds a temp file beside server.json; a
        # client polling for the endpoint must not sweep it away
        CampaignJournal(tmp_path).publish_endpoint("127.0.0.1", 4141)
        in_flight = tmp_path / "server.json.123.tmp"
        in_flight.write_text("{")
        record_tmp = tmp_path / "campaigns" / "abc.json.123.tmp"
        record_tmp.write_text("{")
        assert discover_endpoint(str(tmp_path)) == ("127.0.0.1", 4141)
        assert in_flight.exists()
        assert record_tmp.exists()

    def test_discovery_does_not_create_the_journal(self, tmp_path):
        root = tmp_path / "absent"
        with pytest.raises(CampaignClientError, match="no campaign server"):
            discover_endpoint(str(root))
        assert not root.exists()

    def test_unreachable_server_raises(self, tmp_path):
        # a published endpoint nobody is listening on: connection refused,
        # surfaced as a client error rather than a raw OSError
        with pytest.raises(CampaignClientError, match="cannot reach"):
            request(("127.0.0.1", 1), {"op": "ping"}, timeout=2.0)


class TestCliErrors:
    def test_bad_campaign_file_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"grid": {"workloads": []}}))
        code = main(["--journal-dir", str(tmp_path), "submit", str(bad)])
        assert code == 2
        assert "bad campaign file" in capsys.readouterr().err

    def test_no_server_exits_1(self, tmp_path, capsys):
        good = tmp_path / "ok.json"
        good.write_text(json.dumps({"grid": {"workloads": ["gups"]}}))
        code = main(["--journal-dir", str(tmp_path), "submit", str(good)])
        assert code == 1
        assert "no campaign server" in capsys.readouterr().err

    def test_status_without_server_exits_1(self, tmp_path):
        assert main(["--journal-dir", str(tmp_path), "status"]) == 1

    def test_explicit_endpoint_overrides_discovery(self, tmp_path, capsys):
        # port 1 is never listening: the explicit endpoint is used (and
        # fails to connect) even though no endpoint file exists either
        code = main(
            ["--journal-dir", str(tmp_path), "--endpoint", "127.0.0.1:1", "status"]
        )
        assert code == 1
        assert "cannot reach" in capsys.readouterr().err

    def test_jobs_validated(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["--journal-dir", str(tmp_path), "serve", "--jobs", "0"])


def _fake_execute(point):
    result = RunResult(
        workload=point.workload, config_label="test", cycles=1000, stats=RunStats()
    )
    return result, 0.001


@pytest.fixture
def live_journal(tmp_path):
    """A campaign server with a fake executor on a background event loop;
    yields its journal dir for endpoint discovery."""
    loop = asyncio.new_event_loop()
    thread = threading.Thread(target=loop.run_forever, daemon=True)
    thread.start()

    async def start():
        server = CampaignServer(
            cache_dir=str(tmp_path / "cache"),
            journal_dir=str(tmp_path / "journal"),
            execute_fn=_fake_execute,
        )
        await server.start()
        return server

    server = asyncio.run_coroutine_threadsafe(start(), loop).result(timeout=10)
    try:
        yield str(tmp_path / "journal")
    finally:
        asyncio.run_coroutine_threadsafe(server.stop(), loop).result(timeout=10)
        loop.call_soon_threadsafe(loop.stop)
        thread.join(timeout=10)
        assert not thread.is_alive()
        loop.close()


class TestDigestGate:
    def test_exit_code_is_the_digest_verdict(self, live_journal, tmp_path, capsys):
        campaign = tmp_path / "c.json"
        campaign.write_text(json.dumps({"grid": {"workloads": ["gups"]}}))
        digests = tmp_path / "digests.json"
        digests.write_text(json.dumps({"other": "0" * 64}))

        def submit(key):
            return main(
                ["--journal-dir", live_journal, "submit", str(campaign),
                 "--expect-digest-file", str(digests), "--expect-digest-key", key]
            )

        assert submit("quick") == 2
        out = capsys.readouterr()
        assert "no key 'quick'" in out.err
        served = json.loads(out.out.strip().splitlines()[-1])["digest"]
        assert submit("other") == 1
        digests.write_text(json.dumps({"quick": served}))
        assert submit("quick") == 0
