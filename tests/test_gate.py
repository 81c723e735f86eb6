"""The digest gate's cell list, key rule and exit codes."""

import json
import shutil
import tempfile
from pathlib import Path

import pytest

from repro import gate
from repro.config import SystemConfig
from repro.gate import MODES, PERTURBATIONS, Cell, expect_digest, main, select_cells
from repro.network.topologies import topology_names

DIGEST_FILE = Path(__file__).resolve().parents[1] / "SMOKE_digest.json"
COMMITTED = json.loads(DIGEST_FILE.read_text())
DIGEST = "ab" * 32


class TestCells:
    def test_every_committed_key_is_gated_and_every_cell_is_committed(self):
        cells = select_cells()
        assert {cell.key for cell in cells} == set(COMMITTED)
        assert len(cells) == len(COMMITTED) * len(MODES) * len(PERTURBATIONS)

    def test_every_registered_topology_has_both_table3_keys(self):
        for topology in topology_names():
            for grid in ("quick", "full"):
                assert Cell(grid, topology, "single", "none").key in COMMITTED

    def test_key_rule(self):
        def key(grid, topology):
            return Cell(grid, topology, "par", "kill_resume").key

        assert key("quick", "mesh") == "quick"
        assert key("full", "star") == "star:full"
        assert key("collective:quick", "mesh") == "collective:quick"
        assert key("collective:quick", "star") == "collective:star:quick"

    def test_one_filter_keeps_to_gated_pairs(self):
        cells = select_cells(topologies=["ring"], modes=["par"], perturbations=["none"])
        assert [cell.key for cell in cells] == ["ring:quick", "ring:full"]
        cells = select_cells(grids=["collective:quick"], modes=["seq"])
        assert {cell.topology for cell in cells} == {"mesh", "star"}
        assert len(cells) == 2 * len(PERTURBATIONS)

    def test_naming_grid_and_topology_selects_that_pair(self):
        [cell] = select_cells(["collective:quick"], ["ring"], ["single"], ["none"])
        assert cell.key == "collective:ring:quick"


class TestExpectDigest:
    @pytest.fixture
    def digest_file(self, tmp_path):
        path = tmp_path / "digests.json"
        path.write_text(json.dumps({"quick": DIGEST}))
        return path

    def test_match_exits_0(self, digest_file, capsys):
        assert expect_digest(digest_file, "quick", DIGEST) == 0
        assert "digest matches" in capsys.readouterr().out

    def test_mismatch_exits_1(self, digest_file, capsys):
        assert expect_digest(digest_file, "quick", "cd" * 32) == 1
        assert "DIGEST MISMATCH" in capsys.readouterr().err

    def test_missing_key_exits_2(self, digest_file, capsys):
        assert expect_digest(digest_file, "ring:quick", DIGEST) == 2
        assert "no key 'ring:quick'" in capsys.readouterr().err

    def test_missing_file_exits_2(self, tmp_path, capsys):
        assert expect_digest(tmp_path / "absent.json", "quick", DIGEST) == 2
        assert "no digest file" in capsys.readouterr().err


def _one_line_err(capsys) -> str:
    err = capsys.readouterr().err.strip()
    assert len(err.splitlines()) == 1, err
    return err


class TestLoudFailures:
    def test_shards_not_dividing_the_clusters_exit_2(self, capsys):
        argv = ["--grid", "quick", "--topology", "mesh", "--mode", "seq", "--shards", "3"]
        assert main(argv) == 2
        assert "cannot run as 3 shards" in _one_line_err(capsys)

    def test_hardware_coherence_exits_2(self, monkeypatch, capsys):
        hardware = SystemConfig.default().with_overrides(coherence="hardware")
        monkeypatch.setattr(gate, "topology_smoke_config", lambda topology: hardware)
        assert main(["--topology", "mesh", "--mode", "par"]) == 2
        assert "hardware coherence" in _one_line_err(capsys)

    def test_unknown_topology_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--topology", "nope"])
        assert exc.value.code == 2
        assert "invalid choice: 'nope'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "committed,code",
        [({"quick": DIGEST}, 1), ({}, 2)],
        ids=["mismatch", "missing-key"],
    )
    def test_verdict_is_the_exit_code(self, tmp_path, committed, code, capsys):
        path = tmp_path / "digests.json"
        path.write_text(json.dumps(committed))
        argv = ["--grid", "quick", "--topology", "mesh", "--mode", "single",
                "--perturbation", "none", "--expect-file", str(path)]
        assert main(argv) == code
        assert f"FAILED (exit {code})" in capsys.readouterr().out


class TestSnapshotDir:
    """Without ``--snapshot-dir`` the gate's snapshots live in a temp dir
    that a passing run removes and a failing run keeps."""

    ARGV = ["--grid", "quick", "--topology", "mesh", "--mode", "single",
            "--perturbation", "kill_resume"]

    @pytest.fixture
    def seen(self, monkeypatch):
        """Fake kill/resume cells: leave a snapshot, yield no children."""
        dirs = []

        def fake_cell_runs(cell, n_shards, snapshot_dir):
            dirs.append(snapshot_dir)
            if cell.perturbation == "kill_resume":
                (snapshot_dir / "point.ckpt").write_bytes(b"snapshot")
            yield "", [{"cycles": 1}]

        monkeypatch.setattr(gate, "cell_runs", fake_cell_runs)
        return dirs

    def _digest_file(self, tmp_path, digest):
        path = tmp_path / "digests.json"
        path.write_text(json.dumps({"quick": digest}))
        return str(path)

    def test_passing_run_removes_its_temp_dir(self, tmp_path, seen, capsys):
        digest = gate.results_digest([{"cycles": 1}])
        argv = self.ARGV + ["--expect-file", self._digest_file(tmp_path, digest)]
        assert main(argv) == 0
        [snapshot_dir] = seen
        assert snapshot_dir.parent == Path(tempfile.gettempdir())
        assert not snapshot_dir.exists()

    def test_failing_run_keeps_and_names_it(self, tmp_path, seen, capsys):
        argv = self.ARGV + ["--expect-file", self._digest_file(tmp_path, DIGEST)]
        assert main(argv) == 1
        [snapshot_dir] = seen
        assert (snapshot_dir / "point.ckpt").exists()
        assert f"snapshots kept in {snapshot_dir}" in capsys.readouterr().out
        shutil.rmtree(snapshot_dir)

    def test_explicit_dir_is_kept(self, tmp_path, seen, capsys):
        digest = gate.results_digest([{"cycles": 1}])
        argv = self.ARGV + [
            "--expect-file", self._digest_file(tmp_path, digest),
            "--snapshot-dir", str(tmp_path / "snapshots"),
        ]
        (tmp_path / "snapshots").mkdir()
        assert main(argv) == 0
        assert seen == [tmp_path / "snapshots"]
        assert (tmp_path / "snapshots" / "point.ckpt").exists()

    def test_no_kill_resume_cell_makes_no_dir(self, tmp_path, seen, capsys):
        argv = self.ARGV[:-1] + ["none", "--expect-file",
                                 self._digest_file(tmp_path, DIGEST)]
        assert main(argv) == 1
        assert seen == [None]
        assert "snapshots kept" not in capsys.readouterr().out
