"""Tests for the command-line interface."""

import json

import pytest

from repro import cli
from repro.cli import main

SIZECOUNT = """
Odd(n) {
  if (n == nil) { return 0 }
  else { ls = Even(n.l); rs = Even(n.r); return ls + rs + 1 }
}
Even(n) {
  if (n == nil) { return 0 }
  else { ls = Odd(n.l); rs = Odd(n.r); return ls + rs }
}
Main(n) {
  { o = Odd(n) || e = Even(n) };
  return o, e
}
"""

RACY = """
A(n) {
  if (n == nil) { return 0 }
  else { n.v = 1; return 0 }
}
Main(n) {
  { a = A(n) || b = A(n) };
  return 0
}
"""


@pytest.fixture
def sizecount_file(tmp_path):
    f = tmp_path / "sizecount.retreet"
    f.write_text(SIZECOUNT)
    return str(f)


@pytest.fixture
def racy_file(tmp_path):
    f = tmp_path / "racy.retreet"
    f.write_text(RACY)
    return str(f)


class TestRun:
    def test_run_full_tree(self, sizecount_file, capsys):
        assert main(["run", sizecount_file, "--tree", "full:3"]) == 0
        out = capsys.readouterr().out
        assert "returns: (5, 2)" in out

    def test_run_random_tree(self, sizecount_file, capsys):
        assert main(["run", sizecount_file, "--tree", "random:6:3"]) == 0
        assert "returns:" in capsys.readouterr().out


class TestBlocks:
    def test_blocks_table(self, sizecount_file, capsys):
        assert main(["blocks", sizecount_file]) == 0
        out = capsys.readouterr().out
        assert "s10" in out and "c1" in out


class TestCheckRace:
    def test_race_free_exit_zero(self, sizecount_file, capsys):
        rc = main(["check-race", sizecount_file, "--engine", "bounded"])
        assert rc == 0
        assert "race-free" in capsys.readouterr().out

    def test_race_exit_one(self, racy_file, capsys):
        rc = main(["check-race", racy_file, "--engine", "bounded"])
        assert rc == 1
        out = capsys.readouterr().out
        assert "race" in out


class TestCheckFusion:
    def test_identity_fusion(self, sizecount_file, tmp_path, capsys):
        other = tmp_path / "same.retreet"
        other.write_text(SIZECOUNT)
        rc = main(
            ["check-fusion", sizecount_file, str(other), "--engine", "bounded"]
        )
        assert rc == 0
        assert "equivalent" in capsys.readouterr().out


class TestResourceFlags:
    def test_unknown_verdict_exits_three(self, sizecount_file, capsys):
        rc = main(
            ["check-race", sizecount_file, "--engine", "mso",
             "--deadline", "0.05"]
        )
        assert rc == 3
        captured = capsys.readouterr()
        assert "unknown" in captured.out
        assert "resource limits" in captured.err
        assert "attempt mso: deadline" in captured.err

    def test_flags_forwarded(self, sizecount_file, capsys):
        rc = main(
            ["check-race", sizecount_file, "--engine", "bounded",
             "--max-internal", "2", "--det-budget", "1000"]
        )
        assert rc == 0
        assert "race-free" in capsys.readouterr().out

    def test_fusion_accepts_flags(self, sizecount_file, tmp_path, capsys):
        other = tmp_path / "same.retreet"
        other.write_text(SIZECOUNT)
        rc = main(
            ["check-fusion", sizecount_file, str(other),
             "--engine", "bounded", "--max-internal", "2"]
        )
        assert rc == 0
        assert "equivalent" in capsys.readouterr().out


class TestUniformExitCodes:
    def test_missing_file_exits_two(self, capsys):
        rc = main(["check-race", "/nonexistent/prog.retreet",
                   "--engine", "bounded"])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_parse_error_exits_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.retreet"
        bad.write_text("Main(n) { this is not a program")
        rc = main(["check-race", str(bad), "--engine", "bounded"])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_broken_manifest_exits_two(self, tmp_path, capsys):
        bad = tmp_path / "m.json"
        bad.write_text("{")
        rc = main(["batch", str(bad)])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_interrupt_exits_130(self, monkeypatch, capsys):
        def boom(_argv=None):
            raise KeyboardInterrupt

        monkeypatch.setattr(cli, "_dispatch", boom)
        rc = main(["check-race", "whatever"])
        assert rc == 130
        assert "interrupted (finished tasks kept for --resume)" in (
            capsys.readouterr().err
        )


class TestIsolationFlag:
    def test_check_race_process_isolation(self, racy_file, capsys):
        rc = main(["check-race", racy_file, "--engine", "bounded",
                   "--isolation", "process", "--wall-s", "60"])
        assert rc == 1
        assert "race" in capsys.readouterr().out


class TestBatch:
    def test_batch_run_and_resume(self, racy_file, tmp_path, capsys):
        manifest = tmp_path / "m.json"
        manifest.write_text(json.dumps({
            "defaults": {"options": {"engine": "bounded", "max_internal": 2},
                         "limits": {"wall_s": 60.0}},
            "tasks": [{"name": "racy", "kind": "check-race",
                       "file": "racy.retreet"}],
        }))
        (tmp_path / "racy.retreet").write_text(RACY)
        run_dir = tmp_path / "run"
        rc = main(["batch", str(manifest), "--run-dir", str(run_dir),
                   "--quiet"])
        assert rc == 1
        out = capsys.readouterr().out
        assert "racy: race" in out and "results:" in out
        assert (run_dir / "results.json").exists()

        rc2 = main(["batch", str(manifest), "--resume", str(run_dir),
                    "--quiet"])
        assert rc2 == 1
        assert "1 resumed" in capsys.readouterr().out

    @pytest.mark.parametrize("cmd", ["serve", "batch"])
    def test_jobs_zero_is_a_usage_error(self, racy_file, tmp_path, capsys,
                                        cmd):
        # Rejected while parsing flags: the run directory is never made.
        run_dir = tmp_path / "run"
        manifest = tmp_path / "m.json"
        manifest.write_text(json.dumps({"tasks": [
            {"name": "racy", "kind": "check-race", "file": racy_file},
        ]}))
        argv = (["serve", str(run_dir)] if cmd == "serve" else
                ["batch", str(manifest), "--run-dir", str(run_dir)])
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--jobs", "0"])
        assert exc.value.code == 2
        assert "--jobs" in capsys.readouterr().err
        assert not run_dir.exists()
