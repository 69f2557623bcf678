"""CLI entry points (fast subcommands only)."""

import os
import subprocess
import sys

import pytest

from repro.cli import main
from repro.obs.live import read_status


def test_hwcost_runs(capsys):
    assert main(["hwcost"]) == 0
    out = capsys.readouterr().out
    assert "multipliers" in out
    assert "54" in out


def test_requires_subcommand():
    with pytest.raises(SystemExit):
        main([])


def test_unknown_subcommand():
    with pytest.raises(SystemExit):
        main(["nonsense"])


def test_quick_runs(capsys):
    assert main(["quick"]) == 0
    out = capsys.readouterr().out
    assert "TECfan" in out
    assert "threshold" in out


def _digest(out: str) -> str:
    return next(
        line.split()[1] for line in out.splitlines()
        if line.startswith("digest:")
    )


def test_run_resume_with_status_file_matches_uninterrupted(tmp_path, capsys):
    run = ["run", "--workload", "lu", "--threads", "4", "--max-time-s", "0.02"]
    assert main(run) == 0
    plain = _digest(capsys.readouterr().out)
    ck = tmp_path / "ck.pkl"
    assert main(run + [
        "--checkpoint", str(ck), "--checkpoint-every-s", "0.007",
    ]) == 0
    assert _digest(capsys.readouterr().out) == plain
    status = tmp_path / "s.json"
    assert main([
        "run", "--resume", str(ck), "--status-file", str(status),
        "--status-every-s", "0.001",
    ]) == 0
    assert _digest(capsys.readouterr().out) == plain
    snapshot = read_status(status)
    assert snapshot["kind"] == "engine-run"
    assert snapshot["done"] is True


def test_run_resume_rejects_non_checkpoint(tmp_path, capsys):
    junk = tmp_path / "junk.pkl"
    junk.write_text("not a checkpoint")
    assert main(["run", "--resume", str(junk)]) == 2
    assert "cannot resume" in capsys.readouterr().err


def test_profile_rejects_bad_fault_script(tmp_path, capsys):
    bad = tmp_path / "faults.json"
    bad.write_text("{not json")
    assert main(["profile", "--faults", str(bad)]) == 2
    assert "bad fault script" in capsys.readouterr().err


def test_run_with_fault_script_in_fresh_interpreter(tmp_path):
    """``--faults`` imports repro.faults before repro.core; a fresh
    interpreter (nothing imported yet) must get that order right."""
    script = tmp_path / "faults.json"
    script.write_text('[{"kind": "fan_stuck", "t_start_s": 0.004, "level": 6}]')
    src_dir = os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = src_dir + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [
            sys.executable, "-m", "repro.cli", "run", "--workload", "lu",
            "--threads", "4", "--max-time-s", "0.01", "--faults", str(script),
        ],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert "digest:" in proc.stdout
