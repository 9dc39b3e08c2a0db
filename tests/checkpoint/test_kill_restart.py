"""Kill/restart gate: SIGKILL a live ``repro watch``, resume, compare bytes.

The end-to-end §12 proof, with a real process and a real SIGKILL (no
cooperative shutdown, no atexit hooks): a throttled watch sealing
snapshots is killed mid-stream, then ``repro watch --resume`` restores
from the latest snapshot and replays the suffix — and the continued
``journal.dat`` must equal an uninterrupted run's, byte for byte.  Runs
sequentially and with ``--workers 2 --ingest-workers 2`` (the killed
process group then includes live pool workers).
"""

import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.datasets.fimi import write_fimi

from checkpoint_helpers import make_transactions

DEADLINE_S = 90.0


def repro_env():
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[2] / "src")
    env["PYTHONPATH"] = src + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return env


def watch_args(source, journal, extra=()):
    return [
        sys.executable, "-m", "repro", "watch", str(source),
        "--batch-size", "10", "--window", "3", "--minsup", "3",
        "--journal", str(journal), *extra,
    ]


@pytest.mark.parametrize(
    "parallel",
    [(), ("--workers", "2", "--ingest-workers", "2")],
    ids=["sequential", "parallel"],
)
def test_sigkill_then_resume_is_byte_identical(tmp_path, parallel):
    source = tmp_path / "stream.fimi"
    write_fimi(source, make_transactions(count=300, seed=23))
    env = repro_env()

    # The uninterrupted reference run (no throttle, no checkpoints).
    subprocess.run(
        watch_args(source, tmp_path / "ref"),
        env=env, check=True, capture_output=True, timeout=DEADLINE_S,
    )
    reference = (tmp_path / "ref" / "journal.dat").read_bytes()
    assert reference

    # The victim: throttled so the kill lands mid-stream, sealing a
    # snapshot every 2 slides.  Its own session/process group, so the
    # SIGKILL also takes out any pool workers it spawned.
    checkpoint_dir = tmp_path / "chk"
    victim = subprocess.Popen(
        watch_args(
            source, tmp_path / "live",
            extra=(
                "--checkpoint-dir", str(checkpoint_dir),
                "--checkpoint-every", "2", "--throttle-ms", "150", *parallel,
            ),
        ),
        env=env, start_new_session=True,
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    try:
        deadline = time.monotonic() + DEADLINE_S
        while time.monotonic() < deadline:
            if any(checkpoint_dir.glob("chk-*")):
                break
            if victim.poll() is not None:
                pytest.fail(
                    f"watch exited (rc={victim.returncode}) before sealing "
                    "a snapshot — cannot kill it mid-stream"
                )
            time.sleep(0.05)
        else:
            pytest.fail("no snapshot sealed before the deadline")
        os.killpg(victim.pid, signal.SIGKILL)
        assert victim.wait(timeout=DEADLINE_S) == -signal.SIGKILL
    finally:
        if victim.poll() is None:  # pragma: no cover - cleanup on failure
            os.killpg(victim.pid, signal.SIGKILL)
            victim.wait()

    # The journal must be strictly mid-stream: the kill was real.
    crashed = (tmp_path / "live" / "journal.dat").read_bytes()
    assert len(crashed) < len(reference)

    # Resume: restore the snapshot, replay the suffix, converge exactly.
    completed = subprocess.run(
        watch_args(
            source, tmp_path / "live",
            extra=(
                "--checkpoint-dir", str(checkpoint_dir),
                "--checkpoint-every", "2", "--resume", *parallel,
            ),
        ),
        env=env, capture_output=True, text=True, timeout=DEADLINE_S,
    )
    assert completed.returncode == 0, completed.stderr
    assert "resumed from slide" in completed.stdout
    assert (tmp_path / "live" / "journal.dat").read_bytes() == reference
