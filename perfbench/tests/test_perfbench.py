"""The benchmark's own tests: reduced-size runs and gates that can fail.

Run from the root of a checkout::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import pipeline, serving
from perfbench.metrics import END_TO_END, PER_LAYER

ROOT = Path(__file__).resolve().parents[2]
WORKLOADS = ("ingest-graph", "parallel-zipf", "serve-follow")


def _run(workload: str, trace: int, cwd: Path = ROOT):
    process = subprocess.run(
        [
            sys.executable, str(ROOT / "perfbench" / "run.py"),
            "--workload", workload, "--seed", "3", "--seconds", "1",
            "--trace", str(trace), "--scale", "0.1",
        ],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=300,
    )
    return process


def test_benchmark_json_declares_the_reported_metrics():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {m["name"]: m["unit"] for m in declared["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in declared["per_layer"]} == PER_LAYER
    assert [w["name"] for w in declared["workloads"]] == list(WORKLOADS)
    setup = next(m for m in declared["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in declared["end_to_end"])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_reduced_run_reports_every_metric(workload, trace):
    process = _run(workload, trace)
    assert process.returncode == 0, process.stderr
    *_, details_line, result_line = process.stdout.strip().splitlines()
    result = json.loads(result_line)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = PER_LAYER if trace else END_TO_END
    assert {name: m["unit"] for name, m in result["metrics"].items()} == declared
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())
    details = json.loads(details_line)
    assert details["workload"] == workload and details["error_ratio"] == 0
    if workload == "parallel-zipf":
        assert details["journal_digest"] == details["sequential_digest"]
    if trace and workload != "serve-follow":
        # Layer self times plus the residual account for the watch time.
        closure = result["metrics"]["trace.closure_error"]["value"]
        assert 0 <= closure <= pipeline.CLOSURE_TOLERANCE
        assert result["metrics"]["core.mine_s"]["value"] > 0
        assert result["metrics"]["history.seal_s"]["value"] > 0
    if trace and workload == "serve-follow":
        assert result["metrics"]["algebra.scan_eval_p50_ms"]["value"] > 0
        assert result["metrics"]["serve.drain_exit_code"]["value"] == 0


def _session_members(session: int) -> list:
    """Pids of the processes (zombies too) whose session id is ``session``."""
    members = []
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            fields = stat.read_text().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[3]) == session:
            members.append(int(stat.parent.name))
    return members


@pytest.mark.parametrize("workload", ["parallel-zipf", "serve-follow"])
def test_no_process_outlives_a_run(workload):
    # In a session of its own, everything the run starts (pool workers,
    # the shared-memory resource tracker, the server) carries its pid as
    # the session id, so whatever is left once it has exited shows.
    process = subprocess.Popen(
        [
            sys.executable, str(ROOT / "perfbench" / "run.py"),
            "--workload", workload, "--seed", "3", "--seconds", "1",
            "--trace", "0", "--scale", "0.1",
        ],
        cwd=ROOT,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        start_new_session=True,
    )
    _, stderr = process.communicate(timeout=300)
    assert process.returncode == 0, stderr
    assert _session_members(process.pid) == []


def test_without_program_sources_the_command_fails(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for source in (ROOT / "perfbench").glob("*.py"):
        (tmp_path / "perfbench" / source.name).write_bytes(source.read_bytes())
    (tmp_path / "BENCHMARK.json").write_bytes((ROOT / "BENCHMARK.json").read_bytes())
    process = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "ingest-graph", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert process.returncode != 0
    assert process.stdout.strip() == ""


# ---------------------------------------------------------------------- #
# the correctness gate can fail
# ---------------------------------------------------------------------- #
def _corrupt_one_support(journal_dir: Path, slide_id: int) -> None:
    """Add one to the first pattern's support of one record, on disk."""
    from repro.history.journal import DATA_NAME, LOG_NAME

    entries = [
        json.loads(line)
        for line in (journal_dir / LOG_NAME).read_text(encoding="utf-8").splitlines()
    ]
    entry = next(e for e in entries if e["slide_id"] == slide_id)
    data = bytearray((journal_dir / DATA_NAME).read_bytes())
    start = entry["offset"]
    header_length = int.from_bytes(data[start + 4 : start + 8], "little")
    header = json.loads(data[start + 8 : start + 8 + header_length])
    support_at = start + 8 + header_length + header["stride"]
    support = int.from_bytes(data[support_at : support_at + 4], "little")
    data[support_at : support_at + 4] = (support + 1).to_bytes(4, "little")
    (journal_dir / DATA_NAME).write_bytes(bytes(data))


@pytest.fixture(scope="module")
def small_zipf(tmp_path_factory):
    config = pipeline.sequential(pipeline.scaled(pipeline.CONFIGS["parallel-zipf"], 0.1))
    data = pipeline.setup(config, 5)
    workdir = tmp_path_factory.mktemp("pass")
    result = pipeline.run_pass(config, data, workdir, keep_records=True)
    return config, data, result.records


def test_slide_gate_fails_on_a_corrupted_journal(small_zipf, tmp_path):
    from repro.history.journal import DiskJournal, open_journal

    config, data, records = small_zipf
    slides = pipeline.sample_slides(config, len(records), 5)
    assert pipeline.check_slides(config, data, records, slides) == []

    with DiskJournal(tmp_path / "journal") as journal:
        for record in records:
            journal.append(record)
    _corrupt_one_support(tmp_path / "journal", slides[0])
    with open_journal(tmp_path / "journal") as reopened:
        corrupted = reopened.records()
    failures = pipeline.check_slides(config, data, corrupted, slides)
    assert len(failures) == 1 and f"slide {slides[0]}" in failures[0]


def test_answer_gate_fails_on_a_corrupted_journal(small_zipf, tmp_path):
    from repro.history.journal import DiskJournal, MemoryJournal, open_journal
    from repro.serve.app import ServeApp

    _config, _data, records = small_zipf
    journal = MemoryJournal()
    for record in records:
        journal.append(record)
    app = ServeApp.from_journal(journal)
    slide = records[3].slide_id
    expression = {"select": {"where": {"slides": [slide, slide]}}}
    body = json.dumps(app.query(expression), indent=2, default=str).encode("utf-8")
    assert serving.check_answers([(expression, body)], records) == []

    with DiskJournal(tmp_path / "journal") as disk:
        for record in records:
            disk.append(record)
    _corrupt_one_support(tmp_path / "journal", slide)
    with open_journal(tmp_path / "journal") as reopened:
        corrupted = reopened.records()
    assert len(serving.check_answers([(expression, body)], corrupted)) == 1


def test_notification_gate_fails_on_a_lost_or_repeated_frame(small_zipf):
    from repro.history.journal import MemoryJournal
    from repro.serve.app import ServeApp

    _config, _data, records = small_zipf
    initial, appended = records[:5], records[5:]
    journal = MemoryJournal()
    for record in initial:
        journal.append(record)
    app = ServeApp.from_journal(journal)
    delivered = []
    subscription = app.subscribe(serving.STANDING, serving.STANDING_EVENTS, delivered.append)
    for record in appended:
        journal.append(record)
        app.refresh()
    hello = json.dumps({"subscription": subscription, "last_slide": initial[-1].slide_id})
    frames = [(0.0, "hello", hello)] + [
        (float(n.slide), "notification", json.dumps(n.as_dict())) for n in delivered
    ]
    failures, first = serving.check_notifications(frames, records, initial[-1].slide_id)
    assert failures == [] and len(first) == len(appended)
    assert serving.check_notifications(frames[:-1], records, initial[-1].slide_id)[0]
    assert serving.check_notifications(frames + frames[-1:], records, initial[-1].slide_id)[0]
