"""Unit tests for the command-line interface."""

import json

import pytest

from repro.cli import EXIT_INPUT_ERROR, EXIT_USAGE_ERROR, build_parser, main
from repro.datasets.fimi import read_fimi


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["--version"])
        assert excinfo.value.code == 0

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["demo", "--algorithm", "bogus"])


class TestDemo:
    def test_demo_prints_15_connected_subgraphs(self, capsys):
        assert main(["demo"]) == 0
        output = capsys.readouterr().out
        assert "15 frequent connected subgraphs" in output
        assert "{a,c}" in output

    @pytest.mark.parametrize("algorithm", ["vertical", "fptree_multi"])
    def test_demo_with_other_algorithms(self, algorithm, capsys):
        assert main(["demo", "--algorithm", algorithm]) == 0
        assert "15 frequent connected subgraphs" in capsys.readouterr().out

    def test_demo_with_higher_minsup(self, capsys):
        assert main(["demo", "--minsup", "4"]) == 0
        output = capsys.readouterr().out
        assert "minsup=4" in output


class TestGenerateAndMine:
    def test_generate_graph_dataset(self, tmp_path, capsys):
        target = tmp_path / "graph.fimi"
        assert main(["generate", str(target), "--kind", "graph", "--count", "50"]) == 0
        assert target.exists()
        assert len(read_fimi(target)) == 50

    def test_generate_ibm_dataset(self, tmp_path):
        target = tmp_path / "ibm.fimi"
        assert main(["generate", str(target), "--kind", "ibm", "--count", "30"]) == 0
        assert len(read_fimi(target)) == 30

    def test_generate_connect4_dataset(self, tmp_path):
        target = tmp_path / "c4.fimi"
        assert main(["generate", str(target), "--kind", "connect4", "--count", "10"]) == 0
        transactions = read_fimi(target)
        assert all(len(t) == 43 for t in transactions)

    def test_mine_generated_dataset(self, tmp_path, capsys):
        target = tmp_path / "graph.fimi"
        main(["generate", str(target), "--kind", "graph", "--count", "60", "--seed", "5"])
        capsys.readouterr()
        assert (
            main(
                [
                    "mine",
                    str(target),
                    "--batch-size",
                    "20",
                    "--window",
                    "2",
                    "--minsup",
                    "4",
                    "--top",
                    "5",
                ]
            )
            == 0
        )
        output = capsys.readouterr().out
        assert "frequent patterns" in output
        assert "support=" in output

    def test_mine_with_disk_storage(self, tmp_path, capsys):
        target = tmp_path / "graph.fimi"
        main(["generate", str(target), "--kind", "graph", "--count", "60", "--seed", "5"])
        capsys.readouterr()
        storage_dir = tmp_path / "segments"
        assert (
            main(
                [
                    "mine",
                    str(target),
                    "--batch-size",
                    "20",
                    "--window",
                    "2",
                    "--minsup",
                    "4",
                    "--storage-path",
                    str(storage_dir),
                ]
            )
            == 0
        )
        assert "frequent patterns" in capsys.readouterr().out
        assert (storage_dir / "manifest.json").exists()

    def test_mine_storage_path_must_be_a_directory(self, tmp_path, capsys):
        target = tmp_path / "graph.fimi"
        main(["generate", str(target), "--kind", "graph", "--count", "20", "--seed", "5"])
        capsys.readouterr()
        assert main(["mine", str(target), "--storage-path", str(target)]) == 2
        assert "not a directory" in capsys.readouterr().err

    def test_mine_with_workers_matches_sequential(self, tmp_path, capsys):
        target = tmp_path / "graph.fimi"
        main(["generate", str(target), "--kind", "graph", "--count", "60", "--seed", "5"])
        capsys.readouterr()
        base_args = [
            "mine", str(target), "--batch-size", "20", "--window", "2",
            "--minsup", "4", "--format", "json",
        ]
        assert main(base_args) == 0
        sequential = capsys.readouterr().out
        assert main(base_args + ["--workers", "2"]) == 0
        parallel = capsys.readouterr().out
        assert json.loads(parallel) == json.loads(sequential)

    def test_mine_workers_with_disk_storage(self, tmp_path, capsys):
        target = tmp_path / "graph.fimi"
        main(["generate", str(target), "--kind", "graph", "--count", "60", "--seed", "5"])
        capsys.readouterr()
        storage_dir = tmp_path / "segments"
        code = main(
            [
                "mine", str(target), "--batch-size", "20", "--window", "2",
                "--minsup", "4", "--workers", "2",
                "--storage-path", str(storage_dir),
            ]
        )
        assert code == 0
        assert "frequent patterns" in capsys.readouterr().out
        assert (storage_dir / "manifest.json").exists()

    def test_mine_rejects_negative_workers(self, tmp_path, capsys):
        target = tmp_path / "graph.fimi"
        main(["generate", str(target), "--kind", "graph", "--count", "20", "--seed", "5"])
        capsys.readouterr()
        assert main(["mine", str(target), "--workers", "-1"]) == EXIT_USAGE_ERROR
        err = capsys.readouterr().err
        assert err.startswith("error: --workers must be non-negative")
        assert len(err.strip().splitlines()) == 1  # one-line error, no traceback

    def test_mine_rejects_negative_ingest_workers(self, tmp_path, capsys):
        target = tmp_path / "graph.fimi"
        main(["generate", str(target), "--kind", "graph", "--count", "20", "--seed", "5"])
        capsys.readouterr()
        code = main(["mine", str(target), "--ingest-workers", "-2"])
        assert code == EXIT_USAGE_ERROR
        err = capsys.readouterr().err
        assert err.startswith("error: --ingest-workers must be non-negative")
        assert len(err.strip().splitlines()) == 1  # one-line error, no traceback

    def test_mine_with_ingest_workers_matches_sequential(self, tmp_path, capsys):
        target = tmp_path / "graph.fimi"
        main(["generate", str(target), "--kind", "graph", "--count", "60", "--seed", "5"])
        capsys.readouterr()
        base_args = [
            "mine", str(target), "--batch-size", "20", "--window", "2",
            "--minsup", "4", "--format", "json",
        ]
        assert main(base_args) == 0
        sequential = capsys.readouterr().out
        assert main(base_args + ["--ingest-workers", "2"]) == 0
        assert capsys.readouterr().out == sequential

    def test_mine_ingest_workers_with_disk_storage_and_mining_workers(
        self, tmp_path, capsys
    ):
        """The fully parallel pipeline: sharded ingest feeding sharded mining."""
        target = tmp_path / "graph.fimi"
        main(["generate", str(target), "--kind", "graph", "--count", "60", "--seed", "5"])
        capsys.readouterr()
        base_args = [
            "mine", str(target), "--batch-size", "20", "--window", "2",
            "--minsup", "4", "--format", "json",
        ]
        assert main(base_args) == 0
        sequential = capsys.readouterr().out
        storage_dir = tmp_path / "segments"
        code = main(
            base_args
            + [
                "--ingest-workers", "2", "--workers", "2",
                "--storage-path", str(storage_dir),
            ]
        )
        assert code == 0
        assert capsys.readouterr().out == sequential
        assert (storage_dir / "manifest.json").exists()


class TestGen:
    def test_list_prints_canonical_workloads(self, capsys):
        assert main(["gen", "--list"]) == 0
        output = capsys.readouterr().out
        for name in (
            "random-graph[smoke]",
            "random-graph[large]",
            "zipf-transactions[large]",
        ):
            assert name in output
        assert "units=1000000" in output

    def test_requires_workload_or_list(self, capsys):
        assert main(["gen"]) == EXIT_USAGE_ERROR

    def test_unknown_workload(self, capsys):
        assert main(["gen", "random-graph[galactic]"]) == EXIT_USAGE_ERROR
        assert "error:" in capsys.readouterr().err

    def test_rejects_nonpositive_units(self, capsys):
        code = main(["gen", "random-graph[smoke]", "--units", "0"])
        assert code == EXIT_USAGE_ERROR

    def test_validate_reports_determinism_and_parity(self, capsys):
        code = main(
            ["gen", "random-graph[smoke]", "--units", "60", "--workers", "2"]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "validated 60 of 200 units" in output
        assert "deterministic: True" in output
        assert "parallel mining parity (2 workers): True" in output

    def test_no_mine_skips_parity(self, capsys):
        code = main(
            ["gen", "zipf-transactions[smoke]", "--units", "40", "--no-mine"]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "digest: " in output
        assert "parity" not in output

    def test_export_then_mine_end_to_end(self, tmp_path, capsys):
        target = tmp_path / "workload.fimi"
        code = main(
            ["gen", "random-graph[smoke]", "--units", "60",
             "--output", str(target)]
        )
        assert code == 0
        assert "wrote 60 transactions" in capsys.readouterr().out
        assert len(read_fimi(target)) == 60
        assert main(
            ["mine", str(target), "--batch-size", "20", "--window", "2",
             "--minsup", "3", "--workers", "2"]
        ) == 0

    def test_export_transactions_respects_units(self, tmp_path):
        target = tmp_path / "txn.fimi"
        code = main(
            ["gen", "zipf-transactions[smoke]", "--units", "25",
             "--output", str(target)]
        )
        assert code == 0
        assert len(read_fimi(target)) == 25


class TestMineStats:
    def test_stats_flag_prints_cache_summary(self, tmp_path, capsys):
        target = tmp_path / "graph.fimi"
        main(["generate", str(target), "--kind", "graph", "--count", "60", "--seed", "5"])
        capsys.readouterr()
        assert main(["mine", str(target), "--batch-size", "20", "--window", "2",
                     "--minsup", "4", "--stats"]) == 0
        output = capsys.readouterr().out
        assert "cache: " in output
        assert "row_misses=" in output
        assert "frequent_misses=" in output
        # No parallel ingest happened, so no pipeline line.
        assert "pipeline: " not in output

    def test_stats_flag_with_ingest_workers_prints_pipeline_line(
        self, tmp_path, capsys
    ):
        target = tmp_path / "graph.fimi"
        main(["generate", str(target), "--kind", "graph", "--count", "60", "--seed", "5"])
        capsys.readouterr()
        assert main(["mine", str(target), "--batch-size", "20", "--window", "2",
                     "--minsup", "4", "--stats", "--ingest-workers", "2",
                     "--max-inflight", "2"]) == 0
        output = capsys.readouterr().out
        assert "cache: " in output
        assert "pipeline: batches=3" in output
        assert "max_inflight=2" in output

    def test_without_stats_flag_no_summary(self, tmp_path, capsys):
        target = tmp_path / "graph.fimi"
        main(["generate", str(target), "--kind", "graph", "--count", "40", "--seed", "5"])
        capsys.readouterr()
        assert main(["mine", str(target), "--batch-size", "20", "--window", "2",
                     "--minsup", "4"]) == 0
        assert "cache: " not in capsys.readouterr().out


class TestWatchQueryServe:
    def _generate(self, tmp_path):
        source = tmp_path / "graph.fimi"
        main(["generate", str(source), "--kind", "graph", "--count", "60", "--seed", "5"])
        return source

    def _watch(self, tmp_path, journal="journal", extra=()):
        source = self._generate(tmp_path)
        args = [
            "watch", str(source), "--batch-size", "20", "--window", "2",
            "--minsup", "4", "--journal", str(tmp_path / journal),
        ]
        return main(args + list(extra))

    def test_watch_writes_a_journal(self, tmp_path, capsys):
        assert self._watch(tmp_path) == 0
        output = capsys.readouterr().out
        assert "journalled 3 slides" in output
        journal_dir = tmp_path / "journal"
        assert (journal_dir / "journal.json").exists()
        assert (journal_dir / "journal.dat").exists()
        assert (journal_dir / "journal.log").exists()

    def test_watch_parallel_journal_byte_identical(self, tmp_path, capsys):
        assert self._watch(tmp_path, journal="seq") == 0
        assert (
            self._watch(
                tmp_path,
                journal="par",
                extra=["--ingest-workers", "2", "--workers", "2", "--max-inflight", "1"],
            )
            == 0
        )
        assert (tmp_path / "seq" / "journal.dat").read_bytes() == (
            tmp_path / "par" / "journal.dat"
        ).read_bytes()

    def test_watch_rejects_negative_workers(self, tmp_path, capsys):
        source = self._generate(tmp_path)
        capsys.readouterr()
        code = main(["watch", str(source), "--journal", str(tmp_path / "j"),
                     "--workers", "-1"])
        assert code == EXIT_USAGE_ERROR
        assert "must be non-negative" in capsys.readouterr().err

    def test_watch_missing_input(self, tmp_path, capsys):
        code = main(["watch", str(tmp_path / "nope.fimi"), "--journal",
                     str(tmp_path / "j")])
        assert code == EXIT_INPUT_ERROR

    def test_rewatching_a_journal_is_a_clean_error(self, tmp_path, capsys):
        assert self._watch(tmp_path) == 0
        capsys.readouterr()
        # A second watch restarts slide ids at 0, which the append-only
        # journal must reject — as a one-line error, not a traceback.
        code = self._watch(tmp_path)
        assert code == EXIT_USAGE_ERROR
        err = capsys.readouterr().err
        assert "cannot journal this stream" in err
        assert "Traceback" not in err

    def test_query_stats_and_topk(self, tmp_path, capsys):
        assert self._watch(tmp_path) == 0
        capsys.readouterr()
        assert main(["query", str(tmp_path / "journal")]) == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["slides"] == 3
        expr = json.dumps({"top_k": {"k": 2, "where": {"slides": [2, 2]}}})
        assert main(["query", str(tmp_path / "journal"), "--expr", expr]) == 0
        topk = json.loads(capsys.readouterr().out)
        assert topk["count"] == 2

    def test_query_support_history(self, tmp_path, capsys):
        assert self._watch(tmp_path) == 0
        capsys.readouterr()
        main(["query", str(tmp_path / "journal"), "--expr", '{"top_k": {"k": 1}}'])
        top_item = json.loads(capsys.readouterr().out)["matches"][0]["items"][0]
        expr = json.dumps({"history": {"items": [top_item]}})
        assert main(["query", str(tmp_path / "journal"), "--expr", expr]) == 0
        history = json.loads(capsys.readouterr().out)
        assert len(history["history"]) == 3
        assert history["first_frequent"] is not None

    def test_query_expr_algebra(self, tmp_path, capsys):
        assert self._watch(tmp_path) == 0
        capsys.readouterr()
        main(["query", str(tmp_path / "journal"), "--expr", '{"top_k": {"k": 1}}'])
        ranked = json.loads(capsys.readouterr().out)
        top_item = ranked["matches"][0]["items"][0]
        expr = json.dumps({"select": {"where": {"contains": [top_item]}}})
        assert main(["query", str(tmp_path / "journal"), "--expr", expr]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["count"] == len(payload["matches"]) > 0
        assert payload["explain"]["q_error"] >= 1.0
        # Restricting top_k to the top row's slide keeps that row first.
        last = ranked["matches"][0]["slide"]
        expr = json.dumps({"top_k": {"k": 1, "where": {"slides": [last, last]}}})
        assert main(["query", str(tmp_path / "journal"), "--expr", expr]) == 0
        assert json.loads(capsys.readouterr().out)["matches"] == ranked["matches"]

    def test_query_expr_invalid_json(self, tmp_path, capsys):
        assert self._watch(tmp_path) == 0
        capsys.readouterr()
        code = main(["query", str(tmp_path / "journal"), "--expr", "{not json"])
        assert code == EXIT_USAGE_ERROR
        err = capsys.readouterr().err
        payload = json.loads(err)
        assert payload["code"] == "invalid-json"
        assert payload["exit_code"] == EXIT_USAGE_ERROR
        assert "\n" not in err.strip()

    def test_query_expr_malformed_expression(self, tmp_path, capsys):
        assert self._watch(tmp_path) == 0
        capsys.readouterr()
        expr = json.dumps({"select": {"where": {"bogus": []}}})
        code = main(["query", str(tmp_path / "journal"), "--expr", expr])
        assert code == EXIT_USAGE_ERROR
        payload = json.loads(capsys.readouterr().err)
        assert payload["code"] == "malformed-expression"
        assert payload["path"] == "$.select.where.bogus"

    def test_query_output_cut_off_by_its_reader_exits_quietly(self, tmp_path, capsys):
        """``repro query <journal> | head``: the reader closes the pipe after
        a few bytes of a payload several pipe buffers long."""
        import os
        import subprocess
        import sys

        import repro
        from repro.history.journal import DiskJournal, SlideRecord

        journal = DiskJournal(tmp_path / "journal")
        patterns = {(f"i{a:03d}", f"i{b:03d}"): 5 for a in range(40) for b in range(a + 1, 40)}
        for slide in range(3):
            journal.append(SlideRecord(slide, slide, slide, 50, 1, patterns))
        journal.close()
        args = ["query", str(tmp_path / "journal"),
                "--expr", '{"select": {"where": {"support_gte": 1}}}']
        assert main(args) == 0
        assert len(capsys.readouterr().out) > 3 * 64 * 1024  # pipe buffers
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [os.path.dirname(os.path.dirname(repro.__file__)), env.get("PYTHONPATH", "")]
        )
        query = subprocess.Popen(
            [sys.executable, "-m", "repro", *args],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=env,
        )
        assert len(query.stdout.read(1024)) == 1024
        query.stdout.close()
        stderr = query.stderr.read().decode()
        assert query.wait(timeout=60) == 0
        assert stderr == ""

    def test_query_missing_journal(self, tmp_path, capsys):
        code = main(["query", str(tmp_path / "missing")])
        assert code == EXIT_INPUT_ERROR
        payload = json.loads(capsys.readouterr().err.strip())
        assert "cannot open journal" in payload["error"]
        assert payload["exit_code"] == EXIT_INPUT_ERROR

    def test_serve_missing_journal(self, tmp_path, capsys):
        code = main(["serve", str(tmp_path / "missing")])
        assert code == EXIT_INPUT_ERROR
        assert "cannot open journal" in capsys.readouterr().err

    def test_serve_answers_http_requests(self, tmp_path, capsys):
        import re
        import signal
        import subprocess
        import sys
        import urllib.request

        assert self._watch(tmp_path) == 0
        capsys.readouterr()
        journal = str(tmp_path / "journal")
        expr = '{"top_k": {"k": 3}}'
        assert main(["query", journal, "--expr", expr]) == 0
        printed = capsys.readouterr().out
        server = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", journal, "--port", "0",
             "--follow", "0"],
            stdout=subprocess.PIPE,
            text=True,
        )
        try:
            banner = server.stdout.readline()
            port = re.search(r"http://127\.0\.0\.1:(\d+) ", banner).group(1)
            base = f"http://127.0.0.1:{port}"
            with urllib.request.urlopen(f"{base}/stats", timeout=10) as response:
                assert json.loads(response.read())["slides"] == 3
            request = urllib.request.Request(
                f"{base}/query", data=expr.encode("utf-8"), method="POST"
            )
            with urllib.request.urlopen(request, timeout=10) as response:
                body = response.read()
            # The CLI prints exactly the bytes the server answers.
            assert body.decode("utf-8") + "\n" == printed
        finally:
            server.send_signal(signal.SIGTERM)
            server.communicate(timeout=10)
        assert server.returncode == 0


class TestWatchCheckpointAndRetention:
    def _generate(self, tmp_path):
        source = tmp_path / "graph.fimi"
        main(["generate", str(source), "--kind", "graph", "--count", "200", "--seed", "5"])
        return source

    def _watch(self, tmp_path, source, journal, extra=()):
        args = [
            "watch", str(source), "--batch-size", "10", "--window", "3",
            "--minsup", "3", "--journal", str(tmp_path / journal),
        ]
        return main(args + list(extra))

    def test_crash_resume_is_byte_identical(self, tmp_path, capsys):
        source = self._generate(tmp_path)
        assert self._watch(tmp_path, source, "ref") == 0
        # A "crashed" run: only the stream prefix, sealing snapshots.
        prefix = tmp_path / "prefix.fimi"
        prefix.write_text(
            "".join(source.read_text().splitlines(keepends=True)[:70])
        )
        chk = ["--checkpoint-dir", str(tmp_path / "chk"), "--checkpoint-every", "2"]
        assert self._watch(tmp_path, prefix, "live", extra=chk) == 0
        assert "sealed 3 snapshot(s)" in capsys.readouterr().out
        # Resume over the full stream converges on the reference bytes.
        assert self._watch(tmp_path, source, "live", extra=chk + ["--resume"]) == 0
        assert "resumed from slide 5" in capsys.readouterr().out
        assert (tmp_path / "live" / "journal.dat").read_bytes() == (
            tmp_path / "ref" / "journal.dat"
        ).read_bytes()

    def test_retention_flags_bound_the_journal(self, tmp_path, capsys):
        source = self._generate(tmp_path)
        assert (
            self._watch(
                tmp_path, source, "tiered",
                extra=["--retain-warm", "5", "--retain-hot", "3",
                       "--cold-sample-every", "4"],
            )
            == 0
        )
        assert "20 records total" in capsys.readouterr().out
        archive = tmp_path / "tiered" / "archive.jsonl"
        lines = [json.loads(line) for line in archive.read_text().splitlines()]
        assert len(lines) == 15  # 20 slides - 5 warm
        assert sum(1 for line in lines if "patterns" in line) == 4

    def test_resume_requires_checkpoint_dir(self, tmp_path, capsys):
        source = self._generate(tmp_path)
        code = self._watch(tmp_path, source, "j", extra=["--resume"])
        assert code == EXIT_USAGE_ERROR
        assert "--resume needs --checkpoint-dir" in capsys.readouterr().err

    def test_resume_rejects_mismatched_geometry(self, tmp_path, capsys):
        source = self._generate(tmp_path)
        chk = ["--checkpoint-dir", str(tmp_path / "chk"), "--checkpoint-every", "2"]
        assert self._watch(tmp_path, source, "live", extra=chk) == 0
        capsys.readouterr()
        code = main([
            "watch", str(source), "--batch-size", "20", "--window", "3",
            "--minsup", "3", "--journal", str(tmp_path / "live"),
            "--resume", *chk,
        ])
        assert code == EXIT_USAGE_ERROR
        assert "resume with the same flags" in capsys.readouterr().err

    def test_bad_retention_flag_is_a_usage_error(self, tmp_path, capsys):
        source = self._generate(tmp_path)
        code = self._watch(tmp_path, source, "j", extra=["--checkpoint-every", "0"])
        assert code == EXIT_USAGE_ERROR
        assert "--checkpoint-every" in capsys.readouterr().err

    def test_unwritable_journal_is_one_json_error_line(self, tmp_path, capsys):
        source = self._generate(tmp_path)
        blocker = tmp_path / "blocker"
        blocker.write_text("a file where a directory must go")
        code = self._watch(tmp_path, source, "blocker/journal")
        assert code == EXIT_INPUT_ERROR
        err_lines = capsys.readouterr().err.strip().splitlines()
        assert len(err_lines) == 1
        payload = json.loads(err_lines[0])
        assert "cannot open journal" in payload["error"]
        assert payload["exit_code"] == EXIT_INPUT_ERROR

    def test_unwritable_checkpoint_dir_is_one_json_error_line(self, tmp_path, capsys):
        source = self._generate(tmp_path)
        blocker = tmp_path / "blocker"
        blocker.write_text("x")
        code = self._watch(
            tmp_path, source, "j",
            extra=["--checkpoint-dir", str(blocker / "chk")],
        )
        assert code == EXIT_INPUT_ERROR
        payload = json.loads(capsys.readouterr().err.strip())
        assert "cannot open checkpoint dir" in payload["error"]

    def test_serve_error_is_one_json_error_line(self, tmp_path, capsys):
        code = main(["serve", str(tmp_path / "missing")])
        assert code == EXIT_INPUT_ERROR
        payload = json.loads(capsys.readouterr().err.strip())
        assert "cannot open journal" in payload["error"]
        assert payload["exit_code"] == EXIT_INPUT_ERROR


class TestSupervise:
    def test_supervise_needs_a_child(self, capsys):
        assert main(["supervise"]) == EXIT_USAGE_ERROR
        assert "needs a child command" in capsys.readouterr().err

    def test_supervise_only_runs_watch_or_serve(self, capsys):
        assert main(["supervise", "--", "mine", "x"]) == EXIT_USAGE_ERROR
        assert "watch/serve" in capsys.readouterr().err

    def test_supervise_validates_the_policy(self, capsys):
        code = main(["supervise", "--max-restarts", "-1", "--", "watch", "x"])
        assert code == EXIT_USAGE_ERROR
        assert "max_restarts" in capsys.readouterr().err

    def test_supervise_runs_a_real_child_to_completion(self, tmp_path, capsys):
        source = tmp_path / "graph.fimi"
        main(["generate", str(source), "--kind", "graph", "--count", "60", "--seed", "5"])
        capsys.readouterr()
        code = main([
            "supervise", "--max-restarts", "0", "--",
            "watch", str(source), "--batch-size", "20", "--window", "2",
            "--minsup", "4", "--journal", str(tmp_path / "journal"),
        ])
        assert code == 0
        events = [
            json.loads(line)
            for line in capsys.readouterr().err.strip().splitlines()
        ]
        assert [event["event"] for event in events] == ["start", "exit"]
        assert (tmp_path / "journal" / "journal.dat").exists()

    def test_supervise_propagates_a_failing_child(self, tmp_path, capsys):
        # A watch over a missing input fails fast with exit 3; a budget of
        # one restart retries once, then propagates the child's code.
        code = main([
            "supervise", "--max-restarts", "1", "--backoff", "0.01", "--",
            "watch", str(tmp_path / "nope.fimi"),
            "--journal", str(tmp_path / "journal"),
        ])
        assert code == EXIT_INPUT_ERROR
        events = [
            json.loads(line)
            for line in capsys.readouterr().err.strip().splitlines()
        ]
        assert [event["event"] for event in events] == [
            "start", "exit", "restart", "start", "exit", "budget-exhausted",
        ]


class TestMineInputErrors:
    def test_missing_input_file_exits_with_stable_code(self, tmp_path, capsys):
        missing = tmp_path / "nope.fimi"
        code = main(["mine", str(missing)])
        assert code == EXIT_INPUT_ERROR
        err = capsys.readouterr().err
        assert err.startswith("error: cannot read input file:")
        assert len(err.strip().splitlines()) == 1  # one-line error, no traceback

    def test_corrupt_binary_input_exits_with_stable_code(self, tmp_path, capsys):
        corrupt = tmp_path / "corrupt.fimi"
        corrupt.write_bytes(b"\xff\xfe\x00DSEG\x80garbage")
        code = main(["mine", str(corrupt)])
        assert code == EXIT_INPUT_ERROR
        assert "error: cannot read input file:" in capsys.readouterr().err

    def test_directory_as_input_exits_with_stable_code(self, tmp_path, capsys):
        code = main(["mine", str(tmp_path)])
        assert code == EXIT_INPUT_ERROR
        assert "error: cannot read input file:" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ("mine", "watch"))
    @pytest.mark.parametrize("workers", ("0", "2"))
    def test_direct_algorithm_on_a_fimi_file_is_one_json_error(
        self, tmp_path, capsys, command, workers
    ):
        """A FIMI file carries no edges: one JSON line, no traceback."""
        source = tmp_path / "items.fimi"
        source.write_text("1 2 3\n1 2\n2 3\n" * 10)
        extra = ["--journal", str(tmp_path / "journal")] if command == "watch" else []
        code = main(
            [
                command,
                str(source),
                "--algorithm",
                "vertical_direct",
                "--batch-size",
                "10",
                "--window",
                "2",
                "--minsup",
                "2",
                "--workers",
                workers,
                *extra,
            ]
        )
        assert code == EXIT_INPUT_ERROR
        err = capsys.readouterr().err.strip()
        assert len(err.splitlines()) == 1
        payload = json.loads(err)
        assert payload["exit_code"] == EXIT_INPUT_ERROR
        assert "vertical_direct" in payload["error"]
        assert "not registered" in payload["error"]


class TestBench:
    def test_bench_e1_table(self, capsys):
        assert main(["bench", "e1", "--scale", "tiny"]) == 0
        output = capsys.readouterr().out
        assert "E1-accuracy" in output
        assert "all_collections_identical: True" in output

    def test_bench_json_output(self, capsys):
        assert main(["bench", "e4", "--scale", "tiny", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["experiment"] == "E4-minsup-sweep"
        assert payload["rows"]

    def test_bench_e10_runs(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["bench", "e10", "--scale", "tiny"]) == 0
        output = capsys.readouterr().out
        assert "E10-journal-history" in output
        assert "journal_identical: True" in output
        assert (tmp_path / "BENCH_e10.json").exists()

    def test_bench_baseline_pass_and_fail(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["bench", "e4", "--scale", "tiny", "--json"]) == 0
        outcome = json.loads(capsys.readouterr().out)
        baseline = tmp_path / "BENCH_e4.json"
        baseline.write_text(json.dumps(outcome), encoding="utf-8")
        # Same workload against its own outcome: within budget, and the
        # check's verdict stays off stdout so --json output remains parseable.
        assert main(["bench", "e4", "--scale", "tiny", "--json",
                     "--baseline", str(baseline)]) == 0
        captured = capsys.readouterr()
        assert "within budget" in captured.err
        json.loads(captured.out)
        # A tampered baseline (different minsup identity) must fail.
        outcome["workload"] = "something-else"
        baseline.write_text(json.dumps(outcome), encoding="utf-8")
        assert main(["bench", "e4", "--scale", "tiny", "--json",
                     "--baseline", str(baseline)]) == 1
        assert "regression(s)" in capsys.readouterr().err

    def test_bench_baseline_missing_file(self, capsys):
        code = main(["bench", "e4", "--scale", "tiny", "--json",
                     "--baseline", "/nonexistent/BENCH.json"])
        assert code == EXIT_INPUT_ERROR
        assert "cannot read baseline" in capsys.readouterr().err


class TestMineOutputFormats:
    def _generate(self, tmp_path):
        source = tmp_path / "graph.fimi"
        main(["generate", str(source), "--kind", "graph", "--count", "60", "--seed", "5"])
        return source

    def test_json_format(self, tmp_path, capsys):
        source = self._generate(tmp_path)
        capsys.readouterr()
        assert main(["mine", str(source), "--batch-size", "20", "--window", "2",
                     "--minsup", "4", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert isinstance(payload, list)
        assert all("support" in record for record in payload)

    def test_csv_format_to_file(self, tmp_path, capsys):
        source = self._generate(tmp_path)
        target = tmp_path / "patterns.csv"
        capsys.readouterr()
        assert main(["mine", str(source), "--batch-size", "20", "--window", "2",
                     "--minsup", "4", "--format", "csv", "--output", str(target)]) == 0
        assert "wrote" in capsys.readouterr().out
        lines = target.read_text(encoding="utf-8").strip().splitlines()
        assert lines[0].startswith("items,")
        assert len(lines) > 1


class TestFaultsFlag:
    def _generate(self, tmp_path):
        source = tmp_path / "graph.fimi"
        main(["generate", str(source), "--kind", "graph", "--count", "60", "--seed", "5"])
        return source

    @pytest.mark.parametrize("command", ["mine", "watch"])
    def test_invalid_plan_is_a_usage_error(self, command, tmp_path, capsys):
        source = self._generate(tmp_path)
        capsys.readouterr()
        args = [command, str(source), "--faults", "no.such.site@1"]
        if command == "watch":
            args += ["--journal", str(tmp_path / "journal")]
        assert main(args) == EXIT_USAGE_ERROR
        assert "invalid --faults plan" in capsys.readouterr().err

    def test_mine_stats_reports_clean_resilience(self, tmp_path, capsys):
        source = self._generate(tmp_path)
        capsys.readouterr()
        assert main(["mine", str(source), "--batch-size", "20", "--window", "2",
                     "--minsup", "4", "--stats"]) == 0
        assert "resilience: clean" in capsys.readouterr().out

    def test_mine_recovers_from_injected_crash_and_reports_it(
        self, tmp_path, capsys
    ):
        source = self._generate(tmp_path)
        capsys.readouterr()
        # Every fresh worker re-crashes at its first encode (per-process
        # hit counters), so the pool respawns through its budget and then
        # degrades to in-process, where the crash is retried inline.
        assert main(["mine", str(source), "--batch-size", "20", "--window", "2",
                     "--minsup", "4", "--stats", "--ingest-workers", "2",
                     "--faults", "ingest.encode@1:crash"]) == 0
        captured = capsys.readouterr()
        assert "respawn=" in captured.out
        assert "retry=1" in captured.out
        assert "resilience: clean" not in captured.out
        assert '"event": "resilience"' not in captured.err  # mine has no stream

    def test_watch_under_faults_is_byte_identical_and_narrated(
        self, tmp_path, capsys
    ):
        import os

        from repro import faults

        source = self._generate(tmp_path)
        base = ["watch", str(source), "--batch-size", "20", "--window", "2",
                "--minsup", "4", "--journal"]
        assert main(base + [str(tmp_path / "clean")]) == 0
        capsys.readouterr()
        assert main(base + [str(tmp_path / "faulted"),
                            "--faults", "journal.write@2"]) == 0
        captured = capsys.readouterr()
        assert "resilience: retry=1" in captured.out
        events = [json.loads(line) for line in captured.err.splitlines() if line]
        assert any(
            event["event"] == "resilience" and event["kind"] == "retry"
            and event["site"] == "journal.write"
            for event in events
        )
        assert (tmp_path / "faulted" / "journal.dat").read_bytes() == (
            tmp_path / "clean" / "journal.dat"
        ).read_bytes()
        # The plan was uninstalled on the way out: nothing leaks into the
        # environment of later runs.
        assert faults.ENV_VAR not in os.environ
