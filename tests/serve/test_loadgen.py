"""The load generator: percentiles, keep-alive clients, fd headroom."""

from repro.serve.app import ServeApp
from repro.serve.http import BackgroundServer
from repro.serve.loadgen import percentile, raise_fd_limit, run_load

from serve_helpers import mined_journal


class TestPercentile:
    def test_nearest_rank(self):
        samples = [10.0, 20.0, 30.0, 40.0]
        assert percentile(samples, 0.0) == 10.0
        assert percentile(samples, 1.0) == 40.0
        assert percentile(samples, 0.5) == 30.0

    def test_empty_is_zero(self):
        assert percentile([], 0.99) == 0.0


class TestRunLoad:
    def test_concurrent_clients_all_succeed(self):
        journal = mined_journal()
        app = ServeApp.from_journal(journal)
        with BackgroundServer(app) as background:
            report = run_load(
                "127.0.0.1",
                background.port,
                [{"top_k": {"k": 5}}, {"select": {"where": {"contains": ["a"]}}}],
                clients=25,
                requests_per_client=4,
            )
        assert report.errors == 0
        assert report.requests_total == 100
        assert report.status_counts == {200: 100}
        assert report.throughput_rps > 0
        assert 0 < report.latency_p50_ms <= report.latency_p99_ms <= report.latency_max_ms
        as_dict = report.as_dict()
        assert as_dict["clients"] == 25
        assert as_dict["status_counts"] == {"200": 100}

    def test_fd_limit_raise_is_safe(self):
        # Must not lower the limit and must return the (possibly raised) soft cap.
        assert raise_fd_limit() > 0
