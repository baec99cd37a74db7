"""Observability threaded through the scan path: spans + metric totals.

The acceptance bar: counters reconcile exactly with the returned
``MatchResult`` on every backend, and a traced GPU scan records the
full span taxonomy with correct nesting.
"""

import pytest

from repro.bench.runner import ExperimentRunner
from repro.errors import DeviceError
from repro.matcher import BACKENDS, Matcher
from repro.obs import Metrics, Tracer
from repro.resilience import (
    Fault,
    FaultInjector,
    FaultKind,
    FaultPlan,
    ResilientMatcher,
)

PAPER = ["he", "she", "his", "hers"]
TEXT = "ushers said she saw his hats and hers" * 20


class TestMetricsReconcile:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_counters_equal_match_result(self, backend):
        metrics = Metrics()
        m = Matcher(PAPER, backend=backend, metrics=metrics)
        result = m.scan(TEXT)
        assert metrics.counter("scans_total").value(backend=backend) == 1
        assert metrics.counter("scan_bytes_total").value(
            backend=backend
        ) == len(TEXT)
        assert metrics.counter("scan_matches_total").value(
            backend=backend
        ) == len(result)
        hist = metrics.histogram("scan_seconds")
        assert hist.count(backend=backend) == 1
        assert hist.sum(backend=backend) > 0

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_scan_many_is_one_observation_per_batch(self, backend):
        metrics = Metrics()
        m = Matcher(PAPER, backend=backend, metrics=metrics)
        texts = [TEXT, "", "ushers", "x"]
        results = m.scan_many(texts)
        assert metrics.counter("scans_total").value(backend=backend) == 1
        assert metrics.counter("scan_bytes_total").value(
            backend=backend
        ) == sum(len(t) for t in texts)
        assert metrics.counter("scan_matches_total").value(
            backend=backend
        ) == sum(len(r) for r in results)
        assert metrics.histogram("scan_seconds").count(backend=backend) == 1

    def test_totals_accumulate_across_scans(self):
        metrics = Metrics()
        m = Matcher(PAPER, backend="serial", metrics=metrics)
        n = len(m.scan(TEXT)) + len(m.scan("ushers"))
        assert metrics.counter("scan_matches_total").total() == n
        assert metrics.counter("scans_total").total() == 2

    def test_gpu_kernel_gauges(self):
        metrics = Metrics()
        m = Matcher(PAPER, backend="gpu", metrics=metrics)
        m.scan(TEXT)
        assert metrics.gauge("kernel_modeled_seconds").value() > 0
        assert 0.0 <= metrics.gauge("texture_hit_rate").value() <= 1.0
        assert metrics.gauge("avg_conflict_degree").value() >= 1.0

    def test_timing_path_records_too(self):
        metrics = Metrics()
        m = Matcher(PAPER, backend="gpu", metrics=metrics)
        kr = m.scan_with_timing(TEXT)
        assert metrics.counter("scan_matches_total").value(
            backend="gpu"
        ) == len(kr.matches)


class TestSpanTaxonomy:
    def test_gpu_scan_span_tree(self):
        tracer = Tracer()
        m = Matcher(PAPER, backend="gpu", tracer=tracer)
        result = m.scan(TEXT)
        (build,) = tracer.find("build")
        assert build.attrs["n_states"] == 10
        (scan,) = tracer.find("scan")
        assert scan.attrs["backend"] == "gpu"
        assert scan.attrs["matches"] == len(result)
        # The kernel lifecycle nests inside the scan span.
        assert scan.find("copy_input")
        assert scan.find("bind_texture")
        (body,) = scan.find("kernel_body")
        assert body.attrs["kernel"] == "shared_memory"
        assert body.find("ownership_filter")
        assert body.duration > 0

    def test_fold_span_only_when_case_insensitive(self):
        t1 = Tracer()
        Matcher(PAPER, backend="serial", tracer=t1).scan(TEXT)
        assert not t1.find("fold")
        t2 = Tracer()
        Matcher(
            PAPER, backend="serial", case_insensitive=True, tracer=t2
        ).scan(TEXT)
        assert t2.find("fold")

    def test_disabled_by_default(self):
        m = Matcher(PAPER, backend="gpu")
        assert m.tracer.enabled is False
        assert m.metrics.enabled is False
        m.scan(TEXT)
        assert m.tracer.roots == []


class TestResilientObservability:
    def test_retry_and_fallback_events(self):
        tracer = Tracer()
        metrics = Metrics()
        injector = FaultInjector(
            FaultPlan([
                Fault(kind=FaultKind.LAUNCH_FAILURE, persistent=True)
            ])
        )
        rm = ResilientMatcher(
            PAPER,
            max_retries=1,
            injector=injector,
            sleep=lambda s: None,
            tracer=tracer,
            metrics=metrics,
        )
        result = rm.scan(TEXT)
        (episode,) = tracer.find("resilient_scan")
        assert episode.attrs["ok"] is True
        assert episode.attrs["final_backend"] == "double_array"
        # 2 failed gpu attempts, then the double_array success.
        attempts = episode.find("attempt")
        assert [a.attrs["backend"] for a in attempts] == [
            "gpu", "gpu", "double_array"
        ]
        (retry,) = episode.find("retry")
        assert retry.is_event and retry.attrs["backend"] == "gpu"
        (fb,) = episode.find("fallback")
        assert fb.attrs["from_backend"] == "gpu"
        assert fb.attrs["to_backend"] == "double_array"
        assert fb.attrs["error"] == "LaunchError"
        assert metrics.counter("retries_total").value(backend="gpu") == 1
        assert metrics.counter("fallbacks_total").value(
            **{"from": "gpu", "to": "double_array"}
        ) == 1
        # The successful backend's scan counters reconcile.
        assert metrics.counter("scan_matches_total").value(
            backend="double_array"
        ) == len(result)

    def test_matcher_resilient_scan_inherits_obs(self):
        tracer = Tracer()
        metrics = Metrics()
        m = Matcher(PAPER, backend="gpu", tracer=tracer, metrics=metrics)
        result = m.scan(TEXT, resilient=True)
        (episode,) = tracer.find("resilient_scan")
        (attempt,) = episode.find("attempt")
        # The attempt wraps a real scan span from the inner matcher.
        (scan,) = attempt.find("scan")
        assert scan.attrs["matches"] == len(result)
        assert metrics.counter("scans_total").value(backend="gpu") == 1


class TestRunnerSpans:
    def test_run_cell_span(self):
        tracer = Tracer()
        runner = ExperimentRunner(scale=0.001, seed=3, tracer=tracer)
        runner.run_cell("50KB", 100, kernels=("shared",))
        runner.run_cell("50KB", 100, kernels=("shared",))  # cache hit
        spans = tracer.find("run_cell")
        assert len(spans) == 1  # the hit does not re-enter the span
        assert spans[0].attrs["size"] == "50KB"
        assert spans[0].attrs["n_patterns"] == 100
