"""Pipelined batch-scan scheduler: the serving front end.

:class:`ScanScheduler` turns the library's one-shot ``scan`` calls
into a batched, pipelined service.  Concurrent requests are queued
(:meth:`ScanScheduler.submit` returns a :class:`ScanTicket` future),
grouped per pattern-set digest, and driven through a modeled
**dual-stream pipeline**: while the compute stream runs ``kernel_body``
over one request's bytes, the copy stream stages the next request's
input over PCIe — the double-buffered overlap the hybrid CUDA/MPI
follow-up (Kouzinopoulos et al., arXiv:1407.2889) uses to hide data
distribution behind matching.  Repeat pattern sets hit the
:class:`~repro.serve.cache.AutomatonCache` and the per-digest matcher's
persistent texture binding, so they skip phase-1 build *and* the STT
upload entirely (the PFAC-style persistent-automaton trick,
arXiv:1811.10498).

Semantics are sacred: every request's :class:`MatchResult` is
byte-exact with the serial oracle run on that request alone.  Batching
concatenates request texts into one scan buffer on every backend
(:meth:`~repro.matcher.Matcher.scan_many`), so the splitter
drops any occurrence straddling a seam between two requests (it could
not occur in either request scanned alone) — the differential harness
(tests/serve/test_differential.py) pins this across every backend.

Failure isolation: if the batch kernel path raises, the batch is
re-run request-by-request through a
:class:`~repro.resilience.pipeline.ResilientMatcher`, so one poisoned
request degrades itself (retry → backend fallback) without taking the
rest of the batch with it.

Everything the scheduler decides is deterministic in (arrival order,
configuration): batch composition, span-tree shape, and all modeled
timing numbers — the seeded-determinism test pins all three.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.match import MatchResult
from repro.core.pattern_set import PatternSet
from repro.errors import ReproError
from repro.matcher import Matcher
from repro.obs import KernelProfiler, NULL_METRICS, NULL_TRACER
from repro.obs.sketch import LatencySketch
from repro.serve.cache import AutomatonCache, pattern_set_digest
from repro.serve.epoch import Epoch, EpochLease, EpochManager

#: Backends the scheduler can drive a batch on.
SCHEDULER_BACKENDS = ("gpu", "serial", "double_array")


@dataclass(frozen=True)
class ScanRequest:
    """One queued scan: a dictionary reference plus input bytes.

    ``lease`` is set only for requests admitted through
    :meth:`ScanScheduler.submit_named`: it pins the epoch (hence the
    exact automaton version) the request was admitted under, however
    many hot-swaps land before its batch runs.  The scheduler releases
    it when the batch drains.

    ``tenant`` labels the submitter (docs/MODEL.md §12) so the SLO
    plane can decompose latency per tenant; ``enqueued_at`` /
    ``admitted_at`` are stamped from the scheduler's clock at
    submission (for named submissions, admission is when the epoch
    lease was granted).  The remaining lifecycle timestamps
    (batched/completed) live on the mutable :class:`ScanTicket`.
    """

    request_id: int
    digest: str
    patterns: PatternSet
    text: Union[bytes, str]
    case_insensitive: bool = False
    lease: Optional["EpochLease"] = None
    tenant: str = "default"
    enqueued_at: Optional[float] = None
    admitted_at: Optional[float] = None

    @property
    def n_bytes(self) -> int:
        """Input length in bytes."""
        return len(self.text)


class ScanTicket:
    """Future-style handle for a submitted request.

    ``result()`` drains the scheduler if the request has not run yet,
    then returns the request's :class:`MatchResult` — or re-raises the
    typed error if the request's whole fallback chain was exhausted.

    The ticket carries the request's lifecycle timestamps
    (``batched_at``/``completed_at``, stamped from the scheduler's
    clock) and — for GPU batches — the request's modeled pipeline
    share (``pipeline_seconds``: its H2D copy slice plus its prorated
    kernel slice), so every served request decomposes into queue-wait
    vs. pipeline time.
    """

    def __init__(self, scheduler: "ScanScheduler", request: ScanRequest):
        self._scheduler = scheduler
        self.request = request
        self.done = False
        self._result: Optional[MatchResult] = None
        self._error: Optional[BaseException] = None
        self.batched_at: Optional[float] = None
        self.completed_at: Optional[float] = None
        self.pipeline_seconds: Optional[float] = None

    def _resolve(self, result=None, error=None) -> None:
        self.done = True
        self._result = result
        self._error = error

    @property
    def queue_wait_seconds(self) -> Optional[float]:
        """Seconds between submission and batch start (None until
        batched)."""
        if self.batched_at is None or self.request.enqueued_at is None:
            return None
        return self.batched_at - self.request.enqueued_at

    def result(self) -> MatchResult:
        """The request's matches (drains the queue on first call)."""
        if not self.done:
            self._scheduler.drain()
        if self._error is not None:
            raise self._error
        assert self._result is not None
        return self._result


@dataclass
class PipelineTiming:
    """Modeled dual-stream timeline of one batch (docs/MODEL.md §8)."""

    #: Per-request H2D copy seconds, arrival order.
    copy_seconds: List[float] = field(default_factory=list)
    #: Per-request kernel seconds (batch kernel prorated by bytes).
    kernel_seconds: List[float] = field(default_factory=list)
    #: One-time STT upload paid by this batch (0.0 when the binding
    #: was already resident — the cache-hit fast path).
    bind_seconds: float = 0.0
    #: End-to-end modeled time with copy/compute overlap.
    makespan_seconds: float = 0.0
    #: The same work fully serialized (copy; kernel; copy; kernel ...).
    serial_seconds: float = 0.0

    @property
    def overlap_saved_seconds(self) -> float:
        """Serialization removed by the dual-stream overlap."""
        return self.serial_seconds - self.makespan_seconds

    @property
    def copy_exposed_seconds(self) -> float:
        """Copy time left on the critical path (the pipeline's
        ``overlap_leak`` analogue: with perfect overlap only the first
        copy is exposed)."""
        return self.makespan_seconds - sum(self.kernel_seconds)


@dataclass
class BatchReport:
    """Everything one executed batch decided and modeled."""

    digest: str
    request_ids: List[int]
    total_bytes: int
    cache_hit: bool
    bind_skipped: bool
    backend: str
    #: Requests that ran through the per-request resilient path.
    fallback_request_ids: List[int] = field(default_factory=list)
    timing: Optional[PipelineTiming] = None
    matches: int = 0

    @property
    def n_requests(self) -> int:
        """Requests in the batch."""
        return len(self.request_ids)


class ScanScheduler:
    """Batches concurrent scan requests and pipelines their execution.

    Parameters
    ----------
    backend:
        ``"gpu"`` (default; the only backend with a modeled pipeline),
        ``"serial"`` or ``"double_array"`` (batching still amortizes
        automaton builds via the cache).
    cache:
        Optional shared :class:`~repro.serve.cache.AutomatonCache`;
        default: a private cache of ``cache_capacity`` entries.
    cache_capacity:
        Capacity of the private cache when ``cache`` is not given.
    max_batch:
        Largest number of requests fused into one kernel buffer; a
        digest group with more pending requests is split.
    device_config:
        Hardware config for GPU batches (default GTX 285).
    injector:
        Optional fault injector attached to every device the scheduler
        creates (fault campaigns; production never sets this).
    tracer / metrics / profiler:
        Observability hooks, all optional and zero-cost when absent.
        The tracer records ``serve_drain`` → ``serve_batch`` span trees
        (Perfetto-exportable via :func:`repro.obs.to_chrome_trace`);
        metrics gain queue-depth/batch-size series; the profiler
        receives every batch's kernel launch.  When no profiler is
        given the scheduler keeps a private one — the pipeline model
        prices kernel slices from the batch's observed launch.
    tile_len:
        Step-tile size for the tiled streaming engine behind every
        matcher this scheduler builds (default: the engine's).  Peak
        batch-scan memory is O(lanes × tile_len) regardless of how
        large a batch buffer the requests concatenate into.
    stt_backend:
        STT storage backend (dense/compact/banded/bitmap) for every
        matcher this scheduler builds; also part of the automaton
        cache's resident key, so two schedulers sharing one cache
        under different backends never serve each other's tables.
        Default ``None`` resolves to the compact legacy behavior.
    epochs:
        Optional :class:`~repro.serve.epoch.EpochManager` enabling the
        named-submission path (:meth:`submit_named`): a request
        resolves its automaton *version* at admission time and holds a
        refcounted lease on that epoch until its batch drains, so a
        hot-swap landing mid-queue never changes what an already
        admitted request matches against.
    clock:
        Timestamp source for the request lifecycle
        (enqueued/admitted/batched/completed; default
        ``time.monotonic``).  Inject a
        :class:`~repro.obs.slo.ManualClock` for deterministic
        queue-wait numbers in demos and benches.
    slo:
        Optional :class:`~repro.obs.slo.SloTracker`; every completed
        request feeds it three observations — ``queue_wait_seconds``,
        ``pipeline_seconds`` and their sum ``request_seconds`` —
        labeled by the request's tenant and pattern-set digest.
    eventlog:
        Optional :class:`~repro.obs.eventlog.EventLog`; drains and
        batch fallbacks are narrated as structured events.
    """

    def __init__(
        self,
        *,
        backend: str = "gpu",
        cache: Optional[AutomatonCache] = None,
        cache_capacity: int = 8,
        max_batch: int = 32,
        device_config=None,
        injector=None,
        tracer=None,
        metrics=None,
        profiler=None,
        tile_len: Optional[int] = None,
        stt_backend: Optional[str] = None,
        epochs: Optional[EpochManager] = None,
        clock: Callable[[], float] = time.monotonic,
        slo=None,
        eventlog=None,
    ):
        if backend not in SCHEDULER_BACKENDS:
            raise ReproError(
                f"unknown backend {backend!r}; choose from "
                f"{SCHEDULER_BACKENDS}"
            )
        if max_batch < 1:
            raise ReproError(f"max_batch must be >= 1, got {max_batch}")
        self.backend = backend
        self.max_batch = max_batch
        self.tile_len = tile_len
        from repro.compress.backend import resolve_backend

        # Resolved once; every cache lookup/build and every matcher this
        # scheduler constructs uses the same STT storage backend, so the
        # cache's (digest, backend) keys stay coherent per scheduler.
        self.stt_backend = resolve_backend(stt_backend)
        self.device_config = device_config
        self.injector = injector
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.metrics = metrics if metrics is not None else NULL_METRICS
        self.profiler = (
            profiler
            if profiler is not None
            else KernelProfiler(device_config)
        )
        self.cache = cache if cache is not None else AutomatonCache(
            cache_capacity, metrics=self.metrics, tracer=self.tracer
        )
        self.epochs = epochs
        self.clock = clock
        self.slo = slo
        self.eventlog = eventlog
        self._pending: List[Tuple[ScanRequest, ScanTicket]] = []
        self._matchers: Dict[str, Matcher] = {}
        self._epoch_matchers: Dict[str, Tuple[Matcher, Epoch]] = {}
        self._next_id = 0
        self.reports: List[BatchReport] = []
        #: Queue-wait quantiles across every served request.
        self.queue_wait = LatencySketch()
        #: Batches executed per pattern-set digest (full digest key).
        self.batches_by_digest: Dict[str, int] = {}

    # -- submission ------------------------------------------------------

    @property
    def queue_depth(self) -> int:
        """Requests waiting for the next :meth:`drain`."""
        return len(self._pending)

    def submit(
        self,
        patterns: Union[Sequence, PatternSet],
        text: Union[bytes, str],
        *,
        case_insensitive: bool = False,
        tenant: str = "default",
    ) -> ScanTicket:
        """Queue one scan; returns its :class:`ScanTicket`.

        Pattern validation happens here (a malformed dictionary is the
        submitter's error, surfaced synchronously); the automaton build
        is deferred to the batch so repeats of an already-cached
        dictionary never build at all.
        """
        if not isinstance(patterns, PatternSet):
            patterns = PatternSet(patterns)
        now = self.clock()
        request = ScanRequest(
            request_id=self._next_id,
            digest=pattern_set_digest(
                patterns, case_insensitive=case_insensitive
            ),
            patterns=patterns,
            text=text,
            case_insensitive=case_insensitive,
            tenant=tenant,
            enqueued_at=now,
            admitted_at=now,
        )
        return self._enqueue(request)

    def submit_named(
        self, name: str, text: Union[bytes, str], *, tenant: str = "default"
    ) -> ScanTicket:
        """Queue one scan against the registered rule set *name*.

        The request is admitted under the epoch active **now** — its
        version contract.  Swaps that land before the batch runs do not
        retarget it; its lease keeps the admitted epoch's table alive
        until the batch drains.
        """
        if self.epochs is None:
            raise ReproError(
                "submit_named requires an EpochManager; construct the "
                "scheduler with ScanScheduler(epochs=...)"
            )
        lease = self.epochs.admit(name, tenant=tenant)
        admitted_at = self.clock()
        epoch = lease.epoch
        request = ScanRequest(
            request_id=self._next_id,
            digest=epoch.digest,
            patterns=epoch.patterns,
            text=text,
            lease=lease,
            tenant=tenant,
            enqueued_at=admitted_at,
            admitted_at=admitted_at,
        )
        return self._enqueue(request)

    def _enqueue(self, request: ScanRequest) -> ScanTicket:
        self._next_id += 1
        ticket = ScanTicket(self, request)
        self._pending.append((request, ticket))
        self.metrics.counter(
            "serve_requests_total", "scan requests submitted"
        ).inc(backend=self.backend)
        self.metrics.gauge(
            "serve_queue_depth", "requests waiting to be batched"
        ).set(len(self._pending))
        return ticket

    def scan_many(
        self,
        patterns: Union[Sequence, PatternSet],
        texts: Sequence[Union[bytes, str]],
        *,
        case_insensitive: bool = False,
        tenant: str = "default",
    ) -> List[MatchResult]:
        """Submit *texts* against one dictionary and drain; results in
        input order."""
        tickets = [
            self.submit(
                patterns, t, case_insensitive=case_insensitive,
                tenant=tenant,
            )
            for t in texts
        ]
        self.drain()
        return [t.result() for t in tickets]

    def scan_many_named(
        self,
        name: str,
        texts: Sequence[Union[bytes, str]],
        *,
        tenant: str = "default",
    ) -> List[MatchResult]:
        """Submit *texts* against rule set *name* and drain; results in
        input order (all admitted under the same epoch)."""
        tickets = [self.submit_named(name, t, tenant=tenant) for t in texts]
        self.drain()
        return [t.result() for t in tickets]

    # -- batching --------------------------------------------------------

    def _plan_batches(self) -> List[List[Tuple[ScanRequest, ScanTicket]]]:
        """Group pending requests per digest, preserving arrival order.

        Deterministic in arrival order: groups are emitted in order of
        each digest's first arrival, and a group larger than
        ``max_batch`` is split into consecutive slices.
        """
        groups: "Dict[str, List[Tuple[ScanRequest, ScanTicket]]]" = {}
        for item in self._pending:
            groups.setdefault(item[0].digest, []).append(item)
        batches = []
        for digest, items in groups.items():
            for i in range(0, len(items), self.max_batch):
                batches.append(items[i : i + self.max_batch])
        return batches

    def drain(self) -> List[BatchReport]:
        """Run every queued request; returns this drain's batch reports.

        Tickets are resolved in place — a request whose whole fallback
        chain is exhausted gets its typed error (re-raised by
        ``ticket.result()``), never a partial or silently wrong result.
        """
        if not self._pending:
            return []
        batches = self._plan_batches()
        self._pending = []
        reports: List[BatchReport] = []
        with self.tracer.span(
            "serve_drain",
            n_requests=sum(len(b) for b in batches),
            n_batches=len(batches),
        ):
            for batch in batches:
                try:
                    reports.append(self._run_batch(batch))
                finally:
                    self._release_batch(batch)
        self.metrics.gauge(
            "serve_queue_depth", "requests waiting to be batched"
        ).set(0)
        self.reports.extend(reports)
        if self.eventlog is not None:
            self.eventlog.info(
                "serve_drain",
                n_requests=sum(r.n_requests for r in reports),
                n_batches=len(reports),
                fallback_requests=sum(
                    len(r.fallback_request_ids) for r in reports
                ),
            )
        return reports

    def _release_batch(self, batch) -> None:
        """Release every epoch lease the batch held.

        This is the refcount drain that lets the epoch manager retire a
        superseded epoch (freeing its STT) the moment its last in-flight
        batch completes.  Matchers pinned to epochs that no longer hold
        tables are dropped with them.
        """
        if self.epochs is None:
            return
        released = False
        for request, _ in batch:
            if request.lease is not None:
                self.epochs.release(request.lease)
                released = True
        if released:
            for digest in [
                d
                for d, (_, epoch) in self._epoch_matchers.items()
                if not epoch.holds_table
            ]:
                del self._epoch_matchers[digest]

    # -- execution -------------------------------------------------------

    def _matcher_for(self, request: ScanRequest) -> Tuple[Matcher, bool, bool]:
        """``(matcher, cache_hit, bind_resident)`` for a request's digest.

        ``bind_resident`` is True when the digest's matcher already has
        its STT texture-bound from a previous batch — the repeat-path
        that skips both build and bind.  Epoch-leased requests bypass
        the LRU cache: their automaton is the leased epoch's verified
        table (one per live epoch, dropped at retirement), so two
        versions of one rule set can serve side by side during a swap.
        """
        if request.lease is not None:
            return self._epoch_matcher_for(request)
        digest = request.digest
        matcher = self._matchers.get(digest)
        if matcher is not None:
            # cache.get re-verifies row checksums; a corrupted entry
            # comes back as a miss (evicted) and is rebuilt below.
            entry = self.cache.get(digest, stt_backend=self.stt_backend)
            if entry is not None:
                bind_resident = (
                    matcher.device is not None
                    and matcher.device.texture is not None
                )
                return matcher, True, bind_resident
            # Evicted behind our back: rebuild through the cache below.
            self._matchers.pop(digest, None)
        entry, hit = self.cache.get_or_build(
            request.patterns,
            case_insensitive=request.case_insensitive,
            stt_backend=self.stt_backend,
        )
        matcher = Matcher.from_dfa(
            entry.dfa,
            backend=self.backend,
            case_insensitive=request.case_insensitive,
            tracer=self.tracer,
            metrics=self.metrics,
            profiler=self.profiler,
            tile_len=self.tile_len,
            stt_backend=self.stt_backend,
        )
        if self.backend == "gpu":
            from repro.gpu.device import Device

            matcher.device = Device(
                self.device_config,
                injector=self.injector,
                tracer=self.tracer,
            )
        self._matchers[digest] = matcher
        # Matchers follow their cache entry's lifetime.
        for stale in [d for d in self._matchers if d not in self.cache]:
            del self._matchers[stale]
        return matcher, hit, False

    def _epoch_matcher_for(
        self, request: ScanRequest
    ) -> Tuple[Matcher, bool, bool]:
        """Matcher pinned to the request's leased epoch."""
        epoch = request.lease.epoch
        cached = self._epoch_matchers.get(request.digest)
        if cached is not None:
            matcher, _ = cached
            bind_resident = (
                matcher.device is not None
                and matcher.device.texture is not None
            )
            return matcher, True, bind_resident
        built = self.epochs.built_for(epoch)
        matcher = Matcher.from_dfa(
            built.dfa,
            backend=self.backend,
            tracer=self.tracer,
            metrics=self.metrics,
            profiler=self.profiler,
            tile_len=self.tile_len,
            stt_backend=self.stt_backend,
        )
        if self.backend == "gpu":
            from repro.gpu.device import Device

            matcher.device = Device(
                self.device_config,
                injector=self.injector,
                tracer=self.tracer,
            )
        self._epoch_matchers[request.digest] = (matcher, epoch)
        return matcher, False, False

    def _run_batch(self, batch) -> BatchReport:
        requests = [r for r, _ in batch]
        tickets = [t for _, t in batch]
        digest = requests[0].digest
        total_bytes = sum(r.n_bytes for r in requests)
        batched_at = self.clock()
        for ticket in tickets:
            ticket.batched_at = batched_at
        with self.tracer.span(
            "serve_batch",
            digest=digest[:12],
            n_requests=len(requests),
            total_bytes=total_bytes,
            backend=self.backend,
        ) as sp:
            matcher, cache_hit, bind_resident = self._matcher_for(requests[0])
            sp.set(cache_hit=cache_hit, bind_skipped=bind_resident)
            report = BatchReport(
                digest=digest,
                request_ids=[r.request_id for r in requests],
                total_bytes=total_bytes,
                cache_hit=cache_hit,
                bind_skipped=bind_resident,
                backend=self.backend,
            )
            texts = [r.text for r in requests]
            try:
                results = matcher.scan_many(texts)
            except ReproError:
                results = self._fallback_batch(matcher, requests, tickets)
                report.fallback_request_ids = [
                    r.request_id
                    for r, t in zip(requests, tickets)
                    if t.done and t._error is None
                ]
                report.matches = sum(
                    len(t._result) for t in tickets
                    if t.done and t._result is not None
                )
                sp.set(fallback=True, matches=report.matches)
                self._observe_requests(report, requests, tickets)
                self._record_batch_metrics(report)
                if self.eventlog is not None:
                    self.eventlog.warning(
                        "serve_batch_fallback",
                        digest=digest[:12],
                        n_requests=len(requests),
                        recovered=len(report.fallback_request_ids),
                    )
                return report
            for ticket, result in zip(tickets, results):
                ticket._resolve(result=result)
            report.matches = sum(len(r) for r in results)
            if self.backend == "gpu":
                report.timing = self._model_pipeline(
                    matcher, requests, bind_resident
                )
                sp.set(
                    makespan_seconds=report.timing.makespan_seconds,
                    serial_seconds=report.timing.serial_seconds,
                    overlap_saved_seconds=(
                        report.timing.overlap_saved_seconds
                    ),
                    copy_exposed_seconds=(
                        report.timing.copy_exposed_seconds
                    ),
                )
            sp.set(matches=report.matches)
        self._observe_requests(report, requests, tickets)
        self._record_batch_metrics(report)
        return report

    def _observe_requests(self, report, requests, tickets) -> None:
        """Stamp completion and feed the per-request telemetry plane.

        Each request's latency decomposes as queue-wait (submission →
        batch start, from the scheduler's clock) plus pipeline time:
        for GPU batches the request's modeled H2D copy + prorated
        kernel slice (+ its even share of any STT bind), otherwise the
        batch's wall-clock duration prorated by bytes.  The sum is fed
        to the SLO tracker as ``request_seconds`` per (tenant, digest).
        """
        completed_at = self.clock()
        timing = report.timing
        wall = None
        if timing is None and tickets and tickets[0].batched_at is not None:
            wall = completed_at - tickets[0].batched_at
        total_bytes = max(report.total_bytes, 1)
        for i, (request, ticket) in enumerate(zip(requests, tickets)):
            ticket.completed_at = completed_at
            if timing is not None:
                pipeline = (
                    timing.copy_seconds[i]
                    + timing.kernel_seconds[i]
                    + timing.bind_seconds / len(requests)
                )
            elif wall is not None:
                pipeline = wall * (request.n_bytes / total_bytes)
            else:
                pipeline = 0.0
            ticket.pipeline_seconds = pipeline
            wait = ticket.queue_wait_seconds
            if wait is None:
                continue
            self.queue_wait.observe(wait)
            self.metrics.histogram(
                "serve_queue_wait_seconds",
                "submission-to-batch-start wait per request",
            ).observe(wait, backend=self.backend)
            if self.slo is not None:
                kwargs = dict(
                    tenant=request.tenant,
                    digest=request.digest,
                    t=completed_at,
                )
                self.slo.observe("queue_wait_seconds", wait, **kwargs)
                self.slo.observe("pipeline_seconds", pipeline, **kwargs)
                self.slo.observe(
                    "request_seconds", wait + pipeline, **kwargs
                )

    def _fallback_batch(self, matcher, requests, tickets):
        """Per-request resilient re-run after a failed batch pass.

        Each request gets its own retry/fallback episode
        (:meth:`~repro.resilience.pipeline.ResilientMatcher.scan_many`
        with ``return_exceptions=True``), so one poisoned request
        cannot take down its batchmates.
        """
        from repro.resilience.pipeline import DEFAULT_CHAIN, ResilientMatcher

        chain = (
            DEFAULT_CHAIN[DEFAULT_CHAIN.index(self.backend):]
            if self.backend in DEFAULT_CHAIN
            else DEFAULT_CHAIN
        )
        rm = ResilientMatcher(
            matcher,
            chain=chain,
            injector=self.injector,
            device_config=self.device_config,
            tracer=self.tracer,
            metrics=self.metrics,
        )
        outcomes = rm.scan_many(
            [r.text for r in requests], return_exceptions=True
        )
        for ticket, outcome in zip(tickets, outcomes):
            if isinstance(outcome, MatchResult):
                ticket._resolve(result=outcome)
            else:
                ticket._resolve(error=outcome)
        self.metrics.counter(
            "serve_fallback_requests_total",
            "requests served through the per-request resilient path",
        ).inc(len(requests), backend=self.backend)
        return outcomes

    def _model_pipeline(
        self, matcher: Matcher, requests, bind_resident: bool
    ) -> PipelineTiming:
        """Price the batch's dual-stream timeline on the matcher's device.

        The functional kernel already ran (once, over the concatenated
        buffer); this models how the same work *schedules*: H2D copies
        double-buffered on a copy stream, per-request kernel slices on
        a compute stream gated by each copy's completion event.
        """
        device = matcher.device
        last = self.profiler.last
        kernel_seconds = last.seconds if last is not None else 0.0
        sizes = [r.n_bytes for r in requests]
        total = max(sum(sizes), 1)
        timing = PipelineTiming(
            bind_seconds=(
                0.0
                if bind_resident
                else device.copy_h2d_seconds(device.texture.bytes_total)
                if device.texture is not None
                else 0.0
            ),
        )
        copy_stream = device.stream("h2d")
        compute_stream = device.stream("compute")
        for i, nbytes in enumerate(sizes):
            k_i = kernel_seconds * (nbytes / total)
            timing.copy_seconds.append(device.copy_h2d_seconds(nbytes))
            timing.kernel_seconds.append(k_i)
            if nbytes == 0:
                continue
            ev = copy_stream.enqueue_copy(nbytes, name=f"copy_req{i}")
            compute_stream.wait_event(ev)
            compute_stream.enqueue_kernel(k_i, name=f"kernel_req{i}")
        timing.makespan_seconds = (
            compute_stream.synchronize() + timing.bind_seconds
        )
        timing.serial_seconds = timing.bind_seconds + sum(
            c + k
            for c, k in zip(timing.copy_seconds, timing.kernel_seconds)
        )
        return timing

    # -- reporting -------------------------------------------------------

    def _record_batch_metrics(self, report: BatchReport) -> None:
        self.batches_by_digest[report.digest] = (
            self.batches_by_digest.get(report.digest, 0) + 1
        )
        self.metrics.counter(
            "serve_batches_total", "batches executed"
        ).inc(backend=self.backend)
        self.metrics.histogram(
            "serve_batch_size", "requests fused per batch"
        ).observe(report.n_requests, backend=self.backend)
        if report.timing is not None:
            self.metrics.gauge(
                "serve_overlap_saved_seconds",
                "last batch's modeled copy/compute overlap savings",
            ).set(report.timing.overlap_saved_seconds)

    def summary(self) -> Dict[str, object]:
        """Aggregate serving stats (demo CLI, tests)."""
        timings = [r.timing for r in self.reports if r.timing is not None]
        return {
            "requests": sum(r.n_requests for r in self.reports),
            "batches": len(self.reports),
            "batch_sizes": [r.n_requests for r in self.reports],
            "batches_by_digest": {
                digest[:12]: count
                for digest, count in sorted(self.batches_by_digest.items())
            },
            "cache_hits": self.cache.hits,
            "cache_misses": self.cache.misses,
            "cache_evictions": self.cache.evictions,
            "fallback_requests": sum(
                len(r.fallback_request_ids) for r in self.reports
            ),
            "queue_wait": self.queue_wait.summary(),
            "makespan_seconds": sum(t.makespan_seconds for t in timings),
            "serial_seconds": sum(t.serial_seconds for t in timings),
            "overlap_saved_seconds": sum(
                t.overlap_saved_seconds for t in timings
            ),
        }

    def queue_stats(self) -> Dict[str, object]:
        """The queue block of :func:`repro.obs.slo.statusz`."""
        return {
            "depth": self.queue_depth,
            "batches_by_digest": {
                digest[:12]: count
                for digest, count in sorted(self.batches_by_digest.items())
            },
            "queue_wait": self.queue_wait.summary(),
        }
