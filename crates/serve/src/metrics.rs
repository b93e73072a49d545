//! Server telemetry on the lock-free `sdp-metrics` registry.
//!
//! PR 5 kept every counter behind one global `Mutex<Inner>`; at the
//! roadmap's target load that mutex is a contention point every
//! connection thread, the dispatcher, and every pool worker would
//! serialize on.  This module rebuilds the same telemetry — plus
//! latency histograms, per-phase request spans, per-class batch-size
//! histograms, pool/queue/cache instrumentation, and a
//! slowest-requests ring — on sharded atomic counters and log₂
//! histograms.  **No recording method below takes a lock**; the only
//! mutexes in sight are the registry's (registration/export time only)
//! and the slow ring's (guarded by an atomic floor so the common case
//! is one load).
//!
//! Two exporters share the counters:
//! - [`Metrics::to_json`]: the `metrics` request's JSON document.
//!   Fields are only ever appended; the one removal is the legacy
//!   `17_plus` batch-overflow twin of `gt_16`.
//! - [`Metrics::render_prometheus`]: a Prometheus text exposition for
//!   the `metrics_text` request.
//!
//! Field naming still follows the golden-test redaction convention:
//! every wall-clock value lives in a field whose name contains `ms`,
//! load-dependent sample counts in fields named `samples`, so the
//! shared `redact_load_dependent()` helper in
//! `crates/bench/tests/support` can null the host-dependent numbers
//! while the schema stays byte-comparable.

use crate::engine::EngineKind;
use crate::protocol::{Class, CLASSES};
use crate::queue::FLUSH_REASONS;
use sdp_metrics::{
    us_to_ms, Counter, Gauge, Histogram, HistogramSnapshot, Registry, SlowRing, SpanSample,
};
use sdp_par::PoolStats;
use sdp_trace::json::Json;
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Duration;

/// Request phases attributed by the span pipeline, in timeline order:
/// `coalesce` (admission → bucket flush, the delay-window wait),
/// `queue` (flush → a pool worker picks the bucket up), `engine`
/// (the systolic run itself), `respond` (engine done → the connection
/// thread has the reply in hand).
pub const PHASES: [&str; 4] = ["coalesce", "queue", "engine", "respond"];

/// JSON labels for the batch-size histogram buckets, aligned with the
/// log₂ bounds 1, 2, 4, 8, 16 and the unbounded overflow, which
/// carries the explicit `gt_16` label.
pub const BATCH_BUCKET_LABELS: [&str; 6] = ["1", "2", "3_4", "5_8", "9_16", "gt_16"];

/// Slowest-requests ring capacity.
pub const SLOW_RING_CAP: usize = 8;

struct ClassMetrics {
    requests: Arc<Counter>,
    errors: Arc<Counter>,
    batches: Arc<Counter>,
    /// End-to-end latency (admission → completion) in µs.
    latency: Arc<Histogram>,
    /// Coalesced batch sizes this class's requests rode in.
    batch_sizes: Arc<Histogram>,
    /// One histogram per entry of [`PHASES`], in µs.
    phases: [Arc<Histogram>; PHASES.len()],
    /// Queue-wait of requests that *expired* at dispatch, in µs.  Kept
    /// apart from `latency`: an expiration never ran an engine, so
    /// folding its wait into the completed-latency series would skew
    /// p99 with samples that measure only queue pressure.
    expired_wait: Arc<Histogram>,
    /// Circuit-breaker state gauge (0 closed, 1 half-open, 2 open).
    breaker_state: Arc<Gauge>,
    /// Times this class's breaker tripped open.
    breaker_trips: Arc<Counter>,
    /// Buckets routed to each backend, indexed [sim, direct].
    engines: [Arc<Counter>; 2],
}

/// The server's metrics surface: lock-free to record, lock-only-to-export.
pub struct Metrics {
    registry: Registry,
    served: Arc<Counter>,
    errors: Arc<Counter>,
    cache_hits: Arc<Counter>,
    cache_misses: Arc<Counter>,
    cache_evictions: Arc<Counter>,
    rejected_queue_full: Arc<Counter>,
    rejected_overloaded: Arc<Counter>,
    rejected_circuit_open: Arc<Counter>,
    malformed: Arc<Counter>,
    oversized: Arc<Counter>,
    deadline_exceeded: Arc<Counter>,
    degraded: Arc<Counter>,
    connections: Arc<Gauge>,
    reaped: Arc<Counter>,
    /// Failed accepts: `accept` itself erring (e.g. EMFILE/ENFILE when
    /// descriptors run out; the acceptor backs off one tick per
    /// failure) and accepted sockets dropped because post-accept setup
    /// (`set_nonblocking`) failed — without this counter both vanished
    /// with no metric or log.
    accept_failures: Arc<Counter>,
    chaos: Vec<Arc<Counter>>,
    dispatches: Arc<Counter>,
    /// Buckets flushed by the admission queue, indexed by
    /// [`FlushReason`](crate::queue::FlushReason); the queue counts
    /// into these handles.
    queue_flushes: [Arc<Counter>; FLUSH_REASONS.len()],
    max_coalesced: Arc<Gauge>,
    /// Class-agnostic admission-queue wait (the coalesce phase), µs.
    queue_wait: Arc<Histogram>,
    /// Class-agnostic end-to-end completed latency, µs — the series
    /// behind the top-level p50/p99 the saturation benchmark reads.
    latency: Arc<Histogram>,
    per_class: Vec<ClassMetrics>,
    pool: PoolStats,
    slowest: SlowRing,
}

impl std::fmt::Debug for Metrics {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Metrics")
            .field("served", &self.served.get())
            .field("errors", &self.errors.get())
            .finish()
    }
}

impl Metrics {
    /// Fresh all-zero metrics for a server with `workers` pool workers.
    pub fn new(workers: usize) -> Metrics {
        let registry = Registry::new();
        let rejected = |reason: &str| registry.counter("sdp_rejected_total", &[("reason", reason)]);
        let per_class = CLASSES
            .iter()
            .map(|class| {
                let name = class.name();
                let l = [("class", name)];
                ClassMetrics {
                    requests: registry.counter("sdp_requests_total", &l),
                    errors: registry.counter("sdp_request_errors_total", &l),
                    batches: registry.counter("sdp_batches_total", &l),
                    latency: registry.histogram(
                        "sdp_request_latency_us",
                        &l,
                        sdp_metrics::hist::LATENCY_BUCKETS,
                    ),
                    batch_sizes: registry.histogram(
                        "sdp_batch_size",
                        &l,
                        BATCH_BUCKET_LABELS.len(),
                    ),
                    phases: PHASES.map(|phase| {
                        registry.histogram(
                            "sdp_phase_us",
                            &[("class", name), ("phase", phase)],
                            sdp_metrics::hist::LATENCY_BUCKETS,
                        )
                    }),
                    expired_wait: registry.histogram(
                        "sdp_expired_wait_us",
                        &l,
                        sdp_metrics::hist::LATENCY_BUCKETS,
                    ),
                    breaker_state: registry.gauge("sdp_breaker_state", &l),
                    breaker_trips: registry.counter("sdp_breaker_trips_total", &l),
                    engines: ["sim", "direct"].map(|engine| {
                        registry.counter(
                            "sdp_engine_batches_total",
                            &[("class", name), ("engine", engine)],
                        )
                    }),
                }
            })
            .collect();
        Metrics {
            served: registry.counter("sdp_served_total", &[]),
            errors: registry.counter("sdp_errors_total", &[]),
            cache_hits: registry.counter("sdp_cache_hits_total", &[]),
            cache_misses: registry.counter("sdp_cache_misses_total", &[]),
            cache_evictions: registry.counter("sdp_cache_evictions_total", &[]),
            rejected_queue_full: rejected("queue_full"),
            rejected_overloaded: rejected("overloaded"),
            rejected_circuit_open: rejected("circuit_open"),
            malformed: rejected("malformed"),
            oversized: rejected("oversized"),
            deadline_exceeded: registry.counter("sdp_deadline_exceeded_total", &[]),
            degraded: registry.counter("sdp_degraded_total", &[]),
            connections: registry.gauge("sdp_connections", &[]),
            reaped: registry.counter("sdp_reaped_connections_total", &[]),
            accept_failures: registry.counter("sdp_accept_failures_total", &[]),
            chaos: sdp_fault::CHAOS_KINDS
                .iter()
                .map(|kind| registry.counter("sdp_chaos_injected_total", &[("kind", kind)]))
                .collect(),
            dispatches: registry.counter("sdp_dispatches_total", &[]),
            queue_flushes: FLUSH_REASONS.map(|reason| {
                registry.counter("sdp_queue_flushes_total", &[("reason", reason.name())])
            }),
            max_coalesced: registry.gauge("sdp_max_coalesced", &[]),
            queue_wait: registry.histogram(
                "sdp_queue_wait_us",
                &[],
                sdp_metrics::hist::LATENCY_BUCKETS,
            ),
            latency: registry.histogram("sdp_latency_us", &[], sdp_metrics::hist::LATENCY_BUCKETS),
            per_class,
            pool: PoolStats::new(workers),
            slowest: SlowRing::new(SLOW_RING_CAP),
            registry,
        }
    }

    /// Registers the admission queue's depth gauge (owned by the
    /// queue, exported here) under `sdp_queue_depth`.
    pub fn register_queue_gauge(&self, gauge: Arc<Gauge>) {
        self.registry.register_gauge("sdp_queue_depth", &[], gauge);
    }

    /// The `sdp_queue_flushes_total` series, for the admission queue
    /// to count into.
    pub fn queue_flush_counters(&self) -> [Arc<Counter>; FLUSH_REASONS.len()] {
        self.queue_flushes.clone()
    }

    /// The dispatcher's per-worker pool telemetry lanes.
    pub fn pool_stats(&self) -> &PoolStats {
        &self.pool
    }

    fn class(&self, class: Class) -> &ClassMetrics {
        &self.per_class[class.index()]
    }

    /// Records a cache hit (served without queueing).
    pub fn cache_hit(&self, class: Class) {
        self.cache_hits.inc();
        self.served.inc();
        self.class(class).requests.inc();
    }

    /// Records a cache miss (request admitted to the queue).
    pub fn cache_miss(&self) {
        self.cache_misses.inc();
    }

    /// Records an eviction from the LRU result cache.
    pub fn cache_evicted(&self) {
        self.cache_evictions.inc();
    }

    /// Records an admission rejection for backpressure.
    pub fn rejected_queue_full(&self) {
        self.rejected_queue_full.inc();
    }

    /// Records a request shed at admission (`overloaded`).
    pub fn rejected_overloaded(&self) {
        self.rejected_overloaded.inc();
    }

    /// Records a fast-reject from an open circuit breaker.
    pub fn rejected_circuit_open(&self) {
        self.rejected_circuit_open.inc();
    }

    /// Records a job expired at dispatch time (deadline exceeded
    /// before any engine work was spent on it).  The request is
    /// answered (counts toward `served`/`errors` and the class's
    /// request/error counters), but its wait goes into the dedicated
    /// `sdp_expired_wait_us` series — **not** the completed-latency
    /// histograms, which must only measure requests an engine ran.
    pub fn expired(&self, class: Class, waited: Duration) {
        self.deadline_exceeded.inc();
        self.served.inc();
        self.errors.inc();
        let c = self.class(class);
        c.requests.inc();
        c.errors.inc();
        c.expired_wait.record(waited.as_micros() as u64);
    }

    /// Records a failed accept: an `accept` error or an accepted socket
    /// dropped because post-accept setup failed.
    pub fn accept_failed(&self) {
        self.accept_failures.inc();
    }

    /// Accept-failure count so far (test hook).
    pub fn accept_failures_count(&self) -> u64 {
        self.accept_failures.get()
    }

    /// Records a request answered by the degraded oracle fallback
    /// while this class's breaker was open.  Counts as served: the
    /// client got a correct (if slower-path) answer.
    pub fn degraded(&self, class: Class) {
        self.degraded.inc();
        self.served.inc();
        self.class(class).requests.inc();
    }

    /// Records a connection accepted.
    pub fn connection_opened(&self) {
        self.connections.add(1);
    }

    /// Records a connection closed (any reason).
    pub fn connection_closed(&self) {
        self.connections.add(-1);
    }

    /// Live connection count (test hook).
    pub fn active_connections(&self) -> i64 {
        self.connections.get()
    }

    /// Records an idle/slow connection reaped by the read-timeout
    /// watchdog.
    pub fn reaped(&self) {
        self.reaped.inc();
    }

    /// Reaped-connection count so far (test hook).
    pub fn reaped_count(&self) -> u64 {
        self.reaped.get()
    }

    /// Records one injected chaos event (`kind` must be one of
    /// [`sdp_fault::CHAOS_KINDS`]).
    pub fn chaos_injected(&self, kind: &str) {
        if let Some(i) = sdp_fault::CHAOS_KINDS.iter().position(|&k| k == kind) {
            self.chaos[i].inc();
        }
    }

    /// The breaker metrics series for one class, for wiring into a
    /// [`CircuitBreaker`](crate::breaker::CircuitBreaker).
    pub fn breaker_series(&self, class: Class) -> (Arc<Gauge>, Arc<Counter>) {
        let c = self.class(class);
        (Arc::clone(&c.breaker_state), Arc::clone(&c.breaker_trips))
    }

    /// Records a protocol decode failure.
    pub fn malformed(&self) {
        self.malformed.inc();
    }

    /// Records an oversized request line.
    pub fn oversized(&self) {
        self.oversized.inc();
    }

    /// Records one dispatched batch of `size` coalesced requests and
    /// the backend it was routed to.
    pub fn dispatched_batch(&self, class: Class, size: usize, engine: EngineKind) {
        self.dispatches.inc();
        self.max_coalesced.raise_to(size as i64);
        let c = self.class(class);
        c.batches.inc();
        c.batch_sizes.record(size as u64);
        c.engines[match engine {
            EngineKind::Sim => 0,
            EngineKind::Direct => 1,
        }]
        .inc();
    }

    /// Records one completed request with its queue-to-response latency.
    pub fn completed(&self, class: Class, ok: bool, latency: Duration) {
        self.served.inc();
        if !ok {
            self.errors.inc();
        }
        let c = self.class(class);
        c.requests.inc();
        if !ok {
            c.errors.inc();
        }
        let us = latency.as_micros() as u64;
        c.latency.record(us);
        self.latency.record(us);
    }

    /// Records the dispatcher-side phases of one request's span:
    /// coalesce (delay-window wait), queue (wait for a pool worker),
    /// and engine time, all in µs.
    pub fn record_dispatch_phases(
        &self,
        class: Class,
        coalesce_us: u64,
        queue_us: u64,
        engine_us: u64,
    ) {
        let c = self.class(class);
        c.phases[0].record(coalesce_us);
        c.phases[1].record(queue_us);
        c.phases[2].record(engine_us);
        self.queue_wait.record(coalesce_us);
    }

    /// Records the respond phase (engine done → reply in the
    /// connection thread) and offers the whole span to the
    /// slowest-requests ring.
    pub fn record_respond(
        &self,
        class: Class,
        coalesce_us: u64,
        queue_us: u64,
        engine_us: u64,
        respond_us: u64,
        total_us: u64,
    ) {
        self.class(class).phases[3].record(respond_us);
        self.slowest.offer(SpanSample {
            label: class.name(),
            total_us,
            phases: vec![
                (PHASES[0], coalesce_us),
                (PHASES[1], queue_us),
                (PHASES[2], engine_us),
                (PHASES[3], respond_us),
            ],
        });
    }

    /// Cache hits so far (for tests and drain decisions).
    pub fn cache_hits(&self) -> u64 {
        self.cache_hits.get()
    }

    /// Largest coalesced batch dispatched so far.
    pub fn max_coalesced(&self) -> u64 {
        self.max_coalesced.get().max(0) as u64
    }

    fn phase_json(snap: &HistogramSnapshot) -> Json {
        Json::object()
            .with("samples", snap.count)
            .with("total_ms", us_to_ms(snap.sum))
            .with("mean_ms", us_to_ms(snap.sum) / (snap.count.max(1) as f64))
            .with("p50_ms", us_to_ms(snap.quantile(0.50)))
            .with("p99_ms", us_to_ms(snap.quantile(0.99)))
            .with("max_ms", us_to_ms(snap.max))
    }

    fn batch_hist_json(snap: &HistogramSnapshot) -> Json {
        let mut hist = Json::object();
        for (i, label) in BATCH_BUCKET_LABELS.iter().enumerate() {
            hist = hist.with(label, snap.counts[i]);
        }
        hist
    }

    /// Renders the full JSON snapshot; `queue_depth` is sampled by the
    /// caller from the admission queue at render time.
    pub fn to_json(&self, queue_depth: usize) -> Json {
        // Global batch-size histogram = sum of the per-class ones.
        let mut global_batches = HistogramSnapshot::empty(BATCH_BUCKET_LABELS.len());
        for c in &self.per_class {
            global_batches.merge(&c.batch_sizes.snapshot());
        }
        let hist = Self::batch_hist_json(&global_batches);

        let hits = self.cache_hits.get();
        let misses = self.cache_misses.get();
        let lookups = hits + misses;
        let mut classes = Json::object();
        for class in CLASSES {
            let c = self.class(class);
            let lat = c.latency.snapshot();
            let mut phases = Json::object();
            for (i, phase) in PHASES.iter().enumerate() {
                phases = phases.with(phase, Self::phase_json(&c.phases[i].snapshot()));
            }
            classes = classes.with(
                class.name(),
                Json::object()
                    .with("requests", c.requests.get())
                    .with("errors", c.errors.get())
                    .with("batches", c.batches.get())
                    .with(
                        "engine",
                        Json::object()
                            .with("sim", c.engines[0].get())
                            .with("direct", c.engines[1].get()),
                    )
                    .with(
                        "breaker",
                        Json::object()
                            .with("state", c.breaker_state.get())
                            .with("trips", c.breaker_trips.get()),
                    )
                    .with("mean_ms", us_to_ms(lat.sum) / (lat.count.max(1) as f64))
                    .with("max_ms", us_to_ms(lat.max))
                    .with("total_ms", us_to_ms(lat.sum))
                    .with("p50_ms", us_to_ms(lat.quantile(0.50)))
                    .with("p90_ms", us_to_ms(lat.quantile(0.90)))
                    .with("p99_ms", us_to_ms(lat.quantile(0.99)))
                    .with(
                        "batch_size_histogram",
                        Self::batch_hist_json(&c.batch_sizes.snapshot()),
                    )
                    .with("phases", phases)
                    .with("expired_wait", Self::phase_json(&c.expired_wait.snapshot())),
            );
        }

        let workers = self.pool.workers();
        let lane = |f: fn(&sdp_par::WorkerStats) -> u64| {
            Json::Array(workers.iter().map(|w| Json::from(f(w))).collect())
        };
        let pool = Json::object()
            .with("workers", workers.len() as u64)
            .with("ran", lane(sdp_par::WorkerStats::ran))
            .with("stolen", lane(sdp_par::WorkerStats::stolen))
            .with("parked", lane(sdp_par::WorkerStats::parked))
            .with("panicked", lane(sdp_par::WorkerStats::panicked));

        let slowest = Json::Array(
            self.slowest
                .snapshot()
                .into_iter()
                .map(|s| {
                    let mut phases = Json::object();
                    for (phase, us) in &s.phases {
                        phases = phases.with(&format!("{phase}_ms"), us_to_ms(*us));
                    }
                    Json::object()
                        .with("class", s.label)
                        .with("total_ms", us_to_ms(s.total_us))
                        .with("phases", phases)
                })
                .collect(),
        );

        let qwait = self.queue_wait.snapshot();
        Json::object()
            .with("served", self.served.get())
            .with("errors", self.errors.get())
            .with("queue_depth", queue_depth)
            .with("dispatches", self.dispatches.get())
            .with("flushes", {
                let mut flushes = Json::object();
                for (reason, counter) in FLUSH_REASONS.iter().zip(&self.queue_flushes) {
                    flushes = flushes.with(reason.name(), counter.get());
                }
                flushes
            })
            .with("max_coalesced", self.max_coalesced())
            .with("batch_size_histogram", hist)
            .with(
                "cache",
                Json::object()
                    .with("hits", hits)
                    .with("misses", misses)
                    .with(
                        "hit_rate",
                        if lookups > 0 {
                            hits as f64 / lookups as f64
                        } else {
                            0.0
                        },
                    )
                    .with("evictions", self.cache_evictions.get()),
            )
            .with(
                "rejected",
                Json::object()
                    .with("queue_full", self.rejected_queue_full.get())
                    .with("overloaded", self.rejected_overloaded.get())
                    .with("circuit_open", self.rejected_circuit_open.get())
                    .with("malformed", self.malformed.get())
                    .with("oversized", self.oversized.get()),
            )
            .with("deadline_exceeded", self.deadline_exceeded.get())
            .with("degraded", self.degraded.get())
            .with("connections", self.connections.get())
            .with("reaped", self.reaped.get())
            .with("accept_failures", self.accept_failures.get())
            .with("chaos", {
                let mut chaos = Json::object();
                for (i, kind) in sdp_fault::CHAOS_KINDS.iter().enumerate() {
                    chaos = chaos.with(kind, self.chaos[i].get());
                }
                chaos
            })
            .with("classes", classes)
            .with("queue_wait", Self::phase_json(&qwait))
            .with("latency", Self::phase_json(&self.latency.snapshot()))
            .with("pool", pool)
            .with("slowest", slowest)
    }

    /// Renders the Prometheus text exposition for the `metrics_text`
    /// request: every registered series plus the per-worker pool lanes.
    pub fn render_prometheus(&self) -> String {
        let mut out = self.registry.render_prometheus();
        let _ = writeln!(out, "# TYPE sdp_pool_tasks_total counter");
        for (w, lane) in self.pool.workers().iter().enumerate() {
            let _ = writeln!(
                out,
                "sdp_pool_tasks_total{{worker=\"{w}\",kind=\"ran\"}} {}",
                lane.ran()
            );
            let _ = writeln!(
                out,
                "sdp_pool_tasks_total{{worker=\"{w}\",kind=\"stolen\"}} {}",
                lane.stolen()
            );
        }
        let _ = writeln!(out, "# TYPE sdp_pool_parked_total counter");
        for (w, lane) in self.pool.workers().iter().enumerate() {
            let _ = writeln!(
                out,
                "sdp_pool_parked_total{{worker=\"{w}\"}} {}",
                lane.parked()
            );
        }
        let _ = writeln!(out, "# TYPE sdp_pool_panicked_total counter");
        for (w, lane) in self.pool.workers().iter().enumerate() {
            let _ = writeln!(
                out,
                "sdp_pool_panicked_total{{worker=\"{w}\"}} {}",
                lane.panicked()
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;
    use std::sync::Arc as StdArc;

    #[test]
    fn snapshot_has_the_documented_schema() {
        let m = Metrics::new(4);
        m.cache_miss();
        m.dispatched_batch(Class::Edit, 3, EngineKind::Direct);
        m.completed(Class::Edit, true, Duration::from_millis(2));
        m.cache_hit(Class::Edit);
        let doc = m.to_json(5);
        assert_eq!(json::as_i64(json::get(&doc, "served").unwrap()), Some(2));
        assert_eq!(
            json::as_i64(json::get(&doc, "queue_depth").unwrap()),
            Some(5)
        );
        let hist = json::get(&doc, "batch_size_histogram").unwrap();
        assert_eq!(json::as_i64(json::get(hist, "3_4").unwrap()), Some(1));
        let cache = json::get(&doc, "cache").unwrap();
        assert_eq!(json::as_i64(json::get(cache, "hits").unwrap()), Some(1));
        assert_eq!(
            json::as_i64(json::get(cache, "evictions").unwrap()),
            Some(0)
        );
        let classes = json::get(&doc, "classes").unwrap();
        let edit = json::get(classes, "edit").unwrap();
        assert_eq!(json::as_i64(json::get(edit, "requests").unwrap()), Some(2));
        assert_eq!(json::as_i64(json::get(edit, "batches").unwrap()), Some(1));
        // New PR 6 fields are present alongside the old schema.
        for field in ["p50_ms", "p90_ms", "p99_ms", "total_ms", "phases"] {
            assert!(json::get(edit, field).is_some(), "missing {field}");
        }
        // The engine split accounts for the dispatched bucket.
        let engine = json::get(edit, "engine").unwrap();
        assert_eq!(json::as_i64(json::get(engine, "sim").unwrap()), Some(0));
        assert_eq!(json::as_i64(json::get(engine, "direct").unwrap()), Some(1));
        let prom = m.render_prometheus();
        assert!(prom.contains("sdp_engine_batches_total{class=\"edit\",engine=\"direct\"} 1"));
        assert!(prom.contains("sdp_engine_batches_total{class=\"edit\",engine=\"sim\"} 0"));
        assert!(json::get(&doc, "pool").is_some());
        assert!(json::get(&doc, "slowest").is_some());
    }

    #[test]
    fn queue_flush_reasons_land_in_both_exporters() {
        let m = Metrics::new(1);
        let flushes = m.queue_flush_counters();
        for (i, counter) in flushes.iter().enumerate() {
            for _ in 0..=i {
                counter.inc();
            }
        }
        let doc = m.to_json(0);
        let json_flushes = json::get(&doc, "flushes").unwrap();
        let prom = m.render_prometheus();
        for (i, reason) in ["full", "aged", "round", "drain"].iter().enumerate() {
            let want = i as i64 + 1;
            assert_eq!(
                json::as_i64(json::get(json_flushes, reason).unwrap()),
                Some(want)
            );
            let series = format!("sdp_queue_flushes_total{{reason=\"{reason}\"}} {want}");
            assert!(prom.contains(&series), "missing prometheus series {series}");
        }
    }

    #[test]
    fn robustness_series_land_in_both_exporters() {
        let m = Metrics::new(2);
        m.rejected_overloaded();
        m.rejected_circuit_open();
        m.expired(Class::Bst, Duration::from_millis(7));
        m.degraded(Class::Edit);
        m.connection_opened();
        m.connection_opened();
        m.connection_closed();
        m.reaped();
        m.accept_failed();
        m.chaos_injected("engine_panic");
        m.chaos_injected("connection_drop");
        m.chaos_injected("no_such_kind"); // ignored, not a panic
        let (gauge, trips) = m.breaker_series(Class::Matmul);
        gauge.set(2);
        trips.inc();

        let doc = m.to_json(0);
        let rejected = json::get(&doc, "rejected").unwrap();
        assert_eq!(
            json::as_i64(json::get(rejected, "overloaded").unwrap()),
            Some(1)
        );
        assert_eq!(
            json::as_i64(json::get(rejected, "circuit_open").unwrap()),
            Some(1)
        );
        assert_eq!(
            json::as_i64(json::get(&doc, "deadline_exceeded").unwrap()),
            Some(1)
        );
        assert_eq!(json::as_i64(json::get(&doc, "degraded").unwrap()), Some(1));
        assert_eq!(
            json::as_i64(json::get(&doc, "connections").unwrap()),
            Some(1)
        );
        assert_eq!(json::as_i64(json::get(&doc, "reaped").unwrap()), Some(1));
        assert_eq!(
            json::as_i64(json::get(&doc, "accept_failures").unwrap()),
            Some(1)
        );
        let chaos = json::get(&doc, "chaos").unwrap();
        assert_eq!(
            json::as_i64(json::get(chaos, "engine_panic").unwrap()),
            Some(1)
        );
        assert_eq!(
            json::as_i64(json::get(chaos, "engine_stall").unwrap()),
            Some(0)
        );
        let classes = json::get(&doc, "classes").unwrap();
        let mm = json::get(classes, "matmul").unwrap();
        let breaker = json::get(mm, "breaker").unwrap();
        assert_eq!(json::as_i64(json::get(breaker, "state").unwrap()), Some(2));
        assert_eq!(json::as_i64(json::get(breaker, "trips").unwrap()), Some(1));
        // Degraded answers count as served for that class.
        let edit = json::get(classes, "edit").unwrap();
        assert_eq!(json::as_i64(json::get(edit, "requests").unwrap()), Some(1));
        // served = 1 degraded + 1 expired; the expiration is an
        // answered error, not a silent drop.
        assert_eq!(json::as_i64(json::get(&doc, "served").unwrap()), Some(2));
        assert_eq!(json::as_i64(json::get(&doc, "errors").unwrap()), Some(1));
        // The expiration's wait lands in its own series, never in the
        // completed-latency histograms.
        let bst = json::get(classes, "bst").unwrap();
        assert_eq!(json::as_i64(json::get(bst, "requests").unwrap()), Some(1));
        assert_eq!(json::as_i64(json::get(bst, "errors").unwrap()), Some(1));
        let expired = json::get(bst, "expired_wait").unwrap();
        assert_eq!(
            json::as_i64(json::get(expired, "samples").unwrap()),
            Some(1)
        );
        assert_eq!(
            json::as_i64(json::get(json::get(&doc, "latency").unwrap(), "samples").unwrap()),
            Some(0),
            "expirations must not skew completed latency"
        );

        let prom = m.render_prometheus();
        for series in [
            "sdp_rejected_total{reason=\"overloaded\"} 1",
            "sdp_rejected_total{reason=\"circuit_open\"} 1",
            "sdp_deadline_exceeded_total 1",
            "sdp_degraded_total 1",
            "sdp_connections 1",
            "sdp_reaped_connections_total 1",
            "sdp_accept_failures_total 1",
            "sdp_chaos_injected_total{kind=\"engine_panic\"} 1",
            "sdp_breaker_state{class=\"matmul\"} 2",
            "sdp_breaker_trips_total{class=\"matmul\"} 1",
            "sdp_expired_wait_us_count{class=\"bst\"} 1",
        ] {
            assert!(prom.contains(series), "missing prometheus series {series}");
        }
    }

    #[test]
    fn histogram_buckets_cover_all_sizes_and_label_the_overflow() {
        let m = Metrics::new(1);
        for size in [1, 2, 3, 4, 5, 8, 9, 16, 17, 100] {
            m.dispatched_batch(Class::Matmul, size, EngineKind::Sim);
        }
        let doc = m.to_json(0);
        let hist = json::get(&doc, "batch_size_histogram").unwrap();
        let total: i64 = ["1", "2", "3_4", "5_8", "9_16", "gt_16"]
            .iter()
            .map(|k| json::as_i64(json::get(hist, k).unwrap()).unwrap())
            .sum();
        assert_eq!(total, 10);
        // The overflow bucket is explicitly labelled.
        assert_eq!(json::as_i64(json::get(hist, "gt_16").unwrap()), Some(2));
        assert_eq!(m.max_coalesced(), 100);
        // The per-class histogram sees the same sizes.
        let classes = json::get(&doc, "classes").unwrap();
        let mm = json::get(classes, "matmul").unwrap();
        let per_class = json::get(mm, "batch_size_histogram").unwrap();
        assert_eq!(
            json::as_i64(json::get(per_class, "gt_16").unwrap()),
            Some(2)
        );
    }

    #[test]
    fn latency_percentiles_come_from_the_histogram() {
        let m = Metrics::new(1);
        for _ in 0..98 {
            m.completed(Class::Chain, true, Duration::from_micros(100));
        }
        // Two slow outliers: the p99 rank (99 of 100) lands on them.
        m.completed(Class::Chain, true, Duration::from_micros(50_000));
        m.completed(Class::Chain, true, Duration::from_micros(50_000));
        let doc = m.to_json(0);
        let chain = json::get(json::get(&doc, "classes").unwrap(), "chain").unwrap();
        let p50 = json::get(chain, "p50_ms").unwrap();
        let p99 = json::get(chain, "p99_ms").unwrap();
        // 100 µs ∈ (64,128] → 0.128 ms; 50 ms ∈ (32768,65536], whose
        // bound clamps to the observed max → 50 ms.
        assert_eq!(p50, &Json::Float(0.128));
        assert_eq!(p99, &Json::Float(50.0));
        let max = json::get(chain, "max_ms").unwrap();
        assert_eq!(max, &Json::Float(50.0), "max is exact, not bucketed");
    }

    #[test]
    fn spans_feed_phase_histograms_and_the_slow_ring() {
        let m = Metrics::new(2);
        m.record_dispatch_phases(Class::Edit, 1000, 50, 400);
        m.record_respond(Class::Edit, 1000, 50, 400, 30, 1480);
        m.record_dispatch_phases(Class::Edit, 9000, 70, 600);
        m.record_respond(Class::Edit, 9000, 70, 600, 40, 9710);
        let doc = m.to_json(0);
        let edit = json::get(json::get(&doc, "classes").unwrap(), "edit").unwrap();
        let phases = json::get(edit, "phases").unwrap();
        for phase in PHASES {
            let p = json::get(phases, phase).unwrap();
            assert_eq!(json::as_i64(json::get(p, "samples").unwrap()), Some(2));
        }
        let slowest = json::get(&doc, "slowest").unwrap();
        let Json::Array(entries) = slowest else {
            panic!("slowest must be an array");
        };
        assert_eq!(entries.len(), 2);
        // Slowest first.
        assert_eq!(json::get(&entries[0], "total_ms"), Some(&Json::Float(9.71)));
    }

    #[test]
    fn recording_is_lock_free_under_concurrent_hammer() {
        // 16 threads hammer every recording path while a 17th renders
        // both exporters in a loop.  With the PR 5 mutex this was the
        // contention point; now the only assertion that matters is
        // exactness: no sample may be lost or double-counted.
        let m = StdArc::new(Metrics::new(4));
        let render = {
            let m = StdArc::clone(&m);
            std::thread::spawn(move || {
                for _ in 0..50 {
                    let _ = m.to_json(0);
                    let _ = m.render_prometheus();
                }
            })
        };
        let threads: Vec<_> = (0..16)
            .map(|t| {
                let m = StdArc::clone(&m);
                std::thread::spawn(move || {
                    let class = CLASSES[t % CLASSES.len()];
                    for i in 0..2000u64 {
                        m.completed(class, true, Duration::from_micros(i));
                        let engine = if i % 2 == 0 {
                            EngineKind::Sim
                        } else {
                            EngineKind::Direct
                        };
                        m.dispatched_batch(class, (i % 20) as usize + 1, engine);
                        m.record_dispatch_phases(class, i, i / 2, i * 2);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        render.join().unwrap();
        let doc = m.to_json(0);
        assert_eq!(
            json::as_i64(json::get(&doc, "served").unwrap()),
            Some(32_000)
        );
        assert_eq!(
            json::as_i64(json::get(&doc, "dispatches").unwrap()),
            Some(32_000)
        );
        let classes = json::get(&doc, "classes").unwrap();
        let per_class_total: i64 = CLASSES
            .iter()
            .map(|c| {
                json::as_i64(json::get(json::get(classes, c.name()).unwrap(), "requests").unwrap())
                    .unwrap()
            })
            .sum();
        assert_eq!(per_class_total, 32_000);
    }
}
