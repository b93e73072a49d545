//! Admission queue with per-class shards and dynamic batch coalescing.
//!
//! Requests are grouped into buckets keyed by `(class, shape_key)` —
//! only uniform-shape instances can ride one pipelined array pass (the
//! batch entry points reject mixed shapes).  Each engine class owns a
//! **shard**: its own bucket map, `Mutex`, and `Condvar`, with one
//! dispatcher thread parked per shard, so hot classes stop serializing
//! on one global lock and an admission for `edit` never wakes the
//! `matmul` dispatcher.  Depth accounting and the drain flag are
//! shard-agnostic atomics so the admission fast path touches only its
//! own shard's lock.
//!
//! Coalescing is **work-conserving**: the array never idles waiting
//! for work that has not arrived yet.  Admissions happen in
//! [`Round`]s — one event-loop worker's service pass over its parsed
//! request lines — and each shard counts the rounds currently holding
//! admissions into it.  A bucket is ready when it holds `max_batch`
//! riders, when its oldest rider has waited `max_delay`, when the queue
//! is draining, or when no round holding its shard is open.  So
//! requests read in one pass still ride one batch, as do requests that
//! pile up while the class dispatcher is busy running its engine, but
//! a lone request is dispatched as soon as the pass that read it ends.
//! The rule reads shard state, not a timer: a stray condvar wakeup
//! re-evaluates the same state and cannot flush a bucket early.
//! `max_delay` only bounds a round that is held open; paper Eq. 9's
//! B/(B + fill/drain) utilisation is bought with riders that are
//! already waiting, never with idle array time.
//!
//! Backpressure is enforced at admission in two tiers: at or beyond
//! `shed_queue` queued requests `submit` sheds with
//! [`SdpError::Overloaded`] (carrying a `retry_after_ms` hint derived
//! from recently *measured* flush throughput — see [`drain_hint_ms`]),
//! beyond `max_queue` it hard-rejects with [`SdpError::QueueFull`],
//! and after [`Queue::start_drain`] it returns
//! [`SdpError::ShuttingDown`].  Each class's dispatcher thread calls
//! [`Queue::next_batches_for`] in a loop; `None` means the shard
//! drained and that dispatcher may exit.

use crate::evloop::WakeHandle;
use crate::protocol::Body;
use crate::protocol::Class;
use crate::protocol::CLASSES;
use sdp_fault::SdpError;
use sdp_metrics::{Counter, Gauge};
use sdp_par::lock_recover;
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Coalescing and backpressure knobs.
#[derive(Clone, Copy, Debug)]
pub struct QueueConfig {
    /// Admission limit: queued (not yet dispatched) requests.
    pub max_queue: usize,
    /// Shed threshold: at or beyond this depth (but below `max_queue`)
    /// new work is shed with `overloaded` + `retry_after_ms`.
    pub shed_queue: usize,
    /// Flush a bucket as soon as it holds this many requests.
    pub max_batch: usize,
    /// Flush a bucket when its oldest rider has waited this long, even
    /// if a round holding its shard is still open.
    pub max_delay: Duration,
}

impl Default for QueueConfig {
    fn default() -> QueueConfig {
        QueueConfig {
            max_queue: 1024,
            shed_queue: 768,
            max_batch: 16,
            max_delay: Duration::from_millis(5),
        }
    }
}

/// Dispatcher-side span timings, forwarded to the event-loop worker so
/// it can close the request's `respond` phase (reply received → the
/// client-visible end of the request).
#[derive(Clone, Copy, Debug)]
pub struct SpanTimes {
    /// Admission → bucket flush (the coalescing delay-window wait), µs.
    pub coalesce_us: u64,
    /// Bucket flush → a pool worker picked the batch up, µs.
    pub queue_us: u64,
    /// Engine run, µs.
    pub engine_us: u64,
    /// When the engine finished — the respond phase starts here.
    pub engine_done: Instant,
}

/// What the dispatcher sends back to the submitting connection.
#[derive(Debug)]
pub struct JobResponse {
    /// The engine's payload, rendered once and shared with the cache,
    /// or a typed failure.
    pub result: Result<Arc<str>, SdpError>,
    /// Size of the coalesced batch this job rode in.
    pub batch: usize,
    /// Which backend ran the bucket — `None` when no engine ran (the
    /// job expired at dispatch or the bucket failed before routing),
    /// so expirations can never masquerade as simulator work.
    pub engine: Option<crate::engine::EngineKind>,
    /// Phase timings for the span pipeline.
    pub span: SpanTimes,
}

/// A completed job addressed to one event-loop connection slot:
/// `(slot, generation, response)`.  The generation guards against slot
/// reuse — a completion for a connection that already closed is
/// silently dropped, exactly like the old dropped-receiver send.
pub type Completion = (usize, u64, JobResponse);

/// Where a [`JobResponse`] is delivered.
#[derive(Debug)]
pub enum ReplySink {
    /// A blocking per-request channel (tests, simple embedders).
    Channel(mpsc::Sender<JobResponse>),
    /// An event-loop worker's completion inbox plus its wake pipe.
    Event {
        /// The worker's completion mailbox.
        inbox: Arc<Mutex<Vec<Completion>>>,
        /// Wakes the worker out of `poll` after pushing.
        wake: WakeHandle,
        /// Connection slot in the worker's slab.
        slot: usize,
        /// Slot generation at submit time.
        gen: u64,
    },
}

impl ReplySink {
    /// Delivers `resp`; errors (hung-up channel) are ignored — a
    /// vanished client just discards the work.
    pub fn send(&self, resp: JobResponse) {
        match self {
            ReplySink::Channel(tx) => {
                let _ = tx.send(resp);
            }
            ReplySink::Event {
                inbox,
                wake,
                slot,
                gen,
            } => {
                lock_recover(inbox).push((*slot, *gen, resp));
                wake.wake();
            }
        }
    }
}

/// One admitted compute request.
#[derive(Debug)]
pub struct Job {
    /// Decoded problem.
    pub body: Body,
    /// Canonical cache key (already probed and missed).
    pub cache_key: Vec<u8>,
    /// Reply route back to the owning connection.
    pub tx: ReplySink,
    /// Admission time, for latency metrics.
    pub enqueued: Instant,
    /// The job is expired (typed `deadline_exceeded`, no engine work)
    /// if it is still undispatched at this instant.
    pub deadline: Instant,
    /// The deadline the request carried, for the error payload.
    pub deadline_ms: u64,
}

/// Flush-throughput samples kept for the shed hint.
const FLUSH_LOG: usize = 8;

/// Flush history considered stale beyond this age: if the dispatchers
/// have not flushed recently, past throughput says nothing about the
/// drain rate the shed request will experience.
const FLUSH_STALE: Duration = Duration::from_secs(2);

/// Sizes the `Overloaded { retry_after_ms }` hint for a request shed
/// with `excess_over` jobs queued beyond the shed threshold.
///
/// With at least two recent flushes on record, the hint comes from the
/// *measured* drain rate: jobs flushed across the log divided by the
/// span from the oldest sample to `now`.  With no usable history (cold
/// server, stalled dispatchers, or a zero-rate degenerate window) it
/// falls back to the window-derived estimate — one `max_delay` per
/// excess `max_batch`-sized flush — which is also the pre-measurement
/// behaviour, so a fresh server still hints at least one full window.
pub fn drain_hint_ms(
    excess_over: usize,
    flushes: &VecDeque<(Instant, usize)>,
    now: Instant,
    fallback_window: Duration,
    max_batch: usize,
) -> u64 {
    if flushes.len() >= 2 {
        let oldest = flushes.front().expect("len checked").0;
        let newest = flushes.back().expect("len checked").0;
        let jobs: usize = flushes.iter().map(|&(_, n)| n).sum();
        let elapsed = now.saturating_duration_since(oldest);
        let fresh = now.saturating_duration_since(newest) <= FLUSH_STALE;
        if fresh && !elapsed.is_zero() && jobs > 0 {
            let rate_per_ms = jobs as f64 / elapsed.as_secs_f64() / 1000.0;
            let need = (excess_over + 1) as f64;
            return (need / rate_per_ms).ceil().max(1.0) as u64;
        }
    }
    let excess_batches = excess_over / max_batch.max(1) + 1;
    let window_ms = (fallback_window.as_millis() as u64).max(1);
    window_ms * excess_batches as u64
}

/// Why a bucket left the queue.  When several apply, the first in
/// this order is counted.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FlushReason {
    /// It held `max_batch` riders.
    Full,
    /// Its oldest rider waited `max_delay` (a round held open that long).
    Aged,
    /// No round holding admissions into its shard was open.
    Round,
    /// The queue is draining.
    Drain,
}

/// Every [`FlushReason`], indexed by its discriminant.
pub const FLUSH_REASONS: [FlushReason; 4] = [
    FlushReason::Full,
    FlushReason::Aged,
    FlushReason::Round,
    FlushReason::Drain,
];

impl FlushReason {
    /// The metrics label (`sdp_queue_flushes_total{reason=…}`).
    pub fn name(self) -> &'static str {
        match self {
            FlushReason::Full => "full",
            FlushReason::Aged => "aged",
            FlushReason::Round => "round",
            FlushReason::Drain => "drain",
        }
    }
}

struct Bucket {
    jobs: Vec<Job>,
    opened: Instant,
}

struct ShardInner {
    /// Open buckets of this class, keyed by shape.
    buckets: HashMap<u64, Bucket>,
    /// Open rounds holding admissions into this shard; while nonzero,
    /// partial young buckets keep coalescing.
    open_rounds: usize,
}

/// [`Round`] tracks the shards it holds in a `u32` bitmask.
const _: () = assert!(CLASSES.len() <= 32);

struct Shard {
    inner: Mutex<ShardInner>,
    cv: Condvar,
}

/// The sharded admission queue.
pub struct Queue {
    cfg: QueueConfig,
    /// One shard per engine class, indexed by `Class::index`.
    shards: Vec<Shard>,
    /// Total queued-but-not-dispatched jobs across all shards.  Read
    /// without any lock on the admission fast path; the small window
    /// between the check and the increment can over-admit by at most
    /// the number of concurrently submitting threads, which the shed
    /// threshold's slack absorbs.
    depth: AtomicUsize,
    draining: AtomicBool,
    /// Mirror of `depth` for the metrics registry.
    depth_gauge: Arc<Gauge>,
    /// Recent `(flush time, jobs flushed)` samples for the shed hint.
    flushes: Mutex<VecDeque<(Instant, usize)>>,
    /// Buckets flushed, indexed by [`FlushReason`].
    flush_counts: [Arc<Counter>; FLUSH_REASONS.len()],
}

/// One admission round: the jobs an event-loop worker admits in one
/// service pass.  While a round that admitted into a shard is open,
/// that shard's partial buckets keep coalescing; dropping the guard
/// closes the round and wakes the shards it held.
pub struct Round<'q> {
    queue: &'q Queue,
    /// Bit `i` set: this round holds admissions into shard `i`.
    held: u32,
}

impl Round<'_> {
    /// Admits a job, or rejects it with a typed backpressure error.
    pub fn submit(&mut self, job: Job) -> Result<(), SdpError> {
        let q = self.queue;
        if q.draining.load(Ordering::Acquire) {
            return Err(SdpError::ShuttingDown);
        }
        let depth = q.depth.load(Ordering::Relaxed);
        if depth >= q.cfg.max_queue {
            return Err(SdpError::QueueFull { depth });
        }
        if depth >= q.cfg.shed_queue {
            let hint = drain_hint_ms(
                depth - q.cfg.shed_queue,
                &lock_recover(&q.flushes),
                Instant::now(),
                q.cfg.max_delay,
                q.cfg.max_batch,
            );
            return Err(SdpError::Overloaded {
                retry_after_ms: hint,
            });
        }
        let index = job.body.class().index();
        let shape = job.body.shape_key();
        let shard = &q.shards[index];
        let mut s = lock_recover(&shard.inner);
        // Re-check under the shard lock: `start_drain` takes every
        // shard lock after setting the flag, so a submit that passes
        // here is guaranteed to be seen by the final drain flush.
        if q.draining.load(Ordering::Acquire) {
            return Err(SdpError::ShuttingDown);
        }
        if self.held & (1 << index) == 0 {
            self.held |= 1 << index;
            s.open_rounds += 1;
        }
        // The dispatcher needs a wake only when this admission changes
        // what it waits for: the first bucket of an empty shard brings
        // the first age deadline (it may be parked without a timeout),
        // and a bucket reaching `max_batch` is ready at once.  Anything
        // else waits for the round to close.
        let first = s.buckets.is_empty();
        let bucket = s.buckets.entry(shape).or_insert_with(|| Bucket {
            jobs: Vec::new(),
            opened: Instant::now(),
        });
        bucket.jobs.push(job);
        let filled = bucket.jobs.len() == q.cfg.max_batch;
        let depth = q.depth.fetch_add(1, Ordering::Relaxed) + 1;
        q.depth_gauge.set(depth as i64);
        drop(s);
        if first || filled {
            shard.cv.notify_one();
        }
        Ok(())
    }
}

impl Drop for Round<'_> {
    fn drop(&mut self) {
        let mut held = self.held;
        while held != 0 {
            let shard = &self.queue.shards[held.trailing_zeros() as usize];
            held &= held - 1;
            let mut s = lock_recover(&shard.inner);
            s.open_rounds -= 1;
            let ready = s.open_rounds == 0 && !s.buckets.is_empty();
            drop(s);
            if ready {
                shard.cv.notify_one();
            }
        }
    }
}

impl Queue {
    /// An empty queue with the given knobs.
    pub fn new(cfg: QueueConfig) -> Queue {
        Queue::with_flush_counters(cfg, FLUSH_REASONS.map(|_| Arc::new(Counter::new())))
    }

    /// An empty queue that counts flushed buckets into `flush_counts`,
    /// indexed by [`FlushReason`] (the server passes its registered
    /// `sdp_queue_flushes_total` series).
    pub fn with_flush_counters(
        cfg: QueueConfig,
        flush_counts: [Arc<Counter>; FLUSH_REASONS.len()],
    ) -> Queue {
        Queue {
            cfg,
            shards: CLASSES
                .iter()
                .map(|_| Shard {
                    inner: Mutex::new(ShardInner {
                        buckets: HashMap::new(),
                        open_rounds: 0,
                    }),
                    cv: Condvar::new(),
                })
                .collect(),
            depth: AtomicUsize::new(0),
            draining: AtomicBool::new(false),
            depth_gauge: Arc::new(Gauge::new()),
            flushes: Mutex::new(VecDeque::with_capacity(FLUSH_LOG)),
            flush_counts,
        }
    }

    /// Queued-but-not-dispatched request count.
    pub fn depth(&self) -> usize {
        self.depth.load(Ordering::Relaxed)
    }

    /// The live depth gauge, for registration with the metrics
    /// registry (`sdp_queue_depth`).
    pub fn depth_gauge(&self) -> Arc<Gauge> {
        Arc::clone(&self.depth_gauge)
    }

    /// Opens an admission round; see [`Round`].
    pub fn round(&self) -> Round<'_> {
        Round {
            queue: self,
            held: 0,
        }
    }

    /// Admits one job as a round of its own.
    pub fn submit(&self, job: Job) -> Result<(), SdpError> {
        self.round().submit(job)
    }

    /// Stops admitting work and wakes every shard dispatcher so
    /// remaining buckets flush immediately.
    pub fn start_drain(&self) {
        self.draining.store(true, Ordering::Release);
        for shard in &self.shards {
            // Taking the lock orders this wake after any in-flight
            // submit that passed its drain re-check.
            let _guard = lock_recover(&shard.inner);
            shard.cv.notify_all();
        }
    }

    /// Blocks until at least one bucket of `class` is ready, then
    /// removes and returns all ready buckets of that shard, in
    /// deterministic shape order.  Returns `None` once the queue is
    /// draining and the shard is empty.
    pub fn next_batches_for(&self, class: Class) -> Option<Vec<Vec<Job>>> {
        let shard = &self.shards[class.index()];
        let mut s = lock_recover(&shard.inner);
        loop {
            let now = Instant::now();
            let draining = self.draining.load(Ordering::Acquire);
            let round_open = s.open_rounds > 0;
            let mut next_deadline: Option<Instant> = None;
            let mut ready = Vec::new();
            for (&shape, bucket) in &s.buckets {
                let deadline = bucket.opened + self.cfg.max_delay;
                let reason = if bucket.jobs.len() >= self.cfg.max_batch {
                    FlushReason::Full
                } else if deadline <= now {
                    FlushReason::Aged
                } else if draining {
                    FlushReason::Drain
                } else if !round_open {
                    FlushReason::Round
                } else {
                    next_deadline = Some(next_deadline.map_or(deadline, |d| d.min(deadline)));
                    continue;
                };
                ready.push((shape, reason));
            }
            if !ready.is_empty() {
                // Deterministic flush order regardless of map iteration.
                ready.sort_unstable_by_key(|&(shape, _)| shape);
                let cap = self.cfg.max_batch.max(1);
                let mut out = Vec::with_capacity(ready.len());
                let mut flushed = 0usize;
                for (key, reason) in ready {
                    let bucket = s.buckets.remove(&key).expect("key just seen");
                    self.flush_counts[reason as usize].inc();
                    flushed += bucket.jobs.len();
                    // A bucket that outgrew the cap while the dispatcher
                    // was busy still dispatches in `max_batch`-sized
                    // batches: the cap bounds per-batch engine latency,
                    // not just flush readiness.
                    let mut jobs = bucket.jobs;
                    while jobs.len() > cap {
                        let tail = jobs.split_off(cap);
                        out.push(jobs);
                        jobs = tail;
                    }
                    out.push(jobs);
                }
                let depth = self.depth.fetch_sub(flushed, Ordering::Relaxed) - flushed;
                self.depth_gauge.set(depth as i64);
                drop(s);
                let mut log = lock_recover(&self.flushes);
                if log.len() == FLUSH_LOG {
                    log.pop_front();
                }
                log.push_back((Instant::now(), flushed));
                return Some(out);
            }
            if draining {
                return None;
            }
            // Pending buckets wait for a round to close (its drop
            // notifies), a bucket to fill, or the oldest one to age; an
            // empty shard waits for the first admission or the drain.
            s = match next_deadline {
                None => shard.cv.wait(s).unwrap_or_else(|e| e.into_inner()),
                Some(d) => {
                    shard
                        .cv
                        .wait_timeout(s, d.saturating_duration_since(now))
                        .unwrap_or_else(|e| e.into_inner())
                        .0
                }
            };
        }
    }

    /// Test hook: a stray `notify_all` on every shard, simulating
    /// spurious condvar wakeups.
    #[cfg(test)]
    pub(crate) fn poke(&self) {
        for shard in &self.shards {
            let _guard = lock_recover(&shard.inner);
            shard.cv.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn job(a: &str, b: &str) -> (Job, mpsc::Receiver<JobResponse>) {
        let (tx, rx) = mpsc::channel();
        (
            Job {
                body: Body::Edit {
                    a: a.as_bytes().to_vec(),
                    b: b.as_bytes().to_vec(),
                },
                cache_key: Vec::new(),
                tx: ReplySink::Channel(tx),
                enqueued: Instant::now(),
                deadline: Instant::now() + Duration::from_secs(3600),
                deadline_ms: 3_600_000,
            },
            rx,
        )
    }

    fn cfg(max_queue: usize, shed: usize, max_batch: usize, delay: Duration) -> QueueConfig {
        QueueConfig {
            max_queue,
            shed_queue: shed,
            max_batch,
            max_delay: delay,
        }
    }

    /// Buckets flushed so far, as `[full, aged, round, drain]`.
    fn flushed(q: &Queue) -> [u64; 4] {
        q.flush_counts.each_ref().map(|c| c.get())
    }

    #[test]
    fn full_bucket_flushes_without_waiting_for_the_delay_window() {
        // ...or for its still-open round to close.
        let q = Queue::new(cfg(64, 64, 2, Duration::from_secs(3600)));
        let mut round = q.round();
        let (j1, _r1) = job("ab", "cd");
        let (j2, _r2) = job("xy", "zw");
        round.submit(j1).unwrap();
        round.submit(j2).unwrap();
        let batches = q.next_batches_for(Class::Edit).expect("not draining");
        assert_eq!(batches.len(), 1);
        assert_eq!(batches[0].len(), 2, "same shape coalesced");
        assert_eq!(q.depth(), 0);
        assert_eq!(flushed(&q), [1, 0, 0, 0], "counted as full");
        drop(round);
    }

    #[test]
    fn an_overgrown_bucket_flushes_in_capped_batches() {
        // 40 same-shape jobs pile up before the dispatcher gets a turn:
        // the flush must still honor the batch cap (16, 16, 8), not
        // ship one 40-wide engine batch.
        let q = Queue::new(cfg(64, 64, 16, Duration::from_secs(3600)));
        let mut rxs = Vec::new();
        for _ in 0..40 {
            let (j, r) = job("ab", "cd");
            q.submit(j).unwrap();
            rxs.push(r);
        }
        let batches = q.next_batches_for(Class::Edit).expect("not draining");
        let sizes: Vec<usize> = batches.iter().map(Vec::len).collect();
        assert_eq!(sizes, vec![16, 16, 8]);
        assert_eq!(q.depth(), 0);
    }

    #[test]
    fn max_delay_still_flushes_a_bucket_whose_round_is_held_open() {
        // An expired bucket flushes even when not full.  The dispatcher
        // parks on the empty shard first, so the admission itself must
        // hand it the age deadline: a round that never closes is
        // bounded by max_delay, not by the next wake.
        let delay = Duration::from_millis(50);
        let q = Arc::new(Queue::new(cfg(64, 64, 100, delay)));
        let (tx, rx) = mpsc::channel();
        let dispatcher = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || {
                let batches = q.next_batches_for(Class::Edit).expect("not draining");
                tx.send(batches).unwrap();
            })
        };
        std::thread::sleep(Duration::from_millis(20));
        let mut round = q.round();
        let (j, _r) = job("ab", "cd");
        let t0 = Instant::now();
        round.submit(j).unwrap();
        let batches = rx
            .recv_timeout(Duration::from_secs(30))
            .expect("an aged bucket flushes under an open round");
        assert!(t0.elapsed() >= delay, "flushed before max_delay");
        assert_eq!(batches[0].len(), 1);
        assert_eq!(flushed(&q), [0, 1, 0, 0], "counted as aged");
        drop(round);
        dispatcher.join().unwrap();
    }

    #[test]
    fn lone_job_on_an_idle_queue_flushes_long_before_the_window() {
        let q = Queue::new(cfg(64, 64, 100, Duration::from_secs(3600)));
        let (j, _r) = job("ab", "cd");
        let t0 = Instant::now();
        q.submit(j).unwrap();
        let batches = q.next_batches_for(Class::Edit).expect("not draining");
        assert_eq!(batches[0].len(), 1);
        assert!(
            t0.elapsed() < Duration::from_secs(60),
            "adaptive flush must not wait out the hour-long window"
        );
        assert_eq!(flushed(&q), [0, 0, 1, 0], "counted as round");
    }

    #[test]
    fn adaptive_flush_still_coalesces_a_burst() {
        // Three same-shape jobs admitted in one round must ride one
        // batch, even with the dispatcher already waiting when the
        // first one lands: the bucket flushes when the round closes.
        let q = Arc::new(Queue::new(cfg(64, 64, 100, Duration::from_secs(3600))));
        let (tx, rx) = mpsc::channel();
        let dispatcher = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || {
                let batches = q.next_batches_for(Class::Edit).expect("not draining");
                tx.send(batches).unwrap();
            })
        };
        let mut rxs = Vec::new();
        let mut round = q.round();
        for (i, (a, b)) in [("ab", "cd"), ("ef", "gh"), ("ij", "kl")]
            .into_iter()
            .enumerate()
        {
            let (j, r) = job(a, b);
            round.submit(j).unwrap();
            rxs.push(r);
            if i == 0 {
                // Give the dispatcher every chance to see the lone
                // first rider before the rest of the round arrives.
                std::thread::sleep(Duration::from_millis(30));
            }
        }
        assert!(rx.try_recv().is_err(), "flushed while the round was open");
        drop(round);
        let batches = rx
            .recv_timeout(Duration::from_secs(30))
            .expect("closing the round flushes");
        assert_eq!(batches.len(), 1);
        assert_eq!(batches[0].len(), 3, "burst coalesced into one batch");
        assert_eq!(flushed(&q), [0, 0, 1, 0]);
        dispatcher.join().unwrap();
    }

    #[test]
    fn a_young_bucket_survives_a_stray_notify_all() {
        // Readiness is read from shard state, never inferred from a
        // wakeup: a stray notify_all while the bucket's round is open
        // must leave the young bucket coalescing.
        let q = Arc::new(Queue::new(cfg(64, 64, 2, Duration::from_secs(3600))));
        let mut round = q.round();
        let (j1, _r1) = job("ab", "cd");
        round.submit(j1).unwrap();
        let (tx, rx) = mpsc::channel();
        let dispatcher = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || {
                let batches = q.next_batches_for(Class::Edit).expect("not draining");
                tx.send(batches).unwrap();
            })
        };
        // Let the dispatcher reach its wait, then fire stray wakeups.
        std::thread::sleep(Duration::from_millis(30));
        for _ in 0..3 {
            q.poke();
            std::thread::sleep(Duration::from_millis(10));
        }
        assert!(
            rx.try_recv().is_err(),
            "spurious wakeups flushed a young bucket before max_batch"
        );
        // A second same-shape job fills the bucket; now it flushes.
        let (j2, _r2) = job("xy", "zw");
        round.submit(j2).unwrap();
        let batches = rx
            .recv_timeout(Duration::from_secs(30))
            .expect("full bucket flushes");
        assert_eq!(batches.len(), 1);
        assert_eq!(batches[0].len(), 2, "bucket kept coalescing past the pokes");
        drop(round);
        dispatcher.join().unwrap();
    }

    #[test]
    fn a_round_holds_only_the_shards_it_admitted_into() {
        // An open round of edit admissions must not hold a chain job
        // admitted by another round.
        let q = Queue::new(cfg(64, 64, 100, Duration::from_secs(3600)));
        let mut edits = q.round();
        let (j1, _r1) = job("ab", "cd");
        edits.submit(j1).unwrap();
        let (tx, _rx) = mpsc::channel();
        q.submit(Job {
            body: Body::Chain {
                dims: vec![4, 2, 3],
            },
            cache_key: Vec::new(),
            tx: ReplySink::Channel(tx),
            enqueued: Instant::now(),
            deadline: Instant::now() + Duration::from_secs(3600),
            deadline_ms: 3_600_000,
        })
        .unwrap();
        let chain = q.next_batches_for(Class::Chain).expect("chain shard");
        assert_eq!(chain[0].len(), 1);
        drop(edits);
        let edit = q.next_batches_for(Class::Edit).expect("edit shard");
        assert_eq!(edit[0].len(), 1);
        assert_eq!(flushed(&q), [0, 0, 2, 0]);
    }

    #[test]
    fn different_shapes_land_in_different_buckets() {
        let q = Queue::new(cfg(64, 64, 2, Duration::from_millis(1)));
        let (j1, _r1) = job("ab", "cd");
        let (j2, _r2) = job("abc", "cd");
        q.submit(j1).unwrap();
        q.submit(j2).unwrap();
        let batches = q.next_batches_for(Class::Edit).expect("not draining");
        assert_eq!(batches.len(), 2);
        assert!(batches.iter().all(|jobs| jobs.len() == 1));
    }

    #[test]
    fn overfull_queue_rejects_with_typed_error() {
        let q = Queue::new(cfg(1, 1, 16, Duration::from_secs(3600)));
        let (j1, _r1) = job("ab", "cd");
        let (j2, _r2) = job("ef", "gh");
        q.submit(j1).unwrap();
        assert_eq!(q.submit(j2).unwrap_err(), SdpError::QueueFull { depth: 1 });
    }

    #[test]
    fn shed_threshold_returns_overloaded_with_retry_hint() {
        let q = Queue::new(cfg(64, 2, 16, Duration::from_millis(5)));
        let (j1, _r1) = job("ab", "cd");
        let (j2, _r2) = job("ef", "gh");
        let (j3, _r3) = job("ij", "kl");
        q.submit(j1).unwrap();
        q.submit(j2).unwrap();
        match q.submit(j3).unwrap_err() {
            SdpError::Overloaded { retry_after_ms } => {
                assert!(retry_after_ms >= 1, "hint must be positive");
            }
            other => panic!("expected Overloaded, got {other:?}"),
        }
        // Shedding does not grow the queue.
        assert_eq!(q.depth(), 2);
    }

    #[test]
    fn fresh_queue_hints_fall_back_to_the_delay_window() {
        // No flush history yet: the hint must still cover at least one
        // full delay window per excess batch, never degenerate to a
        // constant 1 ms.
        let window = Duration::from_millis(300);
        let empty = VecDeque::new();
        let now = Instant::now();
        assert_eq!(drain_hint_ms(0, &empty, now, window, 16), 300);
        assert_eq!(drain_hint_ms(40, &empty, now, window, 16), 900);
        // A single sample is not a rate either.
        let mut one = VecDeque::new();
        one.push_back((now, 16usize));
        assert_eq!(drain_hint_ms(0, &one, now, window, 16), 300);
    }

    #[test]
    fn measured_flush_throughput_drives_the_shed_hint() {
        // Four flushes of 16 jobs spread over 30 ms → ~2.13 jobs/ms.
        // 63 excess jobs (64 to clear) should hint ~30 ms, not the
        // window-derived 5 ms * 4 batches = 20 ms, and certainly not a
        // constant.
        let now = Instant::now();
        let mut log = VecDeque::new();
        for i in 0..4u64 {
            log.push_back((now - Duration::from_millis(30 - i * 10), 16usize));
        }
        let hint = drain_hint_ms(63, &log, now, Duration::from_millis(5), 16);
        let rate = 64.0_f64 / 30.0; // jobs per ms
        let want = (64.0 / rate).ceil() as u64;
        assert_eq!(hint, want);
        assert!((25..=35).contains(&hint), "hint {hint} tracks the rate");

        // Stale history (last flush long ago) falls back to the window
        // formula instead of trusting a dead dispatcher's old rate.
        let mut stale = VecDeque::new();
        stale.push_back((now - Duration::from_secs(60), 16usize));
        stale.push_back((now - Duration::from_secs(59), 16usize));
        assert_eq!(
            drain_hint_ms(0, &stale, now, Duration::from_millis(5), 16),
            5
        );
    }

    #[test]
    fn flushes_feed_the_throughput_log_end_to_end() {
        let q = Queue::new(cfg(64, 64, 1, Duration::from_millis(1)));
        for _ in 0..3 {
            let (j, _r) = job("ab", "cd");
            q.submit(j).unwrap();
            q.next_batches_for(Class::Edit).expect("flush");
        }
        let log = lock_recover(&q.flushes);
        assert_eq!(log.len(), 3);
        assert!(log.iter().all(|&(_, n)| n == 1));
    }

    #[test]
    fn hard_cap_wins_over_shed_when_thresholds_coincide() {
        // With shed_queue == max_queue == depth, the hard QueueFull
        // rejection takes precedence (pinned by protocol tests that
        // run a zero-capacity queue).
        let q = Queue::new(cfg(0, 0, 16, Duration::from_millis(5)));
        let (j, _r) = job("ab", "cd");
        assert_eq!(q.submit(j).unwrap_err(), SdpError::QueueFull { depth: 0 });
    }

    #[test]
    fn depth_gauge_mirrors_admissions_and_flushes() {
        let q = Queue::new(cfg(64, 64, 2, Duration::from_secs(3600)));
        let g = q.depth_gauge();
        let (j1, _r1) = job("ab", "cd");
        q.submit(j1).unwrap();
        assert_eq!(g.get(), 1);
        let (j2, _r2) = job("xy", "zw");
        q.submit(j2).unwrap();
        assert_eq!(g.get(), 2);
        q.next_batches_for(Class::Edit)
            .expect("full bucket flushes");
        assert_eq!(g.get(), 0, "flush returns the gauge to zero");
    }

    #[test]
    fn shards_isolate_classes() {
        let q = Queue::new(cfg(64, 64, 16, Duration::from_millis(1)));
        let (j1, _r1) = job("ab", "cd");
        q.submit(j1).unwrap();
        let (tx, _rx) = mpsc::channel();
        q.submit(Job {
            body: Body::Chain {
                dims: vec![4, 2, 3],
            },
            cache_key: Vec::new(),
            tx: ReplySink::Channel(tx),
            enqueued: Instant::now(),
            deadline: Instant::now() + Duration::from_secs(3600),
            deadline_ms: 3_600_000,
        })
        .unwrap();
        let edit = q.next_batches_for(Class::Edit).expect("edit shard");
        assert_eq!(edit.len(), 1, "edit dispatcher sees only edit buckets");
        assert_eq!(q.depth(), 1, "chain job still queued");
        let chain = q.next_batches_for(Class::Chain).expect("chain shard");
        assert_eq!(chain.len(), 1);
        assert_eq!(q.depth(), 0);
    }

    #[test]
    fn drain_flushes_leftovers_then_returns_none() {
        let q = Queue::new(cfg(64, 64, 100, Duration::from_secs(3600)));
        let (j, _r) = job("ab", "cd");
        q.submit(j).unwrap();
        q.start_drain();
        let batches = q
            .next_batches_for(Class::Edit)
            .expect("leftovers flush on drain");
        assert_eq!(batches[0].len(), 1);
        assert!(
            q.next_batches_for(Class::Edit).is_none(),
            "drained shard signals exit"
        );
        assert!(
            q.next_batches_for(Class::Matmul).is_none(),
            "empty shards exit immediately on drain"
        );
        let (j2, _r2) = job("ab", "cd");
        assert_eq!(q.submit(j2).unwrap_err(), SdpError::ShuttingDown);
        assert_eq!(flushed(&q), [0, 0, 0, 1], "counted as drain");
    }

    #[test]
    fn drain_flushes_a_bucket_while_its_round_is_still_open() {
        let q = Queue::new(cfg(64, 64, 100, Duration::from_secs(3600)));
        let mut round = q.round();
        let (j, _r) = job("ab", "cd");
        round.submit(j).unwrap();
        q.start_drain();
        let batches = q
            .next_batches_for(Class::Edit)
            .expect("drain flushes under an open round");
        assert_eq!(batches[0].len(), 1);
        assert_eq!(flushed(&q), [0, 0, 0, 1], "counted as drain");
        assert!(q.next_batches_for(Class::Edit).is_none());
        let (j2, _r2) = job("ab", "cd");
        assert_eq!(round.submit(j2).unwrap_err(), SdpError::ShuttingDown);
        drop(round);
    }
}
