//! The TCP request server: a polling acceptor, a small fixed pool of
//! event-loop connection workers, and one batch dispatcher per engine
//! class.
//!
//! Threading model (the PR 10 rewrite): the acceptor waits on the
//! listener with `poll(2)` and hands accepted sockets round-robin to
//! `Config::event_workers` **event-loop workers**.  Each worker owns a
//! slab of nonblocking connections multiplexed over one `poll(2)`
//! readiness set plus a self-pipe wake channel — a thousand idle
//! connections cost one slab entry each, not a parked thread each,
//! which is what lets the front-end feed the engines at saturation
//! instead of topping out on thread-per-connection context switches.
//! Connection workers never run engines: they decode, probe the
//! per-class result cache, submit to the sharded admission queue, and
//! carry on servicing other sockets.  A worker's pass over its parsed
//! lines is one admission [`Round`]: what it admits coalesces, and
//! closing the round releases those buckets.  The dispatcher routes the
//! completion back to the owning worker through its completion inbox
//! and wake pipe.  One dispatcher thread per engine class pulls
//! coalesced buckets off its queue shard and fans multi-bucket flushes
//! out over a [`StealPool`].
//!
//! Per-socket watchdog semantics survive the rewrite: a connection
//! with no complete request line for `idle_timeout` is reaped (the
//! idle clock resets on received bytes and on reply delivery, and
//! never fires while a request is in flight), and a peer that stops
//! draining its socket is cut off after `write_timeout` of no write
//! progress.
//!
//! The panic contract: every failure path a client can trigger —
//! malformed JSON, oversized lines, invalid problems, engine panics,
//! backpressure, shutdown — produces a typed
//! [`SdpError`](sdp_fault::SdpError) response line.  A panic inside an
//! engine is caught at the bucket boundary and surfaces as
//! `task_panicked` for every rider of that bucket; the server itself
//! keeps running.

use crate::breaker::{Admission, BreakerConfig, CircuitBreaker};
use crate::cache::LruCache;
use crate::engine::{self};
use crate::evloop::{poll_fds, wake_pipe, PollFd, WakeHandle, WakePipe, POLLIN, POLLOUT};
use crate::metrics::{Metrics, PHASES};
use crate::protocol::{self, Body, Class, Request, CLASSES};
use crate::queue::{Completion, Job, JobResponse, Queue, QueueConfig, ReplySink, Round, SpanTimes};
use crate::{json, Config};
use sdp_fault::{DispatchAction, ReplyAction, SdpError};
use sdp_par::{lock_recover, StealPool};
use sdp_trace::chrome::ChromeTrace;
use sdp_trace::json::Json;
use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// The acceptor's poll timeout: bounds how long shutdown can go
/// unobserved, not accept latency (readiness wakes the poll early).
/// Also the back-off after a failed `accept`, so descriptor exhaustion
/// costs at most one counted failure per tick.
const ACCEPT_TICK: Duration = Duration::from_millis(5);

/// Parsed-but-unprocessed request lines a connection may buffer before
/// the worker stops polling its socket for reads (per-connection
/// pipelining backpressure).
const PENDING_CAP: usize = 64;

/// Socket read chunk size.
const READ_CHUNK: usize = 16 * 1024;

/// The in-memory Chrome trace a `Config { trace: true }` server
/// collects: one slice per request phase, lanes keyed by engine class.
struct TraceState {
    /// Trace epoch — slice timestamps are µs since server start.
    t0: Instant,
    trace: ChromeTrace,
}

struct Shared {
    cfg: Config,
    queue: Queue,
    /// One LRU shard per engine class (capacity applies per class), so
    /// hit probes of one class never contend with insertions of
    /// another.
    caches: Vec<Mutex<LruCache>>,
    metrics: Metrics,
    /// One circuit breaker per engine class, indexed by `Class::index`.
    breakers: Vec<CircuitBreaker>,
    trace: Option<Mutex<TraceState>>,
    shutdown: AtomicBool,
    /// Set by the acceptor after its final possible hand-off, so
    /// event workers can prove no more connections are coming.
    accept_done: AtomicBool,
    /// Wake handles of every event worker (filled once at startup);
    /// `begin_shutdown` nudges them all out of `poll`.
    wakes: Mutex<Vec<WakeHandle>>,
}

impl Shared {
    /// Idempotent shutdown trigger: stop admissions, flush leftovers,
    /// and wake every event worker so idle ones observe the flag.
    fn begin_shutdown(&self) {
        if self.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        self.queue.start_drain();
        for wake in lock_recover(&self.wakes).iter() {
            wake.wake();
        }
    }
}

/// One event worker's intake: freshly accepted sockets, completed
/// jobs, and the wake pipe that flushes both.
#[derive(Clone)]
struct WorkerRoute {
    conns: Arc<Mutex<Vec<TcpStream>>>,
    completions: Arc<Mutex<Vec<Completion>>>,
    wake: WakeHandle,
}

/// A running server; dropping the handle does *not* stop it — call
/// [`ServerHandle::shutdown`] for a graceful drain.
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    acceptor: Option<JoinHandle<()>>,
    dispatchers: Vec<JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound address (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Largest coalesced batch dispatched so far (test/experiment hook).
    pub fn max_coalesced(&self) -> u64 {
        self.shared.metrics.max_coalesced()
    }

    /// Cache hits so far (test/experiment hook).
    pub fn cache_hits(&self) -> u64 {
        self.shared.metrics.cache_hits()
    }

    /// Currently-open client connections (test/experiment hook).
    pub fn active_connections(&self) -> i64 {
        self.shared.metrics.active_connections()
    }

    /// Connections reaped for idling past the timeout (test hook).
    pub fn reaped_count(&self) -> u64 {
        self.shared.metrics.reaped_count()
    }

    /// Failed accepts: `accept` errors (descriptor exhaustion) plus
    /// accepted sockets dropped because post-accept setup failed (test
    /// hook).
    pub fn accept_failures(&self) -> u64 {
        self.shared.metrics.accept_failures_count()
    }

    /// Current breaker state code for one engine class (test hook);
    /// see [`crate::breaker`] for the encoding.
    pub fn breaker_code(&self, class: Class) -> i64 {
        self.shared.breakers[class.index()].state_code()
    }

    /// The rendered Chrome trace collected so far, or `None` when the
    /// server was started with `Config { trace: false }`.
    pub fn trace_snapshot(&self) -> Option<String> {
        self.shared
            .trace
            .as_ref()
            .map(|t| lock_recover(t).trace.render())
    }

    /// Blocks until the server drains (a `shutdown` request or an
    /// earlier [`ServerHandle::shutdown`]) and joins the acceptor and
    /// dispatcher threads, keeping the handle alive for post-drain
    /// inspection ([`ServerHandle::trace_snapshot`]).  Event workers
    /// are *not* joined: they stay up (detached) answering lingering
    /// connections with typed `shutting_down` errors until the last
    /// client hangs up, then exit on their own.  Idempotent.
    pub fn wait(&mut self) {
        if let Some(h) = self.acceptor.take() {
            let _ = h.join();
        }
        for h in self.dispatchers.drain(..) {
            let _ = h.join();
        }
    }

    /// Blocks until a client-initiated `shutdown` request drains the
    /// server, then joins the threads (the `sdp-serve` binary's main).
    pub fn shutdown_on_request(mut self) {
        self.wait();
    }

    /// Stops admitting requests, flushes every queued bucket, waits for
    /// in-flight work, and joins the server threads.
    pub fn shutdown(mut self) {
        self.shared.begin_shutdown();
        self.wait();
    }
}

/// Binds `cfg.addr` and starts the acceptor, event-loop workers, and
/// per-class dispatcher threads.
pub fn serve(cfg: Config) -> std::io::Result<ServerHandle> {
    let listener = TcpListener::bind(&cfg.addr)?;
    let addr = listener.local_addr()?;
    // The acceptor polls the listener so it can observe the shutdown
    // flag without a wake-up connection.
    listener.set_nonblocking(true)?;
    let queue_cfg = QueueConfig {
        max_queue: cfg.max_queue,
        shed_queue: cfg.shed_queue,
        max_batch: cfg.max_batch,
        max_delay: cfg.max_delay,
    };
    let metrics = Metrics::new(cfg.workers);
    let breaker_cfg = BreakerConfig {
        trip_after: cfg.breaker_trip_after,
        cooldown: cfg.breaker_cooldown,
    };
    let breakers = CLASSES
        .iter()
        .map(|class| {
            let (gauge, trips) = metrics.breaker_series(*class);
            CircuitBreaker::new(breaker_cfg, gauge, trips)
        })
        .collect();
    let caches = CLASSES
        .iter()
        .map(|_| Mutex::new(LruCache::new(cfg.cache_capacity)))
        .collect();
    let event_workers = cfg.event_workers.max(1);
    let shared = Arc::new(Shared {
        queue: Queue::with_flush_counters(queue_cfg, metrics.queue_flush_counters()),
        caches,
        metrics,
        breakers,
        trace: cfg.trace.then(|| {
            Mutex::new(TraceState {
                t0: Instant::now(),
                trace: ChromeTrace::new(),
            })
        }),
        shutdown: AtomicBool::new(false),
        accept_done: AtomicBool::new(false),
        wakes: Mutex::new(Vec::new()),
        cfg,
    });
    shared
        .metrics
        .register_queue_gauge(shared.queue.depth_gauge());

    // Event workers are detached (see ServerHandle::wait); each gets a
    // connection inbox, a completion inbox, and a wake pipe.
    let mut routes = Vec::with_capacity(event_workers);
    for w in 0..event_workers {
        let (wake, pipe) = wake_pipe()?;
        let route = WorkerRoute {
            conns: Arc::new(Mutex::new(Vec::new())),
            completions: Arc::new(Mutex::new(Vec::new())),
            wake,
        };
        lock_recover(&shared.wakes).push(route.wake.clone());
        let worker_shared = Arc::clone(&shared);
        let worker_route = route.clone();
        thread::Builder::new()
            .name(format!("sdp-serve-evloop-{w}"))
            .spawn(move || event_loop(worker_shared, worker_route, pipe))?;
        routes.push(route);
    }

    let pool = StealPool::new(shared.cfg.workers);
    let dispatchers = CLASSES
        .iter()
        .map(|&class| {
            let shared = Arc::clone(&shared);
            thread::Builder::new()
                .name(format!("sdp-serve-dispatch-{}", class.name()))
                .spawn(move || dispatch_loop(&shared, class, pool))
        })
        .collect::<std::io::Result<Vec<_>>>()?;
    let acceptor = {
        let shared = Arc::clone(&shared);
        thread::Builder::new()
            .name("sdp-serve-accept".into())
            .spawn(move || accept_loop(listener, shared, routes))?
    };
    Ok(ServerHandle {
        addr,
        shared,
        acceptor: Some(acceptor),
        dispatchers,
    })
}

fn accept_loop(listener: TcpListener, shared: Arc<Shared>, routes: Vec<WorkerRoute>) {
    let mut next = 0usize;
    'outer: loop {
        if shared.shutdown.load(Ordering::SeqCst) {
            break;
        }
        let mut fds = [PollFd::new(listener.as_raw_fd(), POLLIN)];
        poll_fds(&mut fds, Some(ACCEPT_TICK));
        loop {
            match listener.accept() {
                Ok((stream, _)) => {
                    // The whole front-end is readiness-driven, so the
                    // accepted socket must be nonblocking too; a
                    // socket that can't be is dropped *and counted*
                    // (these used to vanish silently).
                    if stream.set_nonblocking(true).is_err() {
                        shared.metrics.accept_failed();
                        continue;
                    }
                    // Replies are one line each; never Nagle them.
                    let _ = stream.set_nodelay(true);
                    shared.metrics.connection_opened();
                    let route = &routes[next % routes.len()];
                    next = next.wrapping_add(1);
                    lock_recover(&route.conns).push(stream);
                    route.wake.wake();
                }
                Err(e) => {
                    // A real accept error (EMFILE/ENFILE: out of
                    // descriptors) leaves the listener readable, so an
                    // immediate re-poll would spin: count it and back
                    // off one tick instead.
                    if e.kind() != ErrorKind::WouldBlock {
                        shared.metrics.accept_failed();
                        thread::sleep(ACCEPT_TICK);
                    }
                    continue 'outer;
                }
            }
        }
    }
    // No hand-off can happen after this store; workers use it to prove
    // their intake is final before exiting.
    shared.accept_done.store(true, Ordering::SeqCst);
    for route in &routes {
        route.wake.wake();
    }
}

fn dispatch_loop(shared: &Arc<Shared>, class: Class, pool: StealPool) {
    while let Some(buckets) = shared.queue.next_batches_for(class) {
        let flushed = Instant::now();
        let tasks: Vec<_> = buckets
            .into_iter()
            .map(|jobs| {
                let shared = Arc::clone(shared);
                move || dispatch_bucket(class, jobs, flushed, &shared)
            })
            .collect();
        pool.run_observed(tasks, shared.metrics.pool_stats());
    }
}

/// Answer one expired rider with `deadline_exceeded` without burning
/// engine time on it.  Expirations get their own metrics series
/// (`expired`) and carry `engine: None` — they must never masquerade
/// as engine work or skew the completed-latency percentiles.
fn expire_job(job: Job, started: Instant, flushed: Instant, class: Class, shared: &Shared) {
    let waited = started.saturating_duration_since(job.enqueued);
    shared.metrics.expired(class, waited);
    let coalesce_us = flushed.saturating_duration_since(job.enqueued).as_micros() as u64;
    let queue_us = started.saturating_duration_since(flushed).as_micros() as u64;
    job.tx.send(JobResponse {
        result: Err(SdpError::DeadlineExceeded {
            waited_ms: waited.as_millis() as u64,
            deadline_ms: job.deadline_ms,
        }),
        batch: 0,
        engine: None,
        span: SpanTimes {
            coalesce_us,
            queue_us,
            engine_us: 0,
            engine_done: started,
        },
    });
}

/// Run one coalesced bucket on the engine: expire overdue riders, apply
/// any chaos dispatch action, catch engine panics, feed the class
/// breaker, and route replies back to the owning event workers.
fn dispatch_bucket(class: Class, jobs: Vec<Job>, flushed: Instant, shared: &Shared) {
    let started = Instant::now();
    let breaker = &shared.breakers[class.index()];
    // Jobs past their deadline are answered without engine work; the
    // rest run as a (possibly smaller) bucket.
    let (expired, live): (Vec<_>, Vec<_>) = jobs.into_iter().partition(|j| started >= j.deadline);
    for job in expired {
        expire_job(job, started, flushed, class, shared);
    }
    if live.is_empty() {
        // Nothing reached the engine, so this bucket says nothing
        // about engine health — but it may have been the half-open
        // probe, whose slot must be released.
        breaker.record_skip();
        return;
    }
    // The engine borrows the bodies as one slice; the riders keep what
    // the replies need.  Moving each body out spares a deep copy of
    // every operand.
    let (bodies, riders): (Vec<Body>, Vec<_>) = live
        .into_iter()
        .map(|job| (job.body, (job.cache_key, job.tx, job.enqueued)))
        .unzip();
    let size = riders.len();
    // Route by problem size: the crossover threshold sends large
    // buckets to the compiled direct solvers, small ones to the
    // cycle-accurate simulators.  Answers are bit-identical either way.
    let kind = engine::choose(&bodies, shared.cfg.direct_threshold);
    shared.metrics.dispatched_batch(class, size, kind);
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        if let Some(chaos) = &shared.cfg.chaos {
            match chaos.on_dispatch() {
                DispatchAction::Run => {}
                DispatchAction::Stall { ms } => {
                    shared.metrics.chaos_injected("engine_stall");
                    thread::sleep(Duration::from_millis(ms));
                }
                DispatchAction::Panic => {
                    shared.metrics.chaos_injected("engine_panic");
                    panic!("chaos: injected engine panic");
                }
            }
        }
        engine::run_bucket_on(kind, class, &bodies)
    }));
    breaker.record(outcome.is_ok());
    let results = outcome.unwrap_or_else(|_| {
        riders
            .iter()
            .map(|_| {
                Err(SdpError::TaskPanicked {
                    task: 0,
                    attempts: 1,
                })
            })
            .collect()
    });
    let engine_done = Instant::now();
    // Batch-level phase boundaries; only the coalesce wait differs per
    // rider (each admitted at its own time, all flushed together).
    let queue_us = started.saturating_duration_since(flushed).as_micros() as u64;
    let engine_us = engine_done.saturating_duration_since(started).as_micros() as u64;
    for ((cache_key, tx, enqueued), result) in riders.into_iter().zip(results) {
        let ok = result.is_ok();
        // One render per payload: the cache and the reply share it.
        let result = result.map(|payload| Arc::<str>::from(payload.render()));
        if let Ok(rendered) = &result {
            let cache = &shared.caches[class.index()];
            if lock_recover(cache).insert(cache_key, Arc::clone(rendered)) {
                shared.metrics.cache_evicted();
            }
        }
        let coalesce_us = flushed.saturating_duration_since(enqueued).as_micros() as u64;
        shared
            .metrics
            .record_dispatch_phases(class, coalesce_us, queue_us, engine_us);
        shared.metrics.completed(class, ok, enqueued.elapsed());
        // A vanished connection means the client hung up mid-request;
        // the generation check at delivery discards the work.
        tx.send(JobResponse {
            result,
            batch: size,
            engine: Some(kind),
            span: SpanTimes {
                coalesce_us,
                queue_us,
                engine_us,
                engine_done,
            },
        });
    }
}

/// One parsed-off request line awaiting processing.
enum Pending {
    /// A complete request line (newline stripped).
    Line(String),
    /// A line that exceeded the byte limit; carries total line bytes
    /// (the overflow was discarded to a clean newline boundary).
    TooLarge(usize),
}

/// The compute request a connection is blocked on.
struct Inflight {
    id: i64,
    class: Class,
}

/// One connection's slab state inside an event worker.
struct Conn {
    stream: TcpStream,
    /// Bytes of the current (incomplete) request line.
    partial: Vec<u8>,
    /// Once the current line blows the cap: total bytes seen so far
    /// (content is discarded until the closing newline).
    oversized: Option<usize>,
    /// Complete lines waiting to be processed.
    pending: VecDeque<Pending>,
    /// Bytes not yet accepted by the socket.
    write_buf: Vec<u8>,
    /// Armed while `write_buf` is non-empty; no progress past it cuts
    /// the connection off.
    write_deadline: Option<Instant>,
    /// Reaped past this instant while the connection is in slow-loris
    /// posture (see [`Conn::reapable`]); reset on received bytes and
    /// reply delivery.
    idle_deadline: Instant,
    /// At least one complete request line has arrived; established
    /// connections idling cleanly between requests are never reaped.
    established: bool,
    /// The submitted request this connection is waiting on, if any.
    inflight: Option<Inflight>,
    /// Peer closed its write side; serve what's buffered, then close.
    eof: bool,
    /// Deliver nothing further; close once `write_buf` drains
    /// (chaos connection_drop).
    close_after_flush: bool,
    /// Hard failure (I/O error): close immediately.
    dead: bool,
}

impl Conn {
    fn new(stream: TcpStream, idle_deadline: Instant) -> Conn {
        Conn {
            stream,
            partial: Vec::new(),
            oversized: None,
            pending: VecDeque::new(),
            write_buf: Vec::new(),
            write_deadline: None,
            idle_deadline,
            established: false,
            inflight: None,
            eof: false,
            close_after_flush: false,
            dead: false,
        }
    }

    /// Fully drained: nothing buffered in either direction and nothing
    /// in flight.
    fn drained(&self) -> bool {
        self.inflight.is_none()
            && self.pending.is_empty()
            && self.write_buf.is_empty()
            && self.partial.is_empty()
    }

    /// Idle-reap candidate: nothing owed to the peer, and the peer is
    /// in slow-loris posture — stalled mid-line (or mid-oversized
    /// drain), or never completed a request at all.  Established
    /// connections idling cleanly between requests are exempt: a
    /// parked socket costs the event loop nothing.
    fn reapable(&self) -> bool {
        self.inflight.is_none()
            && self.pending.is_empty()
            && self.write_buf.is_empty()
            && (!self.established || !self.partial.is_empty() || self.oversized.is_some())
    }
}

/// The event-loop worker: adopts accepted sockets into a slab, reads
/// and parses request lines, probes cache/breaker, submits to the
/// queue, and delivers completions — all driven by one `poll(2)` set.
fn event_loop(shared: Arc<Shared>, route: WorkerRoute, pipe: WakePipe) {
    let mut slots: Vec<Option<Conn>> = Vec::new();
    let mut gens: Vec<u64> = Vec::new();
    let mut free: Vec<usize> = Vec::new();
    let mut rbuf = vec![0u8; READ_CHUNK];
    loop {
        // Adopt freshly accepted connections.
        let fresh: Vec<TcpStream> = std::mem::take(&mut *lock_recover(&route.conns));
        if !fresh.is_empty() {
            let now = Instant::now();
            for stream in fresh {
                let slot = free.pop().unwrap_or_else(|| {
                    slots.push(None);
                    gens.push(0);
                    slots.len() - 1
                });
                // A new generation per (re)use, so completions for a
                // prior tenant of the slot can never be misdelivered.
                gens[slot] += 1;
                slots[slot] = Some(Conn::new(stream, now + shared.cfg.idle_timeout));
            }
        }
        // Deliver completed jobs to their connections.
        let done: Vec<Completion> = std::mem::take(&mut *lock_recover(&route.completions));
        for (slot, gen, resp) in done {
            if let Some(conn) = slots.get_mut(slot).and_then(Option::as_mut) {
                if gens[slot] == gen {
                    deliver_completion(conn, resp, &shared);
                }
            }
        }
        // Service every connection as one admission round: what this
        // pass admits coalesces, and closing the round releases it to
        // the dispatchers before any reply bytes are written.
        let mut round = shared.queue.round();
        for slot in 0..slots.len() {
            let gen = gens[slot];
            if let Some(conn) = slots[slot].as_mut() {
                service_conn(conn, slot, gen, &shared, &route, &mut round);
            }
        }
        drop(round);
        for conn in slots.iter_mut().flatten() {
            flush_conn(conn, shared.cfg.write_timeout);
        }
        // Close sweep: hard failures, drained EOFs/drops, write-stall
        // cutoffs, and idle reaps.
        let now = Instant::now();
        for (slot, entry) in slots.iter_mut().enumerate() {
            let Some(conn) = entry.as_ref() else {
                continue;
            };
            let close = if conn.dead
                || (conn.close_after_flush && conn.write_buf.is_empty())
                || (conn.eof && conn.drained())
                || conn.write_deadline.is_some_and(|d| now >= d)
            {
                true
            } else if conn.reapable() && now >= conn.idle_deadline {
                shared.metrics.reaped();
                true
            } else {
                false
            };
            if close {
                *entry = None;
                free.push(slot);
                shared.metrics.connection_closed();
            }
        }
        // Exit: draining, intake provably final, and every connection
        // gone.  Until then lingering clients keep getting typed
        // shutting_down errors.
        let live = slots.iter().filter(|s| s.is_some()).count();
        if live == 0
            && shared.shutdown.load(Ordering::SeqCst)
            && shared.accept_done.load(Ordering::SeqCst)
            && lock_recover(&route.conns).is_empty()
        {
            return;
        }
        // Build the poll set: the wake pipe plus every connection that
        // wants bytes in or has bytes to push out.
        let mut fds = vec![PollFd::new(pipe.fd(), POLLIN)];
        let mut fd_slots = vec![usize::MAX];
        let mut deadline: Option<Instant> = None;
        let consider = |deadline: &mut Option<Instant>, d: Instant| {
            *deadline = Some(deadline.map_or(d, |cur| cur.min(d)));
        };
        for (slot, entry) in slots.iter().enumerate() {
            let Some(conn) = entry else { continue };
            let mut events = 0i16;
            if !conn.eof && !conn.close_after_flush && conn.pending.len() < PENDING_CAP {
                events |= POLLIN;
            }
            if !conn.write_buf.is_empty() {
                events |= POLLOUT;
            }
            if events != 0 {
                fds.push(PollFd::new(conn.stream.as_raw_fd(), events));
                fd_slots.push(slot);
            }
            if conn.reapable() {
                consider(&mut deadline, conn.idle_deadline);
            }
            if let Some(d) = conn.write_deadline {
                consider(&mut deadline, d);
            }
        }
        let timeout = deadline.map(|d| d.saturating_duration_since(Instant::now()));
        poll_fds(&mut fds, timeout);
        if fds[0].ready() {
            pipe.drain();
        }
        for (i, pfd) in fds.iter().enumerate().skip(1) {
            if !pfd.ready() {
                continue;
            }
            let Some(conn) = slots[fd_slots[i]].as_mut() else {
                continue;
            };
            // Any error/hangup bit also lands here: the read surfaces
            // the actual condition.
            if pfd.revents & POLLOUT != 0 {
                flush_conn(conn, shared.cfg.write_timeout);
            }
            if pfd.revents & !POLLOUT != 0 {
                read_conn(conn, &mut rbuf, &shared);
            }
        }
    }
}

/// Reads until `WouldBlock` (or the pipelining cap), slicing complete
/// request lines into the connection's pending deque.
fn read_conn(conn: &mut Conn, rbuf: &mut [u8], shared: &Shared) {
    loop {
        match (&conn.stream).read(rbuf) {
            Ok(0) => {
                conn.eof = true;
                return;
            }
            Ok(n) => {
                conn.idle_deadline = Instant::now() + shared.cfg.idle_timeout;
                ingest(conn, &rbuf[..n], shared.cfg.max_request_bytes);
                if conn.pending.len() >= PENDING_CAP {
                    return;
                }
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => return,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(_) => {
                conn.dead = true;
                return;
            }
        }
    }
}

/// Splits a received chunk into complete lines, enforcing the byte
/// limit without trusting the client to ever send a newline.  Same
/// boundary as the blocking reader it replaces: the newline counts
/// against the limit, and an oversized line is drained (counted, not
/// stored) to its closing newline.
fn ingest(conn: &mut Conn, chunk: &[u8], limit: usize) {
    let mut rest = chunk;
    while let Some(pos) = rest.iter().position(|b| *b == b'\n') {
        let (head, tail) = rest.split_at(pos + 1);
        rest = tail;
        conn.established = true;
        if let Some(total) = conn.oversized.take() {
            conn.pending
                .push_back(Pending::TooLarge(total + head.len()));
            continue;
        }
        conn.partial.extend_from_slice(head);
        if conn.partial.len() > limit {
            conn.pending
                .push_back(Pending::TooLarge(conn.partial.len()));
            conn.partial.clear();
            continue;
        }
        let mut line = std::mem::take(&mut conn.partial);
        line.pop(); // the newline
        if line.last() == Some(&b'\r') {
            line.pop();
        }
        conn.pending
            .push_back(Pending::Line(String::from_utf8_lossy(&line).into_owned()));
    }
    if let Some(total) = &mut conn.oversized {
        *total += rest.len();
    } else {
        conn.partial.extend_from_slice(rest);
        if conn.partial.len() > limit {
            conn.oversized = Some(conn.partial.len());
            conn.partial.clear();
        }
    }
}

/// Pushes buffered reply bytes until the socket pushes back.  Progress
/// re-arms the write deadline; a full drain clears it.
fn flush_conn(conn: &mut Conn, write_timeout: Duration) {
    while !conn.write_buf.is_empty() {
        match (&conn.stream).write(&conn.write_buf) {
            Ok(0) => {
                conn.dead = true;
                return;
            }
            Ok(n) => {
                conn.write_buf.drain(..n);
                conn.write_deadline = Some(Instant::now() + write_timeout);
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => {
                if conn.write_deadline.is_none() {
                    conn.write_deadline = Some(Instant::now() + write_timeout);
                }
                return;
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(_) => {
                conn.dead = true;
                return;
            }
        }
    }
    conn.write_deadline = None;
}

/// Appends a control reply line (never subject to chaos actions).
fn push_control(conn: &mut Conn, text: &str) {
    conn.write_buf.extend_from_slice(text.as_bytes());
    conn.write_buf.push(b'\n');
}

/// Appends a compute reply line through the chaos gate.  Chaos reply
/// actions apply to *every* compute reply — engine results, cache
/// hits, inline errors — while control replies stay intact so
/// harnesses can always observe final state.
fn push_compute_reply(conn: &mut Conn, text: &str, shared: &Shared) {
    if let Some(chaos) = &shared.cfg.chaos {
        match chaos.on_reply() {
            ReplyAction::Deliver => {}
            ReplyAction::Tear => {
                // The tear is a mid-line flush boundary on the wire,
                // not data loss: the line still completes.
                shared.metrics.chaos_injected("torn_write");
                let half = text.len() / 2;
                conn.write_buf.extend_from_slice(&text.as_bytes()[..half]);
                flush_conn(conn, shared.cfg.write_timeout);
                conn.write_buf.extend_from_slice(&text.as_bytes()[half..]);
                conn.write_buf.push(b'\n');
                return;
            }
            ReplyAction::Drop => {
                // Swallow this reply, abandon unprocessed pipelined
                // lines, flush earlier replies, then close — exactly
                // the blast radius of the old thread-per-connection
                // drop.
                shared.metrics.chaos_injected("connection_drop");
                conn.pending.clear();
                conn.close_after_flush = true;
                return;
            }
        }
    }
    conn.write_buf.extend_from_slice(text.as_bytes());
    conn.write_buf.push(b'\n');
}

/// Processes parsed request lines until one goes in flight (at most
/// one compute request per connection runs at a time; pipelined lines
/// wait their turn in `pending`).
fn service_conn(
    conn: &mut Conn,
    slot: usize,
    gen: u64,
    shared: &Shared,
    route: &WorkerRoute,
    round: &mut Round<'_>,
) {
    while conn.inflight.is_none() && !conn.close_after_flush && !conn.dead {
        let Some(next) = conn.pending.pop_front() else {
            return;
        };
        match next {
            Pending::TooLarge(bytes) => {
                shared.metrics.oversized();
                let e = SdpError::PayloadTooLarge {
                    bytes,
                    limit: shared.cfg.max_request_bytes,
                };
                push_control(conn, &protocol::error_response(0, &e));
            }
            Pending::Line(line) => {
                if line.trim().is_empty() {
                    continue;
                }
                handle_line(conn, &line, slot, gen, shared, route, round);
            }
        }
    }
}

/// Decodes one request line and routes it: control requests reply
/// inline, compute requests either reply inline (cache hit, degraded,
/// rejected) or go in flight through the admission round.
fn handle_line(
    conn: &mut Conn,
    line: &str,
    slot: usize,
    gen: u64,
    shared: &Shared,
    route: &WorkerRoute,
    round: &mut Round<'_>,
) {
    let doc = match json::parse(line) {
        Ok(doc) => doc,
        Err(reason) => {
            shared.metrics.malformed();
            push_control(
                conn,
                &protocol::error_response(0, &SdpError::MalformedRequest { reason }),
            );
            return;
        }
    };
    let request = match protocol::decode(&doc) {
        Ok(r) => r,
        Err(e) => {
            shared.metrics.malformed();
            let id = json::get(&doc, "id").and_then(json::as_i64).unwrap_or(0);
            push_control(conn, &protocol::error_response(id, &e));
            return;
        }
    };
    match request {
        Request::Metrics { id } => {
            let snapshot = shared.metrics.to_json(shared.queue.depth());
            push_control(conn, &protocol::ok_response(id, snapshot, false, 0));
        }
        Request::MetricsText { id } => {
            let payload = Json::object()
                .with("format", "prometheus")
                .with("text", shared.metrics.render_prometheus());
            push_control(conn, &protocol::ok_response(id, payload, false, 0));
        }
        Request::Shutdown { id } => {
            let reply = protocol::ok_response(id, Json::object().with("draining", true), false, 0);
            push_control(conn, &reply);
            // Put the reply on the wire before the drain starts: once
            // the dispatchers exit, `ServerHandle::wait` returns, and a
            // process that then exits takes this detached worker (and
            // an unflushed reply) down with it.
            flush_conn(conn, shared.cfg.write_timeout);
            shared.begin_shutdown();
        }
        Request::Compute {
            id,
            body,
            deadline_ms,
        } => {
            let class = body.class();
            let sink = || ReplySink::Event {
                inbox: Arc::clone(&route.completions),
                wake: route.wake.clone(),
                slot,
                gen,
            };
            match handle_compute(id, body, deadline_ms, shared, round, sink) {
                Some(reply) => push_compute_reply(conn, &reply, shared),
                None => conn.inflight = Some(Inflight { id, class }),
            }
        }
    }
}

/// Closes a request span at reply delivery: measures the `respond`
/// phase (engine done → reply in the worker's hands), feeds the span
/// to the metrics pipeline, and — when tracing is enabled — appends
/// one trace slice per phase, laid back-to-back on the engine class's
/// lane.
fn finish_span(id: i64, class: Class, batch: usize, span: &SpanTimes, shared: &Shared) {
    let respond_us = span.engine_done.elapsed().as_micros() as u64;
    let total_us = span.coalesce_us + span.queue_us + span.engine_us + respond_us;
    shared.metrics.record_respond(
        class,
        span.coalesce_us,
        span.queue_us,
        span.engine_us,
        respond_us,
        total_us,
    );
    let Some(trace) = &shared.trace else { return };
    let mut t = lock_recover(trace);
    let end_us = t.t0.elapsed().as_micros() as u64;
    // Zero-length phases get the viewer's 1 µs minimum width, so the
    // rendered span may end slightly past `end_us`; start from the
    // widened durations to keep the slices contiguous.
    let durs = [
        span.coalesce_us.max(1),
        span.queue_us.max(1),
        span.engine_us.max(1),
        respond_us.max(1),
    ];
    let mut ts = end_us.saturating_sub(durs.iter().sum());
    for (phase, dur) in PHASES.iter().zip(durs) {
        t.trace.complete_with_args(
            phase,
            class.name(),
            ts,
            dur,
            0,
            class.index() as u32,
            vec![
                ("id".to_string(), Json::Int(id)),
                ("batch".to_string(), Json::from(batch)),
            ],
        );
        ts += dur;
    }
}

/// Renders and delivers one completed job's reply, closing its span
/// and re-arming the idle clock.
fn deliver_completion(conn: &mut Conn, resp: JobResponse, shared: &Shared) {
    let Some(inflight) = conn.inflight.take() else {
        return;
    };
    finish_span(inflight.id, inflight.class, resp.batch, &resp.span, shared);
    let text = match resp.result {
        Ok(payload) => protocol::ok_rendered_engine_response(
            inflight.id,
            &payload,
            resp.batch,
            resp.engine.map_or("sim", |k| k.name()),
        ),
        Err(e) => protocol::error_response(inflight.id, &e),
    };
    push_compute_reply(conn, &text, shared);
    conn.idle_deadline = Instant::now() + shared.cfg.idle_timeout;
}

/// The oracle fallback an open breaker degrades to, for classes whose
/// served payload is bit-identical to the engine's.  `Chain` is out
/// (the engine adds a `steps` field) and `Multistage` is out (interior
/// shape checks are engine-side), so those fast-reject instead.
fn fallback_payload(body: &Body) -> Option<Json> {
    use sdp_oracle::served;
    match body {
        Body::Matmul { a, b } => Some(served::served_matmul(a, b)),
        Body::Edit { a, b } => Some(served::served_edit(a, b)),
        Body::Bst { freq } => Some(served::served_bst(freq)),
        Body::AndOr { graph, root } => Some(served::served_andor(graph, *root)),
        Body::Align {
            a,
            b,
            matched,
            mismatched,
            gap,
        } => Some(served::served_align(a, b, *matched, *mismatched, *gap)),
        Body::Knapsack { items, capacity } => {
            let pairs: Vec<(u64, u64)> = items.iter().map(|it| (it.weight, it.value)).collect();
            Some(served::served_knapsack(&pairs, *capacity))
        }
        Body::Chain { .. } | Body::Multistage { .. } => None,
    }
}

/// The compute admission path.  Returns `Some(reply)` for an inline
/// answer (cache hit, degraded fallback, typed rejection), `None` once
/// the job is admitted into `round`; its reply then arrives through the
/// [`ReplySink`] that `sink` builds.
fn handle_compute(
    id: i64,
    body: Body,
    deadline_ms: Option<u64>,
    shared: &Shared,
    round: &mut Round<'_>,
    sink: impl FnOnce() -> ReplySink,
) -> Option<String> {
    let class = body.class();
    let key = body.canonical_key();
    if let Some(payload) = lock_recover(&shared.caches[class.index()]).get(&key) {
        shared.metrics.cache_hit(class);
        // The hot path: splice the pre-rendered payload straight into
        // the envelope — no parse, no clone, no re-render.
        return Some(protocol::ok_cached_response(id, &payload));
    }
    shared.metrics.cache_miss();
    let breaker = &shared.breakers[class.index()];
    let admission = breaker.admit();
    if let Admission::Reject { retry_after_ms } = admission {
        // Open breaker: degrade small decode-validated inputs to the
        // reference solver instead of going dark; everything else
        // fast-rejects with the remaining cooldown as a retry hint.
        if key.len() <= shared.cfg.breaker_fallback_max_bytes {
            if let Some(payload) = fallback_payload(&body) {
                shared.metrics.degraded(class);
                return Some(protocol::degraded_response(id, payload));
            }
        }
        shared.metrics.rejected_circuit_open();
        return Some(protocol::error_response(
            id,
            &SdpError::CircuitOpen { retry_after_ms },
        ));
    }
    let probe = matches!(admission, Admission::Admit { probe: true });
    let deadline_ms = deadline_ms.unwrap_or(shared.cfg.default_deadline.as_millis() as u64);
    let now = Instant::now();
    let deadline = now
        .checked_add(Duration::from_millis(deadline_ms))
        // An absurd deadline_ms can overflow Instant arithmetic; a
        // year out is indistinguishable from "no deadline".
        .unwrap_or_else(|| now + Duration::from_secs(365 * 24 * 3600));
    let job = Job {
        body,
        cache_key: key,
        tx: sink(),
        enqueued: now,
        deadline,
        deadline_ms,
    };
    match round.submit(job) {
        Ok(()) => None,
        Err(e) => {
            match &e {
                SdpError::QueueFull { .. } => shared.metrics.rejected_queue_full(),
                SdpError::Overloaded { .. } => shared.metrics.rejected_overloaded(),
                _ => {}
            }
            if probe {
                // The probe never reached the engine; free its slot so
                // the breaker can try again.
                breaker.record_skip();
            }
            Some(protocol::error_response(id, &e))
        }
    }
}
