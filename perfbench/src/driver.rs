//! The benchmark's own load driver: one thread, a fixed set of
//! nonblocking connections, closed-loop and open-loop phases, and an
//! oracle check of every reply.
//!
//! Open-loop latency is timed from each request's *due* time on the
//! schedule, not from when the driver got round to sending it, so a
//! stall in the server (or the driver) is charged to every request it
//! delays.  How late the driver itself ran is recorded separately.
//! Every sample is kept exactly; quantiles are read off the sorted
//! samples.

use crate::sys::wait_ready;
use crate::workload::Problem;
use sdp_serve::evloop::{PollFd, POLLIN, POLLOUT};
use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::fd::AsRawFd;
use std::time::{Duration, Instant};

/// How long replies may trail the end of a phase before the requests
/// still unanswered count as failed.
const GRACE: Duration = Duration::from_secs(5);

/// Failed-reply lines echoed to stderr per run, for diagnosis.
const REPORT_FAILURES: usize = 3;

/// Equal slices each phase is measured in.  Run figures are medians
/// over the slices, which a host stall inside one slice cannot move.
pub const SLICES: usize = 20;

/// A request on the wire, awaiting its reply.
struct Sent {
    problem: u32,
    id: u64,
    due: Instant,
}

struct Conn {
    stream: TcpStream,
    out: Vec<u8>,
    inbuf: Vec<u8>,
    /// Bytes of `inbuf` already searched for a newline.
    scanned: usize,
    /// The server answers each connection in order.
    waiting: VecDeque<Sent>,
    closed: bool,
}

impl Conn {
    fn push(&mut self, line: &str, sent: Sent) {
        self.out.extend_from_slice(line.as_bytes());
        self.out.push(b'\n');
        self.waiting.push_back(sent);
    }

    fn flush(&mut self) {
        while !self.out.is_empty() && !self.closed {
            match (&self.stream).write(&self.out) {
                Ok(0) => self.closed = true,
                Ok(n) => {
                    self.out.drain(..n);
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => self.closed = true,
            }
        }
    }

    /// Reads what the socket holds and hands each complete reply line
    /// to `on_reply` with the request it answers.
    fn receive(&mut self, chunk: &mut [u8], mut on_reply: impl FnMut(Sent, &[u8])) {
        loop {
            match (&self.stream).read(chunk) {
                Ok(0) => {
                    self.closed = true;
                    break;
                }
                Ok(n) => {
                    self.inbuf.extend_from_slice(&chunk[..n]);
                    // A short read drained the socket: skip the
                    // syscall that would only say so.
                    if n < chunk.len() {
                        break;
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => {
                    self.closed = true;
                    break;
                }
            }
        }
        let mut start = 0;
        while let Some(pos) = self.inbuf[self.scanned..].iter().position(|&b| b == b'\n') {
            let end = self.scanned + pos;
            let sent = self
                .waiting
                .pop_front()
                .expect("the server sent a reply nobody asked for");
            on_reply(sent, &self.inbuf[start..end]);
            start = end + 1;
            self.scanned = start;
        }
        self.inbuf.drain(..start);
        self.scanned = self.inbuf.len();
    }
}

/// Outcome of a closed-loop phase.
pub struct Closed {
    /// Requests sent.
    pub sent: usize,
    /// Correct replies received before the phase ended.
    pub completed: usize,
    /// Requests answered wrongly or not at all.
    pub failed: usize,
    /// Correct replies per second in each of [`SLICES`] equal slices
    /// of the phase that the stream lasted through (or over the whole
    /// active span, if it ran out in the first), with the host's steal
    /// share in the slice.
    pub rates: Vec<(f64, f64)>,
}

/// Outcome of an open-loop phase.
pub struct Open {
    /// Requests sent.
    pub sent: usize,
    /// Correct replies.
    pub completed: usize,
    /// Requests answered wrongly or not at all.
    pub failed: usize,
    /// Latency from due time to reply, ns, sorted ascending; a failed
    /// request is `u64::MAX`.
    pub latency_ns: Vec<u64>,
    /// How long after its due time each request went out, ns, sorted.
    pub late_ns: Vec<u64>,
    /// Figures per slice of the schedule.
    pub slices: Vec<Slice>,
}

/// One of [`SLICES`] equal slices of an open-loop schedule.
pub struct Slice {
    /// Median latency of the requests due in the slice.
    pub p50_ns: u64,
    /// 90th-percentile latency of the requests due in the slice.
    pub p90_ns: u64,
    /// Server CPU between the slice's boundaries per reply received.
    pub cpu_ns_per_reply: f64,
    /// Share of the host's CPU clock the hypervisor stole meanwhile.
    pub steal: f64,
}

/// The load driver: `conns` connections to one server.
pub struct Driver<'p> {
    conns: Vec<Conn>,
    problems: &'p [Problem],
    next_id: u64,
    chunk: Vec<u8>,
    reported: usize,
}

impl<'p> Driver<'p> {
    /// Opens `conns` connections to `addr`.
    pub fn connect(
        addr: SocketAddr,
        conns: usize,
        problems: &'p [Problem],
    ) -> std::io::Result<Self> {
        let conns = (0..conns)
            .map(|_| {
                let stream = TcpStream::connect(addr)?;
                stream.set_nodelay(true)?;
                stream.set_nonblocking(true)?;
                Ok(Conn {
                    stream,
                    out: Vec::new(),
                    inbuf: Vec::new(),
                    scanned: 0,
                    waiting: VecDeque::new(),
                    closed: false,
                })
            })
            .collect::<std::io::Result<_>>()?;
        Ok(Driver {
            conns,
            problems,
            next_id: 1,
            chunk: vec![0; 256 * 1024],
            reported: 0,
        })
    }

    fn send(&mut self, conn: usize, problem: u32, due: Instant) {
        let id = self.next_id;
        self.next_id += 1;
        let line = self.problems[problem as usize].line(id);
        self.conns[conn].push(&line, Sent { problem, id, due });
    }

    /// Polls every connection for `timeout` and feeds replies to
    /// `on_reply(conn, correct, due, received)`.
    fn pump(&mut self, timeout: Duration, mut on_reply: impl FnMut(usize, bool, Instant, Instant)) {
        for c in &mut self.conns {
            c.flush();
        }
        let mut fds: Vec<PollFd> = self
            .conns
            .iter()
            .map(|c| {
                let events = if c.out.is_empty() {
                    POLLIN
                } else {
                    POLLIN | POLLOUT
                };
                PollFd::new(c.stream.as_raw_fd(), events)
            })
            .collect();
        wait_ready(&mut fds, timeout);
        let problems = self.problems;
        for (i, fd) in fds.iter().enumerate() {
            if !fd.ready() {
                continue;
            }
            let received = Instant::now();
            let reported = &mut self.reported;
            self.conns[i].receive(&mut self.chunk, |sent, reply| {
                let ok = problems[sent.problem as usize].check(sent.id, reply);
                if !ok && *reported < REPORT_FAILURES {
                    *reported += 1;
                    let shown = &reply[..reply.len().min(300)];
                    eprintln!(
                        "perfbench: wrong reply to request {}: {}",
                        sent.id,
                        String::from_utf8_lossy(shown)
                    );
                }
                on_reply(i, ok, sent.due, received);
            });
            self.conns[i].flush();
        }
    }

    fn outstanding(&self) -> usize {
        self.conns.iter().map(|c| c.waiting.len()).sum()
    }

    fn any_closed(&self) -> bool {
        self.conns.iter().any(|c| c.closed)
    }

    /// Waits up to [`GRACE`] for outstanding replies, feeding them to
    /// `on_reply`; returns how many never came.
    fn drain(&mut self, mut on_reply: impl FnMut(bool, Instant, Instant)) -> usize {
        let deadline = Instant::now() + GRACE;
        while self.outstanding() > 0 && !self.any_closed() {
            let now = Instant::now();
            if now >= deadline {
                break;
            }
            self.pump(deadline - now, |_, ok, due, at| on_reply(ok, due, at));
        }
        let lost = self.outstanding();
        for c in &mut self.conns {
            c.waiting.clear();
        }
        lost
    }

    /// Sends `problems` spread over the connections and waits for every
    /// reply; returns how many were wrong or missing.
    pub fn call_all(&mut self, problems: &[u32]) -> usize {
        let now = Instant::now();
        for (i, &p) in problems.iter().enumerate() {
            self.send(i % self.conns.len(), p, now);
        }
        let mut failed = 0;
        let lost = self.drain(|ok, _, _| failed += usize::from(!ok));
        failed + lost
    }

    /// Closed loop: keeps `window` requests outstanding per connection
    /// for `span` (or until `stream` runs out), topping one up per
    /// reply.
    pub fn closed_loop(&mut self, stream: &[u32], window: usize, span: Duration) -> Closed {
        let mut next = 0;
        let t0 = Instant::now();
        let end = t0 + span;
        for _ in 0..window {
            for c in 0..self.conns.len() {
                if next < stream.len() {
                    self.send(c, stream[next], t0);
                    next += 1;
                }
            }
        }
        let slice = span / SLICES as u32;
        let mut per_slice = [0usize; SLICES];
        let mut steal_marks = vec![steal_now()];
        let (mut completed, mut failed, mut last) = (0, 0, t0);
        let mut refill = vec![0usize; self.conns.len()];
        loop {
            let now = Instant::now();
            let boundary = t0 + slice * steal_marks.len() as u32;
            if now >= boundary && steal_marks.len() <= SLICES {
                steal_marks.push(steal_now());
                continue;
            }
            if now >= end || self.outstanding() == 0 || self.any_closed() {
                break;
            }
            self.pump(end.min(boundary) - now, |c, ok, _, at| {
                if at < end {
                    if ok {
                        completed += 1;
                        per_slice[((at - t0).as_nanos() / slice.as_nanos()) as usize] += 1;
                        last = at;
                    } else {
                        failed += 1;
                    }
                    refill[c] += 1;
                }
            });
            for (c, n) in refill.iter_mut().enumerate() {
                for _ in 0..std::mem::take(n) {
                    if next < stream.len() {
                        self.send(c, stream[next], Instant::now());
                        next += 1;
                    }
                }
            }
        }
        steal_marks.push(steal_now());
        // A stream that ran out ends the phase at its last reply.
        let active = if next == stream.len() && last < end {
            last - t0
        } else {
            span
        };
        let full = (active.as_nanos() / slice.as_nanos()) as usize;
        let rates = if full == 0 {
            let steal = steal_share(steal_marks[0], steal_marks[steal_marks.len() - 1]);
            vec![(completed as f64 / active.as_secs_f64().max(1e-9), steal)]
        } else {
            (0..full)
                .map(|k| {
                    let steal = steal_share(steal_marks[k], steal_marks[k + 1]);
                    (per_slice[k] as f64 / slice.as_secs_f64(), steal)
                })
                .collect()
        };
        let lost = self.drain(|ok, _, _| failed += usize::from(!ok));
        Closed {
            sent: next,
            completed,
            failed: failed + lost,
            rates,
        }
    }

    /// Open loop: request `i` of `stream` falls due `i / rate` seconds
    /// after the start and goes out on connection `i mod conns`,
    /// whether or not earlier replies have arrived.  `server_cpu`
    /// reads the server's CPU clock at each slice boundary.
    pub fn open_loop(
        &mut self,
        stream: &[u32],
        rate: f64,
        mut server_cpu: impl FnMut() -> u64,
    ) -> Open {
        let n = stream.len();
        let t0 = Instant::now();
        let due = |i: usize| t0 + Duration::from_secs_f64(i as f64 / rate);
        let slice_secs = n as f64 / rate / SLICES as f64;
        let slice_of =
            |d: Instant| (((d - t0).as_secs_f64() / slice_secs) as usize).min(SLICES - 1);
        let mut latency: Vec<Vec<u64>> = vec![Vec::new(); SLICES];
        let mut replies = [0usize; SLICES];
        let mut cpu_marks = vec![server_cpu()];
        let mut steal_marks = vec![steal_now()];
        let mut sending = 0;
        let mut late_ns = Vec::with_capacity(n);
        let mut next = 0;
        let mut failed = 0;
        let mut record = |ok: bool, d: Instant, at: Instant, sending: usize| {
            replies[sending] += 1;
            if ok {
                latency[slice_of(d)].push((at - d).as_nanos() as u64);
            } else {
                failed += 1;
                latency[slice_of(d)].push(u64::MAX);
            }
        };
        while next < n && !self.any_closed() {
            let now = Instant::now();
            while next < n && due(next) <= now {
                while sending < next * SLICES / n {
                    cpu_marks.push(server_cpu());
                    steal_marks.push(steal_now());
                    sending += 1;
                }
                let d = due(next);
                late_ns.push((now - d).as_nanos() as u64);
                self.send(next % self.conns.len(), stream[next], d);
                next += 1;
            }
            let wait = if next < n {
                due(next).saturating_duration_since(now)
            } else {
                Duration::ZERO
            };
            self.pump(wait, |_, ok, d, at| record(ok, d, at, sending));
        }
        let lost = self.drain(|ok, d, at| record(ok, d, at, sending));
        cpu_marks.push(server_cpu());
        steal_marks.push(steal_now());
        // Requests never answered, or never sent (a closed connection),
        // fail in the last slice.
        let missing = lost + (n - next);
        failed += missing;
        latency[SLICES - 1].extend(std::iter::repeat_n(u64::MAX, missing));
        let mut slices = Vec::new();
        for (k, lat) in latency.iter_mut().enumerate() {
            lat.sort_unstable();
            // CPU is charged per interval between boundaries, over the
            // replies that arrived in it.
            let cpu = cpu_marks.get(k + 1).map_or(0, |end| end - cpu_marks[k]);
            if !lat.is_empty() && replies[k] > 0 {
                slices.push(Slice {
                    p50_ns: quantile(lat, 0.50),
                    p90_ns: quantile(lat, 0.90),
                    cpu_ns_per_reply: cpu as f64 / replies[k] as f64,
                    steal: steal_marks
                        .get(k + 1)
                        .map_or(0.0, |end| steal_share(steal_marks[k], *end)),
                });
            }
        }
        let mut latency_ns: Vec<u64> = latency.concat();
        latency_ns.sort_unstable();
        late_ns.sort_unstable();
        Open {
            sent: n,
            completed: n - failed,
            failed,
            latency_ns,
            late_ns,
            slices,
        }
    }
}

/// The host's steal clock now; zeros if `/proc/stat` is unreadable,
/// which makes every slice count as calm.
fn steal_now() -> (u64, u64) {
    crate::sys::host_steal_ticks().unwrap_or((0, 0))
}

/// Share of the host CPU clock stolen between two steal-clock readings.
fn steal_share(from: (u64, u64), to: (u64, u64)) -> f64 {
    let total = to.1.saturating_sub(from.1);
    if total == 0 {
        0.0
    } else {
        to.0.saturating_sub(from.0) as f64 / total as f64
    }
}

/// The median of `value` over the calmer half of `slices` (those
/// with the least host CPU steal).  The hypervisor stalls this
/// host's vCPUs in bursts of a few seconds; a figure from the slices
/// it left alone measures the server, not its neighbours.
pub fn calm_median<T>(slices: &[T], steal: impl Fn(&T) -> f64, value: impl Fn(&T) -> f64) -> f64 {
    let mut by_steal: Vec<&T> = slices.iter().collect();
    by_steal.sort_by(|a, b| steal(a).total_cmp(&steal(b)));
    let mut calm: Vec<f64> = by_steal[..slices.len().div_ceil(2)]
        .iter()
        .map(|s| value(s))
        .collect();
    median(&mut calm)
}

/// The median (mean of the middle two for an even count); 0 for none.
pub fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    let n = values.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => values[n / 2],
        _ => (values[n / 2 - 1] + values[n / 2]) / 2.0,
    }
}

/// The `q`-quantile of ascending `sorted` by nearest rank.
pub fn quantile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}
