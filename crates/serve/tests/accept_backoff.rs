//! Descriptor exhaustion must not spin the acceptor.  With the process
//! out of file descriptors, `accept` fails with EMFILE while the
//! listener stays readable; the acceptor counts each failure in
//! `sdp_accept_failures_total` and backs off one tick before polling
//! again.  So the count stays bounded by the time the table is full,
//! and the pending client is answered once descriptors free up.
//!
//! The server runs in a child process — this test binary re-run on the
//! ignored `exhausted_server_child` test — so lowering `RLIMIT_NOFILE`
//! and filling the descriptor table cannot starve the test harness.

use sdp_par::watchdog;
use sdp_serve::client::{self, Client};
use sdp_serve::{json, Config};
use std::fs::File;
use std::io::{BufRead, BufReader, Lines, Write};
use std::net::SocketAddr;
use std::process::{ChildStdout, Command, Stdio};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// The acceptor's back-off after a failed `accept` (`ACCEPT_TICK`).
const TICK: Duration = Duration::from_millis(5);

/// How long the child keeps the table full once a request is pending.
const HOLD: Duration = Duration::from_millis(300);

/// `struct rlimit` on 64-bit Linux (`rlim_t` is `u64`).
#[repr(C)]
struct RLimit {
    cur: u64,
    max: u64,
}

const RLIMIT_NOFILE: i32 = 7;
const EMFILE: i32 = 24;

extern "C" {
    fn getrlimit(resource: i32, rlim: *mut RLimit) -> i32;
    fn setrlimit(resource: i32, rlim: *const RLimit) -> i32;
}

/// The child half: serve, lower the soft descriptor limit to 256 and
/// fill the table, and once the parent reports its request pending,
/// hold the table full for [`HOLD`].  Then report the failure count and
/// how long the table was full, free it, and serve until the parent
/// closes stdin.  A standalone `--ignored` run has no parent: the stdin
/// waits time out and the child just exits.
#[test]
#[ignore = "child process of descriptor_exhaustion_backs_off_and_recovers"]
fn exhausted_server_child() {
    let handle = sdp_serve::serve(Config::default()).expect("bind");
    // Read stdin on a thread started before the table fills, so the
    // waits below can time out.
    let (tx, rx) = mpsc::channel();
    let reader = std::thread::spawn(move || {
        for line in std::io::stdin().lines() {
            if tx.send(line).is_err() {
                break;
            }
        }
    });
    let wait = Duration::from_secs(10);
    println!("\nport={}", handle.addr().port());
    let mut lim = RLimit { cur: 0, max: 0 };
    // SAFETY: `lim` is a live, writable `struct rlimit` for the call.
    assert_eq!(unsafe { getrlimit(RLIMIT_NOFILE, &mut lim) }, 0);
    lim.cur = lim.max.min(256);
    // SAFETY: `lim` is a valid `struct rlimit` with `cur <= max`.
    assert_eq!(unsafe { setrlimit(RLIMIT_NOFILE, &lim) }, 0);
    let mut held = Vec::new();
    let full_since = loop {
        match File::open("/dev/null") {
            Ok(f) => held.push(f),
            Err(e) if e.raw_os_error() == Some(EMFILE) => break Instant::now(),
            Err(e) => panic!("unexpected open error: {e}"),
        }
    };
    println!("exhausted=1");
    if rx.recv_timeout(wait).is_err() {
        return;
    }
    std::thread::sleep(HOLD);
    let failures = handle.accept_failures();
    let full_us = full_since.elapsed().as_micros();
    drop(held);
    println!("failures={failures}\nfull_us={full_us}");
    // The parent closing stdin ends the reader, which drops `tx`.
    let _ = rx.recv_timeout(wait);
    handle.shutdown();
    reader.join().expect("stdin reader");
}

/// Reads child lines until one contains `key=` and parses what follows.
/// (libtest prints the test name without a newline first, so the key
/// need not start the line.)
fn field<T: std::str::FromStr>(lines: &mut Lines<BufReader<ChildStdout>>, key: &str) -> T {
    let marker = format!("{key}=");
    for line in lines {
        if let Some((_, value)) = line.expect("child stdout").split_once(&marker) {
            return value
                .parse()
                .unwrap_or_else(|_| panic!("bad {key}: {value}"));
        }
    }
    panic!("child exited before reporting {key}");
}

#[test]
fn descriptor_exhaustion_backs_off_and_recovers() {
    watchdog("accept-backoff", Duration::from_secs(60), || {
        let mut child = Command::new(std::env::current_exe().expect("test binary"))
            .args(["--exact", "exhausted_server_child", "--ignored"])
            .args(["--nocapture", "--test-threads=1"])
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()
            .expect("spawn child server");
        let mut lines = BufReader::new(child.stdout.take().expect("stdout")).lines();
        let port: u16 = field(&mut lines, "port");
        let _: u8 = field(&mut lines, "exhausted");

        // The handshake completes in the kernel backlog; the server's
        // `accept` fails until the child frees its descriptors.
        let mut c = Client::connect(SocketAddr::from(([127, 0, 0, 1], port))).expect("connect");
        c.set_read_timeout(Some(Duration::from_secs(20)))
            .expect("timeout");
        c.send_raw(&client::edit_request(1, "kitten", "sitting"))
            .expect("send");
        let mut stdin = child.stdin.take().expect("stdin");
        writeln!(stdin, "pending").expect("signal child");
        let resp = c
            .read_response()
            .expect("answered once descriptors free up");
        assert!(resp.ok, "{:?}", resp.error_message);
        let distance = json::get(resp.result.as_ref().expect("result"), "distance");
        assert_eq!(distance.and_then(json::as_i64), Some(3));

        let failures: u128 = field(&mut lines, "failures");
        let full_us: u128 = field(&mut lines, "full_us");
        assert!(failures >= 1, "the full table never failed an accept");
        let bound = full_us / TICK.as_micros() + 1;
        assert!(
            failures <= bound,
            "{failures} failed accepts in {full_us} µs: more than one per tick (bound {bound})"
        );
        drop(stdin);
        assert!(child.wait().expect("child exit").success(), "child failed");
    });
}
