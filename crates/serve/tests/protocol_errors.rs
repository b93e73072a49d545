//! Protocol hardening: every client-triggerable failure is a typed
//! error response on a connection (and server) that keeps working —
//! malformed JSON, unknown kinds, invalid problems, oversized lines,
//! overload, shutdown, and mid-request disconnects.

use sdp_serve::client::{self, Client};
use sdp_serve::protocol::Class;
use sdp_serve::{breaker, Config};
use std::io::Write;
use std::net::TcpStream;
use std::time::Duration;

fn small_server() -> sdp_serve::ServerHandle {
    sdp_serve::serve(Config {
        max_delay: Duration::from_millis(2),
        workers: 2,
        max_request_bytes: 4096,
        ..Config::default()
    })
    .expect("bind")
}

#[test]
fn malformed_lines_get_typed_errors_and_the_connection_survives() {
    let handle = small_server();
    let mut c = Client::connect(handle.addr()).expect("connect");
    for bad in [
        "{not json",
        "[1,2,3",
        "\"just a string\"",
        r#"{"kind":"edit"}"#,                    // missing operands
        r#"{"id":1,"kind":"warp"}"#,             // unknown kind
        r#"{"id":1,"kind":"chain","dims":[7]}"#, // too few dims
        r#"{"id":1,"kind":"matmul","a":{"rows":2,"cols":2,"data":[1,2,3]},"b":{"rows":2,"cols":2,"data":[1,2,3,4]}}"#,
        r#"{"id":1,"kind":"edit","a":5,"b":"x"}"#,
        r#"{"id":1,"kind":"andor","nodes":[{"op":"leaf","value":1}],"root":9}"#,
    ] {
        let resp = c.call_raw(bad).expect("call");
        assert!(!resp.ok, "{bad} should fail");
        assert_eq!(
            resp.error_kind.as_deref(),
            Some("malformed_request"),
            "{bad}"
        );
    }
    // Deep nesting is rejected by the parser's depth cap.
    let deep = format!(
        r#"{{"id":1,"kind":"edit","a":{}{}"#,
        "[".repeat(80),
        "]".repeat(80)
    );
    let resp = c.call_raw(&deep).expect("call");
    assert!(!resp.ok);

    // The same connection still serves valid work.
    let resp = c
        .call_raw(&client::edit_request(9, "ab", "ba"))
        .expect("call");
    assert!(resp.ok && resp.id == 9);
    handle.shutdown();
}

#[test]
fn engine_rejections_are_typed_not_fatal() {
    let handle = small_server();
    let mut c = Client::connect(handle.addr()).expect("connect");
    // Valid protocol, invalid problem: a multistage string whose inner
    // dimensions do not chain.
    let resp = c
        .call_raw(
            r#"{"id":2,"kind":"multistage","mats":[{"rows":2,"cols":2,"data":[1,2,3,4]},{"rows":3,"cols":3,"data":[1,2,3,4,5,6,7,8,9]}]}"#,
        )
        .expect("call");
    assert!(!resp.ok);
    // The decode layer admits it (shapes are per-matrix valid); the
    // engine rejects it with its own typed error.
    assert_eq!(resp.error_kind.as_deref(), Some("not_square"));

    // i64::MAX is the ∞ sentinel and must be rejected at decode time,
    // not panic inside `Cost::new`.
    let resp = c
        .call_raw(&format!(
            r#"{{"id":3,"kind":"matmul","a":{{"rows":1,"cols":1,"data":[{max}]}},"b":{{"rows":1,"cols":1,"data":[0]}}}}"#,
            max = i64::MAX
        ))
        .expect("call");
    assert!(!resp.ok);
    let resp = c.call_raw(&client::bst_request(4, &[1, 2])).expect("call");
    assert!(resp.ok, "server still healthy after rejections");
    handle.shutdown();
}

#[test]
fn extreme_bst_frequencies_are_rejected_and_leave_the_breaker_closed() {
    // One past the breaker's default trip count: had any of these
    // reached an engine (which keeps i64::MAX for +∞), the BST breaker
    // would open for every client.
    let handle = small_server();
    let mut c = Client::connect(handle.addr()).expect("connect");
    let trips = Config::default().breaker_trip_after as u64;
    for id in 0..=trips {
        let resp = c
            .call_raw(&client::bst_request(id as i64, &[i64::MAX as u64]))
            .expect("call");
        assert!(!resp.ok, "request {id} must be rejected");
        assert_eq!(resp.error_kind.as_deref(), Some("malformed_request"));
    }
    assert_eq!(handle.breaker_code(Class::Bst), breaker::STATE_CLOSED);
    let resp = c
        .call_raw(&client::bst_request(99, &[3, 1, 4]))
        .expect("call");
    assert!(resp.ok, "BST still served");
    handle.shutdown();
}

#[test]
fn oversized_line_is_rejected_then_the_next_request_parses_cleanly() {
    let handle = small_server();
    let mut c = Client::connect(handle.addr()).expect("connect");
    let huge = format!(
        r#"{{"id":5,"kind":"edit","a":"{}","b":"x"}}"#,
        "a".repeat(100_000)
    );
    let resp = c.call_raw(&huge).expect("call");
    assert!(!resp.ok);
    assert_eq!(resp.error_kind.as_deref(), Some("payload_too_large"));
    // The oversized line was drained up to its newline; the connection
    // is at a clean boundary.
    let resp = c
        .call_raw(&client::edit_request(6, "abc", "abd"))
        .expect("call");
    assert!(resp.ok && resp.id == 6);
    handle.shutdown();
}

#[test]
fn mid_request_disconnect_does_not_kill_the_server() {
    let handle = small_server();
    let addr = handle.addr();
    {
        // Half a request, then an abrupt close.
        let mut s = TcpStream::connect(addr).expect("connect");
        s.write_all(br#"{"id":7,"kind":"edit","a":"kit"#)
            .expect("write");
        s.flush().expect("flush");
    } // dropped without a newline
    {
        // A full request whose client vanishes before reading the
        // response: the dispatcher's send just fails silently.
        let mut s = TcpStream::connect(addr).expect("connect");
        s.write_all(br#"{"id":8,"kind":"edit","a":"kitten","b":"sitting"}"#)
            .expect("write");
        s.write_all(b"\n").expect("write");
        s.flush().expect("flush");
    }
    std::thread::sleep(Duration::from_millis(50));
    let mut c = Client::connect(addr).expect("connect after disconnects");
    let resp = c
        .call_raw(&client::edit_request(9, "ok", "ko"))
        .expect("call");
    assert!(resp.ok, "server survived both disconnect shapes");
    handle.shutdown();
}

#[test]
fn zero_capacity_queue_rejects_with_queue_full() {
    let handle = sdp_serve::serve(Config {
        max_queue: 0,
        ..Config::default()
    })
    .expect("bind");
    let mut c = Client::connect(handle.addr()).expect("connect");
    let resp = c
        .call_raw(&client::edit_request(1, "a", "b"))
        .expect("call");
    assert!(!resp.ok);
    assert_eq!(resp.error_kind.as_deref(), Some("queue_full"));
    handle.shutdown();
}

#[test]
fn shutdown_drains_then_rejects_new_work() {
    let handle = small_server();
    let mut c = Client::connect(handle.addr()).expect("connect");
    let resp = c
        .call_raw(&client::edit_request(1, "abc", "abd"))
        .expect("call");
    assert!(resp.ok);
    let resp = c.shutdown().expect("shutdown request");
    assert!(resp.ok);
    // New compute work on the open connection: a *novel* problem (the
    // cache would still answer repeats) is refused with a typed error.
    let resp = c
        .call_raw(&client::edit_request(2, "novel", "problem"))
        .expect("call");
    assert!(!resp.ok);
    assert_eq!(resp.error_kind.as_deref(), Some("shutting_down"));
    handle.shutdown();
}
