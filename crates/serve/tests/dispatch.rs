//! End-to-end auto-dispatch: requests below the crossover threshold run
//! on the cycle-accurate simulator, requests at or beyond it on the
//! `sdp-backend` direct solvers, the choice is visible in the response
//! `engine` tag and the per-class metrics — and the payload bytes are
//! identical on both paths.

use sdp_serve::client::{self, Client};
use sdp_serve::{json, Config};
use std::time::Duration;

fn boot(direct_threshold: u64) -> sdp_serve::ServerHandle {
    sdp_serve::serve(Config {
        direct_threshold,
        max_delay: Duration::from_millis(1),
        workers: 2,
        cache_capacity: 0, // every call is a fresh dispatch
        ..Config::default()
    })
    .expect("bind")
}

fn engine_count(c: &mut Client, class: &str, engine: &str) -> i64 {
    let snap = c.metrics().expect("metrics").result.expect("payload");
    let classes = json::get(&snap, "classes").expect("classes");
    let cls = json::get(classes, class).expect("class entry");
    let engines = json::get(cls, "engine").expect("engine split");
    json::get(engines, engine)
        .and_then(json::as_i64)
        .expect("count")
}

#[test]
fn threshold_routes_between_sim_and_direct_with_identical_payloads() {
    // Threshold 100: "ab"x"cd" (work 4) stays on the sim,
    // 20x20 edit (work 400) crosses to the direct backend.
    let handle = boot(100);
    let mut c = Client::connect(handle.addr()).expect("connect");

    let small = c
        .call_raw(&client::edit_request(1, "ab", "cd"))
        .expect("small call");
    assert!(small.ok);
    assert_eq!(small.engine.as_deref(), Some("sim"));

    let a = "abcdabcdabcdabcdabcd";
    let b = "abddabcdabedabcdabcf";
    let big = c
        .call_raw(&client::edit_request(2, a, b))
        .expect("big call");
    assert!(big.ok);
    assert_eq!(big.engine.as_deref(), Some("direct"));

    assert_eq!(engine_count(&mut c, "edit", "sim"), 1);
    assert_eq!(engine_count(&mut c, "edit", "direct"), 1);
    handle.shutdown();

    // The same big request on a sim-pinned server yields byte-identical
    // result payloads — only the engine tag differs.
    let handle = boot(u64::MAX);
    let mut c = Client::connect(handle.addr()).expect("connect");
    let sim_big = c
        .call_raw(&client::edit_request(2, a, b))
        .expect("sim call");
    assert!(sim_big.ok);
    assert_eq!(sim_big.engine.as_deref(), Some("sim"));
    assert_eq!(
        sim_big.result.expect("sim payload").render(),
        big.result.expect("direct payload").render(),
        "dispatch must be invisible in the payload"
    );
    handle.shutdown();
}

#[test]
fn every_class_dispatches_direct_above_threshold() {
    // Threshold 1 sends everything with nonzero work to the direct
    // backend; the tag and the per-class counters must agree.
    let handle = boot(1);
    let mut c = Client::connect(handle.addr()).expect("connect");
    use sdp_semiring::{Matrix, MinPlus};
    let m = Matrix::<MinPlus>::from_rows(
        2,
        2,
        vec![1i64, 5, 2, 0].into_iter().map(MinPlus::from).collect(),
    );
    let lines = [
        (
            "multistage1",
            client::multistage_request(1, 1, &[m.clone(), m.clone()]),
        ),
        (
            "multistage2",
            client::multistage_request(2, 2, &[m.clone(), m.clone()]),
        ),
        ("matmul", client::matmul_request(3, &m, &m)),
        ("edit", client::edit_request(4, "kitten", "sitting")),
        ("chain", client::chain_request(5, &[10, 20, 50, 1])),
        ("bst", client::bst_request(6, &[3, 1, 4, 1, 5])),
        (
            "align",
            client::align_request(7, "acacacta", "agcacaca", None),
        ),
        (
            "knapsack",
            client::knapsack_request(8, &[1, 3, 4, 5], &[1, 4, 5, 7], 7),
        ),
    ];
    for (class, line) in &lines {
        let resp = c.call_raw(line).expect("call");
        assert!(resp.ok, "[{class}] {:?}", resp.error_message);
        assert_eq!(resp.engine.as_deref(), Some("direct"), "[{class}]");
        assert_eq!(engine_count(&mut c, class, "direct"), 1, "[{class}]");
        assert_eq!(engine_count(&mut c, class, "sim"), 0, "[{class}]");
    }
    handle.shutdown();
}

#[test]
fn a_lone_request_flushes_when_its_read_round_ends_not_when_it_ages() {
    // A 10 s coalescing window: sequential requests would take 500 s
    // if a lone rider waited out the window.  Each must instead flush
    // as soon as the event-loop pass that read it ends.
    sdp_par::watchdog("round-flush", Duration::from_secs(20), || {
        let handle = sdp_serve::serve(Config {
            max_delay: Duration::from_secs(10),
            ..Config::default()
        })
        .expect("bind");
        let mut c = Client::connect(handle.addr()).expect("connect");
        for id in 0..50 {
            let a = format!("lone{id}");
            let resp = c
                .call_raw(&client::edit_request(id, &a, "request"))
                .expect("call");
            assert!(resp.ok, "[{id}] {:?}", resp.error_message);
            assert!(!resp.cached, "[{id}] requests are distinct");
        }
        let snap = c.metrics().expect("metrics").result.expect("payload");
        let flushes = json::get(&snap, "flushes").expect("flush reasons");
        let count = |reason: &str| json::get(flushes, reason).and_then(json::as_i64);
        assert_eq!(count("round"), Some(50), "every flush ends a read round");
        assert_eq!(count("aged"), Some(0), "no rider waited out the window");
        handle.shutdown();
    });
}
