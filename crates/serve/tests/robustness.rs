//! The serving path's failure model, end to end: per-request
//! deadlines, load shedding with retry hints (and the client retry
//! policy that honors them), and the per-class circuit breaker with
//! its oracle fallback.

use sdp_fault::{ChaosEvent, ChaosPlan, ServeChaos};
use sdp_oracle::served;
use sdp_par::watchdog;
use sdp_serve::client::{self, Client, RetryPolicy};
use sdp_serve::protocol::Class;
use sdp_serve::{breaker, json, Config};
use std::sync::Arc;
use std::time::Duration;

#[test]
fn zero_deadline_expires_typed_while_generous_deadline_succeeds() {
    watchdog("deadline", Duration::from_secs(30), || {
        let handle = sdp_serve::serve(Config {
            cache_capacity: 0,
            ..Config::default()
        })
        .expect("bind");
        let mut c = Client::connect(handle.addr()).expect("connect");

        // deadline_ms: 0 is already expired by the time the dispatcher
        // sees it — typed error, no engine work.
        let line = client::with_deadline(&client::edit_request(1, "expired", "already"), 0);
        let resp = c.call_raw(&line).expect("call");
        assert!(!resp.ok);
        assert_eq!(resp.error_kind.as_deref(), Some("deadline_exceeded"));
        assert_eq!(resp.batch, 0, "expired jobs never ride an engine batch");

        // A generous explicit deadline and the server default both work.
        let line = client::with_deadline(&client::edit_request(2, "kitten", "sitting"), 60_000);
        let resp = c.call_raw(&line).expect("call");
        assert!(resp.ok, "{:?}", resp.error_message);
        let resp = c
            .call_raw(&client::edit_request(3, "kitten", "sitting"))
            .expect("call");
        assert!(resp.ok, "{:?}", resp.error_message);

        handle.shutdown();
    });
}

#[test]
fn shed_requests_carry_retry_hints_and_the_retry_policy_recovers() {
    watchdog("load-shed", Duration::from_secs(30), || {
        // shed_queue 1, and a chaos stall holds the edit dispatcher
        // in its first bucket for `window`: the pinner admitted behind
        // it keeps depth at 1, so a second request sheds.  max_delay
        // equals the window, which sizes a fresh server's retry hint.
        // The window is generous because the sibling tests in this
        // binary compete for the same cores.
        let window = Duration::from_millis(1000);
        let plan = ChaosPlan::new().with(ChaosEvent::EngineStall {
            dispatch: 0,
            ms: window.as_millis() as u64,
        });
        let handle = sdp_serve::serve(Config {
            shed_queue: 1,
            max_delay: window,
            cache_capacity: 0,
            chaos: Some(Arc::new(ServeChaos::new(&plan))),
            ..Config::default()
        })
        .expect("bind");
        let addr = handle.addr();

        // The staller's bucket is the first dispatch: it stalls the
        // edit dispatcher.  Wait until the stall has begun, so the
        // pinner cannot ride the staller's batch.
        let mut staller = Client::connect(addr).expect("connect");
        staller
            .send_raw(&client::edit_request(0, "stall", "engine"))
            .expect("stall the dispatcher");
        let mut shed = Client::connect(addr).expect("connect");
        let stalled_by = std::time::Instant::now() + Duration::from_secs(5);
        loop {
            let doc = shed.metrics().expect("metrics").result.expect("payload");
            let stalls = json::get(&doc, "chaos")
                .and_then(|c| json::get(c, "engine_stall"))
                .and_then(json::as_i64);
            if stalls == Some(1) {
                break;
            }
            assert!(
                std::time::Instant::now() < stalled_by,
                "the staller never reached the engine"
            );
            std::thread::sleep(Duration::from_millis(1));
        }

        let mut pinner = Client::connect(addr).expect("connect");
        pinner
            .send_raw(&client::edit_request(1, "queue", "pinner"))
            .expect("pin the queue");

        // The pinner and the probe arrive on different connections, so
        // different event-loop workers may enqueue them in either order.
        // Wait until the pinner holds the queue before probing.
        let pinned_by = std::time::Instant::now() + Duration::from_secs(5);
        loop {
            let doc = shed.metrics().expect("metrics").result.expect("payload");
            if json::get(&doc, "queue_depth").and_then(json::as_i64) == Some(1) {
                break;
            }
            assert!(
                std::time::Instant::now() < pinned_by,
                "the pinner never reached the queue"
            );
            std::thread::sleep(Duration::from_millis(1));
        }
        let line = client::edit_request(2, "shed", "me");
        let resp = shed.call_raw(&line).expect("call");
        assert!(!resp.ok);
        assert_eq!(resp.error_kind.as_deref(), Some("overloaded"));
        let hint = resp.retry_after_ms.expect("overloaded carries a hint");
        assert!(
            hint >= window.as_millis() as i64,
            "retry hint {hint} shorter than the flush window"
        );

        // The jittered-backoff retry outlives the congestion window.
        let policy = RetryPolicy {
            max_retries: 6,
            base_backoff: Duration::from_millis(50),
            max_backoff: Duration::from_secs(1),
            seed: 0xC0FFEE,
        };
        let resp = shed.call_with_retry(&line, &policy).expect("retry");
        assert!(resp.ok, "retry never recovered: {:?}", resp.error_kind);

        // The pinned request was answered normally, exactly once.
        let resp = pinner.read_response().expect("pinned response");
        assert!(resp.ok && resp.id == 1);
        let resp = staller.read_response().expect("stalled response");
        assert!(resp.ok && resp.id == 0, "a stall delays, never fails");

        handle.shutdown();
    });
}

#[test]
fn breaker_trips_degrades_small_inputs_and_recloses_after_probe() {
    watchdog("breaker", Duration::from_secs(30), || {
        // Chaos panics the first two engine buckets; trip_after 2 means
        // the edit breaker opens right after them.
        let plan = ChaosPlan::new()
            .with(ChaosEvent::EnginePanic { dispatch: 0 })
            .with(ChaosEvent::EnginePanic { dispatch: 1 });
        let cooldown = Duration::from_millis(400);
        let handle = sdp_serve::serve(Config {
            cache_capacity: 0,
            breaker_trip_after: 2,
            breaker_cooldown: cooldown,
            breaker_fallback_max_bytes: 80,
            chaos: Some(Arc::new(ServeChaos::new(&plan))),
            ..Config::default()
        })
        .expect("bind");
        let mut c = Client::connect(handle.addr()).expect("connect");

        // Two chaos-panicked buckets: typed task_panicked, breaker trips.
        for id in 1..=2 {
            let resp = c
                .call_raw(&client::edit_request(id, "boom", "town"))
                .expect("call");
            assert!(!resp.ok);
            assert_eq!(resp.error_kind.as_deref(), Some("task_panicked"));
        }
        assert_eq!(handle.breaker_code(Class::Edit), breaker::STATE_OPEN);

        // Open breaker, small input: degraded oracle answer, flagged,
        // uncached, byte-identical to the reference solver.
        let resp = c
            .call_raw(&client::edit_request(3, "kitten", "sitting"))
            .expect("call");
        assert!(resp.ok, "{:?}", resp.error_message);
        assert!(resp.degraded && !resp.cached);
        assert_eq!(
            resp.result.expect("payload").render(),
            served::served_edit(b"kitten", b"sitting").render()
        );

        // Open breaker, large input: fast typed rejection with the
        // remaining cooldown as the retry hint.
        let big = "x".repeat(120);
        let resp = c
            .call_raw(&client::edit_request(4, &big, &big))
            .expect("call");
        assert!(!resp.ok);
        assert_eq!(resp.error_kind.as_deref(), Some("circuit_open"));
        assert!(resp.retry_after_ms.unwrap_or(0) >= 1);

        // After the cooldown the half-open probe reaches the (now
        // chaos-free) engine and the breaker recloses.
        std::thread::sleep(cooldown + Duration::from_millis(100));
        let resp = c
            .call_raw(&client::edit_request(5, "probe", "prove"))
            .expect("call");
        assert!(resp.ok && !resp.degraded, "{:?}", resp.error_kind);
        assert_eq!(handle.breaker_code(Class::Edit), breaker::STATE_CLOSED);

        // Closed again: responses come from the engine, not the oracle.
        let resp = c
            .call_raw(&client::edit_request(6, "back", "form"))
            .expect("call");
        assert!(resp.ok && !resp.degraded);

        // The whole episode landed in the metrics registry.
        let m = c.metrics().expect("metrics");
        let doc = m.result.expect("payload");
        let degraded = json::get(&doc, "degraded").and_then(json::as_i64).unwrap();
        assert!(degraded >= 1, "degraded counter missing the fallback");

        handle.shutdown();
    });
}
