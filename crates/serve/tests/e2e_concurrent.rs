//! The PR acceptance end-to-end: 64+ concurrent requests across four
//! engine classes against a live server, with four properties checked:
//!
//! (a) every served payload is bit-identical to the direct engine call
//!     *and* to the independent oracle's expectation;
//! (b) at least one dispatched batch coalesced more than one request;
//! (c) repeated problems hit the result cache;
//! (d) the three panic paths fixed in this PR (scheduler worker
//!     selection, steal-pool lock poisoning, recompute exhaustion)
//!     surface as typed errors / clean recoveries, not panics.

use sdp_fault::SdpError;
use sdp_oracle::served;
use sdp_serve::client::{self, Client};
use sdp_serve::engine::{run_bucket_on, EngineKind};
use sdp_serve::protocol::Body;
use sdp_serve::{json, Config};
use sdp_systolic::scheduler::{DagScheduler, DagTask};
use std::sync::{Arc, Mutex};
use std::time::Duration;

const CLIENTS: usize = 16;
const REQUESTS_PER_CLIENT: usize = 4; // 64 total

/// The traffic mix: four classes, two distinct problems per class, so
/// every problem repeats across clients (cache + coalescing pressure).
fn request_line(id: i64, slot: usize) -> String {
    match slot % 8 {
        0 => client::edit_request(id, "kitten", "sitting"),
        1 => client::edit_request(id, "saturn", "urbane"),
        2 => client::chain_request(id, &[10, 20, 50, 1, 30]),
        3 => client::chain_request(id, &[5, 40, 3, 12, 20]),
        4 => client::bst_request(id, &[3, 1, 4, 1, 5]),
        5 => client::bst_request(id, &[2, 7, 1, 8, 2]),
        6 => r#"{"id":ID,"kind":"matmul","a":{"rows":2,"cols":2,"data":[1,5,2,0]},"b":{"rows":2,"cols":2,"data":[3,1,4,1]}}"#
            .replace("ID", &id.to_string()),
        _ => r#"{"id":ID,"kind":"matmul","a":{"rows":2,"cols":2,"data":[0,9,null,2]},"b":{"rows":2,"cols":2,"data":[1,1,6,0]}}"#
            .replace("ID", &id.to_string()),
    }
}

/// The oracle's expected `result` payload for traffic slot `slot`,
/// compared field-by-field where the served object carries extra
/// timing facts (chain `steps`).
fn check_against_oracle(slot: usize, result: &sdp_trace::json::Json) {
    use sdp_semiring::{Cost, Matrix, MinPlus};
    let mk = |vals: &[Option<i64>]| {
        Matrix::from_rows(
            2,
            2,
            vals.iter()
                .map(|v| MinPlus(v.map_or(Cost::INF, Cost::new)))
                .collect(),
        )
    };
    match slot % 8 {
        0 => assert_eq!(
            result.render(),
            served::served_edit(b"kitten", b"sitting").render()
        ),
        1 => assert_eq!(
            result.render(),
            served::served_edit(b"saturn", b"urbane").render()
        ),
        2 => assert_eq!(
            json::get(result, "cost").unwrap().render(),
            served::served_chain_cost(&[10, 20, 50, 1, 30]).render()
        ),
        3 => assert_eq!(
            json::get(result, "cost").unwrap().render(),
            served::served_chain_cost(&[5, 40, 3, 12, 20]).render()
        ),
        4 => assert_eq!(
            result.render(),
            served::served_bst(&[3, 1, 4, 1, 5]).render()
        ),
        5 => assert_eq!(
            result.render(),
            served::served_bst(&[2, 7, 1, 8, 2]).render()
        ),
        6 => assert_eq!(
            result.render(),
            served::served_matmul(
                &mk(&[Some(1), Some(5), Some(2), Some(0)]),
                &mk(&[Some(3), Some(1), Some(4), Some(1)]),
            )
            .render()
        ),
        _ => assert_eq!(
            result.render(),
            served::served_matmul(
                &mk(&[Some(0), Some(9), None, Some(2)]),
                &mk(&[Some(1), Some(1), Some(6), Some(0)]),
            )
            .render()
        ),
    }
}

/// The direct (unserved) engine payload for traffic slot `slot`.
fn direct_payload(slot: usize) -> String {
    let body = match slot % 8 {
        0 => Body::Edit {
            a: b"kitten".to_vec(),
            b: b"sitting".to_vec(),
        },
        1 => Body::Edit {
            a: b"saturn".to_vec(),
            b: b"urbane".to_vec(),
        },
        2 => Body::Chain {
            dims: vec![10, 20, 50, 1, 30],
        },
        3 => Body::Chain {
            dims: vec![5, 40, 3, 12, 20],
        },
        4 => Body::Bst {
            freq: vec![3, 1, 4, 1, 5],
        },
        5 => Body::Bst {
            freq: vec![2, 7, 1, 8, 2],
        },
        n => {
            let line = request_line(0, n);
            let doc = json::parse(&line).unwrap();
            match sdp_serve::protocol::decode(&doc).unwrap() {
                sdp_serve::protocol::Request::Compute { body, .. } => body,
                _ => unreachable!(),
            }
        }
    };
    let class = body.class();
    run_bucket_on(EngineKind::Sim, class, &[body])[0]
        .as_ref()
        .expect("direct engine call succeeds")
        .render()
}

#[test]
fn sixty_four_concurrent_requests_match_oracle_batch_and_cache() {
    let handle = sdp_serve::serve(Config {
        max_delay: Duration::from_millis(15),
        workers: 4,
        ..Config::default()
    })
    .expect("bind");
    let addr = handle.addr();

    // (slot, payload, cached, batch) per traffic slot, collected across
    // all clients for post-hoc agreement checks.
    type Seen = (usize, String, bool, i64);
    let seen: Arc<Mutex<Vec<Seen>>> = Arc::new(Mutex::new(Vec::new()));
    let workers: Vec<_> = (0..CLIENTS)
        .map(|c| {
            let seen = Arc::clone(&seen);
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                for r in 0..REQUESTS_PER_CLIENT {
                    let slot = c * REQUESTS_PER_CLIENT + r;
                    let id = slot as i64 + 1;
                    let resp = client.call_raw(&request_line(id, slot)).expect("call");
                    assert!(resp.ok, "request {id} failed: {:?}", resp.error_message);
                    assert_eq!(resp.id, id);
                    let payload = resp.result.expect("result").render();
                    seen.lock()
                        .unwrap()
                        .push((slot, payload, resp.cached, resp.batch));
                }
                // Second pass: repeat the client's last problem.  The
                // dispatcher inserts into the cache before replying, so
                // a repeat after a received response MUST hit.
                let slot = c * REQUESTS_PER_CLIENT + (REQUESTS_PER_CLIENT - 1);
                let id = 1000 + slot as i64;
                let resp = client.call_raw(&request_line(id, slot)).expect("repeat");
                assert!(
                    resp.ok && resp.cached,
                    "repeat of slot {slot} should be a cache hit"
                );
                seen.lock().unwrap().push((
                    slot,
                    resp.result.expect("result").render(),
                    true,
                    resp.batch,
                ));
            })
        })
        .collect();
    for w in workers {
        w.join().expect("client thread");
    }

    let seen = seen.lock().unwrap();
    assert_eq!(seen.len(), CLIENTS * (REQUESTS_PER_CLIENT + 1));

    // (a) bit-identical to the oracle AND to the direct engine call,
    // for every response — cold, coalesced, or cached alike.
    for (slot, payload, _, _) in seen.iter() {
        let doc = json::parse(payload).unwrap();
        check_against_oracle(*slot, &doc);
        assert_eq!(
            payload,
            &direct_payload(*slot),
            "served payload for slot {slot} diverged from the direct engine call"
        );
    }

    // (b) dynamic batching actually coalesced something.
    assert!(
        handle.max_coalesced() > 1,
        "expected at least one coalesced batch >1, max was {}",
        handle.max_coalesced()
    );

    // (c) repeats hit the cache.
    assert!(
        handle.cache_hits() > 0,
        "expected cache hits on repeated problems"
    );
    assert!(seen.iter().any(|(_, _, cached, _)| *cached));

    // Metrics agree with what the clients saw.
    let mut client = Client::connect(addr).expect("connect");
    let m = client.metrics().expect("metrics");
    let doc = m.result.expect("metrics payload");
    let served_n = json::get(&doc, "served").and_then(json::as_i64).unwrap();
    assert!(served_n >= seen.len() as i64);

    handle.shutdown();
}

/// (d) the three panic paths fixed by this PR's satellites stay typed.
#[test]
fn satellite_panic_paths_are_typed_errors_not_panics() {
    // 1. Scheduler worker selection with zero workers.
    let tasks = vec![DagTask {
        duration: 3,
        deps: vec![],
    }];
    assert_eq!(
        DagScheduler.try_schedule(&tasks, 0).unwrap_err(),
        SdpError::BadParameter {
            name: "workers",
            got: 0,
            min: 1
        }
    );

    // 2. A poisoned shared lock is recovered, not propagated.
    let shared = Arc::new(Mutex::new(7usize));
    {
        let shared = Arc::clone(&shared);
        let _ = std::thread::spawn(move || {
            let _guard = shared.lock().unwrap();
            panic!("poison it");
        })
        .join();
    }
    assert!(shared.lock().is_err(), "lock really is poisoned");
    assert_eq!(*sdp_par::lock_recover(&shared), 7);

    // 3. Recompute exhaustion is a typed error carrying the attempt
    //    budget.
    let (result, _stats) = sdp_fault::recover::recompute_on_mismatch(1, |attempt| attempt as u64);
    assert_eq!(
        result.unwrap_err(),
        SdpError::RecoveryExhausted { attempts: 3 }
    );
}
