//! Shared helpers for the golden-file smoke tests.
//!
//! Each golden test renders a deterministic JSON document and compares
//! it byte-for-byte against a fixture committed under `tests/golden/`.
//! The regen protocol and the host-field redaction rules live here so
//! the throughput and fault-smoke goldens cannot drift apart.
#![allow(dead_code)] // each integration test binary uses a subset

use sdp_trace::json::Json;

/// Nulls out every host-dependent field, keyed by name.
///
/// Wall-clock columns vary by machine, so schema goldens redact every
/// timing/host-shaped value (ms, speedups, overheads, core/thread
/// counts, flags, and title lines that embed the core count) to `null`
/// before the byte comparison.
pub fn redact(json: &mut Json) {
    match json {
        Json::Object(fields) => {
            for (k, v) in fields.iter_mut() {
                let host_dependent = [
                    "ms",
                    "cores",
                    "threads",
                    "speedup",
                    "overhead",
                    "flagged",
                    "title",
                    "single_core",
                ]
                .iter()
                .any(|n| k.contains(n));
                if host_dependent {
                    *v = Json::Null;
                } else {
                    redact(v);
                }
            }
        }
        Json::Array(items) => items.iter_mut().for_each(redact),
        _ => {}
    }
}

/// Extends [`redact`] for the serving golden (E24): counters that
/// depend on thread interleaving rather than just the host — coalesced
/// batch sizes, cache hit/miss splits, dispatch counts, throughput —
/// are nulled alongside the host-dependent fields, while the
/// deterministic traffic accounting (total requests, per-class request
/// counts, error and rejection counters, queue depth after drain) stays
/// byte-compared.  Named containers like the batch-size histogram keep
/// their keys with nulled leaves, so the schema itself is still pinned.
pub fn redact_load_dependent(json: &mut Json) {
    redact(json);
    const LOAD_DEPENDENT: [&str; 20] = [
        "req_per_s",
        "coalesced",
        "cache_hits_seen",
        "dispatches",
        "hits",
        "misses",
        "hit_rate",
        "batches",
        // The saturation phases are duration-bounded, so every volume
        // figure — injected, answered, per-class, and the mean batch
        // they produce — varies run to run.  What stays pinned: the
        // error/unanswered/rejection counters (zero by invariant) and
        // the document schema.
        "sent",
        "completed",
        "ok",
        "cached",
        "served",
        "requests",
        // Per-engine bucket counts (sim/direct split) are dispatch
        // events, so they vary with coalescing exactly like `batches`.
        "engine",
        // Histogram sample counts (phase/queue-wait documents) depend
        // on how requests interleaved into batches.
        "samples",
        // The connection gauge is sampled while the snapshot client is
        // itself connected and other connections are winding down.
        "connections",
        "mean_cold_batch",
        "evictions",
        // Flush reasons split the same dispatch events by what released
        // each bucket (a full bucket vs. a closed read round), so they
        // vary with interleaving like `dispatches`.
        "flushes",
    ];
    fn walk(json: &mut Json, names: &[&str]) {
        match json {
            Json::Object(fields) => {
                for (k, v) in fields.iter_mut() {
                    if k == "slowest" {
                        // The slowest-requests ring's *length* varies
                        // with interleaving, so even its shape cannot
                        // be pinned — null the whole array.
                        *v = Json::Null;
                    } else if names.iter().any(|n| k.contains(n))
                        || k == "batch_size_histogram"
                        || k == "pool"
                    {
                        null_leaves(v);
                    } else {
                        walk(v, names);
                    }
                }
            }
            Json::Array(items) => items.iter_mut().for_each(|v| walk(v, names)),
            _ => {}
        }
    }
    walk(json, &LOAD_DEPENDENT);
}

/// Extends [`redact`] for the backend golden (E27): which ramp size
/// first shows the direct solver at least matching the simulator is a
/// wall-clock race, so `crossover_work` is nulled alongside the
/// host-dependent timing fields.  What stays byte-compared: the class
/// list, the deterministic size/work columns, and the per-row
/// `payload_identical` verdicts.
pub fn redact_backend(json: &mut Json) {
    redact(json);
    fn walk(json: &mut Json) {
        match json {
            Json::Object(fields) => {
                for (k, v) in fields.iter_mut() {
                    if k.contains("crossover") {
                        *v = Json::Null;
                    } else {
                        walk(v);
                    }
                }
            }
            Json::Array(items) => items.iter_mut().for_each(walk),
            _ => {}
        }
    }
    walk(json);
}

/// Nulls every value under fields whose structure survives but whose
/// counts do not, keeping the key schema byte-compared.
fn null_leaves(json: &mut Json) {
    match json {
        Json::Object(fields) => fields.iter_mut().for_each(|(_, v)| null_leaves(v)),
        Json::Array(items) => items.iter_mut().for_each(null_leaves),
        other => *other = Json::Null,
    }
}

/// Extends [`redact`] for the chaos golden (E26): which chaos events
/// fire — and therefore the outcome split, the typed-error kinds, and
/// the reconnect count — depends on how requests interleave into engine
/// buckets, so every `*_observed` / injected / reconnect count is
/// nulled (keys kept: the schema is pinned).  The full server snapshot
/// subtree is dropped outright because even its *shape* can vary under
/// chaos (the slowest-requests ring length, breaker states at snapshot
/// time).  What stays byte-compared: the seeds, the request accounting,
/// and — the point of the experiment — the five `invariant_*` verdicts.
pub fn redact_chaos(json: &mut Json) {
    redact(json);
    fn walk(json: &mut Json) {
        match json {
            Json::Object(fields) => {
                for (k, v) in fields.iter_mut() {
                    if k == "server" {
                        *v = Json::Null;
                    } else if k.contains("observed") || k.contains("injected") {
                        null_leaves(v);
                    } else {
                        walk(v);
                    }
                }
            }
            Json::Array(items) => items.iter_mut().for_each(walk),
            _ => {}
        }
    }
    walk(json);
}

/// Byte-compares `rendered` against the `committed` fixture text, or
/// rewrites `tests/golden/<name>` in place when `GOLDEN_REGEN=1` is
/// set.  Callers pass the committed text via `include_str!` so a
/// missing fixture is a compile error, not a runtime surprise.
pub fn check_golden(name: &str, rendered: &str, committed: &str) {
    if std::env::var_os("GOLDEN_REGEN").is_some() {
        let file = format!("{}/tests/golden/{name}", env!("CARGO_MANIFEST_DIR"));
        std::fs::write(&file, rendered).unwrap();
        return;
    }
    assert_eq!(
        rendered, committed,
        "golden/{name} is stale; rerun with GOLDEN_REGEN=1 if the change is intentional"
    );
}
