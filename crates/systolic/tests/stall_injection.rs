//! Robustness: the array engine under irregular (stalled) input feeds.
//!
//! A systolic schedule normally assumes one word per cycle; these tests
//! inject bubbles (idle cycles) and verify the engine's latching
//! preserves word order, content, and spacing semantics, and that the
//! instrumentation attributes idle cycles correctly.  This is the
//! engine-level guarantee that lets array drivers (e.g. Design 1's
//! feedback path) stall safely when an operand is not ready yet.

use proptest::prelude::*;
use sdp_fault::NoFaults;
use sdp_systolic::{LinearArray, ProcessingElement};
use sdp_trace::NullSink;

#[derive(Default)]
struct Wire {
    busy: bool,
}

impl ProcessingElement for Wire {
    type Flow = u64;
    type Ext = ();
    type Ctrl = ();
    fn step(&mut self, flow_in: Option<u64>, _: (), _: ()) -> Option<u64> {
        self.busy = flow_in.is_some();
        flow_in
    }
    fn was_busy(&self) -> bool {
        self.busy
    }
}

/// An accumulating PE whose result must be independent of input bubbles.
#[derive(Default)]
struct MinAcc {
    acc: u64,
    busy: bool,
}

impl ProcessingElement for MinAcc {
    type Flow = u64;
    type Ext = ();
    type Ctrl = ();
    fn step(&mut self, flow_in: Option<u64>, _: (), _: ()) -> Option<u64> {
        self.busy = flow_in.is_some();
        if let Some(v) = flow_in {
            self.acc = self.acc.max(v);
        }
        flow_in
    }
    fn was_busy(&self) -> bool {
        self.busy
    }
}

fn drive(m: usize, feed: &[Option<u64>]) -> (Vec<u64>, u64, u64) {
    let mut arr = LinearArray::new((0..m).map(|_| Wire::default()).collect());
    let mut out = Vec::new();
    for &w in feed {
        if let Some(o) = arr.cycle(w, |_| (), |_| (), &mut NoFaults, &mut NullSink) {
            out.push(o);
        }
    }
    out.extend(arr.drain(m + 1, |_| (), |_| (), &mut NullSink));
    let u = arr.stats().utilization();
    (out, u.busy_pe_cycles, arr.stats().cycles())
}

proptest! {
    #[test]
    fn bubbles_never_reorder_or_drop_words(
        m in 1usize..6,
        pattern in proptest::collection::vec(proptest::option::weighted(0.6, 1u64..1000), 0..40)
    ) {
        let (out, _, _) = drive(m, &pattern);
        let sent: Vec<u64> = pattern.iter().copied().flatten().collect();
        prop_assert_eq!(out, sent);
    }

    #[test]
    fn busy_cycles_equal_words_times_pes(
        m in 1usize..6,
        pattern in proptest::collection::vec(proptest::option::weighted(0.5, 1u64..100), 0..30)
    ) {
        let (_, busy, _) = drive(m, &pattern);
        let words = pattern.iter().flatten().count() as u64;
        // every word occupies each PE for exactly one cycle
        prop_assert_eq!(busy, words * m as u64);
    }

    #[test]
    fn latency_is_exactly_m_regardless_of_stalls(
        m in 1usize..6, gap in 0usize..10
    ) {
        let mut arr = LinearArray::new((0..m).map(|_| Wire::default()).collect());
        // idle for `gap` cycles, then one word: it must exit after m cycles.
        for _ in 0..gap {
            assert_eq!(arr.cycle(None, |_| (), |_| (), &mut NoFaults, &mut NullSink), None);
        }
        let mut seen_at = None;
        for extra in 0..m + 2 {
            let head = if extra == 0 { Some(7u64) } else { None };
            if arr.cycle(head, |_| (), |_| (), &mut NoFaults, &mut NullSink).is_some() {
                seen_at = Some(extra + 1);
                break;
            }
        }
        prop_assert_eq!(seen_at, Some(m));
    }

    #[test]
    fn stateful_pe_result_is_stall_invariant(
        values in proptest::collection::vec(1u64..1000, 1..20),
        gaps in proptest::collection::vec(0usize..4, 1..20),
    ) {
        // Feed the same words with and without interleaved bubbles; the
        // accumulator PE must reach the same state.
        let run = |with_gaps: bool| {
            let mut arr = LinearArray::new(vec![MinAcc::default()]);
            for (i, &v) in values.iter().enumerate() {
                if with_gaps {
                    for _ in 0..gaps[i % gaps.len()] {
                        arr.cycle(None, |_| (), |_| (), &mut NoFaults, &mut NullSink);
                    }
                }
                arr.cycle(Some(v), |_| (), |_| (), &mut NoFaults, &mut NullSink);
            }
            arr.pes()[0].acc
        };
        prop_assert_eq!(run(false), run(true));
    }
}

#[test]
fn utilization_degrades_proportionally_with_stalls() {
    // 50% bubbles -> ~50% utilization on a wire pipeline.
    let feed: Vec<Option<u64>> = (0..100)
        .map(|i| if i % 2 == 0 { Some(i as u64) } else { None })
        .collect();
    let (_, busy, cycles) = drive(4, &feed);
    let util = busy as f64 / (cycles * 4) as f64;
    assert!((0.4..0.6).contains(&util), "util {util}");
}
