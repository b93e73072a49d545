//! Property tests for the fault-injection and recovery layer.
//!
//! Two laws pin the design down:
//!
//! 1. **Empty-plan identity** — a `PlanInjector` replaying an *empty*
//!    `FaultPlan` is observationally identical to the fault-free run:
//!    same results, same cycle counts, same engine `Stats`, and the
//!    same trace event stream event-for-event.  This is what makes the
//!    injection hooks safe to thread through every driver.
//! 2. **TMR masks any single faulty replica** — with the injector wired
//!    into replica 0 only, the voted answer equals the fault-free DP
//!    value no matter what single PE fault (transient or permanent
//!    stuck-at) the plan contains.

use proptest::prelude::*;
use sdp_core::edit_array::{edit_distance_seq, try_edit_distance_mesh};
use sdp_core::matmul_array::MatmulArray;
use sdp_core::resilient::{design1_tmr, design2_tmr, edit_distance_tmr, matmul_tmr};
use sdp_core::{Design1Array, Design2Array};
use sdp_fault::NoFaults;
use sdp_fault::{Fault, FaultPlan, PlanInjector};
use sdp_multistage::generate;
use sdp_semiring::{Cost, Matrix, MinPlus};
use sdp_trace::{NullSink, RecordingSink};

fn empty_injector() -> PlanInjector {
    PlanInjector::new(FaultPlan::new())
}

fn bytes(seed: u64, n: usize) -> Vec<u8> {
    let mut state = seed.wrapping_add(1);
    (0..n)
        .map(|_| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            b'a' + ((state >> 33) % 4) as u8
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn empty_plan_is_identity_for_design1(
        seed in 0u64..5_000, stages in 3usize..7, m in 1usize..5
    ) {
        let g = generate::random_single_source_sink(seed, stages, m, 0, 100);
        let array = Design1Array::new(m);
        let mut clean_sink = RecordingSink::default();
        let clean = array
            .try_run(g.matrix_string(), &mut NoFaults, &mut clean_sink)
            .unwrap();
        let mut faulty_sink = RecordingSink::default();
        let injected = array
            .try_run(g.matrix_string(), &mut empty_injector(), &mut faulty_sink)
            .unwrap();
        prop_assert_eq!(injected.values, clean.values);
        prop_assert_eq!(injected.cycles, clean.cycles);
        prop_assert_eq!(injected.stats, clean.stats);
        prop_assert_eq!(faulty_sink.events, clean_sink.events);
    }

    #[test]
    fn empty_plan_is_identity_for_matmul(
        seed in 0u64..5_000, p in 1usize..5, q in 1usize..5, r in 1usize..5
    ) {
        let mut state = seed;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) % 50) as i64
        };
        let a = Matrix::<MinPlus>::from_fn(p, q, |_, _| MinPlus(Cost::from(next())));
        let b = Matrix::<MinPlus>::from_fn(q, r, |_, _| MinPlus(Cost::from(next())));
        let mut clean_sink = RecordingSink::default();
        let clean = MatmulArray::try_multiply(&a, &b, &mut NoFaults, &mut clean_sink).unwrap();
        let mut faulty_sink = RecordingSink::default();
        let injected =
            MatmulArray::try_multiply(&a, &b, &mut empty_injector(), &mut faulty_sink)
                .unwrap();
        prop_assert_eq!(injected.product, clean.product);
        prop_assert_eq!(injected.cycles, clean.cycles);
        prop_assert_eq!(injected.stats, clean.stats);
        prop_assert_eq!(faulty_sink.events, clean_sink.events);
    }

    #[test]
    fn empty_plan_is_identity_for_edit_distance(
        seed in 0u64..5_000, la in 1usize..8, lb in 1usize..8
    ) {
        let a = bytes(seed, la);
        let b = bytes(seed.wrapping_mul(31), lb);
        let mut clean_sink = RecordingSink::default();
        let clean = try_edit_distance_mesh(&a, &b, &mut NoFaults, &mut clean_sink).unwrap();
        let mut faulty_sink = RecordingSink::default();
        let injected =
            try_edit_distance_mesh(&a, &b, &mut empty_injector(), &mut faulty_sink).unwrap();
        prop_assert_eq!(injected.distance, clean.distance);
        prop_assert_eq!(injected.distance, edit_distance_seq(&a, &b));
        prop_assert_eq!(injected.cycles, clean.cycles);
        prop_assert_eq!(injected.stats, clean.stats);
        prop_assert_eq!(faulty_sink.events, clean_sink.events);
    }

    #[test]
    fn tmr_masks_any_single_pe_fault_in_design1(
        seed in 0u64..3_000, stages in 3usize..7, m in 1usize..5,
        pe in 0u32..8, cycle in 0u64..20, value in -5i64..200,
        transient in 0u8..2, bit in 0u32..12
    ) {
        let g = generate::random_single_source_sink(seed, stages, m, 0, 100);
        let array = Design1Array::new(m);
        let clean = array.try_run(g.matrix_string(), &mut NoFaults, &mut NullSink).unwrap();
        let fault = if transient == 1 {
            Fault::TransientFlip { pe: pe % (m as u32 + 1), cycle, bit }
        } else {
            Fault::StuckAt { pe: pe % (m as u32 + 1), cycle, value }
        };
        let mut inj = PlanInjector::new(FaultPlan::new().with(fault));
        let (voted, stats) =
            design1_tmr(&array, g.matrix_string(), &mut inj, &mut sdp_trace::NullSink).unwrap();
        prop_assert_eq!(voted.values, clean.values);
        prop_assert_eq!(voted.optimum(), clean.optimum());
        prop_assert_eq!(stats.runs, 3);
    }

    #[test]
    fn tmr_masks_any_single_pe_fault_in_design2(
        seed in 0u64..3_000, stages in 2usize..6, m in 1usize..5,
        pe in 0u32..8, cycle in 0u64..20, value in -5i64..200
    ) {
        let g = generate::random_uniform(seed, stages, m, 0, 60);
        let array = Design2Array::new(m);
        let clean = array.try_run(g.matrix_string(), &mut NoFaults, &mut NullSink).unwrap();
        let mut inj = PlanInjector::new(FaultPlan::new().with(Fault::StuckAt {
            pe: pe % m as u32,
            cycle,
            value,
        }));
        let (voted, _) =
            design2_tmr(&array, g.matrix_string(), &mut inj, &mut sdp_trace::NullSink).unwrap();
        prop_assert_eq!(voted.values, clean.values);
    }

    #[test]
    fn tmr_masks_any_single_pe_fault_in_matmul(
        seed in 0u64..3_000, p in 1usize..5, q in 1usize..5, r in 1usize..5,
        pe in 0u32..25, cycle in 0u64..12, value in -5i64..100
    ) {
        let mut state = seed;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) % 50) as i64
        };
        let a = Matrix::<MinPlus>::from_fn(p, q, |_, _| MinPlus(Cost::from(next())));
        let b = Matrix::<MinPlus>::from_fn(q, r, |_, _| MinPlus(Cost::from(next())));
        let clean = MatmulArray::try_multiply(&a, &b, &mut NoFaults, &mut NullSink).unwrap();
        let mut inj = PlanInjector::new(FaultPlan::new().with(Fault::StuckAt {
            pe: pe % (p * r) as u32,
            cycle,
            value,
        }));
        let (voted, _) = matmul_tmr(&a, &b, &mut inj, &mut sdp_trace::NullSink).unwrap();
        prop_assert_eq!(voted.product, clean.product);
    }

    #[test]
    fn tmr_masks_any_single_pe_fault_in_edit_distance(
        seed in 0u64..3_000, la in 1usize..7, lb in 1usize..7,
        pe in 0u32..49, cycle in 0u64..12, value in 0i64..100
    ) {
        let a = bytes(seed, la);
        let b = bytes(seed.wrapping_mul(37), lb);
        let want = edit_distance_seq(&a, &b);
        let mut inj = PlanInjector::new(FaultPlan::new().with(Fault::StuckAt {
            pe: pe % (la * lb) as u32,
            cycle,
            value,
        }));
        let (voted, _) = edit_distance_tmr(&a, &b, &mut inj, &mut sdp_trace::NullSink).unwrap();
        prop_assert_eq!(voted.distance, want);
    }
}

/// A *planned* sequence of worker deaths (one-shot `KillWorker` entries,
/// one consumed per reassignment) that outlives the retry budget must
/// surface the typed exhaustion error, not a wrong product or a hang.
#[test]
fn planned_worker_deaths_exhaust_bounded_retry() {
    use sdp_core::dnc::ParallelExecutor;
    use sdp_fault::SdpError;
    use sdp_trace::NullSink;
    let g = generate::random_uniform(11, 4, 3, 0, 9);
    let mats = g.matrix_string();
    let plan = (0..4).fold(FaultPlan::new(), |p, _| {
        p.with(Fault::KillWorker { task: 0 })
    });
    let got = ParallelExecutor::new(2).multiply_string_ft(
        mats,
        &mut PlanInjector::new(plan),
        &mut NullSink,
        2,
    );
    assert!(matches!(
        got,
        Err(SdpError::TaskPanicked {
            task: 0,
            attempts: 2
        })
    ));
}

/// FNV-1a over the `Debug` rendering of every item, in order.
fn fnv<T: std::fmt::Debug>(items: impl IntoIterator<Item = T>) -> u64 {
    items.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, item| {
        format!("{item:?}").bytes().fold(h, |h, byte| {
            (h ^ byte as u64).wrapping_mul(0x0100_0000_01b3)
        })
    })
}

/// The pinned view of a faulted run: its result fields, its `Stats`
/// field by field (per-PE busy counts as a sum plus hash), and the
/// event count plus hash.
fn fault_digest(result: String, stats: &sdp_systolic::Stats, sink: &RecordingSink) -> String {
    let busy = (0..stats.num_pes()).map(|i| stats.busy(i));
    format!(
        "{result} | cycles={} pes={} busy={}/{:016x} in={} out={} bus={} tokens={} stalls={} \
         | events={} fnv={:016x}",
        stats.cycles(),
        stats.num_pes(),
        busy.clone().sum::<u64>(),
        fnv(busy),
        stats.input_words(),
        stats.output_words(),
        stats.bus_words(),
        stats.token_rotations(),
        stats.stall_cycles(),
        sink.events.len(),
        fnv(&sink.events),
    )
}

/// Every single-instance mesh entry under one fixed plan: a stuck-at
/// fault on an interior PE plus a transient flip on the apex PE.  The
/// digests were captured from the engines' dedicated single-instance
/// drivers and must survive any refactor of how single runs execute.
#[test]
fn faulted_single_runs_are_pinned() {
    use sdp_core::align::{try_gotoh_mesh, try_sw_banded_mesh, try_sw_mesh, Scoring};
    let plan = |interior: u32, stuck: i64, apex: u32| {
        PlanInjector::new(
            FaultPlan::new()
                .with(Fault::StuckAt {
                    pe: interior,
                    cycle: 0,
                    value: stuck,
                })
                .with(Fault::TransientFlip {
                    pe: apex,
                    cycle: 0,
                    bit: 2,
                }),
        )
    };

    let mut sink = RecordingSink::default();
    let run =
        try_edit_distance_mesh(b"kitten", b"sitting", &mut plan(9, 40, 41), &mut sink).unwrap();
    assert_eq!(
        fault_digest(format!("distance={}", run.distance), &run.stats, &sink),
        "distance=7 | cycles=12 pes=42 busy=42/e62069ca51becb3f in=13 out=13 bus=0 tokens=0 stalls=0 | events=544 fnv=e75195b104ca3f8e"
    );

    let (a, b) = (b"acacactagg", b"agcacacatg");
    let linear = Scoring::simple(2, -1, 1);
    let mut sink = RecordingSink::default();
    let run = try_sw_mesh(a, b, &linear, &mut plan(23, 9, 99), &mut sink).unwrap();
    assert_eq!(
        fault_digest(
            format!("score={} end={:?}", run.score, run.end),
            &run.stats,
            &sink
        ),
        "score=17 end=Some((8, 9)) | cycles=19 pes=100 busy=100/6bf4b31f38d38dd9 in=20 out=20 bus=0 tokens=0 stalls=0 | events=1961 fnv=681aa44cda6dc803"
    );

    let mut sink = RecordingSink::default();
    let run = try_sw_banded_mesh(a, b, 2, &linear, &mut plan(23, 9, 99), &mut sink).unwrap();
    assert_eq!(
        fault_digest(
            format!("score={} end={:?}", run.score, run.end),
            &run.stats,
            &sink
        ),
        "score=17 end=Some((8, 9)) | cycles=19 pes=100 busy=44/6d75676784d5beb5 in=20 out=20 bus=0 tokens=0 stalls=0 | events=1961 fnv=320f4a7ceda73b13"
    );

    let affine = Scoring::affine(2, -1, 3, 1);
    let mut sink = RecordingSink::default();
    let run = try_gotoh_mesh(a, b, &affine, &mut plan(23, 9, 99), &mut sink).unwrap();
    assert_eq!(
        fault_digest(
            format!("score={} end={:?}", run.score, run.end),
            &run.stats,
            &sink
        ),
        "score=15 end=Some((5, 6)) | cycles=19 pes=100 busy=100/6bf4b31f38d38dd9 in=20 out=20 bus=0 tokens=0 stalls=0 | events=1961 fnv=1ee9e3a6cc46a1a8"
    );

    let x = Matrix::<MinPlus>::from_fn(3, 4, |i, k| {
        MinPlus(Cost::from((i * 7 + k * 3) as i64 % 11))
    });
    let y = Matrix::<MinPlus>::from_fn(4, 3, |k, j| {
        MinPlus(Cost::from((k * 5 + j * 2) as i64 % 13))
    });
    let mut sink = RecordingSink::default();
    let run = MatmulArray::try_multiply(&x, &y, &mut plan(4, 1, 8), &mut sink).unwrap();
    let product: Vec<Vec<i64>> = (0..3)
        .map(|i| (0..3).map(|j| run.product.get(i, j).0.raw()).collect())
        .collect();
    assert_eq!(
        fault_digest(format!("product={product:?}"), &run.stats, &sink),
        "product=[[0, 2, 4], [7, 9, 2], [3, 2, 7]] | cycles=8 pes=9 busy=36/538985f27f008423 in=24 out=24 bus=0 tokens=0 stalls=0 | events=133 fnv=2165371b15cf3e09"
    );
}
