//! Conformance sweep for the compiled direct backends (`sdp-backend`).
//!
//! Every direct solver is held differentially against BOTH sides:
//!
//! * the **cycle-accurate simulator** — values, paths, and full-field
//!   `Stats` equality (the analytic closed forms must reproduce the
//!   measured cycles, busy vectors, and I/O words exactly), and
//! * the **from-scratch reference oracle** — so an agreement bug shared
//!   by simulator and backend cannot hide.
//!
//! Coverage per the harness contract: the exhaustive small-N
//! enumerations, seeded deterministic ramps into the 10⁴–10⁵ work band
//! the serve crossover dispatches at (simulator overlap on the moderate
//! sizes, reference-only at the top where simulation is the bottleneck
//! being bypassed), and sampled large-N properties whose committed
//! seeds live in `conformance_backend.proptest-regressions`.

use proptest::prelude::ProptestConfig;
use proptest::proptest;
use proptest::rng::TestRng;
use sdp_andor::chain::{matrix_chain_order, optimal_bst};
use sdp_core::align::{try_gotoh_mesh, try_sw_banded_mesh, try_sw_mesh, Scoring};
use sdp_core::chain_array::{simulate_chain_array, ChainMapping};
use sdp_core::design1::{Design1Array, Design1Result};
use sdp_core::design2::{Design2Array, Design2Result};
use sdp_core::edit_array::try_edit_distance_mesh;
use sdp_core::knapsack_array::{knapsack_cycle_count, try_knapsack_array, KnapsackItem};
use sdp_core::matmul_array::MatmulArray;
use sdp_fault::NoFaults;
use sdp_multistage::generate;
use sdp_oracle::reference::{self, weq, Weight};
use sdp_oracle::strategies::{
    LargeAlignPairStrategy, LargeBstFreqStrategy, LargeChainDimsStrategy, LargeEditPairStrategy,
    LargeKnapsackStrategy, LargeMatmulPairStrategy, LargeMinPlusStringStrategy,
};
use sdp_oracle::{diffcase, invariants};
use sdp_semiring::{Cost, Matrix, MinPlus};
use sdp_trace::NullSink;

fn assert_weights(tag: &str, got: &[Cost], want: &[Weight]) {
    assert_eq!(got.len(), want.len(), "{tag}: values length");
    for (i, (&g, &w)) in got.iter().zip(want).enumerate() {
        assert!(weq(w, g), "{tag}: values[{i}] = {g:?}, oracle {w:?}");
    }
}

/// Full-field equality between a direct Design 1 result and a simulated
/// one — the backend's contract is indistinguishability.
fn assert_d1_identical(tag: &str, direct: &Design1Result, sim: &Design1Result) {
    assert_eq!(direct.values, sim.values, "{tag}: d1 values");
    assert_eq!(direct.cycles, sim.cycles, "{tag}: d1 cycles");
    assert_eq!(
        direct.paper_iterations, sim.paper_iterations,
        "{tag}: d1 paper iterations"
    );
    assert_eq!(
        direct.stats, sim.stats,
        "{tag}: d1 analytic stats vs measured"
    );
}

fn assert_d2_identical(tag: &str, direct: &Design2Result, sim: &Design2Result) {
    assert_eq!(direct.values, sim.values, "{tag}: d2 values");
    assert_eq!(direct.path, sim.path, "{tag}: d2 path latches");
    assert_eq!(direct.cycles, sim.cycles, "{tag}: d2 cycles");
    assert_eq!(
        direct.paper_iterations, sim.paper_iterations,
        "{tag}: d2 paper iterations"
    );
    assert_eq!(
        direct.broadcast_words, sim.broadcast_words,
        "{tag}: d2 broadcast words"
    );
    assert_eq!(
        direct.stats, sim.stats,
        "{tag}: d2 analytic stats vs measured"
    );
}

/// Every 1×2 · 2×2 · 2×1 min-plus string over `{0, 1, ∞}` — all 6561 —
/// direct vs simulator (full field equality) vs reference.
#[test]
fn exhaustive_small_strings_direct_vs_sim_and_reference() {
    let d1 = Design1Array::new(2);
    let d2 = Design2Array::new(2);
    for (i, mats) in diffcase::multistage_exhaustive_small().iter().enumerate() {
        let tag = format!("exhaustive[{i}]");
        let want = reference::minplus_string_ref(mats).row_mins();
        let direct1 = sdp_backend::design1_direct(2, mats).expect("d1 direct");
        assert_weights(&tag, &direct1.values, &want);
        assert_d1_identical(
            &tag,
            &direct1,
            &d1.try_run(mats, &mut NoFaults, &mut NullSink).unwrap(),
        );
        let direct2 = sdp_backend::design2_direct(2, mats).expect("d2 direct");
        assert_weights(&tag, &direct2.values, &want);
        assert_d2_identical(
            &tag,
            &direct2,
            &d2.try_run(mats, &mut NoFaults, &mut NullSink).unwrap(),
        );
    }
}

/// Every 2×2 · 2×2 min-plus pair over `{0, 1, ∞}` — all 6561 — direct
/// vs mesh (product, cycles, Stats) vs reference.
#[test]
fn exhaustive_small_products_direct_vs_sim_and_reference() {
    for (i, (a, b)) in diffcase::matmul_exhaustive_small().iter().enumerate() {
        let tag = format!("exhaustive[{i}]");
        let want = reference::semiring_mul_ref(a, b);
        let direct = sdp_backend::matmul_direct(a, b).expect("matmul direct");
        assert_eq!(direct.product, want, "{tag}: direct product vs oracle");
        let sim = MatmulArray::try_multiply(a, b, &mut NoFaults, &mut NullSink).unwrap();
        assert_eq!(direct.product, sim.product, "{tag}: direct vs mesh product");
        assert_eq!(direct.cycles, sim.cycles, "{tag}: cycles");
        assert_eq!(direct.stats, sim.stats, "{tag}: analytic stats vs measured");
    }
}

/// Every pair of strings over `{a, b}` with lengths ≤ 3 — all 225 —
/// direct vs wavefront mesh vs reference, empty operands included.
#[test]
fn exhaustive_small_edits_direct_vs_sim_and_reference() {
    for (i, (a, b)) in diffcase::edit_exhaustive_small().iter().enumerate() {
        let tag = format!("exhaustive[{i}]");
        let want = reference::edit_distance_ref(a, b);
        let direct = sdp_backend::edit_direct(a, b);
        assert_eq!(direct.distance, want, "{tag}: direct distance vs oracle");
        let sim = try_edit_distance_mesh(a, b, &mut NoFaults, &mut NullSink).unwrap();
        assert_eq!(direct.distance, sim.distance, "{tag}: direct vs mesh");
        assert_eq!(direct.cycles, sim.cycles, "{tag}: cycles");
        assert_eq!(direct.stats, sim.stats, "{tag}: analytic stats vs measured");
    }
}

/// Every dimension vector of length 2..=5 over `{1, 2, 3}` — all 360 —
/// direct vs the chain/BST engines (cost *and* split tables) vs the
/// reference interval DP; the same vectors double as BST frequencies.
#[test]
fn exhaustive_small_intervals_direct_vs_sim_and_reference() {
    for (i, dims) in diffcase::chain_exhaustive_small().iter().enumerate() {
        let tag = format!("exhaustive[{i}]");
        let want = reference::chain_dp_ref(dims);
        let direct = sdp_backend::chain_direct(dims).expect("chain direct");
        assert!(
            weq(Some(want as i64), direct.cost),
            "{tag}: direct chain cost vs oracle"
        );
        assert_eq!(direct, matrix_chain_order(dims), "{tag}: chain solution");

        let freq = dims;
        let want = reference::bst_dp_ref(freq);
        let direct = sdp_backend::bst_direct(freq).expect("bst direct");
        assert!(
            weq(Some(want as i64), direct.cost),
            "{tag}: direct BST cost vs oracle"
        );
        assert_eq!(direct, optimal_bst(freq), "{tag}: BST solution");
    }
}

/// Seeded multistage ramp into the crossover band: work `N·m²` from
/// 10⁴ to 10⁵.  The simulator overlaps the first three sizes (full
/// Stats equality there); the largest is reference-only — that is the
/// size the direct backend exists to serve.
#[test]
fn large_string_ramp_direct_vs_sim_and_reference() {
    for (seed, n, m, sim_overlap) in [
        (0xBAC1u64, 40usize, 16usize, true),
        (0xBAC2, 60, 20, true),
        (0xBAC3, 80, 26, true),
        (0xBAC4, 100, 32, false),
    ] {
        let tag = format!("string n={n} m={m} seed={seed:#x}");
        let mut rng = TestRng::from_state(seed);
        let mats: Vec<Matrix<MinPlus>> = (0..n)
            .map(|_| diffcase::random_matrix(&mut rng, m, m, 99, |v| MinPlus::from(v as i64)))
            .collect();
        let want = reference::minplus_string_ref(&mats).row_mins();
        let direct1 = sdp_backend::design1_direct(m, &mats).expect("d1 direct");
        assert_weights(&tag, &direct1.values, &want);
        invariants::check_design1(m, n, &direct1);
        let direct2 = sdp_backend::design2_direct(m, &mats).expect("d2 direct");
        assert_weights(&tag, &direct2.values, &want);
        invariants::check_design2(m, n, &direct2);
        if sim_overlap {
            assert_d1_identical(
                &tag,
                &direct1,
                &Design1Array::new(m)
                    .try_run(&mats, &mut NoFaults, &mut NullSink)
                    .unwrap(),
            );
            assert_d2_identical(
                &tag,
                &direct2,
                &Design2Array::new(m)
                    .try_run(&mats, &mut NoFaults, &mut NullSink)
                    .unwrap(),
            );
        }
    }
}

/// Seeded mesh-product ramp, `m³` from 10⁴ to 10⁵ — the mesh is cheap
/// enough to simulate everywhere, so Stats overlap on every size.
#[test]
fn large_product_ramp_direct_vs_sim_and_reference() {
    for (seed, m) in [
        (0xAC41u64, 22usize),
        (0xAC42, 32),
        (0xAC43, 40),
        (0xAC44, 47),
    ] {
        let tag = format!("matmul m={m} seed={seed:#x}");
        let mut rng = TestRng::from_state(seed);
        let a = diffcase::random_matrix(&mut rng, m, m, 99, |v| MinPlus::from(v as i64));
        let b = diffcase::random_matrix(&mut rng, m, m, 99, |v| MinPlus::from(v as i64));
        let want = reference::semiring_mul_ref(&a, &b);
        let direct = sdp_backend::matmul_direct(&a, &b).expect("matmul direct");
        assert_eq!(direct.product, want, "{tag}: direct product vs oracle");
        invariants::check_matmul(m, m, m, &direct);
        let sim = MatmulArray::try_multiply(&a, &b, &mut NoFaults, &mut NullSink).unwrap();
        assert_eq!(direct.cycles, sim.cycles, "{tag}: cycles");
        assert_eq!(direct.stats, sim.stats, "{tag}: analytic stats vs measured");
    }
}

/// Seeded edit ramp, `|a|·|b|` from 10⁴ to 10⁵.  The mesh costs
/// O(|a|·|b|·(|a|+|b|)) host work, so the simulator overlaps the two
/// moderate sizes and the top of the band is reference-only.
#[test]
fn large_edit_ramp_direct_vs_sim_and_reference() {
    for (seed, la, lb, sim_overlap) in [
        (0xED41u64, 100usize, 100usize, true),
        (0xED42, 130, 130, true),
        (0xED43, 240, 220, false),
        (0xED44, 320, 320, false),
    ] {
        let tag = format!("edit |a|={la} |b|={lb} seed={seed:#x}");
        let mut rng = TestRng::from_state(seed);
        let a: Vec<u8> = (0..la).map(|_| b'a' + rng.below(4) as u8).collect();
        let b: Vec<u8> = (0..lb).map(|_| b'a' + rng.below(4) as u8).collect();
        let want = reference::edit_distance_ref(&a, &b);
        let direct = sdp_backend::edit_direct(&a, &b);
        assert_eq!(direct.distance, want, "{tag}: direct distance vs oracle");
        invariants::check_edit(la, lb, &direct);
        if sim_overlap {
            let sim = try_edit_distance_mesh(&a, &b, &mut NoFaults, &mut NullSink).unwrap();
            assert_eq!(direct.distance, sim.distance, "{tag}: direct vs mesh");
            assert_eq!(direct.cycles, sim.cycles, "{tag}: cycles");
            assert_eq!(direct.stats, sim.stats, "{tag}: analytic stats vs measured");
        }
    }
}

/// Seeded interval-DP ramp, `N³` from 10⁴ to 10⁵: chain and BST
/// solutions (cost and split tables) against engines and reference,
/// plus the closed-form step count against the simulated chain array.
#[test]
fn large_interval_ramp_direct_vs_sim_and_reference() {
    for (seed, n) in [
        (0xCA41u64, 22usize),
        (0xCA42, 30),
        (0xCA43, 40),
        (0xCA44, 46),
    ] {
        let tag = format!("interval n={n} seed={seed:#x}");
        let dims = generate::random_chain_dims(seed, n, 1, 40);
        let want = reference::chain_dp_ref(&dims);
        let direct = sdp_backend::chain_direct(&dims).expect("chain direct");
        assert!(
            weq(Some(want as i64), direct.cost),
            "{tag}: direct chain cost vs oracle"
        );
        assert_eq!(direct, matrix_chain_order(&dims), "{tag}: chain solution");
        assert_eq!(
            sdp_backend::chain_steps(n),
            simulate_chain_array(&dims, ChainMapping::Broadcast).finish,
            "{tag}: chain_steps closed form vs broadcast finish"
        );

        let mut rng = TestRng::from_state(seed ^ 0xB57);
        let freq: Vec<u64> = (0..n).map(|_| 1 + rng.below(100)).collect();
        let want = reference::bst_dp_ref(&freq);
        let direct = sdp_backend::bst_direct(&freq).expect("bst direct");
        assert!(
            weq(Some(want as i64), direct.cost),
            "{tag}: direct BST cost vs oracle"
        );
        assert_eq!(direct, optimal_bst(&freq), "{tag}: BST solution");
    }
}

/// Seeded alignment ramp, `|a|·|b|` from 10⁴ to 10⁵: all three blocked
/// direct solvers against the references, with wavefront-mesh overlap
/// (full-field `AlignRun` equality) on the moderate sizes.
#[test]
fn large_align_ramp_direct_vs_sim_and_reference() {
    let linear = Scoring::simple(2, -1, 1);
    let affine = Scoring::affine(2, -1, 3, 1);
    let sub = |p: u8, q: u8| if p == q { 2 } else { -1 };
    for (seed, la, lb, sim_overlap) in [
        (0xA141u64, 100usize, 100usize, true),
        (0xA142, 130, 130, true),
        (0xA143, 240, 220, false),
        (0xA144, 320, 320, false),
    ] {
        let tag = format!("align |a|={la} |b|={lb} seed={seed:#x}");
        let mut rng = TestRng::from_state(seed);
        let a: Vec<u8> = (0..la).map(|_| rng.below(4) as u8).collect();
        let b: Vec<u8> = (0..lb).map(|_| rng.below(4) as u8).collect();
        let band = la.max(lb) / 4;

        let want = reference::sw_ref(&a, &b, &sub, 1);
        let direct = sdp_backend::sw_direct(&a, &b, &linear).expect("sw direct");
        assert_eq!((direct.score, direct.end), want, "{tag}: sw vs oracle");

        let want_banded = reference::sw_banded_ref(&a, &b, Some(band), &sub, 1);
        let banded = sdp_backend::sw_banded_direct(&a, &b, band, &linear).expect("banded direct");
        assert_eq!(
            (banded.score, banded.end),
            want_banded,
            "{tag}: banded sw vs oracle"
        );

        let want_affine = reference::gotoh_ref(&a, &b, &sub, 3, 1);
        let gotoh = sdp_backend::gotoh_direct(&a, &b, &affine).expect("gotoh direct");
        assert_eq!(
            (gotoh.score, gotoh.end),
            want_affine,
            "{tag}: gotoh vs oracle"
        );

        if sim_overlap {
            assert_eq!(
                direct,
                try_sw_mesh(&a, &b, &linear, &mut NoFaults, &mut NullSink).unwrap(),
                "{tag}: sw direct vs mesh"
            );
            assert_eq!(
                banded,
                try_sw_banded_mesh(&a, &b, band, &linear, &mut NoFaults, &mut NullSink).unwrap(),
                "{tag}: banded direct vs mesh"
            );
            assert_eq!(
                gotoh,
                try_gotoh_mesh(&a, &b, &affine, &mut NoFaults, &mut NullSink).unwrap(),
                "{tag}: gotoh direct vs mesh"
            );
        }
    }
}

/// Seeded knapsack ramp, `n·(C+1)` from 10⁴ to 10⁵.  The streaming
/// array is cheap enough to simulate everywhere, so every size gets
/// full-field `KnapsackRun` equality on top of the reference row.
#[test]
fn large_knapsack_ramp_direct_vs_sim_and_reference() {
    for (seed, n, capacity) in [
        (0xCB41u64, 50usize, 240u64),
        (0xCB42, 64, 450),
        (0xCB43, 80, 700),
        (0xCB44, 100, 999),
    ] {
        let tag = format!("knapsack n={n} C={capacity} seed={seed:#x}");
        let mut rng = TestRng::from_state(seed);
        let items: Vec<KnapsackItem> = (0..n)
            .map(|_| KnapsackItem::new(1 + rng.below(8), 1 + rng.below(100)))
            .collect();
        let pairs: Vec<(u64, u64)> = items.iter().map(|it| (it.weight, it.value)).collect();
        let want_row = reference::knapsack_row_ref(&pairs, capacity);

        let direct = sdp_backend::knapsack_direct(&items, capacity);
        assert_eq!(direct.per_capacity, want_row, "{tag}: direct row vs oracle");
        assert_eq!(
            direct.best,
            *want_row.last().unwrap(),
            "{tag}: direct best vs oracle"
        );
        assert_eq!(
            direct.cycles,
            knapsack_cycle_count(&items, capacity),
            "{tag}: direct cycles vs closed form"
        );
        assert_eq!(
            direct,
            try_knapsack_array(&items, capacity, &mut NoFaults, &mut NullSink).unwrap(),
            "{tag}: direct vs streaming array"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn sampled_large_strings_direct_matches_reference(mats in LargeMinPlusStringStrategy) {
        let m = mats[0].rows();
        let want = reference::minplus_string_ref(&mats).row_mins();
        let d1 = sdp_backend::design1_direct(m, &mats).expect("d1 direct");
        assert_weights("sampled d1", &d1.values, &want);
        invariants::check_design1(m, mats.len(), &d1);
        let d2 = sdp_backend::design2_direct(m, &mats).expect("d2 direct");
        assert_weights("sampled d2", &d2.values, &want);
        invariants::check_design2(m, mats.len(), &d2);
    }

    #[test]
    fn sampled_large_products_direct_matches_reference(pair in LargeMatmulPairStrategy) {
        let (a, b) = &pair;
        let direct = sdp_backend::matmul_direct(a, b).expect("matmul direct");
        assert_eq!(direct.product, reference::semiring_mul_ref(a, b));
        invariants::check_matmul(a.rows(), a.cols(), b.cols(), &direct);
    }

    #[test]
    fn sampled_large_edits_direct_matches_reference(pair in LargeEditPairStrategy) {
        let (a, b) = &pair;
        let direct = sdp_backend::edit_direct(a, b);
        assert_eq!(direct.distance, reference::edit_distance_ref(a, b));
        invariants::check_edit(a.len(), b.len(), &direct);
    }

    #[test]
    fn sampled_large_chains_direct_matches_reference(dims in LargeChainDimsStrategy) {
        let direct = sdp_backend::chain_direct(&dims).expect("chain direct");
        let want = reference::chain_dp_ref(&dims);
        assert!(weq(Some(want as i64), direct.cost), "chain cost vs oracle");
    }

    #[test]
    fn sampled_large_bsts_direct_matches_reference(freq in LargeBstFreqStrategy) {
        let direct = sdp_backend::bst_direct(&freq).expect("bst direct");
        let want = reference::bst_dp_ref(&freq);
        assert!(weq(Some(want as i64), direct.cost), "BST cost vs oracle");
    }

    #[test]
    fn sampled_large_aligns_direct_matches_reference(pair in LargeAlignPairStrategy) {
        let (a, b) = &pair;
        let scoring = Scoring::simple(2, -1, 1);
        let sub = |p: u8, q: u8| if p == q { 2 } else { -1 };
        let direct = sdp_backend::sw_direct(a, b, &scoring).expect("sw direct");
        assert_eq!((direct.score, direct.end), reference::sw_ref(a, b, &sub, 1));
        let affine = Scoring::affine(2, -1, 3, 1);
        let gotoh = sdp_backend::gotoh_direct(a, b, &affine).expect("gotoh direct");
        assert_eq!((gotoh.score, gotoh.end), reference::gotoh_ref(a, b, &sub, 3, 1));
    }

    #[test]
    fn sampled_large_knapsacks_direct_matches_reference(inst in LargeKnapsackStrategy) {
        let (items, capacity) = &inst;
        let pairs: Vec<(u64, u64)> = items.iter().map(|it| (it.weight, it.value)).collect();
        let direct = sdp_backend::knapsack_direct(items, *capacity);
        assert_eq!(direct.per_capacity, reference::knapsack_row_ref(&pairs, *capacity));
        assert_eq!(direct.cycles, knapsack_cycle_count(items, *capacity));
    }
}
