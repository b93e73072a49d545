//! Conformance sweep: the polyadic-nonserial class (matrix chain,
//! optimal BST, AND/OR-graph evaluation, the Props 2/3 chain arrays)
//! and the D&C scheduler (Thm 1 / Eq. 29 / Eq. 20).

use proptest::proptest;
use sdp_oracle::strategies::{ChainDimsStrategy, ScheduleShapeStrategy};
use sdp_oracle::{diff, diffcase};

/// Every dimension vector of length 2..=5 over `{1, 2, 3}` — all 360 —
/// through the chain DP, brute force, AND/OR graph, and both chain-
/// array mappings.
#[test]
fn exhaustive_small_chains_match_oracle() {
    for (i, dims) in diffcase::chain_exhaustive_small().iter().enumerate() {
        let variants = diff::check_chain(&format!("exhaustive[{i}]"), dims);
        assert!(variants >= 7, "variant matrix shrank to {variants}");
    }
}

/// Seeded ramp of larger chains.
#[test]
fn chain_ramp_matches_oracle() {
    for c in diffcase::chain_dims_ramp(0xC4A1, 18) {
        let tag = format!("{} seed={:#x}", c.shape, c.seed);
        assert!(diff::check_chain(&tag, &c.instance) >= 6);
    }
}

/// Optimal BSTs are the same interval DP under a different local cost —
/// the chain engines must track the oracle there too.
#[test]
fn bst_instances_match_oracle() {
    let freqs: [&[u64]; 6] = [
        &[1],
        &[4, 2],
        &[4, 2, 6],
        &[4, 2, 6, 3],
        &[10, 1, 1, 1, 10],
        &[3, 3, 3, 3, 3, 3, 3],
    ];
    for freq in freqs {
        assert!(diff::check_bst(&format!("bst {freq:?}"), freq) >= 3);
    }
}

/// Thm 1 / Eq. 29 / Eq. 20 across a deterministic (N, K) grid covering
/// both the paper's regime (2K ≤ N) and oversized K.
#[test]
fn schedule_grid_matches_oracle() {
    for n in [2u64, 3, 8, 17, 64, 255, 1024] {
        for k in [1u64, 2, 5, 16, 100] {
            assert!(diff::check_schedule(n, k) >= 2, "N={n} K={k}");
        }
    }
}

proptest! {
    #[test]
    fn sampled_chains_match_oracle(dims in ChainDimsStrategy) {
        diff::check_chain("sampled chain", &dims);
    }

    #[test]
    fn sampled_schedules_match_oracle(shape in ScheduleShapeStrategy) {
        diff::check_schedule(shape.0, shape.1);
    }
}
