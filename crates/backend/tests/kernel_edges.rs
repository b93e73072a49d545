//! Edge cases for the branch-free and bit-parallel direct kernels,
//! held against the `sdp-oracle` reference solvers.
//!
//! The kernels have boundaries the plain DP has not: 64-row words in
//! the bit-parallel edit distance (lengths 63/64/65, 127/128/129 and a
//! 17-word 1025), per-row band ranges and a row-level argmax in the
//! alignments, a copied prefix below the item weight in the
//! double-buffered knapsack row, and a raw-`i64` clamp in the interval
//! DP.  Each test walks those boundaries deterministically, and the
//! properties sample around them with the vendored proptest
//! (`PROPTEST_CASES` sets the budget).

use proptest::prelude::*;
use sdp_andor::chain::{matrix_chain_order, optimal_bst};
use sdp_core::align::Scoring;
use sdp_core::knapsack_array::{try_knapsack_array_recovered, KnapsackItem};
use sdp_oracle::reference;
use sdp_semiring::Cost;

/// Operand lengths at and around the 64-row word boundaries.
const LENGTHS: [usize; 7] = [63, 64, 65, 127, 128, 129, 1025];

/// `len` symbols drawn from `0..alphabet` (at most 256).
fn operand(seed: u64, len: usize, alphabet: u16) -> Vec<u8> {
    let mut s = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
    (0..len)
        .map(|_| {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            (s % u64::from(alphabet)) as u8
        })
        .collect()
}

/// A length near a word boundary, or a small or empty one.
fn boundary_len() -> impl Strategy<Value = usize> {
    prop_oneof![
        Just(0usize),
        Just(1),
        Just(63),
        Just(64),
        Just(65),
        Just(127),
        Just(128),
        Just(129),
        0usize..200,
    ]
}

fn alphabet() -> impl Strategy<Value = u16> {
    prop_oneof![Just(1u16), Just(2), Just(4), Just(256)]
}

/// Two operands over one alphabet.
fn operands() -> impl Strategy<Value = (Vec<u8>, Vec<u8>)> {
    (boundary_len(), boundary_len(), alphabet(), 0u64..1 << 40)
        .prop_map(|(la, lb, k, seed)| (operand(seed, la, k), operand(seed + 1, lb, k)))
}

fn check_edit(a: &[u8], b: &[u8]) {
    let want = reference::edit_distance_ref(a, b);
    let tag = format!("{}x{}", a.len(), b.len());
    assert_eq!(sdp_backend::edit_direct(a, b).distance, want, "{tag}");
    let batch = sdp_backend::edit_direct_batch(&[(a, b), (a, b)]).expect("batch");
    assert_eq!(batch.distances, vec![want; 2], "{tag} batch");
}

#[test]
fn edit_across_word_boundaries() {
    for (s, &la) in LENGTHS.iter().enumerate() {
        for &lb in &LENGTHS {
            if la > 129 && lb > 129 {
                continue; // one 1025×1025 case below
            }
            let (a, b) = (operand(s as u64, la, 4), operand(99 + lb as u64, lb, 4));
            check_edit(&a, &b);
        }
    }
    let (a, b) = (operand(5, 1025, 4), operand(6, 1025, 4));
    check_edit(&a, &b);
}

#[test]
fn edit_one_symbol_full_byte_and_empty_alphabets() {
    for &len in &LENGTHS[..6] {
        // One symbol: the distance is the length difference.
        let (a, b) = (vec![7u8; len], vec![7u8; len / 2 + 1]);
        check_edit(&a, &b);
        // Disjoint single symbols: every cell mismatches.
        check_edit(&a, &vec![8u8; len + 3]);
        // Every byte value in the pattern gets its own match mask.
        let all: Vec<u8> = (0..len).map(|i| (i * 37 % 256) as u8).collect();
        check_edit(&all, &operand(len as u64, 300, 256));
        check_edit(&[], &a);
        check_edit(&a, &[]);
    }
    check_edit(&[], &[]);
    let every: Vec<u8> = (0..=255).collect();
    let mut reversed = every.clone();
    reversed.reverse();
    check_edit(&every, &reversed);
}

/// A `Subst::Matrix` scheme over `alphabet` symbols with scores in
/// `−4..=5`.
fn matrix_scoring(seed: u64, alphabet: u8, gap: i64) -> Scoring {
    let k = alphabet as usize;
    let scores = operand(seed, k * k, 10)
        .into_iter()
        .map(|s| i64::from(s) - 4)
        .collect();
    Scoring::matrix(alphabet, scores, gap, gap + 1, 1)
}

fn check_align(a: &[u8], b: &[u8], sc: &Scoring) {
    let subst = |x: u8, y: u8| sc.subst.score(x, y);
    let tag = format!("{}x{}", a.len(), b.len());
    let run = sdp_backend::sw_direct(a, b, sc).expect("sw");
    assert_eq!(
        (run.score, run.end),
        reference::sw_ref(a, b, &subst, sc.gap),
        "{tag} sw"
    );
    let gotoh = sdp_backend::gotoh_direct(a, b, sc).expect("gotoh");
    assert_eq!(
        (gotoh.score, gotoh.end),
        reference::gotoh_ref(a, b, &subst, sc.gap_open, sc.gap_extend),
        "{tag} gotoh"
    );
    let longest = a.len().max(b.len());
    for band in [0, 1, 5, 64, longest, longest + 9] {
        let run = sdp_backend::sw_banded_direct(a, b, band, sc).expect("banded");
        assert_eq!(
            (run.score, run.end),
            reference::sw_banded_ref(a, b, Some(band), &subst, sc.gap),
            "{tag} band {band}"
        );
    }
    let batch = sdp_backend::sw_direct_batch(&[(a, b)], sc).expect("batch");
    assert_eq!((batch.scores[0], batch.ends[0]), (run.score, run.end));
}

#[test]
fn alignment_across_word_boundaries_and_bands() {
    let simple = Scoring::simple(2, -1, 1);
    for (s, &la) in LENGTHS[..6].iter().enumerate() {
        for &lb in &LENGTHS[..6] {
            let (a, b) = (operand(s as u64, la, 4), operand(50 + lb as u64, lb, 4));
            check_align(&a, &b, &simple);
        }
    }
    let (a, b) = (operand(3, 1025, 4), operand(4, 129, 4));
    check_align(&a, &b, &simple);
    check_align(&b, &a, &simple);
}

#[test]
fn alignment_one_symbol_full_byte_and_matrix_alphabets() {
    // One symbol: the best local alignment is the shorter run of matches.
    let simple = Scoring::simple(3, -2, 2);
    check_align(&[1; 65], &[1; 64], &simple);
    check_align(&[1; 65], &[2; 64], &simple);
    let bytes: Vec<u8> = (0..=255).collect();
    check_align(&bytes, &operand(9, 300, 256), &simple);
    check_align(&[], &bytes, &simple);
    // Matrix scoring, including the widest alphabet a u8 can name.
    for (seed, k) in [(1u64, 1u8), (2, 4), (3, 20), (4, 255)] {
        let sc = matrix_scoring(seed, k, 2);
        let a = operand(seed, 129, u16::from(k));
        let b = operand(seed + 7, 65, u16::from(k));
        check_align(&a, &b, &sc);
    }
}

#[test]
fn alignment_negative_and_extreme_gaps() {
    // A negative gap rewards gaps, so out-of-band cells must read as
    // the mesh's sentinel rather than a zero.
    for gap in [-1, -3] {
        let (a, b) = (operand(13, 130, 4), operand(14, 70, 4));
        check_align(&a, &b, &Scoring::simple(2, -1, gap));
    }
    // Scores and gaps at the i64 extremes exercise every saturating op.
    for sc in [
        Scoring::simple(i64::MAX, i64::MIN, i64::MAX),
        Scoring::simple(i64::MAX / 2, -1, i64::MIN),
        Scoring::affine(i64::MAX, i64::MIN, i64::MIN, i64::MAX),
    ] {
        let (a, b) = (operand(11, 70, 2), operand(12, 66, 2));
        check_align(&a, &b, &sc);
    }
}

fn items(raw: &[(u64, u64)]) -> Vec<KnapsackItem> {
    raw.iter().map(|&(w, v)| KnapsackItem::new(w, v)).collect()
}

fn check_knapsack(raw: &[(u64, u64)], capacity: u64) {
    let its = items(raw);
    let tag = format!("{raw:?} cap {capacity}");
    let want = reference::knapsack_row_ref(raw, capacity);
    let run = sdp_backend::knapsack_direct(&its, capacity);
    assert_eq!(run.per_capacity, want, "{tag}");
    assert_eq!(run.best, want[capacity as usize], "{tag}");
    if raw.len() <= 12 {
        assert_eq!(
            run.best,
            reference::knapsack_enumerate_ref(raw, capacity),
            "{tag}"
        );
    }
    let (rec, set) = sdp_backend::knapsack_direct_recovered(&its, capacity);
    assert_eq!(rec, run, "{tag}");
    let weight: u64 = set.iter().map(|&i| raw[i].0).sum();
    let value = set.iter().fold(0u64, |v, &i| v.saturating_add(raw[i].1));
    assert!(weight <= capacity, "{tag}: set {set:?} overweight");
    assert_eq!(value, run.best, "{tag}: set {set:?}");
    // The tie-break (ties leave the item) against the array's own
    // traceback.  The array spends `w + 1` cycles per item, so weights
    // are clamped to `C + 1` first: an item that fits nowhere is never
    // taken either way.
    let clamped: Vec<(u64, u64)> = raw.iter().map(|&(w, v)| (w.min(capacity + 1), v)).collect();
    let (_, sim_set) = try_knapsack_array_recovered(&items(&clamped), capacity).expect("sim");
    assert_eq!(set, sim_set, "{tag}");
    let batch = sdp_backend::knapsack_direct_batch(&[&its, &its], capacity).expect("batch");
    assert_eq!(batch.per_capacity, vec![want.clone(); 2], "{tag}");
}

#[test]
fn knapsack_weight_and_value_extremes() {
    let near = u64::MAX - 3;
    for capacity in [0u64, 1, 63, 64, 65, 130] {
        let c = capacity;
        check_knapsack(&[(0, 5), (c, 9), (c + 1, 100), (0, 0)], c);
        check_knapsack(&[(c, 1), (c, 1), (0, 1)], c);
        check_knapsack(&[(c + 1, near), (1 << 40, near), (1, 2)], c);
        check_knapsack(&[(0, near), (0, near), (1, near), (c, 7)], c);
        check_knapsack(&[(c / 2, near / 2), (c - c / 2, near / 2 + 9)], c);
    }
}

/// `n` items with weights of 0, ≤ C, = C and > C, and values small or
/// near `u64::MAX`.
fn knapsack_case() -> impl Strategy<Value = (Vec<(u64, u64)>, u64)> {
    (0usize..10, 0u64..140, 0u64..1 << 40).prop_map(|(n, capacity, seed)| {
        let draw = operand(seed, 2 * n, 256);
        let raw = draw
            .chunks(2)
            .map(|p| {
                let weight = match p[0] % 5 {
                    0 => 0,
                    1 => capacity,
                    2 => capacity + 1 + u64::from(p[0]),
                    _ => u64::from(p[0]) % (capacity + 1),
                };
                let value = if p[1] % 4 == 0 {
                    u64::MAX - u64::from(p[1])
                } else {
                    u64::from(p[1])
                };
                (weight, value)
            })
            .collect();
        (raw, capacity)
    })
}

/// Matrix-chain dimensions with some large enough that their triple
/// product saturates `u64`, where the direct solver clamps to
/// [`Cost::MAX_FINITE`] as the reference does.
fn check_chain(dims: &[u64]) {
    let direct = sdp_backend::chain_direct(dims).expect("chain");
    assert_eq!(direct, matrix_chain_order(dims), "{dims:?}");
    let want = reference::chain_dp_ref(dims).min(Cost::MAX_FINITE.raw() as u64);
    assert_eq!(direct.cost.raw() as u64, want, "{dims:?}");
}

fn check_bst(freq: &[u64]) {
    let direct = sdp_backend::bst_direct(freq).expect("bst");
    assert_eq!(direct, optimal_bst(freq), "{freq:?}");
    assert_eq!(
        direct.cost.raw() as u64,
        reference::bst_dp_ref(freq),
        "{freq:?}"
    );
}

#[test]
fn chain_triple_products_saturate_identically() {
    let big = 1u64 << 22; // big³ = 2^66 overflows u64
    check_chain(&[big, big, big]);
    check_chain(&[big, big, big, big, big]);
    check_chain(&[u64::MAX, 2, u64::MAX, 3]);
    check_chain(&[1, u64::MAX, 1, u64::MAX, 1]);
    check_chain(&[3, 1 << 40, 5, 1 << 40, 2, 1 << 31, 7]);
    for n in [1usize, 2, 63, 64, 65] {
        let dims: Vec<u64> = operand(n as u64, n + 1, 256)
            .into_iter()
            .map(|d| {
                if d % 7 == 0 {
                    1 << 30
                } else {
                    1 + u64::from(d)
                }
            })
            .collect();
        check_chain(&dims);
    }
}

#[test]
fn bst_at_small_and_bounded_extreme_frequencies() {
    for n in [1usize, 2, 3, 63, 64, 65] {
        let freq: Vec<u64> = operand(n as u64, n, 50)
            .into_iter()
            .map(u64::from)
            .collect();
        check_bst(&freq);
    }
    // The largest frequencies the served protocol admits: n·Σfreq at
    // most the largest finite cost, so no entry saturates.
    let max = Cost::MAX_FINITE.raw() as u64;
    check_bst(&[max]);
    check_bst(&[max / 4, max / 4]);
    check_bst(&[max / 18, 0, max / 18, max / 18]);
}

proptest! {
    #[test]
    fn edit_matches_the_reference(pair in operands()) {
        check_edit(&pair.0, &pair.1);
    }

    #[test]
    fn alignments_match_the_reference(pair in operands(), gap in -2i64..4) {
        check_align(&pair.0, &pair.1, &Scoring::simple(2, -1, gap));
    }

    #[test]
    fn matrix_alignments_match_the_reference(
        k in 1u8..12,
        la in boundary_len(),
        lb in boundary_len(),
        seed in 0u64..1 << 40,
    ) {
        let sc = matrix_scoring(seed, k, (seed % 5) as i64 - 1);
        let (a, b) = (operand(seed, la, u16::from(k)), operand(seed + 1, lb, u16::from(k)));
        check_align(&a, &b, &sc);
    }

    #[test]
    fn knapsack_matches_the_reference(case in knapsack_case()) {
        check_knapsack(&case.0, case.1);
    }

    #[test]
    fn chain_matches_the_reference(
        n in 1usize..40,
        big in 0u64..4,
        seed in 0u64..1 << 40,
    ) {
        let dims: Vec<u64> = operand(seed, n + 1, 256)
            .into_iter()
            .map(|d| if u64::from(d) % 8 < big { 1 << 24 } else { 1 + u64::from(d) })
            .collect();
        check_chain(&dims);
    }

    #[test]
    fn bst_matches_the_reference(n in 1usize..40, seed in 0u64..1 << 40) {
        let freq: Vec<u64> = operand(seed, n, 256).into_iter().map(u64::from).collect();
        check_bst(&freq);
    }
}
