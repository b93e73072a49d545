//! Direct 0/1 knapsack mirroring the capacity-indexed linear array.
//!
//! The array streams items through `C + 1` PEs with value trains
//! closing the `c − w_i` dependency gap; the direct solver runs the
//! classic one-row sweep (capacity descending, so each item is used at
//! most once) with the array's exact decision rule — take iff
//! `base + value > current` (strictly, ties leave the item) with
//! saturating adds — so rows *and* recovered item sets are
//! bit-identical.
//!
//! Stats are the array's closed forms: `n + Σ w_i + 2·(C + 1)` cycles,
//! every PE busy once per item (one decision each), `n + 1` input
//! words (items plus the flush), `n + Σ min(w_i, C + 1) + C + 2`
//! output words (each item word, its tail-visible value train, the
//! flush, and the drained row), and stalls on exactly the relay-only
//! cycles of the launch schedule.

use sdp_core::knapsack_array::{knapsack_cycle_count, BatchKnapsackRun, KnapsackItem, KnapsackRun};
use sdp_fault::SdpError;
use sdp_systolic::Stats;

/// One row sweep with the array's decision rule; returns the final row
/// and (when `decisions` is given) each capacity's take/leave bit per
/// item, appended in item order.
fn sweep(
    items: &[KnapsackItem],
    capacity: u64,
    mut decisions: Option<&mut [Vec<bool>]>,
) -> Vec<u64> {
    let c = capacity as usize;
    let mut row = vec![0u64; c + 1];
    for it in items {
        let w = it.weight as usize;
        for cap in (0..=c).rev() {
            let take = cap >= w && row[cap - w].saturating_add(it.value) > row[cap];
            if let Some(d) = decisions.as_deref_mut() {
                d[cap].push(take);
            }
            if take {
                row[cap] = row[cap - w].saturating_add(it.value);
            }
        }
    }
    row
}

/// Appends the inclusive cycle intervals in which some PE decides for
/// an instance launched at cycle `start`; the rest of the schedule is
/// relay-only stalls.  Item i launches at s_i = start + i + Σ_{k<i} w_k;
/// PE j decides at s_i + j (immediate: j < w_i, or w_i = 0) or at
/// s_i + j + w_i (train resolution: j ≥ w_i).
fn decision_intervals(
    items: &[KnapsackItem],
    start: u64,
    capacity: u64,
    out: &mut Vec<(u64, u64)>,
) {
    let mut s = start;
    for it in items {
        let wi = it.weight;
        if wi == 0 {
            out.push((s, s + capacity));
        } else {
            out.push((s, s + (wi - 1).min(capacity)));
            if wi <= capacity {
                out.push((s + 2 * wi, s + wi + capacity));
            }
        }
        s += wi + 1;
    }
}

/// The number of cycles in the union of inclusive `intervals` — busy
/// cycles counted in memory linear in the item count, not the cycle
/// count.
fn covered_cycles(mut intervals: Vec<(u64, u64)>) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut next = 0; // first cycle not yet counted
    for (lo, hi) in intervals {
        let lo = lo.max(next);
        if lo <= hi {
            covered += hi - lo + 1;
            next = hi + 1;
        }
    }
    covered
}

/// Closed-form array Stats for one instance.
fn array_stats(items: &[KnapsackItem], capacity: u64) -> Stats {
    let (n, c) = (items.len() as u64, capacity);
    let cycles = knapsack_cycle_count(items, capacity);
    let tail_train: u64 = items.iter().map(|it| it.weight.min(c + 1)).sum();
    let mut busy = Vec::with_capacity(2 * items.len());
    decision_intervals(items, 0, c, &mut busy);
    let stalls = cycles - covered_cycles(busy);
    Stats::from_parts(
        cycles,
        vec![n; c as usize + 1],
        n + 1,
        n + tail_train + c + 2,
        0,
        0,
        stalls,
    )
}

/// Direct 0/1 knapsack: bit-identical to
/// `sdp_core::knapsack_array::knapsack_array` (final row, optimum,
/// Stats) without simulating the array.
pub fn knapsack_direct(items: &[KnapsackItem], capacity: u64) -> KnapsackRun {
    if items.is_empty() {
        return KnapsackRun {
            best: 0,
            per_capacity: vec![0; capacity as usize + 1],
            cycles: 0,
            stats: Stats::new(0),
        };
    }
    let per_capacity = sweep(items, capacity, None);
    let stats = array_stats(items, capacity);
    KnapsackRun {
        best: per_capacity[capacity as usize],
        cycles: stats.cycles(),
        per_capacity,
        stats,
    }
}

/// [`knapsack_direct`] plus item-set recovery: replays the array's
/// per-capacity decision bits (ties leave the item) and walks them back
/// from full capacity, so the set matches
/// `sdp_core::knapsack_array::try_knapsack_array_recovered` exactly.
pub fn knapsack_direct_recovered(
    items: &[KnapsackItem],
    capacity: u64,
) -> (KnapsackRun, Vec<usize>) {
    if items.is_empty() {
        return (knapsack_direct(items, capacity), Vec::new());
    }
    let mut decisions = vec![Vec::with_capacity(items.len()); capacity as usize + 1];
    let per_capacity = sweep(items, capacity, Some(&mut decisions));
    let stats = array_stats(items, capacity);
    let mut c = capacity as usize;
    let mut set = Vec::new();
    for i in (0..items.len()).rev() {
        if decisions[c][i] {
            set.push(i);
            c -= items[i].weight as usize;
        }
    }
    set.reverse();
    (
        KnapsackRun {
            best: per_capacity[capacity as usize],
            cycles: stats.cycles(),
            per_capacity,
            stats,
        },
        set,
    )
}

/// Direct batched knapsack: same rows and typed errors as
/// `sdp_core::knapsack_array::knapsack_array_batch` with the streamed
/// array's Stats.
pub fn knapsack_direct_batch(
    batch: &[&[KnapsackItem]],
    capacity: u64,
) -> Result<BatchKnapsackRun, SdpError> {
    if batch.is_empty() {
        return Err(SdpError::EmptyBatch);
    }
    let c = capacity as usize;
    if batch.iter().all(|items| items.is_empty()) {
        return Ok(BatchKnapsackRun {
            bests: vec![0; batch.len()],
            per_capacity: vec![vec![0; c + 1]; batch.len()],
            cycles: 0,
            stats: Stats::new(0),
        });
    }
    let per_capacity: Vec<Vec<u64>> = batch
        .iter()
        .map(|items| sweep(items, capacity, None))
        .collect();
    // The batch schedule: each instance's items at w + 1 spacing, its
    // flush, then a C + 2 gap before the next; cycles run to the last
    // flush plus the drain.  Busy/stall/IO accounting is per instance,
    // offset by its launch cycle.
    let mut s = 0u64;
    let mut last_flush = 0u64;
    let mut offsets = Vec::with_capacity(batch.len());
    for items in batch {
        offsets.push(s);
        let w: u64 = items.iter().map(|it| it.weight).sum();
        s += items.len() as u64 + w;
        last_flush = s;
        s += c as u64 + 2;
    }
    let cycles = last_flush + 2 * (c as u64 + 1);
    let n_total: usize = batch.iter().map(|items| items.len()).sum();
    let mut busy = Vec::with_capacity(2 * n_total);
    let mut input_words = 0u64;
    let mut output_words = 0u64;
    for (items, &offset) in batch.iter().zip(&offsets) {
        decision_intervals(items, offset, c as u64, &mut busy);
        let tail_train: u64 = items.iter().map(|it| it.weight.min(c as u64 + 1)).sum();
        input_words += items.len() as u64 + 1;
        output_words += items.len() as u64 + tail_train + c as u64 + 2;
    }
    let stalls = cycles - covered_cycles(busy);
    let stats = Stats::from_parts(
        cycles,
        vec![n_total as u64; c + 1],
        input_words,
        output_words,
        0,
        0,
        stalls,
    );
    Ok(BatchKnapsackRun {
        bests: per_capacity.iter().map(|row| row[c]).collect(),
        per_capacity,
        cycles: stats.cycles(),
        stats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdp_core::knapsack_array::{
        knapsack_array_batch, try_knapsack_array, try_knapsack_array_recovered,
    };
    use sdp_fault::NoFaults;
    use sdp_trace::NullSink;

    fn items(raw: &[(u64, u64)]) -> Vec<KnapsackItem> {
        raw.iter().map(|&(w, v)| KnapsackItem::new(w, v)).collect()
    }

    fn rng(mut state: u64) -> impl FnMut() -> u64 {
        move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state >> 33
        }
    }

    #[test]
    fn single_matches_sim_exactly() {
        let mut next = rng(13);
        for case in 0..30 {
            let n = (next() % 8) as usize;
            let capacity = next() % 12;
            let its: Vec<KnapsackItem> = (0..n)
                .map(|_| KnapsackItem::new(next() % 7, next() % 10))
                .collect();
            let sim = try_knapsack_array(&its, capacity, &mut NoFaults, &mut NullSink).unwrap();
            let direct = knapsack_direct(&its, capacity);
            assert_eq!(direct, sim, "case {case}: {its:?} cap {capacity}");
        }
    }

    #[test]
    fn recovered_sets_match_sim_exactly() {
        let mut next = rng(29);
        for case in 0..30 {
            let n = 1 + (next() % 6) as usize;
            let capacity = next() % 10;
            let its: Vec<KnapsackItem> = (0..n)
                .map(|_| KnapsackItem::new(next() % 5, next() % 9))
                .collect();
            let (sim, sim_set) = try_knapsack_array_recovered(&its, capacity).unwrap();
            let (direct, direct_set) = knapsack_direct_recovered(&its, capacity);
            assert_eq!(direct, sim, "case {case}");
            assert_eq!(direct_set, sim_set, "case {case}: {its:?} cap {capacity}");
        }
    }

    #[test]
    fn stats_for_long_schedules_need_no_per_cycle_memory() {
        // 10¹² cycles of schedule: a per-cycle busy map would need a
        // terabyte.  Item 0 (too heavy) decides on cycles 0..=3; item 1
        // launches at s = 10¹² + 1 and decides on s..=s+1 and s+4..=s+5.
        let heavy = 1_000_000_000_000;
        let run = knapsack_direct(&items(&[(heavy, 5), (2, 3)]), 3);
        assert_eq!(run.cycles, heavy + 2 + 2 + 2 * 4);
        assert_eq!(run.stats.stall_cycles(), run.cycles - 8);
        let batch = knapsack_direct_batch(&[&items(&[(heavy, 5), (2, 3)]), &[]], 3).unwrap();
        assert_eq!(batch.stats.stall_cycles(), batch.cycles - 8);
    }

    #[test]
    fn batch_matches_sim_exactly() {
        let a = items(&[(1, 1), (3, 4), (4, 5), (5, 7)]);
        let b = items(&[(2, 2), (2, 3)]);
        let c = items(&[(1, 9)]);
        let refs: Vec<&[KnapsackItem]> = vec![&a, &b, &c];
        let sim = knapsack_array_batch(&refs, 7).unwrap();
        let direct = knapsack_direct_batch(&refs, 7).unwrap();
        assert_eq!(direct, sim);
        assert!(matches!(
            knapsack_direct_batch(&[], 7),
            Err(SdpError::EmptyBatch)
        ));
    }

    #[test]
    fn oversized_and_zero_weight_items_match_sim() {
        for (raw, cap) in [
            (&[(10u64, 100u64)][..], 4u64),
            (&[(0, 3), (2, 9), (0, 4)], 0),
            (&[(0, 1), (0, 2)], 5),
            (&[(6, 6), (1, 1)], 5),
        ] {
            let its = items(raw);
            assert_eq!(
                knapsack_direct(&its, cap),
                try_knapsack_array(&its, cap, &mut NoFaults, &mut NullSink).unwrap(),
                "{raw:?} cap {cap}"
            );
        }
    }
}
