//! Direct multistage shortest-path solvers mirroring Designs 1 and 2.
//!
//! Both designs compute the same right-to-left min-plus fold
//! `v ← Mᵢ · v` over the matrix string; the simulators differ only in
//! *how* the fold is scheduled onto PEs (pipelined vs broadcast), which
//! changes the Stats but not the values.  The direct solvers run the
//! fold row-major (contiguous matrix reads, no per-cycle machinery) and
//! attach each design's closed-form Stats:
//!
//! * **Design 1** injects every item on consecutive cycles (the tail
//!   feedback of a moving phase is ready exactly one cycle before the
//!   following phase needs it), so a schedule of `T` items on `m` PEs
//!   takes `T + m − 1` cycles with every PE busy `T` times, `T` words
//!   in, `T` words out, and no stalls.
//! * **Design 2** broadcasts one word per cycle: `m` cycles per
//!   interior matrix (all `m` PEs busy) plus `m` cycles for the final
//!   row phase (only `P₁` busy), every cycle one input and one bus
//!   word, and nothing leaves through the tail (results are read from
//!   the `S` registers).
//!
//! The Design 2 path is recovered from per-stage argmin latches whose
//! tie-break (first strict improvement, broadcast index ascending) is
//! replicated literally so recovered paths are bit-identical too.

use sdp_core::design1::{Design1BatchResult, Design1Result};
use sdp_core::design2::{Design2BatchResult, Design2Result};
use sdp_fault::SdpError;
use sdp_semiring::{Cost, Matrix, MinPlus, Semiring};
use sdp_systolic::Stats;

/// `m ≥ 1` check shared with `Design1Array::try_new`/`Design2Array::try_new`.
fn validate_m(m: usize) -> Result<(), SdpError> {
    if m < 1 {
        return Err(SdpError::BadParameter {
            name: "m",
            got: m as u64,
            min: 1,
        });
    }
    Ok(())
}

/// Design 1's shape checks (verbatim from `Design1Array::validate`).
fn validate_d1(m: usize, mats: &[Matrix<MinPlus>]) -> Result<(bool, bool), SdpError> {
    if mats.is_empty() {
        return Err(SdpError::EmptyMatrixString);
    }
    let has_row = mats[0].rows() == 1 && m > 1;
    let has_col = mats[mats.len() - 1].cols() == 1 && m > 1;
    if mats.len() < has_row as usize + has_col as usize {
        return Err(SdpError::StringTooShort {
            got: mats.len(),
            need: has_row as usize + has_col as usize,
        });
    }
    let mid_range = (has_row as usize)..(mats.len() - has_col as usize);
    for (off, mat) in mats[mid_range.clone()].iter().enumerate() {
        if (mat.rows(), mat.cols()) != (m, m) {
            return Err(SdpError::NotSquare {
                index: mid_range.start + off,
                m,
            });
        }
    }
    if has_row && mats[0].cols() != m {
        return Err(SdpError::WrongStageWidth {
            stage: 0,
            m,
            got: mats[0].cols(),
        });
    }
    if has_col && mats[mats.len() - 1].rows() != m {
        return Err(SdpError::WrongStageWidth {
            stage: mats.len() - 1,
            m,
            got: mats[mats.len() - 1].rows(),
        });
    }
    Ok((has_row, has_col))
}

/// Design 2's shape checks (verbatim from `Design2Array::validate` —
/// note it does *not* check stage widths, matching the simulator).
fn validate_d2(m: usize, mats: &[Matrix<MinPlus>]) -> Result<(bool, bool), SdpError> {
    if mats.is_empty() {
        return Err(SdpError::EmptyMatrixString);
    }
    let has_row = mats[0].rows() == 1 && m > 1;
    let has_col = mats[mats.len() - 1].cols() == 1 && m > 1;
    if mats.len() < has_row as usize + has_col as usize {
        return Err(SdpError::StringTooShort {
            got: mats.len(),
            need: has_row as usize + has_col as usize,
        });
    }
    let interior = &mats[(has_row as usize)..(mats.len() - has_col as usize)];
    for (off, mat) in interior.iter().enumerate() {
        if (mat.rows(), mat.cols()) != (m, m) {
            return Err(SdpError::NotSquare {
                index: has_row as usize + off,
                m,
            });
        }
    }
    Ok((has_row, has_col))
}

/// Batch-uniformity check shared by both designs: every instance must
/// repeat instance 0's shape sequence.
fn validate_batch_shapes(instances: &[&[Matrix<MinPlus>]]) -> Result<(), SdpError> {
    let first = instances[0];
    for (index, mats) in instances.iter().enumerate().skip(1) {
        let same = mats.len() == first.len()
            && mats
                .iter()
                .zip(first.iter())
                .all(|(a, b)| (a.rows(), a.cols()) == (b.rows(), b.cols()));
        if !same {
            return Err(SdpError::BatchShapeMismatch { index });
        }
    }
    Ok(())
}

/// The initial vector: the degenerate last column, or the all-one
/// (zero-cost) vector for multi-sink strings.
fn v0(m: usize, mats: &[Matrix<MinPlus>], has_col: bool) -> Vec<MinPlus> {
    if has_col {
        (0..m).map(|i| mats[mats.len() - 1].get(i, 0)).collect()
    } else {
        vec![MinPlus::one(); m]
    }
}

/// One fold step `w = mat · v`, row-major.  Min is order-independent,
/// so the contiguous scan is bit-identical to the simulators' per-item
/// accumulation.
fn fold_step(m: usize, mat: &Matrix<MinPlus>, v: &[MinPlus]) -> Vec<MinPlus> {
    (0..m)
        .map(|i| {
            let row = mat.row(i);
            let mut acc = MinPlus::zero();
            for (j, &vj) in v.iter().enumerate() {
                acc = acc.add(row[j].mul(vj));
            }
            acc
        })
        .collect()
}

/// The final values of one instance: the fold over the interior
/// matrices right-to-left, contracted by the row vector if present.
fn fold_values(m: usize, mats: &[Matrix<MinPlus>], has_row: bool, has_col: bool) -> Vec<Cost> {
    let interior = &mats[(has_row as usize)..(mats.len() - has_col as usize)];
    let mut v = v0(m, mats, has_col);
    for mat in interior.iter().rev() {
        v = fold_step(m, mat, &v);
    }
    if has_row {
        let row = mats[0].row(0);
        let mut acc = MinPlus::zero();
        for (j, &vj) in v.iter().enumerate() {
            acc = acc.add(row[j].mul(vj));
        }
        vec![acc.0]
    } else {
        v.iter().map(|c| c.0).collect()
    }
}

/// Items one instance injects into the Design 1 pipeline: `m` per
/// interior phase, plus the final row phase (1 item when the preceding
/// phase left results moving, `m` when it streams head-side).
fn d1_instance_items(m: usize, p_count: usize, has_row: bool) -> usize {
    let row_items = if has_row {
        if p_count % 2 == 1 {
            1 // FinalRowMoving
        } else {
            m // FinalRowHead
        }
    } else {
        0
    };
    p_count * m + row_items
}

/// Flush items drained between batched instances whose results end in
/// the stationary registers (`m` after a stationary-ended string, 1
/// after a head-accumulated scalar); tail-extracted shapes need none.
fn d1_flush_items(m: usize, p_count: usize, has_row: bool) -> usize {
    if has_row {
        if p_count.is_multiple_of(2) {
            1 // RowHead-ended
        } else {
            0 // RowMoving-ended
        }
    } else if p_count % 2 == 1 {
        m // Stationary-ended
    } else {
        0 // Moving-ended
    }
}

/// Design 1's closed-form batch Stats: `total_items` injections on
/// consecutive cycles through `m` pipelined PEs.
fn d1_stats(m: usize, total_items: usize) -> Stats {
    let t = total_items as u64;
    Stats::from_parts(t + m as u64 - 1, vec![t; m], t, t, 0, 0, 0)
}

/// Direct Design 1: bit-identical to `Design1Array::run` with the
/// analytic Stats of the pipelined array.
pub fn design1_direct(m: usize, mats: &[Matrix<MinPlus>]) -> Result<Design1Result, SdpError> {
    let batch = design1_direct_batch(m, &[mats])?;
    let Design1BatchResult {
        mut values,
        cycles,
        paper_iterations,
        stats,
    } = batch;
    Ok(Design1Result {
        values: values.pop().expect("one instance"),
        cycles,
        paper_iterations,
        stats,
    })
}

/// Direct Design 1 batch: bit-identical to `Design1Array::run_batch`
/// (same values, same typed errors) with the analytic Stats of the
/// back-to-back pipelined schedule, including the identity flush passes
/// that drain register-extracted instances.
pub fn design1_direct_batch(
    m: usize,
    instances: &[&[Matrix<MinPlus>]],
) -> Result<Design1BatchResult, SdpError> {
    validate_m(m)?;
    if instances.is_empty() {
        return Err(SdpError::EmptyBatch);
    }
    let first = instances[0];
    let (has_row, has_col) = validate_d1(m, first)?;
    validate_batch_shapes(instances)?;
    let bn = instances.len();
    let p_count = first.len() - has_row as usize - has_col as usize;
    let paper_iterations = (bn * first.len() * m) as u64;

    // Degenerate string: only the m×1 column — nothing to pipeline.
    if p_count == 0 && !has_row {
        return Ok(Design1BatchResult {
            values: instances
                .iter()
                .map(|mats| v0(m, mats, has_col).iter().map(|v| v.0).collect())
                .collect(),
            cycles: 0,
            paper_iterations,
            stats: Stats::new(m),
        });
    }

    let values = instances
        .iter()
        .map(|mats| fold_values(m, mats, has_row, has_col))
        .collect();
    let total_items = bn * d1_instance_items(m, p_count, has_row)
        + (bn - 1) * d1_flush_items(m, p_count, has_row);
    let stats = d1_stats(m, total_items);
    Ok(Design1BatchResult {
        values,
        cycles: stats.cycles(),
        paper_iterations,
        stats,
    })
}

/// One Design 2 instance: the fold plus the argmin latches the
/// simulator uses to recover the optimal path.  The latch update is the
/// simulator's literally — a strict `<` against the running
/// accumulator, broadcast index ascending, `None` when the optimum
/// stays at +∞.
fn d2_instance(
    m: usize,
    mats: &[Matrix<MinPlus>],
    has_row: bool,
    has_col: bool,
) -> (Vec<Cost>, Option<Vec<usize>>) {
    let interior = &mats[(has_row as usize)..(mats.len() - has_col as usize)];
    let mut source = v0(m, mats, has_col);
    let mut succ_rev: Vec<Vec<Option<usize>>> = Vec::with_capacity(interior.len());
    for mat in interior.iter().rev() {
        let mut arg: Vec<Option<usize>> = vec![None; m];
        let mut next = vec![MinPlus::zero(); m];
        for (i, (acc, ai)) in next.iter_mut().zip(arg.iter_mut()).enumerate() {
            let row = mat.row(i);
            for (j, &x) in source.iter().enumerate() {
                let cand = row[j].mul(x);
                if cand.0 < acc.0 {
                    *acc = cand;
                    *ai = Some(j);
                }
            }
        }
        source = next;
        succ_rev.push(arg);
    }

    let mut start_choice: Option<usize> = None;
    let values: Vec<Cost> = if has_row {
        let row = mats[0].row(0);
        let mut acc = MinPlus::zero();
        for (j, &x) in source.iter().enumerate() {
            let cand = row[j].mul(x);
            if cand.0 < acc.0 {
                acc = cand;
                start_choice = Some(j);
            }
        }
        vec![acc.0]
    } else {
        source.iter().map(|v| v.0).collect()
    };

    let path = {
        let first = if has_row {
            start_choice
        } else {
            values
                .iter()
                .enumerate()
                .filter(|(_, c)| c.is_finite())
                .min_by_key(|&(_, &c)| c)
                .map(|(i, _)| i)
        };
        first.map(|first| {
            let mut p = Vec::with_capacity(mats.len() + 1);
            if has_row {
                p.push(0); // the single source vertex
            }
            p.push(first);
            let mut v = first;
            for arg in succ_rev.iter().rev() {
                match arg[v] {
                    Some(next) => {
                        p.push(next);
                        v = next;
                    }
                    None => return Vec::new(), // dead end (all INF)
                }
            }
            if has_col {
                p.push(0); // the single sink vertex
            }
            p
        })
    }
    .filter(|p| !p.is_empty());

    (values, path)
}

/// Design 2's closed-form batch Stats: one broadcast word per cycle —
/// `m` cycles per interior matrix with every PE busy, `m` row-phase
/// cycles with only `P₁` busy, no tail output.
fn d2_stats(m: usize, bn: usize, interior: usize, has_row: bool) -> Stats {
    let interior_cycles = (bn * interior * m) as u64;
    let row_cycles = if has_row { (bn * m) as u64 } else { 0 };
    let cycles = interior_cycles + row_cycles;
    let mut busy = vec![interior_cycles; m];
    busy[0] = interior_cycles + row_cycles;
    Stats::from_parts(cycles, busy, cycles, 0, cycles, 0, 0)
}

/// Direct Design 2: bit-identical to `Design2Array::run` (values *and*
/// recovered path) with the analytic Stats of the broadcast array.
pub fn design2_direct(m: usize, mats: &[Matrix<MinPlus>]) -> Result<Design2Result, SdpError> {
    validate_m(m)?;
    let (has_row, has_col) = validate_d2(m, mats)?;
    let (values, path) = d2_instance(m, mats, has_row, has_col);
    let interior = mats.len() - has_row as usize - has_col as usize;
    let stats = d2_stats(m, 1, interior, has_row);
    Ok(Design2Result {
        values,
        path,
        cycles: stats.cycles(),
        paper_iterations: (mats.len() * m) as u64,
        broadcast_words: stats.bus_words(),
        stats,
    })
}

/// Direct Design 2 batch: bit-identical to `Design2Array::run_batch`
/// with the exact-concatenation Stats (the broadcast array has no
/// fill or drain to amortize).
pub fn design2_direct_batch(
    m: usize,
    instances: &[&[Matrix<MinPlus>]],
) -> Result<Design2BatchResult, SdpError> {
    validate_m(m)?;
    if instances.is_empty() {
        return Err(SdpError::EmptyBatch);
    }
    let (has_row, has_col) = validate_d2(m, instances[0])?;
    validate_batch_shapes(instances)?;
    let first = instances[0];
    let mut values = Vec::with_capacity(instances.len());
    let mut paths = Vec::with_capacity(instances.len());
    for mats in instances {
        let (v, p) = d2_instance(m, mats, has_row, has_col);
        values.push(v);
        paths.push(p);
    }
    let interior = first.len() - has_row as usize - has_col as usize;
    let stats = d2_stats(m, instances.len(), interior, has_row);
    Ok(Design2BatchResult {
        values,
        paths,
        cycles: stats.cycles(),
        paper_iterations: (instances.len() * first.len() * m) as u64,
        broadcast_words: stats.bus_words(),
        stats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdp_core::{Design1Array, Design2Array};
    use sdp_fault::NoFaults;
    use sdp_multistage::generate;
    use sdp_trace::NullSink;

    fn strings(m: usize) -> Vec<Vec<Matrix<MinPlus>>> {
        let mut out = Vec::new();
        for seed in 0..6u64 {
            let stages = 3 + (seed as usize % 5);
            out.push(
                generate::random_single_source_sink(seed, stages, m, 0, 30)
                    .matrix_string()
                    .to_vec(),
            );
            out.push(
                generate::random_uniform(seed, 2 + (seed as usize % 5), m, 0, 25)
                    .matrix_string()
                    .to_vec(),
            );
        }
        out
    }

    #[test]
    fn design1_matches_sim_exactly() {
        for m in 1..=4 {
            let arr = Design1Array::new(m);
            for s in strings(m) {
                let sim = arr.try_run(&s, &mut NoFaults, &mut NullSink).unwrap();
                let direct = design1_direct(m, &s).unwrap();
                assert_eq!(direct.values, sim.values);
                assert_eq!(direct.cycles, sim.cycles, "m {m} len {}", s.len());
                assert_eq!(direct.paper_iterations, sim.paper_iterations);
                assert_eq!(direct.stats, sim.stats);
            }
        }
    }

    #[test]
    fn design1_batch_matches_sim_exactly() {
        for m in [1usize, 3] {
            let arr = Design1Array::new(m);
            for s in strings(m) {
                let refs: Vec<&[Matrix<MinPlus>]> = (0..3).map(|_| s.as_slice()).collect();
                let sim = arr.run_batch(&refs).unwrap();
                let direct = design1_direct_batch(m, &refs).unwrap();
                assert_eq!(direct.values, sim.values);
                assert_eq!(direct.cycles, sim.cycles, "m {m} len {}", s.len());
                assert_eq!(direct.stats, sim.stats);
            }
        }
    }

    #[test]
    fn design2_matches_sim_exactly() {
        for m in 1..=4 {
            let arr = Design2Array::new(m);
            for s in strings(m) {
                let sim = arr.try_run(&s, &mut NoFaults, &mut NullSink).unwrap();
                let direct = design2_direct(m, &s).unwrap();
                assert_eq!(direct.values, sim.values);
                assert_eq!(direct.path, sim.path, "m {m} len {}", s.len());
                assert_eq!(direct.cycles, sim.cycles);
                assert_eq!(direct.broadcast_words, sim.broadcast_words);
                assert_eq!(direct.stats, sim.stats);
            }
        }
    }

    #[test]
    fn errors_match_sim() {
        let arr = Design1Array::new(3);
        for mats in [
            vec![],
            vec![Matrix::<MinPlus>::zeros(2, 2)],
            vec![Matrix::from_rows(1, 1, vec![MinPlus::from(4)])],
        ] {
            assert_eq!(
                design1_direct(3, &mats).err(),
                arr.try_run(&mats, &mut NoFaults, &mut NullSink).err(),
                "{mats:?}"
            );
            assert_eq!(
                design2_direct(3, &mats).err(),
                Design2Array::new(3)
                    .try_run(&mats, &mut NoFaults, &mut NullSink)
                    .err()
            );
        }
    }
}
