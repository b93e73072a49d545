//! Direct local alignment mirroring the wavefront mesh.
//!
//! The mesh assigns one PE per cell of the `|a| × |b|` table and sweeps
//! anti-diagonals, `|a| + |b| − 1` cycles per instance.  The direct
//! solvers compute the same tables with rolling rows — O(|b|) memory —
//! using the exact saturating arithmetic of the PEs, so scores *and*
//! argmax endpoints (ties toward the smallest `(i, j)` row-major) are
//! bit-identical.
//!
//! The cell loops do no per-cell bookkeeping: each kernel is
//! monomorphised over its substitution scores (a compare or a table
//! load, not a match on [`Subst`]), a banded row runs over its in-band
//! column range only, and the argmax is a branch-free fold of the row
//! maximum whose first column is looked up only on the rare rows that
//! beat the running best.
//!
//! Stats are the mesh's closed forms: `p + q − 1` cycles
//! (`p + q − 2 + B` batched), each in-band PE busy once per instance
//! (out-of-band relays never), `p + q` words in and `p + q` words out
//! per instance (every boundary PE — relay or not — emits once per
//! crossing wavefront), and, for banded runs, a stall on every cycle
//! whose crossing anti-diagonals hold no in-band cell.

use sdp_core::align::{AlignRun, BatchAlignRun, Scoring, Subst};
use sdp_fault::SdpError;
use sdp_systolic::Stats;

/// The mesh's out-of-band sentinel, reproduced so banded dependency
/// skipping is bit-identical (`max(0, …)` floors it away).
const OUT_OF_BAND: i64 = i64::MIN / 4;

/// Replicates the mesh's symbol validation (the core helper is
/// private; the check is part of the public contract).
fn validate(subst: &Subst, operand: &[u8]) -> Result<(), SdpError> {
    if let Subst::Matrix { alphabet, .. } = subst {
        for (index, &symbol) in operand.iter().enumerate() {
            if symbol >= *alphabet {
                return Err(SdpError::SymbolOutOfRange {
                    index,
                    symbol,
                    alphabet: *alphabet,
                });
            }
        }
    }
    Ok(())
}

/// Row `i`'s in-band columns: `|i − j| ≤ band`, clipped to the mesh.
/// Empty (`lo > hi`) once the band has slid past the last column.
fn band_cols(i: usize, q: usize, band: Option<usize>) -> (usize, usize) {
    match band {
        None => (0, q - 1),
        Some(w) => (i.saturating_sub(w), (i.saturating_add(w)).min(q - 1)),
    }
}

/// Whether anti-diagonal `t` of a `p × q` mesh holds an in-band cell.
fn diag_active(t: i64, p: usize, q: usize, band: Option<usize>) -> bool {
    let lo = 0i64.max(t - (q as i64 - 1));
    let hi = (p as i64 - 1).min(t);
    match band {
        None => lo <= hi,
        Some(w) => {
            // |2i − t| ≤ band intersected with the mesh rows.
            let blo = (t - w as i64 + 1).div_euclid(2);
            let bhi = (t + w as i64).div_euclid(2);
            lo.max(blo) <= hi.min(bhi)
        }
    }
}

/// Closed-form mesh Stats for `bn` same-shaped alignments: busy counts
/// per in-band cell, stalls on wavefront cycles with no in-band work.
fn mesh_stats(p: usize, q: usize, bn: usize, band: Option<usize>) -> Stats {
    let cycles = (p + q - 2 + bn) as u64;
    let mut busy = vec![0; p * q];
    for (i, row) in busy.chunks_exact_mut(q).enumerate() {
        let (lo, hi) = band_cols(i, q, band);
        if lo <= hi {
            row[lo..=hi].fill(bn as u64);
        }
    }
    let io = (bn * (p + q)) as u64;
    let stalls = (0..cycles as i64)
        .filter(|&t| !(0..bn as i64).any(|k| diag_active(t - k, p, q, band)))
        .count() as u64;
    Stats::from_parts(cycles, busy, io, io, 0, 0, stalls)
}

/// The best-cell merge: higher score wins, ties toward smaller `(i, j)`.
type BestCell = (i64, usize, usize);

fn empty_run() -> AlignRun {
    AlignRun {
        score: 0,
        end: None,
        cycles: 0,
        stats: Stats::new(0),
    }
}

/// Folds one finished row into the running best.  The row maximum is a
/// branch-free fold; its first column is searched for only when the
/// row beats the best so far, which keeps the row-major first-strict
/// maximum of the per-cell scan.
fn merge_row(best: &mut BestCell, i: usize, lo: usize, cells: &[i64]) {
    let row_max = cells.iter().fold(i64::MIN, |acc, &h| acc.max(h));
    if row_max > best.0 {
        let j = cells
            .iter()
            .position(|&h| h == row_max)
            .expect("the maximum is in the row");
        *best = (row_max, i, lo + j);
    }
}

/// Rolling-row linear-gap Smith–Waterman over an optional band,
/// returning the score and argmax endpoint.  Each row runs over its
/// in-band column range only.
fn sw_rows(
    a: &[u8],
    b: &[u8],
    band: Option<usize>,
    gap: i64,
    score: impl Fn(u8, u8) -> i64,
) -> BestCell {
    let q = b.len();
    let mut prev = vec![0i64; q + 1]; // H[i−1][·], boundary 0
    let mut cur = vec![0i64; q + 1];
    let mut best: BestCell = (0, usize::MAX, usize::MAX);
    for (i, &ca) in a.iter().enumerate() {
        let (lo, hi) = band_cols(i, q, band);
        if lo > hi {
            break; // the band has left the mesh: no later row is in band
        }
        // Cell (i, j) lives at index j + 1.  The left neighbour of the
        // first in-band cell and the cell past the last one are the
        // only out-of-band cells this row or the next reads, so they
        // carry the mesh's sentinel; column −1 is the zero boundary.
        cur[lo] = if lo == 0 { 0 } else { OUT_OF_BAND };
        if hi + 2 <= q {
            cur[hi + 2] = OUT_OF_BAND;
        }
        let mut left = cur[lo];
        let ups = prev[lo..=hi + 1].windows(2);
        for ((h, &cb), up) in cur[lo + 1..=hi + 1].iter_mut().zip(&b[lo..=hi]).zip(ups) {
            left = 0i64
                .max(up[0].saturating_add(score(ca, cb)))
                .max(up[1].saturating_sub(gap))
                .max(left.saturating_sub(gap));
            *h = left;
        }
        merge_row(&mut best, i, lo, &cur[lo + 1..=hi + 1]);
        std::mem::swap(&mut prev, &mut cur);
    }
    best
}

/// Rolling-row Gotoh (affine gaps), same saturating arithmetic as the
/// three-layer PE.  A row runs in three passes: `max(0, F)` (vertical
/// gaps), then the diagonal term, read only the previous row, so they
/// carry no dependency between columns; only the `E`/`H` left-to-right
/// chain is serial.  `max` is exact, so regrouping the PE's
/// `max(0, diag + s, E, F)` changes no value.
fn gotoh_rows(a: &[u8], b: &[u8], sc: &Scoring, score: impl Fn(u8, u8) -> i64) -> BestCell {
    let (open, extend) = (sc.gap_open, sc.gap_extend);
    let q = b.len();
    let mut h_prev = vec![0i64; q + 1];
    let mut h_cur = vec![0i64; q + 1];
    let mut f = vec![OUT_OF_BAND; q]; // F undefined above row 0
    let mut best: BestCell = (0, usize::MAX, usize::MAX);
    for (i, &ca) in a.iter().enumerate() {
        let row = &mut h_cur[1..];
        for ((h, fj), &up) in row.iter_mut().zip(&mut f).zip(&h_prev[1..]) {
            *fj = up.saturating_sub(open).max(fj.saturating_sub(extend));
            *h = (*fj).max(0);
        }
        for ((h, &diag), &cb) in row.iter_mut().zip(&h_prev).zip(b) {
            *h = (*h).max(diag.saturating_add(score(ca, cb)));
        }
        let mut left = 0i64; // H[i][−1]
        let mut e = OUT_OF_BAND; // E undefined left of column 0
        for h in row.iter_mut() {
            e = left.saturating_sub(open).max(e.saturating_sub(extend));
            left = (*h).max(e);
            *h = left;
        }
        merge_row(&mut best, i, 0, row);
        std::mem::swap(&mut h_prev, &mut h_cur);
    }
    best
}

/// The run's kernel — Gotoh for affine runs, banded or full
/// Smith–Waterman otherwise — monomorphised over the substitution
/// scores, so the per-cell score is a compare or a table load rather
/// than a match on [`Subst`].
fn rows(a: &[u8], b: &[u8], band: Option<usize>, sc: &Scoring, affine: bool) -> BestCell {
    match &sc.subst {
        Subst::Simple {
            matched,
            mismatched,
        } => {
            let (hit, miss) = (*matched, *mismatched);
            run_kernel(
                a,
                b,
                band,
                sc,
                affine,
                move |x, y| if x == y { hit } else { miss },
            )
        }
        Subst::Matrix { alphabet, scores } => {
            let k = *alphabet as usize;
            run_kernel(a, b, band, sc, affine, move |x, y| {
                scores[x as usize * k + y as usize]
            })
        }
    }
}

/// The affine or linear-gap kernel for one score closure.
fn run_kernel(
    a: &[u8],
    b: &[u8],
    band: Option<usize>,
    sc: &Scoring,
    affine: bool,
    score: impl Fn(u8, u8) -> i64,
) -> BestCell {
    if affine {
        gotoh_rows(a, b, sc, score)
    } else {
        sw_rows(a, b, band, sc.gap, score)
    }
}

fn run_from(best: BestCell, stats: Stats) -> AlignRun {
    AlignRun {
        score: best.0,
        end: (best.0 > 0).then_some((best.1, best.2)),
        cycles: stats.cycles(),
        stats,
    }
}

fn single(
    a: &[u8],
    b: &[u8],
    band: Option<usize>,
    sc: &Scoring,
    affine: bool,
) -> Result<AlignRun, SdpError> {
    validate(&sc.subst, a)?;
    validate(&sc.subst, b)?;
    if a.is_empty() || b.is_empty() {
        return Ok(empty_run());
    }
    let best = rows(a, b, band, sc, affine);
    Ok(run_from(best, mesh_stats(a.len(), b.len(), 1, band)))
}

fn batch(
    pairs: &[(&[u8], &[u8])],
    band: Option<usize>,
    sc: &Scoring,
    affine: bool,
) -> Result<BatchAlignRun, SdpError> {
    if pairs.is_empty() {
        return Err(SdpError::EmptyBatch);
    }
    let (p, q) = (pairs[0].0.len(), pairs[0].1.len());
    for (index, (a, b)) in pairs.iter().enumerate() {
        if (a.len(), b.len()) != (p, q) {
            return Err(SdpError::BatchShapeMismatch { index });
        }
        validate(&sc.subst, a)?;
        validate(&sc.subst, b)?;
    }
    let bn = pairs.len();
    if p == 0 || q == 0 {
        return Ok(BatchAlignRun {
            scores: vec![0; bn],
            ends: vec![None; bn],
            cycles: 0,
            stats: Stats::new(0),
        });
    }
    let bests: Vec<BestCell> = pairs
        .iter()
        .map(|(a, b)| rows(a, b, band, sc, affine))
        .collect();
    let stats = mesh_stats(p, q, bn, band);
    Ok(BatchAlignRun {
        scores: bests.iter().map(|b| b.0).collect(),
        ends: bests
            .iter()
            .map(|&b| (b.0 > 0).then_some((b.1, b.2)))
            .collect(),
        cycles: stats.cycles(),
        stats,
    })
}

/// Direct Smith–Waterman: bit-identical to `sdp_core::align::sw_mesh`
/// (score, endpoint, Stats) without simulating the mesh.
pub fn sw_direct(a: &[u8], b: &[u8], scoring: &Scoring) -> Result<AlignRun, SdpError> {
    single(a, b, None, scoring, false)
}

/// Direct banded Smith–Waterman: bit-identical to
/// `sdp_core::align::sw_banded_mesh`, including the relay cells' idle
/// busy counts and the empty-wavefront stall cycles.
pub fn sw_banded_direct(
    a: &[u8],
    b: &[u8],
    band: usize,
    scoring: &Scoring,
) -> Result<AlignRun, SdpError> {
    single(a, b, Some(band), scoring, false)
}

/// Direct Gotoh affine-gap alignment: bit-identical to
/// `sdp_core::align::gotoh_mesh`.
pub fn gotoh_direct(a: &[u8], b: &[u8], scoring: &Scoring) -> Result<AlignRun, SdpError> {
    single(a, b, None, scoring, true)
}

/// Direct batched Smith–Waterman: same results and typed errors as
/// `sdp_core::align::sw_mesh_batch` with the streamed mesh's Stats.
pub fn sw_direct_batch(
    pairs: &[(&[u8], &[u8])],
    scoring: &Scoring,
) -> Result<BatchAlignRun, SdpError> {
    batch(pairs, None, scoring, false)
}

/// Direct batched banded Smith–Waterman (one band for the batch).
pub fn sw_banded_direct_batch(
    pairs: &[(&[u8], &[u8])],
    band: usize,
    scoring: &Scoring,
) -> Result<BatchAlignRun, SdpError> {
    batch(pairs, Some(band), scoring, false)
}

/// Direct batched Gotoh.
pub fn gotoh_direct_batch(
    pairs: &[(&[u8], &[u8])],
    scoring: &Scoring,
) -> Result<BatchAlignRun, SdpError> {
    batch(pairs, None, scoring, true)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdp_core::align::{
        gotoh_mesh_batch, sw_banded_mesh_batch, sw_mesh_batch, try_gotoh_mesh, try_sw_banded_mesh,
        try_sw_mesh,
    };
    use sdp_fault::NoFaults;
    use sdp_trace::NullSink;

    fn word(seed: u64, len: usize) -> Vec<u8> {
        let mut s = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(1);
        (0..len)
            .map(|_| {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                b'a' + (s % 4) as u8
            })
            .collect()
    }

    fn scheme() -> Scoring {
        Scoring::simple(2, -1, 1)
    }

    #[test]
    fn sw_matches_sim_exactly() {
        for (la, lb) in [(0, 0), (0, 3), (4, 0), (1, 1), (6, 9), (17, 5)] {
            let (a, b) = (word(la as u64, la), word(100 + lb as u64, lb));
            let sim = try_sw_mesh(&a, &b, &scheme(), &mut NoFaults, &mut NullSink).unwrap();
            let direct = sw_direct(&a, &b, &scheme()).unwrap();
            assert_eq!(direct, sim, "{la}x{lb}");
        }
    }

    #[test]
    fn banded_matches_sim_exactly_including_stalls() {
        for (la, lb, band) in [(6, 9, 0), (6, 9, 2), (17, 5, 1), (8, 8, 3), (9, 3, 20)] {
            let (a, b) = (word(la as u64, la), word(7 + lb as u64, lb));
            let sim =
                try_sw_banded_mesh(&a, &b, band, &scheme(), &mut NoFaults, &mut NullSink).unwrap();
            let direct = sw_banded_direct(&a, &b, band, &scheme()).unwrap();
            assert_eq!(direct, sim, "{la}x{lb} band {band}");
            assert_eq!(direct.stats.stall_cycles(), sim.stats.stall_cycles());
        }
    }

    #[test]
    fn gotoh_matches_sim_exactly() {
        let sc = Scoring::affine(2, -3, 5, 1);
        for (la, lb) in [(1, 1), (6, 9), (11, 8), (17, 5)] {
            let (a, b) = (word(la as u64, la), word(300 + lb as u64, lb));
            let sim = try_gotoh_mesh(&a, &b, &sc, &mut NoFaults, &mut NullSink).unwrap();
            let direct = gotoh_direct(&a, &b, &sc).unwrap();
            assert_eq!(direct, sim, "{la}x{lb}");
        }
    }

    #[test]
    fn batches_match_sim_exactly() {
        let sc = scheme();
        let words: Vec<(Vec<u8>, Vec<u8>)> =
            (0..5u64).map(|s| (word(s, 6), word(50 + s, 8))).collect();
        let pairs: Vec<(&[u8], &[u8])> = words
            .iter()
            .map(|(a, b)| (a.as_slice(), b.as_slice()))
            .collect();
        assert_eq!(
            sw_direct_batch(&pairs, &sc).unwrap(),
            sw_mesh_batch(&pairs, &sc).unwrap()
        );
        assert_eq!(
            sw_banded_direct_batch(&pairs, 2, &sc).unwrap(),
            sw_banded_mesh_batch(&pairs, 2, &sc).unwrap()
        );
        let asc = Scoring::affine(2, -3, 5, 1);
        assert_eq!(
            gotoh_direct_batch(&pairs, &asc).unwrap(),
            gotoh_mesh_batch(&pairs, &asc).unwrap()
        );
    }

    #[test]
    fn errors_match_sim() {
        let sc = scheme();
        assert!(matches!(
            sw_direct_batch(&[], &sc),
            Err(SdpError::EmptyBatch)
        ));
        let pairs: Vec<(&[u8], &[u8])> = vec![(b"abc", b"de"), (b"ab", b"de")];
        assert_eq!(
            sw_direct_batch(&pairs, &sc).err(),
            sw_mesh_batch(&pairs, &sc).err()
        );
        let msc = Scoring::matrix(2, vec![3, -1, -1, 3], 1, 1, 1);
        assert_eq!(
            sw_direct(&[0, 2, 0], &[0, 1], &msc).err(),
            try_sw_mesh(&[0, 2, 0], &[0, 1], &msc, &mut NoFaults, &mut NullSink).err()
        );
    }
}
