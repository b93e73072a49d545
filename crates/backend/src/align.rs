//! Direct local alignment mirroring the wavefront mesh.
//!
//! The mesh assigns one PE per cell of the `|a| × |b|` table and sweeps
//! anti-diagonals, `|a| + |b| − 1` cycles per instance.  The direct
//! solvers compute the same tables with rolling rows — O(|b|) memory —
//! using the exact saturating arithmetic of the PEs, so scores *and*
//! argmax endpoints (ties toward the smallest `(i, j)` row-major) are
//! bit-identical.
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

fn in_band(i: usize, j: usize, band: Option<usize>) -> bool {
    match band {
        None => true,
        Some(w) => (i as i64 - j as i64).unsigned_abs() <= w as u64,
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
    let busy = (0..p)
        .flat_map(|i| (0..q).map(move |j| (i, j)))
        .map(|(i, j)| if in_band(i, j, band) { bn as u64 } else { 0 })
        .collect();
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

/// Rolling-row linear-gap Smith–Waterman over an optional band,
/// returning the score and argmax endpoint.
fn sw_rows(a: &[u8], b: &[u8], band: Option<usize>, sc: &Scoring) -> BestCell {
    let q = b.len();
    let mut prev = vec![0i64; q + 1]; // H[i−1][·], boundary 0
    let mut cur = vec![0i64; q + 1];
    let mut best: BestCell = (0, usize::MAX, usize::MAX);
    for (i, &ca) in a.iter().enumerate() {
        cur[0] = 0;
        for (j, &cb) in b.iter().enumerate() {
            let h = if in_band(i, j, band) {
                0i64.max(prev[j].saturating_add(sc.subst.score(ca, cb)))
                    .max(prev[j + 1].saturating_sub(sc.gap))
                    .max(cur[j].saturating_sub(sc.gap))
            } else {
                OUT_OF_BAND
            };
            cur[j + 1] = h;
            if h > best.0 {
                best = (h, i, j);
            }
        }
        std::mem::swap(&mut prev, &mut cur);
    }
    best
}

/// Rolling-row Gotoh (affine gaps), same saturating arithmetic as the
/// three-layer PE.
fn gotoh_rows(a: &[u8], b: &[u8], sc: &Scoring) -> BestCell {
    let q = b.len();
    let mut h_prev = vec![0i64; q + 1];
    let mut h_cur = vec![0i64; q + 1];
    let mut f_prev = vec![OUT_OF_BAND; q + 1]; // F undefined above row 0
    let mut f_cur = vec![0i64; q + 1];
    let mut best: BestCell = (0, usize::MAX, usize::MAX);
    for (i, &ca) in a.iter().enumerate() {
        h_cur[0] = 0;
        let mut e = OUT_OF_BAND; // E undefined left of column 0
        for (j, &cb) in b.iter().enumerate() {
            e = h_cur[j]
                .saturating_sub(sc.gap_open)
                .max(e.saturating_sub(sc.gap_extend));
            let f = h_prev[j + 1]
                .saturating_sub(sc.gap_open)
                .max(f_prev[j + 1].saturating_sub(sc.gap_extend));
            let h = 0i64
                .max(h_prev[j].saturating_add(sc.subst.score(ca, cb)))
                .max(e)
                .max(f);
            h_cur[j + 1] = h;
            f_cur[j + 1] = f;
            if h > best.0 {
                best = (h, i, j);
            }
        }
        std::mem::swap(&mut h_prev, &mut h_cur);
        std::mem::swap(&mut f_prev, &mut f_cur);
    }
    best
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
    let best = if affine {
        gotoh_rows(a, b, sc)
    } else {
        sw_rows(a, b, band, sc)
    };
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
        .map(|(a, b)| {
            if affine {
                gotoh_rows(a, b, sc)
            } else {
                sw_rows(a, b, band, sc)
            }
        })
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
