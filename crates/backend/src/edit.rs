//! Direct edit distance mirroring the wavefront mesh.
//!
//! The mesh assigns one PE per cell of the `|a| × |b|` DP table and
//! sweeps it in `|a| + |b| − 1` anti-diagonal wavefronts.  The direct
//! solver evaluates 64 rows of a DP column per machine word with the
//! Myers/Hyyrö bit-parallel recurrence: each column of the table is
//! kept as its vertical deltas (`D[i][j] − D[i−1][j] ∈ {−1, 0, +1}`,
//! two bit vectors), and one column step is a dozen word operations
//! per 64 cells, with no data-dependent branch.  The shorter operand is
//! the pattern (distance is symmetric), so the vectors take
//! ⌈min(|a|, |b|)/64⌉ words and the match masks O(σ·⌈min/64⌉) for the
//! σ distinct symbols of the pattern.  Levenshtein distance is a single
//! u64 per pair, so any correct evaluation order is bit-identical to
//! the mesh.
//!
//! Stats are the mesh's closed forms: `|a| + |b| − 1` cycles
//! (`p + q − 2 + B` batched, wavefronts one cycle apart), each of the
//! `|a|·|b|` PEs busy once per instance, `|a| + |b|` words in and out
//! per instance, and the mesh's empty-operand short-circuit (a 0-sized
//! mesh: zero cycles, zero PEs).

use sdp_core::edit_array::{BatchEditRun, EditRun};
use sdp_fault::SdpError;
use sdp_systolic::Stats;

/// Bits per block of DP rows.
const WORD: usize = u64::BITS as usize;

/// One column step of a 64-row block (Myers 1999, Fig. 9 with
/// Hyyrö's carry handling).  `pv`/`mv` hold the block's vertical +1/−1
/// deltas; `hp`/`hm` (0 or 1) are the horizontal delta entering at the
/// block's top row.  Returns the horizontal +1/−1 delta bits at row
/// `bit` of the block — the carry into the next block for `bit = 63`.
#[inline(always)]
fn advance_block(pv: &mut u64, mv: &mut u64, eq: u64, hp: u64, hm: u64, bit: u32) -> (u64, u64) {
    let (p, m) = (*pv, *mv);
    let xv = eq | m;
    let eq = eq | hm; // a −1 entering from above acts as a match
    let xh = ((eq & p).wrapping_add(p) ^ p) | eq;
    let ph = m | !(xh | p);
    let mh = p & xh;
    let out = ((ph >> bit) & 1, (mh >> bit) & 1);
    let ph = (ph << 1) | hp;
    let mh = (mh << 1) | hm;
    *pv = mh | !(xv | ph);
    *mv = ph & xv;
    out
}

/// Bit-parallel Levenshtein distance.  Rows are the shorter operand,
/// columns the longer; the running score is `D[m][j]`, advanced by the
/// horizontal delta at the pattern's last row.  Rows below it in the
/// last block have empty match masks and, since deltas only flow
/// downward, never feed back into row `m`.
fn levenshtein_bits(a: &[u8], b: &[u8]) -> u64 {
    let (text, pattern) = if a.len() >= b.len() { (a, b) } else { (b, a) };
    let m = pattern.len();
    let words = m.div_ceil(WORD);
    // `slot[c]` indexes symbol c's match mask in `peq`; slot 0 is the
    // all-zero mask every symbol absent from the pattern shares.
    let mut slot = [0u16; 256];
    let mut peq = vec![0u64; words];
    for (i, &c) in pattern.iter().enumerate() {
        if slot[c as usize] == 0 {
            slot[c as usize] = (peq.len() / words) as u16;
            peq.resize(peq.len() + words, 0);
        }
        peq[slot[c as usize] as usize * words + i / WORD] |= 1 << (i % WORD);
    }
    // Column 0: D[i][0] = i, every vertical delta +1.
    let mut pv = vec![!0u64; words];
    let mut mv = vec![0u64; words];
    let last = words - 1;
    let last_bit = ((m - 1) % WORD) as u32;
    let mut score = m as u64;
    for &c in text {
        let eq = &peq[slot[c as usize] as usize * words..][..words];
        // Row 0: D[0][j] = j, a +1 horizontal delta into every column.
        let (mut hp, mut hm) = (1, 0);
        for ((pw, mw), &ew) in pv[..last].iter_mut().zip(&mut mv[..last]).zip(eq) {
            (hp, hm) = advance_block(pw, mw, ew, hp, hm, 63);
        }
        let (p, n) = advance_block(&mut pv[last], &mut mv[last], eq[last], hp, hm, last_bit);
        score = score + p - n;
    }
    score
}

/// Closed-form mesh Stats for a batch of `bn` same-shaped comparisons.
fn mesh_stats(p: usize, q: usize, bn: usize) -> Stats {
    let io = (bn * (p + q)) as u64;
    Stats::from_parts(
        (p + q - 2 + bn) as u64,
        vec![bn as u64; p * q],
        io,
        io,
        0,
        0,
        0,
    )
}

/// Direct edit distance: bit-identical to
/// `sdp_core::edit_array::edit_distance_mesh` with the analytic Stats
/// of the `|a| × |b|` wavefront mesh.
pub fn edit_direct(a: &[u8], b: &[u8]) -> EditRun {
    if a.is_empty() || b.is_empty() {
        return EditRun {
            distance: (a.len() + b.len()) as u64,
            cycles: 0,
            stats: Stats::new(0),
        };
    }
    let stats = mesh_stats(a.len(), b.len(), 1);
    EditRun {
        distance: levenshtein_bits(a, b),
        cycles: stats.cycles(),
        stats,
    }
}

/// Direct batch edit distance: bit-identical to
/// `sdp_core::edit_array::edit_distance_mesh_batch` (same distances,
/// same typed errors) with the analytic Stats of the streamed mesh.
pub fn edit_direct_batch(pairs: &[(&[u8], &[u8])]) -> Result<BatchEditRun, SdpError> {
    if pairs.is_empty() {
        return Err(SdpError::EmptyBatch);
    }
    let (p, q) = (pairs[0].0.len(), pairs[0].1.len());
    for (index, (a, b)) in pairs.iter().enumerate() {
        if (a.len(), b.len()) != (p, q) {
            return Err(SdpError::BatchShapeMismatch { index });
        }
    }
    let bn = pairs.len();
    if p == 0 || q == 0 {
        return Ok(BatchEditRun {
            distances: vec![(p + q) as u64; bn],
            cycles: 0,
            stats: Stats::new(0),
        });
    }
    let stats = mesh_stats(p, q, bn);
    Ok(BatchEditRun {
        distances: pairs.iter().map(|(a, b)| levenshtein_bits(a, b)).collect(),
        cycles: stats.cycles(),
        stats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdp_core::edit_array::{
        edit_distance_mesh_batch, edit_distance_seq, try_edit_distance_mesh,
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

    #[test]
    fn single_matches_sim_exactly() {
        for (la, lb) in [(0, 0), (0, 3), (4, 0), (1, 1), (6, 9), (17, 5)] {
            let (a, b) = (word(la as u64, la), word(100 + lb as u64, lb));
            let sim = try_edit_distance_mesh(&a, &b, &mut NoFaults, &mut NullSink).unwrap();
            let direct = edit_direct(&a, &b);
            assert_eq!(direct.distance, sim.distance, "{la}x{lb}");
            assert_eq!(direct.cycles, sim.cycles);
            assert_eq!(direct.stats, sim.stats);
        }
    }

    #[test]
    fn batch_matches_sim_exactly() {
        for bn in [1usize, 2, 7] {
            let words: Vec<(Vec<u8>, Vec<u8>)> = (0..bn as u64)
                .map(|s| (word(s, 5), word(50 + s, 8)))
                .collect();
            let pairs: Vec<(&[u8], &[u8])> = words
                .iter()
                .map(|(a, b)| (a.as_slice(), b.as_slice()))
                .collect();
            let sim = edit_distance_mesh_batch(&pairs).unwrap();
            let direct = edit_direct_batch(&pairs).unwrap();
            assert_eq!(direct.distances, sim.distances, "bn {bn}");
            assert_eq!(direct.cycles, sim.cycles);
            assert_eq!(direct.stats, sim.stats);
        }
    }

    #[test]
    fn bit_parallel_is_exact_across_word_boundaries() {
        // Pattern lengths at and around the 64-row block width exercise
        // the inter-block carries and the last block's row mask; the
        // plain rolling-row DP is the oracle.
        for m in [1, 2, 63, 64, 65, 127, 128, 129, 200] {
            for n in [1, m, m + 1, 3 * m + 7] {
                let (a, b) = (word(m as u64, m), word(1000 + n as u64, n));
                let want = edit_distance_seq(&a, &b);
                assert_eq!(levenshtein_bits(&a, &b), want, "{m}x{n}");
                assert_eq!(levenshtein_bits(&b, &a), want, "{n}x{m}");
            }
        }
    }

    #[test]
    fn errors_match_sim() {
        assert_eq!(
            edit_direct_batch(&[]).err(),
            edit_distance_mesh_batch(&[]).err()
        );
        let pairs: Vec<(&[u8], &[u8])> = vec![(b"abc", b"de"), (b"ab", b"de")];
        assert_eq!(
            edit_direct_batch(&pairs).err(),
            edit_distance_mesh_batch(&pairs).err()
        );
    }
}
