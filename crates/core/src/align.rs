//! Local sequence alignment on the 2-D mesh — the edit mesh of
//! [`crate::edit_array`] generalized to the alignment engines real
//! workloads run: Smith–Waterman local alignment, Gotoh affine gaps,
//! and banded alignment for long sequences.
//!
//! All three keep the edit mesh's anti-diagonal wavefront (one step per
//! cycle, `|a| + |b| − 1` cycles total) but flip the algebra from
//! min-plus costs to the **max-with-zero** similarity semiring:
//!
//! ```text
//! H[i][j] = max( 0,
//!                H[i−1][j−1] + s(aᵢ, bⱼ),
//!                H[i−1][j] − gap,
//!                H[i][j−1] − gap )
//! ```
//!
//! The zero floor makes every cell the potential *start* of an
//! alignment, so the answer is no longer the apex value but the
//! **argmax cell**: each PE merges a running `(score, i, j)` best-seen
//! triple into both its east and south words, and because every cell is
//! an ancestor of the apex in the dependency DAG, the triple leaving the
//! apex on the last cycle is the global argmax (ties break toward the
//! smallest `(i, j)` in row-major order).
//!
//! *Gotoh affine gaps* interleave three DP layers per PE — `H` plus the
//! gap-extension layers `E` (gap in `a`, moving left) and `F` (gap in
//! `b`, moving up) — so a gap of length `L` costs
//! `gap_open + (L−1)·gap_extend`.
//!
//! *Banded alignment* restricts computation to cells with
//! `|i − j| ≤ band`.  Out-of-band PEs stay in the mesh as *relays*: they
//! forward the wavefront (keeping the schedule intact and piggybacking
//! the diagonal link for in-band cells on the far side) but emit the
//! `OUT_OF_BAND` sentinel as their value and never report busy.  A band
//! that covers the whole matrix is bit-identical to the full run.
//!
//! Traceback is the classical two-pass accelerator split: the mesh's
//! forward pass yields the score and its argmax endpoint; the host then
//! re-derives the table on the `(end_i+1) × (end_j+1)` prefix rectangle
//! and walks back to the zero cell (`O(end_i · end_j)` traceback
//! memory, preferring diagonal over up over left moves).

use crate::edit_array::{wavefront, Wavefront};
use sdp_fault::{FaultInjector, NoFaults, SdpError};
use sdp_systolic::Stats;
use sdp_trace::{NullSink, TraceSink};

/// Sentinel for "no value flows here" (out-of-band cells, undefined
/// affine layers on the boundary).  Far enough below zero that adding
/// any realistic score cannot wrap, so the `max(0, …)` floor silently
/// discards sentinel-derived terms — exactly the "skip this
/// dependency" semantics banded alignment needs.
const OUT_OF_BAND: i64 = i64::MIN / 4;

/// A running argmax triple `(score, i, j)`; [`NO_BEST`] means "no
/// positive-scoring cell seen yet".
type BestCell = (i64, u32, u32);

/// The empty argmax: score 0 at an impossible position, so any cell
/// with a positive score beats it and a score-0 run reports no endpoint.
const NO_BEST: BestCell = (0, u32::MAX, u32::MAX);

/// West → east word: `(H[i][j], best-seen)`.
type SwHoriz = (i64, BestCell);
/// North → south word: `(H[i][j], (H[i][j−1], best-seen))` — the inner
/// pair piggybacks the diagonal dependency exactly as the edit mesh.
type SwVert = (i64, (i64, BestCell));

/// Gotoh west → east word: `(H[i][j], (E[i][j], best-seen))`.
type GotohHoriz = (i64, (i64, BestCell));
/// Gotoh north → south word: `(H[i][j], (F[i][j], H[i][j−1], best))`.
type GotohVert = (i64, (i64, i64, BestCell));

/// Higher score wins; ties break toward the smaller `(i, j)`.
fn better(x: BestCell, y: BestCell) -> BestCell {
    if y.0 > x.0 || (y.0 == x.0 && (y.1, y.2) < (x.1, x.2)) {
        y
    } else {
        x
    }
}

/// Substitution scoring: what aligning `a[i]` against `b[j]` is worth.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Subst {
    /// Uniform match/mismatch scores over any byte alphabet.
    Simple {
        /// Score when the symbols are equal (usually positive).
        matched: i64,
        /// Score when they differ (usually negative).
        mismatched: i64,
    },
    /// A full `alphabet × alphabet` matrix over symbols `0..alphabet`,
    /// row-major: `scores[a * alphabet + b]`.
    Matrix {
        /// Alphabet size `k`; operands must hold symbols `< k`.
        alphabet: u8,
        /// `k·k` scores, row-major.
        scores: Vec<i64>,
    },
}

impl Subst {
    /// The score for aligning symbol `a` against symbol `b`.
    pub fn score(&self, a: u8, b: u8) -> i64 {
        match self {
            Subst::Simple {
                matched,
                mismatched,
            } => {
                if a == b {
                    *matched
                } else {
                    *mismatched
                }
            }
            Subst::Matrix { alphabet, scores } => {
                scores[a as usize * *alphabet as usize + b as usize]
            }
        }
    }

    /// Typed validation that every symbol of `operand` is scorable.
    fn validate(&self, operand: &[u8]) -> Result<(), SdpError> {
        if let Subst::Matrix { alphabet, .. } = self {
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
}

/// A complete scoring scheme: substitution scores plus gap penalties.
///
/// `gap` is the linear per-symbol gap penalty used by Smith–Waterman
/// and banded alignment; `gap_open`/`gap_extend` are the affine
/// penalties used by Gotoh (a gap of length `L` costs
/// `gap_open + (L−1)·gap_extend`).  All penalties are magnitudes
/// (subtracted from the score), conventionally non-negative.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Scoring {
    /// Substitution scores.
    pub subst: Subst,
    /// Linear gap penalty (per gapped symbol).
    pub gap: i64,
    /// Affine gap-open penalty (charged on the first gapped symbol).
    pub gap_open: i64,
    /// Affine gap-extend penalty (each further gapped symbol).
    pub gap_extend: i64,
}

impl Scoring {
    /// Uniform match/mismatch scoring with a linear gap; the affine
    /// penalties default to `open = extend = gap` so Gotoh under this
    /// scheme degenerates to the linear-gap model.
    pub fn simple(matched: i64, mismatched: i64, gap: i64) -> Scoring {
        Scoring {
            subst: Subst::Simple {
                matched,
                mismatched,
            },
            gap,
            gap_open: gap,
            gap_extend: gap,
        }
    }

    /// [`Scoring::simple`] with distinct affine penalties.
    pub fn affine(matched: i64, mismatched: i64, gap_open: i64, gap_extend: i64) -> Scoring {
        Scoring {
            subst: Subst::Simple {
                matched,
                mismatched,
            },
            gap: gap_open,
            gap_open,
            gap_extend,
        }
    }

    /// A weighted-alphabet scheme: full substitution matrix over
    /// symbols `0..alphabet` plus all three gap penalties.
    pub fn matrix(
        alphabet: u8,
        scores: Vec<i64>,
        gap: i64,
        gap_open: i64,
        gap_extend: i64,
    ) -> Scoring {
        assert_eq!(
            scores.len(),
            alphabet as usize * alphabet as usize,
            "substitution matrix must be alphabet x alphabet"
        );
        Scoring {
            subst: Subst::Matrix { alphabet, scores },
            gap,
            gap_open,
            gap_extend,
        }
    }
}

/// Result of one local-alignment mesh run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AlignRun {
    /// The optimal local alignment score (0 when nothing scores
    /// positively — the empty alignment).
    pub score: i64,
    /// The argmax cell `(i, j)` (0-based over `|a| × |b|`), or `None`
    /// when the score is 0.  Ties break toward the smallest `(i, j)`.
    pub end: Option<(usize, usize)>,
    /// Cycles taken (`|a| + |b| − 1`).
    pub cycles: u64,
    /// Engine statistics.
    pub stats: Stats,
}

/// Result of a batched local-alignment mesh run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BatchAlignRun {
    /// One score per input pair, in batch order.
    pub scores: Vec<i64>,
    /// One argmax endpoint per input pair.
    pub ends: Vec<Option<(usize, usize)>>,
    /// Total cycles: `p + q − 2 + B`.
    pub cycles: u64,
    /// Engine statistics over the whole batch.
    pub stats: Stats,
}

impl BatchAlignRun {
    /// Measured processor utilization over the batch, against the
    /// serial baseline of one cell computation per instance per cell.
    pub fn measured_pu(&self) -> f64 {
        self.stats
            .processor_utilization(self.scores.len() as u64 * self.stats.num_pes() as u64)
    }
}

/// One edit operation of a recovered alignment, consuming `a[i]`
/// and/or `b[j]` as it walks forward from `start` to `end`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AlignOp {
    /// `a[i]` aligned to `b[j]` with equal symbols.
    Match,
    /// `a[i]` aligned to `b[j]` with differing symbols.
    Sub,
    /// `a[i]` aligned to a gap (consumes `a` only).
    Del,
    /// A gap aligned to `b[j]` (consumes `b` only).
    Ins,
}

/// A recovered local alignment: the operation path from `start`
/// (inclusive, the first aligned pair) to `end` (the argmax cell).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LocalAlignment {
    /// The alignment score (equals the run's score).
    pub score: i64,
    /// First aligned cell `(i, j)`.
    pub start: (usize, usize),
    /// Last aligned cell `(i, j)` (the argmax endpoint).
    pub end: (usize, usize),
    /// Operations in forward order; the ops consume
    /// `a[start.0..=end.0]` and `b[start.1..=end.1]` exactly.
    pub ops: Vec<AlignOp>,
}

/// The Smith–Waterman cell (banded when `band` is `Some`): in-band
/// cells compute `H`, out-of-band cells relay the wavefront.
#[derive(Clone, Copy)]
struct SwCell<'s> {
    subst: &'s Subst,
    gap: i64,
    band: Option<usize>,
}

impl Wavefront for SwCell<'_> {
    type Horiz = SwHoriz;
    type Vert = SwVert;
    /// `s(a[i], b[j])`, or `None` for an out-of-band relay cell.
    type Preload = Option<i64>;
    type Out = BestCell;

    fn preload(&self, a: &[u8], b: &[u8], i: usize, j: usize) -> Option<i64> {
        in_band(i, j, self.band).then(|| self.subst.score(a[i], b[j]))
    }

    fn fire(
        &self,
        (i, j): (u32, u32),
        sub: Option<i64>,
        (left, best_w): SwHoriz,
        (up, (diag, best_n)): SwVert,
    ) -> (SwHoriz, SwVert, Option<i64>) {
        let mut best = better(best_w, best_n);
        let h = sub.map(|sub| {
            let h = 0i64
                .max(diag.saturating_add(sub))
                .max(up.saturating_sub(self.gap))
                .max(left.saturating_sub(self.gap));
            if h > 0 {
                best = better(best, (h, i, j));
            }
            h
        });
        // East carries H[i][j]; south piggybacks the received west
        // value as the diagonal for the cell below.
        let word = h.unwrap_or(OUT_OF_BAND);
        ((word, best), (word, (left, best)), h)
    }

    fn west_edge(&self, _: usize) -> SwHoriz {
        (0, NO_BEST)
    }

    fn north_edge(&self, _: usize) -> SwVert {
        (0, (0, NO_BEST))
    }

    /// Every cell is an ancestor of the apex, so its word carries the
    /// instance's global argmax.
    fn apex(&self, (_, best): SwHoriz) -> BestCell {
        best
    }

    fn empty(&self, _: usize, _: usize) -> BestCell {
        NO_BEST
    }

    fn validate(&self, a: &[u8], b: &[u8]) -> Result<(), SdpError> {
        self.subst.validate(a)?;
        self.subst.validate(b)
    }
}

/// The Gotoh cell: three interleaved DP layers (`H`, `E`, `F`).
#[derive(Clone, Copy)]
struct GotohCell<'s> {
    subst: &'s Subst,
    gap_open: i64,
    gap_extend: i64,
}

impl Wavefront for GotohCell<'_> {
    type Horiz = GotohHoriz;
    type Vert = GotohVert;
    /// `s(a[i], b[j])`.
    type Preload = i64;
    type Out = BestCell;

    fn preload(&self, a: &[u8], b: &[u8], i: usize, j: usize) -> i64 {
        self.subst.score(a[i], b[j])
    }

    fn fire(
        &self,
        (i, j): (u32, u32),
        sub: i64,
        (h_left, (e_left, best_w)): GotohHoriz,
        (h_up, (f_up, h_diag, best_n)): GotohVert,
    ) -> (GotohHoriz, GotohVert, Option<i64>) {
        let e = h_left
            .saturating_sub(self.gap_open)
            .max(e_left.saturating_sub(self.gap_extend));
        let f = h_up
            .saturating_sub(self.gap_open)
            .max(f_up.saturating_sub(self.gap_extend));
        let h = 0i64.max(h_diag.saturating_add(sub)).max(e).max(f);
        let mut best = better(best_w, best_n);
        if h > 0 {
            best = better(best, (h, i, j));
        }
        ((h, (e, best)), (h, (f, h_left, best)), Some(h))
    }

    fn west_edge(&self, _: usize) -> GotohHoriz {
        (0, (OUT_OF_BAND, NO_BEST))
    }

    fn north_edge(&self, _: usize) -> GotohVert {
        (0, (OUT_OF_BAND, 0, NO_BEST))
    }

    fn apex(&self, (_, (_, best)): GotohHoriz) -> BestCell {
        best
    }

    fn empty(&self, _: usize, _: usize) -> BestCell {
        NO_BEST
    }

    fn validate(&self, a: &[u8], b: &[u8]) -> Result<(), SdpError> {
        self.subst.validate(a)?;
        self.subst.validate(b)
    }
}

fn in_band(i: usize, j: usize, band: Option<usize>) -> bool {
    match band {
        None => true,
        Some(w) => (i as i64 - j as i64).unsigned_abs() <= w as u64,
    }
}

/// Runs `cell` over `pairs` on the wavefront driver and packs the apex's
/// per-instance argmax words into a batch result.
fn align_batch<W: Wavefront<Out = BestCell>, F: FaultInjector, S: TraceSink>(
    cell: W,
    pairs: &[(&[u8], &[u8])],
    injector: &mut F,
    sink: &mut S,
) -> Result<BatchAlignRun, SdpError> {
    let (bests, stats) = wavefront(cell, pairs, injector, sink)?;
    Ok(BatchAlignRun {
        scores: bests.iter().map(|b| b.0).collect(),
        ends: bests
            .iter()
            .map(|&b| (b != NO_BEST).then_some((b.1 as usize, b.2 as usize)))
            .collect(),
        cycles: stats.cycles(),
        stats,
    })
}

/// [`align_batch`] on the one pair `(a, b)`: the single-run result.
fn align_one<W: Wavefront<Out = BestCell>, F: FaultInjector, S: TraceSink>(
    cell: W,
    a: &[u8],
    b: &[u8],
    injector: &mut F,
    sink: &mut S,
) -> Result<AlignRun, SdpError> {
    let run = align_batch(cell, &[(a, b)], injector, sink)?;
    Ok(AlignRun {
        score: run.scores[0],
        end: run.ends[0],
        cycles: run.cycles,
        stats: run.stats,
    })
}

fn sw_cell(scoring: &Scoring, band: Option<usize>) -> SwCell<'_> {
    SwCell {
        subst: &scoring.subst,
        gap: scoring.gap,
        band,
    }
}

fn gotoh_cell(scoring: &Scoring) -> GotohCell<'_> {
    GotohCell {
        subst: &scoring.subst,
        gap_open: scoring.gap_open,
        gap_extend: scoring.gap_extend,
    }
}

/// Smith–Waterman local alignment on the wavefront mesh: the batch of
/// one.  PE indices in `sink`'s events are row-major over the
/// `|a| × |b|` mesh.
///
/// Empty operands short-circuit to the empty alignment (score 0, no
/// endpoint, zero PEs).  Both word types carry `H[i][j]` in the leading
/// position, so `injector`'s faults perturb the cell value while the
/// argmax bookkeeping and the wavefront timing stay intact — silent
/// data corruption, never a wedged pipeline.
pub fn try_sw_mesh<F: FaultInjector, S: TraceSink>(
    a: &[u8],
    b: &[u8],
    scoring: &Scoring,
    injector: &mut F,
    sink: &mut S,
) -> Result<AlignRun, SdpError> {
    align_one(sw_cell(scoring, None), a, b, injector, sink)
}

/// Streams a batch of same-shaped pairs through one mesh, wavefronts
/// one cycle apart (`p + q − 2 + B` cycles total).
pub fn sw_mesh_batch(
    pairs: &[(&[u8], &[u8])],
    scoring: &Scoring,
) -> Result<BatchAlignRun, SdpError> {
    sw_mesh_batch_traced(pairs, scoring, &mut NullSink)
}

/// [`sw_mesh_batch`] with an event sink.
pub fn sw_mesh_batch_traced<S: TraceSink>(
    pairs: &[(&[u8], &[u8])],
    scoring: &Scoring,
    sink: &mut S,
) -> Result<BatchAlignRun, SdpError> {
    align_batch(sw_cell(scoring, None), pairs, &mut NoFaults, sink)
}

/// Banded Smith–Waterman: only cells with `|i − j| ≤ band` compute;
/// the rest of the mesh relays the wavefront.  `band ≥ max(|a|, |b|)`
/// is bit-identical to [`try_sw_mesh`].
pub fn try_sw_banded_mesh<F: FaultInjector, S: TraceSink>(
    a: &[u8],
    b: &[u8],
    band: usize,
    scoring: &Scoring,
    injector: &mut F,
    sink: &mut S,
) -> Result<AlignRun, SdpError> {
    align_one(sw_cell(scoring, Some(band)), a, b, injector, sink)
}

/// Batched banded Smith–Waterman (one band for the whole batch).
pub fn sw_banded_mesh_batch(
    pairs: &[(&[u8], &[u8])],
    band: usize,
    scoring: &Scoring,
) -> Result<BatchAlignRun, SdpError> {
    sw_banded_mesh_batch_traced(pairs, band, scoring, &mut NullSink)
}

/// [`sw_banded_mesh_batch`] with an event sink.
pub fn sw_banded_mesh_batch_traced<S: TraceSink>(
    pairs: &[(&[u8], &[u8])],
    band: usize,
    scoring: &Scoring,
    sink: &mut S,
) -> Result<BatchAlignRun, SdpError> {
    align_batch(sw_cell(scoring, Some(band)), pairs, &mut NoFaults, sink)
}

/// Gotoh affine-gap local alignment on the wavefront mesh: three DP
/// layers (`H`, `E`, `F`) interleaved in every PE, same
/// `|a| + |b| − 1`-cycle schedule as [`try_sw_mesh`].  `injector`'s
/// faults perturb `H` and keep the `E`/`F` layers and argmax
/// bookkeeping intact.
pub fn try_gotoh_mesh<F: FaultInjector, S: TraceSink>(
    a: &[u8],
    b: &[u8],
    scoring: &Scoring,
    injector: &mut F,
    sink: &mut S,
) -> Result<AlignRun, SdpError> {
    align_one(gotoh_cell(scoring), a, b, injector, sink)
}

/// Streams a batch of same-shaped pairs through one Gotoh mesh.
pub fn gotoh_mesh_batch(
    pairs: &[(&[u8], &[u8])],
    scoring: &Scoring,
) -> Result<BatchAlignRun, SdpError> {
    gotoh_mesh_batch_traced(pairs, scoring, &mut NullSink)
}

/// [`gotoh_mesh_batch`] with an event sink.
pub fn gotoh_mesh_batch_traced<S: TraceSink>(
    pairs: &[(&[u8], &[u8])],
    scoring: &Scoring,
    sink: &mut S,
) -> Result<BatchAlignRun, SdpError> {
    align_batch(gotoh_cell(scoring), pairs, &mut NoFaults, sink)
}

/// Recomputes the linear-gap `H` table on the `(ei+1) × (ej+1)` prefix
/// rectangle (host-side traceback memory).
fn sw_prefix_table(
    a: &[u8],
    b: &[u8],
    band: Option<usize>,
    scoring: &Scoring,
    ei: usize,
    ej: usize,
) -> Vec<Vec<i64>> {
    let mut h = vec![vec![0i64; ej + 2]; ei + 2];
    for i in 0..=ei {
        for j in 0..=ej {
            if !in_band(i, j, band) {
                h[i + 1][j + 1] = OUT_OF_BAND;
                continue;
            }
            h[i + 1][j + 1] = 0i64
                .max(h[i][j].saturating_add(scoring.subst.score(a[i], b[j])))
                .max(h[i][j + 1].saturating_sub(scoring.gap))
                .max(h[i + 1][j].saturating_sub(scoring.gap));
        }
    }
    h
}

/// Recovers the optimal local alignment behind a (possibly banded)
/// Smith–Waterman run: the classical two-pass split where the mesh's
/// forward pass supplies `score`/`end` and the host re-derives the
/// prefix table and walks back (diagonal preferred over up over left)
/// until it reaches a zero cell.  Returns `None` for score-0 runs.
pub fn recover_local_alignment(
    a: &[u8],
    b: &[u8],
    band: Option<usize>,
    scoring: &Scoring,
    run: &AlignRun,
) -> Option<LocalAlignment> {
    let (ei, ej) = run.end?;
    let h = sw_prefix_table(a, b, band, scoring, ei, ej);
    debug_assert_eq!(h[ei + 1][ej + 1], run.score, "forward pass disagrees");
    let (mut i, mut j) = (ei + 1, ej + 1);
    let mut ops = Vec::new();
    while h[i][j] > 0 {
        let sub = scoring.subst.score(a[i - 1], b[j - 1]);
        if i > 0 && j > 0 && h[i][j] == h[i - 1][j - 1].saturating_add(sub) {
            ops.push(if a[i - 1] == b[j - 1] {
                AlignOp::Match
            } else {
                AlignOp::Sub
            });
            i -= 1;
            j -= 1;
        } else if i > 0 && h[i][j] == h[i - 1][j].saturating_sub(scoring.gap) {
            ops.push(AlignOp::Del);
            i -= 1;
        } else {
            debug_assert_eq!(h[i][j], h[i][j - 1].saturating_sub(scoring.gap));
            ops.push(AlignOp::Ins);
            j -= 1;
        }
    }
    ops.reverse();
    Some(LocalAlignment {
        score: run.score,
        start: (i, j),
        end: (ei, ej),
        ops,
    })
}

/// [`try_sw_mesh`] plus traceback: runs the forward pass on the mesh,
/// then recovers the alignment host-side.  Panics on an operand the
/// scoring alphabet rejects.
pub fn sw_mesh_aligned(
    a: &[u8],
    b: &[u8],
    scoring: &Scoring,
) -> (AlignRun, Option<LocalAlignment>) {
    let run =
        try_sw_mesh(a, b, scoring, &mut NoFaults, &mut NullSink).unwrap_or_else(|e| panic!("{e}"));
    let alignment = recover_local_alignment(a, b, None, scoring, &run);
    (run, alignment)
}

/// [`try_sw_banded_mesh`] plus traceback (the walk respects the band).
pub fn sw_banded_mesh_aligned(
    a: &[u8],
    b: &[u8],
    band: usize,
    scoring: &Scoring,
) -> (AlignRun, Option<LocalAlignment>) {
    let run = try_sw_banded_mesh(a, b, band, scoring, &mut NoFaults, &mut NullSink)
        .unwrap_or_else(|e| panic!("{e}"));
    let alignment = recover_local_alignment(a, b, Some(band), scoring, &run);
    (run, alignment)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scheme() -> Scoring {
        Scoring::simple(2, -1, 1)
    }

    #[test]
    fn known_scores() {
        // The classic SW example pair; the mesh must agree with the
        // scalar recurrence cell for cell.
        let run = try_sw_mesh(
            b"acacacta",
            b"agcacaca",
            &scheme(),
            &mut NoFaults,
            &mut NullSink,
        )
        .unwrap();
        assert_eq!(run.score, sw_seq(b"acacacta", b"agcacaca", &scheme()));
        assert!(run.score > 0);
        assert_eq!(run.cycles, 8 + 8 - 1);
        // Identical strings: every symbol matches.
        assert_eq!(
            try_sw_mesh(b"abc", b"abc", &scheme(), &mut NoFaults, &mut NullSink)
                .unwrap()
                .score,
            6
        );
        // Nothing in common: the empty alignment.
        let run = try_sw_mesh(
            b"aaa",
            b"bbb",
            &Scoring::simple(1, -2, 2),
            &mut NoFaults,
            &mut NullSink,
        )
        .unwrap();
        assert_eq!(run.score, 0);
        assert_eq!(run.end, None);
    }

    #[test]
    fn empty_operands_are_empty_alignments() {
        for (a, b) in [(&b""[..], &b"abc"[..]), (b"ab", b""), (b"", b"")] {
            let run = try_sw_mesh(a, b, &scheme(), &mut NoFaults, &mut NullSink).unwrap();
            assert_eq!(run.score, 0);
            assert_eq!(run.end, None);
            assert_eq!(run.cycles, 0);
            assert_eq!(run.stats.num_pes(), 0);
        }
    }

    #[test]
    fn argmax_is_first_maximum_in_row_major_order() {
        // Two disjoint equal-scoring matches: "ab" appears twice in b.
        let run = try_sw_mesh(b"ab", b"abxab", &scheme(), &mut NoFaults, &mut NullSink).unwrap();
        assert_eq!(run.score, 4);
        assert_eq!(run.end, Some((1, 1)));
    }

    #[test]
    fn traced_matches_untraced() {
        use sdp_trace::CountingSink;
        let plain = try_sw_mesh(
            b"acacacta",
            b"agcacaca",
            &scheme(),
            &mut NoFaults,
            &mut NullSink,
        )
        .unwrap();
        let mut sink = CountingSink::default();
        let traced = try_sw_mesh(
            b"acacacta",
            b"agcacaca",
            &scheme(),
            &mut NoFaults,
            &mut sink,
        )
        .unwrap();
        assert_eq!(traced, plain);
        assert_eq!(sink.cycles, plain.cycles);
    }

    #[test]
    fn sw_matches_reference_on_random_strings() {
        let mut state = 99u64;
        let mut next = move |n: usize| -> Vec<u8> {
            (0..n)
                .map(|_| {
                    state = state
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    b'a' + ((state >> 33) % 3) as u8
                })
                .collect()
        };
        for case in 0..25 {
            let a = next(1 + case % 8);
            let b = next(1 + (case * 5) % 9);
            let run = try_sw_mesh(&a, &b, &scheme(), &mut NoFaults, &mut NullSink).unwrap();
            assert_eq!(run.score, sw_seq(&a, &b, &scheme()), "a={a:?} b={b:?}");
        }
    }

    /// Scalar SW used only by this test module.
    fn sw_seq(a: &[u8], b: &[u8], sc: &Scoring) -> i64 {
        let mut h = vec![vec![0i64; b.len() + 1]; a.len() + 1];
        let mut best = 0;
        for i in 1..=a.len() {
            for j in 1..=b.len() {
                h[i][j] = 0i64
                    .max(h[i - 1][j - 1] + sc.subst.score(a[i - 1], b[j - 1]))
                    .max(h[i - 1][j] - sc.gap)
                    .max(h[i][j - 1] - sc.gap);
                best = best.max(h[i][j]);
            }
        }
        best
    }

    #[test]
    fn banded_with_covering_band_is_bit_identical_to_full() {
        let (a, b) = (&b"acacacta"[..], &b"agcacaca"[..]);
        let full = try_sw_mesh(a, b, &scheme(), &mut NoFaults, &mut NullSink).unwrap();
        let banded = try_sw_banded_mesh(
            a,
            b,
            a.len().max(b.len()),
            &scheme(),
            &mut NoFaults,
            &mut NullSink,
        )
        .unwrap();
        assert_eq!(banded, full);
    }

    #[test]
    fn narrow_band_restricts_the_alignment() {
        // With band 0 only the main diagonal computes: the one
        // mismatch costs -1 on the way through (2+2-1+2 = 5), while
        // the full mesh could do no better here.
        let run = try_sw_banded_mesh(b"abcd", b"abzd", 0, &scheme(), &mut NoFaults, &mut NullSink)
            .unwrap();
        assert_eq!(run.score, 5);
        assert_eq!(run.cycles, 4 + 4 - 1); // relays keep the schedule
    }

    #[test]
    fn out_of_band_cells_never_report_busy() {
        let a = vec![b'a'; 5];
        let b = vec![b'a'; 5];
        let run = try_sw_banded_mesh(&a, &b, 1, &scheme(), &mut NoFaults, &mut NullSink).unwrap();
        let mut active = 0;
        for i in 0..5usize {
            for j in 0..5usize {
                let busy = run.stats.busy(i * 5 + j);
                if (i as i64 - j as i64).abs() <= 1 {
                    assert_eq!(busy, 1, "in-band cell ({i},{j})");
                    active += 1;
                } else {
                    assert_eq!(busy, 0, "relay cell ({i},{j})");
                }
            }
        }
        assert_eq!(active, 13);
    }

    #[test]
    fn gotoh_with_linear_penalties_matches_sw() {
        // open == extend collapses the affine model to the linear one.
        let sc = scheme();
        for (a, b) in [
            (&b"acacacta"[..], &b"agcacaca"[..]),
            (b"kitten", b"sitting"),
            (b"aaaa", b"bbb"),
        ] {
            let sw = try_sw_mesh(a, b, &sc, &mut NoFaults, &mut NullSink).unwrap();
            let gotoh = try_gotoh_mesh(a, b, &sc, &mut NoFaults, &mut NullSink).unwrap();
            assert_eq!(gotoh.score, sw.score);
            assert_eq!(gotoh.end, sw.end);
        }
    }

    #[test]
    fn gotoh_prefers_one_long_gap_under_affine_scoring() {
        // Bridging "xxx" as one affine gap costs open + 2*extend = 7
        // and buys 8 matches (16): score 9 beats the best gapless run
        // of 4 matches (8).
        let sc = Scoring::affine(2, -3, 5, 1);
        let run = try_gotoh_mesh(
            b"ccccxxxdddd",
            b"ccccdddd",
            &sc,
            &mut NoFaults,
            &mut NullSink,
        )
        .unwrap();
        assert_eq!(run.score, 16 - 7);
    }

    #[test]
    fn fault_injection_corrupts_score_not_schedule() {
        use sdp_fault::{Fault, FaultPlan, PlanInjector};
        use sdp_trace::CountingSink;
        let clean = try_sw_mesh(
            b"acacacta",
            b"agcacaca",
            &scheme(),
            &mut NoFaults,
            &mut NullSink,
        )
        .unwrap();
        let plan = FaultPlan::new().with(Fault::StuckAt {
            pe: 0,
            cycle: 0,
            value: 60,
        });
        let mut inj = PlanInjector::new(plan);
        let mut sink = CountingSink::default();
        let faulty = try_sw_mesh(b"acacacta", b"agcacaca", &scheme(), &mut inj, &mut sink).unwrap();
        assert_ne!(faulty.score, clean.score);
        assert_eq!(faulty.cycles, clean.cycles);
        assert!(sink.faults_injected > 0);
    }

    #[test]
    fn batch_matches_single_runs() {
        let pairs: Vec<(Vec<u8>, Vec<u8>)> = (0..6u8)
            .map(|t| {
                (
                    (0..5).map(|i| b'a' + (t + i) % 3).collect(),
                    (0..7).map(|j| b'a' + (t * 2 + j) % 3).collect(),
                )
            })
            .collect();
        let refs: Vec<(&[u8], &[u8])> = pairs
            .iter()
            .map(|(a, b)| (a.as_slice(), b.as_slice()))
            .collect();
        let sc = scheme();
        let batch = sw_mesh_batch(&refs, &sc).unwrap();
        let gbatch = gotoh_mesh_batch(&refs, &sc).unwrap();
        for (t, (a, b)) in pairs.iter().enumerate() {
            let single = try_sw_mesh(a, b, &sc, &mut NoFaults, &mut NullSink).unwrap();
            assert_eq!(batch.scores[t], single.score, "t={t}");
            assert_eq!(batch.ends[t], single.end, "t={t}");
            let gsingle = try_gotoh_mesh(a, b, &sc, &mut NoFaults, &mut NullSink).unwrap();
            assert_eq!(gbatch.scores[t], gsingle.score, "t={t}");
        }
        assert_eq!(batch.cycles, (5 + 7 - 2 + 6) as u64);
        assert!(batch.measured_pu() > sw_mesh_batch(&refs[..1], &sc).unwrap().measured_pu());
    }

    #[test]
    fn batch_shape_errors() {
        let sc = scheme();
        assert!(matches!(sw_mesh_batch(&[], &sc), Err(SdpError::EmptyBatch)));
        assert!(matches!(
            sw_mesh_batch(&[(b"abc", b"xy"), (b"ab", b"xy")], &sc),
            Err(SdpError::BatchShapeMismatch { index: 1 })
        ));
        let run = sw_mesh_batch(&[(b"", b"abc"), (b"", b"xyz")], &sc).unwrap();
        assert_eq!(run.scores, vec![0, 0]);
        assert_eq!(run.stats.num_pes(), 0);
    }

    #[test]
    fn matrix_scoring_validates_symbols() {
        let sc = Scoring::matrix(2, vec![3, -1, -1, 3], 1, 1, 1);
        let run = try_sw_mesh(&[0, 1, 0], &[0, 1, 0], &sc, &mut NoFaults, &mut NullSink).unwrap();
        assert_eq!(run.score, 9);
        assert!(matches!(
            try_sw_mesh(&[0, 2, 0], &[0, 1], &sc, &mut NoFaults, &mut NullSink),
            Err(SdpError::SymbolOutOfRange {
                index: 1,
                symbol: 2,
                alphabet: 2
            })
        ));
    }

    #[test]
    fn traceback_recovers_a_consistent_path() {
        let sc = scheme();
        let (run, alignment) = sw_mesh_aligned(b"cacacta", b"agcacaca", &sc);
        let alignment = alignment.expect("positive score");
        assert_eq!(alignment.score, run.score);
        assert_eq!(run.end, Some(alignment.end));
        // Replay the ops: they must consume the claimed spans and
        // re-derive the score.
        let (mut i, mut j) = alignment.start;
        let mut score = 0i64;
        for op in &alignment.ops {
            match op {
                AlignOp::Match | AlignOp::Sub => {
                    score += sc.subst.score(b"cacacta"[i], b"agcacaca"[j]);
                    i += 1;
                    j += 1;
                }
                AlignOp::Del => {
                    score -= sc.gap;
                    i += 1;
                }
                AlignOp::Ins => {
                    score -= sc.gap;
                    j += 1;
                }
            }
        }
        assert_eq!((i, j), (alignment.end.0 + 1, alignment.end.1 + 1));
        assert_eq!(score, run.score);
    }

    #[test]
    fn traceback_on_score_zero_is_none() {
        let (run, alignment) = sw_mesh_aligned(b"aaa", b"bbb", &Scoring::simple(1, -2, 2));
        assert_eq!(run.score, 0);
        assert!(alignment.is_none());
    }

    #[test]
    fn banded_traceback_stays_in_band() {
        let (run, alignment) = sw_banded_mesh_aligned(b"acgtacgt", b"acgtacgt", 1, &scheme());
        let alignment = alignment.expect("positive score");
        assert_eq!(alignment.score, run.score);
        let (mut i, mut j) = alignment.start;
        for op in &alignment.ops {
            assert!((i as i64 - j as i64).abs() <= 1, "cell ({i},{j}) in band");
            match op {
                AlignOp::Match | AlignOp::Sub => {
                    i += 1;
                    j += 1;
                }
                AlignOp::Del => i += 1,
                AlignOp::Ins => j += 1,
            }
        }
    }

    #[test]
    fn batch_of_one_emits_single_run_event_stream() {
        use sdp_trace::RecordingSink;
        let sc = scheme();
        let mut single_sink = RecordingSink::default();
        let single =
            try_sw_mesh(b"kitten", b"sitting", &sc, &mut NoFaults, &mut single_sink).unwrap();
        let mut batch_sink = RecordingSink::default();
        let batch = sw_mesh_batch_traced(&[(b"kitten", b"sitting")], &sc, &mut batch_sink).unwrap();
        assert_eq!(batch.scores, vec![single.score]);
        assert_eq!(batch.cycles, single.cycles);
        assert_eq!(batch_sink.events, single_sink.events);
    }
}
