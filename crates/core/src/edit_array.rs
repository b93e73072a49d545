//! Wavefront sequence comparison on the 2-D mesh — the
//! pattern-recognition DP of the paper's reference \[23\] (Ney, "Dynamic
//! Programming as a Technique for Pattern Recognition").
//!
//! Levenshtein / time-warping recurrences
//!
//! ```text
//! D[i][j] = min( D[i−1][j] + 1, D[i][j−1] + 1, D[i−1][j−1] + sub(aᵢ, bⱼ) )
//! ```
//!
//! map onto a `|a| × |b|` mesh with one cell per `(i, j)`: the anti-
//! diagonal wavefront advances one step per cycle, so the whole table
//! completes in `|a| + |b| − 1` cycles.  The missing diagonal link is
//! realized by piggybacking: the word a cell sends **south** carries both
//! its own value (the neighbour's "north") and the value it received from
//! the **west** (the neighbour's "north-west").
//!
//! Independent instances pipeline through the same mesh one cycle
//! apart, so a single run is simply a batch of one.  `wavefront` is the
//! one driver for every anti-diagonal mesh in the crate: it builds the
//! mesh, injects the boundary words on each instance's wavefront, runs
//! the `p + q − 2 + B` schedule and collects one apex word per instance.
//! An engine supplies only its cell recurrence (a `Wavefront` impl) —
//! this module's edit cell, and Smith–Waterman (optionally banded) and
//! Gotoh in [`crate::align`].

use sdp_fault::{FaultInjector, FaultyWord, NoFaults, SdpError};
use sdp_systolic::{Mesh2D, MeshProcessingElement, Stats};
use sdp_trace::{NullSink, TraceSink};

/// The cell recurrence of an anti-diagonal wavefront mesh: everything
/// that differs between the edit, Smith–Waterman and Gotoh engines.
pub(crate) trait Wavefront: Copy {
    /// West → east word.
    type Horiz: FaultyWord;
    /// North → south word.
    type Vert: FaultyWord;
    /// What cell `(i, j)` holds for one instance (weight-stationary).
    type Preload: Copy;
    /// One instance's result, read off the apex's east word.
    type Out;

    /// Cell `(i, j)`'s preload for the operand pair `(a, b)`.
    fn preload(&self, a: &[u8], b: &[u8], i: usize, j: usize) -> Self::Preload;

    /// Cell `(i, j)` fires one instance: its east and south words, and
    /// its value when it computes (`None` for a relay cell that only
    /// forwards the wavefront; relays never report busy).
    fn fire(
        &self,
        at: (u32, u32),
        preload: Self::Preload,
        west: Self::Horiz,
        north: Self::Vert,
    ) -> (Self::Horiz, Self::Vert, Option<i64>);

    /// Boundary word entering row `r` from the west.
    fn west_edge(&self, r: usize) -> Self::Horiz;

    /// Boundary word entering column `c` from the north.
    fn north_edge(&self, c: usize) -> Self::Vert;

    /// The instance result carried by the apex's east word.
    fn apex(&self, east: Self::Horiz) -> Self::Out;

    /// The result when an operand is empty and no mesh is built.
    fn empty(&self, p: usize, q: usize) -> Self::Out;

    /// Typed validation of one operand pair (default: every pair runs).
    fn validate(&self, _a: &[u8], _b: &[u8]) -> Result<(), SdpError> {
        Ok(())
    }
}

/// One table cell: per-instance preloads, and each wavefront that
/// crosses the cell computes the next instance.  Instance `t`'s
/// wavefront reaches cell `(i, j)` at cycle `i + j + t`.
struct WavePe<W: Wavefront> {
    cell: W,
    at: (u32, u32),
    /// `preloads[t]` = instance `t`'s preload for this cell.
    preloads: Vec<W::Preload>,
    /// Instances computed so far (= the next instance index to fire).
    fired: usize,
    /// Most recent computed value (waveform probe).
    last: Option<i64>,
    busy: bool,
}

impl<W: Wavefront> MeshProcessingElement for WavePe<W> {
    type Horiz = W::Horiz;
    type Vert = W::Vert;
    type Ctrl = ();

    fn step(
        &mut self,
        west: Option<W::Horiz>,
        north: Option<W::Vert>,
        _: (),
    ) -> (Option<W::Horiz>, Option<W::Vert>) {
        self.busy = false;
        if let (Some(&preload), Some(west), Some(north)) =
            (self.preloads.get(self.fired), west, north)
        {
            let (east, south, value) = self.cell.fire(self.at, preload, west, north);
            self.fired += 1;
            self.last = value;
            self.busy = value.is_some();
            return (Some(east), Some(south));
        }
        (None, None)
    }

    fn was_busy(&self) -> bool {
        self.busy
    }

    fn probe(&self) -> Option<i64> {
        self.last
    }
}

/// Streams a batch of same-shaped operand pairs through one `p × q`
/// mesh with wavefronts one cycle apart, in `p + q − 2 + B` cycles; a
/// single run is the batch of one (`p + q − 1` cycles).  Returns one
/// result per instance, in batch order, plus the engine statistics.
/// PE indices in `sink`'s events are row-major over the mesh.
///
/// An empty batch and pairs shaped unlike instance 0 are typed errors;
/// empty operands short-circuit to [`Wavefront::empty`] with zero PEs.
/// `injector`'s faults rewrite payloads but never drop a mesh word, so
/// a faulty run keeps the schedule and the apex fires once per
/// instance.
pub(crate) fn wavefront<W: Wavefront, F: FaultInjector, S: TraceSink>(
    cell: W,
    pairs: &[(&[u8], &[u8])],
    injector: &mut F,
    sink: &mut S,
) -> Result<(Vec<W::Out>, Stats), SdpError> {
    if pairs.is_empty() {
        return Err(SdpError::EmptyBatch);
    }
    let (p, q) = (pairs[0].0.len(), pairs[0].1.len());
    for (index, (a, b)) in pairs.iter().enumerate() {
        if (a.len(), b.len()) != (p, q) {
            return Err(SdpError::BatchShapeMismatch { index });
        }
        cell.validate(a, b)?;
    }
    let bn = pairs.len();
    if p == 0 || q == 0 {
        return Ok(((0..bn).map(|_| cell.empty(p, q)).collect(), Stats::new(0)));
    }
    let mut mesh = Mesh2D::try_new(
        p,
        q,
        (0..p)
            .flat_map(|i| (0..q).map(move |j| (i, j)))
            .map(|(i, j)| WavePe {
                cell,
                at: (i as u32, j as u32),
                preloads: pairs
                    .iter()
                    .map(|(a, b)| cell.preload(a, b, i, j))
                    .collect(),
                fired: 0,
                last: None,
                busy: false,
            })
            .collect::<Vec<_>>(),
    )?;
    let mut out = Vec::with_capacity(bn);
    for t in 0..p + q - 2 + bn {
        // Cell (k, 0) fires instance `inst` at cycle k + inst, so row
        // (or column) k takes a boundary word while t − k is a live
        // instance.
        let on_wavefront = |k: usize| (k..k + bn).contains(&t);
        let (east, _south) = mesh.cycle(
            |r| on_wavefront(r).then(|| cell.west_edge(r)),
            |c| on_wavefront(c).then(|| cell.north_edge(c)),
            |_, _| (),
            injector,
            sink,
        );
        // The apex fires once per instance, in batch order, and its word
        // leaves the east edge of the last row the same cycle.
        if let Some(word) = east[p - 1] {
            out.push(cell.apex(word));
        }
    }
    debug_assert_eq!(out.len(), bn);
    Ok((out, mesh.stats().clone()))
}

/// The Levenshtein cell: `D[i][j]` from the west, north and piggybacked
/// north-west values.
#[derive(Clone, Copy)]
struct EditCell;

impl Wavefront for EditCell {
    /// `D[i][j]` (the neighbour's "left").
    type Horiz = u64;
    /// `(D[i][j], D[i][j−1])` — value plus west input.
    type Vert = (u64, u64);
    /// The substitution cost `sub(aᵢ, bⱼ)`.
    type Preload = u64;
    type Out = u64;

    fn preload(&self, a: &[u8], b: &[u8], i: usize, j: usize) -> u64 {
        u64::from(a[i] != b[j])
    }

    fn fire(
        &self,
        _: (u32, u32),
        sub: u64,
        left: u64,
        (up, diag): (u64, u64),
    ) -> (u64, (u64, u64), Option<i64>) {
        let d = (left + 1).min(up + 1).min(diag + sub);
        (d, (d, left), Some(d as i64))
    }

    /// `D[r][−1] = r + 1`.
    fn west_edge(&self, r: usize) -> u64 {
        r as u64 + 1
    }

    /// `(D[−1][c], D[−1][c−1]) = (c + 1, c)`.
    fn north_edge(&self, c: usize) -> (u64, u64) {
        (c as u64 + 1, c as u64)
    }

    fn apex(&self, d: u64) -> u64 {
        d
    }

    fn empty(&self, p: usize, q: usize) -> u64 {
        (p + q) as u64
    }
}

/// Result of one mesh run.
#[derive(Clone, Debug)]
pub struct EditRun {
    /// The edit distance `D[|a|−1][|b|−1]`.
    pub distance: u64,
    /// Cycles taken (`|a| + |b| − 1`).
    pub cycles: u64,
    /// Engine statistics.
    pub stats: Stats,
}

/// Computes Levenshtein distance on the wavefront mesh: the batch of
/// one.  PE indices in `sink`'s events are row-major over the
/// `|a| × |b|` mesh.
///
/// Empty operands short-circuit to the other operand's length with
/// zero PEs (a 0-sized mesh cannot be built).  Both mesh word types
/// (`u64` east, `(u64, u64)` south) carry the cell value in the leading
/// position, so `injector`'s faults perturb `D[i][j]` while the
/// piggybacked west value and the wavefront timing stay intact: a
/// faulty run finishes in the same `|a| + |b| − 1` cycles with a
/// (possibly) wrong distance — exactly the silent-data-corruption model
/// the recovery wrappers detect.
pub fn try_edit_distance_mesh<F: FaultInjector, S: TraceSink>(
    a: &[u8],
    b: &[u8],
    injector: &mut F,
    sink: &mut S,
) -> Result<EditRun, SdpError> {
    let (distances, stats) = wavefront(EditCell, &[(a, b)], injector, sink)?;
    Ok(EditRun {
        distance: distances[0],
        cycles: stats.cycles(),
        stats,
    })
}

/// Result of a batched mesh run.
#[derive(Clone, Debug)]
pub struct BatchEditRun {
    /// One distance per input pair, in batch order.
    pub distances: Vec<u64>,
    /// Total cycles: `p + q − 2 + B` (vs `B·(p + q − 1)` sequential).
    pub cycles: u64,
    /// Engine statistics over the whole batch.
    pub stats: Stats,
}

impl BatchEditRun {
    /// Measured processor utilization: `B·p·q` cell computations over
    /// `cycles × p·q` PE-cycles.  Single runs peak at `1/(p + q − 1)`;
    /// batching asymptotically saturates the mesh.
    pub fn measured_pu(&self) -> f64 {
        self.stats
            .processor_utilization(self.distances.len() as u64 * self.stats.num_pes() as u64)
    }
}

/// Streams a batch of same-shaped comparisons through one mesh with
/// wavefronts one cycle apart (instance `t`'s wavefront is `t` cycles
/// behind instance 0's).  All pairs must share instance 0's operand
/// lengths; an empty batch and shape mismatches are typed errors.
pub fn edit_distance_mesh_batch(pairs: &[(&[u8], &[u8])]) -> Result<BatchEditRun, SdpError> {
    edit_distance_mesh_batch_traced(pairs, &mut NullSink)
}

/// [`edit_distance_mesh_batch`] with an event sink.  A batch of one
/// emits exactly the event stream of [`try_edit_distance_mesh`].
pub fn edit_distance_mesh_batch_traced<S: TraceSink>(
    pairs: &[(&[u8], &[u8])],
    sink: &mut S,
) -> Result<BatchEditRun, SdpError> {
    let (distances, stats) = wavefront(EditCell, pairs, &mut NoFaults, sink)?;
    Ok(BatchEditRun {
        distances,
        cycles: stats.cycles(),
        stats,
    })
}

/// Reference sequential edit distance (full-table DP oracle).
pub fn edit_distance_seq(a: &[u8], b: &[u8]) -> u64 {
    let (p, q) = (a.len(), b.len());
    let mut prev: Vec<u64> = (0..=q as u64).collect();
    let mut cur = vec![0u64; q + 1];
    for i in 1..=p {
        cur[0] = i as u64;
        for j in 1..=q {
            let sub = if a[i - 1] == b[j - 1] { 0 } else { 1 };
            cur[j] = (prev[j] + 1).min(cur[j - 1] + 1).min(prev[j - 1] + sub);
        }
        std::mem::swap(&mut prev, &mut cur);
    }
    prev[q]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_distances() {
        assert_eq!(
            try_edit_distance_mesh(b"kitten", b"sitting", &mut NoFaults, &mut NullSink)
                .unwrap()
                .distance,
            3
        );
        assert_eq!(
            try_edit_distance_mesh(b"flaw", b"lawn", &mut NoFaults, &mut NullSink)
                .unwrap()
                .distance,
            2
        );
        assert_eq!(
            try_edit_distance_mesh(b"abc", b"abc", &mut NoFaults, &mut NullSink)
                .unwrap()
                .distance,
            0
        );
        assert_eq!(
            try_edit_distance_mesh(b"a", b"b", &mut NoFaults, &mut NullSink)
                .unwrap()
                .distance,
            1
        );
    }

    #[test]
    fn empty_operands() {
        assert_eq!(
            try_edit_distance_mesh(b"", b"abc", &mut NoFaults, &mut NullSink)
                .unwrap()
                .distance,
            3
        );
        assert_eq!(
            try_edit_distance_mesh(b"ab", b"", &mut NoFaults, &mut NullSink)
                .unwrap()
                .distance,
            2
        );
        assert_eq!(
            try_edit_distance_mesh(b"", b"", &mut NoFaults, &mut NullSink)
                .unwrap()
                .distance,
            0
        );
    }

    #[test]
    fn empty_operands_report_zero_pes() {
        // Regression: the short-circuit path used to claim one phantom
        // PE (Stats::new(1)), skewing any aggregate PE accounting.
        for (a, b) in [(&b""[..], &b"abc"[..]), (b"ab", b""), (b"", b"")] {
            let run = try_edit_distance_mesh(a, b, &mut NoFaults, &mut NullSink).unwrap();
            assert_eq!(run.stats.num_pes(), 0);
            assert_eq!(run.stats.cycles(), 0);
            assert_eq!(run.stats.utilization().overall, 0.0);
        }
    }

    #[test]
    fn traced_run_matches_untraced() {
        use sdp_trace::CountingSink;
        let plain =
            try_edit_distance_mesh(b"kitten", b"sitting", &mut NoFaults, &mut NullSink).unwrap();
        let mut sink = CountingSink::default();
        let traced =
            try_edit_distance_mesh(b"kitten", b"sitting", &mut NoFaults, &mut sink).unwrap();
        assert_eq!(traced.distance, plain.distance);
        assert_eq!(traced.cycles, plain.cycles);
        assert_eq!(sink.cycles, plain.cycles);
        assert_eq!(sink.pe_fires, plain.cycles * 6 * 7);
        assert_eq!(
            sink.busy_fires,
            (0..42).map(|i| plain.stats.busy(i)).sum::<u64>()
        );
    }

    #[test]
    fn cycles_are_p_plus_q_minus_1() {
        let run =
            try_edit_distance_mesh(b"kitten", b"sitting", &mut NoFaults, &mut NullSink).unwrap();
        assert_eq!(run.cycles, 6 + 7 - 1);
    }

    #[test]
    fn matches_sequential_on_random_strings() {
        let mut state = 12345u64;
        let mut next = move |n: usize| -> Vec<u8> {
            (0..n)
                .map(|_| {
                    state = state
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    b'a' + ((state >> 33) % 4) as u8
                })
                .collect()
        };
        for case in 0..30 {
            let a = next(1 + case % 9);
            let b = next(1 + (case * 7) % 11);
            let mesh = try_edit_distance_mesh(&a, &b, &mut NoFaults, &mut NullSink)
                .unwrap()
                .distance;
            let seq = edit_distance_seq(&a, &b);
            assert_eq!(mesh, seq, "a={a:?} b={b:?}");
        }
    }

    #[test]
    fn each_cell_computes_exactly_once() {
        let run = try_edit_distance_mesh(b"abcd", b"xyz", &mut NoFaults, &mut NullSink).unwrap();
        let busy: u64 = (0..12).map(|i| run.stats.busy(i)).sum();
        assert_eq!(busy, 12);
    }

    #[test]
    fn no_faults_run_matches_plain() {
        use sdp_trace::CountingSink;
        let plain =
            try_edit_distance_mesh(b"kitten", b"sitting", &mut NoFaults, &mut NullSink).unwrap();
        let mut sink = CountingSink::default();
        let run =
            try_edit_distance_mesh(b"kitten", b"sitting", &mut sdp_fault::NoFaults, &mut sink)
                .unwrap();
        assert_eq!(run.distance, plain.distance);
        assert_eq!(run.cycles, plain.cycles);
        assert_eq!(sink.faults_injected, 0);
        assert_eq!(sink.cycles, plain.cycles);
    }

    #[test]
    fn stuck_at_pe_corrupts_distance_without_stalling() {
        use sdp_fault::{Fault, FaultPlan, PlanInjector};
        use sdp_trace::CountingSink;
        let clean =
            try_edit_distance_mesh(b"kitten", b"sitting", &mut NoFaults, &mut NullSink).unwrap();
        // Pin the top-left cell's output to 40: every downstream cell
        // inherits the inflated prefix cost.
        let plan = FaultPlan::new().with(Fault::StuckAt {
            pe: 0,
            cycle: 0,
            value: 40,
        });
        let mut inj = PlanInjector::new(plan);
        let mut sink = CountingSink::default();
        let faulty = try_edit_distance_mesh(b"kitten", b"sitting", &mut inj, &mut sink).unwrap();
        assert_ne!(faulty.distance, clean.distance);
        // Faults degrade values, never the wavefront schedule.
        assert_eq!(faulty.cycles, clean.cycles);
        assert!(sink.faults_injected > 0);
    }

    #[test]
    fn batch_matches_sequential_runs() {
        let pairs: Vec<(Vec<u8>, Vec<u8>)> = (0..8u8)
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
        let batch = edit_distance_mesh_batch(&refs).unwrap();
        for (t, (a, b)) in pairs.iter().enumerate() {
            assert_eq!(
                batch.distances[t],
                try_edit_distance_mesh(a, b, &mut NoFaults, &mut NullSink)
                    .unwrap()
                    .distance,
                "t={t}"
            );
            assert_eq!(batch.distances[t], edit_distance_seq(a, b), "t={t}");
        }
        assert_eq!(batch.cycles, (5 + 7 - 2 + 8) as u64);
    }

    #[test]
    fn batch_of_one_emits_single_run_event_stream() {
        use sdp_trace::RecordingSink;
        let mut single_sink = RecordingSink::default();
        let single =
            try_edit_distance_mesh(b"kitten", b"sitting", &mut NoFaults, &mut single_sink).unwrap();
        let mut batch_sink = RecordingSink::default();
        let batch =
            edit_distance_mesh_batch_traced(&[(b"kitten", b"sitting")], &mut batch_sink).unwrap();
        assert_eq!(batch.distances, vec![single.distance]);
        assert_eq!(batch.cycles, single.cycles);
        assert_eq!(batch_sink.events, single_sink.events);
    }

    #[test]
    fn batch_pu_exceeds_single_pu() {
        let a: Vec<u8> = vec![b'a'; 6];
        let b: Vec<u8> = vec![b'b'; 6];
        let pairs: Vec<(&[u8], &[u8])> = (0..16).map(|_| (a.as_slice(), b.as_slice())).collect();
        let single = edit_distance_mesh_batch(&pairs[..1]).unwrap();
        let batch = edit_distance_mesh_batch(&pairs).unwrap();
        assert!(
            batch.measured_pu() > single.measured_pu(),
            "batch {} vs single {}",
            batch.measured_pu(),
            single.measured_pu()
        );
        // 16 wavefronts over 6+6-2+16 = 26 cycles: PU ≈ 0.62 vs 1/11.
        assert!(batch.measured_pu() > 0.5);
    }

    #[test]
    fn batch_shape_errors_and_empty_operands() {
        assert!(matches!(
            edit_distance_mesh_batch(&[]),
            Err(SdpError::EmptyBatch)
        ));
        assert!(matches!(
            edit_distance_mesh_batch(&[(b"abc", b"xy"), (b"abc", b"xyz")]),
            Err(SdpError::BatchShapeMismatch { index: 1 })
        ));
        let run = edit_distance_mesh_batch(&[(b"", b"abc"), (b"", b"xyz")]).unwrap();
        assert_eq!(run.distances, vec![3, 3]);
        assert_eq!(run.cycles, 0);
        assert_eq!(run.stats.num_pes(), 0);
    }

    #[test]
    fn wavefront_utilization_shape() {
        // On an n x n mesh only one anti-diagonal is active per cycle:
        // utilization = n² / ((2n-1)·n²) = 1/(2n-1).
        let n = 6;
        let a = vec![b'a'; n];
        let b = vec![b'b'; n];
        let run = try_edit_distance_mesh(&a, &b, &mut NoFaults, &mut NullSink).unwrap();
        let u = run.stats.utilization().overall;
        let expect = 1.0 / (2 * n - 1) as f64;
        assert!((u - expect).abs() < 1e-9, "{u} vs {expect}");
    }
}
