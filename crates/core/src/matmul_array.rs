//! The classic 2-D matrix-multiplication systolic array — the hardware
//! *unit* of the §4 divide-and-conquer analysis.
//!
//! Theorem 1 and Figure 6 measure time in units of `T₁`, "the time to
//! multiply a pair of m × m matrices by a systolic array".  This module
//! makes `T₁` concrete: a result-stationary mesh (Kung's design, the
//! paper's reference \[17\]) where
//!
//! * row `i` of `A` streams in from the **west**, skewed one cycle per
//!   row (`a_{i,k}` enters at cycle `i + k`);
//! * column `j` of `B` streams in from the **north**, skewed one cycle
//!   per column (`b_{k,j}` enters at cycle `j + k`);
//! * PE `(i, j)` sees `a_{i,k}` and `b_{k,j}` *in the same cycle*
//!   (`i + j + k`) and accumulates `cᵢⱼ ⊕= a ⊗ b` in place.
//!
//! A `p×q · q×r` product completes in exactly `p + q + r − 2` cycles
//! (`3m − 2` for square `m`), which [`MatmulArray::t1`] exposes to the
//! divide-and-conquer scheduler so Eq. 29's abstract `T₁` can be stated
//! in real cycles.

use sdp_fault::{FaultInjector, FaultyWord, NoFaults, SdpError};
use sdp_semiring::{Matrix, Semiring};
use sdp_systolic::{Mesh2D, MeshProcessingElement, Stats};
use sdp_trace::{Event, NullSink, TraceSink};

/// Multiply-accumulate PE: the result element stays in place while the
/// operands pass through.  Operand words carry an instance tag, and a
/// tag change retires the finished accumulator into the drain list —
/// the software model of a result-stationary array streaming `B`
/// independent products back-to-back (a single product is `B = 1`).
struct BatchMacPe<S> {
    acc: S,
    inst: u32,
    done: Vec<S>,
    busy: bool,
}

impl<S: Semiring> MeshProcessingElement for BatchMacPe<S> {
    type Horiz = (S, u32);
    type Vert = (S, u32);
    type Ctrl = ();

    fn step(
        &mut self,
        west: Option<(S, u32)>,
        north: Option<(S, u32)>,
        _: (),
    ) -> (Option<(S, u32)>, Option<(S, u32)>) {
        self.busy = west.is_some() && north.is_some();
        if let (Some((a, inst)), Some((b, north_inst))) = (west, north) {
            debug_assert_eq!(inst, north_inst, "operand streams out of phase");
            if inst != self.inst {
                // The previous instance's last word has passed this PE:
                // its product element is complete.
                self.done.push(self.acc);
                self.acc = S::zero();
                self.inst = inst;
            }
            self.acc = self.acc.add(a.mul(b));
        }
        (west, north)
    }

    fn was_busy(&self) -> bool {
        self.busy
    }
}

/// Result of one array multiplication.
#[derive(Clone, Debug)]
pub struct MatmulRun<S: Semiring> {
    /// The product matrix.
    pub product: Matrix<S>,
    /// Cycles taken (`p + q + r − 2`).
    pub cycles: u64,
    /// Engine statistics (PE busy counts, edge I/O words).
    pub stats: Stats,
}

/// Result of a batched array run: `B` independent products streamed
/// back-to-back through one mesh.
#[derive(Clone, Debug)]
pub struct BatchMatmulRun<S: Semiring> {
    /// One product per input pair, in batch order.
    pub products: Vec<Matrix<S>>,
    /// Total cycles for the whole batch: `T₁ + (B−1)·q`.
    pub cycles: u64,
    /// Serial multiply-accumulate count `B·p·q·r` the batch performed.
    pub serial_ops: u64,
    /// Engine statistics over the whole batch.
    pub stats: Stats,
}

impl<S: Semiring> BatchMatmulRun<S> {
    /// Measured processor utilization: `B·p·q·r` useful operations over
    /// `cycles × p·r` PE-cycles.  Approaches 1 as `B` grows (single runs
    /// peak at `q / (p+q+r−2)` ≈ 1/3 for square operands).
    pub fn measured_pu(&self) -> f64 {
        self.stats.processor_utilization(self.serial_ops)
    }
}

/// The result-stationary matrix-multiplication array driver.
pub struct MatmulArray;

impl MatmulArray {
    /// The closed-form cycle count `T₁` for a `p×q · q×r` product.
    pub fn t1(p: usize, q: usize, r: usize) -> u64 {
        (p + q + r - 2) as u64
    }

    /// The closed-form cycle count for a batch of `b` same-shaped
    /// products: instance `t` is offset `t·q` cycles behind instance 0,
    /// so the batch finishes in `T₁ + (b−1)·q` — the fill/drain cost is
    /// paid once, not `b` times.
    pub fn t_batch(p: usize, q: usize, r: usize, b: usize) -> u64 {
        Self::t1(p, q, r) + ((b - 1) * q) as u64
    }

    /// Streams a batch of same-shaped products through one mesh,
    /// back-to-back: instance `t`'s operands enter exactly `t·q` cycles
    /// after instance 0's, so each PE's operand stream is contiguous and
    /// the array never idles between instances.  Returns typed errors
    /// for an empty batch, mismatched inner dimensions, or instances
    /// whose shape differs from instance 0's.
    pub fn multiply_batch<S: Semiring + FaultyWord>(
        pairs: &[(Matrix<S>, Matrix<S>)],
    ) -> Result<BatchMatmulRun<S>, SdpError> {
        Self::multiply_batch_traced(pairs, &mut NullSink)
    }

    /// [`multiply_batch`](Self::multiply_batch) with an event sink.  A
    /// batch of one emits exactly the event stream of
    /// [`try_multiply`](Self::try_multiply); larger batches
    /// interleave the instances' word streams on the same cycle axis.
    pub fn multiply_batch_traced<S: Semiring + FaultyWord, K: TraceSink>(
        pairs: &[(Matrix<S>, Matrix<S>)],
        sink: &mut K,
    ) -> Result<BatchMatmulRun<S>, SdpError> {
        let pairs: Vec<_> = pairs.iter().map(|(a, b)| (a, b)).collect();
        Self::batch_core(&pairs, &mut NoFaults, sink)
    }

    /// Multiplies `a · b` on a `p × r` mesh over any corruptible
    /// [`Semiring`] — the batch of one; mismatched inner dimensions are a
    /// typed error.  PE indices in `sink`'s events are row-major over the
    /// mesh; operand streams appear as `WordIn` on the west/north edges.
    /// `injector` corrupts the operand words a PE drives east and south.
    pub fn try_multiply<S: Semiring + FaultyWord, F: FaultInjector, K: TraceSink>(
        a: &Matrix<S>,
        b: &Matrix<S>,
        injector: &mut F,
        sink: &mut K,
    ) -> Result<MatmulRun<S>, SdpError> {
        let mut run = Self::batch_core(&[(a, b)], injector, sink)?;
        Ok(MatmulRun {
            product: run.products.pop().expect("one product per instance"),
            cycles: run.cycles,
            stats: run.stats,
        })
    }

    /// The one result-stationary mesh driver: streams `pairs` through a
    /// `p × r` mesh back-to-back, instance `t`'s operands entering `t·q`
    /// cycles after instance 0's.
    fn batch_core<S: Semiring + FaultyWord, F: FaultInjector, K: TraceSink>(
        pairs: &[(&Matrix<S>, &Matrix<S>)],
        injector: &mut F,
        sink: &mut K,
    ) -> Result<BatchMatmulRun<S>, SdpError> {
        if pairs.is_empty() {
            return Err(SdpError::EmptyBatch);
        }
        let (p, q, r) = (pairs[0].0.rows(), pairs[0].0.cols(), pairs[0].1.cols());
        for (index, (a, b)) in pairs.iter().enumerate() {
            if a.cols() != b.rows() {
                return Err(SdpError::InnerDimMismatch {
                    left_cols: a.cols(),
                    right_rows: b.rows(),
                });
            }
            if (a.rows(), a.cols(), b.cols()) != (p, q, r) {
                return Err(SdpError::BatchShapeMismatch { index });
            }
        }
        let bn = pairs.len();
        let mut mesh = Mesh2D::new(
            p,
            r,
            (0..p * r)
                .map(|_| BatchMacPe {
                    acc: S::zero(),
                    inst: 0,
                    done: Vec::with_capacity(bn - 1),
                    busy: false,
                })
                .collect::<Vec<_>>(),
        );
        let total = Self::t_batch(p, q, r, bn);
        for t in 0..total {
            mesh.cycle(
                |i| {
                    // Instance `inst`'s a_{i,k} enters row i at cycle
                    // i + k + inst·q.
                    let s = t as i64 - i as i64;
                    if s < 0 {
                        return None;
                    }
                    let (inst, k) = (s as usize / q, s as usize % q);
                    (inst < bn).then(|| (pairs[inst].0.get(i, k), inst as u32))
                },
                |j| {
                    let s = t as i64 - j as i64;
                    if s < 0 {
                        return None;
                    }
                    let (inst, k) = (s as usize / q, s as usize % q);
                    (inst < bn).then(|| (pairs[inst].1.get(k, j), inst as u32))
                },
                |_, _| (),
                injector,
                sink,
            );
        }
        // Instances 0..B−1 were retired by the tag change; the last one
        // is still resident in the accumulators.
        let products = (0..bn)
            .map(|inst| {
                Matrix::from_fn(p, r, |i, j| {
                    let pe = mesh.pe(i, j);
                    pe.done.get(inst).copied().unwrap_or(pe.acc)
                })
            })
            .collect();
        Ok(BatchMatmulRun {
            products,
            cycles: mesh.stats().cycles(),
            serial_ops: (bn * p * q * r) as u64,
            stats: mesh.stats().clone(),
        })
    }

    /// Multiplies an entire string by the §4 divide-and-conquer schedule
    /// using *array simulations* for every product: `k` arrays work in
    /// synchronous rounds of `T₁` cycles each.  Returns the product and
    /// the total cycle count `rounds × T₁` (square matrices only; an
    /// empty or non-square string is a typed error).
    ///
    /// `sink` records the *schedule* — one `CycleStart` per synchronous
    /// round and a `TaskStart`/`TaskEnd` pair per product, tagged with
    /// the array slot it runs on.  The inner mesh simulations are left
    /// untraced (their per-cycle detail belongs to [`Self::try_multiply`]).
    pub fn try_multiply_string_dnc<S: Semiring + FaultyWord, K: TraceSink>(
        mats: &[Matrix<S>],
        k: u64,
        sink: &mut K,
    ) -> Result<(Matrix<S>, u64), SdpError> {
        if mats.is_empty() {
            return Err(SdpError::EmptyMatrixString);
        }
        let m = mats[0].rows();
        for (index, mat) in mats.iter().enumerate() {
            if (mat.rows(), mat.cols()) != (m, m) {
                return Err(SdpError::NotSquare { index, m });
            }
        }
        let t1 = Self::t1(m, m, m);
        let mut layer: Vec<Matrix<S>> = mats.to_vec();
        let mut cycles = 0u64;
        let mut round = 0u64;
        let mut task_id = 0u32;
        while layer.len() > 1 {
            cycles += t1;
            let t = ((layer.len() / 2) as u64).min(k) as usize;
            let rest = layer.split_off(2 * t);
            if K::ENABLED {
                sink.record(Event::CycleStart { cycle: round });
            }
            let products: Vec<Matrix<S>> = layer
                .chunks(2)
                .enumerate()
                .map(|(slot, pair)| {
                    if K::ENABLED {
                        sink.record(Event::TaskStart {
                            task: task_id + slot as u32,
                            array: slot as u32,
                        });
                    }
                    let product =
                        Self::try_multiply(&pair[0], &pair[1], &mut NoFaults, &mut NullSink)
                            .expect("square operands of one order")
                            .product;
                    if K::ENABLED {
                        sink.record(Event::TaskEnd {
                            task: task_id + slot as u32,
                            array: slot as u32,
                        });
                    }
                    product
                })
                .collect();
            task_id += products.len() as u32;
            round += 1;
            layer = products.into_iter().chain(rest).collect();
        }
        Ok((layer.pop().expect("one matrix remains"), cycles))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdp_semiring::{BoolOr, CountPlus, MaxPlus, MinPlus};
    use sdp_systolic::scheduler::TreeScheduler;

    fn rand_mat(seed: u64, rows: usize, cols: usize) -> Matrix<MinPlus> {
        let mut state = seed.wrapping_add(11);
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) % 60) as i64
        };
        Matrix::from_fn(rows, cols, |_, _| MinPlus::from(next()))
    }

    #[test]
    fn square_product_matches_reference() {
        for m in 1..=6 {
            let a = rand_mat(m as u64, m, m);
            let b = rand_mat(m as u64 + 100, m, m);
            let run = MatmulArray::try_multiply(&a, &b, &mut NoFaults, &mut NullSink).unwrap();
            assert_eq!(run.product, a.mul(&b), "m={m}");
            assert_eq!(run.cycles, (3 * m - 2) as u64, "m={m}");
        }
    }

    #[test]
    fn rectangular_products() {
        for (p, q, r) in [(2usize, 5usize, 3usize), (1, 4, 6), (7, 1, 2), (3, 3, 1)] {
            let a = rand_mat((p * q) as u64, p, q);
            let b = rand_mat((q * r) as u64, q, r);
            let run = MatmulArray::try_multiply(&a, &b, &mut NoFaults, &mut NullSink).unwrap();
            assert_eq!(run.product, a.mul(&b), "({p},{q},{r})");
            assert_eq!(run.cycles, MatmulArray::t1(p, q, r), "({p},{q},{r})");
        }
    }

    #[test]
    fn works_over_other_semirings() {
        let a = Matrix::from_fn(3, 3, |i, j| MaxPlus::from((i * 3 + j) as i64));
        let b = Matrix::from_fn(3, 3, |i, j| MaxPlus::from((j * 2 + i) as i64));
        assert_eq!(
            MatmulArray::try_multiply(&a, &b, &mut NoFaults, &mut NullSink)
                .unwrap()
                .product,
            a.mul(&b)
        );

        let ones = Matrix::from_fn(2, 2, |_, _| CountPlus(1));
        assert_eq!(
            MatmulArray::try_multiply(&ones, &ones, &mut NoFaults, &mut NullSink)
                .unwrap()
                .product,
            ones.mul(&ones)
        );

        let mut adj = Matrix::<BoolOr>::zeros(3, 3);
        adj.set(0, 1, BoolOr(true));
        adj.set(1, 2, BoolOr(true));
        assert_eq!(
            MatmulArray::try_multiply(&adj, &adj, &mut NoFaults, &mut NullSink)
                .unwrap()
                .product,
            adj.mul(&adj)
        );
    }

    #[test]
    fn busy_ops_equal_pqr() {
        // Each PE performs exactly q multiply-accumulates.
        let (p, q, r) = (3usize, 4usize, 2usize);
        let a = rand_mat(1, p, q);
        let b = rand_mat(2, q, r);
        let run = MatmulArray::try_multiply(&a, &b, &mut NoFaults, &mut NullSink).unwrap();
        let busy: u64 = (0..p * r).map(|i| run.stats.busy(i)).sum();
        assert_eq!(busy, (p * q * r) as u64);
    }

    #[test]
    fn utilization_is_about_one_third_for_square() {
        // q useful cycles out of 3m-2 per PE.
        let m = 12;
        let a = rand_mat(7, m, m);
        let b = rand_mat(8, m, m);
        let run = MatmulArray::try_multiply(&a, &b, &mut NoFaults, &mut NullSink).unwrap();
        let u = run.stats.utilization().overall;
        let expect = m as f64 / (3 * m - 2) as f64;
        assert!((u - expect).abs() < 1e-9, "{u} vs {expect}");
    }

    #[test]
    fn dnc_string_on_arrays_matches_fold_and_schedule() {
        let mats: Vec<Matrix<MinPlus>> = (0..6).map(|s| rand_mat(s, 3, 3)).collect();
        for k in [1u64, 2, 4] {
            let (prod, cycles) =
                MatmulArray::try_multiply_string_dnc(&mats, k, &mut NullSink).unwrap();
            assert_eq!(prod, Matrix::string_product(&mats), "k={k}");
            let rounds = TreeScheduler
                .try_simulate(6, k, &mut NullSink)
                .unwrap()
                .rounds;
            assert_eq!(cycles, rounds * MatmulArray::t1(3, 3, 3), "k={k}");
        }
    }

    #[test]
    fn single_matrix_needs_zero_cycles() {
        let mats = vec![rand_mat(1, 2, 2)];
        let (prod, cycles) = MatmulArray::try_multiply_string_dnc(&mats, 4, &mut NullSink).unwrap();
        assert_eq!(prod, mats[0]);
        assert_eq!(cycles, 0);
    }

    #[test]
    #[should_panic(expected = "inner dimensions")]
    fn mismatch_rejected() {
        let a = rand_mat(1, 2, 3);
        let b = rand_mat(2, 2, 2);
        let _ = MatmulArray::try_multiply(&a, &b, &mut NoFaults, &mut NullSink)
            .unwrap_or_else(|e| panic!("{e}"));
    }

    #[test]
    fn try_multiply_reports_typed_errors() {
        let a = rand_mat(1, 2, 3);
        let b = rand_mat(2, 2, 2);
        assert!(matches!(
            MatmulArray::try_multiply(&a, &b, &mut NoFaults, &mut NullSink),
            Err(SdpError::InnerDimMismatch {
                left_cols: 3,
                right_rows: 2
            })
        ));
        let empty: Vec<Matrix<MinPlus>> = Vec::new();
        assert!(matches!(
            MatmulArray::try_multiply_string_dnc(&empty, 2, &mut NullSink),
            Err(SdpError::EmptyMatrixString)
        ));
        let mixed = vec![rand_mat(1, 2, 2), rand_mat(2, 3, 3)];
        assert!(matches!(
            MatmulArray::try_multiply_string_dnc(&mixed, 2, &mut NullSink),
            Err(SdpError::NotSquare { index: 1, m: 2 })
        ));
    }

    #[test]
    fn mesh_fault_injection_corrupts_product() {
        use sdp_fault::{Fault, FaultPlan, NoFaults, PlanInjector};
        use sdp_trace::CountingSink;
        let a = rand_mat(21, 3, 3);
        let b = rand_mat(22, 3, 3);
        let clean = MatmulArray::try_multiply(&a, &b, &mut NoFaults, &mut NullSink).unwrap();
        // NoFaults path is bit-identical.
        let same = MatmulArray::try_multiply(&a, &b, &mut NoFaults, &mut NullSink).unwrap();
        assert_eq!(same.product, clean.product);
        assert_eq!(same.stats, clean.stats);
        // A stuck PE in the mesh interior corrupts the crossing operands.
        let plan = FaultPlan::new().with(Fault::StuckAt {
            pe: 4, // centre of the 3×3 mesh
            cycle: 0,
            value: 0,
        });
        let mut inj = PlanInjector::new(plan);
        let mut sink = CountingSink::default();
        let faulty = MatmulArray::try_multiply(&a, &b, &mut inj, &mut sink).unwrap();
        assert_ne!(faulty.product, clean.product);
        assert_eq!(faulty.cycles, clean.cycles, "faults never stall the mesh");
        assert!(sink.faults_injected > 0);
    }

    #[test]
    fn traced_multiply_matches_untraced() {
        use sdp_trace::CountingSink;
        let a = rand_mat(3, 3, 4);
        let b = rand_mat(4, 4, 2);
        let plain = MatmulArray::try_multiply(&a, &b, &mut NoFaults, &mut NullSink).unwrap();
        let mut sink = CountingSink::default();
        let traced = MatmulArray::try_multiply(&a, &b, &mut NoFaults, &mut sink).unwrap();
        assert_eq!(traced.product, plain.product);
        assert_eq!(traced.cycles, plain.cycles);
        assert_eq!(sink.cycles, plain.cycles);
        assert_eq!(sink.words_in, plain.stats.input_words());
        assert_eq!(sink.pe_fires, plain.cycles * 6); // 3×2 mesh
    }

    #[test]
    fn batch_matches_sequential_runs() {
        for (p, q, r, b) in [
            (3usize, 4usize, 2usize, 5usize),
            (1, 1, 1, 3),
            (5, 3, 5, 1),
            (2, 7, 3, 16),
        ] {
            let pairs: Vec<(Matrix<MinPlus>, Matrix<MinPlus>)> = (0..b)
                .map(|t| (rand_mat(t as u64, p, q), rand_mat(t as u64 + 50, q, r)))
                .collect();
            let batch = MatmulArray::multiply_batch(&pairs).unwrap();
            assert_eq!(batch.products.len(), b);
            for (t, (a, bm)) in pairs.iter().enumerate() {
                let single =
                    MatmulArray::try_multiply(a, bm, &mut NoFaults, &mut NullSink).unwrap();
                assert_eq!(batch.products[t], single.product, "({p},{q},{r}) t={t}");
            }
            assert_eq!(batch.cycles, MatmulArray::t_batch(p, q, r, b));
        }
    }

    #[test]
    fn batch_pu_exceeds_single_pu_and_approaches_one() {
        let m = 6usize;
        let pairs: Vec<(Matrix<MinPlus>, Matrix<MinPlus>)> = (0..16)
            .map(|t| (rand_mat(t, m, m), rand_mat(t + 100, m, m)))
            .collect();
        let single = MatmulArray::multiply_batch(&pairs[..1]).unwrap();
        let batch = MatmulArray::multiply_batch(&pairs).unwrap();
        assert!(
            batch.measured_pu() > single.measured_pu(),
            "batch {} vs single {}",
            batch.measured_pu(),
            single.measured_pu()
        );
        // B=16, m=6: PU = 16·m / (3m−2 + 15m) ≈ 0.87 — well past the
        // single-run asymptote of ~1/3.
        assert!(batch.measured_pu() > 0.8);
    }

    #[test]
    fn batch_of_one_emits_single_run_event_stream() {
        use sdp_trace::RecordingSink;
        let a = rand_mat(31, 3, 4);
        let b = rand_mat(32, 4, 2);
        let mut single_sink = RecordingSink::default();
        let single = MatmulArray::try_multiply(&a, &b, &mut NoFaults, &mut single_sink).unwrap();
        let mut batch_sink = RecordingSink::default();
        let batch = MatmulArray::multiply_batch_traced(&[(a, b)], &mut batch_sink).unwrap();
        assert_eq!(batch.products[0], single.product);
        assert_eq!(batch.cycles, single.cycles);
        assert_eq!(batch_sink.events, single_sink.events);
    }

    #[test]
    fn batch_trace_interleaves_consistently() {
        use sdp_trace::CountingSink;
        // The batch stream carries exactly B× the words of one instance
        // on a single shared cycle axis.
        let pairs: Vec<(Matrix<MinPlus>, Matrix<MinPlus>)> = (0..4)
            .map(|t| (rand_mat(t, 3, 5), rand_mat(t + 9, 5, 2)))
            .collect();
        let mut single_sink = CountingSink::default();
        let _ =
            MatmulArray::try_multiply(&pairs[0].0, &pairs[0].1, &mut NoFaults, &mut single_sink)
                .unwrap();
        let mut batch_sink = CountingSink::default();
        let batch = MatmulArray::multiply_batch_traced(&pairs, &mut batch_sink).unwrap();
        assert_eq!(batch_sink.words_in, 4 * single_sink.words_in);
        assert_eq!(batch_sink.cycles, batch.cycles);
        assert!(batch.cycles < 4 * single_sink.cycles, "instances overlap");
    }

    #[test]
    fn batch_shape_errors_are_typed() {
        let empty: Vec<(Matrix<MinPlus>, Matrix<MinPlus>)> = Vec::new();
        assert!(matches!(
            MatmulArray::multiply_batch(&empty),
            Err(SdpError::EmptyBatch)
        ));
        let pairs = vec![
            (rand_mat(1, 2, 3), rand_mat(2, 3, 2)),
            (rand_mat(3, 2, 4), rand_mat(4, 4, 2)),
        ];
        assert!(matches!(
            MatmulArray::multiply_batch(&pairs),
            Err(SdpError::BatchShapeMismatch { index: 1 })
        ));
        let bad = vec![(rand_mat(1, 2, 3), rand_mat(2, 2, 2))];
        assert!(matches!(
            MatmulArray::multiply_batch(&bad),
            Err(SdpError::InnerDimMismatch { .. })
        ));
    }

    #[test]
    fn traced_dnc_emits_one_task_per_product() {
        use sdp_trace::CountingSink;
        let mats: Vec<Matrix<MinPlus>> = (0..6).map(|s| rand_mat(s, 2, 2)).collect();
        let mut sink = CountingSink::default();
        let (prod, _) = MatmulArray::try_multiply_string_dnc(&mats, 4, &mut sink).unwrap();
        assert_eq!(prod, Matrix::string_product(&mats));
        // 6 → 3 → 2 → 1 matrices: 3 + 1 + 1 = 5 products in 3 rounds.
        assert_eq!(sink.task_starts, 5);
        assert_eq!(sink.task_ends, 5);
        assert_eq!(sink.cycles, 3);
    }
}
