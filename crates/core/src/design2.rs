//! **Design 2** — the broadcast linear array of Fig. 4.
//!
//! "If broadcast is allowed, the above scheme can be simplified": every
//! input-vector element is broadcast to all PEs in the same cycle, the
//! partial results stay stationary in the accumulators, and all input
//! matrices are fed *in the same format* (row `i` to PE `i` — no
//! transposition, no alternation).  At each matrix boundary the `MOVE`
//! signal gates the result vector into the `S` registers, `FIRST` drops to
//! zero, and the `S` values are fed back onto the broadcast bus one per
//! cycle as the next phase's inputs.
//!
//! The iteration count and PU are identical to Design 1 (Eq. 9); the
//! simplification buys uniform data formatting at the price of a bus that
//! must reach every PE in one cycle.

use sdp_fault::{FaultInjector, FaultyWord, NoFaults, SdpError};
use sdp_semiring::{Cost, Matrix, MinPlus, Semiring};
use sdp_systolic::Stats;
use sdp_trace::{Event, NullSink, TraceSink};

/// The result of one Design 2 run.
#[derive(Clone, Debug)]
pub struct Design2Result {
    /// Final values (scalar for single-source/sink strings, else the
    /// stage-1 vector).
    pub values: Vec<Cost>,
    /// One optimal path (vertex index per stage of the original graph),
    /// recovered from the per-phase argmin latches; `None` when the
    /// optimum is unreachable (`INF`).
    pub path: Option<Vec<usize>>,
    /// Measured clock cycles (`N·m` exactly — broadcast has no skew).
    pub cycles: u64,
    /// The paper's charged iteration count `N·m`.
    pub paper_iterations: u64,
    /// Busy/cycle statistics.
    pub stats: Stats,
    /// Words that crossed the array boundary (broadcast inputs).
    pub broadcast_words: u64,
}

impl Design2Result {
    /// The scalar optimum (minimum over `values`).
    pub fn optimum(&self) -> Cost {
        self.values.iter().copied().fold(Cost::INF, Cost::min)
    }

    /// Measured PU against a serial iteration count.
    pub fn measured_pu(&self, serial_iterations: u64) -> f64 {
        self.stats.processor_utilization(serial_iterations)
    }
}

/// The result of a batched Design 2 run: `B` same-shaped strings
/// processed back-to-back on one array.
#[derive(Clone, Debug)]
pub struct Design2BatchResult {
    /// Per-instance final values, in batch order.
    pub values: Vec<Vec<Cost>>,
    /// Per-instance recovered optimal paths.
    pub paths: Vec<Option<Vec<usize>>>,
    /// Total cycles for the whole batch (`B×` the single-run count — the
    /// broadcast array has no fill/drain to amortize).
    pub cycles: u64,
    /// The paper's charged iteration count `B·N·m`.
    pub paper_iterations: u64,
    /// Busy/cycle statistics over the whole batch.
    pub stats: Stats,
    /// Words that crossed the array boundary (broadcast inputs).
    pub broadcast_words: u64,
}

impl Design2BatchResult {
    /// The scalar optimum of instance `t`.
    pub fn optimum(&self, t: usize) -> Cost {
        self.values[t].iter().copied().fold(Cost::INF, Cost::min)
    }

    /// Measured PU against the total serial iteration count of all
    /// instances.
    pub fn measured_pu(&self, serial_iterations: u64) -> f64 {
        self.stats.processor_utilization(serial_iterations)
    }
}

/// One PE of Design 2 (Fig. 4(b)): accumulator plus the `S` feedback
/// register.
#[derive(Clone, Debug)]
struct Pe2 {
    acc: MinPlus,
    s: MinPlus,
}

/// The Design 2 array driver: `m` PEs on a broadcast bus with feedback.
pub struct Design2Array {
    m: usize,
}

impl Design2Array {
    /// An array of `m` PEs.
    pub fn new(m: usize) -> Design2Array {
        Self::try_new(m).unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`new`](Self::new) that reports `m < 1` as a typed error instead
    /// of panicking.
    pub fn try_new(m: usize) -> Result<Design2Array, SdpError> {
        if m < 1 {
            return Err(SdpError::BadParameter {
                name: "m",
                got: m as u64,
                min: 1,
            });
        }
        Ok(Design2Array { m })
    }

    /// Runs the array on a matrix string shaped `[1×m]? [m×m]* [m×1]?`
    /// (same contract as Design 1).
    ///
    /// Every broadcast word is one cycle of `sink`'s stream: a
    /// `CycleStart`, a `WordIn` (the word on the bus), one `PeFire` per
    /// PE, and a `BusDrive` marking the broadcast itself.  `injector`
    /// corrupts the candidate words PEs read off the broadcast bus
    /// (value faults only — control flow never wedges).
    pub fn try_run<S: TraceSink, F: FaultInjector>(
        &self,
        mats: &[Matrix<MinPlus>],
        injector: &mut F,
        sink: &mut S,
    ) -> Result<Design2Result, SdpError> {
        let Design2BatchResult {
            mut values,
            mut paths,
            cycles,
            paper_iterations,
            stats,
            broadcast_words,
        } = self.run_batch_core(&[mats], injector, sink)?;
        Ok(Design2Result {
            values: values.pop().expect("one instance"),
            path: paths.pop().expect("one instance"),
            cycles,
            paper_iterations,
            stats,
            broadcast_words,
        })
    }

    /// Streams a batch of same-shaped strings through one array.  The
    /// broadcast design has no pipeline fill or drain, so the batch is an
    /// exact concatenation: `B×` the single-run cycles on one shared PE
    /// array and statistics stream (Designs 1/3 and the meshes, which do
    /// pay fill/drain, amortize it under batching).
    pub fn run_batch(
        &self,
        instances: &[&[Matrix<MinPlus>]],
    ) -> Result<Design2BatchResult, SdpError> {
        self.run_batch_traced(instances, &mut NullSink)
    }

    /// [`run_batch`](Self::run_batch) with an event sink: the instances'
    /// event streams appear back-to-back on one cycle axis.
    pub fn run_batch_traced<S: TraceSink>(
        &self,
        instances: &[&[Matrix<MinPlus>]],
        sink: &mut S,
    ) -> Result<Design2BatchResult, SdpError> {
        self.run_batch_core(instances, &mut NoFaults, sink)
    }

    /// The shared single/batched driver.
    fn run_batch_core<S: TraceSink, F: FaultInjector>(
        &self,
        instances: &[&[Matrix<MinPlus>]],
        injector: &mut F,
        sink: &mut S,
    ) -> Result<Design2BatchResult, SdpError> {
        if instances.is_empty() {
            return Err(SdpError::EmptyBatch);
        }
        let (has_row, has_col) = self.validate(instances[0])?;
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
        let mut pes = vec![
            Pe2 {
                acc: MinPlus::zero(),
                s: MinPlus::zero(),
            };
            self.m
        ];
        let mut stats = Stats::new(self.m);
        let mut broadcast_words = 0u64;
        let mut values = Vec::with_capacity(instances.len());
        let mut paths = Vec::with_capacity(instances.len());
        for mats in instances {
            // Host reload between instances: the registers start clean.
            for pe in pes.iter_mut() {
                pe.acc = MinPlus::zero();
                pe.s = MinPlus::zero();
            }
            let (v, p) = self.run_instance(
                mats,
                has_row,
                has_col,
                &mut pes,
                &mut stats,
                &mut broadcast_words,
                injector,
                sink,
            );
            values.push(v);
            paths.push(p);
        }
        Ok(Design2BatchResult {
            values,
            paths,
            cycles: stats.cycles(),
            paper_iterations: (instances.len() * first.len() * self.m) as u64,
            stats,
            broadcast_words,
        })
    }

    /// Shape validation shared by the single and batched drivers.
    fn validate(&self, mats: &[Matrix<MinPlus>]) -> Result<(bool, bool), SdpError> {
        let m = self.m;
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

    /// One instance's broadcast phases on an already-validated string,
    /// accumulating into the caller's PE array and statistics (shared
    /// across a batch).  Returns the result values and recovered path.
    #[allow(clippy::too_many_arguments)]
    fn run_instance<S: TraceSink, F: FaultInjector>(
        &self,
        mats: &[Matrix<MinPlus>],
        has_row: bool,
        has_col: bool,
        pes: &mut [Pe2],
        stats: &mut Stats,
        broadcast_words: &mut u64,
        injector: &mut F,
        sink: &mut S,
    ) -> (Vec<Cost>, Option<Vec<usize>>) {
        let m = self.m;
        let interior = &mats[(has_row as usize)..(mats.len() - has_col as usize)];

        // Initial broadcast source: degenerate column, or zero-cost vector.
        let mut source: Vec<MinPlus> = if has_col {
            (0..m).map(|i| mats[mats.len() - 1].get(i, 0)).collect()
        } else {
            vec![MinPlus::one(); m]
        };

        // Interior phases, right-to-left; all identical in format.  Each
        // PE also latches the broadcast index that last improved its
        // accumulator — the per-stage successor pointer used to trace the
        // optimal path (the Design 3 "path register" idea carried over).
        let mut succ_rev: Vec<Vec<Option<usize>>> = Vec::with_capacity(interior.len());
        for mat in interior.iter().rev() {
            let mut arg: Vec<Option<usize>> = vec![None; m];
            for (j, &x) in source.iter().enumerate() {
                *broadcast_words += 1;
                let now = stats.cycles();
                if S::ENABLED {
                    sink.record(Event::CycleStart { cycle: now });
                    sink.record(Event::WordIn);
                    sink.record(Event::BusDrive { station: j as u32 });
                }
                stats.record_cycle();
                stats.record_input_word();
                stats.record_bus_word();
                for (i, pe) in pes.iter_mut().enumerate() {
                    let mut cand = mat.get(i, j).mul(x);
                    if F::ENABLED {
                        if let Some(fault) = injector.pe_fault(i as u32, now) {
                            if S::ENABLED {
                                sink.record(Event::FaultInjected {
                                    kind: fault.kind(),
                                    site: i as u32,
                                });
                            }
                            cand = cand.apply(fault);
                        }
                    }
                    if cand.0 < pe.acc.0 {
                        pe.acc = cand;
                        arg[i] = Some(j);
                    }
                    stats.record_busy(i);
                    if S::ENABLED {
                        sink.record(Event::PeFire {
                            pe: i as u32,
                            busy: true,
                            value: pe.acc.0.finite(),
                        });
                    }
                }
            }
            // MOVE: gate results into S, clear accumulators, feed back.
            for pe in pes.iter_mut() {
                pe.s = pe.acc;
                pe.acc = MinPlus::zero();
            }
            source = pes.iter().map(|pe| pe.s).collect();
            succ_rev.push(arg);
        }

        // Final row-vector phase: broadcast the current vector; only P₁
        // carries the row weights (the other PEs idle).
        let mut start_choice: Option<usize> = None;
        let values: Vec<Cost> = if has_row {
            let row = mats[0].row(0);
            let mut acc = MinPlus::zero();
            for (j, &x) in source.iter().enumerate() {
                *broadcast_words += 1;
                let now = stats.cycles();
                if S::ENABLED {
                    sink.record(Event::CycleStart { cycle: now });
                    sink.record(Event::WordIn);
                    sink.record(Event::BusDrive { station: j as u32 });
                }
                stats.record_cycle();
                stats.record_input_word();
                stats.record_bus_word();
                let mut cand = row[j].mul(x);
                if F::ENABLED {
                    if let Some(fault) = injector.pe_fault(0, now) {
                        if S::ENABLED {
                            sink.record(Event::FaultInjected {
                                kind: fault.kind(),
                                site: 0,
                            });
                        }
                        cand = cand.apply(fault);
                    }
                }
                if cand.0 < acc.0 {
                    acc = cand;
                    start_choice = Some(j);
                }
                stats.record_busy(0);
                if S::ENABLED {
                    // Only P₁ carries the row weights; the rest idle.
                    for i in 0..m as u32 {
                        sink.record(Event::PeFire {
                            pe: i,
                            busy: i == 0,
                            value: if i == 0 { acc.0.finite() } else { None },
                        });
                    }
                }
            }
            vec![acc.0]
        } else {
            source.iter().map(|v| v.0).collect()
        };

        // Trace the optimal path forward through the successor pointers.
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdp_multistage::{generate, solve, MultistageGraph};

    #[test]
    fn fig_1a_example() {
        let g = MultistageGraph::fig_1a();
        let res = Design2Array::new(3)
            .try_run(g.matrix_string(), &mut NoFaults, &mut NullSink)
            .unwrap();
        assert_eq!(res.optimum(), Cost::from(9));
    }

    #[test]
    fn agrees_with_design1_and_dp() {
        use crate::design1::Design1Array;
        for seed in 0..15 {
            let stages = 3 + (seed as usize % 6);
            let m = 1 + (seed as usize % 5);
            let g = generate::random_single_source_sink(seed, stages, m, 0, 30);
            let d1 = Design1Array::new(m)
                .try_run(g.matrix_string(), &mut NoFaults, &mut NullSink)
                .unwrap();
            let d2 = Design2Array::new(m)
                .try_run(g.matrix_string(), &mut NoFaults, &mut NullSink)
                .unwrap();
            let dp = solve::forward_dp(&g);
            assert_eq!(d2.optimum(), dp.cost, "seed {seed}");
            assert_eq!(d1.optimum(), d2.optimum(), "seed {seed}");
        }
    }

    #[test]
    fn uniform_string_vector_result() {
        let g = MultistageGraph::fig_1b();
        let res = Design2Array::new(3)
            .try_run(g.matrix_string(), &mut NoFaults, &mut NullSink)
            .unwrap();
        let want = sdp_semiring::Matrix::string_product(g.matrix_string());
        for (i, &v) in res.values.iter().enumerate() {
            let row_min = (0..3).map(|j| want.get(i, j).0).fold(Cost::INF, Cost::min);
            assert_eq!(v, row_min);
        }
    }

    #[test]
    fn cycle_count_is_exactly_n_m_minus_load() {
        // Broadcast phases: one cycle per broadcast word; interior phases
        // plus the optional row phase each take m cycles.
        let g = generate::random_single_source_sink(4, 8, 5, 0, 9);
        let res = Design2Array::new(5)
            .try_run(g.matrix_string(), &mut NoFaults, &mut NullSink)
            .unwrap();
        // stages=8 -> 7 matrices: row + 5 interior + col.
        // cycles = (5 interior + 1 row) * m = 30
        assert_eq!(res.cycles, 30);
        assert_eq!(res.paper_iterations, 35); // includes the column load
    }

    #[test]
    fn broadcast_word_count_equals_cycles() {
        let g = generate::random_uniform(9, 6, 4, 0, 9);
        let res = Design2Array::new(4)
            .try_run(g.matrix_string(), &mut NoFaults, &mut NullSink)
            .unwrap();
        assert_eq!(res.broadcast_words, res.cycles);
    }

    #[test]
    fn full_pe_utilization_in_interior_phases() {
        // With no row phase every PE is busy every cycle.
        let g = generate::random_uniform(2, 7, 3, 0, 9);
        let res = Design2Array::new(3)
            .try_run(g.matrix_string(), &mut NoFaults, &mut NullSink)
            .unwrap();
        assert!((res.stats.utilization().overall - 1.0).abs() < 1e-12);
    }

    #[test]
    fn m_equals_one() {
        let g = generate::random_uniform(5, 4, 1, 1, 5);
        let res = Design2Array::new(1)
            .try_run(g.matrix_string(), &mut NoFaults, &mut NullSink)
            .unwrap();
        assert_eq!(res.optimum(), solve::forward_dp(&g).cost);
    }

    #[test]
    fn recovered_path_achieves_the_optimum() {
        for seed in 0..12 {
            let stages = 3 + (seed as usize % 6);
            let m = 1 + (seed as usize % 5);
            let g = generate::random_single_source_sink(seed, stages, m, 0, 30);
            let res = Design2Array::new(m)
                .try_run(g.matrix_string(), &mut NoFaults, &mut NullSink)
                .unwrap();
            let path = res.path.clone().expect("finite optimum has a path");
            assert_eq!(path.len(), g.num_stages(), "seed {seed}");
            assert_eq!(solve::path_cost(&g, &path), res.optimum(), "seed {seed}");
        }
    }

    #[test]
    fn recovered_path_on_uniform_strings() {
        for seed in 0..8 {
            let g = generate::random_uniform(seed, 6, 4, 0, 20);
            let res = Design2Array::new(4)
                .try_run(g.matrix_string(), &mut NoFaults, &mut NullSink)
                .unwrap();
            let path = res.path.clone().expect("path");
            assert_eq!(solve::path_cost(&g, &path), res.optimum(), "seed {seed}");
        }
    }

    #[test]
    fn try_run_reports_shape_errors() {
        let arr = Design2Array::new(3);
        assert!(matches!(
            arr.try_run(&[], &mut NoFaults, &mut NullSink),
            Err(SdpError::EmptyMatrixString)
        ));
        let bad = Matrix::<MinPlus>::zeros(2, 2);
        assert!(matches!(
            arr.try_run(&[bad], &mut NoFaults, &mut NullSink),
            Err(SdpError::NotSquare { index: 0, m: 3 })
        ));
        assert!(matches!(
            Design2Array::try_new(0),
            Err(SdpError::BadParameter { name: "m", .. })
        ));
    }

    #[test]
    fn injected_fault_perturbs_and_no_faults_is_identity() {
        use sdp_fault::{Fault, FaultPlan, NoFaults, PlanInjector};
        use sdp_trace::CountingSink;
        let g = generate::random_single_source_sink(6, 6, 4, 5, 30);
        let arr = Design2Array::new(4);
        let clean = arr
            .try_run(g.matrix_string(), &mut NoFaults, &mut NullSink)
            .unwrap();
        let same = arr
            .try_run(g.matrix_string(), &mut NoFaults, &mut NullSink)
            .unwrap();
        assert_eq!(clean.values, same.values);
        assert_eq!(clean.cycles, same.cycles);
        let plan = FaultPlan::new().with(Fault::StuckAt {
            pe: 1,
            cycle: 0,
            value: 0,
        });
        let mut inj = PlanInjector::new(plan);
        let mut sink = CountingSink::default();
        let faulty = arr.try_run(g.matrix_string(), &mut inj, &mut sink).unwrap();
        assert_ne!(faulty.optimum(), clean.optimum());
        assert!(sink.faults_injected > 0);
        assert_eq!(faulty.cycles, clean.cycles, "value faults never stall");
    }

    #[test]
    fn batch_matches_sequential_runs() {
        let graphs: Vec<_> = (0..6)
            .map(|seed| generate::random_single_source_sink(seed, 5, 4, 0, 30))
            .collect();
        let strings: Vec<&[Matrix<MinPlus>]> = graphs.iter().map(|g| g.matrix_string()).collect();
        let arr = Design2Array::new(4);
        let batch = arr.run_batch(&strings).unwrap();
        let mut seq_cycles = 0;
        for (t, s) in strings.iter().enumerate() {
            let single = arr.try_run(s, &mut NoFaults, &mut NullSink).unwrap();
            assert_eq!(batch.values[t], single.values, "t={t}");
            assert_eq!(batch.paths[t], single.path, "t={t}");
            seq_cycles += single.cycles;
        }
        // Broadcast arrays have no fill/drain: batch == concatenation.
        assert_eq!(batch.cycles, seq_cycles);
    }

    #[test]
    fn batch_trace_is_concatenation_of_singles() {
        use sdp_trace::RecordingSink;
        let graphs: Vec<_> = (0..3)
            .map(|seed| generate::random_uniform(seed, 5, 3, 0, 20))
            .collect();
        let strings: Vec<&[Matrix<MinPlus>]> = graphs.iter().map(|g| g.matrix_string()).collect();
        let arr = Design2Array::new(3);
        let mut batch_sink = RecordingSink::default();
        let _ = arr.run_batch_traced(&strings, &mut batch_sink).unwrap();
        // Each instance's stream equals its solo stream, except cycle
        // numbers continue across the batch instead of restarting.
        let mut expect = Vec::new();
        let mut offset = 0u64;
        for s in &strings {
            let mut sink = RecordingSink::default();
            let single = arr.try_run(s, &mut NoFaults, &mut sink).unwrap();
            expect.extend(sink.events.into_iter().map(|e| match e {
                Event::CycleStart { cycle } => Event::CycleStart {
                    cycle: cycle + offset,
                },
                other => other,
            }));
            offset += single.cycles;
        }
        assert_eq!(batch_sink.events, expect);
    }

    #[test]
    fn batch_shape_errors_are_typed() {
        let arr = Design2Array::new(3);
        assert!(matches!(arr.run_batch(&[]), Err(SdpError::EmptyBatch)));
        let g1 = generate::random_uniform(1, 5, 3, 0, 9);
        let g2 = generate::random_uniform(2, 6, 3, 0, 9);
        let strings = [g1.matrix_string(), g2.matrix_string()];
        assert!(matches!(
            arr.run_batch(&strings),
            Err(SdpError::BatchShapeMismatch { index: 1 })
        ));
    }

    #[test]
    fn sparse_graph_path_valid_or_absent() {
        for seed in 0..10 {
            let g = generate::random_sparse(seed, 5, 3, 1, 9, 0.5);
            let res = Design2Array::new(3)
                .try_run(g.matrix_string(), &mut NoFaults, &mut NullSink)
                .unwrap();
            if let Some(path) = &res.path {
                assert_eq!(solve::path_cost(&g, path), res.optimum(), "seed {seed}");
            } else {
                assert!(res.optimum().is_inf());
            }
        }
    }
}
