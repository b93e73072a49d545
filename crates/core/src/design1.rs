//! **Design 1** — the pipelined linear systolic array of Fig. 3.
//!
//! The array multiplies a string of min-plus matrices with *alternating*
//! data movement, steered by the paper's control signals:
//!
//! * in an **odd** (stationary-result) phase the input vector is shifted
//!   through the pipeline while each PE accumulates one result element in
//!   its accumulator `Aᵢ` (`ODDᵢ = 1`: register `Rᵢ` drives the output);
//! * at the phase boundary the `MOVE` pulse copies `Aᵢ → Rᵢ`, turning the
//!   result vector into the next phase's stationary operand;
//! * in an **even** (moving-result) phase the matrix is fed transposed
//!   (the `i`-th column into `Pᵢ`) and partial results flow through the
//!   pipeline, each picking up `min(y, bⱼᵢ + Rᵢ)` per hop (`ODDᵢ = 0`:
//!   the accumulator drives the output).
//!
//! Control switches ripple one PE per cycle; the simulation realizes this
//! by having each PE switch phases after processing exactly `m` items,
//! which is equivalent because items advance one PE per cycle.
//!
//! For an `(N+1)`-stage single-source/single-sink graph (`N` matrices,
//! `m` nodes per intermediate stage) the paper charges `N·m` iterations on
//! `m` PEs (Eq. 9); the simulation reports measured cycles alongside.

use sdp_fault::{FaultInjector, NoFaults, RecoveryStats, SdpError};
use sdp_semiring::{Cost, Matrix, MinPlus, Semiring};
use sdp_systolic::{LinearArray, ProcessingElement, Stats};
use sdp_trace::{Event, NullSink, TraceSink};
use std::sync::Arc;

/// Phase schedule entry, carrying its own operand data.  A batched run
/// concatenates the phase lists of every instance into one schedule, so
/// each phase must be self-contained (no shared `mid`/`row` side tables).
#[derive(Clone, Debug)]
enum PhaseSpec {
    /// Results accumulate in place; the operand vector shifts through.
    /// Carries the m×m matrix consumed in this phase.
    Stationary(Matrix<MinPlus>),
    /// Operand vector is stationary (in `R`); partial results shift.
    Moving(Matrix<MinPlus>),
    /// Final 1×m row-vector phase executed as a moving pass
    /// (previous results already sit in `R`).
    FinalRowMoving(Vec<MinPlus>),
    /// Final 1×m row-vector phase executed head-side: the vector streams
    /// in and `P₁` alone accumulates the scalar.
    FinalRowHead(Vec<MinPlus>),
    /// Identity moving pass draining the stationary registers out the
    /// tail between batched instances: item `j` picks up `Rⱼ` at PE `j`
    /// (the identity matrix is `1̄` on the diagonal, `0̄` elsewhere).
    /// Carries the item count — `m` to drain every register, `1` to
    /// drain only `R₀` after a head-accumulated scalar.
    Flush(usize),
}

/// Immutable per-run data shared by all PEs: the matrix elements each PE
/// reads on a given (phase, item) — the software stand-in for the skewed
/// off-chip streams of Fig. 3(a).
struct Feed {
    m: usize,
    phases: Vec<PhaseSpec>,
}

impl Feed {
    /// Matrix element PE `i` needs for item `j` of phase `p`.
    fn element(&self, p: usize, i: usize, j: usize) -> MinPlus {
        match &self.phases[p] {
            // result row i accumulates over arriving vector elements j
            PhaseSpec::Stationary(mat) => mat.get(i, j),
            // partial result j passes PE i holding stationary element i
            PhaseSpec::Moving(mat) => mat.get(j, i),
            PhaseSpec::FinalRowMoving(row) => row[i],
            PhaseSpec::FinalRowHead(row) => {
                if i == 0 {
                    row[j]
                } else {
                    MinPlus::zero()
                }
            }
            PhaseSpec::Flush(_) => {
                if i == j {
                    MinPlus::one()
                } else {
                    MinPlus::zero()
                }
            }
        }
    }

    /// Items processed per PE in phase `p`.
    fn items(&self, p: usize) -> usize {
        match &self.phases[p] {
            PhaseSpec::FinalRowMoving(_) => 1,
            PhaseSpec::Flush(k) => *k,
            _ => self.m,
        }
    }
}

/// One PE of Design 1 (Fig. 3(b)): registers `Rᵢ` (stationary operand)
/// and `Aᵢ` (accumulator), with the phase state machine standing in for
/// the rippled ODD/MOVE control lines.
pub struct Design1Pe {
    index: usize,
    feed: Arc<Feed>,
    r: MinPlus,
    acc: MinPlus,
    phase: usize,
    count: usize,
    busy: bool,
}

impl Design1Pe {
    fn new(index: usize, feed: Arc<Feed>) -> Design1Pe {
        Design1Pe {
            index,
            feed,
            r: MinPlus::zero(),
            acc: MinPlus::zero(),
            phase: 0,
            count: 0,
            busy: false,
        }
    }

    /// The stationary register `Rᵢ` (holds a result element after MOVE).
    pub fn r(&self) -> Cost {
        self.r.0
    }

    fn advance(&mut self) {
        self.count += 1;
        if self.phase < self.feed.phases.len() && self.count == self.feed.items(self.phase) {
            // End of phase at this PE.  In a stationary phase the MOVE
            // pulse transfers the accumulated result into R.
            if matches!(
                self.feed.phases[self.phase],
                PhaseSpec::Stationary(_) | PhaseSpec::FinalRowHead(_)
            ) {
                self.r = self.acc;
                self.acc = MinPlus::zero();
            }
            self.phase += 1;
            self.count = 0;
        }
    }
}

impl ProcessingElement for Design1Pe {
    type Flow = MinPlus;
    type Ext = ();
    type Ctrl = ();

    fn step(&mut self, flow_in: Option<MinPlus>, _: (), _: ()) -> Option<MinPlus> {
        let Some(x) = flow_in else {
            self.busy = false;
            return None;
        };
        self.busy = true;
        let p = self.phase;
        debug_assert!(p < self.feed.phases.len(), "item after final phase");
        let c = self.feed.element(p, self.index, self.count);
        let out = match self.feed.phases[p] {
            PhaseSpec::Stationary(_) => {
                // Aᵢ ⊕= c ⊗ x  (min-plus: Aᵢ = min(Aᵢ, c + x))
                self.acc = self.acc.add(c.mul(x));
                x // the operand vector shifts on
            }
            PhaseSpec::Moving(_) | PhaseSpec::FinalRowMoving(_) | PhaseSpec::Flush(_) => {
                // y' = y ⊕ (c ⊗ Rᵢ)
                x.add(c.mul(self.r))
            }
            PhaseSpec::FinalRowHead(_) => {
                if self.index == 0 {
                    self.acc = self.acc.add(c.mul(x));
                }
                x
            }
        };
        self.advance();
        Some(out)
    }

    fn was_busy(&self) -> bool {
        self.busy
    }

    /// Waveform probe: the stationary register `Rᵢ` (INF maps to `x`).
    fn probe(&self) -> Option<i64> {
        self.r.0.finite()
    }
}

/// Where each injected item's value comes from.
enum Source {
    /// A known value (initial vector, or an INF partial-result token).
    Value(MinPlus),
    /// The tail output of global item `q` (feedback of a moving phase).
    Tail(usize),
}

/// Where one instance's results come out of the schedule.
enum Extract {
    /// The m tail outputs of a final moving phase starting at item `base`.
    MovingTail(usize),
    /// The single tail output of a final row-moving phase (item `base`).
    RowMovingTail(usize),
    /// `count` tail outputs of a flush phase starting at item `base`.
    FlushTail { base: usize, count: usize },
    /// The stationary registers `R₀..R_{m−1}` after the run (last
    /// instance of the batch only — nothing runs after it).
    Registers,
    /// The single register `R₀` after the run (head-accumulated scalar).
    Register0,
}

/// The result of one Design 1 run.
#[derive(Clone, Debug)]
pub struct Design1Result {
    /// The final values: scalar optimum (single-source/sink strings) or
    /// the stage-1 cost vector (uniform strings).
    pub values: Vec<Cost>,
    /// Measured makespan in clock cycles.
    pub cycles: u64,
    /// The paper's charged iteration count `N·m`.
    pub paper_iterations: u64,
    /// Engine statistics (busy counts, I/O words).
    pub stats: Stats,
}

impl Design1Result {
    /// The scalar optimum (minimum over `values`).
    pub fn optimum(&self) -> Cost {
        self.values.iter().copied().fold(Cost::INF, Cost::min)
    }

    /// Measured processor utilization against a serial iteration count.
    pub fn measured_pu(&self, serial_iterations: u64) -> f64 {
        self.stats.processor_utilization(serial_iterations)
    }

    /// The paper's PU (serial iterations over `N·m · m`).
    pub fn paper_pu(&self, serial_iterations: u64, m: u64) -> f64 {
        serial_iterations as f64 / (self.paper_iterations * m) as f64
    }
}

/// The result of a batched Design 1 run: `B` independent matrix strings
/// pipelined back-to-back through one array.
#[derive(Clone, Debug)]
pub struct Design1BatchResult {
    /// `values[t]` = instance `t`'s final values (scalar optimum or
    /// stage-1 cost vector, exactly as [`Design1Result::values`]).
    pub values: Vec<Vec<Cost>>,
    /// Measured makespan in clock cycles for the whole batch.
    pub cycles: u64,
    /// The paper's charged iteration count summed over the batch:
    /// `B·N·m`.
    pub paper_iterations: u64,
    /// Engine statistics for the whole batch.
    pub stats: Stats,
}

impl Design1BatchResult {
    /// The scalar optimum of instance `t`.
    pub fn optimum(&self, t: usize) -> Cost {
        self.values[t].iter().copied().fold(Cost::INF, Cost::min)
    }

    /// Measured PU against the summed serial iteration count.
    pub fn measured_pu(&self, serial_iterations: u64) -> f64 {
        self.stats.processor_utilization(serial_iterations)
    }
}

/// The Design 1 array driver.
pub struct Design1Array {
    m: usize,
}

impl Design1Array {
    /// An array of `m` PEs (one per intermediate-stage vertex).
    pub fn new(m: usize) -> Design1Array {
        Self::try_new(m).unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`new`](Self::new) that reports `m < 1` as a typed error instead
    /// of panicking.
    pub fn try_new(m: usize) -> Result<Design1Array, SdpError> {
        if m < 1 {
            return Err(SdpError::BadParameter {
                name: "m",
                got: m as u64,
                min: 1,
            });
        }
        Ok(Design1Array { m })
    }

    /// Runs the array on a matrix string shaped
    /// `[1×m]? , [m×m]* , [m×1]?` (at least one matrix), exactly the
    /// shapes produced by [`sdp_multistage::MultistageGraph`]; a
    /// malformed string is a typed error.
    ///
    /// Returns the computed values together with timing statistics.
    /// `sink` observes every clock cycle, PE firing, latch commit, and
    /// host I/O word; tracing never changes results or timing.
    /// `injector` corrupts PE output words as they cross the inter-PE
    /// latches.  Faults perturb *values* only (the pipeline never
    /// wedges), so the run completes and returns a possibly wrong
    /// [`Design1Result`] — detection and recovery live in
    /// [`crate::resilient`].
    pub fn try_run<S: TraceSink, F: FaultInjector>(
        &self,
        mats: &[Matrix<MinPlus>],
        injector: &mut F,
        sink: &mut S,
    ) -> Result<Design1Result, SdpError> {
        self.run_core(mats, injector, sink, None)
    }

    /// Spare-column remapping: runs the string on a physical array of
    /// `m + 1` PEs with the known-faulty column `failed_pe` fused out
    /// (bypassed to a one-cycle wire) and its work shifted one column
    /// toward the spare — the 1985 VLSI repair strategy for a stuck PE
    /// found by test.  The injector still targets *physical* columns, so
    /// a plan faulting `failed_pe` is routed around and cannot corrupt
    /// the run.
    ///
    /// Emits a `PeRemapped { failed, spare }` event and returns the
    /// result alongside [`RecoveryStats`] whose `extra_cycles` is the
    /// measured makespan cost of the longer pipeline (baseline/actual
    /// rounds hold the fault-free and remapped cycle counts).
    pub fn run_with_spare_traced<S: TraceSink, F: FaultInjector>(
        &self,
        mats: &[Matrix<MinPlus>],
        failed_pe: usize,
        injector: &mut F,
        sink: &mut S,
    ) -> Result<(Design1Result, RecoveryStats), SdpError> {
        if failed_pe > self.m {
            return Err(SdpError::BadParameter {
                name: "failed_pe",
                got: failed_pe as u64,
                min: 0,
            });
        }
        let baseline = self.run_core(mats, &mut NoFaults, &mut NullSink, None)?;
        if S::ENABLED {
            sink.record(Event::PeRemapped {
                failed: failed_pe as u32,
                spare: self.m as u32,
            });
        }
        let res = self.run_core(mats, injector, sink, Some(failed_pe))?;
        let stats = RecoveryStats {
            baseline_rounds: baseline.cycles,
            actual_rounds: res.cycles,
            extra_cycles: res.cycles.saturating_sub(baseline.cycles),
            ..RecoveryStats::default()
        };
        Ok((res, stats))
    }

    /// Streams a batch of same-shaped matrix strings back-to-back through
    /// one array: instance `t+1`'s first vector enters the head on the
    /// cycle after instance `t`'s last item, so the pipeline-fill latency
    /// is paid once for the whole batch instead of once per instance and
    /// measured PU rises toward the Eq. 9 asymptote.  Instances whose
    /// results end in the stationary registers are drained by an identity
    /// *flush* pass before the next instance begins.  An empty batch or an
    /// instance whose shape sequence differs from instance 0's is a typed
    /// error.
    pub fn run_batch(
        &self,
        instances: &[&[Matrix<MinPlus>]],
    ) -> Result<Design1BatchResult, SdpError> {
        self.run_batch_traced(instances, &mut NullSink)
    }

    /// [`run_batch`](Self::run_batch) with an event sink.  A batch of one
    /// emits exactly the event stream of [`try_run`](Self::try_run).
    pub fn run_batch_traced<S: TraceSink>(
        &self,
        instances: &[&[Matrix<MinPlus>]],
        sink: &mut S,
    ) -> Result<Design1BatchResult, SdpError> {
        self.run_batch_core(instances, &mut NoFaults, sink, None)
    }

    /// Single-instance wrapper over the batch core: validates the string
    /// shape and runs the pipelined simulation.  `spare_for = Some(f)`
    /// builds `m + 1` physical columns with physical column `f` bypassed
    /// (logical PEs shift past it).
    fn run_core<S: TraceSink, F: FaultInjector>(
        &self,
        mats: &[Matrix<MinPlus>],
        injector: &mut F,
        sink: &mut S,
        spare_for: Option<usize>,
    ) -> Result<Design1Result, SdpError> {
        let instances = [mats];
        let Design1BatchResult {
            mut values,
            cycles,
            paper_iterations,
            stats,
        } = self.run_batch_core(&instances, injector, sink, spare_for)?;
        Ok(Design1Result {
            values: values.pop().expect("one instance"),
            cycles,
            paper_iterations,
            stats,
        })
    }

    /// Shape checks shared by single and batched runs.  Returns
    /// `(has_row, has_col)` for a valid string.
    fn validate(m: usize, mats: &[Matrix<MinPlus>]) -> Result<(bool, bool), SdpError> {
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

    /// The shared single/batched driver: builds one concatenated phase
    /// schedule covering every instance, drives the array through it, and
    /// extracts each instance's results from the tail stream (or, for the
    /// final instance, the registers).
    fn run_batch_core<S: TraceSink, F: FaultInjector>(
        &self,
        instances: &[&[Matrix<MinPlus>]],
        injector: &mut F,
        sink: &mut S,
        spare_for: Option<usize>,
    ) -> Result<Design1BatchResult, SdpError> {
        let m = self.m;
        if instances.is_empty() {
            return Err(SdpError::EmptyBatch);
        }
        let first = instances[0];
        let (has_row, has_col) = Self::validate(m, first)?;
        for (index, mats) in instances.iter().enumerate().skip(1) {
            let same = mats.len() == first.len()
                && mats
                    .iter()
                    .zip(first.iter())
                    .all(|(a, b)| a.rows() == b.rows() && a.cols() == b.cols());
            if !same {
                return Err(SdpError::BatchShapeMismatch { index });
            }
        }
        let bn = instances.len();
        let p_count = first.len() - has_row as usize - has_col as usize;
        let paper_iterations = (bn * first.len() * m) as u64;

        // Initial vector: the degenerate last column, or the all-one
        // (zero-cost) vector for multi-sink strings.
        let v0 = |mats: &[Matrix<MinPlus>]| -> Vec<MinPlus> {
            if has_col {
                (0..m).map(|i| mats[mats.len() - 1].get(i, 0)).collect()
            } else {
                vec![MinPlus::one(); m]
            }
        };

        // Degenerate string: only the m×1 column — nothing to pipeline;
        // each instance's column is its per-source answer.
        if p_count == 0 && !has_row {
            return Ok(Design1BatchResult {
                values: instances
                    .iter()
                    .map(|mats| v0(mats).iter().map(|v| v.0).collect())
                    .collect(),
                cycles: 0,
                paper_iterations,
                stats: sdp_systolic::Stats::new(m),
            });
        }

        // Build the concatenated schedule: per instance, phases consume
        // interior matrices right-to-left, alternating — plus the
        // injection plan (one Source per global item) and the extraction
        // map, in one pass so tail feedback stays intra-instance.
        enum LastKind {
            Moving,
            RowMoving,
            Stationary,
            RowHead,
        }
        let mut phases: Vec<PhaseSpec> = Vec::new();
        let mut plan: Vec<Source> = Vec::new();
        let mut extracts: Vec<Extract> = Vec::with_capacity(bn);
        for (t, mats) in instances.iter().enumerate() {
            let mid_src = &mats[(has_row as usize)..(mats.len() - has_col as usize)];
            let inst_first = phases.len();
            let mut prev_base = 0usize;
            for (pos, ti) in (0..p_count).rev().enumerate() {
                let base = plan.len();
                if pos % 2 == 0 {
                    if phases.len() == inst_first {
                        plan.extend(v0(mats).into_iter().map(Source::Value));
                    } else {
                        // previous phase was Moving: its tail outputs are
                        // the vector to stream in.
                        plan.extend((0..m).map(|j| Source::Tail(prev_base + j)));
                    }
                    phases.push(PhaseSpec::Stationary(mid_src[ti].clone()));
                } else {
                    plan.extend((0..m).map(|_| Source::Value(MinPlus::zero())));
                    phases.push(PhaseSpec::Moving(mid_src[ti].clone()));
                }
                prev_base = base;
            }
            if has_row {
                let row = mats[0].row(0).to_vec();
                let base = plan.len();
                if p_count % 2 == 1 {
                    // last interior phase was Stationary: results sit in
                    // R, the row executes as a moving pass.
                    plan.push(Source::Value(MinPlus::zero()));
                    phases.push(PhaseSpec::FinalRowMoving(row));
                } else {
                    if p_count == 0 {
                        plan.extend(v0(mats).into_iter().map(Source::Value));
                    } else {
                        plan.extend((0..m).map(|j| Source::Tail(prev_base + j)));
                    }
                    phases.push(PhaseSpec::FinalRowHead(row));
                }
                prev_base = base;
            }
            // Extraction — plus an identity flush pass when the results
            // sit in R and another instance follows (whose MOVE pulses
            // would overwrite the registers).
            let last_kind = match phases.last().expect("at least one phase") {
                PhaseSpec::Moving(_) => LastKind::Moving,
                PhaseSpec::FinalRowMoving(_) => LastKind::RowMoving,
                PhaseSpec::Stationary(_) => LastKind::Stationary,
                PhaseSpec::FinalRowHead(_) => LastKind::RowHead,
                PhaseSpec::Flush(_) => unreachable!("flush is never a real last phase"),
            };
            match last_kind {
                LastKind::Moving => extracts.push(Extract::MovingTail(prev_base)),
                LastKind::RowMoving => extracts.push(Extract::RowMovingTail(prev_base)),
                LastKind::Stationary => {
                    if t + 1 == bn {
                        extracts.push(Extract::Registers);
                    } else {
                        let base = plan.len();
                        plan.extend((0..m).map(|_| Source::Value(MinPlus::zero())));
                        phases.push(PhaseSpec::Flush(m));
                        extracts.push(Extract::FlushTail { base, count: m });
                    }
                }
                LastKind::RowHead => {
                    if t + 1 == bn {
                        extracts.push(Extract::Register0);
                    } else {
                        let base = plan.len();
                        plan.push(Source::Value(MinPlus::zero()));
                        phases.push(PhaseSpec::Flush(1));
                        extracts.push(Extract::FlushTail { base, count: 1 });
                    }
                }
            }
        }
        let feed = Arc::new(Feed { m, phases });

        // Drive the array cycle by cycle.  With a spare, the physical
        // array has m + 1 columns; logical PE `l` sits at physical
        // column `l` before the fused-out column and `l + 1` after it.
        let physical = |l: usize| match spare_for {
            Some(f) if l >= f => l + 1,
            _ => l,
        };
        let pes: Vec<Design1Pe> = match spare_for {
            None => (0..m)
                .map(|i| Design1Pe::new(i, Arc::clone(&feed)))
                .collect(),
            Some(f) => (0..=m)
                .map(|p| {
                    // Logical index for physical column p (the bypassed
                    // column's PE is never stepped; index is unused).
                    let logical = if p < f { p } else { p.saturating_sub(1) };
                    Design1Pe::new(logical.min(m - 1), Arc::clone(&feed))
                })
                .collect(),
        };
        let mut array = LinearArray::new(pes);
        if let Some(f) = spare_for {
            array.set_bypass(f, true);
        }
        let columns = array.len() as u64;
        let total_items = plan.len();
        let mut tail_out: Vec<Option<MinPlus>> = vec![None; total_items];
        let mut injected = 0usize;
        let mut drained = 0usize;
        let budget = (total_items + 2) as u64 * (columns + 2) + 16;
        while drained < total_items {
            let head = if injected < total_items {
                let ready = match plan[injected] {
                    Source::Value(v) => Some(v),
                    Source::Tail(q) => tail_out[q],
                };
                if ready.is_some() {
                    injected += 1;
                }
                ready
            } else {
                None
            };
            if let Some(out) = array.cycle(head, |_| (), |_| (), injector, sink) {
                tail_out[drained] = Some(out);
                drained += 1;
            }
            assert!(
                array.stats().cycles() < budget,
                "design1 simulation did not converge (deadlock)"
            );
        }

        // Extract each instance's results (register reads go through the
        // logical → physical column map).
        let values: Vec<Vec<Cost>> = extracts
            .iter()
            .map(|e| match *e {
                Extract::MovingTail(base) => {
                    (0..m).map(|j| tail_out[base + j].unwrap().0).collect()
                }
                Extract::RowMovingTail(item) => vec![tail_out[item].unwrap().0],
                Extract::FlushTail { base, count } => {
                    (0..count).map(|j| tail_out[base + j].unwrap().0).collect()
                }
                Extract::Registers => (0..m).map(|l| array.pes()[physical(l)].r()).collect(),
                Extract::Register0 => vec![array.pes()[physical(0)].r()],
            })
            .collect();
        Ok(Design1BatchResult {
            values,
            cycles: array.stats().cycles(),
            paper_iterations,
            stats: array.stats().clone(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdp_multistage::{generate, solve, MultistageGraph};

    fn reference(mats: &[Matrix<MinPlus>]) -> Matrix<MinPlus> {
        Matrix::string_product(mats)
    }

    #[test]
    fn fig_1a_example() {
        let g = MultistageGraph::fig_1a();
        let arr = Design1Array::new(3);
        let res = arr
            .try_run(g.matrix_string(), &mut NoFaults, &mut NullSink)
            .unwrap();
        let want = reference(g.matrix_string());
        assert_eq!(res.values, vec![want.get(0, 0).0]);
        assert_eq!(res.optimum(), Cost::from(9));
        // N = 4 matrices, m = 3: charged 12 iterations.
        assert_eq!(res.paper_iterations, 12);
    }

    #[test]
    fn uniform_multi_sink_string() {
        let g = MultistageGraph::fig_1b();
        let arr = Design1Array::new(3);
        let res = arr
            .try_run(g.matrix_string(), &mut NoFaults, &mut NullSink)
            .unwrap();
        let want = reference(g.matrix_string());
        // result vector = stage-1 costs to best sink: row minima
        for (i, &v) in res.values.iter().enumerate() {
            let row_min = (0..3).map(|j| want.get(i, j).0).fold(Cost::INF, Cost::min);
            assert_eq!(v, row_min, "row {i}");
        }
    }

    #[test]
    fn random_single_source_sink_matches_dp() {
        for seed in 0..20 {
            let stages = 3 + (seed as usize % 6);
            let m = 1 + (seed as usize % 5);
            let g = generate::random_single_source_sink(seed, stages.max(3), m, 0, 30);
            let arr = Design1Array::new(m);
            let res = arr
                .try_run(g.matrix_string(), &mut NoFaults, &mut NullSink)
                .unwrap();
            let dp = solve::forward_dp(&g);
            assert_eq!(res.optimum(), dp.cost, "seed {seed} stages {stages} m {m}");
        }
    }

    #[test]
    fn random_uniform_matches_matrix_product() {
        for seed in 0..20 {
            let stages = 2 + (seed as usize % 7);
            let m = 1 + (seed as usize % 4);
            let g = generate::random_uniform(seed, stages, m, 0, 25);
            let arr = Design1Array::new(m);
            let res = arr
                .try_run(g.matrix_string(), &mut NoFaults, &mut NullSink)
                .unwrap();
            let want = reference(g.matrix_string());
            for (i, &v) in res.values.iter().enumerate() {
                let row_min = (0..m).map(|j| want.get(i, j).0).fold(Cost::INF, Cost::min);
                assert_eq!(v, row_min, "seed {seed} row {i}");
            }
        }
    }

    #[test]
    fn single_matrix_pair_row_col() {
        // [1×m]·[m×1]: pure FinalRowHead path.
        let row = Matrix::from_rows(1, 3, [1, 5, 2].into_iter().map(MinPlus::from).collect());
        let col = Matrix::from_rows(3, 1, [4, 0, 9].into_iter().map(MinPlus::from).collect());
        let arr = Design1Array::new(3);
        let res = arr
            .try_run(&[row, col], &mut NoFaults, &mut NullSink)
            .unwrap();
        assert_eq!(res.optimum(), Cost::from(5)); // min(1+4, 5+0, 2+9)
    }

    #[test]
    fn m_equals_one_degenerates_gracefully() {
        let g = generate::random_uniform(3, 5, 1, 0, 9);
        let arr = Design1Array::new(1);
        let res = arr
            .try_run(g.matrix_string(), &mut NoFaults, &mut NullSink)
            .unwrap();
        assert_eq!(res.optimum(), solve::forward_dp(&g).cost);
    }

    #[test]
    fn makespan_close_to_paper_iterations() {
        // The makespan exceeds the charged N·m iterations only by the
        // pipeline fill latency (< m + phases).
        for (stages, m) in [(6usize, 4usize), (10, 3), (4, 8)] {
            let g = generate::random_single_source_sink(1, stages, m, 0, 9);
            let res = Design1Array::new(m)
                .try_run(g.matrix_string(), &mut NoFaults, &mut NullSink)
                .unwrap();
            let n_mats = (stages - 1) as u64;
            assert!(res.cycles >= res.paper_iterations - (m as u64));
            assert!(
                res.cycles <= n_mats * m as u64 + (m as u64) + n_mats + 4,
                "stages {stages} m {m}: cycles {} vs N*m {}",
                res.cycles,
                res.paper_iterations
            );
        }
    }

    #[test]
    fn pu_approaches_one_for_long_strings() {
        let m = 4usize;
        let g = generate::random_single_source_sink(2, 40, m, 0, 9);
        let res = Design1Array::new(m)
            .try_run(g.matrix_string(), &mut NoFaults, &mut NullSink)
            .unwrap();
        let n_mats = (g.num_stages() - 1) as u64;
        let serial = solve::SerialCounts::matrix_string(n_mats, m as u64);
        let pu = res.paper_pu(serial, m as u64);
        let eq9 = solve::SerialCounts::eq9_pu(n_mats, m as u64);
        assert!((pu - eq9).abs() < 1e-9, "pu {pu} vs eq9 {eq9}");
        assert!(pu > 0.9);
    }

    #[test]
    fn busy_fraction_is_high_in_steady_state() {
        let m = 3usize;
        let g = generate::random_single_source_sink(7, 30, m, 0, 9);
        let res = Design1Array::new(m)
            .try_run(g.matrix_string(), &mut NoFaults, &mut NullSink)
            .unwrap();
        assert!(res.stats.utilization().overall > 0.8);
    }

    #[test]
    #[should_panic(expected = "m x m")]
    fn wrong_interior_shape_rejected() {
        let arr = Design1Array::new(3);
        let bad = Matrix::<MinPlus>::zeros(2, 2);
        arr.try_run(&[bad], &mut NoFaults, &mut NullSink)
            .unwrap_or_else(|e| panic!("{e}"));
    }

    #[test]
    fn single_column_matrix_string() {
        // A lone m×1 column (2-stage multi-source/single-sink graph) is a
        // valid shape: the answer is the column itself.
        let col = Matrix::from_rows(3, 1, [5, 2, 7].into_iter().map(MinPlus::from).collect());
        let res = Design1Array::new(3)
            .try_run(&[col], &mut NoFaults, &mut NullSink)
            .unwrap();
        assert_eq!(
            res.values,
            vec![Cost::from(5), Cost::from(2), Cost::from(7)]
        );
    }

    #[test]
    #[should_panic(expected = "too short")]
    fn single_1x1_matrix_with_wide_array_rejected_clearly() {
        // A 1×1 matrix read as both row and column for m = 3 is a shape
        // error and must fail with a message, not a slice-range panic.
        let one = Matrix::from_rows(1, 1, vec![MinPlus::from(4)]);
        let _ = Design1Array::new(3)
            .try_run(&[one], &mut NoFaults, &mut NullSink)
            .unwrap_or_else(|e| panic!("{e}"));
    }

    #[test]
    fn try_run_reports_shape_errors() {
        let arr = Design1Array::new(3);
        assert!(matches!(
            arr.try_run(&[], &mut NoFaults, &mut NullSink),
            Err(SdpError::EmptyMatrixString)
        ));
        let bad = Matrix::<MinPlus>::zeros(2, 2);
        assert!(matches!(
            arr.try_run(&[bad], &mut NoFaults, &mut NullSink),
            Err(SdpError::NotSquare { index: 0, m: 3 })
        ));
        let one = Matrix::from_rows(1, 1, vec![MinPlus::from(4)]);
        assert!(matches!(
            arr.try_run(&[one], &mut NoFaults, &mut NullSink),
            Err(SdpError::StringTooShort { got: 1, need: 2 })
        ));
        assert!(matches!(
            Design1Array::try_new(0),
            Err(SdpError::BadParameter { name: "m", .. })
        ));
    }

    #[test]
    fn fault_free_injector_reproduces_plain_run() {
        use sdp_fault::NoFaults;
        let g = generate::random_single_source_sink(5, 6, 4, 0, 30);
        let arr = Design1Array::new(4);
        let plain = arr
            .try_run(g.matrix_string(), &mut NoFaults, &mut NullSink)
            .unwrap();
        let faulted = arr
            .try_run(g.matrix_string(), &mut NoFaults, &mut NullSink)
            .unwrap();
        assert_eq!(plain.values, faulted.values);
        assert_eq!(plain.cycles, faulted.cycles);
        assert_eq!(plain.stats, faulted.stats);
    }

    #[test]
    fn stuck_pe_corrupts_then_spare_recovers() {
        use sdp_fault::{Fault, FaultPlan, PlanInjector};
        use sdp_trace::CountingSink;
        let g = generate::random_single_source_sink(11, 6, 4, 5, 30);
        let arr = Design1Array::new(4);
        let clean = arr
            .try_run(g.matrix_string(), &mut NoFaults, &mut NullSink)
            .unwrap();
        let plan = FaultPlan::new().with(Fault::StuckAt {
            pe: 2,
            cycle: 0,
            value: 0,
        });
        // The stuck column silently corrupts the DP value...
        let mut inj = PlanInjector::new(plan.clone());
        let faulty = arr
            .try_run(g.matrix_string(), &mut inj, &mut NullSink)
            .unwrap();
        assert_ne!(faulty.optimum(), clean.optimum());
        // ...spare-column remapping restores the exact answer, at a
        // measured makespan cost.
        let mut inj = PlanInjector::new(plan);
        let mut sink = CountingSink::default();
        let (fixed, rstats) = arr
            .run_with_spare_traced(g.matrix_string(), 2, &mut inj, &mut sink)
            .unwrap();
        assert_eq!(fixed.optimum(), clean.optimum());
        assert_eq!(fixed.values, clean.values);
        assert!(
            rstats.extra_cycles > 0,
            "spare column adds pipeline latency"
        );
        assert_eq!(rstats.extra_cycles, fixed.cycles - clean.cycles);
        assert_eq!(sink.pes_remapped, 1);
        assert_eq!(sink.faults_injected, 0, "bypass shields the stuck column");
    }

    #[test]
    fn batch_matches_sequential_runs() {
        // Shapes covering every extraction path: FinalRowMoving (even
        // stage count), FinalRowHead (odd), uniform strings ending
        // Stationary and Moving (flush drains R between instances), and
        // m = 1 strings of bare 1×1 matrices.  Tail-extracted shapes
        // (`no_slower = true`) must not lose cycles to batching;
        // register-extracted shapes pay an explicit flush pass to drain
        // R between instances (single runs read R for free), so only
        // value equality is asserted there.
        // (stage count, no_slower gate, instance strings per case)
        type BatchCase = (usize, bool, Vec<Vec<Matrix<MinPlus>>>);
        let cases: Vec<BatchCase> = vec![
            (
                4,
                true,
                (0..5)
                    .map(|s| {
                        generate::random_single_source_sink(s, 6, 4, 0, 30)
                            .matrix_string()
                            .to_vec()
                    })
                    .collect(),
            ),
            (
                3,
                true,
                (0..4)
                    .map(|s| {
                        generate::random_single_source_sink(s + 50, 7, 3, 0, 30)
                            .matrix_string()
                            .to_vec()
                    })
                    .collect(),
            ),
            (
                3,
                false,
                (0..4)
                    .map(|s| {
                        generate::random_uniform(s, 4, 3, 0, 25)
                            .matrix_string()
                            .to_vec()
                    })
                    .collect(),
            ),
            (
                3,
                true,
                (0..4)
                    .map(|s| {
                        generate::random_uniform(s + 9, 5, 3, 0, 25)
                            .matrix_string()
                            .to_vec()
                    })
                    .collect(),
            ),
            (
                1,
                true,
                (0..3)
                    .map(|s| {
                        generate::random_uniform(s, 5, 1, 0, 9)
                            .matrix_string()
                            .to_vec()
                    })
                    .collect(),
            ),
        ];
        for (case, (m, no_slower, strings)) in cases.into_iter().enumerate() {
            let arr = Design1Array::new(m);
            let refs: Vec<&[Matrix<MinPlus>]> = strings.iter().map(|s| s.as_slice()).collect();
            let batch = arr.run_batch(&refs).unwrap();
            let mut sequential_cycles = 0u64;
            for (t, s) in strings.iter().enumerate() {
                let single = arr.try_run(s, &mut NoFaults, &mut NullSink).unwrap();
                assert_eq!(batch.values[t], single.values, "case {case} instance {t}");
                sequential_cycles += single.cycles;
            }
            if no_slower {
                assert!(
                    batch.cycles <= sequential_cycles,
                    "case {case}: batch {} vs sequential {}",
                    batch.cycles,
                    sequential_cycles
                );
            }
        }
    }

    #[test]
    fn batch_of_one_emits_single_run_event_stream() {
        use sdp_trace::RecordingSink;
        let g = generate::random_single_source_sink(21, 6, 4, 0, 30);
        let arr = Design1Array::new(4);
        let mut single_sink = RecordingSink::default();
        let single = arr
            .try_run(g.matrix_string(), &mut NoFaults, &mut single_sink)
            .unwrap();
        let mut batch_sink = RecordingSink::default();
        let batch = arr
            .run_batch_traced(&[g.matrix_string()], &mut batch_sink)
            .unwrap();
        assert_eq!(batch.values, vec![single.values.clone()]);
        assert_eq!(batch.cycles, single.cycles);
        assert_eq!(batch_sink.events, single_sink.events);
    }

    #[test]
    fn batch_pu_exceeds_single_pu() {
        // B = 16 single-source/sink instances: the pipeline-fill latency
        // is paid once instead of 16 times, so measured PU rises.
        let (stages, m, b) = (6usize, 4usize, 16usize);
        let strings: Vec<Vec<Matrix<MinPlus>>> = (0..b as u64)
            .map(|s| {
                generate::random_single_source_sink(s, stages, m, 0, 30)
                    .matrix_string()
                    .to_vec()
            })
            .collect();
        let refs: Vec<&[Matrix<MinPlus>]> = strings.iter().map(|s| s.as_slice()).collect();
        let arr = Design1Array::new(m);
        let n_mats = (stages - 1) as u64;
        let serial = solve::SerialCounts::matrix_string(n_mats, m as u64);
        let single = arr
            .try_run(&strings[0], &mut NoFaults, &mut NullSink)
            .unwrap();
        let single_pu = single.measured_pu(serial);
        let batch = arr.run_batch(&refs).unwrap();
        let batch_pu = batch.measured_pu(serial * b as u64);
        assert!(
            batch_pu > single_pu,
            "batch {batch_pu} should beat single {single_pu}"
        );
        assert!(
            batch.cycles < single.cycles * b as u64,
            "batch {} vs {}x single {}",
            batch.cycles,
            b,
            single.cycles
        );
    }

    #[test]
    fn batch_shape_errors_are_typed() {
        let arr = Design1Array::new(3);
        assert!(matches!(arr.run_batch(&[]), Err(SdpError::EmptyBatch)));
        let a = generate::random_single_source_sink(1, 6, 3, 0, 9);
        let b = generate::random_single_source_sink(2, 7, 3, 0, 9);
        assert!(matches!(
            arr.run_batch(&[a.matrix_string(), b.matrix_string()]),
            Err(SdpError::BatchShapeMismatch { index: 1 })
        ));
        let u = generate::random_uniform(3, 4, 3, 0, 9);
        assert!(matches!(
            arr.run_batch(&[a.matrix_string(), u.matrix_string()]),
            Err(SdpError::BatchShapeMismatch { index: 1 })
        ));
    }
}
