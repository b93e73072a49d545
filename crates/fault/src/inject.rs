//! The injector hook trait the simulation engine consults.
//!
//! Mirrors the `TraceSink`/`NullSink` pattern from `sdp-trace`: engine
//! hot loops guard every hook behind `if F::ENABLED { ... }`, and
//! [`NoFaults`] sets `ENABLED = false`, so the fault-free path compiles
//! to exactly the code it had before fault injection existed.
//!
//! The injector returns *actions* ([`PeFault`], [`BusFault`]) rather
//! than touching words itself; the engine applies them through the
//! [`FaultyWord`] trait at the site where the concrete word type is
//! known.  This keeps the trait object-simple and lets designs whose
//! words carry routing state (e.g. Design 3's tagged items) corrupt
//! only the payload, never the flow control.

use crate::plan::{Fault, FaultPlan};
use sdp_semiring::{BoolOr, Cost, CountPlus, MaxPlus, MinPlus};
use sdp_trace::FaultKind;

/// A corruption to apply to one PE output word.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PeFault {
    /// Flip one payload bit.
    FlipBit(u32),
    /// Replace the payload with a stuck value.
    StuckAt(i64),
}

impl PeFault {
    /// The trace-level class of this action.
    pub fn kind(self) -> FaultKind {
        match self {
            PeFault::FlipBit(_) => FaultKind::TransientFlip,
            PeFault::StuckAt(_) => FaultKind::StuckAt,
        }
    }
}

/// A failure to apply to one bus word.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BusFault {
    /// The word never arrives (and the token does not advance).
    Drop,
    /// The word arrives with one payload bit flipped.
    FlipBit(u32),
}

impl BusFault {
    /// The trace-level class of this action.
    pub fn kind(self) -> FaultKind {
        match self {
            BusFault::Drop => FaultKind::DroppedBusWord,
            BusFault::FlipBit(_) => FaultKind::CorruptBusWord,
        }
    }
}

/// Decides, site by site, which failures fire during a run.
///
/// All hooks have no-op defaults so targeted injectors override only
/// the class they care about.  Ordinals follow [`Fault`]'s conventions:
/// `cycle` is the array clock, `word` counts bus words driven,
/// `rotation` counts token advances, `task` counts scheduled tasks.
pub trait FaultInjector {
    /// Whether this injector can fire at all.  `false` lets the engine
    /// fold every hook (and its argument construction) away.
    const ENABLED: bool = true;

    /// Corruption for the word PE `pe` emits this `cycle` (the engine
    /// only asks when the PE actually emitted a word).
    fn pe_fault(&mut self, pe: u32, cycle: u64) -> Option<PeFault> {
        let _ = (pe, cycle);
        None
    }

    /// Failure for the `word`-th word driven on the shared bus.
    fn bus_fault(&mut self, word: u64) -> Option<BusFault> {
        let _ = word;
        None
    }

    /// True when the `rotation`-th token advance is lost.
    fn token_lost(&mut self, rotation: u64) -> bool {
        let _ = rotation;
        false
    }

    /// True when the worker running scheduled task `task` dies.
    fn worker_dies(&mut self, task: u64) -> bool {
        let _ = task;
        false
    }
}

/// The zero-overhead default: no faults, hooks compile away.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NoFaults;

impl FaultInjector for NoFaults {
    const ENABLED: bool = false;
}

/// Forwarding through a mutable reference, so call sites can pass
/// `&mut injector` without consuming it.
impl<F: FaultInjector> FaultInjector for &mut F {
    const ENABLED: bool = F::ENABLED;

    #[inline]
    fn pe_fault(&mut self, pe: u32, cycle: u64) -> Option<PeFault> {
        (**self).pe_fault(pe, cycle)
    }

    #[inline]
    fn bus_fault(&mut self, word: u64) -> Option<BusFault> {
        (**self).bus_fault(word)
    }

    #[inline]
    fn token_lost(&mut self, rotation: u64) -> bool {
        (**self).token_lost(rotation)
    }

    #[inline]
    fn worker_dies(&mut self, task: u64) -> bool {
        (**self).worker_dies(task)
    }
}

/// Replays a [`FaultPlan`] against one run.
///
/// One-shot faults (transient flips, bus faults, token losses, worker
/// kills) are consumed when they fire and stay fired for the lifetime
/// of the injector — rerunning a computation through the *same*
/// injector sees a clean pass, which is exactly what lets
/// recompute-on-mismatch recover from transients.  `StuckAt` is
/// permanent and keeps firing; only TMR or spare remapping recovers it.
#[derive(Clone, Debug)]
pub struct PlanInjector {
    plan: FaultPlan,
    fired: Vec<bool>,
}

impl PlanInjector {
    /// An injector that will replay `plan`.
    pub fn new(plan: FaultPlan) -> PlanInjector {
        let n = plan.len();
        PlanInjector {
            plan,
            fired: vec![false; n],
        }
    }

    /// Faults that have fired so far, in plan order.
    pub fn fired(&self) -> Vec<Fault> {
        self.plan
            .faults()
            .iter()
            .zip(&self.fired)
            .filter_map(|(f, &hit)| hit.then_some(*f))
            .collect()
    }

    /// Re-arms every one-shot fault (for replaying the plan against a
    /// fresh run rather than modelling a persistent machine).
    pub fn rearm(&mut self) {
        self.fired.iter_mut().for_each(|f| *f = false);
    }
}

impl FaultInjector for PlanInjector {
    fn pe_fault(&mut self, pe: u32, cycle: u64) -> Option<PeFault> {
        for (i, fault) in self.plan.faults().iter().enumerate() {
            match *fault {
                Fault::TransientFlip {
                    pe: p,
                    cycle: c,
                    bit,
                } if p == pe && cycle >= c && !self.fired[i] => {
                    self.fired[i] = true;
                    return Some(PeFault::FlipBit(bit));
                }
                Fault::StuckAt {
                    pe: p,
                    cycle: c,
                    value,
                } if p == pe && cycle >= c => {
                    self.fired[i] = true;
                    return Some(PeFault::StuckAt(value));
                }
                _ => {}
            }
        }
        None
    }

    fn bus_fault(&mut self, word: u64) -> Option<BusFault> {
        for (i, fault) in self.plan.faults().iter().enumerate() {
            match *fault {
                Fault::DropBusWord { word: w } if w == word && !self.fired[i] => {
                    self.fired[i] = true;
                    return Some(BusFault::Drop);
                }
                Fault::CorruptBusWord { word: w, bit } if w == word && !self.fired[i] => {
                    self.fired[i] = true;
                    return Some(BusFault::FlipBit(bit));
                }
                _ => {}
            }
        }
        None
    }

    fn token_lost(&mut self, rotation: u64) -> bool {
        for (i, fault) in self.plan.faults().iter().enumerate() {
            if let Fault::LoseTokenRotation { rotation: r } = *fault {
                if r == rotation && !self.fired[i] {
                    self.fired[i] = true;
                    return true;
                }
            }
        }
        false
    }

    fn worker_dies(&mut self, task: u64) -> bool {
        for (i, fault) in self.plan.faults().iter().enumerate() {
            if let Fault::KillWorker { task: t } = *fault {
                if t == task && !self.fired[i] {
                    self.fired[i] = true;
                    return true;
                }
            }
        }
        false
    }
}

/// A word the engine knows how to corrupt.
///
/// Implementations corrupt the *payload* only: words that piggyback
/// routing or control state (tags, path registers) keep that state
/// intact so a fault produces a wrong answer, not a wedged pipeline —
/// matching the classical stuck-at model where the datapath latch
/// fails but the control plane keeps clocking.
pub trait FaultyWord: Copy {
    /// Flip one payload bit.
    fn flip_bit(self, bit: u32) -> Self;

    /// Replace the payload with a stuck value.
    fn stuck_at(self, value: i64) -> Self;

    /// Apply a PE fault action.
    #[inline]
    fn apply(self, fault: PeFault) -> Self {
        match fault {
            PeFault::FlipBit(bit) => self.flip_bit(bit),
            PeFault::StuckAt(value) => self.stuck_at(value),
        }
    }
}

impl FaultyWord for i64 {
    fn flip_bit(self, bit: u32) -> i64 {
        self ^ (1i64 << (bit % 63))
    }

    fn stuck_at(self, value: i64) -> i64 {
        value
    }
}

impl FaultyWord for u64 {
    fn flip_bit(self, bit: u32) -> u64 {
        self ^ (1u64 << (bit % 64))
    }

    fn stuck_at(self, value: i64) -> u64 {
        value as u64
    }
}

impl FaultyWord for u32 {
    fn flip_bit(self, bit: u32) -> u32 {
        self ^ (1u32 << (bit % 32))
    }

    fn stuck_at(self, value: i64) -> u32 {
        value as u32
    }
}

impl FaultyWord for Cost {
    fn flip_bit(self, bit: u32) -> Cost {
        // Saturate so a flipped bit can never forge the reserved INF.
        Cost::saturating_from(self.raw() ^ (1i64 << (bit % 63)))
    }

    fn stuck_at(self, value: i64) -> Cost {
        Cost::saturating_from(value)
    }
}

impl FaultyWord for MinPlus {
    fn flip_bit(self, bit: u32) -> MinPlus {
        MinPlus(self.0.flip_bit(bit))
    }

    fn stuck_at(self, value: i64) -> MinPlus {
        MinPlus(self.0.stuck_at(value))
    }
}

impl FaultyWord for MaxPlus {
    fn flip_bit(self, bit: u32) -> MaxPlus {
        MaxPlus(self.0.flip_bit(bit))
    }

    fn stuck_at(self, value: i64) -> MaxPlus {
        MaxPlus(self.0.stuck_at(value))
    }
}

/// A boolean word has one payload bit: any flip inverts it, and a
/// stuck-at value is true when non-zero.
impl FaultyWord for BoolOr {
    fn flip_bit(self, _bit: u32) -> BoolOr {
        BoolOr(!self.0)
    }

    fn stuck_at(self, value: i64) -> BoolOr {
        BoolOr(value != 0)
    }
}

impl FaultyWord for CountPlus {
    fn flip_bit(self, bit: u32) -> CountPlus {
        CountPlus(self.0.flip_bit(bit))
    }

    fn stuck_at(self, value: i64) -> CountPlus {
        CountPlus(self.0.stuck_at(value))
    }
}

/// Pairs corrupt the first element (payload) and keep the second
/// (piggybacked routing/auxiliary state) intact.
impl<A: FaultyWord, B: Copy> FaultyWord for (A, B) {
    fn flip_bit(self, bit: u32) -> (A, B) {
        (self.0.flip_bit(bit), self.1)
    }

    fn stuck_at(self, value: i64) -> (A, B) {
        (self.0.stuck_at(value), self.1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_faults_is_disabled_and_inert() {
        const { assert!(!NoFaults::ENABLED) };
        const { assert!(!<&mut NoFaults as FaultInjector>::ENABLED) };
        let mut inj = NoFaults;
        assert_eq!(inj.pe_fault(0, 0), None);
        assert_eq!(inj.bus_fault(0), None);
        assert!(!inj.token_lost(0));
        assert!(!inj.worker_dies(0));
    }

    #[test]
    fn transient_fires_once_at_or_after_cycle() {
        let plan = FaultPlan::new().with(Fault::TransientFlip {
            pe: 1,
            cycle: 5,
            bit: 3,
        });
        let mut inj = PlanInjector::new(plan);
        assert_eq!(inj.pe_fault(1, 4), None); // too early
        assert_eq!(inj.pe_fault(0, 6), None); // wrong PE
        assert_eq!(inj.pe_fault(1, 6), Some(PeFault::FlipBit(3)));
        assert_eq!(inj.pe_fault(1, 7), None); // consumed
        assert_eq!(inj.fired().len(), 1);
        inj.rearm();
        assert_eq!(inj.pe_fault(1, 5), Some(PeFault::FlipBit(3)));
    }

    #[test]
    fn stuck_at_persists() {
        let plan = FaultPlan::new().with(Fault::StuckAt {
            pe: 0,
            cycle: 2,
            value: 99,
        });
        let mut inj = PlanInjector::new(plan);
        assert_eq!(inj.pe_fault(0, 1), None);
        assert_eq!(inj.pe_fault(0, 2), Some(PeFault::StuckAt(99)));
        assert_eq!(inj.pe_fault(0, 50), Some(PeFault::StuckAt(99)));
    }

    #[test]
    fn bus_token_and_worker_faults_fire_once() {
        let plan = FaultPlan::new()
            .with(Fault::DropBusWord { word: 2 })
            .with(Fault::CorruptBusWord { word: 4, bit: 1 })
            .with(Fault::LoseTokenRotation { rotation: 3 })
            .with(Fault::KillWorker { task: 1 });
        let mut inj = PlanInjector::new(plan);
        assert_eq!(inj.bus_fault(1), None);
        assert_eq!(inj.bus_fault(2), Some(BusFault::Drop));
        assert_eq!(inj.bus_fault(2), None);
        assert_eq!(inj.bus_fault(4), Some(BusFault::FlipBit(1)));
        assert!(!inj.token_lost(2));
        assert!(inj.token_lost(3));
        assert!(!inj.token_lost(3));
        assert!(inj.worker_dies(1));
        assert!(!inj.worker_dies(1));
    }

    #[test]
    fn faulty_words_corrupt_payload_only() {
        assert_eq!(5i64.flip_bit(1), 7);
        assert_eq!(5i64.stuck_at(42), 42);
        assert_eq!((5u64, 9u64).flip_bit(1), (7, 9));
        assert_eq!((5u64, 9u64).stuck_at(1), (1, 9));
        let c = Cost::from(5).flip_bit(1);
        assert_eq!(c, Cost::from(7));
        // Flipping the top bit of INF saturates instead of forging INF.
        assert!(Cost::INF.flip_bit(0).is_finite());
        assert_eq!(
            MinPlus::from(5).apply(PeFault::StuckAt(3)),
            MinPlus::from(3)
        );
    }
}
