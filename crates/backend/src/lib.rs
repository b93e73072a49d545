//! Compiled direct-execution backends for the four DP classes.
//!
//! The cycle-accurate engines in `sdp-core` pay O(cycles × PEs) of host
//! work per instance — the right cost model for *validating* the
//! paper's Eq. 9 / Thm 1 claims, and the wrong one for *serving*
//! production-sized problems.  This crate re-solves each recurrence as
//! a blocked, cache-aware sweep over plain arrays and returns the exact
//! result types of the simulated engines:
//!
//! * **answers are bit-identical** — every value, path, split, and
//!   distance matches the simulator's output exactly (the min-plus
//!   folds are order-independent, and where a tie-break is observable,
//!   such as the Design 2 path latches, the scan order is replicated
//!   literally);
//! * **`Stats` are analytic** — cycle counts, busy vectors, and I/O
//!   words come from the paper's closed forms (Design 1's pipelined
//!   `items + m − 1`, Design 2's `N·m` broadcast count, the mesh's
//!   `p + q + r − 2` and `|a| + |b| − 1` makespans, and their batched
//!   variants) via [`sdp_systolic::Stats::from_parts`], so downstream
//!   Stats consumers cannot tell a direct run from a simulated one.
//!
//! The `sdp-oracle` `conformance_backend` suite differential-tests
//! every solver here against both the simulator and the from-scratch
//! reference solvers, including full-field `Stats` equality on every
//! overlapping size.
//!
//! | module | class | direct strategy |
//! |--------|-------|-----------------|
//! | [`multistage`] | monadic serial | right-to-left row-major min-plus vector folds |
//! | [`matmul`] | polyadic serial | the blocked `Matrix::mul` kernel |
//! | [`edit`] | monadic nonserial | Myers/Hyyrö bit-parallel columns, 64 rows per `u64`, O(σ·⌈min(m,n)/64⌉) memory |
//! | [`interval`] | polyadic nonserial | diagonal sweep over raw finite `i64` with a transposed mirror table and a branch-free first-strict-minimum fold |
//! | [`align`] | monadic nonserial | rolling-row SW/Gotoh/banded, monomorphised per scoring, per-row band ranges, row-level argmax |
//! | [`knapsack`] | monadic serial | double-buffered row, one independent `max(old, base + v)` pass per item, decision bits packed 64 to a word |
//!
//! The kernels use no `unsafe`, no target features and no runtime CPU
//! dispatch: they are written so the baseline x86-64 build pipelines
//! them (independent cells per pass, selects instead of branches where
//! the data decide), and `tests/kernel_edges.rs` holds them to the
//! `sdp-oracle` reference solvers at every word, band, weight and
//! saturation boundary.

pub mod align;
pub mod edit;
pub mod interval;
pub mod knapsack;
pub mod matmul;
pub mod multistage;

pub use align::{
    gotoh_direct, gotoh_direct_batch, sw_banded_direct, sw_banded_direct_batch, sw_direct,
    sw_direct_batch,
};
pub use edit::{edit_direct, edit_direct_batch};
pub use interval::{bst_direct, chain_direct, chain_steps};
pub use knapsack::{knapsack_direct, knapsack_direct_batch, knapsack_direct_recovered};
pub use matmul::{matmul_direct, matmul_direct_batch};
pub use multistage::{design1_direct, design1_direct_batch, design2_direct, design2_direct_batch};
