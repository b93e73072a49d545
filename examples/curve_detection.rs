//! Curve detection by dynamic programming — the application of the
//! paper's reference [9] (Clarke & Dyer's systolic array for curve and
//! line detection).
//!
//! ```text
//! cargo run --example curve_detection
//! ```
//!
//! A synthetic edge-magnitude image contains one smooth curve buried in
//! noise.  Columns become stages, rows become states, and the maximum-
//! merit smooth curve is the shortest path in the resulting multistage
//! graph — solvable both by sequential DP and by the Design 1 systolic
//! array.  Legend: `@` detected on truth, `*` missed truth, `o` false
//! detection, `+` bright noise, `.` background.

use sdp_multistage::curve::{CurveConfig, SyntheticImage};
use systolic_dp::prelude::*;

fn main() {
    let (width, height) = (64, 14);
    println!("== curve detection by dynamic programming ==");
    let img = SyntheticImage::generate(2024, width, height, 100, 55);
    println!("{width}x{height} image, signal 100, noise <= 55, curvature penalty 3\n");

    let cfg = CurveConfig::default();
    let det = img.detect(cfg);
    println!("{}", img.render(&det.rows));
    println!(
        "accuracy (within 1 row): {:.1}%   path cost: {}",
        100.0 * img.accuracy(&det.rows, 1),
        det.cost
    );

    // The same detection on the Design 1 systolic array: identical cost.
    let g = img.to_multistage(cfg);
    let d1 = Design1Array::new(height)
        .try_run(g.matrix_string(), &mut NoFaults, &mut NullSink)
        .unwrap();
    let best = d1.values.iter().copied().fold(Cost::INF, Cost::min);
    assert_eq!(best, det.cost);
    println!(
        "\nDesign 1 array: same optimum {} in {} cycles over {} PEs \
         (serial DP needs {} iterations)",
        best,
        d1.cycles,
        height,
        solve::forward_dp(&g).iterations
    );

    // And via branch-and-bound with dominance (the §1 search view):
    let bnb = sdp_multistage::bnb::search(&g, Default::default());
    assert_eq!(bnb.cost, det.cost);
    println!(
        "branch-and-bound with dominance: {} expansions ({} vertices), {} dominated",
        bnb.expanded,
        g.num_vertices(),
        bnb.dominated
    );
}
