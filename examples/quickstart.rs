//! Quickstart: solve one shortest-path DP problem four ways.
//!
//! ```text
//! cargo run --example quickstart
//! ```
//!
//! Builds a random multistage graph, solves it with sequential DP and all
//! three of the paper's systolic designs, and prints the agreement plus
//! the timing/utilization numbers the paper analyses.

use systolic_dp::prelude::*;

fn main() {
    let stages = 12;
    let m = 5;
    println!("== systolic-dp quickstart ==");
    println!("problem: {stages}-stage shortest path, {m} states per stage\n");

    // --- edge-cost form: sequential DP vs Designs 1 and 2 --------------
    let g = generate::random_single_source_sink(7, stages, m, 0, 99);
    let dp = solve::forward_dp(&g);
    println!(
        "sequential forward DP  : cost {} ({} iterations)",
        dp.cost, dp.iterations
    );

    let d1 = Design1Array::new(m)
        .try_run(g.matrix_string(), &mut NoFaults, &mut NullSink)
        .unwrap();
    println!(
        "design 1 (pipelined)   : cost {} ({} cycles, charged N*m = {})",
        d1.optimum(),
        d1.cycles,
        d1.paper_iterations
    );

    let d2 = Design2Array::new(m)
        .try_run(g.matrix_string(), &mut NoFaults, &mut NullSink)
        .unwrap();
    println!(
        "design 2 (broadcast)   : cost {} ({} cycles, {} bus words)",
        d2.optimum(),
        d2.cycles,
        d2.broadcast_words
    );

    assert_eq!(d1.optimum(), dp.cost);
    assert_eq!(d2.optimum(), dp.cost);

    // --- node-value form: Design 3 with path recovery -------------------
    let nv = generate::node_value_random(
        7,
        stages,
        m,
        Box::new(systolic_dp::multistage::node_value::AbsDiff),
        -50,
        50,
    );
    let d3 = Design3Array::new(m)
        .try_run(&nv, &mut NoFaults, &mut NullSink)
        .unwrap();
    let (node_io, edge_io) = nv.io_words();
    println!(
        "design 3 (node-value)  : cost {} ({} cycles = (N+1)m, I/O {} vs {} words)",
        d3.cost, d3.cycles, node_io, edge_io
    );
    println!("optimal path (vertex per stage): {:?}", d3.path);
    let check = solve::backward_dp(&nv.to_multistage());
    assert_eq!(d3.cost, check.cost);

    // --- what does Table 1 say about this problem? ----------------------
    let rec = table1(Formulation::MONADIC_SERIAL);
    println!(
        "\nTable 1 says: \"{}\" -> {} [{}]",
        rec.characteristic, rec.method, rec.requirements
    );
    println!("\nall four solution paths agree ✓");
}
