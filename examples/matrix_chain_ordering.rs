//! Matrix-chain ordering — the paper's running polyadic-nonserial
//! example (§2.1, §4, §6.2) — end to end.
//!
//! ```text
//! cargo run --example matrix_chain_ordering
//! ```
//!
//! 1. solve the *secondary optimization problem* (optimal
//!    parenthesization, Eq. 6);
//! 2. build its AND/OR-graph (Fig. 2) and serialize it with dummy nodes
//!    (Fig. 8);
//! 3. time both processor mappings (Propositions 2 and 3);
//! 4. execute the optimal multiply tree as a dataflow graph on K workers
//!    (end of §4).

use sdp_systolic::scheduler::{DagScheduler, DagTask};
use systolic_dp::prelude::*;

fn main() {
    let dims: Vec<u64> = vec![30, 35, 15, 5, 10, 20, 25];
    let n = dims.len() - 1;
    println!("== matrix-chain ordering ==");
    println!("dimensions r0..r{n}: {dims:?}\n");

    // 1. the DP itself
    let sol = matrix_chain_order(&dims);
    println!("optimal cost   : {} scalar multiplications", sol.cost);
    println!("parenthesization: {}", sol.parenthesization());

    // 2. AND/OR graph and Fig. 8 serialization
    let andor = systolic_dp::andor::chain::build_chain_andor(&dims);
    println!(
        "\nAND/OR graph   : {} nodes, {} arcs, serial = {}",
        andor.graph.len(),
        andor.graph.num_arcs(),
        andor.graph.is_serial()
    );
    let ser = serialize(&andor.graph);
    println!(
        "serialized     : +{} dummy nodes, serial = {} (value preserved: {})",
        ser.dummies,
        ser.graph.is_serial(),
        ser.graph.evaluate(&|_| None)[ser.id_map[andor.root]] == sol.cost
    );

    // 3. the two array mappings
    let bc = simulate_chain_array(&dims, ChainMapping::Broadcast);
    let pl = simulate_chain_array(&dims, ChainMapping::Pipelined);
    println!(
        "\nbroadcast array: {} steps  (Prop. 2 says T_d(N) = N = {n})",
        bc.finish
    );
    println!(
        "pipelined array: {} steps  (Prop. 3 says T_p(N) = 2N = {})",
        pl.finish,
        2 * n
    );
    assert_eq!(bc.cost, sol.cost);
    assert_eq!(pl.cost, sol.cost);

    // 4. execute the multiply tree as a dataflow graph
    let (tree, _root) = sol.multiply_tree(&dims);
    let tasks: Vec<DagTask> = tree
        .iter()
        .map(|&(l, r, flops)| DagTask {
            duration: flops,
            deps: [l, r].into_iter().flatten().collect(),
        })
        .collect();
    println!("\nexecuting the optimal multiply tree as a dataflow graph:");
    for k in [1usize, 2, 4] {
        let sched = DagScheduler.try_schedule(&tasks, k).unwrap();
        println!(
            "  K = {k}: makespan {:>6} flop-units (total work {})",
            sched.makespan,
            tasks.iter().map(|t| t.duration).sum::<u64>()
        );
    }
    println!("\nall mappings agree with the DP optimum ✓");
}
