//! Traffic-light timing — the first application named in §2.2.
//!
//! ```text
//! cargo run --example traffic_control
//! ```
//!
//! "For a traffic-control problem, Xᵢ can be the possible times for the
//! traffic light to be in state i, and the cost on an edge of the graph
//! representation is the difference in timings."  The node-value form
//! (Eq. 4) lets the Fig. 5 array solve this with only the candidate
//! times as input — the per-edge costs are computed inside the PEs.

use systolic_dp::prelude::*;

fn main() {
    let states = 8; // light phases in the cycle plan
    let slots = 6; // candidate switch times per phase
    println!("== traffic-light timing (Design 3 / Fig. 5) ==");
    println!("{states} signal phases, {slots} candidate times each\n");

    let plan: NodeValueGraph = generate::traffic_light(2024, states, slots);
    for s in 0..states {
        println!("phase {s}: candidate times {:?}", plan.stage_values(s));
    }

    let res = Design3Array::new(slots)
        .try_run(&plan, &mut NoFaults, &mut NullSink)
        .unwrap();
    println!("\noptimal total timing disruption: {}", res.cost);
    print!("chosen schedule: ");
    let times: Vec<i64> = res
        .path
        .iter()
        .enumerate()
        .map(|(s, &j)| plan.stage_values(s)[j])
        .collect();
    println!("{times:?}");

    println!(
        "\narray ran {} cycles ((N+1)*m = {}), fed {} node values \
         (edge-cost form would need {})",
        res.cycles,
        (states + 1) * slots,
        res.input_words - 1,
        plan.io_words().1
    );
    println!(
        "PU = {:.3} (paper predicts {:.3})",
        res.measured_pu(solve::SerialCounts::node_value(states as u64, slots as u64)),
        solve::SerialCounts::design3_pu(states as u64, slots as u64)
    );

    // Independent verification against sequential DP + brute force.
    let ms = plan.to_multistage();
    let dp = solve::backward_dp(&ms);
    assert_eq!(res.cost, dp.cost);
    assert_eq!(solve::path_cost(&ms, &res.path), res.cost);
    let (bf, _) = solve::brute_force(&ms);
    assert_eq!(bf, res.cost);
    println!("\nverified against sequential DP and brute force ✓");
}
