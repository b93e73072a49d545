//! Integration: full application pipelines — generator → formulation →
//! transform → array → verification — for each Table 1 row.

use systolic_dp::prelude::*;

/// Monadic-serial: each §2.2 application, node-value form, through
/// Design 3 with path recovery, verified by brute force.
#[test]
fn monadic_serial_applications() {
    let apps: Vec<(&str, NodeValueGraph)> = vec![
        ("traffic", generate::traffic_light(10, 5, 4)),
        ("voltage", generate::circuit_voltage(10, 5, 4)),
        ("fluid", generate::fluid_flow(10, 5, 4)),
        ("scheduling", generate::task_scheduling(10, 5, 4)),
    ];
    for (name, g) in apps {
        let res = Design3Array::new(4)
            .try_run(&g, &mut NoFaults, &mut NullSink)
            .unwrap();
        let ms = g.to_multistage();
        let (bf, _) = solve::brute_force(&ms);
        assert_eq!(res.cost, bf, "{name}");
        assert_eq!(solve::path_cost(&ms, &res.path), res.cost, "{name}");
    }
}

/// Polyadic-serial: the same multistage problem solved monadically
/// (string product) and polyadically (p-partition AND/OR graph and the
/// K-array schedule), with identical optima.
#[test]
fn polyadic_serial_route() {
    let m = 3usize;
    let n_mats = 8usize;
    let g = generate::random_uniform(21, n_mats + 1, m, 0, 60);

    // monadic route
    let monadic = Design1Array::new(m)
        .try_run(g.matrix_string(), &mut NoFaults, &mut NullSink)
        .unwrap();

    // polyadic route: binary partition AND/OR graph
    let pg = build_partition_graph(n_mats, m, 2);
    let reduced = pg.evaluate_on(g.matrix_string());
    let poly_best = (0..m)
        .flat_map(|i| (0..m).map(move |j| (i, j)))
        .map(|(i, j)| reduced.get(i, j).0)
        .fold(Cost::INF, Cost::min);
    let mono_best = monadic.values.iter().copied().fold(Cost::INF, Cost::min);
    assert_eq!(poly_best, mono_best);

    // and the K-array schedule executes the same tree on host threads
    let (tree_prod, rounds) = dnc::ParallelExecutor::new(2)
        .try_multiply_string(g.matrix_string(), None)
        .unwrap();
    assert_eq!(tree_prod, reduced);
    let schedule =
        systolic_dp::systolic::TreeScheduler.try_simulate(n_mats as u64, 2, &mut NullSink);
    assert_eq!(rounds, schedule.unwrap().rounds);
}

/// Monadic-nonserial: ternary-chain objective → grouping transform →
/// serial graph → Design 1, all agreeing with brute force.
#[test]
fn monadic_nonserial_route() {
    let domains: Vec<Vec<i64>> = (0..5).map(|i| vec![i, i + 2, 2 * i + 1]).collect();
    let chain = TernaryChain::uniform(domains, |a, b, c| {
        Cost::from((a + b - c).abs() + (a - b).abs())
    });
    let (bf, _) = chain.brute_force();
    let (elim, steps) = chain.eliminate();
    assert_eq!(elim, bf);
    assert_eq!(steps, chain.eq40_steps());

    let serial = chain.group_to_serial();
    let m = serial.stage_size(0);
    assert!(serial.is_uniform());
    let d1 = Design1Array::new(m)
        .try_run(serial.matrix_string(), &mut NoFaults, &mut NullSink)
        .unwrap();
    let best = d1.values.iter().copied().fold(Cost::INF, Cost::min);
    assert_eq!(best, bf);
}

/// Polyadic-nonserial: matrix-chain ordering → serialized AND/OR graph →
/// pipelined array → dataflow execution of the winning tree.
#[test]
fn polyadic_nonserial_route() {
    use sdp_systolic::scheduler::{DagScheduler, DagTask};
    let dims = generate::random_chain_dims(33, 7, 2, 25);
    let sol = matrix_chain_order(&dims);

    let pl = simulate_chain_array(&dims, ChainMapping::Pipelined);
    assert_eq!(pl.cost, sol.cost);

    let (tree, root) = sol.multiply_tree(&dims);
    assert_eq!(root, tree.len() - 1);
    let tasks: Vec<DagTask> = tree
        .iter()
        .map(|&(l, r, flops)| DagTask {
            duration: flops,
            deps: [l, r].into_iter().flatten().collect(),
        })
        .collect();
    let s1 = DagScheduler.try_schedule(&tasks, 1).unwrap();
    let s4 = DagScheduler.try_schedule(&tasks, 4).unwrap();
    // 1-worker makespan = total optimal flops; more workers can't exceed it.
    assert_eq!(
        Cost::from(s1.makespan as i64),
        sol.cost,
        "serial dataflow makespan equals DP cost"
    );
    assert!(s4.makespan <= s1.makespan);
}

/// The optimal BST — the other §2.1 polyadic example — agrees with its
/// brute force and produces a valid root decomposition.
#[test]
fn optimal_bst_route() {
    let freq = [12u64, 3, 25, 7, 18, 4];
    let sol = optimal_bst(&freq);
    assert_eq!(sol.cost, systolic_dp::andor::chain::bst_brute_force(&freq));
    // root split indexes a key
    assert!(sol.split[0][freq.len() - 1] < freq.len());
}

/// Classification routing: the Table 1 engine names a module that
/// actually exists for every class.
#[test]
fn table1_routes_are_real() {
    for class in Formulation::ALL {
        let rec = table1(class);
        assert!(rec.implemented_by.contains("sdp_"), "{class}");
        assert!(!rec.method.is_empty());
    }
}
