//! Property tests: the systolic designs agree with the sequential
//! baselines on arbitrary random instances, and their timing matches the
//! paper's closed forms.

use proptest::prelude::*;
use sdp_core::chain_array::{simulate_chain_array, ChainMapping};
use sdp_core::dnc;
use sdp_core::gkt::GktArray;
use sdp_core::{Design1Array, Design2Array, Design3Array};
use sdp_fault::NoFaults;
use sdp_multistage::{generate, solve};
use sdp_semiring::{Cost, Matrix};
use sdp_systolic::scheduler::{try_eq29_time, TreeScheduler};
use sdp_trace::NullSink;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn design1_matches_dp_on_random_graphs(
        seed in 0u64..10_000, stages in 3usize..9, m in 1usize..7
    ) {
        let g = generate::random_single_source_sink(seed, stages, m, 0, 100);
        let res = Design1Array::new(m).try_run(g.matrix_string(), &mut NoFaults, &mut NullSink).unwrap();
        prop_assert_eq!(res.optimum(), solve::forward_dp(&g).cost);
    }

    #[test]
    fn design2_matches_design1_per_vertex(
        seed in 0u64..10_000, stages in 2usize..8, m in 1usize..6
    ) {
        let g = generate::random_uniform(seed, stages, m, 0, 60);
        let d1 = Design1Array::new(m).try_run(g.matrix_string(), &mut NoFaults, &mut NullSink).unwrap();
        let d2 = Design2Array::new(m).try_run(g.matrix_string(), &mut NoFaults, &mut NullSink).unwrap();
        prop_assert_eq!(d1.values, d2.values);
    }

    #[test]
    fn design3_cycles_and_cost(
        seed in 0u64..10_000, n in 2usize..8, m in 1usize..6
    ) {
        let g = generate::node_value_random(
            seed, n, m, Box::new(sdp_multistage::node_value::AbsDiff), -40, 40,
        );
        let res = Design3Array::new(m).try_run(&g, &mut NoFaults, &mut NullSink).unwrap();
        prop_assert_eq!(res.cycles, ((n + 1) * m) as u64);
        let ms = g.to_multistage();
        prop_assert_eq!(res.cost, solve::backward_dp(&ms).cost);
        prop_assert_eq!(solve::path_cost(&ms, &res.path), res.cost);
    }

    #[test]
    fn design3_finals_are_per_vertex_optima(
        seed in 0u64..5_000, n in 2usize..7, m in 1usize..5
    ) {
        let g = generate::node_value_random(
            seed, n, m, Box::new(sdp_multistage::node_value::SquaredDiff), -10, 10,
        );
        let res = Design3Array::new(m).try_run(&g, &mut NoFaults, &mut NullSink).unwrap();
        let dp = solve::backward_dp(&g.to_multistage());
        prop_assert_eq!(&res.finals, &dp.value[n - 1]);
    }

    #[test]
    fn chain_mappings_and_gkt_agree(
        seed in 0u64..5_000, n in 1usize..10
    ) {
        let dims = generate::random_chain_dims(seed, n, 1, 30);
        let want = sdp_andor::chain::matrix_chain_order(&dims).cost;
        prop_assert_eq!(simulate_chain_array(&dims, ChainMapping::Broadcast).cost, want);
        prop_assert_eq!(simulate_chain_array(&dims, ChainMapping::Pipelined).cost, want);
        prop_assert_eq!(GktArray::default().run(&dims).cost, want);
    }

    #[test]
    fn chain_timing_closed_forms(n in 1u64..40) {
        let dims: Vec<u64> = (0..=n).map(|i| 1 + (i % 6)).collect();
        prop_assert_eq!(
            simulate_chain_array(&dims, ChainMapping::Broadcast).finish, n
        );
        prop_assert_eq!(
            simulate_chain_array(&dims, ChainMapping::Pipelined).finish, 2 * n
        );
    }

    #[test]
    fn parallel_executor_equals_fold(
        seed in 0u64..5_000, n in 1usize..12, m in 1usize..5, k in 1usize..6
    ) {
        let g = generate::random_uniform(seed, n + 1, m, 0, 80);
        let (tree, rounds) = dnc::ParallelExecutor::new(k).try_multiply_string(g.matrix_string(), None).unwrap();
        prop_assert_eq!(tree, Matrix::string_product(g.matrix_string()));
        prop_assert_eq!(rounds, TreeScheduler.try_simulate(n as u64, k as u64, &mut NullSink).unwrap().rounds);
    }

    #[test]
    fn schedule_time_brackets_eq29(n in 2u64..5_000, k in 1u64..600) {
        // In the paper's regime (2K <= N) the greedy synchronous schedule
        // and Eq. 29 stay within a few rounds of each other; with K
        // oversized (more arrays than pairs) Eq. 29's wind-down term
        // log2(N+K-1) overcharges, so only the one-sided bound holds.
        let sim = TreeScheduler.try_simulate(n, k, &mut NullSink).unwrap().rounds;
        let formula = try_eq29_time(n, k).unwrap();
        if 2 * k <= n {
            prop_assert!(sim.abs_diff(formula) <= 3, "n={n} k={k}: {sim} vs {formula}");
        } else {
            prop_assert!(sim <= formula.max(1), "n={n} k={k}: {sim} vs {formula}");
        }
    }

    #[test]
    fn design1_handles_negative_costs(
        seed in 0u64..2_000, stages in 3usize..7, m in 1usize..5
    ) {
        let g = generate::random_single_source_sink(seed, stages, m, -50, 50);
        let res = Design1Array::new(m).try_run(g.matrix_string(), &mut NoFaults, &mut NullSink).unwrap();
        prop_assert_eq!(res.optimum(), solve::forward_dp(&g).cost);
    }

    #[test]
    fn design3_inventory_with_inf_edges(seed in 0u64..2_000, n in 2usize..7, m in 2usize..6) {
        // InventoryCost produces INF (infeasible) transitions; the array
        // must handle absent edges identically to the baseline.
        let g = generate::inventory(seed, n, m);
        let res = Design3Array::new(m).try_run(&g, &mut NoFaults, &mut NullSink).unwrap();
        let dp = solve::backward_dp(&g.to_multistage());
        prop_assert_eq!(res.cost, dp.cost);
        if res.cost.is_finite() {
            prop_assert_eq!(
                solve::path_cost(&g.to_multistage(), &res.path), res.cost
            );
        }
    }

    #[test]
    fn pu_is_always_a_probability(n in 2u64..10_000, k in 1u64..512) {
        let pu = TreeScheduler.try_simulate(n, k, &mut NullSink).unwrap().processor_utilization();
        prop_assert!((0.0..=1.0).contains(&pu), "PU {pu} out of range");
    }
}

#[test]
fn design1_extreme_saturating_costs() {
    // Costs near the saturation boundary must not wrap or reach INF.
    let big = Cost::MAX_FINITE.raw() / 4;
    let g = generate::random_single_source_sink(1, 5, 3, big - 10, big);
    let res = Design1Array::new(3)
        .try_run(g.matrix_string(), &mut NoFaults, &mut NullSink)
        .unwrap();
    let dp = solve::forward_dp(&g);
    assert_eq!(res.optimum(), dp.cost);
    assert!(res.optimum().is_finite());
}
