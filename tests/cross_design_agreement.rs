//! Integration: every solution path in the workspace computes the same
//! optimum on shared random instances — systolic designs, sequential DP,
//! matrix string products, AND/OR partition graphs, and brute force.

use systolic_dp::prelude::*;

#[test]
fn five_way_agreement_on_single_source_sink_graphs() {
    for seed in 0..25 {
        let stages = 3 + (seed as usize % 7);
        let m = 1 + (seed as usize % 5);
        let g = generate::random_single_source_sink(seed, stages, m, 0, 40);

        let fwd = solve::forward_dp(&g).cost;
        let bwd = solve::backward_dp(&g).cost;
        let mat = g.optimal_cost();
        let d1 = Design1Array::new(m)
            .try_run(g.matrix_string(), &mut NoFaults, &mut NullSink)
            .unwrap()
            .optimum();
        let d2 = Design2Array::new(m)
            .try_run(g.matrix_string(), &mut NoFaults, &mut NullSink)
            .unwrap()
            .optimum();
        let (bf, _) = solve::brute_force(&g);

        assert_eq!(fwd, bwd, "seed {seed}");
        assert_eq!(fwd, mat, "seed {seed}");
        assert_eq!(fwd, d1, "seed {seed}");
        assert_eq!(fwd, d2, "seed {seed}");
        assert_eq!(fwd, bf, "seed {seed}");
    }
}

#[test]
fn node_value_pipeline_agrees_with_edge_cost_pipeline() {
    for seed in 0..15 {
        let n = 3 + (seed as usize % 6);
        let m = 2 + (seed as usize % 4);
        let nv = generate::node_value_random(
            seed,
            n,
            m,
            Box::new(systolic_dp::multistage::node_value::AbsDiff),
            -30,
            30,
        );
        let d3 = Design3Array::new(m)
            .try_run(&nv, &mut NoFaults, &mut NullSink)
            .unwrap();
        let ms = nv.to_multistage();
        // The materialized edge-cost graph through the other designs:
        let d1 = Design1Array::new(m)
            .try_run(ms.matrix_string(), &mut NoFaults, &mut NullSink)
            .unwrap();
        let dp = solve::backward_dp(&ms);
        assert_eq!(d3.cost, dp.cost, "seed {seed}");
        assert_eq!(d1.optimum(), dp.cost, "seed {seed}");
        assert_eq!(solve::path_cost(&ms, &d3.path), d3.cost, "seed {seed}");
    }
}

#[test]
fn partition_graph_agrees_with_designs_on_uniform_strings() {
    for seed in 0..8 {
        let m = 2 + (seed as usize % 2);
        let g = generate::random_uniform(seed, 5, m, 0, 30); // 4 matrices
        let pg = build_partition_graph(4, m, 2);
        let reduced = pg.evaluate_on(g.matrix_string());
        let d1 = Design1Array::new(m)
            .try_run(g.matrix_string(), &mut NoFaults, &mut NullSink)
            .unwrap();
        // d1 values are row minima of the reduced all-pairs matrix
        for (i, &v) in d1.values.iter().enumerate() {
            let row_min = (0..m)
                .map(|j| reduced.get(i, j).0)
                .fold(Cost::INF, Cost::min);
            assert_eq!(v, row_min, "seed {seed} row {i}");
        }
    }
}

#[test]
fn parallel_executor_agrees_with_everything() {
    for seed in 0..6 {
        let n = 4 + (seed as usize % 8);
        let m = 2 + (seed as usize % 3);
        let g = generate::random_uniform(seed, n + 1, m, 0, 50);
        let (tree, _) = dnc::ParallelExecutor::new(3)
            .try_multiply_string(g.matrix_string(), None)
            .unwrap();
        let fold = Matrix::string_product(g.matrix_string());
        assert_eq!(tree, fold, "seed {seed}");
    }
}

#[test]
fn chain_arrays_agree_with_andor_and_dp() {
    for seed in 0..10 {
        let n = 2 + (seed as usize % 9);
        let dims = generate::random_chain_dims(seed, n, 1, 30);
        let dp = matrix_chain_order(&dims).cost;
        let bc = simulate_chain_array(&dims, ChainMapping::Broadcast).cost;
        let pl = simulate_chain_array(&dims, ChainMapping::Pipelined).cost;
        let andor = systolic_dp::andor::chain::build_chain_andor(&dims);
        let graph_val = andor.graph.evaluate_node(andor.root);
        let ser = serialize(&andor.graph);
        let ser_val = ser.graph.evaluate(&|_| None)[ser.id_map[andor.root]];
        assert_eq!(dp, bc, "seed {seed}");
        assert_eq!(dp, pl, "seed {seed}");
        assert_eq!(dp, graph_val, "seed {seed}");
        assert_eq!(dp, ser_val, "seed {seed}");
    }
}

#[test]
fn banded_alignment_agrees_with_full_mesh_when_band_covers() {
    use systolic_dp::prelude::Scoring;
    for seed in 0..12u64 {
        let la = 1 + (seed as usize % 9);
        let lb = 1 + ((seed as usize / 2) % 9);
        let sym = |i: usize| {
            let x = seed
                .wrapping_mul(0x9E37_79B9)
                .wrapping_add(i as u64 * 0x45D9_F3B3);
            (x % 4) as u8
        };
        let a: Vec<u8> = (0..la).map(sym).collect();
        let b: Vec<u8> = (la..la + lb).map(sym).collect();
        let scoring = Scoring::simple(2, -1, 1);
        let full = try_sw_mesh(&a, &b, &scoring, &mut NoFaults, &mut NullSink).unwrap();
        // Any band ≥ max(|a|,|b|) − 1 covers every cell of the matrix,
        // so the banded mesh must reproduce the full run exactly.
        for extra in 0..2usize {
            let band = la.max(lb) - 1 + extra;
            let banded = sdp_core::align::try_sw_banded_mesh(
                &a,
                &b,
                band,
                &scoring,
                &mut NoFaults,
                &mut NullSink,
            )
            .unwrap();
            assert_eq!(
                (banded.score, banded.end),
                (full.score, full.end),
                "seed {seed} band {band}"
            );
        }
        // The traceback recovered from the full mesh re-scores to the
        // run's optimum.
        let (run, alignment) = sw_mesh_aligned(&a, &b, &scoring);
        if let Some(al) = alignment {
            assert_eq!(al.score, run.score, "seed {seed}");
        } else {
            assert_eq!(run.score, 0, "seed {seed}");
        }
    }
}

#[test]
fn sparse_graphs_with_unreachable_edges() {
    for seed in 0..10 {
        let g = generate::random_sparse(seed, 6, 4, 1, 20, 0.5);
        let dp = solve::forward_dp(&g).cost;
        let d1 = Design1Array::new(4)
            .try_run(g.matrix_string(), &mut NoFaults, &mut NullSink)
            .unwrap();
        // multi-source/multi-sink: compare per-vertex vector minima
        let want = Matrix::string_product(g.matrix_string());
        for (i, &v) in d1.values.iter().enumerate() {
            let row_min = (0..4).map(|j| want.get(i, j).0).fold(Cost::INF, Cost::min);
            assert_eq!(v, row_min, "seed {seed} row {i}");
        }
        let overall = d1.values.iter().copied().fold(Cost::INF, Cost::min);
        assert_eq!(overall, dp, "seed {seed}");
    }
}
