//! One function per paper artifact (experiment ids from DESIGN.md).
//!
//! Every experiment is built as a structured [`Report`] — `report_*`
//! returns the table rows *and* machine-readable metrics; the historical
//! `run_*` entry points render the same report as terminal text.  The
//! `experiments --json` mode serializes all reports (see
//! [`crate::report::reports_to_json`]).

use crate::report::Report;
use sdp_andor::chain::matrix_chain_order;
use sdp_andor::nonserial::TernaryChain;
use sdp_andor::partition::{build_partition_graph, u_p_closed_form};
use sdp_core::chain_array::{simulate_chain_array, td_recurrence, tp_recurrence, ChainMapping};
use sdp_core::classify::{table1, Formulation};
use sdp_core::design1::Design1Array;
use sdp_core::design2::Design2Array;
use sdp_core::design3::Design3Array;
use sdp_core::dnc;
use sdp_fault::NoFaults;
use sdp_multistage::{generate, solve};
use sdp_semiring::Cost;
use sdp_trace::json::Json;
use sdp_trace::NullSink;

fn rows_json(rows: Vec<Json>) -> Json {
    Json::object().with("rows", Json::Array(rows))
}

/// E1 — Design 1 (Fig. 3) iteration counts and PU versus Eq. 9.
pub fn report_e1() -> Report {
    let mut report = Report::new(
        "e1",
        "E1: Design 1 (pipelined array, Fig. 3) — N·m iterations, PU per Eq. 9",
    );
    report.headers = vec![
        "stages", "m", "systolic", "dp", "N*m", "cycles", "PU", "Eq9 PU",
    ];
    let mut metrics = Vec::new();
    for &(stages, m) in &[(4usize, 3usize), (6, 3), (10, 4), (20, 4), (40, 8), (80, 8)] {
        let g = generate::random_single_source_sink(9, stages, m, 0, 50);
        let res = Design1Array::new(m)
            .try_run(g.matrix_string(), &mut NoFaults, &mut NullSink)
            .unwrap();
        let dp = solve::forward_dp(&g);
        let n_mats = (stages - 1) as u64;
        let serial = solve::SerialCounts::matrix_string(n_mats, m as u64);
        let pu = res.paper_pu(serial, m as u64);
        let eq9 = solve::SerialCounts::eq9_pu(n_mats, m as u64);
        report.rows.push(vec![
            format!("{stages}"),
            format!("{m}"),
            format!("{}", res.optimum()),
            format!("{}", dp.cost),
            format!("{}", res.paper_iterations),
            format!("{}", res.cycles),
            format!("{pu:.4}"),
            format!("{eq9:.4}"),
        ]);
        metrics.push(
            Json::object()
                .with("stages", stages as u64)
                .with("m", m as u64)
                .with("cost_matches_dp", res.optimum() == dp.cost)
                .with("paper_iterations", res.paper_iterations)
                .with("cycles", res.cycles)
                .with("pu", pu)
                .with("eq9_pu", eq9),
        );
    }
    report.metrics = rows_json(metrics);
    report
}

/// E2 — Design 2 (Fig. 4, broadcast) equivalence and exact N·m timing.
pub fn report_e2() -> Report {
    let mut report = Report::new(
        "e2",
        "E2: Design 2 (broadcast array, Fig. 4) — same results, no skew",
    );
    report.headers = vec![
        "stages",
        "m",
        "systolic",
        "dp",
        "d2 cycles",
        "d1 cycles",
        "bus words",
    ];
    let mut metrics = Vec::new();
    for &(stages, m) in &[(4usize, 3usize), (8, 5), (16, 4), (40, 8)] {
        let g = generate::random_single_source_sink(11, stages, m, 0, 50);
        let d1 = Design1Array::new(m)
            .try_run(g.matrix_string(), &mut NoFaults, &mut NullSink)
            .unwrap();
        let d2 = Design2Array::new(m)
            .try_run(g.matrix_string(), &mut NoFaults, &mut NullSink)
            .unwrap();
        let dp = solve::forward_dp(&g);
        report.rows.push(vec![
            format!("{stages}"),
            format!("{m}"),
            format!("{}", d2.optimum()),
            format!("{}", dp.cost),
            format!("{}", d2.cycles),
            format!("{}", d1.cycles),
            format!("{}", d2.broadcast_words),
        ]);
        metrics.push(
            Json::object()
                .with("stages", stages as u64)
                .with("m", m as u64)
                .with("cost_matches_dp", d2.optimum() == dp.cost)
                .with("d2_cycles", d2.cycles)
                .with("d1_cycles", d1.cycles)
                .with("bus_words", d2.stats.bus_words()),
        );
    }
    report.metrics = rows_json(metrics);
    report
}

/// E3 — Design 3 (Fig. 5): (N+1)·m iterations, I/O reduction, paths.
pub fn report_e3() -> Report {
    let mut report = Report::new(
        "e3",
        "E3: Design 3 (node-value array, Fig. 5) — (N+1)·m iterations, path registers",
    );
    report.headers = vec![
        "N",
        "m",
        "systolic",
        "dp",
        "cycles",
        "(N+1)m",
        "PU",
        "paper PU",
        "IO node/edge",
        "path ok",
    ];
    let mut metrics = Vec::new();
    for &(n, m) in &[(4usize, 3usize), (6, 4), (10, 5), (20, 8), (40, 8)] {
        let g = generate::node_value_random(
            5,
            n,
            m,
            Box::new(sdp_multistage::node_value::AbsDiff),
            -30,
            30,
        );
        let res = Design3Array::new(m)
            .try_run(&g, &mut NoFaults, &mut NullSink)
            .unwrap();
        let ms = g.to_multistage();
        let dp = solve::backward_dp(&ms);
        let serial = solve::SerialCounts::node_value(n as u64, m as u64);
        let (node_io, edge_io) = g.io_words();
        let pu = res.measured_pu(serial);
        let paper_pu = solve::SerialCounts::design3_pu(n as u64, m as u64);
        let path_ok = solve::path_cost(&ms, &res.path) == res.cost;
        report.rows.push(vec![
            format!("{n}"),
            format!("{m}"),
            format!("{}", res.cost),
            format!("{}", dp.cost),
            format!("{}", res.cycles),
            format!("{}", (n + 1) * m),
            format!("{pu:.4}"),
            format!("{paper_pu:.4}"),
            format!("{node_io}/{edge_io}"),
            format!("{path_ok}"),
        ]);
        metrics.push(
            Json::object()
                .with("n", n as u64)
                .with("m", m as u64)
                .with("cost_matches_dp", res.cost == dp.cost)
                .with("cycles", res.cycles)
                .with("paper_iterations", res.paper_iterations)
                .with("pu", pu)
                .with("paper_pu", paper_pu)
                .with("node_io_words", node_io)
                .with("edge_io_words", edge_io)
                .with("bus_words", res.stats.bus_words())
                .with("path_ok", path_ok),
        );
    }
    report.metrics = rows_json(metrics);
    report
}

/// E4 — Figure 6: T and K·T² versus K for N = 4096.
pub fn report_fig6() -> Report {
    let n = 4096u64;
    let mut report = Report::new(
        "e4",
        format!("E4 / Figure 6: divide-and-conquer granularity, N = {n}"),
    );
    report.headers = vec!["K", "T", "K*T^2", "PU(sim)"];
    let sweep = dnc::try_granularity_sweep(n, 1024).unwrap();
    // Sample the curve plus the paper's highlighted points.
    let samples: Vec<u64> = vec![
        1, 2, 4, 8, 16, 32, 64, 128, 200, 256, 300, 341, 372, 399, 409, 431, 455, 465, 512, 600,
        700, 800, 1000, 1024,
    ];
    let mut metrics = Vec::new();
    for &k in &samples {
        let p = sweep[(k - 1) as usize];
        report.rows.push(vec![
            format!("{k}"),
            format!("{}", p.t),
            format!("{}", p.kt2),
            format!("{:.4}", p.pu),
        ]);
        metrics.push(
            Json::object()
                .with("k", p.k)
                .with("t", p.t)
                .with("kt2", p.kt2)
                .with("pu", p.pu),
        );
    }
    let (k_star, v_star) = dnc::optimal_granularity(n, 1024);
    report.notes = vec![
        String::new(),
        format!("global KT^2 minimum: K = {k_star} (KT^2 = {v_star})"),
        format!(
            "paper-reported minima: K = 431 (KT^2 = {}), K = 465 (KT^2 = {})",
            sweep[430].kt2, sweep[464].kt2
        ),
        format!("N/log2(N) = {:.0}", n as f64 / (n as f64).log2()),
    ];
    report.metrics = rows_json(metrics)
        .with("n", n)
        .with("k_star", k_star)
        .with("kt2_min", v_star)
        .with("kt2_at_431", sweep[430].kt2)
        .with("kt2_at_465", sweep[464].kt2);
    report
}

/// E5 — Proposition 1: PU(c·N/log₂N, N) → 1/(1+c).
pub fn report_prop1() -> Report {
    let mut report = Report::new(
        "e5",
        "E5 / Proposition 1: PU(k = c*N/log2N) converges to 1/(1+c)",
    );
    report.headers = vec!["c", "N=2^10", "N=2^14", "N=2^18", "N=2^22", "limit 1/(1+c)"];
    let mut metrics = Vec::new();
    for &c in &[0.25f64, 0.5, 1.0, 2.0, 4.0] {
        let limit = 1.0 / (1.0 + c);
        let mut cells = vec![format!("{c}")];
        let mut entry = Json::object().with("c", c).with("limit", limit);
        for &exp in &[10u32, 14, 18, 22] {
            let pu = dnc::try_pu_asymptotic(1 << exp, c).unwrap();
            cells.push(format!("{pu:.4}"));
            entry = entry.with(&format!("pu_n2e{exp}"), pu);
        }
        cells.push(format!("{limit:.4}"));
        report.rows.push(cells);
        metrics.push(entry);
    }
    report.metrics = rows_json(metrics);
    report
}

/// E6 — Theorem 1: S·T² versus S, minimized at Θ(N/log₂N).
pub fn report_thm1() -> Report {
    let mut report = Report::new(
        "e6",
        "E6 / Theorem 1: S*T^2 vs S (ratio to the N*log2N lower bound)",
    );
    report.headers = vec!["N", "S", "S/(N/log2N)", "S*T^2", "ratio"];
    let mut metrics = Vec::new();
    for &n in &[1024u64, 4096, 16384] {
        let ideal = (n as f64 / (n as f64).log2()) as u64;
        let bound = dnc::at2_lower_bound(n);
        for &mult in &[0.125f64, 0.5, 1.0, 2.0, 8.0] {
            let s = ((ideal as f64 * mult) as u64).max(1);
            let v = dnc::st2(n, s);
            report.rows.push(vec![
                format!("{n}"),
                format!("{s}"),
                format!("{mult}x"),
                format!("{v}"),
                format!("{:.2}", v as f64 / bound),
            ]);
            metrics.push(
                Json::object()
                    .with("n", n)
                    .with("s", s)
                    .with("mult", mult)
                    .with("st2", v)
                    .with("ratio_to_bound", v as f64 / bound),
            );
        }
    }
    report.metrics = rows_json(metrics);
    report
}

/// E7 — Theorem 2: u(p) measured vs Eq. 32, minimal at p = 2.
pub fn report_thm2() -> Report {
    let mut report = Report::new(
        "e7",
        "E7 / Theorem 2: AND/OR-graph node count u(p); binary partition optimal",
    );
    report.headers = vec![
        "m",
        "p",
        "N(small)",
        "u measured",
        "u Eq.32",
        "u Eq.32 @N=4096",
    ];
    let mut metrics = Vec::new();
    for &m in &[2u64, 3, 4, 5] {
        for &p in &[2u64, 3, 4] {
            // measured on a small power-of-p instance
            let n_small = p.pow(2);
            let measured = if m.pow(p as u32 + 1) * n_small <= 100_000 {
                let pg = build_partition_graph(n_small as usize, m as usize, p as usize);
                Some(pg.node_count() as u64)
            } else {
                None
            };
            let closed = u_p_closed_form(n_small, m, p);
            let closed_4096 = u_p_closed_form(4096, m, p);
            report.rows.push(vec![
                format!("{m}"),
                format!("{p}"),
                format!("{n_small}"),
                measured.map_or_else(|| "-".to_string(), |u| format!("{u}")),
                format!("{closed}"),
                format!("{closed_4096}"),
            ]);
            metrics.push(
                Json::object()
                    .with("m", m)
                    .with("p", p)
                    .with("n_small", n_small)
                    .with("u_measured", measured.map_or(Json::Null, Json::from))
                    .with("u_closed", closed)
                    .with("u_closed_n4096", closed_4096),
            );
        }
    }
    report.metrics = rows_json(metrics);
    report
}

/// E8 — Proposition 2: broadcast chain array finishes in T_d(N) = N.
pub fn report_prop2() -> Report {
    let mut report = Report::new(
        "e8",
        "E8 / Proposition 2: broadcast AND/OR mapping, T_d(N) = N",
    );
    report.headers = vec!["N", "sim steps", "recurrence", "closed form", "cost ok"];
    let mut metrics = Vec::new();
    for &n in &[1usize, 2, 4, 8, 16, 32, 64] {
        let dims = generate::random_chain_dims(3, n, 2, 20);
        let res = simulate_chain_array(&dims, ChainMapping::Broadcast);
        let dp = matrix_chain_order(&dims);
        report.rows.push(vec![
            format!("{n}"),
            format!("{}", res.finish),
            format!("{}", td_recurrence(n as u64)),
            format!("{n}"),
            format!("{}", res.cost == dp.cost),
        ]);
        metrics.push(
            Json::object()
                .with("n", n as u64)
                .with("sim_steps", res.finish)
                .with("recurrence", td_recurrence(n as u64))
                .with("closed_form", n as u64)
                .with("cost_ok", res.cost == dp.cost),
        );
    }
    report.metrics = rows_json(metrics);
    report
}

/// E9 — Proposition 3: serialized pipeline finishes in T_p(N) = 2N.
pub fn report_prop3() -> Report {
    let mut report = Report::new(
        "e9",
        "E9 / Proposition 3: serialized (Fig. 8) mapping, T_p(N) = 2N",
    );
    report.headers = vec!["N", "sim steps", "recurrence", "closed form", "cost ok"];
    let mut metrics = Vec::new();
    for &n in &[1usize, 2, 4, 8, 16, 32, 64] {
        let dims = generate::random_chain_dims(4, n, 2, 20);
        let res = simulate_chain_array(&dims, ChainMapping::Pipelined);
        let dp = matrix_chain_order(&dims);
        report.rows.push(vec![
            format!("{n}"),
            format!("{}", res.finish),
            format!("{}", tp_recurrence(n as u64)),
            format!("{}", 2 * n),
            format!("{}", res.cost == dp.cost),
        ]);
        metrics.push(
            Json::object()
                .with("n", n as u64)
                .with("sim_steps", res.finish)
                .with("recurrence", tp_recurrence(n as u64))
                .with("closed_form", 2 * n as u64)
                .with("cost_ok", res.cost == dp.cost),
        );
    }
    report.metrics = rows_json(metrics);
    report
}

/// E10 — Eq. 40: step count of monadic-nonserial variable elimination.
pub fn report_eq40() -> Report {
    let mut report = Report::new(
        "e10",
        "E10 / Eq. 40: monadic-nonserial elimination step counts",
    );
    report.headers = vec!["domain sizes", "steps", "Eq.40", "optimum", "oracle ok"];
    let shapes: &[&[usize]] = &[
        &[3, 3, 3, 3],
        &[2, 3, 4, 3, 2],
        &[4, 4, 4, 4, 4, 4],
        &[2, 5, 2, 5, 2],
    ];
    let mut metrics = Vec::new();
    for (i, sizes) in shapes.iter().enumerate() {
        let mut seed = i as i64 + 1;
        let domains: Vec<Vec<i64>> = sizes
            .iter()
            .map(|&s| {
                (0..s)
                    .map(|_| {
                        seed = (seed * 31 + 7) % 97;
                        seed
                    })
                    .collect()
            })
            .collect();
        let chain =
            TernaryChain::uniform(domains, |a, b, c| Cost::from((a - b).abs() + (b - c).abs()));
        let (cost, steps) = chain.eliminate();
        let (bf, _) = chain.brute_force();
        let serial = chain.group_to_serial();
        let dp = solve::forward_dp(&serial);
        let ok = cost == bf && dp.cost == bf;
        report.rows.push(vec![
            format!("{sizes:?}"),
            format!("{steps}"),
            format!("{}", chain.eq40_steps()),
            format!("{cost}"),
            format!("{ok}"),
        ]);
        metrics.push(
            Json::object()
                .with(
                    "domain_sizes",
                    Json::Array(sizes.iter().map(|&s| Json::from(s as u64)).collect()),
                )
                .with("steps", steps)
                .with("eq40_steps", chain.eq40_steps())
                .with("oracle_ok", ok),
        );
    }
    report.metrics = rows_json(metrics);
    report
}

/// E11 — Table 1: classification of four representative problems and the
/// recommended method, demonstrated end-to-end.
pub fn report_table1() -> Report {
    let mut report = Report::new("e11", "E11 / Table 1: formulation -> suitable method");
    report.headers = vec![
        "formulation",
        "characteristic",
        "suitable method",
        "requirements",
    ];
    let mut classes = Vec::new();
    for class in Formulation::ALL {
        let r = table1(class);
        report.rows.push(vec![
            class.to_string(),
            r.characteristic.to_string(),
            r.method.to_string(),
            r.requirements.to_string(),
        ]);
        classes.push(
            Json::object()
                .with("formulation", class.to_string())
                .with("method", r.method.to_string()),
        );
    }
    report
        .notes
        .push("\nEnd-to-end demonstrations:".to_string());
    // monadic-serial: Design 3 on a traffic problem
    let g = generate::traffic_light(1, 6, 4);
    let d3 = Design3Array::new(4)
        .try_run(&g, &mut NoFaults, &mut NullSink)
        .unwrap();
    report.notes.push(format!(
        "  monadic-serial      traffic-light timing, Design 3: cost {} in {} cycles",
        d3.cost, d3.cycles
    ));
    // polyadic-serial: D&C with the optimal granularity
    let sched = sdp_systolic::TreeScheduler
        .try_simulate(4096, 399, &mut NullSink)
        .expect("valid N and K");
    report.notes.push(format!(
        "  polyadic-serial     N=4096 matrix string on K=399 arrays: {} rounds, PU {:.3}",
        sched.rounds,
        sched.processor_utilization()
    ));
    // monadic-nonserial: grouping transform
    let chain = TernaryChain::uniform(
        vec![vec![0, 2, 5], vec![1, 3, 4], vec![0, 6, 7], vec![2, 3, 9]],
        |a, b, c| Cost::from((a - b).abs() + (b - c).abs()),
    );
    let serial = chain.group_to_serial();
    let dp = solve::forward_dp(&serial);
    report.notes.push(format!(
        "  monadic-nonserial   ternary chain grouped to serial: cost {} over {} compound stages",
        dp.cost,
        serial.num_stages()
    ));
    // polyadic-nonserial: chain array
    let dims = [30u64, 35, 15, 5, 10, 20, 25];
    let res = simulate_chain_array(&dims, ChainMapping::Pipelined);
    report.notes.push(format!(
        "  polyadic-nonserial  matrix-chain ordering (CLRS dims): cost {} in {} steps (2N = {})",
        res.cost,
        res.finish,
        2 * (dims.len() - 1)
    ));
    report.metrics = Json::object()
        .with("classes", Json::Array(classes))
        .with("design3_cycles", d3.cycles)
        .with("dnc_rounds", sched.rounds)
        .with("dnc_pu", sched.processor_utilization())
        .with("chain_steps", res.finish);
    report
}

/// E12 — real-thread divide-and-conquer speedup.
///
/// Speedup columns are only meaningful when the host has more than one
/// core: on a single-core host every `K` runs the same total work on
/// one CPU, so the rows are flagged (`speedup_flagged`) rather than
/// read as a regression.
pub fn report_e12() -> Report {
    use std::time::Instant;
    let n = 256usize;
    let m = 48usize;
    let g = generate::random_uniform(13, n + 1, m, 0, 1000);
    let mats = g.matrix_string();
    let t0 = Instant::now();
    let seq = sdp_semiring::Matrix::string_product(mats);
    let seq_time = t0.elapsed();
    let cores = std::thread::available_parallelism()
        .map(|c| c.get())
        .unwrap_or(1);
    let single_core = cores == 1;
    let mut report = Report::new(
        "e12",
        format!(
            "E12: threaded divide-and-conquer executor (N={n} matrices of {m}x{m})\n\
             sequential right-fold: {:.1} ms; host cores: {cores}\n\
             (schedule length shrinks as N/K + log K per Eq. 30; wall-clock\n\
             speedup additionally requires >= K physical cores)",
            seq_time.as_secs_f64() * 1e3
        ),
    );
    report.headers = vec!["K", "threads", "rounds", "ms", "vs seq"];
    let mut metrics = Vec::new();
    for &k in &[1usize, 2, 4, 8] {
        let ex = dnc::ParallelExecutor::new(k);
        let threads = ex.workers();
        let t0 = Instant::now();
        let (par, rounds) = ex.try_multiply_string(mats, None).unwrap();
        let el = t0.elapsed();
        assert_eq!(par, seq);
        let speedup = seq_time.as_secs_f64() / el.as_secs_f64();
        report.rows.push(vec![
            format!("{k}"),
            format!("{threads}"),
            format!("{rounds}"),
            format!("{:.1}", el.as_secs_f64() * 1e3),
            if single_core {
                format!("{speedup:.2} (1-core host, not meaningful)")
            } else {
                format!("{speedup:.2}")
            },
        ]);
        metrics.push(
            Json::object()
                .with("k", k as u64)
                .with("threads_used", threads as u64)
                .with("rounds", rounds)
                .with("ms", el.as_secs_f64() * 1e3)
                .with("speedup_vs_seq", speedup)
                .with("speedup_flagged", single_core),
        );
    }
    if single_core {
        report.notes.push(
            "host has a single core: wall-clock speedup columns are flagged, not asserted.".into(),
        );
    }
    report.metrics = rows_json(metrics)
        .with("seq_ms", seq_time.as_secs_f64() * 1e3)
        .with("host_cores", cores as u64)
        .with("speedup_meaningful", !single_core);
    report
}

/// E13 (extension) — ablation: the clocked Guibas–Kung–Thompson
/// triangular array versus the analytic chain mappings, and the effect
/// of retiring one vs two alternatives per cell per cycle.
pub fn report_e13() -> Report {
    use sdp_core::gkt::GktArray;
    let mut report = Report::new(
        "e13",
        "E13 (ablation): clocked GKT triangular array vs analytic mappings",
    );
    report.headers = vec![
        "N",
        "T_d (=N)",
        "T_p (=2N)",
        "GKT 2ops",
        "GKT 1op",
        "GKT msgs",
        "GKT ops",
    ];
    let mut metrics = Vec::new();
    for &n in &[4usize, 8, 16, 32, 64] {
        let dims = generate::random_chain_dims(21, n, 2, 20);
        let bc = simulate_chain_array(&dims, ChainMapping::Broadcast);
        let pl = simulate_chain_array(&dims, ChainMapping::Pipelined);
        let g2 = GktArray::new(2).run(&dims);
        let g1 = GktArray::new(1).run(&dims);
        assert_eq!(g2.cost, bc.cost);
        report.rows.push(vec![
            format!("{n}"),
            format!("{}", bc.finish),
            format!("{}", pl.finish),
            format!("{}", g2.finish),
            format!("{}", g1.finish),
            format!("{}", g2.messages),
            format!("{}", g2.operations),
        ]);
        metrics.push(
            Json::object()
                .with("n", n as u64)
                .with("td_finish", bc.finish)
                .with("tp_finish", pl.finish)
                .with("gkt2_finish", g2.finish)
                .with("gkt1_finish", g1.finish)
                .with("gkt_messages", g2.messages)
                .with("gkt_operations", g2.operations),
        );
    }
    report.metrics = rows_json(metrics);
    report
}

/// E14 (extension) — the secondary optimization problem: optimal
/// stage-reduction order for irregular multistage graphs vs the naive
/// left-to-right sweep.
pub fn report_e14() -> Report {
    use sdp_andor::reduction;
    let mut report = Report::new(
        "e14",
        "E14 (extension / §4 end): optimal stage-reduction order (secondary optimization)",
    );
    report.headers = vec![
        "profile",
        "stage widths",
        "naive ops",
        "optimal ops",
        "saving",
        "order",
    ];
    let profiles: &[(&str, &[u64])] = &[
        ("uniform", &[6, 6, 6, 6, 6, 6]),
        ("wide middle", &[2, 40, 2, 40, 2]),
        ("narrow middle", &[40, 2, 40, 2, 40]),
        ("descending", &[32, 16, 8, 4, 2]),
        ("CLRS", &[30, 35, 15, 5, 10, 20, 25]),
    ];
    let mut metrics = Vec::new();
    for (name, widths) in profiles {
        let p = reduction::plan_for_widths(widths);
        report.rows.push(vec![
            name.to_string(),
            format!("{widths:?}"),
            format!("{}", p.naive_ops),
            format!("{}", p.optimal_ops),
            format!("{:.2}x", p.saving()),
            p.chain.parenthesization(),
        ]);
        metrics.push(
            Json::object()
                .with("profile", *name)
                .with("naive_ops", p.naive_ops)
                .with("optimal_ops", p.optimal_ops)
                .with("saving", p.saving()),
        );
    }
    report.metrics = rows_json(metrics);
    report
}

/// E15 (extension) — top-down memoized AND/OR search vs bottom-up
/// breadth-first: nodes expanded when only one goal is needed.
pub fn report_e15() -> Report {
    use sdp_andor::topdown;
    let mut report = Report::new(
        "e15",
        "E15 (extension / §5): top-down memoized search touches only the goal's subgraph",
    );
    report.headers = vec!["N", "m", "bottom-up nodes", "top-down expanded", "fraction"];
    let mut metrics = Vec::new();
    for &(n, m) in &[(4usize, 2usize), (8, 2), (4, 3), (16, 2)] {
        let pg = build_partition_graph(n, m, 2);
        let total = pg.graph.len();
        let td = topdown::search(&pg.graph, pg.roots[0][0], &|_| None);
        let fraction = td.expanded as f64 / total as f64;
        report.rows.push(vec![
            format!("{n}"),
            format!("{m}"),
            format!("{total}"),
            format!("{}", td.expanded),
            format!("{:.1}%", 100.0 * fraction),
        ]);
        metrics.push(
            Json::object()
                .with("n", n as u64)
                .with("m", m as u64)
                .with("bottom_up_nodes", total as u64)
                .with("top_down_expanded", td.expanded as u64)
                .with("fraction", fraction),
        );
    }
    report.metrics = rows_json(metrics);
    report
}

/// E16 (extension / §6.1 end) — grouped monadic-nonserial problems on
/// the Design 1 array: serial-work blowup vs parallel-time speedup.
pub fn report_e16() -> Report {
    use sdp_core::nonserial_array::run_grouped;
    let mut report = Report::new(
        "e16",
        "E16 (extension / §6.1): grouping transform on the Design 1 array\n\
         (\"more operations are needed ... but the potential parallelism is higher\")",
    );
    report.headers = vec![
        "N",
        "m",
        "m'=m^2",
        "elim steps",
        "array cycles",
        "work blowup",
        "speedup",
        "cost",
    ];
    let mut metrics = Vec::new();
    for &(n, m) in &[(4usize, 2usize), (6, 3), (8, 3), (8, 4), (12, 4)] {
        let domains: Vec<Vec<i64>> = (0..n)
            .map(|s| (0..m).map(|j| ((s + 1) * (j + 2)) as i64 % 13).collect())
            .collect();
        let chain =
            TernaryChain::uniform(domains, |a, b, c| Cost::from((a - b).abs() + (b - c).abs()));
        let run = run_grouped(&chain);
        report.rows.push(vec![
            format!("{n}"),
            format!("{m}"),
            format!("{}", run.grouped_m),
            format!("{}", run.elimination_steps),
            format!("{}", run.array_cycles),
            format!("{:.2}x", run.work_blowup()),
            format!("{:.2}x", run.speedup()),
            format!("{}", run.cost),
        ]);
        metrics.push(
            Json::object()
                .with("n", n as u64)
                .with("m", m as u64)
                .with("grouped_m", run.grouped_m as u64)
                .with("elimination_steps", run.elimination_steps)
                .with("array_cycles", run.array_cycles)
                .with("work_blowup", run.work_blowup())
                .with("speedup", run.speedup()),
        );
    }
    report.metrics = rows_json(metrics);
    report
}

/// E17 (extension / §4) — Eq. 29 restated in *real cycles*: `T₁` taken
/// from the clocked matrix-multiply mesh (`3m − 2`), and the full
/// D&C reduction executed on array simulations.
pub fn report_e17() -> Report {
    use sdp_core::matmul_array::MatmulArray;
    let n = 32u64;
    let mut report = Report::new(
        "e17",
        format!(
            "E17 (extension / §4): D&C over clocked matmul meshes, N = {n} matrices\n\
             (T1 = 3m-2 cycles from the Kung array; schedule = greedy rounds vs Eq. 29)"
        ),
    );
    report.headers = vec!["m", "K", "T1 cycles", "measured cycles", "Eq29 x T1"];
    let mut metrics = Vec::new();
    for &m in &[2usize, 4, 8] {
        let g = generate::random_uniform(3, n as usize + 1, m, 0, 50);
        let t1 = MatmulArray::t1(m, m, m);
        for &k in &[1u64, 4, 16] {
            let (prod, cycles) =
                MatmulArray::try_multiply_string_dnc(g.matrix_string(), k, &mut NullSink).unwrap();
            assert_eq!(
                prod,
                sdp_semiring::Matrix::string_product(g.matrix_string())
            );
            let eq29_cycles = sdp_systolic::scheduler::try_eq29_time(n, k).unwrap() * t1;
            report.rows.push(vec![
                format!("{m}"),
                format!("{k}"),
                format!("{t1}"),
                format!("{cycles}"),
                format!("{eq29_cycles}"),
            ]);
            metrics.push(
                Json::object()
                    .with("m", m as u64)
                    .with("k", k)
                    .with("t1_cycles", t1)
                    .with("measured_cycles", cycles)
                    .with("eq29_cycles", eq29_cycles),
            );
        }
    }
    report.metrics = rows_json(metrics);
    report
}

/// E18 (extension / §1) — DP as branch-and-bound with dominance tests:
/// node expansions with and without the dominance rule.
pub fn report_e18() -> Report {
    use sdp_multistage::bnb::{search, BnbConfig};
    let mut report = Report::new(
        "e18",
        "E18 (extension / §1): branch-and-bound OR-tree search with dominance tests\n\
         (dominance + best-first == the DP table: expansions <= vertices)",
    );
    report.headers = vec![
        "stages",
        "m",
        "expand(dom+bound)",
        "expand(bound)",
        "expand(none)",
        "dominated",
        "vertices",
    ];
    let mut metrics = Vec::new();
    for &(stages, m) in &[(4usize, 3usize), (6, 4), (8, 4), (6, 6)] {
        let g = generate::random_uniform(5, stages, m, 1, 40);
        let full = search(&g, BnbConfig::default());
        let no_dom = search(
            &g,
            BnbConfig {
                dominance: false,
                bounding: true,
            },
        );
        let none = search(
            &g,
            BnbConfig {
                dominance: false,
                bounding: false,
            },
        );
        assert_eq!(full.cost, none.cost);
        report.rows.push(vec![
            format!("{stages}"),
            format!("{m}"),
            format!("{}", full.expanded),
            format!("{}", no_dom.expanded),
            format!("{}", none.expanded),
            format!("{}", full.dominated),
            format!("{}", g.num_vertices()),
        ]);
        metrics.push(
            Json::object()
                .with("stages", stages as u64)
                .with("m", m as u64)
                .with("expanded_full", full.expanded)
                .with("expanded_bound_only", no_dom.expanded)
                .with("expanded_none", none.expanded)
                .with("dominated", full.dominated)
                .with("vertices", g.num_vertices() as u64),
        );
    }
    report.metrics = rows_json(metrics);
    report
}

/// E19 (extension / ref. \[9\]) — curve detection by DP: accuracy vs
/// noise level, with the systolic array agreeing with sequential DP.
pub fn report_e19() -> Report {
    use sdp_multistage::curve::{CurveConfig, SyntheticImage};
    let mut report = Report::new(
        "e19",
        "E19 (extension / ref [9], Clarke-Dyer): DP curve detection vs noise\n\
         (signal magnitude 100; accuracy within 1 row, 10 trials each)",
    );
    report.headers = vec!["noise ceiling", "mean accuracy", "systolic == dp"];
    let mut metrics = Vec::new();
    for &noise in &[0i64, 50, 95, 110, 140, 200] {
        let mut acc_sum = 0.0;
        let trials = 10;
        let mut systolic_ok = true;
        for seed in 0..trials {
            let img = SyntheticImage::generate(seed, 48, 12, 100, noise);
            let cfg = CurveConfig::default();
            let det = img.detect(cfg);
            acc_sum += img.accuracy(&det.rows, 1);
            let g = img.to_multistage(cfg);
            let d1 = Design1Array::new(12)
                .try_run(g.matrix_string(), &mut NoFaults, &mut NullSink)
                .unwrap();
            systolic_ok &= d1.values.iter().copied().fold(Cost::INF, Cost::min) == det.cost;
        }
        let mean_accuracy = acc_sum / trials as f64;
        report.rows.push(vec![
            format!("{noise}"),
            format!("{:.1}%", 100.0 * mean_accuracy),
            format!("{systolic_ok}"),
        ]);
        metrics.push(
            Json::object()
                .with("noise_ceiling", noise)
                .with("mean_accuracy", mean_accuracy)
                .with("systolic_matches_dp", systolic_ok),
        );
    }
    report.metrics = rows_json(metrics);
    report
}

/// E20 (extension / ref. \[23\]) — wavefront sequence comparison on the
/// 2-D mesh: p+q−1 cycles, one anti-diagonal active per cycle.
pub fn report_e20() -> Report {
    use sdp_core::edit_array::{edit_distance_seq, try_edit_distance_mesh};
    let mut report = Report::new(
        "e20",
        "E20 (extension / ref [23], Ney): wavefront edit distance on the mesh",
    );
    report.headers = vec!["a", "b", "distance", "cycles", "p+q-1", "utilization"];
    let cases: &[(&[u8], &[u8])] = &[
        (b"kitten", b"sitting"),
        (b"dynamic", b"systolic"),
        (b"parallelism", b"pipeline"),
        (b"aaaaaaaaaaaa", b"aaabaaaaacaa"),
    ];
    let mut metrics = Vec::new();
    for (a, b) in cases {
        let run = try_edit_distance_mesh(a, b, &mut NoFaults, &mut NullSink).unwrap();
        let seq = edit_distance_seq(a, b);
        assert_eq!(run.distance, seq);
        let utilization = run.stats.utilization().overall;
        report.rows.push(vec![
            format!("{}", String::from_utf8_lossy(a)),
            format!("{}", String::from_utf8_lossy(b)),
            format!("{}", run.distance),
            format!("{}", run.cycles),
            format!("{}", a.len() + b.len() - 1),
            format!("{utilization:.3}"),
        ]);
        metrics.push(
            Json::object()
                .with("a", String::from_utf8_lossy(a).to_string())
                .with("b", String::from_utf8_lossy(b).to_string())
                .with("distance", run.distance)
                .with("cycles", run.cycles)
                .with("bound", (a.len() + b.len() - 1) as u64)
                .with("utilization", utilization)
                .with("stall_cycles", run.stats.stall_cycles()),
        );
    }
    report.metrics = rows_json(metrics);
    report
}

/// E21 — graceful degradation under seeded faults (robustness
/// extension; not part of the 1985 artifact set, so excluded from
/// [`report_all`] to keep `BENCH_pr1.json` stable).
///
/// Sweeps a deterministic fault-rate ladder against two recovery
/// layers: Design 1 under TMR (value faults: transient flips plus
/// stuck-at latches) and the fault-tolerant divide-and-conquer
/// executor (worker deaths).  Per rung it reports whether the bare
/// faulty run was corrupted, whether recovery restored the exact
/// fault-free answer, the redundancy cost in cycles, and the schedule
/// inflation + achieved PU of the executor after reassignments.
pub fn report_degradation() -> Report {
    use sdp_core::dnc::ParallelExecutor;
    use sdp_core::resilient::design1_tmr;
    use sdp_fault::{FaultDomain, FaultPlan, FaultRates, PlanInjector};
    use sdp_semiring::Matrix;
    use sdp_trace::CountingSink;

    let mut report = Report::new(
        "e21",
        "E21 (robustness extension): graceful degradation under seeded faults\n\
         Design 1 (m=4, N=6) under TMR; D&C executor (N=12, K=3) with worker\n\
         deaths recovered by task reassignment.  Seed 2026, fully deterministic.",
    );
    report.headers = vec![
        "faults",
        "injected",
        "corrupted",
        "tmr_ok",
        "redundant_cycles",
        "deaths",
        "reassigned",
        "rounds",
        "rounds_ff",
        "inflation",
        "pu",
    ];

    const SEED: u64 = 2026;
    let m = 4usize;
    let g = generate::random_single_source_sink(SEED, 6, m, 0, 100);
    let array = Design1Array::new(m);
    let clean = array
        .try_run(g.matrix_string(), &mut NoFaults, &mut NullSink)
        .unwrap();

    let n = 12usize; // matrices in the executor string
    let k = 3usize; // worker arrays
    let eg = generate::random_uniform(SEED + 1, n + 1, m, 0, 80);
    let exec_mats = eg.matrix_string();
    let tasks = exec_mats.len() as u64 - 1;
    let want_product = Matrix::string_product(exec_mats);
    let executor = ParallelExecutor::new(k);

    let mut metrics = Vec::new();
    for &faults in &[0u32, 1, 2, 4, 8] {
        let rates = FaultRates {
            transient_flips: faults,
            stuck_at: faults / 2,
            worker_deaths: faults.min(4),
            ..FaultRates::default()
        };
        let domain = FaultDomain {
            pes: m as u32 + 1,
            cycles: clean.cycles,
            tasks,
            ..FaultDomain::default()
        };
        let plan = FaultPlan::random(SEED + faults as u64, rates, domain);

        // Bare faulty run: did the planned value faults corrupt the DP
        // answer (they may be absorbed by the minimization)?
        let mut sink = CountingSink::default();
        let faulty = array
            .try_run(
                g.matrix_string(),
                &mut PlanInjector::new(plan.clone()),
                &mut sink,
            )
            .expect("shapes are valid");
        let corrupted = faulty.values != clean.values;

        // TMR over the same plan (replica 0 faulty) must restore the
        // exact fault-free answer.
        let (voted, tmr_stats) = design1_tmr(
            &array,
            g.matrix_string(),
            &mut PlanInjector::new(plan.clone()),
            &mut sdp_trace::NullSink,
        )
        .expect("TMR over one faulty replica cannot lose the vote");
        assert_eq!(voted.values, clean.values);

        // Fault-tolerant executor under the same plan's worker deaths.
        // Injected deaths are delivered as caught panics; silence the
        // default hook so expected deaths don't spam stderr.
        let prev_hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let exec_run = executor.multiply_string_ft(
            exec_mats,
            &mut PlanInjector::new(plan.clone()),
            &mut sdp_trace::NullSink,
            3,
        );
        std::panic::set_hook(prev_hook);
        let (product, exec_stats) = exec_run.expect("reassignment recovers every injected death");
        assert_eq!(product, want_product);
        let pu = tasks as f64 / (k as u64 * exec_stats.actual_rounds) as f64;

        report.rows.push(vec![
            format!("{}", plan.len()),
            format!("{}", sink.faults_injected),
            format!("{}", if corrupted { "yes" } else { "no" }),
            "yes".to_string(),
            format!("{}", tmr_stats.extra_cycles),
            format!("{}", exec_stats.worker_deaths),
            format!("{}", exec_stats.reassignments),
            format!("{}", exec_stats.actual_rounds),
            format!("{}", exec_stats.baseline_rounds),
            format!("{:.3}", exec_stats.schedule_inflation()),
            format!("{pu:.3}"),
        ]);
        metrics.push(
            Json::object()
                .with("faults_planned", plan.len() as u64)
                .with("faults_injected", sink.faults_injected)
                .with("corrupted", corrupted)
                .with("tmr_recovered", true)
                .with("tmr_redundant_cycles", tmr_stats.extra_cycles)
                .with("tmr_mismatches", tmr_stats.mismatches as u64)
                .with("worker_deaths", exec_stats.worker_deaths as u64)
                .with("reassignments", exec_stats.reassignments as u64)
                .with("rounds", exec_stats.actual_rounds)
                .with("rounds_fault_free", exec_stats.baseline_rounds)
                .with("schedule_inflation", exec_stats.schedule_inflation())
                .with("pu", pu),
        );
    }
    report.notes = vec![
        "tmr_ok: the voted answer equals the fault-free DP values on every rung.".into(),
        "pu: tasks / (K * rounds) for the executor after death recovery.".into(),
    ];
    report.metrics = rows_json(metrics);
    report
}

/// E22 — the throughput engine (perf extension; excluded from
/// [`report_all`] to keep `BENCH_pr1.json` stable): blocked + parallel
/// semiring kernels, batched instance pipelining through every array,
/// and the zero-overhead `NullSink`+`NoFaults` simulation fast path.
///
/// Emitted as `BENCH_pr3.json` by `experiments throughput --json`.
/// Wall-clock columns are host-dependent; cycle counts and PU are
/// deterministic.  Speedup rows are flagged when the host has a single
/// core (same convention as E12).
pub fn report_throughput() -> Report {
    report_throughput_sized(256, 16, 20)
}

/// [`report_throughput`] shrunk for the CI smoke job: small kernel,
/// small batch, few timing reps.  Cycle/PU metrics are identical in
/// structure, so the schema golden-diff runs on this variant.
pub fn report_throughput_quick() -> Report {
    report_throughput_sized(48, 4, 2)
}

fn report_throughput_sized(kernel_n: usize, batch_b: usize, reps: usize) -> Report {
    use sdp_core::edit_array::{edit_distance_mesh_batch, try_edit_distance_mesh};
    use sdp_core::matmul_array::MatmulArray;
    use sdp_semiring::{Matrix, MinPlus};
    use sdp_trace::CountingSink;
    use std::time::Instant;

    fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
        let t0 = Instant::now();
        let r = f();
        (r, t0.elapsed().as_secs_f64() * 1e3)
    }

    let cores = std::thread::available_parallelism()
        .map(|c| c.get())
        .unwrap_or(1);
    let single_core = cores == 1;
    let b = batch_b;
    let mut report = Report::new(
        "e22",
        format!(
            "E22 (throughput engine): blocked/parallel (min,+) kernels, batched\n\
             instance pipelining (B={b}), and the zero-overhead sim fast path\n\
             (kernel {kernel_n}x{kernel_n}; host cores: {cores})"
        ),
    );
    report.headers = vec!["section", "case", "ms", "detail"];

    // ---- 1. Semiring matmul kernels: naive vs blocked vs parallel. ----
    let g = generate::random_uniform(29, 3, kernel_n, 0, 1000);
    let a = &g.matrix_string()[0];
    let c = &g.matrix_string()[1];
    let (want, naive_ms) = timed(|| a.mul_naive(c));
    let (blocked, blocked_ms) = timed(|| a.mul(c));
    assert_eq!(blocked, want, "blocked kernel must be bit-identical");
    let mut scratch = Matrix::<MinPlus>::zeros(1, 1);
    let (_, into_ms) = timed(|| a.mul_blocked_into(c, &mut scratch));
    assert_eq!(scratch, want, "buffer-reuse kernel must be bit-identical");
    let threads = cores.max(2);
    let (parallel, parallel_ms) = timed(|| a.mul_parallel(c, threads));
    assert_eq!(parallel, want, "parallel kernel must be bit-identical");
    let flag = if single_core {
        " (1-core host, not meaningful)"
    } else {
        ""
    };
    let mut kernel_rows = Vec::new();
    for (name, ms, thr) in [
        ("naive i-j-k", naive_ms, 1usize),
        ("blocked i-k-j", blocked_ms, 1),
        ("blocked into scratch", into_ms, 1),
        ("row-parallel", parallel_ms, threads),
    ] {
        let speedup = naive_ms / ms;
        report.rows.push(vec![
            "kernel".into(),
            name.into(),
            format!("{ms:.2}"),
            format!("{speedup:.2}x vs naive, {thr} thread(s){flag}"),
        ]);
        kernel_rows.push(
            Json::object()
                .with("kernel", name)
                .with("ms", ms)
                .with("threads", thr as u64)
                .with("speedup_vs_naive", speedup)
                .with("speedup_flagged", single_core)
                .with("matches_naive", true),
        );
    }

    // ---- 2. Batched instance pipelining through every array. ----
    let mut batch_rows = Vec::new();
    let mut push_batch = |report: &mut Report,
                          engine: &str,
                          single_cycles: u64,
                          single_pu: f64,
                          batch_cycles: u64,
                          batch_pu: f64,
                          batch_ms: f64,
                          note: &str| {
        report.rows.push(vec![
            "batch".into(),
            engine.into(),
            format!("{batch_ms:.2}"),
            format!(
                "B={b}: {batch_cycles} cyc (vs {}x{single_cycles} seq), PU {single_pu:.3} -> {batch_pu:.3}{note}",
                b
            ),
        ]);
        batch_rows.push(
            Json::object()
                .with("engine", engine)
                .with("b", b as u64)
                .with("single_cycles", single_cycles)
                .with("batch_cycles", batch_cycles)
                .with("sequential_cycles", single_cycles * b as u64)
                .with("single_pu", single_pu)
                .with("batch_pu", batch_pu)
                .with("batch_ms", batch_ms),
        );
    };

    // Design 1: single-source/sink strings (even stage count, so the
    // final row phase is a moving pass and results drain out the tail).
    let (stages, m) = (6usize, 4usize);
    let n_mats = (stages - 1) as u64;
    let serial1 = solve::SerialCounts::matrix_string(n_mats, m as u64);
    let strings: Vec<Vec<sdp_semiring::Matrix<MinPlus>>> = (0..b as u64)
        .map(|s| {
            generate::random_single_source_sink(200 + s, stages, m, 0, 50)
                .matrix_string()
                .to_vec()
        })
        .collect();
    let refs: Vec<&[sdp_semiring::Matrix<MinPlus>]> =
        strings.iter().map(|s| s.as_slice()).collect();
    let d1 = Design1Array::new(m);
    let single = d1
        .try_run(&strings[0], &mut NoFaults, &mut NullSink)
        .unwrap();
    let (batch, batch_ms) = timed(|| d1.run_batch(&refs).unwrap());
    push_batch(
        &mut report,
        "design1",
        single.cycles,
        single.measured_pu(serial1),
        batch.cycles,
        batch.measured_pu(serial1 * b as u64),
        batch_ms,
        "",
    );

    // Design 2: broadcast array — no fill/drain to overlap, so the
    // batch is an exact concatenation (reported for completeness).
    let d2 = Design2Array::new(m);
    let single = d2
        .try_run(&strings[0], &mut NoFaults, &mut NullSink)
        .unwrap();
    let (batch, batch_ms) = timed(|| d2.run_batch(&refs).unwrap());
    push_batch(
        &mut report,
        "design2",
        single.cycles,
        single.measured_pu(serial1),
        batch.cycles,
        batch.measured_pu(serial1 * b as u64),
        batch_ms,
        " (broadcast: exact concatenation)",
    );

    // Design 3: node-value graphs on the feedback-bus array.
    let (n3, m3) = (6usize, 4usize);
    let serial3 = solve::SerialCounts::node_value(n3 as u64, m3 as u64);
    let graphs: Vec<_> = (0..b as u64)
        .map(|s| {
            generate::node_value_random(
                400 + s,
                n3,
                m3,
                Box::new(sdp_multistage::node_value::AbsDiff),
                -30,
                30,
            )
        })
        .collect();
    let grefs: Vec<&sdp_multistage::NodeValueGraph> = graphs.iter().collect();
    let d3 = Design3Array::new(m3);
    let single = d3
        .try_run(&graphs[0], &mut NoFaults, &mut NullSink)
        .unwrap();
    let (batch, batch_ms) = timed(|| d3.run_batch(&grefs).unwrap());
    push_batch(
        &mut report,
        "design3",
        single.cycles,
        single.measured_pu(serial3),
        batch.cycles,
        batch.measured_pu(serial3 * b as u64),
        batch_ms,
        "",
    );

    // Matmul mesh: B independent m×m products through one Kung mesh.
    let mm = 6usize;
    let pairs: Vec<(sdp_semiring::Matrix<MinPlus>, sdp_semiring::Matrix<MinPlus>)> = (0..b as u64)
        .map(|s| {
            let g = generate::random_uniform(500 + s, 3, mm, 0, 100);
            (g.matrix_string()[0].clone(), g.matrix_string()[1].clone())
        })
        .collect();
    let single =
        MatmulArray::try_multiply(&pairs[0].0, &pairs[0].1, &mut NoFaults, &mut NullSink).unwrap();
    let single_pu = single.stats.processor_utilization((mm * mm * mm) as u64);
    let (batch, batch_ms) = timed(|| MatmulArray::multiply_batch(&pairs).unwrap());
    push_batch(
        &mut report,
        "matmul_mesh",
        single.cycles,
        single_pu,
        batch.cycles,
        batch.measured_pu(),
        batch_ms,
        "",
    );

    // Edit-distance mesh: B independent p×q alignments, wavefronts one
    // cycle apart.
    let synth = |seed: u64| -> Vec<u8> {
        (0..8u64)
            .map(|i| b'a' + ((seed * 7 + i * 3) % 5) as u8)
            .collect()
    };
    let words: Vec<(Vec<u8>, Vec<u8>)> = (0..b as u64).map(|s| (synth(s), synth(s + 17))).collect();
    let epairs: Vec<(&[u8], &[u8])> = words
        .iter()
        .map(|(x, y)| (x.as_slice(), y.as_slice()))
        .collect();
    let single =
        try_edit_distance_mesh(&words[0].0, &words[0].1, &mut NoFaults, &mut NullSink).unwrap();
    let single_pu = single.stats.processor_utilization((8 * 8) as u64);
    let (batch, batch_ms) = timed(|| edit_distance_mesh_batch(&epairs).unwrap());
    push_batch(
        &mut report,
        "edit_mesh",
        single.cycles,
        single_pu,
        batch.cycles,
        batch.measured_pu(),
        batch_ms,
        "",
    );

    // ---- 3. Zero-overhead fast path: the engine has one fault/trace
    // entry, so a plain run is that entry with NoFaults + NullSink.  It
    // is timed twice — the ratio is the run-to-run noise floor — and
    // tracing pays only when a real sink is on.
    let og = generate::random_single_source_sink(31, 24, 6, 0, 100);
    let omats = og.matrix_string();
    let oarr = Design1Array::new(6);
    let (_, plain_ms) = timed(|| {
        for _ in 0..reps {
            std::hint::black_box(oarr.try_run(omats, &mut NoFaults, &mut NullSink).unwrap());
        }
    });
    let (_, generic_ms) = timed(|| {
        for _ in 0..reps {
            std::hint::black_box(oarr.try_run(omats, &mut NoFaults, &mut NullSink).unwrap());
        }
    });
    let (_, counting_ms) = timed(|| {
        for _ in 0..reps {
            let mut sink = CountingSink::default();
            std::hint::black_box(oarr.try_run(omats, &mut NoFaults, &mut sink).unwrap());
        }
    });
    report.rows.push(vec![
        "fastpath".into(),
        "design1 (24 stages, m=6)".into(),
        format!("{plain_ms:.2}"),
        format!(
            "x{reps}; generic NoFaults+NullSink {:.2}x, CountingSink {:.2}x",
            generic_ms / plain_ms,
            counting_ms / plain_ms
        ),
    ]);
    let overhead_rows = vec![Json::object()
        .with("engine", "design1")
        .with("reps", reps as u64)
        .with("plain_ms", plain_ms)
        .with("generic_nofaults_ms", generic_ms)
        .with("counting_ms", counting_ms)
        .with("generic_overhead_x", generic_ms / plain_ms)
        .with("tracing_overhead_x", counting_ms / plain_ms)];

    report.notes = vec![
        "kernel: all variants asserted bit-identical to the naive oracle before timing.".into(),
        "batch: cycles and PU are deterministic; ms columns are host wall-clock.".into(),
        "fastpath: plain and generic time the same NoFaults+NullSink entry twice, so\n\
         generic_overhead_x ~ 1.0 is the noise floor for tracing_overhead_x."
            .into(),
    ];
    report.metrics = Json::object()
        .with("host_cores", cores as u64)
        .with("kernel_n", kernel_n as u64)
        .with("batch_b", b as u64)
        .with("speedup_flagged", single_core)
        .with(
            "kernel",
            Json::object().with("rows", Json::Array(kernel_rows)),
        )
        .with(
            "batch",
            Json::object().with("rows", Json::Array(batch_rows)),
        )
        .with(
            "fastpath",
            Json::object().with("rows", Json::Array(overhead_rows)),
        );
    report
}

/// E24 (serving saturation): boots the event-driven `sdp-serve` stack
/// in-process and drives it with the poll-multiplexed load generator
/// over real TCP sockets — a cached phase (a fixed 8-problem hot set,
/// measuring the front-end and result-cache fast path) and a cold
/// phase (distinct same-shape problems, measuring coalesced engine
/// dispatch) — and reports throughput, latency percentiles, and the
/// mean coalesced batch size alongside the server's own snapshot.
pub fn report_e24() -> Report {
    report_e24_sized(64, 16, 256, 2, std::time::Duration::from_millis(1000))
}

/// [`report_e24`] shrunk for the CI smoke job; identical schema.
pub fn report_e24_quick() -> Report {
    report_e24_sized(16, 4, 48, 2, std::time::Duration::from_millis(250))
}

fn report_e24_sized(
    cached_conns: usize,
    cached_pipeline: usize,
    cold_conns: usize,
    cold_pipeline: usize,
    window: std::time::Duration,
) -> Report {
    use sdp_semiring::{Matrix, MinPlus};
    use sdp_serve::client::{self, Client};
    use sdp_serve::loadgen::{self, Arrival, LoadConfig};
    use sdp_serve::{json as sjson, Config};

    // The serving configuration under test: the event-loop front-end
    // with a tight adaptive coalescing window, and every bucket pinned
    // to the direct backends (E27 showed they dominate at these sizes;
    // saturation measures the serving stack, not the simulator).
    let handle = sdp_serve::serve(Config {
        max_delay: std::time::Duration::from_millis(2),
        workers: 2,
        direct_threshold: 0,
        ..Config::default()
    })
    .expect("serve bind");
    let addr = handle.addr();

    // Fixed 8-problem hot set over four engine classes, warmed through
    // a plain client so the cached phase runs at a 100% hit rate.
    let mat =
        |vals: &[i64]| Matrix::from_rows(2, 2, vals.iter().map(|&v| MinPlus::from(v)).collect());
    let (ma, mb) = (mat(&[1, 5, 2, 0]), mat(&[3, 1, 4, 1]));
    let (mc, md) = (mat(&[0, 9, 7, 2]), mat(&[1, 1, 6, 0]));
    let hot_set: Vec<String> = vec![
        client::edit_request(1, "kitten", "sitting"),
        client::edit_request(2, "saturn", "urbane"),
        client::chain_request(3, &[10, 20, 50, 1, 30]),
        client::chain_request(4, &[5, 40, 3, 12, 20]),
        client::bst_request(5, &[3, 1, 4, 1, 5]),
        client::bst_request(6, &[2, 7, 1, 8, 2]),
        client::matmul_request(7, &ma, &mb),
        client::matmul_request(8, &mc, &md),
    ];
    let mut warm = Client::connect(addr).expect("connect");
    for line in &hot_set {
        let resp = warm.call_raw(line).expect("warm call");
        assert!(resp.ok, "E24 warmup failed: {:?}", resp.error_message);
    }

    // Cached phase: closed-loop pipelining over the hot set.  Offered
    // load adapts to the completion rate, so this measures the
    // sustainable fast-path throughput without unbounded queueing.
    let hot = loadgen::run(
        &LoadConfig {
            addr: addr.to_string(),
            connections: cached_conns,
            duration: window,
            arrival: Arrival::Closed {
                pipeline: cached_pipeline,
            },
            ..LoadConfig::default()
        },
        |seq| hot_set[(seq % 8) as usize].clone(),
    )
    .expect("cached-phase load run");

    let dispatches_of = |snapshot: &Json| {
        sjson::get(snapshot, "dispatches")
            .and_then(sjson::as_i64)
            .expect("dispatches counter")
    };
    let mut probe = Client::connect(addr).expect("connect");
    let mid = probe
        .metrics()
        .expect("metrics call")
        .result
        .expect("metrics payload");
    let dispatches_before = dispatches_of(&mid);

    // Cold phase: every request is a distinct same-shape edit problem
    // (deterministic operands keyed by sequence number), so the cache
    // never hits and every reply rides a coalesced engine batch.
    let cold = loadgen::run(
        &LoadConfig {
            addr: addr.to_string(),
            connections: cold_conns,
            duration: window,
            arrival: Arrival::Closed {
                pipeline: cold_pipeline,
            },
            ..LoadConfig::default()
        },
        |seq| {
            let mut a = String::new();
            let mut b = String::new();
            let mut x = seq.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1);
            for _ in 0..10 {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                a.push(char::from(b'a' + (x % 26) as u8));
                b.push(char::from(b'a' + ((x >> 8) % 26) as u8));
            }
            format!("{{\"id\":{seq},\"kind\":\"edit\",\"a\":\"{a}\",\"b\":\"{b}\"}}")
        },
    )
    .expect("cold-phase load run");

    let snapshot = probe
        .metrics()
        .expect("metrics call")
        .result
        .expect("metrics payload");
    let cold_dispatches = (dispatches_of(&snapshot) - dispatches_before).max(1) as f64;
    let mean_cold_batch = cold.completed as f64 / cold_dispatches;
    let max_batch = handle.max_coalesced();
    handle.shutdown();

    let phase_row = |name: &str, r: &loadgen::Report| {
        vec![
            name.to_string(),
            format!(
                "{} conns",
                if name == "cached" {
                    cached_conns
                } else {
                    cold_conns
                }
            ),
            format!("{:.0} req/s", r.req_per_s),
            format!(
                "{} reqs, p50 {:.3} ms, p99 {:.3} ms, errors {}",
                r.completed,
                r.latency.quantile(0.50) as f64 / 1e3,
                r.latency.quantile(0.99) as f64 / 1e3,
                r.errors(),
            ),
        ]
    };
    let mut report = Report::new(
        "e24",
        format!(
            "E24 (serving saturation): event-loop front-end + adaptive coalescing,\n\
             cached phase {cached_conns} conns x pipeline {cached_pipeline} over an \
             8-problem hot set,\n\
             cold phase {cold_conns} conns x pipeline {cold_pipeline} of distinct \
             edit problems, {} ms per phase",
            window.as_millis()
        ),
    );
    report.headers = vec!["phase", "load", "throughput", "detail"];
    report.rows.push(phase_row("cached", &hot));
    report.rows.push(phase_row("cold", &cold));
    report.rows.push(vec![
        "coalescing".into(),
        "cold dispatch".into(),
        format!("{mean_cold_batch:.1} mean batch"),
        format!("max coalesced {max_batch}"),
    ]);
    let cores = std::thread::available_parallelism()
        .map(|c| c.get())
        .unwrap_or(1);
    report.notes = vec![
        "closed-loop arrival: offered load adapts to service rate, so throughput is\n\
         the sustainable completion rate; error and unanswered counts must be zero."
            .into(),
    ];
    if cores == 1 {
        report.notes.push(
            "host has a single core: the load generator and the server share it, so\n\
             throughput figures are flagged, not comparable across runs (same\n\
             convention as E12/E22)."
                .into(),
        );
    }
    report.metrics = Json::object()
        .with(
            "config",
            Json::object()
                .with("cached_connections", cached_conns as u64)
                .with("cached_pipeline", cached_pipeline as u64)
                .with("cold_connections", cold_conns as u64)
                .with("cold_pipeline", cold_pipeline as u64)
                .with("phase_window_ms", window.as_secs_f64() * 1e3),
        )
        .with("cached", hot.to_json())
        .with("cold", cold.to_json())
        .with("mean_cold_batch", mean_cold_batch)
        .with("max_coalesced", max_batch)
        .with("host_cores", cores as u64)
        .with("single_core_host", cores == 1)
        .with("server", snapshot);
    report
}

/// E25 (observability): drives the same mixed-class traffic as E24 but
/// reports where the time went — the per-phase request-span breakdown
/// (coalesce / queue / engine / respond), the steal-pool worker lanes,
/// and the Prometheus text exposition's series census — all read from
/// the server's lock-free `sdp-metrics` pipeline.
pub fn report_e25() -> Report {
    report_e25_sized(8, 40, 10)
}

/// [`report_e25`] shrunk for the CI smoke job; identical schema.
pub fn report_e25_quick() -> Report {
    report_e25_sized(4, 8, 8)
}

fn report_e25_sized(clients: usize, reqs_per_client: usize, delay_ms: u64) -> Report {
    use sdp_semiring::{Matrix, MinPlus};
    use sdp_serve::client::{self, Client};
    use sdp_serve::metrics::PHASES;
    use sdp_serve::{json as sjson, Config};
    use std::time::Instant;

    // The E24 working set: 8 problems over four engine classes, every
    // request succeeding, so the span pipeline sees the full coalesce /
    // queue / engine / respond path on every class.
    let mat =
        |vals: &[i64]| Matrix::from_rows(2, 2, vals.iter().map(|&v| MinPlus::from(v)).collect());
    let (ma, mb) = (mat(&[1, 5, 2, 0]), mat(&[3, 1, 4, 1]));
    let (mc, md) = (mat(&[0, 9, 7, 2]), mat(&[1, 1, 6, 0]));
    let request_line = |id: i64, slot: usize| -> String {
        match slot % 8 {
            0 => client::edit_request(id, "kitten", "sitting"),
            1 => client::edit_request(id, "saturn", "urbane"),
            2 => client::chain_request(id, &[10, 20, 50, 1, 30]),
            3 => client::chain_request(id, &[5, 40, 3, 12, 20]),
            4 => client::bst_request(id, &[3, 1, 4, 1, 5]),
            5 => client::bst_request(id, &[2, 7, 1, 8, 2]),
            6 => client::matmul_request(id, &ma, &mb),
            _ => client::matmul_request(id, &mc, &md),
        }
    };

    let handle = sdp_serve::serve(Config {
        max_delay: std::time::Duration::from_millis(delay_ms),
        workers: 4,
        // Caching off: every request must traverse the whole span
        // pipeline, so the phase sample counts are deterministic.
        cache_capacity: 0,
        ..Config::default()
    })
    .expect("serve bind");
    let addr = handle.addr();

    let t0 = Instant::now();
    let threads: Vec<_> = (0..clients)
        .map(|c| {
            let lines: Vec<String> = (0..reqs_per_client)
                .map(|r| request_line((c * reqs_per_client + r) as i64, c + r))
                .collect();
            std::thread::spawn(move || {
                let mut cl = Client::connect(addr).expect("connect");
                for line in &lines {
                    let resp = cl.call_raw(line).expect("call");
                    assert!(resp.ok, "E25 request failed: {:?}", resp.error_message);
                }
            })
        })
        .collect();
    for t in threads {
        t.join().expect("client thread");
    }
    let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
    let total = (clients * reqs_per_client) as u64;
    let req_per_s = total as f64 / (wall_ms / 1e3);

    let mut cl = Client::connect(addr).expect("connect");
    let snapshot = cl
        .metrics()
        .expect("metrics call")
        .result
        .expect("metrics payload");
    let exposition = cl.metrics_text().expect("metrics_text call");
    let text = sjson::get(exposition.result.as_ref().expect("payload"), "text")
        .and_then(sjson::as_str)
        .expect("prometheus text")
        .to_string();
    // The series census is deterministic: the registry is fully wired
    // at server start (7 classes x fixed families + 4 worker lanes),
    // so a drifting line count means a schema change.
    let series_lines = text.lines().filter(|l| !l.starts_with('#')).count() as u64;
    handle.shutdown();

    // Aggregate the per-class phase histograms into one breakdown.
    let classes = sjson::get(&snapshot, "classes").expect("classes");
    let mut phase_doc = Json::object();
    let mut rows_text: Vec<(String, f64, u64)> = Vec::new();
    for phase in PHASES {
        let (mut total_ms, mut samples) = (0.0f64, 0u64);
        for class in ["edit", "chain", "bst", "matmul"] {
            let p = sjson::get(classes, class)
                .and_then(|c| sjson::get(c, "phases"))
                .and_then(|ps| sjson::get(ps, phase))
                .expect("phase document");
            total_ms += sjson::get(p, "total_ms")
                .and_then(sjson::as_f64)
                .unwrap_or(0.0);
            samples += sjson::get(p, "samples")
                .and_then(sjson::as_i64)
                .unwrap_or(0) as u64;
        }
        phase_doc = phase_doc.with(
            phase,
            Json::object()
                .with("total_ms", total_ms)
                .with("samples", samples),
        );
        rows_text.push((phase.to_string(), total_ms, samples));
    }

    let pool = sjson::get(&snapshot, "pool").expect("pool");
    let lane_sum = |lane: &str| -> i64 {
        sjson::get(pool, lane)
            .and_then(sjson::as_array)
            .map(|ws| ws.iter().filter_map(sjson::as_i64).sum())
            .unwrap_or(0)
    };

    let mut report = Report::new(
        "e25",
        format!(
            "E25 (observability): request-span phase breakdown under load, {clients} clients x \
             {reqs_per_client} mixed-class requests, coalescing window {delay_ms} ms,\n\
             cache off so every request spans all four phases"
        ),
    );
    report.headers = vec!["section", "case", "value", "detail"];
    for (phase, total_ms, samples) in &rows_text {
        report.rows.push(vec![
            "phase".into(),
            phase.clone(),
            format!("{total_ms:.2} ms"),
            format!("{samples} samples"),
        ]);
    }
    report.rows.push(vec![
        "pool".into(),
        "tasks".into(),
        format!("{}", lane_sum("ran") + lane_sum("stolen")),
        format!(
            "{} run directly, {} stolen",
            lane_sum("ran"),
            lane_sum("stolen")
        ),
    ]);
    report.rows.push(vec![
        "exporter".into(),
        "prometheus".into(),
        format!("{series_lines}"),
        "non-comment exposition lines".into(),
    ]);
    report.notes = vec![
        "phase sample counts are deterministic (cache off: every request is spanned);\n\
         ms totals and the ran/stolen split depend on thread timing."
            .into(),
    ];
    report.metrics = Json::object()
        .with("clients", clients as u64)
        .with("requests_per_client", reqs_per_client as u64)
        .with("total_requests", total)
        .with("delay_window_ms", delay_ms as f64)
        .with("wall_ms", wall_ms)
        .with("req_per_s", req_per_s)
        .with("phase_breakdown", phase_doc)
        .with("prometheus_series_lines", series_lines)
        .with("server", snapshot);
    report
}

/// One deterministic chaos campaign's client-side accounting.
struct ChaosCampaign {
    ok: u64,
    typed: u64,
    lost: u64,
    degraded: u64,
    reconnects: u64,
    /// Typed-error counts keyed by the fixed kind schema
    /// ([`CHAOS_ERROR_KINDS`]); unexpected kinds land in `other`.
    kinds: Vec<u64>,
    injected: [(&'static str, u64); 4],
    drops_injected: u64,
    payloads_ok: bool,
    ids_ok: bool,
    queue_drained: bool,
}

/// The fixed error-kind schema E26 reports (zero-defaulted so the
/// golden pins the keys even when a kind never fires).
const CHAOS_ERROR_KINDS: [&str; 6] = [
    "task_panicked",
    "circuit_open",
    "overloaded",
    "deadline_exceeded",
    "queue_full",
    "other",
];

/// Suppresses backtrace noise from chaos-injected engine panics (they
/// are caught at the bucket boundary; the default hook would still spam
/// stderr once per injection).  Non-chaos panics pass through.
fn quiet_chaos_panics() {
    use std::sync::Once;
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let msg = info
                .payload()
                .downcast_ref::<&str>()
                .copied()
                .map(str::to_owned)
                .or_else(|| info.payload().downcast_ref::<String>().cloned())
                .unwrap_or_default();
            if msg.contains("chaos") {
                return;
            }
            prev(info);
        }));
    });
}

/// Drives one chaos campaign: a fresh server wired to the seed's
/// [`ChaosPlan`](sdp_fault::ChaosPlan), `clients` concurrent
/// connections sending `reqs_per_client` edit requests each (10 s
/// deadlines, cache off), every outcome classified exactly once.
/// Returns the accounting plus the final server snapshot.
fn chaos_campaign(seed: u64, clients: usize, reqs_per_client: usize) -> (ChaosCampaign, Json) {
    use sdp_fault::{ChaosDomain, ChaosPlan, ChaosRates, ServeChaos};
    use sdp_oracle::served;
    use sdp_serve::client::{self, Client};
    use sdp_serve::{json as sjson, Config};
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
    use std::sync::Arc;
    use std::time::Duration;

    quiet_chaos_panics();
    let total = (clients * reqs_per_client) as u64;
    let plan = ChaosPlan::random(
        seed,
        ChaosRates {
            engine_panics: 2,
            engine_stalls: 2,
            torn_writes: 3,
            connection_drops: 2,
        },
        ChaosDomain {
            dispatches: total,
            replies: total,
            max_stall_ms: 25,
        },
    );
    let chaos = Arc::new(ServeChaos::new(&plan));
    let handle = sdp_serve::serve(Config {
        max_delay: Duration::from_millis(2),
        cache_capacity: 0,
        breaker_trip_after: 2,
        breaker_cooldown: Duration::from_millis(150),
        breaker_fallback_max_bytes: 64,
        chaos: Some(Arc::clone(&chaos)),
        ..Config::default()
    })
    .expect("serve bind");
    let addr = handle.addr();

    const PAIRS: [(&str, &str); 4] = [
        ("kitten", "sitting"),
        ("saturn", "urbane"),
        ("flaw", "lawn"),
        ("gumbo", "gambol"),
    ];
    let ok = Arc::new(AtomicU64::new(0));
    let lost = Arc::new(AtomicU64::new(0));
    let degraded = Arc::new(AtomicU64::new(0));
    let reconnects = Arc::new(AtomicU64::new(0));
    let kinds: Arc<Vec<AtomicU64>> = Arc::new(
        CHAOS_ERROR_KINDS
            .iter()
            .map(|_| AtomicU64::new(0))
            .collect(),
    );
    let payloads_ok = Arc::new(AtomicBool::new(true));
    let ids_ok = Arc::new(AtomicBool::new(true));

    let threads: Vec<_> = (0..clients)
        .map(|c| {
            let (ok, lost, degraded, reconnects, kinds, payloads_ok, ids_ok) = (
                Arc::clone(&ok),
                Arc::clone(&lost),
                Arc::clone(&degraded),
                Arc::clone(&reconnects),
                Arc::clone(&kinds),
                Arc::clone(&payloads_ok),
                Arc::clone(&ids_ok),
            );
            std::thread::spawn(move || {
                let mut conn = Client::connect(addr).expect("connect");
                for r in 0..reqs_per_client {
                    let id = (c * reqs_per_client + r) as i64 + 1;
                    let (a, b) = PAIRS[(c + r) % PAIRS.len()];
                    let line = client::with_deadline(&client::edit_request(id, a, b), 10_000);
                    // A failed write never reached the server: resend on
                    // a fresh connection (bounded), never double-count.
                    let mut outcome = None;
                    for _ in 0..4 {
                        if conn.send_raw(&line).is_err() {
                            reconnects.fetch_add(1, Ordering::Relaxed);
                            conn = Client::connect(addr).expect("reconnect");
                            continue;
                        }
                        match conn.read_response() {
                            Ok(resp) => {
                                outcome = Some(Some(resp));
                                break;
                            }
                            Err(_) => {
                                // Reply lost to an injected drop.
                                outcome = Some(None);
                                reconnects.fetch_add(1, Ordering::Relaxed);
                                conn = Client::connect(addr).expect("reconnect");
                                break;
                            }
                        }
                    }
                    match outcome.expect("write retries exhausted") {
                        Some(resp) => {
                            if resp.id != id {
                                ids_ok.store(false, Ordering::Relaxed);
                            }
                            if resp.ok {
                                let expect =
                                    served::served_edit(a.as_bytes(), b.as_bytes()).render();
                                let got = resp.result.map(|p| p.render()).unwrap_or_default();
                                if got != expect {
                                    payloads_ok.store(false, Ordering::Relaxed);
                                }
                                if resp.degraded {
                                    degraded.fetch_add(1, Ordering::Relaxed);
                                }
                                ok.fetch_add(1, Ordering::Relaxed);
                            } else {
                                let kind = resp.error_kind.as_deref().unwrap_or("other");
                                let slot = CHAOS_ERROR_KINDS
                                    .iter()
                                    .position(|k| *k == kind)
                                    .unwrap_or(CHAOS_ERROR_KINDS.len() - 1);
                                kinds[slot].fetch_add(1, Ordering::Relaxed);
                            }
                        }
                        None => {
                            lost.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                }
            })
        })
        .collect();
    for t in threads {
        t.join().expect("chaos client thread");
    }

    // Control replies bypass chaos, so the final snapshot is always
    // observable.
    let mut cl = Client::connect(addr).expect("post-chaos connect");
    let snapshot = cl
        .metrics()
        .expect("metrics call")
        .result
        .expect("metrics payload");
    let queue_drained = sjson::get(&snapshot, "queue_depth").and_then(sjson::as_i64) == Some(0);
    drop(cl);
    handle.shutdown();

    let campaign = ChaosCampaign {
        ok: ok.load(Ordering::Relaxed),
        typed: kinds.iter().map(|k| k.load(Ordering::Relaxed)).sum(),
        lost: lost.load(Ordering::Relaxed),
        degraded: degraded.load(Ordering::Relaxed),
        reconnects: reconnects.load(Ordering::Relaxed),
        kinds: kinds.iter().map(|k| k.load(Ordering::Relaxed)).collect(),
        injected: chaos.injected_counts(),
        drops_injected: chaos.drops_injected(),
        payloads_ok: payloads_ok.load(Ordering::Relaxed),
        ids_ok: ids_ok.load(Ordering::Relaxed),
        queue_drained,
    };
    (campaign, snapshot)
}

/// E26 (chaos): deterministic seed-driven fault injection across the
/// whole serving path — engine panics, stalls, torn writes, and
/// connection drops — machine-checking the paper-of-record invariant
/// for a robust server: *every accepted request yields exactly one
/// reply or one typed error*, under any chaos seed.
pub fn report_e26() -> Report {
    report_e26_sized(8, 30, &[0x2026, 0x31337, 0x99])
}

/// [`report_e26`] shrunk for the CI smoke job; identical schema.
pub fn report_e26_quick() -> Report {
    report_e26_sized(4, 10, &[0x2026])
}

fn report_e26_sized(clients: usize, reqs_per_client: usize, seeds: &[u64]) -> Report {
    use std::time::Instant;

    let per_seed = (clients * reqs_per_client) as u64;
    let t0 = Instant::now();
    let mut campaigns: Vec<(u64, ChaosCampaign)> = Vec::new();
    let mut last_snapshot = Json::Null;
    for &seed in seeds {
        let (campaign, snapshot) = chaos_campaign(seed, clients, reqs_per_client);
        campaigns.push((seed, campaign));
        last_snapshot = snapshot;
    }
    let wall_ms = t0.elapsed().as_secs_f64() * 1e3;

    // The machine-checked invariants, ANDed across every seed.
    let exactly_one = campaigns
        .iter()
        .all(|(_, c)| c.ok + c.typed + c.lost == per_seed);
    // Each injected connection drop loses the in-flight reply and can
    // additionally eat one write racing into the dying socket; with no
    // drops injected, no reply may be lost at all.
    let drops_accounted = campaigns
        .iter()
        .all(|(_, c)| c.lost >= c.drops_injected && c.lost <= 2 * c.drops_injected);
    let payloads_match = campaigns.iter().all(|(_, c)| c.payloads_ok);
    let ids_in_order = campaigns.iter().all(|(_, c)| c.ids_ok);
    let queues_drained = campaigns.iter().all(|(_, c)| c.queue_drained);

    let mut report = Report::new(
        "e26",
        format!(
            "E26 (chaos): seed-driven fault injection over the serving path, {clients} clients x \
             {reqs_per_client} requests per seed, {} seeds,\n\
             invariant: every accepted request yields exactly one reply or one typed error",
            seeds.len()
        ),
    );
    report.headers = vec!["seed", "outcomes", "injected", "invariants"];
    let sum = |f: fn(&ChaosCampaign) -> u64| campaigns.iter().map(|(_, c)| f(c)).sum::<u64>();
    for (seed, c) in &campaigns {
        let inj: Vec<String> = c.injected.iter().map(|(k, n)| format!("{k}={n}")).collect();
        report.rows.push(vec![
            format!("{seed:#x}"),
            format!("ok={} typed={} lost={}", c.ok, c.typed, c.lost),
            inj.join(" "),
            format!(
                "one-outcome={} drops-accounted={} oracle-match={}",
                c.ok + c.typed + c.lost == per_seed,
                c.lost >= c.drops_injected && c.lost <= 2 * c.drops_injected,
                c.payloads_ok
            ),
        ]);
    }
    let cores = std::thread::available_parallelism()
        .map(|c| c.get())
        .unwrap_or(1);
    report.notes = vec![
        "seeds, request counts, and the invariant verdicts are deterministic; which\n\
         chaos events actually fire (and therefore the outcome split) depends on how\n\
         requests interleave into engine buckets."
            .into(),
    ];
    if cores == 1 {
        report.notes.push(
            "host has a single core: outcome splits see less interleaving than the\n\
             campaign targets (same convention as E12/E22)."
                .into(),
        );
    }

    let mut kinds_doc = Json::object();
    for (i, kind) in CHAOS_ERROR_KINDS.iter().enumerate() {
        let n: u64 = campaigns.iter().map(|(_, c)| c.kinds[i]).sum();
        kinds_doc = kinds_doc.with(kind, n);
    }
    let mut injected_doc = Json::object();
    for i in 0..4 {
        let name = campaigns[0].1.injected[i].0;
        let n: u64 = campaigns.iter().map(|(_, c)| c.injected[i].1).sum();
        injected_doc = injected_doc.with(name, n);
    }
    report.metrics = Json::object()
        .with("clients", clients as u64)
        .with("requests_per_client", reqs_per_client as u64)
        .with("requests_per_seed", per_seed)
        .with(
            "seeds",
            Json::Array(seeds.iter().map(|&s| Json::from(s)).collect()),
        )
        .with("invariant_exactly_one_outcome", exactly_one)
        .with("invariant_drops_accounted", drops_accounted)
        .with("invariant_payloads_match_oracle", payloads_match)
        .with("invariant_ids_in_order", ids_in_order)
        .with("invariant_queue_drained", queues_drained)
        .with("wall_ms", wall_ms)
        .with("ok_observed", sum(|c| c.ok))
        .with("typed_errors_observed", sum(|c| c.typed))
        .with("lost_observed", sum(|c| c.lost))
        .with("degraded_observed", sum(|c| c.degraded))
        .with("reconnects_observed", sum(|c| c.reconnects))
        .with("error_kinds_observed", kinds_doc)
        .with("chaos_injected_observed", injected_doc)
        .with("host_cores", cores as u64)
        .with("single_core_host", cores == 1)
        .with("server", last_snapshot);
    report
}

/// A labelled size ramp for one engine class: `(label, class,
/// [(size label, request body)])`, shared by E27 and E28.
type Ramp = (
    &'static str,
    sdp_serve::protocol::Class,
    Vec<(String, sdp_serve::protocol::Body)>,
);

/// E27 (direct backends): sim-vs-direct wall time per engine class
/// across a size ramp, measured at the exact seam the serve dispatcher
/// switches — `engine::run_bucket_on` — so the numbers are the latency
/// a request actually trades when it crosses the threshold.  Locates
/// the wall-clock crossover per class and records the speedup at the
/// top of the ramp (the acceptance bar is ≥10× there).
///
/// Emitted as `BENCH_pr8.json` by `experiments backend --json`.
pub fn report_e27() -> Report {
    report_e27_sized(5, 3)
}

/// [`report_e27`] shrunk for the CI smoke job: the first three ramp
/// sizes per class, fewer reps.  Identical schema, so the golden
/// schema-diff runs on this variant.
pub fn report_e27_quick() -> Report {
    report_e27_sized(3, 2)
}

fn report_e27_sized(ramp_len: usize, reps: usize) -> Report {
    use sdp_semiring::{Matrix, MinPlus};
    use sdp_serve::engine::{self, EngineKind};
    use sdp_serve::protocol::{Body, Class};
    use std::time::Instant;

    // Seeded xorshift so the ramp instances are deterministic without
    // pulling a test-rng dependency into the bench crate.
    fn draw(seed: &mut u64, span: u64) -> u64 {
        *seed ^= *seed << 13;
        *seed ^= *seed >> 7;
        *seed ^= *seed << 17;
        *seed % span
    }
    fn minplus_matrix(seed: &mut u64, rows: usize, cols: usize) -> Matrix<MinPlus> {
        let mut vals = Vec::with_capacity(rows * cols);
        for _ in 0..rows * cols {
            vals.push(MinPlus::from(draw(seed, 100) as i64));
        }
        Matrix::from_rows(rows, cols, vals)
    }
    fn letters(seed: &mut u64, len: usize) -> Vec<u8> {
        (0..len).map(|_| b'a' + draw(seed, 4) as u8).collect()
    }

    // One ramp per dispatchable class: (label, class, bodies by size).
    // Sizes span work ~10²..10⁵ so both sides of the serve threshold
    // (default 4096) appear in every ramp.
    let string_body = |design: u8, n: usize, m: usize, seed: u64| -> Body {
        let mut s = seed | 1;
        Body::Multistage {
            design,
            mats: (0..n).map(|_| minplus_matrix(&mut s, m, m)).collect(),
        }
    };
    let ramps: Vec<Ramp> = vec![
        (
            "multistage1",
            Class::Multistage1,
            [(4usize, 4usize), (10, 8), (25, 16), (50, 24), (100, 32)]
                .iter()
                .map(|&(n, m)| (format!("N={n} m={m}"), string_body(1, n, m, 0xE271)))
                .collect(),
        ),
        (
            "multistage2",
            Class::Multistage2,
            [(4usize, 4usize), (10, 8), (25, 16), (50, 24), (100, 32)]
                .iter()
                .map(|&(n, m)| (format!("N={n} m={m}"), string_body(2, n, m, 0xE272)))
                .collect(),
        ),
        (
            "matmul",
            Class::Matmul,
            [4usize, 8, 16, 32, 64]
                .iter()
                .map(|&m| {
                    let mut s = 0xE273u64 | 1;
                    (
                        format!("m={m}"),
                        Body::Matmul {
                            a: minplus_matrix(&mut s, m, m),
                            b: minplus_matrix(&mut s, m, m),
                        },
                    )
                })
                .collect(),
        ),
        (
            "edit",
            Class::Edit,
            [8usize, 24, 64, 160, 320]
                .iter()
                .map(|&len| {
                    let mut s = 0xE274u64 | 1;
                    (
                        format!("|a|=|b|={len}"),
                        Body::Edit {
                            a: letters(&mut s, len),
                            b: letters(&mut s, len),
                        },
                    )
                })
                .collect(),
        ),
        (
            "chain",
            Class::Chain,
            [4usize, 8, 16, 32, 46]
                .iter()
                .map(|&n| {
                    (
                        format!("N={n}"),
                        Body::Chain {
                            dims: generate::random_chain_dims(0xE275, n, 1, 40),
                        },
                    )
                })
                .collect(),
        ),
        (
            "bst",
            Class::Bst,
            [4usize, 8, 16, 32, 46]
                .iter()
                .map(|&n| {
                    let mut s = 0xE276u64 | 1;
                    (
                        format!("N={n}"),
                        Body::Bst {
                            freq: (0..n).map(|_| 1 + draw(&mut s, 100)).collect(),
                        },
                    )
                })
                .collect(),
        ),
    ];

    let cores = std::thread::available_parallelism()
        .map(|c| c.get())
        .unwrap_or(1);
    let mut report = Report::new(
        "e27",
        format!(
            "E27 (direct backends): cycle-accurate sim vs compiled direct solver,\n\
             wall time per class across a work ramp at the run_bucket_on dispatch\n\
             seam; x{reps} reps (host cores: {cores})"
        ),
    );
    report.headers = vec!["class", "size", "work", "sim ms", "direct ms", "speedup"];

    let timed_ms = |kind: EngineKind, class: Class, body: &Body| -> f64 {
        let bodies = std::slice::from_ref(body);
        let t0 = Instant::now();
        for _ in 0..reps {
            std::hint::black_box(engine::run_bucket_on(kind, class, bodies));
        }
        t0.elapsed().as_secs_f64() * 1e3 / reps as f64
    };

    let mut class_docs = Vec::new();
    for (label, class, sizes) in &ramps {
        let mut rows = Vec::new();
        let mut crossover_work = Json::Null;
        let mut speedup_at_max = 0.0f64;
        for (desc, body) in sizes.iter().take(ramp_len) {
            // Bit-identity first — never time two engines that disagree.
            let sim_payload =
                engine::run_bucket_on(EngineKind::Sim, *class, std::slice::from_ref(body));
            let direct_payload =
                engine::run_bucket_on(EngineKind::Direct, *class, std::slice::from_ref(body));
            let identical = match (&sim_payload[0], &direct_payload[0]) {
                (Ok(s), Ok(d)) => s.render() == d.render(),
                _ => false,
            };
            assert!(
                identical,
                "E27 {label} {desc}: sim and direct payloads differ"
            );

            let work = engine::body_work(body);
            let sim_ms = timed_ms(EngineKind::Sim, *class, body);
            let direct_ms = timed_ms(EngineKind::Direct, *class, body);
            let speedup = sim_ms / direct_ms;
            speedup_at_max = speedup;
            if matches!(crossover_work, Json::Null) && direct_ms <= sim_ms {
                crossover_work = Json::from(work);
            }
            report.rows.push(vec![
                (*label).into(),
                desc.clone(),
                format!("{work}"),
                format!("{sim_ms:.3}"),
                format!("{direct_ms:.3}"),
                format!("{speedup:.1}x"),
            ]);
            rows.push(
                Json::object()
                    .with("size", desc.as_str())
                    .with("work", work)
                    .with("sim_ms", sim_ms)
                    .with("direct_ms", direct_ms)
                    .with("speedup", speedup)
                    .with("payload_identical", true),
            );
        }
        class_docs.push(
            Json::object()
                .with("class", *label)
                .with("rows", Json::Array(rows))
                .with("crossover_work", crossover_work)
                .with("speedup_at_max", speedup_at_max),
        );
    }

    report.notes = vec![
        "payloads asserted bit-identical between sim and direct before timing;\n\
         ms and speedup columns are host wall-clock, work columns deterministic."
            .into(),
        "crossover_work = smallest ramp work measure where the direct solver is\n\
         at least as fast as the simulator; the serve --direct-threshold default\n\
         (4096) sits inside every class's ramp."
            .into(),
        "expected gap differs by sim fidelity: edit/matmul/multistage1 serve\n\
         from cycle-accurate PE arrays (order-of-magnitude interpretive\n\
         overhead to strip), while multistage2 broadcast, chain, and BST serve\n\
         paths already run flat DP loops, so direct wins only a constant factor\n\
         there."
            .into(),
    ];
    report.metrics = Json::object()
        .with("host_cores", cores as u64)
        .with("single_core_host", cores == 1)
        .with("reps", reps as u64)
        .with("ramp_len", ramp_len as u64)
        .with("classes", Json::Array(class_docs));
    report
}

/// E28 (DP workloads): the alignment and knapsack request classes at
/// the same `run_bucket_on` dispatch seam E27 measures — sim vs direct
/// wall time across a work ramp, with each payload first proved
/// bit-identical between the two engines *and* to the independent
/// oracle's `served_*` rendering.
///
/// Emitted as `BENCH_pr9.json` by `experiments workloads --json`.
pub fn report_e28() -> Report {
    report_e28_sized(5, 3)
}

/// [`report_e28`] shrunk for the CI smoke job: the first three ramp
/// sizes per class, fewer reps.  Identical schema, so the golden
/// schema-diff runs on this variant.
pub fn report_e28_quick() -> Report {
    report_e28_sized(3, 2)
}

fn report_e28_sized(ramp_len: usize, reps: usize) -> Report {
    use sdp_core::knapsack_array::KnapsackItem;
    use sdp_oracle::served;
    use sdp_serve::engine::{self, EngineKind};
    use sdp_serve::protocol::{Body, Class};
    use std::time::Instant;

    fn draw(seed: &mut u64, span: u64) -> u64 {
        *seed ^= *seed << 13;
        *seed ^= *seed >> 7;
        *seed ^= *seed << 17;
        *seed % span
    }

    // Work ramps spanning ~10²..10⁵ so both sides of the serve
    // threshold (default 4096) appear in each class.
    let align_body = |len: usize| -> Body {
        let mut s = 0xE281u64 | 1;
        Body::Align {
            a: (0..len).map(|_| draw(&mut s, 4) as u8).collect(),
            b: (0..len).map(|_| draw(&mut s, 4) as u8).collect(),
            matched: 2,
            mismatched: -1,
            gap: 1,
        }
    };
    let knapsack_body = |n: usize, capacity: u64| -> Body {
        let mut s = 0xE282u64 | 1;
        Body::Knapsack {
            items: (0..n)
                .map(|_| KnapsackItem::new(1 + draw(&mut s, 8), 1 + draw(&mut s, 100)))
                .collect(),
            capacity,
        }
    };
    let ramps: Vec<Ramp> = vec![
        (
            "align",
            Class::Align,
            [8usize, 24, 64, 160, 320]
                .iter()
                .map(|&len| (format!("|a|=|b|={len}"), align_body(len)))
                .collect(),
        ),
        (
            "knapsack",
            Class::Knapsack,
            [(4usize, 15u64), (8, 60), (16, 250), (40, 800), (100, 999)]
                .iter()
                .map(|&(n, c)| (format!("n={n} C={c}"), knapsack_body(n, c)))
                .collect(),
        ),
    ];

    // The oracle's expected payload for a workload body — computed from
    // the from-scratch reference solvers, no engine code on the path.
    let oracle_payload = |body: &Body| -> String {
        match body {
            Body::Align {
                a,
                b,
                matched,
                mismatched,
                gap,
            } => served::served_align(a, b, *matched, *mismatched, *gap).render(),
            Body::Knapsack { items, capacity } => {
                let pairs: Vec<(u64, u64)> = items.iter().map(|it| (it.weight, it.value)).collect();
                served::served_knapsack(&pairs, *capacity).render()
            }
            _ => unreachable!("workload ramp"),
        }
    };

    let cores = std::thread::available_parallelism()
        .map(|c| c.get())
        .unwrap_or(1);
    let mut report = Report::new(
        "e28",
        format!(
            "E28 (DP workloads): alignment & knapsack request classes, sim vs\n\
             direct wall time across a work ramp at the run_bucket_on dispatch\n\
             seam, payloads proved identical to the oracle; x{reps} reps (host\n\
             cores: {cores})"
        ),
    );
    report.headers = vec!["class", "size", "work", "sim ms", "direct ms", "speedup"];

    let timed_ms = |kind: EngineKind, class: Class, body: &Body| -> f64 {
        let bodies = std::slice::from_ref(body);
        let t0 = Instant::now();
        for _ in 0..reps {
            std::hint::black_box(engine::run_bucket_on(kind, class, bodies));
        }
        t0.elapsed().as_secs_f64() * 1e3 / reps as f64
    };

    let mut class_docs = Vec::new();
    for (label, class, sizes) in &ramps {
        let mut rows = Vec::new();
        let mut crossover_work = Json::Null;
        let mut speedup_at_max = 0.0f64;
        for (desc, body) in sizes.iter().take(ramp_len) {
            // Triple identity first — never time engines that disagree
            // with each other or with the oracle.
            let sim = engine::run_bucket_on(EngineKind::Sim, *class, std::slice::from_ref(body));
            let direct =
                engine::run_bucket_on(EngineKind::Direct, *class, std::slice::from_ref(body));
            let want = oracle_payload(body);
            let identical = match (&sim[0], &direct[0]) {
                (Ok(s), Ok(d)) => s.render() == d.render() && s.render() == want,
                _ => false,
            };
            assert!(
                identical,
                "E28 {label} {desc}: sim, direct, and oracle payloads must agree"
            );

            let work = engine::body_work(body);
            let sim_ms = timed_ms(EngineKind::Sim, *class, body);
            let direct_ms = timed_ms(EngineKind::Direct, *class, body);
            let speedup = sim_ms / direct_ms;
            speedup_at_max = speedup;
            if matches!(crossover_work, Json::Null) && direct_ms <= sim_ms {
                crossover_work = Json::from(work);
            }
            report.rows.push(vec![
                (*label).into(),
                desc.clone(),
                format!("{work}"),
                format!("{sim_ms:.3}"),
                format!("{direct_ms:.3}"),
                format!("{speedup:.1}x"),
            ]);
            rows.push(
                Json::object()
                    .with("size", desc.as_str())
                    .with("work", work)
                    .with("sim_ms", sim_ms)
                    .with("direct_ms", direct_ms)
                    .with("speedup", speedup)
                    .with("payload_identical", true)
                    .with("oracle_identical", true),
            );
        }
        class_docs.push(
            Json::object()
                .with("class", *label)
                .with("rows", Json::Array(rows))
                .with("crossover_work", crossover_work)
                .with("speedup_at_max", speedup_at_max),
        );
    }

    report.notes = vec![
        "payloads asserted bit-identical between sim, direct, and the oracle's\n\
         served_* rendering before timing; ms and speedup columns are host\n\
         wall-clock, size/work columns deterministic."
            .into(),
        "crossover_work = smallest ramp work measure where the direct solver is\n\
         at least as fast as the simulator; the serve --direct-threshold default\n\
         (4096) sits inside both ramps."
            .into(),
    ];
    report.metrics = Json::object()
        .with("host_cores", cores as u64)
        .with("single_core_host", cores == 1)
        .with("reps", reps as u64)
        .with("ramp_len", ramp_len as u64)
        .with("classes", Json::Array(class_docs));
    report
}

/// Builds every experiment report in order.
pub fn report_all() -> Vec<Report> {
    vec![
        report_e1(),
        report_e2(),
        report_e3(),
        report_fig6(),
        report_prop1(),
        report_thm1(),
        report_thm2(),
        report_prop2(),
        report_prop3(),
        report_eq40(),
        report_table1(),
        report_e12(),
        report_e13(),
        report_e14(),
        report_e15(),
        report_e16(),
        report_e17(),
        report_e18(),
        report_e19(),
        report_e20(),
    ]
}

/// E1 rendered as terminal text.
pub fn run_e1() -> String {
    report_e1().render_text()
}

/// E2 rendered as terminal text.
pub fn run_e2() -> String {
    report_e2().render_text()
}

/// E3 rendered as terminal text.
pub fn run_e3() -> String {
    report_e3().render_text()
}

/// E4 rendered as terminal text.
pub fn run_fig6() -> String {
    report_fig6().render_text()
}

/// E5 rendered as terminal text.
pub fn run_prop1() -> String {
    report_prop1().render_text()
}

/// E6 rendered as terminal text.
pub fn run_thm1() -> String {
    report_thm1().render_text()
}

/// E7 rendered as terminal text.
pub fn run_thm2() -> String {
    report_thm2().render_text()
}

/// E8 rendered as terminal text.
pub fn run_prop2() -> String {
    report_prop2().render_text()
}

/// E9 rendered as terminal text.
pub fn run_prop3() -> String {
    report_prop3().render_text()
}

/// E10 rendered as terminal text.
pub fn run_eq40() -> String {
    report_eq40().render_text()
}

/// E11 rendered as terminal text.
pub fn run_table1() -> String {
    report_table1().render_text()
}

/// E12 rendered as terminal text.
pub fn run_e12() -> String {
    report_e12().render_text()
}

/// E13 rendered as terminal text.
pub fn run_e13() -> String {
    report_e13().render_text()
}

/// E14 rendered as terminal text.
pub fn run_e14() -> String {
    report_e14().render_text()
}

/// E15 rendered as terminal text.
pub fn run_e15() -> String {
    report_e15().render_text()
}

/// E16 rendered as terminal text.
pub fn run_e16() -> String {
    report_e16().render_text()
}

/// E17 rendered as terminal text.
pub fn run_e17() -> String {
    report_e17().render_text()
}

/// E18 rendered as terminal text.
pub fn run_e18() -> String {
    report_e18().render_text()
}

/// E19 rendered as terminal text.
pub fn run_e19() -> String {
    report_e19().render_text()
}

/// E20 rendered as terminal text.
pub fn run_e20() -> String {
    report_e20().render_text()
}

/// Runs every experiment in order, concatenating reports.
pub fn run_all() -> String {
    report_all()
        .iter()
        .map(Report::render_text)
        .collect::<Vec<_>>()
        .join("\n\n")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e1_reports_matching_costs() {
        let r = run_e1();
        assert!(r.contains("Eq. 9"));
        // systolic and dp columns must agree: spot-check via absence of
        // mismatch markers is weak, so re-verify directly:
        let g = generate::random_single_source_sink(9, 10, 4, 0, 50);
        let res = Design1Array::new(4)
            .try_run(g.matrix_string(), &mut NoFaults, &mut NullSink)
            .unwrap();
        assert_eq!(res.optimum(), solve::forward_dp(&g).cost);
    }

    #[test]
    fn fig6_report_contains_minimum() {
        let r = run_fig6();
        assert!(r.contains("global KT^2 minimum"));
        assert!(r.contains("N/log2(N)"));
    }

    #[test]
    fn prop_reports_match_closed_forms() {
        assert!(run_prop2().contains("cost ok"));
        assert!(run_prop3().contains("2N"));
    }

    #[test]
    fn table1_lists_all_classes() {
        let r = run_table1();
        for c in [
            "monadic-serial",
            "polyadic-serial",
            "monadic-nonserial",
            "polyadic-nonserial",
        ] {
            assert!(r.contains(c), "{c} missing");
        }
    }

    #[test]
    fn eq40_oracle_ok() {
        let r = run_eq40();
        assert!(!r.contains("false"), "an oracle check failed:\n{r}");
    }

    #[test]
    fn reports_carry_machine_metrics() {
        let r = report_e1();
        let doc = r.to_json().render();
        assert!(doc.contains("\"id\":\"e1\""));
        assert!(doc.contains("\"pu\":"));
        assert!(doc.contains("\"cycles\":"));
        let r3 = report_e3();
        let doc3 = r3.to_json().render();
        assert!(doc3.contains("\"bus_words\":"));
        assert!(doc3.contains("\"path_ok\":true"));
    }

    #[test]
    fn report_rows_match_table_rows() {
        for report in [report_e2(), report_prop2(), report_e20()] {
            let Json::Object(fields) = &report.metrics else {
                panic!("metrics must be an object");
            };
            let rows = fields
                .iter()
                .find(|(k, _)| k == "rows")
                .map(|(_, v)| match v {
                    Json::Array(a) => a.len(),
                    _ => 0,
                })
                .unwrap_or(0);
            assert_eq!(rows, report.rows.len(), "{}", report.id);
        }
    }
}
