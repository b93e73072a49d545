//! Divide-and-conquer granularity explorer — Figure 6 for any N.
//!
//! ```text
//! cargo run --release --example granularity_explorer [N] [K_MAX]
//! ```
//!
//! Sweeps the number of systolic arrays K, printing T (Eq. 29), K·T² and
//! the simulated PU, then reports the optimum against the paper's
//! Θ(N/log₂N) granularity (Theorem 1).

use systolic_dp::prelude::*;

fn main() {
    let mut args = std::env::args().skip(1);
    let n: u64 = args
        .next()
        .map(|s| s.parse().expect("N must be an integer"))
        .unwrap_or(4096);
    let k_max: u64 = args
        .next()
        .map(|s| s.parse().expect("K_MAX must be an integer"))
        .unwrap_or(n / 4);
    assert!(n >= 2 && k_max >= 1);

    println!("== divide-and-conquer granularity (Figure 6) ==");
    println!("N = {n} matrices, sweeping K = 1..={k_max}\n");
    println!("{:>8} {:>8} {:>14} {:>8}", "K", "T", "K*T^2", "PU");

    let sweep = dnc::try_granularity_sweep(n, k_max).unwrap();
    // print a logarithmic sample of the curve
    let mut k = 1u64;
    while k <= k_max {
        let p = sweep[(k - 1) as usize];
        println!("{:>8} {:>8} {:>14} {:>8.4}", p.k, p.t, p.kt2, p.pu);
        k = (k * 3 / 2).max(k + 1);
    }

    let (k_star, v_star) = dnc::optimal_granularity(n, k_max);
    let ideal = n as f64 / (n as f64).log2();
    println!("\noptimal K = {k_star} with K*T^2 = {v_star}");
    println!("Theorem 1 granularity N/log2(N) = {ideal:.0}");
    println!("ratio K*/(N/log2 N) = {:.2}", k_star as f64 / ideal);
    let s = systolic_dp::systolic::TreeScheduler
        .try_simulate(n, k_star, &mut NullSink)
        .expect("N ≥ 2 and K ≥ 1");
    println!(
        "schedule at K*: {} computation + {} wind-down rounds, PU = {:.3}",
        s.computation_rounds,
        s.winddown_rounds,
        s.processor_utilization()
    );
}
