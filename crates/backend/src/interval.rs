//! Direct interval DP (matrix chain, optimal BST) mirroring the
//! AND/OR reference recurrences and the chain array's schedule length.
//!
//! The reference solvers in `sdp-andor` walk nested `Vec<Vec<Cost>>`
//! tables whose inner split loop reads `cost[k+1][j]` — a strided
//! column walk that misses cache on every step once the table outgrows
//! L2.  The direct solvers sweep the same diagonals over flat row-major
//! tables and keep a *transposed mirror* of the cost table, so both
//! terms of the split scan (`cost[i][k]` and `costᵀ[j][k+1]`) are
//! contiguous.
//!
//! The tables hold raw `i64`s, not [`Cost`]s.  Every entry is finite —
//! a leaf is a checked finite `Cost`, and every other entry is a
//! clamped finite sum — so `Cost`'s `INF` tests can never fire, and
//! `add` is `Cost`'s addition with them removed: saturate, then
//! clamp out of the sentinel.  The split scan is a branch-free
//! first-strict-minimum fold.  The candidate expression, its
//! saturating-add association, its clamp and the tie-break are the
//! reference's, so cost *and* split table are bit-identical to
//! `matrix_chain_order` / `optimal_bst`.

use sdp_andor::chain::ChainSolution;
use sdp_fault::SdpError;
use sdp_semiring::Cost;

/// `Cost` addition of two finite raw values.
#[inline(always)]
fn add(x: i64, y: i64) -> i64 {
    x.saturating_add(y)
        .clamp(Cost::MIN_FINITE.raw(), Cost::MAX_FINITE.raw())
}

/// Folds split candidates `(c, k)` into the first strict minimum —
/// the reference's `if c < best` scan, evaluated with selects.
#[inline(always)]
fn first_min(acc: (i64, usize), (c, k): (i64, usize)) -> (i64, usize) {
    if c < acc.0 {
        (c, k)
    } else {
        acc
    }
}

/// Flat `n × n` cost table plus its transposed mirror and split table.
struct Tables {
    n: usize,
    cost: Vec<i64>,
    cost_t: Vec<i64>,
    split: Vec<usize>,
}

impl Tables {
    fn new(n: usize) -> Tables {
        Tables {
            n,
            cost: vec![0; n * n],
            cost_t: vec![0; n * n],
            split: vec![0usize; n * n],
        }
    }

    fn set(&mut self, i: usize, j: usize, (c, k): (i64, usize)) {
        self.cost[i * self.n + j] = c;
        self.cost_t[j * self.n + i] = c;
        self.split[i * self.n + j] = k;
    }

    fn solution(self) -> ChainSolution {
        let n = self.n;
        ChainSolution {
            cost: Cost::new(self.cost[n - 1]), // (0, n−1)
            split: (0..n)
                .map(|i| self.split[i * n..(i + 1) * n].to_vec())
                .collect(),
            n,
        }
    }
}

/// Direct matrix-chain order: bit-identical cost *and* split table to
/// `sdp_andor::chain::try_matrix_chain_order`, computed over flat
/// tables with contiguous split scans.
pub fn chain_direct(dims: &[u64]) -> Result<ChainSolution, SdpError> {
    if dims.len() < 2 {
        return Err(SdpError::BadParameter {
            name: "dims.len()",
            got: dims.len() as u64,
            min: 2,
        });
    }
    if let Some(&bad) = dims.iter().find(|&&d| d == 0) {
        return Err(SdpError::BadParameter {
            name: "dims[i]",
            got: bad,
            min: 1,
        });
    }
    let n = dims.len() - 1;
    let mut t = Tables::new(n);
    for len in 2..=n {
        for i in 0..=n - len {
            let j = i + len - 1;
            // Every dimension is ≥ 1, so a saturating product saturates
            // in any association: `r_{i−1}·r_j` is hoisted out of the
            // scan, and the reference's clamp to the finite range
            // follows.
            let outer = dims[i].saturating_mul(dims[j + 1]);
            let left = &t.cost[i * n + i..i * n + j]; // cost[i][k]
            let right = &t.cost_t[j * n + i + 1..j * n + j + 1]; // cost[k+1][j]
            let scan = left.iter().zip(right).zip(&dims[i + 1..=j]);
            let best = scan
                .enumerate()
                .map(|(k, ((&l, &r), &d))| {
                    let product = outer.saturating_mul(d).min(Cost::MAX_FINITE.raw() as u64);
                    (add(add(l, r), product as i64), i + k)
                })
                .fold((i64::MAX, i), first_min);
            t.set(i, j, best);
        }
    }
    Ok(t.solution())
}

/// Direct optimal BST: bit-identical cost *and* root table to
/// `sdp_andor::chain::try_optimal_bst`.
pub fn bst_direct(freq: &[u64]) -> Result<ChainSolution, SdpError> {
    if freq.is_empty() {
        return Err(SdpError::BadParameter {
            name: "freq.len()",
            got: 0,
            min: 1,
        });
    }
    let n = freq.len();
    let mut pre = vec![0u64; n + 1];
    for (i, &f) in freq.iter().enumerate() {
        pre[i + 1] = pre[i] + f;
    }
    let mut t = Tables::new(n);
    for (i, &f) in freq.iter().enumerate() {
        t.set(i, i, (Cost::from(f as i64).raw(), i));
    }
    for len in 2..=n {
        for i in 0..=n - len {
            let j = i + len - 1;
            // Checked once per interval, as the reference's `Cost::from`.
            let w = Cost::from((pre[j + 1] - pre[i]) as i64).raw();
            // Root i has an empty left subtree, root j an empty right
            // one (`Cost::ZERO + x = x` on finite x); the roots between
            // read cost[i][r−1] and costᵀ[j][r+1].
            let first = (add(t.cost_t[j * n + i + 1], w), i);
            let last = (add(t.cost[i * n + j - 1], w), j);
            let left = &t.cost[i * n + i..i * n + j - 1];
            let right = &t.cost_t[j * n + i + 2..j * n + j + 1];
            let best = left
                .iter()
                .zip(right)
                .enumerate()
                .map(|(k, (&l, &r))| (add(add(l, r), w), i + 1 + k))
                .fold(first, first_min);
            t.set(i, j, first_min(best, last));
        }
    }
    Ok(t.solution())
}

/// Steps the chain array takes to retire an `n`-matrix chain under the
/// broadcast mapping: Prop. 2's top-down recurrence gives exactly `n`
/// (`td_recurrence(n) = n`), pinned against the simulator by test.
pub fn chain_steps(n: usize) -> u64 {
    n as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdp_andor::chain::{
        matrix_chain_order, optimal_bst, try_matrix_chain_order, try_optimal_bst,
    };
    use sdp_core::chain_array::{simulate_chain_array, ChainMapping};

    fn dims(seed: u64, n: usize) -> Vec<u64> {
        let mut s = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(1);
        (0..=n)
            .map(|_| {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                1 + s % 40
            })
            .collect()
    }

    #[test]
    fn chain_matches_reference_exactly() {
        assert_eq!(
            chain_direct(&[30, 35, 15, 5, 10, 20, 25]).unwrap(),
            matrix_chain_order(&[30, 35, 15, 5, 10, 20, 25])
        );
        for n in 1..=12 {
            let d = dims(n as u64, n);
            assert_eq!(chain_direct(&d).unwrap(), matrix_chain_order(&d), "{d:?}");
        }
        // Saturating dimensions clamp identically.
        let big = 2_100_000u64;
        assert_eq!(
            chain_direct(&[big, big, big, big]).unwrap(),
            matrix_chain_order(&[big, big, big, big])
        );
    }

    #[test]
    fn bst_matches_reference_exactly() {
        for n in 1..=12 {
            let f = dims(100 + n as u64, n - 1);
            assert_eq!(bst_direct(&f).unwrap(), optimal_bst(&f), "{f:?}");
        }
    }

    #[test]
    fn errors_match_reference() {
        assert_eq!(chain_direct(&[7]).err(), try_matrix_chain_order(&[7]).err());
        assert_eq!(
            chain_direct(&[3, 0, 2]).err(),
            try_matrix_chain_order(&[3, 0, 2]).err()
        );
        assert_eq!(bst_direct(&[]).err(), try_optimal_bst(&[]).err());
    }

    #[test]
    fn chain_steps_matches_broadcast_simulation() {
        for n in 1..=24 {
            let d = dims(7 + n as u64, n);
            let sim = simulate_chain_array(&d, ChainMapping::Broadcast);
            assert_eq!(chain_steps(n), sim.finish, "n {n}");
        }
    }
}
