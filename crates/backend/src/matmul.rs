//! Direct (min,+)/semiring matrix products mirroring the
//! result-stationary mesh.
//!
//! The mesh computes each cell as a k-ascending fold, exactly the order
//! of the blocked [`Matrix::mul`] kernel (property-tested identical to
//! the naive oracle), so the direct product is bit-identical.  The
//! Stats are the mesh's closed forms: `T₁ = p + q + r − 2` cycles
//! (`T₁ + (B−1)·q` batched), every PE busy `q` cycles per instance, and
//! `q·(p + r)` words in and out per instance — every operand word
//! enters an edge, traverses the mesh, and leaves the opposite edge.

use sdp_core::matmul_array::{BatchMatmulRun, MatmulArray, MatmulRun};
use sdp_fault::SdpError;
use sdp_semiring::{Matrix, Semiring};
use sdp_systolic::Stats;

/// Closed-form mesh Stats for a batch of `bn` same-shaped products.
fn mesh_stats(p: usize, q: usize, r: usize, bn: usize) -> Stats {
    let io = (bn * q * (p + r)) as u64;
    Stats::from_parts(
        MatmulArray::t_batch(p, q, r, bn),
        vec![(bn * q) as u64; p * r],
        io,
        io,
        0,
        0,
        0,
    )
}

/// Direct product: bit-identical to `MatmulArray::multiply` with the
/// analytic Stats of the `p × r` mesh.
pub fn matmul_direct<S: Semiring>(a: &Matrix<S>, b: &Matrix<S>) -> Result<MatmulRun<S>, SdpError> {
    if a.cols() != b.rows() {
        return Err(SdpError::InnerDimMismatch {
            left_cols: a.cols(),
            right_rows: b.rows(),
        });
    }
    let (p, q, r) = (a.rows(), a.cols(), b.cols());
    Ok(MatmulRun {
        product: a.mul(b),
        cycles: MatmulArray::t1(p, q, r),
        stats: mesh_stats(p, q, r, 1),
    })
}

/// Direct batch product: bit-identical to `MatmulArray::multiply_batch`
/// (same products, same typed errors) with the analytic Stats of the
/// back-to-back mesh schedule.
pub fn matmul_direct_batch<S: Semiring>(
    pairs: &[(Matrix<S>, Matrix<S>)],
) -> Result<BatchMatmulRun<S>, SdpError> {
    if pairs.is_empty() {
        return Err(SdpError::EmptyBatch);
    }
    let (p, q, r) = (pairs[0].0.rows(), pairs[0].0.cols(), pairs[0].1.cols());
    for (index, (a, b)) in pairs.iter().enumerate() {
        if a.cols() != b.rows() {
            return Err(SdpError::InnerDimMismatch {
                left_cols: a.cols(),
                right_rows: b.rows(),
            });
        }
        if (a.rows(), a.cols(), b.cols()) != (p, q, r) {
            return Err(SdpError::BatchShapeMismatch { index });
        }
    }
    let bn = pairs.len();
    Ok(BatchMatmulRun {
        products: pairs.iter().map(|(a, b)| a.mul(b)).collect(),
        cycles: MatmulArray::t_batch(p, q, r, bn),
        serial_ops: (bn * p * q * r) as u64,
        stats: mesh_stats(p, q, r, bn),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdp_fault::NoFaults;
    use sdp_semiring::MinPlus;
    use sdp_trace::NullSink;

    fn mat(seed: u64, rows: usize, cols: usize) -> Matrix<MinPlus> {
        let mut s = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(1);
        Matrix::from_fn(rows, cols, |_, _| {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            MinPlus::from((s % 50) as i64)
        })
    }

    #[test]
    fn single_matches_sim_exactly() {
        for (p, q, r) in [(1, 1, 1), (2, 3, 4), (4, 4, 4), (5, 2, 3)] {
            let (a, b) = (mat(p as u64, p, q), mat(100 + r as u64, q, r));
            let sim = MatmulArray::try_multiply(&a, &b, &mut NoFaults, &mut NullSink).unwrap();
            let direct = matmul_direct(&a, &b).unwrap();
            assert_eq!(direct.product, sim.product, "{p}x{q}x{r}");
            assert_eq!(direct.cycles, sim.cycles);
            assert_eq!(direct.stats, sim.stats);
        }
    }

    #[test]
    fn batch_matches_sim_exactly() {
        for bn in [1usize, 2, 5] {
            let pairs: Vec<_> = (0..bn as u64)
                .map(|s| (mat(s, 3, 2), mat(50 + s, 2, 4)))
                .collect();
            let sim = MatmulArray::multiply_batch(&pairs).unwrap();
            let direct = matmul_direct_batch(&pairs).unwrap();
            assert_eq!(direct.products, sim.products, "bn {bn}");
            assert_eq!(direct.cycles, sim.cycles);
            assert_eq!(direct.serial_ops, sim.serial_ops);
            assert_eq!(direct.stats, sim.stats);
        }
    }

    #[test]
    fn errors_match_sim() {
        let (a, b) = (mat(1, 2, 3), mat(2, 2, 2));
        assert_eq!(
            matmul_direct(&a, &b).err(),
            MatmulArray::try_multiply(&a, &b, &mut NoFaults, &mut NullSink).err()
        );
        assert_eq!(
            matmul_direct_batch::<MinPlus>(&[]).err(),
            MatmulArray::multiply_batch::<MinPlus>(&[]).err()
        );
        let pairs = vec![(mat(1, 2, 2), mat(2, 2, 2)), (mat(3, 3, 2), mat(4, 2, 2))];
        assert_eq!(
            matmul_direct_batch(&pairs).err(),
            MatmulArray::multiply_batch(&pairs).err()
        );
    }
}
