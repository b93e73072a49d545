//! Pinned regression tests for previously-fixed behavior.
//!
//! * The empty-operand edit-mesh fast path (distance without building a
//!   mesh) must report **zero** PEs and zero cycles in its stats — the
//!   original implementation charged phantom PEs.
//! * Every batched engine front-end must return the typed
//!   `EmptyBatch` / `BatchShapeMismatch` errors rather than panicking
//!   or truncating.

use sdp_core::design1::Design1Array;
use sdp_core::design2::Design2Array;
use sdp_core::design3::Design3Array;
use sdp_core::edit_array::{edit_distance_mesh_batch, try_edit_distance_mesh};
use sdp_core::matmul_array::MatmulArray;
use sdp_fault::NoFaults;
use sdp_fault::SdpError;
use sdp_multistage::generate;
use sdp_semiring::{Matrix, MinPlus};
use sdp_trace::NullSink;

fn string(seed: u64, n: usize, m: usize) -> Vec<Matrix<MinPlus>> {
    generate::random_uniform(seed, n + 1, m, 0, 9)
        .matrix_string()
        .to_vec()
}

#[test]
fn empty_edit_operands_report_zero_pes() {
    for (a, b) in [(&b""[..], &b""[..]), (b"", b"abc"), (b"abc", b"")] {
        let run = try_edit_distance_mesh(a, b, &mut NoFaults, &mut NullSink).unwrap();
        assert_eq!(run.distance, (a.len() + b.len()) as u64);
        assert_eq!(run.cycles, 0, "fast path must not spin the mesh");
        assert_eq!(run.stats.num_pes(), 0, "fast path must build no PEs");
        assert_eq!(run.stats.cycles(), 0);
    }
}

#[test]
fn design1_batch_error_paths() {
    let arr = Design1Array::new(2);
    assert!(matches!(arr.run_batch(&[]), Err(SdpError::EmptyBatch)));
    let (a, b) = (string(1, 3, 2), string(2, 4, 2));
    assert!(matches!(
        arr.run_batch(&[&a, &b]),
        Err(SdpError::BatchShapeMismatch { index: 1 })
    ));
}

#[test]
fn design2_batch_error_paths() {
    let arr = Design2Array::new(2);
    assert!(matches!(arr.run_batch(&[]), Err(SdpError::EmptyBatch)));
    let (a, b) = (string(3, 3, 2), string(4, 4, 2));
    assert!(matches!(
        arr.run_batch(&[&a, &b]),
        Err(SdpError::BatchShapeMismatch { index: 1 })
    ));
}

#[test]
fn design3_batch_error_paths() {
    let arr = Design3Array::new(2);
    assert!(matches!(arr.run_batch(&[]), Err(SdpError::EmptyBatch)));
    let f = || Box::new(sdp_multistage::node_value::AbsDiff);
    let a = generate::node_value_random(5, 3, 2, f(), 0, 9);
    let b = generate::node_value_random(6, 4, 2, f(), 0, 9);
    assert!(matches!(
        arr.run_batch(&[&a, &b]),
        Err(SdpError::BatchShapeMismatch { index: 1 })
    ));
}

#[test]
fn matmul_batch_error_paths() {
    assert!(matches!(
        MatmulArray::multiply_batch::<MinPlus>(&[]),
        Err(SdpError::EmptyBatch)
    ));
    let sq =
        |seed| Matrix::<MinPlus>::from_fn(2, 2, |i, j| MinPlus::from((seed + 2 * i + j) as i64));
    let wide = Matrix::<MinPlus>::from_fn(2, 3, |i, j| MinPlus::from((i + j) as i64));
    assert!(matches!(
        MatmulArray::multiply_batch(&[(sq(0), sq(1)), (sq(2), wide)]),
        Err(SdpError::BatchShapeMismatch { index: 1 })
    ));
}

#[test]
fn edit_batch_error_paths() {
    assert!(matches!(
        edit_distance_mesh_batch(&[]),
        Err(SdpError::EmptyBatch)
    ));
    assert!(matches!(
        edit_distance_mesh_batch(&[(b"ab", b"cd"), (b"abc", b"cd")]),
        Err(SdpError::BatchShapeMismatch { index: 1 })
    ));
}
