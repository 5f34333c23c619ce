//! Property tests pinning the blocked/unrolled kernels to the retained
//! naive reference, bit for bit.
//!
//! The identity bound is exact (`f64::to_bits` equality, not an ULP
//! tolerance): every optimized kernel accumulates each output element's
//! products in the same ascending-`k` order as
//! [`Matrix::matmul_reference`], so IEEE-754 rounding is applied in the
//! same sequence and the results cannot differ.  Shapes are drawn to
//! cover the edges the blocking logic has to get right: `0xN`, `Nx0`,
//! `1xN`, and inner dimensions around and beyond the kernel block size.

use nasaic_tensor::{kernel, Matrix};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Random matrix whose entries include exact `0.0` and `-0.0` with
/// non-trivial probability, so the suite also witnesses that dropping the
/// old data-dependent zero-skip changed no bit.
fn random_matrix(rng: &mut StdRng, rows: usize, cols: usize) -> Matrix {
    let data = (0..rows * cols)
        .map(|_| {
            if rng.gen_bool(0.15) {
                0.0
            } else if rng.gen_bool(0.05) {
                -0.0
            } else {
                rng.gen_range(-2.0..2.0)
            }
        })
        .collect();
    Matrix::from_vec(rows, cols, data)
}

fn assert_bits_equal(actual: &Matrix, expected: &Matrix) {
    assert_eq!(actual.shape(), expected.shape());
    for (a, e) in actual.as_slice().iter().zip(expected.as_slice()) {
        assert_eq!(
            a.to_bits(),
            e.to_bits(),
            "bit mismatch: {a} vs {e} (shape {:?})",
            actual.shape()
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Blocked dense matmul is bit-identical to the naive triple loop,
    /// including inner dimensions that are not multiples of the block
    /// size and degenerate 0/1-sized shapes.
    #[test]
    fn blocked_matmul_matches_reference(
        seed in any::<u64>(),
        m in 0usize..6,
        p in 0usize..70,
        n in 0usize..6,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let a = random_matrix(&mut rng, m, p);
        let b = random_matrix(&mut rng, p, n);
        let expected = a.matmul_reference(&b);
        assert_bits_equal(&a.matmul(&b), &expected);
        // The scratch-buffer form must agree even when the output buffer
        // holds stale content of a different shape.
        let mut out = random_matrix(&mut rng, 3, 3);
        a.matmul_into(&b, &mut out);
        assert_bits_equal(&out, &expected);
    }

    /// The fused-transpose products match the transpose-then-reference
    /// composition bit for bit.
    #[test]
    fn fused_transpose_kernels_match_reference(
        seed in any::<u64>(),
        m in 0usize..6,
        p in 0usize..40,
        n in 0usize..6,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        // tn: lhs is p x m, result is (lhs^T) * rhs.
        let lhs_tn = random_matrix(&mut rng, p, m);
        let rhs = random_matrix(&mut rng, p, n);
        assert_bits_equal(
            &lhs_tn.matmul_tn(&rhs),
            &lhs_tn.transpose().matmul_reference(&rhs),
        );
        // nt: rhs is n x p, result is lhs * (rhs^T).
        let lhs = random_matrix(&mut rng, m, p);
        let rhs_nt = random_matrix(&mut rng, n, p);
        assert_bits_equal(
            &lhs.matmul_nt(&rhs_nt),
            &lhs.matmul_reference(&rhs_nt.transpose()),
        );
    }

    /// Matrix-vector products (plain and transposed) match the
    /// column-vector matmul composition bit for bit.
    #[test]
    fn matvec_kernels_match_reference(
        seed in any::<u64>(),
        rows in 0usize..48,
        cols in 0usize..48,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let m = random_matrix(&mut rng, rows, cols);
        let x = random_matrix(&mut rng, cols, 1);
        let mut y = vec![7.0; 3]; // stale scratch
        m.matvec_into(x.as_slice(), &mut y);
        assert_bits_equal(
            &Matrix::col_vector(&y),
            &m.matmul_reference(&x),
        );
        let xt = random_matrix(&mut rng, rows, 1);
        let mut yt = Vec::new();
        m.matvec_tn_into(xt.as_slice(), &mut yt);
        assert_bits_equal(
            &Matrix::col_vector(&yt),
            &m.transpose().matmul_reference(&xt),
        );
    }

    /// Outer-product helpers match the rank-1 matmul composition bit for
    /// bit, both the overwriting and the accumulating form.
    #[test]
    fn outer_product_kernels_match_reference(
        seed in any::<u64>(),
        rows in 0usize..16,
        cols in 0usize..16,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let col = random_matrix(&mut rng, rows, 1);
        let row = random_matrix(&mut rng, 1, cols);
        let rank1 = col.matmul_reference(&row);
        let mut m = random_matrix(&mut rng, 2, 5);
        m.set_outer(col.as_slice(), row.as_slice());
        assert_bits_equal(&m, &rank1);
        let base = random_matrix(&mut rng, rows, cols);
        let mut accumulated = base.clone();
        accumulated.add_outer(col.as_slice(), row.as_slice());
        let mut expected = base;
        expected += &rank1;
        assert_bits_equal(&accumulated, &expected);
    }
}

/// The old dense kernel skipped `lhs` entries that compared equal to
/// zero.  On finite inputs the skip changed no bit: every skipped term is
/// `0.0 * x = ±0.0`, and an accumulator that starts at `+0.0` stays
/// `+0.0` under round-to-nearest addition of a signed zero, which is also
/// what skipping leaves behind.  The only observable difference is
/// non-finite operands: the skip suppressed `0.0 * inf = NaN`.  This test
/// pins both facts, so the zero-skip removal is an audited decision
/// rather than a silent change.
#[test]
fn zero_skip_semantics() {
    fn matmul_with_zero_skip(lhs: &Matrix, rhs: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(lhs.rows(), rhs.cols());
        for i in 0..lhs.rows() {
            for k in 0..lhs.cols() {
                let a = lhs[(i, k)];
                if a == 0.0 {
                    continue;
                }
                for j in 0..rhs.cols() {
                    out[(i, j)] += a * rhs[(k, j)];
                }
            }
        }
        out
    }

    // Non-finite corner: the skip never evaluates 0.0 * inf, so it hides
    // the NaN the IEEE semantics (and the branch-free kernel) produce.
    let lhs = Matrix::row_vector(&[0.0]);
    let rhs = Matrix::col_vector(&[f64::INFINITY]);
    let skipped = matmul_with_zero_skip(&lhs, &rhs);
    let dense = lhs.matmul(&rhs);
    assert_eq!(skipped[(0, 0)].to_bits(), 0.0_f64.to_bits());
    assert!(dense[(0, 0)].is_nan());
    // The branch-free kernel agrees with the retained reference even
    // here; the skip kernel is the odd one out.
    assert!(lhs.matmul_reference(&rhs)[(0, 0)].is_nan());

    // On finite inputs — including exact and negative zeros — the two
    // kernels agree bit for bit, so no search outcome could observe the
    // removal.
    let mut rng = StdRng::seed_from_u64(42);
    for _ in 0..64 {
        let m = rng.gen_range(1usize..5);
        let p = rng.gen_range(1usize..40);
        let n = rng.gen_range(1usize..5);
        let a = random_matrix(&mut rng, m, p);
        let b = random_matrix(&mut rng, p, n);
        assert_bits_equal(&matmul_with_zero_skip(&a, &b), &a.matmul(&b));
    }
}

/// The four-row matrix-vector kernels match the column-vector reference
/// for every shape with both dimensions in `1..=70`: every row remainder
/// of the four-row blocks (and of the four-row folds of the transposed
/// form) and both sides of the `K_BLOCK` boundary.  Entries include
/// `±0.0`.
#[test]
fn four_row_matvec_kernels_match_reference_over_all_small_shapes() {
    let mut rng = StdRng::seed_from_u64(0x4a7e);
    for m in 1..=70 {
        for p in 1..=70 {
            let a = random_matrix(&mut rng, m, p);
            let x = random_matrix(&mut rng, p, 1);
            let mut y = vec![f64::NAN; m];
            kernel::matvec(a.as_slice(), x.as_slice(), &mut y, m, p);
            assert_bits_equal(&Matrix::col_vector(&y), &a.matmul_reference(&x));

            let xt = random_matrix(&mut rng, m, 1);
            let mut yt = vec![f64::NAN; p];
            kernel::matvec_tn(a.as_slice(), xt.as_slice(), &mut yt, m, p);
            assert_bits_equal(
                &Matrix::col_vector(&yt),
                &a.transpose().matmul_reference(&xt),
            );
        }
    }
}

fn one_hot(len: usize, index: usize) -> Matrix {
    let mut e = Matrix::zeros(len, 1);
    e[(index, 0)] = 1.0;
    e
}

/// `W · e_a` is the column gather `W[:, a] + 0.0` — the `+ 0.0` turns a
/// `-0.0` weight into the `+0.0` the dense product's accumulator leaves.
#[test]
fn one_hot_gather_matches_the_dense_product() {
    let mut rng = StdRng::seed_from_u64(0x6a7e);
    for rows in 1..=40 {
        for cols in 1..=20 {
            let mut w = random_matrix(&mut rng, rows, cols);
            w[(0, cols - 1)] = -0.0;
            for a in 0..cols {
                let mut out = vec![f64::NAN; rows];
                kernel::matvec_onehot(w.as_slice(), a, &mut out, rows, cols);
                assert_bits_equal(
                    &Matrix::col_vector(&out),
                    &w.matmul_reference(&one_hot(cols, a)),
                );
            }
        }
    }
}

/// The one-column update `g[:, a] += col + 0.0` matches the rank-1
/// `add_outer` with the one-hot row on a gradient buffer that starts
/// zeroed and accumulates several updates (such a buffer never holds
/// `-0.0`), and both match the reference composition.
#[test]
fn one_column_add_outer_matches_the_dense_rank_one_update() {
    let mut rng = StdRng::seed_from_u64(0xadd0);
    for rows in 1..=24 {
        for cols in 1..=18 {
            let mut fast = vec![0.0; rows * cols];
            let mut dense = fast.clone();
            let mut reference = Matrix::zeros(rows, cols);
            for _ in 0..4 {
                let col = random_matrix(&mut rng, rows, 1);
                let a = rng.gen_range(0..cols);
                let row = one_hot(cols, a).transpose();
                kernel::add_outer_onehot(&mut fast, col.as_slice(), a, cols);
                kernel::add_outer(&mut dense, col.as_slice(), row.as_slice());
                reference += &col.matmul_reference(&row);
            }
            let fast = Matrix::from_vec(rows, cols, fast);
            assert_bits_equal(&fast, &Matrix::from_vec(rows, cols, dense));
            assert_bits_equal(&fast, &reference);
        }
    }
    // The precondition is real: a stored `-0.0` off the updated column is
    // left alone by the one-column update but turned into `+0.0` by the
    // dense one.
    let mut fast = vec![-0.0, 0.0];
    let mut dense = fast.clone();
    kernel::add_outer_onehot(&mut fast, &[1.5], 1, 2);
    kernel::add_outer(&mut dense, &[1.5], &[0.0, 1.0]);
    assert_eq!(fast[0].to_bits(), (-0.0f64).to_bits());
    assert_eq!(dense[0].to_bits(), 0.0f64.to_bits());
    assert_eq!(fast[1], dense[1]);
}
