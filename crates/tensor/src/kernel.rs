//! Dense slice-level kernels behind [`Matrix`](crate::Matrix).
//!
//! Every kernel here is **accumulation-order preserving**: the products
//! contributing to one output element are added one at a time in strictly
//! increasing `k` order, exactly like the retained naive triple loop
//! ([`Matrix::matmul_reference`](crate::Matrix::matmul_reference)).  Loop
//! blocking and unrolling only change *which element* is updated next,
//! never the order of additions *within* an element, so every kernel is
//! bit-for-bit identical to the reference composition it replaces
//! (asserted by the `kernel_identity` property suite).  The one-hot
//! kernels ([`matvec_onehot`], [`add_outer_onehot`]) skip the additions of
//! exact zeros the same way the old zero-skip did, so they are
//! bit-identical under the conditions their docs state: finite values,
//! and for the update an accumulator that holds no `-0.0`.
//!
//! The kernels are branch-free in the inner loop: the old data-dependent
//! zero-skip (`if a == 0.0 { continue; }`) stalled the dense
//! controller/proxy workload on a mispredictable branch while saving
//! nothing (the operands are dense), and it silently suppressed NaN
//! propagation from non-finite operands (`0.0 * inf`).  On finite inputs
//! the skip was bit-identical — an accumulator that starts at `+0.0` can
//! never become `-0.0` under round-to-nearest addition — so removing it
//! changed no observable result (pinned by
//! `tests/kernel_identity.rs::zero_skip_semantics`).  The kernels operate
//! on raw row-major slices, so the per-element bounds checks of
//! `Matrix`'s `Index` implementation never run on the hot path.

/// Rows of the right-hand operand kept hot per blocking step.
///
/// A block of `K_BLOCK` rhs rows (`K_BLOCK x n` doubles) is streamed
/// against every output row before the kernel moves on, so for the
/// controller / proxy shapes (`n <= 64`) the active rhs working set stays
/// within half an L1 data cache.
const K_BLOCK: usize = 32;

/// `out[j] += a * rhs[j]` over whole rows, unrolled by four.
///
/// Each output element receives exactly one addition, so unrolling cannot
/// reorder any element's accumulation.
#[inline]
fn axpy_row(out: &mut [f64], a: f64, rhs: &[f64]) {
    debug_assert_eq!(out.len(), rhs.len());
    let mut out_chunks = out.chunks_exact_mut(4);
    let mut rhs_chunks = rhs.chunks_exact(4);
    for (o, r) in out_chunks.by_ref().zip(rhs_chunks.by_ref()) {
        o[0] += a * r[0];
        o[1] += a * r[1];
        o[2] += a * r[2];
        o[3] += a * r[3];
    }
    for (o, r) in out_chunks
        .into_remainder()
        .iter_mut()
        .zip(rhs_chunks.remainder())
    {
        *o += a * r;
    }
}

/// Sequential dot product (single accumulator, ascending `k`).
///
/// Deliberately *not* multi-accumulator: splitting the sum would reorder
/// the additions and break bit-identity with the naive reference.
#[inline]
fn dot(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    let mut acc = 0.0;
    for (x, y) in a.iter().zip(b) {
        acc += x * y;
    }
    acc
}

/// `out = lhs * rhs` for row-major `lhs` (`m x p`), `rhs` (`p x n`),
/// `out` (`m x n`).  `out` is overwritten.
///
/// Blocked over `k`: a band of rhs rows is reused across every output row
/// while it is cache-hot.  Within one output element the `k` order is the
/// naive ascending order.
///
/// # Panics
///
/// Debug-asserts the slice lengths match the shapes.
pub fn matmul(lhs: &[f64], rhs: &[f64], out: &mut [f64], m: usize, p: usize, n: usize) {
    debug_assert_eq!(lhs.len(), m * p);
    debug_assert_eq!(rhs.len(), p * n);
    debug_assert_eq!(out.len(), m * n);
    out.fill(0.0);
    let mut kb = 0;
    while kb < p {
        let kend = (kb + K_BLOCK).min(p);
        for i in 0..m {
            let lhs_row = &lhs[i * p..(i + 1) * p];
            let out_row = &mut out[i * n..(i + 1) * n];
            for k in kb..kend {
                axpy_row(out_row, lhs_row[k], &rhs[k * n..(k + 1) * n]);
            }
        }
        kb = kend;
    }
}

/// `out = lhs^T * rhs` for row-major `lhs` (`p x m`), `rhs` (`p x n`),
/// `out` (`m x n`) — the transpose is folded into the access pattern, no
/// transposed copy is materialised.  `out` is overwritten.
pub fn matmul_tn(lhs: &[f64], rhs: &[f64], out: &mut [f64], m: usize, p: usize, n: usize) {
    debug_assert_eq!(lhs.len(), p * m);
    debug_assert_eq!(rhs.len(), p * n);
    debug_assert_eq!(out.len(), m * n);
    out.fill(0.0);
    let mut kb = 0;
    while kb < p {
        let kend = (kb + K_BLOCK).min(p);
        for k in kb..kend {
            let lhs_row = &lhs[k * m..(k + 1) * m];
            let rhs_row = &rhs[k * n..(k + 1) * n];
            for i in 0..m {
                axpy_row(&mut out[i * n..(i + 1) * n], lhs_row[i], rhs_row);
            }
        }
        kb = kend;
    }
}

/// `out = lhs * rhs^T` for row-major `lhs` (`m x p`), `rhs` (`n x p`),
/// `out` (`m x n`) — each output element is a row-by-row dot product, so
/// both operands stream along their natural layout.  `out` is overwritten.
pub fn matmul_nt(lhs: &[f64], rhs: &[f64], out: &mut [f64], m: usize, p: usize, n: usize) {
    debug_assert_eq!(lhs.len(), m * p);
    debug_assert_eq!(rhs.len(), n * p);
    debug_assert_eq!(out.len(), m * n);
    for i in 0..m {
        let lhs_row = &lhs[i * p..(i + 1) * p];
        let out_row = &mut out[i * n..(i + 1) * n];
        for (j, slot) in out_row.iter_mut().enumerate() {
            *slot = dot(lhs_row, &rhs[j * p..(j + 1) * p]);
        }
    }
}

/// Dot products of `R` consecutive rows of `rows` (row-major, `x.len()`
/// columns) with `x`: one accumulator per row, each adding its products
/// in ascending `k` exactly like [`dot`].  The `R` independent
/// dependency chains hide the floating-point add latency that a single
/// dot stalls on.
#[inline(always)]
fn dot_rows<const R: usize>(rows: &[f64], x: &[f64]) -> [f64; R] {
    let cols = x.len();
    debug_assert_eq!(rows.len(), R * cols);
    let rows: [&[f64]; R] = std::array::from_fn(|r| &rows[r * cols..(r + 1) * cols]);
    let mut acc = [0.0; R];
    for (k, &xk) in x.iter().enumerate() {
        for (a, row) in acc.iter_mut().zip(&rows) {
            *a += row[k] * xk;
        }
    }
    acc
}

/// Matrix-vector product `out = m * x` (`m` is `rows x cols` row-major).
///
/// Four output rows are computed at once, each with its own single
/// ascending-`k` accumulator; the last one to three rows go through one
/// narrower block.  Every element sees exactly the reference's addition
/// order.
pub fn matvec(m: &[f64], x: &[f64], out: &mut [f64], rows: usize, cols: usize) {
    debug_assert_eq!(m.len(), rows * cols);
    debug_assert_eq!(x.len(), cols);
    debug_assert_eq!(out.len(), rows);
    if cols == 0 {
        out.fill(0.0);
        return;
    }
    let mut out_quads = out.chunks_exact_mut(4);
    let mut m_quads = m.chunks_exact(4 * cols);
    for (o, quad) in out_quads.by_ref().zip(m_quads.by_ref()) {
        o.copy_from_slice(&dot_rows::<4>(quad, x));
    }
    let (o, tail) = (out_quads.into_remainder(), m_quads.remainder());
    match o.len() {
        3 => o.copy_from_slice(&dot_rows::<3>(tail, x)),
        2 => o.copy_from_slice(&dot_rows::<2>(tail, x)),
        1 => o.copy_from_slice(&dot_rows::<1>(tail, x)),
        _ => {}
    }
}

/// Transposed matrix-vector product `out = m^T * x` (`m` is
/// `rows x cols` row-major, `x` has `rows` elements, `out` has `cols`).
///
/// Four rows of `m` are folded into `out` per pass: each output element
/// takes their four products in ascending `k` before it is stored again,
/// which quarters the load/store traffic on `out` without changing any
/// element's addition order.  Leftover rows are folded in one at a time.
pub fn matvec_tn(m: &[f64], x: &[f64], out: &mut [f64], rows: usize, cols: usize) {
    debug_assert_eq!(m.len(), rows * cols);
    debug_assert_eq!(x.len(), rows);
    debug_assert_eq!(out.len(), cols);
    out.fill(0.0);
    if cols == 0 {
        return;
    }
    let mut m_quads = m.chunks_exact(4 * cols);
    let mut x_quads = x.chunks_exact(4);
    for (quad, xs) in m_quads.by_ref().zip(x_quads.by_ref()) {
        let (r0, rest) = quad.split_at(cols);
        let (r1, rest) = rest.split_at(cols);
        let (r2, r3) = rest.split_at(cols);
        let (x0, x1, x2, x3) = (xs[0], xs[1], xs[2], xs[3]);
        for ((((o, &w0), &w1), &w2), &w3) in out.iter_mut().zip(r0).zip(r1).zip(r2).zip(r3) {
            *o = *o + x0 * w0 + x1 * w1 + x2 * w2 + x3 * w3;
        }
    }
    for (row, &xk) in m_quads
        .remainder()
        .chunks_exact(cols)
        .zip(x_quads.remainder())
    {
        axpy_row(out, xk, row);
    }
}

/// `out = m * e_index` for the one-hot vector `e_index` (`m` is
/// `rows x cols` row-major): the column gather `out[i] = m[i][index] + 0.0`.
///
/// Exact on finite values: the dense product's accumulator starts at
/// `+0.0` and adds `m[i][k] * 0.0 = ±0.0` for every `k != index` — which
/// leaves `+0.0` at `+0.0` and any other value unchanged — and
/// `m[i][index] * 1.0 = m[i][index]` once.  The only visible trace of the
/// accumulation is the sign of zero, which `+ 0.0` reproduces.  (A
/// non-finite weight off the gathered column would make the dense product
/// NaN; the gather does not see it.)
pub fn matvec_onehot(m: &[f64], index: usize, out: &mut [f64], rows: usize, cols: usize) {
    debug_assert_eq!(m.len(), rows * cols);
    debug_assert!(index < cols);
    debug_assert_eq!(out.len(), rows);
    for (slot, row) in out.iter_mut().zip(m.chunks_exact(cols)) {
        *slot = row[index] + 0.0;
    }
}

/// Rank-1 update `out += col * row^T` (`out` is `col.len() x row.len()`
/// row-major) — the fused form of `grads += dz.matmul(&x.transpose())`.
///
/// The `+ 0.0` mirrors the composition being fused: the materialised
/// rank-1 matmul accumulates each product into a zeroed buffer, turning a
/// `-0.0` product into `+0.0` before the `+=` — the fused kernel must do
/// the same to stay bit-identical.
pub fn add_outer(out: &mut [f64], col: &[f64], row: &[f64]) {
    debug_assert_eq!(out.len(), col.len() * row.len());
    let n = row.len();
    for (i, &c) in col.iter().enumerate() {
        for (slot, &r) in out[i * n..(i + 1) * n].iter_mut().zip(row) {
            *slot += c * r + 0.0;
        }
    }
}

/// Rank-1 update `out += col * e_index^T` for the one-hot row `e_index`
/// (`out` is `col.len() x cols` row-major): one column update,
/// `out[i][index] += col[i] + 0.0`.
///
/// Bit-identical to [`add_outer`] with the one-hot row on finite values
/// when `out` holds no `-0.0`: every other column would receive
/// `col[i] * 0.0 + 0.0 = +0.0`, which leaves any value except `-0.0`
/// unchanged.  Gradient buffers that start zeroed and only ever receive
/// these sums never hold `-0.0`: under round-to-nearest a sum is `-0.0`
/// only when both addends are.
pub fn add_outer_onehot(out: &mut [f64], col: &[f64], index: usize, cols: usize) {
    debug_assert_eq!(out.len(), col.len() * cols);
    debug_assert!(index < cols);
    for (row, &c) in out.chunks_exact_mut(cols).zip(col) {
        row[index] += c + 0.0;
    }
}

/// Outer product `out = col * row^T` (overwrites `out`).
///
/// The reference composition accumulates into a zeroed buffer,
/// `0.0 + c * r`, which turns a `-0.0` product into `+0.0`.  The direct
/// store `c * r + 0.0` does the same in one pass: `x + 0.0` is never
/// `-0.0`, and adding a value other than `-0.0` to `+0.0` leaves it
/// unchanged.
pub fn set_outer(out: &mut [f64], col: &[f64], row: &[f64]) {
    debug_assert_eq!(out.len(), col.len() * row.len());
    let n = row.len();
    for (i, &c) in col.iter().enumerate() {
        for (slot, &r) in out[i * n..(i + 1) * n].iter_mut().zip(row) {
            *slot = c * r + 0.0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matmul_matches_hand_result() {
        // [1 2; 3 4] * [5 6; 7 8] = [19 22; 43 50]
        let mut out = vec![0.0; 4];
        matmul(
            &[1.0, 2.0, 3.0, 4.0],
            &[5.0, 6.0, 7.0, 8.0],
            &mut out,
            2,
            2,
            2,
        );
        assert_eq!(out, vec![19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn empty_dimensions_are_no_ops() {
        let mut out: Vec<f64> = Vec::new();
        matmul(&[], &[1.0, 2.0], &mut out, 0, 1, 2);
        matmul_tn(&[], &[], &mut out, 0, 0, 0);
        matmul_nt(&[], &[], &mut out, 0, 3, 0);
        assert!(out.is_empty());
    }

    #[test]
    fn tn_matches_explicit_transpose() {
        // lhs is 3x2 (p=3, m=2), rhs is 3x2 (p=3, n=2).
        let lhs = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0];
        let rhs = [0.5, -1.0, 2.0, 0.0, 1.0, 3.0];
        let mut fused = vec![0.0; 4];
        matmul_tn(&lhs, &rhs, &mut fused, 2, 3, 2);
        // Explicit transpose of lhs: 2x3.
        let lhs_t = [1.0, 3.0, 5.0, 2.0, 4.0, 6.0];
        let mut reference = vec![0.0; 4];
        matmul(&lhs_t, &rhs, &mut reference, 2, 3, 2);
        assert_eq!(fused, reference);
    }

    #[test]
    fn nt_matches_explicit_transpose() {
        // lhs is 2x3, rhs is 2x3 (n=2, p=3).
        let lhs = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0];
        let rhs = [0.5, -1.0, 2.0, 0.0, 1.0, 3.0];
        let mut fused = vec![0.0; 4];
        matmul_nt(&lhs, &rhs, &mut fused, 2, 3, 2);
        let rhs_t = [0.5, 0.0, -1.0, 1.0, 2.0, 3.0];
        let mut reference = vec![0.0; 4];
        matmul(&lhs, &rhs_t, &mut reference, 2, 3, 2);
        assert_eq!(fused, reference);
    }

    #[test]
    fn matvec_pair_round_trip() {
        let m = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]; // 2x3
        let mut y = vec![0.0; 2];
        matvec(&m, &[1.0, 0.0, -1.0], &mut y, 2, 3);
        assert_eq!(y, vec![-2.0, -2.0]);
        let mut yt = vec![0.0; 3];
        matvec_tn(&m, &[1.0, -1.0], &mut yt, 2, 3);
        assert_eq!(yt, vec![-3.0, -3.0, -3.0]);
    }

    #[test]
    fn outer_products_accumulate() {
        let mut out = vec![0.0; 6];
        set_outer(&mut out, &[1.0, 2.0], &[3.0, 4.0, 5.0]);
        assert_eq!(out, vec![3.0, 4.0, 5.0, 6.0, 8.0, 10.0]);
        add_outer(&mut out, &[1.0, 1.0], &[1.0, 1.0, 1.0]);
        assert_eq!(out, vec![4.0, 5.0, 6.0, 7.0, 9.0, 11.0]);
    }
}
