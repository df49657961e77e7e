//! Matrix multiplication and transposition kernels.
//!
//! One multiply-accumulate loop, `matmul_rows`, serves all three matmul
//! variants. It runs in i-k-j order — the output row and a row of `b`
//! stream in the inner loop, which autovectorizes — tiles `k` for cache
//! reuse, and is row-partitioned across the worker pool
//! ([`crate::pool`]) above a size threshold. [`Tensor::matmul_nt`] and
//! [`Tensor::matmul_tn`] first pack their transposed operand into
//! row-major layout with [`Tensor::transpose`], then run that loop.
//!
//! Every output element is computed entirely within one row block, with
//! additions in ascending-`k` order — exactly the order of the serial
//! reference loop — so results are bit-identical for any thread count
//! and any block size. See the determinism contract in [`crate::pool`].
//!
//! **Zero-skip rule:** a zero in the left operand contributes nothing,
//! even against an inf or NaN in the right one. Skipping zero `a`
//! entries is a large win for the one-hot-encoded matrices the GAN
//! transformations produce. The rule holds for all three variants (the
//! left operand of `matmul_tn` is `selfᵀ`); for finite inputs it never
//! changes a bit, and non-finite weights are caught by the training
//! guard instead.

use crate::pool;
use crate::tensor::Tensor;
use std::sync::OnceLock;

/// Records one kernel dispatch's work size (multiply-adds) into the
/// named histogram. Interned-handle lookup happens once; afterwards an
/// observation is a shift plus three relaxed atomic adds, and nothing
/// at all when telemetry is off.
pub(crate) fn observe_kernel_work(
    cell: &OnceLock<&'static daisy_telemetry::metrics::Histogram>,
    name: &'static str,
    work: usize,
) {
    if daisy_telemetry::enabled() {
        cell.get_or_init(|| daisy_telemetry::metrics::histogram(name))
            .observe(work as u64);
    }
}

static MATMUL_WORK: OnceLock<&'static daisy_telemetry::metrics::Histogram> = OnceLock::new();
static MATMUL_TN_WORK: OnceLock<&'static daisy_telemetry::metrics::Histogram> = OnceLock::new();
static MATMUL_NT_WORK: OnceLock<&'static daisy_telemetry::metrics::Histogram> = OnceLock::new();

/// Tile width over the shared `k` dimension. Keeps the active panel of
/// `b` (≈ `K_TILE × N` floats) inside L2 for the matrix sizes the GAN
/// models use. Tiling over `k` reorders only *which rows of `b` stream
/// when*, not the per-element addition order, so it is bit-compatible
/// with the untiled loop.
const K_TILE: usize = 128;

/// The i-k-j kernel for rows `r0..r0+rows` of the output, with `k`
/// tiling and the zero-skip. Per element, additions happen in ascending
/// `k` order regardless of tiling.
fn matmul_rows(a: &[f32], b: &[f32], out: &mut [f32], r0: usize, k: usize, n: usize) {
    let rows = out.len() / n.max(1);
    for k0 in (0..k).step_by(K_TILE) {
        let k1 = (k0 + K_TILE).min(k);
        for i in 0..rows {
            let a_row = &a[(r0 + i) * k + k0..(r0 + i) * k + k1];
            let out_row = &mut out[i * n..(i + 1) * n];
            for (kk, &aik) in a_row.iter().enumerate() {
                if aik == 0.0 {
                    continue;
                }
                let b_row = &b[(k0 + kk) * n..(k0 + kk + 1) * n];
                for (o, &bv) in out_row.iter_mut().zip(b_row) {
                    *o += aik * bv;
                }
            }
        }
    }
}

/// Row-major `[m, k] x [k, n] -> [m, n]`: `matmul_rows` over row
/// blocks of the output on the worker pool.
fn gemm(a: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> Tensor {
    let mut out = vec![0.0f32; m * n];
    let rpb = pool::rows_per_block(m, m * k * n);
    pool::for_each_row_chunk(&mut out, n, rpb, |r0, chunk| {
        matmul_rows(a, b, chunk, r0, k, n);
    });
    Tensor::from_vec(out, &[m, n])
}

impl Tensor {
    /// Matrix product of `[M, K] x [K, N] -> [M, N]`.
    ///
    /// Runs on the worker pool above [`pool::PAR_MIN_WORK`]
    /// multiply-adds; bit-identical to the serial loop at any thread
    /// count. Zero entries of `self` are skipped, which makes one-hot
    /// encoded inputs cheap.
    ///
    /// # Panics
    /// If either operand is not 2-D, or the inner dimensions differ
    /// (the message carries both shapes).
    pub fn matmul(&self, other: &Tensor) -> Tensor {
        assert_eq!(
            self.ndim(),
            2,
            "matmul lhs must be 2-D, got {:?}",
            self.shape()
        );
        assert_eq!(
            other.ndim(),
            2,
            "matmul rhs must be 2-D, got {:?}",
            other.shape()
        );
        let (m, k) = (self.rows(), self.cols());
        let (k2, n) = (other.rows(), other.cols());
        assert_eq!(
            k,
            k2,
            "matmul inner dimensions differ: {:?} x {:?}",
            self.shape(),
            other.shape()
        );
        observe_kernel_work(&MATMUL_WORK, "kernel.matmul.work", m * k * n);
        daisy_telemetry::phase_scope!("matmul");
        gemm(self.data(), other.data(), m, k, n)
    }

    /// Transpose of a 2-D tensor.
    pub fn transpose(&self) -> Tensor {
        assert_eq!(
            self.ndim(),
            2,
            "transpose requires a 2-D tensor, got {:?}",
            self.shape()
        );
        let (m, n) = (self.rows(), self.cols());
        let mut out = vec![0.0f32; m * n];
        // Write the output in order and read with a stride: on a Xeon
        // host this halves the time of a 512×512 transpose.
        for j in 0..n {
            for i in 0..m {
                out[j * m + i] = self.data()[i * n + j];
            }
        }
        Tensor::from_vec(out, &[n, m])
    }

    /// `self^T x other`. Shapes: `[K, M]^T x [K, N] -> [M, N]`.
    ///
    /// Packs `self^T` and runs the [`Tensor::matmul`] loop, so zero
    /// entries of `self` are skipped and results are bit-identical at
    /// any thread count.
    ///
    /// # Panics
    /// If either operand is not 2-D, or the inner (shared `K`)
    /// dimensions differ (the message carries both shapes).
    pub fn matmul_tn(&self, other: &Tensor) -> Tensor {
        assert_eq!(
            self.ndim(),
            2,
            "matmul_tn lhs must be 2-D, got {:?}",
            self.shape()
        );
        assert_eq!(
            other.ndim(),
            2,
            "matmul_tn rhs must be 2-D, got {:?}",
            other.shape()
        );
        let (k, m) = (self.rows(), self.cols());
        let (k2, n) = (other.rows(), other.cols());
        assert_eq!(
            k,
            k2,
            "matmul_tn inner dimensions differ: {:?}^T x {:?}",
            self.shape(),
            other.shape()
        );
        observe_kernel_work(&MATMUL_TN_WORK, "kernel.matmul_tn.work", m * k * n);
        daisy_telemetry::phase_scope!("matmul_tn");
        gemm(self.transpose().data(), other.data(), m, k, n)
    }

    /// `self x other^T`. Shapes: `[M, K] x [N, K]^T -> [M, N]`.
    ///
    /// Packs `other^T` and runs the [`Tensor::matmul`] loop, so zero
    /// entries of `self` are skipped and results are bit-identical at
    /// any thread count.
    ///
    /// # Panics
    /// If either operand is not 2-D, or the inner (shared `K`)
    /// dimensions differ (the message carries both shapes).
    pub fn matmul_nt(&self, other: &Tensor) -> Tensor {
        assert_eq!(
            self.ndim(),
            2,
            "matmul_nt lhs must be 2-D, got {:?}",
            self.shape()
        );
        assert_eq!(
            other.ndim(),
            2,
            "matmul_nt rhs must be 2-D, got {:?}",
            other.shape()
        );
        let (m, k) = (self.rows(), self.cols());
        let (n, k2) = (other.rows(), other.cols());
        assert_eq!(
            k,
            k2,
            "matmul_nt inner dimensions differ: {:?} x {:?}^T",
            self.shape(),
            other.shape()
        );
        observe_kernel_work(&MATMUL_NT_WORK, "kernel.matmul_nt.work", m * k * n);
        daisy_telemetry::phase_scope!("matmul_nt");
        gemm(self.data(), other.transpose().data(), m, k, n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng;

    #[test]
    fn matmul_known_values() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        let b = Tensor::from_vec(vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0], &[3, 2]);
        let c = a.matmul(&b);
        assert_eq!(c.shape(), &[2, 2]);
        assert_eq!(c.data(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn matmul_identity() {
        let mut rng = Rng::seed_from_u64(3);
        let a = Tensor::randn(&[4, 4], &mut rng);
        let mut eye = Tensor::zeros(&[4, 4]);
        for i in 0..4 {
            *eye.at2_mut(i, i) = 1.0;
        }
        assert_eq!(a.matmul(&eye), a);
    }

    #[test]
    fn transpose_roundtrip() {
        let mut rng = Rng::seed_from_u64(4);
        let a = Tensor::randn(&[3, 5], &mut rng);
        assert_eq!(a.transpose().transpose(), a);
        assert_eq!(a.transpose().shape(), &[5, 3]);
        assert_eq!(a.transpose().at2(4, 2), a.at2(2, 4));
    }

    #[test]
    fn fused_transpose_matmuls_match_explicit() {
        let mut rng = Rng::seed_from_u64(5);
        let a = Tensor::randn(&[6, 4], &mut rng);
        let b = Tensor::randn(&[6, 3], &mut rng);
        assert_eq!(bits(&a.matmul_tn(&b)), bits(&a.transpose().matmul(&b)));

        let c = Tensor::randn(&[5, 4], &mut rng);
        let d = Tensor::randn(&[7, 4], &mut rng);
        assert_eq!(bits(&c.matmul_nt(&d)), bits(&c.matmul(&d.transpose())));
    }

    #[test]
    #[should_panic(expected = "inner dimensions differ: [2, 3] x [2, 3]")]
    fn matmul_dim_mismatch_panics() {
        let a = Tensor::zeros(&[2, 3]);
        let b = Tensor::zeros(&[2, 3]);
        let _ = a.matmul(&b);
    }

    #[test]
    #[should_panic(expected = "matmul_tn inner dimensions differ: [4, 2]^T x [3, 5]")]
    fn matmul_tn_dim_mismatch_panics() {
        let a = Tensor::zeros(&[4, 2]);
        let b = Tensor::zeros(&[3, 5]);
        let _ = a.matmul_tn(&b);
    }

    #[test]
    #[should_panic(expected = "matmul_nt inner dimensions differ: [2, 4] x [5, 3]^T")]
    fn matmul_nt_dim_mismatch_panics() {
        let a = Tensor::zeros(&[2, 4]);
        let b = Tensor::zeros(&[5, 3]);
        let _ = a.matmul_nt(&b);
    }

    fn bits(t: &Tensor) -> Vec<u32> {
        t.data().iter().map(|v| v.to_bits()).collect()
    }

    /// Parallel blocked kernels must equal plain serial reference loops
    /// bit-for-bit on awkward shapes (non-divisible tiles, 1×N, N×1),
    /// including left operands with exact (and negative) zeros. The
    /// `nt` reference is a scalar dot product per output element with
    /// no zero-skip, so for finite inputs the skip never changes a bit.
    #[test]
    fn blocked_parallel_matches_serial_reference() {
        let _g = crate::pool::test_guard();
        fn reference(a: &Tensor, b: &Tensor) -> Tensor {
            let (m, k) = (a.rows(), a.cols());
            let n = b.cols();
            let mut out = vec![0.0f32; m * n];
            for i in 0..m {
                for kk in 0..k {
                    let aik = a.data()[i * k + kk];
                    if aik == 0.0 {
                        continue;
                    }
                    for j in 0..n {
                        out[i * n + j] += aik * b.data()[kk * n + j];
                    }
                }
            }
            Tensor::from_vec(out, &[m, n])
        }
        // `at^T x b` with `at: [K, M]`, strided over `at`'s columns.
        fn reference_tn(at: &Tensor, b: &Tensor) -> Tensor {
            let (k, m) = (at.rows(), at.cols());
            let n = b.cols();
            let mut out = vec![0.0f32; m * n];
            for kk in 0..k {
                for i in 0..m {
                    let aki = at.data()[kk * m + i];
                    if aki == 0.0 {
                        continue;
                    }
                    for j in 0..n {
                        out[i * n + j] += aki * b.data()[kk * n + j];
                    }
                }
            }
            Tensor::from_vec(out, &[m, n])
        }
        // `a x bt^T` with `bt: [N, K]`, one dot product per element.
        fn reference_nt(a: &Tensor, bt: &Tensor) -> Tensor {
            let (m, k) = (a.rows(), a.cols());
            let n = bt.rows();
            let mut out = vec![0.0f32; m * n];
            for i in 0..m {
                for j in 0..n {
                    let mut acc = 0.0f32;
                    for kk in 0..k {
                        acc += a.data()[i * k + kk] * bt.data()[j * k + kk];
                    }
                    out[i * n + j] = acc;
                }
            }
            Tensor::from_vec(out, &[m, n])
        }
        let mut rng = Rng::seed_from_u64(11);
        for &(m, k, n, sparse) in &[
            (1usize, 300usize, 7usize, false), // 1×N row vector, k > K_TILE
            (7, 300, 1, false),                // N×1 column output
            (65, 129, 33, false),              // nothing divides the tiles
            (130, 257, 66, false),
            (1, 300, 7, true), // the same shapes with exact zeros in A
            (65, 129, 33, true),
            (130, 257, 66, true),
        ] {
            let mut a = Tensor::randn(&[m, k], &mut rng);
            if sparse {
                for (idx, v) in a.data_mut().iter_mut().enumerate() {
                    match idx % 5 {
                        0 | 2 => *v = 0.0,
                        3 => *v = -0.0,
                        _ => {}
                    }
                }
            }
            let b = Tensor::randn(&[k, n], &mut rng);
            let (at, bt) = (a.transpose(), b.transpose());
            let want = bits(&reference(&a, &b));
            let want_tn = bits(&reference_tn(&at, &b));
            let want_nt = bits(&reference_nt(&a, &bt));
            for threads in [1, 4] {
                crate::pool::set_threads(threads);
                let ctx = format!("m={m} k={k} n={n} sparse={sparse} threads={threads}");
                assert_eq!(bits(&a.matmul(&b)), want, "nn {ctx}");
                assert_eq!(bits(&at.matmul_tn(&b)), want_tn, "tn {ctx}");
                assert_eq!(bits(&a.matmul_nt(&bt)), want_nt, "nt {ctx}");
            }
        }
        crate::pool::set_threads(4);
    }

    /// The zero-skip rule, pinned for every variant: a zero in the left
    /// operand contributes nothing, even against inf or NaN in the
    /// right one, so `nn`, `nt` and `tn` agree bit-for-bit.
    #[test]
    fn zero_in_lhs_skips_non_finite_rhs_in_every_variant() {
        let _g = crate::pool::test_guard();
        let a = Tensor::from_vec(vec![0.0, 1.0], &[1, 2]);
        let b = Tensor::from_vec(vec![f32::INFINITY, 2.0], &[2, 1]);
        assert_eq!(a.matmul(&b).data(), &[2.0]);
        assert_eq!(a.matmul_nt(&b.transpose()).data(), &[2.0]);
        assert_eq!(a.transpose().matmul_tn(&b).data(), &[2.0]);

        // Above the parallel threshold, k > K_TILE: every third column
        // of A is zero and faces a row of B holding inf, -inf or NaN.
        let mut rng = Rng::seed_from_u64(12);
        let (m, k, n) = (40usize, 300usize, 30usize);
        let mut a = Tensor::randn(&[m, k], &mut rng);
        let mut b = Tensor::randn(&[k, n], &mut rng);
        for kk in (0..k).step_by(3) {
            for i in 0..m {
                *a.at2_mut(i, kk) = if i % 2 == 0 { 0.0 } else { -0.0 };
            }
            for j in 0..n {
                *b.at2_mut(kk, j) = [f32::INFINITY, f32::NEG_INFINITY, f32::NAN][(kk + j) % 3];
            }
        }
        for threads in [1, 4] {
            crate::pool::set_threads(threads);
            let nn = a.matmul(&b);
            assert!(nn.data().iter().all(|v| v.is_finite()), "threads={threads}");
            assert_eq!(
                bits(&a.matmul_nt(&b.transpose())),
                bits(&nn),
                "nt threads={threads}"
            );
            assert_eq!(
                bits(&a.transpose().matmul_tn(&b)),
                bits(&nn),
                "tn threads={threads}"
            );
        }
        crate::pool::set_threads(4);
    }
}
