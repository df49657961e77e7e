//! Matrix multiplication and transposition kernels.
//!
//! One kernel, `matmul_rows`, serves all three matmul variants.
//! [`Tensor::matmul_nt`] and [`Tensor::matmul_tn`] first pack their
//! transposed operand into row-major layout with [`Tensor::transpose`],
//! then run it. The kernel is row-partitioned across the worker pool
//! ([`crate::pool`]) above a size threshold, and has two bodies:
//!
//! - **Portable** (every target): i-k-j order — the output row and a row
//!   of `b` stream in the inner loop, which autovectorizes — with `k`
//!   tiled for cache reuse. It is the reference.
//! - **AVX2** (x86_64 only): a 4-row × 16-column register tile, with an
//!   8-wide micro-tile and scalar dot products for the column edges and
//!   1–3-row tiles for the row edges. `gemm` picks it once per call when
//!   the CPU runs AVX2 and the right operand is all-finite.
//!
//! Every output element is computed entirely within one row block, as
//! one accumulator that starts at +0 and adds in ascending-`k` order with
//! a separate multiply and add (the tile enables `avx2`, never `fma`). So
//! both bodies make the same additions, and results are bit-identical
//! for any thread count, any block size and either body: with or
//! without AVX2 on the host. See the determinism contract in
//! [`crate::pool`].
//!
//! **Zero-skip rule:** a zero in the left operand contributes nothing,
//! even against an inf or NaN in the right one. The portable body skips
//! zero `a` entries, a large win for the one-hot-encoded matrices the GAN
//! transformations produce. The tile multiplies through them instead,
//! which is bit-neutral against a finite right operand: a ±0 product
//! leaves a non-zero accumulator unchanged, and leaves a +0 accumulator
//! at +0, which can never become −0. A right operand holding inf or NaN
//! therefore runs the portable body. The rule holds for all three
//! variants (the left operand of `matmul_tn` is `selfᵀ`); for finite
//! inputs it never changes a bit, and non-finite weights are caught by
//! the training guard instead.

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

/// The portable body: the i-k-j kernel for rows `r0..r0+rows` of the
/// output, with `k` tiling and the zero-skip. Per element, additions
/// happen in ascending `k` order regardless of tiling. It runs on every
/// target and is the reference the AVX2 tile matches bit for bit.
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
/// blocks of the output on the worker pool. The body is picked once
/// per call, and either gives the same bits (see the module docs).
fn gemm(a: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> Tensor {
    let mut out = vec![0.0f32; m * n];
    let rpb = pool::rows_per_block(m, m * k * n);
    #[cfg(target_arch = "x86_64")]
    let tile = avx2::Avx2::detect().filter(|_| all_finite(b));
    pool::for_each_row_chunk(&mut out, n, rpb, |r0, chunk| {
        #[cfg(target_arch = "x86_64")]
        if let Some(cpu) = tile {
            return avx2::matmul_rows(cpu, a, b, chunk, r0, k, n);
        }
        matmul_rows(a, b, chunk, r0, k, n);
    });
    Tensor::from_vec(out, &[m, n])
}

/// True when `b` holds no inf or NaN: the condition under which the
/// tile's multiply through a zero of `a` is bit-neutral. One O(k·n)
/// pass, branch-free within each chunk so that it vectorizes.
#[cfg(target_arch = "x86_64")]
fn all_finite(b: &[f32]) -> bool {
    b.chunks(64)
        .all(|c| c.iter().fold(true, |ok, v| ok & v.is_finite()))
}

/// The `matmul_rows` body this CPU runs for an all-finite right
/// operand: `"avx2"` (the register tile) or `"portable"`. Both give the
/// same bits; benchmarks record which one they timed.
pub fn matmul_isa() -> &'static str {
    #[cfg(target_arch = "x86_64")]
    if avx2::Avx2::detect().is_some() {
        return "avx2";
    }
    "portable"
}

/// The AVX2 body of `matmul_rows`: a 4-row × 16-column register tile.
/// `gemm` runs it only on an all-finite right operand (module docs).
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod avx2 {
    use std::arch::x86_64::{
        __m256, _mm256_add_ps, _mm256_loadu_ps, _mm256_mul_ps, _mm256_set1_ps, _mm256_setzero_ps,
        _mm256_storeu_ps,
    };

    /// Proof that the running CPU executes AVX2; only
    /// [`Avx2::detect`] makes one.
    #[derive(Clone, Copy)]
    pub(super) struct Avx2(());

    impl Avx2 {
        pub(super) fn detect() -> Option<Avx2> {
            std::arch::is_x86_feature_detected!("avx2").then_some(Avx2(()))
        }
    }

    /// `super::matmul_rows` on the register tile: the same arguments,
    /// and the same bits whenever `b` is all-finite.
    pub(super) fn matmul_rows(
        _cpu: Avx2,
        a: &[f32],
        b: &[f32],
        out: &mut [f32],
        r0: usize,
        k: usize,
        n: usize,
    ) {
        let rows = out.len() / n.max(1);
        assert!(
            rows * n == out.len() && (r0 + rows) * k <= a.len() && k * n <= b.len(),
            "matmul tile: out holds {} values for {rows}x{n}, a holds {} for rows \
             {r0}..{} of width {k}, b holds {} for {k}x{n}",
            out.len(),
            a.len(),
            r0 + rows,
            b.len()
        );
        let p = Panels {
            a: a[r0 * k..].as_ptr(),
            b: b.as_ptr(),
            out: out.as_mut_ptr(),
            k,
            n,
        };
        // SAFETY: `_cpu` proves the CPU runs AVX2, and the assert above
        // bounds every offset `tile` touches: `rows` rows of width `k`
        // from `a[r0 * k..]`, `k` rows of width `n` from `b`, and `rows`
        // rows of width `n` in `out`.
        unsafe { tile(p, rows) }
    }

    /// Row-major operand panels: `a` (width `k`) and `out` (width `n`)
    /// start at the block's first row; `b` is `k` rows of width `n`.
    #[derive(Clone, Copy)]
    struct Panels {
        a: *const f32,
        b: *const f32,
        out: *mut f32,
        k: usize,
        n: usize,
    }

    /// Column blocks of 16, then one of 8, then scalar dot products for
    /// the remaining columns. A column block walks every row block, so
    /// its `k × 16` panel of `b` stays in cache.
    ///
    /// # Safety
    /// The CPU must run AVX2; `p.a` must be readable for `rows * p.k`
    /// values, `p.b` for `p.k * p.n`, and `p.out` writable for
    /// `rows * p.n`.
    #[target_feature(enable = "avx2")]
    unsafe fn tile(p: Panels, rows: usize) {
        let mut j = 0;
        while j + 16 <= p.n {
            column_block::<2>(p, rows, j);
            j += 16;
        }
        if j + 8 <= p.n {
            column_block::<1>(p, rows, j);
            j += 8;
        }
        for jj in j..p.n {
            let mut i = 0;
            while i + 4 <= rows {
                dot::<4>(p, i, jj);
                i += 4;
            }
            for i in i..rows {
                dot::<1>(p, i, jj);
            }
        }
    }

    /// Output column `jj` of rows `i..i + R`: one scalar dot product per
    /// row, `R` independent accumulators from +0 in ascending `kk`.
    ///
    /// # Safety
    /// As for [`tile`], with `i + R <= rows` and `jj < p.n`.
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn dot<const R: usize>(p: Panels, i: usize, jj: usize) {
        let mut acc = [0.0f32; R];
        for kk in 0..p.k {
            let b = *p.b.add(kk * p.n + jj);
            for (r, acc_r) in acc.iter_mut().enumerate() {
                *acc_r += *p.a.add((i + r) * p.k + kk) * b;
            }
        }
        for (r, &v) in acc.iter().enumerate() {
            *p.out.add((i + r) * p.n + jj) = v;
        }
    }

    /// Columns `j..j + 8 * C` of every row: 4-row tiles, then one
    /// 1–3-row tile for the rest.
    ///
    /// # Safety
    /// As for [`tile`], with `j + 8 * C <= p.n`.
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn column_block<const C: usize>(p: Panels, rows: usize, j: usize) {
        let mut i = 0;
        while i + 4 <= rows {
            block::<4, C>(p, i, j);
            i += 4;
        }
        match rows - i {
            3 => block::<3, C>(p, i, j),
            2 => block::<2, C>(p, i, j),
            1 => block::<1, C>(p, i, j),
            _ => {}
        }
    }

    /// One `R × 8C` tile of the output at row `i`, column `j`: `R * C`
    /// accumulators start at +0 and add `a[i + r][kk] * b[kk][..]` in
    /// ascending `kk`, a separate multiply then add, then store once.
    ///
    /// # Safety
    /// As for [`tile`], with `i + R <= rows` and `j + 8 * C <= p.n`.
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn block<const R: usize, const C: usize>(p: Panels, i: usize, j: usize) {
        let mut acc = [[_mm256_setzero_ps(); C]; R];
        let mut a_rows = [p.a; R];
        for (r, a_row) in a_rows.iter_mut().enumerate() {
            *a_row = p.a.add((i + r) * p.k);
        }
        for kk in 0..p.k {
            let b_row = p.b.add(kk * p.n + j);
            let mut bv: [__m256; C] = [_mm256_setzero_ps(); C];
            for (c, v) in bv.iter_mut().enumerate() {
                *v = _mm256_loadu_ps(b_row.add(8 * c));
            }
            for (acc_r, a_row) in acc.iter_mut().zip(&a_rows) {
                let av = _mm256_set1_ps(*a_row.add(kk));
                for (acc_rc, &b_c) in acc_r.iter_mut().zip(&bv) {
                    *acc_rc = _mm256_add_ps(*acc_rc, _mm256_mul_ps(av, b_c));
                }
            }
        }
        for (r, acc_r) in acc.iter().enumerate() {
            let out_row = p.out.add((i + r) * p.n + j);
            for (c, &v) in acc_r.iter().enumerate() {
                _mm256_storeu_ps(out_row.add(8 * c), v);
            }
        }
    }
}

impl Tensor {
    /// Matrix product of `[M, K] x [K, N] -> [M, N]`.
    ///
    /// Runs on the worker pool above [`pool::PAR_MIN_WORK`]
    /// multiply-adds, on the AVX2 tile where the CPU has it;
    /// bit-identical to the serial portable loop at any thread count and
    /// on any host. A zero entry of `self` contributes nothing, even
    /// against inf or NaN in `other` (see the module docs).
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
    /// Packs `self^T` and runs the [`Tensor::matmul`] kernel, so a zero
    /// entry of `self` contributes nothing and results are
    /// bit-identical at any thread count and on any host.
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
    /// Packs `other^T` and runs the [`Tensor::matmul`] kernel, so a
    /// zero entry of `self` contributes nothing and results are
    /// bit-identical at any thread count and on any host.
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
        // 48×48×192 is the LSTM gate shape, which the AVX2 tile would
        // take were the right operand finite.
        let mut rng = Rng::seed_from_u64(12);
        for (m, k, n) in [(40usize, 300usize, 30usize), (48, 48, 192)] {
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
                let ctx = format!("m={m} k={k} n={n} threads={threads}");
                let nn = a.matmul(&b);
                assert!(nn.data().iter().all(|v| v.is_finite()), "{ctx}");
                assert_eq!(bits(&a.matmul_nt(&b.transpose())), bits(&nn), "nt {ctx}");
                assert_eq!(bits(&a.transpose().matmul_tn(&b)), bits(&nn), "tn {ctx}");
            }
        }
        crate::pool::set_threads(4);
    }

    /// The AVX2 tile against the portable loop, both called directly
    /// on one row block: every row edge (rows mod 4), every column edge
    /// (16- and 8-wide blocks and the scalar tail), `k` on both sides of
    /// `K_TILE`, a block that starts at row 3, and ±0 in `a`.
    #[test]
    fn avx2_body_matches_the_portable_loop_bit_for_bit() {
        #[cfg(target_arch = "x86_64")]
        {
            let Some(cpu) = avx2::Avx2::detect() else {
                eprintln!("skipped: this CPU does not run AVX2, so only the portable body exists");
                return;
            };
            let mut rng = Rng::seed_from_u64(13);
            let r0 = 3;
            for rows in [4usize, 5, 6, 7] {
                for n in [1usize, 2, 7, 8, 9, 15, 16, 17, 24, 30, 192] {
                    for k in [1usize, 24, 129, 300] {
                        let mut a = Tensor::randn(&[r0 + rows, k], &mut rng);
                        for (idx, v) in a.data_mut().iter_mut().enumerate() {
                            match idx % 7 {
                                1 => *v = 0.0,
                                4 => *v = -0.0,
                                _ => {}
                            }
                        }
                        let b = Tensor::randn(&[k, n], &mut rng);
                        let mut want = vec![0.0f32; rows * n];
                        let mut got = vec![0.0f32; rows * n];
                        matmul_rows(a.data(), b.data(), &mut want, r0, k, n);
                        avx2::matmul_rows(cpu, a.data(), b.data(), &mut got, r0, k, n);
                        let want: Vec<u32> = want.iter().map(|v| v.to_bits()).collect();
                        let got: Vec<u32> = got.iter().map(|v| v.to_bits()).collect();
                        assert_eq!(got, want, "rows={rows} n={n} k={k} r0={r0}");
                    }
                }
            }
        }
        #[cfg(not(target_arch = "x86_64"))]
        eprintln!("skipped: the AVX2 body exists only on x86_64");
    }
}
