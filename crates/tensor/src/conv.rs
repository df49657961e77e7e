//! 2-D convolution primitives.
//!
//! Three primitives cover everything the DCGAN-style networks need:
//! the forward convolution, the gradient with respect to the input, and
//! the gradient with respect to the weights. Transposed convolution
//! (`DeConv` in the paper's Appendix A.1.1) is the input-gradient
//! primitive used as a forward pass, so it comes for free.
//!
//! Small problems take a direct loop; above [`pool::PAR_MIN_WORK`]
//! multiply-adds the forward pass lowers to **im2col + `matmul_nt`**,
//! the one matmul kernel of [`crate::linalg`]. The gradients stay on
//! direct loops, parallel over the batch. The im2col patch layout is
//! `[ci][ky][kx]` — the exact accumulation order of the direct loop —
//! and path selection depends only on shapes, so results are
//! bit-identical for any thread count (see [`crate::pool`]).

use crate::linalg::observe_kernel_work;
use crate::pool;
use crate::tensor::Tensor;
use std::sync::OnceLock;

static CONV2D_WORK: OnceLock<&'static daisy_telemetry::metrics::Histogram> = OnceLock::new();

/// Upper bound on the materialized im2col patch matrix (in `f32`
/// elements, 64 MiB); bigger problems fall back to the direct loop,
/// which is still batch-parallel.
const IM2COL_MAX_PATCH_ELEMS: usize = 1 << 24;

/// Batch rows per partial in the canonically blocked weight gradient.
/// Fixed — never a function of the thread count — so the accumulation
/// order (and hence the bits) never changes with parallelism.
const GW_BATCH_BLOCK: usize = 8;

/// Shape bookkeeping for a convolution: `(H + 2p - K) / s + 1`.
#[inline]
pub fn conv_out_dim(input: usize, kernel: usize, stride: usize, pad: usize) -> usize {
    assert!(
        input + 2 * pad >= kernel,
        "kernel {kernel} larger than padded input {input}+2*{pad}"
    );
    (input + 2 * pad - kernel) / stride + 1
}

/// Output spatial size of a transposed convolution:
/// `(H - 1) * s - 2p + K`.
#[inline]
pub fn conv_transpose_out_dim(input: usize, kernel: usize, stride: usize, pad: usize) -> usize {
    (input - 1) * stride + kernel - 2 * pad
}

fn check4(t: &Tensor, what: &str) -> (usize, usize, usize, usize) {
    assert_eq!(t.ndim(), 4, "{what} must be 4-D [N, C, H, W]");
    let s = t.shape();
    (s[0], s[1], s[2], s[3])
}

/// Forward convolution.
///
/// * `x`: `[B, C, H, W]`
/// * `w`: `[OC, C, KH, KW]`
///
/// Returns `[B, OC, OH, OW]`. Lowered to im2col + matmul above a size
/// threshold; bit-identical for any thread count either way.
pub fn conv2d(x: &Tensor, w: &Tensor, stride: usize, pad: usize) -> Tensor {
    let (b, c, h, wd) = check4(x, "conv2d input");
    let (oc, cw, kh, kw) = check4(w, "conv2d weight");
    assert_eq!(c, cw, "channel mismatch: input {c}, weight {cw}");
    let oh = conv_out_dim(h, kh, stride, pad);
    let ow = conv_out_dim(wd, kw, stride, pad);
    let macs = b * oc * oh * ow * c * kh * kw;
    let patch_elems = b * oh * ow * c * kh * kw;
    observe_kernel_work(&CONV2D_WORK, "kernel.conv2d.work", macs);
    // The im2col path lowers onto matmul_nt, so profiles show that
    // share as a conv2d/matmul_nt child phase.
    daisy_telemetry::phase_scope!("conv2d");
    // Path choice is a pure function of the shapes — never of the
    // thread count — so it cannot break run-to-run determinism.
    if macs >= pool::PAR_MIN_WORK && patch_elems <= IM2COL_MAX_PATCH_ELEMS {
        conv2d_im2col(x, w, stride, pad, (oh, ow))
    } else {
        conv2d_direct(x, w, stride, pad, (oh, ow))
    }
}

/// Direct-loop forward path, parallel over the batch (each sample's
/// output slice is disjoint, accumulation order unchanged).
fn conv2d_direct(
    x: &Tensor,
    w: &Tensor,
    stride: usize,
    pad: usize,
    out_hw: (usize, usize),
) -> Tensor {
    let (b, c, h, wd) = check4(x, "conv2d input");
    let (oc, _, kh, kw) = check4(w, "conv2d weight");
    let (oh, ow) = out_hw;
    let mut out = vec![0.0f32; b * oc * oh * ow];
    let xd = x.data();
    let wdat = w.data();
    let per_b = oc * oh * ow;
    let macs = b * per_b * c * kh * kw;
    pool::for_each_row_chunk(
        &mut out,
        per_b,
        pool::rows_per_block(b, macs),
        |b0, chunk| {
            for (i, obuf) in chunk.chunks_mut(per_b).enumerate() {
                let bi = b0 + i;
                for o in 0..oc {
                    for oy in 0..oh {
                        for ox in 0..ow {
                            let mut acc = 0.0f32;
                            for ci in 0..c {
                                for ky in 0..kh {
                                    let iy = (oy * stride + ky) as isize - pad as isize;
                                    if iy < 0 || iy >= h as isize {
                                        continue;
                                    }
                                    for kx in 0..kw {
                                        let ix = (ox * stride + kx) as isize - pad as isize;
                                        if ix < 0 || ix >= wd as isize {
                                            continue;
                                        }
                                        let xi =
                                            ((bi * c + ci) * h + iy as usize) * wd + ix as usize;
                                        let wi = ((o * c + ci) * kh + ky) * kw + kx;
                                        acc += xd[xi] * wdat[wi];
                                    }
                                }
                            }
                            obuf[(o * oh + oy) * ow + ox] = acc;
                        }
                    }
                }
            }
        },
    );
    Tensor::from_vec(out, &[b, oc, oh, ow])
}

/// im2col forward path: materialize `[B*OH*OW, C*KH*KW]` patches (in
/// the direct loop's `[ci][ky][kx]` order), multiply by the `[OC,
/// C*KH*KW]` weight view with `matmul_nt` (weights packed, then the one
/// matmul loop), and permute the result back to `[B, OC, OH, OW]`.
fn conv2d_im2col(
    x: &Tensor,
    w: &Tensor,
    stride: usize,
    pad: usize,
    out_hw: (usize, usize),
) -> Tensor {
    let (b, c, h, wd) = check4(x, "conv2d input");
    let (oc, _, kh, kw) = check4(w, "conv2d weight");
    let (oh, ow) = out_hw;
    let xd = x.data();
    let patch = c * kh * kw;
    let rows = b * oh * ow;
    let mut patches = vec![0.0f32; rows * patch];
    pool::for_each_row_chunk(
        &mut patches,
        patch,
        pool::rows_per_block(rows, rows * patch),
        |r0, chunk| {
            for (i, prow) in chunk.chunks_mut(patch).enumerate() {
                let r = r0 + i;
                let bi = r / (oh * ow);
                let rem = r % (oh * ow);
                let (oy, ox) = (rem / ow, rem % ow);
                let mut p = 0;
                for ci in 0..c {
                    for ky in 0..kh {
                        let iy = (oy * stride + ky) as isize - pad as isize;
                        for kx in 0..kw {
                            let ix = (ox * stride + kx) as isize - pad as isize;
                            prow[p] = if iy >= 0 && iy < h as isize && ix >= 0 && ix < wd as isize {
                                xd[((bi * c + ci) * h + iy as usize) * wd + ix as usize]
                            } else {
                                0.0
                            };
                            p += 1;
                        }
                    }
                }
            }
        },
    );
    let patches = Tensor::from_vec(patches, &[rows, patch]);
    let flat = patches.matmul_nt(&w.reshape(&[oc, patch])); // [B*OH*OW, OC]
    let fd = flat.data();
    let mut out = vec![0.0f32; b * oc * oh * ow];
    let per_b = oc * oh * ow;
    let ohw = oh * ow;
    pool::for_each_row_chunk(
        &mut out,
        per_b,
        pool::rows_per_block(b, b * per_b),
        |b0, chunk| {
            for (i, obuf) in chunk.chunks_mut(per_b).enumerate() {
                let base = (b0 + i) * ohw;
                for o in 0..oc {
                    for p in 0..ohw {
                        obuf[o * ohw + p] = fd[(base + p) * oc + o];
                    }
                }
            }
        },
    );
    Tensor::from_vec(out, &[b, oc, oh, ow])
}

/// Gradient of a convolution with respect to its input.
///
/// * `gy`: `[B, OC, OH, OW]` upstream gradient
/// * `w`: `[OC, C, KH, KW]`
/// * `input_hw`: the `(H, W)` of the original input
///
/// Returns `[B, C, H, W]`. This is also the forward pass of a
/// transposed convolution. Parallel over the batch; per-sample
/// accumulation order matches the serial loop, so results are
/// bit-identical for any thread count.
pub fn conv2d_grad_input(
    gy: &Tensor,
    w: &Tensor,
    input_hw: (usize, usize),
    stride: usize,
    pad: usize,
) -> Tensor {
    let (b, oc, oh, ow) = check4(gy, "conv2d_grad_input upstream");
    let (ocw, c, kh, kw) = check4(w, "conv2d_grad_input weight");
    assert_eq!(
        oc,
        ocw,
        "output channel mismatch: upstream {:?} vs weight {:?}",
        gy.shape(),
        w.shape()
    );
    let (h, wd) = input_hw;
    let mut gx = vec![0.0f32; b * c * h * wd];
    let gyd = gy.data();
    let wdat = w.data();
    let per_b = c * h * wd;
    let macs = b * oc * oh * ow * c * kh * kw;
    pool::for_each_row_chunk(
        &mut gx,
        per_b,
        pool::rows_per_block(b, macs),
        |b0, chunk| {
            for (i, gbuf) in chunk.chunks_mut(per_b).enumerate() {
                let bi = b0 + i;
                for o in 0..oc {
                    for oy in 0..oh {
                        for ox in 0..ow {
                            let g = gyd[((bi * oc + o) * oh + oy) * ow + ox];
                            if g == 0.0 {
                                continue;
                            }
                            for ci in 0..c {
                                for ky in 0..kh {
                                    let iy = (oy * stride + ky) as isize - pad as isize;
                                    if iy < 0 || iy >= h as isize {
                                        continue;
                                    }
                                    for kx in 0..kw {
                                        let ix = (ox * stride + kx) as isize - pad as isize;
                                        if ix < 0 || ix >= wd as isize {
                                            continue;
                                        }
                                        let xi = (ci * h + iy as usize) * wd + ix as usize;
                                        let wi = ((o * c + ci) * kh + ky) * kw + kx;
                                        gbuf[xi] += g * wdat[wi];
                                    }
                                }
                            }
                        }
                    }
                }
            }
        },
    );
    Tensor::from_vec(gx, &[b, c, h, wd])
}

/// Gradient of a convolution with respect to its weights.
///
/// * `x`: `[B, C, H, W]` original input
/// * `gy`: `[B, OC, OH, OW]` upstream gradient
/// * `kernel_hw`: the `(KH, KW)` of the weight
///
/// Returns `[OC, C, KH, KW]`. Canonically blocked over fixed
/// `GW_BATCH_BLOCK`-sample runs of the batch: each run produces a
/// partial weight gradient and partials combine in run order, on the
/// serial path too — bit-identical for any thread count.
pub fn conv2d_grad_weight(
    x: &Tensor,
    gy: &Tensor,
    kernel_hw: (usize, usize),
    stride: usize,
    pad: usize,
) -> Tensor {
    let (b, c, h, wd) = check4(x, "conv2d_grad_weight input");
    let (b2, oc, oh, ow) = check4(gy, "conv2d_grad_weight upstream");
    assert_eq!(
        b,
        b2,
        "batch mismatch: input {:?} vs upstream {:?}",
        x.shape(),
        gy.shape()
    );
    let (kh, kw) = kernel_hw;
    let xd = x.data();
    let gyd = gy.data();
    let block_gw = |b0: usize, b1: usize| {
        let mut gw = vec![0.0f32; oc * c * kh * kw];
        for bi in b0..b1 {
            for o in 0..oc {
                for oy in 0..oh {
                    for ox in 0..ow {
                        let g = gyd[((bi * oc + o) * oh + oy) * ow + ox];
                        if g == 0.0 {
                            continue;
                        }
                        for ci in 0..c {
                            for ky in 0..kh {
                                let iy = (oy * stride + ky) as isize - pad as isize;
                                if iy < 0 || iy >= h as isize {
                                    continue;
                                }
                                for kx in 0..kw {
                                    let ix = (ox * stride + kx) as isize - pad as isize;
                                    if ix < 0 || ix >= wd as isize {
                                        continue;
                                    }
                                    let xi = ((bi * c + ci) * h + iy as usize) * wd + ix as usize;
                                    let wi = ((o * c + ci) * kh + ky) * kw + kx;
                                    gw[wi] += g * xd[xi];
                                }
                            }
                        }
                    }
                }
            }
        }
        gw
    };
    if b <= GW_BATCH_BLOCK {
        return Tensor::from_vec(block_gw(0, b), &[oc, c, kh, kw]);
    }
    let n_blocks = b.div_ceil(GW_BATCH_BLOCK);
    let partials = pool::collect_blocks(n_blocks, |i| {
        let b0 = i * GW_BATCH_BLOCK;
        block_gw(b0, (b0 + GW_BATCH_BLOCK).min(b))
    });
    let mut gw = vec![0.0f32; oc * c * kh * kw];
    for part in &partials {
        for (o, &v) in gw.iter_mut().zip(part) {
            *o += v;
        }
    }
    Tensor::from_vec(gw, &[oc, c, kh, kw])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng;

    #[test]
    fn out_dims() {
        assert_eq!(conv_out_dim(16, 4, 2, 1), 8);
        assert_eq!(conv_out_dim(8, 3, 1, 1), 8);
        assert_eq!(conv_transpose_out_dim(8, 4, 2, 1), 16);
        // The two are inverses for the DCGAN geometry.
        assert_eq!(
            conv_transpose_out_dim(conv_out_dim(16, 4, 2, 1), 4, 2, 1),
            16
        );
    }

    #[test]
    fn identity_kernel_passthrough() {
        // A 1x1 kernel of weight 1 reproduces the input.
        let mut rng = Rng::seed_from_u64(1);
        let x = Tensor::randn(&[2, 1, 4, 4], &mut rng);
        let w = Tensor::ones(&[1, 1, 1, 1]);
        let y = conv2d(&x, &w, 1, 0);
        assert_eq!(y, x);
    }

    #[test]
    fn known_3x3_convolution() {
        // Input: 1..9 in a 3x3 grid, 2x2 averaging-style kernel of ones,
        // stride 1, no padding.
        let x = Tensor::from_vec((1..=9).map(|v| v as f32).collect(), &[1, 1, 3, 3]);
        let w = Tensor::ones(&[1, 1, 2, 2]);
        let y = conv2d(&x, &w, 1, 0);
        assert_eq!(y.shape(), &[1, 1, 2, 2]);
        assert_eq!(y.data(), &[12.0, 16.0, 24.0, 28.0]);
    }

    #[test]
    fn padding_behaves_as_zeros() {
        let x = Tensor::ones(&[1, 1, 2, 2]);
        let w = Tensor::ones(&[1, 1, 3, 3]);
        let y = conv2d(&x, &w, 1, 1);
        assert_eq!(y.shape(), &[1, 1, 2, 2]);
        // Each output sees the full 2x2 of ones (corners of the padded
        // input contribute zero).
        assert_eq!(y.data(), &[4.0, 4.0, 4.0, 4.0]);
    }

    /// Finite-difference check of both gradient primitives.
    #[test]
    fn gradients_match_finite_differences() {
        let mut rng = Rng::seed_from_u64(2);
        let x = Tensor::randn(&[1, 2, 5, 5], &mut rng);
        let w = Tensor::randn(&[3, 2, 3, 3], &mut rng);
        let (stride, pad) = (2, 1);
        // Loss = sum(conv(x, w)); upstream gradient is all ones.
        let y = conv2d(&x, &w, stride, pad);
        let gy = Tensor::ones(y.shape());
        let gx = conv2d_grad_input(&gy, &w, (5, 5), stride, pad);
        let gw = conv2d_grad_weight(&x, &gy, (3, 3), stride, pad);

        let eps = 1e-2f32;
        let loss = |x: &Tensor, w: &Tensor| conv2d(x, w, stride, pad).sum();
        for &i in &[0usize, 7, 24, 49] {
            let mut xp = x.clone();
            xp.data_mut()[i] += eps;
            let mut xm = x.clone();
            xm.data_mut()[i] -= eps;
            let fd = (loss(&xp, &w) - loss(&xm, &w)) / (2.0 * eps);
            assert!(
                (fd - gx.data()[i]).abs() < 1e-2,
                "input grad {i}: fd {fd} vs analytic {}",
                gx.data()[i]
            );
        }
        for &i in &[0usize, 5, 17, 53] {
            let mut wp = w.clone();
            wp.data_mut()[i] += eps;
            let mut wm = w.clone();
            wm.data_mut()[i] -= eps;
            let fd = (loss(&x, &wp) - loss(&x, &wm)) / (2.0 * eps);
            assert!(
                (fd - gw.data()[i]).abs() < 1e-2,
                "weight grad {i}: fd {fd} vs analytic {}",
                gw.data()[i]
            );
        }
    }

    #[test]
    fn transpose_conv_upsamples() {
        // grad-input primitive as a forward pass: 1x1 spatial input with a
        // stride-2 4x4 kernel must produce a 4x4 map when unpadded.
        let mut rng = Rng::seed_from_u64(3);
        let z = Tensor::randn(&[1, 3, 1, 1], &mut rng);
        let w = Tensor::randn(&[3, 2, 4, 4], &mut rng); // [IC(=OC of grad), C, KH, KW]
        let out_hw = conv_transpose_out_dim(1, 4, 2, 0);
        let y = conv2d_grad_input(&z, &w, (out_hw, out_hw), 2, 0);
        assert_eq!(y.shape(), &[1, 2, 4, 4]);
    }

    /// The im2col lowering and the direct loop must agree exactly —
    /// the patch layout reproduces the direct loop's accumulation order.
    #[test]
    fn im2col_matches_direct() {
        let mut rng = Rng::seed_from_u64(9);
        for &(b, c, h, oc, k, stride, pad) in &[
            (4usize, 3usize, 9usize, 5usize, 3usize, 1usize, 1usize), // odd sizes
            (2, 2, 8, 4, 4, 2, 1),                                    // DCGAN geometry
            (1, 1, 5, 1, 5, 1, 0),                                    // kernel == input
        ] {
            let x = Tensor::randn(&[b, c, h, h], &mut rng);
            let w = Tensor::randn(&[oc, c, k, k], &mut rng);
            let oh = conv_out_dim(h, k, stride, pad);
            let direct = conv2d_direct(&x, &w, stride, pad, (oh, oh));
            let lowered = conv2d_im2col(&x, &w, stride, pad, (oh, oh));
            assert_eq!(direct.shape(), lowered.shape());
            for (a, b) in direct.data().iter().zip(lowered.data()) {
                assert_eq!(a, b, "im2col diverged from direct conv");
            }
        }
    }

    /// Conv kernels must be bit-identical for any thread count.
    #[test]
    fn conv_is_thread_count_invariant() {
        let _g = crate::pool::test_guard();
        let mut rng = Rng::seed_from_u64(10);
        let x = Tensor::randn(&[19, 4, 10, 10], &mut rng); // awkward batch
        let w = Tensor::randn(&[6, 4, 3, 3], &mut rng);
        let y = conv2d(&x, &w, 1, 1);
        let gy = Tensor::randn(y.shape(), &mut rng);
        crate::pool::set_threads(1);
        let (y1, gx1, gw1) = (
            conv2d(&x, &w, 1, 1),
            conv2d_grad_input(&gy, &w, (10, 10), 1, 1),
            conv2d_grad_weight(&x, &gy, (3, 3), 1, 1),
        );
        crate::pool::set_threads(4);
        assert_eq!(conv2d(&x, &w, 1, 1), y1);
        assert_eq!(conv2d_grad_input(&gy, &w, (10, 10), 1, 1), gx1);
        assert_eq!(conv2d_grad_weight(&x, &gy, (3, 3), 1, 1), gw1);
        crate::pool::set_threads(1);
    }
}
