//! Reverse-mode automatic differentiation.
//!
//! [`Var`] wraps a [`Tensor`] in a dynamically built computation graph.
//! Each operation records a backward closure that maps the output
//! gradient to gradients for its parents; [`Var::backward`] walks the
//! graph in reverse construction order (node ids are monotonically
//! increasing, so descending id order is a valid reverse-topological
//! order) and accumulates gradients into [`Param`] leaves.
//!
//! The design goals, in order: correctness (every op is covered by a
//! finite-difference test), simplicity (owned tensors, no lifetimes in
//! the graph), and just enough operator coverage for the MLP / LSTM /
//! DCGAN generators and discriminators of the paper.
//!
//! ## Parallelism
//!
//! The graph itself is single-threaded by design (`Rc` nodes, built
//! per thread); parallelism lives *inside* the tensor kernels each
//! node calls. The backward walk therefore parallelizes automatically:
//! the matmul backward runs `matmul_nt`/`matmul_tn`, which pack their
//! transposed operand into the forward `matmul`'s row-partitioned loop;
//! the conv backward runs the batch-parallel gradient primitives, and
//! elementwise backward closures run the chunked `map`/`zip` — all on
//! the worker pool in [`crate::pool`], bit-identical at any thread count.
//!
//! [`Param`]s, unlike graph nodes, are `Send + Sync` (an `Arc` over a
//! locked value and gradient): a trained model can be shared by many
//! threads, each building its own forward graph over the same weights.
//!
//! ## Value-only forwards
//!
//! A forward whose result is never backpropagated — generation, the
//! generator pass of a discriminator update — runs under [`no_grad`].
//! Inside the scope [`Param::var`] returns a constant leaf and every op
//! computes its value with the same kernels in the same order, but
//! records no parents, builds no backward closure and clones no input
//! or output for one: each result is a constant leaf, so every
//! intermediate tensor is freed as soon as the forward moves past it,
//! and the values match a taped forward bit for bit.
//!
//! The scope is a thread-local flag, restored when the closure returns
//! or unwinds, because the graph is per thread: pool workers only run
//! kernels on slices and never build a [`Var`], so the thread that
//! builds the graph is the only one whose flag matters.

use crate::conv::{
    conv2d, conv2d_grad_input, conv2d_grad_weight, conv_out_dim, conv_transpose_out_dim,
};
use crate::tensor::Tensor;
use std::cell::Cell;
use std::collections::{BTreeMap, BTreeSet};
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, RwLock, RwLockReadGuard, RwLockWriteGuard};

static NEXT_ID: AtomicU64 = AtomicU64::new(0);

fn fresh_id() -> u64 {
    NEXT_ID.fetch_add(1, Ordering::Relaxed)
}

thread_local! {
    /// False while this thread is inside [`no_grad`].
    static RECORDING: Cell<bool> = const { Cell::new(true) };
}

fn recording() -> bool {
    RECORDING.with(Cell::get)
}

/// Runs `f` without recording a graph on this thread (see the module
/// docs, "Value-only forwards"): every [`Var`] built inside is a
/// constant leaf that reaches no [`Param`]. Scopes nest; the caller's
/// mode comes back when `f` returns or unwinds.
pub fn no_grad<T>(f: impl FnOnce() -> T) -> T {
    struct Restore(bool);
    impl Drop for Restore {
        fn drop(&mut self) {
            RECORDING.with(|r| r.set(self.0));
        }
    }
    let _restore = Restore(RECORDING.with(|r| r.replace(false)));
    f()
}

/// A trainable parameter: a tensor plus a shared gradient accumulator.
///
/// Modules hold `Param`s; every forward pass lifts them into graph
/// leaves with [`Param::var`], and `backward` deposits gradients here,
/// where optimizers read them. Handles are cheap `Arc` clones that may
/// cross threads; the value sits behind a reader-writer lock so
/// concurrent forward passes over a shared model never wait on each
/// other.
///
/// A thread that panics while holding a lock poisons it; the handle
/// keeps serving the stored tensor anyway (`into_inner`), since every
/// write replaces or updates a whole, shape-checked tensor.
#[derive(Clone)]
pub struct Param {
    inner: Arc<ParamInner>,
}

struct ParamInner {
    value: RwLock<Tensor>,
    grad: Mutex<Tensor>,
}

impl Param {
    /// Wraps a tensor as a trainable parameter with a zeroed gradient.
    pub fn new(value: Tensor) -> Self {
        let grad = Tensor::zeros(value.shape());
        Param {
            inner: Arc::new(ParamInner {
                value: RwLock::new(value),
                grad: Mutex::new(grad),
            }),
        }
    }

    fn read(&self) -> RwLockReadGuard<'_, Tensor> {
        self.inner.value.read().unwrap_or_else(|e| e.into_inner())
    }

    fn write(&self) -> RwLockWriteGuard<'_, Tensor> {
        self.inner.value.write().unwrap_or_else(|e| e.into_inner())
    }

    fn grad_lock(&self) -> MutexGuard<'_, Tensor> {
        self.inner.grad.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Snapshot of the current value.
    pub fn value(&self) -> Tensor {
        self.read().clone()
    }

    /// Shape of the parameter.
    pub fn shape(&self) -> Vec<usize> {
        self.read().shape().to_vec()
    }

    /// Number of scalar weights.
    pub fn numel(&self) -> usize {
        self.read().numel()
    }

    /// Snapshot of the accumulated gradient.
    pub fn grad(&self) -> Tensor {
        self.grad_lock().clone()
    }

    /// Clears the accumulated gradient.
    pub fn zero_grad(&self) {
        self.grad_lock().fill(0.0);
    }

    /// Applies an in-place update `value = f(value, grad)`.
    pub fn update(&self, f: impl FnOnce(&mut Tensor, &Tensor)) {
        let grad = self.grad_lock();
        f(&mut self.write(), &grad);
    }

    /// Overwrites the value (used by weight clipping and checkpoint
    /// restore).
    pub fn set_value(&self, value: Tensor) {
        let mut current = self.write();
        assert_eq!(value.shape(), current.shape(), "set_value shape mismatch");
        *current = value;
    }

    /// Lifts the parameter into a computation graph leaf (a constant
    /// leaf inside [`no_grad`]).
    pub fn var(&self) -> Var {
        let param = recording().then(|| self.clone());
        Var::make(self.value(), Vec::new(), None, param)
    }

    fn accumulate(&self, grad: &Tensor) {
        self.grad_lock().add_assign(grad);
    }

    /// True if both handles refer to the same underlying parameter.
    pub fn ptr_eq(&self, other: &Param) -> bool {
        Arc::ptr_eq(&self.inner, &other.inner)
    }
}

impl std::fmt::Debug for Param {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Param{:?}", self.read().shape())
    }
}

type BackwardFn = Box<dyn Fn(&Tensor) -> Vec<Tensor>>;

struct Node {
    id: u64,
    value: Tensor,
    parents: Vec<Var>,
    backward: Option<BackwardFn>,
    param: Option<Param>,
}

/// A node in the computation graph.
#[derive(Clone)]
pub struct Var {
    node: Rc<Node>,
}

impl std::fmt::Debug for Var {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Var{:?}", self.node.value.shape())
    }
}

impl Var {
    fn make(
        value: Tensor,
        parents: Vec<Var>,
        backward: Option<BackwardFn>,
        param: Option<Param>,
    ) -> Var {
        Var {
            node: Rc::new(Node {
                id: fresh_id(),
                value,
                parents,
                backward,
                param,
            }),
        }
    }

    /// A constant leaf (no gradient flows into it).
    pub fn constant(value: Tensor) -> Var {
        Var::make(value, Vec::new(), None, None)
    }

    /// The value at this node.
    #[inline]
    pub fn value(&self) -> &Tensor {
        &self.node.value
    }

    /// Shape of the value.
    #[inline]
    pub fn shape(&self) -> &[usize] {
        self.node.value.shape()
    }

    /// The result of an op. Only while recording does it link
    /// `parents` and build the backward closure: `backward` receives
    /// the result's value and captures whatever the closure needs.
    /// Inside [`no_grad`] neither runs, and the result is a constant
    /// leaf.
    fn op(
        value: Tensor,
        parents: impl FnOnce() -> Vec<Var>,
        backward: impl FnOnce(&Tensor) -> BackwardFn,
    ) -> Var {
        if !recording() {
            return Var::constant(value);
        }
        let backward = backward(&value);
        Var::make(value, parents(), Some(backward), None)
    }

    fn unary<B>(&self, value: Tensor, backward: impl FnOnce(&Tensor) -> B) -> Var
    where
        B: Fn(&Tensor) -> Tensor + 'static,
    {
        Var::op(
            value,
            || vec![self.clone()],
            |y| {
                let backward = backward(y);
                Box::new(move |g| vec![backward(g)])
            },
        )
    }

    fn binary<B>(&self, other: &Var, value: Tensor, backward: impl FnOnce(&Tensor) -> B) -> Var
    where
        B: Fn(&Tensor) -> (Tensor, Tensor) + 'static,
    {
        Var::op(
            value,
            || vec![self.clone(), other.clone()],
            |y| {
                let backward = backward(y);
                Box::new(move |g| {
                    let (ga, gb) = backward(g);
                    vec![ga, gb]
                })
            },
        )
    }

    // ----- elementwise arithmetic -----

    /// Elementwise addition.
    pub fn add(&self, other: &Var) -> Var {
        let v = self.value().add(other.value());
        self.binary(other, v, |_| |g| (g.clone(), g.clone()))
    }

    /// Elementwise subtraction.
    pub fn sub(&self, other: &Var) -> Var {
        let v = self.value().sub(other.value());
        self.binary(other, v, |_| |g| (g.clone(), g.neg()))
    }

    /// Elementwise multiplication.
    pub fn mul(&self, other: &Var) -> Var {
        let v = self.value().mul(other.value());
        self.binary(other, v, |_| {
            let a = self.value().clone();
            let b = other.value().clone();
            move |g| (g.mul(&b), g.mul(&a))
        })
    }

    /// Adds a scalar.
    pub fn add_scalar(&self, s: f32) -> Var {
        self.unary(self.value().add_scalar(s), |_| |g| g.clone())
    }

    /// Multiplies by a scalar.
    pub fn mul_scalar(&self, s: f32) -> Var {
        self.unary(self.value().mul_scalar(s), |_| move |g| g.mul_scalar(s))
    }

    /// Elementwise negation.
    pub fn neg(&self) -> Var {
        self.mul_scalar(-1.0)
    }

    /// Elementwise square.
    pub fn sqr(&self) -> Var {
        self.unary(self.value().sqr(), |_| {
            let x = self.value().clone();
            move |g| g.mul(&x).mul_scalar(2.0)
        })
    }

    /// Elementwise square root.
    pub fn sqrt(&self) -> Var {
        self.unary(self.value().sqrt(), |y| {
            let y = y.clone();
            move |g| g.zip(&y, |gi, yi| gi * 0.5 / yi.max(1e-12))
        })
    }

    /// Natural logarithm with an epsilon floor for stability.
    pub fn ln_eps(&self, eps: f32) -> Var {
        self.unary(self.value().map(|v| (v + eps).ln()), |_| {
            let x = self.value().clone();
            move |g| g.zip(&x, move |gi, xi| gi / (xi + eps))
        })
    }

    /// Elementwise exponential.
    pub fn exp(&self) -> Var {
        self.unary(self.value().map(f32::exp), |y| {
            let y = y.clone();
            move |g| g.mul(&y)
        })
    }

    // ----- activations -----

    /// Rectified linear unit.
    pub fn relu(&self) -> Var {
        self.unary(self.value().map(|v| v.max(0.0)), |_| {
            let x = self.value().clone();
            move |g| g.zip(&x, |gi, xi| if xi > 0.0 { gi } else { 0.0 })
        })
    }

    /// Leaky ReLU with slope `alpha` for negative inputs.
    pub fn leaky_relu(&self, alpha: f32) -> Var {
        self.unary(
            self.value()
                .map(move |v| if v > 0.0 { v } else { alpha * v }),
            |_| {
                let x = self.value().clone();
                move |g| g.zip(&x, move |gi, xi| if xi > 0.0 { gi } else { alpha * gi })
            },
        )
    }

    /// Hyperbolic tangent.
    pub fn tanh(&self) -> Var {
        self.unary(self.value().map(f32::tanh), |y| {
            let y = y.clone();
            move |g| g.zip(&y, |gi, yi| gi * (1.0 - yi * yi))
        })
    }

    /// Logistic sigmoid.
    pub fn sigmoid(&self) -> Var {
        self.unary(self.value().map(|v| 1.0 / (1.0 + (-v).exp())), |y| {
            let y = y.clone();
            move |g| g.zip(&y, |gi, yi| gi * yi * (1.0 - yi))
        })
    }

    /// Numerically stable row-wise softmax of a `[B, D]` tensor.
    pub fn softmax_rows(&self) -> Var {
        self.unary(self.value().softmax_rows(), |y| {
            let y = y.clone();
            move |g| {
                // dx_i = s_i * (g_i - Σ_j g_j s_j), per row.
                let mut out = g.clone();
                for r in 0..out.rows() {
                    let s = y.row(r);
                    let dot: f32 = out.row(r).iter().zip(s).map(|(gi, si)| gi * si).sum();
                    let row = out.row_mut(r);
                    for (xi, &si) in row.iter_mut().zip(s) {
                        *xi = si * (*xi - dot);
                    }
                }
                out
            }
        })
    }

    // ----- row broadcast (bias-style) ops -----

    /// `[B, D] + [D]` with gradient summed over the batch for the row
    /// operand.
    pub fn add_row(&self, row: &Var) -> Var {
        let v = self.value().add_row(row.value());
        self.binary(row, v, |_| |g| (g.clone(), g.sum_axis0()))
    }

    /// `[B, D] - [D]`.
    pub fn sub_row(&self, row: &Var) -> Var {
        let v = self.value().sub_row(row.value());
        self.binary(row, v, |_| |g| (g.clone(), g.sum_axis0().neg()))
    }

    /// `[B, D] * [D]` (per-column scaling).
    pub fn mul_row(&self, row: &Var) -> Var {
        let v = self.value().mul_row(row.value());
        self.binary(row, v, |_| {
            let x = self.value().clone();
            let r = row.value().clone();
            move |g| (g.mul_row(&r), g.mul(&x).sum_axis0())
        })
    }

    /// `[B, D] / [D]` (per-column division).
    pub fn div_row(&self, row: &Var) -> Var {
        let v = self.value().div_row(row.value());
        self.binary(row, v, |_| {
            let x = self.value().clone();
            let r = row.value().clone();
            move |g| {
                let gx = g.div_row(&r);
                let gr = g.mul(&x).sum_axis0().zip(&r, |num, ri| -num / (ri * ri));
                (gx, gr)
            }
        })
    }

    // ----- linear algebra -----

    /// Matrix product `[M, K] x [K, N] -> [M, N]`.
    pub fn matmul(&self, other: &Var) -> Var {
        let v = self.value().matmul(other.value());
        self.binary(other, v, |_| {
            let a = self.value().clone();
            let b = other.value().clone();
            move |g| (g.matmul_nt(&b), a.matmul_tn(g))
        })
    }

    // ----- shape ops -----

    /// Reshape; gradient reshapes back.
    pub fn reshape(&self, shape: &[usize]) -> Var {
        self.unary(self.value().reshape(shape), |_| {
            let original = self.shape().to_vec();
            move |g| g.reshape(&original)
        })
    }

    /// Concatenates 2-D vars along columns.
    pub fn concat_cols(parts: &[Var]) -> Var {
        assert!(!parts.is_empty(), "concat_cols of zero vars");
        let tensors: Vec<&Tensor> = parts.iter().map(|p| p.value()).collect();
        let value = Tensor::concat_cols(&tensors);
        Var::op(
            value,
            || parts.to_vec(),
            |_| {
                let widths: Vec<usize> = parts.iter().map(|p| p.value().cols()).collect();
                Box::new(move |g| {
                    let mut grads = Vec::with_capacity(widths.len());
                    let mut lo = 0;
                    for &w in &widths {
                        grads.push(g.slice_cols(lo, lo + w));
                        lo += w;
                    }
                    grads
                })
            },
        )
    }

    /// Extracts columns `[lo, hi)` of a 2-D var.
    pub fn slice_cols(&self, lo: usize, hi: usize) -> Var {
        let cols = self.value().cols();
        self.unary(self.value().slice_cols(lo, hi), |_| {
            move |g| {
                let mut full = Tensor::zeros(&[g.rows(), cols]);
                for r in 0..g.rows() {
                    full.row_mut(r)[lo..hi].copy_from_slice(g.row(r));
                }
                full
            }
        })
    }

    // ----- reductions -----

    /// Sum of all elements, as a `[1]` var.
    pub fn sum(&self) -> Var {
        let v = Tensor::from_vec(vec![self.value().sum()], &[1]);
        self.unary(v, |_| {
            let shape = self.shape().to_vec();
            move |g| Tensor::full(&shape, g.data()[0])
        })
    }

    /// Mean of all elements, as a `[1]` var.
    pub fn mean(&self) -> Var {
        let n = self.value().numel() as f32;
        self.sum().mul_scalar(1.0 / n)
    }

    /// Column means of a `[B, D]` var, producing `[D]`.
    pub fn mean_axis0(&self) -> Var {
        let rows = self.value().rows();
        let cols = self.value().cols();
        self.unary(self.value().mean_axis0(), |_| {
            move |g| {
                // Every row receives g / B.
                let scaled = g.mul_scalar(1.0 / rows as f32);
                let mut out = Tensor::zeros(&[rows, cols]);
                for r in 0..rows {
                    out.row_mut(r).copy_from_slice(scaled.data());
                }
                out
            }
        })
    }

    // ----- losses -----

    /// Numerically stable binary cross-entropy on logits against a
    /// constant target tensor; returns the mean loss as a `[1]` var.
    ///
    /// `loss = mean(max(x, 0) - x*y + ln(1 + e^{-|x|}))`,
    /// `dloss/dx = (σ(x) - y) / N`.
    pub fn bce_with_logits(&self, targets: &Tensor) -> Var {
        assert_eq!(self.shape(), targets.shape(), "bce target shape mismatch");
        let n = self.value().numel() as f32;
        let loss = self
            .value()
            .zip(targets, |xi, yi| {
                xi.max(0.0) - xi * yi + (1.0 + (-xi.abs()).exp()).ln()
            })
            .sum()
            / n;
        self.unary(Tensor::from_vec(vec![loss], &[1]), |_| {
            let x = self.value().clone();
            let y = targets.clone();
            move |g| {
                let scale = g.data()[0] / n;
                x.zip(&y, |xi, yi| {
                    let sig = 1.0 / (1.0 + (-xi).exp());
                    scale * (sig - yi)
                })
            }
        })
    }

    /// Mean squared error against a constant target; returns `[1]`.
    pub fn mse(&self, targets: &Tensor) -> Var {
        assert_eq!(self.shape(), targets.shape(), "mse target shape mismatch");
        let n = self.value().numel() as f32;
        let loss = self.value().zip(targets, |a, b| (a - b) * (a - b)).sum() / n;
        self.unary(Tensor::from_vec(vec![loss], &[1]), |_| {
            let x = self.value().clone();
            let y = targets.clone();
            move |g| {
                let scale = 2.0 * g.data()[0] / n;
                x.zip(&y, |a, b| scale * (a - b))
            }
        })
    }

    // ----- convolution -----

    /// 2-D convolution: `x [B, C, H, W]`, `w [OC, C, KH, KW]`.
    pub fn conv2d(&self, weight: &Var, stride: usize, pad: usize) -> Var {
        let v = conv2d(self.value(), weight.value(), stride, pad);
        let (h, wd) = (self.shape()[2], self.shape()[3]);
        let (kh, kw) = (weight.shape()[2], weight.shape()[3]);
        debug_assert_eq!(v.shape()[2], conv_out_dim(h, kh, stride, pad));
        self.binary(weight, v, |_| {
            let x = self.value().clone();
            let w = weight.value().clone();
            move |g| {
                (
                    conv2d_grad_input(g, &w, (h, wd), stride, pad),
                    conv2d_grad_weight(&x, g, (kh, kw), stride, pad),
                )
            }
        })
    }

    /// Transposed 2-D convolution (fractionally strided / `DeConv`):
    /// `x [B, IC, H, W]`, `w [IC, OC, KH, KW]`.
    pub fn conv_transpose2d(&self, weight: &Var, stride: usize, pad: usize) -> Var {
        let x = self.value();
        let w = weight.value();
        let (h, wd) = (x.shape()[2], x.shape()[3]);
        let (kh, kw) = (w.shape()[2], w.shape()[3]);
        let oh = conv_transpose_out_dim(h, kh, stride, pad);
        let ow = conv_transpose_out_dim(wd, kw, stride, pad);
        // Forward of convT is the input-gradient primitive of conv.
        let v = conv2d_grad_input(x, w, (oh, ow), stride, pad);
        self.binary(weight, v, |_| {
            let x = x.clone();
            let w = w.clone();
            move |g| {
                // g has the "input" role of the underlying conv; x has
                // the "output-grad" role.
                (
                    conv2d(g, &w, stride, pad),
                    conv2d_grad_weight(g, &x, (kh, kw), stride, pad),
                )
            }
        })
    }

    /// Adds a per-channel bias `[C]` to a `[B, C, H, W]` var.
    pub fn add_channel_bias(&self, bias: &Var) -> Var {
        let s = self.shape().to_vec();
        assert_eq!(s.len(), 4, "add_channel_bias requires a 4-D var");
        let c = s[1];
        assert_eq!(bias.value().numel(), c, "bias length mismatch");
        let hw = s[2] * s[3];
        let mut v = self.value().clone();
        {
            let b = bias.value().data().to_vec();
            let vd = v.data_mut();
            for (i, x) in vd.iter_mut().enumerate() {
                *x += b[(i / hw) % c];
            }
        }
        self.binary(bias, v, |_| {
            move |g| {
                let mut gb = vec![0.0f32; c];
                for (i, &gi) in g.data().iter().enumerate() {
                    gb[(i / hw) % c] += gi;
                }
                (g.clone(), Tensor::from_vec(gb, &[c]))
            }
        })
    }

    /// `[B, C, H, W] -> [B*H*W, C]` channel permutation (see
    /// [`Tensor::bchw_to_nc`]); the gradient applies the inverse
    /// permutation.
    pub fn bchw_to_nc(&self) -> Var {
        let s = self.shape();
        assert_eq!(s.len(), 4, "bchw_to_nc requires a 4-D var");
        let (b, c, h, w) = (s[0], s[1], s[2], s[3]);
        self.unary(self.value().bchw_to_nc(), |_| {
            move |g| g.nc_to_bchw(b, c, h, w)
        })
    }

    /// `[B*H*W, C] -> [B, C, H, W]` (inverse of [`Var::bchw_to_nc`]).
    pub fn nc_to_bchw(&self, b: usize, c: usize, h: usize, w: usize) -> Var {
        self.unary(self.value().nc_to_bchw(b, c, h, w), |_| |g| g.bchw_to_nc())
    }

    // ----- backward -----

    /// Runs backpropagation from this (scalar) var, accumulating into
    /// every reachable [`Param`].
    pub fn backward(&self) {
        assert_eq!(
            self.value().numel(),
            1,
            "backward() requires a scalar; use backward_with for tensors"
        );
        self.backward_with(Tensor::ones(self.shape()));
    }

    /// Runs backpropagation with an explicit output gradient.
    pub fn backward_with(&self, grad: Tensor) {
        assert_eq!(grad.shape(), self.shape(), "seed gradient shape mismatch");
        // Collect reachable nodes. `seen` and `grads` are ordered
        // (BTree) collections keyed by node id: gradient accumulation
        // must be a pure function of the graph, never of a hash seed,
        // so that backward passes are bit-identical across processes —
        // the same contract the forward kernels keep across thread
        // counts (see `tests/thread_determinism.rs`).
        let mut stack = vec![self.clone()];
        let mut order: Vec<Var> = Vec::new();
        let mut seen: BTreeSet<u64> = BTreeSet::new();
        while let Some(v) = stack.pop() {
            if !seen.insert(v.node.id) {
                continue;
            }
            for p in &v.node.parents {
                stack.push(p.clone());
            }
            order.push(v);
        }
        // Reverse topological order = descending construction id.
        order.sort_by_key(|v| std::cmp::Reverse(v.node.id));

        let mut grads: BTreeMap<u64, Tensor> = BTreeMap::new();
        grads.insert(self.node.id, grad);
        for v in order {
            let Some(g) = grads.remove(&v.node.id) else {
                continue;
            };
            if let Some(param) = &v.node.param {
                param.accumulate(&g);
            }
            if let Some(backward) = &v.node.backward {
                let parent_grads = backward(&g);
                assert_eq!(
                    parent_grads.len(),
                    v.node.parents.len(),
                    "backward closure returned wrong arity"
                );
                for (p, pg) in v.node.parents.iter().zip(parent_grads) {
                    grads
                        .entry(p.node.id)
                        .and_modify(|acc| acc.add_assign(&pg))
                        .or_insert(pg);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng;

    /// Computes the finite-difference gradient of `f` at `x` and compares
    /// it against the analytic gradient deposited in the param.
    fn grad_check(x: Tensor, f: impl Fn(&Var) -> Var, tol: f32) {
        let param = Param::new(x.clone());
        let out = f(&param.var());
        out.backward();
        let analytic = param.grad();
        let eps = 1e-2f32;
        for i in 0..x.numel() {
            let mut xp = x.clone();
            xp.data_mut()[i] += eps;
            let mut xm = x.clone();
            xm.data_mut()[i] -= eps;
            let fp = f(&Var::constant(xp)).value().data()[0];
            let fm = f(&Var::constant(xm)).value().data()[0];
            let fd = (fp - fm) / (2.0 * eps);
            let a = analytic.data()[i];
            assert!(
                (fd - a).abs() < tol.max(tol * fd.abs()),
                "grad[{i}]: finite-diff {fd} vs analytic {a}"
            );
        }
    }

    fn randn(shape: &[usize], seed: u64) -> Tensor {
        let mut rng = Rng::seed_from_u64(seed);
        Tensor::randn(shape, &mut rng)
    }

    #[test]
    fn grad_elementwise_chain() {
        grad_check(
            randn(&[3, 4], 1),
            |x| x.mul_scalar(2.0).add_scalar(0.5).sqr().mean(),
            1e-2,
        );
    }

    #[test]
    fn grad_activations() {
        grad_check(randn(&[2, 5], 2), |x| x.tanh().sum(), 1e-2);
        grad_check(randn(&[2, 5], 3), |x| x.sigmoid().sum(), 1e-2);
        grad_check(randn(&[2, 5], 4), |x| x.leaky_relu(0.2).sum(), 2e-2);
        grad_check(randn(&[2, 5], 5), |x| x.exp().mean(), 1e-2);
        grad_check(
            randn(&[2, 5], 6).map(|v| v.abs() + 0.5),
            |x| x.ln_eps(1e-8).sum(),
            2e-2,
        );
        grad_check(
            randn(&[2, 5], 16).map(|v| v.abs() + 0.5),
            |x| x.sqrt().sum(),
            2e-2,
        );
    }

    #[test]
    fn grad_softmax() {
        grad_check(
            randn(&[3, 4], 7),
            |x| {
                // Weighted sum so the gradient is not identically zero.
                let w = Var::constant(Tensor::from_vec(
                    (0..12).map(|i| (i % 4) as f32 - 1.5).collect(),
                    &[3, 4],
                ));
                x.softmax_rows().mul(&w).sum()
            },
            1e-2,
        );
    }

    #[test]
    fn grad_matmul_both_sides() {
        let b = randn(&[4, 2], 8);
        grad_check(
            randn(&[3, 4], 9),
            move |x| x.matmul(&Var::constant(b.clone())).sqr().sum(),
            5e-2,
        );
        let a = randn(&[3, 4], 10);
        grad_check(
            randn(&[4, 2], 11),
            move |x| Var::constant(a.clone()).matmul(x).sqr().sum(),
            5e-2,
        );
    }

    #[test]
    fn grad_row_broadcasts() {
        let x = randn(&[5, 3], 12);
        grad_check(
            randn(&[3], 13),
            move |r| Var::constant(x.clone()).add_row(r).sqr().sum(),
            5e-2,
        );
        let x2 = randn(&[5, 3], 14);
        grad_check(
            randn(&[3], 15),
            move |r| Var::constant(x2.clone()).mul_row(r).sqr().sum(),
            5e-2,
        );
        let x3 = randn(&[5, 3], 16);
        grad_check(
            randn(&[3], 17).map(|v| v.abs() + 1.0),
            move |r| Var::constant(x3.clone()).div_row(r).sqr().sum(),
            6e-2,
        );
        let x4 = randn(&[5, 3], 30);
        grad_check(
            randn(&[3], 31),
            move |r| Var::constant(x4.clone()).sub_row(r).sqr().sum(),
            5e-2,
        );
    }

    #[test]
    fn grad_concat_slice() {
        grad_check(
            randn(&[2, 6], 18),
            |x| {
                let left = x.slice_cols(0, 2);
                let right = x.slice_cols(2, 6);
                Var::concat_cols(&[right, left]).sqr().sum()
            },
            5e-2,
        );
    }

    #[test]
    fn grad_losses() {
        let targets = Tensor::from_vec(vec![1.0, 0.0, 1.0, 0.0, 0.0, 1.0], &[3, 2]);
        let t2 = targets.clone();
        grad_check(randn(&[3, 2], 19), move |x| x.bce_with_logits(&t2), 1e-2);
        let t3 = randn(&[3, 2], 20);
        grad_check(randn(&[3, 2], 21), move |x| x.mse(&t3), 1e-2);
    }

    #[test]
    fn grad_mean_axis0() {
        grad_check(randn(&[4, 3], 22), |x| x.mean_axis0().sqr().sum(), 1e-2);
    }

    #[test]
    fn grad_conv_and_transpose() {
        let w = randn(&[2, 1, 3, 3], 23).mul_scalar(0.5);
        grad_check(
            randn(&[1, 1, 5, 5], 24),
            move |x| {
                x.reshape(&[1, 1, 5, 5])
                    .conv2d(&Var::constant(w.clone()), 2, 1)
                    .sqr()
                    .sum()
            },
            8e-2,
        );
        let x = randn(&[1, 2, 5, 5], 25);
        grad_check(
            randn(&[3, 2, 3, 3], 26).mul_scalar(0.5),
            move |w| Var::constant(x.clone()).conv2d(w, 2, 1).sqr().sum(),
            8e-2,
        );
        // Transposed conv wrt both operands.
        let wt = randn(&[2, 1, 4, 4], 27).mul_scalar(0.5);
        grad_check(
            randn(&[1, 2, 2, 2], 28),
            move |x| {
                x.conv_transpose2d(&Var::constant(wt.clone()), 2, 1)
                    .sqr()
                    .sum()
            },
            8e-2,
        );
        let xt = randn(&[1, 2, 2, 2], 29);
        grad_check(
            randn(&[2, 1, 4, 4], 32).mul_scalar(0.5),
            move |w| {
                Var::constant(xt.clone())
                    .conv_transpose2d(w, 2, 1)
                    .sqr()
                    .sum()
            },
            8e-2,
        );
    }

    #[test]
    fn grad_channel_bias() {
        let x = randn(&[2, 3, 2, 2], 33);
        grad_check(
            randn(&[3], 34),
            move |b| Var::constant(x.clone()).add_channel_bias(b).sqr().sum(),
            5e-2,
        );
    }

    #[test]
    fn shared_subexpression_accumulates() {
        // y = x*x + x  => dy/dx = 2x + 1 at scalar level with x reused.
        let p = Param::new(Tensor::from_slice(&[3.0]));
        let x = p.var();
        let y = x.mul(&x).add(&x).sum();
        y.backward();
        assert_eq!(p.grad().data()[0], 7.0);
    }

    #[test]
    fn repeated_backward_accumulates_into_param() {
        let p = Param::new(Tensor::from_slice(&[2.0]));
        for _ in 0..3 {
            p.var().sqr().sum().backward();
        }
        assert_eq!(p.grad().data()[0], 12.0); // 3 * 2x
        p.zero_grad();
        assert_eq!(p.grad().data()[0], 0.0);
    }

    /// Every op once, over two params: a 2-D path (elementwise,
    /// activations, row broadcasts, matmul, shape ops, losses) and a
    /// 4-D convolution path. Returns the intermediate results, ending
    /// with one scalar that depends on all of them.
    fn every_op(a: &Param, w: &Param) -> Vec<Var> {
        let x = a.var(); // [4, 6]
        let row = x.mean_axis0();
        let y = x
            .add(&x.mul_scalar(0.5))
            .sub(&x.sqr())
            .mul(&x.tanh())
            .add_scalar(0.1)
            .add_row(&row)
            .sub_row(&row.sigmoid())
            .mul_row(&row.exp())
            .div_row(&row.sqr().add_scalar(1.0).sqrt());
        let m = y.matmul(&x.reshape(&[6, 4]).leaky_relu(0.2)); // [4, 4]
        let parts = Var::concat_cols(&[m.relu(), m.softmax_rows(), m.neg()]);
        let losses = parts
            .bce_with_logits(&Tensor::full(parts.shape(), 0.5))
            .add(&parts.mse(&Tensor::zeros(parts.shape())))
            .add(&parts.sigmoid().ln_eps(1e-6).mean());
        let conv = x
            .reshape(&[1, 1, 4, 6])
            .conv2d(&w.var(), 1, 1) // [1, 2, 4, 6]
            .add_channel_bias(&x.slice_cols(0, 2).mean_axis0());
        let back = conv
            .bchw_to_nc()
            .nc_to_bchw(1, 2, 4, 6)
            .conv_transpose2d(&w.var(), 1, 1); // [1, 1, 4, 6]
        let total = losses.add(&back.sum());
        vec![y, m, parts, losses, conv, back, total]
    }

    fn bits(v: &Var) -> Vec<u32> {
        v.value().data().iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn no_grad_computes_the_same_bits_and_reaches_no_param() {
        let a = Param::new(randn(&[4, 6], 40));
        let w = Param::new(randn(&[2, 1, 3, 3], 41).mul_scalar(0.5));
        let free = no_grad(|| every_op(&a, &w));
        let taped = every_op(&a, &w);
        for (i, (f, t)) in free.iter().zip(&taped).enumerate() {
            assert!(bits(f) == bits(t), "intermediate {i} differs");
            let node = &f.node;
            assert!(node.parents.is_empty() && node.backward.is_none() && node.param.is_none());
        }

        free.last().unwrap().backward();
        assert!(a.grad().data().iter().all(|&g| g == 0.0));
        assert!(w.grad().data().iter().all(|&g| g == 0.0));
        // A taped input does not carry its graph through a value-only op.
        let x = a.var();
        no_grad(|| x.tanh().sum()).backward();
        assert!(a.grad().data().iter().all(|&g| g == 0.0));
        taped.last().unwrap().backward();
        assert!(a.grad().norm() > 0.0 && w.grad().norm() > 0.0);

        // A value-only var feeding a taped op stops the gradient there.
        let p = Param::new(Tensor::from_slice(&[5.0]));
        let q = Param::new(Tensor::from_slice(&[2.0]));
        let frozen = no_grad(|| p.var().mul_scalar(3.0));
        frozen.mul(&q.var()).sum().backward();
        assert_eq!(p.grad().data()[0], 0.0);
        assert_eq!(q.grad().data()[0], 15.0);
    }

    #[test]
    fn no_grad_nests_and_ops_record_again_after_it() {
        let p = Param::new(Tensor::from_slice(&[2.0]));
        let (leaf, after_inner) = no_grad(|| {
            let leaf = no_grad(|| p.var());
            // Leaving the inner scope keeps the outer one in force.
            (leaf, p.var().sqr())
        });
        leaf.sqr().sum().backward();
        after_inner.sum().backward();
        assert_eq!(p.grad().data()[0], 0.0);

        p.var().sqr().sum().backward();
        assert_eq!(p.grad().data()[0], 4.0);
    }

    #[test]
    fn no_grad_is_restored_after_a_panic_inside_it() {
        let caught = std::panic::catch_unwind(|| no_grad::<()>(|| panic!("inside the scope")));
        assert!(caught.is_err());
        let p = Param::new(Tensor::from_slice(&[3.0]));
        p.var().sqr().sum().backward();
        assert_eq!(p.grad().data()[0], 6.0);
    }

    #[test]
    fn param_update_changes_value() {
        let p = Param::new(Tensor::from_slice(&[1.0, 2.0]));
        p.var().sqr().sum().backward();
        p.update(|v, g| v.axpy(-0.1, g));
        let v = p.value();
        assert!((v.data()[0] - 0.8).abs() < 1e-6);
        assert!((v.data()[1] - 1.6).abs() < 1e-6);
    }
}
