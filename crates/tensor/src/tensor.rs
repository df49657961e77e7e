//! Dense, contiguous, row-major `f32` tensors.
//!
//! The tensor type is deliberately simple: owned `Vec<f32>` storage and
//! an explicit shape. All views are materialized (no stride tricks);
//! the workloads in this repository are dominated by matmul/conv
//! kernels, so copy costs for reshapes are negligible and the
//! simplicity pays for itself in the autodiff layer.

use crate::pool;
use crate::rng::Rng;
use std::fmt;

/// A dense row-major tensor of `f32` values.
#[derive(Clone, PartialEq)]
pub struct Tensor {
    data: Vec<f32>,
    shape: Vec<usize>,
}

impl fmt::Debug for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tensor{:?}", self.shape)?;
        if self.data.len() <= 16 {
            write!(f, " {:?}", self.data)
        } else {
            write!(f, " [{} values]", self.data.len())
        }
    }
}

fn numel_of(shape: &[usize]) -> usize {
    shape.iter().product()
}

impl Tensor {
    /// Builds a tensor from raw data and a shape. Panics if the element
    /// count does not match the shape.
    pub fn from_vec(data: Vec<f32>, shape: &[usize]) -> Self {
        assert_eq!(
            data.len(),
            numel_of(shape),
            "data length {} does not match shape {:?}",
            data.len(),
            shape
        );
        Tensor {
            data,
            shape: shape.to_vec(),
        }
    }

    /// A 1-D tensor wrapping a slice.
    pub fn from_slice(data: &[f32]) -> Self {
        Tensor {
            data: data.to_vec(),
            shape: vec![data.len()],
        }
    }

    /// All-zeros tensor.
    pub fn zeros(shape: &[usize]) -> Self {
        Tensor {
            data: vec![0.0; numel_of(shape)],
            shape: shape.to_vec(),
        }
    }

    /// All-ones tensor.
    pub fn ones(shape: &[usize]) -> Self {
        Tensor::full(shape, 1.0)
    }

    /// Constant-filled tensor.
    pub fn full(shape: &[usize], value: f32) -> Self {
        Tensor {
            data: vec![value; numel_of(shape)],
            shape: shape.to_vec(),
        }
    }

    /// Standard-normal tensor.
    pub fn randn(shape: &[usize], rng: &mut Rng) -> Self {
        let data = (0..numel_of(shape)).map(|_| rng.normal() as f32).collect();
        Tensor {
            data,
            shape: shape.to_vec(),
        }
    }

    /// Uniform tensor in `[lo, hi)`.
    pub fn rand_uniform(shape: &[usize], lo: f32, hi: f32, rng: &mut Rng) -> Self {
        let data = (0..numel_of(shape))
            .map(|_| rng.uniform(lo as f64, hi as f64) as f32)
            .collect();
        Tensor {
            data,
            shape: shape.to_vec(),
        }
    }

    /// The shape as a slice.
    #[inline]
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// Number of dimensions.
    #[inline]
    pub fn ndim(&self) -> usize {
        self.shape.len()
    }

    /// Total number of elements.
    #[inline]
    pub fn numel(&self) -> usize {
        self.data.len()
    }

    /// Raw data slice.
    #[inline]
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable raw data slice.
    #[inline]
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Number of rows of a 2-D tensor.
    #[inline]
    pub fn rows(&self) -> usize {
        assert_eq!(self.ndim(), 2, "rows() requires a 2-D tensor");
        self.shape[0]
    }

    /// Number of columns of a 2-D tensor.
    #[inline]
    pub fn cols(&self) -> usize {
        assert_eq!(self.ndim(), 2, "cols() requires a 2-D tensor");
        self.shape[1]
    }

    /// Element access for a 2-D tensor.
    #[inline]
    pub fn at2(&self, r: usize, c: usize) -> f32 {
        debug_assert_eq!(self.ndim(), 2);
        self.data[r * self.shape[1] + c]
    }

    /// Mutable element access for a 2-D tensor.
    #[inline]
    pub fn at2_mut(&mut self, r: usize, c: usize) -> &mut f32 {
        debug_assert_eq!(self.ndim(), 2);
        let cols = self.shape[1];
        &mut self.data[r * cols + c]
    }

    /// Returns a row of a 2-D tensor as a slice.
    #[inline]
    pub fn row(&self, r: usize) -> &[f32] {
        assert_eq!(self.ndim(), 2, "row() requires a 2-D tensor");
        let cols = self.shape[1];
        &self.data[r * cols..(r + 1) * cols]
    }

    /// Mutable row view of a 2-D tensor.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        assert_eq!(self.ndim(), 2, "row_mut() requires a 2-D tensor");
        let cols = self.shape[1];
        &mut self.data[r * cols..(r + 1) * cols]
    }

    /// Reshape into a new shape with the same element count. The data is
    /// shared by move (row-major order preserved).
    pub fn reshape(&self, shape: &[usize]) -> Tensor {
        assert_eq!(
            self.numel(),
            numel_of(shape),
            "cannot reshape {:?} into {:?}",
            self.shape,
            shape
        );
        Tensor {
            data: self.data.clone(),
            shape: shape.to_vec(),
        }
    }

    /// Applies `f` elementwise, producing a new tensor.
    ///
    /// Large tensors are chunked across the worker pool; every element
    /// is produced independently, so the result never depends on the
    /// thread count (see [`crate::pool`]).
    pub fn map(&self, f: impl Fn(f32) -> f32 + Sync) -> Tensor {
        let src = &self.data;
        let mut data = vec![0.0f32; src.len()];
        let epb = pool::rows_per_block(src.len(), src.len());
        pool::for_each_row_chunk(&mut data, 1, epb, |i0, chunk| {
            let n = chunk.len();
            for (o, &x) in chunk.iter_mut().zip(&src[i0..i0 + n]) {
                *o = f(x);
            }
        });
        Tensor {
            data,
            shape: self.shape.clone(),
        }
    }

    /// Applies `f` elementwise in place (chunked like [`Tensor::map`]).
    pub fn map_inplace(&mut self, f: impl Fn(f32) -> f32 + Sync) {
        let len = self.data.len();
        let epb = pool::rows_per_block(len, len);
        pool::for_each_row_chunk(&mut self.data, 1, epb, |_, chunk| {
            for x in chunk {
                *x = f(*x);
            }
        });
    }

    /// Combines two same-shape tensors elementwise (chunked like
    /// [`Tensor::map`]).
    pub fn zip(&self, other: &Tensor, f: impl Fn(f32, f32) -> f32 + Sync) -> Tensor {
        assert_eq!(
            self.shape, other.shape,
            "zip requires matching shapes ({:?} vs {:?})",
            self.shape, other.shape
        );
        let (a, b) = (&self.data, &other.data);
        let mut data = vec![0.0f32; a.len()];
        let epb = pool::rows_per_block(a.len(), a.len());
        pool::for_each_row_chunk(&mut data, 1, epb, |i0, chunk| {
            let n = chunk.len();
            for ((o, &av), &bv) in chunk.iter_mut().zip(&a[i0..i0 + n]).zip(&b[i0..i0 + n]) {
                *o = f(av, bv);
            }
        });
        Tensor {
            data,
            shape: self.shape.clone(),
        }
    }

    /// `self += other` elementwise.
    pub fn add_assign(&mut self, other: &Tensor) {
        assert_eq!(self.shape, other.shape, "add_assign shape mismatch");
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += b;
        }
    }

    /// `self += alpha * other` elementwise (axpy).
    pub fn axpy(&mut self, alpha: f32, other: &Tensor) {
        assert_eq!(self.shape, other.shape, "axpy shape mismatch");
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += alpha * b;
        }
    }

    /// Fills with a constant.
    pub fn fill(&mut self, value: f32) {
        self.data.fill(value);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_accessors() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        assert_eq!(t.shape(), &[2, 3]);
        assert_eq!(t.rows(), 2);
        assert_eq!(t.cols(), 3);
        assert_eq!(t.at2(1, 2), 6.0);
        assert_eq!(t.row(0), &[1.0, 2.0, 3.0]);
        assert_eq!(t.numel(), 6);
    }

    #[test]
    #[should_panic(expected = "does not match shape")]
    fn from_vec_shape_mismatch_panics() {
        let _ = Tensor::from_vec(vec![1.0, 2.0], &[3]);
    }

    #[test]
    fn zeros_ones_full() {
        assert!(Tensor::zeros(&[3, 2]).data().iter().all(|&x| x == 0.0));
        assert!(Tensor::ones(&[4]).data().iter().all(|&x| x == 1.0));
        assert!(Tensor::full(&[2, 2], 7.0).data().iter().all(|&x| x == 7.0));
    }

    #[test]
    fn reshape_preserves_order() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        let r = t.reshape(&[3, 2]);
        assert_eq!(r.at2(0, 1), 2.0);
        assert_eq!(r.at2(2, 1), 6.0);
    }

    #[test]
    fn map_and_zip() {
        let a = Tensor::from_slice(&[1.0, -2.0, 3.0]);
        let b = Tensor::from_slice(&[2.0, 2.0, 2.0]);
        assert_eq!(a.map(|x| x.abs()).data(), &[1.0, 2.0, 3.0]);
        assert_eq!(a.zip(&b, |x, y| x * y).data(), &[2.0, -4.0, 6.0]);
    }

    #[test]
    fn axpy_accumulates() {
        let mut a = Tensor::from_slice(&[1.0, 1.0]);
        let b = Tensor::from_slice(&[2.0, 4.0]);
        a.axpy(0.5, &b);
        assert_eq!(a.data(), &[2.0, 3.0]);
    }

    #[test]
    fn randn_is_seed_deterministic() {
        let mut r1 = Rng::seed_from_u64(5);
        let mut r2 = Rng::seed_from_u64(5);
        assert_eq!(
            Tensor::randn(&[4, 4], &mut r1).data(),
            Tensor::randn(&[4, 4], &mut r2).data()
        );
    }
}
