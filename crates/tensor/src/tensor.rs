//! Dense `f32` tensors with row-major layout.
//!
//! [`Tensor`] is deliberately simple: a shape (up to 2-D is what the
//! workspace uses in practice, but any rank is stored) plus a flat
//! `Vec<f32>`. All differentiable structure lives in [`crate::tape`];
//! this module only provides the raw numeric kernels.

use crate::rng::Rng;

/// A dense, row-major `f32` tensor.
///
/// Most of the workspace works with 2-D tensors shaped `[batch, features]`;
/// scalars are represented as `[1, 1]` and vectors as `[1, n]`.
///
/// # Example
///
/// ```
/// use hdx_tensor::Tensor;
/// let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
/// let b = Tensor::from_vec(vec![1.0, 0.0, 0.0, 1.0], &[2, 2]);
/// let c = a.matmul(&b);
/// assert_eq!(c.data(), a.data());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Tensor {
    shape: Vec<usize>,
    data: Vec<f32>,
}

impl Tensor {
    /// Creates a tensor from a flat buffer and a shape.
    ///
    /// # Panics
    ///
    /// Panics if `data.len()` does not equal the product of `shape`.
    pub fn from_vec(data: Vec<f32>, shape: &[usize]) -> Self {
        let expected: usize = shape.iter().product();
        assert_eq!(
            data.len(),
            expected,
            "from_vec: data length {} does not match shape {:?} (= {} elements)",
            data.len(),
            shape,
            expected
        );
        Self {
            shape: shape.to_vec(),
            data,
        }
    }

    /// Creates a `[1, 1]` scalar tensor.
    pub fn scalar(value: f32) -> Self {
        Self::from_vec(vec![value], &[1, 1])
    }

    /// Creates a `[1, n]` row-vector tensor.
    pub fn row(values: &[f32]) -> Self {
        Self::from_vec(values.to_vec(), &[1, values.len()])
    }

    /// Creates a zero-filled tensor.
    pub fn zeros(shape: &[usize]) -> Self {
        Self::from_vec(vec![0.0; shape.iter().product()], shape)
    }

    /// Creates a one-filled tensor.
    pub fn ones(shape: &[usize]) -> Self {
        Self::from_vec(vec![1.0; shape.iter().product()], shape)
    }

    /// Creates a constant-filled tensor.
    pub fn full(shape: &[usize], value: f32) -> Self {
        Self::from_vec(vec![value; shape.iter().product()], shape)
    }

    /// Creates a tensor of i.i.d. Gaussian samples `N(0, std²)`.
    pub fn randn(shape: &[usize], std: f32, rng: &mut Rng) -> Self {
        let n: usize = shape.iter().product();
        Self::from_vec((0..n).map(|_| rng.normal() * std).collect(), shape)
    }

    /// The tensor's shape.
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the tensor has zero elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Immutable view of the flat data buffer.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the flat data buffer.
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Number of rows when viewed as 2-D.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not 2-D.
    pub fn rows(&self) -> usize {
        assert_eq!(
            self.shape.len(),
            2,
            "rows: tensor is not 2-D: {:?}",
            self.shape
        );
        self.shape[0]
    }

    /// Number of columns when viewed as 2-D.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not 2-D.
    pub fn cols(&self) -> usize {
        assert_eq!(
            self.shape.len(),
            2,
            "cols: tensor is not 2-D: {:?}",
            self.shape
        );
        self.shape[1]
    }

    /// The single element of a `[1, 1]` tensor.
    ///
    /// # Panics
    ///
    /// Panics if the tensor has more than one element.
    pub fn item(&self) -> f32 {
        assert_eq!(self.len(), 1, "item: tensor has {} elements", self.len());
        self.data[0]
    }

    /// Element at 2-D index `(r, c)`.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds or not 2-D.
    pub fn at(&self, r: usize, c: usize) -> f32 {
        let (rows, cols) = (self.rows(), self.cols());
        assert!(
            r < rows && c < cols,
            "at: index ({r},{c}) out of bounds ({rows},{cols})"
        );
        self.data[r * cols + c]
    }

    /// Sets the element at 2-D index `(r, c)`.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds or not 2-D.
    pub fn set(&mut self, r: usize, c: usize, value: f32) {
        let (rows, cols) = (self.rows(), self.cols());
        assert!(
            r < rows && c < cols,
            "set: index ({r},{c}) out of bounds ({rows},{cols})"
        );
        self.data[r * cols + c] = value;
    }

    /// Elementwise map.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Tensor {
        Tensor::from_vec(self.data.iter().map(|&x| f(x)).collect(), &self.shape)
    }

    /// Elementwise zip with another tensor of the same shape.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn zip(&self, other: &Tensor, f: impl Fn(f32, f32) -> f32) -> Tensor {
        self.assert_same_shape(other, "zip");
        Tensor::from_vec(
            self.data
                .iter()
                .zip(&other.data)
                .map(|(&a, &b)| f(a, b))
                .collect(),
            &self.shape,
        )
    }

    fn assert_same_shape(&self, other: &Tensor, op: &str) {
        assert_eq!(
            self.shape, other.shape,
            "{op}: shape mismatch {:?} vs {:?}",
            self.shape, other.shape
        );
    }

    /// Elementwise addition.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn add(&self, other: &Tensor) -> Tensor {
        self.zip(other, |a, b| a + b)
    }

    /// Elementwise subtraction.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn sub(&self, other: &Tensor) -> Tensor {
        self.zip(other, |a, b| a - b)
    }

    /// Elementwise (Hadamard) product.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn mul(&self, other: &Tensor) -> Tensor {
        self.zip(other, |a, b| a * b)
    }

    /// Adds `other * factor` into `self` in place.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn add_scaled_assign(&mut self, other: &Tensor, factor: f32) {
        self.assert_same_shape(other, "add_scaled_assign");
        for (a, &b) in self.data.iter_mut().zip(&other.data) {
            *a += b * factor;
        }
    }

    /// Multiplies every element by `factor`.
    pub fn scale(&self, factor: f32) -> Tensor {
        self.map(|x| x * factor)
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Squared L2 norm of all elements.
    pub fn norm_sq(&self) -> f32 {
        self.data.iter().map(|x| x * x).sum()
    }

    /// L2 norm of all elements.
    pub fn norm(&self) -> f32 {
        self.norm_sq().sqrt()
    }

    /// Dot product of the flattened tensors.
    ///
    /// # Panics
    ///
    /// Panics if the element counts differ.
    pub fn dot(&self, other: &Tensor) -> f32 {
        assert_eq!(
            self.len(),
            other.len(),
            "dot: length mismatch {} vs {}",
            self.len(),
            other.len()
        );
        self.data
            .iter()
            .zip(&other.data)
            .map(|(&a, &b)| a * b)
            .sum()
    }

    /// Matrix product `self · other` for 2-D tensors `[m,k] × [k,n]`.
    ///
    /// # Panics
    ///
    /// Panics if the inner dimensions do not match or inputs are not 2-D.
    pub fn matmul(&self, other: &Tensor) -> Tensor {
        let (m, k) = (self.rows(), self.cols());
        let (k2, n) = (other.rows(), other.cols());
        assert_eq!(k, k2, "matmul: inner dimensions {k} vs {k2} do not match");
        let mut out = vec![0.0f32; m * n];
        crate::kernels::matmul_into(&self.data, &other.data, &mut out, m, k, n);
        Tensor::from_vec(out, &[m, n])
    }

    /// Transpose of a 2-D tensor.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not 2-D.
    pub fn transpose(&self) -> Tensor {
        let (m, n) = (self.rows(), self.cols());
        let mut out = vec![0.0f32; m * n];
        crate::kernels::transpose_into(&self.data, &mut out, m, n);
        Tensor::from_vec(out, &[n, m])
    }

    /// Index of the maximum element in a given row of a 2-D tensor.
    ///
    /// # Panics
    ///
    /// Panics if the row is out of range or the tensor is not 2-D.
    pub fn argmax_row(&self, row: usize) -> usize {
        let cols = self.cols();
        assert!(row < self.rows(), "argmax_row: row {row} out of range");
        crate::kernels::argmax(&self.data[row * cols..(row + 1) * cols])
    }

    /// Row-wise softmax of a 2-D tensor (numerically stabilized).
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not 2-D.
    pub fn softmax_rows(&self) -> Tensor {
        let (m, n) = (self.rows(), self.cols());
        let mut out = vec![0.0f32; m * n];
        crate::kernels::softmax_rows_into(&self.data, &mut out, m, n);
        Tensor::from_vec(out, &[m, n])
    }

    /// Extracts rows `[start, end)` of a 2-D tensor as a new tensor.
    ///
    /// # Panics
    ///
    /// Panics if the range is invalid.
    pub fn slice_rows(&self, start: usize, end: usize) -> Tensor {
        let (m, n) = (self.rows(), self.cols());
        assert!(
            start <= end && end <= m,
            "slice_rows: invalid range {start}..{end} of {m}"
        );
        Tensor::from_vec(self.data[start * n..end * n].to_vec(), &[end - start, n])
    }

    /// Stacks 2-D tensors with equal column counts vertically.
    ///
    /// # Panics
    ///
    /// Panics if `parts` is empty or column counts differ.
    pub fn vstack(parts: &[&Tensor]) -> Tensor {
        assert!(!parts.is_empty(), "vstack: no tensors given");
        let n = parts[0].cols();
        let mut data = Vec::new();
        let mut rows = 0;
        for p in parts {
            assert_eq!(p.cols(), n, "vstack: column mismatch {} vs {n}", p.cols());
            data.extend_from_slice(&p.data);
            rows += p.rows();
        }
        Tensor::from_vec(data, &[rows, n])
    }

    /// True if all elements are finite.
    pub fn all_finite(&self) -> bool {
        self.data.iter().all(|x| x.is_finite())
    }

    /// Maximum absolute difference from another tensor.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn max_abs_diff(&self, other: &Tensor) -> f32 {
        self.assert_same_shape(other, "max_abs_diff");
        self.data
            .iter()
            .zip(&other.data)
            .map(|(&a, &b)| (a - b).abs())
            .fold(0.0, f32::max)
    }
}

impl Default for Tensor {
    fn default() -> Self {
        Tensor::scalar(0.0)
    }
}

impl std::fmt::Display for Tensor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Tensor{:?}", self.shape)?;
        if self.len() <= 8 {
            write!(f, " {:?}", self.data)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_vec_roundtrip() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        assert_eq!(t.shape(), &[2, 3]);
        assert_eq!(t.at(1, 2), 6.0);
    }

    #[test]
    #[should_panic(expected = "does not match shape")]
    fn from_vec_rejects_bad_shape() {
        Tensor::from_vec(vec![1.0, 2.0], &[3, 3]);
    }

    #[test]
    fn matmul_known_result() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
        let b = Tensor::from_vec(vec![5.0, 6.0, 7.0, 8.0], &[2, 2]);
        let c = a.matmul(&b);
        assert_eq!(c.data(), &[19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn matmul_identity_is_noop() {
        let mut rng = Rng::new(1);
        let a = Tensor::randn(&[3, 5], 1.0, &mut rng);
        let mut eye = Tensor::zeros(&[5, 5]);
        for i in 0..5 {
            eye.set(i, i, 1.0);
        }
        let c = a.matmul(&eye);
        assert!(a.max_abs_diff(&c) < 1e-6);
    }

    #[test]
    #[should_panic(expected = "inner dimensions")]
    fn matmul_rejects_mismatch() {
        let a = Tensor::zeros(&[2, 3]);
        let b = Tensor::zeros(&[4, 2]);
        let _ = a.matmul(&b);
    }

    #[test]
    fn transpose_involution() {
        let mut rng = Rng::new(2);
        let a = Tensor::randn(&[4, 7], 1.0, &mut rng);
        assert!(a.max_abs_diff(&a.transpose().transpose()) == 0.0);
    }

    #[test]
    fn softmax_rows_sum_to_one() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, -1.0, 0.0, 1.0], &[2, 3]);
        let s = t.softmax_rows();
        for i in 0..2 {
            let row_sum: f32 = (0..3).map(|j| s.at(i, j)).sum();
            assert!((row_sum - 1.0).abs() < 1e-6);
        }
    }

    #[test]
    fn softmax_is_stable_for_large_logits() {
        let t = Tensor::row(&[1000.0, 1000.0, 1000.0]);
        let s = t.softmax_rows();
        assert!(s.all_finite());
        assert!((s.at(0, 0) - 1.0 / 3.0).abs() < 1e-6);
    }

    #[test]
    fn argmax_row_picks_max() {
        let t = Tensor::from_vec(vec![0.1, 0.9, 0.0, 0.7, 0.2, 0.1], &[2, 3]);
        assert_eq!(t.argmax_row(0), 1);
        assert_eq!(t.argmax_row(1), 0);
    }

    #[test]
    fn dot_and_norms() {
        let a = Tensor::row(&[3.0, 4.0]);
        assert_eq!(a.norm_sq(), 25.0);
        assert_eq!(a.norm(), 5.0);
        let b = Tensor::row(&[1.0, 2.0]);
        assert_eq!(a.dot(&b), 11.0);
    }

    #[test]
    fn vstack_stacks() {
        let a = Tensor::row(&[1.0, 2.0]);
        let b = Tensor::row(&[3.0, 4.0]);
        let s = Tensor::vstack(&[&a, &b]);
        assert_eq!(s.shape(), &[2, 2]);
        assert_eq!(s.data(), &[1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn slice_rows_extracts() {
        let t = Tensor::from_vec((0..12).map(|x| x as f32).collect(), &[4, 3]);
        let s = t.slice_rows(1, 3);
        assert_eq!(s.shape(), &[2, 3]);
        assert_eq!(s.data(), &[3.0, 4.0, 5.0, 6.0, 7.0, 8.0]);
    }

    #[test]
    fn randn_has_roughly_unit_variance() {
        let mut rng = Rng::new(4);
        let t = Tensor::randn(&[100, 100], 1.0, &mut rng);
        let mean = t.sum() / t.len() as f32;
        let var = t.data().iter().map(|x| (x - mean).powi(2)).sum::<f32>() / t.len() as f32;
        assert!(mean.abs() < 0.02);
        assert!((var - 1.0).abs() < 0.05);
    }
}
