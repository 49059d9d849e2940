//! Row-major dense matrix.

use rand::prelude::*;
use std::fmt;
use std::ops::{Index, IndexMut};

/// A dense `rows × cols` matrix of `f64`, row-major.
///
/// Row-major layout matches the dmGS data distribution (each node owns one
/// or more *rows*), so distributing a matrix over nodes is slicing, not
/// gathering.
#[derive(Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// The `rows × cols` zero matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// The `n × n` identity.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Build from row slices.
    ///
    /// # Panics
    /// Panics on ragged input.
    pub fn from_rows(rows: &[&[f64]]) -> Self {
        let r = rows.len();
        let c = rows.first().map_or(0, |x| x.len());
        let mut data = Vec::with_capacity(r * c);
        for row in rows {
            assert_eq!(row.len(), c, "ragged rows");
            data.extend_from_slice(row);
        }
        Matrix {
            rows: r,
            cols: c,
            data,
        }
    }

    /// Seeded matrix with i.i.d. uniform `[-1, 1)` entries — the "random
    /// matrices V" of the paper's Fig. 8 study.
    pub fn random_uniform(rows: usize, cols: usize, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let data = (0..rows * cols)
            .map(|_| rng.random::<f64>() * 2.0 - 1.0)
            .collect();
        Matrix { rows, cols, data }
    }

    /// Seeded nearly-dependent matrix: columns are a shared random base
    /// vector plus `spread`-scaled independent perturbations, giving a
    /// condition number of roughly `1/spread`. Used to separate
    /// numerically stable from unstable orthogonalisation (MGS vs CGS).
    pub fn random_graded(rows: usize, cols: usize, spread: f64, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let base: Vec<f64> = (0..rows).map(|_| rng.random::<f64>() * 2.0 - 1.0).collect();
        let mut m = Matrix::zeros(rows, cols);
        for j in 0..cols {
            for i in 0..rows {
                m[(i, j)] = base[i] + spread * (rng.random::<f64>() * 2.0 - 1.0);
            }
        }
        m
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Row `i` as a slice.
    pub fn row(&self, i: usize) -> &[f64] {
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Column `j` copied into a vector.
    pub fn col(&self, j: usize) -> Vec<f64> {
        (0..self.rows).map(|i| self[(i, j)]).collect()
    }

    /// The transpose.
    pub fn transpose(&self) -> Matrix {
        let mut t = Matrix::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                t[(j, i)] = self[(i, j)];
            }
        }
        t
    }

    /// Matrix product `self · rhs` with compensated inner products (the
    /// product is used for *error measurement* — `QR` in `‖V − QR‖` — so
    /// it must not add noise of its own).
    ///
    /// # Panics
    /// Panics on inner-dimension mismatch.
    pub fn matmul(&self, rhs: &Matrix) -> Matrix {
        assert_eq!(self.cols, rhs.rows, "inner dimension mismatch");
        let mut out = Matrix::zeros(self.rows, rhs.cols);
        // Transpose rhs once so inner products stream contiguously.
        let rt = rhs.transpose();
        for i in 0..self.rows {
            for j in 0..rhs.cols {
                out[(i, j)] = gr_numerics::sum::compensated_dot(self.row(i), rt.row(j));
            }
        }
        out
    }

    /// Elementwise difference `self − rhs`.
    ///
    /// # Panics
    /// Panics on shape mismatch.
    pub fn sub(&self, rhs: &Matrix) -> Matrix {
        assert_eq!(
            (self.rows, self.cols),
            (rhs.rows, rhs.cols),
            "shape mismatch"
        );
        let data = self
            .data
            .iter()
            .zip(&rhs.data)
            .map(|(a, b)| a - b)
            .collect();
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data,
        }
    }

    /// ∞-norm: maximum absolute row sum.
    pub fn norm_inf(&self) -> f64 {
        (0..self.rows)
            .map(|i| self.row(i).iter().map(|x| x.abs()).sum::<f64>())
            .fold(0.0, f64::max)
    }

    /// The flat row-major buffer.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f64;
    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        debug_assert!(i < self.rows && j < self.cols);
        &self.data[i * self.cols + j]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    #[inline]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        debug_assert!(i < self.rows && j < self.cols);
        &mut self.data[i * self.cols + j]
    }
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        for i in 0..self.rows.min(8) {
            writeln!(f, "  {:?}", self.row(i))?;
        }
        if self.rows > 8 {
            writeln!(f, "  ...")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_indexing() {
        let m = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        assert_eq!(m.rows(), 2);
        assert_eq!(m.cols(), 2);
        assert_eq!(m[(0, 1)], 2.0);
        assert_eq!(m.row(1), &[3.0, 4.0]);
        assert_eq!(m.col(0), vec![1.0, 3.0]);
    }

    #[test]
    fn identity_matmul() {
        let m = Matrix::random_uniform(4, 3, 1);
        let i = Matrix::identity(4);
        assert_eq!(i.matmul(&m), m);
    }

    #[test]
    fn matmul_known() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Matrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]);
        let c = a.matmul(&b);
        assert_eq!(c, Matrix::from_rows(&[&[19.0, 22.0], &[43.0, 50.0]]));
    }

    #[test]
    fn transpose_involution() {
        let m = Matrix::random_uniform(5, 3, 2);
        assert_eq!(m.transpose().transpose(), m);
        assert_eq!(m.transpose()[(2, 4)], m[(4, 2)]);
    }

    #[test]
    fn norms() {
        let m = Matrix::from_rows(&[&[1.0, -2.0], &[-3.0, 4.0]]);
        assert_eq!(m.norm_inf(), 7.0);
    }

    #[test]
    fn sub_and_zero() {
        let m = Matrix::random_uniform(3, 3, 3);
        let d = m.sub(&m);
        assert!(d.as_slice().iter().all(|&x| x == 0.0));
    }

    #[test]
    fn random_reproducible() {
        assert_eq!(
            Matrix::random_uniform(4, 4, 9),
            Matrix::random_uniform(4, 4, 9)
        );
        assert_ne!(
            Matrix::random_uniform(4, 4, 9),
            Matrix::random_uniform(4, 4, 10)
        );
        // entries within [-1, 1)
        let m = Matrix::random_uniform(10, 10, 11);
        assert!(m.as_slice().iter().all(|&x| (-1.0..1.0).contains(&x)));
    }

    #[test]
    #[should_panic(expected = "ragged")]
    fn ragged_rows_rejected() {
        let _ = Matrix::from_rows(&[&[1.0], &[1.0, 2.0]]);
    }

    #[test]
    #[should_panic(expected = "inner dimension")]
    fn bad_matmul_shape() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        let _ = a.matmul(&b);
    }
}
