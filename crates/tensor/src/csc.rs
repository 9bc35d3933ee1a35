//! Compressed sparse column (CSC) matrices.

use std::fmt;

use crate::assemble::{compress, triples, Compressed};
use crate::coo::CooMatrix;
use crate::csr::CsrMatrix;
use crate::dense::DenseMatrix;

/// A compressed-sparse-column matrix.
///
/// The column-major dual of [`CsrMatrix`]: the outer (column) axis is
/// `Dense`, the inner (row) axis is `Compressed`. Listing 2 of the paper
/// expresses an `A*B=C` kernel with `A` in CSC (`Skip i when A(i,k)==0`,
/// skipping along columns) and `B` in CSR. Outer-product SpGEMM accelerators
/// such as OuterSPACE stream the columns of `A` from CSC.
///
/// # Examples
///
/// ```
/// use stellar_tensor::{CscMatrix, DenseMatrix};
///
/// let d = DenseMatrix::from_rows(&[&[0.0, 5.0], &[7.0, 0.0]]);
/// let m = CscMatrix::from_dense(&d);
/// assert_eq!(m.col(0), (&[1][..], &[7.0][..]));
/// assert_eq!(m.col(1), (&[0][..], &[5.0][..]));
/// ```
#[derive(Clone, PartialEq)]
pub struct CscMatrix {
    rows: usize,
    cols: usize,
    col_ptr: Vec<usize>,
    row_idx: Vec<usize>,
    values: Vec<f64>,
}

impl CscMatrix {
    /// Builds from a dense matrix.
    pub fn from_dense(d: &DenseMatrix) -> CscMatrix {
        CscMatrix::from_coo(&CooMatrix::from_dense(d))
    }

    /// Builds from a COO matrix (duplicates summed in insertion order, zeros
    /// dropped) in O(nnz + cols).
    pub fn from_coo(coo: &CooMatrix) -> CscMatrix {
        let t = coo.iter().map(|(r, c, v)| (c, r, v));
        CscMatrix::from_compressed(coo.rows(), coo.cols(), compress(coo.cols(), t))
    }

    /// Builds from a CSR matrix in O(nnz + cols). Explicit zeros are
    /// dropped.
    pub fn from_csr(csr: &CsrMatrix) -> CscMatrix {
        let t = csr.triples().map(|(r, c, v)| (c, r, v));
        CscMatrix::from_compressed(csr.rows(), csr.cols(), compress(csr.cols(), t))
    }

    /// Builds the CSC of `A` from the CSR of `Aᵀ` (the same three arrays,
    /// read column-major) in O(nnz + cols). Explicit zeros are dropped.
    pub fn from_transposed_csr(t: &CsrMatrix) -> CscMatrix {
        CscMatrix::from_compressed(t.cols(), t.rows(), compress(t.rows(), t.triples()))
    }

    fn from_compressed(rows: usize, cols: usize, c: Compressed) -> CscMatrix {
        CscMatrix {
            rows,
            cols,
            col_ptr: c.ptr,
            row_idx: c.idx,
            values: c.vals,
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of stored non-zeros.
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// The compressed fiber of column `c`: `(row indices, values)`.
    ///
    /// # Panics
    ///
    /// Panics if `c` is out of bounds.
    pub fn col(&self, c: usize) -> (&[usize], &[f64]) {
        assert!(c < self.cols, "column index out of bounds");
        let lo = self.col_ptr[c];
        let hi = self.col_ptr[c + 1];
        (&self.row_idx[lo..hi], &self.values[lo..hi])
    }

    /// Number of stored entries in column `c`.
    ///
    /// # Panics
    ///
    /// Panics if `c` is out of bounds.
    pub fn col_len(&self, c: usize) -> usize {
        assert!(c < self.cols, "column index out of bounds");
        self.col_ptr[c + 1] - self.col_ptr[c]
    }

    /// The raw `col_ptr` array.
    pub fn col_ptr(&self) -> &[usize] {
        &self.col_ptr
    }

    /// The raw row-index array.
    pub fn row_idx(&self) -> &[usize] {
        &self.row_idx
    }

    /// The raw values array.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Expands to a dense matrix.
    pub fn to_dense(&self) -> DenseMatrix {
        let mut d = DenseMatrix::zeros(self.rows, self.cols);
        for c in 0..self.cols {
            let (rows, vals) = self.col(c);
            for (&r, &v) in rows.iter().zip(vals) {
                d.set(r, c, v);
            }
        }
        d
    }

    /// Converts to CSR in O(nnz + rows).
    pub fn to_csr(&self) -> CsrMatrix {
        let t = triples(&self.col_ptr, &self.row_idx, &self.values).map(|(c, r, v)| (r, c, v));
        CsrMatrix::from_compressed(self.rows, self.cols, compress(self.rows, t))
    }
}

impl fmt::Debug for CscMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "CscMatrix({}x{}, nnz={})",
            self.rows,
            self.cols,
            self.nnz()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> DenseMatrix {
        DenseMatrix::from_rows(&[&[1.0, 0.0, 2.0], &[0.0, 3.0, 0.0], &[4.0, 0.0, 5.0]])
    }

    #[test]
    fn dense_round_trip() {
        let d = sample();
        let m = CscMatrix::from_dense(&d);
        assert_eq!(m.nnz(), 5);
        assert_eq!(m.to_dense(), d);
    }

    #[test]
    fn col_access() {
        let m = CscMatrix::from_dense(&sample());
        assert_eq!(m.col(0), (&[0, 2][..], &[1.0, 4.0][..]));
        assert_eq!(m.col_len(1), 1);
    }

    #[test]
    fn csr_csc_round_trip() {
        let d = sample();
        let csr = CsrMatrix::from_dense(&d);
        let csc = CscMatrix::from_csr(&csr);
        assert_eq!(csc.to_csr().to_dense(), d);
    }
}
