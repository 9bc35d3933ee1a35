//! Compressed sparse row (CSR) matrices.

use std::fmt;

use crate::assemble::{compress, triples, Compressed};
use crate::coo::CooMatrix;
use crate::dense::DenseMatrix;

/// A compressed-sparse-row matrix.
///
/// In fibertree terms (§III-E of the paper), CSR is a 2-D tensor whose outer
/// (row) axis is `Dense` and whose inner (column) axis is `Compressed`: a
/// `row_ptr` array of fiber boundaries plus per-element `col_idx` coordinates
/// and values. This matches the `matrix_B_row_ids` / `matrix_B_coords` /
/// `matrix_B_data` arrays moved by the ISA example in Listing 7.
///
/// # Examples
///
/// ```
/// use stellar_tensor::{CsrMatrix, DenseMatrix};
///
/// let d = DenseMatrix::from_rows(&[&[0.0, 5.0], &[7.0, 0.0]]);
/// let m = CsrMatrix::from_dense(&d);
/// assert_eq!(m.row(0), (&[1][..], &[5.0][..]));
/// assert_eq!(m.row(1), (&[0][..], &[7.0][..]));
/// ```
#[derive(Clone, PartialEq)]
pub struct CsrMatrix {
    rows: usize,
    cols: usize,
    row_ptr: Vec<usize>,
    col_idx: Vec<usize>,
    values: Vec<f64>,
}

impl CsrMatrix {
    /// Builds from raw CSR arrays.
    ///
    /// # Panics
    ///
    /// Panics if the arrays are inconsistent: `row_ptr` must have
    /// `rows + 1` monotone entries ending at `col_idx.len()`, `col_idx` and
    /// `values` must have equal lengths, every column index must be in range,
    /// and column indices must be strictly increasing within each row.
    pub fn from_raw(
        rows: usize,
        cols: usize,
        row_ptr: Vec<usize>,
        col_idx: Vec<usize>,
        values: Vec<f64>,
    ) -> CsrMatrix {
        assert_eq!(row_ptr.len(), rows + 1, "row_ptr must have rows+1 entries");
        assert_eq!(
            col_idx.len(),
            values.len(),
            "col_idx/values length mismatch"
        );
        assert_eq!(
            *row_ptr.last().unwrap(),
            col_idx.len(),
            "row_ptr must end at nnz"
        );
        assert_eq!(row_ptr[0], 0, "row_ptr must start at 0");
        for r in 0..rows {
            assert!(row_ptr[r] <= row_ptr[r + 1], "row_ptr must be monotone");
            let fiber = &col_idx[row_ptr[r]..row_ptr[r + 1]];
            for w in fiber.windows(2) {
                assert!(w[0] < w[1], "column indices must be strictly increasing");
            }
            for &c in fiber {
                assert!(c < cols, "column index out of bounds");
            }
        }
        CsrMatrix {
            rows,
            cols,
            row_ptr,
            col_idx,
            values,
        }
    }

    /// Builds from a dense matrix.
    pub fn from_dense(d: &DenseMatrix) -> CsrMatrix {
        CsrMatrix::from_coo(&CooMatrix::from_dense(d))
    }

    /// Builds from a COO matrix (duplicates summed in insertion order, zeros
    /// dropped) in O(nnz + rows).
    pub fn from_coo(coo: &CooMatrix) -> CsrMatrix {
        CsrMatrix::from_compressed(coo.rows(), coo.cols(), compress(coo.rows(), coo.iter()))
    }

    pub(crate) fn from_compressed(rows: usize, cols: usize, c: Compressed) -> CsrMatrix {
        CsrMatrix {
            rows,
            cols,
            row_ptr: c.ptr,
            col_idx: c.idx,
            values: c.vals,
        }
    }

    /// The stored `(row, col, value)` triples in row-major order.
    pub(crate) fn triples(&self) -> impl Iterator<Item = (usize, usize, f64)> + Clone + '_ {
        triples(&self.row_ptr, &self.col_idx, &self.values)
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

    /// Density in `[0, 1]`.
    pub fn density(&self) -> f64 {
        if self.rows == 0 || self.cols == 0 {
            0.0
        } else {
            self.nnz() as f64 / (self.rows * self.cols) as f64
        }
    }

    /// The compressed fiber of row `r`: `(column indices, values)`.
    ///
    /// # Panics
    ///
    /// Panics if `r` is out of bounds.
    pub fn row(&self, r: usize) -> (&[usize], &[f64]) {
        assert!(r < self.rows, "row index out of bounds");
        let lo = self.row_ptr[r];
        let hi = self.row_ptr[r + 1];
        (&self.col_idx[lo..hi], &self.values[lo..hi])
    }

    /// Number of stored entries in row `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r` is out of bounds.
    pub fn row_len(&self, r: usize) -> usize {
        assert!(r < self.rows, "row index out of bounds");
        self.row_ptr[r + 1] - self.row_ptr[r]
    }

    /// The raw `row_ptr` array.
    pub fn row_ptr(&self) -> &[usize] {
        &self.row_ptr
    }

    /// The raw column-index array.
    pub fn col_idx(&self) -> &[usize] {
        &self.col_idx
    }

    /// The raw values array.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Reads `A[r][c]`, returning 0.0 for unstored entries.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    pub fn at(&self, r: usize, c: usize) -> f64 {
        assert!(c < self.cols, "column index out of bounds");
        let (cols, vals) = self.row(r);
        match cols.binary_search(&c) {
            Ok(k) => vals[k],
            Err(_) => 0.0,
        }
    }

    /// Expands to a dense matrix.
    pub fn to_dense(&self) -> DenseMatrix {
        let mut d = DenseMatrix::zeros(self.rows, self.cols);
        for r in 0..self.rows {
            let (cols, vals) = self.row(r);
            for (&c, &v) in cols.iter().zip(vals) {
                d.set(r, c, v);
            }
        }
        d
    }

    /// Converts to COO.
    pub fn to_coo(&self) -> CooMatrix {
        let mut coo = CooMatrix::with_capacity(self.rows, self.cols, self.nnz());
        for (r, c, v) in self.triples() {
            coo.push(r, c, v);
        }
        coo
    }

    /// The transpose (equivalently: reinterprets this CSR as CSC of Aᵀ), in
    /// O(nnz + rows + cols). Explicit zeros are dropped.
    pub fn transpose(&self) -> CsrMatrix {
        let t = self.triples().map(|(r, c, v)| (c, r, v));
        CsrMatrix::from_compressed(self.cols, self.rows, compress(self.cols, t))
    }

    /// Sparse matrix × dense vector.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.cols()`.
    pub fn spmv(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.cols, "vector length mismatch");
        (0..self.rows)
            .map(|r| {
                let (cols, vals) = self.row(r);
                cols.iter().zip(vals).map(|(&c, &v)| v * x[c]).sum()
            })
            .collect()
    }

    /// Statistics on row lengths: `(min, max, mean)`. Row-length imbalance is
    /// what load balancers (§III-D) and row-partitioned mergers (§VI-D) are
    /// sensitive to.
    pub fn row_length_stats(&self) -> (usize, usize, f64) {
        if self.rows == 0 {
            return (0, 0, 0.0);
        }
        let lens: Vec<usize> = (0..self.rows).map(|r| self.row_len(r)).collect();
        let min = *lens.iter().min().unwrap();
        let max = *lens.iter().max().unwrap();
        let mean = lens.iter().sum::<usize>() as f64 / lens.len() as f64;
        (min, max, mean)
    }
}

impl fmt::Debug for CsrMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "CsrMatrix({}x{}, nnz={})",
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
        DenseMatrix::from_rows(&[
            &[1.0, 0.0, 2.0, 0.0],
            &[0.0, 0.0, 0.0, 0.0],
            &[0.0, 3.0, 0.0, 4.0],
        ])
    }

    #[test]
    fn dense_round_trip() {
        let d = sample();
        let m = CsrMatrix::from_dense(&d);
        assert_eq!(m.nnz(), 4);
        assert_eq!(m.to_dense(), d);
    }

    #[test]
    fn row_access() {
        let m = CsrMatrix::from_dense(&sample());
        assert_eq!(m.row(0), (&[0, 2][..], &[1.0, 2.0][..]));
        assert_eq!(m.row(1), (&[][..], &[][..]));
        assert_eq!(m.row_len(2), 2);
        assert_eq!(m.at(2, 3), 4.0);
        assert_eq!(m.at(2, 2), 0.0);
    }

    #[test]
    fn transpose_matches_dense() {
        let d = sample();
        let m = CsrMatrix::from_dense(&d);
        assert_eq!(m.transpose().to_dense(), d.transpose());
    }

    #[test]
    fn spmv_matches_dense() {
        let d = sample();
        let m = CsrMatrix::from_dense(&d);
        let x = [1.0, 2.0, 3.0, 4.0];
        let y = m.spmv(&x);
        for (r, &yr) in y.iter().enumerate() {
            let expect: f64 = (0..4).map(|c| d.at(r, c) * x[c]).sum();
            assert_eq!(yr, expect);
        }
    }

    #[test]
    fn row_length_stats() {
        let m = CsrMatrix::from_dense(&sample());
        assert_eq!(m.row_length_stats(), (0, 2, 4.0 / 3.0));
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn from_raw_rejects_unsorted() {
        let _ = CsrMatrix::from_raw(1, 3, vec![0, 2], vec![2, 1], vec![1.0, 2.0]);
    }

    #[test]
    #[should_panic(expected = "row_ptr must end at nnz")]
    fn from_raw_rejects_bad_ptr() {
        let _ = CsrMatrix::from_raw(1, 3, vec![0, 3], vec![1, 2], vec![1.0, 2.0]);
    }
}
