//! Coordinate-list (COO) sparse matrices.

use std::fmt;

use crate::assemble::{compress, triples};
use crate::dense::DenseMatrix;

/// A coordinate-list sparse matrix: an unordered bag of `(row, col, value)`
/// triples.
///
/// COO is the interchange format in this crate: generators produce COO, and
/// the structured formats ([`CsrMatrix`], [`CscMatrix`], [`BcsrMatrix`],
/// [`FiberTree`]) are built from it. It is also the natural representation of
/// the *scattered partial matrices* produced by outer-product SpGEMM
/// accelerators (§VI-C/D of the paper) before merging.
///
/// [`CsrMatrix`]: crate::CsrMatrix
/// [`CscMatrix`]: crate::CscMatrix
/// [`BcsrMatrix`]: crate::BcsrMatrix
/// [`FiberTree`]: crate::FiberTree
///
/// # Examples
///
/// ```
/// use stellar_tensor::CooMatrix;
///
/// let mut m = CooMatrix::new(2, 2);
/// m.push(0, 1, 3.0);
/// m.push(1, 0, 4.0);
/// assert_eq!(m.nnz(), 2);
/// ```
#[derive(Clone, PartialEq)]
pub struct CooMatrix {
    rows: usize,
    cols: usize,
    entries: Vec<(usize, usize, f64)>,
}

impl CooMatrix {
    /// An empty matrix of the given shape.
    pub fn new(rows: usize, cols: usize) -> CooMatrix {
        CooMatrix {
            rows,
            cols,
            entries: Vec::new(),
        }
    }

    /// An empty matrix with room for `capacity` entries.
    pub fn with_capacity(rows: usize, cols: usize, capacity: usize) -> CooMatrix {
        CooMatrix {
            rows,
            cols,
            entries: Vec::with_capacity(capacity),
        }
    }

    /// Appends an entry. Duplicate coordinates are allowed and are summed by
    /// [`CooMatrix::compact`] and by conversions.
    ///
    /// # Panics
    ///
    /// Panics if the coordinate is out of bounds.
    pub fn push(&mut self, r: usize, c: usize, v: f64) {
        assert!(r < self.rows && c < self.cols, "coordinate out of bounds");
        self.entries.push((r, c, v));
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of stored entries (including duplicates and explicit zeros).
    pub fn nnz(&self) -> usize {
        self.entries.len()
    }

    /// Iterates over the stored `(row, col, value)` triples.
    pub fn iter(&self) -> impl Iterator<Item = (usize, usize, f64)> + Clone + '_ {
        self.entries.iter().copied()
    }

    /// Sorts entries row-major, sums duplicates (in insertion order), and
    /// drops explicit zeros, in O(nnz + rows).
    pub fn compact(&mut self) {
        let c = compress(self.rows, self.iter());
        self.entries = triples(&c.ptr, &c.idx, &c.vals).collect();
    }

    /// Builds from a dense matrix, keeping the non-zero entries.
    pub fn from_dense(d: &DenseMatrix) -> CooMatrix {
        let mut m = CooMatrix::new(d.rows(), d.cols());
        for r in 0..d.rows() {
            for c in 0..d.cols() {
                let v = d.at(r, c);
                if v != 0.0 {
                    m.push(r, c, v);
                }
            }
        }
        m
    }

    /// Expands to a dense matrix, summing duplicate coordinates.
    pub fn to_dense(&self) -> DenseMatrix {
        let mut d = DenseMatrix::zeros(self.rows, self.cols);
        for &(r, c, v) in &self.entries {
            d.set(r, c, d.at(r, c) + v);
        }
        d
    }

    /// Length of each row, after summing duplicates and dropping zeros.
    pub fn row_lengths(&self) -> Vec<usize> {
        let c = compress(self.rows, self.iter());
        c.ptr.windows(2).map(|w| w[1] - w[0]).collect()
    }
}

impl fmt::Debug for CooMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "CooMatrix({}x{}, nnz={})",
            self.rows,
            self.cols,
            self.entries.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compact_merges_duplicates_and_drops_zeros() {
        let mut m = CooMatrix::new(3, 3);
        m.push(1, 1, 2.0);
        m.push(0, 0, 1.0);
        m.push(1, 1, 3.0);
        m.push(2, 2, 5.0);
        m.push(2, 2, -5.0);
        m.compact();
        assert_eq!(m.nnz(), 2);
        let entries: Vec<_> = m.iter().collect();
        assert_eq!(entries, vec![(0, 0, 1.0), (1, 1, 5.0)]);
    }

    #[test]
    fn dense_round_trip() {
        let d = DenseMatrix::from_rows(&[&[0.0, 1.0], &[2.0, 0.0]]);
        let coo = CooMatrix::from_dense(&d);
        assert_eq!(coo.nnz(), 2);
        assert_eq!(coo.to_dense(), d);
    }

    #[test]
    fn duplicates_sum_in_to_dense() {
        let mut m = CooMatrix::new(1, 1);
        m.push(0, 0, 1.5);
        m.push(0, 0, 2.5);
        assert_eq!(m.to_dense().at(0, 0), 4.0);
    }

    #[test]
    fn row_lengths_counts_unique() {
        let mut m = CooMatrix::new(2, 4);
        m.push(0, 0, 1.0);
        m.push(0, 0, 1.0);
        m.push(0, 1, 1.0);
        m.push(1, 3, 1.0);
        assert_eq!(m.row_lengths(), vec![2, 1]);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn push_bounds_checked() {
        let mut m = CooMatrix::new(1, 1);
        m.push(0, 1, 1.0);
    }
}
