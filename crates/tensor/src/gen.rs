//! Random sparse matrix generators.
//!
//! These synthesize workloads with controlled size, density, and row-length
//! imbalance. They back the synthetic SuiteSparse suite used by the
//! OuterSPACE and merger experiments (§VI-C/D of the paper): each generator
//! reproduces a *class* of sparsity structure (uniform random, FEM-style
//! banded, power-law row lengths, diagonal) rather than exact matrix
//! contents.

use std::collections::HashSet;
use std::hash::{BuildHasherDefault, Hasher};

use crate::coo::CooMatrix;
use crate::csr::CsrMatrix;
use crate::dense::DenseMatrix;
use crate::rng::Rng64;

/// Returns a deterministic RNG for a given seed. All generators in this
/// module are deterministic given their seed, so experiments are exactly
/// reproducible.
fn rng(seed: u64) -> Rng64 {
    Rng64::seed_from_u64(seed)
}

fn nonzero_value(r: &mut Rng64) -> f64 {
    // Uniform in [-1, 1] excluding exact zero.
    loop {
        let v = r.range_f64(-1.0, 1.0);
        if v != 0.0 {
            return v;
        }
    }
}

/// A dense matrix with every entry random and non-zero.
pub fn dense(rows: usize, cols: usize, seed: u64) -> DenseMatrix {
    let mut r = rng(seed);
    let mut m = DenseMatrix::zeros(rows, cols);
    for i in 0..rows {
        for j in 0..cols {
            m.set(i, j, nonzero_value(&mut r));
        }
    }
    m
}

/// A uniformly random sparse matrix with (approximately) the given density.
///
/// Each entry is independently non-zero with probability `density`.
///
/// # Panics
///
/// Panics if `density` is not within `[0, 1]`.
pub fn uniform(rows: usize, cols: usize, density: f64, seed: u64) -> CsrMatrix {
    assert!((0.0..=1.0).contains(&density), "density must be in [0,1]");
    let mut r = rng(seed);
    let mut coo = CooMatrix::new(rows, cols);
    for i in 0..rows {
        for j in 0..cols {
            if r.chance(density) {
                coo.push(i, j, nonzero_value(&mut r));
            }
        }
    }
    CsrMatrix::from_coo(&coo)
}

/// A uniformly random sparse matrix with an exact non-zero count.
///
/// Used when matching the published `nnz` of a SuiteSparse matrix. Sampling
/// is rejection-based over coordinates, so `nnz` must be at most
/// `rows * cols`.
///
/// # Panics
///
/// Panics if `nnz > rows * cols`.
pub fn uniform_nnz(rows: usize, cols: usize, nnz: usize, seed: u64) -> CsrMatrix {
    assert!(nnz <= rows * cols, "nnz exceeds matrix capacity");
    let mut r = rng(seed);
    let mut coo = CooMatrix::with_capacity(rows, cols, nnz);
    let mut seen: HashSet<u64, BuildHasherDefault<CoordHasher>> =
        HashSet::with_capacity_and_hasher(nnz, Default::default());
    while seen.len() < nnz {
        let i = r.range_usize(0, rows);
        let j = r.range_usize(0, cols);
        if seen.insert((i * cols + j) as u64) {
            coo.push(i, j, nonzero_value(&mut r));
        }
    }
    CsrMatrix::from_coo(&coo)
}

/// Hashes [`uniform_nnz`]'s linearized coordinates with one SplitMix64
/// step: the keys come from the in-tree RNG, so SipHash's resistance to
/// chosen keys buys nothing.
#[derive(Default)]
struct CoordHasher(u64);

impl Hasher for CoordHasher {
    fn finish(&self) -> u64 {
        Rng64::seed_from_u64(self.0).next_u64()
    }

    fn write(&mut self, _: &[u8]) {
        unreachable!("coordinates are hashed as u64")
    }

    fn write_u64(&mut self, k: u64) {
        self.0 = k;
    }
}

/// Draws `len` distinct columns in `[0, cols)` for row `i`, pushing each
/// new one with a fresh value: the rejection loop shared by
/// [`power_law`] and [`imbalanced`]. `stamp[j] == i` marks column `j` as
/// already drawn in this row, so one array serves every row.
fn push_distinct_cols(
    r: &mut Rng64,
    coo: &mut CooMatrix,
    stamp: &mut [usize],
    i: usize,
    len: usize,
) {
    let mut drawn = 0;
    while drawn < len {
        let j = r.range_usize(0, stamp.len());
        if stamp[j] != i {
            stamp[j] = i;
            drawn += 1;
            coo.push(i, j, nonzero_value(r));
        }
    }
}

/// A banded matrix in the style of FEM/PDE discretizations (e.g.
/// `poisson3Da`): non-zeros cluster within `bandwidth` of the diagonal, with
/// approximately `avg_row_len` entries per row.
pub fn banded(n: usize, bandwidth: usize, avg_row_len: usize, seed: u64) -> CsrMatrix {
    let mut r = rng(seed);
    let mut coo = CooMatrix::with_capacity(n, n, n * avg_row_len.max(1));
    for i in 0..n {
        // Diagonal entry always present, as in FEM stiffness matrices.
        coo.push(i, i, nonzero_value(&mut r));
        let extras = avg_row_len.saturating_sub(1);
        for _ in 0..extras {
            let lo = i.saturating_sub(bandwidth);
            let hi = (i + bandwidth + 1).min(n);
            let j = r.range_usize(lo, hi);
            coo.push(i, j, nonzero_value(&mut r));
        }
    }
    CsrMatrix::from_coo(&coo)
}

/// A matrix with power-law distributed row lengths (web/social graphs such
/// as `webbase-1M`): a few very long rows and many short ones. `alpha`
/// controls skew (larger is more skewed; 1.5–2.5 is typical).
///
/// # Panics
///
/// Panics if `alpha <= 1.0`.
pub fn power_law(rows: usize, cols: usize, avg_row_len: f64, alpha: f64, seed: u64) -> CsrMatrix {
    assert!(alpha > 1.0, "alpha must exceed 1 for a finite mean");
    let mut r = rng(seed);
    let mut coo = CooMatrix::with_capacity(rows, cols, (rows as f64 * avg_row_len) as usize);
    let mut stamp = vec![usize::MAX; cols];
    // Pareto-distributed row lengths with mean scaled to avg_row_len.
    let pareto_mean = alpha / (alpha - 1.0);
    let scale = avg_row_len / pareto_mean;
    for i in 0..rows {
        let u: f64 = r.range_f64(f64::EPSILON, 1.0);
        let len = (scale * u.powf(-1.0 / alpha)).round() as usize;
        push_distinct_cols(&mut r, &mut coo, &mut stamp, i, len.min(cols));
    }
    CsrMatrix::from_coo(&coo)
}

/// A square diagonal matrix (`Skip i and k when i != k`, Listing 2 line 5).
pub fn diagonal(n: usize, seed: u64) -> CsrMatrix {
    let mut r = rng(seed);
    let mut coo = CooMatrix::with_capacity(n, n, n);
    for i in 0..n {
        coo.push(i, i, nonzero_value(&mut r));
    }
    CsrMatrix::from_coo(&coo)
}

/// A matrix with deliberately imbalanced row lengths: `heavy_rows` rows get
/// `heavy_len` non-zeros, the rest get `light_len`. This is the adversarial
/// input for load-balancing experiments (Figure 6 of the paper).
pub fn imbalanced(
    rows: usize,
    cols: usize,
    heavy_rows: usize,
    heavy_len: usize,
    light_len: usize,
    seed: u64,
) -> CsrMatrix {
    let mut r = rng(seed);
    let heavy_rows = heavy_rows.min(rows);
    let nnz = heavy_rows * heavy_len.min(cols) + (rows - heavy_rows) * light_len.min(cols);
    let mut coo = CooMatrix::with_capacity(rows, cols, nnz);
    let mut stamp = vec![usize::MAX; cols];
    for i in 0..rows {
        let len = if i < heavy_rows { heavy_len } else { light_len }.min(cols);
        push_distinct_cols(&mut r, &mut coo, &mut stamp, i, len);
    }
    CsrMatrix::from_coo(&coo)
}

/// A dense matrix whose rows satisfy the 2:4 structured-sparsity pattern,
/// for exercising the A100-style spatial array (Figure 5).
///
/// # Panics
///
/// Panics if `cols` is not a multiple of 4.
pub fn two_four(rows: usize, cols: usize, seed: u64) -> DenseMatrix {
    assert_eq!(cols % 4, 0, "cols must be a multiple of 4");
    let mut r = rng(seed);
    let mut m = DenseMatrix::zeros(rows, cols);
    for i in 0..rows {
        for g in 0..cols / 4 {
            // Choose 2 distinct positions of 4.
            let a = r.range_usize(0, 4);
            let mut b = r.range_usize(0, 4);
            while b == a {
                b = r.range_usize(0, 4);
            }
            m.set(i, g * 4 + a, nonzero_value(&mut r));
            m.set(i, g * 4 + b, nonzero_value(&mut r));
        }
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::structured::satisfies_nm;

    #[test]
    fn determinism() {
        assert_eq!(uniform(16, 16, 0.3, 7), uniform(16, 16, 0.3, 7));
        assert_ne!(uniform(16, 16, 0.3, 7), uniform(16, 16, 0.3, 8));
    }

    #[test]
    fn uniform_density_close() {
        let m = uniform(200, 200, 0.1, 42);
        let d = m.density();
        assert!((0.07..0.13).contains(&d), "density {d} too far from 0.1");
    }

    #[test]
    fn uniform_nnz_exact() {
        let m = uniform_nnz(50, 60, 123, 1);
        assert_eq!(m.nnz(), 123);
    }

    #[test]
    fn banded_stays_in_band() {
        let m = banded(100, 5, 4, 2);
        for r in 0..100usize {
            let (cols, _) = m.row(r);
            for &c in cols {
                assert!(c.abs_diff(r) <= 5, "entry ({r},{c}) outside band");
            }
        }
        // Diagonal is always present.
        assert!((0..100).all(|i| m.at(i, i) != 0.0));
    }

    #[test]
    fn power_law_is_skewed() {
        let m = power_law(500, 500, 8.0, 1.8, 3);
        let (min, max, mean) = m.row_length_stats();
        assert!(
            max >= 4 * mean as usize,
            "max {max} not skewed vs mean {mean}"
        );
        assert!(min <= mean as usize);
    }

    #[test]
    fn diagonal_structure() {
        let m = diagonal(10, 4);
        assert_eq!(m.nnz(), 10);
        for i in 0..10 {
            assert_eq!(m.row(i).0, &[i]);
        }
    }

    #[test]
    fn imbalanced_row_lengths() {
        let m = imbalanced(8, 64, 2, 32, 2, 5);
        assert_eq!(m.row_len(0), 32);
        assert_eq!(m.row_len(1), 32);
        assert_eq!(m.row_len(7), 2);
    }

    #[test]
    fn two_four_satisfies_pattern() {
        let m = two_four(8, 16, 6);
        assert!(satisfies_nm(&m, 2, 4));
        // Exactly half the entries are non-zero.
        assert_eq!(m.nnz(), 8 * 16 / 2);
    }
}
