//! Equivalence of the O(nnz) assembly kernel behind every format conversion
//! with the sort-based path it replaced: a stable row-major sort of the
//! whole triple list, a left-to-right running sum over equal coordinates,
//! then dropping zeros. Values are compared bit for bit, so a change in
//! duplicate summation order fails here.

use stellar_tensor::{CooMatrix, CscMatrix, CsrMatrix, Rng64};

type Triple = (usize, usize, f64);

/// The replaced conversion: stable sort by `(major, minor)`, sum
/// duplicates in order, drop zeros.
fn oracle(mut t: Vec<Triple>) -> Vec<Triple> {
    t.sort_by_key(|e| (e.0, e.1));
    let mut out: Vec<Triple> = Vec::with_capacity(t.len());
    for (a, b, v) in t {
        match out.last_mut() {
            Some(last) if last.0 == a && last.1 == b => last.2 += v,
            _ => out.push((a, b, v)),
        }
    }
    out.retain(|e| e.2 != 0.0);
    out
}

fn flip(t: &[Triple]) -> Vec<Triple> {
    t.iter().map(|&(r, c, v)| (c, r, v)).collect()
}

fn bits(t: &[Triple]) -> Vec<(usize, usize, u64)> {
    t.iter().map(|&(a, b, v)| (a, b, v.to_bits())).collect()
}

/// Compressed arrays unrolled to `(major, minor, value)` triples.
fn unroll(ptr: &[usize], idx: &[usize], vals: &[f64]) -> Vec<Triple> {
    assert_eq!(ptr[0], 0);
    assert_eq!(*ptr.last().unwrap(), idx.len());
    assert_eq!(idx.len(), vals.len());
    let mut out = Vec::new();
    for m in 0..ptr.len() - 1 {
        for e in ptr[m]..ptr[m + 1] {
            out.push((m, idx[e], vals[e]));
        }
    }
    out
}

fn csr_triples(m: &CsrMatrix) -> Vec<Triple> {
    assert_eq!(m.row_ptr().len(), m.rows() + 1);
    unroll(m.row_ptr(), m.col_idx(), m.values())
}

/// Column-major `(col, row, value)` triples of a CSC.
fn csc_triples(m: &CscMatrix) -> Vec<Triple> {
    assert_eq!(m.col_ptr().len(), m.cols() + 1);
    unroll(m.col_ptr(), m.row_idx(), m.values())
}

fn coo_of(rows: usize, cols: usize, t: &[Triple]) -> CooMatrix {
    let mut m = CooMatrix::new(rows, cols);
    for &(r, c, v) in t {
        m.push(r, c, v);
    }
    m
}

/// Checks every conversion of `t` (row-major triples of a `rows × cols`
/// matrix) against the oracle.
fn check_all(rows: usize, cols: usize, t: &[Triple]) {
    let want_rm = oracle(t.to_vec());
    let want_cm = oracle(flip(t));
    let coo = coo_of(rows, cols, t);

    let csr = CsrMatrix::from_coo(&coo);
    assert_eq!((csr.rows(), csr.cols()), (rows, cols));
    assert_eq!(
        bits(&csr_triples(&csr)),
        bits(&want_rm),
        "CsrMatrix::from_coo"
    );

    let mut compacted = coo.clone();
    compacted.compact();
    let got: Vec<Triple> = compacted.iter().collect();
    assert_eq!(bits(&got), bits(&want_rm), "CooMatrix::compact");

    let lens = coo.row_lengths();
    assert_eq!(lens.len(), rows);
    for (r, &len) in lens.iter().enumerate() {
        assert_eq!(len, want_rm.iter().filter(|e| e.0 == r).count(), "row {r}");
    }

    let csc = CscMatrix::from_coo(&coo);
    assert_eq!((csc.rows(), csc.cols()), (rows, cols));
    assert_eq!(
        bits(&csc_triples(&csc)),
        bits(&want_cm),
        "CscMatrix::from_coo"
    );

    let csc = CscMatrix::from_csr(&csr);
    assert_eq!(
        bits(&csc_triples(&csc)),
        bits(&want_cm),
        "CscMatrix::from_csr"
    );

    let back = csc.to_csr();
    assert_eq!(
        bits(&csr_triples(&back)),
        bits(&want_rm),
        "CscMatrix::to_csr"
    );

    let t_csr = csr.transpose();
    assert_eq!((t_csr.rows(), t_csr.cols()), (cols, rows));
    assert_eq!(
        bits(&csr_triples(&t_csr)),
        bits(&want_cm),
        "CsrMatrix::transpose"
    );
}

#[test]
fn order_sensitive_duplicates_sum_in_insertion_order() {
    // (0.1 + 0.2) + 0.3 != 0.1 + (0.2 + 0.3), and 1 + 1e16 - 1e16 == 0
    // while 1e16 - 1e16 + 1 == 1: only insertion order gives these sums.
    let t = vec![
        (1, 2, 0.1),
        (0, 0, 5.0),
        (1, 2, 0.2),
        (2, 1, 1.0),
        (1, 2, 0.3),
        (2, 1, 1e16),
        (1, 0, 1e16),
        (2, 1, -1e16),
        (1, 0, -1e16),
        (1, 0, 1.0),
    ];
    let want = oracle(t.clone());
    assert_eq!(want[1], (1, 0, 1.0));
    assert_eq!(want[2], (1, 2, 0.1 + 0.2 + 0.3));
    assert_ne!(0.1 + 0.2 + 0.3, 0.1 + (0.2 + 0.3));
    assert!(want.iter().all(|e| e.0 != 2), "(2,1) cancels to zero");
    check_all(3, 4, &t);
}

#[test]
fn explicit_zeros_cancellation_and_empty_fibers() {
    let t = vec![
        (0, 3, 0.0),
        (4, 0, 2.0),
        (4, 0, -2.0),
        (2, 2, -0.0),
        (2, 5, 7.0),
        (2, 5, 0.0),
        (4, 5, 1.5),
        (2, 3, 3.0),
        (2, 3, -1.0),
        (2, 3, -2.0),
    ];
    // Rows 0, 1, 3 and 5 end up empty, as do all columns but 5.
    check_all(6, 6, &t);
    let csr = CsrMatrix::from_coo(&coo_of(6, 6, &t));
    assert_eq!(csr.nnz(), 2);
    assert_eq!(csr.row_ptr(), &[0, 0, 0, 1, 1, 2, 2]);
    // Degenerate shapes.
    check_all(0, 0, &[]);
    check_all(3, 0, &[]);
    check_all(0, 2, &[]);
    check_all(4, 4, &[]);
}

#[test]
fn random_triples_match_the_sort_based_path() {
    // Few coordinates and a value pool of order-sensitive magnitudes, so
    // most coordinates repeat three or more times.
    let pool = [0.1, 0.2, 0.3, 1e16, -1e16, 1.0, -1.0, 0.0, 2.5e-8, -0.7];
    let mut rng = Rng64::seed_from_u64(17);
    let mut most_repeats = 0.0f64;
    for _ in 0..200 {
        let rows = rng.range_usize(1, 9);
        let cols = rng.range_usize(1, 9);
        let n = rng.range_usize(0, 3 * rows * cols + 1);
        let t: Vec<Triple> = (0..n)
            .map(|_| {
                let r = rng.range_usize(0, rows);
                let c = rng.range_usize(0, cols);
                (r, c, pool[rng.range_usize(0, pool.len())])
            })
            .collect();
        let repeats = oracle(t.iter().map(|&(r, c, _)| (r, c, 1.0)).collect());
        most_repeats = repeats.iter().fold(most_repeats, |m, e| m.max(e.2));
        check_all(rows, cols, &t);
    }
    assert!(
        most_repeats >= 3.0,
        "expected a coordinate repeated 3+ times"
    );
}

#[test]
fn raw_csr_with_explicit_zeros_normalizes_like_the_sort_based_path() {
    // Sorted, duplicate-free fibers as `from_raw` requires, with stored
    // zeros: every conversion out of it drops them.
    let row_ptr = vec![0, 3, 3, 5, 6];
    let col_idx = vec![0, 2, 4, 1, 2, 3];
    let values = vec![1.0, 0.0, -3.0, 0.0, 2.0, -0.0];
    let csr = CsrMatrix::from_raw(4, 5, row_ptr.clone(), col_idx.clone(), values.clone());
    let t = unroll(&row_ptr, &col_idx, &values);
    let want_rm = oracle(t.clone());
    let want_cm = oracle(flip(&t));
    assert_eq!(want_rm.len(), 3);

    let csc = CscMatrix::from_csr(&csr);
    assert_eq!(bits(&csc_triples(&csc)), bits(&want_cm), "from_csr");
    assert_eq!(bits(&csr_triples(&csc.to_csr())), bits(&want_rm), "to_csr");
    assert_eq!(
        bits(&csr_triples(&csr.transpose())),
        bits(&want_cm),
        "transpose"
    );

    // Read as the CSR of the transpose, the same arrays give the CSC of a
    // 5 × 4 matrix: exactly what transpose-then-from_csr produced.
    let csc_t = CscMatrix::from_transposed_csr(&csr);
    assert_eq!((csc_t.rows(), csc_t.cols()), (5, 4));
    assert_eq!(
        bits(&csc_triples(&csc_t)),
        bits(&want_rm),
        "from_transposed_csr"
    );
    let old = CscMatrix::from_csr(&csr.transpose());
    assert_eq!(csc_t, old);
}
