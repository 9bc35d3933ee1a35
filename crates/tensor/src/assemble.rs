//! The one sparse assembly kernel behind every format conversion.
//!
//! COO → CSR, COO compaction, COO/CSR → CSC, CSC → CSR and the CSR
//! transpose all reduce to the same job: bucket `(major, minor, value)`
//! triples into compressed fibers along the major axis, sort each fiber by
//! minor index, sum duplicate coordinates and drop zeros. This does it in
//! O(nnz + majors), plus a sort of each fiber that arrives out of order
//! (none does in a transpose).
//!
//! Both sorts are stable, so duplicates are summed in insertion order:
//! the floating-point sums are exactly those of a stable row-major sort of
//! the whole triple list followed by a left-to-right running sum.

/// Compressed fibers along a major axis: `ptr` has `majors + 1` monotone
/// entries; fiber `m` is `idx[ptr[m]..ptr[m + 1]]` (strictly increasing
/// minor indices) with the matching `vals` (all non-zero).
pub(crate) struct Compressed {
    pub(crate) ptr: Vec<usize>,
    pub(crate) idx: Vec<usize>,
    pub(crate) vals: Vec<f64>,
}

/// Assembles `(major, minor, value)` triples into [`Compressed`] fibers:
/// a stable counting sort by major index, a stable per-fiber sort by minor
/// index, duplicates summed in insertion order, zeros dropped after
/// summing. The iterator is walked twice (count, then scatter).
///
/// Every major index must be below `majors`.
pub(crate) fn compress<I>(majors: usize, triples: I) -> Compressed
where
    I: Iterator<Item = (usize, usize, f64)> + Clone,
{
    let mut ptr = vec![0usize; majors + 1];
    for (m, _, _) in triples.clone() {
        ptr[m + 1] += 1;
    }
    for m in 0..majors {
        ptr[m + 1] += ptr[m];
    }
    let nnz = ptr[majors];
    let mut next = ptr[..majors].to_vec();
    let mut idx = vec![0usize; nnz];
    let mut vals = vec![0.0f64; nnz];
    for (m, n, v) in triples {
        let p = next[m];
        idx[p] = n;
        vals[p] = v;
        next[m] = p + 1;
    }
    drop(next);

    // Normalize each fiber in place; the write cursor `w` never passes the
    // read cursor `e`.
    let mut unsorted: Vec<(usize, f64)> = Vec::new();
    let mut w = 0;
    let mut e = 0;
    for m in 0..majors {
        let hi = ptr[m + 1];
        if !idx[e..hi].is_sorted() {
            unsorted.clear();
            unsorted.extend(idx[e..hi].iter().copied().zip(vals[e..hi].iter().copied()));
            unsorted.sort_by_key(|x| x.0);
            for (k, &(n, v)) in unsorted.iter().enumerate() {
                idx[e + k] = n;
                vals[e + k] = v;
            }
        }
        while e < hi {
            let n = idx[e];
            let mut sum = vals[e];
            e += 1;
            while e < hi && idx[e] == n {
                sum += vals[e];
                e += 1;
            }
            if sum != 0.0 {
                idx[w] = n;
                vals[w] = sum;
                w += 1;
            }
        }
        ptr[m + 1] = w;
    }
    idx.truncate(w);
    vals.truncate(w);
    Compressed { ptr, idx, vals }
}

/// The `(major, minor, value)` triples of compressed arrays, fiber by
/// fiber.
pub(crate) fn triples<'a>(
    ptr: &'a [usize],
    idx: &'a [usize],
    vals: &'a [f64],
) -> impl Iterator<Item = (usize, usize, f64)> + Clone + 'a {
    ptr.windows(2)
        .enumerate()
        .flat_map(move |(m, w)| (w[0]..w[1]).map(move |e| (m, idx[e], vals[e])))
}
