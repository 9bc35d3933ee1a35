//! The merger comparison of §VI-D (Figure 18): row-partitioned
//! (GAMMA-like, throughput 32) vs flattened (SpArch-like, throughput 16)
//! mergers, merging partial matrices in SpArch's proposed execution order.
//!
//! SpArch's loop order condenses `A`'s columns and merges the partial
//! matrices produced by *consecutive groups* of columns; these "many small
//! partial matrices ... can have highly imbalanced row-lengths", which is
//! exactly what hurts the cheaper row-partitioned merger.

use stellar_sim::{FlattenedMerger, MergeStats, Merger, RowPartitionedMerger, SimError};
use stellar_tensor::ops::Fiber;
use stellar_tensor::{CscMatrix, CsrMatrix};
use stellar_workloads::SuiteMatrix;

/// Per-matrix comparison result: the y-values of one Figure 18 column.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MergerComparison {
    /// Merged elements per cycle on the 32-lane row-partitioned merger.
    pub row_partitioned_epc: f64,
    /// Merged elements per cycle on the 16-wide flattened merger.
    pub flattened_epc: f64,
}

impl MergerComparison {
    /// Row-partitioned performance relative to flattened.
    pub fn relative(&self) -> f64 {
        if self.flattened_epc == 0.0 {
            0.0
        } else {
            self.row_partitioned_epc / self.flattened_epc
        }
    }
}

/// Produces the merge batches for `A·A` in SpArch's execution order:
/// partial matrices from consecutive groups of `ways` columns are merged
/// together, group by group.
///
/// Each batch holds, per output row, one fiber per partial matrix reaching
/// that row: column `k` of `A` times row `k`, exactly-zero products
/// dropped. Groups are taken over the `k` whose column and row are both
/// non-empty: the partial matrices
/// [`spgemm_outer_partials`](stellar_tensor::ops::spgemm_outer_partials)
/// emits.
///
/// # Panics
///
/// Panics if `a` is not square.
pub fn sparch_merge_batches(a: &CsrMatrix, ways: usize) -> Vec<Vec<Vec<Fiber>>> {
    assert_eq!(a.cols(), a.rows(), "inner dimensions must agree");
    let a_csc = CscMatrix::from_csr(a);
    let ks: Vec<usize> = (0..a.cols())
        .filter(|&k| a_csc.col_len(k) > 0 && a.row_len(k) > 0)
        .collect();
    ks.chunks(ways.max(1))
        .map(|group| {
            let mut rows: Vec<Vec<Fiber>> = vec![Vec::new(); a.rows()];
            for &k in group {
                let (is, avs) = a_csc.col(k);
                let (js, bvs) = a.row(k);
                for (&i, &av) in is.iter().zip(avs) {
                    let mut coords = Vec::with_capacity(js.len());
                    let mut values = Vec::with_capacity(js.len());
                    for (&j, &bv) in js.iter().zip(bvs) {
                        let p = av * bv;
                        if p != 0.0 {
                            coords.push(j);
                            values.push(p);
                        }
                    }
                    if !coords.is_empty() {
                        rows[i].push(Fiber::new(coords, values));
                    }
                }
            }
            rows
        })
        .collect()
}

/// Runs both mergers over all batches of one matrix.
///
/// # Errors
///
/// Returns [`SimError`] if a batch exceeds the merger's cycle budget.
pub fn compare_mergers(a: &CsrMatrix, ways: usize) -> Result<MergerComparison, SimError> {
    let batches = sparch_merge_batches(a, ways);
    let rp = RowPartitionedMerger::paper_config();
    let fl = FlattenedMerger::paper_config();
    let run = |m: &dyn Merger| -> Result<f64, SimError> {
        let mut total = MergeStats::default();
        for batch in &batches {
            let s = m.simulate(batch)?;
            total.cycles += s.cycles;
            total.merged_elements += s.merged_elements;
        }
        Ok(total.elements_per_cycle())
    };
    Ok(MergerComparison {
        row_partitioned_epc: run(&rp)?,
        flattened_epc: run(&fl)?,
    })
}

/// Runs the comparison on a synthetic SuiteSparse instance.
///
/// # Errors
///
/// Returns [`SimError`] if a batch exceeds the merger's cycle budget.
pub fn compare_on_suite_matrix(
    m: &SuiteMatrix,
    ways: usize,
    seed: u64,
) -> Result<MergerComparison, SimError> {
    let a = m.instantiate(2048, seed);
    compare_mergers(&a, ways)
}

#[cfg(test)]
mod tests {
    use super::*;
    use stellar_sim::rows_of_partials;
    use stellar_tensor::gen;
    use stellar_tensor::ops::spgemm_outer_partials;
    use stellar_workloads::suite;

    #[test]
    fn balanced_fem_favors_row_partitioned() {
        // poisson3Da-like matrices have near-uniform row lengths: the
        // 32-lane merger's higher peak wins (§VI-D: "on four of the
        // matrices, the smaller, row-partitioned merger performed better").
        let fem = suite()
            .into_iter()
            .find(|m| m.name == "poisson3Da")
            .unwrap();
        let c = compare_on_suite_matrix(&fem, 16, 3).unwrap();
        assert!(
            c.relative() > 0.8,
            "poisson3Da: row-partitioned should be competitive, got {:.2}",
            c.relative()
        );
    }

    #[test]
    fn skewed_graph_favors_flattened() {
        let web = suite()
            .into_iter()
            .find(|m| m.name == "webbase-1M")
            .unwrap();
        let fem = suite()
            .into_iter()
            .find(|m| m.name == "poisson3Da")
            .unwrap();
        let cw = compare_on_suite_matrix(&web, 16, 3).unwrap();
        let cf = compare_on_suite_matrix(&fem, 16, 3).unwrap();
        assert!(
            cw.relative() < cf.relative(),
            "webbase {:.2} should be worse for row-partitioned than poisson3Da {:.2}",
            cw.relative(),
            cf.relative()
        );
    }

    #[test]
    fn flattened_capped_at_16() {
        let a = gen::uniform(256, 256, 0.1, 5);
        let c = compare_mergers(&a, 16).unwrap();
        assert!(c.flattened_epc <= 16.0 + 1e-9);
        assert!(c.row_partitioned_epc <= 32.0 + 1e-9);
    }

    /// The replaced construction: materialize every partial matrix, split
    /// each into per-row fibers, chunk over the partial list.
    fn oracle_batches(a: &CsrMatrix, ways: usize) -> Vec<Vec<Vec<Fiber>>> {
        let partials = spgemm_outer_partials(&CscMatrix::from_csr(a), a);
        partials
            .chunks(ways.max(1))
            .map(|chunk| rows_of_partials(a.rows(), chunk))
            .collect()
    }

    #[test]
    fn batches_match_partials_oracle() {
        // Column and row 1 hold only 1e-200: their partial matrix
        // underflows to all zeros but still counts toward a group. In
        // partial 2 only the 1e-200 × 1e-200 product vanishes.
        let mut coo = stellar_tensor::CooMatrix::new(6, 6);
        for (r, c, v) in [
            (0, 1, 1e-200),
            (1, 1, 1e-200),
            (0, 3, 3.0),
            (2, 0, 2.0),
            (2, 2, 1e-200),
            (2, 4, 5.0),
            (3, 2, -1.0),
            (4, 4, 0.5),
            (4, 5, 1.5),
            (5, 3, 7.0),
        ] {
            coo.push(r, c, v);
        }
        let tiny = CsrMatrix::from_coo(&coo);
        let cases = [
            tiny,
            gen::uniform(48, 48, 0.12, 4),
            gen::power_law(64, 64, 5.0, 1.8, 6),
        ];
        for a in &cases {
            for ways in [0, 1, 2, 3, 8, 64] {
                let got = sparch_merge_batches(a, ways);
                assert_eq!(got, oracle_batches(a, ways), "ways {ways}");
            }
        }
        // The underflowing partial is what shifts the group boundaries.
        let zero_partial = spgemm_outer_partials(&CscMatrix::from_csr(&cases[0]), &cases[0])
            .iter()
            .any(|p| p.nnz() == 0);
        assert!(zero_partial, "expected a partial matrix with no entries");
    }

    #[test]
    fn batches_cover_all_partials() {
        let a = gen::uniform(64, 64, 0.15, 8);
        let batches = sparch_merge_batches(&a, 8);
        let partials = spgemm_outer_partials(&CscMatrix::from_csr(&a), &a);
        assert_eq!(batches.len(), partials.len().div_ceil(8));
    }
}
